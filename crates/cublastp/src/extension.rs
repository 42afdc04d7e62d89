//! Fine-grained ungapped extension: the diagonal-based (Algorithm 3),
//! hit-based (Algorithm 4) and window-based (Algorithm 5) kernels of
//! §3.4, plus the scoring-table placement policy of §3.5.
//!
//! All three strategies compute extensions with the *same* x-drop routine
//! as the CPU reference ([`blast_cpu::ungapped::extend`]), so functional
//! output is identical by construction; what differs — and what the cost
//! model captures — is how work maps to lanes:
//!
//! * **diagonal-based**: lane ↦ one (sequence, diagonal) group; walks its
//!   hits with the coverage check. Divergence from both varying hit counts
//!   and varying extension lengths.
//! * **hit-based**: lane ↦ one filtered hit, extended unconditionally; no
//!   coverage branch, but redundant extensions (duplicates are removed in
//!   a de-duplication pass) and load imbalance from extension lengths.
//! * **window-based**: a window of `WINDOW_LANES` (8) lanes ↦ one diagonal;
//!   each hit is extended cooperatively, that many positions per step
//!   with a CUB-style prefix scan computing running scores, ChangeSinceBest
//!   and DropFlag (Fig. 8).
//!
//! Every strategy ends its warp batches in the same fused *trigger
//! compaction* (`Compaction`): the only reader of the kernel's output
//! starts gapped extension from records with `score >= gapped_trigger`, so
//! only those are written to the output buffer — the §3.3 filter idea one
//! stage later. A caller that wants every record passes
//! `gapped_trigger: i32::MIN`.
//!
//! The search launches the extension with hit reordering as its prologue,
//! one kernel per database block: [`hit_tail_kernel`] (`hit_tail`).
//! [`extension_kernel`] is the same batch body launched on its own over
//! `reorder_kernel`'s survivors — what Figs. 16 and 19 profile, the pins
//! hold and the benchmark's replay runs.

use crate::binning::BinnedHits;
use crate::config::{CuBlastpConfig, ExtensionStrategy, ScoringMode};
use crate::devicedata::{DeviceDbBlock, DeviceQuery};
use crate::hitpack::{group_key, query_pos, seq_id, subject_pos};
use crate::reorder::{sorted_tiles, tiles, FilterTile, FilteredHits, Neighbour};
use blast_core::SearchParams;
use blast_cpu::ungapped::{extend, UngappedExt};
use gpu_sim::device::WARP_SIZE;
use gpu_sim::memory::virtual_alloc;
use gpu_sim::sort::{TILE_ELEMENTS as TILE, TILE_SHARED_BYTES};
use gpu_sim::{launch_map, DeviceConfig, KernelStats, KernelWorkspace, LaunchConfig, SimBlock};

/// Lanes per window of the window-based strategy (Fig. 8 uses 8).
const WINDOW_LANES: u64 = 8;

/// Positions an x-drop extension scans beyond the best-scoring end before
/// giving up (cost-model constant; the functional routine computes the
/// exact extent).
const OVERSHOOT: u64 = 8;

/// Size of one extension record in the kernel's output buffer and on the
/// D2H leg that carries it.
pub(crate) const RECORD_BYTES: u32 = std::mem::size_of::<UngappedExt>() as u32;

/// Warp instructions of one compaction vote: score compare, `__ballot`,
/// `__popc`.
const VOTE_INSTRS: u64 = 3;

/// Output of the ungapped-extension kernel.
pub struct ExtensionResult {
    /// The extensions that reached `params.gapped_trigger` — what the
    /// kernel writes out — grouped by subject sequence in block-local ids,
    /// de-duplicated for the hit-based strategy.
    pub extensions: Vec<UngappedExt>,
    /// Kernel stats (divergence overhead drives Fig. 16b).
    pub stats: KernelStats,
    /// Redundant extensions the hit-based strategy computed and discarded
    /// (counted over everything computed, not just what was written).
    pub redundant: u64,
}

/// Scoring-path cost per extended position, derived from §3.5.
#[derive(Debug, Clone, Copy)]
struct ScoringCost {
    /// Extra cycles per scored position.
    cycles_per_pos: u64,
    /// Shared-memory accesses per scored position.
    shared_per_pos: u64,
    /// Global transactions per scored position (PSSM spilled to global:
    /// the 64-byte column stride touches a new line every other position).
    tx_per_pos_x2: u64, // in halves to keep integer math
    /// Useful bytes per scored position read from global.
    bytes_per_pos: u64,
}

fn scoring_cost(cfg: &CuBlastpConfig, query_len: usize, device: &DeviceConfig) -> ScoringCost {
    match cfg.resolved_scoring(query_len) {
        ScoringMode::Pssm => {
            if cfg.pssm_in_global(query_len) {
                ScoringCost {
                    cycles_per_pos: device.global_transaction_cost / 2,
                    shared_per_pos: 0,
                    tx_per_pos_x2: 1,
                    bytes_per_pos: 2,
                }
            } else {
                // One shared-memory load per position, partially hidden
                // behind the arithmetic.
                ScoringCost {
                    cycles_per_pos: 2 * device.shared_access_cost,
                    shared_per_pos: 1,
                    tx_per_pos_x2: 0,
                    bytes_per_pos: 0,
                }
            }
        }
        // BLOSUM62: the query residue must be loaded before the matrix
        // cell can be addressed — two *dependent* shared loads whose
        // latency cannot overlap, plus bank conflicts from effectively
        // random (query, subject) residue pairs. This is the extra memory
        // work §3.5 trades against the PSSM's footprint.
        ScoringMode::Blosum62 => ScoringCost {
            cycles_per_pos: 5 * device.shared_access_cost + device.atomic_conflict_cost,
            shared_per_pos: 2,
            tx_per_pos_x2: 0,
            bytes_per_pos: 0,
        },
        ScoringMode::Auto => unreachable!("resolved"),
    }
}

/// Instructions per extended position: score add, running-best update,
/// drop test, bounds check, predicate and pointer bump.
const INSTR_PER_POS: u64 = 6;

/// The cost model of one launch, its per-launch constants folded: what a
/// *slot* — the lane, or the window of `lanes` lanes, that works one task —
/// pays to walk the task's hits and to scan its extensions. A slot is
/// charged as it goes ([`BatchCost::slot`]); the batch's traffic is summed
/// and billed once.
///
/// * Walking `n` packed hits: 8-byte loads, 16 hits per 128-byte line
///   since the group is contiguous — from global memory in the
///   standalone kernel ([`Walk::Global`]); the fused hit tail walks them
///   where its prologue left them, in shared memory ([`Walk::Shared`]),
///   and pays no load for them.
/// * A single lane scanning `p` subject positions: every position issues
///   a load (no L1 on Kepler); the loads walk one line at a time, so DRAM
///   sees only `p / 128` lines while the lane pays L2 latency per
///   position.
/// * A window scanning `p` positions, `lanes` per step with a warp scan:
///   its lanes read `lanes` *consecutive* subject bytes per step — one
///   coalesced load, L2-resident after the first touch of each line — so
///   the window amortizes both latency and bandwidth `lanes`-fold over the
///   single-lane strategies, and always completes its last step.
struct CostModel {
    /// Lanes per slot: 1, or the window size.
    lanes: u64,
    /// Cycles per hit walked.
    per_hit: u64,
    /// Cycles per scan step (`lanes` positions).
    per_step: u64,
    transaction: u64,
    scoring: ScoringCost,
    /// Where the walked hits come from.
    walk: Walk,
}

/// Where an extension launch's lanes find the filtered hits they walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Walk {
    /// In global memory, written there by the filter of another launch.
    Global,
    /// In the block's shared memory, where the fused launch's filter
    /// epilogue compacted them.
    Shared,
}

impl CostModel {
    fn new(cfg: &CuBlastpConfig, query_len: usize, device: &DeviceConfig, walk: Walk) -> Self {
        let scoring = scoring_cost(cfg, query_len, device);
        let lanes = match cfg.extension {
            ExtensionStrategy::Window => WINDOW_LANES,
            ExtensionStrategy::Diagonal | ExtensionStrategy::Hit => 1,
        };
        // A w-lane shuffle scan needs ⌈log₂ w⌉ steps (3 for the default 8).
        let scan_steps = lanes.next_power_of_two().trailing_zeros() as u64;
        Self {
            lanes,
            per_hit: 2 * device.instr_cost,
            per_step: (scan_steps + INSTR_PER_POS) * device.instr_cost
                + scoring.cycles_per_pos
                + device.l2_hit_cost,
            transaction: device.global_transaction_cost,
            scoring,
            walk,
        }
    }

    /// Slots of one warp batch.
    fn slots_per_batch(&self) -> usize {
        WARP_SIZE as usize / self.lanes as usize
    }
}

/// Cost-model sums of one warp batch.
#[derive(Default)]
struct BatchCost {
    /// Cycles of every slot so far: the warp runs as long as its slowest.
    slot_cycles: [u64; WARP_SIZE as usize],
    slots: usize,
    /// Hits loaded from global memory by the walks.
    loaded_hits: u64,
    /// Positions scanned, each window's last step completed.
    positions: u64,
    global_tx: u64,
}

impl BatchCost {
    /// Account the slot that walked `n_hits` hits and computed `exts`.
    fn slot(&mut self, model: &CostModel, n_hits: u64, exts: &[UngappedExt]) {
        let (loaded, walk_tx) = match model.walk {
            Walk::Global => (n_hits, 1 + n_hits / 16),
            Walk::Shared => (0, 0),
        };
        let (mut steps, mut tx) = (0u64, walk_tx);
        let mut scan = |scanned: u64| {
            let s = scanned.div_ceil(model.lanes).max(1);
            let positions = s * model.lanes;
            steps += s;
            tx += 1 + positions / 128 + positions * model.scoring.tx_per_pos_x2 / 2;
            self.positions += positions;
        };
        let scanned = |e: &UngappedExt| e.len as u64 + 2 * OVERSHOOT;
        // A window is charged per extension; a single lane once, for the
        // positions of all its extensions together.
        if model.lanes > 1 {
            exts.iter().map(scanned).for_each(&mut scan);
        } else {
            scan(exts.iter().map(scanned).sum());
        }
        self.slot_cycles[self.slots] =
            n_hits * model.per_hit + steps * model.per_step + tx * model.transaction;
        self.slots += 1;
        self.loaded_hits += loaded;
        self.global_tx += tx;
    }

    /// Bill the batch: the lockstep run of its slots and their traffic.
    fn charge(&self, block: &mut SimBlock, model: &CostModel) {
        block.lockstep_groups(&self.slot_cycles[..self.slots], model.lanes as u32);
        block.bulk_traffic(
            self.global_tx,
            self.loaded_hits * 8 + self.positions * (1 + model.scoring.bytes_per_pos),
            self.positions * model.scoring.shared_per_pos,
        );
    }
}

/// Two hits of one (sequence, diagonal) task.
fn same_diagonal(a: &u64, b: &u64) -> bool {
    group_key(*a) == group_key(*b)
}

/// Where every `stride`-th task of the filtered hits begins, and
/// `hits.len()` last — a task being a maximal run of hits `same_task`
/// holds together. A warp batch of `stride` slots then finds its tasks by
/// cutting `hits[starts[b]..starts[b + 1]]` at the same boundaries; no
/// per-task list is built.
fn batch_starts(hits: &[u64], stride: usize, same_task: fn(&u64, &u64) -> bool) -> Vec<u32> {
    // At most one start per `stride` hits, and the end.
    let mut starts = Vec::with_capacity(hits.len().div_ceil(stride) + 1);
    let mut tasks = 0usize;
    for i in 0..hits.len() {
        if i == 0 || !same_task(&hits[i - 1], &hits[i]) {
            if tasks % stride == 0 {
                starts.push(i as u32);
            }
            tasks += 1;
        }
    }
    starts.push(hits.len() as u32);
    starts
}

/// Functional diagonal walk with the coverage check (Algorithm 3 lines
/// 12–24) — the semantics shared with the CPU reference.
fn walk_task(
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    hits: &[u64],
    params: &SearchParams,
    out: &mut Vec<UngappedExt>,
) {
    let qlen = query.query_len();
    let mut ext_reach: i64 = 0;
    for &h in hits {
        let spos = subject_pos(h);
        if (spos as i64) >= ext_reach {
            let sid = seq_id(h);
            let qpos = query_pos(h, qlen);
            let ext = extend(
                &query.pssm,
                db.seq(sid as usize),
                sid,
                qpos,
                spos,
                params.xdrop_ungapped,
            );
            ext_reach = ext.s_end() as i64;
            out.push(ext);
        }
    }
}

/// Canonical order of a kernel's output — by subject, then subject start,
/// query start and length — shared by every strategy so downstream phases
/// are order-independent. The blocks' records are bucketed by subject
/// straight into the output buffer (a stable counting pass, so the result
/// is already grouped the way [`crate::ExtensionsCsr`] wants it), then
/// each subject's handful is sorted on one packed integer: the three
/// positions are below 2¹⁶ (the packed hit format, asserted by the seeding
/// kernels), and two records equal in all four fields are the same
/// segment with the same score, so the unstable sort is exact.
fn order_by_subject(per_block: Vec<Vec<UngappedExt>>, num_seqs: usize) -> Vec<UngappedExt> {
    let mut ends = vec![0u32; num_seqs + 1];
    for e in per_block.iter().flatten() {
        ends[e.seq_id as usize + 1] += 1;
    }
    for i in 1..=num_seqs {
        ends[i] += ends[i - 1];
    }
    let Some(&filler) = per_block.iter().flatten().next() else {
        return Vec::new();
    };
    let mut out = vec![filler; ends[num_seqs] as usize];
    // `ends[s]` is subject s's write cursor; once every record is placed
    // it has advanced to the subject's end.
    for e in per_block.into_iter().flatten() {
        let at = &mut ends[e.seq_id as usize];
        out[*at as usize] = e;
        *at += 1;
    }
    let mut lo = 0usize;
    for &hi in &ends[..num_seqs] {
        out[lo..hi as usize].sort_unstable_by_key(|e| {
            (e.s_start as u64) << 32 | (e.q_start as u64) << 16 | e.len as u64
        });
        lo = hi as usize;
    }
    out
}

/// One block's share of the fused trigger compaction that ends every warp
/// batch (the §3.3 filter idea one stage later: the CPU tail and the device
/// gapped kernel both start from `score >= trigger`, so nothing else is
/// written out).
///
/// The batch's records sit in `out[from..]`, slot after slot — a slot is
/// the lane, or the window of lanes, that holds a record. The warp votes
/// once per *round*, round `r` being every slot's `r`-th record: score
/// compare + `__ballot` + `__popc`; when the round has survivors the
/// leader reserves their output slots with one global atomic and their
/// records go out as one coalesced write. The atomic returns an arbitrary
/// slot, so each reservation is charged as if it began on a line boundary
/// (one of 20 bytes that straddles a line would cost one transaction
/// more — one write in eight).
struct Compaction {
    trigger: i32,
    /// The hit-based strategy counts its duplicates over everything it
    /// computed, so its dead records stay until the de-duplication pass.
    keep_dead: bool,
    /// Records this block computed, dead or alive.
    computed: u64,
    /// (voting slots, survivors) per round of the current batch.
    rounds: Vec<(u32, u32)>,
}

impl Compaction {
    fn new(cfg: &CuBlastpConfig, params: &SearchParams) -> Self {
        Self {
            trigger: params.gapped_trigger,
            keep_dead: cfg.extension == ExtensionStrategy::Hit,
            computed: 0,
            rounds: Vec::new(),
        }
    }

    /// Bill the compaction of the batch whose slots end at `slot_ends`
    /// (indices into `out`, ascending from `from`) and drop its dead
    /// records from `out`.
    fn batch(
        &mut self,
        block: &mut SimBlock,
        out: &mut Vec<UngappedExt>,
        from: usize,
        slot_ends: &[usize],
        lanes_per_slot: u32,
    ) {
        self.rounds.clear();
        let mut lo = from;
        for &hi in slot_ends {
            for (r, e) in out[lo..hi].iter().enumerate() {
                if r == self.rounds.len() {
                    self.rounds.push((0, 0));
                }
                self.rounds[r].0 += 1;
                self.rounds[r].1 += (e.score >= self.trigger) as u32;
            }
            lo = hi;
        }
        for &(voting, survivors) in &self.rounds {
            block.instr_n(voting * lanes_per_slot, VOTE_INSTRS);
            if survivors > 0 {
                block.atomic_global(&[0]);
                block.global_write_seq(0, survivors, RECORD_BYTES, RECORD_BYTES);
            }
        }
        self.computed += (out.len() - from) as u64;
        if !self.keep_dead {
            let mut kept = from;
            for i in from..out.len() {
                if out[i].score >= self.trigger {
                    out[kept] = out[i];
                    kept += 1;
                }
            }
            out.truncate(kept);
        }
    }
}

/// Run the configured ungapped-extension kernel over the filtered hits.
/// The output holds the extensions that reached `params.gapped_trigger`.
pub fn extension_kernel(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    filtered: &FilteredHits,
    params: &SearchParams,
) -> ExtensionResult {
    extension_launch(device, cfg, query, db, &filtered.hits, params, Walk::Global).0
}

/// The standalone extension launch over `hits` with the walk's loads
/// from `walk`, plus the number of extensions it *computed* (after
/// de-duplication) — the figure `GpuPhaseCounts::extensions` reports,
/// which the compacted output does not show.
pub(crate) fn extension_launch(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    hits: &[u64],
    params: &SearchParams,
    walk: Walk,
) -> (ExtensionResult, u64) {
    let qlen = query.query_len();
    let extender = Extender::new(device, cfg, query, db, params, walk);
    let starts = extender.batch_starts(hits);
    let launch_cfg = LaunchConfig {
        blocks: cfg.grid_blocks,
        warps_per_block: cfg.warps_per_block,
        shared_bytes_per_block: cfg.scoring_shared_bytes(qlen) + OUTPUT_BUFFER_BYTES,
        use_readonly_cache: cfg.use_readonly_cache,
    };
    let blocks = cfg.grid_blocks.max(1) as usize;

    // Each block's surviving extensions come back by value in block
    // order — no mutex collector, no re-sorting by block id. Blocks
    // stride the list of warp batches.
    let (per_block, stats) = launch_map(device, launch_cfg, cfg.extension.kernel_name(), |block| {
        let mut out = BlockOutput::new(cfg, params);
        for batch in (block.block_id as usize..starts.len() - 1).step_by(blocks) {
            let batch_hits = &hits[starts[batch] as usize..starts[batch + 1] as usize];
            extender.batch(block, batch_hits, &mut out);
        }
        (out.records, out.compaction.computed)
    });
    finish(cfg, db, params, per_block, stats)
}

/// Shared memory of the per-block output buffer the extension stages its
/// records in.
const OUTPUT_BUFFER_BYTES: u32 = 1024;

/// Warps per block of the fused hit tail: 1 024 threads, two keys of the
/// 2 048-key tile each. With the tile, the scoring table and the output
/// buffer resident, one or two blocks fit an SM — occupancy 0.5 or 1.0,
/// which the time model does not de-rate (DESIGN.md §3.2).
pub const HIT_TAIL_WARPS: u32 = 32;

/// Stats name of the fused hit tail.
pub const HIT_TAIL_KERNEL: &str = "hit_tail";

/// Output of the fused hit tail.
pub struct HitTail {
    /// The trigger survivors in [`extension_kernel`]'s order, the
    /// redundant count, and the fused launch's stats.
    pub result: ExtensionResult,
    /// Extensions computed (after de-duplication).
    pub computed: u64,
    /// Hits the filter kept.
    pub filtered: u64,
}

/// Hit reordering as the prologue of the extension kernel: **one
/// launch** from the binned arena to the trigger survivors. Thread blocks
/// tile the arena as [`crate::reorder::reorder_kernel`] does — gather
/// into the shared-memory tile, merge passes, neighbour filter — and then
/// extend their own tile's survivors out of shared memory, in warp
/// batches cut per tile. The survivor array is never written and never
/// re-read. A (sequence, diagonal) group cut by a tile edge is finished by
/// the tile it starts in: the survivors beyond the edge are written out
/// by their tile and read back by that one (the hit-based strategy, whose
/// task is one hit, has no such group). DESIGN.md §3.2 has the billing
/// rule; the extensions, their order and the counts equal the staged
/// path's (`reorder_kernel` then [`extension_kernel`]).
///
/// When the tile, the scoring table and the output buffer do not fit one
/// SM's shared memory together (an explicit PSSM on a query over 496
/// residues), the survivors go through global memory as in the staged
/// path and the table takes the tile's place.
pub fn hit_tail_kernel(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    binned: BinnedHits,
    params: &SearchParams,
    ws: &KernelWorkspace,
) -> HitTail {
    let table = cfg.scoring_shared_bytes(query.query_len()) + OUTPUT_BUFFER_BYTES;
    let resident = TILE_SHARED_BYTES + table <= device.shared_mem_per_sm;
    let (walk, shared) = match resident {
        true => (Walk::Shared, TILE_SHARED_BYTES + table),
        false => (Walk::Global, TILE_SHARED_BYTES.max(table)),
    };
    let (hits, k_sort) = sorted_tiles(device, binned, HIT_TAIL_KERNEL, ws);
    let keys = &hits.keys[..];
    let launch_cfg = LaunchConfig {
        blocks: tiles(keys.len()),
        warps_per_block: HIT_TAIL_WARPS,
        shared_bytes_per_block: shared,
        use_readonly_cache: cfg.use_readonly_cache,
    };
    let extender = Extender::new(device, cfg, query, db, params, walk);
    let filter = FilterTile {
        rule: Neighbour {
            two_hit: params.two_hit,
            window: params.two_hit_window as i64,
        },
        tile_resident: true,
        src_base: virtual_alloc(keys.len().max(1) as u64 * 8),
        dst_base: (!resident).then(|| virtual_alloc(keys.len().max(1) as u64 * 8)),
    };
    // A tile's part of a group cut by its left edge, parked for the tile
    // the group starts in: one tile-sized slot each.
    let parked = virtual_alloc(tiles(keys.len()) as u64 * TILE as u64 * 8);
    let slot = |tile: usize| parked + (tile * TILE * 8) as u64;
    let groups = cfg.extension != ExtensionStrategy::Hit;

    let (per_block, mut stats) = launch_map(device, launch_cfg, HIT_TAIL_KERNEL, |block| {
        let t = block.block_id as usize;
        let (lo, hi) = (t * TILE, ((t + 1) * TILE).min(keys.len()));
        let mut owned: Vec<u64> = ws.tile_keys.take();
        filter.run(block, keys, &mut owned);
        let filtered = owned.len() as u64;
        let cut = |edge: usize| {
            0 < edge && edge < keys.len() && same_diagonal(&keys[edge - 1], &keys[edge])
        };
        if groups && cut(lo) {
            // The leading group started in an earlier tile.
            let g = group_key(keys[lo]);
            let theirs = owned.iter().take_while(|&&h| group_key(h) == g).count();
            if resident {
                park(block, slot(t), theirs, Access::Write);
            }
            owned.drain(..theirs);
        }
        if groups && cut(hi) && !(cut(lo) && same_diagonal(&keys[lo], &keys[hi - 1])) {
            // The trailing group starts here: finish it, tile by tile.
            let same = |j: &usize| same_diagonal(&keys[j - 1], &keys[*j]);
            let end = hi + (hi..keys.len()).take_while(same).count();
            for at in (hi..end).step_by(TILE) {
                let from = owned.len();
                let theirs = (at..(at + TILE).min(end))
                    .filter(|&j| filter.rule.extendable(Some(keys[j - 1]), keys[j]));
                owned.extend(theirs.map(|j| keys[j]));
                if resident {
                    park(block, slot(at / TILE), owned.len() - from, Access::Read);
                }
            }
        }
        let mut out = BlockOutput::new(cfg, params);
        let starts = extender.batch_starts(&owned);
        for w in starts.windows(2) {
            extender.batch(block, &owned[w[0] as usize..w[1] as usize], &mut out);
        }
        ws.tile_keys.put(owned);
        ((out.records, out.compaction.computed), filtered)
    });
    stats.merge(&k_sort);
    hits.recycle(ws);
    let (per_block, filtered): (Vec<_>, Vec<u64>) = per_block.into_iter().unzip();
    let (result, computed) = finish(cfg, db, params, per_block, stats);
    HitTail {
        result,
        computed,
        filtered: filtered.iter().sum(),
    }
}

/// Which way a parked run of survivors crosses.
#[derive(Clone, Copy)]
enum Access {
    Write,
    Read,
}

/// `n` survivors of a cut group written to, or read back from, the tile
/// slot at `base`: coalesced 8-byte accesses, 32 lanes at a time.
fn park(block: &mut SimBlock, base: u64, n: usize, access: Access) {
    for j in (0..n).step_by(WARP_SIZE as usize) {
        let lanes = (n - j).min(WARP_SIZE as usize) as u32;
        match access {
            Access::Write => block.global_write_seq(base + j as u64 * 8, lanes, 8, 8),
            Access::Read => block.global_read_seq(base + j as u64 * 8, lanes, 8, 8),
        }
    }
}

/// One block's records and its share of the trigger compaction.
struct BlockOutput {
    records: Vec<UngappedExt>,
    compaction: Compaction,
    slot_ends: Vec<usize>,
}

impl BlockOutput {
    fn new(cfg: &CuBlastpConfig, params: &SearchParams) -> Self {
        Self {
            records: Vec::new(),
            compaction: Compaction::new(cfg, params),
            slot_ends: Vec::with_capacity(WARP_SIZE as usize),
        }
    }
}

/// The body every extension launch shares: the strategy's tasks, the
/// launch's cost model, and one warp batch at a time.
struct Extender<'a> {
    query: &'a DeviceQuery,
    db: &'a DeviceDbBlock,
    params: &'a SearchParams,
    model: CostModel,
    same_task: fn(&u64, &u64) -> bool,
}

impl<'a> Extender<'a> {
    fn new(
        device: &DeviceConfig,
        cfg: &CuBlastpConfig,
        query: &'a DeviceQuery,
        db: &'a DeviceDbBlock,
        params: &'a SearchParams,
        walk: Walk,
    ) -> Self {
        // Lane ↦ (sequence, diagonal) task, walked with the coverage
        // check; a window of lanes ↦ task (Fig. 9d); or lane ↦ hit, every
        // filtered hit a task of its own and extended, coverage be damned
        // (Algorithm 4) — duplicates removed afterwards.
        let same_task = match cfg.extension {
            ExtensionStrategy::Diagonal | ExtensionStrategy::Window => same_diagonal,
            ExtensionStrategy::Hit => |_: &u64, _: &u64| false,
        };
        Self {
            query,
            db,
            params,
            model: CostModel::new(cfg, query.query_len(), device, walk),
            same_task,
        }
    }

    /// Where every warp batch of `hits` begins, and `hits.len()` last.
    fn batch_starts(&self, hits: &[u64]) -> Vec<u32> {
        batch_starts(hits, self.model.slots_per_batch(), self.same_task)
    }

    /// Extend one warp batch of tasks and bill it: the lockstep run of its
    /// slots, their traffic, and the trigger compaction.
    fn batch(&self, block: &mut SimBlock, batch_hits: &[u64], out: &mut BlockOutput) {
        let from = out.records.len();
        let mut cost = BatchCost::default();
        out.slot_ends.clear();
        for task in batch_hits.chunk_by(self.same_task) {
            let before = out.records.len();
            walk_task(self.query, self.db, task, self.params, &mut out.records);
            out.slot_ends.push(out.records.len());
            cost.slot(&self.model, task.len() as u64, &out.records[before..]);
        }
        cost.charge(block, &self.model);
        let lanes = self.model.lanes as u32;
        (out.compaction).batch(block, &mut out.records, from, &out.slot_ends, lanes);
    }
}

/// The host epilogue of every extension launch: the blocks' records in
/// canonical order, de-duplicated for the hit-based strategy, and the
/// count of extensions computed.
fn finish(
    cfg: &CuBlastpConfig,
    db: &DeviceDbBlock,
    params: &SearchParams,
    per_block: Vec<(Vec<UngappedExt>, u64)>,
    stats: KernelStats,
) -> (ExtensionResult, u64) {
    let (per_block, computed): (Vec<_>, Vec<u64>) = per_block.into_iter().unzip();
    let mut computed: u64 = computed.iter().sum();
    let mut extensions = order_by_subject(per_block, db.num_seqs());
    let mut redundant = 0u64;
    if cfg.extension == ExtensionStrategy::Hit {
        // The de-duplication pass sees every record the kernel computed
        // (the ordering brings duplicates together); the dead ones go
        // only after it.
        extensions.dedup();
        redundant = computed - extensions.len() as u64;
        computed -= redundant;
        extensions.retain(|e| e.score >= params.gapped_trigger);
    }

    let result = ExtensionResult {
        extensions,
        stats,
        redundant,
    };
    (result, computed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScoringMode;
    use crate::hitpack::pack;
    use bio_seq::generate::make_query;
    use bio_seq::Sequence;
    use blast_core::{Dfa, Matrix, Pssm};

    fn device_query(qlen: usize) -> DeviceQuery {
        let q = make_query(qlen);
        let m = Matrix::blosum62();
        DeviceQuery::upload(Dfa::build(&q, &m, 11), Pssm::build(&q, &m))
    }

    fn filtered(hits: Vec<u64>) -> FilteredHits {
        let before = hits.len() as u64 * 10;
        FilteredHits { hits, before }
    }

    /// Parameters under which the kernel writes out every record it
    /// computes — how a caller asks for the uncompacted extension set.
    fn every_record() -> SearchParams {
        SearchParams {
            gapped_trigger: i32::MIN,
            ..SearchParams::default()
        }
    }

    #[test]
    fn batch_starts_cut_every_nth_task() {
        let hits = vec![pack(0, 3, 1), pack(0, 3, 9), pack(0, 5, 2), pack(1, 3, 4)];
        // Tasks by (sequence, diagonal): hits 0..2, 2..3, 3..4.
        let tasks: Vec<&[u64]> = hits.chunk_by(same_diagonal).collect();
        assert_eq!(tasks, [&hits[0..2], &hits[2..3], &hits[3..4]]);
        assert_eq!(batch_starts(&hits, 1, same_diagonal), [0, 2, 3, 4]);
        assert_eq!(batch_starts(&hits, 2, same_diagonal), [0, 3, 4]);
        assert_eq!(batch_starts(&hits, 32, same_diagonal), [0, 4]);
        // Every hit its own task.
        assert_eq!(batch_starts(&hits, 3, |_, _| false), [0, 3, 4]);
        assert_eq!(batch_starts(&[], 4, same_diagonal), [0]);
    }

    fn workload() -> (DeviceQuery, DeviceDbBlock, FilteredHits) {
        let dq = device_query(64);
        let q = make_query(64);
        // Subjects embedding the query → real extendable hits.
        let subjects: Vec<Sequence> = (0..12)
            .map(|k| {
                let mut r = make_query(40 + k).residues().to_vec();
                r.extend_from_slice(q.residues());
                r.extend(make_query(30 + k).residues().iter());
                Sequence::from_residues(format!("s{k}"), r)
            })
            .collect();
        let db = DeviceDbBlock::upload(&subjects, 0);
        // Generate filtered hits with the real front half of the pipeline.
        let cfg = CuBlastpConfig {
            grid_blocks: 2,
            warps_per_block: 2,
            num_bins: 16,
            ..Default::default()
        };
        let d = DeviceConfig::k20c();
        let ws = gpu_sim::KernelWorkspace::new();
        let (binned, _) = crate::binning::binning_kernel(&d, &cfg, &dq, &db, &ws);
        let (f, _) = crate::reorder::reorder_kernel(&d, binned, true, 40, &ws);
        (dq, db, f)
    }

    #[test]
    fn diagonal_and_window_produce_identical_extensions() {
        let (dq, db, f) = workload();
        let d = DeviceConfig::k20c();
        let p = every_record();
        let run = |strategy| {
            let cfg = CuBlastpConfig {
                extension: strategy,
                grid_blocks: 3,
                warps_per_block: 2,
                ..Default::default()
            };
            extension_kernel(&d, &cfg, &dq, &db, &f, &p)
        };
        let diag = run(ExtensionStrategy::Diagonal);
        let win = run(ExtensionStrategy::Window);
        assert!(
            !diag.extensions.is_empty(),
            "workload produced no extensions"
        );
        assert_eq!(diag.extensions, win.extensions);
        assert_eq!(diag.redundant, 0);
        assert_eq!(win.redundant, 0);
    }

    #[test]
    fn output_is_in_canonical_order_for_every_strategy() {
        let (dq, db, f) = workload();
        let d = DeviceConfig::k20c();
        let p = every_record();
        let mut redundant = Vec::new();
        for strategy in [
            ExtensionStrategy::Diagonal,
            ExtensionStrategy::Hit,
            ExtensionStrategy::Window,
        ] {
            let cfg = CuBlastpConfig {
                extension: strategy,
                grid_blocks: 3,
                warps_per_block: 2,
                ..Default::default()
            };
            let r = extension_kernel(&d, &cfg, &dq, &db, &f, &p);
            assert!(r.extensions.len() > 12, "{strategy:?}: too few to order");
            // The definition: a stable sort on the four-field key.
            let mut want = r.extensions.clone();
            want.reverse();
            want.sort_by_key(|e| (e.seq_id, e.s_start, e.q_start, e.len));
            assert_eq!(r.extensions, want, "{strategy:?}");
            redundant.push(r.redundant);

            // Grouped by subject already, so the CSR takes the buffer as it
            // is — and equals the CSR of the same records arriving with the
            // subjects in another order (order within a subject kept).
            let n = db.num_seqs();
            let grouped = crate::ExtensionsCsr::from_stream(r.extensions.clone(), n);
            let mut interleaved = r.extensions.clone();
            interleaved.sort_by_key(|e| std::cmp::Reverse(e.seq_id));
            assert!(interleaved.windows(2).any(|w| w[0].seq_id > w[1].seq_id));
            assert_eq!(grouped, crate::ExtensionsCsr::from_stream(interleaved, n));
            assert_eq!(grouped.records(), &r.extensions[..]);
        }
        // Every duplicate the hit-based kernel computes is one the ordering
        // brings together: 749 raw extensions, 29 distinct.
        assert_eq!(redundant, [0, 720, 0]);
    }

    #[test]
    fn compaction_costs_only_votes_when_nothing_survives() {
        // With a trigger no record reaches, the kernel writes nothing and
        // reserves nothing: what it bills beyond the kernel before the
        // compaction (the `warp_cycles` `kernel_stats_pinned.rs` held it to
        // on this fixture and grid) is three instructions per vote round.
        let (dq, db, f) = workload();
        let d = DeviceConfig::k20c();
        let nothing = SearchParams {
            gapped_trigger: i32::MAX,
            ..SearchParams::default()
        };
        // Rounds: the 28 diagonals fill one warp batch whose fullest lane
        // holds two records; 749 hits are ⌈749 / 32⌉ batches of one record
        // a lane; four windows a batch make seven, one with a second record.
        for (strategy, uncompacted, rounds) in [
            (ExtensionStrategy::Diagonal, 1642, 2),
            (ExtensionStrategy::Hit, 35376, 24),
            (ExtensionStrategy::Window, 2671, 8),
        ] {
            let cfg = CuBlastpConfig {
                extension: strategy,
                grid_blocks: 3,
                warps_per_block: 2,
                ..Default::default()
            };
            let (r, computed) =
                extension_launch(&d, &cfg, &dq, &db, &f.hits, &nothing, Walk::Global);
            assert!(r.extensions.is_empty(), "{strategy:?}");
            assert_eq!(computed, 29, "{strategy:?}: computed, not written");
            assert_eq!(r.stats.atomic_ops, 0, "{strategy:?}");
            assert_eq!(
                r.stats.global_useful_bytes, r.stats.global_load_useful_bytes,
                "{strategy:?}: no writes"
            );
            assert_eq!(
                r.stats.warp_cycles,
                uncompacted + VOTE_INSTRS * d.instr_cost * rounds,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn hit_based_is_superset_after_dedup() {
        let (dq, db, f) = workload();
        let d = DeviceConfig::k20c();
        let p = every_record();
        let mk = |strategy| CuBlastpConfig {
            extension: strategy,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let diag = extension_kernel(&d, &mk(ExtensionStrategy::Diagonal), &dq, &db, &f, &p);
        let hit = extension_kernel(&d, &mk(ExtensionStrategy::Hit), &dq, &db, &f, &p);
        // Every diagonal-based extension appears in the hit-based output.
        for e in &diag.extensions {
            assert!(
                hit.extensions.contains(e),
                "missing extension {e:?} in hit-based output"
            );
        }
        assert!(hit.extensions.len() >= diag.extensions.len());
    }

    #[test]
    fn extension_results_are_independent_of_grid_shape() {
        let (dq, db, f) = workload();
        let d = DeviceConfig::k20c();
        let p = every_record();
        let run = |blocks, warps| {
            let cfg = CuBlastpConfig {
                grid_blocks: blocks,
                warps_per_block: warps,
                ..Default::default()
            };
            extension_kernel(&d, &cfg, &dq, &db, &f, &p).extensions
        };
        assert_eq!(run(1, 1), run(7, 4));
    }

    #[test]
    fn window_has_lowest_divergence() {
        let (dq, db, f) = workload();
        let d = DeviceConfig::k20c();
        let p = SearchParams::default();
        let run = |strategy| {
            let cfg = CuBlastpConfig {
                extension: strategy,
                grid_blocks: 2,
                warps_per_block: 2,
                ..Default::default()
            };
            extension_kernel(&d, &cfg, &dq, &db, &f, &p)
                .stats
                .divergence_overhead()
        };
        let diag = run(ExtensionStrategy::Diagonal);
        let win = run(ExtensionStrategy::Window);
        assert!(
            win < diag,
            "window divergence {win} must beat diagonal {diag}"
        );
    }

    #[test]
    fn empty_filtered_hits() {
        let dq = device_query(32);
        let db = DeviceDbBlock::upload(&[], 0);
        let d = DeviceConfig::k20c();
        let p = SearchParams::default();
        let cfg = CuBlastpConfig::default();
        let r = extension_kernel(&d, &cfg, &dq, &db, &filtered(vec![]), &p);
        assert!(r.extensions.is_empty());
        assert_eq!(r.redundant, 0);
    }

    /// The inputs of the fused-tail tests: a query and subjects that hold
    /// rotations of it, so some diagonals extend far and some not at all.
    struct Fixture {
        query: DeviceQuery,
        db: DeviceDbBlock,
        qlen: usize,
        slen: usize,
    }

    /// Subjects per fixture; the last is reserved for the dense groups.
    const SUBJECTS: usize = 6;

    /// Scoring × query length of the fixtures: the PSSM resident beside
    /// the tile (two blocks an SM, then one), the PSSM too large to sit
    /// beside it (the survivors go through global memory), BLOSUM62, and
    /// — on a query long enough for one group to span three tiles —
    /// the PSSM spilled to global memory (its extensions bandwidth-bound)
    /// and BLOSUM62 (compute-bound: what an occupancy de-rate shows on).
    /// An explicit PSSM on 753–768 residues fits neither this launch's
    /// nor the standalone extension's shared memory (both bill
    /// occupancy 0), so no fixture sits there.
    const FIXTURES: [(ScoringMode, usize); 7] = [
        (ScoringMode::Pssm, 64),
        (ScoringMode::Pssm, 300),
        (ScoringMode::Pssm, 600),
        (ScoringMode::Blosum62, 127),
        (ScoringMode::Blosum62, 517),
        (ScoringMode::Pssm, 2300),
        (ScoringMode::Blosum62, 2300),
    ];

    /// The fixtures whose diagonals are longer than a tile.
    const LONG: [usize; 2] = [5, 6];

    fn fixture(i: usize) -> &'static Fixture {
        static FIXTURES_BUILT: [std::sync::OnceLock<Fixture>; FIXTURES.len()] =
            [const { std::sync::OnceLock::new() }; FIXTURES.len()];
        FIXTURES_BUILT[i].get_or_init(|| {
            let qlen = FIXTURES[i].1;
            let q = make_query(qlen);
            let slen = qlen + 400;
            let subjects: Vec<Sequence> = (0..SUBJECTS)
                .map(|k| {
                    let r = q.residues();
                    let rot = r.iter().cycle().skip(k * 7 % qlen).take(slen).copied();
                    Sequence::from_residues(format!("s{k}"), rot.collect())
                })
                .collect();
            Fixture {
                query: device_query(qlen),
                db: DeviceDbBlock::upload(&subjects, 0),
                qlen,
                slen,
            }
        })
    }

    /// Deterministic pseudo-random stream for the arena generator.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = (self.0)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n.max(1)
        }
    }

    /// Subject positions a word hit on diagonal `d` can start at.
    fn on_diagonal(f: &Fixture, d: usize) -> std::ops::Range<usize> {
        d.saturating_sub(f.qlen)..(f.slen - 2).min(d.saturating_sub(2))
    }

    /// `len` valid word hits of bin `bin` (of `bins`) on subjects below
    /// the reserved one: runs along (sequence, diagonal) groups whose
    /// steps land on, just inside and just outside `window`, scrambled.
    fn bin_hits(
        f: &Fixture,
        rng: &mut Lcg,
        bin: usize,
        bins: usize,
        len: usize,
        window: u32,
    ) -> Vec<u64> {
        let mut v = Vec::with_capacity(len);
        let diagonals = (f.qlen + f.slen - 4 - bin) / bins;
        let mut group = 0..0;
        let (mut seq, mut diag) = (0, 0);
        while v.len() < len {
            if group.is_empty() || rng.below(6) == 0 {
                seq = rng.below(SUBJECTS as u64 - 1) as u32;
                diag = 3 + bin + bins * rng.below(diagonals as u64) as usize;
                group = on_diagonal(f, diag);
                let skip = rng.below(group.len() as u64) as usize;
                group.start += skip;
                continue;
            }
            v.push(pack(seq, diag as u32, group.start as u32));
            group.start += match rng.below(5) {
                0 => window as usize,
                1 => window as usize + 1,
                2 => 1,
                3 => 1 + rng.below(window as u64) as usize,
                _ => window as usize + 2 + rng.below(90) as usize,
            };
        }
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i as u64 + 1) as usize);
        }
        v
    }

    /// One generated arena as ragged bins. Shapes: 0–2 random bins with
    /// `empty_pct` of them empty, 3 all bins empty, 4 one segment longer
    /// than a tile among ordinary ones, 5 / 6 / 7 a dense group (every hit
    /// within `window` of the last) starting a few keys before a 32-lane
    /// chunk edge / the tile edge / the tile edge and as long as its
    /// diagonal (on the longest query, across the next tile too).
    fn arena(f: &Fixture, shape: u32, seed: u64, empty_pct: u64, window: u32) -> Vec<Vec<u64>> {
        let mut rng = Lcg(seed);
        let bins = 2 + rng.below(38) as usize;
        let mut v: Vec<Vec<u64>> = (0..bins)
            .map(|b| {
                let len = match (shape, rng.below(100) < empty_pct) {
                    (3, _) | (_, true) => 0,
                    _ => 1 + rng.below(70) as usize,
                };
                bin_hits(f, &mut rng, b, bins, len, window)
            })
            .collect();
        match shape {
            4 => {
                let b = rng.below(bins as u64) as usize;
                let len = TILE + 1 + rng.below(3000) as usize;
                v[b] = bin_hits(f, &mut rng, b, bins, len, window);
            }
            5..=7 => {
                let edge = if shape == 5 { WARP_SIZE as usize } else { TILE };
                let lead = edge - 1 - rng.below(20) as usize;
                let mut filled = 0;
                for (b, bin) in v.iter_mut().enumerate().take(bins - 1) {
                    let len = if b == bins - 2 {
                        lead - filled
                    } else {
                        (lead - filled).min(rng.below(400) as usize)
                    };
                    *bin = bin_hits(f, &mut rng, b, bins, len, window);
                    filled += len;
                }
                // On the homologous diagonal of the reserved subject.
                let diag = f.qlen - (SUBJECTS - 1) * 7 % f.qlen;
                let span = on_diagonal(f, diag);
                let n = if shape == 7 {
                    span.len().min(2 * TILE + 100)
                } else {
                    40
                };
                let step =
                    1 + rng.below((window as usize).min(span.len() / n).max(1) as u64) as usize;
                let n = n.min(span.len() / step);
                v[bins - 1] = (0..n)
                    .rev()
                    .map(|k| {
                        pack(
                            SUBJECTS as u32 - 1,
                            diag as u32,
                            (span.start + k * step) as u32,
                        )
                    })
                    .collect();
            }
            _ => {}
        }
        v
    }

    fn binned(bins: &[Vec<u64>]) -> BinnedHits {
        let mut offsets = vec![0u32];
        let mut keys = Vec::new();
        for b in bins {
            keys.extend_from_slice(b);
            offsets.push(keys.len() as u32);
        }
        BinnedHits {
            offsets,
            total_hits: keys.len() as u64,
            keys,
            num_bins: bins.len(),
            num_warps: 1,
        }
    }

    /// One generated case of the fused-tail tests.
    #[derive(Debug, Clone)]
    struct TailCase {
        fixture: usize,
        strategy: ExtensionStrategy,
        shape: u32,
        seed: u64,
        empty_pct: u64,
        window: u32,
        two_hit: bool,
        every_record: bool,
        warps_per_block: u32,
        grid_blocks: u32,
    }

    /// The generator of [`TailCase`]s.
    struct TailCases;

    impl proptest::strategy::Strategy for TailCases {
        type Value = TailCase;

        fn sample(&self, rng: &mut proptest::test_runner::TestRng) -> TailCase {
            let strategies = [
                ExtensionStrategy::Diagonal,
                ExtensionStrategy::Hit,
                ExtensionStrategy::Window,
            ];
            let mut below = |n: usize| rng.below(0, n as u64 - 1);
            let shape = below(8) as u32;
            // Only the longest query has a diagonal that spans a tile.
            let fixture = match shape {
                7 => LONG[below(2) as usize],
                _ => below(FIXTURES.len()) as usize,
            };
            TailCase {
                fixture,
                strategy: strategies[below(3) as usize],
                shape,
                seed: below(usize::MAX),
                empty_pct: below(100),
                window: 1 + below(47) as u32,
                two_hit: below(2) == 1,
                every_record: below(2) == 1,
                warps_per_block: 1 + below(8) as u32,
                grid_blocks: 1 + below(29) as u32,
            }
        }
    }

    impl TailCase {
        fn fixture(&self) -> &'static Fixture {
            fixture(self.fixture)
        }

        fn cfg(&self) -> CuBlastpConfig {
            CuBlastpConfig {
                extension: self.strategy,
                scoring: FIXTURES[self.fixture].0,
                warps_per_block: self.warps_per_block,
                grid_blocks: self.grid_blocks,
                ..Default::default()
            }
        }

        fn params(&self) -> SearchParams {
            let p = SearchParams::default();
            SearchParams {
                two_hit: self.two_hit,
                two_hit_window: self.window as _,
                gapped_trigger: if self.every_record {
                    i32::MIN
                } else {
                    p.gapped_trigger
                },
                ..p
            }
        }

        fn bins(&self) -> Vec<Vec<u64>> {
            arena(
                self.fixture(),
                self.shape,
                self.seed,
                self.empty_pct,
                self.window,
            )
        }

        /// The staged path: `reorder_kernel`, then the extension kernel
        /// over its survivors.
        fn staged(&self, d: &DeviceConfig) -> (FilteredHits, KernelStats, ExtensionResult, u64) {
            let (f, ws) = (self.fixture(), gpu_sim::KernelWorkspace::new());
            let p = self.params();
            let (filtered, k_reorder) = crate::reorder::reorder_kernel(
                d,
                binned(&self.bins()),
                p.two_hit,
                p.two_hit_window as i64,
                &ws,
            );
            let (ext, computed) = extension_launch(
                d,
                &self.cfg(),
                &f.query,
                &f.db,
                &filtered.hits,
                &p,
                Walk::Global,
            );
            (filtered, k_reorder, ext, computed)
        }

        fn fused(&self, d: &DeviceConfig) -> HitTail {
            let f = self.fixture();
            let ws = gpu_sim::KernelWorkspace::new();
            hit_tail_kernel(
                d,
                &self.cfg(),
                &f.query,
                &f.db,
                binned(&self.bins()),
                &self.params(),
                &ws,
            )
        }
    }

    /// What the tiles of the fused launch do, worked out from the sorted
    /// arena alone: per tile, the survivors of every 32-lane chunk, the
    /// hits it extends (the groups that start in it, to their end), and
    /// how many of its survivors belong to a group cut by its left edge.
    struct TileBook {
        chunk_survivors: Vec<u32>,
        owned: Vec<u64>,
        parked: usize,
    }

    fn tile_books(case: &TailCase) -> Vec<TileBook> {
        let mut keys: Vec<u64> = Vec::new();
        for mut bin in case.bins() {
            bin.sort_unstable();
            keys.extend(bin);
        }
        let p = case.params();
        let groups = case.strategy != ExtensionStrategy::Hit;
        // Per key: whether it survives the filter, and the tile it is
        // extended in — the tile of its group's first key (its own tile
        // for the hit-based kernel, whose task is one hit).
        let mut first = 0;
        let book: Vec<(bool, usize)> = (0..keys.len())
            .map(|i| {
                let same = i > 0 && keys[i - 1] >> 16 == keys[i] >> 16;
                if !same {
                    first = i;
                }
                let near =
                    same && (keys[i] & 0xFFFF) - (keys[i - 1] & 0xFFFF) <= p.two_hit_window as u64;
                (
                    !p.two_hit || near,
                    if groups { first / TILE } else { i / TILE },
                )
            })
            .collect();
        (0..keys.len().div_ceil(TILE).max(1))
            .map(|t| {
                let tile = t * TILE..((t + 1) * TILE).min(keys.len());
                let survivors = |r: std::ops::Range<usize>| r.filter(|&i| book[i].0);
                TileBook {
                    chunk_survivors: (tile.clone().step_by(WARP_SIZE as usize))
                        .map(|c| {
                            survivors(c..(c + WARP_SIZE as usize).min(tile.end)).count() as u32
                        })
                        .collect(),
                    owned: (survivors(0..keys.len()))
                        .filter(|&i| book[i].1 == t)
                        .map(|i| keys[i])
                        .collect(),
                    parked: survivors(tile).filter(|&i| book[i].1 != t).count(),
                }
            })
            .collect()
    }

    /// Every counter of a stats record, signed, so a ledger can subtract.
    fn counters(k: &KernelStats) -> [i128; 13] {
        [
            k.warp_cycles,
            k.active_lane_cycles,
            k.divergent_idle_cycles,
            k.global_useful_bytes,
            k.global_transacted_bytes,
            k.global_transactions,
            k.global_load_useful_bytes,
            k.global_load_transacted_bytes,
            k.shared_accesses,
            k.atomic_ops,
            k.atomic_conflicts,
            k.rocache_hits,
            k.rocache_misses,
        ]
        .map(i128::from)
    }

    fn add(a: [i128; 13], b: [i128; 13]) -> [i128; 13] {
        std::array::from_fn(|i| a[i] + b[i])
    }

    fn sub(a: [i128; 13], b: [i128; 13]) -> [i128; 13] {
        std::array::from_fn(|i| a[i] - b[i])
    }

    /// A one-block launch of what `body` bills.
    fn billed(d: &DeviceConfig, body: impl Fn(&mut SimBlock)) -> [i128; 13] {
        let one = LaunchConfig {
            blocks: 1,
            warps_per_block: 1,
            shared_bytes_per_block: 0,
            use_readonly_cache: false,
        };
        counters(&gpu_sim::launch(d, one, "term", body))
    }

    /// **The billing rule of the fused hit tail** (DESIGN.md §3.2 quotes
    /// this function): the named terms by which `hit_tail` differs from
    /// `hit_reordering` + the extension kernel over the same arena.
    ///
    /// * `survivor_write` (−): the filter's stride-16 survivor stores,
    ///   chunk by chunk from each tile's first output slot;
    /// * `walk_reread` (−): the extension walk's loads of those survivors
    ///   — `1 + ⌊n / 16⌋` transactions and 8 B per hit of every task, and
    ///   the cycles they cost inside each slot of the lockstep batch;
    /// * `cut_groups` (+): a group cut by a tile edge, finished by the
    ///   tile it starts in — its survivors beyond the edge written by
    ///   their tile and read back, coalesced 8-byte accesses;
    /// * `tile_batches` (+): the extension's warp batches cut tile by
    ///   tile instead of over the whole survivor array, so each tile's last
    ///   batch runs with idle slots: the extension kernel launched per
    ///   tile minus launched once.
    ///
    /// When the tile and the scoring table do not fit one SM together the
    /// survivors go through global memory and only `tile_batches` is owed.
    struct Ledger {
        survivor_write: [i128; 13],
        walk_reread: [i128; 13],
        cut_groups: [i128; 13],
        tile_batches: [i128; 13],
    }

    fn tail_ledger(
        d: &DeviceConfig,
        case: &TailCase,
        books: &[TileBook],
        ext: &ExtensionResult,
        resident: bool,
    ) -> Ledger {
        let (f, cfg, p) = (case.fixture(), case.cfg(), case.params());
        let launch = |hits: &[u64], walk| {
            counters(
                &extension_launch(d, &cfg, &f.query, &f.db, hits, &p, walk)
                    .0
                    .stats,
            )
        };
        let zero = [0i128; 13];
        let mut per_tile = zero;
        let mut walk_reread = zero;
        for book in books {
            per_tile = add(per_tile, launch(&book.owned, Walk::Global));
            if resident {
                walk_reread = add(
                    walk_reread,
                    sub(
                        launch(&book.owned, Walk::Global),
                        launch(&book.owned, Walk::Shared),
                    ),
                );
            }
        }
        let resident_books = if resident { books } else { &[] };
        let survivor_write = billed(d, |block| {
            for book in resident_books {
                let mut n0 = 0u64;
                for &kept in &book.chunk_survivors {
                    block.global_write_seq(n0 * 8, kept, 16, 8);
                    n0 += kept as u64;
                }
            }
        });
        let cut_groups = billed(d, |block| {
            for book in resident_books {
                for j in (0..book.parked).step_by(WARP_SIZE as usize) {
                    let lanes = (book.parked - j).min(WARP_SIZE as usize) as u32;
                    block.global_write_seq(j as u64 * 8, lanes, 8, 8);
                    block.global_read_seq(j as u64 * 8, lanes, 8, 8);
                }
            }
        });
        Ledger {
            survivor_write,
            walk_reread,
            cut_groups,
            tile_batches: sub(per_tile, counters(&ext.stats)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// One launch or two: the same extensions in the same order, the
        /// same counts.
        #[test]
        fn fused_hit_tail_equals_reorder_then_extension(case in TailCases) {
            let d = DeviceConfig::k20c();
            let (filtered, _, want, computed) = case.staged(&d);
            let got = case.fused(&d);
            proptest::prop_assert_eq!(got.filtered, filtered.hits.len() as u64);
            proptest::prop_assert_eq!(&got.result.extensions, &want.extensions);
            proptest::prop_assert_eq!(got.result.redundant, want.redundant);
            proptest::prop_assert_eq!(got.computed, computed);
        }

        /// The fused launch bills `hit_reordering` + the extension kernel,
        /// minus and plus the terms `tail_ledger` names, under one launch
        /// overhead at an occupancy the time model does not de-rate — and
        /// is never the dearer.
        #[test]
        fn fused_hit_tail_bills_reorder_and_extension_minus_named_traffic(case in TailCases) {
            let table = case.cfg().scoring_shared_bytes(case.fixture().qlen) + OUTPUT_BUFFER_BYTES;
            let books = tile_books(&case);
            let groups = case.strategy != ExtensionStrategy::Hit;
            for d in [DeviceConfig::k20c(), DeviceConfig::k40(), DeviceConfig::gtx680()] {
                let (filtered, k_reorder, ext, _) = case.staged(&d);
                let k = case.fused(&d).result.stats;
                let resident = TILE_SHARED_BYTES + table <= d.shared_mem_per_sm;
                let l = tail_ledger(&d, &case, &books, &ext, resident);

                let mut owed = add(counters(&k_reorder), counters(&ext.stats));
                owed = sub(owed, add(l.survivor_write, l.walk_reread));
                owed = add(owed, add(l.cut_groups, l.tile_batches));
                proptest::prop_assert_eq!(counters(&k), owed, "{:?}", case);

                // The walk's loads in closed form: per task 1 + ⌊n / 16⌋
                // transactions and 8 B a hit (counters 5, 4, 7, 3, 6).
                let same = |a: &u64, b: &u64| groups && same_diagonal(a, b);
                let tasks = books.iter().flat_map(|b| b.owned.chunk_by(same).map(<[u64]>::len));
                let (tx, hits) = tasks.fold((0, 0), |(tx, h), n| (tx + 1 + n / 16, h + n));
                let (tx, bytes) = if resident { (tx as i128, 8 * hits as i128) } else { (0, 0) };
                let w = l.walk_reread;
                proptest::prop_assert_eq!([w[5], w[4], w[7], w[3], w[6]], [tx, 128 * tx, 128 * tx, bytes, bytes]);
                let surviving: u32 = books.iter().flat_map(|b| &b.chunk_survivors).sum();
                proptest::prop_assert_eq!(surviving as usize, filtered.hits.len());

                proptest::prop_assert_eq!(k.name.as_str(), HIT_TAIL_KERNEL);
                proptest::prop_assert_eq!(
                    (k.blocks, k.warps_per_block),
                    (k_reorder.blocks, HIT_TAIL_WARPS)
                );
                proptest::prop_assert!(k.occupancy >= 0.5, "occupancy {}", k.occupancy);

                // Fused launch is never dearer.
                let apart = k_reorder.time_ms(&d) + ext.stats.time_ms(&d);
                proptest::prop_assert!(
                    k.time_ms(&d) <= apart,
                    "fused {} ms > staged {} ms: {:?}", k.time_ms(&d), apart, case
                );
            }
        }
    }
}
