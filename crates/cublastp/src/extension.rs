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

use crate::config::{CuBlastpConfig, ExtensionStrategy, ScoringMode};
use crate::devicedata::{DeviceDbBlock, DeviceQuery};
use crate::hitpack::{group_key, query_pos, seq_id, subject_pos};
use crate::reorder::FilteredHits;
use blast_core::SearchParams;
use blast_cpu::ungapped::{extend, UngappedExt};
use gpu_sim::device::WARP_SIZE;
use gpu_sim::{launch_map, DeviceConfig, KernelStats, LaunchConfig, SimBlock};

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
///   since the group is contiguous.
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
}

impl CostModel {
    fn new(cfg: &CuBlastpConfig, query_len: usize, device: &DeviceConfig) -> Self {
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
    hits: u64,
    /// Positions scanned, each window's last step completed.
    positions: u64,
    global_tx: u64,
}

impl BatchCost {
    /// Account the slot that walked `n_hits` hits and computed `exts`.
    fn slot(&mut self, model: &CostModel, n_hits: u64, exts: &[UngappedExt]) {
        let (mut steps, mut tx) = (0u64, 1 + n_hits / 16);
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
        self.hits += n_hits;
        self.global_tx += tx;
    }

    /// Bill the batch: the lockstep run of its slots and their traffic.
    fn charge(&self, block: &mut SimBlock, model: &CostModel) {
        block.lockstep_groups(&self.slot_cycles[..self.slots], model.lanes as u32);
        block.bulk_traffic(
            self.global_tx,
            self.hits * 8 + self.positions * (1 + model.scoring.bytes_per_pos),
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
    extension_kernel_counted(device, cfg, query, db, filtered, params).0
}

/// [`extension_kernel`], plus the number of extensions it *computed*
/// (after de-duplication) — the figure `GpuPhaseCounts::extensions` has
/// always reported, which the compacted output no longer shows.
pub(crate) fn extension_kernel_counted(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    filtered: &FilteredHits,
    params: &SearchParams,
) -> (ExtensionResult, u64) {
    let hits = &filtered.hits[..];
    let qlen = query.query_len();
    let model = CostModel::new(cfg, qlen, device);
    // Lane ↦ (sequence, diagonal) task, walked with the coverage check; a
    // window of lanes ↦ task (Fig. 9d); or lane ↦ hit, every filtered hit
    // a task of its own and extended, coverage be damned (Algorithm 4) —
    // duplicates removed afterwards.
    let same_task = match cfg.extension {
        ExtensionStrategy::Diagonal | ExtensionStrategy::Window => same_diagonal,
        ExtensionStrategy::Hit => |_: &u64, _: &u64| false,
    };
    let starts = batch_starts(hits, model.slots_per_batch(), same_task);

    let shared = cfg.scoring_shared_bytes(qlen);
    let launch_cfg = LaunchConfig {
        blocks: cfg.grid_blocks,
        warps_per_block: cfg.warps_per_block,
        shared_bytes_per_block: shared + 1024, // + per-block output buffer
        use_readonly_cache: cfg.use_readonly_cache,
    };

    let name = cfg.extension.kernel_name();

    let blocks = cfg.grid_blocks.max(1);

    // Each block's surviving extensions come back by value in block
    // order — no mutex collector, no re-sorting by block id.
    let (per_block, stats) = launch_map(device, launch_cfg, name, |block| {
        let mut out: Vec<UngappedExt> = Vec::new();
        let mut compaction = Compaction::new(cfg, params);
        let mut slot_ends: Vec<usize> = Vec::with_capacity(WARP_SIZE as usize);
        // Blocks stride the list of warp batches.
        let mut batch = block.block_id as usize;
        while batch + 1 < starts.len() {
            let batch_hits = &hits[starts[batch] as usize..starts[batch + 1] as usize];
            let from = out.len();
            let mut cost = BatchCost::default();
            slot_ends.clear();
            for task in batch_hits.chunk_by(same_task) {
                let before = out.len();
                walk_task(query, db, task, params, &mut out);
                slot_ends.push(out.len());
                cost.slot(&model, task.len() as u64, &out[before..]);
            }
            cost.charge(block, &model);
            compaction.batch(block, &mut out, from, &slot_ends, model.lanes as u32);
            batch += blocks as usize;
        }
        (out, compaction.computed)
    });

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
            let (r, computed) = extension_kernel_counted(&d, &cfg, &dq, &db, &f, &nothing);
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
}
