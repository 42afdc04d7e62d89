//! The pre-arena hit path, kept verbatim as the *before* side of the
//! `hotpath` benchmark and the stats-equivalence regression test.
//!
//! This is the hit-detection → assembling → sorting → filtering pipeline
//! exactly as it stood before the flat-arena rework: ragged
//! `Vec<Vec<u64>>` bins allocated per (warp, bin), per-block results
//! pushed through a `Mutex`, a comparator segmented sort, and a
//! flatten-concat copy feeding the filter. The cost *model* calls are
//! identical to the live pipeline by construction — the regression test
//! in `tests/hotpath_stats.rs` holds both sides to bit-identical
//! [`KernelStats`] — so any wall-clock difference the `hotpath` binary
//! measures is purely host-side data-structure overhead.
//!
//! Kernel 5 (ungapped extension) follows at the end of the file, as it
//! stood one rework later — before its cost vectors were hoisted and its
//! output ordered by subject buckets instead of one four-field sort.

use cublastp::config::{CuBlastpConfig, ExtensionStrategy, ScoringMode};
use cublastp::devicedata::{DeviceDbBlock, DeviceQuery};
use cublastp::extension::{build_tasks, ExtensionResult};
use cublastp::hitpack::{group_key, pack, query_pos, seq_id, subject_pos};
use gpu_sim::device::{TRANSACTION_BYTES, WARP_SIZE};
use gpu_sim::memory::virtual_alloc;
use gpu_sim::scan::WARP_SCAN_STEPS;
use gpu_sim::{launch, launch_map, DeviceConfig, KernelStats, LaunchConfig};
use parking_lot::Mutex;

use blast_core::{word_code, SearchParams, WORD_LEN};
use blast_cpu::ungapped::{extend, UngappedExt};

/// Shared-memory footprint of the compacted DFA state table (mirrors
/// `cublastp::binning::DFA_STATES_SHARED_BYTES`).
const DFA_STATES_SHARED_BYTES: u32 = 8 * 1024;

/// Output of the legacy binning kernel: one `Vec` per (warp, bin).
pub struct LegacyBinnedHits {
    /// `bins[warp * num_bins + bin]` — packed hits in detection order.
    pub bins: Vec<Vec<u64>>,
    /// Bins per warp.
    pub num_bins: usize,
    /// Total warps that participated.
    pub num_warps: usize,
    /// Total hits detected.
    pub total_hits: u64,
}

/// The pre-arena hit-detection + binning kernel (ragged bins, Mutex
/// result collection).
pub fn binning_kernel(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    db: &DeviceDbBlock,
) -> (LegacyBinnedHits, KernelStats) {
    let grid_blocks = cfg.grid_blocks.max(1);
    let warps_per_block = cfg.warps_per_block.max(1);
    let num_warps = (grid_blocks * warps_per_block) as usize;
    let num_bins = cfg.num_bins;
    let qlen = query.query_len();

    let max_slen = (0..db.num_seqs()).map(|i| db.seq_len(i)).max().unwrap_or(0);
    assert!(
        qlen + max_slen <= u16::MAX as usize,
        "query ({qlen}) + longest subject ({max_slen}) exceeds the 16-bit \
         diagonal range of the packed hit format (max 65535 combined)"
    );

    let shared = DFA_STATES_SHARED_BYTES + (warps_per_block as usize * num_bins * 4) as u32;
    let launch_cfg = LaunchConfig {
        blocks: grid_blocks,
        warps_per_block,
        shared_bytes_per_block: shared,
        use_readonly_cache: cfg.use_readonly_cache,
    };

    let bin_capacity = qlen.max(1) as u64;
    let bins_base = virtual_alloc(num_warps as u64 * num_bins as u64 * bin_capacity * 8);

    let results: Mutex<Vec<(usize, Vec<Vec<u64>>)>> = Mutex::new(Vec::new());

    let stats = launch(device, launch_cfg, "hit_detection", |block| {
        let mut block_bins: Vec<Vec<u64>> = vec![Vec::new(); warps_per_block as usize * num_bins];
        let mut lane_hits: Vec<Vec<(u32, u32)>> = vec![Vec::new(); WARP_SIZE as usize];
        let mut addrs: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
        let mut targets: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
        let mut writes: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
        let mut produced: Vec<(usize, u64)> = Vec::with_capacity(WARP_SIZE as usize);

        for warp_in_block in 0..warps_per_block as usize {
            let warp_id = block.block_id as usize * warps_per_block as usize + warp_in_block;
            let warp_bins_base = bins_base + (warp_id * num_bins) as u64 * bin_capacity * 8;
            let mut tops = vec![0u64; num_bins];

            let mut i = warp_id;
            while i < db.num_seqs() {
                let slen = db.seq_len(i);
                let words = slen.saturating_sub(WORD_LEN - 1);
                let subject = db.seq(i);

                let mut j0 = 0usize;
                while j0 < words {
                    let active = (words - j0).min(WARP_SIZE as usize);

                    addrs.clear();
                    addrs.extend((0..active).map(|l| db.residue_addr(i, j0 + l)));
                    block.global_read(&addrs, WORD_LEN as u32);
                    block.shared_access(active as u32);

                    addrs.clear();
                    let mut max_hits = 0usize;
                    for (l, lane) in lane_hits.iter_mut().take(active).enumerate() {
                        lane.clear();
                        let col = j0 + l;
                        let code = word_code(&subject[col..col + WORD_LEN]);
                        let positions = query.dfa.neighborhood().positions(code);
                        let (base, len) = query.position_addrs(code);
                        for (k, &qpos) in positions.iter().enumerate() {
                            debug_assert!(k < len.max(1));
                            lane.push((qpos, col as u32));
                            addrs.push(base + (k * 4) as u64);
                        }
                        max_hits = max_hits.max(positions.len());
                    }
                    for chunk in addrs.chunks(WARP_SIZE as usize) {
                        block.readonly_read(chunk, 4);
                    }

                    for k in 0..max_hits {
                        targets.clear();
                        writes.clear();
                        produced.clear();
                        for lane in lane_hits.iter().take(active) {
                            if let Some(&(qpos, col)) = lane.get(k) {
                                let diagonal = (col as i64 - qpos as i64 + qlen as i64) as u32;
                                let bin_id = diagonal as usize % num_bins;
                                let slot = tops[bin_id];
                                tops[bin_id] += 1;
                                targets.push((warp_in_block * num_bins + bin_id) as u64);
                                writes.push(
                                    warp_bins_base
                                        + (bin_id as u64 * bin_capacity + slot % bin_capacity) * 8,
                                );
                                produced.push((bin_id, pack(i as u32, diagonal, col)));
                            }
                        }
                        block.instr(targets.len() as u32);
                        block.atomic_shared(&targets);
                        block.global_write(&writes, 8);
                        for &(bin_id, element) in &produced {
                            block_bins[warp_in_block * num_bins + bin_id].push(element);
                        }
                    }

                    j0 += WARP_SIZE as usize;
                }
                i += num_warps;
            }
        }
        results.lock().push((block.block_id as usize, block_bins));
    });

    let mut per_block = results.into_inner();
    per_block.sort_by_key(|(id, _)| *id);
    let mut bins: Vec<Vec<u64>> = Vec::with_capacity(num_warps * num_bins);
    for (_, mut block_bins) in per_block {
        bins.append(&mut block_bins);
    }
    let total_hits = bins.iter().map(|b| b.len() as u64).sum();

    (
        LegacyBinnedHits {
            bins,
            num_bins,
            num_warps,
            total_hits,
        },
        stats,
    )
}

/// Legacy assembled hits: one owned `Vec` per non-empty bin.
pub struct LegacyAssembledHits {
    /// One vector per (warp, bin), empty bins dropped.
    pub segments: Vec<Vec<u64>>,
}

/// The pre-arena assembling kernel (per-segment ownership).
pub fn assemble_kernel(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    binned: LegacyBinnedHits,
) -> (LegacyAssembledHits, KernelStats) {
    const TILE: usize = 2048;
    let total = binned.total_hits as usize;
    let src_base = virtual_alloc(total.max(1) as u64 * 8);
    let dst_base = virtual_alloc(total.max(1) as u64 * 8);

    let blocks = total.div_ceil(TILE).max(1) as u32;
    let launch_cfg = LaunchConfig {
        blocks,
        warps_per_block: cfg.warps_per_block,
        shared_bytes_per_block: 0,
        use_readonly_cache: false,
    };

    let stats = launch(device, launch_cfg, "hit_assembling", |block| {
        let lo = block.block_id as usize * TILE;
        let hi = (lo + TILE).min(total);
        let mut addrs: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
        let mut j = lo;
        while j < hi {
            let active = (hi - j).min(WARP_SIZE as usize);
            addrs.clear();
            addrs.extend((0..active).map(|l| src_base + ((j + l) as u64) * 8));
            block.global_read(&addrs, 8);
            addrs.clear();
            addrs.extend((0..active).map(|l| dst_base + ((j + l) as u64) * 8));
            block.global_write(&addrs, 8);
            j += WARP_SIZE as usize;
        }
    });

    let segments: Vec<Vec<u64>> = binned.bins.into_iter().filter(|b| !b.is_empty()).collect();
    (LegacyAssembledHits { segments }, stats)
}

/// The pre-radix segmented sort: `sort_unstable` per segment with the
/// same cost model as `gpu_sim::sort`.
pub fn sort_kernel(device: &DeviceConfig, hits: &mut LegacyAssembledHits) -> KernelStats {
    segmented_sort_comparator(device, &mut hits.segments, "hit_sorting")
}

/// Verbatim pre-radix `segmented_sort_u64` (comparator sort per segment).
pub fn segmented_sort_comparator(
    device: &DeviceConfig,
    segments: &mut [Vec<u64>],
    name: &str,
) -> KernelStats {
    const TILE_ELEMENTS: usize = 2048;
    let n: usize = segments.iter().map(|s| s.len()).sum();

    for seg in segments.iter_mut() {
        seg.sort_unstable();
    }

    let mut stats = KernelStats::new(name);
    let blocks = n.div_ceil(TILE_ELEMENTS).max(1) as u32;
    stats.blocks = blocks;
    stats.warps_per_block = 8;
    let shared = (TILE_ELEMENTS * 8) as u32;
    stats.occupancy = device.occupancy(8, shared);

    if n == 0 {
        return stats;
    }
    let work: u64 = segments
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| s.len() as u64 * (s.len().max(2) as f64).log2().ceil() as u64)
        .sum();

    let key_bytes = 8u64;
    {
        let n64 = work;
        let read_tx = (n64 * key_bytes).div_ceil(TRANSACTION_BYTES) * 2;
        stats.global_transactions += read_tx;
        stats.global_transacted_bytes += read_tx * TRANSACTION_BYTES;
        stats.global_useful_bytes += n64 * key_bytes;
        stats.global_load_useful_bytes += n64 * key_bytes;
        stats.global_load_transacted_bytes += read_tx * TRANSACTION_BYTES;
        let warp_writes = n64.div_ceil(32);
        let write_tx = warp_writes * 4;
        stats.global_transactions += write_tx;
        stats.global_transacted_bytes += write_tx * TRANSACTION_BYTES;
        stats.global_useful_bytes += n64 * key_bytes;
        stats.warp_cycles += (read_tx + write_tx) * device.global_transaction_cost;
        stats.active_lane_cycles += 32 * (read_tx + write_tx) * device.global_transaction_cost;
        let instr = n64 * 8 / 32;
        stats.warp_cycles += instr * device.instr_cost;
        stats.active_lane_cycles += 32 * instr * device.instr_cost;
    }
    stats
}

/// Output of the legacy filtering kernel.
pub struct LegacyFilteredHits {
    /// Surviving hits, concatenated segment by segment.
    pub hits: Vec<u64>,
    /// Hits before filtering.
    pub before: u64,
}

/// The pre-arena filtering kernel (flatten-concat copy, per-chunk write
/// buffers, Mutex result collection). Two-hit mode only — the mode the
/// hot path always runs with default parameters.
pub fn filter_kernel(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    sorted: &LegacyAssembledHits,
    window: i64,
) -> (LegacyFilteredHits, KernelStats) {
    const TILE: usize = 2048;
    let two_hit = true;
    let concat: Vec<u64> = sorted.segments.iter().flatten().copied().collect();
    let before = concat.len() as u64;
    let src_base = virtual_alloc(before.max(1) * 8);
    let dst_base = virtual_alloc(before.max(1) * 8);

    let blocks = concat.len().div_ceil(TILE).max(1) as u32;
    let launch_cfg = LaunchConfig {
        blocks,
        warps_per_block: cfg.warps_per_block,
        shared_bytes_per_block: 0,
        use_readonly_cache: false,
    };

    let results: Mutex<Vec<(usize, Vec<u64>)>> = Mutex::new(Vec::new());

    let stats = launch(device, launch_cfg, "hit_filtering", |block| {
        let lo = block.block_id as usize * TILE;
        let hi = (lo + TILE).min(concat.len());
        let mut kept: Vec<u64> = Vec::new();
        let mut addrs: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
        let mut j = lo;
        while j < hi {
            let active = (hi - j).min(WARP_SIZE as usize);
            addrs.clear();
            addrs.extend((0..active).map(|l| src_base + ((j + l) as u64) * 8));
            block.global_read(&addrs, 8);
            block.instr(active as u32);
            block.instr_n(active as u32, WARP_SCAN_STEPS);
            let mut writes: Vec<u64> = Vec::new();
            for l in 0..active {
                let idx = j + l;
                if idx == 0 {
                    if !two_hit {
                        writes.push(dst_base + (kept.len() as u64 + writes.len() as u64) * 8);
                        kept.push(concat[idx]);
                    }
                    continue;
                }
                let cur = concat[idx];
                let prev = concat[idx - 1];
                let extendable = !two_hit
                    || (group_key(cur) == group_key(prev)
                        && (subject_pos(cur) as i64 - subject_pos(prev) as i64) <= window);
                if extendable {
                    writes.push(dst_base + (kept.len() as u64 + writes.len() as u64) * 8);
                    kept.push(cur);
                }
            }
            block.global_write(&writes, 8);
            j += WARP_SIZE as usize;
        }
        results.lock().push((block.block_id as usize, kept));
    });

    let mut per_block = results.into_inner();
    per_block.sort_by_key(|(id, _)| *id);
    let hits: Vec<u64> = per_block.into_iter().flat_map(|(_, v)| v).collect();
    (LegacyFilteredHits { hits, before }, stats)
}

/// Run the whole legacy hit path (binning → assemble → sort → filter) and
/// return the surviving hits plus the four kernels' stats in order.
pub fn hit_path(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    window: i64,
) -> (Vec<u64>, [KernelStats; 4]) {
    let (binned, k_bin) = binning_kernel(device, cfg, query, db);
    let (mut asm, k_asm) = assemble_kernel(device, cfg, binned);
    let k_sort = sort_kernel(device, &mut asm);
    let (filtered, k_filter) = filter_kernel(device, cfg, &asm, window);
    (filtered.hits, [k_bin, k_asm, k_sort, k_filter])
}

// ---------------------------------------------------------------------------
// Kernel 5: ungapped extension, verbatim from before the host-cost rework
// ---------------------------------------------------------------------------

/// Positions an x-drop extension scans beyond the best-scoring end before
/// giving up (cost-model constant; the functional routine computes the
/// exact extent).
const OVERSHOOT: u64 = 8;

/// Per-lane cost aggregate for one lockstep batch.
#[derive(Debug, Clone, Copy, Default)]
struct LaneCost {
    cycles: u64,
    global_tx: u64,
    useful_bytes: u64,
    shared: u64,
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

/// Cost of one sequential (single-lane) extension that scanned `scanned`
/// subject positions. Every position issues a load (no L1 on Kepler); the
/// loads walk one line at a time, so DRAM sees only `scanned/128` lines
/// while the lane pays L2 latency per position.
fn sequential_ext_cost(scanned: u64, sc: &ScoringCost, device: &DeviceConfig) -> LaneCost {
    let dram_lines = 1 + scanned / 128;
    LaneCost {
        cycles: scanned
            * (INSTR_PER_POS * device.instr_cost + sc.cycles_per_pos + device.l2_hit_cost)
            + dram_lines * device.global_transaction_cost
            + (scanned * sc.tx_per_pos_x2 / 2) * device.global_transaction_cost,
        global_tx: dram_lines + scanned * sc.tx_per_pos_x2 / 2,
        useful_bytes: scanned + scanned * sc.bytes_per_pos,
        shared: scanned * sc.shared_per_pos,
    }
}

/// Cost of one window-cooperative extension (`w` lanes scan `w` positions
/// per step with a warp scan). The window's lanes read `w` *consecutive*
/// subject bytes per step — one coalesced load, L2-resident after the
/// first touch of each line — so the window amortizes both latency and
/// bandwidth `w`-fold over the single-lane strategies.
fn window_ext_cost(scanned: u64, w: u64, sc: &ScoringCost, device: &DeviceConfig) -> LaneCost {
    let steps = scanned.div_ceil(w).max(1);
    // A w-lane shuffle scan needs ⌈log₂ w⌉ steps (3 for the default 8).
    let scan_steps = (w.max(2) as f64).log2().ceil() as u64;
    // Redundant positions: the window always completes its last chunk.
    let scanned_padded = steps * w;
    let dram_lines = 1 + scanned_padded / 128;
    LaneCost {
        cycles: steps
            * ((scan_steps + INSTR_PER_POS) * device.instr_cost
                + sc.cycles_per_pos
                + device.l2_hit_cost)
            + dram_lines * device.global_transaction_cost
            + (scanned_padded * sc.tx_per_pos_x2 / 2) * device.global_transaction_cost,
        global_tx: dram_lines + scanned_padded * sc.tx_per_pos_x2 / 2,
        useful_bytes: scanned_padded + scanned_padded * sc.bytes_per_pos,
        shared: scanned_padded * sc.shared_per_pos,
    }
}

/// Cost of walking `n_hits` packed hits on one lane (8-byte loads, 16 hits
/// per 128-byte line since the group is contiguous).
fn hit_walk_cost(n_hits: u64, device: &DeviceConfig) -> LaneCost {
    let lines = 1 + n_hits / 16;
    LaneCost {
        cycles: n_hits * 2 * device.instr_cost + lines * device.global_transaction_cost,
        global_tx: lines,
        useful_bytes: n_hits * 8,
        shared: 0,
    }
}

impl LaneCost {
    fn add(&mut self, other: LaneCost) {
        self.cycles += other.cycles;
        self.global_tx += other.global_tx;
        self.useful_bytes += other.useful_bytes;
        self.shared += other.shared;
    }
}

/// Functional diagonal walk with the coverage check (Algorithm 3 lines
/// 12–24) — the semantics shared with the CPU reference.
fn walk_task(
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    hits: &[u64],
    params: &SearchParams,
    out: &mut Vec<UngappedExt>,
) -> u64 {
    let qlen = query.query_len();
    let mut ext_reach: i64 = 0;
    let mut scanned_total = 0u64;
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
            scanned_total += ext.len as u64 + 2 * OVERSHOOT;
            out.push(ext);
        }
    }
    scanned_total
}

/// Kernel 5 as it stood before the host-cost rework of the hit path:
/// per-batch cost vectors, a float `log2` per window extension, and the
/// canonical order from one stable four-field `sort_by_key` over the whole
/// output. (The x-drop walk itself is `blast_cpu`'s and shared; `bench
/// --bin cpusimd` measures it on its own.)
pub fn extension_kernel(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    filtered: &LegacyFilteredHits,
    params: &SearchParams,
) -> ExtensionResult {
    let tasks = build_tasks(&filtered.hits);
    let qlen = query.query_len();
    let sc = scoring_cost(cfg, qlen, device);

    let shared = cfg.scoring_shared_bytes(qlen);
    let launch_cfg = LaunchConfig {
        blocks: cfg.grid_blocks,
        warps_per_block: cfg.warps_per_block,
        shared_bytes_per_block: shared + 1024, // + per-block output buffer
        use_readonly_cache: cfg.use_readonly_cache,
    };

    let name = cfg.extension.kernel_name();

    let blocks = cfg.grid_blocks.max(1);

    // Each block's extensions come back by value in block order — no
    // mutex collector, no re-sorting by block id.
    let (per_block, stats) = launch_map(device, launch_cfg, name, |block| {
        let mut out: Vec<UngappedExt> = Vec::new();
        match cfg.extension {
            ExtensionStrategy::Diagonal => {
                // Lane ↦ task; warp batch = 32 tasks; blocks stride the
                // batch list.
                let mut lane_costs: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
                let mut batch = block.block_id as usize;
                let batches = tasks.len().div_ceil(WARP_SIZE as usize);
                while batch < batches {
                    let lo = batch * WARP_SIZE as usize;
                    let hi = (lo + WARP_SIZE as usize).min(tasks.len());
                    lane_costs.clear();
                    let mut traffic = LaneCost::default();
                    for &(s, e) in &tasks[lo..hi] {
                        let mut lane = hit_walk_cost((e - s) as u64, block.device());
                        let before = out.len();
                        let scanned = walk_task(query, db, &filtered.hits[s..e], params, &mut out);
                        let _ = before;
                        lane.add(sequential_ext_cost(scanned, &sc, block.device()));
                        lane_costs.push(lane.cycles);
                        traffic.add(LaneCost {
                            cycles: 0,
                            global_tx: lane.global_tx,
                            useful_bytes: lane.useful_bytes,
                            shared: lane.shared,
                        });
                    }
                    block.lockstep(&lane_costs);
                    block.bulk_traffic(traffic.global_tx, traffic.useful_bytes, traffic.shared);
                    batch += blocks as usize;
                }
            }
            ExtensionStrategy::Hit => {
                // Lane ↦ hit; every filtered hit is extended, coverage be
                // damned (Algorithm 4) — duplicates removed afterwards.
                let mut lane_costs: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
                let n = filtered.hits.len();
                let batches = n.div_ceil(WARP_SIZE as usize);
                let mut batch = block.block_id as usize;
                while batch < batches {
                    let lo = batch * WARP_SIZE as usize;
                    let hi = (lo + WARP_SIZE as usize).min(n);
                    lane_costs.clear();
                    let mut traffic = LaneCost::default();
                    for &h in &filtered.hits[lo..hi] {
                        let sid = seq_id(h);
                        let spos = subject_pos(h);
                        let qpos = query_pos(h, qlen);
                        let ext = extend(
                            &query.pssm,
                            db.seq(sid as usize),
                            sid,
                            qpos,
                            spos,
                            params.xdrop_ungapped,
                        );
                        let scanned = ext.len as u64 + 2 * OVERSHOOT;
                        out.push(ext);
                        let mut lane = hit_walk_cost(1, block.device());
                        lane.add(sequential_ext_cost(scanned, &sc, block.device()));
                        lane_costs.push(lane.cycles);
                        traffic.add(LaneCost { cycles: 0, ..lane });
                    }
                    block.lockstep(&lane_costs);
                    block.bulk_traffic(traffic.global_tx, traffic.useful_bytes, traffic.shared);
                    batch += blocks as usize;
                }
            }
            ExtensionStrategy::Window => {
                // Window of `window_size` lanes ↦ task; warp batch =
                // 32 / window_size tasks (Fig. 9d).
                let w = cfg.window_size.clamp(2, WARP_SIZE as usize) as u64;
                let windows_per_warp = (WARP_SIZE as usize / w as usize).max(1);
                let mut win_costs: Vec<u64> = Vec::with_capacity(windows_per_warp);
                let batches = tasks.len().div_ceil(windows_per_warp);
                let mut batch = block.block_id as usize;
                while batch < batches {
                    let lo = batch * windows_per_warp;
                    let hi = (lo + windows_per_warp).min(tasks.len());
                    win_costs.clear();
                    let mut traffic = LaneCost::default();
                    for &(s, e) in &tasks[lo..hi] {
                        // Per-window serialized cost over its hits.
                        let mut win = hit_walk_cost((e - s) as u64, block.device());
                        let before = out.len();
                        let _ = walk_task(query, db, &filtered.hits[s..e], params, &mut out);
                        for ext in &out[before..] {
                            let scanned = ext.len as u64 + 2 * OVERSHOOT;
                            win.add(window_ext_cost(scanned, w, &sc, block.device()));
                        }
                        win_costs.push(win.cycles);
                        traffic.add(LaneCost { cycles: 0, ..win });
                    }
                    // Expand window costs to lane granularity: all lanes of
                    // a window stay active for the window's duration.
                    let mut lane_costs: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
                    for &c in &win_costs {
                        for _ in 0..w {
                            lane_costs.push(c);
                        }
                    }
                    block.lockstep(&lane_costs);
                    block.bulk_traffic(traffic.global_tx, traffic.useful_bytes, traffic.shared);
                    batch += blocks as usize;
                }
            }
        }
        out
    });

    let mut extensions: Vec<UngappedExt> = per_block.into_iter().flatten().collect();

    // Canonical order: by subject, then position — shared by every
    // strategy so downstream phases are order-independent.
    extensions.sort_by_key(|e| (e.seq_id, e.s_start, e.q_start, e.len));
    let mut redundant = 0u64;
    if cfg.extension == ExtensionStrategy::Hit {
        let before = extensions.len();
        extensions.dedup();
        redundant = (before - extensions.len()) as u64;
    }

    ExtensionResult {
        extensions,
        stats,
        redundant,
    }
}
