//! Absolute pins of the hit-path kernels' simulated stats.
//!
//! Whole-struct [`KernelStats`] values of `binning_kernel`,
//! `grouped_seeding_kernel` and `extension_kernel` on small fixtures, read
//! off the commit before the host-cost rework of the hit path, then
//! kernels 1–4 on the figure workload, read off the last commit that
//! still carried the pre-arena pipeline to compare against. None has
//! been edited since, with one deliberate exception: the three
//! `extension_kernel` entries were re-recorded when the kernel gained its
//! billed trigger compaction (PR 19; the values before it are kept beside
//! the new ones below). Any other drift is a billing change, whether it
//! comes from a kernel or from inside the simulator (how a warp's
//! distinct lines are counted, how the read-only cache rotates a set).
//! Kernels 2–4 have since become one launch (PR 22): their rows stay as
//! they were — they pin the stages as standalone launches — and a
//! `hit_reordering` row per preset, appended, pins the fused one. The
//! search has since run that launch as the prologue of the extension
//! kernel (`hit_tail`); a row per preset, appended last, pins it with the
//! extensions it returns. A last test pins both extension launches on
//! an explicit PSSM too large for either to hold in shared memory.
//!
//! One test per pin. `virtual_alloc` is process-global, so the tests move
//! each other's buffers; that changes no pin: the grouped kernel's two
//! read-only arrays are one reservation, and every other kernel reads
//! through the cache from a single buffer, where a common shift of all
//! addresses only rotates cache sets.

use bench::runners::{figure_config, staged_reorder};
use bio_seq::generate::{generate_db, make_query, DbPreset};
use bio_seq::Sequence;
use blast_core::{Dfa, Matrix, Pssm, SearchParams};
use cublastp::binning::binning_kernel;
use cublastp::devicedata::{DeviceDbBlock, DeviceQuery};
use cublastp::extension::{extension_kernel, hit_tail_kernel};
use cublastp::grouped::{grouped_seeding_kernel, DeviceGroupIndex};
use cublastp::reorder::reorder_kernel;
use cublastp::{CuBlastpConfig, ExtensionStrategy, ScoringMode};
use gpu_sim::memory::virtual_alloc;
use gpu_sim::{DeviceConfig, KernelStats, KernelWorkspace};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

fn device_query(qlen: usize) -> DeviceQuery {
    let q = make_query(qlen);
    let m = Matrix::blosum62();
    let p = SearchParams::default();
    DeviceQuery::upload(Dfa::build(&q, &m, p.threshold), Pssm::build(&q, &m))
}

fn subjects(n: usize, base_len: usize) -> Vec<Sequence> {
    (0..n)
        .map(|k| {
            let s = make_query(base_len + k * 7);
            Sequence::from_residues(format!("s{k}"), s.residues().to_vec())
        })
        .collect()
}

/// A [`KernelStats`] from its counters in declaration order: warp cycles,
/// active / idle lane cycles, global useful / transacted bytes,
/// transactions, load useful / transacted bytes, shared accesses, atomic
/// ops / conflicts, read-only cache hits / misses.
fn pinned(
    name: &str,
    c: [u64; 13],
    occupancy: f64,
    blocks: u32,
    warps_per_block: u32,
) -> KernelStats {
    KernelStats {
        name: name.into(),
        warp_cycles: c[0],
        active_lane_cycles: c[1],
        divergent_idle_cycles: c[2],
        global_useful_bytes: c[3],
        global_transacted_bytes: c[4],
        global_transactions: c[5],
        global_load_useful_bytes: c[6],
        global_load_transacted_bytes: c[7],
        shared_accesses: c[8],
        atomic_ops: c[9],
        atomic_conflicts: c[10],
        rocache_hits: c[11],
        rocache_misses: c[12],
        occupancy,
        blocks,
        warps_per_block,
    }
}

/// The grid of the binning and grouped seeding pins.
fn seeding_grid() -> CuBlastpConfig {
    CuBlastpConfig {
        grid_blocks: 4,
        warps_per_block: 2,
        num_bins: 16,
        ..Default::default()
    }
}

#[test]
fn binning_kernel_stats_are_pinned() {
    let (d, ws, grid) = (DeviceConfig::k20c(), KernelWorkspace::new(), seeding_grid());
    // binning.rs: `binning_finds_exactly_the_reference_hits`.
    let dq = device_query(64);
    let db = DeviceDbBlock::upload(&subjects(40, 60), 0);
    let (bins, stats) = binning_kernel(&d, &grid, &dq, &db, &ws);
    assert_eq!(bins.total_hits, 793);
    let want = pinned(
        "hit_detection",
        [
            21027, 231407, 441457, 29684, 122368, 956, 23340, 41472, 263, 793, 133, 692, 101,
        ],
        0.15625,
        4,
        2,
    );
    assert_eq!(stats, want, "binning_kernel");
}

/// The grouped seeding pin's fixture: the group index of four queries,
/// uploaded, and the block it probes.
fn grouped_seeding_fixture() -> (DeviceGroupIndex, DeviceDbBlock) {
    // grouped.rs: `grouped_arena_matches_per_query_binning_per_slot`.
    let queries: Vec<DeviceQuery> = [48, 64, 80, 57].iter().map(|&l| device_query(l)).collect();
    let refs: Vec<&DeviceQuery> = queries.iter().collect();
    let db = DeviceDbBlock::upload(&subjects(30, 60), 0);
    (DeviceGroupIndex::upload(&refs), db)
}

/// What one pass over the fixture bills.
fn grouped_seeding_pin() -> KernelStats {
    pinned(
        "grouped_seeding",
        [
            96325, 1987380, 1095020, 32355, 230016, 1797, 14355, 25728, 0, 2250, 338, 4988, 4846,
        ],
        0.5,
        4,
        2,
    )
}

/// The grouped seeding pin: its index upload and one pass.
fn check_grouped_seeding_pin() {
    let (d, ws, grid) = (DeviceConfig::k20c(), KernelWorkspace::new(), seeding_grid());
    let (group, db) = grouped_seeding_fixture();
    let (_, stats) = grouped_seeding_kernel(&d, &grid, &group, &db, &ws);
    assert_eq!(stats, grouped_seeding_pin(), "grouped_seeding_kernel");
}

#[test]
fn grouped_seeding_kernel_stats_are_pinned() {
    check_grouped_seeding_pin();
}

#[test]
fn grouped_seeding_pin_holds_beside_a_concurrent_allocator() {
    // Another thread reserves device addresses the whole time the index
    // is uploaded and probed.
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                virtual_alloc(64);
            }
        });
        let pins = s.spawn(|| (0..50).for_each(|_| check_grouped_seeding_pin()));
        let held = pins.join();
        done.store(true, Ordering::Relaxed);
        if let Err(panic) = held {
            std::panic::resume_unwind(panic);
        }
    });
}

#[test]
fn grouped_seeding_pin_holds_when_two_passes_run_at_once() {
    // Two threads run the pin's pass over one uploaded group at the same
    // moment, as a grouped round's passes do on a batch's threads: they
    // share the index and the workspace, and each reserves its own bin
    // arena in `SeedPass::new` while the other runs.
    let (d, ws, grid) = (DeviceConfig::k20c(), KernelWorkspace::new(), seeding_grid());
    let (group, db) = grouped_seeding_fixture();
    let start = Barrier::new(2);
    for _ in 0..20 {
        let stats: Vec<KernelStats> = std::thread::scope(|s| {
            let passes: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        grouped_seeding_kernel(&d, &grid, &group, &db, &ws).1
                    })
                })
                .collect();
            (passes.into_iter())
                .map(|p| {
                    p.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });
        for (t, stats) in stats.iter().enumerate() {
            assert_eq!(stats, &grouped_seeding_pin(), "thread {t}");
        }
    }
}

#[test]
fn extension_kernel_stats_are_pinned() {
    let (d, ws) = (DeviceConfig::k20c(), KernelWorkspace::new());
    // extension.rs: `workload()` — subjects embedding the query, filtered
    // hits from the real front half of the pipeline.
    let dq = device_query(64);
    let q = make_query(64);
    let embedded: Vec<Sequence> = (0..12)
        .map(|k| {
            let mut r = make_query(40 + k).residues().to_vec();
            r.extend_from_slice(q.residues());
            r.extend(make_query(30 + k).residues().iter());
            Sequence::from_residues(format!("s{k}"), r)
        })
        .collect();
    let db = DeviceDbBlock::upload(&embedded, 0);
    let front = CuBlastpConfig {
        grid_blocks: 2,
        warps_per_block: 2,
        num_bins: 16,
        ..Default::default()
    };
    let (binned, _) = binning_kernel(&d, &front, &dq, &db, &ws);
    let (filtered, _) = staged_reorder(&d, &front, binned, 40, &ws);
    let params = SearchParams::default();
    // The loads are billed through `bulk_traffic` and have not moved; the
    // compaction adds votes, one atomic per round with survivors and the
    // survivors' writes. 12 of this fixture's 29 records reach the trigger
    // (every subject embeds the query), so the output write the kernel
    // never used to bill is a visible share here. Before the compaction:
    //   diagonal [1642, 27234, 25310, 7340, 11776, 92, 7340, 11776, 1348, 0, ..]
    //   hit      [35376, 1086530, 45502, 64940, 191744, 1498, 64940, 191744, 58948, 0, ..]
    //   window   [2671, 53288, 32184, 7392, 11904, 93, 7392, 11904, 1400, 0, ..]
    for (strategy, name, redundant, counters) in [
        (
            ExtensionStrategy::Diagonal,
            "ungapped_extension_diagonal",
            0,
            [
                1696, 27721, 26551, 7580, 12032, 94, 7340, 11776, 1348, 1, 0, 0, 0,
            ],
        ),
        (
            ExtensionStrategy::Hit,
            "ungapped_extension_hit",
            720,
            [
                37688, 1146681, 59335, 79580, 206592, 1614, 64940, 191744, 58948, 24, 0, 0, 0,
            ],
        ),
        (
            ExtensionStrategy::Window,
            "ungapped_extension_window",
            0,
            [
                2887, 54272, 38112, 7632, 12672, 99, 7392, 11904, 1400, 6, 0, 0, 0,
            ],
        ),
    ] {
        let want = pinned(name, counters, 0.28125, 3, 2);
        let cfg = CuBlastpConfig {
            extension: strategy,
            grid_blocks: 3,
            warps_per_block: 2,
            ..Default::default()
        };
        let r = extension_kernel(&d, &cfg, &dq, &db, &filtered, &params);
        assert_eq!(r.stats, want, "extension_kernel {strategy:?}");
        assert_eq!(r.extensions.len(), 12, "{strategy:?} survivors");
        assert_eq!(r.redundant, redundant, "{strategy:?}");
        // Every record, asked for the way a caller must: 29 as before.
        let all = SearchParams {
            gapped_trigger: i32::MIN,
            ..params
        };
        let r = extension_kernel(&d, &cfg, &dq, &db, &filtered, &all);
        assert_eq!(r.extensions.len(), 29, "{strategy:?}");
        assert_eq!(r.redundant, redundant, "{strategy:?}");
    }
}

#[test]
fn hit_path_kernel_stats_are_pinned() {
    let (d, ws, cfg) = (
        DeviceConfig::k20c(),
        KernelWorkspace::new(),
        figure_config(),
    );
    // Kernels 1–4 on the figure workload: query517 against the one block
    // each preset has at scale 0.05 under `figure_config()`, with the
    // surviving-hit count and a CRC-32 of the filtered hit vector. Until
    // it was deleted, `bench::legacy` (the pre-arena pipeline, verbatim)
    // was held to these same values by `hotpath_stats.rs`; they were read
    // off that commit with both sides green.
    let dq = device_query(517);
    let window = SearchParams::default().two_hit_window as i64;
    // One kernel per line: the 13 counters, occupancy, grid, warps per block.
    #[rustfmt::skip]
    let presets = [
        (DbPreset::SwissprotMini, 10108, 0x98b4_bf18, [
            pinned("hit_detection", [729813, 12324615, 11029401, 422318, 4499328, 35151, 109350, 188160, 1188, 39121, 3043, 31177, 7944], 0.5, 26, 8),
            pinned("hit_assembling", [78272, 2503744, 960, 625936, 626176, 4892, 312968, 313088, 0, 0, 0, 0, 0], 1.0, 20, 8),
            pinned("hit_sorting", [412860, 13211520, 0, 1554176, 3108608, 24286, 777088, 1554176, 0, 0, 0, 0, 0], 0.375, 20, 8),
            pinned("hit_filtering", [83802, 1816582, 865082, 393832, 611712, 4779, 312968, 313088, 0, 0, 0, 0, 0], 1.0, 20, 8),
        ]),
        (DbPreset::EnvNrMini, 16864, 0xef6a_0de4, [
            pinned("hit_detection", [1236705, 20635129, 18939431, 707316, 7561344, 59073, 182556, 320128, 2045, 65595, 5069, 50289, 15306], 0.5, 26, 8),
            pinned("hit_assembling", [131200, 4198080, 320, 1049520, 1049600, 8200, 524760, 524800, 0, 0, 0, 0, 0], 1.0, 33, 8),
            pinned("hit_sorting", [648852, 20763264, 0, 2442528, 4885504, 38168, 1221264, 2442752, 0, 0, 0, 0, 0], 0.375, 33, 8),
            pinned("hit_filtering", [140748, 3041794, 1462142, 659672, 1027584, 8028, 524760, 524800, 0, 0, 0, 0, 0], 1.0, 33, 8),
        ]),
    ];
    for (preset, survivors, crc, want) in presets {
        let name = preset.name();
        let db = generate_db(&preset.spec().scaled(0.05), &make_query(517)).db;
        let blocks = db.blocks(cfg.db_block_size);
        assert_eq!(blocks.len(), 1, "{name}");
        let block = DeviceDbBlock::upload(db.block_sequences(blocks[0]), blocks[0].start);
        let (binned, k0) = binning_kernel(&d, &cfg, &dq, &block, &ws);
        let (filtered, [k1, k2, k3]) = staged_reorder(&d, &cfg, binned, window, &ws);
        let bytes: Vec<u8> = filtered.hits.iter().flat_map(|h| h.to_le_bytes()).collect();
        assert_eq!(filtered.hits.len(), survivors, "{name} survivors");
        assert_eq!(cublastp_db::crc32(&bytes), crc, "{name} hit vector");
        assert_eq!([k0, k1, k2, k3], want, "{name} kernels 1-4");
    }
}

#[test]
fn fused_reorder_stats_are_pinned() {
    let (d, ws, cfg) = (
        DeviceConfig::k20c(),
        KernelWorkspace::new(),
        figure_config(),
    );
    let dq = device_query(517);
    let window = SearchParams::default().two_hit_window as i64;
    // The same arenas through the search's one launch (PR 22): the rows
    // of `hit_path_kernel_stats_are_pinned` pin the stages as standalone launches and did not move; this
    // one is what `hit_reordering` bills for gather + sort + filter, with
    // the same survivors.
    #[rustfmt::skip]
    let fused = [
        (DbPreset::SwissprotMini, 10108, 0x98b4_bf18,
            pinned("hit_reordering", [418726, 12524726, 874506, 1635192, 3096832, 24194, 777240, 1243776, 0, 0, 0, 0, 0], 0.375, 20, 8)),
        (DbPreset::EnvNrMini, 16864, 0xef6a_0de4,
            pinned("hit_reordering", [658912, 19607170, 1478014, 2577696, 4867584, 38028, 1221520, 1922048, 0, 0, 0, 0, 0], 0.375, 33, 8)),
    ];
    for (preset, survivors, crc, want) in fused {
        let name = preset.name();
        let db = generate_db(&preset.spec().scaled(0.05), &make_query(517)).db;
        let blocks = db.blocks(cfg.db_block_size);
        let block = DeviceDbBlock::upload(db.block_sequences(blocks[0]), blocks[0].start);
        let (binned, _) = binning_kernel(&d, &cfg, &dq, &block, &ws);
        let (filtered, k) = reorder_kernel(&d, binned, true, window, &ws);
        let bytes: Vec<u8> = filtered.hits.iter().flat_map(|h| h.to_le_bytes()).collect();
        assert_eq!(filtered.hits.len(), survivors, "{name} survivors");
        assert_eq!(cublastp_db::crc32(&bytes), crc, "{name} hit vector");
        assert_eq!(k, want, "{name} hit_reordering");
    }
}

#[test]
fn fused_hit_tail_stats_are_pinned() {
    let (d, ws, cfg) = (
        DeviceConfig::k20c(),
        KernelWorkspace::new(),
        figure_config(),
    );
    let dq = device_query(517);
    let params = SearchParams::default();
    // The same arenas through the search's second launch: reordering as
    // the prologue of the window-based extension kernel (`hit_tail`). The
    // rows above pin `hit_reordering` and the stages as standalone
    // launches and did not move; this one pins what the fused launch
    // bills, with the survivors' count, the trigger survivors it extends
    // to and a CRC of their records.
    #[rustfmt::skip]
    let fused = [
        (DbPreset::SwissprotMini, 10108, 8316, 6, 0xbf71_038e,
            pinned("hit_tail", [730026, 20560182, 2800650, 1778432, 3865472, 30199, 1001144, 2309632, 447648, 5, 0, 0, 0], 1.0, 20, 32)),
        (DbPreset::EnvNrMini, 16864, 14095, 11, 0x075a_188c,
            pinned("hit_tail", [1176754, 33221714, 4434414, 2822148, 6172544, 48223, 1600608, 3727744, 758064, 11, 0, 0, 0], 1.0, 33, 32)),
    ];
    for (preset, survivors, computed, triggered, crc, want) in fused {
        let name = preset.name();
        let db = generate_db(&preset.spec().scaled(0.05), &make_query(517)).db;
        let blocks = db.blocks(cfg.db_block_size);
        let block = DeviceDbBlock::upload(db.block_sequences(blocks[0]), blocks[0].start);
        let (binned, _) = binning_kernel(&d, &cfg, &dq, &block, &ws);
        let tail = hit_tail_kernel(&d, &cfg, &dq, &block, binned, &params, &ws);
        let exts = &tail.result.extensions;
        let bytes: Vec<u8> = (exts.iter())
            .flat_map(|e| [e.seq_id, e.q_start, e.s_start, e.len, e.score as u32])
            .flat_map(u32::to_le_bytes)
            .collect();
        assert_eq!(tail.filtered, survivors, "{name} survivors");
        assert_eq!(
            (tail.computed, exts.len()),
            (computed, triggered),
            "{name} extensions"
        );
        assert_eq!(cublastp_db::crc32(&bytes), crc, "{name} extension records");
        assert_eq!(tail.result.stats, want, "{name} hit_tail");
    }
}

#[test]
fn a_pssm_past_752_residues_is_read_from_global_memory_without_a_de_rate() {
    let (d, ws) = (DeviceConfig::k20c(), KernelWorkspace::new());
    let cfg = CuBlastpConfig {
        scoring: ScoringMode::Pssm,
        ..figure_config()
    };
    let params = SearchParams::default();
    let window = params.two_hit_window as i64;
    // An explicit PSSM on 760 residues: 760 × 64 B + the 1 kB output
    // buffer is more than an SM's 48 kB, so neither `hit_tail` nor the
    // standalone extension kernel fits with the table in shared memory.
    // Both read it from global memory — no shared-memory access at all —
    // at an occupancy the time model does not de-rate; while the table
    // stayed in shared memory up to 768 residues, both were billed at
    // occupancy 0. One block of the scale-0.05 preset under
    // `figure_config()`, with the trigger survivors and a CRC of their
    // records.
    let dq = device_query(760);
    let db = generate_db(
        &DbPreset::SwissprotMini.spec().scaled(0.05),
        &make_query(760),
    )
    .db;
    let blocks = db.blocks(cfg.db_block_size);
    let block = DeviceDbBlock::upload(db.block_sequences(blocks[0]), blocks[0].start);
    let (binned, _) = binning_kernel(&d, &cfg, &dq, &block, &ws);
    let tail = hit_tail_kernel(&d, &cfg, &dq, &block, binned, &params, &ws);
    let (binned, _) = binning_kernel(&d, &cfg, &dq, &block, &ws);
    let (filtered, _) = reorder_kernel(&d, binned, true, window, &ws);
    let ext = extension_kernel(&d, &cfg, &dq, &block, &filtered, &params);
    let exts = &tail.result.extensions;
    assert_eq!(exts, &ext.extensions, "one launch or two");
    let bytes: Vec<u8> = (exts.iter())
        .flat_map(|e| [e.seq_id, e.q_start, e.s_start, e.len, e.score as u32])
        .flat_map(u32::to_le_bytes)
        .collect();
    assert_eq!((tail.filtered, exts.len()), (15418, 11), "survivors");
    assert_eq!(cublastp_db::crc32(&bytes), 0xfe91_5025, "extension records");
    #[rustfmt::skip]
    let want = [
        pinned("hit_tail", [2115684, 55598384, 12103504, 3911948, 28830336, 225237, 2469496, 25943936, 0, 11, 0, 0, 0], 1.0, 30, 32),
        pinned("ungapped_extension_window", [1436056, 34139312, 11814480, 1150596, 25030016, 195547, 1150376, 25028608, 0, 11, 0, 0, 0], 1.0, 26, 8),
    ];
    assert_eq!([&tail.result.stats, &ext.stats], [&want[0], &want[1]]);
    // No shared-memory access — the table is in global memory — and no
    // de-rate.
    for k in [&tail.result.stats, &ext.stats] {
        assert_eq!(k.shared_accesses, 0, "{}", k.name);
        assert!(k.occupancy >= 0.5, "{}", k.name);
    }
}
