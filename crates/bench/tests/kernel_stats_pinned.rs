//! Absolute pins of the hit-path kernels' simulated stats.
//!
//! `hotpath_stats.rs` holds kernels 1–4 to the pre-arena code in
//! `bench::legacy`; both sides of that comparison run on the same
//! `gpu-sim`, so a change *inside* the simulator (how a warp's distinct
//! lines are counted, how the read-only cache rotates a set) moves both
//! alike. These pins are the other half: whole-struct [`KernelStats`]
//! values of `binning_kernel`, `grouped_seeding_kernel` and
//! `extension_kernel`, read off the commit before the host-cost rework of
//! the hit path and never edited since — any drift is a billing change.
//!
//! One test function on purpose: the grouped kernel reads two device
//! buffers through the read-only cache, so its hit/miss sequence depends
//! on their relative placement, and `virtual_alloc` is process-global — a
//! second test thread allocating in between would move it.

use bio_seq::generate::make_query;
use bio_seq::Sequence;
use blast_core::{Dfa, Matrix, Pssm, SearchParams};
use cublastp::binning::binning_kernel;
use cublastp::devicedata::{DeviceDbBlock, DeviceQuery};
use cublastp::extension::extension_kernel;
use cublastp::grouped::{grouped_seeding_kernel, DeviceGroupIndex};
use cublastp::reorder::{assemble_kernel, filter_kernel, sort_kernel};
use cublastp::{CuBlastpConfig, ExtensionStrategy};
use gpu_sim::{DeviceConfig, KernelStats, KernelWorkspace};

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

#[test]
fn hit_path_kernel_stats_are_pinned() {
    let d = DeviceConfig::k20c();
    let ws = KernelWorkspace::new();
    let grid = CuBlastpConfig {
        grid_blocks: 4,
        warps_per_block: 2,
        num_bins: 16,
        ..Default::default()
    };

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

    // grouped.rs: `grouped_arena_matches_per_query_binning_per_slot`.
    let queries: Vec<DeviceQuery> = [48, 64, 80, 57].iter().map(|&l| device_query(l)).collect();
    let refs: Vec<&DeviceQuery> = queries.iter().collect();
    let db = DeviceDbBlock::upload(&subjects(30, 60), 0);
    let group = DeviceGroupIndex::upload(&refs);
    let (_, stats) = grouped_seeding_kernel(&d, &grid, &group, &db, &ws);
    let want = pinned(
        "grouped_seeding",
        [
            96325, 1987380, 1095020, 32355, 230016, 1797, 14355, 25728, 0, 2250, 338, 4988, 4846,
        ],
        0.5,
        4,
        2,
    );
    assert_eq!(stats, want, "grouped_seeding_kernel");

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
    let (mut asm, _) = assemble_kernel(&d, &front, binned, &ws);
    sort_kernel(&d, &mut asm, &ws);
    let (filtered, _) = filter_kernel(&d, &front, &asm, 40, &ws);
    let params = SearchParams::default();
    // Extension traffic is all loads, billed through `bulk_traffic`.
    for (strategy, name, redundant, counters) in [
        (
            ExtensionStrategy::Diagonal,
            "ungapped_extension_diagonal",
            0,
            [
                1642, 27234, 25310, 7340, 11776, 92, 7340, 11776, 1348, 0, 0, 0, 0,
            ],
        ),
        (
            ExtensionStrategy::Hit,
            "ungapped_extension_hit",
            720,
            [
                35376, 1086530, 45502, 64940, 191744, 1498, 64940, 191744, 58948, 0, 0, 0, 0,
            ],
        ),
        (
            ExtensionStrategy::Window,
            "ungapped_extension_window",
            0,
            [
                2671, 53288, 32184, 7392, 11904, 93, 7392, 11904, 1400, 0, 0, 0, 0,
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
        assert_eq!(r.extensions.len(), 29, "{strategy:?}");
        assert_eq!(r.redundant, redundant, "{strategy:?}");
    }
}
