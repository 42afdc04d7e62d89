//! The fleet schedule of a sharded batch is a deterministic pure function
//! of the measured item costs, so re-simulating it at the same device
//! count reproduces it exactly. (That the merged output of any cut equals
//! the flat search is the differential lattice's shard-layout axis,
//! `crates/cublastp/src/lattice.rs`.)

use bio_seq::Sequence;
use blast_core::SearchParams;
use cublastp::{
    search_sharded_batch, CuBlastpConfig, ShardedBatchOptions, ShardedDb, ShardedOptions,
};
use gpu_sim::DeviceConfig;
use integration_support::workload;

const BLOCK_SIZE: usize = 16;

fn config() -> CuBlastpConfig {
    CuBlastpConfig {
        db_block_size: BLOCK_SIZE,
        ..CuBlastpConfig::default()
    }
}

/// The schedule is a pure function of (item costs, shards, uploads,
/// devices): re-simulating the measured items at the outcome's own device
/// count reproduces the schedule exactly, timeline for timeline.
#[test]
fn reschedule_at_same_device_count_is_identical() {
    let (q, db) = workload(140, 60, 120, 11);
    let queries: Vec<Sequence> = (0..4)
        .map(|i| Sequence::from_residues(format!("q{i}"), q.residues().to_vec()))
        .collect();
    let sharded = ShardedDb::split(&db, 4, BLOCK_SIZE);
    for devices in [1usize, 2, 3, 8] {
        let opts = ShardedBatchOptions {
            sharded: ShardedOptions {
                devices,
                ..ShardedOptions::default()
            },
            ..ShardedBatchOptions::default()
        };
        let outcome = search_sharded_batch(
            &queries,
            SearchParams::default(),
            config(),
            DeviceConfig::k20c(),
            &sharded,
            &opts,
        );
        assert_eq!(outcome.succeeded(), queries.len());
        assert_eq!(
            outcome.reschedule(devices),
            outcome.schedule,
            "schedule not reproducible at {devices} devices"
        );
        // Every item lands on a real device exactly once.
        assert_eq!(outcome.schedule.assignment.len(), outcome.item_costs.len());
        assert!(outcome.schedule.assignment.iter().all(|&d| d < devices));
    }
}
