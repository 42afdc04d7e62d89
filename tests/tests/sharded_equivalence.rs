//! Sharding is a pure partitioning of the database: however the sequence
//! range is cut into shards (any count, any boundaries, empty shards
//! included), the merged cross-shard report must be bit-identical to the
//! flat single-database search — identity key, e-value bits and bit-score
//! bits. Device faults degrading one shard's blocks recover through the
//! same retry/CPU-fallback ladder as the flat engine and must not break
//! the contract either. The work-stealing schedule is a deterministic
//! pure function of the measured item costs, so re-simulating it at the
//! same device count reproduces it exactly.

use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use cublastp::{
    search_sharded, search_sharded_batch, CuBlastp, CuBlastpConfig, CuBlastpResult, SearchHooks,
    ShardedBatchOptions, ShardedDb, ShardedOptions,
};
use gpu_sim::{DeviceConfig, FaultInjector, FaultPlan, FaultSite, FaultSpec};
use integration_support::workload;
use proptest::prelude::*;
use std::sync::Arc;

const BLOCK_SIZE: usize = 16;

fn config() -> CuBlastpConfig {
    CuBlastpConfig {
        db_block_size: BLOCK_SIZE,
        ..CuBlastpConfig::default()
    }
}

fn flat_search(q: &Sequence, db: &SequenceDb) -> CuBlastpResult {
    CuBlastp::new(
        q.clone(),
        SearchParams::default(),
        config(),
        DeviceConfig::k20c(),
        db,
    )
    .search(db)
    .expect("fault-free flat search")
}

fn assert_bit_identical(sharded: &CuBlastpResult, flat: &CuBlastpResult, label: &str) {
    assert_eq!(
        sharded.report.identity_key(),
        flat.report.identity_key(),
        "{label}: merged report diverged from flat search"
    );
    for (a, b) in sharded.report.hits.iter().zip(&flat.report.hits) {
        assert_eq!(
            a.evalue.to_bits(),
            b.evalue.to_bits(),
            "{label}: e-value bits diverged on {}",
            a.subject_id
        );
        assert_eq!(
            a.bit_score.to_bits(),
            b.bit_score.to_bits(),
            "{label}: bit-score bits diverged on {}",
            a.subject_id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any shard count from 1 to 8 with arbitrary interior boundaries —
    /// unsorted, duplicated (empty shards) or out of range — merges to
    /// the flat single-database report bit-for-bit.
    #[test]
    fn any_partition_is_bit_identical_to_flat(
        boundaries in prop::collection::vec(0usize..64, 0..8),
        devices in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let (q, db) = workload(140, 60, 120, seed);
        let flat = flat_search(&q, &db);

        let sharded = ShardedDb::from_boundaries(&db, &boundaries, BLOCK_SIZE);
        prop_assert_eq!(sharded.num_shards(), boundaries.len() + 1);
        prop_assert_eq!(sharded.total_sequences(), db.len());

        let searcher = sharded.searcher(
            q.clone(),
            SearchParams::default(),
            config(),
            DeviceConfig::k20c(),
        );
        let opts = ShardedOptions { devices, ..ShardedOptions::default() };
        let r = search_sharded(&searcher, &sharded, &opts, true, &SearchHooks::default())
            .expect("fault-free sharded search");
        assert_bit_identical(
            &r.result,
            &flat,
            &format!("{} shards, {devices} devices", sharded.num_shards()),
        );
    }

    /// The even split used by `--shards` is just one partition; sweep it
    /// across every count 1..=8 on one workload so the CLI-facing path is
    /// pinned at each count, not only at sampled boundaries.
    #[test]
    fn every_even_split_is_bit_identical_to_flat(seed in 0u64..1_000) {
        let (q, db) = workload(150, 48, 130, seed);
        let flat = flat_search(&q, &db);
        for shards in 1..=8usize {
            let sharded = ShardedDb::split(&db, shards, BLOCK_SIZE);
            let searcher = sharded.searcher(
                q.clone(),
                SearchParams::default(),
                config(),
                DeviceConfig::k20c(),
            );
            let opts = ShardedOptions::default();
            let r = search_sharded(&searcher, &sharded, &opts, true, &SearchHooks::default())
                .expect("fault-free sharded search");
            assert_bit_identical(&r.result, &flat, &format!("even split into {shards}"));
        }
    }
}

/// A device fault degrading one shard's blocks — transient (retried) or
/// permanent (that block re-runs on the CPU fallback) — leaves the merged
/// batch output bit-identical to the flat search: recovery is contained
/// inside the shard search and the merge never sees it.
#[test]
fn degraded_shard_still_merges_bit_identically() {
    let (q, db) = workload(130, 45, 115, 7);
    let flat = flat_search(&q, &db);
    let sharded = ShardedDb::split(&db, 3, BLOCK_SIZE);

    for (spec, label) in [
        (
            FaultSpec::once(FaultSite::KernelLaunch).on_block(0),
            "transient kernel fault",
        ),
        (
            FaultSpec::permanent(FaultSite::D2h).on_block(0),
            "permanent d2h fault",
        ),
    ] {
        let opts = ShardedBatchOptions {
            injector: Some(Arc::new(FaultInjector::new(FaultPlan::none().with(spec)))),
            ..ShardedBatchOptions::default()
        };
        let outcome = search_sharded_batch(
            std::slice::from_ref(&q),
            SearchParams::default(),
            config(),
            DeviceConfig::k20c(),
            &sharded,
            &opts,
        );
        assert_eq!(outcome.succeeded(), 1, "{label}: query not recovered");
        let r = outcome.per_query[0].as_ref().expect("recovered result");
        assert_bit_identical(r, &flat, label);
        assert!(
            !r.recovery.is_clean(),
            "{label}: fault should have been injected and recovered"
        );
    }
}

/// The schedule is a pure function of (item costs, shards, uploads,
/// devices, seed): re-simulating the measured items at the outcome's own
/// device count reproduces the schedule exactly, timeline for timeline.
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
