//! Grouped seeding is a pure scheduling optimisation: packing a batch's
//! queries into index rounds and seeding each database block once per
//! round must leave every query's BLAST report bit-identical to the
//! per-query path — at any round budget, including budgets so small that
//! every query overflows into its own singleton round, and when a
//! member's launch faults transiently and retries, under either gapped
//! backend.

use bio_seq::alphabet::STANDARD_AA;
use bio_seq::Sequence;
use blast_core::SearchParams;
use cublastp::{
    search_batch_with, BatchOptions, CuBlastpConfig, GappedBackend, SeedMode, DEFAULT_GROUP_BUDGET,
};
use gpu_sim::{DeviceConfig, FaultInjector, FaultPlan, FaultSite, FaultSpec};
use integration_support::workload;
use proptest::prelude::*;

fn residues(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..STANDARD_AA as u8, min..=max)
}

fn run(
    queries: &[Sequence],
    db: &bio_seq::SequenceDb,
    gapped_backend: GappedBackend,
    opts: BatchOptions,
) -> cublastp::BatchOutcome {
    let config = CuBlastpConfig {
        db_block_size: 16,
        gapped_backend,
        ..CuBlastpConfig::default()
    };
    search_batch_with(
        queries,
        SearchParams::default(),
        config,
        DeviceConfig::k20c(),
        db,
        opts,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn grouped_seeding_output_identical_at_any_budget(
        random_queries in prop::collection::vec(residues(25, 100), 1..4),
        seed in 0u64..1_000,
        faulted in 0usize..4,
    ) {
        let (anchor, db) = workload(120, 40, 110, seed);
        let mut queries: Vec<Sequence> = random_queries
            .into_iter()
            .enumerate()
            .map(|(i, r)| Sequence::from_residues(format!("q{i}"), r))
            .collect();
        // One query with planted homologs so at least one report is busy.
        queries.push(anchor);

        let baseline = run(&queries, &db, GappedBackend::Cpu, BatchOptions::default());
        prop_assert!(baseline.grouped.is_none(), "per-query path has no rounds");

        // A generous budget packs every query into one round; budget 1
        // overflows every query into a singleton round. Both must be
        // bit-identical to per-query seeding — overflow degrades packing,
        // never output.
        // With a transient launch fault on one member the member retries —
        // its round bins are spent, so the retry re-seeds the block through
        // the member's own DFA — and nothing degrades, whichever backend
        // owns the gapped phase.
        let faulted = faulted % queries.len();
        let transient = || {
            let spec = FaultSpec::once(FaultSite::KernelLaunch).on_query(faulted as u32);
            Some(std::sync::Arc::new(FaultInjector::new(FaultPlan::none().with(spec))))
        };
        for (budget, backend, injector) in [
            (DEFAULT_GROUP_BUDGET, GappedBackend::Cpu, None),
            (1, GappedBackend::Cpu, None),
            (DEFAULT_GROUP_BUDGET, GappedBackend::Cpu, transient()),
            (DEFAULT_GROUP_BUDGET, GappedBackend::Gpu, transient()),
        ] {
            let with_fault = injector.is_some();
            let grouped = run(
                &queries,
                &db,
                backend,
                BatchOptions {
                    seed_mode: SeedMode::Grouped,
                    group_budget: budget,
                    injector,
                },
            );
            let report = grouped.grouped.as_ref().expect("grouped telemetry");
            prop_assert_eq!(
                report.queries_covered(),
                queries.len(),
                "budget {}: rounds must cover the batch, never fall back",
                budget
            );
            if budget == 1 {
                prop_assert_eq!(report.rounds.len(), queries.len());
            }
            for (qi, (b, g)) in baseline
                .per_query
                .iter()
                .zip(&grouped.per_query)
                .enumerate()
            {
                let b = b.as_ref().expect("fault-free per-query");
                let g = g.as_ref().expect("grouped query completes");
                prop_assert_eq!(
                    b.report.identity_key(),
                    g.report.identity_key(),
                    "budget {}, backend {}, fault {}: query {} diverges",
                    budget,
                    backend.name(),
                    with_fault,
                    qi
                );
                prop_assert_eq!(b.counts.extensions, g.counts.extensions);
                let retried = u64::from(with_fault && qi == faulted);
                prop_assert_eq!(g.recovery.retries, retried, "query {}", qi);
                prop_assert_eq!(g.recovery.degraded_blocks, 0);
                prop_assert_eq!(g.recovery.degraded_gapped, 0);
            }
        }
    }
}
