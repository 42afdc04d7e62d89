//! The fault matrix: every injectable device fault site, on every pipeline
//! block, in both transient and permanent flavours, against both database
//! presets — and every cell must recover to the bit-identical fault-free
//! result. Transient faults recover by retry (no degradation); permanent
//! faults recover by re-running the poisoned block on the CPU fallback.

use bio_seq::generate::{generate_db, make_query, DbPreset, DbSpec};
use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use cublastp::{
    search_batch_with, BatchOptions, CuBlastp, CuBlastpConfig, CuBlastpResult, DeviceDb,
};
use gpu_sim::{DeviceConfig, FaultInjector, FaultPlan, FaultSite, FaultSpec};
use std::sync::Arc;

/// Blocks per search: enough that first / middle / last block scoping all
/// differ, small enough that the full matrix stays fast.
const NUM_BLOCKS: u32 = 3;
const BLOCK_SIZE: usize = 15;

/// The preset character (sequence-length regime, homology level, seed) at
/// matrix-friendly scale.
fn scaled_workload(preset: DbPreset) -> (Sequence, SequenceDb) {
    let q = make_query(120);
    let spec = DbSpec {
        num_sequences: NUM_BLOCKS as usize * BLOCK_SIZE,
        ..preset.spec()
    };
    (q.clone(), generate_db(&spec, &q).db)
}

fn matrix_config() -> CuBlastpConfig {
    CuBlastpConfig {
        db_block_size: BLOCK_SIZE,
        grid_blocks: 2,
        warps_per_block: 2,
        ..CuBlastpConfig::default()
    }
}

fn run_with_plan(
    q: &Sequence,
    db: &SequenceDb,
    plan: FaultPlan,
) -> Result<CuBlastpResult, cublastp::SearchError> {
    let mut searcher = CuBlastp::new(
        q.clone(),
        SearchParams::default(),
        matrix_config(),
        DeviceConfig::k20c(),
        db,
    );
    searcher.injector = Arc::new(FaultInjector::new(plan));
    searcher.search(db)
}

#[test]
fn every_fault_cell_recovers_bit_identically() {
    for preset in [DbPreset::SwissprotMini, DbPreset::EnvNrMini] {
        let (q, db) = scaled_workload(preset);
        let clean = run_with_plan(&q, &db, FaultPlan::none()).expect("fault-free baseline");
        assert!(clean.recovery.is_clean());
        let reference = clean.report.identity_key();

        for site in FaultSite::DEVICE {
            for block in 0..NUM_BLOCKS {
                for permanent in [false, true] {
                    let label = format!(
                        "{} / {} on block {block} ({})",
                        db.name(),
                        site.name(),
                        if permanent { "permanent" } else { "transient" },
                    );
                    let spec = if permanent {
                        FaultSpec::permanent(site)
                    } else {
                        FaultSpec::once(site)
                    };
                    let r = run_with_plan(&q, &db, FaultPlan::none().with(spec.on_block(block)))
                        .unwrap_or_else(|e| panic!("{label}: not recovered: {e}"));

                    assert_eq!(r.report.identity_key(), reference, "{label}");
                    assert_eq!(r.counts.extensions, clean.counts.extensions, "{label}");
                    assert!(r.recovery.faults >= 1, "{label}: no fault recorded");
                    // Allocation-class faults are classified non-transient
                    // and skip straight to degradation; launch/transfer
                    // faults are retried first.
                    let retryable = !matches!(site, FaultSite::DeviceAlloc | FaultSite::Workspace);
                    match (retryable, permanent) {
                        (true, false) => {
                            // One transient failure clears within the retry
                            // budget, so the CPU fallback never engages.
                            assert_eq!(r.recovery.retries, 1, "{label}");
                            assert_eq!(r.recovery.degraded_blocks, 0, "{label}");
                        }
                        (true, true) => {
                            // The retry budget is exhausted, then the block
                            // degrades to the CPU.
                            assert_eq!(r.recovery.retries, 2, "{label}");
                            assert_eq!(r.recovery.degraded_blocks, 1, "{label}");
                        }
                        (false, _) => {
                            assert_eq!(r.recovery.retries, 0, "{label}");
                            assert_eq!(r.recovery.degraded_blocks, 1, "{label}");
                        }
                    }
                }
            }
        }
    }
}

/// Fault scoping is per query: a plan pinned to one stream index must
/// leave the other queries of a batch untouched, and an injected panic in
/// one query must not take down the batch — nor its bill: the resident
/// database is paid for exactly once, by the first query that succeeds,
/// whichever query the fault hits (query 0 included).
#[test]
fn batch_fault_isolation_across_queries() {
    let (q, db) = scaled_workload(DbPreset::SwissprotMini);
    let queries = vec![q.clone(), make_query(80), make_query(95)];
    let device = DeviceConfig::k20c();
    let upload_ms: f64 = DeviceDb::upload(&db, BLOCK_SIZE)
        .blocks()
        .iter()
        .map(|(_, block)| device.transfer_ms(block.upload_bytes()))
        .sum();
    for poisoned in [None, Some(0usize), Some(1)] {
        let plan = poisoned.map_or(FaultPlan::none(), |i| {
            FaultPlan::none().with(FaultSpec::permanent(FaultSite::HostPanic).on_query(i as u32))
        });
        let out = search_batch_with(
            &queries,
            SearchParams::default(),
            matrix_config(),
            device,
            &db,
            BatchOptions {
                injector: Some(Arc::new(FaultInjector::new(plan))),
                ..Default::default()
            },
        );
        assert_eq!(out.per_query.len(), 3);
        let failures: Vec<_> = out.failures().collect();
        assert_eq!(failures.len(), usize::from(poisoned.is_some()));
        for (i, err) in failures {
            assert_eq!(Some(i), poisoned, "only the poisoned query fails");
            assert_eq!(err.category(), "pipeline");
        }

        // Survivors are bit-identical to their standalone runs.
        let survivors = (0..queries.len()).filter(|&i| Some(i) != poisoned);
        let mut h2d_ms = 0.0f64;
        for idx in survivors {
            let solo = run_with_plan(&queries[idx], &db, FaultPlan::none()).expect("fault-free");
            let batched = out.per_query[idx].as_ref().expect("survivor");
            assert_eq!(
                batched.report.identity_key(),
                solo.report.identity_key(),
                "query {idx}, poisoned {poisoned:?}"
            );
            h2d_ms += batched.timing.h2d_ms;
        }
        assert_eq!(
            h2d_ms.to_bits(),
            upload_ms.to_bits(),
            "survivors pay the upload once, poisoned {poisoned:?}"
        );
    }
}

/// The serve path under permanently-faulted gapped device phases
/// (`gapped-launch` / `gapped-d2h`): every request completes by degrading
/// that block's gapped placement to the CPU tail — bit-identical output —
/// and the admission controller keeps admitting follow-up requests (a
/// degraded device is slower, not overloaded; see DESIGN.md §3.8).
#[test]
fn serve_path_degrades_gapped_faults_without_tripping_admission() {
    use cublastp::GappedBackend;
    use cublastp_serve::{DegradationLevel, Request, ServeConfig, Server};

    let (q, db) = scaled_workload(DbPreset::SwissprotMini);
    let gapped_config = CuBlastpConfig {
        gapped_backend: GappedBackend::Gpu,
        ..matrix_config()
    };
    let serve_cfg = ServeConfig {
        workers: 1,
        reserved_interactive_workers: 0,
        ..ServeConfig::default()
    };
    let serve_once = |injector: Option<Arc<FaultInjector>>| -> CuBlastpResult {
        let server = Server::with_injector(
            db.clone(),
            SearchParams::default(),
            gapped_config,
            DeviceConfig::k20c(),
            serve_cfg,
            injector,
        )
        .expect("server");
        let first = server
            .submit(Request::interactive(q.clone(), "t-fault"))
            .expect("first request admitted")
            .wait()
            .expect("first request completed");
        // The controller must not read a permanently-degraded device as
        // load: the ladder stays put and the next request is admitted.
        assert_eq!(server.level(), DegradationLevel::Normal);
        let second = server
            .submit(Request::bulk(q.clone(), "t-fault"))
            .expect("admission tripped by a degraded block")
            .wait()
            .expect("second request completed");
        assert_eq!(
            first.result.report.identity_key(),
            second.result.report.identity_key(),
            "degradation must be deterministic across requests"
        );
        first.result
    };

    let clean = serve_once(None);
    assert!(clean.recovery.is_clean());

    for site in FaultSite::GAPPED {
        let injector = Arc::new(FaultInjector::new(
            FaultPlan::none().with(FaultSpec::permanent(site)),
        ));
        let faulted = serve_once(Some(injector));
        assert_eq!(
            faulted.report.identity_key(),
            clean.report.identity_key(),
            "{}: degraded gapped placement must stay bit-identical",
            site.name()
        );
        assert!(
            faulted.recovery.degraded_gapped >= 1,
            "{}: the gapped fault never fired",
            site.name()
        );
        assert_eq!(
            faulted.recovery.degraded_blocks,
            0,
            "{}: only the gapped phase should degrade, not whole blocks",
            site.name()
        );
    }
}

/// A degraded block bills the link for what crossed it and nothing else:
/// a block whose hit phase re-ran on the host downloads nothing (no bytes,
/// no latency — the records were computed where they are read), and a
/// block whose *gapped* phase fell back to the CPU tail downloads its
/// trigger survivors' records while its neighbours still ship alignments
/// only.
#[test]
fn degraded_blocks_bill_only_what_crossed_the_link() {
    use cublastp::GappedBackend;

    let (q, db) = scaled_workload(DbPreset::SwissprotMini);
    let d2h_legs =
        |r: &CuBlastpResult| -> Vec<f64> { r.block_timings.iter().map(|b| b.d2h_ms).collect() };
    let run = |gapped_backend: GappedBackend, spec: Option<FaultSpec>| -> CuBlastpResult {
        let cfg = CuBlastpConfig {
            gapped_backend,
            ..matrix_config()
        };
        let mut searcher = CuBlastp::new(
            q.clone(),
            SearchParams::default(),
            cfg,
            DeviceConfig::k20c(),
            &db,
        );
        let plan = spec.map_or_else(FaultPlan::none, |s| FaultPlan::none().with(s));
        searcher.injector = Arc::new(FaultInjector::new(plan));
        searcher.search(&db).expect("recovered")
    };

    // Hit-phase arm: permanent fault on block 1, CPU tail.
    let clean = run(GappedBackend::Cpu, None);
    let records = d2h_legs(&clean);
    assert!(records.iter().all(|&ms| ms > 0.0));
    let spec = FaultSpec::permanent(FaultSite::DeviceAlloc).on_block(1);
    let r = run(GappedBackend::Cpu, Some(spec));
    assert_eq!(r.recovery.degraded_blocks, 1);
    assert_eq!(r.report.identity_key(), clean.report.identity_key());
    assert_eq!(r.counts.extensions, clean.counts.extensions);
    assert_eq!(r.counts.triggered, clean.counts.triggered);
    assert_eq!(d2h_legs(&r), [records[0], 0.0, records[2]]);
    assert_eq!(r.timing.d2h_ms, records[0] + records[2]);

    // Gapped arm: the device gapped phase of block 1 degrades.
    let clean_gpu = run(GappedBackend::Gpu, None);
    let alignments = d2h_legs(&clean_gpu);
    assert_ne!(alignments, records, "the two payloads must differ to tell");
    let spec = FaultSpec::permanent(FaultSite::GappedLaunch).on_block(1);
    let r = run(GappedBackend::Gpu, Some(spec));
    assert_eq!(r.recovery.degraded_gapped, 1);
    assert_eq!(r.recovery.degraded_blocks, 0);
    assert_eq!(r.report.identity_key(), clean.report.identity_key());
    assert_eq!(d2h_legs(&r), [alignments[0], records[1], alignments[2]]);

    // Both at once on one block: the host computed the records, the
    // device still aligned them — the alignments are what crossed.
    let spec = FaultSpec::permanent(FaultSite::DeviceAlloc).on_block(1);
    let r = run(GappedBackend::Gpu, Some(spec));
    assert_eq!(r.recovery.degraded_blocks, 1);
    assert_eq!(r.report.identity_key(), clean.report.identity_key());
    assert_eq!(d2h_legs(&r), alignments);
}
