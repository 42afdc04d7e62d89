//! `cluster_scaling` — multi-device strong scaling of the sharded engine.
//!
//! The paper's §6 future work asks how the fine-grained pipeline scales
//! when the database is segmented across devices. This harness drives the
//! *real* sharded engine (DESIGN.md §3.10) — not an analytic model: it
//! shards `env_nr_mini` into [`SHARDS`] shards, runs a batch of
//! [`QUERY_LENS`] queries through [`search_sharded_batch`] (one measured
//! (query × shard) work item each, cross-shard statistics), then
//! re-simulates the same measured items across device counts via
//! [`ShardedBatchOutcome::reschedule`] — identical work, deterministic
//! schedules, no re-search. It asserts, not just reports:
//!
//! 1. **Bit-identical output** — every query's merged sharded report has
//!    the same identity key and e-value bits as a flat single-DB search.
//! 2. **≥2× makespan speedup at 4 devices** over the single-device
//!    schedule of the same items.
//! 3. **≥0.6 scaling efficiency at 8 devices** (speedup / devices).
//! 4. **No failed queries** under the fault-free run.
//!
//! The committed gate (`ci/baselines/cluster_scaling.json`) covers the
//! violation counters (all baseline 0); the scaling curve itself varies
//! with the modelled costs and stays informational.

use bench::report::{Obj, Report};
use bench::workloads::bench_scale;
use bench::{database, obsenv, print_table, query};
use bio_seq::generate::DbPreset;
use bio_seq::Sequence;
use blast_core::SearchParams;
use cublastp::{
    search_sharded_batch, CuBlastp, CuBlastpConfig, ShardedBatchOptions, ShardedBatchOutcome,
    ShardedDb,
};
use gpu_sim::DeviceConfig;
use std::process::ExitCode;

/// Shards the database is partitioned into.
const SHARDS: usize = 8;
/// Device counts the scaling curve sweeps (re-simulated, same items).
const DEVICES: [usize; 4] = [1, 2, 4, 8];
/// Query lengths of the batch — 8 queries × 8 shards = 64 work items.
const QUERY_LENS: [usize; 8] = [127, 254, 387, 517, 213, 298, 451, 166];
/// Re-measurements allowed before a scaling violation counts.
const RETRIES: usize = 2;
/// Acceptance floor: makespan speedup at 4 devices.
const MIN_SPEEDUP_4DEV: f64 = 2.0;
/// Acceptance floor: scaling efficiency at 8 devices.
const MIN_EFFICIENCY_8DEV: f64 = 0.6;

fn run_batch(
    queries: &[Sequence],
    params: SearchParams,
    cfg: CuBlastpConfig,
    sharded: &ShardedDb,
) -> ShardedBatchOutcome {
    search_sharded_batch(
        queries,
        params,
        cfg,
        DeviceConfig::k20c(),
        sharded,
        &ShardedBatchOptions::default(),
    )
}

fn main() -> ExitCode {
    let scale = bench_scale();
    obsenv::arm_from_env();
    let params = SearchParams::default();
    let cfg = CuBlastpConfig::default();
    let queries: Vec<Sequence> = QUERY_LENS.iter().map(|&len| query(len)).collect();
    let db = database(DbPreset::EnvNrMini, &queries[0]);
    let preset = DbPreset::EnvNrMini.spec().name;
    let sharded = ShardedDb::split(&db, SHARDS, cfg.db_block_size);

    // Property 1: sharded output is bit-identical to flat single-DB
    // searches (identity key and e-value bits), every query.
    let mut outcome = run_batch(&queries, params, cfg, &sharded);
    let mut identity_mismatch = 0.0;
    let mut query_failures = 0.0;
    for (q, result) in queries.iter().zip(&outcome.per_query) {
        match result {
            Ok(r) => {
                let flat = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db)
                    .search(&db)
                    .expect("fault-free flat search");
                if r.report.identity_key() != flat.report.identity_key()
                    || r.report.hits.iter().zip(&flat.report.hits).any(|(a, b)| {
                        a.evalue.to_bits() != b.evalue.to_bits()
                            || a.bit_score.to_bits() != b.bit_score.to_bits()
                    })
                {
                    eprintln!(
                        "cluster_scaling: sharded output diverged from flat search \
                         (query len {})",
                        q.len()
                    );
                    identity_mismatch += 1.0;
                }
            }
            Err(e) => {
                eprintln!("cluster_scaling: query failed under sharding: {e}");
                query_failures += 1.0;
            }
        }
    }

    // Properties 2 and 3, with re-measurement: the schedule is a pure
    // function of the measured item costs, so a genuine scaling loss
    // reproduces while a host-noise cost wobble does not.
    let mut speedup_4dev_below_2x = 0.0;
    let mut efficiency_8dev_below_0p6 = 0.0;
    for attempt in 0..=RETRIES {
        let s4 = outcome.single_device_ms / outcome.reschedule(4).makespan_ms.max(1e-9);
        let e8 = outcome.reschedule(8).efficiency(outcome.single_device_ms);
        if s4 >= MIN_SPEEDUP_4DEV && e8 >= MIN_EFFICIENCY_8DEV {
            break;
        }
        eprintln!(
            "cluster_scaling: speedup(4)={s4:.2} (floor {MIN_SPEEDUP_4DEV}), \
             efficiency(8)={e8:.2} (floor {MIN_EFFICIENCY_8DEV}) — attempt {}",
            attempt + 1
        );
        if attempt == RETRIES {
            speedup_4dev_below_2x = f64::from(s4 < MIN_SPEEDUP_4DEV);
            efficiency_8dev_below_0p6 = f64::from(e8 < MIN_EFFICIENCY_8DEV);
            break;
        }
        outcome = run_batch(&queries, params, cfg, &sharded);
    }

    // The scaling curve: same measured items, re-simulated per count.
    let mut curve = Vec::new();
    for d in DEVICES {
        let s = outcome.reschedule(d);
        curve.push((
            d,
            s.makespan_ms,
            outcome.single_device_ms / s.makespan_ms.max(1e-9),
            s.efficiency(outcome.single_device_ms),
        ));
    }
    print_table(
        &format!(
            "§3.10 sharded fleet strong scaling — {} queries × {SHARDS} shards, {preset}",
            queries.len()
        ),
        &["devices", "makespan (ms)", "speedup", "efficiency"],
        &curve
            .iter()
            .map(|(d, mk, sp, eff)| {
                vec![
                    d.to_string(),
                    format!("{mk:.3}"),
                    format!("{sp:.2}x"),
                    format!("{eff:.2}"),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "Work items are measured once ({} items, {:.3} ms single-device) and \
         rescheduled deterministically per device count.",
        outcome.item_costs.len(),
        outcome.single_device_ms,
    );

    // Gated numbers: violation counters only, all baseline 0 — any
    // violation regresses the gate (each was already explained on stderr
    // where it was found). The curve varies with modelled costs and
    // stays informational.
    let mut report = Report::new("cluster_scaling");
    let counters = [
        ("speedup_4dev_below_2x", speedup_4dev_below_2x),
        ("efficiency_8dev_below_0p6", efficiency_8dev_below_0p6),
        ("identity_mismatch", identity_mismatch),
        ("query_failures", query_failures),
    ];
    let gated = report.violations(preset, &counters);
    let curve = curve
        .iter()
        .map(|&(d, mk, sp, eff)| {
            Obj::new()
                .int("devices", d as u64)
                .fixed("makespan_ms", mk, 4)
                .fixed("speedup", sp, 4)
                .fixed("efficiency", eff, 4)
        })
        .collect();
    report.finish(
        Obj::new()
            .text("device", "k20c")
            .num("scale", scale)
            .int("shards", SHARDS as u64)
            .obj(
                "phase_medians",
                Obj::new().obj("cluster_scaling", Obj::new().obj(preset, gated)),
            )
            .fixed("single_device_ms", outcome.single_device_ms, 4)
            .int("items", outcome.item_costs.len() as u64)
            .rows("curve", curve),
    )
}
