//! Grouped-seeding amortization: the cost ISSUE the grouped engine
//! exists to attack — per-query seeding work that re-reads every
//! database block once per query.
//!
//! Sweeps batch size over both database presets, running the same batch
//! through the per-query and grouped seeding paths. For every cell the
//! two paths must produce bit-identical per-query reports (checked via
//! `identity_key`); the grouped path's telemetry then gives the
//! amortized seeding cost in simulated milliseconds per database block
//! per query. The sweep asserts that cost decreases monotonically with
//! batch size and is at least 2x lower at batch 16 than at batch 1
//! (grouped-vs-grouped — batch 1 is a singleton round paying the full
//! pass alone). Violations abort with exit code 1, so CI's perf-gate
//! job cannot silently pass a regressed grouping engine.
//!
//! Note the baseline deliberately is the singleton *grouped* round, not
//! the per-query DFA kernel: a single grouped pass probes a hashed slot
//! table through the read-only cache, which at high occupancy costs more
//! per hit than the per-query automaton — the engine wins by amortizing
//! that pass across members, not by beating the DFA one-on-one (see
//! DESIGN.md §3.6). Results go to stdout (table) and
//! `BENCH_grouped_seeding.json` at the repo root.
//!
//! An informational `end_to_end` section runs whole batches of 1, 4, 16
//! and 32 queries once per seed mode, at one thread and at the threads a
//! search executes, and gives each run's host milliseconds per query
//! (`HostWall`), device-model milliseconds per query
//! (`BatchOutcome::device_model_ms`, `DeviceModel`) and the batch's
//! pooled hit-path scratch. It is not in `phase_medians`, so the perf
//! gate does not read it; it asserts only that the device clock does not
//! depend on the thread count.

use bench::obsenv;
use bench::report::{Obj, Report};
use bench::table::{fmt, print_table};
use bench::{bench_scale, database, query};
use bio_seq::generate::DbPreset;
use blast_core::SearchParams;
use blast_cpu::par::executed_threads;
use cublastp::{search_batch_with, BatchOptions, CuBlastpConfig, SeedMode};
use gpu_sim::DeviceConfig;
use std::process::ExitCode;

const BATCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// Batch sizes of the informational end-to-end section.
const END_TO_END_BATCHES: [usize; 4] = [1, 4, 16, 32];

/// Required amortization at the largest batch size vs the singleton
/// round (the ISSUE's acceptance threshold).
const MIN_AMORTIZATION: f64 = 2.0;

struct Row {
    batch: usize,
    rounds: usize,
    occupancy: f64,
    index_kib: f64,
    seeding_ms: f64,
    amortized: f64,
    amortization: f64,
}

/// One end-to-end batch run: both clocks per query, and the memory the
/// batch kept.
struct EndToEnd {
    batch: usize,
    mode: &'static str,
    threads: usize,
    host_ms_per_query: f64,
    device_model_ms_per_query: f64,
    pooled_mib: f64,
}

fn main() -> ExitCode {
    let scale = bench_scale();
    obsenv::arm_from_env();
    let device = DeviceConfig::k20c();
    let params = SearchParams::default();
    let cfg = CuBlastpConfig::default();
    // Moderate query lengths (48..=78): the regime where a group's
    // combined neighborhood still fits one index round at the default
    // budget, so batch 16 is a single 16-member round.
    let queries: Vec<_> = (0..*END_TO_END_BATCHES.last().unwrap())
        .map(|i| query(48 + 2 * i))
        .collect();

    let mut report = Report::new("grouped_seeding");
    let mut sections: Vec<(String, Vec<Row>)> = Vec::new();
    let mut end_to_end: Vec<(String, Vec<EndToEnd>)> = Vec::new();
    let mut medians = Obj::new();
    for preset in [DbPreset::SwissprotMini, DbPreset::EnvNrMini] {
        let db = database(preset, &queries[0]);
        let name = preset.spec().name.to_string();
        let mut rows = Vec::new();
        for batch in BATCH_SIZES {
            let qs = &queries[..batch];
            let baseline = search_batch_with(qs, params, cfg, device, &db, BatchOptions::default());
            let grouped = search_batch_with(
                qs,
                params,
                cfg,
                device,
                &db,
                BatchOptions {
                    seed_mode: SeedMode::Grouped,
                    ..Default::default()
                },
            );
            for (qi, (b, g)) in baseline
                .per_query
                .iter()
                .zip(grouped.per_query.iter())
                .enumerate()
            {
                let (b, g) = match (b, g) {
                    (Ok(b), Ok(g)) => (b, g),
                    _ => {
                        report.fail(format_args!(
                            "{name} batch {batch} query {qi}: search failed"
                        ));
                        continue;
                    }
                };
                if b.report.identity_key() != g.report.identity_key() {
                    report.fail(format_args!(
                        "{name} batch {batch} query {qi}: grouped output \
                         diverges from per-query seeding"
                    ));
                }
            }
            let Some(telemetry) = grouped.grouped.as_ref() else {
                report.fail(format_args!(
                    "{name} batch {batch}: grouped run returned no telemetry"
                ));
                continue;
            };
            if telemetry.queries_covered() != batch {
                report.fail(format_args!(
                    "{name} batch {batch}: rounds cover {} queries",
                    telemetry.queries_covered()
                ));
            }
            let occupancy = if telemetry.rounds.is_empty() {
                0.0
            } else {
                telemetry.rounds.iter().map(|r| r.occupancy).sum::<f64>()
                    / telemetry.rounds.len() as f64
            };
            let index_bytes: u64 = telemetry.rounds.iter().map(|r| r.index_upload_bytes).sum();
            rows.push(Row {
                batch,
                rounds: telemetry.rounds.len(),
                occupancy,
                index_kib: index_bytes as f64 / 1024.0,
                seeding_ms: telemetry.total_seeding_ms(),
                amortized: telemetry.seeding_ms_per_block_query(),
                amortization: 1.0, // filled against the batch-1 row below
            });
        }

        let base = rows.first().map(|r| r.amortized).unwrap_or(0.0);
        for r in &mut rows {
            r.amortization = if r.amortized > 0.0 {
                base / r.amortized
            } else {
                0.0
            };
        }
        for pair in rows.windows(2) {
            if pair[1].amortized > pair[0].amortized {
                report.fail(format_args!(
                    "{name}: amortized seeding cost rose from {:.6} ms \
                     (batch {}) to {:.6} ms (batch {})",
                    pair[0].amortized, pair[0].batch, pair[1].amortized, pair[1].batch
                ));
            }
        }
        if let Some(last) = rows.last() {
            if last.amortization < MIN_AMORTIZATION {
                report.fail(format_args!(
                    "{name}: batch {} amortizes seeding only {:.2}x vs \
                     batch 1 (need >= {MIN_AMORTIZATION}x)",
                    last.batch, last.amortization
                ));
            }
        }

        let phases = rows.iter().fold(Obj::new(), |o, r| {
            o.fixed(format!("amortized_b{}", r.batch), r.amortized, 6)
        });
        medians = medians.obj(name.as_str(), phases);

        let mut runs: Vec<EndToEnd> = Vec::new();
        for batch in END_TO_END_BATCHES {
            for (mode, seed_mode) in [
                ("per-query", SeedMode::PerQuery),
                ("grouped", SeedMode::Grouped),
            ] {
                for cpu_threads in [1, cfg.cpu_threads] {
                    let opts = BatchOptions {
                        seed_mode,
                        ..Default::default()
                    };
                    let cfg = CuBlastpConfig { cpu_threads, ..cfg };
                    let qs = &queries[..batch];
                    let out = search_batch_with(qs, params, cfg, device, &db, opts);
                    if out.succeeded() != batch {
                        report.fail(format_args!("{name} batch {batch} {mode}: a query failed"));
                    }
                    let run = EndToEnd {
                        batch,
                        mode,
                        threads: executed_threads(cpu_threads),
                        host_ms_per_query: out.wall_ms / batch as f64,
                        device_model_ms_per_query: out.device_model_ms() / batch as f64,
                        pooled_mib: out.pooled_bytes as f64 / (1024.0 * 1024.0),
                    };
                    let one = (runs.last()).filter(|r| r.batch == batch && r.mode == mode);
                    let model = |r: &EndToEnd| r.device_model_ms_per_query.to_bits();
                    if one.is_some_and(|one| model(one) != model(&run)) {
                        report.fail(format_args!(
                            "{name} batch {batch} {mode}: the device clock moved with the threads"
                        ));
                    }
                    runs.push(run);
                }
            }
        }
        end_to_end.push((name.clone(), runs));
        sections.push((name, rows));
    }

    for (name, rows) in &sections {
        print_table(
            &format!("Grouped seeding amortization — {name} (simulated ms, k20c)"),
            &[
                "batch",
                "rounds",
                "occupancy",
                "index KiB",
                "seeding ms",
                "ms/block/query",
                "vs batch 1",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.batch.to_string(),
                        r.rounds.to_string(),
                        format!("{:.3}", r.occupancy),
                        fmt(r.index_kib),
                        fmt(r.seeding_ms),
                        format!("{:.5}", r.amortized),
                        format!("{:.2}x", r.amortization),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    for (name, runs) in &end_to_end {
        print_table(
            &format!("End to end — {name} (ms per query, k20c; informational)"),
            &[
                "batch",
                "seed mode",
                "threads",
                "host (HostWall)",
                "device (DeviceModel)",
                "pooled MiB",
            ],
            &runs
                .iter()
                .map(|r| {
                    vec![
                        r.batch.to_string(),
                        r.mode.to_string(),
                        r.threads.to_string(),
                        format!("{:.3}", r.host_ms_per_query),
                        format!("{:.5}", r.device_model_ms_per_query),
                        format!("{:.2}", r.pooled_mib),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    let presets = sections
        .iter()
        .map(|(name, rows)| {
            let sweep = rows
                .iter()
                .map(|r| {
                    Obj::new()
                        .int("batch", r.batch as u64)
                        .int("rounds", r.rounds as u64)
                        .fixed("occupancy", r.occupancy, 4)
                        .fixed("index_kib", r.index_kib, 2)
                        .fixed("seeding_ms", r.seeding_ms, 4)
                        .fixed("seeding_ms_per_block_query", r.amortized, 6)
                        .fixed("amortization_vs_batch1", r.amortization, 3)
                })
                .collect();
            Obj::new().text("db", name).rows("sweep", sweep)
        })
        .collect();
    report.finish(
        Obj::new()
            .text("device", "k20c")
            .num("scale", scale)
            .obj("phase_medians", medians)
            .rows("presets", presets)
            .rows("end_to_end", end_to_end_rows(&end_to_end)),
    )
}

/// The `end_to_end` JSON rows: one per preset, batch and seed mode.
fn end_to_end_rows(end_to_end: &[(String, Vec<EndToEnd>)]) -> Vec<Obj> {
    (end_to_end.iter())
        .flat_map(|(name, runs)| {
            runs.iter().map(move |r| {
                Obj::new()
                    .text("db", name)
                    .int("batch", r.batch as u64)
                    .text("seed_mode", r.mode)
                    .int("threads", r.threads as u64)
                    .fixed("host_ms_per_query", r.host_ms_per_query, 3)
                    .fixed("device_model_ms_per_query", r.device_model_ms_per_query, 6)
                    .fixed("pooled_mib", r.pooled_mib, 2)
            })
        })
        .collect()
}
