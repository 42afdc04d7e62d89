//! Query-stream batches on the modelled device clock: the NGS-style
//! workload the paper's introduction motivates — many queries against
//! one database.
//!
//! Sweeps batch sizes over both database presets through `search_batch_with`
//! (the database is flattened once and stays device-resident) and
//! reports, per query, the medians of the modelled kernel, H2D and D2H
//! time. The flatten counter verifies residency: one batch flattens the
//! database once per block, independent of batch size. The largest
//! batch's medians — the three legs plus each kernel — are the
//! `phase_medians` the perf gate checks.
//!
//! Queries per second are not reported here: a rate mixes this clock
//! with measured host time, and `benchmark/` reports each clock on its
//! own (host throughput and modelled device ms per query, on the
//! `scan_stream` and `grouped_short` workloads). Results go to stdout
//! (table) and `BENCH_throughput.json` in the working directory.

use bench::obsenv;
use bench::report::{Obj, Report};
use bench::table::print_table;
use bench::{bench_scale, database, query};
use bio_seq::generate::DbPreset;
use blast_core::SearchParams;
use cublastp::{flatten_count, search_batch_with, BatchOptions, CuBlastpConfig, CuBlastpResult};
use gpu_sim::DeviceConfig;
use std::process::ExitCode;

const BATCH_SIZES: [usize; 4] = [1, 4, 16, 64];

struct Row {
    batch: usize,
    gpu_ms: f64,
    h2d_ms: f64,
    d2h_ms: f64,
    flattens: u64,
    db_blocks: usize,
}

fn median_of(results: &[&CuBlastpResult], f: impl Fn(&CuBlastpResult) -> f64) -> f64 {
    let mut xs: Vec<f64> = results.iter().map(|r| f(r)).collect();
    obsenv::median(&mut xs)
}

fn main() -> ExitCode {
    let scale = bench_scale();
    obsenv::arm_from_env();
    let device = DeviceConfig::k20c();
    let params = SearchParams::default();
    let cfg = CuBlastpConfig::default();
    let queries: Vec<_> = (0..*BATCH_SIZES.last().unwrap())
        .map(|i| query(96 + 13 * (i % 24)))
        .collect();

    let mut sections: Vec<(String, Vec<Row>)> = Vec::new();
    let mut medians = Obj::new();
    for preset in [DbPreset::SwissprotMini, DbPreset::EnvNrMini] {
        let db = database(preset, &queries[0]);
        let mut rows = Vec::new();
        for batch in BATCH_SIZES {
            let before = flatten_count();
            let opts = BatchOptions::default();
            let s = search_batch_with(&queries[..batch], params, cfg, device, &db, opts);
            let flattens = flatten_count() - before;
            let results: Vec<&CuBlastpResult> = s.per_query.iter().flatten().collect();
            assert_eq!(results.len(), batch, "fault-free batch");
            rows.push(Row {
                batch,
                gpu_ms: median_of(&results, |r| r.timing.gpu_ms),
                h2d_ms: median_of(&results, |r| r.timing.h2d_ms),
                d2h_ms: median_of(&results, |r| r.timing.d2h_ms),
                flattens,
                db_blocks: results[0].block_timings.len(),
            });
            // Perf-gate medians from the largest batch: the legs above
            // plus each kernel's simulated time, summed over a query's
            // launches (kernel order is the pipeline order) — rows that
            // add up to `gpu_ms` query by query.
            if batch == *BATCH_SIZES.last().unwrap() {
                let r = rows.last().expect("just pushed");
                let mut phases = Obj::new()
                    .fixed("gpu_ms", r.gpu_ms, 6)
                    .fixed("h2d_ms", r.h2d_ms, 6)
                    .fixed("d2h_ms", r.d2h_ms, 6);
                for (ki, k) in results[0].kernels.iter().enumerate() {
                    let mut xs: Vec<f64> = results
                        .iter()
                        .filter_map(|r| r.kernel_ms.get(ki).copied())
                        .collect();
                    phases = phases.fixed(k.name.as_str(), obsenv::median(&mut xs), 6);
                }
                medians = medians.obj(preset.name(), phases);
            }
        }
        sections.push((preset.name().to_string(), rows));
    }

    for (name, rows) in &sections {
        print_table(
            &format!(
                "Query-stream batches — {name} (modelled ms per query, median over the batch)"
            ),
            &["batch", "kernels", "h2d", "d2h", "flattens"],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.batch.to_string(),
                        format!("{:.4}", r.gpu_ms),
                        format!("{:.4}", r.h2d_ms),
                        format!("{:.4}", r.d2h_ms),
                        format!("{} ({} blocks)", r.flattens, r.db_blocks),
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
                        .fixed("gpu_ms", r.gpu_ms, 6)
                        .fixed("h2d_ms", r.h2d_ms, 6)
                        .fixed("d2h_ms", r.d2h_ms, 6)
                        .int("flattens", r.flattens)
                        .int("db_blocks", r.db_blocks as u64)
                })
                .collect();
            Obj::new().text("db", name).rows("sweep", sweep)
        })
        .collect();
    Report::new("throughput").finish(
        Obj::new()
            .text("device", "k20c")
            .num("scale", scale)
            .obj("phase_medians", medians)
            .rows("presets", presets),
    )
}
