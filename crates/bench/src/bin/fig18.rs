//! Fig. 18 — Speedup of cuBLASTP over FSA-BLAST (a–b), NCBI-BLAST with
//! four threads (c–d), CUDA-BLASTP (e–f) and GPU-BLASTP (g–h), for both
//! the critical phases (hit detection + ungapped extension) and overall
//! performance, across the three queries and both databases.
//!
//! Expected shape (paper): vs FSA-BLAST up to 7.9× critical / 6× overall;
//! vs NCBI-BLAST(4t) up to 3.1× / 3.4×; vs CUDA-BLASTP up to 2.9× / 2.8×;
//! vs GPU-BLASTP up to 1.6× / 1.9×. Absolute ratios depend on the
//! simulator's cycle calibration; orderings and rough magnitudes are the
//! reproduction target. The NCBI-BLAST stand-in runs on as many threads
//! as the host executes (its panel header says how many): on fewer than
//! four cores panels (c–d) read closer to (a–b) than the paper's.

use bench::runners::{
    figure_config, run_cublastp, run_cuda_blastp, run_fsa_blast, run_gpu_blastp, run_ncbi_blast,
};
use bench::table::{fmt, print_table};
use bench::{database, query, QUERY_LENGTHS};
use bio_seq::generate::DbPreset;
use blast_core::SearchParams;

fn main() {
    let params = SearchParams::default();
    let presets = [DbPreset::SwissprotMini, DbPreset::EnvNrMini];

    // Collect every system's numbers per (query, db).
    struct Cell {
        critical: Vec<f64>, // [fsa, ncbi, cuda, gpub] / cublastp
        overall: Vec<f64>,
    }
    let mut cells: Vec<(String, String, Cell)> = Vec::new();

    // CPU-side times are wall-clock and noisy on small hosts: take the
    // per-field median of three runs per system.
    fn median3(runs: Vec<bench::runners::RunSummary>) -> bench::runners::RunSummary {
        let field = |get: &dyn Fn(&bench::runners::RunSummary) -> f64| {
            let mut vals: Vec<f64> = runs.iter().map(get).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            vals[1]
        };
        let mut out = runs[0].clone();
        out.critical_ms = field(&|r| r.critical_ms);
        out.overall_ms = field(&|r| r.overall_ms);
        out
    }

    for preset in presets {
        for len in QUERY_LENGTHS {
            let q = query(len);
            let db = database(preset, &q);
            let rep = |f: &dyn Fn() -> bench::runners::RunSummary| median3(vec![f(), f(), f()]);
            let cu = rep(&|| run_cublastp(&q, &db, params, figure_config()));
            let others = [
                rep(&|| run_fsa_blast(&q, &db, params)),
                rep(&|| run_ncbi_blast(&q, &db, params, 4)),
                rep(&|| run_cuda_blastp(&q, &db, params)),
                rep(&|| run_gpu_blastp(&q, &db, params)),
            ];
            for o in &others {
                assert_eq!(
                    o.identity,
                    cu.identity,
                    "{} output differs from cuBLASTP on query{len} × {}",
                    o.name,
                    preset.name()
                );
            }
            cells.push((
                format!("query{len}"),
                preset.name().to_string(),
                Cell {
                    critical: others
                        .iter()
                        .map(|o| o.critical_ms / cu.critical_ms)
                        .collect(),
                    overall: others
                        .iter()
                        .map(|o| o.overall_ms / cu.overall_ms)
                        .collect(),
                },
            ));
            eprintln!("done: query{len} × {}", preset.name());
        }
    }

    let ncbi_panel = format!(
        "(c/d) vs NCBI-BLAST(4t, measured on {} cores)",
        blast_cpu::par::executed_threads(4)
    );
    let panels = [
        ("(a/b) vs FSA-BLAST", 0usize),
        (ncbi_panel.as_str(), 1),
        ("(e/f) vs CUDA-BLASTP", 2),
        ("(g/h) vs GPU-BLASTP", 3),
    ];
    for (label, idx) in panels {
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|(qn, dbn, c)| {
                vec![
                    qn.clone(),
                    dbn.clone(),
                    fmt(c.critical[idx]),
                    fmt(c.overall[idx]),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 18 {label} — speedup of cuBLASTP (×)"),
            &["query", "database", "critical phases", "overall"],
            &rows,
        );
    }
}
