//! Fig. 15 — Kernel execution time with the PSS matrix vs the BLOSUM62
//! scoring matrix, for the three query lengths on swissprot (§3.5).
//!
//! The paper's claims: PSSM wins for query127 (fits easily in shared
//! memory, one lookup per position); BLOSUM62 wins for query517 and
//! query1054 (the PSSM either strangles occupancy or spills to global
//! memory).

use bench::runners::{figure_config, run_cublastp_detailed};
use bench::table::{fmt, print_table};
use bench::{database, query, QUERY_LENGTHS};
use bio_seq::generate::DbPreset;
use blast_core::SearchParams;
use cublastp::{CuBlastpConfig, ScoringMode};

fn main() {
    let params = SearchParams::default();

    let mut rows = Vec::new();
    for len in QUERY_LENGTHS {
        let q = query(len);
        let db = database(DbPreset::SwissprotMini, &q);
        let mut times = Vec::new();
        for scoring in [ScoringMode::Pssm, ScoringMode::Blosum62] {
            let cfg = CuBlastpConfig {
                scoring,
                ..figure_config()
            };
            let (r, _) = run_cublastp_detailed(&q, &db, params, cfg);
            times.push(r.timing.gpu_ms);
        }
        let improvement = times[0] / times[1] - 1.0;
        rows.push(vec![
            format!("query{len}"),
            fmt(times[0]),
            fmt(times[1]),
            format!("{:+.0}%", improvement * 100.0),
        ]);
    }
    print_table(
        "Fig. 15 — Total kernel time: PSS matrix vs BLOSUM62 in shared memory (ms)",
        &["query", "PSS matrix", "BLOSUM62", "BLOSUM62 improvement"],
        &rows,
    );
    println!("(paper: −24% for query127, +50% for query517, +237% for query1054)");
}
