//! Fig. 16 — The three fine-grained ungapped-extension strategies
//! (diagonal-, hit-, window-based) compared on (a) kernel execution time
//! and (b) divergence overhead, for the three queries on swissprot.
//!
//! The paper's claims: window-based wins on time (12–24 % over
//! diagonal-based, 27–38 % over hit-based) and has by far the lowest
//! divergence overhead.

use bench::runners::{figure_config, run_cublastp_detailed};
use bench::table::{fmt, pct, print_table};
use bench::{database, query, QUERY_LENGTHS};
use bio_seq::generate::DbPreset;
use blast_core::SearchParams;
use cublastp::{CuBlastpConfig, ExtensionStrategy};

fn main() {
    let params = SearchParams::default();
    let strategies = [
        ("diagonal", ExtensionStrategy::Diagonal),
        ("hit", ExtensionStrategy::Hit),
        ("window", ExtensionStrategy::Window),
    ];

    let mut time_rows = Vec::new();
    let mut div_rows = Vec::new();
    for len in QUERY_LENGTHS {
        let q = query(len);
        let db = database(DbPreset::SwissprotMini, &q);
        let mut times = vec![format!("query{len}")];
        let mut divs = vec![format!("query{len}")];
        for (_, strategy) in strategies {
            let cfg = CuBlastpConfig {
                extension: strategy,
                ..figure_config()
            };
            let (r, _) = run_cublastp_detailed(&q, &db, params, cfg);
            let (ext, ext_ms) = r
                .kernel_rows()
                .find(|(k, _)| k.name.contains("ungapped_extension"))
                .expect("extension kernel present");
            times.push(fmt(ext_ms));
            divs.push(pct(ext.divergence_overhead()));
        }
        time_rows.push(times);
        div_rows.push(divs);
    }

    print_table(
        "Fig. 16(a) — Ungapped-extension kernel time by strategy (ms)",
        &["query", "diagonal-based", "hit-based", "window-based"],
        &time_rows,
    );
    print_table(
        "Fig. 16(b) — Divergence overhead by strategy",
        &["query", "diagonal-based", "hit-based", "window-based"],
        &div_rows,
    );
}
