//! Fig. 16 — The three fine-grained ungapped-extension strategies
//! (diagonal-, hit-, window-based) compared on (a) kernel execution time
//! and (b) divergence overhead, for the three queries on swissprot.
//!
//! The paper's claims: window-based wins on time (12–24 % over
//! diagonal-based, 27–38 % over hit-based) and has by far the lowest
//! divergence overhead.
//!
//! The search runs the extension as the second half of one launch
//! (`hit_tail`); the figure profiles the extension kernel on its own,
//! launched over `hit_reordering`'s survivors block by block, as the
//! paper's code does (`bench::runners::staged_hit_path`).

use bench::runners::{figure_config, staged_hit_path};
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
            let rows = staged_hit_path(&q, &db, params, cfg);
            let (ext, ext_ms) = (rows.iter())
                .find(|(k, _)| k.name == strategy.kernel_name())
                .expect("extension kernel present");
            times.push(fmt(*ext_ms));
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
