//! Fig. 17 — Kernel execution time with and without routing the DFA
//! query-position lists through the Kepler read-only cache (§3.5,
//! Fig. 10): hierarchical buffering must always help.

use bench::runners::{figure_config, run_cublastp_detailed};
use bench::table::{fmt, pct, print_table};
use bench::{database, query, QUERY_LENGTHS};
use bio_seq::generate::DbPreset;
use blast_core::SearchParams;
use cublastp::CuBlastpConfig;

fn main() {
    let params = SearchParams::default();

    let mut rows = Vec::new();
    for len in QUERY_LENGTHS {
        let q = query(len);
        let db = database(DbPreset::SwissprotMini, &q);
        let mut cells = vec![format!("query{len}")];
        let mut hit_rate = String::new();
        for cache in [false, true] {
            let cfg = CuBlastpConfig {
                use_readonly_cache: cache,
                ..figure_config()
            };
            let (r, _) = run_cublastp_detailed(&q, &db, params, cfg);
            cells.push(fmt(r.timing.gpu_ms));
            if cache {
                hit_rate = pct(r
                    .kernel("hit_detection")
                    .map(|k| k.rocache_hit_rate())
                    .unwrap_or(0.0));
            }
        }
        cells.push(hit_rate);
        rows.push(cells);
    }
    print_table(
        "Fig. 17 — Total kernel time without / with the read-only cache (ms)",
        &["query", "without cache", "with cache", "cache hit rate"],
        &rows,
    );
}
