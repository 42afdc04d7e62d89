//! Fig. 13 — Strong scaling of gapped extension and alignment with
//! traceback on the multicore CPU (§3.6), for query517 on swissprot.
//!
//! Nothing here runs on more than one thread: the CPU phase is measured
//! once, on the calling thread, and every other row is that time divided
//! by the scaling model `blast_cpu::search::modeled_parallel_speedup`
//! (1 + 0.78·(t − 1), fitted to the paper's ≈ 1 / 1.8 / 3.3). The table
//! shows what the Fig. 12 schedule is fed at each `cpu_threads`, not a
//! measured scaling curve.

use bench::runners::figure_config;
use bench::table::{fmt, print_table};
use bench::{database, query};
use bio_seq::generate::DbPreset;
use blast_core::SearchParams;
use cublastp::{CuBlastp, CuBlastpConfig};
use gpu_sim::DeviceConfig;

fn main() {
    let q = query(517);
    let db = database(DbPreset::SwissprotMini, &q);
    let params = SearchParams::default();

    // Measure the serial CPU phase (median of 5 runs).
    let cfg = CuBlastpConfig {
        cpu_threads: 1,
        overlap: false,
        ..figure_config()
    };
    let searcher = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db);
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            searcher
                .search(&db)
                .expect("fault-free search")
                .timing
                .cpu_wall_ms
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let base = samples[2];

    let mut rows = Vec::new();
    for threads in [1usize, 2, 4] {
        let speedup = blast_cpu::search::modeled_parallel_speedup(threads);
        rows.push(vec![threads.to_string(), fmt(base / speedup), fmt(speedup)]);
    }
    print_table(
        "Fig. 13 — Strong scaling of gapped extension + traceback, query517 × swissprot_mini",
        &[
            "threads",
            "cpu phase (ms; measured at 1 thread)",
            "modelled (1 + 0.78·(t − 1))",
        ],
        &rows,
    );
    println!("(paper measures ≈ 1 / 1.8 / 3.3 on a quad-core Sandy Bridge)");
}
