//! Fig. 13 — Strong scaling of gapped extension and alignment with
//! traceback on the multicore CPU (§3.6), for query517 on swissprot.
//!
//! Two columns, two clocks. **Measured** (`HostWall`): the CPU tail of the
//! search — every block's subjects claimed by `t` executed threads
//! (`blast_cpu::par`) — timed at each `t` this host can run, 1 up to
//! `available_parallelism()`; median of 5 searches per row. **Model**
//! (`ScheduleModel`): the paper's curve, `modeled_parallel_speedup(t)` =
//! 1 + 0.78·(t − 1), fitted to its ≈ 1 / 1.8 / 3.3 on a quad-core Sandy
//! Bridge. No search path applies the model; it is printed for the thread
//! counts beyond this host's cores, whose measured cells are empty.

use bench::runners::figure_config;
use bench::table::{fmt, print_table};
use bench::{database, query};
use bio_seq::generate::DbPreset;
use blast_core::SearchParams;
use blast_cpu::par::executed_threads;
use blast_cpu::search::modeled_parallel_speedup;
use cublastp::{CuBlastp, CuBlastpConfig};
use gpu_sim::DeviceConfig;

fn main() {
    let q = query(517);
    let db = database(DbPreset::SwissprotMini, &q);
    let params = SearchParams::default();
    let cores = executed_threads(usize::MAX);

    // The CPU lane (gapped + traceback, summed over blocks) at `threads`.
    let measure = |threads: usize| {
        let cfg = CuBlastpConfig {
            cpu_threads: threads,
            overlap: false,
            ..figure_config()
        };
        let searcher = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db);
        let mut samples: Vec<(f64, usize)> = (0..5)
            .map(|_| {
                let r = searcher.search(&db).expect("fault-free search");
                (r.timing.cpu_wall_ms, r.tail_threads_ran)
            })
            .collect();
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        samples[2]
    };

    let base = measure(1);
    let base_ms = base.0;
    let mut rows = Vec::new();
    for threads in 1..=cores.max(4) {
        let model = modeled_parallel_speedup(threads);
        let measured =
            (threads <= cores).then(|| if threads == 1 { base } else { measure(threads) });
        rows.push(vec![
            threads.to_string(),
            measured.map_or("—".into(), |(ms, _)| fmt(ms)),
            measured.map_or("—".into(), |(ms, _)| fmt(base_ms / ms)),
            measured.map_or("—".into(), |(_, ran)| ran.to_string()),
            fmt(base_ms / model),
            fmt(model),
        ]);
    }
    print_table(
        "Fig. 13 — Strong scaling of gapped extension + traceback, query517 × swissprot_mini",
        &[
            "threads",
            "cpu phase ms (HostWall, measured)",
            "speedup (HostWall, measured)",
            "threads that ran",
            "cpu phase ms (ScheduleModel)",
            "speedup (ScheduleModel: 1 + 0.78·(t − 1))",
        ],
        &rows,
    );
    println!(
        "(this host executes {cores} thread{}: rows above {cores} are model-only; the paper \
         measures ≈ 1 / 1.8 / 3.3 on a quad-core Sandy Bridge)",
        if cores == 1 { "" } else { "s" }
    );
}
