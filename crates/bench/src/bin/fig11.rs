//! Fig. 11 — Time breakdown for query517 on the swissprot database:
//! FSA-BLAST vs cuBLASTP with 1 CPU thread vs cuBLASTP with 4 CPU threads.
//!
//! The paper's claims to reproduce: FSA-BLAST spends ~80 % in hit
//! detection + ungapped extension; the fine-grained GPU kernels shrink
//! that share dramatically, making gapped extension and traceback the new
//! bottleneck; adding CPU threads then shrinks those.
//!
//! The cuBLASTP rows come from the search's own phase table
//! (`CuBlastpResult::phase_rows`): the kernels on the `DeviceModel` clock,
//! gapped extension and traceback measured on the threads that executed
//! them (`HostWall`; the row label says how many ran — at most the host's
//! cores, so "w/4CPU" is a two-thread row on a two-core box), and the
//! table's serial total, the one sum across the clocks. The FSA-BLAST row
//! is `HostWall` throughout.

use bench::runners::{figure_config, run_cublastp_detailed};
use bench::table::{fmt, pct, print_table};
use bench::{database, query};
use bio_seq::generate::DbPreset;
use blast_core::SearchParams;
use blast_cpu::search::{search_sequential, SearchEngine};
use cublastp::CuBlastpConfig;

fn main() {
    let q = query(517);
    let db = database(DbPreset::SwissprotMini, &q);
    let params = SearchParams::default();

    let mut rows: Vec<Vec<String>> = Vec::new();

    // FSA-BLAST.
    let engine = SearchEngine::new(q.clone(), params, &db);
    let fsa = search_sequential(&engine, &db);
    let t = &fsa.times;
    let total = t.total().as_secs_f64() * 1e3;
    rows.push(vec![
        "FSA-BLAST".into(),
        fmt(t.hit_ungapped.as_secs_f64() * 1e3),
        fmt(t.gapped.as_secs_f64() * 1e3),
        fmt(t.traceback.as_secs_f64() * 1e3),
        fmt(t.other.as_secs_f64() * 1e3),
        fmt(total),
        pct(t.hit_ungapped.as_secs_f64() * 1e3 / total),
        pct(t.gapped.as_secs_f64() * 1e3 / total),
        pct(t.traceback.as_secs_f64() * 1e3 / total),
    ]);

    // cuBLASTP with 1 and 4 CPU threads (no overlap: the figure shows the
    // phase costs themselves).
    for threads in [1usize, 4] {
        let cfg = CuBlastpConfig {
            cpu_threads: threads,
            overlap: false,
            ..figure_config()
        };
        let (r, _) = run_cublastp_detailed(&q, &db, params, cfg);
        let ti = &r.timing;
        let total = r.phase_rows().last().map_or(0.0, |t| t.ms);
        rows.push(vec![
            format!("cuBLASTP w/{threads}CPU ({} ran)", r.tail_threads_ran),
            fmt(ti.gpu_ms),
            fmt(ti.gapped_ms),
            fmt(ti.traceback_ms),
            // Everything else in the table: transfers, set-up, merge.
            fmt(total - ti.gpu_ms - ti.gapped_ms - ti.traceback_ms),
            fmt(total),
            pct(ti.gpu_ms / total),
            pct(ti.gapped_ms / total),
            pct(ti.traceback_ms / total),
        ]);
    }

    print_table(
        "Fig. 11 — Time breakdown, query517 × swissprot_mini (ms)",
        &[
            "system",
            "hit+ungapped",
            "gapped",
            "traceback",
            "other",
            "total",
            "%hit+ung",
            "%gapped",
            "%traceback",
        ],
        &rows,
    );
    println!(
        "(cuBLASTP rows: hit+ungapped = kernels, DeviceModel; gapped, traceback = HostWall, \
         measured on the threads that ran; total = serial sum of the phase table)"
    );
}
