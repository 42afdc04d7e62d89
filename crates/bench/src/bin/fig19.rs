//! Fig. 19 — Profiling cuBLASTP against CUDA-BLASTP and GPU-BLASTP for
//! query517 on env_nr: (a) global-load efficiency, (b) divergence
//! overhead, (c) achieved occupancy — per kernel — and (d) the breakdown
//! of cuBLASTP's overall execution time with overlap.
//!
//! The paper's claims: the fine-grained kernels reach 25–81 % load
//! efficiency vs 5.2 % / 11.5 % for the fused coarse kernels, with far
//! lower divergence and higher occupancy; transfers and CPU phases are
//! largely hidden by the Fig. 12 pipeline.
//!
//! (a)–(c) profile the paper's kernels one launch each
//! (`bench::runners::staged_hit_path`), then the search's own fused
//! `hit_tail` — reordering as the extension's prologue — on its row;
//! (d) is the search's own bill.

use baselines::{CudaBlastp, GpuBlastp};
use bench::runners::{figure_config, run_cublastp_detailed, staged_hit_path};
use bench::table::{fmt, pct, print_table};
use bench::{database, query};
use bio_seq::generate::DbPreset;
use blast_core::SearchParams;
use cublastp::extension::HIT_TAIL_KERNEL;
use gpu_sim::DeviceConfig;

fn main() {
    let q = query(517);
    let db = database(DbPreset::EnvNrMini, &q);
    let params = SearchParams::default();
    let device = DeviceConfig::k20c();

    let (cu, _) = run_cublastp_detailed(&q, &db, params, figure_config());
    let cuda = CudaBlastp::new(q.clone(), params, device, &db).search(&db);
    let mut gpub_searcher = GpuBlastp::new(q.clone(), params, device, &db);
    gpub_searcher.total_warps = (db.len() / 160).clamp(8, 104);
    let gpub = gpub_searcher.search(&db);

    // (a)–(c): per-kernel metrics.
    let staged = staged_hit_path(&q, &db, params, figure_config());
    let mut rows = Vec::new();
    let search_tail = cu.kernel(HIT_TAIL_KERNEL).map(|k| (k, " (search)"));
    for (k, note) in (staged.iter().map(|(k, _)| (k, ""))).chain(search_tail) {
        rows.push(vec![
            format!("cuBLASTP::{}{note}", k.name),
            pct(k.global_load_efficiency()),
            pct(k.divergence_overhead()),
            pct(k.occupancy),
        ]);
    }
    for (label, k) in [
        ("CUDA-BLASTP::fused", &cuda.kernel),
        ("GPU-BLASTP::fused", &gpub.kernel),
    ] {
        rows.push(vec![
            label.to_string(),
            pct(k.global_load_efficiency()),
            pct(k.divergence_overhead()),
            pct(k.occupancy),
        ]);
    }
    print_table(
        "Fig. 19(a–c) — Per-kernel profile, query517 × env_nr_mini",
        &[
            "kernel",
            "load efficiency",
            "divergence overhead",
            "occupancy",
        ],
        &rows,
    );

    // (d): cuBLASTP overall breakdown — the search's own phase table,
    // whose last row is the serial total the shares are of.
    let table = cu.phase_rows();
    let serial_total = table.last().map_or(0.0, |t| t.ms);
    let rows: Vec<Vec<String>> = table
        .iter()
        .map(|row| {
            vec![
                row.name.clone(),
                format!("{:?}", row.clock),
                fmt(row.ms),
                pct(row.ms / serial_total),
            ]
        })
        .collect();
    print_table(
        "Fig. 19(d) — cuBLASTP time breakdown, query517 × env_nr_mini (ms, % of serial)",
        &["stage", "clock", "time (ms)", "share"],
        &rows,
    );
    let t = &cu.timing;
    println!(
        "serial pipeline: {} ms; overlapped (Fig. 12): {} ms; hidden by overlap: {}",
        fmt(t.serial_ms + t.other_ms),
        fmt(t.total_ms()),
        pct(1.0 - t.overlapped_ms / t.serial_ms),
    );
}
