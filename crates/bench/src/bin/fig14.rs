//! Fig. 14 — Execution time of the fine-grained kernels as a function of
//! the number of bins per warp (query517 × swissprot).
//!
//! The paper's claims: hit sorting and hit filtering keep improving with
//! more bins (shorter segments → fewer merge passes), but hit detection
//! degrades past 128 bins because the per-warp `top` arrays consume
//! shared memory and depress occupancy; 128 is the sweet spot overall.
//!
//! The search runs assembling → sorting → filtering as one launch
//! (`hit_reordering`); the figure is about the sort *stage*, so the
//! sorting and filtering columns launch the stages one at a time over the
//! same bins, block by block, as the paper's code does. Hit detection,
//! the fused launch and the total are the search's own.

use bench::runners::{figure_config, run_cublastp_detailed, staged_reorder, upload_blocks};
use bench::table::{fmt, print_table};
use bench::{database, query};
use bio_seq::generate::DbPreset;
use blast_core::{Dfa, Matrix, Pssm, SearchParams};
use cublastp::binning::binning_kernel;
use cublastp::devicedata::DeviceQuery;
use cublastp::CuBlastpConfig;
use gpu_sim::{DeviceConfig, KernelWorkspace};

fn main() {
    let q = query(517);
    let db = database(DbPreset::SwissprotMini, &q);
    let params = SearchParams::default();
    let device = DeviceConfig::k20c();
    let m = Matrix::blosum62();
    let dq = DeviceQuery::upload(Dfa::build(&q, &m, params.threshold), Pssm::build(&q, &m));
    let ws = KernelWorkspace::new();
    let blocks = upload_blocks(&db, figure_config().db_block_size);

    let mut rows = Vec::new();
    let mut sorting_ms = Vec::new();
    for bins in [32usize, 64, 128, 256, 512] {
        let cfg = CuBlastpConfig {
            num_bins: bins,
            ..figure_config()
        };
        let (r, _) = run_cublastp_detailed(&q, &db, params, cfg);
        let k = |name: &str| r.kernel_ms_of(name).unwrap_or(0.0);

        let (mut sorting, mut filtering) = (0.0, 0.0);
        for block in &blocks {
            let (binned, _) = binning_kernel(&device, &cfg, &dq, block, &ws);
            let window = params.two_hit_window as i64;
            let (filtered, [_, k_sort, k_filter]) =
                staged_reorder(&device, &cfg, binned, window, &ws);
            filtered.recycle(&ws);
            sorting += k_sort.time_ms(&device);
            filtering += k_filter.time_ms(&device);
        }
        sorting_ms.push(sorting);
        rows.push(vec![
            bins.to_string(),
            fmt(k("hit_detection")),
            fmt(sorting),
            fmt(filtering),
            fmt(k("hit_reordering")),
            fmt(r.timing.gpu_ms),
            fmt(r
                .kernel("hit_detection")
                .map(|k| k.occupancy)
                .unwrap_or(0.0)),
        ]);
    }
    print_table(
        "Fig. 14 — Kernel time vs bins per warp, query517 × swissprot_mini (ms)",
        &[
            "bins/warp",
            "hit detection",
            "hit sorting (stage)",
            "hit filtering (stage)",
            "hit reordering (fused)",
            "total kernels",
            "detection occupancy",
        ],
        &rows,
    );
    // The shape the figure is about: more bins, shorter segments, fewer
    // merge passes.
    assert!(
        sorting_ms.windows(2).all(|w| w[1] < w[0]),
        "hit sorting must get cheaper with every doubling of the bins: {sorting_ms:?}"
    );
}
