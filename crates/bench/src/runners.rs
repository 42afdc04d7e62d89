//! Pipeline runners: execute each of the five compared systems on a
//! workload and reduce the outcome to the numbers the figures need.

// Runners return typed errors instead of panicking; `cargo clippy
// -- -D warnings` in CI enforces it outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use baselines::{CudaBlastp, GpuBlastp};
use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use blast_cpu::search::{search_parallel, search_sequential, SearchEngine};
use cublastp::binning::BinnedHits;
use cublastp::devicedata::DeviceDbBlock;
use cublastp::reorder::{assemble_kernel, filter_kernel, sort_kernel, FilteredHits};
use cublastp::{CuBlastp, CuBlastpConfig, CuBlastpResult};
use gpu_sim::{DeviceConfig, KernelStats, KernelWorkspace};

/// What every pipeline reports for the comparison figures.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Pipeline label.
    pub name: String,
    /// Time of the paper's "critical phases": hit detection + ungapped
    /// extension (GPU kernel time for the GPU codes, measured wall-clock
    /// for the CPU codes).
    pub critical_ms: f64,
    /// End-to-end time including gapped extension, traceback, transfers
    /// and setup.
    pub overall_ms: f64,
    /// Number of reported alignments (output-identity sanity check).
    pub hits: usize,
    /// Identity key of the ranked report.
    pub identity: Vec<(usize, i32, u32, u32, u32, u32)>,
}

/// Time the construction of a search engine (DFA + PSSM + cutoffs) so
/// setup is charged symmetrically across all pipelines (cuBLASTP counts
/// it in its "other" bucket).
fn timed_engine(q: &Sequence, params: SearchParams, db: &SequenceDb) -> (SearchEngine, f64) {
    let t0 = std::time::Instant::now();
    let engine = SearchEngine::new(q.clone(), params, db);
    (engine, t0.elapsed().as_secs_f64() * 1e3)
}

/// Sequential FSA-BLAST stand-in (single-threaded CPU).
pub fn run_fsa_blast(q: &Sequence, db: &SequenceDb, params: SearchParams) -> RunSummary {
    let (engine, setup_ms) = timed_engine(q, params, db);
    let r = search_sequential(&engine, db);
    RunSummary {
        name: "FSA-BLAST".into(),
        critical_ms: r.times.hit_ungapped.as_secs_f64() * 1e3,
        overall_ms: r.times.total().as_secs_f64() * 1e3 + setup_ms,
        hits: r.report.hits.len(),
        identity: r.report.identity_key(),
    }
}

/// Multithreaded NCBI-BLAST stand-in: `search_parallel` on
/// `min(threads, available_parallelism())` executed threads, its times
/// measured (`HostWall`) — the name says on how many cores.
pub fn run_ncbi_blast(
    q: &Sequence,
    db: &SequenceDb,
    params: SearchParams,
    threads: usize,
) -> RunSummary {
    let (engine, setup_ms) = timed_engine(q, params, db);
    let r = search_parallel(&engine, db, threads);
    RunSummary {
        name: format!(
            "NCBI-BLAST({threads}t, measured on {} cores)",
            blast_cpu::par::executed_threads(threads)
        ),
        critical_ms: r.times.hit_ungapped.as_secs_f64() * 1e3,
        overall_ms: r.times.total().as_secs_f64() * 1e3 + setup_ms,
        hits: r.report.hits.len(),
        identity: r.report.identity_key(),
    }
}

/// cuBLASTP on the simulated K20c; returns the full result for figure
/// binaries that need kernel-level detail, plus the summary.
pub fn run_cublastp_detailed(
    q: &Sequence,
    db: &SequenceDb,
    params: SearchParams,
    cfg: CuBlastpConfig,
) -> (CuBlastpResult, RunSummary) {
    let searcher = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), db);
    // The figure binaries run without fault injection, so a search error
    // here means the workload or config is broken — report it and exit
    // with the device-category code instead of panicking mid-figure.
    let r = match searcher.search(db) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark search failed ({}): {e}", e.category());
            std::process::exit(4);
        }
    };
    let summary = RunSummary {
        name: "cuBLASTP".into(),
        critical_ms: r.timing.gpu_ms,
        overall_ms: r.timing.total_ms(),
        hits: r.report.hits.len(),
        identity: r.report.identity_key(),
    };
    (r, summary)
}

/// cuBLASTP summary-only runner.
pub fn run_cublastp(
    q: &Sequence,
    db: &SequenceDb,
    params: SearchParams,
    cfg: CuBlastpConfig,
) -> RunSummary {
    run_cublastp_detailed(q, db, params, cfg).1
}

/// Coarse-grained CUDA-BLASTP stand-in.
pub fn run_cuda_blastp(q: &Sequence, db: &SequenceDb, params: SearchParams) -> RunSummary {
    let t0 = std::time::Instant::now();
    let searcher = CudaBlastp::new(q.clone(), params, DeviceConfig::k20c(), db);
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
    let r = searcher.search(db);
    RunSummary {
        name: "CUDA-BLASTP".into(),
        critical_ms: r.timing.gpu_ms,
        overall_ms: r.timing.total_ms() + setup_ms,
        hits: r.report.hits.len(),
        identity: r.report.identity_key(),
    }
}

/// Coarse-grained GPU-BLASTP stand-in. The persistent grid is scaled so
/// the work queue has several sequences per lane even on the mini
/// databases (the real code fixes the grid and assumes NR-scale input).
pub fn run_gpu_blastp(q: &Sequence, db: &SequenceDb, params: SearchParams) -> RunSummary {
    let t0 = std::time::Instant::now();
    let mut searcher = GpuBlastp::new(q.clone(), params, DeviceConfig::k20c(), db);
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
    searcher.total_warps = (db.len() / 160).clamp(8, 104);
    let r = searcher.search(db);
    RunSummary {
        name: "GPU-BLASTP".into(),
        critical_ms: r.timing.gpu_ms,
        overall_ms: r.timing.total_ms() + setup_ms,
        hits: r.report.hits.len(),
        identity: r.report.identity_key(),
    }
}

/// Every block of `db` at `block_size`, uploaded — what the kernel-level
/// benches launch over.
pub fn upload_blocks(db: &SequenceDb, block_size: usize) -> Vec<DeviceDbBlock> {
    db.blocks(block_size)
        .into_iter()
        .map(|b| DeviceDbBlock::upload(db.block_sequences(b), b.start))
        .collect()
}

/// Hit reordering one stage per launch — assembling, sorting, filtering,
/// the paper's three kernels — where the search fuses them into
/// `hit_reordering`. Fig. 14 sweeps these and `hotpath` holds the fused
/// launch against their sum.
pub fn staged_reorder(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    binned: BinnedHits,
    window: i64,
    ws: &KernelWorkspace,
) -> (FilteredHits, [KernelStats; 3]) {
    let (mut asm, k_asm) = assemble_kernel(device, cfg, binned, ws);
    let k_sort = sort_kernel(device, &mut asm, ws);
    let (filtered, k_filter) = filter_kernel(device, cfg, &asm, window, ws);
    asm.recycle(ws);
    (filtered, [k_asm, k_sort, k_filter])
}

/// The cuBLASTP configuration used for figure runs (paper defaults with a
/// pipeline block size that gives a handful of blocks per mini database).
pub fn figure_config() -> CuBlastpConfig {
    CuBlastpConfig {
        db_block_size: 512,
        ..CuBlastpConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_seq::generate::{generate_db, DbSpec};

    #[test]
    fn all_runners_agree_on_output() {
        let q = bio_seq::generate::make_query(72);
        let spec = DbSpec {
            name: "t",
            num_sequences: 90,
            mean_length: 120,
            homolog_fraction: 0.25,
            seed: 31,
        };
        let db = generate_db(&spec, &q).db;
        let p = SearchParams::default();
        let fsa = run_fsa_blast(&q, &db, p);
        assert!(fsa.hits > 0);
        for r in [
            run_ncbi_blast(&q, &db, p, 2),
            run_cublastp(&q, &db, p, figure_config()),
            run_cuda_blastp(&q, &db, p),
            run_gpu_blastp(&q, &db, p),
        ] {
            assert_eq!(
                r.identity, fsa.identity,
                "{} differs from FSA-BLAST",
                r.name
            );
            assert!(r.critical_ms > 0.0, "{} critical time", r.name);
            assert!(r.overall_ms > 0.0, "{} overall time", r.name);
        }
    }
}
