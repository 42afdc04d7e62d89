//! Gapped extension as a GPU kernel — the design alternative §3.6
//! *rejects*.
//!
//! CUDA-BLASTP ported gapped extension to the GPU; the paper argues
//! against it: only a small fraction of subjects reach the gapped stage,
//! the DP is irregular (a coarse lane per seed, data-dependent band
//! shapes), and while the GPU grinds through it the CPU sits idle —
//! whereas keeping gapped extension on the CPU lets it overlap with the
//! next block's GPU kernels (Fig. 12). This module implements the
//! rejected option so the `ablation_gapped_gpu` bench can measure the
//! paper's argument instead of asserting it.
//!
//! Functionally the kernel computes exactly
//! [`blast_cpu::gapped::gapped_phase_subject`] (so output identity is
//! preserved); the cost model maps one lane to one gapped seed, with the
//! banded-DP cell count derived from the real alignment extents.

use crate::config::CuBlastpConfig;
use crate::devicedata::{DeviceDbBlock, DeviceQuery};
use crate::gpu_phase::ExtensionsCsr;
use blast_core::SearchParams;
use blast_cpu::gapped::{gapped_phase_subject, GappedExt};
use gpu_sim::device::WARP_SIZE;
use gpu_sim::{launch, DeviceConfig, KernelStats, LaunchConfig};
use std::sync::{Mutex, PoisonError};

/// The coarse gapped kernel's launch under `cfg`: its grid, and a heavy
/// per-block state footprint — the DP rows live in per-thread local
/// memory, and 24 kB stands for the register and local-memory pressure
/// that caps these kernels' occupancy on real hardware.
fn footprint(cfg: &CuBlastpConfig) -> LaunchConfig {
    LaunchConfig {
        blocks: cfg.grid_blocks.max(1),
        warps_per_block: cfg.warps_per_block,
        shared_bytes_per_block: 24 * 1024,
        use_readonly_cache: false,
    }
}

/// Run gapped extension for every subject of a block on the simulated
/// GPU. `extensions` is the ungapped-extension output of the block's GPU
/// phase (CSR over block-local subject ids).
pub fn gapped_kernel(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    extensions: &ExtensionsCsr,
    params: &SearchParams,
    trigger: i32,
) -> (Vec<Vec<GappedExt>>, KernelStats) {
    // Work items: subjects with at least one triggering seed.
    let work: Vec<usize> = (0..extensions.num_seqs())
        .filter(|&i| extensions.seq(i).iter().any(|e| e.score >= trigger))
        .collect();

    let results: Mutex<Vec<(usize, Vec<GappedExt>)>> = Mutex::new(Vec::new());
    let blocks = cfg.grid_blocks.max(1) as usize;
    let band = (2 * params.xdrop_gapped + 1) as u64;

    let stats = launch(device, footprint(cfg), "gapped_extension_gpu", |block| {
        let mut out: Vec<(usize, Vec<GappedExt>)> = Vec::new();
        let mut lane_costs: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
        // Lane ↦ subject (coarse): warp batches of 32 subjects, strided
        // over blocks.
        let batches = work.len().div_ceil(WARP_SIZE as usize);
        let mut batch = block.block_id as usize;
        while batch < batches {
            let lo = batch * WARP_SIZE as usize;
            let hi = (lo + WARP_SIZE as usize).min(work.len());
            lane_costs.clear();
            let mut tx_total = 0u64;
            let mut bytes_total = 0u64;
            for &seq in &work[lo..hi] {
                let gapped = gapped_phase_subject(
                    &query.pssm,
                    db.seq(seq),
                    extensions.seq(seq),
                    params,
                    trigger,
                );
                // Banded-DP cost from the real extents: rows × band cells,
                // ~4 instructions + a scoring load per cell; subject and
                // score traffic is per-lane scattered.
                let mut cycles = 0u64;
                let mut tx = 0u64;
                for g in &gapped {
                    let rows = (g.q_end - g.q_start) as u64 + 1;
                    let cells = rows * band;
                    cycles += cells * (4 * block.device().instr_cost + 2)
                        + rows * block.device().global_transaction_cost;
                    tx += rows;
                    bytes_total += rows * 4;
                }
                tx_total += tx;
                lane_costs.push(cycles.max(1));
                out.push((seq, gapped));
            }
            block.lockstep(&lane_costs);
            block.bulk_traffic(tx_total, bytes_total, 0);
            batch += blocks;
        }
        let mut done = results.lock().unwrap_or_else(PoisonError::into_inner);
        done.extend(out);
    });

    let mut gapped_by_seq: Vec<Vec<GappedExt>> = vec![Vec::new(); extensions.num_seqs()];
    for (seq, gapped) in results.into_inner().unwrap_or_else(PoisonError::into_inner) {
        gapped_by_seq[seq] = gapped;
    }
    (gapped_by_seq, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_seq::generate::{generate_db, make_query, DbSpec};
    use blast_core::{Dfa, Matrix, Pssm};

    fn setup() -> (DeviceQuery, DeviceDbBlock, SearchParams, ExtensionsCsr) {
        let q = make_query(96);
        let spec = DbSpec {
            name: "gg",
            num_sequences: 60,
            mean_length: 140,
            homolog_fraction: 0.3,
            seed: 43,
        };
        let synth = generate_db(&spec, &q);
        let m = Matrix::blosum62();
        let p = SearchParams::default();
        let dq = DeviceQuery::upload(Dfa::build(&q, &m, p.threshold), Pssm::build(&q, &m));
        let db = DeviceDbBlock::upload(synth.db.sequences(), 0);
        let cfg = CuBlastpConfig {
            grid_blocks: 2,
            warps_per_block: 2,
            ..CuBlastpConfig::default()
        };
        let out = crate::gpu_phase::run_gpu_phase(
            &DeviceConfig::k20c(),
            &cfg,
            &dq,
            &db,
            &p,
            &gpu_sim::KernelWorkspace::new(),
            &gpu_sim::FaultInjector::none(),
            gpu_sim::FaultCtx::default(),
            None,
        )
        .expect("no faults armed");
        (dq, db, p, out.extensions)
    }

    #[test]
    fn gpu_gapped_matches_cpu_gapped() {
        let (dq, db, p, exts) = setup();
        let cfg = CuBlastpConfig {
            grid_blocks: 3,
            warps_per_block: 2,
            ..CuBlastpConfig::default()
        };
        let (gpu, stats) = gapped_kernel(
            &DeviceConfig::k20c(),
            &cfg,
            &dq,
            &db,
            &exts,
            &p,
            p.gapped_trigger,
        );
        let mut any = false;
        for (i, gpu_seq) in gpu.iter().enumerate().take(exts.num_seqs()) {
            let cpu = gapped_phase_subject(&dq.pssm, db.seq(i), exts.seq(i), &p, p.gapped_trigger);
            assert_eq!(gpu_seq, &cpu, "subject {i}");
            any |= !cpu.is_empty();
        }
        assert!(any, "workload produced no gapped extensions");
        assert!(stats.warp_cycles > 0);
        assert!(
            stats.divergence_overhead() > 0.0,
            "coarse gapped DP must diverge"
        );
    }

    #[test]
    fn empty_extension_input() {
        let (dq, db, p, _) = setup();
        let cfg = CuBlastpConfig::default();
        let empty = ExtensionsCsr::from_stream(Vec::new(), db.num_seqs());
        let (gpu, stats) = gapped_kernel(
            &DeviceConfig::k20c(),
            &cfg,
            &dq,
            &db,
            &empty,
            &p,
            p.gapped_trigger,
        );
        assert!(gpu.iter().all(|g| g.is_empty()));
        assert_eq!(stats.warp_cycles, 0);
    }
}
