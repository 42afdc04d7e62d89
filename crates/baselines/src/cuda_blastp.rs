//! CUDA-BLASTP stand-in (Liu, Schmidt, Müller-Wittig 2011).
//!
//! Coarse-grained, one thread per subject sequence, with the published
//! code's signature optimization: subject sequences are *sorted by length*
//! before assignment so that the 32 lanes of a warp carry similar-length
//! sequences, reducing (but far from eliminating — hit density still
//! varies) the divergence of the fused kernel.

use crate::coarse::{
    finish_on_cpu, run_coarse_kernel, BaselineResult, BaselineTiming, CoarseWeights,
};
use crate::cost::{measure_subject, SeqWork};
use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use blast_cpu::hit::DiagonalScratch;
use blast_cpu::search::SearchEngine;
use gpu_sim::device::WARP_SIZE;
use gpu_sim::DeviceConfig;

/// The CUDA-BLASTP baseline searcher.
pub struct CudaBlastp {
    /// Shared query state.
    pub engine: SearchEngine,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Cost weights of the fused kernel.
    pub weights: CoarseWeights,
    /// Warps per block.
    pub warps_per_block: u32,
}

impl CudaBlastp {
    /// Build the baseline for a query.
    pub fn new(
        query: Sequence,
        params: SearchParams,
        device: DeviceConfig,
        db: &SequenceDb,
    ) -> Self {
        Self {
            engine: SearchEngine::new(query, params, db),
            device,
            weights: CoarseWeights::default(),
            warps_per_block: 8,
        }
    }

    /// Search the database.
    pub fn search(&self, db: &SequenceDb) -> BaselineResult {
        // Measure the real per-sequence work (functional + cost inputs).
        let mut scratch = DiagonalScratch::new(self.engine.query.len() + db.max_length() + 1);
        let work: Vec<SeqWork> = db
            .sequences()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                measure_subject(
                    &self.engine.dfa,
                    &self.engine.pssm,
                    s,
                    i as u32,
                    &self.engine.params,
                    &mut scratch,
                )
            })
            .collect();

        // Length-sorted static assignment: warp w gets the w-th chunk of
        // 32 consecutive sequences in descending length order.
        let order = db.indices_by_length_desc();
        let assignment: Vec<Vec<usize>> = order
            .chunks(WARP_SIZE as usize)
            .map(|c| c.to_vec())
            .collect();

        let kernel = run_coarse_kernel(
            &self.device,
            "cuda_blastp_fused",
            &work,
            &assignment,
            &self.weights,
            self.warps_per_block,
        );

        // Whole database up; triggered extensions down and the gapped tail
        // on one CPU thread.
        let db_bytes: u64 = db.total_residues() as u64 + (db.len() as u64 + 1) * 8;
        let h2d_ms = self.device.transfer_ms(db_bytes);
        let (report, d2h_ms, cpu_ms) = finish_on_cpu(&self.engine, &self.device, db, &work);

        BaselineResult {
            report,
            timing: BaselineTiming {
                h2d_ms,
                gpu_ms: kernel.time_ms(&self.device),
                d2h_ms,
                cpu_ms,
            },
            kernel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_seq::generate::{generate_db, make_query, DbSpec};
    use blast_cpu::search::search_sequential;

    fn workload() -> (Sequence, SequenceDb) {
        let q = make_query(80);
        let spec = DbSpec {
            name: "t",
            num_sequences: 100,
            mean_length: 130,
            homolog_fraction: 0.25,
            seed: 77,
        };
        (q.clone(), generate_db(&spec, &q).db)
    }

    #[test]
    fn output_identical_to_cpu_reference() {
        let (q, db) = workload();
        let params = SearchParams::default();
        let cpu = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db);
        let baseline = CudaBlastp::new(q, params, DeviceConfig::k20c(), &db);
        let result = baseline.search(&db);
        assert_eq!(result.report.identity_key(), cpu.report.identity_key());
        assert!(!result.report.hits.is_empty());
    }

    #[test]
    fn coarse_kernel_is_divergent_and_uncoalesced() {
        let (q, db) = workload();
        let baseline = CudaBlastp::new(q, SearchParams::default(), DeviceConfig::k20c(), &db);
        let result = baseline.search(&db);
        assert!(
            result.kernel.divergence_overhead() > 0.1,
            "divergence = {}",
            result.kernel.divergence_overhead()
        );
        assert!(
            result.kernel.global_load_efficiency() < 0.15,
            "efficiency = {}",
            result.kernel.global_load_efficiency()
        );
        assert!(result.timing.total_ms() > 0.0);
    }

    #[test]
    fn length_sorting_beats_unsorted_assignment() {
        // The optimization CUDA-BLASTP exists for: compare the kernel with
        // length-sorted vs database-order assignment on a length-skewed DB.
        let (q, db) = workload();
        let b = CudaBlastp::new(q, SearchParams::default(), DeviceConfig::k20c(), &db);
        let mut scratch = DiagonalScratch::new(b.engine.query.len() + db.max_length() + 1);
        let work: Vec<SeqWork> = db
            .sequences()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                measure_subject(
                    &b.engine.dfa,
                    &b.engine.pssm,
                    s,
                    i as u32,
                    &b.engine.params,
                    &mut scratch,
                )
            })
            .collect();
        let sorted: Vec<Vec<usize>> = db
            .indices_by_length_desc()
            .chunks(32)
            .map(|c| c.to_vec())
            .collect();
        let unsorted: Vec<Vec<usize>> = (0..db.len())
            .collect::<Vec<usize>>()
            .chunks(32)
            .map(|c| c.to_vec())
            .collect();
        let d = DeviceConfig::k20c();
        let ks = run_coarse_kernel(&d, "sorted", &work, &sorted, &b.weights, 8);
        let ku = run_coarse_kernel(&d, "unsorted", &work, &unsorted, &b.weights, 8);
        assert!(
            ks.divergence_overhead() < ku.divergence_overhead(),
            "sorted {} vs unsorted {}",
            ks.divergence_overhead(),
            ku.divergence_overhead()
        );
    }
}
