//! GPU-BLASTP stand-in (Xiao, Lin, Feng 2011).
//!
//! Coarse-grained like CUDA-BLASTP, but with the published code's two
//! improvements (paper §5):
//!
//! * a **runtime work queue** — a thread that finishes its subject
//!   sequence immediately grabs the next one, so lanes re-balance at
//!   sequence granularity instead of being stuck with a static chunk;
//! * **two-level output buffering** — extensions are written to a
//!   per-thread local buffer and flushed block-wise, avoiding per-hit
//!   global atomics (modelled as cheaper per-hit traffic).
//!
//! The work queue is simulated with a greedy earliest-finish assignment:
//! each next sequence (in database order, as the queue pops them) goes to
//! the lane with the smallest accumulated cost — exactly what the atomic
//! counter achieves on hardware.

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

/// The GPU-BLASTP baseline searcher.
pub struct GpuBlastp {
    /// Shared query state.
    pub engine: SearchEngine,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Cost weights (two-level buffering trims the per-hit traffic
    /// relative to [`CoarseWeights::default`]).
    pub weights: CoarseWeights,
    /// Warps per block.
    pub warps_per_block: u32,
    /// Total concurrent lanes the work queue feeds.
    pub total_warps: usize,
}

impl GpuBlastp {
    /// Build the baseline for a query.
    pub fn new(
        query: Sequence,
        params: SearchParams,
        device: DeviceConfig,
        db: &SequenceDb,
    ) -> Self {
        let weights = CoarseWeights {
            // Two-level buffering: extension output goes to a local buffer,
            // so per-hit global traffic halves.
            tx_per_hit: 1,
            ..CoarseWeights::default()
        };
        Self {
            engine: SearchEngine::new(query, params, db),
            device,
            weights,
            warps_per_block: 8,
            total_warps: 104, // 13 SMs × 8 resident warps feeding the queue
        }
    }

    /// Greedy earliest-finish simulation of the runtime work queue:
    /// per-lane sequence lists.
    fn queue_assignment_lanes(&self, work: &[SeqWork]) -> Vec<Vec<usize>> {
        let lanes = (self.total_warps * WARP_SIZE as usize).max(1);
        let mut lane_load = vec![0u64; lanes];
        let mut lane_seqs: Vec<Vec<usize>> = vec![Vec::new(); lanes];
        for (i, w) in work.iter().enumerate() {
            // The queue pop goes to the lane that frees up first.
            let lane = (0..lanes)
                .min_by_key(|&l| (lane_load[l], l))
                .expect("at least one lane");
            lane_load[lane] += crate::coarse::lane_cycles(w, &self.weights, &self.device);
            lane_seqs[lane].push(i);
        }
        lane_seqs
    }

    /// Greedy earliest-finish simulation of the runtime work queue,
    /// regrouped into warps of 32 lanes.
    pub fn queue_assignment(&self, work: &[SeqWork]) -> Vec<Vec<usize>> {
        let lane_seqs = self.queue_assignment_lanes(work);
        lane_seqs
            .chunks(WARP_SIZE as usize)
            .map(|chunk| chunk.iter().flat_map(|l| l.iter().copied()).collect())
            .collect()
    }

    /// Search the database.
    pub fn search(&self, db: &SequenceDb) -> BaselineResult {
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

        // Work-queue balance (greedy earliest-finish), then merge each
        // lane's sequences into one per-lane work item so the warp model
        // sees its serialized total.
        let lane_seqs = self.queue_assignment_lanes(&work);
        let lanes = lane_seqs.len();
        let mut lane_work: Vec<SeqWork> = (0..lanes).map(|_| SeqWork::default()).collect();
        for (lane, seqs) in lane_seqs.iter().enumerate() {
            for &i in seqs {
                let w = &work[i];
                let lw = &mut lane_work[lane];
                lw.seq_len += w.seq_len;
                lw.words += w.words;
                lw.hits += w.hits;
                lw.ext_scanned += w.ext_scanned;
            }
        }
        let assignment: Vec<Vec<usize>> = (0..self.total_warps)
            .map(|w| {
                (0..WARP_SIZE as usize)
                    .map(|l| w * WARP_SIZE as usize + l)
                    .collect()
            })
            .collect();

        let kernel = run_coarse_kernel(
            &self.device,
            "gpu_blastp_fused",
            &lane_work,
            &assignment,
            &self.weights,
            self.warps_per_block,
        );

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
    use crate::cuda_blastp::CudaBlastp;
    use bio_seq::generate::{generate_db, make_query, DbSpec};
    use blast_cpu::search::search_sequential;

    fn workload() -> (Sequence, SequenceDb) {
        let q = make_query(80);
        let spec = DbSpec {
            name: "t",
            num_sequences: 120,
            mean_length: 130,
            homolog_fraction: 0.25,
            seed: 78,
        };
        (q.clone(), generate_db(&spec, &q).db)
    }

    #[test]
    fn output_identical_to_cpu_reference() {
        let (q, db) = workload();
        let params = SearchParams::default();
        let cpu = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db);
        let baseline = GpuBlastp::new(q, params, DeviceConfig::k20c(), &db);
        let result = baseline.search(&db);
        assert_eq!(result.report.identity_key(), cpu.report.identity_key());
    }

    #[test]
    fn work_queue_beats_static_sorting() {
        // GPU-BLASTP's claim: the runtime queue balances better than
        // CUDA-BLASTP's static length sort → faster fused kernel. The
        // queue only matters when sequences outnumber lanes, so use a
        // database bigger than the 104 × 32 persistent threads.
        let q = make_query(64);
        // Homologs carry far more extension work than equal-length random
        // sequences, so length sorting cannot balance them — the skew the
        // runtime queue absorbs.
        let spec = DbSpec {
            name: "big",
            num_sequences: 5_000,
            mean_length: 110,
            homolog_fraction: 0.08,
            seed: 79,
        };
        let db = generate_db(&spec, &q).db;
        let params = SearchParams::default();
        let d = DeviceConfig::k20c();
        let cuda = CudaBlastp::new(q.clone(), params, d, &db).search(&db);
        let mut gpub_searcher = GpuBlastp::new(q, params, d, &db);
        // The queue pays off once sequences outnumber lanes ~5×; scale the
        // persistent grid down to match this test-sized database (real
        // searches run hundreds of thousands of sequences against the
        // full 104-warp grid).
        gpub_searcher.total_warps = 32;
        let gpub = gpub_searcher.search(&db);
        assert!(
            gpub.timing.gpu_ms < cuda.timing.gpu_ms,
            "gpu-blastp {} ms vs cuda-blastp {} ms",
            gpub.timing.gpu_ms,
            cuda.timing.gpu_ms
        );
    }

    #[test]
    fn queue_assignment_is_balanced() {
        let (q, db) = workload();
        let b = GpuBlastp::new(q, SearchParams::default(), DeviceConfig::k20c(), &db);
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
        let warps = b.queue_assignment(&work);
        let covered: usize = warps.iter().map(|w| w.len()).sum();
        assert_eq!(covered, db.len(), "every sequence assigned exactly once");
    }
}
