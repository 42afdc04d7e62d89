//! The shared coarse-grained execution model (paper §3.1, Fig. 4).
//!
//! One lane runs Algorithm 1 for one whole subject sequence. Costs per
//! lane are serialized over its sequence's words, hits and extension
//! positions; the warp takes the slowest lane (SIMT), which is where the
//! coarse baselines' divergence overhead comes from. Memory traffic is
//! per-lane scattered: each lane reads its own sequence, its own
//! `lasthit_arr`, its own scoring cells — so nearly every access is its
//! own 128-byte transaction serving a handful of bytes (the 5–11 % global
//! load efficiency of Fig. 19a).

use crate::cost::SeqWork;
use blast_cpu::report::{PhaseTimes, SearchReport};
use blast_cpu::search::SearchEngine;
use blast_cpu::ungapped::UngappedExt;
use gpu_sim::device::WARP_SIZE;
use gpu_sim::{launch, DeviceConfig, KernelStats, LaunchConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Per-lane cost weights of the fused coarse kernel.
#[derive(Debug, Clone, Copy)]
pub struct CoarseWeights {
    /// Global transactions per scanned word (subject read + DFA lookup).
    pub tx_per_word: u64,
    /// Useful bytes per scanned word.
    pub bytes_per_word: u64,
    /// Global transactions per hit (lasthit_arr read + write).
    pub tx_per_hit: u64,
    /// Useful bytes per hit.
    pub bytes_per_hit: u64,
    /// Global transactions per extension position (subject + scoring).
    pub tx_per_ext_pos: u64,
    /// Useful bytes per extension position.
    pub bytes_per_ext_pos: u64,
    /// Plain instructions per word / hit / extension position.
    pub instr_per_word: u64,
    /// Instructions per hit.
    pub instr_per_hit: u64,
    /// Instructions per extension position.
    pub instr_per_ext_pos: u64,
    /// Shared-memory bytes per block the launch occupies — a stand-in for
    /// the heavy per-thread register/state pressure of the fused kernel
    /// (which is what limits these kernels' occupancy on real hardware,
    /// Fig. 19c).
    pub state_bytes_per_block: u32,
}

impl Default for CoarseWeights {
    fn default() -> Self {
        Self {
            tx_per_word: 1,
            bytes_per_word: 4,
            tx_per_hit: 2,
            bytes_per_hit: 8,
            tx_per_ext_pos: 1,
            bytes_per_ext_pos: 3,
            instr_per_word: 2,
            instr_per_hit: 3,
            instr_per_ext_pos: 2,
            state_bytes_per_block: 16 * 1024,
        }
    }
}

/// Serialized lane cost of one sequence under the weights (scan + hit +
/// extension work combined — used by the work-queue balancer).
pub fn lane_cycles(w: &SeqWork, weights: &CoarseWeights, device: &DeviceConfig) -> u64 {
    scan_cycles(w, weights, device) + hitext_cycles(w, weights, device)
}

/// Cost of the word-scan part (executes in lockstep across lanes; only
/// sequence-length imbalance diverges here).
pub fn scan_cycles(w: &SeqWork, weights: &CoarseWeights, device: &DeviceConfig) -> u64 {
    w.words * weights.tx_per_word * device.global_transaction_cost
        + w.words * weights.instr_per_word * device.instr_cost
}

/// Cost of the hit-processing and extension part. In a fused coarse
/// kernel these branches fire at unpredictable columns, so one lane's hit
/// work stalls the rest of the warp — the structural divergence of
/// Fig. 4 that no assignment policy can remove.
pub fn hitext_cycles(w: &SeqWork, weights: &CoarseWeights, device: &DeviceConfig) -> u64 {
    let tx = w.hits * weights.tx_per_hit + w.ext_scanned * weights.tx_per_ext_pos;
    let instr = w.hits * weights.instr_per_hit + w.ext_scanned * weights.instr_per_ext_pos;
    tx * device.global_transaction_cost + instr * device.instr_cost
}

/// Per-lane global traffic of one sequence.
pub fn lane_traffic(w: &SeqWork, weights: &CoarseWeights) -> (u64, u64) {
    let tx = w.words * weights.tx_per_word
        + w.hits * weights.tx_per_hit
        + w.ext_scanned * weights.tx_per_ext_pos;
    let bytes = w.words * weights.bytes_per_word
        + w.hits * weights.bytes_per_hit
        + w.ext_scanned * weights.bytes_per_ext_pos;
    (tx, bytes)
}

/// The fused coarse kernel's launch over `num_warps` warps: blocks of
/// `warps_per_block`, each declaring the weights' per-block state
/// footprint.
fn footprint(num_warps: u32, weights: &CoarseWeights, warps_per_block: u32) -> LaunchConfig {
    LaunchConfig {
        blocks: num_warps.div_ceil(warps_per_block).max(1),
        warps_per_block,
        shared_bytes_per_block: weights.state_bytes_per_block,
        use_readonly_cache: false,
    }
}

/// Run the fused coarse kernel given an explicit lane assignment:
/// `assignment[warp][lane]` indexes into `work`. Warps are distributed
/// round-robin over blocks of `warps_per_block`.
pub fn run_coarse_kernel(
    device: &DeviceConfig,
    name: &str,
    work: &[SeqWork],
    assignment: &[Vec<usize>],
    weights: &CoarseWeights,
    warps_per_block: u32,
) -> KernelStats {
    let cfg = footprint(assignment.len() as u32, weights, warps_per_block);
    launch(device, cfg, name, |block| {
        let lo = (block.block_id * warps_per_block) as usize;
        let hi = (lo + warps_per_block as usize).min(assignment.len());
        for warp in &assignment[lo..hi] {
            // Word scan: lanes advance in lockstep; divergence here comes
            // only from length imbalance.
            let mut lanes: Vec<u64> = Vec::with_capacity(WARP_SIZE as usize);
            let mut tx_total = 0u64;
            let mut bytes_total = 0u64;
            for &seq in warp.iter().take(WARP_SIZE as usize) {
                let w = &work[seq];
                lanes.push(scan_cycles(w, weights, block.device()));
                let (tx, bytes) = lane_traffic(w, weights);
                tx_total += tx;
                bytes_total += bytes;
            }
            block.lockstep(&lanes);
            // Hit and extension branches: serialized lane by lane (the
            // coarse kernel's structural divergence, Fig. 4).
            for &seq in warp.iter().take(WARP_SIZE as usize) {
                let c = hitext_cycles(&work[seq], weights, block.device());
                if c > 0 {
                    block.lockstep(&[c]);
                }
            }
            block.bulk_traffic(tx_total, bytes_total, 0);
        }
    })
}

/// Timing summary of a coarse baseline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BaselineTiming {
    /// Host→device transfer (modelled).
    pub h2d_ms: f64,
    /// Fused kernel time (modelled) — the "critical phases".
    pub gpu_ms: f64,
    /// Device→host transfer (modelled).
    pub d2h_ms: f64,
    /// CPU gapped extension + traceback (measured wall-clock).
    pub cpu_ms: f64,
}

impl BaselineTiming {
    /// Total time: the coarse baselines do not overlap CPU and GPU work.
    pub fn total_ms(&self) -> f64 {
        self.h2d_ms + self.gpu_ms + self.d2h_ms + self.cpu_ms
    }
}

/// Result of a coarse baseline search.
pub struct BaselineResult {
    /// Ranked hit list — identical to every other pipeline.
    pub report: SearchReport,
    /// Fused-kernel stats.
    pub kernel: KernelStats,
    /// Timing summary.
    pub timing: BaselineTiming,
}

/// Finish a coarse run: the D2H leg, then gapped extension + traceback on
/// a single CPU thread (neither baseline overlaps or multithreads the
/// tail), then ranking. The link carries the extensions the tail reads —
/// those that reached the gapped trigger — the same rule cuBLASTP's
/// extension kernel ships by, so the figures compare kernels and not a
/// billing asymmetry (the published codes do not store an ungapped
/// extension below the trigger either). Returns the report, the modelled
/// D2H time and the measured CPU time, both in milliseconds.
pub fn finish_on_cpu(
    engine: &SearchEngine,
    device: &DeviceConfig,
    db: &bio_seq::SequenceDb,
    work: &[SeqWork],
) -> (SearchReport, f64, f64) {
    let survivors = (work.iter().flat_map(|w| &w.extensions))
        .filter(|e| e.score >= engine.cutoffs.gapped_trigger)
        .count();
    let d2h_ms = device.transfer_ms((survivors * std::mem::size_of::<UngappedExt>()) as u64);

    let t0 = Instant::now();
    let mut report = SearchReport::default();
    let mut times = PhaseTimes::default();
    for (idx, w) in work.iter().enumerate() {
        if w.extensions.is_empty() {
            continue;
        }
        engine.finish_subject(
            idx,
            &db.sequences()[idx],
            &w.extensions,
            &mut report,
            Some(&mut times),
        );
    }
    report.finalize(engine.params.max_reported);
    (report, d2h_ms, t0.elapsed().as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(words: u64, hits: u64, scanned: u64) -> SeqWork {
        SeqWork {
            seq_len: words + 2,
            words,
            hits,
            ext_scanned: scanned,
            extensions: Vec::new(),
        }
    }

    #[test]
    fn lane_cycles_scale_with_work() {
        let d = DeviceConfig::k20c();
        let w = CoarseWeights::default();
        let small = lane_cycles(&work(100, 10, 5), &w, &d);
        let large = lane_cycles(&work(1000, 100, 50), &w, &d);
        assert_eq!(large, small * 10);
    }

    #[test]
    fn coarse_kernel_has_terrible_load_efficiency() {
        let d = DeviceConfig::k20c();
        let weights = CoarseWeights::default();
        let work: Vec<SeqWork> = (0..64).map(work_gen).collect();
        let assignment: Vec<Vec<usize>> = vec![(0..32).collect(), (32..64).collect()];
        let stats = run_coarse_kernel(&d, "fused", &work, &assignment, &weights, 8);
        let eff = stats.global_load_efficiency();
        assert!(
            eff < 0.12,
            "coarse efficiency must be single-digit-ish: {eff}"
        );
        assert!(eff > 0.0);
    }

    fn work_gen(i: usize) -> SeqWork {
        work(100 + (i as u64 * 37) % 400, 20 + (i as u64 * 13) % 60, 30)
    }

    #[test]
    fn skewed_lanes_create_divergence() {
        let d = DeviceConfig::k20c();
        let weights = CoarseWeights::default();
        // One long sequence among 31 short ones.
        let mut w: Vec<SeqWork> = (0..32).map(|_| work(50, 5, 5)).collect();
        w[7] = work(2000, 500, 500);
        let assignment = vec![(0..32).collect::<Vec<usize>>()];
        let stats = run_coarse_kernel(&d, "skew", &w, &assignment, &weights, 8);
        assert!(
            stats.divergence_overhead() > 0.5,
            "skew must dominate: {}",
            stats.divergence_overhead()
        );

        // Balanced lanes: less divergence — but the serialized hit and
        // extension branches keep the coarse kernel divergent even with a
        // perfect assignment (the Fig. 4 structural cost).
        let w2: Vec<SeqWork> = (0..32).map(|_| work(500, 50, 50)).collect();
        let assignment = vec![(0..32).collect::<Vec<usize>>()];
        let stats2 = run_coarse_kernel(&d, "balanced", &w2, &assignment, &weights, 8);
        assert!(stats2.divergence_overhead() < stats.divergence_overhead());
        assert!(
            stats2.divergence_overhead() > 0.2,
            "structural divergence remains"
        );
    }

    #[test]
    fn timing_total() {
        let t = BaselineTiming {
            h2d_ms: 1.0,
            gpu_ms: 10.0,
            d2h_ms: 0.5,
            cpu_ms: 3.0,
        };
        assert!((t.total_ms() - 14.5).abs() < 1e-12);
    }
}
