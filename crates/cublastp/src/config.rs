//! Runtime configuration of the fine-grained pipeline.
//!
//! The paper exposes three run-time choices and evaluates each:
//! the number of bins per warp (Fig. 14), the ungapped-extension strategy
//! (Fig. 16), and the scoring-matrix placement (Fig. 15); plus the
//! read-only-cache toggle of Fig. 17. All of them live here.

use crate::error::SearchError;
use serde::{Deserialize, Serialize};

/// Which fine-grained ungapped-extension kernel to run (§3.4, Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExtensionStrategy {
    /// Algorithm 3: one thread per diagonal; divergent but no redundancy.
    Diagonal,
    /// Algorithm 4: one thread per hit; redundant computation (needs
    /// de-duplication) traded for less divergence.
    Hit,
    /// Algorithm 5: a window of threads per diagonal; the paper's best.
    Window,
}

impl ExtensionStrategy {
    /// Stats / span name of the strategy's ungapped-extension kernel.
    pub fn kernel_name(self) -> &'static str {
        match self {
            ExtensionStrategy::Diagonal => "ungapped_extension_diagonal",
            ExtensionStrategy::Hit => "ungapped_extension_hit",
            ExtensionStrategy::Window => "ungapped_extension_window",
        }
    }
}

/// Scoring-table placement for the extension kernels (§3.5, Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScoringMode {
    /// Query-specific PSS matrix, 64 bytes a query column: in shared
    /// memory while its kernel still fits with it, in global memory beyond
    /// (on a 48 kB SM: past 752 residues in either extension launch, and
    /// beside `hit_tail`'s tile only up to 496 —
    /// `extension::hit_tail_footprint`, `extension::extension_footprint`).
    Pssm,
    /// Fixed 2 kB BLOSUM62 matrix, always in shared memory.
    Blosum62,
    /// The paper's tuned choice: PSSM for short queries, BLOSUM62 for
    /// long ones (§4.1 picks PSSM for query127, BLOSUM62 for query517 and
    /// query1054).
    Auto,
}

/// Where the gapped extension + traceback phase runs (DESIGN.md §3.7).
///
/// The paper's pipeline leaves gapped extension on the CPU (§3.6); the
/// device backend moves it into the GPU timeline as a
/// warp-cooperative banded-DP kernel with constant-memory interval
/// traceback. Output is bit-identical either way — the backend only moves
/// where the same arithmetic happens and what the cost model charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GappedBackend {
    /// Gapped extension + traceback on the host CPU (paper §3.6).
    #[default]
    Cpu,
    /// Fine-grained device kernel: one warp per gapped seed, anti-diagonal
    /// wavefronts within the band, interval-checkpoint traceback. The host
    /// reads nothing between a shard view's blocks, so the view is billed
    /// as one device pass: one launch per kernel, one D2H leg
    /// (`executor::view_passes`, DESIGN.md §3.7).
    Gpu,
}

impl GappedBackend {
    /// Stable lowercase name, matching the CLI flag values.
    pub fn name(self) -> &'static str {
        match self {
            GappedBackend::Cpu => "cpu",
            GappedBackend::Gpu => "gpu",
        }
    }
}

/// Query length at which [`ScoringMode::Auto`] switches from PSSM to
/// BLOSUM62: a calibration point between the paper's Fig. 15
/// measurements, where the PSSM wins on a 127-residue query and loses on a
/// 517-residue one. It is not a footprint. Under the occupancy model the
/// standalone extension kernel is de-rated from 177 residues, and
/// `hit_tail`, which the search runs, drops to occupancy 0.5 at 113 and
/// never de-rates a resident PSSM, so no fit rule lands on 320.
pub const AUTO_SCORING_CROSSOVER: usize = 320;

/// How the pipeline reacts to device faults (see DESIGN.md §3.3).
///
/// Transient faults (kernel-launch failures, transfer errors/timeouts)
/// are retried up to [`max_attempts`](Self::max_attempts) times with a
/// fixed linear backoff and a [`gpu_sim::KernelWorkspace`] reset between
/// attempts. Permanent faults (allocation OOM, pool exhaustion) — or
/// transient ones that exhaust the budget — degrade to the `blast-cpu`
/// reference path for that database block when
/// [`cpu_fallback`](Self::cpu_fallback) is on, producing bit-identical
/// results; otherwise the search fails with a `SearchError::Device`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Total launch attempts per block (1 = no retry). Must be ≥ 1.
    pub max_attempts: u32,
    /// Re-run permanently failed blocks on the CPU reference path.
    pub cpu_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            cpu_fallback: true,
        }
    }
}

/// Full cuBLASTP configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CuBlastpConfig {
    /// Bins per warp for diagonal binning (Fig. 14; paper default 128).
    pub num_bins: usize,
    /// Ungapped-extension strategy (paper default: window-based).
    pub extension: ExtensionStrategy,
    /// Scoring-table placement.
    pub scoring: ScoringMode,
    /// Route DFA query positions through the read-only cache (Fig. 17).
    pub use_readonly_cache: bool,
    /// Warps per thread block for the fine-grained kernels.
    pub warps_per_block: u32,
    /// Thread blocks per grid.
    pub grid_blocks: u32,
    /// Database sequences per pipeline block (Fig. 12 granularity).
    pub db_block_size: usize,
    /// Threads a search runs on: `min(cpu_threads, available_parallelism())`
    /// executed threads — the caller and helpers that live as long as the
    /// search (`blast_cpu::par`). They run the §3.6 tail (Fig. 13):
    /// gapped extension and traceback of a block's subjects, and the
    /// block's CPU lane in the Fig. 12 schedule is their measured
    /// wall-clock, first subject's start to last subject's end. Under
    /// [`GappedBackend::Gpu`] the block's tail is the device pass's
    /// functional DP and its reports, claimed a subject at a time; under
    /// `overlap` they also run several blocks' hit phases at once (beside
    /// the tails of the blocks before them, on either backend, a grouped
    /// member's seeded ones too), and in a grouped batch a round's
    /// seeding passes, one block each. Reports
    /// and modelled device times are bit-identical at every value;
    /// `CuBlastpResult::tail_threads_ran` says how many threads ran a
    /// block's tail. A block whose gapped phase is cheaper than waking a
    /// helper runs it on one thread (`search::HELPER_MIN_SEED_SCORE`), and
    /// the server pins this to 1: its workers are its parallelism. At 1 an
    /// overlapped search still starts one helper, which runs a light tail
    /// beside the next block's hit phase: two threads, not one.
    pub cpu_threads: usize,
    /// Overlap CPU phases and transfers with GPU kernels (Fig. 12): the
    /// search's threads run a *wave* of blocks' hit phases — the first on
    /// the caller — beside the tails of the blocks before them. The first
    /// wave is one block; after it a wave is as wide as the executed
    /// threads after a light block, and one block after a heavy one, on
    /// one thread (where one helper runs the tails) or with a fault
    /// injector armed, however the query is seeded. Without overlap no
    /// block launches while a tail is pending: each block's tail runs
    /// alone, right after its GPU side.
    pub overlap: bool,
    /// Where the gapped phase runs (CPU tail vs device kernel, §3.7).
    #[serde(default)]
    pub gapped_backend: GappedBackend,
    /// Device-fault recovery policy (retry budget, backoff, degradation).
    pub recovery: RecoveryPolicy,
}

impl Default for CuBlastpConfig {
    fn default() -> Self {
        Self {
            num_bins: 128,
            extension: ExtensionStrategy::Window,
            scoring: ScoringMode::Auto,
            use_readonly_cache: true,
            warps_per_block: 8,
            grid_blocks: 26, // 2 blocks per K20c SM
            db_block_size: 1024,
            cpu_threads: 4,
            overlap: true,
            gapped_backend: GappedBackend::default(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl CuBlastpConfig {
    /// Resolve [`ScoringMode::Auto`] for a concrete query length.
    pub fn resolved_scoring(&self, query_len: usize) -> ScoringMode {
        match self.scoring {
            ScoringMode::Auto => {
                if query_len <= AUTO_SCORING_CROSSOVER {
                    ScoringMode::Pssm
                } else {
                    ScoringMode::Blosum62
                }
            }
            other => other,
        }
    }

    /// Bytes of the scoring table (§3.5): 64 per query column for the
    /// PSSM, 2 kB for BLOSUM62. Whether a kernel keeps it in shared memory
    /// is that kernel's footprint's call.
    pub fn scoring_table_bytes(&self, query_len: usize) -> u32 {
        match self.resolved_scoring(query_len) {
            ScoringMode::Pssm => (query_len * 64) as u32,
            ScoringMode::Blosum62 => 2 * 1024,
            ScoringMode::Auto => unreachable!("resolved above"),
        }
    }

    /// Reject configurations the pipeline cannot run. Checked once at the
    /// top of every search, so downstream layers can rely on nonzero
    /// geometry instead of panicking on division by zero.
    pub fn validate(&self) -> Result<(), SearchError> {
        if self.num_bins == 0 {
            return Err(SearchError::config("num_bins must be > 0"));
        }
        if self.warps_per_block == 0 || self.grid_blocks == 0 {
            return Err(SearchError::config(
                "kernel geometry (warps_per_block, grid_blocks) must be > 0",
            ));
        }
        if self.db_block_size == 0 {
            return Err(SearchError::config("db_block_size must be > 0"));
        }
        if self.cpu_threads == 0 {
            return Err(SearchError::config("cpu_threads must be > 0"));
        }
        if self.recovery.max_attempts == 0 {
            return Err(SearchError::config(
                "recovery.max_attempts must be >= 1 (1 = no retry)",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CuBlastpConfig::default();
        assert_eq!(c.num_bins, 128);
        assert_eq!(c.extension, ExtensionStrategy::Window);
        assert!(c.use_readonly_cache);
        assert_eq!(c.cpu_threads, 4);
        assert_eq!(c.gapped_backend, GappedBackend::Cpu, "paper tail is CPU");
    }

    #[test]
    fn gapped_backend_names_are_cli_values() {
        assert_eq!(GappedBackend::Cpu.name(), "cpu");
        assert_eq!(GappedBackend::Gpu.name(), "gpu");
        assert_eq!(GappedBackend::default(), GappedBackend::Cpu);
    }

    #[test]
    fn auto_scoring_matches_paper_choices() {
        let c = CuBlastpConfig::default();
        assert_eq!(c.resolved_scoring(127), ScoringMode::Pssm);
        assert_eq!(c.resolved_scoring(517), ScoringMode::Blosum62);
        assert_eq!(c.resolved_scoring(1054), ScoringMode::Blosum62);
    }

    #[test]
    fn pssm_footprint_matches_section_3_5() {
        let c = CuBlastpConfig {
            scoring: ScoringMode::Pssm,
            ..Default::default()
        };
        assert_eq!(c.scoring_table_bytes(127), 127 * 64);
        assert_eq!(c.scoring_table_bytes(768), 48 * 1024);
        assert_eq!(c.scoring_table_bytes(2300), 2300 * 64);
    }

    #[test]
    fn auto_crossover_boundary() {
        let c = CuBlastpConfig::default();
        assert_eq!(
            c.resolved_scoring(AUTO_SCORING_CROSSOVER),
            ScoringMode::Pssm
        );
        assert_eq!(
            c.resolved_scoring(AUTO_SCORING_CROSSOVER + 1),
            ScoringMode::Blosum62
        );
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_zero_geometry() {
        assert!(CuBlastpConfig::default().validate().is_ok());
        for bad in [
            CuBlastpConfig {
                num_bins: 0,
                ..Default::default()
            },
            CuBlastpConfig {
                grid_blocks: 0,
                ..Default::default()
            },
            CuBlastpConfig {
                db_block_size: 0,
                ..Default::default()
            },
            CuBlastpConfig {
                cpu_threads: 0,
                ..Default::default()
            },
            CuBlastpConfig {
                recovery: RecoveryPolicy {
                    max_attempts: 0,
                    ..Default::default()
                },
                ..Default::default()
            },
        ] {
            let err = bad.validate().expect_err("must reject");
            assert_eq!(err.category(), "config");
        }
    }

    #[test]
    fn blosum_is_always_2kb() {
        let c = CuBlastpConfig {
            scoring: ScoringMode::Blosum62,
            ..Default::default()
        };
        assert_eq!(c.scoring_table_bytes(127), 2048);
        assert_eq!(c.scoring_table_bytes(10_000), 2048);
    }
}
