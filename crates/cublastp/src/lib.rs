//! # cuBLASTP-rs
//!
//! A from-scratch reproduction of *cuBLASTP: Fine-Grained Parallelization
//! of Protein Sequence Search on a GPU* (Zhang, Wang, Feng), running on
//! the SIMT simulator in the `gpu-sim` crate instead of a physical Kepler
//! GPU (see DESIGN.md for the substitution argument).
//!
//! The pipeline decouples BLASTP's phases into fine-grained GPU kernels
//! plus a CPU tail, bridged by the paper's
//! binning–sorting–filtering reorder — three stages, one launch:
//!
//! ```text
//! hit detection + binning      (Algorithm 2, warp per sequence)
//!   → hit reordering           (one kernel, tile by tile:)
//!       hit assembling           (Fig. 6a)
//!       segmented hit sorting    (Fig. 6b, packed 64-bit keys of Fig. 7)
//!       hit filtering            (Fig. 6c, two-hit window)
//!   → ungapped extension       (Algorithms 3/4/5: diagonal / hit / window)
//!   → [PCIe] → gapped extension + traceback on the CPU (§3.6)
//! ```
//!
//! The end-to-end entry point is [`CuBlastp`]:
//!
//! ```
//! use bio_seq::generate::{generate_preset, make_query, DbPreset};
//! use blast_core::SearchParams;
//! use cublastp::{CuBlastp, CuBlastpConfig};
//! use gpu_sim::DeviceConfig;
//!
//! let query = make_query(127);
//! let db = generate_preset(DbPreset::SwissprotMini, &query).db;
//! let searcher = CuBlastp::new(
//!     query,
//!     SearchParams::default(),
//!     CuBlastpConfig::default(),
//!     DeviceConfig::k20c(),
//!     &db,
//! );
//! let result = searcher.search(&db).expect("search failed");
//! let t = &result.timing;
//! println!("{} alignments, {:.2} ms of kernels and PCIe on the simulated K20c",
//!          result.report.hits.len(), t.gpu_ms + t.h2d_ms + t.d2h_ms);
//! ```
//!
//! Searches return `Result`: device faults that survive the bounded-retry
//! and CPU-degradation policy ([`RecoveryPolicy`]), invalid configurations,
//! and pipeline worker panics surface as typed [`SearchError`]s instead of
//! process aborts. See DESIGN.md §3.3 for the fault model.

// Library code returns typed errors instead of panicking (DESIGN.md §3.3);
// `cargo clippy -- -D warnings` in CI enforces it outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod binning;
pub mod cancel;
pub mod config;
pub mod devicedata;
pub mod error;
mod executor;
pub mod extension;
pub mod gapped_device;
pub mod gapped_gpu;
pub mod gpu_phase;
pub mod grouped;
pub mod grouping;
pub mod hitpack;
#[cfg(test)]
mod lattice;
pub mod pipeline;
pub mod reorder;
pub mod scheduler;
pub mod search;
mod seedpass;
pub mod shard;

pub use cancel::CancelToken;
pub use config::{CuBlastpConfig, ExtensionStrategy, GappedBackend, RecoveryPolicy, ScoringMode};
pub use devicedata::{flatten_count, mapped_block_count, DeviceDb, ResidueStore};
pub use error::{PipelineError, SearchError};
pub use gpu_phase::{ExtensionsCsr, GpuPhaseCounts, GpuPhaseOutput};
pub use grouped::DeviceGroupIndex;
pub use grouping::plan_rounds;
pub use pipeline::{schedule, BlockTiming, PipelineSchedule};
pub use scheduler::{schedule_fleet, DeviceTimeline, FleetSchedule, DEFAULT_STEAL_SEED};
pub use search::{
    search_batch, search_batch_resident, search_batch_with, BatchOptions, BatchOutcome,
    BlockProgress, Clock, CuBlastp, CuBlastpResult, CuBlastpTiming, GroupedReport, PhaseRow,
    RecoveryReport, RoundReport, SearchHooks, SeedMode, DEFAULT_GROUP_BUDGET,
};
pub use shard::{
    search_all_vs_all, search_sharded, search_sharded_batch, AllVsAllResult, DbShard, DbSource,
    ImageOrigin, ShardedBatchOptions, ShardedBatchOutcome, ShardedDb, ShardedOptions, SimEntry,
    SparseSimMatrix, ALL_VS_ALL_TILE_ROWS,
};
