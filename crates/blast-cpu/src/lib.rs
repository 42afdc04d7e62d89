//! CPU BLASTP reference pipeline.
//!
//! This crate is the workspace's stand-in for the two CPU baselines of the
//! paper's evaluation, implemented from scratch:
//!
//! * **FSA-BLAST** — the single-threaded, heavily CPU-tuned BLASTP the
//!   paper uses both as its correctness oracle ("the output of cuBLASTP is
//!   identical to the output of FSA-BLAST", §4.3) and as the sequential
//!   baseline of Fig. 18(a–b). See [`search::search_sequential`].
//! * **NCBI-BLAST with four threads** — the multithreaded CPU baseline of
//!   Fig. 18(c–d): the same search with whole subjects claimed by executed
//!   threads and merged in subject order, its times measured. See
//!   [`search::search_parallel`].
//!
//! [`par`] is the ordered parallel map both it and `cublastp`'s multicore
//! CPU tail (§3.6, Fig. 13) run on.
//!
//! It also hosts the *shared alignment semantics* — ungapped x-drop
//! extension, the two-hit trigger rule, gapped x-drop DP and traceback —
//! that `cublastp` and the coarse-grained GPU baselines reuse, so that the
//! output-identity property the paper claims is testable across pipelines
//! that order work completely differently.

// Library code returns typed errors instead of panicking (DESIGN.md §3.3);
// `cargo clippy -- -D warnings` in CI enforces it outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod band;
pub mod gapped;
pub mod hit;
pub mod itrace;
pub mod par;
pub mod report;
pub mod search;
pub mod simd;
#[cfg(test)]
pub(crate) mod testutil;
pub mod traceback;
pub mod ungapped;

pub use hit::{DiagonalState, Hit};
pub use itrace::{default_interval, traceback_interval, ItraceReport, ItraceScratch};
pub use report::{Alignment, PhaseTimes, SearchReport};
pub use search::{search_parallel, search_sequential, SearchEngine};
pub use simd::{DispatchReport, IsaLevel};
pub use ungapped::UngappedExt;
