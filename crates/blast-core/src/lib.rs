//! Shared BLASTP machinery used by every search pipeline in the workspace
//! (the CPU reference, the fine-grained cuBLASTP kernels, and the
//! coarse-grained GPU baselines).
//!
//! * [`matrix`] — substitution matrices (built-in BLOSUM62 plus an NCBI
//!   format parser), Fig. 2(c) of the paper.
//! * [`pssm`] — the position-specific scoring matrix built from the query,
//!   Fig. 2(b).
//! * [`words`] — W-mer extraction and the scored word neighbourhood that
//!   seeds hit detection.
//! * [`dfa`] — the Cameron–Williams deterministic finite automaton used for
//!   hit detection, Fig. 2(a).
//! * [`stats`] — Karlin–Altschul statistics: λ/H solver, e-values, bit
//!   scores, and the edge-effect length correction.
//! * [`params`] — the shared search parameter set (word length, two-hit
//!   window, x-drop values, gap penalties, cutoffs).

// Library code returns typed errors instead of panicking (DESIGN.md §3.3);
// `cargo clippy -- -D warnings` in CI enforces it outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dfa;
pub mod matrix;
pub mod montecarlo;
pub mod params;
pub mod pssm;
pub mod qindex;
pub mod seg;
pub mod stats;
pub mod words;

pub use dfa::Dfa;
pub use matrix::Matrix;
pub use params::SearchParams;
pub use pssm::Pssm;
pub use qindex::{Posting, QueryIndex};
pub use stats::KarlinAltschul;
pub use words::{word_code, WordNeighborhood, NUM_WORDS, WORD_LEN};
