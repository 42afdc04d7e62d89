//! Protein-sequence substrate for the cuBLASTP reproduction.
//!
//! This crate provides everything below the alignment algorithms:
//!
//! * [`alphabet`] — the 24-letter protein alphabet used by BLASTP scoring
//!   matrices (20 standard amino acids plus the ambiguity codes `B`, `Z`,
//!   `X` and the stop symbol `*`), with residue/letter conversions.
//! * [`sequence`] — owned encoded sequences with identifiers.
//! * [`fasta`] — minimal FASTA reading and writing.
//! * [`generate`] — synthetic database generation: residues are sampled
//!   from the Robinson–Robinson background frequencies and homologous
//!   regions (mutated copies of query segments) can be planted so the hit
//!   and extension statistics resemble real NCBI databases. This is the
//!   substitution for the paper's `swissprot` / `env_nr` inputs.
//! * [`db`] — an in-memory sequence database with the block partitioning
//!   used by the CPU–GPU overlap pipeline.

// Library code returns typed errors instead of panicking (DESIGN.md §3.3);
// `cargo clippy -- -D warnings` in CI enforces it outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod alphabet;
pub mod db;
pub mod fasta;
pub mod generate;
pub mod sequence;

pub use alphabet::{Residue, ALPHABET, ALPHABET_SIZE};
pub use db::{DbBlock, SequenceDb};
pub use fasta::{parse_fasta_strict, read_fasta_strict, FastaError, FastaErrorKind};
pub use generate::{DbPreset, DbSpec, SyntheticDb};
pub use sequence::Sequence;
