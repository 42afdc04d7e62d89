//! Figure-reproduction harness.
//!
//! One binary per figure of the paper's evaluation (§4) lives in
//! `src/bin/`; this library holds what they share: the canonical
//! workloads (the three queries and two database presets of §4), runner
//! helpers that execute each pipeline and collect the numbers, and a
//! plain-text table printer so every binary emits the same row/series
//! format EXPERIMENTS.md records.
//!
//! Scale: the env var `BENCH_SCALE` (default `1.0`) multiplies the preset
//! database sizes, so `BENCH_SCALE=0.1 cargo run -p bench --bin fig18`
//! gives a quick smoke run and the default reproduces the EXPERIMENTS.md
//! numbers exactly.

pub mod gate;
pub mod obsenv;
pub mod report;
pub mod runners;
pub mod table;
pub mod workloads;

pub use runners::{run_cublastp, run_cuda_blastp, run_fsa_blast, run_gpu_blastp, run_ncbi_blast};
pub use table::print_table;
pub use workloads::{bench_scale, database, parse_bench_scale, query, QUERY_LENGTHS};
