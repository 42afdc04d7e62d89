//! The repo benchmark: six workloads, named clocks, and an outside-in
//! layer trace. See `README.md` in this directory for the metric tables,
//! the layer → end-to-end predictions and how to run it.
//!
//! Everything here drives the program through its public API only; the
//! program's own `obs` tracing stays disarmed. Spans are recorded by the
//! benchmark around its calls into each layer.

pub mod batch;
pub mod cli;
pub mod compare;
pub mod metrics;
pub mod procfs;
pub mod replay;
pub mod rng;
pub mod run;
pub mod served;
pub mod spans;
pub mod stats;
pub mod suite;
pub mod workloads;
