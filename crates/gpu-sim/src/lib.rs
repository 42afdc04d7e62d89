//! A software SIMT GPU simulator — the workspace's substitute for the
//! NVIDIA Kepler K20c the paper evaluates on.
//!
//! Kernels are ordinary Rust closures written in a *lockstep warp style*:
//! work proceeds in warp-wide steps, and every step reports what the warp
//! did to a [`block::SimBlock`] tracer — how many of the 32 lanes were
//! active, which global addresses were touched, which shared-memory or
//! atomic operations ran. From that event stream the simulator derives
//! exactly the quantities the paper's evaluation is built on:
//!
//! * **branch-divergence overhead** (Fig. 16b, 19b) — idle lane-cycles of
//!   partially-active warp instructions over total lane-cycles;
//! * **global-load efficiency** (Fig. 19a) — useful bytes over 128-byte
//!   transaction traffic, from per-lane addresses;
//! * **occupancy** (Fig. 19c) — analytic warps-resident-per-SM limited by
//!   shared-memory usage and block geometry;
//! * **kernel time** (Fig. 14–18) — an analytic throughput model: total
//!   warp-cycles divided over SMs × schedulers, de-rated by occupancy,
//!   plus launch overhead, converted to milliseconds at the K20c clock.
//!
//! Functional results are computed by the same closures with real data, so
//! the simulated pipelines produce *bit-identical BLAST output* to the CPU
//! reference while their performance behaviour (who wins, by how much,
//! where the crossovers fall) emerges from the modelled mechanisms rather
//! than calibration. See DESIGN.md §2 for the substitution argument.
//!
//! The module map mirrors a real CUDA stack: [`device`] (the chip),
//! [`memory`] (buffers with synthetic addresses), [`cache`] (the Kepler
//! 48 kB read-only cache), [`block`]/[`mod@launch`] (execution), [`scan`] and
//! [`sort`] (the CUB / ModernGPU library substitutes §3.3–3.4 rely on).

// Library code returns typed errors instead of panicking (DESIGN.md §3.3);
// `cargo clippy -- -D warnings` in CI enforces it outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod block;
pub mod cache;
pub mod device;
pub mod error;
pub mod fault;
pub mod launch;
pub mod memory;
pub mod scan;
pub mod sort;
pub mod stats;
pub mod workspace;

pub use block::SimBlock;
pub use device::{DeviceConfig, WARP_SIZE};
pub use error::{DeviceError, TransferDir};
pub use fault::{FaultCtx, FaultInjector, FaultKind, FaultPlan, FaultSite, FaultSpec};
pub use launch::{launch, launch_map, LaunchConfig};
pub use memory::GlobalBuffer;
pub use stats::KernelStats;
pub use workspace::{BufferPool, KernelWorkspace};
