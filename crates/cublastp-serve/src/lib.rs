//! # cublastp-serve
//!
//! Overload-safe search-as-a-service over the cuBLASTP pipeline
//! (DESIGN.md §3.8). The library turns the single-shot
//! [`CuBlastp`](cublastp::CuBlastp) searcher into a bounded, deadline-aware
//! service with four load-safety mechanisms:
//!
//! * **Bounded admission** ([`admission`]): per-class queue caps plus a
//!   token budget in estimated DP cells. A refused request gets a typed
//!   [`SearchError::Overloaded`](cublastp::SearchError::Overloaded) with a
//!   `retry_after_ms` hint derived from the measured drain rate — clients
//!   back off instead of piling on.
//! * **Deadlines** ([`server`]): each request carries a
//!   [`CancelToken`](cublastp::CancelToken) whose clock starts at
//!   admission; the search polls it at every database-block boundary and
//!   returns
//!   [`SearchError::DeadlineExceeded`](cublastp::SearchError::DeadlineExceeded)
//!   with partial-phase telemetry rather than completing for a client
//!   that gave up.
//! * **Priority load-shedding** ([`controller`]): two classes
//!   (interactive / bulk) drained by weighted round-robin with a reserved
//!   interactive lane, plus per-tenant token-bucket rate limits. A
//!   stateless load controller maps queue and cost pressure to a
//!   degradation ladder: shed bulk → shrink admission budgets → coarse
//!   (CPU) gapped placement.
//! * **Result streaming**: one [`Event::Block`] per database block as its
//!   CPU tail completes, then exactly one [`Event::Done`] — every
//!   admitted request terminates with a typed result, never silently.
//!
//! ```
//! use bio_seq::generate::{generate_preset, make_query, DbPreset};
//! use blast_core::SearchParams;
//! use cublastp::CuBlastpConfig;
//! use cublastp_serve::{Request, ServeConfig, Server};
//! use gpu_sim::DeviceConfig;
//!
//! let query = make_query(127);
//! let db = generate_preset(DbPreset::SwissprotMini, &query).db;
//! let server = Server::new(
//!     db,
//!     SearchParams::default(),
//!     CuBlastpConfig::default(),
//!     DeviceConfig::k20c(),
//!     ServeConfig::default(),
//! )
//! .expect("valid config");
//! let handle = server.submit(Request::interactive(query, "tenant-a"))
//!     .expect("admitted");
//! let out = handle.wait().expect("search served");
//! println!("{} alignments after {:.2} ms queued + {:.2} ms service",
//!          out.result.report.hits.len(), out.queue_wait_ms, out.service_ms);
//! ```

// Library code returns typed errors instead of panicking (DESIGN.md §3.3);
// `cargo clippy -- -D warnings` in CI enforces it outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod controller;
pub mod server;

pub use admission::{estimate_cost, AdmissionConfig, RateLimitConfig};
pub use controller::{DegradationLevel, LoadController};
pub use server::{
    DbGeneration, DbSource, Event, Priority, Request, ResponseHandle, ServeConfig, ServeResult,
    Server,
};
