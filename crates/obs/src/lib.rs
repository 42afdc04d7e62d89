//! Pipeline observability: phase-level spans, a Chrome `trace_event`
//! exporter, and a process-wide metrics registry.
//!
//! The subsystem is **opt-in-cheap**: everything is disarmed by default,
//! and a disarmed [`span()`] costs exactly one relaxed atomic load (the
//! same discipline as the fault injector's disarmed checks). Arming is a
//! process-wide switch ([`arm`]) with independent bits for tracing and
//! metrics, so a CLI run can collect a trace without paying for metric
//! aggregation and vice versa.
//!
//! The three layers:
//!
//! * [`span()`] / [`PhaseSpan`] — RAII spans with monotonic timing,
//!   natural nesting (drop order), and per-block / per-query labels.
//!   Closed spans land in the trace buffer and (optionally) the
//!   `phase_ms` histogram.
//! * [`mod@trace`] — the span buffer plus modelled-time tracks (simulated
//!   GPU kernels and PCIe legs have no host wall-clock of their own; they
//!   get virtual tracks with a modelled cursor). Exports Chrome
//!   `trace_event` JSON loadable in Perfetto or `about:tracing`, with a
//!   structural validator used by the golden-trace test.
//! * [`mod@metrics`] — labelled counters, gauges and histograms behind
//!   one registry, exportable as JSON or Prometheus text exposition
//!   format.
//!
//! [`json`] is a dependency-free JSON reader used by the perf-regression
//! gate and the trace-schema tests (this workspace builds offline; there
//! is no serde_json to lean on).

// Library code returns typed errors instead of panicking (DESIGN.md §3.3);
// `cargo clippy -- -D warnings` in CI enforces it outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod json;
pub mod metrics;
pub mod span;
pub mod trace;

pub use metrics::{counter, gauge, metrics, observe, Registry};
pub use span::{modelled, span, PhaseSpan};
pub use trace::{take_trace, ChromeTrace, TraceEvent};

use std::sync::atomic::{AtomicU8, Ordering};

/// Armed-state bit: record spans into the trace buffer.
pub const TRACE: u8 = 1 << 0;
/// Armed-state bit: aggregate metrics into the global registry.
pub const METRICS: u8 = 1 << 1;

/// The process-wide armed state. Zero (disarmed) is the default; the hot
/// path reads it with a single relaxed load.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Arm the subsystem. Either capability can be armed independently;
/// arming is idempotent and takes effect for spans created afterwards.
pub fn arm(tracing: bool, metrics: bool) {
    let mut state = 0u8;
    if tracing {
        state |= TRACE;
    }
    if metrics {
        state |= METRICS;
    }
    STATE.store(state, Ordering::Relaxed);
}

/// Disarm everything: subsequently created spans are inert and the metric
/// helpers become no-ops. Already-collected data stays buffered.
pub fn disarm() {
    STATE.store(0, Ordering::Relaxed);
}

/// The raw armed-state byte — the one relaxed load on the disarmed path.
#[inline(always)]
pub fn state() -> u8 {
    STATE.load(Ordering::Relaxed)
}

/// True when spans are being recorded into the trace buffer.
#[inline(always)]
pub fn tracing_enabled() -> bool {
    state() & TRACE != 0
}

/// True when the metric helpers aggregate into the global registry.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    state() & METRICS != 0
}

/// Serializes unit tests that flip the process-wide armed state (the test
/// harness runs `#[test]` functions of one binary concurrently).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_bits_are_independent() {
        let _g = test_lock();
        disarm();
        assert_eq!(state(), 0);
        assert!(!tracing_enabled() && !metrics_enabled());
        arm(true, false);
        assert!(tracing_enabled() && !metrics_enabled());
        arm(false, true);
        assert!(!tracing_enabled() && metrics_enabled());
        arm(true, true);
        assert_eq!(state(), TRACE | METRICS);
        disarm();
        assert_eq!(state(), 0);
    }
}
