//! Observability plumbing for the bench binaries.
//!
//! The binaries take no flags (they are figure reproductions), so trace
//! and metrics exports are requested through the environment, mirroring
//! `BENCH_SCALE`:
//!
//! * `TRACE_OUT=<path>` — arm tracing, write a Chrome `trace_event` JSON
//!   at exit (load in Perfetto).
//! * `METRICS_OUT=<path>` — arm metrics; a `.json` extension selects the
//!   JSON exporter, anything else Prometheus text format.

/// Arm the global observability state from `TRACE_OUT` / `METRICS_OUT`.
/// Call once at the top of `main`, before any instrumented work.
pub fn arm_from_env() {
    obs::arm(
        std::env::var_os("TRACE_OUT").is_some(),
        std::env::var_os("METRICS_OUT").is_some(),
    );
}

/// Write whichever exports the environment requested
/// ([`crate::report::Report::finish`] does, once, at the end of `main`);
/// I/O failures are reported to stderr but do not change the benchmark's
/// exit status.
pub fn write_exports() {
    if let Ok(path) = std::env::var("TRACE_OUT") {
        let trace = obs::take_trace();
        match std::fs::write(&path, trace.to_json()) {
            Ok(()) => eprintln!("trace: {} events -> {path}", trace.events.len()),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    if let Ok(path) = std::env::var("METRICS_OUT") {
        let body = if path.ends_with(".json") {
            obs::metrics().to_json()
        } else {
            obs::metrics().to_prometheus()
        };
        match std::fs::write(&path, body) {
            Ok(()) => eprintln!("metrics -> {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// Median of a sample (mean of the middle pair for even sizes). Returns
/// 0.0 for an empty sample. The perf-gate baselines are medians of
/// deterministic simulated times, so they are exactly reproducible.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut []), 0.0);
        assert_eq!(median(&mut [3.0]), 3.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
