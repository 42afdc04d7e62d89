//! RAII phase spans.
//!
//! A span covers one phase of the pipeline on the thread that runs it:
//! created when the phase starts, closed (and recorded) when it drops.
//! Nesting falls out of drop order — a kernel span created inside a
//! `gpu_phase` span closes first, so the trace is laminar by
//! construction.
//!
//! The cost contract: [`span`] on a **disarmed** process is a single
//! relaxed atomic load returning an inert guard — no clock read, no
//! allocation, no lock. All real work (timestamping, buffering, the
//! `phase_ms` histogram) happens only when armed, and the armed state is
//! latched at creation so a span that outlives a `disarm()` still closes
//! cleanly.

use crate::{metrics, trace, METRICS, TRACE};

/// Live state of an armed span (boxed so the inert guard stays one word).
struct ActiveSpan {
    name: &'static str,
    cat: &'static str,
    start_us: f64,
    /// Armed bits latched at creation.
    state: u8,
    block: Option<u32>,
    query: Option<u32>,
    args: Vec<(&'static str, f64)>,
}

/// A phase span guard: records itself when dropped. Obtain via [`span`].
pub struct PhaseSpan(Option<Box<ActiveSpan>>);

/// Open a span named `name` in category `cat`. Disarmed cost: one relaxed
/// atomic load.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> PhaseSpan {
    let state = crate::state();
    if state == 0 {
        return PhaseSpan(None);
    }
    PhaseSpan(Some(Box::new(ActiveSpan {
        name,
        cat,
        start_us: trace::now_us(),
        state,
        block: None,
        query: None,
        args: Vec::new(),
    })))
}

impl PhaseSpan {
    /// An inert span (used where a span is conditionally created).
    pub fn inert() -> Self {
        PhaseSpan(None)
    }

    /// Label the span with the database block it works on.
    pub fn with_block(mut self, block: u32) -> Self {
        if let Some(s) = self.0.as_mut() {
            s.block = Some(block);
        }
        self
    }

    /// Label the span with the query (stream index) it works on.
    pub fn with_query(mut self, query: u32) -> Self {
        if let Some(s) = self.0.as_mut() {
            s.query = Some(query);
        }
        self
    }

    /// Attach a numeric argument, chainable at creation.
    pub fn with_arg(mut self, key: &'static str, value: f64) -> Self {
        self.set_arg(key, value);
        self
    }

    /// Attach a numeric argument after creation (for values only known
    /// once the phase ran, e.g. simulated kernel time).
    pub fn set_arg(&mut self, key: &'static str, value: f64) {
        if let Some(s) = self.0.as_mut() {
            s.args.push((key, value));
        }
    }

    /// True when this span is actually recording.
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        let Some(s) = self.0.take() else { return };
        let end_us = trace::now_us();
        let dur_us = (end_us - s.start_us).max(0.0);
        if s.state & METRICS != 0 {
            metrics::metrics().observe("phase_ms", &[("phase", s.name)], dur_us / 1e3);
        }
        if s.state & TRACE != 0 {
            trace::record(s.name, s.cat, s.start_us, dur_us, s.block, s.query, s.args);
        }
    }
}

/// Record a modelled span on the virtual track `track`: the event starts
/// at the track's cursor and advances it by `dur_ms` of simulated time,
/// with `args` as its arguments. Disarmed (or metrics-only) processes
/// skip it after one relaxed load.
#[inline]
pub fn modelled(
    track: &'static str,
    name: &'static str,
    dur_ms: f64,
    block: Option<u32>,
    query: Option<u32>,
    args: &[(&'static str, f64)],
) {
    if crate::state() & TRACE == 0 {
        return;
    }
    trace::record_modelled(track, name, dur_ms, block, query, args);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_span_is_inert_and_free_of_side_effects() {
        let _g = crate::test_lock();
        crate::disarm();
        let mut s = span("quiet", "test");
        assert!(!s.is_armed());
        s.set_arg("x", 1.0);
        let s = s.with_block(1).with_query(2).with_arg("y", 2.0);
        assert!(!s.is_armed());
        drop(s);
    }

    #[test]
    fn armed_span_lands_in_trace_with_labels() {
        let _g = crate::test_lock();
        crate::trace::take_trace();
        crate::arm(true, false);
        {
            let _s = span("labelled_phase", "test")
                .with_block(7)
                .with_query(3)
                .with_arg("sim_ms", 1.25);
        }
        crate::disarm();
        let t = crate::trace::take_trace();
        let e = t
            .events
            .iter()
            .find(|e| e.name == "labelled_phase")
            .expect("span recorded");
        assert_eq!(e.block, Some(7));
        assert_eq!(e.query, Some(3));
        assert_eq!(e.args, vec![("sim_ms", 1.25)]);
        assert!(e.dur_us >= 0.0);
    }

    #[test]
    fn metrics_armed_span_feeds_phase_histogram() {
        let _g = crate::test_lock();
        crate::metrics::metrics().reset();
        crate::arm(false, true);
        {
            let _s = span("hist_phase", "test");
        }
        crate::disarm();
        let reg = crate::metrics::metrics();
        assert_eq!(
            reg.histogram_count("phase_ms", &[("phase", "hist_phase")]),
            1
        );
        crate::metrics::metrics().reset();
    }

    #[test]
    fn span_outliving_disarm_still_closes() {
        let _g = crate::test_lock();
        crate::trace::take_trace();
        crate::arm(true, false);
        let s = span("straddler", "test");
        crate::disarm();
        drop(s); // armed state was latched at creation
        assert!(crate::trace::take_trace().names().contains(&"straddler"));
    }
}
