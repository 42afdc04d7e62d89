//! The trace buffer and Chrome `trace_event` exporter.
//!
//! Closed [`crate::PhaseSpan`]s land here as complete (`"ph": "X"`)
//! events on their host thread's track. Simulated work — GPU kernels,
//! PCIe legs, the modelled CPU tail — has no host wall-clock of its own,
//! so it is drawn on *virtual tracks*: one lane per modelled resource,
//! each with a cursor that advances by the modelled duration, giving a
//! Fig. 12-style timeline of where simulated time goes.
//!
//! [`ChromeTrace::to_json`] emits the JSON object form of the Trace Event
//! Format (`traceEvents` + thread-name metadata), which Perfetto and
//! `about:tracing` load directly. [`ChromeTrace::validate`] checks the
//! structural invariants the golden-trace test pins: no negative
//! durations and properly nested (laminar) spans per track.

use crate::json;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;

/// First tid handed to virtual (modelled) tracks; host threads count up
/// from 1. The gap keeps the two families visually separated in Perfetto.
const VIRTUAL_TID_BASE: u32 = 1000;

/// One complete span, ready for export.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span name (phase or kernel name).
    pub name: &'static str,
    /// Category: `host`, `gpu`, `kernel`, `cpu`, `pcie`, `pipeline`,
    /// `recovery`, `batch`, `modelled`.
    pub cat: &'static str,
    /// Start, microseconds since the process trace epoch.
    pub ts_us: f64,
    /// Duration in microseconds (never negative).
    pub dur_us: f64,
    /// Track id: a host thread or a virtual modelled track.
    pub tid: u32,
    /// Database block the span worked on, when block-scoped.
    pub block: Option<u32>,
    /// Query (stream index) the span worked on, when query-scoped.
    pub query: Option<u32>,
    /// Extra numeric arguments (e.g. `sim_ms`, `bytes`).
    pub args: Vec<(&'static str, f64)>,
}

/// A drained trace: events plus the track-name table.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    /// Complete events in completion order.
    pub events: Vec<TraceEvent>,
    /// `(tid, name)` for every track that appeared.
    pub threads: Vec<(u32, String)>,
}

struct Buffer {
    events: Vec<TraceEvent>,
    /// Host threads seen so far: identity, assigned tid, thread name.
    threads: Vec<(ThreadId, u32, String)>,
    /// Virtual tracks: name, assigned tid, modelled cursor (µs).
    tracks: Vec<(&'static str, u32, f64)>,
    next_host_tid: u32,
    next_virtual_tid: u32,
}

impl Buffer {
    fn new() -> Self {
        Self {
            events: Vec::new(),
            threads: Vec::new(),
            tracks: Vec::new(),
            next_host_tid: 1,
            next_virtual_tid: VIRTUAL_TID_BASE,
        }
    }

    fn host_tid(&mut self) -> u32 {
        let id = std::thread::current().id();
        if let Some((_, tid, _)) = self.threads.iter().find(|(t, _, _)| *t == id) {
            return *tid;
        }
        let tid = self.next_host_tid;
        self.next_host_tid += 1;
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{tid}"));
        self.threads.push((id, tid, name));
        tid
    }

    fn track(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.tracks.iter().position(|(n, _, _)| *n == name) {
            return i;
        }
        let tid = self.next_virtual_tid;
        self.next_virtual_tid += 1;
        self.tracks.push((name, tid, 0.0));
        self.tracks.len() - 1
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn buffer() -> MutexGuard<'static, Buffer> {
    static BUF: OnceLock<Mutex<Buffer>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(Buffer::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Microseconds since the process trace epoch (monotonic).
pub(crate) fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

/// Record a completed host-thread span (called from span drop).
pub(crate) fn record(
    name: &'static str,
    cat: &'static str,
    ts_us: f64,
    dur_us: f64,
    block: Option<u32>,
    query: Option<u32>,
    args: Vec<(&'static str, f64)>,
) {
    let mut buf = buffer();
    let tid = buf.host_tid();
    buf.events.push(TraceEvent {
        name,
        cat,
        ts_us,
        dur_us: dur_us.max(0.0),
        tid,
        block,
        query,
        args,
    });
}

/// Record a modelled span on a virtual track: it starts at the track's
/// cursor and advances the cursor by `dur_ms`, so each modelled resource
/// reads as a serial lane in the viewer.
pub(crate) fn record_modelled(
    track: &'static str,
    name: &'static str,
    dur_ms: f64,
    block: Option<u32>,
    query: Option<u32>,
    args: &[(&'static str, f64)],
) {
    let mut buf = buffer();
    let i = buf.track(track);
    let (_, tid, cursor) = buf.tracks[i];
    let dur_us = (dur_ms * 1e3).max(0.0);
    buf.events.push(TraceEvent {
        name,
        cat: "modelled",
        ts_us: cursor,
        dur_us,
        tid,
        block,
        query,
        args: args.to_vec(),
    });
    buf.tracks[i].2 = cursor + dur_us;
}

/// Drain the trace buffer. Track identities and names persist (a process
/// can collect several traces back to back); modelled cursors rewind to
/// zero so each drained trace starts its virtual lanes at the origin.
pub fn take_trace() -> ChromeTrace {
    let mut buf = buffer();
    let events = std::mem::take(&mut buf.events);
    for t in buf.tracks.iter_mut() {
        t.2 = 0.0;
    }
    let mut threads: Vec<(u32, String)> = buf
        .threads
        .iter()
        .map(|(_, tid, name)| (*tid, name.clone()))
        .chain(buf.tracks.iter().map(|(n, tid, _)| (*tid, n.to_string())))
        .collect();
    threads.sort_by_key(|(tid, _)| *tid);
    ChromeTrace { events, threads }
}

impl ChromeTrace {
    /// True when no events were collected.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names of all events, for containment checks in tests.
    pub fn names(&self) -> Vec<&'static str> {
        self.events.iter().map(|e| e.name).collect()
    }

    /// Serialize to Chrome Trace Event Format (JSON object form):
    /// thread-name metadata first, then every span as a complete event.
    /// Load the file in Perfetto (<https://ui.perfetto.dev>) or
    /// `about:tracing`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
        let mut first = true;
        let push_sep = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
        };
        push_sep(&mut out, &mut first);
        out.push_str(
            "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \
             \"args\": {\"name\": \"cublastp\"}}",
        );
        for (tid, name) in &self.threads {
            push_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
                 \"name\": \"thread_name\", \"args\": {{\"name\": {}}}}}",
                json::escape(name)
            ));
        }
        for e in &self.events {
            push_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"name\": {}, \"cat\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}",
                e.tid,
                json::escape(e.name),
                json::escape(e.cat),
                e.ts_us,
                e.dur_us,
            ));
            let has_args = e.block.is_some() || e.query.is_some() || !e.args.is_empty();
            if has_args {
                out.push_str(", \"args\": {");
                let mut afirst = true;
                let mut arg = |out: &mut String, k: &str, v: String| {
                    if !afirst {
                        out.push_str(", ");
                    }
                    afirst = false;
                    out.push_str(&format!("{}: {v}", json::escape(k)));
                };
                if let Some(b) = e.block {
                    arg(&mut out, "block", b.to_string());
                }
                if let Some(q) = e.query {
                    arg(&mut out, "query", q.to_string());
                }
                for (k, v) in &e.args {
                    arg(&mut out, k, json::num(*v));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n]\n}\n");
        out
    }

    /// Check the structural invariants of a well-formed trace:
    ///
    /// * no negative durations or timestamps;
    /// * spans on each track nest properly (laminar family): two spans on
    ///   one track either don't overlap or one contains the other.
    pub fn validate(&self) -> Result<(), String> {
        const EPS: f64 = 5e-2; // µs slack for f64 rounding of timestamps
        for e in &self.events {
            if e.ts_us < 0.0 || !e.ts_us.is_finite() {
                return Err(format!("event {:?}: bad timestamp {}", e.name, e.ts_us));
            }
            if e.dur_us < 0.0 || !e.dur_us.is_finite() {
                return Err(format!(
                    "event {:?}: negative duration {}",
                    e.name, e.dur_us
                ));
            }
        }
        let mut tids: Vec<u32> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            let mut spans: Vec<&TraceEvent> = self.events.iter().filter(|e| e.tid == tid).collect();
            // Parents start no later and end no earlier than their
            // children; sorting by (start asc, duration desc) puts every
            // parent before its children.
            spans.sort_by(|a, b| {
                a.ts_us
                    .total_cmp(&b.ts_us)
                    .then(b.dur_us.total_cmp(&a.dur_us))
            });
            let mut stack: Vec<(f64, f64)> = Vec::new(); // (start, end)
            for e in spans {
                let end = e.ts_us + e.dur_us;
                while let Some(&(_, top_end)) = stack.last() {
                    if top_end <= e.ts_us + EPS {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&(top_start, top_end)) = stack.last() {
                    if e.ts_us + EPS < top_start || end > top_end + EPS {
                        return Err(format!(
                            "track {tid}: span {:?} [{:.3}, {end:.3}] straddles its \
                             enclosing span [{top_start:.3}, {top_end:.3}]",
                            e.name, e.ts_us
                        ));
                    }
                }
                stack.push((e.ts_us, end));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u32, ts: f64, dur: f64) -> TraceEvent {
        TraceEvent {
            name,
            cat: "test",
            ts_us: ts,
            dur_us: dur,
            tid,
            block: None,
            query: None,
            args: Vec::new(),
        }
    }

    #[test]
    fn validate_accepts_nested_and_disjoint_spans() {
        let t = ChromeTrace {
            events: vec![
                ev("parent", 1, 0.0, 100.0),
                ev("child_a", 1, 10.0, 20.0),
                ev("child_b", 1, 40.0, 50.0),
                ev("grandchild", 1, 45.0, 10.0),
                ev("later", 1, 200.0, 5.0),
                ev("other_track", 2, 0.0, 1000.0),
            ],
            threads: Vec::new(),
        };
        t.validate().expect("laminar trace must validate");
    }

    #[test]
    fn validate_rejects_negative_duration() {
        let t = ChromeTrace {
            events: vec![ev("bad", 1, 10.0, -1.0)],
            threads: Vec::new(),
        };
        assert!(t.validate().unwrap_err().contains("negative duration"));
    }

    #[test]
    fn validate_rejects_straddling_spans() {
        let t = ChromeTrace {
            events: vec![ev("a", 1, 0.0, 50.0), ev("b", 1, 40.0, 50.0)],
            threads: Vec::new(),
        };
        assert!(t.validate().unwrap_err().contains("straddles"));
    }

    #[test]
    fn exported_json_parses_and_carries_events() {
        let _g = crate::test_lock();
        take_trace(); // start from an empty buffer
        crate::arm(true, false);
        {
            let _outer = crate::span("outer_test_span", "host").with_block(3);
            let mut inner = crate::span("inner_test_span", "host");
            inner.set_arg("bytes", 1024.0);
        }
        crate::modelled(
            "test-track",
            "modelled_leg",
            1.5,
            Some(3),
            None,
            &[("members", 2.0)],
        );
        crate::disarm();
        let trace = take_trace();
        trace.validate().expect("real trace must validate");
        assert!(trace.names().contains(&"outer_test_span"));
        assert!(trace.names().contains(&"modelled_leg"));

        let doc = crate::json::parse(&trace.to_json()).expect("trace JSON must parse");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("traceEvents array");
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("inner_test_span")));
        // Modelled events live on a virtual track with a named lane.
        let modelled = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("modelled_leg"))
            .expect("modelled event present");
        assert!(modelled.get("tid").and_then(|t| t.as_f64()).unwrap_or(0.0) >= 1000.0);
        let members = modelled.get("args").and_then(|a| a.get("members"));
        assert_eq!(members.and_then(|m| m.as_f64()), Some(2.0));
    }

    #[test]
    fn disarmed_spans_record_nothing() {
        let _g = crate::test_lock();
        crate::disarm();
        take_trace(); // drain anything a prior test buffered
        {
            let _s = crate::span("should_not_appear", "host");
        }
        crate::modelled("quiet-track", "quiet", 1.0, None, None, &[]);
        assert!(take_trace().is_empty());
    }
}
