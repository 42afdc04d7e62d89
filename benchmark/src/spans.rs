//! The benchmark's own span recorder for the traced run.
//!
//! A span is one call from the benchmark into a layer's public function:
//! name, layer, start, end, the span that caused it, and the operation
//! (query index or request id) it belongs to. Spans stay in memory and are
//! written out once, when the run ends. A layer's *self time* is its
//! span's duration minus the part of that interval its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Query index (batch workloads) or request id (`served_mix`).
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store with a stack of open spans (the parent of a new
/// span is whatever is open when it starts).
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span now, as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, layer: &'static str, op: u32) -> SpanId {
        let id = self.spans.len() as SpanId;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close `id` now. Spans close innermost-first.
    pub fn exit(&mut self, id: SpanId) {
        let now = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost-first");
        self.open.retain(|&o| o != id);
        self.spans[id as usize].end_ns = now;
    }

    /// Record a span with explicit times — for intervals the benchmark
    /// learns after the fact (a duration a layer returned, a request's
    /// due time). `parent` is given, not taken from the open stack.
    pub fn add(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u32,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`: the
/// span's duration minus the union of its children's intervals clipped
/// to it. Overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per `(layer, name)`, in milliseconds, over the spans
/// from index `from` on (one pass of a longer recording).
pub fn self_ms_by_name_from(
    spans: &[Span],
    from: usize,
) -> BTreeMap<(&'static str, &'static str), f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)).skip(from) {
        *out.entry((s.layer, s.name)).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Render spans as the trace file: one JSON object with a `spans` array
/// (`id` is the array index, `parent` an id or `null`, times in ns from
/// the recorder's origin, `self_ns` precomputed).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = String::with_capacity(64 + spans.len() * 120);
    out.push_str("{\"workload\": ");
    obs::json::escape_into(&mut out, workload);
    out.push_str(&format!(
        ", \"seed\": {seed}, \"unit\": \"ns\", \"spans\": [\n"
    ));
    for (i, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        out.push_str(&format!("  {{\"id\": {i}, \"name\": "));
        obs::json::escape_into(&mut out, s.name);
        out.push_str(", \"layer\": ");
        obs::json::escape_into(&mut out, s.layer);
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            ", \"start\": {}, \"end\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"op\": {}}}{}\n",
            s.start_ns,
            s.end_ns,
            s.op,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}
