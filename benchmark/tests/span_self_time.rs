//! A layer's self time is its span minus the interval its children cover.

use cublastp_benchmark::spans::{self_ms_by_name_from, self_times_ns, to_json, Recorder, Span};

fn span(layer: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
    Span {
        name: "s",
        layer,
        start_ns: start,
        end_ns: end,
        parent,
        op: 0,
    }
}

#[test]
fn overlapping_children_are_counted_once() {
    let spans = [
        span("root", 0, 100, None),
        span("a", 10, 30, Some(0)),
        span("b", 20, 50, Some(0)), // overlaps `a` on [20, 30]
    ];
    // Children cover [10, 50] = 40 ns of the root.
    assert_eq!(self_times_ns(&spans), vec![60, 20, 30]);
}

#[test]
fn children_are_clipped_to_the_parent_and_grandchildren_stay_with_theirs() {
    let spans = [
        span("root", 100, 200, None),
        span("child", 150, 260, Some(0)), // runs past the root's end
        span("grandchild", 160, 170, Some(1)), // reduces `child`, not `root`
        span("before", 0, 50, Some(0)),   // entirely outside: ignored
    ];
    assert_eq!(self_times_ns(&spans), vec![50, 100, 10, 50]);
}

#[test]
fn self_time_sums_by_layer_and_name_from_a_mark_on() {
    let spans = [
        span("bench", 0, 50_000, None), // an earlier pass
        span("search", 0, 1_000_000, None),
        span("binning", 0, 400_000, Some(1)),
        span("binning", 400_000, 700_000, Some(1)),
        span("reorder", 700_000, 900_000, Some(1)),
    ];
    let by_name = self_ms_by_name_from(&spans, 1);
    assert_eq!(by_name.len(), 3, "the span before the mark is left out");
    assert!((by_name[&("binning", "s")] - 0.7).abs() < 1e-12);
    assert!((by_name[&("reorder", "s")] - 0.2).abs() < 1e-12);
    assert!((by_name[&("search", "s")] - 0.1).abs() < 1e-12);
}

#[test]
fn recorder_nests_by_open_stack_and_the_trace_file_parses() {
    let mut rec = Recorder::new();
    let root = rec.enter("query", "search", 7);
    let kernel = rec.enter("hit_detection", "binning", 7);
    rec.exit(kernel);
    let added = rec.add("gapped_extension", "blast-cpu", 7, Some(root), 5, 9);
    rec.exit(root);
    let spans = rec.spans();
    assert_eq!(spans[kernel as usize].parent, Some(root));
    assert_eq!(spans[added as usize].parent, Some(root));
    assert_eq!(spans[root as usize].parent, None);
    assert!(spans[root as usize].end_ns >= spans[kernel as usize].end_ns);

    let text = to_json("scan_stream", 3, spans);
    let v = obs::json::parse(&text).expect("trace file is JSON");
    let arr = v
        .get("spans")
        .and_then(|s| s.as_arr())
        .expect("spans array");
    assert_eq!(arr.len(), 3);
    assert_eq!(
        arr[1].get("layer").and_then(|l| l.as_str()),
        Some("binning")
    );
    assert_eq!(arr[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
    assert_eq!(arr[0].get("parent"), Some(&obs::json::Value::Null));
    assert_eq!(arr[2].get("op").and_then(|p| p.as_f64()), Some(7.0));
}
