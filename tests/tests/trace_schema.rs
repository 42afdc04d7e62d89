//! Golden trace-schema test: run a real search with tracing armed and
//! hold the exported Chrome trace to its structural contract — balanced
//! (laminar) nesting per track, no negative durations, every pipeline
//! phase present by name, and JSON that actually parses.
//!
//! One test function: the armed state is process-wide, and this file is
//! its own test binary, so nothing else can race it.

use blast_core::SearchParams;
use cublastp::{CuBlastp, CuBlastpConfig};
use gpu_sim::{DeviceConfig, FaultInjector, FaultPlan};
use integration_support::workload;
use std::sync::Arc;

#[test]
fn armed_search_emits_a_valid_complete_trace() {
    let (q, db) = workload(127, 120, 200, 11);
    let params = SearchParams::default();
    let cfg = CuBlastpConfig {
        // Small blocks force several pipeline rounds, so nesting and the
        // modelled cursors are exercised across block boundaries.
        db_block_size: 8_192,
        ..CuBlastpConfig::default()
    };

    obs::arm(true, true);
    obs::take_trace(); // drain anything a prior armed window buffered
    let searcher = CuBlastp::new(q, params, cfg, DeviceConfig::k20c(), &db);
    // One transient launch fault: the recovery path must appear in the
    // trace (block_retry), not only the happy path.
    let mut searcher = searcher;
    searcher.injector = Arc::new(FaultInjector::new(
        FaultPlan::parse("launch:x1").expect("valid plan"),
    ));
    let result = searcher.search(&db).expect("search succeeds");
    assert_eq!(result.recovery.retries, 1, "the injected fault must retry");
    obs::disarm();

    let trace = obs::take_trace();
    assert!(!trace.is_empty(), "armed search must record events");

    // Structural contract: balanced nesting, non-negative durations.
    trace.validate().expect("trace must be structurally valid");
    assert!(trace.events.iter().all(|e| e.dur_us >= 0.0));
    assert!(trace.events.iter().all(|e| e.ts_us >= 0.0));

    // Every phase of the pipeline shows up as a named span: the two
    // GPU kernel launches (hit detection, and hit reordering with
    // ungapped extension as one), both PCIe legs, the CPU tail, and the
    // host orchestration phases around them.
    let names = trace.names();
    for required in [
        "search",
        "query_setup",
        "gpu_phase",
        "hit_detection",
        "hit_tail",
        "h2d_transfer",
        "d2h_transfer",
        "cpu_phase",
        "gapped_extension",
        "traceback",
        "merge",
        "block_retry",
        "producer_block",
        "consumer_block",
    ] {
        assert!(
            names.contains(&required),
            "missing span {required:?} in {names:?}"
        );
    }

    // Kernel spans carry the simulated time as an arg.
    let kernel_span = trace
        .events
        .iter()
        .find(|e| e.name == "hit_detection" && e.cat == "kernel")
        .expect("kernel span present");
    assert!(
        kernel_span
            .args
            .iter()
            .any(|(k, v)| *k == "sim_ms" && *v >= 0.0),
        "kernel span must carry sim_ms"
    );
    // Block-scoped spans are labelled with their block.
    assert!(trace
        .events
        .iter()
        .filter(|e| e.name == "gpu_phase")
        .all(|e| e.block.is_some()));

    // Modelled tracks live in the virtual tid range and are named.
    let modelled: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.cat == "modelled")
        .collect();
    assert!(!modelled.is_empty());
    assert!(modelled.iter().all(|e| e.tid >= 1000));
    for track in [
        "gpu (modelled)",
        "pcie h2d (modelled)",
        "pcie d2h (modelled)",
        "cpu tail (modelled)",
    ] {
        assert!(
            trace.threads.iter().any(|(_, name)| name.as_str() == track),
            "missing virtual track {track:?}"
        );
    }

    // The export is real JSON with the trace_event envelope.
    let json_text = trace.to_json();
    let doc = obs::json::parse(&json_text).expect("export must parse");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    // Every span event is a complete event with non-negative duration.
    for e in events {
        if e.get("ph").and_then(|p| p.as_str()) == Some("X") {
            assert!(e.get("dur").and_then(|d| d.as_f64()).unwrap_or(-1.0) >= 0.0);
            assert!(e.get("ts").and_then(|d| d.as_f64()).unwrap_or(-1.0) >= 0.0);
        }
    }

    // After the drain the buffer is empty — a second export is clean.
    assert!(obs::take_trace().is_empty());
}
