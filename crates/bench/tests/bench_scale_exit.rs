//! Exit codes of the bench binaries and the gate, end to end.
//!
//! A malformed `BENCH_SCALE` must abort the bench binaries with exit
//! code 2 before any work runs — never silently fall back to the
//! full-size workload (the failure mode this guards against: a typo in a
//! CI variable runs the unscaled benchmark and the perf gate compares
//! apples to oranges). A bench that cannot write its report, and a gate
//! that cannot find one, exit 2 as well: a stale `BENCH_*.json` must
//! never gate green.

use std::process::Command;

fn run_with_scale(exe: &str, scale: &str) -> std::process::Output {
    Command::new(exe)
        .env("BENCH_SCALE", scale)
        // Keep the failing runs cheap and out of the repo root.
        .current_dir(std::env::temp_dir())
        .output()
        .expect("binary runs")
}

#[test]
fn hotpath_rejects_malformed_bench_scale() {
    for bad in ["O.25", "0", "-1", "nan", ""] {
        let out = run_with_scale(env!("CARGO_BIN_EXE_hotpath"), bad);
        assert_eq!(out.status.code(), Some(2), "BENCH_SCALE={bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("BENCH_SCALE"), "{err}");
        assert!(out.stdout.is_empty(), "must fail before any output");
    }
}

#[test]
fn throughput_rejects_malformed_bench_scale() {
    let out = run_with_scale(env!("CARGO_BIN_EXE_throughput"), "fast");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("BENCH_SCALE"));
}

#[test]
fn perf_gate_usage_error_exits_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_gate"))
        .arg("--frobnicate")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

/// A scratch working directory holding `baselines/<name>.json` and
/// `BENCH_<name>.json` files with one gated key each.
fn gate_dir(tag: &str, baselines: &[(&str, f64)], reports: &[(&str, f64)]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("perf_gate_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(dir.join("baselines")).unwrap();
    let doc = |v: f64| format!("{{\"phase_medians\": {{\"db\": {{\"hit_detection\": {v}}}}}}}");
    for (name, v) in baselines {
        std::fs::write(dir.join(format!("baselines/{name}.json")), doc(*v)).unwrap();
    }
    for (name, v) in reports {
        std::fs::write(dir.join(format!("BENCH_{name}.json")), doc(*v)).unwrap();
    }
    dir
}

fn perf_gate(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perf_gate"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs")
}

#[test]
fn perf_gate_passes_and_fails_end_to_end() {
    // Two baselines in one invocation; `b`'s report reads 5 % low.
    let dir = gate_dir("e2e", &[("a", 1.0), ("b", 1.0)], &[("a", 1.0), ("b", 0.95)]);
    let both = ["baselines/a.json", "baselines/b.json"];
    let exact = perf_gate(&dir, &both);
    assert_eq!(exact.status.code(), Some(1), "{exact:?}");
    let out = String::from_utf8_lossy(&exact.stdout);
    assert!(
        out.contains("PASS (BENCH_a.json") && out.contains("FAIL (BENCH_b.json"),
        "{out}"
    );
    let wide = perf_gate(&dir, &["--tolerance", "0.15", both[0], both[1]]);
    assert_eq!(wide.status.code(), Some(0), "{wide:?}");
    let tight = perf_gate(&dir, &["--tolerance", "0.01", both[0], both[1]]);
    assert_eq!(tight.status.code(), Some(1));
    // Re-recording makes the exact gate pass.
    assert_eq!(
        perf_gate(&dir, &["--update", both[1]]).status.code(),
        Some(0)
    );
    assert_eq!(perf_gate(&dir, &both).status.code(), Some(0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn perf_gate_missing_report_is_an_error_not_a_skip() {
    let dir = gate_dir("missing", &[("a", 1.0), ("b", 1.0)], &[("a", 1.0)]);
    let out = perf_gate(&dir, &["baselines/a.json", "baselines/b.json"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("BENCH_b.json"));
    // The present pair was still gated.
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS (BENCH_a.json"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_that_cannot_write_its_report_exits_two() {
    // A directory squatting on the report's name: the write fails whoever
    // runs the test (permission bits do not stop root).
    let dir = std::env::temp_dir().join(format!("bench_unwritable_{}", std::process::id()));
    std::fs::create_dir_all(dir.join("BENCH_throughput.json")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_throughput"))
        .env("BENCH_SCALE", "0.01")
        .current_dir(&dir)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot write BENCH_throughput.json"));
    std::fs::remove_dir_all(&dir).ok();
}
