//! Names, units and the printed JSON stay inside the benchmark contract,
//! and `BENCHMARK.json` is what the registries say.

use cublastp_benchmark::metrics::{self, Values, END_TO_END, PER_LAYER};
use cublastp_benchmark::suite::parse_result_line;
use cublastp_benchmark::workloads::WORKLOADS;
use std::collections::BTreeSet;

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

#[test]
fn names_and_units_fit_the_contract() {
    let mut seen = BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(is_name(m.name), "metric name {:?}", m.name);
        assert!(is_unit(m.unit), "unit {:?} of {}", m.unit, m.name);
        assert!(seen.insert(m.name), "{} is declared twice", m.name);
    }
    for w in &WORKLOADS {
        assert!(is_name(w.name), "workload name {:?}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "why of {}",
            w.name
        );
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
}

#[test]
fn bounds_are_set_end_to_end_only_and_setup_has_the_largest() {
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    for m in END_TO_END {
        let b = m.bound.expect("every end-to-end metric has a bound");
        assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        assert!(
            b <= setup.bound.unwrap_or(0.0),
            "{} exceeds setup_s's bound",
            m.name
        );
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
}

#[test]
fn result_line_is_one_json_object_with_exactly_the_contract_keys() {
    let mut values = Values::default();
    values.set("host_qps", 3.25);
    values.set("setup_s", 0.0125);
    for (defs, n) in [(END_TO_END, END_TO_END.len()), (PER_LAYER, PER_LAYER.len())] {
        let line = metrics::result_line(true, 40, 0, defs, &values);
        assert!(!line.contains('\n'));
        let v = obs::json::parse(&line).expect("result line parses with obs::json");
        let keys: Vec<&String> = v.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").and_then(|m| m.as_obj()).expect("metrics");
        assert_eq!(m.len(), n);
        for d in defs {
            let entry = &m[d.name];
            assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(d.unit));
            assert!(entry.get("value").and_then(|x| x.as_f64()).is_some());
        }
        let parsed = parse_result_line(&line).expect("suite can read it back");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (40, 0));
    }
    let line = metrics::result_line(true, 1, 0, END_TO_END, &values);
    let parsed = parse_result_line(&line).expect("parses");
    assert_eq!(parsed.metrics["host_qps"], 3.25);
    assert_eq!(
        parsed.metrics["latency_p50_ms"], 0.0,
        "unset metrics read 0"
    );
}

#[test]
#[should_panic(expected = "not registered")]
fn unregistered_metric_names_are_rejected() {
    Values::default().set("made.up_metric", 1.0);
}

#[test]
fn benchmark_json_is_the_rendered_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    // After a change to the registries: WRITE_BENCHMARK_JSON=1 cargo test
    if std::env::var_os("WRITE_BENCHMARK_JSON").is_some() {
        std::fs::write(path, metrics::manifest_json()).expect("write BENCHMARK.json");
    }
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        on_disk,
        metrics::manifest_json(),
        "BENCHMARK.json is not what metrics::manifest_json() renders"
    );
    let v = obs::json::parse(&on_disk).expect("BENCHMARK.json parses");
    let keys: Vec<&String> = v.as_obj().expect("object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
}
