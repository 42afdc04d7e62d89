//! The perf-regression gate: compare a bench run's `phase_medians`
//! against a committed baseline.
//!
//! Every gated bench writes a `"phase_medians"` section into its JSON
//! report — modelled times, work counts and violation counters, all
//! deterministic for a given `BENCH_SCALE`, so the gate measures the cost
//! model and the pipeline's phase structure, not the CI machine's mood.
//! (Host wall-clock numbers stay in the other sections, informational.)
//!
//! Deterministic numbers are compared exactly: at the default tolerance
//! of 0 a key that moves in *either* direction fails — a change that
//! under-bills is as much a model change as one that over-bills — and the
//! baseline is re-recorded on purpose (`perf_gate --update`). A baseline
//! key missing from the measurement fails too (a silently dropped phase
//! must not pass). Keys absent from the baseline are listed but do not
//! fail; they start gating once the baseline is refreshed.

use obs::json::{parse, Value};

/// One compared phase.
#[derive(Debug)]
pub struct GateRow {
    /// Dotted key under `phase_medians` (e.g. `swissprot_mini.hit_sorting`).
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Measured value; `NaN` when missing from the measurement.
    pub measured: f64,
    /// Relative change, `(measured - baseline) / baseline`, as a percent.
    pub delta_pct: f64,
    /// Whether this phase passes the gate.
    pub ok: bool,
}

/// Result of a gate comparison.
#[derive(Debug)]
pub struct Comparison {
    /// Per-phase rows, baseline order.
    pub rows: Vec<GateRow>,
    /// Phases present in the measurement but not the baseline.
    pub new_phases: Vec<String>,
    /// Number of failing rows.
    pub failures: usize,
}

impl Comparison {
    /// True when every baseline phase passed.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }
}

/// Pull the flattened `phase_medians` leaves out of a bench report.
fn phase_medians(doc: &Value, what: &str) -> Result<Vec<(String, f64)>, String> {
    let section = doc
        .get("phase_medians")
        .ok_or_else(|| format!("{what}: no \"phase_medians\" section"))?;
    let mut out = Vec::new();
    flatten(section, String::new(), &mut out);
    if out.is_empty() {
        return Err(format!("{what}: \"phase_medians\" has no numeric leaves"));
    }
    Ok(out)
}

/// Depth-first flatten of nested objects into dotted keys; numeric
/// leaves only.
fn flatten(v: &Value, prefix: String, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Obj(map) => {
            for (k, child) in map {
                let key = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(child, key, out);
            }
        }
        Value::Num(n) => out.push((prefix, *n)),
        _ => {}
    }
}

/// Compare two bench reports' `phase_medians` with a two-sided relative
/// tolerance (`0.5` = ±50 %, `0.0` = exact). Errors on unparseable input
/// or a missing section; moved and missing phases land as failing rows
/// instead.
pub fn compare(
    baseline_json: &str,
    measured_json: &str,
    tolerance: f64,
) -> Result<Comparison, String> {
    let base_doc = parse(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    let meas_doc = parse(measured_json).map_err(|e| format!("measured: {e}"))?;
    let base = phase_medians(&base_doc, "baseline")?;
    let meas = phase_medians(&meas_doc, "measured")?;

    let mut rows = Vec::new();
    let mut failures = 0;
    for (key, b) in &base {
        let row = match meas.iter().find(|(k, _)| k == key) {
            Some((_, m)) => {
                let ok = (m - b).abs() <= b.abs() * tolerance;
                let delta_pct = if *b > 0.0 {
                    100.0 * (m - b) / b
                } else if *m > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                GateRow {
                    key: key.clone(),
                    baseline: *b,
                    measured: *m,
                    delta_pct,
                    ok,
                }
            }
            None => GateRow {
                key: key.clone(),
                baseline: *b,
                measured: f64::NAN,
                delta_pct: f64::NAN,
                ok: false,
            },
        };
        if !row.ok {
            failures += 1;
        }
        rows.push(row);
    }
    let new_phases = meas
        .iter()
        .filter(|(k, _)| !base.iter().any(|(bk, _)| bk == k))
        .map(|(k, _)| k.clone())
        .collect();
    Ok(Comparison {
        rows,
        new_phases,
        failures,
    })
}

/// Check that a report can serve as a baseline (`perf_gate --update`
/// refuses to promote one the gate could never compare against).
pub fn check_report(report_json: &str) -> Result<(), String> {
    let doc = parse(report_json).map_err(|e| format!("report: {e}"))?;
    phase_medians(&doc, "report").map(|_| ())
}

/// Render a comparison as the table the CI log shows.
pub fn render(c: &Comparison, tolerance: f64) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<54} {:>14} {:>14} {:>9}  gate (tolerance ±{:.0}%)",
        "phase",
        "baseline",
        "measured",
        "delta",
        tolerance * 100.0
    );
    for r in &c.rows {
        let delta = if r.delta_pct.is_nan() {
            "missing".to_string()
        } else {
            format!("{:+.1}%", r.delta_pct)
        };
        let _ = writeln!(
            out,
            "{:<54} {:>14.6} {:>14.6} {:>9}  {}",
            r.key,
            r.baseline,
            r.measured,
            delta,
            if r.ok { "ok" } else { "FAIL" }
        );
    }
    for k in &c.new_phases {
        let _ = writeln!(out, "{k:<54} (new phase, not in baseline — not gated)");
    }
    let _ = writeln!(out, "{} phase(s), {} failed", c.rows.len(), c.failures);
    if c.failures > 0 {
        let _ = writeln!(
            out,
            "a gated value moved: re-record the baseline with `--update` if intended"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ms: &[(&str, f64)]) -> String {
        let leaves: Vec<String> = ms.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        format!(
            "{{\"bench\": \"t\", \"phase_medians\": {{\"db\": {{{}}}}}}}",
            leaves.join(", ")
        )
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(&[("hit_detection", 1.5), ("hit_sorting", 0.25)]);
        let c = compare(&r, &r, 0.0).unwrap();
        assert!(c.passed());
        assert_eq!(c.rows.len(), 2);
        assert!(c.rows.iter().all(|r| r.delta_pct == 0.0));
    }

    #[test]
    fn small_regression_within_tolerance_passes() {
        let base = report(&[("hit_detection", 1.0)]);
        let meas = report(&[("hit_detection", 1.1)]);
        assert!(compare(&base, &meas, 0.15).unwrap().passed());
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = report(&[("hit_detection", 1.0), ("hit_sorting", 0.2)]);
        let meas = report(&[("hit_detection", 1.2), ("hit_sorting", 0.2)]);
        let c = compare(&base, &meas, 0.15).unwrap();
        assert_eq!(c.failures, 1);
        assert_eq!(c.rows[0].key, "db.hit_detection");
        assert!(!c.rows[0].ok);
        assert!(c.rows[1].ok);
    }

    #[test]
    fn tightened_baseline_fails_the_same_measurement() {
        // The acceptance check: the gate must demonstrably fail when the
        // baseline is tightened under an unchanged measurement.
        let meas = report(&[("hit_detection", 1.0)]);
        let honest = report(&[("hit_detection", 1.0)]);
        let tightened = report(&[("hit_detection", 0.5)]);
        assert!(compare(&honest, &meas, 0.15).unwrap().passed());
        assert!(!compare(&tightened, &meas, 0.15).unwrap().passed());
    }

    #[test]
    fn improvement_passes_but_is_reported() {
        // Inside an explicit tolerance only: the gate is two-sided.
        let base = report(&[("hit_detection", 2.0)]);
        let meas = report(&[("hit_detection", 1.0)]);
        let c = compare(&base, &meas, 0.6).unwrap();
        assert!(c.passed());
        assert!((c.rows[0].delta_pct - (-50.0)).abs() < 1e-9);
    }

    #[test]
    fn moved_down_fails_at_zero_tolerance() {
        // One unit in the last printed decimal, either way.
        let base = report(&[("hit_detection", 0.147773)]);
        for moved in [0.147772, 0.147774] {
            let c = compare(&base, &report(&[("hit_detection", moved)]), 0.0).unwrap();
            assert_eq!(c.failures, 1, "{moved}");
            assert!(render(&c, 0.0).contains("--update"));
        }
    }

    #[test]
    fn missing_phase_in_measurement_fails() {
        let base = report(&[("hit_detection", 1.0), ("hit_sorting", 0.2)]);
        let meas = report(&[("hit_detection", 1.0)]);
        let c = compare(&base, &meas, 0.15).unwrap();
        assert_eq!(c.failures, 1);
        assert!(c.rows[1].measured.is_nan());
    }

    #[test]
    fn new_phase_in_measurement_is_reported_not_failed() {
        let base = report(&[("hit_detection", 1.0)]);
        let meas = report(&[("hit_detection", 1.0), ("hit_sorting", 0.2)]);
        let c = compare(&base, &meas, 0.15).unwrap();
        assert!(c.passed());
        assert_eq!(c.new_phases, vec!["db.hit_sorting".to_string()]);
    }

    #[test]
    fn zero_baseline_passes_only_zero() {
        // The violation counters: baseline 0, and no tolerance widens it.
        let base = report(&[("lost_requests", 0.0)]);
        let ok = report(&[("lost_requests", 0.0)]);
        assert!(compare(&base, &ok, 0.5).unwrap().passed());
        let bad = report(&[("lost_requests", 1.0)]);
        assert!(!compare(&base, &bad, 0.5).unwrap().passed());
    }

    #[test]
    fn missing_section_is_an_error() {
        assert!(compare("{}", "{}", 0.15).is_err());
        let ok = report(&[("a", 1.0)]);
        assert!(compare(&ok, "{\"bench\": \"x\"}", 0.15).is_err());
        assert!(compare("not json", &ok, 0.15).is_err());
    }

    #[test]
    fn update_refuses_a_report_without_phase_medians() {
        assert!(check_report(&report(&[("a", 1.0)])).is_ok());
        assert!(check_report("{\"bench\": \"x\"}").is_err());
        assert!(check_report("{\"phase_medians\": {\"db\": {}}}").is_err());
        assert!(check_report("not json").is_err());
    }

    #[test]
    fn render_mentions_failures() {
        let base = report(&[("hit_detection", 1.0)]);
        let meas = report(&[("hit_detection", 5.0)]);
        let c = compare(&base, &meas, 0.15).unwrap();
        let text = render(&c, 0.15);
        assert!(text.contains("FAIL"));
        assert!(text.contains("db.hit_detection"));
    }
}
