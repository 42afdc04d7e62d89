//! `compare`: two suite result files, one row per (metric, workload),
//! each metric judged by its own bound and direction.
//!
//! A is the base (the parent commit, or the first of two sets of runs of
//! one commit); B is measured against it. Verdicts:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//!   or, for a metric that is a pure function of the inputs (the
//!   `DeviceModel` clock) measured at the same seeds in both files, any
//!   run of B reads worse than A's run at that seed, by any amount;
//! * `unresolved` — it is not, but the run-to-run spread (interquartile
//!   distance over median) of A or B is wider than the bound, and B's runs
//!   are not all better than all of A's: the difference cannot be told;
//! * `ok` — otherwise.
//!
//! Every ratio is printed with its base. Per-layer metrics have no bound:
//! they get medians and a ratio, never a verdict.

use crate::metrics::{self, Better};
use crate::stats;
use crate::suite::{ResultFile, WorkloadRuns};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (metric, workload) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    pub quartiles_a: (f64, f64),
    pub quartiles_b: (f64, f64),
    /// Share of A's median by which B's median is *worse* (negative when
    /// B is better), in the metric's own direction.
    pub worse_by: f64,
    /// The wider of the two run-to-run spreads.
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judge B against A for a metric that is better in direction `better`,
/// with regression bound `bound`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = if median_a == 0.0 {
        0.0
    } else {
        sign * (median_b - median_a) / median_a.abs()
    };
    let spread = stats::spread(a).max(stats::spread(b));
    let every_b_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound && !every_b_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Row {
        median_a,
        median_b,
        quartiles_a: stats::quartiles(a),
        quartiles_b: stats::quartiles(b),
        worse_by,
        spread,
        verdict,
    }
}

/// For a deterministic metric measured at the same seeds in both files:
/// how many runs read bit-identically, how many read worse in B, of how
/// many.
fn same_seed(
    a: &WorkloadRuns,
    b: &WorkloadRuns,
    xs: &[f64],
    ys: &[f64],
    better: Better,
) -> Option<(usize, usize, usize)> {
    if a.seeds != b.seeds || xs.len() != ys.len() {
        return None;
    }
    let pairs = || xs.iter().zip(ys);
    let equal = pairs().filter(|(x, y)| x.to_bits() == y.to_bits()).count();
    let worse = pairs()
        .filter(|(x, y)| match better {
            Better::Lower => y > x,
            Better::Higher => y < x,
        })
        .count();
    Some((equal, worse, xs.len()))
}

fn same_seed_note(s: (usize, usize, usize)) -> String {
    format!("  bit-equal at same seed: {}/{}, worse: {}", s.0, s.2, s.1)
}

fn ratio(b: f64, a: f64) -> String {
    if a == 0.0 {
        "-".to_string()
    } else {
        format!("{:.4}", b / a)
    }
}

/// Compare two result files. Returns the report and the verdict counts
/// `(ok, regressed, unresolved)`.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Result<(String, [usize; 3]), String> {
    if a.smoke || b.smoke {
        return Err("smoke results are not comparable: run the suite without --smoke".into());
    }
    if a.seconds != b.seconds {
        return Err(format!(
            "runs of {} s and of {} s are not comparable",
            a.seconds, b.seconds
        ));
    }
    let mut out = String::new();
    let mut counts = [0usize; 3];
    out.push_str("end-to-end metrics (base = A; 'worse' is B's median against A's, in the metric's own direction)\n");
    out.push_str(&format!(
        "{:<14} {:<26} {:<5} {:<12} {:>12} {:>25} {:>12} {:>25} {:>10} {:>8} {:>8} {:>7}  {}\n",
        "workload",
        "metric",
        "unit",
        "clock",
        "A median",
        "A [q1, q3]",
        "B median",
        "B [q1, q3]",
        "B/A",
        "worse %",
        "spread %",
        "bound %",
        "verdict"
    ));
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(name) else {
            out.push_str(&format!("{name}: only in A\n"));
            continue;
        };
        for d in metrics::END_TO_END {
            let (Some(xs), Some(ys)) = (wa.end_to_end.get(d.name), wb.end_to_end.get(d.name))
            else {
                continue;
            };
            let bound = d.bound.unwrap_or(0.0);
            let mut row = judge(xs, ys, d.better, bound);
            let exact = match (d.exact, same_seed(wa, wb, xs, ys, d.better)) {
                (true, Some(s)) => {
                    if s.1 > 0 {
                        row.verdict = Verdict::Regressed;
                    }
                    same_seed_note(s)
                }
                _ => String::new(),
            };
            counts[row.verdict as usize] += 1;
            out.push_str(&format!(
                "{:<14} {:<26} {:<5} {:<12} {:>12.5} {:>25} {:>12.5} {:>25} {:>10} {:>8.2} {:>8.2} {:>7.1}  {}{}\n",
                name,
                d.name,
                d.unit,
                d.clock.name(),
                row.median_a,
                format!("[{:.5}, {:.5}]", row.quartiles_a.0, row.quartiles_a.1),
                row.median_b,
                format!("[{:.5}, {:.5}]", row.quartiles_b.0, row.quartiles_b.1),
                ratio(row.median_b, row.median_a),
                100.0 * row.worse_by,
                100.0 * row.spread,
                100.0 * bound,
                row.verdict.name(),
                exact
            ));
        }
    }
    out.push_str("\nper-layer metrics (traced runs; no bound, no verdict; B/A has base A)\n");
    for (name, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(name) else {
            continue;
        };
        for d in metrics::PER_LAYER {
            let (Some(xs), Some(ys)) = (wa.per_layer.get(d.name), wb.per_layer.get(d.name)) else {
                continue;
            };
            let (ma, mb) = (stats::median(xs), stats::median(ys));
            if ma == 0.0 && mb == 0.0 {
                continue; // a layer this workload bypasses
            }
            let exact = match (d.exact, same_seed(wa, wb, xs, ys, d.better)) {
                (true, Some(s)) => same_seed_note(s),
                _ => String::new(),
            };
            out.push_str(&format!(
                "{:<14} {:<42} {:<15} {:<13} {:>16.6} {:>16.6} {:>10}{}\n",
                name,
                d.name,
                d.unit,
                d.clock.name(),
                ma,
                mb,
                ratio(mb, ma),
                exact
            ));
        }
    }
    for name in b.workloads.keys().filter(|n| !a.workloads.contains_key(*n)) {
        out.push_str(&format!("{name}: only in B\n"));
    }
    out.push_str(&format!(
        "\n{} ok, {} regressed, {} unresolved\n",
        counts[0], counts[1], counts[2]
    ));
    Ok((out, counts))
}
