//! `suite`: every workload, several runs each, one process per run (so
//! `peak_rss_mib` is a workload's own), collected into one result file
//! that `compare` reads.

use crate::metrics::{self, MetricDef};
use crate::stats;
use crate::workloads::WORKLOADS;
use obs::json::{self, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Every run of one workload in a result file: per metric, one value per
/// run, in run order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRuns {
    pub seeds: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, Vec<f64>>,
    pub per_layer: BTreeMap<String, Vec<f64>>,
}

/// A suite result file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultFile {
    /// Smoke results are labelled, and `compare` refuses them.
    pub smoke: bool,
    pub seconds: f64,
    /// `std::thread::available_parallelism` where the suite ran.
    pub nproc: usize,
    pub workloads: BTreeMap<String, WorkloadRuns>,
}

fn series_json(out: &mut String, indent: &str, series: &BTreeMap<String, Vec<f64>>) {
    out.push_str("{\n");
    for (i, (name, xs)) in series.iter().enumerate() {
        out.push_str(indent);
        json::escape_into(out, name);
        out.push_str(": [");
        out.push_str(
            &xs.iter()
                .map(|x| json::num(*x))
                .collect::<Vec<_>>()
                .join(", "),
        );
        out.push_str(if i + 1 < series.len() { "],\n" } else { "]\n" });
    }
}

impl ResultFile {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"benchmark\": \"cublastp-benchmark\",\n  \"smoke\": {},\n  \"seconds\": {},\n  \"nproc\": {},\n  \"workloads\": {{\n",
            self.smoke,
            json::num(self.seconds),
            self.nproc
        );
        for (wi, (name, w)) in self.workloads.iter().enumerate() {
            out.push_str("    ");
            json::escape_into(&mut out, name);
            let seeds: Vec<String> = w.seeds.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                ": {{\n      \"seeds\": [{}],\n      \"attempted\": {},\n      \"failed\": {},\n      \"end_to_end\": ",
                seeds.join(", "),
                w.attempted,
                w.failed
            ));
            series_json(&mut out, "        ", &w.end_to_end);
            out.push_str("      },\n      \"per_layer\": ");
            series_json(&mut out, "        ", &w.per_layer);
            out.push_str("      }\n    }");
            out.push_str(if wi + 1 < self.workloads.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = json::parse(text)?;
        let series = |v: Option<&Value>| -> Result<BTreeMap<String, Vec<f64>>, String> {
            let obj = v.and_then(Value::as_obj).ok_or("missing metric series")?;
            obj.iter()
                .map(|(k, xs)| {
                    let xs = xs.as_arr().ok_or_else(|| format!("{k}: not an array"))?;
                    let xs: Option<Vec<f64>> = xs.iter().map(Value::as_f64).collect();
                    Ok((k.clone(), xs.ok_or_else(|| format!("{k}: not numbers"))?))
                })
                .collect()
        };
        let mut file = ResultFile {
            smoke: matches!(root.get("smoke"), Some(Value::Bool(true))),
            seconds: root.get("seconds").and_then(Value::as_f64).unwrap_or(0.0),
            nproc: root.get("nproc").and_then(Value::as_f64).unwrap_or(0.0) as usize,
            workloads: BTreeMap::new(),
        };
        let workloads = root
            .get("workloads")
            .and_then(Value::as_obj)
            .ok_or("not a suite result file: no \"workloads\"")?;
        for (name, w) in workloads {
            let count = |k: &str| w.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
            let seeds = w
                .get("seeds")
                .and_then(Value::as_arr)
                .map(|xs| {
                    xs.iter()
                        .filter_map(Value::as_f64)
                        .map(|x| x as u64)
                        .collect()
                })
                .unwrap_or_default();
            file.workloads.insert(
                name.clone(),
                WorkloadRuns {
                    seeds,
                    attempted: count("attempted"),
                    failed: count("failed"),
                    end_to_end: series(w.get("end_to_end"))?,
                    per_layer: series(w.get("per_layer"))?,
                },
            );
        }
        Ok(file)
    }

    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The parsed last line of one run's stdout.
pub struct RunLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

pub fn parse_result_line(line: &str) -> Result<RunLine, String> {
    let v = json::parse(line)?;
    let metrics = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("result line has no \"metrics\"")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(RunLine {
        correct: matches!(v.get("correct"), Some(Value::Bool(true))),
        attempted: v.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        failed: v.get("failed").and_then(Value::as_f64).unwrap_or(0.0) as u64,
        metrics,
    })
}

/// Run this executable once as a child and return its parsed result.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<RunLine, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let line = parse_result_line(last)
        .map_err(|e| format!("{workload} seed {seed}: no result line ({e})"))?;
    if !out.status.success() || !line.correct {
        return Err(format!(
            "{workload} seed {seed} trace {}: {} of {} operations failed ({})",
            trace as u8, line.failed, line.attempted, out.status
        ));
    }
    Ok(line)
}

fn push_all(series: &mut BTreeMap<String, Vec<f64>>, defs: &[MetricDef], line: &RunLine) {
    for d in defs {
        series
            .entry(d.name.to_string())
            .or_default()
            .push(line.metrics.get(d.name).copied().unwrap_or(0.0));
    }
}

/// Median, quartiles and spread of every end-to-end metric of `w`.
pub fn summary(name: &str, w: &WorkloadRuns) -> String {
    let mut out = format!(
        "{name}: {} runs, {} of {} operations failed\n",
        w.seeds.len(),
        w.failed,
        w.attempted
    );
    for d in metrics::END_TO_END {
        let Some(xs) = w.end_to_end.get(d.name) else {
            continue;
        };
        let (q1, q3) = stats::quartiles(xs);
        out.push_str(&format!(
            "  {:<28} median {:>12.5} {:<4} q1 {:>12.5} q3 {:>12.5} spread {:>5.1} % of median (bound {:.0} %) [{}]\n",
            d.name,
            stats::median(xs),
            d.unit,
            q1,
            q3,
            100.0 * stats::spread(xs),
            100.0 * d.bound.unwrap_or(0.0),
            d.clock.name()
        ));
    }
    out
}

/// Timed runs per workload, at seeds `seed_base`, `seed_base + 1`, ….
pub const TIMED_RUNS: u64 = 10;
/// Traced runs per workload, at the first of those seeds.
pub const TRACED_RUNS: u64 = 1;

/// What `suite` was asked to do. How many runs it makes and how long each
/// measures are constants, so that any two result files are comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteOptions {
    pub out: PathBuf,
    pub seed_base: u64,
    pub smoke: bool,
}

/// Run the suite and write the result file. Returns an error (and the
/// caller exits non-zero) on the first run that fails its correctness
/// gate.
pub fn run(options: &SuiteOptions) -> Result<(), String> {
    let SuiteOptions {
        out,
        seed_base,
        smoke,
    } = options.clone();
    let seconds = f64::from(crate::cli::RUN_SECONDS);
    let mut file = ResultFile {
        smoke,
        seconds,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workloads: BTreeMap::new(),
    };
    let timed_runs = if smoke { 1 } else { TIMED_RUNS };
    for def in &WORKLOADS {
        let mut w = WorkloadRuns::default();
        for seed in seed_base..seed_base + timed_runs {
            let line = run_child(def.name, seed, seconds, false, smoke)?;
            w.seeds.push(seed);
            w.attempted += line.attempted;
            w.failed += line.failed;
            push_all(&mut w.end_to_end, metrics::END_TO_END, &line);
        }
        for seed in seed_base..seed_base + TRACED_RUNS {
            let line = run_child(def.name, seed, seconds, true, smoke)?;
            w.attempted += line.attempted;
            w.failed += line.failed;
            push_all(&mut w.per_layer, metrics::PER_LAYER, &line);
        }
        file.workloads.insert(def.name.to_string(), w);
    }
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, file.to_json()).map_err(|e| format!("write {}: {e}", out.display()))?;
    println!();
    for (name, w) in &file.workloads {
        print!("{}", summary(name, w));
    }
    println!(
        "{}wrote {} ({} threads available)",
        if smoke {
            "SMOKE run, not comparable; "
        } else {
            ""
        },
        out.display(),
        file.nproc
    );
    Ok(())
}
