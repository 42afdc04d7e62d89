//! `perf_gate` — the CI perf-regression gate.
//!
//! Compares each bench report in the working directory against its
//! committed baseline — `ci/baselines/<name>.json` is paired with
//! `BENCH_<name>.json`:
//!
//! ```text
//! perf_gate [--tolerance <frac>] ci/baselines/hotpath.json ci/baselines/cpusimd.json …
//! perf_gate --update ci/baselines/hotpath.json …
//! ```
//!
//! The gated numbers are deterministic, so the default tolerance is 0:
//! a value that moves in either direction fails. `--tolerance` exists for
//! the one report whose gated ratio is host-measured (`serve_load`).
//!
//! Exit codes: 0 every gate passed, 1 a gate failed (a moved or missing
//! phase), 2 usage / I/O / parse error — a baseline whose report is
//! missing is an error, never a skip. `--update` copies each report over
//! its baseline instead of comparing (for re-recording committed
//! baselines after an intentional change).

use bench::gate;
use std::path::Path;
use std::process::ExitCode;

struct Opts {
    baselines: Vec<String>,
    tolerance: f64,
    update: bool,
}

const USAGE: &str = "usage: perf_gate [--tolerance <frac>] [--update] <baseline.json>...\n\
                     (each <dir>/<name>.json is paired with ./BENCH_<name>.json)";

fn parse_opts(mut argv: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut baselines = Vec::new();
    let mut tolerance = 0.0;
    let mut update = false;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--tolerance" => {
                let raw = argv.next().ok_or("--tolerance needs a value")?;
                tolerance = raw
                    .parse()
                    .map_err(|_| format!("--tolerance {raw:?} is not a number"))?;
                if !(0.0..10.0).contains(&tolerance) {
                    return Err(format!("--tolerance {raw:?} out of range [0, 10)"));
                }
            }
            "--update" => update = true,
            other if other.starts_with('-') => return Err(format!("unknown option {other:?}")),
            _ => baselines.push(arg),
        }
    }
    if baselines.is_empty() {
        return Err("no baseline given".into());
    }
    Ok(Opts {
        baselines,
        tolerance,
        update,
    })
}

/// Gate (or re-record) one baseline against its report; `Ok(passed)`.
fn run_one(baseline: &str, opts: &Opts) -> Result<bool, String> {
    let name = Path::new(baseline)
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| format!("{baseline}: not a <name>.json path"))?;
    let report = format!("BENCH_{name}.json");
    let measured = std::fs::read_to_string(&report).map_err(|e| format!("{report}: {e}"))?;
    if opts.update {
        gate::check_report(&measured).map_err(|e| format!("refusing to update {baseline}: {e}"))?;
        std::fs::write(baseline, &measured).map_err(|e| format!("{baseline}: {e}"))?;
        println!("baseline updated: {baseline} <- {report}");
        return Ok(true);
    }
    let expected = std::fs::read_to_string(baseline).map_err(|e| format!("{baseline}: {e}"))?;
    let c = gate::compare(&expected, &measured, opts.tolerance)
        .map_err(|e| format!("{report} vs {baseline}: {e}"))?;
    print!("{}", gate::render(&c, opts.tolerance));
    let verdict = if c.passed() { "PASS" } else { "FAIL" };
    println!("perf gate: {verdict} ({report} vs {baseline})\n");
    Ok(c.passed())
}

fn main() -> ExitCode {
    let opts = match parse_opts(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every baseline is looked at, so one log shows everything that moved.
    let (mut failed, mut errors) = (0usize, 0usize);
    for baseline in &opts.baselines {
        match run_one(baseline, &opts) {
            Ok(true) => {}
            Ok(false) => failed += 1,
            Err(e) => {
                eprintln!("error: {e}");
                errors += 1;
            }
        }
    }
    if errors > 0 {
        ExitCode::from(2)
    } else if failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
