//! Command-line parsing. No dependency: flags are few and flat.

use crate::suite::SuiteOptions;
use std::path::PathBuf;

pub const USAGE: &str = "\
usage:
  cublastp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
      one run of one workload; the last line of stdout is the JSON result
  cublastp-benchmark suite --out <file> [--seed-base <n>] [--smoke]
      every workload: 10 timed runs at seeds <n>, <n>+1, ... and 1 traced run,
      one process per run, each as long as BENCHMARK.json's run_seconds
  cublastp-benchmark compare <a.json> <b.json>
      apply each metric's bound and direction to two suite result files
workloads: scan_stream align_stream align_device grouped_short sharded_skew served_mix";

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
        smoke: bool,
    },
    Suite(SuiteOptions),
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
}

/// How long one run measures: `BENCHMARK.json`'s `run_seconds`, and what
/// every run of `suite` is given as `--seconds`.
pub const RUN_SECONDS: u32 = 20;

fn value<'a>(flag: &str, it: &mut impl Iterator<Item = &'a String>) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: {raw:?} is not a valid number"))
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s @ ("suite" | "compare")) => (s, &args[1..]),
        _ => ("run", args),
    };
    let mut positional = Vec::new();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut out, mut seed_base, mut smoke) = (None, 1u64, false);
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match (sub, arg.as_str()) {
            ("run", "--workload") => workload = Some(value(arg, &mut it)?.clone()),
            ("run", "--seed") => seed = Some(number(arg, value(arg, &mut it)?)?),
            ("run", "--seconds") => seconds = Some(number::<f64>(arg, value(arg, &mut it)?)?),
            ("run", "--trace") => {
                trace = Some(match value(arg, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            ("suite", "--out") => out = Some(PathBuf::from(value(arg, &mut it)?)),
            ("suite", "--seed-base") => seed_base = number(arg, value(arg, &mut it)?)?,
            ("run" | "suite", "--smoke") => smoke = true,
            (_, flag) if flag.starts_with("--") => {
                return Err(format!("{sub}: unknown flag {flag}"))
            }
            ("compare", _) => positional.push(arg.clone()),
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    match sub {
        "run" => {
            let workload = workload.ok_or("--workload is required")?;
            if crate::workloads::find(&workload).is_none() {
                return Err(format!("unknown workload {workload:?}"));
            }
            let seconds = seconds.ok_or("--seconds is required")?;
            if !seconds.is_finite() || seconds <= 0.0 {
                return Err("--seconds must be > 0".into());
            }
            Ok(Command::Run {
                workload,
                seed: seed.ok_or("--seed is required")?,
                seconds,
                trace: trace.ok_or("--trace is required")?,
                smoke,
            })
        }
        "suite" => Ok(Command::Suite(SuiteOptions {
            out: out.ok_or("suite: --out is required")?,
            seed_base,
            smoke,
        })),
        _ => {
            let [a, b] = <[String; 2]>::try_from(positional)
                .map_err(|_| "compare takes exactly two result files".to_string())?;
            Ok(Command::Compare {
                a: a.into(),
                b: b.into(),
            })
        }
    }
}

/// Where scratch and trace files go: `benchmark/out` when run from the
/// repo root (as `BENCHMARK.json`'s command does), `out` when run from
/// inside the package. Always inside the checkout.
pub fn out_dir() -> PathBuf {
    if std::path::Path::new("benchmark/Cargo.toml").exists() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}
