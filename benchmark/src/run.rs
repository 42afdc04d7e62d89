//! One run of one workload: what `--workload W --seed N --seconds S
//! --trace 0|1` does.

use crate::batch::{self, RunConfig, RunResult};
use crate::metrics;
use crate::replay;
use crate::served;
use crate::spans::{self, Recorder};
use crate::stats;
use crate::workloads::{Driver, WorkloadDef};

/// Share of `--seconds` a traced batch run spends on untraced driver
/// passes (its baseline); the rest goes to replay passes.
const UNTRACED_SHARE_OF_TRACED_RUN: f64 = 0.4;

/// `setup_s` and the per-layer metrics of set-up: the fastest of every
/// set-up of the run (see `batch` for why the fastest).
fn setup_metrics(rec: &Recorder, result: &mut RunResult) {
    result.values.set("setup_s", stats::min(&result.setup_s));
    for (metric, span) in [
        ("bio-seq.fasta_parse_ms", "fasta_parse"),
        ("devicedata.flatten_ms", "flatten"),
        ("cublastp-db.image_build_ms", "image_build"),
        ("cublastp-db.image_open_ms", "image_open"),
        ("cublastp-db.shardset_open_ms", "shardset_open"),
        ("shard.split_ms", "split"),
    ] {
        let ms = rec
            .spans()
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.duration_ns() as f64 / 1e6);
        result
            .values
            .set(metric, ms.reduce(f64::min).unwrap_or(0.0));
    }
}

/// Run `def` as `cfg` says and return what was measured.
pub fn run_workload(def: &'static WorkloadDef, cfg: &RunConfig) -> Result<RunResult, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    let mut rec = Recorder::new();
    let mut result = RunResult::default();
    match def.driver {
        Driver::Served => {
            let service = served::prepare(def, cfg, &mut rec, &mut result)?;
            served::run(&service, cfg, &mut rec, &mut result);
            service.clean_up();
        }
        Driver::FlatBatch { .. } | Driver::ShardedBatch { .. } => {
            let ctx = batch::prepare(def, cfg, &mut rec, &mut result)?;
            let untraced_s = if cfg.trace {
                cfg.seconds * UNTRACED_SHARE_OF_TRACED_RUN
            } else {
                cfg.seconds
            };
            let timed = batch::timed_passes(&ctx, untraced_s, cfg.smoke, &mut rec, &mut result);
            batch::end_to_end(&ctx, &timed, &mut result);
            result
                .values
                .set("devicedata.flatten_count", timed.flattens as f64);
            if cfg.trace {
                replay::traced_passes(
                    &ctx,
                    &timed,
                    cfg.seconds - untraced_s,
                    cfg.smoke,
                    &mut rec,
                    &mut result,
                );
            }
            ctx.clean_up();
        }
    }
    setup_metrics(&rec, &mut result);
    if cfg.trace {
        let path = cfg.out_dir.join(format!("trace-{}.json", def.name));
        std::fs::write(&path, spans::to_json(def.name, cfg.seed, rec.spans()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        result.notes.push(format!(
            "{} spans written to {}",
            rec.spans().len(),
            path.display()
        ));
    }
    Ok(result)
}

/// Print the run: a header, the notes, every metric by name with unit and
/// clock, and — last — the one-line JSON result.
pub fn print(def: &WorkloadDef, cfg: &RunConfig, result: &RunResult) {
    println!(
        "# {} seed={} seconds={} trace={}{}",
        def.name,
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        if cfg.smoke {
            " SMOKE (not comparable)"
        } else {
            ""
        }
    );
    println!("# {}", def.why);
    for note in &result.notes {
        println!("# {note}");
    }
    // End to end with tracing off, per layer with tracing on.
    let defs = if cfg.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    print!("{}", metrics::table(defs, &result.values));
    println!(
        "{}",
        metrics::result_line(
            result.correct(),
            result.attempted,
            result.failed,
            defs,
            &result.values
        )
    );
}
