//! `device_model_ms_per_query` is a pure function of the inputs: two
//! in-process passes agree to the last bit, and so do two processes'
//! worth of set-up at one seed.

use cublastp_benchmark::batch::{self, best_per_query_ms, PassTimes, RunConfig, RunResult};
use cublastp_benchmark::spans::Recorder;
use cublastp_benchmark::workloads;
use std::path::PathBuf;

fn config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        seconds: 0.1,
        smoke: true,
        trace: false,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    }
}

#[test]
fn device_model_is_bit_equal_across_passes_and_set_ups() {
    for name in [
        "scan_stream",
        "grouped_short",
        "align_device",
        "sharded_skew",
    ] {
        let def = workloads::find(name).expect("defined");
        let mut models = Vec::new();
        for _ in 0..2 {
            let mut result = RunResult::default();
            let ctx = batch::prepare(def, &config(4), &mut Recorder::new(), &mut result)
                .expect("set-up succeeds");
            for _ in 0..2 {
                let pass = ctx.run_pass();
                ctx.check_pass(&pass, &mut result);
                models.push(ctx.device_model_ms(&pass.outcome));
            }
            assert_eq!(result.failed, 0, "{name}: {:?}", result.notes);
            assert_eq!(result.attempted as usize, 2 * ctx.inputs.queries.len());
            ctx.clean_up();
        }
        assert!(models[0] > 0.0);
        assert!(
            models.iter().all(|m| m.to_bits() == models[0].to_bits()),
            "{name}: {models:?}"
        );

        let mut other = RunResult::default();
        let ctx = batch::prepare(def, &config(5), &mut Recorder::new(), &mut other)
            .expect("set-up succeeds");
        let pass = ctx.run_pass();
        ctx.clean_up();
        assert_ne!(
            ctx.device_model_ms(&pass.outcome).to_bits(),
            models[0].to_bits(),
            "{name}: another seed gives other inputs"
        );
    }
}

#[test]
fn a_wrong_report_is_counted_as_a_failed_operation() {
    let def = workloads::find("scan_stream").expect("defined");
    let mut result = RunResult::default();
    let mut ctx = batch::prepare(def, &config(4), &mut Recorder::new(), &mut result)
        .expect("set-up succeeds");
    ctx.reference[0].push((0, 0, 0, 0, 0, 0));
    let pass = ctx.run_pass();
    ctx.check_pass(&pass, &mut result);
    assert_eq!(result.failed, 1);
    assert!(!result.correct());
}

#[test]
fn a_query_is_timed_by_its_fastest_pass() {
    let pass = |per_query_ms: Vec<f64>| PassTimes {
        wall_ms: per_query_ms.iter().sum(),
        cpu_ms: 0.0,
        per_query_ms,
        device_model_ms: 1.0,
        retries: 0,
        degraded: 0,
    };
    // The sandbox slowed the second query of the first pass and the first
    // of the second; neither decides the query's time.
    let passes = [
        pass(vec![10.0, 90.0, 30.0]),
        pass(vec![40.0, 20.0, 31.0]),
        pass(vec![11.0, 21.0, 29.0]),
    ];
    assert_eq!(best_per_query_ms(&passes), vec![10.0, 20.0, 29.0]);
    // A pass in which a query failed contributes no times at all.
    let with_failed = [pass(vec![]), pass(vec![5.0, 6.0])];
    assert_eq!(best_per_query_ms(&with_failed), vec![5.0, 6.0]);
    assert!(best_per_query_ms(&[]).is_empty());
}
