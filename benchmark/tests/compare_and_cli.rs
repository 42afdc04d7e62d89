//! `compare` applies each metric's own bound and direction; the CLI
//! takes the driver's flags; result files survive a round trip.

use cublastp_benchmark::cli::{self, Command};
use cublastp_benchmark::compare::{compare, judge, Verdict};
use cublastp_benchmark::metrics::Better;
use cublastp_benchmark::procfs::{parse_status_vmhwm_kb, peak_rss_mib, process_cpu_ms};
use cublastp_benchmark::suite::{ResultFile, SuiteOptions, WorkloadRuns};

fn around(centre: f64, step: f64) -> Vec<f64> {
    (0..10).map(|i| centre + step * (i as f64 - 4.5)).collect()
}

#[test]
fn verdicts_follow_bound_direction_and_spread() {
    let base = around(100.0, 0.2);
    // Lower is better: +20 % is a regression, -20 % is fine.
    assert_eq!(
        judge(&base, &around(120.0, 0.2), Better::Lower, 0.1).verdict,
        Verdict::Regressed
    );
    assert_eq!(
        judge(&base, &around(80.0, 0.2), Better::Lower, 0.1).verdict,
        Verdict::Ok
    );
    // Higher is better: the same numbers judge the other way round.
    assert_eq!(
        judge(&base, &around(80.0, 0.2), Better::Higher, 0.1).verdict,
        Verdict::Regressed
    );
    assert_eq!(
        judge(&base, &around(120.0, 0.2), Better::Higher, 0.1).verdict,
        Verdict::Ok
    );
    // Inside the bound with tight runs: ok, and the ratio has base A.
    let row = judge(&base, &around(105.0, 0.2), Better::Lower, 0.1);
    assert_eq!(row.verdict, Verdict::Ok);
    assert!((row.worse_by - 0.05).abs() < 1e-9);
    // Inside the bound but the runs spread wider than it: cannot be told.
    let noisy = around(100.0, 4.0);
    assert_eq!(
        judge(&noisy, &around(102.0, 4.0), Better::Lower, 0.1).verdict,
        Verdict::Unresolved
    );
    // ... unless every run of B is better than every run of A.
    assert_eq!(
        judge(&noisy, &around(40.0, 4.0), Better::Lower, 0.1).verdict,
        Verdict::Ok
    );
}

fn file(smoke: bool, qps: f64) -> ResultFile {
    let mut w = WorkloadRuns {
        seeds: (1..=10).collect(),
        attempted: 400,
        failed: 0,
        ..WorkloadRuns::default()
    };
    w.end_to_end.insert("host_qps".into(), around(qps, 0.01));
    w.end_to_end
        .insert("device_model_ms_per_query".into(), around(3.5, 0.001));
    w.per_layer.insert("binning.host_ms".into(), vec![120.5]);
    let mut f = ResultFile {
        smoke,
        seconds: 12.0,
        nproc: 2,
        ..ResultFile::default()
    };
    f.workloads.insert("scan_stream".into(), w);
    f
}

#[test]
fn result_files_round_trip_and_compare_reads_them() {
    let a = file(false, 4.0);
    let back = ResultFile::from_json(&a.to_json()).expect("own output parses");
    assert_eq!(back, a);

    let (report, counts) = compare(&a, &file(false, 2.0)).expect("comparable");
    assert_eq!(counts, [1, 1, 0], "{report}");
    assert!(report.contains("regressed") && report.contains("host_qps"));
    assert!(report.contains("bit-equal at same seed: 10/10"));
    let (_, counts) = compare(&a, &a).expect("comparable");
    assert_eq!(counts, [2, 0, 0]);
}

#[test]
fn a_modelled_metric_regresses_on_any_difference_at_the_same_seed() {
    let a = file(false, 4.0);
    let mut b = a.clone();
    let model = b.workloads.get_mut("scan_stream").expect("present");
    let xs = model
        .end_to_end
        .get_mut("device_model_ms_per_query")
        .expect("present");
    xs[3] *= 1.0 + 1e-12; // far inside the bound, and still a model change
    let (report, counts) = compare(&a, &b).expect("comparable");
    assert_eq!(counts, [1, 1, 0], "{report}");
    assert!(report.contains("bit-equal at same seed: 9/10, worse: 1"));
    // The same difference the other way round is a gain, not a regression.
    let (_, counts) = compare(&b, &a).expect("comparable");
    assert_eq!(counts, [2, 0, 0]);
    // At other seeds the values are other inputs' and only the bound applies.
    b.workloads.get_mut("scan_stream").expect("present").seeds = (11..=20).collect();
    let (_, counts) = compare(&a, &b).expect("comparable");
    assert_eq!(counts, [2, 0, 0]);
}

#[test]
fn smoke_results_are_refused() {
    let err = compare(&file(true, 4.0), &file(false, 4.0)).expect_err("smoke is refused");
    assert!(err.contains("smoke"));
    assert!(compare(&file(false, 4.0), &file(true, 4.0)).is_err());
    let mut longer = file(false, 4.0);
    longer.seconds = 30.0;
    let err = compare(&file(false, 4.0), &longer).expect_err("other run length");
    assert!(err.contains("not comparable"));
}

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn cli_takes_the_drivers_flags() {
    assert_eq!(
        cli::parse(&args(
            "--workload served_mix --seed 7 --seconds 12 --trace 1"
        )),
        Ok(Command::Run {
            workload: "served_mix".into(),
            seed: 7,
            seconds: 12.0,
            trace: true,
            smoke: false,
        })
    );
    assert!(cli::parse(&args("--workload nope --seed 7 --seconds 12 --trace 0")).is_err());
    assert!(cli::parse(&args("--workload scan_stream --seconds 12 --trace 0")).is_err());
    assert!(cli::parse(&args(
        "--workload scan_stream --seed 1 --seconds 0 --trace 0"
    ))
    .is_err());
    assert!(cli::parse(&args("--workload scan_stream --seed 1 --trace 2")).is_err());
    assert_eq!(
        cli::parse(&args("compare a.json b.json")),
        Ok(Command::Compare {
            a: "a.json".into(),
            b: "b.json".into()
        })
    );
    assert!(cli::parse(&args("compare a.json")).is_err());
    assert_eq!(
        cli::parse(&args("suite --out r.json --seed-base 11 --smoke")),
        Ok(Command::Suite(SuiteOptions {
            out: "r.json".into(),
            seed_base: 11,
            smoke: true,
        }))
    );
    // How many runs a suite makes and how long each measures are not options.
    assert!(cli::parse(&args("suite --out r.json --runs 3")).is_err());
    assert!(cli::parse(&args("suite --out r.json --seconds 5")).is_err());
    assert!(cli::parse(&args("suite")).is_err());
}

#[test]
fn cpu_clock_advances_with_work_and_peak_memory_reads() {
    let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  155312 kB\nVmRSS:\t  1200 kB\n";
    assert_eq!(parse_status_vmhwm_kb(status), Some(155312));
    assert_eq!(parse_status_vmhwm_kb("Name:\tx\n"), None);
    assert!(peak_rss_mib() > 0.0);

    let before = process_cpu_ms();
    let mut x = 1u64;
    while process_cpu_ms() - before < 5.0 {
        for i in 0..100_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
    }
    assert!(
        before > 0.0 && x != 0,
        "the process has used CPU time before this test"
    );
}
