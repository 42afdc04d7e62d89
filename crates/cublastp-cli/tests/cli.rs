//! End-to-end tests of the `cublastp` binary: spawn the real executable
//! and assert on its stdout/stderr/exit codes.

use std::io::Write;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cublastp"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_fasta(path: &std::path::Path, records: &[(&str, &str)]) {
    let mut f = std::fs::File::create(path).unwrap();
    for (id, seq) in records {
        writeln!(f, ">{id}").unwrap();
        writeln!(f, "{seq}").unwrap();
    }
}

/// A deterministic “protein” string long enough to seed hits.
const CORE: &str = "MKVLWAARNDCQEGHILKMFPSTWYVMKVLWAARNDCQEGHILKMFPSTWYV";

#[test]
fn help_exits_zero_with_usage() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE:"));
    assert!(text.contains("--engine"));
}

#[test]
fn unknown_flag_exits_nonzero_with_usage_on_stderr() {
    let out = run(&["--demo", "--frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown option"));
    assert!(err.contains("USAGE:"));
    assert!(out.stdout.is_empty());
}

#[test]
fn missing_inputs_is_an_error() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("need --query and --db"));
}

#[test]
fn nonexistent_file_reports_path() {
    let out = run(&["--query", "/nonexistent/q.fa", "--db", "/nonexistent/d.fa"]);
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("/nonexistent/q.fa"));
}

#[test]
fn malformed_fault_plan_is_a_config_error() {
    let out = run(&["--demo", "--fault-plan", "flux-capacitor:perm"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--fault-plan"));
}

/// A flag the subcommand would never read is refused, not ignored: exit 2,
/// and the message names both. The schedule has no seed and the grouped
/// budget is a constant: those flags are unknown everywhere.
#[test]
fn flags_a_subcommand_ignores_are_config_errors() {
    for (subcommand, flag, value) in [
        ("serve", "--seed-mode", "grouped"),
        ("serve", "--devices", "2"),
    ] {
        let out = run(&[subcommand, "--demo", flag, value]);
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{subcommand} {flag}: {err}");
        let message = err.lines().next().unwrap_or_default();
        assert!(
            message.contains(subcommand) && message.contains(flag),
            "{message}"
        );
    }
    // A one-shard batch has no fleet for `--devices` to size.
    let out = run(&["--demo", "--devices", "2"]);
    let err = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(2), "--devices: {err}");
    assert!(
        err.lines().next().unwrap_or_default().contains("--devices"),
        "{err}"
    );
    for flag in ["--steal-seed", "--group-budget"] {
        let out = run(&["--demo", flag, "7"]);
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(err.contains(&format!("unknown option \"{flag}\"")), "{err}");
    }
}

#[test]
fn invalid_residue_in_fasta_is_an_input_error_with_location() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_badres_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let q = dir.join("q.fa");
    let d = dir.join("d.fa");
    write_fasta(&q, &[("probe", CORE)]);
    std::fs::write(&d, ">subject\nMKUV\n").unwrap();
    let out = run(&["--query", q.to_str().unwrap(), "--db", d.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("invalid residue 'U'"), "{err}");
    assert!(err.contains("record 1 (line 2)"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn transient_fault_recovers_and_exits_zero() {
    let out = run(&["--demo", "--fault-plan", "launch:x1"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recovered from 1 fault"), "{text}");
    assert!(text.contains("1 retry"), "{text}");
}

#[test]
fn permanent_fault_degrades_to_cpu_and_exits_zero() {
    let out = run(&["--demo", "--fault-plan", "alloc:perm"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("degraded to CPU"), "{text}");
}

#[test]
fn unrecoverable_device_fault_exits_four() {
    let out = run(&[
        "--demo",
        "--fault-plan",
        "d2h:perm",
        "--max-retries",
        "2",
        "--no-cpu-fallback",
    ]);
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("device"), "{err}");
    assert!(
        err.contains("2 attempts") || err.contains("after 2"),
        "{err}"
    );
}

#[test]
fn allvsall_hands_the_fault_plan_to_the_engine() {
    let out = run(&[
        "allvsall",
        "--demo",
        "--fault-plan",
        "alloc:perm",
        "--no-cpu-fallback",
    ]);
    assert_eq!(out.status.code(), Some(4));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("device fault"), "{err}");
}

#[test]
fn injected_panic_exits_five_with_summary_row() {
    let out = run(&["--demo", "--fault-plan", "panic:perm"]);
    assert_eq!(out.status.code(), Some(5));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("0 ok, 1 failed"), "{text}");
    assert!(text.contains("pipeline error"), "{text}");
}

#[test]
fn fasta_search_finds_planted_subject_on_every_engine() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let q = dir.join("q.fa");
    let d = dir.join("d.fa");
    write_fasta(&q, &[("probe", CORE)]);
    write_fasta(
        &d,
        &[
            ("decoy1", "GGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGG"),
            ("planted", &format!("PPPP{CORE}PPPP")),
            ("decoy2", "KKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKK"),
        ],
    );

    let mut tables = Vec::new();
    for engine in ["cublastp", "cpu", "cuda-blastp", "gpu-blastp"] {
        let out = run(&[
            "--query",
            q.to_str().unwrap(),
            "--db",
            d.to_str().unwrap(),
            "--engine",
            engine,
            "--max-hits",
            "3",
        ]);
        assert!(out.status.success(), "engine {engine}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("planted"), "engine {engine}: {text}");
        // Extract just the hit table for cross-engine comparison.
        let table: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("planted") || l.starts_with("decoy"))
            .collect();
        tables.push(table.join("\n"));
    }
    assert!(
        tables.windows(2).all(|w| w[0] == w[1]),
        "engines disagree:\n{tables:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn alignments_flag_prints_pairwise_blocks() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_aln_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let q = dir.join("q.fa");
    let d = dir.join("d.fa");
    write_fasta(&q, &[("probe", CORE)]);
    write_fasta(&d, &[("hitseq", CORE)]);
    let out = run(&[
        "--query",
        q.to_str().unwrap(),
        "--db",
        d.to_str().unwrap(),
        "--alignments",
        "--max-hits",
        "1",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Query "), "{text}");
    assert!(text.contains("Sbjct "), "{text}");
    assert!(text.contains("Identities = 52/52 (100%)"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crlf_fasta_is_parsed() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_crlf_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let q = dir.join("q.fa");
    let d = dir.join("d.fa");
    std::fs::write(&q, format!(">probe\r\n{CORE}\r\n")).unwrap();
    std::fs::write(&d, format!(">subject\r\n{CORE}\r\n")).unwrap();
    let out = run(&["--query", q.to_str().unwrap(), "--db", d.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains(&format!("({} letters)", CORE.len())),
        "CRLF terminator leaked into the sequence: {text}"
    );
    assert!(text.contains("subject"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multibyte_subject_id_does_not_panic() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_utf8_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let q = dir.join("q.fa");
    let d = dir.join("d.fa");
    write_fasta(&q, &[("probe", CORE)]);
    write_fasta(
        &d,
        &[("sübjéct_ëxtrêmely_löng_ünïcode_идентификатор", CORE)],
    );
    let out = run(&["--query", q.to_str().unwrap(), "--db", d.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout).unwrap().contains("sübjéct"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_and_metrics_flags_write_exports() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_obs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let prom = dir.join("metrics.prom");
    let mjson = dir.join("metrics.json");
    let out = run(&[
        "--demo",
        "--trace-out",
        trace.to_str().unwrap(),
        "--metrics-out",
        prom.to_str().unwrap(),
        "--phase-table",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("per-phase timing"), "{text}");
    assert!(text.contains("hit_detection"), "{text}");
    assert!(text.contains("gapped_extension"), "{text}");

    let trace_body = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_body.contains("\"traceEvents\""), "not a Chrome trace");
    assert!(trace_body.contains("gpu_phase"));
    assert!(trace_body.contains("gpu (modelled)"));

    let prom_body = std::fs::read_to_string(&prom).unwrap();
    assert!(
        prom_body.contains("# TYPE cublastp_hits_detected_total counter"),
        "{prom_body}"
    );
    assert!(prom_body.contains("cublastp_phase_ms"), "{prom_body}");

    // A .json metrics path selects the JSON exporter.
    let out = run(&["--demo", "--metrics-out", mjson.to_str().unwrap()]);
    assert!(out.status.success());
    let json_body = std::fs::read_to_string(&mjson).unwrap();
    assert!(json_body.trim_start().starts_with('{'), "{json_body}");
    assert!(json_body.contains("hits_detected_total"), "{json_body}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--trace-out` run's modelled device events: how many of each name
/// the `gpu (modelled)` track and the D2H track hold, and their summed
/// milliseconds.
fn modelled_events(trace: &std::path::Path) -> (Vec<(String, usize)>, f64, f64) {
    let body = std::fs::read_to_string(trace).unwrap();
    let doc = obs::json::parse(&body).expect("a JSON trace");
    let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    let str_of =
        |e: &obs::json::Value, k: &str| e.get(k).and_then(|v| v.as_str()).map(String::from);
    let mut counts: Vec<(String, usize)> = Vec::new();
    let (mut gpu_ms, mut d2h_ms) = (0.0, 0.0);
    for e in events
        .iter()
        .filter(|e| str_of(e, "cat").as_deref() == Some("modelled"))
    {
        let name = str_of(e, "name").unwrap();
        let ms = e.get("dur").and_then(|v| v.as_f64()).unwrap() / 1e3;
        match name.as_str() {
            "d2h_transfer" => d2h_ms += ms,
            "h2d_transfer" | "gapped_extension" | "traceback" => continue,
            _ => gpu_ms += ms,
        }
        match counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += 1,
            None => counts.push((name, 1)),
        }
    }
    (counts, gpu_ms, d2h_ms)
}

/// The milliseconds of the `--phase-table` rows `pick` selects.
fn phase_ms(table: &str, pick: impl Fn(&str) -> bool) -> f64 {
    (table.lines())
        .filter_map(|l| l.strip_prefix("# "))
        .filter(|l| l.contains(" DeviceModel ") && pick(l.split(' ').next().unwrap()))
        .map(|l| l.split_whitespace().nth(2).unwrap().parse::<f64>().unwrap())
        .sum()
}

#[test]
fn device_gapped_trace_draws_one_pass_per_shard_view() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_pass_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let shape = [
        "--demo",
        "--block-size",
        "32",
        "--shards",
        "3",
        "--phase-table",
    ];
    let mut legs_by_backend = Vec::new();
    for backend in ["gpu", "cpu"] {
        let mut args = shape.to_vec();
        args.extend([
            "--gapped-backend",
            backend,
            "--trace-out",
            trace.to_str().unwrap(),
        ]);
        let out = run(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let table = String::from_utf8(out.stdout).unwrap();
        let (counts, gpu_ms, d2h_ms) = modelled_events(&trace);
        let d2h_row = (table.lines())
            .find(|l| l.starts_with("# d2h_transfer "))
            .expect("a d2h row");
        let legs: usize = (d2h_row.split(" B in ").nth(1))
            .and_then(|s| s.split(" leg").next()?.parse().ok())
            .unwrap_or_else(|| panic!("{d2h_row}"));
        // One D2H event per leg, and as many launches of every kernel.
        for (name, n) in &counts {
            assert_eq!(*n, legs, "{backend}: {name} in {counts:?}");
        }
        let names: Vec<&str> = counts.iter().map(|(n, _)| n.as_str()).collect();
        let fine: &[&str] = if backend == "gpu" {
            &["gapped_extension_fine"]
        } else {
            &[]
        };
        assert_eq!(
            names,
            [&["hit_detection", "hit_tail"][..], fine, &["d2h_transfer"]].concat(),
            "{counts:?}"
        );
        // The events add up to the ledger's rows (printed to 3 decimals).
        let kernels = phase_ms(&table, |name| !name.ends_with("_transfer"));
        let d2h = phase_ms(&table, |name| name == "d2h_transfer");
        assert!(
            (gpu_ms - kernels).abs() < 2e-3,
            "{backend}: {gpu_ms} vs {table}"
        );
        assert!(
            (d2h_ms - d2h).abs() < 1e-3,
            "{backend}: {d2h_ms} vs {table}"
        );
        legs_by_backend.push(legs);
    }
    // The device backend's host reads nothing between a view's blocks:
    // one pass per shard view, where the CPU tail reads every block.
    assert_eq!(legs_by_backend[0], 3);
    assert!(legs_by_backend[1] > 3, "{legs_by_backend:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tabular_output_has_twelve_columns() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_tab_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let q = dir.join("q.fa");
    let d = dir.join("d.fa");
    write_fasta(&q, &[("probe", CORE)]);
    write_fasta(&d, &[("hitseq", CORE)]);
    let out = run(&[
        "--query",
        q.to_str().unwrap(),
        "--db",
        d.to_str().unwrap(),
        "--outfmt",
        "tab",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let hit_line = text
        .lines()
        .find(|l| l.starts_with("probe\t"))
        .expect("one tabular hit line");
    let cols: Vec<&str> = hit_line.split('\t').collect();
    assert_eq!(cols.len(), 12, "{hit_line}");
    assert_eq!(cols[1], "hitseq");
    assert_eq!(cols[2], "100.000"); // pident
    assert_eq!(cols[3], CORE.len().to_string()); // alignment length
    assert_eq!(cols[4], "0"); // mismatches
    assert_eq!(cols[5], "0"); // gap opens
    assert_eq!(cols[6], "1"); // 1-based qstart
    assert_eq!(cols[7], CORE.len().to_string()); // inclusive qend
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_subcommand_streams_blocks_and_exits_zero() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let q = dir.join("q.fa");
    let d = dir.join("d.fa");
    write_fasta(&q, &[("probe", CORE)]);
    write_fasta(
        &d,
        &[
            ("planted", &format!("PPPP{CORE}PPPP")),
            ("decoy1", "GGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGG"),
            ("decoy2", "KKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKK"),
        ],
    );
    let out = run(&[
        "serve",
        "--query",
        q.to_str().unwrap(),
        "--db",
        d.to_str().unwrap(),
        "--requests",
        "5",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // Per-block streaming rows, both priority classes, and the summary.
    assert!(text.contains("block 1/1 streamed"), "{text}");
    assert!(text.contains("q4 bulk: ok"), "{text}");
    assert!(text.contains("q5 interactive: ok"), "{text}");
    assert!(
        text.contains("# serve summary: 5 requests, 5 ok, 0 deadline-exceeded, 0 shed"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_deadline_run_exits_six_with_typed_rows() {
    let out = run(&["serve", "--demo", "--requests", "2", "--deadline-ms", "0"]);
    assert_eq!(out.status.code(), Some(6));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("deadline error: deadline exceeded"), "{text}");
    assert!(text.contains("2 deadline-exceeded"), "{text}");
}

#[test]
fn serve_degrades_gapped_faults_without_shedding() {
    let out = run(&[
        "serve",
        "--demo",
        "--requests",
        "2",
        "--gapped-backend",
        "gpu",
        "--fault-plan",
        "gapped-launch:perm",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("2 ok, 0 deadline-exceeded, 0 shed"), "{text}");
}

#[test]
fn db_build_verify_and_image_search_roundtrip() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_db_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let q = dir.join("q.fa");
    let d = dir.join("d.fa");
    let img = dir.join("d.cdb");
    write_fasta(&q, &[("probe", CORE)]);
    write_fasta(
        &d,
        &[
            ("decoy1", "GGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGG"),
            ("planted", &format!("PPPP{CORE}PPPP")),
            ("decoy2", "KKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKK"),
        ],
    );

    let out = run(&[
        "db",
        "build",
        "--db",
        d.to_str().unwrap(),
        "--out",
        img.to_str().unwrap(),
        "--block-size",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("format v1, 3 sequences"), "{text}");
    assert!(text.contains("2 blocks (block-size 2)"), "{text}");

    let out = run(&["db", "verify", img.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("ok, format v1, 3 sequences"), "{text}");
    assert!(text.contains("section residues"), "{text}");

    // Searching the image is byte-identical to searching the FASTA at
    // the image's block size, with zero flatten passes.
    let tab = |db_args: &[&str]| {
        let mut argv = vec!["--query", q.to_str().unwrap(), "--outfmt", "tab"];
        argv.extend_from_slice(db_args);
        let out = run(&argv);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8(out.stdout).unwrap(),
            String::from_utf8(out.stderr).unwrap(),
        )
    };
    let (direct, _) = tab(&["--db", d.to_str().unwrap(), "--block-size", "2"]);
    let (mapped, mapped_err) = tab(&["--db-image", img.to_str().unwrap()]);
    assert_eq!(direct, mapped, "image search diverged from FASTA search");
    assert!(mapped.contains("planted"), "{mapped}");
    assert!(mapped_err.contains("flattens=0"), "{mapped_err}");

    // The many-against-many runner searches the same mapping: no flatten.
    let out = run(&["allvsall", "--db-image", img.to_str().unwrap()]);
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("2 blocks (block-size 2), flattens=0"), "{err}");
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("planted\tplanted\t"));

    // A contradictory --block-size is a config error, not silent re-partitioning.
    let out = run(&[
        "--query",
        q.to_str().unwrap(),
        "--db-image",
        img.to_str().unwrap(),
        "--block-size",
        "7",
    ]);
    assert_eq!(out.status.code(), Some(2));
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard set goes through every runner the other database kinds do,
/// and a flag that contradicts what it stores is a config error.
#[test]
fn shard_set_searches_serves_and_refuses_contradictions() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_set_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let q = dir.join("q.fa");
    let d = dir.join("d.fa");
    write_fasta(&q, &[("probe", CORE)]);
    write_fasta(
        &d,
        &[
            ("decoy1", "GGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGG"),
            ("planted", &format!("PPPP{CORE}PPPP")),
            ("decoy2", "KKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKKK"),
        ],
    );
    let set_dir = dir.join("set");
    let out = run(&[
        "db",
        "shard",
        "--db",
        d.to_str().unwrap(),
        "--out",
        set_dir.to_str().unwrap(),
        "--shards",
        "3",
        "--block-size",
        "2",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("3 shards, 3 sequences"), "{text}");
    assert!(
        text.contains("shard 1   shard001.cdb start 1 (1 sequences"),
        "{text}"
    );
    let set = set_dir.join("shards.cdbset");

    let search = |extra: &[&str]| {
        let mut argv = vec!["--query", q.to_str().unwrap(), "--outfmt", "tab"];
        argv.extend_from_slice(extra);
        run(&argv)
    };
    let flat = search(&["--db", d.to_str().unwrap(), "--block-size", "2"]);
    // As stored, and with flags that agree with what is stored.
    for agree in [&[][..], &["--shards", "3", "--block-size", "2"]] {
        let mut argv = vec!["--db-set", set.to_str().unwrap()];
        argv.extend_from_slice(agree);
        let mapped = search(&argv);
        assert!(mapped.status.success(), "{agree:?}");
        assert_eq!(
            flat.stdout, mapped.stdout,
            "set search diverged ({agree:?})"
        );
        let err = String::from_utf8(mapped.stderr).unwrap();
        assert!(err.contains("# shards: 3 devices=1"), "{err}");
        assert!(
            err.contains("(3 shard images) format v1, 3 blocks"),
            "{err}"
        );
        assert!(err.contains("flattens=0"), "{err}");
    }
    for contradiction in [["--shards", "5"], ["--block-size", "7"]] {
        let mut argv = vec!["--db-set", set.to_str().unwrap()];
        argv.extend_from_slice(&contradiction);
        let out = search(&argv);
        assert_eq!(out.status.code(), Some(2), "{contradiction:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("contradicts"), "{err}");
    }

    let out = run(&[
        "serve",
        "--query",
        q.to_str().unwrap(),
        "--db-set",
        set.to_str().unwrap(),
        "--requests",
        "4",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("# serve shards: 3\n"), "{text}");
    assert!(text.contains("block 3/3 streamed"), "{text}");
    assert!(text.contains("# serve summary: 4 requests, 4 ok"), "{text}");

    // The demo corpus builds and shards like a FASTA database.
    let demo_img = dir.join("demo.cdb");
    let out = run(&["db", "build", "--demo", "--out", demo_img.to_str().unwrap()]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("# db build: demo_db -> "), "{text}");
    assert!(text.contains("1000 sequences"), "{text}");
    assert!(text.contains("1 blocks (block-size 1024)"), "{text}");
    let demo_set = dir.join("demo_set");
    let out = run(&[
        "db",
        "shard",
        "--demo",
        "--out",
        demo_set.to_str().unwrap(),
        "--shards",
        "2",
    ]);
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("2 shards, 1000 sequences"), "{text}");
    assert!(text.contains("shard 1   shard001.cdb start 500"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_db_image_exits_eight_with_typed_error() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_dbcorrupt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let d = dir.join("d.fa");
    let img = dir.join("d.cdb");
    write_fasta(&d, &[("planted", &format!("PPPP{CORE}PPPP"))]);
    let out = run(&[
        "db",
        "build",
        "--db",
        d.to_str().unwrap(),
        "--out",
        img.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let good = std::fs::read(&img).unwrap();

    // (corruption, expected error-kind fragment)
    type Corruptor = Box<dyn Fn(&mut Vec<u8>)>;
    let cases: [(&str, Corruptor, &str); 4] = [
        (
            "flipped magic",
            Box::new(|b: &mut Vec<u8>| b[0] ^= 0xFF),
            "bad-magic",
        ),
        (
            "truncation",
            Box::new(|b: &mut Vec<u8>| b.truncate(40)),
            "truncated",
        ),
        (
            "future version",
            Box::new(|b: &mut Vec<u8>| b[8] = 99),
            "bad-version",
        ),
        (
            "payload bit flip",
            Box::new(|b: &mut Vec<u8>| {
                let last = b.len() - 1;
                b[last] ^= 0x01;
            }),
            "section-crc",
        ),
    ];
    for (what, corrupt, kind) in &cases {
        let mut bytes = good.clone();
        corrupt(&mut bytes);
        let bad = dir.join("bad.cdb");
        std::fs::write(&bad, &bytes).unwrap();
        for argv in [
            vec!["db", "verify", bad.to_str().unwrap()],
            vec!["--demo", "--db-image", bad.to_str().unwrap()],
        ] {
            let out = run(&argv);
            assert_eq!(out.status.code(), Some(8), "{what}: {argv:?}");
            let err = String::from_utf8(out.stderr).unwrap();
            assert!(err.contains("database image"), "{what}: {err}");
            assert!(err.contains(kind), "{what}: {err}");
            assert!(!err.contains("panicked"), "{what}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_runs_from_a_mapped_image() {
    let dir = std::env::temp_dir().join(format!("cublastp_cli_dbserve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let q = dir.join("q.fa");
    let d = dir.join("d.fa");
    let img = dir.join("d.cdb");
    write_fasta(&q, &[("probe", CORE)]);
    write_fasta(&d, &[("planted", &format!("PPPP{CORE}PPPP"))]);
    let out = run(&[
        "db",
        "build",
        "--db",
        d.to_str().unwrap(),
        "--out",
        img.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run(&[
        "serve",
        "--query",
        q.to_str().unwrap(),
        "--db-image",
        img.to_str().unwrap(),
        "--requests",
        "3",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("# serve summary: 3 requests, 3 ok"), "{text}");
    // Fault injection reaches an image-backed server like any other: the
    // transient launch fault is retried and shows in the request's row.
    let out = run(&[
        "serve",
        "--query",
        q.to_str().unwrap(),
        "--db-image",
        img.to_str().unwrap(),
        "--requests",
        "3",
        "--fault-plan",
        "launch:x1",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("# serve summary: 3 requests, 3 ok"), "{text}");
    assert!(text.contains("recovered from 1 fault (1 retry"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn phase_table_reports_recovery_waits_separately() {
    let out = run(&["--demo", "--phase-table", "--fault-plan", "launch:x1"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let row = text
        .lines()
        .find(|l| l.starts_with("# recovery waits:"))
        .expect("recovery waits row");
    assert!(row.contains("queue"), "{row}");
    assert!(row.contains("retry"), "{row}");
    assert!(row.contains("excluded from phase totals"), "{row}");
    // Every phase row names its clock, the one cross-clock sum included.
    for (phase, clock) in [
        ("hit_detection", "DeviceModel"),
        ("d2h_transfer", "DeviceModel"),
        ("gapped_extension", "HostWall"),
        ("traceback", "HostWall"),
        ("other (setup+merge)", "HostWall"),
        ("total (serial)", "ScheduleModel"),
    ] {
        let row = text.lines().find(|l| l.starts_with(&format!("# {phase} ")));
        let row = row.unwrap_or_else(|| panic!("no {phase} row in {text}"));
        assert!(row.split_whitespace().any(|w| w == clock), "{row}");
    }
    // Threads requested (the default 4), available, and the ones that ran.
    let threads = (text.lines())
        .find(|l| l.starts_with("# cpu tail threads: 4 requested, "))
        .expect("cpu tail threads row");
    let ran: usize = (threads.split(", ").nth(2))
        .and_then(|s| s.strip_suffix(" ran")?.parse().ok())
        .unwrap_or_else(|| panic!("{threads}"));
    assert!((1..=4).contains(&ran), "{threads}");
    // A retried launch spent real host time on the retry path.
    let retry_ms: f64 = row
        .split("retry ")
        .nth(1)
        .and_then(|s| s.split(" ms").next())
        .unwrap()
        .parse()
        .unwrap();
    assert!(retry_ms > 0.0, "{row}");
}
