//! `cublastp` — command-line protein sequence search.
//!
//! ```text
//! cublastp --query queries.fasta --db database.fasta [options]
//! cublastp --demo                # generate demo FASTA files and search them
//! ```
//!
//! Searches every query in the query FASTA against the database FASTA
//! with the fine-grained cuBLASTP pipeline (on the simulated K20c) and
//! prints a BLAST-like report. `--engine` switches to the CPU reference
//! or the coarse-grained baselines — all of them produce identical hits.

// Library code returns typed errors instead of panicking (DESIGN.md §3.3);
// `cargo clippy -- -D warnings` in CI enforces it outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

/// Print to stdout, exiting quietly when the reader closed the pipe
/// (`cublastp --demo | head` must not panic).
macro_rules! out {
    ($($t:tt)*) => {{
        use std::io::Write;
        if writeln!(std::io::stdout(), $($t)*).is_err() {
            std::process::exit(0);
        }
    }};
}

mod args;
mod report;

use args::{Args, DbCmd, Engine};
use bio_seq::fasta::read_fasta_strict;
use bio_seq::{Sequence, SequenceDb};
use blast_cpu::search::{search_parallel, search_sequential, SearchEngine};
use cublastp::gapped_device::FINE_GAPPED_KERNEL;
use cublastp::{
    search_all_vs_all, search_batch_resident, search_sharded_batch, BatchOptions, CuBlastpConfig,
    CuBlastpResult, DbSource, DevicePass, FleetSchedule, GappedBackend, RecoveryReport,
    SearchError, SeedMode, ShardedBatchOptions, ShardedDb, ShardedOptions, DEFAULT_GROUP_BUDGET,
};
use cublastp_db::{build_shard_set, DbImage, ShardSetManifest};
use gpu_sim::{DeviceConfig, FaultInjector};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Exit code for configuration problems (bad flags, invalid geometry).
const EXIT_CONFIG: u8 = 2;
/// Exit code for input problems (missing or malformed FASTA).
const EXIT_INPUT: u8 = 3;
/// Exit code for device faults that survived retry and degradation.
const EXIT_DEVICE: u8 = 4;
/// Exit code for pipeline failures (worker panics, channel teardown).
const EXIT_PIPELINE: u8 = 5;
/// Exit code for a request whose deadline expired mid-search.
const EXIT_DEADLINE: u8 = 6;
/// Exit code for a request refused by the admission controller.
const EXIT_OVERLOADED: u8 = 7;
/// Exit code for a corrupt, truncated, or version-mismatched `.cdb`
/// database image (every corruption is a typed error, never a panic).
const EXIT_DB: u8 = 8;

/// Map a search error to the exit code of its category.
fn exit_code_for(err: &SearchError) -> u8 {
    match err.category() {
        "config" => EXIT_CONFIG,
        "input" => EXIT_INPUT,
        "device" => EXIT_DEVICE,
        "deadline" => EXIT_DEADLINE,
        "overloaded" => EXIT_OVERLOADED,
        "db" => EXIT_DB,
        _ => EXIT_PIPELINE,
    }
}

/// Print a `#` summary row: stdout normally, stderr under `--outfmt tab`
/// so stdout stays machine-readable (one tab line per hit, nothing else).
fn note(args: &Args, row: &str) {
    if args.outfmt == args::OutFmt::Tab {
        eprintln!("{row}");
    } else {
        out!("{row}");
    }
}

/// The `--phase-table` report (Fig. 11-style breakdown): the phase rows
/// of the batch's ledger — every query's result absorbed into one — each
/// with the clock it is on; `passes` are the device passes the batch was
/// billed in.
fn print_phase_table(batch: &CuBlastpResult, passes: &[DevicePass], queries: usize, args: &Args) {
    let table = batch.phase_rows();
    let total = table.last().map_or(0.0, |t| t.ms);
    out!(
        "# per-phase timing, summed over {} quer{} (simulated device + measured CPU):",
        queries,
        if queries == 1 { "y" } else { "ies" }
    );
    let pct = |ms: f64| if total > 0.0 { 100.0 * ms / total } else { 0.0 };
    out!("# {:<28} {:<13} {:>10} {:>7}", "phase", "clock", "ms", "%");
    // What the D2H legs carried, in how many legs — one per device pass
    // that downloaded anything: a block on the CPU backend, a shard view
    // under `--gapped-backend gpu`, shared by the queries of a flat batch
    // (of a grouped round), or of a fleet device's group on one shard
    // under `--shards` — in how many passes of how many queries, and how
    // few of the computed extensions that is.
    let legs = passes.iter().filter(|p| p.d2h_ms > 0.0).count();
    let members = |pick: fn(usize, usize) -> usize| {
        passes.iter().map(|p| p.members).reduce(pick).unwrap_or(0)
    };
    let (fewest, most) = (members(usize::min), members(usize::max));
    let d2h_note = format!(
        "  {} B in {legs} leg{} ({} device pass{} of {}{} quer{}), \
         {} / {} extensions reached the trigger",
        batch.counts.d2h_bytes,
        if legs == 1 { "" } else { "s" },
        passes.len(),
        if passes.len() == 1 { "" } else { "es" },
        if fewest < most {
            format!("{fewest}–")
        } else {
            String::new()
        },
        most,
        if most == 1 { "y" } else { "ies" },
        batch.counts.triggered,
        batch.counts.extensions,
    );
    for row in &table {
        let clock = format!("{:?}", row.clock);
        let note = if row.name == "d2h_transfer" {
            d2h_note.as_str()
        } else {
            ""
        };
        out!(
            "# {:<28} {clock:<13} {:>10.3} {:>6.1}%{note}",
            row.name,
            row.ms,
            pct(row.ms)
        );
    }
    let dispatch = blast_cpu::simd::dispatch_report();
    out!(
        "# cpu simd dispatch: {} (detected {}{})",
        dispatch.active.name(),
        dispatch.detected.name(),
        if dispatch.forced_scalar_env {
            ", CUBLASTP_FORCE_SCALAR=1"
        } else {
            ""
        }
    );
    out!("# gapped backend: {}", args.gapped_backend.name());
    // The threads of every search: under `--gapped-backend gpu` they run
    // the device pass's DP as well as the reports, so K counts those too.
    out!(
        "# cpu tail threads: {} requested, {} available, {} ran",
        args.threads,
        blast_cpu::par::executed_threads(usize::MAX),
        batch.tail_threads_ran
    );
    // Host wait time, kept out of the phase totals above so retries
    // and queueing are no longer indistinguishable from compute, and when
    // the last query completed: queries overlap, so the waits alone do
    // not place it.
    out!(
        "# recovery waits: queue {:.3} ms, retry {:.3} ms, last completed at {:.3} ms \
         (host wall-clock, excluded from phase totals)",
        batch.recovery.queue_wait_us as f64 / 1e3,
        batch.recovery.retry_wait_us as f64 / 1e3,
        batch.recovery.completed_us as f64 / 1e3,
    );
    let t = &batch.timing;
    if t.serial_ms > 0.0 {
        out!(
            "# pipeline overlap: {:.3} ms overlapped vs {:.3} ms serial ({:.1}% hidden)",
            t.overlapped_ms,
            t.serial_ms,
            100.0 * (1.0 - t.overlapped_ms / t.serial_ms)
        );
    }
}

/// Print the `# gapped backend:` summary row — the grep target of the
/// CI backend-equivalence job, like the `# grouped seeding:` row for
/// grouped seeding — plus a loud warning when any block silently left
/// the device gapped path.
fn print_gapped_summary(batch: &CuBlastpResult, args: &Args) {
    let degraded_gapped = batch.recovery.degraded_gapped;
    note(
        args,
        &format!(
            "# gapped backend: {} fine-kernel-ms={:.3} degraded-gapped={}",
            args.gapped_backend.name(),
            batch.kernel_ms_of(FINE_GAPPED_KERNEL).unwrap_or(0.0),
            degraded_gapped,
        ),
    );
    if args.gapped_backend == GappedBackend::Gpu && degraded_gapped > 0 {
        eprintln!(
            "# warning: gapped device backend degraded {} block{} to the CPU tail",
            degraded_gapped,
            if degraded_gapped == 1 { "" } else { "s" },
        );
    }
}

/// Write the accumulated trace / metrics exports requested by
/// `--trace-out` / `--metrics-out`. Returns an error string on I/O
/// failure.
fn write_observability(args: &Args) -> Result<(), String> {
    if let Some(path) = &args.trace_out {
        let trace = obs::take_trace();
        std::fs::write(path, trace.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "# trace: {} events -> {path} (load in Perfetto or chrome://tracing)",
            trace.events.len()
        );
    }
    if let Some(path) = &args.metrics_out {
        let body = if path.ends_with(".json") {
            obs::metrics().to_json()
        } else {
            obs::metrics().to_prometheus()
        };
        std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("# metrics -> {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprintln!("{}", args::USAGE);
            return ExitCode::from(EXIT_CONFIG);
        }
    };
    if args.help {
        out!("{}", args::USAGE);
        return ExitCode::SUCCESS;
    }
    if let Some(cmd) = args.db_cmd {
        return run_db(cmd, &args);
    }

    let (queries, db) = match load_inputs(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(exit_code_for(&e));
        }
    };

    if args.serve {
        return run_serve(&queries, db, &args);
    }
    if args.allvsall {
        return run_allvsall(&queries, &db, &args);
    }
    // A one-shard batch has no fleet to schedule: `--devices` would be
    // ignored, so it is refused as `serve` refuses it.
    if args.devices != 1 && db.num_shards() == 1 {
        let e =
            SearchError::config("--devices needs a sharded database (--shards > 1 or --db-set)");
        eprintln!("error: {e}");
        return ExitCode::from(exit_code_for(&e));
    }

    note(
        &args,
        &format!(
            "# cublastp: {} quer{} vs {} ({} sequences, {} residues), engine = {}",
            queries.len(),
            if queries.len() == 1 { "y" } else { "ies" },
            db.name(),
            db.total_sequences(),
            db.total_residues(),
            args.engine.name(),
        ),
    );

    // The database was parsed and made resident once above: every query
    // of the stream searches the resident copy, and every successful
    // query's ledger is absorbed into the batch's.
    obs::arm(args.trace_out.is_some(), args.metrics_out.is_some());
    let mut batch = CuBlastpResult::default();
    let mut passes = Vec::new();
    let t_batch = std::time::Instant::now();
    let failures = if args.engine == Engine::CuBlastp {
        run_batch(&queries, &db, &args, &mut batch, &mut passes)
    } else {
        for query in &queries {
            let t0 = std::time::Instant::now();
            if let Some((report, line)) = baseline_search(query, &db, &args) {
                report::print(query, &db, &report, &args, t0.elapsed(), &line);
            }
        }
        Vec::new()
    };
    let batch_wall = t_batch.elapsed();
    print_residency(&db);
    if args.phase_table && args.outfmt != args::OutFmt::Tab {
        // The baseline engines keep no ledger: an all-zero table.
        let searched = match args.engine {
            Engine::CuBlastp => queries.len() - failures.len(),
            _ => 0,
        };
        print_phase_table(&batch, &passes, searched, &args);
    }
    if args.engine == Engine::CuBlastp {
        print_gapped_summary(&batch, &args);
    }
    if let Err(e) = write_observability(&args) {
        eprintln!("error: {e}");
        return ExitCode::from(EXIT_INPUT);
    }

    note(
        &args,
        &format!(
            "# batch: {} quer{} in {:.2} ms ({:.2} queries/sec), {} ok, {} failed",
            queries.len(),
            if queries.len() == 1 { "y" } else { "ies" },
            batch_wall.as_secs_f64() * 1e3,
            queries.len() as f64 / batch_wall.as_secs_f64().max(1e-12),
            queries.len() - failures.len(),
            failures.len(),
        ),
    );
    for (i, id, err) in &failures {
        note(
            &args,
            &format!("# query {} ({id}): {} error: {err}", i + 1, err.category()),
        );
    }
    match failures.first() {
        Some((_, _, err)) => ExitCode::from(exit_code_for(err)),
        None => ExitCode::SUCCESS,
    }
}

/// The `serve` subcommand: replay the query stream through the
/// admission-controlled server (cublastp-serve, DESIGN.md §3.8),
/// streaming per-block progress rows and reporting each request's
/// outcome. Shed and expired requests are *expected* outcomes of an
/// overloaded service, so the run exits 0 as long as at least one
/// request completed; a run where every request failed exits with the
/// first failure's code (6 deadline, 7 overloaded, …).
fn run_serve(queries: &[Sequence], db: ShardedDb, args: &Args) -> ExitCode {
    use cublastp_serve::{Event, Request, ServeConfig, Server};
    use std::time::Duration;

    obs::arm(args.trace_out.is_some(), args.metrics_out.is_some());
    let (shards, search_cfg) = (db.num_shards(), search_config(args, &db));
    let serve_cfg = ServeConfig {
        workers: args.serve_workers,
        reserved_interactive_workers: usize::from(args.serve_workers > 1),
        queue_capacity: args.serve_queue_capacity,
        shards,
        default_deadline: args.serve_deadline_ms.map(Duration::from_millis),
        ..ServeConfig::default()
    };
    let injector = (!args.fault_plan.is_empty())
        .then(|| Arc::new(FaultInjector::new(args.fault_plan.clone())));
    // The open handle becomes generation 1 as it is (later generations
    // arrive via hot swap, not process restart), so the residency row is
    // final here: requests search it, nothing re-flattens.
    print_residency(&db);
    let server = Server::with_injector(
        db,
        args.params(),
        search_cfg,
        DeviceConfig::k20c(),
        serve_cfg,
        injector,
    );
    let server = match server {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: serve: {e}");
            return ExitCode::from(exit_code_for(&e));
        }
    };
    out!(
        "# serve: {} worker{}, queue capacity {}, deadline {}, {} database blocks/search",
        args.serve_workers,
        if args.serve_workers == 1 { "" } else { "s" },
        args.serve_queue_capacity,
        args.serve_deadline_ms
            .map_or_else(|| "none".to_string(), |ms| format!("{ms} ms")),
        server.num_blocks(),
    );
    if shards > 1 {
        out!("# serve shards: {shards}");
    }

    let mut handles = Vec::new();
    let mut first_error: Option<SearchError> = None;
    let mut shed = 0usize;
    for i in 0..args.serve_requests {
        let query = queries[i % queries.len()].clone();
        // Every fourth request is bulk-class: enough to exercise the
        // weighted scheduler and the shed-bulk ladder rung in a demo run.
        let req = if i % 4 == 3 {
            Request::bulk(query, "cli-bulk")
        } else {
            Request::interactive(query, "cli")
        };
        let class = req.priority.name();
        match server.submit(req) {
            Ok(h) => handles.push((i, h)),
            Err(e) => {
                out!("# serve q{} {class}: refused: {e}", i + 1);
                if matches!(e, SearchError::Overloaded { .. }) {
                    shed += 1;
                }
                first_error.get_or_insert(e);
            }
        }
    }

    let mut ok = 0usize;
    let mut deadline = 0usize;
    let mut latencies = Vec::new();
    for (i, h) in handles {
        let class = h.priority.name();
        loop {
            match h.next_event() {
                Some(Event::Block {
                    block,
                    blocks_total,
                    partial,
                }) => {
                    out!(
                        "# serve q{} {class}: block {}/{blocks_total} streamed ({} hit{})",
                        i + 1,
                        block + 1,
                        partial.hits.len(),
                        if partial.hits.len() == 1 { "" } else { "s" },
                    );
                }
                Some(Event::Done(result)) => {
                    match *result {
                        Ok(r) => {
                            ok += 1;
                            latencies.push(r.queue_wait_ms + r.service_ms);
                            out!(
                                "# serve q{} {class}: ok, {} hits, queue-wait {:.2} ms, \
                                 service {:.2} ms{}{}",
                                i + 1,
                                r.result.report.hits.len(),
                                r.queue_wait_ms,
                                r.service_ms,
                                if r.degraded_placement {
                                    " (coarse gapped placement)"
                                } else {
                                    ""
                                },
                                recovery_note(&r.result.recovery),
                            );
                        }
                        Err(e) => {
                            out!("# serve q{} {class}: {} error: {e}", i + 1, e.category());
                            if e.category() == "deadline" {
                                deadline += 1;
                            }
                            first_error.get_or_insert(e);
                        }
                    }
                    break;
                }
                // Unreachable by the serve contract (every admitted
                // request ends in exactly one Done); keep it loud.
                None => {
                    eprintln!(
                        "# serve q{} {class}: worker channel closed without a result",
                        i + 1
                    );
                    first_error.get_or_insert(SearchError::config(
                        "serve: worker channel closed without a result",
                    ));
                    break;
                }
            }
        }
    }
    latencies.sort_by(f64::total_cmp);
    let p50 = latencies
        .get(latencies.len().saturating_sub(1) / 2)
        .copied()
        .unwrap_or(0.0);
    out!(
        "# serve summary: {} requests, {} ok, {} deadline-exceeded, {} shed, p50 latency {:.2} ms",
        args.serve_requests,
        ok,
        deadline,
        shed,
        p50,
    );
    if let Err(e) = write_observability(args) {
        eprintln!("error: {e}");
        return ExitCode::from(EXIT_INPUT);
    }
    match first_error {
        Some(e) if ok == 0 => ExitCode::from(exit_code_for(&e)),
        _ => ExitCode::SUCCESS,
    }
}

/// The built-in synthetic demo database (the `--demo` search corpus).
fn demo_db() -> SequenceDb {
    let query = bio_seq::generate::make_query(220);
    let spec = bio_seq::generate::DbSpec {
        name: "demo_db",
        num_sequences: 1_000,
        mean_length: 260,
        homolog_fraction: 0.02,
        seed: 2024,
    };
    bio_seq::generate::generate_db(&spec, &query).db
}

/// The smaller `allvsall --demo` corpus: every sequence doubles as a
/// query, so the demo stays a sub-second run instead of a 10⁶-pair one.
fn demo_allvsall_db() -> SequenceDb {
    let query = bio_seq::generate::make_query(150);
    let spec = bio_seq::generate::DbSpec {
        name: "demo_allvsall",
        num_sequences: 40,
        mean_length: 160,
        homolog_fraction: 0.3,
        seed: 77,
    };
    bio_seq::generate::generate_db(&spec, &query).db
}

/// Read a FASTA file strictly; an unreadable, malformed or empty file is
/// an `input` error naming the path.
fn read_fasta_file(path: &str) -> Result<Vec<Sequence>, SearchError> {
    let input = |e: &dyn std::fmt::Display| SearchError::input(format!("{path}: {e}"));
    let file = File::open(path).map_err(|e| input(&e))?;
    let records = read_fasta_strict(BufReader::new(file)).map_err(|e| input(&e))?;
    if records.is_empty() {
        return Err(input(&"no sequences"));
    }
    Ok(records)
}

/// Open the database the flags name — `--db-set`, `--db-image`, `--demo`
/// or the `--db` FASTA, in that order — as the one resident handle every
/// runner takes. A corrupt or stale image is a typed `db` error and a
/// flag that contradicts what a file stores a `config` error, here,
/// before any search starts ([`ShardedDb::open`] holds the rules).
fn open_database(args: &Args) -> Result<ShardedDb, SearchError> {
    // The `db` subcommands read the database whole: `--shards` there is
    // how many images `db shard` writes.
    let shards = if args.db_cmd.is_some() {
        1
    } else {
        args.shards
    };
    let open = |source: DbSource<'_>| ShardedDb::open(source, shards, args.block_size);
    if let Some(path) = &args.db_set {
        let manifest = ShardSetManifest::load(Path::new(path))?;
        let images = manifest.open_images(Path::new(path))?;
        open(DbSource::Set {
            name: &manifest.name,
            images: &images,
        })
    } else if let Some(path) = &args.db_image {
        open(DbSource::Image(&DbImage::open(Path::new(path))?))
    } else if args.demo {
        open(DbSource::Inline(if args.allvsall {
            demo_allvsall_db()
        } else {
            demo_db()
        }))
    } else {
        let path = (args.db.as_ref()).ok_or_else(|| SearchError::input("missing --db <fasta>"))?;
        let subjects = read_fasta_file(path)?;
        open(DbSource::Inline(SequenceDb::new(path.clone(), subjects)))
    }
}

/// The search configuration the flags imply, partitioned the way `db` is
/// (an image or a set fixes the block size).
fn search_config(args: &Args, db: &ShardedDb) -> CuBlastpConfig {
    CuBlastpConfig {
        db_block_size: db.block_size(),
        ..args.cublastp_config()
    }
}

/// The `# db image:` residency row of a database opened from `.cdb`
/// file(s), image or set alike. Stderr so `--outfmt tab` stdout stays
/// machine-readable; the CI equivalence jobs grep it for `flattens=0`
/// (the process flattens nothing but its database).
fn print_residency(db: &ShardedDb) {
    if let Some(origin) = db.image_origin() {
        eprintln!(
            "# db image: {} format v{}, {} blocks (block-size {}), flattens={}",
            origin.label,
            origin.format_version,
            origin.blocks,
            db.block_size(),
            cublastp::flatten_count(),
        );
    }
}

/// The query stream and the open database.
fn load_inputs(args: &Args) -> Result<(Vec<Sequence>, ShardedDb), SearchError> {
    // Read the query FASTA first so its errors surface before database
    // errors; `--demo` synthesizes queries and `allvsall` without
    // `--query` defaults to the database against itself.
    let from_file = match &args.query {
        Some(path) if !args.demo => Some(read_fasta_file(path)?),
        _ => None,
    };
    let db = open_database(args)?;
    let queries = match from_file {
        Some(queries) => queries,
        _ if args.allvsall => (0..db.total_sequences())
            .map(|i| db.sequence(i).clone())
            .collect(),
        _ if args.demo => vec![bio_seq::generate::make_query(220)],
        _ => return Err(SearchError::input("missing --query <fasta>")),
    };
    Ok((queries, db))
}

/// The `db` subcommand: `db build` serialises a database (FASTA, the
/// demo corpus — anything [`open_database`] opens) into a versioned,
/// checksummed `.cdb` image; `db shard` splits one into per-shard images
/// plus a manifest; `db verify` maps an image and runs the full
/// validation pass. Every corruption is a typed error and a `db` exit
/// (8) — never a panic.
fn run_db(cmd: DbCmd, args: &Args) -> ExitCode {
    let done = match cmd {
        DbCmd::Verify => verify_image(args.db_image.as_deref().unwrap_or_default()),
        DbCmd::Build | DbCmd::Shard => open_database(args).and_then(|db| {
            // Opened at one shard: the whole database is shard 0.
            let whole = &db.shards()[0].db;
            let block_size = db.block_size();
            if cmd == DbCmd::Build {
                build_image(whole, block_size, args.out.as_deref().unwrap_or("db.cdb"))
            } else {
                let dir = Path::new(args.out.as_deref().unwrap_or("shards"));
                build_set(whole, block_size, args.shards, dir)
            }
        }),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(exit_code_for(&e))
        }
    }
}

/// `db build`: write `db` as one image at `out_path`.
fn build_image(db: &SequenceDb, block_size: usize, out_path: &str) -> Result<(), SearchError> {
    let summary = cublastp_db::build_to_file(db, block_size, Path::new(out_path))?;
    out!(
        "# db build: {} -> {out_path}: format v{}, {} sequences, {} residues, \
         {} blocks (block-size {block_size}), {} bytes",
        db.name(),
        cublastp_db::FORMAT_VERSION,
        summary.sequences,
        summary.residues,
        summary.blocks,
        summary.bytes,
    );
    Ok(())
}

/// `db verify`: map `path` and run the full validation pass.
fn verify_image(path: &str) -> Result<(), SearchError> {
    let s = DbImage::open(Path::new(path))?.summary();
    out!(
        "# db verify: {path}: ok, format v{}, {} sequences, {} residues, \
         {} blocks (block-size {}), {} bytes",
        s.format_version,
        s.sequences,
        s.residues,
        s.blocks,
        s.block_size,
        s.bytes,
    );
    for sec in &s.sections {
        out!(
            "#   section {:<12} {:>10} bytes crc32 {:08x}",
            sec.name,
            sec.len,
            sec.crc
        );
    }
    Ok(())
}

/// `db shard`: write `db` as `shards` per-shard images plus a manifest
/// into `dir`.
fn build_set(
    db: &SequenceDb,
    block_size: usize,
    shards: usize,
    dir: &Path,
) -> Result<(), SearchError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| SearchError::input(format!("{}: {e}", dir.display())))?;
    let (manifest, path) = build_shard_set(db, block_size, shards, dir)?;
    out!(
        "# db shard: {} -> {}: {} shards, {} sequences, {} residues \
         (block-size {block_size})",
        db.name(),
        path.display(),
        manifest.shards.len(),
        manifest.sequences,
        manifest.residues,
    );
    for (i, s) in manifest.shards.iter().enumerate() {
        out!(
            "#   shard {:<3} {} start {} ({} sequences, {} residues)",
            i,
            s.file,
            s.start,
            s.sequences,
            s.residues,
        );
    }
    Ok(())
}

/// The cuBLASTP engine's runner: the whole query stream goes through the
/// search executor as one batch over the open database — flat when it
/// is one shard (`--seed-mode per-query`, or `grouped`: a round-packed
/// shared word index, one seeding pass per round per database block),
/// sharded otherwise (`--shards` > 1 or a `--db-set`: every query
/// searches every shard, cross-shard statistics keep output
/// bit-identical to the flat path, and the fleet schedule spans
/// `--devices` simulated devices). Per-query reports print in
/// input order, then the mode's summary row: `# grouped seeding:` and
/// `# shards:` are the grep targets of the CI equivalence jobs. The
/// device passes the batch was billed in go to `passes`.
fn run_batch(
    queries: &[Sequence],
    db: &ShardedDb,
    args: &Args,
    batch: &mut CuBlastpResult,
    passes: &mut Vec<DevicePass>,
) -> Vec<(usize, String, SearchError)> {
    let (params, config, device) = (args.params(), search_config(args, db), DeviceConfig::k20c());
    let injector = Some(Arc::new(FaultInjector::new(args.fault_plan.clone())));
    let t0 = std::time::Instant::now();
    // Print every query's report (stderr row for a failed one) and fold
    // its ledger into the batch's; `mode` is the mode's note on the
    // telemetry line.
    let mut report_all = |per_query: Vec<Result<CuBlastpResult, SearchError>>,
                          mode: &dyn Fn(&CuBlastpResult) -> String| {
        // Individual wall-clocks are not observable in a batched run;
        // report each query's share of the batch.
        let wall = t0.elapsed().div_f64(queries.len().max(1) as f64);
        let mut failures = Vec::new();
        for (i, (query, result)) in queries.iter().zip(per_query).enumerate() {
            match result {
                Ok(r) => {
                    batch.absorb(&r);
                    let line = telemetry_line(&r, &mode(&r));
                    report::print(query, db, &r.report, args, wall, &line);
                }
                Err(e) => {
                    eprintln!("error: query {} ({}): {e}", i + 1, query.id);
                    failures.push((i, query.id.clone(), e));
                }
            }
        }
        failures
    };
    match db.shards() {
        [whole] => {
            let out = search_batch_resident(
                queries,
                params,
                config,
                device,
                &whole.db,
                &whole.dev,
                BatchOptions {
                    injector,
                    seed_mode: args.seed_mode,
                },
            );
            *passes = out.passes;
            let failures = report_all(out.per_query, &|r| match args.seed_mode {
                SeedMode::Grouped => " (grouped seeding)".to_string(),
                SeedMode::PerQuery => {
                    format!(", overlapped total {:.2} ms", r.timing.total_ms())
                }
            });
            if let Some(g) = &out.grouped {
                let mean_occ = if g.rounds.is_empty() {
                    0.0
                } else {
                    g.rounds.iter().map(|r| r.occupancy).sum::<f64>() / g.rounds.len() as f64
                };
                note(
                    args,
                    &format!(
                        "# grouped seeding: rounds={} queries={} budget={} mean-occupancy={:.3} \
                         amortized-seeding={:.4} ms/block/query",
                        g.rounds.len(),
                        g.queries_covered(),
                        DEFAULT_GROUP_BUDGET,
                        mean_occ,
                        g.seeding_ms_per_block_query(),
                    ),
                );
            }
            failures
        }
        shards => {
            let mut out = search_sharded_batch(
                queries,
                params,
                config,
                device,
                db,
                &ShardedBatchOptions {
                    sharded: ShardedOptions {
                        devices: args.devices,
                        ..ShardedOptions::default()
                    },
                    injector,
                },
            );
            let shards = shards.len();
            *passes = std::mem::take(&mut out.passes);
            let failures = report_all(std::mem::take(&mut out.per_query), &|_| {
                format!(" ({shards} shards)")
            });
            fleet_note(args, shards, &out.schedule, out.single_device_ms);
            if args.phase_table && args.outfmt != args::OutFmt::Tab {
                print_fleet_table(db, &out);
            }
            failures
        }
    }
}

/// One query's telemetry line: pipeline counters, simulated GPU time,
/// the batch mode's note, and what the recovery policy had to do.
fn telemetry_line(r: &CuBlastpResult, mode: &str) -> String {
    let line = format!(
        "hits {} → filtered {} ({:.1}%) → extensions {}; simulated GPU {:.2} ms{mode}",
        r.counts.hits,
        r.counts.filtered,
        100.0 * r.counts.survival_ratio(),
        r.counts.extensions,
        r.timing.gpu_ms,
    );
    line + &recovery_note(&r.recovery)
}

/// What the recovery policy had to do for one search, as a row suffix;
/// empty for a fault-free search.
fn recovery_note(recovery: &RecoveryReport) -> String {
    if recovery.is_clean() {
        return String::new();
    }
    let plural = |n: u64| if n == 1 { "" } else { "s" };
    format!(
        "; recovered from {} fault{} ({} retr{}, {} block{} degraded to CPU)",
        recovery.faults,
        plural(recovery.faults),
        recovery.retries,
        if recovery.retries == 1 { "y" } else { "ies" },
        recovery.degraded_blocks,
        plural(recovery.degraded_blocks),
    )
}

/// The `# shards:` summary row of a fleet-scheduled run (batch and
/// `allvsall`), on the `DeviceModel` clock: the schedule's makespan
/// against the same items placed and billed on one device, the uploads
/// it billed across the fleet, and the (device × shard) groups whose
/// queries shared each device pass.
fn fleet_note(args: &Args, shards: usize, schedule: &FleetSchedule, single_device_ms: f64) {
    let groups = schedule
        .per_device
        .iter()
        .map(|d| d.groups.len())
        .sum::<usize>();
    note(
        args,
        &format!(
            "# shards: {shards} devices={} makespan={:.3}ms single-device={:.3}ms \
             speedup={:.2}x efficiency={:.2} upload={:.3}ms groups={groups} (DeviceModel)",
            schedule.per_device.len(),
            schedule.makespan_ms,
            single_device_ms,
            schedule.speedup(single_device_ms),
            schedule.efficiency(single_device_ms),
            schedule.per_device.iter().map(|d| d.upload_ms).sum::<f64>(),
        ),
    );
}

/// The per-shard / per-device rows of `--phase-table` under the sharded
/// engine, on the `DeviceModel` clock: each shard's items billed alone,
/// and the fleet timeline each device executed (busy, upload, items run),
/// then its groups — the queries of one shard that shared its passes.
fn print_fleet_table(sharded: &ShardedDb, out: &cublastp::ShardedBatchOutcome) {
    let n = sharded.num_shards();
    let mut cost = vec![0.0f64; n];
    let mut items = vec![0usize; n];
    for (c, &s) in out.item_costs.iter().zip(&out.item_shards) {
        cost[s] += c;
        items[s] += 1;
    }
    out!(
        "# per-shard totals ({n} shards over {} devices, DeviceModel):",
        out.devices
    );
    for (i, shard) in sharded.shards().iter().enumerate() {
        out!(
            "# shard {:<3} {:>6} seqs {:>4} items {:>10.3} ms alone {:>8.3} ms upload",
            i,
            shard.len(),
            items[i],
            cost[i],
            out.shard_upload_ms[i],
        );
    }
    for (d, t) in out.schedule.per_device.iter().enumerate() {
        out!(
            "# device {:<2} busy {:>10.3} ms ({:>8.3} ms upload), {:>4} items",
            d,
            t.busy_ms,
            t.upload_ms,
            t.items.len(),
        );
        for g in &t.groups {
            out!(
                "#   group shard {:<3} {:>4} members {:>4} passes {:>10.3} ms",
                g.shard,
                g.members,
                g.passes,
                g.bill_ms,
            );
        }
    }
}

/// The `allvsall` subcommand: many-against-many search through the
/// sharded engine, streaming one `qseqid sseqid score bitscore evalue`
/// line per above-threshold pair (the best HSP of the pair) from the
/// sparse similarity matrix.
fn run_allvsall(queries: &[Sequence], db: &ShardedDb, args: &Args) -> ExitCode {
    obs::arm(args.trace_out.is_some(), args.metrics_out.is_some());
    let t0 = std::time::Instant::now();
    let r = match search_all_vs_all(
        queries,
        args.params(),
        search_config(args, db),
        DeviceConfig::k20c(),
        db,
        &ShardedBatchOptions {
            sharded: ShardedOptions {
                devices: args.devices,
                ..ShardedOptions::default()
            },
            injector: Some(Arc::new(FaultInjector::new(args.fault_plan.clone()))),
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: allvsall: {e}");
            return ExitCode::from(exit_code_for(&e));
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    for (q, query) in queries.iter().enumerate() {
        for e in r.matrix.row(q) {
            out!(
                "{}\t{}\t{}\t{:.1}\t{:.2e}",
                query.id,
                db.sequence(e.subject as usize).id,
                e.score,
                e.bit_score,
                e.evalue,
            );
        }
    }
    let pairs = r.matrix.num_queries * r.matrix.num_subjects;
    let density = if pairs > 0 {
        100.0 * r.matrix.nnz() as f64 / pairs as f64
    } else {
        0.0
    };
    note(
        args,
        &format!(
            "# allvsall: {} x {} pairs, {} above threshold ({:.2}% dense), {} tiles, {:.2} ms wall",
            r.matrix.num_queries,
            r.matrix.num_subjects,
            r.matrix.nnz(),
            density,
            r.tiles,
            wall_ms,
        ),
    );
    fleet_note(args, db.num_shards(), &r.schedule, r.single_device_ms);
    print_residency(db);
    if let Err(e) = write_observability(args) {
        eprintln!("error: {e}");
        return ExitCode::from(EXIT_INPUT);
    }
    ExitCode::SUCCESS
}

/// Search one query with a reference or coarse-grained baseline engine
/// (all of them produce the hits the cuBLASTP pipeline does). `None` for
/// the cuBLASTP engine itself, which [`run_batch`] drives. The baselines
/// take no `--shards` / `--db-set`: the whole database is shard 0.
fn baseline_search(
    query: &Sequence,
    db: &ShardedDb,
    args: &Args,
) -> Option<(blast_cpu::report::SearchReport, String)> {
    let params = args.params();
    let db = &db.shards()[0].db;
    match args.engine {
        Engine::CuBlastp => None,
        Engine::Cpu => {
            let engine = SearchEngine::new(query.clone(), params, db);
            let r = if args.threads > 1 {
                search_parallel(&engine, db, args.threads)
            } else {
                search_sequential(&engine, db)
            };
            let telemetry = format!(
                "hits {} → extensions {}",
                r.hit_stats.hits, r.hit_stats.extensions
            );
            Some((r.report, telemetry))
        }
        Engine::CudaBlastp => {
            let r = baselines::CudaBlastp::new(query.clone(), params, DeviceConfig::k20c(), db)
                .search(db);
            let telemetry = format!("fused kernel {:.2} ms (simulated)", r.timing.gpu_ms);
            Some((r.report, telemetry))
        }
        Engine::GpuBlastp => {
            let mut s = baselines::GpuBlastp::new(query.clone(), params, DeviceConfig::k20c(), db);
            s.total_warps = (db.len() / 160).clamp(8, 104);
            let r = s.search(db);
            let telemetry = format!("fused kernel {:.2} ms (simulated)", r.timing.gpu_ms);
            Some((r.report, telemetry))
        }
    }
}
