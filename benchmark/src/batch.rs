//! The five batch workloads: set-up, the correctness gate, and the timed
//! (untraced) passes that give the end-to-end metrics.
//!
//! One run is: generate inputs → set up → compute the reference report of
//! every query once with `blast_cpu::search::search_sequential` → one
//! untimed warm-up pass → timed passes of the whole query set until
//! `--seconds` is used up, with a few more set-ups after every pass.
//! Every report of every pass is compared with the reference by
//! `identity_key()`; a mismatch or an `Err` counts as a failed operation.
//!
//! Every measured time the run reports is the *best* of many repetitions
//! of a short unit — a query's time is its fastest over the passes, CPU
//! time is that of the cheapest pass, `setup_s` is the fastest set-up.
//! The sandbox's CPU speed moves by up to 2 × within seconds, with quiet
//! moments tens of milliseconds long: over ten 10 s windows of a fixed
//! 15 ms loop the median moved by 12 % (interquartile) and the minimum by
//! 2.7 %. So the workloads are small (a pass takes 0.1–0.4 s, a run makes
//! dozens) and the best repetition is what two runs can be compared by.

use crate::metrics::Values;
use crate::procfs;
use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{self, Driver, Inputs, WorkloadDef};
use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use blast_cpu::search::{search_sequential, SearchEngine};
use cublastp::{
    search_batch_with, search_sharded_batch, BatchOptions, BatchOutcome, CuBlastpConfig,
    CuBlastpResult, DeviceDb, SearchError, SeedMode, ShardedBatchOptions, ShardedBatchOutcome,
    ShardedDb, ShardedOptions, DEFAULT_STEAL_SEED,
};
use cublastp_db::{ShardEntry, ShardSetManifest};
use gpu_sim::DeviceConfig;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups before the first pass, and after each timed pass. A set-up
/// takes 0.2–2 ms, so a few hundred a run cost little; spreading them
/// over the run gives the fastest of them — `setup_s` — many chances at
/// a quiet moment of the sandbox.
pub const SETUPS_UP_FRONT: usize = 5;
pub const SETUPS_PER_PASS: usize = 4;
/// Timed passes a run makes at least, however short `--seconds` is.
const MIN_TIMED_PASSES: usize = 3;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub trace: bool,
    /// Scratch and trace files go here (inside the checkout).
    pub out_dir: PathBuf,
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Duration of every set-up of the run, seconds.
    pub setup_s: Vec<f64>,
    /// Lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }
}

/// Identity of a report, as `SearchReport::identity_key` gives it.
pub type IdentityKey = Vec<(usize, i32, u32, u32, u32, u32)>;

/// The database as the program holds it after set-up.
pub enum Target {
    Flat { db: SequenceDb, dev: DeviceDb },
    Sharded { sharded: ShardedDb },
}

/// Everything a pass needs, fixed for the run.
pub struct Context {
    pub def: &'static WorkloadDef,
    pub inputs: Inputs,
    pub params: SearchParams,
    pub config: CuBlastpConfig,
    pub device: DeviceConfig,
    pub target: Target,
    /// What set-up starts from (kept to set up again between passes).
    pub source: Source,
    /// Reference identity of every query (`search_sequential`).
    pub reference: Vec<IdentityKey>,
}

/// Outcome of one pass of the whole query set through the program's own
/// batch driver.
pub enum Outcome {
    Flat(BatchOutcome),
    Sharded(ShardedBatchOutcome),
}

impl Outcome {
    pub fn per_query(&self) -> &[Result<CuBlastpResult, SearchError>] {
        match self {
            Outcome::Flat(o) => &o.per_query,
            Outcome::Sharded(o) => &o.per_query,
        }
    }
}

pub struct Pass {
    pub times: PassTimes,
    /// Database blocks the program flattened during the pass
    /// (`cublastp::flatten_count` delta).
    pub flattens: u64,
    pub outcome: Outcome,
}

/// The numbers of one timed pass that outlive it. (Keeping every pass's
/// reports would make `peak_rss_mib` grow with the number of passes —
/// with the speed of the sandbox, that is.)
pub struct PassTimes {
    pub wall_ms: f64,
    pub cpu_ms: f64,
    /// Inter-completion time of every query ([`inter_completion_ms`]).
    pub per_query_ms: Vec<f64>,
    pub device_model_ms: f64,
    pub retries: u64,
    pub degraded: u64,
}

/// The untraced part of a run.
pub struct Timed {
    /// Outcome of the first timed pass, reports and all: what the program
    /// itself reported, and what the traced replay must agree with.
    pub first: Outcome,
    /// Blocks the program flattened during the first timed pass.
    pub flattens: u64,
    pub passes: Vec<PassTimes>,
}

/// Host wall-clock of every query, ms: its fastest inter-completion time
/// over `passes` (a pass in which a query failed has no times).
pub fn best_per_query_ms(passes: &[PassTimes]) -> Vec<f64> {
    let nq = passes.iter().map(|p| p.per_query_ms.len()).max();
    (0..nq.unwrap_or(0))
        .map(|i| stats::min(passes.iter().filter_map(|p| p.per_query_ms.get(i))))
        .collect()
}

pub fn search_config(inputs: &Inputs) -> CuBlastpConfig {
    let gapped_backend = match inputs.def.driver {
        Driver::FlatBatch { gapped, .. } => gapped,
        _ => Default::default(),
    };
    CuBlastpConfig {
        db_block_size: inputs.block_size,
        gapped_backend,
        ..CuBlastpConfig::default()
    }
}

/// Write the skewed shard set of `inputs` under `dir`: one `.cdb` per
/// shard at the workload's explicit boundaries plus the manifest.
/// (`cublastp_db::build_shard_set` only splits evenly.)
pub fn write_shard_set(inputs: &Inputs, dir: &Path) -> Result<(PathBuf, usize), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let db = &inputs.db;
    let mut starts = vec![0usize];
    starts.extend(&inputs.shard_boundaries);
    let mut shards = Vec::with_capacity(starts.len());
    let mut bytes = 0;
    for (index, &start) in starts.iter().enumerate() {
        let end = starts.get(index + 1).copied().unwrap_or(db.len());
        let local = SequenceDb::new(
            format!("{}:{index}", db.name()),
            db.sequences()[start..end].to_vec(),
        );
        let file = format!("shard{index:03}.cdb");
        bytes += cublastp_db::build_to_file(&local, inputs.block_size, &dir.join(&file))
            .map_err(|e| format!("build {file}: {e}"))?
            .bytes;
        shards.push(ShardEntry {
            file,
            start,
            sequences: end - start,
            residues: local.total_residues(),
        });
    }
    let manifest = ShardSetManifest {
        name: db.name().to_string(),
        block_size: inputs.block_size,
        sequences: db.len(),
        residues: db.total_residues(),
        shards,
    };
    let path = dir.join("shards.cdbset");
    manifest
        .save(&path)
        .map_err(|e| format!("save manifest: {e}"))?;
    Ok((path, bytes))
}

/// On-disk / in-memory form of the database that set-up starts from.
pub enum Source {
    Fasta(String),
    ShardSet(PathBuf),
}

/// One set-up, with a span per layer it calls into: FASTA parse →
/// residence for the flat workloads, manifest + image open → shard
/// assembly for `sharded_skew`. Input *generation* is not part of it.
pub fn set_up(rec: &mut Recorder, inputs: &Inputs, source: &Source) -> Result<Target, String> {
    let root = rec.enter("setup", "bench", 0);
    let target = match source {
        Source::Fasta(text) => {
            let s = rec.enter("fasta_parse", "bio-seq", 0);
            let seqs = bio_seq::read_fasta_strict(text.as_bytes())
                .map_err(|e| format!("generated FASTA rejected: {e}"))?;
            let db = SequenceDb::new(inputs.db.name(), seqs);
            rec.exit(s);
            let s = rec.enter("flatten", "devicedata", 0);
            let dev = DeviceDb::upload(&db, inputs.block_size);
            rec.exit(s);
            Target::Flat { db, dev }
        }
        Source::ShardSet(path) => {
            let s = rec.enter("shardset_open", "cublastp-db", 0);
            let manifest =
                ShardSetManifest::load(path).map_err(|e| format!("load shard set: {e}"))?;
            let images = manifest
                .open_images(path)
                .map_err(|e| format!("open shard images: {e}"))?;
            rec.exit(s);
            let s = rec.enter("split", "shard", 0);
            let sharded = ShardedDb::from_images(&manifest.name, &images)
                .map_err(|e| format!("assemble shards: {e}"))?;
            rec.exit(s);
            Target::Sharded { sharded }
        }
    };
    rec.exit(root);
    Ok(target)
}

/// Reference identity of every query against the *whole* database.
pub fn reference_keys(
    queries: &[Sequence],
    params: SearchParams,
    db: &SequenceDb,
) -> Vec<IdentityKey> {
    queries
        .iter()
        .map(|q| {
            let engine = SearchEngine::new(q.clone(), params, db);
            search_sequential(&engine, db).report.identity_key()
        })
        .collect()
}

impl Context {
    /// One more set-up, timed into `result.setup_s`; what it built is
    /// dropped again.
    pub fn timed_set_up(&self, rec: &mut Recorder, result: &mut RunResult) {
        let t0 = Instant::now();
        match set_up(rec, &self.inputs, &self.source) {
            Ok(_target) => result.setup_s.push(t0.elapsed().as_secs_f64()),
            Err(e) => result.fail(format!("{}: set-up failed: {e}", self.def.name)),
        }
    }

    /// Remove what generation wrote to disk (the shard set).
    pub fn clean_up(&self) {
        if let Source::ShardSet(path) = &self.source {
            if let Some(dir) = path.parent() {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    /// One pass of the whole query set through the program's driver.
    pub fn run_pass(&self) -> Pass {
        let cpu0 = procfs::process_cpu_ms();
        let flattens0 = cublastp::flatten_count();
        let t0 = Instant::now();
        let outcome = match (&self.target, self.def.driver) {
            (Target::Flat { db, .. }, Driver::FlatBatch { seed_mode, .. }) => {
                Outcome::Flat(search_batch_with(
                    &self.inputs.queries,
                    self.params,
                    self.config,
                    self.device,
                    db,
                    BatchOptions {
                        seed_mode,
                        ..BatchOptions::default()
                    },
                ))
            }
            (Target::Sharded { sharded }, Driver::ShardedBatch { devices }) => {
                Outcome::Sharded(search_sharded_batch(
                    &self.inputs.queries,
                    self.params,
                    self.config,
                    self.device,
                    sharded,
                    &ShardedBatchOptions {
                        sharded: ShardedOptions {
                            devices,
                            seed: DEFAULT_STEAL_SEED,
                        },
                        injector: None,
                    },
                ))
            }
            _ => unreachable!("set_up builds the target its driver needs"),
        };
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = procfs::process_cpu_ms() - cpu0;
        let (retries, degraded) = outcome
            .per_query()
            .iter()
            .flatten()
            .fold((0, 0), |(r, d), q| {
                (
                    r + q.recovery.retries,
                    d + q.recovery.degraded_blocks + q.recovery.degraded_gapped,
                )
            });
        Pass {
            times: PassTimes {
                wall_ms,
                cpu_ms,
                per_query_ms: inter_completion_ms(&outcome, wall_ms),
                device_model_ms: self.device_model_ms(&outcome),
                retries,
                degraded,
            },
            flattens: cublastp::flatten_count() - flattens0,
            outcome,
        }
    }

    /// Count the pass's operations into `result`: one per query, failed
    /// when the program returned `Err` or a report that is not the
    /// reference's.
    pub fn check_pass(&self, pass: &Pass, result: &mut RunResult) {
        for (i, r) in pass.outcome.per_query().iter().enumerate() {
            result.attempted += 1;
            match r {
                Ok(r) if r.report.identity_key() == self.reference[i] => {}
                Ok(_) => result.fail(format!(
                    "{}: query {i} report differs from search_sequential",
                    self.def.name
                )),
                Err(e) => result.fail(format!("{}: query {i} failed: {e}", self.def.name)),
            }
        }
    }

    /// Modelled H2D time of making the database resident once.
    pub fn db_upload_model_ms(&self) -> f64 {
        match &self.target {
            Target::Flat { dev, .. } => dev
                .blocks()
                .iter()
                .map(|(_, b)| self.device.transfer_ms(b.upload_bytes()))
                .sum(),
            Target::Sharded { sharded } => sharded.upload_ms(&self.device).iter().sum(),
        }
    }

    /// `DeviceModel` time of a pass: Σ kernels + H2D + D2H + grouped
    /// seeding, every term from the gpu-sim cycle model or the modelled
    /// PCIe link, so the sum is bit-deterministic per seed.
    pub fn device_model_ms(&self, outcome: &Outcome) -> f64 {
        let per_query: f64 = outcome
            .per_query()
            .iter()
            .flatten()
            .map(|r| r.timing.gpu_ms + r.timing.h2d_ms + r.timing.d2h_ms)
            .sum();
        // The per-query driver bills the database upload to query 0; the
        // grouped and sharded drivers bill it outside the per-query
        // timings, so it is added here to keep the three comparable.
        let extra = match outcome {
            Outcome::Flat(o) => o.grouped.as_ref().map_or(0.0, |g| {
                g.total_seeding_ms()
                    + g.rounds
                        .iter()
                        .map(|r| self.device.transfer_ms(r.index_upload_bytes))
                        .sum::<f64>()
                    + self.db_upload_model_ms()
            }),
            Outcome::Sharded(_) => self.db_upload_model_ms(),
        };
        per_query + extra
    }
}

/// Time between consecutive query completions inside one pass, ms: the
/// batch drivers stamp each query's start (`queue_wait_us`, from batch
/// start), and query `i` completes when query `i + 1` starts; the last
/// one when the pass ends, `wall_ms` after its start. Empty when a query
/// failed.
pub fn inter_completion_ms(outcome: &Outcome, wall_ms: f64) -> Vec<f64> {
    let starts: Vec<f64> = outcome
        .per_query()
        .iter()
        .flatten()
        .map(|r| r.recovery.queue_wait_us as f64 / 1e3)
        .collect();
    if starts.len() != outcome.per_query().len() {
        return Vec::new();
    }
    let mut completions: Vec<f64> = starts.iter().skip(1).copied().collect();
    completions.push(wall_ms);
    let mut prev = 0.0;
    completions
        .into_iter()
        .map(|c| {
            let d = (c - prev).max(0.0);
            prev = c;
            d
        })
        .collect()
}

/// Generate, set up and gate one batch workload; the result is ready for
/// timed passes (and for the traced replay).
pub fn prepare(
    def: &'static WorkloadDef,
    cfg: &RunConfig,
    rec: &mut Recorder,
    result: &mut RunResult,
) -> Result<Context, String> {
    let t_gen = Instant::now();
    let inputs = workloads::generate(def, cfg.seed, cfg.smoke);
    let source = match def.driver {
        Driver::FlatBatch { .. } => Source::Fasta(workloads::db_fasta(&inputs)),
        Driver::ShardedBatch { .. } => {
            let dir = cfg
                .out_dir
                .join(format!("tmp-{}-{}", def.name, std::process::id()));
            let s = rec.enter("image_build", "cublastp-db", 0);
            let (path, bytes) = write_shard_set(&inputs, &dir)?;
            rec.exit(s);
            result.values.set("cublastp-db.image_bytes", bytes as f64);
            Source::ShardSet(path)
        }
        Driver::Served => return Err("served_mix is not a batch workload".into()),
    };
    result
        .values
        .set("bio-seq.generate_s", t_gen.elapsed().as_secs_f64());

    // The last of these set-ups is the one searched.
    let mut target = None;
    for _ in 0..SETUPS_UP_FRONT {
        let t0 = Instant::now();
        target = Some(set_up(rec, &inputs, &source)?);
        result.setup_s.push(t0.elapsed().as_secs_f64());
    }
    let target = target.expect("SETUPS_UP_FRONT > 0");

    let params = SearchParams::default();
    let reference = reference_keys(&inputs.queries, params, &inputs.db);
    let config = search_config(&inputs);
    Ok(Context {
        def,
        inputs,
        params,
        config,
        device: DeviceConfig::k20c(),
        target,
        source,
        reference,
    })
}

/// The untraced part of a run: warm-up, then timed passes for `seconds`.
pub fn timed_passes(
    ctx: &Context,
    seconds: f64,
    smoke: bool,
    rec: &mut Recorder,
    result: &mut RunResult,
) -> Timed {
    let warm = ctx.run_pass();
    ctx.check_pass(&warm, result);
    drop(warm);

    let min_passes = if smoke { 1 } else { MIN_TIMED_PASSES };
    let t0 = Instant::now();
    let mut first = None;
    let mut passes = Vec::new();
    while passes.len() < min_passes || (!smoke && t0.elapsed().as_secs_f64() < seconds) {
        let pass = ctx.run_pass();
        ctx.check_pass(&pass, result);
        passes.push(pass.times);
        first.get_or_insert((pass.outcome, pass.flattens));
        for _ in 0..SETUPS_PER_PASS {
            ctx.timed_set_up(rec, result);
        }
    }
    let (first, flattens) = first.expect("min_passes > 0");
    Timed {
        first,
        flattens,
        passes,
    }
}

/// End-to-end metrics of the timed passes.
pub fn end_to_end(ctx: &Context, timed: &Timed, result: &mut RunResult) {
    let nq = ctx.inputs.queries.len() as f64;
    let passes = &timed.passes;
    let per_query_ms = best_per_query_ms(passes);
    let v = &mut result.values;
    v.set(
        "host_qps",
        nq * 1e3 / per_query_ms.iter().sum::<f64>().max(f64::MIN_POSITIVE),
    );
    v.set("latency_p50_ms", stats::median(&per_query_ms));
    v.set("latency_p90_ms", stats::percentile(&per_query_ms, 90.0));
    let cpu_per_wall: Vec<f64> = passes.iter().map(|p| p.cpu_ms / p.wall_ms).collect();
    v.set("search.cpu_per_wall", stats::median(&cpu_per_wall));
    v.set(
        "host_cpu_ms_per_query",
        stats::min(passes.iter().map(|p| &p.cpu_ms)) / nq,
    );
    v.set("device_model_ms_per_query", passes[0].device_model_ms / nq);
    v.set("peak_rss_mib", procfs::peak_rss_mib());

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ms).collect();
    let median_wall_ms = stats::median(&walls);
    let spread_pct = 100.0 * (stats::max(&walls) - stats::min(&walls)) / median_wall_ms;
    v.set("bench.pass_spread_pct", spread_pct);
    result.notes.push(format!(
        "{} timed passes of {} queries: fastest {:.1} ms, median {:.1} ms, spread {:.1} %",
        passes.len(),
        nq,
        stats::min(&walls),
        median_wall_ms,
        spread_pct
    ));
    // Not samples of one distribution: each query does fixed work, and its
    // time is an estimate from all the passes. The percentiles describe
    // the query mix, so the ten-samples-beyond rule has nothing to bite on.
    result.notes.push(format!(
        "latency: over the {nq} queries, each timed by the fastest of its {} passes \
         (p90 is number {} of {nq} in ascending order)",
        passes.len(),
        (0.9 * nq).ceil()
    ));
    // The device model is a pure function of the inputs: two passes over
    // the same inputs must agree to the last bit.
    let model = passes[0].device_model_ms;
    if let Some(p) = passes
        .iter()
        .find(|p| p.device_model_ms.to_bits() != model.to_bits())
    {
        result.fail(format!(
            "{}: device_model_ms differs between passes: {model} and {}",
            ctx.def.name, p.device_model_ms
        ));
    }
    let retries: u64 = passes.iter().map(|p| p.retries).sum();
    let degraded: u64 = passes.iter().map(|p| p.degraded).sum();
    result.values.set("search.retries", retries as f64);
    result.values.set("search.degraded_blocks", degraded as f64);
    if (retries, degraded) != (0, 0) {
        result.fail(format!(
            "{}: fault-free run reported {retries} retries, {degraded} degraded blocks",
            ctx.def.name
        ));
    }
    let grouped = matches!(
        ctx.def.driver,
        Driver::FlatBatch {
            seed_mode: SeedMode::Grouped,
            ..
        }
    );
    if let (true, Outcome::Flat(o)) = (grouped, &timed.first) {
        if o.grouped.as_ref().map(|g| g.queries_covered()) != Some(ctx.inputs.queries.len()) {
            result.fail("grouped_short: the grouped driver did not cover every query".into());
        }
    }
}
