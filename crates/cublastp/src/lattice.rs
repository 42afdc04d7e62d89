//! The differential lattice: one oracle over every way this crate runs a
//! batch of queries (DESIGN.md "How identity is proven").
//!
//! A [`Case`] picks one value per axis — seeding mode, gapped backend,
//! shard layout, database source, deadline, fault, forced ISA, CPU-tail
//! threads and overlap, the Fig. 14–17 kernel knobs, search parameters —
//! and [`check`] runs the fixture's queries under it and holds every
//! per-query result to one oracle:
//!
//! * an `Ok` report is `blast_cpu::search_sequential`'s, e-value and
//!   bit-score bits included;
//! * its device side (kernel stats and rows, counts, the three
//!   `DeviceModel` times) is bit-equal to the same case at one thread,
//!   no overlap and the native ISA;
//! * its ledger holds: kernel rows sum to `gpu_ms` and name exactly the
//!   kernels the case launches, in pipeline order; each clock's phase
//!   rows sum to that clock's fields;
//! * its counts and every device pass's bill — one D2H leg and one
//!   launch per kernel, per block on the CPU backend and per shard view on
//!   the device backend — are what the kernels compute when called one by
//!   one outside the pipeline;
//! * its `RecoveryReport` is what [`Expect`] derives from the fault's
//!   site class and kind alone, and a batch's surviving queries pay the
//!   database upload once;
//! * an `Err` appears only where the case predicts one.
//!
//! A combination the code does not offer is skipped in one place,
//! [`unsupported`]. A failing case is minimised (every axis reset to its
//! default while the failure persists) and printed as a `Case { .. }`
//! literal ready to pin.

use crate::config::{CuBlastpConfig, ExtensionStrategy, GappedBackend, ScoringMode};
use crate::error::{PipelineError, SearchError};
use crate::executor::{execute, Plan, ShardView};
use crate::extension::HIT_TAIL_KERNEL;
use crate::gapped_device::{gapped_fine_kernel, FINE_GAPPED_KERNEL};
use crate::gpu_phase::{pipeline_rank, run_seeded_phase, GpuPhaseCounts};
use crate::search::{
    meet, Clock, CuBlastpResult, RecoveryReport, SearchHooks, DEFAULT_GROUP_BUDGET,
};
use crate::shard::{DbSource, ShardedDb};
use crate::CancelToken;
use bio_seq::fasta::{read_fasta_strict, to_fasta};
use bio_seq::generate::{generate_db, make_query, make_query_with_low_complexity, DbSpec};
use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use blast_cpu::par::executed_threads;
use blast_cpu::report::SearchReport;
use blast_cpu::search::{search_sequential, SearchEngine};
use blast_cpu::simd::{with_forced, IsaLevel};
use cublastp_db::{build_to_vec, DbImage};
use gpu_sim::{
    DeviceConfig, FaultCtx, FaultInjector, FaultKind, FaultPlan, FaultSite, FaultSpec, KernelStats,
};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

/// Where a batch's word hits come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seed {
    PerQuery,
    /// One round at the default index budget.
    Grouped,
    /// An index budget of one entry: every query its own round.
    GroupedBudget1,
}

/// How the fixture database is cut into shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    One,
    /// Three near-equal shards (`ShardedDb::open` at 3).
    Even3,
    /// Boundaries [`RAGGED`]: a one-block shard, an empty one, the rest.
    Ragged,
    /// Boundaries drawn by the random extension, in any order and past
    /// the end; not on the tier-1 list.
    Cuts([usize; 3]),
}

/// What the database is opened from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// FASTA text through `read_fasta_strict`.
    Fasta,
    /// One `.cdb` image (`DbImage::from_bytes(build_to_vec(..))`).
    Image,
    /// A `.cdbset`: one image per shard (`DbSource::Set`).
    Set,
}

/// The search parameters of `tests/tests/equivalence.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Params {
    Default,
    /// Stricter threshold, tighter window, other gap costs and trigger.
    Strict,
    OneHit,
    /// SEG masking of the query's low-complexity runs.
    Masked,
}

/// The fault armed on block `Case::fault_block` of query
/// `Case::fault_query`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    None,
    /// Fails the first matching check, then clears.
    Once(FaultSite),
    /// Fails every matching check.
    Permanent(FaultSite),
    /// `FaultSite::HostPanic`, permanently.
    Panic,
    /// Permanent, with `RecoveryPolicy::cpu_fallback` off.
    NoFallback(FaultSite),
}

/// One point of the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Case {
    pub seed: Seed,
    pub backend: GappedBackend,
    pub shards: Layout,
    pub source: Source,
    /// `CancelToken::after_checks(k)` per query.
    pub deadline: Option<u64>,
    pub fault: Fault,
    /// The view-local block index the fault is scoped to.
    pub fault_block: u32,
    pub fault_query: u32,
    /// `simd::with_forced(Scalar)` instead of the native dispatch.
    pub scalar: bool,
    pub threads: usize,
    pub overlap: bool,
    pub bins: usize,
    pub extension: ExtensionStrategy,
    pub scoring: ScoringMode,
    pub readonly_cache: bool,
    pub params: Params,
}

impl Default for Case {
    fn default() -> Self {
        Self {
            seed: Seed::PerQuery,
            backend: GappedBackend::Cpu,
            shards: Layout::One,
            source: Source::Fasta,
            deadline: None,
            fault: Fault::None,
            fault_block: 0,
            fault_query: 0,
            scalar: false,
            threads: 1,
            overlap: false,
            bins: 128,
            extension: ExtensionStrategy::Window,
            scoring: ScoringMode::Auto,
            readonly_cache: true,
            params: Params::Default,
        }
    }
}

// Each axis's values for the tier-1 set, the default first.
const SEEDS: [Seed; 3] = [Seed::PerQuery, Seed::Grouped, Seed::GroupedBudget1];
const BACKENDS: [GappedBackend; 2] = [GappedBackend::Cpu, GappedBackend::Gpu];
const LAYOUTS: [Layout; 3] = [Layout::One, Layout::Even3, Layout::Ragged];
const SOURCES: [Source; 3] = [Source::Fasta, Source::Image, Source::Set];
/// `after_checks(64)` outlasts every case's checkpoints; `after_checks(5)`
/// trips mid-search.
const DEADLINES: [Option<u64>; 3] = [None, Some(64), Some(5)];
const FAULT_BLOCKS: [u32; 3] = [0, 1, 2];
const FAULT_QUERIES: [u32; 2] = [0, 1];
const BOOLS: [bool; 2] = [false, true];
const THREADS: [usize; 3] = [1, 2, 8];
const BINS: [usize; 3] = [128, 32, 96];
const EXTENSIONS: [ExtensionStrategy; 3] = [
    ExtensionStrategy::Window,
    ExtensionStrategy::Diagonal,
    ExtensionStrategy::Hit,
];
const SCORING: [ScoringMode; 3] = [ScoringMode::Auto, ScoringMode::Pssm, ScoringMode::Blosum62];
const CACHE: [bool; 2] = [true, false];
const PARAMS: [Params; 4] = [
    Params::Default,
    Params::Strict,
    Params::OneHit,
    Params::Masked,
];

/// Every device and gapped site once and permanently, the panic, and
/// fallback-off at one site of each recovery class.
fn faults() -> Vec<Fault> {
    let sites = FaultSite::DEVICE.into_iter().chain(FaultSite::GAPPED);
    let mut faults = vec![Fault::None];
    faults.extend(sites.clone().map(Fault::Once));
    faults.extend(sites.map(Fault::Permanent));
    faults.push(Fault::Panic);
    faults.extend(
        [
            FaultSite::KernelLaunch,
            FaultSite::Workspace,
            FaultSite::GappedD2h,
        ]
        .map(Fault::NoFallback),
    );
    faults
}

/// One axis: how many values it has, and how a case reads (`None` off the
/// tier-1 list), sets and prints (as Rust source) its value.
struct Axis {
    name: &'static str,
    len: fn() -> usize,
    get: fn(&Case) -> Option<usize>,
    set: fn(&mut Case, usize),
    lit: fn(&Case) -> String,
}

macro_rules! axis {
    ($field:ident, $values:expr, $path:literal) => {
        Axis {
            name: stringify!($field),
            len: || $values.len(),
            get: |c| $values.iter().position(|v| *v == c.$field),
            set: |c, i| c.$field = $values[i],
            lit: |c| format!("{}{:?}", $path, c.$field),
        }
    };
}

const AXES: [Axis; 16] = [
    axis!(seed, SEEDS, "Seed::"),
    axis!(backend, BACKENDS, "GappedBackend::"),
    axis!(shards, LAYOUTS, "Layout::"),
    axis!(source, SOURCES, "Source::"),
    axis!(deadline, DEADLINES, ""),
    axis!(fault, faults(), ""),
    axis!(fault_block, FAULT_BLOCKS, ""),
    axis!(fault_query, FAULT_QUERIES, ""),
    axis!(scalar, BOOLS, ""),
    axis!(threads, THREADS, ""),
    axis!(overlap, BOOLS, ""),
    axis!(bins, BINS, ""),
    axis!(extension, EXTENSIONS, "ExtensionStrategy::"),
    axis!(scoring, SCORING, "ScoringMode::"),
    axis!(readonly_cache, CACHE, ""),
    axis!(params, PARAMS, "Params::"),
];

/// As Rust source, like every value a failing case prints.
impl fmt::Debug for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::None => write!(f, "Fault::None"),
            Fault::Once(s) => write!(f, "Fault::Once(FaultSite::{s:?})"),
            Fault::Permanent(s) => write!(f, "Fault::Permanent(FaultSite::{s:?})"),
            Fault::Panic => write!(f, "Fault::Panic"),
            Fault::NoFallback(s) => write!(f, "Fault::NoFallback(FaultSite::{s:?})"),
        }
    }
}

/// The literal that reproduces the case: the fields off their default.
impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let default = Case::default();
        write!(f, "Case {{ ")?;
        for axis in &AXES {
            let lit = (axis.lit)(self);
            if lit != (axis.lit)(&default) {
                write!(f, "{}: {lit}, ", axis.name)?;
            }
        }
        write!(f, "..Case::default() }}")
    }
}

/// Why the code does not offer `case`, or `None`. The one place a
/// combination is skipped, and the written record of the capability holes
/// between the crate's paths.
pub(crate) fn unsupported(case: &Case) -> Option<&'static str> {
    if case.deadline.is_some() && case.seed != Seed::PerQuery {
        return Some("grouped seeding runs only through `executor::execute`, which takes no hooks");
    }
    None
}

const BLOCK_SIZE: usize = 12;
/// `Layout::Ragged`'s boundaries: shards of 8, 0 and 28 sequences.
const RAGGED: [usize; 2] = [8, 8];
/// `RecoveryPolicy::default().max_attempts`, as the predictor knows it.
const MAX_ATTEMPTS: u64 = 3;

impl Params {
    fn get(self) -> SearchParams {
        let default = SearchParams::default();
        match self {
            Params::Default => default,
            Params::Strict => SearchParams {
                threshold: 12,
                two_hit_window: 25,
                xdrop_ungapped: 12,
                gap_open: 9,
                gap_extend: 2,
                gapped_trigger: 35,
                ..default
            },
            Params::OneHit => SearchParams {
                two_hit: false,
                ..default
            },
            Params::Masked => SearchParams {
                mask_low_complexity: true,
                ..default
            },
        }
    }
}

impl Case {
    fn config(&self) -> CuBlastpConfig {
        let mut config = CuBlastpConfig {
            num_bins: self.bins,
            extension: self.extension,
            scoring: self.scoring,
            use_readonly_cache: self.readonly_cache,
            warps_per_block: 2,
            grid_blocks: 2,
            db_block_size: BLOCK_SIZE,
            cpu_threads: self.threads,
            overlap: self.overlap,
            gapped_backend: self.backend,
            ..CuBlastpConfig::default()
        };
        config.recovery.cpu_fallback = !matches!(self.fault, Fault::NoFallback(_));
        config
    }

    fn grouped(&self) -> Option<usize> {
        match self.seed {
            Seed::PerQuery => None,
            Seed::Grouped => Some(DEFAULT_GROUP_BUDGET),
            Seed::GroupedBudget1 => Some(1),
        }
    }

    fn injector(&self) -> Option<Arc<FaultInjector>> {
        let (site, kind) = match self.fault {
            Fault::None => return None,
            Fault::Once(site) => (site, FaultKind::Transient { failures: 1 }),
            Fault::Permanent(site) | Fault::NoFallback(site) => (site, FaultKind::Permanent),
            Fault::Panic => (FaultSite::HostPanic, FaultKind::Permanent),
        };
        let spec = FaultSpec {
            kind,
            ..FaultSpec::once(site)
                .on_block(self.fault_block)
                .on_query(self.fault_query)
        };
        Some(Arc::new(FaultInjector::new(FaultPlan::none().with(spec))))
    }

    /// The run every device-side number is held to: one thread, no
    /// overlap, native ISA.
    fn canonical(&self) -> Case {
        Case {
            threads: 1,
            overlap: false,
            scalar: false,
            ..*self
        }
    }
}

/// The database, the queries, and what is computed once per key.
struct Fixture {
    db: SequenceDb,
    fasta: String,
    queries: Vec<Sequence>,
    /// Computed once per key: `search_sequential` per (params, query),
    /// a canonical case's device sides, the kernel-by-kernel reference.
    reference: Mutex<HashMap<String, SearchReport>>,
    canonical: Mutex<HashMap<String, Vec<Result<DeviceSide, String>>>>,
    by_kernel: Mutex<HashMap<String, ByKernel>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        // Half the database is each query's family, so both reports are
        // busy and a block's tail is worth sharing (`HELPER_MIN_SEED_SCORE`).
        let queries = vec![make_query(128), make_query_with_low_complexity(96, 3)];
        let mut sequences = Vec::new();
        for (seed, query) in (27..).zip(&queries) {
            let spec = DbSpec {
                name: "lattice",
                num_sequences: 18,
                mean_length: 140,
                homolog_fraction: 0.9,
                seed,
            };
            sequences.extend_from_slice(generate_db(&spec, query).db.sequences());
        }
        let db = SequenceDb::new("lattice", sequences);
        Fixture {
            fasta: to_fasta(db.sequences(), 60),
            db,
            queries,
            reference: Mutex::default(),
            canonical: Mutex::default(),
            by_kernel: Mutex::default(),
        }
    })
}

/// A cache lookup that survives a panicking test thread.
fn cached<V: Clone>(map: &Mutex<HashMap<String, V>>, key: String, make: impl FnOnce() -> V) -> V {
    let hit = map
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .get(&key)
        .cloned();
    hit.unwrap_or_else(|| {
        let value = make();
        let mut map = map.lock().unwrap_or_else(|p| p.into_inner());
        map.entry(key).or_insert(value).clone()
    })
}

/// Open the fixture database from `source`, cut as `layout`.
fn open(source: Source, layout: Layout) -> ShardedDb {
    let fx = fixture();
    let image = |db: &SequenceDb| {
        DbImage::from_bytes(build_to_vec(db, BLOCK_SIZE), db.name()).expect("fixture image")
    };
    let cut = |source: DbSource<'_>| match layout {
        Layout::One => ShardedDb::open(source, 1, Some(BLOCK_SIZE)),
        Layout::Even3 => ShardedDb::open(source, 3, Some(BLOCK_SIZE)),
        Layout::Ragged => ShardedDb::from_boundaries(source, &RAGGED, Some(BLOCK_SIZE)),
        Layout::Cuts(cuts) => ShardedDb::from_boundaries(source, &cuts, Some(BLOCK_SIZE)),
    };
    match source {
        Source::Fasta => {
            let seqs = read_fasta_strict(fx.fasta.as_bytes()).expect("fixture FASTA parses");
            cut(DbSource::Inline(SequenceDb::new(fx.db.name(), seqs)))
        }
        Source::Image => cut(DbSource::Image(&image(&fx.db))),
        Source::Set => {
            let images: Vec<DbImage> = (open(Source::Fasta, layout).shards().iter())
                .map(|s| image(&s.db))
                .collect();
            let set = DbSource::Set {
                name: fx.db.name(),
                images: &images,
            };
            ShardedDb::open(set, 1, None)
        }
    }
    .expect("the fixture opens from every source")
}

/// One case's per-query results, and the blocks each shard view holds.
struct Run {
    per_query: Vec<Result<CuBlastpResult, SearchError>>,
    view_blocks: Vec<usize>,
    num_blocks: usize,
    /// The modelled upload of every block, folded view by view as a
    /// search's ledger folds it.
    upload_ms: f64,
}

fn run(case: &Case) -> Run {
    let fx = fixture();
    let sharded = open(case.source, case.shards);
    let views = sharded.views();
    let (params, config, device) = (case.params.get(), case.config(), DeviceConfig::k20c());
    let isa = case.scalar.then_some(IsaLevel::Scalar);
    let per_query = with_forced(isa, || match case.deadline {
        None => {
            let plan = Plan {
                params,
                config,
                device,
                shards: &views,
                grouped: case.grouped(),
                injector: case.injector(),
                pays_upload: true,
            };
            execute(&plan, &fx.queries).per_query
        }
        Some(checks) => {
            let injector = case.injector();
            (fx.queries.iter().enumerate())
                .map(|(i, q)| {
                    let mut s = sharded.searcher(q.clone(), params, config, device);
                    if let Some(inj) = &injector {
                        s.injector = Arc::clone(inj);
                    }
                    s.stream_index = i as u32;
                    let hooks = SearchHooks {
                        cancel: CancelToken::after_checks(checks),
                        on_block: None,
                    };
                    s.run_blocks(&views, None, &hooks)
                })
                .collect()
        }
    });
    let upload = |v: &ShardView<'_>| {
        let legs = v
            .dev
            .blocks()
            .iter()
            .map(|(_, b)| device.transfer_ms(b.upload_bytes()));
        legs.fold(0.0, |sum, ms| sum + ms)
    };
    Run {
        per_query,
        view_blocks: views.iter().map(|v| v.dev.num_blocks()).collect(),
        num_blocks: sharded.num_blocks(),
        upload_ms: views.iter().map(upload).fold(0.0, |sum, ms| sum + ms),
    }
}

/// Everything of a result on the `DeviceModel` clock.
#[derive(Debug, Clone, PartialEq)]
struct DeviceSide {
    kernels: Vec<KernelStats>,
    kernel_ms: Vec<u64>,
    counts: GpuPhaseCounts,
    link: [u64; 3],
}

impl DeviceSide {
    fn of(r: &CuBlastpResult) -> Self {
        let t = &r.timing;
        Self {
            kernels: r.kernels.clone(),
            kernel_ms: r.kernel_ms.iter().map(|ms| ms.to_bits()).collect(),
            counts: r.counts,
            link: [t.gpu_ms, t.h2d_ms, t.d2h_ms].map(f64::to_bits),
        }
    }
}

fn device_sides(run: &Run) -> Vec<Result<DeviceSide, String>> {
    (run.per_query.iter())
        .map(|r| r.as_ref().map(DeviceSide::of).map_err(|e| e.to_string()))
        .collect()
}

/// What the kernels compute for one query when called one by one outside
/// the pipeline, fault-free.
#[derive(Clone)]
struct ByKernel {
    /// Per block in search order: the bytes of the trigger survivors'
    /// records, and of the alignments the device gapped kernel makes of
    /// them.
    legs: Vec<(u64, u64)>,
    /// Per block in search order: the counters of each of its launches,
    /// the hit path's in pipeline order, then the device gapped kernel's
    /// under the device backend.
    launches: Vec<Vec<KernelStats>>,
    /// Hits, extensions and trigger survivors, summed over blocks.
    counts: [u64; 3],
}

fn by_kernel(case: &Case, query: usize) -> ByKernel {
    let key = Case {
        shards: case.shards,
        backend: case.backend,
        params: case.params,
        bins: case.bins,
        extension: case.extension,
        scoring: case.scoring,
        readonly_cache: case.readonly_cache,
        ..Case::default()
    };
    cached(&fixture().by_kernel, format!("{key} {query}"), || {
        let sharded = open(Source::Fasta, key.shards);
        let (params, config, device) = (key.params.get(), key.config(), DeviceConfig::k20c());
        let s = sharded.searcher(fixture().queries[query].clone(), params, config, device);
        let none = FaultInjector::none();
        let (mut legs, mut launches) = (Vec::new(), Vec::new());
        let mut counts = [0; 3];
        for view in sharded.views() {
            for (_, block) in view.dev.blocks() {
                let ctx = FaultCtx::default();
                let (q, ws) = (&s.query_device, &s.workspace);
                let hit =
                    run_seeded_phase(&device, &config, q, block, &params, ws, &none, ctx, None)
                        .expect("no fault armed");
                // A record crosses the link as 20 bytes.
                assert_eq!(hit.download_bytes, hit.counts.triggered * 20);
                let c = &hit.counts;
                for (sum, n) in counts.iter_mut().zip([c.hits, c.extensions, c.triggered]) {
                    *sum += n;
                }
                let mut launched = hit.kernels.clone();
                let payload = if key.backend == GappedBackend::Gpu {
                    let cutoffs = &s.engine.cutoffs;
                    let residues = s.engine.query.residues();
                    let (trigger, report) = (cutoffs.gapped_trigger, cutoffs.report_cutoff);
                    let fine = gapped_fine_kernel(
                        &device,
                        &config,
                        q,
                        residues,
                        block,
                        &hit.extensions,
                        &params,
                        trigger,
                        report,
                        ws,
                        &none,
                        ctx,
                    )
                    .expect("no fault armed");
                    launched.push(fine.stats);
                    fine.download_bytes
                } else {
                    0
                };
                legs.push((hit.download_bytes, payload));
                launches.push(launched);
            }
        }
        ByKernel {
            legs,
            launches,
            counts,
        }
    })
}

/// How a query must fail, when its fault is fatal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fatal {
    Panic,
    Device { block: u32, attempts: u32 },
}

/// What the case's fault does to one query, derived from the fault's site
/// class and kind alone.
struct Expect {
    fatal: Option<Fatal>,
    recovery: RecoveryReport,
    /// Per block in search order: hit phase recomputed on the host, gapped
    /// phase fallen back to the CPU tail.
    hit_on_host: Vec<bool>,
    gapped_on_host: Vec<bool>,
    /// The block a retry re-seeded through a grouped member's own DFA.
    reseeded: Option<usize>,
}

fn is_gapped_site(site: FaultSite) -> bool {
    FaultSite::GAPPED.contains(&site)
}

/// Launch, transfer and timeout faults are retried; allocation-class
/// faults are not.
fn is_retried(site: FaultSite) -> bool {
    !matches!(site, FaultSite::DeviceAlloc | FaultSite::Workspace)
}

impl Expect {
    fn new(case: &Case, query: usize, view_blocks: &[usize]) -> Self {
        let blocks = view_blocks.iter().sum();
        let mut e = Expect {
            fatal: None,
            recovery: RecoveryReport::default(),
            hit_on_host: vec![false; blocks],
            gapped_on_host: vec![false; blocks],
            reseeded: None,
        };
        let site = match case.fault {
            Fault::None => return e,
            Fault::Panic => FaultSite::HostPanic,
            Fault::Once(site) | Fault::Permanent(site) | Fault::NoFallback(site) => site,
        };
        // The blocks the spec matches: block `fault_block` of every view
        // that has one. The CPU backend never reaches a gapped site.
        let mut targets = Vec::new();
        let mut first = 0;
        for &n in view_blocks {
            if (case.fault_block as usize) < n {
                targets.push(first + case.fault_block as usize);
            }
            first += n;
        }
        let unchecked = is_gapped_site(site) && case.backend == GappedBackend::Cpu;
        if query as u32 != case.fault_query || unchecked || targets.is_empty() {
            return e;
        }
        let attempts = if is_retried(site) { MAX_ATTEMPTS } else { 1 };
        let (faults, retries, degraded) = match case.fault {
            Fault::Once(_) if is_retried(site) => (1, 1, &targets[..0]),
            Fault::Once(_) => (1, 0, &targets[..1]),
            Fault::Permanent(_) => {
                let n = targets.len() as u64;
                (attempts * n, (attempts - 1) * n, &targets[..])
            }
            Fault::Panic => {
                e.fatal = Some(Fatal::Panic);
                return e;
            }
            Fault::NoFallback(_) => {
                let (block, attempts) = (case.fault_block, attempts as u32);
                e.fatal = Some(Fatal::Device { block, attempts });
                return e;
            }
            Fault::None => return e,
        };
        e.recovery.faults = faults;
        e.recovery.retries = retries;
        for &b in degraded {
            if is_gapped_site(site) {
                e.gapped_on_host[b] = true;
                e.recovery.degraded_gapped += 1;
            } else {
                e.hit_on_host[b] = true;
                e.recovery.degraded_blocks += 1;
            }
        }
        // A once-fault the device retried past: a grouped member's retry
        // seeds the block through its own DFA (its round bins are spent).
        let retried_past = degraded.is_empty() && !is_gapped_site(site);
        if retried_past && case.seed != Seed::PerQuery {
            e.reseeded = Some(targets[0]);
        }
        e
    }

    /// The kernels the query launched, in pipeline order.
    fn launched(&self, case: &Case) -> Vec<&'static str> {
        let mut launched = Vec::new();
        if self.hit_on_host.iter().any(|host| !host) {
            if case.seed == Seed::PerQuery || self.reseeded.is_some() {
                launched.push("hit_detection");
            }
            launched.push(HIT_TAIL_KERNEL);
        }
        let device_gapped = case.backend == GappedBackend::Gpu;
        if device_gapped && self.gapped_on_host.iter().any(|host| !host) {
            launched.push(FINE_GAPPED_KERNEL);
        }
        launched
    }

    /// Whether `err` is one the case predicts for this query.
    fn allows(&self, case: &Case, err: &SearchError, num_blocks: usize) -> bool {
        match err {
            SearchError::DeadlineExceeded {
                blocks_completed,
                blocks_total,
                ..
            } => {
                case.deadline.is_some()
                    && blocks_completed < blocks_total
                    && *blocks_total as usize == num_blocks
            }
            SearchError::Pipeline(PipelineError::WorkerPanicked { .. }) => {
                self.fatal == Some(Fatal::Panic)
            }
            SearchError::Device {
                block, attempts, ..
            } => {
                self.fatal
                    == Some(Fatal::Device {
                        block: *block,
                        attempts: *attempts,
                    })
            }
            _ => false,
        }
    }
}

/// `search_sequential`'s report for one query under `params`.
fn reference(params: Params, query: usize) -> SearchReport {
    let fx = fixture();
    cached(&fx.reference, format!("{params:?} {query}"), || {
        let engine = SearchEngine::new(fx.queries[query].clone(), params.get(), &fx.db);
        let report = search_sequential(&engine, &fx.db).report;
        assert!(
            !report.hits.is_empty(),
            "the fixture gives every query hits"
        );
        report
    })
}

/// Run `case` and hold every result to the oracle. Returns the most
/// threads any query's CPU tail ran on.
pub(crate) fn check(case: &Case) -> usize {
    let ran = run(case);
    let canonical = case.canonical();
    let canonical = if canonical == *case {
        device_sides(&ran)
    } else {
        let make = || device_sides(&run(&canonical));
        cached(&fixture().canonical, canonical.to_string(), make)
    };
    // One entry of the Fig. 12 schedule per device pass: every block on
    // the CPU backend, whose tail reads each block's survivors; every
    // view that has blocks on the device backend, whose host reads
    // nothing between them.
    let passes: usize = (ran.view_blocks.iter())
        .map(|&n| match case.backend {
            GappedBackend::Cpu => n,
            GappedBackend::Gpu => usize::from(n > 0),
        })
        .sum();
    let mut h2d = 0.0f64;
    let mut peak = 0;
    for (i, got) in ran.per_query.iter().enumerate() {
        let at = format!("{case}, query {i}");
        let expect = Expect::new(case, i, &ran.view_blocks);
        let r = match got {
            Ok(r) => r,
            Err(e) => {
                assert!(expect.allows(case, e, ran.num_blocks), "{at}: {e:?}");
                assert!(canonical[i].is_err(), "{at}: fails only off one thread");
                continue;
            }
        };
        assert!(expect.fatal.is_none(), "{at}: {:?} expected", expect.fatal);
        let want = reference(case.params, i);
        assert_eq!(r.report.identity_key(), want.identity_key(), "{at}");
        for (a, b) in r.report.hits.iter().zip(&want.hits) {
            assert_eq!(a.evalue.to_bits(), b.evalue.to_bits(), "{at}: e-value");
            assert_eq!(a.bit_score.to_bits(), b.bit_score.to_bits(), "{at}: bits");
        }
        let rec = RecoveryReport {
            retry_wait_us: 0,
            queue_wait_us: 0,
            ..r.recovery
        };
        assert_eq!(rec, expect.recovery, "{at}: recovery");
        assert_eq!(r.block_timings.len(), passes, "{at}: an entry per pass");
        let side = DeviceSide::of(r);
        assert_eq!(Ok(&side), canonical[i].as_ref(), "{at}: device side");
        check_ledger(r, case, &expect, &at);
        check_by_kernel(r, case, i, &expect, &ran.view_blocks, &at);
        assert!(r.tail_threads_ran <= executed_threads(case.threads), "{at}");
        peak = peak.max(r.tail_threads_ran);
        h2d += r.timing.h2d_ms;
    }
    // A batch's surviving queries pay the resident database once: the
    // executor bills the lowest-index per-query search that succeeded.
    let pays = case.deadline.is_none() && case.seed == Seed::PerQuery;
    let survived = ran.per_query.iter().any(Result::is_ok);
    let upload = if pays && survived { ran.upload_ms } else { 0.0 };
    assert_eq!(
        h2d.to_bits(),
        upload.to_bits(),
        "{case}: upload billed once"
    );
    peak
}

/// The ledger rules: kernel rows sum to `gpu_ms` and name exactly the
/// kernels that launched, once each, in pipeline order; each clock's
/// phase rows sum to that clock's fields, and the last row is the one sum
/// across clocks.
fn check_ledger(r: &CuBlastpResult, case: &Case, expect: &Expect, at: &str) {
    let names: Vec<&str> = r.kernels.iter().map(|k| k.name.as_str()).collect();
    assert_eq!(names, expect.launched(case), "{at}");
    assert!(r.kernels.iter().all(|k| k.blocks > 0), "{at}: {names:?}");
    assert_eq!(r.kernel_ms.len(), r.kernels.len(), "{at}");

    let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
    let t = &r.timing;
    let rows: f64 = r.kernel_rows().map(|(_, ms)| ms).sum();
    assert!(close(rows, t.gpu_ms), "{at}: rows {rows} vs {}", t.gpu_ms);
    let device = DeviceConfig::k20c();
    if case.fault == Fault::None && case.backend == GappedBackend::Cpu {
        // Every hit-path kernel launched once per block; its merged
        // counters bill one launch.
        let merged: f64 = r.kernels.iter().map(|k| k.time_ms(&device)).sum();
        let launches = (r.block_timings.len() as u64 - 1) * r.kernels.len() as u64;
        let overhead = device.cycles_to_ms(launches * device.launch_overhead_cycles);
        assert!(
            merged <= t.gpu_ms - overhead + 1e-9,
            "{at}: merged {merged}"
        );
    }

    let table = r.phase_rows();
    let (total, phases) = table.split_last().expect("a total row");
    let on = |clock: Clock| -> f64 {
        let rows = phases.iter().filter(|p| p.clock == clock);
        rows.map(|p| p.ms).sum()
    };
    let device_ms = t.gpu_ms + t.h2d_ms + t.d2h_ms;
    assert!(close(on(Clock::DeviceModel), device_ms), "{at}");
    let host_ms = t.gapped_ms + t.traceback_ms + t.other_ms;
    assert!(close(on(Clock::HostWall), host_ms), "{at}");
    assert_eq!(on(Clock::ScheduleModel), 0.0, "{at}: only the total");
    assert_eq!(total.clock, Clock::ScheduleModel, "{at}");
    assert!(close(total.ms, phases.iter().map(|p| p.ms).sum()), "{at}");
    if case.backend == GappedBackend::Gpu && !expect.gapped_on_host.contains(&true) {
        // The device ran every gapped phase: no CPU gapped lane is left.
        assert_eq!((t.gapped_ms, t.traceback_ms), (0.0, 0.0), "{at}");
    }
    if case.backend == GappedBackend::Cpu {
        // The serial total is the unoverlapped pipeline plus "other".
        let serial = t.serial_ms + t.other_ms;
        assert!((total.ms - serial).abs() < 1e-9, "{at}");
    }
}

/// Against the kernels called one by one: the query's hits, extensions
/// and trigger survivors, however its blocks were seeded, sharded,
/// threaded or recovered; and the bill of every device pass. A block's
/// D2H payload is the device's alignments under the device gapped
/// backend, else the trigger survivors' records, nothing at all when the
/// host computed them. On the CPU backend a pass is one block: its leg is
/// that payload. On the device backend a pass is a shard view: one leg of
/// its blocks' payloads together (none when no block has one), and each
/// kernel's row is one launch of its counters merged over the view's
/// blocks that ran it, the views' rows summed in view order.
fn check_by_kernel(
    r: &CuBlastpResult,
    case: &Case,
    query: usize,
    expect: &Expect,
    view_blocks: &[usize],
    at: &str,
) {
    let want = by_kernel(case, query);
    // A block the host recomputed counts the host scan's records: a
    // subset of what the hit-based kernel (no coverage check) computes.
    let host_subset =
        case.extension == ExtensionStrategy::Hit && expect.hit_on_host.contains(&true);
    if !host_subset {
        let c = &r.counts;
        let counts = [c.hits, c.extensions, c.triggered];
        assert_eq!(counts, want.counts, "{at}: counts");
    }
    let device = DeviceConfig::k20c();
    let device_gapped = case.backend == GappedBackend::Gpu;
    let payload = |b: usize| {
        let (records, alignments) = want.legs[b];
        if device_gapped && !expect.gapped_on_host[b] {
            Some(alignments)
        } else if expect.hit_on_host[b] {
            None
        } else {
            Some(records)
        }
    };
    if !device_gapped {
        for (b, timing) in r.block_timings.iter().enumerate() {
            let leg = payload(b).map_or(0.0, |bytes| device.transfer_ms(bytes));
            assert_eq!(
                timing.d2h_ms.to_bits(),
                leg.to_bits(),
                "{at}: block {b} D2H"
            );
        }
        return;
    }
    // The launches block `b` made: no hit path when the host scanned it,
    // no seeding kernel when a grouped round seeded it, no gapped kernel
    // when its gapped phase fell back to the host.
    let launched = |b: usize| {
        let grouped = case.seed != Seed::PerQuery && expect.reseeded != Some(b);
        (want.launches[b].iter()).filter(move |k| match k.name.as_str() {
            FINE_GAPPED_KERNEL => !expect.gapped_on_host[b],
            "hit_detection" => !expect.hit_on_host[b] && !grouped,
            _ => !expect.hit_on_host[b],
        })
    };
    let mut passes = r.block_timings.iter();
    let mut rows: Vec<(String, f64)> = Vec::new();
    let mut first = 0;
    for (v, &n) in view_blocks.iter().enumerate() {
        let blocks = first..first + n;
        first += n;
        if n == 0 {
            continue;
        }
        let pass = passes.next().expect("a pass per view with blocks");
        let payloads: Vec<u64> = blocks.clone().filter_map(payload).collect();
        let leg = match payloads.is_empty() {
            true => 0.0,
            false => device.transfer_ms(payloads.iter().sum()),
        };
        assert_eq!(pass.d2h_ms.to_bits(), leg.to_bits(), "{at}: view {v} D2H");
        // The host scan's records feed a gapped kernel the reference did
        // not run on them.
        if host_subset {
            continue;
        }
        let mut merged: Vec<KernelStats> = Vec::new();
        for k in blocks.flat_map(launched) {
            match merged.iter_mut().find(|m| m.name == k.name) {
                Some(m) => m.merge(k),
                None => merged.push(k.clone()),
            }
        }
        merged.sort_by_key(|k| pipeline_rank(&k.name));
        let view_ms: Vec<f64> = merged.iter().map(|k| k.time_ms(&device)).collect();
        let gpu_ms: f64 = view_ms.iter().sum();
        assert_eq!(pass.gpu_ms.to_bits(), gpu_ms.to_bits(), "{at}: view {v}");
        for (k, ms) in merged.iter().zip(view_ms) {
            match rows.iter_mut().find(|(name, _)| *name == k.name) {
                Some((_, sum)) => *sum += ms,
                None => rows.push((k.name.clone(), ms)),
            }
        }
    }
    assert!(passes.next().is_none(), "{at}: a pass per view with blocks");
    if !host_subset {
        rows.sort_by_key(|(name, _)| pipeline_rank(name));
        let got: Vec<(&str, u64)> = (r.kernel_rows())
            .map(|(k, ms)| (k.name.as_str(), ms.to_bits()))
            .collect();
        let want: Vec<(&str, u64)> = (rows.iter())
            .map(|(k, ms)| (k.as_str(), ms.to_bits()))
            .collect();
        assert_eq!(got, want, "{at}: kernel rows");
    }
}

/// `case` with every axis that does not matter to `fails` reset to its
/// default, axis by axis until nothing more resets.
fn minimise(case: Case, fails: impl Fn(&Case) -> bool) -> Case {
    let mut min = case;
    loop {
        let before = min;
        for axis in &AXES {
            let mut c = min;
            (axis.set)(&mut c, 0);
            if c != min && unsupported(&c).is_none() && fails(&c) {
                min = c;
            }
        }
        if min == before {
            return min;
        }
    }
}

/// [`check`] every case; on the first failure, minimise it and fail with
/// the literal to pin. Returns the most tail threads any case ran.
pub(crate) fn check_all(cases: impl IntoIterator<Item = Case>) -> usize {
    let mut peak = 0;
    for case in cases {
        assert_eq!(unsupported(&case), None, "{case}");
        match catch_unwind(AssertUnwindSafe(|| check(&case))) {
            Ok(threads) => peak = peak.max(threads),
            Err(panic) => {
                let why = (panic.downcast_ref::<String>().map(String::as_str))
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("a non-string panic");
                let fails = |c: &Case| catch_unwind(AssertUnwindSafe(|| check(c))).is_err();
                let min = minimise(case, fails);
                panic!("lattice case failed: {why}\n  case:      {case}\n  minimised: {min}");
            }
        }
    }
    peak
}

/// SplitMix64: the lattice's deterministic choices.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A pair of axis values: (axis, value, axis, value), axes ascending.
type Pair = (usize, usize, usize, usize);

fn pair(a: usize, va: usize, b: usize, vb: usize) -> Pair {
    if a < b {
        (a, va, b, vb)
    } else {
        (b, vb, a, va)
    }
}

/// Whether `case` holds a pair of axes `a`, `b`: a case whose deadline
/// trips checks no report, so it holds only the pairs of its deadline.
fn holds(case: &Case, a: usize, b: usize) -> bool {
    case.deadline != DEADLINES[2] || AXES[a].name == "deadline" || AXES[b].name == "deadline"
}

/// The pairs of tier-1 values `case` holds.
fn pairs_of(case: &Case) -> Vec<Pair> {
    let values: Vec<Option<usize>> = AXES.iter().map(|axis| (axis.get)(case)).collect();
    let mut pairs = Vec::new();
    for a in 0..AXES.len() {
        for b in a + 1..AXES.len() {
            if let (Some(va), Some(vb)) = (values[a], values[b]) {
                if holds(case, a, b) {
                    pairs.push((a, va, b, vb));
                }
            }
        }
    }
    pairs
}

/// Every pair of axis values some supported case can hold. The rules of
/// [`unsupported`] name two axes each and never a default, so a pair is
/// reachable exactly when the default case carrying it is supported.
fn reachable_pairs() -> BTreeSet<Pair> {
    let mut pairs = BTreeSet::new();
    for (a, axis_a) in AXES.iter().enumerate() {
        for (b, axis_b) in AXES.iter().enumerate().skip(a + 1) {
            for va in 0..(axis_a.len)() {
                for vb in 0..(axis_b.len)() {
                    let mut c = Case::default();
                    (axis_a.set)(&mut c, va);
                    (axis_b.set)(&mut c, vb);
                    if unsupported(&c).is_none() {
                        pairs.insert((a, va, b, vb));
                    }
                }
            }
        }
    }
    pairs
}

/// The tier-1 set: supported cases that together hold every reachable
/// pair of axis values, packed greedily (AETG): each case starts from the
/// first uncovered pair and fills the other axes, in a random order, with
/// the value that covers most new pairs; the best of a few such
/// candidates is kept. Deterministic.
pub(crate) fn pairwise() -> Vec<Case> {
    const CANDIDATES: usize = 8;
    let mut open = reachable_pairs();
    let mut rng = SplitMix(0x1a77);
    let mut cases = Vec::new();
    while let Some(&(a, va, b, vb)) = open.first() {
        let mut best: Option<(usize, Case)> = None;
        for _ in 0..CANDIDATES {
            let mut c = Case::default();
            (AXES[a].set)(&mut c, va);
            (AXES[b].set)(&mut c, vb);
            let mut fixed = vec![a, b];
            let mut rest: Vec<usize> = (0..AXES.len()).filter(|&x| x != a && x != b).collect();
            while !rest.is_empty() {
                let x = rest.swap_remove(rng.below(rest.len()));
                let mut pick = (0, 0);
                for v in 0..(AXES[x].len)() {
                    let mut t = c;
                    (AXES[x].set)(&mut t, v);
                    if unsupported(&t).is_some() {
                        continue;
                    }
                    let gain = (fixed.iter())
                        .filter(|&&y| {
                            let vy = (AXES[y].get)(&t).expect("a tier-1 value");
                            holds(&t, x, y) && open.contains(&pair(x, v, y, vy))
                        })
                        .count();
                    if gain > pick.1 {
                        pick = (v, gain);
                    }
                }
                (AXES[x].set)(&mut c, pick.0);
                fixed.push(x);
            }
            let gain = pairs_of(&c).iter().filter(|p| open.contains(p)).count();
            if best.is_none_or(|(g, _)| gain > g) {
                best = Some((gain, c));
            }
        }
        let (_, case) = best.expect("at least one candidate");
        for p in pairs_of(&case) {
            open.remove(&p);
        }
        cases.push(case);
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tier-1 lattice: a fixed set of supported cases holding every
    /// reachable pair of axis values, each held to the oracle.
    #[test]
    fn every_pair_of_axis_values_holds_the_oracle() {
        let cases = pairwise();
        let mut held = BTreeSet::new();
        for case in &cases {
            assert_eq!(unsupported(case), None, "{case}");
            held.extend(pairs_of(case));
        }
        let missing: Vec<_> = reachable_pairs().difference(&held).copied().collect();
        assert!(missing.is_empty(), "pairs no case holds: {missing:?}");
        let image_ragged = |c: &Case| c.source == Source::Image && c.shards == Layout::Ragged;
        assert!(cases.iter().any(image_ragged), "image × ragged");
        // The device backend's DP shares its blocks on the same threads as
        // the CPU tail: one peak over both would hide a pass that never did.
        // Each peak's first shared tail waits for its second thread, so a
        // helper slow to wake still takes its seat.
        let (device, host): (Vec<Case>, Vec<Case>) =
            (cases.into_iter()).partition(|c| c.backend == GappedBackend::Gpu);
        let peak = |cases| {
            let _meet = (executed_threads(2) >= 2).then(|| meet::arm(meet::Kind::Tail));
            check_all(cases)
        };
        let (host_peak, device_peak) = (peak(host), peak(device));
        if executed_threads(2) >= 2 {
            assert!(
                host_peak >= 2,
                "no case shared a block's tail among threads"
            );
            assert!(
                device_peak >= 2,
                "no device-gapped case shared a block's DP"
            );
        }
    }

    /// Random cases beyond the tier-1 values, each also run four times at
    /// four threads: claim order differs run to run, the outcome may not.
    /// Release-only (`cargo test --release -p cublastp --lib -- --ignored
    /// lattice`).
    #[test]
    #[ignore = "release-only extension of the tier-1 lattice"]
    fn random_cases_and_repeated_four_thread_runs() {
        let mut rng = SplitMix(0x5eed);
        let mut ran = 0;
        while ran < 400 {
            let mut case = Case::default();
            for axis in &AXES {
                (axis.set)(&mut case, rng.below((axis.len)()));
            }
            case.deadline = case.deadline.map(|_| 1 + rng.below(16) as u64);
            case.threads = 1 + rng.below(8);
            if rng.below(2) == 0 {
                // The fixture holds 36 sequences: some cuts fall past it.
                case.shards = Layout::Cuts([0; 3].map(|_| rng.below(40)));
            }
            if unsupported(&case).is_some() {
                continue;
            }
            let four = Case { threads: 4, ..case };
            check_all(std::iter::once(case).chain([four; 4]));
            ran += 1;
        }
    }

    #[test]
    fn a_failure_minimises_to_the_axes_it_needs_and_prints_as_a_literal() {
        assert!(AXES
            .iter()
            .all(|axis| (axis.get)(&Case::default()) == Some(0)));
        let full = Case {
            seed: Seed::Grouped,
            backend: GappedBackend::Gpu,
            shards: Layout::Even3,
            fault: Fault::Once(FaultSite::D2h),
            threads: 8,
            overlap: true,
            params: Params::Masked,
            ..Case::default()
        };
        let fails = |c: &Case| c.backend == GappedBackend::Gpu && c.shards != Layout::One;
        let min = minimise(full, fails);
        assert_eq!(
            min.to_string(),
            "Case { backend: GappedBackend::Gpu, shards: Layout::Even3, ..Case::default() }"
        );
        assert_eq!(
            Case {
                fault: Fault::Permanent(FaultSite::GappedLaunch),
                ..Case::default()
            }
            .to_string(),
            "Case { fault: Fault::Permanent(FaultSite::GappedLaunch), ..Case::default() }"
        );
    }
}
