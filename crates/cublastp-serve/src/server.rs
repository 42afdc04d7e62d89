//! The serving front-end: priority queues, worker pool, deadlines and
//! result streaming over a resident database.
//!
//! A [`Server`] owns one resident database (a [`ShardedDb`] handle, made
//! resident once per generation) and a small pool of worker threads.
//! [`Server::submit`]
//! is the admission gate — it runs the tenant rate limit, the degradation
//! ladder, and the bounded-cost admission check *on the caller's thread*
//! and returns either a [`ResponseHandle`] or a typed
//! [`SearchError::Overloaded`]. Admitted jobs carry a [`CancelToken`]
//! whose deadline clock starts at admission, so time spent queued counts
//! against the budget — a server that queues a request for its whole
//! deadline refuses it at the first checkpoint instead of wasting a full
//! search on a client that has already given up.
//!
//! Workers drain the two class queues by weighted round-robin
//! (`INTERACTIVE_WEIGHT` = 4 interactive picks per bulk pick), with the first
//! `reserved_interactive_workers` threads dedicated to the interactive
//! class so a long bulk search can never occupy every lane. Results stream
//! back over the handle's channel: one [`Event::Block`] per database block
//! as its CPU tail completes, then exactly one [`Event::Done`]. **Every
//! admitted request terminates with a `Done`** — worker panics become
//! typed pipeline errors, shutdown drains the queues, and a dropped
//! handle just discards events.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use blast_cpu::report::SearchReport;
use cublastp::error::{panic_message, PipelineError};
use cublastp::CancelToken;
pub use cublastp::DbSource;
use cublastp::{
    search_sharded, BlockProgress, CuBlastpConfig, CuBlastpResult, GappedBackend, SearchError,
    SearchHooks, ShardedDb,
};
use gpu_sim::{DeviceConfig, FaultInjector, KernelWorkspace};

use cublastp_db::DbImage;

use crate::admission::{estimate_cost, Admission, AdmissionConfig, RateLimitConfig, RateLimiter};
use crate::controller::{DegradationLevel, LoadController};

/// One immutable database generation: a resident database handle stamped
/// with a monotonically increasing id.
///
/// The server holds the *current* generation behind a mutex; every
/// admitted job clones the `Arc` at admission and carries it end-to-end,
/// so a [hot swap](Server::swap_db) never changes the database under a
/// running search. When the last job pinning an old generation finishes,
/// the `Arc` count reaches zero and the generation drops — for an
/// image-backed generation that is the moment its mapping is released
/// (observable via [`cublastp_db::unmap_count`]).
pub struct DbGeneration {
    /// Generation id, starting at 1 for the database the server was
    /// constructed with.
    pub id: u64,
    /// The resident database every job pinned to this generation
    /// searches: `shards` shards, the whole database as one shard when
    /// `shards` is 1 (output identical at any shard count).
    pub resident: ShardedDb,
    /// Where the generation came from: `"inline"` for an uploaded
    /// [`SequenceDb`], otherwise the label of
    /// [`ShardedDb::image_origin`].
    pub source: String,
}

impl DbGeneration {
    /// Make `source` resident as generation `id`: [`ShardedDb::open`]
    /// holds every rule (what is copied, mapped or flattened, and which
    /// `shards` / `block_size` contradict what a file stores).
    fn open(
        id: u64,
        source: DbSource<'_>,
        shards: usize,
        block_size: usize,
    ) -> Result<Self, SearchError> {
        let resident = ShardedDb::open(source, shards, Some(block_size))?;
        let source = resident
            .image_origin()
            .map_or_else(|| "inline".to_string(), |origin| origin.label.clone());
        Ok(Self {
            id,
            resident,
            source,
        })
    }
}

/// Request priority class. Interactive requests get the weighted share of
/// worker picks and a reserved lane; bulk requests are the first to shed
/// under load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive: favored by scheduling, never shed by the ladder.
    Interactive,
    /// Throughput traffic: shed first when pressure crosses `shed_bulk_at`.
    Bulk,
}

impl Priority {
    /// Stable lowercase name for metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            Self::Interactive => "interactive",
            Self::Bulk => "bulk",
        }
    }

    /// Index into per-class arrays (interactive first).
    pub(crate) fn index(self) -> usize {
        match self {
            Self::Interactive => 0,
            Self::Bulk => 1,
        }
    }
}

/// One search request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The protein query.
    pub query: Sequence,
    /// Scheduling class.
    pub priority: Priority,
    /// Tenant id for per-tenant rate limiting.
    pub tenant: String,
    /// Wall-clock budget from admission to completion; `None` uses the
    /// server's `default_deadline` (which may also be `None` = unbounded).
    pub deadline: Option<Duration>,
}

impl Request {
    /// An interactive request for `tenant` with no explicit deadline.
    pub fn interactive(query: Sequence, tenant: impl Into<String>) -> Self {
        Self {
            query,
            priority: Priority::Interactive,
            tenant: tenant.into(),
            deadline: None,
        }
    }

    /// A bulk request for `tenant` with no explicit deadline.
    pub fn bulk(query: Sequence, tenant: impl Into<String>) -> Self {
        Self {
            query,
            priority: Priority::Bulk,
            tenant: tenant.into(),
            deadline: None,
        }
    }

    /// Set the per-request deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// A streamed server event. Blocks arrive in pipeline order, then exactly
/// one `Done`.
#[derive(Debug)]
pub enum Event {
    /// One database block finished its CPU tail; `partial` holds that
    /// block's alignments (blocks never alias, so accumulating partials
    /// reproduces the final unranked hit set).
    Block {
        /// Database block index.
        block: u32,
        /// Total blocks in this search.
        blocks_total: u32,
        /// The block's hits.
        partial: SearchReport,
    },
    /// Terminal event: the full result or a typed error. Boxed because
    /// [`CuBlastpResult`] is large next to a `Block`.
    Done(Box<Result<ServeResult, SearchError>>),
}

/// Successful completion, with serving-side telemetry alongside the
/// search result.
#[derive(Debug)]
pub struct ServeResult {
    /// The search result (its `recovery.queue_wait_us` is filled in with
    /// the serving queue wait).
    pub result: CuBlastpResult,
    /// Time from admission to a worker picking the job up, ms.
    pub queue_wait_ms: f64,
    /// Time from pickup to completion, ms.
    pub service_ms: f64,
    /// True when the degradation ladder forced coarse (CPU) gapped
    /// placement for this request.
    pub degraded_placement: bool,
    /// Id of the database generation the request was pinned to at
    /// admission (and served on end-to-end, even across a hot swap).
    pub generation: u64,
}

/// Client-side handle for one admitted request.
#[derive(Debug)]
pub struct ResponseHandle {
    /// Server-assigned request id (monotonic).
    pub id: u64,
    /// The class the request was admitted under.
    pub priority: Priority,
    rx: mpsc::Receiver<Event>,
}

impl ResponseHandle {
    /// Next streamed event, or `None` once the channel is exhausted
    /// (after `Done`, or if the server was dropped mid-request — which
    /// [`wait`](Self::wait) turns into a typed error).
    pub fn next_event(&self) -> Option<Event> {
        self.rx.recv().ok()
    }

    /// Non-blocking variant of [`next_event`](Self::next_event): `None`
    /// when no event is ready right now. Load generators poll many
    /// handles from one thread with this instead of parking a thread per
    /// request.
    pub fn try_event(&self) -> Option<Event> {
        self.rx.try_recv().ok()
    }

    /// Drain events until the terminal `Done` and return it. Block events
    /// are discarded — use [`next_event`](Self::next_event) to consume
    /// them incrementally.
    pub fn wait(self) -> Result<ServeResult, SearchError> {
        while let Some(ev) = self.next_event() {
            if let Event::Done(res) = ev {
                return *res;
            }
        }
        Err(SearchError::from(PipelineError::ChannelClosed {
            side: "serve worker",
        }))
    }
}

/// Serving configuration. Defaults suit the tests and demo: two workers
/// with one reserved for interactive traffic, small bounded queues, and no
/// rate limit.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads draining the queues.
    pub workers: usize,
    /// Of those, how many serve *only* the interactive class. Must be less
    /// than `workers` (so bulk always has a lane) unless `workers == 1`.
    pub reserved_interactive_workers: usize,
    /// Queued requests allowed per priority class.
    pub queue_capacity: usize,
    /// Outstanding DP-cell budget across all admitted requests.
    pub cost_capacity: u64,
    /// Shards each database generation is partitioned into (1 = the whole
    /// database as one shard, or a shard set as stored; any other count
    /// than a set stores is a `config` error). Searches use cross-shard
    /// statistics, so results are bit-identical at any shard count.
    pub shards: usize,
    /// Deadline applied when a request does not carry its own.
    pub default_deadline: Option<Duration>,
    /// Per-tenant token-bucket limits.
    pub tenant_rate: RateLimitConfig,
    /// Degradation-ladder thresholds.
    pub controller: LoadController,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            reserved_interactive_workers: 1,
            queue_capacity: 16,
            cost_capacity: 1 << 32,
            shards: 1,
            default_deadline: None,
            tenant_rate: RateLimitConfig::default(),
            controller: LoadController::default(),
        }
    }
}

impl ServeConfig {
    /// Validate the configuration; called by [`Server::new`].
    pub fn validate(&self) -> Result<(), SearchError> {
        if self.workers == 0 {
            return Err(SearchError::config("serve: workers must be > 0"));
        }
        if self.workers > 1 && self.reserved_interactive_workers >= self.workers {
            return Err(SearchError::config(
                "serve: reserved_interactive_workers must leave at least one general worker",
            ));
        }
        if self.workers == 1 && self.reserved_interactive_workers != 0 {
            return Err(SearchError::config(
                "serve: a single worker cannot be reserved for one class",
            ));
        }
        if self.queue_capacity == 0 {
            return Err(SearchError::config("serve: queue_capacity must be > 0"));
        }
        if self.shards == 0 {
            return Err(SearchError::config("serve: shards must be > 0"));
        }
        Ok(())
    }
}

/// An admitted job waiting in a class queue. `generation` is pinned at
/// admission: the search runs on it even if a swap lands while queued.
struct Job {
    query: Sequence,
    priority: Priority,
    cost: u64,
    cancel: CancelToken,
    enqueued: Instant,
    generation: Arc<DbGeneration>,
    tx: mpsc::Sender<Event>,
}

/// Interactive picks per bulk pick when both class queues are non-empty.
const INTERACTIVE_WEIGHT: u32 = 4;

#[derive(Default)]
struct QueueState {
    queues: [std::collections::VecDeque<Job>; 2],
    /// Consecutive interactive picks since the last bulk pick (WRR state).
    interactive_run: u32,
    closed: bool,
}

struct Shared {
    cfg: ServeConfig,
    state: Mutex<QueueState>,
    cv: Condvar,
    admission: Admission,
    limiter: RateLimiter,
    current: Mutex<Arc<DbGeneration>>,
    params: SearchParams,
    search_cfg: CuBlastpConfig,
    device: DeviceConfig,
    injector: Option<Arc<FaultInjector>>,
    next_id: AtomicU64,
    next_generation: AtomicU64,
}

impl Shared {
    /// Export the admission gauges. Exports only: the ladder reads
    /// [`Admission`] itself, never the registry.
    fn publish_gauges(&self) {
        let (cost, queued) = self.admission.snapshot();
        obs::gauge(
            "serve_queue_depth",
            &[("class", "interactive")],
            queued[0] as f64,
        );
        obs::gauge("serve_queue_depth", &[("class", "bulk")], queued[1] as f64);
        obs::gauge("serve_cost_outstanding", &[], cost as f64);
    }

    /// The ladder rung for the admission state right now.
    fn level(&self) -> DegradationLevel {
        self.cfg
            .controller
            .level_for_pressure(self.admission.pressure())
    }

    /// Pin the current database generation.
    fn current(&self) -> Arc<DbGeneration> {
        Arc::clone(&self.current.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Export the current generation's gauges.
    fn publish_generation(&self) {
        let generation = self.current();
        obs::gauge("serve_db_generation", &[], generation.id as f64);
        let blocks = generation.resident.num_blocks();
        obs::gauge("serve_db_blocks", &[], blocks as f64);
    }
}

/// The admission-controlled search service. See the module docs for the
/// lifecycle; construction uploads the database once and spawns the
/// worker pool, [`shutdown`](Server::shutdown) (or drop) drains it.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Build a server over `db`: validates both configs, flattens the
    /// database to device layout once, and spawns the workers.
    pub fn new(
        db: SequenceDb,
        params: SearchParams,
        search_cfg: CuBlastpConfig,
        device: DeviceConfig,
        cfg: ServeConfig,
    ) -> Result<Self, SearchError> {
        Self::with_injector(db, params, search_cfg, device, cfg, None)
    }

    /// Build a server over a validated `.cdb` image: the device layout is
    /// materialised zero-copy from the mapped arena — no flatten pass —
    /// and becomes generation 1. The image's stored block size must match
    /// `search_cfg.db_block_size`.
    pub fn from_image(
        img: &DbImage,
        params: SearchParams,
        search_cfg: CuBlastpConfig,
        device: DeviceConfig,
        cfg: ServeConfig,
    ) -> Result<Self, SearchError> {
        Self::with_injector(img, params, search_cfg, device, cfg, None)
    }

    /// Build a server over any [`DbSource`] with a fault injector
    /// shared by every request — the chaos/fault-matrix entry point, and
    /// the constructor [`new`](Self::new) and
    /// [`from_image`](Self::from_image) forward to.
    pub fn with_injector<'a>(
        source: impl Into<DbSource<'a>>,
        params: SearchParams,
        search_cfg: CuBlastpConfig,
        device: DeviceConfig,
        cfg: ServeConfig,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<Self, SearchError> {
        cfg.validate()?;
        search_cfg.validate()?;
        let first = DbGeneration::open(1, source.into(), cfg.shards, search_cfg.db_block_size)?;
        let shared = Arc::new(Shared {
            admission: Admission::new(AdmissionConfig {
                queue_capacity: cfg.queue_capacity,
                cost_capacity: cfg.cost_capacity,
            }),
            limiter: RateLimiter::new(cfg.tenant_rate),
            cfg,
            state: Mutex::new(QueueState::default()),
            cv: Condvar::new(),
            current: Mutex::new(Arc::new(first)),
            params,
            // One search thread per request, whatever the caller asked
            // for: the workers are the server's parallelism, sized by
            // `ServeConfig::workers`. A request that also fanned its CPU
            // tail out over `cpu_threads` helpers would oversubscribe the
            // cores the other workers are counted on, and put thread
            // starts and their wake-ups inside every request's latency.
            // Under overlap a request still starts one helper, which runs
            // a light tail beside the next block's hit phase (DESIGN.md
            // §3.13, one helper at threads 1), so it runs on at most two.
            search_cfg: CuBlastpConfig {
                cpu_threads: 1,
                ..search_cfg
            },
            device,
            injector,
            next_id: AtomicU64::new(1),
            next_generation: AtomicU64::new(2),
        });
        shared.publish_generation();
        obs::gauge(
            "serve_queue_capacity",
            &[],
            shared.cfg.queue_capacity as f64,
        );
        obs::gauge("serve_cost_capacity", &[], shared.cfg.cost_capacity as f64);
        shared.publish_gauges();

        let workers = (0..shared.cfg.workers)
            .map(|w| {
                let sh = Arc::clone(&shared);
                let interactive_only = w < sh.cfg.reserved_interactive_workers;
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || worker_loop(&sh, interactive_only))
                    .map_err(|e| SearchError::config(format!("serve: spawn failed: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { shared, workers })
    }

    /// Number of database blocks a search admitted now will run — the
    /// unit of [`Event::Block`] and of deadline telemetry, at any shard
    /// count.
    pub fn num_blocks(&self) -> u32 {
        self.shared.current().resident.num_blocks() as u32
    }

    /// Id of the generation new admissions are pinned to.
    pub fn generation(&self) -> u64 {
        self.shared.current().id
    }

    /// Hot-swap the database: flatten `db` at the server's block size and
    /// atomically publish it as the next generation. Returns the new
    /// generation id. The swap is wait-free for traffic — in-flight and
    /// queued searches finish on the generation they pinned at admission;
    /// only admissions after the swap see the new database. The flatten
    /// runs on the caller's thread, outside every server lock.
    pub fn swap_db(&self, db: SequenceDb) -> Result<u64, SearchError> {
        self.swap(db.into())
    }

    /// Hot-swap to a validated `.cdb` image, zero-copy (no flatten pass).
    /// Same pinning semantics as [`swap_db`](Self::swap_db); additionally
    /// the *old* generation's mapping (if image-backed) is unmapped only
    /// when its refcount reaches zero — after the last search pinned to it
    /// completes. The image block size must match the server's.
    pub fn swap_image(&self, img: &DbImage) -> Result<u64, SearchError> {
        self.swap(img.into())
    }

    /// Make `source` resident and atomically publish it as the next
    /// generation. In-flight and queued jobs keep their pinned `Arc`; only
    /// future admissions see the new one.
    fn swap(&self, source: DbSource<'_>) -> Result<u64, SearchError> {
        let sh = &self.shared;
        let _span = obs::span("db_swap", "serve");
        let kind = source.kind();
        let id = sh.next_generation.fetch_add(1, Ordering::Relaxed);
        let next = DbGeneration::open(id, source, sh.cfg.shards, sh.search_cfg.db_block_size)?;
        *sh.current.lock().unwrap_or_else(|e| e.into_inner()) = Arc::new(next);
        sh.publish_generation();
        obs::counter("serve_swaps_total", &[("source", kind)], 1);
        Ok(id)
    }

    /// Current degradation level as seen by the next submission.
    pub fn level(&self) -> DegradationLevel {
        self.shared.level()
    }

    /// Admit a request or refuse it with a typed error. Refusals:
    /// `Overloaded` (rate limit, ladder shed, or full budgets) with a
    /// backoff hint; `config`/`input` errors for a shut-down server or an
    /// empty query. Admission is ordered rate-limit → ladder → budgets so
    /// an abusive tenant is refused before it can influence global state.
    pub fn submit(&self, request: Request) -> Result<ResponseHandle, SearchError> {
        let sh = &self.shared;
        if sh.state.lock().unwrap_or_else(|e| e.into_inner()).closed {
            return Err(SearchError::config("serve: server is shut down"));
        }
        if request.query.is_empty() {
            return Err(SearchError::input("serve: empty query"));
        }
        let class = request.priority;

        if let Err(retry_after_ms) = sh.limiter.try_acquire(&request.tenant) {
            obs::counter(
                "serve_shed_total",
                &[("class", class.name()), ("reason", "rate_limit")],
                1,
            );
            return Err(SearchError::Overloaded { retry_after_ms });
        }

        let level = sh.level();
        if level >= DegradationLevel::ShedBulk && class == Priority::Bulk {
            obs::counter(
                "serve_shed_total",
                &[("class", class.name()), ("reason", "degraded")],
                1,
            );
            return Err(SearchError::Overloaded {
                retry_after_ms: sh.admission.backoff_hint(),
            });
        }

        // Pin the generation before the cost estimate so the cost refers
        // to the database the job will actually search.
        let generation = sh.current();
        let cost = estimate_cost(request.query.len(), generation.resident.total_residues());
        if let Err(e) =
            sh.admission
                .try_admit(class, cost, level >= DegradationLevel::ShrinkBudgets)
        {
            obs::counter(
                "serve_shed_total",
                &[("class", class.name()), ("reason", "queue_full")],
                1,
            );
            return Err(e);
        }

        // The deadline clock starts here, at admission — queue time is
        // part of the client's wait and must count against the budget.
        let cancel = match request.deadline.or(sh.cfg.default_deadline) {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::never(),
        };
        let id = sh.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        {
            let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
            if st.closed {
                // Lost the race with shutdown: refund and refuse.
                drop(st);
                sh.admission.dequeued(class);
                sh.admission.complete(cost, 0.1);
                sh.publish_gauges();
                return Err(SearchError::config("serve: server is shut down"));
            }
            st.queues[class.index()].push_back(Job {
                query: request.query,
                priority: class,
                cost,
                cancel,
                enqueued: Instant::now(),
                generation,
                tx,
            });
        }
        sh.cv.notify_all();
        obs::counter("serve_admitted_total", &[("class", class.name())], 1);
        sh.publish_gauges();
        Ok(ResponseHandle {
            id,
            priority: class,
            rx,
        })
    }

    /// Stop accepting new requests, drain everything already admitted,
    /// and join the workers. Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.closed = true;
        }
        self.shared.cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Pick the next job for a worker, honoring the reserved lane and the
/// weighted round-robin between classes. Returns `None` when the worker
/// should exit (closed and nothing pickable).
fn pick_job(sh: &Shared, interactive_only: bool) -> Option<Job> {
    let mut st = sh.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        let has_i = !st.queues[0].is_empty();
        let has_b = !st.queues[1].is_empty() && !interactive_only;
        if has_i || has_b {
            let take_interactive = if has_i && has_b {
                if st.interactive_run < INTERACTIVE_WEIGHT {
                    st.interactive_run += 1;
                    true
                } else {
                    st.interactive_run = 0;
                    false
                }
            } else {
                has_i
            };
            let job = if take_interactive {
                st.queues[0].pop_front()
            } else {
                st.queues[1].pop_front()
            };
            drop(st);
            let job = job?; // non-empty by construction
            sh.admission.dequeued(job.priority);
            sh.publish_gauges();
            return Some(job);
        }
        if st.closed {
            return None;
        }
        st = sh.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

fn worker_loop(sh: &Shared, interactive_only: bool) {
    // One scratch workspace per worker, reused across requests, so the
    // steady-state hot path allocates nothing (same pooling as the batch
    // drivers — but never shared between workers, which run concurrently).
    let workspace = Arc::new(KernelWorkspace::new());
    while let Some(job) = pick_job(sh, interactive_only) {
        process_job(sh, &workspace, job);
    }
}

fn process_job(sh: &Shared, workspace: &Arc<KernelWorkspace>, job: Job) {
    let class = job.priority;
    let queue_wait = job.enqueued.elapsed();
    let queue_wait_ms = queue_wait.as_secs_f64() * 1e3;
    obs::observe(
        "serve_queue_wait_ms",
        &[("class", class.name())],
        queue_wait_ms,
    );
    // The job's pinned generation, not the server's current one: a swap
    // that landed while this job was queued must not change its database.
    let resident = &job.generation.resident;

    // A request whose deadline expired while queued is refused before any
    // device work — this is the "server queued you to death" path.
    if job.cancel.check() {
        finish(
            sh,
            &job,
            queue_wait_ms,
            0.0,
            false,
            Err(SearchError::DeadlineExceeded {
                elapsed_ms: job.cancel.elapsed_ms(),
                blocks_completed: 0,
                blocks_total: resident.num_blocks() as u32,
            }),
        );
        return;
    }

    // Re-assess the ladder at pickup: pressure may have crossed the
    // coarse-placement rung while this job was queued.
    let mut search_cfg = sh.search_cfg;
    let mut degraded_placement = false;
    if sh.level() >= DegradationLevel::CoarseOnly && search_cfg.gapped_backend == GappedBackend::Gpu
    {
        search_cfg.gapped_backend = GappedBackend::Cpu;
        degraded_placement = true;
        obs::counter("serve_coarse_placements_total", &[], 1);
    }

    let t_service = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let on_block = |p: BlockProgress<'_>| {
            obs::counter("serve_blocks_streamed_total", &[], 1);
            // A receiver that hung up just stops streaming; the search
            // itself still completes and settles the admission budget.
            let _ = job.tx.send(Event::Block {
                block: p.block,
                blocks_total: p.blocks_total,
                partial: p.partial.clone(),
            });
        };
        let hooks = SearchHooks {
            cancel: job.cancel.clone(),
            on_block: Some(&on_block),
        };
        let mut searcher = resident.searcher(job.query.clone(), sh.params, search_cfg, sh.device);
        searcher.workspace = Arc::clone(workspace);
        if let Some(inj) = &sh.injector {
            searcher.injector = Arc::clone(inj);
        }
        // The generation is already resident; no request pays the upload.
        search_sharded(&searcher, resident, &hooks)
    }));
    let service_ms = t_service.elapsed().as_secs_f64() * 1e3;

    let result = match outcome {
        Ok(res) => res,
        Err(payload) => Err(SearchError::from(PipelineError::WorkerPanicked {
            side: "serve worker",
            payload: panic_message(payload.as_ref()),
        })),
    };
    finish(
        sh,
        &job,
        queue_wait_ms,
        service_ms,
        degraded_placement,
        result,
    );
}

/// Settle one job: release its admission cost, record telemetry, and send
/// the terminal `Done` event.
fn finish(
    sh: &Shared,
    job: &Job,
    queue_wait_ms: f64,
    service_ms: f64,
    degraded_placement: bool,
    result: Result<CuBlastpResult, SearchError>,
) {
    sh.admission.complete(job.cost, service_ms.max(0.1));
    sh.publish_gauges();
    let class = job.priority;
    let total_ms = queue_wait_ms + service_ms;
    obs::observe("serve_latency_ms", &[("class", class.name())], total_ms);

    let done = match result {
        Ok(mut r) => {
            r.recovery.queue_wait_us = (queue_wait_ms * 1e3) as u64;
            obs::counter(
                "serve_completed_total",
                &[("class", class.name()), ("outcome", "ok")],
                1,
            );
            Ok(ServeResult {
                result: r,
                queue_wait_ms,
                service_ms,
                degraded_placement,
                generation: job.generation.id,
            })
        }
        Err(e) => {
            if matches!(e, SearchError::DeadlineExceeded { .. }) {
                obs::counter("serve_deadline_total", &[("class", class.name())], 1);
            }
            obs::counter(
                "serve_completed_total",
                &[("class", class.name()), ("outcome", e.category())],
                1,
            );
            Err(e)
        }
    };
    let _ = job.tx.send(Event::Done(Box::new(done)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_seq::generate::{generate_db, make_query, DbSpec};
    use cublastp::CuBlastp;

    /// Held by the tests that map `.cdb` images and assert on the
    /// process-global `cublastp_db::unmap_count` / `mapped_block_count`
    /// deltas: `cargo test` runs unit tests threaded, and another test
    /// mapping or unmapping an image in between would move the counters.
    /// Nothing else needs a lock — servers share no state.
    static MAPPING_LOCK: Mutex<()> = Mutex::new(());

    fn mapping_lock() -> std::sync::MutexGuard<'static, ()> {
        MAPPING_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn workload() -> (Sequence, SequenceDb) {
        let q = make_query(96);
        let spec = DbSpec {
            name: "serve-t",
            num_sequences: 120,
            mean_length: 130,
            homolog_fraction: 0.2,
            seed: 33,
        };
        (q.clone(), generate_db(&spec, &q).db)
    }

    fn search_cfg() -> CuBlastpConfig {
        CuBlastpConfig {
            db_block_size: 40,
            grid_blocks: 2,
            warps_per_block: 2,
            cpu_threads: 1,
            ..Default::default()
        }
    }

    fn server(cfg: ServeConfig) -> (Server, Sequence) {
        let (q, db) = workload();
        let srv = Server::new(
            db,
            SearchParams::default(),
            search_cfg(),
            DeviceConfig::k20c(),
            cfg,
        )
        .expect("server config valid");
        (srv, q)
    }

    #[test]
    fn sharded_serve_matches_flat_serve() {
        let (srv, q) = server(ServeConfig::default());
        let flat = srv
            .submit(Request::interactive(q.clone(), "t0"))
            .expect("admitted")
            .wait()
            .expect("flat serve");
        drop(srv);

        let sharded_srv = {
            let (_, db) = workload();
            // 40-sequence shards of three blocks each.
            let cfg = CuBlastpConfig {
                db_block_size: 15,
                ..search_cfg()
            };
            Server::new(
                db,
                SearchParams::default(),
                cfg,
                DeviceConfig::k20c(),
                ServeConfig {
                    shards: 3,
                    ..ServeConfig::default()
                },
            )
            .expect("sharded server config valid")
        };
        // Progress is per database block at any shard count: exactly
        // `num_blocks()` Block events in global pipeline order, then Done.
        let total = sharded_srv.num_blocks();
        assert_eq!(total, 9, "shards must span several blocks each");
        let handle = sharded_srv
            .submit(Request::interactive(q, "t0"))
            .expect("admitted");
        let mut streamed = SearchReport::default();
        let mut blocks = Vec::new();
        let out = loop {
            match handle.next_event().expect("event stream open") {
                Event::Block {
                    block,
                    blocks_total,
                    partial,
                } => {
                    assert_eq!(blocks_total, total);
                    blocks.push(block);
                    streamed.hits.extend(partial.hits);
                }
                Event::Done(result) => break result.expect("sharded serve"),
            }
        };
        assert_eq!(blocks, (0..total).collect::<Vec<_>>());
        // Partials carry global subject indices: accumulated and ranked,
        // they are the final report.
        streamed.finalize(SearchParams::default().max_reported);
        assert_eq!(
            streamed.identity_key(),
            out.result.report.identity_key(),
            "accumulated partials must reproduce the final report"
        );
        assert_eq!(
            out.result.report.identity_key(),
            flat.result.report.identity_key()
        );
        for (a, b) in out.result.report.hits.iter().zip(&flat.result.report.hits) {
            assert_eq!(a.evalue.to_bits(), b.evalue.to_bits());
            assert_eq!(a.bit_score.to_bits(), b.bit_score.to_bits());
        }
        assert!(ServeConfig {
            shards: 0,
            ..ServeConfig::default()
        }
        .validate()
        .is_err());
    }

    /// A resident generation charges no upload, flat or sharded: the
    /// one-shard served result is the flat resident search field by field
    /// (every modelled field — CPU fields are measured wall-clock), and a
    /// 3-shard served makespan is the shards' pipeline makespans alone.
    #[test]
    fn served_requests_pay_no_upload_at_any_shard_count() {
        let (q, db) = workload();
        let dev_db = cublastp::DeviceDb::upload(&db, search_cfg().db_block_size);
        let flat = CuBlastp::new(
            q.clone(),
            SearchParams::default(),
            search_cfg(),
            DeviceConfig::k20c(),
            &db,
        )
        .search_resident(&db, &dev_db)
        .expect("flat resident search");

        let (srv, _) = server(ServeConfig::default());
        let one = srv
            .submit(Request::interactive(q.clone(), "t0"))
            .expect("admitted")
            .wait()
            .expect("one-shard serve")
            .result;
        assert_eq!(one.report.identity_key(), flat.report.identity_key());
        assert_eq!(one.kernels, flat.kernels);
        let modelled = |t: &cublastp::CuBlastpTiming| (t.gpu_ms, t.h2d_ms, t.d2h_ms);
        assert_eq!(modelled(&one.timing), modelled(&flat.timing));
        assert_eq!(one.timing.h2d_ms, 0.0);
        assert_eq!(one.block_timings.len(), flat.block_timings.len());
        for (a, b) in one.block_timings.iter().zip(&flat.block_timings) {
            assert_eq!(
                (a.h2d_ms, a.gpu_ms, a.d2h_ms),
                (b.h2d_ms, b.gpu_ms, b.d2h_ms)
            );
        }
        // One shard, no upload: the makespan is the pipeline's own.
        let pipeline_ms = cublastp::schedule(&one.block_timings).overlapped_ms;
        assert_eq!(one.timing.overlapped_ms, pipeline_ms);

        let srv = Server::new(
            db,
            SearchParams::default(),
            search_cfg(),
            DeviceConfig::k20c(),
            ServeConfig {
                shards: 3,
                ..ServeConfig::default()
            },
        )
        .expect("sharded server config valid");
        let three = srv
            .submit(Request::interactive(q, "t0"))
            .expect("admitted")
            .wait()
            .expect("3-shard serve")
            .result;
        let resident = &srv.shared.current().resident;
        let uploads: f64 = resident.upload_ms(&DeviceConfig::k20c()).iter().sum();
        assert!(uploads > 0.0);
        assert_eq!(three.timing.h2d_ms, 0.0);
        let mut timings = three.block_timings.iter().copied();
        let shards_ms: f64 = (resident.shards().iter())
            .map(|s| {
                let own: Vec<_> = timings.by_ref().take(s.dev.num_blocks()).collect();
                cublastp::schedule(&own).overlapped_ms
            })
            .sum();
        assert!(
            (three.timing.overlapped_ms - shards_ms).abs() < 1e-9,
            "makespan {} must not contain the {uploads} ms of resident uploads (shards: {shards_ms})",
            three.timing.overlapped_ms
        );
    }

    /// Fill `srv`'s interactive queue with a back-to-back burst (submission
    /// is microseconds, a search milliseconds) and return the highest rung
    /// its ladder reached, calling `between` after every submission.
    fn burst_max_level(srv: &Server, q: &Sequence, between: impl Fn()) -> DegradationLevel {
        let mut max = srv.level();
        let handles: Vec<_> = (0..8)
            .filter_map(|_| {
                let h = srv.submit(Request::interactive(q.clone(), "t0")).ok();
                max = max.max(srv.level());
                between();
                h
            })
            .collect();
        for h in handles {
            h.wait().expect("admitted request completes");
        }
        max
    }

    #[test]
    fn two_live_servers_never_see_each_others_load() {
        let one_worker = ServeConfig {
            workers: 1,
            reserved_interactive_workers: 0,
            ..Default::default()
        };
        let (a, q) = server(ServeConfig {
            queue_capacity: 64,
            ..one_worker
        });
        let (b, _) = server(ServeConfig {
            queue_capacity: 1,
            ..one_worker
        });
        // Two requests on A leave one queued at most: 1/64 is no pressure,
        // whatever B's capacity is.
        let queued: Vec<_> = (0..2)
            .map(|_| {
                a.submit(Request::interactive(q.clone(), "t0"))
                    .expect("admitted")
            })
            .collect();
        assert_eq!(a.level(), DegradationLevel::Normal);
        assert_eq!(b.level(), DegradationLevel::Normal);
        for h in queued {
            h.wait().expect("completes");
        }
        // Saturating B's one-slot queue moves B's ladder and never A's...
        let b_max = burst_max_level(&b, &q, || {
            assert_eq!(a.level(), DegradationLevel::Normal);
        });
        assert!(b_max >= DegradationLevel::ShedBulk, "B reached {b_max:?}");
        // ...and a burst that is light for A's 64 slots never moves B's.
        let a_max = burst_max_level(&a, &q, || {
            assert_eq!(b.level(), DegradationLevel::Normal);
        });
        assert_eq!(a_max, DegradationLevel::Normal);
    }

    #[test]
    fn ladder_works_with_the_metrics_registry_disarmed() {
        let (srv, q) = server(ServeConfig {
            workers: 1,
            reserved_interactive_workers: 0,
            queue_capacity: 4,
            // One queued request (1/4) is already the shed rung, so the
            // burst only has to outpace a single search.
            controller: LoadController {
                shed_bulk_at: 0.25,
                shrink_at: 2.0,
                coarse_at: 2.0,
            },
            ..Default::default()
        });
        // Overload protection must not depend on whether exporting is on.
        obs::disarm();
        let max = burst_max_level(&srv, &q, || {});
        assert!(max >= DegradationLevel::ShedBulk, "ladder stuck at {max:?}");
        assert_eq!(srv.level(), DegradationLevel::Normal, "drained");
    }

    #[test]
    fn served_search_matches_direct_search() {
        let (srv, q) = server(ServeConfig::default());
        let (_, db) = workload();
        let direct = CuBlastp::new(
            q.clone(),
            SearchParams::default(),
            search_cfg(),
            DeviceConfig::k20c(),
            &db,
        )
        .search(&db)
        .expect("direct search");

        let handle = srv.submit(Request::interactive(q, "t0")).expect("admitted");
        let out = handle.wait().expect("served search");
        assert_eq!(
            out.result.report.identity_key(),
            direct.report.identity_key()
        );
        assert!(out.queue_wait_ms >= 0.0 && out.service_ms > 0.0);
        assert!(!out.degraded_placement);
        // Queue wait is surfaced through the recovery report (satellite 1).
        assert_eq!(
            out.result.recovery.queue_wait_us,
            (out.queue_wait_ms * 1e3) as u64
        );
    }

    #[test]
    fn block_events_stream_in_order_then_done() {
        let (srv, q) = server(ServeConfig::default());
        let total = srv.num_blocks();
        assert!(total > 1, "workload must span multiple blocks");
        let handle = srv.submit(Request::interactive(q, "t0")).expect("admitted");
        let mut blocks = Vec::new();
        let mut done = None;
        while let Some(ev) = handle.next_event() {
            match ev {
                Event::Block {
                    block,
                    blocks_total,
                    ..
                } => {
                    assert_eq!(blocks_total, total);
                    blocks.push(block);
                }
                Event::Done(res) => {
                    done = Some(*res);
                    break;
                }
            }
        }
        assert_eq!(blocks, (0..total).collect::<Vec<_>>());
        assert!(done.expect("terminal event").is_ok());
    }

    #[test]
    fn zero_deadline_yields_typed_deadline_error() {
        let (srv, q) = server(ServeConfig::default());
        let handle = srv
            .submit(Request::interactive(q, "t0").with_deadline(Duration::ZERO))
            .expect("admission does not check deadlines");
        match handle.wait() {
            Err(SearchError::DeadlineExceeded {
                blocks_completed,
                blocks_total,
                ..
            }) => {
                assert_eq!(blocks_completed, 0);
                assert_eq!(blocks_total, srv.num_blocks());
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn shed_bulk_rung_refuses_bulk_but_not_interactive() {
        let cfg = ServeConfig {
            // Threshold at zero pressure: permanently at ShedBulk.
            controller: LoadController {
                shed_bulk_at: 0.0,
                shrink_at: 2.0,
                coarse_at: 2.0,
            },
            ..Default::default()
        };
        let (srv, q) = server(cfg);
        let err = srv
            .submit(Request::bulk(q.clone(), "t0"))
            .expect_err("bulk must shed");
        match err {
            SearchError::Overloaded { retry_after_ms } => assert!(retry_after_ms > 0),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let ok = srv
            .submit(Request::interactive(q, "t0"))
            .expect("interactive admitted");
        assert!(ok.wait().is_ok());
    }

    #[test]
    fn tenant_rate_limit_refuses_with_backoff() {
        let cfg = ServeConfig {
            tenant_rate: RateLimitConfig {
                rate_per_sec: 0.001, // one request per ~17 minutes
                burst: 1.0,
            },
            ..Default::default()
        };
        let (srv, q) = server(cfg);
        assert!(srv.submit(Request::interactive(q.clone(), "t0")).is_ok());
        let err = srv
            .submit(Request::interactive(q.clone(), "t0"))
            .expect_err("tenant t0 over its rate");
        assert_eq!(err.category(), "overloaded");
        // Another tenant has its own bucket.
        assert!(srv.submit(Request::interactive(q, "t1")).is_ok());
    }

    #[test]
    fn queue_capacity_sheds_with_typed_overload() {
        // One worker, one queue slot: the third submission in a burst must
        // be refused (one running + one queued).
        let cfg = ServeConfig {
            workers: 1,
            reserved_interactive_workers: 0,
            queue_capacity: 1,
            ..Default::default()
        };
        let (srv, q) = server(cfg);
        let mut handles = Vec::new();
        let mut shed = 0;
        for _ in 0..6 {
            match srv.submit(Request::interactive(q.clone(), "t0")) {
                Ok(h) => handles.push(h),
                Err(SearchError::Overloaded { retry_after_ms }) => {
                    assert!(retry_after_ms > 0);
                    shed += 1;
                }
                Err(other) => panic!("expected Overloaded, got {other:?}"),
            }
        }
        assert!(shed > 0, "a 6-deep burst into a 1-slot queue must shed");
        // Every admitted request still terminates cleanly.
        for h in handles {
            h.wait().expect("admitted request completes");
        }
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let (mut srv, q) = server(ServeConfig::default());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let class = if i % 2 == 0 {
                    Request::interactive(q.clone(), "t0")
                } else {
                    Request::bulk(q.clone(), "t1")
                };
                srv.submit(class).expect("admitted")
            })
            .collect();
        srv.shutdown();
        for h in handles {
            h.wait().expect("drained, not dropped");
        }
        // New submissions are refused after shutdown.
        let err = srv
            .submit(Request::interactive(q, "t0"))
            .expect_err("closed");
        assert_eq!(err.category(), "config");
    }

    /// A second, distinguishable database over the same query (different
    /// seed → different planted homologs, so results differ from
    /// `workload()`'s db).
    fn workload_b(q: &Sequence) -> SequenceDb {
        let spec = DbSpec {
            name: "serve-t-b",
            num_sequences: 120,
            mean_length: 130,
            homolog_fraction: 0.2,
            seed: 77,
        };
        generate_db(&spec, q).db
    }

    fn direct_key(q: &Sequence, db: &SequenceDb) -> Vec<(usize, i32, u32, u32, u32, u32)> {
        CuBlastp::new(
            q.clone(),
            SearchParams::default(),
            search_cfg(),
            DeviceConfig::k20c(),
            db,
        )
        .search(db)
        .expect("direct search")
        .report
        .identity_key()
    }

    #[test]
    fn swap_pins_inflight_and_routes_new_admissions() {
        let (srv, q) = server(ServeConfig::default());
        assert_eq!(srv.generation(), 1);
        let (_, db_a) = workload();
        let db_b = workload_b(&q);
        let key_a = direct_key(&q, &db_a);
        let key_b = direct_key(&q, &db_b);
        assert_ne!(key_a, key_b, "the two generations must be distinguishable");

        // Admit against generation 1, swap, then admit against 2. The
        // pre-swap requests are queued or running when the swap lands.
        let before: Vec<_> = (0..3)
            .map(|_| {
                srv.submit(Request::interactive(q.clone(), "t0"))
                    .expect("admitted")
            })
            .collect();
        let new_gen = srv.swap_db(db_b).expect("swap");
        assert_eq!(new_gen, 2);
        assert_eq!(srv.generation(), 2);
        let after = srv
            .submit(Request::interactive(q.clone(), "t0"))
            .expect("admitted");

        for h in before {
            let out = h.wait().expect("pre-swap request completes");
            assert_eq!(out.generation, 1, "pinned at admission");
            assert_eq!(out.result.report.identity_key(), key_a);
        }
        let out = after.wait().expect("post-swap request completes");
        assert_eq!(out.generation, 2);
        assert_eq!(out.result.report.identity_key(), key_b);
    }

    #[test]
    fn image_server_and_swap_release_mapping_at_refcount_zero() {
        let _g = mapping_lock();
        let (q, db) = workload();
        let img = cublastp_db::DbImage::from_bytes(
            cublastp_db::build_to_vec(&db, search_cfg().db_block_size),
            "serve-img-a",
        )
        .expect("valid image");
        let mapped_before = cublastp::mapped_block_count();
        let srv = Server::from_image(
            &img,
            SearchParams::default(),
            search_cfg(),
            DeviceConfig::k20c(),
            ServeConfig::default(),
        )
        .expect("server from image");
        // The generation *is* the mapped image: one materialisation of its
        // blocks, none of them flattened, one host copy of the sequences.
        // (The process-wide `flatten_count` delta is asserted where no
        // other test flattens: tests/tests/flatten_count.rs.)
        assert_eq!(
            cublastp::mapped_block_count() - mapped_before,
            u64::from(srv.num_blocks())
        );
        let generation = srv.shared.current();
        assert_eq!(generation.resident.num_shards(), 1);
        assert!(generation.resident.shards()[0].dev.is_mapped());
        drop(generation);
        drop(img); // the generation keeps the mapping alive
        let key_a = direct_key(&q, &db);
        let h = srv
            .submit(Request::interactive(q.clone(), "t0"))
            .expect("admitted");
        let out = h.wait().expect("served from image");
        assert_eq!(out.generation, 1);
        assert_eq!(out.result.report.identity_key(), key_a);

        let unmaps_before = cublastp_db::unmap_count();
        let db_b = workload_b(&q);
        let img_b = cublastp_db::DbImage::from_bytes(
            cublastp_db::build_to_vec(&db_b, search_cfg().db_block_size),
            "serve-img-b",
        )
        .expect("valid image");
        srv.swap_image(&img_b).expect("swap to image b");
        drop(img_b);
        // Generation 1's mapping is released once nothing pins it: no job
        // holds it (the only request completed above) and the server now
        // points at generation 2. Workers may still be dropping the last
        // job, so poll briefly instead of asserting instantly.
        let deadline = Instant::now() + Duration::from_secs(2);
        while cublastp_db::unmap_count() < unmaps_before + 1 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(cublastp_db::unmap_count(), unmaps_before + 1);

        let out = srv
            .submit(Request::interactive(q.clone(), "t0"))
            .expect("admitted")
            .wait()
            .expect("served on generation 2");
        assert_eq!(out.generation, 2);
        assert_eq!(out.result.report.identity_key(), direct_key(&q, &db_b));
    }

    #[test]
    fn image_block_size_mismatch_is_a_config_error() {
        let _g = mapping_lock();
        let (q, db) = workload();
        let img = cublastp_db::DbImage::from_bytes(
            cublastp_db::build_to_vec(&db, 999),
            "serve-img-mismatch",
        )
        .expect("valid image");
        let err = match Server::from_image(
            &img,
            SearchParams::default(),
            search_cfg(),
            DeviceConfig::k20c(),
            ServeConfig::default(),
        ) {
            Err(e) => e,
            Ok(_) => panic!("block size mismatch must be rejected"),
        };
        assert_eq!(err.category(), "config");
        let (srv, _) = server(ServeConfig::default());
        let err = srv.swap_image(&img).expect_err("swap mismatch");
        assert_eq!(err.category(), "config");
        drop(q);
    }

    #[test]
    fn empty_query_is_an_input_error() {
        let (srv, _q) = server(ServeConfig::default());
        let empty = Sequence::from_residues("empty", Vec::new());
        let err = srv
            .submit(Request::interactive(empty, "t0"))
            .expect_err("empty query refused");
        assert_eq!(err.category(), "input");
    }

    #[test]
    fn config_validation_rejects_degenerate_pools() {
        for bad in [
            ServeConfig {
                workers: 0,
                ..Default::default()
            },
            ServeConfig {
                workers: 2,
                reserved_interactive_workers: 2,
                ..Default::default()
            },
            ServeConfig {
                workers: 1,
                reserved_interactive_workers: 1,
                ..Default::default()
            },
            ServeConfig {
                queue_capacity: 0,
                ..Default::default()
            },
        ] {
            assert_eq!(bad.validate().expect_err("invalid").category(), "config");
        }
    }
}
