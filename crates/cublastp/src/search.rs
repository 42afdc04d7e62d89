//! The cuBLASTP searcher and the flat batch plan.
//!
//! [`CuBlastp`] orchestrates the whole paper: database blocks stream
//! through the fine-grained GPU kernels (§3.2–3.5), their extension
//! records cross the modelled PCIe link, and the multicore CPU tail
//! finishes gapped extension and alignment with traceback (§3.6, Fig. 13:
//! a block's subjects claimed by executed threads, merged in subject
//! order), overlapped block-against-block as in Fig. 12. Output is
//! bit-identical to the
//! FSA-BLAST reference (`blast_cpu::search_sequential`) — the property
//! §4.3 claims and the integration tests enforce.

use crate::binning::BinnedHits;
use crate::cancel::CancelToken;
use crate::config::{CuBlastpConfig, GappedBackend};
use crate::devicedata::{DeviceDb, DeviceDbBlock, DeviceQuery};
use crate::error::SearchError;
use crate::executor::{execute, isolated, view_passes, view_schedules, Plan, ShardView};
use crate::gapped_device::{FineDp, SubjectDp, FINE_GAPPED_KERNEL};
use crate::gpu_phase::{
    kernel_label, kernel_named, pipeline_rank, run_seeded_phase, ExtensionsCsr, GpuPhaseCounts,
    GpuPhaseOutput,
};
use crate::pipeline::BlockTiming;
use bio_seq::{DbBlock, Sequence, SequenceDb};
use blast_core::SearchParams;
use blast_cpu::par::{executed_threads, par_scope, shares, ParMap};
use blast_cpu::report::{PhaseTimes, ReportedHit, SearchReport};
use blast_cpu::search::{apportion_wall, SearchEngine};
use gpu_sim::{
    DeviceConfig, DeviceError, FaultCtx, FaultInjector, FaultSite, KernelStats, KernelWorkspace,
};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// The clock a reported time is on (DESIGN.md "Clocks, threads and the
/// ledger"; the names `benchmark/README.md` uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The `gpu-sim` cycle model and the modelled PCIe link: a pure
    /// function of the inputs, bit-identical between runs.
    DeviceModel,
    /// Measured `Instant` on the host: set-up, merge, and the CPU tail on
    /// however many threads executed it.
    HostWall,
    /// A formula over times of the other two: the Fig. 12 pipeline
    /// makespan, the fleet schedule. Repeats only as well as its measured
    /// inputs.
    ScheduleModel,
}

/// Timing summary of one cuBLASTP search (figure inputs). Every field
/// names its [`Clock`]; the only sums across clocks are
/// [`Self::total_ms`] and the last row of
/// [`CuBlastpResult::phase_rows`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CuBlastpTiming {
    /// Simulated GPU kernel time, the paper's "critical phases"
    /// (`DeviceModel`).
    pub gpu_ms: f64,
    /// Modelled host→device transfer time (`DeviceModel`).
    pub h2d_ms: f64,
    /// Modelled device→host transfer time (`DeviceModel`).
    pub d2h_ms: f64,
    /// CPU gapped-extension time (`HostWall`): the measured wall-clock of
    /// each block's tail on the threads that executed it, times gapped
    /// extension's share of the summed thread time (the threads interleave
    /// the two phases subject by subject).
    pub gapped_ms: f64,
    /// CPU traceback time, the rest of the same wall-clock (`HostWall`).
    pub traceback_ms: f64,
    /// Query setup + merge and ranking, "Other" in Fig. 19d (`HostWall`).
    pub other_ms: f64,
    /// The CPU lane of the Fig. 12 schedule summed over blocks
    /// (`HostWall`): gapped + traceback as above, or, for a block whose
    /// gapped phase ran on the device, the summed report time of its
    /// subjects (its DP, on the same threads, is billed as the kernel).
    pub cpu_wall_ms: f64,
    /// Makespan with the Fig. 12 overlap (`ScheduleModel`).
    pub overlapped_ms: f64,
    /// Makespan without overlap (`ScheduleModel`).
    pub serial_ms: f64,
}

impl CuBlastpTiming {
    /// Total reported time: overlapped pipeline plus the serial "other"
    /// work (database read, DFA/PSSM build, final output) — a
    /// `ScheduleModel` makespan plus `HostWall` time.
    pub fn total_ms(&self) -> f64 {
        self.overlapped_ms + self.other_ms
    }
}

/// What the recovery policy had to do to complete a search (see
/// DESIGN.md §3.3). All zeros on a fault-free run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Device faults observed across all blocks and attempts.
    pub faults: u64,
    /// Block launches retried after a transient fault.
    pub retries: u64,
    /// Blocks re-run on the CPU degradation path.
    pub degraded_blocks: u64,
    /// Blocks whose *gapped* device phase fell back to the CPU tail
    /// (`--gapped-backend gpu` only; the hit-path kernels still ran).
    #[serde(default)]
    pub degraded_gapped: u64,
    /// Host wall-clock spent on the retry path, in microseconds: failed
    /// launch attempts, workspace resets and backoff sleeps. Separated
    /// from compute so `--phase-table` can report retry cost distinctly
    /// instead of folding it into phase times.
    #[serde(default)]
    pub retry_wait_us: u64,
    /// Host wall-clock this query spent queued behind earlier work before
    /// its search started, in microseconds. Set by the search executor and
    /// the serving layer; zero for a standalone search.
    #[serde(default)]
    pub queue_wait_us: u64,
}

impl RecoveryReport {
    /// True when the search completed without touching the recovery path.
    /// Wait telemetry (`queue_wait_us`, `retry_wait_us`) does not count:
    /// a query that merely queued behind a batch is still clean.
    pub fn is_clean(&self) -> bool {
        self.faults == 0
            && self.retries == 0
            && self.degraded_blocks == 0
            && self.degraded_gapped == 0
    }
}

/// Progress notification for one completed database block, delivered to
/// [`SearchHooks::on_block`] from the CPU side of the pipeline as soon as
/// the block's tail finishes — the serving layer streams these to clients
/// incrementally instead of waiting for the whole search.
#[derive(Debug)]
pub struct BlockProgress<'a> {
    /// Database block index (pipeline order).
    pub block: u32,
    /// Total database blocks in this search.
    pub blocks_total: u32,
    /// This block's alignments, pre-merge and pre-ranking. Hits from
    /// different blocks never alias, so a consumer can accumulate these
    /// and reach the exact final report (minus `finalize` ranking).
    pub partial: &'a SearchReport,
}

/// Per-search hooks for the serving layer (see DESIGN.md §3.8):
/// cooperative cancellation polled at every block boundary (GPU side, CPU
/// side, and recovery retries), and an optional per-block streaming
/// callback. [`SearchHooks::default`] is inert — the plain
/// [`CuBlastp::search_resident`] path uses it and pays nothing.
#[derive(Default)]
pub struct SearchHooks<'a> {
    /// Polled between database blocks and at every recovery retry; when it
    /// trips, the search stops at the next checkpoint and returns
    /// [`SearchError::DeadlineExceeded`] with partial-phase telemetry.
    pub cancel: CancelToken,
    /// Called on the searching thread as each block's CPU tail is joined,
    /// with that block's partial report. Must be cheap; the pipeline blocks on
    /// it.
    pub on_block: Option<&'a (dyn Fn(BlockProgress<'_>) + Sync)>,
}

impl SearchHooks<'_> {
    fn deadline_error(&self, blocks_completed: u32, blocks_total: u32) -> SearchError {
        SearchError::DeadlineExceeded {
            elapsed_ms: self.cancel.elapsed_ms(),
            blocks_completed,
            blocks_total,
        }
    }
}

/// One row of [`CuBlastpResult::phase_rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Kernel stats name, or the phase's fixed label.
    pub name: String,
    /// The clock `ms` is on.
    pub clock: Clock,
    /// Milliseconds.
    pub ms: f64,
}

/// Result of a cuBLASTP search: the report and the search's ledger.
///
/// The ledger — everything but `report` — is folded by
/// [`Self::absorb`] at every level (blocks into a shard's search, shards
/// into a query's result, a batch's queries into a front end's summary)
/// and broken down by [`Self::phase_rows`]; nothing else in the tree adds
/// these fields up.
#[derive(Debug, Default)]
pub struct CuBlastpResult {
    /// Ranked hit list — identical to the CPU reference.
    pub report: SearchReport,
    /// Stats of every kernel that launched, counters merged over its
    /// launches, one entry per kernel name in pipeline order. A kernel no
    /// block ran (hit detection under grouped seeding, the hit path of a
    /// search degraded to the host) has no entry.
    pub kernels: Vec<KernelStats>,
    /// Modelled milliseconds of each entry of `kernels`, summed launch by
    /// launch — the rows that add up to `timing.gpu_ms`. A launch is one
    /// device pass: a block on [`GappedBackend::Cpu`], a shard view on
    /// [`GappedBackend::Gpu`] (DESIGN.md §3.7), billed as the `time_ms`
    /// of the counters merged over it. So a device-gapped search over
    /// one view has `kernel_ms[i] == kernels[i].time_ms()`;
    /// anywhere else the query's merged counters bill one launch overhead
    /// and one `max(compute, bandwidth)` for what was several launches.
    pub kernel_ms: Vec<f64>,
    /// Hit/extension counters summed across blocks.
    pub counts: GpuPhaseCounts,
    /// Timing summary.
    pub timing: CuBlastpTiming,
    /// Stage times in pipeline order, one entry per device pass — per
    /// block on [`GappedBackend::Cpu`], per non-empty shard view on
    /// [`GappedBackend::Gpu`]: the raw schedule input. Each shard view's
    /// Fig. 12 schedule is stamped from its run of passes, and the fleet
    /// schedule's item costs are those schedules.
    pub block_timings: Vec<BlockTiming>,
    /// What the fault-recovery policy did (all zeros when fault-free).
    pub recovery: RecoveryReport,
    /// The most threads that finished or aligned subjects of one block's
    /// tail (the device pass's DP is one): what ran of `cpu_threads`.
    /// Under `overlap` a block's subjects go to whichever threads are
    /// free beside the next wave's hit phases, so a light block's may
    /// count two. 0 when no block had a subject for the tail.
    pub tail_threads_ran: usize,
}

impl CuBlastpResult {
    /// Stats of one kernel by name ([`crate::gpu_phase::kernel_named`]).
    pub fn kernel(&self, name: &str) -> Option<&KernelStats> {
        self.kernels.iter().find(|k| kernel_named(&k.name, name))
    }

    /// Modelled milliseconds of one kernel by name
    /// ([`crate::gpu_phase::kernel_named`]), summed over its launches.
    pub fn kernel_ms_of(&self, name: &str) -> Option<f64> {
        self.kernel_rows()
            .find(|(k, _)| kernel_named(&k.name, name))
            .map(|(_, ms)| ms)
    }

    /// Every kernel's merged stats with its modelled milliseconds
    /// ([`Self::kernel_ms`]), in pipeline order.
    pub fn kernel_rows(&self) -> impl Iterator<Item = (&KernelStats, f64)> + '_ {
        self.kernels.iter().zip(self.kernel_ms.iter().copied())
    }

    /// Fold `part` into this ledger: one block of a shard's search, one
    /// shard of a query, one query of a batch. Every time, count and
    /// recovery field adds (makespans too: parts run one after another
    /// unless a schedule says otherwise, and whoever has one stamps it
    /// afterwards; `tail_threads_ran`, a peak, takes the larger);
    /// per-kernel rows merge by kernel name and keep pipeline order, so a
    /// part that did not launch a kernel contributes nothing to its row.
    /// `report` is not part of the ledger and is left alone.
    pub fn absorb(&mut self, part: &CuBlastpResult) {
        for (k, ms) in part.kernel_rows() {
            match self.kernels.iter().position(|have| have.name == k.name) {
                Some(i) => {
                    self.kernels[i].merge(k);
                    self.kernel_ms[i] += ms;
                }
                None => {
                    let rank = pipeline_rank(&k.name);
                    let at =
                        (self.kernels).partition_point(|have| pipeline_rank(&have.name) <= rank);
                    self.kernels.insert(at, k.clone());
                    self.kernel_ms.insert(at, ms);
                }
            }
        }
        let (c, p) = (&mut self.counts, &part.counts);
        c.hits += p.hits;
        c.filtered += p.filtered;
        c.extensions += p.extensions;
        c.triggered += p.triggered;
        c.redundant += p.redundant;
        c.d2h_bytes += p.d2h_bytes;
        let (r, p) = (&mut self.recovery, &part.recovery);
        r.faults += p.faults;
        r.retries += p.retries;
        r.degraded_blocks += p.degraded_blocks;
        r.degraded_gapped += p.degraded_gapped;
        r.retry_wait_us += p.retry_wait_us;
        r.queue_wait_us += p.queue_wait_us;
        self.tail_threads_ran = self.tail_threads_ran.max(part.tail_threads_ran);
        self.block_timings.extend_from_slice(&part.block_timings);
        let (t, p) = (&mut self.timing, &part.timing);
        t.gpu_ms += p.gpu_ms;
        t.h2d_ms += p.h2d_ms;
        t.d2h_ms += p.d2h_ms;
        t.gapped_ms += p.gapped_ms;
        t.traceback_ms += p.traceback_ms;
        t.other_ms += p.other_ms;
        t.cpu_wall_ms += p.cpu_wall_ms;
        t.overlapped_ms += p.overlapped_ms;
        t.serial_ms += p.serial_ms;
    }

    /// Where the time went, one row per phase, each on its own clock:
    /// every kernel that launched and the two PCIe legs (`DeviceModel`),
    /// the CPU tail's gapped extension and traceback (`HostWall`, measured
    /// on the threads that ran it; zero where the device ran the gapped
    /// phase, whose reporting pass is not a row), set-up and merge
    /// (`HostWall`). The last row is the serial total of the rows above
    /// it — with [`CuBlastpTiming::total_ms`] the only sum across clocks
    /// in the tree, and `ScheduleModel` like everything that mixes
    /// modelled device time with measured host time.
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        use Clock::{DeviceModel, HostWall, ScheduleModel};
        let row = |name: &str, clock, ms| PhaseRow {
            name: name.to_string(),
            clock,
            ms,
        };
        let t = &self.timing;
        let mut rows: Vec<PhaseRow> = (self.kernel_rows())
            .map(|(k, ms)| row(&k.name, DeviceModel, ms))
            .collect();
        rows.extend([
            row("h2d_transfer", DeviceModel, t.h2d_ms),
            row("d2h_transfer", DeviceModel, t.d2h_ms),
            row("gapped_extension", HostWall, t.gapped_ms),
            row("traceback", HostWall, t.traceback_ms),
            row("other (setup+merge)", HostWall, t.other_ms),
        ]);
        let total = rows.iter().map(|r| r.ms).sum();
        rows.push(row("total (serial)", ScheduleModel, total));
        rows
    }
}

/// A configured cuBLASTP searcher for one query.
pub struct CuBlastp {
    /// Shared query state (PSSM, DFA, cutoffs) — also used by the CPU
    /// phases.
    pub engine: SearchEngine,
    /// Simulated device.
    pub device: DeviceConfig,
    /// Pipeline configuration.
    pub config: CuBlastpConfig,
    /// Pooled hit-path scratch, reused across database blocks and across
    /// searches. The executor shares one workspace between all queries of
    /// a stream, so after warm-up the hot path performs zero allocations
    /// (see [`KernelWorkspace`]).
    pub workspace: Arc<KernelWorkspace>,
    /// Fault injector consulted at every device fault site. Defaults to
    /// disarmed (never fires); tests and chaos runs arm it with a
    /// [`gpu_sim::FaultPlan`].
    pub injector: Arc<FaultInjector>,
    /// This query's index in a batch stream (0 standalone) — the `query`
    /// coordinate fault specs can scope to.
    pub stream_index: u32,
    pub(crate) query_device: DeviceQuery,
    /// Measured host time of building the engine and the query's device
    /// structures; `run_blocks` books it once per query.
    pub(crate) setup_ms: f64,
}

/// Milliseconds of backoff before retry `n` of a faulted device step,
/// scaled by `n`.
const RETRY_BACKOFF_MS: f64 = 0.1;

/// One leg of the modelled PCIe link: counter label, trace track, event.
type PcieLeg = (&'static str, &'static str, &'static str);
const H2D: PcieLeg = ("h2d", "pcie h2d (modelled)", "h2d_transfer");
const D2H: PcieLeg = ("d2h", "pcie d2h (modelled)", "d2h_transfer");

/// Modelled time of moving `bytes` for `block` of `query` over one PCIe
/// leg, recorded on the leg's trace track and byte counter.
fn bill_transfer(device: &DeviceConfig, leg: PcieLeg, bytes: u64, block: u32, query: u32) -> f64 {
    let (dir, track, event) = leg;
    let ms = device.transfer_ms(bytes);
    obs::modelled(track, event, ms, Some(block), Some(query));
    obs::counter("pcie_bytes_total", &[("dir", dir)], bytes);
    ms
}

/// Stamp `r`'s makespans: each view's Fig. 12 schedule over its passes
/// ([`view_schedules`]), the views one after another.
fn stamp_schedules(r: &mut CuBlastpResult, views: &[ShardView<'_>], backend: GappedBackend) {
    let t = &mut r.timing;
    (t.overlapped_ms, t.serial_ms) = (0.0, 0.0);
    for s in view_schedules(&r.block_timings, views, backend) {
        t.overlapped_ms += s.overlapped_ms;
        t.serial_ms += s.serial_ms;
    }
}

/// Bill the upload of every block of `views` to `r`, `query`'s finished
/// search over them under `backend`: one H2D leg per block, the legs of a
/// device pass ([`view_passes`]) folded into its [`BlockTiming`], the
/// passes folded view by view into `timing.h2d_ms` as the merge folds the
/// others, and the schedules stamped again. Called by the search that
/// uploaded ([`CuBlastp::search`]) and, in a batch that pays, for the
/// lowest-index query that succeeded: who pays never depends on the order
/// in which queries finish.
pub(crate) fn bill_upload(
    device: &DeviceConfig,
    views: &[ShardView<'_>],
    backend: GappedBackend,
    query: u32,
    r: &mut CuBlastpResult,
) {
    let mut passes = r.block_timings.iter_mut();
    let mut blocks = 0u32..;
    let mut h2d_ms = 0.0;
    for view in views {
        let mut shard_ms = 0.0;
        for (pass, timing) in view_passes(backend, view).zip(passes.by_ref()) {
            let mut pass_ms = 0.0;
            for ((_, dev), block) in pass.iter().zip(blocks.by_ref()) {
                pass_ms += bill_transfer(device, H2D, dev.upload_bytes(), block, query);
            }
            timing.h2d_ms = pass_ms;
            shard_ms += pass_ms;
        }
        h2d_ms += shard_ms;
    }
    r.timing.h2d_ms = h2d_ms;
    stamp_schedules(r, views, backend);
}

/// Where a device step runs: the fault scope (fault specs count a view's
/// blocks), the block's place in the query's database (what a deadline
/// error reports) and the view its subjects belong to.
#[derive(Clone, Copy)]
struct BlockAt<'a> {
    ctx: FaultCtx,
    block: u32,
    blocks_total: u32,
    shard: usize,
    hooks: &'a SearchHooks<'a>,
}

/// What a block leaves for the search's threads.
enum TailWork {
    /// The block's trigger survivors: gapped extension and traceback.
    Finish(Arc<ExtensionsCsr>),
    /// The same survivors, aligned by the device gapped backend's
    /// functional DP, then reported; the fold bills the kernel.
    Align(Arc<DeviceDbBlock>, Arc<ExtensionsCsr>),
}

/// One block's subjects as the search's threads see them. Owned, because
/// the helpers outlive the block (`blast_cpu::par`).
struct TailJob {
    /// The block, numbered over the query's database.
    block: u32,
    /// The shard view the block belongs to.
    shard: usize,
    /// Shard-local index of the block's first sequence.
    base: usize,
    work: TailWork,
    /// Block-local indices of the subjects with records to finish or
    /// align — the items the threads claim.
    todo: Vec<u32>,
    /// Σ ungapped score over the block's records: what its gapped phase
    /// will cost, to first order (see [`HELPER_MIN_SEED_SCORE`]).
    seed_score: u64,
}

/// The seed score below which a block is *light*: its gapped phase runs
/// on one thread — the caller, or under `overlap` whichever thread is free
/// beside the next block's hit phase — and the next wave of hit phases is
/// as wide as the search's threads. A heavy block's gapped phase (on the
/// CPU, or the device backend's functional DP) is shared among all of
/// them, and the next wave is one block: its tail keeps the helpers busy.
///
/// Gapped extension and traceback cost about 0.2 µs per unit of seed
/// score (EXPERIMENTS.md "PR 24": 85 → 40–100 µs, 1 558 → 295 µs, 5 524 →
/// 819 µs, 12 000 → 2.9 ms on one thread; the device backend's functional
/// DP costs about the same, EXPERIMENTS.md "Gapped placement"), and a
/// parked helper takes about 60 µs to wake in the reference sandbox —
/// longer than the whole gapped phase of most blocks of a database with
/// few homologs. Below this sum (≈ 0.4 ms of DP) a second thread cannot
/// return what waking it costs, so the block wakes no more than it must.
/// A constant, not an option: it compares two costs of the same machine,
/// and both scale with it.
const HELPER_MIN_SEED_SCORE: u64 = 2_000;

impl TailJob {
    /// The block's non-empty subjects and their seed score.
    fn new(b: &Block<'_>, work: TailWork) -> Self {
        let (TailWork::Finish(extensions) | TailWork::Align(_, extensions)) = &work;
        let todo = (0..extensions.num_seqs())
            .filter(|&local| !extensions.seq(local).is_empty())
            .map(|local| local as u32)
            .collect();
        let seed_score = (extensions.records().iter())
            .map(|e| u64::from(e.score.max(0).unsigned_abs()))
            .sum();
        Self {
            block: b.at.block,
            shard: b.at.shard,
            base: b.range.start,
            work,
            todo,
            seed_score,
        }
    }

    /// True when the block is heavy: its subjects are worth sharing among
    /// `threads`.
    fn shared_among(&self, threads: usize) -> bool {
        shares(threads, self.todo.len()) && self.seed_score >= HELPER_MIN_SEED_SCORE
    }
}

/// How many blocks' hit phases the search's next step runs beside the
/// pending tails, `last` the last of them; `waves`: `overlap`, two or
/// more threads and a disarmed injector. The first wave is one block: a
/// wider one holds a second hit-path working set while no tail has said
/// how busy the helpers will be (EXPERIMENTS.md "Hit-phase waves").
/// Without `overlap` (Figs. 11 and 13 time each phase alone) a pending
/// tail runs in a step of its own, before the next block's launch
/// checkpoint: width 0. After a light block the wave
/// is as wide as the threads, after a heavy one one block — its tail
/// keeps the helpers busy; a device block is heavy by its DP. On one
/// thread, or with the injector armed, every wave is one block: a wider
/// one runs hit phases before their launch checkpoint, so they may
/// neither fault nor poll.
fn wave_width(last: Option<&TailJob>, overlap: bool, threads: usize, waves: bool) -> usize {
    match last {
        None => 1,
        Some(_) if !overlap => 0,
        Some(job) if waves && !job.shared_among(threads) => threads,
        Some(_) => 1,
    }
}

/// One batch of the search's threads: the hit phases of a wave's blocks
/// past its first (the caller runs that one itself), then the subjects of
/// earlier blocks' tails in block order.
struct Batch {
    /// Indices into the search's blocks; with the caller's own, a wave of
    /// `hits.len() + 1` blocks.
    hits: Vec<usize>,
    tails: Vec<TailJob>,
    /// Helpers claim items beside a claiming caller (test rendezvous wait
    /// only in such a batch).
    #[cfg(test)]
    shared: bool,
}

impl Batch {
    fn new(hits: Vec<usize>, tails: Vec<TailJob>) -> Self {
        Self {
            hits,
            tails,
            #[cfg(test)]
            shared: false,
        }
    }

    fn len(&self) -> usize {
        self.hits.len() + self.tails.iter().map(|t| t.todo.len()).sum::<usize>()
    }

    /// The tail and its item for item `i` of the subjects.
    fn subject(&self, mut i: usize) -> (usize, usize) {
        let mut t = 0;
        while i >= self.tails[t].todo.len() {
            i -= self.tails[t].todo.len();
            t += 1;
        }
        (t, i)
    }

    /// Run the batch on the search's threads, and `own` — the caller's own
    /// hit phase, if `beside` — on the caller; the items' results come
    /// back in index order. Helpers are woken only for work beside the
    /// caller: hit phases or a heavy tail (all helpers), a light tail
    /// while the caller runs `own` (one). The caller claims what is left
    /// once it is free — all of it when no helper was woken — unless the
    /// search has one thread: its overlap helper then finishes the batch
    /// alone.
    fn run<R>(
        self,
        tail: &mut Tail<'_, '_>,
        beside: bool,
        own: impl FnOnce() -> R,
    ) -> (R, Vec<Done>) {
        let (n, threads) = (self.len(), tail.threads());
        let heavy = self.tails.iter().any(|t| t.shared_among(threads));
        let helpers = if !self.hits.is_empty() || heavy {
            threads - 1
        } else {
            usize::from(beside)
        };
        let claims = threads >= 2;
        #[cfg(test)]
        let (batch, pair, aligns) = {
            let shared = helpers > 0 && claims;
            let pair = beside && shared && !self.hits.is_empty();
            let aligns = (self.tails.iter())
                .any(|t| matches!(t.work, TailWork::Align(..)) && !t.todo.is_empty());
            (Batch { shared, ..self }, pair, beside && shared && aligns)
        };
        #[cfg(not(test))]
        let batch = self;
        let posted = tail.post(batch, n, helpers);
        // The caller's own hit phase meets one a helper claimed, or an
        // `Align` subject.
        #[cfg(test)]
        if let Some(m) = meet::armed() {
            m.arrive(meet::Kind::Hits, pair);
            m.arrive(meet::Kind::Beside, aligns);
        }
        let r = own();
        let done = if claims {
            tail.help(posted)
        } else {
            tail.join(posted)
        };
        (r, done)
    }
}

/// A block's hit phase as it left the thread that ran it.
struct HitPhase {
    out: GpuPhaseOutput,
    recovery: RecoveryReport,
}

/// Which thread ran one tail subject, and from when to when.
struct Lane {
    on: ThreadId,
    from: Instant,
    to: Instant,
}

/// One claimed item, as the thread that claimed it leaves it.
enum Done {
    /// A hit phase, or why it failed.
    Hit(Result<HitPhase, SearchError>),
    /// Finished: its hits and its two phase times.
    Subject(Vec<ReportedHit>, PhaseTimes, Lane),
    /// Aligned by the device pass's DP, then reported: the DP, its hits
    /// and how long the report took.
    Aligned(SubjectDp, Vec<ReportedHit>, Duration, Lane),
}

impl Done {
    fn lane(&self) -> Option<&Lane> {
        match self {
            Done::Hit(_) => None,
            Done::Subject(.., lane) | Done::Aligned(.., lane) => Some(lane),
        }
    }
}

/// The threads that ran `done`'s subjects, and their wall-clock: the
/// first subject's start to the last one's end.
fn lanes(done: &[Done]) -> (usize, Duration) {
    let mut on: Vec<ThreadId> = Vec::new();
    let mut span: Option<(Instant, Instant)> = None;
    for lane in done.iter().filter_map(Done::lane) {
        if !on.contains(&lane.on) {
            on.push(lane.on);
        }
        span = Some(span.map_or((lane.from, lane.to), |(from, to)| {
            (from.min(lane.from), to.max(lane.to))
        }));
    }
    (
        on.len(),
        span.map_or(Duration::ZERO, |(from, to)| to - from),
    )
}

/// The threads of one search: the caller and its helpers.
type Tail<'scope, 'env> = ParMap<'scope, 'env, Batch, Done>;

/// One block of the query's database, as the search walks it.
struct Block<'a> {
    at: BlockAt<'a>,
    range: &'a DbBlock,
    dev: &'a Arc<DeviceDbBlock>,
    /// The block's bins from a grouped seeding round until the first
    /// attempt of its hit phase takes them, on whichever thread runs it;
    /// `None` for the query's own DFA pass.
    seed: Mutex<Option<BinnedHits>>,
}

/// What the GPU side of one block hands to its CPU tail, and the tail in
/// turn to the block's device pass ([`CuBlastp::bill_pass`]).
struct GpuSide {
    block: u32,
    /// `Some(n)` when the device pass's DP aligns the block in its tail:
    /// the block's `n` subjects, which the fold bills the kernel over.
    aligned: Option<usize>,
    /// The host reads device output of the block: `part.counts.d2h_bytes`
    /// cross the link in its pass's D2H leg.
    crosses: bool,
    /// The block's part of the search's ledger: the counters of its
    /// launches, unpriced (rows of 0 ms) until its pass bills them; the
    /// CPU tail adds the block's hits, its own times and, for an aligned
    /// block, the fine kernel's counters.
    part: CuBlastpResult,
}

impl CuBlastp {
    /// Build the searcher: constructs the DFA, PSSM and cutoffs (counted
    /// as "other" time, as the paper does) and uploads the query-side
    /// structures.
    pub fn new(
        query: Sequence,
        params: SearchParams,
        config: CuBlastpConfig,
        device: DeviceConfig,
        db: &SequenceDb,
    ) -> Self {
        Self::with_db_stats(query, params, config, device, db.total_residues(), db.len())
    }

    /// [`new`](Self::new) with explicit database statistics instead of the
    /// database itself — the sharded engine's constructor (DESIGN.md
    /// §3.10). Passing the *global* database's residue and sequence totals
    /// makes every cutoff and E-value identical to a single-database run
    /// while the searches themselves only ever touch shard-local
    /// [`SequenceDb`]s, which is exactly the statistics distribution
    /// mpiBLAST performs for its workers.
    pub fn with_db_stats(
        query: Sequence,
        params: SearchParams,
        config: CuBlastpConfig,
        device: DeviceConfig,
        db_residues: usize,
        db_sequences: usize,
    ) -> Self {
        let t0 = Instant::now();
        let setup_span = obs::span("query_setup", "host");
        let engine = SearchEngine::with_db_stats(query, params, db_residues, db_sequences);
        let query_device = DeviceQuery::upload(engine.dfa.clone(), engine.pssm.clone());
        drop(setup_span);
        let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
        Self {
            engine,
            device,
            config,
            workspace: Arc::new(KernelWorkspace::new()),
            injector: Arc::new(FaultInjector::none()),
            stream_index: 0,
            query_device,
            setup_ms,
        }
    }

    /// Search the database: flatten it into device layout once, run the
    /// pipeline against the resident copy, then bill the upload.
    pub fn search(&self, db: &SequenceDb) -> Result<CuBlastpResult, SearchError> {
        let dev = &DeviceDb::upload(db, self.config.db_block_size);
        let view = [ShardView { db, dev, start: 0 }];
        let mut r = self.run_blocks(&view, None, &SearchHooks::default())?;
        let backend = self.config.gapped_backend;
        bill_upload(&self.device, &view, backend, self.stream_index, &mut r);
        Ok(r)
    }

    /// Search against a database already resident on the device (see
    /// [`DeviceDb`]): the upload was paid when it became resident, so this
    /// query's timing carries no H2D leg.
    pub fn search_resident(
        &self,
        db: &SequenceDb,
        dev: &DeviceDb,
    ) -> Result<CuBlastpResult, SearchError> {
        let view = ShardView { db, dev, start: 0 };
        self.run_blocks(&[view], None, &SearchHooks::default())
    }

    /// The one loop of a query's search (Fig. 12): every resident block of
    /// every shard view, in global order, goes through the GPU side (hit
    /// phase, gapped backend) and then the CPU tail, overlapped
    /// wave-against-wave when configured — across shard boundaries too,
    /// under one set of tail helpers. A flat database is one view. `seeds`
    /// only says where the hit bins come from: one demuxed [`BinnedHits`]
    /// per block from a grouped seeding round, or `None` for the query's
    /// own DFA pass over every block. Hits carry *global* subject indices
    /// (`view.start` + shard-local index); `on_block` and a deadline error
    /// number the blocks over all views (`blocks_total` = Σ blocks), fault
    /// specs within a view. A failed block fails the query: a partial
    /// merge would break the identical-to-single-database contract. The
    /// block parts fold into their device passes, which bill them
    /// ([`Self::bill_pass`]), the passes into their shard's part and the
    /// shard parts into the query's result ([`CuBlastpResult::absorb`]):
    /// the result's makespan is the shards' serial chain
    /// ([`stamp_schedules`]), its "other" time the query's set-up plus the
    /// merge. No block carries an H2D leg: a payer bills it afterwards
    /// ([`bill_upload`]).
    pub(crate) fn run_blocks(
        &self,
        views: &[ShardView<'_>],
        seeds: Option<Vec<BinnedHits>>,
        hooks: &SearchHooks<'_>,
    ) -> Result<CuBlastpResult, SearchError> {
        self.config.validate()?;
        let _search_span = obs::span("search", "host").with_query(self.stream_index);
        // Record which SIMD instruction set the CPU phases dispatch to for
        // this search, and which backend owns the gapped phase (§3.7).
        let dispatch = blast_cpu::simd::dispatch_report();
        obs::gauge("cpu_simd_dispatch", &[("isa", dispatch.active.name())], 1.0);
        let backend = self.config.gapped_backend.name();
        obs::gauge("gapped_backend", &[("backend", backend)], 1.0);
        for view in views {
            if view.dev.block_size() != self.config.db_block_size {
                return Err(SearchError::config(format!(
                    "resident database was partitioned at block size {}, config wants {}",
                    view.dev.block_size(),
                    self.config.db_block_size
                )));
            }
        }

        let blocks_total: u32 = views.iter().map(|v| v.dev.num_blocks() as u32).sum();
        // Reject an already-expired request before any device work: the
        // serving layer admits with the deadline clock already running.
        if hooks.cancel.is_cancelled() {
            return Err(hooks.deadline_error(0, blocks_total));
        }

        // Every block of every view, numbered over the query's database,
        // with its seed.
        let mut seeds = seeds.into_iter().flatten();
        let blocks: Vec<Block<'_>> = (views.iter().enumerate())
            .flat_map(|(shard, view)| (0u32..).zip(view.dev.blocks()).map(move |b| (shard, b)))
            .zip(0u32..)
            .map(|((shard, (local, (range, dev))), block)| Block {
                at: BlockAt {
                    ctx: FaultCtx {
                        query: self.stream_index,
                        block: local,
                    },
                    block,
                    blocks_total,
                    shard,
                    hooks,
                },
                range,
                dev,
                seed: Mutex::new(seeds.next()),
            })
            .collect();

        // The CPU tail of one block, folded on the calling thread once the
        // search's threads have run its subjects: its hits, its row of the
        // Fig. 12 schedule and its progress event, in block order.
        let cpu_side = |mut gpu: GpuSide, done: Vec<Done>| {
            let _span = obs::span("consumer_block", "pipeline").with_block(gpu.block);
            let part = &mut gpu.part;
            part.timing.cpu_wall_ms = self.fold_tail(done, gpu.aligned, part);
            if let Some(on_block) = hooks.on_block {
                on_block(BlockProgress {
                    block: gpu.block,
                    blocks_total,
                    partial: &part.report,
                });
            }
            obs::counter("pipeline_blocks_total", &[("side", "consumer")], 1);
            gpu
        };

        // Fig. 12 on one kind of thread. Each step is one batch of the
        // search's threads: a wave's hit phases — the first on the caller,
        // as wide as `wave_width` says — beside the pending tails (the
        // device pass's DP included); then, in block order on the caller,
        // each block's launch checkpoint, the rest of its GPU side (the
        // gapped backend's fault checks, what it downloads) and its tail
        // checkpoint, after which its tail is pending. The helpers live as
        // long as this search, over every shard — started by the first
        // batch that wants them, parked between batches, joined on every
        // way out: success, a typed error, or a panic on either side.
        let overlap = self.config.overlap;
        let threads = executed_threads(self.config.cpu_threads);
        let waves = overlap && threads >= 2 && self.injector.is_disarmed();
        let caller = std::thread::current().id();
        #[cfg(test)]
        let rendezvous = meet::armed();
        let item = |batch: &Batch, i: usize| {
            let on_caller = std::thread::current().id() == caller;
            match batch.hits.get(i) {
                Some(&b) => {
                    #[cfg(test)]
                    if let Some(m) = &rendezvous {
                        m.arrive(meet::Kind::Hits, batch.shared);
                    }
                    Done::Hit(self.hit_item(&blocks[b], batch.hits.len() + 1, on_caller))
                }
                None => {
                    let (t, item) = batch.subject(i - batch.hits.len());
                    let job = &batch.tails[t];
                    #[cfg(test)]
                    if let Some(m) = &rendezvous {
                        let pair = batch.tails.iter().position(|t| t.todo.len() >= 2);
                        m.arrive(meet::Kind::Tail, batch.shared && pair == Some(t));
                        let aligns = matches!(job.work, TailWork::Align(..));
                        m.arrive(meet::Kind::Beside, batch.shared && aligns && !on_caller);
                    }
                    self.tail_item(views[job.shard], job, item, on_caller)
                }
            }
        };
        let helper_name = format!("tail-q{}", self.stream_index);
        let r = par_scope(&helper_name, threads, &item, |tail| {
            let mut parts = Vec::with_capacity(blocks.len());
            // Blocks whose tails the next batch runs.
            let mut pending: Vec<(GpuSide, TailJob)> = Vec::new();
            // Why the search ends early: it launches nothing more, and the
            // tails of blocks that passed their tail checkpoint still run,
            // so `on_block` fires for exactly those.
            let mut stop = None;
            let mut next = 0;
            while (stop.is_none() && next < blocks.len()) || !pending.is_empty() {
                let mut wave = next..next;
                if stop.is_none() {
                    let last = pending.last().map(|(_, job)| job);
                    let width = wave_width(last, overlap, threads, waves);
                    wave.end = blocks.len().min(next + width);
                }
                // Cancellation checkpoint of the wave's first block: an
                // expired query stops launching kernels and frees the
                // device mid-search.
                if !wave.is_empty() && hooks.cancel.check() {
                    stop = Some(hooks.deadline_error(blocks[wave.start].at.block, blocks_total));
                    wave.end = wave.start;
                }
                next = wave.end;
                let (sides, tails): (Vec<GpuSide>, Vec<TailJob>) = pending.drain(..).unzip();
                let sizes: Vec<usize> = tails.iter().map(|t| t.todo.len()).collect();
                let hits: Vec<usize> = wave.clone().skip(1).collect();
                let n_hits = hits.len();
                let own = || {
                    let first = blocks[wave.clone()].first();
                    first.map(|b| self.hit_item(b, wave.len(), true))
                };
                let (own, done) = isolated("cpu tail", || {
                    Ok(Batch::new(hits, tails).run(tail, !wave.is_empty(), own))
                })?;
                let mut done = done.into_iter();
                let hit_phases: Vec<Result<HitPhase, SearchError>> = (own.into_iter())
                    .chain(done.by_ref().take(n_hits).filter_map(|d| match d {
                        Done::Hit(hit) => Some(hit),
                        _ => None,
                    }))
                    .collect();
                for (gpu, size) in sides.into_iter().zip(sizes) {
                    parts.push(cpu_side(gpu, done.by_ref().take(size).collect()));
                }
                for (k, (b, hit)) in blocks[wave].iter().zip(hit_phases).enumerate() {
                    // The later blocks' launch checkpoints: a hit phase
                    // that ran before its own is dropped when it trips.
                    if k > 0 && hooks.cancel.check() {
                        stop = Some(hooks.deadline_error(b.at.block, blocks_total));
                        break;
                    }
                    let side = match isolated("gpu side", || self.gpu_side(b, hit?)) {
                        Ok(side) => side,
                        Err(e) => {
                            stop = Some(e);
                            break;
                        }
                    };
                    obs::counter("pipeline_blocks_total", &[("side", "producer")], 1);
                    // Checkpoint before the CPU tail: an expired query
                    // skips its host work too.
                    if hooks.cancel.check() {
                        stop = Some(hooks.deadline_error(b.at.block, blocks_total));
                        break;
                    }
                    pending.push(side);
                }
            }
            if let Some(e) = stop {
                return Err(e);
            }

            let t_merge = Instant::now();
            let merge_span = obs::span("merge", "host").with_query(self.stream_index);
            // The blocks fold into their device passes, the passes into
            // their shard, the shards into the query.
            let backend = self.config.gapped_backend;
            let mut r = CuBlastpResult::default();
            let mut parts = parts.into_iter();
            for view in views {
                let mut shard = CuBlastpResult::default();
                for pass in view_passes(backend, view) {
                    let blocks = parts.by_ref().take(pass.len());
                    shard.absorb(&self.bill_pass(blocks, &mut r.report.hits));
                }
                r.absorb(&shard);
            }
            stamp_schedules(&mut r, views, backend);
            r.report.finalize(self.engine.params.max_reported);
            r.timing.other_ms = self.setup_ms + t_merge.elapsed().as_secs_f64() * 1e3;
            drop(merge_span);
            Ok(r)
        })?;
        if obs::metrics_enabled() {
            let checkouts = self.workspace.checkouts();
            let allocs = self.workspace.allocations();
            if checkouts > 0 {
                let hit_rate = 1.0 - allocs as f64 / checkouts as f64;
                obs::gauge("workspace_pool_hit_rate", &[], hit_rate);
            }
        }
        Ok(r)
    }

    /// One block's hit phase (kernels 1–3, or the seeded pair) under the
    /// recovery policy, on whichever thread runs it: a `producer_block`
    /// span with the width of its wave and whether the caller ran it. A
    /// panic comes back typed as the GPU side's.
    fn hit_item(
        &self,
        b: &Block<'_>,
        wave: usize,
        on_caller: bool,
    ) -> Result<HitPhase, SearchError> {
        let _span = obs::span("producer_block", "pipeline")
            .with_block(b.at.block)
            .with_arg("wave", wave as f64)
            .with_arg("on_caller", f64::from(u8::from(on_caller)));
        let thread = if on_caller { "caller" } else { "helper" };
        obs::counter("pipeline_hit_phases_total", &[("thread", thread)], 1);
        isolated("gpu side", || {
            let mut recovery = RecoveryReport::default();
            let bins = (b.seed.lock().unwrap_or_else(PoisonError::into_inner)).take();
            let out = self.hit_phase(b.dev, b.at, bins, &mut recovery)?;
            Ok(HitPhase { out, recovery })
        })
    }

    /// The rest of a block's GPU side once its hit phase is back, on the
    /// caller: the gapped backend's fault checks, which pick the block's
    /// tail, and what the block downloads. Nothing is priced here: the
    /// block's pass bills its launches and its leg ([`Self::bill_pass`]).
    fn gpu_side(&self, b: &Block<'_>, hit: HitPhase) -> Result<(GpuSide, TailJob), SearchError> {
        let HitPhase {
            mut out,
            mut recovery,
        } = hit;
        let extensions = Arc::new(std::mem::take(&mut out.extensions));
        let work = self.attach_gapped_backend(b, extensions, &mut recovery)?;
        let aligned = matches!(work, TailWork::Align(..)).then(|| b.dev.num_seqs());
        // The link carries what the host reads: the device's alignments
        // (the fold counts them), else the trigger survivors the device
        // computed. Records the host computed itself (a degraded hit phase
        // feeding the CPU tail) cross nothing — no bytes, no latency.
        let crosses = aligned.is_some() || recovery.degraded_blocks == 0;
        if crosses {
            out.counts.d2h_bytes = out.download_bytes;
        }
        let gpu = GpuSide {
            block: b.at.block,
            aligned,
            crosses,
            part: CuBlastpResult {
                kernel_ms: vec![0.0; out.kernels.len()],
                kernels: out.kernels,
                counts: out.counts,
                recovery,
                ..Default::default()
            },
        };
        Ok((gpu, TailJob::new(b, work)))
    }

    /// Bill one device pass — a view's blocks up to the next read of
    /// device output ([`view_passes`]) — from their unpriced parts: each
    /// kernel one launch over the pass (the `time_ms` of its counters
    /// merged over the blocks), one D2H leg of everything the host reads
    /// from them (none when every block was computed on the host), and
    /// the pass's entry of the Fig. 12 schedule. The blocks' hits go to `hits`, in block order.
    /// A pass of one block — every pass of [`GappedBackend::Cpu`] — is
    /// that block's own launches and leg.
    fn bill_pass(
        &self,
        blocks: impl Iterator<Item = GpuSide>,
        hits: &mut Vec<ReportedHit>,
    ) -> CuBlastpResult {
        let mut pass = CuBlastpResult::default();
        let (mut first, mut crosses) = (None, false);
        for mut side in blocks {
            first = first.or(Some(side.block));
            crosses |= side.crosses;
            hits.append(&mut side.part.report.hits);
            pass.absorb(&side.part);
        }
        let (block, query) = (first.unwrap_or(0), self.stream_index);
        pass.kernel_ms = (pass.kernels.iter())
            .map(|k| k.time_ms(&self.device))
            .collect();
        for (k, ms) in pass.kernel_rows() {
            let label = kernel_label(&k.name);
            obs::modelled("gpu (modelled)", label, ms, Some(block), Some(query));
            obs::observe("kernel_sim_ms", &[("kernel", label)], ms);
        }
        let t = &mut pass.timing;
        t.gpu_ms = pass.kernel_ms.iter().sum();
        if crosses {
            let bytes = pass.counts.d2h_bytes;
            t.d2h_ms = bill_transfer(&self.device, D2H, bytes, block, query);
        }
        pass.block_timings.push(BlockTiming {
            h2d_ms: 0.0,
            gpu_ms: t.gpu_ms,
            d2h_ms: t.d2h_ms,
            cpu_ms: t.cpu_wall_ms,
        });
        pass
    }

    /// The retry loop every device fault site shares. A transient fault
    /// is retried up to the policy's attempt budget (workspace reset and
    /// linear backoff in between); the cancel token is polled before each
    /// retry, so an expired query stops relaunching and frees its slot.
    /// `Ok(None)`: the device cannot get past the fault and the policy
    /// allows degradation — how is the caller's `None` arm. With fallback
    /// disabled the last fault fails the search.
    fn recover<T>(
        &self,
        retry_span: &'static str,
        at: BlockAt<'_>,
        recovery: &mut RecoveryReport,
        mut attempt: impl FnMut() -> Result<T, DeviceError>,
    ) -> Result<Option<T>, SearchError> {
        let policy = self.config.recovery;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if attempts > 1 && at.hooks.cancel.check() {
                return Err(at.hooks.deadline_error(at.block, at.blocks_total));
            }
            // Re-launches after a fault get their own span, so retry storms
            // are visible as repeated retry lanes in the trace.
            let _retry_span = (attempts > 1).then(|| {
                obs::span(retry_span, "recovery")
                    .with_block(at.block)
                    .with_query(at.ctx.query)
                    .with_arg("attempt", attempts as f64)
            });
            let t_attempt = Instant::now();
            let fault = match attempt() {
                Ok(out) => return Ok(Some(out)),
                Err(e) => e,
            };
            recovery.faults += 1;
            obs::counter("recovery_faults_total", &[], 1);
            let retry = fault.is_transient() && attempts < policy.max_attempts;
            if retry {
                // A retry starts from known-good device state: drop pooled
                // buffers the failed launch may have left inconsistent,
                // then back off linearly.
                recovery.retries += 1;
                obs::counter("recovery_retries_total", &[], 1);
                self.workspace.reset();
                std::thread::sleep(Duration::from_secs_f64(
                    RETRY_BACKOFF_MS * attempts as f64 / 1e3,
                ));
            }
            // The failed attempt, the reset and the backoff are retry cost,
            // not compute — billed separately so phase tables stay honest.
            recovery.retry_wait_us += t_attempt.elapsed().as_micros() as u64;
            if retry {
                continue;
            }
            return if policy.cpu_fallback {
                Ok(None)
            } else {
                Err(SearchError::Device {
                    source: fault,
                    block: at.ctx.block,
                    attempts,
                })
            };
        }
    }

    /// One block's hit phase (kernels 1–3) under the recovery policy. The
    /// first attempt consumes the block's grouped-round `bins`, if any; a
    /// retry re-seeds through the query's own DFA (per-slot multiset-equal
    /// to the demuxed bins, so output is bit-identical). A fault the
    /// device cannot get past degrades the block to the CPU scan.
    fn hit_phase(
        &self,
        dev_block: &DeviceDbBlock,
        at: BlockAt<'_>,
        mut bins: Option<BinnedHits>,
        recovery: &mut RecoveryReport,
    ) -> Result<GpuPhaseOutput, SearchError> {
        let out = self.recover("block_retry", at, recovery, || {
            run_seeded_phase(
                &self.device,
                &self.config,
                &self.query_device,
                dev_block,
                &self.engine.params,
                &self.workspace,
                &self.injector,
                at.ctx,
                bins.take(),
            )
        })?;
        Ok(out.unwrap_or_else(|| {
            recovery.degraded_blocks += 1;
            obs::counter("recovery_degraded_blocks_total", &[], 1);
            let _fb_span = obs::span("cpu_fallback", "recovery")
                .with_block(at.block)
                .with_query(at.ctx.query);
            self.cpu_fallback_phase(dev_block)
        }))
    }

    /// The query side of this searcher's fine gapped kernel.
    fn fine_dp(&self) -> FineDp<'_> {
        FineDp {
            device: &self.device,
            query: &self.query_device,
            query_seq: self.engine.query.residues(),
            params: &self.engine.params,
            trigger: self.engine.cutoffs.gapped_trigger,
            report_cutoff: self.engine.cutoffs.report_cutoff,
            ws: &self.workspace,
        }
    }

    /// Pick the tail of one block whose hit phase is done: finish its
    /// `extensions`, as on [`GappedBackend::Cpu`], or align them. Under
    /// [`GappedBackend::Gpu`] the fine kernel's two fault sites are checked
    /// here, in launch order, under the recovery policy (DESIGN.md §3.7);
    /// its functional DP then runs as the block's tail, whose fold bills
    /// the kernel and its alignment payload. A fault the device cannot get
    /// past degrades *only this block's gapped phase* back to the CPU
    /// tail — the hit-path kernels' output stays valid, and the block
    /// downloads its trigger survivors like a [`GappedBackend::Cpu`] block.
    fn attach_gapped_backend(
        &self,
        b: &Block<'_>,
        extensions: Arc<ExtensionsCsr>,
        recovery: &mut RecoveryReport,
    ) -> Result<TailWork, SearchError> {
        if self.config.gapped_backend != GappedBackend::Gpu {
            return Ok(TailWork::Finish(extensions));
        }
        let (injector, ctx) = (&self.injector, b.at.ctx);
        let launched = self.recover("gapped_retry", b.at, recovery, || {
            injector.check(FaultSite::GappedLaunch, ctx, FINE_GAPPED_KERNEL)?;
            injector.check(FaultSite::GappedD2h, ctx, "alignment download")
        })?;
        if launched.is_none() {
            recovery.degraded_gapped += 1;
            obs::counter("recovery_degraded_gapped_total", &[], 1);
            // The CPU gapped phase finishes the block (bit-identical by
            // construction).
            return Ok(TailWork::Finish(extensions));
        }
        Ok(TailWork::Align(Arc::clone(b.dev), extensions))
    }

    /// Degradation path: reproduce the GPU phase for one block on the CPU
    /// reference scan (`blast_cpu::hit`). The extension records are
    /// bit-identical to what the diagonal- and window-based kernels produce
    /// (the equivalence the `extensions_match_cpu_reference` test pins
    /// down), a subset of the hit-based kernel's, which skips the coverage
    /// check; every downstream alignment is identical either way. Only the
    /// performance counters differ (no kernel stats: the block launched
    /// nothing, and nothing to download: the records are already on the
    /// host).
    fn cpu_fallback_phase(&self, db: &DeviceDbBlock) -> GpuPhaseOutput {
        let p = &self.engine.params;
        let mut scratch = blast_cpu::hit::DiagonalScratch::new(0);
        let mut stats = blast_cpu::hit::HitStats::default();
        let mut stream = Vec::new();
        for i in 0..db.num_seqs() {
            blast_cpu::hit::scan_subject_mode(
                &self.query_device.dfa,
                &self.query_device.pssm,
                db.seq(i),
                i as u32,
                p.two_hit,
                p.two_hit_window as i64,
                p.xdrop_ungapped,
                &mut scratch,
                &mut stream,
                &mut stats,
            );
        }
        // The GPU phase emits the trigger survivors, each subject's sorted
        // by the packed hit key; the same here keeps the CSR bit-identical.
        let n_ext = stream.len() as u64;
        stream.retain(|e| e.score >= p.gapped_trigger);
        stream.sort_by_key(|e| (e.seq_id, e.s_start, e.q_start, e.len));
        let triggered = stream.len() as u64;
        GpuPhaseOutput {
            extensions: ExtensionsCsr::from_stream(stream, db.num_seqs()),
            kernels: Vec::new(),
            counts: GpuPhaseCounts {
                hits: stats.hits,
                filtered: stats.triggers,
                extensions: n_ext,
                triggered,
                redundant: 0,
                d2h_bytes: 0,
            },
            download_bytes: 0,
        }
    }

    /// One claimed subject of a block, on whichever thread claimed it:
    /// gapped extension, traceback and statistics; or the device pass's DP
    /// (a `gapped_device` span) and the statistics of its alignments.
    fn tail_item(&self, view: ShardView<'_>, job: &TailJob, item: usize, on_caller: bool) -> Done {
        let from = Instant::now();
        let lane = || Lane {
            on: std::thread::current().id(),
            from,
            to: Instant::now(),
        };
        let local = job.todo[item] as usize;
        let idx = job.base + local;
        let subject = &view.db.sequences()[idx];
        let mut found = SearchReport::default();
        match &job.work {
            TailWork::Finish(extensions) => {
                let mut times = PhaseTimes::default();
                (self.engine).finish_subject(
                    view.start + idx,
                    subject,
                    extensions.seq(local),
                    &mut found,
                    Some(&mut times),
                );
                Done::Subject(found.hits, times, lane())
            }
            TailWork::Align(dev_block, extensions) => {
                let span = obs::span("gapped_device", "gpu")
                    .with_block(job.block)
                    .with_query(self.stream_index)
                    .with_arg("on_caller", f64::from(u8::from(on_caller)));
                let dp = self.fine_dp().subject(dev_block, extensions, local);
                drop(span);
                let t_report = Instant::now();
                let (index, aligns) = (view.start + idx, &dp.alignments);
                (self.engine).report_from_alignments(index, subject, aligns, &mut found);
                Done::Aligned(dp, found.hits, t_report.elapsed(), lane())
            }
        }
    }

    /// CPU tail for one block (§3.6, Fig. 13) once the search's
    /// `min(cpu_threads, available_parallelism())` threads have run its
    /// subjects — gapped extension + traceback over the block's extension
    /// CSR, or, when the device pass's DP aligned the block (`aligned`:
    /// its subject count), statistics and e-value filtering over the
    /// alignments: their hits appended to `part` in subject order, the
    /// order the one-thread loop produces. An aligned block's DPs merge in
    /// subject order into the fine kernel's bill ([`FineDp::bill`]), whose
    /// counters join `part.kernels` and whose alignment payload is the
    /// block's download. Returns the block's CPU lane: the measured
    /// wall-clock from its first subject's start to its last one's end,
    /// which `part.timing` splits into the two phases by their share of
    /// summed thread time — or, for an aligned block, the summed time of
    /// its reports: the DP shows up in the block's kernel time instead.
    /// Telemetry is emitted here, once per block, never from a helper.
    fn fold_tail(&self, done: Vec<Done>, aligned: Option<usize>, part: &mut CuBlastpResult) -> f64 {
        let span_name = if aligned.is_some() {
            "cpu_report"
        } else {
            "cpu_phase"
        };
        let mut cpu_span = obs::span(span_name, "cpu").with_query(self.stream_index);
        let (ran, wall) = lanes(&done);
        let mut summed = PhaseTimes::default();
        let (mut dps, mut reported) = (Vec::new(), Duration::ZERO);
        for d in done {
            match d {
                Done::Subject(mut hits, times, _) => {
                    part.report.hits.append(&mut hits);
                    summed.add(&times);
                }
                Done::Aligned(dp, mut hits, report, _) => {
                    part.report.hits.append(&mut hits);
                    dps.push(dp);
                    reported += report;
                }
                Done::Hit(_) => {}
            }
        }
        part.tail_threads_ran = part.tail_threads_ran.max(ran);
        if let Some(num_seqs) = aligned {
            let g = self.fine_dp().bill(&self.config, num_seqs, dps);
            part.kernels.push(g.stats);
            part.kernel_ms.push(0.0);
            part.counts.d2h_bytes = g.download_bytes;
            if obs::state() != 0 {
                obs::counter("alignments_total", &[], part.report.hits.len() as u64);
            }
            return reported.as_secs_f64() * 1e3;
        }
        let times = apportion_wall(wall, &summed);
        let gapped_ms = times.gapped.as_secs_f64() * 1e3;
        let traceback_ms = times.traceback.as_secs_f64() * 1e3;
        if obs::state() != 0 {
            cpu_span.set_arg("gapped_ms", gapped_ms);
            cpu_span.set_arg("traceback_ms", traceback_ms);
            cpu_span.set_arg("threads_requested", self.config.cpu_threads as f64);
            cpu_span.set_arg("threads_ran", part.tail_threads_ran as f64);
            // The two CPU sub-phases interleave per subject and per
            // thread, so their lanes are shares of the measured
            // `cpu_phase` span above, laid out like the GPU kernels'.
            let q = Some(self.stream_index);
            obs::modelled(
                "cpu tail (modelled)",
                "gapped_extension",
                gapped_ms,
                None,
                q,
            );
            obs::modelled("cpu tail (modelled)", "traceback", traceback_ms, None, q);
            obs::observe("gapped_ms", &[], gapped_ms);
            obs::observe("traceback_ms", &[], traceback_ms);
            obs::counter("alignments_total", &[], part.report.hits.len() as u64);
        }
        drop(cpu_span);
        part.timing.gapped_ms = gapped_ms;
        part.timing.traceback_ms = traceback_ms;
        gapped_ms + traceback_ms
    }
}

/// How a batch detects word hits (see DESIGN.md §3.6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedMode {
    /// One hit-detection pass per query through that query's DFA — the
    /// paper's Algorithm 2, and the default.
    #[default]
    PerQuery,
    /// One pass per query *group*: queries are packed into
    /// index-budget-bounded rounds, each round probes a shared
    /// [`blast_core::QueryIndex`] over every database block once, and hits
    /// are demuxed back into per-query arenas. Per-query output is
    /// bit-identical to [`SeedMode::PerQuery`].
    Grouped,
}

/// Device index budget of every [`SeedMode::Grouped`] round, in word →
/// (query, position) entries. Roughly the combined neighbourhood of 16–24
/// typical queries; see DESIGN.md §3.6 for the occupancy trade-off.
pub const DEFAULT_GROUP_BUDGET: usize = 65_536;

/// One grouped seeding round: the group it covered and what its shared
/// index looked like.
#[derive(Debug, Clone, Serialize)]
pub struct RoundReport {
    /// Batch indices covered by this round (contiguous, in input order).
    pub first_query: usize,
    /// Number of group members.
    pub members: usize,
    /// Word → (query, position) entries in the round's index.
    pub index_entries: usize,
    /// Slot-table capacity (power of two).
    pub index_capacity: usize,
    /// Filled fraction of the slot table.
    pub occupancy: f64,
    /// Modelled H2D payload of the index upload.
    pub index_upload_bytes: u64,
    /// Simulated time of the round's seeding passes, summed over database
    /// blocks.
    pub seeding_ms: f64,
    /// Database blocks the round passed over.
    pub blocks: usize,
}

impl RoundReport {
    /// Amortized seeding cost: simulated milliseconds per database block
    /// per group member — the quantity `bench --bin grouped_seeding`
    /// sweeps against batch size.
    pub fn seeding_ms_per_block_query(&self) -> f64 {
        if self.blocks == 0 || self.members == 0 {
            0.0
        } else {
            self.seeding_ms / (self.blocks as f64 * self.members as f64)
        }
    }
}

/// What the grouped seeding engine did for a batch. Present on
/// [`BatchOutcome`] exactly when the batch ran with
/// [`SeedMode::Grouped`] — callers (and the CI equivalence job) use it to
/// verify the grouped path actually ran instead of silently falling back.
#[derive(Debug, Clone, Serialize)]
pub struct GroupedReport {
    /// One entry per seeding round, in batch order.
    pub rounds: Vec<RoundReport>,
}

impl GroupedReport {
    /// Total simulated seeding time across rounds and blocks.
    pub fn total_seeding_ms(&self) -> f64 {
        self.rounds.iter().map(|r| r.seeding_ms).sum()
    }

    /// Queries covered by the rounds (must equal the batch size).
    pub fn queries_covered(&self) -> usize {
        self.rounds.iter().map(|r| r.members).sum()
    }

    /// Amortized seeding cost over the whole batch: simulated
    /// milliseconds per database block per query.
    pub fn seeding_ms_per_block_query(&self) -> f64 {
        let block_queries: usize = self.rounds.iter().map(|r| r.blocks * r.members).sum();
        if block_queries == 0 {
            0.0
        } else {
            self.total_seeding_ms() / block_queries as f64
        }
    }
}

/// Outcome of a multi-query batch (see [`search_batch_with`]).
pub struct BatchOutcome {
    /// Per-query results, in input order. A failed (or panicked) query is
    /// an `Err` in its slot; the rest of the batch completes normally.
    pub per_query: Vec<Result<CuBlastpResult, SearchError>>,
    /// Measured host wall-clock for the whole batch (setup included).
    pub wall_ms: f64,
    /// Grouped seeding telemetry — `Some` exactly when the batch ran with
    /// [`SeedMode::Grouped`], `None` on the per-query path.
    pub grouped: Option<GroupedReport>,
}

impl BatchOutcome {
    /// Queries that completed successfully.
    pub fn succeeded(&self) -> usize {
        self.per_query.iter().filter(|r| r.is_ok()).count()
    }

    /// Queries that failed, with their input index and error.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &SearchError)> {
        self.per_query
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
    }
}

/// Options for a multi-query batch.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Fault injector shared by every query of the stream (disarmed when
    /// `None`). Specs can scope to a query index with
    /// [`gpu_sim::FaultSpec::on_query`].
    pub injector: Option<Arc<FaultInjector>>,
    /// Hit-detection strategy: per-query DFA passes (default) or grouped
    /// index passes of [`DEFAULT_GROUP_BUDGET`] entries per round.
    /// Per-query output is bit-identical either way.
    pub seed_mode: SeedMode,
}

/// Search a batch of queries against one database, keeping the database
/// resident on the device so its upload cost amortizes across queries —
/// how real GPU BLAST deployments process query streams (and the NGS
/// workload the paper's introduction motivates): flattens it into device
/// layout exactly once ([`DeviceDb`]) and runs [`search_batch_resident`].
pub fn search_batch_with(
    queries: &[Sequence],
    params: SearchParams,
    config: CuBlastpConfig,
    device: DeviceConfig,
    db: &SequenceDb,
    opts: BatchOptions,
) -> BatchOutcome {
    let t0 = Instant::now();
    let dev_db = DeviceDb::upload(db, config.db_block_size);
    let mut out = search_batch_resident(queries, params, config, device, db, &dev_db, opts);
    // The flatten is part of this batch's wall-clock.
    out.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    out
}

/// [`search_batch_with`] over a database that is already resident (a
/// cached flatten, or a mapped `.cdb` image — no flatten pass runs).
///
/// The flat plan over the search executor (`executor.rs`): the database
/// is one borrowed shard view and every query searches the resident
/// copy. Once every query has run, the upload is billed to the
/// lowest-index query that succeeded — the same legs a standalone
/// [`CuBlastp::search`] of that query carries — and to no other. With
/// [`SeedMode::Grouped`] the executor packs the queries into
/// index-budget-bounded rounds and seeds each round with one pass per
/// database block ([`BatchOutcome::grouped`] reports the rounds; no
/// query's timing carries them or the upload); per-query reports are
/// bit-identical in both modes.
///
/// Queries are isolated: a poisoned query (malformed state, injected
/// panic) lands as an `Err` in its own `per_query` slot while every other
/// query completes normally.
pub fn search_batch_resident(
    queries: &[Sequence],
    params: SearchParams,
    config: CuBlastpConfig,
    device: DeviceConfig,
    db: &SequenceDb,
    dev: &DeviceDb,
    opts: BatchOptions,
) -> BatchOutcome {
    let plan = Plan {
        params,
        config,
        device,
        shards: &[ShardView { db, dev, start: 0 }],
        grouped: (opts.seed_mode == SeedMode::Grouped).then_some(DEFAULT_GROUP_BUDGET),
        injector: opts.injector,
        pays_upload: true,
    };
    let run = execute(&plan, queries);
    BatchOutcome {
        per_query: run.per_query,
        wall_ms: run.wall_ms,
        grouped: plan.grouped.map(|_| GroupedReport { rounds: run.rounds }),
    }
}

/// A test-only rendezvous that makes "two threads ran items of one batch"
/// deterministic. A test arms it on its own thread ([`arm`]); the searches
/// that thread runs then hold the first thread to enter an item of the
/// armed kind, in a batch that a claiming caller shares with helpers,
/// until a second thread enters one too — a helper slow to wake still
/// gets its seat. One meeting per arming. A wait gives up after
/// [`PATIENCE`], so the assertion it guards fails instead of hanging.
#[cfg(test)]
pub(crate) mod meet {
    use std::cell::RefCell;
    use std::collections::BTreeSet;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::thread::ThreadId;
    use std::time::Duration;

    const PATIENCE: Duration = Duration::from_secs(30);

    /// Which items meet.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub(crate) enum Kind {
        /// Hit phases: the caller's own and one a helper claimed.
        Hits,
        /// Subjects of the first tail in a batch with two or more.
        Tail,
        /// Passes of a grouped seeding round over two or more blocks.
        Round,
        /// An `Align` subject a helper claimed and the caller's own hit
        /// phase of the next wave.
        Beside,
    }

    #[derive(Default)]
    struct State {
        waiting: Option<ThreadId>,
        met: bool,
        /// The first thread stopped waiting with nobody come.
        gave_up: bool,
    }

    pub(crate) struct Rendezvous {
        kind: Kind,
        state: Mutex<State>,
        cv: Condvar,
        /// Names of the threads that entered an item of the armed kind.
        ran_on: Mutex<BTreeSet<String>>,
        /// Their kernel thread ids (Linux; empty elsewhere).
        tids: Mutex<BTreeSet<String>>,
    }

    /// The calling thread's kernel thread id, read off `/proc/thread-self`.
    pub(crate) fn own_tid() -> Option<String> {
        let link = std::fs::read_link("/proc/thread-self").ok()?;
        Some(link.file_name()?.to_string_lossy().into_owned())
    }

    fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(PoisonError::into_inner)
    }

    thread_local! {
        static ARMED: RefCell<Option<Arc<Rendezvous>>> = const { RefCell::new(None) };
    }

    /// Armed until dropped.
    pub(crate) struct Armed(Arc<Rendezvous>);

    impl Drop for Armed {
        fn drop(&mut self) {
            ARMED.with(|a| a.borrow_mut().take());
        }
    }

    impl std::ops::Deref for Armed {
        type Target = Rendezvous;
        fn deref(&self) -> &Rendezvous {
            &self.0
        }
    }

    /// Arm `kind` for the searches this thread runs.
    pub(crate) fn arm(kind: Kind) -> Armed {
        let r = Arc::new(Rendezvous {
            kind,
            state: Mutex::default(),
            cv: Condvar::new(),
            ran_on: Mutex::default(),
            tids: Mutex::default(),
        });
        ARMED.with(|a| *a.borrow_mut() = Some(Arc::clone(&r)));
        Armed(r)
    }

    /// What this thread armed, if anything.
    pub(crate) fn armed() -> Option<Arc<Rendezvous>> {
        ARMED.with(|a| a.borrow().clone())
    }

    impl Rendezvous {
        /// An item of `kind` starts on this thread. `pair`: a second
        /// thread is bound to enter one of the same batch.
        pub(crate) fn arrive(&self, kind: Kind, pair: bool) {
            if kind != self.kind {
                return;
            }
            let me = std::thread::current();
            lock(&self.ran_on).insert(me.name().unwrap_or("").to_string());
            lock(&self.tids).extend(own_tid());
            let mut s = lock(&self.state);
            if !pair || s.met {
                return;
            }
            match s.waiting {
                None => {
                    s.waiting = Some(me.id());
                    let (mut s, _) = (self.cv.wait_timeout_while(s, PATIENCE, |s| !s.met))
                        .unwrap_or_else(PoisonError::into_inner);
                    s.gave_up = !s.met;
                    s.met = true;
                }
                Some(first) if first != me.id() => {
                    s.met = true;
                    self.cv.notify_all();
                }
                Some(_) => {}
            }
        }

        /// Whether two threads met.
        pub(crate) fn met(&self) -> bool {
            let s = lock(&self.state);
            s.met && !s.gave_up
        }

        /// Names of the threads that entered an item of the armed kind.
        pub(crate) fn ran_on(&self) -> BTreeSet<String> {
            lock(&self.ran_on).clone()
        }

        /// Kernel thread ids of the threads that entered an item of the
        /// armed kind.
        pub(crate) fn tids(&self) -> BTreeSet<String> {
            lock(&self.tids).clone()
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::error::PipelineError;
    use crate::extension::HIT_TAIL_KERNEL;
    use crate::gapped_device::FINE_GAPPED_KERNEL;
    use crate::lattice::{check_all, Case, Fault, Layout, Seed};
    use bio_seq::generate::{generate_db, make_query, DbSpec};
    use blast_cpu::search::search_sequential;
    use gpu_sim::FaultSite;

    fn workload() -> (Sequence, SequenceDb) {
        let q = make_query(96);
        let spec = DbSpec {
            name: "t",
            num_sequences: 150,
            mean_length: 140,
            homolog_fraction: 0.2,
            seed: 21,
        };
        (q.clone(), generate_db(&spec, &q).db)
    }

    /// A flat database as the per-block loop sees it.
    pub(crate) fn flat<'a>(db: &'a SequenceDb, dev: &'a DeviceDb) -> ShardView<'a> {
        ShardView { db, dev, start: 0 }
    }

    /// Pinned cases of the differential lattice (`crate::lattice`): one
    /// test per behaviour, each a list of `Case` literals run through the
    /// lattice's one oracle — the report is `search_sequential`'s, the
    /// device side the one-thread run's, the ledger, the link and the
    /// recovery report what the case predicts, an error the one it
    /// predicts. A failure the lattice minimises lands here.
    macro_rules! pinned {
        ($($name:ident: [$($case:expr),+ $(,)?];)+) => {$(
            #[test]
            fn $name() {
                check_all([$($case),+]);
            }
        )+};
    }

    pinned! {
        output_identical_to_fsa_blast: [
            Case::default(),
            Case { threads: 2, overlap: true, ..Case::default() },
        ];
        kernel_rows_sum_to_gpu_ms: [
            Case { backend: GappedBackend::Gpu, shards: Layout::Even3,
                   fault: Fault::Permanent(FaultSite::DeviceAlloc), ..Case::default() },
            Case { seed: Seed::Grouped, backend: GappedBackend::Gpu, shards: Layout::Even3,
                   fault: Fault::Permanent(FaultSite::GappedLaunch), ..Case::default() },
        ];
        transient_fault_retries_to_bit_identical_output: [
            Case { fault: Fault::Once(FaultSite::KernelLaunch), fault_block: 1, ..Case::default() },
        ];
        permanent_fault_degrades_to_bit_identical_output: [
            Case { fault: Fault::Permanent(FaultSite::DeviceAlloc), ..Case::default() },
        ];
        gpu_gapped_backend_is_bit_identical_to_cpu_backend: [
            Case { backend: GappedBackend::Gpu, ..Case::default() },
            Case { backend: GappedBackend::Gpu, threads: 2, overlap: true, ..Case::default() },
        ];
        gpu_gapped_transient_fault_retries_to_identical_output: [
            Case { backend: GappedBackend::Gpu, fault: Fault::Once(FaultSite::GappedLaunch),
                   fault_block: 1, ..Case::default() },
            Case { backend: GappedBackend::Gpu, fault: Fault::Once(FaultSite::GappedD2h),
                   fault_block: 1, ..Case::default() },
            Case { backend: GappedBackend::Gpu, fault: Fault::Once(FaultSite::GappedD2h),
                   threads: 2, overlap: true, ..Case::default() },
        ];
        device_pass_bills_one_launch_per_kernel_and_one_leg_per_view: [
            Case { backend: GappedBackend::Gpu, ..Case::default() },
            Case { backend: GappedBackend::Gpu, threads: 2, overlap: true, ..Case::default() },
            Case { backend: GappedBackend::Gpu, shards: Layout::Even3, ..Case::default() },
            Case { backend: GappedBackend::Gpu, shards: Layout::Ragged, threads: 2,
                   ..Case::default() },
            Case { seed: Seed::Grouped, backend: GappedBackend::Gpu, shards: Layout::Ragged,
                   ..Case::default() },
            Case { backend: GappedBackend::Gpu, fault: Fault::Permanent(FaultSite::GappedLaunch),
                   fault_block: 1, ..Case::default() },
            Case { backend: GappedBackend::Gpu, shards: Layout::Ragged, threads: 2,
                   fault: Fault::Permanent(FaultSite::GappedLaunch), fault_block: 1,
                   ..Case::default() },
        ];
        gpu_gapped_permanent_fault_degrades_gapped_phase_only: [
            Case { backend: GappedBackend::Gpu, fault: Fault::Permanent(FaultSite::GappedLaunch),
                   ..Case::default() },
            Case { backend: GappedBackend::Gpu, fault: Fault::Permanent(FaultSite::GappedD2h),
                   fault_block: 1, shards: Layout::Even3, ..Case::default() },
        ];
        fallback_disabled_surfaces_the_device_error: [
            Case { fault: Fault::NoFallback(FaultSite::D2h), fault_block: 1, ..Case::default() },
        ];
        grouped_batch_is_bit_identical_to_per_query_batch: [
            Case { seed: Seed::Grouped, ..Case::default() },
            Case { seed: Seed::GroupedBudget1, ..Case::default() },
        ];
        grouped_batch_with_gpu_gapped_backend_is_identical: [
            Case { seed: Seed::Grouped, backend: GappedBackend::Gpu, ..Case::default() },
        ];
        grouped_member_fault_degrades_to_identical_output: [
            Case { seed: Seed::Grouped, fault: Fault::Permanent(FaultSite::DeviceAlloc),
                   fault_query: 1, ..Case::default() },
            Case { seed: Seed::Grouped, fault: Fault::Once(FaultSite::KernelLaunch), fault_query: 1,
                   ..Case::default() },
        ];
        thread_lattice_reports_and_kernel_stats_are_identical: [
            Case { seed: Seed::Grouped, backend: GappedBackend::Gpu, shards: Layout::Even3,
                   threads: 8, overlap: true, ..Case::default() },
            Case { shards: Layout::Ragged, scalar: true, threads: 2, ..Case::default() },
        ];
        poisoned_batch_query_fails_alone: [
            Case { fault: Fault::Panic, ..Case::default() },
            Case { fault: Fault::Panic, fault_query: 1, ..Case::default() },
        ];
    }

    #[test]
    fn hit_counters_match_cpu_reference() {
        let (q, db) = workload();
        let params = SearchParams::default();
        let cpu = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db);
        let cfg = CuBlastpConfig {
            db_block_size: 64,
            grid_blocks: 3,
            warps_per_block: 2,
            ..Default::default()
        };
        let gpu = CuBlastp::new(q, params, cfg, DeviceConfig::k20c(), &db);
        let result = gpu.search(&db).expect("fault-free search");
        assert_eq!(result.counts.hits, cpu.hit_stats.hits);
        assert_eq!(result.counts.extensions, cpu.hit_stats.extensions);
    }

    #[test]
    fn batch_amortizes_database_upload() {
        let (q, db) = workload();
        let queries = vec![q.clone(), make_query(80), make_query(110)];
        let cfg = CuBlastpConfig {
            db_block_size: 60,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let out = search_batch_with(
            &queries,
            SearchParams::default(),
            cfg,
            DeviceConfig::k20c(),
            &db,
            BatchOptions::default(),
        );
        assert_eq!(out.per_query.len(), 3);
        assert_eq!(out.succeeded(), 3);
        // Per-query results equal standalone searches.
        let standalone = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db)
            .search(&db)
            .expect("fault-free search");
        assert_eq!(
            out.per_query[0]
                .as_ref()
                .expect("query 0")
                .report
                .identity_key(),
            standalone.report.identity_key()
        );
    }

    /// A flat per-query batch bills the upload once, after every query ran,
    /// to the lowest-index query that succeeded: the legs and makespans of
    /// that query searched alone, nothing on a later one, and nothing under
    /// grouped seeding or on a resident or sharded search. The gapped
    /// trigger is out of reach, so no block has a CPU tail and every stage
    /// time is on the device clock: the makespans compare bit for bit.
    #[test]
    fn the_lowest_index_query_that_succeeds_pays_the_upload() {
        use crate::config::RecoveryPolicy;
        use crate::pipeline::schedule;
        use crate::shard::{search_sharded, ShardedDb};
        use gpu_sim::{FaultPlan, FaultSpec};
        let (q, db) = workload();
        let queries = [make_query(80), q, make_query(110)];
        let params = SearchParams {
            gapped_trigger: i32::MAX,
            ..Default::default()
        };
        let config = CuBlastpConfig {
            db_block_size: 60,
            grid_blocks: 2,
            warps_per_block: 2,
            recovery: RecoveryPolicy {
                cpu_fallback: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let device = DeviceConfig::k20c();
        let fault = FaultSpec::permanent(FaultSite::KernelLaunch).on_query(0);
        let batch = |seed_mode| {
            let injector = FaultInjector::new(FaultPlan::none().with(fault.clone()));
            let opts = BatchOptions {
                injector: Some(Arc::new(injector)),
                seed_mode,
            };
            search_batch_with(&queries, params, config, device, &db, opts).per_query
        };
        let bits = |r: &CuBlastpResult| {
            let legs = r.block_timings.iter();
            let t = &r.timing;
            (
                legs.map(|b| [b.h2d_ms, b.gpu_ms, b.d2h_ms, b.cpu_ms].map(f64::to_bits))
                    .collect::<Vec<_>>(),
                [t.h2d_ms, t.overlapped_ms, t.serial_ms].map(f64::to_bits),
            )
        };
        let unpaid = |r: &CuBlastpResult| {
            r.timing.h2d_ms == 0.0 && r.block_timings.iter().all(|b| b.h2d_ms == 0.0)
        };

        let per_query = batch(SeedMode::PerQuery);
        assert!(per_query[0].is_err(), "query 0 fails");
        let (paying, after) = (&per_query[1], &per_query[2]);
        let paying = paying.as_ref().expect("query 1 succeeds");
        let solo = CuBlastp::new(queries[1].clone(), params, config, device, &db);
        let solo = solo.search(&db).expect("fault-free search");
        assert!(solo.block_timings.len() >= 2, "a multi-block database");
        assert!(paying.timing.h2d_ms > 0.0);
        assert_eq!(bits(paying), bits(&solo));
        // The makespans were stamped again once the legs were billed.
        let stamped = schedule(&paying.block_timings);
        assert_eq!(paying.timing.overlapped_ms, stamped.overlapped_ms);
        assert_eq!(paying.timing.serial_ms, stamped.serial_ms);
        assert!(unpaid(after.as_ref().expect("query 2 succeeds")));

        for r in batch(SeedMode::Grouped).iter().flatten() {
            assert!(unpaid(r), "a grouped batch pays nothing");
        }
        let dev = DeviceDb::upload(&db, config.db_block_size);
        let searcher = CuBlastp::new(queries[1].clone(), params, config, device, &db);
        assert!(unpaid(
            &searcher.search_resident(&db, &dev).expect("resident")
        ));
        let sharded = ShardedDb::split(&db, 2, config.db_block_size);
        let searcher = sharded.searcher(queries[1].clone(), params, config, device);
        let hooks = SearchHooks::default();
        let r = search_sharded(&searcher, &sharded, &hooks).expect("sharded");
        assert!(unpaid(&r), "a sharded search pays nothing");
    }

    #[test]
    fn steady_state_searches_are_workspace_allocation_free() {
        // The allocation-free contract of the flat-arena hit path: after a
        // warm-up search, repeat searches check out pooled buffers only —
        // the workspace's cold-miss counter stops moving.
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 50,
            grid_blocks: 2,
            warps_per_block: 2,
            overlap: false,
            ..Default::default()
        };
        let gpu = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        let dev_db = DeviceDb::upload(&db, cfg.db_block_size);
        gpu.search_resident(&db, &dev_db).expect("warmup");
        gpu.search_resident(&db, &dev_db).expect("warmup");
        let warm_allocs = gpu.workspace.allocations();
        let warm_checkouts = gpu.workspace.checkouts();
        let r = gpu
            .search_resident(&db, &dev_db)
            .expect("steady-state search");
        assert!(!r.report.hits.is_empty());
        assert!(
            gpu.workspace.checkouts() > warm_checkouts,
            "the search must actually use the workspace"
        );
        assert_eq!(
            gpu.workspace.allocations(),
            warm_allocs,
            "steady-state search must allocate zero workspace buffers"
        );
    }

    /// The pools hold buffers by role: after two rounds of a stream of
    /// different queries over a multi-block database the workspace holds
    /// what a third round needs. A free list that hands a launch-wide
    /// buffer to a per-thread-block use grows every buffer it holds
    /// toward the largest use, round after round.
    #[test]
    fn workspace_stops_growing_after_two_rounds_of_a_query_stream() {
        let q = make_query(96);
        let spec = DbSpec {
            name: "ratchet",
            num_sequences: 160,
            mean_length: 160,
            homolog_fraction: 0.2,
            seed: 33,
        };
        let db = generate_db(&spec, &q).db;
        let cfg = CuBlastpConfig {
            db_block_size: 32,
            grid_blocks: 2,
            warps_per_block: 2,
            cpu_threads: 1,
            overlap: false,
            ..Default::default()
        };
        let dev_db = DeviceDb::upload(&db, cfg.db_block_size);
        assert!(dev_db.num_blocks() >= 4, "a multi-block database");
        let queries: Vec<Sequence> = [96, 300, 60, 180, 420, 128].map(make_query).into();
        let ws = Arc::new(KernelWorkspace::new());
        let mut retained = Vec::new();
        for _ in 0..3 {
            for q in &queries {
                let params = SearchParams::default();
                let mut gpu = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db);
                gpu.workspace = Arc::clone(&ws);
                gpu.search_resident(&db, &dev_db)
                    .expect("fault-free search");
            }
            retained.push(ws.pooled_bytes());
        }
        assert!(
            retained[2] as f64 <= retained[1] as f64 * 1.05,
            "retained bytes after rounds 1-3: {retained:?}"
        );
    }

    #[test]
    fn timing_fields_are_populated() {
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 50,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let gpu = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        let r = gpu.search(&db).expect("fault-free search");
        assert!(r.timing.gpu_ms > 0.0);
        assert!(r.timing.h2d_ms > 0.0);
        assert!(r.timing.overlapped_ms > 0.0);
        assert!(r.timing.overlapped_ms <= r.timing.serial_ms + 1e-9);
        assert_eq!(r.kernels.len(), 2);
        assert!(r.kernel("hit_detection").is_some());
        assert!(r.kernel(HIT_TAIL_KERNEL).is_some());
    }

    /// `absorb` is a fold: blocks into shards into a query read the same
    /// as the flat block list, whichever kernels each part launched.
    /// Every value is a dyadic rational, so the sums are exact and so is
    /// the comparison.
    #[test]
    fn absorb_over_blocks_then_shards_equals_the_flat_fold() {
        let part = |names: &[&str], n: u32| -> CuBlastpResult {
            let x = f64::from(n) / 8.0;
            let kernel_ms: Vec<f64> = (1..=names.len()).map(|k| x * k as f64).collect();
            let timing = BlockTiming {
                h2d_ms: x / 2.0,
                gpu_ms: kernel_ms.iter().sum(),
                d2h_ms: x / 4.0,
                cpu_ms: 3.0 * x,
            };
            CuBlastpResult {
                kernels: (names.iter())
                    .map(|name| KernelStats {
                        warp_cycles: u64::from(n) * 100,
                        atomic_ops: u64::from(n),
                        blocks: n,
                        occupancy: 1.0 / f64::from(n),
                        ..KernelStats::new(*name)
                    })
                    .collect(),
                kernel_ms,
                counts: GpuPhaseCounts {
                    hits: u64::from(n) * 7,
                    triggered: u64::from(n),
                    ..Default::default()
                },
                timing: CuBlastpTiming {
                    gpu_ms: timing.gpu_ms,
                    h2d_ms: timing.h2d_ms,
                    d2h_ms: timing.d2h_ms,
                    gapped_ms: 2.0 * x,
                    traceback_ms: x,
                    cpu_wall_ms: timing.cpu_ms,
                    other_ms: x / 16.0,
                    overlapped_ms: 4.0 * x,
                    serial_ms: 5.0 * x,
                },
                block_timings: vec![timing],
                recovery: RecoveryReport {
                    faults: u64::from(n % 2),
                    retry_wait_us: u64::from(n),
                    ..Default::default()
                },
                ..Default::default()
            }
        };
        // A grouped member's block, a clean per-query block, a block the
        // host computed, one whose hit phase degraded under the device
        // gapped backend, a full device-gapped block, and a grouped one.
        let (det, tail) = ("hit_detection", HIT_TAIL_KERNEL);
        let parts = [
            part(&[tail], 1),
            part(&[det, tail], 2),
            part(&[], 3),
            part(&[FINE_GAPPED_KERNEL], 4),
            part(&[det, tail, FINE_GAPPED_KERNEL], 5),
            part(&[tail, FINE_GAPPED_KERNEL], 6),
        ];
        let fold = |parts: &[CuBlastpResult]| {
            let mut r = CuBlastpResult::default();
            parts.iter().for_each(|p| r.absorb(p));
            r
        };
        let flat = fold(&parts);
        let shards: Vec<CuBlastpResult> = parts.chunks(2).map(fold).collect();
        let nested = fold(&shards);
        assert_eq!(format!("{nested:?}"), format!("{flat:?}"));

        let names: Vec<&str> = flat.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, [det, tail, FINE_GAPPED_KERNEL]);
        assert_eq!(flat.kernel_ms, [0.875, 2.625, 3.875]);
        assert_eq!(flat.block_timings.len(), parts.len());
        assert_eq!(flat.timing.gpu_ms, flat.kernel_ms.iter().sum::<f64>());
    }

    #[test]
    fn mismatched_block_size_is_a_config_error_not_a_panic() {
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 50,
            ..Default::default()
        };
        let gpu = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        let dev_db = DeviceDb::upload(&db, 64);
        let err = gpu
            .search_resident(&db, &dev_db)
            .expect_err("block-size mismatch must be rejected");
        assert_eq!(err.category(), "config");
    }

    #[test]
    fn grouped_round_amortizes_seeding_over_members() {
        let (_, db) = workload();
        let queries: Vec<Sequence> = (0..6).map(|k| make_query(56 + 4 * k)).collect();
        let cfg = CuBlastpConfig {
            db_block_size: 60,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let dev_db = DeviceDb::upload(&db, cfg.db_block_size);
        let run = |budget: usize| {
            let plan = Plan {
                params: SearchParams::default(),
                config: cfg,
                device: DeviceConfig::k20c(),
                shards: &[flat(&db, &dev_db)],
                grouped: Some(budget),
                injector: None,
                pays_upload: true,
            };
            GroupedReport {
                rounds: execute(&plan, &queries).rounds,
            }
        };
        let one_round = run(DEFAULT_GROUP_BUDGET);
        let singletons = run(1);
        assert_eq!(one_round.rounds.len(), 1);
        assert_eq!(singletons.rounds.len(), queries.len());
        assert!(
            one_round.seeding_ms_per_block_query() * 2.0 < singletons.seeding_ms_per_block_query(),
            "grouping 6 queries must amortize seeding at least 2x: {} vs {}",
            one_round.seeding_ms_per_block_query(),
            singletons.seeding_ms_per_block_query()
        );
    }

    #[test]
    fn cancelled_search_returns_typed_deadline_error_with_telemetry() {
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 40,
            grid_blocks: 2,
            warps_per_block: 2,
            overlap: false,
            ..Default::default()
        };
        let gpu = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        let dev_db = DeviceDb::upload(&db, cfg.db_block_size);
        let blocks_total = dev_db.blocks().len() as u32;
        assert!(blocks_total >= 2, "workload must span multiple blocks");
        // Trip on the very first checkpoint: no block completes.
        let hooks = SearchHooks {
            cancel: CancelToken::after_checks(1),
            on_block: None,
        };
        let err = gpu
            .run_blocks(&[flat(&db, &dev_db)], None, &hooks)
            .expect_err("tripped token must cancel the search");
        match err {
            SearchError::DeadlineExceeded {
                blocks_completed,
                blocks_total: total,
                ..
            } => {
                assert_eq!(blocks_completed, 0);
                assert_eq!(total, blocks_total);
            }
            other => panic!("expected deadline error, got {other:?}"),
        }
        assert_eq!(err.category(), "deadline");
        // An expired wall-clock deadline cancels before any device work.
        let hooks = SearchHooks {
            cancel: CancelToken::with_deadline(Duration::from_millis(0)),
            on_block: None,
        };
        std::thread::sleep(Duration::from_millis(1));
        let err = gpu
            .run_blocks(&[flat(&db, &dev_db)], None, &hooks)
            .expect_err("expired deadline must cancel");
        assert_eq!(err.category(), "deadline");
        // The device gapped phase polls the token before a retry too: a
        // transient gapped fault with the token tripping on the retry
        // checkpoint (poll 1 = block 0's launch, poll 2 = the retry) ends
        // the search instead of relaunching.
        use gpu_sim::{FaultKind, FaultPlan, FaultSite, FaultSpec};
        let mut gpu = gpu;
        gpu.config.gapped_backend = GappedBackend::Gpu;
        gpu.injector = Arc::new(FaultInjector::new(FaultPlan::none().with(FaultSpec {
            kind: FaultKind::Transient { failures: 2 },
            ..FaultSpec::once(FaultSite::GappedLaunch).on_block(0)
        })));
        let hooks = SearchHooks {
            cancel: CancelToken::after_checks(2),
            on_block: None,
        };
        let err = gpu
            .run_blocks(&[flat(&db, &dev_db)], None, &hooks)
            .expect_err("tripped token must stop the gapped retry");
        assert!(
            matches!(
                err,
                SearchError::DeadlineExceeded {
                    blocks_completed: 0,
                    ..
                }
            ),
            "expected deadline error, got {err:?}"
        );
        assert_eq!(gpu.injector.injected(), 1, "no relaunch after the deadline");

        // A deadline that hits between blocks of a search whose tail has
        // started its helpers: block 0 completes on two threads, block 1's
        // launch checkpoint (poll 3: the GPU and CPU sides poll once per
        // block) trips, and the typed error comes back with every helper
        // gone.
        let (q, db) = family_workload();
        let dev_db = DeviceDb::upload(&db, 24);
        let params = SearchParams::default();
        let mut gpu = CuBlastp::new(
            q,
            params,
            family_config(2, false),
            DeviceConfig::k20c(),
            &db,
        );
        gpu.stream_index = 7_100;
        let hooks = SearchHooks {
            cancel: CancelToken::after_checks(3),
            on_block: None,
        };
        let err = gpu
            .run_blocks(&[flat(&db, &dev_db)], None, &hooks)
            .expect_err("tripped token must cancel the search");
        assert!(
            matches!(
                err,
                SearchError::DeadlineExceeded {
                    blocks_completed: 1,
                    blocks_total: 3,
                    ..
                }
            ),
            "expected a deadline after block 0, got {err:?}"
        );
        #[cfg(target_os = "linux")]
        assert_eq!(threads_named("tail-q7100"), 0);
    }

    /// A homolog-rich database: every block's seed score clears
    /// `HELPER_MIN_SEED_SCORE`, so a tail with two threads shares it.
    pub(crate) fn family_workload() -> (Sequence, SequenceDb) {
        let q = make_query(128);
        let spec = DbSpec {
            name: "fam",
            num_sequences: 72,
            mean_length: 140,
            homolog_fraction: 0.9,
            seed: 5,
        };
        (q.clone(), generate_db(&spec, &q).db)
    }

    pub(crate) fn family_config(cpu_threads: usize, overlap: bool) -> CuBlastpConfig {
        CuBlastpConfig {
            db_block_size: 24,
            grid_blocks: 2,
            warps_per_block: 2,
            cpu_threads,
            overlap,
            ..Default::default()
        }
    }

    /// Thread ids of this process's threads named `name` now (the tail's
    /// helpers carry their query's index).
    #[cfg(target_os = "linux")]
    fn tids_named(name: &str) -> Vec<String> {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        (tasks.filter_map(Result::ok))
            .filter(|t| {
                std::fs::read_to_string(t.path().join("comm"))
                    .is_ok_and(|comm| comm.trim_end() == name)
            })
            .map(|t| t.file_name().to_string_lossy().into_owned())
            .collect()
    }

    /// How many threads are named `name`, polled until none is left or a
    /// second passes: a scope's end waits for a thread's closure, not for
    /// the kernel to reap the task, and a helper nobody released would
    /// stay parked.
    #[cfg(target_os = "linux")]
    pub(crate) fn threads_named(name: &str) -> usize {
        let t0 = Instant::now();
        while !tids_named(name).is_empty() && t0.elapsed() < Duration::from_secs(1) {
            std::thread::yield_now();
        }
        tids_named(name).len()
    }

    /// `db` with the host copy of its subject `victim` cut to one residue:
    /// the extension records the resident, intact copy yields point past
    /// its end, and finishing it panics — on whichever thread claims it.
    pub(crate) fn poisoned(db: &SequenceDb, victim: usize) -> SequenceDb {
        let mut sequences = db.sequences().to_vec();
        let id = sequences[victim].id.clone();
        sequences[victim] = Sequence::from_residues(id, sequences[victim].residues()[..1].to_vec());
        SequenceDb::new("poisoned", sequences)
    }

    /// Long homologs: a block's gapped phase takes milliseconds even in a
    /// release build, so a helper that exists gets to claim something.
    fn long_family_workload() -> (Sequence, SequenceDb) {
        let q = make_query(400);
        let spec = DbSpec {
            name: "fam",
            num_sequences: 72,
            mean_length: 400,
            homolog_fraction: 0.9,
            seed: 5,
        };
        (q.clone(), generate_db(&spec, &q).db)
    }

    #[test]
    fn tail_really_runs_on_helpers_and_changes_nothing() {
        let (q, db) = long_family_workload();
        let params = SearchParams::default();
        let cpu = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db);
        let dev_db = DeviceDb::upload(&db, 24);
        let run = |cpu_threads, overlap| {
            let cfg = family_config(cpu_threads, overlap);
            CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db)
                .run_blocks(&[flat(&db, &dev_db)], None, &SearchHooks::default())
                .expect("fault-free search")
        };
        let one = run(1, false);
        assert_eq!(one.tail_threads_ran, 1);
        for overlap in [false, true] {
            for cpu_threads in [1, 2, 3, 8] {
                let executed = executed_threads(cpu_threads);
                // A helper slow to wake still takes a seat.
                let _meet = (executed >= 2).then(|| meet::arm(meet::Kind::Tail));
                let r = run(cpu_threads, overlap);
                let case = format!("cpu_threads = {cpu_threads}, overlap = {overlap}");
                assert_eq!(r.report.identity_key(), cpu.report.identity_key(), "{case}");
                assert_eq!(r.kernels, one.kernels, "{case}");
                assert_eq!(r.counts, one.counts, "{case}");
                assert!(r.tail_threads_ran <= executed, "{case}");
                // Every block here is worth sharing.
                assert_eq!(r.tail_threads_ran >= 2, executed >= 2, "{case}");
                // The block's CPU lane is the two measured phases.
                let t = &r.timing;
                assert!(t.gapped_ms > 0.0 && t.traceback_ms > 0.0, "{case}");
                assert!(
                    (t.cpu_wall_ms - (t.gapped_ms + t.traceback_ms)).abs() < 1e-9,
                    "{case}"
                );
            }
        }
    }

    /// Hit phases of several blocks run at once on the search's threads
    /// under `overlap` — every block here is light, so after the first
    /// each wave is as wide as the threads — and nothing observable moves:
    /// the report, the device side, the block order of `on_block`, and the
    /// outcome of a deadline at every poll count with the blocks it
    /// reported. Hit phases run on the caller and the search's own
    /// helpers, and on nothing else.
    #[test]
    fn hit_phases_share_the_search_threads_and_change_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        let q = make_query(96);
        let spec = DbSpec {
            name: "light",
            num_sequences: 120,
            mean_length: 120,
            homolog_fraction: 0.05,
            seed: 8,
        };
        let db = generate_db(&spec, &q).db;
        let params = SearchParams::default();
        let cpu = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db);
        let dev_db = DeviceDb::upload(&db, 24);
        let blocks = dev_db.num_blocks() as u32;
        assert!(blocks >= 4, "a multi-block database");
        let gpu_lanes = |r: &CuBlastpResult| -> Vec<[u64; 3]> {
            (r.block_timings.iter())
                .map(|t| [t.h2d_ms.to_bits(), t.gpu_ms.to_bits(), t.d2h_ms.to_bits()])
                .collect()
        };
        // A search's result, the blocks `on_block` saw in the order it saw
        // them, and the most helpers alive at one of them.
        let search = |cpu_threads, overlap, stream: u32, cancel| {
            let cfg = CuBlastpConfig {
                db_block_size: 24,
                grid_blocks: 2,
                warps_per_block: 2,
                cpu_threads,
                overlap,
                ..Default::default()
            };
            let mut gpu = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db);
            gpu.stream_index = stream;
            let helper = format!("tail-q{stream}");
            let (order, peak) = (Mutex::new(Vec::new()), AtomicUsize::new(0));
            let on_block = |p: BlockProgress<'_>| {
                order.lock().unwrap().push(p.block);
                #[cfg(target_os = "linux")]
                peak.fetch_max(tids_named(&helper).len(), Ordering::SeqCst);
            };
            let hooks = SearchHooks {
                cancel,
                on_block: Some(&on_block),
            };
            let r = gpu.run_blocks(&[flat(&db, &dev_db)], None, &hooks);
            #[cfg(target_os = "linux")]
            assert_eq!(threads_named(&helper), 0, "a helper outlived the search");
            (r, order.into_inner().unwrap(), peak.into_inner())
        };
        // What a deadline at poll `k` ends in: `None` for a search that
        // finishes, else the blocks the error reports.
        let ending = |r: Result<CuBlastpResult, SearchError>| match r {
            Ok(_) => None,
            Err(SearchError::DeadlineExceeded {
                blocks_completed,
                blocks_total,
                ..
            }) => Some((blocks_completed, blocks_total)),
            Err(other) => panic!("expected a deadline error, got {other:?}"),
        };
        // At every poll count: the outcome, and the blocks whose progress
        // was reported.
        let stopped = |cpu_threads, overlap, stream, k| {
            let (r, order, _) = search(cpu_threads, overlap, stream, CancelToken::after_checks(k));
            (ending(r), order)
        };
        let polls = 1..=2 * u64::from(blocks) + 1;
        let serial: Vec<_> = (polls.clone())
            .map(|k| stopped(1, false, 7_600, k))
            .collect();
        assert_eq!(serial.last().map(|s| s.0), Some(None), "every poll counted");
        let (one, ..) = search(1, false, 7_600, CancelToken::never());
        let one = one.expect("fault-free search");
        assert_eq!(one.report.identity_key(), cpu.report.identity_key());
        let caller = std::thread::current().name().map(str::to_string);
        for overlap in [false, true] {
            for cpu_threads in [1, 2, 8] {
                let case = format!("cpu_threads = {cpu_threads}, overlap = {overlap}");
                let stream = 7_610 + cpu_threads as u32 + 100 * u32::from(overlap);
                let executed = executed_threads(cpu_threads);
                let hits = meet::arm(meet::Kind::Hits);
                let (r, order, peak) = search(cpu_threads, overlap, stream, CancelToken::never());
                let r = r.expect("fault-free search");
                assert_eq!(r.report.identity_key(), cpu.report.identity_key(), "{case}");
                assert_eq!(r.kernels, one.kernels, "{case}");
                assert_eq!(r.counts, one.counts, "{case}");
                assert_eq!(gpu_lanes(&r), gpu_lanes(&one), "{case}");
                assert_eq!(order, (0..blocks).collect::<Vec<_>>(), "{case}");
                // Two hit phases ran at once exactly when waves are wide.
                assert_eq!(hits.met(), overlap && executed >= 2, "{case}");
                // On the caller and the search's helpers, and no more of
                // those than it has threads.
                let helper = format!("tail-q{stream}");
                for on in hits.ran_on() {
                    let ok = Some(&on) == caller.as_ref() || on == helper;
                    assert!(ok, "{case}: a hit phase ran on thread {on:?}");
                }
                assert!(peak <= executed, "{case}: {peak} helpers");
                drop(hits);
                let ends: Vec<_> = (polls.clone())
                    .map(|k| stopped(cpu_threads, overlap, stream, k))
                    .collect();
                assert_eq!(ends, serial, "{case}: deadline outcomes by poll count");
            }
        }
    }

    /// A grouped member's blocks run in waves like any query's: each block
    /// carries its own round bins, so a helper's hit phase is seeded like
    /// the caller's — no `hit_detection` launch — and nothing observable
    /// moves against the one-thread grouped run without overlap.
    #[test]
    fn grouped_member_hit_phases_share_the_search_threads() {
        let q = make_query(96);
        let spec = DbSpec {
            name: "light",
            num_sequences: 120,
            mean_length: 120,
            homolog_fraction: 0.05,
            seed: 8,
        };
        let db = generate_db(&spec, &q).db;
        let queries: Vec<Sequence> = (0..3).map(|k| make_query(80 + 8 * k)).collect();
        let dev_db = DeviceDb::upload(&db, 24);
        assert!(dev_db.num_blocks() >= 4, "a multi-block database");
        let run = |cpu_threads, overlap| {
            let plan = Plan {
                params: SearchParams::default(),
                config: CuBlastpConfig {
                    db_block_size: 24,
                    grid_blocks: 2,
                    warps_per_block: 2,
                    cpu_threads,
                    overlap,
                    ..Default::default()
                },
                device: DeviceConfig::k20c(),
                shards: &[flat(&db, &dev_db)],
                grouped: Some(DEFAULT_GROUP_BUDGET),
                injector: None,
                pays_upload: false,
            };
            let ran = execute(&plan, &queries);
            assert_eq!(ran.rounds.len(), 1, "one round");
            (ran.per_query.into_iter())
                .map(|r| r.expect("fault-free query"))
                .collect::<Vec<_>>()
        };
        let one = run(1, false);
        let hits = meet::arm(meet::Kind::Hits);
        let got = run(2, true);
        assert_eq!(
            hits.met(),
            executed_threads(2) >= 2,
            "two seeded hit phases at once"
        );
        let bits = |ms: &[f64]| ms.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        for (q, (r, want)) in got.iter().zip(&one).enumerate() {
            assert_eq!(
                r.report.identity_key(),
                want.report.identity_key(),
                "query {q}"
            );
            assert_eq!(r.kernels, want.kernels, "query {q}");
            assert_eq!(bits(&r.kernel_ms), bits(&want.kernel_ms), "query {q}");
            assert_eq!(r.counts, want.counts, "query {q}");
            assert_eq!(r.block_timings.len(), want.block_timings.len(), "query {q}");
            assert!(
                r.kernel("hit_detection").is_none(),
                "query {q}: a seeding launch"
            );
        }
        drop(hits);
        // Pinned: what the lattice minimised a helper's hit phase run
        // without its block's bins to (DESIGN.md §3.14).
        check_all([Case {
            seed: Seed::Grouped,
            threads: 8,
            overlap: true,
            ..Case::default()
        }]);
    }

    /// One row per rule of `wave_width`.
    #[test]
    fn wave_width_has_one_rule_per_row() {
        let tail = |seed_score| TailJob {
            block: 0,
            shard: 0,
            base: 0,
            work: TailWork::Finish(Arc::new(ExtensionsCsr::default())),
            todo: vec![0, 1],
            seed_score,
        };
        let (light, heavy) = (tail(0), tail(HELPER_MIN_SEED_SCORE));
        // (last pending tail, overlap, threads, waves allowed) → width.
        let rows = [
            ("nothing pending", None, true, 2, true, 1),
            (
                "no overlap, a tail pending",
                Some(&light),
                false,
                2,
                false,
                0,
            ),
            ("waves, the last tail light", Some(&light), true, 2, true, 2),
            ("the last tail heavy", Some(&heavy), true, 2, true, 1),
            ("one thread", Some(&light), true, 1, false, 1),
            ("the injector armed", Some(&light), true, 2, false, 1),
        ];
        for (rule, last, overlap, threads, waves, want) in rows {
            assert_eq!(wave_width(last, overlap, threads, waves), want, "{rule}");
        }
    }

    /// A grouped round's passes run on the batch's threads — over a flat
    /// database and over three shard views — and nothing observable moves:
    /// reports, device statistics, kernel times and every field of every
    /// round. Passes run on the caller and the batch's helpers, two at once
    /// when the host has two cores, and no helper outlives the batch.
    #[test]
    fn grouped_round_passes_share_the_batch_threads_and_change_nothing() {
        use crate::shard::{DbSource, ShardedDb};
        let (_, db) = workload();
        let queries: Vec<Sequence> = (0..6).map(|k| make_query(56 + 4 * k)).collect();
        let open = |cuts: &[usize]| {
            ShardedDb::from_boundaries(DbSource::Inline(db.clone()), cuts, Some(24))
                .expect("an inline database cuts anywhere")
        };
        let rounds = |e: &crate::executor::Executed| -> Vec<[u64; 8]> {
            (e.rounds.iter())
                .map(|r| {
                    [
                        r.first_query as u64,
                        r.members as u64,
                        r.index_entries as u64,
                        r.index_capacity as u64,
                        r.occupancy.to_bits(),
                        r.index_upload_bytes,
                        r.seeding_ms.to_bits(),
                        r.blocks as u64,
                    ]
                })
                .collect()
        };
        let caller = std::thread::current().name().map(str::to_string);
        for (layout, sharded) in [("flat", open(&[])), ("3 shards", open(&[50, 100]))] {
            let views = sharded.views();
            let run = |cpu_threads| {
                let plan = Plan {
                    params: SearchParams::default(),
                    config: CuBlastpConfig {
                        db_block_size: 24,
                        grid_blocks: 2,
                        warps_per_block: 2,
                        cpu_threads,
                        ..Default::default()
                    },
                    device: DeviceConfig::k20c(),
                    shards: &views,
                    grouped: Some(DEFAULT_GROUP_BUDGET),
                    injector: None,
                    pays_upload: false,
                };
                execute(&plan, &queries)
            };
            let one = run(1);
            assert_eq!(one.rounds.len(), 1, "{layout}");
            assert!(one.rounds[0].blocks >= 7, "{layout}: a multi-block round");
            let one_results: Vec<&CuBlastpResult> = (one.per_query.iter())
                .map(|r| r.as_ref().expect("fault-free query"))
                .collect();
            for cpu_threads in [1, 2, 8] {
                let case = format!("{layout}, cpu_threads = {cpu_threads}");
                let executed = executed_threads(cpu_threads);
                let round = meet::arm(meet::Kind::Round);
                let got = run(cpu_threads);
                assert_eq!(rounds(&got), rounds(&one), "{case}");
                for (q, (r, want)) in got.per_query.iter().zip(&one_results).enumerate() {
                    let r = r.as_ref().expect("fault-free query");
                    let case = format!("{case}, query {q}");
                    assert_eq!(
                        r.report.identity_key(),
                        want.report.identity_key(),
                        "{case}"
                    );
                    assert_eq!(r.kernels, want.kernels, "{case}");
                    let bits = |ms: &[f64]| ms.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&r.kernel_ms), bits(&want.kernel_ms), "{case}");
                }
                // Two passes ran at once exactly when there are two cores.
                assert_eq!(round.met(), executed >= 2, "{case}");
                for on in round.ran_on() {
                    let ok = Some(&on) == caller.as_ref() || on == "seed-rounds";
                    assert!(ok, "{case}: a pass ran on thread {on:?}");
                }
                #[cfg(target_os = "linux")]
                {
                    let helpers: Vec<String> = (round.tids().into_iter())
                        .filter(|t| Some(t) != meet::own_tid().as_ref())
                        .collect();
                    assert_eq!(helpers.is_empty(), executed < 2, "{case}: {helpers:?}");
                    let t0 = Instant::now();
                    let alive = || {
                        (helpers.iter())
                            .filter(|t| std::path::Path::new("/proc/self/task").join(t).exists())
                            .count()
                    };
                    while alive() > 0 && t0.elapsed() < Duration::from_secs(1) {
                        std::thread::yield_now();
                    }
                    assert_eq!(alive(), 0, "{case}: a helper outlived the batch");
                }
            }
        }
    }

    #[test]
    fn device_gapped_pass_runs_on_helpers_and_changes_nothing() {
        let (q, db) = long_family_workload();
        let params = SearchParams::default();
        let cpu = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db);
        let dev_db = DeviceDb::upload(&db, 24);
        let run = |cpu_threads, overlap| {
            let cfg = CuBlastpConfig {
                gapped_backend: GappedBackend::Gpu,
                ..family_config(cpu_threads, overlap)
            };
            let mut gpu = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db);
            gpu.stream_index = 7_300 + cpu_threads as u32;
            let r = gpu
                .run_blocks(&[flat(&db, &dev_db)], None, &SearchHooks::default())
                .expect("fault-free search");
            #[cfg(target_os = "linux")]
            assert_eq!(threads_named(&format!("tail-q{}", gpu.stream_index)), 0);
            r
        };
        let one = run(1, false);
        assert_eq!(one.tail_threads_ran, 1);
        assert!(one.kernel(FINE_GAPPED_KERNEL).is_some());
        for overlap in [false, true] {
            for cpu_threads in [1, 2, 3, 8] {
                let executed = executed_threads(cpu_threads);
                // A helper slow to wake still takes a seat.
                let _meet = (executed >= 2).then(|| meet::arm(meet::Kind::Tail));
                let r = run(cpu_threads, overlap);
                let case = format!("cpu_threads = {cpu_threads}, overlap = {overlap}");
                assert_eq!(r.report.identity_key(), cpu.report.identity_key(), "{case}");
                assert_eq!(r.kernels, one.kernels, "{case}");
                assert_eq!(r.counts, one.counts, "{case}");
                assert!(r.tail_threads_ran <= executed, "{case}");
                // Every block's DP here is worth sharing.
                assert_eq!(r.tail_threads_ran >= 2, executed >= 2, "{case}");
                // The device ran every gapped phase: the tail only reported.
                let t = &r.timing;
                assert_eq!((t.gapped_ms, t.traceback_ms), (0.0, 0.0), "{case}");
            }
        }
    }

    /// The device pass's DP is its block's tail: under `overlap` a helper
    /// aligns a subject of block b while the caller runs the hit phase of
    /// block b + 1, and nothing observable moves.
    #[test]
    fn device_dp_runs_beside_the_next_hit_phase() {
        let (q, db) = long_family_workload();
        let params = SearchParams::default();
        let dev_db = DeviceDb::upload(&db, 24);
        assert!(dev_db.num_blocks() >= 2, "a multi-block database");
        let run = |cpu_threads, overlap| {
            let cfg = CuBlastpConfig {
                gapped_backend: GappedBackend::Gpu,
                ..family_config(cpu_threads, overlap)
            };
            CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db)
                .run_blocks(&[flat(&db, &dev_db)], None, &SearchHooks::default())
                .expect("fault-free search")
        };
        let one = run(1, false);
        let beside = meet::arm(meet::Kind::Beside);
        let r = run(2, true);
        assert_eq!(
            beside.met(),
            executed_threads(2) >= 2,
            "an Align subject beside a hit phase"
        );
        let bits = |ms: &[f64]| ms.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
        assert_eq!(r.report.identity_key(), one.report.identity_key());
        assert_eq!(r.kernels, one.kernels);
        assert_eq!(bits(&r.kernel_ms), bits(&one.kernel_ms));
        assert_eq!(r.counts, one.counts);
        assert_eq!(r.block_timings.len(), one.block_timings.len());
    }

    #[test]
    fn device_gapped_scratch_grows_to_one_buffer_per_thread() {
        // Each subject's DP checks its checkpoint words and direction bytes
        // out of the searcher's workspace on whichever thread claimed it,
        // and returns them: the two pools hold at most one buffer per
        // thread, so once they do a search allocates from neither.
        let (q, db) = family_workload();
        let cfg = CuBlastpConfig {
            gapped_backend: GappedBackend::Gpu,
            ..family_config(2, false)
        };
        let gpu = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        let dev_db = DeviceDb::upload(&db, cfg.db_block_size);
        let ws = &gpu.workspace;
        let threads = executed_threads(2) as u64;
        let mut takes = 0;
        for _ in 0..6 {
            gpu.search_resident(&db, &dev_db)
                .expect("fault-free search");
            assert!(
                ws.ckpt.takes() > takes,
                "the device pass must use the pools"
            );
            takes = ws.ckpt.takes();
            for (name, allocs, pooled) in [
                ("ckpt", ws.ckpt.allocs(), ws.ckpt.pooled()),
                ("dirs", ws.dirs.allocs(), ws.dirs.pooled()),
            ] {
                assert!(
                    allocs <= threads,
                    "{name}: {allocs} buffers for {threads} threads"
                );
                assert_eq!(pooled as u64, allocs, "{name}: every buffer came back");
            }
        }
    }

    #[test]
    fn panicking_tail_subject_stays_typed_at_every_thread_count() {
        let (q, db) = family_workload();
        let params = SearchParams::default();
        let cpu = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db);
        let dev_db = DeviceDb::upload(&db, 24);
        let poisoned = poisoned(&db, cpu.report.hits[0].subject_index);
        // The device pass's DP reads the device's copy of a subject, but
        // the host's copy of the query (its traceback): cut to one residue,
        // aligning any subject panics.
        let cut_query = Sequence::from_residues(q.id.clone(), q.residues()[..1].to_vec());
        for cpu_threads in [1, 2, 8] {
            // Posted to the helpers, or run by the caller and the helpers.
            for (overlap, backend) in [true, false]
                .into_iter()
                .flat_map(|o| [(o, GappedBackend::Cpu), (o, GappedBackend::Gpu)])
            {
                let case = format!("cpu_threads = {cpu_threads}, overlap = {overlap}, {backend:?}");
                let cfg = CuBlastpConfig {
                    gapped_backend: backend,
                    ..family_config(cpu_threads, overlap)
                };
                let mut gpu = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db);
                gpu.stream_index = 7_000 + cpu_threads as u32;
                let source = match backend {
                    GappedBackend::Cpu => &poisoned,
                    GappedBackend::Gpu => {
                        gpu.engine.query = cut_query.clone();
                        &db
                    }
                };
                let err = gpu
                    .run_blocks(&[flat(source, &dev_db)], None, &SearchHooks::default())
                    .expect_err("the poisoned subject must fail the search");
                match &err {
                    SearchError::Pipeline(PipelineError::WorkerPanicked { side, .. }) => {
                        assert_eq!(*side, "cpu tail", "{case}")
                    }
                    other => panic!("{case}: expected a typed worker panic, got {other:?}"),
                }
                #[cfg(target_os = "linux")]
                assert_eq!(threads_named(&format!("tail-q{}", gpu.stream_index)), 0);
                // Nothing is left wedged: the same searcher searches again.
                gpu.engine.query = q.clone();
                let clean = gpu
                    .run_blocks(&[flat(&db, &dev_db)], None, &SearchHooks::default())
                    .expect("clean database");
                assert_eq!(clean.report.identity_key(), cpu.report.identity_key());
            }

            // Through the batch executor: the poisoned query fails alone,
            // as a typed error in its own slot.
            let plan = Plan {
                params,
                config: family_config(cpu_threads, false),
                device: DeviceConfig::k20c(),
                shards: &[flat(&poisoned, &dev_db)],
                grouped: None,
                injector: None,
                pays_upload: false,
            };
            let run = execute(&plan, std::slice::from_ref(&q));
            match &run.per_query[0] {
                Err(SearchError::Pipeline(PipelineError::WorkerPanicked { side, .. })) => {
                    assert_eq!(*side, "cpu tail", "cpu_threads = {cpu_threads}")
                }
                Err(other) => panic!("expected a typed worker panic, got {other:?}"),
                Ok(_) => panic!("the poisoned subject must fail the query"),
            }
            #[cfg(target_os = "linux")]
            assert_eq!(threads_named("tail-q0"), 0);
        }
    }

    #[test]
    fn a_gpu_side_panic_is_typed_at_every_overlap_setting() {
        use gpu_sim::{FaultPlan, FaultSite, FaultSpec};
        let (q, db) = family_workload();
        let dev_db = DeviceDb::upload(&db, 24);
        for overlap in [false, true] {
            // The first block, and the last — after tails have been posted.
            for block in [0, 2] {
                let case = format!("overlap = {overlap}, block {block}");
                let cfg = family_config(2, overlap);
                let params = SearchParams::default();
                let mut gpu = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db);
                let panic_at = FaultSpec::once(FaultSite::HostPanic).on_block(block);
                gpu.injector = Arc::new(FaultInjector::new(FaultPlan::none().with(panic_at)));
                match gpu.run_blocks(&[flat(&db, &dev_db)], None, &SearchHooks::default()) {
                    Err(SearchError::Pipeline(PipelineError::WorkerPanicked { side, payload })) => {
                        assert_eq!(side, "gpu side", "{case}");
                        assert!(payload.contains("injected host panic"), "{case}: {payload}");
                    }
                    other => panic!("{case}: expected a typed gpu-side panic, got {other:?}"),
                }
            }
        }
    }

    /// One kind of search thread: beside the caller, an overlapped search
    /// runs only its tail helpers — at most `executed_threads(cpu_threads)`
    /// of them, named `tail-q{i}` — and none is left once it returns,
    /// whether with `Ok`, a typed error or a deadline.
    #[cfg(target_os = "linux")]
    #[test]
    fn tail_threads_stay_within_budget_and_none_outlive_the_search() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (q, db) = family_workload();
        let params = SearchParams::default();
        let cpu = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db);
        let dev_db = DeviceDb::upload(&db, 24);
        let poisoned = poisoned(&db, cpu.report.hits[0].subject_index);
        for cpu_threads in [1, 2, 8] {
            let cfg = family_config(cpu_threads, true);
            let mut gpu = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db);
            gpu.stream_index = 7_200 + cpu_threads as u32;
            let name = format!("tail-q{}", gpu.stream_index);
            // Counted on every block's join, while the search runs.
            let peak = AtomicUsize::new(0);
            let on_block = |_: BlockProgress<'_>| {
                peak.fetch_max(tids_named(&name).len(), Ordering::SeqCst);
            };
            let runs = [
                ("ok", &db, CancelToken::never()),
                ("typed error", &poisoned, CancelToken::never()),
                // Polls 1–2: block 0's GPU side and hand-off; 3 trips.
                ("deadline", &db, CancelToken::after_checks(3)),
            ];
            for (outcome, source, cancel) in runs {
                let case = format!("cpu_threads = {cpu_threads}, {outcome}");
                let hooks = SearchHooks {
                    cancel,
                    on_block: Some(&on_block),
                };
                let got = gpu.run_blocks(&[flat(source, &dev_db)], None, &hooks);
                let expected = match &got {
                    Ok(_) => "ok",
                    Err(SearchError::Pipeline(PipelineError::WorkerPanicked { .. })) => {
                        "typed error"
                    }
                    Err(SearchError::DeadlineExceeded { .. }) => "deadline",
                    Err(other) => panic!("{case}: {other:?}"),
                };
                assert_eq!(expected, outcome, "{case}");
                assert_eq!(
                    threads_named(&name),
                    0,
                    "{case}: a helper outlived the search"
                );
            }
            let peak = peak.into_inner();
            assert!(peak >= 1, "cpu_threads = {cpu_threads}: no tail was posted");
            assert!(
                peak <= executed_threads(cpu_threads),
                "cpu_threads = {cpu_threads}"
            );
        }
    }

    /// A sharded query is one search: one set of tail helpers over all its
    /// shards, blocks numbered over the whole database, and the result of
    /// the same database searched as one shard.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_sharded_search_starts_its_helpers_once() {
        use crate::shard::{DbSource, ShardedDb};
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let (q, db) = family_workload();
        let open = |cuts: &[usize]| {
            ShardedDb::from_boundaries(DbSource::Inline(db.clone()), cuts, Some(24))
                .expect("an inline database cuts anywhere")
        };
        // Shards of 24, 0 and 48 sequences: the one-shard search's blocks.
        let (cut, whole) = (open(&[24, 24]), open(&[]));
        let views = cut.views();
        let blocks: Vec<usize> = views.iter().map(|v| v.dev.num_blocks()).collect();
        assert_eq!(blocks, [1, 0, 2]);
        let num_blocks = cut.num_blocks() as u32;
        for overlap in [false, true] {
            let case = format!("overlap = {overlap}");
            let config = family_config(2, overlap);
            let mut gpu = cut.searcher(
                q.clone(),
                SearchParams::default(),
                config,
                DeviceConfig::k20c(),
            );
            gpu.stream_index = 7_500 + overlap as u32;
            let name = format!("tail-q{}", gpu.stream_index);
            // Every helper the search ran, sampled at every block's join.
            let helpers = Mutex::new(BTreeSet::new());
            let order = Mutex::new(Vec::new());
            let on_block = |p: BlockProgress<'_>| {
                order.lock().unwrap().push((p.block, p.blocks_total));
                helpers.lock().unwrap().extend(tids_named(&name));
            };
            let hooks = SearchHooks {
                on_block: Some(&on_block),
                ..Default::default()
            };
            let sharded = gpu
                .run_blocks(&views, None, &hooks)
                .expect("fault-free search");
            assert_eq!(
                threads_named(&name),
                0,
                "{case}: a helper outlived the search"
            );
            let in_order: Vec<(u32, u32)> = (0..num_blocks).map(|b| (b, num_blocks)).collect();
            assert_eq!(order.into_inner().unwrap(), in_order, "{case}");
            // No more helpers than one scope starts. (None is no error: a
            // helper names itself once it runs, which may be after a join.)
            let started = helpers.into_inner().unwrap().len();
            let most = executed_threads(2);
            assert!(started <= most, "{case}: {started} helpers");

            let hooks = SearchHooks::default();
            let one = (gpu.run_blocks(&whole.views(), None, &hooks)).expect("one shard");
            let (r, want) = (&sharded, &one);
            assert_eq!(
                r.report.identity_key(),
                want.report.identity_key(),
                "{case}"
            );
            assert_eq!(r.kernels, want.kernels, "{case}");
            assert_eq!(r.counts, want.counts, "{case}");
            let shards = view_schedules(&r.block_timings, &views, gpu.config.gapped_backend);
            assert_eq!(
                shards[1].overlapped_ms, 0.0,
                "{case}: the empty shard costs nothing"
            );
            let chain: f64 = shards.iter().map(|s| s.overlapped_ms).sum();
            assert_eq!(chain.to_bits(), r.timing.overlapped_ms.to_bits(), "{case}");

            // Polls 2k + 1 trips at block k's launch (two polls a block):
            // block 2 is the last shard's second.
            let hooks = SearchHooks {
                cancel: CancelToken::after_checks(5),
                on_block: None,
            };
            match gpu.run_blocks(&views, None, &hooks).err() {
                Some(SearchError::DeadlineExceeded {
                    blocks_completed,
                    blocks_total,
                    ..
                }) => assert_eq!((blocks_completed, blocks_total), (2, num_blocks), "{case}"),
                other => panic!("{case}: expected a deadline error, got {other:?}"),
            }
            assert_eq!(
                threads_named(&name),
                0,
                "{case}: a helper outlived the deadline"
            );
        }
    }

    #[test]
    fn block_streaming_accumulates_to_the_exact_final_report() {
        use std::sync::Mutex;
        let (q, db) = workload();
        let cfg = CuBlastpConfig {
            db_block_size: 40,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let gpu = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), &db);
        let dev_db = DeviceDb::upload(&db, cfg.db_block_size);
        let streamed: Mutex<Vec<(u32, u32, SearchReport)>> = Mutex::new(Vec::new());
        let on_block = |p: BlockProgress<'_>| {
            streamed.lock().expect("test mutex").push((
                p.block,
                p.blocks_total,
                SearchReport {
                    hits: p.partial.hits.clone(),
                },
            ));
        };
        let hooks = SearchHooks {
            cancel: CancelToken::never(),
            on_block: Some(&on_block),
        };
        let r = gpu
            .run_blocks(&[flat(&db, &dev_db)], None, &hooks)
            .expect("fault-free search");
        let streamed = streamed.into_inner().expect("test mutex");
        let blocks_total = dev_db.blocks().len();
        assert_eq!(streamed.len(), blocks_total, "one event per block");
        // Events arrive in pipeline order and accumulate to the final
        // report (modulo finalize's ranking).
        let mut merged = SearchReport::default();
        for (i, (block, total, partial)) in streamed.into_iter().enumerate() {
            assert_eq!(block as usize, i);
            assert_eq!(total as usize, blocks_total);
            merged.hits.extend(partial.hits);
        }
        merged.finalize(gpu.engine.params.max_reported);
        assert_eq!(merged.identity_key(), r.report.identity_key());
    }

    #[test]
    fn batch_queries_report_queue_wait_separately() {
        let (q, db) = workload();
        let queries = vec![q, make_query(80), make_query(110)];
        let cfg = CuBlastpConfig {
            db_block_size: 60,
            grid_blocks: 2,
            warps_per_block: 2,
            ..Default::default()
        };
        let out = search_batch_with(
            &queries,
            SearchParams::default(),
            cfg,
            DeviceConfig::k20c(),
            &db,
            BatchOptions::default(),
        );
        // Later queries in a serial batch waited behind earlier ones; the
        // wait is telemetry, not a recovery action, so they stay clean.
        let last = out.per_query[2].as_ref().expect("query 2");
        assert!(last.recovery.queue_wait_us > 0);
        assert!(last.recovery.is_clean(), "queue wait does not dirty a run");
    }
}
