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

use crate::binning::{self, BinnedHits};
use crate::cancel::CancelToken;
use crate::config::{CuBlastpConfig, GappedBackend};
use crate::devicedata::{DeviceDb, DeviceDbBlock, DeviceQuery};
use crate::error::SearchError;
use crate::executor::{execute, isolated, view_passes, Input, Pass, Plan, ShardView};
use crate::extension::{hit_tail_footprint, HIT_TAIL_KERNEL};
use crate::gapped_device::{self, FineDp, SubjectDp, FINE_GAPPED_KERNEL};
use crate::gpu_phase::{
    kernel_label, kernel_named, pipeline_rank, run_gpu_phase, ExtensionsCsr, GpuPhaseCounts,
    GpuPhaseOutput,
};
use crate::grouped::{self, DeviceGroupIndex};
use crate::pipeline::{schedule, BlockTiming};
use bio_seq::{DbBlock, Sequence, SequenceDb};
use blast_core::SearchParams;
use blast_cpu::par::{executed_threads, par_scope, shares, ParMap};
use blast_cpu::report::{PhaseTimes, ReportedHit, SearchReport};
use blast_cpu::search::{apportion_wall, SearchEngine};
use gpu_sim::{
    DeviceConfig, DeviceError, FaultCtx, FaultInjector, FaultSite, KernelStats, KernelWorkspace,
};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
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
    /// Host wall-clock from its batch's start to the end of this query's
    /// fold, in microseconds: when it completed. Set by the search
    /// executor; zero for a standalone search. Queries of a batch overlap,
    /// so the next query's `queue_wait_us` may be earlier than this.
    #[serde(default)]
    pub completed_us: u64,
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
    /// of the counters merged over it. So a device-gapped search alone
    /// over one view has `kernel_ms[i] == kernels[i].time_ms()`;
    /// anywhere else the query's merged counters bill one launch overhead
    /// and one `max(compute, bandwidth)` for what was several launches.
    /// Where a batch's queries share a pass, the row holds this query's
    /// share of each launch (DESIGN.md §3.2, "The batch pass").
    pub kernel_ms: Vec<f64>,
    /// Hit/extension counters summed across blocks.
    pub counts: GpuPhaseCounts,
    /// Timing summary.
    pub timing: CuBlastpTiming,
    /// Stage times in pipeline order, one entry per device pass — per
    /// block on [`GappedBackend::Cpu`], per non-empty shard view on
    /// [`GappedBackend::Gpu`], holding this query's shares of a pass its
    /// batch (or its fleet group) shares: the raw schedule input. Each
    /// shard view's Fig. 12 schedule is stamped from its run of passes.
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
    /// afterwards; `tail_threads_ran`, a peak, and `recovery.completed_us`,
    /// a stamp, take the larger);
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
        r.completed_us = r.completed_us.max(p.completed_us);
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
    /// structures; the board books it once per query, in its merge.
    pub(crate) setup_ms: f64,
}

/// Milliseconds of backoff before retry `n` of a faulted device step,
/// scaled by `n`.
const RETRY_BACKOFF_MS: f64 = 0.1;

/// One leg of the modelled PCIe link: counter label, trace track, event.
type PcieLeg = (&'static str, &'static str, &'static str);
const H2D: PcieLeg = ("h2d", "pcie h2d (modelled)", "h2d_transfer");
const D2H: PcieLeg = ("d2h", "pcie d2h (modelled)", "d2h_transfer");

/// Modelled time of moving `bytes` for `block` over one PCIe leg,
/// recorded on the leg's trace track (labelled with `query` and `args`)
/// and byte counter.
fn bill_transfer(
    device: &DeviceConfig,
    leg: PcieLeg,
    bytes: u64,
    block: u32,
    query: Option<u32>,
    args: &[(&'static str, f64)],
) -> f64 {
    let (dir, track, event) = leg;
    let ms = device.transfer_ms(bytes);
    obs::modelled(track, event, ms, Some(block), query, args);
    obs::counter("pcie_bytes_total", &[("dir", dir)], bytes);
    ms
}

/// One device pass of one query as [`run_board`] hands it
/// back: the pass's blocks ([`view_passes`]) folded into one part, every
/// launch still unpriced.
pub(crate) struct Unpriced {
    /// The query's index in its batch stream: how its trace events are
    /// labelled when it is billed alone.
    query: u32,
    /// The pass's first block, numbered over the query's database: where
    /// its trace events sit.
    block: u32,
    /// Whether the host reads device output of the pass: the part's
    /// `counts.d2h_bytes` cross the link in one leg.
    crosses: bool,
    /// The blocks' parts absorbed: each kernel's counters merged over the
    /// pass (rows of 0 ms), the counts, the recovery report and the CPU
    /// tail's times.
    part: CuBlastpResult,
}

/// A query's device passes, view by view, as [`run_board`]
/// hands them back: not yet billed.
pub(crate) type Passes = Vec<Vec<Unpriced>>;

/// A query's search as [`run_board`] hands it back: the merged
/// and ranked report with the query's set-up and merge time, and its
/// device passes, not yet billed ([`bill_passes`]).
pub(crate) struct Searched {
    pub(crate) result: CuBlastpResult,
    pub(crate) passes: Passes,
}

/// One device pass as its device ran it (DESIGN.md §3.2): one launch of
/// each kernel over the counters of every query that launched it on the
/// pass's blocks, and one D2H leg of all their bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DevicePass {
    /// Queries the pass billed: every successful query of a single-device
    /// batch (of a grouped round), the queries a fleet device ran on the
    /// pass's shard view, or the one query of a search alone.
    pub members: usize,
    /// Kernels the pass launched, one launch each.
    pub launches: usize,
    /// Modelled milliseconds of the pass's launches (`DeviceModel`).
    pub gpu_ms: f64,
    /// Modelled milliseconds of its D2H leg, 0 when the host read nothing
    /// of it (`DeviceModel`).
    pub d2h_ms: f64,
    /// Bytes the leg carried.
    pub d2h_bytes: u64,
}

impl DevicePass {
    /// The pass's bill (`DeviceModel`): its launches and its leg.
    pub(crate) fn bill_ms(&self) -> f64 {
        self.gpu_ms + self.d2h_ms
    }

    /// The fixed part of the bill: one launch overhead per launch and one
    /// link latency for the leg — what a query that joins the pass does
    /// not pay again.
    pub(crate) fn fixed_ms(&self, device: &DeviceConfig) -> f64 {
        let launches = self.launches as u64 * device.launch_overhead_cycles;
        let leg = match self.d2h_ms > 0.0 {
            true => device.pcie_latency_us / 1e3,
            false => 0.0,
        };
        device.cycles_to_ms(launches) + leg
    }
}

/// A batch unit on the device clock (DESIGN.md §3.2): the queries whose
/// pass p on each view of `views` is one device pass. A single-device
/// batch is one group over every view (a grouped batch one per round), a
/// search alone a group of one, and the fleet one group per (device ×
/// shard view) of its placement (DESIGN.md §3.10).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Group {
    /// The views whose passes the members share.
    pub views: Range<usize>,
    /// Batch indices of the members, ascending; every one succeeded.
    pub members: Vec<usize>,
    /// The member that pays the upload of `views` (DESIGN.md §3.1): its
    /// H2D legs fold into its passes. `None` where the plan bills the
    /// upload to no query.
    pub payer: Option<usize>,
    /// The fleet device that ran the group; `None` on a single device.
    pub device: Option<usize>,
}

/// How one launch or leg of a pass splits among its members: its bill
/// (`ms`) and Σ the standalone bills of the `takers` that took part.
struct Split {
    ms: f64,
    total: f64,
    takers: usize,
}

impl Split {
    /// A taker's share: `own`, its standalone bill, × (`ms` ÷ `total`). A
    /// launch or leg of one taker is that taker's bill, untouched.
    fn share(&self, own: f64) -> f64 {
        match self.takers {
            1 => own,
            _ if self.total > 0.0 => own * (self.ms / self.total),
            _ => 0.0,
        }
    }
}

/// One device pass billed ([`bill_pass`]): the pass as its device ran it,
/// each launch in pipeline order with its split, and the D2H leg's split
/// (no takers when the host read nothing).
struct PassBill {
    pass: DevicePass,
    launches: Vec<(String, Split)>,
    leg: Split,
}

/// Bill one device pass of `members` — pass p of each of them: each
/// kernel one launch over the members' counters merged, declared at the
/// largest footprint among them (a launch has one shared-memory size, so
/// the lowest occupancy), and one D2H leg of the bytes of every member
/// whose host reads the pass. A pure function of its inputs.
fn bill_pass(device: &DeviceConfig, members: &[(usize, &Unpriced)]) -> PassBill {
    let mut merged: Vec<KernelStats> = Vec::new();
    for k in members.iter().flat_map(|(_, m)| &m.part.kernels) {
        match merged.iter_mut().find(|l| l.name == k.name) {
            Some(l) => {
                l.merge(k);
                l.occupancy = l.occupancy.min(k.occupancy);
            }
            None => merged.push(k.clone()),
        }
    }
    merged.sort_by_key(|k| pipeline_rank(&k.name));
    let mut pass = DevicePass {
        members: members.len(),
        launches: merged.len(),
        ..DevicePass::default()
    };
    let mut launches = Vec::with_capacity(merged.len());
    for launch in merged {
        let ms = launch.time_ms(device);
        pass.gpu_ms += ms;
        let own = (members.iter()).filter_map(|(_, m)| m.part.kernel(&launch.name));
        let total = own.clone().map(|k| k.time_ms(device)).sum();
        let takers = own.count();
        launches.push((launch.name, Split { ms, total, takers }));
    }
    let crossing = members.iter().filter(|(_, m)| m.crosses).map(|(_, m)| m);
    let legs = (crossing.clone()).map(|m| device.transfer_ms(m.part.counts.d2h_bytes));
    let takers = crossing.clone().count();
    if takers > 0 {
        pass.d2h_bytes = crossing.map(|m| m.part.counts.d2h_bytes).sum();
        pass.d2h_ms = device.transfer_ms(pass.d2h_bytes);
    }
    let leg = Split {
        ms: pass.d2h_ms,
        total: legs.sum(),
        takers,
    };
    PassBill {
        pass,
        launches,
        leg,
    }
}

/// One device pass of a group as [`walk`] meets it: the view, the pass's
/// index within it ([`view_passes`]), each member's batch index and pass
/// (ascending), and the pass billed.
type Met<'p> = (usize, usize, Vec<(usize, &'p Unpriced)>, PassBill);

/// Every device pass of each of `groups` over `passes` (per batch index;
/// `None` for a failed query, which no group names), billed
/// ([`bill_pass`]): pass p of every member on each of a group's views is
/// one device pass. Group by group, view by view, in pass order; a pure
/// function of its inputs.
fn walk<'p>(
    device: &DeviceConfig,
    passes: &'p [Option<Passes>],
    groups: &[Group],
) -> Vec<Vec<Met<'p>>> {
    let group = |g: &Group| {
        let mut met = Vec::new();
        for view in g.views.clone() {
            let walks: Vec<(usize, &[Unpriced])> = (g.members.iter())
                .filter_map(|&q| Some((q, passes.get(q)?.as_ref()?.get(view)?.as_slice())))
                .collect();
            for pass in 0.. {
                let members: Vec<(usize, &Unpriced)> = (walks.iter())
                    .filter_map(|&(q, walk)| Some((q, walk.get(pass)?)))
                    .collect();
                if members.is_empty() {
                    break;
                }
                let bill = bill_pass(device, &members);
                met.push((view, pass, members, bill));
            }
        }
        met
    };
    groups.iter().map(group).collect()
}

/// Each group's device passes as the device ran them ([`walk`]): view by
/// view, each in pass order.
pub(crate) fn group_passes(
    device: &DeviceConfig,
    passes: &[Option<Passes>],
    groups: &[Group],
) -> Vec<Vec<DevicePass>> {
    let walked = walk(device, passes, groups).into_iter();
    walked
        .map(|g| g.into_iter().map(|(.., bill)| bill.pass).collect())
        .collect()
}

/// The one biller of device passes (DESIGN.md §3.2), for every plan:
/// [`walk`] `groups` over `passes`, draw each pass's launches and leg on
/// the trace (labelled with the member count and the fleet device) and
/// fold each member's shares of it — the payer's with its H2D legs, one
/// per block — into its `results` slot: pass by pass into each view, then
/// its views in order, as [`CuBlastpResult::absorb`] folds any ledger,
/// with its makespans stamped once over the whole. A search alone is a
/// group of one, billed as the device ran it. Returns each group's passes
/// ([`group_passes`] bit for bit).
pub(crate) fn bill_passes(
    device: &DeviceConfig,
    views: &[ShardView<'_>],
    backend: GappedBackend,
    results: &mut [Result<CuBlastpResult, SearchError>],
    passes: &[Option<Passes>],
    groups: &[Group],
) -> Vec<Vec<DevicePass>> {
    let mut ledgers: Vec<Vec<CuBlastpResult>> = (passes.iter())
        .map(|p| (p.iter().flatten()).map(|_| Default::default()).collect())
        .collect();
    let mut billed = Vec::with_capacity(groups.len());
    for (g, walked) in groups.iter().zip(walk(device, passes, groups)) {
        let mut own = Vec::with_capacity(walked.len());
        for (view, pass, members, bill) in walked {
            let block = members.first().map_or(0, |(_, m)| m.block);
            let query = match members[..] {
                [(_, m)] => Some(m.query),
                _ => None,
            };
            let args = [
                ("members", members.len() as f64),
                ("device", g.device.unwrap_or(0) as f64),
            ];
            let args = &args[..1 + usize::from(g.device.is_some())];
            for (name, launch) in &bill.launches {
                let label = kernel_label(name);
                obs::modelled("gpu (modelled)", label, launch.ms, Some(block), query, args);
                obs::observe("kernel_sim_ms", &[("kernel", label)], launch.ms);
            }
            if bill.leg.takers > 0 {
                bill_transfer(device, D2H, bill.pass.d2h_bytes, block, query, args);
            }
            for (q, m) in members {
                let mut part = CuBlastpResult::default();
                part.absorb(&m.part);
                part.kernel_ms = (part.kernels.iter())
                    .map(|k| {
                        let launch = bill.launches.iter().find(|(name, _)| *name == k.name);
                        launch.map_or(0.0, |(_, s)| s.share(k.time_ms(device)))
                    })
                    .collect();
                let t = &mut part.timing;
                t.gpu_ms = part.kernel_ms.iter().sum();
                t.d2h_ms = match m.crosses {
                    true => (bill.leg).share(device.transfer_ms(m.part.counts.d2h_bytes)),
                    false => 0.0,
                };
                if g.payer == Some(q) {
                    let blocks = (view_passes(backend, &views[view]).nth(pass)).unwrap_or_default();
                    for ((_, dev), b) in blocks.iter().zip(m.block..) {
                        let bytes = dev.upload_bytes();
                        t.h2d_ms += bill_transfer(device, H2D, bytes, b, Some(m.query), &[]);
                    }
                }
                part.block_timings.push(BlockTiming {
                    h2d_ms: t.h2d_ms,
                    gpu_ms: t.gpu_ms,
                    d2h_ms: t.d2h_ms,
                    cpu_ms: t.cpu_wall_ms,
                });
                ledgers[q][view].absorb(&part);
            }
            own.push(bill.pass);
        }
        billed.push(own);
    }
    for (r, ledger) in results.iter_mut().zip(&ledgers) {
        let Ok(r) = r else { continue };
        for view in ledger {
            r.absorb(view);
        }
        // Each view's Fig. 12 schedule over its run of passes, the views
        // one after another.
        let mut rest = r.block_timings.as_slice();
        for view in views {
            let (own, next) = rest.split_at(view_passes(backend, view).len().min(rest.len()));
            rest = next;
            let s = schedule(own);
            r.timing.overlapped_ms += s.overlapped_ms;
            r.timing.serial_ms += s.serial_ms;
        }
    }
    billed
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

/// What a block leaves for the plan's threads.
enum TailWork {
    /// The block's trigger survivors: gapped extension and traceback.
    Finish(Arc<ExtensionsCsr>),
    /// The same survivors, aligned by the device gapped backend's
    /// functional DP, then reported; the fold bills the kernel.
    Align(Arc<DeviceDbBlock>, Arc<ExtensionsCsr>),
}

/// One block's subjects as the plan's threads see them. Owned, because
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
/// as wide as the plan's threads. A heavy block's gapped phase (on the
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

/// How many blocks' hit phases the plan's next step runs beside the
/// pending tails, `last` the last of them; `waves`: `overlap`, two or
/// more threads and a disarmed injector. With nothing pending — the
/// batch's start — the wave is one block: a wider one holds a second
/// hit-path working set while no tail has said how busy the helpers will
/// be (EXPERIMENTS.md "Hit-phase waves"). Without `overlap` (Figs. 11 and
/// 13 time each phase alone) a pending tail runs in a step of its own,
/// before the next block's launch checkpoint: width 0. After a light
/// block the wave is as wide as the threads, after a heavy one one block
/// — its tail keeps the helpers busy; a device block is heavy by its DP.
/// On one thread, or with the injector armed, every wave is one block: a
/// wider one runs hit phases before their launch checkpoint, so they may
/// neither fault nor poll. Which query's blocks fill a wave is
/// [`run_board`]'s: without `waves` a query starts once the one before
/// it has folded, so each of its first waves is a batch start.
fn wave_width(last: Option<&TailJob>, overlap: bool, threads: usize, waves: bool) -> usize {
    match last {
        None => 1,
        Some(_) if !overlap => 0,
        Some(job) if waves && !job.shared_among(threads) => threads,
        Some(_) => 1,
    }
}

/// One step of a plan's threads: the hit phases of a wave's blocks past
/// its first (the caller runs that one itself), then the subjects of
/// earlier blocks' tails in board order. Each block carries its query,
/// whose searcher runs it.
struct Batch<'a> {
    /// (query, block index) pairs; with the caller's own, a wave of
    /// `hits.len() + 1` blocks.
    hits: Vec<(Arc<OnBoard<'a>>, usize)>,
    tails: Vec<(Arc<OnBoard<'a>>, TailJob)>,
    /// Helpers claim items beside a claiming caller (test rendezvous wait
    /// only in such a batch).
    #[cfg(test)]
    shared: bool,
}

impl<'a> Batch<'a> {
    fn new(hits: Vec<(Arc<OnBoard<'a>>, usize)>, tails: Vec<(Arc<OnBoard<'a>>, TailJob)>) -> Self {
        Self {
            hits,
            tails,
            #[cfg(test)]
            shared: false,
        }
    }

    fn len(&self) -> usize {
        self.hits.len() + self.tails.iter().map(|(_, t)| t.todo.len()).sum::<usize>()
    }

    /// The tail and its item for item `i` of the subjects.
    fn subject(&self, mut i: usize) -> (usize, usize) {
        let mut t = 0;
        while i >= self.tails[t].1.todo.len() {
            i -= self.tails[t].1.todo.len();
            t += 1;
        }
        (t, i)
    }

    /// Run the batch on the plan's threads, and `own` — the caller's own
    /// hit phase, if `beside` — on the caller; the items' results come
    /// back in index order. Helpers are woken only for work beside the
    /// caller: hit phases or a heavy tail (all helpers), a light tail
    /// while the caller runs `own` (one). The caller claims what is left
    /// once it is free — all of it when no helper was woken — unless the
    /// plan has one thread: its overlap helper then finishes the batch
    /// alone.
    fn run<R>(
        self,
        board: &mut Board<'_, '_, 'a>,
        beside: bool,
        own: impl FnOnce() -> R,
    ) -> (R, Vec<Done>) {
        let (n, threads) = (self.len(), board.threads());
        let heavy = self.tails.iter().any(|(_, t)| t.shared_among(threads));
        let helpers = if !self.hits.is_empty() || heavy {
            threads - 1
        } else {
            usize::from(beside)
        };
        let claims = threads >= 2;
        #[cfg(test)]
        let (batch, pair, aligns, alone) = {
            let shared = helpers > 0 && claims;
            let pair = beside && shared && !self.hits.is_empty();
            let aligns = (self.tails.iter())
                .any(|(_, t)| matches!(t.work, TailWork::Align(..)) && !t.todo.is_empty());
            // The overlap helper of a one-thread plan has the batch to
            // itself.
            let alone = beside && helpers > 0 && !claims && n > 0;
            (
                Batch { shared, ..self },
                pair,
                beside && shared && aligns,
                alone,
            )
        };
        #[cfg(not(test))]
        let batch = self;
        let posted = board.post(Job::Step(batch), n, helpers);
        // The caller's own hit phase meets one a helper claimed, an
        // `Align` subject, or the overlap helper's subject.
        #[cfg(test)]
        if let Some(m) = meet::armed() {
            m.arrive(meet::Kind::Hits, pair);
            m.arrive(meet::Kind::Beside, aligns);
            m.arrive(meet::Kind::Overlap, alone);
        }
        let r = own();
        let done = if claims {
            board.help(posted)
        } else {
            board.join(posted)
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
    /// A tail subject that panicked: its query fails, and nothing else.
    Failed(SearchError),
    /// One pass of a grouped seeding round.
    Seeded(Pass),
}

impl Done {
    fn lane(&self) -> Option<&Lane> {
        match self {
            Done::Subject(.., lane) | Done::Aligned(.., lane) => Some(lane),
            Done::Hit(_) | Done::Failed(_) | Done::Seeded(_) => None,
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

/// What a plan's threads run: one step of its board, or a grouped
/// round's seeding passes, one item per database block.
enum Job<'a> {
    Step(Batch<'a>),
    Round(SeedFn<'a>, DeviceGroupIndex),
}

/// A grouped round's seeding pass over the plan's `i`-th block, on
/// whichever thread claims it.
pub(crate) type SeedFn<'a> = &'a (dyn Fn(&DeviceGroupIndex, usize) -> Pass + Sync);

/// The threads of one plan: the caller and its helpers.
type Board<'scope, 'env, 'a> = ParMap<'scope, 'env, Job<'a>, Done>;

/// A plan's threads as its `enter` sees them ([`run_board`]): what a
/// grouped round maps its seeding passes over.
pub(crate) struct Threads<'t, 'scope, 'env, 'a>(&'t mut Board<'scope, 'env, 'a>);

impl<'a> Threads<'_, '_, '_, 'a> {
    /// `pass` over `blocks` database blocks of one round's `group`, on the
    /// caller and every helper; the passes come back in block order.
    pub(crate) fn seed(
        &mut self,
        pass: SeedFn<'a>,
        group: DeviceGroupIndex,
        blocks: usize,
    ) -> Vec<Pass> {
        let done = self.0.map(Job::Round(pass, group), blocks);
        (done.into_iter())
            .filter_map(|d| match d {
                Done::Seeded(pass) => Some(pass),
                _ => None,
            })
            .collect()
    }
}

/// How a plan's query gets its searcher.
pub(crate) enum Setup<'a> {
    /// Built already — by a grouped plan, or handed in by a search
    /// alone; the board checks it as the query enters.
    Ready(&'a CuBlastp),
    /// Built — as stream query `.0` — and checked by the first thread
    /// that runs one of the query's blocks, beside whatever else its step
    /// runs.
    Lazy(
        u32,
        Box<dyn Fn() -> Result<CuBlastp, SearchError> + Send + Sync + 'a>,
    ),
}

/// A query as its plan puts it on the board ([`run_board`]).
pub(crate) struct Entry<'a> {
    pub setup: Setup<'a>,
    /// One demuxed [`BinnedHits`] per block from a grouped seeding round,
    /// or `None` for the query's own DFA pass over every block.
    pub seeds: Option<Vec<BinnedHits>>,
    pub hooks: &'a SearchHooks<'a>,
}

/// One query on the board, shared by the caller and every job that runs
/// one of its blocks: how it gets its searcher, and its blocks.
struct OnBoard<'a> {
    setup: Setup<'a>,
    built: OnceLock<Result<CuBlastp, SearchError>>,
    views: &'a [ShardView<'a>],
    /// Every block of every view, numbered over the query's database.
    blocks: Vec<Block<'a>>,
    blocks_total: u32,
    seeded: bool,
    hooks: &'a SearchHooks<'a>,
}

impl OnBoard<'_> {
    /// The query's searcher; a lazy one is built and checked
    /// ([`CuBlastp::admit`]) by the first thread that asks. A panic in
    /// either is this query's error, on whichever thread asked.
    fn searcher(&self) -> Result<&CuBlastp, SearchError> {
        let build = match &self.setup {
            Setup::Ready(s) => return Ok(s),
            Setup::Lazy(_, build) => build,
        };
        let built = self.built.get_or_init(|| {
            let s = build()?;
            isolated("batch query", || {
                s.admit(self.views, self.seeded, self.hooks)
            })?;
            Ok(s)
        });
        built.as_ref().map_err(SearchError::clone)
    }

    /// Block `b`'s hit phase, on whichever thread claimed it.
    fn hit_item(&self, b: usize, wave: usize, on_caller: bool) -> Result<HitPhase, SearchError> {
        self.searcher()?.hit_item(&self.blocks[b], wave, on_caller)
    }

    /// Subject `item` of `job`, on whichever thread claimed it. A panic
    /// fails this query's block, never the step it shares with others.
    fn tail_item(&self, job: &TailJob, item: usize, on_caller: bool) -> Done {
        let view = self.views[job.shard];
        let done = isolated("cpu tail", || {
            Ok(self.searcher()?.tail_item(view, job, item, on_caller))
        });
        done.unwrap_or_else(Done::Failed)
    }
}

/// A query the board has entered, as the caller keeps it until its fold
/// is done.
struct Live<'a> {
    /// Its index among the board's queries.
    index: usize,
    q: Arc<OnBoard<'a>>,
    /// Its next block to launch.
    next: usize,
    /// Its blocks' parts, in block order, as their tails folded.
    parts: Vec<GpuSide>,
    /// Why it ends early: it launches nothing more, and the tails of its
    /// blocks that passed their tail checkpoint still run, so `on_block`
    /// fires for exactly those.
    stop: Option<SearchError>,
    entered: Instant,
    _span: obs::PhaseSpan,
}

/// A block whose tail the next step runs: its query's index, its GPU
/// side, and the job.
type Pending<'a> = (usize, GpuSide, (Arc<OnBoard<'a>>, TailJob));

impl<'a> Live<'a> {
    /// Put `entry` on the board as query `index`: its blocks over `views`,
    /// and a ready searcher checked here, on the caller — a panic in the
    /// check is this query's error.
    fn enter(index: usize, entry: Entry<'a>, views: &'a [ShardView<'a>]) -> Self {
        let stream = match &entry.setup {
            Setup::Ready(s) => s.stream_index,
            Setup::Lazy(stream, _) => *stream,
        };
        let span = obs::span("search", "host").with_query(stream);
        // Record which SIMD instruction set the CPU phases dispatch to for
        // this search, and which backend owns the gapped phase (§3.7).
        let dispatch = blast_cpu::simd::dispatch_report();
        obs::gauge("cpu_simd_dispatch", &[("isa", dispatch.active.name())], 1.0);
        let hooks = entry.hooks;
        let seeded = entry.seeds.is_some();
        let blocks_total: u32 = views.iter().map(|v| v.dev.num_blocks() as u32).sum();
        let mut seeds = entry.seeds.into_iter().flatten();
        let blocks: Vec<Block<'a>> = (views.iter().enumerate())
            .flat_map(|(shard, view)| (0u32..).zip(view.dev.blocks()).map(move |b| (shard, b)))
            .zip(0u32..)
            .map(|((shard, (local, (range, dev))), block)| Block {
                at: BlockAt {
                    ctx: FaultCtx {
                        query: stream,
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
        let stop = match entry.setup {
            Setup::Ready(s) => isolated("batch query", || s.admit(views, seeded, hooks)).err(),
            Setup::Lazy(..) => None,
        };
        let q = OnBoard {
            setup: entry.setup,
            built: OnceLock::new(),
            views,
            blocks,
            blocks_total,
            seeded,
            hooks,
        };
        Self {
            index,
            q: Arc::new(q),
            next: 0,
            parts: Vec::new(),
            stop,
            entered: Instant::now(),
            _span: span,
        }
    }

    /// Whether it launches nothing more and no tail of it is pending.
    fn finished(&self, pending: &[Pending<'a>]) -> bool {
        let launching = self.stop.is_none() && self.next < self.q.blocks.len();
        !launching && pending.iter().all(|p| p.0 != self.index)
    }

    /// The CPU tail of one block, on the caller once the plan's threads
    /// have run its subjects: its hits, its row of the Fig. 12 schedule
    /// and its progress event, in block order. A subject that failed, or
    /// a fold that panics, fails the query and nothing else.
    fn fold(&mut self, mut gpu: GpuSide, done: Vec<Done>) {
        let _span = obs::span("consumer_block", "pipeline").with_block(gpu.block);
        let failed = done.iter().find_map(|d| match d {
            Done::Failed(e) => Some(e.clone()),
            _ => None,
        });
        let s = match failed.map_or_else(|| self.q.searcher(), Err) {
            Ok(s) => s,
            Err(e) => {
                self.stop.get_or_insert(e);
                return;
            }
        };
        let part = &mut gpu.part;
        let aligned = gpu.aligned;
        match isolated("cpu tail", || Ok(s.fold_tail(done, aligned, part))) {
            Ok(ms) => part.timing.cpu_wall_ms = ms,
            Err(e) => {
                self.stop.get_or_insert(e);
                return;
            }
        }
        if let Some(on_block) = self.q.hooks.on_block {
            on_block(BlockProgress {
                block: gpu.block,
                blocks_total: self.q.blocks_total,
                partial: &part.report,
            });
        }
        obs::counter("pipeline_blocks_total", &[("side", "consumer")], 1);
        self.parts.push(gpu);
    }

    /// The query's search once its last block has folded: its blocks
    /// folded into their device passes, unpriced, their hits into the
    /// merged report in block order, whose "other" time is the query's
    /// set-up plus the merge. The board runs it isolated: a panic fails
    /// this query alone.
    fn finish(self) -> Result<Searched, SearchError> {
        if let Some(e) = self.stop {
            return Err(e);
        }
        let s = self.q.searcher()?;
        let t_merge = Instant::now();
        let merge_span = obs::span("merge", "host").with_query(s.stream_index);
        #[cfg(test)]
        meet::merge_checkpoint(s.stream_index);
        let backend = s.config.gapped_backend;
        let mut r = CuBlastpResult::default();
        let mut parts = self.parts.into_iter();
        let mut passes = Vec::with_capacity(self.q.views.len());
        for view in self.q.views {
            let mut own = Vec::new();
            for blocks in view_passes(backend, view) {
                let (mut block, mut crosses) = (0, false);
                let mut part = CuBlastpResult::default();
                for (k, mut side) in parts.by_ref().take(blocks.len()).enumerate() {
                    if k == 0 {
                        block = side.block;
                    }
                    crosses |= side.crosses;
                    r.report.hits.append(&mut side.part.report.hits);
                    part.absorb(&side.part);
                }
                own.push(Unpriced {
                    query: s.stream_index,
                    block,
                    crosses,
                    part,
                });
            }
            passes.push(own);
        }
        r.report.finalize(s.engine.params.max_reported);
        r.timing.other_ms = s.setup_ms + t_merge.elapsed().as_secs_f64() * 1e3;
        drop(merge_span);
        if obs::metrics_enabled() {
            let checkouts = s.workspace.checkouts();
            let allocs = s.workspace.allocations();
            if checkouts > 0 {
                let hit_rate = 1.0 - allocs as f64 / checkouts as f64;
                obs::gauge("workspace_pool_hit_rate", &[], hit_rate);
            }
        }
        Ok(Searched { result: r, passes })
    }
}

/// One block of the query's database, as the plan walks it.
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
/// turn to the block's device pass ([`Unpriced`]).
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

/// The one loop of every plan (Fig. 12, DESIGN.md §3.13): the blocks of
/// its `queries` — every resident block of every view of `views`, query
/// after query in input order — as one stream on one set of threads,
/// named `name`. Each block goes through the GPU side (hit phase, gapped
/// backend) and then the CPU tail, overlapped wave-against-wave when
/// configured. Each step is one batch of the threads: a wave's hit
/// phases — the first on the caller, as wide as [`wave_width`] says —
/// beside the pending tails (the device pass's DP included); then, on the
/// caller in board order, each pending block's fold and each wave
/// block's launch checkpoint, the rest of its GPU side (the gapped
/// backend's fault checks, what it downloads) and its tail checkpoint,
/// after which its tail is pending. The helpers live as long as the plan
/// — started by the first batch that wants them, parked between batches,
/// joined on every way out.
///
/// `enter(i, threads)` hands over query `i` when the board first needs
/// it (a grouped plan seeds the query's round on `threads` then). Under
/// `waves` (`overlap`, two or more threads, no `armed` injector) a wave
/// may cross into the next query: the last tails of one query run beside
/// the next one's set-up and first hit phases. At most two queries are on
/// the board at once, and without `waves` one: a query enters once the
/// one before it has folded. Each query stands alone: its hooks poll and
/// stream its own blocks; hits carry *global* subject indices
/// (`view.start` + shard-local index); `on_block` and a deadline error
/// number its blocks over all views, fault specs within a view. A failed
/// block fails its query — a partial merge would break the
/// identical-to-single-database contract — and nothing else: the query
/// launches nothing more, and its neighbours' items in a shared step run
/// on. `done(i, entered, searched)` gets each query as it completes, with
/// when it entered: its merged report and its device passes, unpriced,
/// for the plan to bill ([`bill_passes`]). No block carries an H2D leg:
/// the biller folds its payer's in ([`Group::payer`]).
pub(crate) fn run_board<'a>(
    name: &str,
    views: &'a [ShardView<'a>],
    config: &CuBlastpConfig,
    armed: bool,
    queries: usize,
    mut enter: impl for<'t, 's, 'e> FnMut(usize, Threads<'t, 's, 'e, 'a>) -> Entry<'a>,
    mut done: impl FnMut(usize, Instant, Result<Searched, SearchError>),
) {
    obs::gauge(
        "gapped_backend",
        &[("backend", config.gapped_backend.name())],
        1.0,
    );
    let overlap = config.overlap;
    let threads = executed_threads(config.cpu_threads);
    let waves = overlap && threads >= 2 && !armed;
    let caller = std::thread::current().id();
    #[cfg(test)]
    let rendezvous = meet::armed();
    let item = |job: &Job<'a>, i: usize| {
        let on_caller = std::thread::current().id() == caller;
        let batch = match job {
            Job::Round(pass, group) => return Done::Seeded(pass(group, i)),
            Job::Step(batch) => batch,
        };
        match batch.hits.get(i) {
            Some((q, b)) => {
                #[cfg(test)]
                if let Some(m) = &rendezvous {
                    m.arrive(meet::Kind::Hits, batch.shared);
                }
                Done::Hit(q.hit_item(*b, batch.hits.len() + 1, on_caller))
            }
            None => {
                let (t, item) = batch.subject(i - batch.hits.len());
                let (q, job) = &batch.tails[t];
                #[cfg(test)]
                if let Some(m) = &rendezvous {
                    let pair = batch.tails.iter().position(|(_, t)| t.todo.len() >= 2);
                    m.arrive(meet::Kind::Tail, batch.shared && pair == Some(t));
                    let aligns = matches!(job.work, TailWork::Align(..));
                    m.arrive(meet::Kind::Beside, batch.shared && aligns && !on_caller);
                    m.arrive(meet::Kind::Overlap, threads < 2 && !on_caller);
                }
                q.tail_item(job, item, on_caller)
            }
        }
    };
    par_scope(name, threads, &item, |board| {
        let mut live: Vec<Live<'a>> = Vec::new();
        let mut pending: Vec<Pending<'a>> = Vec::new();
        let mut entered = 0;
        loop {
            while let Some(k) = live.iter().position(|l| l.finished(&pending)) {
                let l = live.remove(k);
                let (index, at) = (l.index, l.entered);
                done(index, at, isolated("batch query", || l.finish()));
            }
            if live.is_empty() && entered == queries {
                break;
            }
            // The wave: the launching query's next blocks, and the next
            // query's once it has none left.
            let last = pending.last().map(|(.., (_, job))| job);
            let width = wave_width(last, overlap, threads, waves);
            let mut wave: Vec<(usize, Arc<OnBoard<'a>>, usize)> = Vec::with_capacity(width);
            while wave.len() < width {
                let launching =
                    (live.last_mut()).filter(|l| l.stop.is_none() && l.next < l.q.blocks.len());
                let Some(l) = launching else {
                    let room = if waves {
                        live.len() < 2
                    } else {
                        live.is_empty()
                    };
                    if entered == queries || !room {
                        break;
                    }
                    let entry = enter(entered, Threads(&mut *board));
                    live.push(Live::enter(entered, entry, views));
                    entered += 1;
                    continue;
                };
                // Cancellation checkpoint of the query's first block in
                // the wave: an expired query stops launching kernels and
                // frees the device mid-search.
                let at = l.q.blocks[l.next].at;
                if wave.iter().all(|&(q, ..)| q != l.index) && at.hooks.cancel.check() {
                    l.stop = Some(at.hooks.deadline_error(at.block, at.blocks_total));
                    continue;
                }
                wave.push((l.index, Arc::clone(&l.q), l.next));
                l.next += 1;
            }
            let on = |(_, q, b): &(usize, Arc<OnBoard<'a>>, usize)| (Arc::clone(q), *b);
            let hits: Vec<(Arc<OnBoard<'a>>, usize)> = wave.iter().skip(1).map(on).collect();
            let first = wave.first().map(on);
            let (n_hits, width) = (hits.len(), wave.len());
            let mut folds = Vec::with_capacity(pending.len());
            let mut tails = Vec::with_capacity(pending.len());
            for (index, side, tail) in pending.drain(..) {
                folds.push((index, side, tail.1.todo.len()));
                tails.push(tail);
            }
            let own = || first.map(|(q, b)| q.hit_item(b, width, true));
            let (own, done) = Batch::new(hits, tails).run(board, width > 0, own);
            let mut done = done.into_iter();
            let hit_phases: Vec<Result<HitPhase, SearchError>> = (own.into_iter())
                .chain(done.by_ref().take(n_hits).filter_map(|d| match d {
                    Done::Hit(hit) => Some(hit),
                    _ => None,
                }))
                .collect();
            for (index, side, size) in folds {
                let items = done.by_ref().take(size).collect();
                if let Some(l) = live.iter_mut().find(|l| l.index == index) {
                    l.fold(side, items);
                }
            }
            for (k, ((index, q, b), hit)) in wave.iter().zip(hit_phases).enumerate() {
                let (index, b) = (*index, *b);
                let Some(l) = live.iter_mut().find(|l| l.index == index) else {
                    continue;
                };
                if l.stop.is_some() {
                    continue;
                }
                let at = q.blocks[b].at;
                // The later blocks' launch checkpoints: a hit phase that
                // ran before its own is dropped when it trips.
                if k > 0 && wave[k - 1].0 == index && at.hooks.cancel.check() {
                    l.stop = Some(at.hooks.deadline_error(at.block, at.blocks_total));
                    continue;
                }
                let side = isolated("gpu side", || q.searcher()?.gpu_side(&q.blocks[b], hit?));
                let (side, job) = match side {
                    Ok(side) => side,
                    Err(e) => {
                        l.stop = Some(e);
                        continue;
                    }
                };
                obs::counter("pipeline_blocks_total", &[("side", "producer")], 1);
                // Checkpoint before the CPU tail: an expired query skips
                // its host work too.
                if at.hooks.cancel.check() {
                    l.stop = Some(at.hooks.deadline_error(at.block, at.blocks_total));
                    continue;
                }
                pending.push((index, side, (Arc::clone(q), job)));
            }
        }
    });
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

    /// Search the database: flatten it into device layout once and run the
    /// pipeline against the resident copy, paying the upload it made.
    pub fn search(&self, db: &SequenceDb) -> Result<CuBlastpResult, SearchError> {
        let dev = &DeviceDb::upload(db, self.config.db_block_size);
        let view = [ShardView { db, dev, start: 0 }];
        execute(&self.alone(&view, &[], true)).0.only()
    }

    /// Search against a database already resident on the device (see
    /// [`DeviceDb`]): the upload was paid when it became resident, so this
    /// query's timing carries no H2D leg.
    pub fn search_resident(
        &self,
        db: &SequenceDb,
        dev: &DeviceDb,
    ) -> Result<CuBlastpResult, SearchError> {
        let view = [ShardView { db, dev, start: 0 }];
        execute(&self.alone(&view, &[], false)).0.only()
    }

    /// The one-query plan of this query over `views` under `hooks` (inert
    /// when empty): it enters with this searcher, its helpers named
    /// `plan-q{stream index}`, and pays the upload of `views` when it
    /// `pays` and succeeds.
    pub(crate) fn alone<'a>(
        &'a self,
        views: &'a [ShardView<'a>],
        hooks: &'a [SearchHooks<'a>],
        pays: bool,
    ) -> Plan<'a> {
        Plan {
            params: self.engine.params,
            config: self.config,
            device: self.device,
            shards: views,
            queries: Input::Ready(self),
            hooks,
            pays,
            ..Plan::default()
        }
    }

    /// Refuse, before the query's first launch, what would fail every one
    /// of its blocks over `views`: a launch no block shape fits
    /// ([`Self::check_launches`], `seeded` by a grouped round or not), a
    /// database partitioned at another block size, or a deadline already
    /// expired — the serving layer admits with the deadline clock running.
    fn admit(
        &self,
        views: &[ShardView<'_>],
        seeded: bool,
        hooks: &SearchHooks<'_>,
    ) -> Result<(), SearchError> {
        self.check_launches(seeded)?;
        for view in views {
            if view.dev.block_size() != self.config.db_block_size {
                return Err(SearchError::config(format!(
                    "resident database was partitioned at block size {}, config wants {}",
                    view.dev.block_size(),
                    self.config.db_block_size
                )));
            }
        }
        if hooks.cancel.is_cancelled() {
            let blocks_total = views.iter().map(|v| v.dev.num_blocks() as u32).sum();
            return Err(hooks.deadline_error(0, blocks_total));
        }
        Ok(())
    }

    /// Refuse, before the first launch, a configuration that leaves one
    /// of this query's launches without a block shape that fits the
    /// device: `hit_detection` (which also re-seeds a grouped member's
    /// block after a fault), `grouped_seeding` when the query is `seeded`
    /// by a round, `hit_tail`, and the fine gapped kernel under
    /// [`GappedBackend::Gpu`] — through the footprint function each launch
    /// calls. The error is [`SearchError::Config`], naming the kernel and
    /// its bytes, not a device fault: no retry or degradation hides it.
    pub(crate) fn check_launches(&self, seeded: bool) -> Result<(), SearchError> {
        self.config.validate()?;
        let (cfg, device) = (&self.config, &self.device);
        let qlen = self.query_device.query_len();
        let mut launches = vec![
            ("hit_detection", binning::footprint(cfg)),
            (HIT_TAIL_KERNEL, hit_tail_footprint(device, cfg, qlen, 1).2),
        ];
        if seeded {
            launches.push(("grouped_seeding", grouped::footprint(cfg)));
        }
        if cfg.gapped_backend == GappedBackend::Gpu {
            let fine = gapped_device::footprint(cfg, &self.engine.params);
            launches.push((FINE_GAPPED_KERNEL, fine));
        }
        let unfit = launches.into_iter().find(|(_, l)| !l.fits(device));
        match unfit {
            Some((kernel, launch)) => Err(SearchError::config(format!(
                "{kernel} cannot launch: a block of {} warps and {} B of shared memory \
                 fits no SM of the device ({} warps, {} B)",
                launch.warps_per_block,
                launch.shared_bytes_per_block,
                device.max_warps_per_sm,
                device.shared_mem_per_sm,
            ))),
            None => Ok(()),
        }
    }

    /// One block's hit phase (`hit_detection` and `hit_tail`, or
    /// `hit_tail` alone for a seeded block) under the recovery policy, on
    /// whichever thread runs it: a `producer_block` span with the width of
    /// its wave and whether the caller ran it. A panic comes back typed as
    /// the GPU side's.
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
    /// block's pass bills its launches and its leg ([`bill_passes`]).
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

    /// One block's hit phase (`hit_detection` and `hit_tail`, or `hit_tail`
    /// alone for a seeded block) under the recovery policy. The
    /// first attempt consumes the block's grouped-round `bins`, if any; a
    /// retry re-seeds through the query's own DFA (per-segment multiset-equal
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
            run_gpu_phase(
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
                Done::Hit(_) | Done::Failed(_) | Done::Seeded(_) => {}
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
            let track = "cpu tail (modelled)";
            obs::modelled(track, "gapped_extension", gapped_ms, None, q, &[]);
            obs::modelled(track, "traceback", traceback_ms, None, q, &[]);
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
    /// Modelled H2D of every round's index upload, summed in round order
    /// (`DeviceModel`).
    pub index_upload_ms: f64,
    /// Modelled H2D of the database upload, which a grouped batch bills
    /// to no query (`DeviceModel`).
    pub db_upload_ms: f64,
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
    /// The device passes the queries shared, in batch order: one per
    /// database block (per shard view under [`GappedBackend::Gpu`]) for
    /// the whole batch, or for each grouped round.
    pub passes: Vec<DevicePass>,
    /// Bytes the batch's pooled hit-path scratch holds once every query
    /// ran ([`KernelWorkspace::pooled_bytes`]): the memory a batch keeps
    /// for its next query.
    pub pooled_bytes: usize,
}

impl BatchOutcome {
    /// The batch's bill on the `DeviceModel` clock: every successful
    /// query's kernel, H2D and D2H rows, plus what a grouped batch bills
    /// to no query — its rounds' seeding passes, their index uploads and
    /// the database upload (a per-query batch bills the upload to its
    /// lowest-index successful query).
    pub fn device_model_ms(&self) -> f64 {
        let per_query: f64 = (self.per_query.iter().flatten())
            .map(|r| r.timing.gpu_ms + r.timing.h2d_ms + r.timing.d2h_ms)
            .sum();
        let batch = self.grouped.as_ref().map_or(0.0, |g| {
            g.total_seeding_ms() + g.index_upload_ms + g.db_upload_ms
        });
        per_query + batch
    }

    /// Queries that completed successfully.
    pub fn succeeded(&self) -> usize {
        self.per_query.iter().filter(|r| r.is_ok()).count()
    }

    /// The result of a plan of one query ([`CuBlastp::alone`]).
    pub(crate) fn only(self) -> Result<CuBlastpResult, SearchError> {
        let only = self.per_query.into_iter().next();
        only.unwrap_or_else(|| Err(SearchError::config("the plan ran no query")))
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
/// copy on one device. Once every query has run, each database block
/// (each shard view under [`GappedBackend::Gpu`]) is one device pass
/// shared by every query that succeeded, and each query's rows are its
/// share of it, never more than its bill alone ([`BatchOutcome::passes`];
/// DESIGN.md §3.2). The lowest-index query that succeeded pays the upload
/// — its passes carry the H2D legs a standalone [`CuBlastp::search`] of
/// it carries — and no other does. With [`SeedMode::Grouped`] the
/// executor packs the queries into index-budget-bounded rounds, seeds
/// each with one pass per database block and shares the round's device
/// passes among its members; no query's timing carries the rounds or the
/// upload ([`BatchOutcome::grouped`] reports them,
/// [`BatchOutcome::device_model_ms`] adds them). Per-query reports are
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
        queries: Input::Sequences(queries),
        grouped: (opts.seed_mode == SeedMode::Grouped).then_some(DEFAULT_GROUP_BUDGET),
        injector: opts.injector,
        pays: true,
        ..Plan::default()
    };
    execute(&plan).0
}

/// A test-only rendezvous that makes "two threads ran items of one batch"
/// deterministic. A test arms it on its own thread ([`arm`]); the searches
/// that thread runs then hold the first thread to enter an item of the
/// armed kind, in a batch that a claiming caller shares with helpers (at
/// one thread: that the overlap helper runs beside the caller's own hit
/// phase), until a second thread enters one too — a helper slow to wake
/// still gets its seat. One meeting per arming. A wait gives up after
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
        /// At one thread: a tail subject the overlap helper claimed and
        /// the caller's own hit phase beside it.
        Overlap,
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

    thread_local! {
        static NAMED: RefCell<Option<String>> = const { RefCell::new(None) };
    }

    /// Named until dropped.
    pub(crate) struct Named;

    impl Drop for Named {
        fn drop(&mut self) {
            NAMED.with(|n| n.borrow_mut().take());
        }
    }

    /// Name the helpers of the batch plans this thread runs `name`
    /// instead of `plan`, so a test can count its own.
    pub(crate) fn name_helpers(name: &str) -> Named {
        NAMED.with(|n| *n.borrow_mut() = Some(name.to_string()));
        Named
    }

    /// The name this thread gave its plans' helpers, if any.
    pub(crate) fn helper_name() -> Option<String> {
        NAMED.with(|n| n.borrow().clone())
    }

    thread_local! {
        static MERGE_PANICS: std::cell::Cell<Option<u32>> = const { std::cell::Cell::new(None) };
    }

    /// Panicking until dropped.
    pub(crate) struct Poisoned;

    impl Drop for Poisoned {
        fn drop(&mut self) {
            MERGE_PANICS.with(|m| m.set(None));
        }
    }

    /// Make the merge of stream query `query` panic in the plans this
    /// thread runs.
    pub(crate) fn panic_in_merge(query: u32) -> Poisoned {
        MERGE_PANICS.with(|m| m.set(Some(query)));
        Poisoned
    }

    /// The merge of stream query `query` starts on this thread.
    pub(crate) fn merge_checkpoint(query: u32) {
        if MERGE_PANICS.with(|m| m.get()) == Some(query) {
            panic!("injected merge panic in query {query}");
        }
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
    use crate::lattice::{check_all, Case, Fault, Layout, Queries, Seed};
    use bio_seq::generate::{generate_db, make_query, DbSpec};
    use blast_cpu::search::search_sequential;
    use gpu_sim::FaultSite;
    use std::collections::BTreeSet;

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
        batch_pass_mixes_pssm_and_blosum62_hit_tails: [
            Case { queries: Queries::Mixed, ..Case::default() },
            Case { queries: Queries::Mixed, backend: GappedBackend::Gpu, shards: Layout::Even3,
                   ..Case::default() },
            Case { queries: Queries::Mixed, seed: Seed::Grouped, threads: 2, overlap: true,
                   ..Case::default() },
        ];
        fleet_bills_each_device_view_group_as_one_unit: [
            Case { shards: Layout::Even3, devices: Some(2), ..Case::default() },
            Case { backend: GappedBackend::Gpu, shards: Layout::Ragged, devices: Some(2),
                   threads: 2, overlap: true, ..Case::default() },
            Case { shards: Layout::Even3, devices: Some(1), fault: Fault::Panic,
                   fault_query: 1, ..Case::default() },
            Case { queries: Queries::Mixed, shards: Layout::Even3, devices: Some(2),
                   fault: Fault::Permanent(FaultSite::DeviceAlloc), fault_block: 1,
                   ..Case::default() },
        ];
        poisoned_batch_query_fails_alone: [
            Case { fault: Fault::Panic, ..Case::default() },
            Case { fault: Fault::Panic, fault_query: 1, ..Case::default() },
        ];
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

        /// Queries of 480–800 residues — half of them on either side of
        /// `hit_tail`'s two boundaries for an explicit PSSM (496, 752) or
        /// in the 753–768 that used to bill occupancy 0 — under every
        /// scoring mode, on every preset and both gapped backends: every
        /// launch the search makes fits its device, and the report is
        /// `search_sequential`'s.
        #[test]
        fn every_launch_fits_from_480_to_800_residues(
            qlen in 480usize..=800,
            edge in 0usize..16,
            scoring in 0usize..3,
            preset in 0usize..3,
            gpu_gapped in 0usize..2,
        ) {
            use crate::config::ScoringMode;
            const EDGES: [usize; 8] = [496, 497, 752, 753, 760, 768, 769, 800];
            let qlen = EDGES.get(edge).copied().unwrap_or(qlen);
            let scoring = [ScoringMode::Pssm, ScoringMode::Blosum62, ScoringMode::Auto][scoring];
            let device = [DeviceConfig::k20c(), DeviceConfig::k40(), DeviceConfig::gtx680()][preset];
            let q = make_query(qlen);
            let spec = DbSpec {
                name: "fit",
                num_sequences: 12,
                mean_length: 160,
                homolog_fraction: 0.5,
                seed: qlen as u64,
            };
            let db = generate_db(&spec, &q).db;
            let params = SearchParams::default();
            let want = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db).report;
            let cfg = CuBlastpConfig {
                scoring,
                db_block_size: 8,
                grid_blocks: 2,
                gapped_backend: [GappedBackend::Cpu, GappedBackend::Gpu][gpu_gapped],
                ..Default::default()
            };
            let r = CuBlastp::new(q, params, cfg, device, &db).search(&db);
            let r = r.map_err(|e| proptest::test_runner::TestCaseError::fail(e.to_string()))?;
            proptest::prop_assert!(r.kernel(HIT_TAIL_KERNEL).is_some());
            for k in &r.kernels {
                proptest::prop_assert!(k.occupancy > 0.0, "{} billed at occupancy 0", k.name);
            }
            proptest::prop_assert_eq!(r.report.identity_key(), want.identity_key());
            for (a, b) in r.report.hits.iter().zip(&want.hits) {
                proptest::prop_assert_eq!(a.evalue.to_bits(), b.evalue.to_bits());
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(8))]

        /// Over generated batches — queries either side of `Auto`'s
        /// PSSM / BLOSUM62 crossover, one query's blocks degraded to the
        /// host, another failed — every query's share of a batch pass is at
        /// most its bill alone: the same query searched alone, under the
        /// same fault, on each pass, each kernel row and each leg. A failed
        /// query joins no pass, and each pass's shares add up to its bill.
        #[test]
        fn a_batch_share_never_exceeds_the_bill_alone(
            lens in proptest::collection::vec(60usize..420, 2..5),
            degraded in 0usize..4,
            failed in 0usize..5,
            gpu_gapped in 0usize..2,
        ) {
            use gpu_sim::{FaultPlan, FaultSpec};
            let (_, db) = workload();
            let queries: Vec<Sequence> = lens.iter().map(|&n| make_query(n)).collect();
            let params = SearchParams::default();
            let mut config = CuBlastpConfig {
                db_block_size: 40,
                grid_blocks: 2,
                warps_per_block: 2,
                ..Default::default()
            };
            if gpu_gapped == 1 {
                config.gapped_backend = GappedBackend::Gpu;
            }
            let device = DeviceConfig::k20c();
            let plan = || {
                let degrade = FaultSpec::permanent(FaultSite::DeviceAlloc)
                    .on_query(degraded as u32)
                    .on_block(1);
                let fail = FaultSpec::permanent(FaultSite::HostPanic).on_query(failed as u32);
                Arc::new(FaultInjector::new(FaultPlan::none().with(degrade).with(fail)))
            };
            let opts = BatchOptions {
                injector: Some(plan()),
                seed_mode: SeedMode::PerQuery,
            };
            let out = search_batch_with(&queries, params, config, device, &db, opts);
            let dev = DeviceDb::upload(&db, config.db_block_size);
            // The pure walk bills the batch's group to the bit, as the
            // biller that folds its shares into the results does.
            let view = [ShardView { db: &db, dev: &dev, start: 0 }];
            let flat = Plan {
                params,
                config,
                device,
                shards: &view,
                grouped: None,
                injector: Some(plan()),
                queries: Input::Sequences(&queries),
                pays: true,
                ..Plan::default()
            };
            let (mut ran, passes, _) = crate::executor::run(&flat);
            let members: Vec<usize> =
                (0..queries.len()).filter(|&q| passes[q].is_some()).collect();
            let groups = [Group {
                views: 0..1,
                payer: members.first().copied(),
                members,
                device: None,
            }];
            let walked = group_passes(&device, &passes, &groups).concat();
            let backend = config.gapped_backend;
            let results = &mut ran.per_query;
            let billed = bill_passes(&device, &view, backend, results, &passes, &groups);
            let pass_bits = |passes: &[DevicePass]| -> Vec<_> {
                let bits = |p: &DevicePass| [p.gpu_ms.to_bits(), p.d2h_ms.to_bits()];
                (passes.iter())
                    .map(|p| (p.members, p.launches, bits(p), p.d2h_bytes))
                    .collect()
            };
            proptest::prop_assert_eq!(pass_bits(&walked), pass_bits(&billed.concat()));
            proptest::prop_assert_eq!(pass_bits(&walked), pass_bits(&out.passes));
            let ok = out.succeeded();
            proptest::prop_assert_eq!(ok, queries.len() - usize::from(failed < queries.len()));
            let bits = |x: f64| x.to_bits();
            let mut summed = vec![(0.0, 0.0); out.passes.len()];
            for (i, r) in out.per_query.iter().enumerate() {
                let Ok(r) = r else {
                    proptest::prop_assert_eq!(i, failed);
                    continue;
                };
                let mut s = CuBlastp::new(queries[i].clone(), params, config, device, &db);
                s.stream_index = i as u32;
                s.injector = plan();
                let alone = s.search_resident(&db, &dev).expect("the same query alone");
                proptest::prop_assert_eq!(&r.kernels, &alone.kernels);
                proptest::prop_assert_eq!(r.block_timings.len(), out.passes.len());
                for (p, (t, a)) in r.block_timings.iter().zip(&alone.block_timings).enumerate() {
                    proptest::prop_assert!(t.gpu_ms <= a.gpu_ms, "query {} pass {}", i, p);
                    proptest::prop_assert!(t.d2h_ms <= a.d2h_ms, "query {} pass {}", i, p);
                    if ok == 1 {
                        proptest::prop_assert_eq!(bits(t.gpu_ms), bits(a.gpu_ms));
                        proptest::prop_assert_eq!(bits(t.d2h_ms), bits(a.d2h_ms));
                    }
                    summed[p].0 += t.gpu_ms;
                    summed[p].1 += t.d2h_ms;
                }
                for ((_, ms), (_, alone_ms)) in r.kernel_rows().zip(alone.kernel_rows()) {
                    proptest::prop_assert!(ms <= alone_ms);
                }
            }
            for (pass, (gpu_ms, d2h_ms)) in out.passes.iter().zip(summed) {
                proptest::prop_assert_eq!(pass.members, ok);
                proptest::prop_assert!((pass.gpu_ms - gpu_ms).abs() <= 1e-12 * pass.gpu_ms.max(1.0));
                proptest::prop_assert!((pass.d2h_ms - d2h_ms).abs() <= 1e-12 * pass.d2h_ms.max(1.0));
            }
        }
    }

    #[test]
    fn a_launch_no_placement_fits_is_refused_before_the_first_launch() {
        use gpu_sim::{FaultPlan, FaultSpec};
        let (q, db) = workload();
        let params = SearchParams::default();
        let fits = CuBlastpConfig {
            num_bins: 1280,
            db_block_size: 64,
            ..Default::default()
        };
        let device = DeviceConfig::k20c();
        // One block's injector would fire on the first launch: a refusal
        // must come before it, so no fault is ever seen.
        let plan = FaultPlan::none().with(FaultSpec::once(FaultSite::KernelLaunch));
        for (cfg, kernel) in [
            (
                CuBlastpConfig {
                    num_bins: 1281,
                    ..fits
                },
                "hit_detection",
            ),
            (
                CuBlastpConfig {
                    warps_per_block: 65,
                    num_bins: 16,
                    ..fits
                },
                "hit_detection",
            ),
            (
                CuBlastpConfig {
                    gapped_backend: GappedBackend::Gpu,
                    warps_per_block: 40,
                    num_bins: 16,
                    ..fits
                },
                FINE_GAPPED_KERNEL,
            ),
        ] {
            let mut s = CuBlastp::new(q.clone(), params, cfg, device, &db);
            s.injector = Arc::new(FaultInjector::new(plan.clone()));
            let err = s.search(&db).expect_err("refused");
            assert_eq!(err.category(), "config", "{err}");
            assert!(
                err.to_string().contains(&format!("{kernel} cannot launch")),
                "{err}"
            );
            assert_eq!(
                s.injector.injected(),
                0,
                "{kernel}: refused before any launch"
            );
        }
        let ok = CuBlastp::new(q, params, fits, device, &db).search(&db);
        let r = ok.expect("1 280 bins fit");
        assert!(r.kernels.iter().all(|k| k.occupancy > 0.0));
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
    /// to the lowest-index query that succeeded: the H2D legs of that query
    /// searched alone, its makespans stamped again over them, nothing on a
    /// later one, and nothing under grouped seeding or on a resident or
    /// sharded search. (Its kernel and D2H rows are its shares of the
    /// batch's passes, which the lattice states.) The gapped trigger is out
    /// of reach, so no block has a CPU tail and every stage time is on the
    /// device clock: the makespans compare bit for bit.
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
                legs.map(|b| [b.h2d_ms, b.cpu_ms].map(f64::to_bits))
                    .collect::<Vec<_>>(),
                t.h2d_ms.to_bits(),
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
                queries: Input::Sequences(&queries),
                pays: true,
                ..Plan::default()
            };
            execute(&plan).0.grouped.expect("a grouped batch")
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
        let err = execute(&gpu.alone(&[flat(&db, &dev_db)], &[hooks], false))
            .0
            .only()
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
        let err = execute(&gpu.alone(&[flat(&db, &dev_db)], &[hooks], false))
            .0
            .only()
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
        let err = execute(&gpu.alone(&[flat(&db, &dev_db)], &[hooks], false))
            .0
            .only()
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
        let err = execute(&gpu.alone(&[flat(&db, &dev_db)], &[hooks], false))
            .0
            .only()
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
        assert_eq!(threads_named("plan-q7100"), 0);
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

    /// `live()` polled until it reads 0 or a second passes: a scope's end
    /// waits for a thread's closure, not for the kernel to reap the task,
    /// and a helper nobody released would stay parked.
    #[cfg(target_os = "linux")]
    fn settled(live: impl Fn() -> usize) -> usize {
        let t0 = Instant::now();
        while live() > 0 && t0.elapsed() < Duration::from_secs(1) {
            std::thread::yield_now();
        }
        live()
    }

    /// How many threads are named `name`, once settled.
    #[cfg(target_os = "linux")]
    pub(crate) fn threads_named(name: &str) -> usize {
        settled(|| tids_named(name).len())
    }

    /// How many of the threads `tids` are still alive, once settled.
    #[cfg(target_os = "linux")]
    fn threads_alive(tids: &BTreeSet<String>) -> usize {
        let task = |tid: &String| std::path::Path::new("/proc/self/task").join(tid);
        settled(|| tids.iter().filter(|tid| task(tid).exists()).count())
    }

    /// The helpers a rendezvous saw run items: its threads but the caller.
    fn helpers_of(seen: &meet::Rendezvous) -> BTreeSet<String> {
        let caller = meet::own_tid();
        let mut tids = seen.tids();
        tids.retain(|t| Some(t) != caller.as_ref());
        tids
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
                .search_resident(&db, &dev_db)
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
            let helper = format!("plan-q{stream}");
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
            let r = execute(&gpu.alone(&[flat(&db, &dev_db)], &[hooks], false))
                .0
                .only();
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
                let helper = format!("plan-q{stream}");
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
                queries: Input::Sequences(&queries),
                pays: true,
                ..Plan::default()
            };
            let ran = execute(&plan).0;
            let rounds = ran.grouped.map(|g| g.rounds.len());
            assert_eq!(rounds, Some(1), "one round");
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
            ("the batch's start: nothing pending", None, true, 2, true, 1),
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

    /// A grouped round's passes run on the plan's threads — over a flat
    /// database and over three shard views — and nothing observable moves:
    /// reports, device statistics, kernel times and every field of every
    /// round. Passes run on the caller and the plan's helpers, two at once
    /// when the host has two cores, and no helper outlives the plan.
    #[test]
    fn grouped_round_passes_share_the_batch_threads_and_change_nothing() {
        use crate::shard::{DbSource, ShardedDb};
        let (_, db) = workload();
        let queries: Vec<Sequence> = (0..6).map(|k| make_query(56 + 4 * k)).collect();
        let open = |cuts: &[usize]| {
            ShardedDb::from_boundaries(DbSource::Inline(db.clone()), cuts, Some(24))
                .expect("an inline database cuts anywhere")
        };
        let rounds = |e: &BatchOutcome| -> Vec<[u64; 8]> {
            (e.grouped.iter().flat_map(|g| &g.rounds))
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
                    queries: Input::Sequences(&queries),
                    pays: true,
                    ..Plan::default()
                };
                execute(&plan).0
            };
            let one = run(1);
            let one_rounds = &one.grouped.as_ref().expect("a grouped batch").rounds;
            assert_eq!(one_rounds.len(), 1, "{layout}");
            assert!(one_rounds[0].blocks >= 7, "{layout}: a multi-block round");
            let one_results: Vec<&CuBlastpResult> = (one.per_query.iter())
                .map(|r| r.as_ref().expect("fault-free query"))
                .collect();
            for cpu_threads in [1, 2, 8] {
                let case = format!("{layout}, cpu_threads = {cpu_threads}");
                let executed = executed_threads(cpu_threads);
                let round = meet::arm(meet::Kind::Round);
                let _named = meet::name_helpers("plan-t7800");
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
                    let ok = Some(&on) == caller.as_ref() || on == "plan-t7800";
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
                .search_resident(&db, &dev_db)
                .expect("fault-free search");
            #[cfg(target_os = "linux")]
            assert_eq!(threads_named(&format!("plan-q{}", gpu.stream_index)), 0);
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
                .search_resident(&db, &dev_db)
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
                    .search_resident(source, &dev_db)
                    .expect_err("the poisoned subject must fail the search");
                match &err {
                    SearchError::Pipeline(PipelineError::WorkerPanicked { side, .. }) => {
                        assert_eq!(*side, "cpu tail", "{case}")
                    }
                    other => panic!("{case}: expected a typed worker panic, got {other:?}"),
                }
                #[cfg(target_os = "linux")]
                assert_eq!(threads_named(&format!("plan-q{}", gpu.stream_index)), 0);
                // Nothing is left wedged: the same searcher searches again.
                gpu.engine.query = q.clone();
                let clean = gpu.search_resident(&db, &dev_db).expect("clean database");
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
                queries: Input::Sequences(std::slice::from_ref(&q)),
                pays: true,
                ..Plan::default()
            };
            // Its helpers carry the name of every batch's query 0, so they
            // are told apart by the subjects they ran.
            #[cfg(target_os = "linux")]
            let tail = meet::arm(meet::Kind::Tail);
            let run = execute(&plan).0;
            match &run.per_query[0] {
                Err(SearchError::Pipeline(PipelineError::WorkerPanicked { side, .. })) => {
                    assert_eq!(*side, "cpu tail", "cpu_threads = {cpu_threads}")
                }
                Err(other) => panic!("expected a typed worker panic, got {other:?}"),
                Ok(_) => panic!("the poisoned subject must fail the query"),
            }
            #[cfg(target_os = "linux")]
            assert_eq!(
                threads_alive(&helpers_of(&tail)),
                0,
                "cpu_threads = {cpu_threads}"
            );
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
                match gpu.search_resident(&db, &dev_db) {
                    Err(SearchError::Pipeline(PipelineError::WorkerPanicked { side, payload })) => {
                        assert_eq!(side, "gpu side", "{case}");
                        assert!(payload.contains("injected host panic"), "{case}: {payload}");
                    }
                    other => panic!("{case}: expected a typed gpu-side panic, got {other:?}"),
                }
            }
        }
    }

    /// A query alone runs its tails on at most `executed_threads − 1`
    /// helpers beside the caller (a one-thread search: its one overlap
    /// helper), and none is alive once the search returns `Ok`, a typed
    /// error or a deadline.
    #[cfg(target_os = "linux")]
    #[test]
    fn tail_threads_stay_within_budget_and_none_outlive_the_search() {
        let (q, db) = family_workload();
        let params = SearchParams::default();
        let cpu = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db);
        let dev_db = DeviceDb::upload(&db, 24);
        let poisoned = poisoned(&db, cpu.report.hits[0].subject_index);
        for cpu_threads in [1, 2, 8] {
            let executed = executed_threads(cpu_threads);
            let most = executed.max(2) - 1;
            let cfg = family_config(cpu_threads, true);
            let mut gpu = CuBlastp::new(q.clone(), params, cfg, DeviceConfig::k20c(), &db);
            gpu.stream_index = 7_200 + cpu_threads as u32;
            let name = format!("plan-q{}", gpu.stream_index);
            let mut peak = 0;
            let runs = [
                ("ok", &db, CancelToken::never()),
                ("typed error", &poisoned, CancelToken::never()),
                // Polls 2k + 1 trips at block k's launch: block 1's.
                ("deadline", &db, CancelToken::after_checks(3)),
            ];
            for (outcome, source, cancel) in runs {
                let case = format!("cpu_threads = {cpu_threads}, {outcome}");
                let seen = meet::arm(if executed >= 2 {
                    meet::Kind::Tail
                } else {
                    meet::Kind::Overlap
                });
                let hooks = SearchHooks {
                    cancel,
                    on_block: None,
                };
                let got = execute(&gpu.alone(&[flat(source, &dev_db)], &[hooks], false))
                    .0
                    .only();
                let expected = match &got {
                    Ok(_) => "ok",
                    Err(SearchError::Pipeline(PipelineError::WorkerPanicked { .. })) => {
                        "typed error"
                    }
                    Err(SearchError::DeadlineExceeded { .. }) => "deadline",
                    Err(other) => panic!("{case}: {other:?}"),
                };
                assert_eq!(expected, outcome, "{case}");
                let helpers = helpers_of(&seen);
                assert!(helpers.len() <= most, "{case}: {} helpers", helpers.len());
                assert_eq!(
                    threads_alive(&helpers),
                    0,
                    "{case}: a helper outlived the search"
                );
                assert_eq!(
                    threads_named(&name),
                    0,
                    "{case}: a helper outlived the search"
                );
                peak = peak.max(helpers.len());
            }
            assert!(peak >= 1, "cpu_threads = {cpu_threads}: no tail was posted");
        }
    }

    /// A sharded query is one search: one set of helpers over all its
    /// shards, sampled at every block's fold, blocks numbered over the
    /// whole database, and the result of the same database searched as one
    /// shard — at 1, 2 and 8 threads, with and without overlap. A deadline
    /// leaves no helper alive.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_sharded_search_starts_its_helpers_once() {
        use crate::shard::{search_sharded, DbSource, ShardedDb};
        use std::sync::Mutex;
        let (q, db) = family_workload();
        let params = SearchParams::default();
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
        for cpu_threads in [1, 2, 8] {
            for overlap in [false, true] {
                let most = executed_threads(cpu_threads).max(2) - 1;
                let case = format!("cpu_threads = {cpu_threads}, overlap = {overlap}");
                let config = family_config(cpu_threads, overlap);
                let mut gpu = cut.searcher(q.clone(), params, config, DeviceConfig::k20c());
                gpu.stream_index = 7_500 + 10 * cpu_threads as u32 + u32::from(overlap);
                let name = format!("plan-q{}", gpu.stream_index);
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
                let sharded = search_sharded(&gpu, &cut, &hooks).expect("fault-free search");
                assert_eq!(
                    threads_named(&name),
                    0,
                    "{case}: a helper outlived the search"
                );
                let in_order: Vec<(u32, u32)> = (0..num_blocks).map(|b| (b, num_blocks)).collect();
                assert_eq!(order.into_inner().unwrap(), in_order, "{case}");
                // (None is no error: a helper names itself once it runs,
                // which may be after a fold.)
                let started = helpers.into_inner().unwrap().len();
                assert!(started <= most, "{case}: {started} helpers");

                let hooks = SearchHooks::default();
                let one = search_sharded(&gpu, &whole, &hooks).expect("one shard");
                let (r, want) = (&sharded, &one);
                let key = |r: &CuBlastpResult| r.report.identity_key();
                assert_eq!(key(r), key(want), "{case}");
                assert_eq!(r.kernels, want.kernels, "{case}");
                assert_eq!(r.counts, want.counts, "{case}");
                let mut rest = r.block_timings.as_slice();
                let shards: Vec<_> = (views.iter())
                    .map(|v| {
                        let own;
                        (own, rest) =
                            rest.split_at(view_passes(gpu.config.gapped_backend, v).len());
                        crate::pipeline::schedule(own)
                    })
                    .collect();
                assert_eq!(
                    shards[1].overlapped_ms, 0.0,
                    "{case}: the empty shard costs nothing"
                );
                let chain: f64 = shards.iter().map(|s| s.overlapped_ms).sum();
                assert_eq!(chain.to_bits(), r.timing.overlapped_ms.to_bits(), "{case}");

                // Polls 2k + 1 trips at block k's launch (two polls a
                // block): block 2 is the last shard's second.
                let hooks = SearchHooks {
                    cancel: CancelToken::after_checks(5),
                    on_block: None,
                };
                match search_sharded(&gpu, &cut, &hooks).err() {
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
    }

    /// One set of threads per plan. A batch over three shard views — per
    /// query, and grouped with every query its own round — starts at most
    /// `executed_threads − 1` helpers beside the caller (a one-thread
    /// plan: its one overlap helper), once per plan, not per query, shard
    /// or round: every helper that ran a tail subject anywhere in the plan
    /// is one of them. None is alive once the plan returns `Ok` or a typed
    /// error in a query's slot.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_plan_starts_its_helpers_once_and_none_outlive_it() {
        use crate::shard::{DbSource, ShardedDb};
        let (q, db) = family_workload();
        let params = SearchParams::default();
        let cpu = search_sequential(&SearchEngine::new(q.clone(), params, &db), &db);
        // Shards of 24, 0 and 48 sequences.
        let cut = ShardedDb::from_boundaries(DbSource::Inline(db.clone()), &[24, 24], Some(24))
            .expect("an inline database cuts anywhere");
        // The same views with the host copy of the query's best subject
        // poisoned.
        let victim = cpu.report.hits[0].subject_index;
        let hosts: Vec<SequenceDb> = (cut.views().iter())
            .map(
                |v| match victim.checked_sub(v.start).filter(|&l| l < v.db.len()) {
                    Some(local) => poisoned(v.db, local),
                    None => v.db.clone(),
                },
            )
            .collect();
        let queries = vec![q.clone(), make_query(110), q.clone()];
        for cpu_threads in [1, 2, 8] {
            let executed = executed_threads(cpu_threads);
            let most = executed.max(2) - 1;
            let mut peak = 0;
            let kinds = [("per query", None), ("a round per query", Some(1))];
            for (kind, grouped) in kinds {
                for outcome in ["ok", "typed error"] {
                    let case = format!("cpu_threads = {cpu_threads}, {kind}, {outcome}");
                    let mut views = cut.views();
                    if outcome != "ok" {
                        for (v, db) in views.iter_mut().zip(&hosts) {
                            v.db = db;
                        }
                    }
                    let plan = Plan {
                        params,
                        config: family_config(cpu_threads, true),
                        device: DeviceConfig::k20c(),
                        shards: &views,
                        grouped,
                        injector: None,
                        queries: Input::Sequences(&queries),
                        pays: true,
                        ..Plan::default()
                    };
                    let name = format!("plan-t{}", 7_200 + cpu_threads);
                    let _named = meet::name_helpers(&name);
                    let seen = meet::arm(if executed >= 2 {
                        meet::Kind::Tail
                    } else {
                        meet::Kind::Overlap
                    });
                    let ran = execute(&plan).0;
                    let failed: Vec<usize> = ran.failures().map(|(i, _)| i).collect();
                    for (i, e) in ran.failures() {
                        match e {
                            SearchError::Pipeline(PipelineError::WorkerPanicked {
                                side, ..
                            }) => {
                                assert_eq!(*side, "cpu tail", "{case}: query {i}")
                            }
                            other => panic!("{case}: query {i}: {other:?}"),
                        }
                    }
                    match outcome {
                        "ok" => assert!(failed.is_empty(), "{case}: {failed:?}"),
                        _ => assert!(
                            failed.contains(&0) && failed.contains(&2),
                            "{case}: {failed:?}"
                        ),
                    }
                    let helpers = helpers_of(&seen);
                    assert!(helpers.len() <= most, "{case}: {} helpers", helpers.len());
                    assert_eq!(
                        threads_alive(&helpers),
                        0,
                        "{case}: a helper outlived the plan"
                    );
                    assert_eq!(
                        threads_named(&name),
                        0,
                        "{case}: a helper outlived the plan"
                    );
                    peak = peak.max(helpers.len());
                }
            }
            assert!(peak >= 1, "cpu_threads = {cpu_threads}: no tail was posted");
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
        let r = execute(&gpu.alone(&[flat(&db, &dev_db)], &[hooks], false))
            .0
            .only()
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

    /// Each query of a batch is stamped when it entered the board
    /// (`queue_wait_us`) and when its fold completed (`completed_us`), the
    /// second never before the first nor past the batch. On one thread the
    /// board runs one query at a time, so query i + 1 starts no earlier
    /// than query i completes; with waves it starts before — per query and
    /// under grouped seeding. A search alone is no batch query: `search`,
    /// `search_resident` and `search_sharded` leave both stamps at 0.
    #[test]
    fn batch_queries_are_stamped_at_start_and_completion() {
        use crate::shard::{search_sharded, ShardedDb};
        let (q, db) = family_workload();
        let queries = vec![q.clone(), make_query(110), q];
        let dev_db = DeviceDb::upload(&db, 24);
        for cpu_threads in [1, 2] {
            for grouped in [None, Some(DEFAULT_GROUP_BUDGET)] {
                let case = format!("cpu_threads = {cpu_threads}, grouped = {grouped:?}");
                let plan = Plan {
                    params: SearchParams::default(),
                    config: family_config(cpu_threads, true),
                    device: DeviceConfig::k20c(),
                    shards: &[flat(&db, &dev_db)],
                    grouped,
                    injector: None,
                    queries: Input::Sequences(&queries),
                    pays: true,
                    ..Plan::default()
                };
                let ran = execute(&plan).0;
                let stamps: Vec<(u64, u64)> = (ran.per_query.iter())
                    .map(|r| {
                        let r = &r.as_ref().expect("fault-free query").recovery;
                        (r.queue_wait_us, r.completed_us)
                    })
                    .collect();
                for (i, &(start, end)) in stamps.iter().enumerate() {
                    assert!(end >= start, "{case}: query {i}: {start} → {end}");
                    assert!(end as f64 <= ran.wall_ms * 1e3, "{case}: query {i}");
                }
                // One thread: one query at a time. Waves: query i + 1 enters
                // while query i's last tails are pending.
                let waves = executed_threads(cpu_threads) >= 2;
                for (i, pair) in stamps.windows(2).enumerate() {
                    let (done, next) = (pair[0].1, pair[1].0);
                    let at = format!("query {} entered at {next}, {i} done at {done}", i + 1);
                    assert_eq!(next < done, waves, "{case}: {at}");
                }
            }
            let config = family_config(cpu_threads, true);
            let device = DeviceConfig::k20c();
            let solo = CuBlastp::new(
                queries[1].clone(),
                SearchParams::default(),
                config,
                device,
                &db,
            );
            let resident = ShardedDb::resident(db.clone(), Arc::new(DeviceDb::upload(&db, 24)));
            let alone = [
                ("search", solo.search(&db)),
                ("search_resident", solo.search_resident(&db, &dev_db)),
                (
                    "search_sharded",
                    search_sharded(&solo, &resident, &SearchHooks::default()),
                ),
            ];
            for (entry, r) in alone {
                let r = r.expect("fault-free search").recovery;
                let stamps = (r.queue_wait_us, r.completed_us);
                assert_eq!(stamps, (0, 0), "cpu_threads = {cpu_threads}: {entry}");
            }
        }
    }
}
