//! The search executor: the one place queries meet database shards.
//!
//! Every entry point of the crate — a search alone, a batch, a grouped
//! batch, the fleet — is a short *plan* run by [`execute`]: queries,
//! [`ShardView`]s, a seed source, each query's hooks, who pays the upload,
//! and one device or the fleet. A grouped seeding round's members share
//! one seeding pass per database block (one kernel indexed by group, as
//! Chorus does, not a second code path). The executor owns searcher
//! construction, round planning and seeding, panic isolation, and
//! queue-wait, completion and outcome accounting. A plan is one
//! [`run_board`] call: its queries' blocks, every view of each, run as one
//! stream on one set of threads, so one query's last tails run beside the
//! next one's set-up and first hit phases. Once every query has run, the
//! plan's batch units are billed once (`bill_passes`): the batch or each
//! round on one device, each (device × view) group of the placement on the
//! fleet ([`Fleet`]).

use crate::binning::BinnedHits;
use crate::config::{CuBlastpConfig, GappedBackend};
use crate::devicedata::{DeviceDb, DeviceDbBlock, DeviceQuery};
use crate::error::{panic_message, PipelineError, SearchError};
use crate::grouped::{grouped_seeding_kernel, DeviceGroupIndex};
use crate::grouping::plan_rounds;
use crate::scheduler::FleetSchedule;
use crate::search::{
    bill_passes, run_board, BatchOutcome, CuBlastp, Entry, Group, GroupedReport, Passes,
    RoundReport, SearchHooks, Searched, SeedFn, Setup, Threads,
};
use crate::shard::Fleet;
use bio_seq::{DbBlock, Sequence, SequenceDb};
use blast_core::SearchParams;
use gpu_sim::{DeviceConfig, FaultInjector, KernelWorkspace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One database shard as the executor sees it: borrowed host and device
/// views and the global index of its first sequence. A flat database is
/// one view starting at 0 — nothing is copied or re-flattened to make it.
#[derive(Clone, Copy)]
pub(crate) struct ShardView<'a> {
    pub db: &'a SequenceDb,
    pub dev: &'a DeviceDb,
    pub start: usize,
}

/// `view`'s blocks cut into device passes under `backend`: each pass one
/// launch per kernel over its blocks, one D2H leg, one entry of a
/// result's `block_timings` — one block of the Fig. 12 schedule.
/// Launches and legs coalesce up to the next point where the host must
/// read device output. On [`GappedBackend::Cpu`] every block's trigger
/// survivors are such a read — the CPU tail of block n hides behind the
/// kernels of block n + 1 — so a pass is one block; the device backend
/// leaves the host nothing to hide, so a pass is the whole view.
pub(crate) fn view_passes<'v>(
    backend: GappedBackend,
    view: &ShardView<'v>,
) -> std::slice::Chunks<'v, (DbBlock, Arc<DeviceDbBlock>)> {
    let blocks = view.dev.blocks();
    let width = match backend {
        GappedBackend::Cpu => 1,
        GappedBackend::Gpu => blocks.len(),
    };
    blocks.chunks(width.max(1))
}

/// A plan's queries.
#[derive(Clone, Copy)]
pub(crate) enum Input<'a> {
    /// Sequences the plan builds a searcher for, each with its input index
    /// as stream index, the plan's injector and the plan's one workspace.
    Sequences(&'a [Sequence]),
    /// One query that enters with its own searcher — its workspace,
    /// injector and stream index: a search alone.
    Ready(&'a CuBlastp),
}

impl Default for Input<'_> {
    fn default() -> Self {
        Input::Sequences(&[])
    }
}

/// What to execute. Searchers get the *global* totals over `shards`, so
/// cutoffs and E-values match a single-database run at any partition.
#[derive(Default)]
pub(crate) struct Plan<'a> {
    pub params: SearchParams,
    pub config: CuBlastpConfig,
    pub device: DeviceConfig,
    pub shards: &'a [ShardView<'a>],
    pub queries: Input<'a>,
    /// `Some(budget)`: grouped seeding in rounds of at most `budget` index
    /// entries. `None`: each query's own DFA.
    pub grouped: Option<usize>,
    pub injector: Option<Arc<FaultInjector>>,
    /// Query `i`'s hooks; a query past the end runs under the inert
    /// default.
    pub hooks: &'a [SearchHooks<'a>],
    /// Whether the lowest-index query that succeeds pays the upload of
    /// `shards` (DESIGN.md §3.1); a grouped batch reports it with its
    /// rounds instead.
    pub pays: bool,
    /// `Some((devices, tile))`: the fleet — items of `tile` consecutive
    /// queries per view with sequences, placed on `devices` devices
    /// ([`Fleet`]); `None`: one device.
    pub fleet: Option<(usize, usize)>,
}

/// Run `f`, turning a panic into a typed pipeline error naming `side`, so
/// a poisoned query fails alone instead of taking the batch down.
pub(crate) fn isolated<T>(
    side: &'static str,
    f: impl FnOnce() -> Result<T, SearchError>,
) -> Result<T, SearchError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(SearchError::Pipeline(PipelineError::WorkerPanicked {
            side,
            payload: panic_message(payload.as_ref()),
        }))
    })
}

/// One grouped seeding pass as the thread that ran it hands it back: the
/// block's index within its view, each member's bins for the block, and
/// the pass's modelled time.
pub(crate) struct Pass {
    block: u32,
    bins: Vec<BinnedHits>,
    sim_ms: f64,
}

/// One grouped seeding round: build the members' shared word index on the
/// caller, then probe it over every resident block once — one pass per
/// block (`pass`), each claimed by one of the plan's threads and demuxed
/// there into per-member hit arenas. The caller folds the `blocks` passes
/// in block order, so the round's telemetry and each member's bins, one
/// per block in view order, do not depend on which thread ran what.
fn seed_round<'a>(
    members: &[(usize, &CuBlastp)],
    blocks: usize,
    pass: SeedFn<'a>,
    mut threads: Threads<'_, '_, '_, 'a>,
) -> (RoundReport, Vec<Vec<BinnedHits>>) {
    let first_query = members.first().map_or(0, |&(i, _)| i);
    let member_queries: Vec<&DeviceQuery> = members.iter().map(|(_, s)| &s.query_device).collect();
    let group = {
        let _span = obs::span("group_index_build", "grouped").with_query(first_query as u32);
        DeviceGroupIndex::upload(&member_queries)
    };
    let index = group.index();
    obs::gauge("group_index_occupancy", &[], index.occupancy());
    obs::gauge("group_index_entries", &[], index.entries() as f64);
    obs::gauge("group_members", &[], members.len() as f64);
    let mut round = RoundReport {
        first_query,
        members: members.len(),
        index_entries: index.entries(),
        index_capacity: index.capacity(),
        occupancy: index.occupancy(),
        index_upload_bytes: group.upload_bytes(),
        seeding_ms: 0.0,
        blocks,
    };

    let mut bins: Vec<Vec<BinnedHits>> = members.iter().map(|_| Vec::new()).collect();
    for pass in threads.seed(pass, group, blocks) {
        obs::modelled(
            "gpu (modelled)",
            "grouped_seeding",
            pass.sim_ms,
            Some(pass.block),
            None,
            &[],
        );
        round.seeding_ms += pass.sim_ms;
        for (member, b) in bins.iter_mut().zip(pass.bins) {
            member.push(b);
        }
    }
    (round, bins)
}

/// Execute a plan — the one route from every entry point to the board
/// and the biller: search every query over every shard view ([`run`]),
/// then bill the plan's batch units once ([`bill_passes`]): on one device
/// the batch (a search alone is a batch of one) or each grouped round, on
/// the fleet each (device × view) group of the placement, whose items the
/// returned [`Fleet`] holds with the placement billed.
pub(crate) fn execute(plan: &Plan<'_>) -> (BatchOutcome, Option<(Fleet, FleetSchedule)>) {
    let t0 = Instant::now();
    let (mut batch, passes, groups) = run(plan);
    let backend = plan.config.gapped_backend;
    let results = &mut batch.per_query;
    let mut bill = |passes: &[Option<Passes>], groups: &[Group]| {
        bill_passes(&plan.device, plan.shards, backend, results, passes, groups)
    };
    let (billed, fleet) = match plan.fleet {
        None => (bill(&passes, &groups), None),
        Some((devices, tile)) => {
            let fleet = Fleet::new(plan.device, plan.shards, passes, tile);
            let (schedule, billed) = fleet.placed(devices, |groups| bill(&fleet.passes, groups));
            (billed, Some((fleet, schedule)))
        }
    };
    batch.passes = billed.into_iter().flatten().collect();
    batch.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (batch, fleet)
}

/// Search every query of a plan over every shard view on one board
/// ([`run_board`], its helpers named `plan`, or `plan-q{stream index}` for
/// a search alone), each under its own hooks. A per-query plan sets each
/// query up on the first thread that runs one of its blocks, so at most
/// two searchers are alive at a time; a grouped plan sets every query up
/// first (round packing needs each neighbourhood's size) and seeds each
/// round on the board's threads as its first member enters. A batch's
/// queries are stamped with their queue wait and completion; a search
/// alone keeps both at 0. Returns the outcome before its bill (no passes,
/// no wall-clock), each query's unpriced device passes (`None` for a
/// failed query), and the units on one device: the batch or each round,
/// its successful queries, the first paying when the plan `pays`.
pub(crate) fn run(plan: &Plan<'_>) -> (BatchOutcome, Vec<Option<Passes>>, Vec<Group>) {
    let t0 = Instant::now();
    let db_residues: usize = plan.shards.iter().map(|v| v.db.total_residues()).sum();
    let db_sequences: usize = plan.shards.iter().map(|v| v.db.len()).sum();
    let (queries, count, name, workspace, armed) = match plan.queries {
        Input::Ready(s) => {
            let name = format!("plan-q{}", s.stream_index);
            let armed = !s.injector.is_disarmed();
            (&[][..], 1, name, Arc::clone(&s.workspace), armed)
        }
        Input::Sequences(queries) => {
            let name = "plan".to_string();
            #[cfg(test)]
            let name = crate::search::meet::helper_name().unwrap_or(name);
            let armed = (plan.injector.as_ref()).is_some_and(|inj| !inj.is_disarmed());
            // One scratch pool for the stream: early queries warm it for
            // the rest.
            let workspace = Arc::new(KernelWorkspace::new());
            (queries, queries.len(), name, workspace, armed)
        }
    };
    let batch = matches!(plan.queries, Input::Sequences(_));

    let build = |i: usize| {
        isolated("batch query setup", || {
            let mut s = CuBlastp::with_db_stats(
                queries[i].clone(),
                plan.params,
                plan.config,
                plan.device,
                db_residues,
                db_sequences,
            );
            s.workspace = Arc::clone(&workspace);
            if let Some(inj) = &plan.injector {
                s.injector = Arc::clone(inj);
            }
            s.stream_index = i as u32;
            Ok(s)
        })
    };
    let inert = SearchHooks::default();
    let hooks = |i: usize| plan.hooks.get(i).unwrap_or(&inert);
    let mut slots: Vec<Option<Result<Searched, SearchError>>> = (0..count).map(|_| None).collect();
    // A batch query's queue wait (batch start to its entry, reported
    // apart from compute) and completion (to the end of its fold),
    // stamped on its result.
    let mut stamp = |i: usize, entered: Instant, mut r: Result<Searched, SearchError>| {
        if batch {
            if let Ok(s) = &mut r {
                let recovery = &mut s.result.recovery;
                recovery.queue_wait_us = entered.duration_since(t0).as_micros() as u64;
                recovery.completed_us = t0.elapsed().as_micros() as u64;
                let wait_ms = recovery.queue_wait_us as f64 / 1e3;
                obs::observe("batch_queue_wait_ms", &[], wait_ms);
            }
            let outcome = if r.is_ok() { "ok" } else { "err" };
            obs::counter("batch_queries_total", &[("outcome", outcome)], 1);
        }
        slots[i] = Some(r);
    };

    // Round packing needs every query's neighbourhood size, so a grouped
    // plan sets all up first; a failed one keeps its error, and so does one
    // whose launches do not fit: it joins no round.
    let build = &build;
    let checked = |i| build(i).and_then(|s| s.check_launches(true).map(|()| s));
    let built: Vec<Result<CuBlastp, SearchError>> = match plan.grouped {
        Some(_) => (0..queries.len()).map(checked).collect(),
        None => Vec::new(),
    };
    let ready: Vec<(usize, &CuBlastp)> = (built.iter().enumerate())
        .filter_map(|(i, s)| s.as_ref().ok().map(|s| (i, s)))
        .collect();
    let packing = plan.grouped.map_or_else(Vec::new, |budget| {
        let entries: Vec<usize> = (ready.iter())
            .map(|(_, s)| s.query_device.dfa.neighborhood().total_entries())
            .collect();
        let packing = plan_rounds(&entries, budget);
        obs::counter("grouped_rounds_total", &[], packing.len() as u64);
        packing
    });
    // Every resident block of every view, and its index within its view:
    // what one pass of a round covers.
    let blocks: Vec<(u32, &DeviceDbBlock)> = (plan.shards.iter())
        .flat_map(|v| {
            (0u32..)
                .zip(v.dev.blocks())
                .map(|(idx, (_, dev))| (idx, &**dev))
        })
        .collect();
    // A round's passes share one read-only index and nothing else, so they
    // run on the plan's threads, one block each.
    let caller = std::thread::current().id();
    #[cfg(test)]
    let rendezvous = crate::search::meet::armed();
    let pass = |group: &DeviceGroupIndex, i: usize| {
        let (idx, block) = blocks[i];
        #[cfg(test)]
        if let Some(m) = &rendezvous {
            let threads = blast_cpu::par::executed_threads(plan.config.cpu_threads);
            let pair = blast_cpu::par::shares(threads, blocks.len());
            m.arrive(crate::search::meet::Kind::Round, pair);
        }
        let on_caller = std::thread::current().id() == caller;
        let thread = if on_caller { "caller" } else { "helper" };
        obs::counter("grouped_passes_total", &[("thread", thread)], 1);
        let mut span = obs::span("grouped_seeding", "kernel")
            .with_block(idx)
            .with_arg("on_caller", f64::from(u8::from(on_caller)));
        let (bins, stats) =
            grouped_seeding_kernel(&plan.device, &plan.config, group, block, &workspace);
        let sim_ms = stats.time_ms(&plan.device);
        span.set_arg("sim_ms", sim_ms);
        Pass {
            block: idx,
            bins,
            sim_ms,
        }
    };
    // The board's queries: every query of a per-query plan, the set-up
    // ones of a grouped plan in input order, a round's members
    // consecutive; each round is seeded as its first member enters.
    let on_board = if plan.grouped.is_some() {
        ready.len()
    } else {
        count
    };
    let index = |k: usize| ready.get(k).map_or(k, |&(i, _)| i);
    let mut rounds = Vec::new();
    // The queries that share device passes: the batch, or each round.
    let mut units: Vec<Vec<usize>> = match plan.grouped {
        Some(_) => Vec::new(),
        None => vec![(0..count).collect()],
    };
    let mut seeds: Vec<Option<Vec<BinnedHits>>> = (0..on_board).map(|_| None).collect();
    let mut packing = packing.into_iter().peekable();
    run_board(
        &name,
        plan.shards,
        &plan.config,
        armed,
        on_board,
        |k, threads| {
            if let Some(range) = packing.next_if(|r| r.start == k) {
                let members = &ready[range.clone()];
                let (round, bins) = seed_round(members, blocks.len(), &pass, threads);
                rounds.push(round);
                units.push(members.iter().map(|&(i, _)| i).collect());
                for (slot, b) in seeds[range].iter_mut().zip(bins) {
                    *slot = Some(b);
                }
            }
            let setup = match (ready.get(k), plan.queries) {
                (Some(&(_, s)), _) | (None, Input::Ready(s)) => Setup::Ready(s),
                (None, Input::Sequences(_)) => Setup::Lazy(k as u32, Box::new(move || build(k))),
            };
            Entry {
                setup,
                seeds: seeds[k].take(),
                hooks: hooks(index(k)),
            }
        },
        |k, entered, r| stamp(index(k), entered, r),
    );
    // Back into input order: a query that failed set-up keeps its error,
    // and one no round covered says so.
    let searched = slots.into_iter().enumerate().map(|(i, slot)| match slot {
        Some(r) => r,
        None => Err(match built.get(i) {
            Some(Err(e)) => e.clone(),
            _ => SearchError::config("round packing skipped a query"),
        }),
    });
    // Every query has run: its passes wait for the plan's bill.
    let (per_query, passes): (_, Vec<_>) = searched
        .map(|r| match r {
            Ok(Searched { result, passes }) => (Ok(result), Some(passes)),
            Err(e) => (Err(e), None),
        })
        .unzip();
    let pays = plan.pays && plan.grouped.is_none();
    let groups = (units.into_iter())
        .filter_map(|unit| {
            // A failed query's timing is discarded, so it must not take
            // the upload with it.
            let members: Vec<usize> = (unit.into_iter())
                .filter(|&i| passes[i].is_some())
                .collect();
            let payer = members.first().copied().filter(|_| pays);
            let views = 0..plan.shards.len();
            (!members.is_empty()).then_some(Group {
                views,
                members,
                payer,
                device: None,
            })
        })
        .collect();
    let device = &plan.device;
    let grouped = plan.grouped.map(|_| GroupedReport {
        index_upload_ms: (rounds.iter())
            .map(|r| device.transfer_ms(r.index_upload_bytes))
            .sum(),
        db_upload_ms: (plan.shards.iter())
            .flat_map(|v| v.dev.blocks())
            .map(|(_, b)| device.transfer_ms(b.upload_bytes()))
            .sum(),
        rounds,
    });
    let batch = BatchOutcome {
        per_query,
        wall_ms: 0.0,
        grouped,
        passes: Vec::new(),
        pooled_bytes: workspace.pooled_bytes(),
    };
    (batch, passes, groups)
}
