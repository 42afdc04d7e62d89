//! The search executor: the one place queries meet database shards.
//!
//! Every batch-shaped entry point of the crate is a short *plan* over
//! [`execute`]: queries, [`ShardView`]s, and a seed source. Work items are
//! (query-group × shard) pairs — a flat database is one borrowed view, a
//! per-query search a group of one, a grouped seeding round a group whose
//! members share one seeding pass per database block (one kernel indexed
//! by group, as Chorus does, not a second code path). The executor owns
//! searcher construction, round planning and seeding, panic isolation,
//! and queue-wait and outcome accounting; each query is one
//! [`CuBlastp::run_blocks`] call over every view. A plan adds only its
//! model of the batch's time (the flat pipeline timeline, or the fleet
//! schedule).

use crate::binning::BinnedHits;
use crate::config::CuBlastpConfig;
use crate::devicedata::{DeviceDb, DeviceQuery};
use crate::error::{panic_message, PipelineError, SearchError};
use crate::grouped::{grouped_seeding_kernel, DeviceGroupIndex};
use crate::grouping::plan_rounds;
use crate::search::{CuBlastp, CuBlastpResult, RoundReport, SearchHooks};
use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use gpu_sim::{DeviceConfig, FaultInjector, KernelWorkspace};
use std::cell::Cell;
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

/// What to execute. Searchers get the *global* totals over `shards`, so
/// cutoffs and E-values match a single-database run at any partition.
pub(crate) struct Plan<'a> {
    pub params: SearchParams,
    pub config: CuBlastpConfig,
    pub device: DeviceConfig,
    pub shards: &'a [ShardView<'a>],
    /// `Some(budget)`: grouped seeding in rounds of at most `budget` index
    /// entries. `None`: each query's own DFA.
    pub grouped: Option<usize>,
    pub injector: Option<Arc<FaultInjector>>,
    /// Bill the database upload to the block timings of the first query
    /// whose search succeeds (flat per-query batch); the fleet schedule
    /// bills uploads itself, and a grouped batch's caller bills it beside
    /// the seeding rounds.
    pub charge_h2d: bool,
}

/// What [`execute`] did.
pub(crate) struct Executed {
    /// Input order; a failed (or panicked) query is an `Err` in its slot.
    pub per_query: Vec<Result<Searched, SearchError>>,
    /// Grouped seeding rounds in batch order.
    pub rounds: Vec<RoundReport>,
    /// Measured host wall-clock of the whole execution.
    pub wall_ms: f64,
}

/// One query searched over every shard view and merged.
pub(crate) struct Searched {
    /// Shaped like a single-database result; `overlapped_ms` is the
    /// query's serial chain over its shards.
    pub result: CuBlastpResult,
    /// Modelled cost of the (query × shard) item per view: the shard's
    /// overlapped pipeline makespan (no upload, no setup); zero for an
    /// empty shard.
    pub shard_ms: Vec<f64>,
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

/// One grouped seeding round: build the members' shared word index and
/// probe it over every resident block once, demuxing each pass into
/// per-member hit arenas. Returns the round's telemetry and each member's
/// bins, one per block in view order.
fn seed_round(
    plan: &Plan<'_>,
    members: &[(usize, &CuBlastp)],
    workspace: &KernelWorkspace,
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

    let mut bins: Vec<Vec<BinnedHits>> = members.iter().map(|_| Vec::new()).collect();
    let mut blocks = 0usize;
    let mut seeding_ms = 0.0f64;
    for view in plan.shards {
        for (idx, (_, dev_block)) in view.dev.blocks().iter().enumerate() {
            let mut k_span = obs::span("grouped_seeding", "kernel").with_block(idx as u32);
            let (block_bins, stats) =
                grouped_seeding_kernel(&plan.device, &plan.config, &group, dev_block, workspace);
            let sim_ms = stats.time_ms(&plan.device);
            k_span.set_arg("sim_ms", sim_ms);
            drop(k_span);
            obs::modelled(
                "gpu (modelled)",
                "grouped_seeding",
                sim_ms,
                Some(idx as u32),
                None,
            );
            seeding_ms += sim_ms;
            for (member, b) in bins.iter_mut().zip(block_bins) {
                member.push(b);
            }
            blocks += 1;
        }
    }
    let round = RoundReport {
        first_query,
        members: members.len(),
        index_entries: index.entries(),
        index_capacity: index.capacity(),
        occupancy: index.occupancy(),
        index_upload_bytes: group.upload_bytes(),
        seeding_ms,
        blocks,
    };
    (round, bins)
}

/// A query about to run: batch index and, under grouped seeding, its
/// already-built searcher and its round bins.
type Member<'m> = (usize, Option<&'m CuBlastp>, Option<Vec<BinnedHits>>);

/// Execute a plan: search every query over every shard view.
pub(crate) fn execute(plan: &Plan<'_>, queries: &[Sequence]) -> Executed {
    let t0 = Instant::now();
    let db_residues: usize = plan.shards.iter().map(|v| v.db.total_residues()).sum();
    let db_sequences: usize = plan.shards.iter().map(|v| v.db.len()).sum();
    // One scratch pool for the stream: early queries warm it for the rest.
    let workspace = Arc::new(KernelWorkspace::new());

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

    // The resident database is paid for once, by the first query whose
    // search succeeds: a query that errors or panics has its timing
    // discarded, so it must not take the charge with it.
    let upload_unpaid = Cell::new(plan.charge_h2d);
    let run_member = |(i, built, seeds): Member<'_>| {
        // Batch start to this query's own start: queue wait, reported
        // apart from compute.
        let queue_wait_us = t0.elapsed().as_micros() as u64;
        let mut result = isolated("batch query", || {
            let _span = obs::span("batch_query", "batch").with_query(i as u32);
            // A per-query search sets up when its turn comes: setup is
            // its own time, and one searcher is alive at a time.
            let own;
            let searcher = match built {
                Some(s) => s,
                None => {
                    own = build(i)?;
                    &own
                }
            };
            let charge_h2d = upload_unpaid.get() && seeds.is_none();
            let hooks = SearchHooks::default();
            let searched = searcher.run_blocks(plan.shards, charge_h2d, seeds, &hooks)?;
            if charge_h2d {
                upload_unpaid.set(false);
            }
            Ok(searched)
        });
        if let Ok(s) = &mut result {
            s.result.recovery.queue_wait_us = queue_wait_us;
            obs::observe("batch_queue_wait_ms", &[], queue_wait_us as f64 / 1e3);
        }
        let outcome = if result.is_ok() { "ok" } else { "err" };
        obs::counter("batch_queries_total", &[("outcome", outcome)], 1);
        result
    };

    let mut rounds = Vec::new();
    let per_query = match plan.grouped {
        None => (0..queries.len())
            .map(|i| run_member((i, None, None)))
            .collect(),
        Some(budget) => {
            // Round packing needs every query's neighbourhood size, so
            // all are set up first; a failed one keeps its error.
            let built: Vec<Result<CuBlastp, SearchError>> = (0..queries.len()).map(build).collect();
            let ready: Vec<(usize, &CuBlastp)> = built
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.as_ref().ok().map(|s| (i, s)))
                .collect();
            let entries: Vec<usize> = ready
                .iter()
                .map(|(_, s)| s.query_device.dfa.neighborhood().total_entries())
                .collect();
            let packing = plan_rounds(&entries, budget);
            obs::counter("grouped_rounds_total", &[], packing.len() as u64);
            let mut ran = Vec::with_capacity(ready.len());
            for range in packing {
                let members = &ready[range];
                let (round, bins) = seed_round(plan, members, &workspace);
                rounds.push(round);
                let members = members.iter().zip(bins);
                ran.extend(members.map(|(&(i, s), b)| run_member((i, Some(s), Some(b)))));
            }
            // Back into input order: rounds cover the set-up queries once.
            let mut ran = ran.into_iter();
            let unpacked = || Err(SearchError::config("round packing skipped a query"));
            built
                .iter()
                .map(|b| match b {
                    Ok(_) => ran.next().unwrap_or_else(unpacked),
                    Err(e) => Err(e.clone()),
                })
                .collect()
        }
    };
    Executed {
        per_query,
        rounds,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}
