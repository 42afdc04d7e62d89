//! Serving-layer integration tests (DESIGN.md §3.8). Two invariants the
//! admission-controlled front-end stands on:
//!
//! 1. **Cancellation is all-or-nothing.** A cancel point between any two
//!    pipeline checkpoints yields either the bit-identical complete
//!    result or a typed `DeadlineExceeded` with honest progress telemetry
//!    — never a truncated report presented as success.
//! 2. **Overload sheds, it never loses.** Under a saturating burst the
//!    server refuses with typed `Overloaded` errors, keeps the admitted
//!    set bounded by its configured budgets, and every admitted request
//!    terminates with exactly one `Done` event.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bio_seq::generate::{generate_db, make_query, DbPreset, DbSpec};
use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use cublastp::{
    search_sharded, CancelToken, CuBlastp, CuBlastpConfig, DeviceDb, SearchError, SearchHooks,
    ShardedDb, ShardedOptions,
};
use cublastp_serve::{Event, Request, ResponseHandle, ServeConfig, Server};
use gpu_sim::DeviceConfig;
use proptest::prelude::*;

/// Enough blocks that a cancel point can land before, between, and after
/// real work; small enough that the proptest sweep stays fast.
const NUM_BLOCKS: u32 = 3;
const BLOCK_SIZE: usize = 15;
/// The sharded handle splits the same database into three shards of
/// three blocks each, so a shard-local block count (3) and the global one
/// (9) cannot be confused.
const SHARDED_BLOCK_SIZE: usize = 5;
const SHARDED_NUM_BLOCKS: u32 = 9;

fn serve_config() -> CuBlastpConfig {
    CuBlastpConfig {
        db_block_size: BLOCK_SIZE,
        grid_blocks: 2,
        warps_per_block: 2,
        ..CuBlastpConfig::default()
    }
}

type IdentityKey = Vec<(usize, i32, u32, u32, u32, u32)>;

/// Shared workload + fault-free reference, built once: the proptest runs
/// many cases and the reference search is the expensive part.
struct Fixture {
    query: Sequence,
    db: SequenceDb,
    /// The database as one resident shard, and as three.
    flat: ShardedDb,
    sharded: ShardedDb,
    reference: IdentityKey,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let query = make_query(120);
        let spec = DbSpec {
            num_sequences: NUM_BLOCKS as usize * BLOCK_SIZE,
            ..DbPreset::SwissprotMini.spec()
        };
        let db = generate_db(&spec, &query).db;
        let dev_db = Arc::new(DeviceDb::upload(&db, BLOCK_SIZE));
        let searcher = CuBlastp::new(
            query.clone(),
            SearchParams::default(),
            serve_config(),
            DeviceConfig::k20c(),
            &db,
        );
        let reference = searcher
            .search_resident(&db, &dev_db, true)
            .expect("fault-free reference")
            .report
            .identity_key();
        let sharded = ShardedDb::split(&db, 3, SHARDED_BLOCK_SIZE);
        assert_eq!(sharded.num_blocks(), SHARDED_NUM_BLOCKS as usize);
        Fixture {
            query,
            flat: ShardedDb::resident(db.clone(), dev_db),
            sharded,
            db,
            reference,
        }
    })
}

/// Run one search over `resident` with a deterministic cancel point after
/// `n` checkpoint polls and assert the all-or-nothing contract. Returns
/// `None` when the search ran to completion, else the `blocks_completed`
/// of its deadline error.
fn cancel_at(n: u64, resident: &ShardedDb, overlap: bool) -> Result<Option<u32>, TestCaseError> {
    let fx = fixture();
    let config = CuBlastpConfig {
        db_block_size: resident.block_size(),
        overlap,
        ..serve_config()
    };
    let searcher = resident.searcher(
        fx.query.clone(),
        SearchParams::default(),
        config,
        DeviceConfig::k20c(),
    );
    let hooks = SearchHooks {
        cancel: CancelToken::after_checks(n),
        on_block: None,
    };
    match search_sharded(
        &searcher,
        resident,
        &ShardedOptions::default(),
        true,
        &hooks,
    ) {
        Ok(r) => {
            // Complete means *complete*: bit-identical to the reference.
            prop_assert_eq!(
                r.result.report.identity_key(),
                fx.reference.clone(),
                "cancel at {}",
                n
            );
            Ok(None)
        }
        Err(SearchError::DeadlineExceeded {
            blocks_completed,
            blocks_total,
            ..
        }) => {
            // Telemetry counts database blocks over every shard.
            prop_assert_eq!(
                blocks_total as usize,
                resident.num_blocks(),
                "cancel at {}",
                n
            );
            prop_assert!(
                blocks_completed < blocks_total,
                "cancel at {}: a search that finished every block must not report a deadline",
                n
            );
            Ok(Some(blocks_completed))
        }
        Err(e) => Err(TestCaseError::fail(format!(
            "cancel at {n}: expected Ok or DeadlineExceeded, got {} ({e})",
            e.category()
        ))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random cancel points over the one-shard and the three-shard handle:
    /// every outcome is either the bit-identical complete result or a
    /// typed deadline error — never partial-but-OK.
    #[test]
    fn cancellation_is_all_or_nothing(n in 0u64..24, sharded in any::<bool>()) {
        let fx = fixture();
        cancel_at(n, if sharded { &fx.sharded } else { &fx.flat }, true)?;
    }
}

/// The deterministic endpoints of the sweep, pinned: the first poll always
/// cancels, and a poll budget beyond every checkpoint always completes.
/// Together with the proptest this proves both arms are reachable.
#[test]
fn cancel_point_endpoints_are_deterministic() {
    let fx = fixture();
    assert!(
        cancel_at(1, &fx.flat, true).expect("first poll").is_some(),
        "a token tripped on the first poll must cancel the search"
    );
    // One counting poll per pipeline side per block, plus retry polls
    // (zero here, fault-free): 2 * NUM_BLOCKS is the exact budget, so
    // anything past it completes.
    assert!(
        cancel_at(2 * u64::from(NUM_BLOCKS) + 1, &fx.flat, true)
            .expect("past the last poll")
            .is_none(),
        "a token past every checkpoint must not cancel"
    );
    assert_eq!(
        SearchError::DeadlineExceeded {
            elapsed_ms: 0,
            blocks_completed: 0,
            blocks_total: NUM_BLOCKS
        }
        .category(),
        "deadline"
    );
}

/// Deadline telemetry is in global blocks at any shard count: sweeping
/// the cancel point over a serial three-shard search (polls land in block
/// order: GPU side, then CPU side, of each block), `blocks_total` is
/// always Σ blocks and `blocks_completed` climbs from the first block of
/// the first shard to the last block of the last.
#[test]
fn sharded_deadline_telemetry_counts_global_blocks() {
    let fx = fixture();
    let polls = 2 * u64::from(SHARDED_NUM_BLOCKS);
    let completed: Vec<u32> = (1..=polls)
        .map(|n| {
            cancel_at(n, &fx.sharded, false)
                .expect("all-or-nothing")
                .expect("a poll inside the search cancels it")
        })
        .collect();
    assert!(completed.windows(2).all(|w| w[0] <= w[1]), "{completed:?}");
    assert_eq!(completed.first(), Some(&0));
    assert_eq!(completed.last(), Some(&(SHARDED_NUM_BLOCKS - 1)));
    assert!(cancel_at(polls + 1, &fx.sharded, false)
        .expect("past the last poll")
        .is_none());
}

/// Cancellation composed with the serving layer: a deadline that expires
/// in the queue surfaces as a typed error event, not a lost request — in
/// the same global block unit as a mid-search expiry, at any shard count.
#[test]
fn server_deadline_is_a_typed_event() {
    let fx = fixture();
    for (shards, block_size, num_blocks) in [
        (1, BLOCK_SIZE, NUM_BLOCKS),
        (3, SHARDED_BLOCK_SIZE, SHARDED_NUM_BLOCKS),
    ] {
        let server = Server::new(
            fx.db.clone(),
            SearchParams::default(),
            CuBlastpConfig {
                db_block_size: block_size,
                ..serve_config()
            },
            DeviceConfig::k20c(),
            ServeConfig {
                workers: 1,
                reserved_interactive_workers: 0,
                shards,
                ..ServeConfig::default()
            },
        )
        .expect("server");
        assert_eq!(server.num_blocks(), num_blocks);
        let handle = server
            .submit(
                Request::interactive(fx.query.clone(), "t-deadline")
                    .with_deadline(Duration::from_millis(0)),
            )
            .expect("admitted");
        match handle.wait() {
            Err(SearchError::DeadlineExceeded {
                blocks_completed,
                blocks_total,
                ..
            }) => {
                assert_eq!(blocks_total, num_blocks, "{shards} shards");
                assert!(blocks_completed < blocks_total);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
}

/// Drive one burst of `n` back-to-back submissions against `server`,
/// drain every admitted handle to its terminal event, and return
/// `(admitted, shed)`. Panics on any untyped failure or silent loss.
fn run_burst(server: &Server, fx: &Fixture, n: usize) -> (usize, usize) {
    let mut pending: VecDeque<ResponseHandle> = VecDeque::new();
    let mut shed = 0usize;
    for i in 0..n {
        let req = Request::bulk(fx.query.clone(), format!("tenant-{}", i % 4));
        match server.submit(req) {
            Ok(h) => pending.push_back(h),
            Err(SearchError::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms > 0, "backoff hint must be actionable");
                shed += 1;
            }
            Err(e) => panic!("burst submit {i}: unexpected {} error: {e}", e.category()),
        }
    }
    let admitted = pending.len();
    // Zero silent loss: every admitted handle reaches exactly one Done.
    while let Some(h) = pending.pop_front() {
        let mut done = 0usize;
        let mut block_events = 0usize;
        while let Some(ev) = h.next_event() {
            match ev {
                Event::Block { .. } => block_events += 1,
                Event::Done(result) => {
                    done += 1;
                    match *result {
                        Ok(ref r) => assert_eq!(r.result.report.identity_key(), fx.reference),
                        Err(ref e) => panic!("admitted request failed: {} ({e})", e.category()),
                    }
                }
            }
        }
        assert_eq!(done, 1, "exactly one terminal event per admitted request");
        assert!(
            block_events <= NUM_BLOCKS as usize,
            "at most one streamed event per block"
        );
    }
    (admitted, shed)
}

/// Saturating burst ramp: shedding is typed, monotone in offered load,
/// and the admitted set stays inside the configured queue budget — the
/// "bounded memory" half of the overload contract.
#[test]
fn overload_sheds_monotonically_and_loses_nothing() {
    const QUEUE_CAPACITY: usize = 4;
    let fx = fixture();
    let server = Server::new(
        fx.db.clone(),
        SearchParams::default(),
        serve_config(),
        DeviceConfig::k20c(),
        ServeConfig {
            workers: 1,
            reserved_interactive_workers: 0,
            queue_capacity: QUEUE_CAPACITY,
            ..ServeConfig::default()
        },
    )
    .expect("server");

    let mut shed_fracs = Vec::new();
    for burst in [2usize, 8, 16, 32] {
        let (admitted, shed) = run_burst(&server, fx, burst);
        assert_eq!(
            admitted + shed,
            burst,
            "every submission got a typed answer"
        );
        // A back-to-back burst can admit at most the queue budget plus
        // what the lone worker drains mid-burst: submission is
        // microseconds, a search is milliseconds, so a generous multiple
        // of the budget still proves admission is bounded (an
        // uncontrolled server would admit all 32).
        assert!(
            admitted <= 3 * QUEUE_CAPACITY,
            "burst {burst}: admitted {admitted} requests past the queue budget"
        );
        shed_fracs.push(shed as f64 / burst as f64);
    }
    for pair in shed_fracs.windows(2) {
        assert!(
            pair[1] + 0.05 >= pair[0],
            "shed rate must grow with offered load: {shed_fracs:?}"
        );
    }
    let last = shed_fracs.last().copied().unwrap_or_default();
    assert!(last > 0.0, "an 8x-capacity burst must shed: {shed_fracs:?}");
    // The controller recovers once the burst drains: a lone follow-up
    // request is admitted and completes.
    let (admitted, shed) = run_burst(&server, fx, 1);
    assert_eq!((admitted, shed), (1, 0), "post-burst request refused");
}

/// The serve path under permanently faulted gapped device phases
/// (`gapped-launch` / `gapped-d2h`): every request completes by degrading
/// that block's gapped placement to the CPU tail — bit-identical output —
/// and the admission controller keeps admitting follow-up requests (a
/// degraded device is slower, not overloaded; see DESIGN.md §3.8).
#[test]
fn serve_path_degrades_gapped_faults_without_tripping_admission() {
    use cublastp::{CuBlastpResult, GappedBackend};
    use cublastp_serve::DegradationLevel;
    use gpu_sim::{FaultInjector, FaultPlan, FaultSite, FaultSpec};

    let fx = fixture();
    let gapped_config = CuBlastpConfig {
        gapped_backend: GappedBackend::Gpu,
        ..serve_config()
    };
    let serve_cfg = ServeConfig {
        workers: 1,
        reserved_interactive_workers: 0,
        ..ServeConfig::default()
    };
    let serve_once = |injector: Option<Arc<FaultInjector>>| -> CuBlastpResult {
        let server = Server::with_injector(
            fx.db.clone(),
            SearchParams::default(),
            gapped_config,
            DeviceConfig::k20c(),
            serve_cfg,
            injector,
        )
        .expect("server");
        let first = server
            .submit(Request::interactive(fx.query.clone(), "t-fault"))
            .expect("first request admitted")
            .wait()
            .expect("first request completed");
        // The controller must not read a permanently-degraded device as
        // load: the ladder stays put and the next request is admitted.
        assert_eq!(server.level(), DegradationLevel::Normal);
        let second = server
            .submit(Request::bulk(fx.query.clone(), "t-fault"))
            .expect("admission tripped by a degraded block")
            .wait()
            .expect("second request completed");
        assert_eq!(
            first.result.report.identity_key(),
            second.result.report.identity_key(),
            "degradation must be deterministic across requests"
        );
        first.result
    };

    let clean = serve_once(None);
    assert!(clean.recovery.is_clean());
    assert_eq!(clean.report.identity_key(), fx.reference);

    for site in FaultSite::GAPPED {
        let injector = Arc::new(FaultInjector::new(
            FaultPlan::none().with(FaultSpec::permanent(site)),
        ));
        let faulted = serve_once(Some(injector));
        let name = site.name();
        assert_eq!(faulted.report.identity_key(), fx.reference, "{name}");
        assert!(faulted.recovery.degraded_gapped >= 1, "{name}: never fired");
        assert_eq!(
            faulted.recovery.degraded_blocks, 0,
            "{name}: only the gapped phase degrades, not whole blocks"
        );
    }
}
