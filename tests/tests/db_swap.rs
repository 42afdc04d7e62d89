//! Hot-swap generations (DESIGN.md §3.9): searches racing a swap always
//! see exactly one database generation end-to-end.
//!
//! The serving contract: a request pins the current generation at
//! admission and is served on it to completion, wherever the swap lands
//! relative to its lifetime. The proptest sweeps the swap point across
//! the submission stream and asserts, for every request, that its
//! reported generation matches its admission order and its result is
//! bit-identical to the direct (no-swap) reference search on that
//! generation — never a blend, never a loss.

use std::sync::OnceLock;
use std::time::Duration;

use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use cublastp::{CuBlastp, CuBlastpConfig, DeviceDb, SearchError};
use cublastp_db::DbImage;
use cublastp_serve::{Request, ResponseHandle, ServeConfig, Server};
use gpu_sim::DeviceConfig;
use integration_support::workload;
use proptest::prelude::*;

const BLOCK_SIZE: usize = 14;
const REQUESTS: usize = 6;

fn config() -> CuBlastpConfig {
    CuBlastpConfig {
        db_block_size: BLOCK_SIZE,
        ..CuBlastpConfig::default()
    }
}

type IdentityKey = Vec<(usize, i32, u32, u32, u32, u32)>;

struct Fixture {
    query: Sequence,
    db_a: SequenceDb,
    db_b: SequenceDb,
    image_b: DbImage,
    key_a: IdentityKey,
    key_b: IdentityKey,
}

fn reference_key(query: &Sequence, db: &SequenceDb) -> IdentityKey {
    let dev = DeviceDb::upload(db, BLOCK_SIZE);
    CuBlastp::new(
        query.clone(),
        SearchParams::default(),
        config(),
        DeviceConfig::k20c(),
        db,
    )
    .search_resident(db, &dev)
    .expect("fault-free reference")
    .report
    .identity_key()
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (query, db_a) = workload(110, 3 * BLOCK_SIZE, 170, 33);
        let (_, db_b) = workload(110, 4 * BLOCK_SIZE, 150, 77);
        let image_b =
            DbImage::from_bytes(cublastp_db::build_to_vec(&db_b, BLOCK_SIZE), "gen2-image")
                .expect("valid image");
        let key_a = reference_key(&query, &db_a);
        let key_b = reference_key(&query, &db_b);
        assert_ne!(key_a, key_b, "generations must be distinguishable");
        Fixture {
            query,
            db_a,
            db_b,
            image_b,
            key_a,
            key_b,
        }
    })
}

/// Submit, absorbing transient `Overloaded` refusals (the test asserts
/// generation pinning, not admission policy).
fn submit(server: &Server, query: &Sequence, tenant: String) -> ResponseHandle {
    for _ in 0..400 {
        match server.submit(Request::interactive(query.clone(), tenant.clone())) {
            Ok(h) => return h,
            Err(SearchError::Overloaded { .. }) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("unexpected refusal: {e}"),
        }
    }
    panic!("submission still shed after 2 s");
}

/// One race: `swap_after` requests admitted on generation 1, then a swap
/// (inline flatten or mapped image), then the rest on generation 2 —
/// while generation-1 requests are still in flight.
fn swap_race(swap_after: usize, via_image: bool) -> Result<(), TestCaseError> {
    let fx = fixture();
    let server = Server::new(
        fx.db_a.clone(),
        SearchParams::default(),
        config(),
        DeviceConfig::k20c(),
        ServeConfig {
            workers: 2,
            reserved_interactive_workers: 0,
            queue_capacity: REQUESTS,
            ..ServeConfig::default()
        },
    )
    .expect("valid server config");

    let mut handles = Vec::new();
    let mut new_gen = 0;
    for i in 0..REQUESTS {
        if i == swap_after {
            new_gen = if via_image {
                server.swap_image(&fx.image_b).expect("image swap")
            } else {
                server.swap_db(fx.db_b.clone()).expect("inline swap")
            };
        }
        handles.push(submit(&server, &fx.query, format!("t{i}")));
    }
    if swap_after >= REQUESTS {
        prop_assert_eq!(new_gen, 0, "no swap performed");
    } else {
        prop_assert_eq!(new_gen, 2);
    }

    for (i, h) in handles.into_iter().enumerate() {
        let r = match h.wait() {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!("request {i} lost: {e}"))),
        };
        let (want_gen, want_key) = if i < swap_after {
            (1, &fx.key_a)
        } else {
            (2, &fx.key_b)
        };
        prop_assert_eq!(r.generation, want_gen, "request {} pinned wrong", i);
        prop_assert_eq!(
            r.result.report.identity_key(),
            want_key.clone(),
            "request {} not bit-identical to its generation's reference",
            i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sweep the swap point across the stream, both swap flavors: every
    /// request is served end-to-end on the generation it pinned.
    #[test]
    fn requests_racing_a_swap_see_exactly_one_generation(
        swap_after in 0usize..REQUESTS,
        via_image in any::<bool>(),
    ) {
        swap_race(swap_after, via_image)?;
    }
}

/// The degenerate edges deserve deterministic coverage alongside the
/// random sweep: swap before any admission, and no swap at all.
#[test]
fn swap_before_first_admission_and_no_swap_edges() {
    swap_race(0, true).expect("swap before first admission");
    swap_race(REQUESTS, false).expect("no swap during the stream");
}
