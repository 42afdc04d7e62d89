//! The ordered parallel map the multicore CPU phases run on (§3.6,
//! Fig. 13): `std` only, no `unsafe`.
//!
//! [`par_map`]`(threads, n, f)` is `(0..n).map(f).collect()` with the
//! items executed on up to `threads` threads. Items are *claimed* through
//! one atomic index — alignment cost per subject is heavy-tailed, so a
//! static split would leave threads idle behind the longest subject — and
//! results are returned **in index order whatever the interleaving**,
//! which is what keeps every report bit-identical to the sequential
//! reference.
//!
//! [`par_scope`] is the same map for a caller that has many batches over
//! one lifetime (a search's database blocks): helper threads are scoped to
//! the call, started lazily by the first batch that wants them, parked
//! between batches, and joined before `par_scope` returns — also when the
//! body or an item panics. Because helpers outlive a batch and no `unsafe`
//! erases lifetimes, a batch's inputs travel as an owned *job* value
//! instead of a borrowing closure. A batch is either
//!
//! * *mapped* ([`ParMap::map`]): the caller claims items next to the
//!   helpers and returns with the results — it never waits for a helper
//!   that has claimed nothing, so a batch the caller finishes before a
//!   helper wakes costs it one notification; or
//! * *posted* ([`ParMap::post`]): helpers claim its items while the
//!   caller does other work — the CPU side of the Fig. 12 overlap. The
//!   caller then either claims what is left beside them
//!   ([`ParMap::help`]), or leaves the batch to them and collects it
//!   ([`ParMap::join`]). A batch no helper has started by the join (none
//!   could be started, or none has woken yet) the join runs on the
//!   caller, so a join never waits for a wake-up.
//!
//! Either way progress never depends on a second core. What a helper does
//! cost is its wake-up (tens of microseconds of latency), so a caller that
//! can tell a batch is cheaper than that posts it to no helper: the join
//! then runs it on the caller, in index order.
//!
//! Thread-local tallies: [`crate::gapped::dp_cells`] counts on the thread
//! that ran the DP. Every helper's delta is folded into the *caller's*
//! counter when a batch is joined, so a reader on the calling thread sees
//! the whole batch at any thread count.

use crate::gapped::{count_cells, dp_cells};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};

type Payload = Box<dyn Any + Send + 'static>;

/// Lock `m`. Every critical section in this module is a handful of plain
/// stores that leave the data valid at each step (items run *outside* the
/// locks, under `catch_unwind`), so a poisoned lock is recovered.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `requested` clamped to `1..=available_parallelism()`: the thread count
/// the CPU phases execute on. The host's parallelism is read once per
/// process (on Linux it costs a `sched_getaffinity` and cgroup reads).
pub fn executed_threads(requested: usize) -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let available =
        *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
    requested.clamp(1, available)
}

/// True when a batch of `n` items on `threads` threads is shared with
/// helpers (and starts them, if it is the scope's first such batch)
/// instead of being run by the caller alone.
pub fn shares(threads: usize, n: usize) -> bool {
    threads >= 2 && n >= 2
}

/// What a batch has gathered so far.
struct Gathered<T> {
    results: Vec<Option<T>>,
    /// Items accounted for: run, or skipped after a panic.
    done: usize,
    panic: Option<Payload>,
    /// Score-pass DP cells helpers counted on their own threads.
    helper_cells: u64,
}

/// One batch: the job, the claim index, and the gathered results.
struct Batch<J, T> {
    job: J,
    n: usize,
    /// Next unclaimed item. `Relaxed`: a claim publishes nothing — the job
    /// reaches a helper through the `Shared` lock and results leave
    /// through `gathered`.
    next: AtomicUsize,
    /// Helpers that may still take part.
    seats: AtomicUsize,
    /// Set by the first panic so the remaining claims skip their work
    /// (`Relaxed`: advisory, a late reader only runs one item too many).
    poisoned: AtomicBool,
    gathered: Mutex<Gathered<T>>,
    all_done: Condvar,
}

impl<J, T> Batch<J, T> {
    /// Claim and run items until none are left, then hand the results
    /// over in one critical section.
    fn drain(&self, work: &(dyn Fn(&J, usize) -> T + Sync), on_helper: bool) {
        let mut mine: Vec<(usize, T)> = Vec::new();
        let mut claimed = 0usize;
        let mut panic: Option<Payload> = None;
        let cells_before = dp_cells();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            claimed += 1;
            if self.poisoned.load(Ordering::Relaxed) {
                continue;
            }
            match catch_unwind(AssertUnwindSafe(|| work(&self.job, i))) {
                Ok(t) => mine.push((i, t)),
                Err(payload) => {
                    self.poisoned.store(true, Ordering::Relaxed);
                    panic.get_or_insert(payload);
                }
            }
        }
        if claimed == 0 {
            return;
        }
        let mut g = lock(&self.gathered);
        for (i, t) in mine {
            g.results[i] = Some(t);
        }
        if g.panic.is_none() {
            g.panic = panic;
        }
        if on_helper {
            g.helper_cells += dp_cells() - cells_before;
        }
        g.done += claimed;
        if g.done == self.n {
            self.all_done.notify_all();
        }
    }
}

/// What helpers park on between batches.
struct Board<J, T> {
    batch: Option<Arc<Batch<J, T>>>,
    /// Bumped per posted batch, so a helper takes each batch once.
    epoch: u64,
    shutdown: bool,
}

struct Shared<J, T> {
    board: Mutex<Board<J, T>>,
    wake: Condvar,
}

impl<J, T> Shared<J, T> {
    fn helper_loop(&self, work: &(dyn Fn(&J, usize) -> T + Sync)) {
        let mut seen = 0u64;
        loop {
            let batch = {
                let mut b = lock(&self.board);
                loop {
                    if b.shutdown {
                        return;
                    }
                    if b.epoch != seen {
                        seen = b.epoch;
                        break b.batch.clone();
                    }
                    b = self.wake.wait(b).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let take = |s: usize| s.checked_sub(1);
            let seated = |b: &&Arc<Batch<J, T>>| {
                (b.seats
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, take))
                .is_ok()
            };
            if let Some(batch) = batch.as_ref().filter(seated) {
                batch.drain(work, true);
            }
        }
    }
}

/// A batch [`ParMap::post`] handed to the helpers, until
/// [`ParMap::join`].
#[must_use = "a posted batch is collected by `ParMap::join`"]
pub struct Posted<J, T> {
    batch: Arc<Batch<J, T>>,
    /// The batch's seats while no helper has taken one.
    offered: usize,
}

/// The handle [`par_scope`] gives its body: maps batches over the scope's
/// threads.
pub struct ParMap<'scope, 'env, J, T> {
    scope: &'scope Scope<'scope, 'env>,
    shared: Arc<Shared<J, T>>,
    work: &'env (dyn Fn(&J, usize) -> T + Sync),
    /// The helpers' thread name (what `top -H` and a debugger show).
    name: &'env str,
    threads: usize,
    helpers: Vec<ScopedJoinHandle<'scope, ()>>,
}

impl<'scope, 'env, J, T> ParMap<'scope, 'env, J, T>
where
    J: Send + Sync + 'env,
    T: Send + 'env,
{
    /// `(0..n).map(|i| work(&job, i)).collect()` on the scope's threads,
    /// results in index order: [`Self::post`] to `threads − 1` helpers,
    /// the caller claims items next to them, then [`Self::join`]. A
    /// panicking item stops further items from starting, waits for the
    /// ones in flight, and resumes the first panic on this thread.
    pub fn map(&mut self, job: J, n: usize) -> Vec<T> {
        if !shares(self.threads, n) {
            return (0..n).map(|i| (self.work)(&job, i)).collect();
        }
        let posted = self.post(job, n, self.threads - 1);
        self.help(posted)
    }

    /// Claim a posted batch's items next to its helpers, then join it:
    /// for a caller that had its own work to do first and is free now.
    /// It waits only for items a helper is still running.
    pub fn help(&mut self, posted: Posted<J, T>) -> Vec<T> {
        posted.batch.drain(self.work, false);
        self.join(posted)
    }

    /// Hand `(0..n).map(|i| work(&job, i))` to at most `helpers` helper
    /// threads and return at once; the caller is free until
    /// [`Self::join`]. Helpers are started lazily, up to the most any
    /// batch has asked for, and parked between batches; one the OS refuses
    /// to start is one fewer. Join a posted batch before posting the next.
    pub fn post(&mut self, job: J, n: usize, helpers: usize) -> Posted<J, T> {
        let offered = if n == 0 { 0 } else { helpers };
        let batch = Arc::new(Batch {
            job,
            n,
            next: AtomicUsize::new(0),
            seats: AtomicUsize::new(offered),
            poisoned: AtomicBool::new(false),
            gathered: Mutex::new(Gathered {
                results: (0..n).map(|_| None).collect(),
                done: 0,
                panic: None,
                helper_cells: 0,
            }),
            all_done: Condvar::new(),
        });
        if offered == 0 {
            return Posted { batch, offered };
        }
        {
            let mut b = lock(&self.shared.board);
            b.batch = Some(Arc::clone(&batch));
            b.epoch += 1;
        }
        match (self.helpers.len(), helpers) {
            (0, _) => {}
            (_, 1) => self.shared.wake.notify_one(),
            _ => self.shared.wake.notify_all(),
        }
        let work = self.work;
        while self.helpers.len() < helpers {
            let shared = Arc::clone(&self.shared);
            let started = std::thread::Builder::new()
                .name(self.name.to_string())
                .spawn_scoped(self.scope, move || shared.helper_loop(work));
            match started {
                Ok(helper) => self.helpers.push(helper),
                Err(_) => break,
            }
        }
        Posted { batch, offered }
    }

    /// Wait for a posted batch and return its results in index order —
    /// running it here if no helper has taken a seat. Resumes the first
    /// panic of an item on this thread.
    pub fn join(&mut self, posted: Posted<J, T>) -> Vec<T> {
        let batch = posted.batch;
        // Closing the seats decides it: a helper that sat down first is
        // draining, one that comes later finds none.
        let seats = &batch.seats;
        if (seats.compare_exchange(posted.offered, 0, Ordering::Relaxed, Ordering::Relaxed)).is_ok()
        {
            batch.drain(self.work, false);
        }
        let mut g = lock(&batch.gathered);
        while g.done < batch.n {
            g = (batch.all_done.wait(g)).unwrap_or_else(PoisonError::into_inner);
        }
        // The board lets go of a joined batch: its job goes once the last
        // helper leaves it, not when the next batch is posted.
        if posted.offered > 0 {
            let mut b = lock(&self.shared.board);
            if b.batch.as_ref().is_some_and(|on| Arc::ptr_eq(on, &batch)) {
                b.batch = None;
            }
        }
        count_cells(g.helper_cells);
        if let Some(payload) = g.panic.take() {
            drop(g);
            resume_unwind(payload);
        }
        let results = std::mem::take(&mut g.results);
        drop(g);
        // `done == n` with no panic: every slot was filled.
        results.into_iter().flatten().collect()
    }

    /// Threads a mapped batch may use (the caller included).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl<J, T> Drop for ParMap<'_, '_, J, T> {
    /// Release the helpers — also when the body unwinds, or the scope
    /// would wait for them forever.
    fn drop(&mut self) {
        let mut b = lock(&self.shared.board);
        b.shutdown = true;
        b.batch = None;
        drop(b);
        self.shared.wake.notify_all();
    }
}

/// Run `body` with a [`ParMap`] over `threads` threads (a mapped batch
/// runs on the caller and up to `threads − 1` helpers), every batch item
/// computed by `work(&job, i)`. Helpers are started by the first batch
/// that wants them and are joined before this returns or unwinds. `'env`
/// is what `work` may borrow, as in [`std::thread::scope`]; `name` names
/// the helper threads.
pub fn par_scope<'env, J, T, R>(
    name: &'env str,
    threads: usize,
    work: &'env (dyn Fn(&J, usize) -> T + Sync),
    body: impl for<'scope> FnOnce(&mut ParMap<'scope, 'env, J, T>) -> R,
) -> R
where
    J: Send + Sync + 'env,
    T: Send + 'env,
{
    let shared = Arc::new(Shared {
        board: Mutex::new(Board {
            batch: None,
            epoch: 0,
            shutdown: false,
        }),
        wake: Condvar::new(),
    });
    std::thread::scope(|scope| {
        let mut par = ParMap {
            scope,
            shared,
            work,
            name,
            threads: threads.max(1),
            helpers: Vec::new(),
        };
        body(&mut par)
    })
}

/// `(0..n).map(f).collect()` with the items run on up to `threads`
/// threads, the caller among them; results in index order.
pub fn par_map<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    par_scope("par-map", threads, &|_: &(), i| f(i), |par| par.map((), n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Busy work whose cost the test controls (no sleep: an item must be
    /// runnable on one core).
    fn spin(rounds: u64) -> u64 {
        (0..rounds).fold(0u64, |acc, x| {
            std::hint::black_box(acc.wrapping_mul(31).wrapping_add(x))
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        /// Index order and exactly-once execution, for every shape the
        /// callers can produce: `threads > n`, `n` = 0 and 1, and items
        /// whose costs differ by four orders of magnitude.
        #[test]
        fn results_are_in_index_order_and_every_item_runs_once(
            n in 0usize..200,
            threads in 1usize..9,
            heavy_stride in 1usize..40,
            heavy_rounds in 0u64..20_000,
        ) {
            let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = par_map(threads, n, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                spin(if i % heavy_stride == 0 { heavy_rounds } else { 2 });
                i * 3 + 1
            });
            proptest::prop_assert_eq!(out, (0..n).map(|i| i * 3 + 1).collect::<Vec<_>>());
            proptest::prop_assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        }

        /// The same over a scope's many batches: helpers outlive a batch,
        /// each batch sees only its own job.
        #[test]
        fn a_scope_maps_batch_after_batch(
            sizes in proptest::collection::vec(0usize..40, 0..12),
            threads in 1usize..9,
        ) {
            let got = par_scope(
                "t",
                threads,
                &|job: &(usize, Vec<u64>), i| job.1[i] * 2 + job.0 as u64,
                |par| {
                    sizes
                        .iter()
                        .enumerate()
                        .map(|(b, &n)| par.map((b, (0..n as u64).collect()), n))
                        .collect::<Vec<_>>()
                },
            );
            for (b, (&n, out)) in sizes.iter().zip(&got).enumerate() {
                let want: Vec<u64> = (0..n as u64).map(|x| x * 2 + b as u64).collect();
                proptest::prop_assert_eq!(out, &want, "batch {}", b);
            }
        }

        /// Posted batches too, while the caller works between post and
        /// join: helpers only, or — with no helper asked for — the joining
        /// caller.
        #[test]
        fn posted_batches_join_in_index_order_and_run_every_item_once(
            batches in proptest::collection::vec((0usize..40, 0usize..4), 0..10),
            threads in 1usize..5,
        ) {
            let runs: Vec<AtomicUsize> = (0..batches.len() * 40).map(|_| AtomicUsize::new(0)).collect();
            let work = |b: &usize, i: usize| {
                runs[b * 40 + i].fetch_add(1, Ordering::Relaxed);
                spin(if i % 7 == 0 { 5_000 } else { 2 });
                b * 1_000 + i
            };
            par_scope("t", threads, &work, |par| {
                for (b, &(n, helpers)) in batches.iter().enumerate() {
                    let posted = par.post(b, n, helpers);
                    spin(1_000);
                    let out = par.join(posted);
                    let want: Vec<usize> = (0..n).map(|i| b * 1_000 + i).collect();
                    proptest::prop_assert_eq!(out, want, "batch {}", b);
                }
                Ok(())
            })?;
            for (b, &(n, _)) in batches.iter().enumerate() {
                let ran = |i: usize| runs[b * 40 + i].load(Ordering::Relaxed);
                proptest::prop_assert!((0..40).all(|i| ran(i) == usize::from(i < n)), "batch {}", b);
            }
        }
    }

    #[test]
    fn helpers_really_run_items_and_start_lazily() {
        // Two items that each wait for the other: only two threads inside
        // `work` at once can pass the barrier.
        let barrier = Barrier::new(2);
        par_scope(
            "t",
            2,
            &|meet: &bool, i| {
                if *meet {
                    barrier.wait();
                }
                i
            },
            |par| {
                assert_eq!(par.map(false, 0), Vec::<usize>::new());
                assert_eq!(par.map(false, 1), vec![0], "one item runs inline");
                assert_eq!(par.helpers.len(), 0, "nothing worth sharing yet");
                assert_eq!(par.map(true, 2), vec![0, 1]);
                assert_eq!(par.helpers.len(), 1);
            },
        );
    }

    #[test]
    fn a_batch_no_helper_takes_runs_on_the_joining_caller() {
        let caller = std::thread::current().id();
        let claimed = AtomicUsize::new(0);
        let work = |_: &(), i| {
            claimed.fetch_add(1, Ordering::SeqCst);
            (i, std::thread::current().id())
        };
        let on = |out: &[(usize, ThreadId)]| -> Vec<ThreadId> { out.iter().map(|o| o.1).collect() };
        par_scope("t", 3, &work, |par| {
            // No seat offered (as when no helper could be started): the
            // join runs the batch.
            let posted = par.post((), 8, 0);
            let out = par.join(posted);
            let indices: Vec<usize> = out.iter().map(|o| o.0).collect();
            assert_eq!(indices, (0..8).collect::<Vec<_>>());
            assert!(on(&out).iter().all(|&t| t == caller));
            assert!(par.helpers.is_empty(), "no helper was asked for");
            // Helpers start as batches ask for them; once one has sat
            // down, only helpers claim.
            for (seats, started) in [(1, 1), (3, 3), (1, 3)] {
                let before = claimed.load(Ordering::SeqCst);
                let posted = par.post((), 64, seats);
                while claimed.load(Ordering::SeqCst) == before {
                    std::thread::yield_now();
                }
                let out = par.join(posted);
                let ran = on(&out);
                assert!(ran.iter().all(|&t| t != caller), "seats = {seats}");
                assert_eq!(par.helpers.len(), started);
                if seats == 1 {
                    assert!(ran.iter().all(|&t| t == ran[0]), "one seat, one helper");
                }
            }
        });
    }

    #[test]
    fn a_posted_batch_runs_while_the_caller_works() {
        // Four batches of one 10 ms item beside 10 ms of the caller's own
        // work each: ≥ 80 ms end to end, ≈ 40 ms overlapped. Sleeps, so
        // it holds on one core too.
        let t0 = Instant::now();
        let nap = |ms| std::thread::sleep(Duration::from_millis(ms));
        par_scope("t", 1, &|_: &(), _| nap(10), |par| {
            for _ in 0..4 {
                let posted = par.post((), 1, 1);
                nap(10);
                assert_eq!(par.join(posted).len(), 1);
            }
            assert_eq!(par.helpers.len(), 1);
        });
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_millis(75),
            "no overlap observed: {elapsed:?}"
        );
    }

    #[test]
    fn a_helping_caller_claims_what_its_helpers_left() {
        // Two items that each wait for the other: the caller is busy with
        // its own work when the batch is posted, so a helper takes one and
        // the helping caller the other.
        let barrier = Barrier::new(2);
        let caller = std::thread::current().id();
        let work = |_: &(), i| {
            barrier.wait();
            (i, std::thread::current().id())
        };
        par_scope("t", 2, &work, |par| {
            let posted = par.post((), 2, 1);
            spin(1_000);
            let out = par.help(posted);
            assert_eq!(out.iter().map(|o| o.0).collect::<Vec<_>>(), [0, 1]);
            assert_eq!(out.iter().filter(|o| o.1 == caller).count(), 1);
        });
    }

    #[test]
    fn a_joined_batch_lets_go_of_its_job() {
        // A job may own something large (a grouped round's index): once
        // its batch is joined the board no longer holds it, though the
        // helpers live on and no other batch has been posted — the job
        // goes as soon as the last helper leaves the batch.
        let job = Arc::new(vec![0u8; 1 << 10]);
        par_scope("t", 2, &|job: &Arc<Vec<u8>>, i| job[i], |par| {
            for _ in 0..4 {
                assert_eq!(par.map(Arc::clone(&job), 8), vec![0; 8]);
                assert!(lock(&par.shared.board).batch.is_none());
            }
            let posted = par.post(Arc::clone(&job), 8, 1);
            assert_eq!(par.join(posted).len(), 8);
            assert!(lock(&par.shared.board).batch.is_none());
            let t0 = Instant::now();
            while Arc::strong_count(&job) > 1 && t0.elapsed() < Duration::from_secs(5) {
                std::thread::yield_now();
            }
            assert_eq!(Arc::strong_count(&job), 1);
        });
    }

    #[test]
    fn one_thread_spawns_nothing() {
        par_scope("t", 1, &|_: &(), i| i, |par| {
            assert_eq!(par.map((), 50), (0..50).collect::<Vec<_>>());
            assert!(par.helpers.is_empty());
        });
    }

    #[test]
    fn a_panicking_item_resumes_on_the_caller_with_nothing_left_running() {
        for (threads, posted) in [1, 2, 8].into_iter().flat_map(|t| [(t, false), (t, true)]) {
            // Items borrow this frame; `par_map` may only return — or
            // unwind — once no thread can touch it any more.
            let inside = AtomicUsize::new(0);
            let started = AtomicUsize::new(0);
            let out = catch_unwind(AssertUnwindSafe(|| {
                let work = |_: &(), i| {
                    struct Inside<'a>(&'a AtomicUsize);
                    impl Drop for Inside<'_> {
                        fn drop(&mut self) {
                            self.0.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    inside.fetch_add(1, Ordering::SeqCst);
                    let _inside = Inside(&inside);
                    started.fetch_add(1, Ordering::SeqCst);
                    spin(2_000);
                    if i == 13 {
                        panic!("injected item panic");
                    }
                    i
                };
                par_scope("t", threads, &work, |par| match posted {
                    // Posted: only helpers claim, the join resumes.
                    true => {
                        let posted = par.post((), 64, threads);
                        par.join(posted)
                    }
                    false => par.map((), 64),
                })
            }));
            let payload = out.expect_err("the panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>().copied(),
                Some("injected item panic"),
                "threads = {threads}, posted = {posted}"
            );
            assert_eq!(inside.load(Ordering::SeqCst), 0, "threads = {threads}");
            assert!(started.load(Ordering::SeqCst) <= 64);
        }
    }

    #[test]
    fn a_panicking_body_still_joins_its_helpers() {
        let out = catch_unwind(AssertUnwindSafe(|| {
            par_scope("t", 4, &|_: &(), i| i, |par| {
                par.map((), 16);
                assert_eq!(par.helpers.len(), 3);
                panic!("body gave up");
            })
        }));
        // Returning at all is the assertion: `thread::scope` joins the
        // parked helpers, which only `ParMap`'s drop releases.
        assert!(out.is_err());
    }

    #[test]
    fn helper_dp_cells_fold_into_the_callers_counter() {
        let before = dp_cells();
        let barrier = Barrier::new(2);
        par_map(2, 2, |i| {
            // Both threads are inside before either counts, so one of the
            // two counts on a helper.
            barrier.wait();
            count_cells(100 + i as u64);
        });
        assert_eq!(dp_cells() - before, 201);
    }
}
