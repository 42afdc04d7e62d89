//! Bounded admission: the token-cost model, per-class queue caps, and
//! per-tenant rate limits (DESIGN.md §3.8).
//!
//! Admission answers one question — *can this request enter the system
//! without pushing it into unbounded queueing?* — with two budgets:
//!
//! * **queue depth**, per priority class, so a burst cannot stack more
//!   requests than the workers can drain within a deadline; and
//! * **outstanding cost**, a token budget in estimated DP cells
//!   (`query_len × database residues`), so a few giant queries cannot
//!   occupy the same nominal queue slots as many small ones while
//!   representing 100× the work.
//!
//! A refused request gets a typed
//! [`SearchError::Overloaded`] whose
//! `retry_after_ms` comes from the measured drain rate: outstanding
//! work divided by an EWMA of cells retired per millisecond, clamped to a
//! sane client-backoff window. Nothing here sleeps or blocks beyond a
//! mutex — admission is a pure bookkeeping gate.

use cublastp::SearchError;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::server::Priority;

/// Estimated work of one request, in DP cells: query length times total
/// database residues. This over-counts (only seeds that survive the hit
/// phase reach the DP), but consistently so — relative cost between a
/// 127-residue interactive query and a 1054-residue bulk one is right,
/// which is what budget arithmetic needs.
pub fn estimate_cost(query_len: usize, db_residues: usize) -> u64 {
    (query_len.max(1) as u64).saturating_mul(db_residues.max(1) as u64)
}

/// Static admission budgets (see [`ServeConfig`](crate::ServeConfig)).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Queued requests allowed per priority class.
    pub queue_capacity: usize,
    /// Outstanding (admitted but unfinished) cost budget, in DP cells.
    pub cost_capacity: u64,
}

#[derive(Debug, Default)]
struct AdmissionState {
    outstanding_cost: u64,
    queued: [usize; 2],
    /// EWMA drain rate in cells per millisecond (0 until first completion).
    drain_rate: f64,
}

/// The admission gate: bounded queues + outstanding-cost budget.
#[derive(Debug)]
pub(crate) struct Admission {
    cfg: AdmissionConfig,
    state: Mutex<AdmissionState>,
}

/// Clamp for the suggested client backoff.
const RETRY_AFTER_MIN_MS: u64 = 10;
const RETRY_AFTER_MAX_MS: u64 = 5_000;

impl Admission {
    pub(crate) fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            state: Mutex::new(AdmissionState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AdmissionState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to admit a request of `cost` cells into `class`. Under budget
    /// shrink (degradation level ≥ ShrinkBudgets) both caps are halved, so
    /// the system sheds harder as pressure rises. On refusal returns the
    /// typed overload error with the drain-rate-derived backoff hint.
    pub(crate) fn try_admit(
        &self,
        class: Priority,
        cost: u64,
        shrink: bool,
    ) -> Result<(), SearchError> {
        let mut st = self.lock();
        let queue_cap = if shrink {
            (self.cfg.queue_capacity / 2).max(1)
        } else {
            self.cfg.queue_capacity
        };
        let cost_cap = if shrink {
            (self.cfg.cost_capacity / 2).max(1)
        } else {
            self.cfg.cost_capacity
        };
        let over_queue = st.queued[class.index()] >= queue_cap;
        let over_cost = st.outstanding_cost.saturating_add(cost) > cost_cap;
        if over_queue || over_cost {
            return Err(SearchError::Overloaded {
                retry_after_ms: Self::retry_after_ms(&st),
            });
        }
        st.outstanding_cost += cost;
        st.queued[class.index()] += 1;
        Ok(())
    }

    /// A worker dequeued a request of `class` (it still holds its cost).
    pub(crate) fn dequeued(&self, class: Priority) {
        let mut st = self.lock();
        st.queued[class.index()] = st.queued[class.index()].saturating_sub(1);
    }

    /// A request finished (result or typed error): release its cost and
    /// fold its service time into the drain-rate estimate.
    pub(crate) fn complete(&self, cost: u64, service_ms: f64) {
        let mut st = self.lock();
        st.outstanding_cost = st.outstanding_cost.saturating_sub(cost);
        let inst = cost as f64 / service_ms.max(0.1);
        st.drain_rate = if st.drain_rate == 0.0 {
            inst
        } else {
            0.8 * st.drain_rate + 0.2 * inst
        };
    }

    /// Current pressure in `[0, 1]`: the worst of (deepest class queue
    /// over queue capacity, outstanding cost over cost budget) — the one
    /// input of the degradation ladder (see [`crate::controller`]).
    pub(crate) fn pressure(&self) -> f64 {
        let st = self.lock();
        // A zero budget admits nothing, so it never holds anything either.
        let frac = |held: f64, budget: f64| if budget > 0.0 { held / budget } else { 0.0 };
        let queued = st.queued[0].max(st.queued[1]);
        frac(queued as f64, self.cfg.queue_capacity as f64)
            .max(frac(
                st.outstanding_cost as f64,
                self.cfg.cost_capacity as f64,
            ))
            .clamp(0.0, 1.0)
    }

    /// Snapshot for gauge publication: (outstanding cost, queued per
    /// class).
    pub(crate) fn snapshot(&self) -> (u64, [usize; 2]) {
        let st = self.lock();
        (st.outstanding_cost, st.queued)
    }

    /// The backoff hint for refusals decided outside the admission check
    /// (ladder sheds), from the same drain-rate estimate.
    pub(crate) fn backoff_hint(&self) -> u64 {
        Self::retry_after_ms(&self.lock())
    }

    /// Suggested client backoff: how long until the outstanding work
    /// drains at the measured rate. Before any completion the drain rate
    /// is unknown, so back off proportionally to queue depth instead.
    fn retry_after_ms(st: &AdmissionState) -> u64 {
        let ms = if st.drain_rate > 0.0 {
            (st.outstanding_cost as f64 / st.drain_rate) as u64
        } else {
            100 + 50 * (st.queued[0] + st.queued[1]) as u64
        };
        ms.clamp(RETRY_AFTER_MIN_MS, RETRY_AFTER_MAX_MS)
    }
}

/// Per-tenant token-bucket rate limit. `rate_per_sec` of
/// [`f64::INFINITY`] disables limiting entirely (the default).
#[derive(Debug, Clone, Copy)]
pub struct RateLimitConfig {
    /// Sustained requests per second per tenant.
    pub rate_per_sec: f64,
    /// Burst allowance (bucket depth) per tenant.
    pub burst: f64,
}

impl Default for RateLimitConfig {
    fn default() -> Self {
        Self {
            rate_per_sec: f64::INFINITY,
            burst: 1.0,
        }
    }
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Token buckets keyed by tenant id.
#[derive(Debug)]
pub(crate) struct RateLimiter {
    cfg: RateLimitConfig,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl RateLimiter {
    pub(crate) fn new(cfg: RateLimitConfig) -> Self {
        Self {
            cfg,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Take one token for `tenant`; on refusal returns the milliseconds
    /// until the next token accrues (the `retry_after_ms` hint).
    pub(crate) fn try_acquire(&self, tenant: &str) -> Result<(), u64> {
        if self.cfg.rate_per_sec.is_infinite() {
            return Ok(());
        }
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: self.cfg.burst,
            last: now,
        });
        let dt = now.duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + dt * self.cfg.rate_per_sec).min(self.cfg.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let need = (1.0 - bucket.tokens) / self.cfg.rate_per_sec * 1e3;
            Err((need.ceil() as u64).clamp(1, RETRY_AFTER_MAX_MS))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(queue: usize, cost: u64) -> AdmissionConfig {
        AdmissionConfig {
            queue_capacity: queue,
            cost_capacity: cost,
        }
    }

    #[test]
    fn cost_model_scales_with_query_and_database() {
        assert_eq!(estimate_cost(100, 1000), 100_000);
        assert!(estimate_cost(517, 1000) > estimate_cost(127, 1000));
        // Degenerate inputs never produce a zero-cost request.
        assert!(estimate_cost(0, 0) >= 1);
    }

    #[test]
    fn queue_capacity_bounds_each_class_independently() {
        let adm = Admission::new(cfg(2, u64::MAX));
        assert!(adm.try_admit(Priority::Interactive, 1, false).is_ok());
        assert!(adm.try_admit(Priority::Interactive, 1, false).is_ok());
        let err = adm
            .try_admit(Priority::Interactive, 1, false)
            .expect_err("third interactive must be refused");
        assert_eq!(err.category(), "overloaded");
        // The bulk class still has its own headroom.
        assert!(adm.try_admit(Priority::Bulk, 1, false).is_ok());
        // Draining a slot re-opens the class.
        adm.dequeued(Priority::Interactive);
        assert!(adm.try_admit(Priority::Interactive, 1, false).is_ok());
    }

    #[test]
    fn cost_budget_refuses_before_queue_depth_does() {
        let adm = Admission::new(cfg(100, 1000));
        assert!(adm.try_admit(Priority::Bulk, 800, false).is_ok());
        let err = adm
            .try_admit(Priority::Bulk, 300, false)
            .expect_err("over cost budget");
        match err {
            SearchError::Overloaded { retry_after_ms } => {
                assert!((RETRY_AFTER_MIN_MS..=RETRY_AFTER_MAX_MS).contains(&retry_after_ms));
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
        // Completion releases the cost.
        adm.complete(800, 5.0);
        assert!(adm.try_admit(Priority::Bulk, 300, false).is_ok());
    }

    #[test]
    fn pressure_is_worst_of_queue_and_cost() {
        // Queue pressure dominates: 8 of 10 interactive slots, 2 bulk,
        // cost near-idle.
        let adm = Admission::new(cfg(10, 1000));
        for _ in 0..8 {
            adm.try_admit(Priority::Interactive, 1, false)
                .expect("admit");
        }
        for _ in 0..2 {
            adm.try_admit(Priority::Bulk, 1, false).expect("admit");
        }
        assert!((adm.pressure() - 0.8).abs() < 1e-9);
        // Cost pressure dominates: queues drained, budget nearly spent.
        for _ in 0..8 {
            adm.dequeued(Priority::Interactive);
        }
        adm.dequeued(Priority::Bulk);
        adm.dequeued(Priority::Bulk);
        adm.try_admit(Priority::Bulk, 950, false).expect("admit");
        adm.dequeued(Priority::Bulk);
        assert!((adm.pressure() - 0.96).abs() < 1e-9);
        // Idle again once everything completes.
        adm.complete(960, 1.0);
        assert_eq!(adm.pressure(), 0.0);
    }

    #[test]
    fn shrink_halves_both_budgets() {
        let adm = Admission::new(cfg(4, 1000));
        assert!(adm.try_admit(Priority::Bulk, 400, true).is_ok());
        // 400 + 200 > 500 (half of 1000): refused under shrink, admitted
        // at full budget.
        assert!(adm.try_admit(Priority::Bulk, 200, true).is_err());
        assert!(adm.try_admit(Priority::Bulk, 200, false).is_ok());
        // Queue side: 2 already queued = half of 4.
        assert!(adm.try_admit(Priority::Bulk, 1, true).is_err());
    }

    #[test]
    fn retry_after_tracks_the_measured_drain_rate() {
        let adm = Admission::new(cfg(2, 10_000));
        // Teach the EWMA: 1000 cells retired per ms.
        adm.try_admit(Priority::Bulk, 5000, false).expect("admit");
        adm.dequeued(Priority::Bulk);
        adm.complete(5000, 5.0);
        adm.try_admit(Priority::Bulk, 5000, false).expect("admit");
        adm.try_admit(Priority::Bulk, 5000, false)
            .expect("admit 2nd cost-wise");
        let err = adm
            .try_admit(Priority::Bulk, 5000, false)
            .expect_err("queue full");
        match err {
            SearchError::Overloaded { retry_after_ms } => {
                // 10_000 outstanding / 1000 cells-per-ms = 10 ms.
                assert!(retry_after_ms <= 100, "got {retry_after_ms}");
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
    }

    #[test]
    fn rate_limiter_enforces_burst_then_refills() {
        let rl = RateLimiter::new(RateLimitConfig {
            rate_per_sec: 1000.0,
            burst: 2.0,
        });
        assert!(rl.try_acquire("t0").is_ok());
        assert!(rl.try_acquire("t0").is_ok());
        // Tenants are independent.
        assert!(rl.try_acquire("t1").is_ok());
        match rl.try_acquire("t0") {
            Ok(()) => {} // a slow test runner may have refilled already
            Err(ms) => assert!(ms >= 1),
        }
        // At 1000/s a token accrues within a few ms.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(rl.try_acquire("t0").is_ok());
    }

    #[test]
    fn infinite_rate_never_refuses() {
        let rl = RateLimiter::new(RateLimitConfig::default());
        for _ in 0..10_000 {
            assert!(rl.try_acquire("t").is_ok());
        }
    }
}
