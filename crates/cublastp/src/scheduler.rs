//! Deterministic work-stealing scheduler for the sharded engine
//! (DESIGN.md §3.10).
//!
//! Work items are (query × shard) searches whose device cost is already
//! known from the modelled pipeline timeline, so scheduling is a pure
//! function: LPT (longest-processing-time) seeding places every item on
//! the least-loaded device's deque, then a discrete-event simulation runs
//! the fleet — each device pops its own deque from the front and, when it
//! runs dry, steals from the *back* of the richest victim's deque (the
//! classic owner-LIFO / thief-FIFO split that steals the largest staged
//! work). Shard residence is charged faithfully: the first time a device
//! touches a shard it pays that shard's modelled H2D upload, so a steal
//! that drags a new shard onto a device is not free and the schedule
//! prefers affinity when costs tie.
//!
//! Everything — victim choice, tie-breaks, the steal log — is a
//! deterministic function of `(costs, shards, uploads, devices, seed)`.
//! The seed feeds a xorshift64* generator used only to rotate the victim
//! scan origin, so two runs with the same seed produce byte-identical
//! schedules (the perf gate and the bit-identity tests rely on this) and
//! different seeds still produce valid, merely differently-tied
//! schedules.

use std::collections::VecDeque;

/// Default seed for the steal-order generator; any fixed value keeps the
/// schedule reproducible, this one is just the crate's convention.
pub const DEFAULT_STEAL_SEED: u64 = 0x5EED_CB1A;

/// Modelled latency of one steal operation (deque CAS + task migration),
/// in milliseconds. Charged to the thief.
pub const STEAL_LATENCY_MS: f64 = 0.002;

/// One recorded steal, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealEvent {
    /// Device that ran out of local work.
    pub thief: usize,
    /// Device whose deque was robbed.
    pub victim: usize,
    /// The migrated work item.
    pub item: usize,
}

/// One device's simulated timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceTimeline {
    /// Modelled busy time: item costs + shard uploads + steal latency.
    pub busy_ms: f64,
    /// Of which, time spent uploading shards on first touch.
    pub upload_ms: f64,
    /// Items this device executed, in execution order.
    pub items: Vec<usize>,
    /// Steals this device performed.
    pub steals: u64,
    /// Distinct shards resident on this device at the end of the run.
    pub shards_resident: usize,
}

/// The complete schedule: per-device timelines plus the merged view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StealSchedule {
    /// One timeline per device.
    pub per_device: Vec<DeviceTimeline>,
    /// Makespan: the busiest device's clock when the last item finishes.
    pub makespan_ms: f64,
    /// Steals across the fleet, in execution order.
    pub steal_log: Vec<StealEvent>,
    /// Device each item ran on (`assignment[item] = device`).
    pub assignment: Vec<usize>,
}

impl StealSchedule {
    /// Total steals across the fleet.
    pub fn total_steals(&self) -> u64 {
        self.per_device.iter().map(|d| d.steals).sum()
    }

    /// Makespan speedup over a given single-device makespan of the same
    /// items (1.0 for an empty schedule).
    pub fn speedup(&self, single_device_ms: f64) -> f64 {
        if self.makespan_ms <= 0.0 {
            1.0
        } else {
            single_device_ms / self.makespan_ms
        }
    }

    /// Scaling efficiency against a given single-device makespan:
    /// `serial / (devices × makespan)`, 1.0 = perfect linear scaling.
    pub fn efficiency(&self, single_device_ms: f64) -> f64 {
        let n = self.per_device.len().max(1) as f64;
        if self.makespan_ms <= 0.0 {
            1.0
        } else {
            single_device_ms / (n * self.makespan_ms)
        }
    }
}

/// xorshift64* — tiny, seedable, and good enough for tie-break rotation.
/// A zero seed is mapped to a fixed odd constant (xorshift's one bad
/// state).
fn xorshift64(state: &mut u64) -> u64 {
    if *state == 0 {
        *state = 0x9E37_79B9_7F4A_7C15;
    }
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Remaining queued cost of one device's deque.
fn queued_cost(deque: &VecDeque<usize>, costs: &[f64]) -> f64 {
    deque.iter().map(|&i| costs[i]).sum()
}

/// Schedule `costs.len()` work items over `devices` identical simulated
/// devices with LPT seeding and deque-based work stealing.
///
/// * `costs[i]` — modelled execution time of item `i` in ms.
/// * `shards[i]` — shard item `i` reads; the first item of a shard on a
///   device charges `uploads[shard]` to that device (per-shard residence).
/// * `seed` — steal-order seed; the schedule is a deterministic function
///   of all five arguments.
///
/// Zero devices is treated as one; zero items yields an empty schedule.
pub fn schedule_work_stealing(
    costs: &[f64],
    shards: &[usize],
    uploads: &[f64],
    devices: usize,
    seed: u64,
) -> StealSchedule {
    let n_dev = devices.max(1);
    let n = costs.len();
    let mut per_device = vec![DeviceTimeline::default(); n_dev];
    let mut schedule = StealSchedule {
        assignment: vec![0; n],
        ..Default::default()
    };

    // LPT seeding: longest item first onto the least-loaded deque. Stable
    // tie-break on item id keeps the seeding deterministic.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut deques: Vec<VecDeque<usize>> = vec![VecDeque::new(); n_dev];
    let mut seeded = vec![0.0f64; n_dev];
    for &item in &order {
        let mut best = 0usize;
        for d in 1..n_dev {
            if seeded[d] < seeded[best] - 1e-12 {
                best = d;
            }
        }
        seeded[best] += costs[item];
        deques[best].push_back(item);
    }

    // Discrete-event simulation: the device with the earliest clock acts
    // next. Owners pop the front of their own deque; a dry device steals
    // from the back of the richest victim (scan origin rotated by the
    // seeded generator so equal-cost victims break ties reproducibly).
    let mut rng = seed;
    let mut clocks = vec![0.0f64; n_dev];
    let mut resident: Vec<Vec<bool>> = vec![vec![false; uploads.len()]; n_dev];
    let mut remaining = n;
    let mut parked = vec![false; n_dev];
    while remaining > 0 {
        let mut dev = usize::MAX;
        for d in 0..n_dev {
            if parked[d] {
                continue;
            }
            if dev == usize::MAX || clocks[d] < clocks[dev] - 1e-12 {
                dev = d;
            }
        }
        if dev == usize::MAX {
            break; // unreachable: remaining > 0 implies a non-parked owner
        }

        let (item, stolen_from) = if let Some(item) = deques[dev].pop_front() {
            (item, None)
        } else {
            // Steal from the victim with the most queued cost. The scan
            // starts at a seed-rotated origin so exact ties resolve
            // deterministically but not always toward device 0.
            let origin = (xorshift64(&mut rng) % n_dev as u64) as usize;
            let mut victim = usize::MAX;
            let mut victim_cost = 0.0f64;
            for k in 0..n_dev {
                let v = (origin + k) % n_dev;
                if v == dev || deques[v].is_empty() {
                    continue;
                }
                let c = queued_cost(&deques[v], costs);
                if victim == usize::MAX || c > victim_cost + 1e-12 {
                    victim = v;
                    victim_cost = c;
                }
            }
            match victim {
                usize::MAX => {
                    // Nothing left anywhere: this device is done.
                    parked[dev] = true;
                    continue;
                }
                v => match deques[v].pop_back() {
                    Some(item) => (item, Some(v)),
                    None => continue, // unreachable: non-empty by scan
                },
            }
        };

        let tl = &mut per_device[dev];
        if let Some(victim) = stolen_from {
            clocks[dev] += STEAL_LATENCY_MS;
            tl.busy_ms += STEAL_LATENCY_MS;
            tl.steals += 1;
            schedule.steal_log.push(StealEvent {
                thief: dev,
                victim,
                item,
            });
        }
        let shard = shards.get(item).copied().unwrap_or(0);
        if let Some(slot) = resident[dev].get_mut(shard) {
            if !*slot {
                *slot = true;
                let up = uploads.get(shard).copied().unwrap_or(0.0);
                clocks[dev] += up;
                tl.busy_ms += up;
                tl.upload_ms += up;
                tl.shards_resident += 1;
            }
        }
        clocks[dev] += costs[item];
        tl.busy_ms += costs[item];
        tl.items.push(item);
        schedule.assignment[item] = dev;
        remaining -= 1;
    }

    schedule.makespan_ms = clocks.iter().copied().fold(0.0, f64::max);
    schedule.per_device = per_device;
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_item_schedules() {
        let s = schedule_work_stealing(&[], &[], &[], 4, 1);
        assert_eq!(s.makespan_ms, 0.0);
        assert_eq!(s.total_steals(), 0);
        let s = schedule_work_stealing(&[3.0], &[0], &[0.5], 4, 1);
        assert_eq!(s.makespan_ms, 3.5, "one item: cost + its shard upload");
        assert_eq!(s.assignment, vec![s.assignment[0]]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let costs: Vec<f64> = (0..37).map(|i| 1.0 + (i % 7) as f64).collect();
        let shards: Vec<usize> = (0..37).map(|i| i % 5).collect();
        let uploads = vec![0.25; 5];
        let s = schedule_work_stealing(&costs, &shards, &uploads, 6, 9);
        let mut seen = vec![0usize; costs.len()];
        for tl in &s.per_device {
            for &i in &tl.items {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "each item exactly once");
        assert_eq!(s.assignment.len(), costs.len());
    }

    #[test]
    fn same_seed_reproduces_schedule_and_steal_order() {
        let costs: Vec<f64> = (0..64).map(|i| 1.0 + ((i * 31) % 13) as f64).collect();
        let shards: Vec<usize> = (0..64).map(|i| i % 8).collect();
        let uploads = vec![0.5; 8];
        let a = schedule_work_stealing(&costs, &shards, &uploads, 8, 42);
        let b = schedule_work_stealing(&costs, &shards, &uploads, 8, 42);
        assert_eq!(a, b, "same inputs, same seed: identical schedule");
    }

    #[test]
    fn stealing_rescues_a_skewed_seeding() {
        // One huge item plus many small ones: without stealing, the LPT
        // deque holding the small items after the giant would idle the
        // rest of the fleet. The makespan must beat the serial sum by a
        // wide margin and steals must actually happen.
        let mut costs = vec![100.0];
        costs.extend(std::iter::repeat_n(1.0, 99));
        let shards = vec![0usize; 100];
        let uploads = vec![0.0];
        let s = schedule_work_stealing(&costs, &shards, &uploads, 4, 7);
        let serial: f64 = costs.iter().sum();
        assert!(
            s.makespan_ms <= serial / 1.9,
            "4 devices must roughly halve"
        );
        assert!(s.makespan_ms >= 100.0, "bounded by the giant item");
    }

    #[test]
    fn uploads_charge_once_per_device_shard_pair() {
        // Two shards, four equal items each, two devices, huge uploads:
        // the best schedule keeps each shard on one device.
        let costs = vec![1.0; 8];
        let shards = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let uploads = vec![10.0, 10.0];
        let s = schedule_work_stealing(&costs, &shards, &uploads, 2, 3);
        let total_upload: f64 = s.per_device.iter().map(|d| d.upload_ms).sum();
        // At most every (device, shard) pair uploads; at least each shard
        // uploads somewhere.
        assert!((20.0..=40.0).contains(&total_upload));
        for tl in &s.per_device {
            assert_eq!(
                tl.upload_ms,
                10.0 * tl.shards_resident as f64,
                "upload charged exactly once per resident shard"
            );
        }
    }

    #[test]
    fn makespan_shrinks_with_devices() {
        let costs: Vec<f64> = (0..48).map(|i| 2.0 + (i % 5) as f64).collect();
        let shards: Vec<usize> = (0..48).map(|i| i % 8).collect();
        let uploads = vec![0.1; 8];
        let m = |d| schedule_work_stealing(&costs, &shards, &uploads, d, 1).makespan_ms;
        let (m1, m2, m4, m8) = (m(1), m(2), m(4), m(8));
        assert!(m2 < m1 && m4 < m2 && m8 < m4);
        assert!(m1 / m4 >= 2.0, "4 devices at least halve 48 even items");
    }
}
