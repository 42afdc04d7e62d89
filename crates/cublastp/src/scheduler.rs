//! The fleet schedule of the sharded engine (DESIGN.md §3.10).
//!
//! Work items are (query × shard) searches whose cost on the
//! `DeviceModel` clock is known before the schedule starts, so the
//! schedule is a pure function of `(costs, fixed, shards, uploads,
//! devices)` and balances nothing at run time: LPT list scheduling.
//! Items are taken longest first (item id ascending on ties) and each
//! goes to the device that would finish it first — the device's clock,
//! plus the item's price there, plus the shard's H2D upload unless the
//! shard is already resident; ties go to the lowest device index.
//!
//! The first touch of a shard on a device pays the shard's upload and
//! the item's whole cost. A later item of the same shard joins the
//! device passes already there (the device bills its items on one shard
//! as one group), so it pays its cost less its fixed part — the launch
//! overheads and link latencies it shares. Upload and fixed part are one
//! affinity: an item stays with its shard whenever that finishes no later
//! than a fresh device would.
//!
//! At one device the loop is the left fold of the items in LPT order,
//! each shard's upload and first item at full price, the rest at their
//! shared price, so the single-device estimate is that fold bit for bit.
//! At any device count the estimate is no longer than at one device: an
//! item whose shard was seen can always run where it is resident, no
//! later than in the fold. It is *not* monotone in the device count —
//! LPT has rare anomalies where one more device finishes later.
//!
//! The schedule is the placement. What a sharded batch reports is that
//! placement billed: each device's clock becomes its uploads plus the
//! exact bills of its groups (`shard::ShardedBatchOutcome::reschedule`).

/// Inert: the fleet schedule has no seed. Kept only because the
/// `benchmark/` package names it; ROADMAP item 1 removes it.
pub const DEFAULT_STEAL_SEED: u64 = 0x5EED_CB1A;

/// One batch unit of a device's timeline: the items it ran on one shard,
/// billed as one group of device passes (DESIGN.md §3.10).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceGroup {
    /// The shard the group's passes read.
    pub shard: usize,
    /// Queries that share the group's passes.
    pub members: usize,
    /// Device passes billed.
    pub passes: usize,
    /// The passes' launches and legs (`DeviceModel`).
    pub bill_ms: f64,
}

/// One device's timeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceTimeline {
    /// Modelled busy time (`DeviceModel`) — the device's clock after its
    /// last item: first-touch shard uploads plus, in a billed schedule,
    /// the exact bills of its groups ([`schedule_fleet`] alone leaves the
    /// placement's estimate here).
    pub busy_ms: f64,
    /// Of which, time spent uploading shards on first touch.
    pub upload_ms: f64,
    /// Items this device executed, in execution order.
    pub items: Vec<usize>,
    /// Distinct shards resident on this device at the end of the run.
    pub shards_resident: usize,
    /// A billed schedule's groups, in shard order; empty in a placement.
    pub groups: Vec<DeviceGroup>,
}

/// The complete schedule: per-device timelines plus the merged view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSchedule {
    /// One timeline per device.
    pub per_device: Vec<DeviceTimeline>,
    /// Makespan: the busiest device's clock when its last item finishes.
    pub makespan_ms: f64,
    /// Device each item ran on (`assignment[item] = device`).
    pub assignment: Vec<usize>,
}

impl FleetSchedule {
    /// Inert: always 0, the schedule steals nothing. Kept only because the
    /// `benchmark/` package reads it; ROADMAP item 1 removes it.
    pub fn total_steals(&self) -> u64 {
        0
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

/// Schedule `costs.len()` work items over `devices` identical simulated
/// devices by LPT list scheduling (see the module docs).
///
/// * `costs[i]` — modelled cost of item `i` alone, in ms.
/// * `fixed[i]` — the part of it item `i` shares with a group already on
///   its device (0 where missing).
/// * `shards[i]` — shard item `i` reads; the first item of a shard on a
///   device charges `uploads[shard]` and its whole cost to that device
///   (per-shard residence), every later one its cost less its fixed part.
///
/// Zero devices is treated as one; zero items yields an empty schedule.
pub fn schedule_fleet(
    costs: &[f64],
    fixed: &[f64],
    shards: &[usize],
    uploads: &[f64],
    devices: usize,
) -> FleetSchedule {
    let mut per_device = vec![DeviceTimeline::default(); devices.max(1)];
    let mut resident = vec![vec![false; uploads.len()]; per_device.len()];
    let mut assignment = vec![0; costs.len()];
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for item in order {
        let shard = shards.get(item).copied().unwrap_or(0);
        let joined = costs[item] - fixed.get(item).copied().unwrap_or(0.0);
        // What the item adds to device `d`: the upload and its whole cost
        // on first touch, its shared price where its shard is resident.
        let price = |d: usize| match resident[d].get(shard) {
            Some(false) => (uploads[shard], costs[item]),
            Some(true) => (0.0, joined),
            None => (0.0, costs[item]),
        };
        let finish = |d: usize| {
            let (upload, cost) = price(d);
            per_device[d].busy_ms + upload + cost
        };
        // `min_by` keeps the first of equal minima: the lowest index.
        let dev = (0..per_device.len())
            .min_by(|&a, &b| finish(a).total_cmp(&finish(b)))
            .unwrap_or(0);
        let (upload, cost) = price(dev);
        let tl = &mut per_device[dev];
        if let Some(slot) = resident[dev].get_mut(shard).filter(|r| !**r) {
            *slot = true;
            tl.busy_ms += upload;
            tl.upload_ms += upload;
            tl.shards_resident += 1;
        }
        tl.busy_ms += cost;
        tl.items.push(item);
        assignment[item] = dev;
    }
    FleetSchedule {
        makespan_ms: per_device.iter().map(|d| d.busy_ms).fold(0.0, f64::max),
        per_device,
        assignment,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-device schedule written out: the items in LPT order (cost
    /// descending, id ascending), each shard's upload added before its
    /// first item's whole cost, every later item at its cost less its
    /// fixed part.
    pub(crate) fn lpt_fold(costs: &[f64], fixed: &[f64], shards: &[usize], uploads: &[f64]) -> f64 {
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
        let mut seen = vec![false; uploads.len()];
        order.into_iter().fold(0.0, |clock, item| {
            let s = shards[item];
            let clock = match seen[s] {
                true => clock + (costs[item] - fixed[item]),
                false => clock + uploads[s] + costs[item],
            };
            seen[s] = true;
            clock
        })
    }

    /// One generated case.
    type Items = (Vec<f64>, Vec<f64>, Vec<usize>, Vec<f64>);

    /// Costs, fixed parts, shards and uploads of one generated case: each
    /// `(u, shard, f)` draw becomes a heavy-tailed cost in 0.01…100 ms
    /// (most items small, a few giants) on one of `n_shards` shards, of
    /// which the fraction `f` (up to a half) is fixed; uploads are up to
    /// 2 ms, and one case in four uploads for free.
    fn case(draws: &[(f64, usize, f64)], raw_uploads: &[f64], n_shards: usize) -> Items {
        let costs: Vec<f64> = draws
            .iter()
            .map(|&(u, ..)| 0.01 + 100.0 * u.powi(6))
            .collect();
        let fixed = (costs.iter().zip(draws))
            .map(|(&c, &(.., f))| c * f)
            .collect();
        let shards = draws.iter().map(|&(_, s, _)| s % n_shards).collect();
        let free = raw_uploads[0] < 0.5;
        let uploads = (raw_uploads[..n_shards].iter())
            .map(|&u| if free { 0.0 } else { u })
            .collect();
        (costs, fixed, shards, uploads)
    }

    fn strategy_draws() -> impl Strategy<Value = Vec<(f64, usize, f64)>> {
        prop::collection::vec((0.0f64..1.0, 0usize..8, 0.0f64..0.5), 0..80)
    }

    fn strategy_uploads() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(0.0f64..2.0, 8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_item_runs_exactly_once(
            draws in strategy_draws(),
            raw in strategy_uploads(),
            n_shards in 1usize..=8,
            devices in 1usize..=9,
        ) {
            let (costs, fixed, shards, uploads) = case(&draws, &raw, n_shards);
            let s = schedule_fleet(&costs, &fixed, &shards, &uploads, devices);
            prop_assert_eq!(s.per_device.len(), devices);
            let mut seen = vec![0usize; costs.len()];
            for (d, tl) in s.per_device.iter().enumerate() {
                for &i in &tl.items {
                    seen[i] += 1;
                    prop_assert_eq!(s.assignment[i], d);
                }
            }
            prop_assert!(seen.iter().all(|&c| c == 1), "each item exactly once: {seen:?}");
        }

        #[test]
        fn uploads_charge_once_per_device_shard_pair(
            draws in strategy_draws(),
            raw in strategy_uploads(),
            n_shards in 1usize..=8,
            devices in 1usize..=9,
        ) {
            let (costs, fixed, shards, uploads) = case(&draws, &raw, n_shards);
            let s = schedule_fleet(&costs, &fixed, &shards, &uploads, devices);
            for (d, tl) in s.per_device.iter().enumerate() {
                // Resident = a shard one of this device's items read, in
                // first-touch order; billed exactly once each.
                let mut resident: Vec<usize> = Vec::new();
                for &i in &tl.items {
                    if !resident.contains(&shards[i]) {
                        resident.push(shards[i]);
                    }
                }
                let billed = resident.iter().fold(0.0, |sum, &r| sum + uploads[r]);
                prop_assert_eq!(tl.shards_resident, resident.len(), "device {}", d);
                prop_assert_eq!(tl.upload_ms.to_bits(), billed.to_bits(), "device {}", d);
            }
        }

        #[test]
        fn makespan_is_within_the_list_scheduling_bounds(
            draws in strategy_draws(),
            raw in strategy_uploads(),
            n_shards in 1usize..=8,
            devices in 1usize..=9,
        ) {
            let (costs, fixed, shards, uploads) = case(&draws, &raw, n_shards);
            let s = schedule_fleet(&costs, &fixed, &shards, &uploads, devices);
            let mean = s.per_device.iter().map(|d| d.busy_ms).sum::<f64>() / devices as f64;
            let max_cost = costs.iter().copied().fold(0.0, f64::max);
            let max_item = (costs.iter().zip(&shards))
                .map(|(&c, &sh)| c + uploads[sh])
                .fold(0.0, f64::max);
            let slack = 1e-9 * (1.0 + mean);
            let m = s.makespan_ms;
            prop_assert!(m + slack >= mean.max(max_cost), "{m} < max({mean}, {max_cost})");
            prop_assert!(m <= mean + max_item + slack, "{m} > {mean} + {max_item}");
        }

        #[test]
        fn more_devices_never_outlast_one(
            draws in strategy_draws(),
            raw in strategy_uploads(),
            n_shards in 1usize..=8,
            devices in 2usize..=9,
        ) {
            let (costs, fixed, shards, uploads) = case(&draws, &raw, n_shards);
            let one = schedule_fleet(&costs, &fixed, &shards, &uploads, 1).makespan_ms;
            let many = schedule_fleet(&costs, &fixed, &shards, &uploads, devices).makespan_ms;
            prop_assert!(many <= one, "{devices} devices: {many} > {one}");
        }

        #[test]
        fn one_device_is_the_lpt_left_fold(
            draws in strategy_draws(),
            raw in strategy_uploads(),
            n_shards in 1usize..=8,
        ) {
            let (costs, fixed, shards, uploads) = case(&draws, &raw, n_shards);
            let s = schedule_fleet(&costs, &fixed, &shards, &uploads, 1);
            let fold = lpt_fold(&costs, &fixed, &shards, &uploads);
            prop_assert_eq!(s.makespan_ms.to_bits(), fold.to_bits(), "{} vs {}", s.makespan_ms, fold);
        }
    }

    #[test]
    fn empty_and_single_item_schedules() {
        let s = schedule_fleet(&[], &[], &[], &[], 4);
        assert_eq!(s.makespan_ms, 0.0);
        assert_eq!(s.per_device.len(), 4);
        let s = schedule_fleet(&[3.0], &[1.0], &[0], &[0.5], 4);
        assert_eq!(s.makespan_ms, 3.5, "one item: cost + its shard upload");
        assert_eq!(s.assignment, vec![0], "ties go to the lowest device");
    }

    #[test]
    fn a_giant_item_bounds_the_makespan() {
        // One item as large as the 99 small ones together: the giant runs
        // alone on one device, the rest spread over the other three.
        let mut costs = vec![100.0];
        costs.extend(std::iter::repeat_n(1.0, 99));
        let s = schedule_fleet(&costs, &[], &[0; 100], &[0.0], 4);
        assert_eq!(s.makespan_ms, 100.0, "bounded by the giant item alone");
        assert_eq!(s.per_device[s.assignment[0]].items, vec![0]);
    }

    #[test]
    fn a_resident_shard_keeps_an_item_a_fresh_upload_would_delay() {
        // Device 0 takes the 11 ms item of shard 1 (16 ms with its
        // upload), device 1 the 10 ms item of shard 0 (15 ms). The last
        // item, of shard 1, would end at 17 ms on device 1 before its
        // 5 ms upload and at 22 ms after it: it stays with its shard and
        // ends at 18 ms.
        let s = schedule_fleet(&[10.0, 11.0, 2.0], &[], &[0, 1, 1], &[5.0, 5.0], 2);
        assert_eq!(s.assignment, vec![1, 0, 0]);
        assert_eq!(s.makespan_ms, 18.0);
        assert_eq!(
            (s.per_device[0].upload_ms, s.per_device[1].upload_ms),
            (5.0, 5.0)
        );
    }

    #[test]
    fn a_later_item_of_a_resident_shard_pays_its_shared_price() {
        // Device 0 takes shard 0's 10 ms item, device 1 shard 1's 9 ms
        // item. Shard 0's 8 ms item, 6 ms of it fixed, joins device 0's
        // group for 2 ms (12 ms) rather than start a group on device 1
        // (17 ms); plain LPT on whole costs would put it there.
        let (costs, fixed) = ([10.0, 9.0, 8.0], [1.0, 1.0, 6.0]);
        let s = schedule_fleet(&costs, &fixed, &[0, 1, 0], &[0.0, 0.0], 2);
        assert_eq!(s.assignment, vec![0, 1, 0]);
        assert_eq!(s.makespan_ms, 12.0);
        let plain = schedule_fleet(&costs, &[], &[0, 1, 0], &[0.0, 0.0], 2);
        assert_eq!(plain.assignment, vec![0, 1, 1]);
    }

    #[test]
    fn makespan_shrinks_with_devices() {
        let costs: Vec<f64> = (0..48).map(|i| 2.0 + (i % 5) as f64).collect();
        let shards: Vec<usize> = (0..48).map(|i| i % 8).collect();
        let uploads = vec![0.1; 8];
        let m = |d| schedule_fleet(&costs, &[], &shards, &uploads, d).makespan_ms;
        let (m1, m2, m4, m8) = (m(1), m(2), m(4), m(8));
        assert!(m2 < m1 && m4 < m2 && m8 < m4);
        assert!(m1 / m4 >= 2.0, "4 devices at least halve 48 even items");
    }
}
