//! The per-block tracer kernels report their execution to.
//!
//! A kernel closure receives one [`SimBlock`] per thread block and calls
//! these methods as it executes warp-wide steps. Each method both charges
//! the cost model and updates the counters behind the Fig. 19 metrics.
//! Lockstep style: when lanes of a warp would take different paths on real
//! hardware, the kernel calls [`SimBlock::instr`] once per serialized path
//! with that path's active lane count — the divergence overhead then falls
//! out of the counters with no further modelling.

use crate::cache::ReadOnlyCache;
use crate::device::{DeviceConfig, TRANSACTION_BYTES, WARP_SIZE};
use crate::stats::KernelStats;

/// Execution context of one simulated thread block.
pub struct SimBlock {
    /// Block index within the launch grid.
    pub block_id: u32,
    pub(crate) stats: KernelStats,
    pub(crate) rocache: Option<ReadOnlyCache>,
    device: DeviceConfig,
    scratch_lines: Vec<u64>,
}

impl SimBlock {
    pub(crate) fn new(block_id: u32, device: DeviceConfig, rocache: bool) -> Self {
        Self {
            block_id,
            stats: KernelStats::default(),
            rocache: rocache.then(ReadOnlyCache::kepler),
            device,
            scratch_lines: Vec::with_capacity(WARP_SIZE as usize),
        }
    }

    /// The device this block runs on.
    pub fn device(&self) -> &DeviceConfig {
        &self.device
    }

    /// One warp instruction with `active` (≤ 32) lanes enabled.
    #[inline]
    pub fn instr(&mut self, active: u32) {
        self.stats
            .record_instr(active.min(WARP_SIZE), self.device.instr_cost);
    }

    /// `count` back-to-back warp instructions with the same active mask.
    #[inline]
    pub fn instr_n(&mut self, active: u32, count: u64) {
        let active = active.min(WARP_SIZE);
        let cost = self.device.instr_cost * count;
        self.stats.warp_cycles += cost;
        self.stats.active_lane_cycles += active as u64 * cost;
        self.stats.divergent_idle_cycles += (WARP_SIZE - active) as u64 * cost;
    }

    /// Warp-wide global memory read: one byte address per active lane,
    /// `bytes` consumed per lane. Transactions are the distinct 128-byte
    /// lines touched (the Kepler coalescing rule).
    pub fn global_read(&mut self, addrs: &[u64], bytes: u32) {
        self.global_access(addrs, bytes, true);
    }

    /// Warp-wide global memory write; same coalescing model as reads, but
    /// excluded from the load-efficiency metric (as in the profiler).
    pub fn global_write(&mut self, addrs: &[u64], bytes: u32) {
        self.global_access(addrs, bytes, false);
    }

    fn global_access(&mut self, addrs: &[u64], bytes: u32, is_load: bool) {
        if addrs.is_empty() {
            return;
        }
        let tx = self.count_lines(addrs);
        self.charge_global(tx, addrs.len() as u32, bytes, is_load);
    }

    /// Warp-wide global read whose lane addresses form the arithmetic
    /// sequence `start + i * step` (`i < lanes`). Produces stats identical
    /// to [`Self::global_read`] over the materialized addresses, but the
    /// coalescing is computed analytically — no address buffer, no scan.
    #[inline]
    pub fn global_read_seq(&mut self, start: u64, lanes: u32, step: u32, bytes: u32) {
        if lanes == 0 {
            return;
        }
        self.charge_global(seq_lines(start, lanes, step), lanes, bytes, true);
    }

    /// Write counterpart of [`Self::global_read_seq`].
    #[inline]
    pub fn global_write_seq(&mut self, start: u64, lanes: u32, step: u32, bytes: u32) {
        if lanes == 0 {
            return;
        }
        self.charge_global(seq_lines(start, lanes, step), lanes, bytes, false);
    }

    fn charge_global(&mut self, tx: u64, active: u32, bytes: u32, is_load: bool) {
        let useful = active as u64 * bytes as u64;
        self.stats.global_transactions += tx;
        self.stats.global_transacted_bytes += tx * TRANSACTION_BYTES;
        self.stats.global_useful_bytes += useful;
        if is_load {
            self.stats.global_load_useful_bytes += useful;
            self.stats.global_load_transacted_bytes += tx * TRANSACTION_BYTES;
        }
        let cost = tx * self.device.global_transaction_cost;
        self.stats.warp_cycles += cost;
        self.stats.active_lane_cycles += active.min(WARP_SIZE) as u64 * cost;
        self.stats.divergent_idle_cycles += (WARP_SIZE.saturating_sub(active)) as u64 * cost;
    }

    /// Warp-wide read through the read-only cache (`const __restrict__`
    /// loads, §3.5). When the launch was configured without the cache the
    /// access degrades to an ordinary global read — exactly the
    /// with/without contrast of Fig. 17.
    pub fn readonly_read(&mut self, addrs: &[u64], bytes: u32) {
        if addrs.is_empty() {
            return;
        }
        match &mut self.rocache {
            None => self.global_access(addrs, bytes, true),
            Some(cache) => {
                // Distinct lines probe the cache once, in ascending order;
                // lanes are attributed to hits/misses proportionally to
                // their lines' outcomes.
                if !lines_of(addrs, &mut self.scratch_lines) {
                    sort_dedup(&mut self.scratch_lines);
                }
                let lines = self.scratch_lines.len() as u64;
                let mut hit_lines = 0u64;
                for &line in &self.scratch_lines {
                    hit_lines += cache.access_line(line) as u64;
                }
                let miss_lines = lines - hit_lines;
                let lane_hits = addrs.len() as u64 * hit_lines / lines;
                let lane_misses = addrs.len() as u64 - lane_hits;
                self.stats.rocache_hits += lane_hits;
                self.stats.rocache_misses += lane_misses;
                let cost = miss_lines * self.device.global_transaction_cost
                    + hit_lines.max(1) * self.device.rocache_hit_cost;
                let active = addrs.len() as u32;
                self.stats.warp_cycles += cost;
                self.stats.active_lane_cycles += active.min(WARP_SIZE) as u64 * cost;
                self.stats.divergent_idle_cycles +=
                    (WARP_SIZE.saturating_sub(active)) as u64 * cost;
            }
        }
    }

    /// Warp-wide shared-memory access (bank conflicts are not modelled;
    /// see DESIGN.md).
    pub fn shared_access(&mut self, active: u32) {
        self.stats.shared_accesses += 1;
        let cost = self.device.shared_access_cost;
        let active = active.min(WARP_SIZE);
        self.stats.warp_cycles += cost;
        self.stats.active_lane_cycles += active as u64 * cost;
        self.stats.divergent_idle_cycles += (WARP_SIZE - active) as u64 * cost;
    }

    /// Warp-wide atomic on shared memory: one target address per active
    /// lane. Lanes hitting the same address serialize (paper §3.2 uses
    /// shared-memory atomics for the bin `top` array precisely because
    /// they are cheap relative to global atomics).
    pub fn atomic_shared(&mut self, targets: &[u64]) {
        if targets.is_empty() {
            return;
        }
        self.stats.atomic_ops += targets.len() as u64;
        let max_conflict = self.max_duplicates(targets);
        let serial_steps = max_conflict.saturating_sub(1);
        self.stats.atomic_conflicts += serial_steps;
        let cost = self.device.shared_access_cost + serial_steps * self.device.atomic_conflict_cost;
        let active = (targets.len() as u32).min(WARP_SIZE);
        self.stats.warp_cycles += cost;
        self.stats.active_lane_cycles += active as u64 * cost;
        self.stats.divergent_idle_cycles += (WARP_SIZE - active) as u64 * cost;
    }

    /// [`Self::atomic_shared`] for callers that already know the worst
    /// per-address conflict of the warp (e.g. a binning kernel tracking
    /// per-bin counts anyway). Charges stats identical to
    /// `atomic_shared` over `lanes` targets whose maximal duplicate
    /// count is `max_conflict` — no target list, no counting.
    #[inline]
    pub fn atomic_shared_counted(&mut self, lanes: u32, max_conflict: u64) {
        if lanes == 0 {
            return;
        }
        debug_assert!(max_conflict >= 1 && max_conflict <= lanes as u64);
        self.stats.atomic_ops += lanes as u64;
        let serial_steps = max_conflict - 1;
        self.stats.atomic_conflicts += serial_steps;
        let cost = self.device.shared_access_cost + serial_steps * self.device.atomic_conflict_cost;
        let active = lanes.min(WARP_SIZE);
        self.stats.warp_cycles += cost;
        self.stats.active_lane_cycles += active as u64 * cost;
        self.stats.divergent_idle_cycles += (WARP_SIZE - active) as u64 * cost;
    }

    /// Warp-wide atomic on global memory (more expensive; used when a
    /// kernel spills its per-block buffers).
    pub fn atomic_global(&mut self, targets: &[u64]) {
        if targets.is_empty() {
            return;
        }
        self.stats.atomic_ops += targets.len() as u64;
        let serial_steps = self.max_duplicates(targets).saturating_sub(1);
        self.stats.atomic_conflicts += serial_steps;
        let cost = self.device.global_transaction_cost
            + serial_steps * self.device.atomic_conflict_cost * 2;
        let active = (targets.len() as u32).min(WARP_SIZE);
        self.stats.warp_cycles += cost;
        self.stats.active_lane_cycles += active as u64 * cost;
        self.stats.divergent_idle_cycles += (WARP_SIZE - active) as u64 * cost;
    }

    /// Charge a *lockstep batch*: each lane of a warp runs a serialized
    /// piece of work costing `lane_cycles[l]` cycles; the warp takes the
    /// maximum, lanes that finish early idle (SIMT semantics). This is how
    /// the extension kernels account loops whose trip counts differ per
    /// lane without simulating every step individually.
    pub fn lockstep(&mut self, lane_cycles: &[u64]) {
        if lane_cycles.is_empty() {
            return;
        }
        debug_assert!(lane_cycles.len() <= WARP_SIZE as usize);
        let max = lane_cycles.iter().copied().max().unwrap_or(0);
        let sum: u64 = lane_cycles.iter().sum();
        self.stats.warp_cycles += max;
        self.stats.active_lane_cycles += sum;
        self.stats.divergent_idle_cycles += WARP_SIZE as u64 * max - sum;
    }

    /// Record memory traffic whose cycle cost was already folded into a
    /// [`Self::lockstep`] batch: `global_tx` 128-byte transactions moving
    /// `useful_bytes` of requested data (counted as loads), plus
    /// `shared_accesses` warp-wide shared-memory operations.
    pub fn bulk_traffic(&mut self, global_tx: u64, useful_bytes: u64, shared_accesses: u64) {
        self.stats.global_transactions += global_tx;
        self.stats.global_transacted_bytes += global_tx * TRANSACTION_BYTES;
        self.stats.global_useful_bytes += useful_bytes;
        self.stats.global_load_useful_bytes += useful_bytes;
        self.stats.global_load_transacted_bytes += global_tx * TRANSACTION_BYTES;
        self.stats.shared_accesses += shared_accesses;
    }

    /// Block-wide barrier (`__syncthreads()`); charged per resident warp.
    pub fn sync(&mut self, warps_in_block: u32) {
        self.instr_n(WARP_SIZE, warps_in_block.max(1) as u64);
    }

    /// Count distinct 128-byte lines among the addresses. Kernel address
    /// streams are overwhelmingly ascending (coalesced reads and writes),
    /// where the line list is the answer as it stands; a scattered warp
    /// access (the binning kernel's hit writes) counts first occurrences
    /// with all-pairs equality — no ordering needed for a count.
    fn count_lines(&mut self, addrs: &[u64]) -> u64 {
        let ascending = lines_of(addrs, &mut self.scratch_lines);
        let lines = &mut self.scratch_lines;
        if !ascending && lines.len() <= WARP_SIZE as usize {
            let mut distinct = 0u64;
            for (i, &line) in lines.iter().enumerate() {
                let seen = lines[..i].iter().fold(false, |s, &l| s | (l == line));
                distinct += !seen as u64;
            }
            return distinct;
        }
        if !ascending {
            sort_dedup(lines);
        }
        lines.len() as u64
    }

    /// Worst per-address conflict among the targets (allocation-free: the
    /// targets are copied into the block's scratch buffer and sorted).
    fn max_duplicates(&mut self, targets: &[u64]) -> u64 {
        self.scratch_lines.clear();
        self.scratch_lines.extend_from_slice(targets);
        self.scratch_lines.sort_unstable();
        max_run(&self.scratch_lines)
    }

    /// Read access to the counters accumulated so far (tests and nested
    /// instrumentation).
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }
}

/// Distinct 128-byte lines touched by the ascending arithmetic address
/// sequence `start + i * step` (`i < lanes`, `lanes > 0`). With a step of
/// at least one line every address lands on its own line; below that the
/// line index is non-decreasing and never skips, so the count is the
/// first-to-last line span.
fn seq_lines(start: u64, lanes: u32, step: u32) -> u64 {
    if step as u64 >= TRANSACTION_BYTES {
        lanes as u64
    } else {
        let last = start + (lanes as u64 - 1) * step as u64;
        last / TRANSACTION_BYTES - start / TRANSACTION_BYTES + 1
    }
}

/// The 128-byte line of every address, in lane order, into `lines` —
/// skipping a line equal to its predecessor, which is most of what a warp
/// access repeats (neighbouring lanes share a line). Returns whether the
/// result is strictly ascending, i.e. already the distinct set in order.
fn lines_of(addrs: &[u64], lines: &mut Vec<u64>) -> bool {
    lines.clear();
    let mut ascending = true;
    let mut prev = u64::MAX;
    for &a in addrs {
        let line = a / TRANSACTION_BYTES;
        if line != prev {
            ascending &= prev == u64::MAX || line > prev;
            lines.push(line);
            prev = line;
        }
    }
    ascending
}

/// Sort `lines` ascending and drop duplicates. A warp's worth (≤ 32, the
/// only size the kernels produce) is placed by rank — each value's count
/// of smaller-or-earlier-equal values is its sorted index — and compacted
/// in one pass: all selects, no data-dependent branch, where a comparison
/// sort on these random line numbers mispredicts every other compare.
fn sort_dedup(lines: &mut Vec<u64>) {
    let n = lines.len();
    if n > WARP_SIZE as usize {
        lines.sort_unstable();
        lines.dedup();
        return;
    }
    let mut sorted = [0u64; WARP_SIZE as usize];
    for (i, &v) in lines.iter().enumerate() {
        let before = lines[..i].iter().filter(|&&l| l <= v).count();
        let after = lines[i + 1..].iter().filter(|&&l| l < v).count();
        sorted[before + after] = v;
    }
    let mut kept = 0;
    for i in 0..n {
        lines[kept] = sorted[i];
        kept += (i + 1 == n || sorted[i] != sorted[i + 1]) as usize;
    }
    lines.truncate(kept);
}

/// Longest run of equal values in a sorted slice.
fn max_run(sorted: &[u64]) -> u64 {
    let mut best = 1u64;
    let mut run = 1u64;
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            run += 1;
            best = best.max(run);
        } else {
            run = 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block() -> SimBlock {
        SimBlock::new(0, DeviceConfig::k20c(), false)
    }

    #[test]
    fn coalesced_read_uses_minimal_transactions() {
        let mut b = block();
        // 32 lanes × 4 bytes consecutive = 128 bytes = 1 transaction.
        let addrs: Vec<u64> = (0..32).map(|i| 0x1000 + i * 4).collect();
        b.global_read(&addrs, 4);
        assert_eq!(b.stats().global_transactions, 1);
        assert!((b.stats().global_load_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strided_read_wastes_bandwidth() {
        let mut b = block();
        // 32 lanes × 4 bytes, 128-byte stride = 32 transactions.
        let addrs: Vec<u64> = (0..32).map(|i| 0x1000 + i * 128).collect();
        b.global_read(&addrs, 4);
        assert_eq!(b.stats().global_transactions, 32);
        assert!((b.stats().global_load_efficiency() - 4.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn partial_warp_instr_counts_divergence() {
        let mut b = block();
        b.instr(8);
        assert!((b.stats().divergence_overhead() - 0.75).abs() < 1e-12);
        b.instr_n(32, 3);
        assert!(b.stats().divergence_overhead() < 0.75);
    }

    #[test]
    fn atomic_conflicts_serialize() {
        let mut b = block();
        // All 32 lanes hit the same shared counter.
        let targets = vec![0x42u64; 32];
        b.atomic_shared(&targets);
        assert_eq!(b.stats().atomic_ops, 32);
        assert_eq!(b.stats().atomic_conflicts, 31);
        let serialized = b.stats().warp_cycles;

        let mut b2 = block();
        // Conflict-free atomics across 32 distinct addresses.
        let targets: Vec<u64> = (0..32u64).collect();
        b2.atomic_shared(&targets);
        assert_eq!(b2.stats().atomic_conflicts, 0);
        assert!(b2.stats().warp_cycles < serialized);
    }

    #[test]
    fn readonly_cache_hits_are_cheaper_than_global() {
        let addrs: Vec<u64> = (0..32).map(|i| 0x2000 + i * 4).collect();
        let mut cached = SimBlock::new(0, DeviceConfig::k20c(), true);
        cached.readonly_read(&addrs, 4); // cold: install
        let cold = cached.stats().warp_cycles;
        cached.readonly_read(&addrs, 4); // warm: hit
        let warm = cached.stats().warp_cycles - cold;
        assert!(warm < cold, "warm {warm} vs cold {cold}");
        assert!(cached.stats().rocache_hits > 0);

        let mut uncached = SimBlock::new(0, DeviceConfig::k20c(), false);
        uncached.readonly_read(&addrs, 4);
        uncached.readonly_read(&addrs, 4);
        assert!(uncached.stats().warp_cycles > cached.stats().warp_cycles);
        // Without the cache the traffic shows up as global transactions.
        assert!(uncached.stats().global_transactions > 0);
        assert_eq!(cached.stats().global_transactions, 0);
    }

    #[test]
    fn empty_accesses_are_free() {
        let mut b = block();
        b.global_read(&[], 4);
        b.atomic_shared(&[]);
        b.readonly_read(&[], 4);
        assert_eq!(b.stats().warp_cycles, 0);
    }

    #[test]
    fn max_run_counts_worst_conflict() {
        assert_eq!(max_run(&[1, 2, 3]), 1);
        assert_eq!(max_run(&[1, 1, 2, 2, 2]), 3);
        assert_eq!(max_run(&[5]), 1);
        // Via the atomic path, unsorted targets give the same answer.
        let mut b = block();
        assert_eq!(b.max_duplicates(&[2, 1, 2, 2, 1]), 3);
    }

    #[test]
    fn unsorted_addresses_count_the_same_lines_as_sorted() {
        let addrs: Vec<u64> = vec![0x3000, 0x1000, 0x2000, 0x1040, 0x3000];
        let mut a = block();
        a.global_read(&addrs, 4);
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        let mut b = block();
        b.global_read(&sorted, 4);
        assert_eq!(a.stats().global_transactions, b.stats().global_transactions);
        assert_eq!(a.stats().global_transactions, 3);
    }

    /// A warp access shaped by `shape` out of raw draws: the address
    /// patterns the kernels produce plus the degenerate ones.
    fn shaped_addrs(raw: &[u64], shape: u8, stride: u64) -> Vec<u64> {
        let base = 0x4_0000u64;
        let n = raw.len() as u64;
        raw.iter()
            .enumerate()
            .map(|(i, &r)| {
                let i = i as u64;
                match shape {
                    // Scattered over a few lines: many non-adjacent duplicates.
                    0 => base + r % (6 * TRANSACTION_BYTES),
                    // Scattered wide: mostly distinct lines.
                    1 => base + r % (1 << 20),
                    // Descending run, possibly several lanes per line.
                    2 => base + (n - i) * stride,
                    // Ascending run whose stride straddles line boundaries.
                    3 => base + 100 + i * stride,
                    // Every lane on one address.
                    4 => base + 77,
                    // Ascending runs that restart (the lanes' posting lists).
                    _ => base + (r % 4) * 8 * TRANSACTION_BYTES + (i % 5) * stride,
                }
            })
            .collect()
    }

    fn reference_lines(addrs: &[u64]) -> Vec<u64> {
        let mut lines: Vec<u64> = addrs.iter().map(|a| a / TRANSACTION_BYTES).collect();
        lines.sort_unstable();
        lines.dedup();
        lines
    }

    /// `readonly_read` as it stood before the rank placement: collect the
    /// lines, comparison-sort unless already ordered, dedup, probe.
    fn reference_readonly_read(b: &mut SimBlock, addrs: &[u64]) {
        let lines = reference_lines(addrs);
        let cache = b.rocache.as_mut().expect("cached block");
        let hit_lines = lines
            .iter()
            .filter(|&&l| cache.access(l * TRANSACTION_BYTES))
            .count() as u64;
        let miss_lines = lines.len() as u64 - hit_lines;
        let lane_hits = addrs.len() as u64 * hit_lines / lines.len() as u64;
        b.stats.rocache_hits += lane_hits;
        b.stats.rocache_misses += addrs.len() as u64 - lane_hits;
        let cost = miss_lines * b.device.global_transaction_cost
            + hit_lines.max(1) * b.device.rocache_hit_cost;
        let active = addrs.len() as u32;
        b.stats.warp_cycles += cost;
        b.stats.active_lane_cycles += active.min(WARP_SIZE) as u64 * cost;
        b.stats.divergent_idle_cycles += (WARP_SIZE.saturating_sub(active)) as u64 * cost;
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The distinct-line count and the probe list against their
        /// definition (`sort_unstable` + `dedup` of `addr / 128`), warp
        /// sized and past the > 32 fallback.
        #[test]
        fn line_sets_match_sort_and_dedup(
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..=40usize),
            shape in 0u8..6,
            stride in 1u64..300,
        ) {
            let addrs = shaped_addrs(&raw, shape, stride);
            let want = reference_lines(&addrs);
            proptest::prop_assert_eq!(block().count_lines(&addrs), want.len() as u64);
            let mut lines = Vec::new();
            if !lines_of(&addrs, &mut lines) {
                sort_dedup(&mut lines);
            }
            proptest::prop_assert_eq!(lines, want);
        }

        /// `readonly_read` leaves the same stats *and* the same cache —
        /// judged by the hit/miss sequence of later probes — as the
        /// reference algorithm, over a run of accesses that share lines.
        #[test]
        fn readonly_read_matches_reference_algorithm(
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..=40usize),
            shapes in (0u8..6, 0u8..6, 0u8..6),
            stride in 1u64..300,
        ) {
            let mut got = SimBlock::new(0, DeviceConfig::k20c(), true);
            let mut want = SimBlock::new(0, DeviceConfig::k20c(), true);
            for shape in [shapes.0, shapes.1, shapes.2] {
                let addrs = shaped_addrs(&raw, shape, stride);
                got.readonly_read(&addrs, 4);
                reference_readonly_read(&mut want, &addrs);
                proptest::prop_assert_eq!(got.stats(), want.stats());
            }
            for probe in shaped_addrs(&raw, 0, stride) {
                let (g, w) = (got.rocache.as_mut(), want.rocache.as_mut());
                proptest::prop_assert_eq!(
                    g.map(|c| c.access(probe)),
                    w.map(|c| c.access(probe))
                );
            }
        }
    }

    #[test]
    fn counted_atomic_matches_target_list() {
        for targets in [
            vec![1u64, 2, 3, 4],
            vec![7, 7, 7, 1, 2],
            vec![5],
            (0..32u64).map(|i| i % 3).collect(),
        ] {
            let max = {
                let mut s = targets.clone();
                s.sort_unstable();
                let (mut best, mut run) = (1u64, 1u64);
                for w in s.windows(2) {
                    run = if w[0] == w[1] { run + 1 } else { 1 };
                    best = best.max(run);
                }
                best
            };
            let mut a = block();
            a.atomic_shared(&targets);
            let mut b = block();
            b.atomic_shared_counted(targets.len() as u32, max);
            assert_eq!(format!("{:?}", a.stats()), format!("{:?}", b.stats()));
        }
        let mut b = block();
        b.atomic_shared_counted(0, 0);
        assert_eq!(b.stats().atomic_ops, 0);
    }

    #[test]
    fn seq_access_matches_materialized_addresses() {
        for (start, lanes, step, bytes) in [
            (0x1000u64, 32u32, 4u32, 4u32), // coalesced full warp
            (0x1003, 17, 1, 3),             // byte stride, partial warp
            (0x2000, 32, 8, 8),             // 8-byte keys
            (0x2fe0, 9, 16, 8),             // straddles a line boundary
            (0x4000, 32, 128, 4),           // one line per lane
            (0x4000, 5, 300, 4),            // beyond a line per lane
            (0x5001, 1, 8, 8),              // single lane
        ] {
            let addrs: Vec<u64> = (0..lanes as u64).map(|i| start + i * step as u64).collect();
            let mut a = block();
            a.global_read(&addrs, bytes);
            a.global_write(&addrs, bytes);
            let mut b = block();
            b.global_read_seq(start, lanes, step, bytes);
            b.global_write_seq(start, lanes, step, bytes);
            assert_eq!(
                format!("{:?}", a.stats()),
                format!("{:?}", b.stats()),
                "start={start:#x} lanes={lanes} step={step} bytes={bytes}"
            );
        }
        // Zero lanes is free, like an empty address slice.
        let mut b = block();
        b.global_read_seq(0x1000, 0, 4, 4);
        b.global_write_seq(0x1000, 0, 4, 4);
        assert_eq!(b.stats().warp_cycles, 0);
    }

    #[test]
    fn sync_charges_per_warp() {
        let mut b = block();
        b.sync(4);
        assert_eq!(b.stats().warp_cycles, 4);
        assert_eq!(b.stats().divergence_overhead(), 0.0);
    }
}
