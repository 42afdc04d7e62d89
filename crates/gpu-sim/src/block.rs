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

    /// Warp-wide reads through the read-only cache (`const __restrict__`
    /// loads, §3.5) of a lane-ordered address stream given as contiguous
    /// *runs*: run `(base, len)` stands for the addresses `base + k * bytes`,
    /// `k < len`, with `bytes` (at most one line) consumed per address. The
    /// stream is cut into warp accesses of 32 addresses — a run may straddle
    /// two — and every access probes its distinct lines once, in ascending
    /// order; lanes are attributed to hits and misses in proportion to their
    /// lines' outcomes. When the launch was configured without the cache
    /// each access degrades to an ordinary global read — exactly the
    /// with/without contrast of Fig. 17.
    ///
    /// The host cost follows the runs, not the addresses: a run's piece of
    /// an access touches the lines between its two ends, so the access's
    /// line set is built from run ends and ordered through a bitmap.
    pub fn readonly_read_runs(&mut self, runs: &[(u64, u32)], bytes: u32) {
        debug_assert!(
            bytes as u64 <= TRANSACTION_BYTES,
            "a run must not skip lines"
        );
        let mut bitmap = [0u64; BITMAP_WORDS];
        let mut pieces = [(0u64, 0u64); WARP_SIZE as usize];
        let mut n_pieces = 0;
        let mut lanes = 0u32;
        for &(mut base, mut len) in runs {
            // Written without a branch on the run's length — every other
            // lane's run is empty, which no predictor learns: an empty
            // piece is written and not counted. The loop repeats only for
            // a run that fills the access.
            loop {
                let take = len.min(WARP_SIZE - lanes);
                let last = base + (take.max(1) as u64 - 1) * bytes as u64;
                pieces[n_pieces] = (base / TRANSACTION_BYTES, last / TRANSACTION_BYTES);
                n_pieces += (take > 0) as usize;
                lanes += take;
                len -= take;
                if lanes < WARP_SIZE {
                    break;
                }
                self.readonly_access(&pieces[..n_pieces], &mut bitmap, lanes, bytes);
                n_pieces = 0;
                lanes = 0;
                base = last + bytes as u64;
            }
        }
        if lanes > 0 {
            self.readonly_access(&pieces[..n_pieces], &mut bitmap, lanes, bytes);
        }
    }

    /// One warp access of `active` lanes through the read-only cache,
    /// touching the lines of `pieces`.
    fn readonly_access(
        &mut self,
        pieces: &[(u64, u64)],
        bitmap: &mut [u64; BITMAP_WORDS],
        active: u32,
        bytes: u32,
    ) {
        let (mut lines, mut hit_lines) = (0u64, 0u64);
        let cache = &mut self.rocache;
        piece_lines(pieces, bitmap, &mut self.scratch_lines, |line| {
            lines += 1;
            if let Some(cache) = cache {
                hit_lines += cache.access_line(line) as u64;
            }
        });
        if cache.is_none() {
            return self.charge_global(lines, active, bytes, true);
        }
        let miss_lines = lines - hit_lines;
        let lane_hits = active as u64 * hit_lines / lines;
        self.stats.rocache_hits += lane_hits;
        self.stats.rocache_misses += active as u64 - lane_hits;
        let cost = miss_lines * self.device.global_transaction_cost
            + hit_lines.max(1) * self.device.rocache_hit_cost;
        self.stats.warp_cycles += cost;
        self.stats.active_lane_cycles += active as u64 * cost;
        self.stats.divergent_idle_cycles += (WARP_SIZE - active) as u64 * cost;
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

    /// Warp-wide atomic on shared memory by `lanes` active lanes, at most
    /// `max_conflict` of them on one address (the caller knows: a binning
    /// kernel tracks per-bin counts anyway — no target list, no counting).
    /// Lanes hitting the same address serialize (paper §3.2 uses
    /// shared-memory atomics for the bin `top` array precisely because
    /// they are cheap relative to global atomics).
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
        self.lockstep_groups(lane_cycles, 1);
    }

    /// [`Self::lockstep`] over groups of `lanes_per_group` lanes that work
    /// together: every lane of group `g` is busy for `group_cycles[g]`.
    pub fn lockstep_groups(&mut self, group_cycles: &[u64], lanes_per_group: u32) {
        if group_cycles.is_empty() {
            return;
        }
        debug_assert!(group_cycles.len() * lanes_per_group as usize <= WARP_SIZE as usize);
        let max = group_cycles.iter().copied().max().unwrap_or(0);
        let sum = lanes_per_group as u64 * group_cycles.iter().sum::<u64>();
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
            lines.sort_unstable();
            lines.dedup();
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

/// Words of the ordering bitmap of [`SimBlock::readonly_read_runs`]: 64
/// lines each, 512 KiB of device memory together — past every position
/// list and all but the largest group's slot table. As many as a `u64` has
/// bits, so one more word can mark the words in use.
const BITMAP_WORDS: usize = u64::BITS as usize;

/// Visit the distinct lines of one warp access in ascending order. The
/// access is given as `pieces` — `(first line, last line)` of each run
/// piece, every line in between touched. Line `l` marks bit `l % 64` of
/// word `(l / 64) % BITMAP_WORDS`, which aliases nothing while the access
/// spans fewer words than the bitmap has; the marked words, themselves
/// marked in a summary word, are then read back in order starting from the
/// lowest line's. `bitmap` is all zero on entry and on return. A wider
/// access falls back to sorting its lines in `scratch`.
fn piece_lines(
    pieces: &[(u64, u64)],
    bitmap: &mut [u64; BITMAP_WORDS],
    scratch: &mut Vec<u64>,
    mut visit: impl FnMut(u64),
) {
    let (mut lo, mut hi) = (u64::MAX, 0);
    for &(first, last) in pieces {
        lo = lo.min(first);
        hi = hi.max(last);
    }
    let lo_word = lo / 64;
    if hi / 64 - lo_word >= BITMAP_WORDS as u64 {
        scratch.clear();
        for &(first, last) in pieces {
            scratch.extend(first..=last);
        }
        scratch.sort_unstable();
        scratch.dedup();
        return scratch.iter().copied().for_each(visit);
    }
    let mut in_use = 0u64;
    for &(first, last) in pieces {
        let mut line = first;
        loop {
            let word = (line / 64) as usize % BITMAP_WORDS;
            bitmap[word] |= 1 << (line % 64);
            in_use |= 1 << word;
            if line == last {
                break;
            }
            line += 1;
        }
    }
    // Rotated so that bit 0 is the lowest line's word, the words in use
    // come out in ascending line order.
    let mut in_use = in_use.rotate_right((lo_word % BITMAP_WORDS as u64) as u32);
    while in_use != 0 {
        let word = lo_word + in_use.trailing_zeros() as u64;
        in_use &= in_use - 1;
        let mut rest = std::mem::take(&mut bitmap[word as usize % BITMAP_WORDS]);
        while rest != 0 {
            visit(word * 64 + rest.trailing_zeros() as u64);
            rest &= rest - 1;
        }
    }
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
        b.atomic_shared_counted(32, 32);
        assert_eq!(b.stats().atomic_ops, 32);
        assert_eq!(b.stats().atomic_conflicts, 31);
        let serialized = b.stats().warp_cycles;

        let mut b2 = block();
        // Conflict-free atomics across 32 distinct addresses.
        b2.atomic_shared_counted(32, 1);
        assert_eq!(b2.stats().atomic_conflicts, 0);
        assert!(b2.stats().warp_cycles < serialized);
    }

    #[test]
    fn readonly_cache_hits_are_cheaper_than_global() {
        let run = [(0x2000u64, 32u32)];
        let mut cached = SimBlock::new(0, DeviceConfig::k20c(), true);
        cached.readonly_read_runs(&run, 4); // cold: install
        let cold = cached.stats().warp_cycles;
        cached.readonly_read_runs(&run, 4); // warm: hit
        let warm = cached.stats().warp_cycles - cold;
        assert!(warm < cold, "warm {warm} vs cold {cold}");
        assert!(cached.stats().rocache_hits > 0);

        let mut uncached = SimBlock::new(0, DeviceConfig::k20c(), false);
        uncached.readonly_read_runs(&run, 4);
        uncached.readonly_read_runs(&run, 4);
        assert!(uncached.stats().warp_cycles > cached.stats().warp_cycles);
        // Without the cache the traffic shows up as global transactions.
        assert!(uncached.stats().global_transactions > 0);
        assert_eq!(cached.stats().global_transactions, 0);
    }

    #[test]
    fn empty_accesses_are_free() {
        let mut b = block();
        b.global_read(&[], 4);
        b.atomic_shared_counted(0, 0);
        b.readonly_read_runs(&[], 4);
        b.readonly_read_runs(&[(0x1000, 0), (0x2000, 0)], 4);
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

    /// The definition [`SimBlock::readonly_read_runs`] is held to: the
    /// address stream cut into warp accesses of 32, each probing its
    /// distinct lines (`sort_unstable` + `dedup`) in ascending order — or,
    /// without the cache, an ordinary global read.
    fn reference_readonly_read(b: &mut SimBlock, addrs: &[u64], bytes: u32) {
        for chunk in addrs.chunks(WARP_SIZE as usize) {
            let Some(cache) = b.rocache.as_mut() else {
                b.global_read(chunk, bytes);
                continue;
            };
            let lines = reference_lines(chunk);
            let hit_lines = lines
                .iter()
                .filter(|&&l| cache.access(l * TRANSACTION_BYTES))
                .count() as u64;
            let miss_lines = lines.len() as u64 - hit_lines;
            let lane_hits = chunk.len() as u64 * hit_lines / lines.len() as u64;
            b.stats.rocache_hits += lane_hits;
            b.stats.rocache_misses += chunk.len() as u64 - lane_hits;
            let cost = miss_lines * b.device.global_transaction_cost
                + hit_lines.max(1) * b.device.rocache_hit_cost;
            let active = chunk.len() as u64;
            b.stats.warp_cycles += cost;
            b.stats.active_lane_cycles += active * cost;
            b.stats.divergent_idle_cycles += (WARP_SIZE as u64 - active) * cost;
        }
    }

    /// Equal stats after every access, and — judged by the hit/miss
    /// sequence of later probes — equal caches at the end.
    fn assert_same_reads(
        cached: bool,
        accesses: &[(Vec<(u64, u32)>, u32)],
        probes: &[u64],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut got = SimBlock::new(0, DeviceConfig::k20c(), cached);
        let mut want = SimBlock::new(0, DeviceConfig::k20c(), cached);
        for (runs, bytes) in accesses {
            let addrs: Vec<u64> = runs
                .iter()
                .flat_map(|&(base, len)| (0..len as u64).map(move |k| base + k * *bytes as u64))
                .collect();
            got.readonly_read_runs(runs, *bytes);
            reference_readonly_read(&mut want, &addrs, *bytes);
            proptest::prop_assert_eq!(got.stats(), want.stats());
        }
        for &probe in probes {
            let (g, w) = (got.rocache.as_mut(), want.rocache.as_mut());
            proptest::prop_assert_eq!(g.map(|c| c.access(probe)), w.map(|c| c.access(probe)));
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The distinct-line count and the probe list against their
        /// definition (`sort_unstable` + `dedup` of `addr / 128`), warp
        /// sized and past it.
        #[test]
        fn line_sets_match_sort_and_dedup(
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..=40usize),
            shape in 0u8..6,
            stride in 1u64..300,
        ) {
            let addrs = shaped_addrs(&raw, shape, stride);
            let want = reference_lines(&addrs);
            proptest::prop_assert_eq!(block().count_lines(&addrs), want.len() as u64);
            let pieces: Vec<(u64, u64)> = addrs
                .iter()
                .map(|a| (a / TRANSACTION_BYTES, a / TRANSACTION_BYTES))
                .collect();
            let mut bitmap = [0u64; BITMAP_WORDS];
            let mut lines = Vec::new();
            piece_lines(&pieces, &mut bitmap, &mut Vec::new(), |line| lines.push(line));
            proptest::prop_assert_eq!(lines, want);
            proptest::prop_assert_eq!(bitmap, [0u64; BITMAP_WORDS]);
        }

        /// Arbitrary address streams, one address a run — scattered,
        /// descending, repeating, wider than the bitmap — leave the same
        /// stats *and* the same cache as the reference algorithm, over
        /// accesses that share lines.
        #[test]
        fn readonly_read_matches_reference_algorithm(
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..=40usize),
            shapes in (0u8..6, 0u8..6, 0u8..6),
            stride in 1u64..300,
            cached in proptest::prelude::any::<bool>(),
        ) {
            let accesses: Vec<(Vec<(u64, u32)>, u32)> = [shapes.0, shapes.1, shapes.2]
                .iter()
                .map(|&shape| {
                    let addrs = shaped_addrs(&raw, shape, stride);
                    (addrs.iter().map(|&a| (a, 1)).collect(), 4)
                })
                .collect();
            assert_same_reads(cached, &accesses, &shaped_addrs(&raw, 0, stride))?;
        }

        /// Runs the way the seeding kernels produce them — position lists
        /// and posting spans of every length including zero, probe chains
        /// that wrap to the start of their table, runs cut by the 32-address
        /// access boundary, accesses spread wider than the bitmap — bill
        /// what their materialised addresses bill, cache on and off.
        #[test]
        fn readonly_read_runs_match_materialized_chunks(
            raw in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), 0u32..70, 0u8..4),
                1..=48usize,
            ),
            bytes in 0usize..3,
            spread in 0usize..3,
            cached in proptest::prelude::any::<bool>(),
        ) {
            let bytes = [4u32, 8, 128][bytes];
            // Table sizes: a few lines, inside the bitmap, eight times past it.
            let table = [1u64 << 10, 1 << 17, 1 << 22][spread];
            let base = 0x4_0000u64;
            let slots = table / bytes as u64;
            let mut runs = Vec::new();
            for &(r, len, kind) in &raw {
                let slot = r % slots;
                match kind {
                    // Mostly short lists, as a neighbourhood's are.
                    0 => runs.push((base + slot * bytes as u64, len % 4)),
                    1 => runs.push((base + slot * bytes as u64, len.min((slots - slot) as u32))),
                    // A chain that wraps: the tail of the table, then its head.
                    2 => {
                        let tail = len.min(slots as u32).min(3);
                        runs.push((base + (slots - tail as u64) * bytes as u64, tail));
                        runs.push((base, len.min(slots as u32) - tail));
                    }
                    _ => runs.push((base + slot * bytes as u64, 0)),
                }
            }
            let probes: Vec<u64> = raw.iter().map(|&(r, _, _)| base + r % table).collect();
            let halves = runs.split_at(runs.len() / 2);
            let accesses = [(halves.0.to_vec(), bytes), (halves.1.to_vec(), bytes), (runs.clone(), bytes)];
            assert_same_reads(cached, &accesses, &probes)?;
        }
    }

    #[test]
    fn counted_atomic_matches_target_list() {
        // What a warp-wide shared atomic over each target list costs: one
        // access, plus a serialized step per extra lane on the most
        // contended address; the lanes without a target idle.
        let d = DeviceConfig::k20c();
        for targets in [
            vec![1u64, 2, 3, 4],
            vec![7, 7, 7, 1, 2],
            vec![5],
            (0..32u64).map(|i| i % 3).collect(),
        ] {
            let lanes = targets.len() as u64;
            let max = (targets.iter())
                .map(|t| targets.iter().filter(|u| *u == t).count() as u64)
                .max()
                .unwrap();
            let mut b = block();
            b.atomic_shared_counted(lanes as u32, max);
            let cost = d.shared_access_cost + (max - 1) * d.atomic_conflict_cost;
            let s = b.stats();
            assert_eq!((s.atomic_ops, s.atomic_conflicts), (lanes, max - 1));
            assert_eq!(s.warp_cycles, cost);
            assert_eq!(s.active_lane_cycles, lanes * cost);
            assert_eq!(s.divergent_idle_cycles, (32 - lanes) * cost);
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
}
