//! Per-kernel performance counters and derived metrics.

use crate::device::{DeviceConfig, WARP_SIZE};
use serde::{Deserialize, Serialize};

/// Counters accumulated while a kernel executes, plus the derived metrics
/// the paper's profiling figures report (Fig. 19a–c).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Kernel name (figure label).
    pub name: String,
    /// Total warp-cycles issued (Σ over warps of their serialized cost).
    pub warp_cycles: u64,
    /// Lane-cycles that did useful work (active lanes × instruction cost).
    pub active_lane_cycles: u64,
    /// Lane-cycles lost to partially-active warps (divergence idle time).
    pub divergent_idle_cycles: u64,
    /// Bytes the kernel actually requested from global memory (loads and
    /// stores combined — feeds the bandwidth term of the time model).
    pub global_useful_bytes: u64,
    /// Bytes moved in 128-byte transactions to satisfy those requests.
    pub global_transacted_bytes: u64,
    /// Number of global-memory transactions.
    pub global_transactions: u64,
    /// Load-only useful bytes (the numerator of NVIDIA's
    /// `gld_efficiency`, which Fig. 19a reports — stores are excluded).
    pub global_load_useful_bytes: u64,
    /// Load-only transacted bytes.
    pub global_load_transacted_bytes: u64,
    /// Warp-wide shared-memory accesses.
    pub shared_accesses: u64,
    /// Atomic operations issued.
    pub atomic_ops: u64,
    /// Extra serialization steps caused by conflicting atomics.
    pub atomic_conflicts: u64,
    /// Read-only cache hits (lane-level).
    pub rocache_hits: u64,
    /// Read-only cache misses (lane-level).
    pub rocache_misses: u64,
    /// Achieved occupancy of the launch (0–1).
    pub occupancy: f64,
    /// Number of blocks launched.
    pub blocks: u32,
    /// Warps per block.
    pub warps_per_block: u32,
}

impl KernelStats {
    /// Create empty stats for a named kernel.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Branch-divergence overhead: fraction of lane slots wasted because
    /// warps executed with inactive lanes (Fig. 16b / 19b; lower is
    /// better).
    pub fn divergence_overhead(&self) -> f64 {
        let total = self.active_lane_cycles + self.divergent_idle_cycles;
        if total == 0 {
            0.0
        } else {
            self.divergent_idle_cycles as f64 / total as f64
        }
    }

    /// Global memory *load* efficiency: requested load bytes over
    /// transferred load bytes — the `gld_efficiency` metric of Fig. 19a
    /// (higher is better; stores do not count, matching the profiler).
    pub fn global_load_efficiency(&self) -> f64 {
        if self.global_load_transacted_bytes == 0 {
            1.0
        } else {
            (self.global_load_useful_bytes as f64 / self.global_load_transacted_bytes as f64)
                .min(1.0)
        }
    }

    /// Read-only cache hit rate (Fig. 17's mechanism).
    pub fn rocache_hit_rate(&self) -> f64 {
        let total = self.rocache_hits + self.rocache_misses;
        if total == 0 {
            0.0
        } else {
            self.rocache_hits as f64 / total as f64
        }
    }

    /// Kernel execution time under the analytic throughput model: the
    /// maximum of
    ///
    /// * a **compute/latency term** — total warp-cycles spread over
    ///   SM schedulers, de-rated by occupancy (poor occupancy exposes
    ///   latency instead of hiding it), and
    /// * a **bandwidth term** — total transacted bytes over the DRAM
    ///   bandwidth, which is what actually limits memory-bound kernels
    ///   and what makes uncoalesced access expensive at *device* scale,
    ///   not just warp scale —
    ///
    /// plus a fixed launch overhead.
    pub fn kernel_cycles(&self, device: &DeviceConfig) -> u64 {
        if self.warp_cycles == 0 {
            return 0;
        }
        let throughput = (device.num_sms * device.schedulers_per_sm) as f64;
        // Latency-hiding de-rate: an SM at full occupancy sustains its
        // schedulers; below ~50 % occupancy throughput degrades roughly
        // linearly. The floor binds below occupancy 0.025 — one resident
        // warp, a one-warp block alone on its SM (DESIGN.md §3.2). A
        // shape that fits no block (occupancy 0) is refused by the search
        // before launch; a kernel called directly on one is billed here.
        let occ_factor = (self.occupancy * 2.0).clamp(0.05, 1.0);
        let compute = self.warp_cycles as f64 / (throughput * occ_factor);
        let bandwidth = self.global_transacted_bytes as f64 / device.dram_bytes_per_cycle;
        device.launch_overhead_cycles + compute.max(bandwidth).ceil() as u64
    }

    /// Kernel time in milliseconds.
    pub fn time_ms(&self, device: &DeviceConfig) -> f64 {
        device.cycles_to_ms(self.kernel_cycles(device))
    }

    /// Merge counters from another (sub-)execution into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.warp_cycles += other.warp_cycles;
        self.active_lane_cycles += other.active_lane_cycles;
        self.divergent_idle_cycles += other.divergent_idle_cycles;
        self.global_useful_bytes += other.global_useful_bytes;
        self.global_transacted_bytes += other.global_transacted_bytes;
        self.global_transactions += other.global_transactions;
        self.global_load_useful_bytes += other.global_load_useful_bytes;
        self.global_load_transacted_bytes += other.global_load_transacted_bytes;
        self.shared_accesses += other.shared_accesses;
        self.atomic_ops += other.atomic_ops;
        self.atomic_conflicts += other.atomic_conflicts;
        self.rocache_hits += other.rocache_hits;
        self.rocache_misses += other.rocache_misses;
    }

    /// [`Self::merge`] taking the sub-execution by value: counter fields
    /// that are heap-backed move into the accumulator instead of being
    /// cloned (the move-don't-clone rule of the batch engine's hot path).
    pub fn merge_owned(&mut self, other: KernelStats) {
        let KernelStats {
            name: _,
            warp_cycles,
            active_lane_cycles,
            divergent_idle_cycles,
            global_useful_bytes,
            global_transacted_bytes,
            global_transactions,
            global_load_useful_bytes,
            global_load_transacted_bytes,
            shared_accesses,
            atomic_ops,
            atomic_conflicts,
            rocache_hits,
            rocache_misses,
            occupancy: _,
            blocks: _,
            warps_per_block: _,
        } = other;
        self.warp_cycles += warp_cycles;
        self.active_lane_cycles += active_lane_cycles;
        self.divergent_idle_cycles += divergent_idle_cycles;
        self.global_useful_bytes += global_useful_bytes;
        self.global_transacted_bytes += global_transacted_bytes;
        self.global_transactions += global_transactions;
        self.global_load_useful_bytes += global_load_useful_bytes;
        self.global_load_transacted_bytes += global_load_transacted_bytes;
        self.shared_accesses += shared_accesses;
        self.atomic_ops += atomic_ops;
        self.atomic_conflicts += atomic_conflicts;
        self.rocache_hits += rocache_hits;
        self.rocache_misses += rocache_misses;
    }

    /// Record one warp instruction with `active` of the 32 lanes enabled.
    /// (Used directly by tests; kernels go through [`crate::SimBlock`].)
    pub fn record_instr(&mut self, active: u32, cost: u64) {
        debug_assert!(active <= WARP_SIZE);
        self.warp_cycles += cost;
        self.active_lane_cycles += active as u64 * cost;
        self.divergent_idle_cycles += (WARP_SIZE - active) as u64 * cost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_overhead_of_full_warp_is_zero() {
        let mut s = KernelStats::new("k");
        s.record_instr(32, 10);
        assert_eq!(s.divergence_overhead(), 0.0);
    }

    #[test]
    fn divergence_overhead_of_half_warp() {
        let mut s = KernelStats::new("k");
        s.record_instr(16, 10);
        assert!((s.divergence_overhead() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn load_efficiency_bounds() {
        let mut s = KernelStats::new("k");
        assert_eq!(s.global_load_efficiency(), 1.0);
        s.global_load_useful_bytes = 128;
        s.global_load_transacted_bytes = 4096;
        assert!((s.global_load_efficiency() - 128.0 / 4096.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_time_grows_with_cycles_and_shrinks_with_occupancy() {
        let d = DeviceConfig::k20c();
        let mut a = KernelStats::new("a");
        a.warp_cycles = 1_000_000;
        a.occupancy = 1.0;
        let mut b = a.clone();
        b.warp_cycles = 2_000_000;
        assert!(b.kernel_cycles(&d) > a.kernel_cycles(&d));
        let mut c = a.clone();
        c.occupancy = 0.125;
        assert!(c.kernel_cycles(&d) > a.kernel_cycles(&d));
    }

    #[test]
    fn empty_kernel_costs_nothing() {
        let d = DeviceConfig::k20c();
        let s = KernelStats::new("empty");
        assert_eq!(s.kernel_cycles(&d), 0);
        assert_eq!(s.time_ms(&d), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = KernelStats::new("a");
        a.record_instr(32, 5);
        a.global_transactions = 2;
        let mut b = KernelStats::new("b");
        b.record_instr(8, 5);
        b.global_transactions = 3;
        a.merge(&b);
        assert_eq!(a.warp_cycles, 10);
        assert_eq!(a.global_transactions, 5);
        assert!(a.divergence_overhead() > 0.0);
    }

    #[test]
    fn merge_owned_matches_borrowed_merge() {
        let mut b = KernelStats::new("b");
        b.record_instr(8, 5);
        b.global_transactions = 3;
        b.rocache_hits = 2;
        let mut borrowed = KernelStats::new("a");
        borrowed.merge(&b);
        let mut owned = KernelStats::new("a");
        owned.merge_owned(b);
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn rocache_hit_rate() {
        let mut s = KernelStats::new("k");
        assert_eq!(s.rocache_hit_rate(), 0.0);
        s.rocache_hits = 3;
        s.rocache_misses = 1;
        assert!((s.rocache_hit_rate() - 0.75).abs() < 1e-12);
    }
}
