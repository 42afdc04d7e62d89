//! Device description and cost-model constants.
//!
//! The default configuration models the NVIDIA Kepler K20c used throughout
//! the paper's evaluation (§4: 13 SMX units, 48 kB shared memory per SM,
//! the 48 kB read-only data cache introduced with Kepler, 706 MHz core
//! clock, PCIe 2.0 x16 host link). Cost constants are deliberately coarse
//! — relative magnitudes (an uncoalesced transaction costs a full 128-byte
//! transfer, shared memory is an order of magnitude cheaper than global,
//! atomics serialize on conflicts) are what produce the paper's effects;
//! absolute values only set the time scale.

use serde::{Deserialize, Serialize};

/// SIMT warp width; fixed across every NVIDIA architecture the paper
/// discusses.
pub const WARP_SIZE: u32 = 32;

/// Size of one global-memory transaction in bytes (coalescing granule).
pub const TRANSACTION_BYTES: u64 = 128;

/// Configuration of the simulated device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Warp schedulers per SM (Kepler SMX: 4).
    pub schedulers_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Read-only cache size per SM in bytes.
    pub readonly_cache_bytes: u32,
    /// Core clock in MHz (used to convert cycles to milliseconds).
    pub clock_mhz: u32,
    /// Cycles charged per warp instruction issue.
    pub instr_cost: u64,
    /// Cycles charged per 128-byte global-memory transaction.
    pub global_transaction_cost: u64,
    /// Cycles charged per shared-memory access (warp-wide).
    pub shared_access_cost: u64,
    /// Cycles charged per read-only-cache hit (warp-wide).
    pub rocache_hit_cost: u64,
    /// Cycles charged per L2-resident global load (Kepler issues a new
    /// transaction per load instruction, but sequential re-reads of a
    /// 128-byte line are absorbed by L2 and do not cost DRAM bandwidth).
    pub l2_hit_cost: u64,
    /// Extra serialization cycles per conflicting atomic within a warp.
    pub atomic_conflict_cost: u64,
    /// Fixed kernel launch overhead in cycles.
    pub launch_overhead_cycles: u64,
    /// Device DRAM bandwidth in bytes per core-clock cycle (K20c:
    /// ~208 GB/s at 706 MHz ≈ 295 B/cycle). Kernel time is the maximum of
    /// the compute/latency term and total transacted bytes over this.
    pub dram_bytes_per_cycle: f64,
    /// Host↔device bandwidth in GB/s (PCIe model for the overlap pipeline).
    pub pcie_gb_per_s: f64,
    /// Host↔device latency per transfer in microseconds.
    pub pcie_latency_us: f64,
}

impl DeviceConfig {
    /// The NVIDIA Tesla K20c of the paper's testbed.
    pub fn k20c() -> Self {
        Self {
            num_sms: 13,
            schedulers_per_sm: 4,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 16,
            shared_mem_per_sm: 48 * 1024,
            readonly_cache_bytes: 48 * 1024,
            clock_mhz: 706,
            instr_cost: 1,
            global_transaction_cost: 16,
            shared_access_cost: 2,
            rocache_hit_cost: 4,
            l2_hit_cost: 8,
            atomic_conflict_cost: 4,
            launch_overhead_cycles: 4_000,
            dram_bytes_per_cycle: 295.0,
            pcie_gb_per_s: 6.0,
            pcie_latency_us: 10.0,
        }
    }

    /// NVIDIA Tesla K40: the K20c's bigger sibling (15 SMX, 288 GB/s,
    /// 745 MHz) — used by the device-sensitivity study.
    pub fn k40() -> Self {
        Self {
            num_sms: 15,
            clock_mhz: 745,
            dram_bytes_per_cycle: 386.0, // 288 GB/s at 745 MHz
            ..Self::k20c()
        }
    }

    /// A GTX 680-class consumer Kepler (8 SMX, 192 GB/s, 1006 MHz):
    /// smaller, higher-clocked, bandwidth-poorer — the opposite corner of
    /// the design space.
    pub fn gtx680() -> Self {
        Self {
            num_sms: 8,
            clock_mhz: 1006,
            dram_bytes_per_cycle: 191.0, // 192 GB/s at 1006 MHz
            readonly_cache_bytes: 0,     // no read-only data cache path
            ..Self::k20c()
        }
    }

    /// Convert device cycles to milliseconds at the configured clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_mhz as f64 * 1_000.0)
    }

    /// Host↔device transfer time in milliseconds for `bytes`.
    pub fn transfer_ms(&self, bytes: u64) -> f64 {
        self.pcie_latency_us / 1_000.0 + bytes as f64 / (self.pcie_gb_per_s * 1e6)
    }

    /// Thread blocks of `warps_per_block` warps and `shared_bytes` of
    /// shared memory each that one SM holds at once, limited by its warp
    /// slots, its shared memory and its block slots. This is the one fit
    /// rule of the simulator: a block shape *fits* the device when at
    /// least one block of it fits an SM ([`crate::LaunchConfig::fits`]),
    /// and 0 means a launch of that shape cannot run.
    pub fn blocks_per_sm(&self, warps_per_block: u32, shared_bytes: u32) -> u32 {
        if warps_per_block == 0 {
            return 0;
        }
        let by_warps = self.max_warps_per_sm / warps_per_block;
        let by_shared = match shared_bytes {
            0 => self.max_blocks_per_sm,
            bytes => self.shared_mem_per_sm / bytes,
        };
        by_warps.min(by_shared).min(self.max_blocks_per_sm)
    }

    /// Achievable occupancy for a launch using `warps_per_block` warps and
    /// `shared_bytes` of shared memory per block: the warps of the
    /// [`blocks_per_sm`](Self::blocks_per_sm) resident blocks over the
    /// maximum (paper §4.1: "more bins use more shared memory … and
    /// decrease the occupancy of the kernel"). 0 for a shape that does
    /// not fit.
    pub fn occupancy(&self, warps_per_block: u32, shared_bytes: u32) -> f64 {
        let blocks = self.blocks_per_sm(warps_per_block, shared_bytes);
        let resident = (blocks * warps_per_block).min(self.max_warps_per_sm);
        resident as f64 / self.max_warps_per_sm as f64
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::k20c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20c_shape() {
        let d = DeviceConfig::k20c();
        assert_eq!(d.num_sms, 13);
        assert_eq!(d.shared_mem_per_sm, 48 * 1024);
        assert_eq!(WARP_SIZE, 32);
    }

    #[test]
    fn cycles_to_ms_at_clock() {
        let d = DeviceConfig::k20c();
        // 706 MHz → 706k cycles per ms.
        assert!((d.cycles_to_ms(706_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let d = DeviceConfig::k20c();
        let t1 = d.transfer_ms(1_000_000);
        let t2 = d.transfer_ms(2_000_000);
        assert!(t2 > t1);
        // Latency floor.
        assert!(d.transfer_ms(0) > 0.0);
    }

    #[test]
    fn occupancy_limited_by_shared_memory() {
        let d = DeviceConfig::k20c();
        // 8 warps/block, tiny shared → limited by block/warp slots: 8 blocks
        // of 8 warps = 64 warps = 100 %.
        assert!((d.occupancy(8, 256) - 1.0).abs() < 1e-9);
        // 24 kB per block → only 2 blocks fit → 16/64 warps.
        assert!((d.occupancy(8, 24 * 1024) - 0.25).abs() < 1e-9);
        // Full shared memory per block → 1 block.
        assert!((d.occupancy(8, 48 * 1024) - 0.125).abs() < 1e-9);
    }

    #[test]
    fn preset_family_is_ordered_by_size() {
        let k20 = DeviceConfig::k20c();
        let k40 = DeviceConfig::k40();
        let gtx = DeviceConfig::gtx680();
        assert!(k40.num_sms > k20.num_sms);
        assert!(k40.dram_bytes_per_cycle > k20.dram_bytes_per_cycle);
        assert!(gtx.num_sms < k20.num_sms);
        assert_eq!(gtx.readonly_cache_bytes, 0);
    }

    #[test]
    fn blocks_per_sm_is_the_fit_and_occupancy_follows_it() {
        let d = DeviceConfig::k20c();
        // Block slots, warp slots, shared memory: whichever binds first.
        assert_eq!(d.blocks_per_sm(1, 0), 16);
        assert_eq!(d.blocks_per_sm(8, 0), 8);
        assert_eq!(d.blocks_per_sm(8, 16 * 1024), 3);
        // Exactly one SM's shared memory fits once; one byte more, never.
        assert_eq!(d.blocks_per_sm(8, 48 * 1024), 1);
        assert_eq!(d.blocks_per_sm(8, 48 * 1024 + 1), 0);
        assert_eq!(d.occupancy(8, 48 * 1024 + 1), 0.0);
        // More warps than an SM holds, or none, fit nowhere.
        assert_eq!(d.blocks_per_sm(65, 0), 0);
        assert_eq!(d.blocks_per_sm(0, 0), 0);
        let shape = |warps_per_block, shared_bytes_per_block| crate::LaunchConfig {
            blocks: 4,
            warps_per_block,
            shared_bytes_per_block,
            use_readonly_cache: false,
        };
        assert!(shape(8, 48 * 1024).fits(&d) && shape(64, 0).fits(&d));
        assert!(!shape(8, 48 * 1024 + 1).fits(&d) && !shape(65, 0).fits(&d));
        for (warps, shared) in [(1, 0), (2, 9000), (8, 24 * 1024), (32, 17 * 1024), (64, 1)] {
            let blocks = d.blocks_per_sm(warps, shared);
            assert!(blocks >= 1, "{warps} warps, {shared} B");
            let occ = (blocks * warps) as f64 / d.max_warps_per_sm as f64;
            assert_eq!(d.occupancy(warps, shared), occ);
        }
    }

    #[test]
    fn occupancy_edge_cases() {
        let d = DeviceConfig::k20c();
        assert_eq!(d.occupancy(0, 0), 0.0);
        // Giant blocks cap at max warps.
        assert!(d.occupancy(64, 0) <= 1.0);
    }
}
