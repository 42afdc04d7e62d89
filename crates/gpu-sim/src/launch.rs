//! Kernel launch: grid execution and stat aggregation.

use crate::block::SimBlock;
use crate::device::DeviceConfig;
use crate::stats::KernelStats;
use serde::{Deserialize, Serialize};

/// Geometry and resources of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub blocks: u32,
    /// Warps per block (threads per block / 32).
    pub warps_per_block: u32,
    /// Shared memory per block in bytes (drives occupancy).
    pub shared_bytes_per_block: u32,
    /// Whether `const __restrict__` loads go through the read-only cache
    /// (the Fig. 17 toggle).
    pub use_readonly_cache: bool,
}

impl LaunchConfig {
    /// A typical launch: `blocks` blocks of 8 warps, no shared memory,
    /// read-only cache enabled.
    pub fn simple(blocks: u32) -> Self {
        Self {
            blocks,
            warps_per_block: 8,
            shared_bytes_per_block: 0,
            use_readonly_cache: true,
        }
    }
}

/// Launch a kernel: run `kernel` once per block, merge the per-block
/// counters, and stamp the launch geometry and achieved occupancy. The
/// blocks run one after another on the calling thread — simulated time
/// comes from the cost model, not wall-clock, so only the host time of a
/// launch depends on that.
pub fn launch<F>(device: &DeviceConfig, cfg: LaunchConfig, name: &str, kernel: F) -> KernelStats
where
    F: Fn(&mut SimBlock),
{
    launch_map(device, cfg, name, |block| kernel(block)).1
}

/// [`launch`] for kernels that produce a per-block value: each block's
/// closure returns its result, and the launch hands them back in
/// `block_id` order alongside the merged stats. This is how the hit
/// pipeline gets per-block output out of a kernel without funnelling it
/// through a mutex — results travel by value on the same path as the
/// counters, and the deterministic ordering falls out for free.
pub fn launch_map<T, F>(
    device: &DeviceConfig,
    cfg: LaunchConfig,
    name: &str,
    kernel: F,
) -> (Vec<T>, KernelStats)
where
    F: Fn(&mut SimBlock) -> T,
{
    // A device without a read-only data cache (e.g. the GTX 680 preset)
    // cannot honour the `const __restrict__` path regardless of config.
    let use_cache = cfg.use_readonly_cache && device.readonly_cache_bytes > 0;
    let mut stats = KernelStats::new(name);
    let mut outputs = Vec::with_capacity(cfg.blocks as usize);
    for block_id in 0..cfg.blocks {
        let mut block = SimBlock::new(block_id, *device, use_cache);
        outputs.push(kernel(&mut block));
        stats.merge_owned(block.stats);
    }
    stats.blocks = cfg.blocks;
    stats.warps_per_block = cfg.warps_per_block;
    stats.occupancy = device.occupancy(cfg.warps_per_block, cfg.shared_bytes_per_block);
    (outputs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn all_blocks_execute() {
        let d = DeviceConfig::k20c();
        let counter = AtomicU64::new(0);
        let stats = launch(&d, LaunchConfig::simple(16), "count", |b| {
            counter.fetch_add(1 + b.block_id as u64, Ordering::Relaxed);
            b.instr(32);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16 + (0..16).sum::<u64>());
        assert_eq!(stats.warp_cycles, 16);
        assert_eq!(stats.blocks, 16);
        assert_eq!(stats.name, "count");
    }

    #[test]
    fn launch_map_returns_results_in_block_order() {
        let d = DeviceConfig::k20c();
        let (outs, stats) = launch_map(&d, LaunchConfig::simple(8), "map", |b| {
            b.instr(16);
            b.block_id * 10
        });
        assert_eq!(outs, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(stats.blocks, 8);
        assert_eq!(stats.warp_cycles, 8);
        assert!(stats.divergence_overhead() > 0.0);
    }

    #[test]
    fn occupancy_stamped_from_config() {
        let d = DeviceConfig::k20c();
        let cfg = LaunchConfig {
            blocks: 4,
            warps_per_block: 8,
            shared_bytes_per_block: 24 * 1024,
            use_readonly_cache: false,
        };
        let stats = launch(&d, cfg, "occ", |b| b.instr(32));
        assert!((stats.occupancy - 0.25).abs() < 1e-9);
    }

    #[test]
    fn cacheless_device_ignores_cache_request() {
        let d = DeviceConfig::gtx680();
        let mut cfg = LaunchConfig::simple(2);
        cfg.use_readonly_cache = true;
        let stats = launch(&d, cfg, "nocache", |b| {
            b.readonly_read_runs(&[(0, 3)], 4);
        });
        assert_eq!(stats.rocache_hits + stats.rocache_misses, 0);
        assert!(stats.global_transactions > 0, "degrades to global loads");
    }

    #[test]
    fn zero_blocks_is_empty() {
        let d = DeviceConfig::k20c();
        let stats = launch(&d, LaunchConfig::simple(0), "none", |b| b.instr(32));
        assert_eq!(stats.warp_cycles, 0);
    }

    #[test]
    fn stats_merge_deterministically() {
        // Counter totals must not depend on host-thread scheduling.
        let d = DeviceConfig::k20c();
        let run = || {
            launch(&d, LaunchConfig::simple(32), "det", |b| {
                b.instr_n(16, (b.block_id + 1) as u64);
                b.global_read(&[b.block_id as u64 * 1024], 4);
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
