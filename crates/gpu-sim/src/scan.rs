//! Warp-level prefix scan — the CUB substitute.
//!
//! The window-based ungapped extension (paper §3.4, Fig. 8) computes the
//! running score of every position in a window with "the optimized scan
//! algorithm derived from the CUB library", and the hit filter compacts
//! its survivors with one. A shuffle-based warp scan needs ⌈log₂ 32⌉ = 5
//! steps; a kernel computes the scan's values itself and charges that
//! cost to its block tracer (`SimBlock::instr_n(lanes, WARP_SCAN_STEPS)`).

/// Number of shuffle steps of a warp-wide scan.
pub const WARP_SCAN_STEPS: u64 = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::SimBlock;
    use crate::device::DeviceConfig;

    #[test]
    fn partial_warp_scan_records_divergence() {
        let mut b = SimBlock::new(0, DeviceConfig::k20c(), false);
        b.instr_n(8, WARP_SCAN_STEPS);
        assert_eq!(b.stats().warp_cycles, WARP_SCAN_STEPS);
        assert!(b.stats().divergence_overhead() > 0.5);
    }
}
