//! Segmented sort — the ModernGPU substitute.
//!
//! cuBLASTP sorts the hits of every bin with the segmented-sort kernel of
//! NVIDIA's ModernGPU library (§3.3 "Hit Sorting"). This module provides a
//! functional replacement whose cost model reproduces the library's
//! characteristic behaviour the paper relies on in Fig. 14: *for a fixed
//! total element count, throughput improves as the number of segments
//! grows*, because a merge sort over segments of length ℓ needs ⌈log₂ ℓ⌉
//! passes and every pass streams the whole data set once.
//!
//! The *functional* sort is an LSD radix sort specialized for the packed
//! 64-bit hit key (fixed-width integer, so comparisons buy nothing):
//! 8-bit digits, passes whose digit is constant across the segment are
//! skipped, and short segments fall back to an in-place insertion sort —
//! the standard small-input tail of a radix sort. The *cost model* is
//! untouched: simulated cycles, divergence, and load efficiency are
//! computed from the segment shape exactly as before, so every figure
//! binary reports bit-identical `KernelStats`.

use crate::device::{DeviceConfig, TRANSACTION_BYTES};
use crate::stats::KernelStats;

/// Elements each thread block processes per merge pass (mirrors
/// ModernGPU's default tiles of 256 threads × 8 values).
pub const TILE_ELEMENTS: usize = 2048;

/// Warps per thread block of the sort (256 threads).
pub const TILE_WARPS: u32 = 8;

/// Shared memory one block's merge tile occupies: 2048 keys × 8 B = 16 kB.
pub const TILE_SHARED_BYTES: u32 = (TILE_ELEMENTS * 8) as u32;

/// Where the first merge pass of every segment finds its keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SortInput {
    /// In global memory: every pass, the first included, streams its keys
    /// in — the standalone sort.
    Global,
    /// Already in the block's shared-memory tile: the sort is the middle
    /// of a fused kernel whose prologue loaded the tile and billed that
    /// load itself. The first pass reads nothing from global memory; its
    /// write, every later pass and the instruction count are billed as
    /// for [`SortInput::Global`].
    SharedTile,
}

/// Segment length at or below which the radix sort falls back to an
/// in-place insertion sort (no histogram, no scratch traffic). Bins hold
/// at most `query words` hits and are usually far smaller, so most
/// segments take this path.
const RADIX_SMALL: usize = 32;

/// Sort `keys` ascending with an LSD radix sort (8-bit digits, low to
/// high), ping-ponging between `keys` and `scratch`. Passes where every
/// key shares the digit are skipped — for packed hit keys the high
/// sequence-id bytes are constant within a block, so typically only 3–4
/// of the 8 passes run. `scratch` is only grown, never shrunk, so a
/// pooled buffer amortizes to zero allocations.
pub fn radix_sort_u64(keys: &mut [u64], scratch: &mut Vec<u64>) {
    let n = keys.len();
    if n <= RADIX_SMALL {
        // Insertion sort: branch-cheap and allocation-free for the short
        // segments that dominate bin contents.
        for i in 1..n {
            let k = keys[i];
            let mut j = i;
            while j > 0 && keys[j - 1] > k {
                keys[j] = keys[j - 1];
                j -= 1;
            }
            keys[j] = k;
        }
        return;
    }

    // One pre-scan finds the bytes that actually vary; only those pay a
    // histogram + scatter pass. Packed hit keys share their high
    // sequence-id bytes within a database block (and the low diagonal
    // bits within a bin), so most of the 8 passes vanish here.
    let first = keys[0];
    let mut diff = 0u64;
    for &k in keys.iter() {
        diff |= k ^ first;
    }
    if diff == 0 {
        return; // all keys equal
    }

    if scratch.len() < n {
        scratch.resize(n, 0);
    }
    let mut in_keys = true;
    for pass in 0..8 {
        let shift = pass * 8;
        if (diff >> shift) & 0xFF == 0 {
            continue; // constant digit — nothing to reorder
        }
        let src: &[u64] = if in_keys { keys } else { &scratch[..n] };
        let mut hist = [0usize; 256];
        for &k in src {
            hist[((k >> shift) & 0xFF) as usize] += 1;
        }
        let mut starts = [0usize; 256];
        let mut sum = 0usize;
        for (s, &c) in starts.iter_mut().zip(&hist) {
            *s = sum;
            sum += c;
        }
        // Scatter src → dst. Split borrows manually: src and dst are
        // always distinct buffers.
        if in_keys {
            for &k in keys.iter() {
                let d = ((k >> shift) & 0xFF) as usize;
                scratch[starts[d]] = k;
                starts[d] += 1;
            }
        } else {
            for &k in scratch[..n].iter() {
                let d = ((k >> shift) & 0xFF) as usize;
                keys[starts[d]] = k;
                starts[d] += 1;
            }
        }
        in_keys = !in_keys;
    }
    if !in_keys {
        keys.copy_from_slice(&scratch[..n]);
    }
}

/// The ModernGPU cost model for one segmented sort over `n` total
/// elements whose per-segment merge work sums to `work` element-passes:
///
/// * coalesced streaming read of all keys (fully efficient),
/// * merge-scatter write whose locality degrades to ~2 lines per 32-lane
///   warp-write of 8-byte keys (the measured behaviour of merge scatter),
/// * ~8 compare/move instructions per element, spread over 32 lanes.
///
/// Every element is in exactly one first pass, so with the tiles already
/// in shared memory ([`SortInput::SharedTile`]) `n` of the `work`
/// element-passes load nothing.
fn model_stats(
    device: &DeviceConfig,
    name: &str,
    n: usize,
    work: u64,
    input: SortInput,
) -> KernelStats {
    let mut stats = KernelStats::new(name);
    let blocks = n.div_ceil(TILE_ELEMENTS).max(1) as u32;
    stats.blocks = blocks;
    stats.warps_per_block = TILE_WARPS;
    stats.occupancy = device.occupancy(TILE_WARPS, TILE_SHARED_BYTES);

    if n == 0 {
        return stats;
    }
    let key_bytes = 8u64;
    let loaded = match input {
        SortInput::Global => work,
        SortInput::SharedTile => work - n as u64,
    };
    // Loads: the streaming read of both runs is coalesced, but the
    // merge-path partition searches load scattered keys — measured
    // merge sorts land near 50 % load efficiency (the paper profiles
    // its hit sorting at 46.2 %).
    let read_tx = (loaded * key_bytes).div_ceil(TRANSACTION_BYTES) * 2;
    stats.global_transactions += read_tx;
    stats.global_transacted_bytes += read_tx * TRANSACTION_BYTES;
    stats.global_useful_bytes += loaded * key_bytes;
    stats.global_load_useful_bytes += loaded * key_bytes;
    stats.global_load_transacted_bytes += read_tx * TRANSACTION_BYTES;
    // Merge scatter write: the two interleaving runs of a merge pass
    // splinter each warp-wide 256-byte write (minimum 2 lines) into
    // ~4 partially-filled transactions.
    let warp_writes = work.div_ceil(32);
    let write_tx = warp_writes * 4;
    stats.global_transactions += write_tx;
    stats.global_transacted_bytes += write_tx * TRANSACTION_BYTES;
    stats.global_useful_bytes += work * key_bytes;
    stats.warp_cycles += (read_tx + write_tx) * device.global_transaction_cost;
    stats.active_lane_cycles += 32 * (read_tx + write_tx) * device.global_transaction_cost;
    // Compute: 8 instructions per element over 32 lanes.
    let instr = work * 8 / 32;
    stats.warp_cycles += instr * device.instr_cost;
    stats.active_lane_cycles += 32 * instr * device.instr_cost;
    stats
}

/// Merge passes are per segment: a segment of length ℓ needs ⌈log₂ ℓ⌉
/// passes, so for a fixed element count shorter segments mean less
/// streamed work — the Fig. 14 effect. Returns the total number of
/// element-passes.
fn merge_work(seg_lens: impl Iterator<Item = usize>) -> u64 {
    seg_lens.map(|l| l as u64 * merge_passes(l as u64)).sum()
}

/// ⌈log₂ ℓ⌉ merge passes over a segment of length ℓ — at least one: the
/// model streams a single-element segment once.
#[inline]
fn merge_passes(len: u64) -> u64 {
    (u64::BITS - (len.max(2) - 1).leading_zeros()) as u64
}

/// Sort every segment of a flat CSR arena in place and return the
/// modelled kernel stats: `offsets[s]..offsets[s+1]` delimits segment `s`
/// in `keys`. This is the hit pipeline's zero-copy entry point — the
/// segments are slices of one contiguous buffer, and `scratch` (from a
/// [`crate::workspace::KernelWorkspace`] pool) makes the steady state
/// allocation-free.
pub fn segmented_sort_flat(
    device: &DeviceConfig,
    keys: &mut [u64],
    offsets: &[u32],
    name: &str,
    scratch: &mut Vec<u64>,
) -> KernelStats {
    segmented_sort_flat_from(device, keys, offsets, name, scratch, SortInput::Global)
}

/// [`segmented_sort_flat`] with the first pass's input explicit: the same
/// sort and the same model, minus the global loads a fused producer has
/// already paid for (see [`SortInput`]).
pub fn segmented_sort_flat_from(
    device: &DeviceConfig,
    keys: &mut [u64],
    offsets: &[u32],
    name: &str,
    scratch: &mut Vec<u64>,
    input: SortInput,
) -> KernelStats {
    debug_assert!(!offsets.is_empty(), "CSR offsets need a leading 0");
    debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(keys.len()));

    // Most bins hold one hit or none: nothing to order, no call.
    for w in offsets.windows(2) {
        if w[1] - w[0] > 1 {
            radix_sort_u64(&mut keys[w[0] as usize..w[1] as usize], scratch);
        }
    }

    let work = merge_work(offsets.windows(2).map(|w| (w[1] - w[0]) as usize));
    model_stats(device, name, keys.len(), work, input)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sort ragged segments through the flat entry: keys laid end to end,
    /// CSR offsets, sorted segments copied back.
    fn sort_ragged(d: &DeviceConfig, segments: &mut [Vec<u64>], name: &str) -> KernelStats {
        let mut keys: Vec<u64> = segments.iter().flatten().copied().collect();
        let mut offsets = vec![0u32];
        for s in segments.iter() {
            offsets.push(offsets[offsets.len() - 1] + s.len() as u32);
        }
        let stats = segmented_sort_flat(d, &mut keys, &offsets, name, &mut Vec::new());
        for (s, w) in segments.iter_mut().zip(offsets.windows(2)) {
            s.copy_from_slice(&keys[w[0] as usize..w[1] as usize]);
        }
        stats
    }

    #[test]
    fn sorts_each_segment_independently() {
        let d = DeviceConfig::k20c();
        let mut segs = vec![vec![3u64, 1, 2], vec![9, 7], vec![]];
        sort_ragged(&d, &mut segs, "sort");
        assert_eq!(segs[0], vec![1, 2, 3]);
        assert_eq!(segs[1], vec![7, 9]);
        assert!(segs[2].is_empty());
    }

    /// The flat entry over ragged shapes is its parts put together: every
    /// segment sorted on its own, and the model of the segment lengths.
    #[test]
    fn flat_and_ragged_agree_on_result_and_stats() {
        let d = DeviceConfig::k20c();
        let mut ragged: Vec<Vec<u64>> = vec![
            (0..100u64).rev().map(|k| k << 40 | 7).collect(),
            vec![],
            vec![5, 5, 5, 1],
            (0..4000u64).map(|k| (k * 2654435761) ^ 0xABCD).collect(),
        ];
        let mut flat = ragged.clone();
        let flat_stats = sort_ragged(&d, &mut flat, "s");

        let mut scratch = Vec::new();
        for seg in ragged.iter_mut() {
            radix_sort_u64(seg, &mut scratch);
        }
        let n: usize = ragged.iter().map(Vec::len).sum();
        let work = merge_work(ragged.iter().map(Vec::len));
        assert_eq!(flat_stats, model_stats(&d, "s", n, work, SortInput::Global));
        assert_eq!(flat, ragged);
        assert!(flat.iter().all(|s| s.windows(2).all(|p| p[0] <= p[1])));
    }

    /// A fused producer's tiles: the sort orders the same keys and bills
    /// the same stores and instructions; of the loads, exactly one pass
    /// over every element is gone.
    #[test]
    fn shared_tile_input_drops_exactly_the_first_pass_loads() {
        let d = DeviceConfig::k20c();
        let keys: Vec<u64> = (0..5000u64).map(|k| k.wrapping_mul(2654435761)).collect();
        let offsets = [0u32, 1, 1, 40, 3000, 5000];
        let mut scratch = Vec::new();
        let (mut a, mut b) = (keys.clone(), keys);
        let global = segmented_sort_flat(&d, &mut a, &offsets, "s", &mut scratch);
        let tile = segmented_sort_flat_from(
            &d,
            &mut b,
            &offsets,
            "s",
            &mut scratch,
            SortInput::SharedTile,
        );
        assert_eq!(a, b);
        let n_bytes = 5000 * 8;
        let first_pass_tx = 2 * (global.global_load_useful_bytes).div_ceil(TRANSACTION_BYTES)
            - 2 * (global.global_load_useful_bytes - n_bytes).div_ceil(TRANSACTION_BYTES);
        let mut want = global.clone();
        want.global_load_useful_bytes -= n_bytes;
        want.global_useful_bytes -= n_bytes;
        want.global_transactions -= first_pass_tx;
        want.global_transacted_bytes -= first_pass_tx * TRANSACTION_BYTES;
        want.global_load_transacted_bytes -= first_pass_tx * TRANSACTION_BYTES;
        want.warp_cycles -= first_pass_tx * d.global_transaction_cost;
        want.active_lane_cycles -= 32 * first_pass_tx * d.global_transaction_cost;
        assert_eq!(tile, want);
    }

    #[test]
    fn radix_matches_sort_unstable() {
        let mut scratch = Vec::new();
        for n in [0usize, 1, 2, 31, 32, 33, 100, 5000] {
            let mut keys: Vec<u64> = (0..n as u64)
                .map(|k| (k.wrapping_mul(0x9E3779B97F4A7C15)) ^ (k << 3))
                .collect();
            let mut want = keys.clone();
            want.sort_unstable();
            radix_sort_u64(&mut keys, &mut scratch);
            assert_eq!(keys, want, "n = {n}");
        }
        // Duplicates and already-sorted inputs.
        let mut dup = vec![3u64; 100];
        dup.extend(0..100u64);
        let mut want = dup.clone();
        want.sort_unstable();
        radix_sort_u64(&mut dup, &mut scratch);
        assert_eq!(dup, want);
    }

    /// The integer pass count against the floating-point formula the
    /// model was written with, `⌈log₂ max(ℓ, 2)⌉`.
    #[test]
    fn merge_passes_match_the_float_formula() {
        let float = |l: u64| (l.max(2) as f64).log2().ceil() as u64;
        for l in 0..=1u64 << 20 {
            assert_eq!(merge_passes(l), float(l), "ℓ = {l}");
        }
        for k in 1..=40 {
            for l in [(1u64 << k) - 1, 1 << k, (1 << k) + 1] {
                assert_eq!(merge_passes(l), float(l), "ℓ = 2^{k} ± 1: {l}");
            }
        }
        assert_eq!(
            merge_work([0usize, 1, 2, 3, 1024, 1025].into_iter()),
            1 + 2 + 6 + 10240 + 11275
        );
    }

    #[test]
    fn more_segments_fewer_cycles_for_same_data() {
        // The Fig. 14 effect: same elements, shorter segments → faster.
        let d = DeviceConfig::k20c();
        let data: Vec<u64> = (0..4096u64).rev().collect();

        let mut one_seg = vec![data.clone()];
        let coarse = sort_ragged(&d, &mut one_seg, "1seg");

        let mut many: Vec<Vec<u64>> = data.chunks(32).map(|c| c.to_vec()).collect();
        let fine = sort_ragged(&d, &mut many, "128seg");

        assert!(
            fine.warp_cycles < coarse.warp_cycles,
            "fine {} vs coarse {}",
            fine.warp_cycles,
            coarse.warp_cycles
        );
    }

    #[test]
    fn empty_input_costs_nothing() {
        let d = DeviceConfig::k20c();
        let mut scratch = Vec::new();
        let s = segmented_sort_flat(&d, &mut [], &[0], "empty", &mut scratch);
        assert_eq!(s.warp_cycles, 0);
        let s = segmented_sort_flat(&d, &mut [], &[0; 5], "empty2", &mut scratch);
        assert_eq!(s.warp_cycles, 0);
    }

    #[test]
    fn load_efficiency_is_mid_range() {
        // Streaming reads + scattered merge writes → well above the coarse
        // kernels' single-digit efficiency, below perfect.
        let d = DeviceConfig::k20c();
        let mut segs = vec![(0..10_000u64).rev().collect::<Vec<_>>()];
        let s = sort_ragged(&d, &mut segs, "eff");
        let e = s.global_load_efficiency();
        assert!((0.2..=0.9).contains(&e), "efficiency = {e}");
    }
}
