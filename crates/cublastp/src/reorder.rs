//! Hit reordering: assembling, sorting and filtering (paper §3.3,
//! Fig. 6–7) — one fused kernel in the search, three single-stage kernels
//! for the figures.
//!
//! After binning, the hits of one bin interleave across diagonals (and
//! across the sequences a warp handled). Three stages restore the order
//! ungapped extension needs:
//!
//! 1. **Assembling** (Fig. 6a) — gather the ragged bins into one
//!    contiguous array so the segmented sort can stream them at full
//!    throughput. Host-side the seeding kernels already write that array
//!    (below), so assembling is billed on the modelled device only.
//! 2. **Sorting** (Fig. 6b) — a segmented sort of the packed 64-bit
//!    elements; ascending order is (sequence, diagonal, subject position)
//!    by construction of the packing.
//! 3. **Filtering** (Fig. 6c) — drop every hit whose left neighbour on the
//!    same (sequence, diagonal) is farther than the two-hit window: such a
//!    hit can never trigger an extension. The paper measures only 5–11 %
//!    of hits surviving, which is what makes the extra pass profitable.
//!
//! They run as **one launch**, [`reorder_kernel`] (`hit_reordering`):
//! thread blocks tile the hit arena in the sort's 2 048-key tiles, the
//! gather fills the tile in shared memory, the merge passes run on it,
//! and the neighbour test is the epilogue on the sorted tile — the
//! assembled array is never written, the sorted array never re-read
//! (DESIGN.md §3.2 has the billing rule). The search runs that launch as
//! the prologue of the extension kernel,
//! [`crate::extension::hit_tail_kernel`]. [`assemble_kernel`],
//! [`sort_kernel`] and [`filter_kernel_mode`] launch one stage each over
//! the same stage bodies; Fig. 14, the pinned stats and the benchmark's
//! traced replay read those.
//!
//! Host-side, every stage operates on the one hit-arena format,
//! [`BinnedHits`]: CSR over the bins that hold hits, in slot order, as the
//! seeding kernels write it. Assembling hands the arena on untouched (the
//! copy the standalone kernel charges happens only on the modelled
//! device); sorting runs the radix segmented sort in place over segment
//! slices; filtering reads the same flat buffer and compacts survivors
//! through pooled per-block buffers returned by value from
//! [`gpu_sim::launch_map`].

use crate::binning::BinnedHits;
use crate::config::CuBlastpConfig;
use crate::hitpack::{group_key, subject_pos};
use gpu_sim::device::WARP_SIZE;
use gpu_sim::memory::virtual_alloc;
use gpu_sim::scan::WARP_SCAN_STEPS;
use gpu_sim::sort::{
    segmented_sort_flat_from, SortInput, TILE_ELEMENTS as TILE, TILE_SHARED_BYTES, TILE_WARPS,
};
use gpu_sim::{
    launch, launch_map, DeviceConfig, KernelStats, KernelWorkspace, LaunchConfig, SimBlock,
};

/// Assemble the bins into a contiguous array. Thread blocks tile the
/// *output* array (2048 elements each) and gather from the bins — both
/// sides stream, so reads and writes coalesce and lanes stay fully active
/// regardless of how small individual bins are. Host-side the arena
/// already is that array, so the output is the input, and `_ws` is
/// unused.
pub fn assemble_kernel(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    binned: BinnedHits,
    _ws: &KernelWorkspace,
) -> (BinnedHits, KernelStats) {
    let total = binned.total_hits as usize;
    let src_base = virtual_alloc(total.max(1) as u64 * 8);
    let dst_base = virtual_alloc(total.max(1) as u64 * 8);

    let launch_cfg = stage_launch(cfg, total);
    let stats = launch(device, launch_cfg, "hit_assembling", |block| {
        let lo = block.block_id as usize * TILE;
        let hi = (lo + TILE).min(total);
        let mut j = lo;
        while j < hi {
            // Both streams are stride-8 sequences, so the coalescing is
            // charged analytically — no address buffers on the host.
            let active = ((hi - j).min(WARP_SIZE as usize)) as u32;
            block.global_read_seq(src_base + (j as u64) * 8, active, 8, 8);
            block.global_write_seq(dst_base + (j as u64) * 8, active, 8, 8);
            j += WARP_SIZE as usize;
        }
    });
    (binned, stats)
}

/// A single-stage launch over `n` keys: 2048-key tiles at the configured
/// block size, no shared memory.
fn stage_launch(cfg: &CuBlastpConfig, n: usize) -> LaunchConfig {
    LaunchConfig {
        blocks: tiles(n),
        warps_per_block: cfg.warps_per_block,
        shared_bytes_per_block: 0,
        use_readonly_cache: false,
    }
}

/// Segmented sort of the hit arena (Fig. 6b / Fig. 7) — delegates to the
/// ModernGPU-model radix kernel in `gpu-sim`, sorting each segment slice
/// of the arena in place with pooled ping-pong scratch.
pub fn sort_kernel(
    device: &DeviceConfig,
    hits: &mut BinnedHits,
    ws: &KernelWorkspace,
) -> KernelStats {
    sort_stage(device, hits, "hit_sorting", SortInput::Global, ws)
}

/// The sort stage under `name`, with pooled ping-pong scratch; `input`
/// says whether the first merge pass loads from global memory.
fn sort_stage(
    device: &DeviceConfig,
    hits: &mut BinnedHits,
    name: &str,
    input: SortInput,
    ws: &KernelWorkspace,
) -> KernelStats {
    let mut scratch = ws.keys.take();
    let stats = segmented_sort_flat_from(
        device,
        &mut hits.keys,
        &hits.offsets,
        name,
        &mut scratch,
        input,
    );
    ws.keys.put(scratch);
    stats
}

/// Output of the filtering kernel.
pub struct FilteredHits {
    /// Surviving hits, concatenated segment by segment; within the whole
    /// vector every (sequence, diagonal) group is contiguous and sorted by
    /// subject position.
    pub hits: Vec<u64>,
    /// Hits before filtering.
    pub before: u64,
}

impl FilteredHits {
    /// Fraction of hits that survived (the paper's 5–11 % observation).
    pub fn survival_ratio(&self) -> f64 {
        if self.before == 0 {
            0.0
        } else {
            self.hits.len() as f64 / self.before as f64
        }
    }

    /// Return the hit buffer to the workspace it was drawn from.
    pub fn recycle(self, ws: &KernelWorkspace) {
        ws.keys.put(self.hits);
    }
}

/// Filtering kernel: one thread per hit compares against its left
/// neighbour in the concatenated sorted array and keeps the hit only when
/// the neighbour is on the same (sequence, diagonal) within the two-hit
/// window. A (sequence, diagonal) group never spans a segment boundary,
/// so the group-key comparison makes flat tiling over the whole array
/// correct — lanes stay dense and reads coalesce. Survivors compact into
/// a per-block buffer with a warp scan, avoiding global atomics (§3.3).
pub fn filter_kernel(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    sorted: &BinnedHits,
    window: i64,
    ws: &KernelWorkspace,
) -> (FilteredHits, KernelStats) {
    filter_kernel_mode(device, cfg, sorted, true, window, ws)
}

/// [`filter_kernel`] with an explicit seeding mode. In one-hit mode
/// (`two_hit = false`) every hit is extendable, so the kernel degenerates
/// to a pass-through copy (still charged: the hits must be compacted for
/// the extension kernel either way).
pub fn filter_kernel_mode(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    sorted: &BinnedHits,
    two_hit: bool,
    window: i64,
    ws: &KernelWorkspace,
) -> (FilteredHits, KernelStats) {
    let launch_cfg = stage_launch(cfg, sorted.keys.len());
    let rule = Neighbour { two_hit, window };
    filter_tiles(device, launch_cfg, "hit_filtering", sorted, rule, false, ws)
}

/// The fused hit-reordering kernel: gather → segmented sort → neighbour
/// filter in **one launch** over the binned arena. Thread blocks tile the
/// arena in the sort's 2048-key tiles; each block gathers its tile from
/// the non-empty bins straight into shared memory (the read
/// [`assemble_kernel`] bills — the contiguous copy is never written),
/// runs the merge passes on it (billed as [`sort_kernel`] bills them,
/// minus the first pass's global loads), and filters the sorted tile
/// where it lies (the instructions and survivor writes
/// [`filter_kernel_mode`] bills — the sorted array is never re-read; the
/// one key a tile cannot see, its left neighbour across the tile edge,
/// is an 8-byte global read). One launch overhead, at the occupancy of
/// the sort's 16 kB tile. The survivors equal the staged path's, in its
/// order. The search runs this prologue inside
/// [`crate::extension::hit_tail_kernel`]; Figs. 16 and 19 profile it
/// here, on its own.
pub fn reorder_kernel(
    device: &DeviceConfig,
    mut hits: BinnedHits,
    two_hit: bool,
    window: i64,
    ws: &KernelWorkspace,
) -> (FilteredHits, KernelStats) {
    const NAME: &str = "hit_reordering";
    let launch_cfg = LaunchConfig {
        blocks: tiles(hits.total_hits as usize),
        warps_per_block: TILE_WARPS,
        shared_bytes_per_block: TILE_SHARED_BYTES,
        use_readonly_cache: false,
    };
    let k_sort = sorted_tiles(device, &mut hits, NAME, ws);
    let rule = Neighbour { two_hit, window };
    let (filtered, mut stats) = filter_tiles(device, launch_cfg, NAME, &hits, rule, true, ws);
    stats.merge(&k_sort);
    hits.recycle(ws);
    (filtered, stats)
}

/// Thread blocks of a launch that tiles `n` keys.
pub(crate) fn tiles(n: usize) -> u32 {
    n.div_ceil(TILE).max(1) as u32
}

/// The first two stages of a fused launch named `name`: every segment of
/// the arena is sorted in place with the first merge pass reading the tile
/// in shared memory (the gather into the tile is billed by the epilogue's
/// load). Returns the merge passes' bill.
pub(crate) fn sorted_tiles(
    device: &DeviceConfig,
    hits: &mut BinnedHits,
    name: &str,
    ws: &KernelWorkspace,
) -> KernelStats {
    sort_stage(device, hits, name, SortInput::SharedTile, ws)
}

/// The two-hit rule of the filter.
#[derive(Clone, Copy)]
pub(crate) struct Neighbour {
    pub(crate) two_hit: bool,
    pub(crate) window: i64,
}

impl Neighbour {
    /// Whether `cur` can trigger an extension given its left neighbour in
    /// the sorted array (`None` for the array's first hit).
    #[inline]
    pub(crate) fn extendable(self, prev: Option<u64>, cur: u64) -> bool {
        !self.two_hit
            || prev.is_some_and(|prev| {
                group_key(cur) == group_key(prev)
                    && (subject_pos(cur) as i64 - subject_pos(prev) as i64) <= self.window
            })
    }
}

/// The tile walk under both filters: every block runs [`filter_tile`]
/// over its 2 048 keys and writes its survivors out.
fn filter_tiles(
    device: &DeviceConfig,
    launch_cfg: LaunchConfig,
    name: &str,
    sorted: &BinnedHits,
    rule: Neighbour,
    tile_resident: bool,
    ws: &KernelWorkspace,
) -> (FilteredHits, KernelStats) {
    let concat: &[u64] = &sorted.keys;
    let before = concat.len() as u64;
    let src_base = virtual_alloc(before.max(1) * 8);
    let dst_base = virtual_alloc(before.max(1) * 8);

    let (per_block, stats) = launch_map(device, launch_cfg, name, |block| {
        let mut kept: Vec<u64> = ws.tile_keys.take();
        let tile = FilterTile {
            rule,
            tile_resident,
            src_base,
            dst_base: Some(dst_base),
        };
        tile.run(block, concat, &mut kept);
        kept
    });

    let mut hits: Vec<u64> = ws.keys.take();
    for kept in per_block {
        hits.extend_from_slice(&kept);
        ws.tile_keys.put(kept);
    }
    (FilteredHits { hits, before }, stats)
}

/// One thread block's neighbour filter over its tile of the sorted keys:
/// every 32-lane chunk loads its keys, runs the neighbour test and
/// warp-scans its survivors into the block's output. Standalone, the load
/// is the sorted array; fused (`tile_resident`), the same stream is the
/// gather from the bins into the shared-memory tile the sort and this
/// epilogue then work on, and a tile past the first fetches its left
/// neighbour across the tile edge with one 8-byte read. With `dst_base`
/// the survivors are written to global memory; without it they stay in
/// the tile for the kernel's next stage.
pub(crate) struct FilterTile {
    pub(crate) rule: Neighbour,
    pub(crate) tile_resident: bool,
    pub(crate) src_base: u64,
    pub(crate) dst_base: Option<u64>,
}

impl FilterTile {
    /// Filter tile `block.block_id` of `keys`, appending its survivors to
    /// `kept`.
    pub(crate) fn run(&self, block: &mut SimBlock, keys: &[u64], kept: &mut Vec<u64>) {
        let lo = block.block_id as usize * TILE;
        let hi = (lo + TILE).min(keys.len());
        if self.tile_resident && lo > 0 {
            block.global_read_seq(self.src_base + (lo as u64 - 1) * 8, 1, 8, 8);
        }
        // In two-hit mode the array's very first hit has no neighbour.
        let mut prev = lo.checked_sub(1).map(|p| keys[p]);
        let first = kept.len();
        let mut j = lo;
        while j < hi {
            let active = (hi - j).min(WARP_SIZE as usize);
            // Each lane reads its hit; the left neighbour is the previous
            // lane's value (one extra element at the chunk boundary).
            block.global_read_seq(self.src_base + (j as u64) * 8, active as u32, 8, 8);
            // Distance comparison + warp-scan compaction of survivors.
            block.instr(active as u32);
            block.instr_n(active as u32, WARP_SCAN_STEPS);
            let n0 = kept.len();
            for &cur in &keys[j..j + active] {
                if self.rule.extendable(prev, cur) {
                    kept.push(cur);
                }
                prev = Some(cur);
            }
            // Survivor writes advance with both the output cursor and the
            // in-warp scan rank, a stride-16 sequence from the chunk's
            // first free output slot — charged analytically.
            if let Some(dst) = self.dst_base {
                let at = dst + (n0 - first) as u64 * 8;
                block.global_write_seq(at, (kept.len() - n0) as u32, 16, 8);
            }
            j += WARP_SIZE as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hitpack::pack;

    fn binned(bins: Vec<Vec<u64>>) -> BinnedHits {
        crate::binning::tests::arena(&bins)
    }

    #[test]
    fn assemble_drops_empty_bins_and_keeps_hits() {
        let d = DeviceConfig::k20c();
        let cfg = CuBlastpConfig::default();
        let ws = KernelWorkspace::new();
        let b = binned(vec![
            vec![pack(0, 5, 3)],
            vec![],
            vec![pack(0, 2, 1), pack(1, 2, 9)],
        ]);
        let (asm, _) = assemble_kernel(&d, &cfg, b, &ws);
        assert_eq!(asm.offsets, [0, 1, 3], "the arena stores no empty bin");
        assert_eq!(asm.keys, [pack(0, 5, 3), pack(0, 2, 1), pack(1, 2, 9)]);
        let lens: Vec<usize> = asm.segments().map(<[u64]>::len).collect();
        assert_eq!(lens, vec![1, 2]);
    }

    #[test]
    fn assemble_moves_the_arena_without_copying() {
        let d = DeviceConfig::k20c();
        let cfg = CuBlastpConfig::default();
        let ws = KernelWorkspace::new();
        let b = binned(vec![vec![pack(0, 1, 1)], vec![pack(0, 2, 2)]]);
        let (key_ptr, offsets_ptr) = (b.keys.as_ptr(), b.offsets.as_ptr());
        let (asm, _) = assemble_kernel(&d, &cfg, b, &ws);
        assert_eq!(asm.keys.as_ptr(), key_ptr, "keys must move, not copy");
        assert_eq!(asm.offsets.as_ptr(), offsets_ptr, "the arena is the output");
    }

    #[test]
    fn assemble_of_large_bins_is_coalesced() {
        let d = DeviceConfig::k20c();
        let cfg = CuBlastpConfig::default();
        let ws = KernelWorkspace::new();
        let big: Vec<u64> = (0..512u32).map(|k| pack(0, 3, k)).collect();
        let (_, stats) = assemble_kernel(&d, &cfg, binned(vec![big]), &ws);
        // 32 consecutive 8-byte elements per warp read = 2 transactions.
        assert!(
            stats.global_load_efficiency() > 0.9,
            "efficiency = {}",
            stats.global_load_efficiency()
        );
    }

    #[test]
    fn sort_orders_within_segments() {
        let d = DeviceConfig::k20c();
        let ws = KernelWorkspace::new();
        let mut asm = binned(vec![vec![pack(1, 3, 7), pack(0, 9, 2), pack(0, 9, 1)]]);
        sort_kernel(&d, &mut asm, &ws);
        assert_eq!(asm.keys, vec![pack(0, 9, 1), pack(0, 9, 2), pack(1, 3, 7)]);
    }

    #[test]
    fn filter_keeps_only_second_hits_within_window() {
        let d = DeviceConfig::k20c();
        let cfg = CuBlastpConfig::default();
        let ws = KernelWorkspace::new();
        let asm = binned(vec![vec![
            pack(0, 4, 10),
            pack(0, 4, 30),  // within 40 of 10 → kept
            pack(0, 4, 100), // 70 away → dropped
            pack(0, 4, 120), // within 40 of 100 → kept
            pack(0, 7, 125), // different diagonal, no neighbour → dropped
            pack(1, 4, 11),  // different sequence → dropped
        ]]);
        let (f, _) = filter_kernel(&d, &cfg, &asm, 40, &ws);
        assert_eq!(f.hits, vec![pack(0, 4, 30), pack(0, 4, 120)]);
        assert_eq!(f.before, 6);
        assert!((f.survival_ratio() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn filter_boundary_exactly_window() {
        let d = DeviceConfig::k20c();
        let cfg = CuBlastpConfig::default();
        let ws = KernelWorkspace::new();
        let asm = binned(vec![vec![pack(0, 4, 0), pack(0, 4, 40), pack(0, 4, 81)]]);
        let (f, _) = filter_kernel(&d, &cfg, &asm, 40, &ws);
        // Distance 40 ≤ 40 kept; 41 dropped.
        assert_eq!(f.hits, vec![pack(0, 4, 40)]);
    }

    #[test]
    fn filter_across_chunk_boundaries() {
        // A pair straddling the 32-lane chunk edge must still be compared.
        let d = DeviceConfig::k20c();
        let cfg = CuBlastpConfig::default();
        let ws = KernelWorkspace::new();
        let mut seg: Vec<u64> = (0..33u32).map(|k| pack(0, 4, k * 2)).collect();
        seg.sort_unstable();
        let asm = binned(vec![seg]);
        let (f, _) = filter_kernel(&d, &cfg, &asm, 40, &ws);
        assert_eq!(f.hits.len(), 32, "all but the first are within window");
    }

    #[test]
    fn empty_everything() {
        let d = DeviceConfig::k20c();
        let cfg = CuBlastpConfig::default();
        let ws = KernelWorkspace::new();
        let (asm, _) = assemble_kernel(&d, &cfg, binned(vec![vec![], vec![]]), &ws);
        assert_eq!(asm.segments().count(), 0);
        let (f, _) = filter_kernel(&d, &cfg, &asm, 40, &ws);
        assert!(f.hits.is_empty());
        assert_eq!(f.survival_ratio(), 0.0);
    }

    /// Deterministic pseudo-random stream for the arena generator.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = (self.0)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) % n.max(1)
        }
    }

    /// `len` hits of bin `bin` (of `bins`): runs along a few (sequence,
    /// diagonal) groups whose steps land on, just inside and just outside
    /// `window`, in scrambled order. Diagonals are `bin` mod `bins`, so a
    /// group never leaves its bin — the binning kernel's guarantee.
    fn bin_hits(rng: &mut Lcg, bin: usize, bins: usize, len: usize, window: u32) -> Vec<u64> {
        let mut v = Vec::with_capacity(len);
        let (mut seq, mut diag, mut pos) = (0u32, bin as u32, 0u32);
        while v.len() < len {
            if pos > 60_000 || rng.below(6) == 0 {
                seq = rng.below(3) as u32;
                diag = (bin + bins * rng.below(3) as usize) as u32;
                pos = rng.below(200) as u32;
            }
            v.push(pack(seq, diag, pos));
            pos += match rng.below(5) {
                0 => window,
                1 => window + 1,
                2 => 1,
                3 => 1 + rng.below(window as u64) as u32,
                _ => window + 2 + rng.below(90) as u32,
            };
        }
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i as u64 + 1) as usize);
        }
        v
    }

    /// One generated arena as ragged bins. Shapes: 0–2 random bins with
    /// `empty_pct` of them empty, 3 all bins empty, 4 one segment longer
    /// than a tile among ordinary ones, 5 / 6 a dense group (every hit
    /// within `window` of the last) starting a few keys before a 32-lane
    /// chunk edge / the 2 048-key tile edge.
    fn arena(shape: u32, seed: u64, empty_pct: u64, window: u32) -> Vec<Vec<u64>> {
        let mut rng = Lcg(seed);
        let bins = 2 + rng.below(38) as usize;
        let mut v: Vec<Vec<u64>> = (0..bins)
            .map(|b| {
                let len = match (shape, rng.below(100) < empty_pct) {
                    (3, _) | (_, true) => 0,
                    _ => 1 + rng.below(70) as usize,
                };
                bin_hits(&mut rng, b, bins, len, window)
            })
            .collect();
        match shape {
            4 => {
                let b = rng.below(bins as u64) as usize;
                let len = TILE + 1 + rng.below(3000) as usize;
                v[b] = bin_hits(&mut rng, b, bins, len, window);
            }
            5 | 6 => {
                let edge = if shape == 5 { WARP_SIZE as usize } else { TILE };
                let lead = edge - 1 - rng.below(20) as usize;
                let mut filled = 0;
                for (b, bin) in v.iter_mut().enumerate().take(bins - 1) {
                    let len = if b == bins - 2 {
                        lead - filled
                    } else {
                        (lead - filled).min(rng.below(400) as usize)
                    };
                    *bin = bin_hits(&mut rng, b, bins, len, window);
                    filled += len;
                }
                let step = 1 + rng.below(window as u64) as u32;
                v[bins - 1] = (0..40u32)
                    .rev()
                    .map(|k| pack(1, bins as u32 - 1, 7 + k * step))
                    .collect();
            }
            _ => {}
        }
        v
    }

    struct Staged {
        filtered: FilteredHits,
        stages: [KernelStats; 3],
    }

    fn staged(
        d: &DeviceConfig,
        cfg: &CuBlastpConfig,
        bins: Vec<Vec<u64>>,
        rule: Neighbour,
    ) -> Staged {
        let ws = KernelWorkspace::new();
        let (mut asm, k_asm) = assemble_kernel(d, cfg, binned(bins), &ws);
        let k_sort = sort_kernel(d, &mut asm, &ws);
        let (filtered, k_filter) = filter_kernel_mode(d, cfg, &asm, rule.two_hit, rule.window, &ws);
        Staged {
            filtered,
            stages: [k_asm, k_sort, k_filter],
        }
    }

    fn fused(
        d: &DeviceConfig,
        bins: Vec<Vec<u64>>,
        rule: Neighbour,
    ) -> (FilteredHits, KernelStats) {
        reorder_kernel(
            d,
            binned(bins),
            rule.two_hit,
            rule.window,
            &KernelWorkspace::new(),
        )
    }

    /// Every counter of a stats record (everything but the name and the
    /// launch geometry).
    fn counters(k: &KernelStats) -> KernelStats {
        let mut c = KernelStats::new("");
        c.merge(k);
        c
    }

    /// **The billing rule of the fused launch** (DESIGN.md §3.2 quotes this
    /// function): over `n` keys whose standalone sort bills `k_sort`,
    /// `hit_reordering` = assemble + sort + filter − `removed` + `added`.
    ///
    /// `removed` is the traffic fusion physically removes: (i) the
    /// assembled array's write and its re-read by the first merge pass —
    /// one pass over every key at the merge model's two transactions per
    /// line; (ii) the filter's re-read of the sorted array. `added` is
    /// what the epilogue cannot find in its own tile: the left neighbour
    /// across the tile edge, one 8-byte read per tile past the first.
    fn fusion_ledger(d: &DeviceConfig, n: usize, k_sort: &KernelStats) -> [KernelStats; 2] {
        let one_block = LaunchConfig {
            blocks: 1,
            warps_per_block: 1,
            shared_bytes_per_block: 0,
            use_readonly_cache: false,
        };
        let mut removed = launch(d, one_block, "removed", |block| {
            for j in (0..n).step_by(WARP_SIZE as usize) {
                let active = (n - j).min(WARP_SIZE as usize) as u32;
                block.global_write_seq(j as u64 * 8, active, 8, 8); // (i)
                block.global_read_seq(j as u64 * 8, active, 8, 8); // (ii)
            }
        });
        // (i), the first merge pass: the sort loads `work` element-passes.
        let work = k_sort.global_load_useful_bytes / 8;
        let tx = |passes: u64| 2 * (passes * 8).div_ceil(128);
        let first_pass_tx = tx(work) - tx(work - n as u64);
        removed.global_transactions += first_pass_tx;
        removed.global_transacted_bytes += first_pass_tx * 128;
        removed.global_load_transacted_bytes += first_pass_tx * 128;
        removed.global_useful_bytes += n as u64 * 8;
        removed.global_load_useful_bytes += n as u64 * 8;
        removed.warp_cycles += first_pass_tx * d.global_transaction_cost;
        removed.active_lane_cycles += 32 * first_pass_tx * d.global_transaction_cost;

        let added = launch(d, one_block, "added", |block| {
            for lo in (TILE..n).step_by(TILE) {
                block.global_read_seq((lo as u64 - 1) * 8, 1, 8, 8);
            }
        });
        [removed, added]
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// One launch or three: the same survivors in the same order.
        #[test]
        fn fused_reorder_equals_the_three_stages(
            shape in 0u32..7,
            seed in proptest::prelude::any::<u64>(),
            empty_pct in 0u64..100,
            window in 1u32..48,
            two_hit in proptest::prelude::any::<bool>(),
        ) {
            let d = DeviceConfig::k20c();
            let rule = Neighbour { two_hit, window: window as i64 };
            let bins = arena(shape, seed, empty_pct, window);
            let want = staged(&d, &CuBlastpConfig::default(), bins.clone(), rule).filtered;
            let (got, _) = fused(&d, bins, rule);
            proptest::prop_assert_eq!(got.before, want.before);
            proptest::prop_assert_eq!(got.hits, want.hits);
        }

        /// The fused launch bills what the three launches bill, minus the
        /// traffic `fusion_ledger` names, under one launch at the sort
        /// tile's geometry — and is never the dearer of the two.
        #[test]
        fn fused_reorder_bills_the_stages_minus_named_traffic(
            shape in 0u32..7,
            seed in proptest::prelude::any::<u64>(),
            empty_pct in 0u64..100,
            window in 1u32..48,
            two_hit in proptest::prelude::any::<bool>(),
            warps_per_block in 1u32..9,
        ) {
            let rule = Neighbour { two_hit, window: window as i64 };
            let cfg = CuBlastpConfig { warps_per_block, ..Default::default() };
            let bins = arena(shape, seed, empty_pct, window);
            let n: usize = bins.iter().map(Vec::len).sum();
            for d in [DeviceConfig::k20c(), DeviceConfig::k40(), DeviceConfig::gtx680()] {
                let Staged { stages, .. } = staged(&d, &cfg, bins.clone(), rule);
                let (_, k) = fused(&d, bins.clone(), rule);

                let [removed, added] = fusion_ledger(&d, n, &stages[1]);
                let mut billed = counters(&k);
                billed.merge(&removed);
                let mut owed = counters(&added);
                stages.iter().for_each(|s| owed.merge(s));
                proptest::prop_assert_eq!(billed, owed);

                proptest::prop_assert_eq!(k.name.as_str(), "hit_reordering");
                proptest::prop_assert_eq!(
                    (k.blocks, k.warps_per_block, k.occupancy),
                    (stages[1].blocks, stages[1].warps_per_block, stages[1].occupancy)
                );
                // At the tile's own block size that is the most
                // constrained of the three.
                proptest::prop_assert!(
                    warps_per_block != TILE_WARPS
                        || stages.iter().all(|s| k.occupancy <= s.occupancy)
                );

                // Fused launch is never dearer.
                let apart: f64 = stages.iter().map(|s| s.time_ms(&d)).sum();
                proptest::prop_assert!(
                    k.time_ms(&d) <= apart,
                    "fused {} ms > staged {} ms over {} keys", k.time_ms(&d), apart, n
                );
            }
        }
    }
}
