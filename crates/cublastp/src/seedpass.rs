//! The body the two seeding kernels share: one pass of a thread block
//! over its database sequences (Algorithm 2), the serialized hit rounds,
//! and the block's arena pages.
//!
//! [`crate::binning::binning_kernel`] and
//! [`crate::grouped::grouped_seeding_kernel`] differ in how a subject word
//! finds its query positions — a DFA transition plus a position list, or a
//! hash probe plus a postings span — and in nothing after that. So each
//! supplies a *lookup* (charge the word look-up of one 32-column chunk,
//! hand back every lane's postings as a borrowed slice) and a *decode*
//! (posting → member, query position, query length); everything else is
//! here, once: warps take sequences round-robin, lanes take consecutive
//! columns, every round emits the k-th posting of the lanes that still
//! have one (bin `top` bump, atomic, scattered write), and the block hands
//! back each member's keys in detection order with their per-slot counts,
//! from which [`SeedPass::launch`] places every key in the member's arena
//! — one copy — as soon as the block is done, so a pass holds one block's
//! pages at a time, not the grid's. The arena stores a boundary only for a
//! slot that holds hits: its size follows the hits, not the `num_warps *
//! num_bins` slots of the launch. The per-query kernel is the one-member
//! case.
//!
//! A lane's postings are one contiguous run of a device table and are
//! billed as one: `(base address, length)` per lane — two for a probe chain
//! that wraps its table — through [`SimBlock::readonly_read_runs`]. Host
//! cost follows the hits; traffic is billed by run (DESIGN.md §3.2).

use crate::binning::BinnedHits;
use crate::config::CuBlastpConfig;
use crate::devicedata::DeviceDbBlock;
use crate::hitpack::{self, pack};
use blast_core::WORD_LEN;
use gpu_sim::device::WARP_SIZE;
use gpu_sim::memory::virtual_alloc;
use gpu_sim::{launch, DeviceConfig, KernelStats, KernelWorkspace, LaunchConfig, SimBlock};
use std::cell::RefCell;

const LANES: usize = WARP_SIZE as usize;

/// Stride decorrelating member bins: hits of different members on the
/// same diagonal land on different per-warp `top` counters, so a group
/// does not serialize on them. Member 0 — the per-query kernel's only
/// member — is unsheared.
const MEMBER_BIN_STRIDE: usize = 131;

/// One block's hits of one member: the hit count of each of the block's
/// `warps_per_block * num_bins` slots, and the packed keys in detection
/// order — warp after warp: counts delimit warps, a diagonal names its bin.
/// While the page is stitched, each count becomes its slot's write cursor.
struct Page {
    counts: Vec<u32>,
    keys: Vec<u64>,
}

/// The launch of a seeding pass under `cfg`: its grid, and the per-warp
/// bin `top` counters (4 bytes per bin per warp — the §4.1 occupancy
/// trade-off) on top of `lookup_shared`, what the kernel's look-up keeps
/// in shared memory. Each seeding kernel's footprint is this with its
/// look-up ([`crate::binning::footprint`], [`crate::grouped::footprint`]).
pub(crate) fn footprint(cfg: &CuBlastpConfig, lookup_shared: u32) -> LaunchConfig {
    let warps_per_block = cfg.warps_per_block.max(1);
    let counters = u64::from(warps_per_block) * cfg.num_bins as u64 * 4;
    LaunchConfig {
        blocks: cfg.grid_blocks.max(1),
        warps_per_block,
        shared_bytes_per_block: u32::try_from(u64::from(lookup_shared) + counters)
            .unwrap_or(u32::MAX),
        use_readonly_cache: cfg.use_readonly_cache,
    }
}

/// Geometry of one seeding launch and its device bin arena.
pub(crate) struct SeedPass {
    warps_per_block: usize,
    num_warps: usize,
    num_bins: usize,
    /// `num_bins - 1` when that is a mask: with the usual power-of-two bin
    /// count the two residues per hit are masks, not hardware divides.
    bin_mask: Option<usize>,
    /// Queries served by the pass (1 for the per-query kernel).
    pub members: usize,
    /// Paper capacity of one bin: up to `query words` hits (of the longest
    /// member); the bins of all warps live in one preallocated buffer.
    bin_capacity: u64,
    bins_base: u64,
}

impl SeedPass {
    /// Lay out a pass of queries of lengths `qlens` over `db`.
    pub(crate) fn new(cfg: &CuBlastpConfig, qlens: &[usize], db: &DeviceDbBlock) -> Self {
        // The packed bin element (Fig. 7) stores diagonal and subject
        // position in 16 bits each; debug_asserts vanish in release builds,
        // so enforce the representable range here, once per block.
        let max_slen = db.max_seq_len;
        for (m, &qlen) in qlens.iter().enumerate() {
            assert!(
                qlen + max_slen <= u16::MAX as usize,
                "query {m} of the pass ({qlen}) + longest subject ({max_slen}) exceeds \
                 the 16-bit diagonal range of the packed hit format (max 65535 combined)"
            );
        }
        let warps_per_block = cfg.warps_per_block.max(1) as usize;
        let num_warps = cfg.grid_blocks.max(1) as usize * warps_per_block;
        let bin_capacity = qlens.iter().copied().max().unwrap_or(0).max(1) as u64;
        Self {
            warps_per_block,
            num_warps,
            num_bins: cfg.num_bins,
            bin_mask: cfg.num_bins.is_power_of_two().then(|| cfg.num_bins - 1),
            members: qlens.len(),
            bin_capacity,
            bins_base: virtual_alloc(num_warps as u64 * cfg.num_bins as u64 * bin_capacity * 8),
        }
    }

    /// Launch the pass as kernel `name` at `launch_cfg` (its kernel's
    /// [`footprint`]) over `db` and return each member's arena with the
    /// launch's stats. `lookup` and `decode` are [`Self::run_block`]'s.
    /// Thread blocks run in block order, and each one's pages are stitched
    /// into the arenas as soon as it is done.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn launch<'p, P: Copy + 'p>(
        &self,
        device: &DeviceConfig,
        launch_cfg: LaunchConfig,
        name: &str,
        db: &DeviceDbBlock,
        ws: &KernelWorkspace,
        lookup: impl Fn(&mut SimBlock, &[u8], usize, &mut [&'p [P]]),
        decode: impl Fn(P) -> (usize, u32, usize),
    ) -> (Vec<BinnedHits>, KernelStats) {
        let arenas: Vec<BinnedHits> = (0..self.members)
            .map(|_| {
                let mut offsets: Vec<u32> = ws.offsets.take();
                offsets.push(0);
                BinnedHits {
                    offsets,
                    keys: ws.keys.take(),
                    total_hits: 0,
                }
            })
            .collect();
        let arenas = RefCell::new(arenas);
        let stats = launch(device, launch_cfg, name, |block| {
            let pages = self.run_block(block, db, ws, &lookup, &decode);
            self.stitch(ws, &mut arenas.borrow_mut(), pages);
        });
        (arenas.into_inner(), stats)
    }

    fn bin_of(&self, x: usize) -> usize {
        self.bin_mask
            .map_or_else(|| x % self.num_bins, |mask| x & mask)
    }

    /// Run one thread block and return its page per member.
    ///
    /// `lookup(block, subject, j0, lanes)` charges the word look-up of
    /// columns `j0..j0 + lanes.len()` — each lane's postings billed as one
    /// run — and sets `lanes[l]` to the postings of column `j0 + l`;
    /// `decode` turns a posting into `(member, query position, query
    /// length)`. All scratch is pooled in `ws`.
    fn run_block<'p, P: Copy + 'p>(
        &self,
        block: &mut SimBlock,
        db: &DeviceDbBlock,
        ws: &KernelWorkspace,
        lookup: &impl Fn(&mut SimBlock, &[u8], usize, &mut [&'p [P]]),
        decode: &impl Fn(P) -> (usize, u32, usize),
    ) -> Vec<Page> {
        let num_bins = self.num_bins;
        let mut pages: Vec<Page> = (0..self.members)
            .map(|_| {
                let mut counts: Vec<u32> = ws.tile_counts.take();
                counts.resize(self.warps_per_block * num_bins, 0);
                Page {
                    counts,
                    keys: ws.tile_keys.take(),
                }
            })
            .collect();
        let mut tops: Vec<u32> = ws.tile_counts.take();
        // Per-bin hit count of the current round — the worst count is the
        // atomic serialization the simulator charges, so the kernel hands
        // it over instead of having the simulator re-derive it from a
        // target list. Reset via `round_bins` after every round.
        let mut round_cnt: Vec<u32> = ws.tile_counts.take();
        round_cnt.resize(num_bins, 0);
        let mut round_bins = [0usize; LANES];
        let mut writes = [0u64; LANES];
        let mut lanes: [&[P]; LANES] = [&[]; LANES];
        // Lanes that still have a posting for the current round, in lane
        // order.
        let mut live = [0usize; LANES];

        for warp_in_block in 0..self.warps_per_block {
            let warp_id = block.block_id as usize * self.warps_per_block + warp_in_block;
            let warp_bins_base =
                self.bins_base + (warp_id * num_bins) as u64 * self.bin_capacity * 8;
            let warp_slot0 = warp_in_block * num_bins;
            tops.clear();
            tops.resize(num_bins, 0);

            let mut i = warp_id;
            while i < db.num_seqs() {
                let subject = db.seq(i);
                let words = subject.len().saturating_sub(WORD_LEN - 1);
                // Residues are contiguous bytes, so lane addresses are
                // `seq_base + column` — one base computation per sequence
                // instead of an offsets lookup per lane.
                let seq_base = db.residue_addr(i, 0);

                let mut j0 = 0usize;
                while j0 < words {
                    let active = (words - j0).min(LANES);
                    // Coalesced read of each lane's word start (lane ℓ reads
                    // column j0+ℓ; a word needs W consecutive residues). The
                    // lane addresses are a stride-1 sequence, so the
                    // coalescing is charged analytically.
                    block.global_read_seq(seq_base + j0 as u64, active as u32, 1, WORD_LEN as u32);
                    lookup(block, subject, j0, &mut lanes[..active]);

                    let mut n_live = 0;
                    for (l, lane) in lanes[..active].iter().enumerate() {
                        live[n_live] = l;
                        n_live += !lane.is_empty() as usize;
                    }
                    // Serialized hit rounds: lanes with more hits keep the
                    // warp busy while others idle (Algorithm 2's `for all
                    // hits` divergence).
                    let mut k = 0;
                    while n_live > 0 {
                        let mut round_max = 0u32;
                        let mut still_live = 0;
                        for idx in 0..n_live {
                            let l = live[idx];
                            let (member, qpos, qlen) = decode(lanes[l][k]);
                            live[still_live] = l;
                            still_live += (lanes[l].len() > k + 1) as usize;

                            let col = (j0 + l) as u32;
                            let diagonal = (col as i64 - qpos as i64 + qlen as i64) as u32;
                            // The member's arena bin, and the device bin
                            // whose `top` counter the hit bumps.
                            let arena_bin = self.bin_of(diagonal as usize);
                            let bin_id = if member == 0 {
                                arena_bin
                            } else {
                                self.bin_of(arena_bin + member * MEMBER_BIN_STRIDE)
                            };
                            let top = tops[bin_id] as u64;
                            tops[bin_id] += 1;
                            // A bin rarely overflows its capacity: skip the
                            // divide unless it has.
                            let wrapped_top = if top < self.bin_capacity {
                                top
                            } else {
                                top % self.bin_capacity
                            };
                            let c = round_cnt[bin_id] + 1;
                            round_cnt[bin_id] = c;
                            round_max = round_max.max(c);
                            round_bins[idx] = bin_id;
                            writes[idx] = warp_bins_base
                                + (bin_id as u64 * self.bin_capacity + wrapped_top) * 8;
                            let page = &mut pages[member];
                            page.counts[warp_slot0 + arena_bin] += 1;
                            page.keys.push(pack(i as u32, diagonal, col));
                        }
                        // Diagonal/bin arithmetic.
                        block.instr(n_live as u32);
                        // atomicAdd on the shared `top` array; conflicts
                        // were counted in the lane loop.
                        block.atomic_shared_counted(n_live as u32, round_max as u64);
                        // Scattered global write of the packed hits.
                        block.global_write(&writes[..n_live], 8);
                        for &b in &round_bins[..n_live] {
                            round_cnt[b] = 0;
                        }
                        n_live = still_live;
                        k += 1;
                    }

                    j0 += LANES;
                }
                i += self.num_warps;
            }
        }
        ws.tile_counts.put(tops);
        ws.tile_counts.put(round_cnt);
        pages
    }

    /// Stitch one thread block's pages — blocks arrive in block order —
    /// into the members' arenas, and return the pages' buffers to the
    /// pool. An arena's slot order is block order, then each block's own
    /// slots, so the block's non-empty slots, laid after the segments of
    /// the blocks before it, are its next segments; every warp's keys then
    /// drop from detection order straight into the warp's bins (stably — a
    /// bin keeps detection order).
    fn stitch(&self, ws: &KernelWorkspace, arenas: &mut [BinnedHits], pages: Vec<Page>) {
        for (arena, mut page) in arenas.iter_mut().zip(pages) {
            let mut total = arena.keys.len() as u32;
            arena.keys.resize(arena.keys.len() + page.keys.len(), 0);
            let mut warp_keys = &page.keys[..];
            for cursors in page.counts.chunks_exact_mut(self.num_bins) {
                // Until its keys are placed, a slot's count is its write
                // cursor: the bin's start, advancing to its end.
                let start = total;
                for cursor in cursors.iter_mut() {
                    let hits = *cursor;
                    *cursor = total;
                    if hits > 0 {
                        total += hits;
                        arena.offsets.push(total);
                    }
                }
                let (these, rest) = warp_keys.split_at((total - start) as usize);
                for &key in these {
                    let cursor = &mut cursors[self.bin_of(hitpack::diagonal(key) as usize)];
                    arena.keys[*cursor as usize] = key;
                    *cursor += 1;
                }
                warp_keys = rest;
            }
            arena.total_hits = u64::from(total);
            ws.tile_counts.put(page.counts);
            ws.tile_keys.put(page.keys);
        }
    }
}
