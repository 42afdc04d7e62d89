//! Warp-based hit detection with binning (paper §3.2, Algorithm 2,
//! Fig. 5).
//!
//! Each warp takes database sequences round-robin (`i += numWarps`); the
//! 32 lanes take consecutive words of the sequence (`j += warpSize`), so
//! subject reads coalesce. Every hit's diagonal maps to a bin
//! (`binId = diagonal mod num_bins`); a per-warp `top` array in shared
//! memory is bumped with an atomic to claim the slot, and the packed
//! 64-bit element (Fig. 7) is written into the bin in global memory.
//!
//! Host-side the bins are one flat **hit arena** in CSR form — a single
//! `keys` buffer with `offsets[s]..offsets[s + 1]` delimiting segment `s`
//! — mirroring the device layout instead of contradicting it with ragged
//! `Vec<Vec<u64>>` bins. A segment is one bin that holds hits; empty bins
//! are never stored, and segments follow slot order (slot = `warp *
//! num_bins + bin`), so the arena is already what the segmented sort
//! streams. Each simulated block records its hits in detection order and
//! counts them per slot as it goes; as soon as the block is done, the host
//! lays its non-empty slots after the segments of the blocks before it and
//! drops every key into its bin — one copy, stable — so a launch holds one
//! block's pages at a time. That body — the block's walk over its
//! sequences, the serialized hit rounds, the stitch — is the private
//! `seedpass` module, shared with the grouped kernel; this file supplies
//! the DFA look-up, one run of the position table per lane. All scratch
//! is pooled in a [`KernelWorkspace`].
//!
//! Hierarchical buffering (§3.5, Fig. 10): the DFA state table lives in
//! shared memory; the query-position lists are fetched through the
//! read-only cache when [`crate::CuBlastpConfig::use_readonly_cache`] is
//! set, and as plain global loads otherwise — the Fig. 17 experiment.

use crate::config::CuBlastpConfig;
use crate::devicedata::{DeviceDbBlock, DeviceQuery};
use crate::seedpass::{self, SeedPass};
use blast_core::words::subject_words;
use blast_core::WORD_LEN;
use gpu_sim::device::WARP_SIZE;
use gpu_sim::{DeviceConfig, KernelStats, KernelWorkspace, LaunchConfig};

/// Shared-memory footprint of the compacted DFA state table (the paper
/// keeps states in shared memory; FSA-BLAST's compressed automaton for a
/// protein query fits in a few kilobytes).
pub const DFA_STATES_SHARED_BYTES: u32 = 8 * 1024;

/// The hit arena — what the seeding kernels write and every hit-reordering
/// stage reads. Packed hits of segment `s` sit in
/// `keys[offsets[s]..offsets[s + 1]]`, in detection order — interleaved
/// across diagonals, exactly the Fig. 5 situation the sorting kernel
/// exists to fix. A segment is one bin that holds hits; segments follow
/// slot order (slot = `warp * num_bins + bin`), and no segment is empty.
pub struct BinnedHits {
    /// CSR segment boundaries: a leading 0, then the end of every
    /// non-empty bin — at most `total_hits + 1` entries.
    pub offsets: Vec<u32>,
    /// All packed hits, grouped by segment.
    pub keys: Vec<u64>,
    /// Total hits detected.
    pub total_hits: u64,
}

impl BinnedHits {
    /// The segments as slices of the flat buffer, in slot order.
    pub fn segments(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.keys[w[0] as usize..w[1] as usize])
    }

    /// Return the arena buffers to the workspace they were drawn from.
    pub fn recycle(self, ws: &KernelWorkspace) {
        ws.offsets.put(self.offsets);
        ws.keys.put(self.keys);
    }
}

/// `hit_detection`'s launch under `cfg`: the DFA states in shared memory
/// next to the pass's bin counters — 8 kB + 32 B a bin at 8 warps, so up
/// to 1 280 bins fit a 48 kB SM.
pub(crate) fn footprint(cfg: &CuBlastpConfig) -> LaunchConfig {
    seedpass::footprint(cfg, DFA_STATES_SHARED_BYTES)
}

/// Run the fine-grained hit-detection + binning kernel over one database
/// block. Returns the hit arena and the kernel's simulated stats.
pub fn binning_kernel(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    ws: &KernelWorkspace,
) -> (BinnedHits, KernelStats) {
    let qlen = query.query_len();
    let pass = SeedPass::new(cfg, &[qlen], db);
    let hood = query.dfa.neighborhood();
    let (offsets, positions) = (hood.raw_offsets(), hood.raw_positions());
    let positions_base = query.positions_base();

    let (mut arenas, stats) = pass.launch(
        device,
        footprint(cfg),
        "hit_detection",
        db,
        ws,
        |block, subject, j0, lanes| {
            // DFA state transition via the shared-memory table.
            block.shared_access(lanes.len() as u32);
            // Each lane's query-position list, borrowed from the DFA — one
            // contiguous run of the position table.
            let mut runs = [(0u64, 0u32); WARP_SIZE as usize];
            let window = &subject[j0..j0 + lanes.len() + WORD_LEN - 1];
            for ((lane, run), (_, code)) in
                lanes.iter_mut().zip(&mut runs).zip(subject_words(window))
            {
                let (lo, hi) = (offsets[code] as usize, offsets[code + 1] as usize);
                *lane = &positions[lo..hi];
                *run = (positions_base + lo as u64 * 4, (hi - lo) as u32);
            }
            // Position-list traffic: read-only cache or global, depending
            // on the Fig. 17 toggle (the read degrades to a global read
            // when the cache is off).
            block.readonly_read_runs(&runs[..lanes.len()], 4);
        },
        |qpos: u32| (0, qpos, qlen),
    );
    (arenas.swap_remove(0), stats)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hitpack::{diagonal, pack, seq_id};

    /// An arena of the given bins in order; empty bins are not stored, as
    /// the seeding kernels store none.
    pub(crate) fn arena(bins: &[Vec<u64>]) -> BinnedHits {
        let mut keys = Vec::new();
        let mut offsets = vec![0u32];
        for bin in bins.iter().filter(|b| !b.is_empty()) {
            keys.extend_from_slice(bin);
            offsets.push(keys.len() as u32);
        }
        BinnedHits {
            offsets,
            total_hits: keys.len() as u64,
            keys,
        }
    }

    /// Each segment's slot in a launch of `num_warps` warps and `num_bins`
    /// bins (warp = sequence mod `num_warps`, bin = diagonal mod
    /// `num_bins`), asserting that every key of a segment names the same
    /// slot.
    pub(crate) fn segment_slots(
        bins: &BinnedHits,
        num_warps: usize,
        num_bins: usize,
    ) -> Vec<usize> {
        let slot =
            |k: u64| (seq_id(k) as usize % num_warps) * num_bins + diagonal(k) as usize % num_bins;
        bins.segments()
            .map(|seg| {
                let s = slot(seg[0]);
                assert!(seg.iter().all(|&k| slot(k) == s), "segment spans slots");
                s
            })
            .collect()
    }
    use bio_seq::generate::make_query;
    use bio_seq::Sequence;
    use blast_core::{Dfa, Matrix, Pssm, SearchParams};

    fn setup(qlen: usize, subjects: Vec<Sequence>) -> (DeviceQuery, DeviceDbBlock) {
        let q = make_query(qlen);
        let m = Matrix::blosum62();
        let p = SearchParams::default();
        let dq = DeviceQuery::upload(Dfa::build(&q, &m, p.threshold), Pssm::build(&q, &m));
        let db = DeviceDbBlock::upload(&subjects, 0);
        (dq, db)
    }

    fn reference_hits(query: &DeviceQuery, db: &DeviceDbBlock) -> Vec<u64> {
        // Column-major reference scan, packed the same way.
        let qlen = query.query_len();
        let mut out = Vec::new();
        for i in 0..db.num_seqs() {
            query.dfa.scan(db.seq(i), |col, qpos| {
                let d = (col as i64 - qpos as i64 + qlen as i64) as u32;
                out.push(pack(i as u32, d, col as u32));
            });
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn binning_finds_exactly_the_reference_hits() {
        let subjects: Vec<Sequence> = (0..40)
            .map(|k| {
                let s = make_query(60 + k * 7);
                Sequence::from_residues(format!("s{k}"), s.residues().to_vec())
            })
            .collect();
        let (dq, db) = setup(64, subjects);
        let cfg = CuBlastpConfig {
            grid_blocks: 4,
            warps_per_block: 2,
            num_bins: 16,
            ..Default::default()
        };
        let ws = KernelWorkspace::new();
        let (bins, stats) = binning_kernel(&DeviceConfig::k20c(), &cfg, &dq, &db, &ws);
        let mut got = bins.keys.clone();
        got.sort_unstable();
        let want = reference_hits(&dq, &db);
        assert_eq!(got, want);
        assert_eq!(bins.total_hits as usize, want.len());
        assert!(stats.warp_cycles > 0);
        assert!(stats.atomic_ops >= bins.total_hits);
    }

    #[test]
    fn hits_land_in_their_diagonal_bin() {
        let subjects = vec![Sequence::from_residues(
            "s",
            make_query(200).residues().to_vec(),
        )];
        let (dq, db) = setup(50, subjects);
        let cfg = CuBlastpConfig {
            grid_blocks: 1,
            warps_per_block: 1,
            num_bins: 8,
            ..Default::default()
        };
        let ws = KernelWorkspace::new();
        let (bins, _) = binning_kernel(&DeviceConfig::k20c(), &cfg, &dq, &db, &ws);
        assert!(bins.total_hits > 0);
        // One warp: a segment's slot is its keys' diagonal bin, and the
        // bins follow each other in slot order.
        let slots = segment_slots(&bins, 1, 8);
        assert!(slots.windows(2).all(|w| w[0] < w[1]), "{slots:?}");
    }

    /// The arena of `binning_kernel` and of every member of
    /// `grouped_seeding_kernel` stores only the bins that hold hits, in
    /// slot order: no empty segment, at most `total_hits + 1` boundaries,
    /// and slots strictly rising — however many slots the launch has.
    #[test]
    fn arena_stores_only_bins_that_hold_hits() {
        use crate::grouped::{grouped_seeding_kernel, DeviceGroupIndex};
        let subjects: Vec<Sequence> = (0..30)
            .map(|k| {
                Sequence::from_residues(format!("s{k}"), make_query(40 + k * 9).residues().to_vec())
            })
            .collect();
        let (dq, db) = setup(64, subjects);
        let others: Vec<DeviceQuery> = [23, 90].iter().map(|&l| setup(l, vec![]).0).collect();
        let d = DeviceConfig::k20c();
        let ws = KernelWorkspace::new();
        let check = |bins: &BinnedHits, cfg: &CuBlastpConfig| {
            let num_warps = (cfg.grid_blocks * cfg.warps_per_block) as usize;
            assert!(bins.total_hits > 0);
            assert_eq!(*bins.offsets.last().unwrap() as u64, bins.total_hits);
            assert!(bins.offsets.len() as u64 <= bins.total_hits + 1);
            assert!(bins.segments().all(|seg| !seg.is_empty()), "empty segment");
            let slots = segment_slots(bins, num_warps, cfg.num_bins);
            assert!(slots.windows(2).all(|w| w[0] < w[1]), "{slots:?}");
        };
        // The default launch has 26 624 slots; the others mask (16 bins)
        // and divide (24) the diagonal.
        for cfg in [
            CuBlastpConfig::default(),
            CuBlastpConfig {
                grid_blocks: 3,
                warps_per_block: 2,
                num_bins: 16,
                ..Default::default()
            },
            CuBlastpConfig {
                grid_blocks: 2,
                warps_per_block: 4,
                num_bins: 24,
                ..Default::default()
            },
        ] {
            let (bins, _) = binning_kernel(&d, &cfg, &dq, &db, &ws);
            check(&bins, &cfg);
            let group = DeviceGroupIndex::upload(&[&others[0], &dq, &others[1]]);
            let (members, _) = grouped_seeding_kernel(&d, &cfg, &group, &db, &ws);
            for member in &members {
                check(member, &cfg);
            }
        }
    }

    #[test]
    fn more_bins_use_more_shared_memory_and_lower_occupancy() {
        let subjects = vec![Sequence::from_residues(
            "s",
            make_query(150).residues().to_vec(),
        )];
        let (dq, db) = setup(64, subjects);
        let d = DeviceConfig::k20c();
        let ws = KernelWorkspace::new();
        let occ = |bins: usize| {
            let cfg = CuBlastpConfig {
                num_bins: bins,
                grid_blocks: 2,
                warps_per_block: 8,
                ..Default::default()
            };
            binning_kernel(&d, &cfg, &dq, &db, &ws).1.occupancy
        };
        assert!(occ(512) < occ(32), "512-bin occupancy must be lower");
    }

    #[test]
    fn empty_block_is_clean() {
        let (dq, db) = setup(64, vec![]);
        let cfg = CuBlastpConfig::default();
        let ws = KernelWorkspace::new();
        let (bins, _) = binning_kernel(&DeviceConfig::k20c(), &cfg, &dq, &db, &ws);
        assert_eq!(bins.total_hits, 0);
        assert!(bins.keys.is_empty());
        assert_eq!(bins.offsets, [0], "no segment");
        assert_eq!(bins.segments().count(), 0);
    }

    #[test]
    fn repeat_runs_reuse_workspace_buffers() {
        let subjects: Vec<Sequence> = (0..10)
            .map(|k| {
                Sequence::from_residues(format!("s{k}"), make_query(120 + k).residues().to_vec())
            })
            .collect();
        let (dq, db) = setup(64, subjects);
        let cfg = CuBlastpConfig {
            grid_blocks: 2,
            warps_per_block: 2,
            num_bins: 16,
            ..Default::default()
        };
        let d = DeviceConfig::k20c();
        let ws = KernelWorkspace::new();
        for _ in 0..2 {
            let (bins, _) = binning_kernel(&d, &cfg, &dq, &db, &ws);
            bins.recycle(&ws);
        }
        let warm = ws.allocations();
        for _ in 0..3 {
            let (bins, _) = binning_kernel(&d, &cfg, &dq, &db, &ws);
            bins.recycle(&ws);
        }
        assert_eq!(ws.allocations(), warm, "steady state must not allocate");
    }

    #[test]
    fn readonly_cache_reduces_cycles() {
        let subjects: Vec<Sequence> = (0..20)
            .map(|k| {
                Sequence::from_residues(format!("s{k}"), make_query(300 + k).residues().to_vec())
            })
            .collect();
        let (dq, db) = setup(127, subjects);
        let d = DeviceConfig::k20c();
        let ws = KernelWorkspace::new();
        let base = CuBlastpConfig {
            grid_blocks: 2,
            warps_per_block: 4,
            ..Default::default()
        };
        let with = binning_kernel(
            &d,
            &CuBlastpConfig {
                use_readonly_cache: true,
                ..base
            },
            &dq,
            &db,
            &ws,
        )
        .1;
        let without = binning_kernel(
            &d,
            &CuBlastpConfig {
                use_readonly_cache: false,
                ..base
            },
            &dq,
            &db,
            &ws,
        )
        .1;
        assert!(
            with.warp_cycles < without.warp_cycles,
            "cache on: {} cycles, off: {}",
            with.warp_cycles,
            without.warp_cycles
        );
        assert!(with.rocache_hits > 0);
        assert_eq!(without.rocache_hits, 0);
    }
}
