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
//! `keys` buffer with `offsets[slot]..offsets[slot + 1]` delimiting bin
//! `slot` (slot = `warp * num_bins + bin`) — mirroring the device layout
//! instead of contradicting it with ragged `Vec<Vec<u64>>` bins. Each
//! simulated block records its hits in detection order and counts them per
//! slot as it goes; as soon as the block is done, the host lays its counts
//! after those of the blocks before it and drops every key into its bin —
//! one copy, stable — so a launch holds one block's pages at a time. That
//! body — the block's walk over its sequences, the serialized hit rounds,
//! the stitch — is the private `seedpass` module, shared with the grouped
//! kernel; this file supplies the DFA look-up, one run of the position
//! table per lane. All scratch is pooled in a [`KernelWorkspace`].
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

/// Output of the binning kernel: the flat hit arena. Packed hits of bin
/// `slot` (slot = `warp * num_bins + bin`) sit in
/// `keys[offsets[slot]..offsets[slot + 1]]`, in detection order —
/// interleaved across diagonals, exactly the Fig. 5 situation the sorting
/// kernel exists to fix.
pub struct BinnedHits {
    /// CSR bin boundaries: `num_warps * num_bins + 1` entries.
    pub offsets: Vec<u32>,
    /// All packed hits, grouped by bin slot.
    pub keys: Vec<u64>,
    /// Bins per warp.
    pub num_bins: usize,
    /// Total warps that participated.
    pub num_warps: usize,
    /// Total hits detected.
    pub total_hits: u64,
}

impl BinnedHits {
    /// Number of bin slots (`num_warps * num_bins`).
    pub fn num_slots(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Packed hits of bin `slot`.
    #[inline]
    pub fn bin(&self, slot: usize) -> &[u64] {
        &self.keys[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
    }

    /// Iterate all hits (unordered across bins).
    pub fn iter_hits(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.iter().copied()
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
mod tests {
    use super::*;
    use crate::hitpack::{self, pack};
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
        let mut got: Vec<u64> = bins.iter_hits().collect();
        got.sort_unstable();
        let want = reference_hits(&dq, &db);
        assert_eq!(got, want);
        assert_eq!(bins.total_hits as usize, want.len());
        assert_eq!(bins.num_slots(), bins.num_warps * bins.num_bins);
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
        for slot in 0..bins.num_slots() {
            let bin_id = slot % bins.num_bins;
            for &e in bins.bin(slot) {
                assert_eq!(hitpack::diagonal(e) as usize % bins.num_bins, bin_id);
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
        assert_eq!(bins.num_slots(), bins.num_warps * bins.num_bins);
        assert!(bins.offsets.iter().all(|&o| o == 0));
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
