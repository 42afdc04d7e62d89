//! Grouped multi-query seeding: one database pass per query group.
//!
//! The per-query path (`binning_kernel`) scans every database block once
//! per query through that query's DFA. This kernel inverts the loop the
//! way Chorus does: the neighbourhood words of a whole query group live
//! in one hashed [`QueryIndex`] resident in device memory, and a single
//! pass over each [`DeviceDbBlock`] serves every group member at once —
//! subject reads and word hashing are paid once per group instead of
//! once per query.
//!
//! The warp structure *is* `binning_kernel`'s — both run the private
//! `seedpass` module (round-robin sequences, 32-column chunks, coalesced
//! subject reads, serialized per-hit rounds with shared-memory atomics) —
//! with two differences in the cost model:
//!
//! * hit detection is a Murmur hash plus a linear-probe read of the slot
//!   table through the read-only cache, then a postings-span read —
//!   replacing the shared-memory DFA transition and per-query position
//!   lists. The slot table of a small group fits the 48 KB read-only
//!   cache; a large group's table thrashes it, which is exactly the
//!   occupancy trade-off the round scheduler's budget bounds;
//! * the per-warp `top` counters hash `(diagonal, member)` into the bin
//!   space so concurrent members shear across bins instead of piling
//!   onto the same counters.
//!
//! The **demux is the scatter itself**: every detected hit carries its
//! group-local member, and the shared pass groups hits per member into
//! the flat CSR arena pages — same slot formula
//! (`warp * num_bins + diagonal % num_bins`), same packed key, and, as
//! for every arena, one segment per bin that holds hits. Each member's
//! arena has the per-query arena's segments, each holding the multiset of
//! hits the per-query DFA scan finds in that bin (the within-segment
//! order differs, which downstream sorting is insensitive to — see
//! `reorder`), so sorting, filtering, extension, and reporting run
//! unchanged and per-query output stays bit-identical.

use crate::binning::BinnedHits;
use crate::config::CuBlastpConfig;
use crate::devicedata::{DeviceDbBlock, DeviceQuery};
use crate::seedpass::{self, SeedPass};
use blast_core::qindex::{Posting, QueryIndex, POSTING_BYTES, SLOT_BYTES};
use blast_core::words::subject_words;
use blast_core::{WordNeighborhood, WORD_LEN};
use gpu_sim::device::WARP_SIZE;
use gpu_sim::memory::virtual_alloc;
use gpu_sim::{DeviceConfig, KernelStats, KernelWorkspace, LaunchConfig};

/// Modelled instruction count of the Murmur-finalizer word hash (three
/// shifts-and-xors, two multiplies, one mask).
const HASH_INSTRS: u64 = 6;

/// A query group's index, resident in device memory: the open-addressing
/// slot table and the flat postings array, plus the per-member metadata
/// the demux and the driver need.
pub struct DeviceGroupIndex {
    index: QueryIndex,
    slots_base: u64,
    postings_base: u64,
    qlens: Vec<usize>,
}

/// Device bytes the slot table of `capacity` slots spans: a reservation's
/// size, rounded to 256 bytes and at least 256 (`virtual_alloc`).
fn slot_table_span(capacity: usize) -> u64 {
    ((capacity as u64 * SLOT_BYTES + 255) & !255).max(256)
}

impl DeviceGroupIndex {
    /// Build the group index from the member queries (in batch order) and
    /// place it in device memory.
    pub fn upload(members: &[&DeviceQuery]) -> Self {
        let hoods: Vec<&WordNeighborhood> = members.iter().map(|m| m.dfa.neighborhood()).collect();
        let index = QueryIndex::build(&hoods);
        // One reservation for both arrays: the kernel reads them through
        // the read-only cache, so its hits depend on their relative offset,
        // which an allocation on another thread between two reservations
        // would move. The postings start where a reservation of the slot
        // table alone would have ended.
        let table = slot_table_span(index.capacity());
        let postings = (index.entries() as u64 * POSTING_BYTES).max(8);
        let slots_base = virtual_alloc(table + postings);
        let postings_base = slots_base + table;
        DeviceGroupIndex {
            index,
            slots_base,
            postings_base,
            qlens: members.iter().map(|m| m.query_len()).collect(),
        }
    }

    /// Group size.
    pub fn members(&self) -> usize {
        self.qlens.len()
    }

    /// The host-side index (probe access for tests and verification).
    pub fn index(&self) -> &QueryIndex {
        &self.index
    }

    /// Modelled H2D payload of the index.
    pub fn upload_bytes(&self) -> u64 {
        self.index.device_bytes()
    }
}

/// `grouped_seeding`'s launch under `cfg`: only the pass's bin counters
/// in shared memory — the DFA state table of the per-query path is gone,
/// which is where the grouped kernel wins back the occupancy its bigger
/// working set costs.
pub(crate) fn footprint(cfg: &CuBlastpConfig) -> LaunchConfig {
    seedpass::footprint(cfg, 0)
}

/// One grouped seeding pass over a database block: probe the group index
/// with every subject word and scatter each hit into its member's arena.
/// Returns one [`BinnedHits`] per group member — shaped exactly like
/// `binning_kernel` output for that member — plus the pass's simulated
/// stats.
pub fn grouped_seeding_kernel(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    group: &DeviceGroupIndex,
    db: &DeviceDbBlock,
    ws: &KernelWorkspace,
) -> (Vec<BinnedHits>, KernelStats) {
    // One write arena sized for the longest member, shared by the group.
    let pass = SeedPass::new(cfg, &group.qlens, db);
    let capacity = group.index.capacity() as u32;

    pass.launch(
        device,
        footprint(cfg),
        "grouped_seeding",
        db,
        ws,
        |block, subject, j0, lanes| {
            // Murmur word hash instead of a DFA transition.
            block.instr_n(lanes.len() as u32, HASH_INSTRS);
            // Linear-probe the slot table: every lane walks its chain of
            // consecutive slots — one run, two when the chain wraps the
            // table — scattered across the table by the hash. The merged
            // postings span, the lane's other run, makes its round count
            // the *group's* hit count on its column.
            let mut probes = [(0u64, 0u32); 2 * WARP_SIZE as usize];
            let mut spans = [(0u64, 0u32); WARP_SIZE as usize];
            let window = &subject[j0..j0 + lanes.len() + WORD_LEN - 1];
            for (l, (_, code)) in subject_words(window).enumerate() {
                let probe = group.index.probe(code);
                lanes[l] = probe.postings;
                let home = group.slots_base + probe.home as u64 * SLOT_BYTES;
                let to_wrap = probe.steps.min(capacity - probe.home);
                probes[2 * l] = (home, to_wrap);
                probes[2 * l + 1] = (group.slots_base, probe.steps - to_wrap);
                let span = group.postings_base + probe.offset as u64 * POSTING_BYTES;
                spans[l] = (span, probe.postings.len() as u32);
            }
            block.readonly_read_runs(&probes[..2 * lanes.len()], SLOT_BYTES as u32);
            // Postings-span traffic for the lanes that hit.
            block.readonly_read_runs(&spans[..lanes.len()], POSTING_BYTES as u32);
        },
        // Demux is the scatter itself: the posting names its member.
        |p: Posting| {
            (
                p.query as usize,
                p.qpos as u32,
                group.qlens[p.query as usize],
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::binning_kernel;
    use crate::binning::tests::segment_slots;
    use bio_seq::generate::make_query;
    use bio_seq::Sequence;
    use blast_core::{Dfa, Matrix, Pssm, SearchParams};

    fn device_query(qlen: usize) -> DeviceQuery {
        let q = make_query(qlen);
        let m = Matrix::blosum62();
        let p = SearchParams::default();
        DeviceQuery::upload(Dfa::build(&q, &m, p.threshold), Pssm::build(&q, &m))
    }

    fn subjects(n: usize, base_len: usize) -> Vec<Sequence> {
        (0..n)
            .map(|k| {
                let s = make_query(base_len + k * 7);
                Sequence::from_residues(format!("s{k}"), s.residues().to_vec())
            })
            .collect()
    }

    /// Per-segment hit multisets, in segment order: the segment boundaries
    /// and each segment's keys, sorted.
    fn segment_multisets(bins: &BinnedHits) -> (Vec<u32>, Vec<u64>) {
        let mut keys = Vec::with_capacity(bins.keys.len());
        for seg in bins.segments() {
            let from = keys.len();
            keys.extend_from_slice(seg);
            keys[from..].sort_unstable();
        }
        (bins.offsets.clone(), keys)
    }

    #[test]
    fn grouped_arena_matches_per_query_binning_per_slot() {
        let queries: Vec<DeviceQuery> = [48, 64, 80, 57].iter().map(|&l| device_query(l)).collect();
        let refs: Vec<&DeviceQuery> = queries.iter().collect();
        let db = DeviceDbBlock::upload(&subjects(30, 60), 0);
        let cfg = CuBlastpConfig {
            grid_blocks: 4,
            warps_per_block: 2,
            num_bins: 16,
            ..Default::default()
        };
        let d = DeviceConfig::k20c();
        let ws = KernelWorkspace::new();

        let group = DeviceGroupIndex::upload(&refs);
        let (grouped, stats) = grouped_seeding_kernel(&d, &cfg, &group, &db, &ws);
        assert_eq!(grouped.len(), queries.len());
        assert!(stats.warp_cycles > 0);

        for (m, q) in queries.iter().enumerate() {
            let (solo, _) = binning_kernel(&d, &cfg, q, &db, &ws);
            assert_eq!(
                grouped[m].total_hits, solo.total_hits,
                "member {m} hit count"
            );
            let warps = (cfg.grid_blocks * cfg.warps_per_block) as usize;
            let slots = |b: &BinnedHits| segment_slots(b, warps, cfg.num_bins);
            assert_eq!(
                slots(&grouped[m]),
                slots(&solo),
                "member {m}: segment slots"
            );
            assert_eq!(
                segment_multisets(&grouped[m]),
                segment_multisets(&solo),
                "member {m}: per-segment hit multisets must match the per-query path"
            );
        }
    }

    #[test]
    fn singleton_group_matches_per_query_binning() {
        let q = device_query(72);
        let db = DeviceDbBlock::upload(&subjects(12, 90), 0);
        let cfg = CuBlastpConfig {
            grid_blocks: 2,
            warps_per_block: 2,
            num_bins: 32,
            ..Default::default()
        };
        let d = DeviceConfig::k20c();
        let ws = KernelWorkspace::new();
        let group = DeviceGroupIndex::upload(&[&q]);
        let (grouped, _) = grouped_seeding_kernel(&d, &cfg, &group, &db, &ws);
        let (solo, _) = binning_kernel(&d, &cfg, &q, &db, &ws);
        assert_eq!(segment_multisets(&grouped[0]), segment_multisets(&solo));
    }

    #[test]
    fn one_group_pass_amortizes_across_members() {
        // The point of the grouped kernel: one pass over the block for 8
        // members must be much cheaper than 8 singleton-group passes —
        // the subject reads, hashing, and index probes are shared, and
        // only the per-hit work scales with the group. (Relative to the
        // per-query DFA path the grouped pass trades cheap shared-memory
        // transitions for read-only-cache index probes; the crossover is
        // characterized in `bench --bin grouped_seeding`.)
        let queries: Vec<DeviceQuery> = (0..8).map(|k| device_query(48 + 4 * k)).collect();
        let refs: Vec<&DeviceQuery> = queries.iter().collect();
        let db = DeviceDbBlock::upload(&subjects(24, 100), 0);
        let cfg = CuBlastpConfig::default();
        let d = DeviceConfig::k20c();
        let ws = KernelWorkspace::new();

        let group = DeviceGroupIndex::upload(&refs);
        let (_, grouped_stats) = grouped_seeding_kernel(&d, &cfg, &group, &db, &ws);
        let singleton_total: u64 = queries
            .iter()
            .map(|q| {
                let solo = DeviceGroupIndex::upload(&[q]);
                grouped_seeding_kernel(&d, &cfg, &solo, &db, &ws)
                    .1
                    .warp_cycles
            })
            .sum();
        assert!(
            grouped_stats.warp_cycles * 2 < singleton_total,
            "one grouped pass ({} cycles) must amortize at least 2x over {} singleton passes \
             ({} cycles)",
            grouped_stats.warp_cycles,
            queries.len(),
            singleton_total
        );
    }

    #[test]
    fn readonly_cache_serves_the_slot_table() {
        let queries: Vec<DeviceQuery> = (0..4).map(|k| device_query(60 + k)).collect();
        let refs: Vec<&DeviceQuery> = queries.iter().collect();
        let db = DeviceDbBlock::upload(&subjects(16, 120), 0);
        let d = DeviceConfig::k20c();
        let ws = KernelWorkspace::new();
        let group = DeviceGroupIndex::upload(&refs);
        let on = CuBlastpConfig {
            use_readonly_cache: true,
            ..Default::default()
        };
        let off = CuBlastpConfig {
            use_readonly_cache: false,
            ..Default::default()
        };
        let (_, with) = grouped_seeding_kernel(&d, &on, &group, &db, &ws);
        let (_, without) = grouped_seeding_kernel(&d, &off, &group, &db, &ws);
        assert!(with.rocache_hits > 0);
        assert_eq!(without.rocache_hits, 0);
        assert!(
            with.warp_cycles < without.warp_cycles,
            "cache on: {} cycles, off: {}",
            with.warp_cycles,
            without.warp_cycles
        );
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let queries: Vec<DeviceQuery> = (0..3).map(|k| device_query(50 + k)).collect();
        let refs: Vec<&DeviceQuery> = queries.iter().collect();
        let db = DeviceDbBlock::upload(&subjects(10, 80), 0);
        let cfg = CuBlastpConfig {
            grid_blocks: 2,
            warps_per_block: 2,
            num_bins: 16,
            ..Default::default()
        };
        let d = DeviceConfig::k20c();
        let ws = KernelWorkspace::new();
        let group = DeviceGroupIndex::upload(&refs);
        for _ in 0..2 {
            let (bins, _) = grouped_seeding_kernel(&d, &cfg, &group, &db, &ws);
            for b in bins {
                b.recycle(&ws);
            }
        }
        let warm = ws.allocations();
        for _ in 0..3 {
            let (bins, _) = grouped_seeding_kernel(&d, &cfg, &group, &db, &ws);
            for b in bins {
                b.recycle(&ws);
            }
        }
        assert_eq!(ws.allocations(), warm, "steady state must not allocate");
    }

    #[test]
    fn an_upload_keeps_its_arrays_contiguous_beside_other_uploads() {
        // Eight threads upload at once beside one that only reserves: each
        // index's postings still start where its slot table ends.
        use std::sync::atomic::{AtomicBool, Ordering};
        let queries = [device_query(12), device_query(20)];
        let refs: Vec<&DeviceQuery> = queries.iter().collect();
        let start = std::sync::Barrier::new(8);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    virtual_alloc(64);
                }
            });
            let uploads: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..50 {
                            let g = DeviceGroupIndex::upload(&refs);
                            let table = slot_table_span(g.index.capacity());
                            assert_eq!(g.postings_base - g.slots_base, table);
                        }
                    })
                })
                .collect();
            let joined: Vec<_> = uploads.into_iter().map(|u| u.join()).collect();
            done.store(true, Ordering::Relaxed);
            assert!(joined.iter().all(Result::is_ok), "an upload was split");
        });
    }

    #[test]
    fn empty_block_yields_empty_arenas() {
        let q = device_query(64);
        let db = DeviceDbBlock::upload(&[], 0);
        let cfg = CuBlastpConfig::default();
        let ws = KernelWorkspace::new();
        let group = DeviceGroupIndex::upload(&[&q]);
        let (bins, _) = grouped_seeding_kernel(&DeviceConfig::k20c(), &cfg, &group, &db, &ws);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].total_hits, 0);
        assert_eq!(bins[0].offsets, [0], "no segment");
    }
}
