//! Device-resident data: the flattened database block and the query-side
//! structures (DFA, PSSM) with their synthetic addresses, plus the
//! whole-database residency layer ([`DeviceDb`]) that lets a stream of
//! queries share one flattened copy of the database.

use bio_seq::{DbBlock, Sequence, SequenceDb};
use blast_core::{Dfa, Pssm};
use cublastp_db::{DbImage, MappedRegion};
use gpu_sim::GlobalBuffer;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of database-block flattens ([`DeviceDbBlock::upload`]
/// calls). Residency is observable through it: a batch of N queries over a
/// B-block database must flatten B times, not N × B — and a database
/// loaded from a `.cdb` image must flatten zero times.
static FLATTEN_COUNT: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of blocks materialised zero-copy from a mapped
/// image ([`DeviceDbBlock::from_mapped`] calls). The dual of
/// [`flatten_count`]: the image load path is observable through it.
static MAPPED_BLOCK_COUNT: AtomicU64 = AtomicU64::new(0);

/// Held by the unit test that asserts an exact delta of the
/// process-global unmap counter: cargo runs tests on parallel threads.
#[cfg(test)]
pub(crate) static IMAGE_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
thread_local! {
    /// This thread's flattens and mapped blocks: the process counters
    /// above also count whatever tests on other threads upload.
    static ON_THIS_THREAD: std::cell::Cell<(u64, u64)> = const { std::cell::Cell::new((0, 0)) };
}

/// Current value of the flatten counter.
pub fn flatten_count() -> u64 {
    FLATTEN_COUNT.load(Ordering::Relaxed)
}

/// Current value of the mapped-block counter.
pub fn mapped_block_count() -> u64 {
    MAPPED_BLOCK_COUNT.load(Ordering::Relaxed)
}

/// Storage behind a resident block's residues: either a device buffer
/// flattened from host sequences, or a zero-copy view of a mapped `.cdb`
/// arena. Both expose the same contiguous byte layout and a synthetic
/// 256-aligned device base address, so kernels cannot tell them apart.
pub enum ResidueStore {
    /// Flattened into a fresh device buffer by [`DeviceDbBlock::upload`].
    Owned(GlobalBuffer<u8>),
    /// Zero-copy view of a shared mapped arena. Holding the `Arc` pins
    /// the mapping: the file is unmapped only when the last block view
    /// (and the [`DbImage`] itself) is gone.
    Mapped {
        /// The mapped image arena this view aliases.
        region: Arc<MappedRegion>,
        /// Byte range of this block's residues within the arena.
        range: Range<usize>,
        /// Synthetic device base address of the view.
        base: u64,
    },
}

impl ResidueStore {
    /// The block's residues as one contiguous slice.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            ResidueStore::Owned(buf) => buf,
            ResidueStore::Mapped { region, range, .. } => &region.bytes()[range.clone()],
        }
    }

    /// Device address of byte `i` of the block.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        match self {
            ResidueStore::Owned(buf) => buf.addr(i),
            ResidueStore::Mapped { base, .. } => base + i as u64,
        }
    }

    /// Size of the residue payload in bytes.
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        match self {
            ResidueStore::Owned(buf) => buf.size_bytes(),
            ResidueStore::Mapped { range, .. } => range.len() as u64,
        }
    }

    /// True when the store aliases a mapped image (no flatten happened).
    pub fn is_mapped(&self) -> bool {
        matches!(self, ResidueStore::Mapped { .. })
    }
}

/// One database block uploaded to the device: concatenated residues plus
/// per-sequence offsets (the layout every real GPU BLAST uses).
pub struct DeviceDbBlock {
    /// Concatenated residues of all sequences in the block.
    pub residues: ResidueStore,
    /// `offsets[i]..offsets[i+1]` delimits sequence `i` in `residues`.
    pub offsets: Vec<usize>,
    /// Global database index of the block's first sequence.
    pub base_index: usize,
    /// Length of the longest sequence in the block, cached at upload so
    /// the per-launch packed-format range check is O(1) instead of a scan.
    pub max_seq_len: usize,
}

impl DeviceDbBlock {
    /// Flatten a slice of sequences into device layout.
    pub fn upload(sequences: &[Sequence], base_index: usize) -> Self {
        FLATTEN_COUNT.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        ON_THIS_THREAD.with(|n| n.set((n.get().0 + 1, n.get().1)));
        let total: usize = sequences.iter().map(|s| s.len()).sum();
        let mut residues = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(sequences.len() + 1);
        offsets.push(0);
        let mut max_seq_len = 0usize;
        for s in sequences {
            residues.extend_from_slice(s.residues());
            offsets.push(residues.len());
            max_seq_len = max_seq_len.max(s.len());
        }
        Self {
            residues: ResidueStore::Owned(GlobalBuffer::new(residues)),
            offsets,
            base_index,
            max_seq_len,
        }
    }

    /// Materialise a block zero-copy from a mapped image arena. `range`
    /// delimits the block's residues within `region`; `offsets` are
    /// block-local prefix offsets (same shape [`Self::upload`] builds).
    /// No flatten pass runs and no residue byte is copied — the view gets
    /// its own synthetic device address range, so the coalescing model
    /// sees the identical 256-aligned layout as the upload path.
    pub fn from_mapped(
        region: Arc<MappedRegion>,
        range: Range<usize>,
        offsets: Vec<usize>,
        base_index: usize,
    ) -> Self {
        MAPPED_BLOCK_COUNT.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        ON_THIS_THREAD.with(|n| n.set((n.get().0, n.get().1 + 1)));
        debug_assert_eq!(offsets.last().copied(), Some(range.len()));
        let max_seq_len = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let base = gpu_sim::memory::virtual_alloc(range.len() as u64);
        Self {
            residues: ResidueStore::Mapped {
                region,
                range,
                base,
            },
            offsets,
            base_index,
            max_seq_len,
        }
    }

    /// Number of sequences in the block.
    pub fn num_seqs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Residues of sequence `i` (block-local index).
    #[inline]
    pub fn seq(&self, i: usize) -> &[u8] {
        &self.residues.as_slice()[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Length of sequence `i`.
    #[inline]
    pub fn seq_len(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Device address of residue `pos` of sequence `i` (for the coalescing
    /// model).
    #[inline]
    pub fn residue_addr(&self, i: usize, pos: usize) -> u64 {
        self.residues.addr(self.offsets[i] + pos)
    }

    /// Host→device payload size in bytes (PCIe model input).
    pub fn upload_bytes(&self) -> u64 {
        self.residues.size_bytes() + (self.offsets.len() * 8) as u64
    }
}

/// A whole database resident on the device: every block flattened exactly
/// once and shared (`Arc`) by all queries of a stream. Building one is the
/// upload; afterwards searches run against the resident copy and pay no
/// per-query H2D transfer for the database.
pub struct DeviceDb {
    blocks: Vec<(DbBlock, Arc<DeviceDbBlock>)>,
    block_size: usize,
}

impl DeviceDb {
    /// Flatten all blocks of `db` at the given partition size.
    pub fn upload(db: &SequenceDb, block_size: usize) -> Self {
        let blocks = db
            .blocks(block_size)
            .into_iter()
            .map(|b| {
                let dev = Arc::new(DeviceDbBlock::upload(db.block_sequences(b), b.start));
                (b, dev)
            })
            .collect();
        Self { blocks, block_size }
    }

    /// Materialise the sequences `seqs` of a validated `.cdb` image
    /// zero-copy, as one database of their own: every block is a view of
    /// the shared mapped arena, built at the image's stored block size
    /// with no flatten pass, its indices local to the range. Byte layout,
    /// offsets, and 256-aligned base addresses are identical to what
    /// [`DeviceDb::upload`] produces for those sequences as a
    /// [`SequenceDb`], so searches over the two are bit-identical.
    pub fn from_image(img: &DbImage, seqs: Range<usize>) -> Self {
        let seq_offsets = &img.seq_offsets()[seqs.start..=seqs.end];
        let arena = img.residues_range().start;
        let blocks = DbBlock::partition(seqs.len(), img.block_size())
            .into_iter()
            .map(|b| {
                let (start_byte, end_byte) = (seq_offsets[b.start], seq_offsets[b.end]);
                let offsets: Vec<usize> = seq_offsets[b.start..=b.end]
                    .iter()
                    .map(|&o| o - start_byte)
                    .collect();
                let dev = Arc::new(DeviceDbBlock::from_mapped(
                    Arc::clone(img.region()),
                    arena + start_byte..arena + end_byte,
                    offsets,
                    b.start,
                ));
                (b, dev)
            })
            .collect();
        Self {
            blocks,
            block_size: img.block_size(),
        }
    }

    /// The resident blocks, in database order.
    pub fn blocks(&self) -> &[(DbBlock, Arc<DeviceDbBlock>)] {
        &self.blocks
    }

    /// True when every block aliases a mapped image arena (loaded via
    /// [`DeviceDb::from_image`] rather than flattened).
    pub fn is_mapped(&self) -> bool {
        !self.blocks.is_empty() && self.blocks.iter().all(|(_, b)| b.residues.is_mapped())
    }

    /// Partition size the database was flattened at.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of resident blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total host→device payload of the whole database in bytes.
    pub fn upload_bytes(&self) -> u64 {
        self.blocks.iter().map(|(_, b)| b.upload_bytes()).sum()
    }
}

/// Query-side device structures shared by all kernels of one search.
pub struct DeviceQuery {
    /// The hit-detection automaton (host copy; the state table is modelled
    /// as resident in shared memory, Fig. 10).
    pub dfa: Dfa,
    /// The PSSM (host copy; placement decided by the buffering policy).
    pub pssm: Pssm,
    /// Device buffer behind the DFA query-position lists (read-only-cache
    /// traffic).
    pub dfa_positions: GlobalBuffer<u32>,
    /// Device buffer behind the PSSM when it spills to global memory.
    pub pssm_global: GlobalBuffer<i16>,
}

impl DeviceQuery {
    /// Upload query structures.
    pub fn upload(dfa: Dfa, pssm: Pssm) -> Self {
        let dfa_positions = GlobalBuffer::new(dfa.neighborhood().raw_positions().to_vec());
        let pssm_global = GlobalBuffer::new(pssm.raw().to_vec());
        Self {
            dfa,
            pssm,
            dfa_positions,
            pssm_global,
        }
    }

    /// Query length in residues.
    pub fn query_len(&self) -> usize {
        self.pssm.query_len()
    }

    /// Device address of the flat position-list table: entry `i` of
    /// [`blast_core::WordNeighborhood::raw_positions`] sits 4·`i` bytes in,
    /// so a word's list is one contiguous run — what the binning kernel
    /// feeds to the read-only cache.
    pub fn positions_base(&self) -> u64 {
        self.dfa_positions.addr(0)
    }

    /// Device address of PSSM cell `(query_pos, residue)` for the
    /// global-memory PSSM path.
    #[inline]
    pub fn pssm_addr(&self, query_pos: usize, residue: u8) -> u64 {
        self.pssm_global.addr(query_pos * 32 + residue as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_core::Matrix;

    #[test]
    fn upload_preserves_sequences() {
        let seqs = vec![
            Sequence::from_bytes("a", b"MKV"),
            Sequence::from_bytes("b", b"ARNDC"),
            Sequence::from_bytes("c", b""),
        ];
        let block = DeviceDbBlock::upload(&seqs, 10);
        assert_eq!(block.num_seqs(), 3);
        assert_eq!(block.seq(0), seqs[0].residues());
        assert_eq!(block.seq(1), seqs[1].residues());
        assert!(block.seq(2).is_empty());
        assert_eq!(block.seq_len(1), 5);
        assert_eq!(block.base_index, 10);
        assert_eq!(block.max_seq_len, 5);
    }

    #[test]
    fn residue_addresses_are_contiguous_across_sequences() {
        let seqs = vec![
            Sequence::from_bytes("a", b"MKV"),
            Sequence::from_bytes("b", b"AR"),
        ];
        let block = DeviceDbBlock::upload(&seqs, 0);
        assert_eq!(block.residue_addr(0, 1) - block.residue_addr(0, 0), 1);
        // Sequence b starts right after a in the flat buffer.
        assert_eq!(block.residue_addr(1, 0) - block.residue_addr(0, 2), 1);
    }

    #[test]
    fn query_upload_and_positions_base() {
        let q = Sequence::from_bytes("q", b"WKVMSARND");
        let m = Matrix::blosum62();
        let dq = DeviceQuery::upload(Dfa::build(&q, &m, 11), Pssm::build(&q, &m));
        assert_eq!(dq.query_len(), 9);
        // The table's entries are the neighbourhood's, 4 bytes apart.
        let n = dq.dfa.neighborhood();
        assert_eq!(&dq.dfa_positions[..], n.raw_positions());
        assert_eq!(dq.positions_base(), dq.dfa_positions.addr(0));
        assert_eq!(dq.dfa_positions.addr(1) - dq.positions_base(), 4);
    }

    #[test]
    fn pssm_addr_stride_matches_layout() {
        let q = Sequence::from_bytes("q", b"WKVM");
        let m = Matrix::blosum62();
        let dq = DeviceQuery::upload(Dfa::build(&q, &m, 11), Pssm::build(&q, &m));
        // Column stride is 32 entries × 2 bytes.
        assert_eq!(dq.pssm_addr(1, 0) - dq.pssm_addr(0, 0), 64);
        assert_eq!(dq.pssm_addr(0, 1) - dq.pssm_addr(0, 0), 2);
    }

    #[test]
    fn upload_bytes_counts_payload() {
        let seqs = vec![Sequence::from_bytes("a", b"MKVLW")];
        let block = DeviceDbBlock::upload(&seqs, 0);
        assert_eq!(block.upload_bytes(), 5 + 2 * 8);
    }

    fn tiny_db() -> SequenceDb {
        let seqs = (0..7)
            .map(|i| Sequence::from_bytes(format!("s{i}"), b"MKVARNDCQEGH"))
            .collect();
        SequenceDb::new("tiny", seqs)
    }

    #[test]
    fn device_db_blocks_match_fresh_uploads() {
        // Byte identity: the resident copy must be indistinguishable from
        // flattening the block directly.
        let db = tiny_db();
        let dev = DeviceDb::upload(&db, 3);
        assert_eq!(dev.num_blocks(), 3);
        assert_eq!(dev.block_size(), 3);
        let mut total = 0;
        for (block, resident) in dev.blocks() {
            let fresh = DeviceDbBlock::upload(db.block_sequences(*block), block.start);
            assert_eq!(resident.offsets, fresh.offsets);
            assert_eq!(resident.base_index, fresh.base_index);
            assert_eq!(resident.upload_bytes(), fresh.upload_bytes());
            for i in 0..fresh.num_seqs() {
                assert_eq!(resident.seq(i), fresh.seq(i));
            }
            total += fresh.upload_bytes();
        }
        assert_eq!(dev.upload_bytes(), total);
    }

    #[test]
    fn from_image_matches_upload_without_flattening() {
        let db = tiny_db();
        let img = cublastp_db::DbImage::from_bytes(cublastp_db::build_to_vec(&db, 3), "test")
            .expect("valid image");
        // The whole image, and a range of it as a shard cut would take it:
        // the same blocks as flattening those sequences as their own
        // database, indices local to the range.
        for (seqs, blocks) in [(0..7, 3), (2..7, 2)] {
            let range = SequenceDb::new("range", db.sequences()[seqs.clone()].to_vec());
            let uploaded = DeviceDb::upload(&range, 3);
            // Counted on this thread: tests beside this one upload too.
            let (flattens_before, mapped_before) = ON_THIS_THREAD.get();
            let mapped = DeviceDb::from_image(&img, seqs);
            let (flattens, mapped_blocks) = ON_THIS_THREAD.get();
            assert_eq!(flattens, flattens_before, "image load must not flatten");
            assert_eq!(mapped_blocks, mapped_before + blocks);
            assert!(mapped.is_mapped());
            assert!(!uploaded.is_mapped());
            assert_eq!(mapped.num_blocks(), uploaded.num_blocks());
            assert_eq!(mapped.block_size(), uploaded.block_size());
            assert_eq!(mapped.upload_bytes(), uploaded.upload_bytes());
            for ((ba, a), (bb, b)) in mapped.blocks().iter().zip(uploaded.blocks()) {
                assert_eq!(ba, bb);
                assert_eq!(a.offsets, b.offsets);
                assert_eq!(a.base_index, b.base_index);
                assert_eq!(a.max_seq_len, b.max_seq_len);
                for i in 0..a.num_seqs() {
                    assert_eq!(a.seq(i), b.seq(i));
                }
                // Same address arithmetic: contiguous within the block, own
                // 256-aligned base per block.
                assert_eq!(a.residue_addr(0, 0) % 256, 0);
                assert_eq!(a.residue_addr(1, 0) - a.residue_addr(0, 0), 12);
            }
        }
    }

    #[test]
    fn mapped_blocks_pin_the_region_until_dropped() {
        let _counters = IMAGE_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let db = tiny_db();
        let img = cublastp_db::DbImage::from_bytes(cublastp_db::build_to_vec(&db, 0), "pin-test")
            .expect("valid image");
        let unmaps_before = cublastp_db::unmap_count();
        let dev = DeviceDb::from_image(&img, 0..db.len());
        drop(img);
        // The resident blocks still alias the arena — not unmapped yet.
        assert_eq!(cublastp_db::unmap_count(), unmaps_before);
        assert_eq!(dev.blocks()[0].1.seq_len(0), 12);
        drop(dev);
        // Refcount zero: the mapping is released.
        assert_eq!(cublastp_db::unmap_count(), unmaps_before + 1);
    }
}
