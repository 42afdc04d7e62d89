//! In-memory sequence database with the block partitioning used by the
//! CPU–GPU overlap pipeline (paper Fig. 12: the database is processed in
//! blocks so hit detection / ungapped extension of block *n+1* on the GPU
//! overlaps gapped extension / traceback of block *n* on the CPU).

use crate::sequence::Sequence;
use serde::{Deserialize, Serialize};

/// An in-memory protein sequence database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SequenceDb {
    name: String,
    sequences: Vec<Sequence>,
    total_residues: usize,
    max_length: usize,
}

/// A contiguous range of database sequences processed as one pipeline unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbBlock {
    /// Index of the block within the database partitioning.
    pub block_id: usize,
    /// First sequence index (inclusive).
    pub start: usize,
    /// One past the last sequence index.
    pub end: usize,
}

impl DbBlock {
    /// Number of sequences in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the block covers no sequences.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Split `len` sequences into blocks of at most `block_size`; the last
    /// may be smaller, and a `block_size` of zero means one block for all.
    pub fn partition(len: usize, block_size: usize) -> Vec<DbBlock> {
        let block_size = if block_size == 0 { len } else { block_size };
        (0..len)
            .step_by(block_size.max(1))
            .enumerate()
            .map(|(block_id, start)| DbBlock {
                block_id,
                start,
                end: (start + block_size).min(len),
            })
            .collect()
    }
}

impl SequenceDb {
    /// Build a database from sequences.
    pub fn new(name: impl Into<String>, sequences: Vec<Sequence>) -> Self {
        let total_residues = sequences.iter().map(|s| s.len()).sum();
        let max_length = sequences.iter().map(|s| s.len()).max().unwrap_or(0);
        Self {
            name: name.into(),
            sequences,
            total_residues,
            max_length,
        }
    }

    /// Database name (used in reports and figure labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All sequences, in database order.
    pub fn sequences(&self) -> &[Sequence] {
        &self.sequences
    }

    /// The sequences, moved out.
    pub fn into_sequences(self) -> Vec<Sequence> {
        self.sequences
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// True when the database holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }

    /// Total residue count across all sequences (the "database size" used
    /// by Karlin–Altschul e-value computation).
    pub fn total_residues(&self) -> usize {
        self.total_residues
    }

    /// Length of the longest sequence.
    pub fn max_length(&self) -> usize {
        self.max_length
    }

    /// Mean sequence length, zero for an empty database.
    pub fn mean_length(&self) -> f64 {
        if self.sequences.is_empty() {
            0.0
        } else {
            self.total_residues as f64 / self.sequences.len() as f64
        }
    }

    /// Split the database into blocks ([`DbBlock::partition`]).
    pub fn blocks(&self, block_size: usize) -> Vec<DbBlock> {
        DbBlock::partition(self.sequences.len(), block_size)
    }

    /// Borrow the sequences of one block.
    pub fn block_sequences(&self, block: DbBlock) -> &[Sequence] {
        &self.sequences[block.start..block.end]
    }

    /// Sequence indices sorted by descending length. The CUDA-BLASTP
    /// baseline sorts subjects by length to reduce coarse-grained load
    /// imbalance; providing the permutation here keeps that baseline honest
    /// about the cost of the reorder.
    pub fn indices_by_length_desc(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.sequences.len()).collect();
        idx.sort_by(|&a, &b| {
            self.sequences[b]
                .len()
                .cmp(&self.sequences[a].len())
                .then(a.cmp(&b))
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db3() -> SequenceDb {
        SequenceDb::new(
            "t",
            vec![
                Sequence::from_bytes("a", b"MKVL"),
                Sequence::from_bytes("b", b"AR"),
                Sequence::from_bytes("c", b"ARNDCQ"),
            ],
        )
    }

    #[test]
    fn totals() {
        let db = db3();
        assert_eq!(db.len(), 3);
        assert_eq!(db.total_residues(), 12);
        assert_eq!(db.max_length(), 6);
        assert!((db.mean_length() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn blocks_cover_everything_without_overlap() {
        let db = db3();
        let blocks = db.blocks(2);
        assert_eq!(blocks.len(), 2);
        assert_eq!((blocks[0].start, blocks[0].end), (0, 2));
        assert_eq!((blocks[1].start, blocks[1].end), (2, 3));
        assert_eq!(blocks[1].len(), 1);
        assert_eq!(db.block_sequences(blocks[1])[0].id, "c");
    }

    #[test]
    fn zero_block_size_means_single_block() {
        let db = db3();
        let blocks = db.blocks(0);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].len(), 3);
    }

    #[test]
    fn empty_db() {
        let db = SequenceDb::new("e", vec![]);
        assert!(db.is_empty());
        assert!(db.blocks(4).is_empty());
        assert_eq!(db.mean_length(), 0.0);
        assert_eq!(db.max_length(), 0);
    }

    #[test]
    fn length_sort_is_stable_descending() {
        let db = db3();
        assert_eq!(db.indices_by_length_desc(), vec![2, 0, 1]);
    }
}
