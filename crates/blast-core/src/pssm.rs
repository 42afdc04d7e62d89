//! Position-specific scoring matrix (paper Fig. 2(b)).
//!
//! A column per query position, a row per alphabet symbol: `pssm[pos][r]`
//! is the score of aligning residue `r` of a subject against query position
//! `pos`. BLASTP builds it once per query from the substitution matrix so
//! the inner extension loops need a single lookup per cell instead of two
//! (§2.1). The storage layout pads rows to 32 entries of 2 bytes — exactly
//! the "32 rows with 2 bytes each = 64 bytes per column" footprint the
//! paper uses when reasoning about shared-memory capacity (§3.5).

use crate::matrix::Matrix;
use bio_seq::alphabet::{Residue, ALPHABET_SIZE, PADDED_ALPHABET_SIZE};
use bio_seq::Sequence;
use serde::{Deserialize, Serialize};

/// Query-specific scoring matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pssm {
    query_len: usize,
    /// `query_len` columns × `PADDED_ALPHABET_SIZE` rows, column-major:
    /// `scores[pos * 32 + residue]`.
    scores: Vec<i16>,
}

impl Pssm {
    /// Build the PSSM for `query` under `matrix`.
    pub fn build(query: &Sequence, matrix: &Matrix) -> Self {
        let query_len = query.len();
        // Padding rows keep the worst score so an out-of-alphabet index
        // can never fabricate a positive match. (`min_score` folds over the
        // whole matrix: once per build, not once per padding cell.)
        let mut scores = vec![matrix.min_score() as i16; query_len * PADDED_ALPHABET_SIZE];
        for (col, &q) in scores
            .chunks_exact_mut(PADDED_ALPHABET_SIZE)
            .zip(query.residues())
        {
            for (r, cell) in col[..ALPHABET_SIZE].iter_mut().enumerate() {
                *cell = matrix.score(q, r as Residue) as i16;
            }
        }
        Self { query_len, scores }
    }

    /// Number of columns (the query length).
    #[inline]
    pub fn query_len(&self) -> usize {
        self.query_len
    }

    /// Score of subject residue `r` aligned to query position `pos`.
    #[inline]
    pub fn score(&self, pos: usize, r: Residue) -> i32 {
        self.scores[pos * PADDED_ALPHABET_SIZE + r as usize] as i32
    }

    /// Raw column-major table (stride [`PADDED_ALPHABET_SIZE`]); the GPU
    /// kernels copy this into simulated shared or global memory.
    #[inline]
    pub fn raw(&self) -> &[i16] {
        &self.scores
    }

    /// Size of the table in bytes — the quantity §3.5 compares against the
    /// 48 kB shared-memory budget (64 bytes per query column).
    pub fn size_bytes(&self) -> usize {
        self.scores.len() * std::mem::size_of::<i16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_seq::alphabet::encode;

    #[test]
    fn matches_matrix_lookup() {
        let m = Matrix::blosum62();
        let q = Sequence::from_bytes("q", b"MKVYW");
        let p = Pssm::build(&q, &m);
        assert_eq!(p.query_len(), 5);
        for (pos, &qr) in q.residues().iter().enumerate() {
            for r in 0..ALPHABET_SIZE as Residue {
                assert_eq!(p.score(pos, r), m.score(qr, r), "pos {pos} residue {r}");
            }
        }
    }

    #[test]
    fn paper_example_y_vs_x_scores_minus_one() {
        // Fig. 2(b): subject X against query Y scores −1.
        let m = Matrix::blosum62();
        let q = Sequence::from_bytes("q", b"Y");
        let p = Pssm::build(&q, &m);
        assert_eq!(p.score(0, encode(b'X')), -1);
    }

    #[test]
    fn size_matches_paper_footprint() {
        // §3.5: 64 bytes per column, so a query of length 768 fills 48 kB.
        let m = Matrix::blosum62();
        let q = Sequence::from_bytes("q", &vec![b'A'; 768]);
        let p = Pssm::build(&q, &m);
        assert_eq!(p.size_bytes(), 48 * 1024);
    }

    #[test]
    fn long_query_table_matches_naive_construction() {
        // Cell for cell against the definition, at the length of the
        // benchmark's longest query.
        let m = Matrix::blosum62();
        let q = bio_seq::generate::make_query(1054);
        let p = Pssm::build(&q, &m);
        let mut naive = Vec::with_capacity(1054 * PADDED_ALPHABET_SIZE);
        for &qr in q.residues() {
            for r in 0..PADDED_ALPHABET_SIZE {
                naive.push(if r < ALPHABET_SIZE {
                    m.score(qr, r as Residue) as i16
                } else {
                    m.min_score() as i16
                });
            }
        }
        assert_eq!(p.raw(), &naive[..]);
    }

    #[test]
    fn padding_rows_never_positive() {
        let m = Matrix::blosum62();
        let q = Sequence::from_bytes("q", b"WWWW");
        let p = Pssm::build(&q, &m);
        for pos in 0..4 {
            for r in ALPHABET_SIZE..PADDED_ALPHABET_SIZE {
                assert!(p.raw()[pos * PADDED_ALPHABET_SIZE + r] < 0);
            }
        }
    }

    #[test]
    fn empty_query() {
        let m = Matrix::blosum62();
        let q = Sequence::from_bytes("q", b"");
        let p = Pssm::build(&q, &m);
        assert_eq!(p.query_len(), 0);
        assert_eq!(p.size_bytes(), 0);
    }
}
