//! Ungapped x-drop extension along a diagonal.
//!
//! Given a word hit `(query_pos, subject_pos)`, extend right from the end
//! of the word and left from its start, accumulating PSSM scores and
//! stopping once the running score drops more than `xdrop` below the best
//! score seen (§2.1 "ungapped extension"). This single function defines the
//! extension semantics for *every* pipeline in the workspace — the CPU
//! reference, cuBLASTP's three fine-grained strategies, and the
//! coarse-grained GPU baselines — which is what makes their outputs
//! comparable bit-for-bit.

use bio_seq::alphabet::Residue;
use blast_core::{Pssm, WORD_LEN};
use serde::{Deserialize, Serialize};

/// Result of one ungapped extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UngappedExt {
    /// Index of the subject sequence within the database block.
    pub seq_id: u32,
    /// First query position of the extension (inclusive).
    pub q_start: u32,
    /// First subject position of the extension (inclusive).
    pub s_start: u32,
    /// Extension length in residues (same on both sequences — ungapped).
    pub len: u32,
    /// Raw score of the best-scoring segment.
    pub score: i32,
}

impl UngappedExt {
    /// One past the last subject position covered.
    #[inline]
    pub fn s_end(&self) -> u32 {
        self.s_start + self.len
    }

    /// One past the last query position covered.
    #[inline]
    pub fn q_end(&self) -> u32 {
        self.q_start + self.len
    }

    /// Subject position of the extension's midpoint, used to seed gapped
    /// extension.
    #[inline]
    pub fn s_mid(&self) -> u32 {
        self.s_start + self.len / 2
    }

    /// Query position of the extension's midpoint.
    #[inline]
    pub fn q_mid(&self) -> u32 {
        self.q_start + self.len / 2
    }
}

/// One direction of the x-drop walk: add `score_at(0)`, `score_at(1)`, …
/// (at most `n` cells, in extension order) to a segment that already
/// scores `start`. Returns the best score reached and how many cells the
/// best-scoring prefix spans (0 when nothing improves on `start`; ties
/// keep the shorter prefix).
///
/// Plain scalar code on purpose. Extensions average 7–9 residues on the
/// repo benchmark, and a prefix-scan vector body measured 2.7–3.0× slower
/// than a scalar loop at every length from 16 to 1000 (the score gather is
/// scalar either way; DESIGN.md §3.5). What does cost on those short,
/// unrelated stretches is the unpredictable "new best?" branch, so that
/// update is written as selects and only the loop exit branches.
#[inline(always)]
fn walk(n: usize, score_at: impl Fn(usize) -> i32, start: i32, xdrop: i32) -> (i32, usize) {
    // `gap < 0` is a strict improvement, which never drops whatever
    // `xdrop` is; clamping the limit keeps that true for a negative one.
    let limit = xdrop.max(-1);
    let (mut best, mut best_len, mut running) = (start, 0usize, start);
    for k in 0..n {
        running += score_at(k);
        let gap = best - running;
        best_len = if gap < 0 { k + 1 } else { best_len };
        best = best.max(running);
        if gap > limit {
            break;
        }
    }
    (best, best_len)
}

/// Extend a word hit in both directions with an x-drop of `xdrop`.
///
/// `query_pos`/`subject_pos` address the first residue of the W-mer hit.
/// The returned segment is the maximal-scoring contiguous run found: first
/// the word itself is scored, then the extension grows rightward from the
/// word end and leftward from the word start, each direction terminating
/// when the running score falls `xdrop` below the best.
pub fn extend(
    pssm: &Pssm,
    subject: &[Residue],
    seq_id: u32,
    query_pos: u32,
    subject_pos: u32,
    xdrop: i32,
) -> UngappedExt {
    let qp = query_pos as usize;
    let sp = subject_pos as usize;
    // One past the word, on both sequences.
    let (qr, sr) = (qp + WORD_LEN, sp + WORD_LEN);
    debug_assert!(qr <= pssm.query_len() && sr <= subject.len());

    let word_score: i32 = (0..WORD_LEN)
        .map(|k| pssm.score(qp + k, subject[sp + k]))
        .sum();

    // Rightward from the residue after the word, to whichever sequence
    // ends first.
    let n = (pssm.query_len() - qr).min(subject.len() - sr);
    let right = |k: usize| pssm.score(qr + k, subject[sr + k]);
    let (best, best_right) = walk(n, right, word_score, xdrop);

    // Leftward from the residue before the word. The running score restarts
    // from the best-so-far (the left extension adds to the whole segment).
    let left = |k: usize| pssm.score(qp - 1 - k, subject[sp - 1 - k]);
    let (best_total, best_left) = walk(qp.min(sp), left, best, xdrop);

    UngappedExt {
        seq_id,
        q_start: (qp - best_left) as u32,
        s_start: (sp - best_left) as u32,
        len: (best_left + WORD_LEN + best_right) as u32,
        score: best_total,
    }
}

/// Recompute the score of an ungapped segment directly (test helper and
/// invariant check used by property tests).
pub fn rescore(pssm: &Pssm, subject: &[Residue], ext: &UngappedExt) -> i32 {
    (0..ext.len as usize)
        .map(|k| pssm.score(ext.q_start as usize + k, subject[ext.s_start as usize + k]))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_seq::alphabet::encode_str;
    use bio_seq::Sequence;
    use blast_core::Matrix;

    fn pssm_for(q: &[u8]) -> Pssm {
        Pssm::build(&Sequence::from_bytes("q", q), &Matrix::blosum62())
    }

    #[test]
    fn identical_sequences_extend_fully() {
        let q = b"MKVLAARNDW";
        let pssm = pssm_for(q);
        let s = encode_str(q);
        let ext = extend(&pssm, &s, 0, 3, 3, 16);
        assert_eq!(ext.q_start, 0);
        assert_eq!(ext.s_start, 0);
        assert_eq!(ext.len, 10);
        assert_eq!(ext.score, rescore(&pssm, &s, &ext));
    }

    #[test]
    fn extension_stops_at_strong_mismatch_run() {
        // Query has a matching prefix then diverges into residues that score
        // very negatively; x-drop must clip the extension.
        let pssm = pssm_for(b"WWWWWPPPPP");
        let s = encode_str(b"WWWWWGGGGG"); // P vs G = −2 each
        let ext = extend(&pssm, &s, 0, 0, 0, 4);
        assert_eq!(ext.s_start, 0);
        assert_eq!(ext.len, 5, "ext = {ext:?}");
        assert_eq!(ext.score, 11 * 5);
    }

    #[test]
    fn left_extension_crosses_small_dips() {
        // A single mismatch inside an otherwise perfect match must be
        // bridged when the x-drop allows it.
        let pssm = pssm_for(b"WWWAWWW");
        let s = encode_str(b"WWWGWWW"); // A vs G = 0
        let ext = extend(&pssm, &s, 0, 4, 4, 16);
        assert_eq!(ext.q_start, 0);
        assert_eq!(ext.len, 7);
        assert_eq!(ext.score, 6 * 11);
    }

    #[test]
    fn score_matches_rescore_on_random_data() {
        let q = bio_seq::generate::make_query(80);
        let pssm = Pssm::build(&q, &Matrix::blosum62());
        let s = bio_seq::generate::make_query(120);
        for (qp, sp) in [(0u32, 0u32), (10, 40), (70, 100), (77, 117)] {
            let ext = extend(&pssm, s.residues(), 7, qp, sp, 16);
            assert_eq!(
                ext.score,
                rescore(&pssm, s.residues(), &ext),
                "seed ({qp},{sp})"
            );
            assert_eq!(ext.seq_id, 7);
            // The seed word stays inside the reported segment.
            assert!(ext.q_start <= qp && ext.q_end() >= qp + WORD_LEN as u32);
            assert!(ext.s_start <= sp && ext.s_end() >= sp + WORD_LEN as u32);
        }
    }

    #[test]
    fn extension_at_sequence_edges() {
        let pssm = pssm_for(b"WWW");
        let s = encode_str(b"WWW");
        let ext = extend(&pssm, &s, 0, 0, 0, 16);
        assert_eq!((ext.q_start, ext.s_start, ext.len), (0, 0, 3));
        assert_eq!(ext.score, 33);
    }

    /// The parent's scalar walk, branches and all: `if better {…} else if
    /// dropped {break}` per direction.
    fn branching_extend(
        pssm: &Pssm,
        s: &[Residue],
        qp: usize,
        sp: usize,
        xdrop: i32,
    ) -> UngappedExt {
        let word: i32 = (0..WORD_LEN).map(|k| pssm.score(qp + k, s[sp + k])).sum();
        let (mut best, mut running, mut right) = (word, word, WORD_LEN);
        let mut k = WORD_LEN;
        while qp + k < pssm.query_len() && sp + k < s.len() {
            running += pssm.score(qp + k, s[sp + k]);
            if running > best {
                best = running;
                right = k + 1;
            } else if best - running > xdrop {
                break;
            }
            k += 1;
        }
        let (mut total, mut running, mut left) = (best, best, 0);
        let mut k = 1;
        while qp >= k && sp >= k {
            running += pssm.score(qp - k, s[sp - k]);
            if running > total {
                total = running;
                left = k;
            } else if total - running > xdrop {
                break;
            }
            k += 1;
        }
        UngappedExt {
            seq_id: 1,
            q_start: (qp - left) as u32,
            s_start: (sp - left) as u32,
            len: (left + right) as u32,
            score: total,
        }
    }

    #[test]
    fn select_walk_matches_branching_walk() {
        let q = bio_seq::generate::make_query(300);
        let pssm = Pssm::build(&q, &Matrix::blosum62());
        let s = bio_seq::generate::make_query(400);
        for (qp, sp) in [(0u32, 0u32), (10, 40), (150, 90), (280, 380), (297, 397)] {
            // Negative x-drops too: an improving step must still never drop.
            for xdrop in [-5, -1, 0, 1, 5, 16, 10_000] {
                let got = extend(&pssm, s.residues(), 1, qp, sp, xdrop);
                let want = branching_extend(&pssm, s.residues(), qp as usize, sp as usize, xdrop);
                assert_eq!(got, want, "seed ({qp},{sp}) xdrop {xdrop}");
            }
        }
    }

    #[test]
    fn midpoints() {
        let ext = UngappedExt {
            seq_id: 0,
            q_start: 10,
            s_start: 20,
            len: 9,
            score: 50,
        };
        assert_eq!(ext.q_mid(), 14);
        assert_eq!(ext.s_mid(), 24);
        assert_eq!(ext.q_end(), 19);
        assert_eq!(ext.s_end(), 29);
    }
}
