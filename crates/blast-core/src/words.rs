//! W-mer words and the scored neighbourhood that seeds BLASTP hit
//! detection.
//!
//! BLASTP (§2.1) does not require exact word matches: a subject word *w*
//! hits query position *p* whenever the PSSM score of *w* against the query
//! word starting at *p* reaches the neighbourhood threshold *T* (default 11
//! for BLOSUM62, W = 3). This module enumerates, for every query position,
//! all such *neighbour words* — the data the DFA and lookup tables are
//! built from.

use crate::matrix::Matrix;
use crate::pssm::Pssm;
use bio_seq::alphabet::{is_standard, Residue, ALPHABET_SIZE, STANDARD_AA};
use bio_seq::Sequence;

/// BLASTP word length (W = 3 for protein search, §2.1).
pub const WORD_LEN: usize = 3;

/// Number of distinct word codes: 24^3.
pub const NUM_WORDS: usize = ALPHABET_SIZE.pow(WORD_LEN as u32);

/// Encode a word (exactly [`WORD_LEN`] residues) as an integer in
/// `0..NUM_WORDS`, first residue most significant.
///
/// # Panics
/// Panics if `word.len() != WORD_LEN` or a residue is out of range.
#[inline]
pub fn word_code(word: &[Residue]) -> usize {
    debug_assert_eq!(word.len(), WORD_LEN);
    word.iter().fold(0usize, |acc, &r| {
        debug_assert!((r as usize) < ALPHABET_SIZE);
        acc * ALPHABET_SIZE + r as usize
    })
}

/// Decode a word code back into residues.
pub fn word_decode(code: usize) -> [Residue; WORD_LEN] {
    debug_assert!(code < NUM_WORDS);
    let mut out = [0 as Residue; WORD_LEN];
    let mut c = code;
    for i in (0..WORD_LEN).rev() {
        out[i] = (c % ALPHABET_SIZE) as Residue;
        c /= ALPHABET_SIZE;
    }
    out
}

/// For every word code, the list of query positions it hits.
///
/// Stored flat (offsets + positions) so the GPU kernels can copy it into
/// simulated device memory unchanged; this is also the payload behind the
/// DFA's transition targets (Fig. 2(a): "query pos" lists).
#[derive(Debug, Clone)]
pub struct WordNeighborhood {
    /// `offsets[code]..offsets[code + 1]` indexes `positions`.
    offsets: Vec<u32>,
    /// Query positions, grouped by word code, ascending within a group.
    positions: Vec<u32>,
    threshold: i32,
}

impl WordNeighborhood {
    /// Enumerate the neighbourhood of `query` under `matrix` with threshold
    /// `t` (use [`crate::params::SearchParams::threshold`]).
    ///
    /// Exact query words are always included, matching NCBI semantics where
    /// a word always hits its own position even if its self-score is below
    /// *T* (possible for words of very common residues). Neighbour words
    /// are enumerated over the 20 standard amino acids only — ambiguity
    /// codes never appear in neighbourhoods, again matching NCBI.
    pub fn build(query: &Sequence, matrix: &Matrix, t: i32) -> Self {
        Self::build_with_mask(query, matrix, t, None)
    }

    /// Like [`Self::build`], but query positions whose word window touches
    /// a masked residue (see [`crate::seg`]) contribute no entries at all —
    /// BLAST's soft masking: masked regions seed nothing but extensions may
    /// still run through them.
    pub fn build_with_mask(
        query: &Sequence,
        matrix: &Matrix,
        t: i32,
        mask: Option<&[bool]>,
    ) -> Self {
        if let Some(m) = mask {
            assert_eq!(m.len(), query.len(), "mask length must equal query length");
        }
        let pssm = Pssm::build(query, matrix);
        let qlen = query.len();
        // The standard residues of every query position, best-scoring
        // first: a word's letters are tried in that order, so a prefix is
        // dropped at the first letter with which even the best completion
        // misses T — every later letter scores no higher.
        let ranked: Vec<[(i32, Residue); STANDARD_AA]> = (0..qlen)
            .map(|p| {
                let mut column =
                    std::array::from_fn(|r| (pssm.score(p, r as Residue), r as Residue));
                column.sort_unstable_by(|a, b| b.cmp(a));
                column
            })
            .collect();
        // The neighbourhood as flat (word code, query position) pairs, in
        // the order the positions are visited.
        let mut pairs: Vec<(u32, u32)> = Vec::new();

        for pos in 0..(qlen + 1).saturating_sub(WORD_LEN) {
            if mask.is_some_and(|m| m[pos..pos + WORD_LEN].iter().any(|&b| b)) {
                continue; // soft-masked seed position
            }
            let columns = &ranked[pos..pos + WORD_LEN];
            // best_from[k]: the best achievable score of word letters k..
            let mut best_from = [0i32; WORD_LEN + 1];
            for k in (0..WORD_LEN).rev() {
                best_from[k] = best_from[k + 1] + columns[k][0].0;
            }
            // Ensure the exact word is present (it may contain
            // non-standard residues or score below T).
            let exact = &query.residues()[pos..pos + WORD_LEN];
            let mut missing_exact = exact
                .iter()
                .all(|&r| (r as usize) < ALPHABET_SIZE)
                .then(|| word_code(exact));
            neighbors(columns, &best_from, t, 0, 0, &mut |code| {
                if missing_exact == Some(code) {
                    missing_exact = None;
                }
                pairs.push((code as u32, pos as u32));
            });
            if let Some(code) = missing_exact {
                pairs.push((code as u32, pos as u32));
            }
        }

        // One stable counting pass places the pairs by word; positions were
        // visited in ascending order, so every word's list comes out sorted.
        let mut offsets = vec![0u32; NUM_WORDS + 1];
        for &(code, _) in &pairs {
            offsets[code as usize + 1] += 1;
        }
        // Until the scatter is done, `offsets[code + 1]` is the write cursor
        // of `code`: its list's start, advancing to its end.
        let mut start = 0u32;
        for cursor in &mut offsets[1..] {
            start += std::mem::replace(cursor, start);
        }
        let mut positions = vec![0u32; pairs.len()];
        for &(code, pos) in &pairs {
            let cursor = &mut offsets[code as usize + 1];
            positions[*cursor as usize] = pos;
            *cursor += 1;
        }
        Self {
            offsets,
            positions,
            threshold: t,
        }
    }

    /// Query positions hit by `code`.
    #[inline]
    pub fn positions(&self, code: usize) -> &[u32] {
        let lo = self.offsets[code] as usize;
        let hi = self.offsets[code + 1] as usize;
        &self.positions[lo..hi]
    }

    /// The neighbourhood threshold this table was built with.
    pub fn threshold(&self) -> i32 {
        self.threshold
    }

    /// Total number of (word, position) pairs.
    pub fn total_entries(&self) -> usize {
        self.positions.len()
    }

    /// Flat offsets array (length `NUM_WORDS + 1`), for device upload.
    pub fn raw_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Flat positions array, for device upload.
    pub fn raw_positions(&self) -> &[u32] {
        &self.positions
    }
}

/// Depth-first enumeration of the standard-residue words that score at
/// least `t` against the word columns `columns[0..]` (each ranked best
/// residue first); `score` and `code` are those of the letters chosen so
/// far, `best_from[k]` the best score letters `k..` can add.
fn neighbors(
    columns: &[[(i32, Residue); STANDARD_AA]],
    best_from: &[i32],
    t: i32,
    score: i32,
    code: usize,
    emit: &mut impl FnMut(usize),
) {
    let Some((column, rest)) = columns.split_first() else {
        return emit(code);
    };
    for &(s, r) in column {
        if score + s + best_from[1] < t {
            break; // nor does any later letter reach T
        }
        let code = code * ALPHABET_SIZE + r as usize;
        neighbors(rest, &best_from[1..], t, score + s, code, emit);
    }
}

/// Iterator over the word codes of a subject sequence, one per column
/// (position of the word's first residue). Sequences shorter than
/// [`WORD_LEN`] yield nothing. Words containing `*` are skipped by hit
/// detection but still yielded here (callers decide), keeping column
/// numbering aligned with subject positions.
///
/// The code rolls — the last W−1 residues' pair code times 24 plus the
/// new residue — so a column costs one residue read, not W.
pub fn subject_words(residues: &[Residue]) -> impl Iterator<Item = (usize, usize)> + '_ {
    const PAIRS: usize = NUM_WORDS / ALPHABET_SIZE;
    let (head, tail) = residues.split_at(residues.len().min(WORD_LEN - 1));
    let mut pair = head
        .iter()
        .fold(0, |pair, &r| pair * ALPHABET_SIZE + r as usize);
    tail.iter().enumerate().map(move |(col, &r)| {
        debug_assert!((r as usize) < ALPHABET_SIZE);
        let code = pair * ALPHABET_SIZE + r as usize;
        pair = code % PAIRS;
        (col, code)
    })
}

/// True if every residue of the word at `code` is a standard amino acid.
pub fn word_is_standard(code: usize) -> bool {
    word_decode(code).iter().all(|&r| is_standard(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_seq::alphabet::encode_str;

    #[test]
    fn code_roundtrip() {
        for code in [0usize, 1, 577, NUM_WORDS - 1, 24 * 24 * 23] {
            assert_eq!(word_code(&word_decode(code)), code);
        }
    }

    #[test]
    fn subject_words_enumerates_columns() {
        let res = encode_str(b"ARNDC");
        let words: Vec<(usize, usize)> = subject_words(&res).collect();
        assert_eq!(words.len(), 3);
        assert_eq!(words[0], (0, word_code(&encode_str(b"ARN"))));
        assert_eq!(words[2], (2, word_code(&encode_str(b"NDC"))));
        // The rolled code is the window's code, ambiguity codes included.
        let q = bio_seq::generate::make_query(300);
        let mut res = q.residues().to_vec();
        res.extend(encode_str(b"XB*ZXX*A"));
        let rolled: Vec<(usize, usize)> = subject_words(&res).collect();
        let windows: Vec<(usize, usize)> =
            res.windows(WORD_LEN).map(word_code).enumerate().collect();
        assert_eq!(rolled, windows);
    }

    #[test]
    fn short_subject_has_no_words() {
        let res = encode_str(b"AR");
        assert_eq!(subject_words(&res).count(), 0);
    }

    #[test]
    fn exact_words_always_present() {
        let m = Matrix::blosum62();
        // AAA self-score = 12 ≥ 11, but e.g. SSS = 12 too; use a weak word:
        // "AGS" self = 4 + 6 + 4 = 14 ≥ 11. Try something weaker: "ASA"
        // self = 4 + 4 + 4 = 12. All standard self-words ≥ 12 in BLOSUM62,
        // so instead verify with a high threshold where DFS excludes them.
        let q = Sequence::from_bytes("q", b"ASA");
        let n = WordNeighborhood::build(&q, &m, 100);
        let code = word_code(&encode_str(b"ASA"));
        assert_eq!(n.positions(code), &[0]);
    }

    #[test]
    fn neighborhood_scores_reach_threshold() {
        let m = Matrix::blosum62();
        let q = Sequence::from_bytes("q", b"WCMKV");
        let t = 11;
        let n = WordNeighborhood::build(&q, &m, t);
        let pssm = Pssm::build(&q, &m);
        let exact: Vec<usize> = q.residues().windows(WORD_LEN).map(word_code).collect();
        let mut checked = 0;
        for code in 0..NUM_WORDS {
            for &pos in n.positions(code) {
                let w = word_decode(code);
                let score: i32 = (0..WORD_LEN)
                    .map(|k| pssm.score(pos as usize + k, w[k]))
                    .sum();
                let is_exact = exact[pos as usize] == code;
                assert!(
                    score >= t || is_exact,
                    "word {code} at {pos} scores {score} < {t} and is not exact"
                );
                checked += 1;
            }
        }
        assert!(checked > 3, "neighbourhood unexpectedly tiny: {checked}");
    }

    #[test]
    fn neighborhood_is_complete_for_one_position() {
        // Brute-force check against the DFS for a single query word.
        let m = Matrix::blosum62();
        let q = Sequence::from_bytes("q", b"WKV");
        let t = 11;
        let n = WordNeighborhood::build(&q, &m, t);
        let pssm = Pssm::build(&q, &m);
        for code in 0..NUM_WORDS {
            let w = word_decode(code);
            if !w.iter().all(|&r| is_standard(r)) {
                continue;
            }
            let score: i32 = (0..WORD_LEN).map(|k| pssm.score(k, w[k])).sum();
            let listed = n.positions(code).contains(&0);
            assert_eq!(
                listed,
                score >= t || code == word_code(&encode_str(b"WKV")),
                "code {code} score {score}"
            );
        }
    }

    #[test]
    fn positions_sorted_and_unique() {
        let m = Matrix::blosum62();
        let q = Sequence::from_bytes("q", b"AAAAAA");
        let n = WordNeighborhood::build(&q, &m, 11);
        for code in 0..NUM_WORDS {
            let p = n.positions(code);
            assert!(p.windows(2).all(|w| w[0] < w[1]), "code {code}: {p:?}");
        }
        // AAA hits every one of the 4 positions.
        let code = word_code(&encode_str(b"AAA"));
        assert_eq!(n.positions(code), &[0, 1, 2, 3]);
    }

    #[test]
    fn higher_threshold_shrinks_neighborhood() {
        let m = Matrix::blosum62();
        let q = bio_seq::generate::make_query(64);
        let lo = WordNeighborhood::build(&q, &m, 10);
        let hi = WordNeighborhood::build(&q, &m, 13);
        assert!(lo.total_entries() > hi.total_entries());
    }

    #[test]
    fn masked_positions_seed_nothing() {
        let m = Matrix::blosum62();
        let q = Sequence::from_bytes("q", b"WKVMSARND");
        let full = WordNeighborhood::build(&q, &m, 11);
        // Mask the middle: positions 3..6 masked → word starts 1..=5 all
        // touch a masked residue.
        let mut mask = vec![false; 9];
        for m in &mut mask[3..6] {
            *m = true;
        }
        let masked = WordNeighborhood::build_with_mask(&q, &m, 11, Some(&mask));
        assert!(masked.total_entries() < full.total_entries());
        for code in 0..NUM_WORDS {
            for &pos in masked.positions(code) {
                let p = pos as usize;
                assert!(
                    !mask[p..p + WORD_LEN].iter().any(|&b| b),
                    "masked seed survived at {p}"
                );
            }
        }
    }

    /// The layout's definition: one position `Vec` per word code, filled
    /// by scoring every standard-residue word at every position, sorted
    /// and concatenated.
    fn per_word_vec_build(
        query: &Sequence,
        matrix: &Matrix,
        t: i32,
        mask: Option<&[bool]>,
    ) -> (Vec<u32>, Vec<u32>) {
        let pssm = Pssm::build(query, matrix);
        let mut per_word: Vec<Vec<u32>> = vec![Vec::new(); NUM_WORDS];
        for pos in 0..(query.len() + 1).saturating_sub(WORD_LEN) {
            if mask.is_some_and(|m| m[pos..pos + WORD_LEN].iter().any(|&b| b)) {
                continue;
            }
            let exact = &query.residues()[pos..pos + WORD_LEN];
            for (code, list) in per_word.iter_mut().enumerate() {
                let word = word_decode(code);
                let score: i32 = (0..WORD_LEN).map(|k| pssm.score(pos + k, word[k])).sum();
                if word.iter().all(|&r| is_standard(r)) && score >= t || word == exact {
                    list.push(pos as u32);
                }
            }
        }
        let mut offsets = vec![0u32];
        let mut positions = Vec::new();
        for list in per_word.iter_mut() {
            list.sort_unstable();
            positions.extend_from_slice(list);
            offsets.push(positions.len() as u32);
        }
        (offsets, positions)
    }

    #[test]
    fn flat_layout_equals_the_per_word_vec_build() {
        let m = Matrix::blosum62();
        let lc = bio_seq::generate::make_query_with_low_complexity(254, 4);
        let lc_mask: Vec<bool> = (0..lc.len())
            .map(|i| (40..90).contains(&i) || (200..203).contains(&i))
            .collect();
        let cases: Vec<(Sequence, i32, Option<&[bool]>)> = vec![
            (bio_seq::generate::make_query(127), 11, None),
            (bio_seq::generate::make_query(254), 11, None),
            (bio_seq::generate::make_query(517), 11, None),
            (lc.clone(), 11, Some(&lc_mask)),
            // Ambiguity codes and a stop: exact words the DFS never names.
            (Sequence::from_bytes("q", b"MKBVLZAXW*RNDAAB"), 11, None),
            // Low complexity under a threshold its own words miss (AAA and
            // SSS score 12): present only as exact words.
            (
                Sequence::from_bytes("q", b"AAAAAAAASSSSSSSAAASSS"),
                13,
                None,
            ),
            (Sequence::from_bytes("q", b"AR"), 11, None),
        ];
        for (query, t, mask) in cases {
            let got = WordNeighborhood::build_with_mask(&query, &m, t, mask);
            let (offsets, positions) = per_word_vec_build(&query, &m, t, mask);
            assert_eq!(got.raw_offsets(), &offsets[..], "{} offsets", query.id);
            assert_eq!(
                got.raw_positions(),
                &positions[..],
                "{} positions",
                query.id
            );
        }
        let weak = Sequence::from_bytes("q", b"AAAAAAAASSSSSSSAAASSS");
        let n = WordNeighborhood::build(&weak, &m, 13);
        assert_eq!(n.positions(word_code(&encode_str(b"AAA"))).len(), 7);
    }

    #[test]
    #[should_panic(expected = "mask length")]
    fn wrong_mask_length_panics() {
        let m = Matrix::blosum62();
        let q = Sequence::from_bytes("q", b"WKVMS");
        let _ = WordNeighborhood::build_with_mask(&q, &m, 11, Some(&[false; 3]));
    }

    #[test]
    fn word_is_standard_classifier() {
        use bio_seq::alphabet::encode_str;
        assert!(word_is_standard(word_code(&encode_str(b"WKV"))));
        assert!(!word_is_standard(word_code(&encode_str(b"WXV"))));
        assert!(!word_is_standard(word_code(&encode_str(b"BKV"))));
    }

    #[test]
    fn empty_and_short_queries() {
        let m = Matrix::blosum62();
        for q in [
            Sequence::from_bytes("q", b""),
            Sequence::from_bytes("q", b"AR"),
        ] {
            let n = WordNeighborhood::build(&q, &m, 11);
            assert_eq!(n.total_entries(), 0);
        }
    }
}
