//! Gapped extension: banded x-drop dynamic programming with affine gaps
//! (§2.1 "gapped extension").
//!
//! High-scoring ungapped segments seed a gapped alignment. From a single
//! anchor pair (the midpoint of the ungapped segment) the alignment is
//! grown in both directions with the x-drop heuristic: a DP row only keeps
//! cells whose score is within `xdrop_gapped` of the best score seen, so
//! the band follows the alignment instead of filling the full matrix. A
//! gap of length *k* costs `gap_open + k·gap_extend` (NCBI convention,
//! defaults 11 + k).
//!
//! This is the phase cuBLASTP keeps on the multicore CPU (§3.6); the same
//! functions are called from `cublastp`'s threaded pipeline. The DP
//! itself is the `band` module's row engine run with no sink; this module
//! is the score-only caller, the anchor arithmetic and the per-subject
//! containment order.

use crate::band::{self, HalfView, Outcome};
use crate::ungapped::UngappedExt;
use bio_seq::alphabet::Residue;
use blast_core::{Pssm, SearchParams};
use serde::{Deserialize, Serialize};
use std::cell::Cell;

/// Result of a gapped extension (score-only pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GappedExt {
    /// Index of the subject sequence within the database block.
    pub seq_id: u32,
    /// Anchor pair the two half-extensions grew from.
    pub q_seed: u32,
    /// Anchor subject position.
    pub s_seed: u32,
    /// First query position of the alignment (inclusive).
    pub q_start: u32,
    /// One past the last query position.
    pub q_end: u32,
    /// First subject position (inclusive).
    pub s_start: u32,
    /// One past the last subject position.
    pub s_end: u32,
    /// Raw gapped score.
    pub score: i32,
}

thread_local! {
    /// Score-pass DP cells computed on this thread (row 0 included).
    static CELLS: Cell<u64> = const { Cell::new(0) };
}

/// Gapped-extension DP cells computed so far on the calling thread, and
/// on helper threads on its behalf: [`crate::par`] folds every helper's
/// delta into the caller's counter when it joins a batch.
///
/// Monotone; benches subtract two readings around a timed region. Counts
/// are a pure function of the inputs (the band evolution is bit-identical
/// across ISA levels), which makes them usable as deterministic
/// perf-gate medians. Only the score pass counts: traceback and interval
/// re-fill recompute cells this counter has already seen.
pub fn dp_cells() -> u64 {
    CELLS.get()
}

/// Add one score pass's cells to [`dp_cells`].
pub(crate) fn count_cells(cells: u64) {
    CELLS.set(CELLS.get() + cells);
}

/// Score-only half-extension. The outcome's best cell is `(q_offset,
/// s_offset)`, counts of consumed residues (`(0, 0)` means the half
/// extension is empty).
fn score_half(view: &HalfView<'_>, params: &SearchParams) -> Outcome {
    if view.is_empty() {
        return Outcome::default();
    }
    let out = band::run(view, params, None, usize::MAX, &mut ());
    count_cells(out.cells);
    out
}

/// The extension of subject `seq_id` anchored at `(qs, ss)` whose halves
/// ended at `right` / `left`: the total is `left + anchor + right`, the
/// gapped analogue of the paper's Fig. 1 third stage.
pub(crate) fn join_halves(
    pssm: &Pssm,
    subject: &[Residue],
    seq_id: u32,
    (qs, ss): (usize, usize),
    right: &Outcome,
    left: &Outcome,
) -> GappedExt {
    GappedExt {
        seq_id,
        q_seed: qs as u32,
        s_seed: ss as u32,
        q_start: (qs - left.best_cell.0) as u32,
        s_start: (ss - left.best_cell.1) as u32,
        q_end: (qs + 1 + right.best_cell.0) as u32,
        s_end: (ss + 1 + right.best_cell.1) as u32,
        score: left.best + pssm.score(qs, subject[ss]) + right.best,
    }
}

/// Run a gapped extension seeded at the midpoint of `seed`.
///
/// The anchor pair is scored once; the right half extends over
/// `(q_seed+1.., s_seed+1..)` and the left half over the reversed
/// prefixes.
pub fn extend_gapped(
    pssm: &Pssm,
    subject: &[Residue],
    seed: &UngappedExt,
    params: &SearchParams,
) -> GappedExt {
    let (qs, ss) = (seed.q_mid() as usize, seed.s_mid() as usize);
    debug_assert!(qs < pssm.query_len() && ss < subject.len());
    let right = score_half(&HalfView::new(pssm, subject, qs, ss, true), params);
    let left = score_half(&HalfView::new(pssm, subject, qs, ss, false), params);
    join_halves(pssm, subject, seed.seq_id, (qs, ss), &right, &left)
}

/// [`gapped_phase_subject`]'s seed order and containment skipping, over
/// any way of extending one seed.
pub(crate) fn gapped_phase_with(
    ungapped: &[UngappedExt],
    trigger: i32,
    mut extend: impl FnMut(&UngappedExt) -> GappedExt,
) -> Vec<GappedExt> {
    let mut seeds: Vec<&UngappedExt> = ungapped.iter().filter(|e| e.score >= trigger).collect();
    // Deterministic best-first order.
    seeds.sort_by(|a, b| {
        b.score
            .cmp(&a.score)
            .then(a.s_start.cmp(&b.s_start))
            .then(a.q_start.cmp(&b.q_start))
    });
    let mut out: Vec<GappedExt> = Vec::new();
    for seed in seeds {
        let qm = seed.q_mid();
        let sm = seed.s_mid();
        let contained = out
            .iter()
            .any(|g| qm >= g.q_start && qm < g.q_end && sm >= g.s_start && sm < g.s_end);
        if contained {
            continue;
        }
        out.push(extend(seed));
    }
    out
}

/// Gapped phase for one subject: take every ungapped extension that reached
/// the trigger score, process them best-first, and skip seeds whose anchor
/// already lies inside a computed gapped alignment (the standard
/// containment heuristic — identical across all pipelines).
pub fn gapped_phase_subject(
    pssm: &Pssm,
    subject: &[Residue],
    ungapped: &[UngappedExt],
    params: &SearchParams,
    trigger: i32,
) -> Vec<GappedExt> {
    gapped_phase_with(ungapped, trigger, |seed| {
        extend_gapped(pssm, subject, seed, params)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{self, IsaLevel};
    use crate::testutil::seed;
    use bio_seq::alphabet::encode_str;
    use bio_seq::Sequence;
    use blast_core::Matrix;

    fn pssm_for(q: &[u8]) -> Pssm {
        Pssm::build(&Sequence::from_bytes("q", q), &Matrix::blosum62())
    }

    #[test]
    fn identical_sequences_align_end_to_end() {
        let q = b"MKVLWAARNDCQEGH";
        let pssm = pssm_for(q);
        let s = encode_str(q);
        let g = extend_gapped(&pssm, &s, &seed(4, 4, 6), &SearchParams::default());
        assert_eq!(g.q_start, 0);
        assert_eq!(g.s_start, 0);
        assert_eq!(g.q_end as usize, q.len());
        assert_eq!(g.s_end as usize, q.len());
        // Ungapped identity score: sum of self-scores.
        let m = Matrix::blosum62();
        let expect: i32 = encode_str(q).iter().map(|&r| m.score(r, r)).sum();
        assert_eq!(g.score, expect);
    }

    #[test]
    fn gapped_beats_ungapped_across_an_insertion() {
        // Subject = query with a 2-residue insertion in the middle. The
        // gapped score must recover both flanks minus the gap cost.
        let q = b"WWWWWWKKKKKK";
        let pssm = pssm_for(q);
        let s = encode_str(b"WWWWWWGGKKKKKK");
        let g = extend_gapped(&pssm, &s, &seed(0, 0, 6), &SearchParams::default());
        let m = Matrix::blosum62();
        let full: i32 = encode_str(q).iter().map(|&r| m.score(r, r)).sum();
        // gap of length 2 costs 11 + 2.
        assert_eq!(g.score, full - 13, "g = {g:?}");
        assert_eq!(g.q_end, 12);
        assert_eq!(g.s_end, 14);
    }

    #[test]
    fn deletion_in_subject() {
        // Non-repetitive flank after the deleted residue, so the shifted
        // substitution path cannot compete with the gap.
        let q = b"WWWWWWAMKVLHE"; // A deleted in subject
        let pssm = pssm_for(q);
        let s = encode_str(b"WWWWWWMKVLHE");
        let g = extend_gapped(&pssm, &s, &seed(0, 0, 6), &SearchParams::default());
        let m = Matrix::blosum62();
        let matched: i32 = encode_str(b"WWWWWWMKVLHE")
            .iter()
            .map(|&r| m.score(r, r))
            .sum();
        assert_eq!(g.score, matched - 12, "g = {g:?}");
    }

    #[test]
    fn xdrop_stops_extension_into_noise() {
        // Strong 6-residue match followed by junk; the gapped score should
        // not wander far past the match.
        let q = b"WWWWWWAAAAAAAAAA";
        let pssm = pssm_for(q);
        let s = encode_str(b"WWWWWWPPPPPPPPPP"); // A vs P = −1 each
        let g = extend_gapped(&pssm, &s, &seed(0, 0, 6), &SearchParams::default());
        assert_eq!(g.score, 66, "should keep only the W-run, got {g:?}");
    }

    #[test]
    fn anchor_only_when_everything_else_mismatches() {
        let q = b"KWK";
        let pssm = pssm_for(q);
        let s = encode_str(b"DWD"); // K/D = −1, W anchor = 11
        let g = extend_gapped(&pssm, &s, &seed(0, 0, 3), &SearchParams::default());
        assert_eq!(g.score, 11);
        assert_eq!((g.q_start, g.q_end), (1, 2));
    }

    #[test]
    fn containment_skips_redundant_seeds() {
        let q = b"MKVLWAARNDCQEGH";
        let pssm = pssm_for(q);
        let s = encode_str(q);
        // Two overlapping seeds over the same diagonal → one gapped result.
        let seeds = vec![
            UngappedExt {
                seq_id: 0,
                q_start: 2,
                s_start: 2,
                len: 8,
                score: 40,
            },
            UngappedExt {
                seq_id: 0,
                q_start: 4,
                s_start: 4,
                len: 8,
                score: 38,
            },
        ];
        let out = gapped_phase_subject(&pssm, &s, &seeds, &SearchParams::default(), 22);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn trigger_filters_low_seeds() {
        let q = b"MKVLWAARNDCQEGH";
        let pssm = pssm_for(q);
        let s = encode_str(q);
        let seeds = vec![UngappedExt {
            seq_id: 0,
            q_start: 2,
            s_start: 2,
            len: 8,
            score: 10,
        }];
        let out = gapped_phase_subject(&pssm, &s, &seeds, &SearchParams::default(), 22);
        assert!(out.is_empty());
    }

    #[test]
    fn half_extend_empty_inputs() {
        let p = SearchParams::default();
        let pssm = pssm_for(b"MKVLWA");
        let s = encode_str(b"MKVLWA");
        let before = dp_cells();
        // Left halves of anchors on either sequence's first residue.
        for (qs, ss) in [(0, 5), (5, 0)] {
            let view = HalfView::new(&pssm, &s, qs, ss, false);
            assert_eq!(score_half(&view, &p), Outcome::default());
        }
        assert_eq!(dp_cells(), before, "an empty half runs no DP");
    }

    #[test]
    fn simd_and_scalar_extensions_are_bit_identical() {
        // Focused smoke test (the exhaustive version is the equivalence
        // proptest in tests/): gapped insertions, mismatch noise and a
        // long identity run, compared across every level the host has.
        let q = b"MKVLWAARNDCQEGHMKVLWAARNDCQEGHILKMFPSTWYV";
        let pssm = pssm_for(q);
        let subjects = [
            encode_str(b"MKVLWAARNDCQEGHMKVLWAARNDCQEGHILKMFPSTWYV"),
            encode_str(b"MKVLWAARNDGGGCQEGHMKVLWAARNDCQEGHILKMFPST"),
            encode_str(b"MKVLWPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPPP"),
        ];
        let params = SearchParams::default();
        for s in &subjects {
            let scalar = simd::with_forced(Some(IsaLevel::Scalar), || {
                extend_gapped(&pssm, s, &seed(2, 2, 8), &params)
            });
            let native =
                simd::with_forced(None, || extend_gapped(&pssm, s, &seed(2, 2, 8), &params));
            assert_eq!(scalar, native);
            if simd::detected_level() >= IsaLevel::Sse41 {
                let sse = simd::with_forced(Some(IsaLevel::Sse41), || {
                    extend_gapped(&pssm, s, &seed(2, 2, 8), &params)
                });
                assert_eq!(scalar, sse);
            }
        }
    }

    #[test]
    fn dp_cell_counter_is_monotone_and_isa_independent() {
        let q = b"MKVLWAARNDCQEGH";
        let pssm = pssm_for(q);
        let s = encode_str(q);
        let params = SearchParams::default();
        let count_with = |level: Option<IsaLevel>| {
            simd::with_forced(level, || {
                let before = dp_cells();
                extend_gapped(&pssm, &s, &seed(4, 4, 6), &params);
                dp_cells() - before
            })
        };
        let scalar = count_with(Some(IsaLevel::Scalar));
        let native = count_with(None);
        assert!(scalar > 0);
        assert_eq!(scalar, native, "band evolution must be bit-identical");
    }

    #[test]
    fn scratch_shrinks_after_pathological_subject() {
        // A huge subject grows the thread-local rows past MAX_RETAIN; the
        // next normal-sized call must give the memory back.
        let p = SearchParams::default();
        let pssm = pssm_for(b"AAAAAAAA");
        let huge = encode_str(&vec![b'W'; band::MAX_RETAIN + 4096]);
        score_half(&HalfView::new(&pssm, &huge, 0, 0, true), &p);
        assert!(band::retained_row_cells() > band::MAX_RETAIN);
        score_half(&HalfView::new(&pssm, &huge[..64], 0, 0, true), &p);
        assert!(band::retained_row_cells() <= band::MAX_RETAIN);
    }
}
