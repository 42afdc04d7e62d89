//! Alignment with traceback (§2.1, fourth phase).
//!
//! Re-runs the gapped x-drop DP over the extent found by the score-only
//! pass, this time recording per-cell directions, then backtracks from the
//! best cell to recover the full alignment and re-score it. Like the
//! gapped phase, cuBLASTP keeps this on the multicore CPU (§3.6); the same
//! entry point is called from the threaded pipeline.
//!
//! The DP is the `band` module's row engine with the `Dirs` sink: one
//! direction byte per *band* cell, not per matrix cell, which keeps
//! traceback memory proportional to the x-drop band like the score-only
//! pass. The direction storage and the op accumulator live in a
//! thread-local `TraceScratch`, so the steady-state CPU stage performs no
//! per-call allocation beyond the returned [`Alignment`]'s own op vector
//! (sized exactly once). The backtrack walker and the op → [`Alignment`]
//! assembly here also serve [`crate::itrace`].

use crate::band::{
    self, HalfView, Outcome, Sink, E_OPEN, FROM_E, FROM_F, FROM_M, F_OPEN, MAX_RETAIN, START,
};
use crate::gapped::GappedExt;
use crate::report::{AlignOp, Alignment};
use crate::simd::LANE_PAD;
use bio_seq::alphabet::Residue;
use blast_core::{Pssm, SearchParams};
use std::cell::RefCell;

/// Retention cap for the direction byte arena.
const BYTES_RETAIN: usize = 1 << 20;

/// One stored direction row: columns `[jlo, jlo + len)` at `bytes[off..]`.
pub(crate) struct BandRow {
    jlo: usize,
    off: usize,
    len: usize,
}

/// Band-limited direction storage for rows `base + 1 ..` of one run, rows
/// packed back to back in `bytes` (row 0 is a pure leading gap and is
/// synthesized). The backtrack only ever visits cells whose DP value was
/// live, and every live cell's sources lie inside the previous rows'
/// recorded bands, so out-of-band reads cannot occur (debug-asserted).
pub(crate) struct Dirs<'a> {
    base: usize,
    rows: &'a mut Vec<BandRow>,
    bytes: &'a mut Vec<u8>,
}

impl<'a> Dirs<'a> {
    /// Empty storage over the given buffers.
    pub(crate) fn new(rows: &'a mut Vec<BandRow>, bytes: &'a mut Vec<u8>) -> Self {
        let mut dirs = Self {
            base: 0,
            rows,
            bytes,
        };
        dirs.reset(0);
        dirs
    }

    /// Drop every stored row; the next run starts after row `base`.
    pub(crate) fn reset(&mut self, base: usize) {
        self.base = base;
        self.rows.clear();
        self.bytes.clear();
    }

    /// Whether row `i`'s bytes are stored (or synthesized).
    pub(crate) fn holds(&self, i: usize) -> bool {
        i == 0 || (i > self.base && i <= self.base + self.rows.len())
    }

    /// Direction bytes stored, not counting the vector body's overshoot
    /// pad after the last row.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.bytes.len().saturating_sub(LANE_PAD)
    }

    pub(crate) fn get(&self, i: usize, j: usize) -> u8 {
        if i == 0 {
            return match j {
                0 => START,
                1 => FROM_E | E_OPEN,
                _ => FROM_E,
            };
        }
        let r = &self.rows[i - self.base - 1];
        debug_assert!(
            j >= r.jlo && j < r.jlo + r.len,
            "backtrack left the recorded band: row {i}, col {j}, band [{}, {})",
            r.jlo,
            r.jlo + r.len
        );
        self.bytes[r.off + (j - r.jlo)]
    }
}

impl Sink for Dirs<'_> {
    const DIRS: bool = true;

    fn dir_row(&mut self, i: usize, jlo: usize, len: usize) -> &mut [u8] {
        debug_assert_eq!(
            i,
            self.base + self.rows.len() + 1,
            "rows must be contiguous"
        );
        // The next row starts where this one's logical bytes end: the
        // overshoot pad is rewritten by whichever row comes next.
        let off = self.resident_bytes();
        self.rows.push(BandRow { jlo, off, len });
        self.bytes.resize(off + len + LANE_PAD, 0);
        &mut self.bytes[off..]
    }
}

/// Thread-local working set of [`traceback`] and
/// [`crate::itrace::traceback_interval`] (which brings its own `bytes`).
pub(crate) struct TraceScratch {
    pub rows: Vec<BandRow>,
    pub bytes: Vec<u8>,
    /// Raw backtrack ops: the right half's first, then the left half's;
    /// [`assemble`] builds the final vector from both runs.
    pub ops: Vec<AlignOp>,
}

thread_local! {
    static SCRATCH: RefCell<TraceScratch> = const {
        RefCell::new(TraceScratch {
            rows: Vec::new(),
            bytes: Vec::new(),
            ops: Vec::new(),
        })
    };
}

/// Run `f` on this thread's scratch with `ops` emptied and every buffer
/// shrunk back under its retention cap.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut TraceScratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        scratch.ops.clear();
        if scratch.ops.capacity() > MAX_RETAIN {
            scratch.ops.shrink_to(MAX_RETAIN);
        }
        if scratch.rows.capacity() > MAX_RETAIN {
            scratch.rows.clear();
            scratch.rows.shrink_to(MAX_RETAIN);
        }
        if scratch.bytes.capacity() > BYTES_RETAIN {
            scratch.bytes.clear();
            scratch.bytes.shrink_to(BYTES_RETAIN);
        }
        f(scratch)
    })
}

/// Walk back from `cell` to the origin of a half-extension, appending ops
/// in raw order (outermost cell → anchor). `dir_at` yields a visited
/// cell's direction byte.
pub(crate) fn backtrack(
    cell: (usize, usize),
    ops: &mut Vec<AlignOp>,
    mut dir_at: impl FnMut(usize, usize) -> u8,
) {
    let (mut i, mut j) = cell;
    let mut state = dir_at(i, j) & 0b11;
    while (i, j) != (0, 0) {
        match state {
            FROM_M => {
                ops.push(AlignOp::Sub);
                i -= 1;
                j -= 1;
            }
            FROM_E => {
                // Horizontal gap run: consume subject residues.
                loop {
                    ops.push(AlignOp::Ins);
                    let opened = dir_at(i, j) & E_OPEN != 0;
                    j -= 1;
                    if opened {
                        break;
                    }
                }
            }
            FROM_F => loop {
                ops.push(AlignOp::Del);
                let opened = dir_at(i, j) & F_OPEN != 0;
                i -= 1;
                if opened {
                    break;
                }
            },
            _ => break, // START
        }
        state = dir_at(i, j) & 0b11;
    }
}

/// Build the owned [`Alignment`] of the extension anchored at `(qs, ss)`
/// from its two half walks: `raw` holds the right half's ops
/// (`raw[..right_ops]`) then the left half's, each in backtrack order.
/// Identity / positive / gap counts come straight from the operations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn assemble(
    pssm: &Pssm,
    query: &[Residue],
    subject: &[Residue],
    g: &GappedExt,
    right: &Outcome,
    left: &Outcome,
    raw: &[AlignOp],
    right_ops: usize,
) -> Alignment {
    let (qs, ss) = (g.q_seed as usize, g.s_seed as usize);
    // Raw backtrack order is outermost → anchor. For the left half
    // (computed on reversed sequences) that already reads left-to-right
    // in true coordinates; the right half needs reversing. One exact
    // allocation assembles the owned op vector.
    let mut ops: Vec<AlignOp> = Vec::with_capacity(raw.len() + 1);
    ops.extend_from_slice(&raw[right_ops..]);
    ops.push(AlignOp::Sub); // the anchor pair
    ops.extend(raw[..right_ops].iter().rev().copied());

    let q_start = qs - left.best_cell.0;
    let s_start = ss - left.best_cell.1;
    let q_end = qs + 1 + right.best_cell.0;
    let s_end = ss + 1 + right.best_cell.1;

    let mut qi = q_start;
    let mut si = s_start;
    let mut identities = 0u32;
    let mut positives = 0u32;
    let mut gaps = 0u32;
    for op in &ops {
        match op {
            AlignOp::Sub => {
                identities += u32::from(query[qi] == subject[si]);
                positives += u32::from(pssm.score(qi, subject[si]) > 0);
                qi += 1;
                si += 1;
            }
            AlignOp::Ins => {
                si += 1;
                gaps += 1;
            }
            AlignOp::Del => {
                qi += 1;
                gaps += 1;
            }
        }
    }
    debug_assert_eq!(qi, q_end);
    debug_assert_eq!(si, s_end);

    Alignment {
        seq_id: g.seq_id,
        q_start: q_start as u32,
        q_end: q_end as u32,
        s_start: s_start as u32,
        s_end: s_end as u32,
        score: left.best + pssm.score(qs, subject[ss]) + right.best,
        ops,
        identities,
        positives,
        gaps,
    }
}

/// One half of [`traceback`]: the DP through row `stop` with directions,
/// then the walk back from its best cell.
fn trace_half(
    view: &HalfView<'_>,
    params: &SearchParams,
    stop: usize,
    scratch: &mut TraceScratch,
) -> Outcome {
    if view.is_empty() || stop == 0 {
        return Outcome::default();
    }
    let mut dirs = Dirs::new(&mut scratch.rows, &mut scratch.bytes);
    let out = band::run(view, params, None, stop, &mut dirs);
    backtrack(out.best_cell, &mut scratch.ops, |i, j| dirs.get(i, j));
    out
}

/// Recover the full alignment for a gapped extension.
///
/// The returned [`Alignment`] is re-scored from its own operations; the
/// score always equals `g.score` (the score-only pass and this pass run
/// the identical banded recurrence) — an invariant the test suite checks.
/// Each half stops at the best row the score pass reported in `g`: rows
/// past it are x-drop tail the backtrack cannot visit.
pub fn traceback(
    pssm: &Pssm,
    query: &[Residue],
    subject: &[Residue],
    g: &GappedExt,
    params: &SearchParams,
) -> Alignment {
    let (qs, ss) = (g.q_seed as usize, g.s_seed as usize);
    with_scratch(|scratch| {
        let right_rows = (g.q_end - g.q_seed - 1) as usize;
        let right = trace_half(
            &HalfView::new(pssm, subject, qs, ss, true),
            params,
            right_rows,
            scratch,
        );
        let right_ops = scratch.ops.len();
        let left_rows = (g.q_seed - g.q_start) as usize;
        let left = trace_half(
            &HalfView::new(pssm, subject, qs, ss, false),
            params,
            left_rows,
            scratch,
        );
        assemble(
            pssm,
            query,
            subject,
            g,
            &right,
            &left,
            &scratch.ops,
            right_ops,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gapped::extend_gapped;
    use crate::ungapped::UngappedExt;
    use bio_seq::alphabet::encode_str;
    use bio_seq::Sequence;
    use blast_core::Matrix;

    fn setup(q: &[u8]) -> (Pssm, Vec<Residue>) {
        let query = Sequence::from_bytes("q", q);
        (
            Pssm::build(&query, &Matrix::blosum62()),
            query.residues().to_vec(),
        )
    }

    use crate::testutil::seed;

    fn run(q: &[u8], s: &[u8], sd: UngappedExt) -> (GappedExt, Alignment) {
        let (pssm, query) = setup(q);
        let subject = encode_str(s);
        let p = SearchParams::default();
        let g = extend_gapped(&pssm, &subject, &sd, &p);
        let a = traceback(&pssm, &query, &subject, &g, &p);
        (g, a)
    }

    #[test]
    fn identity_alignment_is_all_subs() {
        let q = b"MKVLWAARNDCQEGH";
        let (g, a) = run(q, q, seed(4, 4, 6));
        assert_eq!(a.score, g.score);
        assert_eq!(a.ops.len(), q.len());
        assert!(a.ops.iter().all(|o| *o == AlignOp::Sub));
        assert_eq!(a.identities as usize, q.len());
        assert_eq!((a.q_start, a.q_end), (0, q.len() as u32));
    }

    #[test]
    fn insertion_recovered_in_ops() {
        // Non-repetitive flank so the gap path clearly beats substitution.
        let (g, a) = run(b"WWWWWWMKVLHE", b"WWWWWWGGMKVLHE", seed(0, 0, 6));
        assert_eq!(a.score, g.score);
        let ins = a.ops.iter().filter(|o| **o == AlignOp::Ins).count();
        let del = a.ops.iter().filter(|o| **o == AlignOp::Del).count();
        assert_eq!((ins, del), (2, 0), "ops = {:?}", a.ops);
        assert_eq!(a.identities, 12);
    }

    #[test]
    fn deletion_recovered_in_ops() {
        let (g, a) = run(b"WWWWWWAAMKVLHE", b"WWWWWWMKVLHE", seed(0, 0, 6));
        assert_eq!(a.score, g.score);
        let ins = a.ops.iter().filter(|o| **o == AlignOp::Ins).count();
        let del = a.ops.iter().filter(|o| **o == AlignOp::Del).count();
        assert_eq!((ins, del), (0, 2), "ops = {:?}", a.ops);
    }

    #[test]
    fn ops_walk_exactly_the_reported_ranges() {
        let (_, a) = run(b"WWWWWWKKKKKKMMMM", b"AAWWWWWWKKKGKKKMMMMAA", seed(0, 2, 6));
        let q_consumed: usize = a
            .ops
            .iter()
            .filter(|o| matches!(o, AlignOp::Sub | AlignOp::Del))
            .count();
        let s_consumed: usize = a
            .ops
            .iter()
            .filter(|o| matches!(o, AlignOp::Sub | AlignOp::Ins))
            .count();
        assert_eq!(q_consumed as u32, a.q_end - a.q_start);
        assert_eq!(s_consumed as u32, a.s_end - a.s_start);
    }

    #[test]
    fn rescore_from_ops_matches_dp_score() {
        // Walk the ops and re-add scores; must equal the DP score.
        let q = b"MKVLWAARNDCQEGHMKVLW";
        let (pssm, query) = setup(q);
        let subject = encode_str(b"MKVLWAARGGNDCQEGHMKVLW");
        let p = SearchParams::default();
        let g = extend_gapped(&pssm, &subject, &seed(0, 0, 5), &p);
        let a = traceback(&pssm, &query, &subject, &g, &p);
        let mut qi = a.q_start as usize;
        let mut si = a.s_start as usize;
        let mut score = 0i32;
        let mut gap_run = 0;
        for op in &a.ops {
            match op {
                AlignOp::Sub => {
                    score += pssm.score(qi, subject[si]);
                    qi += 1;
                    si += 1;
                    gap_run = 0;
                }
                AlignOp::Ins => {
                    score -= if gap_run == 0 {
                        p.gap_open + p.gap_extend
                    } else {
                        p.gap_extend
                    };
                    si += 1;
                    gap_run += 1;
                }
                AlignOp::Del => {
                    score -= if gap_run == 0 {
                        p.gap_open + p.gap_extend
                    } else {
                        p.gap_extend
                    };
                    qi += 1;
                    gap_run += 1;
                }
            }
        }
        assert_eq!(score, a.score);
        assert_eq!(a.score, g.score);
    }

    #[test]
    fn anchor_at_sequence_edge() {
        let (g, a) = run(b"WWW", b"WWW", seed(0, 0, 3));
        assert_eq!(a.score, g.score);
        assert_eq!(a.ops.len(), 3);
    }

    #[test]
    fn ops_vector_has_exact_capacity() {
        // The returned op vector is the only allocation of the steady
        // state; it must be sized exactly, not grown by pushes.
        let q = b"WWWWWWKKKKKKMMMM";
        let (pssm, query) = setup(q);
        let subject = encode_str(b"AAWWWWWWKKKGKKKMMMMAA");
        let p = SearchParams::default();
        let g = extend_gapped(&pssm, &subject, &seed(0, 2, 6), &p);
        let a = traceback(&pssm, &query, &subject, &g, &p);
        assert_eq!(a.ops.capacity(), a.ops.len());
    }

    #[test]
    fn anchor_only_alignment_uses_empty_fast_path() {
        // Anchor at position 0/0: the left half has zero length on both
        // sequences and must come back through the no-DP fast path.
        let (g, a) = run(b"WKV", b"WKV", seed(0, 0, 1));
        assert_eq!(a.score, g.score);
        assert_eq!(a.q_start, 0);
        assert_eq!(a.ops[0], AlignOp::Sub);
    }

    /// One half's traceback through row `stop`: `(score, offsets, ops)`.
    fn walk(
        view: &HalfView<'_>,
        p: &SearchParams,
        stop: usize,
    ) -> (i32, (usize, usize), Vec<AlignOp>) {
        with_scratch(|scratch| {
            let out = trace_half(view, p, stop, scratch);
            (out.best, out.best_cell, scratch.ops.clone())
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Stopping at the score pass's best row loses nothing: rows past
        /// it are x-drop tail no backtrack visits. Subjects carry a noise
        /// tail after the homologous core (with the large x-drops, a long
        /// one below the best cell), and anchors sit at either edge of
        /// both sequences or inside the core.
        #[test]
        fn stopping_at_the_best_row_changes_nothing(
            core in proptest::collection::vec(0u8..20, 1..=150),
            q_tail in proptest::collection::vec(0u8..20, 0..=150),
            s_tail in proptest::collection::vec(0u8..20, 0..=500),
            mutation_stride in 3usize..40,
            anchor_sel in 0u8..4,
            anchor_frac in 0.0f64..1.0,
            xdrop_sel in 0u8..5,
            gap_open in 1i32..20,
            gap_extend in 1i32..6,
        ) {
            let q: Vec<Residue> = core.iter().chain(&q_tail).copied().collect();
            let s: Vec<Residue> = core
                .iter()
                .enumerate()
                .map(|(k, &r)| if k % mutation_stride == 1 { (r + 7) % 20 } else { r })
                .chain(s_tail.iter().copied())
                .collect();
            let (qs, ss) = match anchor_sel {
                0 => (0, 0),
                1 => (q.len() - 1, s.len() - 1),
                _ => {
                    let k = ((core.len() - 1) as f64 * anchor_frac) as usize;
                    (k, k)
                }
            };
            let p = SearchParams {
                gap_open,
                gap_extend,
                xdrop_gapped: [0, 15, 38, 400, 100_000][xdrop_sel as usize],
                ..SearchParams::default()
            };
            let pssm = Pssm::build(&Sequence::from_residues("q", q), &Matrix::blosum62());
            for forward in [true, false] {
                let view = HalfView::new(&pssm, &s, qs, ss, forward);
                let whole = walk(&view, &p, usize::MAX);
                let bounded = walk(&view, &p, whole.1 .0);
                proptest::prop_assert_eq!(
                    &bounded, &whole,
                    "forward={} anchor=({}, {}) params={:?}", forward, qs, ss, p
                );
            }
        }
    }
}
