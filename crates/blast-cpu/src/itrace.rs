//! Interval-checkpoint traceback: the constant-memory alignment recovery
//! the device gapped backend runs (DESIGN.md §3.7).
//!
//! [`crate::traceback`] records one direction byte per *band* cell over the
//! whole extent — O(rows × band) bytes, fine on a host but exactly the
//! per-cell buffer a GPU cannot afford per in-flight alignment. Following
//! IMPACT's interval scheme, this module splits the recovery into:
//!
//! 1. a **forward score pass** — the gapped DP itself, run with a sink
//!    that stores a *checkpoint* (the rolling D/F rows over the live band
//!    plus the band state) every `interval` rows — O(band × rows /
//!    interval) words; and
//! 2. a **multi-pass re-fill**: walking back from the best cell, each
//!    interval of rows is recomputed from its checkpoint with direction
//!    bytes recorded only for those rows — O(band × interval) bytes
//!    resident at any time — and the backtrack consumes them before the
//!    next interval down is re-filled.
//!
//! Both passes are the `band` module's row engine (started at row 0 with the
//! checkpoint sink, then resumed from a checkpoint with the direction
//! sink), so the recovered alignment is bit-identical to
//! [`crate::traceback::traceback`] — an invariant the equivalence
//! proptests pin down. Because the checkpointing pass *is* the score pass,
//! [`gapped_phase_subject_traced`] runs each extension's forward DP once
//! and traces the reportable ones back from the checkpoints it left. The
//! checkpoint and direction buffers are caller-provided
//! ([`ItraceScratch`]) so `cublastp`'s device workspace can pool them;
//! [`ItraceReport`] returns the work and peak-memory counters the
//! simulated kernel charges and asserts its memory bound against.

use crate::band::{self, Frontier, HalfView, Outcome, Sink};
use crate::gapped::{count_cells, gapped_phase_with, join_halves, GappedExt};
use crate::report::Alignment;
use crate::traceback::{assemble, backtrack, with_scratch, Dirs, TraceScratch};
use crate::ungapped::UngappedExt;
use bio_seq::alphabet::Residue;
use blast_core::{Pssm, SearchParams};

/// Caller-provided buffers: checkpoint words and the single resident
/// interval of direction bytes. `cublastp::gapped_device` checks these out
/// of the pooled kernel workspace; standalone callers can pass fresh vecs.
#[derive(Default)]
pub struct ItraceScratch {
    /// Checkpoint storage: per checkpoint a fixed header followed by the
    /// D then F row values over the live band (see `CKPT_HEADER`). Both
    /// halves of one extension are resident at once, the right half's
    /// checkpoints first.
    pub ckpt: Vec<i32>,
    /// Direction bytes of the one resident interval.
    pub dirs: Vec<u8>,
}

/// Work and memory counters of one interval traceback, accumulated over
/// both half-extensions. The simulated kernel derives its cost from these
/// and the memory-bound regression test asserts
/// `peak_dir_bytes <= band_max * interval`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ItraceReport {
    /// Checkpoint interval used (rows between checkpoints).
    pub interval: u64,
    /// DP cells computed by the forward (checkpointing) passes.
    pub forward_cells: u64,
    /// DP cells recomputed by interval re-fills.
    pub refill_cells: u64,
    /// Number of interval re-fills performed.
    pub refill_passes: u64,
    /// Peak checkpoint words (i32) resident at any time.
    pub checkpoint_words: u64,
    /// Peak direction bytes resident at any time (one interval).
    pub peak_dir_bytes: u64,
    /// Widest band row seen (cells).
    pub band_max: u64,
    /// DP rows processed by the forward passes (row 0 included).
    pub rows: u64,
}

impl ItraceReport {
    /// Merge another report into this one (peaks max, counters add; the
    /// interval must match).
    pub fn absorb(&mut self, other: &ItraceReport) {
        debug_assert!(self.interval == 0 || self.interval == other.interval);
        self.interval = self.interval.max(other.interval);
        self.forward_cells += other.forward_cells;
        self.refill_cells += other.refill_cells;
        self.refill_passes += other.refill_passes;
        self.checkpoint_words = self.checkpoint_words.max(other.checkpoint_words);
        self.peak_dir_bytes = self.peak_dir_bytes.max(other.peak_dir_bytes);
        self.band_max = self.band_max.max(other.band_max);
        self.rows += other.rows;
    }

    /// The declared memory budget the resident direction buffer must stay
    /// within: one interval of the widest band.
    pub fn dir_budget(&self) -> u64 {
        self.band_max * self.interval
    }
}

/// Checkpoint interval for an extension spanning `rows` query rows:
/// √rows balances checkpoint storage against re-fill work, clamped so
/// degenerate extents still checkpoint and huge ones stay bounded.
pub fn default_interval(rows: usize) -> usize {
    (rows as f64).sqrt().ceil().clamp(1.0, 256.0) as usize
}

/// Words of fixed header per checkpoint: `[row, jmin, jmax, prev, len,
/// best]` — the [`Frontier`], the stored band's length, and the offset of
/// the same half's previous checkpoint (the backtrack walks the chain
/// downwards, so no separate index exists).
const CKPT_HEADER: usize = 6;

/// The checkpointing sink: every `interval`-th completed row (row 0
/// included) is appended to `ckpt` over the band the next row reads.
struct Checkpoints<'a> {
    interval: usize,
    s_len: usize,
    ckpt: &'a mut Vec<i32>,
    /// Offset of the most recent checkpoint.
    last: usize,
}

impl Sink for Checkpoints<'_> {
    fn row_done(&mut self, at: &Frontier, d: &[i32], f: &[i32]) {
        if at.row % self.interval != 0 {
            return;
        }
        let band = at.read_band(self.s_len);
        let here = self.ckpt.len();
        self.ckpt.extend_from_slice(&[
            at.row as i32,
            at.jmin as i32,
            at.jmax as i32,
            self.last as i32,
            (band.end() - band.start() + 1) as i32,
            at.best,
        ]);
        self.ckpt.extend_from_slice(&d[band.clone()]);
        self.ckpt.extend_from_slice(&f[band]);
        self.last = here;
    }
}

/// One half's forward pass: its outcome and where its checkpoint chain
/// ends.
#[derive(Default)]
struct Forward {
    out: Outcome,
    last_ckpt: usize,
}

/// Forward (checkpointing) pass of one half, appending to `ckpt` and
/// accounting into `report`.
fn forward(
    view: &HalfView<'_>,
    params: &SearchParams,
    ckpt: &mut Vec<i32>,
    report: &mut ItraceReport,
) -> Forward {
    if view.is_empty() {
        return Forward::default();
    }
    let start = ckpt.len();
    let mut sink = Checkpoints {
        interval: report.interval as usize,
        s_len: view.s_len,
        ckpt,
        last: start,
    };
    let out = band::run(view, params, None, usize::MAX, &mut sink);
    let last_ckpt = sink.last;
    report.forward_cells += out.cells;
    report.rows += out.rows;
    report.band_max = report.band_max.max(out.band_max);
    report.checkpoint_words = report.checkpoint_words.max((ckpt.len() - start) as u64);
    Forward { out, last_ckpt }
}

/// Backward pass of one half: walk back from its best cell, re-filling one
/// interval of direction bytes at a time from the checkpoint chain ending
/// at `fwd.last_ckpt`. Appends the raw ops to `scratch.ops`.
fn backward(
    view: &HalfView<'_>,
    params: &SearchParams,
    fwd: &Forward,
    ckpt: &[i32],
    dir_bytes: &mut Vec<u8>,
    scratch: &mut TraceScratch,
    report: &mut ItraceReport,
) {
    let mut dirs = Dirs::new(&mut scratch.rows, dir_bytes);
    let mut at = fwd.last_ckpt;
    backtrack(fwd.out.best_cell, &mut scratch.ops, |i, j| {
        if !dirs.holds(i) {
            // Re-fill rows (checkpoint row, i] from the last checkpoint
            // strictly below `i`: a checkpoint row's own bytes belong to
            // the interval below it (they were written while that row was
            // computed). Row 0's checkpoint ends every chain.
            while ckpt[at] as usize >= i {
                at = ckpt[at + 3] as usize;
            }
            let from = Frontier {
                row: ckpt[at] as usize,
                jmin: ckpt[at + 1] as usize,
                jmax: ckpt[at + 2] as usize,
                best: ckpt[at + 5],
            };
            let values = &ckpt[at + CKPT_HEADER..][..2 * ckpt[at + 4] as usize];
            dirs.reset(from.row);
            let out = band::run(view, params, Some((from, values)), i, &mut dirs);
            debug_assert!(dirs.holds(i), "re-fill band died before the requested row");
            report.refill_passes += 1;
            report.refill_cells += out.cells;
            report.peak_dir_bytes = report.peak_dir_bytes.max(dirs.resident_bytes() as u64);
            debug_assert!(
                dirs.resident_bytes() as u64 <= report.dir_budget(),
                "resident direction bytes exceed the O(band x interval) budget"
            );
        }
        dirs.get(i, j)
    });
}

/// One extension's interval traceback: the forward pass of both halves
/// (checkpoints of both left resident in `buffers.ckpt`), then on demand
/// the backward pass.
struct Extension<'a> {
    pssm: &'a Pssm,
    subject: &'a [Residue],
    params: &'a SearchParams,
    halves: [HalfView<'a>; 2],
    fwd: [Forward; 2],
    report: ItraceReport,
}

impl<'a> Extension<'a> {
    /// Run the forward pass of the extension anchored at `(qs, ss)`,
    /// right half first.
    fn forward(
        pssm: &'a Pssm,
        subject: &'a [Residue],
        (qs, ss): (usize, usize),
        params: &'a SearchParams,
        interval: usize,
        buffers: &mut ItraceScratch,
    ) -> Self {
        let mut report = ItraceReport {
            interval: interval.max(1) as u64,
            ..ItraceReport::default()
        };
        buffers.ckpt.clear();
        let halves = [true, false].map(|fwd| HalfView::new(pssm, subject, qs, ss, fwd));
        let fwd = [0, 1].map(|h| forward(&halves[h], params, &mut buffers.ckpt, &mut report));
        Self {
            pssm,
            subject,
            params,
            halves,
            fwd,
            report,
        }
    }

    /// Walk both halves back and assemble `g`'s alignment.
    fn trace(
        mut self,
        query: &[Residue],
        g: &GappedExt,
        buffers: &mut ItraceScratch,
    ) -> (Alignment, ItraceReport) {
        with_scratch(|scratch| {
            let [right_ops, _] = [0, 1].map(|h| {
                backward(
                    &self.halves[h],
                    self.params,
                    &self.fwd[h],
                    &buffers.ckpt,
                    &mut buffers.dirs,
                    scratch,
                    &mut self.report,
                );
                scratch.ops.len()
            });
            let [right, left] = &self.fwd;
            let alignment = assemble(
                self.pssm,
                query,
                self.subject,
                g,
                &right.out,
                &left.out,
                &scratch.ops,
                right_ops,
            );
            (alignment, self.report)
        })
    }
}

/// Recover the full alignment for a gapped extension using interval
/// checkpointing — bit-identical to [`crate::traceback::traceback`] with
/// direction memory bounded by O(band × interval).
pub fn traceback_interval(
    pssm: &Pssm,
    query: &[Residue],
    subject: &[Residue],
    g: &GappedExt,
    params: &SearchParams,
    interval: usize,
    buffers: &mut ItraceScratch,
) -> (Alignment, ItraceReport) {
    let anchor = (g.q_seed as usize, g.s_seed as usize);
    Extension::forward(pssm, subject, anchor, params, interval, buffers).trace(query, g, buffers)
}

/// [`crate::gapped::gapped_phase_subject`] with the interval traceback
/// fused in: each extension's score pass *is* the checkpointing pass, and
/// every extension scoring at least `report_cutoff` is traced back from
/// the checkpoints it just left — one forward DP per extension instead of
/// two. Returns the extensions in gapped-phase order and, parallel to
/// them, the alignment and report of each reportable one (exactly what
/// [`traceback_interval`] returns for it; `None` below the cutoff).
#[allow(clippy::too_many_arguments)]
pub fn gapped_phase_subject_traced(
    pssm: &Pssm,
    query: &[Residue],
    subject: &[Residue],
    ungapped: &[UngappedExt],
    params: &SearchParams,
    trigger: i32,
    report_cutoff: i32,
    interval: usize,
    buffers: &mut ItraceScratch,
) -> (Vec<GappedExt>, Vec<Option<(Alignment, ItraceReport)>>) {
    let mut traced = Vec::new();
    let gapped = gapped_phase_with(ungapped, trigger, |seed| {
        let anchor = (seed.q_mid() as usize, seed.s_mid() as usize);
        let ext = Extension::forward(pssm, subject, anchor, params, interval, buffers);
        count_cells(ext.report.forward_cells);
        let [right, left] = &ext.fwd;
        let g = join_halves(pssm, subject, seed.seq_id, anchor, &right.out, &left.out);
        traced.push((g.score >= report_cutoff).then(|| ext.trace(query, &g, buffers)));
        g
    });
    (gapped, traced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gapped::extend_gapped;
    use crate::testutil::seed;
    use crate::traceback::traceback;
    use bio_seq::alphabet::encode_str;
    use bio_seq::Sequence;
    use blast_core::Matrix;

    fn compare(q: &[u8], s: &[u8], sd: crate::ungapped::UngappedExt, interval: usize) {
        let query = Sequence::from_bytes("q", q);
        let pssm = Pssm::build(&query, &Matrix::blosum62());
        let subject = encode_str(s);
        let p = SearchParams::default();
        let g = extend_gapped(&pssm, &subject, &sd, &p);
        let want = traceback(&pssm, query.residues(), &subject, &g, &p);
        let mut scratch = ItraceScratch::default();
        let (got, rep) = traceback_interval(
            &pssm,
            query.residues(),
            &subject,
            &g,
            &p,
            interval,
            &mut scratch,
        );
        assert_eq!(got, want, "interval={interval}");
        assert_eq!(got.score, g.score);
        assert!(rep.peak_dir_bytes <= rep.dir_budget().max(rep.band_max));
    }

    #[test]
    fn matches_full_traceback_on_identity() {
        let q = b"MKVLWAARNDCQEGHMKVLWAARNDCQEGH";
        for interval in [1, 2, 3, 7, 64] {
            compare(q, q, seed(4, 4, 6), interval);
        }
    }

    #[test]
    fn matches_full_traceback_across_gaps() {
        for interval in [1, 2, 3, 5, 8, 256] {
            compare(
                b"WWWWWWKKKKKKMMMMHHHHHH",
                b"AAWWWWWWKKKGGGKKKMMMMHHHHHHAA",
                seed(0, 2, 6),
                interval,
            );
            compare(
                b"WWWWWWAAHHKKMMKVLHE",
                b"WWWWWWHHKKMMKVLHE",
                seed(0, 0, 6),
                interval,
            );
        }
    }

    #[test]
    fn interval_one_degenerates_to_checkpoint_per_row() {
        // With interval 1 every row is a checkpoint and each re-fill
        // regenerates exactly one row: peak resident bytes = one band row.
        let q = b"MKVLWAARNDCQEGH";
        let query = Sequence::from_bytes("q", q);
        let pssm = Pssm::build(&query, &Matrix::blosum62());
        let subject = encode_str(q);
        let p = SearchParams::default();
        let g = extend_gapped(&pssm, &subject, &seed(4, 4, 6), &p);
        let mut scratch = ItraceScratch::default();
        let (_, rep) =
            traceback_interval(&pssm, query.residues(), &subject, &g, &p, 1, &mut scratch);
        assert!(rep.peak_dir_bytes <= rep.band_max);
        assert!(rep.refill_passes > 0);
    }

    #[test]
    fn default_interval_is_sane() {
        assert_eq!(default_interval(0), 1);
        assert_eq!(default_interval(1), 1);
        assert_eq!(default_interval(100), 10);
        assert_eq!(default_interval(1 << 20), 256);
    }
}
