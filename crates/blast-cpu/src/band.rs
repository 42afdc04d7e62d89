//! The banded x-drop row engine: the one implementation of the affine-gap
//! recurrence behind gapped extension, traceback and interval traceback.
//!
//! A half-extension grows from the anchor over rolling DP rows (`d` = best
//! of the three affine states, `f` = vertical gap state carried per
//! column, `e` = horizontal gap state carried along the row); a row keeps
//! only the cells within `xdrop_gapped` of the best score seen, so the
//! band follows the alignment. [`run`] is that loop, with three things
//! left to the caller:
//!
//! * **sink** (compile time, [`Sink`]) — what a row leaves behind: nothing
//!   (`()`, the score pass), the completed row for checkpointing
//!   ([`crate::itrace`]), or one direction byte per band cell
//!   ([`crate::traceback::Dirs`]);
//! * **start** — row 0, or a restored checkpoint ([`Frontier`] plus the
//!   rows' values over the band the next row reads);
//! * **stop** — the last row to compute (`usize::MAX` = until the band
//!   dies).
//!
//! There are exactly two bodies of the recurrence: `row_scalar`, the
//! guarded reference every result is defined by, and `row_vector`
//! ([`simd::GappedRow`] lanes plus a serial correction pass — DESIGN.md
//! §3.5). [`simd::active_level`] picks between them per run, for every
//! caller alike.

use crate::simd::{self, IsaLevel, LANE_PAD};
use bio_seq::alphabet::{Residue, PADDED_ALPHABET_SIZE};
use blast_core::{Pssm, SearchParams};
use std::cell::RefCell;

/// Sentinel for unreachable DP cells (low enough that arithmetic on it
/// cannot wrap).
pub(crate) const NEG_INF: i32 = i32::MIN / 4;

// Direction byte layout: bits 0–1 = source state of D (diagonal M,
// horizontal gap E, vertical gap F, or the start cell), bit 2 = E opened
// here (vs extended), bit 3 = F opened here.
pub(crate) const FROM_M: u8 = 0;
pub(crate) const FROM_E: u8 = 1;
pub(crate) const FROM_F: u8 = 2;
pub(crate) const START: u8 = 3;
pub(crate) const E_OPEN: u8 = 1 << 2;
pub(crate) const F_OPEN: u8 = 1 << 3;

/// Largest cell count a thread-local row buffer keeps after a call; a
/// pathological subject can grow the band arbitrarily, but the scratch
/// shrinks back the next time a normal-sized extension runs.
pub(crate) const MAX_RETAIN: usize = 64 * 1024;

/// One direction of a gapped half-extension, in half-extension
/// coordinates: offset `qi` is the `qi+1`-th query residue consumed
/// walking away from the anchor, likewise `sj` for the subject.
pub(crate) struct HalfView<'a> {
    pssm: &'a Pssm,
    subject: &'a [Residue],
    q_anchor: usize,
    s_anchor: usize,
    forward: bool,
    /// Residues available in the query direction.
    pub q_len: usize,
    /// Residues available in the subject direction.
    pub s_len: usize,
}

impl<'a> HalfView<'a> {
    /// The right (`forward`) half over `q[qs+1..]`, `s[ss+1..]`, or the
    /// left half over the reversed prefixes `q[..qs]`, `s[..ss]`.
    pub(crate) fn new(
        pssm: &'a Pssm,
        subject: &'a [Residue],
        qs: usize,
        ss: usize,
        forward: bool,
    ) -> Self {
        let (q_len, s_len) = if forward {
            (pssm.query_len() - qs - 1, subject.len() - ss - 1)
        } else {
            (qs, ss)
        };
        Self {
            pssm,
            subject,
            q_anchor: qs,
            s_anchor: ss,
            forward,
            q_len,
            s_len,
        }
    }

    /// An x-drop half-extension never ends in a dangling gap (gaps only
    /// lose score), so with no room in one dimension the empty alignment
    /// is the answer and no DP runs.
    pub(crate) fn is_empty(&self) -> bool {
        self.q_len == 0 || self.s_len == 0
    }

    fn s_res(&self, sj: usize) -> Residue {
        if self.forward {
            self.subject[self.s_anchor + 1 + sj]
        } else {
            self.subject[self.s_anchor - 1 - sj]
        }
    }

    /// PSSM column for query offset `qi` (32 i16 scores indexed by
    /// residue).
    fn col(&self, qi: usize) -> &[i16] {
        let q_pos = if self.forward {
            self.q_anchor + 1 + qi
        } else {
            self.q_anchor - 1 - qi
        };
        let p = q_pos * PADDED_ALPHABET_SIZE;
        &self.pssm.raw()[p..p + PADDED_ALPHABET_SIZE]
    }
}

/// The band state between two rows: everything besides the rows' values
/// that the next row depends on — which is also exactly a checkpoint's
/// header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Frontier {
    /// The completed row.
    pub row: usize,
    /// First accepted column of `row`.
    pub jmin: usize,
    /// Last accepted column of `row`.
    pub jmax: usize,
    /// Best score over rows `0..=row` (the x-drop reference).
    pub best: i32,
}

impl Frontier {
    /// Columns of `row` the next row reads: the accepted band plus the
    /// one-cell margin on each side.
    pub(crate) fn read_band(&self, s_len: usize) -> std::ops::RangeInclusive<usize> {
        self.jmin.saturating_sub(1)..=(self.jmax + 1).min(s_len)
    }
}

/// What a run leaves behind per row, chosen at compile time.
pub(crate) trait Sink {
    /// Whether [`run`] records one direction byte per band cell.
    const DIRS: bool = false;

    /// Storage for row `i`'s direction bytes over columns
    /// `[jlo, jlo + len)`, followed by [`LANE_PAD`] bytes the vector body
    /// may overshoot into. Only called when [`Self::DIRS`].
    fn dir_row(&mut self, _i: usize, _jlo: usize, _len: usize) -> &mut [u8] {
        &mut []
    }

    /// Row `at.row` is complete (row 0 included): `d` / `f` hold its
    /// values, valid over [`Frontier::read_band`].
    fn row_done(&mut self, _at: &Frontier, _d: &[i32], _f: &[i32]) {}
}

/// The score-only pass keeps nothing.
impl Sink for () {}

/// Result of one [`run`]. The work counters cover the rows this run
/// computed (row 0 included when it started there).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Outcome {
    /// Best score seen (0 for an empty extension).
    pub best: i32,
    /// `(row, column)` of the first cell attaining `best` among the rows
    /// this run computed; `(0, 0)` when none improved on the start.
    pub best_cell: (usize, usize),
    /// DP cells computed.
    pub cells: u64,
    /// DP rows computed.
    pub rows: u64,
    /// Widest band row computed (cells).
    pub band_max: u64,
}

impl Outcome {
    fn count_row(&mut self, len: usize) {
        self.cells += len as u64;
        self.rows += 1;
        self.band_max = self.band_max.max(len as u64);
    }
}

/// Thread-local rolling rows: gapped extension runs thousands of times per
/// search and on several CPU threads at once (§3.6), so per-call
/// allocation would serialize on the allocator.
struct Rows {
    rows: [Vec<i32>; 4],
    /// Subject residues in band coordinates for the vector body's gather.
    sub: Vec<Residue>,
}

impl Rows {
    /// Borrow the row buffers grown to `width` plus lane padding. Rows are
    /// *not* cleared: [`run`] maintains a cleared-or-written invariant per
    /// row, which keeps the cost proportional to the band rather than the
    /// subject length.
    fn prepare(&mut self, width: usize) -> ([&mut Vec<i32>; 4], &mut Vec<Residue>) {
        let need = width + LANE_PAD;
        for row in &mut self.rows {
            if row.len() < need {
                row.resize(need, NEG_INF);
            } else if need <= MAX_RETAIN && row.len() > MAX_RETAIN {
                row.truncate(MAX_RETAIN);
                row.shrink_to(MAX_RETAIN);
            }
        }
        if need <= MAX_RETAIN && self.sub.len() > MAX_RETAIN {
            self.sub.truncate(MAX_RETAIN);
            self.sub.shrink_to(MAX_RETAIN);
        }
        let [a, b, c, d] = &mut self.rows;
        ([a, b, c, d], &mut self.sub)
    }
}

thread_local! {
    static ROWS: RefCell<Rows> = const {
        RefCell::new(Rows {
            rows: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            sub: Vec::new(),
        })
    };
}

/// Gap costs and the x-drop of one run.
#[derive(Clone, Copy)]
struct Costs {
    /// Cost of a length-1 gap (`gap_open + gap_extend`).
    open: i32,
    ext: i32,
    xdrop: i32,
}

/// The order-dependent part of a row, shared by both bodies: x-drop
/// acceptance against the running best, first-best-cell tracking, and the
/// accepted band's endpoints.
struct Accept {
    best: i32,
    best_cell: (usize, usize),
    xdrop: i32,
    lo: usize,
    hi: usize,
}

impl Accept {
    /// The value cell `(i, j)` keeps: `d` if it is live and within the
    /// x-drop of the best seen so far, else `NEG_INF` — a rejected cell
    /// reads as unreachable from then on. Written as selects, not an
    /// early-out: at band edges the outcome is a coin flip per cell.
    #[inline(always)]
    fn cell(&mut self, i: usize, j: usize, d: i32) -> i32 {
        let keep = (d > NEG_INF) & (self.best - d <= self.xdrop);
        if keep & (d > self.best) {
            self.best = d;
            self.best_cell = (i, j);
        }
        self.lo = if keep { self.lo.min(j) } else { self.lo };
        self.hi = if keep { j } else { self.hi };
        if keep {
            d
        } else {
            NEG_INF
        }
    }
}

/// The four rolling rows of one DP row step.
struct RowBufs<'a> {
    d_prev: &'a [i32],
    f_prev: &'a [i32],
    d_row: &'a mut [i32],
    f_row: &'a mut [i32],
}

#[inline(always)]
fn guard(x: i32, cost: i32) -> i32 {
    if x > NEG_INF {
        x - cost
    } else {
        NEG_INF
    }
}

/// The scalar reference body: columns `jlo..=jhi` of row `i`, direction
/// bytes (when the sink wants them) into `dirs[j - jlo]`. Returns one past
/// the last column written.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_scalar<S: Sink>(
    view: &HalfView<'_>,
    c: Costs,
    b: &mut RowBufs<'_>,
    i: usize,
    jlo: usize,
    jhi: usize,
    dirs: &mut [u8],
    acc: &mut Accept,
) -> usize {
    let col = view.col(i - 1);
    let mut e = NEG_INF; // horizontal gap state within this row
    let mut e_opened = false;
    for j in jlo..=jhi {
        // Vertical gap: open from the cell above or extend its F.
        let f_open = guard(b.d_prev[j], c.open);
        let f_ext = guard(b.f_prev[j], c.ext);
        let f = f_open.max(f_ext);
        b.f_row[j] = f;
        // Column 0 has no cell to its left and no diagonal.
        let mut m = NEG_INF;
        if j > 0 {
            // Horizontal gap: open from the cell to the left or extend.
            let e_open = guard(b.d_row[j - 1], c.open);
            let e_ext = guard(e, c.ext);
            e_opened = e_open >= e_ext;
            e = e_open.max(e_ext);
            if b.d_prev[j - 1] > NEG_INF {
                m = b.d_prev[j - 1] + col[view.s_res(j - 1) as usize] as i32;
            }
        }
        if S::DIRS {
            // Prefer the diagonal on ties so alignments favour
            // substitutions over gaps — the convention BLAST output uses.
            let from = if m >= e && m >= f {
                FROM_M
            } else if e >= f {
                FROM_E
            } else {
                FROM_F
            };
            dirs[j - jlo] =
                from | if e_opened { E_OPEN } else { 0 } | if f_open >= f_ext { F_OPEN } else { 0 };
        }
        b.d_row[j] = acc.cell(i, j, m.max(e).max(f));
    }
    jhi + 1
}

/// Lazily extended gather state of the vector body.
struct Gather<'a> {
    /// Subject residues in band coordinates (`sub[j-1]` pairs with column
    /// `j`); the pad past `s_len` holds residue 0 and only ever feeds
    /// discarded lanes.
    sub: &'a mut Vec<Residue>,
    /// `sub[..filled]` is current, except below the run's first band.
    filled: usize,
    col32: [i32; 32],
}

/// The vector body: the order-free F and M states (and their two
/// direction bits) of columns `max(jmin, 1)..=row_hi` in whole-lane
/// chunks, then a scalar correction pass that threads the serial E state
/// through the row, resolves the remaining direction bits and applies the
/// same acceptance as the scalar body. Kept values, band and best cell are
/// bit-identical by construction, direction bytes wherever a backtrack can
/// read them (`from` on every kept cell, E_OPEN wherever a kept path walks
/// E); the equivalence proptests in `tests/` pin that down.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_vector<S: Sink>(
    level: IsaLevel,
    view: &HalfView<'_>,
    c: Costs,
    b: &mut RowBufs<'_>,
    g: &mut Gather<'_>,
    i: usize,
    jmin: usize,
    row_hi: usize,
    dirs: &mut [u8],
    acc: &mut Accept,
) -> usize {
    let need_sub = row_hi + LANE_PAD - 1;
    if need_sub > g.filled {
        if g.sub.len() < need_sub {
            g.sub.resize(need_sub, 0);
        }
        for (k, slot) in g.sub.iter_mut().enumerate().take(need_sub).skip(g.filled) {
            *slot = if k < view.s_len { view.s_res(k) } else { 0 };
        }
        g.filled = need_sub;
    }
    simd::widen_col(view.col(i - 1), &mut g.col32);

    // Column 0 goes through the reference body, so the lanes always start
    // at j ≥ 1 where both neighbours exist.
    if jmin == 0 {
        row_scalar::<S>(view, c, b, i, 0, 0, dirs, acc);
    }
    let j0 = jmin.max(1);
    if j0 > row_hi {
        return j0;
    }
    let lanes = simd::GappedRow {
        d_prev: b.d_prev,
        f_prev: b.f_prev,
        d_row: b.d_row,
        f_row: b.f_row,
        col: &g.col32,
        sub: g.sub,
        dirs: if S::DIRS {
            &mut dirs[j0 - jmin..]
        } else {
            dirs
        },
        j0,
        j1: row_hi,
        open: c.open,
        ext: c.ext,
    };
    let wrote_hi = if S::DIRS {
        lanes.run::<true>(level)
    } else {
        lanes.run::<false>(level)
    };

    // Correction pass: thread the serial E state through the lanes'
    // D0 = max(M, F) and apply the scalar body's acceptance. Two liberties
    // keep the loop-carried chain at subtract-max-max, and neither changes
    // a kept value, an accept decision, or a direction bit the backtrack
    // can read:
    //
    // * E runs unguarded. Subtracting from a NEG_INF operand only sinks it
    //   further below NEG_INF (never past NEG_INF - open, far from wrapping
    //   thanks to the i32::MIN / 4 headroom), where it loses every max
    //   against the exact D0 ≥ NEG_INF.
    // * E opens from the cell's value *before* acceptance (`left`), not
    //   from the kept one. A rejected cell's value is dead or below
    //   `best - xdrop`, whatever E carries on from it is lower still, and
    //   `best` only grows along the row — so such a value can be a cell's
    //   maximum only where the cell is rejected either way, and a kept
    //   cell never has it as its E source or in a tie.
    let mut e = NEG_INF;
    let mut left = b.d_row[j0 - 1];
    for (k, cell) in b.d_row[j0..=row_hi].iter_mut().enumerate() {
        let e_open = left - c.open;
        let e_ext = e - c.ext;
        e = e_open.max(e_ext);
        let d0 = *cell;
        if S::DIRS {
            // The lanes left F_OPEN and whether F beat M. E takes the
            // cell from M only when strictly better, from F also on a tie.
            let lane = &mut dirs[j0 - jmin + k];
            let f_won = *lane & FROM_F;
            let from = if e + i32::from(f_won >> 1) > d0 {
                FROM_E
            } else {
                f_won
            };
            *lane = (*lane & F_OPEN) | from | if e_open >= e_ext { E_OPEN } else { 0 };
        }
        left = d0.max(e);
        *cell = acc.cell(i, j0 + k, left);
    }
    wrote_hi
}

/// Fill row 0 (a leading gap in the query dimension) and return the last
/// column kept by the x-drop test. `best` is 0 throughout row 0 because
/// every cell is a pure gap penalty.
fn init_row0(d_prev: &mut [i32], width: usize, c: Costs) -> usize {
    d_prev[0] = 0;
    let mut jmax = 0usize;
    for (j, cell) in d_prev.iter_mut().enumerate().take(width).skip(1) {
        let s = -(c.open + (j as i32 - 1) * c.ext);
        if -s > c.xdrop {
            break;
        }
        *cell = s;
        jmax = j;
    }
    jmax
}

/// Run the banded x-drop DP of one non-empty half-extension from row 0 —
/// or, with `resume`, from a checkpoint's [`Frontier`] and its D-then-F
/// values over [`Frontier::read_band`] — through row `stop` or until the
/// band dies, whichever comes first.
pub(crate) fn run<S: Sink>(
    view: &HalfView<'_>,
    params: &SearchParams,
    resume: Option<(Frontier, &[i32])>,
    stop: usize,
    sink: &mut S,
) -> Outcome {
    debug_assert!(!view.is_empty());
    let c = Costs {
        open: params.gap_open + params.gap_extend,
        ext: params.gap_extend,
        xdrop: params.xdrop_gapped,
    };
    let level = simd::active_level();
    let s_len = view.s_len;
    ROWS.with(|cell| {
        let rows = &mut *cell.borrow_mut();
        let ([d_prev, f_prev, d_row, f_row], sub) = rows.prepare(s_len + 1);
        let mut out = Outcome::default();
        let mut at = match resume {
            None => {
                let jmax = init_row0(d_prev, s_len + 1, c);
                // The buffers are not pre-cleared, so make exactly the
                // cells row 1 reads beyond row 0's writes look unreachable.
                d_prev[jmax + 1] = NEG_INF;
                f_prev[..=(jmax + 1).min(s_len)].fill(NEG_INF);
                out.count_row(jmax + 1);
                let at = Frontier {
                    row: 0,
                    jmin: 0,
                    jmax,
                    best: 0,
                };
                sink.row_done(&at, d_prev, f_prev);
                at
            }
            Some((at, values)) => {
                // The stored band is every cell the next row reads, so
                // nothing around it needs clearing.
                let band = at.read_band(s_len);
                let (d, f) = values.split_at(values.len() / 2);
                d_prev[band.clone()].copy_from_slice(d);
                f_prev[band].copy_from_slice(f);
                at
            }
        };
        let mut gather = Gather {
            sub,
            filled: at.jmin.saturating_sub(1),
            col32: [0; 32],
        };
        let mut acc = Accept {
            best: at.best,
            best_cell: (0, 0),
            xdrop: c.xdrop,
            lo: 0,
            hi: 0,
        };

        for i in at.row + 1..=view.q_len.min(stop) {
            let row_hi = (at.jmax + 1).min(s_len);
            if at.jmin > row_hi {
                break;
            }
            let len = row_hi - at.jmin + 1;
            out.count_row(len);
            let dirs = if S::DIRS {
                sink.dir_row(i, at.jmin, len)
            } else {
                &mut []
            };
            (acc.lo, acc.hi) = (usize::MAX, 0);
            let mut b = RowBufs {
                d_prev: &d_prev[..],
                f_prev: &f_prev[..],
                d_row: &mut d_row[..],
                f_row: &mut f_row[..],
            };
            // Cleared-or-written: the cell left of the band (this row's E
            // and the next row's diagonal read it) and, below, everything
            // right of it the body wrote or the next row can reach.
            let left = at.jmin.saturating_sub(1);
            b.d_row[left] = NEG_INF;
            b.f_row[left] = NEG_INF;
            let wrote_hi = if level == IsaLevel::Scalar {
                row_scalar::<S>(view, c, &mut b, i, at.jmin, row_hi, dirs, &mut acc)
            } else {
                row_vector::<S>(
                    level,
                    view,
                    c,
                    &mut b,
                    &mut gather,
                    i,
                    at.jmin,
                    row_hi,
                    dirs,
                    &mut acc,
                )
            };
            for jj in row_hi + 1..wrote_hi.max(row_hi + 2) {
                d_row[jj] = NEG_INF;
                f_row[jj] = NEG_INF;
            }
            if acc.lo == usize::MAX {
                break; // every cell dropped: the extension is finished
            }
            at = Frontier {
                row: i,
                jmin: acc.lo,
                jmax: acc.hi,
                best: acc.best,
            };
            std::mem::swap(d_prev, d_row);
            std::mem::swap(f_prev, f_row);
            sink.row_done(&at, d_prev, f_prev);
        }
        out.best = acc.best;
        out.best_cell = acc.best_cell;
        out
    })
}

/// Largest length or capacity among this thread's rolling rows.
#[cfg(test)]
pub(crate) fn retained_row_cells() -> usize {
    ROWS.with(|cell| {
        let rows = &cell.borrow().rows;
        rows.iter()
            .map(|r| r.len().max(r.capacity()))
            .max()
            .unwrap_or(0)
    })
}
