//! Runtime-dispatched SIMD kernels for the CPU alignment phases.
//!
//! The banded x-drop DP (gapped extension, traceback, interval
//! traceback) is the pipeline's CPU-resident stage (§3.6); this module
//! vectorizes its row pass without changing a single output bit. Ungapped
//! extension is deliberately not here: its walks are a handful of
//! residues long and stay scalar (`crate::ungapped`). The dispatch ladder
//! is AVX2 (8×i32 lanes) → SSE4.1 (4×i32) → scalar, selected once per
//! process from CPUID and clampable two ways:
//!
//! * `CUBLASTP_FORCE_SCALAR=1` in the environment pins the scalar path
//!   (the CI fallback job runs the whole suite this way);
//! * [`force_level`] clamps programmatically (equivalence tests and the
//!   `cpusimd` bench flip it to compare paths in-process).
//!
//! Bit-identity is achieved by replicating the scalar guard idiom
//! (`if x > NEG_INF { x - cost } else { NEG_INF }`) lane-wise with
//! compare + subtract + blend, and by keeping every order-dependent
//! decision (x-drop acceptance, running best, band endpoints, the serial
//! E state and the direction bits that depend on it) in a scalar
//! correction pass over the vector pass's output.
//! See DESIGN.md §3.5 for the lane layout and the garbage-lane
//! containment argument.

use crate::band::{FROM_F, F_OPEN, NEG_INF};
use bio_seq::alphabet::Residue;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// Extra lanes kept past the logical row width so the vector passes can
/// always run full-width chunks; sized for the widest path (AVX2).
pub(crate) const LANE_PAD: usize = 8;

/// One rung of the dispatch ladder. Order is meaningful: forcing a level
/// clamps with `min`, so a forced AVX2 on an SSE4.1 host still runs
/// SSE4.1, never an unsupported instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IsaLevel {
    /// Portable scalar path — the reference semantics.
    Scalar = 0,
    /// 4×i32 lanes via SSE4.1.
    Sse41 = 1,
    /// 8×i32 lanes via AVX2.
    Avx2 = 2,
}

impl IsaLevel {
    /// Display name, as surfaced in metrics and the CLI phase table.
    pub fn name(self) -> &'static str {
        match self {
            IsaLevel::Scalar => "scalar",
            IsaLevel::Sse41 => "sse4.1",
            IsaLevel::Avx2 => "avx2",
        }
    }

    /// i32 lanes processed per vector step (1 for scalar).
    pub fn lanes(self) -> usize {
        match self {
            IsaLevel::Scalar => 1,
            IsaLevel::Sse41 => 4,
            IsaLevel::Avx2 => 8,
        }
    }

    fn from_u8(v: u8) -> IsaLevel {
        match v {
            2 => IsaLevel::Avx2,
            1 => IsaLevel::Sse41,
            _ => IsaLevel::Scalar,
        }
    }
}

/// Sentinel for "not yet computed" in the two cached atomics below.
const UNSET: u8 = 0xFF;

static DETECTED: AtomicU8 = AtomicU8::new(UNSET);
static ENV_SCALAR: AtomicU8 = AtomicU8::new(UNSET);
static FORCED: AtomicU8 = AtomicU8::new(UNSET);

fn hardware_level() -> IsaLevel {
    #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
    {
        if is_x86_feature_detected!("avx2") {
            return IsaLevel::Avx2;
        }
        if is_x86_feature_detected!("sse4.1") {
            return IsaLevel::Sse41;
        }
    }
    IsaLevel::Scalar
}

/// Interpret a `CUBLASTP_FORCE_SCALAR` value: set and not explicitly
/// falsy means "force scalar".
pub(crate) fn parse_force_scalar(value: Option<&str>) -> bool {
    match value {
        None => false,
        Some(v) => !matches!(v.trim(), "" | "0" | "false" | "no" | "off"),
    }
}

fn env_forces_scalar() -> bool {
    match ENV_SCALAR.load(Ordering::Relaxed) {
        UNSET => {
            let v = std::env::var("CUBLASTP_FORCE_SCALAR").ok();
            let forced = parse_force_scalar(v.as_deref());
            ENV_SCALAR.store(forced as u8, Ordering::Relaxed);
            forced
        }
        v => v != 0,
    }
}

/// Best ISA level the host CPU supports (cached; ignores overrides).
pub fn detected_level() -> IsaLevel {
    match DETECTED.load(Ordering::Relaxed) {
        UNSET => {
            let l = hardware_level();
            DETECTED.store(l as u8, Ordering::Relaxed);
            l
        }
        v => IsaLevel::from_u8(v),
    }
}

/// Programmatic override: clamp the active level to `level` (`None`
/// removes the clamp). The clamp can only lower the level — requesting
/// AVX2 on a host without it still runs the best supported path.
pub fn force_level(level: Option<IsaLevel>) {
    FORCED.store(level.map_or(UNSET, |l| l as u8), Ordering::Relaxed);
}

/// The ISA level the alignment kernels will actually use right now:
/// hardware capability clamped by the env override and [`force_level`].
pub fn active_level() -> IsaLevel {
    let mut level = detected_level();
    if env_forces_scalar() {
        return IsaLevel::Scalar;
    }
    match FORCED.load(Ordering::Relaxed) {
        UNSET => {}
        v => level = level.min(IsaLevel::from_u8(v)),
    }
    level
}

/// Snapshot of the dispatch decision, for metrics and the CLI phase
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchReport {
    /// Best level the CPU supports.
    pub detected: IsaLevel,
    /// Level the kernels run at after overrides.
    pub active: IsaLevel,
    /// Whether `CUBLASTP_FORCE_SCALAR` pinned the scalar path.
    pub forced_scalar_env: bool,
}

/// Current dispatch decision.
pub fn dispatch_report() -> DispatchReport {
    DispatchReport {
        detected: detected_level(),
        active: active_level(),
        forced_scalar_env: env_forces_scalar(),
    }
}

/// Run `f` with the active level clamped to `level`, restoring the
/// un-forced state afterwards. Serialized by a global lock so concurrent
/// tests forcing different levels cannot interleave their overrides.
pub fn with_forced<R>(level: Option<IsaLevel>, f: impl FnOnce() -> R) -> R {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    force_level(level);
    let out = f();
    force_level(None);
    out
}

/// Widen one PSSM column (32 × i16, see `blast_core::Pssm::raw`) to the
/// i32 gather table the row pass indexes by residue.
pub(crate) fn widen_col(col: &[i16], out: &mut [i32; 32]) {
    for (o, &c) in out.iter_mut().zip(col.iter()) {
        *o = c as i32;
    }
}

// ---------------------------------------------------------------------------
// Gapped DP row pass
// ---------------------------------------------------------------------------

/// One banded DP row for the lane pass of the vector body in
/// [`crate::band`]: for every column `j` in `j0..=j1` (processed in whole
/// vector chunks, so writes run past `j1` into the padding) compute
///
/// * `f_row[j] = max(guard(d_prev[j]) - open, guard(f_prev[j]) - ext)`
/// * `d_row[j] = max(guard(d_prev[j-1]) + score(sub[j-1]), f_row[j])`
/// * with `DIRS`, `dirs[j-j0]` = `F_OPEN` if the first operand of F's max
///   is ≥ the second, `| FROM_F` if F beat M strictly — the two direction
///   bits that do not depend on the row's serial E state
///
/// where `guard(x)` maps dead cells (`x <= NEG_INF`) to `NEG_INF`,
/// exactly mirroring the scalar guard idiom. The serial E state, x-drop
/// acceptance and band bookkeeping stay in the caller's scalar
/// correction pass. Returns one past the last lane written, so the
/// caller can re-clear the overshoot.
pub(crate) struct GappedRow<'a> {
    /// Previous row's D values (read `j0-1 ..` through the padding).
    pub d_prev: &'a [i32],
    /// Previous row's F values.
    pub f_prev: &'a [i32],
    /// This row's D output (pre-correction: `max(M, F)`).
    pub d_row: &'a mut [i32],
    /// This row's F output.
    pub f_row: &'a mut [i32],
    /// Widened PSSM column for this row's query position.
    pub col: &'a [i32; 32],
    /// Subject residues in band coordinates: `sub[j-1]` pairs with
    /// column `j`.
    pub sub: &'a [Residue],
    /// Direction bytes of columns `j0..` (through the padding); unused
    /// without `DIRS`.
    pub dirs: &'a mut [u8],
    /// First column of the vector pass (≥ 1; column 0 has no diagonal
    /// and is handled by the correction pass).
    pub j0: usize,
    /// Last column that must be computed (inclusive).
    pub j1: usize,
    /// Cost of opening a length-1 gap (`gap_open + gap_extend`).
    pub open: i32,
    /// Gap extension cost.
    pub ext: i32,
}

impl GappedRow<'_> {
    /// Dispatch to the widest kernel `level` allows. Bounds are checked
    /// here once per row; the unsafe kernels rely on them.
    pub(crate) fn run<const DIRS: bool>(self, level: IsaLevel) -> usize {
        assert!(self.j0 >= 1 && self.j0 <= self.j1, "empty or invalid band");
        let need = self.j1 + LANE_PAD;
        assert!(
            self.d_prev.len() >= need
                && self.f_prev.len() >= need
                && self.d_row.len() >= need
                && self.f_row.len() >= need,
            "row buffers must cover the padded band"
        );
        assert!(
            self.sub.len() + 1 >= need,
            "subject view must cover the band"
        );
        assert!(
            !DIRS || self.dirs.len() + self.j0 >= need,
            "direction row must cover the padded band"
        );
        #[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
        {
            debug_assert!(level <= detected_level());
            match level {
                // SAFETY: the dispatcher clamps `level` to the detected
                // CPU capability, and the asserts above bound every
                // unaligned load/store to the padded buffers (with `DIRS`,
                // the direction row included). Gather
                // indices are masked to 0..32, inside `col`.
                IsaLevel::Avx2 => return unsafe { x86::gapped_row_avx2::<DIRS>(self) },
                IsaLevel::Sse41 => return unsafe { x86::gapped_row_sse41::<DIRS>(self) },
                IsaLevel::Scalar => {}
            }
        }
        let _ = level;
        self.run_generic::<DIRS>()
    }

    /// Portable implementation of the same pass (non-x86 fallback and
    /// the reference the kernel unit tests compare against). Chunks by
    /// [`LANE_PAD`] so the write extent matches the widest kernel.
    pub(crate) fn run_generic<const DIRS: bool>(self) -> usize {
        let guard = |x: i32, cost: i32| if x > NEG_INF { x - cost } else { NEG_INF };
        let mut j = self.j0;
        while j <= self.j1 {
            for lane in j..j + LANE_PAD {
                let f_open = guard(self.d_prev[lane], self.open);
                let f_ext = guard(self.f_prev[lane], self.ext);
                let f = f_open.max(f_ext);
                self.f_row[lane] = f;
                let dpl = self.d_prev[lane - 1];
                let m = if dpl > NEG_INF {
                    dpl + self.col[(self.sub[lane - 1] & 31) as usize]
                } else {
                    NEG_INF
                };
                self.d_row[lane] = m.max(f);
                if DIRS {
                    self.dirs[lane - self.j0] =
                        if f_open >= f_ext { F_OPEN } else { 0 } | if f > m { FROM_F } else { 0 };
                }
            }
            j += LANE_PAD;
        }
        j
    }
}

// ---------------------------------------------------------------------------
// x86 kernels
// ---------------------------------------------------------------------------

#[cfg(any(target_arch = "x86_64", target_arch = "x86"))]
mod x86 {
    use super::{GappedRow, FROM_F, F_OPEN, NEG_INF};
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// AVX2 gapped row pass: 8 columns per step.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and the buffer bounds checked
    /// in [`GappedRow::run`] hold.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gapped_row_avx2<const DIRS: bool>(row: GappedRow<'_>) -> usize {
        let neg = _mm256_set1_epi32(NEG_INF);
        let open = _mm256_set1_epi32(row.open);
        let ext = _mm256_set1_epi32(row.ext);
        let idx_mask = _mm256_set1_epi32(31);
        let f_open_bit = _mm256_set1_epi32(F_OPEN as i32);
        let from_f_bit = _mm256_set1_epi32(FROM_F as i32);
        let col = row.col.as_ptr();
        let mut j = row.j0;
        while j <= row.j1 {
            let dp = _mm256_loadu_si256(row.d_prev.as_ptr().add(j) as *const __m256i);
            let fp = _mm256_loadu_si256(row.f_prev.as_ptr().add(j) as *const __m256i);
            // guard(d_prev) - open / guard(f_prev) - ext, dead lanes stay NEG_INF.
            let f_open =
                _mm256_blendv_epi8(neg, _mm256_sub_epi32(dp, open), _mm256_cmpgt_epi32(dp, neg));
            let f_ext =
                _mm256_blendv_epi8(neg, _mm256_sub_epi32(fp, ext), _mm256_cmpgt_epi32(fp, neg));
            let f = _mm256_max_epi32(f_open, f_ext);
            _mm256_storeu_si256(row.f_row.as_mut_ptr().add(j) as *mut __m256i, f);

            // Diagonal: d_prev[j-1] + pssm[sub[j-1]].
            let dpl = _mm256_loadu_si256(row.d_prev.as_ptr().add(j - 1) as *const __m256i);
            let res = _mm_loadl_epi64(row.sub.as_ptr().add(j - 1) as *const __m128i);
            let idx = _mm256_and_si256(_mm256_cvtepu8_epi32(res), idx_mask);
            let sc = _mm256_i32gather_epi32::<4>(col, idx);
            let m =
                _mm256_blendv_epi8(neg, _mm256_add_epi32(dpl, sc), _mm256_cmpgt_epi32(dpl, neg));
            let d0 = _mm256_max_epi32(m, f);
            _mm256_storeu_si256(row.d_row.as_mut_ptr().add(j) as *mut __m256i, d0);
            if DIRS {
                // F_OPEN where !(f_ext > f_open), FROM_F where f > m; the
                // 8 small lane values narrow to 8 bytes in column order.
                let bits = _mm256_or_si256(
                    _mm256_andnot_si256(_mm256_cmpgt_epi32(f_ext, f_open), f_open_bit),
                    _mm256_and_si256(_mm256_cmpgt_epi32(f, m), from_f_bit),
                );
                let p16 = _mm_packs_epi32(
                    _mm256_castsi256_si128(bits),
                    _mm256_extracti128_si256::<1>(bits),
                );
                let p8 = _mm_packus_epi16(p16, p16);
                _mm_storel_epi64(row.dirs.as_mut_ptr().add(j - row.j0) as *mut __m128i, p8);
            }
            j += 8;
        }
        j
    }

    /// SSE4.1 gapped row pass: 4 columns per step, scalar score gather.
    ///
    /// # Safety
    /// Caller must ensure SSE4.1 is available and the buffer bounds
    /// checked in [`GappedRow::run`] hold.
    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn gapped_row_sse41<const DIRS: bool>(row: GappedRow<'_>) -> usize {
        let neg = _mm_set1_epi32(NEG_INF);
        let open = _mm_set1_epi32(row.open);
        let ext = _mm_set1_epi32(row.ext);
        let f_open_bit = _mm_set1_epi32(F_OPEN as i32);
        let from_f_bit = _mm_set1_epi32(FROM_F as i32);
        let mut j = row.j0;
        while j <= row.j1 {
            let dp = _mm_loadu_si128(row.d_prev.as_ptr().add(j) as *const __m128i);
            let fp = _mm_loadu_si128(row.f_prev.as_ptr().add(j) as *const __m128i);
            let f_open = _mm_blendv_epi8(neg, _mm_sub_epi32(dp, open), _mm_cmpgt_epi32(dp, neg));
            let f_ext = _mm_blendv_epi8(neg, _mm_sub_epi32(fp, ext), _mm_cmpgt_epi32(fp, neg));
            let f = _mm_max_epi32(f_open, f_ext);
            _mm_storeu_si128(row.f_row.as_mut_ptr().add(j) as *mut __m128i, f);

            let dpl = _mm_loadu_si128(row.d_prev.as_ptr().add(j - 1) as *const __m128i);
            let s = row.sub.as_ptr().add(j - 1);
            let sc = _mm_setr_epi32(
                row.col[(*s & 31) as usize],
                row.col[(*s.add(1) & 31) as usize],
                row.col[(*s.add(2) & 31) as usize],
                row.col[(*s.add(3) & 31) as usize],
            );
            let m = _mm_blendv_epi8(neg, _mm_add_epi32(dpl, sc), _mm_cmpgt_epi32(dpl, neg));
            let d0 = _mm_max_epi32(m, f);
            _mm_storeu_si128(row.d_row.as_mut_ptr().add(j) as *mut __m128i, d0);
            if DIRS {
                let bits = _mm_or_si128(
                    _mm_andnot_si128(_mm_cmpgt_epi32(f_ext, f_open), f_open_bit),
                    _mm_and_si128(_mm_cmpgt_epi32(f, m), from_f_bit),
                );
                let p16 = _mm_packs_epi32(bits, bits);
                let p8 = _mm_cvtsi128_si32(_mm_packus_epi16(p16, p16));
                (row.dirs.as_mut_ptr().add(j - row.j0) as *mut i32).write_unaligned(p8);
            }
            j += 4;
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG so kernel tests need no external RNG.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }
        fn score(&mut self) -> i32 {
            (self.next() % 25) as i32 - 12
        }
    }

    fn available_vector_levels() -> Vec<IsaLevel> {
        let mut out = Vec::new();
        if detected_level() >= IsaLevel::Sse41 {
            out.push(IsaLevel::Sse41);
        }
        if detected_level() >= IsaLevel::Avx2 {
            out.push(IsaLevel::Avx2);
        }
        out
    }

    #[test]
    fn level_order_and_lanes() {
        assert!(IsaLevel::Scalar < IsaLevel::Sse41);
        assert!(IsaLevel::Sse41 < IsaLevel::Avx2);
        assert_eq!(IsaLevel::Scalar.lanes(), 1);
        assert_eq!(IsaLevel::Sse41.lanes(), 4);
        assert_eq!(IsaLevel::Avx2.lanes(), 8);
        assert_eq!(IsaLevel::Avx2.name(), "avx2");
    }

    #[test]
    fn force_scalar_env_parsing() {
        assert!(!parse_force_scalar(None));
        assert!(!parse_force_scalar(Some("0")));
        assert!(!parse_force_scalar(Some("")));
        assert!(!parse_force_scalar(Some("false")));
        assert!(!parse_force_scalar(Some("off")));
        assert!(parse_force_scalar(Some("1")));
        assert!(parse_force_scalar(Some("true")));
        assert!(parse_force_scalar(Some("yes")));
    }

    #[test]
    fn forcing_clamps_but_never_raises() {
        with_forced(Some(IsaLevel::Scalar), || {
            assert_eq!(active_level(), IsaLevel::Scalar);
        });
        with_forced(Some(IsaLevel::Avx2), || {
            // Forcing above the hardware level clamps to the hardware.
            assert!(active_level() <= detected_level());
        });
        with_forced(None, || {
            // With no programmatic force the detected level wins, unless
            // the CUBLASTP_FORCE_SCALAR env override pins the scalar path
            // (the forced-scalar CI job runs this whole suite that way).
            if dispatch_report().forced_scalar_env {
                assert_eq!(active_level(), IsaLevel::Scalar);
            } else {
                assert_eq!(active_level(), detected_level());
            }
        });
    }

    #[test]
    fn gapped_row_kernels_match_generic() {
        let mut rng = Lcg(0xabcdef);
        for level in available_vector_levels() {
            for case in 0..200 {
                let width = 1 + (rng.next() % 40) as usize;
                let n = width + LANE_PAD;
                let fill = |rng: &mut Lcg| -> Vec<i32> {
                    (0..n)
                        .map(|_| {
                            if rng.next() % 3 == 0 {
                                NEG_INF
                            } else {
                                rng.score() * 3
                            }
                        })
                        .collect()
                };
                let d_prev = fill(&mut rng);
                let f_prev = fill(&mut rng);
                let sub: Vec<u8> = (0..n).map(|_| (rng.next() % 24) as u8).collect();
                let mut col = [0i32; 32];
                for c in col.iter_mut() {
                    *c = rng.score();
                }
                let j0 = 1 + (rng.next() as usize % width.max(1)).min(width - 1);
                let j1 = j0 + (rng.next() as usize % (width - j0 + 1)).min(width - j0);
                let (open, ext) = (12, 1);

                let run = |generic: bool| {
                    let mut d = vec![0i32; n + LANE_PAD];
                    let mut f = vec![0i32; n + LANE_PAD];
                    let mut dirs = vec![0u8; n + LANE_PAD];
                    let row = GappedRow {
                        d_prev: &d_prev,
                        f_prev: &f_prev,
                        d_row: &mut d,
                        f_row: &mut f,
                        col: &col,
                        sub: &sub,
                        dirs: &mut dirs,
                        j0,
                        j1,
                        open,
                        ext,
                    };
                    let wrote = if generic {
                        row.run_generic::<true>()
                    } else {
                        row.run::<true>(level)
                    };
                    assert!(wrote > j1);
                    // Only the contracted range [j0, j1] is compared; lanes
                    // past j1 are padding both variants may fill differently
                    // (different chunk widths) and the caller re-clears.
                    dirs.truncate(j1 - j0 + 1);
                    (d[j0..=j1].to_vec(), f[j0..=j1].to_vec(), dirs)
                };
                assert_eq!(run(false), run(true), "{level:?} case {case} (D, F, dirs)");
            }
        }
    }

    #[test]
    fn widen_col_preserves_values() {
        let col: Vec<i16> = (0..32).map(|i| (i as i16) - 16).collect();
        let mut out = [0i32; 32];
        widen_col(&col, &mut out);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as i32) - 16);
        }
    }
}
