//! SIMD ↔ scalar equivalence — the bit-identity contract of the CPU
//! alignment engine.
//!
//! The vectorized kernels in `blast_cpu::simd` (the AVX2 / SSE4.1 gapped
//! row pass) must change *nothing* but wall-clock: every score, band
//! endpoint, traceback operation and interval-traceback counter comes out
//! exactly as the scalar reference produces it, across random PSSMs,
//! extreme x-drop and gap parameters, and sequence lengths up to 3000.
//! Each case runs the same inputs at every forced ISA level
//! ([`with_forced`] serializes the process-global override) and asserts
//! full structural equality — on hosts without AVX2/SSE4.1 the forcing
//! clamps down and the comparison degenerates to scalar-vs-scalar, which
//! keeps the suite portable. Ungapped extension ships one scalar walk, so
//! its case compares that walk with a naive one written here.

use bio_seq::alphabet::{Residue, STANDARD_AA};
use bio_seq::Sequence;
use blast_core::{Matrix, Pssm, SearchParams, WORD_LEN};
use blast_cpu::gapped::{extend_gapped, GappedExt};
use blast_cpu::itrace::{default_interval, traceback_interval, ItraceReport, ItraceScratch};
use blast_cpu::simd::{with_forced, IsaLevel};
use blast_cpu::traceback::traceback;
use blast_cpu::ungapped::{extend, UngappedExt};
use blast_cpu::Alignment;
use proptest::prelude::*;

/// Strategy: a protein sequence of standard residues.
fn residues(min: usize, max: usize) -> impl Strategy<Value = Vec<Residue>> {
    prop::collection::vec(0u8..STANDARD_AA as u8, min..=max)
}

/// Gap/x-drop parameters from raw draws, including the extremes — a zero
/// x-drop (band collapses to the greedy ridge), a huge one (band never
/// prunes), free-ish gap extension, and steep opens. Costs stay below the
/// `NEG_INF = i32::MIN / 4` headroom by construction. (Mapping happens
/// here rather than in a `prop_map` strategy so the test runs on the
/// plain range/tuple strategy subset.)
fn gap_params(gap_open: i32, gap_extend: i32, xdrop_sel: u8, xdrop_raw: i32) -> SearchParams {
    let xdrop_gapped = match xdrop_sel {
        0 => 0,
        1 => 1,
        2 => 10_000,
        3 => 1_000_000,
        _ => xdrop_raw,
    };
    SearchParams {
        gap_open,
        gap_extend,
        xdrop_gapped,
        ..SearchParams::default()
    }
}

/// Run `f` once per ISA level (scalar, SSE4.1, native) and return the
/// outputs labelled for the assertion message.
fn at_levels<T>(f: impl Fn() -> T) -> [(&'static str, T); 3] {
    [
        ("scalar", with_forced(Some(IsaLevel::Scalar), &f)),
        ("sse41", with_forced(Some(IsaLevel::Sse41), &f)),
        ("native", with_forced(None, &f)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Gapped x-drop extension: identical scores and band endpoints
    /// (every field of [`GappedExt`]) at every ISA level.
    #[test]
    fn gapped_extension_is_isa_invariant(
        q in residues(1, 400),
        s in residues(1, 3000),
        qm_frac in 0.0f64..1.0,
        sm_frac in 0.0f64..1.0,
        gap_open in 1i32..32,
        gap_extend in 1i32..16,
        xdrop_sel in 0u8..8,
        xdrop_raw in 2i32..200,
    ) {
        let params = gap_params(gap_open, gap_extend, xdrop_sel, xdrop_raw);
        let query = Sequence::from_residues("q", q);
        let pssm = Pssm::build(&query, &Matrix::blosum62());
        let qm = ((query.len() - 1) as f64 * qm_frac) as u32;
        let sm = ((s.len() - 1) as f64 * sm_frac) as u32;
        let seed = UngappedExt { seq_id: 0, q_start: qm, s_start: sm, len: 1, score: 0 };
        let outs: [(&str, GappedExt); 3] =
            at_levels(|| extend_gapped(&pssm, &s, &seed, &params));
        let (_, reference) = &outs[0];
        for (name, got) in &outs[1..] {
            prop_assert_eq!(
                got, reference,
                "{} diverged from scalar (seed ({}, {}), params {:?})",
                name, qm, sm, params
            );
        }
    }

    /// Traceback through the ISA-dependent pipeline: the recovered
    /// alignment (score, endpoints, every operation) is identical.
    #[test]
    fn traceback_is_isa_invariant(
        q in residues(1, 200),
        s in residues(1, 1200),
        qm_frac in 0.0f64..1.0,
        sm_frac in 0.0f64..1.0,
        gap_open in 1i32..32,
        gap_extend in 1i32..16,
        xdrop_sel in 0u8..8,
        xdrop_raw in 2i32..200,
    ) {
        let params = gap_params(gap_open, gap_extend, xdrop_sel, xdrop_raw);
        let query = Sequence::from_residues("q", q.clone());
        let pssm = Pssm::build(&query, &Matrix::blosum62());
        let qm = ((query.len() - 1) as f64 * qm_frac) as u32;
        let sm = ((s.len() - 1) as f64 * sm_frac) as u32;
        let seed = UngappedExt { seq_id: 0, q_start: qm, s_start: sm, len: 1, score: 0 };
        let outs: [(&str, Alignment); 3] = at_levels(|| {
            let g = extend_gapped(&pssm, &s, &seed, &params);
            traceback(&pssm, &q, &s, &g, &params)
        });
        let (_, reference) = &outs[0];
        for (name, got) in &outs[1..] {
            prop_assert_eq!(
                got, reference,
                "{} alignment diverged from scalar (seed ({}, {}), params {:?})",
                name, qm, sm, params
            );
        }
    }

    /// Interval traceback (checkpointing forward pass + re-fill from a
    /// restored checkpoint, both on the ISA-dependent row engine): the
    /// alignment *and* every work / peak-memory counter the device model
    /// is billed from are identical at every level and interval.
    #[test]
    fn interval_traceback_is_isa_invariant(
        q in residues(1, 200),
        s in residues(1, 1200),
        qm_frac in 0.0f64..1.0,
        sm_frac in 0.0f64..1.0,
        gap_open in 1i32..32,
        gap_extend in 1i32..16,
        xdrop_sel in 0u8..8,
        xdrop_raw in 2i32..200,
    ) {
        let params = gap_params(gap_open, gap_extend, xdrop_sel, xdrop_raw);
        let query = Sequence::from_residues("q", q.clone());
        let pssm = Pssm::build(&query, &Matrix::blosum62());
        let qm = ((query.len() - 1) as f64 * qm_frac) as u32;
        let sm = ((s.len() - 1) as f64 * sm_frac) as u32;
        let seed = UngappedExt { seq_id: 0, q_start: qm, s_start: sm, len: 1, score: 0 };
        for interval in [1, 2, 7, default_interval(query.len()), 256] {
            let outs: [(&str, (Alignment, ItraceReport)); 3] = at_levels(|| {
                let g = extend_gapped(&pssm, &s, &seed, &params);
                let mut scratch = ItraceScratch::default();
                traceback_interval(&pssm, &q, &s, &g, &params, interval, &mut scratch)
            });
            let (_, reference) = &outs[0];
            for (name, got) in &outs[1..] {
                prop_assert_eq!(
                    got, reference,
                    "{} diverged from scalar at interval {} (seed ({}, {}), params {:?})",
                    name, interval, qm, sm, params
                );
            }
        }
    }

    /// Ungapped two-hit extension has no ISA levels to compare — one
    /// scalar walk ships (a vector body measured slower at every length,
    /// DESIGN.md §3.5) — so it is held to the definition instead: score
    /// the word, then walk right and left, keeping the first best prefix
    /// and stopping once the running score trails it by more than the
    /// x-drop.
    #[test]
    fn ungapped_extension_matches_naive_walk(
        q in residues(WORD_LEN, 800),
        s in residues(WORD_LEN, 3000),
        qp_frac in 0.0f64..1.0,
        sp_frac in 0.0f64..1.0,
        xdrop_sel in 0u8..6,
        xdrop_raw in 1i32..60,
    ) {
        let xdrop = match xdrop_sel {
            0 => 0,
            1 => 10_000,
            _ => xdrop_raw,
        };
        let query = Sequence::from_residues("q", q);
        let pssm = Pssm::build(&query, &Matrix::blosum62());
        let qp = ((query.len() - WORD_LEN) as f64 * qp_frac) as usize;
        let sp = ((s.len() - WORD_LEN) as f64 * sp_frac) as usize;

        // (best score, cells in the best prefix) of one direction.
        let walk = |start: i32, cells: &mut dyn Iterator<Item = (usize, usize)>| {
            let (mut best, mut best_n, mut running) = (start, 0, start);
            for (n, (qi, si)) in cells.enumerate() {
                running += pssm.score(qi, s[si]);
                if running > best {
                    (best, best_n) = (running, n + 1);
                } else if best - running > xdrop {
                    break;
                }
            }
            (best, best_n)
        };
        let word: i32 = (0..WORD_LEN).map(|k| pssm.score(qp + k, s[sp + k])).sum();
        let (best, right) = walk(word, &mut (qp + WORD_LEN..query.len()).zip(sp + WORD_LEN..s.len()));
        let (score, left) = walk(best, &mut (0..qp).rev().zip((0..sp).rev()));
        let want = UngappedExt {
            seq_id: 9,
            q_start: (qp - left) as u32,
            s_start: (sp - left) as u32,
            len: (left + WORD_LEN + right) as u32,
            score,
        };
        prop_assert_eq!(
            extend(&pssm, &s, 9, qp as u32, sp as u32, xdrop), want,
            "seed ({}, {}), xdrop {}", qp, sp, xdrop
        );
    }
}
