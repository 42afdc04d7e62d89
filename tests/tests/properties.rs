//! Property-based tests (proptest) over the core data structures and the
//! invariants the pipelines rely on.

use bio_seq::alphabet::{self, Residue, ALPHABET_SIZE, STANDARD_AA};
use bio_seq::Sequence;
use blast_core::{Matrix, Pssm, SearchParams, WORD_LEN};
use blast_cpu::gapped::extend_gapped;
use blast_cpu::hit::DiagonalState;
use blast_cpu::traceback::traceback;
use blast_cpu::ungapped::{extend, rescore, UngappedExt};
use cublastp::hitpack;
use proptest::prelude::*;

/// Strategy: a protein sequence of standard residues.
fn residues(min: usize, max: usize) -> impl Strategy<Value = Vec<Residue>> {
    prop::collection::vec(0u8..STANDARD_AA as u8, min..=max)
}

proptest! {
    #[test]
    fn alphabet_encode_decode_roundtrip(r in 0u8..ALPHABET_SIZE as u8) {
        prop_assert_eq!(alphabet::encode(alphabet::decode(r)), r);
    }

    #[test]
    fn fasta_roundtrip(seqs in prop::collection::vec(residues(0, 200), 1..6), width in 0usize..90) {
        let originals: Vec<Sequence> = seqs
            .into_iter()
            .enumerate()
            .map(|(i, r)| Sequence::from_residues(format!("s{i}"), r))
            .collect();
        let text = bio_seq::fasta::to_fasta(&originals, width);
        let parsed = bio_seq::fasta::parse_fasta(&text);
        prop_assert_eq!(parsed.len(), originals.len());
        for (p, o) in parsed.iter().zip(&originals) {
            prop_assert_eq!(&p.residues, &o.residues);
            prop_assert_eq!(&p.id, &o.id);
        }
    }

    #[test]
    fn hitpack_roundtrip(seq in 0u32..1_000_000, diag in 0u32..65_536, pos in 0u32..65_536) {
        let e = hitpack::pack(seq, diag, pos);
        prop_assert_eq!(hitpack::unpack(e), (seq, diag, pos));
    }

    #[test]
    fn hitpack_order_is_lexicographic(
        a in (0u32..100, 0u32..2_000, 0u32..2_000),
        b in (0u32..100, 0u32..2_000, 0u32..2_000),
    ) {
        let ea = hitpack::pack(a.0, a.1, a.2);
        let eb = hitpack::pack(b.0, b.1, b.2);
        prop_assert_eq!(ea.cmp(&eb), a.cmp(&b));
    }

    #[test]
    fn ungapped_extension_invariants(
        q in residues(WORD_LEN, 120),
        s in residues(WORD_LEN, 200),
        qp_frac in 0.0f64..1.0,
        sp_frac in 0.0f64..1.0,
        xdrop in 1i32..40,
    ) {
        let query = Sequence::from_residues("q", q);
        let pssm = Pssm::build(&query, &Matrix::blosum62());
        let qp = ((query.len() - WORD_LEN) as f64 * qp_frac) as u32;
        let sp = ((s.len() - WORD_LEN) as f64 * sp_frac) as u32;
        let ext = extend(&pssm, &s, 3, qp, sp, xdrop);
        // Score is exactly the sum of the segment's PSSM scores.
        prop_assert_eq!(ext.score, rescore(&pssm, &s, &ext));
        // The segment contains the seed word.
        prop_assert!(ext.q_start <= qp && ext.q_end() >= qp + WORD_LEN as u32);
        prop_assert!(ext.s_start <= sp && ext.s_end() >= sp + WORD_LEN as u32);
        // The segment stays in bounds and on the seed's diagonal.
        prop_assert!(ext.q_end() as usize <= query.len());
        prop_assert!(ext.s_end() as usize <= s.len());
        prop_assert_eq!(
            ext.s_start as i64 - ext.q_start as i64,
            sp as i64 - qp as i64
        );
        prop_assert_eq!(ext.seq_id, 3);
    }

    #[test]
    fn gapped_extension_dominates_its_anchor(
        q in residues(8, 80),
        s in residues(8, 120),
        qm_frac in 0.0f64..1.0,
        sm_frac in 0.0f64..1.0,
    ) {
        let query = Sequence::from_residues("q", q);
        let pssm = Pssm::build(&query, &Matrix::blosum62());
        let params = SearchParams::default();
        let qm = ((query.len() - 1) as f64 * qm_frac) as u32;
        let sm = ((s.len() - 1) as f64 * sm_frac) as u32;
        let seed = UngappedExt { seq_id: 0, q_start: qm, s_start: sm, len: 1, score: 0 };
        let g = extend_gapped(&pssm, &s, &seed, &params);
        // At worst the alignment is the anchor pair alone.
        prop_assert!(g.score >= pssm.score(qm as usize, s[sm as usize]));
        // The box is well-formed and contains the anchor.
        prop_assert!(g.q_start <= qm && qm < g.q_end);
        prop_assert!(g.s_start <= sm && sm < g.s_end);
        prop_assert!(g.q_end as usize <= query.len());
        prop_assert!(g.s_end as usize <= s.len());
    }

    #[test]
    fn traceback_score_matches_gapped_score(
        q in residues(8, 60),
        s in residues(8, 90),
    ) {
        let query = Sequence::from_residues("q", q.clone());
        let pssm = Pssm::build(&query, &Matrix::blosum62());
        let params = SearchParams::default();
        let seed = UngappedExt {
            seq_id: 0,
            q_start: (q.len() / 2) as u32,
            s_start: (s.len() / 2) as u32,
            len: 1,
            score: 0,
        };
        let g = extend_gapped(&pssm, &s, &seed, &params);
        let a = traceback(&pssm, &q, &s, &g, &params);
        prop_assert_eq!(a.score, g.score);
        // Ops walk exactly the reported ranges.
        let qc = a.ops.iter().filter(|o| !matches!(o, blast_cpu::report::AlignOp::Ins)).count();
        let sc = a.ops.iter().filter(|o| !matches!(o, blast_cpu::report::AlignOp::Del)).count();
        prop_assert_eq!(qc as u32, a.q_end - a.q_start);
        prop_assert_eq!(sc as u32, a.s_end - a.s_start);
        prop_assert!(a.identities as usize <= a.ops.len());
    }

    #[test]
    fn two_hit_rule_is_shift_invariant(
        gaps in prop::collection::vec(1u32..120, 1..20),
        shift in 0u32..500,
        window in 1i64..80,
    ) {
        // Applying the same hit pattern at a different subject offset must
        // produce the same trigger pattern.
        let positions: Vec<u32> = gaps
            .iter()
            .scan(0u32, |acc, g| {
                *acc += g;
                Some(*acc)
            })
            .collect();
        let run = |offset: u32| -> Vec<bool> {
            let mut st = DiagonalState::default();
            positions.iter().map(|&p| st.observe(p + offset, window)).collect()
        };
        prop_assert_eq!(run(0), run(shift));
    }

    #[test]
    fn karlin_altschul_evalue_monotonicity(
        s1 in 1i32..500,
        delta in 1i32..100,
        space in 1.0e3f64..1.0e12,
    ) {
        let ka = blast_core::KarlinAltschul::blosum62_gapped_11_1();
        prop_assert!(ka.evalue(s1, space) > ka.evalue(s1 + delta, space));
        prop_assert!(ka.bit_score(s1) < ka.bit_score(s1 + delta));
    }

    #[test]
    fn pssm_agrees_with_matrix(q in residues(1, 50)) {
        let query = Sequence::from_residues("q", q.clone());
        let m = Matrix::blosum62();
        let pssm = Pssm::build(&query, &m);
        for (pos, &qr) in q.iter().enumerate() {
            for r in 0..ALPHABET_SIZE as Residue {
                prop_assert_eq!(pssm.score(pos, r), m.score(qr, r));
            }
        }
    }

    #[test]
    fn segmented_sort_sorts_and_preserves_multiset(
        segs in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..60), 0..8),
    ) {
        let device = gpu_sim::DeviceConfig::k20c();
        let mut keys: Vec<u64> = segs.iter().flatten().copied().collect();
        let mut offsets = vec![0u32];
        for s in &segs {
            offsets.push(offsets.last().unwrap() + s.len() as u32);
        }
        gpu_sim::sort::segmented_sort_flat(&device, &mut keys, &offsets, "prop", &mut Vec::new());
        for (orig, w) in segs.iter().zip(offsets.windows(2)) {
            let s = &keys[w[0] as usize..w[1] as usize];
            prop_assert!(s.windows(2).all(|w| w[0] <= w[1]));
            let mut o = orig.clone();
            o.sort_unstable();
            prop_assert_eq!(&o[..], s);
        }
    }

    #[test]
    fn radix_segmented_sort_matches_comparator_sort(
        wide in prop::collection::vec(prop::collection::vec(any::<u64>(), 0..200), 0..6),
        narrow in prop::collection::vec(prop::collection::vec(0u64..4, 0..200), 0..6),
        dup in any::<u64>(),
        dups in 0usize..100,
    ) {
        // Arbitrary segment shapes over the flat CSR entry point: empty
        // segments, full-range keys (all 8 radix passes), near-constant
        // keys (pass skipping), and one all-duplicate segment. Each
        // segment must come out exactly as `sort_unstable` would leave
        // it, and the modelled stats must depend on the segment lengths
        // alone.
        let mut segs = wide;
        segs.extend(narrow);
        segs.push(vec![dup; dups]);
        let mut keys: Vec<u64> = segs.iter().flatten().copied().collect();
        let mut offsets = vec![0u32];
        for s in &segs {
            offsets.push(offsets.last().unwrap() + s.len() as u32);
        }
        let device = gpu_sim::DeviceConfig::k20c();
        let mut scratch = Vec::new();
        let flat_stats = gpu_sim::sort::segmented_sort_flat(
            &device, &mut keys, &offsets, "prop", &mut scratch,
        );
        for (orig, w) in segs.iter().zip(offsets.windows(2)) {
            let got = &keys[w[0] as usize..w[1] as usize];
            let mut want = orig.clone();
            want.sort_unstable();
            prop_assert_eq!(got, &want[..]);
        }
        let mut zeros = vec![0u64; keys.len()];
        let shape_stats = gpu_sim::sort::segmented_sort_flat(
            &device, &mut zeros, &offsets, "prop", &mut scratch,
        );
        prop_assert_eq!(flat_stats, shape_stats);
    }
}

proptest! {
    #[test]
    fn pipeline_schedule_invariants(
        blocks in prop::collection::vec((0.0f64..5.0, 0.0f64..20.0, 0.0f64..5.0, 0.0f64..20.0), 0..20),
    ) {
        let timings: Vec<cublastp::BlockTiming> = blocks
            .iter()
            .map(|&(h, g, d, c)| cublastp::BlockTiming {
                h2d_ms: h,
                gpu_ms: g,
                d2h_ms: d,
                cpu_ms: c,
            })
            .collect();
        let s = cublastp::schedule(&timings);
        // Overlap can only help, and can never beat any single stage's
        // serial occupancy.
        prop_assert!(s.overlapped_ms <= s.serial_ms + 1e-9);
        for stage in 0..4usize {
            let stage_total: f64 = blocks
                .iter()
                .map(|&(h, g, d, c)| [h, g, d, c][stage])
                .sum();
            prop_assert!(s.overlapped_ms >= stage_total - 1e-9, "stage {stage}");
        }
        // A block's own four stages are sequential.
        if let Some(&(h, g, d, c)) = blocks.first() {
            prop_assert!(s.overlapped_ms >= h + g + d + c - 1e-9);
        }
        prop_assert!((0.0..=1.0).contains(&s.saving()) || s.serial_ms == 0.0);
    }

    #[test]
    fn lockstep_divergence_is_bounded(
        lanes in prop::collection::vec(1u64..1_000, 1..32),
    ) {
        let device = gpu_sim::DeviceConfig::k20c();
        let stats = gpu_sim::launch(&device, gpu_sim::LaunchConfig::simple(1), "p", |b| {
            b.lockstep(&lanes);
        });
        let max = *lanes.iter().max().unwrap();
        let sum: u64 = lanes.iter().sum();
        prop_assert_eq!(stats.warp_cycles, max);
        prop_assert_eq!(stats.active_lane_cycles, sum);
        prop_assert!(stats.divergence_overhead() >= 0.0);
        prop_assert!(stats.divergence_overhead() < 1.0);
        // Identical lanes on a full warp → zero divergence.
        if lanes.len() == 32 && lanes.iter().all(|&l| l == lanes[0]) {
            prop_assert_eq!(stats.divergence_overhead(), 0.0);
        }
    }

    #[test]
    fn coalescing_transactions_bounded_by_lanes_and_span(
        offsets in prop::collection::vec(0u64..10_000, 1..32),
        stride in 1u64..64,
    ) {
        let device = gpu_sim::DeviceConfig::k20c();
        let addrs: Vec<u64> = offsets.iter().map(|o| 0x10_0000 + o * stride).collect();
        let n = addrs.len() as u64;
        let stats = gpu_sim::launch(&device, gpu_sim::LaunchConfig::simple(1), "c", |b| {
            b.global_read(&addrs, 4);
        });
        prop_assert!(stats.global_transactions >= 1);
        prop_assert!(stats.global_transactions <= n, "more transactions than lanes");
        prop_assert!(stats.global_load_efficiency() <= 1.0);
    }

    #[test]
    fn seg_mask_never_panics_and_is_superset_of_stricter_window(
        residues in prop::collection::vec(0u8..20, 0..300),
    ) {
        let loose = blast_core::seg::low_complexity_mask(&residues, 12, 1.0);
        let tight = blast_core::seg::low_complexity_mask(&residues, 12, 2.2);
        prop_assert_eq!(loose.len(), residues.len());
        // Lower threshold masks a subset of what a higher threshold masks.
        for (l, t) in loose.iter().zip(&tight) {
            prop_assert!(!l || *t, "1.0-bit mask must be within the 2.2-bit mask");
        }
    }
}

// Grouped seeding's core equivalence (DESIGN.md §3.6): folding a query
// group's word neighbourhoods into one hashed `QueryIndex` and probing
// it with the subject's word stream yields exactly the multiset of
// `(query, q_pos, s_pos)` seeds the per-query DFA scans produce — across
// random groups, thresholds, and round budgets small enough to force
// index-full overflow into singleton rounds.
proptest! {
    #[test]
    fn query_index_probe_matches_per_query_dfa_scan(
        queries in prop::collection::vec(residues(0, 48), 1..5),
        subject in residues(0, 120),
        t in 8i32..14,
        budget in 1usize..4_000,
    ) {
        use blast_core::words::subject_words;
        use blast_core::{Dfa, QueryIndex};
        use cublastp::plan_rounds;
        use std::collections::BTreeSet;

        let matrix = Matrix::blosum62();
        let dfas: Vec<Dfa> = queries
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Dfa::build(&Sequence::from_residues(format!("q{i}"), r.clone()), &matrix, t)
            })
            .collect();

        // Reference: each query's own automaton over the subject.
        let mut expected: BTreeSet<(usize, u32, usize)> = BTreeSet::new();
        for (qi, dfa) in dfas.iter().enumerate() {
            dfa.scan(&subject, |col, qpos| {
                expected.insert((qi, qpos, col));
            });
        }

        // Grouped: pack rounds under the budget, build one index per
        // round, probe it with the subject word stream.
        let entry_counts: Vec<usize> =
            dfas.iter().map(|d| d.neighborhood().total_entries()).collect();
        let rounds = plan_rounds(&entry_counts, budget);
        prop_assert_eq!(
            rounds.iter().map(|r| r.len()).sum::<usize>(),
            queries.len(),
            "rounds must cover every query exactly once"
        );
        let mut actual: BTreeSet<(usize, u32, usize)> = BTreeSet::new();
        for round in rounds {
            let members: Vec<_> = dfas[round.clone()].iter().map(|d| d.neighborhood()).collect();
            let index = QueryIndex::build(&members);
            prop_assert!(index.occupancy() <= 0.5 + 1e-9, "load factor bound");
            for (col, code) in subject_words(&subject) {
                let probe = index.probe(code);
                prop_assert!(probe.steps >= 1);
                for p in probe.postings {
                    let inserted =
                        actual.insert((round.start + p.query as usize, p.qpos as u32, col));
                    prop_assert!(inserted, "duplicate posting for one subject word");
                }
            }
        }
        prop_assert_eq!(actual, expected);
    }
}
