//! End-to-end behavioural tests: sensitivity on planted homologies,
//! statistical sanity on noise, and pipeline invariants.

use bio_seq::generate::{generate_db, make_query, DbSpec};
use blast_core::SearchParams;
use blast_cpu::search::{search_sequential, SearchEngine};
use cublastp::{CuBlastp, CuBlastpConfig};
use gpu_sim::DeviceConfig;
use integration_support::{noise_workload, workload};

#[test]
fn planted_homologs_are_found() {
    // Sensitivity: the pipeline must recover the large majority of the
    // homologies the generator planted (60 % identity over ≥ 30 % of the
    // query — comfortably above BLASTP's detection floor).
    let q = make_query(200);
    let spec = DbSpec {
        name: "sens",
        num_sequences: 400,
        mean_length: 250,
        homolog_fraction: 0.15,
        seed: 77,
    };
    let synth = generate_db(&spec, &q);
    let engine = SearchEngine::new(q.clone(), SearchParams::default(), &synth.db);
    let res = search_sequential(&engine, &synth.db);
    let reported: std::collections::HashSet<usize> =
        res.report.hits.iter().map(|h| h.subject_index).collect();
    let found = synth
        .planted
        .iter()
        .filter(|i| reported.contains(i))
        .count();
    let recall = found as f64 / synth.planted.len() as f64;
    assert!(
        recall >= 0.9,
        "recall {recall} ({found}/{} planted homologs)",
        synth.planted.len()
    );
}

#[test]
fn noise_database_yields_few_strong_hits() {
    // Specificity: with e-value cutoff 1e-3 a pure-noise database should
    // report (almost) nothing.
    let (q, db) = noise_workload(127, 400, 7);
    let params = SearchParams {
        evalue_cutoff: 1e-3,
        ..SearchParams::default()
    };
    let engine = SearchEngine::new(q, params, &db);
    let res = search_sequential(&engine, &db);
    assert!(
        res.report.hits.len() <= 2,
        "{} hits at E ≤ 1e-3 from noise",
        res.report.hits.len()
    );
}

#[test]
fn evalues_are_consistent_with_scores() {
    let (q, db) = workload(150, 200, 200, 13);
    let engine = SearchEngine::new(q, SearchParams::default(), &db);
    let res = search_sequential(&engine, &db);
    assert!(!res.report.hits.is_empty());
    for pair in res.report.hits.windows(2) {
        assert!(pair[0].alignment.score >= pair[1].alignment.score);
        assert!(pair[0].evalue <= pair[1].evalue + 1e-12);
    }
    for h in &res.report.hits {
        assert!(h.evalue <= engine.params.evalue_cutoff);
        assert!(h.bit_score > 0.0);
        let a = &h.alignment;
        assert!(a.q_end as usize <= engine.query.len());
        assert!(a.s_end as usize <= db.sequences()[h.subject_index].len());
        assert!(a.identities as usize <= a.columns());
    }
}

#[test]
fn survival_ratio_is_in_a_plausible_band() {
    // §3.3: the filter must reject the bulk of the hits. On synthetic
    // Robinson-frequency data the survival ratio sits slightly above the
    // paper's 5–11 % (no low-complexity masking); the invariant we hold
    // is "well under half, well over zero".
    let (q, db) = workload(127, 300, 250, 29);
    let cu = CuBlastp::new(
        q,
        SearchParams::default(),
        CuBlastpConfig::default(),
        DeviceConfig::k20c(),
        &db,
    );
    let r = cu.search(&db).expect("fault-free search");
    let ratio = r.counts.survival_ratio();
    assert!((0.02..=0.40).contains(&ratio), "survival = {ratio}");
    assert!(r.counts.extensions <= r.counts.filtered);
}

#[test]
fn overlap_never_changes_results_and_never_slows_the_model() {
    let (q, db) = workload(96, 240, 160, 31);
    let p = SearchParams::default();
    let run = |overlap: bool| {
        let cfg = CuBlastpConfig {
            overlap,
            db_block_size: 60,
            ..CuBlastpConfig::default()
        };
        CuBlastp::new(q.clone(), p, cfg, DeviceConfig::k20c(), &db)
            .search(&db)
            .expect("fault-free search")
    };
    let serial = run(false);
    let overlapped = run(true);
    assert_eq!(
        serial.report.identity_key(),
        overlapped.report.identity_key()
    );
    // The modelled overlapped makespan never exceeds the serial one.
    assert!(overlapped.timing.overlapped_ms <= overlapped.timing.serial_ms + 1e-9);
}

#[test]
fn kernel_stats_are_internally_consistent() {
    let (q, db) = workload(127, 200, 180, 43);
    let cu = CuBlastp::new(
        q,
        SearchParams::default(),
        CuBlastpConfig::default(),
        DeviceConfig::k20c(),
        &db,
    );
    let r = cu.search(&db).expect("fault-free search");
    let names: Vec<&str> = r.kernels.iter().map(|k| k.name.as_str()).collect();
    assert_eq!(names, ["hit_detection", "hit_tail"]);
    for k in &r.kernels {
        assert!(k.global_load_efficiency() > 0.0 && k.global_load_efficiency() <= 1.0);
        assert!(k.divergence_overhead() >= 0.0 && k.divergence_overhead() < 1.0);
        assert!(k.occupancy > 0.0 && k.occupancy <= 1.0);
        assert!(
            k.global_useful_bytes <= k.global_transacted_bytes,
            "{}: useful {} > transacted {}",
            k.name,
            k.global_useful_bytes,
            k.global_transacted_bytes
        );
    }
    // Counter funnel: hits ≥ filtered ≥ extensions.
    assert!(r.counts.hits >= r.counts.filtered);
    assert!(r.counts.filtered >= r.counts.extensions);
}

#[test]
fn searching_twice_is_deterministic() {
    let (q, db) = workload(80, 150, 150, 59);
    let p = SearchParams::default();
    let cu = CuBlastp::new(q, p, CuBlastpConfig::default(), DeviceConfig::k20c(), &db);
    let a = cu.search(&db).expect("fault-free search");
    let b = cu.search(&db).expect("fault-free search");
    assert_eq!(a.report, b.report);
    assert_eq!(a.counts.hits, b.counts.hits);
    // Simulated kernel counters are exactly reproducible too.
    for (ka, kb) in a.kernels.iter().zip(&b.kernels) {
        assert_eq!(ka, kb, "kernel {} not deterministic", ka.name);
    }
}

#[test]
fn composition_based_stats_are_conservative_for_biased_queries() {
    use bio_seq::generate::make_query_with_low_complexity;
    use blast_core::stats::{composition, solve_lambda_pair};
    use blast_core::{KarlinAltschul, Matrix};

    let m = Matrix::blosum62();

    // A clean Robinson-like query barely moves λ (and never upward).
    let clean = bio_seq::generate::make_query(400);
    let adj_clean = KarlinAltschul::composition_adjusted_gapped(&m, clean.residues());
    let base = KarlinAltschul::blosum62_gapped_11_1();
    assert!(adj_clean.lambda <= base.lambda + 1e-12);
    assert!(
        adj_clean.lambda / base.lambda > 0.9,
        "clean query λ ratio {}",
        adj_clean.lambda / base.lambda
    );

    // A heavily biased query lowers λ → larger (more conservative)
    // e-values at the same raw score.
    let biased = make_query_with_low_complexity(400, 14);
    let adj_biased = KarlinAltschul::composition_adjusted_gapped(&m, biased.residues());
    assert!(
        adj_biased.lambda < adj_clean.lambda,
        "biased λ {} vs clean λ {}",
        adj_biased.lambda,
        adj_clean.lambda
    );
    let space = 1e8;
    assert!(adj_biased.evalue(100, space) > adj_clean.evalue(100, space));

    // The pair solver agrees with the single-composition solver on the
    // standard background.
    let lam = solve_lambda_pair(
        &m,
        &bio_seq::alphabet::ROBINSON_FREQS,
        &bio_seq::alphabet::ROBINSON_FREQS,
    )
    .unwrap();
    assert!((lam - 0.3176).abs() < 0.01);

    // Composition of an empty slice falls back to Robinson.
    let c = composition(&[]);
    for (a, b) in c.iter().zip(bio_seq::alphabet::ROBINSON_FREQS.iter()) {
        assert!((a - b).abs() < 1e-12);
    }
}

#[test]
fn composition_based_identity_across_pipelines() {
    let params = blast_core::SearchParams {
        composition_based_stats: true,
        ..blast_core::SearchParams::default()
    };
    let (q, db) = workload(96, 100, 140, 83);
    let cpu = blast_cpu::search::search_sequential(
        &blast_cpu::search::SearchEngine::new(q.clone(), params, &db),
        &db,
    );
    let cu = CuBlastp::new(
        q,
        params,
        CuBlastpConfig::default(),
        gpu_sim::DeviceConfig::k20c(),
        &db,
    );
    assert_eq!(
        cu.search(&db)
            .expect("fault-free search")
            .report
            .identity_key(),
        cpu.report.identity_key()
    );
}
