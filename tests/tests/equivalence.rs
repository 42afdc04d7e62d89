//! The paper's §4.3 correctness claim, enforced across every pipeline in
//! the workspace: "the output of cuBLASTP is identical to the output of
//! FSA-BLAST" — and so is everything else, under every configuration that
//! is supposed to be semantics-preserving.

use baselines::{CudaBlastp, GpuBlastp};
use blast_core::SearchParams;
use blast_cpu::search::{search_parallel, search_sequential, SearchEngine};
use cublastp::{CuBlastp, CuBlastpConfig, ExtensionStrategy, ScoringMode};
use gpu_sim::DeviceConfig;
use integration_support::workload;

type Key = Vec<(usize, i32, u32, u32, u32, u32)>;

fn fsa_key(q: &bio_seq::Sequence, db: &bio_seq::SequenceDb, p: SearchParams) -> Key {
    search_sequential(&SearchEngine::new(q.clone(), p, db), db)
        .report
        .identity_key()
}

#[test]
fn all_five_pipelines_agree() {
    let p = SearchParams::default();
    let (q, db) = workload(96, 150, 140, 11);
    let fsa = search_sequential(&SearchEngine::new(q.clone(), p, &db), &db);
    let reference = fsa.report.identity_key();
    assert!(!reference.is_empty(), "workload must produce alignments");

    // NCBI-BLAST stand-in at several thread counts: the thread count is a
    // parameter of the time model, never of what is computed.
    for threads in [1, 2, 4, 8] {
        let r = search_parallel(&SearchEngine::new(q.clone(), p, &db), &db, threads);
        assert_eq!(r.report.identity_key(), reference, "NCBI {threads}t");
        assert_eq!(r.hit_stats, fsa.hit_stats, "NCBI {threads}t");
    }

    // cuBLASTP with the default configuration.
    let cu = CuBlastp::new(
        q.clone(),
        p,
        CuBlastpConfig::default(),
        DeviceConfig::k20c(),
        &db,
    );
    assert_eq!(
        cu.search(&db)
            .expect("fault-free search")
            .report
            .identity_key(),
        reference,
        "cuBLASTP"
    );

    // Coarse baselines.
    let cuda = CudaBlastp::new(q.clone(), p, DeviceConfig::k20c(), &db);
    assert_eq!(
        cuda.search(&db).report.identity_key(),
        reference,
        "CUDA-BLASTP"
    );
    let gpub = GpuBlastp::new(q.clone(), p, DeviceConfig::k20c(), &db);
    assert_eq!(
        gpub.search(&db).report.identity_key(),
        reference,
        "GPU-BLASTP"
    );
}

#[test]
fn cublastp_identity_across_extension_strategies() {
    let p = SearchParams::default();
    let (q, db) = workload(80, 120, 160, 23);
    let reference = fsa_key(&q, &db, p);
    for strategy in [
        ExtensionStrategy::Diagonal,
        ExtensionStrategy::Hit,
        ExtensionStrategy::Window,
    ] {
        let cfg = CuBlastpConfig {
            extension: strategy,
            ..CuBlastpConfig::default()
        };
        let cu = CuBlastp::new(q.clone(), p, cfg, DeviceConfig::k20c(), &db);
        assert_eq!(
            cu.search(&db)
                .expect("fault-free search")
                .report
                .identity_key(),
            reference,
            "strategy {strategy:?}"
        );
    }
}

#[test]
fn cublastp_identity_across_configurations() {
    let p = SearchParams::default();
    let (q, db) = workload(64, 100, 150, 37);
    let reference = fsa_key(&q, &db, p);
    for num_bins in [32usize, 128, 512] {
        for scoring in [ScoringMode::Pssm, ScoringMode::Blosum62] {
            for use_cache in [false, true] {
                for db_block_size in [30usize, 1000] {
                    let cfg = CuBlastpConfig {
                        num_bins,
                        scoring,
                        use_readonly_cache: use_cache,
                        db_block_size,
                        grid_blocks: 3,
                        warps_per_block: 2,
                        ..CuBlastpConfig::default()
                    };
                    let cu = CuBlastp::new(q.clone(), p, cfg, DeviceConfig::k20c(), &db);
                    assert_eq!(
                        cu.search(&db).expect("fault-free search").report.identity_key(),
                        reference,
                        "bins {num_bins} scoring {scoring:?} cache {use_cache} block {db_block_size}"
                    );
                }
            }
        }
    }
}

#[test]
fn identity_holds_for_query_longer_than_subjects() {
    let p = SearchParams::default();
    let (q, db) = workload(400, 60, 60, 41);
    let reference = fsa_key(&q, &db, p);
    let cu = CuBlastp::new(q, p, CuBlastpConfig::default(), DeviceConfig::k20c(), &db);
    assert_eq!(
        cu.search(&db)
            .expect("fault-free search")
            .report
            .identity_key(),
        reference
    );
}

#[test]
fn identity_with_nondefault_parameters() {
    // A stricter threshold, tighter window and different gap costs must
    // not break the fine-grained reordering equivalence.
    let p = SearchParams {
        threshold: 12,
        two_hit_window: 25,
        xdrop_ungapped: 12,
        gap_open: 9,
        gap_extend: 2,
        gapped_trigger: 35,
        ..SearchParams::default()
    };
    let (q, db) = workload(96, 100, 140, 53);
    let reference = fsa_key(&q, &db, p);
    let cu = CuBlastp::new(q, p, CuBlastpConfig::default(), DeviceConfig::k20c(), &db);
    assert_eq!(
        cu.search(&db)
            .expect("fault-free search")
            .report
            .identity_key(),
        reference
    );
}

#[test]
fn one_hit_mode_identity_and_sensitivity() {
    // BLAST's one-hit seeding: every uncovered hit extends. All pipelines
    // must still agree, and one-hit must report at least as much as
    // two-hit (it is the more sensitive mode).
    let (q, db) = workload(96, 90, 130, 67);
    let two_hit = SearchParams::default();
    let one_hit = SearchParams {
        two_hit: false,
        ..SearchParams::default()
    };

    let ref_two = fsa_key(&q, &db, two_hit);
    let ref_one = fsa_key(&q, &db, one_hit);
    assert!(
        ref_one.len() >= ref_two.len(),
        "one-hit reported {} < two-hit {}",
        ref_one.len(),
        ref_two.len()
    );

    let cu = CuBlastp::new(
        q.clone(),
        one_hit,
        CuBlastpConfig::default(),
        DeviceConfig::k20c(),
        &db,
    );
    assert_eq!(
        cu.search(&db)
            .expect("fault-free search")
            .report
            .identity_key(),
        ref_one,
        "cuBLASTP one-hit"
    );
    let cuda = CudaBlastp::new(q.clone(), one_hit, DeviceConfig::k20c(), &db);
    assert_eq!(
        cuda.search(&db).report.identity_key(),
        ref_one,
        "CUDA-BLASTP one-hit"
    );
    let r = search_parallel(&SearchEngine::new(q, one_hit, &db), &db, 3);
    assert_eq!(r.report.identity_key(), ref_one, "NCBI one-hit");
}

#[test]
fn masked_seeding_identity_across_pipelines() {
    let params = SearchParams {
        mask_low_complexity: true,
        ..SearchParams::default()
    };
    let q = bio_seq::generate::make_query_with_low_complexity(120, 3);
    let spec = bio_seq::generate::DbSpec {
        name: "masked",
        num_sequences: 80,
        mean_length: 140,
        homolog_fraction: 0.2,
        seed: 71,
    };
    let db = bio_seq::generate::generate_db(&spec, &q).db;
    let reference = fsa_key(&q, &db, params);
    let cu = CuBlastp::new(
        q.clone(),
        params,
        CuBlastpConfig::default(),
        DeviceConfig::k20c(),
        &db,
    );
    assert_eq!(
        cu.search(&db)
            .expect("fault-free search")
            .report
            .identity_key(),
        reference
    );
    let gpub = GpuBlastp::new(q, params, DeviceConfig::k20c(), &db);
    assert_eq!(gpub.search(&db).report.identity_key(), reference);
}
