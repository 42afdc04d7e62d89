//! The same seed gives byte-identical inputs; another seed gives others
//! of the same shape.

use cublastp_benchmark::rng::SplitMix64;
use cublastp_benchmark::workloads::{
    self, base_protein, heavy_tailed_lengths, paired_lengths, skewed_boundaries, subject_lengths,
    SHARD_SHARES, WORKLOADS,
};

#[test]
fn same_seed_same_bytes_for_every_workload() {
    for def in &WORKLOADS {
        let a = workloads::generate(def, 11, true);
        let b = workloads::generate(def, 11, true);
        assert_eq!(
            workloads::db_fasta(&a),
            workloads::db_fasta(&b),
            "{} FASTA",
            def.name
        );
        assert_eq!(
            cublastp_db::build_to_vec(&a.db, a.block_size),
            cublastp_db::build_to_vec(&b.db, b.block_size),
            "{} .cdb",
            def.name
        );
        assert_eq!(a.queries, b.queries, "{} queries", def.name);
        assert_eq!(a.bulk_queries, b.bulk_queries, "{} bulk queries", def.name);
        assert_eq!(a.shard_boundaries, b.shard_boundaries);

        let c = workloads::generate(def, 12, true);
        assert_ne!(
            workloads::db_fasta(&a),
            workloads::db_fasta(&c),
            "{} seed",
            def.name
        );
        assert_ne!(a.queries, c.queries, "{} queries ignore the seed", def.name);
        assert_eq!(a.queries.len(), c.queries.len());
        assert_eq!(
            a.db.len(),
            c.db.len(),
            "{} shape moved with the seed",
            def.name
        );
    }
}

#[test]
fn align_workloads_share_their_inputs() {
    let stream = workloads::generate(workloads::find("align_stream").expect("defined"), 5, true);
    let device = workloads::generate(workloads::find("align_device").expect("defined"), 5, true);
    assert_eq!(stream.queries, device.queries);
    assert_eq!(workloads::db_fasta(&stream), workloads::db_fasta(&device));
}

#[test]
fn every_query_has_planted_homologs_and_ids_are_unique() {
    let inputs = workloads::generate(workloads::find("scan_stream").expect("defined"), 3, false);
    let mut ids: Vec<&str> = inputs
        .db
        .sequences()
        .iter()
        .map(|s| s.id.as_str())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), inputs.db.len());
    for q in &inputs.queries {
        let planted = format!("planted homolog of {}", q.id);
        let homologs: Vec<_> = inputs
            .db
            .sequences()
            .iter()
            .filter(|s| s.description == planted)
            .collect();
        assert_eq!(homologs.len(), 3, "homologs planted for {}", q.id);
        // Each carries a window of 60 % of its query between two flanks.
        assert!(homologs.iter().all(|s| s.len() >= q.len() * 6 / 10));
    }
}

#[test]
fn the_seed_moves_residues_but_not_the_shape_of_a_database() {
    let def = workloads::find("scan_stream").expect("defined");
    let shape = |seed| {
        let inputs = workloads::generate(def, seed, false);
        let mut lengths: Vec<usize> = inputs
            .db
            .sequences()
            .iter()
            .filter(|s| s.description.is_empty())
            .map(|s| s.len())
            .collect();
        lengths.sort_unstable();
        (inputs.db.len(), lengths)
    };
    let (n, lengths) = shape(1);
    assert_eq!((n, lengths.len()), (768, 768 - 8 * 3));
    assert_eq!(
        shape(2),
        (n, lengths),
        "background lengths are one multiset"
    );
    // ... which is log-normal around the mean, like `bio_seq::generate`'s.
    let drawn = subject_lengths(0, 2000, 200);
    let mean = drawn.iter().sum::<usize>() as f64 / 2000.0;
    assert!((mean - 200.0).abs() < 10.0, "mean length {mean}");
    assert!(drawn.iter().any(|&l| l < 100) && drawn.iter().any(|&l| l > 400));
}

#[test]
fn paired_lengths_keep_the_total() {
    let centres = [127, 127, 517, 517, 1054, 1054, 517, 517];
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..20 {
        let xs = paired_lengths(&mut SplitMix64::new(seed), &centres, 0.12);
        let total: usize = xs.iter().sum();
        assert!(total.abs_diff(centres.iter().sum()) <= 8, "{xs:?}");
        assert!(xs
            .iter()
            .zip(centres)
            .all(|(&l, c)| l.abs_diff(c) as f64 <= 0.12 * c as f64 + 1.0));
        seen.insert(xs);
    }
    assert!(seen.len() > 15, "lengths must move with the seed");
}

#[test]
fn heavy_tail_is_mostly_short_with_a_few_long() {
    let xs = heavy_tailed_lengths(16, 80, 1300, 1.1);
    assert_eq!(xs.len(), 16);
    assert!(
        xs.windows(2).all(|w| w[0] <= w[1]),
        "quantiles ascend: {xs:?}"
    );
    let short = xs.iter().filter(|&&l| l < 250).count();
    let long = xs.iter().filter(|&&l| l > 600).count();
    assert!(short >= 9 && (1..=4).contains(&long), "{xs:?}");
}

#[test]
fn queries_are_variants_of_seed_independent_bases() {
    // The seed trims and mutates; the protein underneath stays, so the
    // work of a pass does not swing with the seed.
    assert_eq!(base_protein(0x100, 50), base_protein(0x100, 80)[..50]);
    let def = workloads::find("scan_stream").expect("defined");
    let totals: Vec<usize> = (1..=10)
        .map(|seed| {
            workloads::generate(def, seed, true)
                .queries
                .iter()
                .map(|q| q.len())
                .sum()
        })
        .collect();
    let (lo, hi) = (
        totals.iter().min().unwrap_or(&0),
        totals.iter().max().unwrap_or(&0),
    );
    assert!(hi - lo <= 60, "total query length moved: {totals:?}");
}

#[test]
fn shard_boundaries_follow_the_shares() {
    assert_eq!(
        skewed_boundaries(4000, &SHARD_SHARES),
        vec![2400, 3200, 3600]
    );
    let inputs = workloads::generate(workloads::find("sharded_skew").expect("defined"), 1, false);
    assert_eq!(inputs.shard_boundaries.len(), 3);
    assert!(inputs.shard_boundaries.windows(2).all(|w| w[0] < w[1]));
    assert!(*inputs.shard_boundaries.last().unwrap_or(&0) < inputs.db.len());
}
