//! Batch scheduler invariant: batching never changes BLAST output.

use bio_seq::alphabet::STANDARD_AA;
use bio_seq::Sequence;
use blast_core::SearchParams;
use cublastp::{search_batch_with, BatchOptions, CuBlastp, CuBlastpConfig};
use gpu_sim::DeviceConfig;
use integration_support::workload;
use proptest::prelude::*;

fn residues(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..STANDARD_AA as u8, min..=max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The batch driver only shares the resident database: every query's
    /// report is bit-identical to running it alone.
    #[test]
    fn batch_output_identical_to_per_query_searches(
        random_queries in prop::collection::vec(residues(25, 100), 1..4),
        seed in 0u64..1_000,
    ) {
        let (anchor, db) = workload(120, 40, 110, seed);
        let mut queries: Vec<Sequence> = random_queries
            .into_iter()
            .enumerate()
            .map(|(i, r)| Sequence::from_residues(format!("q{i}"), r))
            .collect();
        // One query with planted homologs so at least one report is busy.
        queries.push(anchor);

        let params = SearchParams::default();
        let config = CuBlastpConfig {
            db_block_size: 16,
            ..CuBlastpConfig::default()
        };
        let device = DeviceConfig::k20c();

        let opts = BatchOptions::default();
        let batch = search_batch_with(&queries, params, config, device, &db, opts);
        prop_assert_eq!(batch.per_query.len(), queries.len());
        for (q, br) in queries.iter().zip(&batch.per_query) {
            let br = br.as_ref().expect("fault-free batch query");
            let solo = CuBlastp::new(q.clone(), params, config, device, &db)
                .search(&db)
                .expect("fault-free solo query");
            prop_assert_eq!(br.report.identity_key(), solo.report.identity_key());
        }
    }
}
