//! Exact flattening accounting for the device-resident database.
//!
//! This file deliberately holds a single test: the flatten counter is
//! process-global, and any concurrently running search in the same test
//! binary would make exact-delta assertions racy.

use bio_seq::Sequence;
use blast_core::SearchParams;
use cublastp::{
    flatten_count, mapped_block_count, search_batch, CuBlastpConfig, DeviceDb, ShardedDb,
};
use cublastp_db::DbImage;
use cublastp_serve::{Request, ServeConfig, Server};
use gpu_sim::DeviceConfig;
use integration_support::workload;

#[test]
fn one_flatten_per_block_regardless_of_batch_size() {
    let (_, db) = workload(100, 120, 100, 7);
    let params = SearchParams::default();
    let config = CuBlastpConfig {
        db_block_size: 40,
        ..CuBlastpConfig::default()
    };
    let device = DeviceConfig::k20c();
    let blocks = db.len().div_ceil(config.db_block_size);

    let queries: Vec<Sequence> = (0..5)
        .map(|i| bio_seq::generate::make_query(70 + 9 * i))
        .collect();

    // A whole batch flattens the database exactly once per block — not
    // once per query per block.
    let before = flatten_count();
    let outcome = search_batch(&queries, params, config, device, &db);
    assert_eq!(outcome.per_query.len(), queries.len());
    assert_eq!(
        flatten_count() - before,
        blocks as u64,
        "search_batch must upload each block exactly once"
    );

    // Making an already-flattened database the one-shard resident handle
    // moves it in: no second flatten.
    let dev = std::sync::Arc::new(DeviceDb::upload(&db, config.db_block_size));
    let before = flatten_count();
    let resident = ShardedDb::resident(db.clone(), dev);
    assert_eq!(resident.num_blocks(), blocks);
    assert_eq!(
        flatten_count(),
        before,
        "resident handle must not re-flatten"
    );

    // A server over a `.cdb` image serves off the mapping: zero flatten
    // passes from construction through a served request and an image
    // swap, and each generation materialises its blocks exactly once.
    let img = DbImage::from_bytes(
        cublastp_db::build_to_vec(&db, config.db_block_size),
        "flatten-count",
    )
    .expect("valid image");
    let (before, mapped_before) = (flatten_count(), mapped_block_count());
    let server = Server::from_image(&img, params, config, device, ServeConfig::default())
        .expect("server from image");
    server
        .submit(Request::interactive(queries[0].clone(), "t0"))
        .expect("admitted")
        .wait()
        .expect("served from the image");
    server.swap_image(&img).expect("image swap");
    assert_eq!(flatten_count(), before, "image generations never flatten");
    assert_eq!(mapped_block_count() - mapped_before, 2 * blocks as u64);
}
