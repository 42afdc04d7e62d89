//! Exact flattening accounting for the device-resident database.
//!
//! This file deliberately holds a single test: the flatten counter is
//! process-global, and any concurrently running search in the same test
//! binary would make exact-delta assertions racy.

use bio_seq::Sequence;
use blast_core::SearchParams;
use blast_cpu::search::{search_sequential, SearchEngine};
use cublastp::{
    flatten_count, mapped_block_count, search_batch_resident, search_batch_with,
    search_sharded_batch, BatchOptions, CuBlastpConfig, DbSource, DeviceDb, ShardedBatchOptions,
    ShardedDb,
};
use cublastp_db::DbImage;
use cublastp_serve::{Request, ServeConfig, Server};
use gpu_sim::DeviceConfig;
use integration_support::workload;

/// In-memory `.cdb` image of `db`.
fn image_of(db: &bio_seq::SequenceDb, block_size: usize) -> DbImage {
    DbImage::from_bytes(cublastp_db::build_to_vec(db, block_size), db.name()).expect("valid image")
}

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
    let opts = BatchOptions::default();
    let outcome = search_batch_with(&queries, params, config, device, &db, opts);
    assert_eq!(outcome.per_query.len(), queries.len());
    assert_eq!(
        flatten_count() - before,
        blocks as u64,
        "search_batch_with must upload each block exactly once"
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
    let img = image_of(&db, config.db_block_size);
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
    drop(server);

    // Every source kind through the one opener, into the batch entries
    // and into the server: reference output at 1 and at 3 shards, and a
    // mapped source never flattens — an image cut into 3 shards maps each
    // shard's range of the one image, block by block.
    let block_size = config.db_block_size;
    let set: Vec<DbImage> = (ShardedDb::split(&db, 3, block_size).shards().iter())
        .map(|shard| image_of(&shard.db, block_size))
        .collect();
    let queries = &queries[..2];
    let reference: Vec<_> = (queries.iter())
        .map(|q| {
            let engine = SearchEngine::new(q.clone(), params, &db);
            search_sequential(&engine, &db).report.identity_key()
        })
        .collect();
    let source = |kind: &str| {
        let source = match kind {
            "inline" => DbSource::Inline(db.clone()),
            "image" => DbSource::Image(&img),
            _ => DbSource::Set {
                name: db.name(),
                images: &set,
            },
        };
        assert_eq!(source.kind(), kind);
        source
    };
    for kind in ["inline", "image", "set"] {
        for shards in [1usize, 3] {
            let label = format!("{kind} at {shards} shards");
            let mapped = kind != "inline";

            let (before, mapped_before) = (flatten_count(), mapped_block_count());
            let handle = ShardedDb::open(source(kind), shards, Some(block_size)).expect("opens");
            assert_eq!(handle.num_shards(), if kind == "set" { 3 } else { shards });
            assert_eq!(handle.image_origin().is_some(), mapped, "{label}");
            if mapped {
                let maps = mapped_block_count() - mapped_before;
                assert_eq!(maps, handle.num_blocks() as u64, "{label}");
                assert!(handle.shards().iter().all(|s| s.dev.is_mapped()), "{label}");
            }
            let per_query = match handle.shards() {
                [whole] => {
                    let opts = BatchOptions::default();
                    let (db, dev) = (&whole.db, &whole.dev);
                    search_batch_resident(queries, params, config, device, db, dev, opts).per_query
                }
                _ => {
                    let opts = ShardedBatchOptions::default();
                    search_sharded_batch(queries, params, config, device, &handle, &opts).per_query
                }
            };
            for (r, key) in per_query.iter().zip(&reference) {
                let r = r.as_ref().expect("fault-free query");
                assert_eq!(&r.report.identity_key(), key, "batch over {label}");
            }
            // 100 sequences in blocks of 40: three blocks at 1 and at 3 shards.
            assert_eq!(handle.num_blocks(), blocks, "{label}");
            let flattened = if mapped { 0 } else { blocks as u64 };
            assert_eq!(flatten_count() - before, flattened, "batch over {label}");

            let before = flatten_count();
            let serve_cfg = ServeConfig {
                shards,
                ..ServeConfig::default()
            };
            let server =
                Server::with_injector(source(kind), params, config, device, serve_cfg, None)
                    .expect("server");
            for (q, key) in queries.iter().zip(&reference) {
                let served = (server.submit(Request::interactive(q.clone(), "t0")))
                    .expect("admitted")
                    .wait()
                    .expect("served");
                assert_eq!(
                    &served.result.report.identity_key(),
                    key,
                    "server over {label}"
                );
            }
            assert_eq!(flatten_count() - before, flattened, "server over {label}");
        }
    }

    // A flag that contradicts what a file stores is one `config` error,
    // whichever file and whichever flag.
    for (kind, shards, bs) in [
        ("image", 1, block_size + 1),
        ("set", 1, block_size + 1),
        ("set", 5, block_size),
    ] {
        let err = ShardedDb::open(source(kind), shards, Some(bs))
            .err()
            .expect("contradiction");
        assert_eq!(err.category(), "config", "{kind}: {err}");
        assert!(err.to_string().contains("contradicts"), "{err}");
    }
    let serve_cfg = ServeConfig {
        shards: 5,
        ..ServeConfig::default()
    };
    let err = Server::with_injector(source("set"), params, config, device, serve_cfg, None)
        .err()
        .expect("a 5-shard server over a 3-image set");
    assert_eq!(err.category(), "config");
}
