//! The Fig. 12 pipeline in action: how database blocking and CPU–GPU
//! overlap change the makespan.
//!
//! Sweeps the pipeline block size and prints, for each, the serial
//! makespan (H2D → GPU → D2H → CPU back to back for every block) and the
//! overlapped makespan (stages of different blocks run concurrently),
//! plus the stage that bottlenecks the steady state.
//!
//! ```text
//! cargo run --release -p examples --bin pipeline_overlap -- --seqs 6000
//! ```

use bio_seq::generate::{generate_db, make_query, DbSpec};
use blast_core::SearchParams;
use cublastp::{CuBlastp, CuBlastpConfig};
use examples_support::arg;
use gpu_sim::DeviceConfig;

type IdentityKey = Vec<(usize, i32, u32, u32, u32, u32)>;

fn main() {
    let seqs: usize = arg("--seqs", 6_000);
    let query = make_query(517);
    let spec = DbSpec {
        name: "pipeline",
        num_sequences: seqs,
        mean_length: 220,
        homolog_fraction: 0.03,
        seed: 4242,
    };
    let db = generate_db(&spec, &query).db;
    let params = SearchParams::default();

    println!(
        "query517 vs {} sequences; sweeping pipeline block size\n",
        db.len()
    );
    println!(
        "{:>10} {:>8} {:>12} {:>14} {:>9} {:>22}",
        "block", "blocks", "serial (ms)", "overlap (ms)", "saved", "stage totals g/c (ms)"
    );

    let mut reference: Option<IdentityKey> = None;
    for block_size in [0usize, 4000, 2000, 1000, 500, 250] {
        let cfg = CuBlastpConfig {
            db_block_size: if block_size == 0 {
                db.len()
            } else {
                block_size
            },
            overlap: true,
            ..CuBlastpConfig::default()
        };
        let searcher = CuBlastp::new(query.clone(), params, cfg, DeviceConfig::k20c(), &db);
        let r = searcher.search(&db).expect("fault-free search");
        let t = &r.timing;
        let label = if block_size == 0 {
            "whole-db".to_string()
        } else {
            block_size.to_string()
        };
        println!(
            "{:>10} {:>8} {:>12.2} {:>14.2} {:>8.1}% {:>13.2} / {:.2}",
            label,
            db.len().div_ceil(cfg.db_block_size),
            t.serial_ms,
            t.overlapped_ms,
            100.0 * (1.0 - t.overlapped_ms / t.serial_ms),
            t.gpu_ms,
            t.cpu_wall_ms,
        );

        // Block size must never change the answer.
        let key = r.report.identity_key();
        match &reference {
            None => reference = Some(key),
            Some(k) => assert_eq!(&key, k, "block size changed the output!"),
        }
    }

    println!(
        "\nOne block cannot overlap anything; many small blocks pipeline GPU kernels \
         against CPU gapped extension + traceback and PCIe transfers (paper Fig. 12). \
         Every configuration produced identical BLAST output."
    );
}
