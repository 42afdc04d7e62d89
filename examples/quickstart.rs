//! Quickstart: search a synthetic protein database with cuBLASTP on the
//! simulated K20c and print the hit list.
//!
//! ```text
//! cargo run --release -p examples --bin quickstart -- --query-len 127 --seqs 2000
//! ```

use bio_seq::generate::{generate_db, make_query, DbSpec};
use blast_core::SearchParams;
use cublastp::{CuBlastp, CuBlastpConfig};
use examples_support::{arg, print_report};
use gpu_sim::DeviceConfig;

fn main() {
    let query_len: usize = arg("--query-len", 127);
    let seqs: usize = arg("--seqs", 2_000);

    // 1. A query and a database. Real users would load FASTA via
    //    `bio_seq::fasta`; here we synthesize a database with homologies
    //    planted against the query.
    let query = make_query(query_len);
    let spec = DbSpec {
        name: "demo",
        num_sequences: seqs,
        mean_length: 300,
        homolog_fraction: 0.02,
        seed: 7,
    };
    let db = generate_db(&spec, &query).db;
    println!(
        "database: {} sequences, {} residues; query: {} ({} aa)",
        db.len(),
        db.total_residues(),
        query.id,
        query.len()
    );

    // 2. Build the searcher (DFA, PSSM, cutoffs, device upload) and run.
    let searcher = CuBlastp::new(
        query.clone(),
        SearchParams::default(),
        CuBlastpConfig::default(),
        DeviceConfig::k20c(),
        &db,
    );
    let result = searcher.search(&db).expect("fault-free search");

    // 3. Results: identical to FSA-BLAST, plus GPU-side telemetry.
    print_report(&result.report, &query.id, 10);
    println!("\nsimulated K20c telemetry:");
    for (k, ms) in result.kernel_rows() {
        println!(
            "  {:<28} {:>8.3} ms  load-eff {:>5.1}%  divergence {:>5.1}%  occupancy {:>5.1}%",
            k.name,
            ms,
            100.0 * k.global_load_efficiency(),
            100.0 * k.divergence_overhead(),
            100.0 * k.occupancy,
        );
    }
    let t = &result.timing;
    println!(
        "\nhits {} → filtered {} ({:.1}%) → extensions {}",
        result.counts.hits,
        result.counts.filtered,
        100.0 * result.counts.survival_ratio(),
        result.counts.extensions,
    );
    println!(
        "GPU {:.2} ms + transfers {:.2} ms + CPU {:.2} ms; overlapped total {:.2} ms (saved {:.0}%)",
        t.gpu_ms,
        t.h2d_ms + t.d2h_ms,
        t.cpu_wall_ms,
        t.total_ms(),
        100.0 * (1.0 - t.overlapped_ms / t.serial_ms),
    );
}
