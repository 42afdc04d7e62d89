//! NGS-style batch protein search — the workload the paper's introduction
//! motivates: a stream of protein queries (e.g. translated reads or
//! predicted ORFs of varying length) searched against a reference
//! database, comparing the CPU reference against cuBLASTP and checking
//! output identity along the way.
//!
//! Also demonstrates the FASTA round trip: the query batch is serialized
//! to FASTA and parsed back before searching.
//!
//! ```text
//! cargo run --release -p examples --bin protein_search -- --queries 8 --seqs 3000
//! ```

use bio_seq::fasta::{parse_fasta, to_fasta};
use bio_seq::generate::{generate_db, make_query, DbSpec};
use blast_core::SearchParams;
use blast_cpu::search::{search_sequential, SearchEngine};
use cublastp::{CuBlastp, CuBlastpConfig};
use examples_support::{arg, print_report};
use gpu_sim::DeviceConfig;

fn main() {
    let num_queries: usize = arg("--queries", 8);
    let seqs: usize = arg("--seqs", 3_000);

    // A batch of queries with NGS-like length spread (short fragments to
    // full-length proteins).
    let lengths = [90usize, 127, 220, 310, 415, 517, 780, 1054];
    let batch: Vec<_> = (0..num_queries)
        .map(|i| make_query(lengths[i % lengths.len()] + i))
        .collect();

    // FASTA round trip, as a real pipeline would consume them.
    let fasta = to_fasta(&batch, 60);
    let queries = parse_fasta(&fasta);
    assert_eq!(queries.len(), batch.len());

    // One reference database shared by the whole batch (homologies planted
    // against the first query so at least some reads map).
    let spec = DbSpec {
        name: "reference",
        num_sequences: seqs,
        mean_length: 280,
        homolog_fraction: 0.02,
        seed: 1234,
    };
    let db = generate_db(&spec, &queries[0]).db;
    let params = SearchParams::default();

    println!(
        "batch of {} queries vs {} sequences ({} residues)",
        queries.len(),
        db.len(),
        db.total_residues()
    );
    println!(
        "\n{:<12} {:>6} {:>10} {:>12} {:>12} {:>12} {:>9}",
        "query", "len", "hits", "cpu (ms)", "device (ms)", "tail (ms)", "identical"
    );

    let mut total_cpu = 0.0;
    let (mut total_device, mut total_tail) = (0.0, 0.0);
    let mut best: Option<(String, blast_cpu::report::SearchReport)> = None;
    for q in &queries {
        let engine = SearchEngine::new(q.clone(), params, &db);
        let cpu = search_sequential(&engine, &db);
        let cpu_ms = cpu.times.total().as_secs_f64() * 1e3;

        let searcher = CuBlastp::new(
            q.clone(),
            params,
            CuBlastpConfig::default(),
            DeviceConfig::k20c(),
            &db,
        );
        let gpu = searcher.search(&db).expect("fault-free search");
        // Two clocks: the modelled device (kernels and both PCIe legs) and
        // the host's wall-clock of the CPU tail.
        let t = &gpu.timing;
        let device_ms = t.gpu_ms + t.h2d_ms + t.d2h_ms;

        let identical = gpu.report.identity_key() == cpu.report.identity_key();
        assert!(identical, "cuBLASTP output must match FSA-BLAST");
        println!(
            "{:<12} {:>6} {:>10} {:>12.2} {:>12.2} {:>12.2} {:>9}",
            q.id,
            q.len(),
            gpu.report.hits.len(),
            cpu_ms,
            device_ms,
            t.cpu_wall_ms,
            identical
        );
        total_cpu += cpu_ms;
        total_device += device_ms;
        total_tail += t.cpu_wall_ms;
        if best
            .as_ref()
            .map(|(_, r)| {
                gpu.report
                    .hits
                    .first()
                    .map(|h| h.alignment.score)
                    .unwrap_or(0)
                    > r.hits.first().map(|h| h.alignment.score).unwrap_or(0)
            })
            .unwrap_or(true)
        {
            best = Some((q.id.clone(), gpu.report));
        }
    }

    println!(
        "\nbatch total: CPU reference {total_cpu:.1} ms (host wall); cuBLASTP device \
         {total_device:.1} ms (simulated K20c + PCIe), CPU tail {total_tail:.1} ms (host wall)"
    );
    if let Some((qid, report)) = best {
        print_report(&report, &qid, 5);
        if let Some(top) = report.hits.first() {
            println!("\nbest alignment CIGAR: {}", top.alignment.cigar());
        }
    }
}
