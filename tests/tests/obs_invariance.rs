//! Observability must be a pure observer: arming tracing and metrics
//! must not change a single simulated kernel stat, count, or reported
//! alignment. Runs the same search disarmed and fully armed on both
//! database presets and both extension strategies, and requires
//! bit-identical results.
//!
//! One test function: the armed state is process-wide and this file is
//! its own test binary.

use bio_seq::generate::{generate_db, make_query, DbPreset};
use blast_core::SearchParams;
use cublastp::{CuBlastp, CuBlastpConfig, CuBlastpResult, ExtensionStrategy};
use gpu_sim::DeviceConfig;

/// Everything deterministic a search produces, flattened for comparison.
/// (Host wall-clock timings are excluded by construction — they differ
/// run to run regardless of observability.)
fn fingerprint(r: &CuBlastpResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for k in &r.kernels {
        let _ = writeln!(
            out,
            "{} warp_cycles={} lane_cycles={} transacted={} transactions={} \
             shared={} atomics={}/{} rocache={}/{} occupancy={} blocks={}",
            k.name,
            k.warp_cycles,
            k.active_lane_cycles,
            k.global_transacted_bytes,
            k.global_transactions,
            k.shared_accesses,
            k.atomic_ops,
            k.atomic_conflicts,
            k.rocache_hits,
            k.rocache_misses,
            k.occupancy,
            k.blocks,
        );
    }
    let _ = writeln!(
        out,
        "counts hits={} filtered={} ext={} triggered={} redundant={}",
        r.counts.hits,
        r.counts.filtered,
        r.counts.extensions,
        r.counts.triggered,
        r.counts.redundant
    );
    for h in &r.report.hits {
        let a = &h.alignment;
        let _ = writeln!(
            out,
            "hit subject={} ({}) score={} bits={} evalue={:e} \
             q=({},{}) s=({},{}) id={} pos={} gaps={}",
            h.subject_index,
            h.subject_id,
            a.score,
            h.bit_score,
            h.evalue,
            a.q_start,
            a.q_end,
            a.s_start,
            a.s_end,
            a.identities,
            a.positives,
            a.gaps,
        );
    }
    let _ = writeln!(
        out,
        "recovery faults={} retries={} degraded={}",
        r.recovery.faults, r.recovery.retries, r.recovery.degraded_blocks
    );
    out
}

fn run(
    db: &bio_seq::SequenceDb,
    q: &bio_seq::Sequence,
    strategy: ExtensionStrategy,
) -> CuBlastpResult {
    let cfg = CuBlastpConfig {
        extension: strategy,
        ..CuBlastpConfig::default()
    };
    CuBlastp::new(
        q.clone(),
        SearchParams::default(),
        cfg,
        DeviceConfig::k20c(),
        db,
    )
    .search(db)
    .expect("search succeeds")
}

#[test]
fn armed_observability_never_changes_results() {
    let q = make_query(200);
    for preset in [DbPreset::SwissprotMini, DbPreset::EnvNrMini] {
        // Tiny fraction of the preset: the contract is structural, not
        // statistical, so size buys nothing but wall-clock.
        let spec = preset.spec().scaled(0.05);
        let db = generate_db(&spec, &q).db;
        for strategy in [ExtensionStrategy::Window, ExtensionStrategy::Diagonal] {
            obs::disarm();
            let disarmed = run(&db, &q, strategy);

            obs::arm(true, true);
            let armed = run(&db, &q, strategy);
            obs::disarm();
            // The D2H figure is explainable from the program's own output:
            // the link's byte counter is the billed bytes, which are the
            // trigger survivors' 20-byte records and nothing else.
            let m = obs::metrics();
            assert!(0 < armed.counts.triggered && armed.counts.triggered < armed.counts.extensions);
            assert_eq!(
                m.counter_value("pcie_bytes_total", &[("dir", "d2h")]),
                armed.counts.d2h_bytes,
            );
            assert_eq!(armed.counts.d2h_bytes, armed.counts.triggered * 20);
            assert_eq!(
                m.counter_value("extensions_triggered_total", &[]),
                armed.counts.triggered
            );
            assert_eq!(
                m.counter_value("extensions_total", &[]),
                armed.counts.extensions
            );
            // Drop the observation side-products so later presets start
            // clean (and to prove draining doesn't affect anything).
            obs::take_trace();
            obs::metrics().reset();

            assert_eq!(
                fingerprint(&disarmed),
                fingerprint(&armed),
                "armed observability changed results ({:?}, {strategy:?})",
                spec.name,
            );
        }
    }
}
