//! CPU-stage SIMD speedup — scalar vs runtime-dispatched vector kernels.
//!
//! The banded x-drop DP (gapped extension, traceback and interval
//! traceback all run the one row engine) carries a SIMD inner loop
//! (`blast_cpu::simd`) selected at runtime (AVX2 → SSE4.1 → scalar). Its
//! outputs are bit-identical to the scalar reference by contract, so what
//! the vectorization buys is pure host time. This binary measures it directly: the same seed set (collected
//! once per database preset) is pushed through the gapped phase, the
//! traceback phase and the device backend's interval traceback twice —
//! once forced scalar, once at the detected ISA — and both passes must
//! produce identical extensions, alignments and interval-traceback
//! reports. The stage row (gapped + traceback, what the CPU tail runs) is
//! where a layer's speedup has to show.
//!
//! The ungapped x-drop walk has no vector body (one measured 2.7–3.0×
//! slower at every length, DESIGN.md §3.5), so its row compares the walk
//! that ships with a naive one written here, in ns per extension, over
//! planted lengths and over the short extensions a database scan makes.
//!
//! DP throughput is reported as cells/second from the monotone
//! [`blast_cpu::gapped::dp_cells`] counter, whose value is a pure
//! function of the inputs (the band evolution is ISA-independent). Those
//! counts — not wall-clock — feed the `phase_medians` section the perf
//! gate checks, so the gate watches the *work done* (band growth,
//! alignment ops, surviving alignments), deterministic for a given
//! `BENCH_SCALE`; wall-clock stays in the informational sections.
//!
//! Results go to stdout and `BENCH_cpusimd.json`.

use bench::obsenv;
use bench::report::{Obj, Report};
use bench::runners::{figure_config, upload_blocks};
use bench::table::print_table;
use bench::{bench_scale, database, query};
use bio_seq::generate::DbPreset;
use bio_seq::{Sequence, SequenceDb};
use blast_core::Matrix;
use blast_core::{Pssm, WORD_LEN};
use blast_cpu::gapped::{dp_cells, gapped_phase_subject, GappedExt};
use blast_cpu::hit::{scan_subject_mode, DiagonalScratch, HitStats};
use blast_cpu::itrace::{default_interval, traceback_interval, ItraceReport, ItraceScratch};
use blast_cpu::report::Alignment;
use blast_cpu::search::SearchEngine;
use blast_cpu::simd::{self, IsaLevel};
use blast_cpu::traceback::traceback;
use blast_cpu::ungapped::extend;
use blast_cpu::UngappedExt;
use cublastp::binning::binning_kernel;
use cublastp::devicedata::DeviceQuery;
use cublastp::hitpack::{group_key, query_pos, seq_id, subject_pos};
use cublastp::reorder::reorder_kernel;
use gpu_sim::{DeviceConfig, KernelWorkspace};
use std::process::ExitCode;
use std::time::Instant;

/// Timed repetitions per pass; the best run is reported (deterministic
/// workload, so the minimum is the least-noisy location estimate).
const REPS: usize = 3;

/// Seeds for one subject that reached the two-hit trigger.
struct SubjectSeeds {
    index: usize,
    ungapped: Vec<UngappedExt>,
}

/// One timed pass over every seeded subject at the currently forced ISA:
/// full gapped phase, then traceback of everything above the report
/// cutoff, then the same extensions through the interval traceback.
/// Returns the outputs (for the bit-identity assertion) plus the
/// wall-clock of each phase and the DP cells the gapped phase touched.
struct PassOut {
    gapped: Vec<Vec<GappedExt>>,
    alignments: Vec<Alignment>,
    itrace: Vec<ItraceReport>,
    gapped_ms: f64,
    traceback_ms: f64,
    itrace_ms: f64,
    cells: u64,
}

/// Every extension of a pass at or above the report cutoff, with its
/// subject.
fn reportable<'a>(
    engine: &'a SearchEngine,
    db: &'a SequenceDb,
    seeds: &'a [SubjectSeeds],
    gapped: &'a [Vec<GappedExt>],
) -> impl Iterator<Item = (&'a [u8], &'a GappedExt)> {
    seeds.iter().zip(gapped).flat_map(move |(s, exts)| {
        let subject = db.sequences()[s.index].residues();
        exts.iter()
            .filter(|g| g.score >= engine.cutoffs.report_cutoff)
            .map(move |g| (subject, g))
    })
}

fn run_pass(engine: &SearchEngine, db: &SequenceDb, seeds: &[SubjectSeeds]) -> PassOut {
    let c0 = dp_cells();
    let t0 = Instant::now();
    let mut gapped: Vec<Vec<GappedExt>> = Vec::with_capacity(seeds.len());
    for s in seeds {
        gapped.push(gapped_phase_subject(
            &engine.pssm,
            db.sequences()[s.index].residues(),
            &s.ungapped,
            &engine.params,
            engine.cutoffs.gapped_trigger,
        ));
    }
    let gapped_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cells = dp_cells() - c0;

    let t1 = Instant::now();
    let alignments: Vec<Alignment> = reportable(engine, db, seeds, &gapped)
        .map(|(subject, g)| {
            traceback(
                &engine.pssm,
                engine.query.residues(),
                subject,
                g,
                &engine.params,
            )
        })
        .collect();
    let traceback_ms = t1.elapsed().as_secs_f64() * 1e3;

    // The device backend's recovery of the same alignments, at the
    // interval `gapped_fine_kernel` picks for this query.
    let interval = default_interval(engine.pssm.query_len());
    let mut scratch = ItraceScratch::default();
    let t2 = Instant::now();
    let traced: Vec<(Alignment, ItraceReport)> = reportable(engine, db, seeds, &gapped)
        .map(|(subject, g)| {
            traceback_interval(
                &engine.pssm,
                engine.query.residues(),
                subject,
                g,
                &engine.params,
                interval,
                &mut scratch,
            )
        })
        .collect();
    let itrace_ms = t2.elapsed().as_secs_f64() * 1e3;
    let (recovered, itrace): (Vec<Alignment>, Vec<ItraceReport>) = traced.into_iter().unzip();
    assert_eq!(
        recovered, alignments,
        "interval traceback must equal traceback"
    );
    PassOut {
        gapped,
        alignments,
        itrace,
        gapped_ms,
        traceback_ms,
        itrace_ms,
        cells,
    }
}

/// Best-of-[`REPS`] pass at a forced ISA level. The outputs of every rep
/// are identical (asserted), so only the first rep's are kept.
fn best_pass(
    level: Option<IsaLevel>,
    engine: &SearchEngine,
    db: &SequenceDb,
    seeds: &[SubjectSeeds],
) -> PassOut {
    simd::force_level(level);
    let mut best = run_pass(engine, db, seeds);
    for _ in 1..REPS {
        let rep = run_pass(engine, db, seeds);
        assert_eq!(rep.cells, best.cells, "DP cell count must be deterministic");
        best.gapped_ms = best.gapped_ms.min(rep.gapped_ms);
        best.traceback_ms = best.traceback_ms.min(rep.traceback_ms);
        best.itrace_ms = best.itrace_ms.min(rep.itrace_ms);
    }
    simd::force_level(None);
    best
}

struct Row {
    preset: String,
    cells: u64,
    scalar_gapped_ms: f64,
    simd_gapped_ms: f64,
    scalar_traceback_ms: f64,
    simd_traceback_ms: f64,
    scalar_itrace_ms: f64,
    simd_itrace_ms: f64,
    traceback_ops: u64,
    alignments: u64,
}

impl Row {
    fn scalar_cps(&self) -> f64 {
        self.cells as f64 / (self.scalar_gapped_ms / 1e3)
    }
    fn simd_cps(&self) -> f64 {
        self.cells as f64 / (self.simd_gapped_ms / 1e3)
    }
    /// Gapped + traceback: the CPU tail of one search.
    fn scalar_stage_ms(&self) -> f64 {
        self.scalar_gapped_ms + self.scalar_traceback_ms
    }
    fn simd_stage_ms(&self) -> f64 {
        self.simd_gapped_ms + self.simd_traceback_ms
    }
    /// `(layer, scalar ms, simd ms)` for every timed layer.
    fn layers(&self) -> [(&'static str, f64, f64); 4] {
        [
            ("gapped", self.scalar_gapped_ms, self.simd_gapped_ms),
            (
                "traceback",
                self.scalar_traceback_ms,
                self.simd_traceback_ms,
            ),
            ("itrace", self.scalar_itrace_ms, self.simd_itrace_ms),
            ("stage", self.scalar_stage_ms(), self.simd_stage_ms()),
        ]
    }
}

fn collect_seeds(engine: &SearchEngine, db: &SequenceDb) -> (Vec<SubjectSeeds>, HitStats) {
    let mut scratch = DiagonalScratch::new(engine.pssm.query_len() + db.max_length() + 1);
    let mut stats = HitStats::default();
    let mut seeds = Vec::new();
    for (index, subject) in db.sequences().iter().enumerate() {
        let mut ungapped = Vec::new();
        scan_subject_mode(
            &engine.dfa,
            &engine.pssm,
            subject.residues(),
            index as u32,
            engine.params.two_hit,
            engine.params.two_hit_window as i64,
            engine.params.xdrop_ungapped,
            &mut scratch,
            &mut ungapped,
            &mut stats,
        );
        if !ungapped.is_empty() {
            seeds.push(SubjectSeeds { index, ungapped });
        }
    }
    (seeds, stats)
}

/// One population of ungapped extensions and what each walk costs on it.
struct UngappedRow {
    shape: String,
    extensions: usize,
    mean_len: f64,
    naive_ns: f64,
    shipped_ns: f64,
}

/// The x-drop walk by its definition: score the word, walk right, walk
/// left, one `if better … else if dropped { break }` per residue.
fn naive_extend(pssm: &Pssm, s: &[u8], seq_id: u32, qp: u32, sp: u32, xdrop: i32) -> UngappedExt {
    let (qp, sp) = (qp as usize, sp as usize);
    let word: i32 = (0..WORD_LEN).map(|k| pssm.score(qp + k, s[sp + k])).sum();
    let (mut best, mut running, mut right) = (word, word, WORD_LEN);
    let mut k = WORD_LEN;
    while qp + k < pssm.query_len() && sp + k < s.len() {
        running += pssm.score(qp + k, s[sp + k]);
        if running > best {
            (best, right) = (running, k + 1);
        } else if best - running > xdrop {
            break;
        }
        k += 1;
    }
    let (mut total, mut running, mut left) = (best, best, 0);
    let mut k = 1;
    while qp >= k && sp >= k {
        running += pssm.score(qp - k, s[sp - k]);
        if running > total {
            (total, left) = (running, k);
        } else if total - running > xdrop {
            break;
        }
        k += 1;
    }
    UngappedExt {
        seq_id,
        q_start: (qp - left) as u32,
        s_start: (sp - left) as u32,
        len: (left + right) as u32,
        score: total,
    }
}

/// The signature of `blast_cpu::ungapped::extend`.
type Walk = fn(&Pssm, &[u8], u32, u32, u32, i32) -> UngappedExt;

/// Time both walks over `seeds` = (subject, query pos, subject pos), after
/// one untimed pass that holds them to identical output call by call.
fn ungapped_row(
    shape: String,
    pssm: &Pssm,
    seeds: &[(&[u8], u32, u32)],
    xdrop: i32,
) -> UngappedRow {
    let mut total_len = 0u64;
    for &(s, qp, sp) in seeds {
        let got = extend(pssm, s, 0, qp, sp, xdrop);
        assert_eq!(got, naive_extend(pssm, s, 0, qp, sp, xdrop), "{shape}");
        total_len += got.len as u64;
    }
    // Enough calls per timing that the clock read is noise; the two walks
    // alternate so a slow stretch of the host falls on both.
    let rounds = (200_000 / seeds.len()).max(1);
    let walks: [Walk; 2] = [naive_extend, extend];
    let mut best_ns = [f64::INFINITY; 2];
    for _ in 0..5 * REPS {
        for (walk, best) in walks.iter().zip(&mut best_ns) {
            let t0 = Instant::now();
            for _ in 0..rounds {
                for &(s, qp, sp) in seeds {
                    std::hint::black_box(walk(pssm, s, 0, qp, sp, xdrop));
                }
            }
            *best = best.min(t0.elapsed().as_secs_f64() * 1e9 / (rounds * seeds.len()) as f64);
        }
    }
    UngappedRow {
        shape,
        extensions: seeds.len(),
        mean_len: total_len as f64 / seeds.len() as f64,
        naive_ns: best_ns[0],
        shipped_ns: best_ns[1],
    }
}

/// The ungapped rows: homologies of a planted length (the query's own
/// residues between unrelated flanks, seeded mid-way), and the seeds the
/// extension kernel actually extends on a scan of `db`.
fn ungapped_rows(engine: &SearchEngine, db: &SequenceDb) -> Vec<UngappedRow> {
    let xdrop = engine.params.xdrop_ungapped;
    let long = query(1054);
    let pssm = Pssm::build(&long, &Matrix::blosum62());
    let flank = query(127);
    let mut rows = Vec::new();
    for len in [8usize, 16, 64, 256, 1000] {
        let subjects: Vec<Vec<u8>> = (0..16)
            .map(|i| {
                let q0 = i * 3;
                let mut s = flank.residues()[i..i + 40].to_vec();
                s.extend_from_slice(&long.residues()[q0..q0 + len]);
                s.extend_from_slice(&flank.residues()[60 + i..100 + i]);
                s
            })
            .collect();
        let seeds: Vec<(&[u8], u32, u32)> = subjects
            .iter()
            .enumerate()
            .map(|(i, s)| (&s[..], (i * 3 + len / 2) as u32, (40 + len / 2) as u32))
            .collect();
        rows.push(ungapped_row(format!("planted {len}"), &pssm, &seeds, xdrop));
    }

    // What the extension kernel is fed on a scan: the filtered hits of the
    // device hit path, walked per diagonal with the coverage check.
    let cfg = figure_config();
    let device = DeviceConfig::k20c();
    let ws = KernelWorkspace::new();
    let dq = DeviceQuery::upload(engine.dfa.clone(), engine.pssm.clone());
    let blocks = upload_blocks(db, cfg.db_block_size);
    let mut seeds: Vec<(&[u8], u32, u32)> = Vec::new();
    for block in &blocks {
        let (binned, _) = binning_kernel(&device, &cfg, &dq, block, &ws);
        let window = engine.params.two_hit_window as i64;
        let (filtered, _) = reorder_kernel(&device, binned, true, window, &ws);
        for task in filtered
            .hits
            .chunk_by(|&a, &b| group_key(a) == group_key(b))
        {
            let mut reach = 0u32;
            for &h in task {
                let (sid, spos) = (seq_id(h), subject_pos(h));
                if spos >= reach {
                    let s = block.seq(sid as usize);
                    let qpos = query_pos(h, dq.query_len());
                    reach = extend(&engine.pssm, s, sid, qpos, spos, xdrop).s_end();
                    seeds.push((s, qpos, spos));
                }
            }
        }
        filtered.recycle(&ws);
    }
    rows.push(ungapped_row(
        "scan mix".to_string(),
        &engine.pssm,
        &seeds,
        xdrop,
    ));
    rows
}

fn main() -> ExitCode {
    let scale = bench_scale();
    obsenv::arm_from_env();
    let dispatch = simd::dispatch_report();
    println!(
        "cpu simd dispatch: active {} (detected {}{})",
        dispatch.active.name(),
        dispatch.detected.name(),
        if dispatch.forced_scalar_env {
            ", CUBLASTP_FORCE_SCALAR=1"
        } else {
            ""
        }
    );
    let q: Sequence = query(517);
    let params = blast_core::SearchParams::default();

    let mut rows: Vec<Row> = Vec::new();
    let mut ungapped: Vec<UngappedRow> = Vec::new();
    for preset in [DbPreset::SwissprotMini, DbPreset::EnvNrMini] {
        let db = database(preset, &q);
        let engine = SearchEngine::new(q.clone(), params, &db);
        let (seeds, _) = collect_seeds(&engine, &db);
        if preset == DbPreset::EnvNrMini {
            ungapped = ungapped_rows(&engine, &db);
        }

        let scalar = best_pass(Some(IsaLevel::Scalar), &engine, &db, &seeds);
        let native = best_pass(None, &engine, &db, &seeds);

        // The whole point: the vector path must change nothing but time.
        assert_eq!(
            scalar.gapped, native.gapped,
            "SIMD gapped extensions must be bit-identical to scalar"
        );
        assert_eq!(
            scalar.alignments, native.alignments,
            "SIMD alignments must be bit-identical to scalar"
        );
        assert_eq!(
            scalar.itrace, native.itrace,
            "SIMD interval-traceback reports must be bit-identical to scalar"
        );
        assert_eq!(scalar.cells, native.cells, "band evolution must match");

        let traceback_ops: u64 = scalar.alignments.iter().map(|a| a.ops.len() as u64).sum();
        rows.push(Row {
            preset: preset.spec().name.to_string(),
            cells: scalar.cells,
            scalar_gapped_ms: scalar.gapped_ms,
            simd_gapped_ms: native.gapped_ms,
            scalar_traceback_ms: scalar.traceback_ms,
            simd_traceback_ms: native.traceback_ms,
            scalar_itrace_ms: scalar.itrace_ms,
            simd_itrace_ms: native.itrace_ms,
            traceback_ops,
            alignments: scalar.alignments.len() as u64,
        });
    }

    print_table(
        &format!("Gapped DP throughput — query517 (best of {REPS}, single thread)"),
        &[
            "db",
            "cells",
            "scalar ms",
            "simd ms",
            "scalar Mc/s",
            "simd Mc/s",
            "speedup",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.preset.clone(),
                    r.cells.to_string(),
                    format!("{:.2}", r.scalar_gapped_ms),
                    format!("{:.2}", r.simd_gapped_ms),
                    format!("{:.1}", r.scalar_cps() / 1e6),
                    format!("{:.1}", r.simd_cps() / 1e6),
                    format!("{:.2}x", r.scalar_gapped_ms / r.simd_gapped_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        &format!(
            "CPU alignment layers, scalar vs simd (best of {REPS}; stage = gapped + traceback)"
        ),
        &[
            "db",
            "layer",
            "scalar ms",
            "simd ms",
            "speedup",
            "alignments",
        ],
        &rows
            .iter()
            .flat_map(|r| {
                r.layers().map(|(layer, scalar_ms, simd_ms)| {
                    vec![
                        r.preset.clone(),
                        layer.to_string(),
                        format!("{scalar_ms:.2}"),
                        format!("{simd_ms:.2}"),
                        format!("{:.2}x", scalar_ms / simd_ms),
                        r.alignments.to_string(),
                    ]
                })
            })
            .collect::<Vec<_>>(),
    );

    print_table(
        &format!(
            "Ungapped x-drop walk, shipped vs naive (ns per extension, best of {}; \
             scan mix = what the extension kernel extends on env_nr_mini)",
            5 * REPS
        ),
        &[
            "extensions",
            "n",
            "mean len",
            "naive ns",
            "shipped ns",
            "speedup",
        ],
        &ungapped
            .iter()
            .map(|r| {
                vec![
                    r.shape.clone(),
                    r.extensions.to_string(),
                    format!("{:.1}", r.mean_len),
                    format!("{:.1}", r.naive_ns),
                    format!("{:.1}", r.shipped_ns),
                    format!("{:.2}x", r.naive_ns / r.shipped_ns),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // A vector body that loses to the scalar reference is a regression,
    // whatever the counts say.
    let mut report = Report::new("cpusimd");
    if dispatch.active > IsaLevel::Scalar {
        for r in &rows {
            for (layer, scalar_ms, simd_ms) in r.layers() {
                if simd_ms > scalar_ms {
                    report.fail(format_args!(
                        "{}: {layer} at {} ({simd_ms:.3} ms) must not be slower \
                         than scalar ({scalar_ms:.3} ms)",
                        r.preset,
                        dispatch.active.name(),
                    ));
                }
            }
        }
    }

    // Deterministic work counts only — this is what the perf gate checks.
    let medians = rows.iter().fold(Obj::new(), |o, r| {
        o.obj(
            r.preset.as_str(),
            Obj::new()
                .int("gapped_cells", r.cells)
                .int("traceback_ops", r.traceback_ops)
                .int("alignments", r.alignments),
        )
    });
    let presets = rows
        .iter()
        .map(|r| {
            let mut o = Obj::new()
                .text("db", &r.preset)
                .int("gapped_cells", r.cells)
                .fixed("scalar_cells_per_sec", r.scalar_cps(), 0)
                .fixed("simd_cells_per_sec", r.simd_cps(), 0);
            for (layer, scalar_ms, simd_ms) in r.layers() {
                o = o
                    .fixed(format!("scalar_{layer}_ms"), scalar_ms, 3)
                    .fixed(format!("simd_{layer}_ms"), simd_ms, 3)
                    .fixed(format!("{layer}_speedup"), scalar_ms / simd_ms, 3);
            }
            o.int("alignments", r.alignments)
        })
        .collect();
    let ungapped = ungapped
        .iter()
        .map(|r| {
            Obj::new()
                .text("extensions", &r.shape)
                .int("n", r.extensions as u64)
                .fixed("mean_len", r.mean_len, 2)
                .fixed("naive_ns", r.naive_ns, 1)
                .fixed("shipped_ns", r.shipped_ns, 1)
                .fixed("speedup", r.naive_ns / r.shipped_ns, 3)
        })
        .collect();
    report.finish(
        Obj::new()
            .int("query", 517)
            .num("scale", scale)
            .obj(
                "dispatch",
                Obj::new()
                    .text("active", dispatch.active.name())
                    .text("detected", dispatch.detected.name())
                    .flag("forced_scalar_env", dispatch.forced_scalar_env),
            )
            .obj("phase_medians", medians)
            .rows("presets", presets)
            .rows("ungapped", ungapped),
    )
}
