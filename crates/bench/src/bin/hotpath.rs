//! Host wall-clock of the hit path — flat arena vs the pre-arena code.
//!
//! The simulator's cost model is deterministic, so the arena rework's
//! *simulated* figures are bit-identical by contract (held in
//! `tests/hotpath_stats.rs`). What the rework actually buys is host time:
//! the simulator is driven by real host code, and the ragged
//! `Vec<Vec<u64>>` bins, Mutex collectors and flatten-concat copies of
//! the old path were pure overhead. This binary measures that directly:
//! hit detection → assembling → sorting → filtering over every database
//! block, legacy vs arena, at batch sizes 1 and 16 (the batch amortizes
//! the workspace's cold allocations exactly as `search_batch` does) —
//! and, in a column of its own, the ungapped-extension kernel that
//! consumes the survivors, against its own earlier self in
//! `bench::legacy`.
//!
//! Both paths must produce identical surviving hits and identical
//! extensions — asserted per block. Results go to stdout and
//! `BENCH_hotpath.json`.

use bench::legacy;
use bench::obsenv;
use bench::runners::figure_config;
use bench::table::print_table;
use bench::{bench_scale, database, query};
use bio_seq::generate::DbPreset;
use blast_core::{Dfa, Matrix, Pssm, SearchParams};
use cublastp::binning::binning_kernel;
use cublastp::devicedata::{DeviceDbBlock, DeviceQuery};
use cublastp::extension::extension_kernel;
use cublastp::reorder::{assemble_kernel, filter_kernel, sort_kernel};
use cublastp::CuBlastpConfig;
use gpu_sim::{DeviceConfig, KernelWorkspace};
use std::time::Instant;

const BATCHES: [usize; 2] = [1, 16];
/// Timed repetitions per cell; the best run is reported (the host may be
/// a shared core, and the minimum is the least noisy location estimate
/// for a deterministic workload).
const REPS: usize = 3;
/// Repetitions for the observability A/B; more than [`REPS`] because the
/// quantity under test (a disarmed span's cost, one relaxed atomic load)
/// is far below the run-to-run noise floor and needs a tight minimum.
const AB_REPS: usize = 9;

/// One side of one sweep cell: wall-clock of kernels 1–4, wall-clock of
/// kernel 5, and what they produced (for the identity assertion).
#[derive(Clone, Copy, Default)]
struct Timed {
    hit_ms: f64,
    ext_ms: f64,
    survivors: u64,
    extensions: u64,
}

impl Timed {
    fn min(self, other: Timed) -> Timed {
        Timed {
            hit_ms: self.hit_ms.min(other.hit_ms),
            ext_ms: self.ext_ms.min(other.ext_ms),
            ..self
        }
    }
}

struct Row {
    batch: usize,
    legacy: Timed,
    arena: Timed,
}

/// The inputs every batch function shares.
struct Workload<'a> {
    device: &'a DeviceConfig,
    cfg: &'a CuBlastpConfig,
    params: &'a SearchParams,
    dq: &'a DeviceQuery,
    blocks: &'a [DeviceDbBlock],
}

impl Workload<'_> {
    fn window(&self) -> i64 {
        self.params.two_hit_window as i64
    }

    fn legacy_batch(&self, batch: usize) -> Timed {
        let (device, cfg, dq) = (self.device, self.cfg, self.dq);
        let mut t = Timed::default();
        for _ in 0..batch {
            for block in self.blocks {
                let t0 = Instant::now();
                let (binned, _) = legacy::binning_kernel(device, cfg, dq, block);
                let (mut asm, _) = legacy::assemble_kernel(device, cfg, binned);
                legacy::sort_kernel(device, &mut asm);
                let (filtered, _) = legacy::filter_kernel(device, cfg, &asm, self.window());
                let t1 = Instant::now();
                let ext = legacy::extension_kernel(device, cfg, dq, block, &filtered, self.params);
                t.ext_ms += t1.elapsed().as_secs_f64() * 1e3;
                t.hit_ms += (t1 - t0).as_secs_f64() * 1e3;
                t.survivors += filtered.hits.len() as u64;
                t.extensions += ext.extensions.len() as u64;
            }
        }
        t
    }

    /// The arena path; `ext = false` stops after kernel 4 (the plain side
    /// of the observability A/B, which instruments kernels 1–4).
    fn arena_batch(&self, batch: usize, ext: bool) -> Timed {
        let (device, cfg, dq) = (self.device, self.cfg, self.dq);
        let ws = KernelWorkspace::new();
        let mut t = Timed::default();
        for _ in 0..batch {
            for block in self.blocks {
                let t0 = Instant::now();
                let (binned, _) = binning_kernel(device, cfg, dq, block, &ws);
                let (mut asm, _) = assemble_kernel(device, cfg, binned, &ws);
                sort_kernel(device, &mut asm, &ws);
                let (filtered, _) = filter_kernel(device, cfg, &asm, self.window(), &ws);
                let t1 = Instant::now();
                t.hit_ms += (t1 - t0).as_secs_f64() * 1e3;
                t.survivors += filtered.hits.len() as u64;
                if ext {
                    let r = extension_kernel(device, cfg, dq, block, &filtered, self.params);
                    t.ext_ms += t1.elapsed().as_secs_f64() * 1e3;
                    t.extensions += r.extensions.len() as u64;
                }
                asm.recycle(&ws);
                filtered.recycle(&ws);
            }
        }
        t
    }

    /// Kernels 1–4 of the arena batch with the same per-kernel span
    /// instrumentation the search pipeline carries — the A/B subject for
    /// the disarmed-overhead contract (a disarmed span must cost one
    /// relaxed atomic load). Returns wall-clock ms.
    fn arena_batch_spanned(&self, batch: usize) -> f64 {
        let (device, cfg, dq) = (self.device, self.cfg, self.dq);
        let ws = KernelWorkspace::new();
        let mut ms = 0.0;
        for _ in 0..batch {
            for (bi, block) in self.blocks.iter().enumerate() {
                let bi = bi as u32;
                let t0 = Instant::now();
                let mut s = obs::span("hit_detection", "kernel").with_block(bi);
                let (binned, k) = binning_kernel(device, cfg, dq, block, &ws);
                s.set_arg("sim_ms", k.time_ms(device));
                drop(s);
                let mut s = obs::span("hit_assembling", "kernel").with_block(bi);
                let (mut asm, k) = assemble_kernel(device, cfg, binned, &ws);
                s.set_arg("sim_ms", k.time_ms(device));
                drop(s);
                let mut s = obs::span("hit_sorting", "kernel").with_block(bi);
                let k = sort_kernel(device, &mut asm, &ws);
                s.set_arg("sim_ms", k.time_ms(device));
                drop(s);
                let mut s = obs::span("hit_filtering", "kernel").with_block(bi);
                let (filtered, k) = filter_kernel(device, cfg, &asm, self.window(), &ws);
                s.set_arg("sim_ms", k.time_ms(device));
                drop(s);
                ms += t0.elapsed().as_secs_f64() * 1e3;
                asm.recycle(&ws);
                filtered.recycle(&ws);
            }
        }
        ms
    }
}

struct ObsRow {
    preset: String,
    plain_ms: f64,
    disarmed_ms: f64,
    armed_ms: f64,
    /// `(disarmed − plain) / plain` of the best-of-[`AB_REPS`] times above.
    overhead_pct: f64,
    /// The same estimator between two plain series: what it reads when
    /// there is nothing to measure.
    noise_floor_pct: f64,
}

fn main() {
    let scale = bench_scale();
    obsenv::arm_from_env();
    let device = DeviceConfig::k20c();
    let params = SearchParams::default();
    let cfg = figure_config();
    let q = query(517);
    let m = Matrix::blosum62();
    let dq = DeviceQuery::upload(Dfa::build(&q, &m, params.threshold), Pssm::build(&q, &m));

    let mut sections: Vec<(String, Vec<Row>)> = Vec::new();
    let mut medians: Vec<(String, Vec<(&'static str, f64)>)> = Vec::new();
    let mut obs_rows: Vec<ObsRow> = Vec::new();
    for preset in [DbPreset::SwissprotMini, DbPreset::EnvNrMini] {
        let db = database(preset, &q);
        let blocks: Vec<DeviceDbBlock> = db
            .blocks(cfg.db_block_size)
            .into_iter()
            .map(|b| DeviceDbBlock::upload(db.block_sequences(b), b.start))
            .collect();
        let w = Workload {
            device: &device,
            cfg: &cfg,
            params: &params,
            dq: &dq,
            blocks: &blocks,
        };

        // Functional identity: both paths keep exactly the same hits and
        // compute exactly the same extensions, at the same modelled cost.
        // The same pass collects per-block simulated kernel times for the
        // perf-gate medians (deterministic for a given BENCH_SCALE).
        let ws = KernelWorkspace::new();
        let mut sim: [Vec<f64>; 5] = Default::default();
        for block in &blocks {
            let (legacy_hits, _) = legacy::hit_path(&device, &cfg, &dq, block, w.window());
            let (binned, k0) = binning_kernel(&device, &cfg, &dq, block, &ws);
            let (mut asm, k1) = assemble_kernel(&device, &cfg, binned, &ws);
            let k2 = sort_kernel(&device, &mut asm, &ws);
            let (filtered, k3) = filter_kernel(&device, &cfg, &asm, w.window(), &ws);
            assert_eq!(
                legacy_hits, filtered.hits,
                "arena path must keep exactly the legacy survivors"
            );
            let legacy_filtered = legacy::LegacyFilteredHits {
                hits: legacy_hits,
                before: filtered.before,
            };
            let want =
                legacy::extension_kernel(&device, &cfg, &dq, block, &legacy_filtered, &params);
            let got = extension_kernel(&device, &cfg, &dq, block, &filtered, &params);
            assert_eq!(
                (&got.extensions, &got.stats, got.redundant),
                (&want.extensions, &want.stats, want.redundant),
                "extension kernel must match its legacy self"
            );
            asm.recycle(&ws);
            filtered.recycle(&ws);
            for (acc, k) in sim.iter_mut().zip([&k0, &k1, &k2, &k3, &got.stats]) {
                acc.push(k.time_ms(&device));
            }
        }
        medians.push((
            preset.spec().name.to_string(),
            [
                "hit_detection",
                "hit_assembling",
                "hit_sorting",
                "hit_filtering",
                "ungapped_extension",
            ]
            .into_iter()
            .zip(sim.iter_mut().map(|xs| obsenv::median(xs)))
            .collect(),
        ));

        let mut rows = Vec::new();
        for batch in BATCHES {
            let (legacy, arena) = (0..REPS)
                .map(|_| {
                    let l = w.legacy_batch(batch);
                    let a = w.arena_batch(batch, true);
                    assert_eq!(l.survivors, a.survivors, "survivor counts must match");
                    assert_eq!(l.extensions, a.extensions, "extension counts must match");
                    (l, a)
                })
                .reduce(|(bl, ba), (l, a)| (bl.min(l), ba.min(a)))
                .expect("REPS > 0");
            rows.push(Row {
                batch,
                legacy,
                arena,
            });
        }

        // Observability A/B at the largest batch: the plain loop (no
        // spans compiled in), the instrumented loop disarmed, and the
        // instrumented loop fully armed. Disarmed-vs-plain is the
        // overhead contract; armed is informational. The variants are
        // interleaved within each rep so slow drift (thermal, cache
        // pressure) hits all of them alike, and best-of filters the rest.
        // A second plain series runs alongside: the estimator applied to
        // plain-vs-plain is its noise floor on this host.
        let ab_batch = *BATCHES.last().unwrap();
        let was_tracing = obs::tracing_enabled();
        let was_metrics = obs::metrics_enabled();
        let [mut plain_ms, mut plain_b_ms, mut disarmed_ms, mut armed_ms] = [f64::INFINITY; 4];
        obs::disarm();
        // One untimed warmup so the first timed variant does not absorb
        // the cold caches left by the preceding sweep.
        let _ = w.arena_batch(ab_batch, false);
        for _ in 0..AB_REPS {
            obs::disarm();
            plain_ms = plain_ms.min(w.arena_batch(ab_batch, false).hit_ms);
            disarmed_ms = disarmed_ms.min(w.arena_batch_spanned(ab_batch));
            plain_b_ms = plain_b_ms.min(w.arena_batch(ab_batch, false).hit_ms);
            obs::arm(true, true);
            armed_ms = armed_ms.min(w.arena_batch_spanned(ab_batch));
        }
        // Restore the env-requested state. The armed runs' spans stay in
        // the trace buffer, so a TRACE_OUT trace shows the A/B itself;
        // without TRACE_OUT the buffer is dropped below.
        obs::arm(was_tracing, was_metrics);
        if !was_tracing {
            obs::take_trace();
        }
        // One estimator: the gap between the best-of-AB_REPS times, which
        // are the two numbers printed beside it. A disarmed span is one
        // relaxed atomic load — nanoseconds against a hundreds-of-ms
        // workload — so a reading inside the noise floor is a zero.
        obs_rows.push(ObsRow {
            preset: preset.spec().name.to_string(),
            plain_ms,
            disarmed_ms,
            armed_ms,
            overhead_pct: 100.0 * (disarmed_ms - plain_ms) / plain_ms,
            noise_floor_pct: 100.0 * (plain_b_ms - plain_ms).abs() / plain_ms,
        });

        sections.push((preset.spec().name.to_string(), rows));
    }

    for (name, rows) in &sections {
        print_table(
            &format!("Hit-path host wall-clock — query517 × {name} (ms, best of {REPS})"),
            &[
                "batch",
                "legacy 1-4",
                "arena 1-4",
                "speedup",
                "legacy ext",
                "ext",
                "ext speedup",
            ],
            &rows
                .iter()
                .map(|r| {
                    vec![
                        r.batch.to_string(),
                        format!("{:.2}", r.legacy.hit_ms),
                        format!("{:.2}", r.arena.hit_ms),
                        format!("{:.2}x", r.legacy.hit_ms / r.arena.hit_ms),
                        format!("{:.2}", r.legacy.ext_ms),
                        format!("{:.2}", r.arena.ext_ms),
                        format!("{:.2}x", r.legacy.ext_ms / r.arena.ext_ms),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    print_table(
        &format!(
            "Observability overhead — arena hit path, batch {} (ms, best of {AB_REPS})",
            BATCHES.last().unwrap()
        ),
        &[
            "db",
            "plain",
            "disarmed",
            "armed",
            "disarmed overhead",
            "noise floor",
        ],
        &obs_rows
            .iter()
            .map(|r| {
                vec![
                    r.preset.clone(),
                    format!("{:.2}", r.plain_ms),
                    format!("{:.2}", r.disarmed_ms),
                    format!("{:.2}", r.armed_ms),
                    format!("{:+.2}%", r.overhead_pct),
                    format!("±{:.2}%", r.noise_floor_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let json = render_json(&sections, &medians, &obs_rows, scale);
    let path = "BENCH_hotpath.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
    obsenv::write_exports();
}

fn render_json(
    sections: &[(String, Vec<Row>)],
    medians: &[(String, Vec<(&'static str, f64)>)],
    obs_rows: &[ObsRow],
    scale: f64,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"hotpath\",\n");
    out.push_str("  \"query\": 517,\n");
    out.push_str(&format!("  \"scale\": {scale},\n"));
    out.push_str("  \"kernels\": \"hit_detection..ungapped_extension\",\n");
    out.push_str("  \"phase_medians\": {\n");
    for (pi, (name, kernels)) in medians.iter().enumerate() {
        out.push_str(&format!("    \"{name}\": {{"));
        for (ki, (kernel, ms)) in kernels.iter().enumerate() {
            out.push_str(&format!(
                "\"{kernel}\": {ms:.6}{}",
                if ki + 1 < kernels.len() { ", " } else { "" }
            ));
        }
        out.push_str(&format!(
            "}}{}\n",
            if pi + 1 < medians.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"obs_overhead\": [\n");
    for (ri, r) in obs_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"db\": \"{}\", \"plain_ms\": {:.3}, \"disarmed_ms\": {:.3}, \
             \"armed_ms\": {:.3}, \"disarmed_overhead_pct\": {:.3}, \
             \"noise_floor_pct\": {:.3}}}{}\n",
            r.preset,
            r.plain_ms,
            r.disarmed_ms,
            r.armed_ms,
            r.overhead_pct,
            r.noise_floor_pct,
            if ri + 1 < obs_rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"presets\": [\n");
    for (pi, (name, rows)) in sections.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"db\": \"{name}\",\n"));
        out.push_str("      \"sweep\": [\n");
        for (ri, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"batch\": {}, \"legacy_ms\": {:.3}, \"arena_ms\": {:.3}, \
                 \"speedup\": {:.3}, \"legacy_ext_ms\": {:.3}, \"ext_ms\": {:.3}, \
                 \"ext_speedup\": {:.3}}}{}\n",
                r.batch,
                r.legacy.hit_ms,
                r.arena.hit_ms,
                r.legacy.hit_ms / r.arena.hit_ms,
                r.legacy.ext_ms,
                r.arena.ext_ms,
                r.legacy.ext_ms / r.arena.ext_ms,
                if ri + 1 < rows.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if pi + 1 < sections.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}
