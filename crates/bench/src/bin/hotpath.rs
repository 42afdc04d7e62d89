//! The hit path kernel by kernel on the modelled clock, and what a
//! disarmed observability span costs on the host clock.
//!
//! Runs the hit path's kernels — hit detection → hit reordering →
//! ungapped extension, one launch each — over every database block of
//! both presets, beside the fused reordering its three stages
//! (assembling, sorting, filtering) one launch each, and the search's own
//! second launch, `hit_tail` (reordering as the extension's prologue), and
//! reports each kernel's median simulated time — deterministic for a given
//! `BENCH_SCALE`; these are the `phase_medians` the perf gate checks.
//! Asserted in-run: on every preset the fused reordering is cheaper than
//! its three stages launched apart, and on every block `hit_tail` costs no
//! more than `hit_reordering` + `ungapped_extension` and returns the same
//! extensions.
//!
//! The second table is the observability A/B: the search's two launches
//! per block, `hit_detection` and `hit_tail`, at batch 16 (one workspace
//! across the batch, as `search_batch_with` runs them) plain,
//! with the pipeline's per-kernel spans compiled in but disarmed, and
//! armed — next to the same estimator's reading between two plain series,
//! its noise floor on this host. Results go to stdout and
//! `BENCH_hotpath.json`.

use bench::obsenv;
use bench::report::{Obj, Report};
use bench::runners::{figure_config, staged_reorder, upload_blocks};
use bench::table::print_table;
use bench::{bench_scale, database, query};
use bio_seq::generate::DbPreset;
use blast_core::{Dfa, Matrix, Pssm, SearchParams};
use cublastp::binning::binning_kernel;
use cublastp::devicedata::{DeviceDbBlock, DeviceQuery};
use cublastp::extension::{extension_kernel, hit_tail_kernel, HIT_TAIL_KERNEL};
use cublastp::reorder::reorder_kernel;
use cublastp::CuBlastpConfig;
use gpu_sim::{DeviceConfig, KernelWorkspace};
use std::process::ExitCode;
use std::time::Instant;

/// Batch size of the observability A/B (one workspace across the batch,
/// so its cold allocations amortize exactly as `search_batch_with`'s do).
const AB_BATCH: usize = 16;
/// Repetitions of the A/B; the best run of each variant is reported. The
/// quantity under test (a disarmed span's cost, one relaxed atomic load)
/// is far below the run-to-run noise floor and needs a tight minimum.
const AB_REPS: usize = 9;

/// The paper's launches, the reorder stages launched apart, and the
/// search's fused hit tail.
const KERNELS: [&str; 7] = [
    "hit_detection",
    "hit_reordering",
    "ungapped_extension",
    "hit_assembling",
    "hit_sorting",
    "hit_filtering",
    HIT_TAIL_KERNEL,
];

/// The inputs every pass shares.
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

    /// Median simulated time of each of [`KERNELS`] over the blocks, and
    /// the blocks whose `hit_tail` cost more than its two launches apart
    /// or returned other extensions.
    fn modelled_medians(&self) -> ([f64; 7], Vec<usize>) {
        let (device, cfg, dq) = (self.device, self.cfg, self.dq);
        let ws = KernelWorkspace::new();
        let mut sim: [Vec<f64>; 7] = Default::default();
        let mut dearer = Vec::new();
        for (i, block) in self.blocks.iter().enumerate() {
            let (binned, k_bin) = binning_kernel(device, cfg, dq, block, &ws);
            let (filtered, k_reorder) = reorder_kernel(device, binned, true, self.window(), &ws);
            let ext = extension_kernel(device, cfg, dq, block, &filtered, self.params);
            // The same arena again, a stage per launch.
            let (binned, _) = binning_kernel(device, cfg, dq, block, &ws);
            let (staged, [k_asm, k_sort, k_filter]) =
                staged_reorder(device, cfg, binned, self.window(), &ws);
            assert_eq!(staged.hits, filtered.hits, "one launch or three");
            staged.recycle(&ws);
            filtered.recycle(&ws);
            // The same arena again, through the search's fused tail.
            let (binned, _) = binning_kernel(device, cfg, dq, block, &ws);
            let tail = hit_tail_kernel(device, cfg, dq, block, binned, self.params, &ws);
            let k_tail = &tail.result.stats;
            let apart = k_reorder.time_ms(device) + ext.stats.time_ms(device);
            if k_tail.time_ms(device) > apart || tail.result.extensions != ext.extensions {
                dearer.push(i);
            }
            let kernels = [
                &k_bin, &k_reorder, &ext.stats, &k_asm, &k_sort, &k_filter, k_tail,
            ];
            for (acc, k) in sim.iter_mut().zip(kernels) {
                acc.push(k.time_ms(device));
            }
        }
        (sim.map(|mut xs| obsenv::median(&mut xs)), dearer)
    }

    /// Host wall-clock (ms) of the search's launches per block,
    /// `hit_detection` then `hit_tail`, over [`AB_BATCH`] passes, no spans
    /// compiled in: the plain side of the A/B.
    fn plain_batch(&self) -> f64 {
        let (device, cfg, dq) = (self.device, self.cfg, self.dq);
        let ws = KernelWorkspace::new();
        let mut ms = 0.0;
        for _ in 0..AB_BATCH {
            for block in self.blocks {
                let t0 = Instant::now();
                let (binned, _) = binning_kernel(device, cfg, dq, block, &ws);
                let _tail = hit_tail_kernel(device, cfg, dq, block, binned, self.params, &ws);
                ms += t0.elapsed().as_secs_f64() * 1e3;
            }
        }
        ms
    }

    /// [`Self::plain_batch`] with the same per-kernel span instrumentation
    /// the search pipeline carries — the A/B subject for the
    /// disarmed-overhead contract (a disarmed span must cost one relaxed
    /// atomic load).
    fn spanned_batch(&self) -> f64 {
        let (device, cfg, dq) = (self.device, self.cfg, self.dq);
        let ws = KernelWorkspace::new();
        let mut ms = 0.0;
        for _ in 0..AB_BATCH {
            for (bi, block) in self.blocks.iter().enumerate() {
                let bi = bi as u32;
                let t0 = Instant::now();
                let mut s = obs::span("hit_detection", "kernel").with_block(bi);
                let (binned, k) = binning_kernel(device, cfg, dq, block, &ws);
                s.set_arg("sim_ms", k.time_ms(device));
                drop(s);
                let mut s = obs::span(HIT_TAIL_KERNEL, "kernel").with_block(bi);
                let tail = hit_tail_kernel(device, cfg, dq, block, binned, self.params, &ws);
                s.set_arg("sim_ms", tail.result.stats.time_ms(device));
                drop(s);
                ms += t0.elapsed().as_secs_f64() * 1e3;
            }
        }
        ms
    }
}

struct ObsRow {
    preset: &'static str,
    plain_ms: f64,
    disarmed_ms: f64,
    armed_ms: f64,
    /// `(disarmed − plain) / plain` of the best-of-[`AB_REPS`] times above.
    overhead_pct: f64,
    /// The range, over the interleaved reps, of the gap between two plain
    /// runs of one rep: how far apart two readings of nothing land.
    noise_floor_pct: f64,
}

fn main() -> ExitCode {
    let scale = bench_scale();
    obsenv::arm_from_env();
    let device = DeviceConfig::k20c();
    let params = SearchParams::default();
    let cfg = figure_config();
    let q = query(517);
    let m = Matrix::blosum62();
    let dq = DeviceQuery::upload(Dfa::build(&q, &m, params.threshold), Pssm::build(&q, &m));

    let mut report = Report::new("hotpath");
    let mut medians: Vec<(&'static str, [f64; 7])> = Vec::new();
    let mut obs_rows: Vec<ObsRow> = Vec::new();
    for preset in [DbPreset::SwissprotMini, DbPreset::EnvNrMini] {
        let db = database(preset, &q);
        let blocks = upload_blocks(&db, cfg.db_block_size);
        let w = Workload {
            device: &device,
            cfg: &cfg,
            params: &params,
            dq: &dq,
            blocks: &blocks,
        };
        let (ms, dearer) = w.modelled_medians();
        if !dearer.is_empty() {
            report.fail(format_args!(
                "{}: hit_tail costs more than hit_reordering + ungapped_extension, or \
                 returns other extensions, on blocks {dearer:?}",
                preset.name()
            ));
        }
        let [_, fused_ms, ext_ms, assemble_ms, sort_ms, filter_ms, tail_ms] = ms;
        if tail_ms > fused_ms + ext_ms {
            report.fail(format_args!(
                "{}: hit_tail {tail_ms} ms is dearer than hit_reordering + \
                 ungapped_extension ({fused_ms} + {ext_ms})",
                preset.name()
            ));
        }
        if fused_ms >= assemble_ms + sort_ms + filter_ms {
            report.fail(format_args!(
                "{}: hit_reordering {fused_ms} ms is no cheaper than its stages apart \
                 ({assemble_ms} + {sort_ms} + {filter_ms})",
                preset.name()
            ));
        }
        medians.push((preset.name(), ms));

        // Observability A/B: the plain loop (no spans compiled in), the
        // instrumented loop disarmed, and the instrumented loop fully
        // armed. Disarmed-vs-plain is the overhead contract; armed is
        // informational. The variants are interleaved within each rep so
        // slow drift (thermal, cache pressure) hits all of them alike,
        // and best-of filters the rest. Every rep runs the plain loop
        // twice: the spread of those plain-vs-plain gaps over the reps is
        // the noise floor on this host.
        let was_tracing = obs::tracing_enabled();
        let was_metrics = obs::metrics_enabled();
        let [mut plain_ms, mut disarmed_ms, mut armed_ms] = [f64::INFINITY; 3];
        let mut gaps = Vec::with_capacity(AB_REPS);
        obs::disarm();
        // One untimed warmup so the first timed variant does not absorb
        // the cold caches left by the modelled pass.
        let _ = w.plain_batch();
        for _ in 0..AB_REPS {
            obs::disarm();
            let plain = w.plain_batch();
            disarmed_ms = disarmed_ms.min(w.spanned_batch());
            let plain_b = w.plain_batch();
            plain_ms = plain_ms.min(plain);
            gaps.push(100.0 * (plain_b - plain) / plain);
            obs::arm(true, true);
            armed_ms = armed_ms.min(w.spanned_batch());
        }
        // Restore the env-requested state. The armed runs' spans stay in
        // the trace buffer, so a TRACE_OUT trace shows the A/B itself;
        // without TRACE_OUT the buffer is dropped below.
        obs::arm(was_tracing, was_metrics);
        if !was_tracing {
            obs::take_trace();
        }
        // The overhead is the gap between the best-of-AB_REPS times, which
        // are the two numbers printed beside it. A disarmed span is one
        // relaxed atomic load — nanoseconds against a hundreds-of-ms
        // workload — so a reading inside the noise floor is a zero.
        let spread = |f: fn(f64, f64) -> f64, from| gaps.iter().copied().fold(from, f);
        obs_rows.push(ObsRow {
            preset: preset.name(),
            plain_ms,
            disarmed_ms,
            armed_ms,
            overhead_pct: 100.0 * (disarmed_ms - plain_ms) / plain_ms,
            noise_floor_pct: spread(f64::max, f64::NEG_INFINITY) - spread(f64::min, f64::INFINITY),
        });
    }

    print_table(
        "Hit-path kernels — query517 (simulated ms, median over database blocks)",
        &[&["db"][..], &KERNELS[..]].concat(),
        &medians
            .iter()
            .map(|(name, ms)| {
                let mut row = vec![name.to_string()];
                row.extend(ms.iter().map(|v| format!("{v:.6}")));
                row
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        &format!(
            "Observability overhead — hit_detection + hit_tail, batch {AB_BATCH} (host ms, best of {AB_REPS})"
        ),
        &[
            "db",
            "plain",
            "disarmed",
            "armed",
            "disarmed overhead",
            "noise floor",
            "reading",
        ],
        &obs_rows
            .iter()
            .map(|r| {
                vec![
                    r.preset.to_string(),
                    format!("{:.2}", r.plain_ms),
                    format!("{:.2}", r.disarmed_ms),
                    format!("{:.2}", r.armed_ms),
                    format!("{:+.2}%", r.overhead_pct),
                    format!("{:.2}%", r.noise_floor_pct),
                    if r.overhead_pct.abs() <= r.noise_floor_pct {
                        "within noise"
                    } else {
                        "above noise"
                    }
                    .to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let phase_medians = medians.iter().fold(Obj::new(), |tree, (name, ms)| {
        let kernels = KERNELS
            .iter()
            .zip(ms)
            .fold(Obj::new(), |o, (kernel, v)| o.fixed(*kernel, *v, 6));
        tree.obj(*name, kernels)
    });
    let obs_overhead = obs_rows
        .iter()
        .map(|r| {
            Obj::new()
                .text("db", r.preset)
                .fixed("plain_ms", r.plain_ms, 3)
                .fixed("disarmed_ms", r.disarmed_ms, 3)
                .fixed("armed_ms", r.armed_ms, 3)
                .fixed("disarmed_overhead_pct", r.overhead_pct, 3)
                .fixed("noise_floor_pct", r.noise_floor_pct, 3)
        })
        .collect();
    report.finish(
        Obj::new()
            .int("query", 517)
            .num("scale", scale)
            .text("kernels", &KERNELS.join(" "))
            .obj("phase_medians", phase_medians)
            .rows("obs_overhead", obs_overhead),
    )
}
