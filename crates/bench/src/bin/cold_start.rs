//! `cold_start` — time-to-first-search from a persistent database image.
//!
//! The deployment question behind DESIGN.md §3.9: a service restarts (or
//! a new replica boots) and must start answering searches. Without a
//! persistent format it regenerates the database and flattens it into
//! device layout; with one it maps a prebuilt `.cdb` image and installs
//! the stored layout directly, no flatten pass. This bench measures both
//! cold paths on both presets and asserts, not just reports:
//!
//! 1. **Image load beats regenerate-and-flatten** — the mapped cold
//!    start's median wall-clock is strictly below the regenerate path's.
//! 2. **Zero flatten passes** — loading and searching the image never
//!    runs the flatten loop (`cublastp::flatten_count` is unchanged).
//! 3. **Bit-identical results** — a search on the mapped generation has
//!    the same [`identity_key`](blast_core) as one on the flattened copy.
//! 4. **No steady-state tax** — once resident, searching the mapped
//!    layout stays within ±15% of the owned layout's median wall-clock
//!    (re-measured on violation: a genuine tax is reproducible, a CI
//!    noise spike is not).
//!
//! The committed gate (`ci/baselines/cold_start.json`) covers the four
//! violation counters (all baseline 0 — any violation regresses the
//! gate); raw millisecond numbers vary with the host and stay
//! informational.

use bench::report::{Obj, Report};
use bench::{bench_scale, obsenv, query};
use bio_seq::generate::{generate_db, DbPreset};
use bio_seq::{Sequence, SequenceDb};
use blast_core::SearchParams;
use cublastp::{CuBlastp, CuBlastpConfig, DeviceDb};
use cublastp_db::DbImage;
use gpu_sim::DeviceConfig;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Timed samples per measurement (median reported).
const SAMPLES: usize = 5;
/// Re-measurements allowed before a wall-clock violation counts.
const RETRIES: usize = 2;
/// Steady-state tolerance: mapped vs owned search median.
const STEADY_TOLERANCE: f64 = 0.15;

struct PresetRow {
    name: &'static str,
    regen_flatten_ms: f64,
    image_load_ms: f64,
    image_bytes: usize,
    steady_owned_ms: f64,
    steady_mapped_ms: f64,
    map_slower_violation: f64,
    flatten_passes: f64,
    result_mismatch: f64,
    steady_state_violation: f64,
}

fn median_of<T>(mut f: impl FnMut() -> (f64, T)) -> (f64, T) {
    let mut samples = Vec::with_capacity(SAMPLES);
    let mut last = None;
    for _ in 0..SAMPLES {
        let (ms, v) = f();
        samples.push(ms);
        last = Some(v);
    }
    (obsenv::median(&mut samples), last.expect("SAMPLES > 0"))
}

fn run_preset(preset: DbPreset, q: &Sequence, dir: &std::path::Path) -> PresetRow {
    let name = preset.spec().name;
    let spec = preset.spec().scaled(bench_scale());
    let cfg = CuBlastpConfig::default();
    let params = SearchParams::default();
    let device = DeviceConfig::k20c();

    // The prebuilt image a restarting replica would map (built once,
    // outside every timed window — build cost is paid at deploy time).
    let db = generate_db(&spec, q).db;
    let path = dir.join(format!("{name}.cdb"));
    let built = match cublastp_db::build_to_file(&db, cfg.db_block_size, &path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cold_start: {name}: image build failed: {e}");
            std::process::exit(2);
        }
    };

    // Cold path A: regenerate the database and flatten it to device layout.
    let (mut regen_flatten_ms, owned_dev) = median_of(|| {
        let t0 = Instant::now();
        let db = generate_db(&spec, q).db;
        let dev = DeviceDb::upload(&db, cfg.db_block_size);
        (t0.elapsed().as_secs_f64() * 1e3, dev)
    });

    // Cold path B: map the image and install the stored layout directly.
    let flattens_before = cublastp::flatten_count();
    let (mut image_load_ms, (img, mapped_dev)) = median_of(|| {
        let t0 = Instant::now();
        let img = match DbImage::open(&path) {
            Ok(img) => img,
            Err(e) => {
                eprintln!("cold_start: {name}: image load failed: {e}");
                std::process::exit(2);
            }
        };
        let dev = DeviceDb::from_image(&img, 0..img.num_sequences());
        (t0.elapsed().as_secs_f64() * 1e3, (img, dev))
    });

    // Property 1, with re-measurement: a real loss is reproducible.
    let mut map_slower_violation = 0.0;
    for attempt in 0..=RETRIES {
        if image_load_ms < regen_flatten_ms {
            break;
        }
        eprintln!(
            "cold_start: {name}: image load {image_load_ms:.2} ms did not beat \
             regenerate+flatten {regen_flatten_ms:.2} ms (attempt {})",
            attempt + 1
        );
        if attempt == RETRIES {
            map_slower_violation = 1.0;
            break;
        }
        (regen_flatten_ms, _) = median_of(|| {
            let t0 = Instant::now();
            let db = generate_db(&spec, q).db;
            let dev = DeviceDb::upload(&db, cfg.db_block_size);
            (t0.elapsed().as_secs_f64() * 1e3, dev)
        });
        (image_load_ms, _) = median_of(|| {
            let t0 = Instant::now();
            let img = DbImage::open(&path).expect("image validated above");
            let dev = DeviceDb::from_image(&img, 0..img.num_sequences());
            (t0.elapsed().as_secs_f64() * 1e3, (img, dev))
        });
    }

    // Property 3: searches on the two layouts are bit-identical.
    let host_db = img.to_sequence_db();
    let owned_dev = Arc::new(owned_dev);
    let mapped_dev = Arc::new(mapped_dev);
    let search = |db: &SequenceDb, dev: &Arc<DeviceDb>| {
        let searcher = CuBlastp::new(q.clone(), params, cfg, device, db);
        match searcher.search_resident(db, dev) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cold_start: {name}: search failed: {e}");
                std::process::exit(4);
            }
        }
    };
    let owned_report = search(&db, &owned_dev).report;
    let mapped_report = search(&host_db, &mapped_dev).report;
    let result_mismatch = f64::from(owned_report.identity_key() != mapped_report.identity_key());
    if result_mismatch > 0.0 {
        eprintln!("cold_start: {name}: mapped search diverged from flattened search");
    }

    // Property 2: the whole mapped lifecycle ran zero flatten passes.
    let flatten_passes = (cublastp::flatten_count() - flattens_before) as f64;
    if flatten_passes > 0.0 {
        eprintln!("cold_start: {name}: image path ran {flatten_passes} flatten pass(es)");
    }

    // Property 4: steady-state parity, re-measured on violation.
    let steady = |db: &SequenceDb, dev: &Arc<DeviceDb>| {
        let mut samples = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let t0 = Instant::now();
            search(db, dev);
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        obsenv::median(&mut samples)
    };
    let mut steady_owned_ms = steady(&db, &owned_dev);
    let mut steady_mapped_ms = steady(&host_db, &mapped_dev);
    let mut steady_state_violation = 0.0;
    for attempt in 0..=RETRIES {
        let ratio = steady_mapped_ms / steady_owned_ms.max(1e-9);
        if (1.0 - STEADY_TOLERANCE..=1.0 + STEADY_TOLERANCE).contains(&ratio) {
            break;
        }
        eprintln!(
            "cold_start: {name}: steady-state mapped/owned ratio {ratio:.3} outside \
             ±{STEADY_TOLERANCE} (attempt {})",
            attempt + 1
        );
        if attempt == RETRIES {
            steady_state_violation = 1.0;
            break;
        }
        steady_owned_ms = steady(&db, &owned_dev);
        steady_mapped_ms = steady(&host_db, &mapped_dev);
    }

    std::fs::remove_file(&path).ok();
    PresetRow {
        name,
        regen_flatten_ms,
        image_load_ms,
        image_bytes: built.bytes,
        steady_owned_ms,
        steady_mapped_ms,
        map_slower_violation,
        flatten_passes,
        result_mismatch,
        steady_state_violation,
    }
}

fn main() -> ExitCode {
    let scale = bench_scale();
    obsenv::arm_from_env();
    let q = query(254);
    let dir = std::env::temp_dir().join(format!("cublastp_cold_start_{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cold_start: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }

    let rows: Vec<PresetRow> = [DbPreset::SwissprotMini, DbPreset::EnvNrMini]
        .into_iter()
        .map(|preset| run_preset(preset, &q, &dir))
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    bench::print_table(
        "Cold start — regenerate+flatten vs mapped image (median of 5)",
        &[
            "preset",
            "regen+flatten ms",
            "image load ms",
            "speedup",
            "image MiB",
            "steady owned ms",
            "steady mapped ms",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    format!("{:.2}", r.regen_flatten_ms),
                    format!("{:.2}", r.image_load_ms),
                    format!("{:.1}x", r.regen_flatten_ms / r.image_load_ms.max(1e-9)),
                    format!("{:.2}", r.image_bytes as f64 / (1 << 20) as f64),
                    format!("{:.2}", r.steady_owned_ms),
                    format!("{:.2}", r.steady_mapped_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let mut report = Report::new("cold_start");
    // Gated numbers: violation counters only, all baseline 0 — any
    // violation regresses the gate (each was already explained on stderr
    // where it was found). Raw milliseconds vary with the host and stay
    // informational.
    let gated = rows.iter().fold(Obj::new(), |gated, r| {
        let counters = [
            ("map_slower_violation", r.map_slower_violation),
            ("flatten_passes", r.flatten_passes),
            ("result_mismatch", r.result_mismatch),
            ("steady_state_violation", r.steady_state_violation),
        ];
        gated.obj(r.name, report.violations(r.name, &counters))
    });
    let presets = rows
        .iter()
        .map(|r| {
            Obj::new()
                .text("preset", r.name)
                .fixed("regen_flatten_ms", r.regen_flatten_ms, 4)
                .fixed("image_load_ms", r.image_load_ms, 4)
                .int("image_bytes", r.image_bytes as u64)
                .fixed("steady_owned_ms", r.steady_owned_ms, 4)
                .fixed("steady_mapped_ms", r.steady_mapped_ms, 4)
        })
        .collect();
    report.finish(
        Obj::new()
            .text("device", "k20c")
            .num("scale", scale)
            .obj("phase_medians", Obj::new().obj("cold_start", gated))
            .rows("presets", presets),
    )
}
