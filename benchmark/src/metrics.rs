//! The metric registry: every number the benchmark prints is declared
//! here with its unit, its clock and (end to end) its regression bound.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.
//!
//! Every metric carries exactly one clock and no metric sums across
//! clocks. The one exception is labelled as such:
//! `search.reported_total_ms` is what the program's own `total_ms()`
//! prints, which adds modelled device time to measured host time.

use std::collections::BTreeMap;

/// What a number was measured or modelled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// gpu-sim cycle model + modelled PCIe. Bit-deterministic per seed.
    DeviceModel,
    /// Measured `Instant` on the host.
    HostWall,
    /// CPU time of the process, user + system, all threads
    /// (`CLOCK_PROCESS_CPUTIME_ID`).
    HostCpu,
    /// `pipeline::schedule` / `schedule_work_stealing` outputs, which mix
    /// the modelled and the measured. Per-layer only, never end to end.
    ScheduleModel,
    /// Not a time: a count, a size, a ratio.
    None,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::DeviceModel => "DeviceModel",
            Clock::HostWall => "HostWall",
            Clock::HostCpu => "HostCpu",
            Clock::ScheduleModel => "ScheduleModel",
            Clock::None => "-",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// End to end: the share of the parent's median by which the metric
    /// may worsen before it is a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// Repeats to the last bit at one seed: modelled times and work
    /// counts, which are pure functions of the inputs. Measured times,
    /// memory, schedule outputs (built on measured item costs) and what
    /// a live server decided under load do not.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
        exact: matches!(clock, Clock::DeviceModel),
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound: None,
        exact: matches!(clock, Clock::DeviceModel | Clock::None),
    }
}

/// A count or ratio of what the live server did under load: no clock,
/// and not exact either.
const fn live(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        exact: false,
        ..layer(name, unit, Clock::None, better)
    }
}

use Better::{Higher, Lower};
use Clock::{DeviceModel, HostCpu, HostWall, ScheduleModel};

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one (the README says what each means on `served_mix`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("host_qps", "1/s", HostWall, Higher, 0.25),
    e2e("host_cpu_ms_per_query", "ms", HostCpu, Lower, 0.25),
    e2e("device_model_ms_per_query", "ms", DeviceModel, Lower, 0.04),
    e2e("latency_p50_ms", "ms", HostWall, Lower, 0.25),
    e2e("latency_p90_ms", "ms", HostWall, Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Clock::None, Lower, 0.25),
    e2e("setup_s", "s", HostWall, Lower, 0.25),
];

/// Per-layer metrics, from the traced run. `layer.metric`; layers are the
/// repo's crates and modules. Host times are self time of the benchmark's
/// spans per query; a layer a workload bypasses reads exactly 0.
pub const PER_LAYER: &[MetricDef] = &[
    // bio-seq
    layer("bio-seq.generate_s", "s", HostWall, Lower),
    layer("bio-seq.fasta_parse_ms", "ms", HostWall, Lower),
    // blast-core
    layer("blast-core.query_setup_ms", "ms", HostWall, Lower),
    layer("blast-core.qindex_build_ms", "ms", HostWall, Lower),
    layer("blast-core.qindex_entries", "count", Clock::None, Lower),
    // devicedata / cublastp-db
    layer("devicedata.flatten_ms", "ms", HostWall, Lower),
    layer("devicedata.flatten_count", "count", Clock::None, Lower),
    layer("devicedata.h2d_model_ms", "ms", DeviceModel, Lower),
    layer("devicedata.upload_bytes", "bytes", Clock::None, Lower),
    layer("cublastp-db.image_build_ms", "ms", HostWall, Lower),
    layer("cublastp-db.image_open_ms", "ms", HostWall, Lower),
    layer("cublastp-db.image_bytes", "bytes", Clock::None, Lower),
    layer("cublastp-db.shardset_open_ms", "ms", HostWall, Lower),
    // binning (kernel 1)
    layer("binning.host_ms", "ms", HostWall, Lower),
    layer("binning.model_ms", "ms", DeviceModel, Lower),
    layer("binning.hits", "count", Clock::None, Lower),
    layer("binning.atomic_conflict_ratio", "ratio", Clock::None, Lower),
    layer("binning.rocache_hit_rate", "ratio", Clock::None, Higher),
    layer("binning.divergence_overhead", "ratio", Clock::None, Lower),
    layer("binning.load_efficiency", "ratio", Clock::None, Higher),
    // grouped / grouping
    layer("grouped.seeding_host_ms", "ms", HostWall, Lower),
    layer("grouped.seeding_model_ms", "ms", DeviceModel, Lower),
    layer(
        "grouped.seeding_model_ms_per_block_query",
        "ms/block/query",
        DeviceModel,
        Lower,
    ),
    layer("grouped.rounds", "count", Clock::None, Lower),
    layer("grouped.occupancy", "ratio", Clock::None, Higher),
    layer("grouped.index_upload_bytes", "bytes", Clock::None, Lower),
    // reorder (kernels 2-4)
    layer("reorder.assemble_host_ms", "ms", HostWall, Lower),
    layer("reorder.assemble_model_ms", "ms", DeviceModel, Lower),
    layer("reorder.sort_host_ms", "ms", HostWall, Lower),
    layer("reorder.sort_model_ms", "ms", DeviceModel, Lower),
    layer("reorder.filter_host_ms", "ms", HostWall, Lower),
    layer("reorder.filter_model_ms", "ms", DeviceModel, Lower),
    layer("reorder.filter_survival_ratio", "ratio", Clock::None, Lower),
    // extension (kernel 5)
    layer("extension.host_ms", "ms", HostWall, Lower),
    layer("extension.model_ms", "ms", DeviceModel, Lower),
    layer("extension.count", "count", Clock::None, Lower),
    layer("extension.redundant", "count", Clock::None, Lower),
    layer("extension.divergence_overhead", "ratio", Clock::None, Lower),
    // gapped_device
    layer("gapped_device.host_ms", "ms", HostWall, Lower),
    layer("gapped_device.kernel_model_ms", "ms", DeviceModel, Lower),
    layer("gapped_device.d2h_model_ms", "ms", DeviceModel, Lower),
    layer("gapped_device.download_bytes", "bytes", Clock::None, Lower),
    layer(
        "gapped_device.itrace_peak_bytes",
        "bytes",
        Clock::None,
        Lower,
    ),
    // blast-cpu
    layer("blast-cpu.gapped_host_ms", "ms", HostWall, Lower),
    layer("blast-cpu.traceback_host_ms", "ms", HostWall, Lower),
    layer("blast-cpu.report_host_ms", "ms", HostWall, Lower),
    layer("blast-cpu.dp_cells", "count", Clock::None, Lower),
    layer("blast-cpu.cells_per_s", "1/s", HostWall, Higher),
    layer("blast-cpu.alignments", "count", Clock::None, Lower),
    layer("blast-cpu.simd_isa_level", "level", Clock::None, Higher),
    // gpu-sim
    layer("gpu-sim.warp_cycles", "count", Clock::None, Lower),
    layer(
        "gpu-sim.host_ns_per_warp_cycle",
        "ns/cycle",
        HostWall,
        Lower,
    ),
    layer("gpu-sim.global_transactions", "count", Clock::None, Lower),
    layer("gpu-sim.d2h_model_ms", "ms", DeviceModel, Lower),
    layer("gpu-sim.d2h_bytes", "bytes", Clock::None, Lower),
    layer(
        "gpu-sim.workspace_pool_hit_rate",
        "ratio",
        Clock::None,
        Higher,
    ),
    // pipeline
    layer("pipeline.overlapped_model_ms", "ms", ScheduleModel, Lower),
    layer("pipeline.serial_model_ms", "ms", ScheduleModel, Lower),
    layer("pipeline.overlap_saving", "ratio", ScheduleModel, Higher),
    // search (driver)
    layer("search.cpu_per_wall", "ratio", HostCpu, Higher),
    layer("search.unattributed_ms", "ms", HostWall, Lower),
    layer("search.reported_total_ms", "ms", ScheduleModel, Lower),
    layer("search.retries", "count", Clock::None, Lower),
    layer("search.degraded_blocks", "count", Clock::None, Lower),
    // shard / scheduler
    layer("shard.split_ms", "ms", HostWall, Lower),
    layer("shard.items", "count", Clock::None, Lower),
    layer("shard.item_cost_cv", "ratio", ScheduleModel, Lower),
    layer("scheduler.schedule_host_us", "us", HostWall, Lower),
    layer(
        "scheduler.fleet_makespan_model_ms",
        "ms",
        ScheduleModel,
        Lower,
    ),
    layer("scheduler.steals", "count", ScheduleModel, Higher),
    layer("scheduler.efficiency", "ratio", ScheduleModel, Higher),
    layer("scheduler.upload_billed_ms", "ms", ScheduleModel, Lower),
    // cublastp-serve
    layer("admission.submit_us_p50", "us", HostWall, Lower),
    live("admission.shed_frac_r_mid", "ratio", Lower),
    live("admission.shed_frac_r_high", "ratio", Lower),
    layer("server.queue_wait_ms_p50", "ms", HostWall, Lower),
    layer("server.queue_wait_ms_p99", "ms", HostWall, Lower),
    layer("server.service_ms_p50", "ms", HostWall, Lower),
    layer("server.service_ms_p99", "ms", HostWall, Lower),
    layer("server.first_block_ms_p50", "ms", HostWall, Lower),
    layer("server.interactive_p50_ms", "ms", HostWall, Lower),
    layer("server.interactive_p90_ms", "ms", HostWall, Lower),
    layer("server.bulk_p50_ms", "ms", HostWall, Lower),
    layer("server.bulk_p99_ms", "ms", HostWall, Lower),
    layer("server.service_rate_rps", "1/s", HostWall, Higher),
    layer("server.goodput_rps", "1/s", HostWall, Higher),
    layer("server.worker_busy_frac", "ratio", HostWall, Lower),
    live("server.deadline_exceeded", "count", Lower),
    live("controller.level_max", "level", Lower),
    layer("loadgen.lag_ms_p99", "ms", HostWall, Lower),
    // the benchmark itself
    layer("bench.trace_overhead_pct", "%", HostWall, Lower),
    layer("bench.pass_spread_pct", "%", HostWall, Lower),
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Values measured in one run, keyed by registered metric name.
#[derive(Debug, Clone, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record `value` under `name`, which must be in the registry.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("metric {name:?} is not registered"));
        self.0.insert(def.name, value);
    }

    /// The recorded value; a metric nothing recorded reads 0 — a layer
    /// the workload bypassed.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The contract's result line: one JSON object, `defs` in registry order.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, d) in defs.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        obs::json::escape_into(&mut out, d.name);
        out.push_str(": {\"value\": ");
        out.push_str(&obs::json::num(values.get(d.name)));
        out.push_str(", \"unit\": ");
        obs::json::escape_into(&mut out, d.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// Human-readable table of `defs`: name, value, unit, clock.
pub fn table(defs: &[MetricDef], values: &Values) -> String {
    let mut out = String::new();
    for d in defs {
        out.push_str(&format!(
            "  {:<42} {:>16} {:<15} {}\n",
            d.name,
            obs::json::num(values.get(d.name)),
            d.unit,
            d.clock.name()
        ));
    }
    out
}

/// The command `BENCHMARK.json` names: build this package from a bare
/// checkout and run it (the driver appends `--workload … --trace …`).
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// `BENCHMARK.json`, rendered from the registries so it cannot drift
/// from what the runs print.
pub fn manifest_json() -> String {
    let quoted = |s: &str| obs::json::escape(s);
    let mut out = String::from("{\n  \"command\": [");
    out.push_str(&COMMAND.map(quoted).join(", "));
    out.push_str(&format!(
        "],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n",
        crate::cli::RUN_SECONDS
    ));
    let workloads: Vec<String> = crate::workloads::WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quoted(w.name),
                quoted(w.why)
            )
        })
        .collect();
    out.push_str(&workloads.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.name()),
                m.bound.unwrap_or(0.0)
            )
        })
        .collect();
    out.push_str(&e2e.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                quoted(m.better.name())
            )
        })
        .collect();
    out.push_str(&layers.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
