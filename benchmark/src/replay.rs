//! The traced run of the batch workloads: the pipeline driven
//! *decomposed*, through public functions only, with one benchmark span
//! around each call into a layer.
//!
//! A replay pass does what the program's own batch driver does for the
//! workload — query set-up, kernel 1 (or a grouped seeding pass),
//! kernels 2–5, the gapped layer in its configured placement, report
//! assembly — but serially and from outside, so each layer's host time
//! is a span of the benchmark and each count comes from the
//! `KernelStats` / `GpuPhaseCounts` / `dp_cells()` the layer returned.
//! The replay's report must be identity-equal to the reference. Whether
//! it also simulated the driver's warp-cycles is printed, not gated: a
//! later change that fuses or reorders launches in the driver makes the
//! replay explain a slightly different program, which the reader of a
//! trace has to know, but it must not fail the run.
//!
//! The program's own `obs` tracing stays disarmed.

use crate::batch::{best_per_query_ms, Context, Outcome, RunResult, Target, Timed};
use crate::metrics::{self, Better};
use crate::spans::{self, Recorder, SpanId};
use crate::stats;
use crate::workloads::Driver;
use bio_seq::{Sequence, SequenceDb};
use blast_cpu::report::{PhaseTimes, SearchReport};
use blast_cpu::search::{modeled_parallel_speedup, SearchEngine};
use blast_cpu::ungapped::UngappedExt;
use cublastp::binning::{binning_kernel, BinnedHits};
use cublastp::devicedata::{DeviceDbBlock, DeviceQuery};
use cublastp::extension::{extension_kernel, ExtensionResult};
use cublastp::gapped_device::gapped_fine_kernel;
use cublastp::grouped::grouped_seeding_kernel;
use cublastp::reorder::{assemble_kernel, filter_kernel_mode, sort_kernel};
use cublastp::{
    plan_rounds, schedule, BlockTiming, DeviceDb, DeviceGroupIndex, ExtensionsCsr, GappedBackend,
    SeedMode, DEFAULT_GROUP_BUDGET,
};
use gpu_sim::{DeviceConfig, FaultCtx, FaultInjector, KernelStats, KernelWorkspace};
use std::collections::BTreeMap;
use std::time::Instant;

/// Replay passes a traced run makes at least.
const MIN_REPLAY_PASSES: usize = 2;

/// Counts of one replay pass, summed over queries and blocks.
#[derive(Default)]
struct Counts {
    /// Per kernel family: the merged counters and the modelled ms (a sum
    /// of per-launch times; the time model is not additive in the
    /// counters, so it cannot be recomputed from the merged stats).
    kernels: BTreeMap<&'static str, (KernelStats, f64)>,
    hits: u64,
    survivors: u64,
    extensions: u64,
    redundant: u64,
    h2d_ms: f64,
    h2d_bytes: u64,
    d2h_ms: f64,
    d2h_bytes: u64,
    gapped_d2h_ms: f64,
    gapped_download_bytes: u64,
    itrace_peak_bytes: u64,
    dp_cells: u64,
    alignments: u64,
    qindex_entries: u64,
    rounds: u64,
    occupancy_sum: f64,
    index_upload_bytes: u64,
    seeding_block_queries: u64,
    overlapped_ms: f64,
    serial_ms: f64,
}

impl Counts {
    /// Count one launch of a kernel of `family`; returns its modelled ms.
    fn kernel(&mut self, family: &'static str, k: &KernelStats, device: &DeviceConfig) -> f64 {
        let ms = k.time_ms(device);
        let (stats, total_ms) = self.kernels.entry(family).or_default();
        stats.merge(k);
        *total_ms += ms;
        ms
    }

    /// Merged counters of `family`; all zero when it never ran.
    fn stats(&self, family: &str) -> KernelStats {
        self.kernels
            .get(family)
            .map_or_else(KernelStats::default, |(k, _)| k.clone())
    }

    fn model(&self, family: &str) -> f64 {
        self.kernels.get(family).map_or(0.0, |(_, ms)| *ms)
    }

    fn warp_cycles(&self) -> u64 {
        self.kernels.values().map(|(k, _)| k.warp_cycles).sum()
    }

    fn global_transactions(&self) -> u64 {
        self.kernels
            .values()
            .map(|(k, _)| k.global_transactions)
            .sum()
    }
}

/// One query, set up: what `CuBlastp::with_db_stats` builds.
struct Prepared {
    engine: SearchEngine,
    device_query: DeviceQuery,
}

struct Replay<'a> {
    ctx: &'a Context,
    rec: &'a mut Recorder,
    ws: KernelWorkspace,
    injector: FaultInjector,
    counts: Counts,
}

impl Replay<'_> {
    fn prepare_query(
        &mut self,
        qi: usize,
        q: &Sequence,
        residues: usize,
        sequences: usize,
    ) -> Prepared {
        let s = self.rec.enter("query_setup", "blast-core", qi as u32);
        let engine = SearchEngine::with_db_stats(q.clone(), self.ctx.params, residues, sequences);
        let device_query = DeviceQuery::upload(engine.dfa.clone(), engine.pssm.clone());
        self.rec.exit(s);
        Prepared {
            engine,
            device_query,
        }
    }

    /// Kernel 1 for one block, per-query seeding; with its modelled ms.
    fn binning(&mut self, qi: usize, p: &Prepared, block: &DeviceDbBlock) -> (BinnedHits, f64) {
        let ctx = self.ctx;
        let s = self.rec.enter("hit_detection", "binning", qi as u32);
        let (binned, k) =
            binning_kernel(&ctx.device, &ctx.config, &p.device_query, block, &self.ws);
        self.rec.exit(s);
        (binned, self.counts.kernel("binning", &k, &ctx.device))
    }

    /// Kernels 2–5, the gapped layer and report assembly for one block
    /// whose hits are already binned. Appends the block's hits to
    /// `report` and returns its stage times.
    #[allow(clippy::too_many_arguments)]
    fn tail(
        &mut self,
        qi: usize,
        block_idx: u32,
        p: &Prepared,
        db: &SequenceDb,
        base: usize,
        block: &DeviceDbBlock,
        binned: BinnedHits,
        seeding_ms: f64,
        h2d_ms: f64,
        report: &mut SearchReport,
    ) -> BlockTiming {
        let ctx = self.ctx;
        let (device, cfg, params) = (&ctx.device, &ctx.config, &ctx.params);
        let op = qi as u32;
        self.counts.hits += binned.total_hits;

        let s = self.rec.enter("hit_assembling", "reorder", op);
        let (mut assembled, k_asm) = assemble_kernel(device, cfg, binned, &self.ws);
        self.rec.exit(s);
        let s = self.rec.enter("hit_sorting", "reorder", op);
        let k_sort = sort_kernel(device, &mut assembled, &self.ws);
        self.rec.exit(s);
        let s = self.rec.enter("hit_filtering", "reorder", op);
        let (filtered, k_filter) = filter_kernel_mode(
            device,
            cfg,
            &assembled,
            params.two_hit,
            params.two_hit_window as i64,
            &self.ws,
        );
        self.rec.exit(s);
        assembled.recycle(&self.ws);
        self.counts.survivors += filtered.hits.len() as u64;

        let s = self.rec.enter("ungapped_extension", "extension", op);
        let ExtensionResult {
            extensions,
            stats: k_ext,
            redundant,
        } = extension_kernel(device, cfg, &p.device_query, block, &filtered, params);
        self.rec.exit(s);
        filtered.recycle(&self.ws);
        let n_ext = extensions.len() as u64;
        let s = self.rec.enter("extensions_csr", "extension", op);
        let csr = ExtensionsCsr::from_stream(extensions, block.num_seqs());
        self.rec.exit(s);
        self.counts.extensions += n_ext;
        self.counts.redundant += redundant;

        let mut gpu_ms = seeding_ms
            + self.counts.kernel("assemble", &k_asm, device)
            + self.counts.kernel("sort", &k_sort, device)
            + self.counts.kernel("filter", &k_filter, device)
            + self.counts.kernel("extension", &k_ext, device);
        let ext_bytes = n_ext * std::mem::size_of::<UngappedExt>() as u64;
        let mut download_bytes = ext_bytes;

        let cpu_ms = if cfg.gapped_backend == GappedBackend::Gpu {
            let s = self.rec.enter("gapped_extension_fine", "gapped_device", op);
            let out = gapped_fine_kernel(
                device,
                cfg,
                &p.device_query,
                p.engine.query.residues(),
                block,
                &csr,
                params,
                p.engine.cutoffs.gapped_trigger,
                p.engine.cutoffs.report_cutoff,
                &self.ws,
                &self.injector,
                FaultCtx {
                    query: op,
                    block: block_idx,
                },
            )
            .expect("a disarmed injector never faults");
            self.rec.exit(s);
            gpu_ms += self.counts.kernel("gapped", &out.stats, device);
            download_bytes += out.download_bytes;
            self.counts.gapped_download_bytes += out.download_bytes;
            self.counts.gapped_d2h_ms +=
                device.transfer_ms(download_bytes) - device.transfer_ms(ext_bytes);
            self.counts.itrace_peak_bytes =
                self.counts.itrace_peak_bytes.max(out.itrace.peak_dir_bytes);

            let t = Instant::now();
            let s = self.rec.enter("report_from_alignments", "blast-cpu", op);
            let before = report.hits.len();
            for (local, aligns) in out.alignments.iter().enumerate() {
                if !aligns.is_empty() {
                    let idx = base + local;
                    p.engine
                        .report_from_alignments(idx, &db.sequences()[idx], aligns, report);
                }
            }
            self.rec.exit(s);
            self.counts.alignments += (report.hits.len() - before) as u64;
            t.elapsed().as_secs_f64() * 1e3
        } else {
            let cells0 = blast_cpu::gapped::dp_cells();
            let mut times = PhaseTimes::default();
            let before = report.hits.len();
            let tail: SpanId = self.rec.enter("cpu_tail", "blast-cpu", op);
            let start_ns = self.rec.now_ns();
            for local in 0..csr.num_seqs() {
                let exts = csr.seq(local);
                if !exts.is_empty() {
                    let idx = base + local;
                    p.engine.finish_subject(
                        idx,
                        &db.sequences()[idx],
                        exts,
                        report,
                        Some(&mut times),
                    );
                }
            }
            self.rec.exit(tail);
            // `finish_subject` returns how long its two phases took; they
            // become children of the tail span, laid end to end, so the
            // tail's self time is what is left: report bookkeeping.
            let gapped_end = start_ns + times.gapped.as_nanos() as u64;
            self.rec.add(
                "gapped_extension",
                "blast-cpu",
                op,
                Some(tail),
                start_ns,
                gapped_end,
            );
            self.rec.add(
                "traceback",
                "blast-cpu",
                op,
                Some(tail),
                gapped_end,
                gapped_end + times.traceback.as_nanos() as u64,
            );
            self.counts.dp_cells += blast_cpu::gapped::dp_cells() - cells0;
            self.counts.alignments += (report.hits.len() - before) as u64;
            // The program bills the CPU tail to its schedule at the
            // modelled multicore wall-clock (Fig. 13 curve).
            (times.gapped + times.traceback).as_secs_f64() * 1e3
                / modeled_parallel_speedup(cfg.cpu_threads)
        };

        let d2h_ms = device.transfer_ms(download_bytes);
        self.counts.d2h_ms += d2h_ms;
        self.counts.d2h_bytes += download_bytes;
        self.counts.h2d_ms += h2d_ms;
        BlockTiming {
            h2d_ms,
            gpu_ms,
            d2h_ms,
            cpu_ms,
        }
    }

    /// Rank the report, fold the block timings through `schedule`, and
    /// check the result against the reference.
    fn finish_query(
        &mut self,
        qi: usize,
        mut report: SearchReport,
        timings: &[BlockTiming],
        result: &mut RunResult,
    ) {
        let s = self.rec.enter("finalize", "blast-cpu", qi as u32);
        report.finalize(self.ctx.params.max_reported);
        self.rec.exit(s);
        let s = self.rec.enter("schedule", "pipeline", qi as u32);
        let sched = schedule(timings);
        self.rec.exit(s);
        self.counts.overlapped_ms += sched.overlapped_ms;
        self.counts.serial_ms += sched.serial_ms;
        result.attempted += 1;
        if report.identity_key() != self.ctx.reference[qi] {
            result.fail(format!(
                "{}: traced replay of query {qi} differs from search_sequential",
                self.ctx.def.name
            ));
        }
    }

    /// Flat database, one hit-detection pass per query.
    fn pass_per_query(&mut self, db: &SequenceDb, dev: &DeviceDb, result: &mut RunResult) {
        for (qi, q) in self.ctx.inputs.queries.iter().enumerate() {
            let root = self.rec.enter("query", "search", qi as u32);
            let p = self.prepare_query(qi, q, db.total_residues(), db.len());
            let mut report = SearchReport::default();
            let mut timings = Vec::with_capacity(dev.num_blocks());
            for (bi, (block, dev_block)) in dev.blocks().iter().enumerate() {
                // Like the batch driver, only the first query of a pass
                // pays for making the database resident.
                let h2d_ms = if qi == 0 {
                    self.counts.h2d_bytes += dev_block.upload_bytes();
                    self.ctx.device.transfer_ms(dev_block.upload_bytes())
                } else {
                    0.0
                };
                let (binned, seeding_ms) = self.binning(qi, &p, dev_block);
                timings.push(self.tail(
                    qi,
                    bi as u32,
                    &p,
                    db,
                    block.start,
                    dev_block,
                    binned,
                    seeding_ms,
                    h2d_ms,
                    &mut report,
                ));
            }
            self.finish_query(qi, report, &timings, result);
            self.rec.exit(root);
        }
    }

    /// Flat database, grouped seeding: rounds of queries share one index
    /// and one pass over each block; per-query binning is bypassed.
    fn pass_grouped(&mut self, db: &SequenceDb, dev: &DeviceDb, result: &mut RunResult) {
        let ctx = self.ctx;
        let prepared: Vec<Prepared> = ctx
            .inputs
            .queries
            .iter()
            .enumerate()
            .map(|(qi, q)| self.prepare_query(qi, q, db.total_residues(), db.len()))
            .collect();
        let entry_counts: Vec<usize> = prepared
            .iter()
            .map(|p| p.device_query.dfa.neighborhood().total_entries())
            .collect();
        let s = self.rec.enter("plan_rounds", "grouped", 0);
        let rounds = plan_rounds(&entry_counts, DEFAULT_GROUP_BUDGET);
        self.rec.exit(s);

        for (ri, round) in rounds.iter().enumerate() {
            let first = round.start as u32;
            let members: Vec<&DeviceQuery> = prepared[round.clone()]
                .iter()
                .map(|p| &p.device_query)
                .collect();
            let s = self.rec.enter("query_index_build", "blast-core", first);
            let group = DeviceGroupIndex::upload(&members);
            self.rec.exit(s);
            self.counts.rounds += 1;
            self.counts.qindex_entries += group.index().entries() as u64;
            self.counts.occupancy_sum += group.index().occupancy();
            self.counts.index_upload_bytes += group.upload_bytes();
            self.counts.h2d_ms += ctx.device.transfer_ms(group.upload_bytes());
            self.counts.h2d_bytes += group.upload_bytes();

            let mut member_bins: Vec<Vec<BinnedHits>> =
                members.iter().map(|_| Vec::new()).collect();
            for (_, dev_block) in dev.blocks() {
                if ri == 0 {
                    self.counts.h2d_bytes += dev_block.upload_bytes();
                    self.counts.h2d_ms += ctx.device.transfer_ms(dev_block.upload_bytes());
                }
                let s = self.rec.enter("grouped_seeding", "grouped", first);
                let (bins, k) =
                    grouped_seeding_kernel(&ctx.device, &ctx.config, &group, dev_block, &self.ws);
                self.rec.exit(s);
                self.counts.kernel("grouped", &k, &ctx.device);
                self.counts.seeding_block_queries += members.len() as u64;
                for (m, b) in bins.into_iter().enumerate() {
                    member_bins[m].push(b);
                }
            }
            for (m, bins) in member_bins.into_iter().enumerate() {
                let qi = round.start + m;
                let root = self.rec.enter("query", "search", qi as u32);
                let mut report = SearchReport::default();
                let mut timings = Vec::with_capacity(dev.num_blocks());
                for (bi, ((block, dev_block), binned)) in dev.blocks().iter().zip(bins).enumerate()
                {
                    timings.push(self.tail(
                        qi,
                        bi as u32,
                        &prepared[qi],
                        db,
                        block.start,
                        dev_block,
                        binned,
                        0.0,
                        0.0,
                        &mut report,
                    ));
                }
                self.finish_query(qi, report, &timings, result);
                self.rec.exit(root);
            }
        }
    }

    /// Sharded database: every query searches every shard with *global*
    /// statistics; shard-local subject indices are remapped on merge.
    fn pass_sharded(&mut self, sharded: &cublastp::ShardedDb, result: &mut RunResult) {
        for (qi, q) in self.ctx.inputs.queries.iter().enumerate() {
            let root = self.rec.enter("query", "search", qi as u32);
            let p = self.prepare_query(qi, q, sharded.total_residues(), sharded.total_sequences());
            let mut report = SearchReport::default();
            let mut timings = Vec::new();
            for shard in sharded.shards().iter().filter(|s| !s.is_empty()) {
                let mut partial = SearchReport::default();
                for (bi, (block, dev_block)) in shard.dev.blocks().iter().enumerate() {
                    let (binned, seeding_ms) = self.binning(qi, &p, dev_block);
                    timings.push(self.tail(
                        qi,
                        bi as u32,
                        &p,
                        &shard.db,
                        block.start,
                        dev_block,
                        binned,
                        seeding_ms,
                        0.0,
                        &mut partial,
                    ));
                }
                let s = self.rec.enter("shard_merge", "shard", qi as u32);
                for hit in &mut partial.hits {
                    hit.subject_index += shard.start;
                }
                report.hits.append(&mut partial.hits);
                self.rec.exit(s);
            }
            self.finish_query(qi, report, &timings, result);
            self.rec.exit(root);
        }
    }
}

/// What one replay pass measured.
struct PassReport {
    /// Per-layer metric values, per query unless the name says otherwise.
    values: BTreeMap<&'static str, f64>,
    /// Host wall-clock of the whole pass, per query.
    wall_ms: f64,
    /// Self time of every layer span of the pass, per query. The `search`
    /// and `bench` roots' own time is the replay's glue, not a layer of
    /// the program, and is left out.
    traced_ms: f64,
    /// Warp-cycles simulated in the kernels whose stats the driver also
    /// returns per query — all but the grouped seeding pass, which the
    /// driver accounts per round.
    warp_cycles: u64,
}

/// Per-layer values of one replay pass.
fn pass_values(
    ctx: &Context,
    c: &Counts,
    self_ms: &BTreeMap<(&'static str, &'static str), f64>,
    ws: &KernelWorkspace,
) -> BTreeMap<&'static str, f64> {
    let nq = ctx.inputs.queries.len() as f64;
    let host = |layer: &str, name: &str| self_ms.get(&(layer, name)).copied().unwrap_or(0.0) / nq;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    v.insert(
        "blast-core.query_setup_ms",
        host("blast-core", "query_setup"),
    );
    v.insert(
        "blast-core.qindex_build_ms",
        host("blast-core", "query_index_build"),
    );
    v.insert("blast-core.qindex_entries", c.qindex_entries as f64);
    v.insert("devicedata.h2d_model_ms", c.h2d_ms / nq);
    v.insert("devicedata.upload_bytes", c.h2d_bytes as f64);

    let binning = c.stats("binning");
    v.insert("binning.host_ms", host("binning", "hit_detection"));
    v.insert("binning.model_ms", c.model("binning") / nq);
    v.insert("binning.hits", c.hits as f64 / nq);
    v.insert(
        "binning.atomic_conflict_ratio",
        ratio(binning.atomic_conflicts, binning.atomic_ops),
    );
    v.insert("binning.rocache_hit_rate", binning.rocache_hit_rate());
    v.insert("binning.divergence_overhead", binning.divergence_overhead());
    v.insert(
        "binning.load_efficiency",
        if binning.warp_cycles == 0 {
            0.0
        } else {
            binning.global_load_efficiency()
        },
    );

    v.insert(
        "grouped.seeding_host_ms",
        host("grouped", "grouped_seeding") + host("grouped", "plan_rounds"),
    );
    v.insert("grouped.seeding_model_ms", c.model("grouped") / nq);
    v.insert(
        "grouped.seeding_model_ms_per_block_query",
        if c.seeding_block_queries == 0 {
            0.0
        } else {
            c.model("grouped") / c.seeding_block_queries as f64
        },
    );
    v.insert("grouped.rounds", c.rounds as f64);
    v.insert(
        "grouped.occupancy",
        if c.rounds == 0 {
            0.0
        } else {
            c.occupancy_sum / c.rounds as f64
        },
    );
    v.insert("grouped.index_upload_bytes", c.index_upload_bytes as f64);

    v.insert(
        "reorder.assemble_host_ms",
        host("reorder", "hit_assembling"),
    );
    v.insert("reorder.assemble_model_ms", c.model("assemble") / nq);
    v.insert("reorder.sort_host_ms", host("reorder", "hit_sorting"));
    v.insert("reorder.sort_model_ms", c.model("sort") / nq);
    v.insert("reorder.filter_host_ms", host("reorder", "hit_filtering"));
    v.insert("reorder.filter_model_ms", c.model("filter") / nq);
    v.insert("reorder.filter_survival_ratio", ratio(c.survivors, c.hits));

    v.insert(
        "extension.host_ms",
        host("extension", "ungapped_extension") + host("extension", "extensions_csr"),
    );
    v.insert("extension.model_ms", c.model("extension") / nq);
    v.insert("extension.count", c.extensions as f64 / nq);
    v.insert("extension.redundant", c.redundant as f64 / nq);
    v.insert(
        "extension.divergence_overhead",
        c.stats("extension").divergence_overhead(),
    );

    v.insert(
        "gapped_device.host_ms",
        host("gapped_device", "gapped_extension_fine"),
    );
    v.insert("gapped_device.kernel_model_ms", c.model("gapped") / nq);
    v.insert("gapped_device.d2h_model_ms", c.gapped_d2h_ms / nq);
    v.insert(
        "gapped_device.download_bytes",
        c.gapped_download_bytes as f64 / nq,
    );
    v.insert(
        "gapped_device.itrace_peak_bytes",
        c.itrace_peak_bytes as f64,
    );

    let gapped_ms = host("blast-cpu", "gapped_extension");
    v.insert("blast-cpu.gapped_host_ms", gapped_ms);
    v.insert(
        "blast-cpu.traceback_host_ms",
        host("blast-cpu", "traceback"),
    );
    v.insert(
        "blast-cpu.report_host_ms",
        host("blast-cpu", "cpu_tail")
            + host("blast-cpu", "report_from_alignments")
            + host("blast-cpu", "finalize"),
    );
    v.insert("blast-cpu.dp_cells", c.dp_cells as f64 / nq);
    v.insert(
        "blast-cpu.cells_per_s",
        if gapped_ms > 0.0 {
            c.dp_cells as f64 / nq / (gapped_ms / 1e3)
        } else {
            0.0
        },
    );
    v.insert("blast-cpu.alignments", c.alignments as f64 / nq);
    v.insert(
        "blast-cpu.simd_isa_level",
        blast_cpu::simd::dispatch_report().active as u8 as f64,
    );

    let kernel_host_ms: f64 = [
        ("binning", "hit_detection"),
        ("grouped", "grouped_seeding"),
        ("reorder", "hit_assembling"),
        ("reorder", "hit_sorting"),
        ("reorder", "hit_filtering"),
        ("extension", "ungapped_extension"),
        ("gapped_device", "gapped_extension_fine"),
    ]
    .iter()
    .map(|k| self_ms.get(k).copied().unwrap_or(0.0))
    .sum();
    v.insert("gpu-sim.warp_cycles", c.warp_cycles() as f64 / nq);
    v.insert(
        "gpu-sim.host_ns_per_warp_cycle",
        kernel_host_ms * 1e6 / c.warp_cycles().max(1) as f64,
    );
    v.insert(
        "gpu-sim.global_transactions",
        c.global_transactions() as f64 / nq,
    );
    v.insert("gpu-sim.d2h_model_ms", c.d2h_ms / nq);
    v.insert("gpu-sim.d2h_bytes", c.d2h_bytes as f64 / nq);
    v.insert(
        "gpu-sim.workspace_pool_hit_rate",
        1.0 - ratio(ws.allocations(), ws.checkouts()),
    );

    v.insert("pipeline.overlapped_model_ms", c.overlapped_ms / nq);
    v.insert("pipeline.serial_model_ms", c.serial_ms / nq);
    v.insert(
        "pipeline.overlap_saving",
        if c.serial_ms > 0.0 {
            1.0 - c.overlapped_ms / c.serial_ms
        } else {
            0.0
        },
    );
    v
}

/// One replay pass.
fn replay_pass(ctx: &Context, rec: &mut Recorder, result: &mut RunResult) -> PassReport {
    let mark = rec.spans().len();
    let mut replay = Replay {
        ctx,
        rec,
        ws: KernelWorkspace::new(),
        injector: FaultInjector::none(),
        counts: Counts::default(),
    };
    let t0 = Instant::now();
    match (&ctx.target, ctx.def.driver) {
        (Target::Flat { db, .. }, Driver::FlatBatch { seed_mode, .. }) => {
            // The batch drivers flatten the database once per call.
            let s = replay.rec.enter("flatten_per_batch", "devicedata", 0);
            let dev = DeviceDb::upload(db, ctx.config.db_block_size);
            replay.rec.exit(s);
            match seed_mode {
                SeedMode::PerQuery => replay.pass_per_query(db, &dev, result),
                SeedMode::Grouped => replay.pass_grouped(db, &dev, result),
            }
        }
        (Target::Sharded { sharded }, _) => replay.pass_sharded(sharded, result),
        _ => unreachable!("set_up builds the target its driver needs"),
    }
    let nq = ctx.inputs.queries.len() as f64;
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3 / nq;
    let Replay {
        counts, ws, rec, ..
    } = replay;
    let self_ms = spans::self_ms_by_name_from(rec.spans(), mark);
    let traced_ms: f64 = self_ms
        .iter()
        .filter(|((layer, _), _)| !matches!(*layer, "search" | "bench"))
        .map(|(_, ms)| ms)
        .sum();
    PassReport {
        values: pass_values(ctx, &counts, &self_ms, &ws),
        wall_ms,
        traced_ms: traced_ms / nq,
        warp_cycles: counts.warp_cycles() - counts.stats("grouped").warp_cycles,
    }
}

/// Simulated warp-cycles in the per-query kernel stats of a driver pass.
fn driver_warp_cycles(outcome: &Outcome) -> u64 {
    outcome
        .per_query()
        .iter()
        .flatten()
        .flat_map(|r| r.kernels.iter())
        .map(|k| k.warp_cycles)
        .sum()
}

/// The traced part of a run: replay passes until `seconds` is used up,
/// then every per-layer metric. `untraced` are the timed driver passes
/// of the same run (tracing overhead and unattributed time are measured
/// against them).
pub fn traced_passes(
    ctx: &Context,
    untraced: &Timed,
    seconds: f64,
    smoke: bool,
    rec: &mut Recorder,
    result: &mut RunResult,
) {
    let min_passes = if smoke { 1 } else { MIN_REPLAY_PASSES };
    let t0 = Instant::now();
    let mut passes: Vec<PassReport> = Vec::new();
    while passes.len() < min_passes || (!smoke && t0.elapsed().as_secs_f64() < seconds) {
        passes.push(replay_pass(ctx, rec, result));
    }

    // Metric by metric, the best of the replay passes in the metric's own
    // direction — the estimator of the end-to-end times (see `batch`).
    // Counts and modelled times repeat exactly, so their best is the value.
    let best_of = |better: Better, f: &dyn Fn(&PassReport) -> f64| {
        let xs: Vec<f64> = passes.iter().map(f).collect();
        match better {
            Better::Lower => stats::min(&xs),
            Better::Higher => stats::max(&xs),
        }
    };
    for name in passes[0].values.keys() {
        let better = metrics::find(name).map_or(Better::Lower, |d| d.better);
        result
            .values
            .set(name, best_of(better, &|p| p.values[name]));
    }
    let replay_wall = best_of(Better::Lower, &|p| p.wall_ms);
    let traced = best_of(Better::Lower, &|p| p.traced_ms);
    let warp_cycles = passes[0].warp_cycles;

    let nq = ctx.inputs.queries.len() as f64;
    let untraced_ms = best_per_query_ms(&untraced.passes).iter().sum::<f64>() / nq;
    let v = &mut result.values;
    v.set("search.unattributed_ms", untraced_ms - traced);
    v.set(
        "bench.trace_overhead_pct",
        100.0 * (replay_wall / untraced_ms - 1.0),
    );

    // What the program itself reports, from the first untraced pass.
    let first = &untraced.first;
    let ok: Vec<_> = first.per_query().iter().flatten().collect();
    v.set(
        "search.reported_total_ms",
        ok.iter().map(|r| r.timing.total_ms()).sum::<f64>() / nq,
    );

    // A replay that simulates other work than the driver explains a
    // different program: say so next to the numbers.
    let driver_cycles = driver_warp_cycles(first);
    if warp_cycles != driver_cycles {
        result.notes.push(format!(
            "NOTE: the replay simulated {warp_cycles} warp-cycles, the driver {driver_cycles}: \
             the per-layer numbers describe the replay"
        ));
    }

    if let Outcome::Sharded(o) = first {
        let costs = &o.item_costs;
        let s = rec.enter("schedule_work_stealing", "scheduler", 0);
        let t = Instant::now();
        let resched = o.reschedule(o.devices);
        let host_us = t.elapsed().as_secs_f64() * 1e6;
        rec.exit(s);
        let v = &mut result.values;
        v.set("shard.items", costs.len() as f64);
        v.set("shard.item_cost_cv", stats::coeff_of_variation(costs));
        v.set("scheduler.schedule_host_us", host_us);
        v.set("scheduler.fleet_makespan_model_ms", resched.makespan_ms);
        v.set("scheduler.steals", resched.total_steals() as f64);
        v.set(
            "scheduler.efficiency",
            resched.efficiency(o.single_device_ms),
        );
        v.set(
            "scheduler.upload_billed_ms",
            resched.per_device.iter().map(|d| d.upload_ms).sum(),
        );
    }
}
