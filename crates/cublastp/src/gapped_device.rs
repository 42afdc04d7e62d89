//! Fine-grained gapped extension + traceback on the device (DESIGN.md
//! §3.7) — the `--gapped-backend gpu` path.
//!
//! Where [`crate::gapped_gpu`] models the *coarse* port the paper rejects
//! (one lane per gapped seed, per-lane scattered traffic, divergence
//! bounded only by the slowest seed of a warp), this kernel decomposes the
//! banded x-drop DP the way the paper decomposes hit detection:
//!
//! * **one warp per gapped seed** — the warp sweeps the band in
//!   anti-diagonal wavefronts, `ceil(band / 32)` warp-wide steps per DP
//!   row, all 32 lanes in lockstep (zero intra-warp divergence);
//! * **no work packing** — warps take the seeds in order. The cost model
//!   bills a kernel's *total* warp-cycles over the device's schedulers
//!   ([`KernelStats::kernel_cycles`]), so which warp slot sweeps which
//!   seed cannot move a modelled number (EXPERIMENTS.md, "Gapped
//!   placement", has the measurement);
//! * **constant-memory interval traceback** — no per-cell direction
//!   matrix lives on the device. The forward pass checkpoints the rolling
//!   D/F rows every `interval` rows into a pooled workspace buffer and
//!   the backtrack re-fills one interval at a time, keeping at most
//!   O(band × interval) direction bytes resident
//!   ([`blast_cpu::itrace`]); the kernel asserts that bound against the
//!   measured peak.
//!
//! Functionally the module computes exactly
//! [`blast_cpu::gapped::gapped_phase_subject`] followed by
//! [`blast_cpu::itrace::traceback_interval`] per reportable extension —
//! both bit-identical to the CPU reference — so swapping the backend can
//! never change a search's output, only where the cost model charges it.
//! On the host the two are one call
//! ([`blast_cpu::itrace::gapped_phase_subject_traced`]): the score pass
//! drops the checkpoints, as it does on the device.

use crate::config::CuBlastpConfig;
use crate::devicedata::{DeviceDbBlock, DeviceQuery};
use crate::gpu_phase::ExtensionsCsr;
use bio_seq::alphabet::Residue;
use blast_core::SearchParams;
use blast_cpu::gapped::GappedExt;
use blast_cpu::itrace::{
    default_interval, gapped_phase_subject_traced, ItraceReport, ItraceScratch,
};
use blast_cpu::report::Alignment;
use gpu_sim::device::{TRANSACTION_BYTES, WARP_SIZE};
use gpu_sim::{
    launch, DeviceConfig, DeviceError, FaultCtx, FaultInjector, FaultSite, KernelStats,
    KernelWorkspace, LaunchConfig,
};

/// Stats name of the fine gapped kernel (the pipeline's 4th kernel entry).
pub const FINE_GAPPED_KERNEL: &str = "gapped_extension_fine";

/// Warp instructions per 32-cell wavefront chunk: the affine recurrence
/// (F, E, M, D plus the x-drop accept test and band bookkeeping).
const CHUNK_INSTRS: u64 = 6;

/// Warp-wide shared-memory accesses per chunk (rolling D/F row read +
/// write; the band lives in shared memory, not per-thread local arrays).
const CHUNK_SHARED: u64 = 2;

/// Serialized size of one downloaded alignment record: the fixed header
/// (coordinates, score, identity counters, op count) plus one byte per op.
const ALIGN_HEADER_BYTES: u64 = 44;

/// Output of the fine gapped kernel for one database block.
#[derive(Debug)]
pub struct GappedDeviceOutput {
    /// Per block-local subject: the alignments of its reportable gapped
    /// extensions (score ≥ report cutoff), in gapped-phase order —
    /// exactly what [`blast_cpu::SearchEngine::report_from_alignments`]
    /// expects.
    pub alignments: Vec<Vec<Alignment>>,
    /// Per block-local subject: every gapped extension (reportable or
    /// not), bit-identical to `gapped_phase_subject`.
    pub gapped: Vec<Vec<GappedExt>>,
    /// Simulated kernel counters (merges into the pipeline's kernel list
    /// as its 4th entry).
    pub stats: KernelStats,
    /// Bytes of the alignment download (the D2H leg this backend adds).
    pub download_bytes: u64,
    /// Interval-traceback work/memory counters, merged across extensions.
    pub itrace: ItraceReport,
}

/// One extension's banded DP as the kernel bills it: the forward sweep
/// plus its traceback re-fill and checkpoint traffic.
struct Sweep {
    /// Warp-cycles of the wavefront sweep (forward + re-fill chunks).
    cycles: u64,
    /// 128-byte global transactions (subject stage-in, checkpoint
    /// write/read, resident-interval direction bytes).
    tx: u64,
    /// Useful bytes behind those transactions.
    useful_bytes: u64,
    /// Warp-wide shared-memory accesses of the sweep.
    shared: u64,
}

/// One subject's share of the fine kernel: its functional DP and the
/// sweeps the launch bills for it.
#[derive(Default)]
pub(crate) struct SubjectDp {
    /// Block-local subject index.
    seq: usize,
    gapped: Vec<GappedExt>,
    /// What the block's tail reports for the subject.
    pub(crate) alignments: Vec<Alignment>,
    sweeps: Vec<Sweep>,
    download_bytes: u64,
    itrace: ItraceReport,
}

/// The query side of one launch of the fine kernel: what every subject's
/// DP reads. `trigger` and `report_cutoff` are the engine's gapped-trigger
/// and report cutoffs; `query_seq` is the raw query (the traceback needs
/// residues, not just PSSM scores).
pub(crate) struct FineDp<'a> {
    pub device: &'a DeviceConfig,
    pub query: &'a DeviceQuery,
    pub query_seq: &'a [Residue],
    pub params: &'a SearchParams,
    pub trigger: i32,
    pub report_cutoff: i32,
    /// Where each subject's checkpoint words and direction bytes come
    /// from and go back to.
    pub ws: &'a KernelWorkspace,
}

/// Band cells per DP row under `params`.
fn band(params: &SearchParams) -> u64 {
    (2 * i64::from(params.xdrop_gapped) + 1).max(1) as u64
}

/// The fine kernel's launch under `cfg` for `params`' band: `cfg`'s grid,
/// and every warp's rolling D/F band rows in shared memory (4 rows of
/// 4-byte cells) — far below the coarse port's 24 kB per-block footprint,
/// which is what buys this kernel its occupancy. A band too wide for one
/// block to fit an SM is refused by the search.
pub(crate) fn footprint(cfg: &CuBlastpConfig, params: &SearchParams) -> LaunchConfig {
    let warps = cfg.warps_per_block.max(1);
    let rows = u64::from(warps) * 4 * band(params) * 4;
    LaunchConfig {
        blocks: cfg.grid_blocks.max(1),
        warps_per_block: warps,
        shared_bytes_per_block: u32::try_from(rows).unwrap_or(u32::MAX),
        use_readonly_cache: false,
    }
}

impl FineDp<'_> {
    /// The functional DP of subject `i` of `db`: the exact CPU semantics
    /// ([`gapped_phase_subject_traced`]) and the sweep of every extension.
    /// The gapped phase is serial *within* a subject — containment
    /// skipping makes its output order-dependent — but subjects are
    /// independent, so threads may run subjects of one block side by side:
    /// each takes its own scratch from the workspace and returns it.
    pub(crate) fn subject(
        &self,
        db: &DeviceDbBlock,
        extensions: &ExtensionsCsr,
        i: usize,
    ) -> SubjectDp {
        let mut out = SubjectDp {
            seq: i,
            ..SubjectDp::default()
        };
        let seeds = extensions.seq(i);
        if !seeds.iter().any(|e| e.score >= self.trigger) {
            return out;
        }
        // One checkpoint interval per launch (merged reports must agree,
        // and a uniform interval gives the workspace one fixed budget to
        // honour).
        let interval = default_interval(self.query.query_len());
        let subject = db.seq(i);
        let mut scratch = ItraceScratch {
            ckpt: self.ws.ckpt.take(),
            dirs: self.ws.dirs.take(),
        };
        let (gapped, traced) = gapped_phase_subject_traced(
            &self.query.pssm,
            self.query_seq,
            subject,
            seeds,
            self.params,
            self.trigger,
            self.report_cutoff,
            interval,
            &mut scratch,
        );
        self.ws.ckpt.put(scratch.ckpt);
        self.ws.dirs.put(scratch.dirs);
        for (g, traced) in gapped.iter().zip(traced) {
            let rows = (g.q_end - g.q_start) as u64 + 1;
            let span_bytes = (g.s_end - g.s_start) as u64 + 1;
            let (mut refill_cells, mut ckpt_words) = (0u64, 0u64);
            if let Some((al, rep)) = traced {
                // The constant-memory contract: the resident direction
                // buffer never exceeds one interval of the widest band.
                assert!(
                    rep.peak_dir_bytes <= rep.dir_budget(),
                    "device traceback broke its memory bound: \
                     {} resident direction bytes > band {} x interval {}",
                    rep.peak_dir_bytes,
                    rep.band_max,
                    rep.interval,
                );
                refill_cells = rep.refill_cells;
                ckpt_words = rep.checkpoint_words;
                out.itrace.absorb(&rep);
                out.download_bytes += ALIGN_HEADER_BYTES + al.ops.len() as u64;
                out.alignments.push(al);
            }
            out.sweeps.push(sweep_cost(
                self.device,
                rows,
                band(self.params).min(subject.len() as u64 + 1),
                span_bytes,
                refill_cells,
                ckpt_words,
            ));
        }
        out.gapped = gapped;
        out
    }

    /// Bill the kernel over one block of `num_seqs` subjects from their
    /// DPs: [`Self::subject`] of every subject with records, once each, in
    /// block order — so the merged sweeps, download and [`ItraceReport`]
    /// are the serial loop's bit for bit, whichever threads ran them. The
    /// stats are the block's counters; a search prices them with its other
    /// blocks', as one launch per shard view (DESIGN.md §3.7, "Pipeline
    /// integration"). Checks no fault site: the caller does, at launch.
    pub(crate) fn bill(
        &self,
        cfg: &CuBlastpConfig,
        num_seqs: usize,
        subjects: Vec<SubjectDp>,
    ) -> GappedDeviceOutput {
        let mut gapped_by_seq: Vec<Vec<GappedExt>> = vec![Vec::new(); num_seqs];
        let mut aligns_by_seq: Vec<Vec<Alignment>> = vec![Vec::new(); num_seqs];
        let mut itrace = ItraceReport::default();
        let mut sweeps: Vec<Sweep> = Vec::new();
        let mut download_bytes = 0u64;
        for s in subjects {
            gapped_by_seq[s.seq] = s.gapped;
            aligns_by_seq[s.seq] = s.alignments;
            sweeps.extend(s.sweeps);
            download_bytes += s.download_bytes;
            // A subject with nothing to report traced nothing.
            if s.itrace.interval != 0 {
                itrace.absorb(&s.itrace);
            }
        }

        let launch_cfg = footprint(cfg, self.params);
        let blocks = launch_cfg.blocks;
        let stats = launch(self.device, launch_cfg, FINE_GAPPED_KERNEL, |block| {
            // Blocks stride the seed list, one warp per seed.
            for sweep in (sweeps.iter().skip(block.block_id as usize)).step_by(blocks as usize) {
                // All 32 lanes sweep the wavefront in lockstep: the warp
                // serializes `cycles`, no lane idles (the fine kernel's
                // whole point versus the coarse lane-per-seed port).
                block.lockstep(&[sweep.cycles.max(1); WARP_SIZE as usize]);
                block.bulk_traffic(sweep.tx, sweep.useful_bytes, sweep.shared);
            }
        });

        GappedDeviceOutput {
            alignments: aligns_by_seq,
            gapped: gapped_by_seq,
            stats,
            download_bytes,
            itrace,
        }
    }
}

/// Run fine-grained gapped extension + interval traceback for one block,
/// its subjects one after another on the calling thread: the launch's
/// fault check, `FineDp::subject` of every subject, `FineDp::bill`,
/// and the download's. A search runs the same parts with both checks at
/// launch and the subjects as the block's tail, claimed by its threads.
///
/// `trigger` and `report_cutoff` are the engine's gapped-trigger and
/// report cutoffs; `query_seq` is the raw query. Scratch (checkpoint
/// words, direction bytes) comes from `ws` and returns to it before the
/// call ends. The injector is consulted at [`FaultSite::GappedLaunch`]
/// before the kernel and [`FaultSite::GappedD2h`] on the download.
#[allow(clippy::too_many_arguments)]
pub fn gapped_fine_kernel(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    query_seq: &[Residue],
    db: &DeviceDbBlock,
    extensions: &ExtensionsCsr,
    params: &SearchParams,
    trigger: i32,
    report_cutoff: i32,
    ws: &KernelWorkspace,
    injector: &FaultInjector,
    ctx: FaultCtx,
) -> Result<GappedDeviceOutput, DeviceError> {
    let dp = FineDp {
        device,
        query,
        query_seq,
        params,
        trigger,
        report_cutoff,
        ws,
    };
    injector.check(FaultSite::GappedLaunch, ctx, FINE_GAPPED_KERNEL)?;
    let num_seqs = extensions.num_seqs();
    let subjects = (0..num_seqs).map(|i| dp.subject(db, extensions, i));
    let out = dp.bill(cfg, num_seqs, subjects.collect());
    // D2H leg: the finished alignments the CPU reporting tail consumes.
    injector.check(FaultSite::GappedD2h, ctx, "alignment download")?;
    Ok(out)
}

/// Modelled cost of one extension's DP: `rows` band rows swept forward,
/// `refill_cells` re-computed by the interval traceback, `ckpt_words` of
/// checkpoints and `span_bytes` of subject staged in.
fn sweep_cost(
    device: &DeviceConfig,
    rows: u64,
    band: u64,
    span_bytes: u64,
    refill_cells: u64,
    ckpt_words: u64,
) -> Sweep {
    let chunk_cost = CHUNK_INSTRS * device.instr_cost + CHUNK_SHARED * device.shared_access_cost;
    // Forward wavefront plus traceback re-fill, both warp-wide.
    let chunks =
        rows * band.max(1).div_ceil(WARP_SIZE as u64) + refill_cells.div_ceil(WARP_SIZE as u64);
    // Global traffic: subject stage-in (coalesced, once), checkpoint
    // rows written then re-read (4 bytes per word), and the resident
    // interval's direction bytes written and drained once each.
    let ckpt_bytes = ckpt_words * 4;
    let dir_bytes = refill_cells * 2;
    Sweep {
        cycles: chunks * chunk_cost,
        tx: span_bytes.div_ceil(TRANSACTION_BYTES)
            + (2 * ckpt_bytes).div_ceil(TRANSACTION_BYTES)
            + dir_bytes.div_ceil(TRANSACTION_BYTES),
        useful_bytes: span_bytes + 2 * ckpt_bytes + dir_bytes,
        shared: chunks * CHUNK_SHARED,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_seq::generate::{generate_db, make_query, DbSpec};
    use blast_core::{Dfa, Matrix, Pssm};
    use blast_cpu::gapped::gapped_phase_subject;
    use blast_cpu::traceback::traceback;

    fn setup() -> (
        bio_seq::Sequence,
        DeviceQuery,
        DeviceDbBlock,
        SearchParams,
        ExtensionsCsr,
    ) {
        let q = make_query(96);
        let spec = DbSpec {
            name: "gd",
            num_sequences: 60,
            mean_length: 140,
            homolog_fraction: 0.3,
            seed: 43,
        };
        let synth = generate_db(&spec, &q);
        let m = Matrix::blosum62();
        let p = SearchParams::default();
        let dq = DeviceQuery::upload(Dfa::build(&q, &m, p.threshold), Pssm::build(&q, &m));
        let db = DeviceDbBlock::upload(synth.db.sequences(), 0);
        let cfg = CuBlastpConfig {
            grid_blocks: 2,
            warps_per_block: 2,
            ..CuBlastpConfig::default()
        };
        let out = crate::gpu_phase::run_gpu_phase(
            &DeviceConfig::k20c(),
            &cfg,
            &dq,
            &db,
            &p,
            &gpu_sim::KernelWorkspace::new(),
            &gpu_sim::FaultInjector::none(),
            gpu_sim::FaultCtx::default(),
            None,
        )
        .expect("no faults armed");
        (q, dq, db, p, out.extensions)
    }

    /// The fine kernel over the whole fixture, fault-free, report cutoff 0.
    fn run_fine(cfg: &CuBlastpConfig, ws: &KernelWorkspace) -> GappedDeviceOutput {
        let (q, dq, db, p, exts) = setup();
        gapped_fine_kernel(
            &DeviceConfig::k20c(),
            cfg,
            &dq,
            q.residues(),
            &db,
            &exts,
            &p,
            p.gapped_trigger,
            0,
            ws,
            &FaultInjector::none(),
            FaultCtx::default(),
        )
        .expect("no faults armed")
    }

    #[test]
    fn fine_kernel_matches_cpu_gapped_and_traceback() {
        let (q, dq, db, p, exts) = setup();
        let cfg = CuBlastpConfig {
            grid_blocks: 3,
            warps_per_block: 2,
            ..CuBlastpConfig::default()
        };
        let ws = KernelWorkspace::new();
        let out = gapped_fine_kernel(
            &DeviceConfig::k20c(),
            &cfg,
            &dq,
            q.residues(),
            &db,
            &exts,
            &p,
            p.gapped_trigger,
            0,
            &ws,
            &FaultInjector::none(),
            FaultCtx::default(),
        )
        .expect("no faults armed");
        let mut any = false;
        for i in 0..exts.num_seqs() {
            let cpu = gapped_phase_subject(&dq.pssm, db.seq(i), exts.seq(i), &p, p.gapped_trigger);
            assert_eq!(out.gapped[i], cpu, "subject {i} gapped extensions");
            let cpu_aligns: Vec<Alignment> = cpu
                .iter()
                .filter(|g| g.score >= 0)
                .map(|g| traceback(&dq.pssm, q.residues(), db.seq(i), g, &p))
                .collect();
            assert_eq!(out.alignments[i], cpu_aligns, "subject {i} alignments");
            any |= !cpu.is_empty();
        }
        assert!(any, "workload produced no gapped extensions");
        assert!(out.stats.warp_cycles > 0);
        assert!(out.download_bytes > 0);
        // Warp-cooperative sweep: zero intra-warp divergence by design.
        assert_eq!(out.stats.divergence_overhead(), 0.0);
        // The memory bound the backend exists for.
        assert!(out.itrace.peak_dir_bytes <= out.itrace.dir_budget());
        assert!(out.itrace.refill_passes > 0);
    }

    #[test]
    fn modelled_bill_of_the_fixture_is_pinned() {
        // `push_tiles` bills the kernel from the interval-traceback
        // counters, so how the host computes the DP (which pass drops the
        // checkpoints, which ISA runs it) must never show up here. The
        // numbers are the ones the three-pass scalar implementation
        // produced for this fixture.
        let cfg = CuBlastpConfig {
            grid_blocks: 3,
            warps_per_block: 2,
            ..CuBlastpConfig::default()
        };
        let out = run_fine(&cfg, &KernelWorkspace::new());
        assert_eq!(out.stats.warp_cycles, 25_590);
        assert_eq!(out.stats.global_transactions, 603);
        assert_eq!(out.download_bytes, 1_170);
        assert_eq!(
            out.itrace,
            ItraceReport {
                interval: 10,
                forward_cells: 30_568,
                refill_cells: 19_369,
                refill_passes: 73,
                checkpoint_words: 600,
                peak_dir_bytes: 373,
                band_max: 51,
                rows: 1_066,
            }
        );
    }

    #[test]
    fn repeat_calls_reuse_workspace_buffers() {
        // Checkpoint words and direction bytes come from the pooled
        // workspace and go back to it: once warm, a call allocates from
        // neither pool.
        let ws = KernelWorkspace::new();
        let run = || run_fine(&CuBlastpConfig::default(), &ws);
        run();
        run();
        let (warm, checkouts) = (ws.allocations(), ws.checkouts());
        for _ in 0..3 {
            run();
        }
        assert_eq!(ws.allocations(), warm, "a warm call must not allocate");
        assert!(ws.checkouts() > checkouts, "the pools must be in use");
    }

    #[test]
    fn fine_kernel_beats_coarse_on_modelled_time() {
        let (q, dq, db, p, exts) = setup();
        let cfg = CuBlastpConfig {
            grid_blocks: 3,
            warps_per_block: 2,
            ..CuBlastpConfig::default()
        };
        let dev = DeviceConfig::k20c();
        let fine = gapped_fine_kernel(
            &dev,
            &cfg,
            &dq,
            q.residues(),
            &db,
            &exts,
            &p,
            p.gapped_trigger,
            0,
            &KernelWorkspace::new(),
            &FaultInjector::none(),
            FaultCtx::default(),
        )
        .expect("no faults armed");
        let (_, coarse) =
            crate::gapped_gpu::gapped_kernel(&dev, &cfg, &dq, &db, &exts, &p, p.gapped_trigger);
        assert!(
            fine.stats.time_ms(&dev) < coarse.time_ms(&dev),
            "fine {} ms must beat coarse {} ms",
            fine.stats.time_ms(&dev),
            coarse.time_ms(&dev)
        );
    }

    #[test]
    fn gapped_fault_sites_surface_and_clear() {
        use gpu_sim::{FaultPlan, FaultSpec};
        let (q, dq, db, p, exts) = setup();
        let cfg = CuBlastpConfig::default();
        for site in FaultSite::GAPPED {
            let inj = FaultInjector::new(FaultPlan::none().with(FaultSpec::once(site)));
            let ws = KernelWorkspace::new();
            let run = |inj: &FaultInjector, ws: &KernelWorkspace| {
                gapped_fine_kernel(
                    &DeviceConfig::k20c(),
                    &cfg,
                    &dq,
                    q.residues(),
                    &db,
                    &exts,
                    &p,
                    p.gapped_trigger,
                    0,
                    ws,
                    inj,
                    FaultCtx::block(0),
                )
            };
            run(&inj, &ws).expect_err("armed fault must surface");
            assert_eq!(inj.injected(), 1, "site {}", site.name());
            run(&inj, &ws).unwrap_or_else(|e| panic!("site {} must clear, got {e}", site.name()));
        }
    }

    #[test]
    fn empty_extension_input_is_free() {
        let (q, dq, db, p, _) = setup();
        let empty = ExtensionsCsr::from_stream(Vec::new(), db.num_seqs());
        let out = gapped_fine_kernel(
            &DeviceConfig::k20c(),
            &CuBlastpConfig::default(),
            &dq,
            q.residues(),
            &db,
            &empty,
            &p,
            p.gapped_trigger,
            0,
            &KernelWorkspace::new(),
            &FaultInjector::none(),
            FaultCtx::default(),
        )
        .expect("no faults armed");
        assert_eq!(out.stats.warp_cycles, 0);
        assert_eq!(out.download_bytes, 0);
        assert!(out.alignments.iter().all(|a| a.is_empty()));
    }
}
