//! The GPU side of cuBLASTP for one database block: the five fine-grained
//! kernels (hit detection with binning → assembling → sorting → filtering
//! → ungapped extension) run back to back, as in §3.2–3.4.

use crate::binning::{binning_kernel, BinnedHits};
use crate::config::CuBlastpConfig;
use crate::devicedata::{DeviceDbBlock, DeviceQuery};
use crate::extension::{extension_kernel, ExtensionResult};
use crate::reorder::{assemble_kernel, sort_kernel};
use blast_core::SearchParams;
use blast_cpu::ungapped::UngappedExt;
use gpu_sim::{
    DeviceConfig, DeviceError, FaultCtx, FaultInjector, FaultSite, KernelStats, KernelWorkspace,
};

/// Counters describing what the block produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct GpuPhaseCounts {
    /// Word hits detected.
    pub hits: u64,
    /// Hits surviving the filter.
    pub filtered: u64,
    /// Ungapped extensions computed (after de-duplication).
    pub extensions: u64,
    /// Redundant extensions discarded (hit-based strategy only).
    pub redundant: u64,
}

impl GpuPhaseCounts {
    /// Add another block's (or shard's) counters to these.
    pub fn absorb(&mut self, other: &GpuPhaseCounts) {
        self.hits += other.hits;
        self.filtered += other.filtered;
        self.extensions += other.extensions;
        self.redundant += other.redundant;
    }

    /// Fraction of hits that survived filtering (§3.3 reports 5–11 %).
    pub fn survival_ratio(&self) -> f64 {
        if self.hits == 0 {
            0.0
        } else {
            self.filtered as f64 / self.hits as f64
        }
    }
}

/// Extension records grouped by block-local subject id in CSR form:
/// `offsets[i]..offsets[i+1]` delimits subject `i`'s records in one flat
/// buffer. Two allocations per block regardless of subject count — the
/// dense `Vec<Vec<_>>` it replaces allocated per subject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtensionsCsr {
    offsets: Vec<u32>,
    records: Vec<UngappedExt>,
}

impl ExtensionsCsr {
    /// Group a record stream by `seq_id`; within a subject, stream order is
    /// preserved. A stream that is already grouped — what
    /// [`extension_kernel`] returns — becomes the record buffer as it is;
    /// any other order goes through a stable counting sort.
    pub fn from_stream(stream: Vec<UngappedExt>, num_seqs: usize) -> Self {
        let mut offsets = vec![0u32; num_seqs + 1];
        let mut grouped = true;
        let mut prev = 0u32;
        for e in &stream {
            offsets[e.seq_id as usize + 1] += 1;
            grouped &= e.seq_id >= prev;
            prev = e.seq_id;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        if grouped {
            return Self {
                offsets,
                records: stream,
            };
        }
        let mut records = vec![stream[0]; stream.len()];
        let mut cursor: Vec<u32> = offsets[..num_seqs].to_vec();
        for e in stream {
            let c = &mut cursor[e.seq_id as usize];
            records[*c as usize] = e;
            *c += 1;
        }
        Self { offsets, records }
    }

    /// Number of subjects (including those without records).
    pub fn num_seqs(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of extension records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no subject has records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records of subject `i` (block-local index); empty slice when none.
    #[inline]
    pub fn seq(&self, i: usize) -> &[UngappedExt] {
        &self.records[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The flat record buffer, grouped by subject.
    pub fn records(&self) -> &[UngappedExt] {
        &self.records
    }
}

/// Output of the GPU phase for one database block.
#[derive(Debug)]
pub struct GpuPhaseOutput {
    /// Extensions grouped by block-local subject id (CSR over one flat
    /// buffer; subjects without extensions have empty spans).
    pub extensions: ExtensionsCsr,
    /// Per-kernel stats in execution order: hit detection, assembling,
    /// sorting, filtering, ungapped extension.
    pub kernels: Vec<KernelStats>,
    /// Hit/extension counters.
    pub counts: GpuPhaseCounts,
    /// Bytes the CPU must download (the extension records, Fig. 12's
    /// D2H leg).
    pub download_bytes: u64,
}

impl GpuPhaseOutput {
    /// Total simulated GPU time for the block in milliseconds.
    pub fn gpu_ms(&self, device: &DeviceConfig) -> f64 {
        self.kernels.iter().map(|k| k.time_ms(device)).sum()
    }

    /// Find one kernel's stats by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelStats> {
        self.kernels.iter().find(|k| k.name.contains(name))
    }
}

/// Merge one block's (or shard's) per-kernel stats into the running
/// per-kernel totals, positionally — every block runs the same kernels in
/// the same order. A block that ran more kernels than the totals hold yet
/// (a shard whose gapped phase carried a 6th entry) extends them.
pub(crate) fn merge_kernels(totals: &mut Vec<KernelStats>, block: Vec<KernelStats>) {
    for (k, o) in totals.iter_mut().zip(&block) {
        k.merge(o);
    }
    let have = totals.len();
    totals.extend(block.into_iter().skip(have));
}

/// Stats names of hit-path kernels 1–4, in execution order (kernel 5's is
/// [`crate::ExtensionStrategy::kernel_name`]).
pub(crate) const HIT_PATH_KERNELS: [&str; 4] = [
    "hit_detection",
    "hit_assembling",
    "hit_sorting",
    "hit_filtering",
];

/// Run the five fine-grained kernels over one uploaded database block.
/// Hit-path scratch (arena pages, sort ping-pong, compaction buffers)
/// comes from `ws` and is returned to it before the call ends, so a warm
/// workspace makes the whole phase allocation-free on the host.
///
/// The `injector` is consulted at every fault site a real driver could
/// fail at — scratch allocation, workspace checkout, each transfer leg,
/// and each of the five kernel launches. With a disarmed injector every
/// check is two relaxed atomic loads and the phase is infallible in
/// practice; an armed one returns the planned [`DeviceError`] so the
/// recovery layer above can retry or degrade.
#[allow(clippy::too_many_arguments)]
pub fn run_gpu_phase(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    params: &SearchParams,
    ws: &KernelWorkspace,
    injector: &FaultInjector,
    ctx: FaultCtx,
) -> Result<GpuPhaseOutput, DeviceError> {
    run_seeded_phase(device, cfg, query, db, params, ws, injector, ctx, None)
}

/// [`run_gpu_phase`] with the block's seed source explicit. `None` runs
/// kernel 1 through the query's own DFA. `Some(bins)` is this query's
/// demuxed slice of a grouped seeding pass over the block: kernel 1 is
/// skipped and its stats stay zeroed — the pass is a round-level cost the
/// batch timeline bills once, not to each member.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_seeded_phase(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    params: &SearchParams,
    ws: &KernelWorkspace,
    injector: &FaultInjector,
    ctx: FaultCtx,
    seeded: Option<BinnedHits>,
) -> Result<GpuPhaseOutput, DeviceError> {
    let _phase_span = obs::span("gpu_phase", "gpu")
        .with_block(ctx.block)
        .with_query(ctx.query);

    // The device footprint every phase starts with: scratch arena,
    // workspace checkout, and the H2D leg that made the block resident
    // (Fig. 12 upload).
    injector.check(FaultSite::DeviceAlloc, ctx, "block scratch arena")?;
    injector.check(FaultSite::Workspace, ctx, "hit-arena pools")?;
    injector.check(FaultSite::H2d, ctx, "db block upload")?;
    injector.check(FaultSite::H2dTimeout, ctx, "db block upload")?;
    injector.check(FaultSite::HostPanic, ctx, "gpu phase")?;

    let (binned, k_bin) = match seeded {
        Some(binned) => (binned, KernelStats::new("hit_detection")),
        None => {
            // Kernel 1: warp-based hit detection with binning (Algorithm 2).
            injector.check(FaultSite::KernelLaunch, ctx, "hit_detection")?;
            let mut k_span = obs::span("hit_detection", "kernel").with_block(ctx.block);
            let (binned, k_bin) = binning_kernel(device, cfg, query, db, ws);
            k_span.set_arg("sim_ms", k_bin.time_ms(device));
            (binned, k_bin)
        }
    };

    run_gpu_tail(
        device, cfg, query, db, params, ws, injector, ctx, binned, k_bin,
    )
}

/// Kernels 2–5 over an already-binned hit arena: assembling → sorting →
/// filtering → ungapped extension, plus the D2H leg and the phase's
/// metrics. The per-query path feeds this the `binning_kernel` arena; the
/// grouped path feeds it one member's demuxed slice of a grouped seeding
/// pass — either way `binned` holds that query's hits in the standard
/// arena shape, so downstream semantics are identical by construction.
#[allow(clippy::too_many_arguments)]
fn run_gpu_tail(
    device: &DeviceConfig,
    cfg: &CuBlastpConfig,
    query: &DeviceQuery,
    db: &DeviceDbBlock,
    params: &SearchParams,
    ws: &KernelWorkspace,
    injector: &FaultInjector,
    ctx: FaultCtx,
    binned: BinnedHits,
    k_bin: KernelStats,
) -> Result<GpuPhaseOutput, DeviceError> {
    let hits = binned.total_hits;

    // Kernel 2: assemble bins into a contiguous array (Fig. 6a) — the
    // arena moves, only the offsets are collapsed.
    injector.check(FaultSite::KernelLaunch, ctx, "hit_assembling")?;
    let mut k_span = obs::span("hit_assembling", "kernel").with_block(ctx.block);
    let (mut assembled, k_asm) = assemble_kernel(device, cfg, binned, ws);
    k_span.set_arg("sim_ms", k_asm.time_ms(device));
    drop(k_span);

    // Kernel 3: segmented sort on the packed 64-bit keys (Fig. 6b, Fig. 7).
    injector.check(FaultSite::KernelLaunch, ctx, "hit_sorting")?;
    let mut k_span = obs::span("hit_sorting", "kernel").with_block(ctx.block);
    let k_sort = sort_kernel(device, &mut assembled, ws);
    k_span.set_arg("sim_ms", k_sort.time_ms(device));
    drop(k_span);

    // Kernel 4: filter non-extendable hits (Fig. 6c); in one-hit mode the
    // pass degenerates to compaction.
    injector.check(FaultSite::KernelLaunch, ctx, "hit_filtering")?;
    let mut k_span = obs::span("hit_filtering", "kernel").with_block(ctx.block);
    let (filtered, k_filter) = crate::reorder::filter_kernel_mode(
        device,
        cfg,
        &assembled,
        params.two_hit,
        params.two_hit_window as i64,
        ws,
    );
    k_span.set_arg("sim_ms", k_filter.time_ms(device));
    drop(k_span);
    assembled.recycle(ws);
    let n_filtered = filtered.hits.len() as u64;

    // Kernel 5: fine-grained ungapped extension (Algorithms 3–5).
    injector.check(FaultSite::KernelLaunch, ctx, "ungapped_extension")?;
    let mut k_span = obs::span(cfg.extension.kernel_name(), "kernel").with_block(ctx.block);
    let ExtensionResult {
        extensions,
        stats: k_ext,
        redundant,
    } = extension_kernel(device, cfg, query, db, &filtered, params);
    k_span.set_arg("sim_ms", k_ext.time_ms(device));
    drop(k_span);
    filtered.recycle(ws);

    let n_ext = extensions.len() as u64;
    let extensions = ExtensionsCsr::from_stream(extensions, db.num_seqs());

    let download_bytes = n_ext * std::mem::size_of::<UngappedExt>() as u64;

    // D2H leg: the extension records the CPU tail consumes (Fig. 12).
    injector.check(FaultSite::D2h, ctx, "extension download")?;
    injector.check(FaultSite::D2hTimeout, ctx, "extension download")?;

    if obs::state() != 0 {
        let labels = HIT_PATH_KERNELS
            .into_iter()
            .chain([cfg.extension.kernel_name()]);
        for (label, k) in labels.zip([&k_bin, &k_asm, &k_sort, &k_filter, &k_ext]) {
            let sim_ms = k.time_ms(device);
            obs::modelled("gpu (modelled)", label, sim_ms, Some(ctx.block), None);
            obs::observe("kernel_sim_ms", &[("kernel", label)], sim_ms);
        }
        obs::counter("hits_detected_total", &[], hits);
        obs::counter("hits_survived_total", &[], n_filtered);
        obs::counter("extensions_total", &[], n_ext);
        obs::counter("extensions_redundant_total", &[], redundant);
        if hits > 0 {
            obs::observe(
                "filter_survival_pct",
                &[],
                100.0 * n_filtered as f64 / hits as f64,
            );
        }
    }

    Ok(GpuPhaseOutput {
        extensions,
        kernels: vec![k_bin, k_asm, k_sort, k_filter, k_ext],
        counts: GpuPhaseCounts {
            hits,
            filtered: n_filtered,
            extensions: n_ext,
            redundant,
        },
        download_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bio_seq::generate::{generate_db, make_query, DbSpec};
    use blast_core::{Dfa, Matrix, Pssm};

    fn setup() -> (DeviceQuery, DeviceDbBlock, SearchParams) {
        let q = make_query(96);
        let spec = DbSpec {
            name: "t",
            num_sequences: 80,
            mean_length: 150,
            homolog_fraction: 0.3,
            seed: 5,
        };
        let synth = generate_db(&spec, &q);
        let m = Matrix::blosum62();
        let p = SearchParams::default();
        let dq = DeviceQuery::upload(Dfa::build(&q, &m, p.threshold), Pssm::build(&q, &m));
        let db = DeviceDbBlock::upload(synth.db.sequences(), 0);
        (dq, db, p)
    }

    #[test]
    fn phase_produces_all_five_kernels() {
        let (dq, db, p) = setup();
        let cfg = CuBlastpConfig {
            grid_blocks: 4,
            warps_per_block: 2,
            ..Default::default()
        };
        let out = run_gpu_phase(
            &DeviceConfig::k20c(),
            &cfg,
            &dq,
            &db,
            &p,
            &KernelWorkspace::new(),
            &FaultInjector::none(),
            FaultCtx::default(),
        )
        .expect("no faults armed");
        assert_eq!(out.kernels.len(), 5);
        assert!(out.kernel("hit_detection").is_some());
        assert!(out.kernel("hit_sorting").is_some());
        assert!(out.kernel("hit_filtering").is_some());
        assert!(out.kernel("ungapped_extension").is_some());
        assert!(out.counts.hits > 0);
        assert!(out.counts.extensions > 0);
        assert!(out.gpu_ms(&DeviceConfig::k20c()) > 0.0);
    }

    #[test]
    fn filtering_rejects_most_hits() {
        let (dq, db, p) = setup();
        let cfg = CuBlastpConfig {
            grid_blocks: 4,
            warps_per_block: 2,
            ..Default::default()
        };
        let out = run_gpu_phase(
            &DeviceConfig::k20c(),
            &cfg,
            &dq,
            &db,
            &p,
            &KernelWorkspace::new(),
            &FaultInjector::none(),
            FaultCtx::default(),
        )
        .expect("no faults armed");
        let ratio = out.counts.survival_ratio();
        assert!(
            ratio < 0.35,
            "filter must reject the bulk of hits, survival = {ratio}"
        );
        assert!(ratio > 0.0);
    }

    #[test]
    fn extensions_match_cpu_reference() {
        // The decisive semantics test: binning → sorting → filtering →
        // diagonal walk must reproduce exactly the extension set of the
        // column-major CPU scan with the two-hit rule.
        let (dq, db, p) = setup();
        let cfg = CuBlastpConfig {
            grid_blocks: 3,
            ..Default::default()
        };
        let out = run_gpu_phase(
            &DeviceConfig::k20c(),
            &cfg,
            &dq,
            &db,
            &p,
            &KernelWorkspace::new(),
            &FaultInjector::none(),
            FaultCtx::default(),
        )
        .expect("no faults armed");

        let mut cpu_exts: Vec<Vec<UngappedExt>> = vec![Vec::new(); db.num_seqs()];
        let mut scratch = blast_cpu::hit::DiagonalScratch::new(0);
        let mut stats = blast_cpu::hit::HitStats::default();
        for (i, slot) in cpu_exts.iter_mut().enumerate() {
            let mut v = Vec::new();
            blast_cpu::hit::scan_subject(
                &dq.dfa,
                &dq.pssm,
                db.seq(i),
                i as u32,
                p.two_hit_window as i64,
                p.xdrop_ungapped,
                &mut scratch,
                &mut v,
                &mut stats,
            );
            *slot = v;
        }
        for v in cpu_exts.iter_mut() {
            v.sort_by_key(|e| (e.seq_id, e.s_start, e.q_start, e.len));
        }
        assert_eq!(out.extensions.num_seqs(), cpu_exts.len());
        for (i, v) in cpu_exts.iter().enumerate() {
            assert_eq!(out.extensions.seq(i), v.as_slice(), "subject {i}");
        }
        assert_eq!(out.counts.hits, stats.hits);
    }

    #[test]
    fn every_device_fault_site_surfaces_as_err() {
        use gpu_sim::{FaultPlan, FaultSpec};
        let (dq, db, p) = setup();
        let cfg = CuBlastpConfig {
            grid_blocks: 3,
            ..Default::default()
        };
        for site in FaultSite::DEVICE {
            let inj = FaultInjector::new(FaultPlan::none().with(FaultSpec::once(site)));
            let err = run_gpu_phase(
                &DeviceConfig::k20c(),
                &cfg,
                &dq,
                &db,
                &p,
                &KernelWorkspace::new(),
                &inj,
                FaultCtx::block(0),
            )
            .expect_err("armed fault must surface");
            assert_eq!(inj.injected(), 1, "site {}", site.name());
            // Second run: the transient single-shot fault has cleared.
            run_gpu_phase(
                &DeviceConfig::k20c(),
                &cfg,
                &dq,
                &db,
                &p,
                &KernelWorkspace::new(),
                &inj,
                FaultCtx::block(0),
            )
            .unwrap_or_else(|e| panic!("site {} must clear, got {e}", site.name()));
            let _ = err;
        }
    }

    #[test]
    fn launch_faults_name_the_failing_kernel_and_respect_block_scope() {
        use gpu_sim::{FaultPlan, FaultSpec};
        let (dq, db, p) = setup();
        let cfg = CuBlastpConfig {
            grid_blocks: 3,
            ..Default::default()
        };
        let inj = FaultInjector::new(
            FaultPlan::none().with(FaultSpec::permanent(FaultSite::KernelLaunch).on_block(2)),
        );
        // Block 0 is out of scope — the phase runs clean.
        run_gpu_phase(
            &DeviceConfig::k20c(),
            &cfg,
            &dq,
            &db,
            &p,
            &KernelWorkspace::new(),
            &inj,
            FaultCtx::block(0),
        )
        .expect("fault scoped to block 2 must not fire on block 0");
        // Block 2 fails, naming the first kernel launch.
        let err = run_gpu_phase(
            &DeviceConfig::k20c(),
            &cfg,
            &dq,
            &db,
            &p,
            &KernelWorkspace::new(),
            &inj,
            FaultCtx::block(2),
        )
        .expect_err("scoped fault must fire on block 2");
        assert_eq!(
            err,
            gpu_sim::DeviceError::LaunchFailed {
                kernel: "hit_detection".into()
            }
        );
    }

    #[test]
    fn csr_grouping_matches_per_seq_vectors() {
        let e = |seq_id: u32, s_start: u32| UngappedExt {
            seq_id,
            q_start: 1,
            s_start,
            len: 4,
            score: 13,
        };
        let stream = vec![e(2, 9), e(0, 1), e(2, 3), e(1, 7), e(2, 5)];
        let csr = ExtensionsCsr::from_stream(stream, 4);
        assert_eq!(csr.num_seqs(), 4);
        assert_eq!(csr.len(), 5);
        assert_eq!(csr.seq(0), &[e(0, 1)]);
        assert_eq!(csr.seq(1), &[e(1, 7)]);
        // Stream order within a subject is preserved (stable grouping).
        assert_eq!(csr.seq(2), &[e(2, 9), e(2, 3), e(2, 5)]);
        assert!(csr.seq(3).is_empty());

        let empty = ExtensionsCsr::from_stream(Vec::new(), 0);
        assert_eq!(empty.num_seqs(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn empty_block() {
        let q = make_query(32);
        let m = Matrix::blosum62();
        let p = SearchParams::default();
        let dq = DeviceQuery::upload(Dfa::build(&q, &m, p.threshold), Pssm::build(&q, &m));
        let db = DeviceDbBlock::upload(&[], 0);
        let out = run_gpu_phase(
            &DeviceConfig::k20c(),
            &CuBlastpConfig::default(),
            &dq,
            &db,
            &p,
            &KernelWorkspace::new(),
            &FaultInjector::none(),
            FaultCtx::default(),
        )
        .expect("no faults armed");
        assert_eq!(out.counts.hits, 0);
        assert_eq!(out.extensions.num_seqs(), 0);
        assert!(out.extensions.is_empty());
    }
}
