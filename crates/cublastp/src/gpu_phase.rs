//! The GPU side of cuBLASTP for one database block: hit detection with
//! binning, then hit reordering (assembling → sorting → filtering, §3.3)
//! and ungapped extension (§3.4) as one launch, the fused hit tail — two
//! launches where the paper's decoupled design has five.

use crate::binning::{binning_kernel, BinnedHits};
use crate::config::CuBlastpConfig;
use crate::devicedata::{DeviceDbBlock, DeviceQuery};
use crate::extension::{hit_tail_kernel, ExtensionResult, HitTail, HIT_TAIL_KERNEL, RECORD_BYTES};
use crate::gapped_device::FINE_GAPPED_KERNEL;
use blast_core::SearchParams;
use blast_cpu::ungapped::UngappedExt;
use gpu_sim::{
    DeviceConfig, DeviceError, FaultCtx, FaultInjector, FaultSite, KernelStats, KernelWorkspace,
};

/// Counters describing what the block produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuPhaseCounts {
    /// Word hits detected.
    pub hits: u64,
    /// Hits surviving the filter.
    pub filtered: u64,
    /// Ungapped extensions computed (after de-duplication).
    pub extensions: u64,
    /// Of those, the ones that reached the gapped trigger — the records
    /// the extension kernel writes out and the only ones later phases read.
    pub triggered: u64,
    /// Redundant extensions discarded (hit-based strategy only).
    pub redundant: u64,
    /// Bytes billed to the D2H leg — set by the search loop, which knows
    /// what crossed ([`GpuPhaseOutput::download_bytes`], or nothing).
    pub d2h_bytes: u64,
}

impl GpuPhaseCounts {
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

impl Default for ExtensionsCsr {
    /// No subjects.
    fn default() -> Self {
        Self::from_stream(Vec::new(), 0)
    }
}

impl ExtensionsCsr {
    /// Group a record stream by `seq_id`; within a subject, stream order is
    /// preserved. A stream that is already grouped — what
    /// [`crate::extension::extension_kernel`] returns — becomes the record
    /// buffer as it is;
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

    /// Size of the records on the PCIe link.
    pub fn record_bytes(&self) -> u64 {
        self.records.len() as u64 * RECORD_BYTES as u64
    }
}

/// Output of the GPU phase for one database block.
#[derive(Debug)]
pub struct GpuPhaseOutput {
    /// The extensions that reached the gapped trigger, grouped by
    /// block-local subject id (CSR over one flat buffer; subjects without
    /// any have empty spans).
    pub extensions: ExtensionsCsr,
    /// Stats of the kernels the block launched, in execution order: hit
    /// detection (absent when a grouped pass seeded the block) and the
    /// fused hit tail (hit reordering as the extension's prologue).
    pub kernels: Vec<KernelStats>,
    /// Hit/extension counters.
    pub counts: GpuPhaseCounts,
    /// Bytes the host downloads for this block (Fig. 12's D2H leg; see
    /// DESIGN.md "PCIe legs"). The phase sets it to the trigger
    /// survivors' records; the search loop replaces it with the alignment
    /// payload when the device gapped kernel consumes the records itself,
    /// and a block whose hit phase ran on the host has nothing to download.
    pub download_bytes: u64,
}

impl GpuPhaseOutput {
    /// Find one kernel's stats by name ([`kernel_named`]).
    pub fn kernel(&self, name: &str) -> Option<&KernelStats> {
        self.kernels.iter().find(|k| kernel_named(&k.name, name))
    }
}

/// The name that stands for every strategy's standalone extension kernel
/// ([`crate::ExtensionStrategy::kernel_name`]) in a kernel lookup.
pub const EXTENSION_FAMILY: &str = "ungapped_extension";

/// Whether the kernel row named `row` answers a lookup by `name`: the
/// same name, or [`EXTENSION_FAMILY`] and one strategy's extension
/// kernel. Never a substring: a row whose name contains another's is
/// another kernel. The one rule of every by-name lookup of a kernel row.
pub fn kernel_named(row: &str, name: &str) -> bool {
    use crate::config::ExtensionStrategy::{Diagonal, Hit, Window};
    row == name
        || (name == EXTENSION_FAMILY
            && [Diagonal, Hit, Window]
                .iter()
                .any(|s| s.kernel_name() == row))
}

/// Stats names of the hit-path kernels, in execution order: hit detection
/// (absent when a grouped pass seeded the block) and the fused hit tail —
/// reordering as the extension kernel's prologue.
pub(crate) const HIT_PATH_KERNELS: [&str; 2] = ["hit_detection", HIT_TAIL_KERNEL];

/// Where a kernel sits in a block's pipeline, by stats name: the
/// hit-path kernels, then the device gapped kernel. The order the
/// per-kernel rows of a [`crate::CuBlastpResult`] keep, whichever block
/// first ran which kernel.
pub(crate) fn pipeline_rank(name: &str) -> usize {
    match name {
        FINE_GAPPED_KERNEL => HIT_PATH_KERNELS.len(),
        _ => {
            (HIT_PATH_KERNELS.iter().position(|k| *k == name)).unwrap_or(HIT_PATH_KERNELS.len() + 1)
        }
    }
}

/// A pipeline kernel's stats name as the `&'static str` a trace event is
/// named by: one of [`HIT_PATH_KERNELS`] or the device gapped kernel.
pub(crate) fn kernel_label(name: &str) -> &'static str {
    (HIT_PATH_KERNELS.into_iter())
        .chain([FINE_GAPPED_KERNEL])
        .find(|k| *k == name)
        .unwrap_or("kernel")
}

/// Run the two hit-path kernels over one uploaded database block.
/// Hit-path scratch (arena pages, sort ping-pong, compaction buffers)
/// comes from `ws` and is returned to it before the call ends, so a warm
/// workspace makes the whole phase allocation-free on the host.
///
/// The `injector` is consulted at every fault site a real driver could
/// fail at — scratch allocation, workspace checkout, each transfer leg,
/// and each of the two kernel launches. With a disarmed injector every
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
/// demuxed slice of a grouped seeding pass over the block: kernel 1 does
/// not launch and has no entry in the output's `kernels` — the pass is a
/// round-level cost the batch timeline bills once, not to each member.
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
        Some(binned) => (binned, None),
        None => {
            // Kernel 1: warp-based hit detection with binning (Algorithm 2).
            injector.check(FaultSite::KernelLaunch, ctx, "hit_detection")?;
            let mut k_span = obs::span("hit_detection", "kernel").with_block(ctx.block);
            let (binned, k_bin) = binning_kernel(device, cfg, query, db, ws);
            k_span.set_arg("sim_ms", k_bin.time_ms(device));
            (binned, Some(k_bin))
        }
    };

    run_gpu_tail(
        device, cfg, query, db, params, ws, injector, ctx, binned, k_bin,
    )
}

/// Hit reordering and ungapped extension over an already-binned hit
/// arena — one launch, [`hit_tail_kernel`] — plus the D2H leg and the
/// phase's metrics. The per-query path
/// feeds this the `binning_kernel` arena; the grouped path feeds it one
/// member's demuxed slice of a grouped seeding pass — either way `binned`
/// holds that query's hits in the standard arena shape, so downstream
/// semantics are identical by construction.
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
    k_bin: Option<KernelStats>,
) -> Result<GpuPhaseOutput, DeviceError> {
    let hits = binned.total_hits;

    // Kernel 2: gather the bins, segmented-sort the packed keys, drop the
    // non-extendable hits (Fig. 6a–c, Fig. 7; in one-hit mode the filter
    // degenerates to compaction) and extend the survivors
    // (Algorithms 3–5) in one launch.
    injector.check(FaultSite::KernelLaunch, ctx, HIT_TAIL_KERNEL)?;
    let mut k_span = obs::span(HIT_TAIL_KERNEL, "kernel").with_block(ctx.block);
    let HitTail {
        result,
        computed: n_ext,
        filtered: n_filtered,
    } = hit_tail_kernel(device, cfg, query, db, binned, params, ws);
    let ExtensionResult {
        extensions,
        stats: k_tail,
        redundant,
    } = result;
    k_span.set_arg("sim_ms", k_tail.time_ms(device));
    drop(k_span);

    let extensions = ExtensionsCsr::from_stream(extensions, db.num_seqs());
    let triggered = extensions.len() as u64;
    let download_bytes = extensions.record_bytes();

    // D2H leg: the trigger survivors the CPU tail consumes (Fig. 12).
    injector.check(FaultSite::D2h, ctx, "extension download")?;
    injector.check(FaultSite::D2hTimeout, ctx, "extension download")?;

    // A block a grouped pass seeded launched no kernel 1: no stats, no
    // row further up. The search bills the launches — and draws them on
    // the trace's modelled track — per device pass, not here.
    let kernels: Vec<KernelStats> = k_bin.into_iter().chain([k_tail]).collect();
    if obs::state() != 0 {
        obs::counter("hits_detected_total", &[], hits);
        obs::counter("hits_survived_total", &[], n_filtered);
        obs::counter("extensions_total", &[], n_ext);
        obs::counter("extensions_triggered_total", &[], triggered);
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
        kernels,
        counts: GpuPhaseCounts {
            hits,
            filtered: n_filtered,
            extensions: n_ext,
            triggered,
            redundant,
            d2h_bytes: 0,
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
    fn phase_produces_all_three_kernels() {
        let (dq, db, p) = setup();
        let cfg = CuBlastpConfig {
            grid_blocks: 4,
            warps_per_block: 2,
            ..Default::default()
        };
        let out = run(&cfg, &dq, &db, &p);
        let names: Vec<&str> = out.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(names, ["hit_detection", HIT_TAIL_KERNEL]);
        assert!(out.kernels.iter().all(|k| k.warp_cycles > 0));
        assert!(out.counts.hits > 0);
        assert!(out.counts.extensions > 0);
        let k20c = DeviceConfig::k20c();
        assert!(out.kernels.iter().all(|k| k.time_ms(&k20c) > 0.0));
    }

    #[test]
    fn kernel_rows_are_found_by_exact_name_or_the_extension_family() {
        use crate::config::ExtensionStrategy::{Diagonal, Hit, Window};
        let out = |names: &[&str]| GpuPhaseOutput {
            extensions: ExtensionsCsr::default(),
            kernels: names.iter().map(|&n| KernelStats::new(n)).collect(),
            counts: GpuPhaseCounts::default(),
            download_bytes: 0,
        };
        let found = |o: &GpuPhaseOutput, name| o.kernel(name).map(|k| k.name.clone());
        // A row whose name contains another's is another kernel.
        let search = out(&["hit_detection", HIT_TAIL_KERNEL, FINE_GAPPED_KERNEL]);
        for name in ["hit", "hit_", "tail", "gapped_extension", "extension"] {
            assert_eq!(found(&search, name), None, "{name}");
        }
        for name in ["hit_detection", HIT_TAIL_KERNEL, FINE_GAPPED_KERNEL] {
            assert_eq!(found(&search, name).as_deref(), Some(name));
        }
        assert_eq!(
            found(&search, EXTENSION_FAMILY),
            None,
            "no extension launched"
        );
        // The family finds whichever strategy's extension kernel ran, and
        // nothing that merely names an extension.
        for s in [Diagonal, Hit, Window] {
            let staged = out(&["hit_reordering", FINE_GAPPED_KERNEL, s.kernel_name()]);
            assert_eq!(
                found(&staged, EXTENSION_FAMILY).as_deref(),
                Some(s.kernel_name())
            );
            assert_eq!(
                found(&staged, s.kernel_name()).as_deref(),
                Some(s.kernel_name())
            );
        }
        assert!(!kernel_named(FINE_GAPPED_KERNEL, EXTENSION_FAMILY));
    }

    #[test]
    fn filtering_rejects_most_hits() {
        let (dq, db, p) = setup();
        let cfg = CuBlastpConfig {
            grid_blocks: 4,
            warps_per_block: 2,
            ..Default::default()
        };
        let out = run(&cfg, &dq, &db, &p);
        let ratio = out.counts.survival_ratio();
        assert!(
            ratio < 0.35,
            "filter must reject the bulk of hits, survival = {ratio}"
        );
        assert!(ratio > 0.0);
    }

    /// The column-major CPU scan with the two-hit rule over every subject
    /// of the block: each subject's extensions in the kernels' canonical
    /// order, and the scan's counters.
    fn cpu_reference(
        dq: &DeviceQuery,
        db: &DeviceDbBlock,
        p: &SearchParams,
    ) -> (Vec<Vec<UngappedExt>>, blast_cpu::hit::HitStats) {
        let mut scratch = blast_cpu::hit::DiagonalScratch::new(0);
        let mut stats = blast_cpu::hit::HitStats::default();
        let per_seq = (0..db.num_seqs())
            .map(|i| {
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
                v.sort_by_key(|e| (e.seq_id, e.s_start, e.q_start, e.len));
                v
            })
            .collect();
        (per_seq, stats)
    }

    fn run(
        cfg: &CuBlastpConfig,
        dq: &DeviceQuery,
        db: &DeviceDbBlock,
        p: &SearchParams,
    ) -> GpuPhaseOutput {
        run_gpu_phase(
            &DeviceConfig::k20c(),
            cfg,
            dq,
            db,
            p,
            &KernelWorkspace::new(),
            &FaultInjector::none(),
            FaultCtx::default(),
        )
        .expect("no faults armed")
    }

    #[test]
    fn extensions_match_cpu_reference() {
        // The decisive semantics test: binning → sorting → filtering →
        // diagonal walk must reproduce exactly the extension set of the
        // column-major CPU scan with the two-hit rule. The whole set is
        // asked for the way any caller must: a trigger nothing falls below.
        let (dq, db, p) = setup();
        let cfg = CuBlastpConfig {
            grid_blocks: 3,
            ..Default::default()
        };
        let (cpu_exts, stats) = cpu_reference(&dq, &db, &p);
        let every_record = SearchParams {
            gapped_trigger: i32::MIN,
            ..p
        };
        let out = run(&cfg, &dq, &db, &every_record);
        assert_eq!(out.extensions.num_seqs(), cpu_exts.len());
        for (i, v) in cpu_exts.iter().enumerate() {
            assert_eq!(out.extensions.seq(i), v.as_slice(), "subject {i}");
        }
        assert_eq!(out.counts.hits, stats.hits);
        assert_eq!(out.counts.extensions, stats.extensions);
        assert_eq!(out.counts.triggered, stats.extensions);

        // At the search's own trigger the CSR is that set filtered, and
        // the counters still say what was computed.
        let out = run(&cfg, &dq, &db, &p);
        let mut triggered = 0;
        for (i, v) in cpu_exts.iter().enumerate() {
            let want: Vec<UngappedExt> = (v.iter().copied())
                .filter(|e| e.score >= p.gapped_trigger)
                .collect();
            assert_eq!(out.extensions.seq(i), want.as_slice(), "subject {i}");
            triggered += want.len() as u64;
        }
        assert!(0 < triggered && triggered < stats.extensions);
        assert_eq!(out.counts.extensions, stats.extensions);
        assert_eq!(out.counts.triggered, triggered);
        assert_eq!(out.download_bytes, triggered * 20);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

        /// The fused trigger compaction, over random triggers × the three
        /// strategies × grids that are not powers of two.
        #[test]
        fn compaction_ships_exactly_the_trigger_survivors(
            trigger in 0i32..100,
            lower_by in 1i32..60,
            strategy in 0usize..3,
            grid_blocks in 1u32..8,
            warps_per_block in 1u32..4,
        ) {
            use proptest::prop_assert_eq;
            let (dq, db, p) = setup();
            let cfg = CuBlastpConfig {
                extension: [
                    crate::ExtensionStrategy::Diagonal,
                    crate::ExtensionStrategy::Hit,
                    crate::ExtensionStrategy::Window,
                ][strategy],
                grid_blocks,
                warps_per_block,
                ..Default::default()
            };
            let at = |gapped_trigger| run(&cfg, &dq, &db, &SearchParams { gapped_trigger, ..p });
            let (all, out, lower, none) = (
                at(i32::MIN),
                at(trigger),
                at(trigger - lower_by),
                at(i32::MAX),
            );

            // Everything computed is the CPU scan's set (a superset of it
            // for the hit-based kernel, which ignores coverage) …
            let (cpu_exts, stats) = cpu_reference(&dq, &db, &p);
            for (i, v) in cpu_exts.iter().enumerate() {
                if strategy == 1 {
                    proptest::prop_assert!(v.iter().all(|e| all.extensions.seq(i).contains(e)));
                } else {
                    prop_assert_eq!(all.extensions.seq(i), v.as_slice(), "subject {}", i);
                }
            }
            proptest::prop_assert!(all.counts.extensions >= stats.extensions);
            // … and the survivors are that set filtered, in its order.
            for i in 0..db.num_seqs() {
                let want: Vec<UngappedExt> = (all.extensions.seq(i).iter().copied())
                    .filter(|e| e.score >= trigger)
                    .collect();
                prop_assert_eq!(out.extensions.seq(i), want.as_slice(), "subject {}", i);
            }
            // The link carries them and nothing else; what was computed
            // and what the hit-based kernel discarded do not depend on it.
            prop_assert_eq!(out.counts.triggered, out.extensions.len() as u64);
            prop_assert_eq!(out.download_bytes, out.counts.triggered * 20);
            prop_assert_eq!(out.counts.extensions, all.counts.extensions);
            prop_assert_eq!(out.counts.redundant, all.counts.redundant);

            // Survivor sets nest, so the billed compaction never gets
            // cheaper as the trigger falls; with no survivor at all it
            // is votes only — no atomic, no record written: what the
            // launch writes then is its prologue's alone, 20 B per record
            // below what it writes when every record survives.
            let tail = |o: &GpuPhaseOutput| o.kernel(HIT_TAIL_KERNEL).cloned().unwrap_or_default();
            let cycles = |o: &GpuPhaseOutput| tail(o).warp_cycles;
            proptest::prop_assert!(cycles(&all) >= cycles(&lower));
            proptest::prop_assert!(cycles(&lower) >= cycles(&out));
            proptest::prop_assert!(cycles(&out) >= cycles(&none));
            let k = tail(&none);
            prop_assert_eq!(k.atomic_ops, 0);
            let writes = |k: &KernelStats| k.global_useful_bytes - k.global_load_useful_bytes;
            let records = all.counts.extensions + all.counts.redundant;
            prop_assert_eq!(writes(&tail(&all)) - writes(&k), records * 20);
            prop_assert_eq!(none.download_bytes, 0);
        }
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
