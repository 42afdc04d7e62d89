//! The CPU–GPU overlap pipeline (paper §3.6, Fig. 12), as a schedule.
//!
//! The database is processed in blocks. While the GPU runs hit detection
//! and ungapped extension for block *n+1*, the CPU runs gapped extension
//! and traceback for block *n*, and the PCIe bus moves block data in both
//! directions. [`schedule`] is the analytic four-stage timeline (H2D → GPU
//! → D2H → CPU) the ledger and the figures use: each stage is a serial
//! resource, stages of different blocks overlap freely. The overlap itself
//! runs in `CuBlastp::run_blocks`: the calling thread simulates block
//! *n+1* while the search's tail helpers (`blast_cpu::par`) finish block
//! *n*.

use serde::{Deserialize, Serialize};

/// Per-block stage times in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BlockTiming {
    /// Host→device transfer.
    pub h2d_ms: f64,
    /// GPU kernels (hit detection … ungapped extension).
    pub gpu_ms: f64,
    /// Device→host transfer of what the host reads next: the extension
    /// records that reached the gapped trigger, or the finished alignments
    /// when the device ran the gapped phase; exactly 0 for a block the host
    /// computed itself (DESIGN.md "PCIe legs").
    pub d2h_ms: f64,
    /// CPU gapped extension + traceback.
    pub cpu_ms: f64,
}

/// Result of scheduling a block sequence through the four-stage pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PipelineSchedule {
    /// Makespan with overlap (Fig. 12 execution).
    pub overlapped_ms: f64,
    /// Makespan if every stage ran serially (no overlap).
    pub serial_ms: f64,
}

impl PipelineSchedule {
    /// Fraction of serial time hidden by the overlap.
    pub fn saving(&self) -> f64 {
        if self.serial_ms <= 0.0 {
            0.0
        } else {
            1.0 - self.overlapped_ms / self.serial_ms
        }
    }
}

/// Compute the pipeline timeline: classic chained-stage recurrence where
/// each stage is busy with at most one block at a time.
pub fn schedule(blocks: &[BlockTiming]) -> PipelineSchedule {
    let mut h2d_free = 0.0f64;
    let mut gpu_free = 0.0f64;
    let mut d2h_free = 0.0f64;
    let mut cpu_free = 0.0f64;
    let mut serial = 0.0f64;
    for b in blocks {
        h2d_free += b.h2d_ms;
        gpu_free = gpu_free.max(h2d_free) + b.gpu_ms;
        d2h_free = d2h_free.max(gpu_free) + b.d2h_ms;
        cpu_free = cpu_free.max(d2h_free) + b.cpu_ms;
        serial += b.h2d_ms + b.gpu_ms + b.d2h_ms + b.cpu_ms;
    }
    PipelineSchedule {
        overlapped_ms: cpu_free,
        serial_ms: serial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devicedata::DeviceDb;
    use crate::error::PipelineError;
    #[cfg(target_os = "linux")]
    use crate::search::tests::threads_named;
    use crate::search::tests::{family_config, family_workload, flat, poisoned};
    use crate::search::{BlockProgress, CuBlastp, CuBlastpResult, SearchHooks};
    use crate::SearchError;
    use bio_seq::SequenceDb;
    use blast_core::SearchParams;
    use blast_cpu::search::{search_sequential, SearchEngine};
    use gpu_sim::{DeviceConfig, FaultInjector, FaultPlan, FaultSite, FaultSpec};
    use std::sync::{Arc, Mutex};

    fn block(h: f64, g: f64, d: f64, c: f64) -> BlockTiming {
        BlockTiming {
            h2d_ms: h,
            gpu_ms: g,
            d2h_ms: d,
            cpu_ms: c,
        }
    }

    #[test]
    fn single_block_has_no_overlap() {
        let s = schedule(&[block(1.0, 5.0, 1.0, 3.0)]);
        assert!((s.overlapped_ms - 10.0).abs() < 1e-9);
        assert!((s.serial_ms - 10.0).abs() < 1e-9);
        assert_eq!(s.saving(), 0.0);
    }

    #[test]
    fn balanced_blocks_pipeline_toward_bottleneck() {
        // 10 equal blocks: makespan ≈ fill latency + 10 × bottleneck stage.
        let blocks: Vec<BlockTiming> = (0..10).map(|_| block(1.0, 5.0, 1.0, 5.0)).collect();
        let s = schedule(&blocks);
        assert!((s.serial_ms - 120.0).abs() < 1e-9);
        // GPU and CPU both 5 ms → steady state ~5 ms per block per stage
        // chain; must be far below serial.
        assert!(s.overlapped_ms < 0.6 * s.serial_ms, "overlap = {s:?}");
        assert!(s.overlapped_ms >= 57.0, "cannot beat the busiest chain");
    }

    #[test]
    fn gpu_bound_pipeline_hides_cpu_entirely() {
        let blocks: Vec<BlockTiming> = (0..20).map(|_| block(0.1, 10.0, 0.1, 1.0)).collect();
        let s = schedule(&blocks);
        // Makespan ≈ 20 × 10 ms GPU + edges.
        assert!(s.overlapped_ms < 20.0 * 10.0 + 5.0);
        assert!(s.saving() > 0.05);
    }

    #[test]
    fn empty_schedule() {
        let s = schedule(&[]);
        assert_eq!(s.overlapped_ms, 0.0);
        assert_eq!(s.serial_ms, 0.0);
    }

    #[test]
    fn schedule_with_zero_timings_is_zero_not_nan() {
        let s = schedule(&[block(0.0, 0.0, 0.0, 0.0); 3]);
        assert_eq!(s.overlapped_ms, 0.0);
        assert_eq!(s.serial_ms, 0.0);
        assert_eq!(s.saving(), 0.0, "zero serial time must not divide to NaN");
    }

    #[test]
    fn schedule_makespan_is_monotone_in_block_count() {
        // Adding a block can never shrink the overlapped makespan.
        let blocks: Vec<BlockTiming> = (0..12)
            .map(|i| {
                block(
                    0.5 + (i % 3) as f64,
                    2.0 + (i % 5) as f64,
                    0.3,
                    1.0 + (i % 4) as f64,
                )
            })
            .collect();
        let mut prev = 0.0f64;
        for n in 0..=blocks.len() {
            let s = schedule(&blocks[..n]);
            assert!(
                s.overlapped_ms >= prev,
                "makespan shrank at n = {n}: {} < {prev}",
                s.overlapped_ms
            );
            assert!(s.overlapped_ms <= s.serial_ms + 1e-9);
            prev = s.overlapped_ms;
        }
    }

    // The executable overlap: `CuBlastp::run_blocks` runs block n + 1's GPU
    // side on the caller while the search's tail helpers finish block n.

    fn searcher(db: &SequenceDb, overlap: bool, stream_index: u32) -> CuBlastp {
        let (q, _) = family_workload();
        let cfg = family_config(2, overlap);
        let mut gpu = CuBlastp::new(q, SearchParams::default(), cfg, DeviceConfig::k20c(), db);
        gpu.stream_index = stream_index;
        gpu
    }

    /// `gpu` panics on the host side of `block`'s GPU phase, once.
    fn panic_once_at(gpu: &mut CuBlastp, block: u32) {
        let spec = FaultSpec::once(FaultSite::HostPanic).on_block(block);
        gpu.injector = Arc::new(FaultInjector::new(FaultPlan::none().with(spec)));
    }

    fn expect_panic_on(side: &str, got: Result<CuBlastpResult, SearchError>, case: &str) {
        match got {
            Err(SearchError::Pipeline(PipelineError::WorkerPanicked { side: s, .. })) => {
                assert_eq!(s, side, "{case}")
            }
            other => panic!("{case}: expected a typed {side} panic, got {other:?}"),
        }
    }

    #[test]
    fn overlap_blocks_preserves_order_and_values() {
        // Block n's tail is joined after block n + 1's GPU side, yet blocks
        // report in order and every value is the unoverlapped run's.
        let (_, db) = family_workload();
        let dev_db = DeviceDb::upload(&db, 24);
        let blocks = dev_db.blocks().len() as u32;
        assert!(blocks >= 3, "the overlap needs blocks to overlap");
        let run = |overlap| {
            let order = Mutex::new(Vec::new());
            let on_block = |p: BlockProgress<'_>| {
                order.lock().unwrap().push((p.block, p.blocks_total));
            };
            let hooks = SearchHooks {
                on_block: Some(&on_block),
                ..Default::default()
            };
            let r = searcher(&db, overlap, 7_400)
                .run_blocks(&[flat(&db, &dev_db)], false, None, &hooks)
                .map(|s| s.result)
                .expect("fault-free search");
            (r, order.into_inner().unwrap())
        };
        let (serial, serial_order) = run(false);
        let (overlapped, order) = run(true);
        let in_order: Vec<(u32, u32)> = (0..blocks).map(|b| (b, blocks)).collect();
        assert_eq!(serial_order, in_order);
        assert_eq!(order, in_order);
        assert_eq!(
            overlapped.report.identity_key(),
            serial.report.identity_key()
        );
        assert_eq!(overlapped.counts, serial.counts);
        let gpu_lanes = |r: &CuBlastpResult| -> Vec<(f64, f64, f64)> {
            r.block_timings
                .iter()
                .map(|t| (t.h2d_ms, t.gpu_ms, t.d2h_ms))
                .collect()
        };
        assert_eq!(overlapped.block_timings.len(), blocks as usize);
        assert_eq!(gpu_lanes(&overlapped), gpu_lanes(&serial));
    }

    #[test]
    fn overlap_with_empty_block_list_returns_empty() {
        let db = SequenceDb::new("empty", Vec::new());
        let dev_db = DeviceDb::upload(&db, 24);
        assert!(dev_db.blocks().is_empty());
        for overlap in [false, true] {
            let r = searcher(&db, overlap, 7_410)
                .run_blocks(&[flat(&db, &dev_db)], false, None, &SearchHooks::default())
                .map(|s| s.result)
                .expect("no blocks is no error");
            assert!(r.report.hits.is_empty(), "overlap = {overlap}");
            assert!(r.block_timings.is_empty(), "overlap = {overlap}");
            assert_eq!(r.timing.overlapped_ms, 0.0, "overlap = {overlap}");
            assert_eq!(r.tail_threads_ran, 0, "overlap = {overlap}");
        }
    }

    #[test]
    fn producer_panic_returns_err_not_deadlock() {
        // Block 1's GPU side panics while block 0's tail is posted to the
        // helpers: the search returns, and leaves nothing running.
        let (q, db) = family_workload();
        let dev_db = DeviceDb::upload(&db, 24);
        let cpu = search_sequential(&SearchEngine::new(q, SearchParams::default(), &db), &db);
        for overlap in [true, false] {
            let case = format!("overlap = {overlap}");
            let mut gpu = searcher(&db, overlap, 7_420 + overlap as u32);
            panic_once_at(&mut gpu, 1);
            let got = gpu
                .run_blocks(&[flat(&db, &dev_db)], false, None, &SearchHooks::default())
                .map(|s| s.result);
            expect_panic_on("gpu side", got, &case);
            #[cfg(target_os = "linux")]
            assert_eq!(
                threads_named(&format!("tail-q{}", gpu.stream_index)),
                0,
                "{case}"
            );
            // The fault fired once: the same searcher searches again.
            let clean = gpu
                .run_blocks(&[flat(&db, &dev_db)], false, None, &SearchHooks::default())
                .map(|s| s.result)
                .expect("the fault fires once");
            assert_eq!(
                clean.report.identity_key(),
                cpu.report.identity_key(),
                "{case}"
            );
        }
    }

    #[test]
    fn consumer_panic_returns_err_not_deadlock() {
        // Block 0's tail panics after block 1's GPU side has run beside it:
        // the loop stops there, no block reports, no helper is left.
        let (q, db) = family_workload();
        let dev_db = DeviceDb::upload(&db, 24);
        let cpu = search_sequential(&SearchEngine::new(q, SearchParams::default(), &db), &db);
        let victim = cpu.report.hits.iter().map(|h| h.subject_index).min();
        let victim = victim.expect("the family database has hits");
        assert!(victim < 24, "the poisoned subject must be in block 0");
        let poisoned = poisoned(&db, victim);
        for overlap in [true, false] {
            let case = format!("overlap = {overlap}");
            let reported = Mutex::new(0u32);
            let on_block = |_: BlockProgress<'_>| *reported.lock().unwrap() += 1;
            let hooks = SearchHooks {
                on_block: Some(&on_block),
                ..Default::default()
            };
            let gpu = searcher(&db, overlap, 7_430 + overlap as u32);
            let got = gpu
                .run_blocks(&[flat(&poisoned, &dev_db)], false, None, &hooks)
                .map(|s| s.result);
            expect_panic_on("cpu tail", got, &case);
            assert_eq!(reported.into_inner().unwrap(), 0, "{case}");
            #[cfg(target_os = "linux")]
            assert_eq!(
                threads_named(&format!("tail-q{}", gpu.stream_index)),
                0,
                "{case}"
            );
        }
    }

    #[test]
    fn panic_on_first_input_still_terminates() {
        // A one-block database whose only GPU side panics: nothing was
        // posted yet, and no helper is ever started.
        let (_, db) = family_workload();
        let db = SequenceDb::new("one block", db.sequences()[..24].to_vec());
        let dev_db = DeviceDb::upload(&db, 24);
        assert_eq!(dev_db.blocks().len(), 1);
        for overlap in [true, false] {
            let case = format!("overlap = {overlap}");
            let mut gpu = searcher(&db, overlap, 7_440 + overlap as u32);
            panic_once_at(&mut gpu, 0);
            let got = gpu
                .run_blocks(&[flat(&db, &dev_db)], false, None, &SearchHooks::default())
                .map(|s| s.result);
            expect_panic_on("gpu side", got, &case);
            #[cfg(target_os = "linux")]
            assert_eq!(
                threads_named(&format!("tail-q{}", gpu.stream_index)),
                0,
                "{case}"
            );
        }
    }
}
