//! The CPU–GPU overlap pipeline (paper §3.6, Fig. 12).
//!
//! The database is processed in blocks. While the GPU runs hit detection
//! and ungapped extension for block *n+1*, the CPU runs gapped extension
//! and traceback for block *n*, and the PCIe bus moves block data in both
//! directions. Two artifacts live here:
//!
//! * [`schedule`] — the analytic four-stage pipeline timeline (H2D → GPU →
//!   D2H → CPU) used by the figures: each stage is a serial resource,
//!   stages of different blocks overlap freely.
//! * [`overlap_blocks`] — a real two-thread executor (a `sync_channel`
//!   bounded to one block in flight), so the overlap is not merely
//!   modelled but actually happens on the host. The search driver uses
//!   [`overlap_blocks_in`], the same executor on a scope it shares with
//!   the CPU tail's helper threads.

use crate::error::{panic_message, PipelineError};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::{Scope, ScopedJoinHandle};

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

/// The overlap thread of [`overlap_blocks_in`] once the consumer is done:
/// gone, or parked until its owner lets it go.
pub struct OverlapThread<'scope> {
    thread: ScopedJoinHandle<'scope, ()>,
    outlive: mpsc::Sender<ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> OverlapThread<'scope> {
    /// Let the thread go, after it has joined `first` — scoped threads it
    /// is to outlive — if it stayed for them. Returns what is left to
    /// join, in order: joining a handle waits until its thread is gone,
    /// thread-locals and all, which the end of a scope does not wait for.
    pub fn release_after(
        self,
        first: Vec<ScopedJoinHandle<'scope, ()>>,
    ) -> Vec<ScopedJoinHandle<'scope, ()>> {
        // A thread that did not stay has dropped the receiver: the handle
        // comes back and is the caller's to join.
        let mut left: Vec<_> = (first.into_iter())
            .filter_map(|thread| self.outlive.send(thread).err())
            .map(|unsent| unsent.0)
            .collect();
        left.push(self.thread);
        left
    }
}

/// Run `producer` (the GPU side) over the inputs on a separate thread and
/// `consumer` (the CPU side) on the calling thread, overlapping them with
/// a bounded channel — the executable counterpart of Fig. 12.
///
/// Outputs arrive at the consumer in input order; results are returned in
/// that order.
///
/// Both sides run under [`catch_unwind`]: a panic on either thread is
/// converted into [`PipelineError::WorkerPanicked`] instead of poisoning
/// the channel and hanging the peer. When the producer dies, dropping its
/// sender closes the channel, the consumer loop drains and stops, and the
/// stored panic wins; when the consumer dies, the receiver drops, the
/// producer's next `send` fails, and its loop exits. Either way both
/// threads terminate and the first panic is reported.
pub fn overlap_blocks<I, M, R>(
    inputs: Vec<I>,
    producer: impl Fn(I) -> M + Send,
    consumer: impl FnMut(M) -> R,
) -> Result<Vec<R>, PipelineError>
where
    I: Send,
    M: Send,
{
    std::thread::scope(|scope| {
        // Nobody for the overlap thread to outlive: it exits on its own.
        overlap_blocks_in(scope, inputs, producer, |_| false, consumer).0
    })
}

/// [`overlap_blocks`] with the overlap thread on a scope the caller owns,
/// for a consumer that starts scoped threads of its own — `run_blocks`'s
/// CPU tail and its helpers. `stays_for` tells the overlap thread, block
/// by block as it stages them, whether the consumer will start such
/// threads for that block. If it will for any, the overlap thread does
/// not exit after its last block: it parks until
/// [`OverlapThread::release_after`], joins the threads named there, and
/// leaves last.
///
/// Threads that leave in the reverse of the order they came in get back,
/// in the next search, the allocator arena they filled in this one (glibc
/// keeps the arenas of exited threads on a LIFO list). Left to itself the
/// overlap thread exits first and the helpers last, the two roles swap
/// arenas search after search, every arena grows to the simulator's
/// working set, and peak RSS on `sharded_skew` reads +20…35 %
/// (EXPERIMENTS.md "PR 24"). Staying costs the owner one wake-up at the
/// end of the search, so a search without helpers does not pay it.
pub fn overlap_blocks_in<'scope, I, M, R>(
    scope: &'scope Scope<'scope, '_>,
    inputs: Vec<I>,
    producer: impl Fn(I) -> M + Send + 'scope,
    stays_for: impl Fn(&M) -> bool + Send + 'scope,
    mut consumer: impl FnMut(M) -> R,
) -> (Result<Vec<R>, PipelineError>, OverlapThread<'scope>)
where
    I: Send + 'scope,
    M: Send + 'scope,
{
    // One staged block: the GPU side runs at most one block ahead of the
    // CPU side, as in Fig. 12.
    let (tx, rx) = mpsc::sync_channel::<M>(1);
    let (panicked, gpu_panic) = mpsc::channel::<String>();
    let (outlive, reap) = mpsc::channel::<ScopedJoinHandle<'scope, ()>>();
    let thread = scope.spawn(move || {
        // The closure owns `tx`; dropping it (normally or via unwind) is
        // what lets the consumer loop below terminate.
        let run = catch_unwind(AssertUnwindSafe(move || {
            let mut stay = false;
            for (i, input) in inputs.into_iter().enumerate() {
                let mid = {
                    let _span = obs::span("producer_block", "pipeline").with_block(i as u32);
                    producer(input)
                };
                obs::counter("pipeline_blocks_total", &[("side", "producer")], 1);
                stay |= stays_for(&mid);
                if tx.send(mid).is_err() {
                    break;
                }
            }
            stay
        }));
        // A thread that is not staying hangs up before it gives its
        // verdict, so a handle sent after the verdict comes back.
        let reap = matches!(run, Ok(true)).then_some(reap);
        if let Err(payload) = &run {
            let _ = panicked.send(panic_message(payload.as_ref()));
        }
        // Closed either way: the consumer side waits for this verdict.
        drop(panicked);
        for thread in reap.into_iter().flatten() {
            // A scoped thread's panic is its spawner's to report.
            let _ = thread.join();
        }
    });
    let overlap = OverlapThread { thread, outlive };
    let mut out = Vec::new();
    let mut consumed: u32 = 0;
    // recv() returns Err when the producer is done (or panicked and
    // dropped its sender) — either way the loop terminates.
    while let Ok(mid) = rx.recv() {
        let block = consumed;
        consumed += 1;
        let run = catch_unwind(AssertUnwindSafe(|| {
            let _span = obs::span("consumer_block", "pipeline").with_block(block);
            consumer(mid)
        }));
        match run {
            Ok(r) => {
                obs::counter("pipeline_blocks_total", &[("side", "consumer")], 1);
                out.push(r);
            }
            Err(payload) => {
                // Close the channel so a producer blocked on send() fails
                // fast and winds down; its verdict says whether it had
                // panicked first.
                drop(rx);
                let (side, payload) = match gpu_panic.recv() {
                    Ok(payload) => ("gpu producer", payload),
                    Err(_) => ("cpu consumer", panic_message(payload.as_ref())),
                };
                return (
                    Err(PipelineError::WorkerPanicked { side, payload }),
                    overlap,
                );
            }
        }
    }
    let result = match gpu_panic.recv() {
        Ok(payload) => Err(PipelineError::WorkerPanicked {
            side: "gpu producer",
            payload,
        }),
        Err(_) => Ok(out),
    };
    (result, overlap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

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
    fn overlap_blocks_preserves_order_and_values() {
        let out =
            overlap_blocks((0..50).collect::<Vec<i32>>(), |x| x * 2, |m| m + 1).expect("no panics");
        assert_eq!(out, (0..50).map(|x| x * 2 + 1).collect::<Vec<i32>>());
    }

    #[test]
    fn overlap_actually_overlaps_in_wall_time() {
        // Producer and consumer each sleep 4 × 10 ms; serial would be
        // ≥ 80 ms, overlapped should be well under.
        let t0 = Instant::now();
        let out = overlap_blocks(
            vec![(); 4],
            |_| std::thread::sleep(Duration::from_millis(10)),
            |_| std::thread::sleep(Duration::from_millis(10)),
        )
        .expect("no panics");
        let elapsed = t0.elapsed();
        assert_eq!(out.len(), 4);
        assert!(
            elapsed < Duration::from_millis(75),
            "no overlap observed: {elapsed:?}"
        );
    }

    #[test]
    fn overlap_thread_that_saw_threads_coming_outlives_them() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;
        for stays in [true, false] {
            let helper_gone = AtomicBool::new(false);
            let (release_helper, parked) = mpsc::channel::<()>();
            std::thread::scope(|scope| {
                let (out, overlap) =
                    overlap_blocks_in(scope, vec![1, 2, 3], |x| x * 2, |_| stays, |m| m + 1);
                assert_eq!(out.expect("no panics"), vec![3, 5, 7]);
                let helper_gone = &helper_gone;
                let helper = scope.spawn(move || {
                    let _ = parked.recv();
                    helper_gone.store(true, Ordering::SeqCst);
                });
                let left = overlap.release_after(vec![helper]);
                // An overlap thread that stayed took the helper's handle
                // and is joining it; one that left hands it back.
                assert_eq!(left.len(), if stays { 1 } else { 2 }, "stays = {stays}");
                drop(release_helper);
                for thread in left {
                    thread.join().expect("neither thread panics");
                }
                assert!(helper_gone.load(Ordering::SeqCst), "stays = {stays}");
            });
        }
    }

    #[test]
    fn overlap_with_empty_block_list_returns_empty() {
        let out = overlap_blocks(Vec::<i32>::new(), |x| x, |m: i32| m).expect("no panics");
        assert!(out.is_empty());
    }

    #[test]
    fn schedule_with_zero_timings_is_zero_not_nan() {
        let s = schedule(&[block(0.0, 0.0, 0.0, 0.0); 3]);
        assert_eq!(s.overlapped_ms, 0.0);
        assert_eq!(s.serial_ms, 0.0);
        assert_eq!(s.saving(), 0.0, "zero serial time must not divide to NaN");
    }

    #[test]
    fn producer_panic_returns_err_not_deadlock() {
        let out = overlap_blocks(
            (0..10).collect::<Vec<i32>>(),
            |x| {
                if x == 3 {
                    panic!("injected gpu-side panic");
                }
                x
            },
            |m| m,
        );
        match out {
            Err(PipelineError::WorkerPanicked { side, payload }) => {
                assert_eq!(side, "gpu producer");
                assert!(payload.contains("injected gpu-side panic"));
            }
            other => panic!("expected producer panic error, got {other:?}"),
        }
    }

    #[test]
    fn consumer_panic_returns_err_not_deadlock() {
        // The producer keeps sending while the consumer dies; the closed
        // channel must wind the producer down instead of blocking forever
        // on the sync_channel(1) send.
        let out = overlap_blocks(
            (0..100).collect::<Vec<i32>>(),
            |x| x,
            |m| {
                if m == 5 {
                    panic!("injected cpu-side panic");
                }
                m
            },
        );
        match out {
            Err(PipelineError::WorkerPanicked { side, payload }) => {
                assert_eq!(side, "cpu consumer");
                assert!(payload.contains("injected cpu-side panic"));
            }
            other => panic!("expected consumer panic error, got {other:?}"),
        }
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

    #[test]
    fn panic_on_first_input_still_terminates() {
        let out = overlap_blocks(vec![0i32], |_| panic!("immediate"), |m: i32| m);
        assert!(matches!(
            out,
            Err(PipelineError::WorkerPanicked {
                side: "gpu producer",
                ..
            })
        ));
    }
}
