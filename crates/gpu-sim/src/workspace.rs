//! Reusable kernel scratch — the pinned-pool analogue of a real CUDA
//! driver's allocator.
//!
//! The hit pipeline's kernels need per-block scratch (bin counters, arena
//! pages, sort ping-pong buffers). Allocating those per launch puts
//! `malloc` on the per-query hot path the batch engine serves from; a real
//! GPU driver instead keeps such buffers pooled and reuses them across
//! launches. [`KernelWorkspace`] is that pool: typed
//! free lists of `Vec`s that kernels check out, fill, and return. Capacity
//! is retained across checkouts, so after a warm-up query the steady state
//! performs **zero** heap allocations on this path — observable through
//! the [`BufferPool::allocs`] counter, which the workspace-reuse test pins
//! to exactly that contract.
//!
//! The pools only carry *host-side scratch*; simulated cost is unaffected
//! by construction (the tracer never sees where a buffer came from).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// `m`, recovered if a holder panicked: a free list is valid at every
/// point one can unwind from.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A free list of `Vec<T>` buffers. `take` pops a retained buffer (or
/// allocates an empty one on a cold miss); `put` clears the buffer and
/// returns its capacity to the pool.
pub struct BufferPool<T> {
    free: Mutex<Vec<Vec<T>>>,
    takes: AtomicU64,
    allocs: AtomicU64,
    /// Metric label; anonymous pools (empty name) skip metric emission.
    name: &'static str,
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        Self::named("")
    }
}

impl<T> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty pool labelled `name` in the `workspace_*` metric series.
    pub fn named(name: &'static str) -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            takes: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
            name,
        }
    }

    /// Check out a cleared buffer, reusing retained capacity when any is
    /// pooled.
    pub fn take(&self) -> Vec<T> {
        self.takes.fetch_add(1, Ordering::Relaxed);
        let buf = lock(&self.free).pop();
        let cold = buf.is_none();
        if cold {
            self.allocs.fetch_add(1, Ordering::Relaxed);
        }
        if !self.name.is_empty() {
            obs::counter("workspace_checkouts_total", &[("pool", self.name)], 1);
            if cold {
                obs::counter("workspace_cold_allocs_total", &[("pool", self.name)], 1);
            }
        }
        buf.unwrap_or_default()
    }

    /// Return a buffer to the pool. Contents are dropped; capacity is
    /// retained for the next [`take`](Self::take).
    pub fn put(&self, mut buf: Vec<T>) {
        buf.clear();
        lock(&self.free).push(buf);
    }

    /// Buffers checked out since construction.
    pub fn takes(&self) -> u64 {
        self.takes.load(Ordering::Relaxed)
    }

    /// Checkouts that had to allocate because the free list was empty.
    /// In the steady state this stops growing — the allocation-free
    /// contract of the hot path.
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Buffers currently sitting in the free list.
    pub fn pooled(&self) -> usize {
        lock(&self.free).len()
    }

    /// Bytes of capacity the free list retains: what the pool holds on to
    /// between checkouts.
    pub fn pooled_bytes(&self) -> usize {
        let held: usize = lock(&self.free).iter().map(Vec::capacity).sum();
        held * std::mem::size_of::<T>()
    }

    /// Drop every pooled buffer, releasing retained capacity. The recovery
    /// path calls this between retries of a failed block: a fault may leave
    /// outstanding buffers unreturned, and a fresh free list restores the
    /// pool to a known-good (cold) state. Counters are preserved.
    pub fn reset(&self) {
        lock(&self.free).clear();
    }
}

/// The scratch pools the hit-path kernels draw from, shared by every
/// search of an engine (and across a whole batch). All pools are
/// thread-safe: whoever holds the workspace may check buffers in and out
/// from several threads — a search's threads run the hit phases of
/// different database blocks side by side, and the device gapped
/// backend's per-subject DP, each with its own buffers. The per-block
/// kernel bodies of one launch are not such threads — `launch_map` runs
/// them one after another on the thread that launched.
///
/// Pools are split by buffer *role*, not only by element type: a free
/// list hands its most recently returned buffer to the next taker, so a
/// pool shared by a launch-wide array (an arena of every hit of a block)
/// and a per-thread-block one (one block's page) grows every buffer it
/// holds toward the largest use. Per-thread-block scratch therefore has
/// pools of its own (`tile_*`).
pub struct KernelWorkspace {
    /// Launch-wide packed 64-bit hit keys: the bin arena, sort scratch,
    /// filter output.
    pub keys: BufferPool<u64>,
    /// Launch-wide CSR offsets: the hit arena's segment boundaries.
    pub offsets: BufferPool<u32>,
    /// Keys one thread block holds: a seeding block's page, a filter
    /// tile's survivors.
    pub tile_keys: BufferPool<u64>,
    /// Counters one thread block holds: a seeding block's per-slot hit
    /// counts (the slots' write cursors while its page is stitched), its
    /// per-bin `top` and round counters.
    pub tile_counts: BufferPool<u32>,
    /// Interval-traceback checkpoint rows (device gapped backend): the
    /// bounded D/F snapshots the multi-pass re-fill restores from.
    pub ckpt: BufferPool<i32>,
    /// Resident-interval direction bytes (device gapped backend): at most
    /// one interval's band is live at a time — the O(band x interval)
    /// budget DESIGN.md §3.7 asserts.
    pub dirs: BufferPool<u8>,
}

impl Default for KernelWorkspace {
    fn default() -> Self {
        Self {
            keys: BufferPool::named("keys"),
            offsets: BufferPool::named("offsets"),
            tile_keys: BufferPool::named("tile_keys"),
            tile_counts: BufferPool::named("tile_counts"),
            ckpt: BufferPool::named("ckpt"),
            dirs: BufferPool::named("dirs"),
        }
    }
}

impl KernelWorkspace {
    /// An empty workspace (all pools cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Total checkouts across all pools.
    pub fn checkouts(&self) -> u64 {
        self.keys.takes()
            + self.offsets.takes()
            + self.tile_keys.takes()
            + self.tile_counts.takes()
            + self.ckpt.takes()
            + self.dirs.takes()
    }

    /// Total cold-miss allocations across all pools. Once the pools are
    /// warm this is constant across searches — the quantity the
    /// workspace-reuse test asserts on.
    pub fn allocations(&self) -> u64 {
        self.keys.allocs()
            + self.offsets.allocs()
            + self.tile_keys.allocs()
            + self.tile_counts.allocs()
            + self.ckpt.allocs()
            + self.dirs.allocs()
    }

    /// Bytes of capacity all pools retain between checkouts
    /// ([`BufferPool::pooled_bytes`]).
    pub fn pooled_bytes(&self) -> usize {
        self.keys.pooled_bytes()
            + self.offsets.pooled_bytes()
            + self.tile_keys.pooled_bytes()
            + self.tile_counts.pooled_bytes()
            + self.ckpt.pooled_bytes()
            + self.dirs.pooled_bytes()
    }

    /// Reset every pool to a cold free list (see [`BufferPool::reset`]).
    /// Called by the retry path after a device fault so the next attempt
    /// starts from known-good workspace state.
    pub fn reset(&self) {
        self.keys.reset();
        self.offsets.reset();
        self.tile_keys.reset();
        self.tile_counts.reset();
        self.ckpt.reset();
        self.dirs.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_capacity() {
        let pool: BufferPool<u64> = BufferPool::new();
        let mut a = pool.take();
        a.extend(0..1000);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap, "capacity must be retained");
        assert_eq!(pool.pooled_bytes(), 0, "the buffer is checked out");
        pool.put(b);
        assert_eq!(pool.pooled_bytes(), cap * 8);
        assert_eq!(pool.takes(), 2);
        assert_eq!(pool.allocs(), 1, "second take must hit the free list");
    }

    #[test]
    fn cold_takes_allocate_warm_takes_do_not() {
        let pool: BufferPool<u32> = BufferPool::new();
        let bufs: Vec<_> = (0..4).map(|_| pool.take()).collect();
        assert_eq!(pool.allocs(), 4);
        for b in bufs {
            pool.put(b);
        }
        for _ in 0..4 {
            let b = pool.take();
            pool.put(b);
        }
        assert_eq!(pool.allocs(), 4, "warm takes must not allocate");
        assert_eq!(pool.takes(), 8);
    }

    #[test]
    fn workspace_aggregates_counters() {
        let ws = KernelWorkspace::new();
        let k = ws.keys.take();
        let o = ws.offsets.take();
        assert_eq!(ws.checkouts(), 2);
        assert_eq!(ws.allocations(), 2);
        ws.keys.put(k);
        ws.offsets.put(o);
        let k = ws.keys.take();
        ws.keys.put(k);
        assert_eq!(ws.checkouts(), 3);
        assert_eq!(ws.allocations(), 2);
        assert_eq!(ws.keys.pooled(), 1);
    }

    #[test]
    fn reset_drops_pooled_buffers_but_keeps_counters() {
        let ws = KernelWorkspace::new();
        let k = ws.keys.take();
        let o = ws.offsets.take();
        ws.keys.put(k);
        ws.offsets.put(o);
        assert_eq!(ws.keys.pooled(), 1);
        ws.reset();
        assert_eq!(ws.keys.pooled(), 0);
        assert_eq!(ws.offsets.pooled(), 0);
        assert_eq!(ws.checkouts(), 2, "counters survive the reset");
        // The next take is a cold miss again.
        let k = ws.keys.take();
        ws.keys.put(k);
        assert_eq!(ws.keys.allocs(), 2);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        use std::sync::Arc;
        let pool = Arc::new(BufferPool::<u64>::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let mut b = p.take();
                        b.push(1);
                        p.put(b);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.takes(), 400);
        assert!(pool.allocs() <= 4, "at most one cold alloc per thread");
    }
}
