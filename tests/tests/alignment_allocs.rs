//! Steady-state allocation count of the CPU alignment stage.
//!
//! DESIGN.md §3.5 / §3.7 promise that gapped extension allocates nothing
//! once its thread-local rows are warm, and that traceback and interval
//! traceback allocate exactly the returned alignment's op vector. The
//! promise is about the heap, so this file counts heap allocations: a
//! counting global allocator (this test binary only) with a per-thread
//! counter, so the harness's other threads cannot disturb the reading.

use bio_seq::alphabet::Residue;
use bio_seq::Sequence;
use blast_core::{Matrix, Pssm, SearchParams};
use blast_cpu::gapped::extend_gapped;
use blast_cpu::itrace::{default_interval, traceback_interval, ItraceScratch};
use blast_cpu::simd::{with_forced, IsaLevel};
use blast_cpu::traceback::traceback;
use blast_cpu::ungapped::UngappedExt;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to the system allocator;
// the only addition is a bump of a `const`-initialized, destructor-free
// thread-local cell, which neither allocates nor can be observed freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn warm_alignment_stage_allocates_only_the_op_vector() {
    // A 300-residue query against itself with substitutions and two
    // indels: both halves are long, gapped, and span many checkpoint
    // intervals.
    let q: Vec<Residue> = (0..300u32).map(|k| ((k * 7 + k / 11) % 20) as u8).collect();
    let mut s: Vec<Residue> = q
        .iter()
        .enumerate()
        .map(|(k, &r)| if k % 13 == 5 { (r + 3) % 20 } else { r })
        .collect();
    s.drain(80..83);
    s.splice(200..200, [1, 2, 3, 4]);
    let pssm = Pssm::build(
        &Sequence::from_residues("q", q.clone()),
        &Matrix::blosum62(),
    );
    let p = SearchParams::default();
    let seed = UngappedExt {
        seq_id: 0,
        q_start: 150,
        s_start: 147,
        len: 1,
        score: 0,
    };
    let interval = default_interval(q.len());

    for level in [Some(IsaLevel::Scalar), None] {
        with_forced(level, || {
            let mut scratch = ItraceScratch::default();
            let mut run = || {
                let (g, gapped) = allocations_of(|| extend_gapped(&pssm, &s, &seed, &p));
                let (a, full) = allocations_of(|| traceback(&pssm, &q, &s, &g, &p));
                let ((b, rep), itrace) = allocations_of(|| {
                    traceback_interval(&pssm, &q, &s, &g, &p, interval, &mut scratch)
                });
                assert_eq!(a, b);
                assert!(
                    a.gaps > 0 && rep.refill_passes > 4,
                    "fixture too easy: {rep:?}"
                );
                (gapped, full, itrace)
            };
            run();
            run();
            assert_eq!(
                run(),
                (0, 1, 1),
                "(gapped, traceback, interval traceback) allocations at {level:?}"
            );
        });
    }
}
