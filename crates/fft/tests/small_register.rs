//! A 3–5-bit register inside a 13–17-qubit state is thousands of tiny
//! transforms per call. This binary counts heap allocations to pin that
//! the tables and scratch are set up once per `fft_subspace` call, not
//! once per chunk. (One test only: the counter is process-wide.)

use qcemu_fft::{fft_subspace, Direction, Normalization};
use qcemu_linalg::C64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every request to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn small_register_transform_allocates_per_call_not_per_chunk() {
    for (n_qubits, lo) in [(13usize, 0usize), (17, 0), (15, 4), (17, 9), (17, 12)] {
        for m in 3..=5usize {
            let bits: Vec<usize> = (lo..lo + m).collect();
            let mut state = vec![C64::new(0.25, -0.5); 1 << n_qubits];
            let mut run = || {
                fft_subspace(
                    &mut state,
                    n_qubits,
                    &bits,
                    Direction::Inverse,
                    Normalization::Sqrt,
                )
            };
            // The first call may start the pool and grow the per-thread
            // scratch; both are kept.
            run();
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            run();
            let during = ALLOCATIONS.load(Ordering::Relaxed) - before;
            let chunks = 1usize << (n_qubits - m);
            assert!(
                during <= 16,
                "(log2n {n_qubits}, lo {lo}, m {m}): {during} allocations for {chunks} chunks"
            );
        }
    }
}
