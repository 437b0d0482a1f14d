//! A compressed plan step streams through the dense↔MPS boundary: its
//! import reads the step's state in place, and its densify writes back
//! into the same buffer. This binary records the largest heap allocation
//! to pin that no buffer as large as the state is made along the way.
//! (One test only: the record is process-wide.)

use qcemu_core::{plan, Backend, CostModel, PlanInterpreter, Policy, ProgramBuilder};
use qcemu_sim::{MpsPolicy, SimConfig, StateVector, DEFAULT_MAX_BOND};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Recording;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every request to `System` unchanged.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

#[test]
fn a_compressed_step_allocates_no_state_sized_buffer() {
    let n = 17;
    let mut pb = ProgramBuilder::new();
    let _r = pb.register("r", n);
    pb.gates(|c| {
        for q in 0..12 {
            c.h(q);
        }
    });
    let prog = pb.build().unwrap();
    let config = SimConfig {
        mps: MpsPolicy::Forced {
            max_bond: DEFAULT_MAX_BOND,
        },
        ..SimConfig::default()
    };
    let plan = plan(&prog, &CostModel::default(), &config, Policy::Simulate);
    assert!(
        matches!(plan.steps()[0].backend, Backend::SimulateMps { .. }),
        "{plan}"
    );
    let interpreter = PlanInterpreter::default();
    let state_bytes = std::mem::size_of_val(StateVector::zero_state(n).amplitudes());
    // Round 0 may start the pool; both rounds must stay under the state.
    for round in 0..2 {
        let initial = StateVector::zero_state(n);
        LARGEST.store(0, Ordering::Relaxed);
        let (out, _) = interpreter.execute(&prog, &plan, initial).unwrap();
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(
            largest < state_bytes,
            "(round {round}) largest allocation {largest} B, state {state_bytes} B"
        );
        // H on qubits 0..12 of |0…0⟩: 2^-6 on each of the 2^12 indices.
        for (i, z) in out.amplitudes().iter().enumerate() {
            let want = if i < 1 << 12 { 1.0 / 64.0 } else { 0.0 };
            assert!(
                (z.re - want).abs() < 1e-12 && z.im.abs() < 1e-12,
                "amplitude {i}: {z:?}"
            );
        }
    }
}
