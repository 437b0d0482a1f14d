//! Plan steps that must not copy the state. A compressed plan step
//! streams through the dense↔MPS boundary: its import reads the step's
//! state in place, and its densify writes back into the same buffer. A
//! coalesced ensemble's emulated steps run in place on its batch-major
//! buffer, so they add no ensemble-sized buffer at all.
//! This binary records the calling thread's heap allocations (each test
//! runs on its own thread, so the two records never mix). Allocations
//! made on the pool's worker threads are not counted: a pass the pool
//! splits into chunks is seen only through the chunks the calling thread
//! runs itself, so the records pin the calling thread's buffers — the
//! state copies, transposes and scratch states a step makes before it
//! dispatches.

use qcemu_core::{
    plan, stdops, Backend, CostModel, PlanInterpreter, Policy, ProgramBuilder, QuantumProgram,
    RotationOp,
};
use qcemu_sim::{BatchStateVector, MpsPolicy, SimConfig, StateVector, DEFAULT_MAX_BOND};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Recording;

thread_local! {
    /// The largest allocation this thread has made since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Allocations of at least `BIG` bytes this thread has made.
    static BIG_COUNT: Cell<usize> = const { Cell::new(0) };
    static BIG: Cell<usize> = const { Cell::new(usize::MAX) };
}

// SAFETY: defers every request to `System` unchanged; the records are
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size();
        let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
        if BIG.try_with(|b| size >= b.get()).unwrap_or(false) {
            let _ = BIG_COUNT.try_with(|c| c.set(c.get() + 1));
        }
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
        LARGEST.set(0);
        let (out, _) = interpreter.execute(&prog, &plan, initial).unwrap();
        let largest = LARGEST.get();
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

/// The daemon's serve program (`4m + 1` qubits, m = 3): H on two
/// registers, a deep local gate run, `multiply`, `add`, a rotation and a
/// QFT/IQFT pair.
fn serve_program(slope: f64) -> QuantumProgram {
    let m = 3;
    let mut pb = ProgramBuilder::new();
    let a = pb.register("a", m);
    let b = pb.register("b", m);
    let c = pb.register("c", m);
    let r = pb.register("r", m);
    let ind = pb.register("ind", 1);
    pb.hadamard_all(a);
    pb.hadamard_all(b);
    pb.gates(|circuit| {
        for block in 0..2 {
            for i in 0..60 {
                let (q, next) = (block * m + i % m, block * m + (i + 1) % m);
                match i % 3 {
                    0 => circuit.rz(q, 0.01 * i as f64),
                    1 => circuit.h(q),
                    _ => circuit.cnot(q, next),
                };
            }
        }
    });
    pb.classical(stdops::multiply(a, b, c, m));
    pb.classical(stdops::add(c, r, m));
    pb.rotation(RotationOp {
        name: "rotation".into(),
        x: a,
        target: ind,
        angle: Arc::new(move |v| slope * v as f64 + 0.05),
        gate_impl: None,
    });
    pb.qft(c);
    pb.inverse_qft(c);
    pb.build().unwrap()
}

#[test]
fn a_coalesced_serve_run_allocates_no_ensemble_sized_buffer() {
    let members: Vec<QuantumProgram> = (0..3)
        .map(|j| serve_program(0.1 + 0.2 * j as f64))
        .collect();
    let n = members[0].n_qubits();
    let plan = plan(
        &members[0],
        &CostModel::default(),
        &SimConfig::default(),
        Policy::Cheapest,
    );
    let interpreter = PlanInterpreter::default();
    for batch in [2usize, 3] {
        let ensemble_bytes = (batch << n) * std::mem::size_of::<qcemu_linalg::C64>();
        // Round 0 may start the pool; no round may copy the ensemble.
        for round in 0..2 {
            let initial = BatchStateVector::zero_state(n, batch);
            BIG.set(ensemble_bytes);
            BIG_COUNT.set(0);
            let (_, report) = interpreter
                .run_members(&members[..batch], &plan, initial)
                .unwrap();
            let big = BIG_COUNT.get();
            BIG.set(usize::MAX);
            assert!(
                big == 0,
                "(B = {batch}, round {round}) {big} ensemble-sized allocations\n{report}"
            );
        }
    }
}
