//! A request's bytes become a program in an allocation-light pass: the
//! decoded gate list is sized once and moves into the program, and gate
//! validation allocates nothing. This binary counts the heap allocations
//! each test's own thread makes, so the tests may run side by side.

use qcemu_serve::wire::{self, SubmitOptions, WireError, WireOp, WireProgram, WireRegister};
use qcemu_sim::{Gate, GateOp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static COUNT: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers every request to `System` unchanged; the thread-locals
// are const-initialised `Cell`s, so recording allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        let _ = LARGEST.try_with(|c| c.set(c.get().max(layout.size())));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        let _ = LARGEST.try_with(|c| c.set(c.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result with the number of allocations (and
/// reallocations) it made and the largest one in bytes.
fn recording<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    COUNT.with(|c| c.set(0));
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, COUNT.with(Cell::get), LARGEST.with(Cell::get))
}

#[test]
fn a_raw_gate_request_allocates_per_controlled_gate_only() {
    // The daemon benchmark's gate mix on 13 qubits: Rz, H and CNOT in turn.
    let n = 13;
    let gates: Vec<Gate> = (0..1200)
        .map(|i| match i % 3 {
            0 => Gate::rz(i % n, 0.01 * i as f64),
            1 => Gate::h(i % n),
            _ => Gate::cnot(i % n, (i + 1) % n),
        })
        .collect();
    let controlled = gates.iter().filter(|g| g.num_controls() > 0).count();
    let program = WireProgram {
        registers: vec![WireRegister {
            name: "q".into(),
            len: n as u32,
        }],
        ops: vec![WireOp::Gates(gates)],
    };
    let payload = wire::encode_submit(&program, &SubmitOptions::default());

    let (built, count, _) = recording(|| {
        let (decoded, _) = wire::decode_submit(&payload).unwrap();
        decoded.into_program().unwrap()
    });
    assert!(
        count <= controlled + 32,
        "{count} allocations for {controlled} controlled gates"
    );
    assert_eq!(
        built.structure_hash(),
        program.to_program().unwrap().structure_hash()
    );
}

#[test]
fn a_short_body_declaring_max_gates_reserves_what_it_carries() {
    // Two 5-byte gates (H on qubit 0), then the count is raised to the cap.
    let honest = WireProgram {
        registers: vec![WireRegister {
            name: "q".into(),
            len: 4,
        }],
        ops: vec![WireOp::Gates(vec![Gate::unary(GateOp::H, 0); 2])],
    };
    let mut payload = honest.encode();
    assert_eq!(payload.len(), 28, "a 10-byte gate body");
    // registers (2) + name (4 + 1) + width (4) + ops (2) + op tag (1).
    let count = 14..18;
    assert_eq!(payload[count.clone()], 2u32.to_le_bytes());
    payload[count].copy_from_slice(&(wire::MAX_GATES as u32).to_le_bytes());

    let (decoded, _, largest) = recording(|| wire::decode_submit(&payload).map(|_| ()));
    assert_eq!(decoded, Err(WireError::Truncated));
    assert!(largest <= 64 << 10, "largest allocation {largest} B");
}
