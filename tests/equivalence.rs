//! Cross-crate integration tests: the emulator and the gate-level
//! simulator must produce the same quantum state on composite programs —
//! the core correctness claim behind every speedup in the paper.

use qcemu::prelude::*;
use qcemu_core::stdops::{self, mark_value};
use qcemu_sim::circuits::{tfim_trotter_step, TfimParams};
use std::f64::consts::PI;

fn assert_paths_agree(program: &QuantumProgram, init: StateVector, tol: f64, what: &str) {
    let emulated = Emulator::new()
        .run(program, init.clone())
        .unwrap_or_else(|e| panic!("{what}: emulator failed: {e}"));
    let simulated = GateLevelSimulator::new()
        .run(program, init.clone())
        .unwrap_or_else(|e| panic!("{what}: simulator failed: {e}"));
    let diff = emulated.max_diff_up_to_phase(&simulated);
    assert!(diff < tol, "{what}: paths disagree by {diff}");

    // The elementary-gate simulator must agree too.
    let elementary = GateLevelSimulator::elementary()
        .run(program, init)
        .unwrap_or_else(|e| panic!("{what}: elementary simulator failed: {e}"));
    let diff = emulated.max_diff_up_to_phase(&elementary);
    assert!(diff < tol, "{what}: elementary path disagrees by {diff}");
}

#[test]
fn arithmetic_pipeline_add_multiply() {
    let m = 2;
    let mut pb = ProgramBuilder::new();
    let a = pb.register("a", m);
    let b = pb.register("b", m);
    let c = pb.register("c", m);
    pb.hadamard_all(a);
    pb.hadamard_all(b);
    pb.classical(stdops::add(a, b, m)); // b += a
    pb.classical(stdops::multiply(a, b, c, m)); // c += a·b
    let program = pb.build().unwrap();
    assert_paths_agree(
        &program,
        StateVector::zero_state(program.n_qubits()),
        1e-9,
        "add+multiply",
    );
}

#[test]
fn division_after_superposition() {
    let m = 2;
    let mut pb = ProgramBuilder::new();
    let a = pb.register("a", m);
    let b = pb.register("b", m);
    let q = pb.register("q", m);
    let r = pb.register("r", m);
    pb.hadamard_all(a);
    pb.hadamard_all(b);
    pb.classical(stdops::divide(a, b, q, r, m));
    let program = pb.build().unwrap();
    assert_paths_agree(
        &program,
        StateVector::zero_state(program.n_qubits()),
        1e-9,
        "divide",
    );
}

#[test]
fn qft_sandwich_on_offset_register() {
    // QFT on a register that is neither at offset 0 nor the whole machine.
    let mut pb = ProgramBuilder::new();
    let pad = pb.register("pad", 2);
    let x = pb.register("x", 3);
    pb.hadamard_all(pad);
    pb.set_constant(x, 5);
    pb.qft(x);
    pb.gates(|c| {
        c.cphase(0, 2, 0.7); // entangle pad with x between the transforms
    });
    pb.inverse_qft(x);
    let program = pb.build().unwrap();
    assert_paths_agree(
        &program,
        StateVector::zero_state(program.n_qubits()),
        1e-9,
        "qft sandwich",
    );
}

#[test]
fn grover_oracle_and_diffusion() {
    let n = 5;
    let marked = 19u64;
    let mut pb = ProgramBuilder::new();
    let x = pb.register("x", n);
    pb.hadamard_all(x);
    for _ in 0..4 {
        pb.phase_oracle(mark_value(x, marked, PI));
        pb.hadamard_all(x);
        pb.phase_oracle(mark_value(x, 0, PI));
        pb.hadamard_all(x);
    }
    let program = pb.build().unwrap();
    let init = StateVector::zero_state(n);
    let emulated = Emulator::new().run(&program, init.clone()).unwrap();
    assert!(
        emulated.probability(marked as usize) > 0.9,
        "Grover amplification failed: {}",
        emulated.probability(marked as usize)
    );
    assert_paths_agree(&program, init, 1e-8, "grover");
}

#[test]
fn qpe_program_all_strategies_match_gate_level() {
    let n = 3;
    let b = 4;
    let unitary = tfim_trotter_step(n, TfimParams::default());
    let mut pb = ProgramBuilder::new();
    let target = pb.register("t", n);
    let phase = pb.register("p", b);
    pb.gates(|c| {
        c.h(0);
        c.cnot(0, 1);
        c.x(2);
    });
    pb.qpe(QpeOp {
        unitary,
        target,
        phase,
    });
    let program = pb.build().unwrap();
    let init = StateVector::zero_state(program.n_qubits());

    let gate = GateLevelSimulator::new()
        .run(&program, init.clone())
        .unwrap();
    for strategy in [
        QpeStrategy::RepeatedSquaring,
        QpeStrategy::Eigendecomposition,
    ] {
        let emu = Emulator::with_qpe_strategy(strategy)
            .run(&program, init.clone())
            .unwrap();
        let diff = gate.max_diff_up_to_phase(&emu);
        assert!(diff < 1e-6, "{strategy:?} diverges by {diff}");
    }
}

#[test]
fn emulation_only_program_runs_where_simulation_cannot() {
    // A classical function with no reversible circuit: the emulator's whole
    // point (§3.1). 12-bit nonlinear bijection (affine + xorshift mix).
    let mut pb = ProgramBuilder::new();
    let x = pb.register("x", 12);
    pb.hadamard_all(x);
    pb.classical(stdops::apply_classical_fn("mix", vec![x], |v| {
        let mut z = v[0];
        z = (z.wrapping_mul(2787) + 15) & 0xFFF; // 2787 odd → bijective mod 2^12
        z ^= z >> 5;
        v[0] = z & 0xFFF;
    }));
    let program = pb.build().unwrap();
    let init = StateVector::zero_state(12);
    let out = Emulator::new().run(&program, init.clone()).unwrap();
    assert!((out.norm() - 1.0).abs() < 1e-10);
    assert!(matches!(
        GateLevelSimulator::new().run(&program, init),
        Err(EmuError::NoGateImplementation { .. })
    ));
}

#[test]
fn modular_exponentiation_matches_bruteforce() {
    // Emulated Shor kernel vs direct computation of the final state.
    let mut pb = ProgramBuilder::new();
    let x = pb.register("x", 4);
    let y = pb.register("y", 4);
    pb.hadamard_all(x);
    pb.set_constant(y, 1);
    pb.classical(stdops::modexp(x, y, 2, 15));
    let program = pb.build().unwrap();
    let out = Emulator::new()
        .run(&program, StateVector::zero_state(8))
        .unwrap();
    for xv in 0..16usize {
        let yv = qcemu_core::stdops::pow_mod(2, xv as u64, 15) as usize;
        let idx = xv | (yv << 4);
        assert!(
            (out.probability(idx) - 1.0 / 16.0).abs() < 1e-12,
            "x = {xv}: expected weight at y = {yv}"
        );
    }
}

#[test]
fn ancilla_leak_is_detected() {
    // A "classical map" whose gate impl deliberately dirties the ancilla.
    use qcemu_core::{ClassicalMap, GateImpl, MapKind};
    use std::sync::Arc;
    let leaky = |a| ClassicalMap {
        name: "leaky".into(),
        regs: vec![a],
        f: Arc::new(|_| {}),
        kind: MapKind::InPlaceBijection,
        gate_impl: Some(GateImpl {
            n_ancilla: 1,
            build: Arc::new(|prog| {
                let mut c = qcemu_sim::Circuit::new(prog.n_qubits() + 1);
                c.x(prog.n_qubits()); // sets the ancilla to |1⟩ and leaves it
                c
            }),
        }),
    };
    let mut pb = ProgramBuilder::new();
    let a = pb.register("a", 2);
    pb.classical(leaky(a));
    let program = pb.build().unwrap();
    let err = GateLevelSimulator::new()
        .run(&program, StateVector::zero_state(2))
        .unwrap_err();
    assert!(matches!(err, EmuError::AncillaNotClean { step: 0, .. }));

    // Between two clean ancilla steps, the leak is caught right after the
    // step that made it.
    let mut pb = ProgramBuilder::new();
    let a = pb.register("a", 2);
    let b = pb.register("b", 2);
    pb.classical(stdops::add(a, b, 2));
    pb.classical(leaky(a));
    pb.classical(stdops::add(a, b, 2));
    let program = pb.build().unwrap();
    let err = GateLevelSimulator::new()
        .run(&program, StateVector::zero_state(4))
        .unwrap_err();
    assert!(
        matches!(err, EmuError::AncillaNotClean { step: 1, .. }),
        "{err}"
    );
}
