//! Quantum phase estimation on the transverse-field Ising model — the
//! Table 2 workload at laptop scale, run through all three strategies
//! (gate-level, repeated squaring, eigendecomposition) with timings and
//! the crossover advisor's verdict.
//!
//! Run with: `cargo run --release --example qpe_ising [-- n b]`
//! Defaults: n = 4 spins, b = 6 bits of precision.

use qcemu::prelude::*;
use qcemu_core::QpeTimings;
use qcemu_linalg::eigenvalues;
use qcemu_sim::circuit_to_dense;
use qcemu_sim::circuits::{tfim_gate_count, tfim_trotter_step, TfimParams};
use std::time::Instant;

fn main() -> Result<(), EmuError> {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let b: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(6);

    let unitary = tfim_trotter_step(n, TfimParams::default());
    println!(
        "QPE of exp(-iHΔt) for the {n}-site TFIM: G = {} gates, b = {b} bits",
        tfim_gate_count(n)
    );

    // Program: target register holds the eigenvector guess (here |0…0⟩ —
    // a superposition of eigenstates), phase register reads the estimate.
    let build =
        |strategy: Option<QpeStrategy>| -> Result<(QuantumProgram, Box<dyn Executor>), EmuError> {
            let mut pb = ProgramBuilder::new();
            let target = pb.register("spins", n);
            let phase = pb.register("phase", b);
            pb.qpe(QpeOp {
                unitary: unitary.clone(),
                target,
                phase,
            });
            let program = pb.build()?;
            let exec: Box<dyn Executor> = match strategy {
                None => Box::new(GateLevelSimulator::new()),
                Some(s) => Box::new(Emulator::with_qpe_strategy(s)),
            };
            Ok((program, exec))
        };

    let mut reference: Option<StateVector> = None;
    for (label, strategy) in [
        ("gate-level simulation", None),
        (
            "repeated squaring     ",
            Some(QpeStrategy::RepeatedSquaring),
        ),
        (
            "eigendecomposition    ",
            Some(QpeStrategy::Eigendecomposition),
        ),
    ] {
        let (program, exec) = build(strategy)?;
        let init = StateVector::zero_state(program.n_qubits());
        let t0 = Instant::now();
        let out = exec.run(&program, init)?;
        let dt = t0.elapsed().as_secs_f64();
        let phase_bits: Vec<usize> = (n..n + b).collect();
        let dist = out.register_distribution(&phase_bits);
        let mode = dist
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .unwrap();
        println!(
            "{label}: {dt:>8.3}s   mode x = {:>3} (φ ≈ {:.4} turns, P = {:.3})",
            mode.0,
            mode.0 as f64 / (1u64 << b) as f64,
            mode.1
        );
        match &reference {
            None => reference = Some(out),
            Some(r) => {
                let diff = r.max_diff_up_to_phase(&out);
                assert!(diff < 1e-6, "strategies disagree: {diff}");
            }
        }
    }
    println!("all three strategies produced the same state ✓");

    // Direct spectral read-out: the emulator can skip QPE altogether and
    // hand you the eigenphases from the Schur decomposition.
    let u = circuit_to_dense(&unitary);
    let mut phases: Vec<f64> = eigenvalues(&u)
        .expect("eigensolver")
        .iter()
        .map(|l| {
            let mut p = l.arg() / std::f64::consts::TAU;
            if p < 0.0 {
                p += 1.0;
            }
            p
        })
        .collect();
    phases.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!("\neigenphases of U (first 8, in turns):");
    for p in phases.iter().take(8) {
        println!("  {p:.6}");
    }

    // Crossover advisor on measured primitives (Table 2 logic).
    let t_apply = {
        let mut sv = StateVector::zero_state(n);
        let t0 = Instant::now();
        for _ in 0..32 {
            sv.apply_circuit(&unitary);
        }
        t0.elapsed().as_secs_f64() / 32.0
    };
    let (t_build, t_gemm, t_eig) = {
        let t0 = Instant::now();
        let u = circuit_to_dense(&unitary);
        let t_build = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = qcemu_linalg::gemm(&u, &u);
        let t_gemm = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let _ = qcemu_linalg::eig(&u);
        (t_build, t_gemm, t0.elapsed().as_secs_f64())
    };
    let timings = QpeTimings {
        n,
        g: tfim_gate_count(n),
        t_apply_u: t_apply,
        t_build_dense: t_build,
        t_gemm,
        t_eig,
    };
    println!(
        "\ncrossover advisor: simulate up to b = {}, then emulate (measured on this host)",
        timings.crossover_repeated_squaring().unwrap_or(64) - 1
    );
    println!(
        "best strategy at b = {b}: {:?}",
        timings.best_strategy(b as u32)
    );

    // Close the loop: hand the measured timings to the emulator, so the
    // advisor's verdict — not the default cost model — picks the strategy
    // at execution time.
    let (program, _) = build(None)?;
    let advised = Emulator::new().with_timings(timings);
    let out = advised.run(&program, StateVector::zero_state(program.n_qubits()))?;
    let r = reference.as_ref().expect("reference state");
    println!(
        "emulator.with_timings(measured): same state as the reference ✓ (diff {:.1e})",
        r.max_diff_up_to_phase(&out)
    );

    // And the planner's view: the hybrid executor lowers the QPE to a
    // plan step with a cost-model-chosen strategy and reports predicted
    // vs measured cost per op.
    let hybrid = HybridExecutor::new();
    let (out, report) =
        hybrid.run_with_report(&program, StateVector::zero_state(program.n_qubits()))?;
    assert!(r.max_diff_up_to_phase(&out) < 1e-6);
    println!("\nhybrid executor plan report:\n{report}");
    Ok(())
}
