//! Cross-executor equivalence on randomized mixed programs (proptest):
//! classical maps, QFTs, phase oracles, register-controlled rotations and
//! raw gate runs, in random order, must produce identical final states
//! (≤ 1e-10 up to global phase) under all four execution paths —
//! `Emulator`, `GateLevelSimulator`, `GateLevelSimulator::fused`, and the
//! cost-model-driven `HybridExecutor`. This is the contract that makes
//! per-op hybrid dispatch safe: whatever the planner chooses, the state
//! is the same.

use proptest::prelude::*;
use qcemu::prelude::*;
use std::sync::Arc;

/// One randomly chosen high-level op, lowered onto a fixed register
/// layout: a (2 qubits), b (2 qubits), t (1 qubit) — 5 qubits total.
/// Every variant carries a gate-level implementation (or a generic
/// expansion), so all four executors can run every sampled program.
#[derive(Clone, Debug)]
enum OpChoice {
    /// `b ← a + b (mod 4)` — Cuccaro adder vs word addition.
    Add,
    /// Grover-style phase mark of one 2-bit value on register `a`.
    Mark { value: u64, phase_millis: u64 },
    /// QFT / inverse QFT on `a` or `b`.
    Qft { on_b: bool, inverse: bool },
    /// Register-controlled rotation `|x⟩|t⟩ ↦ |x⟩ Ry(θ(x))|t⟩` with
    /// θ(x) = base/1000 + x·step/1000 — per-value expansion vs sweep.
    Rotate {
        on_b: bool,
        base_millis: u64,
        step_millis: u64,
    },
    /// A short raw gate run drawn from the gate zoo.
    Gates { seed: u64, len: usize },
}

fn op_choice() -> impl Strategy<Value = OpChoice> {
    (0..5usize, 0..4u64, 1..1500u64, 0..8u64, 1..6usize).prop_map(
        |(kind, value, millis, seed, len)| match kind {
            0 => OpChoice::Add,
            1 => OpChoice::Mark {
                value,
                phase_millis: millis,
            },
            2 => OpChoice::Qft {
                on_b: value % 2 == 0,
                inverse: value / 2 == 0,
            },
            3 => OpChoice::Rotate {
                on_b: value % 2 == 0,
                base_millis: millis,
                step_millis: 100 + value * 37,
            },
            _ => OpChoice::Gates { seed, len },
        },
    )
}

/// Deterministic small gate run over the 5 program qubits.
fn gate_run(c: &mut Circuit, seed: u64, len: usize) {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for _ in 0..len {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let q = ((s >> 33) % 5) as usize;
        let p = ((s >> 13) % 5) as usize;
        let theta = ((s >> 3) % 1000) as f64 / 500.0;
        match (s >> 60) % 5 {
            0 => {
                c.push(Gate::h(q));
            }
            1 => {
                c.push(Gate::x(q));
            }
            2 => {
                c.push(Gate::phase(q, theta));
            }
            3 if p != q => {
                c.push(Gate::cnot(q, p));
            }
            _ => {
                c.push(Gate::ry(q, theta));
            }
        }
    }
}

fn build_program(ops: &[OpChoice]) -> QuantumProgram {
    let mut pb = ProgramBuilder::new();
    let a = pb.register("a", 2);
    let b = pb.register("b", 2);
    let t = pb.register("t", 1);
    // Non-trivial input: superpose everything so every branch of every
    // permutation carries weight.
    pb.hadamard_all(a);
    pb.hadamard_all(b);
    for (i, op) in ops.iter().enumerate() {
        match op {
            OpChoice::Add => {
                pb.classical(stdops::add(a, b, 2));
            }
            OpChoice::Mark {
                value,
                phase_millis,
            } => {
                pb.phase_oracle(stdops::mark_value(a, *value, *phase_millis as f64 / 500.0));
            }
            OpChoice::Qft { on_b, inverse } => {
                let reg = if *on_b { b } else { a };
                if *inverse {
                    pb.inverse_qft(reg);
                } else {
                    pb.qft(reg);
                }
            }
            OpChoice::Rotate {
                on_b,
                base_millis,
                step_millis,
            } => {
                let base = *base_millis as f64 / 1000.0;
                let step = *step_millis as f64 / 1000.0;
                pb.rotation(qcemu_core::RotationOp {
                    name: format!("rot{i}"),
                    x: if *on_b { b } else { a },
                    target: t,
                    angle: Arc::new(move |v| base + step * v as f64),
                    gate_impl: None,
                });
            }
            OpChoice::Gates { seed, len } => {
                let (seed, len) = (*seed, *len);
                pb.gates(|c| gate_run(c, seed, len));
            }
        }
    }
    pb.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The headline invariant: four executors, one state.
    #[test]
    fn all_executors_agree_on_random_mixed_programs(
        ops in proptest::collection::vec(op_choice(), 1..7)
    ) {
        let program = build_program(&ops);
        let initial = StateVector::zero_state(program.n_qubits());
        let reference = Emulator::new().run(&program, initial.clone()).unwrap();
        let executors: [(&str, Box<dyn Executor>); 3] = [
            ("simulator", Box::new(GateLevelSimulator::new())),
            ("fused simulator", Box::new(GateLevelSimulator::fused())),
            ("hybrid", Box::new(HybridExecutor::new())),
        ];
        for (name, exec) in executors {
            let out = exec.run(&program, initial.clone()).unwrap();
            let diff = reference.max_diff_up_to_phase(&out);
            prop_assert!(
                diff < 1e-10,
                "{name} deviates from emulator by {diff:.3e} on {ops:?}"
            );
        }
        // Norm stays exact through every path.
        prop_assert!((reference.norm() - 1.0).abs() < 1e-9);
    }

    /// The hybrid plan itself is well-formed on arbitrary programs: every
    /// op gets exactly one step, predictions are finite (everything here
    /// is simulable), and ancilla head-room is only reserved when some
    /// step actually simulates an ancilla-bearing op.
    #[test]
    fn hybrid_plans_are_well_formed(
        ops in proptest::collection::vec(op_choice(), 1..7)
    ) {
        let program = build_program(&ops);
        let exec = HybridExecutor::new();
        let plan = exec.plan(&program);
        prop_assert_eq!(plan.steps().len(), program.ops().len());
        for (i, step) in plan.steps().iter().enumerate() {
            prop_assert_eq!(step.op_index, i);
            prop_assert!(step.predicted_s.is_finite(), "step {i} has ∞ cost");
        }
        let needed = plan
            .steps()
            .iter()
            .filter(|s| s.backend.is_simulate())
            .map(|s| s.n_ancilla)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(plan.n_ancilla(), needed);
    }
}

// ---------------------------------------------------------------------------
// Routing snapshot: which backend every policy picks for every step, and at
// what predicted cost, on the programs the benches and `perf_suite` run.
// ---------------------------------------------------------------------------

/// `perf_suite`'s `shor_mix` program: multiply, raw gate run,
/// oracle, rotation, QFTs.
fn shor_style_program(m: usize) -> QuantumProgram {
    let mut pb = ProgramBuilder::new();
    let x = pb.register("x", m);
    let y = pb.register("y", m);
    let z = pb.register("z", m);
    let t = pb.register("t", 1);
    pb.hadamard_all(x);
    pb.set_constant(y, 3);
    pb.classical(stdops::multiply(x, y, z, m));
    pb.gates(|c| {
        for round in 0..3 {
            for q in 0..3 * m {
                c.push(Gate::h(q));
                c.push(Gate::cnot(q, q + 1));
                c.push(Gate::phase(q + 1, 0.37 + 0.11 * round as f64));
            }
        }
    });
    pb.phase_oracle(stdops::mark_value(z, 3, std::f64::consts::PI));
    pb.rotation(qcemu_core::RotationOp {
        name: "encode".into(),
        x: z,
        target: t,
        angle: Arc::new(move |v| 2.0 * (v as f64 / (1u64 << m) as f64).sqrt().asin()),
        gate_impl: None,
    });
    pb.inverse_qft(x);
    pb.qft(y);
    pb.inverse_qft(y);
    pb.build().unwrap()
}

/// `perf_suite`'s `serve_warm` program: two Hadamard layers, two
/// deep register-local gate runs, multiply, add, rotation, QFT pair.
/// `slope` (the rotation's angle law) is not part of the structure.
fn serve_style_program(m: usize, depth: usize, slope: f64) -> QuantumProgram {
    let mut gates = Vec::with_capacity(2 * depth);
    for block in 0..2usize {
        for i in 0..depth {
            let q = block * m + i % m;
            let q2 = block * m + (i + 1) % m;
            gates.push(match i % 3 {
                0 => Gate::rz(q, 0.01 * i as f64),
                1 => Gate::h(q),
                _ => Gate::cnot(q, q2),
            });
        }
    }
    let reg = |name: &str, len: u32| WireRegister {
        name: name.into(),
        len,
    };
    let m32 = m as u32;
    WireProgram {
        registers: vec![
            reg("a", m32),
            reg("b", m32),
            reg("c", m32),
            reg("r", m32),
            reg("ind", 1),
        ],
        ops: vec![
            WireOp::Hadamard(0),
            WireOp::Hadamard(1),
            WireOp::Gates(gates),
            WireOp::Multiply { a: 0, b: 1, c: 2 },
            WireOp::Add { a: 2, b: 3 },
            WireOp::Rotation {
                x: 0,
                target: 4,
                slope,
                intercept: 0.05,
            },
            WireOp::Qft(2),
            WireOp::InverseQft(2),
        ],
    }
    .to_program()
    .unwrap()
}

/// One `perf_suite` `batch_sweep` member: amplitude-encoding
/// rotation between Hadamard layers and two entangler rounds.
fn sweep_style_program(m: usize) -> QuantumProgram {
    let mut pb = ProgramBuilder::new();
    let x = pb.register("x", m);
    let ind = pb.register("ind", 1);
    let count = pb.register("count", 4);
    pb.hadamard_all(x);
    pb.hadamard_all(count);
    pb.rotation(qcemu_core::RotationOp {
        name: "amplitude-encode".into(),
        x,
        target: ind,
        angle: Arc::new(move |v| {
            let f = 0.35 * (v as f64 + 0.5) / (1u64 << m) as f64;
            2.0 * f.min(1.0).sqrt().asin()
        }),
        gate_impl: None,
    });
    for _ in 0..2 {
        pb.gates(|c| {
            for q in 0..m {
                c.push(Gate::h(q));
            }
            for q in 0..m + 4 {
                c.push(Gate::cnot(q, q + 1));
            }
            for q in 0..m {
                c.push(Gate::h(q));
            }
        });
    }
    pb.build().unwrap()
}

/// QPE of a 3-spin TFIM Trotter step to 5 bits.
fn qpe_style_program() -> QuantumProgram {
    use qcemu_sim::circuits::{tfim_trotter_step, TfimParams};
    let mut pb = ProgramBuilder::new();
    let spins = pb.register("spins", 3);
    let phase = pb.register("phase", 5);
    pb.hadamard_all(spins);
    pb.qpe(QpeOp {
        unitary: tfim_trotter_step(3, TfimParams::default()),
        target: spins,
        phase,
    });
    pb.build().unwrap()
}

/// Every plan `Display` (backend and predicted cost per step, ancillas)
/// of the four programs under the six candidate policies.
fn routing_table() -> String {
    let programs = [
        ("shor m=4", shor_style_program(4)),
        ("serve m=3 depth=60", serve_style_program(3, 60, 0.3)),
        ("sweep m=6", sweep_style_program(6)),
        ("qpe tfim", qpe_style_program()),
    ];
    let simulate = |config| GateLevelSimulator::new().with_config(config);
    let mut out = String::new();
    for (name, program) in &programs {
        let plans = [
            ("emulate", Emulator::new().plan(program)),
            (
                "simulate unfused",
                simulate(SimConfig::unfused()).plan(program),
            ),
            ("simulate fused", GateLevelSimulator::fused().plan(program)),
            (
                "simulate segmented",
                simulate(SimConfig::segmented()).plan(program),
            ),
            (
                "simulate mps(16)",
                simulate(SimConfig::mps(16)).plan(program),
            ),
            ("cheapest", HybridExecutor::new().plan(program)),
        ];
        for (policy, plan) in plans {
            out.push_str(&format!("== {name} / {policy}\n{plan}\n"));
        }
    }
    out
}

/// The table was captured at the commit before the three lowering
/// functions became one walk, and every re-capture since is listed here;
/// it is now compared exactly.
///
/// - When one walk replaced the three lowerings, a `cheapest` step
///   chosen as `simulate:mps` with a non-`Gates` op before it went dense,
///   because its χ certificate assumed a product-state input the step
///   does not receive (`shor` `gates[108]` and `sweep` `gates[22]` ×2).
/// - The `qft`/`iqft` and `qpe` rows were re-captured when
///   `t_qft_emulated` began pricing the cache-blocked FFT engine's passes
///   instead of a sweep per register bit: under `cheapest` the 3- and
///   4-bit QFTs moved from `simulate:fused` to `emulate:fft`. The `qpe`
///   rows' cost moved again when the dense strategies' slice write-out
///   was priced as one state-sized GEMM pass instead of one per phase bit.
/// - A raw gate run's `simulate:fused` price dropped its per-gate fusion
///   compile, because the plan carries the stream and no run compiles it
///   again. Every `gates[…]` row of the `simulate fused` sections is
///   repriced. Under `cheapest`, `serve` `gates[120]`, `sweep` `gates[6]`
///   and `gates[4]` and `qpe tfim` `gates[3]` moved from `simulate:mps`
///   to `simulate:fused`, and `shor` `gates[108]` and `sweep` `gates[22]`
///   ×2 moved from `simulate:segmented` to `simulate:fused`.
/// - When each step got its own ancilla head-room, the `simulate *`
///   sections of `shor` and `serve` were repriced: a step without
///   ancillas now sweeps `2^n` instead of the plan's `2^{n+1}` (`shor`
///   `gates[4]` reads 81.92 µs unfused, as under `emulate`), and the
///   ancilla-bearing `multiply` and `add` pay one more `2^{n+1}` sweep
///   to widen the state and check the ancilla. No backend changed, and
///   every `emulate` and `cheapest` section is as before.
#[test]
fn routing_matches_the_three_planner_snapshot() {
    let expected = include_str!("snapshots/routing.txt");
    let actual = routing_table();
    assert_eq!(expected.lines().count(), actual.lines().count());
    let mut section = "";
    for (want, got) in expected.lines().zip(actual.lines()) {
        if want.starts_with("== ") {
            section = want;
        }
        assert_eq!(want, got, "{section}");
    }
}

/// The daemon's request shape (13 qubits, two 600-gate runs on 3-qubit
/// registers) under the daemon's own model and config: the deep run's
/// fused stream is carried by the plan, so it is priced without a
/// compile and wins over the compressed route. Solo and as a batch of
/// two slopes, the plan matches the unfused gate-level reference.
#[test]
fn the_serve_shaped_deep_run_takes_its_carried_fused_stream() {
    let server = ServerConfig::default();
    let members: Vec<QuantumProgram> = [0.3, 0.45]
        .iter()
        .map(|&slope| serve_style_program(3, 600, slope))
        .collect();
    let n = members[0].n_qubits();
    assert_eq!(n, 13);
    let batch = BatchExecutor::new()
        .with_model(server.model)
        .with_config(server.config);
    let plan = batch.plan(&members[0]);
    let step = plan
        .steps()
        .iter()
        .find(|s| s.op == "gates[1200]")
        .expect("the deep run is one step");
    assert_eq!(step.backend, Backend::SimulateFused, "{plan}");
    assert!(step.carried_stream().is_some(), "{plan}");
    let references: Vec<StateVector> = members
        .iter()
        .map(|p| {
            GateLevelSimulator::new()
                .run(p, StateVector::zero_state(n))
                .unwrap()
        })
        .collect();
    for b in [1, 2] {
        let (out, report) = batch
            .run_with_report(&members[..b], BatchStateVector::zero_state(n, b))
            .unwrap();
        let deep = report.steps.iter().find(|s| s.op == "gates[1200]").unwrap();
        assert_eq!(deep.backend, Backend::SimulateFused);
        for (j, reference) in references[..b].iter().enumerate() {
            let diff = out.member(j).max_diff_up_to_phase(reference);
            assert!(diff <= 1e-10, "B = {b}, member {j}: {diff:.3e}");
        }
    }
}
