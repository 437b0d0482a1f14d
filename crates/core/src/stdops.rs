//! Standard library of high-level operations (paper §3.1 workloads).
//!
//! Each constructor returns a [`ClassicalMap`] carrying both execution
//! paths: the direct classical function for the emulator and (where the
//! paper benchmarks one) a deferred reversible-circuit builder for the
//! simulator, wired to the `qcemu-revarith` synthesisers.

use crate::program::{ClassicalMap, GateImpl, MapKind, PhaseOracle, QuantumProgram, RegisterId};
use qcemu_revarith::{adder, divider, divider_model, multiplier, multiplier_model};
use qcemu_sim::Circuit;
use qcemu_sim::{Gate, GateOp};
use std::sync::Arc;

/// In-place addition `b ← a + b (mod 2^m)` — Cuccaro adder on the
/// simulation path, word addition on the emulation path. One ancilla.
pub fn add(a: RegisterId, b: RegisterId, m: usize) -> ClassicalMap {
    ClassicalMap {
        name: format!("add[{m}]"),
        regs: vec![a, b],
        f: Arc::new(move |v| {
            let mask = if m >= 64 { u64::MAX } else { (1u64 << m) - 1 };
            v[1] = v[1].wrapping_add(v[0]) & mask;
        }),
        kind: MapKind::InPlaceBijection,
        gate_impl: Some(GateImpl {
            n_ancilla: 1,
            build: Arc::new(move |prog: &QuantumProgram| {
                let ad = adder(m, false);
                let ra = prog.register(a).offset;
                let rb = prog.register(b).offset;
                let anc = prog.n_qubits();
                ad.circuit.remap_qubits(prog.n_qubits() + 1, move |q| {
                    if q < m {
                        ra + q
                    } else if q < 2 * m {
                        rb + (q - m)
                    } else {
                        anc
                    }
                })
            }),
        }),
    }
}

/// Multiplication `(a, b, c) ↦ (a, b, c + a·b mod 2^m)` — the paper's
/// Fig. 1 workload: shift-and-add Toffoli network versus one basis-state
/// relabelling. One ancilla on the simulation path.
pub fn multiply(a: RegisterId, b: RegisterId, c: RegisterId, m: usize) -> ClassicalMap {
    ClassicalMap {
        name: format!("multiply[{m}]"),
        regs: vec![a, b, c],
        f: Arc::new(move |v| {
            v[2] = multiplier_model(m, v[0], v[1], v[2]);
        }),
        kind: MapKind::InPlaceBijection,
        gate_impl: Some(GateImpl {
            n_ancilla: 1,
            build: Arc::new(move |prog: &QuantumProgram| {
                let mc = multiplier(m);
                let ra = prog.register(a).offset;
                let rb = prog.register(b).offset;
                let rc = prog.register(c).offset;
                let anc = prog.n_qubits();
                mc.circuit.remap_qubits(prog.n_qubits() + 1, move |q| {
                    if q < m {
                        ra + q
                    } else if q < 2 * m {
                        rb + (q - m)
                    } else if q < 3 * m {
                        rc + (q - 2 * m)
                    } else {
                        anc
                    }
                })
            }),
        }),
    }
}

/// Division `(a, b, q=0, r=0) ↦ (a, b, ⌊a/b⌋, a mod b)` — the paper's
/// Fig. 2 workload. The simulation path needs **three** extra work qubits
/// (window flag, divisor zero-extension, Cuccaro carry) on top of the four
/// architectural registers; the emulation path needs none.
pub fn divide(
    a: RegisterId,
    b: RegisterId,
    q: RegisterId,
    r: RegisterId,
    m: usize,
) -> ClassicalMap {
    ClassicalMap {
        name: format!("divide[{m}]"),
        regs: vec![a, b, q, r],
        f: Arc::new(move |v| {
            let (quot, rem) = divider_model(m, v[0], v[1]);
            v[2] = quot;
            v[3] = rem;
        }),
        kind: MapKind::ZeroInitializedTargets { n_targets: 2 },
        gate_impl: Some(GateImpl {
            n_ancilla: 3,
            build: Arc::new(move |prog: &QuantumProgram| {
                let dc = divider(m);
                let ra = prog.register(a).offset;
                let rb = prog.register(b).offset;
                let rq = prog.register(q).offset;
                let rr = prog.register(r).offset;
                let anc0 = prog.n_qubits(); // window flag (divider's r bit m)
                let anc1 = anc0 + 1; // divisor zero-extension
                let anc2 = anc0 + 2; // Cuccaro carry
                dc.circuit.remap_qubits(prog.n_qubits() + 3, move |qb| {
                    if qb < m {
                        ra + qb
                    } else if qb < 2 * m {
                        rb + (qb - m)
                    } else if qb < 3 * m {
                        rq + (qb - 2 * m)
                    } else if qb < 4 * m {
                        rr + (qb - 3 * m)
                    } else if qb == 4 * m {
                        anc0 // window top bit
                    } else if qb == 4 * m + 1 {
                        anc1
                    } else {
                        anc2
                    }
                })
            }),
        }),
    }
}

/// Arbitrary in-place classical bijection — emulation only (no gate path).
/// This is the §3.1 "just evaluate the classical function directly" story
/// for functions nobody wants to synthesise reversibly.
pub fn apply_classical_fn(
    name: &str,
    regs: Vec<RegisterId>,
    f: impl Fn(&mut [u64]) + Send + Sync + 'static,
) -> ClassicalMap {
    ClassicalMap {
        name: name.to_string(),
        regs,
        f: Arc::new(f),
        kind: MapKind::InPlaceBijection,
        gate_impl: None,
    }
}

/// Arbitrary classical function into zero-initialised target registers —
/// emulation only.
pub fn apply_classical_fn_zero_targets(
    name: &str,
    regs: Vec<RegisterId>,
    n_targets: usize,
    f: impl Fn(&mut [u64]) + Send + Sync + 'static,
) -> ClassicalMap {
    ClassicalMap {
        name: name.to_string(),
        regs,
        f: Arc::new(f),
        kind: MapKind::ZeroInitializedTargets { n_targets },
        gate_impl: None,
    }
}

/// Test fixture: `reg ^= k` with its X-gate network. The name does not
/// encode `k`, so every `k` gives one structure hash and only the two
/// closures tell the programs apart.
#[cfg(test)]
pub(crate) fn xor_constant(reg: RegisterId, k: u64) -> ClassicalMap {
    ClassicalMap {
        name: "xor-const".into(),
        regs: vec![reg],
        f: Arc::new(move |v| v[0] ^= k),
        kind: MapKind::InPlaceBijection,
        gate_impl: Some(GateImpl {
            n_ancilla: 0,
            build: Arc::new(move |p| {
                let mut c = Circuit::new(p.n_qubits());
                for (j, q) in p.register(reg).bits().into_iter().enumerate() {
                    if (k >> j) & 1 == 1 {
                        c.push(Gate::x(q));
                    }
                }
                c
            }),
        }),
    }
}

/// Phase oracle marking a single register value: `|v⟩ ↦ e^{iθ}|v⟩` iff
/// `v == value`. Carries a gate-level implementation (X-conjugated
/// multi-controlled phase), so both executors can run it — the Grover
/// oracle and diffusion reflection in one constructor.
pub fn mark_value(reg: RegisterId, value: u64, phase: f64) -> PhaseOracle {
    PhaseOracle {
        name: format!("mark[{value}]"),
        regs: vec![reg],
        predicate: Arc::new(move |v| v[0] == value),
        phase,
        gate_impl: Some(GateImpl {
            n_ancilla: 0,
            build: Arc::new(move |prog: &QuantumProgram| {
                let r = prog.register(reg);
                let bits = r.bits();
                let mut c = qcemu_sim::Circuit::new(prog.n_qubits());
                // X on the zero bits so "== value" becomes "all ones".
                for (j, &q) in bits.iter().enumerate() {
                    if (value >> j) & 1 == 0 {
                        c.push(Gate::x(q));
                    }
                }
                // Controlled phase on the last bit, controlled by the rest.
                let (&target, controls) = bits.split_last().expect("non-empty register");
                c.push(Gate::Unary {
                    op: GateOp::Phase(phase),
                    target,
                    controls: controls.to_vec(),
                });
                for (j, &q) in bits.iter().enumerate().rev() {
                    if (value >> j) & 1 == 0 {
                        c.push(Gate::x(q));
                    }
                }
                c
            }),
        }),
    }
}

/// Emulation-only phase oracle over an arbitrary predicate.
pub fn phase_if(
    name: &str,
    regs: Vec<RegisterId>,
    phase: f64,
    predicate: impl Fn(&[u64]) -> bool + Send + Sync + 'static,
) -> PhaseOracle {
    PhaseOracle {
        name: name.to_string(),
        regs,
        predicate: Arc::new(predicate),
        phase,
        gate_impl: None,
    }
}

/// Fixed-point evaluation of a mathematical function (paper §3.1's
/// "trigonometric functions … series expansion or iterative procedure with
/// many intermediate results"): maps `(x, y=0) ↦ (x, fix(f(x/2^m)))` where
/// `fix` quantises `f`'s value to `p` fractional bits, clamped to the
/// register range. Every intermediate the reversible implementation would
/// need simply does not exist — this op is emulation-only by design.
///
/// `x` is read as an unsigned fixed-point fraction in `[0, 1)` with `m`
/// bits; the result register `y` (width `p`) receives
/// `⌊clamp(f, 0, 1−2⁻ᵖ)·2ᵖ+½⌋`.
pub fn fixed_point_fn(
    x: RegisterId,
    y: RegisterId,
    m: usize,
    p: usize,
    name: &str,
    f: impl Fn(f64) -> f64 + Send + Sync + 'static,
) -> ClassicalMap {
    ClassicalMap {
        name: format!("fixpoint[{name}]"),
        regs: vec![x, y],
        f: Arc::new(move |v| {
            let arg = v[0] as f64 / (1u64 << m) as f64;
            let val = f(arg);
            let scale = (1u64 << p) as f64;
            let max = (1u64 << p) - 1;
            let q = (val * scale + 0.5).floor();
            v[1] = if q < 0.0 { 0 } else { (q as u64).min(max) };
        }),
        kind: MapKind::ZeroInitializedTargets { n_targets: 1 },
        gate_impl: None,
    }
}

/// `base^e mod modulus` by binary exponentiation in u128 intermediates.
pub fn pow_mod(base: u64, mut e: u64, modulus: u64) -> u64 {
    assert!(modulus > 0);
    let m = modulus as u128;
    let mut acc: u128 = 1 % m;
    let mut b = base as u128 % m;
    while e > 0 {
        if e & 1 == 1 {
            acc = acc * b % m;
        }
        b = b * b % m;
        e >>= 1;
    }
    acc as u64
}

/// Modular multiplication map `y ← y·base^x mod N` for `y < N` (identity on
/// `y ≥ N`) — the modular-exponentiation step of Shor's algorithm, the
/// paper's §3.1 flagship example of an operation one emulates rather than
/// compiles to Toffolis. Requires `gcd(base, N) = 1` so the map is a
/// bijection. Emulation only.
pub fn modexp(x: RegisterId, y: RegisterId, base: u64, modulus: u64) -> ClassicalMap {
    assert!(modulus >= 1);
    assert_eq!(gcd(base % modulus, modulus), 1, "base must be a unit mod N");
    ClassicalMap {
        name: format!("modexp[{base}^x mod {modulus}]"),
        regs: vec![x, y],
        f: Arc::new(move |v| {
            if v[1] < modulus {
                let factor = pow_mod(base, v[0], modulus);
                v[1] = ((v[1] as u128 * factor as u128) % modulus as u128) as u64;
            }
        }),
        kind: MapKind::InPlaceBijection,
        gate_impl: None,
    }
}

/// Greatest common divisor.
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// An empty circuit placeholder for tests that need *some* circuit value.
pub fn empty_circuit(n: usize) -> Circuit {
    Circuit::new(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Emulator, Executor, GateLevelSimulator};
    use crate::program::ProgramBuilder;
    use qcemu_sim::StateVector;

    #[test]
    fn pow_mod_basics() {
        assert_eq!(pow_mod(2, 10, 1000), 24);
        assert_eq!(pow_mod(7, 0, 15), 1);
        assert_eq!(pow_mod(7, 4, 15), 1); // order of 7 mod 15 is 4
        assert_eq!(pow_mod(3, 3, 5), 2);
        assert_eq!(pow_mod(0, 5, 7), 0);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 15), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
    }

    #[test]
    fn add_map_agrees_between_paths() {
        let m = 3;
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", m);
        let b = pb.register("b", m);
        pb.set_constant(a, 5);
        pb.set_constant(b, 6);
        pb.classical(add(a, b, m));
        let prog = pb.build().unwrap();
        let init = StateVector::zero_state(prog.n_qubits());
        let sim = GateLevelSimulator::new().run(&prog, init.clone()).unwrap();
        let emu = Emulator::new().run(&prog, init).unwrap();
        assert!(sim.max_diff_up_to_phase(&emu) < 1e-12);
        // b = 5 + 6 mod 8 = 3.
        let dist = emu.register_distribution(&prog.register(b).bits());
        assert!((dist[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn divide_map_agrees_between_paths() {
        let m = 2;
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", m);
        let b = pb.register("b", m);
        let q = pb.register("q", m);
        let r = pb.register("r", m);
        pb.hadamard_all(a);
        pb.set_constant(b, 2);
        pb.classical(divide(a, b, q, r, m));
        let prog = pb.build().unwrap();
        let init = StateVector::zero_state(prog.n_qubits());
        let sim = GateLevelSimulator::new().run(&prog, init.clone()).unwrap();
        let emu = Emulator::new().run(&prog, init).unwrap();
        assert!(
            sim.max_diff_up_to_phase(&emu) < 1e-10,
            "div sim vs emu: {}",
            sim.max_diff_up_to_phase(&emu)
        );
        // Check q = a/2, r = a%2 on every branch.
        let all: Vec<usize> = (0..prog.n_qubits()).collect();
        for (idx, p) in emu.register_distribution(&all).iter().enumerate() {
            if *p < 1e-15 {
                continue;
            }
            let av = idx & 3;
            let qv = (idx >> 4) & 3;
            let rv = (idx >> 6) & 3;
            assert_eq!(qv, av / 2);
            assert_eq!(rv, av % 2);
        }
    }

    #[test]
    fn modexp_is_bijective_and_correct() {
        // 7^x mod 15 on 3-bit x, 4-bit y starting at 1.
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", 3);
        let y = pb.register("y", 4);
        pb.hadamard_all(x);
        pb.set_constant(y, 1);
        pb.classical(modexp(x, y, 7, 15));
        let prog = pb.build().unwrap();
        let out = Emulator::new()
            .run(&prog, StateVector::zero_state(prog.n_qubits()))
            .unwrap();
        let all: Vec<usize> = (0..7).collect();
        for (idx, p) in out.register_distribution(&all).iter().enumerate() {
            if *p < 1e-15 {
                continue;
            }
            let xv = (idx & 7) as u64;
            let yv = ((idx >> 3) & 15) as u64;
            assert_eq!(yv, pow_mod(7, xv, 15), "branch x={xv}");
        }
    }

    #[test]
    fn fixed_point_sine_on_superposition() {
        // sin(πx) over x ∈ [0,1): 5-bit argument, 6-bit result.
        let (m, p) = (5usize, 6usize);
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", m);
        let y = pb.register("y", p);
        pb.hadamard_all(x);
        pb.classical(fixed_point_fn(x, y, m, p, "sin", |t| {
            (std::f64::consts::PI * t).sin()
        }));
        let prog = pb.build().unwrap();
        let out = Emulator::new()
            .run(&prog, StateVector::zero_state(prog.n_qubits()))
            .unwrap();
        let all: Vec<usize> = (0..m + p).collect();
        let mut branches = 0;
        for (idx, pr) in out.register_distribution(&all).iter().enumerate() {
            if *pr < 1e-15 {
                continue;
            }
            branches += 1;
            let xv = (idx & ((1 << m) - 1)) as f64 / 32.0;
            let yv = (idx >> m) as u64;
            let expect = ((std::f64::consts::PI * xv).sin() * 64.0 + 0.5).floor() as u64;
            assert_eq!(yv, expect.min(63), "x = {xv}");
        }
        assert_eq!(branches, 32, "every x branch survives");
        assert!((out.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn fixed_point_clamps_out_of_range_values() {
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", 2);
        let y = pb.register("y", 3);
        pb.classical(fixed_point_fn(x, y, 2, 3, "big", |_| 7.5)); // ≫ 1
        let prog = pb.build().unwrap();
        let out = Emulator::new()
            .run(&prog, StateVector::zero_state(5))
            .unwrap();
        // y must clamp to 7 (the register maximum), not overflow.
        let ybits: Vec<usize> = (2..5).collect();
        let dist = out.register_distribution(&ybits);
        assert!((dist[7] - 1.0).abs() < 1e-12);
        // Negative values clamp to zero.
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", 2);
        let y = pb.register("y", 3);
        pb.classical(fixed_point_fn(x, y, 2, 3, "neg", |_| -2.0));
        let prog = pb.build().unwrap();
        let out = Emulator::new()
            .run(&prog, StateVector::zero_state(5))
            .unwrap();
        let dist = out.register_distribution(&ybits);
        assert!((dist[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fixed_point_requires_zero_target() {
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", 2);
        let y = pb.register("y", 2);
        pb.set_constant(y, 1); // dirty target
        pb.classical(fixed_point_fn(x, y, 2, 2, "id", |t| t));
        let prog = pb.build().unwrap();
        let err = Emulator::new()
            .run(&prog, StateVector::zero_state(4))
            .unwrap_err();
        assert!(matches!(err, crate::EmuError::TargetNotZero { .. }));
    }

    #[test]
    #[should_panic(expected = "unit mod N")]
    fn modexp_rejects_non_unit_base() {
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", 2);
        let y = pb.register("y", 4);
        let _ = modexp(x, y, 5, 15); // gcd(5, 15) = 5
    }
}
