//! The seven workloads: programs and inputs generated from the seed.
//!
//! The seed sets *values* — the input amplitudes, rotation angles,
//! Hamiltonian parameters, sweep scales, request slopes and structure
//! tags — and never *shapes*: qubit counts, gate counts and which qubits
//! a gate touches are fixed. A shape change moves the planner's routing
//! and the number of high-qubit sweeps, so runs with different seeds
//! would no longer time the same workload.

use qcemu_core::{stdops, ProgramBuilder, QpeOp, QuantumProgram, RotationOp};
use qcemu_linalg::random_state;
use qcemu_serve::{wire, SubmitOptions, WireOp, WireProgram, WireRegister};
use qcemu_sim::{
    entangle_circuit, qft_circuit, tfim_trotter_step, Circuit, Gate, GateOp, StateVector,
    TfimParams,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

/// Problem sizes. `FULL` is the benchmark; `QUICK` exercises the same
/// code at toy sizes and its numbers mean nothing.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub qft_n: usize,
    pub shor_m: usize,
    pub qpe_spins: usize,
    pub qpe_bits: usize,
    pub deep_n: usize,
    pub deep_gates: usize,
    pub batch_m: usize,
    pub batch: usize,
    pub serve_m: usize,
    pub serve_depth: usize,
    /// Distinct structures each cold client cycles through; must exceed
    /// the daemon's plan-cache capacity several times over.
    pub serve_cold_pool: usize,
}

pub const FULL: Sizes = Sizes {
    qft_n: 21,
    shor_m: 5,
    qpe_spins: 7,
    qpe_bits: 10,
    deep_n: 16,
    deep_gates: 4000,
    batch_m: 12,
    batch: 8,
    serve_m: 3,
    serve_depth: 600,
    serve_cold_pool: 256,
};

pub const QUICK: Sizes = Sizes {
    qft_n: 10,
    shor_m: 2,
    qpe_spins: 3,
    qpe_bits: 4,
    deep_n: 8,
    deep_gates: 200,
    batch_m: 4,
    batch: 4,
    serve_m: 2,
    serve_depth: 30,
    serve_cold_pool: 80,
};

/// Shot count and sampler seed every served request carries.
pub const SERVE_SHOTS: u32 = 16;
pub const SERVE_SHOT_SEED: u64 = 7;
/// Distinct rotation slopes the serve clients draw from: few enough that
/// every reply can be checked against a reference computed in set-up.
pub const SERVE_SLOPES: usize = 16;
pub const SERVE_CLIENTS: usize = 2;

/// The shape of `deep_resident` comes from this constant, not the seed.
const DEEP_SHAPE_SEED: u64 = 0x5eed_2016;

pub struct Request {
    pub payload: Vec<u8>,
    /// Index into [`ServeTraffic::slopes`].
    pub slope: usize,
}

/// Pre-encoded requests of the serve workloads.
pub struct ServeTraffic {
    pub slopes: Vec<f64>,
    /// One request list per client, cycled by the closed loop.
    pub clients: Vec<Vec<Request>>,
    /// Same structure as the warm requests; plants the plan.
    pub warm_up: Vec<u8>,
    /// One full-amplitude audit request per slope.
    pub audits: Vec<Request>,
    /// `true` when every request must miss the plan cache.
    pub cold: bool,
}

pub struct Workload {
    pub name: &'static str,
    /// The program the solo executors run.
    pub program: QuantumProgram,
    pub input: StateVector,
    /// The ensemble the batch executor runs: structurally identical
    /// instances of `program` (`members[0]` is `program` itself).
    pub members: Vec<QuantumProgram>,
    /// The workload's raw gate content, for the `sim::{fusion,segment}`
    /// layer metrics.
    pub gates: Circuit,
    pub serve: Option<ServeTraffic>,
}

impl Workload {
    pub fn n_qubits(&self) -> usize {
        self.program.n_qubits()
    }
}

pub fn build(name: &str, seed: u64, sizes: &Sizes) -> Option<Workload> {
    Some(match name {
        "qft_stream" => qft_stream(seed, sizes),
        "shor_mix" => shor_mix(seed, sizes),
        "qpe_tfim" => qpe_tfim(seed, sizes),
        "deep_resident" => deep_resident(seed, sizes),
        "batch_sweep" => batch_sweep(seed, sizes),
        "serve_warm" => serve(seed, sizes, false),
        "serve_cold" => serve(seed, sizes, true),
        _ => return None,
    })
}

fn solo(
    name: &'static str,
    program: QuantumProgram,
    input: StateVector,
    gates: Circuit,
) -> Workload {
    Workload {
        name,
        members: vec![program.clone()],
        program,
        input,
        gates,
        serve: None,
    }
}

fn qft_stream(seed: u64, sizes: &Sizes) -> Workload {
    let n = sizes.qft_n;
    let mut pb = ProgramBuilder::new();
    let a = pb.register("a", n);
    pb.qft(a);
    pb.gates(|c| c.extend(&entangle_circuit(n)));
    let program = pb.build().expect("qft_stream program");
    let mut rng = StdRng::seed_from_u64(seed);
    let input = StateVector::from_amplitudes(random_state(1 << n, &mut rng));
    let mut gates = qft_circuit(n);
    gates.extend(&entangle_circuit(n));
    solo("qft_stream", program, input, gates)
}

/// The entangling run of `shor_mix`: three rounds of H, CNOT, phase down
/// the register, the phase angles nudged by the seed.
fn entangling_run(n: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    for round in 0..3 {
        let angle = 0.37 + 0.11 * round as f64 + rng.gen_range(-0.05..0.05);
        for q in 0..n - 1 {
            c.push(Gate::h(q));
            c.push(Gate::cnot(q, q + 1));
            c.push(Gate::phase(q + 1, angle));
        }
    }
    c
}

/// The `hybrid_ablation` program: registers x, y, z of `m` qubits and a
/// one-qubit rotation target.
fn shor_mix(seed: u64, sizes: &Sizes) -> Workload {
    let m = sizes.shor_m;
    let n = 3 * m + 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let run = entangling_run(n, &mut rng);
    let mut pb = ProgramBuilder::new();
    let x = pb.register("x", m);
    let y = pb.register("y", m);
    let z = pb.register("z", m);
    let t = pb.register("t", 1);
    pb.hadamard_all(x);
    pb.set_constant(y, 3);
    pb.classical(stdops::multiply(x, y, z, m));
    pb.gates(|c| c.extend(&run));
    pb.phase_oracle(stdops::mark_value(z, 3, std::f64::consts::PI));
    pb.rotation(RotationOp {
        name: "encode".into(),
        x: z,
        target: t,
        angle: Arc::new(move |v| 2.0 * (v as f64 / (1u64 << m) as f64).sqrt().asin()),
        gate_impl: None,
    });
    pb.inverse_qft(x);
    pb.qft(y);
    pb.inverse_qft(y);
    let program = pb.build().expect("shor_mix program");
    solo("shor_mix", program, StateVector::zero_state(n), run)
}

fn qpe_tfim(seed: u64, sizes: &Sizes) -> Workload {
    let (n, b) = (sizes.qpe_spins, sizes.qpe_bits);
    let mut rng = StdRng::seed_from_u64(seed);
    let params = TfimParams {
        coupling: 1.0 + rng.gen_range(-0.05..0.05),
        field: 0.7 + rng.gen_range(-0.05..0.05),
        dt: 0.1 + rng.gen_range(-0.01..0.01),
    };
    let unitary = tfim_trotter_step(n, params);
    let mut pb = ProgramBuilder::new();
    let target = pb.register("spins", n);
    let phase = pb.register("phase", b);
    pb.qpe(QpeOp {
        unitary: unitary.clone(),
        target,
        phase,
    });
    let program = pb.build().expect("qpe_tfim program");
    // Gate content: one controlled Trotter step, the unit the gate-level
    // QPE repeats 2^b - 1 times.
    let mut gates = Circuit::new(n + b);
    gates.extend(&unitary.controlled_by(n));
    solo("qpe_tfim", program, StateVector::zero_state(n + b), gates)
}

/// `count` gates over {H, X, phase, CNOT, cphase} on `n` qubits. Kinds
/// and qubits come from a fixed stream, angles from the seed.
fn random_gates(n: usize, count: usize, seed: u64) -> Circuit {
    let mut shape = StdRng::seed_from_u64(DEEP_SHAPE_SEED);
    let mut values = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..count {
        let q = shape.gen_range(0..n);
        let mut other = shape.gen_range(0..n - 1);
        if other >= q {
            other += 1;
        }
        let angle = values.gen_range(0.0..std::f64::consts::TAU);
        match shape.gen_range(0..5u32) {
            0 => c.h(q),
            1 => c.x(q),
            2 => c.phase(q, angle),
            3 => c.cnot(q, other),
            _ => c.cphase(q, other, angle),
        };
    }
    c
}

fn deep_resident(seed: u64, sizes: &Sizes) -> Workload {
    let n = sizes.deep_n;
    let gates = random_gates(n, sizes.deep_gates, seed);
    let mut pb = ProgramBuilder::new();
    pb.register("q", n);
    pb.gates(|c| c.extend(&gates));
    let program = pb.build().expect("deep_resident program");
    solo("deep_resident", program, StateVector::zero_state(n), gates)
}

/// One diffusion-style round of the sweep member: H layer, entangler
/// chain, H layer.
fn diffusion_round(m: usize, n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..m {
        c.push(Gate::h(q));
    }
    for q in 0..n - 1 {
        c.push(Gate::cnot(q, q + 1));
    }
    for q in 0..m {
        c.push(Gate::h(q));
    }
    c
}

/// The `batch_ablation` member: superpose, amplitude-encode
/// `scale·(x+½)/2^m`, two diffusion rounds.
fn sweep_member(m: usize, scale: f64) -> QuantumProgram {
    let n = m + 5;
    let mut pb = ProgramBuilder::new();
    let x = pb.register("x", m);
    let ind = pb.register("ind", 1);
    let count = pb.register("count", 4);
    pb.hadamard_all(x);
    pb.hadamard_all(count);
    pb.rotation(RotationOp {
        name: "amplitude-encode".into(),
        x,
        target: ind,
        angle: Arc::new(move |v| {
            let f = scale * (v as f64 + 0.5) / (1u64 << m) as f64;
            2.0 * f.min(1.0).sqrt().asin()
        }),
        gate_impl: None,
    });
    for _ in 0..2 {
        pb.gates(|c| c.extend(&diffusion_round(m, n)));
    }
    pb.build().expect("batch_sweep member")
}

fn batch_sweep(seed: u64, sizes: &Sizes) -> Workload {
    let m = sizes.batch_m;
    let n = m + 5;
    let mut rng = StdRng::seed_from_u64(seed);
    let members: Vec<QuantumProgram> = (0..sizes.batch)
        .map(|j| sweep_member(m, 0.35 + 0.05 * j as f64 + rng.gen_range(0.0..0.04)))
        .collect();
    Workload {
        name: "batch_sweep",
        program: members[0].clone(),
        input: StateVector::zero_state(n),
        members,
        gates: diffusion_round(m, n),
        serve: None,
    }
}

/// Two Trotter-style gate runs of `depth` gates, each confined to one
/// `m`-qubit register (the `serve_throughput` program's gate content).
fn deep_local_runs(m: usize, depth: usize) -> Vec<Gate> {
    let mut gates = Vec::with_capacity(2 * depth);
    for block in 0..2 {
        let base = block * m;
        for i in 0..depth {
            let q = base + i % m;
            let next = base + (i + 1) % m;
            let (op, target, controls) = match i % 3 {
                0 => (GateOp::Rz(0.01 * i as f64), q, Vec::new()),
                1 => (GateOp::H, q, Vec::new()),
                _ => (GateOp::X, next, vec![q]),
            };
            gates.push(Gate::Unary {
                op,
                target,
                controls,
            });
        }
    }
    gates
}

/// The `serve_throughput` program on `4m + 1` qubits. `tag` goes into
/// every register name, so distinct tags are distinct structures.
fn serve_program(tag: &str, m: usize, depth: usize, slope: f64) -> WireProgram {
    let reg = |name: &str, len: usize| WireRegister {
        name: format!("{name}{tag}"),
        len: len as u32,
    };
    WireProgram {
        registers: vec![
            reg("a", m),
            reg("b", m),
            reg("c", m),
            reg("r", m),
            reg("ind", 1),
        ],
        ops: vec![
            WireOp::Hadamard(0),
            WireOp::Hadamard(1),
            WireOp::Gates(deep_local_runs(m, depth)),
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
}

fn serve(seed: u64, sizes: &Sizes, cold: bool) -> Workload {
    let (m, depth) = (sizes.serve_m, sizes.serve_depth);
    let mut rng = StdRng::seed_from_u64(seed);
    let slopes: Vec<f64> = (0..SERVE_SLOPES)
        .map(|_| rng.gen_range(0.05..0.6))
        .collect();
    let run_tag: u32 = rng.gen();
    let shots = SubmitOptions {
        shots: SERVE_SHOTS,
        seed: SERVE_SHOT_SEED,
        want_amplitudes: false,
    };
    let audit = SubmitOptions {
        want_amplitudes: true,
        ..shots
    };
    let per_client = if cold {
        sizes.serve_cold_pool
    } else {
        SERVE_SLOPES
    };
    let clients = (0..SERVE_CLIENTS)
        .map(|client| {
            (0..per_client)
                .map(|i| {
                    let slope = rng.gen_range(0..SERVE_SLOPES);
                    let tag = if cold {
                        format!("-{run_tag:08x}-{client}-{i}")
                    } else {
                        String::new()
                    };
                    let program = serve_program(&tag, m, depth, slopes[slope]);
                    Request {
                        payload: wire::encode_submit(&program, &shots),
                        slope,
                    }
                })
                .collect()
        })
        .collect();
    let audits = (0..SERVE_SLOPES)
        .map(|slope| Request {
            payload: wire::encode_submit(&serve_program("", m, depth, slopes[slope]), &audit),
            slope,
        })
        .collect();
    // The coalesced run the daemon forms when both clients' requests
    // meet in one batching window.
    let members: Vec<QuantumProgram> = slopes[..SERVE_CLIENTS]
        .iter()
        .map(|&s| serve_reference_program(sizes, s))
        .collect();
    let n = 4 * m + 1;
    let mut gates = Circuit::new(n);
    for g in deep_local_runs(m, depth) {
        gates.push(g);
    }
    Workload {
        name: if cold { "serve_cold" } else { "serve_warm" },
        program: members[0].clone(),
        input: StateVector::zero_state(n),
        members,
        gates,
        serve: Some(ServeTraffic {
            warm_up: wire::encode_submit(&serve_program("", m, depth, 0.0), &shots),
            slopes,
            clients,
            audits,
            cold,
        }),
    }
}

/// The in-process twin of one served request: the program a request of
/// the given slope decodes to.
pub fn serve_reference_program(sizes: &Sizes, slope: f64) -> QuantumProgram {
    serve_program("", sizes.serve_m, sizes.serve_depth, slope)
        .to_program()
        .expect("serve program is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn every_catalogued_workload_builds() {
        for name in metrics::workload_names() {
            let w = build(name, 3, &QUICK).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(w.name, name);
            assert_eq!(w.input.n_qubits(), w.n_qubits());
            assert!(w.gates.n_qubits() <= w.n_qubits());
            let hash = w.program.structure_hash();
            assert!(w.members.iter().all(|p| p.structure_hash() == hash));
        }
        assert!(build("nope", 3, &QUICK).is_none());
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = build("qft_stream", 11, &QUICK).unwrap();
        let b = build("qft_stream", 11, &QUICK).unwrap();
        let c = build("qft_stream", 12, &QUICK).unwrap();
        assert_eq!(a.input, b.input);
        assert_ne!(a.input, c.input);

        let gates = |seed| build("deep_resident", seed, &QUICK).unwrap().gates;
        assert_eq!(gates(11).gates(), gates(11).gates());
        assert_ne!(gates(11).gates(), gates(12).gates());

        let payloads = |name, seed| -> Vec<Vec<u8>> {
            let w = build(name, seed, &QUICK).unwrap();
            let traffic = w.serve.unwrap();
            traffic
                .clients
                .into_iter()
                .flatten()
                .map(|r| r.payload)
                .collect()
        };
        for name in ["serve_warm", "serve_cold"] {
            assert_eq!(payloads(name, 11), payloads(name, 11));
            assert_ne!(payloads(name, 11), payloads(name, 12));
        }
    }

    /// The seed may change values, never shapes: same structure hash, same
    /// gate count and same qubits for every seed.
    #[test]
    fn the_seed_never_changes_a_shape() {
        for name in metrics::workload_names() {
            let a = build(name, 1, &QUICK).unwrap();
            let b = build(name, 2, &QUICK).unwrap();
            assert_eq!(a.gates.gate_count(), b.gates.gate_count(), "{name}");
            assert_eq!(a.members.len(), b.members.len(), "{name}");
            if name != "deep_resident" && name != "shor_mix" && name != "qpe_tfim" {
                assert_eq!(
                    a.program.structure_hash(),
                    b.program.structure_hash(),
                    "{name}"
                );
            }
        }
        let touched = |seed| -> Vec<Vec<usize>> {
            build("deep_resident", seed, &QUICK)
                .unwrap()
                .gates
                .gates()
                .iter()
                .map(|g| g.qubits())
                .collect()
        };
        assert_eq!(touched(1), touched(2));
    }

    #[test]
    fn cold_requests_are_all_distinct_structures() {
        let w = build("serve_cold", 5, &QUICK).unwrap();
        let traffic = w.serve.unwrap();
        let mut hashes = std::collections::BTreeSet::new();
        for request in traffic.clients.iter().flatten() {
            let (program, _) = wire::decode_submit(&request.payload).unwrap();
            assert!(hashes.insert(program.to_program().unwrap().structure_hash()));
        }
        assert_eq!(hashes.len(), SERVE_CLIENTS * QUICK.serve_cold_pool);
    }
}
