//! Fused blocks at every placement, against per-gate application.
//!
//! The gathering kernels (general blocks replay their gates, dense blocks
//! multiply by the composed unitary) lift the state bits below a block's
//! lowest qubit into the batch dimension, capped at an L1-sized group. The
//! sweep puts that lowest qubit at 0 (no lift), at 1–3 (a partial lift), at
//! 7 and at `n − k` (lifts the cap cuts short at wide blocks and batches),
//! and takes the state width down to `k` and `k + 1`, where one lifted
//! group is the whole buffer. Every case runs on pools of 1, 2 and 3
//! threads and on both SIMD backends, and is compared with
//! [`apply_gate_batch`] gate by gate. A failing case names itself as
//! `(n, qubits, arm, batch, threads, backend)`.

use qcemu_linalg::simd::{scalar_lock, ForcedScalar};
use qcemu_linalg::{max_abs_diff, random_state};
use qcemu_sim::kernels::apply_gate_batch;
use qcemu_sim::{
    Circuit, FusedGate, FusedOp, FusedStructure, FusionPolicy, Gate, GateOp, PAR_THRESHOLD,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const WIDTHS: std::ops::RangeInclusive<usize> = 1..=6;
const LOWEST: [usize; 5] = [0, 1, 2, 3, 7];
const BATCHES: [usize; 4] = [1, 2, 3, 8];
const POOLS: [usize; 3] = [1, 2, 3];
const TOL: f64 = 1e-12;

/// The fused applies run at this parallel threshold, so that pools of 2
/// and 3 split even a 2^k-amplitude buffer into tasks.
const SPLIT: usize = 1 << 6;

/// A gate run over exactly `qubits`, fused by the greedy policy into one
/// block of the requested arm. The general run holds `k + 2` gates or
/// fewer (under `2^k` for every `k ≥ 2`) and uses every op class the
/// replay compiles: a rotation, CNOTs, a controlled phase and a controlled
/// SWAP. The dense run pads it with (controlled) rotations to `2^k` gates.
fn block_circuit(n: usize, qubits: &[usize], dense: bool, rng: &mut StdRng) -> Circuit {
    let k = qubits.len();
    let mut c = Circuit::new(n);
    c.ry(qubits[0], rng.gen_range(-3.0..3.0));
    for w in qubits.windows(2) {
        c.cnot(w[0], w[1]);
    }
    if k >= 3 {
        c.cphase(qubits[k - 1], qubits[0], rng.gen_range(-3.0..3.0));
        c.push(Gate::Swap {
            a: qubits[1],
            b: qubits[k - 1],
            controls: vec![qubits[0]],
        });
    }
    let mut i = 0;
    while dense && c.gate_count() < 1 << k {
        let theta = rng.gen_range(-3.0..3.0);
        c.push(Gate::Unary {
            op: if i % 2 == 0 {
                GateOp::Rx(theta)
            } else {
                GateOp::Ry(theta)
            },
            target: qubits[i % k],
            controls: if k > 1 && i % 3 == 0 {
                vec![qubits[(i + 1) % k]]
            } else {
                vec![]
            },
        });
        i += 1;
    }
    c
}

/// The one block `circuit` fuses into at window `k`.
fn the_block(circuit: &Circuit, k: usize) -> FusedGate {
    let fused = circuit.fuse(&FusionPolicy::Greedy {
        max_fused_qubits: k,
    });
    match fused.ops() {
        [FusedOp::Block(b)] => b.clone(),
        ops => panic!("expected one fused block, got {ops:?}"),
    }
}

/// Runs `f` once per backend × pool size, telling it which it is in.
fn on_every_backend_and_pool(mut f: impl FnMut(&str, usize)) {
    for scalar in [true, false] {
        // Either leg holds the switch: forced for one, merely pinned
        // against another test's toggle for the other.
        let _forced = scalar.then(ForcedScalar::engage);
        let _pinned = (!scalar).then(scalar_lock);
        let backend = if scalar { "scalar" } else { "native" };
        for threads in POOLS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("shim pool build is infallible");
            pool.install(|| f(backend, threads));
        }
    }
}

/// Every `(n, block qubits)` the sweep covers. Adjacent block qubits
/// gather as one contiguous run once lifted; spaced ones (every other
/// qubit) pay a strided offset per qubit.
fn placements() -> Vec<(usize, Vec<usize>)> {
    let mut out = Vec::new();
    for k in WIDTHS {
        for n in [k, k + 1, 10, 15] {
            for lo in LOWEST.into_iter().chain([n - k]) {
                for stride in [1, 2] {
                    if lo + stride * (k - 1) < n {
                        out.push((n, (0..k).map(|i| lo + stride * i).collect()));
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[test]
fn fused_blocks_match_per_gate_at_every_placement() {
    let mut rng = StdRng::seed_from_u64(0xb10c);
    let mut cases = 0;
    for (n, qubits) in placements() {
        let k = qubits.len();
        // A one-qubit block fuses at least 2 = 2^1 gates, so it is always
        // dense.
        for dense in [false, true].into_iter().filter(|&d| d || k > 1) {
            let (arm, want) = if dense {
                ("dense", FusedStructure::Dense)
            } else {
                ("general", FusedStructure::General)
            };
            let circuit = block_circuit(n, &qubits, dense, &mut rng);
            let block = the_block(&circuit, k);
            assert_eq!(block.structure(), want, "{arm} block on {qubits:?}");
            assert_eq!(block.qubits(), &qubits[..]);
            for batch in BATCHES {
                let tuple = format!("(n {n}, qubits {qubits:?}, {arm}, batch {batch}");
                let input = random_state(batch << n, &mut rng);
                let mut want = input.clone();
                for g in circuit.gates() {
                    apply_gate_batch(&mut want, batch, g, PAR_THRESHOLD);
                }
                let mut got = input.clone();
                on_every_backend_and_pool(|backend, threads| {
                    got.copy_from_slice(&input);
                    block.apply(&mut got, batch, SPLIT);
                    let err = max_abs_diff(&got, &want);
                    assert!(
                        err <= TOL,
                        "{tuple}, {threads} threads, {backend}): error {err:e}"
                    );
                    if n == k {
                        // One group: the distributed executor's entry
                        // point sees the same buffer.
                        let mut via_buffer = input.clone();
                        block.apply_buffer(&mut via_buffer, batch);
                        let err = max_abs_diff(&via_buffer, &got);
                        assert!(
                            err <= TOL,
                            "{tuple}, {threads} threads, {backend}): \
                             apply_buffer differs from apply by {err:e}"
                        );
                    }
                    cases += 1;
                });
            }
        }
    }
    // 235 blocks (placement × arm) × 4 batches × 6 configurations.
    assert_eq!(cases, 235 * 4 * 6, "the sweep changed size");
}
