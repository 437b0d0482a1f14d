//! Helpers shared by the segment / batch / MPS equivalence harnesses.
#![allow(dead_code)] // each harness uses its own subset

use proptest::prelude::*;
use qcemu::prelude::*;
#[allow(unused_imports)] // each harness uses its own subset
pub use qcemu_linalg::simd::{scalar_lock, ForcedScalar};

/// Strategy: a random circuit on `n` qubits over the full gate zoo —
/// real (H, Ry), diagonal (Rz, phase, cphase), permutation (X, CNOT,
/// Toffoli, SWAP) and generic unitaries all take distinct kernel paths.
pub fn random_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    let gate =
        (0..9usize, 0..n, 0..n, 0..n, -3.0f64..3.0).prop_map(move |(kind, q1, q2, q3, theta)| {
            let distinct2 = |a: usize, b: usize| if a == b { (a, (b + 1) % n) } else { (a, b) };
            let (a, b) = distinct2(q1, q2);
            match kind {
                0 => Gate::h(a),
                1 => Gate::x(a),
                2 => Gate::rz(a, theta),
                3 => Gate::ry(a, theta),
                4 => Gate::phase(a, theta),
                5 => Gate::cnot(a, b),
                6 => Gate::cphase(a, b, theta),
                7 => Gate::swap(a, b),
                _ => {
                    let c = if q3 == a || q3 == b { (b + 1) % n } else { q3 };
                    if c != a && c != b {
                        Gate::toffoli(a, c, b)
                    } else {
                        Gate::ry(a, theta)
                    }
                }
            }
        });
    proptest::collection::vec(gate, 1..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g);
        }
        c
    })
}

/// Exact elementwise amplitude distance — no global-phase forgiveness:
/// every dense tier applies the same matrices in the same order, and MPS
/// SVD splits are gauge choices that cancel on contraction.
pub fn max_diff(a: &StateVector, b: &StateVector) -> f64 {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes())
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0f64, f64::max)
}
