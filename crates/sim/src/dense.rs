//! Dense-operator bridging: circuits ↔ 2ⁿ×2ⁿ matrices.
//!
//! The QPE emulation path (paper §3.3) starts by "building a (dense) matrix
//! representation of the unitary operator U" at cost O(G·2²ⁿ): we apply the
//! circuit to every basis column in parallel. The resulting `CMatrix` feeds
//! repeated squaring or the eigensolver.

use crate::circuit::Circuit;
use crate::kernels::apply_gate_slice;
use qcemu_linalg::{CMatrix, C64};
use rayon::prelude::*;

/// Builds the dense 2ⁿ×2ⁿ unitary of a circuit by simulating every basis
/// column (embarrassingly parallel, O(G·2²ⁿ) as in the paper).
pub fn circuit_to_dense(circuit: &Circuit) -> CMatrix {
    let n = circuit.n_qubits();
    let dim = 1usize << n;
    // Column-major staging: column j is the circuit applied to |j⟩.
    let cols: Vec<Vec<C64>> = (0..dim)
        .into_par_iter()
        .map(|j| {
            let mut col = vec![C64::ZERO; dim];
            col[j] = C64::ONE;
            for g in circuit.gates() {
                apply_gate_slice(&mut col, g);
            }
            col
        })
        .collect();
    // Assemble row-major.
    let mut m = CMatrix::zeros(dim, dim);
    for (j, col) in cols.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            m[(i, j)] = v;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::tfim::{tfim_trotter_step, TfimParams};
    use crate::statevector::StateVector;
    use qcemu_linalg::{gemm, random_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_of_single_hadamard() {
        let mut c = Circuit::new(1);
        c.h(0);
        let m = circuit_to_dense(&c);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((m[(0, 0)].re - s).abs() < 1e-14);
        assert!((m[(1, 1)].re + s).abs() < 1e-14);
        assert!(m.is_unitary(1e-12));
    }

    #[test]
    fn dense_of_cnot_is_permutation() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        let m = circuit_to_dense(&c);
        // CNOT with control qubit 0 (LSB): |01⟩ ↔ |11⟩, i.e. indices 1 and 3.
        assert_eq!(m[(0, 0)], C64::ONE);
        assert_eq!(m[(3, 1)], C64::ONE);
        assert_eq!(m[(2, 2)], C64::ONE);
        assert_eq!(m[(1, 3)], C64::ONE);
    }

    #[test]
    fn dense_matches_statevector_application() {
        let mut rng = StdRng::seed_from_u64(100);
        let c = tfim_trotter_step(4, TfimParams::default());
        let u = circuit_to_dense(&c);
        assert!(u.is_unitary(1e-10));
        let input = random_state(16, &mut rng);
        let via_matrix = u.matvec(&input);
        let mut sv = StateVector::from_amplitudes(input);
        sv.apply_circuit(&c);
        assert!(qcemu_linalg::max_abs_diff(sv.amplitudes(), &via_matrix) < 1e-11);
    }

    #[test]
    fn dense_composition_equals_circuit_concatenation() {
        let mut c1 = Circuit::new(3);
        c1.h(0).cnot(0, 1);
        let mut c2 = Circuit::new(3);
        c2.cphase(1, 2, 0.4).x(0);
        let mut cat = Circuit::new(3);
        cat.extend(&c1);
        cat.extend(&c2);
        let u_cat = circuit_to_dense(&cat);
        let u_prod = gemm(&circuit_to_dense(&c2), &circuit_to_dense(&c1));
        assert!(u_cat.max_abs_diff(&u_prod) < 1e-11);
    }
}
