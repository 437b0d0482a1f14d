//! Dense-operator bridging: circuits ↔ 2ⁿ×2ⁿ matrices.
//!
//! The QPE emulation path (paper §3.3) starts by "building a (dense) matrix
//! representation of the unitary operator U" at cost O(G·2²ⁿ): we apply the
//! circuit to every basis column in parallel. The resulting `CMatrix` feeds
//! repeated squaring or the eigensolver, and can be applied — optionally
//! controlled — to a register inside a larger state.

use crate::circuit::Circuit;
use crate::kernels::{apply_gate_slice, parallel_ok, scatter_index, StatePtr, PAR_THRESHOLD};
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

/// Applies a dense `2^m × 2^m` operator to the register formed by `bits`
/// (LSB first) of a state vector with `n_qubits` qubits, for every
/// assignment of the remaining qubits, optionally gated on `control`
/// qubits being |1⟩.
///
/// Cost: O(2^{n+m}) complex multiply-adds (2^{n−m} batched mat-vecs).
pub fn apply_dense_to_register(
    state: &mut [C64],
    n_qubits: usize,
    bits: &[usize],
    u: &CMatrix,
    controls: &[usize],
) {
    let m = bits.len();
    let dim = 1usize << m;
    assert_eq!(
        u.shape(),
        (dim, dim),
        "operator does not match register size"
    );
    assert_eq!(state.len(), 1usize << n_qubits, "state length mismatch");
    for &b in bits {
        assert!(b < n_qubits, "register bit out of range");
        assert!(!controls.contains(&b), "control overlaps register");
    }
    let mut all = bits.to_vec();
    all.extend_from_slice(controls);
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        bits.len() + controls.len(),
        "register/control bits must be distinct"
    );

    // Complement = qubits not in the register (controls included: they are
    // fixed to 1 by masking below).
    let comp: Vec<usize> = (0..n_qubits).filter(|q| !bits.contains(q)).collect();
    let cmask = controls.iter().fold(0usize, |acc, &c| acc | (1usize << c));
    let batches = 1usize << comp.len();

    // Each batch owns a disjoint set of indices (a coset of the register
    // subspace), so parallel batches never alias.
    let ptr = StatePtr(state.as_mut_ptr());
    let process = |c: usize| {
        // Capture the Send+Sync wrapper, not the raw-pointer field.
        let p = &ptr;
        let base = scatter_index(c, &comp);
        if base & cmask != cmask {
            return; // a control qubit is 0 → identity on this coset
        }
        // Gather the register subvector.
        let mut v = vec![C64::ZERO; dim];
        for (val, slot) in v.iter_mut().enumerate() {
            let idx = base | scatter_index(val, bits);
            // SAFETY: distinct batches have distinct `base` complements and
            // therefore disjoint index sets; within a batch we are serial.
            unsafe { *slot = *p.0.add(idx) };
        }
        let y = u.matvec(&v);
        for (val, res) in y.iter().enumerate() {
            let idx = base | scatter_index(val, bits);
            unsafe { *p.0.add(idx) = *res };
        }
    };
    if parallel_ok(state.len(), PAR_THRESHOLD) {
        (0..batches).into_par_iter().for_each(process);
    } else {
        (0..batches).for_each(process);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::qft::qft_circuit;
    use crate::circuits::tfim::{tfim_trotter_step, TfimParams};
    use crate::gate::Gate;
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

    #[test]
    fn apply_dense_full_register_matches_matvec() {
        let mut rng = StdRng::seed_from_u64(101);
        let c = qft_circuit(3);
        let u = circuit_to_dense(&c);
        let input = random_state(8, &mut rng);
        let mut state = input.clone();
        apply_dense_to_register(&mut state, 3, &[0, 1, 2], &u, &[]);
        let expect = u.matvec(&input);
        assert!(qcemu_linalg::max_abs_diff(&state, &expect) < 1e-11);
    }

    #[test]
    fn apply_dense_to_subregister_matches_gate_level() {
        let mut rng = StdRng::seed_from_u64(102);
        // Operator on qubits [1, 3] of a 4-qubit state.
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).rz(1, 0.3);
        let u = circuit_to_dense(&c);
        let input = random_state(16, &mut rng);

        let mut fast = input.clone();
        apply_dense_to_register(&mut fast, 4, &[1, 3], &u, &[]);

        // Gate-level reference: remap the circuit onto qubits 1, 3.
        let remapped = c.remap_qubits(4, |q| if q == 0 { 1 } else { 3 });
        let mut sv = StateVector::from_amplitudes(input);
        sv.apply_circuit(&remapped);

        assert!(qcemu_linalg::max_abs_diff(&fast, sv.amplitudes()) < 1e-11);
    }

    #[test]
    fn controlled_dense_application() {
        let mut rng = StdRng::seed_from_u64(103);
        let mut c = Circuit::new(2);
        c.h(0).cphase(0, 1, 1.2);
        let u = circuit_to_dense(&c);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        // n = 14 and 16 sit on either side of PAR_THRESHOLD (2¹⁵): the
        // serial and the parallel coset loops must both match gate level.
        for n in [3usize, 14, 16] {
            let input = random_state(1 << n, &mut rng);

            // Controlled on the top qubit, register = qubits [0, 1].
            let mut fast = input.clone();
            pool.install(|| apply_dense_to_register(&mut fast, n, &[0, 1], &u, &[n - 1]));

            // Gate-level: controlled circuit.
            let cc = c.controlled_by(n - 1);
            let mut sv = StateVector::from_amplitudes(input);
            sv.apply_circuit(&cc);
            assert!(
                qcemu_linalg::max_abs_diff(&fast, sv.amplitudes()) < 1e-11,
                "n = {n}"
            );
        }
    }

    #[test]
    fn control_zero_leaves_state_untouched() {
        let mut rng = StdRng::seed_from_u64(104);
        let mut c = Circuit::new(1);
        c.h(0);
        let u = circuit_to_dense(&c);
        // Qubit 1 is |0⟩ in basis states 0 and 1 only.
        let input = random_state(4, &mut rng);
        let mut state = input.clone();
        apply_dense_to_register(&mut state, 2, &[0], &u, &[1]);
        // Coset where control = 0 must be identical.
        assert!(state[0].approx_eq(input[0], 1e-14));
        assert!(state[1].approx_eq(input[1], 1e-14));
        // Coset where control = 1 must be transformed.
        let g = Gate::controlled(crate::gate::GateOp::H, 1, 0);
        let mut sv = StateVector::from_amplitudes(input);
        sv.apply(&g);
        assert!(qcemu_linalg::max_abs_diff(&state, sv.amplitudes()) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "does not match register")]
    fn wrong_operator_size_panics() {
        let mut state = vec![C64::ONE; 8];
        let u = CMatrix::identity(2);
        apply_dense_to_register(&mut state, 3, &[0, 1], &u, &[]);
    }

    #[test]
    #[should_panic(expected = "control overlaps register")]
    fn overlapping_control_panics() {
        let mut state = vec![C64::ONE; 8];
        let u = CMatrix::identity(4);
        apply_dense_to_register(&mut state, 3, &[0, 1], &u, &[1]);
    }
}
