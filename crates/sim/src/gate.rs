//! Quantum gates: the standard set of paper Table 1 plus arbitrary
//! single-qubit unitaries, all with any number of control qubits.
//!
//! A gate is a single-qubit operation (or a SWAP) plus a control list; the
//! simulator exploits the *structure* of the operation — diagonal,
//! permutation, or general — to pick a specialised kernel (paper §2: "a
//! simulator can apply various low-level optimization strategies […]
//! including optimizing away multiplications by ones and zeros").

use qcemu_linalg::{c64, C64};
use std::f64::consts::{FRAC_1_SQRT_2, FRAC_PI_4};

/// A 2×2 complex matrix in row-major nested-array form.
pub type Mat2 = [[C64; 2]; 2];

/// Multiplies two 2×2 complex matrices.
pub fn mat2_mul(a: &Mat2, b: &Mat2) -> Mat2 {
    let mut out = [[C64::ZERO; 2]; 2];
    for (r, row) in out.iter_mut().enumerate() {
        for (c, slot) in row.iter_mut().enumerate() {
            *slot = a[r][0] * b[0][c] + a[r][1] * b[1][c];
        }
    }
    out
}

/// Conjugate transpose of a 2×2 matrix.
pub fn mat2_dagger(m: &Mat2) -> Mat2 {
    [
        [m[0][0].conj(), m[1][0].conj()],
        [m[0][1].conj(), m[1][1].conj()],
    ]
}

/// Checks `m† m ≈ I` within `tol`.
pub fn mat2_is_unitary(m: &Mat2, tol: f64) -> bool {
    let p = mat2_mul(&mat2_dagger(m), m);
    (p[0][0] - C64::ONE).abs() <= tol
        && p[0][1].abs() <= tol
        && p[1][0].abs() <= tol
        && (p[1][1] - C64::ONE).abs() <= tol
}

/// The single-qubit operation part of a gate.
#[derive(Clone, Debug, PartialEq)]
pub enum GateOp {
    /// Pauli-X (NOT).
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// S = diag(1, i).
    S,
    /// S† = diag(1, −i).
    Sdg,
    /// T = diag(1, e^{iπ/4}).
    T,
    /// T† = diag(1, e^{−iπ/4}).
    Tdg,
    /// Rotation about X: `e^{-iθX/2}`.
    Rx(f64),
    /// Rotation about Y: `e^{-iθY/2}`.
    Ry(f64),
    /// Rotation about Z: `diag(e^{-iθ/2}, e^{iθ/2})` (paper Table 1).
    Rz(f64),
    /// Phase shift `diag(1, e^{iθ})` — the paper's conditional phase-shift
    /// matrix when given one control.
    Phase(f64),
    /// Arbitrary single-qubit unitary.
    U(Mat2),
}

impl GateOp {
    /// The 2×2 matrix of this operation.
    pub fn matrix(&self) -> Mat2 {
        let o = C64::ZERO;
        let l = C64::ONE;
        match self {
            GateOp::X => [[o, l], [l, o]],
            GateOp::Y => [[o, c64(0.0, -1.0)], [c64(0.0, 1.0), o]],
            GateOp::Z => [[l, o], [o, c64(-1.0, 0.0)]],
            GateOp::H => [
                [c64(FRAC_1_SQRT_2, 0.0), c64(FRAC_1_SQRT_2, 0.0)],
                [c64(FRAC_1_SQRT_2, 0.0), c64(-FRAC_1_SQRT_2, 0.0)],
            ],
            GateOp::S => [[l, o], [o, C64::I]],
            GateOp::Sdg => [[l, o], [o, c64(0.0, -1.0)]],
            GateOp::T => [[l, o], [o, C64::cis(FRAC_PI_4)]],
            GateOp::Tdg => [[l, o], [o, C64::cis(-FRAC_PI_4)]],
            GateOp::Rx(t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                [[c64(c, 0.0), c64(0.0, -s)], [c64(0.0, -s), c64(c, 0.0)]]
            }
            GateOp::Ry(t) => {
                let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                [[c64(c, 0.0), c64(-s, 0.0)], [c64(s, 0.0), c64(c, 0.0)]]
            }
            GateOp::Rz(t) => [[C64::cis(-t / 2.0), o], [o, C64::cis(t / 2.0)]],
            GateOp::Phase(t) => [[l, o], [o, C64::cis(*t)]],
            GateOp::U(m) => *m,
        }
    }

    /// The inverse (adjoint) operation, staying in the named-gate family
    /// where possible so structure classification is preserved.
    pub fn dagger(&self) -> GateOp {
        match self {
            GateOp::X => GateOp::X,
            GateOp::Y => GateOp::Y,
            GateOp::Z => GateOp::Z,
            GateOp::H => GateOp::H,
            GateOp::S => GateOp::Sdg,
            GateOp::Sdg => GateOp::S,
            GateOp::T => GateOp::Tdg,
            GateOp::Tdg => GateOp::T,
            GateOp::Rx(t) => GateOp::Rx(-t),
            GateOp::Ry(t) => GateOp::Ry(-t),
            GateOp::Rz(t) => GateOp::Rz(-t),
            GateOp::Phase(t) => GateOp::Phase(-t),
            GateOp::U(m) => GateOp::U(mat2_dagger(m)),
        }
    }

    /// Structure classification driving kernel dispatch.
    pub fn structure(&self) -> GateStructure {
        match self {
            GateOp::X => GateStructure::PermutationX,
            GateOp::Z => GateStructure::Diagonal(C64::ONE, c64(-1.0, 0.0)),
            GateOp::S => GateStructure::Diagonal(C64::ONE, C64::I),
            GateOp::Sdg => GateStructure::Diagonal(C64::ONE, c64(0.0, -1.0)),
            GateOp::T => GateStructure::Diagonal(C64::ONE, C64::cis(FRAC_PI_4)),
            GateOp::Tdg => GateStructure::Diagonal(C64::ONE, C64::cis(-FRAC_PI_4)),
            GateOp::Rz(t) => GateStructure::Diagonal(C64::cis(-t / 2.0), C64::cis(t / 2.0)),
            GateOp::Phase(t) => GateStructure::Diagonal(C64::ONE, C64::cis(*t)),
            GateOp::U(m) => {
                // Detect structure in user-supplied matrices too.
                let tol = 0.0; // exact zeros only: conservative and cheap
                if m[0][1].abs() == tol && m[1][0].abs() == tol {
                    GateStructure::Diagonal(m[0][0], m[1][1])
                } else {
                    GateStructure::General(*m)
                }
            }
            other => GateStructure::General(other.matrix()),
        }
    }

    /// `true` if the operation matrix is diagonal.
    pub fn is_diagonal(&self) -> bool {
        matches!(self.structure(), GateStructure::Diagonal(_, _))
    }
}

/// Structural class of a single-qubit operation, used to choose a kernel.
#[derive(Clone, Debug, PartialEq)]
pub enum GateStructure {
    /// `diag(d0, d1)`: no amplitude mixing → no communication when
    /// distributed, and only scaling (or nothing, when `d0 = 1`) locally.
    Diagonal(C64, C64),
    /// The X permutation: pure amplitude swap, no arithmetic.
    PermutationX,
    /// Dense 2×2: full butterfly per pair.
    General(Mat2),
}

/// A gate: an operation applied to `target`, conditioned on every qubit in
/// `controls` being |1⟩ — or a (controlled) SWAP of two qubits.
#[derive(Clone, Debug, PartialEq)]
pub enum Gate {
    /// Controlled single-qubit operation.
    Unary {
        /// The 2×2 operation.
        op: GateOp,
        /// Target qubit index (little-endian: qubit k is bit k).
        target: usize,
        /// Control qubits (must all be |1⟩), any number including zero.
        controls: Vec<usize>,
    },
    /// Controlled SWAP of qubits `a` and `b`.
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
        /// Control qubits.
        controls: Vec<usize>,
    },
}

impl Gate {
    /// Uncontrolled single-qubit gate.
    pub fn unary(op: GateOp, target: usize) -> Gate {
        Gate::Unary {
            op,
            target,
            controls: Vec::new(),
        }
    }

    /// Singly-controlled gate.
    pub fn controlled(op: GateOp, control: usize, target: usize) -> Gate {
        Gate::Unary {
            op,
            target,
            controls: vec![control],
        }
    }

    /// Pauli-X.
    pub fn x(target: usize) -> Gate {
        Gate::unary(GateOp::X, target)
    }
    /// Pauli-Y.
    pub fn y(target: usize) -> Gate {
        Gate::unary(GateOp::Y, target)
    }
    /// Pauli-Z.
    pub fn z(target: usize) -> Gate {
        Gate::unary(GateOp::Z, target)
    }
    /// Hadamard.
    pub fn h(target: usize) -> Gate {
        Gate::unary(GateOp::H, target)
    }
    /// S gate.
    pub fn s(target: usize) -> Gate {
        Gate::unary(GateOp::S, target)
    }
    /// T gate.
    pub fn t(target: usize) -> Gate {
        Gate::unary(GateOp::T, target)
    }
    /// Z rotation by `theta`.
    pub fn rz(target: usize, theta: f64) -> Gate {
        Gate::unary(GateOp::Rz(theta), target)
    }
    /// X rotation by `theta`.
    pub fn rx(target: usize, theta: f64) -> Gate {
        Gate::unary(GateOp::Rx(theta), target)
    }
    /// Y rotation by `theta`.
    pub fn ry(target: usize, theta: f64) -> Gate {
        Gate::unary(GateOp::Ry(theta), target)
    }
    /// Phase shift `diag(1, e^{iθ})`.
    pub fn phase(target: usize, theta: f64) -> Gate {
        Gate::unary(GateOp::Phase(theta), target)
    }
    /// CNOT.
    pub fn cnot(control: usize, target: usize) -> Gate {
        Gate::controlled(GateOp::X, control, target)
    }
    /// Controlled-Z.
    pub fn cz(control: usize, target: usize) -> Gate {
        Gate::controlled(GateOp::Z, control, target)
    }
    /// The paper's conditional phase shift CR(θ) (Table 1).
    pub fn cphase(control: usize, target: usize, theta: f64) -> Gate {
        Gate::controlled(GateOp::Phase(theta), control, target)
    }
    /// Toffoli (CCNOT).
    pub fn toffoli(c1: usize, c2: usize, target: usize) -> Gate {
        Gate::Unary {
            op: GateOp::X,
            target,
            controls: vec![c1, c2],
        }
    }
    /// Multi-controlled X.
    pub fn mcx(controls: Vec<usize>, target: usize) -> Gate {
        Gate::Unary {
            op: GateOp::X,
            target,
            controls,
        }
    }
    /// SWAP.
    pub fn swap(a: usize, b: usize) -> Gate {
        Gate::Swap {
            a,
            b,
            controls: Vec::new(),
        }
    }

    /// Target/participating qubits plus controls, for validation and depth
    /// computation.
    pub fn qubits(&self) -> Vec<usize> {
        match self {
            Gate::Unary {
                target, controls, ..
            } => {
                let mut v = controls.clone();
                v.push(*target);
                v
            }
            Gate::Swap { a, b, controls } => {
                let mut v = controls.clone();
                v.push(*a);
                v.push(*b);
                v
            }
        }
    }

    /// The inverse gate.
    pub fn dagger(&self) -> Gate {
        match self {
            Gate::Unary {
                op,
                target,
                controls,
            } => Gate::Unary {
                op: op.dagger(),
                target: *target,
                controls: controls.clone(),
            },
            s @ Gate::Swap { .. } => s.clone(), // SWAP is self-inverse
        }
    }

    /// Adds an extra control qubit, turning G into controlled-G. This is how
    /// circuits are lifted to the controlled-U form QPE needs.
    pub fn add_control(&self, control: usize) -> Gate {
        let mut g = self.clone();
        match &mut g {
            Gate::Unary { controls, .. } | Gate::Swap { controls, .. } => {
                controls.push(control);
            }
        }
        g
    }

    /// Number of control qubits.
    pub fn num_controls(&self) -> usize {
        match self {
            Gate::Unary { controls, .. } | Gate::Swap { controls, .. } => controls.len(),
        }
    }

    /// `true` if this gate's action is diagonal in the computational basis
    /// (hence needs no communication when the state is distributed —
    /// the key specialisation of paper §4.5).
    pub fn is_diagonal_action(&self) -> bool {
        match self {
            Gate::Unary { op, .. } => op.is_diagonal(),
            Gate::Swap { .. } => false,
        }
    }

    /// Validates qubit indices against a machine of `n_qubits` qubits:
    /// indices in range and no qubit used twice by the same gate.
    ///
    /// Allocates nothing unless the gate is invalid, since every circuit
    /// push runs it. Qubits are scanned in [`Gate::qubits`] order, so an
    /// error names the same qubit that list would show first.
    pub fn validate(&self, n_qubits: usize) -> Result<(), String> {
        let (controls, first, second) = match self {
            Gate::Unary {
                target, controls, ..
            } => (controls, *target, None),
            Gate::Swap { a, b, controls } => (controls, *a, Some(*b)),
        };
        let qs = controls.iter().copied().chain(Some(first)).chain(second);
        if let Some(q) = qs.clone().find(|&q| q >= n_qubits) {
            return Err(format!("gate touches qubit {q} but machine has {n_qubits}"));
        }
        if qs
            .clone()
            .enumerate()
            .any(|(i, q)| qs.clone().take(i).any(|p| p == q))
        {
            return Err(format!(
                "gate uses a qubit more than once: {:?}",
                self.qubits()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matrices_are_unitary() {
        let ops = [
            GateOp::X,
            GateOp::Y,
            GateOp::Z,
            GateOp::H,
            GateOp::S,
            GateOp::Sdg,
            GateOp::T,
            GateOp::Tdg,
            GateOp::Rx(0.3),
            GateOp::Ry(-1.2),
            GateOp::Rz(2.5),
            GateOp::Phase(0.7),
        ];
        for op in ops {
            assert!(mat2_is_unitary(&op.matrix(), 1e-12), "{op:?} not unitary");
        }
    }

    #[test]
    fn not_matrix_matches_paper_eq2() {
        let m = GateOp::X.matrix();
        assert_eq!(m[0][0], C64::ZERO);
        assert_eq!(m[0][1], C64::ONE);
        assert_eq!(m[1][0], C64::ONE);
        assert_eq!(m[1][1], C64::ZERO);
    }

    #[test]
    fn dagger_times_op_is_identity() {
        let ops = [
            GateOp::H,
            GateOp::S,
            GateOp::T,
            GateOp::Rx(0.9),
            GateOp::Rz(-0.4),
            GateOp::Phase(1.3),
            GateOp::Y,
        ];
        for op in ops {
            let p = mat2_mul(&op.dagger().matrix(), &op.matrix());
            assert!((p[0][0] - C64::ONE).abs() < 1e-12, "{op:?}");
            assert!(p[0][1].abs() < 1e-12 && p[1][0].abs() < 1e-12, "{op:?}");
            assert!((p[1][1] - C64::ONE).abs() < 1e-12, "{op:?}");
        }
    }

    #[test]
    fn s_squared_is_z_and_t_squared_is_s() {
        let s2 = mat2_mul(&GateOp::S.matrix(), &GateOp::S.matrix());
        let z = GateOp::Z.matrix();
        for r in 0..2 {
            for c in 0..2 {
                assert!((s2[r][c] - z[r][c]).abs() < 1e-12);
            }
        }
        let t2 = mat2_mul(&GateOp::T.matrix(), &GateOp::T.matrix());
        let s = GateOp::S.matrix();
        for r in 0..2 {
            for c in 0..2 {
                assert!((t2[r][c] - s[r][c]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn structure_classification() {
        assert_eq!(GateOp::X.structure(), GateStructure::PermutationX);
        assert!(matches!(
            GateOp::Rz(0.1).structure(),
            GateStructure::Diagonal(_, _)
        ));
        assert!(matches!(
            GateOp::Phase(0.1).structure(),
            GateStructure::Diagonal(_, _)
        ));
        assert!(matches!(GateOp::H.structure(), GateStructure::General(_)));
        assert!(matches!(
            GateOp::Rx(0.2).structure(),
            GateStructure::General(_)
        ));
        // User-supplied diagonal matrix is detected.
        let d = GateOp::U([[C64::I, C64::ZERO], [C64::ZERO, C64::ONE]]);
        assert!(d.is_diagonal());
    }

    #[test]
    fn diagonal_structure_values_match_matrix() {
        for op in [
            GateOp::Z,
            GateOp::S,
            GateOp::T,
            GateOp::Rz(0.77),
            GateOp::Phase(-0.3),
        ] {
            if let GateStructure::Diagonal(d0, d1) = op.structure() {
                let m = op.matrix();
                assert!(d0.approx_eq(m[0][0], 1e-15), "{op:?}");
                assert!(d1.approx_eq(m[1][1], 1e-15), "{op:?}");
            } else {
                panic!("{op:?} should be diagonal");
            }
        }
    }

    #[test]
    fn gate_constructors_and_qubits() {
        let g = Gate::toffoli(0, 1, 2);
        assert_eq!(g.num_controls(), 2);
        let mut q = g.qubits();
        q.sort_unstable();
        assert_eq!(q, vec![0, 1, 2]);

        let s = Gate::swap(3, 5);
        assert_eq!(s.qubits(), vec![3, 5]);
    }

    #[test]
    fn add_control_stacks() {
        let g = Gate::cnot(0, 1).add_control(2);
        assert_eq!(g.num_controls(), 2);
        if let Gate::Unary { op, .. } = &g {
            assert_eq!(*op, GateOp::X);
        } else {
            panic!("expected unary");
        }
    }

    #[test]
    fn validate_catches_out_of_range_and_overlap() {
        assert!(Gate::cnot(0, 1).validate(2).is_ok());
        assert!(Gate::cnot(0, 2).validate(2).is_err());
        assert!(Gate::cnot(1, 1).validate(2).is_err());
        assert!(Gate::swap(0, 0).validate(2).is_err());
        assert!(Gate::toffoli(0, 1, 0).validate(3).is_err());
    }

    /// The allocating form `validate` replaced: collect, sort, dedup.
    fn validate_by_sorting(g: &Gate, n_qubits: usize) -> Result<(), String> {
        let qs = g.qubits();
        for &q in &qs {
            if q >= n_qubits {
                return Err(format!("gate touches qubit {q} but machine has {n_qubits}"));
            }
        }
        let mut sorted = qs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != qs.len() {
            return Err(format!("gate uses a qubit more than once: {qs:?}"));
        }
        Ok(())
    }

    #[test]
    fn validate_matches_the_sorting_form_result_for_result() {
        // Qubits 0..=4 on a 4-qubit machine: 4 is out of range, and small
        // indices repeat often enough to cover every duplicate position.
        let lists: Vec<Vec<usize>> = (0..=3usize)
            .flat_map(|n| {
                (0..5usize.pow(n as u32))
                    .map(move |code| (0..n).map(|i| code / 5usize.pow(i as u32) % 5).collect())
            })
            .collect();
        for controls in &lists {
            for t in 0..5 {
                let unary = Gate::Unary {
                    op: GateOp::H,
                    target: t,
                    controls: controls.clone(),
                };
                assert_eq!(unary.validate(4), validate_by_sorting(&unary, 4));
                for b in 0..5 {
                    let swap = Gate::Swap {
                        a: t,
                        b,
                        controls: controls.clone(),
                    };
                    assert_eq!(swap.validate(4), validate_by_sorting(&swap, 4));
                }
            }
        }
        assert_eq!(
            Gate::toffoli(5, 1, 1).validate(3),
            Err("gate touches qubit 5 but machine has 3".into())
        );
        assert_eq!(
            Gate::toffoli(2, 1, 2).validate(3),
            Err("gate uses a qubit more than once: [2, 1, 2]".into())
        );
    }

    #[test]
    fn diagonal_action_detection_for_communication_avoidance() {
        assert!(Gate::cphase(0, 1, 0.5).is_diagonal_action());
        assert!(Gate::rz(0, 0.5).is_diagonal_action());
        assert!(Gate::cz(0, 1).is_diagonal_action());
        assert!(!Gate::h(0).is_diagonal_action());
        assert!(!Gate::cnot(0, 1).is_diagonal_action());
        assert!(!Gate::swap(0, 1).is_diagonal_action());
    }

    #[test]
    fn swap_dagger_is_itself() {
        let s = Gate::swap(1, 2);
        assert_eq!(s.dagger(), s);
    }
}
