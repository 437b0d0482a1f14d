//! Quantum phase estimation: gate-level reference and the two emulation
//! shortcuts of paper §3.3 (repeated squaring and eigendecomposition).
//!
//! All three strategies produce the *same* final state (up to floating
//! point), which the tests verify:
//!
//! * **Gate level** — H on the `b` phase qubits, then `2^j` repetitions of
//!   controlled-U for phase qubit `j` (paper Eq. 7), then an inverse QFT on
//!   the phase register. Cost O(G·2^{n+b}).
//!
//! The two dense strategies rest on one fact: the phase register is |0⟩ on
//! entry (checked), so after the Hadamards and the controlled powers the
//! *slice* of the state at phase value `x` is `U^x ψ / √2^b`, where ψ is
//! the input over the other qubits. They write the slices directly — as
//! rows of `2^m` target amplitudes, one GEMM at a time — and finish with
//! the inverse QFT as one FFT over the phase register:
//!
//! * **Repeated squaring** — build dense `U` once (O(G·2^{2m})), square it
//!   `b−1` times, and fill the slices by a doubling sweep: slices
//!   `[2^j, 2^{j+1})` = slices `[0, 2^j)` · `(U^{2^j})ᵀ`, one GEMM per bit.
//!   Flops: `(b−1)·8·2^{3m}` for the squarings, `8·2^n·2^m` for the sweep.
//! * **Eigendecomposition** — `zgeev`-style Schur decomposition
//!   `U = V·Λ·V†`; the slices are `Ψ = D·Vᵀ` with
//!   `D[x][k] = ⟨u_k|ψ⟩·e^{2πi x φ_k}/√2^b`, one GEMM.
//!
//! The slices sit in the state itself when the target register is bits
//! `0..m` and the phase register the `b` bits directly above it (the
//! `ProgramBuilder` order); any other layout gathers ψ into a scratch
//! buffer laid out `[x][coset][t]` and scatters the slices back once.

use crate::error::EmuError;
use crate::program::QpeOp;
use qcemu_linalg::simd::scale_slice_real;
use qcemu_linalg::{
    eig, gemm, gemm_slices_with, powers_of_two, CMatrix, MulAlgorithm, C64, GEMM_PAR_THRESHOLD,
};
use qcemu_sim::circuits::qft::inverse_qft_circuit;
use qcemu_sim::{circuit_to_dense, scatter_index, Circuit, Gate, StateVector};
use rayon::prelude::*;

/// Which QPE execution strategy to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QpeStrategy {
    /// Full gate-level simulation (the baseline the paper compares
    /// against).
    GateLevel,
    /// Dense-U + repeated squaring emulation.
    RepeatedSquaring,
    /// Dense-U + eigendecomposition emulation.
    Eigendecomposition,
}

/// Applies a QPE op to `state` with the chosen strategy. The phase register
/// must be |0⟩ (validated); the target register may hold any state,
/// entangled with bystander qubits or not.
pub fn apply_qpe(
    state: &mut StateVector,
    op: &QpeOp,
    target_bits: &[usize],
    phase_bits: &[usize],
    strategy: QpeStrategy,
) -> Result<(), EmuError> {
    verify_phase_register_zero(state, phase_bits)?;
    let m = target_bits.len();
    match strategy {
        QpeStrategy::GateLevel => apply_gate_level(state, op, target_bits, phase_bits),
        QpeStrategy::RepeatedSquaring => {
            // (U^{2^j})ᵀ = (Uᵀ)^{2^j}: squaring the transpose yields every
            // power as the right-hand operand its doubling step needs.
            let u_t = dense_unitary(op, m)?.transpose();
            let powers = powers_of_two(&u_t, phase_bits.len(), MulAlgorithm::Gemm);
            fill_slices(state, target_bits, phase_bits, |s| s.double(&powers));
        }
        QpeStrategy::Eigendecomposition => {
            let u = dense_unitary(op, m)?;
            let decomposition = eig(&u).map_err(|e| EmuError::Eigensolver(e.to_string()))?;
            let v = decomposition
                .vectors
                .ok_or_else(|| EmuError::Eigensolver("no eigenvectors".into()))?;
            let phis: Vec<f64> = decomposition.values.iter().map(|l| turns(*l)).collect();
            fill_slices(state, target_bits, phase_bits, |s| s.expand(&v, &phis));
        }
    }
    Ok(())
}

fn verify_phase_register_zero(state: &StateVector, phase_bits: &[usize]) -> Result<(), EmuError> {
    const TOL: f64 = 1e-12;
    let pmask: usize = phase_bits.iter().fold(0, |m, &q| m | (1usize << q));
    for (i, amp) in state.amplitudes().iter().enumerate() {
        if amp.norm_sqr() > TOL && i & pmask != 0 {
            return Err(EmuError::TargetNotZero {
                op: "qpe".into(),
                register: "phase".into(),
            });
        }
    }
    Ok(())
}

/// Gate-level QPE (paper's simulation baseline).
fn apply_gate_level(
    state: &mut StateVector,
    op: &QpeOp,
    target_bits: &[usize],
    phase_bits: &[usize],
) {
    // Remap the unitary onto the target register's physical qubits.
    let remapped = op
        .unitary
        .remap_qubits(state.n_qubits(), |q| target_bits[q]);

    for &p in phase_bits {
        state.apply(&Gate::h(p));
    }
    // Controlled-U^{2^j}: 2^j sequential controlled applications.
    for (j, &p) in phase_bits.iter().enumerate() {
        let controlled = remapped.controlled_by(p);
        let reps = 1usize << j;
        for _ in 0..reps {
            state.apply_circuit(&controlled);
        }
    }
    let iqft =
        inverse_qft_circuit(phase_bits.len()).remap_qubits(state.n_qubits(), |q| phase_bits[q]);
    state.apply_circuit(&iqft);
}

/// Builds the dense matrix of the QPE unitary (over the target register's
/// *relative* qubits).
pub fn dense_unitary(op: &QpeOp, target_len: usize) -> Result<CMatrix, EmuError> {
    // Extend the circuit to the full register width (it may address fewer
    // qubits than the register has).
    let mut c = Circuit::new(target_len);
    c.extend(&op.unitary);
    let u = circuit_to_dense(&c);
    if !u.is_unitary(1e-8) {
        return Err(EmuError::BadUnitary {
            reason: "dense operator failed the unitarity check".into(),
        });
    }
    Ok(u)
}

/// The phase of `λ = e^{2πiφ}` as `φ ∈ [0, 1)` turns.
fn turns(lambda: C64) -> f64 {
    let phi = lambda.arg() / std::f64::consts::TAU;
    if phi < 0.0 {
        phi + 1.0
    } else {
        phi
    }
}

/// Runs `fill` on the phase-register slices of `state` (see the module
/// docs), then the inverse QFT on the phase register.
fn fill_slices(
    state: &mut StateVector,
    target_bits: &[usize],
    phase_bits: &[usize],
    fill: impl FnOnce(&mut Slices<'_>),
) {
    let n = state.n_qubits();
    let (m, b) = (target_bits.len(), phase_bits.len());
    let (dim, cosets) = (1usize << m, 1usize << (n - m - b));
    if target_bits.iter().chain(phase_bits).copied().eq(0..m + b) {
        fill(&mut Slices {
            rows: state.amplitudes_mut(),
            outer: cosets,
            inner: 1,
            b,
            dim,
        });
    } else {
        let other: Vec<usize> = (0..n)
            .filter(|q| !target_bits.contains(q) && !phase_bits.contains(q))
            .collect();
        let t_at: Vec<usize> = (0..dim).map(|t| scatter_index(t, target_bits)).collect();
        let c_at: Vec<usize> = (0..cosets).map(|c| scatter_index(c, &other)).collect();
        let amps = state.amplitudes_mut();
        let mut rows = vec![C64::ZERO; amps.len()];
        // Slice 0 is ψ; every other slice is zero until `fill` writes it.
        for (row, &c) in rows.chunks_exact_mut(dim).zip(&c_at) {
            for (z, &t) in row.iter_mut().zip(&t_at) {
                *z = amps[c | t];
            }
        }
        fill(&mut Slices {
            rows: &mut rows,
            outer: 1,
            inner: cosets,
            b,
            dim,
        });
        for (x, slice) in rows.chunks_exact(cosets * dim).enumerate() {
            let x_at = scatter_index(x, phase_bits);
            for (row, &c) in slice.chunks_exact(dim).zip(&c_at) {
                for (z, &t) in row.iter().zip(&t_at) {
                    amps[x_at | c | t] = *z;
                }
            }
        }
    }
    qcemu_fft::inverse_qft_subspace(state.amplitudes_mut(), n, phase_bits);
}

/// The phase-register slices of a state whose phase register is |0⟩, as
/// rows of `dim = 2^m` target amplitudes: `outer` slabs of `2^b` slices of
/// `inner` rows each. Row `(o, x, r)` — coset `o·inner + r` at phase value
/// `x` — starts at `((o·2^b + x)·inner + r)·dim`. On entry slice 0 holds
/// each coset's ψ and every other slice is zero.
struct Slices<'a> {
    rows: &'a mut [C64],
    outer: usize,
    inner: usize,
    b: usize,
    dim: usize,
}

/// Rows of the `D` panel [`Slices::expand`] builds per GEMM.
const PANEL_ROWS: usize = 256;

impl Slices<'_> {
    fn slab_len(&self) -> usize {
        (self.inner << self.b) * self.dim
    }

    /// `1/√2^b`, the Hadamards' amplitude on every phase value.
    fn norm(&self) -> f64 {
        (0.5f64).powf(self.b as f64 / 2.0)
    }

    /// Fills slice `x` with `U^x ψ/√2^b` by doubling, from
    /// `powers[j] = (U^{2^j})ᵀ`: slices `[2^j, 2^{j+1})` of a slab are its
    /// slices `[0, 2^j)` times `powers[j]`, one GEMM per bit.
    fn double(&mut self, powers: &[CMatrix]) {
        let (inner, dim, norm) = (self.inner, self.dim, self.norm());
        let sweep = |slab: &mut [C64], par_threshold: usize| {
            scale_slice_real(&mut slab[..inner * dim], norm);
            for (j, p) in powers.iter().enumerate() {
                let rows = inner << j;
                let (done, rest) = slab.split_at_mut(rows * dim);
                let shape = (rows, dim, dim);
                gemm_slices_with(
                    done,
                    p.as_slice(),
                    &mut rest[..rows * dim],
                    shape,
                    par_threshold,
                );
            }
        };
        let slab_len = self.slab_len();
        if self.outer == 1 {
            sweep(self.rows, GEMM_PAR_THRESHOLD);
        } else {
            self.rows
                .par_chunks_mut(slab_len)
                .for_each(|slab| sweep(slab, usize::MAX));
        }
    }

    /// Fills slice `x` with `Σ_k ⟨u_k|ψ⟩·e^{2πi x φ_k}·u_k/√2^b` — the same
    /// `U^x ψ/√2^b`, in the eigenbasis `V` of `U` with eigenphases `phis`
    /// (in turns) — as `D·Vᵀ`, one panel of `D` rows at a time.
    fn expand(&mut self, v: &CMatrix, phis: &[f64]) {
        let (inner, dim) = (self.inner, self.dim);
        let (pdim, slab_len) = (1usize << self.b, self.slab_len());
        // d[c] = ψ_cᵀ·conj(V) = V†ψ_c, the coordinates of every coset's ψ
        // (V is unitary because U is), with the Hadamards' norm folded in.
        let mut psi = CMatrix::zeros(self.outer * inner, dim);
        for (o, slab) in self.rows.chunks_exact(slab_len).enumerate() {
            psi.as_mut_slice()[o * inner * dim..][..inner * dim]
                .copy_from_slice(&slab[..inner * dim]);
        }
        let mut d = gemm(&psi, &v.conj());
        scale_slice_real(d.as_mut_slice(), self.norm());
        let vt = v.transpose();
        let cis = |phi: f64, x: usize| C64::cis(std::f64::consts::TAU * (phi * x as f64).fract());
        // e^{2πi x φ_k} = e^{2πi x0 φ_k}·e^{2πi dx φ_k} within a panel.
        let span = (PANEL_ROWS / inner).clamp(1, pdim);
        let steps: Vec<C64> = (0..span)
            .flat_map(|dx| phis.iter().map(move |&phi| cis(phi, dx)))
            .collect();
        let mut panel = vec![C64::ZERO; span * inner * dim];
        for (o, slab) in self.rows.chunks_exact_mut(slab_len).enumerate() {
            for (p, out) in slab.chunks_mut(span * inner * dim).enumerate() {
                let base: Vec<C64> = phis.iter().map(|&phi| cis(phi, p * span)).collect();
                let rows = out.len() / dim;
                for (y, row) in panel.chunks_exact_mut(dim).take(rows).enumerate() {
                    let (dx, r) = (y / inner, y % inner);
                    let coeffs = d.row(o * inner + r);
                    let step = &steps[dx * dim..][..dim];
                    for (k, z) in row.iter_mut().enumerate() {
                        *z = coeffs[k] * base[k] * step[k];
                    }
                }
                let shape = (rows, dim, dim);
                gemm_slices_with(
                    &panel[..rows * dim],
                    vt.as_slice(),
                    out,
                    shape,
                    GEMM_PAR_THRESHOLD,
                );
            }
        }
    }
}

/// The QPE amplitude kernel `A_x(φ) = 2^{-b} Σ_{y<2^b} e^{2πi y (φ − x/2^b)}`.
///
/// `φ` is the eigenphase as a fraction of a turn (`λ = e^{2πiφ}`).
pub fn qpe_kernel(phi: f64, x: usize, b: usize) -> C64 {
    let m = 1usize << b;
    let delta = phi - x as f64 / m as f64;
    // Geometric sum; near-resonant branch to avoid 0/0.
    let step = std::f64::consts::TAU * delta;
    let denom = C64::ONE - C64::cis(step);
    if denom.abs() < 1e-12 {
        // δ is (numerically) an integer: all terms are 1 (e^{2πi y k} = 1).
        return C64::from_real(1.0);
    }
    let numer = C64::ONE - C64::cis(step * m as f64);
    (numer / denom).scale(1.0 / m as f64)
}

/// Exact outcome distribution of a `b`-bit QPE on input `ψ` (over the
/// target register only): `P(x) = Σ_k |⟨u_k|ψ⟩|²·|A_x(φ_k)|²` — the §3.4
/// "no sampling needed" shortcut composed with §3.3.
pub fn qpe_outcome_distribution(
    unitary: &Circuit,
    input: &[C64],
    b: usize,
) -> Result<Vec<f64>, EmuError> {
    let m_bits = unitary.n_qubits().max(1);
    let dim = 1usize << m_bits;
    if input.len() != dim {
        return Err(EmuError::DimensionMismatch {
            expected: m_bits,
            got: input.len().trailing_zeros() as usize,
        });
    }
    let op = QpeOp {
        unitary: unitary.clone(),
        target: crate::program::RegisterId(0),
        phase: crate::program::RegisterId(1),
    };
    let u = dense_unitary(&op, m_bits)?;
    let decomposition = eig(&u).map_err(|e| EmuError::Eigensolver(e.to_string()))?;
    let v = decomposition.vectors.unwrap();
    let d = v.adjoint().matvec(input);
    let pdim = 1usize << b;
    let mut dist = vec![0.0f64; pdim];
    for (k, lambda) in decomposition.values.iter().enumerate() {
        let wk = d[k].norm_sqr();
        if wk < 1e-300 {
            continue;
        }
        let phi = turns(*lambda);
        for (x, slot) in dist.iter_mut().enumerate() {
            *slot += wk * qpe_kernel(phi, x, b).norm_sqr();
        }
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::RegisterId;
    use qcemu_linalg::simd::{scalar_lock, ForcedScalar};
    use qcemu_linalg::{max_abs_diff, normalize, random_state};
    use qcemu_sim::circuits::{tfim_trotter_step, TfimParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn phase_gate_circuit(theta: f64) -> Circuit {
        let mut c = Circuit::new(1);
        c.phase(0, theta);
        c
    }

    fn make_op(unitary: Circuit) -> QpeOp {
        QpeOp {
            unitary,
            target: RegisterId(0),
            phase: RegisterId(1),
        }
    }

    #[test]
    fn kernel_is_exact_for_representable_phases() {
        let b = 4;
        // φ = 5/16 is exactly representable: A_x = δ_{x,5}.
        for x in 0..16usize {
            let a = qpe_kernel(5.0 / 16.0, x, b);
            if x == 5 {
                assert!((a.abs() - 1.0).abs() < 1e-10, "A_5 = {a:?}");
            } else {
                assert!(a.abs() < 1e-10, "A_{x} = {a:?}");
            }
        }
    }

    #[test]
    fn kernel_distribution_sums_to_one() {
        let b = 5;
        for &phi in &[0.1234f64, 0.77, 0.5, 0.03125] {
            let total: f64 = (0..32).map(|x| qpe_kernel(phi, x, b).norm_sqr()).sum();
            assert!((total - 1.0).abs() < 1e-10, "φ = {phi}: total {total}");
        }
    }

    #[test]
    fn all_three_strategies_agree_on_eigenstate_input() {
        // Phase gate: |1⟩ has eigenphase θ. Target = qubit 0 (|1⟩),
        // phase register = 3 qubits.
        let theta = 2.0 * std::f64::consts::PI * (3.0 / 8.0); // exactly representable
        let op = make_op(phase_gate_circuit(theta));
        let target_bits = [0usize];
        let phase_bits = [1usize, 2, 3];

        let mut results = Vec::new();
        for strategy in [
            QpeStrategy::GateLevel,
            QpeStrategy::RepeatedSquaring,
            QpeStrategy::Eigendecomposition,
        ] {
            let mut sv = StateVector::basis_state(4, 0b0001); // target |1⟩
            apply_qpe(&mut sv, &op, &target_bits, &phase_bits, strategy).unwrap();
            results.push(sv);
        }
        // Exact phase ⇒ the phase register reads 3 with certainty.
        for (i, sv) in results.iter().enumerate() {
            let dist = sv.register_distribution(&phase_bits);
            assert!((dist[3] - 1.0).abs() < 1e-8, "strategy {i}: dist {dist:?}");
        }
        // And the full states agree.
        assert!(results[0].max_diff_up_to_phase(&results[1]) < 1e-8);
        assert!(results[0].max_diff_up_to_phase(&results[2]) < 1e-7);
    }

    #[test]
    fn strategies_agree_on_superposed_eigenstates() {
        // H|0⟩ input on a phase gate: mixture of φ = 0 and φ = θ/2π.
        let theta = 2.0 * std::f64::consts::PI * 0.3; // NOT representable in 3 bits
        let op = make_op(phase_gate_circuit(theta));
        let target_bits = [0usize];
        let phase_bits = [1usize, 2, 3];

        let mut states = Vec::new();
        for strategy in [
            QpeStrategy::GateLevel,
            QpeStrategy::RepeatedSquaring,
            QpeStrategy::Eigendecomposition,
        ] {
            let mut sv = StateVector::zero_state(4);
            sv.apply(&Gate::h(0));
            apply_qpe(&mut sv, &op, &target_bits, &phase_bits, strategy).unwrap();
            states.push(sv);
        }
        assert!(
            states[0].max_diff_up_to_phase(&states[1]) < 1e-8,
            "gate vs squaring: {}",
            states[0].max_diff_up_to_phase(&states[1])
        );
        assert!(
            states[0].max_diff_up_to_phase(&states[2]) < 1e-7,
            "gate vs eigen: {}",
            states[0].max_diff_up_to_phase(&states[2])
        );
    }

    #[test]
    fn strategies_agree_on_tfim_operator() {
        // The Table 2 workload at toy size: 2-site TFIM step, 3-bit phase.
        let u = tfim_trotter_step(2, TfimParams::default());
        let op = QpeOp {
            unitary: u,
            target: RegisterId(0),
            phase: RegisterId(1),
        };
        let target_bits = [0usize, 1];
        let phase_bits = [2usize, 3, 4];

        let mut states = Vec::new();
        for strategy in [
            QpeStrategy::GateLevel,
            QpeStrategy::RepeatedSquaring,
            QpeStrategy::Eigendecomposition,
        ] {
            let mut sv = StateVector::zero_state(5);
            sv.apply(&Gate::h(0));
            sv.apply(&Gate::cnot(0, 1));
            apply_qpe(&mut sv, &op, &target_bits, &phase_bits, strategy).unwrap();
            states.push(sv);
        }
        assert!(states[0].max_diff_up_to_phase(&states[1]) < 1e-7);
        assert!(states[0].max_diff_up_to_phase(&states[2]) < 1e-6);
    }

    #[test]
    fn distribution_matches_full_emulation() {
        let theta = 2.0 * std::f64::consts::PI * 0.23;
        let circuit = phase_gate_circuit(theta);
        let b = 4;
        // Input |1⟩ on the target qubit.
        let input = [C64::ZERO, C64::ONE];
        let dist = qpe_outcome_distribution(&circuit, &input, b).unwrap();
        assert_eq!(dist.len(), 16);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-9);

        // Compare against the state produced by gate-level QPE.
        let op = make_op(circuit);
        let mut sv = StateVector::basis_state(5, 1);
        apply_qpe(&mut sv, &op, &[0], &[1, 2, 3, 4], QpeStrategy::GateLevel).unwrap();
        let ref_dist = sv.register_distribution(&[1, 2, 3, 4]);
        for x in 0..16 {
            assert!(
                (dist[x] - ref_dist[x]).abs() < 1e-8,
                "x = {x}: {} vs {}",
                dist[x],
                ref_dist[x]
            );
        }
        // The mode is the best 4-bit approximation of 0.23: round(0.23·16) = 4.
        let mode = dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(mode, 4);
    }

    #[test]
    fn phase_register_must_be_zero() {
        let op = make_op(phase_gate_circuit(0.3));
        for strategy in STRATEGIES {
            let mut sv = StateVector::basis_state(3, 0b010); // phase bit set
            let err = apply_qpe(&mut sv, &op, &[0], &[1, 2], strategy).unwrap_err();
            assert!(
                matches!(err, EmuError::TargetNotZero { .. }),
                "{strategy:?}"
            );
        }
    }

    const STRATEGIES: [QpeStrategy; 3] = [
        QpeStrategy::GateLevel,
        QpeStrategy::RepeatedSquaring,
        QpeStrategy::Eigendecomposition,
    ];

    /// A generic `m`-qubit unitary: no degenerate or representable
    /// eigenphases, so no strategy is right by accident.
    fn generic_unitary(m: usize) -> Circuit {
        let mut c = Circuit::new(m);
        for q in 0..m {
            c.h(q).rz(q, 0.37 + 0.21 * q as f64);
        }
        for q in 1..m {
            c.cnot(q - 1, q).cphase(q - 1, q, 0.93);
        }
        for q in 0..m {
            c.ry(q, 0.61 - 0.17 * q as f64);
        }
        c
    }

    /// A random `n`-qubit state with the `phase` register |0⟩: target and
    /// bystanders in superposition and entangled.
    fn input_state(n: usize, phase: &[usize], seed: u64) -> StateVector {
        let pmask = phase.iter().fold(0, |mask, &q| mask | 1usize << q);
        let mut amps = random_state(1 << n, &mut StdRng::seed_from_u64(seed));
        for (i, z) in amps.iter_mut().enumerate() {
            if i & pmask != 0 {
                *z = C64::ZERO;
            }
        }
        normalize(&mut amps);
        StateVector::from_amplitudes(amps)
    }

    /// Register layouts `(name, n, target bits, phase bits)`: the two in
    /// place (with and without bystanders above) and three gathered ones.
    fn layouts(m: usize, b: usize) -> Vec<(&'static str, usize, Vec<usize>, Vec<usize>)> {
        let bits = |lo: usize, len: usize| (lo..lo + len).collect::<Vec<_>>();
        let n = m + b + 1;
        vec![
            ("phase above target", m + b, bits(0, m), bits(m, b)),
            ("bystanders above", m + b + 2, bits(0, m), bits(m, b)),
            ("phase below target", m + b, bits(b, m), bits(0, b)),
            (
                "bystanders between and around",
                m + b + 3,
                bits(1, m),
                bits(m + 2, b),
            ),
            (
                "descending bits",
                n,
                (n - m..n).rev().collect(),
                (0..b).rev().collect(),
            ),
        ]
    }

    /// Runs `f` with the scalar path forced, or on the native path while
    /// holding the switch's lock so no other test flips it meanwhile.
    fn in_mode<T>(scalar: bool, f: impl FnOnce() -> T) -> T {
        let _native = (!scalar).then(scalar_lock);
        let _forced = scalar.then(ForcedScalar::engage);
        f()
    }

    /// Both dense strategies against gate level on `input`, for every pool
    /// and SIMD mode; `case` names the configuration in a failure.
    fn check_dense_strategies(
        op: &QpeOp,
        input: &StateVector,
        target: &[usize],
        phase: &[usize],
        pools: &[rayon::ThreadPool],
        case: &str,
    ) {
        let mut reference = input.clone();
        apply_qpe(&mut reference, op, target, phase, QpeStrategy::GateLevel).unwrap();
        for strategy in &STRATEGIES[1..] {
            for pool in pools {
                for scalar in [false, true] {
                    let mut state = input.clone();
                    in_mode(scalar, || {
                        pool.install(|| apply_qpe(&mut state, op, target, phase, *strategy))
                    })
                    .unwrap();
                    let err = max_abs_diff(state.amplitudes(), reference.amplitudes());
                    assert!(
                        err <= 1e-10,
                        "{strategy:?}, {case}, threads = {}, scalar = {scalar}: \
                         off gate level by {err:.2e}",
                        pool.current_num_threads()
                    );
                }
            }
        }
    }

    fn pools(threads: &[usize]) -> Vec<rayon::ThreadPool> {
        threads
            .iter()
            .map(|&t| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn dense_strategies_match_gate_level_on_every_layout() {
        let pools = pools(&[1, 2]);
        for m in 1..=3 {
            let op = make_op(generic_unitary(m));
            for b in [1, 2, 5] {
                for (layout, n, target, phase) in layouts(m, b) {
                    let input = input_state(n, &phase, (10 * m + b) as u64);
                    let case = format!("{layout}, m = {m}, b = {b}");
                    check_dense_strategies(&op, &input, &target, &phase, &pools, &case);
                }
            }
        }
    }

    #[test]
    fn dense_strategies_match_gate_level_either_side_of_par_threshold() {
        // 2^14 and 2^16 amplitudes sit on either side of the kernels'
        // PAR_THRESHOLD (2^15): serial and parallel GEMM row panels,
        // gathers and FFT passes must all match gate level.
        let (m, b) = (2, 5);
        let op = make_op(generic_unitary(m));
        let pools = pools(&[2]);
        for n in [14, 16] {
            let in_place = (
                n,
                (0..m).collect::<Vec<_>>(),
                (m..m + b).collect::<Vec<_>>(),
            );
            let gathered = (n, (b..b + m).collect(), (0..b).collect());
            for (n, target, phase) in [in_place, gathered] {
                let input = input_state(n, &phase, n as u64);
                let case = format!("n = {n}, target {target:?}, phase {phase:?}");
                check_dense_strategies(&op, &input, &target, &phase, &pools, &case);
            }
        }
    }

    #[test]
    fn bystander_qubits_survive_qpe() {
        // A bystander qubit in superposition must be untouched and stay
        // unentangled when the target is an eigenstate.
        let theta = 2.0 * std::f64::consts::PI * (1.0 / 4.0);
        let op = make_op(phase_gate_circuit(theta));
        for strategy in [
            QpeStrategy::RepeatedSquaring,
            QpeStrategy::Eigendecomposition,
        ] {
            let mut sv = StateVector::zero_state(4); // q0 target, q1 phase(2)… q3 bystander
            sv.apply(&Gate::x(0));
            sv.apply(&Gate::h(3));
            apply_qpe(&mut sv, &op, &[0], &[1, 2], strategy).unwrap();
            // φ = 1/4 → 2-bit estimate = 1 exactly.
            let dist = sv.register_distribution(&[1, 2]);
            assert!((dist[1] - 1.0).abs() < 1e-8, "{strategy:?}: {dist:?}");
            let bystander = sv.register_distribution(&[3]);
            assert!((bystander[0] - 0.5).abs() < 1e-8, "{strategy:?}");
            assert!((bystander[1] - 0.5).abs() < 1e-8, "{strategy:?}");
        }
    }
}
