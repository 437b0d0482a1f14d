//! Measurement: sampling, collapse, and the full-distribution access that
//! gives emulators their §3.4 advantage.
//!
//! A physical quantum computer measuring `n` qubits gets `n` classical bits
//! per run and must repeat the circuit to estimate statistics. A simulator
//! holds all 2ⁿ amplitudes, so an emulator exposes the *exact* distribution
//! and expectation values in a single pass — this module provides both the
//! honest shot-sampling interface and the exact one.

use crate::batch::BatchStateVector;
use crate::statevector::StateVector;
use qcemu_linalg::C64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples a basis state index from `|α_i|² / ‖ψ‖²` **without** collapsing.
///
/// The draw is scaled by the summed `norm_sqr`, so a slightly (or grossly)
/// unnormalized state still samples from the exact relative distribution —
/// previously `r ∈ [0, 1)` was compared against an unscaled running sum,
/// biasing samples toward the `amps.len() - 1` fallback whenever
/// `‖ψ‖² < 1`. On any state with at least one non-zero amplitude, a
/// zero-amplitude basis state is never returned: the strict `r < acc`
/// test cannot fire on an entry that adds nothing to `acc`, and the
/// numerical-slack fallback lands on the last *non-zero* entry. (A null
/// state — all amplitudes zero — is not a quantum state; both samplers
/// then fall back to `amps.len() − 1`.)
pub fn sample_once(sv: &StateVector, rng: &mut impl Rng) -> usize {
    let amps = sv.amplitudes();
    let total: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
    let r: f64 = rng.gen::<f64>() * total;
    let mut acc = 0.0;
    let mut last_nonzero = amps.len() - 1;
    for (i, a) in amps.iter().enumerate() {
        let p = a.norm_sqr();
        if p > 0.0 {
            last_nonzero = i;
        }
        acc += p;
        if r < acc {
            return i;
        }
    }
    last_nonzero // numerical slack: r ≈ ‖ψ‖²
}

/// Draws `shots` independent samples (the quantum computer's workflow).
/// Uses a cumulative table + binary search: O(2ⁿ + shots·n).
///
/// The lookup uses "first index with `cdf > r`" (partition-point)
/// semantics: duplicate CDF entries — the plateau a zero-probability basis
/// state produces — can never be selected, even on an exact hit `r ==
/// cdf[i]`, where a plain `binary_search` may return an arbitrary index
/// inside the plateau. The null-state caveat of [`sample_once`] applies.
pub fn sample_shots(sv: &StateVector, shots: usize, rng: &mut impl Rng) -> Vec<usize> {
    sample_lane(sv.amplitudes(), 1, 0, shots, rng)
}

/// [`sample_shots`] over member `j` of a batch, read in place from its
/// lane of the batch-major buffer: bit-identical to
/// `sample_shots(&batch.member(j), shots, rng)`, without the copy.
///
/// # Panics
///
/// Panics if `j` is out of range.
pub fn sample_member_shots(
    batch: &BatchStateVector,
    j: usize,
    shots: usize,
    rng: &mut impl Rng,
) -> Vec<usize> {
    assert!(j < batch.batch(), "member index out of range");
    sample_lane(batch.amplitudes(), batch.batch(), j, shots, rng)
}

/// The sampler over the strided lane `amps[lane], amps[lane + stride], …`.
fn sample_lane(
    amps: &[C64],
    stride: usize,
    lane: usize,
    shots: usize,
    rng: &mut impl Rng,
) -> Vec<usize> {
    let dim = amps.len() / stride;
    let mut cdf = Vec::with_capacity(dim);
    let mut acc = 0.0;
    let mut last_nonzero = dim - 1;
    for (i, a) in amps[lane..].iter().step_by(stride).enumerate() {
        let p = a.norm_sqr();
        if p > 0.0 {
            last_nonzero = i;
        }
        acc += p;
        cdf.push(acc);
    }
    let total = acc;
    (0..shots)
        .map(|_| {
            let r: f64 = rng.gen::<f64>() * total;
            cdf.partition_point(|&p| p <= r).min(last_nonzero)
        })
        .collect()
}

/// Histogram of `shots` samples over the full basis.
pub fn sample_histogram(sv: &StateVector, shots: usize, rng: &mut impl Rng) -> Vec<usize> {
    histogram(sv.dim(), sample_shots(sv, shots, rng))
}

fn histogram(dim: usize, shots: Vec<usize>) -> Vec<usize> {
    let mut hist = vec![0usize; dim];
    for s in shots {
        hist[s] += 1;
    }
    hist
}

/// Draws `shots` samples from **every** member of a batch, each member
/// with its own deterministic RNG stream seeded `base_seed + j`.
///
/// Each member is read in place from its lane, so the result for member
/// `j` is bit-identical to
/// `sample_shots(&batch.member(j), shots, &mut StdRng::seed_from_u64(base_seed + j))`
/// — ensembles sample reproducibly and independently of how (batched or
/// sequentially) the states were produced.
pub fn sample_shots_batch(
    batch: &BatchStateVector,
    shots: usize,
    base_seed: u64,
) -> Vec<Vec<usize>> {
    (0..batch.batch())
        .map(|j| {
            let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(j as u64));
            sample_member_shots(batch, j, shots, &mut rng)
        })
        .collect()
}

/// Per-member histograms of `shots` samples over the full basis, with the
/// per-member seeding scheme of [`sample_shots_batch`].
pub fn sample_histogram_batch(
    batch: &BatchStateVector,
    shots: usize,
    base_seed: u64,
) -> Vec<Vec<usize>> {
    (0..batch.batch())
        .map(|j| {
            let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(j as u64));
            histogram(batch.dim(), sample_member_shots(batch, j, shots, &mut rng))
        })
        .collect()
}

/// Projective measurement of **all** qubits: samples an outcome and
/// collapses the state onto it.
pub fn measure_all(sv: &mut StateVector, rng: &mut impl Rng) -> usize {
    let outcome = sample_once(sv, rng);
    let amps = sv.amplitudes_mut();
    for (i, a) in amps.iter_mut().enumerate() {
        *a = if i == outcome {
            qcemu_linalg::C64::ONE
        } else {
            qcemu_linalg::C64::ZERO
        };
    }
    outcome
}

/// Probability that qubit `q` reads 1.
pub fn prob_qubit_one(sv: &StateVector, q: usize) -> f64 {
    assert!(q < sv.n_qubits(), "qubit out of range");
    let bit = 1usize << q;
    sv.amplitudes()
        .iter()
        .enumerate()
        .filter(|(i, _)| i & bit != 0)
        .map(|(_, a)| a.norm_sqr())
        .sum()
}

/// Projective measurement of one qubit: samples 0/1, collapses, renormalises.
///
/// Like [`sample_once`], the draw is scaled by the total `‖ψ‖²`, so the
/// outcome odds are exact on unnormalized states (and the collapsed state
/// comes out normalised either way).
pub fn measure_qubit(sv: &mut StateVector, q: usize, rng: &mut impl Rng) -> bool {
    let p1 = prob_qubit_one(sv, q);
    let total: f64 = sv.amplitudes().iter().map(|a| a.norm_sqr()).sum();
    let outcome = rng.gen::<f64>() * total < p1;
    let keep_bit = if outcome { 1usize } else { 0usize };
    let bit = 1usize << q;
    let renorm = 1.0 / if outcome { p1 } else { total - p1 }.sqrt();
    for (i, a) in sv.amplitudes_mut().iter_mut().enumerate() {
        if ((i & bit != 0) as usize) == keep_bit {
            *a = a.scale(renorm);
        } else {
            *a = qcemu_linalg::C64::ZERO;
        }
    }
    outcome
}

/// Exact expectation value `⟨Z_q⟩ = P(0) − P(1)` — the §3.4 shortcut: one
/// pass over the amplitudes instead of many shots.
pub fn expectation_z(sv: &StateVector, q: usize) -> f64 {
    1.0 - 2.0 * prob_qubit_one(sv, q)
}

/// Exact expectation of a tensor product of Pauli-Zs:
/// `⟨Z_{q1} Z_{q2} …⟩ = Σ_i (−1)^{popcount(i & mask)} |α_i|²`.
pub fn expectation_z_string(sv: &StateVector, qubits: &[usize]) -> f64 {
    let mask = qubits.iter().fold(0usize, |m, &q| {
        assert!(q < sv.n_qubits(), "qubit out of range");
        m | (1usize << q)
    });
    sv.amplitudes()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let sign = if (i & mask).count_ones() % 2 == 0 {
                1.0
            } else {
                -1.0
            };
            sign * a.norm_sqr()
        })
        .sum()
}

/// Estimates `⟨Z_q⟩` from `shots` samples — the cost an actual quantum
/// computer (or a shot-faithful simulator) pays. Provided so benchmarks can
/// quantify the §3.4 speedup (= number of shots).
pub fn expectation_z_sampled(sv: &StateVector, q: usize, shots: usize, rng: &mut impl Rng) -> f64 {
    let bit = 1usize << q;
    let ones = sample_shots(sv, shots, rng)
        .into_iter()
        .filter(|i| i & bit != 0)
        .count();
    1.0 - 2.0 * ones as f64 / shots as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_basis_state_is_deterministic() {
        let sv = StateVector::basis_state(4, 11);
        let mut rng = StdRng::seed_from_u64(90);
        for _ in 0..20 {
            assert_eq!(sample_once(&sv, &mut rng), 11);
        }
        assert!(sample_shots(&sv, 50, &mut rng).iter().all(|&s| s == 11));
    }

    #[test]
    fn uniform_sampling_covers_basis() {
        let sv = StateVector::uniform_superposition(3);
        let mut rng = StdRng::seed_from_u64(91);
        let hist = sample_histogram(&sv, 8000, &mut rng);
        for (i, &count) in hist.iter().enumerate() {
            let freq = count as f64 / 8000.0;
            assert!(
                (freq - 0.125).abs() < 0.03,
                "index {i} frequency {freq} too far from 1/8"
            );
        }
    }

    #[test]
    fn samplers_are_exact_on_unnormalized_states() {
        use qcemu_linalg::{c64, C64};
        // 0.5·(0.6|01⟩ + 0.8|11⟩): ‖ψ‖² = 0.25, exact relative distribution
        // P(1) = 0.36, P(3) = 0.64. Before the total-norm fix, sample_once
        // drew r ∈ [0, 1) against the unscaled running sum and fell through
        // to the `amps.len() - 1` fallback ~75% of the time.
        let sv =
            StateVector::from_amplitudes(vec![C64::ZERO, c64(0.3, 0.0), C64::ZERO, c64(0.0, 0.4)]);
        let shots = 20_000;
        let mut rng = StdRng::seed_from_u64(96);
        let mut hist_once = [0usize; 4];
        for _ in 0..shots {
            hist_once[sample_once(&sv, &mut rng)] += 1;
        }
        let mut hist_shots = [0usize; 4];
        for s in sample_shots(&sv, shots, &mut rng) {
            hist_shots[s] += 1;
        }
        for hist in [hist_once, hist_shots] {
            assert_eq!(hist[0], 0, "zero-amplitude state sampled");
            assert_eq!(hist[2], 0, "zero-amplitude state sampled");
            let f1 = hist[1] as f64 / shots as f64;
            let f3 = hist[3] as f64 / shots as f64;
            assert!((f1 - 0.36).abs() < 0.02, "P(1) ≈ 0.36, got {f1}");
            assert!((f3 - 0.64).abs() < 0.02, "P(3) ≈ 0.64, got {f3}");
        }
    }

    #[test]
    fn zero_probability_plateaus_are_never_sampled() {
        use qcemu_linalg::{c64, C64};
        // Long zero plateaus around sparse support, on an unnormalized
        // state: every sample must land on the support, never inside a
        // duplicate-CDF plateau (the exact-hit failure mode of plain
        // binary_search) and never on the trailing zeros via the fallback.
        let mut amps = vec![C64::ZERO; 32];
        amps[5] = c64(1.5, 0.0);
        amps[17] = c64(0.0, -2.0);
        let sv = StateVector::from_amplitudes(amps);
        let mut rng = StdRng::seed_from_u64(97);
        for s in sample_shots(&sv, 5_000, &mut rng) {
            assert!(s == 5 || s == 17, "sampled zero-probability state {s}");
        }
        for _ in 0..2_000 {
            let s = sample_once(&sv, &mut rng);
            assert!(s == 5 || s == 17, "sampled zero-probability state {s}");
        }
    }

    #[test]
    fn measure_all_inherits_total_norm_scaling() {
        use qcemu_linalg::{c64, C64};
        // measure_all samples via sample_once: on an unnormalized state it
        // must still collapse onto support states with the right odds.
        let mut rng = StdRng::seed_from_u64(98);
        let mut ones = 0usize;
        let trials = 4_000;
        for _ in 0..trials {
            let mut sv = StateVector::from_amplitudes(vec![
                c64(0.2, 0.0),
                c64(0.0, 0.1),
                C64::ZERO,
                C64::ZERO,
            ]);
            let outcome = measure_all(&mut sv, &mut rng);
            assert!(outcome < 2, "collapsed onto zero-probability state");
            ones += outcome;
        }
        // P(1) = 0.01/0.05 = 0.2.
        let f = ones as f64 / trials as f64;
        assert!((f - 0.2).abs() < 0.03, "P(1) ≈ 0.2, got {f}");
    }

    #[test]
    fn measure_qubit_is_exact_on_unnormalized_states() {
        use qcemu_linalg::c64;
        // 0.5·(0.6|0⟩ + 0.8|1⟩): P(1) must be 0.64, not the unscaled 0.16.
        let mut rng = StdRng::seed_from_u64(99);
        let trials = 4_000;
        let mut ones = 0usize;
        for _ in 0..trials {
            let mut sv = StateVector::from_amplitudes(vec![c64(0.3, 0.0), c64(0.0, 0.4)]);
            if measure_qubit(&mut sv, 0, &mut rng) {
                ones += 1;
            }
            assert!((sv.norm() - 1.0).abs() < 1e-12, "collapse must renormalise");
        }
        let f = ones as f64 / trials as f64;
        assert!((f - 0.64).abs() < 0.03, "P(1) ≈ 0.64, got {f}");
    }

    #[test]
    fn measure_all_collapses() {
        let mut sv = StateVector::uniform_superposition(4);
        let mut rng = StdRng::seed_from_u64(92);
        let outcome = measure_all(&mut sv, &mut rng);
        assert_eq!(sv.probability(outcome), 1.0);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_qubit_collapses_consistently() {
        let mut rng = StdRng::seed_from_u64(93);
        for _ in 0..10 {
            let mut sv = StateVector::zero_state(2);
            let mut c = Circuit::new(2);
            c.h(0).cnot(0, 1); // Bell pair: qubits correlated
            sv.apply_circuit(&c);
            let b0 = measure_qubit(&mut sv, 0, &mut rng);
            let b1 = measure_qubit(&mut sv, 1, &mut rng);
            assert_eq!(b0, b1, "Bell pair must give correlated outcomes");
            assert!((sv.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn prob_qubit_one_on_plus_state() {
        let mut sv = StateVector::zero_state(1);
        sv.apply(&crate::gate::Gate::h(0));
        assert!((prob_qubit_one(&sv, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expectation_z_exact_values() {
        let sv = StateVector::zero_state(2);
        assert!((expectation_z(&sv, 0) - 1.0).abs() < 1e-12);
        let sv1 = StateVector::basis_state(2, 0b01);
        assert!((expectation_z(&sv1, 0) + 1.0).abs() < 1e-12);
        assert!((expectation_z(&sv1, 1) - 1.0).abs() < 1e-12);
        let plus = StateVector::uniform_superposition(1);
        assert!(expectation_z(&plus, 0).abs() < 1e-12);
    }

    #[test]
    fn zz_string_on_bell_state_is_one() {
        let mut sv = StateVector::zero_state(2);
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        sv.apply_circuit(&c);
        // Bell state: perfectly correlated Zs.
        assert!((expectation_z_string(&sv, &[0, 1]) - 1.0).abs() < 1e-12);
        // Single-qubit expectations vanish.
        assert!(expectation_z(&sv, 0).abs() < 1e-12);
        assert!(expectation_z(&sv, 1).abs() < 1e-12);
    }

    #[test]
    fn empty_z_string_is_identity_expectation() {
        let sv = StateVector::uniform_superposition(3);
        assert!((expectation_z_string(&sv, &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_expectation_converges_to_exact() {
        let mut sv = StateVector::zero_state(3);
        sv.apply(&crate::gate::Gate::ry(1, 1.1));
        let exact = expectation_z(&sv, 1);
        let mut rng = StdRng::seed_from_u64(94);
        let approx = expectation_z_sampled(&sv, 1, 20_000, &mut rng);
        assert!(
            (exact - approx).abs() < 0.03,
            "sampled {approx} vs exact {exact}"
        );
    }

    #[test]
    fn register_distribution_matches_sampling() {
        let mut sv = StateVector::zero_state(3);
        sv.apply(&crate::gate::Gate::h(0));
        sv.apply(&crate::gate::Gate::h(2));
        let dist = sv.register_distribution(&[0, 2]);
        let mut rng = StdRng::seed_from_u64(95);
        let samples = sample_shots(&sv, 10_000, &mut rng);
        let mut hist = vec![0usize; 4];
        for s in samples {
            hist[StateVector::register_value(s, &[0, 2])] += 1;
        }
        for v in 0..4 {
            let freq = hist[v] as f64 / 10_000.0;
            assert!((freq - dist[v]).abs() < 0.03, "v = {v}");
        }
    }
}
