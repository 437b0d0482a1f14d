//! MPS equivalence harness: the bond-truncated compressed backend must
//! be *invisible* at ample bond dimension. For random circuits over the
//! full gate zoo — including non-adjacent two-qubit gates (SWAP-routed
//! internally) and controlled gates — `MpsState` run from the zero state
//! densifies to the per-gate reference within 1e-10 at n ≤ 12, with a
//! truncation-error accumulator that reads exactly 0.0. Shrinking the
//! bond cap below the circuit's entanglement makes that accumulator
//! grow monotonically; seeded shot sampling off the tensors is
//! bit-identical to the dense CDF scan over the densified state; and
//! the `SimConfig`/planner route (`MpsPolicy::Forced`) reproduces the
//! same states end-to-end.

use proptest::prelude::*;
use qcemu::prelude::*;
use qcemu_sim::{qft_circuit, sample_shots, DEFAULT_MAX_BOND};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod common;
use common::{max_diff, random_circuit};

/// Asserts compressed ≡ per-gate on `circuit` at a bond cap ample for
/// its width (χ ≤ 2^⌊n/2⌋ always suffices), via the direct `MpsState`
/// API, the `from_statevector` round-trip, and the `SimConfig` route.
fn assert_mps_equivalence(circuit: &Circuit) {
    let n = circuit.n_qubits();
    let ample = 1 << n.div_ceil(2);

    let mut reference = StateVector::zero_state(n);
    reference.run(circuit, &SimConfig::unfused());

    let mut mps = MpsState::zero_state(n, ample);
    mps.run(circuit);
    assert_eq!(
        mps.truncation_error(),
        0.0,
        "ample bond cap must never force a truncation"
    );
    let diff = max_diff(&mps.to_statevector(), &reference);
    assert!(diff <= 1e-10, "compressed run deviates by {diff:.3e}");

    // Decompose the final (generally entangled) state and come back.
    let round = MpsState::from_statevector(&reference, ample).to_statevector();
    let rdiff = max_diff(&round, &reference);
    assert!(rdiff <= 1e-10, "densify round-trip deviates by {rdiff:.3e}");

    // The forced-policy route through the dense simulator front-end
    // (audited compressed attempt, dense fallback) must agree too.
    let mut sv = StateVector::zero_state(n);
    sv.run(
        circuit,
        &SimConfig::unfused().with_mps(MpsPolicy::Forced { max_bond: ample }),
    );
    let cdiff = max_diff(&sv, &reference);
    assert!(
        cdiff <= 1e-10,
        "SimConfig MPS route deviates by {cdiff:.3e}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mps_matches_dense_on_gate_zoo(circuit in random_circuit(8, 48)) {
        assert_mps_equivalence(&circuit);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn mps_matches_dense_at_twelve_qubits(circuit in random_circuit(12, 32)) {
        assert_mps_equivalence(&circuit);
    }
}

/// Brickwork ladder whose true χ saturates 2^⌊n/2⌋: every bond cap
/// below that must truncate, and harder caps must truncate more.
fn entangling_ladder(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for layer in 0..n {
        for q in 0..n - 1 {
            c.cphase(q, q + 1, 0.3 + 0.07 * layer as f64);
            c.ry(q, 0.4 + 0.15 * (q + layer) as f64);
        }
    }
    c
}

#[test]
fn truncation_error_grows_monotonically_as_bond_shrinks() {
    let n = 8;
    let circuit = entangling_ladder(n);
    let errs: Vec<f64> = [16usize, 8, 4, 2, 1]
        .iter()
        .map(|&chi| {
            let mut mps = MpsState::zero_state(n, chi);
            mps.run(&circuit);
            mps.truncation_error()
        })
        .collect();
    assert_eq!(
        errs[0], 0.0,
        "χ = 2^{{n/2}} holds any 8-qubit state exactly"
    );
    assert!(
        errs[4] > 0.0,
        "χ = 1 (product state) must truncate a ladder"
    );
    for w in errs.windows(2) {
        assert!(
            w[1] >= w[0],
            "halving the bond cap reduced the truncation error: {errs:?}"
        );
    }
}

#[test]
fn seeded_sampling_is_bit_identical_to_densified_reference() {
    for (label, circuit) in [("qft", qft_circuit(9)), ("ladder", entangling_ladder(9))] {
        let mut mps = MpsState::zero_state(9, DEFAULT_MAX_BOND);
        mps.run(&circuit);
        let dense = mps.to_statevector();
        let compressed = mps.sample_shots(500, &mut StdRng::seed_from_u64(0xfeed));
        let reference = sample_shots(&dense, 500, &mut StdRng::seed_from_u64(0xfeed));
        assert_eq!(compressed, reference, "{label}: sampling paths diverged");
    }
}
