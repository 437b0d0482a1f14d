//! The dense↔MPS boundary: `MpsState::from_statevector` then
//! `MpsState::write_into` must give back the input state, on every pool
//! size and bit-identically across them (the import's partial Grams are
//! summed in a fixed chunk order, the densify's GEMM in a fixed reduction
//! order), on the scalar and the SIMD kernels alike. Every failure names
//! its (state, n, pool, backend) tuple.

use qcemu_linalg::{max_abs_diff, random_state, simd, C64};
use qcemu_sim::{entangle_circuit, Circuit, MpsState, SimConfig, StateVector, DEFAULT_MAX_BOND};
use rand::rngs::StdRng;
use rand::SeedableRng;

const POOLS: [usize; 3] = [1, 2, 3];

fn prepared(circuit: &Circuit) -> StateVector {
    let mut sv = StateVector::zero_state(circuit.n_qubits());
    sv.run(circuit, &SimConfig::fused(4));
    sv
}

/// One distinct rotation per qubit: a product state with no zero amplitude.
fn product(n: usize) -> StateVector {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.ry(q, 0.3 + 0.17 * q as f64).rz(q, 0.1 * q as f64);
    }
    prepared(&c)
}

/// `2·depth` brickwork layers of rotations and nearest-neighbour
/// controlled phases: every cut is crossed `depth` times by a gate of
/// operator Schmidt rank 2, so the bond is at most 2^depth.
fn brickwork(n: usize, depth: usize) -> StateVector {
    let mut c = Circuit::new(n);
    for layer in 0..2 * depth {
        for q in 0..n {
            c.ry(q, 0.4 + 0.07 * ((q + layer) % 5) as f64);
        }
        for q in (layer % 2..n - 1).step_by(2) {
            c.cphase(q, q + 1, 0.9 + 0.1 * layer as f64);
        }
    }
    prepared(&c)
}

fn cases() -> Vec<(String, StateVector)> {
    let mut cases = Vec::new();
    for n in [1, 2, 3, 13, 17] {
        cases.push((format!("product n={n}"), product(n)));
    }
    for n in [2, 13] {
        cases.push((format!("ghz n={n}"), prepared(&entangle_circuit(n))));
    }
    let mut rng = StdRng::seed_from_u64(0xb0d);
    for n in [1, 4, 7, 10, 12] {
        let sv = StateVector::from_amplitudes(random_state(1 << n, &mut rng));
        cases.push((format!("random n={n}"), sv));
    }
    for depth in 1..=3 {
        cases.push((
            format!("brickwork bond≤{} n=16", 1 << depth),
            brickwork(16, depth),
        ));
    }
    cases
}

fn on_pool<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
    amps.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

#[test]
fn round_trip_is_exact_and_pool_independent() {
    // Held throughout: no other test may flip the backend mid-comparison.
    let _backend = simd::scalar_lock();
    for scalar in [false, true] {
        simd::force_scalar(scalar);
        let mode = if scalar { "scalar" } else { "native" };
        for (name, sv) in cases() {
            let mut first = None;
            for pool in POOLS {
                let (out, bonds, trunc) = on_pool(pool, || {
                    let mps = MpsState::from_statevector(&sv, DEFAULT_MAX_BOND);
                    let mut out = StateVector::zero_state(sv.n_qubits());
                    mps.write_into(&mut out);
                    (out, mps.bond_dims().to_vec(), mps.truncation_error())
                });
                let at = format!("({name}, pool {pool}, {mode})");
                let d = max_abs_diff(out.amplitudes(), sv.amplitudes());
                assert!(d <= 1e-12, "{at}: round trip off by {d:.2e}");
                assert_eq!(trunc, 0.0, "{at}: an exact import truncated");
                let run = (bits(out.amplitudes()), bonds, trunc);
                match &first {
                    None => first = Some(run),
                    Some(want) => assert!(
                        *want == run,
                        "{at}: differs from pool {} bit for bit",
                        POOLS[0]
                    ),
                }
            }
        }
    }
    simd::force_scalar(false);
}

#[test]
fn brickwork_bonds_follow_the_circuit() {
    for depth in 1..=3 {
        let mps = MpsState::from_statevector(&brickwork(16, depth), DEFAULT_MAX_BOND);
        // The Gram split keeps singular values its √λ cannot tell from
        // zero, so a bond may read up to twice the circuit's bound.
        assert!(
            mps.peak_bond() <= 2 << depth,
            "(brickwork depth {depth}): bonds {:?}",
            mps.bond_dims()
        );
    }
}

#[test]
fn to_statevector_matches_write_into() {
    let _backend = simd::scalar_lock();
    for (name, sv) in cases().into_iter().filter(|(_, sv)| sv.n_qubits() <= 13) {
        let mps = MpsState::from_statevector(&sv, DEFAULT_MAX_BOND);
        let mut out = StateVector::zero_state(sv.n_qubits());
        mps.write_into(&mut out);
        assert_eq!(
            bits(mps.to_statevector().amplitudes()),
            bits(out.amplitudes()),
            "({name})"
        );
    }
}

#[test]
fn write_into_overwrites_every_amplitude() {
    let nan = C64::new(f64::NAN, f64::NAN);
    for (name, sv) in [
        ("product n=3", product(3)),
        ("ghz n=13", prepared(&entangle_circuit(13))),
        ("product n=17", product(17)),
        ("brickwork n=16", brickwork(16, 2)),
    ] {
        let mps = MpsState::from_statevector(&sv, DEFAULT_MAX_BOND);
        for pool in POOLS {
            let mut out = StateVector::from_amplitudes(vec![nan; sv.dim()]);
            on_pool(pool, || mps.write_into(&mut out));
            let left = out.amplitudes().iter().filter(|z| z.is_nan()).count();
            assert_eq!(
                left, 0,
                "({name}, pool {pool}): {left} amplitudes not written"
            );
            let d = max_abs_diff(out.amplitudes(), sv.amplitudes());
            assert!(d <= 1e-12, "({name}, pool {pool}): off by {d:.2e}");
        }
    }
}

#[test]
#[should_panic(expected = "write_into needs a 3-qubit state")]
fn write_into_rejects_another_width() {
    let mps = MpsState::zero_state(3, 4);
    mps.write_into(&mut StateVector::zero_state(4));
}

#[test]
fn forced_truncation_keeps_the_norm_and_its_error() {
    let mut rng = StdRng::seed_from_u64(0x7e57);
    let sv = StateVector::from_amplitudes(random_state(1 << 10, &mut rng));
    // What the import reported before it streamed (one GEMM-built Gram
    // matrix per site, seed 0x7e57).
    let want = 2.345_005_543_068_697_6;
    for pool in POOLS {
        let mps = on_pool(pool, || MpsState::from_statevector(&sv, 2));
        let rel = (mps.truncation_error() - want).abs() / want;
        assert!(
            rel <= 1e-12,
            "(random n=10 χ=2, pool {pool}): error {} vs {want}",
            mps.truncation_error()
        );
        assert!(
            mps.peak_bond() <= 2,
            "(random n=10 χ=2, pool {pool}): {:?}",
            mps.bond_dims()
        );
        assert!(
            (mps.norm_sqr() - 1.0).abs() < 1e-12,
            "(random n=10 χ=2, pool {pool}): ‖ψ‖² = {}",
            mps.norm_sqr()
        );
        let norm = mps.to_statevector().norm();
        assert!(
            (norm - 1.0).abs() < 1e-12,
            "(random n=10 χ=2, pool {pool}): densified norm {norm}"
        );
    }
}
