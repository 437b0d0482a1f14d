//! The FFT equivalence matrix: every size, direction, normalisation,
//! backend and pool size of the engine against a transform that shares no
//! code with it — the O(N²) [`dft_reference`] up to 2¹⁰, the textbook
//! [`radix2_reference`] above — and every register placement of
//! [`fft_subspace`] against gather → [`fft`] → scatter.
//!
//! A failing case names itself as
//! `(log2n, lo, m, dir, norm, threads, backend)`.

use qcemu_fft::{
    dft_reference, fft, fft_subspace, inverse_qft_convention, qft_convention, radix2_reference,
    scatter_bits, Direction, Normalization,
};
use qcemu_linalg::simd::{scalar_lock, ForcedScalar};
use qcemu_linalg::{max_abs_diff, norm2, random_state, C64};
use rand::rngs::StdRng;
use rand::SeedableRng;

const DIRECTIONS: [Direction; 2] = [Direction::Forward, Direction::Inverse];
const NORMS: [Normalization; 3] = [
    Normalization::None,
    Normalization::Sqrt,
    Normalization::Full,
];
const POOLS: [usize; 3] = [1, 2, 3];

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

fn max_abs(v: &[C64]) -> f64 {
    v.iter().map(|z| z.abs()).fold(0.0, f64::max)
}

#[test]
fn whole_buffer_transform_matches_the_references() {
    let mut rng = StdRng::seed_from_u64(0xff7);
    for log2n in 0..=22u32 {
        let n = 1usize << log2n;
        let input = random_state(n, &mut rng);
        let mut got = vec![C64::ZERO; n];
        for dir in DIRECTIONS {
            let unscaled = if log2n <= 10 {
                dft_reference(&input, dir, Normalization::None)
            } else {
                let mut r = input.clone();
                radix2_reference(&mut r, dir, Normalization::None);
                r
            };
            for norm in NORMS {
                let factor = norm.factor(n);
                let want: Vec<C64> = unscaled.iter().map(|z| z.scale(factor)).collect();
                let tol = 1e-13 * (log2n + 1) as f64 * max_abs(&want);
                on_every_backend_and_pool(|backend, threads| {
                    got.copy_from_slice(&input);
                    fft(&mut got, dir, norm);
                    let err = max_abs_diff(&got, &want);
                    assert!(
                        err <= tol,
                        "(log2n {log2n}, lo 0, m {log2n}, {dir:?}, {norm:?}, {threads} threads, \
                         {backend}): error {err:e} > {tol:e}"
                    );
                });
            }
        }
    }
}

/// Gather → `fft` → scatter, one register value vector at a time.
fn subspace_reference(
    input: &[C64],
    n_qubits: usize,
    bits: &[usize],
    dir: Direction,
    norm: Normalization,
) -> Vec<C64> {
    let rest: Vec<usize> = (0..n_qubits).filter(|q| !bits.contains(q)).collect();
    let mut out = input.to_vec();
    let mut column = vec![C64::ZERO; 1 << bits.len()];
    for c in 0..1usize << rest.len() {
        let at = |v: usize| scatter_bits(v, bits) | scatter_bits(c, &rest);
        for (v, z) in column.iter_mut().enumerate() {
            *z = input[at(v)];
        }
        fft(&mut column, dir, norm);
        for (v, z) in column.iter().enumerate() {
            out[at(v)] = *z;
        }
    }
    out
}

#[test]
fn subspace_transform_matches_gather_fft_scatter() {
    let mut rng = StdRng::seed_from_u64(0x5ab);
    // Every contiguous placement inside 12 qubits (all run in place), a few
    // whose segment outgrows a cache block (tiled, and two passes deep at
    // an offset), and three bit lists that are not a range at all.
    let mut cases: Vec<(usize, Vec<usize>)> = Vec::new();
    for lo in 0..12 {
        for m in 1..=12 - lo {
            cases.push((12, (lo..lo + m).collect()));
        }
    }
    for (lo, m) in [(7, 10), (3, 14), (5, 12), (1, 16), (2, 15)] {
        cases.push((17, (lo..lo + m).collect()));
    }
    cases.push((10, vec![1, 3, 4, 8]));
    cases.push((10, vec![6, 5, 4, 3]));
    cases.push((12, vec![0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11]));

    for (n_qubits, bits) in cases {
        let input = random_state(1 << n_qubits, &mut rng);
        let (lo, m) = (bits[0], bits.len());
        for dir in DIRECTIONS {
            let want = subspace_reference(&input, n_qubits, &bits, dir, Normalization::Sqrt);
            on_every_backend_and_pool(|backend, threads| {
                let mut got = input.clone();
                fft_subspace(&mut got, n_qubits, &bits, dir, Normalization::Sqrt);
                let err = max_abs_diff(&got, &want);
                assert!(
                    err <= 1e-13,
                    "(log2n {n_qubits}, lo {lo}, m {m}, {dir:?}, Sqrt, {threads} threads, \
                     {backend}; bits {bits:?}): error {err:e}"
                );
            });
        }
    }
}

#[test]
fn round_trip_and_norm_hold_at_21_qubits() {
    let log2n = 21;
    let mut rng = StdRng::seed_from_u64(0x21);
    let input = random_state(1 << log2n, &mut rng);
    let _pinned = scalar_lock();
    let mut data = input.clone();
    qft_convention(&mut data);
    let drift = (norm2(&data) - 1.0).abs();
    assert!(drift <= 1e-12, "(log2n {log2n}): norm drift {drift:e}");
    inverse_qft_convention(&mut data);
    let err = max_abs_diff(&data, &input);
    assert!(
        err <= 1e-12 * log2n as f64,
        "(log2n {log2n}): round-trip error {err:e}"
    );
}

/// The retained reference is itself pinned to the definition.
#[test]
fn radix2_reference_matches_the_dft() {
    let mut rng = StdRng::seed_from_u64(0x2ef);
    for log2n in 0..=9 {
        let input = random_state(1 << log2n, &mut rng);
        for dir in DIRECTIONS {
            let mut got = input.clone();
            radix2_reference(&mut got, dir, Normalization::Sqrt);
            let want = dft_reference(&input, dir, Normalization::Sqrt);
            assert!(max_abs_diff(&got, &want) < 1e-13, "log2n {log2n}, {dir:?}");
        }
    }
}
