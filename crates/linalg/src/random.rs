//! Random matrices and Haar-random unitaries for tests and benchmarks.

use crate::complex::{c64, C64};
use crate::matrix::CMatrix;
use rand::Rng;

/// Samples one standard normal variate via Box–Muller (we avoid extra
/// dependencies such as `rand_distr`; two uniforms per pair of normals).
pub fn standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// A complex number with i.i.d. standard normal components.
pub fn standard_complex_normal(rng: &mut impl Rng) -> C64 {
    c64(standard_normal(rng), standard_normal(rng))
}

/// Dense matrix with i.i.d. complex Gaussian entries (a Ginibre matrix).
pub fn random_matrix(nrows: usize, ncols: usize, rng: &mut impl Rng) -> CMatrix {
    CMatrix::from_fn(nrows, ncols, |_, _| standard_complex_normal(rng))
}

/// Haar-distributed random unitary: QR of a Ginibre matrix by modified
/// Gram–Schmidt, with the R-diagonal phases divided out (Mezzadri's recipe).
pub fn random_unitary(n: usize, rng: &mut impl Rng) -> CMatrix {
    let g = random_matrix(n, n, rng);
    // Work column-wise: collect columns, orthonormalise, write back.
    let mut cols: Vec<Vec<C64>> = (0..n).map(|c| g.col(c)).collect();
    let mut rdiag = vec![C64::ONE; n];
    for j in 0..n {
        let (done, rest) = cols.split_at_mut(j);
        for ci in done.iter() {
            // proj = <cols[i], cols[j]>
            let mut proj = C64::ZERO;
            for (a, b) in ci.iter().zip(&rest[0]) {
                proj += a.conj() * *b;
            }
            for (a, b) in ci.iter().zip(rest[0].iter_mut()) {
                *b -= proj * *a;
            }
        }
        let norm = cols[j].iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        assert!(
            norm > 1e-12,
            "degenerate random matrix (astronomically unlikely)"
        );
        for z in cols[j].iter_mut() {
            *z = z.scale(1.0 / norm);
        }
        // Phase correction for Haar measure: multiply the column by the
        // conjugate phase of the original overlap. With MGS the R diagonal
        // is the pre-normalisation norm (real, positive), so additionally
        // randomise the phase explicitly.
        let theta = rng.gen::<f64>() * std::f64::consts::TAU;
        rdiag[j] = C64::cis(theta);
        for z in cols[j].iter_mut() {
            *z *= rdiag[j];
        }
    }
    CMatrix::from_fn(n, n, |r, c| cols[c][r])
}

/// Random diagonal unitary `diag(e^{iθ_k})`.
pub fn random_diagonal_unitary(n: usize, rng: &mut impl Rng) -> CMatrix {
    let diag: Vec<C64> = (0..n)
        .map(|_| C64::cis(rng.gen::<f64>() * std::f64::consts::TAU))
        .collect();
    CMatrix::from_diagonal(&diag)
}

/// Random state vector (normalised complex Gaussian).
pub fn random_state(dim: usize, rng: &mut impl Rng) -> Vec<C64> {
    let mut v: Vec<C64> = (0..dim).map(|_| standard_complex_normal(rng)).collect();
    let norm = v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    for z in v.iter_mut() {
        *z = z.scale(1.0 / norm);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn random_unitary_is_unitary() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [1, 2, 3, 8, 17] {
            let u = random_unitary(n, &mut rng);
            assert!(u.is_unitary(1e-9), "n = {n}");
        }
    }

    #[test]
    fn random_diagonal_unitary_is_unitary_and_diagonal() {
        let mut rng = StdRng::seed_from_u64(9);
        let u = random_diagonal_unitary(6, &mut rng);
        assert!(u.is_unitary(1e-10));
        for r in 0..6 {
            for c in 0..6 {
                if r != c {
                    assert_eq!(u[(r, c)], C64::ZERO);
                }
            }
        }
    }

    #[test]
    fn random_state_is_normalised() {
        let mut rng = StdRng::seed_from_u64(10);
        let v = random_state(128, &mut rng);
        let norm: f64 = v.iter().map(|z| z.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn determinism_with_seed() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = random_matrix(5, 5, &mut r1);
        let b = random_matrix(5, 5, &mut r2);
        assert!(a.max_abs_diff(&b) == 0.0);
    }
}
