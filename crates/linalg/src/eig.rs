//! Complex Schur decomposition and eigensolver (the `zgeev` replacement).
//!
//! Pipeline (paper §3.3, ref \[17\]): Householder Hessenberg reduction →
//! implicitly shifted QR iteration with Givens rotations (Wilkinson shift,
//! aggressive deflation) → upper triangular Schur factor `T` with
//! `A = Z T Z†` → eigenvalues on the diagonal of `T` and, on request,
//! eigenvectors by back-substitution on `T` mapped through `Z`.
//!
//! The QPE emulator uses this to read off eigenphases of a unitary operator
//! directly instead of simulating the phase-estimation circuit.

use crate::complex::{c64, C64};
use crate::hessenberg::hessenberg;
use crate::matrix::CMatrix;

/// Maximum QR iterations per eigenvalue before giving up.
const MAX_ITERS_PER_EIGENVALUE: usize = 60;

/// Errors from the eigensolver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EigError {
    /// The QR iteration failed to deflate an eigenvalue within the
    /// iteration budget. Practically unreachable for the well-conditioned
    /// (unitary / near-normal) matrices this workspace produces.
    NoConvergence { remaining: usize },
    /// Input was not square.
    NotSquare,
}

impl std::fmt::Display for EigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigError::NoConvergence { remaining } => {
                write!(
                    f,
                    "QR iteration did not converge; {remaining} eigenvalues remain"
                )
            }
            EigError::NotSquare => write!(f, "eigendecomposition requires a square matrix"),
        }
    }
}

impl std::error::Error for EigError {}

/// A complex Schur decomposition `A = Z T Z†` with `T` upper triangular and
/// `Z` unitary.
pub struct Schur {
    /// Upper triangular Schur factor; eigenvalues on the diagonal.
    pub t: CMatrix,
    /// Unitary Schur vectors.
    pub z: CMatrix,
}

/// Full eigendecomposition: eigenvalues and (optionally) right eigenvectors.
pub struct Eig {
    /// Eigenvalues (diagonal of the Schur factor).
    pub values: Vec<C64>,
    /// Right eigenvectors as matrix columns; `vectors.col(j)` satisfies
    /// `A v_j ≈ λ_j v_j`. Present when requested.
    pub vectors: Option<CMatrix>,
}

/// Complex Givens rotation `[c s; -s̄ c]` with real `c ≥ 0` zeroing `b`
/// against `a`: `[c s; -s̄ c]·[a; b] = [r; 0]`.
#[inline]
fn givens(a: C64, b: C64) -> (f64, C64, C64) {
    let bn = b.abs();
    if bn == 0.0 {
        return (1.0, C64::ZERO, a);
    }
    let an = a.abs();
    if an == 0.0 {
        // c = 0, s = b̄/|b| gives r = |b|.
        return (0.0, b.conj().scale(1.0 / bn), c64(bn, 0.0));
    }
    let d = (an * an + bn * bn).sqrt();
    let c = an / d;
    let phase_a = a.scale(1.0 / an);
    let s = phase_a * b.conj().scale(1.0 / d);
    let r = phase_a.scale(d);
    (c, s, r)
}

/// Computes the complex Schur decomposition of a square matrix.
pub fn schur(a: &CMatrix) -> Result<Schur, EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare);
    }
    let hes = hessenberg(a);
    schur_from_hessenberg(hes.h, hes.q)
}

/// QR iteration on an upper Hessenberg matrix `h`, accumulating the given
/// initial transform `z` (pass identity if `h` itself is the target).
pub fn schur_from_hessenberg(mut h: CMatrix, mut z: CMatrix) -> Result<Schur, EigError> {
    let n = h.nrows();
    if n == 0 {
        return Ok(Schur { t: h, z });
    }
    let norm = h.frobenius_norm().max(f64::MIN_POSITIVE);
    let eps = f64::EPSILON;

    let mut hi = n - 1;
    let mut iters_this_eig = 0usize;

    'outer: loop {
        // Deflate trailing 1×1 blocks as long as possible.
        loop {
            if hi == 0 {
                break 'outer;
            }
            let sub = h[(hi, hi - 1)].abs();
            let scale = h[(hi - 1, hi - 1)].abs() + h[(hi, hi)].abs();
            if sub <= eps * scale.max(eps * norm) {
                h[(hi, hi - 1)] = C64::ZERO;
                hi -= 1;
                iters_this_eig = 0;
            } else {
                break;
            }
        }

        // Find the start of the active unreduced block [lo, hi].
        let mut lo = hi;
        while lo > 0 {
            let sub = h[(lo, lo - 1)].abs();
            let scale = h[(lo - 1, lo - 1)].abs() + h[(lo, lo)].abs();
            if sub <= eps * scale.max(eps * norm) {
                h[(lo, lo - 1)] = C64::ZERO;
                break;
            }
            lo -= 1;
        }

        iters_this_eig += 1;
        if iters_this_eig > MAX_ITERS_PER_EIGENVALUE {
            return Err(EigError::NoConvergence { remaining: hi + 1 });
        }

        // Wilkinson shift from the trailing 2×2 of the active block; an
        // exceptional (ad hoc) shift every 10 stalled iterations breaks
        // symmetry-induced cycles.
        let shift = if iters_this_eig.is_multiple_of(10) {
            h[(hi, hi)] + c64(0.75 * h[(hi, hi - 1)].abs(), 0.0)
        } else {
            wilkinson_shift(
                h[(hi - 1, hi - 1)],
                h[(hi - 1, hi)],
                h[(hi, hi - 1)],
                h[(hi, hi)],
            )
        };

        // Implicit single-shift QR sweep on [lo, hi]: create the bulge from
        // the first column of (H − σI) and chase it down the subdiagonal.
        let mut x = h[(lo, lo)] - shift;
        let mut y = h[(lo + 1, lo)];
        for k in lo..hi {
            let (c, s, _r) = givens(x, y);
            let sc = s.conj();

            // Row rotation: rows k, k+1, columns k.saturating_sub(1)..n —
            // the k−1 column holds the bulge created by the previous step.
            let col0 = if k > lo { k - 1 } else { lo };
            for j in col0..n {
                let t1 = h[(k, j)];
                let t2 = h[(k + 1, j)];
                h[(k, j)] = t1.scale(c) + s * t2;
                h[(k + 1, j)] = t2.scale(c) - sc * t1;
            }
            // Column rotation: columns k, k+1, rows 0..=min(k+2, hi).
            let rmax = (k + 2).min(hi);
            for i in 0..=rmax {
                let t1 = h[(i, k)];
                let t2 = h[(i, k + 1)];
                h[(i, k)] = t1.scale(c) + sc * t2;
                h[(i, k + 1)] = t2.scale(c) - s * t1;
            }
            // Accumulate in Z (full height).
            for i in 0..n {
                let t1 = z[(i, k)];
                let t2 = z[(i, k + 1)];
                z[(i, k)] = t1.scale(c) + sc * t2;
                z[(i, k + 1)] = t2.scale(c) - s * t1;
            }

            if k + 1 < hi {
                x = h[(k + 1, k)];
                y = h[(k + 2, k)];
            }
        }
    }

    // Zero out strict lower triangle (numerical dust below the diagonal).
    for r in 1..n {
        for c in 0..r {
            h[(r, c)] = C64::ZERO;
        }
    }
    Ok(Schur { t: h, z })
}

/// Eigenvalue of the 2×2 block `[a b; c d]` closest to `d`.
fn wilkinson_shift(a: C64, b: C64, c: C64, d: C64) -> C64 {
    let tr = a + d;
    let det = a * d - b * c;
    let disc = (tr * tr - det.scale(4.0)).sqrt();
    let l1 = (tr + disc).scale(0.5);
    let l2 = (tr - disc).scale(0.5);
    if (l1 - d).abs() <= (l2 - d).abs() {
        l1
    } else {
        l2
    }
}

/// Computes eigenvalues only.
pub fn eigenvalues(a: &CMatrix) -> Result<Vec<C64>, EigError> {
    Ok(schur(a)?.t.diagonal())
}

/// Computes eigenvalues and right eigenvectors (the `zgeev` work-alike).
pub fn eig(a: &CMatrix) -> Result<Eig, EigError> {
    let s = schur(a)?;
    let values = s.t.diagonal();
    let vectors = triangular_eigenvectors(&s.t, &s.z);
    Ok(Eig {
        values,
        vectors: Some(vectors),
    })
}

/// Right eigenvectors of `A = Z T Z†` by back-substitution on the upper
/// triangular `T`, then mapping through `Z`. Column `j` of the result is a
/// unit-norm eigenvector for `T[j][j]`.
fn triangular_eigenvectors(t: &CMatrix, z: &CMatrix) -> CMatrix {
    let n = t.nrows();
    let mut vecs = CMatrix::zeros(n, n);
    let tnorm = t.frobenius_norm().max(f64::MIN_POSITIVE);
    let smin = f64::EPSILON * tnorm;

    let mut x = vec![C64::ZERO; n];
    for j in 0..n {
        let lambda = t[(j, j)];
        // Solve (T − λI)x = 0 with x[j] = 1, support on 0..=j.
        for xi in x.iter_mut() {
            *xi = C64::ZERO;
        }
        x[j] = C64::ONE;
        for i in (0..j).rev() {
            let mut s = C64::ZERO;
            for (k, xk) in x.iter().enumerate().take(j + 1).skip(i + 1) {
                s += t[(i, k)] * *xk;
            }
            let mut denom = t[(i, i)] - lambda;
            if denom.abs() < smin {
                // Perturb a (near-)defective pivot; standard LAPACK trick.
                denom = c64(smin, 0.0);
            }
            x[i] = -s / denom;
        }
        // Map through Z and normalise: v = Z x.
        let mut norm_sq = 0.0;
        for r in 0..n {
            let mut acc = C64::ZERO;
            for (k, xk) in x.iter().enumerate().take(j + 1) {
                acc += z[(r, k)] * *xk;
            }
            vecs[(r, j)] = acc;
            norm_sq += acc.norm_sqr();
        }
        let inv = 1.0 / norm_sq.sqrt();
        for r in 0..n {
            vecs[(r, j)] = vecs[(r, j)].scale(inv);
        }
    }
    vecs
}

/// Residual `max_j ‖A v_j − λ_j v_j‖₂` of an eigendecomposition; the test
/// suite uses this as its primary correctness metric.
pub fn eig_residual(a: &CMatrix, e: &Eig) -> f64 {
    let v = e.vectors.as_ref().expect("eig_residual needs eigenvectors");
    let n = a.nrows();
    let mut worst: f64 = 0.0;
    for j in 0..n {
        let col = v.col(j);
        let av = a.matvec(&col);
        let mut res = 0.0;
        for r in 0..n {
            res += (av[r] - e.values[j] * col[r]).norm_sqr();
        }
        worst = worst.max(res.sqrt());
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use crate::random::{random_diagonal_unitary, random_matrix, random_unitary};
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn sort_by_arg(mut v: Vec<C64>) -> Vec<C64> {
        v.sort_by(|a, b| a.arg().partial_cmp(&b.arg()).unwrap());
        v
    }

    #[test]
    fn givens_zeroes_second_component() {
        let mut rng = StdRng::seed_from_u64(30);
        for _ in 0..50 {
            let a = crate::random::standard_complex_normal(&mut rng);
            let b = crate::random::standard_complex_normal(&mut rng);
            let (c, s, r) = givens(a, b);
            let top = a.scale(c) + s * b;
            let bot = b.scale(c) - s.conj() * a;
            assert!(top.approx_eq(r, 1e-12), "r mismatch");
            assert!(bot.abs() < 1e-12, "residual {bot:?}");
            assert!((c * c + s.norm_sqr() - 1.0).abs() < 1e-12, "not a rotation");
        }
    }

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let d = CMatrix::from_diagonal(&[c64(1.0, 0.0), c64(-2.0, 0.5), c64(0.0, 3.0)]);
        let vals = sort_by_arg(eigenvalues(&d).unwrap());
        let expect = sort_by_arg(vec![c64(1.0, 0.0), c64(-2.0, 0.5), c64(0.0, 3.0)]);
        for (a, b) in vals.iter().zip(expect.iter()) {
            assert!(a.approx_eq(*b, 1e-10), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn known_2x2_eigenvalues() {
        // [[0, 1], [1, 0]] has eigenvalues ±1.
        let x = CMatrix::from_real_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let mut vals = eigenvalues(&x).unwrap();
        vals.sort_by(|a, b| a.re.partial_cmp(&b.re).unwrap());
        assert!(vals[0].approx_eq(c64(-1.0, 0.0), 1e-10));
        assert!(vals[1].approx_eq(c64(1.0, 0.0), 1e-10));
    }

    #[test]
    fn schur_reconstructs_input() {
        let mut rng = StdRng::seed_from_u64(31);
        for n in [2, 3, 5, 10, 24] {
            let a = random_matrix(n, n, &mut rng);
            let s = schur(&a).unwrap();
            assert!(s.z.is_unitary(1e-9), "Z not unitary, n = {n}");
            // Check T upper triangular.
            for r in 1..n {
                for c in 0..r {
                    assert_eq!(s.t[(r, c)], C64::ZERO);
                }
            }
            let rec = gemm(&gemm(&s.z, &s.t), &s.z.adjoint());
            assert!(
                rec.max_abs_diff(&a) < 1e-8 * (n as f64) * a.max_abs().max(1.0),
                "reconstruction failed n = {n}: {}",
                rec.max_abs_diff(&a)
            );
        }
    }

    #[test]
    fn eigen_residual_small_for_random_matrices() {
        let mut rng = StdRng::seed_from_u64(32);
        for n in [2, 4, 8, 16, 32] {
            let a = random_matrix(n, n, &mut rng);
            let e = eig(&a).unwrap();
            let res = eig_residual(&a, &e);
            assert!(
                res < 1e-7 * (n as f64),
                "residual {res} too large for n = {n}"
            );
        }
    }

    #[test]
    fn unitary_eigenvalues_on_unit_circle() {
        let mut rng = StdRng::seed_from_u64(33);
        let u = random_unitary(20, &mut rng);
        let vals = eigenvalues(&u).unwrap();
        for v in vals {
            assert!((v.abs() - 1.0).abs() < 1e-8, "|λ| = {} off circle", v.abs());
        }
    }

    #[test]
    fn diagonal_unitary_phases_recovered() {
        let mut rng = StdRng::seed_from_u64(34);
        let u = random_diagonal_unitary(12, &mut rng);
        let truth = sort_by_arg(u.diagonal());
        let vals = sort_by_arg(eigenvalues(&u).unwrap());
        for (a, b) in vals.iter().zip(truth.iter()) {
            assert!(a.approx_eq(*b, 1e-9), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn hermitian_matrix_has_real_eigenvalues() {
        let mut rng = StdRng::seed_from_u64(35);
        let g = random_matrix(14, 14, &mut rng);
        let herm = {
            let adj = g.adjoint();
            (&g + &adj).scale(c64(0.5, 0.0))
        };
        let vals = eigenvalues(&herm).unwrap();
        for v in vals {
            assert!(v.im.abs() < 1e-8, "Im(λ) = {} should vanish", v.im);
        }
    }

    #[test]
    fn repeated_eigenvalues_identity() {
        let i = CMatrix::identity(8);
        let e = eig(&i).unwrap();
        for v in &e.values {
            assert!(v.approx_eq(C64::ONE, 1e-12));
        }
        assert!(eig_residual(&i, &e) < 1e-10);
    }

    #[test]
    fn defective_jordan_block_does_not_crash() {
        // [[1 1],[0 1]] is defective; eigenvalues must still be (1, 1).
        let j = CMatrix::from_real_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        let vals = eigenvalues(&j).unwrap();
        for v in vals {
            assert!(v.approx_eq(C64::ONE, 1e-7), "{v:?}");
        }
    }

    #[test]
    fn eigenvector_phase_eigenproblem_for_qpe() {
        // The exact structure QPE relies on: U = V diag(e^{iθ}) V†, recover θ.
        let mut rng = StdRng::seed_from_u64(36);
        let n = 10;
        let v = random_unitary(n, &mut rng);
        let thetas: Vec<f64> = (0..n)
            .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
            .collect();
        let d = CMatrix::from_diagonal(&thetas.iter().map(|&t| C64::cis(t)).collect::<Vec<_>>());
        let u = gemm(&gemm(&v, &d), &v.adjoint());
        let e = eig(&u).unwrap();
        let res = eig_residual(&u, &e);
        assert!(res < 1e-7, "residual {res}");
        // Every synthetic phase must be found among the computed eigenvalues.
        for &t in &thetas {
            let target = C64::cis(t);
            let found = e.values.iter().any(|l| l.approx_eq(target, 1e-6));
            assert!(found, "phase {t} not recovered");
        }
    }

    #[test]
    fn not_square_is_rejected() {
        assert_eq!(
            schur(&CMatrix::zeros(2, 3)).err(),
            Some(EigError::NotSquare)
        );
        assert!(matches!(
            eig(&CMatrix::zeros(2, 3)),
            Err(EigError::NotSquare)
        ));
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = CMatrix::zeros(0, 0);
        let s = schur(&a).unwrap();
        assert_eq!(s.t.shape(), (0, 0));
        assert!(eigenvalues(&a).unwrap().is_empty());
    }

    #[test]
    fn one_by_one() {
        let a = CMatrix::from_diagonal(&[c64(2.5, -1.0)]);
        let vals = eigenvalues(&a).unwrap();
        assert!(vals[0].approx_eq(c64(2.5, -1.0), 1e-14));
    }
}
