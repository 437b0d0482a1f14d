//! Singular value decomposition by one-sided (Hestenes) Jacobi rotations.
//!
//! The MPS backend truncates bond dimensions by SVD-ing small reshaped
//! site tensors — matrices of shape `(2χ × 2χ)` at most, where χ is the
//! bond cap. At those sizes a one-sided Jacobi sweep is simpler and more
//! accurate than bidiagonalisation: it orthogonalises the columns of `A`
//! in place, so the singular values emerge as column norms with
//! componentwise-relative accuracy, and no separate backward pass is
//! needed. Complex pairs are handled by factoring the phase of the
//! off-diagonal Gram entry out of the rotation (Forsythe–Henrici).
//!
//! `A = U · diag(S) · Vᴴ` with `U` (m×k) having orthonormal columns,
//! `S` (k) real non-negative descending, `Vᴴ` (k×n) with orthonormal
//! rows, `k = min(m, n)`. Rank-deficient inputs yield zero singular
//! values with zero `U` columns (no arbitrary orthonormal completion).

use crate::complex::C64;
use crate::matrix::CMatrix;

/// Result of [`svd`]: `a ≈ u · diag(s) · vt`.
#[derive(Clone, Debug)]
pub struct Svd {
    /// Left singular vectors, `m × k`, orthonormal columns (zero columns
    /// for zero singular values).
    pub u: CMatrix,
    /// Singular values, descending, length `k = min(m, n)`.
    pub s: Vec<f64>,
    /// Conjugate-transposed right singular vectors, `k × n`.
    pub vt: CMatrix,
}

/// Relative threshold under which an off-diagonal Gram entry counts as
/// already annihilated. `f64::EPSILON`-scaled: rotations stop improving
/// once |⟨wₚ,w_q⟩| sits in the rounding noise of ‖wₚ‖‖w_q‖.
const JACOBI_TOL: f64 = 1e-15;

/// Sweeps past this count indicate a pathological input; the partial
/// factorisation is still returned (columns as orthogonal as doubles
/// allow). Well-conditioned inputs converge in ≤ 10 sweeps.
const MAX_SWEEPS: usize = 40;

/// Full (thin) SVD of a complex matrix. See module docs for conventions.
pub fn svd(a: &CMatrix) -> Svd {
    let (m, n) = (a.nrows(), a.ncols());
    if m >= n {
        svd_tall(a)
    } else {
        // A = (Aᴴ)ᴴ: factor the tall adjoint and swap the roles of the
        // singular vector sets. Aᴴ = U'ΣV'ᴴ  ⇒  A = V'ΣU'ᴴ.
        let t = svd_tall(&a.adjoint());
        let u = t.vt.adjoint();
        let vt = t.u.adjoint();
        Svd { u, s: t.s, vt }
    }
}

/// One-sided Jacobi on a tall (m ≥ n) matrix: rotate column pairs of a
/// working copy `W` until all pairs are orthogonal, accumulating the
/// rotations into `V`; then `σⱼ = ‖wⱼ‖`, `uⱼ = wⱼ/σⱼ`, and `W = A·V`
/// gives `A = (UΣ)Vᴴ`.
#[allow(clippy::needless_range_loop)] // the Gram sweep reads two columns in lockstep
fn svd_tall(a: &CMatrix) -> Svd {
    let (m, n) = (a.nrows(), a.ncols());
    // Column-major working storage: every rotation touches two whole
    // columns, so keep each contiguous.
    let mut w: Vec<Vec<C64>> = (0..n).map(|j| a.col(j)).collect();
    let mut v: Vec<Vec<C64>> = (0..n)
        .map(|j| {
            let mut e = vec![C64::ZERO; n];
            e[j] = C64::ONE;
            e
        })
        .collect();

    for _sweep in 0..MAX_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                // 2×2 Gram block of columns (p, q).
                let mut alpha = 0.0;
                let mut beta = 0.0;
                let mut gamma = C64::ZERO;
                for i in 0..m {
                    let wp = w[p][i];
                    let wq = w[q][i];
                    alpha += wp.norm_sqr();
                    beta += wq.norm_sqr();
                    gamma += wp.conj() * wq;
                }
                let g = gamma.abs();
                // √α·√β, not √(α·β): the product underflows to 0 for
                // column norms ≲ 1e-154, which would let a denormal γ
                // through and turn 1/g into ∞ inside the rotation.
                if g <= JACOBI_TOL * alpha.sqrt() * beta.sqrt() || g == 0.0 {
                    continue;
                }
                rotated = true;
                // Factor out the phase of γ, then the classic symmetric
                // Jacobi rotation on [[α, |γ|], [|γ|, β]]. Component-wise
                // division (not ·1/g, whose reciprocal overflows for
                // denormal g) keeps the phase finite for any γ ≠ 0.
                let phase = C64::new(gamma.re / g, gamma.im / g); // e^{iφ}
                let zeta = (beta - alpha) / (2.0 * g);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // [wₚ', w_q'] = [wₚ, w_q] · [[c, s], [-s·e^{-iφ}, c·e^{-iφ}]]
                let se = phase.conj().scale(s);
                let ce = phase.conj().scale(c);
                rotate_pair(&mut w, p, q, c, s, se, ce);
                rotate_pair(&mut v, p, q, c, s, se, ce);
            }
        }
        if !rotated {
            break;
        }
    }

    // Column norms are the singular values; sort descending.
    let mut order: Vec<usize> = (0..n).collect();
    let norms: Vec<f64> = w
        .iter()
        .map(|col| col.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt())
        .collect();
    order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));

    let s: Vec<f64> = order.iter().map(|&j| norms[j]).collect();
    let u = CMatrix::from_fn(m, n, |r, c| {
        let j = order[c];
        if norms[j] > 0.0 {
            w[j][r].scale(1.0 / norms[j])
        } else {
            C64::ZERO
        }
    });
    let vt = CMatrix::from_fn(n, n, |r, c| v[order[r]][c].conj());
    Svd { u, s, vt }
}

/// Applies the 2×2 right-rotation to columns `p`, `q` of `cols`.
#[inline]
fn rotate_pair(cols: &mut [Vec<C64>], p: usize, q: usize, c: f64, s: f64, se: C64, ce: C64) {
    let (head, tail) = cols.split_at_mut(q);
    let (cp, cq) = (&mut head[p], &mut tail[0]);
    for i in 0..cp.len() {
        let a = cp[i];
        let b = cq[i];
        cp[i] = a.scale(c) - se * b;
        cq[i] = a.scale(s) + ce * b;
    }
}

/// Reconstructs `u · diag(s) · vt` (test/debug helper).
pub fn svd_reconstruct(f: &Svd) -> CMatrix {
    let k = f.s.len();
    let (m, n) = (f.u.nrows(), f.vt.ncols());
    CMatrix::from_fn(m, n, |r, c| {
        let mut acc = C64::ZERO;
        for j in 0..k {
            acc += f.u[(r, j)].scale(f.s[j]) * f.vt[(j, c)];
        }
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::random::{random_matrix, random_unitary};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check(a: &CMatrix, tol: f64) {
        let f = svd(a);
        let k = a.nrows().min(a.ncols());
        assert_eq!(f.s.len(), k);
        assert_eq!((f.u.nrows(), f.u.ncols()), (a.nrows(), k));
        assert_eq!((f.vt.nrows(), f.vt.ncols()), (k, a.ncols()));
        // Descending, non-negative.
        for j in 0..k {
            assert!(f.s[j] >= 0.0, "negative σ_{j} = {}", f.s[j]);
            if j + 1 < k {
                assert!(f.s[j] >= f.s[j + 1], "σ not sorted: {:?}", f.s);
            }
        }
        // Reconstruction.
        let err = svd_reconstruct(&f).max_abs_diff(a);
        assert!(err < tol, "reconstruction error {err} (tol {tol})");
        // Orthonormal columns of U / rows of Vᴴ (skip zero σ columns).
        for i in 0..k {
            for j in 0..k {
                if f.s[i] == 0.0 || f.s[j] == 0.0 {
                    continue;
                }
                let mut uij = C64::ZERO;
                for r in 0..a.nrows() {
                    uij += f.u[(r, i)].conj() * f.u[(r, j)];
                }
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((uij.abs() - want).abs() < tol, "UᴴU[{i},{j}] = {uij:?}");
                let mut vij = C64::ZERO;
                for c in 0..a.ncols() {
                    vij += f.vt[(i, c)] * f.vt[(j, c)].conj();
                }
                assert!((vij.abs() - want).abs() < tol, "VᴴV[{i},{j}] = {vij:?}");
            }
        }
    }

    #[test]
    fn identity_and_diagonal() {
        check(&CMatrix::identity(4), 1e-12);
        let d = CMatrix::from_diagonal(&[c64(3.0, 0.0), c64(0.0, 2.0), c64(-1.0, 0.0)]);
        let f = svd(&d);
        assert!((f.s[0] - 3.0).abs() < 1e-12);
        assert!((f.s[1] - 2.0).abs() < 1e-12);
        assert!((f.s[2] - 1.0).abs() < 1e-12);
        check(&d, 1e-12);
    }

    #[test]
    fn known_rank_one() {
        // outer product of [1, 2i] and [3, 4]ᴴ: single σ = √5·5 = 5√5.
        let a = CMatrix::from_fn(2, 2, |r, c| {
            let u = [c64(1.0, 0.0), c64(0.0, 2.0)][r];
            let v = [c64(3.0, 0.0), c64(4.0, 0.0)][c];
            u * v.conj()
        });
        let f = svd(&a);
        assert!((f.s[0] - (5.0f64.sqrt() * 5.0)).abs() < 1e-10, "{:?}", f.s);
        assert!(f.s[1].abs() < 1e-10);
        check(&a, 1e-10);
    }

    #[test]
    fn random_square_tall_wide() {
        let mut rng = StdRng::seed_from_u64(0x5fd);
        for (m, n) in [(1, 1), (2, 2), (5, 5), (8, 3), (3, 8), (16, 16), (7, 12)] {
            let a = random_matrix(m, n, &mut rng);
            check(&a, 1e-9 * (m.max(n) as f64));
        }
    }

    #[test]
    fn unitary_has_unit_singular_values() {
        let mut rng = StdRng::seed_from_u64(0x51d);
        let u = random_unitary(6, &mut rng);
        let f = svd(&u);
        for s in &f.s {
            assert!((s - 1.0).abs() < 1e-9, "σ = {s}");
        }
    }

    #[test]
    fn zero_matrix() {
        let f = svd(&CMatrix::zeros(3, 2));
        assert!(f.s.iter().all(|&s| s == 0.0));
        assert!(svd_reconstruct(&f).max_abs_diff(&CMatrix::zeros(3, 2)) == 0.0);
    }
}
