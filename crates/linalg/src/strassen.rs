//! Strassen matrix multiplication.
//!
//! The paper (§3.3) notes that repeated squaring drops from O(2³ⁿ·b) to
//! O(2^{2.8n}·b) with Strassen, moving the emulation/simulation crossover
//! from `b ≥ 2n` to `b ≳ 1.8n`. We implement the classic recursion with
//! padding to even dimensions and a fallback to the blocked GEMM below a
//! threshold, and benchmark both in the Table 2 harness.

use crate::gemm;
use crate::matrix::CMatrix;

/// Recursion cutoff: below this dimension plain GEMM is faster than the
/// seven-product bookkeeping.
pub const DEFAULT_CUTOFF: usize = 128;

/// `C = A · B` via Strassen's algorithm (square inputs required).
pub fn strassen(a: &CMatrix, b: &CMatrix) -> CMatrix {
    strassen_with_cutoff(a, b, DEFAULT_CUTOFF)
}

/// Strassen with an explicit recursion cutoff (used by benches/ablation).
pub fn strassen_with_cutoff(a: &CMatrix, b: &CMatrix, cutoff: usize) -> CMatrix {
    assert!(
        a.is_square() && b.is_square(),
        "strassen: inputs must be square"
    );
    assert_eq!(a.nrows(), b.nrows(), "strassen: dimension mismatch");
    strassen_rec(a, b, cutoff.max(2))
}

fn strassen_rec(a: &CMatrix, b: &CMatrix, cutoff: usize) -> CMatrix {
    let n = a.nrows();
    if n <= cutoff {
        return gemm::gemm(a, b);
    }
    if !n.is_multiple_of(2) {
        // Pad by one row/column of zeros, recurse, then trim. The extra
        // zero rows cannot perturb the result.
        let ap = pad_to(a, n + 1);
        let bp = pad_to(b, n + 1);
        let cp = strassen_rec(&ap, &bp, cutoff);
        return cp.submatrix(0, 0, n, n);
    }

    let h = n / 2;
    let a11 = a.submatrix(0, 0, h, h);
    let a12 = a.submatrix(0, h, h, h);
    let a21 = a.submatrix(h, 0, h, h);
    let a22 = a.submatrix(h, h, h, h);
    let b11 = b.submatrix(0, 0, h, h);
    let b12 = b.submatrix(0, h, h, h);
    let b21 = b.submatrix(h, 0, h, h);
    let b22 = b.submatrix(h, h, h, h);

    // The two independent halves of each product pair could run in
    // parallel, but GEMM already saturates the cores; keeping the recursion
    // serial avoids oversubscription.
    let m1 = strassen_rec(&(&a11 + &a22), &(&b11 + &b22), cutoff);
    let m2 = strassen_rec(&(&a21 + &a22), &b11, cutoff);
    let m3 = strassen_rec(&a11, &(&b12 - &b22), cutoff);
    let m4 = strassen_rec(&a22, &(&b21 - &b11), cutoff);
    let m5 = strassen_rec(&(&a11 + &a12), &b22, cutoff);
    let m6 = strassen_rec(&(&a21 - &a11), &(&b11 + &b12), cutoff);
    let m7 = strassen_rec(&(&a12 - &a22), &(&b21 + &b22), cutoff);

    let c11 = &(&(&m1 + &m4) - &m5) + &m7;
    let c12 = &m3 + &m5;
    let c21 = &m2 + &m4;
    let c22 = &(&(&m1 - &m2) + &m3) + &m6;

    let mut c = CMatrix::zeros(n, n);
    c.set_submatrix(0, 0, &c11);
    c.set_submatrix(0, h, &c12);
    c.set_submatrix(h, 0, &c21);
    c.set_submatrix(h, h, &c22);
    c
}

fn pad_to(m: &CMatrix, size: usize) -> CMatrix {
    let mut out = CMatrix::zeros(size, size);
    out.set_submatrix(0, 0, m);
    out
}

/// Approximate flop count of Strassen for an `n×n` complex multiply with the
/// given cutoff (counts the 7-way recursion down to the cutoff, then dense).
pub fn strassen_flops(n: usize, cutoff: usize) -> f64 {
    if n <= cutoff {
        return gemm::gemm_flops(n);
    }
    let h = n.div_ceil(2);
    7.0 * strassen_flops(h, cutoff) + 18.0 * 8.0 * (h as f64) * (h as f64)
}

/// Multiplication strategy selector shared by the QPE emulation paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MulAlgorithm {
    /// Cache-blocked classical O(n³) GEMM.
    Gemm,
    /// Strassen recursion with the default cutoff.
    Strassen,
}

/// Multiplies with the selected algorithm.
pub fn multiply(a: &CMatrix, b: &CMatrix, algo: MulAlgorithm) -> CMatrix {
    match algo {
        MulAlgorithm::Gemm => gemm::gemm(a, b),
        MulAlgorithm::Strassen => strassen(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_gemm_power_of_two() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_matrix(64, 64, &mut rng);
        let b = random_matrix(64, 64, &mut rng);
        let s = strassen_with_cutoff(&a, &b, 16);
        let g = gemm::gemm(&a, &b);
        assert!(s.max_abs_diff(&g) < 1e-8);
    }

    #[test]
    fn matches_gemm_odd_size() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = random_matrix(45, 45, &mut rng);
        let b = random_matrix(45, 45, &mut rng);
        let s = strassen_with_cutoff(&a, &b, 8);
        let g = gemm::gemm(&a, &b);
        assert!(s.max_abs_diff(&g) < 1e-8);
    }

    #[test]
    fn small_input_falls_back() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = random_matrix(10, 10, &mut rng);
        let b = random_matrix(10, 10, &mut rng);
        assert!(strassen(&a, &b).max_abs_diff(&gemm::gemm(&a, &b)) < 1e-12);
    }

    #[test]
    fn identity_neutral_through_recursion() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = random_matrix(33, 33, &mut rng);
        let i = CMatrix::identity(33);
        assert!(strassen_with_cutoff(&a, &i, 4).max_abs_diff(&a) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "must be square")]
    fn rejects_rectangular() {
        let a = CMatrix::zeros(4, 6);
        let b = CMatrix::zeros(6, 4);
        let _ = strassen(&a, &b);
    }

    #[test]
    fn flop_model_is_subcubic() {
        let dense = gemm::gemm_flops(4096);
        let fast = strassen_flops(4096, 128);
        assert!(
            fast < dense,
            "Strassen flops {fast} should be below dense {dense}"
        );
    }

    #[test]
    fn multiply_dispatch() {
        let mut rng = StdRng::seed_from_u64(15);
        let a = random_matrix(20, 20, &mut rng);
        let b = random_matrix(20, 20, &mut rng);
        let g = multiply(&a, &b, MulAlgorithm::Gemm);
        let s = multiply(&a, &b, MulAlgorithm::Strassen);
        assert!(g.max_abs_diff(&s) < 1e-10);
    }
}
