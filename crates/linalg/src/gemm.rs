//! Packed, parallel complex matrix–matrix multiplication.
//!
//! This is the stand-in for the paper's MKL `zgemm` calls (§3.3, Table 2):
//! the dense QPE paths spend most of their time here — the `b − 1`
//! squarings of `U` and the doubling sweep that fills the phase-register
//! slices. The structure is the usual packed one: B is copied once into
//! `GEMM_NR`-column panels and each `MC`-row panel of A into `GEMM_MR`-row
//! panels, both in split real/imaginary form (zero-padded at the edges),
//! and every output tile is one call of the micro-kernel
//! [`simd::gemm_tile`] — AVX2+FMA on hosts that have it, scalar otherwise,
//! chosen by the same run-time check as every other SIMD primitive. Row
//! panels of C are the unit of parallel work.
//!
//! Every entry of C is summed in the same order (ascending `k`, in
//! `KC`-wide blocks) however the rows are split among threads, so results
//! are bit-identical across pool sizes and parallel thresholds.

use crate::complex::C64;
use crate::matrix::CMatrix;
use crate::simd::{self, GEMM_MR as MR, GEMM_NR as NR};
use rayon::prelude::*;

/// Default parallelisation threshold of [`gemm_into`], in matrix **rows
/// / columns** (dimension): below a 64×64 output the serial kernel runs
/// without dispatching to the worker pool.
///
/// Note the units. `qcemu_sim::PAR_THRESHOLD` — the state-vector
/// kernels' configurable analogue — counts **amplitude entries** (2¹⁵),
/// not rows: a 64×64 GEMM does O(64³) flops, comparable work to a
/// ~2¹⁵-entry sweep, so the two defaults agree on *work* while differing
/// in unit. To tune per call, use [`gemm_into_with`], mirroring the
/// `_with` kernel variants in `qcemu_sim`.
pub const GEMM_PAR_THRESHOLD: usize = 64;
/// Reduction block: one packed A panel (`MC × KC`, split re/im) is 64 KiB
/// and one B micro-panel (`KC × GEMM_NR`) 8 KiB, so the micro-panel stays
/// in L1 while the A panel streams from L2.
const KC: usize = 128;
/// Most rows of C per packed A panel — the unit of parallel work.
const MC: usize = 32;

/// `C = A · B` with dimension checks. Allocates the output.
pub fn gemm(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let mut c = CMatrix::zeros(a.nrows(), b.ncols());
    gemm_into(a, b, &mut c);
    c
}

/// `C = A · B` into a pre-allocated output (overwrites `c`), at the
/// default [`GEMM_PAR_THRESHOLD`].
///
/// Panics if shapes are inconsistent.
pub fn gemm_into(a: &CMatrix, b: &CMatrix, c: &mut CMatrix) {
    gemm_into_with(a, b, c, GEMM_PAR_THRESHOLD);
}

/// [`gemm_into`] with an explicit parallelisation threshold in matrix
/// **rows / columns**: outputs smaller than `par_threshold` in both
/// dimensions run the serial kernel without a pool dispatch. Pass
/// `usize::MAX` to force serial execution, `0` to always parallelise.
pub fn gemm_into_with(a: &CMatrix, b: &CMatrix, c: &mut CMatrix, par_threshold: usize) {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(ka, kb, "gemm: inner dimensions differ ({ka} vs {kb})");
    assert_eq!(
        c.shape(),
        (m, n),
        "gemm: output shape {:?} does not match ({m}, {n})",
        c.shape()
    );
    gemm_slices_with(
        a.as_slice(),
        b.as_slice(),
        c.as_mut_slice(),
        (m, ka, n),
        par_threshold,
    );
}

/// `C = A · B` on raw row-major slices — `a` is `m × k`, `b` is `k × n`,
/// `c` is `m × n` and is overwritten — so a caller can multiply row ranges
/// of a larger buffer (the QPE doubling sweep reads and writes the state
/// itself) without copying them into a [`CMatrix`]. `par_threshold` as in
/// [`gemm_into_with`].
///
/// Panics if a slice length does not match its shape.
pub fn gemm_slices_with(
    a: &[C64],
    b: &[C64],
    c: &mut [C64],
    (m, k, n): (usize, usize, usize),
    par_threshold: usize,
) {
    assert_eq!(a.len(), m * k, "gemm: A is not {m}×{k}");
    assert_eq!(b.len(), k * n, "gemm: B is not {k}×{n}");
    assert_eq!(c.len(), m * n, "gemm: C is not {m}×{n}");
    if m == 0 || n == 0 {
        return;
    }
    if m < MR || n < NR || k == 0 {
        thin(a, b, c, k, n);
        return;
    }
    let bp = pack_b(b, k, n);
    // Enough row panels for every thread to take several, none taller
    // than `MC`. The split never changes an entry's summation order.
    let rows = m
        .div_ceil(4 * rayon::current_num_threads())
        .next_multiple_of(MR)
        .min(MC);
    let panel = |(p, c_panel): (usize, &mut [C64])| {
        row_panel(a, &bp, c_panel, p * rows, k, n);
    };
    if (m >= par_threshold || n >= par_threshold) && m > rows {
        c.par_chunks_mut(rows * n).enumerate().for_each(panel);
    } else {
        c.chunks_mut(rows * n).enumerate().for_each(panel);
    }
}

/// `C = A · B` row by row, each row of C a combination of the rows of B:
/// the serial path for products with no full micro-tile (fewer than `MR`
/// rows or `NR` columns — a single row of the QPE doubling sweep, the
/// rank-2 Gram products of `mps::fast_svd`), where packing and padding
/// would cost more than the kernel saves — and for the empty reduction.
fn thin(a: &[C64], b: &[C64], c: &mut [C64], k: usize, n: usize) {
    c.fill(C64::ZERO);
    if k == 0 {
        return;
    }
    for (a_row, c_row) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        // Zero entries are skipped: a Gram product of a sparse state's
        // reshape is mostly zeros.
        for (aik, b_row) in a_row.iter().zip(b.chunks_exact(n)) {
            if *aik == C64::ZERO {
                continue;
            }
            for (cz, bz) in c_row.iter_mut().zip(b_row) {
                *cz = aik.mul_add(*bz, *cz);
            }
        }
    }
}

/// B as `⌈n / NR⌉` column panels, each `k` steps of `NR` real parts then
/// `NR` imaginary parts, zero-padded past column `n`.
fn pack_b(b: &[C64], k: usize, n: usize) -> Vec<f64> {
    let panels = n.div_ceil(NR);
    let mut bp = vec![0.0; panels * k * 2 * NR];
    for (jp, panel) in bp.chunks_exact_mut(k * 2 * NR).enumerate() {
        let j0 = jp * NR;
        let cols = NR.min(n - j0);
        for (p, step) in panel.chunks_exact_mut(2 * NR).enumerate() {
            let (re, im) = step.split_at_mut(NR);
            for (j, z) in b[p * n + j0..p * n + j0 + cols].iter().enumerate() {
                re[j] = z.re;
                im[j] = z.im;
            }
        }
    }
    bp
}

/// Rows `i0 .. i0 + rows` of C (`c_panel`, row-major), one `KC` block of
/// the reduction at a time: pack that block of A's rows into `MR`-row
/// panels, then one micro-tile per (`MR` rows, `NR` columns).
fn row_panel(a: &[C64], bp: &[f64], c_panel: &mut [C64], i0: usize, k: usize, n: usize) {
    let rows = c_panel.len() / n;
    let row_panels = rows.div_ceil(MR);
    let mut ap = vec![0.0; row_panels * KC.min(k) * 2 * MR];
    for kk in (0..k).step_by(KC) {
        let kc = KC.min(k - kk);
        for (ip, panel) in ap
            .chunks_exact_mut(kc * 2 * MR)
            .take(row_panels)
            .enumerate()
        {
            let r0 = ip * MR;
            for (p, step) in panel.chunks_exact_mut(2 * MR).enumerate() {
                let (re, im) = step.split_at_mut(MR);
                for i in 0..MR.min(rows - r0) {
                    let z = a[(i0 + r0 + i) * k + kk + p];
                    re[i] = z.re;
                    im[i] = z.im;
                }
            }
        }
        for jp in 0..n.div_ceil(NR) {
            let j0 = jp * NR;
            let b_panel = &bp[(jp * k + kk) * 2 * NR..][..kc * 2 * NR];
            for ip in 0..row_panels {
                let r0 = ip * MR;
                let (re, im) = simd::gemm_tile(kc, &ap[ip * kc * 2 * MR..], b_panel);
                for i in 0..MR.min(rows - r0) {
                    let c_row = &mut c_panel[(r0 + i) * n + j0..];
                    for (j, cz) in c_row.iter_mut().take(NR.min(n - j0)).enumerate() {
                        let t = C64::new(re[i][j], im[i][j]);
                        *cz = if kk == 0 { t } else { *cz + t };
                    }
                }
            }
        }
    }
}

/// Reference O(n³) triple loop used by tests to validate the blocked kernel.
pub fn gemm_naive(a: &CMatrix, b: &CMatrix) -> CMatrix {
    let (m, ka) = a.shape();
    let (kb, n) = b.shape();
    assert_eq!(ka, kb, "gemm_naive: inner dimensions differ");
    let mut c = CMatrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = C64::ZERO;
            for kk in 0..ka {
                acc = a[(i, kk)].mul_add(b[(kk, j)], acc);
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// Floating point operation count of one `n×n` complex GEMM
/// (8 real flops per complex multiply-add).
pub fn gemm_flops(n: usize) -> f64 {
    8.0 * (n as f64).powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::random::random_matrix;
    use crate::simd::{scalar_lock, ForcedScalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = random_matrix(17, 17, &mut rng);
        let i = CMatrix::identity(17);
        let left = gemm(&i, &a);
        let right = gemm(&a, &i);
        assert!(left.max_abs_diff(&a) < 1e-12);
        assert!(right.max_abs_diff(&a) < 1e-12);
    }

    /// Square sizes below, at and past one micro-tile, one row panel and
    /// one reduction block.
    const SQUARE: [usize; 13] = [1, 2, 3, 4, 5, 7, 8, 16, 17, 63, 64, 65, 128];
    /// The QPE doubling sweep's tall product, a single row, and the two
    /// Gram products of `mps::fast_svd`.
    const RECTANGLES: [(usize, usize, usize); 4] =
        [(1024, 128, 128), (1, 128, 128), (4, 4096, 4), (4, 4, 4096)];

    /// Runs `f` with the scalar path forced, or on the native path while
    /// holding the switch's lock so no other test flips it meanwhile.
    fn in_mode<T>(scalar: bool, f: impl FnOnce() -> T) -> T {
        let _native = (!scalar).then(scalar_lock);
        let _forced = scalar.then(ForcedScalar::engage);
        f()
    }

    /// The packed kernel against `gemm_naive`, native and forced scalar.
    fn check_against_naive(shapes: impl IntoIterator<Item = (usize, usize, usize)>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for (m, k, n) in shapes {
            let a = random_matrix(m, k, &mut rng);
            let b = random_matrix(k, n, &mut rng);
            let want = gemm_naive(&a, &b);
            for scalar in [false, true] {
                let err = in_mode(scalar, || gemm(&a, &b)).max_abs_diff(&want);
                assert!(
                    err < 1e-12 * k as f64,
                    "(m, k, n) = ({m}, {k}, {n}), scalar = {scalar}: off naive by {err}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_on_random_square() {
        check_against_naive(SQUARE.map(|s| (s, s, s)), 2);
    }

    #[test]
    fn matches_naive_on_rectangular() {
        check_against_naive(RECTANGLES, 3);
    }

    #[test]
    fn explicit_threshold_matches_default_either_side() {
        // Within each mode, forced-serial and forced-parallel runs on any
        // pool size agree bit-for-bit with the default-threshold result:
        // the row split never changes an entry's summation order.
        let mut rng = StdRng::seed_from_u64(6);
        let pools = [1, 2, 3].map(|t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
        });
        let shapes = SQUARE.map(|s| (s, s, s)).into_iter().chain(RECTANGLES);
        for (m, k, n) in shapes {
            let a = random_matrix(m, k, &mut rng);
            let b = random_matrix(k, n, &mut rng);
            for scalar in [false, true] {
                let _native = (!scalar).then(scalar_lock);
                let _forced = scalar.then(ForcedScalar::engage);
                let dflt = gemm(&a, &b);
                for (pool, threads) in pools.iter().zip(1..) {
                    for thr in [0, usize::MAX] {
                        let mut c = random_matrix(m, n, &mut rng); // overwritten
                        pool.install(|| gemm_into_with(&a, &b, &mut c, thr));
                        assert!(
                            c == dflt,
                            "(m, k, n) = ({m}, {k}, {n}), scalar = {scalar}, \
                             threads = {threads}, par_threshold = {thr}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn associativity_on_random_triples() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = random_matrix(20, 30, &mut rng);
        let b = random_matrix(30, 10, &mut rng);
        let c = random_matrix(10, 25, &mut rng);
        let ab_c = gemm(&gemm(&a, &b), &c);
        let a_bc = gemm(&a, &gemm(&b, &c));
        assert!(ab_c.max_abs_diff(&a_bc) < 1e-8);
    }

    #[test]
    fn complex_entries_multiply_correctly() {
        // [i 0; 0 i] * [i 0; 0 i] = -I
        let im = CMatrix::from_diagonal(&[C64::I, C64::I]);
        let sq = gemm(&im, &im);
        assert!(sq.max_abs_diff(&CMatrix::identity(2).scale(c64(-1.0, 0.0))) < 1e-15);
    }

    #[test]
    fn zero_dimension_is_ok() {
        let a = CMatrix::zeros(0, 5);
        let b = CMatrix::zeros(5, 3);
        let c = gemm(&a, &b);
        assert_eq!(c.shape(), (0, 3));
        // An empty reduction is the zero matrix, not the old contents.
        let mut c = CMatrix::identity(3);
        gemm_into(&CMatrix::zeros(3, 0), &CMatrix::zeros(0, 3), &mut c);
        assert_eq!(c, CMatrix::zeros(3, 3));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dimension_mismatch_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(4, 2);
        let _ = gemm(&a, &b);
    }

    #[test]
    fn gemm_into_reuses_buffer() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = random_matrix(12, 12, &mut rng);
        let b = random_matrix(12, 12, &mut rng);
        let mut c = random_matrix(12, 12, &mut rng); // garbage, must be overwritten
        gemm_into(&a, &b, &mut c);
        assert!(c.max_abs_diff(&gemm_naive(&a, &b)) < 1e-10);
    }

    #[test]
    fn slice_entry_multiplies_row_ranges_of_one_buffer() {
        // Rows [0, 3) of a buffer times B into rows [3, 6) of the same
        // buffer: the doubling step of the QPE sweep.
        let mut rng = StdRng::seed_from_u64(7);
        let a = random_matrix(3, 5, &mut rng);
        let b = random_matrix(5, 5, &mut rng);
        let mut buf = a.as_slice().to_vec();
        buf.resize(30, C64::ZERO);
        let (src, dst) = buf.split_at_mut(15);
        gemm_slices_with(src, b.as_slice(), dst, (3, 5, 5), GEMM_PAR_THRESHOLD);
        let want = gemm_naive(&a, &b);
        assert!(crate::max_abs_diff(dst, want.as_slice()) < 1e-12);
        assert_eq!(src, a.as_slice());
    }

    #[test]
    fn flops_model() {
        assert_eq!(gemm_flops(2) as u64, 64);
    }
}
