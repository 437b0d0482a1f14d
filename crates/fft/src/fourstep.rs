//! The `N1 × N2` view of a transform that the distributed FFT is built on.
//!
//! The paper's Eq. (5) models the distributed 1-D FFT as local work plus
//! **three all-to-all transpositions** — Bailey's four-step decomposition
//! [Bailey 1990] of the length-N input viewed as an N1×N2 matrix.
//! `qcemu-cluster` runs that structure with real message passing and takes
//! its split from [`square_split`]. On one node the transposes are not
//! exchanges but cache misses, so [`fft_four_step`] does not perform them:
//! it is the same transform by the cache-blocked engine
//! ([`crate::engine`]), which applies the identical factorisation — column
//! transforms, inter-step twiddle, row transforms — to tiles in place.

use crate::plan::{Direction, Normalization};
use crate::radix2::fft;
use qcemu_linalg::C64;

/// FFT of `data` (length `n1 * n2`, both powers of two) — the DFT of the
/// input in natural order, equal to [`crate::fft_inplace`] and to the
/// distributed four-step with the same split up to floating-point
/// rounding.
pub fn fft_four_step(data: &mut [C64], n1: usize, n2: usize, dir: Direction, norm: Normalization) {
    assert_eq!(data.len(), n1 * n2, "fft_four_step: data length mismatch");
    assert!(n1.is_power_of_two() && n2.is_power_of_two());
    fft(data, dir, norm);
}

/// Splits `n = 2^k` into the most square `(n1, n2)` pair, matching how the
/// distributed FFT splits across `P` nodes × local size.
pub fn square_split(n: usize) -> (usize, usize) {
    assert!(n.is_power_of_two());
    let k = n.trailing_zeros();
    let k1 = k / 2;
    (1usize << k1, 1usize << (k - k1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix2::fft;
    use qcemu_linalg::{max_abs_diff, random_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn four_step_matches_radix2_square_split() {
        let mut rng = StdRng::seed_from_u64(61);
        for log2n in [2usize, 4, 6, 8, 10] {
            let n = 1 << log2n;
            let (n1, n2) = square_split(n);
            let input = random_state(n, &mut rng);
            let mut four = input.clone();
            fft_four_step(&mut four, n1, n2, Direction::Forward, Normalization::None);
            let mut two = input.clone();
            fft(&mut two, Direction::Forward, Normalization::None);
            assert!(
                max_abs_diff(&four, &two) < 1e-9 * n as f64,
                "mismatch at n = {n}"
            );
        }
    }

    #[test]
    fn four_step_matches_radix2_skewed_splits() {
        let mut rng = StdRng::seed_from_u64(62);
        let n = 256;
        let input = random_state(n, &mut rng);
        for (n1, n2) in [(2, 128), (4, 64), (64, 4), (128, 2), (1, 256), (256, 1)] {
            let mut four = input.clone();
            fft_four_step(&mut four, n1, n2, Direction::Forward, Normalization::None);
            let mut two = input.clone();
            fft(&mut two, Direction::Forward, Normalization::None);
            assert!(
                max_abs_diff(&four, &two) < 1e-9,
                "mismatch at split ({n1},{n2})"
            );
        }
    }

    #[test]
    fn four_step_inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(63);
        let n = 1024;
        let (n1, n2) = square_split(n);
        let input = random_state(n, &mut rng);
        let mut data = input.clone();
        fft_four_step(&mut data, n1, n2, Direction::Inverse, Normalization::Sqrt);
        fft_four_step(&mut data, n1, n2, Direction::Forward, Normalization::Sqrt);
        assert!(max_abs_diff(&data, &input) < 1e-10);
    }

    #[test]
    fn square_split_balances() {
        assert_eq!(square_split(16), (4, 4));
        assert_eq!(square_split(32), (4, 8));
        assert_eq!(square_split(2), (1, 2));
        assert_eq!(square_split(1), (1, 1));
    }
}
