//! FFT plans: the pass structure and twiddle tables of one transform size.
//!
//! A [`FftPlan`] plays the role FFTW/MKL plans play in the paper: all
//! trigonometry is hoisted out of the transform so the butterfly loops touch
//! only memory and multiplies. A plan holds per-stage contiguous twiddle
//! tables for at most one cache block plus `O(√N)` roots for the inter-step
//! twiddles of longer transforms (see [`crate::engine`]), so building one
//! costs microseconds at any size and callers that plan per call lose
//! nothing.

use crate::engine::AxisPlan;

/// Transform direction. `Forward` uses the engineering sign convention
/// `e^{-2πi jk/N}`; `Inverse` uses `e^{+2πi jk/N}`.
///
/// Note the **quantum Fourier transform** of the paper (Eq. 4) has a `+`
/// sign and 1/√N normalisation, i.e. it is `Inverse` + [`Normalization::Sqrt`]
/// in this crate's vocabulary. [`crate::qft_convention`] packages that.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Negative exponent, `Σ x_j e^{-2πi jk/N}`.
    Forward,
    /// Positive exponent, `Σ x_j e^{+2πi jk/N}`.
    Inverse,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::Forward => Direction::Inverse,
            Direction::Inverse => Direction::Forward,
        }
    }
}

/// Output scaling applied after the butterflies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Normalization {
    /// No scaling (classical FFT convention for `Forward`).
    None,
    /// Multiply by `1/√N` — makes the transform unitary; this is the QFT
    /// normalisation of paper Eq. 4.
    Sqrt,
    /// Multiply by `1/N` (classical convention for `Inverse`).
    Full,
}

impl Normalization {
    /// The scale factor for a transform of size `n`.
    pub fn factor(self, n: usize) -> f64 {
        match self {
            Normalization::None => 1.0,
            Normalization::Sqrt => 1.0 / (n as f64).sqrt(),
            Normalization::Full => 1.0 / n as f64,
        }
    }
}

/// The planned passes and tables of a size-`2^log2n` transform.
pub struct FftPlan {
    n: usize,
    log2n: u32,
    axis: AxisPlan,
}

impl FftPlan {
    /// Builds a plan for size `n`, which must be a power of two.
    pub fn new(n: usize) -> FftPlan {
        assert!(
            n.is_power_of_two(),
            "FFT size must be a power of two, got {n}"
        );
        let log2n = n.trailing_zeros();
        FftPlan {
            n,
            log2n,
            axis: AxisPlan::new(1, log2n as usize),
        }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate size-1 plan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// log₂ of the transform size.
    #[inline]
    pub fn log2_len(&self) -> u32 {
        self.log2n
    }

    #[inline]
    pub(crate) fn axis(&self) -> &AxisPlan {
        &self.axis
    }
}

/// Reverses the lowest `bits` bits of `x`.
#[inline]
pub fn reverse_bits(x: u32, bits: u32) -> u32 {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (32 - bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcemu_linalg::C64;

    #[test]
    fn reverse_bits_basics() {
        assert_eq!(reverse_bits(0b001, 3), 0b100);
        assert_eq!(reverse_bits(0b110, 3), 0b011);
        assert_eq!(reverse_bits(0, 0), 0);
        assert_eq!(reverse_bits(1, 1), 1);
        assert_eq!(reverse_bits(0b1011, 4), 0b1101);
    }

    #[test]
    fn bitrev_is_an_involution() {
        for bits in 0..=10 {
            for i in 0..1u32 << bits {
                let r = reverse_bits(i, bits);
                assert!(r < 1 << bits);
                assert_eq!(reverse_bits(r, bits), i);
            }
        }
    }

    #[test]
    fn twiddles_are_unit_roots() {
        // A transform of a shifted impulse is the plan's twiddles laid out
        // in order: X_k = e^{-2πi k/N}.
        for n in [2usize, 16, 128, 1 << 15] {
            let plan = FftPlan::new(n);
            let mut data = vec![C64::ZERO; n];
            data[1] = C64::ONE;
            crate::fft_inplace(&plan, &mut data, Direction::Forward, Normalization::None);
            for (k, t) in data.iter().enumerate() {
                assert!((t.abs() - 1.0).abs() < 1e-14);
                let expect = C64::cis(-std::f64::consts::TAU * k as f64 / n as f64);
                assert!(t.approx_eq(expect, 1e-14), "n = {n}, k = {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = FftPlan::new(12);
    }

    #[test]
    fn normalization_factors() {
        assert_eq!(Normalization::None.factor(256), 1.0);
        assert!((Normalization::Sqrt.factor(256) - 1.0 / 16.0).abs() < 1e-15);
        assert!((Normalization::Full.factor(256) - 1.0 / 256.0).abs() < 1e-15);
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Forward.flip(), Direction::Inverse);
        assert_eq!(Direction::Inverse.flip(), Direction::Forward);
    }
}
