//! Double-precision complex scalar type.
//!
//! The whole workspace deliberately avoids external numerics crates; every
//! substrate the paper relies on (MKL `zgemm`/`zgeev`, FFTW) is rebuilt from
//! scratch, starting with the scalar type. `C64` is a plain `repr(C)` pair of
//! `f64`s so a `&[C64]` can be reinterpreted as raw interleaved doubles by
//! kernels that want to.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// Layout-compatible with the classic `double complex` used by the paper's
/// MKL calls: two consecutive doubles, real part first.
#[derive(Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Convenience constructor: `c64(re, im)`.
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> C64 {
    C64 { re, im }
}

impl C64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: C64 = c64(0.0, 0.0);
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: C64 = c64(1.0, 0.0);
    /// The imaginary unit, `0 + 1i`.
    pub const I: C64 = c64(0.0, 1.0);

    /// Creates a complex number from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    /// Creates a real-valued complex number.
    #[inline(always)]
    pub const fn from_real(re: f64) -> Self {
        c64(re, 0.0)
    }

    /// Creates a complex number from polar coordinates `r * e^{iθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        c64(r * theta.cos(), r * theta.sin())
    }

    /// `e^{iθ}` — a unit-modulus phase factor. The workhorse of every
    /// twiddle-factor and phase-gate computation in this workspace.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        c64(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Squared modulus `|z|²`. This is the measurement probability of an
    /// amplitude, so it gets a dedicated, branch-free implementation.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`, computed with `hypot` for overflow safety.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        c64(self.re * s, self.im * s)
    }

    /// Reciprocal `1/z` using the Smith algorithm for numerical robustness.
    #[inline]
    pub fn recip(self) -> Self {
        // Smith's method avoids overflow when |re| and |im| differ wildly.
        if self.re.abs() >= self.im.abs() {
            let r = self.im / self.re;
            let d = self.re + self.im * r;
            c64(1.0 / d, -r / d)
        } else {
            let r = self.re / self.im;
            let d = self.re * r + self.im;
            c64(r / d, -1.0 / d)
        }
    }

    /// Complex square root (principal branch).
    #[inline]
    pub fn sqrt(self) -> Self {
        if self.re == 0.0 && self.im == 0.0 {
            return C64::ZERO;
        }
        let m = self.abs();
        let re = ((m + self.re) * 0.5).sqrt();
        let im = ((m - self.re) * 0.5).sqrt();
        c64(re, if self.im >= 0.0 { im } else { -im })
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        c64(r * self.im.cos(), r * self.im.sin())
    }

    /// Integer power by binary exponentiation.
    pub fn powu(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = C64::ONE;
        while e > 0 {
            if e & 1 == 1 {
                acc *= base;
            }
            base *= base;
            e >>= 1;
        }
        acc
    }

    /// Fused multiply-add: `self * b + c`. A single expression so the
    /// optimizer can fuse it; used pervasively by the GEMM micro-kernel.
    #[inline(always)]
    pub fn mul_add(self, b: C64, c: C64) -> C64 {
        c64(
            self.re * b.re - self.im * b.im + c.re,
            self.re * b.im + self.im * b.re + c.im,
        )
    }

    /// `true` if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// `true` if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality with absolute tolerance on both components.
    #[inline]
    pub fn approx_eq(self, other: C64, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline(always)]
    fn add(self, rhs: C64) -> C64 {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline(always)]
    fn sub(self, rhs: C64) -> C64 {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, rhs: C64) -> C64 {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // a / b = a · (1/b), on purpose
    fn div(self, rhs: C64) -> C64 {
        self * rhs.recip()
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline(always)]
    fn neg(self) -> C64 {
        c64(-self.re, -self.im)
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> C64 {
        self.scale(rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline(always)]
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline(always)]
    fn div(self, rhs: f64) -> C64 {
        self.scale(1.0 / rhs)
    }
}

impl AddAssign for C64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for C64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: C64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for C64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl MulAssign<f64> for C64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, rhs: C64) {
        *self = *self / rhs;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a C64> for C64 {
    fn sum<I: Iterator<Item = &'a C64>>(iter: I) -> C64 {
        iter.fold(C64::ZERO, |a, b| a + *b)
    }
}

impl fmt::Debug for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:+.6}{:+.6}i)", self.re, self.im)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    #[test]
    fn constructors_and_constants() {
        assert_eq!(C64::ZERO, c64(0.0, 0.0));
        assert_eq!(C64::ONE, c64(1.0, 0.0));
        assert_eq!(C64::I, c64(0.0, 1.0));
        assert_eq!(C64::from_real(3.5), c64(3.5, 0.0));
        assert_eq!(C64::from(2.0), c64(2.0, 0.0));
    }

    #[test]
    fn add_sub_mul() {
        let a = c64(1.0, 2.0);
        let b = c64(3.0, -4.0);
        assert_eq!(a + b, c64(4.0, -2.0));
        assert_eq!(a - b, c64(-2.0, 6.0));
        // (1+2i)(3-4i) = 3 - 4i + 6i + 8 = 11 + 2i
        assert_eq!(a * b, c64(11.0, 2.0));
    }

    #[test]
    fn division_matches_multiplication_by_recip() {
        let a = c64(1.0, 2.0);
        let b = c64(3.0, -4.0);
        let q = a / b;
        assert!((q * b).approx_eq(a, TOL));
    }

    #[test]
    fn recip_handles_extreme_magnitudes() {
        let z = c64(1e300, 1e-300);
        let r = z.recip();
        assert!(r.is_finite(), "Smith recip must not overflow: {r:?}");
        let z2 = c64(1e-300, 1e300);
        assert!(z2.recip().is_finite());
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!((C64::I * C64::I).approx_eq(c64(-1.0, 0.0), TOL));
    }

    #[test]
    fn conj_norm_arg() {
        let z = c64(3.0, 4.0);
        assert_eq!(z.conj(), c64(3.0, -4.0));
        assert!((z.norm_sqr() - 25.0).abs() < TOL);
        assert!((z.abs() - 5.0).abs() < TOL);
        assert!((c64(0.0, 1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < TOL);
    }

    #[test]
    fn cis_and_from_polar() {
        let t = 0.7;
        let z = C64::cis(t);
        assert!((z.abs() - 1.0).abs() < TOL);
        assert!((z.arg() - t).abs() < TOL);
        let w = C64::from_polar(2.0, -1.1);
        assert!((w.abs() - 2.0).abs() < TOL);
        assert!((w.arg() + 1.1).abs() < TOL);
    }

    #[test]
    fn exp_euler_identity() {
        // e^{iπ} = -1
        let z = (C64::I * std::f64::consts::PI).exp();
        assert!(z.approx_eq(c64(-1.0, 0.0), 1e-12));
    }

    #[test]
    fn sqrt_principal_branch() {
        let z = c64(-4.0, 0.0);
        let s = z.sqrt();
        assert!(s.approx_eq(c64(0.0, 2.0), TOL));
        assert!((s * s).approx_eq(z, 1e-10));
        // sqrt of negative-imaginary stays in the lower half-plane
        let w = c64(0.0, -2.0).sqrt();
        assert!(w.im < 0.0);
        assert!((w * w).approx_eq(c64(0.0, -2.0), 1e-10));
        assert_eq!(C64::ZERO.sqrt(), C64::ZERO);
    }

    #[test]
    fn powu_matches_repeated_multiplication() {
        let z = c64(0.3, -0.8);
        let mut acc = C64::ONE;
        for e in 0..12u64 {
            assert!(z.powu(e).approx_eq(acc, 1e-9), "e = {e}");
            acc *= z;
        }
    }

    #[test]
    fn mul_add_consistency() {
        let a = c64(1.5, -0.5);
        let b = c64(-2.0, 0.25);
        let c = c64(0.1, 0.9);
        assert!(a.mul_add(b, c).approx_eq(a * b + c, TOL));
    }

    #[test]
    fn sum_iterator() {
        let v = vec![c64(1.0, 1.0); 10];
        let s: C64 = v.iter().sum();
        assert!(s.approx_eq(c64(10.0, 10.0), TOL));
        let s2: C64 = v.into_iter().sum();
        assert!(s2.approx_eq(c64(10.0, 10.0), TOL));
    }

    #[test]
    fn assign_ops() {
        let mut z = c64(1.0, 1.0);
        z += c64(1.0, 0.0);
        assert_eq!(z, c64(2.0, 1.0));
        z -= c64(0.0, 1.0);
        assert_eq!(z, c64(2.0, 0.0));
        z *= c64(0.0, 1.0);
        assert_eq!(z, c64(0.0, 2.0));
        z *= 2.0;
        assert_eq!(z, c64(0.0, 4.0));
        z /= c64(0.0, 4.0);
        assert!(z.approx_eq(C64::ONE, TOL));
    }

    #[test]
    fn real_scalar_ops() {
        let z = c64(1.0, -2.0);
        assert_eq!(z * 2.0, c64(2.0, -4.0));
        assert_eq!(2.0 * z, c64(2.0, -4.0));
        assert_eq!(z / 2.0, c64(0.5, -1.0));
        assert_eq!(-z, c64(-1.0, 2.0));
    }

    #[test]
    fn nan_detection() {
        assert!(c64(f64::NAN, 0.0).is_nan());
        assert!(c64(0.0, f64::NAN).is_nan());
        assert!(!c64(1.0, 2.0).is_nan());
        assert!(!c64(f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn layout_is_two_doubles() {
        assert_eq!(std::mem::size_of::<C64>(), 16);
        assert_eq!(std::mem::align_of::<C64>(), 8);
    }
}
