//! Complex SIMD primitives: split-lane `C64x4` math behind a runtime
//! dispatch.
//!
//! Every hot loop in the workspace — the state-vector butterfly, the
//! diagonal/phase sweep, the fused-block gather–matvec–scatter, the FFT
//! butterfly and the dense mat-vec — bottoms out in a handful of
//! *slice-level* complex operations. This module owns those operations
//! and gives each one two implementations:
//!
//! * a **scalar** path, plain safe Rust over `C64`, bit-identical to the
//!   loops the callers used to inline (the only path on non-x86-64
//!   targets and on hosts without AVX2, and the reference every
//!   equivalence test forces);
//! * an **AVX2+FMA** path (compiled into every x86-64 build), using
//!   `core::arch` intrinsics on a split-lane representation: four
//!   complex numbers per register pair, real parts in one `__m256d`,
//!   imaginary parts in the other, so a complex multiply is four fused
//!   multiply-adds with no in-register shuffling.
//!
//! Dispatch is *runtime*: the first call probes
//! `is_x86_feature_detected!("avx2")` + `"fma"` and caches the verdict,
//! so the same binary runs correctly (on the scalar path) on hosts
//! without AVX2. That probe is the only thing that selects a path;
//! [`force_scalar`] overrides it for tests and the scalar-vs-SIMD
//! benchmark rows.
//!
//! ## Layout
//!
//! `C64` is `repr(C)` — a `&[C64]` *is* a sequence of interleaved
//! `re, im` doubles. The AVX2 path loads four consecutive complex
//! numbers as two 256-bit registers and de-interleaves with
//! `unpacklo/unpackhi` into split lanes (in the self-consistent lane
//! order `[z0, z2, z1, z3]` — permuted, but identically on load and
//! store, so element-wise kernels and reductions never notice).
//!
//! Results can differ from the scalar path by floating-point rounding
//! only (FMA contraction, reassociated reduction order in [`cdot`]);
//! the `simd_equivalence` proptests in `qcemu-sim` pin the agreement to
//! 1e-12 across every kernel.

use crate::complex::C64;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Complex elements processed per vector iteration by the accelerated
/// paths (4 × `f64` re-lanes + 4 × `f64` im-lanes = one AVX2 register
/// pair). Kernels use this to decide when a contiguous run is long
/// enough to vectorise; `LANES.trailing_zeros()` is the `lane_log2`
/// threshold of the contiguous-target butterfly fast path.
pub const LANES: usize = 4;

/// Forces the scalar fallback even on AVX2 hosts (tests, benchmark
/// baselines). Affects all threads; flip back with `force_scalar(false)`.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// 0 = not probed yet, 1 = scalar only, 2 = AVX2+FMA available.
static DETECTED: AtomicU8 = AtomicU8::new(0);

/// `true` when calls will take the AVX2+FMA path: the host is x86-64 with
/// AVX2 and FMA, and [`force_scalar`] is off.
#[inline]
pub fn simd_active() -> bool {
    !FORCE_SCALAR.load(Ordering::Relaxed) && avx2_available()
}

/// One-line description of the active backend (for bench headers).
pub fn backend_name() -> &'static str {
    if simd_active() {
        "avx2+fma (4 lanes)"
    } else if avx2_available() {
        "scalar (avx2 available, forced off)"
    } else {
        "scalar"
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn avx2_available() -> bool {
    match DETECTED.load(Ordering::Relaxed) {
        0 => {
            let ok = std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma");
            DETECTED.store(if ok { 2 } else { 1 }, Ordering::Relaxed);
            ok
        }
        v => v == 2,
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn avx2_available() -> bool {
    // Keep the probe state machine alive so `backend_name` is honest.
    DETECTED.store(1, Ordering::Relaxed);
    false
}

// ---------------------------------------------------------------------------
// Public slice-level operations (runtime-dispatched).
// ---------------------------------------------------------------------------

/// In-place 2×2 butterfly over two equal-length runs:
/// `(lo[j], hi[j]) ← (m00·lo[j] + m01·hi[j], m10·lo[j] + m11·hi[j])`.
///
/// This is one (controlled) general gate applied to a contiguous pair
/// run — the shape `qcemu-sim`'s butterfly driver hands out when the
/// target qubit sits above the low `log2(LANES)` bits.
///
/// # Panics
///
/// Panics if `lo.len() != hi.len()`.
pub fn butterfly_slices(lo: &mut [C64], hi: &mut [C64], m: &[[C64; 2]; 2]) {
    assert_eq!(lo.len(), hi.len(), "butterfly runs must have equal length");
    // Real-matrix fast path: H, Rx/Ry-style mixers, and every real
    // rotation have a real 2×2, and scaling a complex number by a real
    // commutes with the re/im interleave — so the butterfly becomes four
    // elementwise real multiply-adds over the raw f64 lanes. That halves
    // the flops and (on the vector path) removes every shuffle; the
    // results are bit-identical to the generic complex arithmetic because
    // the dropped products are exact multiplications by zero.
    if m[0][0].im == 0.0 && m[0][1].im == 0.0 && m[1][0].im == 0.0 && m[1][1].im == 0.0 {
        let r = [m[0][0].re, m[0][1].re, m[1][0].re, m[1][1].re];
        #[cfg(target_arch = "x86_64")]
        if simd_active() {
            // SAFETY: AVX2+FMA presence was verified at runtime.
            unsafe { avx2::butterfly_slices_real(lo, hi, &r) };
            return;
        }
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let x = *a;
            let y = *b;
            *a = x.scale(r[0]) + y.scale(r[1]);
            *b = x.scale(r[2]) + y.scale(r[3]);
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA presence was verified at runtime.
        unsafe { avx2::butterfly_slices(lo, hi, m) };
        return;
    }
    butterfly_slices_scalar(lo, hi, m);
}

/// Scalar twin of [`butterfly_slices`] (kept public so equivalence tests
/// can pin the SIMD path against it without toggling globals).
pub fn butterfly_slices_scalar(lo: &mut [C64], hi: &mut [C64], m: &[[C64; 2]; 2]) {
    for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
        let x = *a;
        let y = *b;
        *a = m[0][0] * x + m[0][1] * y;
        *b = m[1][0] * x + m[1][1] * y;
    }
}

/// Per-lane real Givens rotation over two equal-length runs:
/// `(lo[j], hi[j]) ← (c_j·lo[j] − s_j·hi[j], s_j·lo[j] + c_j·hi[j])`,
/// where each **f64 lane** `t` carries its own coefficients `cos[t]`,
/// `sin[t]` (so `cos`/`sin` are `2·len` long, with each complex element's
/// two lanes holding the same value).
///
/// This is the batched controlled-rotation kernel: a batch-major run
/// holds one amplitude pair for every ensemble member, and every member
/// rotates by its *own* angle — a single shared matrix
/// ([`butterfly_slices`]) cannot express that, per-lane coefficients can.
///
/// # Panics
///
/// Panics if the run lengths differ or the coefficient slices are not
/// exactly `2·lo.len()` lanes.
pub fn rotate_lanes(lo: &mut [C64], hi: &mut [C64], cos: &[f64], sin: &[f64]) {
    assert_eq!(lo.len(), hi.len(), "rotation runs must have equal length");
    assert_eq!(cos.len(), 2 * lo.len(), "one cosine per f64 lane");
    assert_eq!(sin.len(), 2 * lo.len(), "one sine per f64 lane");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA presence was verified at runtime.
        unsafe { avx2::rotate_lanes(lo, hi, cos, sin) };
        return;
    }
    rotate_lanes_scalar(lo, hi, cos, sin);
}

/// Scalar twin of [`rotate_lanes`] (public for equivalence pinning).
pub fn rotate_lanes_scalar(lo: &mut [C64], hi: &mut [C64], cos: &[f64], sin: &[f64]) {
    for (j, (a, b)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
        let (c, s) = (cos[2 * j], sin[2 * j]);
        let x = *a;
        let y = *b;
        *a = x.scale(c) - y.scale(s);
        *b = x.scale(s) + y.scale(c);
    }
}

/// Multiplies every element of `xs` by the complex factor `f` — the
/// diagonal/phase sweep over a contiguous run.
pub fn scale_slice(xs: &mut [C64], f: C64) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA presence was verified at runtime.
        unsafe { avx2::scale_slice(xs, f) };
        return;
    }
    for z in xs.iter_mut() {
        *z *= f;
    }
}

/// Swaps two equal-length runs element-wise — the data movement of a
/// batched X/SWAP kernel, where every basis index owns a contiguous run
/// of `batch` amplitudes. Completes the batched-run primitive set next
/// to [`scale_slice`] (diagonal sweeps) and [`butterfly_slices`] (2×2
/// mixing): all three accept arbitrary run lengths, so batch-axis
/// execution vectorises at any qubit position. Delegates to the standard
/// library's `swap_with_slice`, which lowers to wide vector moves; kept
/// as a named entry point so a specialised path (e.g. non-temporal
/// stores for cache-capacity batches) can slot in without touching the
/// kernel drivers.
pub fn swap_slices(a: &mut [C64], b: &mut [C64]) {
    assert_eq!(a.len(), b.len(), "swap_slices: length mismatch");
    a.swap_with_slice(b);
}

/// Multiplies every element of `xs` by a real factor (FFT normalisation).
pub fn scale_slice_real(xs: &mut [C64], f: f64) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA presence was verified at runtime.
        unsafe { avx2::scale_slice_real(xs, f) };
        return;
    }
    for z in xs.iter_mut() {
        *z *= f;
    }
}

/// Unconjugated complex dot product `Σ_j a[j]·b[j]` over the common
/// prefix of the two slices — the row×vector core of the fused dense
/// block product and `CMatrix::matvec`.
///
/// The SIMD path accumulates four partial sums per lane and reduces at
/// the end, so the summation *order* differs from the scalar loop; both
/// are exact for exact inputs and agree to rounding otherwise.
pub fn cdot(a: &[C64], b: &[C64]) -> C64 {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA presence was verified at runtime.
        return unsafe { avx2::cdot(a, b) };
    }
    let mut acc = C64::ZERO;
    for (x, y) in a.iter().zip(b.iter()) {
        acc = x.mul_add(*y, acc);
    }
    acc
}

/// Radix-2 FFT butterfly over two half-block runs with a strided
/// twiddle table: for each `j`,
/// `t = w_j · hi[j]; (lo[j], hi[j]) ← (lo[j] + t, lo[j] − t)` where
/// `w_j = twiddles[start + j·stride]`, conjugated when `conj` is set
/// (the inverse transform).
///
/// # Panics
///
/// Panics if `lo.len() != hi.len()` or the twiddle table is too short.
pub fn fft_butterfly(
    lo: &mut [C64],
    hi: &mut [C64],
    twiddles: &[C64],
    start: usize,
    stride: usize,
    conj: bool,
) {
    assert_eq!(lo.len(), hi.len(), "butterfly runs must have equal length");
    if !lo.is_empty() {
        let last = start + (lo.len() - 1) * stride;
        assert!(last < twiddles.len(), "twiddle table too short");
    }
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA presence was verified at runtime; bounds
        // were checked above.
        unsafe { avx2::fft_butterfly(lo, hi, twiddles, start, stride, conj) };
        return;
    }
    for (j, (a, b)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
        let mut w = twiddles[start + j * stride];
        if conj {
            w = w.conj();
        }
        let t = w * *b;
        let u = *a;
        *a = u + t;
        *b = u - t;
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA implementations (x86-64).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::C64;
    use std::arch::x86_64::*;

    /// Four complex numbers in split lanes. Lane order after a
    /// [`load4`] is `[z0, z2, z1, z3]` — permuted, but [`store4`] is
    /// the exact inverse, so element-wise kernels round-trip and
    /// reductions are order-insensitive.
    #[derive(Copy, Clone)]
    struct C64x4 {
        re: __m256d,
        im: __m256d,
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load4(p: *const C64) -> C64x4 {
        let p = p as *const f64;
        let v0 = _mm256_loadu_pd(p); // r0 i0 r1 i1
        let v1 = _mm256_loadu_pd(p.add(4)); // r2 i2 r3 i3
        C64x4 {
            re: _mm256_unpacklo_pd(v0, v1), // r0 r2 r1 r3
            im: _mm256_unpackhi_pd(v0, v1), // i0 i2 i1 i3
        }
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store4(p: *mut C64, v: C64x4) {
        let p = p as *mut f64;
        _mm256_storeu_pd(p, _mm256_unpacklo_pd(v.re, v.im));
        _mm256_storeu_pd(p.add(4), _mm256_unpackhi_pd(v.re, v.im));
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn splat(z: C64) -> C64x4 {
        C64x4 {
            re: _mm256_set1_pd(z.re),
            im: _mm256_set1_pd(z.im),
        }
    }

    /// `a·b` with the usual four-FMA split-lane complex product.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn mul(a: C64x4, b: C64x4) -> C64x4 {
        C64x4 {
            re: _mm256_fmsub_pd(a.re, b.re, _mm256_mul_pd(a.im, b.im)),
            im: _mm256_fmadd_pd(a.re, b.im, _mm256_mul_pd(a.im, b.re)),
        }
    }

    /// `a·b + c` (fused; the accumulator form used by [`cdot`]).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn mul_acc(a: C64x4, b: C64x4, c: C64x4) -> C64x4 {
        C64x4 {
            re: _mm256_fnmadd_pd(a.im, b.im, _mm256_fmadd_pd(a.re, b.re, c.re)),
            im: _mm256_fmadd_pd(a.im, b.re, _mm256_fmadd_pd(a.re, b.im, c.im)),
        }
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn add(a: C64x4, b: C64x4) -> C64x4 {
        C64x4 {
            re: _mm256_add_pd(a.re, b.re),
            im: _mm256_add_pd(a.im, b.im),
        }
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sub(a: C64x4, b: C64x4) -> C64x4 {
        C64x4 {
            re: _mm256_sub_pd(a.re, b.re),
            im: _mm256_sub_pd(a.im, b.im),
        }
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: C64x4) -> C64 {
        let mut re = [0.0f64; 4];
        let mut im = [0.0f64; 4];
        _mm256_storeu_pd(re.as_mut_ptr(), v.re);
        _mm256_storeu_pd(im.as_mut_ptr(), v.im);
        C64 {
            re: (re[0] + re[1]) + (re[2] + re[3]),
            im: (im[0] + im[1]) + (im[2] + im[3]),
        }
    }

    /// Real-matrix butterfly over the raw f64 lanes — no re/im
    /// deinterleave needed because real scaling acts on both components
    /// identically. `r = [m00, m01, m10, m11]`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn butterfly_slices_real(lo: &mut [C64], hi: &mut [C64], r: &[f64; 4]) {
        let n = lo.len() * 2; // f64 lanes
        let (m00, m01, m10, m11) = (
            _mm256_set1_pd(r[0]),
            _mm256_set1_pd(r[1]),
            _mm256_set1_pd(r[2]),
            _mm256_set1_pd(r[3]),
        );
        let lp = lo.as_mut_ptr() as *mut f64;
        let hp = hi.as_mut_ptr() as *mut f64;
        let mut j = 0;
        while j + 4 <= n {
            let x = _mm256_loadu_pd(lp.add(j));
            let y = _mm256_loadu_pd(hp.add(j));
            _mm256_storeu_pd(lp.add(j), _mm256_fmadd_pd(m01, y, _mm256_mul_pd(m00, x)));
            _mm256_storeu_pd(hp.add(j), _mm256_fmadd_pd(m11, y, _mm256_mul_pd(m10, x)));
            j += 4;
        }
        while j < n {
            let x = *lp.add(j);
            let y = *hp.add(j);
            *lp.add(j) = r[1].mul_add(y, r[0] * x);
            *hp.add(j) = r[3].mul_add(y, r[2] * x);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn butterfly_slices(lo: &mut [C64], hi: &mut [C64], m: &[[C64; 2]; 2]) {
        let n = lo.len();
        let (m00, m01, m10, m11) = (
            splat(m[0][0]),
            splat(m[0][1]),
            splat(m[1][0]),
            splat(m[1][1]),
        );
        let lp = lo.as_mut_ptr();
        let hp = hi.as_mut_ptr();
        let mut j = 0;
        while j + 4 <= n {
            let x = load4(lp.add(j));
            let y = load4(hp.add(j));
            store4(lp.add(j), mul_acc(m01, y, mul(m00, x)));
            store4(hp.add(j), mul_acc(m11, y, mul(m10, x)));
            j += 4;
        }
        super::butterfly_slices_scalar(&mut lo[j..], &mut hi[j..], m);
    }

    /// Per-lane Givens rotation on raw f64 lanes (see
    /// [`super::rotate_lanes`]) — straight elementwise FMA, no shuffles.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn rotate_lanes(lo: &mut [C64], hi: &mut [C64], cos: &[f64], sin: &[f64]) {
        let n = lo.len() * 2; // f64 lanes
        let lp = lo.as_mut_ptr() as *mut f64;
        let hp = hi.as_mut_ptr() as *mut f64;
        let cp = cos.as_ptr();
        let sp = sin.as_ptr();
        let mut j = 0;
        while j + 4 <= n {
            let x = _mm256_loadu_pd(lp.add(j));
            let y = _mm256_loadu_pd(hp.add(j));
            let c = _mm256_loadu_pd(cp.add(j));
            let s = _mm256_loadu_pd(sp.add(j));
            _mm256_storeu_pd(lp.add(j), _mm256_fmsub_pd(c, x, _mm256_mul_pd(s, y)));
            _mm256_storeu_pd(hp.add(j), _mm256_fmadd_pd(c, y, _mm256_mul_pd(s, x)));
            j += 4;
        }
        while j < n {
            let (c, s) = (*cp.add(j), *sp.add(j));
            let x = *lp.add(j);
            let y = *hp.add(j);
            *lp.add(j) = c * x - s * y;
            *hp.add(j) = s * x + c * y;
            j += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn scale_slice(xs: &mut [C64], f: C64) {
        let n = xs.len();
        let fv = splat(f);
        let p = xs.as_mut_ptr();
        let mut j = 0;
        while j + 4 <= n {
            store4(p.add(j), mul(load4(p.add(j)), fv));
            j += 4;
        }
        for z in &mut xs[j..] {
            *z *= f;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn scale_slice_real(xs: &mut [C64], f: f64) {
        let n = xs.len() * 2; // doubles
        let fv = _mm256_set1_pd(f);
        let p = xs.as_mut_ptr() as *mut f64;
        let mut j = 0;
        while j + 4 <= n {
            _mm256_storeu_pd(p.add(j), _mm256_mul_pd(_mm256_loadu_pd(p.add(j)), fv));
            j += 4;
        }
        while j < n {
            *p.add(j) *= f;
            j += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn cdot(a: &[C64], b: &[C64]) -> C64 {
        let n = a.len().min(b.len());
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = C64x4 {
            re: _mm256_setzero_pd(),
            im: _mm256_setzero_pd(),
        };
        let mut j = 0;
        while j + 4 <= n {
            acc = mul_acc(load4(ap.add(j)), load4(bp.add(j)), acc);
            j += 4;
        }
        let mut tail = hsum(acc);
        while j < n {
            tail = (*ap.add(j)).mul_add(*bp.add(j), tail);
            j += 1;
        }
        tail
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fft_butterfly(
        lo: &mut [C64],
        hi: &mut [C64],
        twiddles: &[C64],
        start: usize,
        stride: usize,
        conj: bool,
    ) {
        let n = lo.len();
        let lp = lo.as_mut_ptr();
        let hp = hi.as_mut_ptr();
        let tp = twiddles.as_ptr();
        let neg = if conj { -1.0 } else { 1.0 };
        let mut j = 0;
        while j + 4 <= n {
            // Twiddles are strided; gather them scalar (four loads) into
            // split lanes in the same permuted order as load4.
            let k = start + j * stride;
            let (w0, w1, w2, w3) = (
                *tp.add(k),
                *tp.add(k + stride),
                *tp.add(k + 2 * stride),
                *tp.add(k + 3 * stride),
            );
            let w = C64x4 {
                re: _mm256_setr_pd(w0.re, w2.re, w1.re, w3.re),
                im: _mm256_mul_pd(
                    _mm256_setr_pd(w0.im, w2.im, w1.im, w3.im),
                    _mm256_set1_pd(neg),
                ),
            };
            let u = load4(lp.add(j));
            let t = mul(w, load4(hp.add(j)));
            store4(lp.add(j), add(u, t));
            store4(hp.add(j), sub(u, t));
            j += 4;
        }
        while j < n {
            let mut w = *tp.add(start + j * stride);
            if conj {
                w = w.conj();
            }
            let t = w * *hp.add(j);
            let u = *lp.add(j);
            *lp.add(j) = u + t;
            *hp.add(j) = u - t;
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;
    use crate::random::random_state;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-12;

    /// Serialises every test that flips the process-global
    /// [`force_scalar`] flag — the default parallel test runner would
    /// otherwise let one test's toggle void another's scalar leg.
    static SCALAR_TOGGLE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn close(a: &[C64], b: &[C64]) -> bool {
        a.iter().zip(b).all(|(x, y)| x.approx_eq(*y, TOL))
    }

    /// Runs `f` twice — once forced scalar, once with whatever the host
    /// offers — and hands both results to `check`.
    fn both_paths<T>(f: impl Fn() -> T, check: impl Fn(T, T)) {
        let _guard = SCALAR_TOGGLE.lock().unwrap();
        force_scalar(true);
        let scalar = f();
        force_scalar(false);
        let native = f();
        check(scalar, native);
    }

    #[test]
    fn butterfly_matches_scalar_on_all_lengths() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = [
            [c64(0.6, 0.1), c64(-0.3, 0.7)],
            [c64(0.3, 0.7), c64(0.6, -0.1)],
        ];
        for len in [0usize, 1, 3, 4, 5, 8, 13, 64] {
            let lo0 = random_state(len.next_power_of_two().max(1), &mut rng)[..len].to_vec();
            let hi0 = random_state(len.next_power_of_two().max(1), &mut rng)[..len].to_vec();
            both_paths(
                || {
                    let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                    butterfly_slices(&mut lo, &mut hi, &m);
                    (lo, hi)
                },
                |(slo, shi), (nlo, nhi)| {
                    assert!(close(&slo, &nlo) && close(&shi, &nhi), "len = {len}");
                },
            );
        }
    }

    #[test]
    fn scale_and_real_scale_match_scalar() {
        let mut rng = StdRng::seed_from_u64(12);
        let xs0 = random_state(16, &mut rng)[..13].to_vec();
        both_paths(
            || {
                let mut xs = xs0.clone();
                scale_slice(&mut xs, c64(0.3, -0.8));
                scale_slice_real(&mut xs, 1.7);
                xs
            },
            |s, n| assert!(close(&s, &n)),
        );
    }

    #[test]
    fn real_butterfly_matches_generic_complex_arithmetic() {
        // A real 2×2 takes the lane fast path; it must agree with the
        // generic complex path (same matrix, tiny imaginary part forced).
        let mut rng = StdRng::seed_from_u64(15);
        let (c, s) = (0.36_f64.cos(), 0.36_f64.sin());
        let real = [[c64(c, 0.0), c64(-s, 0.0)], [c64(s, 0.0), c64(c, 0.0)]];
        for len in [0usize, 1, 3, 4, 5, 8, 13, 64] {
            let lo0 = random_state(len.next_power_of_two().max(1), &mut rng)[..len].to_vec();
            let hi0 = random_state(len.next_power_of_two().max(1), &mut rng)[..len].to_vec();
            let (mut rlo, mut rhi) = (lo0.clone(), hi0.clone());
            butterfly_slices(&mut rlo, &mut rhi, &real);
            let (mut glo, mut ghi) = (lo0.clone(), hi0.clone());
            butterfly_slices_scalar(&mut glo, &mut ghi, &real);
            assert!(close(&rlo, &glo) && close(&rhi, &ghi), "len = {len}");
            both_paths(
                || {
                    let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                    butterfly_slices(&mut lo, &mut hi, &real);
                    (lo, hi)
                },
                |(slo, shi), (nlo, nhi)| {
                    assert!(close(&slo, &nlo) && close(&shi, &nhi), "len = {len}");
                },
            );
        }
    }

    #[test]
    fn rotate_lanes_matches_per_lane_scalar_rotations() {
        let mut rng = StdRng::seed_from_u64(16);
        for len in [0usize, 1, 3, 4, 5, 8, 17] {
            let lo0 = random_state(32, &mut rng)[..len].to_vec();
            let hi0 = random_state(32, &mut rng)[..len].to_vec();
            // Distinct angle per complex element, duplicated per f64 lane.
            let mut cos = vec![0.0; 2 * len];
            let mut sin = vec![0.0; 2 * len];
            for j in 0..len {
                let (s, c) = (0.21 + 0.4 * j as f64).sin_cos();
                cos[2 * j] = c;
                cos[2 * j + 1] = c;
                sin[2 * j] = s;
                sin[2 * j + 1] = s;
            }
            both_paths(
                || {
                    let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                    rotate_lanes(&mut lo, &mut hi, &cos, &sin);
                    (lo, hi)
                },
                |(slo, shi), (nlo, nhi)| {
                    assert!(close(&slo, &nlo) && close(&shi, &nhi), "len = {len}");
                },
            );
            // Pin against the obvious per-element definition.
            let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
            rotate_lanes_scalar(&mut lo, &mut hi, &cos, &sin);
            for j in 0..len {
                let (c, s) = (cos[2 * j], sin[2 * j]);
                let want_lo = lo0[j].scale(c) - hi0[j].scale(s);
                let want_hi = lo0[j].scale(s) + hi0[j].scale(c);
                assert!(lo[j].approx_eq(want_lo, TOL) && hi[j].approx_eq(want_hi, TOL));
            }
        }
    }

    #[test]
    fn swap_slices_exchanges_runs_at_any_length() {
        let mut rng = StdRng::seed_from_u64(14);
        for len in [0usize, 1, 3, 4, 5, 17] {
            let a0 = random_state(32, &mut rng)[..len].to_vec();
            let b0 = random_state(32, &mut rng)[..len].to_vec();
            let (mut a, mut b) = (a0.clone(), b0.clone());
            swap_slices(&mut a, &mut b);
            assert!(close(&a, &b0) && close(&b, &a0), "len = {len}");
        }
    }

    #[test]
    fn cdot_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(13);
        for len in [0usize, 1, 4, 7, 32, 63] {
            let a = random_state(64, &mut rng)[..len].to_vec();
            let b = random_state(64, &mut rng)[..len].to_vec();
            both_paths(
                || cdot(&a, &b),
                |s, n| assert!(s.approx_eq(n, TOL), "len = {len}: {s:?} vs {n:?}"),
            );
        }
    }

    #[test]
    fn fft_butterfly_matches_scalar_both_directions() {
        let mut rng = StdRng::seed_from_u64(14);
        let twiddles: Vec<C64> = (0..64).map(|k| C64::cis(-0.098 * k as f64)).collect();
        for (len, stride) in [(4usize, 1usize), (7, 2), (16, 3), (5, 4)] {
            let lo0 = random_state(32, &mut rng)[..len].to_vec();
            let hi0 = random_state(32, &mut rng)[..len].to_vec();
            for conj in [false, true] {
                both_paths(
                    || {
                        let (mut lo, mut hi) = (lo0.clone(), hi0.clone());
                        fft_butterfly(&mut lo, &mut hi, &twiddles, 1, stride, conj);
                        (lo, hi)
                    },
                    |(slo, shi), (nlo, nhi)| {
                        assert!(close(&slo, &nlo) && close(&shi, &nhi));
                    },
                );
            }
        }
    }

    #[test]
    fn backend_name_reports_a_known_state() {
        let _guard = SCALAR_TOGGLE.lock().unwrap();
        force_scalar(false);
        let name = backend_name();
        assert!(
            name.starts_with("avx2") || name.starts_with("scalar"),
            "{name}"
        );
        force_scalar(true);
        assert!(backend_name().starts_with("scalar"));
        force_scalar(false);
    }

    /// The CPU probe alone selects the path: no build switch stands
    /// between an AVX2 host and the AVX2 code.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn cpu_probe_alone_selects_the_path() {
        let _guard = SCALAR_TOGGLE.lock().unwrap();
        force_scalar(false);
        let host_has_avx2 = std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma");
        assert_eq!(simd_active(), host_has_avx2);
        force_scalar(true);
        assert!(!simd_active());
        force_scalar(false);
    }

    #[test]
    fn lanes_constant_is_a_power_of_two() {
        assert!(LANES.is_power_of_two());
    }
}
