//! Complex SIMD primitives: split-lane `C64x4` math behind a runtime
//! dispatch.
//!
//! Every hot loop in the workspace — the state-vector butterfly, the
//! diagonal/phase sweep, the fused-block gather–matvec–scatter, the FFT
//! butterfly, the dense mat-vec and the GEMM tile — bottoms out in a handful of
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
//! The FFT stage kernels ([`fft_radix4_stage`], [`fft_radix2_stage`],
//! [`mul_twiddles`]) are the exception: they keep `re, im` interleaved,
//! two complex numbers per register, because a butterfly that loads and
//! stores every leg once would spend more shuffles de-interleaving than
//! multiplying. The GEMM micro-kernel ([`gemm_tile`]) reads `f64` panels
//! the caller has already packed in split form, so it loads without
//! shuffling at all.
//!
//! Results can differ from the scalar path by floating-point rounding
//! only (FMA contraction, reassociated reduction order in [`cdot`]);
//! the `simd_equivalence` proptests in `qcemu-sim` pin the agreement to
//! 1e-12 across every kernel.

use crate::complex::C64;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Complex elements processed per vector iteration by the accelerated
/// paths (4 × `f64` re-lanes + 4 × `f64` im-lanes = one AVX2 register
/// pair). Kernels use this to decide when a contiguous run is long
/// enough to vectorise; `LANES.trailing_zeros()` is the `lane_log2`
/// threshold of the contiguous-target butterfly fast path.
pub const LANES: usize = 4;

/// log2 of the cache block every blocked sweep in the workspace sizes
/// itself by — the segment executor's replay block in `qcemu-sim` and the
/// FFT engine's row length and tile budget in `qcemu-fft`: `2^14`
/// amplitudes = 256 KiB of complex doubles, half a typical per-core L2 —
/// big enough that per-block set-up amortises, small enough that a block
/// plus the streaming write-back stays cache-resident. See
/// `docs/PERFORMANCE.md` for the sweep of this value.
pub const DEFAULT_BLOCK_BITS: usize = 14;

/// Forces the scalar fallback even on AVX2 hosts (tests, benchmark
/// baselines). Affects all threads; flip back with `force_scalar(false)`.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// Serialises code that toggles or depends on the process-wide
/// [`force_scalar`] switch — tests in one binary run on parallel threads,
/// and one test's toggle would otherwise void another's scalar (or
/// native) leg. Hold the guard for as long as the backend must not change.
pub fn scalar_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A panicking holder leaves the switch in a state its `Drop` restored.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard: holds [`scalar_lock`] and forces the scalar backend until
/// dropped.
pub struct ForcedScalar {
    _lock: MutexGuard<'static, ()>,
}

impl ForcedScalar {
    /// Takes the lock and switches every SIMD primitive to its scalar path.
    pub fn engage() -> ForcedScalar {
        let _lock = scalar_lock();
        force_scalar(true);
        ForcedScalar { _lock }
    }
}

impl Drop for ForcedScalar {
    fn drop(&mut self) {
        force_scalar(false);
    }
}

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

/// Gram sums over consecutive pairs `(a, b) = (x[2i], x[2i+1])`:
/// `[Σ|a|², Σ|b|², Re Σ ā·b, Im Σ ā·b]` — the 2×2 Gram matrix of a
/// bond-1 split in `qcemu_sim`'s MPS import, which streams the state
/// through it. Like [`cdot`], the SIMD path sums in another order than
/// the scalar loop.
///
/// # Panics
///
/// Panics if `x` has odd length.
pub fn pair_gram(x: &[C64]) -> [f64; 4] {
    assert!(x.len().is_multiple_of(2), "pair_gram needs whole pairs");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA presence was verified at runtime.
        return unsafe { avx2::pair_gram(x) };
    }
    let (mut d0, mut d1, mut re, mut im) = (0.0, 0.0, 0.0, 0.0);
    for pair in x.chunks_exact(2) {
        let (a, b) = (pair[0], pair[1]);
        d0 += a.re * a.re + a.im * a.im;
        d1 += b.re * b.re + b.im * b.im;
        re += a.re * b.re + a.im * b.im;
        im += a.re * b.im - a.im * b.re;
    }
    [d0, d1, re, im]
}

/// `y[i] = w0·x[2i] + w1·x[2i+1]` over the common prefix of pairs and
/// outputs — a bond-1 split's projection pass in `qcemu_sim`'s MPS
/// import.
pub fn pair_combine(x: &[C64], w0: C64, w1: C64, y: &mut [C64]) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA presence was verified at runtime.
        return unsafe { avx2::pair_combine(x, w0, w1, y) };
    }
    for (pair, out) in x.chunks_exact(2).zip(y.iter_mut()) {
        *out = pair[1].mul_add(w1, pair[0] * w0);
    }
}

/// Rows of the complex GEMM micro-tile [`gemm_tile`] accumulates.
pub const GEMM_MR: usize = 4;
/// Columns of the complex GEMM micro-tile [`gemm_tile`] accumulates (one
/// AVX2 register of real parts, one of imaginary parts).
pub const GEMM_NR: usize = 4;

/// A `GEMM_MR × GEMM_NR` complex tile in split form: real parts, then
/// imaginary parts, each indexed `[row][col]`.
pub type GemmTile = ([[f64; GEMM_NR]; GEMM_MR], [[f64; GEMM_NR]; GEMM_MR]);

/// The complex GEMM micro-kernel: `Σ_{p<kc} a_p ⊗ b_p` over packed
/// split-re/im panels — step `p` of `a` is one column of an A panel,
/// `GEMM_MR` real parts then `GEMM_MR` imaginary parts; step `p` of `b` is
/// one row of a B panel, `GEMM_NR` real parts then `GEMM_NR` imaginary
/// parts. Every tile entry is summed in ascending `p` whatever the caller's
/// blocking, so a GEMM built on it is bit-identical across partitions.
///
/// # Panics
///
/// Panics if either panel holds fewer than `kc` steps.
pub fn gemm_tile(kc: usize, a: &[f64], b: &[f64]) -> GemmTile {
    assert!(a.len() >= 2 * GEMM_MR * kc, "gemm_tile: A panel too short");
    assert!(b.len() >= 2 * GEMM_NR * kc, "gemm_tile: B panel too short");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: AVX2+FMA presence was verified at runtime; panel lengths
        // were checked above.
        return unsafe { avx2::gemm_tile(kc, a, b) };
    }
    let mut re = [[0.0; GEMM_NR]; GEMM_MR];
    let mut im = [[0.0; GEMM_NR]; GEMM_MR];
    for (ap, bp) in a
        .chunks_exact(2 * GEMM_MR)
        .zip(b.chunks_exact(2 * GEMM_NR))
        .take(kc)
    {
        let (ar, ai) = ap.split_at(GEMM_MR);
        let (br, bi) = bp.split_at(GEMM_NR);
        for i in 0..GEMM_MR {
            for j in 0..GEMM_NR {
                re[i][j] = re[i][j] + ar[i] * br[j] - ai[i] * bi[j];
                im[i][j] = im[i][j] + ar[i] * bi[j] + ai[i] * br[j];
            }
        }
    }
    (re, im)
}

/// One radix-4 decimation-in-time FFT stage over a contiguous buffer.
///
/// `data` is a whole number of blocks of `4·q·t` elements; element
/// `(k, j, c)` of a block — leg `k < 4`, butterfly `j < q`, column
/// `c < t` — sits at `(k·q + j)·t + c`. Every column of butterfly `j`
/// is updated with the same three twiddles `w1 = tw[j]`,
/// `w2 = tw[q + j]`, `w3 = tw[2q + j]` (`W^j`, `W^{2j}`, `W^{3j}` with
/// `W = e^{-2πi/4q}`), conjugated when `inverse` is set:
///
/// ```text
/// t1 = w2·x1   t2 = w1·x2   t3 = w3·x3          (legs in bit-reversed order)
/// y0 = (x0+t1) + (t2+t3)    y1 = (x0−t1) ∓ i(t2−t3)
/// y2 = (x0+t1) − (t2+t3)    y3 = (x0−t1) ± i(t2−t3)
/// ```
///
/// which is two radix-2 stages (half-sizes `q·t` and `2q·t`) in one
/// pass over the data. `t = 1` is the plain one-dimensional stage
/// (vector twiddle loads; `q = 1` is done in-register); `t > 1` is the
/// same stage along the high axis of a `t`-column tile, vectorised
/// across the columns with splat twiddles.
///
/// # Panics
///
/// Panics if `data` is not a whole number of blocks or `tw` holds fewer
/// than `3·q` entries.
pub fn fft_radix4_stage(data: &mut [C64], q: usize, t: usize, tw: &[C64], inverse: bool) {
    assert!(q > 0 && t > 0, "empty radix-4 stage");
    assert_eq!(data.len() % (4 * q * t), 0, "radix-4 stage: partial block");
    assert!(tw.len() >= 3 * q, "radix-4 twiddle table too short");
    #[cfg(target_arch = "x86_64")]
    if simd_active() && (t.is_multiple_of(2) || (t == 1 && (q == 1 || q.is_multiple_of(2)))) {
        // SAFETY: AVX2+FMA presence was verified at runtime; block and
        // table sizes were checked above.
        unsafe {
            if inverse {
                avx2::fft_radix4_stage::<true>(data, q, t, tw)
            } else {
                avx2::fft_radix4_stage::<false>(data, q, t, tw)
            }
        };
        return;
    }
    let run = q * t;
    for block in data.chunks_exact_mut(4 * run) {
        let (x0, rest) = block.split_at_mut(run);
        let (x1, rest) = rest.split_at_mut(run);
        let (x2, x3) = rest.split_at_mut(run);
        for j in 0..q {
            let (mut w1, mut w2, mut w3) = (tw[j], tw[q + j], tw[2 * q + j]);
            if inverse {
                (w1, w2, w3) = (w1.conj(), w2.conj(), w3.conj());
            }
            for i in j * t..(j + 1) * t {
                let (t1, t2, t3) = (w2 * x1[i], w1 * x2[i], w3 * x3[i]);
                let (s0, s1, s2, d) = (x0[i] + t1, x0[i] - t1, t2 + t3, t2 - t3);
                // ∓i·d: −i forward, +i inverse.
                let s3 = if inverse {
                    C64::new(-d.im, d.re)
                } else {
                    C64::new(d.im, -d.re)
                };
                x0[i] = s0 + s2;
                x1[i] = s1 + s3;
                x2[i] = s0 - s2;
                x3[i] = s1 - s3;
            }
        }
    }
}

/// One radix-2 decimation-in-time FFT stage in the layout of
/// [`fft_radix4_stage`]: blocks of `2·h·t` elements, element `(k, j, c)`
/// at `(k·h + j)·t + c`, `(lo, hi) ← (lo + w·hi, lo − w·hi)` with
/// `w = tw[j] = e^{-2πi j/2h}` (conjugated when `inverse` is set). The
/// clean-up stage of an odd-log₂ transform.
///
/// # Panics
///
/// Panics if `data` is not a whole number of blocks or `tw` holds fewer
/// than `h` entries.
pub fn fft_radix2_stage(data: &mut [C64], h: usize, t: usize, tw: &[C64], inverse: bool) {
    assert!(h > 0 && t > 0, "empty radix-2 stage");
    assert_eq!(data.len() % (2 * h * t), 0, "radix-2 stage: partial block");
    assert!(tw.len() >= h, "radix-2 twiddle table too short");
    #[cfg(target_arch = "x86_64")]
    if simd_active() && (t.is_multiple_of(2) || (t == 1 && h.is_multiple_of(2))) {
        // SAFETY: AVX2+FMA presence was verified at runtime; block and
        // table sizes were checked above.
        unsafe {
            if inverse {
                avx2::fft_radix2_stage::<true>(data, h, t, tw)
            } else {
                avx2::fft_radix2_stage::<false>(data, h, t, tw)
            }
        };
        return;
    }
    let run = h * t;
    for block in data.chunks_exact_mut(2 * run) {
        let (lo, hi) = block.split_at_mut(run);
        for (j, w) in tw[..h].iter().enumerate() {
            let w = if inverse { w.conj() } else { *w };
            for i in j * t..(j + 1) * t {
                let (u, v) = (lo[i], w * hi[i]);
                lo[i] = u + v;
                hi[i] = u - v;
            }
        }
    }
}

/// Multiplies a `u.len() × t` tile by the outer-product twiddles
/// `u[j]·v`: `xs[j·t + c] ← xs[j·t + c] · u[j] · v` — the inter-step
/// twiddle of the six-step FFT, whose factor `W^{q·(j + j₁·2^c)}` splits
/// into a per-row table `u` and one scalar `v` per `j₁`.
///
/// # Panics
///
/// Panics if `xs.len() != u.len() · t`.
pub fn mul_twiddles(xs: &mut [C64], u: &[C64], v: C64, t: usize) {
    assert_eq!(xs.len(), u.len() * t, "mul_twiddles: tile size mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() && (t == 1 || t.is_multiple_of(2)) {
        // SAFETY: AVX2+FMA presence was verified at runtime; sizes were
        // checked above.
        unsafe { avx2::mul_twiddles(xs, u, v, t) };
        return;
    }
    for (row, &uj) in xs.chunks_exact_mut(t).zip(u) {
        let w = uj * v;
        for z in row {
            *z *= w;
        }
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

    /// One pair `[a.re, a.im, b.re, b.im]` per register: `v∘v` sums the
    /// norms, `v` against its halves swapped (`[b, a]`) the real part of
    /// `ā·b` and against those with re/im swapped (`[b.im, b.re, …]`) the
    /// imaginary part; two pairs per step in two sets of sums.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn pair_gram(x: &[C64]) -> [f64; 4] {
        let pairs = x.len() / 2;
        let p = x.as_ptr() as *const f64;
        let mut acc = [[_mm256_setzero_pd(); 3]; 2];
        let mut i = 0;
        while i + 2 <= pairs {
            for (t, sums) in acc.iter_mut().enumerate() {
                let v = _mm256_loadu_pd(p.add(4 * (i + t)));
                let s = _mm256_permute2f128_pd(v, v, 1);
                let u = _mm256_permute_pd(s, 0b0101);
                sums[0] = _mm256_fmadd_pd(v, v, sums[0]);
                sums[1] = _mm256_fmadd_pd(v, s, sums[1]);
                sums[2] = _mm256_fmadd_pd(v, u, sums[2]);
            }
            i += 2;
        }
        let mut lanes = [[0.0f64; 4]; 3];
        for (k, l) in lanes.iter_mut().enumerate() {
            _mm256_storeu_pd(l.as_mut_ptr(), _mm256_add_pd(acc[0][k], acc[1][k]));
        }
        let mut out = [
            lanes[0][0] + lanes[0][1],
            lanes[0][2] + lanes[0][3],
            lanes[1][0] + lanes[1][1],
            lanes[2][0] - lanes[2][1],
        ];
        if i < pairs {
            let (a, b) = (x[2 * i], x[2 * i + 1]);
            out[0] += a.re * a.re + a.im * a.im;
            out[1] += b.re * b.re + b.im * b.im;
            out[2] += a.re * b.re + a.im * b.im;
            out[3] += a.re * b.im - a.im * b.re;
        }
        out
    }

    /// `[z0, z1]·[w0, w1]` per 128-bit half, for `z` in `v` and `w` in
    /// `w_re`/`w_im` (each part duplicated across its half).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lane_product(v: __m256d, w_re: __m256d, w_im: __m256d) -> __m256d {
        let swapped = _mm256_permute_pd(v, 0b0101);
        _mm256_fmaddsub_pd(v, w_re, _mm256_mul_pd(swapped, w_im))
    }

    /// One pair per register times `[w0, w1]` lane by lane (`fmaddsub`
    /// complex product), then the two halves added: two outputs per step.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn pair_combine(x: &[C64], w0: C64, w1: C64, y: &mut [C64]) {
        let n = (x.len() / 2).min(y.len());
        let (p, q) = (x.as_ptr() as *const f64, y.as_mut_ptr() as *mut f64);
        let w_re = _mm256_setr_pd(w0.re, w0.re, w1.re, w1.re);
        let w_im = _mm256_setr_pd(w0.im, w0.im, w1.im, w1.im);
        let mut i = 0;
        while i + 2 <= n {
            let z0 = lane_product(_mm256_loadu_pd(p.add(4 * i)), w_re, w_im);
            let z1 = lane_product(_mm256_loadu_pd(p.add(4 * i + 4)), w_re, w_im);
            let lo = _mm256_permute2f128_pd(z0, z1, 0x20);
            let hi = _mm256_permute2f128_pd(z0, z1, 0x31);
            _mm256_storeu_pd(q.add(2 * i), _mm256_add_pd(lo, hi));
            i += 2;
        }
        if i < n {
            y[i] = x[2 * i + 1].mul_add(w1, x[2 * i] * w0);
        }
    }

    /// Caller guarantees both panels hold `kc` steps (see
    /// [`super::gemm_tile`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_tile(kc: usize, a: &[f64], b: &[f64]) -> super::GemmTile {
        const MR: usize = super::GEMM_MR;
        // One register of real parts, one of imaginary parts per B row.
        const _: () = assert!(super::GEMM_NR == 4);
        let mut re = [_mm256_setzero_pd(); MR];
        let mut im = [_mm256_setzero_pd(); MR];
        let (ap, bp) = (a.as_ptr(), b.as_ptr());
        for p in 0..kc {
            let br = _mm256_loadu_pd(bp.add(8 * p));
            let bi = _mm256_loadu_pd(bp.add(8 * p + 4));
            let a_re = ap.add(2 * MR * p);
            let a_im = a_re.add(MR);
            for i in 0..MR {
                let ar = _mm256_broadcast_sd(&*a_re.add(i));
                let ai = _mm256_broadcast_sd(&*a_im.add(i));
                re[i] = _mm256_fnmadd_pd(ai, bi, _mm256_fmadd_pd(ar, br, re[i]));
                im[i] = _mm256_fmadd_pd(ai, br, _mm256_fmadd_pd(ar, bi, im[i]));
            }
        }
        let mut out = ([[0.0; super::GEMM_NR]; MR], [[0.0; super::GEMM_NR]; MR]);
        for i in 0..MR {
            _mm256_storeu_pd(out.0[i].as_mut_ptr(), re[i]);
            _mm256_storeu_pd(out.1[i].as_mut_ptr(), im[i]);
        }
        out
    }

    // --- FFT stages: interleaved lanes -----------------------------------
    //
    // The FFT kernels keep `re, im` interleaved (two complex numbers per
    // register) instead of the split lanes above: a twiddle multiply is
    // then one in-lane swap, one multiply and one `fmaddsub`, and nothing
    // is shuffled on load or store — a radix-4 butterfly has four loads,
    // four stores and three such products, so the split form's eight
    // de/re-interleaves would be the larger half of its shuffle work.

    /// `x·w` for two interleaved complex numbers, `w` given as its
    /// duplicated real parts `wr` and duplicated imaginary parts `wi`;
    /// `x·conj(w)` when `INV`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn cmul2<const INV: bool>(x: __m256d, wr: __m256d, wi: __m256d) -> __m256d {
        let p = _mm256_mul_pd(_mm256_permute_pd(x, 0b0101), wi);
        if INV {
            _mm256_fmsubadd_pd(x, wr, p)
        } else {
            _mm256_fmaddsub_pd(x, wr, p)
        }
    }

    /// `∓i·d` for two interleaved complex numbers (`−i` forward, `+i`
    /// when `INV`).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn rot2<const INV: bool>(d: __m256d) -> __m256d {
        let flip = if INV {
            _mm256_setr_pd(-0.0, 0.0, -0.0, 0.0)
        } else {
            _mm256_setr_pd(0.0, -0.0, 0.0, -0.0)
        };
        _mm256_xor_pd(_mm256_permute_pd(d, 0b0101), flip)
    }

    /// Radix-4 butterfly on one register per leg; `w[k]` is the
    /// `(re, im)`-duplicated twiddle `w_{k+1}`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn radix4_at<const INV: bool>(
        p0: *mut f64,
        p1: *mut f64,
        p2: *mut f64,
        p3: *mut f64,
        w: &[(__m256d, __m256d); 3],
    ) {
        let x0 = _mm256_loadu_pd(p0);
        let t1 = cmul2::<INV>(_mm256_loadu_pd(p1), w[1].0, w[1].1);
        let t2 = cmul2::<INV>(_mm256_loadu_pd(p2), w[0].0, w[0].1);
        let t3 = cmul2::<INV>(_mm256_loadu_pd(p3), w[2].0, w[2].1);
        let s0 = _mm256_add_pd(x0, t1);
        let s1 = _mm256_sub_pd(x0, t1);
        let s2 = _mm256_add_pd(t2, t3);
        let s3 = rot2::<INV>(_mm256_sub_pd(t2, t3));
        _mm256_storeu_pd(p0, _mm256_add_pd(s0, s2));
        _mm256_storeu_pd(p1, _mm256_add_pd(s1, s3));
        _mm256_storeu_pd(p2, _mm256_sub_pd(s0, s2));
        _mm256_storeu_pd(p3, _mm256_sub_pd(s1, s3));
    }

    /// Duplicated parts of one twiddle broadcast to both complex slots.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn splat2(w: C64) -> (__m256d, __m256d) {
        (_mm256_set1_pd(w.re), _mm256_set1_pd(w.im))
    }

    /// Duplicated parts of the two consecutive twiddles at `p`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dup2(p: *const C64) -> (__m256d, __m256d) {
        let w = _mm256_loadu_pd(p as *const f64);
        (_mm256_movedup_pd(w), _mm256_permute_pd(w, 0b1111))
    }

    /// Caller guarantees `t` even, or `t == 1` with `q` 1 or even; whole
    /// blocks; a `3·q` twiddle table.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fft_radix4_stage<const INV: bool>(
        data: &mut [C64],
        q: usize,
        t: usize,
        tw: &[C64],
    ) {
        let run = q * t;
        let base = data.as_mut_ptr() as *mut f64;
        let blocks = data.len() / (4 * run);
        if run == 1 {
            // Four adjacent elements per transform, all twiddles 1: the
            // two radix-2 levels are done across the 128-bit halves.
            for b in 0..blocks {
                let p = base.add(8 * b);
                let v0 = _mm256_loadu_pd(p); // x0 x1
                let v1 = _mm256_loadu_pd(p.add(4)); // x2 x3
                let a = _mm256_permute2f128_pd(v0, v1, 0x20); // x0 x2
                let c = _mm256_permute2f128_pd(v0, v1, 0x31); // x1 x3
                let sum = _mm256_add_pd(a, c); // s0 s2
                let dif = _mm256_sub_pd(a, c); // s1 d
                let dif = _mm256_blend_pd(dif, rot2::<INV>(dif), 0b1100); // s1 s3
                let u = _mm256_permute2f128_pd(sum, dif, 0x20); // s0 s1
                let v = _mm256_permute2f128_pd(sum, dif, 0x31); // s2 s3
                _mm256_storeu_pd(p, _mm256_add_pd(u, v));
                _mm256_storeu_pd(p.add(4), _mm256_sub_pd(u, v));
            }
            return;
        }
        for b in 0..blocks {
            let p0 = base.add(8 * run * b);
            let (p1, p2, p3) = (p0.add(2 * run), p0.add(4 * run), p0.add(6 * run));
            if t == 1 {
                // q ≥ 2 and even: two butterflies per register.
                let mut j = 0;
                while j < q {
                    let w = [
                        dup2(tw.as_ptr().add(j)),
                        dup2(tw.as_ptr().add(q + j)),
                        dup2(tw.as_ptr().add(2 * q + j)),
                    ];
                    let o = 2 * j;
                    radix4_at::<INV>(p0.add(o), p1.add(o), p2.add(o), p3.add(o), &w);
                    j += 2;
                }
            } else {
                for j in 0..q {
                    let w = [
                        splat2(*tw.get_unchecked(j)),
                        splat2(*tw.get_unchecked(q + j)),
                        splat2(*tw.get_unchecked(2 * q + j)),
                    ];
                    let mut o = 2 * j * t;
                    let end = o + 2 * t;
                    while o < end {
                        radix4_at::<INV>(p0.add(o), p1.add(o), p2.add(o), p3.add(o), &w);
                        o += 4;
                    }
                }
            }
        }
    }

    /// Caller guarantees `t` even, or `t == 1` with `h` even; whole
    /// blocks; an `h`-entry table.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fft_radix2_stage<const INV: bool>(
        data: &mut [C64],
        h: usize,
        t: usize,
        tw: &[C64],
    ) {
        let run = h * t;
        let base = data.as_mut_ptr() as *mut f64;
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn at<const INV: bool>(lo: *mut f64, hi: *mut f64, w: (__m256d, __m256d)) {
            let u = _mm256_loadu_pd(lo);
            let v = cmul2::<INV>(_mm256_loadu_pd(hi), w.0, w.1);
            _mm256_storeu_pd(lo, _mm256_add_pd(u, v));
            _mm256_storeu_pd(hi, _mm256_sub_pd(u, v));
        }
        for b in 0..data.len() / (2 * run) {
            let lo = base.add(4 * run * b);
            let hi = lo.add(2 * run);
            if t.is_multiple_of(2) {
                for j in 0..h {
                    let w = splat2(*tw.get_unchecked(j));
                    let mut o = 2 * j * t;
                    let end = o + 2 * t;
                    while o < end {
                        at::<INV>(lo.add(o), hi.add(o), w);
                        o += 4;
                    }
                }
            } else {
                let mut j = 0;
                while j < h {
                    at::<INV>(lo.add(2 * j), hi.add(2 * j), dup2(tw.as_ptr().add(j)));
                    j += 2;
                }
            }
        }
    }

    /// Caller guarantees `t == 1 || t % 2 == 0` and
    /// `xs.len() == u.len()·t`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn mul_twiddles(xs: &mut [C64], u: &[C64], v: C64, t: usize) {
        let p = xs.as_mut_ptr() as *mut f64;
        if t == 1 {
            let (vr, vi) = splat2(v);
            let pairs = u.len() / 2;
            for j in 0..pairs {
                let w =
                    cmul2::<false>(_mm256_loadu_pd(u.as_ptr().add(2 * j) as *const f64), vr, vi);
                let (wr, wi) = (_mm256_movedup_pd(w), _mm256_permute_pd(w, 0b1111));
                let x = p.add(4 * j);
                _mm256_storeu_pd(x, cmul2::<false>(_mm256_loadu_pd(x), wr, wi));
            }
            if u.len() % 2 == 1 {
                let j = u.len() - 1;
                xs[j] *= u[j] * v;
            }
        } else {
            for (j, &uj) in u.iter().enumerate() {
                let (wr, wi) = splat2(uj * v);
                let mut o = 2 * j * t;
                let end = o + 2 * t;
                while o < end {
                    _mm256_storeu_pd(p.add(o), cmul2::<false>(_mm256_loadu_pd(p.add(o)), wr, wi));
                    o += 4;
                }
            }
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

    fn close(a: &[C64], b: &[C64]) -> bool {
        a.iter().zip(b).all(|(x, y)| x.approx_eq(*y, TOL))
    }

    /// Runs `f` twice — once forced scalar, once with whatever the host
    /// offers — and hands both results to `check`.
    fn both_paths<T>(f: impl Fn() -> T, check: impl Fn(T, T)) {
        let _guard = scalar_lock();
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
    fn pair_gram_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(17);
        for len in [0usize, 2, 4, 6, 10, 64] {
            let x = random_state(64, &mut rng)[..len].to_vec();
            both_paths(
                || pair_gram(&x),
                |s, n| {
                    for (a, b) in s.iter().zip(&n) {
                        assert!((a - b).abs() < TOL, "len = {len}: {s:?} vs {n:?}");
                    }
                },
            );
        }
    }

    #[test]
    fn pair_combine_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(19);
        let (w0, w1) = (c64(0.6, -0.2), c64(-0.1, 0.75));
        for len in [0usize, 2, 4, 6, 10, 64] {
            let x = random_state(64, &mut rng)[..len].to_vec();
            both_paths(
                || {
                    let mut y = vec![c64(f64::NAN, 0.0); len / 2];
                    pair_combine(&x, w0, w1, &mut y);
                    y
                },
                |s, n| {
                    for (j, (a, b)) in s.iter().zip(&n).enumerate() {
                        let want = x[2 * j] * w0 + x[2 * j + 1] * w1;
                        assert!(
                            a.approx_eq(*b, TOL) && a.approx_eq(want, TOL),
                            "len = {len}, j = {j}"
                        );
                    }
                },
            );
        }
    }

    /// `W^j` for `j < count` with `W = e^{-2πi/order}`.
    fn roots(order: usize, count: usize, power: usize) -> Vec<C64> {
        (0..count)
            .map(|j| C64::cis(-std::f64::consts::TAU * (power * j) as f64 / order as f64))
            .collect()
    }

    fn radix4_table(q: usize) -> Vec<C64> {
        (1..=3).flat_map(|k| roots(4 * q, q, k)).collect()
    }

    #[test]
    fn fft_butterfly_matches_scalar_both_directions() {
        let mut rng = StdRng::seed_from_u64(14);
        // (h, t): vector twiddles, splat twiddles, and the odd shapes
        // that stay scalar on every host.
        for (h, t) in [
            (1usize, 1usize),
            (2, 1),
            (8, 1),
            (1, 2),
            (4, 4),
            (2, 8),
            (3, 1),
            (2, 3),
        ] {
            let tw = roots(2 * h, h, 1);
            let x0 = random_state(64, &mut rng)[..2 * (2 * h * t)].to_vec();
            for inverse in [false, true] {
                both_paths(
                    || {
                        let mut x = x0.clone();
                        fft_radix2_stage(&mut x, h, t, &tw, inverse);
                        x
                    },
                    |s, n| assert!(close(&s, &n), "h = {h}, t = {t}"),
                );
            }
        }
    }

    #[test]
    fn radix4_stage_is_two_radix2_stages() {
        let mut rng = StdRng::seed_from_u64(17);
        for (q, t) in [
            (1usize, 1usize),
            (2, 1),
            (4, 1),
            (16, 1),
            (1, 2),
            (1, 8),
            (4, 4),
            (3, 1),
            (2, 3),
        ] {
            let x0 = random_state(512, &mut rng)[..2 * (4 * q * t)].to_vec();
            for inverse in [false, true] {
                let mut want = x0.clone();
                fft_radix2_stage(&mut want, q, t, &roots(2 * q, q, 1), inverse);
                fft_radix2_stage(&mut want, 2 * q, t, &roots(4 * q, 2 * q, 1), inverse);
                both_paths(
                    || {
                        let mut x = x0.clone();
                        fft_radix4_stage(&mut x, q, t, &radix4_table(q), inverse);
                        x
                    },
                    |s, n| {
                        assert!(close(&s, &n) && close(&n, &want), "q = {q}, t = {t}");
                    },
                );
            }
        }
    }

    #[test]
    fn mul_twiddles_matches_elementwise_product() {
        let mut rng = StdRng::seed_from_u64(18);
        let v = c64(0.6, -0.8);
        for (rows, t) in [(1usize, 1usize), (5, 1), (8, 1), (3, 2), (4, 8), (2, 3)] {
            let u = random_state(8, &mut rng)[..rows].to_vec();
            let x0 = random_state(64, &mut rng)[..rows * t].to_vec();
            let want: Vec<C64> = x0
                .iter()
                .enumerate()
                .map(|(i, x)| *x * (u[i / t] * v))
                .collect();
            both_paths(
                || {
                    let mut x = x0.clone();
                    mul_twiddles(&mut x, &u, v, t);
                    x
                },
                |s, n| assert!(close(&s, &want) && close(&n, &want), "{rows} x {t}"),
            );
        }
    }

    #[test]
    fn backend_name_reports_a_known_state() {
        let _guard = scalar_lock();
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
        let _guard = scalar_lock();
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
