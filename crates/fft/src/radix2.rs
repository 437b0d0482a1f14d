//! The crate's whole-buffer entry points, and the textbook radix-2
//! transform they are checked against.
//!
//! [`fft_inplace`] hands the buffer to the cache-blocked engine
//! ([`crate::engine`]): up to one cache block that is a single in-cache
//! pass of radix-4 stages (radix-2 clean-up for odd `log₂N`); beyond it,
//! the six-step composition, which streams the state three times up to
//! 2²⁸ amplitudes. The transform is then a few memory-bound passes rather
//! than `log₂N` of them — which is what lets the emulated QFT beat the
//! simulated one by the `n·FLOPS/B_mem` of paper §4.3.
//!
//! [`radix2_reference`] is the plain bit-reverse-then-`log₂N`-sweeps
//! Cooley–Tukey loop, serial and scalar, computing every twiddle where it
//! is used. It shares no code with the engine and exists for the
//! equivalence tests at sizes the O(N²) [`crate::dft_reference`] cannot
//! reach.

use crate::plan::{reverse_bits, Direction, FftPlan, Normalization};
use qcemu_linalg::C64;

/// Transforms `data` in place according to `plan`, `dir`, `norm`.
///
/// Panics if `data.len() != plan.len()`.
pub fn fft_inplace(plan: &FftPlan, data: &mut [C64], dir: Direction, norm: Normalization) {
    assert_eq!(
        data.len(),
        plan.len(),
        "fft_inplace: data length {} does not match plan size {}",
        data.len(),
        plan.len()
    );
    plan.axis().run(data, dir, norm);
}

/// Reference transform: in-place decimation-in-time radix-2, one serial
/// sweep per stage. `data.len()` must be a power of two (≤ 2³²).
pub fn radix2_reference(data: &mut [C64], dir: Direction, norm: Normalization) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT size must be a power of two");
    let log2n = n.trailing_zeros();
    for i in 0..n {
        let r = reverse_bits(i as u32, log2n) as usize;
        if r > i {
            data.swap(i, r);
        }
    }
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    for stage in 1..=log2n {
        let half = 1usize << (stage - 1);
        let step = sign * std::f64::consts::PI / half as f64;
        for block in data.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for (j, (a, b)) in lo.iter_mut().zip(hi).enumerate() {
                let t = C64::cis(step * j as f64) * *b;
                (*a, *b) = (*a + t, *a - t);
            }
        }
    }
    let factor = norm.factor(n);
    if factor != 1.0 {
        data.iter_mut().for_each(|z| *z = z.scale(factor));
    }
}

/// One-shot convenience: plans internally and transforms a vector.
pub fn fft(data: &mut [C64], dir: Direction, norm: Normalization) {
    let plan = FftPlan::new(data.len());
    fft_inplace(&plan, data, dir, norm);
}

/// The paper's QFT as a vector transform (Eq. 4): positive exponent with
/// `1/√N` scaling. Exactly what the emulator substitutes for the gate-level
/// QFT circuit.
pub fn qft_convention(data: &mut [C64]) {
    fft(data, Direction::Inverse, Normalization::Sqrt);
}

/// Inverse of [`qft_convention`].
pub fn inverse_qft_convention(data: &mut [C64]) {
    fft(data, Direction::Forward, Normalization::Sqrt);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_reference;
    use qcemu_linalg::{c64, max_abs_diff, norm2, random_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut data = vec![C64::ZERO; 8];
        data[0] = C64::ONE;
        fft(&mut data, Direction::Forward, Normalization::None);
        for z in &data {
            assert!(z.approx_eq(C64::ONE, 1e-12));
        }
    }

    #[test]
    fn matches_reference_dft() {
        let mut rng = StdRng::seed_from_u64(50);
        for log2n in 0..=10 {
            let n = 1usize << log2n;
            let input = random_state(n, &mut rng);
            let mut fast = input.clone();
            fft(&mut fast, Direction::Forward, Normalization::None);
            let slow = dft_reference(&input, Direction::Forward, Normalization::None);
            assert!(
                max_abs_diff(&fast, &slow) < 1e-9 * n as f64,
                "mismatch at n = {n}"
            );
        }
    }

    #[test]
    fn inverse_matches_reference_dft() {
        let mut rng = StdRng::seed_from_u64(51);
        let n = 128;
        let input = random_state(n, &mut rng);
        let mut fast = input.clone();
        fft(&mut fast, Direction::Inverse, Normalization::Full);
        let slow = dft_reference(&input, Direction::Inverse, Normalization::Full);
        assert!(max_abs_diff(&fast, &slow) < 1e-10);
    }

    #[test]
    fn roundtrip_is_identity() {
        let mut rng = StdRng::seed_from_u64(52);
        let input = random_state(256, &mut rng);
        let mut data = input.clone();
        fft(&mut data, Direction::Forward, Normalization::None);
        fft(&mut data, Direction::Inverse, Normalization::Full);
        assert!(max_abs_diff(&data, &input) < 1e-11);
    }

    #[test]
    fn sqrt_normalization_preserves_norm() {
        let mut rng = StdRng::seed_from_u64(53);
        let mut data = random_state(512, &mut rng);
        fft(&mut data, Direction::Forward, Normalization::Sqrt);
        assert!(
            (norm2(&data) - 1.0).abs() < 1e-11,
            "unitary FFT must preserve norm"
        );
    }

    #[test]
    fn qft_convention_roundtrip_and_unitarity() {
        let mut rng = StdRng::seed_from_u64(54);
        let input = random_state(64, &mut rng);
        let mut data = input.clone();
        qft_convention(&mut data);
        assert!((norm2(&data) - 1.0).abs() < 1e-11);
        inverse_qft_convention(&mut data);
        assert!(max_abs_diff(&data, &input) < 1e-11);
    }

    #[test]
    fn qft_of_basis_state_is_fourier_mode() {
        // QFT|k⟩ = 2^{-n/2} Σ_l e^{2πi k l / N} |l⟩
        let n = 32;
        let k = 5;
        let mut data = vec![C64::ZERO; n];
        data[k] = C64::ONE;
        qft_convention(&mut data);
        let scale = 1.0 / (n as f64).sqrt();
        for (l, z) in data.iter().enumerate() {
            let expect = C64::cis(std::f64::consts::TAU * (k * l) as f64 / n as f64).scale(scale);
            assert!(z.approx_eq(expect, 1e-12), "l = {l}");
        }
    }

    #[test]
    fn linearity() {
        let mut rng = StdRng::seed_from_u64(55);
        let a = random_state(64, &mut rng);
        let b = random_state(64, &mut rng);
        let alpha = c64(0.3, -0.4);
        let combined: Vec<C64> = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| alpha * *x + *y)
            .collect();

        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fc = combined.clone();
        fft(&mut fa, Direction::Forward, Normalization::None);
        fft(&mut fb, Direction::Forward, Normalization::None);
        fft(&mut fc, Direction::Forward, Normalization::None);
        let recombined: Vec<C64> = fa
            .iter()
            .zip(fb.iter())
            .map(|(x, y)| alpha * *x + *y)
            .collect();
        assert!(max_abs_diff(&fc, &recombined) < 1e-10);
    }

    #[test]
    fn large_parallel_path_matches_serial_plan() {
        let mut rng = StdRng::seed_from_u64(56);
        let n = 1 << 16; // above PAR_MIN_SIZE → exercises the parallel branches
        let input = random_state(n, &mut rng);
        let mut fast = input.clone();
        fft(&mut fast, Direction::Forward, Normalization::Sqrt);
        // Compare against the same algorithm forced serial by running it in
        // a single-thread pool.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let mut serial = input.clone();
        pool.install(|| fft(&mut serial, Direction::Forward, Normalization::Sqrt));
        assert!(max_abs_diff(&fast, &serial) < 1e-12);
        assert!((norm2(&fast) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn size_one_and_two() {
        let mut one = vec![c64(0.5, 0.5)];
        fft(&mut one, Direction::Forward, Normalization::None);
        assert!(one[0].approx_eq(c64(0.5, 0.5), 1e-15));

        let mut two = vec![C64::ONE, C64::ZERO];
        fft(&mut two, Direction::Forward, Normalization::None);
        assert!(two[0].approx_eq(C64::ONE, 1e-15));
        assert!(two[1].approx_eq(C64::ONE, 1e-15));
    }

    #[test]
    #[should_panic(expected = "does not match plan size")]
    fn plan_size_mismatch_panics() {
        let plan = FftPlan::new(8);
        let mut data = vec![C64::ZERO; 4];
        fft_inplace(&plan, &mut data, Direction::Forward, Normalization::None);
    }

    #[test]
    fn parseval_theorem() {
        let mut rng = StdRng::seed_from_u64(57);
        let input = random_state(128, &mut rng);
        let energy_in: f64 = input.iter().map(|z| z.norm_sqr()).sum();
        let mut out = input.clone();
        fft(&mut out, Direction::Forward, Normalization::None);
        let energy_out: f64 = out.iter().map(|z| z.norm_sqr()).sum();
        assert!((energy_out / 128.0 - energy_in).abs() < 1e-10);
    }
}
