//! Fourier transforms on a *subset* of qubits of a state vector.
//!
//! The emulator replaces a QFT circuit acting on an m-qubit register inside
//! an n-qubit machine with a batched FFT over the 2^m-dimensional subspace,
//! repeated for every assignment of the other n−m qubits. A register on
//! consecutive qubits `lo..lo+m` — every register a `QuantumProgram`
//! declares — is exactly the engine's axis transform and runs in place
//! whatever `lo` is: the `2^lo` low qubits index columns that share one
//! transform. Only a scattered or reordered bit list is permuted so the
//! register becomes the low qubits, transformed, and permuted back.

use crate::engine::AxisPlan;
use crate::plan::{Direction, Normalization};
use qcemu_linalg::C64;
use rayon::prelude::*;

/// Extracts the bits of `x` at positions `bits` (LSB first) into a compact
/// integer: result bit `j` = bit `bits[j]` of `x`.
#[inline]
pub fn gather_bits(x: usize, bits: &[usize]) -> usize {
    let mut v = 0usize;
    for (j, &b) in bits.iter().enumerate() {
        v |= ((x >> b) & 1) << j;
    }
    v
}

/// Inverse of [`gather_bits`]: spreads the low bits of `v` to positions
/// `bits`.
#[inline]
pub fn scatter_bits(v: usize, bits: &[usize]) -> usize {
    let mut x = 0usize;
    for (j, &b) in bits.iter().enumerate() {
        x |= ((v >> j) & 1) << b;
    }
    x
}

/// Applies a length-2^m FFT along the register formed by `bits` (LSB first)
/// of an n-qubit state vector, independently for every assignment of the
/// remaining qubits.
///
/// `state.len()` must be `2^n_qubits`; `bits` must be distinct and within
/// range.
pub fn fft_subspace(
    state: &mut Vec<C64>,
    n_qubits: usize,
    bits: &[usize],
    dir: Direction,
    norm: Normalization,
) {
    let n = state.len();
    assert_eq!(n, 1usize << n_qubits, "state length must be 2^n_qubits");
    let m = bits.len();
    assert!(m >= 1, "empty register");
    let mut seen = vec![false; n_qubits];
    for &b in bits {
        assert!(b < n_qubits, "register bit {b} out of range");
        assert!(!seen[b], "duplicate register bit {b}");
        seen[b] = true;
    }

    // Tables are built here, once per call; the engine allocates nothing
    // per chunk.
    if bits.iter().enumerate().all(|(j, &b)| b == bits[0] + j) {
        AxisPlan::new(bits[0], m).run(state, dir, norm);
        return;
    }

    // General path: permute so the register becomes the low qubits,
    // batch-transform, permute back.
    let comp: Vec<usize> = (0..n_qubits).filter(|q| !bits.contains(q)).collect();

    // Forward permutation: dst[(c << m) | v] = src[scatter(v, bits) | scatter(c, comp)].
    let src = std::mem::take(state);
    let mut permuted: Vec<C64> = (0..n)
        .into_par_iter()
        .map(|d| {
            let v = d & ((1usize << m) - 1);
            let c = d >> m;
            src[scatter_bits(v, bits) | scatter_bits(c, &comp)]
        })
        .collect();

    AxisPlan::new(0, m).run(&mut permuted, dir, norm);

    // Inverse permutation back to the original bit layout.
    let out: Vec<C64> = (0..n)
        .into_par_iter()
        .map(|d| {
            let v = gather_bits(d, bits);
            let c = gather_bits(d, &comp);
            permuted[(c << m) | v]
        })
        .collect();
    *state = out;
}

/// QFT (paper Eq. 4 convention: positive exponent, 1/√N) on the given
/// register of a larger state.
pub fn qft_subspace(state: &mut Vec<C64>, n_qubits: usize, bits: &[usize]) {
    fft_subspace(
        state,
        n_qubits,
        bits,
        Direction::Inverse,
        Normalization::Sqrt,
    );
}

/// Inverse QFT on the given register of a larger state.
pub fn inverse_qft_subspace(state: &mut Vec<C64>, n_qubits: usize, bits: &[usize]) {
    fft_subspace(
        state,
        n_qubits,
        bits,
        Direction::Forward,
        Normalization::Sqrt,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix2::qft_convention;
    use qcemu_linalg::{max_abs_diff, norm2, random_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gather_scatter_roundtrip() {
        let bits = [1, 3, 4];
        for v in 0..8 {
            let x = scatter_bits(v, &bits);
            assert_eq!(gather_bits(x, &bits), v);
        }
        assert_eq!(scatter_bits(0b101, &bits), (1 << 1) | (1 << 4));
    }

    #[test]
    fn full_register_low_bits_matches_plain_fft() {
        let mut rng = StdRng::seed_from_u64(70);
        let n_qubits = 8;
        let input = random_state(1 << n_qubits, &mut rng);
        let bits: Vec<usize> = (0..n_qubits).collect();
        let mut a = input.clone();
        fft_subspace(
            &mut a,
            n_qubits,
            &bits,
            Direction::Inverse,
            Normalization::Sqrt,
        );
        let mut b = input.clone();
        qft_convention(&mut b);
        assert!(max_abs_diff(&a, &b) < 1e-11);
    }

    #[test]
    fn low_subregister_transforms_blocks_independently() {
        let mut rng = StdRng::seed_from_u64(71);
        // 3-qubit register inside 5 qubits → 4 independent blocks of 8.
        let input = random_state(32, &mut rng);
        let mut a = input.clone();
        fft_subspace(
            &mut a,
            5,
            &[0, 1, 2],
            Direction::Inverse,
            Normalization::Sqrt,
        );
        for blk in 0..4 {
            let mut expect: Vec<C64> = input[blk * 8..(blk + 1) * 8].to_vec();
            qft_convention(&mut expect);
            assert!(max_abs_diff(&a[blk * 8..(blk + 1) * 8], &expect) < 1e-11);
        }
    }

    #[test]
    fn high_subregister_matches_manual_computation() {
        let mut rng = StdRng::seed_from_u64(72);
        // Register on qubits [2, 3] of a 4-qubit state.
        let n_q = 4;
        let bits = [2usize, 3usize];
        let input = random_state(16, &mut rng);
        let mut fast = input.clone();
        fft_subspace(
            &mut fast,
            n_q,
            &bits,
            Direction::Inverse,
            Normalization::Sqrt,
        );

        // Manual: for each assignment of qubits (0,1), do a 4-point QFT over
        // the register value.
        let mut expect = vec![C64::ZERO; 16];
        for c in 0..4usize {
            let mut sub: Vec<C64> = (0..4).map(|v| input[c | (v << 2)]).collect();
            qft_convention(&mut sub);
            for v in 0..4 {
                expect[c | (v << 2)] = sub[v];
            }
        }
        assert!(max_abs_diff(&fast, &expect) < 1e-11);
    }

    #[test]
    fn non_monotonic_bit_order_reverses_register_semantics() {
        let mut rng = StdRng::seed_from_u64(73);
        // bits [1, 0]: qubit 1 is the LSB of the register value.
        let input = random_state(4, &mut rng);
        let mut fast = input.clone();
        fft_subspace(
            &mut fast,
            2,
            &[1, 0],
            Direction::Forward,
            Normalization::None,
        );
        // Register value v = bit1 + 2·bit0 → index map 0→0, 1→2, 2→1, 3→3.
        let reorder = [0usize, 2, 1, 3];
        let gathered: Vec<C64> = reorder.iter().map(|&i| input[i]).collect();
        let spectrum =
            crate::dft::dft_reference(&gathered, Direction::Forward, Normalization::None);
        for (v, &idx) in reorder.iter().enumerate() {
            assert!(
                fast[idx].approx_eq(spectrum[v], 1e-10),
                "v = {v}: {:?} vs {:?}",
                fast[idx],
                spectrum[v]
            );
        }
    }

    #[test]
    fn subspace_qft_preserves_norm() {
        let mut rng = StdRng::seed_from_u64(74);
        let mut state = random_state(64, &mut rng);
        qft_subspace(&mut state, 6, &[1, 3, 5]);
        assert!((norm2(&state) - 1.0).abs() < 1e-11);
    }

    #[test]
    fn qft_then_inverse_is_identity_on_subspace() {
        let mut rng = StdRng::seed_from_u64(75);
        let input = random_state(128, &mut rng);
        let mut state = input.clone();
        qft_subspace(&mut state, 7, &[2, 4, 6]);
        inverse_qft_subspace(&mut state, 7, &[2, 4, 6]);
        assert!(max_abs_diff(&state, &input) < 1e-11);
    }

    #[test]
    #[should_panic(expected = "duplicate register bit")]
    fn rejects_duplicate_bits() {
        let mut state = vec![C64::ONE; 4];
        fft_subspace(
            &mut state,
            2,
            &[0, 0],
            Direction::Forward,
            Normalization::None,
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_bits() {
        let mut state = vec![C64::ONE; 4];
        fft_subspace(&mut state, 2, &[5], Direction::Forward, Normalization::None);
    }
}
