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
//!
//! A batch-major ensemble (amplitude `i` of member `j` at `i·B + j`) is
//! the same picture with `B` times the columns, so
//! [`fft_subspace_batch`] transforms every member in one engine call and
//! the lone-state functions are its `B = 1` case.

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
/// remaining qubits: [`fft_subspace_batch`] of a one-member ensemble.
///
/// `state.len()` must be `2^n_qubits`; `bits` must be distinct and within
/// range.
pub fn fft_subspace(
    state: &mut [C64],
    n_qubits: usize,
    bits: &[usize],
    dir: Direction,
    norm: Normalization,
) {
    fft_subspace_batch(state, n_qubits, 1, bits, dir, norm);
}

/// [`fft_subspace`] on every member of a batch-major ensemble of `batch`
/// n-qubit states (amplitude `i` of member `j` at `state[i·batch + j]`),
/// in one pass of the engine: the register's columns are `batch · 2^lo`
/// wide, so no member is ever de-interleaved.
///
/// `state.len()` must be `batch · 2^n_qubits`; `bits` must be distinct and
/// within range.
pub fn fft_subspace_batch(
    state: &mut [C64],
    n_qubits: usize,
    batch: usize,
    bits: &[usize],
    dir: Direction,
    norm: Normalization,
) {
    assert!(batch > 0, "batch must be non-empty");
    let n = 1usize << n_qubits;
    assert_eq!(
        state.len(),
        n * batch,
        "state length must be batch · 2^n_qubits"
    );
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
        AxisPlan::new(batch << bits[0], m).run(state, dir, norm);
        return;
    }

    // General path: permute so the register becomes the low qubits,
    // batch-transform, permute back. Each index moves its whole run of
    // `batch` member amplitudes.
    let comp: Vec<usize> = (0..n_qubits).filter(|q| !bits.contains(q)).collect();

    // Forward permutation: dst[(c << m) | v] = src[scatter(v, bits) | scatter(c, comp)].
    let mut permuted = vec![C64::ZERO; state.len()];
    permuted
        .par_chunks_mut(batch)
        .enumerate()
        .for_each(|(d, run)| {
            let v = d & ((1usize << m) - 1);
            let c = d >> m;
            let s = (scatter_bits(v, bits) | scatter_bits(c, &comp)) * batch;
            run.copy_from_slice(&state[s..s + batch]);
        });

    AxisPlan::new(batch, m).run(&mut permuted, dir, norm);

    // Inverse permutation back to the original bit layout.
    state
        .par_chunks_mut(batch)
        .enumerate()
        .for_each(|(d, run)| {
            let v = gather_bits(d, bits);
            let c = gather_bits(d, &comp);
            let s = ((c << m) | v) * batch;
            run.copy_from_slice(&permuted[s..s + batch]);
        });
}

/// QFT (paper Eq. 4 convention: positive exponent, 1/√N) on the given
/// register of a larger state.
pub fn qft_subspace(state: &mut [C64], n_qubits: usize, bits: &[usize]) {
    qft_subspace_batch(state, n_qubits, 1, bits);
}

/// Inverse QFT on the given register of a larger state.
pub fn inverse_qft_subspace(state: &mut [C64], n_qubits: usize, bits: &[usize]) {
    inverse_qft_subspace_batch(state, n_qubits, 1, bits);
}

/// [`qft_subspace`] on every member of a batch-major ensemble (see
/// [`fft_subspace_batch`]).
pub fn qft_subspace_batch(state: &mut [C64], n_qubits: usize, batch: usize, bits: &[usize]) {
    let (dir, norm) = (Direction::Inverse, Normalization::Sqrt);
    fft_subspace_batch(state, n_qubits, batch, bits, dir, norm);
}

/// [`inverse_qft_subspace`] on every member of a batch-major ensemble
/// (see [`fft_subspace_batch`]).
pub fn inverse_qft_subspace_batch(
    state: &mut [C64],
    n_qubits: usize,
    batch: usize,
    bits: &[usize],
) {
    let (dir, norm) = (Direction::Forward, Normalization::Sqrt);
    fft_subspace_batch(state, n_qubits, batch, bits, dir, norm);
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

    /// `members` interleaved batch-major: member `j`'s amplitude `i` at
    /// `i·B + j`.
    fn interleave(members: &[Vec<C64>]) -> Vec<C64> {
        let batch = members.len();
        let mut out = vec![C64::ZERO; members[0].len() * batch];
        for (j, member) in members.iter().enumerate() {
            for (i, &z) in member.iter().enumerate() {
                out[i * batch + j] = z;
            }
        }
        out
    }

    /// Largest distance between member `j` of a batch-major buffer and
    /// `member`.
    fn lane_diff(buf: &[C64], batch: usize, j: usize, member: &[C64]) -> f64 {
        member
            .iter()
            .enumerate()
            .map(|(i, &z)| (buf[i * batch + j] - z).abs())
            .fold(0.0, f64::max)
    }

    /// One call on the batch-major buffer ≡ each member's own call:
    /// registers at the bottom, middle and top of the state and a
    /// scattered one, B ∈ {1, 2, 3, 8}, pools {1, 2, 3}, native and
    /// forced-scalar kernels; bit-identical at B = 1.
    #[test]
    fn batch_major_register_fft_matches_each_member_alone() {
        let mut rng = StdRng::seed_from_u64(76);
        let n_qubits = 11;
        let registers: [&[usize]; 5] = [
            &[0, 1, 2],
            &[4, 5, 6, 7],
            &[8, 9, 10],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            &[6, 1, 9],
        ];
        for scalar in [false, true] {
            let _backend = scalar.then(qcemu_linalg::simd::ForcedScalar::engage);
            for threads in [1, 2, 3] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                for batch in [1usize, 2, 3, 8] {
                    let members: Vec<Vec<C64>> = (0..batch)
                        .map(|_| random_state(1 << n_qubits, &mut rng))
                        .collect();
                    for bits in registers {
                        for dir in [Direction::Forward, Direction::Inverse] {
                            let mut buf = interleave(&members);
                            pool.install(|| {
                                fft_subspace_batch(
                                    &mut buf,
                                    n_qubits,
                                    batch,
                                    bits,
                                    dir,
                                    Normalization::Sqrt,
                                )
                            });
                            for (j, member) in members.iter().enumerate() {
                                let mut alone = member.clone();
                                pool.install(|| {
                                    fft_subspace(
                                        &mut alone,
                                        n_qubits,
                                        bits,
                                        dir,
                                        Normalization::Sqrt,
                                    )
                                });
                                let diff = lane_diff(&buf, batch, j, &alone);
                                let tag = format!("scalar {scalar}, pool {threads}, B = {batch}, member {j}, bits {bits:?}, {dir:?}");
                                assert!(diff <= 1e-12, "{tag}: {diff:.3e}");
                                if batch == 1 {
                                    assert_eq!(buf, alone, "{tag}: B = 1 must be bit-identical");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// With the engine's cache block shrunk, an axis splits into two and
    /// three passes (bit reversal, tiled columns, inter-pass twiddles) at
    /// sizes a test can afford; the batch-major plan over `B·2^lo`
    /// columns must still match each member's own `2^lo`-column plan.
    #[test]
    fn a_split_multi_pass_axis_matches_each_member_alone() {
        let mut rng = StdRng::seed_from_u64(77);
        for block_bits in [3u32, 4, 5] {
            for batch in [1usize, 2, 3, 8] {
                for (lo, m, above) in [(0u32, 7u32, 1u32), (2, 6, 0), (1, 8, 1), (3, 5, 2)] {
                    let len = 1usize << (lo + m + above);
                    let members: Vec<Vec<C64>> =
                        (0..batch).map(|_| random_state(len, &mut rng)).collect();
                    let plan = AxisPlan::with_block_bits(batch << lo, m, block_bits);
                    let solo = AxisPlan::with_block_bits(1 << lo, m, block_bits);
                    for dir in [Direction::Forward, Direction::Inverse] {
                        let mut buf = interleave(&members);
                        plan.run(&mut buf, dir, Normalization::Sqrt);
                        for (j, member) in members.iter().enumerate() {
                            let mut alone = member.clone();
                            solo.run(&mut alone, dir, Normalization::Sqrt);
                            let diff = lane_diff(&buf, batch, j, &alone);
                            assert!(
                                diff <= 1e-12,
                                "block 2^{block_bits}, B = {batch}, lo = {lo}, m = {m}, member {j}, {dir:?}: {diff:.3e}"
                            );
                        }
                    }
                }
            }
            // The shrunk block really does split these axes.
            assert!(AxisPlan::with_block_bits(3, 7, block_bits).passes() > 1);
        }
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
