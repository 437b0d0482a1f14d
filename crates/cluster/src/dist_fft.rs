//! Distributed 1-D FFT with three all-to-all transposes (paper Eq. 5).
//!
//! Bailey's four-step structure (the split is `qcemu_fft::square_split`),
//! with the transposes as genuine all-to-all exchanges over the virtual
//! cluster; the per-rank row transforms are `qcemu_fft::fft_inplace`. The logical
//! vector of `N = N1·N2` amplitudes is viewed as an `N1×N2` row-major
//! matrix; rank `r` holds `N1/P` contiguous rows, which is exactly the
//! high-bit slice decomposition of [`crate::dist_state::DistributedState`].

use crate::comm::Comm;
use qcemu_fft::{fft_inplace, square_split, Direction, FftPlan, Normalization};
use qcemu_linalg::C64;

/// Distributed transpose of an `rows × cols` matrix whose rows are sliced
/// evenly over the ranks. Input: this rank's `rows/P` rows (row-major).
/// Output: this rank's `cols/P` rows of the transposed matrix.
pub fn distributed_transpose(local: &[C64], rows: usize, cols: usize, comm: &mut Comm) -> Vec<C64> {
    let p = comm.size();
    assert_eq!(rows % p, 0, "P must divide the row count");
    assert_eq!(cols % p, 0, "P must divide the column count");
    let my_rows = rows / p; // rows held before the transpose
    let out_rows = cols / p; // rows held after
    assert_eq!(local.len(), my_rows * cols, "local slice size mismatch");

    // Partition my rows into P column-blocks; block d goes to rank d.
    let chunks: Vec<Vec<C64>> = (0..p)
        .map(|dest| {
            let c0 = dest * out_rows;
            let mut block = Vec::with_capacity(my_rows * out_rows);
            for r in 0..my_rows {
                block.extend_from_slice(&local[r * cols + c0..r * cols + c0 + out_rows]);
            }
            block
        })
        .collect();

    let received = comm.all_to_all(chunks);

    // Assemble: the block from rank s covers original rows
    // [s·my_rows, (s+1)·my_rows) × my column range; transposed it fills
    // columns [s·my_rows, …) of my out_rows × rows matrix.
    let mut out = vec![C64::ZERO; out_rows * rows];
    for (src, block) in received.iter().enumerate() {
        assert_eq!(block.len(), my_rows * out_rows);
        let col0 = src * my_rows;
        for br in 0..my_rows {
            for bc in 0..out_rows {
                out[bc * rows + col0 + br] = block[br * out_rows + bc];
            }
        }
    }
    out
}

/// In-place distributed FFT of the slice-distributed vector of
/// `2^n_qubits` amplitudes. Requires `P ≤ min(N1, N2)` for the square
/// split (`P ≤ 2^{n/2}`), which the weak-scaling benchmarks satisfy.
///
/// Three [`distributed_transpose`] calls — the paper's three all-to-alls.
pub fn distributed_fft(
    local: &mut Vec<C64>,
    n_qubits: usize,
    dir: Direction,
    norm: Normalization,
    comm: &mut Comm,
) {
    let n = 1usize << n_qubits;
    let p = comm.size();
    let (n1, n2) = square_split(n);
    assert!(p <= n1 && p <= n2, "too many ranks for the matrix split");
    assert_eq!(local.len(), n / p, "local slice size mismatch");
    if n == 1 {
        return;
    }

    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let plan1 = FftPlan::new(n1);
    let plan2 = FftPlan::new(n2);

    // Transpose #1: N1×N2 → N2×N1; now rows are (original) columns.
    let mut t = distributed_transpose(local, n1, n2, comm);

    // Local FFTs of length N1 on each of my N2/P rows, then twiddle.
    let my_rows = n2 / p;
    let row0 = comm.rank() * my_rows;
    for lr in 0..my_rows {
        let row = &mut t[lr * n1..(lr + 1) * n1];
        fft_inplace(&plan1, row, dir, Normalization::None);
        let j2 = row0 + lr;
        let base = sign * std::f64::consts::TAU / n as f64;
        for (k1, z) in row.iter_mut().enumerate() {
            *z *= C64::cis(base * (j2 * k1) as f64);
        }
    }

    // Transpose #2: back to N1×N2.
    let mut u = distributed_transpose(&t, n2, n1, comm);

    // Local FFTs of length N2 on each of my N1/P rows.
    for row in u.chunks_mut(n2) {
        fft_inplace(&plan2, row, dir, Normalization::None);
    }

    // Transpose #3: element [k1][k2] holds X[k2·N1 + k1]; transposing to
    // N2×N1 puts X in natural order, slice-distributed.
    let mut out = distributed_transpose(&u, n1, n2, comm);

    let factor = norm.factor(n);
    if factor != 1.0 {
        for z in out.iter_mut() {
            *z *= factor;
        }
    }
    *local = out;
}

/// Number of all-to-all phases the distributed FFT performs (paper: 3).
pub const FFT_ALL_TO_ALL_PHASES: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;
    use crate::model::MachineModel;
    use qcemu_fft::fft;
    use qcemu_linalg::{max_abs_diff, random_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distributed_transpose_matches_serial() {
        let mut rng = StdRng::seed_from_u64(21);
        let rows = 8;
        let cols = 16;
        let full = random_state(rows * cols, &mut rng);
        for p in [1usize, 2, 4, 8] {
            let full_ref = &full;
            let results = run(p, MachineModel::stampede(), move |comm| {
                let my_rows = rows / p;
                let start = comm.rank() * my_rows * cols;
                let local = full_ref[start..start + my_rows * cols].to_vec();
                distributed_transpose(&local, rows, cols, comm)
            });
            let serial: Vec<C64> = (0..rows * cols)
                .map(|i| full[(i % rows) * cols + i / rows])
                .collect();
            let mut gathered = Vec::new();
            for (piece, _) in &results {
                gathered.extend_from_slice(piece);
            }
            assert!(
                max_abs_diff(&gathered, &serial) < 1e-15,
                "transpose mismatch at p = {p}"
            );
        }
    }

    #[test]
    fn distributed_fft_matches_serial_fft() {
        let mut rng = StdRng::seed_from_u64(22);
        for n_qubits in [4usize, 6, 8, 10] {
            let n = 1usize << n_qubits;
            let input = random_state(n, &mut rng);
            let mut expect = input.clone();
            fft(&mut expect, Direction::Inverse, Normalization::Sqrt);

            for p in [1usize, 2, 4] {
                let input_ref = &input;
                let results = run(p, MachineModel::stampede(), move |comm| {
                    let chunk = n / p;
                    let start = comm.rank() * chunk;
                    let mut local = input_ref[start..start + chunk].to_vec();
                    distributed_fft(
                        &mut local,
                        n_qubits,
                        Direction::Inverse,
                        Normalization::Sqrt,
                        comm,
                    );
                    local
                });
                let mut gathered = Vec::new();
                for (piece, _) in &results {
                    gathered.extend_from_slice(piece);
                }
                assert!(
                    max_abs_diff(&gathered, &expect) < 1e-9,
                    "dist FFT ≠ serial at n = {n_qubits}, p = {p}: {}",
                    max_abs_diff(&gathered, &expect)
                );
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip_distributed() {
        let mut rng = StdRng::seed_from_u64(23);
        let n_qubits = 8;
        let n = 1usize << n_qubits;
        let input = random_state(n, &mut rng);
        let input_ref = &input;
        let results = run(4, MachineModel::stampede(), move |comm| {
            let chunk = n / 4;
            let start = comm.rank() * chunk;
            let mut local = input_ref[start..start + chunk].to_vec();
            distributed_fft(
                &mut local,
                n_qubits,
                Direction::Forward,
                Normalization::Sqrt,
                comm,
            );
            distributed_fft(
                &mut local,
                n_qubits,
                Direction::Inverse,
                Normalization::Sqrt,
                comm,
            );
            local
        });
        let mut gathered = Vec::new();
        for (piece, _) in &results {
            gathered.extend_from_slice(piece);
        }
        assert!(max_abs_diff(&gathered, &input) < 1e-10);
    }

    #[test]
    fn communication_volume_is_three_all_to_alls() {
        // Each transpose sends (P−1)/P of the slice; three of them.
        let n_qubits = 10;
        let n = 1usize << n_qubits;
        let p = 4;
        let results = run(p, MachineModel::stampede(), move |comm| {
            let mut local = vec![C64::ZERO; n / p];
            local[0] = C64::ONE;
            distributed_fft(
                &mut local,
                n_qubits,
                Direction::Forward,
                Normalization::None,
                comm,
            );
            comm.bytes_sent()
        });
        let expected_per_rank = 3 * (n / p) * 16 * (p - 1) / p;
        for (bytes, _) in &results {
            assert_eq!(*bytes as usize, expected_per_rank);
        }
    }
}
