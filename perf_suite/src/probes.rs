//! Stand-alone layer probes: one public function of one crate, timed on
//! a fixed input. They give a layer a number (and a ceiling to hold it
//! against) that does not depend on what the rest of a workload does.
//!
//! Bytes are *computed* from array sizes (every amplitude read and
//! written once per pass, 32 bytes), not measured.

use crate::stats::median;
use qcemu_linalg::{c64, random_state, random_unitary, simd, C64};
use qcemu_sim::{apply_gate_batch, apply_gate_slice, Gate, GateOp, StateVector, PAR_THRESHOLD};
use rand::{rngs::StdRng, SeedableRng};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;
const AMP_BYTES: f64 = 16.0;

/// Median of `reps` values of `sample`, which times one call itself (so
/// that it can prepare the input before and check the output after).
pub fn median_of(reps: usize, sample: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = std::iter::repeat_with(sample).take(reps).collect();
    median(&samples)
}

/// Median wall time of `reps` calls of `f`, after one discarded call.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    median_of(reps, || {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    })
}

/// `f` under a one-thread view of the pool: the plain single-threaded
/// baseline of the same code.
pub fn single_threaded<T>(f: impl FnOnce() -> T) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool view")
        .install(f)
}

pub struct Triad {
    pub gbps: f64,
    pub gbps_1t: f64,
    pub array_mib: f64,
}

/// STREAM triad `a = b + s·c` over three `f64` arrays, each at least four
/// times the last-level cache, the three together at most a quarter of
/// RAM. Counts 24 bytes per element (two reads, one write).
pub fn triad(llc_mib: f64, ram_mib: f64, quick: bool) -> Triad {
    let array_mib = if quick {
        4.0
    } else {
        (4.0 * llc_mib).min(ram_mib / 12.0).max(64.0)
    };
    let len = (array_mib * MIB / 8.0) as usize;
    let chunk = 1 << 16;
    // Written in parallel so pages are first touched by the threads that
    // will stream them.
    let fill = |value: f64| -> Vec<f64> {
        let mut v = vec![0.0f64; len];
        v.par_chunks_mut(chunk).for_each(|c| c.fill(value));
        v
    };
    let (mut a, b, c) = (fill(0.0), fill(1.0), fill(2.0));
    let scale = 3.0;
    let pass = |a: &mut Vec<f64>| {
        a.par_chunks_mut(chunk).enumerate().for_each(|(k, out)| {
            let off = k * chunk;
            let (b, c) = (&b[off..off + out.len()], &c[off..off + out.len()]);
            for ((x, &y), &z) in out.iter_mut().zip(b).zip(c) {
                *x = y + scale * z;
            }
        });
        black_box(a[len / 2]);
    };
    let bytes = 24.0 * len as f64;
    let t = time_median(3, || pass(&mut a));
    let t_1t = single_threaded(|| time_median(2, || pass(&mut a)));
    Triad {
        gbps: bytes / t / 1e9,
        gbps_1t: bytes / t_1t / 1e9,
        array_mib: len as f64 * 8.0 / MIB,
    }
}

/// `StateVector::zero_state(n)` plus the first touch of every page.
pub fn state_alloc_s(n: usize) -> f64 {
    time_median(3, || {
        let mut state = StateVector::zero_state(n);
        for amp in state.amplitudes_mut().iter_mut().step_by(256) {
            amp.re += 0.0;
        }
        black_box(state.amplitudes()[1]);
    })
}

fn seeded_state(n: usize) -> Vec<C64> {
    random_state(1 << n, &mut StdRng::seed_from_u64(0xb07))
}

/// GB/s of `simd::butterfly_slices` over the two halves of a 2^n state
/// with a complex 2×2 (the general-gate inner loop), native and with the
/// scalar path forced.
pub fn butterfly_gbps(n: usize) -> (f64, f64) {
    let mut state = seeded_state(n);
    let m = GateOp::Rx(0.3).matrix();
    let bytes = 2.0 * AMP_BYTES * state.len() as f64;
    let mut run = |scalar: bool| {
        simd::force_scalar(scalar);
        let t = time_median(5, || {
            let (lo, hi) = state.split_at_mut(1 << (n - 1));
            simd::butterfly_slices(lo, hi, &m);
        });
        simd::force_scalar(false);
        bytes / t / 1e9
    };
    (run(false), run(true))
}

pub struct Dense {
    pub gemm_gflops: f64,
    pub eig_s: f64,
    pub powers_s: f64,
}

/// `gemm`, `eig` and `powers_of_two` on a random unitary of size `dim`.
pub fn dense(dim: usize, bits: usize) -> Dense {
    let u = random_unitary(dim, &mut StdRng::seed_from_u64(0xde5e));
    let gemm_s = time_median(5, || {
        black_box(qcemu_linalg::gemm(&u, &u));
    });
    let eig_s = time_median(3, || {
        black_box(qcemu_linalg::eig(&u).expect("eig converges on a unitary"));
    });
    let powers_s = time_median(3, || {
        black_box(qcemu_linalg::powers_of_two(
            &u,
            bits,
            qcemu_linalg::MulAlgorithm::Gemm,
        ));
    });
    Dense {
        gemm_gflops: qcemu_linalg::gemm::gemm_flops(dim) / gemm_s / 1e9,
        eig_s,
        powers_s,
    }
}

/// `qft_convention` on 2^n amplitudes: seconds, and the computed GB/s of
/// n butterfly passes reading and writing every amplitude.
pub fn fft(n: usize) -> (f64, f64) {
    let mut data = seeded_state(n);
    let t = time_median(5, || qcemu_fft::qft_convention(&mut data));
    let bytes = n as f64 * 2.0 * AMP_BYTES * data.len() as f64;
    (t, bytes / t / 1e9)
}

pub struct Kernels {
    pub h_q0: f64,
    pub h_qmid: f64,
    pub h_qtop: f64,
    pub cphase: f64,
    pub x: f64,
    pub swap: f64,
}

/// One gate at a time on a 2^n state, swept over target position (the
/// `hbench`/`swapbench` probe): computed GB/s, full state read and
/// written per gate.
pub fn kernels(n: usize) -> Kernels {
    let mut state = seeded_state(n);
    let bytes = 2.0 * AMP_BYTES * state.len() as f64;
    let (mid, top) = (n / 2, n - 1);
    let mut gbps = |gate: Gate| {
        let t = time_median(5, || apply_gate_slice(&mut state, &gate));
        bytes / t / 1e9
    };
    Kernels {
        h_q0: gbps(Gate::h(0)),
        h_qmid: gbps(Gate::h(mid)),
        h_qtop: gbps(Gate::h(top)),
        cphase: gbps(Gate::cphase(mid, top, 0.7)),
        x: gbps(Gate::x(mid)),
        swap: gbps(Gate::swap(3.min(top - 1), top)),
    }
}

/// Nanoseconds per H on a state below `PAR_THRESHOLD`: the serial
/// per-gate cost with no pool dispatch in it.
pub fn serial_gate_ns() -> f64 {
    let n = 12;
    assert!((1usize << n) < PAR_THRESHOLD);
    let mut state = seeded_state(n);
    let gates: Vec<Gate> = (0..1200).map(|i| Gate::h(i % n)).collect();
    let t = time_median(5, || {
        for gate in &gates {
            apply_gate_slice(&mut state, gate);
        }
    });
    t / gates.len() as f64 * 1e9
}

/// Nanoseconds per dispatch of a minimal parallel region (two indices,
/// empty body), median of 10 000.
pub fn pool_dispatch_ns() -> f64 {
    rayon::pool::warm_up();
    let mut samples = Vec::with_capacity(100);
    for _ in 0..100 {
        let t0 = Instant::now();
        for _ in 0..100 {
            (0..2usize).into_par_iter().for_each(|i| {
                black_box(i);
            });
        }
        samples.push(t0.elapsed().as_secs_f64() / 100.0);
    }
    median(&samples) * 1e9
}

/// `apply_gate_batch` with H on the middle qubit of `batch` interleaved
/// 2^n states: computed GB/s.
pub fn batch_gate_gbps(n: usize, batch: usize) -> f64 {
    let mut state = vec![c64(0.0, 0.0); batch << n];
    state
        .par_chunks_mut(1 << 12)
        .for_each(|c| c.fill(c64(0.5, -0.5)));
    let gate = Gate::h(n / 2);
    let t = time_median(5, || {
        apply_gate_batch(&mut state, batch, &gate, PAR_THRESHOLD)
    });
    2.0 * AMP_BYTES * state.len() as f64 / t / 1e9
}
