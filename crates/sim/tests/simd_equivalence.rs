//! SIMD ≡ scalar equivalence for every vectorised kernel.
//!
//! The contract behind the run-time CPU check: whatever path the
//! dispatch picks — AVX2+FMA, or the scalar fallback — every
//! kernel produces the same state to 1e-12. Random states, targets both
//! below `log2(LANES)` (where the pair runs are too short to vectorise
//! and the per-pair scalar path must engage) and above it (the
//! contiguous-run vector path), random controls, and fused blocks at
//! every width 1..=6.
//!
//! On hosts without AVX2 (and off x86-64) both
//! sides of each comparison run the scalar path and the tests degenerate
//! to scalar self-consistency — they still pass, keeping the suite
//! portable. The forced-fallback test at the bottom pins the scalar
//! path explicitly so it stays exercised on AVX hosts too.

use proptest::prelude::*;
use qcemu_linalg::{max_abs_diff, random_state, simd, C64};
use qcemu_sim::kernels::apply_gate_slice;
use qcemu_sim::{Circuit, FusionPolicy, Gate, GateOp, PAR_THRESHOLD};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serialises tests that flip the global [`simd::force_scalar`] toggle,
/// so a concurrently running comparison never sees the flag mid-flip.
static SCALAR_TOGGLE: Mutex<()> = Mutex::new(());

/// Applies `f` twice to clones of `input` — once forced scalar, once on
/// the native path — and returns (scalar, native).
fn scalar_vs_native(input: &[C64], f: impl Fn(&mut Vec<C64>)) -> (Vec<C64>, Vec<C64>) {
    let _guard = SCALAR_TOGGLE.lock().unwrap();
    simd::force_scalar(true);
    let mut scalar = input.to_vec();
    f(&mut scalar);
    simd::force_scalar(false);
    let mut native = input.to_vec();
    f(&mut native);
    (scalar, native)
}

/// A random single-qubit gate drawn from every structural class the
/// kernels specialise (general / diagonal / permutation).
fn gate_for(kind: usize, target: usize, controls: Vec<usize>, theta: f64) -> Gate {
    let op = match kind {
        0 => GateOp::H,
        1 => GateOp::Rx(theta),
        2 => GateOp::Ry(theta),
        3 => GateOp::Rz(theta),
        4 => GateOp::Phase(theta),
        5 => GateOp::S,
        6 => GateOp::X,
        _ => GateOp::T,
    };
    Gate::Unary {
        op,
        target,
        controls,
    }
}

/// Distinct qubit picks from an `n`-qubit register, derived from a seed.
fn pick_qubits(n: usize, how_many: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for i in (1..order.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        order.swap(i, (s as usize) % (i + 1));
    }
    order.truncate(how_many);
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single-gate kernels: every structural class, targets spanning the
    /// short-run (< log2(LANES)) and contiguous-run regimes, 0–2
    /// controls.
    #[test]
    fn single_gate_kernels_simd_matches_scalar(
        kind in 0..8usize,
        n in 4..9usize,
        qubit_seed in 0..1000u64,
        n_controls in 0..3usize,
        theta in -3.0f64..3.0,
        state_seed in 0..1000u64,
    ) {
        let qs = pick_qubits(n, n_controls + 1, qubit_seed);
        let gate = gate_for(kind, qs[0], qs[1..].to_vec(), theta);
        let mut rng = StdRng::seed_from_u64(state_seed);
        let input = random_state(1usize << n, &mut rng);
        let (scalar, native) = scalar_vs_native(&input, |s| apply_gate_slice(s, &gate));
        prop_assert!(
            max_abs_diff(&scalar, &native) < 1e-12,
            "kernel mismatch for {gate:?} on {n} qubits: {}",
            max_abs_diff(&scalar, &native)
        );
    }

    /// SWAP kernel (two targets) across low and high qubit positions.
    #[test]
    fn swap_kernel_simd_matches_scalar(
        n in 4..9usize,
        qubit_seed in 0..1000u64,
        controlled_sel in 0..2usize,
        state_seed in 0..1000u64,
    ) {
        let controlled = controlled_sel == 1;
        let qs = pick_qubits(n, 3, qubit_seed);
        let gate = Gate::Swap {
            a: qs[0],
            b: qs[1],
            controls: if controlled { vec![qs[2]] } else { vec![] },
        };
        let mut rng = StdRng::seed_from_u64(state_seed);
        let input = random_state(1usize << n, &mut rng);
        let (scalar, native) = scalar_vs_native(&input, |s| apply_gate_slice(s, &gate));
        prop_assert!(max_abs_diff(&scalar, &native) < 1e-12, "{gate:?}");
    }

    /// Fused blocks at every width 1..=6 (gather–matvec–scatter for the
    /// dense ones, in-cache replay for the general ones), checked both
    /// SIMD-vs-scalar and fused-vs-unfused.
    #[test]
    fn fused_blocks_simd_matches_scalar_at_all_widths(
        k in 1..7usize,
        n in 7..9usize,
        qubit_seed in 0..1000u64,
        dense_sel in 0..2usize,
        theta in -3.0f64..3.0,
        state_seed in 0..1000u64,
    ) {
        // A gate run confined to k window qubits; enough general gates to
        // trip the dense-classify threshold when `dense` is set.
        let dense = dense_sel == 1;
        let mut window = pick_qubits(n, k, qubit_seed);
        window.sort_unstable();
        let reps = if dense { (1usize << k) / k + 1 } else { 2 };
        let mut c = Circuit::new(n);
        for r in 0..reps {
            for (i, &q) in window.iter().enumerate() {
                match (r + i) % 3 {
                    0 => { c.h(q); },
                    1 => { c.ry(q, theta); },
                    _ => { c.rz(q, theta * 0.7); },
                };
                if i + 1 < window.len() {
                    c.cnot(q, window[i + 1]);
                }
            }
        }
        let fused = c.fuse(&FusionPolicy::Greedy { max_fused_qubits: k });
        let mut rng = StdRng::seed_from_u64(state_seed);
        let input = random_state(1usize << n, &mut rng);
        let (scalar, native) = scalar_vs_native(&input, |s| fused.apply(s, 1, PAR_THRESHOLD));
        prop_assert!(
            max_abs_diff(&scalar, &native) < 1e-12,
            "fused k={k} mismatch: {}",
            max_abs_diff(&scalar, &native)
        );
        // And the fused result still equals plain gate-by-gate execution.
        let mut unfused = input;
        for g in c.gates() {
            apply_gate_slice(&mut unfused, g);
        }
        prop_assert!(max_abs_diff(&native, &unfused) < 1e-11);
    }

    /// The radix-2 FFT (emulation path) agrees across kernels and
    /// directions.
    #[test]
    fn fft_simd_matches_scalar(
        log2n in 2..12usize,
        inverse_sel in 0..2usize,
        state_seed in 0..1000u64,
    ) {
        use qcemu_fft::{fft, Direction, Normalization};
        let dir = if inverse_sel == 1 { Direction::Inverse } else { Direction::Forward };
        let mut rng = StdRng::seed_from_u64(state_seed);
        let input = random_state(1usize << log2n, &mut rng);
        let (scalar, native) =
            scalar_vs_native(&input, |s| fft(s, dir, Normalization::Sqrt));
        prop_assert!(
            max_abs_diff(&scalar, &native) < 1e-12,
            "fft mismatch at n=2^{log2n}"
        );
    }
}

/// The scalar path must stay exercised (and correct) on AVX hosts: force
/// the fallback and check a full mixed circuit against an independently
/// computed reference.
#[test]
fn forced_fallback_runs_the_scalar_path_correctly() {
    let _guard = SCALAR_TOGGLE.lock().unwrap();
    let n = 8;
    let mut c = Circuit::new(n);
    c.h(0)
        .h(7)
        .cnot(0, 7)
        .rz(5, 0.3)
        .cphase(2, 6, -0.9)
        .swap(1, 6);
    c.toffoli(0, 3, 5).ry(4, 1.1).phase(7, 0.25);
    let fused = c.fuse(&FusionPolicy::greedy());

    let mut rng = StdRng::seed_from_u64(77);
    let input = random_state(1usize << n, &mut rng);

    simd::force_scalar(true);
    assert!(
        !simd::simd_active(),
        "force_scalar must disable the vector path"
    );
    let mut gate_by_gate = input.clone();
    for g in c.gates() {
        apply_gate_slice(&mut gate_by_gate, g);
    }
    let mut fused_scalar = input.clone();
    fused.apply(&mut fused_scalar, 1, PAR_THRESHOLD);
    simd::force_scalar(false);

    // Scalar fused ≡ scalar unfused …
    assert!(max_abs_diff(&gate_by_gate, &fused_scalar) < 1e-12);
    // … and ≡ whatever the native path computes.
    let mut native = input;
    for g in c.gates() {
        apply_gate_slice(&mut native, g);
    }
    assert!(max_abs_diff(&gate_by_gate, &native) < 1e-12);
}

/// `SimConfig::par_threshold` reaches the kernels: forcing the parallel
/// threshold to 1 (every kernel call goes through the parallel dispatch)
/// must not change any state, fused or unfused.
#[test]
fn par_threshold_override_preserves_semantics() {
    use qcemu_sim::{SimConfig, StateVector};
    let n = 10;
    let c = qcemu_sim::qft_circuit(n);
    let mut reference = StateVector::uniform_superposition(n);
    reference.run(&c, &SimConfig::unfused());
    for config in [
        SimConfig::unfused().with_par_threshold(1),
        SimConfig::fused(4).with_par_threshold(1),
        SimConfig::fused(4).with_par_threshold(usize::MAX),
    ] {
        let mut sv = StateVector::uniform_superposition(n);
        sv.run(&c, &config);
        assert!(
            sv.max_diff_up_to_phase(&reference) < 1e-12,
            "config {config:?} diverged"
        );
    }
}
