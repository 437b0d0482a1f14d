//! Batched-execution harness: the batch axis must be *invisible* to every
//! observable. A [`BatchStateVector`] advanced through batch-major kernels
//! must agree amplitude-for-amplitude (≤1e-12) with N independent
//! sequential runs — across gate classes, fusion on/off, SIMD and
//! forced-scalar backends, and ragged batch sizes — and batched sampling
//! must reproduce each member's seeded sample stream bit-for-bit.
//!
//! Also covers the satellite properties: the [`BatchExecutor`] plan cache
//! misses exactly once per program *structure* (not per instance, not per
//! run), and a seeded chi-square test pins the sampler to a known 3-qubit
//! distribution.

use proptest::prelude::*;
use qcemu::prelude::*;
use qcemu_core::{ClassicalMap, MapKind, PlanInterpreter, Policy, RotationOp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

mod common;
use common::{random_circuit, scalar_lock, ForcedScalar};

/// Ragged batch widths: 1 (degenerate), sub-lane (3), exactly one AVX2
/// register of complex lanes (4), one-past (5), and a multi-register run
/// with a scalar tail (17).
const RAGGED: [usize; 5] = [1, 3, 4, 5, 17];

/// Distinct member start states: basis states walked through the space so
/// no two members coincide (until the dimension wraps).
fn member_states(n: usize, batch: usize) -> Vec<StateVector> {
    (0..batch)
        .map(|j| StateVector::basis_state(n, (j * 3 + 1) % (1 << n)))
        .collect()
}

/// Runs `circuit` batched and per-member under `config`; asserts the
/// batched result matches every sequential member ≤1e-12 — and, at
/// `batch = 1`, bit for bit: a lone state *is* the one-member buffer and
/// runs the very same kernels.
fn assert_batched_matches_sequential(circuit: &Circuit, config: &SimConfig, batch: usize) {
    let n = circuit.n_qubits();
    let starts = member_states(n, batch);
    let mut bsv = BatchStateVector::from_states(&starts);
    bsv.run(circuit, config);
    for (j, start) in starts.iter().enumerate() {
        let mut reference = start.clone();
        reference.run(circuit, config);
        let diff = bsv.member_max_diff(j, &reference);
        assert!(
            diff <= 1e-12,
            "member {j}/{batch} deviates by {diff:.3e} (fusion: {:?})",
            config.fusion
        );
        if batch == 1 {
            assert_eq!(bsv.member(0), reference, "batch = 1 must be bit-identical");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole equivalence: batched ≡ N independent runs over random
    /// circuits, fused and unfused, at every ragged batch width, on the
    /// build's default backend.
    #[test]
    fn batched_run_matches_sequential_members(circuit in random_circuit(6, 30)) {
        let _shared = scalar_lock();
        for config in [
            SimConfig::unfused(),
            SimConfig::fused(3),
            SimConfig::fused(5),
            SimConfig::segmented(),
        ] {
            for &batch in &RAGGED {
                assert_batched_matches_sequential(&circuit, &config, batch);
            }
        }
    }

    /// Same equivalence with SIMD forced off: the scalar batch kernels
    /// must be just as invisible as the vectorised ones.
    #[test]
    fn batched_run_matches_sequential_members_forced_scalar(
        circuit in random_circuit(5, 20)
    ) {
        let _scalar = ForcedScalar::engage();
        for config in [
            SimConfig::unfused(),
            SimConfig::fused(4),
            SimConfig::segmented(),
        ] {
            for &batch in &RAGGED {
                assert_batched_matches_sequential(&circuit, &config, batch);
            }
        }
    }

    /// Satellite: the plan cache is structure-keyed. Rebuilding the whole
    /// ensemble from scratch (fresh instance ids, fresh closures) and
    /// re-running must not re-plan; widening the register must.
    #[test]
    fn plan_cache_misses_once_per_structure(
        (m, batch, scale) in (2usize..5, 1usize..6, 0.1f64..0.9)
    ) {
        let exec = BatchExecutor::new();
        for round in 0..3 {
            let members = sweep_members(m, batch, scale);
            let out = exec
                .run(&members, BatchStateVector::zero_state(members[0].n_qubits(), batch))
                .unwrap();
            prop_assert!((out.member_norm(0) - 1.0).abs() < 1e-9);
            let _ = round;
            prop_assert_eq!(exec.plan_cache_misses(), 1);
        }
        // A different qubit count is a different structure: new entry.
        let widened = sweep_members(m + 1, batch, scale);
        exec.run(&widened, BatchStateVector::zero_state(widened[0].n_qubits(), batch))
            .unwrap();
        prop_assert_eq!(exec.plan_cache_misses(), 2);
        // …and the original structure is still (or again) planned exactly once.
        let members = sweep_members(m, batch, scale);
        exec.run(&members, BatchStateVector::zero_state(members[0].n_qubits(), batch))
            .unwrap();
        prop_assert!(exec.plan_cache_misses() <= 3);
    }
}

/// A parameter-sweep ensemble: identical structure, per-member rotation
/// closure — the workload the batch executor exists for.
fn sweep_members(m: usize, batch: usize, scale: f64) -> Vec<QuantumProgram> {
    (0..batch)
        .map(|j| {
            let s = scale + 0.03 * j as f64;
            let mut pb = ProgramBuilder::new();
            let x = pb.register("x", m);
            let ind = pb.register("ind", 1);
            pb.hadamard_all(x);
            pb.rotation(RotationOp {
                name: "encode".into(),
                x,
                target: ind,
                angle: Arc::new(move |v| {
                    let f = s * (v as f64 + 0.5) / (1u64 << m) as f64;
                    2.0 * f.min(1.0).sqrt().asin()
                }),
                gate_impl: None,
            });
            pb.gates(|c| {
                for q in 0..m {
                    c.push(Gate::h(q));
                    c.push(Gate::cnot(q, m));
                }
            });
            pb.build().unwrap()
        })
        .collect()
}

/// A sweep whose first op is a deep χ = 2 chain the planner certifies and
/// routes to the compressed backend, followed by the per-member rotation.
fn mps_sweep_members(batch: usize) -> Vec<QuantumProgram> {
    const N: usize = 14;
    (0..batch)
        .map(|j| {
            let s = 0.2 + 0.05 * j as f64;
            let mut pb = ProgramBuilder::new();
            let x = pb.register("x", N);
            let ind = pb.register("ind", 1);
            pb.gates(|c| {
                c.h(0);
                for q in 0..N - 1 {
                    c.cnot(q, q + 1);
                }
                for layer in 0..80 {
                    for q in 0..N {
                        c.rz(q, 0.11 + 0.01 * (layer + q) as f64);
                    }
                }
            });
            pb.rotation(RotationOp {
                name: "encode".into(),
                x,
                target: ind,
                angle: Arc::new(move |v| s * (v % 7) as f64),
                gate_impl: None,
            });
            pb.build().unwrap()
        })
        .collect()
}

/// Program-level twin of [`assert_batched_matches_sequential`]: the
/// ensemble through `BatchExecutor` against each member's own
/// `HybridExecutor` run. Both are the one run loop, so every member is
/// ≤ 1e-12 from its solo run under the same backends, and a one-member
/// ensemble *is* the solo run, bit for bit — whatever backend a step
/// takes, compressed ones included.
fn assert_ensemble_matches_solo_runs(members: &[QuantumProgram]) {
    let n = members[0].n_qubits();
    let batch = members.len();
    let (out, report) = BatchExecutor::new()
        .run_with_report(members, BatchStateVector::zero_state(n, batch))
        .unwrap();
    assert_eq!(report.batch, batch);
    let solo = HybridExecutor::new();
    for (j, prog) in members.iter().enumerate() {
        let (reference, solo_report) = solo
            .run_with_report(prog, StateVector::zero_state(n))
            .unwrap();
        let diff = out.member_max_diff(j, &reference);
        assert!(diff <= 1e-12, "member {j}/{batch} deviates by {diff:.3e}");
        let backends = |r: &PlanReport| r.steps.iter().map(|s| s.backend).collect::<Vec<_>>();
        assert_eq!(backends(&report), backends(&solo_report));
        if batch == 1 {
            assert_eq!(out.member(0), reference, "batch = 1 must be bit-identical");
        }
    }
}

/// BatchExecutor vs solo HybridExecutor on the emulated-rotation sweep,
/// on the default backend and forced scalar: the batched Givens sweep
/// (tabulated, per-lane coefficients) must match the per-member kernel.
#[test]
fn batch_executor_rotation_sweep_matches_solo_runs() {
    let _shared = scalar_lock();
    rotation_sweep_case();
}

#[test]
fn batch_executor_rotation_sweep_matches_solo_runs_forced_scalar() {
    let _scalar = ForcedScalar::engage();
    rotation_sweep_case();
}

fn rotation_sweep_case() {
    for batch in [1usize, 2, 3, 4, 5, 8, 17] {
        assert_ensemble_matches_solo_runs(&sweep_members(5, batch, 0.25));
    }
    // With a certified compressed step: one member goes compressed like
    // the solo run, several go dense-batched.
    let plan = HybridExecutor::new().plan(&mps_sweep_members(1)[0]);
    assert!(matches!(
        plan.steps()[0].backend,
        Backend::SimulateMps { .. }
    ));
    for batch in [1usize, 2, 3, 8] {
        assert_ensemble_matches_solo_runs(&mps_sweep_members(batch));
    }
}

/// The batched `run` has no MPS form and ignores `SimConfig::mps`; a solo
/// forced-MPS run keeps only truncation-free results (ample χ) or falls
/// back to dense (tight χ), so the two must still agree — to the MPS
/// harness's 1e-10, since the ample-χ solo answer went through SVDs.
#[test]
fn batched_run_under_forced_mps_matches_solo_runs() {
    let _shared = scalar_lock();
    for circuit in [qcemu_sim::qft_circuit(6), qcemu_sim::entangle_circuit(6)] {
        for max_bond in [2usize, 64] {
            let config = SimConfig::mps(max_bond);
            for batch in [1usize, 3] {
                let starts = member_states(6, batch);
                let mut bsv = BatchStateVector::from_states(&starts);
                bsv.run(&circuit, &config);
                for (j, start) in starts.iter().enumerate() {
                    let mut reference = start.clone();
                    reference.run(&circuit, &config);
                    let diff = bsv.member_max_diff(j, &reference);
                    assert!(
                        diff <= 1e-10,
                        "χ = {max_bond}, member {j}/{batch} deviates by {diff:.3e}"
                    );
                }
            }
        }
    }
}

/// Batched sampling is bit-identical to per-member seeded sampling: the
/// batch axis must not perturb a single drawn shot.
#[test]
fn batched_sampling_reproduces_per_member_streams() {
    let mut circuit = Circuit::new(4);
    for q in 0..4 {
        circuit.push(Gate::h(q));
    }
    circuit.push(Gate::cnot(0, 2));
    circuit.push(Gate::ry(1, 0.7));
    circuit.push(Gate::cphase(2, 3, 1.1));

    let starts = member_states(4, 7);
    let mut bsv = BatchStateVector::from_states(&starts);
    bsv.run(&circuit, &SimConfig::fused(3));

    const SHOTS: usize = 400;
    const BASE_SEED: u64 = 0xC0FFEE;
    let shots = measure::sample_shots_batch(&bsv, SHOTS, BASE_SEED);
    let hists = measure::sample_histogram_batch(&bsv, SHOTS, BASE_SEED);
    assert_eq!(shots.len(), 7);
    for (j, start) in starts.iter().enumerate() {
        let mut reference = start.clone();
        reference.run(&circuit, &SimConfig::fused(3));
        let mut rng = StdRng::seed_from_u64(BASE_SEED + j as u64);
        let expect = measure::sample_shots(&reference, SHOTS, &mut rng);
        assert_eq!(shots[j], expect, "member {j} sample stream diverged");
        let mut rng = StdRng::seed_from_u64(BASE_SEED + j as u64);
        let expect_hist = measure::sample_histogram(&reference, SHOTS, &mut rng);
        assert_eq!(hists[j], expect_hist, "member {j} histogram diverged");
        // The histogram is exactly the binned shot stream.
        let mut binned = vec![0usize; reference.dim()];
        for &s in &shots[j] {
            binned[s] += 1;
        }
        assert_eq!(hists[j], binned);
    }
    // Distinct members get distinct RNG streams even from identical states.
    let same = BatchStateVector::broadcast(&bsv.member(0), 3);
    let per_member = measure::sample_shots_batch(&same, SHOTS, BASE_SEED);
    assert_ne!(per_member[0], per_member[1]);
    assert_ne!(per_member[1], per_member[2]);
}

/// Satellite: seeded chi-square goodness-of-fit on a *known* 3-qubit
/// distribution. With 8 bins (7 degrees of freedom) the 99.9% critical
/// value is 24.32 — a correct sampler fails with p < 0.001, and the seed
/// makes the verdict deterministic.
#[test]
fn sampler_passes_chi_square_on_known_distribution() {
    let probs = [0.30, 0.02, 0.08, 0.15, 0.05, 0.20, 0.10, 0.10];
    let amps: Vec<C64> = probs.iter().map(|&p: &f64| c64(p.sqrt(), 0.0)).collect();
    let sv = StateVector::from_amplitudes(amps);

    const SHOTS: usize = 8000;
    const CHI2_999_DF7: f64 = 24.32;
    let chi2 = |hist: &[usize]| -> f64 {
        hist.iter()
            .zip(probs.iter())
            .map(|(&obs, &p)| {
                let exp = SHOTS as f64 * p;
                (obs as f64 - exp).powi(2) / exp
            })
            .sum()
    };

    let mut rng = StdRng::seed_from_u64(1234);
    let hist = measure::sample_histogram(&sv, SHOTS, &mut rng);
    assert_eq!(hist.iter().sum::<usize>(), SHOTS);
    let x2 = chi2(&hist);
    assert!(x2 < CHI2_999_DF7, "chi-square {x2:.2} ≥ {CHI2_999_DF7}");

    // Every member of a batched ensemble passes independently, on its own
    // stream.
    let batch = BatchStateVector::broadcast(&sv, 4);
    let hists = measure::sample_histogram_batch(&batch, SHOTS, 1234);
    for (j, h) in hists.iter().enumerate() {
        let x2 = chi2(h);
        assert!(x2 < CHI2_999_DF7, "member {j}: chi-square {x2:.2}");
    }
    assert_ne!(hists[0], hists[1], "member streams must be independent");

    // And a deliberately wrong model is rejected: scoring the uniform
    // hypothesis against these skewed counts must blow past the
    // threshold, so the test has actual statistical power.
    let uniform_exp = SHOTS as f64 / 8.0;
    let x2_wrong: f64 = hist
        .iter()
        .map(|&obs| (obs as f64 - uniform_exp).powi(2) / uniform_exp)
        .sum();
    assert!(x2_wrong > CHI2_999_DF7, "no power: {x2_wrong:.2}");
}

/// Batched execution must be thread-count invariant: with the kernel
/// parallel threshold forced to 1 (every member sweep dispatches to the
/// worker pool) and the visible budget pinned to {1, 2, 4}, batched ≡
/// sequential members must keep holding. CI also runs this harness
/// under `QCEMU_THREADS=4` so the pool genuinely has workers.
#[test]
fn batch_equivalence_across_forced_thread_counts() {
    let _shared = scalar_lock();
    let circuit = qcemu_sim::qft_circuit(8);
    for threads in [1usize, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            for config in [
                SimConfig::unfused().with_par_threshold(1),
                SimConfig::fused(3).with_par_threshold(1),
                SimConfig::segmented().with_par_threshold(1),
            ] {
                for &batch in &[1usize, 3, 8] {
                    assert_batched_matches_sequential(&circuit, &config, batch);
                }
            }
        });
    }
}

/// One member of an ensemble whose every op is an emulated step with a
/// per-member closure or a register FFT: registers at offset 0 (`a`),
/// the middle (`b`, `c`) and the top (`d`) of 12 qubits; an in-place
/// `add` of a per-member constant, a zero-target map into `d`, a phase
/// oracle marking a per-member value, and QFTs/IQFTs at every offset.
fn emulated_member(k: u64) -> QuantumProgram {
    let mut pb = ProgramBuilder::new();
    let a = pb.register("a", 3);
    let b = pb.register("b", 3);
    let c = pb.register("c", 3);
    let d = pb.register("d", 3);
    pb.hadamard_all(a);
    pb.hadamard_all(b);
    pb.classical(ClassicalMap {
        name: "add-k".into(),
        regs: vec![a, c],
        f: Arc::new(move |v| v[1] = (v[1] + v[0] + k) % 8),
        kind: MapKind::InPlaceBijection,
        gate_impl: None,
    });
    pb.classical(ClassicalMap {
        name: "xor-into-d".into(),
        regs: vec![b, d],
        f: Arc::new(move |v| v[1] = v[0] ^ (k % 8)),
        kind: MapKind::ZeroInitializedTargets { n_targets: 1 },
        gate_impl: None,
    });
    pb.phase_oracle(qcemu_core::stdops::phase_if(
        "mark-k",
        vec![a, b],
        0.7,
        move |v| (v[0] + v[1]) % 8 == k % 8,
    ));
    pb.qft(a);
    pb.inverse_qft(b);
    pb.qft(d);
    pb.inverse_qft(c);
    pb.qft(b);
    pb.build().unwrap()
}

/// Every emulated classical map, oracle and register QFT/IQFT on the
/// batch-major buffer ≡ each member's solo run of the same plan, ≤ 1e-12
/// and bit for bit at B = 1, on pools {1, 2, 3} and both backends. (The
/// FFT engine's own tests split an axis into several passes with a
/// shrunk cache block; here the registers fit one pass.)
#[test]
fn emulated_steps_on_the_batch_major_buffer_match_solo_runs() {
    let _shared = scalar_lock();
    emulated_case();
}

#[test]
fn emulated_steps_on_the_batch_major_buffer_match_solo_runs_forced_scalar() {
    let _scalar = ForcedScalar::engage();
    emulated_case();
}

fn emulated_case() {
    let choose = |_: usize| None;
    let members: Vec<QuantumProgram> = (0..8).map(emulated_member).collect();
    let n = members[0].n_qubits();
    let plan = qcemu_core::plan(
        &members[0],
        &CostModel::default(),
        &SimConfig::default(),
        Policy::Emulate {
            choose_qpe: &choose,
        },
    );
    let interpreter = PlanInterpreter::default();
    for threads in [1usize, 2, 3] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            for batch in [1usize, 2, 3, 8] {
                let (out, report) = interpreter
                    .run_members(
                        &members[..batch],
                        &plan,
                        BatchStateVector::zero_state(n, batch),
                    )
                    .unwrap();
                if batch > 1 {
                    assert!(report.steps.iter().all(|s| s.batched), "{report}");
                }
                for (j, member) in members[..batch].iter().enumerate() {
                    let (solo, _) = interpreter
                        .execute(member, &plan, StateVector::zero_state(n))
                        .unwrap();
                    let diff = out.member_max_diff(j, &solo);
                    assert!(
                        diff <= 1e-12,
                        "pool {threads}, B = {batch}, member {j}: {diff:.3e}"
                    );
                    if batch == 1 {
                        assert_eq!(out.member(0), solo, "B = 1 must be bit-identical");
                    }
                }
            }
        });
    }
}

/// A daemon reply's shots, drawn from its job's lane of the batch-major
/// buffer, are bit-identical to sampling the de-interleaved member.
#[test]
fn lane_sampling_matches_de_interleaved_members() {
    let members: Vec<QuantumProgram> = (0..3).map(emulated_member).collect();
    let n = members[0].n_qubits();
    for batch in [1usize, 2, 3] {
        let out = BatchExecutor::new()
            .run(&members[..batch], BatchStateVector::zero_state(n, batch))
            .unwrap();
        for (j, member) in out.to_states().iter().enumerate() {
            let seed = 11 + j as u64;
            let lane = measure::sample_member_shots(&out, j, 64, &mut StdRng::seed_from_u64(seed));
            let copy = measure::sample_shots(member, 64, &mut StdRng::seed_from_u64(seed));
            assert_eq!(lane, copy, "B = {batch}, member {j}");
        }
    }
}
