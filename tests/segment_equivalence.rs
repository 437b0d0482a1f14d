//! Segment-sweep equivalence harness: the cache-blocked segment executor
//! must be *invisible* to every observable. For random circuits over the
//! full gate zoo, `segment ≡ per-gate ≡ fused` amplitude-for-amplitude
//! (≤1e-12) across block sizes from degenerate (every gate a sweep)
//! through L2-sized to whole-state (one resident block), with fusion on
//! and off inside blocks, on both the build's default backend and with
//! SIMD forced off — plus the named circuit families (QFT, GHZ) and the
//! `SimConfig::segmented()` route through [`StateVector::run`].

use proptest::prelude::*;
use qcemu::prelude::*;
use qcemu_sim::{qft_circuit, PAR_THRESHOLD};

mod common;
use common::{max_diff, random_circuit, scalar_lock, ForcedScalar};

/// Block sizes to sweep: degenerate tiny blocks (most gates forced to
/// streamed sweeps), just-above-arity, whole-state (one resident block),
/// and the production L2-sized default (clamped to `n` by the pass).
fn block_sizes(n: usize) -> [usize; 4] {
    [2, 3, n, DEFAULT_BLOCK_BITS]
}

/// Asserts segment ≡ per-gate ≡ fused on `circuit` from a start state
/// with every amplitude live, across block sizes × in-block fusion, via
/// both the direct [`SegmentedCircuit`] API and the `SimConfig` route.
fn assert_segment_equivalence(circuit: &Circuit) {
    let n = circuit.n_qubits();
    let start = StateVector::uniform_superposition(n);

    let mut reference = start.clone();
    reference.run(circuit, &SimConfig::unfused());

    let mut fused = start.clone();
    fused.run(circuit, &SimConfig::fused(3));
    let fdiff = max_diff(&fused, &reference);
    assert!(
        fdiff <= 1e-12,
        "fused deviates from per-gate by {fdiff:.3e}"
    );

    for block_bits in block_sizes(n) {
        for fusion in [
            FusionPolicy::Disabled,
            FusionPolicy::greedy(),
            FusionPolicy::Greedy {
                max_fused_qubits: 2,
            },
        ] {
            let seg = segment_circuit(circuit, block_bits, &fusion);
            let mut sv = start.clone();
            seg.apply(sv.amplitudes_mut(), 1, PAR_THRESHOLD);
            let diff = max_diff(&sv, &reference);
            assert!(
                diff <= 1e-12,
                "segmented (block_bits {block_bits}, fusion {fusion:?}) deviates by {diff:.3e} \
                 [{} blocked / {} sweep segments]",
                seg.blocked_segments(),
                seg.sweep_segments(),
            );
        }

        let config = SimConfig {
            segments: SegmentPolicy::Blocked { block_bits },
            ..SimConfig::segmented()
        };
        let mut sv = start.clone();
        sv.run(circuit, &config);
        let diff = max_diff(&sv, &reference);
        assert!(
            diff <= 1e-12,
            "SimConfig segmented route (block_bits {block_bits}) deviates by {diff:.3e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole equivalence on the build's default backend: random gate-zoo
    /// circuits, every block size, fusion on/off inside blocks.
    #[test]
    fn segmented_matches_per_gate_and_fused(circuit in random_circuit(6, 30)) {
        let _shared = scalar_lock();
        assert_segment_equivalence(&circuit);
    }

    /// Same equivalence with SIMD forced off: the scalar gather/scatter and
    /// run-walk kernels inside blocks must be just as invisible.
    #[test]
    fn segmented_matches_per_gate_and_fused_forced_scalar(
        circuit in random_circuit(5, 20)
    ) {
        let _scalar = ForcedScalar::engage();
        assert_segment_equivalence(&circuit);
    }
}

/// The named families the ablation measures: QFT's trailing swaps force
/// sweep segments at every block size below `n`, and the GHZ ladder is one
/// long compatible run — both must agree with per-gate execution exactly.
#[test]
fn named_circuits_segment_equivalence() {
    let _shared = scalar_lock();
    for n in [4, 8, 10] {
        assert_segment_equivalence(&qft_circuit(n));
        assert_segment_equivalence(&qcemu_sim::entangle_circuit(n));
    }
}

/// Degenerate shapes: a single gate, a circuit touching only the top
/// qubit (all sweeps), and a 1-qubit circuit (block covers the state).
#[test]
fn degenerate_circuits_segment_equivalence() {
    let _shared = scalar_lock();

    let mut single = Circuit::new(5);
    single.push(Gate::h(2));
    assert_segment_equivalence(&single);

    let mut top = Circuit::new(6);
    for _ in 0..4 {
        top.push(Gate::h(5));
        top.push(Gate::rz(5, 0.3));
    }
    assert_segment_equivalence(&top);

    let mut tiny = Circuit::new(1);
    tiny.push(Gate::h(0));
    tiny.push(Gate::phase(0, 0.7));
    assert_segment_equivalence(&tiny);
}

/// Segment execution must be thread-count invariant: with the kernel
/// parallel threshold forced to 1 (so every sweep actually dispatches to
/// the worker pool) and the visible thread budget pinned to {1, 2, 4},
/// the segmented route must reproduce the serial per-gate reference
/// bit-comparably. CI additionally runs this whole harness under
/// `QCEMU_THREADS=4` so the pool genuinely has workers to hand blocks
/// to.
#[test]
fn segment_equivalence_across_forced_thread_counts() {
    let _shared = scalar_lock();
    for circuit in [qft_circuit(9), qcemu_sim::entangle_circuit(9)] {
        let n = circuit.n_qubits();
        let start = StateVector::uniform_superposition(n);
        let mut reference = start.clone();
        reference.run(&circuit, &SimConfig::unfused());

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
                    let mut sv = start.clone();
                    sv.run(&circuit, &config);
                    let diff = max_diff(&sv, &reference);
                    assert!(
                        diff <= 1e-12,
                        "{threads}-thread run ({config:?}) deviates by {diff:.3e}"
                    );
                }
            });
        }
    }
}
