//! # qcemu-sim
//!
//! Gate-level state-vector simulator — the "our simulator" baseline of
//! *High Performance Emulation of Quantum Circuits* (SC 2016), against
//! which the emulator (`qcemu-core`) demonstrates its shortcuts, and which
//! itself outperforms generic simulators by exploiting gate structure
//! (paper §4.5, Figs. 4–6).
//!
//! Contents:
//! * [`gate`] — Table 1 gate set with arbitrary controls and structural
//!   classification (diagonal / permutation / general);
//! * [`kernels`] — specialised amplitude kernels: a controlled phase shift
//!   touches exactly ¼ of the state, X gates move data without arithmetic,
//!   controls shrink the index space instead of being checked per entry;
//!   all rayon-parallel over disjoint index sets; plus the fused blocked
//!   kernels ([`kernels::apply_fused`] and friends). Every kernel takes a
//!   batch-major buffer `(state, batch, …)`; a single state is `batch = 1`;
//! * [`fusion`] — the gate-fusion engine: merge runs of adjacent gates
//!   into k-qubit blocks applied in one cache-blocked sweep, behind a
//!   [`SimConfig`]/[`FusionPolicy`] (see `docs/PERFORMANCE.md`);
//! * [`segment`] — cache-blocked segment sweeps: runs of block-compatible
//!   gates replayed against one L2-resident block of amplitudes at a
//!   time, turning d full-state traversals into ~1 ([`SegmentPolicy`]);
//! * [`mps`] — bond-truncated matrix-product-state simulation: O(χ³)
//!   per two-qubit gate instead of Θ(2ⁿ) per sweep, with an auditable
//!   truncation-error accumulator ([`MpsState`], [`MpsPolicy`]);
//! * [`statevector`] — the 2ⁿ-amplitude wave function (paper Eq. 1);
//! * [`circuit`] — gate sequences with inverse / controlled / remap
//!   transforms (uncomputation and QPE building blocks);
//! * [`circuits`] — QFT, entangle and TFIM-Trotter benchmark generators;
//! * [`measure`] — shot sampling, collapse, and exact expectations;
//! * [`batch`] — the [`BatchStateVector`] container: ensembles of state
//!   vectors in the batch-major interleaved layout, so the kernels
//!   vectorise across the batch dimension and pay per-gate fixed costs
//!   once per ensemble;
//! * [`dense`] — circuit → dense unitary (the QPE emulation front-end).
//!
//! ### Qubit convention
//! Little-endian throughout: qubit `k` is bit `k` of the basis index, so
//! `|q_{n−1} … q_1 q_0⟩` has index `Σ q_k 2^k`.

pub mod batch;
pub mod circuit;
pub mod circuits;
pub mod decompose;
pub mod dense;
pub mod fusion;
pub mod gate;
pub mod kernels;
pub mod measure;
pub mod mps;
pub mod segment;
pub mod statevector;

pub use batch::BatchStateVector;
pub use circuit::{Circuit, CircuitCensus};
pub use circuits::{
    entangle_circuit, inverse_qft_circuit, qft_circuit, qft_circuit_no_swap, qft_gate_count,
    tfim_gate_count, tfim_trotter_step, TfimParams,
};
pub use decompose::{decompose_circuit, decompose_gate, is_elementary, mat2_sqrt};
pub use dense::circuit_to_dense;
pub use fusion::{
    fuse_circuit, fuse_circuit_with_barriers, FusedCircuit, FusedGate, FusedOp, FusedStructure,
    FusionCensus, FusionPolicy, SimConfig, DEFAULT_MAX_FUSED_QUBITS,
};
pub use gate::{Gate, GateOp, GateStructure, Mat2};
pub use kernels::{
    apply_fused, apply_fused_diagonal, apply_fused_permutation, apply_gate_batch, apply_gate_slice,
    fused_touched_entries, scatter_index, touched_entries, MAX_FUSED_QUBITS, PAR_THRESHOLD,
};
pub use mps::{
    estimate_mps_cost, MpsCostEstimate, MpsPolicy, MpsState, DEFAULT_MAX_BOND, MPS_EXACT_TOL,
};

pub use measure::{
    expectation_z, expectation_z_sampled, expectation_z_string, measure_all, measure_qubit,
    prob_qubit_one, sample_histogram, sample_histogram_batch, sample_member_shots, sample_once,
    sample_shots, sample_shots_batch,
};
pub use segment::{segment_circuit, SegmentPolicy, SegmentedCircuit, DEFAULT_BLOCK_BITS};
pub use statevector::StateVector;
