//! Batched state vectors: N ensemble members advanced through one plan.
//!
//! Production emulation traffic is ensembles — parameter sweeps, shot
//! batches, many users on one circuit shape — and the per-gate kernels are
//! bandwidth-bound, so the batch axis is a throughput lever a single
//! state cannot reach:
//!
//! * **Layout**: [`BatchStateVector`] stores amplitude `i` of member `j` at
//!   `amps[i·batch + j]` (batch-major per amplitude) — the one layout every
//!   kernel in [`crate::kernels`] is written for; a single state is its
//!   `batch = 1` case. Every amplitude index is a *contiguous run of
//!   `batch` complex numbers*, so the SIMD slice primitives apply at
//!   **every** qubit position: a gate on qubit 0, which a lone state must
//!   execute scalar (run length 1), vectorises across the batch dimension
//!   whenever `batch ≥ simd::LANES`. Ragged batch sizes are fine — the
//!   primitives handle arbitrary slice lengths with a scalar tail.
//! * **Amortisation**: one pair enumeration, one rayon dispatch, and one
//!   fused-block precompute serve all members, so the per-gate fixed costs
//!   (thread handoff, cycle decomposition, gather bookkeeping) are paid
//!   once per gate instead of once per gate per member.
//!
//! Parallelism follows [`SimConfig::par_threshold`] and counts the whole
//! buffer: a batch of 8 small states crosses the threshold 8× earlier than
//! one of its members would alone.
//!
//! This module is only the container — constructors, the tiled
//! interleave/de-interleave transposes and accessors. Execution is the
//! shared kernel drivers at this buffer's `batch`.
//!
//! Equivalence with N independent sequential runs (≤1e-12, every gate
//! class × fusion policy × SIMD/scalar × ragged batch sizes) is pinned by
//! the `batch_equivalence` suite at the workspace root.

use crate::circuit::Circuit;
use crate::fusion::{FusedCircuit, SimConfig};
use crate::gate::Gate;
use crate::kernels::{apply_gate_batch, PAR_THRESHOLD};
use crate::statevector::{run_dense, StateVector};
use qcemu_linalg::C64;

/// Index-tile width for the interleave/de-interleave transposes. A tile of
/// 512 amplitudes × 16 bytes is 8 KiB per member — small enough that the
/// batch-major side of the transpose (`512 · batch` entries) stays L1/L2
/// resident across the member loop, so every strided cache line is touched
/// once instead of once per member.
const TRANSPOSE_TILE: usize = 512;

/// Zero-filled amplitude buffer straight from the allocator
/// (`alloc_zeroed`): multi-megabyte batch buffers arrive as lazily-mapped
/// kernel zero pages instead of paying an eager store sweep — the cost of
/// zeroing moves into the first kernel pass (a page fault per 4 KiB)
/// rather than a full extra write of the buffer up front.
fn zeroed_amps(len: usize) -> Vec<C64> {
    if len == 0 {
        return Vec::new();
    }
    let layout = std::alloc::Layout::array::<C64>(len).expect("batch buffer too large");
    // SAFETY: the allocation uses exactly the layout `Vec<C64>` frees
    // with, and the all-zero bit pattern is a valid C64 (0.0 + 0.0i).
    unsafe {
        let p = std::alloc::alloc_zeroed(layout) as *mut C64;
        if p.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        Vec::from_raw_parts(p, len, len)
    }
}

/// An ensemble of `batch` state vectors over the same `n_qubits` qubits,
/// stored batch-major per amplitude: amplitude `i` of member `j` lives at
/// `amps[i·batch + j]`. See the module docs for why this layout
/// vectorises where per-state execution cannot.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchStateVector {
    n_qubits: usize,
    batch: usize,
    amps: Vec<C64>,
}

impl BatchStateVector {
    /// `batch` copies of `|00…0⟩` on `n_qubits` qubits.
    pub fn zero_state(n_qubits: usize, batch: usize) -> BatchStateVector {
        assert!(batch > 0, "batch must be non-empty");
        assert!(n_qubits < usize::BITS as usize, "too many qubits");
        let dim = 1usize << n_qubits;
        let mut amps = zeroed_amps(dim * batch);
        amps[..batch].fill(C64::ONE);
        BatchStateVector {
            n_qubits,
            batch,
            amps,
        }
    }

    /// `batch` copies of one state.
    pub fn broadcast(state: &StateVector, batch: usize) -> BatchStateVector {
        assert!(batch > 0, "batch must be non-empty");
        let mut amps = zeroed_amps(state.dim() * batch);
        for (i, &a) in state.amplitudes().iter().enumerate() {
            amps[i * batch..(i + 1) * batch].fill(a);
        }
        BatchStateVector {
            n_qubits: state.n_qubits(),
            batch,
            amps,
        }
    }

    /// Interleaves independent states (all on the same qubit count) into
    /// one batch.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or qubit counts disagree.
    pub fn from_states(states: &[StateVector]) -> BatchStateVector {
        assert!(!states.is_empty(), "batch must be non-empty");
        let n_qubits = states[0].n_qubits();
        assert!(
            states.iter().all(|s| s.n_qubits() == n_qubits),
            "batch members must have the same qubit count"
        );
        let batch = states.len();
        let dim = 1usize << n_qubits;
        let mut amps = zeroed_amps(dim * batch);
        // Tiled interleave: all members fill one index tile before moving
        // on, so each destination cache line is completed while hot
        // instead of being revisited once per member a megabyte later.
        for t0 in (0..dim).step_by(TRANSPOSE_TILE) {
            let t1 = (t0 + TRANSPOSE_TILE).min(dim);
            for (j, s) in states.iter().enumerate() {
                let src = &s.amplitudes()[t0..t1];
                for (k, &a) in src.iter().enumerate() {
                    amps[(t0 + k) * batch + j] = a;
                }
            }
        }
        BatchStateVector {
            n_qubits,
            batch,
            amps,
        }
    }

    /// Wraps a raw batch-major buffer of `batch` members (amplitude `i` of
    /// member `j` at `amps[i·batch + j]`). Does **not** normalise.
    ///
    /// # Panics
    ///
    /// Panics unless `amps.len()` is `batch` times a power of two.
    pub fn from_amplitudes(amps: Vec<C64>, batch: usize) -> BatchStateVector {
        assert!(batch > 0, "batch must be non-empty");
        let dim = amps.len() / batch;
        assert!(
            dim.is_power_of_two() && dim * batch == amps.len(),
            "buffer must hold batch × 2^n amplitudes"
        );
        BatchStateVector {
            n_qubits: dim.trailing_zeros() as usize,
            batch,
            amps,
        }
    }

    /// Consumes the batch, returning the raw batch-major buffer.
    pub fn into_amplitudes(self) -> Vec<C64> {
        self.amps
    }

    /// A lone state as the one-member ensemble it already is: at
    /// `batch = 1` the two layouts coincide, so this moves the amplitude
    /// `Vec` and copies nothing.
    pub fn from_single(state: StateVector) -> BatchStateVector {
        BatchStateVector::from_amplitudes(state.into_amplitudes(), 1)
    }

    /// The inverse of [`BatchStateVector::from_single`], again an O(1)
    /// move.
    ///
    /// # Panics
    ///
    /// Panics if the batch holds more than one member.
    pub fn into_single(self) -> StateVector {
        assert_eq!(self.batch, 1, "into_single needs a one-member batch");
        StateVector::from_amplitudes(self.amps)
    }

    /// Number of qubits per member.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of ensemble members.
    #[inline]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Per-member dimension `2^n`.
    #[inline]
    pub fn dim(&self) -> usize {
        1usize << self.n_qubits
    }

    /// The raw interleaved amplitudes (`dim·batch` entries, member `j`'s
    /// amplitude `i` at `i·batch + j`).
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// The raw interleaved amplitudes, mutable.
    #[inline]
    pub fn amplitudes_mut(&mut self) -> &mut [C64] {
        &mut self.amps
    }

    /// Amplitude `i` of member `j`.
    #[inline]
    pub fn amplitude(&self, i: usize, j: usize) -> C64 {
        self.amps[i * self.batch + j]
    }

    /// Extracts member `j` as an independent [`StateVector`] (strided
    /// copy; amplitude order is preserved exactly, so samplers and norms
    /// on the extraction match the member bit-for-bit).
    pub fn member(&self, j: usize) -> StateVector {
        assert!(j < self.batch, "member index out of range");
        let dim = self.dim();
        let mut amps = Vec::with_capacity(dim);
        for i in 0..dim {
            amps.push(self.amps[i * self.batch + j]);
        }
        StateVector::from_amplitudes(amps)
    }

    /// Overwrites member `j` with `state` (strided scatter).
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts disagree or `j` is out of range.
    pub fn set_member(&mut self, j: usize, state: &StateVector) {
        assert!(j < self.batch, "member index out of range");
        assert_eq!(
            state.n_qubits(),
            self.n_qubits,
            "member qubit count mismatch"
        );
        for (i, &a) in state.amplitudes().iter().enumerate() {
            self.amps[i * self.batch + j] = a;
        }
    }

    /// De-interleaves the batch into independent states (tiled, like
    /// [`BatchStateVector::from_states`] — every batch cache line is
    /// drained into all members while hot, so bulk extraction costs one
    /// streaming pass rather than `batch` strided ones).
    pub fn to_states(&self) -> Vec<StateVector> {
        let dim = self.dim();
        let mut out: Vec<Vec<C64>> = (0..self.batch).map(|_| zeroed_amps(dim)).collect();
        for t0 in (0..dim).step_by(TRANSPOSE_TILE) {
            let t1 = (t0 + TRANSPOSE_TILE).min(dim);
            for (j, dst) in out.iter_mut().enumerate() {
                for (k, d) in dst[t0..t1].iter_mut().enumerate() {
                    *d = self.amps[(t0 + k) * self.batch + j];
                }
            }
        }
        out.into_iter().map(StateVector::from_amplitudes).collect()
    }

    /// De-interleaves the batch into independent states; a lone member
    /// is moved out, not copied.
    pub fn into_states(self) -> Vec<StateVector> {
        if self.batch == 1 {
            return vec![self.into_single()];
        }
        self.to_states()
    }

    /// Applies one gate to every member (validated against the qubit
    /// count).
    ///
    /// Panics on an invalid gate; use [`BatchStateVector::try_apply`]
    /// where a malformed gate must be a recoverable error.
    pub fn apply(&mut self, gate: &Gate) {
        self.try_apply(gate)
            .unwrap_or_else(|e| panic!("invalid gate: {e}"));
    }

    /// Applies one gate to every member, returning the validation error
    /// instead of panicking when the gate does not fit this batch.
    pub fn try_apply(&mut self, gate: &Gate) -> Result<(), String> {
        gate.validate(self.n_qubits)?;
        apply_gate_batch(&mut self.amps, self.batch, gate, PAR_THRESHOLD);
        Ok(())
    }

    /// Runs a circuit on every member under an execution configuration,
    /// through the same dense ladder as [`StateVector::run`] (segments,
    /// then per-gate or fused sweeps). Fusion, segmentation, and every
    /// other per-gate precompute are paid once for the whole ensemble.
    ///
    /// `config.mps` is **ignored**: there is no batched MPS form, and a
    /// forced-MPS solo run only ever keeps a truncation-free (i.e. exact)
    /// result, so the dense answer here agrees with it.
    pub fn run(&mut self, circuit: &Circuit, config: &SimConfig) {
        run_dense(&mut self.amps, self.batch, circuit, config);
    }

    /// Applies an already-fused circuit to every member (fusion cost is
    /// paid by the caller, once).
    pub fn apply_fused_circuit(&mut self, fused: &FusedCircuit) {
        assert!(
            fused.n_qubits() <= self.n_qubits,
            "fused circuit needs {} qubits, state has {}",
            fused.n_qubits(),
            self.n_qubits
        );
        fused.apply(&mut self.amps, self.batch, PAR_THRESHOLD);
    }

    /// `‖ψ_j‖₂` of member `j`.
    pub fn member_norm(&self, j: usize) -> f64 {
        assert!(j < self.batch, "member index out of range");
        let mut acc = 0.0f64;
        for i in 0..self.dim() {
            acc += self.amps[i * self.batch + j].norm_sqr();
        }
        acc.sqrt()
    }

    /// Largest amplitude difference between member `j` and `other`.
    pub fn member_max_diff(&self, j: usize, other: &StateVector) -> f64 {
        assert_eq!(other.n_qubits(), self.n_qubits, "qubit count mismatch");
        other
            .amplitudes()
            .iter()
            .enumerate()
            .map(|(i, &a)| (self.amplitude(i, j) - a).abs())
            .fold(0.0f64, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::qft::qft_circuit;
    use crate::gate::GateOp;
    use qcemu_linalg::random_state;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_members(n_qubits: usize, batch: usize, seed: u64) -> Vec<StateVector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..batch)
            .map(|_| StateVector::from_amplitudes(random_state(1 << n_qubits, &mut rng)))
            .collect()
    }

    fn max_member_diff(bsv: &BatchStateVector, members: &[StateVector]) -> f64 {
        members
            .iter()
            .enumerate()
            .map(|(j, s)| bsv.member_max_diff(j, s))
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn try_apply_rejects_invalid_gates_without_panicking() {
        let mut bsv = BatchStateVector::zero_state(2, 3);
        assert!(bsv.try_apply(&Gate::x(5)).is_err());
        // Every member is untouched and the batch still works.
        for j in 0..3 {
            assert_eq!(bsv.member(j).probability(0), 1.0);
        }
        bsv.try_apply(&Gate::x(0)).unwrap();
        for j in 0..3 {
            assert_eq!(bsv.member(j).probability(1), 1.0);
        }
    }

    #[test]
    fn roundtrip_preserves_members() {
        let members = random_members(4, 5, 10);
        let bsv = BatchStateVector::from_states(&members);
        assert_eq!(bsv.batch(), 5);
        assert_eq!(bsv.dim(), 16);
        for (j, s) in members.iter().enumerate() {
            assert_eq!(&bsv.member(j), s);
        }
        let back = bsv.into_states();
        assert_eq!(back, members);
        // One member: the buffer is the state, moved both ways.
        let solo = BatchStateVector::from_single(members[0].clone());
        assert_eq!((solo.batch(), solo.n_qubits()), (1, 4));
        assert_eq!(solo.clone().into_states(), members[..1]);
        assert_eq!(solo.into_single(), members[0]);
    }

    #[test]
    fn zero_state_and_broadcast_layouts() {
        let z = BatchStateVector::zero_state(3, 4);
        for j in 0..4 {
            assert_eq!(z.amplitude(0, j), C64::ONE);
            assert!((z.member_norm(j) - 1.0).abs() < 1e-15);
        }
        let mut sv = StateVector::zero_state(3);
        sv.apply(&Gate::h(1));
        let b = BatchStateVector::broadcast(&sv, 3);
        for j in 0..3 {
            assert_eq!(b.member(j), sv);
        }
    }

    #[test]
    fn every_gate_class_matches_sequential_members() {
        let gates = [
            Gate::h(0),
            Gate::h(3),
            Gate::x(2),
            Gate::rz(0, 0.7),
            Gate::phase(1, -0.3),
            Gate::cphase(0, 3, 0.4),
            Gate::cnot(3, 0),
            Gate::cnot(0, 2),
            Gate::swap(1, 3),
            Gate::toffoli(0, 1, 2),
            Gate::controlled(GateOp::Ry(0.9), 2, 0),
            Gate::Swap {
                a: 0,
                b: 2,
                controls: vec![3],
            },
        ];
        for batch in [1usize, 3, 4, 5, 17] {
            let members = random_members(4, batch, 20 + batch as u64);
            let mut bsv = BatchStateVector::from_states(&members);
            let mut seq = members;
            for gate in &gates {
                bsv.apply(gate);
                for s in seq.iter_mut() {
                    s.apply(gate);
                }
            }
            assert!(
                max_member_diff(&bsv, &seq) < 1e-12,
                "batched ≠ sequential at batch {batch}"
            );
        }
    }

    #[test]
    fn run_matches_sequential_fused_and_unfused() {
        let circuit = qft_circuit(5);
        for config in [
            SimConfig::unfused(),
            SimConfig::fused(3),
            SimConfig::fused(4),
        ] {
            for batch in [1usize, 4, 7] {
                let members = random_members(5, batch, 40 + batch as u64);
                let mut bsv = BatchStateVector::from_states(&members);
                bsv.run(&circuit, &config);
                let mut seq = members;
                for s in seq.iter_mut() {
                    s.run(&circuit, &config);
                }
                assert!(
                    max_member_diff(&bsv, &seq) < 1e-12,
                    "batched run ≠ sequential for {config:?} at batch {batch}"
                );
            }
        }
    }

    #[test]
    fn parallel_path_matches_serial() {
        // Threshold of 1 forces every driver through the rayon branch.
        let circuit = qft_circuit(6);
        let members = random_members(6, 4, 50);
        let mut par = BatchStateVector::from_states(&members);
        par.run(&circuit, &SimConfig::fused(4).with_par_threshold(1));
        let mut ser = BatchStateVector::from_states(&members);
        ser.run(
            &circuit,
            &SimConfig::fused(4).with_par_threshold(usize::MAX),
        );
        let diff = par
            .amplitudes()
            .iter()
            .zip(ser.amplitudes())
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0f64, f64::max);
        assert!(diff < 1e-13, "parallel/serial batched paths diverge");
    }

    #[test]
    fn set_member_overwrites_one_lane() {
        let members = random_members(3, 3, 60);
        let mut bsv = BatchStateVector::from_states(&members);
        let replacement = StateVector::basis_state(3, 5);
        bsv.set_member(1, &replacement);
        assert_eq!(bsv.member(0), members[0]);
        assert_eq!(bsv.member(1), replacement);
        assert_eq!(bsv.member(2), members[2]);
    }
}
