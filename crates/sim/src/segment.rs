//! Cache-blocked **segment sweeps**: applying a whole run of compatible
//! gates to one cache-resident block of amplitudes before moving on.
//!
//! Fusion (see [`crate::fusion`]) already collapses a run of gates on a
//! small qubit *window* into one sweep. This pass attacks the orthogonal
//! axis: a run of gates that individually touch the **whole** state (a
//! QFT layer, say) still costs one full-state sweep each, even fused,
//! because their combined qubit set exceeds any fusion window. Segment
//! sweeps partition the state into contiguous blocks of `2^b` amplitudes
//! (`b` = block bits, sized so a block sits in L2) and observe that for a
//! large class of gates the block is *closed*: the gate maps each block
//! into itself, possibly scaled. Such a run of `d` gates is then executed
//! as **one** pass — load a block, replay all `d` gates against it in
//! cache, store it — turning `d` full-state traversals into one.
//!
//! A gate is block-compatible at block size `2^b` when
//!
//! * its target(s) and at least the *low* controls sit below bit `b`
//!   (the gate permutes/rotates amplitudes within each block; controls at
//!   or above `b` merely switch whole blocks on or off, since every index
//!   of a block shares the high bits), or
//! * it is **diagonal with the target at or above `b`**: within a block
//!   the target bit is constant, so the gate degenerates to a per-block
//!   scalar factor (times a low-control mask when it has low controls).
//!
//! Everything else — an X/H/SWAP moving amplitudes across a block
//! boundary — flushes the current segment and runs through the ordinary
//! (fused) sweep path. Scalar factors of a block commute with all linear
//! ops, so they accumulate across the whole segment and are applied once.
//!
//! # Examples
//!
//! ```
//! use qcemu_sim::{qft_circuit, SimConfig, StateVector};
//!
//! let circuit = qft_circuit(6);
//! let mut segmented = StateVector::zero_state(6);
//! segmented.run(&circuit, &SimConfig::segmented());
//!
//! let mut plain = StateVector::zero_state(6);
//! plain.apply_circuit(&circuit);
//! assert!(segmented.max_diff_up_to_phase(&plain) < 1e-12);
//! ```

use crate::circuit::Circuit;
use crate::fusion::{fuse_circuit, FusedCircuit, FusionPolicy};
use crate::gate::{Gate, GateStructure};
use crate::kernels::{batch_bits, mask_of, parallel_ok, LocalOp};
use qcemu_linalg::{simd, C64};
use rayon::prelude::*;

pub use qcemu_linalg::simd::DEFAULT_BLOCK_BITS;

/// Whether (and how) circuits are partitioned into cache-blocked segments
/// before execution. Layered *above* fusion: gates that fall out of
/// segments (block-incompatible runs) still go through the configured
/// [`FusionPolicy`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SegmentPolicy {
    /// No segmentation — execution is driven by the fusion policy alone.
    #[default]
    Disabled,
    /// Partition into segments and drive compatible runs with the
    /// cache-blocked kernel at `2^block_bits` amplitudes per block.
    Blocked {
        /// log2 of the block size in amplitudes (clamped to the state
        /// width at compile time).
        block_bits: usize,
    },
}

impl SegmentPolicy {
    /// Blocked segmentation at the default L2-sized block.
    pub fn blocked() -> SegmentPolicy {
        SegmentPolicy::Blocked {
            block_bits: DEFAULT_BLOCK_BITS,
        }
    }
}

/// What a compatible gate does to one active block.
#[derive(Clone, Debug)]
enum SegAction {
    /// Replay a precompiled local op against the block's amplitudes
    /// (gates whose targets sit below the block boundary).
    Local(LocalOp),
    /// Multiply the whole block by a scalar (diagonal gates whose target
    /// is at or above the boundary and that carry no low controls).
    /// Factors accumulate across the segment and are applied once.
    Scale(C64),
}

/// One gate compiled against the block partition: an activity mask over
/// the block's high bits plus the in-block action.
#[derive(Clone, Debug)]
struct SegOp {
    /// High bits (≥ block_bits) that must be **1** in the block's base
    /// index for the op to act (high controls, and the target bit of the
    /// `d1` branch of a high diagonal).
    high_ones: usize,
    /// High bits that must be **0** (the target bit of the `d0` branch of
    /// a high diagonal).
    high_zeros: usize,
    action: SegAction,
}

impl SegOp {
    #[inline(always)]
    fn active(&self, base: usize) -> bool {
        base & self.high_ones == self.high_ones && base & self.high_zeros == 0
    }
}

/// One executable step of a segmented circuit.
#[derive(Clone, Debug)]
enum SegStep {
    /// A run of block-compatible gates: one blocked pass over the state.
    Blocked(Vec<SegOp>),
    /// A run of incompatible gates: ordinary (fused) full-state sweeps.
    Sweep(FusedCircuit),
}

/// A circuit partitioned into cache-blocked segments and sweep runs.
///
/// Built by [`segment_circuit`]; executed via
/// [`SegmentedCircuit::apply`] (or transparently through
/// [`StateVector::run`](crate::StateVector::run) with
/// [`SimConfig::segmented`](crate::SimConfig::segmented)).
#[derive(Clone, Debug)]
pub struct SegmentedCircuit {
    n_qubits: usize,
    block_bits: usize,
    steps: Vec<SegStep>,
}

/// Compiles `gate` against a `2^bb`-amplitude block partition, or `None`
/// when the gate moves amplitudes across block boundaries. A compatible
/// gate may expand to up to two [`SegOp`]s (the two branches of a high
/// diagonal) or zero (an identity diagonal).
fn compile_gate(gate: &Gate, bb: usize) -> Option<Vec<SegOp>> {
    match gate {
        Gate::Unary {
            op,
            target,
            controls,
        } => {
            let (low_c, high_c): (Vec<usize>, Vec<usize>) =
                controls.iter().copied().partition(|&c| c < bb);
            let high_ones = mask_of(&high_c);
            if *target < bb {
                // In-block gate: low controls stay in the local op, high
                // controls become the block activity mask.
                let local = Gate::Unary {
                    op: op.clone(),
                    target: *target,
                    controls: low_c,
                };
                return Some(vec![SegOp {
                    high_ones,
                    high_zeros: 0,
                    action: SegAction::Local(LocalOp::from_gate(&local)),
                }]);
            }
            match op.structure() {
                GateStructure::Diagonal(d0, d1) => {
                    // The target bit is constant within a block: the gate
                    // splits into (up to) two per-block scalings, one per
                    // target-bit value.
                    let tmask = 1usize << *target;
                    let mut ops = Vec::new();
                    for (factor, ones, zeros) in
                        [(d1, high_ones | tmask, 0), (d0, high_ones, tmask)]
                    {
                        if factor == C64::ONE {
                            continue;
                        }
                        let action = if low_c.is_empty() {
                            SegAction::Scale(factor)
                        } else {
                            // Scale only the entries with all low controls
                            // set: a phase-type diagonal whose "target" is
                            // the lowest low-control bit.
                            let lmask = mask_of(&low_c);
                            let tbit = lmask & lmask.wrapping_neg();
                            SegAction::Local(LocalOp::Diag {
                                cmask: lmask & !tbit,
                                tbit,
                                d0: C64::ONE,
                                d1: factor,
                            })
                        };
                        ops.push(SegOp {
                            high_ones: ones,
                            high_zeros: zeros,
                            action,
                        });
                    }
                    Some(ops)
                }
                // X/H on a high qubit pairs amplitudes across blocks.
                _ => None,
            }
        }
        Gate::Swap { a, b, controls } => {
            if *a >= bb || *b >= bb {
                return None;
            }
            let (low_c, high_c): (Vec<usize>, Vec<usize>) =
                controls.iter().copied().partition(|&c| c < bb);
            let local = Gate::Swap {
                a: *a,
                b: *b,
                controls: low_c,
            };
            Some(vec![SegOp {
                high_ones: mask_of(&high_c),
                high_zeros: 0,
                action: SegAction::Local(LocalOp::from_gate(&local)),
            }])
        }
    }
}

/// Partitions `circuit` into cache-blocked segments at `2^block_bits`
/// amplitudes per block (clamped to the state width), compiling maximal
/// runs of block-compatible gates into blocked steps and everything else
/// into ordinary sweeps fused under `fusion`.
///
/// Gate order is preserved exactly; a compatible run of a **single** gate
/// is demoted back to the sweep path (one blocked pass of one gate saves
/// nothing and forfeits the per-gate kernels' partial-touch fast paths).
pub fn segment_circuit(
    circuit: &Circuit,
    block_bits: usize,
    fusion: &FusionPolicy,
) -> SegmentedCircuit {
    let n = circuit.n_qubits();
    let bb = block_bits.max(1).min(n);
    let gates = circuit.gates();

    // Pass 1: classify, form maximal same-kind runs, then demote lone
    // compatible gates into their neighbouring sweep runs.
    let mut runs: Vec<(usize, usize, bool)> = Vec::new(); // [start, end), blocked
    for (i, gate) in gates.iter().enumerate() {
        let blocked = compile_gate(gate, bb).is_some();
        match runs.last_mut() {
            Some((_, end, b)) if *b == blocked => *end = i + 1,
            _ => runs.push((i, i + 1, blocked)),
        }
    }
    let mut merged: Vec<(usize, usize, bool)> = Vec::new();
    for (s, e, blocked) in runs {
        let blocked = blocked && e - s > 1;
        match merged.last_mut() {
            Some((_, end, b)) if *b == blocked => *end = e,
            _ => merged.push((s, e, blocked)),
        }
    }

    // Pass 2: compile each run.
    let mut steps = Vec::new();
    for (s, e, blocked) in merged {
        if blocked {
            let ops: Vec<SegOp> = gates[s..e]
                .iter()
                .flat_map(|g| compile_gate(g, bb).expect("run was classified compatible"))
                .collect();
            steps.push(SegStep::Blocked(ops));
        } else {
            let mut sub = Circuit::new(n);
            for g in &gates[s..e] {
                sub.push(g.clone());
            }
            steps.push(SegStep::Sweep(fuse_circuit(&sub, fusion)));
        }
    }

    SegmentedCircuit {
        n_qubits: n,
        block_bits: bb,
        steps,
    }
}

/// Applies one blocked segment to a batch-major buffer: one block is the
/// contiguous region `state[base·batch .. (base + 2^b)·batch]`; each is
/// loaded once, every active op replayed against it in cache, accumulated
/// scalar factors applied, and the region written back.
fn run_blocked(
    state: &mut [C64],
    batch: usize,
    block_bits: usize,
    ops: &[SegOp],
    par_threshold: usize,
) {
    let bsize = 1usize << block_bits;
    let region = bsize * batch;
    debug_assert!(state.len().is_multiple_of(region));
    let body = |(blk, block): (usize, &mut [C64])| apply_block(block, blk * bsize, batch, ops);
    if parallel_ok(state.len(), par_threshold) && state.len() > region {
        state.par_chunks_mut(region).enumerate().for_each(body);
    } else {
        state.chunks_mut(region).enumerate().for_each(body);
    }
}

/// Replays a segment against one block (`2^b` local amplitudes × `batch`
/// members) whose first amplitude has global index `base`. Scalar factors
/// commute with every linear op, so they accumulate and are applied in a
/// single fused scaling at the end.
fn apply_block(block: &mut [C64], base: usize, batch: usize, ops: &[SegOp]) {
    let mut acc = C64::ONE;
    for op in ops {
        if !op.active(base) {
            continue;
        }
        match &op.action {
            SegAction::Scale(f) => acc *= *f,
            SegAction::Local(l) => l.apply(block, batch),
        }
    }
    if acc != C64::ONE {
        simd::scale_slice(block, acc);
    }
}

impl SegmentedCircuit {
    /// Number of qubits the circuit addresses.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// log2 of the block size the circuit was compiled for. Execution
    /// uses this value verbatim — the activity masks are only correct at
    /// the block size they were compiled against.
    pub fn block_bits(&self) -> usize {
        self.block_bits
    }

    /// Number of cache-blocked segments.
    pub fn blocked_segments(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, SegStep::Blocked(_)))
            .count()
    }

    /// Number of ordinary sweep runs between blocked segments.
    pub fn sweep_segments(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, SegStep::Sweep(_)))
            .count()
    }

    /// Total compiled ops across all blocked segments.
    pub fn blocked_ops(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                SegStep::Blocked(ops) => ops.len(),
                SegStep::Sweep(_) => 0,
            })
            .sum()
    }

    /// Applies the segmented circuit to every member of a batch-major
    /// buffer (a single state is `batch = 1`): blocked segments run on
    /// contiguous `2^b·batch` regions, sweep runs go through the fused
    /// kernels. The members may be wider than the circuit (extra high
    /// qubits are untouched — the activity masks never test them), but
    /// never narrower.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, `state.len()` is not a multiple of
    /// `batch`, or the per-member width is not a power of two at least
    /// `2^n_qubits`.
    pub fn apply(&self, state: &mut [C64], batch: usize, par_threshold: usize) {
        assert!(
            batch_bits(state.len(), batch) >= self.n_qubits,
            "segmented circuit compiled for {} qubits × batch {batch}, buffer holds {}",
            self.n_qubits,
            state.len()
        );
        for step in &self.steps {
            match step {
                SegStep::Blocked(ops) => {
                    run_blocked(state, batch, self.block_bits, ops, par_threshold)
                }
                SegStep::Sweep(fc) => fc.apply(state, batch, par_threshold),
            }
        }
    }

    /// State-vector entries streamed from memory by one execution on an
    /// `n_qubits` state: one full pass per blocked segment plus the fused
    /// traffic of each sweep run — the quantity the calibrated cost
    /// model's `entry_rate` term prices.
    pub fn streamed_entries(&self, n_qubits: usize) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                SegStep::Blocked(_) => 1usize << n_qubits,
                SegStep::Sweep(fc) => fc.touched_entries(n_qubits),
            })
            .sum()
    }

    /// Entries processed **in cache** by the blocked segments: each local
    /// op touches its block once per active block (`2^n` scaled down by
    /// the op's activity-mask bits); accumulated scalar factors cost one
    /// fused scaling and are not counted per op. Priced by the cost
    /// model's `cache_rate` term.
    pub fn incache_entries(&self, n_qubits: usize) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                SegStep::Blocked(ops) => ops
                    .iter()
                    .map(|op| match op.action {
                        SegAction::Local(_) => {
                            (1usize << n_qubits)
                                >> (op.high_ones | op.high_zeros).count_ones() as usize
                        }
                        SegAction::Scale(_) => 0,
                    })
                    .sum(),
                SegStep::Sweep(_) => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::entangle::entangle_circuit;
    use crate::circuits::qft::qft_circuit;
    use crate::kernels::{apply_gate_slice, PAR_THRESHOLD};
    use qcemu_linalg::{max_abs_diff, random_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_segmented_equals_unfused(circuit: &Circuit, block_bits: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_state(1usize << circuit.n_qubits(), &mut rng);
        let mut plain = input.clone();
        for g in circuit.gates() {
            apply_gate_slice(&mut plain, g);
        }
        for fusion in [FusionPolicy::Disabled, FusionPolicy::greedy()] {
            let seg = segment_circuit(circuit, block_bits, &fusion);
            let mut blocked = input.clone();
            seg.apply(&mut blocked, 1, PAR_THRESHOLD);
            assert!(
                max_abs_diff(&plain, &blocked) < 1e-12,
                "segmented(b={block_bits}, {fusion:?}) diverges on {} gates: {}",
                circuit.gate_count(),
                max_abs_diff(&plain, &blocked)
            );
        }
    }

    #[test]
    fn qft_segmented_matches_unfused_at_every_block_size() {
        let c = qft_circuit(8);
        for bb in [1, 2, 3, 5, 8, 14] {
            check_segmented_equals_unfused(&c, bb, 800 + bb as u64);
        }
    }

    #[test]
    fn entangle_segmented_matches_unfused() {
        let c = entangle_circuit(9);
        for bb in [2, 4, 9] {
            check_segmented_equals_unfused(&c, bb, 810 + bb as u64);
        }
    }

    #[test]
    fn mixed_zoo_segmented_matches_unfused() {
        let mut c = Circuit::new(7);
        c.h(0)
            .cnot(0, 6)
            .toffoli(5, 1, 2)
            .swap(2, 3)
            .rz(6, 0.4)
            .cphase(6, 4, -0.7)
            .x(5)
            .phase(5, 1.1)
            .ry(4, 0.2)
            .cnot(5, 0)
            .cphase(1, 6, 0.9);
        c.push(Gate::Swap {
            a: 1,
            b: 2,
            controls: vec![6],
        });
        for bb in [1, 2, 3, 4, 7] {
            check_segmented_equals_unfused(&c, bb, 820 + bb as u64);
        }
    }

    #[test]
    fn high_diagonals_and_high_controls_stay_blocked() {
        // Every gate here is block-compatible at bb = 3: low targets with
        // high controls, and high-target diagonals.
        let mut c = Circuit::new(6);
        c.cphase(5, 1, 0.3) // high control, low target
            .rz(5, 0.4) // high-target diagonal, both branches
            .phase(4, 0.2) // high-target phase, d1 branch only
            .cphase(0, 5, 0.7) // low control, high target → low-masked Diag
            .h(2); // plain low gate
        let seg = segment_circuit(&c, 3, &FusionPolicy::Disabled);
        assert_eq!(seg.blocked_segments(), 1);
        assert_eq!(seg.sweep_segments(), 0);
        // rz expands to 2 ops, the rest to 1 each.
        assert_eq!(seg.blocked_ops(), 6);
        check_segmented_equals_unfused(&c, 3, 830);
    }

    #[test]
    fn high_x_flushes_to_a_sweep() {
        let mut c = Circuit::new(6);
        c.h(0).h(1).x(5).h(2).h(0);
        let seg = segment_circuit(&c, 3, &FusionPolicy::Disabled);
        assert_eq!(seg.blocked_segments(), 2);
        assert_eq!(seg.sweep_segments(), 1);
        check_segmented_equals_unfused(&c, 3, 831);
    }

    #[test]
    fn lone_compatible_gates_demote_to_the_sweep_path() {
        // h(0) is compatible but alone between incompatible runs: the
        // whole circuit must collapse into a single sweep.
        let mut c = Circuit::new(6);
        c.h(5).h(0).h(5);
        let seg = segment_circuit(&c, 3, &FusionPolicy::Disabled);
        assert_eq!(seg.blocked_segments(), 0);
        assert_eq!(seg.sweep_segments(), 1);
        check_segmented_equals_unfused(&c, 3, 832);
    }

    #[test]
    fn whole_state_block_compiles_everything_blocked() {
        // bb ≥ n: every gate is in-block; one blocked segment.
        let c = qft_circuit(6);
        let seg = segment_circuit(&c, 14, &FusionPolicy::Disabled);
        assert_eq!(seg.block_bits(), 6);
        assert_eq!(seg.blocked_segments(), 1);
        assert_eq!(seg.sweep_segments(), 0);
        check_segmented_equals_unfused(&c, 14, 833);
    }

    #[test]
    fn segmented_traffic_beats_per_gate_on_the_qft() {
        // The whole point: the QFT's controlled phases all become blocked
        // ops, so streamed traffic collapses to ~#segments sweeps.
        let n = 12;
        let c = qft_circuit(n);
        let seg = segment_circuit(&c, 8, &FusionPolicy::greedy());
        let unfused = c.touched_entries(n);
        assert!(
            seg.streamed_entries(n) < unfused / 2,
            "streamed {} vs unfused {}",
            seg.streamed_entries(n),
            unfused
        );
        assert!(seg.incache_entries(n) > 0);
    }

    #[test]
    fn incache_accounting_discounts_masked_ops() {
        // cphase(5, 1) at bb = 3: one local op active on half the blocks.
        let mut c = Circuit::new(6);
        c.cphase(5, 1, 0.3).cphase(4, 0, 0.2);
        let seg = segment_circuit(&c, 3, &FusionPolicy::Disabled);
        assert_eq!(seg.incache_entries(6), (1 << 5) + (1 << 5));
        // Pure scale ops (high-target phases, no low controls) count 0.
        let mut c = Circuit::new(6);
        c.phase(5, 0.3).phase(4, 0.2);
        let seg = segment_circuit(&c, 3, &FusionPolicy::Disabled);
        assert_eq!(seg.incache_entries(6), 0);
        assert_eq!(seg.streamed_entries(6), 1 << 6);
        check_segmented_equals_unfused(&c, 3, 834);
    }

    #[test]
    fn segmented_batch_matches_sequential() {
        let mut c = Circuit::new(5);
        c.h(0).cnot(0, 1).cphase(4, 1, 0.5).rz(4, 0.3).x(4).h(2);
        let seg = segment_circuit(&c, 2, &FusionPolicy::greedy());
        let batch = 3;
        let mut rng = StdRng::seed_from_u64(840);
        let members: Vec<Vec<C64>> = (0..batch).map(|_| random_state(1 << 5, &mut rng)).collect();
        // Interleave batch-major.
        let mut inter = vec![C64::ZERO; (1 << 5) * batch];
        for (j, m) in members.iter().enumerate() {
            for (i, &z) in m.iter().enumerate() {
                inter[i * batch + j] = z;
            }
        }
        seg.apply(&mut inter, batch, PAR_THRESHOLD);
        for (j, m) in members.iter().enumerate() {
            let mut expect = m.clone();
            seg.apply(&mut expect, 1, PAR_THRESHOLD);
            for (i, &e) in expect.iter().enumerate() {
                assert!(
                    (inter[i * batch + j] - e).abs() < 1e-12,
                    "member {j} diverges at {i}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "compiled for")]
    fn apply_slice_rejects_wrong_width() {
        let c = qft_circuit(4);
        let seg = segment_circuit(&c, 2, &FusionPolicy::Disabled);
        let mut state = vec![C64::ZERO; 8];
        seg.apply(&mut state, 1, PAR_THRESHOLD);
    }
}
