//! Gate fusion: merging runs of adjacent gates into k-qubit blocks that
//! are applied in **one cache-blocked sweep** of the state vector.
//!
//! The paper's §4.5 kernels already specialise *single* gates to their
//! structure; this module adds the next optimisation used by
//! qHiPSTER-class engines: a run of g gates whose qubit sets fit inside a
//! window of `max_fused_qubits` qubits is collapsed into a single
//! [`FusedGate`], and the whole block is applied with one pass over the
//! 2ⁿ amplitudes instead of g passes. At ≥20 qubits the state no longer
//! fits in cache, so gate application is memory-bound and runtime is
//! proportional to *sweeps*, not flops — fusing is then close to a g× win
//! on the fused portion (see `docs/PERFORMANCE.md` for the traffic model
//! and measured numbers).
//!
//! Structure awareness survives fusion: each block's composed matrix is
//! classified the same way single gates are —
//!
//! * **diagonal** blocks (runs of Z/S/T/Rz/phase gates) touch only the
//!   amplitudes whose factor differs from 1;
//! * **permutation** blocks (runs of X/CNOT/SWAP, possibly with phases)
//!   move amplitudes along cycles with no arithmetic;
//! * **general** blocks gather each 2^k group into an L1-resident buffer,
//!   replay the block's precompiled gates on it, and scatter once — the
//!   same flops as unfused execution, paid against one memory sweep.
//!
//! # Examples
//!
//! ```
//! use qcemu_sim::{qft_circuit, FusionPolicy, SimConfig, StateVector};
//!
//! let circuit = qft_circuit(6);
//! let mut fused = StateVector::zero_state(6);
//! fused.run(&circuit, &SimConfig::fused(4));
//!
//! let mut plain = StateVector::zero_state(6);
//! plain.apply_circuit(&circuit);
//! assert!(fused.max_diff_up_to_phase(&plain) < 1e-12);
//! ```

use crate::circuit::Circuit;
use crate::gate::Gate;
use crate::kernels::{
    apply_fused, apply_fused_diagonal, apply_fused_local, apply_fused_permutation,
    apply_gate_batch, fused_touched_entries, touched_entries, LocalOp, MAX_FUSED_QUBITS,
    PAR_THRESHOLD,
};
use crate::mps::MpsPolicy;
use crate::segment::SegmentPolicy;
use qcemu_linalg::{CMatrix, C64};

/// Default fusion window: 4 qubits (16-amplitude groups) balances sweep
/// reduction against gather/scatter overhead on current cache hierarchies;
/// see `docs/PERFORMANCE.md` for how to pick a different value.
pub const DEFAULT_MAX_FUSED_QUBITS: usize = 4;

/// How (and whether) a circuit is fused before execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FusionPolicy {
    /// Gate-by-gate application through the structural kernels — the
    /// paper-faithful baseline, and bitwise identical to
    /// [`StateVector::apply_circuit`](crate::StateVector::apply_circuit).
    #[default]
    Disabled,
    /// Greedily merge consecutive gates while their combined qubit set
    /// stays within `max_fused_qubits` (clamped to
    /// [`MAX_FUSED_QUBITS`]).
    Greedy {
        /// Widest qubit set a fused block may span.
        max_fused_qubits: usize,
    },
}

impl FusionPolicy {
    /// Greedy fusion at the default window width.
    pub fn greedy() -> FusionPolicy {
        FusionPolicy::Greedy {
            max_fused_qubits: DEFAULT_MAX_FUSED_QUBITS,
        }
    }

    /// This policy with any greedy window clamped to `max_block_qubits`
    /// (floored at 1); `Disabled` stays `Disabled`.
    pub fn clamped(self, max_block_qubits: usize) -> FusionPolicy {
        match self {
            FusionPolicy::Disabled => FusionPolicy::Disabled,
            FusionPolicy::Greedy { max_fused_qubits } => FusionPolicy::Greedy {
                max_fused_qubits: max_fused_qubits.min(max_block_qubits).max(1),
            },
        }
    }
}

/// State-vector execution configuration, threaded through
/// [`StateVector::run`](crate::StateVector::run) and the `qcemu-core`
/// executors so emulation shortcuts and fused simulation compose.
///
/// The default is fusion **disabled**: opt in with [`SimConfig::fused`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Gate-fusion policy for gate-level circuit execution.
    pub fusion: FusionPolicy,
    /// Cache-blocked segmentation policy, layered above fusion: when
    /// enabled, runs of block-compatible gates execute as one blocked
    /// pass and only the leftover runs go through `fusion` (see
    /// [`crate::segment`]).
    pub segments: SegmentPolicy,
    /// Buffer length (amplitudes × batch members; one state's dimension
    /// when solo) from which kernels parallelise — defaults to
    /// [`PAR_THRESHOLD`]. Overridable so calibration harnesses can sweep
    /// the handoff point on the host instead of trusting the hard-coded
    /// constant; every driver (per-gate, fused, segmented) compares the
    /// same quantity against it.
    pub par_threshold: usize,
    /// Compressed (MPS) execution policy: whether the planner may (or
    /// must) run gate-level ops in bond-truncated matrix-product form,
    /// and at which χ cap (see [`crate::mps`]).
    pub mps: MpsPolicy,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            fusion: FusionPolicy::default(),
            segments: SegmentPolicy::default(),
            par_threshold: PAR_THRESHOLD,
            mps: MpsPolicy::default(),
        }
    }
}

impl SimConfig {
    /// Gate-by-gate execution (the default).
    pub fn unfused() -> SimConfig {
        SimConfig::default()
    }

    /// Greedy fusion with blocks up to `max_fused_qubits` wide.
    pub fn fused(max_fused_qubits: usize) -> SimConfig {
        SimConfig {
            fusion: FusionPolicy::Greedy { max_fused_qubits },
            ..SimConfig::default()
        }
    }

    /// Cache-blocked segment execution at the default L2-sized block,
    /// with greedy fusion for the runs that fall out of segments — the
    /// configuration `qcemu-core`'s `SimulateSegmented` planner steps
    /// lower to.
    pub fn segmented() -> SimConfig {
        SimConfig {
            fusion: FusionPolicy::greedy(),
            segments: SegmentPolicy::blocked(),
            ..SimConfig::default()
        }
    }

    /// Compressed MPS execution at bond cap `max_bond` for every
    /// gate-level op — the configuration `qcemu-core`'s `SimulateMps`
    /// planner steps price and a fixed-backend MPS simulator uses.
    pub fn mps(max_bond: usize) -> SimConfig {
        SimConfig {
            mps: MpsPolicy::Forced {
                max_bond: max_bond.max(1),
            },
            ..SimConfig::default()
        }
    }

    /// This configuration with a different parallelism threshold.
    pub fn with_par_threshold(mut self, par_threshold: usize) -> SimConfig {
        self.par_threshold = par_threshold.max(1);
        self
    }

    /// This configuration with a different MPS policy.
    pub fn with_mps(mut self, mps: MpsPolicy) -> SimConfig {
        self.mps = mps;
        self
    }
}

/// Structural class of a fused block, mirroring the per-gate trichotomy
/// of [`GateStructure`](crate::GateStructure).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FusedStructure {
    /// The composed matrix is diagonal: applied by scaling only the
    /// non-unit entries.
    Diagonal,
    /// One non-zero per column (permutation with phases): applied by
    /// moving amplitudes along cycles.
    Permutation,
    /// Applied by gather → replay the block's gates in cache → scatter.
    General,
    /// Applied by gather → dense 2^k×2^k mat-vec → scatter (chosen when
    /// the block holds at least 2^k gates, where one mat-vec is cheaper
    /// than replaying them).
    Dense,
}

/// Application strategy plus its precomputed data.
#[derive(Clone, Debug)]
enum BlockKind {
    Diagonal {
        factors: Vec<C64>,
    },
    Permutation {
        target: Vec<usize>,
        factor: Vec<C64>,
    },
    General {
        ops: Vec<LocalOp>,
    },
    Dense,
}

/// A run of gates fused into one k-qubit block.
///
/// `qubits` is the ascending union of the member gates' qubit sets
/// (controls included); `matrix` is the composed `2^k × 2^k` unitary in
/// the local little-endian convention (bit `j` of a local index is global
/// qubit `qubits[j]`).
#[derive(Clone, Debug)]
pub struct FusedGate {
    qubits: Vec<usize>,
    matrix: CMatrix,
    kind: BlockKind,
    gate_count: usize,
}

impl FusedGate {
    /// Fuses `gates` (global indices) over the ascending qubit union
    /// `qubits`. Panics if a gate uses a qubit outside `qubits` or the
    /// union exceeds [`MAX_FUSED_QUBITS`].
    pub(crate) fn from_gates(qubits: Vec<usize>, gates: &[Gate]) -> FusedGate {
        assert!(
            !qubits.is_empty() && qubits.len() <= MAX_FUSED_QUBITS,
            "fused block must span 1..={MAX_FUSED_QUBITS} qubits"
        );
        debug_assert!(qubits.windows(2).all(|w| w[0] < w[1]));
        let k = qubits.len();
        let dim = 1usize << k;
        let local = |q: usize| {
            qubits
                .binary_search(&q)
                .expect("gate qubit outside the fused block")
        };
        let local_ops: Vec<LocalOp> = gates
            .iter()
            .map(|g| LocalOp::from_gate(&remap_gate(g, &local)))
            .collect();

        // Composed dense unitary: replay the block on every basis column.
        let mut matrix = CMatrix::zeros(dim, dim);
        for v in 0..dim {
            let mut col = vec![C64::ZERO; dim];
            col[v] = C64::ONE;
            for op in &local_ops {
                op.apply(&mut col, 1);
            }
            for (r, &e) in col.iter().enumerate() {
                matrix[(r, v)] = e;
            }
        }

        let kind = classify(&matrix, dim, local_ops);
        FusedGate {
            qubits,
            matrix,
            kind,
            gate_count: gates.len(),
        }
    }

    /// The block's (ascending) global qubit indices.
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// The composed `2^k × 2^k` unitary of the block, local little-endian.
    pub fn matrix(&self) -> &CMatrix {
        &self.matrix
    }

    /// Number of original gates fused into this block.
    pub fn gate_count(&self) -> usize {
        self.gate_count
    }

    /// Structural class driving the block's application strategy.
    pub fn structure(&self) -> FusedStructure {
        match self.kind {
            BlockKind::Diagonal { .. } => FusedStructure::Diagonal,
            BlockKind::Permutation { .. } => FusedStructure::Permutation,
            BlockKind::General { .. } => FusedStructure::General,
            BlockKind::Dense => FusedStructure::Dense,
        }
    }

    /// Applies the block to every member of a batch-major buffer
    /// (amplitude `i` of member `j` at `state[i·batch + j]`; a single
    /// state is `batch = 1`) in one blocked pass, dispatching on
    /// [`FusedGate::structure`]:
    ///
    /// * diagonal blocks scale only the non-unit runs;
    /// * permutation blocks move runs along the cycles;
    /// * dense blocks gather each group and multiply it through the
    ///   composed unitary, so a block fused from thousands of gates costs
    ///   one `2^k × 2^k` product per group regardless of its depth;
    /// * general blocks (fewer gates than `2^k`) gather and replay the
    ///   precompiled ops — cheaper than the product at their depth.
    pub fn apply(&self, state: &mut [C64], batch: usize, par_threshold: usize) {
        self.apply_at(state, batch, &self.qubits, par_threshold)
    }

    /// Applies the block to **one gathered group buffer** of `2^k`
    /// amplitudes per member (batch-major: local index `v` of member `j`
    /// at `buf[v·batch + j]`), where local bit `j` of the index is block
    /// qubit `qubits[j]`. This is the block's action with the state-sweep
    /// factored out — the block relocated onto qubits `0..k` of a
    /// `k`-qubit state: callers that own their own gather/scatter loop
    /// (the distributed executor applying blocks to node-local slices at
    /// remapped, possibly non-ascending physical positions) drive this
    /// per group instead of [`FusedGate::apply`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != 2^k · batch`.
    pub fn apply_buffer(&self, buf: &mut [C64], batch: usize) {
        const LOCAL: [usize; MAX_FUSED_QUBITS] = [0, 1, 2, 3, 4, 5];
        let k = self.qubits.len();
        assert_eq!(
            buf.len(),
            batch << k,
            "group buffer must hold 2^k·batch amplitudes"
        );
        self.apply_at(buf, batch, &LOCAL[..k], usize::MAX)
    }

    /// The block's action with its local bits placed on `qubits`.
    fn apply_at(&self, state: &mut [C64], batch: usize, qubits: &[usize], par_threshold: usize) {
        match &self.kind {
            BlockKind::Diagonal { factors } => {
                apply_fused_diagonal(state, batch, qubits, factors, par_threshold)
            }
            BlockKind::Permutation { target, factor } => {
                apply_fused_permutation(state, batch, qubits, target, factor, par_threshold)
            }
            BlockKind::General { ops } => {
                apply_fused_local(state, batch, qubits, ops, par_threshold)
            }
            BlockKind::Dense => apply_fused(state, batch, qubits, &self.matrix, par_threshold),
        }
    }

    /// The block's `2^k` diagonal factors, if it classified as diagonal.
    /// Diagonal blocks commute with the basis, which is what lets the
    /// distributed executor apply them on *global* qubits with zero
    /// communication: each rank indexes the factors with its own fixed
    /// global bits.
    pub fn diagonal_factors(&self) -> Option<&[C64]> {
        match &self.kind {
            BlockKind::Diagonal { factors } => Some(factors),
            _ => None,
        }
    }

    /// State-vector entries one application of this block writes on an
    /// `n_qubits` state — the fused-aware counterpart of
    /// [`touched_entries`].
    pub fn touched_entries(&self, n_qubits: usize) -> usize {
        let k = self.qubits.len();
        let local = match &self.kind {
            BlockKind::Diagonal { factors } => factors.iter().filter(|&&f| f != C64::ONE).count(),
            BlockKind::Permutation { target, factor } => target
                .iter()
                .enumerate()
                .filter(|&(v, &t)| t != v || factor[v] != C64::ONE)
                .count(),
            BlockKind::General { .. } | BlockKind::Dense => 1usize << k,
        };
        fused_touched_entries(n_qubits, k, local)
    }
}

/// Remaps a gate's qubit indices through `f`.
fn remap_gate(gate: &Gate, f: &impl Fn(usize) -> usize) -> Gate {
    match gate {
        Gate::Unary {
            op,
            target,
            controls,
        } => Gate::Unary {
            op: op.clone(),
            target: f(*target),
            controls: controls.iter().map(|&c| f(c)).collect(),
        },
        Gate::Swap { a, b, controls } => Gate::Swap {
            a: f(*a),
            b: f(*b),
            controls: controls.iter().map(|&c| f(c)).collect(),
        },
    }
}

/// Classifies a composed block matrix, keeping the block's per-gate `ops`
/// only when the general (replay) path will read them. Diagonal/permutation
/// detection uses exact zero tests: diagonal and permutation gates produce
/// exact zeros under composition, while general gates leave numerically
/// non-zero dust that correctly demotes the block to the general path.
fn classify(matrix: &CMatrix, dim: usize, ops: Vec<LocalOp>) -> BlockKind {
    let mut target = vec![0usize; dim];
    let mut factor = vec![C64::ZERO; dim];
    let mut monomial = true;
    'cols: for v in 0..dim {
        let mut nz: Option<(usize, C64)> = None;
        for r in 0..dim {
            let e = matrix[(r, v)];
            if e != C64::ZERO {
                if nz.is_some() {
                    monomial = false;
                    break 'cols;
                }
                nz = Some((r, e));
            }
        }
        // A unitary column cannot be all zero.
        let (r, e) = nz.expect("zero column in a fused unitary");
        target[v] = r;
        factor[v] = e;
    }
    if monomial {
        if target.iter().enumerate().all(|(v, &t)| t == v) {
            return BlockKind::Diagonal { factors: factor };
        }
        return BlockKind::Permutation { target, factor };
    }
    if ops.len() >= dim {
        // Enough gates that one dense mat-vec (2^k multiplies per entry)
        // beats replaying them (≥1 multiply per entry per gate).
        BlockKind::Dense
    } else {
        BlockKind::General { ops }
    }
}

/// One executable step of a fused circuit.
#[derive(Clone, Debug)]
pub enum FusedOp {
    /// A gate kept on the single-gate structural fast path (lone gates,
    /// and gates whose qubit set alone exceeds the fusion window — e.g.
    /// multi-controlled gates, which the per-gate kernels handle in
    /// geometrically shrinking index space).
    Gate(Gate),
    /// A fused block applied in one blocked pass.
    Block(FusedGate),
}

impl FusedOp {
    /// Entries one application writes on an `n_qubits` state.
    pub fn touched_entries(&self, n_qubits: usize) -> usize {
        match self {
            FusedOp::Gate(g) => touched_entries(n_qubits, g),
            FusedOp::Block(b) => b.touched_entries(n_qubits),
        }
    }
}

/// A circuit after fusion: an ordered list of [`FusedOp`]s.
#[derive(Clone, Debug)]
pub struct FusedCircuit {
    n_qubits: usize,
    ops: Vec<FusedOp>,
}

impl FusedCircuit {
    /// Number of qubits the circuit addresses.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The fused ops in application order.
    pub fn ops(&self) -> &[FusedOp] {
        &self.ops
    }

    /// Applies every op to all members of a batch-major buffer (a single
    /// state is `batch = 1`): single gates go through the structural
    /// kernels, blocks through [`FusedGate::apply`]. Fusion cost was paid
    /// once; this pass pays one sweep per op for the whole ensemble.
    pub fn apply(&self, state: &mut [C64], batch: usize, par_threshold: usize) {
        for op in &self.ops {
            match op {
                FusedOp::Gate(g) => apply_gate_batch(state, batch, g, par_threshold),
                FusedOp::Block(b) => b.apply(state, batch, par_threshold),
            }
        }
    }

    /// Total state-vector entries written by one execution on an
    /// `n_qubits` state — the memory-traffic estimate the planner's
    /// cost model prices fused candidates with.
    pub fn touched_entries(&self, n_qubits: usize) -> usize {
        self.ops.iter().map(|op| op.touched_entries(n_qubits)).sum()
    }

    /// Summary counts for reporting.
    pub fn census(&self) -> FusionCensus {
        let mut census = FusionCensus::default();
        for op in &self.ops {
            match op {
                FusedOp::Gate(_) => census.singles += 1,
                FusedOp::Block(b) => {
                    census.blocks += 1;
                    census.fused_gates += b.gate_count();
                    census.max_block_qubits = census.max_block_qubits.max(b.qubits().len());
                    match b.structure() {
                        FusedStructure::Diagonal => census.diagonal_blocks += 1,
                        FusedStructure::Permutation => census.permutation_blocks += 1,
                        FusedStructure::General => census.general_blocks += 1,
                        FusedStructure::Dense => census.dense_blocks += 1,
                    }
                }
            }
        }
        census
    }
}

/// Block/op counts of a [`FusedCircuit`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusionCensus {
    /// Gates left on the single-gate fast path.
    pub singles: usize,
    /// Fused blocks of ≥2 gates.
    pub blocks: usize,
    /// Gates absorbed into blocks.
    pub fused_gates: usize,
    /// Blocks applied as diagonals.
    pub diagonal_blocks: usize,
    /// Blocks applied as permutations.
    pub permutation_blocks: usize,
    /// Blocks applied by in-cache gate replay.
    pub general_blocks: usize,
    /// Blocks applied by dense mat-vec.
    pub dense_blocks: usize,
    /// Widest block produced.
    pub max_block_qubits: usize,
}

impl FusionCensus {
    /// Total executable ops (sweeps) after fusion.
    pub fn total_ops(&self) -> usize {
        self.singles + self.blocks
    }
}

/// Fuses a circuit under `policy`.
///
/// The greedy pass walks the gate list once, extending the current block
/// while the union of qubit sets stays within the window, flushing it
/// otherwise. Blocks that end up with a single gate degrade back to the
/// per-gate structural kernels, so fusion never loses the paper's §4.5
/// fast paths.
pub fn fuse_circuit(circuit: &Circuit, policy: &FusionPolicy) -> FusedCircuit {
    fuse_circuit_with_barriers(circuit, policy, |_| false)
}

/// Fuses like [`fuse_circuit`], but gates matching `barrier` are never
/// absorbed into blocks — they flush any pending run and stay standalone
/// [`FusedOp::Gate`]s. The distributed executor uses this to keep
/// uncontrolled SWAPs out of blocks: standalone, they execute as free
/// qubit-map relabels, while inside a block they would force the block's
/// qubits local (communication the relabel avoids entirely).
pub fn fuse_circuit_with_barriers(
    circuit: &Circuit,
    policy: &FusionPolicy,
    barrier: impl Fn(&Gate) -> bool,
) -> FusedCircuit {
    let ops = match *policy {
        FusionPolicy::Disabled => circuit.gates().iter().cloned().map(FusedOp::Gate).collect(),
        FusionPolicy::Greedy { max_fused_qubits } => greedy_fuse(
            circuit,
            max_fused_qubits.clamp(1, MAX_FUSED_QUBITS),
            &barrier,
        ),
    };
    FusedCircuit {
        n_qubits: circuit.n_qubits(),
        ops,
    }
}

/// Flushes the pending run into `ops` (single gates skip block overhead).
fn flush(ops: &mut Vec<FusedOp>, pending: &mut Vec<Gate>, pending_qubits: &mut Vec<usize>) {
    match pending.len() {
        0 => {}
        1 => ops.push(FusedOp::Gate(pending.pop().unwrap())),
        _ => ops.push(FusedOp::Block(FusedGate::from_gates(
            std::mem::take(pending_qubits),
            pending,
        ))),
    }
    pending.clear();
    pending_qubits.clear();
}

fn greedy_fuse(circuit: &Circuit, kmax: usize, barrier: &impl Fn(&Gate) -> bool) -> Vec<FusedOp> {
    let mut ops = Vec::new();
    let mut pending: Vec<Gate> = Vec::new();
    let mut pending_qubits: Vec<usize> = Vec::new(); // ascending
    for gate in circuit.gates() {
        if barrier(gate) {
            flush(&mut ops, &mut pending, &mut pending_qubits);
            ops.push(FusedOp::Gate(gate.clone()));
            continue;
        }
        let mut gq = gate.qubits();
        gq.sort_unstable();
        let union = merge_sorted(&pending_qubits, &gq);
        if !pending.is_empty() && union.len() <= kmax {
            pending_qubits = union;
            pending.push(gate.clone());
        } else {
            flush(&mut ops, &mut pending, &mut pending_qubits);
            if gq.len() <= kmax {
                pending_qubits = gq;
                pending.push(gate.clone());
            } else {
                // Wider than the window on its own (e.g. many controls):
                // stays on the per-gate kernel fast path.
                ops.push(FusedOp::Gate(gate.clone()));
            }
        }
    }
    flush(&mut ops, &mut pending, &mut pending_qubits);
    ops
}

/// Union of two ascending, duplicate-free index lists.
fn merge_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                out.push(x);
                i += 1;
                j += 1;
            }
            (Some(&x), Some(&y)) if x < y => {
                out.push(x);
                i += 1;
            }
            (Some(_), Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (Some(&x), None) => {
                out.push(x);
                i += 1;
            }
            (None, Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    out
}

impl Circuit {
    /// Fuses this circuit under `policy` — see [`fuse_circuit`].
    pub fn fuse(&self, policy: &FusionPolicy) -> FusedCircuit {
        fuse_circuit(self, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::entangle::entangle_circuit;
    use crate::circuits::qft::qft_circuit;
    use crate::kernels::apply_gate_slice;
    use crate::statevector::StateVector;
    use qcemu_linalg::{max_abs_diff, random_state};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_fused_equals_unfused(circuit: &Circuit, kmax: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = random_state(1usize << circuit.n_qubits(), &mut rng);
        let mut plain = input.clone();
        for g in circuit.gates() {
            apply_gate_slice(&mut plain, g);
        }
        let fused = fuse_circuit(
            circuit,
            &FusionPolicy::Greedy {
                max_fused_qubits: kmax,
            },
        );
        let mut blocked = input;
        fused.apply(&mut blocked, 1, PAR_THRESHOLD);
        assert!(
            max_abs_diff(&plain, &blocked) < 1e-12,
            "fused(k={kmax}) diverges on {} gates: {}",
            circuit.gate_count(),
            max_abs_diff(&plain, &blocked)
        );
    }

    #[test]
    fn qft_fused_matches_unfused_at_every_window() {
        let c = qft_circuit(8);
        for kmax in 1..=MAX_FUSED_QUBITS {
            check_fused_equals_unfused(&c, kmax, 700 + kmax as u64);
        }
    }

    #[test]
    fn entangle_fused_matches_unfused_at_every_window() {
        let c = entangle_circuit(9);
        for kmax in 1..=MAX_FUSED_QUBITS {
            check_fused_equals_unfused(&c, kmax, 710 + kmax as u64);
        }
    }

    #[test]
    fn mixed_gate_zoo_fuses_correctly() {
        let mut c = Circuit::new(6);
        c.h(0)
            .cnot(0, 1)
            .toffoli(0, 1, 2)
            .swap(2, 3)
            .rz(3, 0.4)
            .cphase(3, 4, -0.7)
            .x(5)
            .phase(5, 1.1)
            .ry(4, 0.2)
            .cnot(5, 0);
        c.push(Gate::Swap {
            a: 1,
            b: 2,
            controls: vec![0],
        });
        for kmax in 1..=MAX_FUSED_QUBITS {
            check_fused_equals_unfused(&c, kmax, 720 + kmax as u64);
        }
    }

    #[test]
    fn disabled_policy_keeps_every_gate_single() {
        let c = qft_circuit(5);
        let fused = fuse_circuit(&c, &FusionPolicy::Disabled);
        assert_eq!(fused.ops().len(), c.gate_count());
        assert!(fused.ops().iter().all(|op| matches!(op, FusedOp::Gate(_))));
    }

    #[test]
    fn blocks_respect_the_window() {
        let c = qft_circuit(10);
        for kmax in 2..=MAX_FUSED_QUBITS {
            let fused = c.fuse(&FusionPolicy::Greedy {
                max_fused_qubits: kmax,
            });
            for op in fused.ops() {
                if let FusedOp::Block(b) = op {
                    assert!(b.qubits().len() <= kmax);
                    assert!(b.gate_count() >= 2);
                    assert!(b.matrix().is_unitary(1e-10));
                }
            }
            let census = fused.census();
            assert!(census.blocks > 0);
            assert!(census.max_block_qubits <= kmax);
            assert_eq!(census.singles + census.fused_gates, c.gate_count());
        }
    }

    #[test]
    fn oversized_gates_stay_on_the_fast_path() {
        let mut c = Circuit::new(6);
        c.push(Gate::mcx(vec![0, 1, 2, 3], 4)); // 5 qubits > window of 3
        c.h(5);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 3,
        });
        assert_eq!(fused.ops().len(), 2);
        assert!(matches!(fused.ops()[0], FusedOp::Gate(_)));
        check_fused_equals_unfused(&c, 3, 730);
    }

    #[test]
    fn block_structure_classification() {
        // A run of diagonal gates → diagonal block.
        let mut c = Circuit::new(4);
        c.cphase(0, 1, 0.3).rz(1, 0.2);
        c.push(Gate::cz(0, 2));
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 4,
        });
        assert_eq!(fused.ops().len(), 1);
        if let FusedOp::Block(b) = &fused.ops()[0] {
            assert_eq!(b.structure(), FusedStructure::Diagonal);
        } else {
            panic!("expected one block");
        }

        // A run of CNOT/SWAP → permutation block.
        let mut c = Circuit::new(4);
        c.cnot(0, 1).cnot(0, 2).swap(1, 2);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 4,
        });
        if let FusedOp::Block(b) = &fused.ops()[0] {
            assert_eq!(b.structure(), FusedStructure::Permutation);
        } else {
            panic!("expected one block");
        }

        // An H in the run → general block.
        let mut c = Circuit::new(4);
        c.h(0).cnot(0, 1).rz(1, 0.5);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 4,
        });
        if let FusedOp::Block(b) = &fused.ops()[0] {
            assert_eq!(b.structure(), FusedStructure::General);
        } else {
            panic!("expected one block");
        }

        // Many general gates on a narrow window → dense block.
        let mut c = Circuit::new(2);
        for _ in 0..3 {
            c.h(0).ry(1, 0.1);
        }
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 2,
        });
        if let FusedOp::Block(b) = &fused.ops()[0] {
            assert_eq!(b.structure(), FusedStructure::Dense);
            assert_eq!(b.gate_count(), 6);
        } else {
            panic!("expected one block");
        }
        check_fused_equals_unfused(&c, 2, 731);
    }

    #[test]
    fn apply_buffer_matches_apply_slice_per_group() {
        // For a block on qubits 0..k of a 2^k state, one "group" is the
        // whole state: apply_buffer must reproduce gate-by-gate
        // application for every structural class (diagonal, permutation,
        // general, dense), solo and on a batch-major group buffer.
        let blocks: Vec<Circuit> = vec![
            {
                let mut c = Circuit::new(3);
                c.cphase(0, 1, 0.3).rz(2, 0.4);
                c.push(Gate::cz(0, 2));
                c
            },
            {
                let mut c = Circuit::new(3);
                c.cnot(0, 1).swap(1, 2).x(0);
                c
            },
            {
                let mut c = Circuit::new(3);
                c.h(0).cnot(0, 1).rz(2, 0.7);
                c
            },
            {
                let mut c = Circuit::new(2);
                for _ in 0..3 {
                    c.h(0).ry(1, 0.2);
                }
                c
            },
        ];
        for (i, c) in blocks.iter().enumerate() {
            let fused = c.fuse(&FusionPolicy::Greedy {
                max_fused_qubits: c.n_qubits(),
            });
            assert_eq!(fused.ops().len(), 1);
            let FusedOp::Block(b) = &fused.ops()[0] else {
                panic!("expected a block");
            };
            let mut rng = StdRng::seed_from_u64(760 + i as u64);
            for batch in [1usize, 3] {
                let input = random_state(batch << c.n_qubits(), &mut rng);
                let mut via_buffer = input.clone();
                b.apply_buffer(&mut via_buffer, batch);
                let mut via_gates = input;
                for g in c.gates() {
                    apply_gate_batch(&mut via_gates, batch, g, PAR_THRESHOLD);
                }
                assert!(
                    max_abs_diff(&via_buffer, &via_gates) < 1e-13,
                    "block {i}, batch {batch}: buffer/gate mismatch"
                );
            }
        }
    }

    #[test]
    fn only_general_blocks_hold_ops() {
        // A plan carries its fused streams, so a block keeps its per-gate
        // replay ops only when its kind reads them: one of each class.
        let mut c = Circuit::new(9);
        c.cphase(0, 1, 0.3).rz(1, 0.2); // diagonal
        c.cnot(2, 3).swap(3, 4); // permutation
        c.h(5).cnot(5, 6); // general
        for _ in 0..3 {
            c.h(7).ry(8, 0.1); // dense
        }
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 3,
        });
        let mut seen = Vec::new();
        for op in fused.ops() {
            let FusedOp::Block(b) = op else { continue };
            seen.push(b.structure());
            match &b.kind {
                BlockKind::General { ops } => assert_eq!(ops.len(), b.gate_count()),
                _ => assert_ne!(b.structure(), FusedStructure::General),
            }
        }
        for s in [
            FusedStructure::Diagonal,
            FusedStructure::Permutation,
            FusedStructure::General,
            FusedStructure::Dense,
        ] {
            assert!(seen.contains(&s), "{s:?} missing from {seen:?}");
        }
        check_fused_equals_unfused(&c, 3, 907);
    }

    #[test]
    fn diagonal_factors_exposed_only_for_diagonal_blocks() {
        let mut c = Circuit::new(3);
        c.cphase(0, 1, 0.3).rz(2, 0.4);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 3,
        });
        let FusedOp::Block(b) = &fused.ops()[0] else {
            panic!("expected a block");
        };
        let factors = b.diagonal_factors().expect("diagonal block");
        assert_eq!(factors.len(), 8);

        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 2,
        });
        let FusedOp::Block(b) = &fused.ops()[0] else {
            panic!("expected a block");
        };
        assert!(b.diagonal_factors().is_none());
    }

    #[test]
    fn fuse_within_clamps_the_window() {
        let c = qft_circuit(8);
        let fused = c.fuse_within(&FusionPolicy::greedy(), 2);
        assert!(fused.census().max_block_qubits <= 2);
        // Disabled stays disabled.
        let fused = c.fuse_within(&FusionPolicy::Disabled, 2);
        assert!(fused.ops().iter().all(|op| matches!(op, FusedOp::Gate(_))));
    }

    #[test]
    fn touched_entries_accounting() {
        let n = 10;
        let full = 1usize << n;

        // Diagonal block of two controlled phases sharing qubit 2: the
        // composed diagonal is non-unit on local patterns with bit(2)=1
        // and (bit(0)=1 or bit(1)=1): 3 of 8 patterns → 3/8 of the state.
        let mut c = Circuit::new(n);
        c.cphase(0, 2, 0.3).cphase(1, 2, 0.4);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 3,
        });
        assert_eq!(fused.touched_entries(n), 3 * full / 8);
        // Unfused: two quarter-touches.
        let unfused = c.fuse(&FusionPolicy::Disabled);
        assert_eq!(unfused.touched_entries(n), full / 2);

        // Permutation block: two CNOTs sharing control 0 move only the
        // control-on half.
        let mut c = Circuit::new(n);
        c.cnot(0, 1).cnot(0, 2);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 3,
        });
        assert_eq!(fused.touched_entries(n), full / 2);
        assert_eq!(
            c.fuse(&FusionPolicy::Disabled).touched_entries(n),
            full // two half-touches
        );

        // General block: one full sweep however many gates it holds.
        let mut c = Circuit::new(n);
        c.h(0).cnot(0, 1).h(1).cnot(1, 2);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 3,
        });
        assert_eq!(fused.ops().len(), 1);
        assert_eq!(fused.touched_entries(n), full);
    }

    #[test]
    fn fused_traffic_beats_unfused_on_the_benchmark_circuits() {
        // The quantity `perf_suite`'s `sim.fused_s` row measures in time,
        // checked here in the traffic model: one fused sweep per block vs one
        // (partial) sweep per gate.
        for n in [12, 16] {
            for circuit in [qft_circuit(n), entangle_circuit(n)] {
                let unfused = circuit.fuse(&FusionPolicy::Disabled).touched_entries(n);
                for kmax in [4, 5] {
                    let fused = circuit
                        .fuse(&FusionPolicy::Greedy {
                            max_fused_qubits: kmax,
                        })
                        .touched_entries(n);
                    assert!(
                        fused < unfused,
                        "fusion(k={kmax}) should cut traffic on {n} qubits: {fused} vs {unfused}"
                    );
                }
            }
        }
    }

    #[test]
    fn statevector_run_honours_the_config() {
        let c = qft_circuit(7);
        let mut plain = StateVector::uniform_superposition(7);
        plain.apply_circuit(&c);
        // Disabled config is bitwise identical to apply_circuit.
        let mut unfused = StateVector::uniform_superposition(7);
        unfused.run(&c, &SimConfig::unfused());
        assert_eq!(max_abs_diff(plain.amplitudes(), unfused.amplitudes()), 0.0);
        // Fused config agrees to rounding.
        for k in 2..=5 {
            let mut fused = StateVector::uniform_superposition(7);
            fused.run(&c, &SimConfig::fused(k));
            assert!(max_abs_diff(plain.amplitudes(), fused.amplitudes()) < 1e-12);
        }
    }

    #[test]
    fn window_is_clamped_to_kernel_limit() {
        let c = qft_circuit(9);
        let fused = c.fuse(&FusionPolicy::Greedy {
            max_fused_qubits: 64,
        });
        assert!(fused.census().max_block_qubits <= MAX_FUSED_QUBITS);
        check_fused_equals_unfused(&c, 64, 740);
    }

    #[test]
    fn merge_sorted_unions() {
        assert_eq!(merge_sorted(&[0, 2, 5], &[2, 3]), vec![0, 2, 3, 5]);
        assert_eq!(merge_sorted(&[], &[1]), vec![1]);
        assert_eq!(merge_sorted(&[4], &[]), vec![4]);
    }
}
