//! Cost-model-driven execution planning: one lowering walk, one run loop.
//!
//! The paper's central tension (§3.3, §4.4, Table 2) is that *neither*
//! backend wins everywhere: emulation shortcuts win asymptotically, while
//! gate-level simulation wins at small operator sizes and on raw gate
//! runs. This module makes the choice explicit, per-op, and auditable:
//!
//! 1. [`plan`] **lowers** every [`HighLevelOp`] to a [`PlanStep`]: one
//!    walk prices each candidate [`Backend`] of the op through the
//!    generalized [`CostModel`] (which extends the Table 2 QPE crossover
//!    analysis to classical maps, QFTs, rotations, and raw gate runs via
//!    the memory-traffic estimators `Circuit::touched_entries` /
//!    `FusedCircuit::touched_entries`) and keeps the cheapest. The
//!    [`Policy`] decides which candidates an op has:
//!    [`Emulator`](crate::executor::Emulator) and
//!    [`GateLevelSimulator`](crate::executor::GateLevelSimulator) pass
//!    the two fixed policies, [`HybridExecutor`](crate::executor::HybridExecutor)
//!    passes [`Policy::Cheapest`];
//! 2. [`PlanInterpreter::run_members`] executes any plan over an ensemble
//!    of one to N structurally identical programs — a solo run is the
//!    one-member ensemble;
//! 3. execution emits a [`PlanReport`] with per-op backend, predicted and
//!    measured cost, so every dispatch decision can be audited against
//!    the clock (`examples/shor.rs` prints one).

use crate::classical::{
    apply_classical_map_batch, apply_controlled_rotation_batch, apply_phase_oracle_batch,
};
use crate::crossover::CostModel;
use crate::error::EmuError;
use crate::program::{ClassicalMap, HighLevelOp, PhaseOracle, QuantumProgram, RotationOp};
use crate::qpe::{apply_qpe, QpeStrategy};
use qcemu_fft::{inverse_qft_subspace_batch, qft_subspace_batch};
use qcemu_linalg::C64;
use qcemu_sim::circuits::qft::{inverse_qft_circuit, qft_circuit};
use qcemu_sim::{
    estimate_mps_cost, segment_circuit, BatchStateVector, Circuit, FusedCircuit, FusionPolicy,
    Gate, GateOp, MpsPolicy, MpsState, SegmentPolicy, SimConfig, StateVector,
    DEFAULT_MAX_FUSED_QUBITS, MPS_EXACT_TOL,
};
use std::borrow::{Borrow, Cow};
use std::fmt;
use std::time::Instant;

/// Probability mass tolerated on non-|0⟩ ancilla values after a step.
const ANCILLA_LEAK_TOL: f64 = 1e-9;

/// Execution backend of one plan step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Emulation shortcut for classical structure: permutation-table pass
    /// (classical maps), conditional phase scan (oracles), or the per-pair
    /// rotation sweep (paper §3.1).
    EmulateClassical,
    /// QFT via the classical FFT on the register subspace (paper §3.2).
    EmulateFft,
    /// Phase estimation with an explicit strategy (paper §3.3);
    /// `QpeStrategy::GateLevel` is the simulated variant.
    EmulateQpe {
        /// How the QPE is carried out.
        strategy: QpeStrategy,
    },
    /// Gate-level simulation through the fusion engine (cache-blocked
    /// multi-qubit sweeps).
    SimulateFused,
    /// Gate-level simulation through the segment executor
    /// (`qcemu_sim::segment`): the circuit is partitioned into blocked
    /// segments whose ops replay against L2-resident blocks, so deep
    /// compatible runs cross memory once instead of once per gate.
    SimulateSegmented {
        /// log2 of the block size in amplitudes — carried in the IR so
        /// pricing and execution use the *same* (possibly calibrated)
        /// block size (`CostModel::block_bits`).
        block_bits: usize,
    },
    /// Compressed simulation through the bond-truncated MPS backend
    /// (`qcemu_sim::mps`): O(χ³) per two-qubit gate instead of Θ(2ⁿ) per
    /// sweep. Only chosen when the entanglement-growth estimate proves
    /// the run stays exact under the cap, and execution still audits the
    /// truncation-error accumulator, falling back to a dense run on any
    /// forced truncation — a mispredicted χ costs time, never
    /// correctness.
    SimulateMps {
        /// Bond-dimension cap χ the step runs (and was priced) under.
        max_bond: usize,
    },
    /// Plain gate-by-gate simulation through the structural kernels.
    SimulateGateLevel,
}

impl Backend {
    /// `true` if this backend lowers the op to elementary-gate execution.
    pub fn is_simulate(&self) -> bool {
        matches!(
            self,
            Backend::SimulateFused
                | Backend::SimulateSegmented { .. }
                | Backend::SimulateMps { .. }
                | Backend::SimulateGateLevel
        )
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::EmulateClassical => write!(f, "emulate:classical"),
            Backend::EmulateFft => write!(f, "emulate:fft"),
            Backend::EmulateQpe { strategy } => match strategy {
                QpeStrategy::GateLevel => write!(f, "qpe:gate-level"),
                QpeStrategy::RepeatedSquaring => write!(f, "qpe:squaring"),
                QpeStrategy::Eigendecomposition => write!(f, "qpe:eigen"),
            },
            Backend::SimulateFused => write!(f, "simulate:fused"),
            Backend::SimulateSegmented { .. } => write!(f, "simulate:segmented"),
            Backend::SimulateMps { max_bond } => write!(f, "simulate:mps(χ≤{max_bond})"),
            Backend::SimulateGateLevel => write!(f, "simulate:gates"),
        }
    }
}

/// One lowered op: which backend runs it and what the model predicts it
/// costs (seconds on the cost model's synthetic machine).
#[derive(Clone, Debug)]
pub struct PlanStep {
    /// Index into `program.ops()`.
    pub op_index: usize,
    /// Human-readable op label (for reports).
    pub op: String,
    /// Chosen backend.
    pub backend: Backend,
    /// Predicted cost in model seconds (`f64::INFINITY` when the chosen
    /// backend cannot run the op, e.g. simulating an emulation-only map —
    /// execution then fails with the same error the legacy executor
    /// raised).
    pub predicted_s: f64,
    /// Work qubits this step runs with above the program space
    /// (simulation backends only). The interpreter widens the state to
    /// `n + n_ancilla` qubits for this step alone and checks the ancillas
    /// are back in |0⟩ after it.
    pub n_ancilla: usize,
    /// Fused block stream of a raw gate run, as the cost model priced it —
    /// reused directly by fused execution (the structure hash covers a raw
    /// run bit for bit, and fusion is semantics-preserving at any window).
    /// Because every run applies it as built, the step's `predicted_s`
    /// holds no fusion compile. An interpreter with
    /// [`elementary`](PlanInterpreter::elementary) set decomposes the run
    /// and fuses it again instead, so its predictions for these steps are
    /// low. Nothing built from a closure is ever carried: such a step
    /// builds its circuit from the member it is executing.
    pub(crate) fused: Option<FusedCircuit>,
}

impl PlanStep {
    /// The fused block stream this step carries, if any (read-only: a
    /// plan's streams are built from its own program's raw runs).
    pub fn carried_stream(&self) -> Option<&FusedCircuit> {
        self.fused.as_ref()
    }
}

/// A fully lowered program: an ordered list of [`PlanStep`]s. A plan
/// holds nothing derived from a closure, so it serves every program of
/// its structure.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    steps: Vec<PlanStep>,
    /// `structure_hash` of the program the plan was lowered from;
    /// execution refuses any other structure (steps index its op list).
    structure: u64,
}

impl ExecutionPlan {
    /// The lowered steps in program order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Ancilla qubits of the widest step (the `2^anc` memory factor of
    /// paper Fig. 2, paid only while that step runs): zero for plans that
    /// simulate no ancilla-bearing op.
    pub fn n_ancilla(&self) -> usize {
        self.steps.iter().map(|s| s.n_ancilla).max().unwrap_or(0)
    }

    /// Sum of the per-step cost predictions (model seconds).
    pub fn total_predicted_s(&self) -> f64 {
        self.steps.iter().map(|s| s.predicted_s).sum()
    }
}

impl fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>3} {:<26} {:>17} {:>12}",
            "#", "op", "backend", "predicted"
        )?;
        for step in &self.steps {
            writeln!(
                f,
                "{:>3} {:<26} {:>17} {:>12}",
                step.op_index,
                step.op,
                step.backend.to_string(),
                fmt_model_secs(step.predicted_s),
            )?;
        }
        write!(f, "ancillas: {}", self.n_ancilla())
    }
}

/// Per-step entry of a [`PlanReport`]: the plan's choice plus the
/// measured wall time of the step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Op label.
    pub op: String,
    /// Backend that ran the op.
    pub backend: Backend,
    /// Model-predicted cost of one member (seconds).
    pub predicted_s: f64,
    /// Measured wall time of the step across the whole ensemble
    /// (seconds).
    pub measured_s: f64,
    /// `true` when one pass of the batch-major kernels advanced several
    /// members together; `false` for a lone member and for a step that
    /// looped over members.
    pub batched: bool,
}

/// Audit trail of one plan execution over an ensemble of one to N
/// members: per-op backend, predicted vs measured cost. Render with `{}`
/// for an aligned table.
#[derive(Clone, Debug)]
pub struct PlanReport {
    /// Number of ensemble members the run advanced (1 for a solo run).
    pub batch: usize,
    /// One entry per executed step, in program order.
    pub steps: Vec<StepReport>,
}

impl PlanReport {
    /// Total measured wall time across all steps (whole ensemble).
    pub fn total_measured_s(&self) -> f64 {
        self.steps.iter().map(|s| s.measured_s).sum()
    }

    /// Total predicted cost of one member across all steps.
    pub fn total_predicted_s(&self) -> f64 {
        self.steps.iter().map(|s| s.predicted_s).sum()
    }
}

impl fmt::Display for PlanReport {
    /// An ensemble adds its size and a route column to the solo table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ensemble = self.batch > 1;
        if ensemble {
            writeln!(f, "batch of {}", self.batch)?;
        }
        let row = |f: &mut fmt::Formatter<'_>, cells: [&str; 5]| {
            let [op, backend, route, predicted, measured] = cells;
            write!(f, "{op:<26} {backend:>17}")?;
            if ensemble {
                write!(f, " {route:>11}")?;
            }
            write!(f, " {predicted:>12} {measured:>12}")
        };
        row(f, ["op", "backend", "route", "predicted", "measured"])?;
        for s in &self.steps {
            let route = if s.batched { "batched" } else { "per-member" };
            let (backend, predicted, measured) = (
                s.backend.to_string(),
                fmt_model_secs(s.predicted_s),
                fmt_model_secs(s.measured_s),
            );
            writeln!(f)?;
            row(f, [&s.op, &backend, route, &predicted, &measured])?;
        }
        let predicted = fmt_model_secs(self.total_predicted_s());
        let measured = fmt_model_secs(self.total_measured_s());
        writeln!(f)?;
        row(f, ["total", "", "", &predicted, &measured])
    }
}

fn fmt_model_secs(s: f64) -> String {
    if s.is_infinite() {
        "∞".into()
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

// ---------------------------------------------------------------------------
// Ancilla head-room, per step, on the batch-major buffer: ancillas are the
// top qubits, so every member's ancilla-excited amplitudes form the tail.
// ---------------------------------------------------------------------------

/// Resizes every member to `width` qubits. Widening appends |0⟩ ancillas
/// (the memory the paper's Fig. 2 is about: a gate path with `a` work
/// qubits pays `2^a ×`); narrowing drops an ancilla tail that
/// [`check_ancillas`] found clean. The buffer keeps its capacity, so the
/// next wide step does not reallocate.
fn with_width(state: BatchStateVector, width: usize) -> BatchStateVector {
    if state.n_qubits() == width {
        return state;
    }
    let batch = state.batch();
    let mut amps = state.into_amplitudes();
    amps.resize(batch << width, C64::ZERO);
    BatchStateVector::from_amplitudes(amps, batch)
}

/// Validates that every member's ancillas above the `n_program`-qubit
/// space are back in |0⟩ after plan step `step`; a leak indicates a
/// broken reversible circuit.
fn check_ancillas(state: &BatchStateVector, n_program: usize, step: usize) -> Result<(), EmuError> {
    let batch = state.batch();
    let mut leaks = vec![0.0f64; batch];
    for run in state.amplitudes()[batch << n_program..].chunks_exact(batch) {
        for (leak, z) in leaks.iter_mut().zip(run) {
            *leak += z.norm_sqr();
        }
    }
    let leaked = leaks.into_iter().fold(0.0, f64::max);
    if leaked > ANCILLA_LEAK_TOL {
        return Err(EmuError::AncillaNotClean { step, leaked });
    }
    Ok(())
}

/// Drops the ancillas of a run that widened (already checked clean) and
/// returns the wide buffer to the allocator.
fn truncate_ancillas(state: BatchStateVector, n_program: usize) -> BatchStateVector {
    let batch = state.batch();
    let mut amps = with_width(state, n_program).into_amplitudes();
    amps.shrink_to_fit();
    BatchStateVector::from_amplitudes(amps, batch)
}

// ---------------------------------------------------------------------------
// Lowering: one walk, one price per (op, backend).
// ---------------------------------------------------------------------------

/// Which backends the lowering walk may choose from for each op.
#[derive(Clone, Copy)]
pub enum Policy<'a> {
    /// Every op on its emulation shortcut; raw gate runs, which have none,
    /// on the configured gate path. `choose_qpe` picks the QPE strategy
    /// from the phase register's width, or leaves it (`None`) to the cost
    /// model's choice between the two dense strategies.
    Emulate {
        /// QPE strategy chooser.
        choose_qpe: &'a dyn Fn(usize) -> Option<QpeStrategy>,
    },
    /// Every op on the configured gate path, each with its own ancilla
    /// head-room. Ops without a gate-level implementation are kept
    /// (predicted cost `∞`) and fail at execution with
    /// [`EmuError::NoGateImplementation`].
    Simulate,
    /// Each op on its cheapest backend under the cost model.
    Cheapest,
}

/// The two dense QPE strategies, in tie-breaking order: the candidates
/// of every QPE the cost model decides.
const DENSE_QPE: [Backend; 2] = [
    Backend::EmulateQpe {
        strategy: QpeStrategy::RepeatedSquaring,
    },
    Backend::EmulateQpe {
        strategy: QpeStrategy::Eigendecomposition,
    },
];

/// The gate path a `config`-driven simulation step uses. A forced MPS
/// policy wins outright (the caller explicitly asked for compressed
/// execution); segmentation is checked next: a blocked segment policy
/// subsumes the fusion policy (the sweeps between blocked segments still
/// fuse under the config's own `FusionPolicy`).
fn sim_backend(config: &SimConfig) -> Backend {
    if let MpsPolicy::Forced { max_bond } = config.mps {
        return Backend::SimulateMps { max_bond };
    }
    if let SegmentPolicy::Blocked { block_bits } = config.segments {
        return Backend::SimulateSegmented { block_bits };
    }
    match config.fusion {
        FusionPolicy::Disabled => Backend::SimulateGateLevel,
        FusionPolicy::Greedy { .. } => Backend::SimulateFused,
    }
}

impl Policy<'_> {
    /// The op's candidate set, in tie-breaking order. [`Pricing::price`]
    /// drops the entries that do not apply to the op.
    fn candidates(
        &self,
        program: &QuantumProgram,
        op: &HighLevelOp,
        model: &CostModel,
        config: &SimConfig,
    ) -> Vec<Backend> {
        match (self, op) {
            (Policy::Simulate, _) | (Policy::Emulate { .. }, HighLevelOp::Gates(_)) => {
                vec![sim_backend(config)]
            }
            (Policy::Emulate { choose_qpe }, HighLevelOp::Qpe(qpe)) => {
                match choose_qpe(program.register(qpe.phase).len) {
                    Some(strategy) => vec![Backend::EmulateQpe { strategy }],
                    None => DENSE_QPE.to_vec(),
                }
            }
            (Policy::Emulate { .. }, _) => vec![Backend::EmulateClassical, Backend::EmulateFft],
            (Policy::Cheapest, _) => {
                let mut all = vec![Backend::EmulateClassical, Backend::EmulateFft];
                all.extend(DENSE_QPE);
                all.extend([
                    Backend::SimulateFused,
                    Backend::SimulateGateLevel,
                    Backend::SimulateSegmented {
                        block_bits: model.block_bits,
                    },
                ]);
                all.extend(
                    config
                        .mps
                        .max_bond()
                        .map(|max_bond| Backend::SimulateMps { max_bond }),
                );
                all
            }
        }
    }
}

fn op_label(program: &QuantumProgram, op: &HighLevelOp) -> String {
    match op {
        HighLevelOp::Gates(c) => format!("gates[{}]", c.gate_count()),
        HighLevelOp::Classical(cm) => format!("classical '{}'", cm.name),
        HighLevelOp::Phase(po) => format!("oracle '{}'", po.name),
        HighLevelOp::Rotation(ro) => format!("rotation '{}'", ro.name),
        HighLevelOp::Qft(r) => format!("qft '{}'", program.register(*r).name),
        HighLevelOp::InverseQft(r) => format!("iqft '{}'", program.register(*r).name),
        HighLevelOp::Qpe(q) => format!(
            "qpe[n={},b={}]",
            program.register(q.target).len,
            program.register(q.phase).len
        ),
    }
}

/// An op's gate-level implementation, built once per [`plan`] call and only
/// when some candidate simulates.
enum GatePath<'p> {
    /// The op has none (or no candidate asked for it).
    None,
    /// A raw gate run on absolute program qubits, borrowed from the op.
    Raw(&'p Circuit),
    /// A gate impl built from the op's closure, on absolute program qubits
    /// plus `n_ancilla` work qubits. Priced, never carried: execution
    /// builds it again from the member it runs.
    Built { circuit: Circuit, n_ancilla: usize },
    /// A register QFT on the register's *relative* qubits. Execution
    /// remaps it onto the program, so nothing built from it is carried,
    /// and it has no compressed candidate: QFT entanglement saturates any
    /// realistic bond cap.
    RegisterQft(Circuit),
    /// The generic per-value rotation expansion, exponential in the
    /// `x_bits`-wide control register: priced analytically, the same on
    /// every dense flavour, instead of materialising it just to reject it.
    RotationExpansion { x_bits: usize },
}

impl<'p> GatePath<'p> {
    fn of(program: &'p QuantumProgram, op: &'p HighLevelOp) -> GatePath<'p> {
        let built = |gi: &crate::program::GateImpl| GatePath::Built {
            circuit: (gi.build)(program),
            n_ancilla: gi.n_ancilla,
        };
        match op {
            HighLevelOp::Gates(c) => GatePath::Raw(c),
            HighLevelOp::Classical(cm) => cm.gate_impl.as_ref().map_or(GatePath::None, built),
            HighLevelOp::Phase(po) => po.gate_impl.as_ref().map_or(GatePath::None, built),
            HighLevelOp::Rotation(ro) => ro.gate_impl.as_ref().map_or(
                GatePath::RotationExpansion {
                    x_bits: program.register(ro.x).len,
                },
                built,
            ),
            HighLevelOp::Qft(r) | HighLevelOp::InverseQft(r) => {
                GatePath::RegisterQft(qft_circuit(program.register(*r).len))
            }
            // QPE's gate-level path runs through `apply_qpe`, not a circuit.
            HighLevelOp::Qpe(_) => GatePath::None,
        }
    }

    /// The path's circuit on absolute program qubits, if it is one.
    fn absolute(&self) -> Option<&Circuit> {
        match self {
            GatePath::Raw(c) => Some(c),
            GatePath::Built { circuit, .. } => Some(circuit),
            _ => None,
        }
    }

    fn n_ancilla(&self) -> usize {
        match self {
            GatePath::Built { n_ancilla, .. } => *n_ancilla,
            _ => 0,
        }
    }
}

/// Everything about one op that pricing needs.
struct Candidates<'p> {
    op: &'p HighLevelOp,
    /// The policy's candidate set, in tie-breaking order.
    set: Vec<Backend>,
    path: GatePath<'p>,
    /// Whether the op's χ certificate covers the state it receives (see
    /// `certify_prefix`); without it the compressed candidate is not
    /// offered.
    offer_mps: bool,
}

/// What the walk prices every op against.
struct Pricing<'a> {
    program: &'a QuantumProgram,
    model: &'a CostModel,
    /// Fusion window fused candidates are priced (and their carried block
    /// streams built) with: the config's own greedy window if it has one,
    /// the default otherwise.
    window: usize,
}

/// A priced candidate: model seconds, plus the fused block stream if
/// pricing had to build one the plan can carry.
struct Priced {
    cost: f64,
    fused: Option<FusedCircuit>,
}

impl Pricing<'_> {
    /// Predicted cost of `cand.op` on `backend`, or `None` when the backend
    /// cannot run the op (no shortcut, no gate-level implementation, no
    /// χ certificate). The only caller of the [`CostModel`] `t_*` laws.
    /// Emulated ops run on the `2^n` program space.
    fn price(&self, cand: &Candidates<'_>, backend: Backend) -> Option<Priced> {
        let (model, program) = (self.model, self.program);
        let n_state = program.n_qubits();
        let cost = match (backend, cand.op) {
            (Backend::EmulateClassical, HighLevelOp::Classical(cm)) => {
                let k: usize = cm.regs.iter().map(|&r| program.register(r).len).sum();
                model.t_classical_emulated(n_state, k)
            }
            (Backend::EmulateClassical, HighLevelOp::Phase(_)) => model.t_oracle_emulated(n_state),
            (Backend::EmulateClassical, HighLevelOp::Rotation(_)) => {
                model.t_rotation_emulated(n_state)
            }
            (Backend::EmulateFft, HighLevelOp::Qft(r) | HighLevelOp::InverseQft(r)) => {
                model.t_qft_emulated(n_state, program.register(*r).len)
            }
            (_, HighLevelOp::Qpe(qpe)) => {
                // The gate-level path runs through `apply_qpe`, not the
                // fusion engine: one cost on every dense flavour, and no
                // compressed one.
                let strategy = match backend {
                    Backend::EmulateQpe { strategy } => strategy,
                    Backend::SimulateMps { .. } => return None,
                    b if b.is_simulate() => QpeStrategy::GateLevel,
                    _ => return None,
                };
                let m = program.register(qpe.target).len;
                let b = program.register(qpe.phase).len;
                model.t_qpe(n_state, m, qpe.unitary.gate_count().max(1), b, strategy)
            }
            (b, _) if b.is_simulate() => return self.price_gate_path(cand, b),
            _ => return None,
        };
        Some(Priced { cost, fused: None })
    }

    /// A gate path runs on the program space plus its own ancillas. A
    /// step with ancillas also pays one sweep of its wide state: the
    /// interpreter widens the state before it and checks the ancillas
    /// after it.
    fn price_gate_path(&self, cand: &Candidates<'_>, backend: Backend) -> Option<Priced> {
        let model = self.model;
        let n_anc = cand.path.n_ancilla();
        let n_sim = self.program.n_qubits() + n_anc;
        let widen = if n_anc > 0 {
            model.t_entries(1 << n_sim)
        } else {
            0.0
        };
        let c = match &cand.path {
            GatePath::None => return None,
            GatePath::RotationExpansion { x_bits } => {
                return (!matches!(backend, Backend::SimulateMps { .. })).then(|| Priced {
                    cost: model.t_rotation_simulated(n_sim, *x_bits),
                    fused: None,
                })
            }
            GatePath::Raw(c) => *c,
            GatePath::Built { circuit, .. } | GatePath::RegisterQft(circuit) => circuit,
        };
        let mut fused = None;
        let cost = match backend {
            Backend::SimulateGateLevel => model.t_gates(c.touched_entries(n_sim), c.gate_count()),
            // The fused estimate actually runs the fusion engine (matrix
            // compose + classify per block), which is why each flavour is
            // priced only when a candidate set asks for it. Only a raw
            // run's stream is kept for the plan, so only a raw run's price
            // drops the compile: every run of the plan applies the stream
            // as built here, while a built circuit is fused again per run.
            Backend::SimulateFused => {
                let fc = c.fuse(&FusionPolicy::Greedy {
                    max_fused_qubits: self.window,
                });
                let carried = matches!(cand.path, GatePath::Raw(_));
                let compiled = if carried { 0 } else { c.gate_count() };
                let t = model.t_gates_fused(fc.touched_entries(n_sim), compiled, fc.ops().len());
                fused = carried.then_some(fc);
                t
            }
            // Priced with the policy `SimConfig::segmented()` executes
            // with, traffic split into its streamed and in-cache terms.
            // The compiled `SegmentedCircuit` is not carried: execution
            // re-segments, paying the per-gate compile cost the model
            // includes. Each blocked segment and each full-state sweep op
            // launches one parallel region, so that is the dispatch count.
            Backend::SimulateSegmented { block_bits } => {
                let seg = segment_circuit(c, block_bits, &FusionPolicy::greedy());
                model.t_gates_segmented(
                    seg.streamed_entries(n_sim),
                    seg.incache_entries(n_sim),
                    c.gate_count(),
                    seg.blocked_segments() + seg.sweep_segments(),
                )
            }
            // The compressed candidate only exists when the χ-growth
            // estimate certifies the run fits under the cap: an inexact
            // estimate means execution *would* truncate and fall back to
            // a dense re-run anyway — pricing that as "cheap" would bias
            // the planner toward a path it can never take.
            Backend::SimulateMps { max_bond }
                if cand.offer_mps && cand.path.absolute().is_some() =>
            {
                let est = estimate_mps_cost(c, max_bond);
                if !est.exact {
                    return None;
                }
                model.t_gates_mps(est.units, n_sim)
            }
            _ => return None,
        };
        Some(Priced {
            cost: cost + widen,
            fused,
        })
    }
}

/// The χ certificate of an automatically offered compressed step must
/// cover the state the step *receives*: [`estimate_mps_cost`] assumes a
/// product-state input, which holds only while every earlier op was a raw
/// gate run whose entanglement the estimate can follow. So `prefix` holds
/// the concatenated gate runs so far, and the op is certified iff
/// `prefix ++ c` stays exact under the cap. The first op that is not a
/// certified gate run ends the prefix for good.
fn certify_prefix(
    prefix: &mut Option<Circuit>,
    op: &HighLevelOp,
    path: &GatePath<'_>,
    max_bond: usize,
) -> bool {
    let (Some(before), Some(circuit)) = (prefix.take(), path.absolute()) else {
        return false;
    };
    // Only a gate impl with ancillas is wider than the program's own runs.
    let mut joined = if before.n_qubits() >= circuit.n_qubits() {
        before
    } else {
        let mut widened = Circuit::new(circuit.n_qubits());
        widened.extend(&before);
        widened
    };
    joined.extend(circuit);
    let exact = estimate_mps_cost(&joined, max_bond).exact;
    if exact && matches!(op, HighLevelOp::Gates(_)) {
        *prefix = Some(joined);
    }
    exact
}

/// The one pass over the program: per op, build its candidate set, its
/// gate path (only when some candidate simulates) and its χ certificate,
/// price every candidate, keep the cheapest.
fn walk(pricing: &Pricing<'_>, config: &SimConfig, policy: Policy<'_>) -> Vec<PlanStep> {
    let (program, model) = (pricing.program, pricing.model);
    let mut mps_prefix = match (policy, config.mps) {
        (Policy::Cheapest, MpsPolicy::Auto { .. }) => Some(Circuit::new(program.n_qubits())),
        _ => None,
    };
    program
        .ops()
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let set = policy.candidates(program, op, model, config);
            let path = if set.iter().any(|b| b.is_simulate()) {
                GatePath::of(program, op)
            } else {
                GatePath::None
            };
            let offer_mps = match config.mps {
                MpsPolicy::Auto { max_bond } => {
                    certify_prefix(&mut mps_prefix, op, &path, max_bond)
                }
                MpsPolicy::Forced { .. } => true,
                MpsPolicy::Disabled => false,
            };
            let cand = Candidates {
                op,
                set,
                path,
                offer_mps,
            };
            // A fixed policy keeps an op its one backend cannot run, at
            // cost ∞; `Cheapest` always has a finite candidate.
            let (backend, priced) = cand
                .set
                .iter()
                .filter_map(|&b| pricing.price(&cand, b).map(|p| (b, p)))
                .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
                .unwrap_or((
                    cand.set[0],
                    Priced {
                        cost: f64::INFINITY,
                        fused: None,
                    },
                ));
            let n_ancilla = if backend.is_simulate() {
                cand.path.n_ancilla()
            } else {
                0
            };
            // QPE always runs through `apply_qpe`; express a simulated
            // winner as the explicit gate-level strategy.
            let backend = if matches!(op, HighLevelOp::Qpe(_)) && backend.is_simulate() {
                Backend::EmulateQpe {
                    strategy: QpeStrategy::GateLevel,
                }
            } else {
                backend
            };
            PlanStep {
                op_index: i,
                op: op_label(program, op),
                backend,
                predicted_s: priced.cost,
                n_ancilla,
                fused: priced.fused,
            }
        })
        .collect()
}

/// Lowers `program` to an [`ExecutionPlan`] in one walk: each op goes to
/// the cheapest backend, under `model`, among the candidates `policy`
/// allows it.
///
/// The plan is a function of the program's *structure*: what it reads from
/// closures (a gate impl's circuit) only prices a candidate and is dropped,
/// so the result serves every program of the same
/// [`structure_hash`](QuantumProgram::structure_hash).
///
/// Ops are priced independently. An emulated op runs on the `2^n`
/// program space; a gate path runs on `2^{n+a}`, `a` being its own work
/// qubits, and pays for widening the state and checking the ancillas.
/// No step's width depends on another step's choice.
pub fn plan(
    program: &QuantumProgram,
    model: &CostModel,
    config: &SimConfig,
    policy: Policy<'_>,
) -> ExecutionPlan {
    let window = match config.fusion {
        FusionPolicy::Greedy { max_fused_qubits } => max_fused_qubits,
        FusionPolicy::Disabled => DEFAULT_MAX_FUSED_QUBITS,
    };
    let pricing = Pricing {
        program,
        model,
        window,
    };
    ExecutionPlan {
        steps: walk(&pricing, config, policy),
        structure: program.structure_hash(),
    }
}

// ---------------------------------------------------------------------------
// The one run loop.
// ---------------------------------------------------------------------------

/// Executes [`ExecutionPlan`]s: the single run loop behind every
/// executor. Holds the knobs that are properties of the *runner* rather
/// than the plan: the gate-level [`SimConfig`] and whether circuits are
/// first decomposed to one- and two-qubit gates.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanInterpreter {
    /// Gate-level execution configuration (fusion policy) for
    /// [`Backend::SimulateFused`] steps.
    pub config: SimConfig,
    /// Decompose circuits into elementary one-/two-qubit gates before
    /// applying them (the paper-faithful cost model of Figs. 1–2).
    pub elementary: bool,
}

impl PlanInterpreter {
    /// Interpreter with a gate-level configuration.
    pub fn new(config: SimConfig) -> PlanInterpreter {
        PlanInterpreter {
            config,
            elementary: false,
        }
    }

    /// Runs `plan` over `program` from `initial`, returning the final
    /// state and the per-step audit report:
    /// [`PlanInterpreter::run_members`] for a lone program, entered and
    /// left by moving the amplitude `Vec`. Any program of the plan's
    /// structure will do — the plan holds nothing of the instance it was
    /// lowered from.
    pub fn execute(
        &self,
        program: &QuantumProgram,
        plan: &ExecutionPlan,
        initial: StateVector,
    ) -> Result<(StateVector, PlanReport), EmuError> {
        let members = std::slice::from_ref(program);
        let (state, report) =
            self.run_members(members, plan, BatchStateVector::from_single(initial))?;
        Ok((state.into_single(), report))
    }

    /// Runs `plan` over an ensemble: `members[j]` (programs or references
    /// to them) drives member `j` of `initial`. All members must share
    /// the plan's structure (qubit count and
    /// [`structure_hash`](QuantumProgram::structure_hash)); per-member
    /// variation flows through the closures the hash ignores.
    ///
    /// Each step takes one of two routes. Every step whose work is one
    /// kind of pass for all members runs **once on the batch-major
    /// buffer**: simulated raw gate runs and register QFTs (bit-identical
    /// circuits under an equal structure hash), emulated register QFTs and
    /// IQFTs (one FFT whose columns span the members), and the emulated
    /// closure-bearing ops — classical maps (one in-place pass per coset
    /// through each member's own permutation table), phase oracles (one
    /// masked pass over each member's own predicate table) and rotations
    /// (one pair sweep over each member's own angles). Only the steps
    /// whose work itself differs per member — QPE, and gate paths built
    /// from a member's closures — run **member by member** between one
    /// de-interleave and one re-interleave, which at one member are moves.
    ///
    /// A step with ancillas runs on a state widened for it, and a leak
    /// fails the run with [`EmuError::AncillaNotClean`] naming the step.
    pub fn run_members<P: Borrow<QuantumProgram>>(
        &self,
        members: &[P],
        plan: &ExecutionPlan,
        initial: BatchStateVector,
    ) -> Result<(BatchStateVector, PlanReport), EmuError> {
        let members: Vec<&QuantumProgram> = members.iter().map(Borrow::borrow).collect();
        let first = *members.first().ok_or_else(empty_ensemble)?;
        let n = first.n_qubits();
        for (j, m) in members.iter().enumerate() {
            if m.n_qubits() != n {
                return Err(EmuError::DimensionMismatch {
                    expected: n,
                    got: m.n_qubits(),
                });
            }
            if m.structure_hash() != first.structure_hash() {
                return Err(EmuError::PlanMismatch {
                    reason: format!(
                        "member {j} differs structurally from member 0; \
                         a batch must be structurally homogeneous"
                    ),
                });
            }
        }
        if initial.n_qubits() != n {
            return Err(EmuError::DimensionMismatch {
                expected: n,
                got: initial.n_qubits(),
            });
        }
        if initial.batch() != members.len() {
            return Err(EmuError::DimensionMismatch {
                expected: members.len(),
                got: initial.batch(),
            });
        }
        if plan.structure != first.structure_hash() {
            return Err(EmuError::PlanMismatch {
                reason: "plan was lowered from a structurally different program".into(),
            });
        }

        // Each step runs at its own width: the state widens for a step
        // with ancillas, which are checked right after it, and keeps that
        // width while the next step shares it.
        let mut state = initial;
        let mut steps = Vec::with_capacity(plan.steps.len());
        for (i, step) in plan.steps.iter().enumerate() {
            let t0 = Instant::now();
            state = with_width(state, n + step.n_ancilla);
            let shared;
            (state, shared) = self.run_step(state, &members, step)?;
            if step.n_ancilla > 0 {
                check_ancillas(&state, n, i)?;
            }
            steps.push(StepReport {
                op: step.op.clone(),
                backend: step.backend,
                predicted_s: step.predicted_s,
                measured_s: t0.elapsed().as_secs_f64(),
                batched: shared && members.len() > 1,
            });
        }
        if plan.n_ancilla() > 0 {
            state = truncate_ancillas(state, n);
        }
        Ok((
            state,
            PlanReport {
                batch: members.len(),
                steps,
            },
        ))
    }

    /// `SimConfig` a simulation step runs under: `SimulateFused` uses the
    /// interpreter's own fused config (or the default window if the
    /// interpreter is unfused); `SimulateSegmented` runs
    /// [`SimConfig::segmented`] at the block size the step was priced
    /// with; `SimulateGateLevel` is always unfused. `SimulateMps` maps to
    /// the default fused config — the *dense* configuration the step runs
    /// under when it cannot go compressed.
    fn step_config(&self, backend: Backend) -> SimConfig {
        match backend {
            Backend::SimulateFused => match self.config.fusion {
                FusionPolicy::Greedy { .. } => self.config,
                FusionPolicy::Disabled => SimConfig::fused(DEFAULT_MAX_FUSED_QUBITS),
            },
            Backend::SimulateSegmented { block_bits } => SimConfig {
                segments: SegmentPolicy::Blocked { block_bits },
                ..SimConfig::segmented()
            },
            Backend::SimulateMps { .. } => SimConfig::fused(DEFAULT_MAX_FUSED_QUBITS),
            Backend::SimulateGateLevel => SimConfig::unfused(),
            // Raw-gate steps on an emulated plan inherit the config.
            _ => self.config,
        }
    }

    fn lower<'c>(&self, c: &'c Circuit) -> Cow<'c, Circuit> {
        if self.elementary {
            Cow::Owned(qcemu_sim::decompose_circuit(c))
        } else {
            Cow::Borrowed(c)
        }
    }

    /// The fused block stream the planner priced, if the step (a raw gate
    /// run) carries one and this interpreter can apply it directly (fused
    /// backend, no elementary lowering).
    fn priced_stream<'s>(&self, step: &'s PlanStep) -> Option<&'s FusedCircuit> {
        let usable = step.backend == Backend::SimulateFused && !self.elementary;
        step.carried_stream().filter(|_| usable)
    }

    /// Attempts compressed execution of a [`Backend::SimulateMps`] step.
    /// Returns `false` (leaving `state` untouched) when the step is not
    /// an MPS step *or* when the run truncated: the planner only routes
    /// here when the χ-growth estimate certified an exact run, so a
    /// non-zero truncation error means the estimate was wrong for this
    /// incoming state — the caller then re-runs dense. A misprediction
    /// costs the wasted compressed attempt, never correctness.
    fn try_mps(&self, state: &mut StateVector, c: &Circuit, backend: Backend) -> bool {
        let Backend::SimulateMps { max_bond } = backend else {
            return false;
        };
        let mut mps = MpsState::from_statevector(state, max_bond);
        mps.run(&self.lower(c));
        if mps.truncation_error() > MPS_EXACT_TOL {
            return false;
        }
        mps.write_into(state);
        true
    }

    /// Runs one plan step over the whole ensemble. Returns the state and
    /// whether the step took the shared route (one pass on the
    /// batch-major buffer) rather than the per-member one.
    fn run_step(
        &self,
        mut state: BatchStateVector,
        members: &[&QuantumProgram],
        step: &PlanStep,
    ) -> Result<(BatchStateVector, bool), EmuError> {
        let first = members[0];
        let simulate = step.backend.is_simulate();
        let (n_state, batch) = (state.n_qubits(), state.batch());
        // Member `j`'s own instance of this step's op.
        let ops = || members.iter().map(|m| &m.ops()[step.op_index]);
        match &first.ops()[step.op_index] {
            HighLevelOp::Gates(c) => {
                if let Some(fused) = self.priced_stream(step) {
                    state.apply_fused_circuit(fused);
                    return Ok((state, true));
                }
                // A compressed step goes compressed iff the ensemble has
                // one member (there is no batched MPS form), and dense
                // whenever the truncation audit rejects the attempt.
                if let (Backend::SimulateMps { .. }, 1) = (step.backend, state.batch()) {
                    let mut solo = state.into_single();
                    let exact = self.try_mps(&mut solo, c, step.backend);
                    state = BatchStateVector::from_single(solo);
                    if exact {
                        return Ok((state, true));
                    }
                }
                state.run(&self.lower(c), &self.step_config(step.backend));
            }
            op @ (HighLevelOp::Qft(r) | HighLevelOp::InverseQft(r)) if simulate => {
                let bits = first.register(*r).bits();
                let relative = match op {
                    HighLevelOp::Qft(_) => qft_circuit(bits.len()),
                    _ => inverse_qft_circuit(bits.len()),
                };
                let c = relative.remap_qubits(n_state, |q| bits[q]);
                state.run(&self.lower(&c), &self.step_config(step.backend));
            }
            HighLevelOp::Rotation(_) if !simulate => {
                let ops: Vec<&RotationOp> = ops()
                    .map(|op| match op {
                        HighLevelOp::Rotation(op) => op,
                        _ => unreachable!("structure hash guarantees matching op kinds"),
                    })
                    .collect();
                apply_controlled_rotation_batch(&mut state, first, &ops);
            }
            HighLevelOp::Classical(_) if !simulate => {
                let maps: Vec<&ClassicalMap> = ops()
                    .map(|op| match op {
                        HighLevelOp::Classical(map) => map,
                        _ => unreachable!("structure hash guarantees matching op kinds"),
                    })
                    .collect();
                apply_classical_map_batch(&mut state, first, &maps)?;
            }
            HighLevelOp::Phase(_) if !simulate => {
                let oracles: Vec<&PhaseOracle> = ops()
                    .map(|op| match op {
                        HighLevelOp::Phase(oracle) => oracle,
                        _ => unreachable!("structure hash guarantees matching op kinds"),
                    })
                    .collect();
                apply_phase_oracle_batch(&mut state, first, &oracles);
            }
            HighLevelOp::Qft(r) => {
                let bits = first.register(*r).bits();
                qft_subspace_batch(state.amplitudes_mut(), n_state, batch, &bits);
            }
            HighLevelOp::InverseQft(r) => {
                let bits = first.register(*r).bits();
                inverse_qft_subspace_batch(state.amplitudes_mut(), n_state, batch, &bits);
            }
            _ => {
                let mut states = state.into_states();
                for (sv, &member) in states.iter_mut().zip(members) {
                    self.member_step(sv, member, step)?;
                }
                let state = match states.len() {
                    1 => BatchStateVector::from_single(states.pop().expect("one member")),
                    _ => BatchStateVector::from_states(&states),
                };
                return Ok((state, false));
            }
        }
        Ok((state, true))
    }

    /// Runs a per-member step — QPE, or a gate path built from closures —
    /// on one member's own state, from that member's own closures.
    fn member_step(
        &self,
        state: &mut StateVector,
        program: &QuantumProgram,
        step: &PlanStep,
    ) -> Result<(), EmuError> {
        let op = &program.ops()[step.op_index];
        if step.backend.is_simulate() {
            let c = gate_impl_circuit(program, op)?;
            if !self.try_mps(state, &c, step.backend) {
                state.run(&self.lower(&c), &self.step_config(step.backend));
            }
            return Ok(());
        }
        let HighLevelOp::Qpe(qpe) = op else {
            unreachable!("every other emulated op takes the shared route")
        };
        let strategy = match step.backend {
            Backend::EmulateQpe { strategy } => strategy,
            _ => QpeStrategy::GateLevel,
        };
        let target_bits = program.register(qpe.target).bits();
        let phase_bits = program.register(qpe.phase).bits();
        apply_qpe(state, qpe, &target_bits, &phase_bits, strategy)
    }
}

pub(crate) fn empty_ensemble() -> EmuError {
    EmuError::PlanMismatch {
        reason: "batch must contain at least one program".into(),
    }
}

/// The circuit a closure-bearing op lowers to on the gate path.
fn gate_impl_circuit(program: &QuantumProgram, op: &HighLevelOp) -> Result<Circuit, EmuError> {
    let (gate_impl, name) = match op {
        HighLevelOp::Classical(cm) => (&cm.gate_impl, &cm.name),
        HighLevelOp::Phase(po) => (&po.gate_impl, &po.name),
        HighLevelOp::Rotation(ro) => match &ro.gate_impl {
            None => return Ok(rotation_expansion_circuit(program, ro)),
            some => (some, &ro.name),
        },
        _ => unreachable!("structural circuits take the shared route"),
    };
    match gate_impl {
        Some(gi) => Ok((gi.build)(program)),
        None => Err(EmuError::NoGateImplementation { op: name.clone() }),
    }
}

/// Builds the generic per-value expansion of a register-controlled
/// rotation: for each x value, X-conjugate the zero bits and apply a
/// multi-controlled Ry — the exponential network the emulator avoids.
fn rotation_expansion_circuit(program: &QuantumProgram, ro: &RotationOp) -> Circuit {
    let x = program.register(ro.x);
    let target = program.register(ro.target).offset;
    let bits = x.bits();
    let mut c = Circuit::new(program.n_qubits());
    for value in 0..(1u64 << x.len) {
        let theta = (ro.angle)(value);
        if theta.abs() < 1e-15 {
            continue;
        }
        for (j, &q) in bits.iter().enumerate() {
            if (value >> j) & 1 == 0 {
                c.push(Gate::x(q));
            }
        }
        c.push(Gate::Unary {
            op: GateOp::Ry(theta),
            target,
            controls: bits.clone(),
        });
        for (j, &q) in bits.iter().enumerate().rev() {
            if (value >> j) & 1 == 0 {
                c.push(Gate::x(q));
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::stdops;

    fn model() -> CostModel {
        CostModel::default()
    }

    fn simulated(p: &QuantumProgram, m: &CostModel, c: &SimConfig) -> ExecutionPlan {
        plan(p, m, c, Policy::Simulate)
    }

    fn cheapest(p: &QuantumProgram, m: &CostModel, c: &SimConfig) -> ExecutionPlan {
        plan(p, m, c, Policy::Cheapest)
    }

    fn emulated(
        p: &QuantumProgram,
        m: &CostModel,
        c: &SimConfig,
        choose_qpe: impl Fn(usize) -> Option<QpeStrategy>,
    ) -> ExecutionPlan {
        let choose_qpe = &choose_qpe;
        plan(p, m, c, Policy::Emulate { choose_qpe })
    }

    /// Mixed program: superposed multiply, a raw gate run, a QFT.
    fn mixed_program(m: usize) -> QuantumProgram {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", m);
        let b = pb.register("b", m);
        let c = pb.register("c", m);
        pb.hadamard_all(a);
        pb.set_constant(b, 3);
        pb.classical(stdops::multiply(a, b, c, m));
        pb.qft(c);
        pb.build().unwrap()
    }

    #[test]
    fn compressed_gate_run_under_ancilla_head_room_matches_emulation() {
        let prog = mixed_program(3);
        let is_mps = |step: &PlanStep| matches!(step.backend, Backend::SimulateMps { .. });
        // A machine on which table passes crawl and every dense sweep is
        // slow: the multiplier goes compressed at its own width, one qubit
        // wider than the compressed prelude before it and the dense QFT
        // after it.
        let crawling = CostModel {
            table_rate: 1.0,
            fused_entry_rate: 1.0,
            cache_rate: 1.0,
            mps_rate: 1e15,
            ..model()
        };
        let plan = cheapest(&prog, &crawling, &SimConfig::default());
        let widths: Vec<(bool, usize)> = plan
            .steps()
            .iter()
            .map(|s| (is_mps(s), s.n_ancilla))
            .collect();
        assert_eq!(
            widths,
            [(true, 0), (false, 0), (true, 1), (false, 0)],
            "{plan}"
        );
        let reference = emulated(&prog, &model(), &SimConfig::unfused(), |_| None);
        for initial in [
            StateVector::zero_state(prog.n_qubits()),
            StateVector::basis_state(prog.n_qubits(), 0b101_000_011),
        ] {
            let (want, _) = PlanInterpreter::default()
                .execute(&prog, &reference, initial.clone())
                .unwrap();
            let (got, _) = PlanInterpreter::default()
                .execute(&prog, &plan, initial)
                .unwrap();
            assert_eq!(got.n_qubits(), prog.n_qubits());
            assert!(got.max_diff_up_to_phase(&want) < 1e-10);
        }
    }

    #[test]
    fn emulated_plan_uses_shortcuts_everywhere() {
        let prog = mixed_program(3);
        let plan = emulated(&prog, &model(), &SimConfig::unfused(), |_| None);
        assert_eq!(plan.steps().len(), prog.ops().len());
        assert_eq!(plan.n_ancilla(), 0);
        assert_eq!(plan.steps()[2].backend, Backend::EmulateClassical);
        assert_eq!(plan.steps()[3].backend, Backend::EmulateFft);
        // Raw gate preludes stay on the gate path.
        assert!(plan.steps()[0].backend.is_simulate());
    }

    #[test]
    fn simulated_plan_reserves_ancillas_and_uses_gates() {
        let prog = mixed_program(3);
        let plan = simulated(&prog, &model(), &SimConfig::unfused());
        assert_eq!(plan.n_ancilla(), 1); // multiplier ancilla
        let widths: Vec<usize> = plan.steps().iter().map(|s| s.n_ancilla).collect();
        assert_eq!(widths, [0, 0, 1, 0], "only the multiplier's step is wide");
        assert!(plan.steps().iter().all(|s| s.backend.is_simulate()));
        let fused = simulated(&prog, &model(), &SimConfig::fused(4));
        assert!(fused
            .steps()
            .iter()
            .all(|s| s.backend == Backend::SimulateFused));
    }

    #[test]
    fn hybrid_plan_dispatches_per_op() {
        let prog = mixed_program(3);
        let plan = cheapest(&prog, &model(), &SimConfig::fused(4));
        // The classical map always beats its Toffoli network.
        assert_eq!(plan.steps()[2].backend, Backend::EmulateClassical);
        // Raw gates have no shortcut.
        assert!(plan.steps()[0].backend.is_simulate());
        // Costs are finite and the report machinery sums them.
        assert!(plan.total_predicted_s().is_finite());
    }

    #[test]
    fn hybrid_avoids_ancilla_headroom_when_emulation_wins() {
        // The only ancilla-bearing op is the multiply; the hybrid plan
        // emulates it, so no head-room is reserved and the whole run
        // stays in the 2^n program space.
        let prog = mixed_program(3);
        let plan = cheapest(&prog, &model(), &SimConfig::fused(4));
        assert_eq!(plan.n_ancilla(), 0);
    }

    #[test]
    fn hybrid_prefers_fft_for_qft_at_every_register_width() {
        let mut pb = ProgramBuilder::new();
        let wide = pb.register("wide", 16);
        pb.qft(wide);
        let prog = pb.build().unwrap();
        let plan = cheapest(&prog, &model(), &SimConfig::fused(4));
        assert_eq!(
            plan.steps()[0].backend,
            Backend::EmulateFft,
            "two FFT passes beat ~16²/2 gate sweeps"
        );

        // A 2-bit QFT is 3 gates that fuse into one blocked sweep — and
        // one in-register radix-4 sweep as an FFT, with nothing to
        // compile: the shortcut no longer loses on narrow registers.
        let mut pb = ProgramBuilder::new();
        let narrow = pb.register("narrow", 2);
        let _pad = pb.register("pad", 14);
        pb.qft(narrow);
        let prog = pb.build().unwrap();
        let plan = cheapest(&prog, &model(), &SimConfig::fused(4));
        assert_eq!(plan.steps()[0].backend, Backend::EmulateFft);
        let fused = simulated(&prog, &model(), &SimConfig::fused(4)).steps()[0].predicted_s;
        assert!(
            fused < 1.1 * plan.steps()[0].predicted_s,
            "…but by a sweep's rounding error, not by a sweep"
        );
    }

    #[test]
    fn hybrid_routes_cache_resident_qft_gates_to_segments() {
        // PR 5's ablation found greedy fusion *losing* on cache-resident
        // QFTs; the segmented tier wins that regime by replaying every
        // compatible gate against resident blocks. A raw QFT gate run
        // (no FFT shortcut available for raw gates) must now lower to
        // the segment executor, and its predicted cost must not regress
        // against plain unfused sweeps.
        let n = 16;
        let mut pb = ProgramBuilder::new();
        let _r = pb.register("r", n);
        pb.gates(|c| c.extend(&qft_circuit(n)));
        let prog = pb.build().unwrap();
        let m = model();
        let plan = cheapest(&prog, &m, &SimConfig::fused(4));
        assert!(
            matches!(plan.steps()[0].backend, Backend::SimulateSegmented { .. }),
            "cache-resident QFT must pick the segment tier, got {}",
            plan.steps()[0].backend
        );
        let unfused = simulated(&prog, &m, &SimConfig::unfused()).steps()[0].predicted_s;
        assert!(
            plan.steps()[0].predicted_s <= unfused,
            "segmented {} must not regress vs unfused {}",
            plan.steps()[0].predicted_s,
            unfused
        );

        // And the interpreter actually runs the segmented plan to the
        // same state the unfused path produces.
        let initial = StateVector::uniform_superposition(n);
        let (seg_state, report) = PlanInterpreter::default()
            .execute(&prog, &plan, initial.clone())
            .unwrap();
        let mut reference = initial;
        reference.run(&qft_circuit(n), &SimConfig::unfused());
        assert!(seg_state.max_diff_up_to_phase(&reference) < 1e-10);
        assert!(matches!(
            report.steps[0].backend,
            Backend::SimulateSegmented { .. }
        ));
    }

    #[test]
    fn segmented_config_drives_fixed_plans() {
        // A segment-policy interpreter config flips every raw-gate step
        // of the fixed plans onto the segment backend.
        let prog = mixed_program(3);
        let plan = simulated(&prog, &model(), &SimConfig::segmented());
        assert!(matches!(
            plan.steps()[0].backend,
            Backend::SimulateSegmented { .. }
        ));
        assert!(plan.steps()[0].predicted_s.is_finite());
        let emu = emulated(&prog, &model(), &SimConfig::segmented(), |_| None);
        assert!(matches!(
            emu.steps()[0].backend,
            Backend::SimulateSegmented { .. }
        ));
    }

    /// Deep, low-entanglement raw gate run: one CNOT chain (χ = 2) under
    /// many single-qubit layers. Dense backends pay Θ(depth·2ⁿ); the
    /// compressed backend pays O(depth·χ³) plus one 2ⁿ boundary
    /// densification, so at this depth it must win the hybrid auction.
    fn low_entanglement_program(n: usize, layers: usize) -> QuantumProgram {
        let mut pb = ProgramBuilder::new();
        let _r = pb.register("r", n);
        pb.gates(move |c| {
            c.h(0);
            for q in 0..n - 1 {
                c.cnot(q, q + 1);
            }
            for layer in 0..layers {
                for q in 0..n {
                    if layer % 2 == 0 {
                        c.rz(q, 0.11 + 0.01 * (layer + q) as f64);
                    } else {
                        c.rx(q, 0.07 + 0.01 * (layer + q) as f64);
                    }
                }
            }
        });
        pb.build().unwrap()
    }

    #[test]
    fn hybrid_routes_deep_low_entanglement_gates_to_mps_and_executes_exactly() {
        let n = 14;
        let prog = low_entanglement_program(n, 80);
        let m = model();
        let plan = cheapest(&prog, &m, &SimConfig::fused(4));
        assert!(
            matches!(plan.steps()[0].backend, Backend::SimulateMps { .. }),
            "deep χ=2 chain must pick the compressed tier, got {}",
            plan.steps()[0].backend
        );
        // The hybrid choice must not be slower than either fixed dense plan.
        for fixed in [
            simulated(&prog, &m, &SimConfig::fused(4)),
            simulated(&prog, &m, &SimConfig::segmented()),
            simulated(&prog, &m, &SimConfig::unfused()),
        ] {
            assert!(
                plan.steps()[0].predicted_s <= fixed.steps()[0].predicted_s,
                "hybrid {} slower than fixed {} ({})",
                plan.steps()[0].predicted_s,
                fixed.steps()[0].backend,
                fixed.steps()[0].predicted_s
            );
        }

        // And the compressed execution reproduces the dense state exactly.
        let initial = StateVector::zero_state(n);
        let (mps_state, report) = PlanInterpreter::default()
            .execute(&prog, &plan, initial.clone())
            .unwrap();
        assert!(matches!(
            report.steps[0].backend,
            Backend::SimulateMps { .. }
        ));
        let reference_plan = simulated(&prog, &m, &SimConfig::unfused());
        let (dense_state, _) = PlanInterpreter::default()
            .execute(&prog, &reference_plan, initial)
            .unwrap();
        assert!(mps_state.max_diff_up_to_phase(&dense_state) < 1e-10);

        // The certificate forced wrong: it assumes a product-state input,
        // so a volume-law `initial` makes the compressed attempt truncate.
        // The audit must discard it and re-run dense from the untouched
        // state.
        use rand::{rngs::StdRng, SeedableRng};
        let entangled = StateVector::from_amplitudes(qcemu_linalg::random_state(
            1 << n,
            &mut StdRng::seed_from_u64(7),
        ));
        let (fallback, report) = PlanInterpreter::default()
            .execute(&prog, &plan, entangled.clone())
            .unwrap();
        assert!(matches!(
            report.steps[0].backend,
            Backend::SimulateMps { .. }
        ));
        let (reference, _) = PlanInterpreter::default()
            .execute(&prog, &reference_plan, entangled)
            .unwrap();
        assert!(fallback.max_diff_up_to_phase(&reference) < 1e-10);
    }

    #[test]
    fn auto_mps_needs_a_certified_all_gates_prefix() {
        let chain = |c: &mut Circuit, n: usize| {
            c.h(0);
            for q in 0..n - 1 {
                c.cnot(q, q + 1);
            }
            for layer in 0..80 {
                for q in 0..n {
                    c.rz(q, 0.11 + 0.01 * (layer + q) as f64);
                }
            }
        };
        let is_mps = |step: &PlanStep| matches!(step.backend, Backend::SimulateMps { .. });

        // H-layer, multiply, chain: the chain alone is certified, but it
        // receives whatever the multiply left, which the χ estimate cannot
        // follow — it must stay dense, like every later step.
        let m = 4;
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", m);
        let b = pb.register("b", m);
        let c = pb.register("c", m);
        pb.hadamard_all(a);
        pb.classical(stdops::multiply(a, b, c, m));
        pb.gates(|circuit| chain(circuit, 3 * m));
        let prog = pb.build().unwrap();
        let plan = cheapest(&prog, &model(), &SimConfig::fused(4));
        assert!(!is_mps(&plan.steps()[2]), "got {}", plan.steps()[2].backend);
        // Forcing the policy is unchanged: the fixed plan still offers it.
        let forced = simulated(&prog, &model(), &SimConfig::mps(64));
        assert!(is_mps(&forced.steps()[2]) && forced.steps()[2].predicted_s.is_finite());

        // H, H, deep chain: a prefix of raw gate runs the estimate can
        // follow keeps the candidate, at the price of the step alone.
        let n = 14;
        let mut pb = ProgramBuilder::new();
        let lo = pb.register("lo", n / 2);
        let hi = pb.register("hi", n / 2);
        pb.hadamard_all(lo);
        pb.hadamard_all(hi);
        pb.gates(|circuit| chain(circuit, n));
        let prog = pb.build().unwrap();
        let plan = cheapest(&prog, &model(), &SimConfig::fused(4));
        assert!(is_mps(&plan.steps()[2]), "got {}", plan.steps()[2].backend);
        let mut pb = ProgramBuilder::new();
        let _r = pb.register("r", n);
        pb.gates(|circuit| chain(circuit, n));
        let alone = cheapest(&pb.build().unwrap(), &model(), &SimConfig::fused(4));
        assert_eq!(plan.steps()[2].predicted_s, alone.steps()[0].predicted_s);

        // A prefix that is itself too entangled for the cap ends the offer.
        let mut pb = ProgramBuilder::new();
        let _r = pb.register("r", n);
        pb.gates(|circuit| circuit.extend(&qft_circuit(n)));
        pb.gates(|circuit| chain(circuit, n));
        let plan = cheapest(&pb.build().unwrap(), &model(), &SimConfig::fused(4));
        assert!(!is_mps(&plan.steps()[1]), "got {}", plan.steps()[1].backend);
    }

    #[test]
    fn forced_mps_config_drives_fixed_plans() {
        // A forced MPS policy flips every raw-gate step of the fixed
        // plans onto the compressed backend, carrying the configured cap.
        // The second program's run is built before its last register is,
        // so the run is narrower than the state it acts on.
        let mut pb = ProgramBuilder::new();
        let _lo = pb.register("lo", 6);
        pb.gates(|c| {
            c.h(0).cnot(0, 1).rz(1, 0.4).cnot(1, 5);
        });
        let _hi = pb.register("hi", 2);
        for prog in [low_entanglement_program(8, 4), pb.build().unwrap()] {
            let plan = simulated(&prog, &model(), &SimConfig::mps(32));
            assert!(matches!(
                plan.steps()[0].backend,
                Backend::SimulateMps { max_bond: 32 }
            ));
            assert!(plan.steps()[0].predicted_s.is_finite());
            let initial = StateVector::zero_state(8);
            let (state, _) = PlanInterpreter::default()
                .execute(&prog, &plan, initial.clone())
                .unwrap();
            let reference_plan = simulated(&prog, &model(), &SimConfig::unfused());
            let (dense_state, _) = PlanInterpreter::default()
                .execute(&prog, &reference_plan, initial)
                .unwrap();
            assert!(state.max_diff_up_to_phase(&dense_state) < 1e-10);
        }
    }

    #[test]
    fn forced_mps_on_entangling_circuit_falls_back_dense_correct() {
        // χ = 2 cannot hold a QFT: the χ-growth estimate is inexact, so
        // the step prices to ∞, and at execution time the truncation
        // audit rejects the compressed attempt — the interpreter must
        // re-run dense from the untouched input state, bit-exact.
        let n = 6;
        let mut pb = ProgramBuilder::new();
        let _r = pb.register("r", n);
        pb.gates(move |c| c.extend(&qft_circuit(n)));
        let prog = pb.build().unwrap();
        let plan = simulated(&prog, &model(), &SimConfig::mps(2));
        assert!(matches!(
            plan.steps()[0].backend,
            Backend::SimulateMps { max_bond: 2 }
        ));
        assert!(
            plan.steps()[0].predicted_s.is_infinite(),
            "an uncertified compressed path must never price as viable"
        );
        let initial = StateVector::uniform_superposition(n);
        let (state, _) = PlanInterpreter::default()
            .execute(&prog, &plan, initial.clone())
            .unwrap();
        let mut reference = initial;
        reference.run(&qft_circuit(n), &SimConfig::unfused());
        assert!(state.max_diff_up_to_phase(&reference) < 1e-10);
    }

    #[test]
    fn emulation_only_ops_plan_to_emulation_with_infinite_sim_cost() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 3);
        pb.classical(stdops::apply_classical_fn("xor3", vec![a], |v| v[0] ^= 3));
        let prog = pb.build().unwrap();
        let hybrid = cheapest(&prog, &model(), &SimConfig::fused(4));
        assert_eq!(hybrid.steps()[0].backend, Backend::EmulateClassical);
        let sim = simulated(&prog, &model(), &SimConfig::unfused());
        assert!(sim.steps()[0].predicted_s.is_infinite());
    }

    #[test]
    fn interpreter_matches_legacy_paths_on_mixed_program() {
        let prog = mixed_program(2);
        let initial = StateVector::zero_state(prog.n_qubits());
        let m = model();
        let emu_plan = emulated(&prog, &m, &SimConfig::unfused(), |_| None);
        let sim_plan = simulated(&prog, &m, &SimConfig::unfused());
        let hyb_plan = cheapest(&prog, &m, &SimConfig::fused(4));
        let interp = PlanInterpreter::default();
        let (emu, _) = interp.execute(&prog, &emu_plan, initial.clone()).unwrap();
        let (sim, _) = interp.execute(&prog, &sim_plan, initial.clone()).unwrap();
        let (hyb, report) = interp.execute(&prog, &hyb_plan, initial).unwrap();
        assert!(emu.max_diff_up_to_phase(&sim) < 1e-10);
        assert!(emu.max_diff_up_to_phase(&hyb) < 1e-10);
        assert_eq!(report.steps.len(), prog.ops().len());
        assert!(report.total_measured_s() > 0.0);
        // The report renders; a solo run has no route column.
        let table = report.to_string();
        assert!(table.contains("backend"), "{table}");
        assert!(!table.contains("route") && report.batch == 1, "{table}");
    }

    #[test]
    fn ancilla_helpers_roundtrip_and_catch_leaks() {
        let sv = StateVector::basis_state(2, 0b10);
        let extended = with_width(BatchStateVector::from_single(sv.clone()), 4);
        assert_eq!(extended.n_qubits(), 4);
        assert_eq!(extended.member(0).probability(0b10), 1.0);
        assert!(check_ancillas(&extended, 2, 0).is_ok());
        // Narrowing keeps the wide capacity; only the run's end returns it.
        let narrowed = with_width(extended, 3);
        assert_eq!(narrowed.n_qubits(), 3);
        assert!(narrowed.amplitudes().len() == 8);
        let back = truncate_ancillas(narrowed, 2).into_single();
        assert!(back.max_diff_up_to_phase(&sv) < 1e-15);

        // A state with weight on an ancilla must be rejected, naming the
        // step that left it.
        let dirty = StateVector::basis_state(3, 0b100);
        assert!(matches!(
            check_ancillas(&BatchStateVector::from_single(dirty.clone()), 2, 4),
            Err(EmuError::AncillaNotClean { step: 4, .. })
        ));

        // The same on a three-member ensemble: the ancillas are the top
        // qubits of every member, and one dirty member is enough.
        let members = [sv.clone(), StateVector::basis_state(2, 0b01), sv];
        let extended = with_width(BatchStateVector::from_states(&members), 3);
        assert_eq!((extended.n_qubits(), extended.batch()), (3, 3));
        assert!(check_ancillas(&extended, 2, 0).is_ok());
        let back = truncate_ancillas(extended, 2);
        assert_eq!(back.to_states(), members);
        let mut one_dirty = BatchStateVector::zero_state(3, 3);
        one_dirty.set_member(1, &dirty);
        assert!(matches!(
            check_ancillas(&one_dirty, 2, 1),
            Err(EmuError::AncillaNotClean { step: 1, .. })
        ));
    }

    #[test]
    fn ancilla_steps_of_different_widths_each_run_at_their_own() {
        // `add` (1 ancilla) and `divide` (3) around a raw gate run: the
        // state is n, n + 1, n, n + 3 qubits wide in turn.
        let m = 3;
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", m);
        let b = pb.register("b", m);
        let q = pb.register("q", m);
        let r = pb.register("r", m);
        pb.hadamard_all(a);
        pb.set_constant(b, 3);
        pb.classical(stdops::add(b, a, m));
        pb.gates(|c| {
            c.h(0).cnot(0, 1).rz(1, 0.3).h(2).cnot(2, 0).rz(0, 0.7);
        });
        pb.classical(stdops::divide(a, b, q, r, m));
        let prog = pb.build().unwrap();
        let n = prog.n_qubits();
        let config = SimConfig::fused(4);
        let sim = simulated(&prog, &model(), &config);
        let emu = emulated(&prog, &model(), &config, |_| None);
        let widths: Vec<usize> = sim.steps().iter().map(|s| s.n_ancilla).collect();
        assert_eq!(widths, [0, 0, 1, 0, 3]);
        assert_eq!(sim.n_ancilla(), 3);
        // The raw run pays for no other step's ancillas.
        assert_eq!(sim.steps()[3].predicted_s, emu.steps()[3].predicted_s);

        let interp = PlanInterpreter::new(config);
        for batch in [1usize, 3] {
            let members = vec![&prog; batch];
            let initial: Vec<StateVector> =
                (0..batch).map(|j| StateVector::basis_state(n, j)).collect();
            for threads in [1usize, 2] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                pool.install(|| {
                    let (got, _) = interp
                        .run_members(&members, &sim, BatchStateVector::from_states(&initial))
                        .unwrap();
                    assert_eq!(got.n_qubits(), n);
                    for (j, start) in initial.iter().enumerate() {
                        let (want, _) = interp.execute(&prog, &emu, start.clone()).unwrap();
                        let diff = got.member(j).max_diff_up_to_phase(&want);
                        assert!(diff < 1e-10, "B = {batch}, member {j}: {diff:.3e}");
                    }
                });
            }
        }
    }

    #[test]
    fn mismatched_plan_and_program_are_rejected() {
        let prog_a = mixed_program(2);
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", prog_a.n_qubits());
        pb.qft(a);
        let prog_b = pb.build().unwrap();
        let plan = cheapest(&prog_a, &model(), &SimConfig::fused(4));
        let err = PlanInterpreter::default()
            .execute(&prog_b, &plan, StateVector::zero_state(prog_b.n_qubits()))
            .unwrap_err();
        assert!(matches!(err, EmuError::PlanMismatch { .. }), "{err}");
    }

    #[test]
    fn a_simulated_plan_runs_every_program_of_its_structure_from_its_own_closures() {
        // `b ^= k` simulated through its X network: every `k` is one
        // structure, and the QFT turns `k` into phases.
        let member = |k: u64| {
            let mut pb = ProgramBuilder::new();
            let a = pb.register("a", 2);
            let b = pb.register("b", 3);
            pb.hadamard_all(a);
            pb.classical(stdops::xor_constant(b, k));
            pb.qft(b);
            pb.build().unwrap()
        };
        let (prog_a, prog_b) = (member(5), member(3));
        assert_eq!(prog_a.structure_hash(), prog_b.structure_hash());
        let config = SimConfig::fused(4);
        let plan_a = simulated(&prog_a, &model(), &config);
        assert!(plan_a.steps().iter().all(|s| s.backend.is_simulate()));
        let interp = PlanInterpreter::new(config);
        let initial = StateVector::zero_state(prog_a.n_qubits());
        for threads in [1usize, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let (on_b, _) = interp.execute(&prog_b, &plan_a, initial.clone()).unwrap();
                let own = simulated(&prog_b, &model(), &config);
                let (reference, _) = interp.execute(&prog_b, &own, initial.clone()).unwrap();
                assert!(on_b.max_diff_up_to_phase(&reference) < 1e-12);
                let (on_a, _) = interp.execute(&prog_a, &plan_a, initial.clone()).unwrap();
                assert!(on_a.max_diff_up_to_phase(&on_b) > 1e-2, "k must matter");
            });
        }
    }

    #[test]
    fn a_gate_impl_is_built_once_per_plan_however_many_walks() {
        use crate::program::{ClassicalMap, GateImpl, MapKind};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        // One X through an ancilla-bearing gate impl, priced on every
        // gate-level candidate of the hybrid policy.
        let builds = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&builds);
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 10);
        pb.hadamard_all(a);
        pb.classical(ClassicalMap {
            name: "flip0".into(),
            regs: vec![a],
            f: Arc::new(|v| v[0] ^= 1),
            kind: MapKind::InPlaceBijection,
            gate_impl: Some(GateImpl {
                n_ancilla: 1,
                build: Arc::new(move |p| {
                    counted.fetch_add(1, Ordering::Relaxed);
                    let mut c = Circuit::new(p.n_qubits() + 1);
                    c.push(Gate::x(0));
                    c
                }),
            }),
        });
        let prog = pb.build().unwrap();
        let before = builds.load(Ordering::Relaxed);
        let plan = cheapest(&prog, &model(), &SimConfig::fused(4));
        assert!(plan.steps()[1].backend.is_simulate(), "{plan}");
        assert_eq!(builds.load(Ordering::Relaxed) - before, 1);
    }

    #[test]
    fn a_fused_step_is_charged_the_compile_only_when_a_run_pays_it() {
        use crate::program::{ClassicalMap, GateImpl, MapKind};
        use std::sync::Arc;
        // The same 3-gate body as a raw run (plan carries its stream)
        // and as a gate impl with an ancilla (execution fuses it again).
        let body = |n: usize| {
            let mut c = Circuit::new(n);
            c.h(0).cnot(0, 1).rz(1, 0.3);
            c
        };
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 6);
        pb.gates(|c| *c = body(6));
        pb.classical(ClassicalMap {
            name: "body".into(),
            regs: vec![a],
            f: Arc::new(|_| {}),
            kind: MapKind::InPlaceBijection,
            gate_impl: Some(GateImpl {
                n_ancilla: 1,
                build: Arc::new(move |p| body(p.n_qubits() + 1)),
            }),
        });
        let prog = pb.build().unwrap();
        let m = model();
        let plan = simulated(&prog, &m, &SimConfig::fused(4));
        assert_eq!(plan.n_ancilla(), 1, "{plan}");
        let window = FusionPolicy::Greedy {
            max_fused_qubits: 4,
        };
        let (raw, built) = (&plan.steps()[0], &plan.steps()[1]);
        assert_eq!(raw.backend, Backend::SimulateFused);
        assert_eq!(built.backend, Backend::SimulateFused);
        // The raw run sweeps the 6-qubit program space; the built
        // circuit sweeps 7 qubits and pays one more sweep to widen the
        // state and check its ancilla.
        let fc = body(6).fuse(&window);
        assert_eq!(
            raw.predicted_s,
            m.t_gates_fused(fc.touched_entries(6), 0, fc.ops().len())
        );
        assert!(raw.carried_stream().is_some());
        let fc = body(7).fuse(&window);
        assert_eq!(
            built.predicted_s,
            m.t_gates_fused(fc.touched_entries(7), 3, fc.ops().len()) + m.t_entries(1 << 7)
        );
        assert!(built.carried_stream().is_none());
    }

    #[test]
    fn plan_display_lists_every_step() {
        let prog = mixed_program(2);
        let plan = cheapest(&prog, &model(), &SimConfig::fused(4));
        let rendered = plan.to_string();
        for step in plan.steps() {
            assert!(rendered.contains(&step.op), "missing {}", step.op);
        }
    }
}
