//! Program executors: thin front-ends over the execution planner.
//!
//! All three executors lower a [`QuantumProgram`] to an
//! [`ExecutionPlan`] through the one lowering walk
//! ([`crate::planner::plan`]) and hand it to the **single** run loop
//! ([`crate::planner::PlanInterpreter`]); they differ only in the
//! candidate [`Policy`] they pass:
//!
//! * [`GateLevelSimulator`] — [`Policy::Simulate`]: every op becomes
//!   elementary gates, ancillas and all (the paper's baseline);
//! * [`Emulator`] — [`Policy::Emulate`]: each op runs at its
//!   mathematical level (paper §3);
//! * [`HybridExecutor`] — [`Policy::Cheapest`]: each op runs on
//!   whichever backend the generalized [`CostModel`] predicts is
//!   cheapest, and [`HybridExecutor::run_with_report`] returns the
//!   per-op audit trail.
//!
//! A plan is a function of the program's structure, the cost model and
//! the config — it holds nothing built from a closure — so the
//! [`HybridExecutor`] memoises it by
//! [`structure_hash`](QuantumProgram::structure_hash) alone: the same
//! rule [`crate::batch::BatchExecutor`] and the daemon follow.

use crate::crossover::{CostModel, QpeTimings};
use crate::error::EmuError;
use crate::plancache::SharedPlanCache;
use crate::planner::{plan, ExecutionPlan, PlanInterpreter, PlanReport, Policy};
use crate::program::QuantumProgram;
use crate::qpe::QpeStrategy;
use qcemu_sim::{SimConfig, StateVector};
use std::sync::Arc;

/// Common interface of the execution back-ends.
pub trait Executor {
    /// Runs the program on an initial state of `program.n_qubits()` qubits.
    fn run(&self, program: &QuantumProgram, initial: StateVector) -> Result<StateVector, EmuError>;

    /// Back-end name (for reports).
    fn name(&self) -> &'static str;
}

/// The gate-level simulator: every op becomes elementary gates.
#[derive(Clone, Copy, Debug, Default)]
pub struct GateLevelSimulator {
    /// Lower every circuit to one- and two-qubit gates first (paper §2:
    /// hardware-targeting compilers emit {1q, CNOT}; multi-controlled
    /// Toffolis then cost ~10-30 elementary gates each). Off by default —
    /// the multi-control kernels are faster and state-equivalent.
    pub elementary_gates: bool,
    /// State-vector execution configuration (gate-fusion policy). The
    /// default keeps fusion off so this executor stays bitwise identical
    /// to gate-by-gate application; [`GateLevelSimulator::fused`] opts in.
    pub config: SimConfig,
}

impl GateLevelSimulator {
    /// Creates the simulator (native multi-controlled kernels).
    pub fn new() -> GateLevelSimulator {
        GateLevelSimulator::default()
    }

    /// Creates the paper-faithful variant that first decomposes every
    /// circuit into one- and two-qubit gates (the cost model of Figs. 1-2).
    pub fn elementary() -> GateLevelSimulator {
        GateLevelSimulator {
            elementary_gates: true,
            ..GateLevelSimulator::default()
        }
    }

    /// Creates the simulator with greedy gate fusion at the default block
    /// width — circuits are merged into cache-blocked multi-qubit sweeps
    /// (`qcemu_sim::fusion`, `docs/PERFORMANCE.md`).
    pub fn fused() -> GateLevelSimulator {
        GateLevelSimulator::default()
            .with_config(SimConfig::fused(qcemu_sim::DEFAULT_MAX_FUSED_QUBITS))
    }

    /// Replaces the execution configuration.
    pub fn with_config(mut self, config: SimConfig) -> GateLevelSimulator {
        self.config = config;
        self
    }

    /// The fixed all-gates plan this executor runs.
    pub fn plan(&self, program: &QuantumProgram) -> ExecutionPlan {
        plan(
            program,
            &CostModel::default(),
            &self.config,
            Policy::Simulate,
        )
    }

    fn interpreter(&self) -> PlanInterpreter {
        PlanInterpreter {
            config: self.config,
            elementary: self.elementary_gates,
        }
    }
}

impl Executor for GateLevelSimulator {
    fn run(&self, program: &QuantumProgram, initial: StateVector) -> Result<StateVector, EmuError> {
        self.interpreter()
            .execute(program, &self.plan(program), initial)
            .map(|(state, _)| state)
    }

    fn name(&self) -> &'static str {
        "gate-level simulator"
    }
}

/// The emulator: each op runs at its mathematical level (paper §3).
#[derive(Clone, Copy, Debug, Default)]
pub struct Emulator {
    /// QPE strategy; `None` = decide per op: by the crossover advisor
    /// when measured [`QpeTimings`] are given through
    /// [`Emulator::with_timings`], otherwise the cheaper dense strategy
    /// under [`CostModel::default`]'s `t_qpe` — the comparison
    /// `Policy::Cheapest` makes.
    pub qpe_strategy: Option<QpeStrategy>,
    /// Measured (or modelled) QPE primitive timings; when set, automatic
    /// strategy selection routes through
    /// [`QpeTimings::best_strategy`] instead of the cost model — the
    /// Table 2 advisor actually driving execution.
    pub qpe_timings: Option<QpeTimings>,
    /// Execution configuration for the gate-level residue
    /// ([`HighLevelOp`](crate::program::HighLevelOp)`::Gates` sequences,
    /// which have no shortcut): with fusion enabled, emulation shortcuts
    /// and fused simulation compose — each op runs at whichever level is
    /// cheapest.
    pub config: SimConfig,
}

impl Emulator {
    /// Emulator with automatic QPE strategy selection.
    pub fn new() -> Emulator {
        Emulator::default()
    }

    /// Emulator with a fixed QPE strategy.
    pub fn with_qpe_strategy(strategy: QpeStrategy) -> Emulator {
        Emulator {
            qpe_strategy: Some(strategy),
            ..Emulator::default()
        }
    }

    /// Routes automatic QPE strategy selection through measured timings
    /// (see [`crate::crossover`]): `best_strategy(b)` replaces the cost
    /// model's choice. A fixed [`Emulator::with_qpe_strategy`] choice
    /// still wins over both.
    pub fn with_timings(mut self, timings: QpeTimings) -> Emulator {
        self.qpe_timings = Some(timings);
        self
    }

    /// Replaces the gate-level execution configuration.
    pub fn with_config(mut self, config: SimConfig) -> Emulator {
        self.config = config;
        self
    }

    /// The QPE strategy fixed by the caller, if any; `None` leaves the
    /// choice to the cost model.
    fn choose_qpe_strategy(&self, phase_len: usize) -> Option<QpeStrategy> {
        self.qpe_strategy.or_else(|| {
            self.qpe_timings
                .map(|timings| timings.best_strategy(phase_len as u32))
        })
    }

    /// The fixed all-shortcuts plan this executor runs.
    pub fn plan(&self, program: &QuantumProgram) -> ExecutionPlan {
        let choose_qpe = &|b| self.choose_qpe_strategy(b);
        plan(
            program,
            &CostModel::default(),
            &self.config,
            Policy::Emulate { choose_qpe },
        )
    }
}

impl Executor for Emulator {
    fn run(&self, program: &QuantumProgram, initial: StateVector) -> Result<StateVector, EmuError> {
        PlanInterpreter::new(self.config)
            .execute(program, &self.plan(program), initial)
            .map(|(state, _)| state)
    }

    fn name(&self) -> &'static str {
        "emulator"
    }
}

/// Per-op hybrid dispatch: plans with the generalized [`CostModel`], then
/// executes each op on whichever backend the model predicts is cheapest —
/// emulation shortcut, FFT, dense QPE path, fused or plain gate-level
/// simulation. [`HybridExecutor::run_with_report`] additionally returns
/// the [`PlanReport`] (per-op backend, predicted vs measured cost) so the
/// dispatch is auditable; `perf_suite`'s `shor_mix` workload exercises it
/// on a mixed Shor-style program.
///
/// ## Plan caching
///
/// Planning is not free: the hybrid lowering builds every gate impl and
/// runs the fusion engine to price the fused candidates. The executor
/// memoises plans in a [`SharedPlanCache`]: a bounded, LRU-evicted map
/// keyed on the program's
/// [`structure_hash`](QuantumProgram::structure_hash), validated against
/// the model and config that produced each entry. A plan holds nothing
/// built from a closure, so that key is the whole rule: repeated `run()`s
/// of one program, and a sweep of distinct programs of one shape, lower
/// once; distinct structures occupy distinct slots up to the capacity
/// bound; swapping the model or config ([`HybridExecutor::with_model`] /
/// [`HybridExecutor::with_config`]) detaches the executor onto a fresh
/// cache. Clones of the executor share the cache, and an external cache
/// can be attached with [`HybridExecutor::with_plan_cache`] so many
/// executors (e.g. a daemon's worker pool) share one — see
/// `qcemu_serve`.
#[derive(Clone, Debug)]
pub struct HybridExecutor {
    /// The cost model driving backend choice.
    pub model: CostModel,
    /// Gate-level configuration for simulated steps; defaults to greedy
    /// fusion at the default window.
    pub config: SimConfig,
    cache: SharedPlanCache,
}

impl Default for HybridExecutor {
    fn default() -> HybridExecutor {
        HybridExecutor {
            model: CostModel::default(),
            config: SimConfig::fused(qcemu_sim::DEFAULT_MAX_FUSED_QUBITS),
            cache: SharedPlanCache::default(),
        }
    }
}

impl HybridExecutor {
    /// Hybrid executor with the default cost model and fused gate path.
    pub fn new() -> HybridExecutor {
        HybridExecutor::default()
    }

    /// Hybrid executor driven by the **measured** host rates
    /// ([`CostModel::calibrated`]): the first call pays a few tens of
    /// milliseconds of micro-benchmarks, after which per-op dispatch
    /// tracks what this machine (and the kernels its CPU check selected,
    /// AVX2 or scalar) actually does, not the hand-tuned default ratios.
    pub fn calibrated() -> HybridExecutor {
        HybridExecutor::new().with_model(CostModel::calibrated())
    }

    /// Replaces the cost model (e.g. with measured machine rates).
    /// Detaches onto a fresh plan cache: cached plans are only valid for
    /// the model that produced them, and the old (possibly shared) cache
    /// must not be polluted by a reconfigured clone.
    pub fn with_model(mut self, model: CostModel) -> HybridExecutor {
        self.model = model;
        self.cache = SharedPlanCache::new(self.cache.capacity());
        self
    }

    /// Replaces the gate-level execution configuration (detaches onto a
    /// fresh plan cache).
    pub fn with_config(mut self, config: SimConfig) -> HybridExecutor {
        self.config = config;
        self.cache = SharedPlanCache::new(self.cache.capacity());
        self
    }

    /// Replaces the plan cache with a fresh one bounded at `capacity`
    /// structures (`1` restores the pre-serving single-slot behaviour).
    pub fn with_cache_capacity(mut self, capacity: usize) -> HybridExecutor {
        self.cache = SharedPlanCache::new(capacity);
        self
    }

    /// Attaches an external [`SharedPlanCache`] — the multi-tenant
    /// entry point: every executor holding a handle to the same cache
    /// (across threads, batch executors, serving workers) plans each
    /// structure once.
    pub fn with_plan_cache(mut self, cache: SharedPlanCache) -> HybridExecutor {
        self.cache = cache;
        self
    }

    /// The plan cache this executor reads and populates.
    pub fn plan_cache(&self) -> &SharedPlanCache {
        &self.cache
    }

    /// The cost model driving this executor's planning.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// The gate-level execution configuration.
    pub fn sim_config(&self) -> &SimConfig {
        &self.config
    }

    /// The cost-model-driven plan for `program` — inspect (or `{}`-print)
    /// it to see the per-op dispatch before running anything.
    pub fn plan(&self, program: &QuantumProgram) -> ExecutionPlan {
        (*self.shared_plan(program).0).clone()
    }

    /// The memoised plan for `program`'s structure, if the cache currently
    /// holds one lowered under this executor's model/config — a peek: no
    /// lowering, no hit or miss counted.
    pub fn cached_plan(&self, program: &QuantumProgram) -> Option<Arc<ExecutionPlan>> {
        self.cache
            .peek(program.structure_hash(), &self.model, &self.config)
    }

    /// How many times a `run()`/`plan()` had to lower from scratch —
    /// the observable that proves repeated runs hit the cache.
    pub fn plan_cache_misses(&self) -> usize {
        self.cache.misses()
    }

    /// The plan for `program`'s **structure**: the cached one, or a fresh
    /// lowering that is cached for every later program of the same
    /// [`structure_hash`](QuantumProgram::structure_hash) (under the same
    /// model and config). The one lookup behind `run`, `plan`,
    /// [`crate::batch::BatchExecutor`] and the daemon. Misses count toward
    /// [`HybridExecutor::plan_cache_misses`], and concurrent misses on one
    /// structure collapse to a single lowering (see [`SharedPlanCache`]).
    /// The flag is `true` when this lookup was counted as a cache hit.
    pub fn shared_plan(&self, program: &QuantumProgram) -> (Arc<ExecutionPlan>, bool) {
        self.cache
            .get_or_plan(program.structure_hash(), &self.model, &self.config, || {
                plan(program, &self.model, &self.config, Policy::Cheapest)
            })
    }

    /// Alias of [`HybridExecutor::run_with_report`], kept for `perf_suite`
    /// and the serving tests, which call it by this name.
    pub fn run_structural(
        &self,
        program: &QuantumProgram,
        initial: StateVector,
    ) -> Result<(StateVector, PlanReport), EmuError> {
        self.run_with_report(program, initial)
    }

    /// Runs the program and returns the final state together with the
    /// per-op audit report (backend, predicted and measured cost).
    /// Repeated calls with programs of one structure reuse the memoised
    /// plan — planning and fusion are paid once.
    pub fn run_with_report(
        &self,
        program: &QuantumProgram,
        initial: StateVector,
    ) -> Result<(StateVector, PlanReport), EmuError> {
        let (plan, _) = self.shared_plan(program);
        self.run_plan(program, &plan, initial)
    }

    /// Executes an already-computed plan (e.g. one obtained from
    /// [`HybridExecutor::plan`] for inspection) without re-planning.
    pub fn run_plan(
        &self,
        program: &QuantumProgram,
        plan: &ExecutionPlan,
        initial: StateVector,
    ) -> Result<(StateVector, PlanReport), EmuError> {
        PlanInterpreter::new(self.config).execute(program, plan, initial)
    }
}

impl Executor for HybridExecutor {
    fn run(&self, program: &QuantumProgram, initial: StateVector) -> Result<StateVector, EmuError> {
        self.run_with_report(program, initial)
            .map(|(state, _)| state)
    }

    fn name(&self) -> &'static str {
        "hybrid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Backend;
    use crate::program::{ProgramBuilder, QpeOp};
    use crate::stdops;

    /// Build-and-run helper: multiplication program of the paper's Fig. 1.
    fn multiplication_program(m: usize) -> QuantumProgram {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", m);
        let b = pb.register("b", m);
        let c = pb.register("c", m);
        pb.hadamard_all(a);
        pb.hadamard_all(b);
        pb.classical(stdops::multiply(a, b, c, m));
        pb.build().unwrap()
    }

    #[test]
    fn simulator_and_emulator_agree_on_multiplication() {
        let m = 2;
        let prog = multiplication_program(m);
        let initial = StateVector::zero_state(prog.n_qubits());
        let sim = GateLevelSimulator::new()
            .run(&prog, initial.clone())
            .unwrap();
        let emu = Emulator::new().run(&prog, initial).unwrap();
        assert!(
            sim.max_diff_up_to_phase(&emu) < 1e-10,
            "sim vs emu: {}",
            sim.max_diff_up_to_phase(&emu)
        );
        // Every surviving branch satisfies c = a·b mod 4.
        let all: Vec<usize> = (0..prog.n_qubits()).collect();
        for (idx, p) in emu.register_distribution(&all).iter().enumerate() {
            if *p < 1e-15 {
                continue;
            }
            let a = idx & 0b11;
            let b = (idx >> 2) & 0b11;
            let c = (idx >> 4) & 0b11;
            assert_eq!(c, (a * b) % 4, "branch a={a} b={b}");
        }
    }

    #[test]
    fn fused_simulator_matches_unfused_and_emulator() {
        let prog = multiplication_program(2);
        let initial = StateVector::zero_state(prog.n_qubits());
        let unfused = GateLevelSimulator::new()
            .run(&prog, initial.clone())
            .unwrap();
        for k in 2..=5 {
            let fused = GateLevelSimulator::new()
                .with_config(qcemu_sim::SimConfig::fused(k))
                .run(&prog, initial.clone())
                .unwrap();
            assert!(
                unfused.max_diff_up_to_phase(&fused) < 1e-10,
                "k = {k}: {}",
                unfused.max_diff_up_to_phase(&fused)
            );
        }
        // And the default fused constructor composes with emulation.
        let emu = Emulator::new()
            .with_config(qcemu_sim::SimConfig::fused(4))
            .run(&prog, initial.clone())
            .unwrap();
        let fused = GateLevelSimulator::fused().run(&prog, initial).unwrap();
        assert!(fused.max_diff_up_to_phase(&emu) < 1e-10);
    }

    #[test]
    fn hybrid_matches_both_legacy_executors() {
        // m = 4 (12 qubits): large enough that the cost model, like the
        // paper, favours the emulated table pass over the Toffoli
        // network; at toy sizes simulation may legitimately win.
        let prog = multiplication_program(4);
        let initial = StateVector::zero_state(prog.n_qubits());
        let emu = Emulator::new().run(&prog, initial.clone()).unwrap();
        let sim = GateLevelSimulator::fused()
            .run(&prog, initial.clone())
            .unwrap();
        let (hyb, report) = HybridExecutor::new()
            .run_with_report(&prog, initial)
            .unwrap();
        assert!(hyb.max_diff_up_to_phase(&emu) < 1e-10);
        assert!(hyb.max_diff_up_to_phase(&sim) < 1e-10);
        // The report audits every op with a finite prediction.
        assert_eq!(report.steps.len(), prog.ops().len());
        assert!(report.steps.iter().all(|s| s.predicted_s.is_finite()));
        assert!(report
            .steps
            .iter()
            .any(|s| s.backend == crate::planner::Backend::EmulateClassical));
    }

    #[test]
    fn repeated_runs_reuse_the_cached_plan() {
        let prog = multiplication_program(3);
        let initial = StateVector::zero_state(prog.n_qubits());
        let exec = HybridExecutor::new();
        assert_eq!(exec.plan_cache_misses(), 0);
        assert!(exec.cached_plan(&prog).is_none());

        let a = exec.run(&prog, initial.clone()).unwrap();
        assert_eq!(exec.plan_cache_misses(), 1);
        let cached = exec.cached_plan(&prog).expect("cache populated by run");

        // Second run: same plan object, no new lowering.
        let b = exec.run(&prog, initial).unwrap();
        assert_eq!(exec.plan_cache_misses(), 1, "second run must not re-plan");
        assert!(Arc::ptr_eq(&cached, &exec.cached_plan(&prog).unwrap()));
        assert!(a.max_diff_up_to_phase(&b) < 1e-15);

        // A different structure occupies its own slot (bounded map, not
        // the old single-slot cache): both stay warm.
        let prog2 = multiplication_program(2);
        exec.run(&prog2, StateVector::zero_state(prog2.n_qubits()))
            .unwrap();
        assert_eq!(exec.plan_cache_misses(), 2);
        assert!(exec.cached_plan(&prog).is_some());
        assert!(exec.cached_plan(&prog2).is_some());

        // Clones share the cache; with_model/with_config detach it.
        let shared = exec.clone();
        assert!(shared.cached_plan(&prog2).is_some());
        let fresh = exec.clone().with_model(CostModel::default());
        assert!(fresh.cached_plan(&prog2).is_none());
        let fresh = exec.clone().with_config(SimConfig::fused(3));
        assert!(fresh.cached_plan(&prog2).is_none());
    }

    #[test]
    fn capacity_one_cache_restores_single_slot_eviction() {
        let exec = HybridExecutor::new().with_cache_capacity(1);
        let prog = multiplication_program(3);
        let prog2 = multiplication_program(2);
        exec.run(&prog, StateVector::zero_state(prog.n_qubits()))
            .unwrap();
        exec.run(&prog2, StateVector::zero_state(prog2.n_qubits()))
            .unwrap();
        assert_eq!(exec.plan_cache_misses(), 2);
        assert!(exec.cached_plan(&prog).is_none(), "evicted by prog2");
        assert!(exec.cached_plan(&prog2).is_some());
        // Re-running the evicted structure re-plans.
        exec.run(&prog, StateVector::zero_state(prog.n_qubits()))
            .unwrap();
        assert_eq!(exec.plan_cache_misses(), 3);
        assert_eq!(exec.plan_cache().evictions(), 2);
    }

    #[test]
    fn executors_attached_to_one_cache_share_lowerings() {
        let cache = crate::plancache::SharedPlanCache::new(8);
        let a = HybridExecutor::new().with_plan_cache(cache.clone());
        let b = HybridExecutor::new().with_plan_cache(cache.clone());
        let prog = multiplication_program(3);
        a.run(&prog, StateVector::zero_state(prog.n_qubits()))
            .unwrap();
        // Same structure, fresh instance, *different executor*: still a hit.
        let prog2 = multiplication_program(3);
        b.run_structural(&prog2, StateVector::zero_state(prog2.n_qubits()))
            .unwrap();
        assert_eq!(cache.misses(), 1, "one lowering across both executors");
        assert!(cache.hits() >= 1);
    }

    #[test]
    fn run_structural_reuses_plans_across_instances_and_matches_solo_runs() {
        use crate::program::RotationOp;
        use std::sync::Arc as StdArc;
        // Same structure, different closure parameters per instance — the
        // serving traffic shape.
        let member = |scale: f64| {
            let mut pb = ProgramBuilder::new();
            let a = pb.register("a", 2);
            let b = pb.register("b", 2);
            let c = pb.register("c", 2);
            let ind = pb.register("ind", 1);
            pb.hadamard_all(a);
            pb.hadamard_all(b);
            pb.classical(stdops::multiply(a, b, c, 2));
            pb.rotation(RotationOp {
                name: "sweep".into(),
                x: a,
                target: ind,
                angle: StdArc::new(move |v| scale * (v as f64 + 0.5)),
                gate_impl: None,
            });
            pb.qft(c);
            pb.build().unwrap()
        };
        let exec = HybridExecutor::new();
        for (i, scale) in [0.3, 0.7, 1.1].iter().enumerate() {
            let prog = member(*scale);
            let initial = StateVector::zero_state(prog.n_qubits());
            let (out, report) = exec.run_structural(&prog, initial.clone()).unwrap();
            // Reference: an isolated executor running this very instance.
            let reference = HybridExecutor::new().run(&prog, initial).unwrap();
            assert!(
                out.max_diff_up_to_phase(&reference) < 1e-12,
                "instance {i}: {}",
                out.max_diff_up_to_phase(&reference)
            );
            assert_eq!(report.steps.len(), prog.ops().len());
        }
        assert_eq!(
            exec.plan_cache_misses(),
            1,
            "three same-structure instances must share one lowering"
        );
    }

    #[test]
    fn plans_and_executors_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExecutionPlan>();
        assert_send_sync::<QuantumProgram>();
        assert_send_sync::<HybridExecutor>();
        assert_send_sync::<crate::plancache::SharedPlanCache>();
        assert_send_sync::<crate::batch::BatchExecutor>();
    }

    #[test]
    fn alternating_same_structure_programs_plan_once_and_keep_their_own_closures() {
        use crate::program::RotationOp;
        // One shape, three closure parameters per program: the constant a
        // map (named without it) XORs in, the slope of a rotation, the
        // value an oracle marks.
        let member = |k: u64, slope: f64| {
            let mut pb = ProgramBuilder::new();
            let x = pb.register("x", 3);
            let y = pb.register("y", 3);
            let ind = pb.register("ind", 1);
            pb.hadamard_all(x);
            pb.classical(stdops::xor_constant(y, k));
            pb.rotation(RotationOp {
                name: "sweep".into(),
                x,
                target: ind,
                angle: Arc::new(move |v| slope * (v as f64 + 0.5)),
                gate_impl: None,
            });
            pb.phase_oracle(stdops::phase_if(
                "mark",
                vec![x],
                std::f64::consts::PI,
                move |v| v[0] == k,
            ));
            pb.qft(y);
            pb.build().unwrap()
        };
        let programs = [
            member(1, 0.2),
            member(6, 0.5),
            member(3, 0.9),
            member(5, 1.3),
        ];
        let initial = StateVector::zero_state(programs[0].n_qubits());
        let references: Vec<StateVector> = programs
            .iter()
            .map(|p| Emulator::new().run(p, initial.clone()).unwrap())
            .collect();
        assert!(references[0].max_diff_up_to_phase(&references[1]) > 1e-2);

        let exec = HybridExecutor::new();
        for round in 0..2 {
            for (i, (prog, reference)) in programs.iter().zip(&references).enumerate() {
                let out = exec.run(prog, initial.clone()).unwrap();
                let diff = out.max_diff_up_to_phase(reference);
                assert!(diff < 1e-12, "round {round}, program {i}: {diff}");
            }
        }
        assert_eq!(
            exec.plan_cache_misses(),
            1,
            "four programs of one structure, alternating, share one lowering"
        );
    }

    #[test]
    fn calibrated_executor_still_matches_the_reference_paths() {
        let prog = multiplication_program(3);
        let initial = StateVector::zero_state(prog.n_qubits());
        let reference = Emulator::new().run(&prog, initial.clone()).unwrap();
        let calibrated = HybridExecutor::calibrated().run(&prog, initial).unwrap();
        assert!(reference.max_diff_up_to_phase(&calibrated) < 1e-10);
    }

    #[test]
    fn hybrid_runs_emulation_only_programs() {
        // No gate impl anywhere: the hybrid plan must fall back to
        // emulation instead of failing like the simulator.
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 3);
        pb.classical(stdops::apply_classical_fn("xor3", vec![a], |v| v[0] ^= 3));
        let prog = pb.build().unwrap();
        let out = HybridExecutor::new()
            .run(&prog, StateVector::zero_state(3))
            .unwrap();
        assert_eq!(out.probability(3), 1.0);
    }

    #[test]
    fn emulator_default_qpe_strategy_is_the_cost_model_comparison() {
        // No fixed strategy, no timings: the cheaper dense strategy under
        // the default model's `t_qpe` — squaring at b = 6 > 2m too, where
        // a width rule would have picked eigendecomposition.
        let model = CostModel::default();
        let mut unitary = qcemu_sim::Circuit::new(2);
        unitary.h(0).cphase(0, 1, 0.7);
        for (m, b) in [(2, 3), (2, 6), (2, 12)] {
            let mut pb = ProgramBuilder::new();
            let target = pb.register("t", m);
            let phase = pb.register("p", b);
            pb.qpe(QpeOp {
                unitary: unitary.clone(),
                target,
                phase,
            });
            let prog = pb.build().unwrap();
            let price = |s| model.t_qpe(m + b, m, unitary.gate_count(), b, s);
            assert!(
                price(QpeStrategy::RepeatedSquaring) < price(QpeStrategy::Eigendecomposition),
                "m = {m}, b = {b}"
            );
            assert_eq!(
                Emulator::new().plan(&prog).steps()[0].backend,
                Backend::EmulateQpe {
                    strategy: QpeStrategy::RepeatedSquaring
                },
                "m = {m}, b = {b}"
            );
        }
    }

    #[test]
    fn emulator_with_timings_uses_the_advisor() {
        // Timings where simulation is essentially free: the advisor must
        // choose gate-level QPE, overriding the cost model.
        let timings = QpeTimings {
            n: 2,
            g: 4,
            t_apply_u: 1e-12,
            t_build_dense: 10.0,
            t_gemm: 10.0,
            t_eig: 10.0,
        };
        let emu = Emulator::new().with_timings(timings);
        assert_eq!(emu.choose_qpe_strategy(6), Some(QpeStrategy::GateLevel));
        // And the opposite machine: gates cost hours, dense paths are free.
        let timings = QpeTimings {
            n: 2,
            g: 4,
            t_apply_u: 10.0,
            t_build_dense: 1e-12,
            t_gemm: 1e-12,
            t_eig: 1e-9,
        };
        let emu = Emulator::new().with_timings(timings);
        assert_ne!(emu.choose_qpe_strategy(3), Some(QpeStrategy::GateLevel));
        // A fixed strategy still wins over timings.
        let emu =
            Emulator::with_qpe_strategy(QpeStrategy::Eigendecomposition).with_timings(timings);
        assert_eq!(
            emu.choose_qpe_strategy(3),
            Some(QpeStrategy::Eigendecomposition)
        );
    }

    #[test]
    fn qft_paths_agree() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 4);
        pb.set_constant(a, 9);
        pb.qft(a);
        let prog = pb.build().unwrap();
        let initial = StateVector::zero_state(4);
        let sim = GateLevelSimulator::new()
            .run(&prog, initial.clone())
            .unwrap();
        let emu = Emulator::new().run(&prog, initial).unwrap();
        assert!(sim.max_diff_up_to_phase(&emu) < 1e-10);
    }

    #[test]
    fn qft_then_inverse_roundtrips_via_all_paths() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 3);
        let b = pb.register("b", 2);
        pb.hadamard_all(b);
        pb.set_constant(a, 5);
        pb.qft(a);
        pb.inverse_qft(a);
        let prog = pb.build().unwrap();
        let initial = StateVector::zero_state(5);
        for exec in [
            &GateLevelSimulator::new() as &dyn Executor,
            &Emulator::new(),
            &HybridExecutor::new(),
        ] {
            let out = exec.run(&prog, initial.clone()).unwrap();
            let dist = out.register_distribution(&prog.register(a).bits());
            assert!((dist[5] - 1.0).abs() < 1e-9, "{}: {:?}", exec.name(), dist);
        }
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let mut pb = ProgramBuilder::new();
        let _a = pb.register("a", 3);
        let prog = pb.build().unwrap();
        let bad = StateVector::zero_state(2);
        assert!(matches!(
            Emulator::new().run(&prog, bad.clone()),
            Err(EmuError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            GateLevelSimulator::new().run(&prog, bad.clone()),
            Err(EmuError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            HybridExecutor::new().run(&prog, bad),
            Err(EmuError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn emulation_only_op_fails_on_simulator_but_runs_on_emulator() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 3);
        pb.classical(stdops::apply_classical_fn("xor3", vec![a], |v| v[0] ^= 3));
        let prog = pb.build().unwrap();
        let initial = StateVector::zero_state(3);
        assert!(matches!(
            GateLevelSimulator::new().run(&prog, initial.clone()),
            Err(EmuError::NoGateImplementation { .. })
        ));
        let out = Emulator::new().run(&prog, initial).unwrap();
        assert_eq!(out.probability(3), 1.0);
    }
}
