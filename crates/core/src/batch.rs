//! Batched program execution: plan once, run N state vectors.
//!
//! Parameter sweeps and shot ensembles run the *same program structure*
//! many times — same registers, same op sequence, same gate lists — with
//! only closure-carried parameters (rotation angles, classical maps)
//! varying per member. The [`BatchExecutor`] exploits that: it takes the
//! batch's plan from the [`HybridExecutor`] plan cache — keyed, for every
//! executor, on [`structure_hash`](QuantumProgram::structure_hash), so
//! planning, cost-model evaluation and gate fusion are paid once per
//! structure, not once per member — then advances all members together
//! through a [`BatchStateVector`] with the one run loop,
//! [`PlanInterpreter::run_members`] — see there for which steps run once
//! on the batch-major buffer and which member by member. The
//! [`PlanReport`] it returns records the route each step took.

use crate::error::EmuError;
use crate::executor::HybridExecutor;
use crate::planner::{empty_ensemble, ExecutionPlan, PlanInterpreter, PlanReport};
use crate::program::QuantumProgram;
use qcemu_sim::{BatchStateVector, SimConfig};

/// Runs a structurally homogeneous ensemble of programs over a
/// [`BatchStateVector`], planning once per structure.
///
/// Members must share qubit count and
/// [`structure_hash`](QuantumProgram::structure_hash); per-member
/// variation flows through the closures the hash deliberately ignores
/// (rotation angle functions, classical map bodies). Rebuilding the
/// member programs between runs does **not** re-plan: a plan is keyed on
/// structure alone, so
/// [`plan_cache_misses`](BatchExecutor::plan_cache_misses) stays at one
/// across repeated sweeps of the same shape.
///
/// ## Example
/// ```
/// use qcemu_core::batch::BatchExecutor;
/// use qcemu_core::ProgramBuilder;
/// use qcemu_sim::BatchStateVector;
///
/// let members: Vec<_> = (0..4)
///     .map(|_| {
///         let mut pb = ProgramBuilder::new();
///         let a = pb.register("a", 3);
///         pb.hadamard_all(a);
///         pb.qft(a);
///         pb.build().unwrap()
///     })
///     .collect();
/// let exec = BatchExecutor::new();
/// let initial = BatchStateVector::zero_state(3, members.len());
/// let out = exec.run(&members, initial).unwrap();
/// assert_eq!(out.batch(), 4);
/// assert_eq!(exec.plan_cache_misses(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct BatchExecutor {
    inner: HybridExecutor,
}

impl BatchExecutor {
    /// Batch executor over the default hybrid cost model and fused gate
    /// path.
    pub fn new() -> BatchExecutor {
        BatchExecutor::default()
    }

    /// Batch executor driven by the measured host rates
    /// ([`crate::crossover::CostModel::calibrated`]).
    pub fn calibrated() -> BatchExecutor {
        BatchExecutor {
            inner: HybridExecutor::calibrated(),
        }
    }

    /// Batch executor wrapping an existing [`HybridExecutor`] — sharing
    /// its model, config, **and plan cache**. This is how a serving
    /// worker batches structurally identical in-flight requests without
    /// planning the structure a second time: solo requests run through
    /// the hybrid executor, coalesced ones through this wrapper, and both
    /// read the same [`crate::plancache::SharedPlanCache`].
    pub fn from_hybrid(inner: HybridExecutor) -> BatchExecutor {
        BatchExecutor { inner }
    }

    /// The wrapped [`HybridExecutor`] (model, config, plan cache).
    pub fn hybrid(&self) -> &HybridExecutor {
        &self.inner
    }

    /// Replaces the cost model (resets the plan cache).
    pub fn with_model(self, model: crate::crossover::CostModel) -> BatchExecutor {
        BatchExecutor {
            inner: self.inner.with_model(model),
        }
    }

    /// Replaces the gate-level execution configuration (resets the plan
    /// cache).
    pub fn with_config(self, config: SimConfig) -> BatchExecutor {
        BatchExecutor {
            inner: self.inner.with_config(config),
        }
    }

    /// How many times a batch run had to lower a plan from scratch —
    /// repeated runs of same-structure ensembles keep this at one.
    pub fn plan_cache_misses(&self) -> usize {
        self.inner.plan_cache_misses()
    }

    /// The plan a batch of `program`'s shape would run (lowering and
    /// caching it if absent) — inspect or `{}`-print it to see the per-op
    /// dispatch.
    pub fn plan(&self, program: &QuantumProgram) -> ExecutionPlan {
        self.inner.plan(program)
    }

    /// Runs the ensemble and returns the final batched state.
    ///
    /// `members[j]` drives the `j`-th member of `initial`. All members
    /// must share qubit count and structure hash; `initial` must hold
    /// exactly `members.len()` members of that qubit count.
    pub fn run(
        &self,
        members: &[QuantumProgram],
        initial: BatchStateVector,
    ) -> Result<BatchStateVector, EmuError> {
        self.run_with_report(members, initial).map(|(s, _)| s)
    }

    /// Runs the ensemble and additionally returns the per-step audit
    /// report (backend, batched vs per-member route, predicted and
    /// measured cost).
    pub fn run_with_report(
        &self,
        members: &[QuantumProgram],
        initial: BatchStateVector,
    ) -> Result<(BatchStateVector, PlanReport), EmuError> {
        let (plan, _) = self
            .inner
            .shared_plan(members.first().ok_or_else(empty_ensemble)?);
        PlanInterpreter::new(self.inner.config).run_members(members, &plan, initial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::program::{ProgramBuilder, RotationOp};
    use crate::stdops;
    use qcemu_sim::StateVector;
    use std::sync::Arc;

    /// One member of a rotation parameter sweep: H⊗m on `x`, then an
    /// `x`-controlled Ry(θ·scale(x)) on the indicator qubit, then a QFT
    /// on `x`. Only the angle closure varies across members — the
    /// structure hash is identical.
    fn sweep_member(m: usize, scale: f64) -> QuantumProgram {
        let mut pb = ProgramBuilder::new();
        let x = pb.register("x", m);
        let ind = pb.register("ind", 1);
        pb.hadamard_all(x);
        pb.rotation(RotationOp {
            name: "sweep".into(),
            x,
            target: ind,
            angle: Arc::new(move |v| scale * (v as f64 + 0.5)),
            gate_impl: None,
        });
        pb.qft(x);
        pb.build().unwrap()
    }

    fn multiplication_member(m: usize) -> QuantumProgram {
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
    fn batched_sweep_matches_per_member_hybrid_runs() {
        let scales = [0.11, 0.42, 0.73, 1.04, 1.35];
        let members: Vec<_> = scales.iter().map(|&s| sweep_member(4, s)).collect();
        let n = members[0].n_qubits();
        let exec = BatchExecutor::new();
        let (out, report) = exec
            .run_with_report(&members, BatchStateVector::zero_state(n, members.len()))
            .unwrap();
        assert_eq!(report.steps.len(), members[0].ops().len());
        // Every member agrees with its own solo hybrid run.
        let solo = HybridExecutor::new();
        for (j, member) in members.iter().enumerate() {
            let reference = solo.run(member, StateVector::zero_state(n)).unwrap();
            let diff = out.member_max_diff(j, &reference);
            assert!(diff < 1e-12, "member {j}: {diff}");
        }
        // The gate prelude batched; the emulated rotation runs through the
        // batched in-layout kernel (per-member only when lowered to gates).
        assert!(report.steps.iter().any(|s| s.batched));
        let rot = report
            .steps
            .iter()
            .find(|s| s.op.contains("rotation"))
            .unwrap();
        assert_eq!(rot.batched, !rot.backend.is_simulate());
        // The report renders.
        let table = report.to_string();
        assert!(table.contains("batched"), "{table}");
    }

    #[test]
    fn phase_oracles_take_the_shared_route_with_each_members_predicate() {
        // Per-member phase predicates: member k marks value k. The oracle
        // runs as one masked pass on the batch-major buffer, and each
        // member still gets its own closure's semantics.
        let members: Vec<_> = (0..3)
            .map(|k| {
                let mut pb = ProgramBuilder::new();
                let x = pb.register("x", 3);
                pb.hadamard_all(x);
                pb.phase_oracle(stdops::phase_if(
                    "mark-member",
                    vec![x],
                    std::f64::consts::PI,
                    move |v| v[0] == k as u64,
                ));
                pb.build().unwrap()
            })
            .collect();
        let n = members[0].n_qubits();
        let exec = BatchExecutor::new();
        let (out, report) = exec
            .run_with_report(&members, BatchStateVector::zero_state(n, members.len()))
            .unwrap();
        let oracle = report
            .steps
            .iter()
            .find(|s| s.op.contains("oracle"))
            .unwrap();
        assert!(oracle.batched, "{report}");
        assert!(!report.to_string().contains("per-member"), "{report}");
        let solo = HybridExecutor::new();
        for (j, member) in members.iter().enumerate() {
            let reference = solo.run(member, StateVector::zero_state(n)).unwrap();
            assert!(out.member_max_diff(j, &reference) < 1e-12, "member {j}");
            // Member j's own mark: value j carries the phase −1.
            let marked = out.amplitude(j, j);
            assert!(
                (marked.re + 1.0 / 8f64.sqrt()).abs() < 1e-12,
                "member {j}: {marked:?}"
            );
        }
    }

    /// Members whose maps differ only in their closures (a different
    /// `add` constant each), and whose map is in place or zero-target,
    /// run as one gather and each match their solo run.
    #[test]
    fn per_member_classical_closures_share_one_gather() {
        use crate::program::{ClassicalMap, MapKind};
        let member = |k: u64, zero_target: bool| {
            let mut pb = ProgramBuilder::new();
            let a = pb.register("a", 3);
            let t = pb.register("t", 3);
            pb.hadamard_all(a);
            pb.classical(ClassicalMap {
                name: "shift".into(),
                regs: vec![a, t],
                f: Arc::new(move |v| v[1] = (v[1] + v[0] + k) % 8),
                kind: if zero_target {
                    MapKind::ZeroInitializedTargets { n_targets: 1 }
                } else {
                    MapKind::InPlaceBijection
                },
                gate_impl: None,
            });
            pb.qft(t);
            pb.build().unwrap()
        };
        for zero_target in [false, true] {
            for batch in [1usize, 2, 3, 8] {
                let members: Vec<_> = (0..batch as u64).map(|k| member(k, zero_target)).collect();
                let n = members[0].n_qubits();
                let (out, report) = BatchExecutor::new()
                    .run_with_report(&members, BatchStateVector::zero_state(n, batch))
                    .unwrap();
                assert!(
                    report.steps.iter().all(|s| s.batched || batch == 1),
                    "{report}"
                );
                let solo = HybridExecutor::new();
                for (j, m) in members.iter().enumerate() {
                    let reference = solo.run(m, StateVector::zero_state(n)).unwrap();
                    let diff = out.member_max_diff(j, &reference);
                    assert!(
                        diff <= 1e-12,
                        "zero_target {zero_target}, B = {batch}, member {j}: {diff:.3e}"
                    );
                    if batch == 1 {
                        assert_eq!(out.member(0), reference);
                    }
                }
            }
        }
    }

    /// When only member 1 fails, the ensemble fails with member 1's own
    /// solo error: a non-injective closure, or support in a zero target.
    #[test]
    fn a_failing_member_fails_the_ensemble_with_its_solo_error() {
        use crate::program::{ClassicalMap, MapKind};
        let member = |squash: bool, kind: MapKind| {
            let mut pb = ProgramBuilder::new();
            let a = pb.register("a", 2);
            let t = pb.register("t", 2);
            pb.hadamard_all(a);
            pb.classical(ClassicalMap {
                name: "copy".into(),
                regs: vec![a, t],
                // Squashed, every label lands on (0, 0).
                f: Arc::new(move |v| {
                    if squash {
                        v.fill(0);
                    } else {
                        v[1] ^= v[0];
                    }
                }),
                kind,
                gate_impl: None,
            });
            pb.build().unwrap()
        };
        let zero = MapKind::ZeroInitializedTargets { n_targets: 1 };
        let cases = [
            (MapKind::InPlaceBijection, true, false),
            (zero, true, false),
            (zero, false, true),
            (zero, true, true),
        ];
        for (kind, squash, dirty) in cases {
            let good = member(false, kind);
            let bad = member(squash, kind);
            let n = good.n_qubits();
            // A dirty member starts with t = 1.
            let start = StateVector::basis_state(n, if dirty { 0b0100 } else { 0 });
            let solo = HybridExecutor::new().run(&bad, start.clone());
            let want = solo.expect_err("the failing member fails alone");
            for batch in [2usize, 3] {
                let members: Vec<_> = (0..batch)
                    .map(|j| if j == 1 { bad.clone() } else { good.clone() })
                    .collect();
                let starts: Vec<_> = (0..batch)
                    .map(|j| {
                        if j == 1 {
                            start.clone()
                        } else {
                            StateVector::zero_state(n)
                        }
                    })
                    .collect();
                let got = BatchExecutor::new()
                    .run(&members, BatchStateVector::from_states(&starts))
                    .unwrap_err();
                assert_eq!(
                    got, want,
                    "{kind:?}, squash {squash}, dirty {dirty}, B = {batch}"
                );
            }
        }
    }

    #[test]
    fn batched_classical_map_matches_per_member_runs() {
        // At this size the hybrid plan may pick either route for the
        // multiply — the batch must agree with solo runs regardless.
        let members: Vec<_> = (0..3).map(|_| multiplication_member(2)).collect();
        let n = members[0].n_qubits();
        let out = BatchExecutor::new()
            .run(&members, BatchStateVector::zero_state(n, members.len()))
            .unwrap();
        let solo = HybridExecutor::new();
        for (j, member) in members.iter().enumerate() {
            let reference = solo.run(member, StateVector::zero_state(n)).unwrap();
            assert!(out.member_max_diff(j, &reference) < 1e-12, "member {j}");
        }
    }

    #[test]
    fn repeated_batches_plan_once_per_structure() {
        let exec = BatchExecutor::new();
        assert_eq!(exec.plan_cache_misses(), 0);
        for _ in 0..3 {
            // Fresh instances every round: only the structure repeats.
            let members: Vec<_> = (0..4)
                .map(|k| sweep_member(3, 0.2 * (k + 1) as f64))
                .collect();
            let n = members[0].n_qubits();
            exec.run(&members, BatchStateVector::zero_state(n, members.len()))
                .unwrap();
        }
        assert_eq!(
            exec.plan_cache_misses(),
            1,
            "same structure must not re-plan"
        );
        // A different qubit count is a different structure: miss + evict.
        let members: Vec<_> = (0..2)
            .map(|k| sweep_member(4, 0.3 * (k + 1) as f64))
            .collect();
        let n = members[0].n_qubits();
        exec.run(&members, BatchStateVector::zero_state(n, members.len()))
            .unwrap();
        assert_eq!(exec.plan_cache_misses(), 2);
    }

    #[test]
    fn heterogeneous_batches_are_rejected() {
        let exec = BatchExecutor::new();
        // Empty batch.
        assert!(matches!(
            exec.run(&[], BatchStateVector::zero_state(3, 1)),
            Err(EmuError::PlanMismatch { .. })
        ));
        // Mixed qubit counts.
        let mixed = vec![sweep_member(3, 0.1), sweep_member(4, 0.1)];
        assert!(matches!(
            exec.run(&mixed, BatchStateVector::zero_state(4, 2)),
            Err(EmuError::DimensionMismatch { .. })
        ));
        // Same width, different op structure.
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 4);
        pb.qft(a);
        let other = pb.build().unwrap();
        let mixed = vec![sweep_member(3, 0.1), other];
        assert!(matches!(
            exec.run(&mixed, BatchStateVector::zero_state(4, 2)),
            Err(EmuError::PlanMismatch { .. })
        ));
        // Batch width must match the member count.
        let members = vec![sweep_member(3, 0.1), sweep_member(3, 0.2)];
        assert!(matches!(
            exec.run(&members, BatchStateVector::zero_state(4, 3)),
            Err(EmuError::DimensionMismatch { .. })
        ));
        // Initial state width must match the programs.
        assert!(matches!(
            exec.run(&members, BatchStateVector::zero_state(3, 2)),
            Err(EmuError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn unfused_and_calibrated_configs_agree_with_default() {
        let members: Vec<_> = (0..3)
            .map(|k| sweep_member(3, 0.5 + 0.1 * k as f64))
            .collect();
        let n = members[0].n_qubits();
        let initial = BatchStateVector::zero_state(n, members.len());
        let default_out = BatchExecutor::new().run(&members, initial.clone()).unwrap();
        let unfused_out = BatchExecutor::new()
            .with_config(SimConfig::unfused())
            .run(&members, initial.clone())
            .unwrap();
        let calibrated_out = BatchExecutor::calibrated().run(&members, initial).unwrap();
        for j in 0..members.len() {
            let reference = default_out.member(j);
            assert!(unfused_out.member_max_diff(j, &reference) < 1e-12);
            assert!(calibrated_out.member_max_diff(j, &reference) < 1e-12);
        }
    }
}
