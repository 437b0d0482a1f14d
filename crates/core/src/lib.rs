//! # qcemu-core — the quantum computer emulator
//!
//! The primary contribution of *High Performance Emulation of Quantum
//! Circuits* (Häner, Steiger, Smelyanskiy, Troyer; SC 2016): given a
//! quantum program in a high-level IR, execute its subroutines at the
//! level of their *mathematical description* instead of compiling them to
//! elementary gates —
//!
//! | paper | here |
//! |---|---|
//! | §3.1 classical functions evaluated per basis state | [`classical`], [`stdops`] |
//! | §3.2 QFT as a classical FFT | `HighLevelOp::Qft` via `qcemu-fft` |
//! | §3.3 QPE by repeated squaring / eigendecomposition | [`qpe`] |
//! | §3.4 exact measurement statistics without sampling | [`measurement`] |
//! | §4.4 crossover heuristics (Table 2) | [`crossover`] |
//!
//! The [`executor::GateLevelSimulator`] runs the *same* program through
//! elementary gates (ancillas and all), so every shortcut can be verified
//! for exact state agreement and benchmarked for the paper's speedups.
//!
//! Every executor is a candidate [`Policy`] handed to one lowering walk
//! ([`plan`]) and one run loop over an ensemble of one to N members
//! ([`PlanInterpreter::run_members`]), which emits one [`PlanReport`] —
//! see [`planner`].
//!
//! ## Example
//! ```
//! use qcemu_core::{Emulator, Executor, GateLevelSimulator, ProgramBuilder, stdops};
//! use qcemu_sim::StateVector;
//!
//! let mut pb = ProgramBuilder::new();
//! let a = pb.register("a", 3);
//! let b = pb.register("b", 3);
//! let c = pb.register("c", 3);
//! pb.hadamard_all(a);
//! pb.set_constant(b, 5);
//! pb.classical(stdops::multiply(a, b, c, 3));
//! pb.qft(c);
//! let program = pb.build().unwrap();
//!
//! let init = StateVector::zero_state(program.n_qubits());
//! let emulated = Emulator::new().run(&program, init.clone()).unwrap();
//! let simulated = GateLevelSimulator::new().run(&program, init).unwrap();
//! assert!(emulated.max_diff_up_to_phase(&simulated) < 1e-9);
//! ```

pub mod batch;
pub mod calibration;
pub mod classical;
pub mod crossover;
pub mod error;
pub mod executor;
pub mod measurement;
pub mod plancache;
pub mod planner;
pub mod program;
pub mod qpe;
pub mod stdops;

pub use batch::BatchExecutor;
pub use classical::{apply_classical_map, apply_controlled_rotation_batch, apply_phase_oracle};
pub use crossover::{CostModel, QpeCostModel, QpeTimings};
pub use error::EmuError;
pub use executor::{Emulator, Executor, GateLevelSimulator, HybridExecutor};
pub use measurement::{
    compare_expectation_z, exact_register_distribution, sampled_register_distribution,
    total_variation, ExpectationComparison,
};
pub use plancache::{SharedPlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
pub use planner::{
    plan, Backend, ExecutionPlan, PlanInterpreter, PlanReport, PlanStep, Policy, StepReport,
};
pub use program::{
    ClassicalMap, GateImpl, HighLevelOp, MapKind, PhaseOracle, ProgramBuilder, ProgramRegister,
    QpeOp, QuantumProgram, RegisterId, RegisterMap, RegisterPredicate, RotationOp,
};
pub use qpe::{apply_qpe, qpe_kernel, qpe_outcome_distribution, QpeStrategy};
