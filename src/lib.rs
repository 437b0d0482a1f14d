//! # qcemu — High Performance Emulation of Quantum Circuits
//!
//! A full Rust reproduction of Häner, Steiger, Smelyanskiy & Troyer,
//! *High Performance Emulation of Quantum Circuits* (SC 2016,
//! arXiv:1604.06460): an operation-level **quantum computer emulator**, the
//! gate-level state-vector **simulator** it is benchmarked against, and
//! every substrate both need — dense complex linear algebra, FFTs,
//! reversible arithmetic synthesis, baseline simulators, and a virtual
//! cluster with the paper's distributed cost models.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`qcemu_core`] | the emulator: program IR, classical-function / QFT / QPE / measurement shortcuts, crossover advisor |
//! | [`qcemu_sim`] | state-vector simulator with structure-specialised kernels, circuits, measurement, decomposition |
//! | [`qcemu_revarith`] | Cuccaro adders, multiplier, divider, comparators, Bennett compilation |
//! | [`qcemu_linalg`] | complex GEMM, Strassen, Hessenberg + QR eigensolver (`zgemm`/`zgeev` stand-ins) |
//! | [`qcemu_fft`] | the cache-blocked FFT engine and its subspace transforms (FFTW/MKL stand-in) |
//! | [`qcemu_cluster`] | virtual cluster, distributed state & FFT, Eq. (5)/(6) machine models |
//! | [`qcemu_baselines`] | qHiPSTER-like and LIQUi|⟩-like reference simulators |
//! | [`qcemu_serve`] | multi-tenant daemon: wire protocol, admission control, cross-request plan cache |
//!
//! ## Quickstart
//!
//! ```
//! use qcemu::prelude::*;
//!
//! // (a, b) in superposition; c = a*b computed by ONE emulated op.
//! let mut pb = ProgramBuilder::new();
//! let a = pb.register("a", 3);
//! let b = pb.register("b", 3);
//! let c = pb.register("c", 3);
//! pb.hadamard_all(a);
//! pb.hadamard_all(b);
//! pb.classical(stdops::multiply(a, b, c, 3));
//! let program = pb.build().unwrap();
//!
//! let out = Emulator::new()
//!     .run(&program, StateVector::zero_state(program.n_qubits()))
//!     .unwrap();
//! assert!((out.norm() - 1.0).abs() < 1e-10);
//! ```
//!
//! See `examples/` for Shor period finding, Grover search, QPE on the
//! transverse-field Ising model, and the arithmetic speedup demo; see
//! `crates/bench/src/bin/` for the harnesses regenerating every table and
//! figure of the paper, and EXPERIMENTS.md for measured-vs-paper results.

pub use qcemu_baselines;
pub use qcemu_cluster;
pub use qcemu_core;
pub use qcemu_fft;
pub use qcemu_linalg;
pub use qcemu_revarith;
pub use qcemu_serve;
pub use qcemu_sim;

/// One-stop imports for applications.
pub mod prelude {
    pub use qcemu_core::{
        stdops, Backend, BatchExecutor, ClassicalMap, CostModel, EmuError, Emulator, ExecutionPlan,
        Executor, GateLevelSimulator, HighLevelOp, HybridExecutor, MapKind, PlanReport,
        ProgramBuilder, QpeOp, QpeStrategy, QpeTimings, QuantumProgram, RegisterId,
        SharedPlanCache,
    };
    pub use qcemu_linalg::{c64, CMatrix, C64};
    pub use qcemu_serve::{
        AdmissionPolicy, EmuClient, EmuServer, ServeError, ServerConfig, SubmitOptions, WireOp,
        WireProgram, WireRegister,
    };
    pub use qcemu_sim::{
        estimate_mps_cost, measure, segment_circuit, BatchStateVector, Circuit, FusionPolicy, Gate,
        GateOp, MpsCostEstimate, MpsPolicy, MpsState, SegmentPolicy, SegmentedCircuit, SimConfig,
        StateVector, DEFAULT_BLOCK_BITS, DEFAULT_MAX_BOND,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_builds_and_runs_a_program() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 2);
        pb.hadamard_all(a);
        pb.qft(a);
        pb.inverse_qft(a);
        let program = pb.build().unwrap();
        let out = Emulator::new()
            .run(&program, StateVector::zero_state(2))
            .unwrap();
        // H⊗H then QFT then IQFT = H⊗H: uniform distribution.
        for i in 0..4 {
            assert!((out.probability(i) - 0.25).abs() < 1e-10);
        }
    }
}
