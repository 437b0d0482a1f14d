//! # qcemu-baselines
//!
//! Re-implementations of the two simulators the paper benchmarks against in
//! §4.5 (Figs. 4–6), built over the same state-vector memory layout as
//! `qcemu-sim` so that performance differences isolate *algorithmic
//! choices*, not incidental engineering:
//!
//! * [`qhipster`] — qHiPSTER-like: generic dense kernels for every gate,
//!   full-state sweeps, multi-threaded; its distributed analogue is
//!   `qcemu_cluster::CommPolicy::Generic` (exchange on every global-target
//!   gate, diagonal or not);
//! * [`liquid`] — LIQUi|⟩-like: boxed gate objects carrying explicit
//!   matrices (a CNOT is a 4×4), generic gather/scatter application,
//!   single-threaded, with an optional gate-fusion optimiser.
//!
//! Both are validated against `qcemu-sim` for state-level agreement; the
//! figure harnesses (`qcemu-bench`: `fig5_qft_single_node`, `fig6_entangle`)
//! reproduce the paper's relative timings and `perf_suite` tracks
//! `baselines.qhipster_s` / `sim.speedup_vs_qhipster`.

pub mod liquid;
pub mod qhipster;

pub use liquid::{apply_object, embed, fuse, gate_to_object, GateObject, LiquidSim};
pub use qhipster::QhipsterSim;
