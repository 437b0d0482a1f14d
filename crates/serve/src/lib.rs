//! Multi-tenant emulation serving: a long-lived daemon around the
//! hybrid emulator.
//!
//! The emulator's planning phase — cost-model lowering, reversible
//! circuit synthesis, gate fusion (paper §3–4) — is structure-determined
//! and often dwarfs the execution of small-to-medium programs. A
//! one-shot CLI pays it on every invocation. This crate amortises it
//! across *tenants*: a daemon ([`EmuServer`]) holds one
//! [`SharedPlanCache`](qcemu_core::SharedPlanCache) for all connections,
//! so N clients sweeping parameters over one program structure trigger
//! exactly one lowering, and structurally identical requests queued
//! behind busy workers are coalesced into one batched execution
//! ([`PlanInterpreter::run_members`](qcemu_core::PlanInterpreter::run_members)).
//!
//! The pieces:
//!
//! * [`wire`] — a dependency-free, length-prefixed binary protocol with
//!   checksummed frames; hostile input yields typed errors, never
//!   panics.
//! * [`admission`] — cost-model-driven admission control: fast lane for
//!   cheap jobs, a bounded queue for expensive ones, typed rejections
//!   ([`RejectReason`]) for over-budget, over-width, or overflow.
//! * [`server`] — the daemon: accept loop, worker pool, scheduler with
//!   structure-coalescing, counters ([`StatsSnapshot`]).
//! * [`client`] — a small blocking client used by the tests, the
//!   examples, and the benchmark harness.
//!
//! Run the daemon with the `qcemu-served` binary; the protocol is
//! specified in `docs/SERVING.md`.

pub mod admission;
pub mod client;
pub mod server;
pub mod wire;

pub use admission::{AdmissionPolicy, AdmitLane, RejectReason};
pub use client::{EmuClient, ServeError};
pub use server::{EmuServer, ServerConfig, ServerHandle};
pub use wire::{
    ErrorCode, FrameKind, Lane, RunResult, StatsSnapshot, SubmitOptions, WireError, WireOp,
    WireProgram, WireRegister, WireStepReport,
};
