//! The daemon's wire format: hand-rolled, length-prefixed frames.
//!
//! The repo is offline, so there is no serde and no protobuf — the
//! protocol is a small fixed binary encoding (little-endian throughout)
//! designed for two properties:
//!
//! 1. **Structure-preserving**: a [`WireProgram`] round-trips losslessly
//!    (`decode(encode(p)) == p`), and two wire programs that differ only
//!    in *parameters* (rotation coefficients, marked values via
//!    closures, classical map inputs) decode to [`QuantumProgram`]s with
//!    equal [`structure_hash`](qcemu_core::QuantumProgram::structure_hash) —
//!    which is what lets the daemon share one plan across requests.
//! 2. **Hostile-input safe**: every length is bounds-checked against the
//!    remaining payload and a hard cap, frames carry a checksum, and a
//!    truncated or corrupted frame is a typed [`WireError`], never a
//!    panic. Gates are validated against the program's qubit count when
//!    the program is built, through the `Result`-returning
//!    [`Circuit::try_from_gates`](qcemu_sim::Circuit::try_from_gates).
//!
//! A request is decoded on the connection thread, ahead of its
//! execution, so bytes become a program in one allocation-light pass: a
//! gate list is reserved once (at most what the remaining bytes can
//! encode), only a controlled gate allocates (its control list),
//! validation allocates nothing, and [`WireProgram::into_program`] moves
//! the decoded gates into the program. `tests/decode_allocations.rs`
//! holds that budget.
//!
//! ## Frame layout
//!
//! ```text
//! magic   2 bytes  "QE"
//! version 1 byte   0x01
//! kind    1 byte   message kind (see [`FrameKind`])
//! len     4 bytes  u32 LE payload length (capped at 64 MiB)
//! payload len bytes
//! check   4 bytes  u32 LE FNV-1a hash of the payload
//! ```
//!
//! The payload encodings are documented per message in
//! `docs/SERVING.md`.

use qcemu_core::{ProgramBuilder, QuantumProgram, RegisterId, RotationOp};
use qcemu_linalg::C64;
use qcemu_sim::{Circuit, Gate, GateOp};
use std::fmt;
use std::io::{Read, Write};
use std::sync::Arc;

/// Protocol magic: the first two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"QE";
/// Protocol version this build speaks.
pub const VERSION: u8 = 1;
/// Hard cap on a frame payload (64 MiB — a 21-qubit amplitude dump is
/// 32 MiB, so responses fit with room to spare).
pub const MAX_PAYLOAD: usize = 64 << 20;
/// Hard cap on registers per program.
pub const MAX_REGISTERS: usize = 64;
/// Hard cap on ops per program.
pub const MAX_OPS: usize = 1024;
/// Hard cap on gates per raw-gates op.
pub const MAX_GATES: usize = 1 << 20;
/// Hard cap on measurement shots per request.
pub const MAX_SHOTS: usize = 1 << 20;
/// Hard cap on qubits a wire program may declare (the daemon's admission
/// policy usually cuts in far below this).
pub const MAX_WIRE_QUBITS: usize = 30;

/// Message kind of a frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → server: run a program (payload: [`WireProgram`] +
    /// [`SubmitOptions`]).
    Submit = 0x01,
    /// Client → server: report daemon counters (empty payload).
    GetStats = 0x02,
    /// Server → client: run result (payload: [`RunResult`]).
    Result = 0x81,
    /// Server → client: counters (payload: [`StatsSnapshot`]).
    Stats = 0x82,
    /// Server → client: typed error (payload: [`ErrorCode`] + message).
    Error = 0x7f,
}

impl FrameKind {
    fn from_u8(b: u8) -> Result<FrameKind, WireError> {
        match b {
            0x01 => Ok(FrameKind::Submit),
            0x02 => Ok(FrameKind::GetStats),
            0x81 => Ok(FrameKind::Result),
            0x82 => Ok(FrameKind::Stats),
            0x7f => Ok(FrameKind::Error),
            other => Err(WireError::BadKind { got: other }),
        }
    }
}

/// Typed error code carried by an error frame — the daemon's rejection
/// and failure taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame or payload could not be decoded.
    Malformed = 1,
    /// The program decoded but failed validation (bad gate, bad
    /// register reference, builder rejection).
    InvalidProgram = 2,
    /// Admission control: the program exceeds the daemon's qubit bound.
    TooManyQubits = 3,
    /// Admission control: predicted cost exceeds the daemon's budget.
    OverBudget = 4,
    /// Admission control: the wait queue is full.
    QueueFull = 5,
    /// The job was admitted but execution failed.
    ExecutionFailed = 6,
    /// The daemon is shutting down.
    ShuttingDown = 7,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Result<ErrorCode, WireError> {
        match b {
            1 => Ok(ErrorCode::Malformed),
            2 => Ok(ErrorCode::InvalidProgram),
            3 => Ok(ErrorCode::TooManyQubits),
            4 => Ok(ErrorCode::OverBudget),
            5 => Ok(ErrorCode::QueueFull),
            6 => Ok(ErrorCode::ExecutionFailed),
            7 => Ok(ErrorCode::ShuttingDown),
            other => Err(WireError::BadErrorCode { got: other }),
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::Malformed => write!(f, "malformed request"),
            ErrorCode::InvalidProgram => write!(f, "invalid program"),
            ErrorCode::TooManyQubits => write!(f, "too many qubits"),
            ErrorCode::OverBudget => write!(f, "over cost budget"),
            ErrorCode::QueueFull => write!(f, "queue full"),
            ErrorCode::ExecutionFailed => write!(f, "execution failed"),
            ErrorCode::ShuttingDown => write!(f, "shutting down"),
        }
    }
}

/// Everything that can go wrong between bytes and a validated program.
#[derive(Clone, Debug, PartialEq)]
pub enum WireError {
    /// The input ended before the structure it promised.
    Truncated,
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported protocol version.
    BadVersion {
        /// Version byte received.
        got: u8,
    },
    /// Unknown frame kind byte.
    BadKind {
        /// Kind byte received.
        got: u8,
    },
    /// Unknown error-code byte in an error frame.
    BadErrorCode {
        /// Code byte received.
        got: u8,
    },
    /// The payload checksum does not match — corruption in transit.
    ChecksumMismatch,
    /// Bytes remained after the payload's last structure.
    TrailingBytes,
    /// A declared length exceeds its hard cap.
    CapExceeded {
        /// Which cap (for the error message).
        what: &'static str,
    },
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// An op references a register index the program does not declare.
    BadRegisterIndex {
        /// The out-of-range index.
        index: usize,
    },
    /// A gate failed validation against the program's qubit count.
    InvalidGate(String),
    /// The decoded program failed semantic validation.
    BadProgram(String),
    /// An I/O error while reading or writing a frame.
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame or payload"),
            WireError::BadMagic => write!(f, "bad magic (not a qcemu frame)"),
            WireError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            WireError::BadKind { got } => write!(f, "unknown frame kind 0x{got:02x}"),
            WireError::BadErrorCode { got } => write!(f, "unknown error code {got}"),
            WireError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            WireError::TrailingBytes => write!(f, "trailing bytes after payload structure"),
            WireError::CapExceeded { what } => write!(f, "declared {what} exceeds the hard cap"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::BadRegisterIndex { index } => {
                write!(f, "op references undeclared register {index}")
            }
            WireError::InvalidGate(e) => write!(f, "invalid gate: {e}"),
            WireError::BadProgram(e) => write!(f, "invalid program: {e}"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e.to_string())
    }
}

/// FNV-1a over the payload — cheap, dependency-free corruption check.
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

// ---------------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------------

/// Writes one frame to `w`.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(WireError::CapExceeded { what: "payload" });
    }
    // One contiguous write: a frame split across write calls interacts
    // badly with Nagle + delayed ACK on real sockets (tens of ms of
    // added round-trip latency).
    let mut frame = Vec::with_capacity(8 + payload.len() + 4);
    frame.extend_from_slice(&MAGIC);
    frame.push(VERSION);
    frame.push(kind as u8);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&checksum(payload).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame from `r`, validating magic, version, length cap and
/// checksum. `Ok(None)` means the peer closed the connection cleanly
/// (EOF before the first byte).
pub fn read_frame(r: &mut impl Read) -> Result<Option<(FrameKind, Vec<u8>)>, WireError> {
    let mut head = [0u8; 8];
    let mut filled = 0;
    while filled < head.len() {
        match r.read(&mut head[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    if head[..2] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if head[2] != VERSION {
        return Err(WireError::BadVersion { got: head[2] });
    }
    let kind = FrameKind::from_u8(head[3])?;
    let len = u32::from_le_bytes(head[4..8].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::CapExceeded { what: "payload" });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::from(e)
        }
    })?;
    let mut check = [0u8; 4];
    r.read_exact(&mut check).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::from(e)
        }
    })?;
    if u32::from_le_bytes(check) != checksum(&payload) {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(Some((kind, payload)))
}

// ---------------------------------------------------------------------------
// Primitive readers/writers over a byte cursor.
// ---------------------------------------------------------------------------

/// Bounds-checked reader over a payload slice.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > 4096 {
            return Err(WireError::CapExceeded { what: "string" });
        }
        String::from_utf8(self.take(len)?.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// The serializable program.
// ---------------------------------------------------------------------------

/// A register declaration on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct WireRegister {
    /// Register name (hashed into the structure hash).
    pub name: String,
    /// Width in qubits.
    pub len: u32,
}

/// One op of a wire program.
///
/// Register references are **indices into the program's register list**
/// (declaration order), validated at decode. The op set mirrors what the
/// emulator can run from purely serialized data: raw gates, QFTs, the
/// named arithmetic ops of [`qcemu_core::stdops`] (whose closures the
/// server reconstructs), parameterised rotations, and marked-value phase
/// oracles. Ops carrying arbitrary user closures cannot cross the wire
/// by construction.
#[derive(Clone, Debug, PartialEq)]
pub enum WireOp {
    /// A raw gate run (validated gate-by-gate at decode).
    Gates(Vec<Gate>),
    /// H on every qubit of a register.
    Hadamard(u16),
    /// X-prepare a computational-basis constant in a register.
    SetConstant(u16, u64),
    /// QFT on a register.
    Qft(u16),
    /// Inverse QFT on a register.
    InverseQft(u16),
    /// `b += a (mod 2^m)` where `m` is the registers' shared width.
    Add {
        /// Source register index.
        a: u16,
        /// Destination register index.
        b: u16,
    },
    /// `c += a·b (mod 2^m)`.
    Multiply {
        /// First factor register index.
        a: u16,
        /// Second factor register index.
        b: u16,
        /// Accumulator register index.
        c: u16,
    },
    /// `q = a / b`, `r = a mod b` into zero-initialised targets.
    Divide {
        /// Dividend register index.
        a: u16,
        /// Divisor register index.
        b: u16,
        /// Quotient register index.
        q: u16,
        /// Remainder register index.
        r: u16,
    },
    /// Register-controlled `Ry(slope·x + intercept)` on a 1-qubit
    /// target: the *parameters* (slope, intercept) are invisible to the
    /// structure hash, so a sweep of these shares one plan.
    Rotation {
        /// Control register index.
        x: u16,
        /// Target register index (must be one qubit wide).
        target: u16,
        /// θ(x) slope.
        slope: f64,
        /// θ(x) intercept.
        intercept: f64,
    },
    /// Phase `e^{iφ}` on one marked register value (Grover-style oracle).
    MarkValue {
        /// Register index the predicate reads.
        reg: u16,
        /// The marked value.
        value: u64,
        /// Phase φ.
        phase: f64,
    },
}

/// A serializable quantum program: registers plus ops.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct WireProgram {
    /// Declared registers, in layout order.
    pub registers: Vec<WireRegister>,
    /// Ops, in program order.
    pub ops: Vec<WireOp>,
}

const OP_GATES: u8 = 0;
const OP_HADAMARD: u8 = 1;
const OP_SET_CONSTANT: u8 = 2;
const OP_QFT: u8 = 3;
const OP_IQFT: u8 = 4;
const OP_ADD: u8 = 5;
const OP_MULTIPLY: u8 = 6;
const OP_DIVIDE: u8 = 7;
const OP_ROTATION: u8 = 8;
const OP_MARK_VALUE: u8 = 9;

/// The shortest gate encoding: tag, op tag, target, control count.
const MIN_GATE_BYTES: usize = 5;

const GATE_UNARY: u8 = 0;
const GATE_SWAP: u8 = 1;

const GOP_X: u8 = 0;
const GOP_Y: u8 = 1;
const GOP_Z: u8 = 2;
const GOP_H: u8 = 3;
const GOP_S: u8 = 4;
const GOP_SDG: u8 = 5;
const GOP_T: u8 = 6;
const GOP_TDG: u8 = 7;
const GOP_RX: u8 = 8;
const GOP_RY: u8 = 9;
const GOP_RZ: u8 = 10;
const GOP_PHASE: u8 = 11;
const GOP_U: u8 = 12;

fn put_gate_op(out: &mut Vec<u8>, op: &GateOp) {
    match op {
        GateOp::X => out.push(GOP_X),
        GateOp::Y => out.push(GOP_Y),
        GateOp::Z => out.push(GOP_Z),
        GateOp::H => out.push(GOP_H),
        GateOp::S => out.push(GOP_S),
        GateOp::Sdg => out.push(GOP_SDG),
        GateOp::T => out.push(GOP_T),
        GateOp::Tdg => out.push(GOP_TDG),
        GateOp::Rx(t) => {
            out.push(GOP_RX);
            put_f64(out, *t);
        }
        GateOp::Ry(t) => {
            out.push(GOP_RY);
            put_f64(out, *t);
        }
        GateOp::Rz(t) => {
            out.push(GOP_RZ);
            put_f64(out, *t);
        }
        GateOp::Phase(t) => {
            out.push(GOP_PHASE);
            put_f64(out, *t);
        }
        GateOp::U(m) => {
            out.push(GOP_U);
            for row in m {
                for z in row {
                    put_f64(out, z.re);
                    put_f64(out, z.im);
                }
            }
        }
    }
}

fn read_gate_op(c: &mut Cursor<'_>) -> Result<GateOp, WireError> {
    Ok(match c.u8()? {
        GOP_X => GateOp::X,
        GOP_Y => GateOp::Y,
        GOP_Z => GateOp::Z,
        GOP_H => GateOp::H,
        GOP_S => GateOp::S,
        GOP_SDG => GateOp::Sdg,
        GOP_T => GateOp::T,
        GOP_TDG => GateOp::Tdg,
        GOP_RX => GateOp::Rx(c.f64()?),
        GOP_RY => GateOp::Ry(c.f64()?),
        GOP_RZ => GateOp::Rz(c.f64()?),
        GOP_PHASE => GateOp::Phase(c.f64()?),
        GOP_U => {
            let mut m = [[C64::ZERO; 2]; 2];
            for row in &mut m {
                for z in row {
                    z.re = c.f64()?;
                    z.im = c.f64()?;
                }
            }
            GateOp::U(m)
        }
        _ => return Err(WireError::InvalidGate("unknown gate op tag".into())),
    })
}

fn put_gate(out: &mut Vec<u8>, gate: &Gate) {
    match gate {
        Gate::Unary {
            op,
            target,
            controls,
        } => {
            out.push(GATE_UNARY);
            put_gate_op(out, op);
            put_u16(out, *target as u16);
            out.push(controls.len() as u8);
            for &q in controls {
                put_u16(out, q as u16);
            }
        }
        Gate::Swap { a, b, controls } => {
            out.push(GATE_SWAP);
            put_u16(out, *a as u16);
            put_u16(out, *b as u16);
            out.push(controls.len() as u8);
            for &q in controls {
                put_u16(out, q as u16);
            }
        }
    }
}

fn read_controls(c: &mut Cursor<'_>) -> Result<Vec<usize>, WireError> {
    let n = c.u8()? as usize;
    if n > 16 {
        return Err(WireError::CapExceeded { what: "controls" });
    }
    let mut controls = Vec::with_capacity(n);
    for _ in 0..n {
        controls.push(c.u16()? as usize);
    }
    Ok(controls)
}

fn read_gate(c: &mut Cursor<'_>) -> Result<Gate, WireError> {
    match c.u8()? {
        GATE_UNARY => {
            let op = read_gate_op(c)?;
            let target = c.u16()? as usize;
            let controls = read_controls(c)?;
            Ok(Gate::Unary {
                op,
                target,
                controls,
            })
        }
        GATE_SWAP => {
            let a = c.u16()? as usize;
            let b = c.u16()? as usize;
            let controls = read_controls(c)?;
            Ok(Gate::Swap { a, b, controls })
        }
        _ => Err(WireError::InvalidGate("unknown gate tag".into())),
    }
}

impl WireProgram {
    /// Total qubit count the registers declare.
    pub fn n_qubits(&self) -> usize {
        self.registers.iter().map(|r| r.len as usize).sum()
    }

    /// Serializes the program.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u16(&mut out, self.registers.len() as u16);
        for r in &self.registers {
            put_string(&mut out, &r.name);
            put_u32(&mut out, r.len);
        }
        put_u16(&mut out, self.ops.len() as u16);
        for op in &self.ops {
            match op {
                WireOp::Gates(gates) => {
                    out.push(OP_GATES);
                    put_u32(&mut out, gates.len() as u32);
                    for g in gates {
                        put_gate(&mut out, g);
                    }
                }
                WireOp::Hadamard(r) => {
                    out.push(OP_HADAMARD);
                    put_u16(&mut out, *r);
                }
                WireOp::SetConstant(r, v) => {
                    out.push(OP_SET_CONSTANT);
                    put_u16(&mut out, *r);
                    put_u64(&mut out, *v);
                }
                WireOp::Qft(r) => {
                    out.push(OP_QFT);
                    put_u16(&mut out, *r);
                }
                WireOp::InverseQft(r) => {
                    out.push(OP_IQFT);
                    put_u16(&mut out, *r);
                }
                WireOp::Add { a, b } => {
                    out.push(OP_ADD);
                    put_u16(&mut out, *a);
                    put_u16(&mut out, *b);
                }
                WireOp::Multiply { a, b, c } => {
                    out.push(OP_MULTIPLY);
                    put_u16(&mut out, *a);
                    put_u16(&mut out, *b);
                    put_u16(&mut out, *c);
                }
                WireOp::Divide { a, b, q, r } => {
                    out.push(OP_DIVIDE);
                    put_u16(&mut out, *a);
                    put_u16(&mut out, *b);
                    put_u16(&mut out, *q);
                    put_u16(&mut out, *r);
                }
                WireOp::Rotation {
                    x,
                    target,
                    slope,
                    intercept,
                } => {
                    out.push(OP_ROTATION);
                    put_u16(&mut out, *x);
                    put_u16(&mut out, *target);
                    put_f64(&mut out, *slope);
                    put_f64(&mut out, *intercept);
                }
                WireOp::MarkValue { reg, value, phase } => {
                    out.push(OP_MARK_VALUE);
                    put_u16(&mut out, *reg);
                    put_u64(&mut out, *value);
                    put_f64(&mut out, *phase);
                }
            }
        }
        out
    }

    /// Deserializes a program, bounds-checking every length.
    pub fn decode(bytes: &[u8]) -> Result<WireProgram, WireError> {
        let mut c = Cursor::new(bytes);
        let prog = WireProgram::read(&mut c)?;
        c.finish()?;
        Ok(prog)
    }

    pub(crate) fn read(c: &mut Cursor<'_>) -> Result<WireProgram, WireError> {
        let n_regs = c.u16()? as usize;
        if n_regs > MAX_REGISTERS {
            return Err(WireError::CapExceeded { what: "registers" });
        }
        let mut registers = Vec::with_capacity(n_regs);
        for _ in 0..n_regs {
            let name = c.string()?;
            let len = c.u32()?;
            if len as usize > MAX_WIRE_QUBITS {
                return Err(WireError::CapExceeded {
                    what: "register width",
                });
            }
            registers.push(WireRegister { name, len });
        }
        let n_ops = c.u16()? as usize;
        if n_ops > MAX_OPS {
            return Err(WireError::CapExceeded { what: "ops" });
        }
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            ops.push(match c.u8()? {
                OP_GATES => {
                    let n = c.u32()? as usize;
                    if n > MAX_GATES {
                        return Err(WireError::CapExceeded { what: "gates" });
                    }
                    // Reserve what the rest of the payload can hold, not
                    // what it claims: a short body declaring `MAX_GATES`
                    // gates must not cost a 100 MiB allocation.
                    let mut gates = Vec::with_capacity(n.min(c.remaining() / MIN_GATE_BYTES));
                    for _ in 0..n {
                        gates.push(read_gate(c)?);
                    }
                    WireOp::Gates(gates)
                }
                OP_HADAMARD => WireOp::Hadamard(c.u16()?),
                OP_SET_CONSTANT => WireOp::SetConstant(c.u16()?, c.u64()?),
                OP_QFT => WireOp::Qft(c.u16()?),
                OP_IQFT => WireOp::InverseQft(c.u16()?),
                OP_ADD => WireOp::Add {
                    a: c.u16()?,
                    b: c.u16()?,
                },
                OP_MULTIPLY => WireOp::Multiply {
                    a: c.u16()?,
                    b: c.u16()?,
                    c: c.u16()?,
                },
                OP_DIVIDE => WireOp::Divide {
                    a: c.u16()?,
                    b: c.u16()?,
                    q: c.u16()?,
                    r: c.u16()?,
                },
                OP_ROTATION => WireOp::Rotation {
                    x: c.u16()?,
                    target: c.u16()?,
                    slope: c.f64()?,
                    intercept: c.f64()?,
                },
                OP_MARK_VALUE => WireOp::MarkValue {
                    reg: c.u16()?,
                    value: c.u64()?,
                    phase: c.f64()?,
                },
                _ => return Err(WireError::BadProgram("unknown op tag".into())),
            });
        }
        Ok(WireProgram { registers, ops })
    }

    /// Builds the executable [`QuantumProgram`] from a borrowed program:
    /// [`WireProgram::into_program`] on a clone.
    pub fn to_program(&self) -> Result<QuantumProgram, WireError> {
        self.clone().into_program()
    }

    /// Builds the executable [`QuantumProgram`], validating register
    /// references, widths, and every raw gate (through
    /// [`Circuit::try_from_gates`] — a malformed gate is an error here,
    /// never a panic). The decoded gates move into the program uncopied.
    ///
    /// Two wire programs with identical registers and op *structure*
    /// produce programs with equal
    /// [`structure_hash`](QuantumProgram::structure_hash) even when
    /// rotation coefficients differ — the parameters live in the angle
    /// closure, which the hash deliberately ignores.
    pub fn into_program(self) -> Result<QuantumProgram, WireError> {
        let n_qubits = self.n_qubits();
        if n_qubits > MAX_WIRE_QUBITS {
            return Err(WireError::CapExceeded { what: "qubits" });
        }
        let WireProgram { registers, ops } = self;
        let mut pb = ProgramBuilder::new();
        let ids: Vec<RegisterId> = registers
            .iter()
            .map(|r| pb.register(&r.name, r.len as usize))
            .collect();
        let reg = |idx: u16| -> Result<RegisterId, WireError> {
            ids.get(idx as usize)
                .copied()
                .ok_or(WireError::BadRegisterIndex {
                    index: idx as usize,
                })
        };
        let width = |idx: u16| registers[idx as usize].len as usize;
        for op in ops {
            match op {
                WireOp::Gates(gates) => {
                    let circuit =
                        Circuit::try_from_gates(n_qubits, gates).map_err(WireError::InvalidGate)?;
                    pb.gates(|c| *c = circuit);
                }
                WireOp::Hadamard(r) => {
                    pb.hadamard_all(reg(r)?);
                }
                WireOp::SetConstant(r, v) => {
                    pb.set_constant(reg(r)?, v);
                }
                WireOp::Qft(r) => {
                    pb.qft(reg(r)?);
                }
                WireOp::InverseQft(r) => {
                    pb.inverse_qft(reg(r)?);
                }
                WireOp::Add { a, b } => {
                    let (ra, rb) = (reg(a)?, reg(b)?);
                    let m = width(a);
                    if width(b) != m {
                        return Err(WireError::BadProgram(
                            "add: registers must share a width".into(),
                        ));
                    }
                    pb.classical(qcemu_core::stdops::add(ra, rb, m));
                }
                WireOp::Multiply { a, b, c } => {
                    let (ra, rb, rc) = (reg(a)?, reg(b)?, reg(c)?);
                    let m = width(a);
                    if width(b) != m || width(c) != m {
                        return Err(WireError::BadProgram(
                            "multiply: registers must share a width".into(),
                        ));
                    }
                    pb.classical(qcemu_core::stdops::multiply(ra, rb, rc, m));
                }
                WireOp::Divide { a, b, q, r } => {
                    let (ra, rb, rq, rr) = (reg(a)?, reg(b)?, reg(q)?, reg(r)?);
                    let m = width(a);
                    if width(b) != m || width(q) != m || width(r) != m {
                        return Err(WireError::BadProgram(
                            "divide: registers must share a width".into(),
                        ));
                    }
                    pb.classical(qcemu_core::stdops::divide(ra, rb, rq, rr, m));
                }
                WireOp::Rotation {
                    x,
                    target,
                    slope,
                    intercept,
                } => {
                    let (rx, rt) = (reg(x)?, reg(target)?);
                    if width(target) != 1 {
                        return Err(WireError::BadProgram(
                            "rotation: target register must be one qubit wide".into(),
                        ));
                    }
                    pb.rotation(RotationOp {
                        // Constant name: the parameters must not leak
                        // into the structure hash.
                        name: "wire-rot[affine]".into(),
                        x: rx,
                        target: rt,
                        angle: Arc::new(move |v| slope * v as f64 + intercept),
                        gate_impl: None,
                    });
                }
                WireOp::MarkValue {
                    reg: r,
                    value,
                    phase,
                } => {
                    pb.phase_oracle(qcemu_core::stdops::mark_value(reg(r)?, value, phase));
                }
            }
        }
        pb.build().map_err(|e| WireError::BadProgram(e.to_string()))
    }
}

// ---------------------------------------------------------------------------
// Requests / responses above the program payload.
// ---------------------------------------------------------------------------

/// Per-request execution options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubmitOptions {
    /// Measurement shots to sample from the final state.
    pub shots: u32,
    /// Seed for the shot sampler (deterministic per request).
    pub seed: u64,
    /// Return the full final amplitude vector (2^n pairs of f64 — only
    /// sensible at small n).
    pub want_amplitudes: bool,
}

impl Default for SubmitOptions {
    fn default() -> SubmitOptions {
        SubmitOptions {
            shots: 0,
            seed: 0,
            want_amplitudes: true,
        }
    }
}

impl SubmitOptions {
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        put_u32(out, self.shots);
        put_u64(out, self.seed);
        out.push(u8::from(self.want_amplitudes));
    }

    pub(crate) fn read(c: &mut Cursor<'_>) -> Result<SubmitOptions, WireError> {
        let shots = c.u32()?;
        if shots as usize > MAX_SHOTS {
            return Err(WireError::CapExceeded { what: "shots" });
        }
        let seed = c.u64()?;
        let want_amplitudes = c.u8()? != 0;
        Ok(SubmitOptions {
            shots,
            seed,
            want_amplitudes,
        })
    }
}

/// Encodes a submit request payload (program + options).
pub fn encode_submit(program: &WireProgram, options: &SubmitOptions) -> Vec<u8> {
    let mut out = program.encode();
    options.write(&mut out);
    out
}

/// Decodes a submit request payload.
pub fn decode_submit(bytes: &[u8]) -> Result<(WireProgram, SubmitOptions), WireError> {
    let mut c = Cursor::new(bytes);
    let program = WireProgram::read(&mut c)?;
    let options = SubmitOptions::read(&mut c)?;
    c.finish()?;
    Ok((program, options))
}

/// Which scheduling lane served a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lane {
    /// Below the fast-lane cost bound: ran ahead of queued work.
    Fast,
    /// Queued behind other expensive work.
    Queued,
}

/// One step of the per-request plan audit (the serializable projection
/// of [`qcemu_core::StepReport`]).
#[derive(Clone, Debug, PartialEq)]
pub struct WireStepReport {
    /// Op label.
    pub op: String,
    /// Backend label (e.g. `emulate:classical`).
    pub backend: String,
    /// Model-predicted cost (seconds).
    pub predicted_s: f64,
    /// Measured wall time (seconds).
    pub measured_s: f64,
}

/// A successful run response.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Program qubit count.
    pub n_qubits: u8,
    /// Final amplitudes, when requested.
    pub amplitudes: Option<Vec<C64>>,
    /// Sampled measurement outcomes (basis indices), `shots` of them.
    pub shots: Vec<u64>,
    /// Per-op plan audit: backend, predicted vs measured cost.
    pub report: Vec<WireStepReport>,
    /// Scheduling lane the job ran on.
    pub lane: Lane,
    /// `true` when the job was coalesced into a batched execution with
    /// other structurally identical in-flight requests.
    pub batched: bool,
    /// Ensemble size the job ran in (1 for solo execution).
    pub batch_size: u32,
    /// `true` when the plan came from the warm cross-request cache
    /// (planning and fusion were skipped for this request).
    pub warm: bool,
}

impl RunResult {
    /// Serializes the response payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.n_qubits);
        match &self.amplitudes {
            Some(amps) => {
                out.push(1);
                put_u32(&mut out, amps.len() as u32);
                for z in amps {
                    put_f64(&mut out, z.re);
                    put_f64(&mut out, z.im);
                }
            }
            None => out.push(0),
        }
        put_u32(&mut out, self.shots.len() as u32);
        for &s in &self.shots {
            put_u64(&mut out, s);
        }
        put_u16(&mut out, self.report.len() as u16);
        for step in &self.report {
            put_string(&mut out, &step.op);
            put_string(&mut out, &step.backend);
            put_f64(&mut out, step.predicted_s);
            put_f64(&mut out, step.measured_s);
        }
        out.push(match self.lane {
            Lane::Fast => 0,
            Lane::Queued => 1,
        });
        out.push(u8::from(self.batched));
        put_u32(&mut out, self.batch_size);
        out.push(u8::from(self.warm));
        out
    }

    /// Deserializes the response payload.
    pub fn decode(bytes: &[u8]) -> Result<RunResult, WireError> {
        let mut c = Cursor::new(bytes);
        let n_qubits = c.u8()?;
        let amplitudes = match c.u8()? {
            0 => None,
            _ => {
                let n = c.u32()? as usize;
                if n > (1 << MAX_WIRE_QUBITS) {
                    return Err(WireError::CapExceeded { what: "amplitudes" });
                }
                let mut amps = Vec::with_capacity(n);
                for _ in 0..n {
                    let re = c.f64()?;
                    let im = c.f64()?;
                    amps.push(C64 { re, im });
                }
                Some(amps)
            }
        };
        let n_shots = c.u32()? as usize;
        if n_shots > MAX_SHOTS {
            return Err(WireError::CapExceeded { what: "shots" });
        }
        let shots = (0..n_shots).map(|_| c.u64()).collect::<Result<_, _>>()?;
        let n_steps = c.u16()? as usize;
        let mut report = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            report.push(WireStepReport {
                op: c.string()?,
                backend: c.string()?,
                predicted_s: c.f64()?,
                measured_s: c.f64()?,
            });
        }
        let lane = match c.u8()? {
            0 => Lane::Fast,
            _ => Lane::Queued,
        };
        let batched = c.u8()? != 0;
        let batch_size = c.u32()?;
        let warm = c.u8()? != 0;
        c.finish()?;
        Ok(RunResult {
            n_qubits,
            amplitudes,
            shots,
            report,
            lane,
            batched,
            batch_size,
            warm,
        })
    }
}

/// Daemon counters, as served to clients.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Submit requests received (including rejected ones).
    pub requests: u64,
    /// Requests executed to completion.
    pub served: u64,
    /// Rejections: qubit bound.
    pub rejected_qubits: u64,
    /// Rejections: cost budget.
    pub rejected_cost: u64,
    /// Rejections: queue overflow.
    pub rejected_queue_full: u64,
    /// Requests that failed to decode or validate.
    pub malformed: u64,
    /// Admitted jobs whose execution failed.
    pub exec_failures: u64,
    /// Jobs that took the fast lane.
    pub fast_lane: u64,
    /// Jobs that were queued.
    pub queued: u64,
    /// Jobs served as part of a coalesced batch.
    pub batched_requests: u64,
    /// Coalesced batch executions.
    pub batches: u64,
    /// Jobs currently waiting or running.
    pub queue_depth: u64,
    /// Plan-cache hits (cross-request, structure-keyed).
    pub plan_hits: u64,
    /// Plan-cache misses (one fresh lowering each).
    pub plan_misses: u64,
    /// Plan-cache evictions under the capacity bound.
    pub plan_evictions: u64,
    /// Structures currently cached.
    pub plan_entries: u64,
    /// Worker-pool jobs dispatched (process-wide; `rayon::pool::stats`).
    pub pool_tasks_dispatched: u64,
    /// Worker-pool index blocks claimed beyond a participant's first —
    /// the dynamic-handoff rebalancing counter.
    pub pool_blocks_stolen: u64,
    /// Worker-pool condvar parks (a worker exhausted its spin budget).
    pub pool_parks: u64,
    /// Worker-pool condvar wake-ups.
    pub pool_wakeups: u64,
    /// Peak simultaneous participants (workers + callers) in any job.
    pub pool_peak_workers: u64,
}

impl StatsSnapshot {
    /// Serializes the counters.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for v in self.fields() {
            put_u64(&mut out, v);
        }
        out
    }

    /// Deserializes the counters.
    pub fn decode(bytes: &[u8]) -> Result<StatsSnapshot, WireError> {
        let mut c = Cursor::new(bytes);
        let mut s = StatsSnapshot::default();
        for f in s.fields_mut() {
            *f = c.u64()?;
        }
        c.finish()?;
        Ok(s)
    }

    fn fields(&self) -> [u64; 21] {
        [
            self.requests,
            self.served,
            self.rejected_qubits,
            self.rejected_cost,
            self.rejected_queue_full,
            self.malformed,
            self.exec_failures,
            self.fast_lane,
            self.queued,
            self.batched_requests,
            self.batches,
            self.queue_depth,
            self.plan_hits,
            self.plan_misses,
            self.plan_evictions,
            self.plan_entries,
            self.pool_tasks_dispatched,
            self.pool_blocks_stolen,
            self.pool_parks,
            self.pool_wakeups,
            self.pool_peak_workers,
        ]
    }

    fn fields_mut(&mut self) -> [&mut u64; 21] {
        [
            &mut self.requests,
            &mut self.served,
            &mut self.rejected_qubits,
            &mut self.rejected_cost,
            &mut self.rejected_queue_full,
            &mut self.malformed,
            &mut self.exec_failures,
            &mut self.fast_lane,
            &mut self.queued,
            &mut self.batched_requests,
            &mut self.batches,
            &mut self.queue_depth,
            &mut self.plan_hits,
            &mut self.plan_misses,
            &mut self.plan_evictions,
            &mut self.plan_entries,
            &mut self.pool_tasks_dispatched,
            &mut self.pool_blocks_stolen,
            &mut self.pool_parks,
            &mut self.pool_wakeups,
            &mut self.pool_peak_workers,
        ]
    }
}

/// Encodes an error frame payload.
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = vec![code as u8];
    put_string(&mut out, message);
    out
}

/// Decodes an error frame payload.
pub fn decode_error(bytes: &[u8]) -> Result<(ErrorCode, String), WireError> {
    let mut c = Cursor::new(bytes);
    let code = ErrorCode::from_u8(c.u8()?)?;
    let message = c.string()?;
    c.finish()?;
    Ok((code, message))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> WireProgram {
        WireProgram {
            registers: vec![
                WireRegister {
                    name: "a".into(),
                    len: 3,
                },
                WireRegister {
                    name: "ind".into(),
                    len: 1,
                },
            ],
            ops: vec![
                WireOp::Hadamard(0),
                WireOp::Gates(vec![
                    Gate::x(0),
                    Gate::cnot(0, 1),
                    Gate::unary(GateOp::Rz(0.25), 2),
                ]),
                WireOp::Rotation {
                    x: 0,
                    target: 1,
                    slope: 0.1,
                    intercept: 0.05,
                },
                WireOp::Qft(0),
            ],
        }
    }

    #[test]
    fn program_roundtrips() {
        let p = sample_program();
        let decoded = WireProgram::decode(&p.encode()).unwrap();
        assert_eq!(p, decoded);
        decoded.to_program().unwrap();
    }

    #[test]
    fn frame_roundtrips_over_a_buffer() {
        let payload = encode_submit(&sample_program(), &SubmitOptions::default());
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Submit, &payload).unwrap();
        let (kind, got) = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(kind, FrameKind::Submit);
        assert_eq!(got, payload);
        let (prog, opts) = decode_submit(&got).unwrap();
        assert_eq!(prog, sample_program());
        assert_eq!(opts, SubmitOptions::default());
    }

    #[test]
    fn truncated_and_corrupted_frames_error_cleanly() {
        let payload = encode_submit(&sample_program(), &SubmitOptions::default());
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Submit, &payload).unwrap();
        // Truncation at every prefix length must be an error (or a clean
        // EOF at 0), never a panic.
        for cut in 0..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Ok(None) if cut == 0 => {}
                Ok(None) | Ok(Some(_)) => panic!("prefix {cut} decoded"),
                Err(_) => {}
            }
        }
        // A flipped payload byte fails the checksum.
        let mut corrupt = buf.clone();
        corrupt[10] ^= 0xff;
        assert!(matches!(
            read_frame(&mut corrupt.as_slice()),
            Err(WireError::ChecksumMismatch) | Err(WireError::BadKind { .. })
        ));
    }

    #[test]
    fn structure_hash_is_shared_across_parameter_variants() {
        let mut a = sample_program();
        let mut b = sample_program();
        if let WireOp::Rotation { slope, .. } = &mut a.ops[2] {
            *slope = 0.9;
        }
        if let WireOp::Rotation { intercept, .. } = &mut b.ops[2] {
            *intercept = 1.7;
        }
        let pa = a.to_program().unwrap();
        let pb = b.to_program().unwrap();
        assert_eq!(pa.structure_hash(), pb.structure_hash());
        // Both equal the unmodified program's, built either way.
        let base = sample_program().into_program().unwrap().structure_hash();
        assert_eq!(pa.structure_hash(), base);
        assert_eq!(b.into_program().unwrap().structure_hash(), base);
        // A raw gate's angle, unlike a rotation's parameters, is structure.
        let mut c = sample_program();
        if let WireOp::Gates(gates) = &mut c.ops[1] {
            gates[2] = Gate::unary(GateOp::Rz(-0.25), 2);
        }
        assert_ne!(c.into_program().unwrap().structure_hash(), base);
    }

    #[test]
    fn invalid_gates_and_register_refs_are_typed_errors() {
        let mut p = sample_program();
        p.ops[1] = WireOp::Gates(vec![Gate::x(99)]);
        assert!(matches!(p.to_program(), Err(WireError::InvalidGate(_))));
        let mut p = sample_program();
        p.ops[0] = WireOp::Hadamard(7);
        assert!(matches!(
            p.to_program(),
            Err(WireError::BadRegisterIndex { index: 7 })
        ));
        let mut p = sample_program();
        p.ops[2] = WireOp::Rotation {
            x: 0,
            target: 0, // 3 qubits wide: invalid target
            slope: 0.1,
            intercept: 0.0,
        };
        assert!(matches!(p.to_program(), Err(WireError::BadProgram(_))));
    }

    #[test]
    fn run_result_and_stats_roundtrip() {
        let result = RunResult {
            n_qubits: 4,
            amplitudes: Some(vec![C64 { re: 0.5, im: -0.5 }; 16]),
            shots: vec![3, 9, 3],
            report: vec![WireStepReport {
                op: "qft 'a'".into(),
                backend: "emulate:fft".into(),
                predicted_s: 1e-4,
                measured_s: 2e-4,
            }],
            lane: Lane::Fast,
            batched: true,
            batch_size: 4,
            warm: true,
        };
        assert_eq!(RunResult::decode(&result.encode()).unwrap(), result);
        let stats = StatsSnapshot {
            requests: 10,
            served: 8,
            plan_misses: 1,
            plan_hits: 7,
            pool_tasks_dispatched: 420,
            pool_blocks_stolen: 37,
            pool_parks: 5,
            pool_wakeups: 6,
            pool_peak_workers: 4,
            ..StatsSnapshot::default()
        };
        assert_eq!(StatsSnapshot::decode(&stats.encode()).unwrap(), stats);
        // A truncated (pre-pool, 16-field) frame must be rejected, not
        // zero-filled: the strict length check is the wire contract.
        let short = &stats.encode()[..16 * 8];
        assert!(StatsSnapshot::decode(short).is_err());
        let (code, msg) = decode_error(&encode_error(ErrorCode::QueueFull, "q")).unwrap();
        assert_eq!(code, ErrorCode::QueueFull);
        assert_eq!(msg, "q");
    }
}
