//! The high-level quantum program IR.
//!
//! The paper's central observation: emulation is possible "if the quantum
//! program is available in a high-level language, where the higher levels
//! of abstractions are easy to identify" (§5). This module is that
//! language: a program is a sequence of [`HighLevelOp`]s over named
//! registers — raw gates, classical functions, QFTs and phase estimations —
//! which either executor ([`crate::executor::GateLevelSimulator`] or
//! [`crate::executor::Emulator`]) can run.

use crate::error::EmuError;
use qcemu_sim::{Circuit, Gate};
use std::fmt;
use std::sync::Arc;

/// Handle to a register within a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RegisterId(pub(crate) usize);

/// A named, contiguous qubit register.
#[derive(Clone, Debug)]
pub struct ProgramRegister {
    /// Human-readable name.
    pub name: String,
    /// First qubit.
    pub offset: usize,
    /// Width in qubits.
    pub len: usize,
}

impl ProgramRegister {
    /// Qubit indices, LSB of the value first.
    pub fn bits(&self) -> Vec<usize> {
        (self.offset..self.offset + self.len).collect()
    }

    /// Extracts this register's value from a basis index.
    #[inline]
    pub fn value_of(&self, basis_index: usize) -> u64 {
        ((basis_index >> self.offset) as u64) & self.mask()
    }

    /// Value mask.
    #[inline]
    pub fn mask(&self) -> u64 {
        if self.len >= 64 {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        }
    }
}

/// How a classical map treats its registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapKind {
    /// `f` is a bijection on the joint value space of all listed registers
    /// (e.g. `(a, b, c) ↦ (a, b, c + a·b)`).
    InPlaceBijection,
    /// The last `n_targets` registers must be |0⟩ on input; `f` computes
    /// their values from the earlier registers (e.g. division writing
    /// quotient and remainder). Injectivity is then automatic.
    ZeroInitializedTargets {
        /// How many trailing registers are outputs.
        n_targets: usize,
    },
}

/// The body of a [`ClassicalMap`]: overwrites register values in place.
pub type RegisterMap = dyn Fn(&mut [u64]) + Send + Sync;

/// The predicate of a [`PhaseOracle`], over register values.
pub type RegisterPredicate = dyn Fn(&[u64]) -> bool + Send + Sync;

/// A classical function operating on register values.
///
/// `f` receives the current values of `regs` (in order) and overwrites them
/// with the mapped values. The emulator applies it directly to basis-state
/// labels (paper §3.1); the simulator needs `gate_impl`.
#[derive(Clone)]
pub struct ClassicalMap {
    /// Display name (also used in error messages).
    pub name: String,
    /// Registers the map reads/writes.
    pub regs: Vec<RegisterId>,
    /// The function itself.
    pub f: Arc<RegisterMap>,
    /// Reversibility contract.
    pub kind: MapKind,
    /// Optional reversible gate-level implementation.
    pub gate_impl: Option<GateImpl>,
}

impl fmt::Debug for ClassicalMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassicalMap")
            .field("name", &self.name)
            .field("regs", &self.regs)
            .field("kind", &self.kind)
            .field("has_gate_impl", &self.gate_impl.is_some())
            .finish()
    }
}

/// A reversible gate-level implementation of a classical map.
///
/// The circuit addresses the *program's* qubits at their real positions
/// plus `n_ancilla` work qubits appended above the program space — the
/// "additional work qubits" whose exponential simulation cost the emulator
/// avoids (paper §3.1). Construction is deferred (`build`) because ancilla
/// positions are only known once the whole program is laid out.
#[derive(Clone)]
pub struct GateImpl {
    /// Work qubits beyond the architectural registers; must be |0⟩ before
    /// and after.
    pub n_ancilla: usize,
    /// Builds the circuit over `program.n_qubits() + n_ancilla` qubits;
    /// ancilla `k` is qubit `program.n_qubits() + k`.
    pub build: Arc<dyn Fn(&QuantumProgram) -> Circuit + Send + Sync>,
}

impl fmt::Debug for GateImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GateImpl")
            .field("n_ancilla", &self.n_ancilla)
            .finish()
    }
}

/// A classical-predicate phase: multiplies the amplitude of every basis
/// state whose register values satisfy `predicate` by `e^{i·phase}` — the
/// diagonal cousin of [`ClassicalMap`] (Grover oracles, marked-state
/// reflections). Emulation is a single conditional scan; simulation needs
/// a gate-level implementation.
#[derive(Clone)]
pub struct PhaseOracle {
    /// Display name.
    pub name: String,
    /// Registers the predicate reads.
    pub regs: Vec<RegisterId>,
    /// The predicate over register values (in `regs` order).
    pub predicate: Arc<RegisterPredicate>,
    /// Phase angle θ (π = the Grover sign flip).
    pub phase: f64,
    /// Optional gate-level implementation.
    pub gate_impl: Option<GateImpl>,
}

impl fmt::Debug for PhaseOracle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhaseOracle")
            .field("name", &self.name)
            .field("regs", &self.regs)
            .field("phase", &self.phase)
            .field("has_gate_impl", &self.gate_impl.is_some())
            .finish()
    }
}

/// A register-controlled rotation `|x⟩|t⟩ ↦ |x⟩ Ry(θ(x))|t⟩` — the
/// amplitude-encoding step of quantum Monte Carlo (paper §5's "quantum
/// accelerated Monte Carlo sampling"). The emulator applies one 2×2
/// rotation per basis pair with a classically computed angle; a gate-level
/// compilation needs one multi-controlled rotation per register value (or
/// comparator networks with ancillas) — exponential either way.
#[derive(Clone)]
pub struct RotationOp {
    /// Display name.
    pub name: String,
    /// The control register whose value parameterises the angle.
    pub x: RegisterId,
    /// The rotated register; must be exactly one qubit wide.
    pub target: RegisterId,
    /// The angle function θ(x).
    pub angle: Arc<dyn Fn(u64) -> f64 + Send + Sync>,
    /// Optional gate-level implementation override; when absent the
    /// simulator falls back to the generic per-value multi-controlled-Ry
    /// expansion.
    pub gate_impl: Option<GateImpl>,
}

impl fmt::Debug for RotationOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RotationOp")
            .field("name", &self.name)
            .field("x", &self.x)
            .field("target", &self.target)
            .finish()
    }
}

/// Quantum phase estimation over a target register (paper §3.3).
#[derive(Clone, Debug)]
pub struct QpeOp {
    /// The unitary `U`, as a circuit over the target register's qubits
    /// (indices `0..target.len`, remapped internally).
    pub unitary: Circuit,
    /// The register holding (a superposition of) eigenvectors of `U`.
    pub target: RegisterId,
    /// The `b`-bit output register; must be |0⟩ on input. After the op it
    /// carries the phase estimate: measuring yields `x` with the Fejér-like
    /// QPE distribution around `2^b·θ/2π`.
    pub phase: RegisterId,
}

/// One step of a quantum program.
#[derive(Clone, Debug)]
pub enum HighLevelOp {
    /// Raw gates on absolute program qubits.
    Gates(Circuit),
    /// Classical function on registers (paper §3.1).
    Classical(ClassicalMap),
    /// Classical-predicate phase (diagonal oracle).
    Phase(PhaseOracle),
    /// Register-controlled Ry rotation (amplitude encoding).
    Rotation(RotationOp),
    /// QFT on one register (paper §3.2, Eq. 4 convention).
    Qft(RegisterId),
    /// Inverse QFT on one register.
    InverseQft(RegisterId),
    /// Phase estimation (paper §3.3).
    Qpe(QpeOp),
}

/// A complete program: registers plus an op sequence.
#[derive(Clone, Debug)]
pub struct QuantumProgram {
    registers: Vec<ProgramRegister>,
    n_qubits: usize,
    ops: Vec<HighLevelOp>,
    /// Lazily computed [`QuantumProgram::structure_hash`], shared by
    /// clones (programs are immutable after `build`, so one walk
    /// suffices for the instance's lifetime).
    structure_hash: Arc<std::sync::OnceLock<u64>>,
}

impl QuantumProgram {
    /// Total architectural qubits (ancillas used by gate-level lowering of
    /// classical maps are *not* counted — they exist only on the simulator
    /// path).
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Register table.
    pub fn registers(&self) -> &[ProgramRegister] {
        &self.registers
    }

    /// Looks up a register.
    pub fn register(&self, id: RegisterId) -> &ProgramRegister {
        &self.registers[id.0]
    }

    /// The op sequence.
    pub fn ops(&self) -> &[HighLevelOp] {
        &self.ops
    }

    /// `true` if every op has a gate-level path.
    pub fn fully_simulable(&self) -> bool {
        self.ops.iter().all(|op| match op {
            HighLevelOp::Classical(cm) => cm.gate_impl.is_some(),
            HighLevelOp::Phase(po) => po.gate_impl.is_some(),
            _ => true,
        })
    }

    /// Hash of the program's *structure*: registers, op sequence, gate
    /// lists (angles by exact bit pattern), op names, map kinds, and
    /// gate-impl ancilla counts. Two programs with different structure
    /// hash differently (up to collisions); closures are opaque and
    /// represented by their op names only.
    ///
    /// This is the plan-cache key
    /// ([`SharedPlanCache`](crate::plancache::SharedPlanCache)): an
    /// [`ExecutionPlan`](crate::planner::ExecutionPlan) holds nothing
    /// built from a closure, so it serves every program of equal hash.
    ///
    /// The walk is paid once per built program (memoised, shared by
    /// clones) — repeated `run()`s on the cache-hit path cost one atomic
    /// load, not a re-hash of every gate.
    pub fn structure_hash(&self) -> u64 {
        *self
            .structure_hash
            .get_or_init(|| self.compute_structure_hash())
    }

    fn compute_structure_hash(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.n_qubits.hash(&mut h);
        for r in &self.registers {
            r.name.hash(&mut h);
            r.offset.hash(&mut h);
            r.len.hash(&mut h);
        }
        for op in &self.ops {
            std::mem::discriminant(op).hash(&mut h);
            match op {
                HighLevelOp::Gates(c) => hash_circuit(c, &mut h),
                HighLevelOp::Classical(cm) => {
                    cm.name.hash(&mut h);
                    cm.regs.hash(&mut h);
                    std::mem::discriminant(&cm.kind).hash(&mut h);
                    if let MapKind::ZeroInitializedTargets { n_targets } = cm.kind {
                        n_targets.hash(&mut h);
                    }
                    hash_gate_impl(&cm.gate_impl, &mut h);
                }
                HighLevelOp::Phase(po) => {
                    po.name.hash(&mut h);
                    po.regs.hash(&mut h);
                    po.phase.to_bits().hash(&mut h);
                    hash_gate_impl(&po.gate_impl, &mut h);
                }
                HighLevelOp::Rotation(ro) => {
                    ro.name.hash(&mut h);
                    ro.x.hash(&mut h);
                    ro.target.hash(&mut h);
                    hash_gate_impl(&ro.gate_impl, &mut h);
                }
                HighLevelOp::Qft(r) | HighLevelOp::InverseQft(r) => r.hash(&mut h),
                HighLevelOp::Qpe(qpe) => {
                    qpe.target.hash(&mut h);
                    qpe.phase.hash(&mut h);
                    hash_circuit(&qpe.unitary, &mut h);
                }
            }
        }
        h.finish()
    }
}

/// Hashes a circuit as one canonical byte string, with rotation angles
/// and custom-unitary entries taken by exact `f64` bit pattern.
///
/// Each gate encodes as its kind tag, its op tag and that op's parameters,
/// then its qubits with the controls length-prefixed, so the string splits
/// back into gates one way only: equal hashes still mean equal gate lists
/// (up to collisions). The bytes reach the hasher through a fixed stack
/// buffer, a few large writes instead of ~8 small `Hash` calls per gate.
fn hash_circuit(c: &Circuit, h: &mut impl std::hash::Hasher) {
    let mut out = HashBuffer {
        h,
        buf: [0; 256],
        len: 0,
    };
    out.usize(c.n_qubits());
    for gate in c.gates() {
        match gate {
            Gate::Unary {
                op,
                target,
                controls,
            } => {
                use qcemu_sim::GateOp;
                let (tag, angle) = match op {
                    GateOp::X => (0, None),
                    GateOp::Y => (1, None),
                    GateOp::Z => (2, None),
                    GateOp::H => (3, None),
                    GateOp::S => (4, None),
                    GateOp::Sdg => (5, None),
                    GateOp::T => (6, None),
                    GateOp::Tdg => (7, None),
                    GateOp::Rx(t) => (8, Some(t)),
                    GateOp::Ry(t) => (9, Some(t)),
                    GateOp::Rz(t) => (10, Some(t)),
                    GateOp::Phase(t) => (11, Some(t)),
                    GateOp::U(_) => (12, None),
                };
                out.bytes(&[0, tag]);
                if let Some(t) = angle {
                    out.bytes(&t.to_bits().to_le_bytes());
                }
                if let GateOp::U(m) = op {
                    for z in m.iter().flatten() {
                        out.bytes(&z.re.to_bits().to_le_bytes());
                        out.bytes(&z.im.to_bits().to_le_bytes());
                    }
                }
                out.usize(*target);
                out.qubits(controls);
            }
            Gate::Swap { a, b, controls } => {
                out.bytes(&[1]);
                out.usize(*a);
                out.usize(*b);
                out.qubits(controls);
            }
        }
    }
    out.flush();
}

/// [`hash_circuit`]'s staging buffer: bytes are written to the hasher
/// only when the buffer fills, and once more at the end.
struct HashBuffer<'h, H: std::hash::Hasher> {
    h: &'h mut H,
    buf: [u8; 256],
    len: usize,
}

impl<H: std::hash::Hasher> HashBuffer<'_, H> {
    fn bytes(&mut self, bytes: &[u8]) {
        if self.len + bytes.len() > self.buf.len() {
            self.flush();
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn usize(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }

    /// A length-prefixed qubit list.
    fn qubits(&mut self, qs: &[usize]) {
        self.usize(qs.len());
        for &q in qs {
            self.usize(q);
        }
    }

    fn flush(&mut self) {
        self.h.write(&self.buf[..self.len]);
        self.len = 0;
    }
}

/// Hashes a gate impl's observable surface (presence + ancilla count —
/// the builder closure itself is opaque).
fn hash_gate_impl(gi: &Option<GateImpl>, h: &mut impl std::hash::Hasher) {
    use std::hash::Hash;
    match gi {
        None => 0u8.hash(h),
        Some(gi) => {
            1u8.hash(h);
            gi.n_ancilla.hash(h);
        }
    }
}

/// Builder for [`QuantumProgram`]s.
#[derive(Default)]
pub struct ProgramBuilder {
    registers: Vec<ProgramRegister>,
    next_qubit: usize,
    ops: Vec<HighLevelOp>,
}

impl ProgramBuilder {
    /// Empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Allocates a named register of `len` qubits.
    pub fn register(&mut self, name: &str, len: usize) -> RegisterId {
        assert!(len >= 1, "empty register '{name}'");
        let id = RegisterId(self.registers.len());
        self.registers.push(ProgramRegister {
            name: name.to_string(),
            offset: self.next_qubit,
            len,
        });
        self.next_qubit += len;
        id
    }

    /// Current total qubit count.
    pub fn n_qubits(&self) -> usize {
        self.next_qubit
    }

    /// Appends a raw-gate op built through a closure.
    pub fn gates(&mut self, build: impl FnOnce(&mut Circuit)) -> &mut Self {
        let mut c = Circuit::new(self.next_qubit);
        build(&mut c);
        self.ops.push(HighLevelOp::Gates(c));
        self
    }

    /// Hadamard on every qubit of a register (uniform superposition prep).
    pub fn hadamard_all(&mut self, reg: RegisterId) -> &mut Self {
        let bits = self.registers[reg.0].bits();
        self.gates(|c| {
            for q in bits {
                c.push(Gate::h(q));
            }
        })
    }

    /// X gates writing a classical constant into a (|0⟩) register.
    pub fn set_constant(&mut self, reg: RegisterId, value: u64) -> &mut Self {
        let r = self.registers[reg.0].clone();
        self.gates(|c| {
            for j in 0..r.len {
                if (value >> j) & 1 == 1 {
                    c.push(Gate::x(r.offset + j));
                }
            }
        })
    }

    /// Appends a classical map op.
    pub fn classical(&mut self, map: ClassicalMap) -> &mut Self {
        self.ops.push(HighLevelOp::Classical(map));
        self
    }

    /// Appends a phase-oracle op.
    pub fn phase_oracle(&mut self, oracle: PhaseOracle) -> &mut Self {
        self.ops.push(HighLevelOp::Phase(oracle));
        self
    }

    /// Appends a register-controlled rotation op.
    pub fn rotation(&mut self, op: RotationOp) -> &mut Self {
        self.ops.push(HighLevelOp::Rotation(op));
        self
    }

    /// Appends a QFT on `reg`.
    pub fn qft(&mut self, reg: RegisterId) -> &mut Self {
        self.ops.push(HighLevelOp::Qft(reg));
        self
    }

    /// Appends an inverse QFT on `reg`.
    pub fn inverse_qft(&mut self, reg: RegisterId) -> &mut Self {
        self.ops.push(HighLevelOp::InverseQft(reg));
        self
    }

    /// Appends a phase estimation op.
    pub fn qpe(&mut self, op: QpeOp) -> &mut Self {
        self.ops.push(HighLevelOp::Qpe(op));
        self
    }

    /// Appends an arbitrary op.
    pub fn op(&mut self, op: HighLevelOp) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Finalises the program, validating register/op consistency.
    pub fn build(self) -> Result<QuantumProgram, EmuError> {
        let program = QuantumProgram {
            registers: self.registers,
            n_qubits: self.next_qubit,
            ops: self.ops,
            structure_hash: Arc::new(std::sync::OnceLock::new()),
        };
        program.validate()?;
        Ok(program)
    }
}

impl QuantumProgram {
    fn validate(&self) -> Result<(), EmuError> {
        let bad = |reason: String| Err(EmuError::BadRegister { reason });
        for op in &self.ops {
            match op {
                HighLevelOp::Gates(c) => {
                    if c.n_qubits() > self.n_qubits {
                        return bad(format!(
                            "gate block addresses {} qubits, program has {}",
                            c.n_qubits(),
                            self.n_qubits
                        ));
                    }
                }
                HighLevelOp::Classical(cm) => {
                    let mut seen = std::collections::HashSet::new();
                    for r in &cm.regs {
                        if r.0 >= self.registers.len() {
                            return bad(format!("op '{}' uses unknown register", cm.name));
                        }
                        if !seen.insert(r.0) {
                            return bad(format!("op '{}' lists a register twice", cm.name));
                        }
                    }
                    if let MapKind::ZeroInitializedTargets { n_targets } = cm.kind {
                        if n_targets == 0 || n_targets > cm.regs.len() {
                            return bad(format!("op '{}': bad target count", cm.name));
                        }
                    }
                    if let Some(gi) = &cm.gate_impl {
                        let circuit = (gi.build)(self);
                        if circuit.n_qubits() > self.n_qubits + gi.n_ancilla {
                            return bad(format!(
                                "op '{}': gate impl addresses {} qubits, max is {}",
                                cm.name,
                                circuit.n_qubits(),
                                self.n_qubits + gi.n_ancilla
                            ));
                        }
                    }
                }
                HighLevelOp::Phase(po) => {
                    for r in &po.regs {
                        if r.0 >= self.registers.len() {
                            return bad(format!("oracle '{}' uses unknown register", po.name));
                        }
                    }
                }
                HighLevelOp::Rotation(ro) => {
                    if ro.x.0 >= self.registers.len() || ro.target.0 >= self.registers.len() {
                        return bad(format!("rotation '{}' uses unknown register", ro.name));
                    }
                    if ro.x == ro.target {
                        return bad(format!("rotation '{}': x and target must differ", ro.name));
                    }
                    if self.register(ro.target).len != 1 {
                        return bad(format!(
                            "rotation '{}': target register must be one qubit",
                            ro.name
                        ));
                    }
                }
                HighLevelOp::Qft(r) | HighLevelOp::InverseQft(r) => {
                    if r.0 >= self.registers.len() {
                        return bad("QFT on unknown register".into());
                    }
                }
                HighLevelOp::Qpe(qpe) => {
                    if qpe.target.0 >= self.registers.len() || qpe.phase.0 >= self.registers.len() {
                        return bad("QPE on unknown register".into());
                    }
                    if qpe.target == qpe.phase {
                        return bad("QPE target and phase registers must differ".into());
                    }
                    let t = self.register(qpe.target);
                    if qpe.unitary.n_qubits() > t.len {
                        return Err(EmuError::BadUnitary {
                            reason: format!(
                                "unitary addresses {} qubits, target register has {}",
                                qpe.unitary.n_qubits(),
                                t.len
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_allocates_contiguous_registers() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 3);
        let b = pb.register("b", 2);
        assert_eq!(pb.n_qubits(), 5);
        let prog = pb.build().unwrap();
        assert_eq!(prog.register(a).offset, 0);
        assert_eq!(prog.register(b).offset, 3);
        assert_eq!(prog.register(b).bits(), vec![3, 4]);
    }

    #[test]
    fn register_value_extraction() {
        let r = ProgramRegister {
            name: "x".into(),
            offset: 2,
            len: 3,
        };
        assert_eq!(r.value_of(0b10100), 0b101);
        assert_eq!(r.mask(), 0b111);
    }

    #[test]
    fn gates_and_constants() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 4);
        pb.set_constant(a, 0b1010);
        pb.hadamard_all(a);
        let prog = pb.build().unwrap();
        assert_eq!(prog.ops().len(), 2);
        match &prog.ops()[0] {
            HighLevelOp::Gates(c) => assert_eq!(c.gate_count(), 2), // two X gates
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_oversized_gate_block() {
        let mut pb = ProgramBuilder::new();
        let _a = pb.register("a", 2);
        pb.op(HighLevelOp::Gates(Circuit::new(5)));
        assert!(matches!(pb.build(), Err(EmuError::BadRegister { .. })));
    }

    #[test]
    fn validation_rejects_duplicate_map_registers() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 2);
        pb.classical(ClassicalMap {
            name: "dup".into(),
            regs: vec![a, a],
            f: Arc::new(|_| {}),
            kind: MapKind::InPlaceBijection,
            gate_impl: None,
        });
        assert!(pb.build().is_err());
    }

    #[test]
    fn validation_rejects_qpe_register_clash() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 2);
        pb.qpe(QpeOp {
            unitary: Circuit::new(2),
            target: a,
            phase: a,
        });
        assert!(pb.build().is_err());
    }

    #[test]
    fn validation_rejects_oversized_unitary() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 2);
        let p = pb.register("p", 3);
        pb.qpe(QpeOp {
            unitary: Circuit::new(4), // bigger than target register
            target: a,
            phase: p,
        });
        assert!(matches!(pb.build(), Err(EmuError::BadUnitary { .. })));
    }

    #[test]
    fn ancilla_accounting() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 2);
        pb.classical(ClassicalMap {
            name: "withanc".into(),
            regs: vec![a],
            f: Arc::new(|_| {}),
            kind: MapKind::InPlaceBijection,
            gate_impl: Some(GateImpl {
                n_ancilla: 3,
                build: Arc::new(|_| Circuit::new(5)),
            }),
        });
        let prog = pb.build().unwrap();
        assert!(prog.fully_simulable());
        // The work qubits are the simulated step's own.
        use crate::planner::{plan, Policy};
        let model = crate::crossover::CostModel::default();
        let config = qcemu_sim::SimConfig::unfused();
        let simulated = plan(&prog, &model, &config, Policy::Simulate);
        assert_eq!(simulated.steps()[0].n_ancilla, 3);
        assert_eq!(simulated.n_ancilla(), 3);
    }

    #[test]
    fn structure_hash_is_stable_and_discriminating() {
        let build = |theta: f64| {
            let mut pb = ProgramBuilder::new();
            let a = pb.register("a", 3);
            pb.hadamard_all(a);
            pb.gates(|c| {
                c.push(Gate::rz(1, theta));
            });
            pb.qft(a);
            pb.build().unwrap()
        };
        let p1 = build(0.25);
        let p2 = build(0.25);
        let p3 = build(0.75);
        // Deterministic, the same for every build, and clone-stable.
        assert_eq!(p1.structure_hash(), p1.structure_hash());
        assert_eq!(p1.structure_hash(), p1.clone().structure_hash());
        assert_eq!(p1.structure_hash(), p2.structure_hash());
        // An angle change (exact bit pattern) changes the hash.
        assert_ne!(p1.structure_hash(), p3.structure_hash());
        // So does an op-sequence change.
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 3);
        pb.hadamard_all(a);
        let p4 = pb.build().unwrap();
        assert_ne!(p1.structure_hash(), p4.structure_hash());
    }

    #[test]
    fn structure_hash_sees_every_field_of_every_gate() {
        use qcemu_linalg::C64;
        use qcemu_sim::GateOp;
        let u = GateOp::U([[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]]);
        let base: Vec<Gate> = (0..1200)
            .map(|i| match i % 4 {
                0 => Gate::rz(i % 8, 0.0),
                1 => Gate::unary(u.clone(), i % 8),
                2 => Gate::toffoli(i % 8, (i + 1) % 8, (i + 2) % 8),
                _ => Gate::Swap {
                    a: i % 8,
                    b: (i + 1) % 8,
                    controls: vec![(i + 2) % 8],
                },
            })
            .collect();
        let hash = |gates: &[Gate]| {
            let mut pb = ProgramBuilder::new();
            pb.register("q", 9);
            pb.gates(|c| {
                for g in gates {
                    c.push(g.clone());
                }
            });
            pb.build().unwrap().structure_hash()
        };
        let reference = hash(&base);
        assert_eq!(reference, hash(&base.clone()));
        // One field of one gate, deep in the circuit, per mutation.
        let mutations: Vec<(&str, usize, Gate)> = vec![
            (
                "op kind, same angle",
                600,
                Gate::unary(GateOp::Phase(0.0), 0),
            ),
            ("op kind", 600, Gate::h(0)),
            ("gate kind", 603, Gate::mcx(vec![5], 4)),
            ("angle sign bit", 600, Gate::rz(0, -0.0)),
            ("unitary entry", 601, {
                let mut m = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]];
                m[1][0].im = -0.0;
                Gate::unary(GateOp::U(m), 1)
            }),
            ("target", 601, Gate::unary(u.clone(), 2)),
            ("one control", 602, Gate::toffoli(2, 5, 4)),
            ("control order", 602, Gate::toffoli(3, 2, 4)),
            ("control count", 602, Gate::cnot(3, 4)),
            ("extra control", 602, Gate::mcx(vec![2, 3, 8], 4)),
            ("swap operand order", 603, {
                let mut s = base[603].clone();
                if let Gate::Swap { a, b, .. } = &mut s {
                    std::mem::swap(a, b);
                }
                s
            }),
            (
                "swap operand",
                603,
                Gate::Swap {
                    a: 3,
                    b: 6,
                    controls: vec![5],
                },
            ),
            ("swap controls", 603, Gate::swap(3, 4)),
        ];
        for (what, at, gate) in mutations {
            // By `Debug`: `==` cannot tell 0.0 from -0.0.
            assert_ne!(format!("{:?}", base[at]), format!("{gate:?}"), "{what}");
            let mut mutated = base.clone();
            mutated[at] = gate;
            assert_ne!(reference, hash(&mutated), "{what} left the hash unchanged");
        }
    }

    #[test]
    fn emulation_only_ops_flagged() {
        let mut pb = ProgramBuilder::new();
        let a = pb.register("a", 2);
        pb.classical(ClassicalMap {
            name: "oracle".into(),
            regs: vec![a],
            f: Arc::new(|_| {}),
            kind: MapKind::InPlaceBijection,
            gate_impl: None,
        });
        let prog = pb.build().unwrap();
        assert!(!prog.fully_simulable());
    }
}
