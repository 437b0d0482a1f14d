//! Quantum circuits: ordered gate sequences with structural queries.

use crate::gate::{Gate, GateOp};

/// An ordered list of gates on a fixed number of qubits.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Empty circuit on `n_qubits`.
    pub fn new(n_qubits: usize) -> Circuit {
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits the circuit addresses.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The gates in application order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total gate count `G` (the quantity in the paper's QPE analysis).
    #[inline]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Appends a gate after validating it.
    ///
    /// Panics on an invalid gate; use [`Circuit::try_push`] where a
    /// malformed gate must be a recoverable error (e.g. when the gate
    /// was decoded from untrusted input).
    pub fn push(&mut self, gate: Gate) {
        self.try_push(gate)
            .unwrap_or_else(|e| panic!("invalid gate: {e}"));
    }

    /// Appends a gate, returning the validation error instead of
    /// panicking when the gate does not fit this circuit.
    pub fn try_push(&mut self, gate: Gate) -> Result<(), String> {
        gate.validate(self.n_qubits)?;
        self.gates.push(gate);
        Ok(())
    }

    /// The circuit of `gates` on `n_qubits`, each validated as
    /// [`Circuit::try_push`] would, taking the vector as it is (no copy).
    pub fn try_from_gates(n_qubits: usize, gates: Vec<Gate>) -> Result<Circuit, String> {
        for gate in &gates {
            gate.validate(n_qubits)?;
        }
        Ok(Circuit { n_qubits, gates })
    }

    /// Appends all gates of another circuit (qubit counts must agree or the
    /// other circuit must be smaller).
    pub fn extend(&mut self, other: &Circuit) {
        assert!(
            other.n_qubits <= self.n_qubits,
            "cannot extend a {}-qubit circuit with a {}-qubit one",
            self.n_qubits,
            other.n_qubits
        );
        self.gates.extend(other.gates.iter().cloned());
    }

    /// Total state-vector entries written by one unfused, gate-by-gate
    /// execution on an `n_qubits` state (`n_qubits` may exceed the
    /// circuit's own width, e.g. when ancillas are appended above it) —
    /// the per-gate sum of [`crate::kernels::touched_entries`], and the
    /// unfused counterpart of
    /// [`FusedCircuit::touched_entries`](crate::fusion::FusedCircuit::touched_entries).
    /// This is the memory-traffic estimate the execution planner's cost
    /// model consumes: at ≥20 qubits gate application is memory-bound, so
    /// predicted runtime is proportional to entries written, not flops.
    pub fn touched_entries(&self, n_qubits: usize) -> usize {
        assert!(n_qubits >= self.n_qubits, "state narrower than the circuit");
        self.gates
            .iter()
            .map(|g| crate::kernels::touched_entries(n_qubits, g))
            .sum()
    }

    /// Fuses this circuit under `policy` with the greedy window clamped to
    /// `max_block_qubits` — the entry point for executors whose blocks
    /// must fit inside a sub-register, e.g. the distributed simulator,
    /// where a non-diagonal block can only execute communication-free if
    /// all of its qubits fit among the `n_local` node-local slots.
    pub fn fuse_within(
        &self,
        policy: &crate::fusion::FusionPolicy,
        max_block_qubits: usize,
    ) -> crate::fusion::FusedCircuit {
        crate::fusion::fuse_circuit(self, &policy.clamped(max_block_qubits))
    }

    // --- fluent builder helpers -----------------------------------------

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::h(q));
        self
    }
    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::x(q));
        self
    }
    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Gate::y(q));
        self
    }
    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Gate::z(q));
        self
    }
    /// Rz(θ) on `q`.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::rz(q, theta));
        self
    }
    /// Rx(θ) on `q`.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::rx(q, theta));
        self
    }
    /// Ry(θ) on `q`.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::ry(q, theta));
        self
    }
    /// Phase(θ) on `q`.
    pub fn phase(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Gate::phase(q, theta));
        self
    }
    /// CNOT.
    pub fn cnot(&mut self, c: usize, t: usize) -> &mut Self {
        self.push(Gate::cnot(c, t));
        self
    }
    /// Controlled phase (paper's CR gate).
    pub fn cphase(&mut self, c: usize, t: usize, theta: f64) -> &mut Self {
        self.push(Gate::cphase(c, t, theta));
        self
    }
    /// Toffoli.
    pub fn toffoli(&mut self, c1: usize, c2: usize, t: usize) -> &mut Self {
        self.push(Gate::toffoli(c1, c2, t));
        self
    }
    /// SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::swap(a, b));
        self
    }

    // --- structural transforms ------------------------------------------

    /// The inverse circuit: gates reversed and daggered. Running a circuit
    /// in reverse is the uncomputation step of reversible arithmetic
    /// (paper §3, Bennett \[10\]).
    pub fn inverse(&self) -> Circuit {
        Circuit {
            n_qubits: self.n_qubits,
            gates: self.gates.iter().rev().map(Gate::dagger).collect(),
        }
    }

    /// The circuit with every gate given an extra control qubit — the
    /// controlled-U construction QPE applies (paper §3.3, footnote 3).
    pub fn controlled_by(&self, control: usize) -> Circuit {
        let gates = self.gates.iter().map(|g| g.add_control(control)).collect();
        Circuit {
            n_qubits: self.n_qubits.max(control + 1),
            gates,
        }
    }

    /// Remaps every qubit index through `f` (register relocation).
    pub fn remap_qubits(&self, n_qubits: usize, f: impl Fn(usize) -> usize) -> Circuit {
        let map_gate = |g: &Gate| -> Gate {
            match g {
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
        };
        let mut out = Circuit::new(n_qubits);
        for g in &self.gates {
            out.push(map_gate(g));
        }
        out
    }

    /// Circuit depth under the standard greedy layering (gates sharing a
    /// qubit cannot share a layer).
    pub fn depth(&self) -> usize {
        let mut layer_of_qubit = vec![0usize; self.n_qubits];
        let mut depth = 0usize;
        for g in &self.gates {
            let qs = g.qubits();
            let layer = qs.iter().map(|&q| layer_of_qubit[q]).max().unwrap_or(0) + 1;
            for q in qs {
                layer_of_qubit[q] = layer;
            }
            depth = depth.max(layer);
        }
        depth
    }

    /// Gate census: (diagonal, permutation/general pairs, swaps) — used by
    /// the communication model to count exchange-triggering gates.
    pub fn census(&self) -> CircuitCensus {
        let mut census = CircuitCensus::default();
        for g in &self.gates {
            match g {
                Gate::Unary { op, controls, .. } => {
                    if op.is_diagonal() {
                        census.diagonal += 1;
                    } else if matches!(op, GateOp::X) {
                        census.permutation += 1;
                    } else {
                        census.general += 1;
                    }
                    if !controls.is_empty() {
                        census.controlled += 1;
                    }
                }
                Gate::Swap { controls, .. } => {
                    census.swap += 1;
                    if !controls.is_empty() {
                        census.controlled += 1;
                    }
                }
            }
        }
        census
    }
}

/// Gate counts by structural class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CircuitCensus {
    /// Gates with diagonal action (Z, S, T, Rz, Phase, …).
    pub diagonal: usize,
    /// X gates (pure permutations).
    pub permutation: usize,
    /// Dense 2×2 gates (H, Rx, Ry, U…).
    pub general: usize,
    /// SWAP gates.
    pub swap: usize,
    /// Gates with at least one control (subset of the above).
    pub controlled: usize,
}

impl CircuitCensus {
    /// Total gates.
    pub fn total(&self) -> usize {
        self.diagonal + self.permutation + self.general + self.swap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::StateVector;

    #[test]
    fn builder_and_counts() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).cphase(1, 2, 0.5).rz(2, 0.1).swap(0, 2);
        assert_eq!(c.gate_count(), 5);
        let census = c.census();
        assert_eq!(census.general, 1); // H
        assert_eq!(census.permutation, 1); // CNOT's X op
        assert_eq!(census.diagonal, 2); // cphase, rz
        assert_eq!(census.swap, 1);
        assert_eq!(census.controlled, 2); // cnot, cphase
        assert_eq!(census.total(), 5);
    }

    #[test]
    fn try_push_rejects_invalid_gates_without_panicking() {
        let mut c = Circuit::new(2);
        assert!(c.try_push(Gate::x(5)).is_err());
        assert!(c.try_push(Gate::cnot(0, 0)).is_err());
        assert_eq!(c.gate_count(), 0, "rejected gates are not appended");
        c.try_push(Gate::x(1)).unwrap();
        assert_eq!(c.gate_count(), 1);
        assert_eq!(Circuit::try_from_gates(2, vec![Gate::x(1)]), Ok(c));
        assert_eq!(
            Circuit::try_from_gates(2, vec![Gate::x(1), Gate::cnot(0, 0)]),
            Err(Gate::cnot(0, 0).validate(2).unwrap_err())
        );
    }

    #[test]
    fn inverse_undoes_circuit() {
        let mut c = Circuit::new(3);
        c.h(0)
            .cnot(0, 1)
            .rz(1, 0.7)
            .cphase(0, 2, 1.1)
            .x(2)
            .swap(1, 2);
        let mut sv = StateVector::zero_state(3);
        sv.apply_circuit(&c);
        sv.apply_circuit(&c.inverse());
        let expect = StateVector::zero_state(3);
        assert!(sv.max_diff_up_to_phase(&expect) < 1e-12);
    }

    #[test]
    fn inverse_reverses_order() {
        let mut c = Circuit::new(2);
        c.h(0).s(0);
        let inv = c.inverse();
        // First gate of the inverse is S†.
        assert_eq!(inv.gates()[0], Gate::unary(GateOp::Sdg, 0));
        assert_eq!(inv.gates()[1], Gate::h(0));
    }

    #[test]
    fn controlled_by_adds_one_control_everywhere() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let cc = c.controlled_by(2);
        assert_eq!(cc.n_qubits(), 3);
        for g in cc.gates() {
            assert!(g.num_controls() >= 1);
        }
        // Control |0⟩ must make the whole thing an identity.
        let mut sv = StateVector::basis_state(3, 0b000);
        sv.apply_circuit(&cc);
        assert_eq!(sv.probability(0), 1.0);
        // Control |1⟩ runs the circuit: H then CNOT on qubits 0, 1.
        let mut sv = StateVector::basis_state(3, 0b100);
        sv.apply_circuit(&cc);
        assert!((sv.probability(0b100) - 0.5).abs() < 1e-12);
        assert!((sv.probability(0b111) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn remap_relocates_registers() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let shifted = c.remap_qubits(4, |q| q + 2);
        let mut sv = StateVector::zero_state(4);
        sv.apply_circuit(&shifted);
        // Bell pair on qubits 2, 3.
        assert!((sv.probability(0b0000) - 0.5).abs() < 1e-12);
        assert!((sv.probability(0b1100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn depth_layering() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2); // one layer
        assert_eq!(c.depth(), 1);
        c.cnot(0, 1); // second layer
        assert_eq!(c.depth(), 2);
        c.h(2); // still second layer (qubit 2 free)
        assert_eq!(c.depth(), 2);
        c.cnot(1, 2); // third layer
        assert_eq!(c.depth(), 3);
    }

    #[test]
    #[should_panic(expected = "invalid gate")]
    fn push_validates() {
        let mut c = Circuit::new(2);
        c.push(Gate::cnot(0, 3));
    }

    #[test]
    fn extend_smaller_circuit() {
        let mut small = Circuit::new(2);
        small.h(0);
        let mut big = Circuit::new(4);
        big.extend(&small);
        assert_eq!(big.gate_count(), 1);
    }

    use crate::gate::GateOp;

    impl Circuit {
        fn s(&mut self, q: usize) -> &mut Self {
            self.push(Gate::unary(GateOp::S, q));
            self
        }
    }
}
