//! Error types for program construction and execution.

use std::fmt;

/// Errors raised while building or executing a quantum program.
#[derive(Debug, Clone, PartialEq)]
pub enum EmuError {
    /// A classical map was not a bijection on its register tuple space.
    NotReversible {
        /// Operation name.
        op: String,
        /// A colliding output value (two inputs mapped here).
        collision: u64,
    },
    /// A zero-initialised-target operation found amplitude weight on a
    /// non-zero target register value.
    TargetNotZero {
        /// Operation name.
        op: String,
        /// Register name.
        register: String,
    },
    /// The gate-level path was requested for an op that has no gate-level
    /// implementation (emulation-only classical function).
    NoGateImplementation {
        /// Operation name.
        op: String,
    },
    /// The QPE operator circuit is not unitary / wrong size.
    BadUnitary {
        /// Explanation.
        reason: String,
    },
    /// Register arithmetic (overlap, width mismatch, unknown id).
    BadRegister {
        /// Explanation.
        reason: String,
    },
    /// The initial state has the wrong dimension for the program.
    DimensionMismatch {
        /// Expected qubit count.
        expected: usize,
        /// Provided qubit count.
        got: usize,
    },
    /// Ancilla qubits were not restored to |0⟩ by a gate-level step —
    /// indicates a broken reversible circuit.
    AncillaNotClean {
        /// Index of the plan step that left them dirty.
        step: usize,
        /// Residual probability mass on non-zero ancilla values.
        leaked: f64,
    },
    /// Eigendecomposition failure (propagated from the linear algebra).
    Eigensolver(String),
    /// An execution plan was run against a program it was not lowered
    /// from (op count or op identity disagrees).
    PlanMismatch {
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::NotReversible { op, collision } => {
                write!(
                    f,
                    "classical map '{op}' is not reversible (collision at output {collision})"
                )
            }
            EmuError::TargetNotZero { op, register } => {
                write!(
                    f,
                    "operation '{op}' requires register '{register}' to be |0⟩"
                )
            }
            EmuError::NoGateImplementation { op } => {
                write!(
                    f,
                    "operation '{op}' has no gate-level implementation (emulation only)"
                )
            }
            EmuError::BadUnitary { reason } => write!(f, "bad unitary: {reason}"),
            EmuError::BadRegister { reason } => write!(f, "bad register: {reason}"),
            EmuError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "initial state has {got} qubits, program needs {expected}"
                )
            }
            EmuError::AncillaNotClean { step, leaked } => {
                write!(
                    f,
                    "step {step}: ancillas not restored to |0⟩ (leaked probability {leaked:.3e})"
                )
            }
            EmuError::Eigensolver(msg) => write!(f, "eigensolver: {msg}"),
            EmuError::PlanMismatch { reason } => {
                write!(f, "plan does not match program: {reason}")
            }
        }
    }
}

impl std::error::Error for EmuError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = EmuError::NotReversible {
            op: "mystery".into(),
            collision: 7,
        };
        assert!(e.to_string().contains("mystery"));
        assert!(e.to_string().contains('7'));

        let e = EmuError::DimensionMismatch {
            expected: 8,
            got: 5,
        };
        assert!(e.to_string().contains('8'));
        assert!(e.to_string().contains('5'));
    }
}
