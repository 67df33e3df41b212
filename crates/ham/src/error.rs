//! The workspace-wide typed error: every fallible public setup or solver
//! path returns [`PtError`] instead of panicking.

use std::fmt;

/// Errors surfaced by the pwdft-rt public API.
///
/// The seed code panicked on misuse (`KsSystem::hamiltonian` on a hybrid
/// system without defining orbitals, shape mismatches caught by `assert!`).
/// Setup and solver entry points now report these as values so callers —
/// services, batch drivers, parameter sweeps — can recover or log instead
/// of unwinding.
#[derive(Clone, Debug, PartialEq)]
pub enum PtError {
    /// A hybrid-functional Hamiltonian was requested without the defining
    /// orbitals Φ of the exchange operator `V_X[P]`, P = ΦΦ*.
    MissingExchangeOrbitals,
    /// An iterative solver (ground-state SCF, PT-CN fixed point) stopped
    /// above its tolerance.
    NotConverged {
        /// What was iterating.
        context: &'static str,
        /// Final residual reached.
        residual: f64,
        /// Requested tolerance.
        tol: f64,
        /// Iterations spent.
        iterations: usize,
    },
    /// A block or grid array had the wrong dimensions.
    ShapeMismatch {
        /// Which argument/operation mismatched.
        context: &'static str,
        /// Expected extent.
        expected: usize,
        /// Actual extent.
        got: usize,
    },
    /// A builder or options struct was given an invalid value.
    InvalidConfig(String),
    /// A filesystem operation on a run artifact (snapshot, export) failed.
    Io {
        /// Path involved.
        path: String,
        /// OS-level reason.
        reason: String,
    },
    /// A snapshot/artifact file is malformed: bad magic, unsupported
    /// format version, CRC mismatch, truncation, or a missing/mistyped
    /// section.
    SnapshotFormat {
        /// Path of the offending file.
        path: String,
        /// What exactly was wrong.
        reason: String,
    },
    /// The run was cooperatively cancelled via its `CancelToken` — not a
    /// failure: the state up to the cancellation is intact (and, when
    /// checkpointing was armed, persisted for a bit-exact resume).
    Cancelled {
        /// Steps completed before the cancellation was honored.
        completed_steps: usize,
    },
    /// The persistent rank engine behind a `ranks > 1` PT-CN run died
    /// from an earlier rank failure: its world is gone, so later work on
    /// it is refused with this typed error instead of hanging.
    EngineDown {
        /// Panic message of the rank failure that killed the engine.
        cause: String,
    },
    /// A propagation step produced a non-finite observable. That step was
    /// not committed: the run's partial series and its snapshots end at
    /// the step before.
    Diverged {
        /// 0-based absolute index of the refused step.
        step: usize,
        /// Its post-step time (a.u.).
        t: f64,
        /// The propagator's final fixed-point residual on that step.
        last_residual: f64,
    },
}

impl fmt::Display for PtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtError::MissingExchangeOrbitals => write!(
                f,
                "hybrid functional requires defining orbitals Phi for the exchange operator"
            ),
            PtError::NotConverged { context, residual, tol, iterations } => write!(
                f,
                "{context} did not converge: residual {residual:.3e} > tol {tol:.3e} after {iterations} iterations"
            ),
            PtError::ShapeMismatch { context, expected, got } => {
                write!(f, "shape mismatch in {context}: expected {expected}, got {got}")
            }
            PtError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PtError::Io { path, reason } => write!(f, "i/o error on {path}: {reason}"),
            PtError::SnapshotFormat { path, reason } => {
                write!(f, "malformed snapshot {path}: {reason}")
            }
            PtError::Cancelled { completed_steps } => {
                write!(f, "run cancelled after {completed_steps} completed steps")
            }
            PtError::EngineDown { cause } => {
                write!(f, "rank engine is dead after an earlier rank failure: {cause}")
            }
            PtError::Diverged { step, t, last_residual } => write!(
                f,
                "run diverged at step {step} (t = {t} a.u.): non-finite observables, \
                 last residual {last_residual:.3e}"
            ),
        }
    }
}

impl std::error::Error for PtError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = PtError::NotConverged {
            context: "SCF",
            residual: 1e-3,
            tol: 1e-6,
            iterations: 60,
        };
        let s = e.to_string();
        assert!(s.contains("SCF") && s.contains("60"));
        assert!(PtError::MissingExchangeOrbitals.to_string().contains("Phi"));
        let m = PtError::ShapeMismatch {
            context: "orbitals",
            expected: 16,
            got: 8,
        };
        assert!(m.to_string().contains("16"));
        let io = PtError::Io {
            path: "/tmp/run.ptio".into(),
            reason: "permission denied".into(),
        };
        assert!(io.to_string().contains("/tmp/run.ptio"));
        let snap = PtError::SnapshotFormat {
            path: "ckpt.ptio".into(),
            reason: "crc mismatch in section 'psi'".into(),
        };
        assert!(snap.to_string().contains("crc mismatch"));
        let div = PtError::Diverged {
            step: 1,
            t: 2.5,
            last_residual: f64::NAN,
        };
        assert!(div.to_string().contains("step 1"), "{div}");
    }
}
