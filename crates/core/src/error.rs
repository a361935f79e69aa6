//! Error type of the intermittent-control framework.

use std::error::Error;
use std::fmt;

/// Errors surfaced by the intermittent-control runtime and set
/// constructions.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The monitored state left the robust invariant set — the framework's
    /// precondition (`x(0) ∈ XI`, disturbances within `W`) was violated by
    /// the environment.
    OutsideInvariant {
        /// The offending state.
        state: Vec<f64>,
    },
    /// A set certificate failed: the named inclusion does not hold.
    CertificateFailed {
        /// Which inclusion failed (e.g. `"X' ⊆ XI"`).
        inclusion: &'static str,
    },
    /// A computed set came out empty.
    EmptySet,
    /// The closed-loop state stopped being finite (NaN/overflow in a
    /// plant update) or diverged past any physically meaningful bound —
    /// surfaced by the engine's per-step divergence guard so a broken
    /// plant degrades one cell instead of poisoning its tallies.
    NonFinite {
        /// Step index at which the state was first non-finite/diverged.
        step: usize,
    },
    /// A skipping policy could not be constructed (e.g. a learned-policy
    /// weight blob failed to decode or does not fit the scenario).
    Policy {
        /// What went wrong, human-readable.
        reason: String,
    },
    /// Propagated controller/invariant-set failure.
    Control(oic_control::ControlError),
    /// Propagated geometry failure.
    Geometry(oic_geom::GeomError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::OutsideInvariant { state } => {
                write!(f, "state {state:?} is outside the robust invariant set")
            }
            CoreError::CertificateFailed { inclusion } => {
                write!(f, "safety certificate failed: {inclusion}")
            }
            CoreError::EmptySet => write!(f, "computed set is empty"),
            CoreError::NonFinite { step } => {
                write!(f, "state became non-finite or diverged at step {step}")
            }
            CoreError::Policy { reason } => write!(f, "policy construction failed: {reason}"),
            CoreError::Control(e) => write!(f, "control layer failure: {e}"),
            CoreError::Geometry(e) => write!(f, "geometry failure: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Control(e) => Some(e),
            CoreError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<oic_control::ControlError> for CoreError {
    fn from(e: oic_control::ControlError) -> Self {
        CoreError::Control(e)
    }
}

impl From<oic_geom::GeomError> for CoreError {
    fn from(e: oic_geom::GeomError) -> Self {
        CoreError::Geometry(e)
    }
}
