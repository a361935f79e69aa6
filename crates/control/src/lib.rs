//! Constrained linear control: LTI plants, discrete LQR, robust invariant
//! sets, and tube model predictive control.
//!
//! This crate is the "underlying safe controller" layer of the paper: it
//! provides the robust MPC `κ_R` (Chisci–Rossiter–Zappa tube MPC, paper
//! reference \[1\]) and the linear feedback `κ(x) = Kx`, plus the invariant-set
//! algorithms the safety analysis needs:
//!
//! * [`max_rpi`] — maximal robust positively invariant set of a closed loop,
//! * [`max_rci`] — maximal robust *control* invariant set (paper ref. \[17\]),
//! * [`TubeMpc::feasible_set`] — the feasible region `X_F` of the robust
//!   MPC, which Proposition 1 identifies with the robust control invariant
//!   set `X_I`.
//!
//! The safety monitor's `X_I` is the last of these or [`max_rpi`] under a
//! linear feedback gain. No minimal-RPI set is computed: no certificate
//! reads one.
//!
//! # Examples
//!
//! ```
//! use oic_control::{dlqr, Lti};
//! use oic_linalg::{spectral_radius, Matrix};
//!
//! # fn main() -> Result<(), oic_control::ControlError> {
//! // ACC deviation dynamics (paper §IV).
//! let sys = Lti::new(
//!     Matrix::from_rows(&[&[1.0, -0.1], &[0.0, 0.98]]),
//!     Matrix::from_rows(&[&[0.0], &[0.1]]),
//! );
//! let k = dlqr(sys.a(), sys.b(), &Matrix::identity(2), &Matrix::identity(1))?;
//! assert!(spectral_radius(&sys.closed_loop(&k)) < 1.0);
//! # Ok(())
//! # }
//! ```

mod feedback;
mod invariant;
mod lti;
mod mpc;

pub use feedback::{dlqr, ControlCache, Controller, LinearFeedback};
pub use invariant::{
    max_rci, max_rpi, robust_controllable_pre, verify_rci, verify_rpi, InvariantOptions,
};
pub use lti::{ConstrainedLti, Lti};
pub use mpc::{MpcSolution, MpcWarmState, TubeMpc, TubeMpcBuilder};

use std::error::Error;
use std::fmt;

/// Error type for control-layer computations.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlError {
    /// An optimization (MPC solve) was infeasible at the given state.
    Infeasible {
        /// The state at which the solve failed.
        state: Vec<f64>,
    },
    /// A fixpoint iteration did not converge within its iteration budget.
    NotConverged {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// A computed set came out empty (inconsistent constraints).
    EmptySet,
    /// The Riccati iteration failed (non-stabilizable pair or singular term).
    Riccati,
    /// Propagated geometry failure.
    Geometry(oic_geom::GeomError),
    /// Propagated LP failure.
    Lp(oic_lp::LpError),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::Infeasible { state } => {
                write!(f, "optimization infeasible at state {state:?}")
            }
            ControlError::NotConverged { iterations } => {
                write!(
                    f,
                    "fixpoint iteration did not converge after {iterations} steps"
                )
            }
            ControlError::EmptySet => write!(f, "computed set is empty"),
            ControlError::Riccati => write!(f, "riccati iteration failed"),
            ControlError::Geometry(e) => write!(f, "geometry failure: {e}"),
            ControlError::Lp(e) => write!(f, "lp failure: {e}"),
        }
    }
}

impl Error for ControlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ControlError::Geometry(e) => Some(e),
            ControlError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<oic_geom::GeomError> for ControlError {
    fn from(e: oic_geom::GeomError) -> Self {
        ControlError::Geometry(e)
    }
}

impl From<oic_lp::LpError> for ControlError {
    fn from(e: oic_lp::LpError) -> Self {
        ControlError::Lp(e)
    }
}
