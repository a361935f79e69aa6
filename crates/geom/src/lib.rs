//! Polytope geometry and reachability primitives.
//!
//! The paper's safety machinery is built from a handful of set operations on
//! convex polytopes: support functions, Minkowski differences, affine
//! pre-images (one-step backward reachable sets), intersections, and
//! projections (Fourier–Motzkin elimination, used to compute the feasible
//! set of the robust MPC and the `Pre` operator of controlled invariant
//! sets). No reachability crates exist offline, so this crate implements
//! them from scratch on top of [`oic_lp`].
//!
//! Sets are represented in **halfspace form** (`H-rep`) only: a [`Polytope`]
//! is a conjunction of [`Halfspace`] constraints `aᵀx ≤ b`. Every set the
//! safety analysis builds (intersection, Minkowski difference, pre-image,
//! projection) stays in that form.
//!
//! # Examples
//!
//! ```
//! use oic_geom::{Polytope, SupportFunction};
//!
//! # fn main() -> Result<(), oic_geom::GeomError> {
//! let unit_box = Polytope::from_box(&[-1.0, -1.0], &[1.0, 1.0]);
//! assert!(unit_box.contains(&[0.5, -0.5]));
//! assert!((unit_box.support(&[3.0, 4.0])? - 7.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

mod halfspace;
mod polytope;
mod projection;
mod support;

pub use halfspace::Halfspace;
pub use polytope::Polytope;
pub use support::{AffineImage, SupportFunction};

use std::error::Error;
use std::fmt;

/// Error type for geometric queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeomError {
    /// The set is unbounded in the queried direction.
    Unbounded,
    /// The set is empty, so the query has no answer.
    EmptySet,
    /// The operation requires a 2-dimensional set.
    NotTwoDimensional,
    /// The underlying LP solver failed (degenerate / ill-conditioned data).
    Lp(oic_lp::LpError),
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::Unbounded => write!(f, "set is unbounded in the queried direction"),
            GeomError::EmptySet => write!(f, "set is empty"),
            GeomError::NotTwoDimensional => {
                write!(f, "operation is only implemented for 2-dimensional sets")
            }
            GeomError::Lp(e) => write!(f, "lp solver failure: {e}"),
        }
    }
}

impl Error for GeomError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GeomError::Lp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<oic_lp::LpError> for GeomError {
    fn from(e: oic_lp::LpError) -> Self {
        match e {
            oic_lp::LpError::Infeasible => GeomError::EmptySet,
            oic_lp::LpError::Unbounded => GeomError::Unbounded,
            other => GeomError::Lp(other),
        }
    }
}
