//! Linear and mixed-integer programming for the OIC workspace.
//!
//! The paper's pipeline needs an LP solver in four places — support
//! functions of polytopes, redundancy removal in Fourier–Motzkin projection,
//! Chebyshev centers, and the 1-norm robust MPC itself — and a mixed-integer
//! solver for the model-based skipping policy (paper Eq. (6)). No solver
//! crates are available offline, so this crate implements both from scratch:
//!
//! * [`LinearProgram`] — a simplex with one engine per job over one
//!   standard form per program structure, compiled by its nonzeros on
//!   the first solve and shared with later clones. Cold solves scatter
//!   it into a dense, two-phase primal tableau (negating the rows with a
//!   negative right-hand side) with Bland's rule as an anti-cycling
//!   fallback: the bit-stable reference every committed baseline is
//!   recorded against. Warm-started resolve sequences
//!   ([`LinearProgram::solve_warm`]) re-solve from the previous solve's
//!   basis on a **revised** simplex over the same sparse form (a basis
//!   factored through its unit columns with a sparse coupling block, a
//!   product-form eta file, primal and dual iterations); without a
//!   usable basis they fall back to a cold tableau solve. The revised
//!   engine's sparse passes skip only exact zeros, in the dense
//!   accumulation order, so they pivot exactly as a dense sweep would.
//!   Variables are **free by default** (the geometry code works with
//!   unconstrained coordinates); bounds and equality/inequality
//!   constraints are added explicitly.
//! * [`MixedIntegerProgram`] — best-first branch-and-bound over binary
//!   variables with LP relaxations.
//!
//! # Examples
//!
//! ```
//! use oic_lp::LinearProgram;
//!
//! # fn main() -> Result<(), oic_lp::LpError> {
//! // maximize x + y  s.t.  x + 2y <= 4, 3x + y <= 6, x,y >= 0
//! let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
//! lp.add_le(&[1.0, 2.0], 4.0);
//! lp.add_le(&[3.0, 1.0], 6.0);
//! lp.set_lower_bound(0, 0.0);
//! lp.set_lower_bound(1, 0.0);
//! let sol = lp.solve()?;
//! assert!((sol.objective() - 2.8).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

mod mip;
mod problem;
mod revised;
mod simplex;

pub use mip::{MipSolution, MixedIntegerProgram};
pub use problem::{LinearProgram, LpSolution, Relation, WarmStart};

use std::error::Error;
use std::fmt;

/// Error returned by [`LinearProgram::solve`] and
/// [`MixedIntegerProgram::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// The constraint set is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The simplex iteration limit was exceeded (numerical trouble).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => {
                write!(f, "simplex iteration limit exceeded")
            }
        }
    }
}

impl Error for LpError {}
