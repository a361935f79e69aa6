//! Robust invariant set computations.
//!
//! Two fixpoint algorithms, dimension-generic, plus their exact
//! certificates ([`verify_rpi`], [`verify_rci`]):
//!
//! * [`max_rpi`] — maximal robust positively invariant (RPI) set of an
//!   autonomous perturbed loop `x⁺ = A_K x + w` inside a constraint set,
//!   by the standard fixpoint iteration `Ω ← Ω ∩ Pre(Ω)`.
//! * [`max_rci`] — maximal robust *control* invariant set of
//!   `x⁺ = Ax + Bu + w` (paper reference \[17\]); `Pre` gains an `∃u ∈ U`
//!   which is resolved by polytope projection.

use oic_geom::{GeomError, Halfspace, Polytope, SupportFunction};
use oic_linalg::Matrix;

use crate::{ConstrainedLti, ControlError};

/// Tuning knobs for the invariant-set iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantOptions {
    /// Maximum fixpoint iterations.
    pub max_iterations: usize,
    /// Inclusion tolerance used to detect the fixpoint.
    pub set_tolerance: f64,
}

impl Default for InvariantOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            set_tolerance: 1e-7,
        }
    }
}

/// Computes the maximal RPI set of `x⁺ = A_cl x + w`, `w ∈ W`, inside
/// `constraint`.
///
/// Iterates `Ω ← Ω ∩ (Ω ⊖ W) ∘ A_cl⁻¹` (as a pre-image, no inversion) until
/// the set stops changing. Each iterate is a subset of the previous one
/// by construction, so the fixpoint test checks only the inclusion that
/// can fail, `Ω ⊆ Ω ∩ Pre(Ω)`.
///
/// # Errors
///
/// * [`ControlError::EmptySet`] — no RPI set exists inside the constraint.
/// * [`ControlError::NotConverged`] — iteration budget exhausted.
/// * [`ControlError::Geometry`] — an LP certificate failed numerically.
///
/// # Examples
///
/// ```
/// use oic_control::{max_rpi, InvariantOptions};
/// use oic_geom::Polytope;
/// use oic_linalg::Matrix;
///
/// # fn main() -> Result<(), oic_control::ControlError> {
/// let a = Matrix::from_rows(&[&[0.5]]);
/// let w = Polytope::from_box(&[-1.0], &[1.0]);
/// let x = Polytope::from_box(&[-3.0], &[3.0]);
/// let inv = max_rpi(&a, &w, &x, &InvariantOptions::default())?;
/// assert!(inv.contains(&[2.0]));
/// # Ok(())
/// # }
/// ```
pub fn max_rpi<S: SupportFunction>(
    a_cl: &Matrix,
    w: &S,
    constraint: &Polytope,
    options: &InvariantOptions,
) -> Result<Polytope, ControlError> {
    assert_eq!(a_cl.rows(), constraint.dim(), "dimension mismatch");
    let zero_shift = vec![0.0; constraint.dim()];
    let mut omega = constraint.remove_redundant();
    for _ in 0..options.max_iterations {
        if omega.is_empty() {
            return Err(ControlError::EmptySet);
        }
        let pre = omega.minkowski_diff(w)?.preimage(a_cl, &zero_shift);
        let next = omega.intersection(&pre).remove_redundant();
        if next.is_empty() {
            return Err(ControlError::EmptySet);
        }
        if omega.is_subset_of(&next, options.set_tolerance)? {
            return Ok(next);
        }
        omega = next;
    }
    Err(ControlError::NotConverged {
        iterations: options.max_iterations,
    })
}

/// One-step robust controllable predecessor
/// `Pre(Ω) = { x : ∃ u ∈ U, ∀ w ∈ W : Ax + Bu + w ∈ Ω }`.
///
/// The `∃u` is eliminated by Fourier–Motzkin projection of the lifted
/// polytope `{ (x,u) : Ax + Bu ∈ Ω ⊖ W, u ∈ U }`.
///
/// # Errors
///
/// Propagates geometry failures ([`ControlError::Geometry`]).
pub fn robust_controllable_pre(
    plant: &ConstrainedLti,
    target: &Polytope,
) -> Result<Polytope, ControlError> {
    let _span = oic_obs::span("cert.pre", "cert");
    let timer = oic_obs::Stopwatch::start();
    let sys = plant.system();
    let n = sys.state_dim();
    let m = sys.input_dim();
    let shrunk = target.minkowski_diff(plant.disturbance_set())?;
    let mut rows: Vec<Halfspace> = Vec::new();
    for h in shrunk.halfspaces() {
        // a·(Ax + Bu) ≤ b  ⇔  (aᵀA)·x + (aᵀB)·u ≤ b.
        let mut normal = sys.a().vec_mul(h.normal());
        normal.extend(sys.b().vec_mul(h.normal()));
        rows.push(Halfspace::new(normal, h.offset()));
    }
    for h in plant.input_set().halfspaces() {
        let mut normal = vec![0.0; n];
        normal.extend_from_slice(h.normal());
        rows.push(Halfspace::new(normal, h.offset()));
    }
    let pre = Polytope::new(n + m, rows).project_to_first(n);
    timer.stop_into(oic_obs::histogram!("cert.pre_ns", "ns"));
    Ok(pre)
}

/// Computes the maximal robust control invariant set of a constrained plant
/// inside its safe set `X` (paper reference \[17\]), by the fixpoint
/// iteration `Ω ← Ω ∩ Pre(Ω)`, stopped like [`max_rpi`]'s on `Ω ⊆ Ω ∩ Pre(Ω)`.
///
/// # Errors
///
/// * [`ControlError::EmptySet`] — no control invariant subset of `X` exists.
/// * [`ControlError::NotConverged`] — iteration budget exhausted.
/// * [`ControlError::Geometry`] — an LP certificate failed numerically.
pub fn max_rci(
    plant: &ConstrainedLti,
    options: &InvariantOptions,
) -> Result<Polytope, ControlError> {
    let mut omega = plant.safe_set().remove_redundant();
    for _ in 0..options.max_iterations {
        if omega.is_empty() {
            return Err(ControlError::EmptySet);
        }
        let pre = robust_controllable_pre(plant, &omega)?;
        let next = omega.intersection(&pre).remove_redundant();
        if next.is_empty() {
            return Err(ControlError::EmptySet);
        }
        if omega.is_subset_of(&next, options.set_tolerance)? {
            return Ok(next);
        }
        omega = next;
    }
    Err(ControlError::NotConverged {
        iterations: options.max_iterations,
    })
}

/// Certifies that `set` is RPI for `x⁺ = A_cl x + w`, `w ∈ W`: for every
/// facet `aᵀx ≤ b`, checks `sup_{x ∈ set} aᵀA_cl x + h_W(a) ≤ b + tol` by
/// LP — an exact certificate, not sampling.
///
/// # Errors
///
/// Propagates LP failures as [`GeomError`].
pub fn verify_rpi<S: SupportFunction>(
    set: &Polytope,
    a_cl: &Matrix,
    w: &S,
    tol: f64,
) -> Result<bool, GeomError> {
    for h in set.halfspaces() {
        let pushed = a_cl.vec_mul(h.normal()); // (aᵀ A_cl) as a direction on x
        let flow = match set.support(&pushed) {
            Ok(v) => v,
            Err(GeomError::EmptySet) => return Ok(true),
            Err(e) => return Err(e),
        };
        let drift = w.support(h.normal())?;
        if flow + drift > h.offset() + tol {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Certifies that `set` is robust **control** invariant for the plant:
/// `set ⊆ Pre(set)` with `Pre` from [`robust_controllable_pre`].
///
/// # Errors
///
/// Propagates geometry failures.
pub fn verify_rci(plant: &ConstrainedLti, set: &Polytope, tol: f64) -> Result<bool, ControlError> {
    let pre = robust_controllable_pre(plant, set)?;
    Ok(set.is_subset_of(&pre, tol)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lti;

    fn scalar_plant(x_hi: f64) -> (Matrix, Polytope, Polytope) {
        (
            Matrix::from_rows(&[&[0.5]]),
            Polytope::from_box(&[-1.0], &[1.0]),
            Polytope::from_box(&[-x_hi], &[x_hi]),
        )
    }

    #[test]
    fn max_rpi_scalar_whole_set_invariant() {
        let (a, w, x) = scalar_plant(3.0);
        let inv = max_rpi(&a, &w, &x, &InvariantOptions::default()).unwrap();
        // 0.5·3 + 1 = 2.5 ≤ 3, so X itself is invariant.
        assert!(inv.set_eq(&x, 1e-6).unwrap());
        assert!(verify_rpi(&inv, &a, &w, 1e-7).unwrap());
    }

    #[test]
    fn max_rpi_scalar_empty_when_too_tight() {
        // Minimal RPI is [-2,2]; X = [-1.5,1.5] admits no RPI subset.
        let (a, w, x) = scalar_plant(1.5);
        let err = max_rpi(&a, &w, &x, &InvariantOptions::default()).unwrap_err();
        assert_eq!(err, ControlError::EmptySet);
    }

    #[test]
    fn max_rpi_two_dimensional_certified() {
        // Mildly rotating stable loop with box disturbance.
        let a = Matrix::from_rows(&[&[0.8, 0.2], &[-0.2, 0.8]]);
        let w = Polytope::from_box(&[-0.1, -0.1], &[0.1, 0.1]);
        let x = Polytope::from_box(&[-2.0, -2.0], &[2.0, 2.0]);
        let inv = max_rpi(&a, &w, &x, &InvariantOptions::default()).unwrap();
        assert!(!inv.is_empty());
        assert!(inv.is_subset_of(&x, 1e-6).unwrap());
        assert!(verify_rpi(&inv, &a, &w, 1e-6).unwrap());
    }

    fn double_integrator_plant() -> ConstrainedLti {
        let sys = Lti::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]),
            Matrix::from_rows(&[&[0.5], &[1.0]]),
        );
        ConstrainedLti::new(
            sys,
            Polytope::from_box(&[-5.0, -2.0], &[5.0, 2.0]),
            Polytope::from_box(&[-1.0], &[1.0]),
            Polytope::from_box(&[-0.05, -0.05], &[0.05, 0.05]),
        )
    }

    #[test]
    fn max_rci_double_integrator_certified() {
        let plant = double_integrator_plant();
        let rci = max_rci(&plant, &InvariantOptions::default()).unwrap();
        assert!(!rci.is_empty());
        assert!(rci.is_subset_of(plant.safe_set(), 1e-6).unwrap());
        assert!(verify_rci(&plant, &rci, 1e-6).unwrap());
        // The origin must be controllable-invariant here.
        assert!(rci.contains(&[0.0, 0.0]));
    }

    #[test]
    fn max_rci_strictly_smaller_than_safe_set() {
        let plant = double_integrator_plant();
        let rci = max_rci(&plant, &InvariantOptions::default()).unwrap();
        // At (5, 2) the velocity pushes position out faster than u can stop:
        // x⁺ = 5 + 2 ± … > 5. So X is not control invariant.
        assert!(!rci.contains(&[5.0, 2.0]));
    }

    #[test]
    fn verify_rpi_rejects_non_invariant_set() {
        // [-1,1] is not RPI for x⁺ = 0.5x + w with w ∈ [-1,1] (0.5+1 > 1).
        let a = Matrix::from_rows(&[&[0.5]]);
        let w = Polytope::from_box(&[-1.0], &[1.0]);
        let cand = Polytope::from_box(&[-1.0], &[1.0]);
        assert!(!verify_rpi(&cand, &a, &w, 1e-7).unwrap());
    }
}
