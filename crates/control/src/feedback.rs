//! Feedback controllers: the `Controller` abstraction, linear state
//! feedback, and discrete-time LQR synthesis.

use oic_linalg::{LuDecomposition, Matrix};

use crate::ControlError;

/// A state-feedback controller `u = κ(x)`.
///
/// Both the analytic linear feedback and the tube MPC implement this trait,
/// so the intermittent-control runtime (crate `oic-core`) is generic over
/// the underlying safe controller, exactly as the paper's framework is.
pub trait Controller {
    /// State dimension the controller expects.
    fn state_dim(&self) -> usize;

    /// Input dimension the controller produces.
    fn input_dim(&self) -> usize;

    /// Computes the control input `κ(x)`.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::Infeasible`] when the controller's internal
    /// optimization has no solution at `x` (possible for MPC outside its
    /// feasible set); analytic controllers never fail.
    fn control(&self, x: &[f64]) -> Result<Vec<f64>, ControlError>;

    /// [`control`](Self::control) with an episode-scoped scratch cache.
    ///
    /// Stateful runtimes (the intermittent-control loop in `oic-core`)
    /// pass the same [`ControlCache`] at every step of an episode, which
    /// lets optimization-backed controllers carry warm-start state —
    /// [`crate::TubeMpc`] keeps its LP basis in it. Analytic controllers
    /// ignore the cache (the default).
    ///
    /// # Errors
    ///
    /// Same contract as [`control`](Self::control).
    fn control_with_cache(
        &self,
        x: &[f64],
        cache: &mut ControlCache,
    ) -> Result<Vec<f64>, ControlError> {
        let _ = cache;
        self.control(x)
    }
}

/// Episode-scoped controller scratch state.
///
/// One `ControlCache` lives for one closed-loop episode and is threaded
/// through every [`Controller::control_with_cache`] call; controllers store
/// whatever cross-step state they benefit from (today: the tube MPC's
/// warm-start basis). Reset it (or make a fresh one) when the episode ends.
#[derive(Debug, Clone, Default)]
pub struct ControlCache {
    /// Tube-MPC warm-start state, lazily created on first use.
    pub(crate) mpc_warm: Option<crate::MpcWarmState>,
}

impl ControlCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears all carried state (the next solve runs cold).
    pub fn reset(&mut self) {
        self.mpc_warm = None;
    }

    /// The tube-MPC warm-start state, if a warm solve populated it.
    pub fn mpc_warm(&self) -> Option<&crate::MpcWarmState> {
        self.mpc_warm.as_ref()
    }
}

impl<T: Controller + ?Sized> Controller for Box<T> {
    fn state_dim(&self) -> usize {
        (**self).state_dim()
    }

    fn input_dim(&self) -> usize {
        (**self).input_dim()
    }

    fn control(&self, x: &[f64]) -> Result<Vec<f64>, ControlError> {
        (**self).control(x)
    }

    fn control_with_cache(
        &self,
        x: &[f64],
        cache: &mut ControlCache,
    ) -> Result<Vec<f64>, ControlError> {
        (**self).control_with_cache(x, cache)
    }
}

/// The linear feedback law `κ(x) = K x`.
///
/// # Examples
///
/// ```
/// use oic_control::{Controller, LinearFeedback};
/// use oic_linalg::Matrix;
///
/// # fn main() -> Result<(), oic_control::ControlError> {
/// let k = LinearFeedback::new(Matrix::from_rows(&[&[-0.5, -1.2]]));
/// let u = k.control(&[2.0, 1.0])?;
/// assert!((u[0] + 2.2).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFeedback {
    gain: Matrix,
}

impl LinearFeedback {
    /// Creates the feedback law from its gain matrix (`m × n`).
    pub fn new(gain: Matrix) -> Self {
        Self { gain }
    }

    /// The gain matrix `K`.
    pub fn gain(&self) -> &Matrix {
        &self.gain
    }
}

impl Controller for LinearFeedback {
    fn state_dim(&self) -> usize {
        self.gain.cols()
    }

    fn input_dim(&self) -> usize {
        self.gain.rows()
    }

    fn control(&self, x: &[f64]) -> Result<Vec<f64>, ControlError> {
        Ok(self.gain.mul_vec(x))
    }
}

/// Synthesizes the infinite-horizon discrete LQR gain.
///
/// Iterates the Riccati difference equation
/// `P ← Q + AᵀPA − AᵀPB (R + BᵀPB)⁻¹ BᵀPA` to convergence and returns
/// `K = −(R + BᵀPB)⁻¹ BᵀPA`, so the closed loop is `A + BK`.
///
/// # Errors
///
/// Returns [`ControlError::Riccati`] if `R + BᵀPB` becomes singular or the
/// iteration fails to converge within 10 000 steps (non-stabilizable pair).
///
/// # Panics
///
/// Panics on dimension mismatches between `a`, `b`, `q`, `r`.
///
/// # Examples
///
/// ```
/// use oic_control::dlqr;
/// use oic_linalg::{spectral_radius, Matrix};
///
/// # fn main() -> Result<(), oic_control::ControlError> {
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]); // double integrator
/// let b = Matrix::from_rows(&[&[0.0], &[1.0]]);
/// let k = dlqr(&a, &b, &Matrix::identity(2), &Matrix::identity(1))?;
/// let cl = &a + &(&b * &k);
/// assert!(spectral_radius(&cl) < 1.0);
/// # Ok(())
/// # }
/// ```
pub fn dlqr(a: &Matrix, b: &Matrix, q: &Matrix, r: &Matrix) -> Result<Matrix, ControlError> {
    let n = a.rows();
    let m = b.cols();
    assert!(a.is_square(), "A must be square");
    assert_eq!(b.rows(), n, "B row count mismatch");
    assert_eq!((q.rows(), q.cols()), (n, n), "Q shape mismatch");
    assert_eq!((r.rows(), r.cols()), (m, m), "R shape mismatch");

    let at = a.transpose();
    let bt = b.transpose();
    let mut p = q.clone();
    let mut last_gain: Option<Matrix> = None;

    for _ in 0..10_000 {
        // S = R + BᵀPB ; K_raw = S⁻¹ BᵀPA.
        let pb = &p * b;
        let s = r + &(&bt * &pb);
        let s_inv = LuDecomposition::new(&s)
            .and_then(|lu| lu.inverse())
            .map_err(|_| ControlError::Riccati)?;
        let bt_pa = &bt * &(&p * a);
        let k_raw = &s_inv * &bt_pa;
        // P⁺ = Q + AᵀPA − AᵀPB K_raw.
        let at_pa = &at * &(&p * a);
        let at_pb = &at * &pb;
        let p_next = &(q + &at_pa) - &(&at_pb * &k_raw);

        let gain = k_raw.scale(-1.0);
        let converged = last_gain
            .as_ref()
            .is_some_and(|g| g.approx_eq(&gain, 1e-10));
        last_gain = Some(gain);
        p = p_next;
        if converged {
            return Ok(last_gain.expect("gain was just set"));
        }
    }
    Err(ControlError::Riccati)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_linalg::spectral_radius;

    #[test]
    fn linear_feedback_applies_gain() {
        let k = LinearFeedback::new(Matrix::from_rows(&[&[1.0, 2.0], &[0.0, -1.0]]));
        assert_eq!(k.state_dim(), 2);
        assert_eq!(k.input_dim(), 2);
        let u = k.control(&[3.0, 4.0]).unwrap();
        assert_eq!(u, vec![11.0, -4.0]);
    }

    #[test]
    fn dlqr_stabilizes_double_integrator() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]);
        let b = Matrix::from_rows(&[&[0.0], &[1.0]]);
        let k = dlqr(&a, &b, &Matrix::identity(2), &Matrix::identity(1)).unwrap();
        let cl = &a + &(&b * &k);
        assert!(
            spectral_radius(&cl) < 0.999,
            "rho = {}",
            spectral_radius(&cl)
        );
    }

    #[test]
    fn dlqr_stabilizes_acc_model() {
        let a = Matrix::from_rows(&[&[1.0, -0.1], &[0.0, 0.98]]);
        let b = Matrix::from_rows(&[&[0.0], &[0.1]]);
        let k = dlqr(&a, &b, &Matrix::diag(&[1.0, 1.0]), &Matrix::diag(&[1.0])).unwrap();
        let cl = &a + &(&b * &k);
        assert!(spectral_radius(&cl) < 0.999);
    }

    #[test]
    fn dlqr_scalar_system_matches_closed_form() {
        // x+ = 2x + u, q = r = 1. DARE: p = 1 + 4p - 4p²/(1+p)
        // => p² -4p -1 = 0... solve numerically and compare the gain.
        let a = Matrix::from_rows(&[&[2.0]]);
        let b = Matrix::from_rows(&[&[1.0]]);
        let k = dlqr(&a, &b, &Matrix::identity(1), &Matrix::identity(1)).unwrap();
        // p = (4 + sqrt(16+4))/2 = 2 + sqrt(5); k_raw = 2p/(1+p).
        let p = 2.0 + 5.0f64.sqrt();
        let expect = -2.0 * p / (1.0 + p);
        assert!(
            (k[(0, 0)] - expect).abs() < 1e-8,
            "{} vs {expect}",
            k[(0, 0)]
        );
    }

    #[test]
    fn dlqr_higher_r_gives_smaller_gain() {
        let a = Matrix::from_rows(&[&[1.0, -0.1], &[0.0, 0.98]]);
        let b = Matrix::from_rows(&[&[0.0], &[0.1]]);
        let k1 = dlqr(&a, &b, &Matrix::identity(2), &Matrix::diag(&[1.0])).unwrap();
        let k2 = dlqr(&a, &b, &Matrix::identity(2), &Matrix::diag(&[100.0])).unwrap();
        assert!(k2.max_abs() < k1.max_abs());
    }
}
