//! Inverted pendulum on a cart, linearized about the upright equilibrium.

use std::sync::OnceLock;

use oic_control::{dlqr, ConstrainedLti, LinearFeedback, Lti};
use oic_core::{CoreError, DisturbanceProcess, SafeSets, SkipInput};
use oic_geom::Polytope;
use oic_linalg::Matrix;

use crate::disturbance::UniformBox;
use crate::{disturbance_box, Scenario, ScenarioController, ScenarioInstance};

/// The balance subsystem of a cart-pole, linearized about upright: pole
/// angle `θ` (rad) and angular rate `θ̇` (rad/s) at `δ = 0.01 s`. Gravity
/// makes the open-loop dynamics `θ̈ = (g/l)·θ + b·u + w` **unstable** —
/// every skipped step genuinely costs balance margin, so the strengthened
/// set `X′` is visibly smaller than `XI` and the monitor earns its keep.
/// The input is cart-acceleration-induced torque; the disturbance
/// aggregates track vibration and cart-load jitter. Skipping applies no
/// torque.
#[derive(Debug, Clone)]
pub struct PendulumCartScenario {
    /// Sampling period (s).
    pub dt: f64,
    /// Gravity over pole length `g/l` (1/s²); the default is a 0.5 m pole.
    pub gravity_over_length: f64,
    /// Input gain (rad/s² per unit input).
    pub input_gain: f64,
}

impl Default for PendulumCartScenario {
    fn default() -> Self {
        Self {
            dt: 0.01,
            gravity_over_length: 19.62,
            input_gain: 8.0,
        }
    }
}

impl PendulumCartScenario {
    /// The constrained balance plant.
    pub fn plant(&self) -> ConstrainedLti {
        let dt = self.dt;
        ConstrainedLti::new(
            Lti::new(
                Matrix::from_rows(&[&[1.0, dt], &[self.gravity_over_length * dt, 1.0]]),
                Matrix::from_rows(&[&[0.0], &[dt * self.input_gain]]),
            ),
            // Keep the pole within ±0.2 rad (~11°) and ±0.8 rad/s.
            Polytope::from_box(&[-0.2, -0.8], &[0.2, 0.8]),
            // Cart force authority within ±5 (normalized).
            Polytope::from_box(&[-5.0], &[5.0]),
            Self::disturbance_set(),
        )
    }

    /// The disturbance set `W`. It reads no parameter, so its bounding
    /// box is a constant of the scenario type.
    fn disturbance_set() -> Polytope {
        // Track vibration / load jitter per step.
        Polytope::from_box(&[-0.0005, -0.008], &[0.0005, 0.008])
    }

    /// The balancing LQR gain.
    ///
    /// # Errors
    ///
    /// Propagates Riccati failures (does not happen for this plant).
    pub fn gain(&self) -> Result<Matrix, CoreError> {
        let plant = self.plant();
        Ok(dlqr(
            plant.system().a(),
            plant.system().b(),
            &Matrix::diag(&[10.0, 1.0]),
            &Matrix::diag(&[0.1]),
        )?)
    }
}

impl Scenario for PendulumCartScenario {
    fn name(&self) -> &'static str {
        "pendulum-cart"
    }

    fn description(&self) -> &'static str {
        "inverted pendulum cart: LQR balance, zero-torque skip, uniform track jitter"
    }

    fn build(&self) -> Result<ScenarioInstance, CoreError> {
        let gain = self.gain()?;
        let sets = SafeSets::for_linear_feedback(self.plant(), &gain, &SkipInput::Zero)?;
        sets.certify()?;
        Ok(ScenarioInstance::new(
            self.name(),
            sets,
            ScenarioController::Linear(LinearFeedback::new(gain)),
        ))
    }

    fn disturbance_process(&self, seed: u64) -> Box<dyn DisturbanceProcess> {
        // Vibration is fast and memoryless: i.i.d. uniform over W — the
        // harshest process Theorem 1 must absorb.
        static W_BOX: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
        let (lo, hi) = disturbance_box(&W_BOX, Self::disturbance_set);
        Box::new(UniformBox::new(lo, hi, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_linalg::spectral_radius;

    #[test]
    fn open_loop_is_unstable_but_closed_loop_is_not() {
        let scenario = PendulumCartScenario::default();
        let plant = scenario.plant();
        assert!(
            spectral_radius(plant.system().a()) > 1.0,
            "gravity must destabilize the upright pole"
        );
        let gain = scenario.gain().unwrap();
        assert!(spectral_radius(&plant.system().closed_loop(&gain)) < 1.0);
    }

    #[test]
    fn builds_and_certifies() {
        let instance = PendulumCartScenario::default().build().unwrap();
        instance.sets().certify().unwrap();
        assert!(instance.sets().strengthened().contains(&[0.0, 0.0]));
    }

    #[test]
    fn disturbance_stays_in_w() {
        let scenario = PendulumCartScenario::default();
        let instance = scenario.build().unwrap();
        let mut process = scenario.disturbance_process(23);
        for t in 0..300 {
            let w = process.next(t);
            assert!(instance
                .sets()
                .plant()
                .disturbance_set()
                .contains_with_tol(&w, 1e-9));
        }
    }
}
