//! Quadrotor altitude hold.

use std::sync::OnceLock;

use oic_control::{dlqr, ConstrainedLti, LinearFeedback, Lti};
use oic_core::{CoreError, DisturbanceProcess, SafeSets, SkipInput};
use oic_geom::Polytope;
use oic_linalg::Matrix;

use crate::disturbance::BoundedWalk;
use crate::{disturbance_box, Scenario, ScenarioController, ScenarioInstance};

/// Altitude hold of a small quadrotor in deviation coordinates around the
/// hover setpoint: altitude error `z` (m) and climb rate `ż` (m/s) at
/// `δ = 0.1 s`. The input is collective-thrust deviation from hover
/// (normalized); vertical drag damps the climb rate. The disturbance is
/// gust-induced vertical acceleration plus altimeter process noise.
/// Skipping holds hover thrust (zero deviation input) — exactly the
/// actuation-scarce regime event-triggered multirotor control targets.
#[derive(Debug, Clone)]
pub struct QuadrotorAltScenario {
    /// Sampling period (s).
    pub dt: f64,
    /// Climb-rate retention per step (1 − drag·δ).
    pub rate_retention: f64,
    /// Thrust-to-acceleration gain (m/s² per unit input).
    pub thrust_gain: f64,
}

impl Default for QuadrotorAltScenario {
    fn default() -> Self {
        Self {
            dt: 0.1,
            rate_retention: 0.95,
            thrust_gain: 4.0,
        }
    }
}

impl QuadrotorAltScenario {
    /// The constrained vertical-axis plant.
    pub fn plant(&self) -> ConstrainedLti {
        ConstrainedLti::new(
            Lti::new(
                Matrix::from_rows(&[&[1.0, self.dt], &[0.0, self.rate_retention]]),
                Matrix::from_rows(&[&[0.0], &[self.dt * self.thrust_gain]]),
            ),
            // Hold band: ±2 m altitude error, ±1.5 m/s climb rate.
            Polytope::from_box(&[-2.0, -1.5], &[2.0, 1.5]),
            // Thrust deviation within ±1.5 (normalized collective).
            Polytope::from_box(&[-1.5], &[1.5]),
            Self::disturbance_set(),
        )
    }

    /// The disturbance set `W`. It reads no parameter, so its bounding
    /// box is a constant of the scenario type.
    fn disturbance_set() -> Polytope {
        // Altimeter creep and per-step gust velocity kick.
        Polytope::from_box(&[-0.01, -0.04], &[0.01, 0.04])
    }

    /// The altitude-hold LQR gain.
    ///
    /// # Errors
    ///
    /// Propagates Riccati failures (does not happen for this plant).
    pub fn gain(&self) -> Result<Matrix, CoreError> {
        let plant = self.plant();
        Ok(dlqr(
            plant.system().a(),
            plant.system().b(),
            &Matrix::identity(2),
            &Matrix::diag(&[2.0]),
        )?)
    }
}

impl Scenario for QuadrotorAltScenario {
    fn name(&self) -> &'static str {
        "quadrotor-alt"
    }

    fn description(&self) -> &'static str {
        "quadrotor altitude hold: LQR collective trim, hover-thrust skip, gust random walk"
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
        // Gusts are correlated: a reflected random walk inside W with
        // per-step increments of ~40% of the half-width.
        static W_BOX: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
        let (lo, hi) = disturbance_box(&W_BOX, Self::disturbance_set);
        let step: Vec<f64> = lo
            .iter()
            .zip(&hi)
            .map(|(l, h)| 0.4 * 0.5 * (h - l))
            .collect();
        Box::new(BoundedWalk::new(lo, hi, step, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_linalg::spectral_radius;

    #[test]
    fn closed_loop_is_stable() {
        // The open-loop altitude channel is a pure integrator (a Jordan
        // block at 1, which the Gelfand estimate overshoots); the LQR
        // loop must be strictly contracting.
        let scenario = QuadrotorAltScenario::default();
        let plant = scenario.plant();
        let gain = scenario.gain().unwrap();
        assert!(spectral_radius(&plant.system().closed_loop(&gain)) < 1.0);
    }

    #[test]
    fn builds_and_certifies() {
        let instance = QuadrotorAltScenario::default().build().unwrap();
        instance.sets().certify().unwrap();
        assert!(instance.sets().strengthened().contains(&[0.0, 0.0]));
    }

    #[test]
    fn disturbance_stays_in_w() {
        let scenario = QuadrotorAltScenario::default();
        let instance = scenario.build().unwrap();
        let mut process = scenario.disturbance_process(7);
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
