//! Radial orbit-hold station keeping (à la Ong et al., arXiv:2204.03110).

use std::sync::OnceLock;

use oic_control::{dlqr, ConstrainedLti, LinearFeedback, Lti};
use oic_core::{CoreError, DisturbanceProcess, SafeSets, SkipInput};
use oic_geom::Polytope;
use oic_linalg::Matrix;

use crate::disturbance::SinusoidBox;
use crate::{disturbance_box, Scenario, ScenarioController, ScenarioInstance};

/// Station keeping on the radial axis of the Hill/Clohessy–Wiltshire
/// frame: radial deviation `x` (m) and radial rate `ẋ` (m/s) around the
/// reference orbit, discretized at `δ = 10 s`. The decoupled radial
/// dynamics `ẍ = 3ω²x + u + w` are **open-loop unstable** (tidal
/// stretching), which makes this the one scenario where coasting
/// genuinely drifts away — intermittent thrusting is the entire point of
/// event-triggered orbit control. Skipping turns the thrusters off.
#[derive(Debug, Clone)]
pub struct OrbitHoldScenario {
    /// Sampling period (s).
    pub dt: f64,
    /// Orbital rate ω (rad/s); the default is a ~95-minute LEO.
    pub orbital_rate: f64,
}

impl Default for OrbitHoldScenario {
    fn default() -> Self {
        Self {
            dt: 10.0,
            orbital_rate: 1.1e-3,
        }
    }
}

impl OrbitHoldScenario {
    /// The constrained radial plant.
    pub fn plant(&self) -> ConstrainedLti {
        let dt = self.dt;
        let tidal = 3.0 * self.orbital_rate * self.orbital_rate;
        ConstrainedLti::new(
            Lti::new(
                Matrix::from_rows(&[&[1.0, dt], &[tidal * dt, 1.0]]),
                Matrix::from_rows(&[&[0.0], &[dt]]),
            ),
            // Hold the box: ±100 m radial, ±0.5 m/s rate.
            Polytope::from_box(&[-100.0, -0.5], &[100.0, 0.5]),
            // Thruster acceleration within ±0.01 m/s².
            Polytope::from_box(&[-0.01], &[0.01]),
            Self::disturbance_set(),
        )
    }

    /// The disturbance set `W`. It reads no parameter, so its bounding
    /// box is a constant of the scenario type.
    fn disturbance_set() -> Polytope {
        // Differential drag / solar pressure: |accel| ≤ 1e-4 m/s²
        // integrates to a ±1e-3 m/s rate kick and ±5e-3 m creep.
        Polytope::from_box(&[-0.005, -0.001], &[0.005, 0.001])
    }

    /// The station-keeping LQR gain.
    ///
    /// # Errors
    ///
    /// Propagates Riccati failures (does not happen for this plant).
    pub fn gain(&self) -> Result<Matrix, CoreError> {
        let plant = self.plant();
        // Heavy input weight keeps the gain inside the small thruster
        // authority over the whole hold box.
        Ok(dlqr(
            plant.system().a(),
            plant.system().b(),
            &Matrix::diag(&[1e-4, 1.0]),
            &Matrix::diag(&[2e3]),
        )?)
    }
}

impl Scenario for OrbitHoldScenario {
    fn name(&self) -> &'static str {
        "orbit-hold"
    }

    fn description(&self) -> &'static str {
        "radial orbit hold (Hill/CW): LQR thrusting, thrusters-off skip, orbital-period forcing"
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
        // Perturbations synchronized with the orbit: one sinusoid per
        // orbital period (~571 steps at δ = 10 s) plus 20% jitter.
        let period = (std::f64::consts::TAU / (self.orbital_rate * self.dt)).round() as usize;
        static W_BOX: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
        let (lo, hi) = disturbance_box(&W_BOX, Self::disturbance_set);
        Box::new(SinusoidBox::new(lo, hi, period.max(1), 0.8, 0.2, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_linalg::spectral_radius;

    #[test]
    fn open_loop_is_unstable_but_closed_loop_is_not() {
        let scenario = OrbitHoldScenario::default();
        let plant = scenario.plant();
        assert!(
            spectral_radius(plant.system().a()) > 1.0,
            "tidal term must destabilize"
        );
        let gain = scenario.gain().unwrap();
        assert!(spectral_radius(&plant.system().closed_loop(&gain)) < 1.0);
    }

    #[test]
    fn builds_and_certifies() {
        let instance = OrbitHoldScenario::default().build().unwrap();
        instance.sets().certify().unwrap();
        assert!(instance.sets().strengthened().contains(&[0.0, 0.0]));
    }

    #[test]
    fn disturbance_stays_in_w() {
        let scenario = OrbitHoldScenario::default();
        let instance = scenario.build().unwrap();
        let mut process = scenario.disturbance_process(13);
        for t in 0..700 {
            let w = process.next(t);
            assert!(instance
                .sets()
                .plant()
                .disturbance_set()
                .contains_with_tol(&w, 1e-9));
        }
    }
}
