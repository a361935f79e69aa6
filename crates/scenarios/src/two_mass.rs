//! Two-mass spring-damper positioning — the registry's first 4-state
//! plant. The actuator only touches the first cart; the second is dragged
//! through a compliant coupling, so certification genuinely needs the
//! 4-dimensional invariant-set machinery (the flexible mode cannot be
//! decoupled into planar sub-problems).

use std::sync::OnceLock;

use oic_control::{dlqr, ConstrainedLti, LinearFeedback, Lti};
use oic_core::{CoreError, DisturbanceProcess, SafeSets, SkipInput};
use oic_geom::Polytope;
use oic_linalg::Matrix;

use crate::disturbance::UniformBox;
use crate::{disturbance_box, Scenario, ScenarioController, ScenarioInstance};

/// Two carts coupled by a spring and damper, force input on the first
/// cart, discretized at `δ = 0.2 s` (a coarse industrial positioning
/// rate, which also keeps the certified tube's template compact — the
/// chain length of the support template scales with `1/(1−ρ)` of the
/// closed loop). States: position and velocity of
/// each cart (deviation from the joint setpoint). Disturbances are
/// floor-vibration force kicks on both velocity channels. Skipping cuts
/// the drive force entirely.
#[derive(Debug, Clone)]
pub struct TwoMassSpringScenario {
    /// Sampling period (s).
    pub dt: f64,
    /// Spring stiffness over the first cart's mass (1/s²).
    pub stiffness1: f64,
    /// Spring stiffness over the second cart's mass (1/s²).
    pub stiffness2: f64,
    /// Coupling damping over the first cart's mass (1/s).
    pub damping1: f64,
    /// Coupling damping over the second cart's mass (1/s).
    pub damping2: f64,
    /// Drive-force gain over the first cart's mass (m/s² per unit input).
    pub drive_gain: f64,
}

impl Default for TwoMassSpringScenario {
    fn default() -> Self {
        Self {
            dt: 0.2,
            stiffness1: 2.0,
            stiffness2: 2.5,
            damping1: 2.5,
            damping2: 3.0,
            drive_gain: 2.5,
        }
    }
}

impl TwoMassSpringScenario {
    /// The constrained 4-state plant `(x₁, v₁, x₂, v₂)`.
    pub fn plant(&self) -> ConstrainedLti {
        let dt = self.dt;
        let (k1, k2) = (self.stiffness1, self.stiffness2);
        let (c1, c2) = (self.damping1, self.damping2);
        ConstrainedLti::new(
            Lti::new(
                Matrix::from_rows(&[
                    &[1.0, dt, 0.0, 0.0],
                    &[-dt * k1, 1.0 - dt * c1, dt * k1, dt * c1],
                    &[0.0, 0.0, 1.0, dt],
                    &[dt * k2, dt * c2, -dt * k2, 1.0 - dt * c2],
                ]),
                Matrix::from_rows(&[&[0.0], &[dt * self.drive_gain], &[0.0], &[0.0]]),
            ),
            // Position errors within ±0.8 m, velocities within ±1.5 m/s.
            Polytope::from_box(&[-0.8, -1.5, -0.8, -1.5], &[0.8, 1.5, 0.8, 1.5]),
            // Drive force authority (normalized).
            Polytope::from_box(&[-3.0], &[3.0]),
            Self::disturbance_set(),
        )
    }

    /// The disturbance set `W`. It reads no parameter, so its bounding
    /// box is a constant of the scenario type.
    fn disturbance_set() -> Polytope {
        // Floor vibration: small velocity kicks on both carts.
        Polytope::from_box(&[0.0, -0.015, 0.0, -0.015], &[0.0, 0.015, 0.0, 0.015])
    }

    /// The positioning LQR gain.
    ///
    /// # Errors
    ///
    /// Propagates Riccati failures (does not happen for this plant).
    pub fn gain(&self) -> Result<Matrix, CoreError> {
        let plant = self.plant();
        Ok(dlqr(
            plant.system().a(),
            plant.system().b(),
            &Matrix::diag(&[10.0, 1.0, 10.0, 1.0]),
            &Matrix::diag(&[0.05]),
        )?)
    }
}

impl Scenario for TwoMassSpringScenario {
    fn name(&self) -> &'static str {
        "two-mass-spring"
    }

    fn description(&self) -> &'static str {
        "two-mass spring positioning (4-state): LQR drive force, drive-off skip, vibration kicks"
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
        // Vibration is fast and memoryless: i.i.d. uniform draws over W.
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
    fn closed_loop_is_stable() {
        let scenario = TwoMassSpringScenario::default();
        let plant = scenario.plant();
        let gain = scenario.gain().unwrap();
        assert!(spectral_radius(&plant.system().closed_loop(&gain)) < 1.0);
    }

    #[test]
    fn builds_and_certifies_in_four_dimensions() {
        let instance = TwoMassSpringScenario::default().build().unwrap();
        instance.sets().certify().unwrap();
        assert_eq!(instance.sets().plant().system().state_dim(), 4);
        assert!(instance.sets().strengthened().contains(&[0.0; 4]));
    }

    #[test]
    fn disturbance_stays_in_w() {
        let scenario = TwoMassSpringScenario::default();
        let instance = scenario.build().unwrap();
        let mut process = scenario.disturbance_process(43);
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
