//! The perturbed double integrator, promoted from `examples/` into the
//! scenario library.

use std::sync::OnceLock;

use oic_control::{dlqr, ConstrainedLti, LinearFeedback, Lti};
use oic_core::{CoreError, DisturbanceProcess, SafeSets, SkipInput};
use oic_geom::Polytope;
use oic_linalg::Matrix;

use crate::disturbance::SteppedLevels;
use crate::{disturbance_box, Scenario, ScenarioController, ScenarioInstance};

/// Position/velocity double integrator with bounded force and a box
/// disturbance, under LQR feedback with a literal zero skip input — the
/// simplest "different plant" demonstrating the framework's generality.
#[derive(Debug, Clone, Default)]
pub struct DoubleIntegratorScenario;

impl DoubleIntegratorScenario {
    /// The constrained plant (also used by the example and tests).
    pub fn plant() -> ConstrainedLti {
        ConstrainedLti::new(
            Lti::new(
                Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]),
                Matrix::from_rows(&[&[0.5], &[1.0]]),
            ),
            Polytope::from_box(&[-5.0, -2.0], &[5.0, 2.0]),
            Polytope::from_box(&[-1.0], &[1.0]),
            Self::disturbance_set(),
        )
    }

    /// The disturbance set `W`. It reads no parameter, so its bounding
    /// box is a constant of the scenario type.
    fn disturbance_set() -> Polytope {
        Polytope::from_box(&[-0.05, -0.05], &[0.05, 0.05])
    }

    /// The LQR gain the scenario stabilizes with.
    ///
    /// # Errors
    ///
    /// Propagates Riccati failures (does not happen for this plant).
    pub fn gain() -> Result<Matrix, CoreError> {
        let plant = Self::plant();
        Ok(dlqr(
            plant.system().a(),
            plant.system().b(),
            &Matrix::identity(2),
            &Matrix::identity(1),
        )?)
    }
}

impl Scenario for DoubleIntegratorScenario {
    fn name(&self) -> &'static str {
        "double-integrator"
    }

    fn description(&self) -> &'static str {
        "perturbed double integrator: LQR feedback, zero skip input, stepped load disturbance"
    }

    fn build(&self) -> Result<ScenarioInstance, CoreError> {
        let plant = Self::plant();
        let gain = Self::gain()?;
        let sets = SafeSets::for_linear_feedback(plant, &gain, &SkipInput::Zero)?;
        sets.certify()?;
        Ok(ScenarioInstance::new(
            self.name(),
            sets,
            ScenarioController::Linear(LinearFeedback::new(gain)),
        ))
    }

    fn disturbance_process(&self, seed: u64) -> Box<dyn DisturbanceProcess> {
        // Slowly switching load levels (the example's square wave,
        // randomized): held uniform draws from W with 15–40-step dwells.
        static W_BOX: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
        let (lo, hi) = disturbance_box(&W_BOX, Self::disturbance_set);
        Box::new(SteppedLevels::new(lo, hi, (15, 40), seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_certifies() {
        let instance = DoubleIntegratorScenario.build().unwrap();
        instance.sets().certify().unwrap();
        assert!(instance.sets().strengthened().contains(&[0.0, 0.0]));
    }

    #[test]
    fn disturbance_stays_in_w() {
        let scenario = DoubleIntegratorScenario;
        let instance = scenario.build().unwrap();
        let mut process = scenario.disturbance_process(2);
        for t in 0..200 {
            let w = process.next(t);
            assert!(instance
                .sets()
                .plant()
                .disturbance_set()
                .contains_with_tol(&w, 1e-9));
        }
    }
}
