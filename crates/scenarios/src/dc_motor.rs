//! DC-motor position servo.

use std::sync::OnceLock;

use oic_control::{dlqr, ConstrainedLti, LinearFeedback, Lti};
use oic_core::{CoreError, DisturbanceProcess, SafeSets, SkipInput};
use oic_geom::Polytope;
use oic_linalg::Matrix;

use crate::disturbance::SteppedLevels;
use crate::{disturbance_box, Scenario, ScenarioController, ScenarioInstance};

/// A position servo around a brushed DC motor: shaft-angle error `θ`
/// (rad) and angular velocity `ω` (rad/s) at `δ = 0.05 s`. Viscous
/// friction damps the speed; the input is armature voltage (normalized).
/// The disturbance is load torque — gearbox stiction releases and payload
/// changes that hold for a while, then jump. Skipping de-energizes the
/// armature (zero voltage deviation), letting friction coast the shaft —
/// the classic duty-cycling servo amplifier.
#[derive(Debug, Clone)]
pub struct DcMotorScenario {
    /// Sampling period (s).
    pub dt: f64,
    /// Speed retention per step (1 − friction·δ/J).
    pub speed_retention: f64,
    /// Voltage-to-acceleration gain (rad/s² per unit input, times δ).
    pub voltage_gain: f64,
}

impl Default for DcMotorScenario {
    fn default() -> Self {
        Self {
            dt: 0.05,
            speed_retention: 0.9,
            voltage_gain: 10.0,
        }
    }
}

impl DcMotorScenario {
    /// The constrained servo plant.
    pub fn plant(&self) -> ConstrainedLti {
        ConstrainedLti::new(
            Lti::new(
                Matrix::from_rows(&[&[1.0, self.dt], &[0.0, self.speed_retention]]),
                Matrix::from_rows(&[&[0.0], &[self.dt * self.voltage_gain]]),
            ),
            // Servo envelope: ±1 rad tracking error, ±4 rad/s speed.
            Polytope::from_box(&[-1.0, -4.0], &[1.0, 4.0]),
            // Armature voltage within ±2 (normalized).
            Polytope::from_box(&[-2.0], &[2.0]),
            Self::disturbance_set(),
        )
    }

    /// The disturbance set `W`. It reads no parameter, so its bounding
    /// box is a constant of the scenario type.
    fn disturbance_set() -> Polytope {
        // Encoder creep and per-step load-torque speed kick.
        Polytope::from_box(&[-0.005, -0.08], &[0.005, 0.08])
    }

    /// The servo LQR gain.
    ///
    /// # Errors
    ///
    /// Propagates Riccati failures (does not happen for this plant).
    pub fn gain(&self) -> Result<Matrix, CoreError> {
        let plant = self.plant();
        Ok(dlqr(
            plant.system().a(),
            plant.system().b(),
            &Matrix::diag(&[5.0, 1.0]),
            &Matrix::diag(&[1.0]),
        )?)
    }
}

impl Scenario for DcMotorScenario {
    fn name(&self) -> &'static str {
        "dc-motor"
    }

    fn description(&self) -> &'static str {
        "DC-motor position servo: LQR voltage, de-energized skip, stepped load torque"
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
        // Load torque holds between payload changes: 1–5 s dwells.
        static W_BOX: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
        let (lo, hi) = disturbance_box(&W_BOX, Self::disturbance_set);
        Box::new(SteppedLevels::new(lo, hi, (20, 100), seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_linalg::spectral_radius;

    #[test]
    fn closed_loop_is_stable() {
        // The open-loop angle channel is a pure integrator (a Jordan
        // block at 1, which the Gelfand estimate overshoots); the LQR
        // loop must be strictly contracting.
        let scenario = DcMotorScenario::default();
        let plant = scenario.plant();
        let gain = scenario.gain().unwrap();
        assert!(spectral_radius(&plant.system().closed_loop(&gain)) < 1.0);
    }

    #[test]
    fn builds_and_certifies() {
        let instance = DcMotorScenario::default().build().unwrap();
        instance.sets().certify().unwrap();
        assert!(instance.sets().strengthened().contains(&[0.0, 0.0]));
    }

    #[test]
    fn disturbance_stays_in_w() {
        let scenario = DcMotorScenario::default();
        let instance = scenario.build().unwrap();
        let mut process = scenario.disturbance_process(31);
        for t in 0..500 {
            let w = process.next(t);
            assert!(instance
                .sets()
                .plant()
                .disturbance_set()
                .contains_with_tol(&w, 1e-9));
        }
    }
}
