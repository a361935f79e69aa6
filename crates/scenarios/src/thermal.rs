//! RC building-thermal zone regulation.

use std::sync::OnceLock;

use oic_control::{dlqr, ConstrainedLti, LinearFeedback, Lti};
use oic_core::{CoreError, DisturbanceProcess, SafeSets, SkipInput};
use oic_geom::Polytope;
use oic_linalg::Matrix;

use crate::disturbance::SteppedLevels;
use crate::{disturbance_box, Scenario, ScenarioController, ScenarioInstance};

/// A single-zone RC thermal model in deviation coordinates around the
/// comfort setpoint: room-air temperature deviation `T_r` and wall-mass
/// temperature deviation `T_w` (°C), one control step per five minutes.
/// The input is HVAC power deviation from the nominal duty; the
/// disturbance aggregates occupancy, solar gain, and outdoor-temperature
/// excursions. Skipping holds the nominal duty (zero deviation input) —
/// the classic "don't wake the HVAC controller" energy saving.
#[derive(Debug, Clone)]
pub struct ThermalRcScenario {
    /// Room-air pole (thermal leakage per step).
    pub room_retention: f64,
    /// Wall-mass pole.
    pub wall_retention: f64,
    /// Room↔wall coupling per step.
    pub coupling: f64,
    /// Heater gain (°C per step per unit input).
    pub heater_gain: f64,
}

impl Default for ThermalRcScenario {
    fn default() -> Self {
        Self {
            room_retention: 0.85,
            wall_retention: 0.92,
            coupling: 0.05,
            heater_gain: 0.12,
        }
    }
}

impl ThermalRcScenario {
    /// The constrained thermal plant.
    pub fn plant(&self) -> ConstrainedLti {
        ConstrainedLti::new(
            Lti::new(
                Matrix::from_rows(&[
                    &[self.room_retention, self.coupling],
                    &[0.02, self.wall_retention],
                ]),
                Matrix::from_rows(&[&[self.heater_gain], &[0.0]]),
            ),
            // Comfort band ±3 °C on air, ±5 °C on the wall mass.
            Polytope::from_box(&[-3.0, -5.0], &[3.0, 5.0]),
            // HVAC power deviation within ±2 (scaled kW).
            Polytope::from_box(&[-2.0], &[2.0]),
            Self::disturbance_set(),
        )
    }

    /// The disturbance set `W`. It reads no parameter, so its bounding
    /// box is a constant of the scenario type.
    fn disturbance_set() -> Polytope {
        // Occupancy / solar / outdoor load per step.
        Polytope::from_box(&[-0.04, -0.05], &[0.04, 0.05])
    }

    /// The regulation LQR gain.
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
            &Matrix::diag(&[10.0]),
        )?)
    }
}

impl Scenario for ThermalRcScenario {
    fn name(&self) -> &'static str {
        "thermal-rc"
    }

    fn description(&self) -> &'static str {
        "RC building-thermal zone: LQR HVAC trim, nominal-duty skip, stepped occupancy loads"
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
        // Occupancy/solar load changes hold for 50–300 minutes at a time.
        static W_BOX: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
        let (lo, hi) = disturbance_box(&W_BOX, Self::disturbance_set);
        Box::new(SteppedLevels::new(lo, hi, (10, 60), seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_linalg::spectral_radius;

    #[test]
    fn plant_is_stable_and_coupled() {
        let plant = ThermalRcScenario::default().plant();
        assert!(spectral_radius(plant.system().a()) < 1.0);
    }

    #[test]
    fn builds_and_certifies() {
        let instance = ThermalRcScenario::default().build().unwrap();
        instance.sets().certify().unwrap();
        assert!(instance.sets().strengthened().contains(&[0.0, 0.0]));
    }

    #[test]
    fn disturbance_stays_in_w() {
        let scenario = ThermalRcScenario::default();
        let instance = scenario.build().unwrap();
        let mut process = scenario.disturbance_process(17);
        for t in 0..400 {
            let w = process.next(t);
            assert!(instance
                .sets()
                .plant()
                .disturbance_set()
                .contains_with_tol(&w, 1e-9));
        }
    }
}
