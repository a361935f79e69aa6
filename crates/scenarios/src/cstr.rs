//! Chemical-reactor (CSTR) temperature regulation — the registry's first
//! 3-state plant, exercising the dimension-generic certification pipeline
//! end to end (n-D `max_rpi`, 3-D support geometry).

use std::sync::OnceLock;

use oic_control::{dlqr, ConstrainedLti, LinearFeedback, Lti};
use oic_core::{CoreError, DisturbanceProcess, SafeSets, SkipInput};
use oic_geom::Polytope;
use oic_linalg::Matrix;

use crate::disturbance::BoundedWalk;
use crate::{disturbance_box, Scenario, ScenarioController, ScenarioInstance};

/// Continuous stirred-tank reactor around its operating point, discretized
/// at `δ = 30 s`. States (deviation coordinates): reactant concentration
/// `c` (mol/L), reactor temperature `T` (K), and cooling-jacket
/// temperature `T_j` (K); the input is the jacket coolant duty. The
/// exothermic reaction couples concentration into temperature, the jacket
/// pulls temperature back, and feed fluctuations disturb both `c` and `T`.
/// Skipping de-energizes the coolant valve (zero deviation duty) — exactly
/// the paper's "skip = hold the passive input" regime on a plant the 2-D
/// pipeline could not certify.
#[derive(Debug, Clone)]
pub struct CstrScenario {
    /// Reactant retention per step (consumption + outflow).
    pub concentration_retention: f64,
    /// Reactor temperature retention per step (heat losses + outflow).
    pub temperature_retention: f64,
    /// Jacket temperature retention per step.
    pub jacket_retention: f64,
    /// Reaction exotherm: K of reactor heating per mol/L of reactant.
    pub exotherm_gain: f64,
    /// Jacket-to-reactor heat-transfer coefficient per step.
    pub jacket_coupling: f64,
    /// Coolant-duty-to-jacket-temperature gain per step.
    pub duty_gain: f64,
}

impl Default for CstrScenario {
    fn default() -> Self {
        Self {
            concentration_retention: 0.90,
            temperature_retention: 0.88,
            jacket_retention: 0.80,
            exotherm_gain: 0.35,
            jacket_coupling: 0.12,
            duty_gain: 1.0,
        }
    }
}

impl CstrScenario {
    /// The constrained 3-state reactor plant.
    pub fn plant(&self) -> ConstrainedLti {
        // c⁺  = r_c·c − 0.02·T            (rate rises with temperature)
        // T⁺  = g_e·c + r_T·T + k_j·T_j   (exotherm + jacket pull)
        // T_j⁺ = r_j·T_j + g_u·u          (coolant duty drives the jacket)
        ConstrainedLti::new(
            Lti::new(
                Matrix::from_rows(&[
                    &[self.concentration_retention, -0.02, 0.0],
                    &[
                        self.exotherm_gain,
                        self.temperature_retention,
                        self.jacket_coupling,
                    ],
                    &[0.0, 0.0, self.jacket_retention],
                ]),
                Matrix::from_rows(&[&[0.0], &[0.0], &[self.duty_gain]]),
            ),
            // Runaway bounds: ±0.6 mol/L, ±8 K reactor, ±12 K jacket.
            Polytope::from_box(&[-0.6, -8.0, -12.0], &[0.6, 8.0, 12.0]),
            // Coolant duty authority (normalized).
            Polytope::from_box(&[-4.0], &[4.0]),
            Self::disturbance_set(),
        )
    }

    /// The disturbance set `W`. It reads no parameter, so its bounding
    /// box is a constant of the scenario type.
    fn disturbance_set() -> Polytope {
        // Feed-concentration and feed-temperature fluctuations.
        Polytope::from_box(&[-0.03, -0.25, 0.0], &[0.03, 0.25, 0.0])
    }

    /// The temperature-regulating LQR gain.
    ///
    /// # Errors
    ///
    /// Propagates Riccati failures (does not happen for this plant).
    pub fn gain(&self) -> Result<Matrix, CoreError> {
        let plant = self.plant();
        Ok(dlqr(
            plant.system().a(),
            plant.system().b(),
            &Matrix::diag(&[4.0, 1.0, 0.2]),
            &Matrix::diag(&[0.5]),
        )?)
    }
}

impl Scenario for CstrScenario {
    fn name(&self) -> &'static str {
        "cstr"
    }

    fn description(&self) -> &'static str {
        "chemical reactor (3-state CSTR): LQR coolant duty, valve-off skip, feed random walk"
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
        // Feed composition drifts slowly: a reflected random walk with
        // ~25%-of-half-width increments.
        static W_BOX: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
        let (lo, hi) = disturbance_box(&W_BOX, Self::disturbance_set);
        let step: Vec<f64> = lo
            .iter()
            .zip(&hi)
            .map(|(l, h)| 0.25 * 0.5 * (h - l))
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
        let scenario = CstrScenario::default();
        let plant = scenario.plant();
        let gain = scenario.gain().unwrap();
        assert!(spectral_radius(&plant.system().closed_loop(&gain)) < 1.0);
    }

    #[test]
    fn builds_and_certifies_in_three_dimensions() {
        let instance = CstrScenario::default().build().unwrap();
        instance.sets().certify().unwrap();
        assert_eq!(instance.sets().plant().system().state_dim(), 3);
        assert!(instance.sets().strengthened().contains(&[0.0, 0.0, 0.0]));
    }

    #[test]
    fn disturbance_stays_in_w() {
        let scenario = CstrScenario::default();
        let instance = scenario.build().unwrap();
        let mut process = scenario.disturbance_process(41);
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
