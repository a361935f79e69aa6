//! Lateral lane-keeping dynamics under a tube MPC.

use std::sync::OnceLock;

use oic_control::{ConstrainedLti, Lti, TubeMpcBuilder};
use oic_core::{CoreError, DisturbanceProcess, SafeSets, SkipInput};
use oic_geom::Polytope;
use oic_linalg::Matrix;

use crate::disturbance::BoundedWalk;
use crate::{disturbance_box, Scenario, ScenarioController, ScenarioInstance};

/// Lane keeping: lateral offset `e` (m) and lateral velocity `v` (m/s)
/// relative to the lane center, 20 Hz control, lateral-acceleration input,
/// crosswind/curvature disturbance. Skipping holds the current steering
/// (zero commanded lateral acceleration) — safe only inside `X′`, which is
/// exactly what the strengthened set certifies.
#[derive(Debug, Clone)]
pub struct LaneKeepingScenario {
    /// Sampling period (s).
    pub dt: f64,
    /// Lateral-velocity relaxation rate (1/s) from tire self-alignment.
    pub damping: f64,
    /// MPC prediction horizon.
    pub horizon: usize,
}

impl Default for LaneKeepingScenario {
    fn default() -> Self {
        Self {
            dt: 0.05,
            damping: 0.2,
            horizon: 8,
        }
    }
}

impl LaneKeepingScenario {
    /// The constrained lateral plant.
    pub fn plant(&self) -> ConstrainedLti {
        let dt = self.dt;
        ConstrainedLti::new(
            Lti::new(
                Matrix::from_rows(&[&[1.0, dt], &[0.0, 1.0 - self.damping * dt]]),
                Matrix::from_rows(&[&[0.0], &[dt]]),
            ),
            // Offset within ±1.8 m of center, lateral speed within ±1.2 m/s.
            Polytope::from_box(&[-1.8, -1.2], &[1.8, 1.2]),
            // Lateral acceleration command within ±3 m/s² (comfort limit).
            Polytope::from_box(&[-3.0], &[3.0]),
            Self::disturbance_set(),
        )
    }

    /// The disturbance set `W`. It reads no parameter, so its bounding
    /// box is a constant of the scenario type.
    fn disturbance_set() -> Polytope {
        // Crosswind/curvature kicks: small position creep, velocity
        // kicks up to 0.6 m/s² · δ.
        Polytope::from_box(&[-0.005, -0.03], &[0.005, 0.03])
    }
}

impl Scenario for LaneKeepingScenario {
    fn name(&self) -> &'static str {
        "lane-keeping"
    }

    fn description(&self) -> &'static str {
        "lateral lane keeping: tube MPC, hold-steering skip, crosswind random-walk disturbance"
    }

    fn build(&self) -> Result<ScenarioInstance, CoreError> {
        let mpc = TubeMpcBuilder::new(self.plant(), self.horizon)
            .state_weight_vector(vec![1.0, 0.05])
            .input_weight(0.02)
            .build()?;
        let sets = SafeSets::for_tube_mpc(&mpc, &SkipInput::Zero)?;
        sets.certify()?;
        Ok(ScenarioInstance::new(
            self.name(),
            sets,
            ScenarioController::Tube(Box::new(mpc)),
        ))
    }

    fn disturbance_process(&self, seed: u64) -> Box<dyn DisturbanceProcess> {
        // Gusty crosswind: a reflected random walk with ~30%-of-half-width
        // increments, correlated across steps.
        static W_BOX: OnceLock<(Vec<f64>, Vec<f64>)> = OnceLock::new();
        let (lo, hi) = disturbance_box(&W_BOX, Self::disturbance_set);
        let step = lo
            .iter()
            .zip(&hi)
            .map(|(l, h)| 0.3 * (h - l) * 0.5)
            .collect();
        Box::new(BoundedWalk::new(lo, hi, step, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_certifies() {
        let instance = LaneKeepingScenario::default().build().unwrap();
        instance.sets().certify().unwrap();
        assert!(instance.sets().strengthened().contains(&[0.0, 0.0]));
    }

    #[test]
    fn disturbance_stays_in_w() {
        let scenario = LaneKeepingScenario::default();
        let instance = scenario.build().unwrap();
        let mut process = scenario.disturbance_process(11);
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
