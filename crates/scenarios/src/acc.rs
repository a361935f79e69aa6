//! The paper's §IV adaptive cruise control study as a registry scenario.

use oic_core::acc::AccCaseStudy;
use oic_core::{CoreError, DisturbanceProcess, SkipInput};
use oic_sim::front::{FrontModel, SinusoidalFront};
use oic_sim::AccParams;

use crate::{Scenario, ScenarioController, ScenarioInstance};

/// Adaptive cruise control in deviation coordinates: tube MPC `κ_R`,
/// physical-coast skip input, sinusoidal front vehicle (paper Eq. (8)).
#[derive(Debug, Clone)]
pub struct AccScenario {
    params: AccParams,
    horizon: usize,
}

impl Default for AccScenario {
    fn default() -> Self {
        Self {
            params: AccParams::default(),
            horizon: 10,
        }
    }
}

impl AccScenario {
    /// The case-study parameters.
    pub fn params(&self) -> &AccParams {
        &self.params
    }
}

impl Scenario for AccScenario {
    fn name(&self) -> &'static str {
        "acc"
    }

    fn description(&self) -> &'static str {
        "adaptive cruise control (paper SIV): tube MPC, coast on skip, front-vehicle disturbance"
    }

    fn build(&self) -> Result<ScenarioInstance, CoreError> {
        let coast = SkipInput::Vector(vec![-self.params.u_eq()]);
        let case = AccCaseStudy::build(self.params.clone(), self.horizon, coast)?;
        Ok(ScenarioInstance::new(
            self.name(),
            case.sets().clone(),
            ScenarioController::Tube(Box::new(case.mpc().clone())),
        ))
    }

    fn disturbance_process(&self, seed: u64) -> Box<dyn DisturbanceProcess> {
        Box::new(FrontDisturbance {
            params: self.params.clone(),
            front: SinusoidalFront::new(&self.params, 40.0, 9.0, 1.0, seed),
        })
    }
}

/// Maps a front-vehicle velocity trace into the deviation-coordinate
/// disturbance `w(t) = (δ·(v_f(t) − v*), 0)`.
struct FrontDisturbance {
    params: AccParams,
    front: SinusoidalFront,
}

impl DisturbanceProcess for FrontDisturbance {
    fn next(&mut self, t: usize) -> Vec<f64> {
        self.params.disturbance(self.front.velocity(t)).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_certifies() {
        let instance = AccScenario::default().build().unwrap();
        instance.sets().certify().unwrap();
        assert_eq!(instance.name(), "acc");
    }

    #[test]
    fn disturbance_stays_in_w() {
        let scenario = AccScenario::default();
        let instance = scenario.build().unwrap();
        let mut process = scenario.disturbance_process(7);
        for t in 0..300 {
            let w = process.next(t);
            assert!(
                instance
                    .sets()
                    .plant()
                    .disturbance_set()
                    .contains_with_tol(&w, 1e-9),
                "w = {w:?} outside W at t = {t}"
            );
        }
    }
}
