//! Certified case-study library for the intermittent-control framework.
//!
//! The paper stresses that its safety machinery "can be generally applied
//! to various underlying controllers" — this crate makes that claim
//! executable. A [`Scenario`] packages everything the framework needs for
//! one plant: the constrained LTI model, a safe controller (tube MPC or
//! linear feedback), the certified `X ⊇ XI ⊇ X′` set hierarchy, the skip
//! input, a bounded disturbance process, and an initial-state sampler.
//! The [`ScenarioRegistry`] enumerates the built-in studies:
//!
//! | Name | Plant | States | Controller | Skip semantics |
//! |---|---|---|---|---|
//! | `acc` | §IV adaptive cruise control | 2 | tube MPC | physical coast |
//! | `double-integrator` | perturbed double integrator | 2 | LQR feedback | zero input |
//! | `lane-keeping` | lateral lane-keeping dynamics | 2 | tube MPC | hold heading |
//! | `orbit-hold` | radial orbit-hold (Hill/CW, à la Ong et al.) | 2 | LQR feedback | thrusters off |
//! | `thermal-rc` | RC building-thermal zone | 2 | LQR feedback | nominal duty |
//! | `quadrotor-alt` | quadrotor altitude hold | 2 | LQR feedback | hover thrust |
//! | `pendulum-cart` | inverted pendulum cart (unstable) | 2 | LQR feedback | zero torque |
//! | `dc-motor` | DC-motor position servo | 2 | LQR feedback | de-energized |
//! | `cstr` | chemical reactor (CSTR) temperature | 3 | LQR feedback | coolant valve off |
//! | `two-mass-spring` | two-mass spring positioning | 4 | LQR feedback | drive off |
//!
//! Every scenario's sets pass [`oic_core::SafeSets::certify`] (exact LP
//! inclusion certificates), so Theorem 1 holds for *any* skipping policy
//! on *any* registered scenario — the property tests sweep exactly that.
//! `XI` is the tube MPC's feasible set (Proposition 1) or the maximal RPI
//! set of the linear-feedback loop, in 2, 3 and 4 state dimensions alike;
//! no minimal-RPI set enters a certificate.
//!
//! # Examples
//!
//! ```
//! use oic_scenarios::ScenarioRegistry;
//!
//! let registry = ScenarioRegistry::standard();
//! assert!(registry.len() >= 10);
//! let scenario = registry.get("cstr").expect("registered");
//! let instance = scenario.build().expect("builds and certifies");
//! instance.sets().certify().expect("certificates hold");
//! ```

use std::sync::OnceLock;

use oic_control::{ControlError, Controller, LinearFeedback, TubeMpc};
use oic_core::{CoreError, DisturbanceProcess, IntermittentController, SafeSets, SkipPolicy};
use oic_geom::Polytope;
use rand::rngs::StdRng;

pub mod disturbance;

mod acc;
mod cstr;
mod dc_motor;
mod double_integrator;
mod lane_keeping;
mod orbit_hold;
mod pendulum;
mod quadrotor;
mod registry;
mod thermal;
mod two_mass;

pub use acc::AccScenario;
pub use cstr::CstrScenario;
pub use dc_motor::DcMotorScenario;
pub use double_integrator::DoubleIntegratorScenario;
pub use lane_keeping::LaneKeepingScenario;
pub use orbit_hold::OrbitHoldScenario;
pub use pendulum::PendulumCartScenario;
pub use quadrotor::QuadrotorAltScenario;
pub use registry::ScenarioRegistry;
pub use thermal::ThermalRcScenario;
pub use two_mass::TwoMassSpringScenario;

/// The underlying safe controller of a scenario.
///
/// An enum rather than a trait object so episodes can clone it cheaply and
/// the runtime stays monomorphic over one concrete type.
#[derive(Debug, Clone)]
pub enum ScenarioController {
    /// A tube MPC `κ_R` (one LP per run step; boxed — it carries the
    /// whole tightened-set sequence and dwarfs the other variant).
    Tube(Box<TubeMpc>),
    /// An analytic linear feedback `κ(x) = Kx`.
    Linear(LinearFeedback),
}

impl Controller for ScenarioController {
    fn state_dim(&self) -> usize {
        match self {
            ScenarioController::Tube(mpc) => mpc.state_dim(),
            ScenarioController::Linear(k) => k.state_dim(),
        }
    }

    fn input_dim(&self) -> usize {
        match self {
            ScenarioController::Tube(mpc) => mpc.input_dim(),
            ScenarioController::Linear(k) => k.input_dim(),
        }
    }

    fn control(&self, x: &[f64]) -> Result<Vec<f64>, ControlError> {
        match self {
            ScenarioController::Tube(mpc) => mpc.control(x),
            ScenarioController::Linear(k) => k.control(x),
        }
    }

    fn control_with_cache(
        &self,
        x: &[f64],
        cache: &mut oic_control::ControlCache,
    ) -> Result<Vec<f64>, ControlError> {
        match self {
            // The tube MPC carries its LP warm-start basis in the cache.
            ScenarioController::Tube(mpc) => mpc.control_with_cache(x, cache),
            ScenarioController::Linear(k) => k.control(x),
        }
    }
}

/// The bounding box `(lo, hi)` of the disturbance set `w()`, boxed by LP
/// on the first call and read from `cell` on every later one — the
/// per-episode `disturbance_process` of a scenario whose `W` reads no
/// parameter solves no LP.
pub(crate) fn disturbance_box(
    cell: &OnceLock<(Vec<f64>, Vec<f64>)>,
    w: fn() -> Polytope,
) -> (Vec<f64>, Vec<f64>) {
    cell.get_or_init(|| w().bounding_box().expect("W is a bounded box"))
        .clone()
}

/// A fully built scenario: certified sets plus the controller they were
/// computed for. Construction is the expensive part (invariant-set
/// synthesis); build once and share across episodes.
#[derive(Debug, Clone)]
pub struct ScenarioInstance {
    name: &'static str,
    sets: SafeSets,
    controller: ScenarioController,
}

impl ScenarioInstance {
    /// Bundles certified sets with their controller.
    ///
    /// # Panics
    ///
    /// Panics if the controller dimensions disagree with the plant.
    pub fn new(name: &'static str, sets: SafeSets, controller: ScenarioController) -> Self {
        let sys = sets.plant().system();
        assert_eq!(
            controller.state_dim(),
            sys.state_dim(),
            "controller state dim mismatch"
        );
        assert_eq!(
            controller.input_dim(),
            sys.input_dim(),
            "controller input dim mismatch"
        );
        Self {
            name,
            sets,
            controller,
        }
    }

    /// The scenario name this instance was built from.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The certified set hierarchy.
    pub fn sets(&self) -> &SafeSets {
        &self.sets
    }

    /// The underlying safe controller.
    pub fn controller(&self) -> &ScenarioController {
        &self.controller
    }

    /// Builds an Algorithm-1 runtime around a clone of the controller.
    pub fn runtime(
        &self,
        policy: Box<dyn SkipPolicy>,
        memory: usize,
    ) -> IntermittentController<ScenarioController> {
        IntermittentController::new(self.controller.clone(), self.sets.clone(), policy, memory)
    }

    /// Samples an initial state uniformly from the strengthened safe set
    /// `X′` by rejection from its bounding box (the experiments' "randomly
    /// pick feasible initial states within X′" protocol), falling back to
    /// the Chebyshev center for razor-thin sets.
    pub fn sample_initial_state(&self, rng: &mut StdRng) -> Vec<f64> {
        self.sets.sample_strengthened(rng)
    }

    /// The extreme points of the disturbance bounding box that lie in `W`
    /// — the adversarial disturbance menu for Theorem-1 stress tests.
    ///
    /// Always non-empty: if no corner lies in `W` (possible for degenerate
    /// boxes only through numeric noise), the box center is returned.
    pub fn extreme_disturbances(&self) -> Vec<Vec<f64>> {
        let w = self.sets.plant().disturbance_set();
        let Ok((lo, hi)) = w.bounding_box() else {
            return vec![vec![0.0; w.dim()]];
        };
        let n = lo.len();
        let mut corners = Vec::with_capacity(1 << n);
        for mask in 0..(1u32 << n) {
            let corner: Vec<f64> = (0..n)
                .map(|i| if mask >> i & 1 == 1 { hi[i] } else { lo[i] })
                .collect();
            if w.contains_with_tol(&corner, 1e-9) && !corners.contains(&corner) {
                corners.push(corner);
            }
        }
        if corners.is_empty() {
            corners.push(lo.iter().zip(&hi).map(|(l, h)| 0.5 * (l + h)).collect());
        }
        corners
    }
}

/// One registered case study: a factory for certified instances plus the
/// scenario's natural disturbance process.
pub trait Scenario: Send + Sync {
    /// Unique registry key (kebab-case).
    fn name(&self) -> &'static str;

    /// One-line human description.
    fn description(&self) -> &'static str;

    /// Builds the plant, controller, and **certified** set hierarchy
    /// ([`SafeSets::certify`], Theorem 1's premises).
    ///
    /// Must be a pure function of the scenario value: a
    /// [`ScenarioRegistry`] builds each entry at most once and serves
    /// that result to every later sweep ([`ScenarioRegistry::instance`]).
    /// Calling `build` directly always builds afresh.
    ///
    /// # Errors
    ///
    /// Propagates set-synthesis and certification failures — a scenario
    /// that cannot certify must fail loudly, never run uncertified.
    fn build(&self) -> Result<ScenarioInstance, CoreError>;

    /// The scenario's bounded disturbance process for one episode
    /// (deterministic per seed, always inside `W`).
    fn disturbance_process(&self, seed: u64) -> Box<dyn DisturbanceProcess>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn instance_sampling_stays_in_strengthened() {
        let scenario = DoubleIntegratorScenario;
        let instance = scenario.build().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let x = instance.sample_initial_state(&mut rng);
            assert!(instance.sets().strengthened().contains(&x));
        }
    }

    #[test]
    fn extreme_disturbances_are_in_w() {
        let scenario = DoubleIntegratorScenario;
        let instance = scenario.build().unwrap();
        let extremes = instance.extreme_disturbances();
        assert!(!extremes.is_empty());
        for w in &extremes {
            assert!(instance
                .sets()
                .plant()
                .disturbance_set()
                .contains_with_tol(w, 1e-9));
        }
    }

    #[test]
    fn runtime_has_matching_dimensions() {
        let instance = DoubleIntegratorScenario.build().unwrap();
        let mut runtime = instance.runtime(Box::new(oic_core::BangBangPolicy), 1);
        let decision = runtime.step(&[0.0, 0.0], &[]).unwrap();
        assert_eq!(decision.input.len(), 1);
    }
}
