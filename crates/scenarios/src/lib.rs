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
//! On top of the hierarchy, [`ScenarioInstance::tube`] derives the
//! **certified minimal-RPI tube** of the controller's local loop on
//! demand ([`certified_tube`]): the dimension-generic Raković synthesis
//! plus an exact facet-by-facet support certificate, in 2, 3, and 4
//! state dimensions alike. `build()` does not synthesize it, since no
//! engine, service, or runtime path reads it; the `tube_certificates`
//! tests derive and verify it for every registry scenario.
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
//! assert!(instance.tube().is_ok(), "certified RPI tube derives");
//! ```

use std::sync::OnceLock;

use oic_control::{
    rakovic_rpi_certified, ConstrainedLti, ControlError, Controller, InvariantOptions,
    LinearFeedback, TubeMpc,
};
use oic_core::{CoreError, DisturbanceProcess, IntermittentController, SafeSets, SkipPolicy};
use oic_geom::{Polytope, Zonotope};
use oic_linalg::Matrix;
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

/// Synthesizes the **certified minimal-RPI tube** `Ξ` of a scenario's
/// closed loop `A + BK`: the paper's `XI = α(W ⊕ A_K W ⊕ …)` construction
/// via the dimension-generic [`rakovic_rpi_certified`]. Called on demand
/// by [`ScenarioInstance::tube`], never by `build()` — the concrete
/// witness that the Raković pipeline works for the plant, in any state
/// dimension, which the `tube_certificates` tests check for every
/// registry scenario.
///
/// The returned polytope is invariant **by construction**: its template
/// offsets close the facet-by-facet support inequalities analytically
/// (see [`oic_control::certify_template`]). [`oic_control::verify_rpi`]
/// — the independent LP certificate — is deliberately left to the test
/// suites (the `tube_certificates` integration tests).
///
/// The disturbance is taken as the centered box hull of the plant's `W`
/// (every registry `W` is an origin-symmetric box, so this is exact).
///
/// # Errors
///
/// * [`CoreError::Control`] — tube synthesis failed (e.g. the closed loop
///   is not strictly stable).
pub fn certified_tube(plant: &ConstrainedLti, gain: &Matrix) -> Result<TubeCertificate, CoreError> {
    let a_cl = plant.system().closed_loop(gain);
    let w = tube_disturbance(plant)?;
    let set = rakovic_rpi_certified(&a_cl, &w, &InvariantOptions::default())?;
    Ok(TubeCertificate { set, a_cl, w })
}

/// The centered disturbance zonotope [`certified_tube`] certifies
/// against: the box hull of the plant's `W`, re-centered at the origin.
pub fn tube_disturbance(plant: &ConstrainedLti) -> Result<Zonotope, CoreError> {
    let (lo, hi) = plant.disturbance_set().bounding_box()?;
    let radii: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| 0.5 * (h - l)).collect();
    let neg: Vec<f64> = radii.iter().map(|r| -r).collect();
    Ok(Zonotope::from_box(&neg, &radii))
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

/// A certified minimal-RPI tube together with everything needed to
/// re-check it: the closed loop `A_K` and the centered disturbance it was
/// synthesized for. Self-contained, so test suites can run the
/// independent LP certificate without reconstructing scenario gains.
#[derive(Debug, Clone)]
pub struct TubeCertificate {
    set: Polytope,
    a_cl: Matrix,
    w: Zonotope,
}

impl TubeCertificate {
    /// The certified RPI outer approximation `Ξ`.
    pub fn set(&self) -> &Polytope {
        &self.set
    }

    /// The closed-loop matrix `A + BK` the tube is invariant for.
    pub fn closed_loop(&self) -> &Matrix {
        &self.a_cl
    }

    /// The centered disturbance zonotope.
    pub fn disturbance(&self) -> &Zonotope {
        &self.w
    }

    /// Re-runs the exact facet-by-facet LP certificate
    /// ([`oic_control::verify_rpi`]) — the independent check of the
    /// analytic construction.
    ///
    /// # Errors
    ///
    /// Propagates LP failures as [`CoreError::Geometry`].
    pub fn verify(&self, tol: f64) -> Result<bool, CoreError> {
        Ok(oic_control::verify_rpi(
            &self.set, &self.a_cl, &self.w, tol,
        )?)
    }
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

    /// Derives the certified minimal-RPI tube `Ξ` ([`certified_tube`]) of
    /// the controller's local loop `A + BK`: `K` is the feedback gain of a
    /// linear controller, or the terminal gain of a tube MPC.
    ///
    /// # Errors
    ///
    /// * [`CoreError::MissingGain`] — a tube MPC built with an overridden
    ///   terminal set and no terminal gain has no local loop.
    /// * [`CoreError::Control`] — tube synthesis failed.
    pub fn tube(&self) -> Result<TubeCertificate, CoreError> {
        let gain = match &self.controller {
            ScenarioController::Linear(feedback) => feedback.gain(),
            ScenarioController::Tube(mpc) => mpc.terminal_gain().ok_or(CoreError::MissingGain)?,
        };
        certified_tube(self.sets.plant(), gain)
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
    /// Builds only what episodes read: the minimal-RPI tube is derived on
    /// demand by [`ScenarioInstance::tube`], so a scenario whose tube
    /// cannot be certified still builds — the `tube_certificates` tests
    /// are what reject it.
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

    /// `A + B·K` for the instance's plant.
    fn expected_loop(instance: &ScenarioInstance, gain: &Matrix) -> Matrix {
        let sys = instance.sets().plant().system();
        sys.a() + &(sys.b() * gain)
    }

    #[test]
    fn tube_of_a_tube_mpc_uses_its_terminal_gain() {
        for scenario in [
            &AccScenario::default() as &dyn Scenario,
            &LaneKeepingScenario::default(),
        ] {
            let instance = scenario.build().unwrap();
            let ScenarioController::Tube(mpc) = instance.controller() else {
                panic!("{} runs a tube MPC", scenario.name());
            };
            let gain = mpc.terminal_gain().expect("terminal set from a gain");
            let tube = instance.tube().unwrap();
            assert_eq!(
                tube.closed_loop(),
                &expected_loop(&instance, gain),
                "{}",
                scenario.name()
            );
        }
    }

    #[test]
    fn tube_of_a_linear_controller_uses_its_feedback_gain() {
        let instance = DoubleIntegratorScenario.build().unwrap();
        let ScenarioController::Linear(feedback) = instance.controller() else {
            panic!("double-integrator runs a linear feedback");
        };
        let tube = instance.tube().unwrap();
        assert_eq!(
            tube.closed_loop(),
            &expected_loop(&instance, feedback.gain())
        );
        assert!(tube.verify(1e-6).unwrap());
    }

    #[test]
    fn tube_of_a_gainless_tube_mpc_is_an_error() {
        // An overridden terminal set without a terminal gain leaves the
        // MPC with no local loop to certify a tube for.
        let plant = LaneKeepingScenario::default().plant();
        let mpc = oic_control::TubeMpcBuilder::new(plant.clone(), 1)
            .terminal_set(Polytope::from_box(&[-0.5, -0.5], &[0.5, 0.5]))
            .build()
            .unwrap();
        assert!(mpc.terminal_gain().is_none());
        let invariant = plant.safe_set().clone();
        let sets = SafeSets::new(plant, invariant, &oic_core::SkipInput::Zero).unwrap();
        let instance =
            ScenarioInstance::new("gainless", sets, ScenarioController::Tube(Box::new(mpc)));
        assert_eq!(instance.tube().unwrap_err(), CoreError::MissingGain);
    }

    #[test]
    fn runtime_has_matching_dimensions() {
        let instance = DoubleIntegratorScenario.build().unwrap();
        let mut runtime = instance.runtime(Box::new(oic_core::BangBangPolicy), 1);
        let decision = runtime.step(&[0.0, 0.0], &[]).unwrap();
        assert_eq!(decision.input.len(), 1);
    }
}
