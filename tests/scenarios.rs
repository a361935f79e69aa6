//! Registry-wide safety validation: every scenario in the standard
//! registry must carry exact LP certificates, and Theorem 1 must hold on
//! closed-loop trajectories for *any* skipping policy under adversarial
//! extreme disturbances — not just for the ACC case study.

use std::sync::OnceLock;

use oic::core::{IntermittentController, RandomPolicy, SkipPolicy};
use oic::scenarios::{ScenarioInstance, ScenarioRegistry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn registry() -> &'static ScenarioRegistry {
    static REGISTRY: OnceLock<ScenarioRegistry> = OnceLock::new();
    REGISTRY.get_or_init(ScenarioRegistry::standard)
}

/// Building a scenario is expensive (invariant-set synthesis); cache the
/// instances across test cases.
fn instances() -> &'static Vec<ScenarioInstance> {
    static INSTANCES: OnceLock<Vec<ScenarioInstance>> = OnceLock::new();
    INSTANCES.get_or_init(|| {
        registry()
            .iter()
            .map(|s| {
                s.build()
                    .unwrap_or_else(|e| panic!("{} failed to build: {e}", s.name()))
            })
            .collect()
    })
}

#[test]
fn registry_has_ten_scenarios() {
    assert!(registry().len() >= 10, "names: {:?}", registry().names());
}

/// Every registered scenario passes the LP inclusion certificates:
/// `X′ ⊆ XI ⊆ X` and the skip closure `A·X′ + B·u_skip + W ⊆ XI`.
#[test]
fn every_scenario_certifies() {
    for instance in instances() {
        instance
            .sets()
            .certify()
            .unwrap_or_else(|e| panic!("{} failed certification: {e}", instance.name()));
        // The hierarchy is meaningful: X' is non-trivial and contains an
        // interior point to start episodes from.
        let (center, radius) = instance
            .sets()
            .strengthened()
            .chebyshev_center()
            .unwrap_or_else(|e| panic!("{}: no Chebyshev center: {e:?}", instance.name()));
        assert!(radius > 0.0, "{}: X' has empty interior", instance.name());
        assert!(instance.sets().strengthened().contains(&center));
    }
}

/// The scenario's own disturbance process never leaves the modeled `W`
/// (Theorem 1's precondition).
#[test]
fn every_disturbance_process_stays_in_w() {
    for (scenario, instance) in registry().iter().zip(instances()) {
        let w_set = instance.sets().plant().disturbance_set();
        for seed in [0u64, 1, 99] {
            let mut process = scenario.disturbance_process(seed);
            for t in 0..200 {
                let w = process.next(t);
                assert!(
                    w_set.contains_with_tol(&w, 1e-9),
                    "{}: w = {w:?} escaped W at t = {t} (seed {seed})",
                    scenario.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Theorem 1, swept across the whole registry: a random skipping
    /// policy (arbitrary skip probability) under adversarial extreme
    /// disturbances (vertices of W) never leaves XI — and hence never
    /// leaves X — on any registered plant.
    #[test]
    fn theorem1_holds_on_every_scenario(
        skip_prob in 0.0f64..1.0,
        policy_seed in 0u64..1_000,
        w_seed in 0u64..1_000,
    ) {
        for instance in instances() {
            let sys = instance.sets().plant().system().clone();
            let extremes = instance.extreme_disturbances();
            prop_assert!(!extremes.is_empty());
            let mut runtime = IntermittentController::new(
                instance.controller().clone(),
                instance.sets().clone(),
                Box::new(RandomPolicy::new(skip_prob, policy_seed)) as Box<dyn SkipPolicy>,
                1,
            );
            let mut rng = StdRng::seed_from_u64(w_seed);
            let mut x = instance.sample_initial_state(&mut rng);
            for step in 0..120 {
                prop_assert!(
                    instance.sets().invariant().contains_with_tol(&x, 1e-6),
                    "{}: left XI at step {step}: {x:?}", instance.name()
                );
                prop_assert!(
                    instance.sets().safe().contains_with_tol(&x, 1e-6),
                    "{}: left X at step {step}: {x:?}", instance.name()
                );
                let decision = runtime
                    .step(&x, &[])
                    .expect("monitored step succeeds inside XI");
                let w = &extremes[rng.gen_range(0..extremes.len())];
                x = sys.step(&x, &decision.input, w);
            }
        }
    }
}
