//! Registry-wide tube certification: every scenario's instance must
//! derive a minimal-RPI tube whose analytic construction survives the
//! independent facet-by-facet LP certificate — in 2, 3, and 4 state
//! dimensions. `build()` does not synthesize the tube, so these tests
//! are what reject a scenario whose tube cannot be certified.

use oic_geom::SupportFunction;
use oic_scenarios::ScenarioRegistry;

#[test]
fn every_scenario_attaches_a_verified_tube() {
    let registry = ScenarioRegistry::standard();
    assert!(registry.len() >= 10);
    for scenario in registry.iter() {
        let instance = scenario
            .build()
            .unwrap_or_else(|e| panic!("{} failed to build: {e}", scenario.name()));
        let tube = instance
            .tube()
            .unwrap_or_else(|e| panic!("{} derived no tube certificate: {e}", scenario.name()));
        let n = instance.sets().plant().system().state_dim();
        assert_eq!(tube.set().dim(), n, "{}: tube dimension", scenario.name());
        // Independent LP certificate of the analytic chain construction.
        assert!(
            tube.verify(1e-6)
                .unwrap_or_else(|e| panic!("{}: verify_rpi failed: {e}", scenario.name())),
            "{}: tube is not RPI",
            scenario.name()
        );
        // The tube is a meaningful set: bounded, symmetric-ish around the
        // origin, and it contains the disturbance itself (Ξ ⊇ W since
        // Ξ ⊇ F_1 = W).
        assert!(tube.set().contains(&vec![0.0; n]), "{}", scenario.name());
        for dir_axis in 0..n {
            let mut dir = vec![0.0; n];
            dir[dir_axis] = 1.0;
            let hi = tube.set().support(&dir).expect("tube is bounded");
            let w_hi = tube.disturbance().support(&dir).expect("W is bounded");
            assert!(
                hi >= w_hi - 1e-9,
                "{}: tube thinner than W on axis {dir_axis}",
                scenario.name()
            );
        }
    }
}

#[test]
fn higher_dimensional_tubes_are_genuinely_higher_dimensional() {
    let registry = ScenarioRegistry::standard();
    let dims: Vec<usize> = ["cstr", "two-mass-spring"]
        .iter()
        .map(|name| {
            registry
                .get(name)
                .expect("registered")
                .build()
                .expect("builds")
                .tube()
                .expect("tube derives")
                .set()
                .dim()
        })
        .collect();
    assert_eq!(dims, vec![3, 4]);
}
