//! `Scenario::build` does only the work its callers read: it stays within
//! a per-scenario LP budget. The only test in its file, because metrics
//! are process-global.

use oic_scenarios::ScenarioRegistry;

/// The LP solves each registry scenario's `build()` took when the budget
/// was set. Builds are deterministic, so a larger count means the build
/// does more work than before.
const LP_SOLVE_BUDGET: [(&str, u64); 10] = [
    ("acc", 3329),
    ("double-integrator", 111),
    ("lane-keeping", 6727),
    ("orbit-hold", 345),
    ("thermal-rc", 66),
    ("quadrotor-alt", 153),
    ("pendulum-cart", 256),
    ("dc-motor", 133),
    ("cstr", 825),
    ("two-mass-spring", 352),
];

#[test]
fn builds_stay_within_their_lp_budget() {
    let registry = ScenarioRegistry::standard();
    assert_eq!(
        registry.len(),
        LP_SOLVE_BUDGET.len(),
        "one budget per scenario"
    );
    oic_obs::set_metrics_enabled(true);
    for (name, budget) in LP_SOLVE_BUDGET {
        let scenario = registry.get(name).expect("registered");
        oic_obs::reset_metrics();
        scenario
            .build()
            .unwrap_or_else(|e| panic!("{name} failed to build: {e}"));
        let snapshot = oic_obs::metrics_snapshot();
        let solves = snapshot.counter("lp.solves").unwrap_or(0);
        assert!(solves > 0, "{name}: metrics recorded no LP solve");
        assert!(
            solves <= budget,
            "{name}: build() solved {solves} LPs, over its budget of {budget}"
        );
    }
    oic_obs::set_metrics_enabled(false);
}
