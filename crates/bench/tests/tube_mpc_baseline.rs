//! Tolerance gate of the warm tube-MPC path against the last cold baseline.
//!
//! `fixtures/tube_mpc_cells_cold.json` freezes the 14 tube-MPC cells of
//! `BENCH_batch.json` (acc and lane-keeping × the full roster, 50 episodes
//! × 50 steps, seed 42) as they were when every MPC step solved cold on
//! the dense tableau. Every step after an episode's first now re-solves
//! warm from the previous step's basis, which may move floats in their
//! last ulps but nothing else: the integer tallies must match exactly and
//! every float to 1e-12 relative.

use oic_bench::experiments::batch::standard_policies;
use oic_bench::golden;
use oic_engine::{run_batch, BatchConfig, CellReport, JsonValue, PolicySpec};
use oic_scenarios::{AccScenario, LaneKeepingScenario, ScenarioRegistry};

const FROZEN: &str = include_str!("../fixtures/tube_mpc_cells_cold.json");

/// Largest relative float difference the warm path may introduce.
const REL_TOL: f64 = 1e-12;

fn integer_fields(cell: &CellReport) -> [(&'static str, usize); 8] {
    [
        ("episodes", cell.episodes),
        ("steps_per_episode", cell.steps_per_episode),
        ("total_steps", cell.total_steps),
        ("skipped_steps", cell.skipped_steps),
        ("forced_runs", cell.forced_runs),
        ("policy_runs", cell.policy_runs),
        ("safety_violations", cell.safety_violations),
        ("invariant_violations", cell.invariant_violations),
    ]
}

fn float_fields(cell: &CellReport) -> [(&'static str, f64); 6] {
    [
        ("mean_skip_rate", cell.mean_skip_rate),
        ("var_skip_rate", cell.var_skip_rate),
        ("mean_actuation_effort", cell.mean_actuation_effort),
        ("var_actuation_effort", cell.var_actuation_effort),
        ("min_safe_slack", cell.min_safe_slack),
        ("max_safe_slack", cell.max_safe_slack),
    ]
}

#[test]
fn warm_tube_mpc_cells_match_the_frozen_cold_baseline() {
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(AccScenario::default()));
    registry.register(Box::new(LaneKeepingScenario::default()));
    let mut roster = standard_policies();
    roster.push(PolicySpec::drl("acc", golden::ACC_DQN));
    roster.push(PolicySpec::drl(
        "double-integrator",
        golden::DOUBLE_INTEGRATOR_DQN,
    ));
    let config = BatchConfig {
        episodes: 50,
        steps: 50,
        seed: 42,
        ..Default::default()
    };
    let report = run_batch(&registry, &roster, &config).unwrap();

    let frozen = JsonValue::parse(FROZEN).unwrap();
    let frozen = frozen.get("cells").and_then(JsonValue::as_array).unwrap();
    assert_eq!(frozen.len(), 14);
    assert_eq!(report.cells.len(), frozen.len(), "one cell per frozen cell");
    for expected in frozen {
        let scenario = expected.get("scenario").and_then(JsonValue::as_str);
        let policy = expected.get("policy").and_then(JsonValue::as_str);
        let cell = report
            .cells
            .iter()
            .find(|c| Some(c.scenario.as_str()) == scenario && Some(c.policy.as_str()) == policy)
            .unwrap_or_else(|| panic!("no cell {scenario:?}/{policy:?}"));
        assert!(
            !cell.is_failed(),
            "{}/{} failed",
            cell.scenario,
            cell.policy
        );
        for (key, value) in integer_fields(cell) {
            let want = expected.get(key).and_then(JsonValue::as_usize);
            assert_eq!(Some(value), want, "{}/{} {key}", cell.scenario, cell.policy);
        }
        for (key, value) in float_fields(cell) {
            let want = expected.get(key).and_then(JsonValue::as_f64).unwrap();
            let rel = (value - want).abs() / value.abs().max(want.abs()).max(f64::MIN_POSITIVE);
            assert!(
                value == want || rel <= REL_TOL,
                "{}/{} {key}: {value} vs frozen {want} (relative {rel:e})",
                cell.scenario,
                cell.policy
            );
        }
    }
}
