//! The sweep's serial build phase is observable: every scenario a sweep
//! builds records one `scenario.build_ns` sample and one `engine.build`
//! span named after it. The only test in its file, because metrics and
//! spans are process-global.

use oic_engine::{run_batch_opts, BatchConfig, PolicySpec, SweepOptions};
use oic_scenarios::{
    DcMotorScenario, DoubleIntegratorScenario, ScenarioRegistry, ThermalRcScenario,
};

#[test]
fn a_sweep_records_one_build_sample_and_span_per_built_scenario() {
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(DoubleIntegratorScenario));
    registry.register(Box::new(ThermalRcScenario::default()));
    registry.register(Box::new(DcMotorScenario::default()));
    // The filter leaves dc-motor unbuilt: it must record nothing.
    let built = ["double-integrator".to_string(), "thermal-rc".to_string()];
    let config = BatchConfig {
        episodes: 2,
        steps: 10,
        threads: 1,
        ..Default::default()
    };
    let opts = SweepOptions {
        scenarios: Some(&built),
        ..Default::default()
    };
    let sweep = || {
        run_batch_opts(&registry, &[PolicySpec::BangBang], &config, &opts)
            .unwrap()
            .0
            .to_json(true)
            .to_json()
    };
    let quiet = sweep();

    oic_obs::reset_metrics();
    oic_obs::reset_trace();
    oic_obs::set_metrics_enabled(true);
    oic_obs::set_trace_enabled(true);
    let observed = sweep();
    oic_obs::set_metrics_enabled(false);
    oic_obs::set_trace_enabled(false);
    assert_eq!(quiet, observed, "build telemetry stays off the result path");

    let snapshot = oic_obs::metrics_snapshot();
    let builds = snapshot
        .histogram("scenario.build_ns")
        .expect("the histogram is registered");
    assert_eq!(
        builds.count,
        built.len() as u64,
        "one sample per built scenario"
    );
    assert!(builds.sum > 0, "builds take time");
    let spans: Vec<String> = oic_obs::drain_trace()
        .into_iter()
        .filter(|span| span.name == "engine.build")
        .map(|span| span.arg.expect("the span names its scenario"))
        .collect();
    assert_eq!(
        spans, built,
        "one span per built scenario, in registry order"
    );
}
