//! The sweep's serial build phase is observable, and it runs once per
//! registry: the first sweep on a registry records one
//! `scenario.build_ns` sample and one `engine.build` span per scenario it
//! builds, and a repeat sweep on that registry records none. The only
//! test in its file, because metrics and spans are process-global.

use oic_engine::{run_batch_opts, BatchConfig, PolicySpec, SweepOptions};
use oic_scenarios::{
    DcMotorScenario, DoubleIntegratorScenario, ScenarioRegistry, ThermalRcScenario,
};

fn registry() -> ScenarioRegistry {
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(DoubleIntegratorScenario));
    registry.register(Box::new(ThermalRcScenario::default()));
    registry.register(Box::new(DcMotorScenario::default()));
    registry
}

/// `((build samples, their summed ns), engine.build span arguments)`
/// recorded since the last drain.
fn drain_builds() -> ((u64, u64), Vec<String>) {
    let samples = oic_obs::metrics_snapshot()
        .histogram("scenario.build_ns")
        .map_or((0, 0), |h| (h.count, h.sum));
    let spans = oic_obs::drain_trace()
        .into_iter()
        .filter(|span| span.name == "engine.build")
        .map(|span| span.arg.expect("the span names its scenario"))
        .collect();
    oic_obs::reset_metrics();
    oic_obs::reset_trace();
    (samples, spans)
}

#[test]
fn only_the_first_sweep_on_a_registry_records_builds() {
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
    let sweep = |registry: &ScenarioRegistry| {
        run_batch_opts(registry, &[PolicySpec::BangBang], &config, &opts)
            .unwrap()
            .0
            .to_json(true)
            .to_json()
    };
    let quiet = sweep(&registry());

    let observed_registry = registry();
    oic_obs::reset_metrics();
    oic_obs::reset_trace();
    oic_obs::set_metrics_enabled(true);
    oic_obs::set_trace_enabled(true);
    let first = sweep(&observed_registry);
    let (first_samples, first_spans) = drain_builds();
    let repeat = sweep(&observed_registry);
    let (repeat_samples, repeat_spans) = drain_builds();
    oic_obs::set_metrics_enabled(false);
    oic_obs::set_trace_enabled(false);

    assert_eq!(quiet, first, "build telemetry stays off the result path");
    assert_eq!(first, repeat, "a memoized instance changes no byte");
    assert_eq!(
        first_samples.0,
        built.len() as u64,
        "one sample per built scenario"
    );
    assert!(first_samples.1 > 0, "builds take time");
    assert_eq!(
        first_spans, built,
        "one span per built scenario, in registry order"
    );
    assert_eq!(repeat_samples, (0, 0), "a repeat sweep builds nothing");
    assert!(repeat_spans.is_empty(), "{repeat_spans:?}");
}
