//! A scenario's disturbance process for one episode solves no LP: the
//! bounding box of `W` is computed once, on the first call. The only test
//! in its file, because metrics are process-global.

use oic_scenarios::ScenarioRegistry;

#[test]
fn disturbance_processes_box_w_once_per_scenario() {
    let registry = ScenarioRegistry::standard();
    oic_obs::set_metrics_enabled(true);
    for scenario in registry.iter() {
        let name = scenario.name();
        let mut first = scenario.disturbance_process(0);
        let reference: Vec<Vec<f64>> = (0..20).map(|t| first.next(t)).collect();
        oic_obs::reset_metrics();
        for seed in 1..=50 {
            let mut process = scenario.disturbance_process(seed);
            for t in 0..20 {
                process.next(t);
            }
        }
        let mut again = scenario.disturbance_process(0);
        let repeat: Vec<Vec<f64>> = (0..20).map(|t| again.next(t)).collect();
        let solves = oic_obs::metrics_snapshot()
            .counter("lp.solves")
            .unwrap_or(0);
        assert_eq!(
            solves, 0,
            "{name}: a per-episode process solved {solves} LPs"
        );
        assert_eq!(repeat, reference, "{name}: the cached box changed a draw");
    }
    oic_obs::set_metrics_enabled(false);
}
