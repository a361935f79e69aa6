//! Integration tests of the DRL pipeline: the training environment, the
//! trained policy's behaviour, and determinism.

use oic::core::acc::{AccCaseStudy, EpisodeConfig};
use oic::core::{AlwaysRunPolicy, SkipPolicy};
use oic::sim::front::SinusoidalFront;
use oic::sim::fuel::Hbefa3Fuel;

fn case() -> &'static AccCaseStudy {
    use std::sync::OnceLock;
    static CASE: OnceLock<AccCaseStudy> = OnceLock::new();
    CASE.get_or_init(|| AccCaseStudy::build_default().expect("case study builds"))
}

#[test]
fn training_improves_return() {
    let case = case();
    let params = case.params().clone();
    let (_, stats) = case.train_drl(
        Box::new(move |seed| Box::new(SinusoidalFront::new(&params, 40.0, 9.0, 1.0, seed))),
        60,
        100,
        1,
        11,
    );
    assert_eq!(stats.episode_returns.len(), 60);
    // Early exploration (high epsilon, forced exits) is costlier than the
    // late policy.
    let early: f64 = stats.episode_returns[..10].iter().sum::<f64>() / 10.0;
    let late = stats.recent_mean_return(10);
    assert!(
        late >= early,
        "training should not make things worse: early {early:.4} late {late:.4}"
    );
}

#[test]
fn trained_policy_skips_and_saves() {
    let case = case();
    let params = case.params().clone();
    let (mut drl, _) = case.train_drl(
        Box::new(move |seed| Box::new(SinusoidalFront::new(&params, 40.0, 9.0, 1.0, seed))),
        60,
        100,
        1,
        13,
    );
    let run = |policy: &mut dyn SkipPolicy| {
        case.run_episode(EpisodeConfig {
            policy,
            front: Box::new(SinusoidalFront::new(case.params(), 40.0, 9.0, 1.0, 999)),
            fuel: Box::new(Hbefa3Fuel::default()),
            steps: 100,
            initial_state: [0.0, 0.0],
            oracle_forecast: false,
        })
        .unwrap()
    };
    let baseline = run(&mut AlwaysRunPolicy);
    let learned = run(&mut drl);
    assert_eq!(learned.summary.safety_violations, 0);
    assert!(
        learned.stats.skipped > 30,
        "skips: {}",
        learned.stats.skipped
    );
    assert!(
        learned.summary.total_fuel < baseline.summary.total_fuel,
        "trained policy should save fuel: {} vs {}",
        learned.summary.total_fuel,
        baseline.summary.total_fuel
    );
}

#[test]
fn training_is_deterministic_per_seed() {
    let case = case();
    let train = || {
        let params = case.params().clone();
        let (policy, stats) = case.train_drl(
            Box::new(move |seed| Box::new(SinusoidalFront::new(&params, 40.0, 9.0, 1.0, seed))),
            10,
            50,
            1,
            21,
        );
        (
            policy.network().forward(&[0.1, 0.1, 0.0, 0.0]),
            stats.episode_returns,
        )
    };
    let (q1, r1) = train();
    let (q2, r2) = train();
    assert_eq!(q1, q2);
    assert_eq!(r1, r2);
}
