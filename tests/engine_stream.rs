//! Acceptance tests for the work-stealing streaming engine:
//!
//! * the streaming `CellAccumulator` fold agrees exactly with
//!   `CellReport::from_episodes` (property test over random records);
//! * the work-stealing scheduler is byte-identical across thread counts
//!   (1 vs 8 workers, chunked, JSON-diffed);
//! * a 100 000-episode streamed sweep completes without materializing
//!   per-episode records — aggregator state stays O(cells);
//! * the standard registry carries eight certified scenarios and the
//!   engine sweeps all of them.

use oic::core::RunStats;
use oic::engine::{
    run_batch, run_batch_opts, BatchConfig, CellAccumulator, CellReport, EpisodeRecord, PolicySpec,
    SweepOptions,
};
use oic::scenarios::{
    DcMotorScenario, DoubleIntegratorScenario, PendulumCartScenario, QuadrotorAltScenario,
    ScenarioRegistry,
};
use proptest::prelude::*;

fn record(
    episode: usize,
    steps: usize,
    skipped: usize,
    forced: usize,
    effort: f64,
    violations: usize,
    slack: f64,
) -> EpisodeRecord {
    EpisodeRecord {
        episode,
        seed: 0xDEAD_BEEF ^ episode as u64,
        stats: RunStats {
            steps,
            skipped: skipped.min(steps),
            forced_runs: forced.min(steps),
            policy_runs: steps.saturating_sub(skipped).saturating_sub(forced),
            actuation_effort: effort,
        },
        safety_violations: violations,
        invariant_violations: violations / 2,
        min_safe_slack: slack,
        forced_skips: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Folding records one at a time into the streaming accumulator is
    /// *definitionally* the batch aggregation: every aggregate —
    /// means, variances, safety tallies, min/max slack — matches
    /// `CellReport::from_episodes` exactly (same floats, not just close).
    #[test]
    fn streaming_fold_equals_batch_aggregation(
        raw in prop::collection::vec(
            (1usize..200, 0usize..200, 0usize..10, 0.0f64..500.0, 0usize..3, -2.0f64..5.0),
            0..40,
        )
    ) {
        let records: Vec<EpisodeRecord> = raw
            .iter()
            .enumerate()
            .map(|(i, &(steps, skipped, forced, effort, violations, slack))| {
                record(i, steps, skipped, forced, effort, violations, slack)
            })
            .collect();

        let mut acc = CellAccumulator::new();
        for r in &records {
            acc.push(r);
        }
        let streamed = CellReport::from_accumulator("s", "p", 100, &acc);
        let batch = CellReport::from_episodes("s", "p", 100, records.clone());

        prop_assert_eq!(streamed.episodes, batch.episodes);
        prop_assert_eq!(streamed.total_steps, batch.total_steps);
        prop_assert_eq!(streamed.skipped_steps, batch.skipped_steps);
        prop_assert_eq!(streamed.forced_runs, batch.forced_runs);
        prop_assert_eq!(streamed.policy_runs, batch.policy_runs);
        prop_assert_eq!(streamed.safety_violations, batch.safety_violations);
        prop_assert_eq!(streamed.invariant_violations, batch.invariant_violations);
        // Bitwise float equality: both paths run the same Welford fold.
        prop_assert_eq!(streamed.mean_skip_rate.to_bits(), batch.mean_skip_rate.to_bits());
        prop_assert_eq!(streamed.var_skip_rate.to_bits(), batch.var_skip_rate.to_bits());
        prop_assert_eq!(
            streamed.mean_actuation_effort.to_bits(),
            batch.mean_actuation_effort.to_bits()
        );
        prop_assert_eq!(
            streamed.var_actuation_effort.to_bits(),
            batch.var_actuation_effort.to_bits()
        );
        prop_assert_eq!(streamed.min_safe_slack.to_bits(), batch.min_safe_slack.to_bits());
        prop_assert_eq!(streamed.max_safe_slack.to_bits(), batch.max_safe_slack.to_bits());
    }
}

/// The determinism contract the work-stealing rewrite must keep: 1 worker
/// and 8 workers produce byte-identical JSON on the same configuration,
/// with chunks small enough that out-of-order completion is guaranteed.
#[test]
fn work_stealing_scheduler_is_byte_identical_across_thread_counts() {
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(DoubleIntegratorScenario));
    registry.register(Box::new(QuadrotorAltScenario::default()));
    registry.register(Box::new(DcMotorScenario::default()));
    let policies = [
        PolicySpec::BangBang,
        PolicySpec::Random(0.4),
        PolicySpec::Periodic(3),
    ];
    let base = BatchConfig {
        episodes: 60,
        steps: 40,
        seed: 77,
        chunk: 5,
        ..Default::default()
    };
    let serial = run_batch(
        &registry,
        &policies,
        &BatchConfig {
            threads: 1,
            ..base.clone()
        },
    )
    .unwrap();
    let parallel = run_batch(&registry, &policies, &BatchConfig { threads: 8, ..base }).unwrap();
    assert_eq!(serial, parallel, "reports must match structurally");
    assert_eq!(
        serial.to_json(true).to_json_pretty(),
        parallel.to_json(true).to_json_pretty(),
        "JSON must match byte-for-byte"
    );
    assert_eq!(serial.total_safety_violations(), 0);
}

/// A 100k-episode streamed sweep: per-episode records are never
/// materialized (detail stays empty) and the aggregates still account
/// for every episode. With O(episodes) buffering this would hold ~100k
/// records; the streaming accumulator keeps one constant-size state per
/// cell plus at most one in-flight chunk per worker.
#[test]
fn hundred_thousand_episode_sweep_streams_without_episode_records() {
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(DoubleIntegratorScenario));
    let config = BatchConfig {
        episodes: 100_000,
        steps: 3,
        seed: 424_242,
        detail: false,
        ..Default::default()
    };
    let (report, stats) = run_batch_opts(
        &registry,
        &[PolicySpec::BangBang],
        &config,
        &SweepOptions::default(),
    )
    .unwrap();
    assert_eq!(report.cells.len(), 1);
    let cell = &report.cells[0];
    assert_eq!(cell.episodes, 100_000);
    assert_eq!(cell.total_steps, 300_000);
    assert!(
        cell.episodes_detail.is_empty(),
        "streaming must not materialize records"
    );
    assert_eq!(cell.safety_violations, 0, "Theorem 1 at scale");
    assert!(cell.min_safe_slack <= cell.max_safe_slack);
    assert!(cell.var_skip_rate >= 0.0);
    // 100k episodes / auto chunk 1024 → 98 tasks, all executed.
    assert_eq!(
        stats.steal.executed,
        100_000usize.div_ceil(config.chunk_size())
    );
}

/// The registry-wide certification sweep the batch bin relies on: all
/// ten scenarios build, certify, and run through the engine.
#[test]
fn ten_scenario_registry_certifies_and_sweeps() {
    let registry = ScenarioRegistry::standard();
    assert_eq!(registry.len(), 10, "names: {:?}", registry.names());
    for scenario in registry.iter() {
        let instance = scenario.build().unwrap_or_else(|e| {
            panic!("{} failed to build: {e}", scenario.name());
        });
        instance.sets().certify().unwrap_or_else(|e| {
            panic!("{} failed certification: {e}", scenario.name());
        });
    }
    // The three new plants under the engine, including the unstable
    // pendulum: zero violations across every cell.
    let mut fresh = ScenarioRegistry::new();
    fresh.register(Box::new(QuadrotorAltScenario::default()));
    fresh.register(Box::new(PendulumCartScenario::default()));
    fresh.register(Box::new(DcMotorScenario::default()));
    let config = BatchConfig {
        episodes: 50,
        steps: 60,
        seed: 2026,
        ..Default::default()
    };
    let report = run_batch(
        &fresh,
        &[PolicySpec::BangBang, PolicySpec::MaxSkip(2)],
        &config,
    )
    .unwrap();
    assert_eq!(report.cells.len(), 6);
    assert_eq!(report.total_safety_violations(), 0);
    for cell in &report.cells {
        assert_eq!(
            cell.invariant_violations, 0,
            "{}/{}",
            cell.scenario, cell.policy
        );
        assert!(
            cell.min_safe_slack >= -1e-6,
            "{}/{}",
            cell.scenario,
            cell.policy
        );
        assert!(
            cell.mean_skip_rate > 0.0,
            "{}/{} never skipped",
            cell.scenario,
            cell.policy
        );
    }
}
