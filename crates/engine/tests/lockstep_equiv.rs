//! Lockstep episode kernel ⇔ scalar reference equivalence.
//!
//! The lockstep kernel's whole contract is that it changes *when* work
//! happens, never *what* is computed: per-episode RNG streams, dropout
//! draws, and every floating-point operation execute in exactly the
//! order of the one-episode reference [`run_episode`] (Algorithm 1
//! through `IntermittentController`). These tests pin that contract end
//! to end through the public API: every sweep runs with per-episode
//! detail, and every record it reports must equal the reference's record
//! for the same cell and episode **bit for bit** — across state
//! dimensions 2–4 (monomorphized kernels), thread counts {1, 8}, with and
//! without actuation dropouts, and with learned (DRL) and tube-MPC cells
//! in the roster.

use oic_engine::{
    episode_seed, run_batch_opts, run_episode, BatchConfig, DropoutSpec, EpisodeRecord, PolicySpec,
    SweepOptions,
};
use oic_scenarios::{
    AccScenario, CstrScenario, DoubleIntegratorScenario, ScenarioRegistry, TwoMassSpringScenario,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every field of a record as raw bits, so `-0.0`/`0.0` and distinct NaN
/// payloads cannot compare equal by accident.
fn record_bits(r: &EpisodeRecord) -> [u64; 11] {
    [
        r.episode as u64,
        r.seed,
        r.stats.steps as u64,
        r.stats.skipped as u64,
        r.stats.forced_runs as u64,
        r.stats.policy_runs as u64,
        r.stats.actuation_effort.to_bits(),
        r.safety_violations as u64,
        r.invariant_violations as u64,
        r.min_safe_slack.to_bits(),
        r.forced_skips as u64,
    ]
}

/// Runs one detail sweep and checks that it covers the whole grid and
/// that each of its episode records equals [`run_episode`]'s, bit for
/// bit. Returns the number of records compared.
fn assert_matches_reference(
    registry: &ScenarioRegistry,
    policies: &[PolicySpec],
    config: &BatchConfig,
    dropouts: &[DropoutSpec],
) -> usize {
    let opts = SweepOptions {
        dropouts: Some(dropouts),
        ..Default::default()
    };
    let (report, _) = run_batch_opts(registry, policies, config, &opts).expect("sweep runs");
    let mut compared = 0;
    for cell in &report.cells {
        let context = format!("{}/{}/{}", cell.scenario, cell.policy, cell.dropout);
        assert!(!cell.is_failed(), "{context}: {:?}", cell.outcome);
        assert_eq!(cell.episodes_detail.len(), config.episodes, "{context}");
        let scenario = registry.get(&cell.scenario).expect("registered scenario");
        let instance = scenario.build().expect("scenario certifies");
        let policy = policies
            .iter()
            .find(|p| p.label() == cell.policy)
            .expect("roster policy");
        let prepared = policy.prepare(instance.sets()).expect("policy prepares");
        let dropout = dropouts
            .iter()
            .find(|d| d.label() == cell.dropout)
            .expect("dropout variant");
        for (episode, record) in cell.episodes_detail.iter().enumerate() {
            let seed = episode_seed(config.seed, &cell.scenario, &cell.policy, episode);
            let reference = run_episode(
                &instance,
                scenario,
                &prepared,
                episode,
                config.steps,
                config.memory,
                seed,
                Some(dropout),
            )
            .expect("reference episode runs");
            assert_eq!(
                record_bits(record),
                record_bits(&reference),
                "{context} episode {episode}: lockstep {record:?} vs reference {reference:?}"
            );
            compared += 1;
        }
    }
    compared
}

fn test_blob(sizes: &[usize], seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    oic_nn::Mlp::new(sizes, oic_nn::Activation::Relu, &mut rng)
        .to_bytes()
        .to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Lockstep records equal the reference's across state dims 2–4,
    /// thread counts {1, 8}, and dropout axes {none, mk-1-4}.
    #[test]
    fn lockstep_records_match_reference(
        scenario_ix in 0..3usize,
        threads_ix in 0..2usize,
        with_dropout in 0..2usize,
        seed in 0..1_000u64,
    ) {
        let mut registry = ScenarioRegistry::new();
        match scenario_ix {
            0 => registry.register(Box::new(DoubleIntegratorScenario)), // n = 2
            1 => registry.register(Box::new(CstrScenario::default())),  // n = 3
            _ => registry.register(Box::new(TwoMassSpringScenario::default())), // n = 4
        }
        let policies = [
            PolicySpec::BangBang,
            PolicySpec::Random(0.3),
            PolicySpec::MaxSkip(2),
        ];
        let config = BatchConfig {
            episodes: 10,
            steps: 30,
            threads: [1, 8][threads_ix],
            chunk: 3,
            seed,
            detail: true,
            ..Default::default()
        };
        let dropouts: &[DropoutSpec] = if with_dropout == 1 {
            &[DropoutSpec::None, DropoutSpec::WeaklyHard { m: 1, k: 4 }]
        } else {
            &[DropoutSpec::None]
        };
        let compared = assert_matches_reference(&registry, &policies, &config, dropouts);
        prop_assert_eq!(compared, policies.len() * dropouts.len() * config.episodes);
    }
}

/// A roster mixing tube-MPC actuation (acc) with a learned skipping
/// policy exercises the kernel's LP-solver and batched-MLP paths; the
/// records must still match the reference at both thread counts.
#[test]
fn mpc_and_drl_roster_matches_reference() {
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(AccScenario::default()));
    registry.register(Box::new(DoubleIntegratorScenario));
    // 2 states + one 2-dim disturbance-history slot → 4 network inputs.
    let policies = [
        PolicySpec::AlwaysRun,
        PolicySpec::drl("test", test_blob(&[4, 8, 2], 7)),
        PolicySpec::Periodic(4),
    ];
    for threads in [1, 8] {
        let config = BatchConfig {
            episodes: 6,
            steps: 25,
            threads,
            chunk: 2,
            detail: true,
            ..Default::default()
        };
        let compared =
            assert_matches_reference(&registry, &policies, &config, &[DropoutSpec::None]);
        assert_eq!(
            compared,
            registry.len() * policies.len() * config.episodes,
            "threads = {threads}"
        );
    }
}
