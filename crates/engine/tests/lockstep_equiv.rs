//! Lockstep episode kernel ⇔ scalar reference equivalence.
//!
//! The lockstep kernel's whole contract is that it changes *when* work
//! happens, never *what* is computed: per-episode RNG streams, dropout
//! draws, and every floating-point operation execute in exactly the
//! order of the one-episode reference [`run_episode`] below (Algorithm 1
//! through `IntermittentController`). These tests pin that contract end
//! to end through the public API: every sweep runs with per-episode
//! detail, and every record it reports must equal the reference's record
//! for the same cell and episode **bit for bit** — across state
//! dimensions 2–4 (monomorphized kernels), thread counts {1, 8}, with and
//! without actuation dropouts, and with learned (DRL) and tube-MPC cells
//! in the roster.

use oic_core::CoreError;
use oic_engine::{
    episode_seed, run_batch_opts, BatchConfig, DropoutSpec, EpisodeRecord, PolicySpec,
    PreparedPolicy, SweepOptions,
};
use oic_scenarios::{
    AccScenario, CstrScenario, DoubleIntegratorScenario, Scenario, ScenarioInstance,
    ScenarioRegistry, TwoMassSpringScenario,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The scalar reference: one episode through
/// [`oic_core::IntermittentController`], stepping the plant
/// `x⁺ = Ax + Bu + w` itself. The dropout stream is drawn every step
/// regardless of the decision, and a drop overrides only a step the
/// policy chose to actuate (re-booked by `notify_dropout`). Under an
/// active dropout axis an escape from `XI` ends the episode with its
/// tallies; without one it is an error, as is a non-finite or
/// astronomically large state.
#[allow(clippy::too_many_arguments)]
fn run_episode(
    instance: &ScenarioInstance,
    scenario: &dyn Scenario,
    prepared: &PreparedPolicy,
    episode: usize,
    steps: usize,
    memory: usize,
    seed: u64,
    dropout: &DropoutSpec,
) -> Result<EpisodeRecord, CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let x0 = instance.sample_initial_state(&mut rng);
    let mut process = scenario.disturbance_process(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut runtime = instance.runtime(prepared.for_episode(seed), memory);
    let sys = instance.sets().plant().system().clone();
    let safe = instance.sets().safe();
    let invariant = instance.sets().invariant();
    let mut dropout = (!dropout.is_none()).then(|| dropout.stream(seed));

    let mut x = x0;
    let mut safety_violations = 0usize;
    let mut invariant_violations = 0usize;
    let mut min_safe_slack = f64::INFINITY;
    let mut forced_skips = 0usize;
    let mut escaped = false;
    for t in 0..steps {
        min_safe_slack = min_safe_slack.min(safe.min_slack(&x));
        if !safe.contains_with_tol(&x, 1e-6) {
            safety_violations += 1;
        }
        if !invariant.contains_with_tol(&x, 1e-6) {
            invariant_violations += 1;
        }
        let mut decision = match runtime.step(&x, &[]) {
            Ok(decision) => decision,
            Err(CoreError::OutsideInvariant { .. }) if dropout.is_some() => {
                escaped = true;
                break;
            }
            Err(e) => return Err(e),
        };
        if let Some(stream) = dropout.as_mut() {
            if stream.dropped() && !decision.skipped {
                decision.input = runtime.notify_dropout();
                forced_skips += 1;
            }
        }
        let w = process.next(t);
        x = sys.step(&x, &decision.input, &w);
        if !x.iter().all(|v| v.is_finite() && v.abs() < 1e12) {
            return Err(CoreError::NonFinite { step: t });
        }
    }
    // The final post-step state is a trajectory point too; an escaped
    // episode already counted its last state.
    if !escaped {
        min_safe_slack = min_safe_slack.min(safe.min_slack(&x));
        if !safe.contains_with_tol(&x, 1e-6) {
            safety_violations += 1;
        }
        if !invariant.contains_with_tol(&x, 1e-6) {
            invariant_violations += 1;
        }
    }

    Ok(EpisodeRecord {
        episode,
        seed,
        stats: runtime.stats().clone(),
        safety_violations,
        invariant_violations,
        min_safe_slack,
        forced_skips,
    })
}

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
                dropout,
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
