//! Offline training of the **golden** DQN skipping policies.
//!
//! The batch engine never trains: it consumes committed weight fixtures
//! (`crates/bench/fixtures/*.bin`, a few KB each) produced by this
//! harness at a pinned seed. Training here deliberately optimizes the
//! quantity the sweeps report — the *skip rate* — by metering `R₂` as a
//! constant 1 per executed controller run (a computation meter, not an
//! actuation meter), so the greedy policy learns to spend a run exactly
//! where it buys the longest certified coast.
//!
//! Everything downstream of the fixture is pure inference (`mul`/`add`/
//! `max` on `f64`), so the committed blobs reproduce bit-identical
//! reports on any host; only re-*training* is host-sensitive (it touches
//! `ln`/`cos` through the initializer).

use oic_core::{CoreError, GreedyDrlPolicy, SkipRewardWeights, SkipTrainingEnv};
use oic_drl::{train, DoubleDqnAgent, DqnConfig, TrainingStats};
use oic_engine::{
    episode_seed, run_batch, run_episode, BatchConfig, CellReport, PolicySpec, PreparedPolicy,
};
use oic_scenarios::{
    AccScenario, DoubleIntegratorScenario, Scenario, ScenarioInstance, ScenarioRegistry,
};

use super::batch::standard_policies;
use super::common::{flag_number, flag_value, parsed_or_exit, ArgsError};

/// Scenarios the golden fixtures are trained for.
pub const GOLDEN_SCENARIOS: [&str; 2] = ["acc", "double-integrator"];

/// Builds a fresh scenario object by registry name (only the golden
/// roster is constructible here; the registry owns the full list).
pub fn scenario_by_name(name: &str) -> Option<Box<dyn Scenario>> {
    match name {
        "acc" => Some(Box::new(AccScenario::default())),
        "double-integrator" => Some(Box::new(DoubleIntegratorScenario)),
        _ => None,
    }
}

/// The `train` bin's flags, for usage text.
const TRAIN_FLAGS: &str = "[--scenario NAME] [--episodes N] [--steps N] [--seed N] [--out FILE]";

/// The `train` bin's arguments: which golden scenario to train (all when
/// `None`), overrides of its pinned [`TrainSpec`], and the output path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrainArgs {
    /// The golden scenario to train; every one of them when `None`.
    pub scenario: Option<String>,
    /// Training episodes, instead of the pinned count.
    pub episodes: Option<usize>,
    /// Steps per training episode, instead of the pinned count.
    pub steps: Option<usize>,
    /// Master seed, instead of the pinned one.
    pub seed: Option<u64>,
    /// Output path, instead of the committed fixture's.
    pub out: Option<String>,
}

impl TrainArgs {
    /// Parses `--scenario NAME --episodes N --steps N --seed N --out
    /// FILE`. An unknown flag, a missing value, an unparsable number or a
    /// scenario outside [`GOLDEN_SCENARIOS`] is an error, never a default.
    fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgsError> {
        let mut parsed = Self::default();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let args = &mut args;
            match flag.as_str() {
                "--help" => return Err(ArgsError::Help),
                "--scenario" => {
                    let name = flag_value(args, &flag)?;
                    if !GOLDEN_SCENARIOS.contains(&name.as_str()) {
                        return Err(ArgsError::Invalid(format!(
                            "--scenario expects one of {GOLDEN_SCENARIOS:?}, got {name:?}"
                        )));
                    }
                    parsed.scenario = Some(name);
                }
                "--episodes" => parsed.episodes = Some(flag_number(args, &flag)?),
                "--steps" => parsed.steps = Some(flag_number(args, &flag)?),
                "--seed" => parsed.seed = Some(flag_number(args, &flag)?),
                "--out" => parsed.out = Some(flag_value(args, &flag)?),
                _ => return Err(ArgsError::Invalid(format!("unknown argument {flag:?}"))),
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments. `--help` prints the usage to stdout
    /// and exits 0; invalid input prints the problem and the usage to
    /// stderr and exits 2.
    pub fn from_env_or_exit() -> Self {
        parsed_or_exit(
            "train",
            TRAIN_FLAGS,
            Self::from_args(std::env::args().skip(1)),
        )
    }
}

/// Training knobs, pinned for the committed fixtures.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSpec {
    /// Registry scenario name.
    pub scenario: String,
    /// Training episodes.
    pub episodes: usize,
    /// Steps per training episode.
    pub steps: usize,
    /// Master seed (network init, exploration, replay, environment).
    pub seed: u64,
    /// Hidden layer widths of the Q-network.
    pub hidden: Vec<usize>,
    /// Discount factor γ.
    pub gamma: f64,
    /// Penalty `w₁` for letting the successor leave `X′`.
    pub leave_weight: f64,
    /// Cost `w₂` per executed controller run (the skip-rate meter).
    pub run_cost: f64,
}

impl TrainSpec {
    /// The pinned golden configuration for one scenario.
    ///
    /// # Panics
    ///
    /// Panics for names outside [`GOLDEN_SCENARIOS`].
    pub fn golden(scenario: &str) -> Self {
        assert!(
            GOLDEN_SCENARIOS.contains(&scenario),
            "no golden spec for {scenario:?}"
        );
        Self {
            scenario: scenario.to_string(),
            episodes: 1_500,
            steps: 60,
            seed: 2020,
            hidden: vec![32, 32],
            // γ close to 1 so a run "spent" now is credited against the
            // forced runs it prevents several coast steps later; the
            // X′-exit penalty is kept *small* (an exit already costs its
            // forced runs through the dynamics — the explicit term only
            // nudges exploration toward anticipation, it must not drown
            // the run meter and push the optimum toward over-running).
            gamma: 0.99,
            leave_weight: 0.03,
            run_cost: 0.1,
        }
    }
}

/// Result of one training run: the serialized network plus the training
/// curve and where the selected checkpoint came from.
#[derive(Debug)]
pub struct TrainedPolicy {
    /// `oic-nn` weight blob (what the fixtures commit) — the **best
    /// checkpoint** under the validation sweep, not the last one.
    pub weights: Vec<u8>,
    /// Per-episode returns/losses across the whole run.
    pub stats: TrainingStats,
    /// Validation skip rate of the selected checkpoint.
    pub validation_skip_rate: f64,
    /// Episode count after which the selected checkpoint was taken.
    pub selected_after: usize,
}

/// Episodes per checkpoint round (train → validate → maybe keep).
const CHECKPOINT_EVERY: usize = 50;

/// Validation sweep seed — deliberately *not* the committed
/// `BENCH_batch.json` seed, so checkpoint selection never peeks at the
/// benchmark episodes it is later judged on.
const VALIDATION_SEED: u64 = 9001;

/// Trains a DQN on the named scenario's own dynamics, controller, and
/// disturbance process, with the skip-rate reward described in the
/// module docs.
///
/// DQN trajectories through a near-flat objective landscape oscillate
/// around the best achievable skip rate, so the harness does checkpoint
/// **selection**: every `CHECKPOINT_EVERY` episodes the current greedy
/// policy is swept through the engine (validation seed, benchmark
/// episode shape) and the blob with the highest violation-free skip rate
/// wins.
///
/// # Errors
///
/// Propagates scenario-build failures; unknown scenarios surface as
/// [`CoreError::Policy`].
pub fn train_policy(spec: &TrainSpec) -> Result<TrainedPolicy, CoreError> {
    let scenario = scenario_by_name(&spec.scenario).ok_or_else(|| CoreError::Policy {
        reason: format!("no trainable scenario named {:?}", spec.scenario),
    })?;
    // A second scenario object for validation: the first moves into the
    // training env's disturbance factory.
    let eval_scenario = scenario_by_name(&spec.scenario).expect("same name");
    let eval_instance = eval_scenario.build()?;

    let instance = scenario.build()?;
    let sets = instance.sets().clone();
    let controller = instance.controller().clone();

    let seed = spec.seed;
    let mut env = SkipTrainingEnv::new(
        sets.clone(),
        Box::new(controller),
        1,
        SkipRewardWeights {
            leave_strengthened: spec.leave_weight,
            energy: spec.run_cost,
        },
        Box::new(move |episode| scenario.disturbance_process(seed ^ (0xD211 + episode * 7919))),
        spec.seed,
    );
    // Meter computation, not actuation: every executed run costs 1, so
    // minimizing discounted cost maximizes the certified skip rate.
    env.set_energy_metric(Box::new(|_x, _u| 1.0));

    let n_w = sets.plant().disturbance_set().dim();
    let state_dim = sets.plant().system().state_dim() + n_w;
    // Decay ε to its floor over ~70% of the planned act() calls.
    let total_acts = (spec.episodes * spec.steps) as f64;
    let epsilon_end = 0.02f64;
    let epsilon_decay = (epsilon_end.ln() / (0.7 * total_acts)).exp();
    let mut agent = DoubleDqnAgent::new(DqnConfig {
        state_dim,
        num_actions: 2,
        hidden: spec.hidden.clone(),
        gamma: spec.gamma,
        learning_rate: 5e-4,
        epsilon_start: 1.0,
        epsilon_end,
        epsilon_decay,
        buffer_capacity: 50_000,
        batch_size: 64,
        target_sync_every: 500,
        learn_start: 1_000,
        seed: spec.seed,
    });

    let mut stats = TrainingStats::default();
    let mut best: Option<(f64, Vec<u8>, usize)> = None;
    let mut trained = 0usize;
    while trained < spec.episodes {
        let round = CHECKPOINT_EVERY.min(spec.episodes - trained);
        let s = train(&mut agent, &mut env, round, spec.steps);
        stats.episode_returns.extend(s.episode_returns);
        stats.episode_losses.extend(s.episode_losses);
        trained += round;
        let blob = agent.save_weights();
        let cell = evaluate_cell(
            &eval_instance,
            &*eval_scenario,
            &blob,
            50,
            50,
            VALIDATION_SEED,
        )?;
        let wins = cell.safety_violations == 0
            && cell.invariant_violations == 0
            && best
                .as_ref()
                .is_none_or(|(b, _, _)| cell.mean_skip_rate > *b);
        if wins {
            best = Some((cell.mean_skip_rate, blob, trained));
        }
    }
    let (validation_skip_rate, weights, selected_after) =
        best.ok_or_else(|| CoreError::Policy {
            reason: "no violation-free checkpoint found".into(),
        })?;
    Ok(TrainedPolicy {
        weights,
        stats,
        validation_skip_rate,
        selected_after,
    })
}

/// Sweeps one learned cell exactly the way the engine's `drl-<name>`
/// cell runs it (same label-derived seeds, same memory handling),
/// without rebuilding the scenario per call.
///
/// # Errors
///
/// Propagates blob-decode/dimension and episode failures.
pub fn evaluate_cell(
    instance: &ScenarioInstance,
    scenario: &dyn Scenario,
    weights: &[u8],
    episodes: usize,
    steps: usize,
    seed: u64,
) -> Result<CellReport, CoreError> {
    let prepared = PreparedPolicy::Drl(GreedyDrlPolicy::from_bytes(weights, instance.sets())?);
    let label = format!("drl-{}", instance.name());
    let mut acc = oic_engine::CellAccumulator::new();
    for episode in 0..episodes {
        let ep_seed = episode_seed(seed, instance.name(), &label, episode);
        let record = run_episode(
            instance, scenario, &prepared, episode, steps, 1, ep_seed, None,
        )?;
        acc.push(&record);
    }
    Ok(CellReport::from_accumulator(
        instance.name(),
        &label,
        steps,
        &acc,
    ))
}

/// Engine-side evaluation of a weight blob on one scenario: the full
/// analytic roster plus the learned policy, at the committed
/// `BENCH_batch.json` settings (50 episodes × 50 steps unless told
/// otherwise).
pub struct EvalReport {
    /// The learned policy's cell.
    pub drl: CellReport,
    /// The analytic cells, roster order.
    pub analytic: Vec<CellReport>,
}

impl EvalReport {
    /// `true` iff the learned cell out-skips every analytic cell with
    /// zero safety/invariant violations anywhere.
    pub fn drl_wins(&self) -> bool {
        self.drl.safety_violations == 0
            && self.drl.invariant_violations == 0
            && self
                .analytic
                .iter()
                .all(|c| self.drl.mean_skip_rate > c.mean_skip_rate)
    }
}

/// Runs the evaluation sweep described on [`EvalReport`].
///
/// # Errors
///
/// Propagates engine failures (bad blobs, unknown scenarios).
pub fn evaluate_policy(
    scenario: &str,
    weights: &[u8],
    episodes: usize,
    steps: usize,
    seed: u64,
) -> Result<EvalReport, CoreError> {
    let object = scenario_by_name(scenario).ok_or_else(|| CoreError::Policy {
        reason: format!("no trainable scenario named {scenario:?}"),
    })?;
    let mut registry = ScenarioRegistry::new();
    registry.register(object);
    let mut policies = standard_policies();
    policies.push(PolicySpec::drl(scenario, weights));
    let config = BatchConfig {
        episodes,
        steps,
        seed,
        ..Default::default()
    };
    let report = run_batch(&registry, &policies, &config).map_err(|e| CoreError::Policy {
        reason: format!("evaluation sweep failed: {e}"),
    })?;
    let mut analytic = Vec::new();
    let mut drl = None;
    for cell in report.cells {
        if cell.policy.starts_with("drl-") {
            drl = Some(cell);
        } else {
            analytic.push(cell);
        }
    }
    Ok(EvalReport {
        drl: drl.ok_or_else(|| CoreError::Policy {
            reason: "learned cell missing from evaluation sweep (dimension mismatch?)".into(),
        })?,
        analytic,
    })
}

/// Sanity-checks a blob round-trips through the inference path for the
/// scenario it claims to serve.
///
/// # Errors
///
/// Propagates decode/dimension failures.
pub fn check_blob(scenario: &str, weights: &[u8]) -> Result<(), CoreError> {
    let object = scenario_by_name(scenario).ok_or_else(|| CoreError::Policy {
        reason: format!("no trainable scenario named {scenario:?}"),
    })?;
    let instance = object.build()?;
    GreedyDrlPolicy::from_bytes(weights, instance.sets()).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<TrainArgs, ArgsError> {
        TrainArgs::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn train_args_are_strict() {
        let args = parse(&["--scenario", "acc", "--episodes", "40", "--seed", "3"]).unwrap();
        assert_eq!(args.scenario.as_deref(), Some("acc"));
        assert_eq!(args.episodes, Some(40));
        assert_eq!(args.seed, Some(3));
        assert_eq!(args.steps, None, "unset flags keep the pinned spec");
        assert_eq!(parse(&[]), Ok(TrainArgs::default()));
        assert_eq!(
            parse(&["--episodes", "abc"]),
            Err(ArgsError::Invalid(
                "--episodes expects a number, got \"abc\"".into()
            ))
        );
        assert_eq!(
            parse(&["--seed"]),
            Err(ArgsError::Invalid("--seed needs a value".into()))
        );
        assert_eq!(
            parse(&["--junk"]),
            Err(ArgsError::Invalid("unknown argument \"--junk\"".into()))
        );
        assert!(parse(&["--scenario", "cstr"]).is_err(), "no golden spec");
        assert_eq!(parse(&["--steps", "5", "--help"]), Err(ArgsError::Help));
    }

    #[test]
    fn tiny_training_produces_a_loadable_blob() {
        let spec = TrainSpec {
            episodes: 3,
            steps: 15,
            ..TrainSpec::golden("double-integrator")
        };
        let trained = train_policy(&spec).unwrap();
        assert_eq!(trained.stats.episode_returns.len(), 3);
        check_blob("double-integrator", &trained.weights).unwrap();
        let eval = evaluate_policy("double-integrator", &trained.weights, 4, 20, 7).unwrap();
        assert_eq!(eval.analytic.len(), standard_policies().len());
        assert_eq!(eval.drl.safety_violations, 0, "Theorem 1");
    }

    #[test]
    fn unknown_scenarios_are_policy_errors() {
        let err = train_policy(&TrainSpec {
            scenario: "ghost".into(),
            ..TrainSpec::golden("acc")
        })
        .unwrap_err();
        assert!(matches!(err, CoreError::Policy { .. }));
        assert!(scenario_by_name("ghost").is_none());
    }
}
