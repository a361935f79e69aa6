//! Layer replay: re-runs a fixed sample of a cell's episodes through the
//! layers' public functions — `episode_seed`, `sample_initial_state`,
//! `disturbance_process`, `ScenarioInstance::runtime` →
//! `IntermittentController::step`, and the plant step — and then times
//! `Monitor::check`, the policy's `decide`, `Controller::control_with_cache`
//! and `Mlp::forward_batch` separately on the visited states.
//!
//! The replay's `RunStats` must equal the engine's per-episode records,
//! which proves it replays the program the engine ran.

use std::hint::black_box;
use std::time::Instant;

use oic_control::{ControlCache, Controller};
use oic_core::{Monitor, PolicyContext, SkipPolicy, Verdict};
use oic_engine::{episode_seed, BatchConfig, EpisodeRecord, PolicySpec, PreparedPolicy};
use oic_scenarios::{Scenario, ScenarioController, ScenarioInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::median;

/// The disturbance-stream salt the engine applies to episode seeds.
const DISTURBANCE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Repetitions of each cheap timing loop (the median is kept).
const REPS: usize = 3;

/// Per-call costs of one cell's layers, from its replayed episodes.
#[derive(Debug, Clone, Default)]
pub struct CellCost {
    pub scenario: String,
    pub policy: String,
    /// The controller is a tube MPC (its time is measured by the
    /// engine's own `mpc.step_ns`, not attributed from the replay).
    pub tube: bool,
    /// The policy is a learned network (decided by batched inference).
    pub drl: bool,
    pub episodes: usize,
    pub steps: usize,
    pub step_ns: f64,
    pub monitor_ns: f64,
    pub policy_ns: f64,
    pub controller_ns: f64,
    pub nn_ns_per_state: f64,
    pub plant_ns: f64,
    pub disturbance_ns: f64,
    pub sample_init_ns: f64,
}

/// Median over `REPS` runs of `body`, in ns per call (`calls` per run).
fn per_call_ns(calls: usize, mut body: impl FnMut()) -> f64 {
    if calls == 0 {
        return 0.0;
    }
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&runs) / calls as f64
}

/// Accumulates `(total ns, calls)` and averages at the end.
#[derive(Default)]
struct Avg(f64, usize);

impl Avg {
    fn add(&mut self, per_call: f64, calls: usize) {
        self.0 += per_call * calls as f64;
        self.1 += calls;
    }

    fn get(&self) -> f64 {
        if self.1 == 0 {
            0.0
        } else {
            self.0 / self.1 as f64
        }
    }
}

/// Replays `sample` episodes of one cell. `records` are the engine's
/// per-episode records of the same cell; a mismatch is an `Err`.
#[allow(clippy::too_many_arguments)]
pub fn replay_cell(
    scenario: &dyn Scenario,
    instance: &ScenarioInstance,
    policy: &PolicySpec,
    label: &str,
    config: &BatchConfig,
    records: &[EpisodeRecord],
    sample: &[usize],
) -> Result<CellCost, String> {
    let _span = oic_obs::span_with("bench.replay.cell", "bench", || {
        format!("{}/{label}", instance.name())
    });
    let prepared = policy
        .prepare(instance.sets())
        .map_err(|e| format!("{}/{label}: prepare: {e}", instance.name()))?;
    let drl = match &prepared {
        PreparedPolicy::Drl(p) => Some(p.clone()),
        _ => None,
    };
    let sys = instance.sets().plant().system().clone();
    let monitor = Monitor::new(instance.sets().clone());
    let mut cost = CellCost {
        scenario: instance.name().to_string(),
        policy: label.to_string(),
        tube: matches!(instance.controller(), ScenarioController::Tube(_)),
        drl: drl.is_some(),
        ..Default::default()
    };
    let (mut step, mut mon, mut pol, mut ctl, mut nn, mut plant, mut dist, mut init) = (
        Avg::default(),
        Avg::default(),
        Avg::default(),
        Avg::default(),
        Avg::default(),
        Avg::default(),
        Avg::default(),
        Avg::default(),
    );

    for &episode in sample {
        let record = records
            .iter()
            .find(|r| r.episode == episode)
            .ok_or_else(|| {
                format!(
                    "{}/{label}: no engine record for episode {episode}",
                    cost.scenario
                )
            })?;
        // 1. the episode seed
        let seed = episode_seed(config.seed, instance.name(), label, episode);
        if seed != record.seed {
            return Err(format!(
                "{}/{label} episode {episode}: seed {seed} != engine {}",
                cost.scenario, record.seed
            ));
        }
        // 2. the initial state (drawn `REPS` times from the same stream;
        // the median draw time is kept)
        let mut x0 = Vec::new();
        let draws: Vec<f64> = (0..REPS)
            .map(|_| {
                let _span = oic_obs::span("bench.replay.sample_init", "bench");
                let mut rng = StdRng::seed_from_u64(seed);
                let t = Instant::now();
                x0 = instance.sample_initial_state(&mut rng);
                t.elapsed().as_nanos() as f64
            })
            .collect();
        init.add(median(&draws), 1);
        // 3. the disturbance process, 4. the Algorithm 1 runtime,
        // 5. the plant step.
        let mut process = scenario.disturbance_process(seed ^ DISTURBANCE_SALT);
        let mut runtime = instance.runtime(prepared.for_episode(seed), config.memory);
        let mut visited: Vec<(Vec<f64>, Vec<Vec<f64>>, usize)> = Vec::new();
        let mut ran: Vec<Vec<f64>> = Vec::new();
        let mut transitions: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = Vec::new();
        let mut x = x0;
        let mut step_ns = 0.0;
        {
            let _span = oic_obs::span("bench.replay.episode", "bench");
            for t in 0..config.steps {
                let started = Instant::now();
                let decision = runtime.step(&x, &[]).map_err(|e| {
                    format!("{}/{label} episode {episode} step {t}: {e}", cost.scenario)
                })?;
                step_ns += started.elapsed().as_nanos() as f64;
                if decision.verdict == Verdict::Strengthened {
                    visited.push((x.clone(), runtime.w_history().to_vec(), t));
                }
                if !decision.skipped {
                    ran.push(x.clone());
                }
                let w = process.next(t);
                let next = sys.step(&x, &decision.input, &w);
                transitions.push((x, decision.input, w));
                x = next;
            }
        }
        step.add(step_ns / config.steps as f64, config.steps);
        let stats = runtime.stats();
        let engine = &record.stats;
        if (
            stats.steps,
            stats.skipped,
            stats.forced_runs,
            stats.policy_runs,
        ) != (
            engine.steps,
            engine.skipped,
            engine.forced_runs,
            engine.policy_runs,
        ) {
            return Err(format!(
                "{}/{label} episode {episode}: replay (steps {}, skipped {}, forced {}, policy runs {}) \
                 != engine (steps {}, skipped {}, forced {}, policy runs {})",
                cost.scenario,
                stats.steps,
                stats.skipped,
                stats.forced_runs,
                stats.policy_runs,
                engine.steps,
                engine.skipped,
                engine.forced_runs,
                engine.policy_runs
            ));
        }
        cost.episodes += 1;
        cost.steps += stats.steps;

        // Each layer alone, on the states this episode visited.
        {
            let _span = oic_obs::span("bench.replay.monitor", "bench");
            let per = per_call_ns(transitions.len(), || {
                for (x, _, _) in &transitions {
                    black_box(monitor.check(black_box(x)));
                }
            });
            mon.add(per, transitions.len());
        }
        {
            let _span = oic_obs::span("bench.replay.policy", "bench");
            let runs: Vec<f64> = (0..REPS)
                .map(|_| {
                    let mut policy = prepared.for_episode(seed);
                    let t = Instant::now();
                    for (state, history, step) in &visited {
                        let ctx = PolicyContext {
                            state,
                            w_history: history,
                            w_forecast: &[],
                            time_step: *step,
                        };
                        black_box(policy.decide(&ctx));
                    }
                    t.elapsed().as_nanos() as f64
                })
                .collect();
            if !visited.is_empty() {
                pol.add(median(&runs) / visited.len() as f64, visited.len());
            }
        }
        {
            // One pass: a warm-started controller carries its LP basis
            // from call to call, exactly as within an engine episode.
            let _span = oic_obs::span("bench.replay.controller", "bench");
            let controller = instance.controller().clone();
            let mut cache = ControlCache::new();
            let t = Instant::now();
            for state in &ran {
                controller
                    .control_with_cache(state, &mut cache)
                    .map_err(|e| format!("{}/{label}: controller: {e}", cost.scenario))?;
            }
            if !ran.is_empty() {
                ctl.add(t.elapsed().as_nanos() as f64 / ran.len() as f64, ran.len());
            }
        }
        if let Some(policy) = &drl {
            let _span = oic_obs::span("bench.replay.nn", "bench");
            let mut batch = Vec::new();
            let mut row = Vec::new();
            for (state, history, _) in &visited {
                policy.encode_into(state, history, &mut row);
                batch.extend_from_slice(&row);
            }
            let mut out = Vec::new();
            let mut scratch = oic_nn::MlpScratch::new();
            let per = per_call_ns(visited.len(), || {
                policy
                    .network()
                    .forward_batch(&batch, visited.len(), &mut out, &mut scratch);
                black_box(&out);
            });
            nn.add(per, visited.len());
        }
        {
            let _span = oic_obs::span("bench.replay.plant", "bench");
            let per = per_call_ns(transitions.len(), || {
                for (x, u, w) in &transitions {
                    black_box(sys.step(x, u, w));
                }
            });
            plant.add(per, transitions.len());
        }
        {
            let _span = oic_obs::span("bench.replay.disturbance", "bench");
            let runs: Vec<f64> = (0..REPS)
                .map(|_| {
                    let mut process = scenario.disturbance_process(seed ^ DISTURBANCE_SALT);
                    let t = Instant::now();
                    for t in 0..config.steps {
                        black_box(process.next(t));
                    }
                    t.elapsed().as_nanos() as f64
                })
                .collect();
            dist.add(median(&runs) / config.steps as f64, config.steps);
        }
    }
    cost.step_ns = step.get();
    cost.monitor_ns = mon.get();
    cost.policy_ns = pol.get();
    cost.controller_ns = ctl.get();
    cost.nn_ns_per_state = nn.get();
    cost.plant_ns = plant.get();
    cost.disturbance_ns = dist.get();
    cost.sample_init_ns = init.get();
    Ok(cost)
}
