//! The per-layer ledger: turns one traced pass (the program's own
//! `oic-obs` counters and histograms), the scenario-build profile, and
//! the layer replay's per-call costs into the per-layer metrics.
//!
//! LP counters are reported net of the program's per-call set-up: every
//! sweep call (and every served request) builds its scenarios and
//! prepares each policy on them before it consults the cache, and that
//! LP work is measured once per scenario and per (scenario, policy) in
//! the [`BuildProfile`] and subtracted for every call. What remains is
//! the per-episode LP work of the executed cells.
//!
//! Layer seconds are per-call replay costs × the engine's call counts,
//! except the tube MPC, whose seconds are the engine's own `mpc.step_ns`.
//! `engine.residual_s` is the engine busy time those layers leave
//! uncovered, so the attributed rows and the residual sum to
//! `engine.busy_s` exactly.

use std::collections::HashMap;
use std::time::Instant;

use oic_engine::PolicySpec;
use oic_scenarios::ScenarioRegistry;

use crate::cells::CellRow;
use crate::replay::CellCost;
use crate::stats::{median, Telemetry};
use crate::sweep::EXCLUDED;
use crate::Outcome;

/// The LP counters the ledger reports.
const LP_COUNTERS: [&str; 5] = [
    "lp.solves",
    "lp.pivots",
    "lp.phase1_entries",
    "lp.refactorizations",
    "lp.warm_hits",
];

/// Timing, LP work and certification time of each scenario's
/// `Scenario::build`, and the LP work of preparing each policy on it,
/// measured serially.
pub struct BuildProfile {
    pub ms: HashMap<String, f64>,
    pub cert_ns: HashMap<String, u64>,
    /// `LP_COUNTERS` deltas of one build, per scenario.
    pub lp: HashMap<String, [u64; 5]>,
    /// `LP_COUNTERS` deltas of one `PolicySpec::prepare`, per
    /// `(scenario, policy label)` pair the policy applies to.
    pub prepare_lp: HashMap<(String, String), [u64; 5]>,
    /// State and disturbance dimensions, per scenario.
    pub dims: HashMap<String, (usize, usize)>,
    /// Registry order.
    pub names: Vec<String>,
}

impl BuildProfile {
    /// Builds every registered scenario a workload may run (all but
    /// [`EXCLUDED`]) `rounds` times with metrics on
    /// (the time is the median round), then prepares every `roster`
    /// policy on it once. Leaves metrics off and zeroed.
    pub fn measure(
        registry: &ScenarioRegistry,
        roster: &[PolicySpec],
        rounds: usize,
    ) -> Result<Self, String> {
        let mut profile = Self {
            ms: HashMap::new(),
            cert_ns: HashMap::new(),
            lp: HashMap::new(),
            prepare_lp: HashMap::new(),
            dims: HashMap::new(),
            names: Vec::new(),
        };
        oic_obs::set_metrics_enabled(true);
        for scenario in registry.iter() {
            if EXCLUDED.contains(&scenario.name()) {
                continue;
            }
            let name = scenario.name().to_string();
            let _span = oic_obs::span_with("bench.build", "bench", || name.clone());
            let mut times = Vec::with_capacity(rounds);
            let mut instance = None;
            for _ in 0..rounds.max(1) {
                oic_obs::reset_metrics();
                let t = Instant::now();
                instance = Some(
                    scenario
                        .build()
                        .map_err(|e| format!("{name}: build failed: {e}"))?,
                );
                times.push(t.elapsed().as_secs_f64() * 1e3);
            }
            let telemetry = Telemetry::snapshot();
            profile.ms.insert(name.clone(), median(&times));
            profile
                .cert_ns
                .insert(name.clone(), telemetry.hist_sum_prefix("cert."));
            profile
                .lp
                .insert(name.clone(), LP_COUNTERS.map(|c| telemetry.counter(c)));
            let instance = instance.expect("at least one build round");
            let plant = instance.sets().plant();
            profile.dims.insert(
                name.clone(),
                (plant.system().state_dim(), plant.disturbance_set().dim()),
            );
            for policy in roster {
                oic_obs::reset_metrics();
                // A learned policy whose dimensions do not fit is never
                // prepared by the sweep either.
                if policy.prepare(instance.sets()).is_ok() {
                    let telemetry = Telemetry::snapshot();
                    profile.prepare_lp.insert(
                        (name.clone(), policy.label()),
                        LP_COUNTERS.map(|c| telemetry.counter(c)),
                    );
                }
            }
            profile.names.push(name);
        }
        oic_obs::set_metrics_enabled(false);
        oic_obs::reset_metrics();
        Ok(profile)
    }

    /// Reports `scenarios.build_ms` (the scenarios in `used`),
    /// `scenarios.build_ms.<scenario>` for every scenario, and
    /// `control.cert_ms` (the used scenarios' `cert.*_ns` histograms).
    pub fn report(&self, used: &[String], out: &mut Outcome) {
        let total: f64 = used.iter().map(|s| self.ms[s]).sum();
        let cert: u64 = used.iter().map(|s| self.cert_ns[s]).sum();
        out.metric("scenarios.build_ms", total, "ms", used.len());
        for name in &self.names {
            out.metric(
                &format!("scenarios.build_ms.{name}"),
                self.ms[name],
                "ms",
                1,
            );
        }
        out.metric("control.cert_ms", cert as f64 / 1e6, "ms", used.len());
    }
}

/// One traced pass, as the ledger needs it.
pub struct Pass<'a> {
    /// The program's telemetry over the pass.
    pub telemetry: &'a Telemetry,
    /// Sweep calls (or requests) the telemetry covers.
    pub calls: usize,
    /// How often each scenario was built inside the program during the
    /// pass (its LP work is subtracted from the LP counters).
    pub builds: &'a HashMap<String, usize>,
    /// How often each `(scenario, policy)` pair was prepared during the
    /// pass (likewise subtracted).
    pub prepares: &'a HashMap<(String, String), usize>,
    /// The cells the engine executed (not answered from cache).
    pub cells: &'a [CellRow],
    /// Replay costs per `(scenario, policy)`.
    pub costs: &'a [CellCost],
    /// Wall time of the executing phase, and the workers that shared it.
    pub wall_s: f64,
    pub workers: usize,
}

/// Adds the LP, MPC, replay, layer-seconds and engine metrics.
pub fn report(pass: &Pass<'_>, profile: &BuildProfile, out: &mut Outcome) {
    let t = pass.telemetry;
    // LP work of the episodes: the program's counters minus the LP work
    // of every scenario build and policy preparation of the pass.
    let mut lp = LP_COUNTERS.map(|c| t.counter(c) as f64);
    let mut subtract = |per_call: &[u64; 5], count: usize| {
        for (total, work) in lp.iter_mut().zip(per_call) {
            *total -= (*work * count as u64) as f64;
        }
    };
    for (name, &count) in pass.builds {
        if let Some(per_build) = profile.lp.get(name) {
            subtract(per_build, count);
        }
    }
    let mut prepare_solves = 0u64;
    for (pair, &count) in pass.prepares {
        if let Some(per_prepare) = profile.prepare_lp.get(pair) {
            subtract(per_prepare, count);
            prepare_solves += per_prepare[0] * count as u64;
        }
    }
    let [solves, pivots, phase1, refactor, warm_hits] = lp;
    let episodes: usize = pass.cells.iter().map(|c| c.episodes).sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // Every episode takes the bounding boxes of X′ (initial-state
    // sampling) and of W (the disturbance process): 2n + 2n_w solves.
    let box_solves: usize = pass
        .cells
        .iter()
        .map(|c| {
            profile
                .dims
                .get(&c.scenario)
                .map_or(0, |(n, nw)| 2 * (n + nw))
                * c.episodes
        })
        .sum();
    out.info(
        "lp.box_solves_per_episode",
        ratio(box_solves as f64, episodes as f64),
    );
    out.metric(
        "lp.prepare_solves_per_call",
        ratio(prepare_solves as f64, pass.calls as f64),
        "count",
        pass.calls,
    );
    out.metric("lp.solves", solves, "count", 1);
    out.metric(
        "lp.solves_per_episode",
        ratio(solves, episodes as f64),
        "count",
        episodes,
    );
    out.metric("lp.pivots", pivots, "count", 1);
    out.metric("lp.pivots_per_solve", ratio(pivots, solves), "count", 1);
    out.metric("lp.phase1_entries", phase1, "count", 1);
    out.metric("lp.refactorizations", refactor, "count", 1);
    out.metric("lp.warm_hit_ratio", ratio(warm_hits, solves), "ratio", 1);

    let mpc = t.hist("mpc.step_ns");
    let mpc_s = mpc.sum as f64 / 1e9;
    let busy_s = t.hist("engine.chunk_ns").sum as f64 / 1e9;
    out.metric("mpc.steps", mpc.count as f64, "count", 1);
    out.metric("mpc.busy_s", mpc_s, "s", 1);
    out.metric(
        "mpc.step_us_p50",
        mpc.percentile(0.5) / 1e3,
        "us",
        mpc.count as usize,
    );
    out.metric(
        "mpc.step_us_p99",
        mpc.percentile(0.99) / 1e3,
        "us",
        mpc.count as usize,
    );
    out.metric("mpc.cpu_share", ratio(mpc_s, busy_s), "ratio", 1);

    // Layer seconds: per-call replay cost × the engine's call counts.
    let by_cell: HashMap<(&str, &str), &CellCost> = pass
        .costs
        .iter()
        .map(|c| ((c.scenario.as_str(), c.policy.as_str()), c))
        .collect();
    #[derive(Default)]
    struct Sums {
        steps: f64,
        step: f64,
        monitor: f64,
        decisions: f64,
        policy: f64,
        nn_states: f64,
        nn: f64,
        runs: f64,
        forced: f64,
        controller_all: f64,
        controller_linear: f64,
        plant: f64,
        disturbance: f64,
        episodes: f64,
        sample: f64,
        unreplayed: usize,
    }
    let mut s = Sums::default();
    for cell in pass.cells.iter().filter(|c| !c.failed) {
        let steps = cell.steps as f64;
        let runs = (cell.steps - cell.skipped) as f64;
        let decisions = (cell.steps - cell.forced_runs) as f64;
        s.steps += steps;
        s.runs += runs;
        s.forced += cell.forced_runs as f64;
        let Some(cost) = by_cell.get(&(cell.scenario.as_str(), cell.policy.as_str())) else {
            s.unreplayed += 1;
            continue;
        };
        s.step += cost.step_ns * steps;
        s.monitor += cost.monitor_ns * steps;
        if cost.drl {
            s.nn_states += decisions;
            s.nn += cost.nn_ns_per_state * decisions;
        } else {
            s.decisions += decisions;
            s.policy += cost.policy_ns * decisions;
        }
        s.controller_all += cost.controller_ns * runs;
        if !cost.tube {
            s.controller_linear += cost.controller_ns * runs;
        }
        s.plant += cost.plant_ns * steps;
        s.disturbance += cost.disturbance_ns * steps;
        s.episodes += cell.episodes as f64;
        s.sample += cost.sample_init_ns * cell.episodes as f64;
    }
    let n = |calls: f64| calls.max(1.0) as usize;
    out.metric("core.step_ns", ratio(s.step, s.steps), "ns", n(s.steps));
    out.metric(
        "core.monitor_ns",
        ratio(s.monitor, s.steps),
        "ns",
        n(s.steps),
    );
    out.metric(
        "core.policy_ns",
        ratio(s.policy, s.decisions),
        "ns",
        n(s.decisions),
    );
    out.metric(
        "core.controller_ns",
        ratio(s.controller_all, s.runs),
        "ns",
        n(s.runs),
    );
    out.metric(
        "nn.infer_ns_per_state",
        ratio(s.nn, s.nn_states),
        "ns",
        n(s.nn_states),
    );
    out.metric("sim.plant_ns", ratio(s.plant, s.steps), "ns", n(s.steps));
    out.metric(
        "scenarios.disturbance_ns",
        ratio(s.disturbance, s.steps),
        "ns",
        n(s.steps),
    );
    out.metric(
        "scenarios.sample_init_us",
        ratio(s.sample, s.episodes) / 1e3,
        "us",
        n(s.episodes),
    );
    out.metric(
        "core.run_ratio",
        ratio(s.runs, s.steps),
        "ratio",
        n(s.steps),
    );
    out.metric(
        "core.forced_run_ratio",
        ratio(s.forced, s.steps),
        "ratio",
        n(s.steps),
    );
    out.info("unreplayed_cells", s.unreplayed);

    let rows = [
        ("core.controller_s", s.controller_linear / 1e9),
        ("core.monitor_s", s.monitor / 1e9),
        ("core.policy_s", s.policy / 1e9),
        ("nn.infer_s", s.nn / 1e9),
        ("sim.plant_s", s.plant / 1e9),
        ("scenarios.disturbance_s", s.disturbance / 1e9),
        ("scenarios.sample_init_s", s.sample / 1e9),
    ];
    let attributed: f64 = mpc_s + rows.iter().map(|(_, v)| v).sum::<f64>();
    for (name, value) in rows {
        out.metric(name, value, "s", 1);
    }
    let capacity = pass.workers as f64 * pass.wall_s;
    out.metric(
        "engine.busy_s",
        busy_s,
        "s",
        t.hist("engine.chunk_ns").count as usize,
    );
    out.metric("engine.idle_s", capacity - busy_s, "s", 1);
    out.metric(
        "engine.parallel_efficiency",
        ratio(busy_s, capacity),
        "ratio",
        1,
    );
    out.metric(
        "engine.tasks",
        t.counter("engine.tasks_executed") as f64,
        "count",
        1,
    );
    out.metric(
        "engine.steals",
        t.counter("engine.steals") as f64,
        "count",
        1,
    );
    out.metric(
        "engine.cells_failed",
        t.counter("engine.cells_failed") as f64,
        "count",
        1,
    );
    out.metric("engine.residual_s", busy_s - attributed, "s", 1);
}
