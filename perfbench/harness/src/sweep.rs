//! The sweep workload: seeded sweeps through `run_batch_opts`, the
//! entry point the `batch` and `serve` binaries share.
//!
//! `sweep-full` runs every registered scenario except `lane-keeping`
//! (see [`EXCLUDED`]) × the full roster (five analytic policies and the
//! golden DRL networks where they fit), the `batch` bin's default grid.
//! Its CPU goes to the tube-MPC LP on `acc`.
//!
//! Each iteration runs one freshly seeded sweep cold into an in-memory
//! cell cache, then repeats it warm (answered from the cache, as a
//! `batch --cache-dir` re-run is); warm reports must be byte-identical.
//!
//! Timings are whole-run means, not medians: on a shared host each
//! core's speed flips between two levels about 1.4× apart for seconds at
//! a time, so the samples of equal-sized calls fall into two clusters
//! and their median jumps between them from run to run, while their mean
//! moves only with the share of time spent at each level.
//!
//! `sweep-full` runs 8 episodes per cell, fewer than `batch`'s default:
//! a cold call then takes about 1.3 s on a 2-core host, of which the
//! serial build-and-prepare phase (what a warm call consists of) is
//! about a sixth (`engine.serial_share`), and a 55-second run yields
//! about forty cold samples.

use std::collections::HashMap;
use std::time::Instant;

use oic_engine::{
    run_batch_opts, BatchConfig, BatchReport, CacheStats, CellCache, EpisodeRecord, PolicySpec,
    SweepOptions,
};
use oic_scenarios::ScenarioRegistry;

use crate::cells::{CellRow, Quality};
use crate::ledger::{self, BuildProfile, Pass};
use crate::replay::{replay_cell, CellCost};
use crate::stats::{iq_mean, mean, mix, peak_rss_mb, workers, Telemetry};
use crate::{Args, Outcome};

/// The tube-MPC scenarios.
pub const MPC_SCENARIOS: [&str; 2] = ["acc", "lane-keeping"];
/// Scenarios no workload runs. `lane-keeping` fails Theorem 1 on a few
/// seeded episodes (ROADMAP item 1): its cells fail on some seeds and
/// not on others, and a benchmark workload must not fail.
pub const EXCLUDED: [&str; 1] = ["lane-keeping"];
/// Steps per episode in every workload (the paper's protocol).
pub const STEPS: usize = 100;
/// Episodes per cell.
const EPISODES: usize = 8;
/// Capacity of the in-memory cell cache, in cells: enough for one
/// sweep's cells, which its warm repeats read right after it, and small
/// enough that the cache stops growing early in the run, so
/// `peak_rss_mb` does not depend on how many sweeps a run got through.
const MEM_CELLS: usize = 256;
/// Warm repeats per cold sweep.
const WARM_REPEATS: usize = 2;
/// Least serial build rounds behind `setup_s` (their interquartile mean
/// is reported).
const SETUP_ROUNDS: usize = 5;
/// Build rounds per scenario in the traced build profile.
pub const PROFILE_ROUNDS: usize = 3;

/// One seeded sweep and what came back. Only a digest of the report is
/// kept, so the harness's memory does not grow with the number of calls.
struct Call {
    seed: u64,
    wall_s: f64,
    /// SHA-256 of the report's JSON.
    digest: [u8; 32],
    rows: Vec<CellRow>,
    cells_from_cache: usize,
}

struct Workload {
    name: String,
    registry: ScenarioRegistry,
    scenarios: Vec<String>,
    roster: Vec<PolicySpec>,
    episodes: usize,
}

impl Workload {
    fn new(name: &str) -> Self {
        let registry = oic_bench::golden::registry_with_golden();
        let mut roster = oic_bench::experiments::batch::standard_policies();
        roster.extend(oic_bench::golden::drl_policies(&registry));
        let scenarios = registry
            .names()
            .into_iter()
            .filter(|n| !EXCLUDED.contains(n))
            .map(str::to_string)
            .collect();
        Self {
            name: name.to_string(),
            registry,
            scenarios,
            roster,
            episodes: EPISODES,
        }
    }

    fn config(&self, seed: u64, detail: bool) -> BatchConfig {
        BatchConfig {
            episodes: self.episodes,
            steps: STEPS,
            seed,
            detail,
            ..BatchConfig::default()
        }
    }

    fn call(&self, seed: u64, cache: Option<&CellCache>) -> Result<Call, String> {
        self.call_with_report(seed, cache, false)
            .map(|(call, _)| call)
    }

    fn call_with_report(
        &self,
        seed: u64,
        cache: Option<&CellCache>,
        detail: bool,
    ) -> Result<(Call, BatchReport), String> {
        let _span = oic_obs::span_with("bench.sweep", "bench", || format!("seed {seed}"));
        let opts = SweepOptions {
            scenarios: Some(&self.scenarios),
            cache,
            ..SweepOptions::default()
        };
        let started = Instant::now();
        let (report, stats) = run_batch_opts(
            &self.registry,
            &self.roster,
            &self.config(seed, detail),
            &opts,
        )
        .map_err(|e| format!("{}: sweep failed: {e}", self.name))?;
        let wall_s = started.elapsed().as_secs_f64();
        let doc = report.to_json(false);
        let rows = doc
            .get("cells")
            .and_then(oic_engine::JsonValue::as_array)
            .ok_or("report without cells")?
            .iter()
            .map(CellRow::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let call = Call {
            seed,
            wall_s,
            digest: oic_engine::sha256(doc.to_json().as_bytes()),
            rows,
            cells_from_cache: stats.cells_from_cache,
        };
        Ok((call, report))
    }

    /// One serial `Scenario::build` of every scenario the sweep uses.
    fn build_round(&self) -> Result<f64, String> {
        let started = Instant::now();
        for name in &self.scenarios {
            let scenario = self.registry.get(name).ok_or("unregistered scenario")?;
            scenario
                .build()
                .map_err(|e| format!("{name}: build failed: {e}"))?;
        }
        Ok(started.elapsed().as_secs_f64())
    }
}

/// Executed control steps of a call's non-failed cells.
fn executed_steps(call: &Call) -> usize {
    call.rows
        .iter()
        .filter(|c| !c.failed)
        .map(|c| c.steps)
        .sum()
}

/// The timed loop: cold sweep, then its warm repeats, until `seconds`
/// passed (and at least twice), or over exactly `seeds` when given.
/// With `setup`, one untimed serial build round runs after every
/// iteration: spreading the set-up samples over the whole run keeps a
/// few seconds of host noise from skewing their mean. With
/// `cold_metrics`, `oic-obs` metrics are on during the cold calls only,
/// so the telemetry covers exactly the executed cells.
struct Loop {
    cold: Vec<Call>,
    /// Wall time of each warm call.
    warm_s: Vec<f64>,
    /// The cell cache's traffic over every call.
    cache: CacheStats,
}

fn timed_loop(
    w: &Workload,
    args: &Args,
    seconds: f64,
    seeds: Option<&[u64]>,
    mut setup: Option<&mut Vec<f64>>,
    cold_metrics: bool,
    out: &mut Outcome,
) -> Result<Loop, String> {
    let cache = CellCache::new(MEM_CELLS, None);
    let mut result = Loop {
        cold: Vec::new(),
        warm_s: Vec::new(),
        cache: CacheStats::default(),
    };
    let started = Instant::now();
    for i in 0.. {
        let seed = match seeds {
            Some(list) if i >= list.len() => break,
            Some(list) => list[i],
            None if i >= 2 && started.elapsed().as_secs_f64() >= seconds => break,
            None => mix(args.seed, i as u64),
        };
        oic_obs::set_metrics_enabled(cold_metrics);
        let cold = w.call(seed, Some(&cache));
        oic_obs::set_metrics_enabled(false);
        let cold = cold?;
        if let Some(first) = result.cold.first() {
            if cold.rows.len() != first.rows.len() {
                out.problem(format!(
                    "seed {seed}: {} cells, expected {}",
                    cold.rows.len(),
                    first.rows.len()
                ));
            }
        }
        let computed = cold.rows.iter().filter(|c| !c.failed).count();
        for _ in 0..WARM_REPEATS {
            let warm = w.call(seed, Some(&cache))?;
            if warm.digest != cold.digest {
                out.problem(format!(
                    "seed {seed}: warm report differs from the cold one"
                ));
            }
            if warm.cells_from_cache != computed {
                out.problem(format!(
                    "seed {seed}: warm sweep answered {} of {computed} cells from cache",
                    warm.cells_from_cache
                ));
            }
            result.warm_s.push(warm.wall_s);
        }
        result.cold.push(cold);
        if let Some(rounds) = setup.as_deref_mut() {
            rounds.push(w.build_round()?);
        }
    }
    result.cache = cache.stats();
    Ok(result)
}

impl Loop {
    /// Summed wall time of every cold and warm call.
    fn calls_s(&self) -> f64 {
        self.cold.iter().map(|c| c.wall_s).sum::<f64>() + self.warm_s.iter().sum::<f64>()
    }
}

fn account(calls: &[Call], out: &mut Outcome) -> Quality {
    let mut quality = Quality::default();
    for call in calls {
        quality.add_group(&call.rows);
        out.attempted += call.rows.len();
        out.failed += call.rows.iter().filter(|c| c.is_failed_op()).count();
    }
    quality
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let w = Workload::new(&args.workload);
    let mut out = Outcome::default();
    out.info("episodes_per_cell", w.episodes);
    out.info("scenarios", w.scenarios.len());
    if args.trace {
        traced(&w, args, &mut out)?;
    } else {
        untraced(&w, args, &mut out)?;
    }
    Ok(out)
}

fn untraced(w: &Workload, args: &Args, out: &mut Outcome) -> Result<(), String> {
    // Warm-up, untimed: the first call starts the worker threads and
    // faults in the program's memory.
    w.call(mix(args.seed, u64::MAX), None)?;
    let mut setup = Vec::new();
    let run = timed_loop(w, args, args.seconds, None, Some(&mut setup), false, out)?;
    while setup.len() < SETUP_ROUNDS {
        setup.push(w.build_round()?);
    }
    let quality = account(&run.cold, out);
    let cold_ms: Vec<f64> = run.cold.iter().map(|c| c.wall_s * 1e3).collect();
    let warm_ms: Vec<f64> = run.warm_s.iter().map(|s| s * 1e3).collect();
    let steps: usize = run.cold.iter().map(executed_steps).sum();
    let cold_s: f64 = run.cold.iter().map(|c| c.wall_s).sum();
    out.metric("setup_s", iq_mean(&setup), "s", setup.len());
    out.metric("steps_per_s", steps as f64 / cold_s, "1/s", cold_ms.len());
    out.metric("skip_rate", quality.skip_rate(), "ratio", run.cold.len());
    out.metric("peak_rss_mb", peak_rss_mb("self")?, "MiB", 1);
    out.metric("cold_mean_ms", mean(&cold_ms), "ms", cold_ms.len());
    out.metric("warm_mean_ms", mean(&warm_ms), "ms", warm_ms.len());
    let calls = cold_ms.len() + warm_ms.len();
    out.metric("requests_per_s", calls as f64 / run.calls_s(), "1/s", calls);
    Ok(())
}

/// Sampled episodes per cell for the layer replay.
fn replay_sample(episodes: usize) -> Vec<usize> {
    let mut sample = vec![0, episodes / 2];
    sample.dedup();
    sample
}

fn traced(w: &Workload, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let profile = BuildProfile::measure(&w.registry, &w.roster, PROFILE_ROUNDS)?;

    // The same sweeps untraced, then traced: the reports must match byte
    // for byte, and the wall-time ratio is the tracing overhead.
    let plain = timed_loop(w, args, args.seconds / 2.0, None, None, false, out)?;
    let seeds: Vec<u64> = plain.cold.iter().map(|c| c.seed).collect();
    oic_obs::reset_metrics();
    oic_obs::reset_trace();
    oic_obs::set_trace_enabled(true);
    let traced = timed_loop(w, args, 0.0, Some(&seeds), None, true, out);
    oic_obs::set_trace_enabled(false);
    let traced = traced?;
    let telemetry = Telemetry::snapshot();
    for (a, b) in plain.cold.iter().zip(&traced.cold) {
        if a.digest != b.digest {
            out.problem(format!(
                "seed {}: traced report differs from the untraced one",
                a.seed
            ));
        }
    }
    let quality = account(&traced.cold, out);
    out.metric(
        "core.actuation_saving",
        quality.actuation_saving(),
        "ratio",
        quality.scenarios(),
    );

    // The engine's per-episode records of the first sweep, for the
    // replay cross-check (a detail run: same cells, records kept).
    let (reference, report) = w.call_with_report(seeds[0], None, true)?;
    if reference.digest != plain.cold[0].digest {
        out.problem("detail run report differs from the streamed one");
    }
    let config = w.config(seeds[0], true);
    let costs = replay_cells(
        &w.registry,
        &w.roster,
        report.cells.iter().map(|c| (c, &config)),
        out,
    )?;

    // The telemetry covers the cold calls: each built every scenario and
    // prepared every policy on it once.
    let executed: Vec<CellRow> = traced.cold.iter().flat_map(|c| c.rows.clone()).collect();
    let cold_calls = traced.cold.len();
    let builds: HashMap<String, usize> = w
        .scenarios
        .iter()
        .map(|s| (s.clone(), cold_calls))
        .collect();
    let prepares: HashMap<(String, String), usize> = w
        .scenarios
        .iter()
        .flat_map(|s| {
            w.roster
                .iter()
                .map(move |p| ((s.clone(), p.label()), cold_calls))
        })
        .collect();
    let cold_wall: f64 = traced.cold.iter().map(|c| c.wall_s).sum();
    profile.report(&w.scenarios, out);
    ledger::report(
        &Pass {
            telemetry: &telemetry,
            calls: cold_calls,
            builds: &builds,
            prepares: &prepares,
            cells: &executed,
            costs: &costs,
            wall_s: cold_wall,
            workers: workers(),
        },
        &profile,
        out,
    );
    // The sweeps' cache is memory-only: nothing is written to disk.
    let c = traced.cache;
    cache_metrics_from(
        c.mem_hits as f64,
        c.disk_hits as f64,
        c.misses as f64,
        c.stores as f64,
        c.bytes_written as f64,
        out,
    );
    for name in ["serve.head_ms", "serve.first_cell_ms"] {
        out.metric(name, 0.0, "ms", 0);
    }
    for name in ["serve.coalesced", "serve.rejected_busy"] {
        out.metric(name, 0.0, "count", 1);
    }
    out.metric("serve.bytes_per_request", 0.0, "bytes", 0);
    let cold_s: Vec<f64> = plain.cold.iter().map(|c| c.wall_s).collect();
    out.metric(
        "engine.serial_share",
        mean(&plain.warm_s) / mean(&cold_s),
        "ratio",
        cold_s.len(),
    );
    out.metric(
        "obs.overhead_ratio",
        traced.calls_s() / plain.calls_s() - 1.0,
        "ratio",
        cold_calls * (1 + WARM_REPEATS),
    );
    out.metric(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
        out.attempted,
    );
    out.metric(
        "replay.episodes",
        costs.iter().map(|c| c.episodes).sum::<usize>() as f64,
        "count",
        costs.len(),
    );
    write_trace(args, out);
    Ok(())
}

/// The cache metrics, from traffic counters.
pub fn cache_metrics_from(
    mem_hits: f64,
    disk_hits: f64,
    misses: f64,
    stores: f64,
    bytes_written: f64,
    out: &mut Outcome,
) {
    let lookups = mem_hits + disk_hits + misses;
    let ratio = if lookups > 0.0 {
        (mem_hits + disk_hits) / lookups
    } else {
        0.0
    };
    out.metric("cache.hit_ratio", ratio, "ratio", lookups as usize);
    out.metric("cache.mem_hits", mem_hits, "count", 1);
    out.metric("cache.disk_hits", disk_hits, "count", 1);
    out.metric("cache.misses", misses, "count", 1);
    out.metric("cache.stores", stores, "count", 1);
    out.metric("cache.bytes_written", bytes_written, "bytes", 1);
}

/// Replays cells given with the config that produced them.
pub fn replay_cells<'a>(
    registry: &ScenarioRegistry,
    roster: &[PolicySpec],
    cells: impl Iterator<Item = (&'a oic_engine::CellReport, &'a BatchConfig)>,
    out: &mut Outcome,
) -> Result<Vec<CellCost>, String> {
    let mut instances = HashMap::new();
    let mut costs = Vec::new();
    oic_obs::set_trace_enabled(true);
    for (cell, config) in cells {
        if cell.is_failed() {
            continue;
        }
        let Some(scenario) = registry.get(&cell.scenario) else {
            return Err(format!("unknown scenario {}", cell.scenario));
        };
        if !instances.contains_key(&cell.scenario) {
            let instance = scenario
                .build()
                .map_err(|e| format!("{}: build failed: {e}", cell.scenario))?;
            instances.insert(cell.scenario.clone(), instance);
        }
        let Some(policy) = roster.iter().find(|p| p.label() == cell.policy) else {
            return Err(format!("unknown policy {}", cell.policy));
        };
        let records: &[EpisodeRecord] = &cell.episodes_detail;
        match replay_cell(
            scenario,
            &instances[&cell.scenario],
            policy,
            &cell.policy,
            config,
            records,
            &replay_sample(config.episodes),
        ) {
            Ok(cost) => costs.push(cost),
            Err(message) => out.problem(format!("layer replay: {message}")),
        }
    }
    oic_obs::set_trace_enabled(false);
    Ok(costs)
}

/// Writes every recorded span as a Chrome trace beside the run.
pub fn write_trace(args: &Args, out: &mut Outcome) {
    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    let spans = oic_obs::drain_trace();
    match std::fs::write(&path, oic_obs::chrome_trace_json(&spans)) {
        Ok(()) => out.info("trace_file", path.display().to_string()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
    out.info("trace_spans", spans.len());
    out.info("trace_dropped_spans", oic_obs::dropped_spans() as usize);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every cell of a sweep is an attempted operation, and every failed
    /// cell a failed one. Seed 2020 at 80 episodes reaches the episode
    /// at which `lane-keeping/bang-bang` failed when this benchmark was
    /// written, so the failed branch is exercised while that failure
    /// lasts; the assertion holds either way.
    #[test]
    fn failed_cells_are_counted_not_dropped() {
        let registry = ScenarioRegistry::standard();
        let filter = ["lane-keeping".to_string()];
        let config = BatchConfig {
            episodes: 80,
            steps: STEPS,
            seed: 2020,
            ..BatchConfig::default()
        };
        let opts = SweepOptions {
            scenarios: Some(&filter),
            ..SweepOptions::default()
        };
        let roster = [PolicySpec::AlwaysRun, PolicySpec::BangBang];
        let (report, _) = run_batch_opts(&registry, &roster, &config, &opts).unwrap();
        let failed_cells = report.cells.iter().filter(|c| c.is_failed()).count();
        let violating_cells = report
            .cells
            .iter()
            .filter(|c| !c.is_failed() && c.safety_violations > 0)
            .count();
        let doc = report.to_json(false);
        let rows: Vec<CellRow> = doc
            .get("cells")
            .and_then(oic_engine::JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|c| CellRow::from_json(c).unwrap())
            .collect();
        let mut out = Outcome::default();
        let call = Call {
            seed: config.seed,
            wall_s: 1.0,
            digest: [0; 32],
            rows,
            cells_from_cache: 0,
        };
        account(std::slice::from_ref(&call), &mut out);
        assert_eq!(out.attempted, report.cells.len());
        assert_eq!(
            out.failed,
            failed_cells + violating_cells,
            "{}",
            doc.to_json()
        );
    }
}
