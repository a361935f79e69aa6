//! The engine-backed scenario sweep: every registered scenario × a
//! standard policy roster, executed in parallel by `oic-engine`.
//!
//! This is the experiment the ROADMAP's scale direction runs through —
//! unlike the fig4–fig6 reproductions it is not tied to the ACC study or
//! its fuel model, so adding a scenario to the registry automatically
//! adds a row here.

use oic_engine::{
    run_batch_opts, BatchConfig, BatchReport, CellCache, DropoutSpec, EngineError, FaultPlan,
    JsonValue, PolicySpec, ShardInfo, SweepOptions, SweepStats,
};
use oic_scenarios::ScenarioRegistry;

use super::common::ExperimentScale;

/// The standard **analytic** policy roster for scenario sweeps — one of
/// every closed-form [`PolicySpec`] variant.
pub fn standard_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::AlwaysRun,
        PolicySpec::BangBang,
        PolicySpec::Periodic(4),
        PolicySpec::Random(0.25),
        PolicySpec::MaxSkip(2),
    ]
}

/// The full sweep roster: the analytic policies, the golden learned
/// policies riding on `registry` weight blobs (labels `drl-<scenario>`),
/// and any extra `drl:<path>` blobs the command line loaded.
///
/// Roster order is analytic → golden → CLI extras, so the analytic cells
/// of the committed `BENCH_batch.json` keep their positions (new cells
/// append within each scenario's block).
pub fn full_roster(
    registry: &ScenarioRegistry,
    scale: &ExperimentScale,
) -> Result<Vec<PolicySpec>, String> {
    let mut roster = standard_policies();
    roster.extend(crate::golden::drl_policies(registry));
    roster.extend(extra_policies(scale)?);
    Ok(roster)
}

/// Loads the `--policies drl:<path>` entries of a scale: each path is an
/// `oic-nn` weight blob, added as a [`PolicySpec::Drl`] named after the
/// file stem.
///
/// # Errors
///
/// Returns a human-readable message for unreadable files or malformed
/// entries (unknown prefixes).
pub fn extra_policies(scale: &ExperimentScale) -> Result<Vec<PolicySpec>, String> {
    let mut extras = Vec::new();
    for entry in &scale.policies {
        let Some(path) = entry.strip_prefix("drl:") else {
            return Err(format!(
                "unknown policy entry {entry:?} (expected drl:<path>)"
            ));
        };
        let weights =
            std::fs::read(path).map_err(|e| format!("cannot read weight blob {path:?}: {e}"))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("blob")
            .to_string();
        extras.push(PolicySpec::drl(name, weights));
    }
    Ok(extras)
}

/// The engine configuration a scale maps to (shared by `run` and the
/// CI determinism job, which needs byte-identical configs per thread
/// count).
pub fn config(scale: &ExperimentScale) -> BatchConfig {
    BatchConfig {
        episodes: scale.cases,
        steps: scale.steps,
        seed: scale.seed,
        threads: scale.threads,
        chunk: scale.chunk,
        detail: !scale.stream,
        ..Default::default()
    }
}

/// Runs the sweep: `scale.cases` episodes of `scale.steps` steps per
/// (scenario, policy) cell over the full standard registry, with the
/// golden learned policies alongside the analytic roster (learned cells
/// materialize wherever the network's dimensions fit the plant — the
/// scenario it was trained for is the headline row, the rest are
/// zero-shot transfer stressors that Theorem 1 keeps safe anyway).
/// Returns the report plus the sweep statistics — work-stealing scheduler
/// counters, dimension-skip tallies and per-cell wall times (for
/// wall-clock summaries and throughput reports; never serialized into the
/// deterministic report).
///
/// # Errors
///
/// Propagates scenario-build and episode failures from the engine;
/// unreadable `--policies` blobs surface as [`EngineError::InvalidConfig`].
pub fn run_with_stats(scale: &ExperimentScale) -> Result<(BatchReport, SweepStats), EngineError> {
    let registry = crate::golden::registry_with_golden();
    let roster = full_roster(&registry, scale).map_err(|message| {
        eprintln!("{message}");
        EngineError::InvalidConfig("unusable --policies entry (see stderr)")
    })?;
    let shard = match &scale.shard {
        Some(text) => Some(ShardInfo::parse(text).map_err(|message| {
            eprintln!("{message}");
            EngineError::InvalidConfig("unusable --shard (see stderr)")
        })?),
        None => None,
    };
    let cache = scale
        .cache_dir
        .as_ref()
        .map(|dir| CellCache::new(4096, Some(dir.into())));
    let dropouts = dropout_specs(scale).map_err(|message| {
        eprintln!("{message}");
        EngineError::InvalidConfig("unusable --dropout (see stderr)")
    })?;
    let plan = match &scale.fault_plan {
        Some(path) => Some(load_fault_plan(path).map_err(|message| {
            eprintln!("{message}");
            EngineError::InvalidConfig("unusable --fault-plan (see stderr)")
        })?),
        None => None,
    };
    let opts = SweepOptions {
        shard,
        cache: cache.as_ref(),
        dropouts: (!dropouts.is_empty()).then_some(dropouts.as_slice()),
        faults: plan.as_ref(),
        ..Default::default()
    };
    run_batch_opts(&registry, &roster, &config(scale), &opts)
}

/// Parses the `--dropout` labels of a scale into engine specs.
///
/// # Errors
///
/// Returns a human-readable message naming the unparseable label.
pub fn dropout_specs(scale: &ExperimentScale) -> Result<Vec<DropoutSpec>, String> {
    scale
        .dropout
        .iter()
        .map(|label| {
            DropoutSpec::parse(label).map_err(|e| format!("bad --dropout entry {label:?}: {e}"))
        })
        .collect()
}

/// Loads a `--fault-plan` JSON document (`seed`, `panic_rate`,
/// `nan_rate`) into a validated [`FaultPlan`].
///
/// # Errors
///
/// Returns a human-readable message for unreadable files, malformed
/// JSON, a document that is not an object or has a key other than the
/// three or one of them twice, a seed that is not an exact non-negative
/// integer or decimal string, or out-of-range rates.
pub fn load_fault_plan(path: &str) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read fault plan {path:?}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("fault plan {path:?}: {e}"))?;
    doc.check_keys(&["seed", "panic_rate", "nan_rate"])
        .map_err(|e| format!("fault plan {path:?}: {e}"))?;
    let seed = match doc.get("seed") {
        Some(JsonValue::String(s)) => s.parse().ok(),
        Some(value) => value.as_usize().map(|n| n as u64),
        None => Some(0),
    }
    .ok_or_else(|| {
        format!("fault plan {path:?}: seed must be a non-negative integer or a decimal string")
    })?;
    let rate = |key: &str| -> Result<f64, String> {
        match doc.get(key) {
            Some(value) => value
                .as_f64()
                .ok_or_else(|| format!("fault plan {path:?}: {key} must be a number")),
            None => Ok(0.0),
        }
    };
    let plan = FaultPlan {
        seed,
        panic_rate: rate("panic_rate")?,
        nan_rate: rate("nan_rate")?,
    };
    plan.validate()
        .map_err(|message| format!("fault plan {path:?}: {message}"))?;
    Ok(plan)
}

/// The batch bin's stderr wall-clock summary line.
///
/// The `wall-clock: <seconds>s` prefix is load-bearing: CI greps
/// `wall-clock: [0-9.]*s` out of stderr to enforce the bench-baseline
/// time ceiling, so the prefix format must not change. The trailing
/// scheduler summary labels the no-steal case explicitly (single-cell
/// and single-worker runs never steal — printing `0 steals` there reads
/// like a scheduler regression when it is just a degenerate pool).
pub fn wall_clock_line(
    elapsed_s: f64,
    episodes: usize,
    cells: usize,
    tasks: u64,
    workers: u64,
    steals: u64,
) -> String {
    let rate = episodes as f64 / elapsed_s.max(1e-9);
    let steal_part = if steals == 0 {
        "no steals".to_string()
    } else {
        format!("{steals} steals")
    };
    format!(
        "wall-clock: {elapsed_s:.3}s for {episodes} episodes in {cells} cells \
         ({rate:.0} episodes/s; {tasks} tasks on {workers} workers, {steal_part})"
    )
}

/// Renders the sweep as a table plus the Theorem-1 tally. Failed cells
/// count against the claim next to the violations: their episodes did
/// not all run, so a zero violation total says nothing about them.
pub fn render(report: &BatchReport) -> String {
    let mut out = String::from("Scenario sweep — all registered plants x standard policies\n");
    out.push_str(&report.render_table());
    out.push_str(&format!(
        "\ntotal safety violations across {} cells: {}, failed cells: {} \
         (Theorem 1 demands 0 of both)\n",
        report.cells.len(),
        report.total_safety_violations(),
        report.failed_cells(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_runs_clean_and_serializes() {
        let scale = ExperimentScale {
            cases: 2,
            steps: 25,
            train_episodes: 0,
            seed: 9,
            ..Default::default()
        };
        let report = run_with_stats(&scale).unwrap().0;
        // 10 scenarios × 5 analytic policies, plus the two golden 4-input
        // networks on each of the eight 2-state plants (the 3-state CSTR
        // and 4-state two-mass spring cells are dimension-skipped).
        let analytic = 10 * standard_policies().len();
        let learned = report
            .cells
            .iter()
            .filter(|c| c.policy.starts_with("drl-"))
            .count();
        assert_eq!(learned, 16);
        assert_eq!(report.cells.len(), analytic + learned);
        assert_eq!(report.total_safety_violations(), 0);
        assert!(
            !report
                .cells
                .iter()
                .any(|c| c.scenario == "cstr" && c.policy.starts_with("drl-")),
            "3-state plants cannot host the 4-input golden networks"
        );
        let rendered = render(&report);
        assert!(rendered.contains("lane-keeping"));
        assert!(rendered.contains("pendulum-cart"));
        assert!(rendered.contains("cstr"));
        assert!(rendered.contains("two-mass-spring"));
        assert!(rendered.contains("drl-acc"));
        let json = report.to_json(false).to_json();
        assert!(json.contains("\"seed\":\"9\""));
    }

    #[test]
    fn failed_cells_count_against_theorem_1_in_the_totals() {
        let report = BatchReport {
            seed: 2020,
            shard: None,
            cells: vec![oic_engine::CellReport::failed(
                "lane-keeping",
                "bang-bang",
                "none",
                100,
                "episode 72: outside the robust invariant set".into(),
            )],
        };
        let rendered = render(&report);
        assert!(
            rendered.contains(
                "total safety violations across 1 cells: 0, failed cells: 1 \
                 (Theorem 1 demands 0 of both)"
            ),
            "{rendered}"
        );
    }

    #[test]
    fn cli_policy_entries_load_or_fail_loudly() {
        let bogus = ExperimentScale {
            policies: vec!["mlp:whatever".into()],
            ..Default::default()
        };
        assert!(extra_policies(&bogus).unwrap_err().contains("mlp:whatever"));
        let missing = ExperimentScale {
            policies: vec!["drl:/nonexistent/net.bin".into()],
            ..Default::default()
        };
        assert!(extra_policies(&missing).unwrap_err().contains("net.bin"));
        // A real blob round-trips and is named after the file stem.
        let dir = std::env::temp_dir().join("oic-bench-policy-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("my_net.bin");
        std::fs::write(&path, crate::golden::ACC_DQN).unwrap();
        let ok = ExperimentScale {
            policies: vec![format!("drl:{}", path.display())],
            ..Default::default()
        };
        let extras = extra_policies(&ok).unwrap();
        assert_eq!(extras.len(), 1);
        assert_eq!(extras[0].label(), "drl-my_net");
    }

    #[test]
    fn wall_clock_line_keeps_the_ci_grep_prefix() {
        // CI extracts the runtime with `grep -o 'wall-clock: [0-9.]*s'`;
        // both branches must keep that prefix intact.
        let stolen = wall_clock_line(1.5, 1000, 4, 16, 8, 12);
        assert!(stolen.starts_with("wall-clock: 1.500s for 1000 episodes in 4 cells"));
        assert!(stolen.contains("16 tasks on 8 workers, 12 steals"));
        let quiet = wall_clock_line(0.25, 10, 1, 1, 1, 0);
        assert!(quiet.starts_with("wall-clock: 0.250s"));
        assert!(quiet.contains("no steals"), "zero case is labeled: {quiet}");
        assert!(
            !quiet.contains("0 steals"),
            "not printed as a count: {quiet}"
        );
    }

    #[test]
    fn warm_cache_run_is_byte_identical_with_full_hits() {
        let dir = std::env::temp_dir().join(format!("oic-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scale = ExperimentScale {
            cases: 3,
            steps: 20,
            train_episodes: 0,
            seed: 11,
            cache_dir: Some(dir.display().to_string()),
            ..Default::default()
        };
        let (cold, cold_stats) = run_with_stats(&scale).unwrap();
        assert_eq!(cold_stats.cells_from_cache, 0, "first run populates");
        // A fresh process would start with a cold memory tier too; the
        // second run here reopens the store from disk the same way.
        let (warm, warm_stats) = run_with_stats(&scale).unwrap();
        assert_eq!(
            warm_stats.cells_from_cache,
            warm.cells.len(),
            "second run is answered entirely from cache"
        );
        assert_eq!(
            warm.to_json(false).to_json_pretty(),
            cold.to_json(false).to_json_pretty(),
            "cached report is byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_runs_partition_the_grid() {
        let scale = |shard: &str| ExperimentScale {
            cases: 2,
            steps: 15,
            train_episodes: 0,
            seed: 5,
            shard: Some(shard.to_string()),
            ..Default::default()
        };
        let full = run_with_stats(&ExperimentScale {
            cases: 2,
            steps: 15,
            train_episodes: 0,
            seed: 5,
            ..Default::default()
        })
        .unwrap()
        .0;
        let a = run_with_stats(&scale("0/2")).unwrap().0;
        let b = run_with_stats(&scale("1/2")).unwrap().0;
        assert_eq!(a.shard, Some(ShardInfo { index: 0, of: 2 }));
        assert_eq!(a.cells.len() + b.cells.len(), full.cells.len());
        // Interleaving merged[g] = shard[g % 2].cells[g / 2] rebuilds the
        // full report cell-for-cell (the serve merge subcommand's contract).
        for (g, cell) in full.cells.iter().enumerate() {
            let piece = if g % 2 == 0 { &a } else { &b };
            assert_eq!(&piece.cells[g / 2], cell, "global cell {g}");
        }
        assert!(run_with_stats(&scale("2/2")).is_err(), "index out of range");
    }

    #[test]
    fn dropout_axis_multiplies_the_grid_without_touching_fault_free_bytes() {
        let base = ExperimentScale {
            cases: 2,
            steps: 15,
            train_episodes: 0,
            seed: 5,
            ..Default::default()
        };
        let plain = run_with_stats(&base).unwrap().0;
        let faulted = run_with_stats(&ExperimentScale {
            dropout: vec!["none".into(), "mk-1-5".into()],
            ..base.clone()
        })
        .unwrap()
        .0;
        assert_eq!(faulted.cells.len(), 2 * plain.cells.len());
        // The none-variant cells render the exact fault-free bytes.
        for (g, cell) in plain.cells.iter().enumerate() {
            assert_eq!(
                faulted.cells[2 * g].to_json(false).to_json(),
                cell.to_json(false).to_json(),
                "none variant of global cell {g}"
            );
            assert_eq!(faulted.cells[2 * g + 1].dropout, "mk-1-5");
        }
        // Theorem 1's zero-violation guarantee only covers the nominal
        // actuator: the fault-free variants must keep it, while dropout
        // variants tally whatever the forced skips actually cause.
        let nominal_violations: usize = faulted
            .cells
            .iter()
            .filter(|cell| cell.dropout == "none")
            .map(|cell| cell.safety_violations)
            .sum();
        assert_eq!(nominal_violations, 0, "Theorem 1 on the nominal axis");
        let bad = ExperimentScale {
            dropout: vec!["bernoulli-nope".into()],
            ..base
        };
        assert!(
            run_with_stats(&bad).is_err(),
            "bad labels are rejected loudly"
        );
    }

    #[test]
    fn fault_plans_load_validate_and_degrade_cells() {
        let dir = std::env::temp_dir().join(format!("oic-bench-plan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        std::fs::write(
            &path,
            r#"{"seed": "7", "panic_rate": 1.0, "nan_rate": 0.0}"#,
        )
        .unwrap();
        let plan = load_fault_plan(&path.display().to_string()).unwrap();
        assert_eq!(plan.seed, 7);
        assert!((plan.panic_rate - 1.0).abs() < 1e-12);

        let bad = dir.join("bad.json");
        let load_bad = |doc: &str| {
            std::fs::write(&bad, doc).unwrap();
            load_fault_plan(&bad.display().to_string())
        };
        assert_eq!(load_bad(r#"{"seed": 7}"#).unwrap().seed, 7);
        for (doc, why) in [
            (r#"{"panic_rate": 0.8, "nan_rate": 0.8}"#, "exceed"),
            // A seed is never coerced: no sign, fraction or saturation.
            (r#"{"seed": -3}"#, "seed must be"),
            (r#"{"seed": 2.5}"#, "seed must be"),
            (r#"{"seed": 1e30}"#, "seed must be"),
            (r#"{"seed": "-3"}"#, "seed must be"),
            (r#"{"seed": true}"#, "seed must be"),
            // A misspelt rate is not a fault-free plan.
            (
                r#"{"seed": 1, "panic_rat": 0.5}"#,
                "unknown key \"panic_rat\"",
            ),
            (r#"{"panic_rate": 0.0, "panic_rate": 1.0}"#, "appears twice"),
            (r#"[0.5]"#, "must be a JSON object"),
        ] {
            let err = load_bad(doc).unwrap_err();
            assert!(err.contains(why), "{doc}: {err}");
        }
        assert!(load_fault_plan("/nonexistent/plan.json")
            .unwrap_err()
            .contains("cannot read"));

        let scale = ExperimentScale {
            cases: 2,
            steps: 15,
            train_episodes: 0,
            seed: 5,
            fault_plan: Some(path.display().to_string()),
            ..Default::default()
        };
        let (report, stats) = run_with_stats(&scale).unwrap();
        assert_eq!(
            stats.cells_failed,
            report.cells.len(),
            "rate-1.0 plan fails every cell"
        );
        assert!(report.cells.iter().all(|c| c.is_failed()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scale_maps_to_engine_config() {
        let scale = ExperimentScale {
            cases: 7,
            steps: 11,
            seed: 3,
            threads: 2,
            chunk: 5,
            stream: false,
            ..Default::default()
        };
        let config = config(&scale);
        assert_eq!(config.episodes, 7);
        assert_eq!(config.steps, 11);
        assert_eq!(config.seed, 3);
        assert_eq!(config.threads, 2);
        assert_eq!(config.chunk, 5);
        assert!(config.detail, "--detail keeps per-episode rows");
    }
}
