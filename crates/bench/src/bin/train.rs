//! Trains the golden DQN skipping-policy fixtures.
//!
//! Usage: `cargo run --release -p oic-bench --bin train -- [--scenario
//! NAME] [--episodes N] [--steps N] [--seed N] [--out FILE]`
//!
//! With no `--scenario`, trains every golden scenario at its pinned spec
//! and writes `crates/bench/fixtures/<name>_dqn.bin`. Sweeps and CI never
//! retrain: they consume the committed fixtures (which are pure-inference
//! artifacts, bit-stable on any host). After each training run the blob
//! is evaluated through the batch engine at the `BENCH_batch.json`
//! settings and the skip-rate comparison against the analytic roster is
//! printed.

use oic_bench::experiments::train::{
    evaluate_policy, train_policy, TrainArgs, TrainSpec, GOLDEN_SCENARIOS,
};

fn fixture_path(scenario: &str) -> String {
    format!(
        "{}/fixtures/{}_dqn.bin",
        env!("CARGO_MANIFEST_DIR"),
        scenario.replace('-', "_")
    )
}

fn main() {
    let TrainArgs {
        scenario,
        episodes,
        steps,
        seed,
        out,
    } = TrainArgs::from_env_or_exit();

    let roster: Vec<String> = match scenario {
        Some(s) => vec![s],
        None => GOLDEN_SCENARIOS.iter().map(|s| s.to_string()).collect(),
    };
    if out.is_some() && roster.len() > 1 {
        eprintln!("--out needs --scenario: one output path cannot hold every golden fixture");
        std::process::exit(1);
    }
    for name in roster {
        let mut spec = TrainSpec::golden(&name);
        if let Some(e) = episodes {
            spec.episodes = e;
        }
        if let Some(s) = steps {
            spec.steps = s;
        }
        if let Some(s) = seed {
            spec.seed = s;
        }
        eprintln!(
            "training {name}: {} episodes x {} steps, seed {}, hidden {:?}",
            spec.episodes, spec.steps, spec.seed, spec.hidden
        );
        let started = std::time::Instant::now();
        let trained = match train_policy(&spec) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("training {name} failed: {e}");
                std::process::exit(1);
            }
        };
        eprintln!(
            "trained in {:.1}s ({} bytes, late mean return {:.4}; selected checkpoint after {} episodes, validation skip {:.4})",
            started.elapsed().as_secs_f64(),
            trained.weights.len(),
            trained.stats.recent_mean_return(100),
            trained.selected_after,
            trained.validation_skip_rate,
        );
        match evaluate_policy(&name, &trained.weights, 50, 50, 42) {
            Ok(eval) => {
                for cell in &eval.analytic {
                    eprintln!(
                        "  {:<16} skip {:.4}  violations {}",
                        cell.policy, cell.mean_skip_rate, cell.safety_violations
                    );
                }
                eprintln!(
                    "  {:<16} skip {:.4}  violations {}  => drl {}",
                    eval.drl.policy,
                    eval.drl.mean_skip_rate,
                    eval.drl.safety_violations,
                    if eval.drl_wins() {
                        "WINS"
                    } else {
                        "does not win"
                    },
                );
            }
            Err(e) => {
                eprintln!("evaluation of {name} failed: {e}");
                std::process::exit(1);
            }
        }
        let path = out.clone().unwrap_or_else(|| fixture_path(&name));
        if let Err(e) = std::fs::write(&path, &trained.weights) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("fixture written to {path}");
    }
}
