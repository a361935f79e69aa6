//! Regenerates the paper's Fig. 6 (savings vs `v_f` regularity).
//!
//! Usage: `cargo run --release -p oic-bench --bin fig6 -- [--cases N]
//! [--steps N] [--train N] [--seed N] [--out report.json]`

use oic_bench::experiments::{fig6, ExperimentScale, FIG_FLAGS};

fn main() {
    let scale = ExperimentScale::from_env_or_exit("fig6", FIG_FLAGS);
    eprintln!(
        "fig6: 5 experiments x {} cases x {} steps, {} training episodes (seed {})",
        scale.cases, scale.steps, scale.train_episodes, scale.seed
    );
    match fig6::run(&scale) {
        Ok(report) => {
            print!("{}", fig6::render(&report));
            if let Err(e) = scale.save_json(&fig6::to_json(&report, &scale)) {
                eprintln!("failed to write report: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("fig6 failed: {e}");
            std::process::exit(1);
        }
    }
}
