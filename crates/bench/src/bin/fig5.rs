//! Regenerates the paper's Table I and Fig. 5 (savings vs `v_f` range).
//!
//! Usage: `cargo run --release -p oic-bench --bin fig5 -- [--cases N]
//! [--steps N] [--train N] [--seed N] [--out report.json]`

use oic_bench::experiments::{fig5, ExperimentScale, FIG_FLAGS};

fn main() {
    let scale = ExperimentScale::from_env_or_exit("fig5", FIG_FLAGS);
    eprintln!(
        "fig5: 5 experiments x {} cases x {} steps, {} training episodes (seed {})",
        scale.cases, scale.steps, scale.train_episodes, scale.seed
    );
    match fig5::run(&scale) {
        Ok(report) => {
            print!("{}", fig5::render(&report));
            if let Err(e) = scale.save_json(&fig5::to_json(&report, &scale)) {
                eprintln!("failed to write report: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("fig5 failed: {e}");
            std::process::exit(1);
        }
    }
}
