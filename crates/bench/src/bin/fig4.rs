//! Regenerates the paper's Fig. 4 (fuel-saving histogram over 500 cases).
//!
//! Usage: `cargo run --release -p oic-bench --bin fig4 -- [--cases N]
//! [--steps N] [--train N] [--seed N] [--out report.json]`

use oic_bench::experiments::{fig4, ExperimentScale, FIG_FLAGS};

fn main() {
    let scale = ExperimentScale::from_env_or_exit("fig4", FIG_FLAGS);
    eprintln!(
        "fig4: {} cases x {} steps, {} training episodes (seed {})",
        scale.cases, scale.steps, scale.train_episodes, scale.seed
    );
    match fig4::run(&scale) {
        Ok(report) => {
            print!("{}", fig4::render(&report));
            if let Err(e) = scale.save_json(&fig4::to_json(&report, &scale)) {
                eprintln!("failed to write report: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("fig4 failed: {e}");
            std::process::exit(1);
        }
    }
}
