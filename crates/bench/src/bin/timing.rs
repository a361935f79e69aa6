//! Regenerates the paper's §IV-A computation-saving analysis.
//!
//! Usage: `cargo run --release -p oic-bench --bin timing -- [--cases N]
//! [--steps N] [--seed N] [--out report.json]`

use oic_bench::experiments::{timing, ExperimentScale, EVAL_FLAGS};

fn main() {
    let scale = ExperimentScale::from_env_or_exit("timing", EVAL_FLAGS);
    eprintln!("timing: seed {}", scale.seed);
    match timing::run(&scale) {
        Ok(report) => {
            print!("{}", timing::render(&report));
            if let Err(e) = scale.save_json(&timing::to_json(&report, &scale)) {
                eprintln!("failed to write report: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("timing failed: {e}");
            std::process::exit(1);
        }
    }
}
