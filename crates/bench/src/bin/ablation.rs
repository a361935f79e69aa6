//! Ablations over three design choices of the reproduction: the
//! tightening recursion (open- or closed-loop), the skip-input semantics
//! (zero input or physical coasting) and the MPC horizon.
//!
//! Usage: `cargo run --release -p oic-bench --bin ablation -- [--cases N]
//! [--steps N] [--seed N] [--out report.json]`

use oic_bench::experiments::{ablation, ExperimentScale, EVAL_FLAGS};

fn main() {
    let scale = ExperimentScale::from_env_or_exit("ablation", EVAL_FLAGS);
    match ablation::run(&scale) {
        Ok(out) => {
            print!("{out}");
            let json = scale
                .json_header("ablation", EVAL_FLAGS)
                .with("text", out.as_str());
            if let Err(e) = scale.save_json(&json) {
                eprintln!("failed to write report: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("ablation failed: {e}");
            std::process::exit(1);
        }
    }
}
