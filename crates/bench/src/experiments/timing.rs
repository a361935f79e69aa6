//! §IV-A computation-saving analysis.
//!
//! The paper measures 0.12 s per RMPC solve versus 0.02 s for the monitor
//! check + DQN inference, and with 79.4/100 steps skipped derives ≈60 %
//! computation saving via
//!
//! `(C_mpc·T − (C_mon·T + C_mpc·(T − skipped))) / (C_mpc·T)`.
//!
//! Absolute times differ on our solver/hardware; the reproduced quantities
//! are the *ratio* between the two per-step costs and the resulting
//! saving at the measured skip rate. That skip rate comes from bang-bang
//! episodes, the upper bound a learned policy approaches, not from the
//! paper's DRL policy.

use std::time::Instant;

use oic_core::acc::AccCaseStudy;
use oic_core::{
    BangBangPolicy, CoreError, GreedyDrlPolicy, Monitor, PolicyContext, SkipDecision, SkipPolicy,
};
use oic_sim::front::SinusoidalFront;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::common::{run_case, ExperimentScale};
use crate::{golden, table};

/// Timing + computation-saving results.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// Mean seconds per RMPC solve.
    pub mpc_solve_seconds: f64,
    /// Mean seconds per monitor check + skip decision of the golden ACC
    /// DQN policy (the `drl-acc` policy sweeps run).
    pub monitor_nn_seconds: f64,
    /// Mean skipped steps per 100 of **bang-bang** episodes: the
    /// skip-whenever-allowed upper bound a learned policy approaches.
    /// The paper's 79.4 is its DRL policy's figure.
    pub skipped_per_100: f64,
    /// Computation saving by the paper's formula.
    pub computation_saving: f64,
    /// Number of MPC solves timed.
    pub solves_timed: usize,
}

/// Runs the timing analysis.
///
/// # Errors
///
/// Propagates case-study construction and episode failures.
pub fn run(scale: &ExperimentScale) -> Result<TimingReport, CoreError> {
    let case = AccCaseStudy::build_default()?;
    let params = case.params().clone();
    let mut rng = StdRng::seed_from_u64(scale.seed);

    // --- Time the RMPC solve over representative states. ---
    let states: Vec<[f64; 2]> = (0..200.min(scale.cases.max(20)))
        .map(|_| case.sample_initial_state(&mut rng))
        .collect();
    let start = Instant::now();
    let mut solves = 0usize;
    for x in &states {
        let _ = case
            .mpc()
            .solve(x)
            .expect("states sampled inside the feasible set");
        solves += 1;
    }
    let mpc_solve_seconds = start.elapsed().as_secs_f64() / solves as f64;

    // --- Time monitor check + the golden ACC DQN's skip decision, the
    //     path a `drl-acc` sweep cell runs (encoder + 64×64 network). ---
    let monitor = Monitor::new(case.sets().clone());
    let mut policy = GreedyDrlPolicy::from_bytes(golden::ACC_DQN, case.sets())?;
    let w_dim = case.sets().plant().disturbance_set().dim();
    let w_history = vec![vec![0.0; w_dim]; policy.memory()];
    let reps = 20_000usize;
    let start = Instant::now();
    let mut sink = 0usize;
    for i in 0..reps {
        let x = states[i % states.len()];
        let verdict = monitor.check(&x);
        let decision = policy.decide(&PolicyContext {
            state: &x,
            w_history: &w_history,
            w_forecast: &[],
            time_step: i,
        });
        sink += (decision == SkipDecision::Skip) as usize
            + (verdict == oic_core::Verdict::Strengthened) as usize;
    }
    let monitor_nn_seconds = start.elapsed().as_secs_f64() / reps as f64;
    std::hint::black_box(sink);

    // --- Skip rate from closed-loop episodes (bang-bang gives the
    //     skip-every-possible-step upper bound the DRL policy approaches). ---
    let episodes = scale.cases.clamp(5, 50);
    let mut skipped = 0.0;
    for i in 0..episodes {
        let x0 = case.sample_initial_state(&mut rng);
        let front_seed = scale.seed ^ (0x71_31 + i as u64);
        let front = SinusoidalFront::new(&params, 40.0, 9.0, 1.0, front_seed);
        let outcome = run_case(&case, &mut BangBangPolicy, Box::new(front), x0, scale.steps)?;
        skipped += outcome.stats.skip_rate() * 100.0;
    }
    let skipped_per_100 = skipped / episodes as f64;

    // Paper formula with T = 100.
    let t = 100.0;
    let c_mpc = mpc_solve_seconds;
    let c_mon = monitor_nn_seconds;
    let computation_saving =
        (c_mpc * t - (c_mon * t + c_mpc * (t - skipped_per_100))) / (c_mpc * t);

    Ok(TimingReport {
        mpc_solve_seconds,
        monitor_nn_seconds,
        skipped_per_100,
        computation_saving,
        solves_timed: solves,
    })
}

/// JSON form of the report (written by the binary's `--out` flag).
///
/// Unlike the engine's batch reports, timing output is inherently
/// machine-dependent — the JSON records measurements, not a reproducible
/// trajectory.
pub fn to_json(report: &TimingReport, scale: &ExperimentScale) -> oic_engine::JsonValue {
    scale
        .json_header("timing", super::EVAL_FLAGS)
        .with("mpc_solve_seconds", report.mpc_solve_seconds)
        .with("monitor_nn_seconds", report.monitor_nn_seconds)
        .with("skipped_per_100", report.skipped_per_100)
        .with("computation_saving", report.computation_saving)
        .with("solves_timed", report.solves_timed)
}

/// Renders the timing table in the paper's terms.
pub fn render(report: &TimingReport) -> String {
    let rows = vec![
        vec![
            "RMPC solve (per step)".to_string(),
            format!("{:.3} ms", report.mpc_solve_seconds * 1e3),
            "120 ms".to_string(),
        ],
        vec![
            "monitor + DQN decision (per step)".to_string(),
            format!("{:.4} ms", report.monitor_nn_seconds * 1e3),
            "20 ms".to_string(),
        ],
        vec![
            "skipped steps per 100 (bang-bang)".to_string(),
            format!("{:.1}", report.skipped_per_100),
            "79.4 (DRL)".to_string(),
        ],
        vec![
            "computation saving".to_string(),
            table::pct(report.computation_saving),
            "~60%".to_string(),
        ],
    ];
    let mut out = String::from("§IV-A — computation savings from skipping RMPC computation\n");
    out.push_str(&table::render(&["quantity", "measured", "paper"], &rows));
    out.push_str(&format!(
        "\nper-step cost ratio (MPC / monitor+DQN): {:.0}x (paper: 6x)\n",
        report.mpc_solve_seconds / report.monitor_nn_seconds
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_timing_runs() {
        let scale = ExperimentScale {
            cases: 5,
            steps: 30,
            train_episodes: 0,
            seed: 1,
            ..Default::default()
        };
        let report = run(&scale).unwrap();
        assert!(report.mpc_solve_seconds > 0.0);
        assert!(report.monitor_nn_seconds > 0.0);
        assert!(
            report.mpc_solve_seconds > report.monitor_nn_seconds,
            "MPC must dominate: {} vs {}",
            report.mpc_solve_seconds,
            report.monitor_nn_seconds
        );
        assert!(report.skipped_per_100 > 0.0);
        let table = render(&report);
        assert!(table.contains("computation saving"));
        assert!(
            table.contains("skipped steps per 100 (bang-bang)"),
            "{table}"
        );
    }
}
