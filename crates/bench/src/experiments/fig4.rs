//! Fig. 4: fuel-consumption-saving histogram over random test cases.
//!
//! Protocol (paper §IV-A): sinusoidal front vehicle (Eq. (8) with
//! `v_e = 40, a_f = 9, w ∈ [−1, 1]`), 100 steps, 500 random initial states;
//! compare DRL-based opportunistic intermittent control and bang-bang
//! control against the RMPC-only baseline. The paper reports mean savings
//! of 16.28 % (bang-bang) and 23.83 % (DRL), with the DRL histogram shifted
//! right of the bang-bang histogram.

use oic_core::acc::AccCaseStudy;
use oic_core::{AlwaysRunPolicy, BangBangPolicy, CoreError, SkipPolicy};
use oic_sim::front::SinusoidalFront;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::common::{run_case, EpisodeComparison, ExperimentScale};
use crate::table;

/// Histogram bucket labels (paper x-axis plus a catch-all for regressions).
pub const BUCKETS: [&str; 7] = [
    "<0%", "0%-10%", "10%-20%", "20%-30%", "30%-40%", "40%-50%", "50%-60%",
];

/// Aggregated Fig. 4 results.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Report {
    /// Cases per histogram bucket for bang-bang control.
    pub bang_bang_counts: [usize; 7],
    /// Cases per histogram bucket for DRL-based intermittent control.
    pub drl_counts: [usize; 7],
    /// Mean fuel saving of bang-bang over RMPC-only.
    pub mean_saving_bang_bang: f64,
    /// Mean fuel saving of DRL over RMPC-only.
    pub mean_saving_drl: f64,
    /// Mean fraction of steps skipped by the DRL policy.
    pub mean_skip_rate_drl: f64,
    /// Mean fraction of steps skipped by bang-bang.
    pub mean_skip_rate_bang_bang: f64,
    /// Safety violations across *all* runs (Theorem 1 demands 0).
    pub total_violations: usize,
    /// Number of test cases.
    pub cases: usize,
}

fn bucket_of(saving: f64) -> usize {
    if saving < 0.0 {
        0
    } else {
        (1 + ((saving * 10.0).floor() as usize).min(5)).min(6)
    }
}

/// Runs the Fig. 4 experiment.
///
/// # Errors
///
/// Propagates case-study construction and episode failures.
pub fn run(scale: &ExperimentScale) -> Result<Fig4Report, CoreError> {
    let case = AccCaseStudy::build_default()?;
    let params = case.params().clone();

    // Train the DRL policy on the same class of front behaviour.
    let train_params = params.clone();
    let (mut drl, _stats) = case.train_drl(
        Box::new(move |seed| {
            Box::new(SinusoidalFront::new(
                &train_params,
                40.0,
                9.0,
                1.0,
                0xD6A0 + seed,
            ))
        }),
        scale.train_episodes,
        scale.steps,
        1,
        scale.seed,
    );

    let mut report = Fig4Report {
        bang_bang_counts: [0; 7],
        drl_counts: [0; 7],
        mean_saving_bang_bang: 0.0,
        mean_saving_drl: 0.0,
        mean_skip_rate_drl: 0.0,
        mean_skip_rate_bang_bang: 0.0,
        total_violations: 0,
        cases: scale.cases,
    };

    let mut rng = StdRng::seed_from_u64(scale.seed);
    for case_idx in 0..scale.cases {
        let x0 = case.sample_initial_state(&mut rng);
        let front_seed = scale.seed ^ (0xF194 + case_idx as u64);
        // One always-run baseline serves both comparisons: every run of
        // this case faces the same front trace from the same state.
        let run = |policy: &mut dyn SkipPolicy| {
            let front = SinusoidalFront::new(&params, 40.0, 9.0, 1.0, front_seed);
            run_case(&case, policy, Box::new(front), x0, scale.steps)
        };
        let baseline = run(&mut AlwaysRunPolicy)?;
        let cmp_bang = EpisodeComparison {
            baseline: baseline.clone(),
            policy: run(&mut BangBangPolicy)?,
        };
        let cmp_drl = EpisodeComparison {
            baseline,
            policy: run(&mut drl)?,
        };

        report.bang_bang_counts[bucket_of(cmp_bang.fuel_saving())] += 1;
        report.drl_counts[bucket_of(cmp_drl.fuel_saving())] += 1;
        report.mean_saving_bang_bang += cmp_bang.fuel_saving();
        report.mean_saving_drl += cmp_drl.fuel_saving();
        report.mean_skip_rate_bang_bang += cmp_bang.policy.stats.skip_rate();
        report.mean_skip_rate_drl += cmp_drl.policy.stats.skip_rate();
        // The shared baseline counts once.
        report.total_violations += cmp_bang.violations() + cmp_drl.policy.summary.safety_violations;
    }
    let n = scale.cases.max(1) as f64;
    report.mean_saving_bang_bang /= n;
    report.mean_saving_drl /= n;
    report.mean_skip_rate_bang_bang /= n;
    report.mean_skip_rate_drl /= n;
    Ok(report)
}

/// JSON form of the report (written by the binary's `--out` flag).
pub fn to_json(report: &Fig4Report, scale: &ExperimentScale) -> oic_engine::JsonValue {
    use oic_engine::JsonValue;
    scale
        .json_header("fig4", super::FIG_FLAGS)
        .with(
            "buckets",
            JsonValue::Array(BUCKETS.iter().map(|b| (*b).into()).collect()),
        )
        .with("bang_bang_counts", report.bang_bang_counts.to_vec())
        .with("drl_counts", report.drl_counts.to_vec())
        .with("mean_saving_bang_bang", report.mean_saving_bang_bang)
        .with("mean_saving_drl", report.mean_saving_drl)
        .with("mean_skip_rate_bang_bang", report.mean_skip_rate_bang_bang)
        .with("mean_skip_rate_drl", report.mean_skip_rate_drl)
        .with("total_violations", report.total_violations)
}

/// Renders the report in the paper's layout (histogram + means).
pub fn render(report: &Fig4Report) -> String {
    let max = report
        .bang_bang_counts
        .iter()
        .chain(report.drl_counts.iter())
        .copied()
        .max()
        .unwrap_or(1);
    let rows: Vec<Vec<String>> = BUCKETS
        .iter()
        .enumerate()
        .map(|(i, b)| {
            vec![
                b.to_string(),
                report.bang_bang_counts[i].to_string(),
                table::bar(report.bang_bang_counts[i], max, 25),
                report.drl_counts[i].to_string(),
                table::bar(report.drl_counts[i], max, 25),
            ]
        })
        .collect();
    let mut out = String::from("Fig. 4 — fuel consumption saving vs RMPC-only\n");
    out.push_str(&table::render(
        &["saving range", "bang-bang", "", "opportunistic (DRL)", ""],
        &rows,
    ));
    out.push_str(&format!(
        "\nmean saving: bang-bang {} | DRL {}   (paper: 16.28% | 23.83%)\n",
        table::pct(report.mean_saving_bang_bang),
        table::pct(report.mean_saving_drl),
    ));
    out.push_str(&format!(
        "mean skip rate: bang-bang {} | DRL {}   (paper DRL: 79.4/100)\n",
        table::pct(report.mean_skip_rate_bang_bang),
        table::pct(report.mean_skip_rate_drl),
    ));
    out.push_str(&format!(
        "safety violations across {} cases x 3 controllers: {}\n",
        report.cases, report.total_violations
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_savings() {
        assert_eq!(bucket_of(-0.05), 0);
        assert_eq!(bucket_of(0.0), 1);
        assert_eq!(bucket_of(0.099), 1);
        assert_eq!(bucket_of(0.15), 2);
        assert_eq!(bucket_of(0.55), 6);
        assert_eq!(bucket_of(0.99), 6);
    }

    #[test]
    fn tiny_fig4_runs_clean() {
        let scale = ExperimentScale {
            cases: 2,
            steps: 40,
            train_episodes: 2,
            seed: 7,
            ..Default::default()
        };
        let report = run(&scale).unwrap();
        assert_eq!(report.cases, 2);
        assert_eq!(report.total_violations, 0, "Theorem 1 must hold");
        let total: usize = report.drl_counts.iter().sum();
        assert_eq!(total, 2);
        let rendered = render(&report);
        assert!(rendered.contains("mean saving"));
    }
}
