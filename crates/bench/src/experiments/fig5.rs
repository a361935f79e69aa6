//! Table I + Fig. 5: impact of the front vehicle's velocity **range**.
//!
//! Five experiments share the plant and safe sets (designed for the worst
//! case `v_f ∈ [30, 50]`) while the *actual* front behaviour is confined to
//! progressively narrower ranges (Table I), with bounded random
//! acceleration `v_f′ ∈ [−20, 20]`. The paper's Fig. 5 shows DRL savings
//! growing monotonically (≈7 % → ≈13 %) as the range narrows, because a
//! tighter disturbance pattern is easier to learn.

use oic_core::acc::AccCaseStudy;
use oic_core::CoreError;
use oic_sim::front::SmoothRandomFront;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::common::{compare_on_case, ExperimentScale};
use crate::table;

/// Table I: the `v_f` range of Ex.1–Ex.5.
pub const VELOCITY_RANGES: [(f64, f64); 5] = [
    (30.0, 50.0),
    (32.5, 47.5),
    (35.0, 45.0),
    (38.0, 42.0),
    (39.0, 41.0),
];

/// The front-vehicle acceleration bound used in Ex.1–Ex.5.
pub const ACCEL_RANGE: (f64, f64) = (-20.0, 20.0);

/// One row of the Fig. 5 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Experiment label (`Ex.1` … `Ex.5`).
    pub label: String,
    /// Front velocity range.
    pub vf_range: (f64, f64),
    /// Mean DRL fuel saving over RMPC-only.
    pub mean_saving_drl: f64,
    /// Mean DRL skip rate.
    pub mean_skip_rate: f64,
    /// Safety violations (must be 0).
    pub violations: usize,
}

/// Full Fig. 5 report.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Report {
    /// One row per velocity range.
    pub rows: Vec<Fig5Row>,
    /// Cases per experiment.
    pub cases: usize,
}

/// Runs Ex.1–Ex.5.
///
/// # Errors
///
/// Propagates case-study construction and episode failures.
pub fn run(scale: &ExperimentScale) -> Result<Fig5Report, CoreError> {
    let case = AccCaseStudy::build_default()?;
    let dt = case.params().dt;
    let mut rows = Vec::with_capacity(VELOCITY_RANGES.len());

    for (idx, range) in VELOCITY_RANGES.iter().enumerate() {
        let range = *range;
        // Train a DRL policy specialized to this range.
        let (mut drl, _) = case.train_drl(
            Box::new(move |seed| {
                Box::new(SmoothRandomFront::new(
                    range,
                    ACCEL_RANGE,
                    dt,
                    0xF1_500 + seed,
                ))
            }),
            scale.train_episodes,
            scale.steps,
            1,
            scale.seed + idx as u64,
        );

        let mut rng = StdRng::seed_from_u64(scale.seed + 100 + idx as u64);
        let mut mean_saving = 0.0;
        let mut mean_skip = 0.0;
        let mut violations = 0;
        for case_idx in 0..scale.cases {
            let x0 = case.sample_initial_state(&mut rng);
            let front_seed = scale.seed ^ (0xAB50 + (idx * 10_000 + case_idx) as u64);
            let mut front_factory = move || -> Box<dyn oic_sim::front::FrontModel> {
                Box::new(SmoothRandomFront::new(range, ACCEL_RANGE, dt, front_seed))
            };
            let cmp = compare_on_case(&case, &mut drl, &mut front_factory, x0, scale.steps)?;
            mean_saving += cmp.fuel_saving();
            mean_skip += cmp.policy.stats.skip_rate();
            violations += cmp.violations();
        }
        let n = scale.cases.max(1) as f64;
        rows.push(Fig5Row {
            label: format!("Ex.{}", idx + 1),
            vf_range: range,
            mean_saving_drl: mean_saving / n,
            mean_skip_rate: mean_skip / n,
            violations,
        });
    }
    Ok(Fig5Report {
        rows,
        cases: scale.cases,
    })
}

/// JSON form of the report (written by the binary's `--out` flag).
pub fn to_json(report: &Fig5Report, scale: &ExperimentScale) -> oic_engine::JsonValue {
    use oic_engine::JsonValue;
    let rows: Vec<JsonValue> = report
        .rows
        .iter()
        .map(|r| {
            JsonValue::object()
                .with("label", r.label.as_str())
                .with("vf_lo", r.vf_range.0)
                .with("vf_hi", r.vf_range.1)
                .with("mean_saving_drl", r.mean_saving_drl)
                .with("mean_skip_rate", r.mean_skip_rate)
                .with("violations", r.violations)
        })
        .collect();
    scale
        .json_header("fig5", super::FIG_FLAGS)
        .with("rows", JsonValue::Array(rows))
}

/// Renders Table I and the Fig. 5 series.
pub fn render(report: &Fig5Report) -> String {
    let mut out = String::from("Table I — v_f ranges for Ex.1–Ex.5\n");
    let table_rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("[{}, {}]", r.vf_range.0, r.vf_range.1),
            ]
        })
        .collect();
    out.push_str(&table::render(&["experiment", "range of v_f"], &table_rows));

    out.push_str("\nFig. 5 — DRL fuel saving vs RMPC-only under shrinking v_f range\n");
    let max_milli = report
        .rows
        .iter()
        .map(|r| (r.mean_saving_drl * 1000.0) as usize)
        .max()
        .unwrap_or(1)
        .max(1);
    let fig_rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("[{}, {}]", r.vf_range.0, r.vf_range.1),
                table::pct(r.mean_saving_drl),
                table::bar((r.mean_saving_drl * 1000.0) as usize, max_milli, 30),
                table::pct(r.mean_skip_rate),
                r.violations.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &["range of v_f", "saving", "", "skip rate", "violations"],
        &fig_rows,
    ));
    out.push_str("\n(paper shape: saving increases monotonically as the range narrows, ≈7%→13%)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_matches_paper() {
        assert_eq!(VELOCITY_RANGES[0], (30.0, 50.0));
        assert_eq!(VELOCITY_RANGES[2], (35.0, 45.0));
        assert_eq!(VELOCITY_RANGES[4], (39.0, 41.0));
    }

    #[test]
    fn tiny_fig5_runs_clean() {
        let scale = ExperimentScale {
            cases: 1,
            steps: 30,
            train_episodes: 1,
            seed: 3,
            ..Default::default()
        };
        let report = run(&scale).unwrap();
        assert_eq!(report.rows.len(), 5);
        assert!(report.rows.iter().all(|r| r.violations == 0));
        assert!(render(&report).contains("Table I"));
    }
}
