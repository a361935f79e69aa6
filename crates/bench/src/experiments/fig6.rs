//! Fig. 6: impact of the front vehicle's velocity **regularity**.
//!
//! Ex.6–Ex.10 share the full `v_f ∈ [30, 50]` range but differ in how
//! predictable the velocity is:
//!
//! * Ex.6 — completely random (i.i.d. uniform per step),
//! * Ex.7 — bounded random acceleration (same setting as Ex.1),
//! * Ex.8 — sinusoid `a_f = 5`, disturbance `[−5, 5]`,
//! * Ex.9 — sinusoid `a_f = 8`, disturbance `[−2, 2]`,
//! * Ex.10 — sinusoid `a_f = 9`, disturbance `[−1, 1]`.
//!
//! The paper's Fig. 6 shows savings increasing from Ex.7 to Ex.10 (more
//! regularity → easier to learn), with Ex.6 as an outlier that still saves
//! a lot because pure-random `v_f` degrades the RMPC baseline itself.

use oic_core::acc::AccCaseStudy;
use oic_core::CoreError;
use oic_sim::front::{FrontModel, SinusoidalFront, SmoothRandomFront, UniformRandomFront};
use oic_sim::AccParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::common::{compare_on_case, ExperimentScale};
use crate::table;

/// One regularity setting of Ex.6–Ex.10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regularity {
    /// Ex.6: i.i.d. uniform `v_f`.
    PureRandom,
    /// Ex.7: bounded random acceleration.
    SmoothRandom,
    /// Ex.8–Ex.10: sinusoid with the given amplitude and noise, scaled ×10
    /// to stay `Eq`-able (`af10`, `noise10` are tenths).
    Sinusoid {
        /// Amplitude ×10 (e.g. 90 for `a_f = 9`).
        af10: u32,
        /// Noise half-range ×10 (e.g. 10 for `w ∈ [−1, 1]`).
        noise10: u32,
    },
}

/// The experiments of Fig. 6, in paper order.
pub const EXPERIMENTS: [(&str, Regularity); 5] = [
    ("Ex.6", Regularity::PureRandom),
    ("Ex.7", Regularity::SmoothRandom),
    (
        "Ex.8",
        Regularity::Sinusoid {
            af10: 50,
            noise10: 50,
        },
    ),
    (
        "Ex.9",
        Regularity::Sinusoid {
            af10: 80,
            noise10: 20,
        },
    ),
    (
        "Ex.10",
        Regularity::Sinusoid {
            af10: 90,
            noise10: 10,
        },
    ),
];

impl Regularity {
    /// Instantiates the front model for this setting.
    pub fn front(&self, params: &AccParams, seed: u64) -> Box<dyn FrontModel> {
        match *self {
            Regularity::PureRandom => Box::new(UniformRandomFront::new(params.vf_range, seed)),
            Regularity::SmoothRandom => Box::new(SmoothRandomFront::new(
                params.vf_range,
                (-20.0, 20.0),
                params.dt,
                seed,
            )),
            Regularity::Sinusoid { af10, noise10 } => Box::new(SinusoidalFront::new(
                params,
                40.0,
                af10 as f64 / 10.0,
                noise10 as f64 / 10.0,
                seed,
            )),
        }
    }
}

/// One row of the Fig. 6 series.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Experiment label.
    pub label: &'static str,
    /// Mean DRL fuel saving over RMPC-only.
    pub mean_saving_drl: f64,
    /// Mean DRL skip rate.
    pub mean_skip_rate: f64,
    /// Mean absolute baseline fuel (diagnoses the Ex.6 outlier).
    pub mean_baseline_fuel: f64,
    /// Safety violations (must be 0).
    pub violations: usize,
}

/// Full Fig. 6 report.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Report {
    /// One row per experiment.
    pub rows: Vec<Fig6Row>,
    /// Cases per experiment.
    pub cases: usize,
}

/// Runs Ex.6–Ex.10.
///
/// # Errors
///
/// Propagates case-study construction and episode failures.
pub fn run(scale: &ExperimentScale) -> Result<Fig6Report, CoreError> {
    let case = AccCaseStudy::build_default()?;
    let params = case.params().clone();
    let mut rows = Vec::with_capacity(EXPERIMENTS.len());

    for (idx, (label, regularity)) in EXPERIMENTS.iter().enumerate() {
        let reg = *regularity;
        let train_params = params.clone();
        let (mut drl, _) = case.train_drl(
            Box::new(move |seed| reg.front(&train_params, 0xF1_600 + seed)),
            scale.train_episodes,
            scale.steps,
            1,
            scale.seed + idx as u64,
        );

        let mut rng = StdRng::seed_from_u64(scale.seed + 200 + idx as u64);
        let mut mean_saving = 0.0;
        let mut mean_skip = 0.0;
        let mut mean_base_fuel = 0.0;
        let mut violations = 0;
        for case_idx in 0..scale.cases {
            let x0 = case.sample_initial_state(&mut rng);
            let front_seed = scale.seed ^ (0xC6_000 + (idx * 10_000 + case_idx) as u64);
            let params_ref = params.clone();
            let mut front_factory =
                move || -> Box<dyn FrontModel> { reg.front(&params_ref, front_seed) };
            let cmp = compare_on_case(&case, &mut drl, &mut front_factory, x0, scale.steps)?;
            mean_saving += cmp.fuel_saving();
            mean_skip += cmp.policy.stats.skip_rate();
            mean_base_fuel += cmp.baseline.summary.total_fuel;
            violations += cmp.violations();
        }
        let n = scale.cases.max(1) as f64;
        rows.push(Fig6Row {
            label,
            mean_saving_drl: mean_saving / n,
            mean_skip_rate: mean_skip / n,
            mean_baseline_fuel: mean_base_fuel / n,
            violations,
        });
    }
    Ok(Fig6Report {
        rows,
        cases: scale.cases,
    })
}

/// JSON form of the report (written by the binary's `--out` flag).
pub fn to_json(report: &Fig6Report, scale: &ExperimentScale) -> oic_engine::JsonValue {
    use oic_engine::JsonValue;
    let rows: Vec<JsonValue> = report
        .rows
        .iter()
        .map(|r| {
            JsonValue::object()
                .with("label", r.label)
                .with("mean_saving_drl", r.mean_saving_drl)
                .with("mean_skip_rate", r.mean_skip_rate)
                .with("mean_baseline_fuel", r.mean_baseline_fuel)
                .with("violations", r.violations)
        })
        .collect();
    scale
        .json_header("fig6", super::FIG_FLAGS)
        .with("rows", JsonValue::Array(rows))
}

/// Renders the Fig. 6 series.
pub fn render(report: &Fig6Report) -> String {
    let mut out =
        String::from("Fig. 6 — DRL fuel saving vs RMPC-only under different v_f regularity\n");
    let max_milli = report
        .rows
        .iter()
        .map(|r| (r.mean_saving_drl * 1000.0) as usize)
        .max()
        .unwrap_or(1)
        .max(1);
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                table::pct(r.mean_saving_drl),
                table::bar((r.mean_saving_drl * 1000.0) as usize, max_milli, 30),
                table::pct(r.mean_skip_rate),
                format!("{:.2}", r.mean_baseline_fuel),
                r.violations.to_string(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        &[
            "experiment",
            "saving",
            "",
            "skip rate",
            "baseline fuel",
            "violations",
        ],
        &rows,
    ));
    out.push_str(
        "\n(paper shape: saving grows Ex.7→Ex.10 with regularity; Ex.6 is an outlier that\n still saves because pure-random v_f degrades the RMPC baseline itself)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_roster_matches_paper() {
        assert_eq!(EXPERIMENTS.len(), 5);
        assert_eq!(EXPERIMENTS[0].1, Regularity::PureRandom);
        assert_eq!(
            EXPERIMENTS[4].1,
            Regularity::Sinusoid {
                af10: 90,
                noise10: 10
            }
        );
    }

    #[test]
    fn fronts_respect_ranges() {
        let params = AccParams::default();
        for (_, reg) in EXPERIMENTS {
            let mut f = reg.front(&params, 3);
            for t in 0..200 {
                let v = f.velocity(t);
                assert!((30.0..=50.0).contains(&v), "{reg:?} produced {v}");
            }
        }
    }

    #[test]
    fn tiny_fig6_runs_clean() {
        let scale = ExperimentScale {
            cases: 1,
            steps: 30,
            train_episodes: 1,
            seed: 5,
            ..Default::default()
        };
        let report = run(&scale).unwrap();
        assert_eq!(report.rows.len(), 5);
        assert!(report.rows.iter().all(|r| r.violations == 0));
        assert!(render(&report).contains("Ex.10"));
    }
}
