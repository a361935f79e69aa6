//! Ablations over three design choices this reproduction makes:
//!
//! 1. **Tightening recursion** — the paper's open-loop `A^{k−1}W` versus
//!    Chisci et al.'s closed-loop `(A+BK)^{k−1}W`: effect on the tightened
//!    sets and the feasible region `X_F = XI`.
//! 2. **Skip-input semantics** — literal zero (deviation coordinates)
//!    versus physical coasting: effect on the strengthened set `X′` and on
//!    bang-bang fuel savings.
//! 3. **MPC horizon** — effect on `XI` and the strengthened set.

use oic_control::{dlqr, ConstrainedLti, Lti, TighteningMode, TubeMpcBuilder};
use oic_core::acc::{AccCaseStudy, EpisodeConfig};
use oic_core::{AlwaysRunPolicy, BangBangPolicy, CoreError, SkipInput};
use oic_geom::{Polytope, SupportFunction};
use oic_linalg::Matrix;
use oic_sim::front::SinusoidalFront;
use oic_sim::fuel::Hbefa3Fuel;
use oic_sim::AccParams;

use super::common::ExperimentScale;
use crate::table;

fn acc_plant(params: &AccParams) -> ConstrainedLti {
    let (x_lo, x_hi, u_lo, u_hi, w_lo, w_hi) = params.deviation_bounds();
    ConstrainedLti::new(
        Lti::new(params.a_matrix(), params.b_matrix()),
        Polytope::from_box(&x_lo, &x_hi),
        Polytope::from_box(&u_lo, &u_hi),
        Polytope::from_box(&w_lo, &w_hi),
    )
}

fn span(set: &Polytope, dir: [f64; 2]) -> f64 {
    let hi = set.support(&dir).unwrap_or(f64::NAN);
    let lo = -set.support(&[-dir[0], -dir[1]]).unwrap_or(f64::NAN);
    hi - lo
}

/// Runs all ablations and renders the tables.
///
/// # Errors
///
/// Propagates set-construction and episode failures.
pub fn run(scale: &ExperimentScale) -> Result<String, CoreError> {
    let params = AccParams::default();
    let mut out = String::new();

    // --- 1. Tightening recursion. ---
    let mut rows = Vec::new();
    for (label, mode) in [
        ("open-loop A^k W (paper)", None),
        ("closed-loop (A+BK)^k W (Chisci)", Some(())),
    ] {
        let plant = acc_plant(&params);
        let k = dlqr(
            plant.system().a(),
            plant.system().b(),
            &Matrix::identity(2),
            &Matrix::identity(1),
        )?;
        let mut builder = TubeMpcBuilder::new(plant, 10)
            .state_weight_vector(vec![1.0, 0.02])
            .input_weight(0.05);
        if mode.is_some() {
            builder = builder.tightening(TighteningMode::ClosedLoop(k));
        }
        let mpc = builder.build()?;
        let x10 = &mpc.tightened_sets()[10];
        let xf = mpc.feasible_set()?;
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", span(x10, [1.0, 0.0])),
            format!("{:.2}", span(&xf, [1.0, 0.0])),
            format!("{:.2}", span(&xf, [0.0, 1.0])),
        ]);
    }
    out.push_str("Ablation 1 — tightening recursion (horizon 10)\n");
    out.push_str(&table::render(
        &["recursion", "X(10) s-span", "X_F s-span", "X_F v-span"],
        &rows,
    ));

    // --- 2. Skip-input semantics. ---
    let mut rows = Vec::new();
    for (label, skip) in [
        ("literal zero (deviation u = 0)", SkipInput::Zero),
        (
            "physical coast (absolute u = 0)",
            SkipInput::Vector(vec![-params.u_eq()]),
        ),
    ] {
        let case = AccCaseStudy::build(params.clone(), 10, skip)?;
        let xp = case.sets().strengthened();
        // Quick paired fuel comparison on a few cases.
        let mut base_total = 0.0;
        let mut bang_total = 0.0;
        let episodes = scale.cases.clamp(3, 20);
        for i in 0..episodes {
            let front_seed = scale.seed + i as u64;
            let run = |policy: &mut dyn oic_core::SkipPolicy| -> Result<f64, CoreError> {
                Ok(case
                    .run_episode(EpisodeConfig {
                        policy,
                        front: Box::new(SinusoidalFront::new(&params, 40.0, 9.0, 1.0, front_seed)),
                        fuel: Box::new(Hbefa3Fuel::default()),
                        steps: scale.steps,
                        initial_state: [0.0, 0.0],
                        oracle_forecast: false,
                    })?
                    .summary
                    .total_fuel)
            };
            base_total += run(&mut AlwaysRunPolicy)?;
            bang_total += run(&mut BangBangPolicy)?;
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", span(xp, [1.0, 0.0])),
            format!("{:.2}", span(xp, [0.0, 1.0])),
            table::pct(1.0 - bang_total / base_total),
        ]);
    }
    out.push_str("\nAblation 2 — skip-input semantics\n");
    out.push_str(&table::render(
        &[
            "skip input",
            "X' s-span",
            "X' v-span",
            "bang-bang fuel saving",
        ],
        &rows,
    ));

    // --- 3. MPC horizon. ---
    // Longer horizons tighten X(k) further each step; past a breakdown
    // point the terminal RPI set no longer fits and the design is
    // infeasible — the classic tube-MPC horizon trade-off, reported as
    // such rather than hidden.
    let mut rows = Vec::new();
    for horizon in [5usize, 8, 10, 12] {
        match AccCaseStudy::build(
            params.clone(),
            horizon,
            SkipInput::Vector(vec![-params.u_eq()]),
        ) {
            Ok(case) => rows.push(vec![
                horizon.to_string(),
                format!("{:.2}", span(case.sets().invariant(), [1.0, 0.0])),
                format!("{:.2}", span(case.sets().strengthened(), [1.0, 0.0])),
                format!("{:.2}", span(case.sets().strengthened(), [0.0, 1.0])),
            ]),
            Err(CoreError::Control(oic_control::ControlError::EmptySet))
            | Err(CoreError::EmptySet) => rows.push(vec![
                horizon.to_string(),
                "(empty)".to_string(),
                "(empty)".to_string(),
                "design infeasible: tightening leaves no terminal RPI set".to_string(),
            ]),
            Err(e) => return Err(e),
        }
    }
    out.push_str("\nAblation 3 — MPC horizon\n");
    out.push_str(&table::render(
        &["horizon N", "XI s-span", "X' s-span", "X' v-span"],
        &rows,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_and_renders() {
        let scale = ExperimentScale {
            cases: 3,
            steps: 30,
            train_episodes: 0,
            seed: 1,
            ..Default::default()
        };
        let out = run(&scale).unwrap();
        assert!(out.contains("Ablation 1"));
        assert!(out.contains("Ablation 2"));
        assert!(out.contains("Ablation 3"));
    }
}
