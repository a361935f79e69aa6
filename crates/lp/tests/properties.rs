//! Property-based tests of the LP and MILP solvers.

use oic_lp::{LinearProgram, LpError, MixedIntegerProgram, Relation, WarmStart};
use proptest::prelude::*;

/// Strategy: a bounded LP over `n` box-bounded variables with random
/// `≤`-constraints. Always feasible at the box center scaled toward zero?
/// Not guaranteed — feasibility is checked against the outcome instead.
fn random_lp(n: usize, m: usize) -> impl Strategy<Value = (Vec<f64>, Vec<(Vec<f64>, f64)>)> {
    let costs = prop::collection::vec(-5.0f64..5.0, n);
    let rows = prop::collection::vec((prop::collection::vec(-3.0f64..3.0, n), -2.0f64..6.0), m);
    (costs, rows)
}

/// An LP mixing every constraint relation and bound kind: costs, one
/// `(kind, lower, width)` per variable (kind 0 free, 1 lower-only,
/// 2 upper-only, 3 boxed, with bounds `lower` and `lower + width`), and
/// `(coeffs, relation 0 ≤ / 1 = / 2 ≥, rhs)` rows with RHS of both signs.
type MixedLp = (
    Vec<f64>,
    Vec<(usize, f64, f64)>,
    Vec<(Vec<f64>, usize, f64)>,
);

fn mixed_lp(n: usize, m: usize) -> impl Strategy<Value = MixedLp> {
    (
        prop::collection::vec(-5.0f64..5.0, n),
        prop::collection::vec((0usize..4, -5.0f64..5.0, 0.0f64..6.0), n),
        prop::collection::vec(
            (
                prop::collection::vec(-3.0f64..3.0, n),
                0usize..3,
                -6.0f64..6.0,
            ),
            m,
        ),
    )
}

/// The program a [`MixedLp`] describes, and its rewrite with only `≤`
/// rows over free variables: `≥` rows negated, `=` rows as two rows,
/// bounds as rows.
fn with_and_without_kinds((costs, bounds, rows): &MixedLp) -> (LinearProgram, LinearProgram) {
    let mut lp = LinearProgram::minimize(costs);
    let mut le_only = LinearProgram::minimize(costs);
    let neg = |coeffs: &[f64]| coeffs.iter().map(|v| -v).collect::<Vec<_>>();
    for (i, &(kind, lower, width)) in bounds.iter().enumerate() {
        let mut unit = vec![0.0; costs.len()];
        unit[i] = 1.0;
        if kind == 1 || kind == 3 {
            lp.set_lower_bound(i, lower);
            le_only.add_le(&neg(&unit), -lower);
        }
        if kind == 2 || kind == 3 {
            lp.set_upper_bound(i, lower + width);
            le_only.add_le(&unit, lower + width);
        }
    }
    for (coeffs, relation, rhs) in rows {
        let relation = [Relation::Le, Relation::Eq, Relation::Ge][*relation];
        lp.add_constraint(coeffs, relation, *rhs);
        if relation != Relation::Ge {
            le_only.add_le(coeffs, *rhs);
        }
        if relation != Relation::Le {
            le_only.add_le(&neg(coeffs), -rhs);
        }
    }
    (lp, le_only)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every relation and bound kind compiles to the same program as its
    /// `≤`-only rewrite over free variables: a cold solve gives the same
    /// verdict and an objective within 1e-7.
    #[test]
    fn relations_and_bound_kinds_match_le_only_rewrite(mixed in mixed_lp(3, 4)) {
        let (lp, le_only) = with_and_without_kinds(&mixed);
        match (lp.solve(), le_only.solve()) {
            (Ok(a), Ok(b)) => prop_assert!(
                (a.objective() - b.objective()).abs() < 1e-7,
                "kinds {} vs rewrite {}",
                a.objective(),
                b.objective()
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "verdicts differ: {a:?} vs {b:?}"),
        }
    }

    /// Any reported optimum satisfies every constraint and the bounds.
    #[test]
    fn optimum_is_feasible((costs, rows) in random_lp(4, 6)) {
        let mut lp = LinearProgram::minimize(&costs);
        for i in 0..costs.len() {
            lp.set_bounds(i, -10.0, 10.0);
        }
        for (row, rhs) in &rows {
            lp.add_le(row, *rhs);
        }
        match lp.solve() {
            Ok(sol) => {
                for (i, v) in sol.x().iter().enumerate() {
                    prop_assert!((-10.0 - 1e-6..=10.0 + 1e-6).contains(v), "bound violated at {i}");
                }
                for (row, rhs) in &rows {
                    let lhs: f64 = row.iter().zip(sol.x()).map(|(a, x)| a * x).sum();
                    prop_assert!(lhs <= rhs + 1e-6, "constraint violated: {lhs} > {rhs}");
                }
                // Objective value is consistent with the reported point.
                let obj: f64 = costs.iter().zip(sol.x()).map(|(c, x)| c * x).sum();
                prop_assert!((obj - sol.objective()).abs() < 1e-6);
            }
            Err(LpError::Infeasible) => {
                // Cross-check: the all-zero point must then violate some
                // constraint (zero is inside the bounds).
                let zero_ok = rows.iter().all(|(_, rhs)| *rhs >= -1e-9);
                prop_assert!(!zero_ok, "reported infeasible but x = 0 is feasible");
            }
            Err(e) => prop_assert!(false, "unexpected lp failure: {e}"),
        }
    }

    /// The optimum is no worse than any random feasible sample.
    #[test]
    fn optimum_dominates_samples(
        (costs, rows) in random_lp(3, 5),
        samples in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 3), 16),
    ) {
        let mut lp = LinearProgram::minimize(&costs);
        for i in 0..costs.len() {
            lp.set_bounds(i, -10.0, 10.0);
        }
        for (row, rhs) in &rows {
            lp.add_le(row, *rhs);
        }
        if let Ok(sol) = lp.solve() {
            for s in &samples {
                let feasible = rows.iter().all(|(row, rhs)| {
                    row.iter().zip(s).map(|(a, x)| a * x).sum::<f64>() <= *rhs + 1e-12
                });
                if feasible {
                    let obj: f64 = costs.iter().zip(s).map(|(c, x)| c * x).sum();
                    prop_assert!(
                        sol.objective() <= obj + 1e-6,
                        "sample beats optimum: {obj} < {}", sol.objective()
                    );
                }
            }
        }
    }

    /// Maximize(c) == -Minimize(-c).
    #[test]
    fn max_min_duality((costs, rows) in random_lp(3, 4)) {
        let build = |maximize: bool| {
            let mut lp = if maximize {
                LinearProgram::maximize(&costs)
            } else {
                LinearProgram::minimize(&costs.iter().map(|c| -c).collect::<Vec<_>>())
            };
            for i in 0..costs.len() {
                lp.set_bounds(i, -4.0, 4.0);
            }
            for (row, rhs) in &rows {
                lp.add_le(row, *rhs);
            }
            lp.solve()
        };
        match (build(true), build(false)) {
            (Ok(mx), Ok(mn)) => prop_assert!((mx.objective() + mn.objective()).abs() < 1e-6),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "orientation mismatch: {a:?} vs {b:?}"),
        }
    }

    /// A warm-started solve equals a cold solve on every element of a
    /// perturbed-RHS sequence (the templated-MPC resolve pattern).
    #[test]
    fn warm_start_equals_cold_on_rhs_sequences(
        (costs, rows) in random_lp(4, 10),
        deltas in prop::collection::vec(prop::collection::vec(-0.5f64..0.5, 10), 6),
    ) {
        let mut lp = LinearProgram::minimize(&costs);
        for i in 0..costs.len() {
            lp.set_bounds(i, -10.0, 10.0);
        }
        for (row, rhs) in &rows {
            lp.add_le(row, *rhs);
        }
        let mut warm = WarmStart::new();
        for delta in &deltas {
            let rhs: Vec<f64> = rows
                .iter()
                .zip(delta)
                .map(|((_, r), d)| r + d)
                .collect();
            let warm_result = lp.solve_warm_with_rhs(&rhs, &mut warm);
            let cold_result = lp.solve_with_rhs(&rhs);
            match (warm_result, cold_result) {
                (Ok(w), Ok(c)) => prop_assert!(
                    (w.objective() - c.objective()).abs() < 1e-7,
                    "warm {} vs cold {}",
                    w.objective(),
                    c.objective()
                ),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (w, c) => prop_assert!(false, "warm/cold disagreement: {w:?} vs {c:?}"),
            }
        }
    }

    /// After an objective change a warm solve (primal pivots from the
    /// carried basis) and a cold tableau solve give the same verdict and
    /// objectives within 1e-7.
    #[test]
    fn warm_start_equals_cold_after_objective_change(
        (costs, rows) in random_lp(4, 10),
        retarget in prop::collection::vec(-5.0f64..5.0, 4),
    ) {
        let mut lp = LinearProgram::minimize(&costs);
        for i in 0..costs.len() {
            lp.set_bounds(i, -10.0, 10.0);
        }
        for (row, rhs) in &rows {
            lp.add_le(row, *rhs);
        }
        let mut warm = WarmStart::new();
        if lp.solve_warm(&mut warm).is_err() {
            // Infeasible: the carried basis is not primal feasible, so
            // the objective change has nothing to warm-start from.
            return Ok(());
        }
        lp.set_objective(&retarget);
        let hits = warm.warm_hits();
        match (lp.solve_warm(&mut warm), lp.solve()) {
            (Ok(w), Ok(c)) => prop_assert!(
                (w.objective() - c.objective()).abs() < 1e-7,
                "warm {} vs cold {}",
                w.objective(),
                c.objective()
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (w, c) => prop_assert!(false, "warm/cold disagreement: {w:?} vs {c:?}"),
        }
        prop_assert_eq!(warm.warm_hits(), hits + 1, "the second solve ran warm");
    }

    /// MILP == exhaustive enumeration over the binary assignments.
    #[test]
    fn milp_matches_enumeration(
        costs in prop::collection::vec(-4.0f64..4.0, 3),
        row in prop::collection::vec(-2.0f64..2.0, 3),
        rhs in -1.0f64..3.0,
    ) {
        let mut lp = LinearProgram::maximize(&costs);
        lp.add_le(&row, rhs);
        let mip = MixedIntegerProgram::new(lp.clone(), &[0, 1, 2]);
        let bb = mip.solve();

        let mut best: Option<f64> = None;
        for mask in 0..8u32 {
            let mut probe = lp.clone();
            for i in 0..3 {
                let v = if mask >> i & 1 == 1 { 1.0 } else { 0.0 };
                probe.set_bounds(i, v, v);
            }
            if let Ok(s) = probe.solve() {
                best = Some(best.map_or(s.objective(), |b: f64| b.max(s.objective())));
            }
        }
        match (bb, best) {
            (Ok(s), Some(b)) => prop_assert!((s.objective() - b).abs() < 1e-6),
            (Err(LpError::Infeasible), None) => {}
            (s, b) => prop_assert!(false, "mismatch: {s:?} vs {b:?}"),
        }
    }
}
