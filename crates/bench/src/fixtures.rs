//! Shared micro-benchmark fixtures.
//!
//! One definition serves the `kernels` snapshot bin (which records
//! `BENCH_kernels.json`) and the `warm_diag` example, so the pivot
//! counts the example prints come from exactly the workload the
//! committed snapshot times.

use oic_control::TubeMpc;
use oic_lp::LinearProgram;

/// A tall MPC-shaped LP: `rows` coupled `≤`-constraints over `vars`
/// box-bounded variables.
pub fn tall_lp(vars: usize, rows: usize) -> LinearProgram {
    let mut lp = LinearProgram::maximize(&vec![1.0; vars]);
    for i in 0..vars {
        lp.set_bounds(i, -1.0, 1.0);
    }
    for r in 0..rows {
        let mut row = vec![0.0; vars];
        row[r % vars] = 1.0;
        row[(r + 1) % vars] = 0.5;
        row[(r + 3) % vars] -= 0.25;
        lp.add_le(&row, 1.2 + 0.01 * (r % 7) as f64);
    }
    lp
}

/// RHS sequence mimicking the MPC resolve pattern over [`tall_lp`]:
/// small deterministic per-step drift around the constructed RHS.
pub fn drifting_rhs_sequence(lp: &LinearProgram, steps: usize) -> Vec<Vec<f64>> {
    let m = lp.num_constraints();
    (0..steps)
        .map(|t| {
            (0..m)
                .map(|r| 1.2 + 0.01 * (r % 7) as f64 + 0.03 * ((t + r) % 5) as f64)
                .collect()
        })
        .collect()
}

/// A closed-loop tube-MPC rollout under adversarial alternating
/// disturbances `w = ±(1, 0)` from `x₀ = (18, 6)` — the resolve pattern
/// every MPC-heavy engine episode produces.
///
/// # Panics
///
/// Panics if a state along the rollout is MPC-infeasible (does not
/// happen for the ACC study this fixture is used with).
pub fn acc_closed_loop_states(mpc: &TubeMpc, steps: usize) -> Vec<Vec<f64>> {
    let sys = mpc.plant().system().clone();
    let mut x = vec![18.0, 6.0];
    let mut out = Vec::with_capacity(steps);
    for t in 0..steps {
        out.push(x.clone());
        let u = mpc.solve(&x).expect("feasible").first_input().to_vec();
        let w = if t % 2 == 0 { [1.0, 0.0] } else { [-1.0, 0.0] };
        x = sys.step(&x, &u, &w);
    }
    out
}
