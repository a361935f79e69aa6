//! Warm-start telemetry along a closed-loop tube-MPC trajectory: pivot
//! counts, hit rates, and fallbacks — the observable the revised engine
//! is minimizing. Run with
//! `cargo run --release -p oic-bench --example warm_diag`.

use oic_bench::fixtures::acc_closed_loop_states;
use oic_control::MpcWarmState;
use oic_core::acc::AccCaseStudy;

fn main() {
    let case = AccCaseStudy::build_default().expect("case study builds");
    let mpc = case.mpc();

    // Closed-loop rollout under adversarial alternating disturbances
    // (shared fixture with the kernels bin).
    let states = acc_closed_loop_states(mpc, 20);

    // Cold: a fresh warm state per step never reuses a basis.
    let mut cold_pivots = 0u64;
    for s in &states {
        let mut fresh = MpcWarmState::new();
        mpc.solve_warm(s, &mut fresh).expect("feasible");
        cold_pivots += fresh.pivots();
    }

    // Warm: one carried state across the whole episode.
    let mut warm = MpcWarmState::new();
    for s in &states {
        mpc.solve_warm(s, &mut warm).expect("feasible");
    }

    let n = states.len() as u64;
    println!("steps: {n}");
    println!(
        "cold:  {cold_pivots} pivots total ({} per step)",
        cold_pivots / n
    );
    println!(
        "warm:  {} pivots total ({} per step), {} warm hits, {} fallbacks",
        warm.pivots(),
        warm.pivots() / n,
        warm.warm_hits(),
        warm.fallbacks(),
    );
}
