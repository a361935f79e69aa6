//! Micro-benchmarks of every computational kernel in the pipeline: the LP
//! solver, polytope operations, invariant-set iterations, the tube-MPC
//! solve, the monitor check, NN inference, the MILP policy, and the
//! simulator step.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use oic_bench::fixtures::{acc_closed_loop_states, drifting_rhs_sequence, tall_lp};
use oic_control::{dlqr, max_rpi, InvariantOptions, MpcWarmState};
use oic_core::acc::AccCaseStudy;
use oic_core::{ModelBasedPolicy, Monitor, PolicyContext, SkipPolicy};
use oic_drl::{DoubleDqnAgent, DqnConfig};
use oic_geom::{Polytope, SupportFunction};
use oic_linalg::Matrix;
use oic_lp::{LinearProgram, WarmStart};
use oic_sim::front::SinusoidalFront;
use oic_sim::fuel::Hbefa3Fuel;
use oic_sim::{AccParams, TrafficSim};

fn case() -> &'static AccCaseStudy {
    use std::sync::OnceLock;
    static CASE: OnceLock<AccCaseStudy> = OnceLock::new();
    CASE.get_or_init(|| AccCaseStudy::build_default().expect("case study builds"))
}

fn bench_lp(c: &mut Criterion) {
    c.bench_function("lp/simplex_20var_40row", |b| {
        b.iter_batched(
            || {
                let n = 20;
                let mut lp = LinearProgram::maximize(&vec![1.0; n]);
                for i in 0..n {
                    lp.set_bounds(i, -1.0, 1.0);
                }
                for i in 0..n {
                    let mut row = vec![0.0; n];
                    row[i] = 1.0;
                    row[(i + 1) % n] = 0.5;
                    lp.add_le(&row, 1.2);
                }
                lp
            },
            |lp| black_box(lp.solve().expect("feasible")),
            BatchSize::SmallInput,
        )
    });
}

fn bench_lp_resolve(c: &mut Criterion) {
    // Warm-started resolve (revised engine) vs cold resolve (tableau)
    // over the same RHS sequence — the speedup every templated MPC step
    // inherits. The fixtures are shared with the `kernels` snapshot bin so
    // `BENCH_kernels.json` records exactly this workload.
    let lp = tall_lp(20, 80);
    let seq = drifting_rhs_sequence(&lp, 16);
    c.bench_function("lp/warm_vs_cold_resolve/cold", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for rhs in &seq {
                acc += lp.solve_with_rhs(rhs).expect("feasible").objective();
            }
            black_box(acc)
        })
    });
    c.bench_function("lp/warm_vs_cold_resolve/warm", |b| {
        b.iter(|| {
            let mut warm = WarmStart::new();
            let mut acc = 0.0;
            for rhs in &seq {
                acc += lp
                    .solve_warm_with_rhs(rhs, &mut warm)
                    .expect("feasible")
                    .objective();
            }
            black_box(acc)
        })
    });
}

fn bench_geometry(c: &mut Criterion) {
    let xi = case().sets().invariant().clone();
    let w = Polytope::from_box(&[-1.0, 0.0], &[1.0, 0.0]);
    c.bench_function("geom/membership_check", |b| {
        b.iter(|| black_box(xi.contains(black_box(&[3.0, -2.0]))))
    });
    c.bench_function("geom/support_lp", |b| {
        b.iter(|| black_box(xi.support(black_box(&[1.0, 2.0])).expect("bounded")))
    });
    c.bench_function("geom/minkowski_diff", |b| {
        b.iter(|| black_box(xi.minkowski_diff(&w).expect("support ok")))
    });
    c.bench_function("geom/remove_redundant", |b| {
        let doubled = xi.intersection(&xi.translate(&[0.1, 0.1]));
        b.iter(|| black_box(doubled.remove_redundant()))
    });
    let lifted = Polytope::from_box(&[-10.0, -10.0, -5.0], &[10.0, 10.0, 5.0]);
    c.bench_function("geom/fourier_motzkin_eliminate", |b| {
        b.iter(|| black_box(lifted.eliminate(2)))
    });
}

fn bench_invariants(c: &mut Criterion) {
    let a_cl = Matrix::from_rows(&[&[0.8, 0.2], &[-0.2, 0.8]]);
    let w = Polytope::from_box(&[-0.1, -0.1], &[0.1, 0.1]);
    let x = Polytope::from_box(&[-2.0, -2.0], &[2.0, 2.0]);
    c.bench_function("invariant/max_rpi_fixpoint", |b| {
        b.iter(|| black_box(max_rpi(&a_cl, &w, &x, &InvariantOptions::default()).expect("exists")))
    });
    c.bench_function("invariant/dlqr_riccati", |b| {
        let a = Matrix::from_rows(&[&[1.0, -0.1], &[0.0, 0.98]]);
        let bm = Matrix::from_rows(&[&[0.0], &[0.1]]);
        b.iter(|| black_box(dlqr(&a, &bm, &Matrix::identity(2), &Matrix::identity(1)).expect("ok")))
    });
}

fn bench_controllers(c: &mut Criterion) {
    let case = case();
    c.bench_function("mpc/tube_solve", |b| {
        b.iter(|| black_box(case.mpc().solve(black_box(&[5.0, 2.0])).expect("feasible")))
    });
    // One MPC step at a time: templated cold vs templated + warm-started
    // basis carried across the resolve sequence. The states are an actual
    // closed-loop rollout under adversarial disturbances — the pattern
    // every MPC-heavy engine episode produces.
    let states = acc_closed_loop_states(case.mpc(), 20);
    c.bench_function("mpc/step_templated", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for x in &states {
                acc += case.mpc().solve(x).expect("feasible").cost();
            }
            black_box(acc)
        })
    });
    c.bench_function("mpc/step_templated_warm", |b| {
        b.iter(|| {
            let mut warm = MpcWarmState::new();
            let mut acc = 0.0;
            for x in &states {
                acc += case
                    .mpc()
                    .solve_warm(x, &mut warm)
                    .expect("feasible")
                    .cost();
            }
            black_box(acc)
        })
    });
    let monitor = Monitor::new(case.sets().clone());
    c.bench_function("monitor/check", |b| {
        b.iter(|| black_box(monitor.check(black_box(&[5.0, 2.0]))))
    });
    let agent = DoubleDqnAgent::new(DqnConfig {
        state_dim: 4,
        num_actions: 2,
        hidden: vec![64, 64],
        seed: 0,
        ..DqnConfig::default()
    });
    c.bench_function("drl/q_forward_64x64", |b| {
        b.iter(|| black_box(agent.q_values(black_box(&[0.1, -0.2, 0.05, 0.0]))))
    });
    let mut mip = ModelBasedPolicy::new(case.sets(), case.gain().clone(), 5).expect("builds");
    let forecast = vec![vec![0.5, 0.0]; 5];
    c.bench_function("policy/model_based_mip_h5", |b| {
        b.iter(|| {
            let ctx = PolicyContext {
                state: &[2.0, 1.0],
                w_history: &[],
                w_forecast: &forecast,
                time_step: 0,
            };
            black_box(mip.decide(&ctx))
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("sim/step", |b| {
        let params = AccParams::default();
        let front = SinusoidalFront::new(&params, 40.0, 9.0, 1.0, 0);
        let mut sim = TrafficSim::new(
            params,
            Box::new(front),
            Box::new(Hbefa3Fuel::default()),
            150.0,
            40.0,
        );
        b.iter(|| black_box(sim.step(8.0)))
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_lp, bench_lp_resolve, bench_geometry, bench_invariants, bench_controllers,
        bench_simulator
}
criterion_main!(kernels);
