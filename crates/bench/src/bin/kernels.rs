//! Kernel timing snapshot: measures the LP/MPC hot-path kernels and the
//! engine's episode-loop throughput, and writes `BENCH_kernels.json`
//! alongside the batch baseline.
//!
//! Usage: `cargo run --release -p oic-bench --bin kernels -- [--out FILE]
//! [--samples N] [--engine-only]`
//!
//! Unlike `BENCH_batch.json` (bit-exact, CI-diffed) these numbers are
//! wall-clock and machine-dependent: the committed file is a recorded
//! perf *trajectory* for the ROADMAP, not a byte-compared baseline. The
//! ratios (`speedup_*`) are the more machine-portable part: `mpc_step`'s
//! compares the warm-started MPC step (the runtime path) with the cold
//! templated solve each episode starts with, and `lp_resolve`'s a warm
//! (revised-engine) resolve with a cold (tableau) one; nothing gates on
//! them.
//!
//! Schema 8: `engine_sweep` is one instrumented registry sweep that
//! counts **executed** episodes only — cache-hit cells (zero recorded
//! wall time; their episodes never ran) and failed cells are excluded
//! from the throughput quotient — plus per-cell rates in
//! `episodes_per_cpu_sec_by_cell`. Each `nd_geometry` row holds only
//! `projection_ns`.
//!
//! `--engine-only` skips the LP/MPC/geometry sections (for CI's
//! throughput floor check).

use std::time::Instant;

use oic_bench::experiments::{batch, usage_exit, ExperimentScale};
use oic_bench::fixtures::{acc_closed_loop_states, drifting_rhs_sequence, tall_lp};
use oic_control::{robust_controllable_pre, MpcWarmState};
use oic_core::acc::AccCaseStudy;
use oic_engine::{executed_throughput, JsonValue};
use oic_lp::WarmStart;
use oic_scenarios::ScenarioRegistry;

/// Median wall-clock nanoseconds of `f` over `samples` runs (2 warm-ups).
fn median_ns(samples: usize, mut f: impl FnMut()) -> u64 {
    for _ in 0..2 {
        f();
    }
    let mut times: Vec<u64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as u64
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// One instrumented registry sweep: `(sweep json, executed episodes per
/// wall-clock second)`. Throughput counts executed episodes only — cache
/// hits and failed cells are excluded from numerator and denominator
/// alike.
fn engine_sweep() -> (JsonValue, f64) {
    let scale = ExperimentScale {
        cases: 16,
        steps: 50,
        train_episodes: 0,
        seed: 42,
        ..Default::default()
    };
    let started = Instant::now();
    let (report, stats) = batch::run_with_stats(&scale).expect("registry sweep runs clean");
    let wall_s = started.elapsed().as_secs_f64().max(1e-9);
    let executed = executed_throughput(&report, &stats);
    let episodes_total: usize = report.cells.iter().map(|c| c.episodes).sum();
    let eps = executed.episodes as f64 / wall_s;
    // Per-cell rates from the engine's summed chunk times (CPU-, not
    // wall-clock-seconds), executed cells only.
    let mut cell_rates = JsonValue::object();
    for (cell, timing) in report.cells.iter().zip(&stats.cell_timings) {
        if cell.is_failed() || timing.wall_ns == 0 {
            continue;
        }
        let secs = (timing.wall_ns as f64 / 1e9).max(1e-9);
        cell_rates = cell_rates.with(
            &format!("{}/{}", timing.scenario, timing.policy),
            timing.episodes as f64 / secs,
        );
    }
    let json = JsonValue::object()
        .with("episodes_total", episodes_total)
        .with("episodes_executed", executed.episodes)
        .with("cells", report.cells.len())
        .with("cells_from_cache", executed.cells_from_cache)
        .with("cells_failed", executed.cells_failed)
        .with("wall_s", wall_s)
        .with("episodes_per_sec", eps)
        .with("episodes_per_cpu_sec_by_cell", cell_rates);
    (json, eps)
}

const FLAGS: &str = "[--out FILE] [--samples N] [--engine-only]";

fn main() {
    let mut out = "BENCH_kernels.json".to_string();
    let mut samples = 30usize;
    let mut engine_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                usage_exit("kernels", FLAGS, Some(&format!("{arg} needs a value")))
            })
        };
        match arg.as_str() {
            "--help" => usage_exit("kernels", FLAGS, None),
            "--out" => out = value(),
            "--samples" => {
                let v = value();
                samples = v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                    let problem = format!("--samples expects a positive number, got {v:?}");
                    usage_exit("kernels", FLAGS, Some(&problem))
                });
            }
            "--engine-only" => engine_only = true,
            other => usage_exit(
                "kernels",
                FLAGS,
                Some(&format!("unknown argument {other:?}")),
            ),
        }
    }

    // --- Engine sweep throughput: one instrumented batch run over the
    // full registry. ---
    eprintln!("kernels: instrumented engine sweep (full registry)…");
    let (engine, eps) = engine_sweep();
    eprintln!("engine sweep: {eps:.1} executed episodes/s");

    if engine_only {
        let doc = JsonValue::object()
            .with("schema", 8.0)
            .with("engine_sweep", engine);
        println!("{}", doc.to_json_pretty());
        if let Err(e) = std::fs::write(&out, doc.to_json_pretty()) {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("snapshot written to {out}");
        return;
    }

    eprintln!("kernels: building ACC case study (tube MPC, horizon 10)…");
    let case = AccCaseStudy::build_default().expect("case study builds");
    let mpc = case.mpc();
    // A real closed-loop rollout under adversarial disturbances — the
    // resolve pattern every MPC-heavy engine episode produces (shared
    // fixture with the `warm_diag` example).
    let states = acc_closed_loop_states(mpc, 20);

    // --- Tube-MPC step: templated cold vs templated + warm. ---
    let step_templated = median_ns(samples, || {
        for x in &states {
            mpc.solve(x).expect("feasible");
        }
    }) / states.len() as u64;
    let step_warm = median_ns(samples, || {
        let mut warm = MpcWarmState::new();
        for x in &states {
            mpc.solve_warm(x, &mut warm).expect("feasible");
        }
    }) / states.len() as u64;

    // --- LP resolve sequence: warm (revised) vs cold (tableau) on an
    // MPC-shaped program. ---
    let lp = tall_lp(20, 80);
    let seq = drifting_rhs_sequence(&lp, 16);
    let resolve_cold = median_ns(samples, || {
        for rhs in &seq {
            lp.solve_with_rhs(rhs).expect("feasible");
        }
    }) / seq.len() as u64;
    let resolve_warm = median_ns(samples, || {
        let mut warm = WarmStart::new();
        for rhs in &seq {
            lp.solve_warm_with_rhs(rhs, &mut warm).expect("feasible");
        }
    }) / seq.len() as u64;

    // --- n-D certification kernel: Fourier–Motzkin projection on the
    // registry's 2-, 3-, and 4-state plants. ---
    let registry = ScenarioRegistry::standard();
    let mut nd = JsonValue::object();
    for (name, label) in [
        ("acc", "dim2_acc"),
        ("cstr", "dim3_cstr"),
        ("two-mass-spring", "dim4_two_mass"),
    ] {
        let scenario = registry.get(name).expect("registered scenario");
        eprintln!("kernels: n-D geometry on {name}…");
        // Projection: one robust controllable predecessor of the safe set
        // (n + m → n Fourier–Motzkin elimination with LP pruning).
        let instance = scenario.build().expect("scenario builds");
        let plant = instance.sets().plant().clone();
        let safe = plant.safe_set().clone();
        let projection_ns = median_ns(samples.min(10), || {
            robust_controllable_pre(&plant, &safe).expect("pre-set exists");
        });
        nd = nd.with(
            label,
            JsonValue::object().with("projection_ns", projection_ns as f64),
        );
    }

    let ratio = |slow: u64, fast: u64| slow as f64 / fast.max(1) as f64;
    let doc = JsonValue::object()
        .with("schema", 8.0)
        .with(
            "mpc_step",
            JsonValue::object()
                .with("templated_ns", step_templated as f64)
                .with("templated_warm_ns", step_warm as f64)
                .with("speedup_warm", ratio(step_templated, step_warm)),
        )
        .with(
            "lp_resolve",
            JsonValue::object()
                .with("cold_ns", resolve_cold as f64)
                .with("warm_ns", resolve_warm as f64)
                .with("speedup_warm", ratio(resolve_cold, resolve_warm)),
        )
        .with("nd_geometry", nd)
        .with("engine_sweep", engine);

    println!("{}", doc.to_json_pretty());
    eprintln!(
        "mpc step: templated {step_templated} ns, warm {step_warm} ns (warm speedup {:.2}x)",
        ratio(step_templated, step_warm)
    );
    if let Err(e) = std::fs::write(&out, doc.to_json_pretty()) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    eprintln!("snapshot written to {out}");
}
