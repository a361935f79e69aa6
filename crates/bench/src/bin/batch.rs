//! The engine-backed scenario sweep: every registered scenario × the
//! standard policy roster, chunked through the work-stealing pool, with
//! seed-stable JSON output.
//!
//! Usage: `cargo run --release -p oic-bench --bin batch -- [--cases N]
//! [--steps N] [--seed N] [--threads N] [--chunk N] [--stream|--detail]
//! [--policies drl:<path>[,drl:<path>…]] [--out report.json]
//! [--metrics metrics.json] [--trace trace.json] [--cache-dir DIR]
//! [--shard i/n] [--dropout LABEL[,LABEL…]] [--fault-plan plan.json]`
//!
//! `--cache-dir` answers already-computed cells from the
//! content-addressed store under `DIR` (and fills it as new cells
//! complete); `--shard i/n` runs the cells whose global index is `i`
//! modulo `n`, for fan-out across machines — `serve merge` interleaves
//! the shard reports back into the unsharded bytes. Neither flag
//! changes a single report byte (see `docs/PROTOCOL.md`).
//!
//! `--dropout` adds environment-forced actuation-dropout variants
//! (`none`, `bernoulli-<p>`, `mk-<m>-<k>`) as a third grid axis;
//! `--fault-plan` injects deterministic infrastructure faults (worker
//! panics, NaN plant updates) from a committed JSON plan — the sweep
//! degrades (failed cells in the report) instead of aborting, and both
//! stay byte-reproducible at any thread count (`docs/ROBUSTNESS.md`).
//!
//! The roster is the five analytic policies plus the committed golden
//! learned policies (`drl-acc`, `drl-double-integrator`); `--policies
//! drl:<path>` appends additional weight blobs from disk.
//!
//! The wall-clock/scheduler summary goes to stderr only — the JSON
//! report is deterministic byte-for-byte and must stay that way (CI
//! diffs it against the committed `BENCH_batch.json` baseline).
//! Telemetry never touches the report: `--metrics` dumps the `oic-obs`
//! counter/histogram snapshot as JSON (plus a stderr table), `--trace`
//! records spans and writes a Chrome trace-event file that loads in
//! `chrome://tracing` / Perfetto.

use std::time::Instant;

use oic_bench::experiments::{batch, ExperimentScale, BATCH_FLAGS};

fn main() {
    let scale = ExperimentScale::from_env_or_exit("batch", BATCH_FLAGS);
    // Metrics are always on here: the wall-clock/scheduler stderr summary
    // below reads the snapshot, so logs and `--metrics` dumps share one
    // code path. Spans cost more (a ring write per episode), so tracing
    // stays off unless a trace file was requested.
    oic_obs::set_metrics_enabled(true);
    if scale.trace_out.is_some() {
        oic_obs::set_trace_enabled(true);
    }
    eprintln!(
        "batch: full registry x standard policies, {} episodes x {} steps (seed {}, threads {}, chunk {}, {})",
        scale.cases,
        scale.steps,
        scale.seed,
        if scale.threads == 0 { "auto".to_string() } else { scale.threads.to_string() },
        if scale.chunk == 0 { "auto".to_string() } else { scale.chunk.to_string() },
        if scale.stream { "streaming" } else { "detail" },
    );
    let started = Instant::now();
    match batch::run_with_stats(&scale) {
        Ok((report, stats)) => {
            let elapsed = started.elapsed();
            print!("{}", batch::render(&report));
            let episodes: usize = report.cells.iter().map(|c| c.episodes).sum();
            // The scheduler numbers come from the metrics snapshot — the
            // same registry `--metrics` serializes — so the summary line
            // and the machine-readable dump can never disagree.
            let snapshot = oic_obs::metrics_snapshot();
            eprintln!(
                "{}",
                batch::wall_clock_line(
                    elapsed.as_secs_f64(),
                    episodes,
                    report.cells.len(),
                    snapshot.counter("engine.tasks_executed").unwrap_or(0),
                    snapshot.gauge("engine.workers").unwrap_or(0),
                    snapshot.counter("engine.steals").unwrap_or(0),
                )
            );
            if scale.cache_dir.is_some() {
                eprintln!(
                    "cache: {} of {} cells answered from the store, {} ran",
                    stats.cells_from_cache,
                    report.cells.len(),
                    report.cells.len() - stats.cells_from_cache,
                );
            }
            if stats.cells_failed > 0 {
                let cause = if scale.fault_plan.is_some() {
                    " under fault injection"
                } else {
                    " (no fault plan given; see the FAILED rows)"
                };
                eprintln!(
                    "{} cells degraded to failed entries{cause}",
                    stats.cells_failed,
                );
            }
            if stats.cells_skipped_incompatible > 0 {
                eprintln!(
                    "skipped {} (scenario, policy) cells whose network dimensions do not fit the plant",
                    stats.cells_skipped_incompatible,
                );
            }
            if let Some(path) = &scale.metrics_out {
                eprint!("{}", snapshot.render_table());
                if let Err(e) = std::fs::write(path, snapshot.to_json()) {
                    eprintln!("failed to write metrics: {e}");
                    std::process::exit(1);
                }
                eprintln!("metrics written to {path}");
            }
            if let Some(path) = &scale.trace_out {
                let spans = oic_obs::drain_trace();
                let dropped = oic_obs::dropped_spans();
                if dropped > 0 {
                    eprintln!("trace ring overflowed: {dropped} oldest spans dropped");
                }
                if let Err(e) = std::fs::write(path, oic_obs::chrome_trace_json(&spans)) {
                    eprintln!("failed to write trace: {e}");
                    std::process::exit(1);
                }
                eprintln!("trace written to {path} ({} spans)", spans.len());
            }
            if let Err(e) = scale.save_json(&report.to_json(!scale.stream)) {
                eprintln!("failed to write report: {e}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("batch failed: {e}");
            std::process::exit(1);
        }
    }
}
