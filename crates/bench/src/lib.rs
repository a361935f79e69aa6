//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§IV), plus shared table-printing utilities.
//!
//! Each paper artifact has a binary that prints the same rows/series the
//! paper reports:
//!
//! | Artifact | Binary | Module |
//! |---|---|---|
//! | Fig. 4 (fuel-saving histogram, 500 cases) | `cargo run --release -p oic-bench --bin fig4` | [`experiments::fig4`] |
//! | §IV-A timing (0.12 s vs 0.02 s, ≈60 % saving) | `… --bin timing` | [`experiments::timing`] |
//! | Table I + Fig. 5 (velocity ranges) | `… --bin fig5` | [`experiments::fig5`] |
//! | Fig. 6 (velocity regularity) | `… --bin fig6` | [`experiments::fig6`] |
//! | Scenario sweep (all registered plants, via `oic-engine`) | `… --bin batch` | [`experiments::batch`] |
//!
//! All binaries accept `--cases N --steps N --seed N` to scale the
//! experiment (defaults match the paper: 500 cases × 100 steps), plus
//! `--out report.json` to save a machine-readable report — batch reports
//! are seed-stable byte-for-byte, which makes `BENCH_*.json` perf
//! trajectories reproducible. The fig bins also take `--train N` (DRL
//! training episodes) and `batch` takes the engine flags; any other flag
//! is an error (see [`experiments::FIG_FLAGS`] and its siblings).

pub mod experiments;
pub mod fixtures;
pub mod golden;
pub mod table;
