//! Parallel batch evaluation engine for the intermittent-control
//! framework.
//!
//! The paper evaluates 500 episodes per figure; the ROADMAP wants
//! fleet-scale throughput over many scenarios. This crate is the layer
//! that gets there:
//!
//! * [`run_batch`] chunks every `(scenario, policy)` cell into
//!   episode-range tasks and drains them all through one work-stealing
//!   pool ([`run_work_stealing`]: global injector + per-worker deques,
//!   pure `std`); each chunk runs its episodes through the lockstep
//!   kernel, which steps them together and performs every episode's
//!   Algorithm 1 operations in exactly the order of the one-episode
//!   [`IntermittentController`] reference it is tested against record
//!   for record (`tests/lockstep_equiv.rs`);
//! * aggregation streams: each chunk folds its episodes into a
//!   [`CellAccumulator`] (Welford means/variances, saturating safety
//!   tallies) and chunks merge in deterministic chunk order — memory is
//!   O(cells), not O(episodes);
//! * seeding is deterministic per `(base seed, scenario, policy,
//!   episode)` and chunk boundaries never depend on the thread count —
//!   results are byte-identical for any number of workers;
//! * [`BatchReport`] aggregates [`oic_core::RunStats`] per cell (skip
//!   rate, forced runs, actuation effort, safety violations) and emits
//!   machine-readable JSON via the dependency-free [`JsonValue`]
//!   writer/parser;
//! * every cell is a pure function of its canonical spec: [`SweepSpec`]
//!   pins the canonical wire form, [`cell_hash`] content-addresses each
//!   `(scenario, policy, dropout)` cell, and [`run_batch_opts`] layers
//!   the [`CellCache`], shard selection ([`ShardInfo`]), and a
//!   report-order cell callback over the same byte-identical results;
//! * faults degrade, never abort: a panicking worker, a NaN plant
//!   update, or a diverging trajectory turns its cell into a
//!   [`CellOutcome::Failed`] report entry while the sweep completes,
//!   and the environment-forced actuation-dropout axis
//!   ([`DropoutSpec`], [`FaultPlan`] — re-exported from `oic-faults`)
//!   stays byte-reproducible at any thread count.
//!
//! [`IntermittentController`]: oic_core::IntermittentController
//!
//! # Examples
//!
//! ```
//! use oic_engine::{run_batch, BatchConfig, PolicySpec};
//! use oic_scenarios::{DoubleIntegratorScenario, ScenarioRegistry};
//!
//! let mut registry = ScenarioRegistry::new();
//! registry.register(Box::new(DoubleIntegratorScenario));
//! let config = BatchConfig { episodes: 4, steps: 25, ..Default::default() };
//! let report = run_batch(&registry, &[PolicySpec::BangBang], &config).unwrap();
//! assert_eq!(report.total_safety_violations(), 0); // Theorem 1
//! println!("{}", report.to_json(false).to_json_pretty());
//! ```

mod accumulator;
mod cache;
mod hashing;
mod json;
mod kernel;
mod report;
mod runner;
mod spec;
mod steal;

pub use accumulator::{CellAccumulator, Moments};
pub use cache::{decode_cell, encode_cell, CacheError, CacheStats, CellCache};
pub use hashing::{from_hex, sha256, to_hex, Sha256};
pub use json::{JsonParseError, JsonValue};
pub use oic_faults::{CellFault, DropoutSpec, FaultPlan};
pub use report::{BatchReport, CellOutcome, CellReport, EpisodeRecord};
pub use runner::{
    episode_seed, executed_throughput, run_batch, run_batch_opts, BatchConfig, CellTiming,
    EngineError, ExecutedThroughput, PolicySpec, PreparedPolicy, SweepOptions, SweepStats,
};
pub use spec::{
    canonical_policy, cell_hash, cell_hash_canonical, parse_policy, ShardInfo, SweepSpec,
    CACHE_EPOCH,
};
pub use steal::{run_work_stealing, StealStats};
