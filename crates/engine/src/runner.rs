//! The parallel batch runner.
//!
//! The unit of scheduling is the `(scenario, policy, episode-chunk)`
//! task: one work-stealing pool (global injector + per-worker deques,
//! see [`crate::steal`]) drains chunks from *all* cells concurrently, so
//! a slow tube-MPC cell no longer serializes the sweep behind it.
//! Each chunk folds its episodes into a [`CellAccumulator`] as they
//! finish and the per-cell merge state combines chunk accumulators in
//! ascending chunk order — memory is O(cells), not O(episodes).
//!
//! Determinism is preserved by construction: every episode derives its
//! own seed from `(base seed, scenario, policy, episode index)` via a
//! stable hash, chunk boundaries depend only on the configuration (never
//! the thread count), and chunks merge in index order — so the report is
//! byte-identical for any worker count, including 1.
//!
//! Episode failures **degrade, not abort**: a panicking worker, a NaN
//! plant update, or a diverging trajectory turns its cell into a
//! [`CellOutcome::Failed`](crate::report::CellOutcome) report entry
//! while every other cell completes normally. All chunks always run and
//! each chunk stops at its own first failure, so the reported failure —
//! the lowest `(chunk, episode)` of the cell — is a pure function of the
//! seeds and the fault plan, never of thread interleaving.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use oic_faults::{CellFault, DropoutSpec, FaultPlan};

use oic_core::skip_horizon::MaxSkipPolicy;
use oic_core::{
    AlwaysRunPolicy, BangBangPolicy, CoreError, GreedyDrlPolicy, PeriodicSkipPolicy, RandomPolicy,
    SafeSets, SkipPolicy,
};
use oic_nn::Mlp;
use oic_scenarios::{Scenario, ScenarioInstance, ScenarioRegistry};

use crate::accumulator::CellAccumulator;
use crate::cache::CellCache;
use crate::report::{BatchReport, CellReport, EpisodeRecord};
use crate::spec::ShardInfo;
use crate::steal::{run_work_stealing, StealStats};

/// Errors surfaced by the batch engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The configuration is unusable (zero episodes/steps, no policies…).
    InvalidConfig(&'static str),
    /// A scenario failed to build or a policy failed to decode/prepare;
    /// the context names the scenario/policy and the stage. Per-episode
    /// failures no longer surface here — they degrade their cell to a
    /// `Failed` report entry instead (see the module docs).
    Episode {
        /// `scenario/policy/stage` context string.
        context: String,
        /// The underlying failure.
        source: CoreError,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidConfig(what) => write!(f, "invalid batch config: {what}"),
            EngineError::Episode { context, source } => {
                write!(f, "batch failed at {context}: {source}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Wall time of one `(scenario, policy)` cell, summed over its chunks.
///
/// The sum is CPU time spent in the cell's episodes (chunks of one cell
/// run concurrently on different workers), which is the right
/// denominator for per-cell `episodes_per_sec` accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellTiming {
    /// Scenario name (report key).
    pub scenario: String,
    /// Policy label (report key).
    pub policy: String,
    /// Episodes the cell ran.
    pub episodes: usize,
    /// Summed chunk wall time, nanoseconds.
    pub wall_ns: u64,
}

/// Scheduler and timing diagnostics of one sweep — wall-clock facts that
/// deliberately stay out of the deterministic [`BatchReport`].
#[derive(Debug, Clone, Default)]
pub struct SweepStats {
    /// Work-stealing pool counters.
    pub steal: StealStats,
    /// `(scenario, Drl)` cells omitted because the network's input layer
    /// does not fit the scenario's state/disturbance dimensions.
    pub cells_skipped_incompatible: usize,
    /// Cells answered from the content-addressed cache instead of
    /// running episodes (always 0 without [`SweepOptions::cache`]).
    pub cells_from_cache: usize,
    /// Cells that degraded to a `Failed` report entry (panic, NaN, or
    /// divergence in one of their episodes).
    pub cells_failed: usize,
    /// Per-cell episode counts and wall time, in report cell order.
    pub cell_timings: Vec<CellTiming>,
}

/// Throughput tallies restricted to the cells whose episodes actually
/// executed, for honest episodes-per-second accounting.
///
/// Cache-hit cells carry `wall_ns: 0` (their episodes never ran this
/// sweep) and failed cells carry partial episode work against partial
/// wall time; counting either inflates or skews a throughput quotient.
/// [`executed_throughput`] excludes both from numerator *and*
/// denominator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutedThroughput {
    /// Episodes of the included (executed, completed) cells.
    pub episodes: usize,
    /// Summed per-chunk wall time of the included cells (CPU-,
    /// not wall-clock-seconds: chunks run in parallel).
    pub wall_ns: u64,
    /// Included cells.
    pub cells: usize,
    /// Cells excluded as cache hits (`wall_ns == 0`).
    pub cells_from_cache: usize,
    /// Cells excluded as failed.
    pub cells_failed: usize,
}

/// Computes [`ExecutedThroughput`] for one sweep. `report.cells` and
/// `stats.cell_timings` are index-aligned (both in report cell order).
pub fn executed_throughput(report: &BatchReport, stats: &SweepStats) -> ExecutedThroughput {
    debug_assert_eq!(report.cells.len(), stats.cell_timings.len());
    let mut tally = ExecutedThroughput::default();
    for (cell, timing) in report.cells.iter().zip(&stats.cell_timings) {
        if cell.is_failed() {
            tally.cells_failed += 1;
        } else if timing.wall_ns == 0 {
            tally.cells_from_cache += 1;
        } else {
            tally.cells += 1;
            tally.episodes += timing.episodes;
            tally.wall_ns += timing.wall_ns;
        }
    }
    tally
}

/// A skipping policy the engine can instantiate per episode.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// Never skip (the RMPC-only style baseline).
    AlwaysRun,
    /// Always skip inside `X′` (paper Eq. (7)).
    BangBang,
    /// Run once every `period` decisions.
    Periodic(usize),
    /// Skip with the given probability (adversarial stressor).
    Random(f64),
    /// Weakly-hard deadline policy with the given consecutive-skip budget.
    MaxSkip(usize),
    /// A trained DQN skipping policy: `weights` is the `oic-nn` binary
    /// serialization ([`oic_nn::Mlp::to_bytes`]); the blob is decoded
    /// **once** per sweep and the network `Arc`-shared across all worker
    /// deques. Cells only materialize on scenarios whose state and
    /// disturbance dimensions fit the network's input layer (a policy
    /// trained for a 2-state plant is meaningless on a 4-state one);
    /// incompatible `(scenario, policy)` pairs are skipped, not errors —
    /// but a spec that fits *no* registered scenario fails the sweep.
    Drl {
        /// Display name (label becomes `drl-{name}`).
        name: String,
        /// Serialized network weights, shared by all cells of the spec.
        weights: Arc<Vec<u8>>,
    },
}

impl PolicySpec {
    /// Convenience constructor for [`PolicySpec::Drl`].
    pub fn drl(name: impl Into<String>, weights: impl Into<Vec<u8>>) -> Self {
        PolicySpec::Drl {
            name: name.into(),
            weights: Arc::new(weights.into()),
        }
    }

    /// Display label (doubles as the JSON key).
    ///
    /// [`PolicySpec::Random`] uses `{p}` (shortest round-trip float
    /// formatting), not a fixed precision — `{p:.2}` collapsed e.g.
    /// `0.001` and `0.004` onto the same `random-0.00` key.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::AlwaysRun => "always-run".to_string(),
            PolicySpec::BangBang => "bang-bang".to_string(),
            PolicySpec::Periodic(k) => format!("periodic-{k}"),
            PolicySpec::Random(p) => format!("random-{p}"),
            PolicySpec::MaxSkip(b) => format!("max-skip-{b}"),
            PolicySpec::Drl { name, .. } => format!("drl-{name}"),
        }
    }

    /// Checks the spec's parameters without needing a scenario.
    ///
    /// # Errors
    ///
    /// Names the offending parameter (the constructors would otherwise
    /// panic inside a worker thread, bypassing [`EngineError`]).
    pub fn validate(&self) -> Result<(), &'static str> {
        match self {
            PolicySpec::Random(p) if !(0.0..=1.0).contains(p) => {
                Err("random policy probability must be in [0, 1]")
            }
            PolicySpec::Periodic(0) => Err("periodic policy period must be at least 1"),
            PolicySpec::MaxSkip(0) => Err("max-skip budget must be at least 1"),
            PolicySpec::Drl { name, .. } if name.is_empty() => {
                Err("drl policy name must not be empty")
            }
            PolicySpec::Drl { weights, .. } if weights.is_empty() => {
                Err("drl policy weights must not be empty")
            }
            _ => Ok(()),
        }
    }

    /// Decodes the weight blob of a [`PolicySpec::Drl`] (`None` for the
    /// analytic specs). Called once per sweep; the decoded network is
    /// then shared by every compatible cell.
    ///
    /// # Errors
    ///
    /// Propagates blob-decode failures as [`CoreError::Policy`].
    pub fn decode_network(&self) -> Result<Option<Arc<Mlp>>, CoreError> {
        match self {
            PolicySpec::Drl { weights, .. } => GreedyDrlPolicy::decode(weights).map(Some),
            _ => Ok(None),
        }
    }

    /// Precomputes whatever the policy needs for one scenario (e.g. the
    /// consecutive-skip chain or the decoded Q-network), so per-episode
    /// instantiation is cheap.
    ///
    /// # Errors
    ///
    /// Propagates chain-synthesis failures for [`PolicySpec::MaxSkip`]
    /// and decode/dimension failures for [`PolicySpec::Drl`]. Inside
    /// [`run_batch`] incompatible Drl cells are *skipped* before this is
    /// called; calling it directly surfaces the mismatch as an error.
    pub fn prepare(&self, sets: &SafeSets) -> Result<PreparedPolicy, CoreError> {
        Ok(match self {
            PolicySpec::MaxSkip(budget) => {
                PreparedPolicy::MaxSkip(MaxSkipPolicy::new(sets, *budget)?)
            }
            PolicySpec::Drl { weights, .. } => {
                PreparedPolicy::Drl(GreedyDrlPolicy::from_bytes(weights, sets)?)
            }
            other => PreparedPolicy::Spec(other.clone()),
        })
    }
}

/// De-duplicates policy labels for report keys: repeated labels get a
/// `#2`, `#3`, … suffix in roster order, so two specs that render to the
/// same string (e.g. two `drl` blobs registered under one name) still
/// produce distinct cells — and distinct episode seeds, which hash the
/// label.
/// Runs **after** every spec passed [`PolicySpec::validate`] — suffixing
/// must never hide an invalid spec behind a fresh label, so
/// [`run_batch_opts`] validates the roster first and only then derives
/// report keys. The per-base counter persists across occurrences, which
/// keeps the whole pass O(total labels): a suffix below the counter was
/// already inserted into `used` (taken or probed), so no lower free
/// suffix is ever skipped and the output matches the naive
/// lowest-free-suffix scan.
fn dedup_labels(policies: &[PolicySpec]) -> Vec<String> {
    let mut used: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut next_k: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    policies
        .iter()
        .map(|p| {
            let base = p.label();
            if used.insert(base.clone()) {
                return base;
            }
            let k = next_k.entry(base.clone()).or_insert(1);
            loop {
                *k += 1;
                let label = format!("{base}#{k}");
                if used.insert(label.clone()) {
                    return label;
                }
            }
        })
        .collect()
}

/// A policy prototype bound to one scenario.
#[derive(Debug, Clone)]
pub enum PreparedPolicy {
    /// Stateless or per-episode-seeded policies.
    Spec(PolicySpec),
    /// The precomputed weakly-hard policy (chain synthesis is expensive).
    MaxSkip(MaxSkipPolicy),
    /// A learned policy bound to one scenario's encoder: the network is
    /// `Arc`-shared, so per-episode instantiation clones two small
    /// scale vectors, never the weights.
    Drl(GreedyDrlPolicy),
}

impl PreparedPolicy {
    /// Instantiates the policy for one episode.
    pub fn for_episode(&self, seed: u64) -> Box<dyn SkipPolicy> {
        match self {
            PreparedPolicy::Spec(PolicySpec::AlwaysRun) => Box::new(AlwaysRunPolicy),
            PreparedPolicy::Spec(PolicySpec::BangBang) => Box::new(BangBangPolicy),
            PreparedPolicy::Spec(PolicySpec::Periodic(k)) => Box::new(PeriodicSkipPolicy::new(*k)),
            PreparedPolicy::Spec(PolicySpec::Random(p)) => Box::new(RandomPolicy::new(*p, seed)),
            PreparedPolicy::Spec(PolicySpec::MaxSkip(_) | PolicySpec::Drl { .. }) => {
                unreachable!("prepare() replaces MaxSkip/Drl with the built policy")
            }
            PreparedPolicy::MaxSkip(policy) => Box::new(policy.clone()),
            PreparedPolicy::Drl(policy) => Box::new(policy.clone()),
        }
    }
}

/// Batch configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Episodes per (scenario, policy) cell.
    pub episodes: usize,
    /// Steps per episode.
    pub steps: usize,
    /// Base seed; all per-episode seeds derive from it.
    pub seed: u64,
    /// Disturbance-history window handed to policies (`r`).
    pub memory: usize,
    /// Worker threads. `0` (the default) uses one worker per available
    /// CPU — the full `available_parallelism()`, uncapped; earlier
    /// versions silently clamped this to 8, which starved large hosts.
    pub threads: usize,
    /// Episodes per work-stealing task. `0` (the default) picks
    /// `ceil(episodes / 64)` clamped to `[16, 1024]` — a pure function of
    /// the episode count, *never* of the thread count, because chunk
    /// boundaries shape the floating-point merge tree and must not change
    /// between `--threads 1` and `--threads N`.
    pub chunk: usize,
    /// Keep per-episode records in the report (`false`, the default,
    /// streams records into the accumulator and drops them — memory stays
    /// O(cells) no matter how many episodes run).
    pub detail: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            episodes: 100,
            steps: 100,
            seed: 2020,
            memory: 1,
            threads: 0,
            chunk: 0,
            detail: false,
        }
    }
}

impl BatchConfig {
    fn worker_count(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Episodes per scheduling task (deterministic: depends on the
    /// configured chunk size and episode count only).
    pub fn chunk_size(&self) -> usize {
        if self.chunk > 0 {
            self.chunk
        } else {
            self.episodes.div_ceil(64).clamp(16, 1024)
        }
    }
}

/// Stable seed derivation (FNV-1a over the identifying tuple).
pub fn episode_seed(base: u64, scenario: &str, policy: &str, episode: usize) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash ^= *b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&base.to_le_bytes());
    eat(scenario.as_bytes());
    eat(&[0xFF]);
    eat(policy.as_bytes());
    eat(&(episode as u64).to_le_bytes());
    hash
}

/// Runs one episode against a prebuilt scenario instance through
/// [`oic_core::IntermittentController`] (Algorithm 1), optionally under
/// environment-forced actuation dropout (`None` means no dropout axis).
///
/// Sweeps run their episodes through the lockstep kernel; this function
/// is the scalar reference that kernel is tested against, record for
/// record (`tests/lockstep_equiv.rs`). The engine owns the plant
/// stepping (`x⁺ = Ax + Bu + w`), so episodes are exact closed-loop
/// rollouts of the model the certificates cover.
///
/// The dropout stream is drawn **every step** regardless of the policy's
/// decision, so the realized fault pattern is a pure function of the
/// episode seed — two policies under the same seed face the same
/// environment. A drop only *overrides* steps the policy decided to
/// actuate ([`oic_core::IntermittentController::notify_dropout`]
/// re-books the step);
/// those overrides are tallied as [`EpisodeRecord::forced_skips`].
///
/// Every step also passes a divergence guard: a non-finite or
/// astronomically large state component fails the episode with
/// [`CoreError::NonFinite`] instead of silently folding NaN into the
/// cell's aggregates.
///
/// # Errors
///
/// * [`CoreError::OutsideInvariant`] from the runtime, which can only
///   happen if a disturbance process escapes `W` — a scenario bug.
///   Under an active dropout axis the same condition is an expected
///   consequence of voiding Theorem 1's premise, so it ends the episode
///   early with its violations tallied instead of erroring.
/// * [`CoreError::NonFinite`] from the divergence guard.
#[allow(clippy::too_many_arguments)]
pub fn run_episode(
    instance: &ScenarioInstance,
    scenario: &dyn Scenario,
    prepared: &PreparedPolicy,
    episode: usize,
    steps: usize,
    memory: usize,
    seed: u64,
    dropout: Option<&DropoutSpec>,
) -> Result<EpisodeRecord, CoreError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(seed);
    let x0 = instance.sample_initial_state(&mut rng);
    let mut process = scenario.disturbance_process(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut runtime = instance.runtime(prepared.for_episode(seed), memory);
    let sys = instance.sets().plant().system().clone();
    let safe = instance.sets().safe();
    let invariant = instance.sets().invariant();
    let mut dropout = dropout
        .filter(|spec| !spec.is_none())
        .map(|spec| spec.stream(seed));

    let mut x = x0;
    let mut safety_violations = 0usize;
    let mut invariant_violations = 0usize;
    let mut min_safe_slack = f64::INFINITY;
    let mut forced_skips = 0usize;
    let mut escaped = false;
    for t in 0..steps {
        min_safe_slack = min_safe_slack.min(safe.min_slack(&x));
        if !safe.contains_with_tol(&x, 1e-6) {
            safety_violations += 1;
        }
        if !invariant.contains_with_tol(&x, 1e-6) {
            invariant_violations += 1;
        }
        let mut decision = match runtime.step(&x, &[]) {
            Ok(decision) => decision,
            // Dropout deliberately breaks Theorem 1's precondition (the
            // actuator did not do what Algorithm 1 commanded), so the
            // state escaping XI *is the measured result* of that regime:
            // the episode ends here with its violation tallies — the
            // offending state was already counted above — instead of
            // failing the whole cell. Without an active dropout axis the
            // same error still indicates a broken certificate and
            // propagates.
            Err(CoreError::OutsideInvariant { .. }) if dropout.is_some() => {
                escaped = true;
                break;
            }
            Err(e) => return Err(e),
        };
        if let Some(stream) = dropout.as_mut() {
            // Drawn every step — the realized pattern must not depend on
            // what the policy decided — but only steps the policy chose
            // to actuate can be overridden into a forced skip.
            if stream.dropped() && !decision.skipped {
                decision.input = runtime.notify_dropout();
                forced_skips += 1;
            }
        }
        let w = process.next(t);
        x = sys.step(&x, &decision.input, &w);
        if !x.iter().all(|v| v.is_finite() && v.abs() < 1e12) {
            return Err(CoreError::NonFinite { step: t });
        }
    }
    // The final post-step state has no control decision after it but is
    // still a trajectory point Theorem 1 speaks about — tally it too. An
    // escaped episode already counted its terminal state at the top of
    // the iteration that broke out.
    if !escaped {
        min_safe_slack = min_safe_slack.min(safe.min_slack(&x));
        if !safe.contains_with_tol(&x, 1e-6) {
            safety_violations += 1;
        }
        if !invariant.contains_with_tol(&x, 1e-6) {
            invariant_violations += 1;
        }
    }

    Ok(EpisodeRecord {
        episode,
        seed,
        stats: runtime.stats().clone(),
        safety_violations,
        invariant_violations,
        min_safe_slack,
        forced_skips,
    })
}

/// One fully prepared (scenario, policy, dropout) cell, shared read-only
/// by all workers (and by the lockstep kernel in [`crate::kernel`]).
pub(crate) struct CellJob<'a> {
    pub(crate) scenario: &'a dyn Scenario,
    pub(crate) instance: &'a ScenarioInstance,
    pub(crate) prepared: PreparedPolicy,
    pub(crate) label: String,
    /// The cell's dropout variant and its canonical label (report key).
    pub(crate) dropout: DropoutSpec,
    pub(crate) dropout_label: String,
    /// The planned infrastructure fault for this cell, derived from the
    /// sweep's [`FaultPlan`] and the cell hash ([`CellFault::None`]
    /// without a plan).
    pub(crate) fault: CellFault,
    /// The cell's content address (see [`crate::spec::cell_hash`]).
    pub(crate) hash: [u8; 32],
}

/// The scheduling unit: one episode chunk of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ChunkTask {
    cell: usize,
    chunk: usize,
}

/// The streamed output of one chunk.
struct ChunkOutput {
    acc: CellAccumulator,
    detail: Vec<EpisodeRecord>,
    wall_ns: u64,
}

/// Per-cell streaming merge state: chunk accumulators are folded into
/// `acc` strictly in ascending chunk order; finished-out-of-order chunks
/// park in `pending` until their turn. Entries are constant-size in
/// stream mode, so even the worst case — a stalled early chunk parking
/// every later chunk of its cell, up to (chunks per cell − 1) entries —
/// keeps streamed sweeps O(cells) in *records*; typically `pending`
/// holds only the few chunks in flight on other workers.
struct CellMerge {
    next: usize,
    acc: CellAccumulator,
    pending: BTreeMap<usize, ChunkOutput>,
    detail: Vec<EpisodeRecord>,
    wall_ns: u64,
}

impl CellMerge {
    fn new() -> Self {
        Self {
            next: 0,
            acc: CellAccumulator::new(),
            pending: BTreeMap::new(),
            detail: Vec::new(),
            wall_ns: 0,
        }
    }

    fn submit(&mut self, chunk: usize, output: ChunkOutput) {
        // Wall time sums immediately (addition is order-independent);
        // only the floating-point accumulator merge must wait its turn.
        self.wall_ns += output.wall_ns;
        self.pending.insert(chunk, output);
        while let Some(output) = self.pending.remove(&self.next) {
            self.acc.merge(&output.acc);
            self.detail.extend(output.detail);
            self.next += 1;
        }
    }
}

/// Optional sweep behaviors layered over the plain batch run: scenario
/// filtering, shard selection, the content-addressed cell cache, and a
/// cell-completion callback.
///
/// Every option preserves the byte-identity contract: a filtered,
/// sharded, cached, or streamed sweep produces exactly the cell bytes
/// the plain sweep would for the cells it covers.
#[derive(Default)]
pub struct SweepOptions<'a> {
    /// Run only these scenarios (`None` runs every registered one).
    /// Registry order still decides cell order; unknown names are an
    /// error, not an empty report.
    pub scenarios: Option<&'a [String]>,
    /// Own only the cells whose global index `g` over the materialized
    /// grid satisfies [`ShardInfo::owns`]; the report records the shard
    /// so `merge` can interleave the pieces back.
    pub shard: Option<ShardInfo>,
    /// Content-addressed cell cache: hits skip the episode loop
    /// entirely, completed cells are stored under their
    /// [`cell_hash`](crate::spec::cell_hash). Ignored when
    /// `config.detail` is set — the cache stores aggregates only.
    pub cache: Option<&'a CellCache>,
    /// Called once per owned cell as it completes — cache hits
    /// immediately, run cells when their last chunk merges — with the
    /// cell's global index. Cells complete out of order and the callback
    /// runs on worker threads; callers that need report order must
    /// buffer on the index.
    pub on_cell: Option<CellCallback<'a>>,
    /// The environment-forced actuation-dropout axis: each entry
    /// multiplies the `(scenario, policy)` grid by one dropout variant
    /// (grid order is scenario → policy → dropout). `None` or an empty
    /// slice runs the single fault-free `none` variant.
    pub dropouts: Option<&'a [DropoutSpec]>,
    /// Seeded infrastructure-fault plan: per-cell worker panics and NaN
    /// plant updates, derived from the cell hash so the faulted set is
    /// byte-reproducible at any thread count. Faulted cells bypass the
    /// cache and degrade to `Failed` report entries.
    pub faults: Option<&'a FaultPlan>,
}

/// The [`SweepOptions::on_cell`] completion callback: `(global cell
/// index, completed cell)`, invoked from worker threads.
pub type CellCallback<'a> = &'a (dyn Fn(usize, &CellReport) + Sync);

impl std::fmt::Debug for SweepOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepOptions")
            .field("scenarios", &self.scenarios)
            .field("shard", &self.shard)
            .field("cache", &self.cache.is_some())
            .field("on_cell", &self.on_cell.is_some())
            .field("dropouts", &self.dropouts)
            .field("faults", &self.faults)
            .finish()
    }
}

/// Runs the full batch: every scenario × every policy × `episodes`
/// episodes, chunked and drained by one work-stealing pool across all
/// cells at once.
///
/// # Errors
///
/// * [`EngineError::InvalidConfig`] on empty configurations.
/// * [`EngineError::Episode`] naming a scenario that failed to build or
///   a policy that failed to decode/prepare. Per-episode failures do
///   **not** error the sweep: the affected cell degrades to a
///   [`CellOutcome::Failed`](crate::report::CellOutcome) report entry
///   naming the lowest failing `(chunk, episode)` — a deterministic
///   choice, because every chunk always runs (see the module docs).
pub fn run_batch(
    registry: &ScenarioRegistry,
    policies: &[PolicySpec],
    config: &BatchConfig,
) -> Result<BatchReport, EngineError> {
    run_batch_opts(registry, policies, config, &SweepOptions::default()).map(|(report, _)| report)
}

/// [`run_batch`] with [`SweepOptions`], plus the sweep's [`SweepStats`]
/// (scheduler counters, skipped-cell counts, per-cell wall time —
/// wall-clock diagnostics that deliberately stay out of the deterministic
/// report). This is the cell-granular entry point the serve layer and the
/// sharded/cached bench runs build on; [`SweepOptions::default`] runs the
/// plain sweep.
///
/// # Errors
///
/// The [`run_batch`] contract, plus [`EngineError::InvalidConfig`] for
/// invalid shards and scenario filters naming unregistered scenarios.
pub fn run_batch_opts(
    registry: &ScenarioRegistry,
    policies: &[PolicySpec],
    config: &BatchConfig,
    opts: &SweepOptions<'_>,
) -> Result<(BatchReport, SweepStats), EngineError> {
    if registry.is_empty() {
        return Err(EngineError::InvalidConfig("no scenarios registered"));
    }
    if policies.is_empty() {
        return Err(EngineError::InvalidConfig("no policies given"));
    }
    if config.episodes == 0 || config.steps == 0 {
        return Err(EngineError::InvalidConfig(
            "episodes and steps must be positive",
        ));
    }
    if let Some(shard) = &opts.shard {
        if shard.validate().is_err() {
            return Err(EngineError::InvalidConfig(
                "invalid shard: need 0 <= index < of",
            ));
        }
    }
    if let Some(filter) = opts.scenarios {
        if filter.is_empty() {
            return Err(EngineError::InvalidConfig("empty scenario filter"));
        }
        for name in filter {
            if !registry.iter().any(|s| s.name() == name) {
                return Err(EngineError::InvalidConfig(
                    "scenario filter names an unregistered scenario",
                ));
            }
        }
    }
    for policy in policies {
        policy.validate().map_err(EngineError::InvalidConfig)?;
    }
    if let Some(dropouts) = opts.dropouts {
        for dropout in dropouts {
            if dropout.validate().is_err() {
                return Err(EngineError::InvalidConfig(
                    "invalid dropout spec (p must be in (0, 1], m/k need 1 <= m <= k)",
                ));
            }
        }
    }
    if let Some(plan) = opts.faults {
        if plan.validate().is_err() {
            return Err(EngineError::InvalidConfig(
                "invalid fault plan: rates must be in [0, 1] and sum to at most 1",
            ));
        }
    }

    // Decode every learned policy's weight blob exactly once; the
    // decoded networks are `Arc`-shared by all compatible cells (and
    // through them by every worker deque).
    let mut networks: Vec<Option<Arc<Mlp>>> = Vec::with_capacity(policies.len());
    for policy in policies {
        networks.push(
            policy
                .decode_network()
                .map_err(|source| EngineError::Episode {
                    context: format!("{}/decode", policy.label()),
                    source,
                })?,
        );
    }
    let labels = dedup_labels(policies);
    // Canonical policy strings feed cell hashes; computed once so drl
    // weight blobs are digested per policy, not per cell.
    let canonical: Vec<String> = policies.iter().map(crate::spec::canonical_policy).collect();

    // The dropout axis (innermost grid dimension); absent or empty means
    // the single fault-free variant, which renders without any dropout
    // fields and keeps fault-free reports byte-identical to the pre-axis
    // schema.
    let dropouts: Vec<DropoutSpec> = match opts.dropouts {
        Some(list) if !list.is_empty() => list.to_vec(),
        _ => vec![DropoutSpec::None],
    };

    // Plan every cell up front. Each scenario's instance (invariant-set
    // synthesis, the expensive serial part) comes from the registry,
    // which builds it on the first sweep that names it and hands every
    // later sweep the same instance; all of a scenario's cells borrow it.
    let mut jobs = Vec::with_capacity(registry.len() * policies.len() * dropouts.len());
    let mut cells_skipped_incompatible = 0usize;
    for scenario in registry.iter() {
        if let Some(filter) = opts.scenarios {
            if !filter.iter().any(|name| name == scenario.name()) {
                continue;
            }
        }
        // The span and histogram sit inside the build closure, so they
        // count real builds, never memo lookups.
        let instance = registry
            .instance(scenario.name(), |scenario| {
                let _span =
                    oic_obs::span_with("engine.build", "engine", || scenario.name().to_string());
                let timer = oic_obs::Stopwatch::start();
                let built = scenario.build();
                timer.stop_into(oic_obs::histogram!("scenario.build_ns", "ns"));
                built
            })
            .expect("iterated scenarios are registered")
            .as_ref()
            .map_err(|source| EngineError::Episode {
                context: format!("{}/build", scenario.name()),
                source: source.clone(),
            })?;
        for (((policy, network), label), canon) in
            policies.iter().zip(&networks).zip(&labels).zip(&canonical)
        {
            let prepared = match network {
                // Learned policies only apply where the architecture fits
                // the plant (see `PolicySpec::Drl`); other cells are
                // omitted from the report — counted per omitted grid
                // cell, so shrunken sweeps are explainable.
                Some(net) => {
                    if GreedyDrlPolicy::infer_memory(net, instance.sets()).is_none() {
                        cells_skipped_incompatible += dropouts.len();
                        oic_obs::counter!("engine.cells_skipped_incompatible", "cells").incr();
                        continue;
                    }
                    GreedyDrlPolicy::from_network(net.clone(), instance.sets())
                        .map(PreparedPolicy::Drl)
                }
                None => policy.prepare(instance.sets()),
            }
            .map_err(|source| EngineError::Episode {
                context: format!("{}/{}/prepare", scenario.name(), label),
                source,
            })?;
            // One cell per dropout variant; the policy is prepared once
            // per (scenario, policy) and cloned across the axis.
            for dropout in &dropouts {
                let dropout_label = dropout.label();
                let hash = crate::spec::cell_hash_canonical(
                    scenario.name(),
                    label,
                    canon,
                    &dropout_label,
                    config,
                );
                let fault = opts.faults.map_or(CellFault::None, |plan| {
                    plan.cell_fault(&hash, config.episodes, config.steps)
                });
                jobs.push(CellJob {
                    scenario,
                    instance,
                    prepared: prepared.clone(),
                    label: label.clone(),
                    dropout: *dropout,
                    dropout_label,
                    fault,
                    hash,
                });
            }
        }
    }
    if jobs.is_empty() {
        return Err(EngineError::InvalidConfig(
            "no cells to run: no policy applies to any registered scenario",
        ));
    }
    // A learned policy that fits *no* scenario is a misconfiguration,
    // not a quietly empty report row.
    for (network, label) in networks.iter().zip(&labels) {
        if network.is_some() && !jobs.iter().any(|job| &job.label == label) {
            return Err(EngineError::Episode {
                context: format!("{label}/prepare"),
                source: CoreError::Policy {
                    reason: "network fits no registered scenario's state/disturbance dimensions"
                        .into(),
                },
            });
        }
    }

    // Shard selection happens over the *materialized* grid (after the
    // dimension-compatibility skips above), so every shard of a sweep
    // agrees on the global index of every cell.
    let owned: Vec<usize> = (0..jobs.len())
        .filter(|&g| opts.shard.is_none_or(|shard| shard.owns(g)))
        .collect();

    // The cache stores aggregates only; detail sweeps bypass it both
    // ways rather than serve a cell without the rows the caller asked
    // for.
    let cache = if config.detail { None } else { opts.cache };

    // One result slot per owned cell (report order); cache hits fill
    // theirs immediately, the rest at last-chunk merge time.
    let slots: Vec<Mutex<Option<CellReport>>> = owned.iter().map(|_| Mutex::new(None)).collect();
    let mut cells_from_cache = 0usize;
    let mut run: Vec<usize> = Vec::with_capacity(owned.len());
    for (slot_idx, &g) in owned.iter().enumerate() {
        let job = &jobs[g];
        // A cell with a planned fault must actually *run into* that
        // fault — serving it from a pre-fault cache entry would silently
        // defeat the injection (the plan is not part of the hash).
        if let Some(cache) = cache.filter(|_| job.fault == CellFault::None) {
            if let Some(cell) = cache.get(&job.hash) {
                // The names are part of the hash preimage; a mismatch
                // means a corrupted store — rerun rather than mislabel.
                if cell.scenario == job.instance.name()
                    && cell.policy == job.label
                    && cell.dropout == job.dropout_label
                {
                    cells_from_cache += 1;
                    oic_obs::counter!("engine.cells_from_cache", "cells").incr();
                    if let Some(on_cell) = opts.on_cell {
                        on_cell(g, &cell);
                    }
                    *slots[slot_idx].lock().expect("cell slot") = Some(cell);
                    continue;
                }
            }
        }
        run.push(slot_idx);
    }

    let chunk_size = config.chunk_size();
    let chunks_per_cell = config.episodes.div_ceil(chunk_size);
    let mut tasks = Vec::with_capacity(run.len() * chunks_per_cell);
    for cell in 0..run.len() {
        for chunk in 0..chunks_per_cell {
            tasks.push(ChunkTask { cell, chunk });
        }
    }

    let merges: Vec<Mutex<CellMerge>> = run.iter().map(|_| Mutex::new(CellMerge::new())).collect();
    // Per-cell failure slot: the lowest (chunk, episode) failure of the
    // cell. Every chunk always runs and stops at its *own* first
    // failure, so the winning entry is a pure function of the seeds and
    // the fault plan — never of thread interleaving.
    let failures: Vec<Mutex<Option<(usize, usize, String)>>> =
        run.iter().map(|_| Mutex::new(None)).collect();
    // Chunks of a cell retired so far (merged or failed); the thread
    // that retires the last one finalizes the cell.
    let done: Vec<AtomicUsize> = run.iter().map(|_| AtomicUsize::new(0)).collect();
    let cells_failed = AtomicUsize::new(0);

    let steal = run_work_stealing(tasks, config.worker_count(), |_, task: ChunkTask| {
        let slot_idx = run[task.cell];
        let g = owned[slot_idx];
        let job = &jobs[g];
        let _span = oic_obs::span_with("engine.chunk", "engine", || {
            format!("{}/{} chunk {}", job.instance.name(), job.label, task.chunk)
        });
        let chunk_started = Instant::now();
        let start = task.chunk * chunk_size;
        let end = (start + chunk_size).min(config.episodes);
        // The lockstep kernel replays the whole chunk behind one unwind
        // boundary, which turns a panicking episode — injected or
        // genuine — into a Failed *cell* instead of an aborted process;
        // `marker` carries the episode being computed so the failure
        // names it. Everything captured is either read-only or
        // chunk-local, so observing it after an unwind is sound.
        let marker = std::cell::Cell::new(start);
        let (acc, detail, chunk_failure) = match catch_unwind(AssertUnwindSafe(|| {
            crate::kernel::run_chunk(job, config, start, end, &marker)
        })) {
            Ok(output) => (output.acc, output.detail, output.failure),
            Err(payload) => (
                CellAccumulator::new(),
                Vec::new(),
                Some((
                    marker.get(),
                    format!("panicked: {}", panic_message(&*payload)),
                )),
            ),
        };
        let wall_ns = chunk_started.elapsed().as_nanos() as u64;
        oic_obs::histogram!("engine.chunk_ns", "ns").record(wall_ns);
        if let Some((episode, reason)) = chunk_failure {
            let mut slot = failures[task.cell].lock().expect("failure slot");
            if slot
                .as_ref()
                .is_none_or(|(c, e, _)| (task.chunk, episode) < (*c, *e))
            {
                *slot = Some((task.chunk, episode, reason));
            }
        } else {
            let mut merge = merges[task.cell].lock().expect("cell merge lock");
            merge.submit(
                task.chunk,
                ChunkOutput {
                    acc,
                    detail,
                    wall_ns,
                },
            );
        }
        // Last chunk of the cell retired (merged *or* failed): finalize.
        // The AcqRel fetch_add orders this thread's view after every
        // sibling chunk's mutex release, so the finalizer reads complete
        // merge/failure state.
        if done[task.cell].fetch_add(1, Ordering::AcqRel) + 1 == chunks_per_cell {
            let failed = failures[task.cell].lock().expect("failure slot").take();
            let cell = match failed {
                Some((_chunk, episode, reason)) => {
                    cells_failed.fetch_add(1, Ordering::Relaxed);
                    oic_obs::counter!("engine.cells_failed", "cells").incr();
                    CellReport::failed(
                        job.instance.name(),
                        &job.label,
                        &job.dropout_label,
                        config.steps,
                        format!("episode {episode}: {reason}"),
                    )
                }
                None => {
                    let mut merge = merges[task.cell].lock().expect("cell merge lock");
                    let mut cell = CellReport::from_accumulator(
                        job.instance.name(),
                        &job.label,
                        config.steps,
                        &merge.acc,
                    );
                    cell.dropout = job.dropout_label.clone();
                    cell.episodes_detail = std::mem::take(&mut merge.detail);
                    drop(merge);
                    if let Some(cache) = cache {
                        // A full disk (or read-only cache dir) degrades
                        // the cache, not the sweep: the memory tier is
                        // already updated and the error carries no
                        // result data. Failed cells never get here.
                        let _ = cache.put(&job.hash, &cell);
                    }
                    cell
                }
            };
            if let Some(on_cell) = opts.on_cell {
                on_cell(g, &cell);
            }
            *slots[slot_idx].lock().expect("cell slot") = Some(cell);
        }
        true
    });

    // Wall-time accounting for the cells that actually ran; cached
    // cells report zero wall time (their episodes never executed) and
    // failed cells report only their completed chunks' time.
    let mut wall_by_slot: Vec<u64> = vec![0; owned.len()];
    for (&slot_idx, merge) in run.iter().zip(merges) {
        let merge = merge.into_inner().expect("workers joined");
        oic_obs::histogram!("engine.cell_ns", "ns").record(merge.wall_ns);
        wall_by_slot[slot_idx] = merge.wall_ns;
    }

    let mut cells = Vec::with_capacity(owned.len());
    let mut cell_timings = Vec::with_capacity(owned.len());
    for (slot_idx, slot) in slots.into_iter().enumerate() {
        let cell = slot
            .into_inner()
            .expect("workers joined")
            .expect("every owned cell completed or the sweep errored");
        cell_timings.push(CellTiming {
            scenario: cell.scenario.clone(),
            policy: cell.policy.clone(),
            episodes: cell.episodes,
            wall_ns: wall_by_slot[slot_idx],
        });
        cells.push(cell);
    }
    Ok((
        BatchReport {
            seed: config.seed,
            shard: opts.shard,
            cells,
        },
        SweepStats {
            steal,
            cells_skipped_incompatible,
            cells_from_cache,
            cells_failed: cells_failed.into_inner(),
            cell_timings,
        },
    ))
}

/// Renders a panic payload for a `Failed` cell's reason string. Panics
/// raised with a literal or a formatted message (the overwhelmingly
/// common cases) surface verbatim; anything else gets a stable
/// placeholder so reports stay deterministic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CellOutcome;
    use oic_scenarios::DoubleIntegratorScenario;

    fn tiny_registry() -> ScenarioRegistry {
        let mut registry = ScenarioRegistry::new();
        registry.register(Box::new(DoubleIntegratorScenario));
        registry
    }

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = episode_seed(1, "s", "p", 0);
        assert_eq!(a, episode_seed(1, "s", "p", 0));
        assert_ne!(a, episode_seed(1, "s", "p", 1));
        assert_ne!(a, episode_seed(2, "s", "p", 0));
        assert_ne!(episode_seed(1, "sp", "x", 0), episode_seed(1, "s", "px", 0));
    }

    #[test]
    fn batch_is_deterministic_across_thread_counts() {
        let registry = tiny_registry();
        let policies = [PolicySpec::BangBang, PolicySpec::Random(0.5)];
        let serial = BatchConfig {
            episodes: 12,
            steps: 40,
            threads: 1,
            ..Default::default()
        };
        let parallel = BatchConfig {
            episodes: 12,
            steps: 40,
            threads: 4,
            ..Default::default()
        };
        let a = run_batch(&registry, &policies, &serial).unwrap();
        let b = run_batch(&registry, &policies, &parallel).unwrap();
        assert_eq!(a, b, "thread count must not change results");
        assert_eq!(a.to_json(true).to_json(), b.to_json(true).to_json());
    }

    #[test]
    fn small_chunks_exercise_out_of_order_merge_deterministically() {
        // chunk 2 over 30 episodes → 15 chunks per cell: plenty of
        // out-of-order completion for the per-cell merge state to reorder.
        let registry = tiny_registry();
        let policies = [PolicySpec::Random(0.3)];
        let base = BatchConfig {
            episodes: 30,
            steps: 25,
            chunk: 2,
            detail: true,
            ..Default::default()
        };
        let serial = run_batch(
            &registry,
            &policies,
            &BatchConfig {
                threads: 1,
                ..base.clone()
            },
        )
        .unwrap();
        let parallel =
            run_batch(&registry, &policies, &BatchConfig { threads: 8, ..base }).unwrap();
        assert_eq!(serial, parallel);
        // Detail survives chunked streaming, in episode order.
        let detail = &serial.cells[0].episodes_detail;
        assert_eq!(detail.len(), 30);
        assert!(detail.windows(2).all(|w| w[0].episode + 1 == w[1].episode));
    }

    #[test]
    fn auto_chunk_size_ignores_thread_count() {
        for (episodes, expected) in [(1usize, 16), (100, 16), (5_000, 79), (1_000_000, 1024)] {
            let config = BatchConfig {
                episodes,
                ..Default::default()
            };
            assert_eq!(config.chunk_size(), expected, "episodes = {episodes}");
            let more_threads = BatchConfig {
                threads: 32,
                ..config
            };
            assert_eq!(more_threads.chunk_size(), expected);
        }
        let explicit = BatchConfig {
            episodes: 100,
            chunk: 7,
            ..Default::default()
        };
        assert_eq!(explicit.chunk_size(), 7);
    }

    #[test]
    fn worker_count_is_no_longer_capped_at_eight() {
        let config = BatchConfig {
            threads: 48,
            ..Default::default()
        };
        assert_eq!(config.worker_count(), 48, "explicit thread counts win");
        let auto = BatchConfig::default();
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(auto.worker_count(), cores, "auto means every core");
    }

    #[test]
    fn scheduler_stats_cover_every_chunk() {
        let registry = tiny_registry();
        let config = BatchConfig {
            episodes: 40,
            steps: 10,
            chunk: 4,
            threads: 4,
            ..Default::default()
        };
        let (report, stats) = run_batch_opts(
            &registry,
            &[PolicySpec::BangBang],
            &config,
            &SweepOptions::default(),
        )
        .unwrap();
        assert_eq!(report.cells[0].episodes, 40);
        assert_eq!(stats.steal.executed, 10, "40 episodes / chunk 4 = 10 tasks");
        assert!(stats.steal.workers >= 1 && stats.steal.workers <= 4);
        assert_eq!(stats.cells_skipped_incompatible, 0);
        assert_eq!(stats.cell_timings.len(), report.cells.len());
        let timing = &stats.cell_timings[0];
        assert_eq!(timing.scenario, report.cells[0].scenario);
        assert_eq!(timing.episodes, 40);
        assert!(timing.wall_ns > 0, "chunk timing is always collected");
    }

    #[test]
    fn sweep_stats_count_skipped_incompatible_cells() {
        use oic_scenarios::CstrScenario;
        let mut registry = tiny_registry();
        registry.register(Box::new(CstrScenario::default()));
        // Fits the 2-state double integrator, not the 3-state CSTR.
        let policies = [
            PolicySpec::AlwaysRun,
            PolicySpec::drl("di-only", test_blob(&[4, 6, 2], 3)),
        ];
        let config = BatchConfig {
            episodes: 2,
            steps: 10,
            ..Default::default()
        };
        let (report, stats) =
            run_batch_opts(&registry, &policies, &config, &SweepOptions::default()).unwrap();
        assert_eq!(stats.cells_skipped_incompatible, 1, "cstr × drl-di-only");
        assert_eq!(report.cells.len(), 3);
        assert_eq!(stats.cell_timings.len(), 3);
    }

    #[test]
    fn different_seeds_differ() {
        let registry = tiny_registry();
        let policies = [PolicySpec::Random(0.5)];
        let c1 = BatchConfig {
            episodes: 4,
            steps: 30,
            seed: 1,
            detail: true,
            ..Default::default()
        };
        let c2 = BatchConfig {
            episodes: 4,
            steps: 30,
            seed: 2,
            detail: true,
            ..Default::default()
        };
        let a = run_batch(&registry, &policies, &c1).unwrap();
        let b = run_batch(&registry, &policies, &c2).unwrap();
        assert_ne!(a.cells[0].episodes_detail, b.cells[0].episodes_detail);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let registry = tiny_registry();
        let err = run_batch(&registry, &[], &BatchConfig::default()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)));
        let err = run_batch(
            &registry,
            &[PolicySpec::BangBang],
            &BatchConfig {
                episodes: 0,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)));
        let empty = ScenarioRegistry::new();
        let err = run_batch(&empty, &[PolicySpec::BangBang], &BatchConfig::default()).unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)));
    }

    #[test]
    fn bad_policy_parameters_are_invalid_config_not_panics() {
        let registry = tiny_registry();
        for bad in [
            PolicySpec::Random(1.5),
            PolicySpec::Random(-0.1),
            PolicySpec::Periodic(0),
            PolicySpec::MaxSkip(0),
        ] {
            let err = run_batch(&registry, &[bad], &BatchConfig::default()).unwrap_err();
            assert!(matches!(err, EngineError::InvalidConfig(_)));
        }
    }

    #[test]
    fn detail_false_drops_episode_records() {
        let registry = tiny_registry();
        let config = BatchConfig {
            episodes: 3,
            steps: 20,
            detail: false,
            ..Default::default()
        };
        let report = run_batch(&registry, &[PolicySpec::BangBang], &config).unwrap();
        assert!(report.cells[0].episodes_detail.is_empty());
        assert_eq!(report.cells[0].episodes, 3, "aggregates survive the drop");
    }

    fn test_blob(sizes: &[usize], seed: u64) -> Vec<u8> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(sizes, oic_nn::Activation::Relu, &mut rng)
            .to_bytes()
            .to_vec()
    }

    #[test]
    fn random_labels_do_not_collide_at_three_decimals() {
        // Regression: `{p:.2}` rendered 0.001 and 0.004 as the same key.
        let a = PolicySpec::Random(0.001).label();
        let b = PolicySpec::Random(0.004).label();
        assert_ne!(a, b, "labels must distinguish close probabilities");
        assert_eq!(a, "random-0.001");
        // The committed BENCH_batch.json key is unchanged by the widening.
        assert_eq!(PolicySpec::Random(0.25).label(), "random-0.25");
    }

    #[test]
    fn duplicate_labels_are_deduplicated_in_reports() {
        let registry = tiny_registry();
        let policies = [
            PolicySpec::Random(0.3),
            PolicySpec::Random(0.3),
            PolicySpec::Random(0.3),
        ];
        let config = BatchConfig {
            episodes: 4,
            steps: 10,
            ..Default::default()
        };
        let report = run_batch(&registry, &policies, &config).unwrap();
        let keys: Vec<&str> = report.cells.iter().map(|c| c.policy.as_str()).collect();
        assert_eq!(keys, ["random-0.3", "random-0.3#2", "random-0.3#3"]);
        // The suffixed copies hash to different episode seeds, so the
        // cells are genuinely independent samples.
        assert_ne!(report.cells[0].mean_skip_rate, 0.0);
    }

    #[test]
    fn invalid_spec_errors_before_labels_are_suffixed() {
        // Roster validation must run before label de-duplication: a bad
        // spec sandwiched between duplicates fails the sweep instead of
        // being laundered behind a fresh `#k` report key.
        let registry = tiny_registry();
        let policies = [
            PolicySpec::Random(0.3),
            PolicySpec::Random(1.5),
            PolicySpec::Random(0.3),
        ];
        let config = BatchConfig {
            episodes: 2,
            steps: 5,
            ..Default::default()
        };
        let err = run_batch(&registry, &policies, &config).unwrap_err();
        assert!(
            matches!(err, EngineError::InvalidConfig(_)),
            "expected InvalidConfig, got {err}"
        );
    }

    #[test]
    fn explicit_suffix_labels_probe_past_collisions() {
        // A roster whose *explicit* labels already contain `#k` must not
        // collide with generated suffixes: the per-base counter probes
        // past taken suffixes exactly like the naive lowest-free scan.
        let registry = tiny_registry();
        let policies = [
            PolicySpec::drl("t", test_blob(&[4, 8, 2], 1)),
            PolicySpec::drl("t#2", test_blob(&[4, 8, 2], 2)),
            PolicySpec::drl("t", test_blob(&[4, 8, 2], 3)),
        ];
        let config = BatchConfig {
            episodes: 2,
            steps: 5,
            ..Default::default()
        };
        let report = run_batch(&registry, &policies, &config).unwrap();
        let keys: Vec<&str> = report.cells.iter().map(|c| c.policy.as_str()).collect();
        assert_eq!(keys, ["drl-t", "drl-t#2", "drl-t#3"]);
    }

    #[test]
    fn drl_cells_run_and_are_deterministic_across_threads() {
        let registry = tiny_registry();
        // Double integrator: 2 states + 1·2-dim disturbance history → 4.
        let policies = [
            PolicySpec::BangBang,
            PolicySpec::drl("test", test_blob(&[4, 8, 2], 7)),
        ];
        let run = |threads| {
            run_batch(
                &registry,
                &policies,
                &BatchConfig {
                    episodes: 16,
                    steps: 30,
                    threads,
                    chunk: 2,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial, parallel, "learned cells must stay thread-stable");
        assert_eq!(
            serial.to_json(true).to_json(),
            parallel.to_json(true).to_json()
        );
        assert_eq!(serial.cells.len(), 2);
        assert_eq!(serial.cells[1].policy, "drl-test");
        assert_eq!(serial.cells[1].safety_violations, 0, "Theorem 1");
    }

    #[test]
    fn reports_are_byte_identical_with_telemetry_enabled() {
        // The oic-obs invariant, exercised end to end: recording metrics
        // and spans must not perturb the deterministic report — at any
        // thread count, compared against a telemetry-off baseline.
        let registry = tiny_registry();
        let policies = [
            PolicySpec::BangBang,
            PolicySpec::drl("test", test_blob(&[4, 8, 2], 7)),
        ];
        let run = |threads| {
            run_batch(
                &registry,
                &policies,
                &BatchConfig {
                    episodes: 16,
                    steps: 30,
                    threads,
                    chunk: 2,
                    ..Default::default()
                },
            )
            .unwrap()
            .to_json(true)
            .to_json()
        };
        let baseline = run(1);
        oic_obs::set_metrics_enabled(true);
        oic_obs::set_trace_enabled(true);
        let telemetry_serial = run(1);
        let telemetry_parallel = run(8);
        oic_obs::set_metrics_enabled(false);
        oic_obs::set_trace_enabled(false);
        assert_eq!(
            baseline, telemetry_serial,
            "telemetry must stay off the result path"
        );
        assert_eq!(
            telemetry_serial, telemetry_parallel,
            "telemetry must stay thread-count-independent"
        );
    }

    #[test]
    fn incompatible_drl_cells_are_skipped_not_errors() {
        use oic_scenarios::CstrScenario;
        let mut registry = tiny_registry();
        registry.register(Box::new(CstrScenario::default()));
        // A 4-input network fits the 2-state double integrator but not the
        // 3-state CSTR (3 + r·3 ≠ 4 for any r ≥ 1).
        let policies = [
            PolicySpec::AlwaysRun,
            PolicySpec::drl("di-only", test_blob(&[4, 6, 2], 3)),
        ];
        let config = BatchConfig {
            episodes: 2,
            steps: 10,
            ..Default::default()
        };
        let report = run_batch(&registry, &policies, &config).unwrap();
        let cells: Vec<(String, String)> = report
            .cells
            .iter()
            .map(|c| (c.scenario.clone(), c.policy.clone()))
            .collect();
        assert!(cells.contains(&("double-integrator".into(), "drl-di-only".into())));
        assert!(
            !cells.iter().any(|(s, p)| s == "cstr" && p == "drl-di-only"),
            "incompatible cell must be omitted"
        );
        assert!(cells.contains(&("cstr".into(), "always-run".into())));
    }

    #[test]
    fn drl_spec_fitting_no_scenario_is_an_error_not_an_empty_row() {
        // 7 inputs fit no 2-state/2-disturbance plant (7 ≠ 2 + r·2).
        let registry = tiny_registry();
        let err = run_batch(
            &registry,
            &[
                PolicySpec::AlwaysRun,
                PolicySpec::drl("misfit", test_blob(&[7, 4, 2], 1)),
            ],
            &BatchConfig {
                episodes: 2,
                steps: 10,
                ..Default::default()
            },
        )
        .unwrap_err();
        match err {
            EngineError::Episode { context, source } => {
                assert_eq!(context, "drl-misfit/prepare");
                assert!(matches!(source, CoreError::Policy { .. }));
            }
            other => panic!("expected misfit error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_drl_blob_is_a_decode_error() {
        let registry = tiny_registry();
        let mut blob = test_blob(&[4, 6, 2], 3);
        blob.truncate(blob.len() - 5);
        let err = run_batch(
            &registry,
            &[PolicySpec::drl("broken", blob)],
            &BatchConfig::default(),
        )
        .unwrap_err();
        match err {
            EngineError::Episode { context, source } => {
                assert_eq!(context, "drl-broken/decode");
                assert!(matches!(source, CoreError::Policy { .. }));
            }
            other => panic!("expected decode error, got {other:?}"),
        }
        // An empty blob never reaches decode: validate() rejects it.
        let err = run_batch(
            &registry,
            &[PolicySpec::drl("empty", Vec::new())],
            &BatchConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::InvalidConfig(_)));
    }

    #[test]
    fn injected_panics_degrade_to_failed_cells_not_aborts() {
        let registry = tiny_registry();
        let policies = [PolicySpec::AlwaysRun, PolicySpec::BangBang];
        let plan = FaultPlan {
            seed: 3,
            panic_rate: 1.0,
            nan_rate: 0.0,
        };
        let config = BatchConfig {
            episodes: 6,
            steps: 20,
            chunk: 2,
            ..Default::default()
        };
        let opts = SweepOptions {
            faults: Some(&plan),
            ..Default::default()
        };
        let (report, stats) = run_batch_opts(&registry, &policies, &config, &opts).unwrap();
        assert_eq!(report.cells.len(), 2, "every cell reports, failed or not");
        let failed: Vec<&CellReport> = report.cells.iter().filter(|c| c.is_failed()).collect();
        assert_eq!(stats.cells_failed, failed.len());
        assert_eq!(failed.len(), 2, "a rate-1.0 plan fails every cell");
        for cell in &failed {
            match &cell.outcome {
                CellOutcome::Failed { reason } => {
                    assert!(reason.contains("panicked"), "{reason}");
                    assert!(reason.starts_with("episode "), "{reason}");
                }
                CellOutcome::Ok => unreachable!(),
            }
        }
    }

    #[test]
    fn faulted_sweeps_are_byte_identical_across_thread_counts() {
        let registry = tiny_registry();
        let policies = [
            PolicySpec::AlwaysRun,
            PolicySpec::BangBang,
            PolicySpec::Random(0.5),
        ];
        let plan = FaultPlan {
            seed: 11,
            panic_rate: 0.4,
            nan_rate: 0.3,
        };
        let dropouts = [
            DropoutSpec::None,
            DropoutSpec::WeaklyHard { m: 1, k: 5 },
            DropoutSpec::Bernoulli { p: 0.2 },
        ];
        let run_with = |threads: usize| {
            let config = BatchConfig {
                episodes: 10,
                steps: 30,
                threads,
                chunk: 3,
                ..Default::default()
            };
            let opts = SweepOptions {
                faults: Some(&plan),
                dropouts: Some(&dropouts),
                ..Default::default()
            };
            let (report, _) = run_batch_opts(&registry, &policies, &config, &opts).unwrap();
            report.to_json(false).to_json_pretty()
        };
        let serial = run_with(1);
        let parallel = run_with(8);
        assert_eq!(serial, parallel, "faults must not break determinism");
        assert!(serial.contains("\"outcome\": \"failed\""), "{serial}");
        assert!(serial.contains("forced_skips"), "{serial}");
    }

    #[test]
    fn nan_faults_surface_as_non_finite_failures() {
        let registry = tiny_registry();
        let plan = FaultPlan {
            seed: 5,
            panic_rate: 0.0,
            nan_rate: 1.0,
        };
        let config = BatchConfig {
            episodes: 3,
            steps: 20,
            ..Default::default()
        };
        let opts = SweepOptions {
            faults: Some(&plan),
            ..Default::default()
        };
        let (report, stats) =
            run_batch_opts(&registry, &[PolicySpec::AlwaysRun], &config, &opts).unwrap();
        assert_eq!(stats.cells_failed, 1);
        match &report.cells[0].outcome {
            CellOutcome::Failed { reason } => {
                assert!(reason.contains("non-finite"), "{reason}");
            }
            CellOutcome::Ok => panic!("rate-1.0 NaN plan must fail the cell"),
        }
    }

    #[test]
    fn faulted_cells_bypass_the_cache_both_ways() {
        let registry = tiny_registry();
        let cache = CellCache::in_memory();
        let config = BatchConfig {
            episodes: 3,
            steps: 15,
            ..Default::default()
        };
        // A clean run populates the cache for this cell hash.
        let clean = SweepOptions {
            cache: Some(&cache),
            ..Default::default()
        };
        let (clean_report, _) =
            run_batch_opts(&registry, &[PolicySpec::BangBang], &config, &clean).unwrap();
        assert_eq!(cache.stats().stores, 1);
        // A faulted run must not be answered from (or stored into) the
        // cache: the plan is deliberately not part of the cell hash.
        let plan = FaultPlan {
            seed: 2,
            panic_rate: 1.0,
            nan_rate: 0.0,
        };
        let faulted = SweepOptions {
            cache: Some(&cache),
            faults: Some(&plan),
            ..Default::default()
        };
        let (faulted_report, stats) =
            run_batch_opts(&registry, &[PolicySpec::BangBang], &config, &faulted).unwrap();
        assert_eq!(stats.cells_from_cache, 0, "fault plans bypass cache reads");
        assert!(faulted_report.cells[0].is_failed());
        assert_eq!(cache.stats().stores, 1, "failed cells are never stored");
        // The cached clean result is still intact for fault-free runs.
        let (again, stats) =
            run_batch_opts(&registry, &[PolicySpec::BangBang], &config, &clean).unwrap();
        assert_eq!(stats.cells_from_cache, 1);
        assert_eq!(again, clean_report);
    }

    #[test]
    fn dropout_variants_share_seeds_and_tally_forced_skips() {
        let registry = tiny_registry();
        let dropouts = [DropoutSpec::None, DropoutSpec::WeaklyHard { m: 1, k: 4 }];
        let config = BatchConfig {
            episodes: 4,
            steps: 40,
            detail: true,
            ..Default::default()
        };
        let opts = SweepOptions {
            dropouts: Some(&dropouts),
            ..Default::default()
        };
        let (report, _) =
            run_batch_opts(&registry, &[PolicySpec::AlwaysRun], &config, &opts).unwrap();
        assert_eq!(report.cells.len(), 2);
        let (none, mk) = (&report.cells[0], &report.cells[1]);
        assert_eq!(none.dropout, "none");
        assert_eq!(mk.dropout, "mk-1-4");
        assert_eq!(none.forced_skips, 0, "no dropout, no forced skips");
        // always-run never skips voluntarily, so every dropped step of
        // the (1,4) pattern forces a skip: 40 steps / window 4 × 4
        // episodes = 40 forced skips.
        assert_eq!(mk.forced_skips, 40);
        // Episode seeds are shared across variants — the dropout axis
        // never reshuffles the randomness it is compared against.
        for (a, b) in none.episodes_detail.iter().zip(mk.episodes_detail.iter()) {
            assert_eq!(a.seed, b.seed, "episode {} seed", a.episode);
        }
    }

    #[test]
    fn policy_labels_are_distinct() {
        let labels: Vec<String> = [
            PolicySpec::AlwaysRun,
            PolicySpec::BangBang,
            PolicySpec::Periodic(4),
            PolicySpec::Random(0.25),
            PolicySpec::MaxSkip(2),
            PolicySpec::drl("golden-acc", vec![1u8]),
        ]
        .iter()
        .map(PolicySpec::label)
        .collect();
        let mut deduped = labels.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), labels.len());
    }
}
