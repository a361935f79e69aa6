//! Throughput-first lockstep episode kernels.
//!
//! [`run_chunk`] runs one episode chunk of one cell. Each episode's
//! record equals, bit for bit, the one the per-episode reference
//! [`crate::run_episode`] computes; the kernel is restructured for raw
//! speed:
//!
//! * **Monomorphized small-dim kernels** — the registry is all `n ∈ {2,
//!   3, 4}`, so the hot loop is compiled once per state dimension
//!   (const generic `N`); `N = 0` is the dynamic-dimension fallback for
//!   out-of-registry plants.
//! * **Lockstep batch-stepping** — every live episode of the chunk
//!   advances one step together, so the plant update runs as one dense
//!   `A ×` block-of-states product over episode-major flat buffers.
//! * **Scratch reuse** — states, inputs, disturbances, encoder rows and
//!   network activations live in chunk-lifetime buffers; the
//!   steady-state step allocates nothing
//!   ([`DisturbanceProcess::next_into`] fills the episode's disturbance
//!   slot in place).
//! * **Batched MLP inference** — learned cells stage one encoded row
//!   per pending decision and run a single [`oic_nn::Mlp`] batched
//!   forward pass per lockstep step.
//!
//! # Why the report bytes cannot change
//!
//! Episodes are mutually independent: every floating-point operation
//! and every RNG draw belongs to exactly one episode, and the kernel
//! performs each episode's operations in exactly the reference's order
//! (tallies → disturbance estimation → monitor → policy → controller →
//! stats → dropout draw → disturbance draw → plant update → divergence
//! guard). Lockstep only reorders operations of *different* episodes
//! against each other — never the operand values or the operation order
//! within one episode — and chunk accumulators still fold records in
//! episode order, so the merge tree is the same at any thread count.

use std::cell::Cell;

use oic_control::MpcWarmState;
use oic_core::{
    CoreError, DisturbanceProcess, GreedyDrlPolicy, PolicyContext, RunStats, SkipDecision,
    SkipPolicy,
};
use oic_faults::{CellFault, DropoutStream};
use oic_geom::Polytope;
use oic_linalg::Matrix;
use oic_nn::MlpScratch;
use oic_scenarios::ScenarioController;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::accumulator::CellAccumulator;
use crate::report::EpisodeRecord;
use crate::runner::{episode_seed, BatchConfig, CellJob, PreparedPolicy};

/// The tolerance [`Polytope::contains`] applies (`oic_geom`'s
/// `CONTAINS_TOL`), mirrored here because the monitor and the max-skip
/// guarantee check go through `contains`.
const CONTAINS_TOL: f64 = 1e-7;

/// What one chunk hands back to the scheduler.
pub(crate) struct KernelOutput {
    /// Episode records folded in episode order (empty on failure — a
    /// failed chunk never submits to the cell merge).
    pub acc: CellAccumulator,
    /// Per-episode rows when `config.detail` is set.
    pub detail: Vec<EpisodeRecord>,
    /// The lowest failing `(episode, reason)` of the chunk: the lowest
    /// failing episode wins and episodes above it are abandoned.
    pub failure: Option<(usize, String)>,
}

/// Resolves the compile-time dimension: `N = 0` means "read it from the
/// runtime value", any other `N` is a constant loop bound the compiler
/// fully unrolls.
#[inline(always)]
fn dim_of<const N: usize>(n: usize) -> usize {
    if N == 0 {
        n
    } else {
        N
    }
}

/// A polytope flattened into contiguous rows for the hot loop. Slack
/// and membership reproduce `Halfspace::slack` / `Polytope::contains`
/// bit for bit: per-row dot products accumulate from `0.0` in index
/// order, `min_slack` folds with `f64::min` from `+∞`.
struct FlatPoly {
    normals: Vec<f64>,
    offsets: Vec<f64>,
    rows: usize,
}

impl FlatPoly {
    fn new(p: &Polytope, n: usize) -> Self {
        let rows = p.halfspaces().len();
        let mut normals = Vec::with_capacity(rows * n);
        let mut offsets = Vec::with_capacity(rows);
        for h in p.halfspaces() {
            assert_eq!(h.normal().len(), n, "halfspace dim mismatch");
            normals.extend_from_slice(h.normal());
            offsets.push(h.offset());
        }
        Self {
            normals,
            offsets,
            rows,
        }
    }

    #[inline(always)]
    fn min_slack<const N: usize>(&self, x: &[f64]) -> f64 {
        let n = dim_of::<N>(x.len());
        let mut min = f64::INFINITY;
        for r in 0..self.rows {
            let row = &self.normals[r * n..(r + 1) * n];
            let mut dot = 0.0;
            for j in 0..n {
                dot += row[j] * x[j];
            }
            min = f64::min(min, self.offsets[r] - dot);
        }
        min
    }

    #[inline(always)]
    fn contains<const N: usize>(&self, x: &[f64], tol: f64) -> bool {
        let n = dim_of::<N>(x.len());
        for r in 0..self.rows {
            let row = &self.normals[r * n..(r + 1) * n];
            let mut dot = 0.0;
            for j in 0..n {
                dot += row[j] * x[j];
            }
            // Negated `>=` (not `<`) so a NaN slack fails containment,
            // exactly like the scalar `Halfspace::contains`.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(self.offsets[r] - dot >= -tol) {
                return false;
            }
        }
        true
    }
}

/// Row-major flattening of a [`Matrix`] (the layout `Matrix::row`
/// exposes), so the block plant update indexes one contiguous buffer.
fn flatten(m: &Matrix) -> Vec<f64> {
    let mut flat = Vec::with_capacity(m.rows() * m.cols());
    for i in 0..m.rows() {
        flat.extend_from_slice(m.row(i));
    }
    flat
}

/// How one episode resolves its skip decision inside the kernel.
enum EpPolicy {
    /// Analytic policies run through the exact same boxed object
    /// [`crate::run_episode`] builds, so stateful policies (periodic counters,
    /// seeded random draws) advance identically.
    Boxed(Box<dyn SkipPolicy>),
    /// Max-skip needs only a membership test against the shared
    /// guarantee set; the flattened polytope keeps it in the hot loop.
    MaxSkip,
    /// Learned cells defer to the per-step batched forward pass.
    Drl,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Alive,
    Escaped,
    Failed,
}

/// This step's resolved decision for one live episode.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Episode escaped or failed during the decision phase.
    Dead,
    /// Actuate; `forced` marks an invariant-only (monitor-forced) run.
    Run {
        forced: bool,
    },
    Skip,
    /// Waiting on the batched network forward.
    PendingDrl,
}

/// Runs episodes `start..end` of one cell in lockstep. `marker` tracks
/// the episode currently being computed so the caller's unwind boundary
/// can attribute a panic (an injected panic fires at its episode's
/// initialization, and episodes are initialized in order).
pub(crate) fn run_chunk(
    job: &CellJob<'_>,
    config: &BatchConfig,
    start: usize,
    end: usize,
    marker: &Cell<usize>,
) -> KernelOutput {
    let n = job.instance.sets().plant().system().state_dim();
    match n {
        2 => run_chunk_impl::<2>(job, config, start, end, marker),
        3 => run_chunk_impl::<3>(job, config, start, end, marker),
        4 => run_chunk_impl::<4>(job, config, start, end, marker),
        _ => run_chunk_impl::<0>(job, config, start, end, marker),
    }
}

#[allow(clippy::too_many_lines)]
fn run_chunk_impl<const N: usize>(
    job: &CellJob<'_>,
    config: &BatchConfig,
    start: usize,
    end: usize,
    marker: &Cell<usize>,
) -> KernelOutput {
    let sets = job.instance.sets();
    let sys = sets.plant().system();
    let n = sys.state_dim();
    let m = sys.input_dim();
    debug_assert!(N == 0 || N == n);
    let a = flatten(sys.a());
    let b = flatten(sys.b());
    let safe = FlatPoly::new(sets.safe(), n);
    let invariant = FlatPoly::new(sets.invariant(), n);
    let strengthened = FlatPoly::new(sets.strengthened(), n);
    let skip_input: Vec<f64> = sets.skip_input().to_vec();
    let gain: Option<Vec<f64>> = match job.instance.controller() {
        ScenarioController::Linear(k) => Some(flatten(k.gain())),
        ScenarioController::Tube(_) => None,
    };
    let guarantee: Option<FlatPoly> = match &job.prepared {
        PreparedPolicy::MaxSkip(p) => Some(FlatPoly::new(p.guarantee_set(), n)),
        _ => None,
    };
    let drl: Option<&GreedyDrlPolicy> = match &job.prepared {
        PreparedPolicy::Drl(p) => Some(p),
        _ => None,
    };
    let keep = config.memory.max(1);
    let count = end - start;

    // Episode-major flat blocks: episode `slot` owns `x[slot*n..][..n]`.
    let mut x = vec![0.0f64; count * n];
    let mut prev_x = vec![0.0f64; count * n];
    let mut u = vec![0.0f64; count * m];
    let mut prev_u = vec![0.0f64; count * m];
    let mut w = vec![0.0f64; count * n];
    let mut has_prev = vec![false; count];
    let mut status = vec![Status::Alive; count];
    let mut stats: Vec<RunStats> = vec![RunStats::default(); count];
    let mut safety_violations = vec![0usize; count];
    let mut invariant_violations = vec![0usize; count];
    let mut min_safe_slack = vec![f64::INFINITY; count];
    let mut forced_skips = vec![0usize; count];
    let mut verdict_forced = vec![false; count];
    let mut actions = vec![Action::Dead; count];
    let mut seeds = vec![0u64; count];
    let mut whist: Vec<Vec<Vec<f64>>> = Vec::with_capacity(count);
    let mut processes: Vec<Box<dyn DisturbanceProcess>> = Vec::with_capacity(count);
    let mut policies: Vec<EpPolicy> = Vec::with_capacity(count);
    let mut dropouts: Vec<Option<DropoutStream>> = Vec::with_capacity(count);
    let mut mpc_warm: Vec<MpcWarmState> = Vec::with_capacity(count);
    let mut nan_steps: Vec<Option<usize>> = Vec::with_capacity(count);
    // The lowest failing episode so far; episodes above it are
    // abandoned (their chunk is already failed), episodes below keep
    // running because an earlier failure must win deterministically.
    let mut failure: Option<(usize, String)> = None;

    // Per-episode initialization, in episode order (an injected panic
    // fires here, attributed to its episode via `marker`). Every RNG
    // stream is derived from the episode seed alone, exactly as
    // `run_episode` derives it.
    for slot in 0..count {
        let episode = start + slot;
        marker.set(episode);
        if matches!(job.fault, CellFault::Panic { episode: e } if e == episode) {
            panic!("injected fault: worker panic at episode {episode}");
        }
        let seed = episode_seed(config.seed, job.instance.name(), &job.label, episode);
        seeds[slot] = seed;
        let mut rng = StdRng::seed_from_u64(seed);
        let x0 = job.instance.sample_initial_state(&mut rng);
        x[slot * n..(slot + 1) * n].copy_from_slice(&x0);
        processes.push(
            job.scenario
                .disturbance_process(seed ^ 0x9E37_79B9_7F4A_7C15),
        );
        policies.push(match &job.prepared {
            PreparedPolicy::MaxSkip(_) => EpPolicy::MaxSkip,
            PreparedPolicy::Drl(_) => EpPolicy::Drl,
            PreparedPolicy::Spec(_) => EpPolicy::Boxed(job.prepared.for_episode(seed)),
        });
        dropouts.push((!job.dropout.is_none()).then(|| job.dropout.stream(seed)));
        mpc_warm.push(MpcWarmState::new());
        nan_steps.push(match job.fault {
            CellFault::Nan { episode: e, step } if e == episode => Some(step),
            _ => None,
        });
        whist.push(Vec::with_capacity(keep));
    }

    let mut live: Vec<usize> = (0..count).collect();
    let mut w_est = vec![0.0f64; n];
    let mut x_next = vec![0.0f64; n];
    let mut enc_batch: Vec<f64> = Vec::new();
    let mut enc_row: Vec<f64> = Vec::new();
    let mut drl_slots: Vec<usize> = Vec::new();
    let mut q_out: Vec<f64> = Vec::new();
    let mut scratch = MlpScratch::new();

    let note_failure = |failure: &mut Option<(usize, String)>,
                        status: &mut Vec<Status>,
                        slot: usize,
                        reason: String| {
        status[slot] = Status::Failed;
        let episode = start + slot;
        if failure.as_ref().is_none_or(|(e, _)| episode < *e) {
            *failure = Some((episode, reason));
        }
    };

    for t in 0..config.steps {
        if live.is_empty() {
            break;
        }
        drl_slots.clear();
        enc_batch.clear();

        // Decision phase — per episode: tallies, disturbance
        // estimation, monitor, and the skip decision (learned cells
        // stage an encoder row instead and resolve after the batched
        // forward pass below).
        for &s in &live {
            marker.set(start + s);
            let xs = &x[s * n..(s + 1) * n];
            min_safe_slack[s] = f64::min(min_safe_slack[s], safe.min_slack::<N>(xs));
            if !safe.contains::<N>(xs, 1e-6) {
                safety_violations[s] += 1;
            }
            if !invariant.contains::<N>(xs, 1e-6) {
                invariant_violations[s] += 1;
            }
            if has_prev[s] {
                // w = x − (A·x_prev + B·u_prev), the runtime's
                // `step_nominal` + `sub`, row accumulators from 0.0.
                let xp = &prev_x[s * n..(s + 1) * n];
                let up = &prev_u[s * m..(s + 1) * m];
                let nn = dim_of::<N>(n);
                for i in 0..nn {
                    let mut acc_a = 0.0;
                    for j in 0..nn {
                        acc_a += a[i * nn + j] * xp[j];
                    }
                    let mut acc_b = 0.0;
                    for j in 0..m {
                        acc_b += b[i * m + j] * up[j];
                    }
                    w_est[i] = xs[i] - (acc_a + acc_b);
                }
                let ring = &mut whist[s];
                if ring.len() < keep {
                    ring.push(w_est.clone());
                } else {
                    ring.rotate_left(1);
                    ring.last_mut()
                        .expect("non-empty history ring")
                        .copy_from_slice(&w_est);
                }
            }
            // Monitor::check — strengthened first, then invariant, both
            // at `Polytope::contains` tolerance.
            if strengthened.contains::<N>(xs, CONTAINS_TOL) {
                verdict_forced[s] = false;
                actions[s] = match &mut policies[s] {
                    EpPolicy::Boxed(policy) => {
                        let ctx = PolicyContext {
                            state: xs,
                            w_history: &whist[s],
                            w_forecast: &[],
                            time_step: t,
                        };
                        match policy.decide(&ctx) {
                            SkipDecision::Run => Action::Run { forced: false },
                            SkipDecision::Skip => Action::Skip,
                        }
                    }
                    EpPolicy::MaxSkip => {
                        let inside = guarantee
                            .as_ref()
                            .expect("max-skip cell has a guarantee set")
                            .contains::<N>(xs, CONTAINS_TOL);
                        if inside {
                            Action::Skip
                        } else {
                            Action::Run { forced: false }
                        }
                    }
                    EpPolicy::Drl => {
                        let policy = drl.expect("drl cell has a prepared policy");
                        policy.encode_into(xs, &whist[s], &mut enc_row);
                        enc_batch.extend_from_slice(&enc_row);
                        drl_slots.push(s);
                        Action::PendingDrl
                    }
                };
            } else if invariant.contains::<N>(xs, CONTAINS_TOL) {
                verdict_forced[s] = true;
                actions[s] = Action::Run { forced: true };
            } else if dropouts[s].is_some() {
                // Dropout voided Theorem 1's premise; the escape is the
                // measured result, with this state's tallies already
                // counted above.
                status[s] = Status::Escaped;
                actions[s] = Action::Dead;
            } else {
                let reason = CoreError::OutsideInvariant { state: xs.to_vec() }.to_string();
                note_failure(&mut failure, &mut status, s, reason);
                actions[s] = Action::Dead;
            }
        }

        // One forward pass for every learned decision staged this step.
        if !drl_slots.is_empty() {
            let policy = drl.expect("drl rows staged only for drl cells");
            policy
                .network()
                .forward_batch(&enc_batch, drl_slots.len(), &mut q_out, &mut scratch);
            for (k, &s) in drl_slots.iter().enumerate() {
                let q = &q_out[2 * k..2 * k + 2];
                actions[s] = if GreedyDrlPolicy::action_from_q(q) == 1 {
                    Action::Run { forced: false }
                } else {
                    Action::Skip
                };
            }
        }

        // Actuation phase — per episode: controller, stats, dropout
        // draw (every step), disturbance draw, plant update, guard.
        for &s in &live {
            let (run, forced) = match actions[s] {
                Action::Dead => continue,
                Action::Run { forced } => (true, forced),
                Action::Skip => (false, false),
                Action::PendingDrl => unreachable!("resolved by the batched forward"),
            };
            marker.set(start + s);
            debug_assert_eq!(forced, run && verdict_forced[s]);
            let us = s * m..(s + 1) * m;
            if run {
                let xs = &x[s * n..(s + 1) * n];
                match &gain {
                    Some(k) => {
                        let nn = dim_of::<N>(n);
                        for i in 0..m {
                            let mut acc = 0.0;
                            for j in 0..nn {
                                acc += k[i * nn + j] * xs[j];
                            }
                            u[s * m + i] = acc;
                        }
                    }
                    None => {
                        let mpc = match job.instance.controller() {
                            ScenarioController::Tube(mpc) => mpc,
                            ScenarioController::Linear(_) => unreachable!("gain is Some"),
                        };
                        match mpc.control_warm(xs, &mut mpc_warm[s]) {
                            Ok(input) => u[us.clone()].copy_from_slice(input),
                            Err(e) => {
                                let reason = CoreError::from(e).to_string();
                                note_failure(&mut failure, &mut status, s, reason);
                                continue;
                            }
                        }
                    }
                }
            } else {
                u[us.clone()].copy_from_slice(&skip_input);
            }
            let st = &mut stats[s];
            st.steps += 1;
            if !run {
                st.skipped += 1;
            } else if forced {
                st.forced_runs += 1;
            } else {
                st.policy_runs += 1;
            }
            let mut effort = 0.0;
            for j in 0..m {
                effort += (u[s * m + j] - skip_input[j]).abs();
            }
            st.actuation_effort += effort;
            prev_x[s * n..(s + 1) * n].copy_from_slice(&x[s * n..(s + 1) * n]);
            prev_u[us.clone()].copy_from_slice(&u[us.clone()]);
            has_prev[s] = true;
            // The dropout stream draws every step (the realized fault
            // pattern must not depend on the decision); only actuated
            // steps can be overridden, re-booked exactly like
            // `IntermittentController::notify_dropout`.
            if let Some(stream) = dropouts[s].as_mut() {
                if stream.dropped() && run {
                    let mut booked = 0.0;
                    for j in 0..m {
                        booked += (prev_u[s * m + j] - skip_input[j]).abs();
                    }
                    st.actuation_effort -= booked;
                    prev_u[us.clone()].copy_from_slice(&skip_input);
                    u[us.clone()].copy_from_slice(&skip_input);
                    forced_skips[s] += 1;
                }
            }
            processes[s].next_into(t, &mut w[s * n..(s + 1) * n]);
        }

        // Plant phase — the dense block update x⁺ = A·x + B·u + w over
        // every episode still live this step. Per row: the two
        // accumulators start at 0.0 and sum in column order, then
        // `(a + b) + w`, exactly `Lti::step`'s operation order.
        for &s in &live {
            if actions[s] == Action::Dead || status[s] != Status::Alive {
                continue;
            }
            marker.set(start + s);
            let nn = dim_of::<N>(n);
            {
                let xs = &x[s * n..(s + 1) * n];
                let us = &u[s * m..(s + 1) * m];
                let ws = &w[s * n..(s + 1) * n];
                for i in 0..nn {
                    let mut acc_a = 0.0;
                    for j in 0..nn {
                        acc_a += a[i * nn + j] * xs[j];
                    }
                    let mut acc_b = 0.0;
                    for j in 0..m {
                        acc_b += b[i * m + j] * us[j];
                    }
                    x_next[i] = (acc_a + acc_b) + ws[i];
                }
            }
            x[s * n..(s + 1) * n].copy_from_slice(&x_next);
            if nan_steps[s] == Some(t) {
                x[s * n] = f64::NAN;
            }
            let xs = &x[s * n..(s + 1) * n];
            if !xs.iter().all(|v| v.is_finite() && v.abs() < 1e12) {
                let reason = CoreError::NonFinite { step: t }.to_string();
                note_failure(&mut failure, &mut status, s, reason);
            }
        }

        // Retire escaped/failed episodes; once a failure exists, also
        // abandon every episode above it (the chunk is failed; only a
        // lower-index episode could still change the reported failure).
        let cutoff = failure.as_ref().map(|(e, _)| *e);
        live.retain(|&s| status[s] == Status::Alive && cutoff.is_none_or(|e| start + s < e));
    }

    if failure.is_some() {
        return KernelOutput {
            acc: CellAccumulator::new(),
            detail: Vec::new(),
            failure,
        };
    }

    // Every episode completed (or escaped): the final post-step state
    // tally, then records folded in episode order.
    let mut acc = CellAccumulator::new();
    let mut detail = Vec::with_capacity(if config.detail { count } else { 0 });
    for s in 0..count {
        if status[s] == Status::Alive {
            let xs = &x[s * n..(s + 1) * n];
            min_safe_slack[s] = f64::min(min_safe_slack[s], safe.min_slack::<N>(xs));
            if !safe.contains::<N>(xs, 1e-6) {
                safety_violations[s] += 1;
            }
            if !invariant.contains::<N>(xs, 1e-6) {
                invariant_violations[s] += 1;
            }
        }
        let record = EpisodeRecord {
            episode: start + s,
            seed: seeds[s],
            stats: stats[s].clone(),
            safety_violations: safety_violations[s],
            invariant_violations: invariant_violations[s],
            min_safe_slack: min_safe_slack[s],
            forced_skips: forced_skips[s],
        };
        acc.push(&record);
        if config.detail {
            detail.push(record);
        }
    }
    KernelOutput {
        acc,
        detail,
        failure: None,
    }
}
