//! The DRL skipping policy (paper §III-B-2) and its training environment.
//!
//! State: `s(t) = [x(t), w(t−r+1), …, w(t)]` (normalized). Actions:
//! `{0 = skip, 1 = run}`. Reward: `R = −w₁R₁ − w₂R₂` with `R₁ = 1` iff the
//! successor leaves the strengthened safe set and `R₂` the energy of the
//! applied input unless the step was a skip taken inside `X′`.

use std::sync::Arc;

use oic_control::Controller;
use oic_drl::{Environment, StepOutcome};
use oic_geom::Polytope;
use oic_linalg::vec_ops;
use oic_nn::Mlp;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{CoreError, PolicyContext, SafeSets, SkipDecision, SkipPolicy};

/// A custom `R₂` energy measure `f(x, u)`.
pub type EnergyMetric = Box<dyn Fn(&[f64], &[f64]) -> f64>;

/// Reward weights (paper §IV uses `w₁ = 0.01, w₂ = 0.0001`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkipRewardWeights {
    /// Penalty weight `w₁` for leaving the strengthened safe set.
    pub leave_strengthened: f64,
    /// Penalty weight `w₂` on the actuation energy.
    pub energy: f64,
}

impl Default for SkipRewardWeights {
    fn default() -> Self {
        Self {
            leave_strengthened: 0.01,
            energy: 0.0001,
        }
    }
}

/// A disturbance sequence generator: one instance drives one episode.
pub trait DisturbanceProcess {
    /// The disturbance `w(t)` applied at step `t`.
    fn next(&mut self, t: usize) -> Vec<f64>;

    /// Writes the disturbance `w(t)` into `out` instead of allocating a
    /// fresh vector — the batch engine's lockstep episode kernel calls
    /// this once per live episode per step, so implementations should
    /// override the defaulted body with an allocation-free one. Any
    /// override must consume its RNG in **exactly** the order `next`
    /// does: the engine's byte-identical-report contract hashes on the
    /// draw sequence, not the call shape.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the disturbance dimension.
    fn next_into(&mut self, t: usize, out: &mut [f64]) {
        let w = self.next(t);
        out.copy_from_slice(&w);
    }
}

/// Normalizes `[x, w-history]` into the Q-network input vector.
///
/// Scales are half-widths of the safe-set and disturbance-set bounding
/// boxes (degenerate dimensions get scale 1 to avoid division by zero).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StateEncoder {
    x_scale: Vec<f64>,
    w_scale: Vec<f64>,
    memory: usize,
}

impl StateEncoder {
    /// The normalization scale for one bounding-box axis `[l, h]`.
    ///
    /// Degenerate axes must not poison the encoding: a zero-width axis
    /// (rank-deficient `W`, as in two-mass-spring) would make every
    /// division inf/NaN, and an unbounded axis (±inf box edge) would
    /// encode every draw as ±0 or NaN. Both fall back to scale 1.
    pub(crate) fn axis_scale(l: f64, h: f64) -> f64 {
        let w = 0.5 * (h - l);
        if w.is_finite() && w > 1e-9 {
            w
        } else {
            1.0
        }
    }

    pub(crate) fn from_sets(sets: &SafeSets, memory: usize) -> Self {
        let half_width = |p: &Polytope| -> Vec<f64> {
            match p.bounding_box() {
                Ok((lo, hi)) => lo
                    .iter()
                    .zip(&hi)
                    .map(|(l, h)| Self::axis_scale(*l, *h))
                    .collect(),
                Err(_) => vec![1.0; p.dim()],
            }
        };
        Self {
            x_scale: half_width(sets.safe()),
            w_scale: half_width(sets.plant().disturbance_set()),
            memory,
        }
    }

    pub(crate) fn state_dim(&self) -> usize {
        self.x_scale.len() + self.memory * self.w_scale.len()
    }

    /// Encodes the state; missing history entries are zero (the paper sets
    /// `w(−r+1), …, w(−1)` to 0).
    pub(crate) fn encode(&self, x: &[f64], w_history: &[Vec<f64>]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.state_dim());
        self.encode_into(x, w_history, &mut out);
        out
    }

    /// [`encode`](Self::encode) into a caller-owned buffer (cleared first)
    /// so the batch engine's inference hot loop allocates nothing per step.
    pub(crate) fn encode_into(&self, x: &[f64], w_history: &[Vec<f64>], out: &mut Vec<f64>) {
        let n = self.x_scale.len();
        assert_eq!(x.len(), n, "state dimension mismatch");
        out.clear();
        out.reserve(self.state_dim());
        for (v, s) in x.iter().zip(&self.x_scale) {
            out.push(v / s);
        }
        // Use the last `memory` entries, oldest first, left-padded with 0.
        let have = w_history.len().min(self.memory);
        for _ in 0..(self.memory - have) {
            out.extend(std::iter::repeat_n(0.0, self.w_scale.len()));
        }
        for w in &w_history[w_history.len() - have..] {
            assert_eq!(
                w.len(),
                self.w_scale.len(),
                "disturbance dimension mismatch"
            );
            for (v, s) in w.iter().zip(&self.w_scale) {
                out.push(v / s);
            }
        }
    }
}

/// The training environment for the DRL skipping policy: wraps the plant,
/// the underlying controller `κ`, the safe sets, and a per-episode
/// disturbance process.
///
/// Implements [`oic_drl::Environment`], so [`oic_drl::train`] runs on it
/// directly. Outside `X′` the environment forces `z = 1` exactly like the
/// runtime monitor does — the agent's reward then reflects the forced run.
pub struct SkipTrainingEnv {
    sets: SafeSets,
    controller: Box<dyn Controller>,
    encoder: StateEncoder,
    weights: SkipRewardWeights,
    disturbance_factory: Box<dyn FnMut(u64) -> Box<dyn DisturbanceProcess>>,
    process: Option<Box<dyn DisturbanceProcess>>,
    energy_metric: Option<EnergyMetric>,
    x: Vec<f64>,
    w_history: Vec<Vec<f64>>,
    t: usize,
    episode: u64,
    rng: StdRng,
}

impl SkipTrainingEnv {
    /// Creates the environment.
    ///
    /// `disturbance_factory` receives an episode index and returns the
    /// disturbance process for that episode (vary the seed for diversity).
    /// `memory` is the paper's `r`.
    ///
    /// # Panics
    ///
    /// Panics if the controller dimensions disagree with the plant's.
    pub fn new(
        sets: SafeSets,
        controller: Box<dyn Controller>,
        memory: usize,
        weights: SkipRewardWeights,
        disturbance_factory: Box<dyn FnMut(u64) -> Box<dyn DisturbanceProcess>>,
        seed: u64,
    ) -> Self {
        let n = sets.plant().system().state_dim();
        assert_eq!(
            controller.state_dim(),
            n,
            "controller state dimension mismatch"
        );
        assert_eq!(
            controller.input_dim(),
            sets.plant().system().input_dim(),
            "controller input dimension mismatch"
        );
        let encoder = StateEncoder::from_sets(&sets, memory);
        Self {
            sets,
            controller,
            encoder,
            weights,
            disturbance_factory,
            process: None,
            energy_metric: None,
            x: vec![0.0; n],
            w_history: Vec::new(),
            t: 0,
            episode: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Replaces the default `R₂` energy measure (`‖u − u_skip‖₁`, the paper's
    /// `‖κ(x)‖₁` in skip-relative form) with a custom metric `f(x, u)`.
    ///
    /// The ACC case study uses this to meter the same tractive-power fuel
    /// model the evaluation reports, so the learned policy optimizes the
    /// quantity the figures measure: `‖κ(x)‖₁` cannot tell free braking
    /// from expensive acceleration under that fuel model.
    pub fn set_energy_metric(&mut self, metric: EnergyMetric) {
        self.energy_metric = Some(metric);
    }

    /// Samples a state uniformly from the strengthened safe set (shared
    /// [`SafeSets::sample_strengthened`] rejection sampler).
    fn sample_strengthened(&mut self) -> Vec<f64> {
        self.sets.sample_strengthened(&mut self.rng)
    }

    /// The actuation-energy measure used in `R₂`: by default the distance
    /// of the applied input from the skip (free-coasting) input, matching
    /// the Eq. (6) objective; overridable via
    /// [`set_energy_metric`](Self::set_energy_metric).
    fn energy(&self, x: &[f64], u: &[f64]) -> f64 {
        match &self.energy_metric {
            Some(f) => f(x, u),
            None => vec_ops::norm1(&vec_ops::sub(u, self.sets.skip_input())),
        }
    }
}

impl Environment for SkipTrainingEnv {
    fn state_dim(&self) -> usize {
        self.encoder.state_dim()
    }

    fn num_actions(&self) -> usize {
        2
    }

    fn reset(&mut self) -> Vec<f64> {
        self.episode += 1;
        self.process = Some((self.disturbance_factory)(self.episode));
        self.x = self.sample_strengthened();
        self.w_history.clear();
        self.t = 0;
        self.encoder.encode(&self.x, &self.w_history)
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        let in_strengthened = self.sets.strengthened().contains(&self.x);
        // The monitor's rule: outside X', the controller must run.
        let z_run = action == 1 || !in_strengthened;
        let u = if z_run {
            self.controller
                .control(&self.x)
                .unwrap_or_else(|_| self.sets.skip_input().to_vec())
        } else {
            self.sets.skip_input().to_vec()
        };
        let w = self
            .process
            .as_mut()
            .expect("reset() must be called before step()")
            .next(self.t);
        let x_next = self.sets.plant().system().step(&self.x, &u, &w);

        // Reward per the paper's definition.
        let r1 = if self.sets.strengthened().contains(&x_next) {
            0.0
        } else {
            1.0
        };
        let r2 = if !z_run && in_strengthened {
            0.0
        } else {
            self.energy(&self.x, &u)
        };
        let reward = -self.weights.leave_strengthened * r1 - self.weights.energy * r2;

        // Leaving XI terminates the episode (cannot happen when the sets
        // are certified; kept as a guard for uncertified configurations).
        let done = !self.sets.invariant().contains_with_tol(&x_next, 1e-6);

        self.w_history.push(w);
        let keep = self.encoder.memory.max(1);
        if self.w_history.len() > keep {
            let drop = self.w_history.len() - keep;
            self.w_history.drain(..drop);
        }
        self.x = x_next;
        self.t += 1;
        StepOutcome {
            next_state: self.encoder.encode(&self.x, &self.w_history),
            reward,
            done,
        }
    }
}

/// A trained Q-network as the runtime skipping policy `Ω`, inference
/// only.
///
/// It carries no agent (no replay buffer, no optimizer, no exploration
/// RNG) — just the network behind an [`Arc`] plus the scenario's
/// `StateEncoder`. That makes it the right shape
/// for the batch engine: the weight blob is decoded **once per policy**,
/// the `Arc` is shared across all worker deques, and per-episode
/// instantiation is a cheap clone. Action selection is greedy argmax with
/// a fixed lowest-index tie-break (ties pick *skip*), so a given network
/// always produces the same decision sequence — byte-identical reports
/// for any thread count.
#[derive(Debug, Clone)]
pub struct GreedyDrlPolicy {
    net: Arc<Mlp>,
    encoder: StateEncoder,
    memory: usize,
}

impl GreedyDrlPolicy {
    /// Decodes an `oic-nn` weight blob ([`Mlp::to_bytes`] layout) into a
    /// shareable network.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Policy`] when the blob is malformed.
    pub fn decode(blob: &[u8]) -> Result<Arc<Mlp>, CoreError> {
        Mlp::from_bytes(blob)
            .map(Arc::new)
            .map_err(|e| CoreError::Policy {
                reason: format!("weight blob decode failed: {e}"),
            })
    }

    /// The disturbance-history length `r` a network was trained with on
    /// the given sets, inferred from its input layer: the encoder feeds
    /// `n + r·n_w` inputs, so `r = (input_dim − n) / n_w`. Returns `None`
    /// when no `r ≥ 1` fits (wrong plant dimension) or the output layer
    /// is not the two skip/run Q-values — the network does not apply to
    /// this scenario.
    pub fn infer_memory(net: &Mlp, sets: &SafeSets) -> Option<usize> {
        let n = sets.plant().system().state_dim();
        let n_w = sets.plant().disturbance_set().dim();
        if net.output_dim() != 2 || net.input_dim() <= n || n_w == 0 {
            return None;
        }
        let extra = net.input_dim() - n;
        extra.is_multiple_of(n_w).then(|| extra / n_w)
    }

    /// Binds a decoded network to one scenario's sets, inferring the
    /// memory length from the architecture (see
    /// [`infer_memory`](Self::infer_memory)).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Policy`] when the network does not fit the
    /// scenario's state/disturbance dimensions.
    pub fn from_network(net: Arc<Mlp>, sets: &SafeSets) -> Result<Self, CoreError> {
        let memory = Self::infer_memory(&net, sets).ok_or_else(|| CoreError::Policy {
            reason: format!(
                "network {}→{} does not fit a plant with {} states and {}-dim disturbances",
                net.input_dim(),
                net.output_dim(),
                sets.plant().system().state_dim(),
                sets.plant().disturbance_set().dim()
            ),
        })?;
        let encoder = StateEncoder::from_sets(sets, memory);
        debug_assert_eq!(encoder.state_dim(), net.input_dim());
        Ok(Self {
            net,
            encoder,
            memory,
        })
    }

    /// Convenience: [`decode`](Self::decode) + [`from_network`](Self::from_network).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Policy`] on malformed blobs or dimension
    /// mismatches.
    pub fn from_bytes(blob: &[u8], sets: &SafeSets) -> Result<Self, CoreError> {
        Self::from_network(Self::decode(blob)?, sets)
    }

    /// The inferred disturbance-history length `r`.
    pub fn memory(&self) -> usize {
        self.memory
    }

    /// The shared Q-network.
    pub fn network(&self) -> &Arc<Mlp> {
        &self.net
    }

    /// Encodes `[x, w-history]` into a caller-owned buffer using this
    /// policy's scenario-bound `StateEncoder` — the batch engine stages
    /// one encoded row per live episode here, then runs a single
    /// [`Mlp::forward_batch`] over the block.
    pub fn encode_into(&self, state: &[f64], w_history: &[Vec<f64>], out: &mut Vec<f64>) {
        self.encoder.encode_into(state, w_history, out);
    }

    /// The greedy action for a Q-row: strict `>` keeps the lowest index
    /// on ties (ties pick *skip*), matching `DoubleDqnAgent::act_greedy`.
    /// Shared by the scalar path and the lockstep kernel so both decode
    /// batched Q-values identically.
    pub fn action_from_q(q: &[f64]) -> usize {
        if q[1] > q[0] {
            1
        } else {
            0
        }
    }

    /// The greedy action (0 = skip, 1 = run) at a raw state + history —
    /// exposed for golden-fixture inspection in tests.
    pub fn greedy_action(&self, state: &[f64], w_history: &[Vec<f64>]) -> usize {
        let timer = oic_obs::Stopwatch::start();
        let q = self.net.forward(&self.encoder.encode(state, w_history));
        timer.stop_into(oic_obs::histogram!("drl.infer_ns", "ns"));
        Self::action_from_q(&q)
    }
}

impl SkipPolicy for GreedyDrlPolicy {
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> SkipDecision {
        match self.greedy_action(ctx.state, ctx.w_history) {
            0 => SkipDecision::Skip,
            _ => SkipDecision::Run,
        }
    }

    fn name(&self) -> &'static str {
        "drl-greedy"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::AccCaseStudy;
    use oic_drl::{DoubleDqnAgent, DqnConfig};
    use rand::Rng;

    struct ZeroDisturbance(usize);
    impl DisturbanceProcess for ZeroDisturbance {
        fn next(&mut self, _t: usize) -> Vec<f64> {
            vec![0.0; self.0]
        }
    }

    fn env(case: &AccCaseStudy) -> SkipTrainingEnv {
        SkipTrainingEnv::new(
            case.sets().clone(),
            Box::new(case.mpc().clone()),
            1,
            SkipRewardWeights::default(),
            Box::new(|_| Box::new(ZeroDisturbance(2))),
            7,
        )
    }

    #[test]
    fn axis_scale_clamps_degenerate_and_nonfinite_widths() {
        // Regular axis: half-width.
        assert_eq!(StateEncoder::axis_scale(-2.0, 4.0), 3.0);
        // Zero width (rank-deficient W axis) → 1.0, not 0 (would divide
        // every encoding into inf/NaN).
        assert_eq!(StateEncoder::axis_scale(0.5, 0.5), 1.0);
        // Inverted / empty axis → 1.0.
        assert_eq!(StateEncoder::axis_scale(1.0, -1.0), 1.0);
        // Unbounded axes previously slipped past the `w > 1e-9` clamp as
        // +inf half-widths, encoding every draw to ±0; NaN-width from
        // inf − inf was silently clamped only by luck of NaN ordering.
        assert_eq!(StateEncoder::axis_scale(f64::NEG_INFINITY, 1.0), 1.0);
        assert_eq!(StateEncoder::axis_scale(-1.0, f64::INFINITY), 1.0);
        assert_eq!(
            StateEncoder::axis_scale(f64::NEG_INFINITY, f64::INFINITY),
            1.0
        );
        assert_eq!(StateEncoder::axis_scale(f64::NAN, 1.0), 1.0);
    }

    #[test]
    fn encoder_with_degenerate_scales_stays_finite() {
        // An encoder whose scales came from a degenerate bounding box must
        // produce finite encodings for finite inputs.
        let enc = StateEncoder {
            x_scale: vec![
                StateEncoder::axis_scale(0.0, 0.0),
                StateEncoder::axis_scale(f64::NEG_INFINITY, f64::INFINITY),
            ],
            w_scale: vec![StateEncoder::axis_scale(3.0, 3.0)],
            memory: 2,
        };
        let s = enc.encode(&[4.0, -2.5], &[vec![0.25]]);
        assert_eq!(s, vec![4.0, -2.5, 0.0, 0.25]);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffer() {
        let case = AccCaseStudy::build_default().unwrap();
        let enc = StateEncoder::from_sets(case.sets(), 2);
        let mut buf = vec![f64::NAN; 32]; // stale garbage must be cleared
        let history = vec![vec![0.1, -0.2], vec![0.3, 0.4]];
        enc.encode_into(&[30.0, 15.0], &history, &mut buf);
        assert_eq!(buf, enc.encode(&[30.0, 15.0], &history));
    }

    #[test]
    fn encoder_dimensions_and_padding() {
        let case = AccCaseStudy::build_default().unwrap();
        let enc = StateEncoder::from_sets(case.sets(), 2);
        assert_eq!(enc.state_dim(), 2 + 2 * 2);
        let s = enc.encode(&[30.0, 15.0], &[]);
        assert_eq!(s.len(), 6);
        assert!((s[0] - 1.0).abs() < 1e-9, "x normalized to bound");
        assert_eq!(&s[2..], &[0.0; 4], "missing history zero-padded");
    }

    #[test]
    fn reset_starts_inside_strengthened() {
        let case = AccCaseStudy::build_default().unwrap();
        let mut e = env(&case);
        for _ in 0..5 {
            let _ = e.reset();
            assert!(case.sets().strengthened().contains(&e.x));
        }
    }

    #[test]
    fn skip_inside_strengthened_costs_nothing() {
        let case = AccCaseStudy::build_default().unwrap();
        let mut e = env(&case);
        let _ = e.reset();
        // Move to the origin for a clean check.
        e.x = vec![0.0, 0.0];
        let out = e.step(0); // skip
                             // From the origin a coast step stays in X': r1 = 0, r2 = 0.
        assert_eq!(out.reward, 0.0, "skip at origin should be free");
        assert!(!out.done);
    }

    #[test]
    fn run_action_pays_energy() {
        let case = AccCaseStudy::build_default().unwrap();
        let mut e = env(&case);
        let _ = e.reset();
        e.x = vec![10.0, 5.0];
        let out = e.step(1); // run the MPC
        assert!(
            out.reward < 0.0,
            "running κ must cost energy: {}",
            out.reward
        );
    }

    #[test]
    fn greedy_policy_matches_agent_through_serialization() {
        // Train the agent a little so the weights are not the init values,
        // serialize, and check the inference-only policy reproduces the
        // agent's greedy decisions exactly on random states and histories.
        let case = AccCaseStudy::build_default().unwrap();
        let enc = StateEncoder::from_sets(case.sets(), 1);
        let mut agent = DoubleDqnAgent::new(DqnConfig {
            state_dim: enc.state_dim(),
            num_actions: 2,
            hidden: vec![8],
            learn_start: 4,
            batch_size: 4,
            seed: 11,
            ..DqnConfig::default()
        });
        for i in 0..40 {
            agent.remember(oic_drl::Transition {
                state: vec![0.1 * (i % 7) as f64; enc.state_dim()],
                action: i % 2,
                reward: (i % 2) as f64,
                next_state: vec![0.0; enc.state_dim()],
                done: true,
            });
            let _ = agent.train_step();
        }
        let blob = agent.save_weights();
        let mut greedy = GreedyDrlPolicy::from_bytes(&blob, case.sets()).unwrap();
        assert_eq!(greedy.memory(), 1, "inferred from the input layer");
        let (x_lo, x_hi) = case.sets().safe().bounding_box().unwrap();
        let (w_lo, w_hi) = case
            .sets()
            .plant()
            .disturbance_set()
            .bounding_box()
            .unwrap();
        let draw = |rng: &mut StdRng, lo: &[f64], hi: &[f64]| -> Vec<f64> {
            lo.iter()
                .zip(hi)
                .map(|(l, h)| rng.gen_range(*l..=*h))
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(64);
        for i in 0..64 {
            let x = draw(&mut rng, &x_lo, &x_hi);
            // 0, 1 or 2 past disturbances: padding, exact and truncation.
            let history: Vec<Vec<f64>> = (0..i % 3).map(|_| draw(&mut rng, &w_lo, &w_hi)).collect();
            let encoded = enc.encode(&x, &history);
            assert_eq!(greedy.network().forward(&encoded), agent.q_values(&encoded));
            let expected = agent.act_greedy(&encoded);
            assert_eq!(greedy.greedy_action(&x, &history), expected, "state {i}");
            let ctx = PolicyContext {
                state: &x,
                w_history: &history,
                w_forecast: &[],
                time_step: i,
            };
            let want = if expected == 0 {
                SkipDecision::Skip
            } else {
                SkipDecision::Run
            };
            assert_eq!(greedy.decide(&ctx), want);
        }
    }

    #[test]
    fn greedy_policy_rejects_mismatched_architectures() {
        let case = AccCaseStudy::build_default().unwrap();
        // 5 inputs: 2 states + r·2 disturbances has no integer r ≥ 1.
        let agent = DoubleDqnAgent::new(DqnConfig {
            state_dim: 5,
            num_actions: 2,
            hidden: vec![4],
            seed: 0,
            ..DqnConfig::default()
        });
        let err = GreedyDrlPolicy::from_bytes(&agent.save_weights(), case.sets()).unwrap_err();
        assert!(matches!(err, CoreError::Policy { .. }), "{err}");
        // Truncated blob fails at decode.
        let blob = agent.save_weights();
        let err = GreedyDrlPolicy::from_bytes(&blob[..blob.len() - 3], case.sets()).unwrap_err();
        assert!(matches!(err, CoreError::Policy { .. }), "{err}");
    }
}
