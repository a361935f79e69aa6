//! The double deep Q-learning agent.

use oic_nn::{huber_loss, Activation, Adam, Mlp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{ReplayBuffer, Transition};

/// Hyper-parameters of [`DoubleDqnAgent`].
///
/// The defaults follow the paper's setup (double DQN over a small MLP) with
/// standard values for the knobs the paper does not report.
#[derive(Debug, Clone, PartialEq)]
pub struct DqnConfig {
    /// Input dimension of the Q-network (`x` plus disturbance history).
    pub state_dim: usize,
    /// Number of discrete actions (2 for skip / run).
    pub num_actions: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Discount factor γ.
    pub gamma: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Initial exploration rate.
    pub epsilon_start: f64,
    /// Final exploration rate.
    pub epsilon_end: f64,
    /// Multiplicative ε decay applied per [`DoubleDqnAgent::act`] call.
    pub epsilon_decay: f64,
    /// Replay buffer capacity.
    pub buffer_capacity: usize,
    /// Mini-batch size per training step.
    pub batch_size: usize,
    /// Copy online → target every this many training steps.
    pub target_sync_every: usize,
    /// Do not train until the buffer holds at least this many transitions.
    pub learn_start: usize,
    /// RNG seed (exploration, initialization, replay sampling).
    pub seed: u64,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            state_dim: 3,
            num_actions: 2,
            hidden: vec![64, 64],
            gamma: 0.95,
            learning_rate: 1e-3,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay: 0.999,
            buffer_capacity: 20_000,
            batch_size: 64,
            target_sync_every: 200,
            learn_start: 256,
            seed: 0,
        }
    }
}

/// Double deep Q-learning agent (van Hasselt et al., paper reference \[24\]).
///
/// The online network selects the bootstrap action, the target network
/// evaluates it: `y = r + γ·Q_tgt(s′, argmax_a Q_on(s′, a))`. This decouples
/// selection from evaluation and removes the max-operator overestimation of
/// vanilla DQN.
///
/// # Examples
///
/// ```
/// use oic_drl::{DoubleDqnAgent, DqnConfig, Transition};
///
/// let mut agent = DoubleDqnAgent::new(DqnConfig {
///     state_dim: 1,
///     num_actions: 2,
///     learn_start: 1,
///     batch_size: 4,
///     ..DqnConfig::default()
/// });
/// agent.remember(Transition {
///     state: vec![0.0],
///     action: 1,
///     reward: 1.0,
///     next_state: vec![0.0],
///     done: false,
/// });
/// let loss = agent.train_step();
/// assert!(loss.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct DoubleDqnAgent {
    online: Mlp,
    target: Mlp,
    optimizer: Adam,
    buffer: ReplayBuffer,
    config: DqnConfig,
    epsilon: f64,
    train_steps: usize,
    rng: StdRng,
}

impl DoubleDqnAgent {
    /// Creates an agent with freshly initialized online and target networks
    /// (target = copy of online).
    ///
    /// # Panics
    ///
    /// Panics if `state_dim`, `num_actions`, `batch_size` or
    /// `buffer_capacity` is zero.
    pub fn new(config: DqnConfig) -> Self {
        assert!(config.state_dim > 0, "state_dim must be positive");
        assert!(config.num_actions > 0, "num_actions must be positive");
        assert!(config.batch_size > 0, "batch_size must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut sizes = vec![config.state_dim];
        sizes.extend_from_slice(&config.hidden);
        sizes.push(config.num_actions);
        let online = Mlp::new(&sizes, Activation::Relu, &mut rng);
        let target = online.clone();
        let optimizer = Adam::new(config.learning_rate);
        let buffer = ReplayBuffer::new(config.buffer_capacity);
        let epsilon = config.epsilon_start;
        Self {
            online,
            target,
            optimizer,
            buffer,
            config,
            epsilon,
            train_steps: 0,
            rng,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// Current exploration rate ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of gradient steps taken so far.
    pub fn train_steps(&self) -> usize {
        self.train_steps
    }

    /// Number of transitions currently stored.
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    /// Q-values of the online network at `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from `state_dim`.
    pub fn q_values(&self, state: &[f64]) -> Vec<f64> {
        self.online.forward(state)
    }

    /// ε-greedy action selection; decays ε by `epsilon_decay` per call (down
    /// to `epsilon_end`).
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from `state_dim`.
    pub fn act(&mut self, state: &[f64]) -> usize {
        let explore = self.rng.gen_range(0.0..1.0) < self.epsilon;
        self.epsilon = (self.epsilon * self.config.epsilon_decay).max(self.config.epsilon_end);
        if explore {
            self.rng.gen_range(0..self.config.num_actions)
        } else {
            self.act_greedy(state)
        }
    }

    /// Greedy action (no exploration) — used at evaluation time.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from `state_dim`.
    pub fn act_greedy(&self, state: &[f64]) -> usize {
        argmax(&self.q_values(state))
    }

    /// Stores a transition in the replay buffer.
    pub fn remember(&mut self, transition: Transition) {
        assert_eq!(
            transition.state.len(),
            self.config.state_dim,
            "state dimension mismatch"
        );
        assert!(
            transition.action < self.config.num_actions,
            "action index out of range"
        );
        self.buffer.push(transition);
    }

    /// One mini-batch gradient step with the double-DQN target.
    ///
    /// Returns `None` (and does nothing) while the buffer holds fewer than
    /// `learn_start` transitions; otherwise returns the batch Huber loss.
    pub fn train_step(&mut self) -> Option<f64> {
        if self.buffer.len() < self.config.learn_start.max(1) {
            return None;
        }
        let batch: Vec<Transition> = self
            .buffer
            .sample(&mut self.rng, self.config.batch_size)
            .into_iter()
            .cloned()
            .collect();

        let mut grads = self.online.zero_gradients();
        let mut total_loss = 0.0;
        for t in &batch {
            // Double-DQN target.
            let target_q = if t.done {
                t.reward
            } else {
                let best = argmax(&self.online.forward(&t.next_state));
                t.reward + self.config.gamma * self.target.forward(&t.next_state)[best]
            };
            let cache = self.online.forward_cached(&t.state);
            let q = cache.output().to_vec();
            // Only the taken action's output receives a loss gradient.
            let (loss, grad_taken) = huber_loss(&[q[t.action]], &[target_q], 1.0);
            total_loss += loss;
            let mut dl = vec![0.0; q.len()];
            dl[t.action] = grad_taken[0];
            self.online.backward(&cache, &dl, &mut grads);
        }
        grads.scale(1.0 / batch.len() as f64);
        grads.clip_norm(10.0);
        self.optimizer.step(&mut self.online, &grads);

        self.train_steps += 1;
        if self
            .train_steps
            .is_multiple_of(self.config.target_sync_every)
        {
            self.target.copy_params_from(&self.online);
        }
        Some(total_loss / batch.len() as f64)
    }

    /// Serializes the online network's weights (sufficient to restore the
    /// greedy policy; training state is not persisted).
    pub fn save_weights(&self) -> Vec<u8> {
        self.online.to_bytes().to_vec()
    }

    /// Restores the online (and target) network from
    /// [`save_weights`](Self::save_weights) output.
    ///
    /// # Errors
    ///
    /// Returns the decode error message when the blob is malformed or the
    /// architecture does not match this agent's configuration.
    pub fn load_weights(&mut self, blob: &[u8]) -> Result<(), String> {
        let net = Mlp::from_bytes(blob).map_err(|e| e.to_string())?;
        if net.input_dim() != self.config.state_dim || net.output_dim() != self.config.num_actions {
            return Err(format!(
                "architecture mismatch: blob is {}->{}, agent expects {}->{}",
                net.input_dim(),
                net.output_dim(),
                self.config.state_dim,
                self.config.num_actions
            ));
        }
        self.online = net;
        self.target.copy_params_from(&self.online);
        Ok(())
    }
}

fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bandit_config() -> DqnConfig {
        DqnConfig {
            state_dim: 1,
            num_actions: 2,
            hidden: vec![16],
            gamma: 0.0, // bandit: no bootstrapping
            learning_rate: 5e-3,
            epsilon_start: 1.0,
            epsilon_end: 0.05,
            epsilon_decay: 0.99,
            buffer_capacity: 512,
            batch_size: 16,
            target_sync_every: 50,
            learn_start: 16,
            seed: 3,
        }
    }

    #[test]
    fn learns_a_two_armed_bandit() {
        // Action 1 pays 1, action 0 pays 0; γ = 0 so Q(a) → E[r|a].
        let mut agent = DoubleDqnAgent::new(bandit_config());
        for step in 0..600 {
            let a = agent.act(&[0.0]);
            let r = if a == 1 { 1.0 } else { 0.0 };
            agent.remember(Transition {
                state: vec![0.0],
                action: a,
                reward: r,
                next_state: vec![0.0],
                done: true,
            });
            let _ = agent.train_step();
            let _ = step;
        }
        let q = agent.q_values(&[0.0]);
        assert!(q[1] > q[0], "Q = {q:?}");
        assert!((q[1] - 1.0).abs() < 0.2, "Q(1) should approach 1: {q:?}");
        assert_eq!(agent.act_greedy(&[0.0]), 1);
    }

    #[test]
    fn learns_a_two_step_chain_with_bootstrapping() {
        // States 0 → 1 → terminal. Rewards: action 1 in state 0 pays 0 then
        // state 1 pays 2 for action 0. γ = 0.9 so Q₀(1) ≈ 1.8 > Q₀(0) = 0.5.
        let cfg = DqnConfig {
            gamma: 0.9,
            epsilon_decay: 0.995,
            learn_start: 32,
            seed: 5,
            ..bandit_config()
        };
        let mut agent = DoubleDqnAgent::new(cfg);
        for _ in 0..1500 {
            // state 0
            let a0 = agent.act(&[0.0]);
            if a0 == 0 {
                agent.remember(Transition {
                    state: vec![0.0],
                    action: 0,
                    reward: 0.5,
                    next_state: vec![0.0],
                    done: true,
                });
            } else {
                agent.remember(Transition {
                    state: vec![0.0],
                    action: 1,
                    reward: 0.0,
                    next_state: vec![1.0],
                    done: false,
                });
                // state 1: any action pays 2 and terminates.
                let a1 = agent.act(&[1.0]);
                agent.remember(Transition {
                    state: vec![1.0],
                    action: a1,
                    reward: 2.0,
                    next_state: vec![1.0],
                    done: true,
                });
            }
            let _ = agent.train_step();
        }
        let q0 = agent.q_values(&[0.0]);
        assert!(q0[1] > q0[0], "bootstrapped value should win: {q0:?}");
        assert!((q0[1] - 1.8).abs() < 0.4, "Q0(1) ≈ γ·2: {q0:?}");
    }

    #[test]
    fn epsilon_decays_to_floor() {
        let mut agent = DoubleDqnAgent::new(bandit_config());
        for _ in 0..5000 {
            let _ = agent.act(&[0.0]);
        }
        assert!((agent.epsilon() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn no_training_before_learn_start() {
        let mut agent = DoubleDqnAgent::new(bandit_config());
        assert!(agent.train_step().is_none());
        for _ in 0..15 {
            agent.remember(Transition {
                state: vec![0.0],
                action: 0,
                reward: 0.0,
                next_state: vec![0.0],
                done: true,
            });
        }
        assert!(agent.train_step().is_none(), "learn_start = 16 not reached");
    }

    #[test]
    fn save_load_roundtrip_preserves_policy() {
        let mut agent = DoubleDqnAgent::new(bandit_config());
        for _ in 0..100 {
            let a = agent.act(&[0.0]);
            agent.remember(Transition {
                state: vec![0.0],
                action: a,
                reward: a as f64,
                next_state: vec![0.0],
                done: true,
            });
            let _ = agent.train_step();
        }
        let blob = agent.save_weights();
        let mut fresh = DoubleDqnAgent::new(bandit_config());
        assert_ne!(fresh.q_values(&[0.0]), agent.q_values(&[0.0]));
        fresh.load_weights(&blob).unwrap();
        assert_eq!(fresh.q_values(&[0.0]), agent.q_values(&[0.0]));
        assert_eq!(fresh.act_greedy(&[0.0]), agent.act_greedy(&[0.0]));
    }

    #[test]
    fn load_rejects_architecture_mismatch() {
        let agent = DoubleDqnAgent::new(bandit_config());
        let blob = agent.save_weights();
        let mut other = DoubleDqnAgent::new(DqnConfig {
            state_dim: 3, // differs from the bandit's 1
            ..bandit_config()
        });
        let err = other.load_weights(&blob).unwrap_err();
        assert!(err.contains("architecture mismatch"), "{err}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut agent = DoubleDqnAgent::new(bandit_config());
            for _ in 0..100 {
                let a = agent.act(&[0.0]);
                agent.remember(Transition {
                    state: vec![0.0],
                    action: a,
                    reward: a as f64,
                    next_state: vec![0.0],
                    done: true,
                });
                let _ = agent.train_step();
            }
            agent.q_values(&[0.0])
        };
        assert_eq!(run(), run());
    }
}
