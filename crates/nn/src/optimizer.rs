//! The Adam optimizer.

use crate::{Gradients, Mlp};

/// First-moment decay rate `β₁`.
const BETA1: f64 = 0.9;
/// Second-moment decay rate `β₂`.
const BETA2: f64 = 0.999;
/// Denominator guard `ε`.
const EPSILON: f64 = 1e-8;

/// Adam (adaptive moment estimation) with bias correction.
///
/// One instance per network: the first/second-moment buffers are lazily
/// sized to the network on the first [`step`](Self::step).
///
/// # Examples
///
/// ```
/// use oic_nn::{Activation, Adam, Mlp};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut net = Mlp::new(&[1, 4, 1], Activation::Relu, &mut rng);
/// let mut opt = Adam::new(1e-3);
/// let cache = net.forward_cached(&[1.0]);
/// let (_, dl) = oic_nn::mse_loss(cache.output(), &[0.0]);
/// let mut grads = net.zero_gradients();
/// net.backward(&cache, &dl, &mut grads);
/// opt.step(&mut net, &grads); // one parameter update
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Creates Adam with the given learning rate and the standard
    /// `β₁ = 0.9, β₂ = 0.999, ε = 1e-8`.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate ≤ 0`.
    pub fn new(learning_rate: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Self {
            learning_rate,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }

    /// Applies one Adam update of `net`'s parameters along `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the network's architecture, or if
    /// this optimizer instance was previously used with a differently-sized
    /// network.
    pub fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        let n = net.num_params();
        assert_eq!(grads.num_params(), n, "gradient/parameter count mismatch");
        if self.m.is_empty() {
            self.m = vec![0.0; n];
            self.v = vec![0.0; n];
        }
        assert_eq!(
            self.m.len(),
            n,
            "optimizer was initialized for a different network"
        );
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        let lr = self.learning_rate;
        let (m, v) = (&mut self.m, &mut self.v);
        net.update_params(grads, |p, g, i| {
            m[i] = BETA1 * m[i] + (1.0 - BETA1) * g;
            v[i] = BETA2 * v[i] + (1.0 - BETA2) * g * g;
            let m_hat = m[i] / b1t;
            let v_hat = v[i] / b2t;
            p - lr * m_hat / (v_hat.sqrt() + EPSILON)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn adam_reduces_loss_on_regression() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut net = Mlp::new(&[2, 16, 1], Activation::Relu, &mut rng);
        let mut opt = Adam::new(5e-3);
        let data: Vec<([f64; 2], f64)> = vec![
            ([0.0, 0.0], 0.0),
            ([1.0, 0.0], 1.0),
            ([0.0, 1.0], -1.0),
            ([1.0, 1.0], 0.0),
            ([0.5, 0.5], 0.0),
        ];
        let loss_of = |net: &Mlp| -> f64 {
            data.iter()
                .map(|(x, y)| crate::mse_loss(&net.forward(x), &[*y]).0)
                .sum::<f64>()
        };
        let initial = loss_of(&net);
        for _ in 0..400 {
            let mut grads = net.zero_gradients();
            for (x, y) in &data {
                let cache = net.forward_cached(x);
                let (_, dl) = crate::mse_loss(cache.output(), &[*y]);
                net.backward(&cache, &dl, &mut grads);
            }
            grads.scale(1.0 / data.len() as f64);
            opt.step(&mut net, &grads);
        }
        let final_loss = loss_of(&net);
        assert!(
            final_loss < initial * 0.05,
            "loss {initial} -> {final_loss}"
        );
    }

    #[test]
    fn first_step_moves_params_by_about_lr() {
        // With bias correction, the first Adam step ≈ lr·sign(g).
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Mlp::new(&[1, 1], Activation::Linear, &mut rng);
        let before = net.forward(&[0.0])[0]; // bias only
        let mut opt = Adam::new(0.1);
        let cache = net.forward_cached(&[0.0]);
        let (_, dl) = crate::mse_loss(cache.output(), &[before + 10.0]);
        let mut grads = net.zero_gradients();
        net.backward(&cache, &dl, &mut grads);
        opt.step(&mut net, &grads);
        let after = net.forward(&[0.0])[0];
        assert!(
            (after - before - 0.1).abs() < 1e-6,
            "moved {}",
            after - before
        );
    }

    #[test]
    #[should_panic(expected = "different network")]
    fn reusing_optimizer_across_networks_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut small = Mlp::new(&[1, 2, 1], Activation::Relu, &mut rng);
        let mut big = Mlp::new(&[1, 8, 1], Activation::Relu, &mut rng);
        let mut opt = Adam::new(1e-3);
        let g = small.zero_gradients();
        opt.step(&mut small, &g);
        let g2 = big.zero_gradients();
        opt.step(&mut big, &g2);
    }
}
