//! Front-vehicle driver models.
//!
//! Each experiment in the paper's §IV is characterized by how the front
//! vehicle's velocity `v_f(t)` evolves; these models reproduce each setting:
//!
//! | Paper setting | Model |
//! |---|---|
//! | Eq. (8) sinusoid with disturbance (Fig. 4, Ex.8–10) | [`SinusoidalFront`] |
//! | Bounded random acceleration (Table I / Fig. 5, Ex.7) | [`SmoothRandomFront`] |
//! | Completely random `v_f` (Ex.6) | [`UniformRandomFront`] |
//! | Traffic-jam stop-and-go (§I motivation) | [`StopAndGoFront`] |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::AccParams;

/// A front-vehicle velocity process.
///
/// Implementations are stateful (they may carry an RNG and memory of the
/// previous velocity); one instance simulates one episode.
pub trait FrontModel {
    /// Velocity `v_f` at time step `t` (steps are `δ`-spaced).
    fn velocity(&mut self, t: usize) -> f64;

    /// The admissible velocity range this model respects.
    fn range(&self) -> (f64, f64);
}

/// The paper's Eq. (8): `v_f(t) = v_e + a_f·sin(π/2·δ·t) + w` with
/// `w ~ U[−noise, noise]`, clamped to the admissible range.
#[derive(Debug, Clone)]
pub struct SinusoidalFront {
    dt: f64,
    range: (f64, f64),
    ve: f64,
    af: f64,
    noise: f64,
    rng: StdRng,
}

impl SinusoidalFront {
    /// Creates the model with nominal velocity `ve`, amplitude `af`, and
    /// disturbance half-range `noise` (paper Fig. 4 uses
    /// `ve = 40, af = 9, noise = 1`).
    ///
    /// # Panics
    ///
    /// Panics if `noise < 0`.
    pub fn new(params: &AccParams, ve: f64, af: f64, noise: f64, seed: u64) -> Self {
        assert!(noise >= 0.0, "noise half-range must be non-negative");
        Self {
            dt: params.dt,
            range: params.vf_range,
            ve,
            af,
            noise,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl FrontModel for SinusoidalFront {
    fn velocity(&mut self, t: usize) -> f64 {
        let phase = std::f64::consts::FRAC_PI_2 * self.dt * t as f64;
        let w = if self.noise > 0.0 {
            self.rng.gen_range(-self.noise..=self.noise)
        } else {
            0.0
        };
        (self.ve + self.af * phase.sin() + w).clamp(self.range.0, self.range.1)
    }

    fn range(&self) -> (f64, f64) {
        self.range
    }
}

/// Random driving with bounded acceleration: at each step
/// `v_f ← clamp(v_f + a·δ)` with `a ~ U[accel_range]` (paper Ex.1–5, Ex.7:
/// `a ∈ [−20, 20]`).
#[derive(Debug, Clone)]
pub struct SmoothRandomFront {
    dt: f64,
    range: (f64, f64),
    accel_range: (f64, f64),
    current: f64,
    rng: StdRng,
}

impl SmoothRandomFront {
    /// Creates the model over the velocity range `range` (which may be a
    /// sub-range of the plant's admissible `v_f` range — Table I) with the
    /// given acceleration bounds.
    ///
    /// # Panics
    ///
    /// Panics if the ranges are inverted.
    pub fn new(range: (f64, f64), accel_range: (f64, f64), dt: f64, seed: u64) -> Self {
        assert!(range.0 <= range.1, "velocity range inverted");
        assert!(
            accel_range.0 <= accel_range.1,
            "acceleration range inverted"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let current = rng.gen_range(range.0..=range.1);
        Self {
            dt,
            range,
            accel_range,
            current,
            rng,
        }
    }
}

impl FrontModel for SmoothRandomFront {
    fn velocity(&mut self, _t: usize) -> f64 {
        let a = self.rng.gen_range(self.accel_range.0..=self.accel_range.1);
        self.current = (self.current + a * self.dt).clamp(self.range.0, self.range.1);
        self.current
    }

    fn range(&self) -> (f64, f64) {
        self.range
    }
}

/// Completely random velocity: `v_f(t) ~ U[range]` i.i.d. per step — the
/// paper's Ex.6, where "a drastic change is allowed instantly".
#[derive(Debug, Clone)]
pub struct UniformRandomFront {
    range: (f64, f64),
    rng: StdRng,
}

impl UniformRandomFront {
    /// Creates the model over the given velocity range.
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted.
    pub fn new(range: (f64, f64), seed: u64) -> Self {
        assert!(range.0 <= range.1, "velocity range inverted");
        Self {
            range,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl FrontModel for UniformRandomFront {
    fn velocity(&mut self, _t: usize) -> f64 {
        self.rng.gen_range(self.range.0..=self.range.1)
    }

    fn range(&self) -> (f64, f64) {
        self.range
    }
}

/// Traffic-jam stop-and-go: the front vehicle alternates between a slow and
/// a fast target velocity with bounded acceleration and randomized dwell
/// times — the "stop-and-go in a traffic jam" pattern from the paper's
/// introduction.
#[derive(Debug, Clone)]
pub struct StopAndGoFront {
    dt: f64,
    range: (f64, f64),
    accel: f64,
    current: f64,
    target: f64,
    dwell_left: usize,
    dwell_range: (usize, usize),
    rng: StdRng,
}

impl StopAndGoFront {
    /// Creates the model: velocity tracks alternating low/high targets at
    /// `accel` m/s², holding each target for a random dwell of
    /// `dwell_range` steps.
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted, `accel ≤ 0`, or the dwell range is
    /// inverted.
    pub fn new(
        range: (f64, f64),
        accel: f64,
        dwell_range: (usize, usize),
        dt: f64,
        seed: u64,
    ) -> Self {
        assert!(range.0 <= range.1, "velocity range inverted");
        assert!(accel > 0.0, "acceleration must be positive");
        assert!(dwell_range.0 <= dwell_range.1, "dwell range inverted");
        let mut rng = StdRng::seed_from_u64(seed);
        let current = range.1;
        let dwell_left = rng.gen_range(dwell_range.0..=dwell_range.1);
        Self {
            dt,
            range,
            accel,
            current,
            target: range.0,
            dwell_left,
            dwell_range,
            rng,
        }
    }
}

impl FrontModel for StopAndGoFront {
    fn velocity(&mut self, _t: usize) -> f64 {
        if (self.current - self.target).abs() < 1e-9 {
            if self.dwell_left == 0 {
                self.target = if self.target == self.range.0 {
                    self.range.1
                } else {
                    self.range.0
                };
                self.dwell_left = self.rng.gen_range(self.dwell_range.0..=self.dwell_range.1);
            } else {
                self.dwell_left -= 1;
            }
        }
        let step = self.accel * self.dt;
        if self.current < self.target {
            self.current = (self.current + step).min(self.target);
        } else if self.current > self.target {
            self.current = (self.current - step).max(self.target);
        }
        self.current
    }

    fn range(&self) -> (f64, f64) {
        self.range
    }
}

/// Replays a pre-materialized velocity trace (repeating the last value when
/// stepped past the end).
///
/// The experiment harness materializes each episode's `v_f` trace once so
/// the *same* front-vehicle behaviour can be replayed against every
/// controller under comparison, and so oracle policies can be handed the
/// future disturbance.
#[derive(Debug, Clone)]
pub struct FixedTraceFront {
    trace: Vec<f64>,
    range: (f64, f64),
}

impl FixedTraceFront {
    /// Creates the replay model.
    ///
    /// # Panics
    ///
    /// Panics if `trace` is empty.
    pub fn new(trace: Vec<f64>, range: (f64, f64)) -> Self {
        assert!(!trace.is_empty(), "trace must be non-empty");
        Self { trace, range }
    }

    /// Materializes `steps` values from any front model into a replayable
    /// trace.
    pub fn materialize(model: &mut dyn FrontModel, steps: usize) -> Self {
        let range = model.range();
        let trace = (0..steps.max(1)).map(|t| model.velocity(t)).collect();
        Self { trace, range }
    }

    /// The underlying velocity trace.
    pub fn trace(&self) -> &[f64] {
        &self.trace
    }
}

impl FrontModel for FixedTraceFront {
    fn velocity(&mut self, t: usize) -> f64 {
        self.trace[t.min(self.trace.len() - 1)]
    }

    fn range(&self) -> (f64, f64) {
        self.range
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> AccParams {
        AccParams::default()
    }

    #[test]
    fn fixed_trace_replays_and_clamps_index() {
        let mut f = FixedTraceFront::new(vec![30.0, 40.0, 50.0], (30.0, 50.0));
        assert_eq!(f.velocity(1), 40.0);
        assert_eq!(f.velocity(99), 50.0);
    }

    #[test]
    fn materialize_matches_source_model() {
        let mut src = SmoothRandomFront::new((30.0, 50.0), (-20.0, 20.0), 0.1, 42);
        let mut src_again = SmoothRandomFront::new((30.0, 50.0), (-20.0, 20.0), 0.1, 42);
        let mut fixed = FixedTraceFront::materialize(&mut src, 50);
        for t in 0..50 {
            assert_eq!(fixed.velocity(t), src_again.velocity(t));
        }
    }

    #[test]
    fn sinusoid_tracks_reference_without_noise() {
        let mut f = SinusoidalFront::new(&params(), 40.0, 9.0, 0.0, 0);
        // At t = 100: phase = π/2·0.1·100 = 5π ⇒ sin = 0 ⇒ v = 40.
        // Use t = 10: phase = π/2 ⇒ sin = 1 ⇒ v = 49.
        assert!((f.velocity(10) - 49.0).abs() < 1e-9);
        assert!((f.velocity(30) - 31.0).abs() < 1e-9);
    }

    #[test]
    fn sinusoid_respects_range_with_noise() {
        let mut f = SinusoidalFront::new(&params(), 40.0, 12.0, 5.0, 1);
        for t in 0..500 {
            let v = f.velocity(t);
            assert!((30.0..=50.0).contains(&v), "v_f = {v}");
        }
    }

    #[test]
    fn smooth_random_velocity_is_continuous() {
        let mut f = SmoothRandomFront::new((30.0, 50.0), (-20.0, 20.0), 0.1, 2);
        let mut prev = f.velocity(0);
        for t in 1..500 {
            let v = f.velocity(t);
            assert!((v - prev).abs() <= 2.0 + 1e-9, "jump {} at t={t}", v - prev);
            assert!((30.0..=50.0).contains(&v));
            prev = v;
        }
    }

    #[test]
    fn smooth_random_narrow_range_stays_inside() {
        let mut f = SmoothRandomFront::new((39.0, 41.0), (-20.0, 20.0), 0.1, 3);
        for t in 0..200 {
            let v = f.velocity(t);
            assert!((39.0..=41.0).contains(&v));
        }
    }

    #[test]
    fn uniform_random_spans_range() {
        let mut f = UniformRandomFront::new((30.0, 50.0), 4);
        let vs: Vec<f64> = (0..1000).map(|t| f.velocity(t)).collect();
        assert!(vs.iter().cloned().fold(f64::INFINITY, f64::min) < 32.0);
        assert!(vs.iter().cloned().fold(0.0, f64::max) > 48.0);
    }

    #[test]
    fn stop_and_go_reaches_both_extremes() {
        let mut f = StopAndGoFront::new((30.0, 50.0), 5.0, (5, 10), 0.1, 5);
        let vs: Vec<f64> = (0..2000).map(|t| f.velocity(t)).collect();
        assert!(
            vs.iter().any(|v| (v - 30.0).abs() < 1e-9),
            "reaches the low target"
        );
        assert!(
            vs.iter().any(|v| (v - 50.0).abs() < 1e-9),
            "reaches the high target"
        );
        for w in vs.windows(2) {
            assert!((w[1] - w[0]).abs() <= 0.5 + 1e-9, "bounded accel");
        }
    }

    #[test]
    fn models_are_deterministic_per_seed() {
        let mut a = SmoothRandomFront::new((30.0, 50.0), (-20.0, 20.0), 0.1, 9);
        let mut b = SmoothRandomFront::new((30.0, 50.0), (-20.0, 20.0), 0.1, 9);
        for t in 0..100 {
            assert_eq!(a.velocity(t), b.velocity(t));
        }
    }
}
