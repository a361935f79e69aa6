//! The two-vehicle closed-loop simulator.

use crate::front::FrontModel;
use crate::fuel::{FuelContext, FuelModel};
use crate::AccParams;

/// One recorded simulation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    /// Step index (time is `t·δ`).
    pub t: usize,
    /// Relative distance before the step.
    pub s: f64,
    /// Ego velocity before the step.
    pub v: f64,
    /// Front velocity during the step.
    pub vf: f64,
    /// Actuation applied (absolute coordinates).
    pub u: f64,
    /// Fuel consumed this step.
    pub fuel: f64,
    /// Whether the controller computation was skipped this step (set by the
    /// caller via [`TrafficSim::step_annotated`]; `false` otherwise).
    pub skipped: bool,
}

/// Aggregate statistics of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// Total fuel over the run.
    pub total_fuel: f64,
    /// Total actuation energy `Σ‖u‖₁·δ`.
    pub total_actuation: f64,
    /// Number of steps the relative distance left the safe range.
    pub safety_violations: usize,
    /// Number of skipped control steps.
    pub skipped_steps: usize,
    /// Total steps simulated.
    pub steps: usize,
    /// Minimum relative distance observed.
    pub min_distance: f64,
    /// Maximum relative distance observed.
    pub max_distance: f64,
}

/// Closed-loop simulator of the two-vehicle ACC scenario — the SUMO
/// substitute.
///
/// The caller supplies the actuation each step (that's the controller under
/// test); the simulator integrates the §IV dynamics, draws the front
/// vehicle's velocity from a [`FrontModel`], meters fuel with a
/// [`FuelModel`], and records a full trace.
///
/// # Examples
///
/// ```
/// use oic_sim::front::UniformRandomFront;
/// use oic_sim::fuel::ActuationEnergy;
/// use oic_sim::{AccParams, TrafficSim};
///
/// let p = AccParams::default();
/// let front = UniformRandomFront::new(p.vf_range, 1);
/// let mut sim = TrafficSim::new(p, Box::new(front), Box::new(ActuationEnergy), 150.0, 40.0);
/// let record = sim.step(8.0);
/// assert_eq!(record.t, 0);
/// ```
pub struct TrafficSim {
    params: AccParams,
    front: Box<dyn FrontModel>,
    fuel: Box<dyn FuelModel>,
    s: f64,
    v: f64,
    t: usize,
    trace: Vec<StepRecord>,
}

impl TrafficSim {
    /// Creates a simulator with initial relative distance `s0` and ego
    /// velocity `v0`.
    ///
    /// # Panics
    ///
    /// Panics if the initial state is non-finite.
    pub fn new(
        params: AccParams,
        front: Box<dyn FrontModel>,
        fuel: Box<dyn FuelModel>,
        s0: f64,
        v0: f64,
    ) -> Self {
        assert!(
            s0.is_finite() && v0.is_finite(),
            "initial state must be finite"
        );
        Self {
            params,
            front,
            fuel,
            s: s0,
            v: v0,
            t: 0,
            trace: Vec::new(),
        }
    }

    /// Current relative distance.
    pub fn distance(&self) -> f64 {
        self.s
    }

    /// Current ego velocity.
    pub fn velocity(&self) -> f64 {
        self.v
    }

    /// Current step index.
    pub fn time_step(&self) -> usize {
        self.t
    }

    /// The case-study parameters.
    pub fn params(&self) -> &AccParams {
        &self.params
    }

    /// The recorded trace so far.
    pub fn trace(&self) -> &[StepRecord] {
        &self.trace
    }

    /// Advances one step applying actuation `u` (absolute coordinates).
    pub fn step(&mut self, u: f64) -> StepRecord {
        self.step_annotated(u, false)
    }

    /// Advances one step, annotating whether the controller computation was
    /// skipped (for skip-rate statistics).
    pub fn step_annotated(&mut self, u: f64, skipped: bool) -> StepRecord {
        let vf = self.front.velocity(self.t);
        let accel = self.params.acceleration(self.v, u);
        let fuel = self.fuel.consumption(&FuelContext {
            velocity: self.v,
            acceleration: accel,
            input: u,
            dt: self.params.dt,
        });
        let record = StepRecord {
            t: self.t,
            s: self.s,
            v: self.v,
            vf,
            u,
            fuel,
            skipped,
        };
        let (s_next, v_next) = self.params.step_absolute(self.s, self.v, vf, u);
        self.s = s_next;
        self.v = v_next;
        self.t += 1;
        self.trace.push(record);
        record
    }

    /// Pre-sizes the trace buffer for a run of `steps` steps, so the
    /// episode hot loop never reallocates mid-run.
    pub fn reserve_trace(&mut self, steps: usize) {
        self.trace.reserve(steps);
    }

    /// Aggregates the trace into a [`SimSummary`].
    pub fn summary(&self) -> SimSummary {
        let (s_lo, s_hi) = self.params.s_range;
        let mut total_fuel = 0.0;
        let mut total_actuation = 0.0;
        let mut violations = 0;
        let mut skipped = 0;
        let mut min_d = f64::INFINITY;
        let mut max_d = f64::NEG_INFINITY;
        for r in &self.trace {
            total_fuel += r.fuel;
            total_actuation += r.u.abs() * self.params.dt;
            if r.s < s_lo - 1e-9 || r.s > s_hi + 1e-9 {
                violations += 1;
            }
            if r.skipped {
                skipped += 1;
            }
            min_d = min_d.min(r.s);
            max_d = max_d.max(r.s);
        }
        SimSummary {
            total_fuel,
            total_actuation,
            safety_violations: violations,
            skipped_steps: skipped,
            steps: self.trace.len(),
            min_distance: min_d,
            max_distance: max_d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::front::SinusoidalFront;
    use crate::fuel::{ActuationEnergy, Hbefa3Fuel};

    fn sim_with(front_seed: u64) -> TrafficSim {
        let p = AccParams::default();
        let front = SinusoidalFront::new(&p, 40.0, 9.0, 1.0, front_seed);
        TrafficSim::new(
            p,
            Box::new(front),
            Box::new(Hbefa3Fuel::default()),
            150.0,
            40.0,
        )
    }

    #[test]
    fn trace_grows_and_time_advances() {
        let mut sim = sim_with(0);
        for _ in 0..10 {
            sim.step(8.0);
        }
        assert_eq!(sim.time_step(), 10);
        assert_eq!(sim.trace().len(), 10);
        assert_eq!(sim.trace()[3].t, 3);
    }

    #[test]
    fn dynamics_match_params() {
        let mut sim = sim_with(1);
        let (s0, v0) = (sim.distance(), sim.velocity());
        let record = sim.step(-10.0);
        let p = AccParams::default();
        let (s1, v1) = p.step_absolute(s0, v0, record.vf, -10.0);
        assert!((sim.distance() - s1).abs() < 1e-12);
        assert!((sim.velocity() - v1).abs() < 1e-12);
    }

    #[test]
    fn summary_counts_violations_and_skips() {
        let p = AccParams::default();
        let front = SinusoidalFront::new(&p, 40.0, 0.0, 0.0, 0);
        // Start outside the safe band.
        let mut sim = TrafficSim::new(p, Box::new(front), Box::new(ActuationEnergy), 110.0, 40.0);
        sim.step_annotated(0.0, true);
        sim.step_annotated(8.0, false);
        let sum = sim.summary();
        assert_eq!(sum.steps, 2);
        assert_eq!(sum.skipped_steps, 1);
        assert!(sum.safety_violations >= 1);
        assert!((sum.total_actuation - 0.8).abs() < 1e-12);
    }

    #[test]
    fn equilibrium_run_is_stationary_without_noise() {
        let p = AccParams::default();
        let front = SinusoidalFront::new(&p, 40.0, 0.0, 0.0, 0);
        let mut sim = TrafficSim::new(
            p,
            Box::new(front),
            Box::new(Hbefa3Fuel::default()),
            150.0,
            40.0,
        );
        for _ in 0..50 {
            sim.step(8.0);
        }
        assert!((sim.distance() - 150.0).abs() < 1e-9);
        assert!((sim.velocity() - 40.0).abs() < 1e-9);
        let sum = sim.summary();
        assert_eq!(sum.safety_violations, 0);
    }
}
