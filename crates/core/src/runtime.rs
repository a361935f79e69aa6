//! Algorithm 1: the online intermittent-control loop.

use oic_control::{ControlCache, Controller};
use oic_linalg::vec_ops;

use crate::{CoreError, Monitor, PolicyContext, SafeSets, SkipDecision, SkipPolicy, Verdict};

/// What the runtime decided for one control step.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlDecision {
    /// The input to actuate (model coordinates).
    pub input: Vec<f64>,
    /// `true` when the controller computation was skipped (`z = 0`).
    pub skipped: bool,
    /// `true` when the monitor forced `z = 1` (state outside `X′`).
    pub forced_run: bool,
    /// The monitor's verdict for this state.
    pub verdict: Verdict,
}

/// Cumulative runtime statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunStats {
    /// Total steps executed.
    pub steps: usize,
    /// Steps where the controller was skipped.
    pub skipped: usize,
    /// Steps where the monitor forced the controller (outside `X′`).
    pub forced_runs: usize,
    /// Steps where the policy chose to run (inside `X′`).
    pub policy_runs: usize,
    /// Accumulated actuation effort `Σ‖u(t) − u_skip‖₁` (model
    /// coordinates; multiply by the sampling period for energy).
    pub actuation_effort: f64,
}

impl RunStats {
    /// Fraction of steps skipped.
    pub fn skip_rate(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.skipped as f64 / self.steps as f64
        }
    }
}

/// The paper's Algorithm 1: monitor the state, consult the skipping policy
/// inside `X′`, force the underlying controller otherwise, and actuate.
///
/// Generic over the underlying safe controller `C` exactly as the paper's
/// framework is ("can be generally applied to various underlying
/// controllers").
///
/// # Examples
///
/// ```
/// use oic_core::{acc::AccCaseStudy, BangBangPolicy, IntermittentController};
///
/// # fn main() -> Result<(), oic_core::CoreError> {
/// let case = AccCaseStudy::build_default()?;
/// let mut ic = IntermittentController::new(
///     case.mpc().clone(),
///     case.sets().clone(),
///     Box::new(BangBangPolicy),
///     1,
/// );
/// let decision = ic.step(&[0.0, 0.0], &[])?;
/// assert!(decision.skipped, "bang-bang skips inside X'");
/// # Ok(())
/// # }
/// ```
pub struct IntermittentController<C: Controller, P: SkipPolicy = Box<dyn SkipPolicy>> {
    controller: C,
    monitor: Monitor,
    policy: P,
    skip_input: Vec<f64>,
    memory: usize,
    w_history: Vec<Vec<f64>>,
    prev: Option<(Vec<f64>, Vec<f64>)>,
    stats: RunStats,
    t: usize,
    /// Episode-scoped controller scratch: carries the tube MPC's LP
    /// warm-start basis from step to step (engine episodes own one
    /// runtime each, so the basis follows the episode, never leaks
    /// across episodes). Cleared by [`reset`](Self::reset).
    cache: ControlCache,
}

impl<C: Controller, P: SkipPolicy> IntermittentController<C, P> {
    /// Creates the runtime from a controller, certified safe sets, a
    /// skipping policy, and the disturbance memory length `r` (paper's
    /// DRL state uses `r = 1`).
    ///
    /// # Panics
    ///
    /// Panics if the controller dimensions disagree with the plant.
    pub fn new(controller: C, sets: SafeSets, policy: P, memory: usize) -> Self {
        let sys = sets.plant().system();
        assert_eq!(
            controller.state_dim(),
            sys.state_dim(),
            "controller state dim mismatch"
        );
        assert_eq!(
            controller.input_dim(),
            sys.input_dim(),
            "controller input dim mismatch"
        );
        let skip_input = sets.skip_input().to_vec();
        Self {
            controller,
            monitor: Monitor::new(sets),
            policy,
            skip_input,
            memory,
            w_history: Vec::new(),
            prev: None,
            stats: RunStats::default(),
            t: 0,
            cache: ControlCache::new(),
        }
    }

    /// The safety monitor (and through it, the sets).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The underlying controller.
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// Statistics accumulated since construction (or the last
    /// [`reset`](Self::reset)).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Clears history, statistics, and controller scratch (warm-start
    /// state) for a fresh episode.
    pub fn reset(&mut self) {
        self.w_history.clear();
        self.prev = None;
        self.stats = RunStats::default();
        self.t = 0;
        self.cache.reset();
    }

    /// Estimated disturbance history (most recent last), from the exact
    /// model inversion `w(t−1) = x(t) − A x(t−1) − B u(t−1)`.
    pub fn w_history(&self) -> &[Vec<f64>] {
        &self.w_history
    }

    /// Reports that the actuator *dropped* the input just commanded by
    /// [`step`](Self::step) and held the skip input instead — an
    /// environment-forced skip (lossy actuator, weakly-hard execution
    /// platform). Returns the input the plant actually received.
    ///
    /// Two pieces of state are re-booked so later steps stay exact:
    /// the remembered `(x, u)` transition is rewritten to the applied
    /// input (the disturbance inversion `w = x⁺ − A x − B u` must use
    /// what the plant received, or every later `w` estimate would be
    /// polluted by the drop), and the step's actuation-effort
    /// contribution is subtracted (a dropped input costs nothing).
    /// The run/skip decision tallies are left alone — they describe
    /// what the *controller* decided, which the environment overrode.
    pub fn notify_dropout(&mut self) -> Vec<f64> {
        if let Some((_, u)) = self.prev.as_mut() {
            self.stats.actuation_effort -= vec_ops::norm1(&vec_ops::sub(u, &self.skip_input));
            u.clone_from(&self.skip_input);
        }
        self.skip_input.clone()
    }

    /// One iteration of Algorithm 1 at the monitored state `x`.
    ///
    /// `w_forecast` optionally carries known future disturbances for the
    /// model-based policy (empty when unknown).
    ///
    /// # Errors
    ///
    /// * [`CoreError::OutsideInvariant`] — `x ∉ XI`; the framework's
    ///   precondition was violated (never happens from certified sets and
    ///   in-bound disturbances, by Theorem 1).
    /// * [`CoreError::Control`] — the underlying controller failed at a
    ///   state where the monitor required it.
    pub fn step(
        &mut self,
        x: &[f64],
        w_forecast: &[Vec<f64>],
    ) -> Result<ControlDecision, CoreError> {
        // Disturbance estimation from the previous transition.
        if let Some((xp, up)) = &self.prev {
            let sys = self.monitor.sets().plant().system();
            let predicted = sys.step_nominal(xp, up);
            let w = vec_ops::sub(x, &predicted);
            self.w_history.push(w);
            if self.w_history.len() > self.memory.max(1) {
                let drop = self.w_history.len() - self.memory.max(1);
                self.w_history.drain(..drop);
            }
        }

        let verdict = self.monitor.check(x);
        let decision = match verdict {
            Verdict::Outside => {
                return Err(CoreError::OutsideInvariant { state: x.to_vec() });
            }
            Verdict::InvariantOnly => SkipDecision::Run,
            Verdict::Strengthened => {
                let ctx = PolicyContext {
                    state: x,
                    w_history: &self.w_history,
                    w_forecast,
                    time_step: self.t,
                };
                self.policy.decide(&ctx)
            }
        };

        let (input, skipped, forced_run) = match decision {
            SkipDecision::Run => {
                let u = self.controller.control_with_cache(x, &mut self.cache)?;
                (u, false, verdict == Verdict::InvariantOnly)
            }
            SkipDecision::Skip => (self.skip_input.clone(), true, false),
        };

        self.stats.steps += 1;
        if skipped {
            self.stats.skipped += 1;
        } else if forced_run {
            self.stats.forced_runs += 1;
        } else {
            self.stats.policy_runs += 1;
        }
        self.stats.actuation_effort += vec_ops::norm1(&vec_ops::sub(&input, &self.skip_input));

        self.prev = Some((x.to_vec(), input.clone()));
        self.t += 1;
        Ok(ControlDecision {
            input,
            skipped,
            forced_run,
            verdict,
        })
    }
}

impl<C: Controller, P: SkipPolicy> IntermittentController<C, P> {
    /// The sets the runtime monitors against.
    pub fn sets(&self) -> &SafeSets {
        self.monitor.sets()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::AccCaseStudy;
    use crate::{AlwaysRunPolicy, BangBangPolicy, RandomPolicy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn case() -> AccCaseStudy {
        AccCaseStudy::build_default().unwrap()
    }

    #[test]
    fn always_run_never_skips() {
        let case = case();
        let mut ic = IntermittentController::new(
            case.mpc().clone(),
            case.sets().clone(),
            Box::new(AlwaysRunPolicy),
            1,
        );
        let mut x = vec![2.0, 1.0];
        for _ in 0..20 {
            let d = ic.step(&x, &[]).unwrap();
            assert!(!d.skipped);
            x = case.sets().plant().system().step(&x, &d.input, &[0.0, 0.0]);
        }
        assert_eq!(ic.stats().skipped, 0);
        assert_eq!(ic.stats().steps, 20);
    }

    #[test]
    fn bang_bang_skips_inside_strengthened() {
        let case = case();
        let mut ic = IntermittentController::new(
            case.mpc().clone(),
            case.sets().clone(),
            Box::new(BangBangPolicy),
            1,
        );
        let d = ic.step(&[0.0, 0.0], &[]).unwrap();
        assert!(d.skipped);
        assert_eq!(d.input, case.sets().skip_input().to_vec());
    }

    #[test]
    fn disturbance_estimation_is_exact() {
        let case = case();
        let mut ic = IntermittentController::new(
            case.mpc().clone(),
            case.sets().clone(),
            Box::new(AlwaysRunPolicy),
            3,
        );
        let sys = case.sets().plant().system().clone();
        let mut x = vec![1.0, 0.5];
        let mut rng = StdRng::seed_from_u64(9);
        let mut applied_w = Vec::new();
        for _ in 0..5 {
            let d = ic.step(&x, &[]).unwrap();
            let w = vec![rng.gen_range(-1.0..1.0), 0.0];
            applied_w.push(w.clone());
            x = sys.step(&x, &d.input, &w);
        }
        // One more step so the last w gets estimated.
        let _ = ic.step(&x, &[]).unwrap();
        let est = ic.w_history();
        assert_eq!(est.len(), 3);
        for (e, a) in est.iter().rev().zip(applied_w.iter().rev()) {
            assert!(
                vec_ops::approx_eq(e, a, 1e-9),
                "estimated {e:?} vs applied {a:?}"
            );
        }
    }

    #[test]
    fn disturbance_estimation_stays_exact_under_dropout() {
        // When the actuator drops every other commanded input, the
        // inversion must keep using the *applied* input — otherwise the
        // estimated w would absorb the B·(u − u_skip) gap.
        let case = case();
        let sys = case.sets().plant().system().clone();
        let mut ic = IntermittentController::new(
            case.mpc().clone(),
            case.sets().clone(),
            Box::new(AlwaysRunPolicy),
            3,
        );
        let skip_input = case.sets().skip_input().to_vec();
        let mut x = vec![1.0, 0.5];
        let mut rng = StdRng::seed_from_u64(11);
        let mut applied_w = Vec::new();
        for t in 0..6 {
            let d = ic.step(&x, &[]).unwrap();
            let u = if t % 2 == 0 {
                let applied = ic.notify_dropout();
                assert_eq!(applied, skip_input);
                applied
            } else {
                d.input
            };
            let w = vec![rng.gen_range(-1.0..1.0), 0.0];
            applied_w.push(w.clone());
            x = sys.step(&x, &u, &w);
        }
        let _ = ic.step(&x, &[]).unwrap();
        for (e, a) in ic.w_history().iter().rev().zip(applied_w.iter().rev()) {
            assert!(
                vec_ops::approx_eq(e, a, 1e-9),
                "estimated {e:?} vs applied {a:?}"
            );
        }
    }

    #[test]
    fn dropout_rebooks_actuation_effort() {
        let case = case();
        let mut ic = IntermittentController::new(
            case.mpc().clone(),
            case.sets().clone(),
            Box::new(AlwaysRunPolicy),
            1,
        );
        let d = ic.step(&[2.0, 1.0], &[]).unwrap();
        assert!(!d.skipped);
        let effort_before = ic.stats().actuation_effort;
        assert!(effort_before > 0.0, "a real input was commanded");
        let _ = ic.notify_dropout();
        assert!(
            ic.stats().actuation_effort.abs() < 1e-12,
            "dropped inputs cost nothing"
        );
        assert_eq!(ic.stats().steps, 1, "decision tallies are untouched");
    }

    #[test]
    fn outside_invariant_is_an_error() {
        let case = case();
        let mut ic = IntermittentController::new(
            case.mpc().clone(),
            case.sets().clone(),
            Box::new(AlwaysRunPolicy),
            1,
        );
        let err = ic.step(&[200.0, 0.0], &[]).unwrap_err();
        assert!(matches!(err, CoreError::OutsideInvariant { .. }));
    }

    /// The heart of Theorem 1, exercised adversarially: random skipping
    /// inside X', worst-case random disturbances, long horizon — the state
    /// must never leave XI (and hence never leave X).
    #[test]
    fn theorem1_random_policy_stays_invariant() {
        let case = case();
        let sys = case.sets().plant().system().clone();
        let mut rng = StdRng::seed_from_u64(1234);
        for trial in 0..5 {
            let mut ic = IntermittentController::new(
                case.mpc().clone(),
                case.sets().clone(),
                Box::new(RandomPolicy::new(0.7, trial)),
                1,
            );
            let mut x = vec![0.0, 0.0];
            for step in 0..300 {
                assert!(
                    case.sets().invariant().contains_with_tol(&x, 1e-6),
                    "trial {trial} step {step}: left XI at {x:?}"
                );
                assert!(
                    case.sets().safe().contains_with_tol(&x, 1e-6),
                    "trial {trial} step {step}: left X at {x:?}"
                );
                let d = ic.step(&x, &[]).unwrap();
                // Adversarial extreme disturbances.
                let w = if rng.gen_bool(0.5) {
                    vec![1.0, 0.0]
                } else {
                    vec![-1.0, 0.0]
                };
                x = sys.step(&x, &d.input, &w);
            }
        }
    }

    #[test]
    fn stats_accounting_adds_up() {
        let case = case();
        let sys = case.sets().plant().system().clone();
        let mut ic = IntermittentController::new(
            case.mpc().clone(),
            case.sets().clone(),
            Box::new(RandomPolicy::new(0.5, 3)),
            1,
        );
        let mut x = vec![0.0, 0.0];
        for _ in 0..100 {
            let d = ic.step(&x, &[]).unwrap();
            x = sys.step(&x, &d.input, &[0.0, 0.0]);
        }
        let s = ic.stats();
        assert_eq!(s.steps, 100);
        assert_eq!(s.skipped + s.forced_runs + s.policy_runs, 100);
        assert!(s.skip_rate() > 0.0);
    }
}
