//! Tube (robust) model predictive control — the paper's underlying safe
//! controller `κ_R` (Chisci–Rossiter–Zappa, paper reference \[1\]).
//!
//! The online optimization is paper Eq. (5): a 1-norm cost over the nominal
//! prediction, state constraints tightened by the accumulated disturbance,
//! and a robust terminal set. Because the cost is a 1-norm and every set is
//! a polytope, each solve is a single LP over the input sequence plus
//! auxiliary absolute-value variables.
//!
//! [`TubeMpc::feasible_set`] computes the exact feasible region `X_F` by a
//! backward controllability recursion (one Fourier–Motzkin elimination of
//! the input per horizon step). Proposition 1 of the paper identifies `X_F`
//! with the robust control invariant set `X_I` used by the safety monitor.

use oic_geom::{AffineImage, Halfspace, Polytope};
use oic_linalg::Matrix;
use oic_lp::{LinearProgram, LpSolution, WarmStart};

use crate::{max_rpi, ConstrainedLti, ControlCache, ControlError, Controller, InvariantOptions};

/// Warm-start state carried across a sequence of [`TubeMpc::control_warm`]
/// or [`TubeMpc::solve_warm`] calls (one per episode; the LP basis from
/// step `t` seeds step `t + 1`), plus the step's reusable buffers.
#[derive(Debug, Clone, Default)]
pub struct MpcWarmState {
    warm: WarmStart,
    /// `A⁰x, …, Aᴺx`, one state after another.
    x_free: Vec<f64>,
    /// The LP right-hand side at the current state.
    rhs: Vec<f64>,
    /// The first input `u(0|t)` of the last [`TubeMpc::control_warm`].
    input: Vec<f64>,
}

impl MpcWarmState {
    /// Fresh state; the first solve through it runs cold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the carried basis.
    pub fn invalidate(&mut self) {
        self.warm.invalidate();
    }

    /// Solves routed through this state.
    pub fn solves(&self) -> u64 {
        self.warm.solves()
    }

    /// Solves that reused the carried basis (skipped phase 1).
    pub fn warm_hits(&self) -> u64 {
        self.warm.warm_hits()
    }

    /// Warm attempts that fell back to a cold solve.
    pub fn fallbacks(&self) -> u64 {
        self.warm.fallbacks()
    }

    /// Total simplex pivots across the sequence (the quantity warm
    /// starting minimizes).
    pub fn pivots(&self) -> u64 {
        self.warm.pivots()
    }
}

/// How one constraint's RHS depends on the current state `x`: the row
/// coefficients never change, only these offsets are recomputed per solve.
///
/// The arithmetic mirrors the row-building code of the test-only rebuild
/// reference *exactly* (`offset − a·(Aᵏx)` vs the reference's
/// `h.offset() − free`, and a literal `−free` for the absolute-value
/// links), so the templated cold path is bit-identical to it.
#[derive(Debug, Clone)]
enum RhsSpec {
    /// RHS is a constant (input constraints, `|u|` links).
    Constant(f64),
    /// `offset − normal·(Aᵏ x)` (state and terminal constraints).
    StateOffset {
        k: usize,
        normal: Vec<f64>,
        offset: f64,
    },
    /// `−(normal·(Aᵏ x))` (absolute-value links on predicted states).
    StateNeg { k: usize, normal: Vec<f64> },
}

/// The tube-MPC optimization compiled once at construction: variable
/// layout, every constraint row, and the cost vector live in `lp` (whose
/// standard form is compiled at build, so all clones of a controller
/// share it); per step only the RHS vector is recomputed from `rhs_spec`
/// and the LP is re-solved (warm-started when the caller carries an
/// [`MpcWarmState`]).
#[derive(Debug, Clone)]
struct MpcTemplate {
    lp: LinearProgram,
    rhs_spec: Vec<RhsSpec>,
}

/// Solution of one tube-MPC optimization.
#[derive(Debug, Clone, PartialEq)]
pub struct MpcSolution {
    u_sequence: Vec<Vec<f64>>,
    predicted_states: Vec<Vec<f64>>,
    cost: f64,
}

impl MpcSolution {
    /// The optimal nominal input sequence `u(0|t), …, u(N−1|t)`.
    pub fn u_sequence(&self) -> &[Vec<f64>] {
        &self.u_sequence
    }

    /// The predicted nominal states `x(0|t), …, x(N|t)`.
    pub fn predicted_states(&self) -> &[Vec<f64>] {
        &self.predicted_states
    }

    /// The input actually applied: `κ(x) = u(0|t)`.
    pub fn first_input(&self) -> &[f64] {
        &self.u_sequence[0]
    }

    /// The optimal cost `Σ P‖x(k|t)‖₁ + Q‖u(k|t)‖₁`.
    pub fn cost(&self) -> f64 {
        self.cost
    }
}

/// Builder for [`TubeMpc`].
///
/// # Examples
///
/// ```
/// use oic_control::{ConstrainedLti, Lti, TubeMpcBuilder};
/// use oic_geom::Polytope;
/// use oic_linalg::Matrix;
///
/// # fn main() -> Result<(), oic_control::ControlError> {
/// let plant = ConstrainedLti::new(
///     Lti::new(
///         Matrix::from_rows(&[&[1.0, -0.1], &[0.0, 0.98]]),
///         Matrix::from_rows(&[&[0.0], &[0.1]]),
///     ),
///     Polytope::from_box(&[-30.0, -15.0], &[30.0, 15.0]),
///     Polytope::from_box(&[-48.0], &[32.0]),
///     Polytope::from_box(&[-1.0, 0.0], &[1.0, 0.0]),
/// );
/// let mpc = TubeMpcBuilder::new(plant, 10).weights(1.0, 0.5).build()?;
/// let u = mpc.solve(&[5.0, 2.0])?;
/// assert_eq!(u.u_sequence().len(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TubeMpcBuilder {
    plant: ConstrainedLti,
    horizon: usize,
    state_weights: Vec<f64>,
    input_weight: f64,
}

impl TubeMpcBuilder {
    /// Starts a builder for the given plant and prediction horizon `N ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon == 0`.
    pub fn new(plant: ConstrainedLti, horizon: usize) -> Self {
        assert!(horizon >= 1, "horizon must be at least 1");
        let n = plant.system().state_dim();
        Self {
            plant,
            horizon,
            state_weights: vec![1.0; n],
            input_weight: 0.5,
        }
    }

    /// Sets the 1-norm cost weights `P` (uniform over state components) and
    /// `Q` (input).
    ///
    /// # Panics
    ///
    /// Panics if either weight is negative.
    pub fn weights(mut self, state_weight: f64, input_weight: f64) -> Self {
        assert!(
            state_weight >= 0.0 && input_weight >= 0.0,
            "weights must be non-negative"
        );
        self.state_weights = vec![state_weight; self.state_weights.len()];
        self.input_weight = input_weight;
        self
    }

    /// Sets per-component state weights (e.g. track position tightly while
    /// leaving velocity nearly free, which 1-norm costs otherwise penalize
    /// into inaction).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the state dimension or any weight
    /// is negative.
    pub fn state_weight_vector(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(
            weights.len(),
            self.state_weights.len(),
            "state weight length mismatch"
        );
        assert!(
            weights.iter().all(|w| *w >= 0.0),
            "weights must be non-negative"
        );
        self.state_weights = weights;
        self
    }

    /// Sets only the input weight `Q`.
    ///
    /// # Panics
    ///
    /// Panics if the weight is negative.
    pub fn input_weight(mut self, input_weight: f64) -> Self {
        assert!(input_weight >= 0.0, "weight must be non-negative");
        self.input_weight = input_weight;
        self
    }

    /// Builds the controller: computes tightened sets, synthesizes the
    /// terminal set, and precomputes prediction matrices.
    ///
    /// # Errors
    ///
    /// * [`ControlError::EmptySet`] — a tightened set or the terminal set is
    ///   empty (the horizon is too long for the disturbance, or constraints
    ///   are too tight).
    /// * [`ControlError::Riccati`] — terminal-gain synthesis failed.
    pub fn build(self) -> Result<TubeMpc, ControlError> {
        let sys = self.plant.system().clone();
        let n = sys.state_dim();
        let horizon = self.horizon;

        // The paper's open-loop recursion:
        // X(0) = X; X(k) = X(k−1) ∩ (X(k−1) ⊖ A^{k−1} W).
        let mut tightened = Vec::with_capacity(horizon + 1);
        tightened.push(self.plant.safe_set().remove_redundant());
        let mut m_pow = Matrix::identity(n); // A^{k−1} for k = 1 is I
        for _k in 1..=horizon {
            let prev: &Polytope = tightened.last().expect("at least X(0) present");
            let shifted_w = AffineImage::new(&m_pow, self.plant.disturbance_set());
            let shrunk = prev.minkowski_diff(&shifted_w)?;
            let next = prev.intersection(&shrunk).remove_redundant();
            if next.is_empty() {
                return Err(ControlError::EmptySet);
            }
            tightened.push(next);
            m_pow = &m_pow * sys.a();
        }

        // Terminal set: robust positively invariant under the LQR gain,
        // inside X(N) ∩ {x : Kx ∈ U} — this satisfies Proposition 1's
        // stability premise.
        let gain = crate::dlqr(
            sys.a(),
            sys.b(),
            &Matrix::identity(n),
            &Matrix::identity(sys.input_dim()),
        )?;
        let input_ok = self
            .plant
            .input_set()
            .preimage(&gain, &vec![0.0; sys.input_dim()]);
        let constraint = tightened[horizon]
            .intersection(&input_ok)
            .remove_redundant();
        let terminal = max_rpi(
            &sys.closed_loop(&gain),
            self.plant.disturbance_set(),
            &constraint,
            &InvariantOptions::default(),
        )?;

        // Prediction matrices: A^k for k = 0..=N and A^j B for j = 0..N−1.
        let mut a_pow = Vec::with_capacity(horizon + 1);
        a_pow.push(Matrix::identity(n));
        for k in 1..=horizon {
            let next = &a_pow[k - 1] * sys.a();
            a_pow.push(next);
        }
        let impulse: Vec<Matrix> = (0..horizon).map(|j| &a_pow[j] * sys.b()).collect();

        let template = build_template(
            &self.plant,
            horizon,
            &self.state_weights,
            self.input_weight,
            &tightened,
            &terminal,
            &impulse,
        );
        template.lp.compile_form()?;

        Ok(TubeMpc {
            plant: self.plant,
            horizon,
            tightened,
            terminal,
            a_pow,
            template,
        })
    }
}

/// Compiles the tube-MPC LP once: same variable layout, constraint order,
/// and coefficient arithmetic as the test-only rebuild reference, with the
/// `x`-dependent RHS parts recorded as [`RhsSpec`]s instead of values.
fn build_template(
    plant: &ConstrainedLti,
    horizon: usize,
    state_weights: &[f64],
    input_weight: f64,
    tightened: &[Polytope],
    terminal: &Polytope,
    impulse: &[Matrix],
) -> MpcTemplate {
    let sys = plant.system();
    let n = sys.state_dim();
    let m = sys.input_dim();
    let big_n = horizon;

    // Variable layout: [u(0..N) | tx(1..N) | tu(0..N)] — identical to the
    // reference solver.
    let n_u = big_n * m;
    let n_tx = big_n.saturating_sub(1) * n;
    let n_tu = big_n * m;
    let total = n_u + n_tx + n_tu;
    let u_ix = |k: usize, l: usize| k * m + l;
    let tx_ix = |k: usize, i: usize| n_u + (k - 1) * n + i; // k = 1..N−1
    let tu_ix = |k: usize, l: usize| n_u + n_tx + k * m + l;

    let mut costs = vec![0.0; total];
    for k in 1..big_n {
        for i in 0..n {
            costs[tx_ix(k, i)] = state_weights[i];
        }
    }
    for k in 0..big_n {
        for l in 0..m {
            costs[tu_ix(k, l)] = input_weight;
        }
    }
    let mut lp = LinearProgram::minimize(&costs);
    let mut rhs_spec = Vec::new();

    // Row coefficients of a·x(k) over the u variables — exactly the
    // reference's `state_row`, minus the x-dependent free response.
    let mut row_buf = vec![0.0; total];
    let state_row = |k: usize, normal: &[f64], row: &mut Vec<f64>| {
        row.clear();
        row.resize(total, 0.0);
        for j in 0..k {
            let coef = impulse[k - 1 - j].vec_mul(normal); // aᵀ A^{k−1−j} B
            for l in 0..m {
                row[u_ix(j, l)] = coef[l];
            }
        }
    };

    // State constraints x(k) ∈ X(k) for k = 1..N and x(N) ∈ X_t.
    for (k, set) in tightened.iter().enumerate().take(big_n + 1).skip(1) {
        for h in set.halfspaces() {
            state_row(k, h.normal(), &mut row_buf);
            lp.add_le(&row_buf, 0.0);
            rhs_spec.push(RhsSpec::StateOffset {
                k,
                normal: h.normal().to_vec(),
                offset: h.offset(),
            });
        }
    }
    for h in terminal.halfspaces() {
        state_row(big_n, h.normal(), &mut row_buf);
        lp.add_le(&row_buf, 0.0);
        rhs_spec.push(RhsSpec::StateOffset {
            k: big_n,
            normal: h.normal().to_vec(),
            offset: h.offset(),
        });
    }

    // Input constraints u(k) ∈ U.
    for k in 0..big_n {
        for h in plant.input_set().halfspaces() {
            row_buf.iter_mut().for_each(|v| *v = 0.0);
            for l in 0..m {
                row_buf[u_ix(k, l)] = h.normal()[l];
            }
            lp.add_le(&row_buf, h.offset());
            rhs_spec.push(RhsSpec::Constant(h.offset()));
        }
    }

    // Absolute-value linking: ±x_i(k) ≤ tx(k,i), ±u_l(k) ≤ tu(k,l).
    for k in 1..big_n {
        for i in 0..n {
            let mut e = vec![0.0; n];
            e[i] = 1.0;
            state_row(k, &e, &mut row_buf);
            row_buf[tx_ix(k, i)] = -1.0;
            lp.add_le(&row_buf, 0.0);
            rhs_spec.push(RhsSpec::StateNeg {
                k,
                normal: e.clone(),
            });
            let e_neg: Vec<f64> = e.iter().map(|v| -v).collect();
            state_row(k, &e_neg, &mut row_buf);
            row_buf[tx_ix(k, i)] = -1.0;
            lp.add_le(&row_buf, 0.0);
            rhs_spec.push(RhsSpec::StateNeg { k, normal: e_neg });
        }
    }
    for k in 0..big_n {
        for l in 0..m {
            row_buf.iter_mut().for_each(|v| *v = 0.0);
            row_buf[u_ix(k, l)] = 1.0;
            row_buf[tu_ix(k, l)] = -1.0;
            lp.add_le(&row_buf, 0.0);
            rhs_spec.push(RhsSpec::Constant(0.0));
            row_buf[u_ix(k, l)] = -1.0;
            lp.add_le(&row_buf, 0.0);
            rhs_spec.push(RhsSpec::Constant(0.0));
        }
    }

    MpcTemplate { lp, rhs_spec }
}

/// The tube MPC controller (paper Eq. (5)).
///
/// Construct with [`TubeMpcBuilder`]. Each [`solve`](Self::solve) is one LP;
/// [`control`](Self::control) returns the first input of the optimal
/// sequence, which is what gets actuated.
#[derive(Debug, Clone)]
pub struct TubeMpc {
    plant: ConstrainedLti,
    horizon: usize,
    /// `X(0), …, X(N)`.
    tightened: Vec<Polytope>,
    terminal: Polytope,
    /// `A^0, …, A^N`.
    a_pow: Vec<Matrix>,
    /// The LP compiled once at construction; per step only the RHS moves.
    template: MpcTemplate,
}

impl TubeMpc {
    /// The constrained plant this controller was built for.
    pub fn plant(&self) -> &ConstrainedLti {
        &self.plant
    }

    /// The prediction horizon `N`.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The tightened constraint sequence `X(0), …, X(N)`.
    pub fn tightened_sets(&self) -> &[Polytope] {
        &self.tightened
    }

    /// The robust terminal set `X_t`.
    pub fn terminal_set(&self) -> &Polytope {
        &self.terminal
    }

    /// Solves the tube-MPC LP at state `x` through the precompiled
    /// template: only the RHS vector is rebuilt (one dot product per
    /// state-dependent row), then the LP re-solves cold on the dense
    /// tableau.
    ///
    /// # Errors
    ///
    /// * [`ControlError::Infeasible`] — `x` is outside the feasible set
    ///   `X_F` (equivalently, outside the robust control invariant set).
    /// * [`ControlError::Lp`] — numerical LP failure.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the state dimension.
    pub fn solve(&self, x: &[f64]) -> Result<MpcSolution, ControlError> {
        let sol = self.solve_lp(x, &mut Vec::new(), &mut Vec::new(), None)?;
        Ok(self.solution(x, &sol))
    }

    /// [`solve`](Self::solve) with warm-start carry: the optimal LP basis
    /// of this solve seeds the next solve through the same
    /// [`MpcWarmState`]. Because only the RHS changes between the steps of
    /// an episode, the carried basis stays dual feasible and each re-solve
    /// is a few dual-simplex pivots on the revised engine instead of a
    /// full two-phase solve (the first solve through a fresh state runs
    /// cold on the tableau).
    ///
    /// Results agree with [`solve`](Self::solve) to solver tolerance but
    /// are not bit-identical to it.
    ///
    /// # Errors
    ///
    /// Same contract as [`solve`](Self::solve).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the state dimension.
    pub fn solve_warm(
        &self,
        x: &[f64],
        warm: &mut MpcWarmState,
    ) -> Result<MpcSolution, ControlError> {
        let MpcWarmState {
            warm, x_free, rhs, ..
        } = warm;
        let sol = self.solve_lp(x, x_free, rhs, Some(warm))?;
        Ok(self.solution(x, &sol))
    }

    /// The runtime control step `κ(x) = u(0|t)`: the warm solve of
    /// [`solve_warm`](Self::solve_warm), computing only the first input,
    /// into buffers held by `warm` (a steady-state step allocates nothing
    /// here).
    ///
    /// # Errors
    ///
    /// Same contract as [`solve`](Self::solve).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the state dimension.
    pub fn control_warm<'w>(
        &self,
        x: &[f64],
        warm: &'w mut MpcWarmState,
    ) -> Result<&'w [f64], ControlError> {
        let MpcWarmState {
            warm,
            x_free,
            rhs,
            input,
        } = warm;
        let sol = self.solve_lp(x, x_free, rhs, Some(warm))?;
        // u(0) is the first block of the variable layout.
        input.clear();
        input.extend_from_slice(&sol.x()[..self.plant.system().input_dim()]);
        Ok(input)
    }

    /// Solves the templated LP at `x`: rebuilds its RHS into `rhs` (with
    /// `x_free` holding `Aᵏx`), then re-solves, warm when `warm` is given.
    fn solve_lp(
        &self,
        x: &[f64],
        x_free: &mut Vec<f64>,
        rhs: &mut Vec<f64>,
        warm: Option<&mut WarmStart>,
    ) -> Result<LpSolution, ControlError> {
        let _span = oic_obs::span("mpc.step", "mpc");
        let step_timer = oic_obs::Stopwatch::start();
        let n = self.plant.system().state_dim();
        assert_eq!(x.len(), n, "state dimension mismatch");

        if !self.tightened[0].contains_with_tol(x, 1e-6) {
            return Err(ControlError::Infeasible { state: x.to_vec() });
        }

        // x_free(k) = A^k x — the only state-dependent quantities (same
        // arithmetic as `Matrix::mul_vec`).
        x_free.clear();
        for a_k in &self.a_pow {
            for i in 0..n {
                let mut acc = 0.0;
                for (a, v) in a_k.row(i).iter().zip(x) {
                    acc += a * v;
                }
                x_free.push(acc);
            }
        }
        let free = |k: usize, normal: &[f64]| -> f64 {
            normal
                .iter()
                .zip(&x_free[k * n..(k + 1) * n])
                .map(|(a, v)| a * v)
                .sum()
        };
        rhs.clear();
        rhs.extend(self.template.rhs_spec.iter().map(|spec| match spec {
            RhsSpec::Constant(b) => *b,
            RhsSpec::StateOffset { k, normal, offset } => offset - free(*k, normal),
            RhsSpec::StateNeg { k, normal } => -free(*k, normal),
        }));
        oic_obs::counter!("mpc.rhs_updates", "updates").incr();

        let solved = match warm {
            Some(warm) => self.template.lp.solve_warm_with_rhs(rhs, warm),
            None => self.template.lp.solve_with_rhs(rhs),
        };
        let sol = match solved {
            Ok(s) => s,
            Err(oic_lp::LpError::Infeasible) => {
                return Err(ControlError::Infeasible { state: x.to_vec() })
            }
            Err(e) => return Err(ControlError::Lp(e)),
        };
        step_timer.stop_into(oic_obs::histogram!("mpc.step_ns", "ns"));
        Ok(sol)
    }

    /// The full [`MpcSolution`] of an LP solution at `x`.
    fn solution(&self, x: &[f64], sol: &LpSolution) -> MpcSolution {
        let sys = self.plant.system();
        let m = sys.input_dim();
        let u_sequence: Vec<Vec<f64>> = sol.x()[..self.horizon * m]
            .chunks(m)
            .map(<[f64]>::to_vec)
            .collect();
        let mut predicted_states = Vec::with_capacity(self.horizon + 1);
        let mut xs = x.to_vec();
        predicted_states.push(xs.clone());
        for u in &u_sequence {
            xs = sys.step_nominal(&xs, u);
            predicted_states.push(xs.clone());
        }
        MpcSolution {
            u_sequence,
            predicted_states,
            cost: sol.objective(),
        }
    }

    /// Computes the feasible set `X_F` of the MPC optimization — by
    /// Proposition 1, the robust control invariant set `X_I`.
    ///
    /// Uses the backward recursion `F_N = X(N) ∩ X_t`,
    /// `F_k = X(k) ∩ proj_x { (x,u) : u ∈ U, Ax + Bu ∈ F_{k+1} }`,
    /// so each step projects out only the `m` input coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError::EmptySet`] if the recursion empties out.
    pub fn feasible_set(&self) -> Result<Polytope, ControlError> {
        let sys = self.plant.system();
        let n = sys.state_dim();
        let m = sys.input_dim();
        let mut f = self.tightened[self.horizon]
            .intersection(&self.terminal)
            .remove_redundant();
        for k in (0..self.horizon).rev() {
            if f.is_empty() {
                return Err(ControlError::EmptySet);
            }
            let mut rows: Vec<Halfspace> = Vec::new();
            for h in f.halfspaces() {
                let mut normal = sys.a().vec_mul(h.normal());
                normal.extend(sys.b().vec_mul(h.normal()));
                rows.push(Halfspace::new(normal, h.offset()));
            }
            for h in self.plant.input_set().halfspaces() {
                let mut normal = vec![0.0; n];
                normal.extend_from_slice(h.normal());
                rows.push(Halfspace::new(normal, h.offset()));
            }
            let pre = Polytope::new(n + m, rows).project_to_first(n);
            f = self.tightened[k].intersection(&pre).remove_redundant();
        }
        if f.is_empty() {
            return Err(ControlError::EmptySet);
        }
        Ok(f)
    }
}

impl Controller for TubeMpc {
    fn state_dim(&self) -> usize {
        self.plant.system().state_dim()
    }

    fn input_dim(&self) -> usize {
        self.plant.system().input_dim()
    }

    fn control(&self, x: &[f64]) -> Result<Vec<f64>, ControlError> {
        Ok(self.solve(x)?.first_input().to_vec())
    }

    /// Routes through [`TubeMpc::control_warm`] with the episode's LP
    /// basis carried in `cache`.
    fn control_with_cache(
        &self,
        x: &[f64],
        cache: &mut ControlCache,
    ) -> Result<Vec<f64>, ControlError> {
        let warm = cache.mpc_warm.get_or_insert_with(MpcWarmState::new);
        self.control_warm(x, warm).map(<[f64]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lti;

    fn acc_plant() -> ConstrainedLti {
        ConstrainedLti::new(
            Lti::new(
                Matrix::from_rows(&[&[1.0, -0.1], &[0.0, 0.98]]),
                Matrix::from_rows(&[&[0.0], &[0.1]]),
            ),
            Polytope::from_box(&[-30.0, -15.0], &[30.0, 15.0]),
            Polytope::from_box(&[-48.0], &[32.0]),
            Polytope::from_box(&[-1.0, 0.0], &[1.0, 0.0]),
        )
    }

    fn acc_mpc() -> TubeMpc {
        TubeMpcBuilder::new(acc_plant(), 10)
            .weights(1.0, 0.5)
            .build()
            .unwrap()
    }

    /// The pre-template reference solver: rebuilds the entire LP — costs,
    /// rows, per-row buffers — from scratch at every call, exactly as the
    /// controller did before the template refactor, for the weights the
    /// controller was built with. It is the oracle the templated cold
    /// [`TubeMpc::solve`] is tested bit-identical against.
    fn solve_rebuild_reference(
        mpc: &TubeMpc,
        state_weights: &[f64],
        input_weight: f64,
        x: &[f64],
    ) -> Result<MpcSolution, ControlError> {
        let sys = mpc.plant.system();
        let n = sys.state_dim();
        let m = sys.input_dim();
        let big_n = mpc.horizon;
        assert_eq!(x.len(), n, "state dimension mismatch");

        if !mpc.tightened[0].contains_with_tol(x, 1e-6) {
            return Err(ControlError::Infeasible { state: x.to_vec() });
        }

        // Variable layout: [u(0..N) | tx(1..N) | tu(0..N)] where tx are
        // per-component |x| bounds for k = 1..N−1 and tu per-component |u|.
        let n_u = big_n * m;
        let n_tx = big_n.saturating_sub(1) * n;
        let n_tu = big_n * m;
        let total = n_u + n_tx + n_tu;
        let u_ix = |k: usize, l: usize| k * m + l;
        let tx_ix = |k: usize, i: usize| n_u + (k - 1) * n + i; // k = 1..N−1
        let tu_ix = |k: usize, l: usize| n_u + n_tx + k * m + l;

        let mut costs = vec![0.0; total];
        for k in 1..big_n {
            for i in 0..n {
                costs[tx_ix(k, i)] = state_weights[i];
            }
        }
        for k in 0..big_n {
            for l in 0..m {
                costs[tu_ix(k, l)] = input_weight;
            }
        }
        let mut lp = LinearProgram::minimize(&costs);

        // x_free(k) = A^k x; coefficient of u(j) in x(k) is A^{k−1−j} B.
        let x_free: Vec<Vec<f64>> = (0..=big_n).map(|k| mpc.a_pow[k].mul_vec(x)).collect();
        let impulse: Vec<Matrix> = (0..big_n).map(|j| &mpc.a_pow[j] * sys.b()).collect();

        // Row builder for a·x(k) ≤ rhs expressed over the u variables.
        let state_row = |k: usize, normal: &[f64]| -> (Vec<f64>, f64) {
            let mut row = vec![0.0; total];
            for j in 0..k {
                let coef = impulse[k - 1 - j].vec_mul(normal); // aᵀ A^{k−1−j} B
                for l in 0..m {
                    row[u_ix(j, l)] = coef[l];
                }
            }
            let free: f64 = normal.iter().zip(&x_free[k]).map(|(a, v)| a * v).sum();
            (row, free)
        };

        // State constraints x(k) ∈ X(k) for k = 1..N and x(N) ∈ X_t.
        for k in 1..=big_n {
            for h in mpc.tightened[k].halfspaces() {
                let (row, free) = state_row(k, h.normal());
                lp.add_le(&row, h.offset() - free);
            }
        }
        for h in mpc.terminal.halfspaces() {
            let (row, free) = state_row(big_n, h.normal());
            lp.add_le(&row, h.offset() - free);
        }

        // Input constraints u(k) ∈ U.
        for k in 0..big_n {
            for h in mpc.plant.input_set().halfspaces() {
                let mut row = vec![0.0; total];
                for l in 0..m {
                    row[u_ix(k, l)] = h.normal()[l];
                }
                lp.add_le(&row, h.offset());
            }
        }

        // Absolute-value linking: ±x_i(k) ≤ tx(k,i), ±u_l(k) ≤ tu(k,l).
        for k in 1..big_n {
            for i in 0..n {
                let mut e = vec![0.0; n];
                e[i] = 1.0;
                let (mut row, free) = state_row(k, &e);
                row[tx_ix(k, i)] = -1.0;
                lp.add_le(&row, -free);
                let (mut row_neg, free_neg) =
                    state_row(k, &e.iter().map(|v| -v).collect::<Vec<_>>());
                row_neg[tx_ix(k, i)] = -1.0;
                lp.add_le(&row_neg, -free_neg);
            }
        }
        for k in 0..big_n {
            for l in 0..m {
                let mut row = vec![0.0; total];
                row[u_ix(k, l)] = 1.0;
                row[tu_ix(k, l)] = -1.0;
                lp.add_le(&row, 0.0);
                row[u_ix(k, l)] = -1.0;
                lp.add_le(&row, 0.0);
            }
        }

        let sol = match lp.solve() {
            Ok(s) => s,
            Err(oic_lp::LpError::Infeasible) => {
                return Err(ControlError::Infeasible { state: x.to_vec() })
            }
            Err(e) => return Err(ControlError::Lp(e)),
        };

        let u_sequence: Vec<Vec<f64>> = (0..big_n)
            .map(|k| (0..m).map(|l| sol.x()[u_ix(k, l)]).collect())
            .collect();
        let mut predicted_states = Vec::with_capacity(big_n + 1);
        let mut xs = x.to_vec();
        predicted_states.push(xs.clone());
        for u in &u_sequence {
            xs = sys.step_nominal(&xs, u);
            predicted_states.push(xs.clone());
        }
        Ok(MpcSolution {
            u_sequence,
            predicted_states,
            cost: sol.objective(),
        })
    }

    #[test]
    fn tightened_sets_are_nested() {
        let mpc = acc_mpc();
        let sets = mpc.tightened_sets();
        assert_eq!(sets.len(), 11);
        for k in 1..sets.len() {
            assert!(
                sets[k].is_subset_of(&sets[k - 1], 1e-6).unwrap(),
                "X({k}) ⊄ X({})",
                k - 1
            );
        }
    }

    #[test]
    fn acc_tightening_shrinks_position_band() {
        // A^{k−1} W = W = [-1,1]×{0} for the ACC A matrix, so each step
        // shrinks the s-range by 1: X(10) has s ∈ [-20, 20].
        let mpc = acc_mpc();
        let x10 = &mpc.tightened_sets()[10];
        assert!(x10.contains(&[19.9, 0.0]));
        assert!(!x10.contains(&[20.5, 0.0]));
        assert!(x10.contains(&[0.0, 14.9]), "v range should be untightened");
    }

    #[test]
    fn terminal_set_is_rpi_certified() {
        let mpc = acc_mpc();
        let gain = crate::dlqr(
            mpc.plant().system().a(),
            mpc.plant().system().b(),
            &Matrix::identity(2),
            &Matrix::identity(1),
        )
        .unwrap();
        let a_cl = mpc.plant().system().closed_loop(&gain);
        assert!(crate::verify_rpi(
            mpc.terminal_set(),
            &a_cl,
            mpc.plant().disturbance_set(),
            1e-6
        )
        .unwrap());
    }

    #[test]
    fn solve_at_origin_is_cheap() {
        let mpc = acc_mpc();
        let sol = mpc.solve(&[0.0, 0.0]).unwrap();
        assert!(sol.cost() < 1e-6, "cost at origin = {}", sol.cost());
        assert!(sol.first_input()[0].abs() < 1e-6);
    }

    #[test]
    fn solve_respects_input_bounds() {
        let mpc = acc_mpc();
        let sol = mpc.solve(&[0.0, -12.0]).unwrap();
        for u in sol.u_sequence() {
            assert!(u[0] >= -48.0 - 1e-6 && u[0] <= 32.0 + 1e-6, "u = {}", u[0]);
        }
    }

    #[test]
    fn tightening_makes_marginal_states_infeasible() {
        // (25, −10) satisfies X but the s-drift over the horizon violates the
        // tightened bounds — the tube MPC must reject it.
        let mpc = acc_mpc();
        assert!(matches!(
            mpc.solve(&[25.0, -10.0]),
            Err(ControlError::Infeasible { .. })
        ));
    }

    #[test]
    fn predicted_states_satisfy_tightened_constraints() {
        let mpc = acc_mpc();
        let sol = mpc.solve(&[20.0, 8.0]).unwrap();
        for (k, xs) in sol.predicted_states().iter().enumerate().skip(1) {
            let set = if k < 10 {
                &mpc.tightened_sets()[k]
            } else {
                mpc.terminal_set()
            };
            assert!(
                set.contains_with_tol(xs, 1e-5),
                "x({k}) = {xs:?} violates its constraint set"
            );
        }
    }

    #[test]
    fn infeasible_far_outside() {
        let mpc = acc_mpc();
        let err = mpc.solve(&[100.0, 0.0]).unwrap_err();
        assert!(matches!(err, ControlError::Infeasible { .. }));
    }

    #[test]
    fn feasible_set_matches_online_solver() {
        let mpc = acc_mpc();
        let xf = mpc.feasible_set().unwrap();
        assert!(!xf.is_empty());
        // Sample a grid; membership in X_F must coincide with LP feasibility.
        let mut checked_in = 0;
        let mut checked_out = 0;
        for s in [-28.0, -20.0, -10.0, 0.0, 10.0, 20.0, 28.0] {
            for v in [-14.0, -7.0, 0.0, 7.0, 14.0] {
                let x = [s, v];
                let in_set = xf.contains_with_tol(&x, 1e-6);
                let solvable = mpc.solve(&x).is_ok();
                // Skip points within 1e-3 of the boundary to avoid tolerance
                // flapping.
                if xf.min_slack(&x).abs() < 1e-3 {
                    continue;
                }
                assert_eq!(in_set, solvable, "disagreement at {x:?}");
                if in_set {
                    checked_in += 1;
                } else {
                    checked_out += 1;
                }
            }
        }
        assert!(checked_in >= 5, "grid should hit interior points");
        assert!(checked_out >= 1, "grid should hit exterior points");
    }

    #[test]
    fn feasible_set_is_robust_control_invariant() {
        // Proposition 1: X_F is RCI. Certify via the Pre-inclusion check.
        let mpc = acc_mpc();
        let xf = mpc.feasible_set().unwrap();
        assert!(crate::verify_rci(mpc.plant(), &xf, 1e-5).unwrap());
    }

    /// The templated path must be **bit-identical** to the rebuild
    /// reference: same rows, same RHS arithmetic, same pivot sequence —
    /// this is the invariant that keeps `BENCH_batch.json` stable.
    #[test]
    fn templated_solve_is_bit_identical_to_rebuild_reference() {
        let mpc = acc_mpc();
        for x in [
            [0.0, 0.0],
            [5.0, 2.0],
            [20.0, 8.0],
            [-15.0, -3.5],
            [0.25, -12.0],
            [19.375, 0.125],
        ] {
            let templated = mpc.solve(&x).unwrap();
            let reference = solve_rebuild_reference(&mpc, &[1.0, 1.0], 0.5, &x).unwrap();
            assert_eq!(
                templated, reference,
                "bitwise divergence at {x:?} (PartialEq on f64 is exact)"
            );
        }
        // Infeasible verdicts agree too.
        assert!(matches!(
            mpc.solve(&[25.0, -10.0]),
            Err(ControlError::Infeasible { .. })
        ));
        assert!(matches!(
            solve_rebuild_reference(&mpc, &[1.0, 1.0], 0.5, &[25.0, -10.0]),
            Err(ControlError::Infeasible { .. })
        ));
    }

    /// Warm-started trajectory solves agree with cold solves to solver
    /// tolerance along a closed-loop rollout, and actually reuse the basis.
    #[test]
    fn warm_solve_tracks_cold_along_trajectory() {
        let mpc = acc_mpc();
        let sys = mpc.plant().system().clone();
        let mut warm = MpcWarmState::new();
        let mut x = vec![18.0, 6.0];
        for step in 0..15 {
            let warm_sol = mpc.solve_warm(&x, &mut warm).unwrap();
            let cold_sol = mpc.solve(&x).unwrap();
            assert!(
                (warm_sol.cost() - cold_sol.cost()).abs() < 1e-6,
                "step {step}: warm {} vs cold {}",
                warm_sol.cost(),
                cold_sol.cost()
            );
            for (w, c) in warm_sol.first_input().iter().zip(cold_sol.first_input()) {
                assert!((w - c).abs() < 1e-5, "step {step}: u {w} vs {c}");
            }
            let w_dist = if step % 2 == 0 { 1.0 } else { -1.0 };
            x = sys.step(&x, warm_sol.first_input(), &[w_dist, 0.0]);
        }
        assert_eq!(warm.solves(), 15);
        assert!(
            warm.warm_hits() >= 13,
            "warm hits: {} of {}",
            warm.warm_hits(),
            warm.solves()
        );
    }

    #[test]
    fn warm_state_survives_infeasible_queries() {
        let mpc = acc_mpc();
        let mut warm = MpcWarmState::new();
        assert!(mpc.solve_warm(&[5.0, 2.0], &mut warm).is_ok());
        assert!(matches!(
            mpc.solve_warm(&[25.0, -10.0], &mut warm),
            Err(ControlError::Infeasible { .. })
        ));
        let sol = mpc.solve_warm(&[5.0, 2.0], &mut warm).unwrap();
        let cold = mpc.solve(&[5.0, 2.0]).unwrap();
        assert!((sol.cost() - cold.cost()).abs() < 1e-6);
    }

    #[test]
    fn control_with_cache_matches_control_by_default() {
        // The cached entry point is the warm path: it agrees with the cold
        // `control` to solver tolerance and carries the basis onward.
        let mpc = acc_mpc();
        let mut cache = ControlCache::new();
        let cached = mpc.control_with_cache(&[5.0, 2.0], &mut cache).unwrap();
        let plain = mpc.control(&[5.0, 2.0]).unwrap();
        assert_eq!(cached.len(), plain.len());
        for (c, p) in cached.iter().zip(&plain) {
            assert!((c - p).abs() < 1e-9, "cached {c} vs control {p}");
        }
        // A second step reuses the basis the first one left in the cache.
        mpc.control_with_cache(&[5.0, 2.0], &mut cache).unwrap();
        assert_eq!(
            cache.mpc_warm().map(MpcWarmState::warm_hits),
            Some(1),
            "the cached path carries a basis"
        );
    }

    #[test]
    fn control_warm_matches_solve_warm_first_input() {
        let mpc = acc_mpc();
        let mut runtime = MpcWarmState::new();
        let mut full = MpcWarmState::new();
        for x in [[5.0, 2.0], [4.0, 1.5], [20.0, 8.0], [-15.0, -3.5]] {
            let u = mpc.control_warm(&x, &mut runtime).unwrap().to_vec();
            let sol = mpc.solve_warm(&x, &mut full).unwrap();
            assert_eq!(u, sol.first_input(), "at {x:?}");
        }
    }

    #[test]
    fn controller_trait_roundtrip() {
        let mpc = acc_mpc();
        let u = mpc.control(&[5.0, 2.0]).unwrap();
        assert_eq!(u.len(), 1);
        let sol = mpc.solve(&[5.0, 2.0]).unwrap();
        assert!((u[0] - sol.first_input()[0]).abs() < 1e-9);
    }
}
