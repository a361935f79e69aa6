//! User-facing linear-program builder. Every solve reads one standard form
//! per program structure, compiled by its nonzeros on first use: a cold
//! solve ([`LinearProgram::solve`]) runs the dense two-phase tableau on it,
//! and a warm one ([`LinearProgram::solve_warm`]) re-solves on the revised
//! engine from the basis the previous solve left behind.

use std::sync::{Arc, OnceLock};

use crate::revised::{solve_revised_warm, SparseMatrix, WarmCarry, WarmOutcome};
use crate::simplex::{solve_standard, StandardSolution};
use crate::LpError;

/// Direction of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `coeffs · x ≤ rhs`
    Le,
    /// `coeffs · x = rhs`
    Eq,
    /// `coeffs · x ≥ rhs`
    Ge,
}

/// Basis state carried between [`LinearProgram::solve_warm`] calls.
///
/// A carried basis is only reused by a program with the structure it was
/// recorded for (the same program, or a clone with no structural mutation
/// since); anything else falls back to a cold solve transparently. The
/// counters expose how often the fast path actually ran.
///
/// # Examples
///
/// ```
/// use oic_lp::{LinearProgram, WarmStart};
///
/// # fn main() -> Result<(), oic_lp::LpError> {
/// let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
/// for i in 0..10 {
///     lp.add_le(&[1.0, (i % 3) as f64 + 1.0], 4.0 + i as f64);
/// }
/// lp.set_lower_bound(0, 0.0);
/// lp.set_lower_bound(1, 0.0);
/// let mut warm = WarmStart::new();
/// let cold = lp.solve_warm(&mut warm)?; // cold: records the basis
/// let again = lp.solve_warm(&mut warm)?; // warm: zero-pivot resolve
/// assert!((cold.objective() - again.objective()).abs() < 1e-9);
/// assert!(warm.warm_hits() >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// The structure revision the carried basis belongs to.
    revision: u64,
    /// The carried basis.
    carry: WarmCarry,
    solves: u64,
    warm_hits: u64,
    fallbacks: u64,
    pivots: u64,
    last_fallback_reason: Option<&'static str>,
}

impl WarmStart {
    /// An empty warm start (the first solve through it runs cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the carried basis; the next solve runs cold. Structural
    /// mutations (constraints, bounds) are detected automatically via the
    /// program's revision counter, so this is only needed to force a cold
    /// re-solve explicitly.
    pub fn invalidate(&mut self) {
        self.carry.clear();
    }

    /// Total solves routed through this warm start.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Solves that reused the carried basis.
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits
    }

    /// Warm attempts that had to fall back to a cold solve (stale or
    /// unusable basis).
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Total simplex pivots across all solves routed through this warm
    /// start (cold and warm) — the number a warm sequence is minimizing.
    pub fn pivots(&self) -> u64 {
        self.pivots
    }

    /// Why the most recent fallback happened (`"singular-basis"`,
    /// `"not-restorable"` or `"numerical-trouble"`), if any occurred.
    pub fn last_fallback_reason(&self) -> Option<&'static str> {
        self.last_fallback_reason
    }
}

#[derive(Debug, Clone)]
struct Constraint {
    coeffs: Vec<f64>,
    relation: Relation,
    rhs: f64,
}

/// How each user variable maps to non-negative standard variables.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x_i = l + y_j`
    Shifted(usize, f64),
    /// `x_i = u − y_j`
    Mirrored(usize, f64),
    /// `x_i = y_jp − y_jm`
    Split(usize, usize),
}

/// Substitutes `coeffs · x` into standard variables: `put(j, v)` receives
/// each term `v · y_j`, ascending in `j`, and the constant term is
/// returned.
fn substitute(var_map: &[VarMap], coeffs: &[f64], mut put: impl FnMut(usize, f64)) -> f64 {
    let mut constant = 0.0;
    for (&ci, map) in coeffs.iter().zip(var_map) {
        if ci == 0.0 {
            continue;
        }
        match *map {
            VarMap::Shifted(j, l) => {
                put(j, ci);
                constant += ci * l;
            }
            VarMap::Mirrored(j, u) => {
                put(j, -ci);
                constant += ci * u;
            }
            VarMap::Split(jp, jm) => {
                put(jp, ci);
                put(jm, -ci);
            }
        }
    }
    constant
}

/// The standard form `min cᵀy, Ay = b, y ≥ 0` of one program structure,
/// compiled once and read by every solve: per solve only the `b` and `c`
/// vectors are assembled. `b` keeps its sign (the cold tableau negates the
/// rows it needs to), so the column space does not depend on the RHS
/// values, which is what makes a basis reusable across a warm-started
/// resolve sequence.
#[derive(Debug)]
struct CompiledForm {
    /// The constraint matrix, by its nonzeros: one row per user
    /// constraint (`Ge` rows negated), then one per two-sided bound; every
    /// `≤` row owns a `+1` slack column after the structural ones.
    a: SparseMatrix,
    var_map: Vec<VarMap>,
    /// Per row: its slack column (`None` for `Eq` rows).
    slack: Vec<Option<usize>>,
    /// Per user constraint: row orientation (−1 for `Ge` rows).
    sign: Vec<f64>,
    /// Per user constraint: substitution constant subtracted from the RHS.
    constant: Vec<f64>,
    /// RHS of the appended two-sided-bound range rows (fixed per shape).
    range_rhs: Vec<f64>,
}

impl CompiledForm {
    /// Assembles the standard-form RHS for the current (possibly
    /// overridden) user RHS values — the only per-solve work besides the
    /// cost vector.
    fn rhs_vector(&self, lp: &LinearProgram, rhs_override: Option<&[f64]>) -> Vec<f64> {
        let mut b = Vec::with_capacity(self.a.num_rows());
        for (i, c) in lp.constraints.iter().enumerate() {
            let user = rhs_override.map_or(c.rhs, |r| r[i]);
            let mut rhs = user - self.constant[i];
            if self.sign[i] < 0.0 {
                rhs = -rhs;
            }
            b.push(rhs);
        }
        b.extend_from_slice(&self.range_rhs);
        b
    }

    /// Substitutes the current costs into standard variables.
    fn cost_vector(&self, lp: &LinearProgram) -> (Vec<f64>, f64) {
        let mut c = vec![0.0; self.a.num_cols()];
        let constant = substitute(&self.var_map, &lp.costs, |j, v| c[j] = v);
        (c, constant)
    }
}

/// A linear program over real variables.
///
/// Variables are **free** (unbounded) by default; use
/// [`set_lower_bound`](Self::set_lower_bound) /
/// [`set_upper_bound`](Self::set_upper_bound) to bound them. The builder is
/// non-consuming: configure, then call [`solve`](Self::solve) as many times
/// as needed (e.g. after adding constraints). Repeated solves that differ
/// only in right-hand sides or objective should go through
/// [`solve_warm`](Self::solve_warm) with a carried [`WarmStart`].
///
/// # Examples
///
/// ```
/// use oic_lp::LinearProgram;
///
/// # fn main() -> Result<(), oic_lp::LpError> {
/// // Support function of the box [-1,1]² in direction (3,4): value 7.
/// let mut lp = LinearProgram::maximize(&[3.0, 4.0]);
/// lp.set_bounds(0, -1.0, 1.0);
/// lp.set_bounds(1, -1.0, 1.0);
/// let sol = lp.solve()?;
/// assert!((sol.objective() - 7.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LinearProgram {
    /// Minimization costs (already negated for maximize problems).
    costs: Vec<f64>,
    maximize: bool,
    constraints: Vec<Constraint>,
    lower: Vec<Option<f64>>,
    upper: Vec<Option<f64>>,
    /// Process-unique structure revision: advanced by every mutation that
    /// changes the constraint matrix or bound structure (not by RHS or
    /// cost updates). Guards the basis carried in a [`WarmStart`].
    structure_rev: u64,
    /// The compiled form of the current structure, shared by reference
    /// count with every clone made after it was compiled; structural
    /// mutations drop it.
    compiled: OnceLock<Arc<CompiledForm>>,
}

/// Draws a process-unique structure revision (uniqueness across program
/// instances is what makes the O(1) compiled-form guard sound).
fn next_revision() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Solution of a [`LinearProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    x: Vec<f64>,
    objective: f64,
}

impl LpSolution {
    /// Optimal variable values, in the order variables were declared.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Optimal objective value (in the user's orientation: maximal value for
    /// maximize problems, minimal for minimize problems).
    pub fn objective(&self) -> f64 {
        self.objective
    }
}

impl LinearProgram {
    /// Creates a minimization problem `min cᵀx` with one variable per cost
    /// entry.
    ///
    /// # Panics
    ///
    /// Panics if `costs` is empty.
    pub fn minimize(costs: &[f64]) -> Self {
        assert!(
            !costs.is_empty(),
            "objective must have at least one variable"
        );
        Self {
            costs: costs.to_vec(),
            maximize: false,
            constraints: Vec::new(),
            lower: vec![None; costs.len()],
            upper: vec![None; costs.len()],
            structure_rev: next_revision(),
            compiled: OnceLock::new(),
        }
    }

    /// Creates a maximization problem `max cᵀx`.
    ///
    /// # Panics
    ///
    /// Panics if `costs` is empty.
    pub fn maximize(costs: &[f64]) -> Self {
        let mut lp = Self::minimize(&costs.iter().map(|c| -c).collect::<Vec<_>>());
        lp.maximize = true;
        lp
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Returns `true` for problems built with [`maximize`](Self::maximize).
    pub fn is_maximize(&self) -> bool {
        self.maximize
    }

    /// Number of constraints added so far (excluding variable bounds).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a general constraint `coeffs · x REL rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the number of variables or if
    /// any coefficient is non-finite.
    pub fn add_constraint(&mut self, coeffs: &[f64], relation: Relation, rhs: f64) -> &mut Self {
        assert_eq!(coeffs.len(), self.num_vars(), "coefficient length mismatch");
        assert!(
            coeffs
                .iter()
                .chain(std::iter::once(&rhs))
                .all(|v| v.is_finite()),
            "constraint entries must be finite"
        );
        self.constraints.push(Constraint {
            coeffs: coeffs.to_vec(),
            relation,
            rhs,
        });
        self.structure_changed();
        self
    }

    /// Adds `coeffs · x ≤ rhs`.
    pub fn add_le(&mut self, coeffs: &[f64], rhs: f64) -> &mut Self {
        self.add_constraint(coeffs, Relation::Le, rhs)
    }

    /// Adds `coeffs · x ≥ rhs`.
    pub fn add_ge(&mut self, coeffs: &[f64], rhs: f64) -> &mut Self {
        self.add_constraint(coeffs, Relation::Ge, rhs)
    }

    /// Adds `coeffs · x = rhs`.
    pub fn add_eq(&mut self, coeffs: &[f64], rhs: f64) -> &mut Self {
        self.add_constraint(coeffs, Relation::Eq, rhs)
    }

    /// Replaces the objective coefficients, keeping the orientation the
    /// program was built with (`costs` is interpreted exactly like the
    /// constructor argument).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the variable count or any entry is
    /// non-finite.
    pub fn set_objective(&mut self, costs: &[f64]) -> &mut Self {
        assert_eq!(costs.len(), self.num_vars(), "objective length mismatch");
        assert!(
            costs.iter().all(|v| v.is_finite()),
            "objective entries must be finite"
        );
        for (slot, &c) in self.costs.iter_mut().zip(costs) {
            *slot = if self.maximize { -c } else { c };
        }
        self
    }

    /// Sets a lower bound `x[i] ≥ bound`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `bound` is not finite.
    pub fn set_lower_bound(&mut self, i: usize, bound: f64) -> &mut Self {
        assert!(i < self.num_vars(), "variable index out of range");
        assert!(bound.is_finite(), "bound must be finite");
        self.lower[i] = Some(bound);
        self.structure_changed();
        self
    }

    /// Sets an upper bound `x[i] ≤ bound`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `bound` is not finite.
    pub fn set_upper_bound(&mut self, i: usize, bound: f64) -> &mut Self {
        assert!(i < self.num_vars(), "variable index out of range");
        assert!(bound.is_finite(), "bound must be finite");
        self.upper[i] = Some(bound);
        self.structure_changed();
        self
    }

    /// Advances the structure revision and drops the compiled form.
    fn structure_changed(&mut self) {
        self.structure_rev = next_revision();
        self.compiled = OnceLock::new();
    }

    /// Sets both bounds `lo ≤ x[i] ≤ hi`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range, bounds are non-finite, or `lo > hi`.
    pub fn set_bounds(&mut self, i: usize, lo: f64, hi: f64) -> &mut Self {
        assert!(lo <= hi, "lower bound exceeds upper bound");
        self.set_lower_bound(i, lo);
        self.set_upper_bound(i, hi)
    }

    /// Maps a standard-form solution back to user variables.
    fn finish(&self, var_map: &[VarMap], obj_constant: f64, sol: &StandardSolution) -> LpSolution {
        let mut x = vec![0.0; self.num_vars()];
        for (i, vm) in var_map.iter().enumerate() {
            x[i] = match *vm {
                VarMap::Shifted(j, l) => l + sol.x[j],
                VarMap::Mirrored(j, u) => u - sol.x[j],
                VarMap::Split(jp, jm) => sol.x[jp] - sol.x[jm],
            };
        }
        let mut objective = sol.objective + obj_constant;
        if self.maximize {
            objective = -objective;
        }
        LpSolution { x, objective }
    }

    /// Compiles the standard form every solve reads now instead of on the
    /// first solve, so that every clone made afterwards shares this one
    /// form (by reference count) rather than compiling its own.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`] when a variable's bounds cross.
    pub fn compile_form(&self) -> Result<(), LpError> {
        self.form().map(|_| ())
    }

    /// The compiled form of the current structure, compiled on first use.
    fn form(&self) -> Result<&CompiledForm, LpError> {
        if let Some(form) = self.compiled.get() {
            return Ok(form);
        }
        let form = Arc::new(self.compile()?);
        Ok(self.compiled.get_or_init(|| form))
    }

    /// Compiles the standard form (see [`CompiledForm`]) in one pass over
    /// the constraints.
    fn compile(&self) -> Result<CompiledForm, LpError> {
        // Variable substitution to non-negative standard variables; a
        // two-sided bound adds a range row `y_j ≤ u − l`.
        let mut var_map = Vec::with_capacity(self.num_vars());
        let mut n_std = 0usize;
        let mut ranges: Vec<(usize, f64)> = Vec::new();
        for (&lower, &upper) in self.lower.iter().zip(&self.upper) {
            match (lower, upper) {
                (Some(l), Some(u)) => {
                    if u < l {
                        return Err(LpError::Infeasible);
                    }
                    var_map.push(VarMap::Shifted(n_std, l));
                    ranges.push((n_std, u - l));
                    n_std += 1;
                }
                (Some(l), None) => {
                    var_map.push(VarMap::Shifted(n_std, l));
                    n_std += 1;
                }
                (None, Some(u)) => {
                    var_map.push(VarMap::Mirrored(n_std, u));
                    n_std += 1;
                }
                (None, None) => {
                    var_map.push(VarMap::Split(n_std, n_std + 1));
                    n_std += 2;
                }
            }
        }

        let nc = self.constraints.len();
        let rows = nc + ranges.len();
        let mut start = Vec::with_capacity(rows + 1);
        start.push(0);
        let mut entries = Vec::new();
        let mut slack = Vec::with_capacity(rows);
        let mut sign = Vec::with_capacity(nc);
        let mut constant = Vec::with_capacity(nc);
        let mut slack_col = n_std;
        for c in &self.constraints {
            let s = if c.relation == Relation::Ge {
                -1.0
            } else {
                1.0
            };
            constant.push(substitute(&var_map, &c.coeffs, |j, v| {
                entries.push((j, s * v))
            }));
            sign.push(s);
            if c.relation == Relation::Eq {
                slack.push(None);
            } else {
                entries.push((slack_col, 1.0));
                slack.push(Some(slack_col));
                slack_col += 1;
            }
            start.push(entries.len());
        }
        let mut range_rhs = Vec::with_capacity(ranges.len());
        for (j, range) in ranges {
            entries.extend([(j, 1.0), (slack_col, 1.0)]);
            slack.push(Some(slack_col));
            slack_col += 1;
            start.push(entries.len());
            range_rhs.push(range);
        }
        Ok(CompiledForm {
            a: SparseMatrix::from_rows(start, entries, slack_col),
            var_map,
            slack,
            sign,
            constant,
            range_rhs,
        })
    }

    /// Cold solve on the dense tableau: the solution, its pivot count and,
    /// when it holds no artificial column, its optimal basis.
    fn solve_cold(
        &self,
        rhs_override: Option<&[f64]>,
    ) -> Result<(LpSolution, usize, Option<Vec<usize>>), LpError> {
        oic_obs::counter!("lp.solves", "solves").incr();
        let form = self.form()?;
        let b = form.rhs_vector(self, rhs_override);
        let (c, obj_constant) = form.cost_vector(self);
        let (sol, basis) = solve_standard(&form.a, &b, &c, &form.slack)?;
        oic_obs::counter!("lp.pivots", "pivots").add(sol.iters as u64);
        Ok((
            self.finish(&form.var_map, obj_constant, &sol),
            sol.iters,
            basis,
        ))
    }

    /// Solves the program.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] — the constraints admit no solution.
    /// * [`LpError::Unbounded`] — the objective is unbounded.
    /// * [`LpError::IterationLimit`] — the pivot limit was reached, which
    ///   indicates severe degeneracy or ill-conditioning.
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        self.solve_cold(None).map(|(solution, ..)| solution)
    }

    /// Solves with the stored constraint right-hand sides replaced by
    /// `rhs` (one entry per constraint, bounds excluded) — the program
    /// itself is not mutated, so a shared template can serve many solves.
    ///
    /// # Errors
    ///
    /// Same contract as [`solve`](Self::solve).
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != self.num_constraints()` or any entry is
    /// non-finite.
    pub fn solve_with_rhs(&self, rhs: &[f64]) -> Result<LpSolution, LpError> {
        assert_eq!(
            rhs.len(),
            self.num_constraints(),
            "rhs override length mismatch"
        );
        assert!(
            rhs.iter().all(|v| v.is_finite()),
            "rhs entries must be finite"
        );
        self.solve_cold(Some(rhs)).map(|(solution, ..)| solution)
    }

    /// Solves the program, carrying the optimal basis in `warm` so the
    /// *next* solve through the same `WarmStart` can skip phase 1 and most
    /// pivots. With a carried basis the revised engine re-solves from it;
    /// without one, or when it cannot be restored, the solve runs cold on
    /// the tableau and seeds `warm` with the tableau's optimal basis.
    ///
    /// # Errors
    ///
    /// Same contract as [`solve`](Self::solve).
    pub fn solve_warm(&self, warm: &mut WarmStart) -> Result<LpSolution, LpError> {
        self.solve_warm_impl(None, warm)
    }

    /// [`solve_with_rhs`](Self::solve_with_rhs) with warm-start carry —
    /// the fast path for RHS-perturbed resolve sequences (templated MPC).
    ///
    /// # Errors
    ///
    /// Same contract as [`solve`](Self::solve).
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != self.num_constraints()` or any entry is
    /// non-finite.
    pub fn solve_warm_with_rhs(
        &self,
        rhs: &[f64],
        warm: &mut WarmStart,
    ) -> Result<LpSolution, LpError> {
        assert_eq!(
            rhs.len(),
            self.num_constraints(),
            "rhs override length mismatch"
        );
        assert!(
            rhs.iter().all(|v| v.is_finite()),
            "rhs entries must be finite"
        );
        self.solve_warm_impl(Some(rhs), warm)
    }

    fn solve_warm_impl(
        &self,
        rhs_override: Option<&[f64]>,
        warm: &mut WarmStart,
    ) -> Result<LpSolution, LpError> {
        warm.solves += 1;
        let compiled = self.form()?;
        // A basis recorded for another structure indexes other columns
        // (RHS/cost updates keep the revision, so they stay warm).
        if warm.revision != self.structure_rev {
            warm.revision = self.structure_rev;
            warm.carry.clear();
        }
        let WarmStart {
            carry,
            warm_hits,
            fallbacks,
            pivots,
            last_fallback_reason,
            ..
        } = warm;
        if !carry.is_empty() && carry.basis.len() == compiled.a.num_rows() {
            let b = compiled.rhs_vector(self, rhs_override);
            let (c_std, obj_constant) = compiled.cost_vector(self);
            match solve_revised_warm(&compiled.a, &b, &c_std, carry) {
                WarmOutcome::Solved(sol) => {
                    *warm_hits += 1;
                    *pivots += sol.iters as u64;
                    oic_obs::counter!("lp.solves", "solves").incr();
                    oic_obs::counter!("lp.warm_hits", "solves").incr();
                    oic_obs::counter!("lp.pivots", "pivots").add(sol.iters as u64);
                    return Ok(self.finish(&compiled.var_map, obj_constant, &sol));
                }
                WarmOutcome::Lp(e) => return Err(e),
                WarmOutcome::Fallback(failure) => {
                    *fallbacks += 1;
                    *last_fallback_reason = Some(failure.reason());
                    oic_obs::counter!("lp.warm_fallbacks", "solves").incr();
                    carry.clear();
                }
            }
        }

        // Cold path; seed the warm start for the next call when the final
        // basis is artificial-free (a basis containing a zero-level
        // artificial would not transfer to the compiled column space).
        let (solution, iters, basis) = self.solve_cold(rhs_override)?;
        warm.pivots += iters as u64;
        match basis {
            Some(basis) => warm.carry.basis = basis,
            None => warm.carry.clear(),
        }
        Ok(solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maximize_with_nonneg_vars() {
        let mut lp = LinearProgram::maximize(&[3.0, 5.0]);
        lp.add_le(&[1.0, 0.0], 4.0);
        lp.add_le(&[0.0, 2.0], 12.0);
        lp.add_le(&[3.0, 2.0], 18.0);
        lp.set_lower_bound(0, 0.0);
        lp.set_lower_bound(1, 0.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective() - 36.0).abs() < 1e-9);
        assert!((sol.x()[0] - 2.0).abs() < 1e-9);
        assert!((sol.x()[1] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn free_variables_support_function() {
        // max (1,1)·x over the diamond |x1| + |x2| <= 1: optimum 1.
        let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
        lp.add_le(&[1.0, 1.0], 1.0);
        lp.add_le(&[1.0, -1.0], 1.0);
        lp.add_le(&[-1.0, 1.0], 1.0);
        lp.add_le(&[-1.0, -1.0], 1.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn negative_rhs_handled() {
        // min x s.t. x <= -3 and x >= -10.
        let mut lp = LinearProgram::minimize(&[1.0]);
        lp.add_le(&[1.0], -3.0);
        lp.add_ge(&[1.0], -10.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective() + 10.0).abs() < 1e-9);
    }

    #[test]
    fn equality_constraint() {
        // min x1 + 2x2 s.t. x1 + x2 = 3, x1 - x2 >= -1, free vars.
        // Optimum pushes x2 as small as allowed: x1 - x2 >= -1 with
        // x1 = 3 - x2 gives 3 - 2x2 >= -1, x2 <= 2 -> x = (1, 2)? cost 5;
        // but decreasing x2 lowers cost: x2 unbounded below? x1 = 3 - x2
        // grows, cost = 3 - x2 + 2x2 = 3 + x2 -> unbounded below without
        // more constraints. Add x2 >= 0: optimum x = (3, 0), cost 3.
        let mut lp = LinearProgram::minimize(&[1.0, 2.0]);
        lp.add_eq(&[1.0, 1.0], 3.0);
        lp.add_ge(&[1.0, -1.0], -1.0);
        lp.set_lower_bound(1, 0.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective() - 3.0).abs() < 1e-9);
        assert!((sol.x()[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn upper_bounded_only_variable() {
        // max x s.t. x <= 5 via bound: Mirrored mapping.
        let mut lp = LinearProgram::maximize(&[1.0]);
        lp.set_upper_bound(0, 5.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn two_sided_bounds() {
        let mut lp = LinearProgram::minimize(&[1.0, -1.0]);
        lp.set_bounds(0, -2.0, 3.0);
        lp.set_bounds(1, -4.0, 7.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective() - (-2.0 - 7.0)).abs() < 1e-9);
        assert!((sol.x()[0] + 2.0).abs() < 1e-9);
        assert!((sol.x()[1] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn crossing_bounds_infeasible() {
        let mut lp = LinearProgram::minimize(&[1.0]);
        lp.set_lower_bound(0, 2.0);
        lp.set_upper_bound(0, 1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn infeasible_constraints() {
        let mut lp = LinearProgram::minimize(&[0.0, 0.0]);
        lp.add_le(&[1.0, 1.0], 1.0);
        lp.add_ge(&[1.0, 1.0], 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_free_problem() {
        let mut lp = LinearProgram::minimize(&[1.0]);
        lp.add_le(&[1.0], 10.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn degenerate_problem_solves() {
        // Multiple constraints active at the optimum.
        let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
        lp.add_le(&[1.0, 0.0], 1.0);
        lp.add_le(&[0.0, 1.0], 1.0);
        lp.add_le(&[1.0, 1.0], 2.0);
        lp.add_le(&[2.0, 1.0], 3.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_objective_feasibility_check() {
        let mut lp = LinearProgram::minimize(&[0.0, 0.0]);
        lp.add_eq(&[1.0, 1.0], 1.0);
        lp.add_ge(&[1.0, 0.0], 0.25);
        let sol = lp.solve().unwrap();
        assert!(sol.x()[0] >= 0.25 - 1e-9);
        assert!((sol.x()[0] + sol.x()[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn solution_reuse_after_adding_constraint() {
        let mut lp = LinearProgram::maximize(&[1.0]);
        lp.set_bounds(0, 0.0, 10.0);
        assert!((lp.solve().unwrap().objective() - 10.0).abs() < 1e-9);
        lp.add_le(&[1.0], 4.0);
        assert!((lp.solve().unwrap().objective() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn solve_with_rhs_leaves_program_untouched() {
        let mut lp = LinearProgram::maximize(&[1.0]);
        lp.set_lower_bound(0, 0.0);
        lp.add_le(&[1.0], 10.0);
        let tight = lp.solve_with_rhs(&[4.0]).unwrap();
        assert!((tight.objective() - 4.0).abs() < 1e-9);
        let original = lp.solve().unwrap();
        assert!((original.objective() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn warm_start_sequence_matches_cold_solves() {
        let mut lp = LinearProgram::maximize(&[2.0, 1.0]);
        lp.add_le(&[1.0, 1.0], 10.0);
        lp.add_le(&[1.0, -1.0], 4.0);
        lp.add_le(&[0.5, 2.0], 9.0);
        lp.set_lower_bound(0, 0.0);
        lp.set_lower_bound(1, 0.0);
        let mut warm = WarmStart::new();
        for shift in [0.0, 1.0, -0.5, 2.0, -1.5] {
            let rhs = [10.0 + shift, 4.0 - shift * 0.5, 9.0 + shift];
            let warm_sol = lp.solve_warm_with_rhs(&rhs, &mut warm).unwrap();
            let cold_sol = lp.solve_with_rhs(&rhs).unwrap();
            assert!(
                (warm_sol.objective() - cold_sol.objective()).abs() < 1e-7,
                "shift {shift}: warm {} vs cold {}",
                warm_sol.objective(),
                cold_sol.objective()
            );
        }
        assert_eq!(warm.solves(), 5);
        assert!(warm.warm_hits() >= 3, "warm hits: {}", warm.warm_hits());
    }

    #[test]
    fn warm_start_survives_objective_change() {
        let mut lp = LinearProgram::maximize(&[1.0, 0.0]);
        lp.add_le(&[1.0, 1.0], 4.0);
        lp.add_le(&[1.0, -1.0], 2.0);
        lp.set_lower_bound(0, 0.0);
        lp.set_lower_bound(1, 0.0);
        let mut warm = WarmStart::new();
        let first = lp.solve_warm(&mut warm).unwrap();
        assert!((first.objective() - 3.0).abs() < 1e-9);
        lp.set_objective(&[0.0, 1.0]);
        let second = lp.solve_warm(&mut warm).unwrap();
        assert!((second.objective() - 4.0).abs() < 1e-9);
        assert!(warm.warm_hits() >= 1);
    }

    #[test]
    fn clones_share_one_compiled_form_until_a_structural_mutation() {
        let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
        lp.add_le(&[1.0, 2.0], 4.0);
        lp.add_le(&[3.0, 1.0], 6.0);
        lp.set_lower_bound(0, 0.0);
        lp.set_lower_bound(1, 0.0);
        lp.compile_form().unwrap();
        let clone = lp.clone();
        let form = |lp: &LinearProgram| lp.compiled.get().cloned();
        assert!(Arc::ptr_eq(&form(&lp).unwrap(), &form(&clone).unwrap()));
        let mut warm = WarmStart::new();
        clone.solve_warm(&mut warm).unwrap();
        let mut mutated = lp.clone();
        mutated.add_le(&[1.0, 0.0], 1.0);
        assert!(mutated.compiled.get().is_none());
        assert!(lp.compiled.get().is_some(), "the original keeps its form");
        // The carried basis belongs to the old structure: no warm hit.
        let sol = mutated.solve_warm(&mut warm).unwrap();
        assert!((sol.objective() - 2.5).abs() < 1e-9);
        assert_eq!(warm.warm_hits(), 0);
        assert!(mutated.solve_warm(&mut warm).is_ok());
        assert_eq!(warm.warm_hits(), 1, "warm again on the new structure");
    }

    #[test]
    fn warm_infeasible_rhs_reports_infeasible() {
        let mut lp = LinearProgram::minimize(&[0.0]);
        lp.add_le(&[1.0], 5.0);
        lp.add_ge(&[1.0], 1.0);
        let mut warm = WarmStart::new();
        assert!(lp.solve_warm(&mut warm).is_ok());
        // rhs: x ≤ 0 while x ≥ 1 stays → infeasible.
        let err = lp.solve_warm_with_rhs(&[0.0, 1.0], &mut warm).unwrap_err();
        assert_eq!(err, LpError::Infeasible);
    }
}
