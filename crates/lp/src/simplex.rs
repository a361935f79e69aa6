//! Dense two-phase tableau simplex engine.
//!
//! This module solves *standard form* problems
//! `min cᵀx  s.t.  Ax = b, x ≥ 0` for `b` of any sign, reading `A` from
//! the compiled sparse form (a row with a negative RHS enters the tableau
//! negated). It is only used through [`crate::LinearProgram`], which
//! compiles the general user-facing form.

use crate::revised::SparseMatrix;
use crate::LpError;

/// Numerical tolerance for pivot selection and feasibility tests.
pub(crate) const EPS: f64 = 1e-9;

/// Maximum number of pivots before declaring numerical trouble.
const MAX_ITER: usize = 50_000;

/// Number of Dantzig-rule pivots before switching to Bland's rule.
///
/// Dantzig's rule (most negative reduced cost) is fast in practice but can
/// cycle on degenerate problems; Bland's rule terminates but is slow. The
/// standard remedy is to start with Dantzig and fall back to Bland.
const BLAND_SWITCH: usize = 5_000;

/// Result of an engine: optimal basic solution in standard-form variables.
#[derive(Debug)]
pub(crate) struct StandardSolution {
    pub x: Vec<f64>,
    pub objective: f64,
    /// Pivots performed (warm-start telemetry).
    pub iters: usize,
}

struct Tableau {
    /// Number of constraint rows.
    m: usize,
    /// Number of structural + slack + artificial columns.
    n: usize,
    /// `(m + 1) × (n + 1)` row-major buffer; row `m` is the objective row,
    /// column `n` is the right-hand side.
    t: Vec<f64>,
    /// Basic variable for each constraint row.
    basis: Vec<usize>,
    /// First artificial column index (`n` if none).
    art_start: usize,
    /// Total pivots performed (shared across both phases).
    iters: usize,
}

impl Tableau {
    #[inline]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.t[i * (self.n + 1) + j]
    }

    #[inline]
    fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.t[i * (self.n + 1) + j]
    }

    /// Performs a pivot on `(row, col)`: normalizes the pivot row and
    /// eliminates `col` from every other row (including the objective row).
    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.n + 1;
        let pivot = self.at(row, col);
        debug_assert!(pivot.abs() > EPS, "pivot too small: {pivot}");
        let inv = 1.0 / pivot;
        for j in 0..w {
            self.t[row * w + j] *= inv;
        }
        // Disjoint pivot-row/target-row views via `split_at_mut` — the old
        // code snapshotted the pivot row into a fresh `Vec` on every pivot,
        // which dominated allocator traffic on MPC-sized tableaus.
        for i in 0..=self.m {
            if i == row {
                continue;
            }
            let factor = self.at(i, col);
            if factor.abs() <= 1e-13 {
                continue;
            }
            let (pivot_row, target) = if i < row {
                let (head, tail) = self.t.split_at_mut(row * w);
                (&tail[..w], &mut head[i * w..(i + 1) * w])
            } else {
                let (head, tail) = self.t.split_at_mut(i * w);
                (&head[row * w..(row + 1) * w], &mut tail[..w])
            };
            for (t, p) in target.iter_mut().zip(pivot_row) {
                *t -= factor * p;
            }
            // Guard against drift: the eliminated entry is exactly zero.
            self.t[i * w + col] = 0.0;
        }
        self.basis[row] = col;
        self.iters += 1;
    }

    /// Chooses the entering column.
    ///
    /// Columns `>= allowed_end` (artificials in phase 2) are never selected.
    fn entering(&self, bland: bool, allowed_end: usize) -> Option<usize> {
        if bland {
            (0..allowed_end).find(|&j| self.at(self.m, j) < -EPS)
        } else {
            let mut best = None;
            let mut best_val = -EPS;
            for j in 0..allowed_end {
                let rc = self.at(self.m, j);
                if rc < best_val {
                    best_val = rc;
                    best = Some(j);
                }
            }
            best
        }
    }

    /// Ratio test: picks the leaving row for entering column `col`.
    ///
    /// Ties are broken by the smallest basis index (part of Bland's rule).
    fn leaving(&self, col: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.m {
            let a = self.at(i, col);
            if a > EPS {
                let ratio = self.at(i, self.n) / a;
                match best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        if ratio < br - EPS || (ratio < br + EPS && self.basis[i] < self.basis[bi])
                        {
                            best = Some((i, ratio));
                        }
                    }
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Runs the simplex loop until optimality, unboundedness, or the
    /// iteration limit.
    fn run(&mut self, allowed_end: usize) -> Result<(), LpError> {
        loop {
            if self.iters >= MAX_ITER {
                return Err(LpError::IterationLimit);
            }
            let bland = self.iters >= BLAND_SWITCH;
            let Some(col) = self.entering(bland, allowed_end) else {
                return Ok(());
            };
            let Some(row) = self.leaving(col) else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
        }
    }
}

/// Solves `min cᵀx  s.t.  Ax = b, x ≥ 0` with the two-phase method,
/// returning the optimum and, when it holds no artificial column, its
/// basis (one column per row: the seed of a warm start).
///
/// Each row with `bᵢ < 0` enters the tableau negated, so the RHS column
/// starts non-negative. `slack[i]` names row `i`'s `+1` slack column, its
/// initial basic variable; a row without one, or a negated row (whose
/// slack is then `−1`), starts on an artificial column instead.
pub(crate) fn solve_standard(
    a: &SparseMatrix,
    b: &[f64],
    c: &[f64],
    slack: &[Option<usize>],
) -> Result<(StandardSolution, Option<Vec<usize>>), LpError> {
    let m = b.len();
    let n0 = c.len();
    debug_assert_eq!(a.num_rows(), m);
    debug_assert_eq!(a.num_cols(), n0);
    debug_assert_eq!(slack.len(), m);

    let hint = |i: usize| if b[i] < 0.0 { None } else { slack[i] };
    let n_art = (0..m).filter(|&i| hint(i).is_none()).count();
    let n = n0 + n_art;
    let w = n + 1;

    let mut t = vec![0.0; (m + 1) * w];
    let mut basis = vec![0usize; m];
    let mut art_col = n0;
    for (i, row) in t.chunks_exact_mut(w).take(m).enumerate() {
        let flip = b[i] < 0.0;
        for &(j, v) in a.row(i) {
            row[j] = if flip { -v } else { v };
        }
        row[n] = (if flip { -b[i] } else { b[i] }).max(0.0);
        if let Some(h) = hint(i) {
            basis[i] = h;
        } else {
            row[art_col] = 1.0;
            basis[i] = art_col;
            art_col += 1;
        }
    }

    let mut tab = Tableau {
        m,
        n,
        t,
        basis,
        art_start: n0,
        iters: 0,
    };

    // ---- Phase 1: minimize the sum of artificial variables. ----
    if n_art > 0 {
        oic_obs::counter!("lp.phase1_entries", "count").incr();
        // Objective row: cost 1 on artificials, reduced by the rows that
        // start on one so artificial columns start with reduced cost zero.
        for j in tab.art_start..tab.n {
            *tab.at_mut(m, j) = 1.0;
        }
        for i in 0..m {
            if tab.basis[i] >= tab.art_start {
                for j in 0..w {
                    let v = tab.at(i, j);
                    *tab.at_mut(m, j) -= v;
                }
            }
        }
        tab.run(n)?;
        let phase1_obj = -tab.at(m, n);
        if phase1_obj > 1e-7 {
            return Err(LpError::Infeasible);
        }
        // Drive remaining (zero-level) artificials out of the basis.
        for row in 0..m {
            if tab.basis[row] >= tab.art_start {
                let col = (0..tab.art_start).find(|&j| tab.at(row, j).abs() > EPS);
                if let Some(col) = col {
                    tab.pivot(row, col);
                }
                // If no structural column is available the row is redundant;
                // the artificial stays basic at level zero and is prevented
                // from increasing because phase 2 never pivots on artificial
                // columns and feasibility (rhs >= 0) is preserved.
            }
        }
    }

    // ---- Phase 2: original objective. ----
    // Rebuild the objective row from the original costs expressed over the
    // current basis: z_j = c_j - c_B B^{-1} A_j; rhs = -c_B B^{-1} b.
    for j in 0..w {
        *tab.at_mut(m, j) = 0.0;
    }
    for (j, &cj) in c.iter().enumerate() {
        *tab.at_mut(m, j) = cj;
    }
    for row in 0..m {
        let bvar = tab.basis[row];
        let cb = if bvar < n0 { c[bvar] } else { 0.0 };
        if cb == 0.0 {
            continue;
        }
        for j in 0..w {
            let v = tab.at(row, j);
            *tab.at_mut(m, j) -= cb * v;
        }
    }
    tab.run(tab.art_start)?;

    // Extract the solution.
    let mut x = vec![0.0; n0];
    for row in 0..m {
        let bvar = tab.basis[row];
        if bvar < n0 {
            x[bvar] = tab.at(row, n);
        }
    }
    let objective = -tab.at(m, n);
    let basis = tab.basis.iter().all(|&j| j < n0).then_some(tab.basis);
    Ok((
        StandardSolution {
            x,
            objective,
            iters: tab.iters,
        },
        basis,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tableau solve of the standard form with the dense matrix `a`.
    fn solve_dense(
        a: &[Vec<f64>],
        b: &[f64],
        c: &[f64],
        slack: &[Option<usize>],
    ) -> Result<StandardSolution, LpError> {
        solve_standard(&SparseMatrix::from_dense(a, c.len()), b, c, slack).map(|(sol, _)| sol)
    }

    /// min -x1 - x2 s.t. x1 + 2x2 + s1 = 4; 3x1 + x2 + s2 = 6; all >= 0.
    #[test]
    fn basic_two_var_lp() {
        let sol = solve_dense(
            &[vec![1.0, 2.0, 1.0, 0.0], vec![3.0, 1.0, 0.0, 1.0]],
            &[4.0, 6.0],
            &[-1.0, -1.0, 0.0, 0.0],
            &[Some(2), Some(3)],
        )
        .unwrap();
        assert!((sol.objective + 2.8).abs() < 1e-9, "{}", sol.objective);
        assert!((sol.x[0] - 1.6).abs() < 1e-9);
        assert!((sol.x[1] - 1.2).abs() < 1e-9);
    }

    /// Equality constraints force artificial variables through phase 1.
    #[test]
    fn equality_constraints_need_phase1() {
        // min x1 + x2 s.t. x1 + x2 = 2, x1 - x2 = 0  =>  x = (1, 1).
        let sol = solve_dense(
            &[vec![1.0, 1.0], vec![1.0, -1.0]],
            &[2.0, 0.0],
            &[1.0, 1.0],
            &[None, None],
        )
        .unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
    }

    /// A row with a negative RHS enters negated, so its slack cannot start
    /// basic: min x1 s.t. -x1 + s1 = -2 (x1 ≥ 2) goes through phase 1, and
    /// the optimal basis holds no artificial.
    #[test]
    fn negative_rhs_rows_enter_negated() {
        let a = SparseMatrix::from_dense(&[vec![-1.0, 1.0]], 2);
        let (sol, basis) = solve_standard(&a, &[-2.0], &[1.0, 0.0], &[Some(1)]).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9, "{}", sol.objective);
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert_eq!(basis, Some(vec![0]));
    }

    #[test]
    fn infeasible_detected() {
        // x1 = 1 and x1 = 2 simultaneously.
        assert_eq!(
            solve_dense(&[vec![1.0], vec![1.0]], &[1.0, 2.0], &[0.0], &[None, None]).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn unbounded_detected() {
        // min -x1 with only x1 - x2 + s = 1: x1 can grow with x2.
        assert_eq!(
            solve_dense(
                &[vec![1.0, -1.0, 1.0]],
                &[1.0],
                &[-1.0, 0.0, 0.0],
                &[Some(2)]
            )
            .unwrap_err(),
            LpError::Unbounded
        );
    }

    /// Beale's classic cycling example; must terminate via the Bland fallback.
    #[test]
    fn beale_degenerate_terminates() {
        // min -0.75x4 + 150x5 - 0.02x6 + 6x7
        // s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 <= 0
        //      0.5x4 - 90x5 - 0.02x6 + 3x7 <= 0
        //      x6 <= 1
        let sol = solve_dense(
            &[
                vec![0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
                vec![0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
                vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            ],
            &[0.0, 0.0, 1.0],
            &[-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0],
            &[Some(4), Some(5), Some(6)],
        )
        .unwrap();
        assert!((sol.objective + 0.05).abs() < 1e-9, "{}", sol.objective);
    }

    #[test]
    fn redundant_equality_rows_handled() {
        // x1 + x2 = 2 stated twice: phase 1 leaves a zero-level artificial in
        // a redundant row, which must not corrupt phase 2, and the basis
        // holding it is not returned as a warm-start seed.
        let a = SparseMatrix::from_dense(&[vec![1.0, 1.0], vec![1.0, 1.0]], 2);
        let (sol, basis) = solve_standard(&a, &[2.0, 2.0], &[1.0, 2.0], &[None, None]).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
        assert!((sol.x[0] - 2.0).abs() < 1e-9);
        assert_eq!(basis, None);
    }
}
