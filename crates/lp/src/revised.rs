//! Revised simplex engine with a factorized basis and warm starts.
//!
//! Where the dense tableau (see [`crate::simplex`]) carries the full
//! `(m+1) × (n+1)` matrix through every pivot, this engine keeps only
//!
//! * the constraint matrix by its nonzeros ([`SparseMatrix`]),
//! * a factorization of the **basis matrix** `B₀` taken through its unit
//!   columns (see [`UnitLu`]), rebuilt every [`REFACTOR_LIMIT`] pivots and
//!   at the start of every solve, and
//! * a product-form **eta file**: one column per pivot since the last
//!   refactorization, applied on top of `B₀` in FTRAN/BTRAN solves.
//!
//! The engine only re-solves from a basis a previous solve left behind;
//! cold solves (and with them phase 1) belong to the dense tableau. Two
//! iteration modes restore optimality from that basis:
//!
//! * **primal** simplex, when the basis is still primal feasible (the
//!   objective changed), and
//! * **dual** simplex, which is what makes RHS-perturbed warm starts cheap:
//!   an optimal basis stays *dual* feasible when only `b` changes (the
//!   tube-MPC resolve pattern), so re-optimization is a handful of dual
//!   pivots instead of a full two-phase solve.
//!
//! [`solve_revised_warm`] picks the mode automatically; callers fall back
//! to a cold tableau solve when it reports [`WarmOutcome::Fallback`].

use oic_linalg::{LuDecomposition, Matrix};

use crate::simplex::{StandardSolution, EPS};
use crate::LpError;

/// Maximum pivots before declaring numerical trouble (matches the tableau).
const MAX_ITER: usize = 50_000;

/// Dantzig→Bland switch point (anti-cycling, matches the tableau).
const BLAND_SWITCH: usize = 5_000;

/// Eta-file length that triggers a basis refactorization.
const REFACTOR_LIMIT: usize = 40;

/// Primal feasibility tolerance on basic values.
const FEAS_TOL: f64 = 1e-9;

/// Dual feasibility tolerance on reduced costs.
const DUAL_TOL: f64 = 1e-7;

/// `(row, value)` of a column with exactly one nonzero entry — every slack
/// (`±1`) and any structural column that touches a single row.
type UnitColumn = Option<(usize, f64)>;

/// Lines (rows or columns) of a matrix by their nonzeros: line `l` is
/// `entries[start[l]..start[l + 1]]`, `(index, value)` ascending in index.
#[derive(Debug, Clone)]
struct Lines {
    start: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl Lines {
    fn line(&self, l: usize) -> &[(usize, f64)] {
        &self.entries[self.start[l]..self.start[l + 1]]
    }
}

/// A standard-form constraint matrix stored by its nonzeros, both by row
/// (pricing, tableau rows, and the cold tableau's scatter) and by column
/// (entering columns and the basis factor).
///
/// Every pass over it visits its terms in the order a dense sweep would
/// and skips only exact zeros, so every nonzero value it produces is the
/// dense one bit for bit.
#[derive(Debug, Clone)]
pub(crate) struct SparseMatrix {
    rows: Lines,
    cols: Lines,
}

impl SparseMatrix {
    /// The matrix with `n` columns whose row `i` holds the nonzeros
    /// `entries[start[i]..start[i + 1]]`, `(column, value)` ascending in
    /// the column.
    pub(crate) fn from_rows(start: Vec<usize>, entries: Vec<(usize, f64)>, n: usize) -> Self {
        let mut col_start = vec![0usize; n + 1];
        for &(j, _) in &entries {
            col_start[j + 1] += 1;
        }
        for j in 0..n {
            col_start[j + 1] += col_start[j];
        }
        // Scattering the rows in ascending order keeps every column
        // ascending in its row index.
        let mut next = col_start[..n].to_vec();
        let mut col_entries = vec![(0, 0.0); entries.len()];
        for (i, bounds) in start.windows(2).enumerate() {
            for &(j, v) in &entries[bounds[0]..bounds[1]] {
                col_entries[next[j]] = (i, v);
                next[j] += 1;
            }
        }
        Self {
            rows: Lines { start, entries },
            cols: Lines {
                start: col_start,
                entries: col_entries,
            },
        }
    }

    /// The nonzeros of the row-major `a` with `n` columns.
    #[cfg(test)]
    pub(crate) fn from_dense(a: &[Vec<f64>], n: usize) -> Self {
        let mut start = vec![0];
        let mut entries = Vec::new();
        for row in a {
            entries.extend(
                row.iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(j, &v)| (j, v)),
            );
            start.push(entries.len());
        }
        Self::from_rows(start, entries, n)
    }

    pub(crate) fn num_rows(&self) -> usize {
        self.rows.start.len() - 1
    }

    pub(crate) fn num_cols(&self) -> usize {
        self.cols.start.len() - 1
    }

    /// The `(column, value)` nonzeros of row `i`, ascending.
    pub(crate) fn row(&self, i: usize) -> &[(usize, f64)] {
        self.rows.line(i)
    }

    /// The `(row, value)` nonzeros of column `j`, ascending.
    fn col(&self, j: usize) -> &[(usize, f64)] {
        self.cols.line(j)
    }

    /// Column `j`'s one nonzero, when it has exactly one.
    fn unit(&self, j: usize) -> UnitColumn {
        match *self.col(j) {
            [entry] => Some(entry),
            _ => None,
        }
    }
}

/// Why a warm-started solve could not run; the caller must fall back to a
/// cold solve (the warm path never guesses through numerical trouble).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WarmFailure {
    /// The supplied basis matrix is singular (stale basis).
    SingularBasis,
    /// The basis does not match the problem shape, or is neither primal
    /// nor dual feasible, so neither iteration mode can start from it.
    NotRestorable,
    /// Iteration hit numerical trouble (pivot limit or a mid-solve
    /// singular refactorization) — a cold solve from scratch may still
    /// succeed where the carried basis could not.
    NumericalTrouble,
}

impl WarmFailure {
    /// Short diagnostic label surfaced through `WarmStart` telemetry.
    pub(crate) fn reason(self) -> &'static str {
        match self {
            WarmFailure::SingularBasis => "singular-basis",
            WarmFailure::NotRestorable => "not-restorable",
            WarmFailure::NumericalTrouble => "numerical-trouble",
        }
    }
}

/// Result of a warm-started solve attempt.
#[derive(Debug)]
pub(crate) enum WarmOutcome {
    /// Solved from the supplied basis.
    Solved(StandardSolution),
    /// The problem has a definite non-optimal verdict.
    Lp(LpError),
    /// The basis was unusable; run a cold solve instead.
    Fallback(WarmFailure),
}

/// One product-form update: basis position `pos` was replaced, and `col`
/// is the entering column expressed in the *previous* basis frame
/// (`B_old⁻¹ a_q`).
#[derive(Debug, Clone)]
struct Eta {
    pos: usize,
    col: Vec<f64>,
}

/// `B₀` factored through its unit columns.
///
/// A unit basic column (a slack, or a structural column that touches one
/// row) is zero off its one row, and in a nonsingular basis the unit
/// columns cover distinct rows. With rows ordered (uncovered, covered) and
/// columns ordered (non-unit, unit), `B₀` is block lower triangular,
/// `[[S, 0], [C, D]]` with `D` diagonal. FTRAN is then one `k × k` LU
/// solve on `S` plus one back-substitution per covered row, and BTRAN
/// mirrors it, where `k` is the number of non-unit basic columns (at most
/// 38 for the ACC tube MPC, against `m = 168` rows). The coupling block
/// `C` is kept by its nonzeros (~830 of acc's 130 × 38), so neither solve
/// reads a zero of it.
#[derive(Debug, Clone)]
struct UnitLu {
    /// `(basis position, row, value)` of every unit basic column.
    units: Vec<(usize, usize, f64)>,
    /// The nonzeros of `C`, line `u` for unit `u`, as `(kernel index t,
    /// value)` ascending in `t`.
    coupling: Lines,
    /// Basis positions of the non-unit basic columns.
    kernel_pos: Vec<usize>,
    /// The rows no unit column covers, ascending.
    kernel_rows: Vec<usize>,
    /// LU of `S = B₀[kernel_rows, kernel_pos]`; `None` when `k = 0`.
    lu: Option<LuDecomposition>,
    /// `k`-long right-hand side and solution of the `S` solves (BTRAN's
    /// solve overwrites `rhs`; every solve refills it first).
    rhs: Vec<f64>,
    sol: Vec<f64>,
}

impl UnitLu {
    /// Factors the basis `basis`, column indices of `a`.
    ///
    /// Two unit columns on one row, or a singular `S`, make the basis
    /// singular.
    fn new(a: &SparseMatrix, basis: &[usize]) -> Result<Self, WarmFailure> {
        let m = basis.len();
        // `slot[i]`: `u` for the row unit `u` covers, `units.len() + r`
        // for the `r`-th uncovered row.
        let mut slot = vec![usize::MAX; m];
        let mut units = Vec::with_capacity(m);
        let mut kernel_pos = Vec::new();
        let mut kernel_col = Vec::new();
        for (pos, &j) in basis.iter().enumerate() {
            match a.unit(j) {
                Some((row, value)) => {
                    if slot[row] != usize::MAX {
                        return Err(WarmFailure::SingularBasis);
                    }
                    slot[row] = units.len();
                    units.push((pos, row, value));
                }
                None => {
                    kernel_pos.push(pos);
                    kernel_col.push(j);
                }
            }
        }
        let kernel_rows: Vec<usize> = (0..m).filter(|&i| slot[i] == usize::MAX).collect();
        let nu = units.len();
        for (r, &i) in kernel_rows.iter().enumerate() {
            slot[i] = nu + r;
        }
        // One pass over the kernel columns fills `S` and counts `C`'s
        // nonzeros per unit; a second scatters them, ascending in `t`.
        let k = kernel_col.len();
        let mut s = vec![0.0; k * k];
        let mut start = vec![0usize; nu + 1];
        for (t, &j) in kernel_col.iter().enumerate() {
            for &(i, v) in a.col(j) {
                let u = slot[i];
                if u < nu {
                    start[u + 1] += 1;
                } else {
                    s[(u - nu) * k + t] = v;
                }
            }
        }
        for u in 0..nu {
            start[u + 1] += start[u];
        }
        let mut next = start[..nu].to_vec();
        let mut entries = vec![(0, 0.0); start[nu]];
        for (t, &j) in kernel_col.iter().enumerate() {
            for &(i, v) in a.col(j) {
                let u = slot[i];
                if u < nu {
                    entries[next[u]] = (t, v);
                    next[u] += 1;
                }
            }
        }
        let lu = if k == 0 {
            None
        } else {
            let s = Matrix::from_vec(k, k, s);
            Some(LuDecomposition::new(&s).map_err(|_| WarmFailure::SingularBasis)?)
        };
        Ok(Self {
            units,
            coupling: Lines { start, entries },
            kernel_pos,
            kernel_rows,
            lu,
            rhs: vec![0.0; k],
            sol: vec![0.0; k],
        })
    }

    /// Solves `B₀ x = v` into `out` (indexed by basis position).
    fn ftran(&mut self, v: &[f64], out: &mut [f64]) {
        if let Some(lu) = &self.lu {
            for (r, &i) in self.rhs.iter_mut().zip(&self.kernel_rows) {
                *r = v[i];
            }
            lu.solve_into(&self.rhs, &mut self.sol);
            for (&pos, &x) in self.kernel_pos.iter().zip(&self.sol) {
                out[pos] = x;
            }
        }
        for (u, &(pos, row, value)) in self.units.iter().enumerate() {
            let mut acc = v[row];
            for &(t, c) in self.coupling.line(u) {
                acc -= c * self.sol[t];
            }
            out[pos] = acc / value;
        }
    }

    /// Solves `B₀ᵀ y = c` (`c` indexed by basis position) into `out`.
    fn btran(&mut self, c: &[f64], out: &mut [f64]) {
        for &(pos, row, value) in &self.units {
            out[row] = c[pos] / value;
        }
        if let Some(lu) = &self.lu {
            for (r, &pos) in self.rhs.iter_mut().zip(&self.kernel_pos) {
                *r = c[pos];
            }
            // Unit by unit, so each kernel entry subtracts its terms in
            // unit order.
            for (u, &(_, row, _)) in self.units.iter().enumerate() {
                let y = out[row];
                if y != 0.0 {
                    for &(t, cu) in self.coupling.line(u) {
                        self.rhs[t] -= cu * y;
                    }
                }
            }
            lu.solve_transposed_into(&mut self.rhs, &mut self.sol);
            for (&i, &y) in self.kernel_rows.iter().zip(&self.sol) {
                out[i] = y;
            }
        }
    }
}

/// The factorized basis `B = B₀ · E₁ · … · E_k`.
#[derive(Debug, Clone)]
struct BasisFactor {
    lu: UnitLu,
    etas: Vec<Eta>,
}

/// Basis state carried across warm solves: the basis column indices
/// alone. Its factor is rebuilt at the start of every solve, which costs
/// one `k × k` LU (see [`UnitLu`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct WarmCarry {
    pub(crate) basis: Vec<usize>,
}

impl WarmCarry {
    pub(crate) fn clear(&mut self) {
        self.basis.clear();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.basis.is_empty()
    }
}

impl BasisFactor {
    /// FTRAN: computes `B⁻¹ v` into `out`.
    fn ftran(&mut self, v: &[f64], out: &mut [f64]) {
        self.lu.ftran(v, out);
        for eta in &self.etas {
            let t = out[eta.pos] / eta.col[eta.pos];
            for (o, c) in out.iter_mut().zip(&eta.col) {
                *o -= t * c;
            }
            out[eta.pos] = t;
        }
    }

    /// BTRAN: computes `B⁻ᵀ c` into `out` (`scratch` must be `m` long).
    fn btran(&mut self, c: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        scratch.copy_from_slice(c);
        for eta in self.etas.iter().rev() {
            let mut acc = scratch[eta.pos];
            for (i, (s, col)) in scratch.iter().zip(&eta.col).enumerate() {
                if i != eta.pos {
                    acc -= col * s;
                }
            }
            scratch[eta.pos] = acc / eta.col[eta.pos];
        }
        self.lu.btran(scratch, out);
    }
}

/// The revised simplex state over one standard-form problem.
struct Revised<'a> {
    a: &'a SparseMatrix,
    b: &'a [f64],
    m: usize,
    n: usize,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    factor: BasisFactor,
    /// Current basic values `x_B = B⁻¹ b` (kept incrementally, refreshed on
    /// refactorization).
    x_b: Vec<f64>,
    /// Reusable buffers (entering direction, pricing vector, column and
    /// BTRAN scratch, reduced costs / row products) — allocated once per
    /// solve, not per pivot.
    dir: Vec<f64>,
    y: Vec<f64>,
    col_buf: Vec<f64>,
    scratch: Vec<f64>,
    red_costs: Vec<f64>,
    row_prod: Vec<f64>,
    iters: usize,
}

impl<'a> Revised<'a> {
    /// Creates the state from an initial basis; fails if `B` is singular.
    fn new(a: &'a SparseMatrix, b: &'a [f64], basis: Vec<usize>) -> Result<Self, WarmFailure> {
        let m = b.len();
        let n = a.num_cols();
        debug_assert_eq!(basis.len(), m);
        let mut in_basis = vec![false; n];
        for &j in &basis {
            in_basis[j] = true;
        }
        let factor = BasisFactor {
            lu: UnitLu::new(a, &basis)?,
            etas: Vec::new(),
        };
        let mut state = Self {
            a,
            b,
            m,
            n,
            basis,
            in_basis,
            factor,
            x_b: vec![0.0; m],
            dir: vec![0.0; m],
            y: vec![0.0; m],
            col_buf: vec![0.0; m],
            scratch: vec![0.0; m],
            red_costs: vec![0.0; n],
            row_prod: vec![0.0; n],
            iters: 0,
        };
        state.factor.ftran(b, &mut state.x_b);
        Ok(state)
    }

    /// Re-factorizes the basis and refreshes `x_B` from scratch.
    fn refactorize(&mut self) -> Result<(), WarmFailure> {
        oic_obs::counter!("lp.refactorizations", "count").incr();
        self.factor.etas.clear();
        self.factor.lu = UnitLu::new(self.a, &self.basis)?;
        self.factor.ftran(self.b, &mut self.x_b);
        Ok(())
    }

    /// Applies the pivot `(row r, entering column q)`; `self.dir` must hold
    /// `B⁻¹ a_q`. Updates basic values, bookkeeping, and the eta file
    /// (refactorizing when the file grows long).
    fn pivot(&mut self, r: usize, q: usize) -> Result<(), WarmFailure> {
        let t = self.x_b[r] / self.dir[r];
        for (xb, d) in self.x_b.iter_mut().zip(&self.dir) {
            *xb -= t * d;
        }
        self.x_b[r] = t;
        self.in_basis[self.basis[r]] = false;
        self.basis[r] = q;
        self.in_basis[q] = true;
        self.factor.etas.push(Eta {
            pos: r,
            col: self.dir.clone(),
        });
        self.iters += 1;
        if self.factor.etas.len() >= REFACTOR_LIMIT {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Computes the pricing vector `y = B⁻ᵀ c_B`.
    fn price(&mut self, costs: &[f64]) {
        for (k, &j) in self.basis.iter().enumerate() {
            self.col_buf[k] = costs[j];
        }
        let Self {
            factor,
            col_buf,
            y,
            scratch,
            ..
        } = self;
        factor.btran(col_buf, y, scratch);
    }

    /// Fills `self.red_costs` with all structural reduced costs
    /// `d = c − Aᵀy`, row by row over the rows with `yᵢ ≠ 0` (each `dⱼ`
    /// subtracts its terms in ascending row order).
    fn reduced_costs_all(&mut self, costs: &[f64]) {
        self.red_costs.copy_from_slice(costs);
        for (i, &yi) in self.y.iter().enumerate() {
            if yi == 0.0 {
                continue;
            }
            for &(j, aij) in self.a.row(i) {
                self.red_costs[j] -= yi * aij;
            }
        }
    }

    /// Fills `self.row_prod` with row `r` of `B⁻¹A`: `ρ_j = (B⁻ᵀe_r)·A_j`,
    /// row by row over the rows with `(B⁻ᵀe_r)ᵢ ≠ 0` (`self.dir` holds
    /// `B⁻ᵀe_r` afterwards).
    fn tableau_row(&mut self, r: usize) {
        self.col_buf.fill(0.0);
        self.col_buf[r] = 1.0;
        let Self {
            factor,
            col_buf,
            dir,
            scratch,
            ..
        } = self;
        factor.btran(col_buf, dir, scratch);
        self.row_prod.fill(0.0);
        for (i, &vi) in self.dir.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for &(j, aij) in self.a.row(i) {
                self.row_prod[j] += vi * aij;
            }
        }
    }

    /// FTRANs column `q` of `a` into `self.dir`.
    fn ftran_column(&mut self, q: usize) {
        self.col_buf.fill(0.0);
        for &(i, v) in self.a.col(q) {
            self.col_buf[i] = v;
        }
        self.factor.ftran(&self.col_buf, &mut self.dir);
    }

    /// Primal simplex loop on the given costs, from a primal feasible
    /// basis.
    fn primal(&mut self, costs: &[f64]) -> Result<(), LpError> {
        loop {
            if self.iters >= MAX_ITER {
                return Err(LpError::IterationLimit);
            }
            let bland = self.iters >= BLAND_SWITCH;
            self.price(costs);
            self.reduced_costs_all(costs);
            // Entering column: Dantzig (most negative reduced cost) with
            // the Bland fallback after BLAND_SWITCH pivots.
            let mut entering = None;
            let mut best = -EPS;
            for j in 0..self.n {
                if self.in_basis[j] {
                    continue;
                }
                let d = self.red_costs[j];
                if d < best {
                    best = d;
                    entering = Some(j);
                    if bland {
                        break;
                    }
                }
            }
            let Some(q) = entering else {
                return Ok(());
            };
            self.ftran_column(q);
            // Ratio test (ties → smallest basis index, as in the tableau).
            let mut leaving: Option<(usize, f64)> = None;
            for i in 0..self.m {
                let d = self.dir[i];
                if d > EPS {
                    let ratio = self.x_b[i].max(0.0) / d;
                    match leaving {
                        None => leaving = Some((i, ratio)),
                        Some((bi, br)) => {
                            if ratio < br - EPS
                                || (ratio < br + EPS && self.basis[i] < self.basis[bi])
                            {
                                leaving = Some((i, ratio));
                            }
                        }
                    }
                }
            }
            let Some((r, _)) = leaving else {
                return Err(LpError::Unbounded);
            };
            self.pivot(r, q).map_err(|_| LpError::IterationLimit)?;
        }
    }

    /// Dual simplex loop: assumes the current basis is dual feasible for
    /// `costs`, **with `self.red_costs` already priced by the caller**,
    /// and pivots until the basic values are primal feasible.
    ///
    /// Reduced costs are maintained incrementally per pivot (`d ← d − θρ`
    /// with the already-computed row products), so each iteration costs
    /// one BTRAN (the priced row), one row-product pass, and one FTRAN —
    /// not a full repricing. The drift this admits only affects pivot
    /// *selection*; the closing primal pass of the caller re-prices from
    /// scratch and certifies optimality.
    fn dual(&mut self, costs: &[f64]) -> Result<(), LpError> {
        loop {
            if self.iters >= MAX_ITER {
                return Err(LpError::IterationLimit);
            }
            let bland = self.iters >= BLAND_SWITCH;
            // Leaving row: most negative basic value (first one in Bland
            // mode, for termination under degeneracy).
            let mut leaving = None;
            let mut worst = -FEAS_TOL;
            for (i, &v) in self.x_b.iter().enumerate() {
                if v < worst {
                    worst = v;
                    leaving = Some(i);
                    if bland {
                        break;
                    }
                }
            }
            let Some(r) = leaving else {
                return Ok(());
            };
            self.tableau_row(r);
            let mut entering: Option<(usize, f64)> = None;
            for j in 0..self.n {
                if self.in_basis[j] {
                    continue;
                }
                let rho = self.row_prod[j];
                if rho < -EPS {
                    let d_j = self.red_costs[j].max(0.0);
                    let ratio = d_j / -rho;
                    match entering {
                        None => entering = Some((j, ratio)),
                        Some((bj, br)) => {
                            if ratio < br - EPS || (ratio < br + EPS && j < bj) {
                                entering = Some((j, ratio));
                            }
                        }
                    }
                }
            }
            let Some((q, _)) = entering else {
                // Dual unbounded ⇔ primal infeasible.
                return Err(LpError::Infeasible);
            };
            self.ftran_column(q);
            if self.dir[r].abs() <= EPS {
                // The priced row and the FTRANed column disagree
                // numerically; refactorize and re-enter the loop with
                // fresh basic values and fresh reduced costs.
                self.refactorize().map_err(|_| LpError::IterationLimit)?;
                self.price(costs);
                self.reduced_costs_all(costs);
                self.iters += 1;
                continue;
            }
            // Incremental reduced-cost update with the pre-pivot values:
            // θ = d_q / ρ_q, then d_j ← d_j − θ ρ_j (q becomes basic: 0).
            let theta = self.red_costs[q] / self.row_prod[q];
            self.pivot(r, q).map_err(|_| LpError::IterationLimit)?;
            if self.factor.etas.is_empty() {
                // `pivot` refactorized; rebuild the reduced costs exactly.
                self.price(costs);
                self.reduced_costs_all(costs);
            } else {
                for (d, rho) in self.red_costs.iter_mut().zip(&self.row_prod) {
                    *d -= theta * rho;
                }
                self.red_costs[q] = 0.0;
            }
        }
    }

    /// Extracts the standard-form solution.
    fn solution(&self, costs: &[f64]) -> StandardSolution {
        let mut x = vec![0.0; self.n];
        for (k, &j) in self.basis.iter().enumerate() {
            x[j] = self.x_b[k];
        }
        let objective: f64 = costs.iter().zip(&x).map(|(c, v)| c * v).sum();
        StandardSolution {
            x,
            objective,
            iters: self.iters,
        }
    }
}

/// Warm-started revised solve from a previous basis of structural and
/// slack columns.
///
/// `b` may have **any sign**: the compiled standard form keeps it, which
/// keeps the column space stable across a sequence of perturbed solves.
/// The engine restores optimality with:
///
/// * **primal** pivots when the basis is still primal feasible (the
///   objective changed), or
/// * **dual** pivots when it is still dual feasible (RHS changed, e.g. the
///   templated tube-MPC resolve), followed by a primal clean-up pass.
pub(crate) fn solve_revised_warm(
    a: &SparseMatrix,
    b: &[f64],
    c: &[f64],
    carry: &mut WarmCarry,
) -> WarmOutcome {
    let m = b.len();
    let n = c.len();
    if carry.basis.len() != m || carry.basis.iter().any(|&j| j >= n) {
        return WarmOutcome::Fallback(WarmFailure::NotRestorable);
    }
    debug_assert_eq!(a.num_cols(), n);
    let basis = std::mem::take(&mut carry.basis);
    let mut state = match Revised::new(a, b, basis) {
        Ok(s) => s,
        Err(f) => return WarmOutcome::Fallback(f),
    };

    let primal_feasible = state.x_b.iter().all(|&v| v >= -FEAS_TOL);
    if !primal_feasible {
        state.price(c);
        state.reduced_costs_all(c);
        let dual_feasible = (0..n)
            .filter(|&j| !state.in_basis[j])
            .all(|j| state.red_costs[j] >= -DUAL_TOL);
        if !dual_feasible {
            return WarmOutcome::Fallback(WarmFailure::NotRestorable);
        }
    }
    // Dual pivots restore primal feasibility (RHS moved); the primal pass
    // is then a no-op, or restores optimality after objective changes when
    // the basis stayed primal feasible.
    let outcome = if primal_feasible {
        state.primal(c)
    } else {
        state.dual(c).and_then(|()| state.primal(c))
    };
    match outcome {
        Ok(()) => {
            let solution = state.solution(c);
            carry.basis = state.basis;
            WarmOutcome::Solved(solution)
        }
        Err(e @ (LpError::Infeasible | LpError::Unbounded)) => {
            // A definite verdict leaves a valid basis behind, so later
            // solves stay warm.
            carry.basis = state.basis;
            WarmOutcome::Lp(e)
        }
        // Numerical trouble (pivot limit, mid-solve singular
        // refactorization) is NOT a verdict about the problem: fall back
        // so the caller retries cold — the warm path never guesses
        // through numerical trouble.
        Err(LpError::IterationLimit) => WarmOutcome::Fallback(WarmFailure::NumericalTrouble),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::simplex::solve_standard;

    /// A standard form `min cᵀx, Ax = b, x ≥ 0` with a dense matrix.
    struct Dense {
        a: Vec<Vec<f64>>,
        b: Vec<f64>,
        c: Vec<f64>,
    }

    impl Dense {
        /// The tableau's optimum and basis, for `slack` the rows' slack
        /// columns.
        fn tableau(&self, slack: &[Option<usize>]) -> (StandardSolution, Option<Vec<usize>>) {
            let a = SparseMatrix::from_dense(&self.a, self.c.len());
            solve_standard(&a, &self.b, &self.c, slack).unwrap()
        }
    }

    fn sf(a: Vec<Vec<f64>>, b: Vec<f64>, c: Vec<f64>) -> Dense {
        Dense { a, b, c }
    }

    fn unwrap_warm(outcome: WarmOutcome) -> StandardSolution {
        match outcome {
            WarmOutcome::Solved(sol) => sol,
            other => panic!("expected warm solve, got {other:?}"),
        }
    }

    fn carry_from(basis: &[usize]) -> WarmCarry {
        WarmCarry {
            basis: basis.to_vec(),
        }
    }

    /// The carry of the tableau's optimal basis for `sf`, as a cold solve
    /// through `LinearProgram::solve_warm` seeds it.
    fn tableau_carry(sf: &Dense, slack: &[Option<usize>]) -> WarmCarry {
        WarmCarry {
            basis: sf.tableau(slack).1.expect("artificial-free basis"),
        }
    }

    /// [`solve_revised_warm`] over the sparse form of `a`.
    fn warm_solve(a: &[Vec<f64>], b: &[f64], c: &[f64], carry: &mut WarmCarry) -> WarmOutcome {
        solve_revised_warm(&SparseMatrix::from_dense(a, c.len()), b, c, carry)
    }

    /// min -x1 - x2 s.t. x1 + 2x2 + s1 = 4; 3x1 + x2 + s2 = 6; all ≥ 0,
    /// by primal pivots from the slack basis.
    #[test]
    fn primal_from_slack_basis_solves_basic_lp() {
        let sf = sf(
            vec![vec![1.0, 2.0, 1.0, 0.0], vec![3.0, 1.0, 0.0, 1.0]],
            vec![4.0, 6.0],
            vec![-1.0, -1.0, 0.0, 0.0],
        );
        let sol = unwrap_warm(warm_solve(&sf.a, &sf.b, &sf.c, &mut carry_from(&[2, 3])));
        assert!((sol.objective + 2.8).abs() < 1e-9, "{}", sol.objective);
        assert!((sol.x[0] - 1.6).abs() < 1e-9);
        assert!((sol.x[1] - 1.2).abs() < 1e-9);
    }

    #[test]
    fn primal_from_slack_basis_detects_unbounded() {
        let sf = sf(vec![vec![1.0, -1.0, 1.0]], vec![1.0], vec![-1.0, 0.0, 0.0]);
        assert!(matches!(
            warm_solve(&sf.a, &sf.b, &sf.c, &mut carry_from(&[2])),
            WarmOutcome::Lp(LpError::Unbounded)
        ));
    }

    /// Beale's cycling example: Dantzig pivots cycle from the slack basis,
    /// so only the Bland switch terminates the solve.
    #[test]
    fn primal_beale_degenerate_terminates() {
        let sf = sf(
            vec![
                vec![0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
                vec![0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
                vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            ],
            vec![0.0, 0.0, 1.0],
            vec![-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0],
        );
        let sol = unwrap_warm(warm_solve(&sf.a, &sf.b, &sf.c, &mut carry_from(&[4, 5, 6])));
        assert!((sol.objective + 0.05).abs() < 1e-9, "{}", sol.objective);
        assert!(sol.iters >= BLAND_SWITCH, "{} pivots", sol.iters);
    }

    #[test]
    fn warm_resolve_after_rhs_change_uses_dual_pivots() {
        // max x1 + x2 over x1 ≤ b1, x2 ≤ b2 in standard min form.
        let base = sf(
            vec![vec![1.0, 0.0, 1.0, 0.0], vec![0.0, 1.0, 0.0, 1.0]],
            vec![4.0, 6.0],
            vec![-1.0, -1.0, 0.0, 0.0],
        );
        // Tighten the RHS: the previous basis stays dual feasible.
        let mut carry = tableau_carry(&base, &[Some(2), Some(3)]);
        let b2 = vec![2.5, 1.5];
        let warm = unwrap_warm(warm_solve(&base.a, &b2, &base.c, &mut carry));
        assert!((warm.objective + 4.0).abs() < 1e-9, "{}", warm.objective);
        assert!((warm.x[0] - 2.5).abs() < 1e-9);
        assert!((warm.x[1] - 1.5).abs() < 1e-9);
        assert_eq!(carry.basis.len(), 2, "the optimal basis is carried out");
        // A further perturbation rides the carried basis.
        let b3 = vec![3.0, 2.0];
        let again = unwrap_warm(warm_solve(&base.a, &b3, &base.c, &mut carry));
        assert!((again.objective + 5.0).abs() < 1e-9, "{}", again.objective);
    }

    #[test]
    fn warm_resolve_after_objective_change_uses_primal_pivots() {
        let base = sf(
            vec![vec![1.0, 1.0, 1.0, 0.0], vec![1.0, -1.0, 0.0, 1.0]],
            vec![4.0, 1.0],
            vec![-1.0, 0.0, 0.0, 0.0],
        );
        // New objective rewards x2 instead; the basis stays primal feasible.
        let c2 = vec![0.0, -1.0, 0.0, 0.0];
        let mut carry = tableau_carry(&base, &[Some(2), Some(3)]);
        let warm = unwrap_warm(warm_solve(&base.a, &base.b, &c2, &mut carry));
        let retarget = sf(base.a.clone(), base.b.clone(), c2);
        let (direct, _) = retarget.tableau(&[Some(2), Some(3)]);
        assert!((warm.objective - direct.objective).abs() < 1e-9);
    }

    #[test]
    fn warm_handles_negative_rhs_unflipped_form() {
        // min x over -x ≤ 3 and x ≤ -1 in the compiled form (negative RHS
        // kept, slack coefficient +1); variables split x = xp − xm.
        let tight = sf(
            vec![vec![-1.0, 1.0, 1.0, 0.0], vec![1.0, -1.0, 0.0, 1.0]],
            vec![3.0, -1.0],
            vec![1.0, -1.0, 0.0, 0.0],
        );
        // Seed with the optimal basis of a nearby all-positive problem.
        let near = sf(tight.a.clone(), vec![3.0, 2.0], tight.c.clone());
        let mut carry = tableau_carry(&near, &[Some(2), Some(3)]);
        let warm = unwrap_warm(warm_solve(&tight.a, &tight.b, &tight.c, &mut carry));
        assert!((warm.objective + 3.0).abs() < 1e-9, "{}", warm.objective);
    }

    #[test]
    fn warm_rejects_stale_basis_shape() {
        let base = sf(vec![vec![1.0, 1.0]], vec![1.0], vec![1.0, 0.0]);
        let mut bad_col = carry_from(&[5]);
        assert!(matches!(
            warm_solve(&base.a, &base.b, &base.c, &mut bad_col),
            WarmOutcome::Fallback(WarmFailure::NotRestorable)
        ));
        let mut bad_len = carry_from(&[0, 1]);
        assert!(matches!(
            warm_solve(&base.a, &base.b, &base.c, &mut bad_len),
            WarmOutcome::Fallback(WarmFailure::NotRestorable)
        ));
    }

    #[test]
    fn warm_detects_infeasible_after_rhs_change() {
        // x1 ≤ b with x1 ≥ 2 (as -x1 ≤ -2): feasible at b = 5, infeasible
        // at b = 1.
        let feasible = sf(
            vec![vec![1.0, 1.0, 0.0], vec![-1.0, 0.0, 1.0]],
            vec![5.0, -2.0],
            vec![1.0, 0.0, 0.0],
        );
        // The tableau negates the negative-RHS row itself, which then
        // starts on an artificial instead of its slack.
        let mut carry = tableau_carry(&feasible, &[Some(1), Some(2)]);
        let warm = unwrap_warm(warm_solve(
            &feasible.a,
            &feasible.b,
            &feasible.c,
            &mut carry,
        ));
        assert!((warm.objective - 2.0).abs() < 1e-9);
        let b_bad = vec![1.0, -2.0];
        assert!(matches!(
            warm_solve(&feasible.a, &b_bad, &feasible.c, &mut carry),
            WarmOutcome::Lp(LpError::Infeasible)
        ));
        // The infeasible verdict keeps the carry warm for later solves.
        assert!(!carry.is_empty());
        let recovered = unwrap_warm(warm_solve(
            &feasible.a,
            &feasible.b,
            &feasible.c,
            &mut carry,
        ));
        assert!((recovered.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn eta_refactorization_stays_accurate() {
        // A chain long enough to force several refactorizations.
        let n = 100;
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..n {
            let mut row = vec![0.0; 2 * n];
            row[i] = 1.0;
            row[(i + 1) % n] = 0.5;
            row[n + i] = 1.0; // slack
            a.push(row);
            b.push(1.2 + 0.01 * i as f64);
        }
        let mut c = vec![-1.0; n];
        c.extend(vec![0.0; n]);
        let slacks: Vec<usize> = (n..2 * n).collect();
        let hints: Vec<Option<usize>> = slacks.iter().map(|&j| Some(j)).collect();
        let sf = sf(a, b, c);
        let revised = unwrap_warm(warm_solve(&sf.a, &sf.b, &sf.c, &mut carry_from(&slacks)));
        let (tableau, _) = sf.tableau(&hints);
        assert!(
            revised.iters > 2 * REFACTOR_LIMIT,
            "{} pivots",
            revised.iters
        );
        assert!(
            (revised.objective - tableau.objective).abs() < 1e-7,
            "revised {} vs tableau {}",
            revised.objective,
            tableau.objective
        );
    }

    /// `UnitLu` over the matrix `a` for `basis`.
    fn unit_lu(a: &[Vec<f64>], basis: &[usize]) -> Result<UnitLu, WarmFailure> {
        UnitLu::new(&SparseMatrix::from_dense(a, a[0].len()), basis)
    }

    #[test]
    fn unit_columns_on_one_row_are_a_singular_basis() {
        // Columns: e₀, 2e₀, a dense column.
        let a = vec![vec![1.0, 2.0, 1.0], vec![0.0, 0.0, 1.0]];
        assert!(matches!(
            unit_lu(&a, &[0, 1]),
            Err(WarmFailure::SingularBasis)
        ));
        assert!(unit_lu(&a, &[0, 2]).is_ok());
    }

    #[test]
    fn singular_kernel_block_is_a_singular_basis() {
        // Columns 0 and 1 agree up to scale on the rows the slack (column
        // 2, row 2) leaves uncovered, so the 2 × 2 block is singular.
        let a = vec![
            vec![1.0, 2.0, 0.0],
            vec![1.0, 2.0, 0.0],
            vec![1.0, 5.0, 1.0],
        ];
        assert!(matches!(
            unit_lu(&a, &[0, 1, 2]),
            Err(WarmFailure::SingularBasis)
        ));
    }

    #[test]
    fn sparse_matrix_keeps_rows_and_columns_ascending() {
        let a = vec![
            vec![0.0, 2.0, 0.0, -0.0],
            vec![1.0, 0.0, 3.0, 0.0],
            vec![4.0, 5.0, 0.0, 0.0],
        ];
        let sparse = SparseMatrix::from_dense(&a, 4);
        assert_eq!(sparse.num_rows(), 3);
        assert_eq!(sparse.num_cols(), 4);
        assert_eq!(sparse.row(1), &[(0, 1.0), (2, 3.0)]);
        assert_eq!(sparse.col(0), &[(1, 1.0), (2, 4.0)]);
        assert_eq!(sparse.col(3), &[], "a negative zero is a zero");
        assert_eq!(sparse.unit(2), Some((1, 3.0)));
        assert_eq!(sparse.unit(1), None);
    }

    /// The unit structure of the `n` columns of the row-major matrix `a`
    /// by a dense scan: the oracle for [`SparseMatrix::unit`].
    fn unit_columns(a: &[Vec<f64>], n: usize) -> Vec<UnitColumn> {
        let mut units: Vec<UnitColumn> = vec![None; n];
        let mut nonzeros = vec![0usize; n];
        for (i, row) in a.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    nonzeros[j] += 1;
                    units[j] = Some((i, v));
                }
            }
        }
        for (unit, &count) in units.iter_mut().zip(&nonzeros) {
            if count != 1 {
                *unit = None;
            }
        }
        units
    }

    /// FTRAN through `factor` with the coupling block read from the dense
    /// `a` over every unit × kernel column: the oracle for
    /// [`UnitLu::ftran`]. Kernel index `t` is column `basis[kernel_pos[t]]`.
    fn dense_ftran(
        factor: &mut UnitLu,
        a: &[Vec<f64>],
        basis: &[usize],
        v: &[f64],
        out: &mut [f64],
    ) {
        if let Some(lu) = &factor.lu {
            for (r, &i) in factor.rhs.iter_mut().zip(&factor.kernel_rows) {
                *r = v[i];
            }
            lu.solve_into(&factor.rhs, &mut factor.sol);
            for (&pos, &x) in factor.kernel_pos.iter().zip(&factor.sol) {
                out[pos] = x;
            }
        }
        for &(pos, row, value) in &factor.units {
            let a_row = &a[row];
            let mut acc = v[row];
            for (&kpos, &x) in factor.kernel_pos.iter().zip(&factor.sol) {
                acc -= a_row[basis[kpos]] * x;
            }
            out[pos] = acc / value;
        }
    }

    /// BTRAN through `factor` with the coupling block read from the dense
    /// `a`: the oracle for [`UnitLu::btran`].
    fn dense_btran(
        factor: &mut UnitLu,
        a: &[Vec<f64>],
        basis: &[usize],
        c: &[f64],
        out: &mut [f64],
    ) {
        for &(pos, row, value) in &factor.units {
            out[row] = c[pos] / value;
        }
        if let Some(lu) = &factor.lu {
            for (r, &pos) in factor.rhs.iter_mut().zip(&factor.kernel_pos) {
                let j = basis[pos];
                let mut acc = c[pos];
                for &(_, row, _) in &factor.units {
                    let y = out[row];
                    if y != 0.0 {
                        acc -= a[row][j] * y;
                    }
                }
                *r = acc;
            }
            lu.solve_transposed_into(&mut factor.rhs, &mut factor.sol);
            for (&i, &y) in factor.kernel_rows.iter().zip(&factor.sol) {
                out[i] = y;
            }
        }
    }

    /// Equal bits, or both zero (skipping an exact zero term may flip the
    /// sign of a zero result, never a nonzero one).
    fn same_bits(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x == 0.0 && y == 0.0)
    }

    use oic_linalg::Matrix;
    use proptest::prelude::*;

    /// A random basis problem: the matrix, the basis, and the FTRAN/BTRAN
    /// right-hand sides.
    #[derive(Debug)]
    struct BasisCase {
        a: Vec<Vec<f64>>,
        basis: Vec<usize>,
        v: Vec<f64>,
        c: Vec<f64>,
    }

    /// Random bases with exact zeros. Per row: a kind (0 structural, 1
    /// slack) and a slack sign. The matrix has `k + 1`
    /// structural columns, `k` the number of structural rows: column `t`
    /// is diagonally dominant on the `t`-th structural row (the last one
    /// never enters). One `±1` slack per row follows. Off-diagonal
    /// structural entries and right-hand-side entries are exact zeros
    /// with probability ½, so some structural columns are unit columns
    /// and some units carry `y = 0`. Position keys shuffle the basis.
    fn random_basis() -> impl Strategy<Value = BasisCase> {
        (2usize..9)
            .prop_flat_map(|m| {
                (
                    (
                        prop::collection::vec(0usize..2, m),
                        prop::collection::vec(prop::bool::ANY, m),
                        prop::collection::vec(0.0f64..1.0, m),
                    ),
                    prop::collection::vec(-1.0f64..1.0, m * (m + 1)),
                    prop::collection::vec(prop::bool::ANY, m * (m + 1) + 2 * m),
                    prop::collection::vec(-5.0f64..5.0, 2 * m),
                )
            })
            .prop_map(|((kinds, signs, keys), entries, zeros, rhs)| {
                let m = kinds.len();
                let kernel_rows: Vec<usize> = (0..m).filter(|&i| kinds[i] == 0).collect();
                let k = kernel_rows.len();
                let n = k + 1 + m;
                let mut a = vec![vec![0.0; n]; m];
                for (t, col) in entries.chunks(m).take(k + 1).enumerate() {
                    for (i, &e) in col.iter().enumerate() {
                        a[i][t] = if kernel_rows.get(t) == Some(&i) {
                            e + 8.0
                        } else if zeros[t * m + i] {
                            0.0
                        } else {
                            e
                        };
                    }
                }
                for i in 0..m {
                    a[i][k + 1 + i] = if signs[i] { 1.0 } else { -1.0 };
                }
                let columns: Vec<usize> = (0..m)
                    .map(|i| match kinds[i] {
                        0 => kernel_rows.iter().position(|&r| r == i).unwrap(),
                        _ => k + 1 + i,
                    })
                    .collect();
                let mut order: Vec<usize> = (0..m).collect();
                order.sort_by(|&p, &q| keys[p].total_cmp(&keys[q]));
                let rhs_zeros = &zeros[m * (m + 1)..];
                let rhs: Vec<f64> = rhs
                    .iter()
                    .zip(rhs_zeros)
                    .map(|(&x, &zero)| if zero { 0.0 } else { x })
                    .collect();
                BasisCase {
                    a,
                    basis: order.iter().map(|&p| columns[p]).collect(),
                    v: rhs[..m].to_vec(),
                    c: rhs[m..].to_vec(),
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// FTRAN and BTRAN through the unit factor agree with a dense LU
        /// of the same basis matrix, and the factor's kernel is exactly
        /// the basic columns that are not unit columns.
        #[test]
        fn unit_factor_matches_dense_lu(case in random_basis()) {
            let BasisCase { a, basis, v, c } = &case;
            let m = basis.len();
            let n = a[0].len();
            let mut dense = Matrix::zeros(m, m);
            for (pos, &j) in basis.iter().enumerate() {
                for i in 0..m {
                    dense[(i, pos)] = a[i][j];
                }
            }
            let lu = LuDecomposition::new(&dense).expect("dominant basis is nonsingular");
            let mut factor = unit_lu(a, basis).expect("unit factor of a nonsingular basis");
            let units = unit_columns(a, n);
            let kernel = basis.iter().filter(|&&j| units[j].is_none()).count();
            prop_assert_eq!(factor.kernel_pos.len(), kernel);

            let mut out = vec![0.0; m];
            factor.ftran(v, &mut out);
            for (x, y) in out.iter().zip(&lu.solve(v).unwrap()) {
                prop_assert!((x - y).abs() < 1e-9, "ftran {x} vs dense {y}");
            }
            factor.btran(c, &mut out);
            for (x, y) in out.iter().zip(&lu.solve_transposed(c).unwrap()) {
                prop_assert!((x - y).abs() < 1e-9, "btran {x} vs dense {y}");
            }
        }

        /// The sparse form's unit structure is the dense scan's, and FTRAN
        /// and BTRAN through the flat coupling block reproduce the dense
        /// coupling loops bit for bit.
        #[test]
        fn sparse_coupling_matches_dense_loops_bit_for_bit(case in random_basis()) {
            let BasisCase { a, basis, v, c } = &case;
            let m = basis.len();
            let n = a[0].len();
            let sparse = SparseMatrix::from_dense(a, n);
            let units = unit_columns(a, n);
            for (j, unit) in units.iter().enumerate() {
                prop_assert_eq!(sparse.unit(j), *unit, "unit structure of column {}", j);
            }
            let mut factor = UnitLu::new(&sparse, basis)
                .expect("unit factor of a nonsingular basis");
            let (mut got, mut want) = (vec![0.0; m], vec![0.0; m]);
            factor.ftran(v, &mut got);
            dense_ftran(&mut factor, a, basis, v, &mut want);
            for (x, y) in got.iter().zip(&want) {
                prop_assert!(same_bits(*x, *y), "ftran {x:e} vs dense loops {y:e}");
            }
            factor.btran(c, &mut got);
            dense_btran(&mut factor, a, basis, c, &mut want);
            for (x, y) in got.iter().zip(&want) {
                prop_assert!(same_bits(*x, *y), "btran {x:e} vs dense loops {y:e}");
            }
        }
    }
}
