//! Branch-and-bound mixed-integer programming over binary variables.
//!
//! The model-based skipping policy (paper Eq. (6)) decides, for each step of
//! a short horizon, whether to apply the feedback controller or skip — a
//! binary choice per step. This module solves exactly that class: an LP with
//! a designated subset of variables restricted to `{0, 1}`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{LinearProgram, LpError};

/// Integrality tolerance: a relaxation value within this distance of 0 or 1
/// counts as integral.
const INT_TOL: f64 = 1e-6;

/// A linear program in which selected variables are binary (`{0,1}`).
///
/// # Examples
///
/// ```
/// use oic_lp::{LinearProgram, MixedIntegerProgram};
///
/// # fn main() -> Result<(), oic_lp::LpError> {
/// // Knapsack: max 5a + 4b + 3c s.t. 2a + 3b + c <= 4, binary.
/// let mut lp = LinearProgram::maximize(&[5.0, 4.0, 3.0]);
/// lp.add_le(&[2.0, 3.0, 1.0], 4.0);
/// let mip = MixedIntegerProgram::new(lp, &[0, 1, 2]);
/// let sol = mip.solve()?;
/// assert!((sol.objective() - 8.0).abs() < 1e-6); // a = c = 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MixedIntegerProgram {
    lp: LinearProgram,
    binary: Vec<usize>,
}

/// Solution of a [`MixedIntegerProgram`].
#[derive(Debug, Clone, PartialEq)]
pub struct MipSolution {
    x: Vec<f64>,
    objective: f64,
    nodes_explored: usize,
}

impl MipSolution {
    /// Optimal variable values (binaries rounded exactly to 0.0 / 1.0).
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Optimal objective in the user's orientation.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Number of branch-and-bound nodes explored (diagnostics).
    pub fn nodes_explored(&self) -> usize {
        self.nodes_explored
    }

    /// Value of binary variable `i` as a `bool`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn binary_value(&self, i: usize) -> bool {
        self.x[i] > 0.5
    }
}

/// Branch-and-bound node ordered so the best (lowest) relaxation bound pops
/// first from the max-heap.
struct Node {
    /// Lower bound from the LP relaxation (minimization orientation).
    bound: f64,
    /// Fixed binaries: `(var_index, value)`.
    fixed: Vec<(usize, bool)>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest bound.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
    }
}

impl MixedIntegerProgram {
    /// Wraps a [`LinearProgram`], declaring `binary_vars` as binary.
    ///
    /// The `[0,1]` bounds on the binary variables are added automatically.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or duplicated.
    pub fn new(lp: LinearProgram, binary_vars: &[usize]) -> Self {
        let n = lp.num_vars();
        let mut seen = vec![false; n];
        for &i in binary_vars {
            assert!(i < n, "binary variable index out of range");
            assert!(!seen[i], "duplicate binary variable index");
            seen[i] = true;
        }
        Self {
            lp,
            binary: binary_vars.to_vec(),
        }
    }

    /// Indices of the binary variables.
    pub fn binary_vars(&self) -> &[usize] {
        &self.binary
    }

    /// Solves the MIP by best-first branch-and-bound.
    ///
    /// # Errors
    ///
    /// * [`LpError::Infeasible`] — no binary assignment yields a feasible LP.
    /// * [`LpError::Unbounded`] — the relaxation is unbounded (the integer
    ///   problem is then unbounded or ill-posed).
    /// * [`LpError::IterationLimit`] — an LP relaxation hit the pivot limit.
    pub fn solve(&self) -> Result<MipSolution, LpError> {
        // Work in minimization orientation: clone and solve relaxations with
        // fixed binary bounds.
        let solve_relaxation = |fixed: &[(usize, bool)]| -> Result<(Vec<f64>, f64), LpError> {
            let mut lp = self.lp.clone();
            for &i in &self.binary {
                lp.set_bounds(i, 0.0, 1.0);
            }
            for &(i, v) in fixed {
                let val = if v { 1.0 } else { 0.0 };
                lp.set_bounds(i, val, val);
            }
            lp.solve().map(|s| (s.x().to_vec(), s.objective()))
        };

        // Objective orientation: LpSolution reports the user's orientation.
        // For bounding we need "lower is better", so flip maximize problems.
        let to_min = |obj: f64| if self.is_maximize() { -obj } else { obj };

        let root = match solve_relaxation(&[]) {
            Ok((x, obj)) => (x, to_min(obj)),
            Err(e) => return Err(e),
        };

        let mut heap = BinaryHeap::new();
        heap.push(Node {
            bound: root.1,
            fixed: Vec::new(),
        });

        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        let mut nodes = 0usize;

        while let Some(node) = heap.pop() {
            if let Some((_, best)) = &incumbent {
                if node.bound >= *best - 1e-12 {
                    // Bound can't improve on the incumbent; since the heap is
                    // ordered by bound, nothing later can either.
                    break;
                }
            }
            nodes += 1;
            let (x, obj_min) = match solve_relaxation(&node.fixed) {
                Ok((x, obj)) => (x, to_min(obj)),
                Err(LpError::Infeasible) => continue,
                Err(e) => return Err(e),
            };
            if let Some((_, best)) = &incumbent {
                if obj_min >= *best - 1e-12 {
                    continue;
                }
            }
            // Find the most fractional unfixed binary.
            let mut branch_var = None;
            let mut most_frac = INT_TOL;
            for &i in &self.binary {
                let frac = (x[i] - x[i].round()).abs();
                if frac > most_frac {
                    most_frac = frac;
                    branch_var = Some(i);
                }
            }
            match branch_var {
                None => {
                    // Integral: new incumbent.
                    let mut xi = x.clone();
                    for &i in &self.binary {
                        xi[i] = x[i].round().clamp(0.0, 1.0);
                    }
                    incumbent = Some((xi, obj_min));
                }
                Some(i) => {
                    for v in [false, true] {
                        let mut fixed = node.fixed.clone();
                        fixed.push((i, v));
                        // Use the parent relaxation as an (optimistic) bound;
                        // the child relaxation is solved when popped.
                        heap.push(Node {
                            bound: obj_min,
                            fixed,
                        });
                    }
                }
            }
        }

        match incumbent {
            Some((x, obj_min)) => {
                let objective = if self.is_maximize() {
                    -obj_min
                } else {
                    obj_min
                };
                Ok(MipSolution {
                    x,
                    objective,
                    nodes_explored: nodes,
                })
            }
            None => Err(LpError::Infeasible),
        }
    }

    fn is_maximize(&self) -> bool {
        self.lp.is_maximize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knapsack() -> MixedIntegerProgram {
        let mut lp = LinearProgram::maximize(&[5.0, 4.0, 3.0]);
        lp.add_le(&[2.0, 3.0, 1.0], 4.0);
        MixedIntegerProgram::new(lp, &[0, 1, 2])
    }

    #[test]
    fn knapsack_optimum() {
        let sol = knapsack().solve().unwrap();
        assert!((sol.objective() - 8.0).abs() < 1e-6);
        assert!(sol.binary_value(0));
        assert!(!sol.binary_value(1));
        assert!(sol.binary_value(2));
    }

    #[test]
    fn matches_exhaustive_enumeration() {
        // Random-ish small problems: compare B&B against enumerating all
        // binary assignments and solving the continuous remainder.
        let weights = [
            [3.0, -2.0, 1.5, 4.0],
            [1.0, 1.0, 1.0, 1.0],
            [-1.0, 5.0, -3.0, 2.0],
        ];
        for (case, w) in weights.iter().enumerate() {
            let mut lp = LinearProgram::maximize(w);
            lp.add_le(&[1.0, 2.0, 3.0, 1.0], 4.0);
            lp.add_le(&[2.0, 1.0, 1.0, 3.0], 5.0);
            let mip = MixedIntegerProgram::new(lp.clone(), &[0, 1, 2, 3]);
            let sol = mip.solve();

            let mut best: Option<f64> = None;
            for mask in 0..16u32 {
                let mut probe = lp.clone();
                for i in 0..4 {
                    let v = if mask >> i & 1 == 1 { 1.0 } else { 0.0 };
                    probe.set_bounds(i, v, v);
                }
                if let Ok(s) = probe.solve() {
                    best = Some(best.map_or(s.objective(), |b: f64| b.max(s.objective())));
                }
            }
            match (sol, best) {
                (Ok(s), Some(b)) => {
                    assert!(
                        (s.objective() - b).abs() < 1e-6,
                        "case {case}: {} vs {b}",
                        s.objective()
                    );
                }
                (Err(LpError::Infeasible), None) => {}
                (s, b) => panic!("case {case}: mismatch {s:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn minimization_orientation() {
        // min x + y + 10 b  s.t.  x + y >= 1, x <= b, y <= 1, binary b.
        // If b = 0 then x = 0 so y = 1: cost 1. If b = 1: cost >= 10.
        let mut lp = LinearProgram::minimize(&[1.0, 1.0, 10.0]);
        lp.add_ge(&[1.0, 1.0, 0.0], 1.0);
        lp.add_le(&[1.0, 0.0, -1.0], 0.0);
        lp.add_le(&[0.0, 1.0, 0.0], 1.0);
        lp.set_lower_bound(0, 0.0);
        lp.set_lower_bound(1, 0.0);
        let sol = MixedIntegerProgram::new(lp, &[2]).solve().unwrap();
        assert!((sol.objective() - 1.0).abs() < 1e-6);
        assert!(!sol.binary_value(2));
    }

    #[test]
    fn infeasible_mip() {
        // b1 + b2 >= 3 with two binaries.
        let mut lp = LinearProgram::minimize(&[0.0, 0.0]);
        lp.add_ge(&[1.0, 1.0], 3.0);
        let res = MixedIntegerProgram::new(lp, &[0, 1]).solve();
        assert_eq!(res.unwrap_err(), LpError::Infeasible);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_binary_index_panics() {
        let lp = LinearProgram::minimize(&[1.0]);
        let _ = MixedIntegerProgram::new(lp, &[3]);
    }
}
