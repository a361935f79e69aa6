//! Fourier–Motzkin elimination and orthogonal projection of polytopes.
//!
//! Projection is what turns "∃ inputs such that the constraints hold" into a
//! constraint on states alone. The two users in this workspace are:
//!
//! * the feasible set `X_F` of the robust MPC (Proposition 1: `X_I = X_F`),
//!   obtained by projecting the horizon-lifted constraint polytope onto the
//!   state coordinates, and
//! * the `Pre` operator of the maximal robust *control* invariant set,
//!   `Pre(Ω) = proj_x { (x,u) : Ax + Bu ∈ Ω ⊖ W, u ∈ U }`.
//!
//! Fourier–Motzkin elimination is exact but can square the constraint count
//! at each step, so redundancy is pruned with LPs after every elimination
//! (see `Polytope::remove_redundant`).

use crate::{Halfspace, Polytope};

/// Coefficient magnitude below which a variable is treated as absent from a
/// row.
const COEF_TOL: f64 = 1e-10;

impl Polytope {
    /// Eliminates coordinate `var` by Fourier–Motzkin, returning a polytope
    /// in dimension `dim − 1` describing
    /// `{ x₋ᵥ : ∃ xᵥ, x ∈ self }`.
    ///
    /// Redundant rows of the result are pruned with LPs.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range or the polytope is 1-dimensional
    /// (eliminating the only variable would leave a 0-dimensional set).
    pub fn eliminate(&self, var: usize) -> Polytope {
        assert!(var < self.dim(), "variable index out of range");
        assert!(self.dim() > 1, "cannot eliminate the only variable");

        let drop_var = |normal: &[f64]| -> Vec<f64> {
            normal
                .iter()
                .enumerate()
                .filter_map(|(i, &v)| (i != var).then_some(v))
                .collect()
        };

        let mut pos: Vec<(Vec<f64>, f64)> = Vec::new(); // scaled: x_v + a'·x' ≤ b'
        let mut neg: Vec<(Vec<f64>, f64)> = Vec::new(); // scaled: -x_v + a'·x' ≤ b'
        let mut out: Vec<Halfspace> = Vec::new();

        for h in self.halfspaces() {
            let c = h.normal()[var];
            if c > COEF_TOL {
                let inv = 1.0 / c;
                let row: Vec<f64> = drop_var(h.normal()).iter().map(|v| v * inv).collect();
                pos.push((row, h.offset() * inv));
            } else if c < -COEF_TOL {
                let inv = 1.0 / (-c);
                let row: Vec<f64> = drop_var(h.normal()).iter().map(|v| v * inv).collect();
                neg.push((row, h.offset() * inv));
            } else {
                out.push(Halfspace::new(drop_var(h.normal()), h.offset()));
            }
        }

        for (ap, bp) in &pos {
            for (an, bn) in &neg {
                let normal: Vec<f64> = ap.iter().zip(an).map(|(p, n)| p + n).collect();
                out.push(Halfspace::new(normal, bp + bn));
            }
        }

        Polytope::new(self.dim() - 1, out).remove_redundant()
    }

    /// Projects onto the first `keep` coordinates:
    /// `{ (x₁,…,x_keep) : ∃ rest, x ∈ self }`.
    ///
    /// Variables are eliminated one at a time, choosing at each step the
    /// remaining variable with the smallest `positive × negative` row-count
    /// product (the standard fill-minimizing heuristic).
    ///
    /// # Panics
    ///
    /// Panics if `keep` is zero or exceeds the dimension.
    pub fn project_to_first(&self, keep: usize) -> Polytope {
        assert!(
            keep > 0 && keep <= self.dim(),
            "invalid projection dimension"
        );
        let mut p = self.clone();
        // Track which original coordinate each current column refers to.
        let mut cols: Vec<usize> = (0..self.dim()).collect();
        while p.dim() > keep {
            // Candidates: columns holding an original index >= keep.
            let mut best: Option<(usize, usize)> = None; // (column, cost)
            for (col, &orig) in cols.iter().enumerate() {
                if orig < keep {
                    continue;
                }
                let mut npos = 0usize;
                let mut nneg = 0usize;
                for h in p.halfspaces() {
                    let c = h.normal()[col];
                    if c > COEF_TOL {
                        npos += 1;
                    } else if c < -COEF_TOL {
                        nneg += 1;
                    }
                }
                let cost = npos * nneg;
                if best.is_none_or(|(_, bc)| cost < bc) {
                    best = Some((col, cost));
                }
            }
            let (col, _) = best.expect("a column to eliminate must exist");
            p = p.eliminate(col);
            cols.remove(col);
        }
        // After elimination only the kept coordinates remain; restore their
        // original order (eliminations preserve relative order, and all kept
        // originals are < keep, so cols is already sorted — assert it).
        debug_assert!(cols.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(cols, (0..keep).collect::<Vec<_>>());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eliminate_from_square() {
        // Project the unit square onto x: the interval [-1, 1].
        let b = Polytope::from_box(&[-1.0, -1.0], &[1.0, 1.0]);
        let p = b.eliminate(1);
        assert_eq!(p.dim(), 1);
        assert!(p.contains(&[1.0]));
        assert!(p.contains(&[-1.0]));
        assert!(!p.contains(&[1.1]));
    }

    #[test]
    fn eliminate_coupled_constraints() {
        // x + y ≤ 1, -x + y ≤ 1, y ≥ -1 → projecting out y gives x free in
        // [-2, 2]: from y ≥ -1 with x + y ≤ 1 → x ≤ 2; -x + y ≤ 1 → x ≥ -2.
        let p = Polytope::new(
            2,
            vec![
                Halfspace::new(vec![1.0, 1.0], 1.0),
                Halfspace::new(vec![-1.0, 1.0], 1.0),
                Halfspace::new(vec![0.0, -1.0], 1.0),
            ],
        );
        let q = p.eliminate(1);
        assert!(q.contains(&[2.0]));
        assert!(q.contains(&[-2.0]));
        assert!(!q.contains(&[2.1]));
        assert!(!q.contains(&[-2.1]));
    }

    #[test]
    fn projection_of_rotated_box_membership_agrees_with_witness() {
        // 3-D box constraints plus coupling; check: a point is in the
        // projection iff some witness extension is in the original.
        let p = Polytope::new(
            3,
            vec![
                Halfspace::new(vec![1.0, 0.0, 0.0], 1.0),
                Halfspace::new(vec![-1.0, 0.0, 0.0], 1.0),
                Halfspace::new(vec![0.0, 1.0, 0.0], 1.0),
                Halfspace::new(vec![0.0, -1.0, 0.0], 1.0),
                Halfspace::new(vec![0.0, 0.0, 1.0], 1.0),
                Halfspace::new(vec![0.0, 0.0, -1.0], 1.0),
                Halfspace::new(vec![1.0, 1.0, 1.0], 1.5),
            ],
        );
        let proj = p.project_to_first(2);
        // (1, 1): requires z ≤ -0.5, witness z = -0.5 works.
        assert!(proj.contains(&[1.0, 1.0]));
        // (-1, -1): witness z = 0.
        assert!(proj.contains(&[-1.0, -1.0]));
        // Outside the box → outside projection.
        assert!(!proj.contains(&[1.2, 0.0]));
    }

    #[test]
    fn project_keeps_requested_dimension() {
        let p = Polytope::from_box(&[-1.0, -2.0, -3.0, -4.0], &[1.0, 2.0, 3.0, 4.0]);
        let q = p.project_to_first(2);
        assert_eq!(q.dim(), 2);
        assert!(q.contains(&[1.0, 2.0]));
        assert!(!q.contains(&[1.0, 2.1]));
    }

    #[test]
    fn empty_polytope_projects_to_empty() {
        let p = Polytope::new(
            2,
            vec![
                Halfspace::new(vec![1.0, 0.0], -1.0),
                Halfspace::new(vec![-1.0, 0.0], -1.0),
            ],
        );
        assert!(p.is_empty());
        let q = p.eliminate(1);
        assert!(q.is_empty());
    }
}
