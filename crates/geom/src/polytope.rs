//! Convex polytopes in halfspace representation.

use oic_linalg::Matrix;
use oic_lp::LinearProgram;

use crate::{GeomError, Halfspace, SupportFunction};

/// Default membership tolerance (absolute, on the constraint slack).
pub(crate) const CONTAINS_TOL: f64 = 1e-7;

/// Tolerance used by redundancy removal and inclusion certificates.
const INCLUSION_TOL: f64 = 1e-6;

/// A convex polyhedron `{ x : Aᵀᵢ x ≤ bᵢ }` in halfspace (H-) representation.
///
/// The representation may be unbounded (a polyhedron rather than a polytope);
/// queries that require boundedness ([`support`](Self::support),
/// [`bounding_box`](Self::bounding_box)) report
/// [`GeomError::Unbounded`] when it matters.
///
/// # Examples
///
/// ```
/// use oic_geom::{Halfspace, Polytope};
///
/// // The triangle x ≥ 0, y ≥ 0, x + y ≤ 1.
/// let tri = Polytope::new(2, vec![
///     Halfspace::new(vec![-1.0, 0.0], 0.0),
///     Halfspace::new(vec![0.0, -1.0], 0.0),
///     Halfspace::new(vec![1.0, 1.0], 1.0),
/// ]);
/// assert!(tri.contains(&[0.2, 0.3]));
/// assert!(!tri.contains(&[0.8, 0.8]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polytope {
    dim: usize,
    halfspaces: Vec<Halfspace>,
}

impl Polytope {
    /// Creates a polytope from halfspaces.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or any halfspace has a different dimension.
    pub fn new(dim: usize, halfspaces: Vec<Halfspace>) -> Self {
        assert!(dim > 0, "polytope dimension must be positive");
        for h in &halfspaces {
            assert_eq!(h.dim(), dim, "halfspace dimension mismatch");
        }
        Self { dim, halfspaces }
    }

    /// Creates the axis-aligned box `[lo₁,hi₁] × … × [loₙ,hiₙ]`.
    ///
    /// Degenerate intervals (`lo == hi`) are allowed; they produce flat
    /// polytopes such as the paper's disturbance set `[−1,1] × {0}`.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty, have different lengths, or if any
    /// `lo > hi`.
    pub fn from_box(lo: &[f64], hi: &[f64]) -> Self {
        assert!(!lo.is_empty(), "box must have at least one dimension");
        assert_eq!(lo.len(), hi.len(), "box bounds length mismatch");
        let dim = lo.len();
        let mut halfspaces = Vec::with_capacity(2 * dim);
        for i in 0..dim {
            assert!(lo[i] <= hi[i], "box lower bound exceeds upper bound");
            let mut up = vec![0.0; dim];
            up[i] = 1.0;
            halfspaces.push(Halfspace::new(up, hi[i]));
            let mut down = vec![0.0; dim];
            down[i] = -1.0;
            halfspaces.push(Halfspace::new(down, -lo[i]));
        }
        Self { dim, halfspaces }
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The defining halfspaces.
    pub fn halfspaces(&self) -> &[Halfspace] {
        &self.halfspaces
    }

    /// Number of halfspace constraints.
    pub fn num_halfspaces(&self) -> usize {
        self.halfspaces.len()
    }

    /// Tests membership with the default tolerance (`1e-7` on slack).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the ambient dimension.
    pub fn contains(&self, x: &[f64]) -> bool {
        self.contains_with_tol(x, CONTAINS_TOL)
    }

    /// Tests membership with an explicit tolerance.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the ambient dimension.
    pub fn contains_with_tol(&self, x: &[f64], tol: f64) -> bool {
        self.halfspaces.iter().all(|h| h.contains(x, tol))
    }

    /// Worst (most negative) slack over all constraints; `≥ 0` iff the point
    /// is inside. Useful as a signed "depth" of membership.
    ///
    /// Returns `+∞` for the universe polytope.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the ambient dimension.
    pub fn min_slack(&self, x: &[f64]) -> f64 {
        self.halfspaces
            .iter()
            .map(|h| h.slack(x))
            .fold(f64::INFINITY, f64::min)
    }

    /// Intersection with another polytope (constraint concatenation).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn intersection(&self, other: &Polytope) -> Polytope {
        assert_eq!(self.dim, other.dim, "dimension mismatch in intersection");
        let mut halfspaces = self.halfspaces.clone();
        halfspaces.extend(other.halfspaces.iter().cloned());
        Polytope {
            dim: self.dim,
            halfspaces,
        }
    }

    /// Emptiness test via LP feasibility.
    pub fn is_empty(&self) -> bool {
        if self.halfspaces.is_empty() {
            return false;
        }
        let mut lp = LinearProgram::minimize(&vec![0.0; self.dim]);
        for h in &self.halfspaces {
            lp.add_le(h.normal(), h.offset());
        }
        matches!(lp.solve(), Err(oic_lp::LpError::Infeasible))
    }

    /// Chebyshev center: the center and radius of the largest inscribed ball.
    ///
    /// # Errors
    ///
    /// * [`GeomError::EmptySet`] — the polytope is empty.
    /// * [`GeomError::Unbounded`] — the inscribed radius is unbounded.
    pub fn chebyshev_center(&self) -> Result<(Vec<f64>, f64), GeomError> {
        // Variables (x, r); maximize r s.t. aᵢ·x + ‖aᵢ‖ r ≤ bᵢ, r ≥ 0.
        let mut costs = vec![0.0; self.dim + 1];
        costs[self.dim] = 1.0;
        let mut lp = LinearProgram::maximize(&costs);
        lp.set_lower_bound(self.dim, 0.0);
        for h in &self.halfspaces {
            let norm: f64 = h.normal().iter().map(|v| v * v).sum::<f64>().sqrt();
            let mut row = h.normal().to_vec();
            row.push(norm);
            lp.add_le(&row, h.offset());
        }
        let sol = lp.solve().map_err(GeomError::from)?;
        Ok((sol.x()[..self.dim].to_vec(), sol.objective()))
    }

    /// Axis-aligned bounding box `(lo, hi)`.
    ///
    /// # Errors
    ///
    /// * [`GeomError::Unbounded`] — the polytope is unbounded along an axis.
    /// * [`GeomError::EmptySet`] — the polytope is empty.
    pub fn bounding_box(&self) -> Result<(Vec<f64>, Vec<f64>), GeomError> {
        let mut lo = vec![0.0; self.dim];
        let mut hi = vec![0.0; self.dim];
        let mut dir = vec![0.0; self.dim];
        for i in 0..self.dim {
            dir[i] = 1.0;
            hi[i] = self.support(&dir)?;
            dir[i] = -1.0;
            lo[i] = -self.support(&dir)?;
            dir[i] = 0.0;
        }
        Ok((lo, hi))
    }

    /// Minkowski difference `self ⊖ S = { x : x + s ∈ self ∀ s ∈ S }`.
    ///
    /// In H-rep this only shrinks offsets: `bᵢ ← bᵢ − h_S(aᵢ)`.
    ///
    /// # Errors
    ///
    /// Propagates support-function failures of `S` ([`GeomError::Unbounded`]
    /// if `S` is unbounded in a facet direction, [`GeomError::EmptySet`] if
    /// `S` is empty).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn minkowski_diff<S: SupportFunction>(&self, other: &S) -> Result<Polytope, GeomError> {
        assert_eq!(
            self.dim,
            other.dim(),
            "dimension mismatch in Minkowski difference"
        );
        let halfspaces = self
            .halfspaces
            .iter()
            .map(|h| {
                let shrink = other.support(h.normal())?;
                Ok(Halfspace::new(h.normal().to_vec(), h.offset() - shrink))
            })
            .collect::<Result<_, GeomError>>()?;
        Ok(Polytope {
            dim: self.dim,
            halfspaces,
        })
    }

    /// Affine pre-image `{ x : M x + shift ∈ self }`.
    ///
    /// This is the workhorse of backward reachability: the paper's
    /// `B(Y, z)` operators are pre-images of `Y ⊖ W` under the dynamics.
    ///
    /// # Panics
    ///
    /// Panics if `matrix.rows() != self.dim()` or
    /// `shift.len() != self.dim()`.
    pub fn preimage(&self, matrix: &Matrix, shift: &[f64]) -> Polytope {
        assert_eq!(
            matrix.rows(),
            self.dim,
            "matrix rows must match polytope dimension"
        );
        assert_eq!(shift.len(), self.dim, "shift dimension mismatch");
        let new_dim = matrix.cols();
        let mut halfspaces = Vec::with_capacity(self.halfspaces.len());
        for h in &self.halfspaces {
            // a·(Mx + c) ≤ b  ⇔  (aᵀM)·x ≤ b − a·c.
            let normal = matrix.vec_mul(h.normal());
            let shift_dot: f64 = h.normal().iter().zip(shift).map(|(a, c)| a * c).sum();
            halfspaces.push(Halfspace::new(normal, h.offset() - shift_dot));
        }
        Polytope {
            dim: new_dim,
            halfspaces,
        }
    }

    /// Translate by `t`: `{ x + t : x ∈ self }`.
    ///
    /// # Panics
    ///
    /// Panics if `t.len()` differs from the ambient dimension.
    pub fn translate(&self, t: &[f64]) -> Polytope {
        Polytope {
            dim: self.dim,
            halfspaces: self.halfspaces.iter().map(|h| h.translated(t)).collect(),
        }
    }

    /// Inclusion certificate `self ⊆ other` (up to tolerance), via one
    /// support LP per facet of `other`.
    ///
    /// An empty `self` is a subset of everything; an unbounded `self` cannot
    /// be contained in a facet direction of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::Lp`] if an LP fails numerically.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn is_subset_of(&self, other: &Polytope, tol: f64) -> Result<bool, GeomError> {
        assert_eq!(self.dim, other.dim, "dimension mismatch in inclusion test");
        for h in &other.halfspaces {
            match self.support(h.normal()) {
                Ok(v) => {
                    if v > h.offset() + tol {
                        return Ok(false);
                    }
                }
                Err(GeomError::EmptySet) => return Ok(true),
                Err(GeomError::Unbounded) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Set equality up to tolerance (mutual inclusion).
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::Lp`] if an LP fails numerically.
    pub fn set_eq(&self, other: &Polytope, tol: f64) -> Result<bool, GeomError> {
        Ok(self.is_subset_of(other, tol)? && other.is_subset_of(self, tol)?)
    }

    /// Removes redundant halfspaces (those implied by the rest) and exact
    /// duplicates. The result describes the same set with (weakly) fewer
    /// constraints.
    pub fn remove_redundant(&self) -> Polytope {
        // Normalize and drop trivial / duplicate rows first.
        let mut rows: Vec<Halfspace> = Vec::new();
        for h in &self.halfspaces {
            match h.normalized() {
                Some(n) => {
                    // Keep only the tighter of two parallel constraints.
                    let parallel = rows.iter_mut().find(|r| {
                        r.normal()
                            .iter()
                            .zip(n.normal())
                            .all(|(a, b)| (a - b).abs() < 1e-9)
                    });
                    if let Some(existing) = parallel {
                        if n.offset() < existing.offset() {
                            *existing = n;
                        }
                    } else {
                        rows.push(n);
                    }
                }
                None => {
                    if h.offset() < -1e-9 {
                        // 0·x ≤ negative: the set is empty; keep the witness.
                        rows.push(h.clone());
                    }
                    // 0·x ≤ nonneg is trivially true: drop.
                }
            }
        }

        let Some(keep) = redundancy_filter(&rows) else {
            // Infeasible even with a row relaxed: the polytope is empty;
            // return a canonical empty set.
            return Polytope::new(self.dim, vec![Halfspace::new(vec![0.0; self.dim], -1.0)]);
        };
        let halfspaces = rows
            .into_iter()
            .zip(keep)
            .filter_map(|(r, k)| k.then_some(r))
            .collect();
        Polytope {
            dim: self.dim,
            halfspaces,
        }
    }

    /// Area of a bounded 2-D polytope (shoelace formula over the vertex
    /// enumeration).
    ///
    /// # Errors
    ///
    /// * [`GeomError::NotTwoDimensional`] — ambient dimension is not 2.
    /// * [`GeomError::EmptySet`] — no vertices (empty set).
    pub fn area_2d(&self) -> Result<f64, GeomError> {
        let verts = self.vertices_2d()?;
        let n = verts.len();
        if n < 3 {
            return Ok(0.0);
        }
        let mut twice_area = 0.0;
        for i in 0..n {
            let [x1, y1] = verts[i];
            let [x2, y2] = verts[(i + 1) % n];
            twice_area += x1 * y2 - x2 * y1;
        }
        Ok(0.5 * twice_area.abs())
    }

    /// Enumerates the vertices of a bounded 2-D polytope, ordered
    /// counter-clockwise.
    ///
    /// # Errors
    ///
    /// * [`GeomError::NotTwoDimensional`] — ambient dimension is not 2.
    /// * [`GeomError::EmptySet`] — the polytope has no vertices.
    pub fn vertices_2d(&self) -> Result<Vec<[f64; 2]>, GeomError> {
        if self.dim != 2 {
            return Err(GeomError::NotTwoDimensional);
        }
        let hs = &self.halfspaces;
        let mut verts: Vec<[f64; 2]> = Vec::new();
        for i in 0..hs.len() {
            for j in (i + 1)..hs.len() {
                let (a1, a2) = (hs[i].normal(), hs[j].normal());
                let det = a1[0] * a2[1] - a1[1] * a2[0];
                if det.abs() < 1e-10 {
                    continue;
                }
                let (b1, b2) = (hs[i].offset(), hs[j].offset());
                let x = (b1 * a2[1] - b2 * a1[1]) / det;
                let y = (a1[0] * b2 - a2[0] * b1) / det;
                let p = [x, y];
                if self.contains_with_tol(&p, 1e-6)
                    && !verts
                        .iter()
                        .any(|v| (v[0] - x).abs() < 1e-7 && (v[1] - y).abs() < 1e-7)
                {
                    verts.push(p);
                }
            }
        }
        if verts.is_empty() {
            return Err(GeomError::EmptySet);
        }
        // Order counter-clockwise around the centroid.
        let cx = verts.iter().map(|v| v[0]).sum::<f64>() / verts.len() as f64;
        let cy = verts.iter().map(|v| v[1]).sum::<f64>() / verts.len() as f64;
        verts.sort_by(|p, q| {
            let ap = (p[1] - cy).atan2(p[0] - cx);
            let aq = (q[1] - cy).atan2(q[0] - cx);
            ap.partial_cmp(&aq).unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(verts)
    }
}

/// Sequential LP redundancy filter: one LP per row, already-dropped rows
/// excluded from later tests. Returns the keep mask, or `None` when the
/// system is infeasible (empty polytope).
fn redundancy_filter(rows: &[Halfspace]) -> Option<Vec<bool>> {
    let mut keep = vec![true; rows.len()];
    for i in 0..rows.len() {
        if rows[i].normalized().is_none() {
            continue; // infeasibility witness row, always kept
        }
        // Maximize aᵢ·x subject to all other kept rows, with aᵢ·x ≤ bᵢ+1
        // added to keep the LP bounded in the test direction.
        let mut lp = LinearProgram::maximize(rows[i].normal());
        let mut has_others = false;
        for (j, r) in rows.iter().enumerate() {
            if j == i || !keep[j] {
                continue;
            }
            lp.add_le(r.normal(), r.offset());
            has_others = true;
        }
        if !has_others {
            continue;
        }
        lp.add_le(rows[i].normal(), rows[i].offset() + 1.0);
        match lp.solve() {
            Ok(sol) => {
                if sol.objective() <= rows[i].offset() + INCLUSION_TOL {
                    keep[i] = false;
                }
            }
            Err(oic_lp::LpError::Infeasible) => return None,
            Err(_) => { /* keep the row on numerical failure: safe */ }
        }
    }
    Some(keep)
}

impl SupportFunction for Polytope {
    fn dim(&self) -> usize {
        self.dim
    }

    /// Support function via LP: `max d·x s.t. x ∈ self`.
    ///
    /// # Errors
    ///
    /// * [`GeomError::EmptySet`] — the polytope is empty.
    /// * [`GeomError::Unbounded`] — unbounded in direction `d`.
    fn support(&self, direction: &[f64]) -> Result<f64, GeomError> {
        assert_eq!(direction.len(), self.dim, "direction dimension mismatch");
        if self.halfspaces.is_empty() {
            // Universe: bounded only in the zero direction.
            return if direction.iter().all(|v| *v == 0.0) {
                Ok(0.0)
            } else {
                Err(GeomError::Unbounded)
            };
        }
        let mut lp = LinearProgram::maximize(direction);
        for h in &self.halfspaces {
            lp.add_le(h.normal(), h.offset());
        }
        let sol = lp.solve().map_err(GeomError::from)?;
        Ok(sol.objective())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Polytope {
        Polytope::from_box(&[-1.0, -1.0], &[1.0, 1.0])
    }

    #[test]
    fn box_membership_and_support() {
        let b = unit_box();
        assert!(b.contains(&[0.0, 0.0]));
        assert!(b.contains(&[1.0, -1.0]));
        assert!(!b.contains(&[1.1, 0.0]));
        assert!((b.support(&[1.0, 1.0]).unwrap() - 2.0).abs() < 1e-9);
        assert!((b.support(&[-2.0, 0.0]).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_box_is_flat() {
        // The paper's disturbance set [-1,1] × {0}.
        let w = Polytope::from_box(&[-1.0, 0.0], &[1.0, 0.0]);
        assert!(w.contains(&[0.5, 0.0]));
        assert!(!w.contains(&[0.5, 0.1]));
        assert!((w.support(&[0.0, 1.0]).unwrap()).abs() < 1e-9);
        assert!((w.support(&[1.0, 5.0]).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn emptiness() {
        let mut hs = unit_box().halfspaces().to_vec();
        hs.push(Halfspace::new(vec![1.0, 0.0], -2.0)); // x ≤ -2 contradicts x ≥ -1
        let p = Polytope::new(2, hs);
        assert!(p.is_empty());
        assert!(!unit_box().is_empty());
        assert!(!Polytope::new(3, Vec::new()).is_empty());
    }

    #[test]
    fn chebyshev_center_of_box() {
        let b = Polytope::from_box(&[0.0, 0.0], &[4.0, 2.0]);
        let (c, r) = b.chebyshev_center().unwrap();
        assert!((c[1] - 1.0).abs() < 1e-6);
        assert!((r - 1.0).abs() < 1e-6);
    }

    #[test]
    fn minkowski_diff_shrinks_box() {
        let b = Polytope::from_box(&[-2.0, -2.0], &[2.0, 2.0]);
        let w = Polytope::from_box(&[-0.5, -0.5], &[0.5, 0.5]);
        let d = b.minkowski_diff(&w).unwrap();
        assert!(d.contains(&[1.5, 1.5]));
        assert!(!d.contains(&[1.6, 0.0]));
        // Defining property: d ⊕ w ⊆ b on sampled points.
        for x in [[1.5, -1.5], [0.0, 1.5]] {
            for s in [[0.5, 0.5], [-0.5, 0.5]] {
                assert!(b.contains(&[x[0] + s[0], x[1] + s[1]]));
            }
        }
    }

    #[test]
    fn preimage_of_scaling() {
        let b = unit_box();
        let m = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 2.0]]);
        let pre = b.preimage(&m, &[0.0, 0.0]);
        // {x : 2x ∈ [-1,1]²} = [-0.5, 0.5]².
        assert!(pre.contains(&[0.5, -0.5]));
        assert!(!pre.contains(&[0.6, 0.0]));
    }

    #[test]
    fn preimage_with_shift() {
        let b = unit_box();
        let m = Matrix::identity(2);
        let pre = b.preimage(&m, &[1.0, 0.0]);
        // {x : x + (1,0) ∈ box} = [-2,0] × [-1,1].
        assert!(pre.contains(&[-2.0, 0.0]));
        assert!(!pre.contains(&[0.5, 0.0]));
    }

    #[test]
    fn translate_moves_the_set() {
        let t = unit_box().translate(&[10.0, 0.0]);
        assert!(t.contains(&[10.5, 0.5]));
        assert!(!t.contains(&[0.0, 0.0]));
    }

    #[test]
    fn subset_certificates() {
        let small = Polytope::from_box(&[-0.5, -0.5], &[0.5, 0.5]);
        let big = unit_box();
        assert!(small.is_subset_of(&big, 1e-9).unwrap());
        assert!(!big.is_subset_of(&small, 1e-9).unwrap());
        assert!(big.set_eq(&big.clone(), 1e-9).unwrap());
    }

    #[test]
    fn empty_set_is_subset_of_everything() {
        let empty = Polytope::new(
            1,
            vec![
                Halfspace::new(vec![1.0], 0.0),
                Halfspace::new(vec![-1.0], -1.0),
            ],
        );
        assert!(empty.is_empty());
        let any = Polytope::from_box(&[5.0], &[6.0]);
        assert!(empty.is_subset_of(&any, 1e-9).unwrap());
    }

    #[test]
    fn redundancy_removal() {
        let mut hs = unit_box().halfspaces().to_vec();
        hs.push(Halfspace::new(vec![1.0, 0.0], 5.0)); // implied by x ≤ 1
        hs.push(Halfspace::new(vec![1.0, 1.0], 10.0)); // implied
        hs.push(Halfspace::new(vec![2.0, 0.0], 2.0)); // duplicate of x ≤ 1 (scaled)
        let p = Polytope::new(2, hs);
        let r = p.remove_redundant();
        assert_eq!(r.num_halfspaces(), 4);
        assert!(r.set_eq(&unit_box(), 1e-7).unwrap());
    }

    #[test]
    fn vertices_of_triangle() {
        let tri = Polytope::new(
            2,
            vec![
                Halfspace::new(vec![-1.0, 0.0], 0.0),
                Halfspace::new(vec![0.0, -1.0], 0.0),
                Halfspace::new(vec![1.0, 1.0], 1.0),
            ],
        );
        let v = tri.vertices_2d().unwrap();
        assert_eq!(v.len(), 3);
        for expect in [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]] {
            assert!(
                v.iter()
                    .any(|p| (p[0] - expect[0]).abs() < 1e-7 && (p[1] - expect[1]).abs() < 1e-7),
                "missing vertex {expect:?} in {v:?}"
            );
        }
    }

    #[test]
    fn bounding_box_roundtrip() {
        let p = Polytope::from_box(&[-3.0, 2.0], &[-1.0, 7.0]);
        let (lo, hi) = p.bounding_box().unwrap();
        assert!((lo[0] + 3.0).abs() < 1e-9 && (hi[1] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn support_of_universe() {
        let u = Polytope::new(2, Vec::new());
        assert_eq!(u.support(&[1.0, 0.0]).unwrap_err(), GeomError::Unbounded);
        assert_eq!(u.support(&[0.0, 0.0]).unwrap(), 0.0);
    }

    #[test]
    fn area_of_box_and_triangle() {
        let b = Polytope::from_box(&[0.0, 0.0], &[4.0, 3.0]);
        assert!((b.area_2d().unwrap() - 12.0).abs() < 1e-7);
        let tri = Polytope::new(
            2,
            vec![
                Halfspace::new(vec![-1.0, 0.0], 0.0),
                Halfspace::new(vec![0.0, -1.0], 0.0),
                Halfspace::new(vec![1.0, 1.0], 2.0),
            ],
        );
        assert!((tri.area_2d().unwrap() - 2.0).abs() < 1e-7);
    }

    #[test]
    fn area_of_degenerate_box_is_zero() {
        let flat = Polytope::from_box(&[-1.0, 0.0], &[1.0, 0.0]);
        assert!(flat.area_2d().unwrap().abs() < 1e-9);
    }

    #[test]
    fn min_slack_signed_depth() {
        let b = unit_box();
        assert!((b.min_slack(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((b.min_slack(&[0.5, 0.0]) - 0.5).abs() < 1e-12);
        assert!(b.min_slack(&[2.0, 0.0]) < 0.0);
    }
}
