//! Planar convex hulls and V-rep → H-rep conversion.
//!
//! Used by the zonotope → polytope conversion and by the planar
//! vertex-sum Minkowski reference (vertex sums followed by a hull). Only the 2-D case is needed: the ACC
//! case study has a 2-dimensional state, and higher-dimensional sets in this
//! workspace stay in H-rep or zonotope form.

use crate::{GeomError, Halfspace, Polytope};

/// Cross product `(b − a) × (c − a)`; positive for a counter-clockwise turn.
fn cross(a: [f64; 2], b: [f64; 2], c: [f64; 2]) -> f64 {
    (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
}

/// Computes the convex hull of a planar point set (Andrew's monotone chain),
/// returned in counter-clockwise order without repetition.
///
/// Collinear boundary points are dropped. Returns fewer than 3 points for
/// degenerate inputs (a single point, or a segment).
///
/// # Examples
///
/// ```
/// let hull = oic_geom::convex_hull_2d(&[
///     [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5],
/// ]);
/// assert_eq!(hull.len(), 4);
/// ```
pub fn convex_hull_2d(points: &[[f64; 2]]) -> Vec<[f64; 2]> {
    let mut pts: Vec<[f64; 2]> = points.to_vec();
    pts.sort_by(|p, q| {
        p[0].partial_cmp(&q[0])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(p[1].partial_cmp(&q[1]).unwrap_or(std::cmp::Ordering::Equal))
    });
    pts.dedup_by(|a, b| (a[0] - b[0]).abs() < 1e-12 && (a[1] - b[1]).abs() < 1e-12);
    let n = pts.len();
    if n <= 2 {
        return pts;
    }
    let mut hull: Vec<[f64; 2]> = Vec::with_capacity(2 * n);
    // Lower hull.
    for &p in &pts {
        while hull.len() >= 2 && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 1e-12 {
            hull.pop();
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in pts.iter().rev().skip(1) {
        while hull.len() >= lower_len
            && cross(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 1e-12
        {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop(); // last point repeats the first
    if hull.len() < 3 {
        // All points collinear: return the two extremes.
        return vec![pts[0], pts[n - 1]];
    }
    hull
}

/// Builds the H-representation of the convex hull of planar points.
///
/// Degenerate hulls are handled: a single point becomes the intersection of
/// four axis-aligned constraints pinning it; a segment becomes two parallel
/// line constraints plus two end-cap constraints.
///
/// # Errors
///
/// Returns [`GeomError::EmptySet`] for an empty input.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), oic_geom::GeomError> {
/// let p = oic_geom::polytope_from_points_2d(&[[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])?;
/// assert!(p.contains(&[0.5, 0.5]));
/// assert!(!p.contains(&[1.5, 1.5]));
/// # Ok(())
/// # }
/// ```
pub fn polytope_from_points_2d(points: &[[f64; 2]]) -> Result<Polytope, GeomError> {
    if points.is_empty() {
        return Err(GeomError::EmptySet);
    }
    let hull = convex_hull_2d(points);
    match hull.len() {
        1 => {
            let p = hull[0];
            Ok(Polytope::from_box(&[p[0], p[1]], &[p[0], p[1]]))
        }
        2 => {
            let (a, b) = (hull[0], hull[1]);
            let d = [b[0] - a[0], b[1] - a[1]];
            let n = [-d[1], d[0]]; // normal to the segment
            let mut hs = Vec::with_capacity(4);
            let nd = n[0] * a[0] + n[1] * a[1];
            hs.push(Halfspace::new(vec![n[0], n[1]], nd));
            hs.push(Halfspace::new(vec![-n[0], -n[1]], -nd));
            let da = d[0] * a[0] + d[1] * a[1];
            let db = d[0] * b[0] + d[1] * b[1];
            hs.push(Halfspace::new(vec![d[0], d[1]], da.max(db)));
            hs.push(Halfspace::new(vec![-d[0], -d[1]], -da.min(db)));
            Ok(Polytope::new(2, hs))
        }
        _ => {
            let m = hull.len();
            let mut hs = Vec::with_capacity(m);
            for i in 0..m {
                let a = hull[i];
                let b = hull[(i + 1) % m];
                // Outward normal of a CCW edge is the right-hand normal.
                let n = [b[1] - a[1], a[0] - b[0]];
                let off = n[0] * a[0] + n[1] * a[1];
                hs.push(Halfspace::new(vec![n[0], n[1]], off));
            }
            Ok(Polytope::new(2, hs))
        }
    }
}

/// The pre-refactor planar Minkowski sum — vertex sums followed by a
/// convex hull — retained as the independent reference the n-D projection
/// path is property-tested against.
///
/// # Errors
///
/// * [`GeomError::NotTwoDimensional`] — either operand is not 2-D.
/// * [`GeomError::EmptySet`] — either operand is empty.
pub fn minkowski_sum_2d_vertex_reference(
    a: &Polytope,
    b: &Polytope,
) -> Result<Polytope, GeomError> {
    if a.dim() != 2 || b.dim() != 2 {
        return Err(GeomError::NotTwoDimensional);
    }
    let va = a.vertices_2d()?;
    let vb = b.vertices_2d()?;
    let mut sums = Vec::with_capacity(va.len() * vb.len());
    for p in &va {
        for q in &vb {
            sums.push([p[0] + q[0], p[1] + q[1]]);
        }
    }
    polytope_from_points_2d(&sums)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hull_of_square_with_interior_points() {
        let hull = convex_hull_2d(&[
            [0.0, 0.0],
            [1.0, 0.0],
            [1.0, 1.0],
            [0.0, 1.0],
            [0.5, 0.5],
            [0.25, 0.75],
        ]);
        assert_eq!(hull.len(), 4);
    }

    #[test]
    fn hull_collinear_returns_extremes() {
        let hull = convex_hull_2d(&[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]]);
        assert_eq!(hull.len(), 2);
        assert_eq!(hull[0], [0.0, 0.0]);
        assert_eq!(hull[1], [2.0, 2.0]);
    }

    #[test]
    fn hull_single_point() {
        let hull = convex_hull_2d(&[[3.0, 4.0], [3.0, 4.0]]);
        assert_eq!(hull.len(), 1);
    }

    #[test]
    fn polytope_from_triangle_contains_centroid() {
        let p = polytope_from_points_2d(&[[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]).unwrap();
        assert!(p.contains(&[1.0, 1.0]));
        assert!(p.contains(&[0.0, 0.0]));
        assert!(!p.contains(&[2.0, 2.0]));
    }

    #[test]
    fn polytope_from_segment() {
        let p = polytope_from_points_2d(&[[0.0, 0.0], [2.0, 2.0]]).unwrap();
        assert!(p.contains(&[1.0, 1.0]));
        assert!(!p.contains(&[1.0, 1.2]));
        assert!(!p.contains(&[3.0, 3.0]));
    }

    #[test]
    fn polytope_from_point() {
        let p = polytope_from_points_2d(&[[1.0, -2.0]]).unwrap();
        assert!(p.contains(&[1.0, -2.0]));
        assert!(!p.contains(&[1.0, -1.9]));
    }

    #[test]
    fn minkowski_sum_of_boxes() {
        let a = Polytope::from_box(&[-1.0, -1.0], &[1.0, 1.0]);
        let b = Polytope::from_box(&[-0.5, -0.25], &[0.5, 0.25]);
        let s = a.minkowski_sum(&b).unwrap();
        assert!(s.contains(&[1.5, 1.25]));
        assert!(!s.contains(&[1.6, 0.0]));
        assert!(!s.contains(&[0.0, 1.3]));
    }

    #[test]
    fn minkowski_sum_with_segment() {
        // Box ⊕ vertical segment grows only vertically.
        let a = Polytope::from_box(&[-1.0, -1.0], &[1.0, 1.0]);
        let seg = polytope_from_points_2d(&[[0.0, -0.5], [0.0, 0.5]]).unwrap();
        let s = a.minkowski_sum(&seg).unwrap();
        assert!(s.contains(&[1.0, 1.5]));
        assert!(!s.contains(&[1.1, 0.0]));
    }

    #[test]
    fn vrep_hrep_roundtrip() {
        let pts = [[0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [0.0, 3.0]];
        let p = polytope_from_points_2d(&pts).unwrap();
        let verts = p.vertices_2d().unwrap();
        assert_eq!(verts.len(), 4);
        for want in pts {
            assert!(verts
                .iter()
                .any(|v| (v[0] - want[0]).abs() < 1e-7 && (v[1] - want[1]).abs() < 1e-7));
        }
    }
}
