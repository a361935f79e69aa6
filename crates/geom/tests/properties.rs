//! Property-based tests of the polytope layer: the set operations
//! must *transport membership* correctly, which is exactly what the safety
//! machinery relies on.

use oic_geom::{Halfspace, Polytope, SupportFunction};
use oic_linalg::Matrix;
use proptest::prelude::*;

fn box2d() -> impl Strategy<Value = Polytope> {
    ((-5.0f64..0.0), (0.1f64..5.0), (-5.0f64..0.0), (0.1f64..5.0))
        .prop_map(|(lx, wx, ly, wy)| Polytope::from_box(&[lx, ly], &[lx + wx, ly + wy]))
}

fn point2d() -> impl Strategy<Value = [f64; 2]> {
    [(-6.0f64..6.0), (-6.0f64..6.0)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Minkowski difference: x ∈ P ⊖ W ⟺ x + w ∈ P for the extreme w.
    #[test]
    fn minkowski_diff_transports_membership(p in box2d(), x in point2d()) {
        let w = Polytope::from_box(&[-0.5, -0.25], &[0.5, 0.25]);
        let d = p.minkowski_diff(&w).unwrap();
        if d.contains_with_tol(&x, -1e-9) {
            for wx in [[-0.5, -0.25], [0.5, -0.25], [-0.5, 0.25], [0.5, 0.25]] {
                prop_assert!(p.contains_with_tol(&[x[0] + wx[0], x[1] + wx[1]], 1e-7));
            }
        }
    }

    /// Pre-image: x ∈ preimage(M, c) ⟺ Mx + c ∈ P.
    #[test]
    fn preimage_transports_membership(p in box2d(), x in point2d()) {
        let m = Matrix::from_rows(&[&[1.0, -0.1], &[0.0, 0.98]]);
        let c = [0.3, -0.2];
        let pre = p.preimage(&m, &c);
        let y = m.mul_vec(&x);
        let image = [y[0] + c[0], y[1] + c[1]];
        prop_assert_eq!(
            pre.contains_with_tol(&x, 1e-9),
            p.contains_with_tol(&image, 1e-9 * 2.0),
            "x = {:?}, Mx+c = {:?}", x, image
        );
    }

    /// Intersection is exactly conjunction of membership.
    #[test]
    fn intersection_is_conjunction(a in box2d(), b in box2d(), x in point2d()) {
        let i = a.intersection(&b);
        prop_assert_eq!(i.contains(&x), a.contains(&x) && b.contains(&x));
    }

    /// Redundancy removal preserves the set.
    #[test]
    fn remove_redundant_preserves_set(a in box2d(), b in box2d(), x in point2d()) {
        let p = a.intersection(&b);
        let r = p.remove_redundant();
        // Equality of membership except within a hair of the boundary.
        if p.min_slack(&x).abs() > 1e-6 {
            prop_assert_eq!(r.contains(&x), p.contains(&x));
        }
        prop_assert!(r.num_halfspaces() <= p.num_halfspaces());
    }

    /// Support function characterizes membership: x ∈ P ⟹ d·x ≤ h_P(d).
    #[test]
    fn support_bounds_members(p in box2d(), x in point2d(), d in point2d()) {
        if p.contains(&x) {
            let h = p.support(&d).unwrap();
            let dx = d[0] * x[0] + d[1] * x[1];
            prop_assert!(dx <= h + 1e-7);
        }
    }

    /// Support is sublinear: h(d1 + d2) ≤ h(d1) + h(d2).
    #[test]
    fn support_is_sublinear(p in box2d(), d1 in point2d(), d2 in point2d()) {
        let h1 = p.support(&d1).unwrap();
        let h2 = p.support(&d2).unwrap();
        let hs = p.support(&[d1[0] + d2[0], d1[1] + d2[1]]).unwrap();
        prop_assert!(hs <= h1 + h2 + 1e-7);
    }

    /// Fourier–Motzkin: membership in the projection has a witness, and
    /// every full point projects into the projection.
    #[test]
    fn projection_soundness(p in box2d(), x in point2d(), z in -5.0f64..5.0) {
        // Lift to 3-D with a coupling constraint, then eliminate z.
        let mut hs = Vec::new();
        for h in p.halfspaces() {
            let mut n = h.normal().to_vec();
            n.push(0.0);
            hs.push(oic_geom::Halfspace::new(n, h.offset()));
        }
        hs.push(oic_geom::Halfspace::new(vec![0.5, 0.5, 1.0], 3.0));
        hs.push(oic_geom::Halfspace::new(vec![0.0, 0.0, -1.0], 5.0));
        let lifted = Polytope::new(3, hs);
        let projected = lifted.eliminate(2);
        // Completeness direction: (x, z) ∈ lifted ⟹ x ∈ projected.
        if lifted.contains(&[x[0], x[1], z]) {
            prop_assert!(projected.contains_with_tol(&x, 1e-6));
        }
    }
}

/// A random box in `dim` dimensions with a coupling halfspace that cuts it
/// but keeps the center feasible, plus a query direction on the first two
/// coordinates. Exercises Fourier–Motzkin in dimensions 3–6.
fn lifted_box_case() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>, [f64; 2])> {
    (3usize..=6).prop_flat_map(|dim| {
        (
            prop::collection::vec(-3.0f64..0.0, dim),
            prop::collection::vec(0.1f64..3.0, dim),
            prop::collection::vec(-1.0f64..1.0, dim),
            point2d(),
        )
            .prop_map(|(lo, width, coupling, d)| {
                let hi: Vec<f64> = lo.iter().zip(&width).map(|(l, w)| l + w).collect();
                (lo, hi, coupling, d)
            })
    })
}

/// A random zonotope `c + G·[−1, 1]^{dim+1}` in dimensions 3–4, as its
/// center and `dim + 1` generators, plus a query direction on the first
/// two coordinates.
fn zonotope_case() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<f64>>, [f64; 2])> {
    (3usize..=4).prop_flat_map(|dim| {
        (
            prop::collection::vec(-1.0f64..1.0, dim),
            prop::collection::vec(prop::collection::vec(-1.0f64..1.0, dim), dim + 1),
            point2d(),
        )
    })
}

proptest! {
    // Fewer cases: each case runs several Fourier–Motzkin eliminations
    // with LP-based pruning.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fourier–Motzkin projection preserves the support function on the
    /// kept coordinates: `h_{proj(P)}(d) = h_P((d, 0, …, 0))`. Cross-checks
    /// the n-D elimination pipeline (including its redundancy pruning)
    /// against direct LP support evaluation on the unprojected polytope,
    /// up to dimension 6.
    #[test]
    fn projection_preserves_support_boxes((lo, hi, coupling, d) in lifted_box_case()) {
        prop_assume!(d[0].abs() + d[1].abs() > 1e-3);
        let dim = lo.len();
        let base = Polytope::from_box(&lo, &hi);
        // A coupling facet through a point between center and the support
        // extreme, so it genuinely cuts the box but keeps it non-empty.
        let center: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| 0.5 * (l + h)).collect();
        let c_dot: f64 = coupling.iter().zip(&center).map(|(c, x)| c * x).sum();
        let h_c = base.support(&coupling).unwrap();
        let mut rows = base.halfspaces().to_vec();
        rows.push(oic_geom::Halfspace::new(
            coupling.clone(),
            c_dot + 0.6 * (h_c - c_dot),
        ));
        let lifted = Polytope::new(dim, rows);
        let projected = lifted.project_to_first(2);
        let mut full_dir = vec![0.0; dim];
        full_dir[0] = d[0];
        full_dir[1] = d[1];
        let direct = lifted.support(&full_dir).unwrap();
        let via_projection = projected.support(&d).unwrap();
        prop_assert!(
            (direct - via_projection).abs() < 1e-6,
            "dim {}: direct {} vs projected {}", dim, direct, via_projection
        );
    }

    /// Same cross-check against an *analytic* support, so no LP sits on
    /// the oracle side: lift a random zonotope to
    /// `{ (x, ξ) : x = c + G·ξ, ‖ξ‖∞ ≤ 1 }`, project onto the first two
    /// coordinates, and compare with `h(d) = c·d + Σᵢ |gᵢ·d|`.
    #[test]
    fn projection_preserves_support_zonotopes((center, generators, d) in zonotope_case()) {
        prop_assume!(d[0].abs() + d[1].abs() > 1e-3);
        let (dim, k) = (center.len(), generators.len());
        let mut rows = Vec::new();
        for sign in [1.0, -1.0] {
            // sign·(x_r − Σᵢ gᵢ[r]·ξᵢ) ≤ sign·c_r: the two halves of x = c + G·ξ.
            for (r, c) in center.iter().enumerate() {
                let mut normal = vec![0.0; dim + k];
                normal[r] = sign;
                for (i, g) in generators.iter().enumerate() {
                    normal[dim + i] = -sign * g[r];
                }
                rows.push(Halfspace::new(normal, sign * c));
            }
        }
        for i in dim..dim + k {
            for sign in [1.0, -1.0] {
                let mut normal = vec![0.0; dim + k];
                normal[i] = sign;
                rows.push(Halfspace::new(normal, 1.0));
            }
        }
        let projected = Polytope::new(dim + k, rows).project_to_first(2);
        let dot = |v: &[f64]| v[0] * d[0] + v[1] * d[1];
        let analytic = dot(&center) + generators.iter().map(|g| dot(g).abs()).sum::<f64>();
        let via_projection = projected.support(&d).unwrap();
        prop_assert!(
            (analytic - via_projection).abs() < 1e-6,
            "dim {}: analytic {} vs projected {}", dim, analytic, via_projection
        );
    }
}
