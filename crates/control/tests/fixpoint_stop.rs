//! `max_rpi` stops its fixpoint on the one inclusion that can fail,
//! `Ω ⊆ Ω ∩ Pre(Ω)`. The other half of set equality holds by
//! construction, so the one-sided stop must return exactly what the
//! two-sided loop returns — bit for bit, or the same error.

use oic_control::{max_rpi, ControlError, InvariantOptions};
use oic_geom::{Polytope, SupportFunction};
use oic_linalg::{spectral_radius, Matrix};
use proptest::prelude::*;

/// The fixpoint loop as it stood before the one-sided stop: it tests
/// `next = Ω` by mutual inclusion.
fn max_rpi_two_sided<S: SupportFunction>(
    a_cl: &Matrix,
    w: &S,
    constraint: &Polytope,
    options: &InvariantOptions,
) -> Result<Polytope, ControlError> {
    let zero_shift = vec![0.0; constraint.dim()];
    let mut omega = constraint.remove_redundant();
    for _ in 0..options.max_iterations {
        if omega.is_empty() {
            return Err(ControlError::EmptySet);
        }
        let pre = omega.minkowski_diff(w)?.preimage(a_cl, &zero_shift);
        let next = omega.intersection(&pre).remove_redundant();
        if next.is_empty() {
            return Err(ControlError::EmptySet);
        }
        if next.set_eq(&omega, options.set_tolerance)? {
            return Ok(next);
        }
        omega = next;
    }
    Err(ControlError::NotConverged {
        iterations: options.max_iterations,
    })
}

fn bits(set: &Polytope) -> Vec<u64> {
    set.halfspaces()
        .iter()
        .flat_map(|h| h.normal().iter().copied().chain([h.offset()]))
        .map(f64::to_bits)
        .collect()
}

/// A random loop `A` with spectral radius `rho`, a box `W` with
/// half-widths `w`, and a box `X` with half-widths `x`.
fn random_loop(n: usize) -> impl Strategy<Value = (Matrix, Polytope, Polytope)> {
    (
        prop::collection::vec(-1.0f64..1.0, n * n),
        0.3f64..0.92,
        prop::collection::vec(0.01f64..0.6, n),
        prop::collection::vec(0.5f64..3.0, n),
    )
        .prop_map(move |(entries, rho, w, x)| {
            let raw = Matrix::from_vec(n, n, entries);
            let radius = spectral_radius(&raw).max(1e-3);
            let a = raw.scale(rho / radius);
            let neg = |v: &[f64]| v.iter().map(|r| -r).collect::<Vec<_>>();
            (
                a,
                Polytope::from_box(&neg(&w), &w),
                Polytope::from_box(&neg(&x), &x),
            )
        })
}

fn same_outcome(a: &Matrix, w: &Polytope, x: &Polytope) -> Result<(), String> {
    let options = InvariantOptions::default();
    match (
        max_rpi(a, w, x, &options),
        max_rpi_two_sided(a, w, x, &options),
    ) {
        (Ok(one_sided), Ok(two_sided)) => {
            prop_assert_eq!(bits(&one_sided), bits(&two_sided), "A = {:?}", a);
        }
        (Err(one_sided), Err(two_sided)) => prop_assert_eq!(one_sided, two_sided),
        (one_sided, two_sided) => {
            return Err(format!(
                "outcomes differ for A = {a:?}: {:?} vs {:?}",
                one_sided.map(|p| p.num_halfspaces()),
                two_sided.map(|p| p.num_halfspaces())
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn one_sided_stop_matches_two_sided_loop_in_2d((a, w, x) in random_loop(2)) {
        same_outcome(&a, &w, &x)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_sided_stop_matches_two_sided_loop_in_3d((a, w, x) in random_loop(3)) {
        same_outcome(&a, &w, &x)?;
    }
}
