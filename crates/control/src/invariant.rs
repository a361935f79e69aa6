//! Robust invariant set computations.
//!
//! Three algorithms, matching the three set constructions the paper leans
//! on:
//!
//! * [`max_rpi`] — maximal robust positively invariant (RPI) set of an
//!   autonomous perturbed loop `x⁺ = A_K x + w` inside a constraint set,
//!   by the standard fixpoint iteration `Ω ← Ω ∩ Pre(Ω)`.
//! * [`max_rci`] — maximal robust *control* invariant set of
//!   `x⁺ = Ax + Bu + w` (paper reference \[17\]); `Pre` gains an `∃u ∈ U`
//!   which is resolved by polytope projection.
//! * [`rakovic_rpi`] — the Raković et al. outer approximation of the
//!   *minimal* RPI set (paper reference \[19\]), the paper's
//!   `XI = α(W ⊕ A_K W ⊕ … ⊕ A_Kⁿ W)` formula, computed exactly on
//!   zonotopes.
//!
//! All of it is dimension-generic: the Raković scaling `α` comes from
//! facet-wise support ratios over the containing zonotope's
//! `containment_directions` (not `2^k` corner LPs), and
//! [`rakovic_rpi_certified`] closes the invariance gap of degenerate
//! disturbances with an LP-free support-template fixpoint in every
//! dimension. The pre-refactor planar vertex-hull certification survives
//! as [`rakovic_rpi_certified_2d_reference`], the independent exact-hull
//! cross-check the template path is pinned against on the ACC loop.

use oic_geom::{canonical_unit, GeomError, Halfspace, Polytope, SupportFunction, Zonotope};
use oic_linalg::Matrix;

use crate::{ConstrainedLti, ControlError};

/// Tuning knobs for the invariant-set iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantOptions {
    /// Maximum fixpoint iterations (or Minkowski terms for Raković).
    pub max_iterations: usize,
    /// Inclusion tolerance used to detect the fixpoint.
    pub set_tolerance: f64,
    /// Raković only: stop once the scaling factor `α` drops below this.
    pub alpha_target: f64,
}

impl Default for InvariantOptions {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            set_tolerance: 1e-7,
            alpha_target: 0.01,
        }
    }
}

/// Result of [`rakovic_rpi`]: the invariant zonotope and the parameters the
/// paper calls `α` and `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct RakovicRpi {
    /// The RPI outer approximation `(1−α)⁻¹ (W ⊕ A_K W ⊕ … ⊕ A_K^{s−1} W)`.
    pub set: Zonotope,
    /// The achieved scaling `α` with `A_K^s W ⊆ α F_s`.
    pub alpha: f64,
    /// The number of Minkowski terms `s`.
    pub terms: usize,
}

/// Computes the maximal RPI set of `x⁺ = A_cl x + w`, `w ∈ W`, inside
/// `constraint`.
///
/// Iterates `Ω ← Ω ∩ (Ω ⊖ W) ∘ A_cl⁻¹` (as a pre-image, no inversion) until
/// the set stops changing. Each iterate is a subset of the previous one
/// by construction, so the fixpoint test checks only the inclusion that
/// can fail, `Ω ⊆ Ω ∩ Pre(Ω)`.
///
/// # Errors
///
/// * [`ControlError::EmptySet`] — no RPI set exists inside the constraint.
/// * [`ControlError::NotConverged`] — iteration budget exhausted.
/// * [`ControlError::Geometry`] — an LP certificate failed numerically.
///
/// # Examples
///
/// ```
/// use oic_control::{max_rpi, InvariantOptions};
/// use oic_geom::Polytope;
/// use oic_linalg::Matrix;
///
/// # fn main() -> Result<(), oic_control::ControlError> {
/// let a = Matrix::from_rows(&[&[0.5]]);
/// let w = Polytope::from_box(&[-1.0], &[1.0]);
/// let x = Polytope::from_box(&[-3.0], &[3.0]);
/// let inv = max_rpi(&a, &w, &x, &InvariantOptions::default())?;
/// assert!(inv.contains(&[2.0]));
/// # Ok(())
/// # }
/// ```
pub fn max_rpi<S: SupportFunction>(
    a_cl: &Matrix,
    w: &S,
    constraint: &Polytope,
    options: &InvariantOptions,
) -> Result<Polytope, ControlError> {
    assert_eq!(a_cl.rows(), constraint.dim(), "dimension mismatch");
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
        if omega.is_subset_of(&next, options.set_tolerance)? {
            return Ok(next);
        }
        omega = next;
    }
    Err(ControlError::NotConverged {
        iterations: options.max_iterations,
    })
}

/// One-step robust controllable predecessor
/// `Pre(Ω) = { x : ∃ u ∈ U, ∀ w ∈ W : Ax + Bu + w ∈ Ω }`.
///
/// The `∃u` is eliminated by Fourier–Motzkin projection of the lifted
/// polytope `{ (x,u) : Ax + Bu ∈ Ω ⊖ W, u ∈ U }`.
///
/// # Errors
///
/// Propagates geometry failures ([`ControlError::Geometry`]).
pub fn robust_controllable_pre(
    plant: &ConstrainedLti,
    target: &Polytope,
) -> Result<Polytope, ControlError> {
    let _span = oic_obs::span("cert.pre", "cert");
    let timer = oic_obs::Stopwatch::start();
    let sys = plant.system();
    let n = sys.state_dim();
    let m = sys.input_dim();
    let shrunk = target.minkowski_diff(plant.disturbance_set())?;
    let mut rows: Vec<Halfspace> = Vec::new();
    for h in shrunk.halfspaces() {
        // a·(Ax + Bu) ≤ b  ⇔  (aᵀA)·x + (aᵀB)·u ≤ b.
        let mut normal = sys.a().vec_mul(h.normal());
        normal.extend(sys.b().vec_mul(h.normal()));
        rows.push(Halfspace::new(normal, h.offset()));
    }
    for h in plant.input_set().halfspaces() {
        let mut normal = vec![0.0; n];
        normal.extend_from_slice(h.normal());
        rows.push(Halfspace::new(normal, h.offset()));
    }
    let pre = Polytope::new(n + m, rows).project_to_first(n);
    timer.stop_into(oic_obs::histogram!("cert.pre_ns", "ns"));
    Ok(pre)
}

/// Computes the maximal robust control invariant set of a constrained plant
/// inside its safe set `X` (paper reference \[17\]), by the fixpoint
/// iteration `Ω ← Ω ∩ Pre(Ω)`, stopped like [`max_rpi`]'s on `Ω ⊆ Ω ∩ Pre(Ω)`.
///
/// # Errors
///
/// * [`ControlError::EmptySet`] — no control invariant subset of `X` exists.
/// * [`ControlError::NotConverged`] — iteration budget exhausted.
/// * [`ControlError::Geometry`] — an LP certificate failed numerically.
pub fn max_rci(
    plant: &ConstrainedLti,
    options: &InvariantOptions,
) -> Result<Polytope, ControlError> {
    let mut omega = plant.safe_set().remove_redundant();
    for _ in 0..options.max_iterations {
        if omega.is_empty() {
            return Err(ControlError::EmptySet);
        }
        let pre = robust_controllable_pre(plant, &omega)?;
        let next = omega.intersection(&pre).remove_redundant();
        if next.is_empty() {
            return Err(ControlError::EmptySet);
        }
        if omega.is_subset_of(&next, options.set_tolerance)? {
            return Ok(next);
        }
        omega = next;
    }
    Err(ControlError::NotConverged {
        iterations: options.max_iterations,
    })
}

/// Support values below this magnitude are treated as a flat direction of
/// the containing zonotope.
const FLAT_TOL: f64 = 1e-9;

/// Generator cap (per ambient dimension) on the accumulated Raković sum
/// `F_s`. The per-term `α` query enumerates `C(k, n−1)` facet directions
/// of `F_s`, and `k` grows linearly with the term count, so slowly
/// contracting loops would otherwise pay a combinatorial price per term;
/// beyond the cap the sum is replaced by its Girard outer approximation,
/// which keeps the result a valid *outer* approximation of the minimal
/// RPI set (the function's contract) and is a no-op for the registry's
/// loops.
const RAKOVIC_GEN_CAP: usize = 24;

/// Smallest `α ≥ 0` with `inner ⊆ α·outer` for origin-centered zonotopes,
/// by facet-wise support ratios: `α = max_a h_inner(a) / h_outer(a)` over
/// the containment directions of `outer` (its facet normals plus flat /
/// cap directions). Exact — a polytope contains a convex set iff every
/// facet inequality dominates the set's support — and **dimension-generic**,
/// replacing the former `2^k` corner-point LP enumeration with
/// `O(C(k, n−1))` analytic support queries.
///
/// Returns `None` when no finite scaling works (`inner` sticks out of a
/// flat direction of `outer`).
fn zonotope_scale_factor(inner: &Zonotope, outer: &Zonotope) -> Option<f64> {
    debug_assert_eq!(inner.dim(), outer.dim(), "dimension mismatch");
    let mut alpha: f64 = 0.0;
    for dir in outer.containment_directions() {
        // Both sets are centered at the origin, so supports are symmetric
        // and one orientation per ± facet pair suffices.
        let h_outer = outer.support(&dir).expect("zonotope support is total");
        let h_inner = inner.support(&dir).expect("zonotope support is total");
        if h_outer < FLAT_TOL {
            if h_inner > FLAT_TOL {
                return None;
            }
            continue;
        }
        alpha = alpha.max(h_inner / h_outer);
    }
    Some(alpha)
}

/// Raković et al. outer approximation of the minimal RPI set of
/// `x⁺ = A_cl x + w`, `w ∈ W` — the paper's
/// `XI = α(W ⊕ A_K W ⊕ … ⊕ A_Kⁿ W)` construction.
///
/// Grows the truncated sum `F_s = ⊕_{i<s} A_cl^i W` until
/// `A_cl^s W ⊆ α F_s` holds with `α ≤ alpha_target`, then returns
/// `(1−α)⁻¹ F_s`, which is RPI.
///
/// # Errors
///
/// * [`ControlError::NotConverged`] — `α` did not reach the target within
///   `max_iterations` terms (e.g. the loop is not strictly stable).
///
/// # Panics
///
/// Panics if `w` is not centered at the origin (the construction requires a
/// symmetric disturbance; re-center `w` first).
pub fn rakovic_rpi(
    a_cl: &Matrix,
    w: &Zonotope,
    options: &InvariantOptions,
) -> Result<RakovicRpi, ControlError> {
    assert!(
        w.center().iter().all(|c| c.abs() < 1e-12),
        "rakovic_rpi requires a disturbance zonotope centered at the origin"
    );
    let mut f = w.clone(); // F_1 = W
    let mut a_pow_w = w.linear_image(a_cl); // A_cl^s W with s = 1
    for s in 1..=options.max_iterations {
        // α(s) = min α such that A_cl^s W ⊆ α F_s, by facet-wise support
        // ratios over the containment directions of F_s — the
        // dimension-generic replacement for enumerating the 2^k extreme
        // points of A_cl^s W against a per-corner LP.
        let alpha_s = zonotope_scale_factor(&a_pow_w, &f);
        let (feasible, alpha) = match alpha_s {
            Some(a) => (true, a),
            None => (false, 0.0),
        };
        if feasible && alpha < options.alpha_target && alpha < 1.0 {
            let set = f.scale(1.0 / (1.0 - alpha));
            return Ok(RakovicRpi {
                set,
                alpha,
                terms: s,
            });
        }
        // Keep the facet enumeration of the next α query polynomial: past
        // RAKOVIC_GEN_CAP generators per dimension the accumulated sum is
        // outer-approximated by its Girard reduction (a no-op for every
        // registry loop — only slowly contracting loops with many terms
        // reach the cap, where the exact C(k, n−1) enumeration would
        // otherwise dominate the synthesis).
        f = f
            .minkowski_sum(&a_pow_w)
            .reduce_order(RAKOVIC_GEN_CAP * w.dim());
        a_pow_w = a_pow_w.linear_image(a_cl);
    }
    Err(ControlError::NotConverged {
        iterations: options.max_iterations,
    })
}

/// Generator-count cap (per ambient dimension) applied before the facet
/// enumeration that seeds the n-D certified template: iterated Minkowski
/// sums grow generators linearly in the term count and facet enumeration
/// is `C(k, n−1)`, so high-order sums are first outer-approximated by
/// [`Zonotope::reduce_order`]. Offsets still come from the *exact* sum, so
/// only facet directions (not tightness in them) are approximated.
const TEMPLATE_ORDER: usize = 2;

/// Push chains stop once the cumulative contraction along the chain drops
/// below this weight; the remainder is closed with the axis-box bound.
/// Because the box overshoot is damped by the cumulative contraction on
/// its way back to the base directions, the offsets inflate by at most
/// a few times this fraction — and the template row count (hence every
/// downstream support LP) scales inversely with it.
const PUSH_TAIL: f64 = 3e-2;

/// Hard cap on template directions (a runaway backstop for marginally
/// stable loops; chains cut here fall back to the box tail bound, which
/// stays sound).
const MAX_TEMPLATE_DIRS: usize = 4096;

/// Component-wise tolerance for merging template directions. Push chains
/// converge onto the dominant eigendirection, so without merging the
/// template accumulates nearly parallel rows whose vertices are too
/// ill-conditioned for downstream LPs (a 1e−9 angular gap amplifies
/// round-off by ~1e9). Merged successors are compensated by a rigorous
/// `‖u − u′‖·max‖x‖` margin in the offset fixpoint.
const DIR_MATCH_TOL: f64 = 1e-5;

/// Computes a **certified** RPI outer approximation of the minimal RPI set
/// of `x⁺ = A_cl x + w`, `w ∈ W`, in any dimension.
///
/// [`rakovic_rpi`] matches the paper's formula but — like the paper's own
/// usage — only guarantees invariance when the disturbance set is
/// full-dimensional (`A^s W ⊆ αW` is the classical closure condition). For
/// degenerate disturbances such as the ACC's `W = [−1,1] × {0}`, this
/// function starts from the Raković set and closes the invariance gap with
/// the support-template fixpoint of [`certify_template`] — in **every**
/// dimension, the plane included: the facet-by-facet [`verify_rpi`]
/// inequalities are satisfied by construction, with no LP and no vertex
/// enumeration anywhere in the synthesis.
///
/// The pre-refactor planar exact-hull certification survives as
/// [`rakovic_rpi_certified_2d_reference`]; the template result is an outer
/// approximation of it (a few percent looser in support radius, bounded by
/// `PUSH_TAIL`), and the ACC pin test enforces both the containment and
/// the agreement. Committed engine baselines (`BENCH_batch.json`) do not
/// depend on either path.
///
/// # Errors
///
/// * [`ControlError::NotConverged`] — `α` or the certification fixpoint did
///   not close within the iteration budget.
///
/// # Panics
///
/// Panics if `w` is not centered at the origin (see [`rakovic_rpi`]) or
/// the matrix/disturbance dimensions disagree.
///
/// # Examples
///
/// ```
/// use oic_control::{rakovic_rpi_certified, verify_rpi, InvariantOptions};
/// use oic_geom::Zonotope;
/// use oic_linalg::Matrix;
///
/// # fn main() -> Result<(), oic_control::ControlError> {
/// // A 3-D contraction with a flat (rank-2) disturbance.
/// let a = Matrix::from_rows(&[
///     &[0.6, 0.1, 0.0],
///     &[0.0, 0.5, 0.1],
///     &[0.0, 0.0, 0.7],
/// ]);
/// let w = Zonotope::from_box(&[-0.1, -0.1, 0.0], &[0.1, 0.1, 0.0]);
/// let inv = rakovic_rpi_certified(&a, &w, &InvariantOptions::default())?;
/// assert!(verify_rpi(&inv, &a, &w, 1e-7)?);
/// # Ok(())
/// # }
/// ```
pub fn rakovic_rpi_certified(
    a_cl: &Matrix,
    w: &Zonotope,
    options: &InvariantOptions,
) -> Result<Polytope, ControlError> {
    assert_eq!(
        a_cl.rows(),
        w.dim(),
        "matrix/disturbance dimension mismatch"
    );
    let seed = {
        let _span = oic_obs::span("cert.seed", "cert");
        let timer = oic_obs::Stopwatch::start();
        let seed = rakovic_rpi(a_cl, w, options)?;
        timer.stop_into(oic_obs::histogram!("cert.seed_ns", "ns"));
        seed
    };
    let _span = oic_obs::span("cert.template_close", "cert");
    let timer = oic_obs::Stopwatch::start();
    let certified = certify_template(a_cl, w, &seed.set, options)?;
    timer.stop_into(oic_obs::histogram!("cert.template_close_ns", "ns"));
    Ok(certified)
}

/// The support-template certification behind [`rakovic_rpi_certified`]
/// (exposed so callers with their own seed — or benchmarks — can drive it
/// directly).
///
/// The template directions are the facet normals of the (order-reduced)
/// seed plus the standard axes, **closed under the normalized `Aᵀ`-push**
/// `a ↦ Aᵀa / ‖Aᵀa‖` until the cumulative contraction falls below
/// `PUSH_TAIL`. Offsets start at the exact hull-limit support
/// `sup_j [h_seed((Aᵀ)ʲa) + h_{F_j}(a)]` (all analytic zonotope queries)
/// and are then closed by the scalar backward recursion
///
/// ```text
/// b(a) ≥ ‖Aᵀa‖ · b(Aᵀa/‖Aᵀa‖) + h_W(a)
/// ```
///
/// which implies `sup_{x∈Ω} aᵀA_cl x + h_W(a) ≤ b(a)` for every template
/// facet — i.e. exactly [`verify_rpi`]'s certificate — because the pushed
/// direction is itself a template facet (or, past a chain end, bounded by
/// the axis-box rows). The whole fixpoint is scalar arithmetic: **no LP is
/// solved at any point of the synthesis**, which is what lets every
/// scenario build afford a certified tube in any dimension.
///
/// # Errors
///
/// * [`ControlError::NotConverged`] — the offsets diverge (the loop is not
///   strictly stable enough for this template) or the sweep budget is
///   exhausted.
///
/// # Panics
///
/// Panics if dimensions disagree.
pub fn certify_template(
    a_cl: &Matrix,
    w: &Zonotope,
    seed: &Zonotope,
    options: &InvariantOptions,
) -> Result<Polytope, ControlError> {
    let n = seed.dim();
    assert_eq!(a_cl.rows(), n, "matrix/seed dimension mismatch");
    assert_eq!(w.dim(), n, "disturbance/seed dimension mismatch");
    assert!(
        seed.center().iter().all(|c| c.abs() < 1e-12) && w.center().iter().all(|c| c.abs() < 1e-12),
        "certify_template requires origin-centered seed and disturbance"
    );

    // --- 1. Template directions: seed facets + axes, push-closed. ---
    let mut base = seed
        .reduce_order(TEMPLATE_ORDER * n)
        .containment_directions();
    for i in 0..n {
        let mut e = vec![0.0; n];
        e[i] = 1.0;
        base.push(e);
    }
    let find = |dirs: &[Vec<f64>], u: &[f64]| -> Option<usize> {
        dirs.iter()
            .position(|d| d.iter().zip(u).all(|(x, y)| (x - y).abs() < DIR_MATCH_TOL))
    };
    let mut dirs: Vec<Vec<f64>> = Vec::new();
    let mut queue: Vec<(Vec<f64>, f64)> = base
        .iter()
        .filter_map(|d| canonical_unit(d).map(|u| (u, 1.0)))
        .collect();
    while let Some((u, weight)) = queue.pop() {
        if find(&dirs, &u).is_some() {
            continue;
        }
        dirs.push(u.clone());
        let pushed = a_cl.vec_mul(&u);
        let gamma = oic_linalg::vec_ops::norm2(&pushed);
        if gamma > 1e-12 && weight * gamma > PUSH_TAIL && dirs.len() < MAX_TEMPLATE_DIRS {
            if let Some(next) = canonical_unit(&pushed) {
                queue.push((next, weight * gamma));
            }
        }
    }
    let m = dirs.len();

    // --- 2. Per-direction data: push successor, drift, limit offset. ---
    let mut gamma = vec![0.0; m];
    let mut next: Vec<Option<usize>> = vec![None; m];
    let mut drift = vec![0.0; m];
    let mut offsets = vec![0.0; m];
    let mut pushed_raw: Vec<Vec<f64>> = Vec::with_capacity(m);
    for i in 0..m {
        let p = a_cl.vec_mul(&dirs[i]);
        gamma[i] = oic_linalg::vec_ops::norm2(&p);
        if gamma[i] > 1e-12 {
            next[i] = canonical_unit(&p).and_then(|u| find(&dirs, &u));
        }
        drift[i] = w.support(&dirs[i])?;
        // Exact hull-limit support sup_j [h_seed((Aᵀ)ʲ a) + h_{F_j}(a)],
        // truncated once the pulled direction has decayed to nothing; the
        // j → ∞ term (the minimal-RPI support) closes the sup.
        let mut pulled = dirs[i].clone();
        let mut sum_w = 0.0;
        let mut best = f64::NEG_INFINITY;
        for _ in 0..4 * options.max_iterations {
            best = best.max(seed.support(&pulled)? + sum_w);
            sum_w += w.support(&pulled)?;
            pulled = a_cl.vec_mul(&pulled);
            if oic_linalg::vec_ops::norm2(&pulled) < 1e-12 {
                break;
            }
        }
        offsets[i] = best.max(sum_w);
        pushed_raw.push(p);
    }
    let axes: Vec<usize> = (0..n)
        .map(|i| {
            let mut e = vec![0.0; n];
            e[i] = 1.0;
            let u = canonical_unit(&e).expect("axis is non-zero");
            find(&dirs, &u).expect("axes were added to the template")
        })
        .collect();

    // --- 3. Scalar invariance fixpoint (monotone sweeps). ---
    let scale = offsets.iter().cloned().fold(1.0_f64, f64::max);
    let cap = 1e6 * scale;
    let mut sweeps = 0usize;
    loop {
        let mut changed = false;
        // Successors are matched within DIR_MATCH_TOL, so their support
        // can differ from the true pushed direction's by up to
        // ‖u − u′‖₂ · max‖x‖₂ ≤ √n·tol · √n·max_axis_offset; the margin
        // makes the merged bound rigorous. (It grows monotonically with
        // the offsets, so the sweep stays a monotone fixpoint iteration.)
        let max_axis = axes.iter().map(|&a| offsets[a]).fold(0.0_f64, f64::max);
        let merge_margin = DIR_MATCH_TOL * (n as f64) * max_axis;
        for i in 0..m {
            let carried = match next[i] {
                Some(j) => gamma[i] * (offsets[j] + merge_margin),
                // Past a chain end: bound h_Ω(Aᵀa) by the axis box.
                None => pushed_raw[i]
                    .iter()
                    .enumerate()
                    .map(|(d, v)| v.abs() * offsets[axes[d]])
                    .sum(),
            };
            let need = carried + drift[i];
            if need > offsets[i] * (1.0 + 1e-14) + 1e-12 {
                offsets[i] = need;
                changed = true;
            }
        }
        sweeps += 1;
        if !changed {
            break;
        }
        if sweeps > 100 * options.max_iterations || offsets.iter().any(|v| *v > cap) {
            return Err(ControlError::NotConverged { iterations: sweeps });
        }
    }

    // --- 4. Assemble; drop rows the axis-box rows already imply (the
    // deep chain tail) — exact dominance, so the set is unchanged and the
    // chain certificates keep holding on it. ---
    let mut halfspaces = Vec::with_capacity(2 * m);
    for i in 0..m {
        if !axes.contains(&i) {
            let box_bound: f64 = dirs[i]
                .iter()
                .enumerate()
                .map(|(d, v)| v.abs() * offsets[axes[d]])
                .sum();
            if offsets[i] >= box_bound - 1e-12 {
                continue;
            }
        }
        let neg: Vec<f64> = dirs[i].iter().map(|v| -v).collect();
        halfspaces.push(Halfspace::new(dirs[i].clone(), offsets[i]));
        // Symmetric by construction: seed and W are origin-centered.
        halfspaces.push(Halfspace::new(neg, offsets[i]));
    }
    Ok(Polytope::new(n, halfspaces))
}

/// The retained planar certification path: the exact vertex-hull growth
/// `Ω ← conv(Ω ∪ (A_cl Ω ⊕ W))` the pre-refactor 2-D implementation used.
/// It is **not** on the production path any more — the dimension-generic
/// template fixpoint is — but it is kept as the independent exact-hull
/// cross-check: the ACC pin test asserts the template result contains it
/// and agrees with it in support radius, so neither path can silently
/// degrade.
///
/// # Errors
///
/// * [`ControlError::Geometry`] — the sets are not 2-dimensional.
/// * [`ControlError::NotConverged`] — certification did not close within the
///   iteration budget.
pub fn rakovic_rpi_certified_2d_reference(
    a_cl: &Matrix,
    w: &Zonotope,
    options: &InvariantOptions,
) -> Result<Polytope, ControlError> {
    let seed = rakovic_rpi(a_cl, w, options)?;
    let mut omega = seed.set.to_polytope_2d()?.remove_redundant();
    let w_poly = w.to_polytope_2d()?;
    let w_verts = w_poly.vertices_2d()?;
    for _ in 0..options.max_iterations {
        if verify_rpi(&omega, a_cl, w, options.set_tolerance)? {
            return Ok(omega);
        }
        // Ω ← conv(Ω ∪ (A Ω ⊕ W)), computed on vertices.
        let mut pts = omega.vertices_2d()?;
        let current = pts.clone();
        for v in &current {
            let av = a_cl.mul_vec(&[v[0], v[1]]);
            for wv in &w_verts {
                pts.push([av[0] + wv[0], av[1] + wv[1]]);
            }
        }
        omega = oic_geom::polytope_from_points_2d(&pts)?.remove_redundant();
    }
    Err(ControlError::NotConverged {
        iterations: options.max_iterations,
    })
}

/// Certifies that `set` is RPI for `x⁺ = A_cl x + w`, `w ∈ W`: for every
/// facet `aᵀx ≤ b`, checks `sup_{x ∈ set} aᵀA_cl x + h_W(a) ≤ b + tol` by
/// LP — an exact certificate, not sampling.
///
/// # Errors
///
/// Propagates LP failures as [`GeomError`].
pub fn verify_rpi<S: SupportFunction>(
    set: &Polytope,
    a_cl: &Matrix,
    w: &S,
    tol: f64,
) -> Result<bool, GeomError> {
    for h in set.halfspaces() {
        let pushed = a_cl.vec_mul(h.normal()); // (aᵀ A_cl) as a direction on x
        let flow = match set.support(&pushed) {
            Ok(v) => v,
            Err(GeomError::EmptySet) => return Ok(true),
            Err(e) => return Err(e),
        };
        let drift = w.support(h.normal())?;
        if flow + drift > h.offset() + tol {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Certifies that `set` is robust **control** invariant for the plant:
/// `set ⊆ Pre(set)` with `Pre` from [`robust_controllable_pre`].
///
/// # Errors
///
/// Propagates geometry failures.
pub fn verify_rci(plant: &ConstrainedLti, set: &Polytope, tol: f64) -> Result<bool, ControlError> {
    let pre = robust_controllable_pre(plant, set)?;
    Ok(set.is_subset_of(&pre, tol)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lti;

    fn scalar_plant(x_hi: f64) -> (Matrix, Polytope, Polytope) {
        (
            Matrix::from_rows(&[&[0.5]]),
            Polytope::from_box(&[-1.0], &[1.0]),
            Polytope::from_box(&[-x_hi], &[x_hi]),
        )
    }

    #[test]
    fn max_rpi_scalar_whole_set_invariant() {
        let (a, w, x) = scalar_plant(3.0);
        let inv = max_rpi(&a, &w, &x, &InvariantOptions::default()).unwrap();
        // 0.5·3 + 1 = 2.5 ≤ 3, so X itself is invariant.
        assert!(inv.set_eq(&x, 1e-6).unwrap());
        assert!(verify_rpi(&inv, &a, &w, 1e-7).unwrap());
    }

    #[test]
    fn max_rpi_scalar_empty_when_too_tight() {
        // Minimal RPI is [-2,2]; X = [-1.5,1.5] admits no RPI subset.
        let (a, w, x) = scalar_plant(1.5);
        let err = max_rpi(&a, &w, &x, &InvariantOptions::default()).unwrap_err();
        assert_eq!(err, ControlError::EmptySet);
    }

    #[test]
    fn max_rpi_two_dimensional_certified() {
        // Mildly rotating stable loop with box disturbance.
        let a = Matrix::from_rows(&[&[0.8, 0.2], &[-0.2, 0.8]]);
        let w = Polytope::from_box(&[-0.1, -0.1], &[0.1, 0.1]);
        let x = Polytope::from_box(&[-2.0, -2.0], &[2.0, 2.0]);
        let inv = max_rpi(&a, &w, &x, &InvariantOptions::default()).unwrap();
        assert!(!inv.is_empty());
        assert!(inv.is_subset_of(&x, 1e-6).unwrap());
        assert!(verify_rpi(&inv, &a, &w, 1e-6).unwrap());
    }

    fn double_integrator_plant() -> ConstrainedLti {
        let sys = Lti::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]),
            Matrix::from_rows(&[&[0.5], &[1.0]]),
        );
        ConstrainedLti::new(
            sys,
            Polytope::from_box(&[-5.0, -2.0], &[5.0, 2.0]),
            Polytope::from_box(&[-1.0], &[1.0]),
            Polytope::from_box(&[-0.05, -0.05], &[0.05, 0.05]),
        )
    }

    #[test]
    fn max_rci_double_integrator_certified() {
        let plant = double_integrator_plant();
        let rci = max_rci(&plant, &InvariantOptions::default()).unwrap();
        assert!(!rci.is_empty());
        assert!(rci.is_subset_of(plant.safe_set(), 1e-6).unwrap());
        assert!(verify_rci(&plant, &rci, 1e-6).unwrap());
        // The origin must be controllable-invariant here.
        assert!(rci.contains(&[0.0, 0.0]));
    }

    #[test]
    fn max_rci_strictly_smaller_than_safe_set() {
        let plant = double_integrator_plant();
        let rci = max_rci(&plant, &InvariantOptions::default()).unwrap();
        // At (5, 2) the velocity pushes position out faster than u can stop:
        // x⁺ = 5 + 2 ± … > 5. So X is not control invariant.
        assert!(!rci.contains(&[5.0, 2.0]));
    }

    #[test]
    fn rakovic_scalar_matches_geometric_series() {
        // x⁺ = 0.5 x + w, w ∈ [-1,1]: minimal RPI is [-2, 2].
        let a = Matrix::from_rows(&[&[0.5]]);
        let w = Zonotope::from_box(&[-1.0], &[1.0]);
        let opts = InvariantOptions {
            alpha_target: 1e-3,
            ..Default::default()
        };
        let r = rakovic_rpi(&a, &w, &opts).unwrap();
        let radius = r.set.support(&[1.0]).unwrap();
        assert!((radius - 2.0).abs() < 0.01, "radius {radius}");
        assert!(r.alpha < 1e-3);
    }

    /// The ACC closed loop under its LQR gain, with the paper's degenerate
    /// disturbance `[−1,1] × {0}`.
    fn acc_closed_loop() -> (Matrix, Zonotope) {
        let a = Matrix::from_rows(&[&[1.0, -0.1], &[0.0, 0.98]]);
        let b = Matrix::from_rows(&[&[0.0], &[0.1]]);
        let k = crate::dlqr(&a, &b, &Matrix::identity(2), &Matrix::identity(1)).unwrap();
        let a_cl = &a + &(&b * &k);
        (a_cl, Zonotope::from_box(&[-1.0, 0.0], &[1.0, 0.0]))
    }

    #[test]
    fn rakovic_acc_closed_loop_certified() {
        // ACC model under an LQR gain; W is degenerate so the certified
        // variant must close the small invariance gap of the raw formula.
        let (a_cl, w) = acc_closed_loop();
        let certified = rakovic_rpi_certified(&a_cl, &w, &InvariantOptions::default()).unwrap();
        let wp = Polytope::from_box(&[-1.0, 0.0], &[1.0, 0.0]);
        assert!(verify_rpi(&certified, &a_cl, &wp, 1e-6).unwrap());
        // The certified set stays close to the raw Raković set: compare
        // support radii in a few directions (within 20 %).
        let raw = rakovic_rpi(&a_cl, &w, &InvariantOptions::default()).unwrap();
        for dir in [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]] {
            let c = certified.support(&dir).unwrap();
            let r = raw.set.support(&dir).unwrap();
            assert!(c >= r - 1e-9, "certified must contain raw");
            assert!(
                c <= 1.2 * r + 1e-9,
                "certified should not blow up: {c} vs {r}"
            );
        }
    }

    /// The acceptance pin for the multi-dimensional refactor, on the ACC
    /// closed loop: the retained exact-hull reference is certified, is
    /// contained in the template result, and agrees with it to a few
    /// percent in support radius (the `PUSH_TAIL` chain cutoff bounds the
    /// template's conservatism) — the committed planar behavior cannot
    /// silently degrade.
    #[test]
    fn rakovic_acc_pins_planar_reference() {
        let (a_cl, w) = acc_closed_loop();
        let opts = InvariantOptions::default();
        let nd = rakovic_rpi_certified(&a_cl, &w, &opts).unwrap();
        let reference = rakovic_rpi_certified_2d_reference(&a_cl, &w, &opts).unwrap();
        assert!(verify_rpi(&reference, &a_cl, &w, 1e-6).unwrap());
        assert!(
            reference.is_subset_of(&nd, 1e-6).unwrap(),
            "template result must contain the exact hull reference"
        );
        for dir in [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-0.3, 1.7]] {
            let t = nd.support(&dir).unwrap();
            let r = reference.support(&dir).unwrap();
            assert!(
                (t - r).abs() <= 0.08 * r.abs().max(1.0),
                "template {t} vs hull reference {r} in {dir:?}"
            );
        }
    }

    #[test]
    fn scale_factor_matches_corner_enumeration() {
        // Brute-force reference: the smallest α with all corners of
        // `inner` inside α·outer, checked by bisection on membership.
        let inner = Zonotope::new(vec![0.0, 0.0], vec![vec![0.3, 0.1], vec![-0.05, 0.2]]);
        let outer = Zonotope::new(vec![0.0, 0.0], vec![vec![1.0, 0.0], vec![0.5, 0.8]]);
        let alpha = zonotope_scale_factor(&inner, &outer).unwrap();
        // All corners of inner must lie in (α + ε)·outer and at least one
        // outside (α − ε)·outer.
        let corners: Vec<Vec<f64>> = (0..4u32)
            .map(|mask| {
                let mut p = inner.center().to_vec();
                for (i, g) in inner.generators().iter().enumerate() {
                    let sign = if mask >> i & 1 == 1 { 1.0 } else { -1.0 };
                    for (pd, gd) in p.iter_mut().zip(g) {
                        *pd += sign * gd;
                    }
                }
                p
            })
            .collect();
        let grown = outer.scale(alpha + 1e-6);
        assert!(corners.iter().all(|c| grown.contains(c)), "α too small");
        let shrunk = outer.scale((alpha - 1e-4).max(1e-9));
        assert!(corners.iter().any(|c| !shrunk.contains(c)), "α not minimal");
    }

    #[test]
    fn scale_factor_rejects_outside_flat_direction() {
        // outer is flat in y; inner extends into y: no finite scaling.
        let outer = Zonotope::from_box(&[-1.0, 0.0], &[1.0, 0.0]);
        let inner = Zonotope::from_box(&[-0.1, -0.1], &[0.1, 0.1]);
        assert_eq!(zonotope_scale_factor(&inner, &outer), None);
        // And the compatible flat case scales normally.
        let flat_inner = Zonotope::from_box(&[-0.5, 0.0], &[0.5, 0.0]);
        let alpha = zonotope_scale_factor(&flat_inner, &outer).unwrap();
        assert!((alpha - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rakovic_certified_three_dimensional() {
        // A strictly stable 3-D loop with a full box disturbance.
        let a = Matrix::from_rows(&[&[0.7, 0.1, 0.0], &[-0.1, 0.6, 0.1], &[0.0, 0.05, 0.8]]);
        let w = Zonotope::from_box(&[-0.1, -0.05, -0.05], &[0.1, 0.05, 0.05]);
        let opts = InvariantOptions::default();
        let inv = rakovic_rpi_certified(&a, &w, &opts).unwrap();
        assert_eq!(inv.dim(), 3);
        assert!(verify_rpi(&inv, &a, &w, 1e-7).unwrap());
        // Contains the raw Raković set.
        let raw = rakovic_rpi(&a, &w, &opts).unwrap();
        for dir in [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, -0.5, 1.0]] {
            let c = inv.support(&dir).unwrap();
            let r = raw.set.support(&dir).unwrap();
            assert!(c >= r - 1e-7, "certified {c} must cover raw {r}");
        }
    }

    #[test]
    fn rakovic_certified_four_dimensional_degenerate_w() {
        // 4-D loop with a rank-2 disturbance (only two driven channels) —
        // the regime where the raw formula's invariance can leak and the
        // template fixpoint must close it.
        let a = Matrix::from_rows(&[
            &[0.8, 0.1, 0.0, 0.0],
            &[0.0, 0.7, 0.1, 0.0],
            &[0.0, 0.0, 0.6, 0.1],
            &[0.1, 0.0, 0.0, 0.5],
        ]);
        let w = Zonotope::from_box(&[-0.05, 0.0, -0.02, 0.0], &[0.05, 0.0, 0.02, 0.0]);
        let opts = InvariantOptions::default();
        let inv = rakovic_rpi_certified(&a, &w, &opts).unwrap();
        assert_eq!(inv.dim(), 4);
        assert!(verify_rpi(&inv, &a, &w, 1e-7).unwrap());
        assert!(inv.contains(&[0.0; 4]));
    }

    #[test]
    fn verify_rpi_rejects_non_invariant_set() {
        // [-1,1] is not RPI for x⁺ = 0.5x + w with w ∈ [-1,1] (0.5+1 > 1).
        let a = Matrix::from_rows(&[&[0.5]]);
        let w = Polytope::from_box(&[-1.0], &[1.0]);
        let cand = Polytope::from_box(&[-1.0], &[1.0]);
        assert!(!verify_rpi(&cand, &a, &w, 1e-7).unwrap());
    }
}
