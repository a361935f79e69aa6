//! The three nested safe sets of the paper's Fig. 1 and their certificates.

use oic_control::{max_rpi, ConstrainedLti, InvariantOptions, TubeMpc};
use oic_geom::Polytope;

use crate::CoreError;

/// The input applied on a skipped step.
///
/// The paper says a skipped step "applies a zero control input". In the
/// deviation coordinates required by the problem formulation (`0 ∈ U`),
/// that phrase is ambiguous: literal zero still actuates the equilibrium
/// feed-forward. Both readings are supported; Theorem 1 holds for either
/// because the strengthened set is computed **for the actual skip input**.
#[derive(Debug, Clone, PartialEq)]
pub enum SkipInput {
    /// Apply `u = 0` in model coordinates (the paper-literal reading).
    Zero,
    /// Apply a fixed vector — e.g. the ACC's "coast" input `−u*` so the
    /// physical actuation is exactly zero.
    Vector(Vec<f64>),
}

impl SkipInput {
    /// The concrete input vector for input dimension `m`.
    ///
    /// # Panics
    ///
    /// Panics if a [`SkipInput::Vector`] has length ≠ `m`.
    pub fn vector(&self, m: usize) -> Vec<f64> {
        match self {
            SkipInput::Zero => vec![0.0; m],
            SkipInput::Vector(v) => {
                assert_eq!(v.len(), m, "skip input dimension mismatch");
                v.clone()
            }
        }
    }
}

/// The nested safe sets `X ⊇ XI ⊇ X′` (paper Fig. 1) plus the plant and
/// skip input they were computed for.
///
/// * `X` — the original safe set (given).
/// * `XI` — a robust control invariant set of the underlying controller.
/// * `X′ = B(XI, u_skip) ∩ XI` — the strengthened safe set: states from
///   which even a skipped step provably stays inside `XI`.
///
/// # Examples
///
/// ```
/// use oic_core::acc::AccCaseStudy;
///
/// # fn main() -> Result<(), oic_core::CoreError> {
/// let case = AccCaseStudy::build_default()?;
/// let sets = case.sets();
/// assert!(sets.strengthened().contains(&[0.0, 0.0]));
/// sets.certify()?; // LP inclusion certificates, not sampling
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SafeSets {
    plant: ConstrainedLti,
    skip_input: Vec<f64>,
    safe: Polytope,
    invariant: Polytope,
    strengthened: Polytope,
    /// `X′`'s bounding box `(lo, hi)`, the initial-state sampler's
    /// proposal region.
    strengthened_box: (Vec<f64>, Vec<f64>),
}

impl SafeSets {
    /// Builds the set hierarchy from a given robust control invariant set.
    ///
    /// Computes `X′ = B(XI, u_skip) ∩ XI` where
    /// `B(Y, u) = { x : ∀w ∈ W, Ax + Bu + w ∈ Y }` (Definition 2 with the
    /// configurable skip input).
    ///
    /// # Errors
    ///
    /// * [`CoreError::EmptySet`] — the invariant or strengthened set is
    ///   empty.
    /// * [`CoreError::Geometry`] — an LP failed while shrinking by `W`,
    ///   or `X′` is unbounded (its bounding box, which the initial-state
    ///   sampler draws from, is computed here once).
    pub fn new(
        plant: ConstrainedLti,
        invariant: Polytope,
        skip_input: &SkipInput,
    ) -> Result<Self, CoreError> {
        let m = plant.system().input_dim();
        let u_skip = skip_input.vector(m);
        let invariant = invariant.remove_redundant();
        if invariant.is_empty() {
            return Err(CoreError::EmptySet);
        }
        let backward = Self::backward_reachable_impl(&plant, &invariant, &u_skip)?;
        let strengthened = backward.intersection(&invariant).remove_redundant();
        if strengthened.is_empty() {
            return Err(CoreError::EmptySet);
        }
        let strengthened_box = strengthened.bounding_box()?;
        let safe = plant.safe_set().clone();
        Ok(Self {
            plant,
            skip_input: u_skip,
            safe,
            invariant,
            strengthened,
            strengthened_box,
        })
    }

    /// Builds the hierarchy for a linear feedback controller `κ(x) = Kx`:
    /// `XI` is the maximal RPI set of `A + BK` inside
    /// `X ∩ {x : Kx ∈ U}`.
    ///
    /// # Errors
    ///
    /// Propagates invariant-set failures ([`CoreError::Control`]) and the
    /// emptiness/geometry errors of [`SafeSets::new`].
    pub fn for_linear_feedback(
        plant: ConstrainedLti,
        gain: &oic_linalg::Matrix,
        skip_input: &SkipInput,
    ) -> Result<Self, CoreError> {
        let sys = plant.system();
        let a_cl = sys.closed_loop(gain);
        let input_ok = plant
            .input_set()
            .preimage(gain, &vec![0.0; sys.input_dim()]);
        let constraint = plant.safe_set().intersection(&input_ok).remove_redundant();
        let invariant = max_rpi(
            &a_cl,
            plant.disturbance_set(),
            &constraint,
            &InvariantOptions::default(),
        )?;
        Self::new(plant, invariant, skip_input)
    }

    /// Builds the hierarchy for a tube MPC: `XI` is the MPC's feasible set
    /// `X_F` (Proposition 1).
    ///
    /// # Errors
    ///
    /// Propagates feasible-set failures and the emptiness/geometry errors
    /// of [`SafeSets::new`].
    pub fn for_tube_mpc(mpc: &TubeMpc, skip_input: &SkipInput) -> Result<Self, CoreError> {
        let invariant = mpc.feasible_set()?;
        Self::new(mpc.plant().clone(), invariant, skip_input)
    }

    /// The one-step robust backward reachable set `B(target, u)` under a
    /// fixed input (Definition 2 with `z = 0` generalized to any constant
    /// input).
    ///
    /// # Errors
    ///
    /// Propagates geometry failures.
    pub fn backward_reachable(
        plant: &ConstrainedLti,
        target: &Polytope,
        input: &[f64],
    ) -> Result<Polytope, CoreError> {
        Self::backward_reachable_impl(plant, target, input)
    }

    fn backward_reachable_impl(
        plant: &ConstrainedLti,
        target: &Polytope,
        input: &[f64],
    ) -> Result<Polytope, CoreError> {
        let sys = plant.system();
        let shrunk = target.minkowski_diff(plant.disturbance_set())?;
        let bu = sys.b().mul_vec(input);
        Ok(shrunk.preimage(sys.a(), &bu))
    }

    /// The plant these sets were computed for.
    pub fn plant(&self) -> &ConstrainedLti {
        &self.plant
    }

    /// The input applied on skipped steps (model coordinates).
    pub fn skip_input(&self) -> &[f64] {
        &self.skip_input
    }

    /// The original safe set `X`.
    pub fn safe(&self) -> &Polytope {
        &self.safe
    }

    /// The robust control invariant set `XI`.
    pub fn invariant(&self) -> &Polytope {
        &self.invariant
    }

    /// The strengthened safe set `X′`.
    pub fn strengthened(&self) -> &Polytope {
        &self.strengthened
    }

    /// Samples a state uniformly from the strengthened safe set `X′` by
    /// rejection from its bounding box (the experiments' "randomly pick
    /// feasible initial states within X′" protocol), falling back to the
    /// Chebyshev center for razor-thin sets. The box was computed once by
    /// [`SafeSets::new`], so a sample solves no LP.
    pub fn sample_strengthened<R: rand::Rng>(&self, rng: &mut R) -> Vec<f64> {
        let (lo, hi) = &self.strengthened_box;
        for _ in 0..10_000 {
            let candidate: Vec<f64> = lo
                .iter()
                .zip(hi)
                .map(|(l, h)| if h > l { rng.gen_range(*l..=*h) } else { *l })
                .collect();
            if self.strengthened.contains(&candidate) {
                return candidate;
            }
        }
        // A polytope with positive volume inside its own bounding box will
        // accept long before 10k tries; fall back to the Chebyshev center.
        self.strengthened
            .chebyshev_center()
            .map(|(center, _)| center)
            .expect("strengthened set has an interior point")
    }

    /// Certifies, with per-facet support LPs (no sampling), the premises of
    /// Theorem 1:
    ///
    /// 1. `X′ ⊆ XI ⊆ X` (the Fig. 1 nesting), and
    /// 2. the skip closure: for every `x ∈ X′` and `w ∈ W`,
    ///    `Ax + B·u_skip + w ∈ XI`.
    ///
    /// # Errors
    ///
    /// [`CoreError::CertificateFailed`] naming the failed inclusion, or a
    /// propagated LP failure.
    pub fn certify(&self) -> Result<(), CoreError> {
        let tol = 1e-6;
        if !self.strengthened.is_subset_of(&self.invariant, tol)? {
            return Err(CoreError::CertificateFailed {
                inclusion: "X' ⊆ XI",
            });
        }
        if !self.invariant.is_subset_of(&self.safe, tol)? {
            return Err(CoreError::CertificateFailed {
                inclusion: "XI ⊆ X",
            });
        }
        // Skip closure: A·X' + B·u_skip + W ⊆ XI, checked facet-by-facet:
        // sup_{x∈X'} aᵀAx + aᵀB·u_skip + h_W(a) ≤ b for every facet of XI.
        let sys = self.plant.system();
        let bu = sys.b().mul_vec(&self.skip_input);
        let image = {
            // {Ax + Bu_skip : x ∈ X'} has support h(d) = h_{X'}(Aᵀd) + d·Bu.
            |direction: &[f64]| -> Result<f64, CoreError> {
                use oic_geom::SupportFunction;
                let pulled = sys.a().vec_mul(direction);
                let base = self.strengthened.support(&pulled)?;
                let shift: f64 = direction.iter().zip(&bu).map(|(d, b)| d * b).sum();
                Ok(base + shift)
            }
        };
        for h in self.invariant.halfspaces() {
            use oic_geom::SupportFunction;
            let flow = image(h.normal())?;
            let drift = self.plant.disturbance_set().support(h.normal())?;
            if flow + drift > h.offset() + tol {
                return Err(CoreError::CertificateFailed {
                    inclusion: "A·X' + B·u_skip + W ⊆ XI",
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oic_control::{dlqr, Lti};
    use oic_geom::Polytope;
    use oic_linalg::Matrix;

    fn acc_plant() -> ConstrainedLti {
        ConstrainedLti::new(
            Lti::new(
                Matrix::from_rows(&[&[1.0, -0.1], &[0.0, 0.98]]),
                Matrix::from_rows(&[&[0.0], &[0.1]]),
            ),
            Polytope::from_box(&[-30.0, -15.0], &[30.0, 15.0]),
            Polytope::from_box(&[-48.0], &[32.0]),
            Polytope::from_box(&[-1.0, 0.0], &[1.0, 0.0]),
        )
    }

    fn lqr_gain(plant: &ConstrainedLti) -> Matrix {
        dlqr(
            plant.system().a(),
            plant.system().b(),
            &Matrix::identity(2),
            &Matrix::identity(1),
        )
        .unwrap()
    }

    #[test]
    fn linear_feedback_sets_certify_zero_skip() {
        let plant = acc_plant();
        let gain = lqr_gain(&plant);
        let sets = SafeSets::for_linear_feedback(plant, &gain, &SkipInput::Zero).unwrap();
        sets.certify().unwrap();
        assert!(sets.strengthened().contains(&[0.0, 0.0]));
    }

    #[test]
    fn linear_feedback_sets_certify_coast_skip() {
        let plant = acc_plant();
        let gain = lqr_gain(&plant);
        // Physical zero actuation: deviation input −u* = −8.
        let sets =
            SafeSets::for_linear_feedback(plant, &gain, &SkipInput::Vector(vec![-8.0])).unwrap();
        sets.certify().unwrap();
    }

    #[test]
    fn strengthened_is_strictly_inside_invariant_for_coast() {
        let plant = acc_plant();
        let gain = lqr_gain(&plant);
        let sets =
            SafeSets::for_linear_feedback(plant, &gain, &SkipInput::Vector(vec![-8.0])).unwrap();
        // Coasting decelerates, so near the low-velocity edge of XI a skip
        // could exit: X' must exclude some of XI.
        assert!(!sets
            .invariant()
            .is_subset_of(sets.strengthened(), 1e-6)
            .unwrap());
    }

    #[test]
    fn backward_reachable_matches_manual_computation() {
        let plant = acc_plant();
        let target = Polytope::from_box(&[-10.0, -10.0], &[10.0, 10.0]);
        let b = SafeSets::backward_reachable(&plant, &target, &[0.0]).unwrap();
        // x ∈ B ⇔ ∀w: Ax + w ∈ target ⇔ Ax ∈ target ⊖ W = [-9,9]×[-10,10].
        // Check a point: x = (9.5, 5): Ax = (9.0, 4.9) ∈ shrunk ✓.
        assert!(b.contains(&[9.5, 5.0]));
        // x = (10, 5): Ax = (9.5, 4.9): s-component 9.5 > 9 ✗.
        assert!(!b.contains(&[10.0, 5.0]));
    }

    #[test]
    fn skip_input_vector_roundtrip() {
        assert_eq!(SkipInput::Zero.vector(2), vec![0.0, 0.0]);
        assert_eq!(SkipInput::Vector(vec![-8.0]).vector(1), vec![-8.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn skip_input_wrong_len_panics() {
        let _ = SkipInput::Vector(vec![1.0, 2.0]).vector(1);
    }

    #[test]
    fn empty_invariant_rejected() {
        let plant = acc_plant();
        let empty = Polytope::from_box(&[5.0, 5.0], &[5.0, 5.0])
            .intersection(&Polytope::from_box(&[6.0, 6.0], &[6.0, 6.0]));
        let err = SafeSets::new(plant, empty, &SkipInput::Zero).unwrap_err();
        assert_eq!(err, CoreError::EmptySet);
    }
}
