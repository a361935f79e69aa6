//! Consecutive-skip (weakly-hard) analysis.
//!
//! The paper's monitor re-checks `X′` membership every step, so skips are
//! granted one at a time. Its related-work section connects this to
//! **weakly-hard** systems, where up to `m` consecutive control "misses"
//! are tolerated by design. This module makes that connection computable:
//!
//! * [`consecutive_skip_sets`] — the chain `X′₀ ⊇ X′₁ ⊇ X′₂ ⊇ …` where
//!   `X′_k` contains the states from which `k` *consecutive* skipped steps
//!   provably keep the system inside `XI` the whole way:
//!   `X′₀ = XI`, `X′_{k+1} = B(X′_k, u_skip) ∩ XI`.
//!   (`X′₁` is exactly the paper's strengthened safe set.)
//! * [`max_consecutive_skips`] — the largest `k` with `X′_k` non-empty
//!   within an iteration budget: the plant's tolerance to back-to-back
//!   misses, in the `(m, K)` weakly-hard sense with `K = m + 1`.
//! * [`MaxSkipPolicy`] — a deadline-style policy exploiting the chain: it
//!   skips whenever the state is deep enough in the chain to guarantee the
//!   *next* `budget` steps could also be skipped.

use oic_geom::Polytope;

use crate::{CoreError, PolicyContext, SafeSets, SkipDecision, SkipPolicy};

/// Computes the consecutive-skip chain `X′₁, …, X′_k_max` (element `i`
/// holds `X′_{i+1}`).
///
/// Level 1 is `sets.strengthened()` itself, which [`SafeSets::new`]
/// already computed by the same recursion; the chain grows from it. The
/// chain stops early (returning fewer than `k_max` sets) as soon as a
/// level becomes empty.
///
/// # Errors
///
/// Propagates geometry failures. Level 1 is never empty:
/// [`SafeSets::new`] rejects an empty `X′` with [`CoreError::EmptySet`].
///
/// # Examples
///
/// ```
/// use oic_core::acc::AccCaseStudy;
/// use oic_core::skip_horizon::consecutive_skip_sets;
///
/// # fn main() -> Result<(), oic_core::CoreError> {
/// let case = AccCaseStudy::build_default()?;
/// let chain = consecutive_skip_sets(case.sets(), 5)?;
/// assert!(!chain.is_empty());
/// // Level 1 is the paper's strengthened safe set.
/// assert!(chain[0].set_eq(case.sets().strengthened(), 1e-6)?);
/// # Ok(())
/// # }
/// ```
pub fn consecutive_skip_sets(sets: &SafeSets, k_max: usize) -> Result<Vec<Polytope>, CoreError> {
    let mut chain = Vec::with_capacity(k_max);
    if k_max == 0 {
        return Ok(chain);
    }
    chain.push(sets.strengthened().clone());
    for _ in 1..k_max {
        let current = chain.last().expect("level 1 is pushed above");
        let backward = SafeSets::backward_reachable(sets.plant(), current, sets.skip_input())?;
        let next = backward.intersection(sets.invariant()).remove_redundant();
        if next.is_empty() {
            break;
        }
        chain.push(next);
    }
    Ok(chain)
}

/// The largest number of consecutive skips with a non-empty guarantee set,
/// capped at `k_max`.
///
/// # Errors
///
/// See [`consecutive_skip_sets`].
pub fn max_consecutive_skips(sets: &SafeSets, k_max: usize) -> Result<usize, CoreError> {
    Ok(consecutive_skip_sets(sets, k_max)?.len())
}

/// A weakly-hard-style skipping policy: skip only while the state is deep
/// enough in the consecutive-skip chain to cover a configured budget of
/// upcoming misses.
///
/// With `budget = 1` this behaves like the bang-bang policy; larger budgets
/// are increasingly conservative (they demand slack for several future
/// skips before skipping at all), trading fuel for fewer forced runs.
#[derive(Debug, Clone)]
pub struct MaxSkipPolicy {
    chain: Vec<Polytope>,
    budget: usize,
}

impl MaxSkipPolicy {
    /// Builds the policy with the given skip `budget ≥ 1`.
    ///
    /// # Errors
    ///
    /// Propagates chain-computation failures; fails with
    /// [`CoreError::EmptySet`] if the chain is shorter than the budget.
    pub fn new(sets: &SafeSets, budget: usize) -> Result<Self, CoreError> {
        assert!(budget >= 1, "budget must be at least 1");
        let chain = consecutive_skip_sets(sets, budget)?;
        if chain.len() < budget {
            return Err(CoreError::EmptySet);
        }
        Ok(Self { chain, budget })
    }

    /// The configured budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The guarantee set backing the budget (`X′_budget`).
    pub fn guarantee_set(&self) -> &Polytope {
        &self.chain[self.budget - 1]
    }
}

impl SkipPolicy for MaxSkipPolicy {
    fn decide(&mut self, ctx: &PolicyContext<'_>) -> SkipDecision {
        if self.guarantee_set().contains(ctx.state) {
            SkipDecision::Skip
        } else {
            SkipDecision::Run
        }
    }

    fn name(&self) -> &'static str {
        "max-skip"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acc::AccCaseStudy;
    use crate::IntermittentController;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn case() -> &'static AccCaseStudy {
        use std::sync::OnceLock;
        static CASE: OnceLock<AccCaseStudy> = OnceLock::new();
        CASE.get_or_init(|| AccCaseStudy::build_default().expect("builds"))
    }

    #[test]
    fn chain_is_nested() {
        let chain = consecutive_skip_sets(case().sets(), 6).unwrap();
        assert!(
            chain.len() >= 2,
            "ACC tolerates at least 2 consecutive skips"
        );
        for k in 1..chain.len() {
            assert!(
                chain[k].is_subset_of(&chain[k - 1], 1e-6).unwrap(),
                "X'_{} ⊄ X'_{}",
                k + 1,
                k
            );
        }
    }

    #[test]
    fn level_one_is_the_strengthened_set() {
        let chain = consecutive_skip_sets(case().sets(), 1).unwrap();
        assert!(chain[0].set_eq(case().sets().strengthened(), 1e-6).unwrap());
    }

    #[test]
    fn chain_semantics_hold_on_trajectories() {
        // From any sampled x ∈ X'_k, k consecutive skips under extreme
        // disturbances stay inside XI.
        let case = case();
        let sys = case.sets().plant().system().clone();
        let chain = consecutive_skip_sets(case.sets(), 4).unwrap();
        let u_skip = case.sets().skip_input().to_vec();
        let mut rng = StdRng::seed_from_u64(3);
        for (k, set) in chain.iter().enumerate() {
            let (lo, hi) = set.bounding_box().unwrap();
            for _ in 0..20 {
                let cand = [rng.gen_range(lo[0]..=hi[0]), rng.gen_range(lo[1]..=hi[1])];
                if !set.contains(&cand) {
                    continue;
                }
                let mut x = cand.to_vec();
                for step in 0..=k {
                    let w = vec![if rng.gen_bool(0.5) { 1.0 } else { -1.0 }, 0.0];
                    x = sys.step(&x, &u_skip, &w);
                    assert!(
                        case.sets().invariant().contains_with_tol(&x, 1e-6),
                        "level {} from {cand:?} left XI after {} skips",
                        k + 1,
                        step + 1
                    );
                }
            }
        }
    }

    #[test]
    fn max_skip_policy_is_safe_and_skips() {
        let case = case();
        let sys = case.sets().plant().system().clone();
        let policy = MaxSkipPolicy::new(case.sets(), 2).unwrap();
        assert_eq!(policy.budget(), 2);
        let mut ic =
            IntermittentController::new(case.mpc().clone(), case.sets().clone(), policy, 1);
        let mut rng = StdRng::seed_from_u64(8);
        let mut x = vec![0.0, 0.0];
        for _ in 0..200 {
            let d = ic.step(&x, &[]).unwrap();
            let w = vec![rng.gen_range(-1.0..=1.0), 0.0];
            x = sys.step(&x, &d.input, &w);
            assert!(case.sets().invariant().contains_with_tol(&x, 1e-6));
        }
        assert!(ic.stats().skipped > 50, "skips: {}", ic.stats().skipped);
    }

    #[test]
    fn larger_budget_is_more_conservative() {
        let case = case();
        let p1 = MaxSkipPolicy::new(case.sets(), 1).unwrap();
        let p3 = MaxSkipPolicy::new(case.sets(), 3).unwrap();
        assert!(p3
            .guarantee_set()
            .is_subset_of(p1.guarantee_set(), 1e-6)
            .unwrap());
    }

    #[test]
    fn max_consecutive_skips_is_positive_and_capped() {
        let m = max_consecutive_skips(case().sets(), 3).unwrap();
        assert!((1..=3).contains(&m));
    }
}
