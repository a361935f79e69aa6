//! Opportunistic intermittent control with safety guarantees.
//!
//! This crate is the paper's contribution (Huang et al., DAC 2020): an
//! online framework that **skips** the computation and actuation of an
//! underlying safe controller whenever a formally computed *strengthened
//! safe set* certifies that one step of "skip" cannot leave the robust
//! control invariant set.
//!
//! The pieces map one-to-one onto the paper:
//!
//! | Paper | Here |
//! |---|---|
//! | `X ⊇ XI ⊇ X′` (Fig. 1) | [`SafeSets`] with LP inclusion certificates |
//! | `B(Y, z)` backward reachable set (Def. 2) | [`SafeSets::backward_reachable`] |
//! | `X′ = B(XI, 0) ∩ XI` (Def. 3) | [`SafeSets::new`] (with configurable [`SkipInput`]) |
//! | runtime monitor (Fig. 2) | [`Monitor`] |
//! | Algorithm 1 | [`IntermittentController::step`] |
//! | `Ω` model-based, Eq. (6) | [`ModelBasedPolicy`] (MILP) |
//! | `Ω` DRL-based (§III-B-2) | [`GreedyDrlPolicy`], trained on [`SkipTrainingEnv`] |
//! | bang-bang baseline, Eq. (7) | [`BangBangPolicy`] |
//! | Theorem 1 | safety holds for **any** policy — see `tests/` property tests |
//!
//! The [`acc`] module assembles the paper's §IV adaptive-cruise-control case
//! study end to end.
//!
//! # Examples
//!
//! ```
//! use oic_core::acc::AccCaseStudy;
//!
//! # fn main() -> Result<(), oic_core::CoreError> {
//! let case = AccCaseStudy::build_default()?;
//! // The three nested safe sets of Fig. 1, with certificates:
//! case.sets().certify()?;
//! # Ok(())
//! # }
//! ```

pub mod acc;
pub mod skip_horizon;

mod drl_policy;
mod error;
mod model_based;
mod monitor;
mod policy;
mod runtime;
mod safe_sets;

pub use drl_policy::{
    DisturbanceProcess, EnergyMetric, GreedyDrlPolicy, SkipRewardWeights, SkipTrainingEnv,
};
pub use error::CoreError;
pub use model_based::ModelBasedPolicy;
pub use monitor::{Monitor, Verdict};
pub use policy::{
    AlwaysRunPolicy, BangBangPolicy, PeriodicSkipPolicy, PolicyContext, RandomPolicy, SkipDecision,
    SkipPolicy,
};
pub use runtime::{ControlDecision, IntermittentController, RunStats};
pub use safe_sets::{SafeSets, SkipInput};
