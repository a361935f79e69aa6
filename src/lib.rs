//! # Opportunistic Intermittent Control with Safety Guarantees
//!
//! A from-scratch Rust reproduction of Huang, Xu, Wang, Lan, Li, Zhu,
//! *"Opportunistic Intermittent Control with Safety Guarantees for
//! Autonomous Systems"*, DAC 2020 (arXiv:2005.03726).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] ([`oic_core`]) — the paper's contribution: strengthened safe
//!   sets, the runtime monitor, skipping policies (bang-bang, model-based
//!   MIP, DRL), and Algorithm 1.
//! * [`control`] ([`oic_control`]) — tube MPC, LQR, robust invariant sets.
//! * [`geom`] ([`oic_geom`]) — polytopes, support functions,
//!   Fourier–Motzkin projection.
//! * [`lp`] ([`oic_lp`]) — simplex LP and branch-and-bound MILP.
//! * [`linalg`] ([`oic_linalg`]) — small dense linear algebra.
//! * [`nn`] ([`oic_nn`]) / [`drl`] ([`oic_drl`]) — MLP + double deep
//!   Q-learning.
//! * [`sim`] ([`oic_sim`]) — the two-vehicle traffic micro-simulator (SUMO
//!   substitute) with driver and fuel models.
//! * [`scenarios`] ([`oic_scenarios`]) — the certified case-study library:
//!   ACC plus double integrator, lane keeping, orbit hold, RC thermal,
//!   quadrotor altitude, inverted pendulum cart, and DC-motor servo, each
//!   with its own invariant-set synthesis and disturbance process.
//! * [`engine`] ([`oic_engine`]) — the work-stealing batch evaluation
//!   engine: deterministic per-episode seeding, streaming per-cell
//!   aggregation (O(cells) memory), JSON reports byte-identical for any
//!   thread count, plus spec canonicalization/hashing and the
//!   content-addressed cell cache.
//! * [`serve`] ([`oic_serve`]) — the sweep service: a pure-`std` HTTP
//!   server streaming batch results cell by cell, with request
//!   coalescing and shard-merge tooling (`docs/PROTOCOL.md`).
//! * [`obs`] ([`oic_obs`]) — cross-cutting telemetry: sharded metrics,
//!   span tracing, Chrome trace export; off by default and never on the
//!   result path.
//!
//! # Quickstart
//!
//! ```
//! use oic::core::acc::AccCaseStudy;
//! use oic::core::{BangBangPolicy, IntermittentController, SkipPolicy};
//!
//! # fn main() -> Result<(), oic::core::CoreError> {
//! // Build the paper's ACC case study: plant, tube MPC, certified sets.
//! let case = AccCaseStudy::build_default()?;
//!
//! // Algorithm 1 with the bang-bang skipping baseline.
//! let mut runtime = IntermittentController::new(
//!     case.mpc().clone(),
//!     case.sets().clone(),
//!     Box::new(BangBangPolicy) as Box<dyn SkipPolicy>,
//!     1,
//! );
//! let decision = runtime.step(&[0.0, 0.0], &[])?;
//! assert!(decision.skipped, "inside X' the bang-bang policy skips");
//! # Ok(())
//! # }
//! ```

pub use oic_control as control;
pub use oic_core as core;
pub use oic_drl as drl;
pub use oic_engine as engine;
pub use oic_geom as geom;
pub use oic_linalg as linalg;
pub use oic_lp as lp;
pub use oic_nn as nn;
pub use oic_obs as obs;
pub use oic_scenarios as scenarios;
pub use oic_serve as serve;
pub use oic_sim as sim;
