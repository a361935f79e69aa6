//! Longitudinal two-vehicle traffic micro-simulation — the workspace's
//! substitute for SUMO (paper reference \[16\]).
//!
//! The paper simulates its adaptive cruise control (ACC) case study in
//! SUMO, which contributes three things: the ego plant integration, the
//! front-vehicle velocity trace, and fuel bookkeeping. This crate rebuilds
//! exactly those three:
//!
//! * [`AccParams`] / [`TrafficSim`] — the §IV difference equations
//!   `s⁺ = s − (v − v_f)δ`, `v⁺ = v − (kv − u)δ` in absolute coordinates,
//!   with the deviation-coordinate transform the safety analysis uses.
//! * [`front`] — front-vehicle driver models: the sinusoidal pattern of
//!   Eq. (8), bounded-acceleration random driving (Ex.1–5, Ex.7), i.i.d.
//!   random velocities (Ex.6), and stop-and-go.
//! * [`fuel`] — an HBEFA3-style polynomial fuel-rate model (the same
//!   functional family SUMO evaluates) plus the paper's `‖u‖₁` actuation
//!   energy.
//!
//! # Examples
//!
//! ```
//! use oic_sim::front::SinusoidalFront;
//! use oic_sim::fuel::Hbefa3Fuel;
//! use oic_sim::{AccParams, TrafficSim};
//!
//! let params = AccParams::default();
//! let front = SinusoidalFront::new(&params, 40.0, 9.0, 1.0, 42);
//! let mut sim = TrafficSim::new(params, Box::new(front), Box::new(Hbefa3Fuel::default()), 150.0, 40.0);
//! for _ in 0..100 {
//!     sim.step(8.0); // constant equilibrium input
//! }
//! assert_eq!(sim.trace().len(), 100);
//! assert!(sim.summary().total_fuel > 0.0);
//! ```

pub mod front;
pub mod fuel;

mod acc;
mod sim;

pub use acc::AccParams;
pub use sim::{SimSummary, StepRecord, TrafficSim};
