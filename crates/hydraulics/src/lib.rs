//! EPANET++-class hydraulic simulation for AquaSCALE.
//!
//! The paper enhances the commercial-grade hydraulic simulator EPANET "with
//! the support for IoT sensor and pipe failure modelings" and calls the
//! result EPANET++. This crate implements that substrate from scratch:
//!
//! * **Demand-driven snapshot solver** using Todini's Global Gradient
//!   Algorithm (GGA) — the same algorithm EPANET 2 uses — with
//!   Hazen–Williams (default) or Darcy–Weisbach headloss, pumps, throttle
//!   valves, check valves and closed links ([`solve_snapshot`]).
//! * **Leak modeling** via emitters: `Q = EC · p^β` (paper eq. 1) with
//!   β = 0.5 by default ([`Emitter`], [`LeakEvent`]).
//! * **Extended-period simulation** with tank level integration and
//!   pattern-driven demands ([`ExtendedPeriodSim`]), whose hydraulic time
//!   step doubles as the IoT sampling interval (15 minutes in the paper).
//! * A sparse `LDLᵀ` linear solve, analyzed once per [`SolverWorkspace`]
//!   (minimum-degree ordering, elimination tree) and refactored every
//!   Newton iteration, with dense Cholesky kept as the reference oracle and
//!   the recovery ladder's fallback ([`LinearBackend`]).
//!
//! # Example
//!
//! ```
//! use aqua_hydraulics::{solve_snapshot, Scenario, SolverOptions};
//! use aqua_net::synth;
//!
//! let net = synth::epa_net();
//! let snap = solve_snapshot(&net, &Scenario::default(), 0, &SolverOptions::default()).unwrap();
//! // Every junction is served at positive pressure.
//! for id in net.junction_ids() {
//!     assert!(snap.pressure(id) > 0.0);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emitter;
mod eps;
mod error;
mod headloss;
pub mod linalg;
pub mod quality;
mod recovery;
mod scenario;
mod snapshot;
mod solver;
mod workspace;

pub use emitter::Emitter;
pub use eps::{EpsResult, ExtendedPeriodSim};
pub use error::HydraulicError;
pub use headloss::HeadlossModel;
pub use quality::{QualitySources, WaterQuality};
pub use recovery::{
    solve_snapshot_recovering, solve_snapshot_recovering_traced, RecoveryAction, SolveReport,
    ESCALATION_BUDGET_FACTOR, ESCALATION_DAMPING_FACTOR,
};
pub use scenario::{LeakEvent, Scenario};
pub use snapshot::Snapshot;
pub use solver::{
    solve_snapshot, solve_snapshot_traced, solve_snapshot_with, LinearBackend, SolverOptions,
};
pub use workspace::{SolverWorkspace, WarmStart};

/// Gravitational acceleration, m/s².
pub const GRAVITY: f64 = 9.81;
