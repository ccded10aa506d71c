//! Solver recovery ladder: turn transient solve failures into retries.
//!
//! Phase-I corpus generation solves tens of thousands of perturbed
//! scenarios; a handful inevitably land in the solver's bad spots — a warm
//! start from the wrong basin, a limit cycle between big emitters and
//! flapping check valves, a non-positive pivot on a borderline matrix.
//! Aborting a 20k-scenario build on any of those is not acceptable for a
//! production pipeline, so [`solve_snapshot_recovering`] climbs a short
//! deterministic ladder before giving up:
//!
//! 1. **Cold restart** — on [`HydraulicError::NotConverged`] or
//!    [`HydraulicError::NumericalBlowup`] with a warm start set, discard the
//!    warm start and re-run from the synthetic cold guess (a poisoned warm
//!    start is the single most common failure source).
//! 2. **Escalation** — still not converging, halve the flow-update
//!    [damping](crate::SolverOptions::damping) and multiply the iteration
//!    budget by [`ESCALATION_BUDGET_FACTOR`]; under-relaxation breaks the
//!    oscillation-type divergences that a bigger budget alone never fixes.
//! 3. **Dense fallback** — on [`HydraulicError::LinearSolveFailed`] under
//!    the sparse `LDLᵀ` backend, retry once with dense Cholesky, an
//!    independent factorization of the same matrix.
//!
//! Every rung fires at most once per solve and the actions taken are
//! recorded in a [`SolveReport`], so callers (and the robustness bench) can
//! count how often each recovery was needed instead of silently absorbing
//! them.

use aqua_net::Network;
use aqua_telemetry::TelemetryCtx;

use crate::error::HydraulicError;
use crate::scenario::Scenario;
use crate::snapshot::Snapshot;
use crate::solver::{solve_snapshot_traced, LinearBackend, SolverOptions};
use crate::workspace::SolverWorkspace;

/// Iteration-budget multiplier applied by the escalation rung.
pub const ESCALATION_BUDGET_FACTOR: usize = 8;
/// Damping multiplier applied by the escalation rung.
pub const ESCALATION_DAMPING_FACTOR: f64 = 0.5;

/// One recovery the ladder performed on the way to a converged solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryAction {
    /// The warm start was discarded and the solve re-run cold.
    ColdRestart,
    /// The solve was re-run with under-relaxation and a larger budget.
    Escalated {
        /// Damping factor used for the retry.
        damping: f64,
        /// Iteration budget used for the retry.
        max_iterations: usize,
    },
    /// The sparse linear backend was swapped for dense Cholesky.
    DenseFallback,
}

impl RecoveryAction {
    /// The registry counter this rung increments when it fires (DESIGN.md
    /// §8 naming: `crate.subsystem.name`).
    pub fn metric_name(&self) -> &'static str {
        match self {
            RecoveryAction::ColdRestart => "hydraulics.recovery.cold_restarts",
            RecoveryAction::Escalated { .. } => "hydraulics.recovery.escalations",
            RecoveryAction::DenseFallback => "hydraulics.recovery.dense_fallbacks",
        }
    }

    fn is_cold_restart(&self) -> bool {
        matches!(self, RecoveryAction::ColdRestart)
    }

    fn is_escalation(&self) -> bool {
        matches!(self, RecoveryAction::Escalated { .. })
    }

    fn is_dense_fallback(&self) -> bool {
        matches!(self, RecoveryAction::DenseFallback)
    }
}

/// What it took to produce a converged solution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveReport {
    /// Solve attempts performed (1 = clean first-try convergence).
    pub attempts: usize,
    /// The recovery rungs that fired, in order.
    pub recoveries: Vec<RecoveryAction>,
    /// GGA iterations of the final (successful) attempt.
    pub iterations: usize,
}

impl SolveReport {
    /// `true` when the solve converged on the first attempt.
    pub fn was_clean(&self) -> bool {
        self.recoveries.is_empty()
    }

    /// Mirrors this report into the telemetry registry, making the report
    /// a thin per-call view over the same counts: each rung bumps its
    /// [`RecoveryAction::metric_name`] counter and recovered solves bump
    /// `hydraulics.recovery.recovered_solves`. Summing reports over a run
    /// therefore reproduces the registry counters exactly (tested in this
    /// module).
    pub fn record(&self, tel: TelemetryCtx<'_>) {
        if !tel.enabled() || self.recoveries.is_empty() {
            return;
        }
        tel.add("hydraulics.recovery.recovered_solves", 1);
        for action in &self.recoveries {
            tel.add(action.metric_name(), 1);
        }
    }
}

/// Picks the next rung for `err`, or `None` when the ladder is exhausted.
///
/// Pure decision logic, separated from the retry loop so it can be tested
/// without manufacturing each failure hydraulically.
fn next_rung(
    err: &HydraulicError,
    warm_start_set: bool,
    taken: &[RecoveryAction],
    base: &SolverOptions,
) -> Option<RecoveryAction> {
    match err {
        HydraulicError::NotConverged { .. } | HydraulicError::NumericalBlowup => {
            if warm_start_set && !taken.iter().any(RecoveryAction::is_cold_restart) {
                Some(RecoveryAction::ColdRestart)
            } else if !taken.iter().any(RecoveryAction::is_escalation) {
                Some(RecoveryAction::Escalated {
                    damping: (base.damping * ESCALATION_DAMPING_FACTOR).max(0.1),
                    max_iterations: base.max_iterations.saturating_mul(ESCALATION_BUDGET_FACTOR),
                })
            } else {
                None
            }
        }
        HydraulicError::LinearSolveFailed { .. } => {
            let already_dense = base.backend == LinearBackend::Dense;
            if !already_dense && !taken.iter().any(RecoveryAction::is_dense_fallback) {
                Some(RecoveryAction::DenseFallback)
            } else {
                None
            }
        }
        // Structural errors (no source, disconnected junction) cannot be
        // retried away.
        _ => None,
    }
}

/// [`solve_snapshot_with`](crate::solve_snapshot_with) behind the recovery
/// ladder: on a recoverable failure the solve is retried — cold, then
/// damped with a bigger budget, then (for linear-solve breakdowns) on the
/// dense backend — and the actions taken are recorded in the returned
/// [`SolveReport`]. Each rung fires at most once, so the ladder terminates
/// after at most four attempts.
///
/// # Errors
///
/// Returns the final error once the ladder is exhausted, or immediately for
/// structural failures ([`HydraulicError::NoSource`],
/// [`HydraulicError::DisconnectedFromSource`]).
///
/// # Panics
///
/// Panics if `ws` was built for a network with different node/link counts
/// (same contract as [`solve_snapshot_with`](crate::solve_snapshot_with)).
pub fn solve_snapshot_recovering(
    net: &Network,
    scenario: &Scenario,
    t: u64,
    opts: &SolverOptions,
    ws: &mut SolverWorkspace,
) -> Result<(Snapshot, SolveReport), HydraulicError> {
    solve_snapshot_recovering_traced(net, scenario, t, opts, ws, TelemetryCtx::none())
}

/// [`solve_snapshot_recovering`] with telemetry: every solve attempt flows
/// through [`solve_snapshot_traced`](crate::solve_snapshot_traced) and the
/// final [`SolveReport`] is mirrored into the registry via
/// [`SolveReport::record`].
///
/// # Errors
///
/// Same contract as [`solve_snapshot_recovering`].
///
/// # Panics
///
/// Panics if `ws` was built for a network with different node/link counts.
pub fn solve_snapshot_recovering_traced(
    net: &Network,
    scenario: &Scenario,
    t: u64,
    opts: &SolverOptions,
    ws: &mut SolverWorkspace,
    tel: TelemetryCtx<'_>,
) -> Result<(Snapshot, SolveReport), HydraulicError> {
    let mut report = SolveReport::default();
    let mut current = opts.clone();
    loop {
        report.attempts += 1;
        match solve_snapshot_traced(net, scenario, t, &current, ws, tel) {
            Ok(snap) => {
                report.iterations = snap.iterations;
                report.record(tel);
                return Ok((snap, report));
            }
            Err(err) => {
                let warm_set = ws.warm_start().is_some();
                let Some(action) = next_rung(&err, warm_set, &report.recoveries, opts) else {
                    return Err(err);
                };
                match action {
                    RecoveryAction::ColdRestart => ws.clear_warm_start(),
                    RecoveryAction::Escalated {
                        damping,
                        max_iterations,
                    } => {
                        current.damping = damping;
                        current.max_iterations = max_iterations;
                    }
                    RecoveryAction::DenseFallback => current.backend = LinearBackend::Dense,
                }
                report.recoveries.push(action);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::LeakEvent;
    use crate::solver::solve_snapshot;
    use crate::workspace::WarmStart;

    #[test]
    fn clean_solve_reports_no_recovery() {
        let net = aqua_net::synth::epa_net();
        let mut ws = SolverWorkspace::new(&net);
        let (snap, report) = solve_snapshot_recovering(
            &net,
            &Scenario::default(),
            0,
            &SolverOptions::default(),
            &mut ws,
        )
        .unwrap();
        assert!(report.was_clean());
        assert_eq!(report.attempts, 1);
        assert_eq!(report.iterations, snap.iterations);
    }

    #[test]
    fn poisoned_warm_start_is_retried_cold_and_recorded() {
        // A garbage warm start needs ~64 iterations on EPA-NET where a cold
        // start needs 10; with a 20-iteration budget the warm attempt fails
        // and the ladder must transparently fall back to a cold solve.
        let net = aqua_net::synth::epa_net();
        let opts = SolverOptions {
            max_iterations: 20,
            ..Default::default()
        };
        let scenario = Scenario::new().with_leak(LeakEvent::new(net.junction_ids()[40], 0.01, 0));
        let reference = solve_snapshot(&net, &scenario, 0, &opts).unwrap();

        let mut ws = SolverWorkspace::new(&net);
        ws.set_warm_start(WarmStart {
            flows: (0..net.link_count())
                .map(|i| if i % 2 == 0 { 1e4 } else { -1e4 })
                .collect(),
            heads: vec![-1e6; net.node_count()],
        });
        let (snap, report) = solve_snapshot_recovering(&net, &scenario, 0, &opts, &mut ws).unwrap();

        assert_eq!(report.recoveries, vec![RecoveryAction::ColdRestart]);
        assert_eq!(report.attempts, 2);
        for (a, b) in snap.heads.iter().zip(&reference.heads) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn oscillating_solve_escalates_with_damping() {
        // Very large emitters drive the full-step GGA into a limit cycle on
        // EPA-NET (the residual oscillates around ~2 forever); only the
        // damped escalation rung converges it.
        let net = aqua_net::synth::epa_net();
        let junctions = net.junction_ids();
        let scenario = Scenario::new().with_leaks([
            LeakEvent::new(junctions[10], 0.9, 0),
            LeakEvent::new(junctions[55], 1.2, 0),
        ]);
        let opts = SolverOptions::default();
        assert!(
            solve_snapshot(&net, &scenario, 0, &opts).is_err(),
            "scenario must defeat the plain solver for this test to bite"
        );

        let mut ws = SolverWorkspace::new(&net);
        let (snap, report) = solve_snapshot_recovering(&net, &scenario, 0, &opts, &mut ws).unwrap();
        assert!(
            report.recoveries.iter().any(RecoveryAction::is_escalation),
            "expected an escalation, got {:?}",
            report.recoveries
        );
        assert!(snap.heads.iter().all(|h| h.is_finite()));
        assert!(snap.max_mass_residual(&net) < 1e-4);
    }

    #[test]
    fn structural_errors_propagate_without_retries() {
        let mut net = aqua_net::Network::new("nosrc");
        let a = net.add_junction("A", 0.0, 0.01, (0.0, 0.0)).unwrap();
        let b = net.add_junction("B", 0.0, 0.0, (100.0, 0.0)).unwrap();
        net.add_pipe("P", a, b, 100.0, 0.3, 130.0).unwrap();
        let mut ws = SolverWorkspace::new(&net);
        let err = solve_snapshot_recovering(
            &net,
            &Scenario::default(),
            0,
            &SolverOptions::default(),
            &mut ws,
        )
        .unwrap_err();
        assert_eq!(err, HydraulicError::NoSource);
    }

    #[test]
    fn ladder_decision_logic() {
        let base = SolverOptions::default();
        let not_converged = HydraulicError::NotConverged {
            iterations: 200,
            residual: 1.0,
        };
        // Warm set, nothing taken: cold restart first.
        assert_eq!(
            next_rung(&not_converged, true, &[], &base),
            Some(RecoveryAction::ColdRestart)
        );
        // No warm start: straight to escalation.
        assert!(matches!(
            next_rung(&not_converged, false, &[], &base),
            Some(RecoveryAction::Escalated { .. })
        ));
        // After cold restart + escalation: exhausted.
        let taken = [
            RecoveryAction::ColdRestart,
            RecoveryAction::Escalated {
                damping: 0.5,
                max_iterations: 1600,
            },
        ];
        assert_eq!(next_rung(&not_converged, false, &taken, &base), None);

        // Linear failures: Auto runs the sparse backend at every network
        // size, so it falls back to dense exactly once.
        let linear = HydraulicError::LinearSolveFailed { detail: "x" };
        for backend in [LinearBackend::Auto, LinearBackend::Sparse] {
            let opts = SolverOptions {
                backend,
                ..Default::default()
            };
            assert_eq!(
                next_rung(&linear, false, &[], &opts),
                Some(RecoveryAction::DenseFallback),
                "{backend:?}"
            );
            assert_eq!(
                next_rung(&linear, false, &[RecoveryAction::DenseFallback], &opts),
                None
            );
        }
        // Already dense: nothing left.
        let dense = SolverOptions {
            backend: LinearBackend::Dense,
            ..Default::default()
        };
        assert_eq!(next_rung(&linear, false, &[], &dense), None);
        // Structural errors never retry.
        assert_eq!(next_rung(&HydraulicError::NoSource, true, &[], &base), None);
    }

    #[test]
    fn registry_counters_are_a_view_over_summed_reports() {
        use aqua_telemetry::TelemetryHub;

        let net = aqua_net::synth::epa_net();
        let junctions = net.junction_ids();
        let hub = TelemetryHub::new();
        let tel = hub.ctx();

        let mut reports = Vec::new();
        let mut ws = SolverWorkspace::new(&net);
        // One clean solve and one that needs the ladder (the oscillating
        // two-emitter scenario from `oscillating_solve_escalates…`).
        let (_, clean) = solve_snapshot_recovering_traced(
            &net,
            &Scenario::default(),
            0,
            &SolverOptions::default(),
            &mut ws,
            tel,
        )
        .unwrap();
        reports.push(clean);
        let hard = Scenario::new().with_leaks([
            LeakEvent::new(junctions[10], 0.9, 0),
            LeakEvent::new(junctions[55], 1.2, 0),
        ]);
        let mut ws2 = SolverWorkspace::new(&net);
        let (_, dirty) = solve_snapshot_recovering_traced(
            &net,
            &hard,
            0,
            &SolverOptions::default(),
            &mut ws2,
            tel,
        )
        .unwrap();
        reports.push(dirty);

        // The SolveReport structs are thin per-call views: summing them
        // reproduces the registry counters exactly.
        let snap = hub.metrics_snapshot();
        let recovered = reports.iter().filter(|r| !r.was_clean()).count() as u64;
        assert_eq!(
            snap.counter("hydraulics.recovery.recovered_solves"),
            recovered
        );
        for (name, pick) in [
            (
                "hydraulics.recovery.cold_restarts",
                RecoveryAction::is_cold_restart as fn(&RecoveryAction) -> bool,
            ),
            (
                "hydraulics.recovery.escalations",
                RecoveryAction::is_escalation,
            ),
            (
                "hydraulics.recovery.dense_fallbacks",
                RecoveryAction::is_dense_fallback,
            ),
        ] {
            let from_reports: u64 = reports
                .iter()
                .map(|r| r.recoveries.iter().filter(|a| pick(a)).count() as u64)
                .sum();
            assert_eq!(snap.counter(name), from_reports, "{name}");
        }
        // Attempts recorded as individual solves (clean 1 + ladder N).
        let attempts: u64 = reports.iter().map(|r| r.attempts as u64).sum();
        assert_eq!(snap.counter("hydraulics.solver.solves"), attempts);
        assert_eq!(
            snap.counter("hydraulics.solver.failures"),
            attempts - reports.len() as u64
        );
        // Residual trajectories were captured for every attempt.
        assert!(snap.histogram("hydraulics.solver.residual").unwrap().count > 0);
    }

    #[test]
    fn blowup_is_treated_as_recoverable() {
        let base = SolverOptions::default();
        assert!(matches!(
            next_rung(&HydraulicError::NumericalBlowup, false, &[], &base),
            Some(RecoveryAction::Escalated { .. })
        ));
    }
}
