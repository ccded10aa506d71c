//! Property-based tests of the warm-started workspace solver: for
//! arbitrary synth networks and leak scenarios, solving through a
//! [`SolverWorkspace`] — cold, warm, or with either linear backend — must
//! agree with the plain cold solver to within the convergence tolerance.

use aqua_hydraulics::{
    solve_snapshot, solve_snapshot_with, ExtendedPeriodSim, LeakEvent, LinearBackend, Scenario,
    SolverOptions, SolverWorkspace, WarmStart,
};
use aqua_net::synth::GridNetworkBuilder;
use aqua_net::Network;
use proptest::prelude::*;

fn arbitrary_grid() -> impl Strategy<Value = (Network, u64)> {
    (2usize..6, 2usize..6, 0usize..4, 0u64..1000).prop_map(|(cols, rows, loops, seed)| {
        let max_loops = (cols - 1) * (rows - 1);
        let grid = GridNetworkBuilder::new("prop")
            .columns(cols)
            .rows(rows)
            .loop_edges(loops.min(max_loops))
            .seed(seed)
            .build();
        let mut net = grid.network;
        // Attach a reservoir feeding the first junction so the system is
        // solvable.
        let inlet = grid.junctions[0];
        let head = net
            .nodes()
            .iter()
            .map(|n| n.elevation)
            .fold(f64::NEG_INFINITY, f64::max)
            + 60.0;
        let r = net.add_reservoir("SRC", head, (-500.0, 0.0)).unwrap();
        net.add_pipe("MAIN", r, inlet, 300.0, 0.5, 130.0).unwrap();
        (net, seed)
    })
}

/// A leak scenario with 1–3 events at seed-derived junctions.
fn leak_scenario(net: &Network, seed: u64, ec: f64) -> Scenario {
    let junctions = net.junction_ids();
    let n_leaks = 1 + (seed as usize) % 3;
    let leaks: Vec<LeakEvent> = (0..n_leaks)
        .map(|k| {
            let at = (seed as usize * 7 + k * 13) % junctions.len();
            LeakEvent::new(junctions[at], ec * (1.0 + k as f64 * 0.4), 0)
        })
        .collect();
    Scenario::new().with_leaks(leaks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A solve seeded from a related warm start converges to the same
    /// heads and flows as a cold solve of the same scenario.
    #[test]
    fn warm_and_cold_solves_agree(
        (net, seed) in arbitrary_grid(),
        ec in 0.001f64..0.02,
    ) {
        let opts = SolverOptions::default();
        let scenario = leak_scenario(&net, seed, ec);
        let cold = solve_snapshot(&net, &scenario, 0, &opts).expect("cold solve");

        // Warm path: prime the workspace with the leak-free baseline, then
        // solve the leak scenario from that seed.
        let mut ws = SolverWorkspace::new(&net);
        let baseline = solve_snapshot_with(&net, &Scenario::default(), 0, &opts, &mut ws)
            .expect("baseline solve");
        prop_assert!(ws.warm_start().is_some());
        let warm = solve_snapshot_with(&net, &scenario, 0, &opts, &mut ws).expect("warm solve");

        for (a, b) in cold.heads.iter().zip(&warm.heads) {
            prop_assert!((a - b).abs() < 1e-5, "head {} vs {}", a, b);
        }
        for (a, b) in cold.flows.iter().zip(&warm.flows) {
            prop_assert!((a - b).abs() < 1e-5, "flow {} vs {}", a, b);
        }
        // Seeding from an explicit snapshot behaves the same way.
        let mut ws2 = SolverWorkspace::new(&net);
        ws2.set_warm_start(WarmStart::from_snapshot(&baseline));
        let warm2 = solve_snapshot_with(&net, &scenario, 0, &opts, &mut ws2).expect("seeded solve");
        for (a, b) in warm.heads.iter().zip(&warm2.heads) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Dense and sparse backends agree on arbitrary networks when both run
    /// through cached workspaces (promotion of the old fixed-network unit
    /// test in solver.rs).
    #[test]
    fn dense_and_sparse_backends_agree((net, seed) in arbitrary_grid(), ec in 0.002f64..0.02) {
        let dense = SolverOptions { backend: LinearBackend::Dense, ..Default::default() };
        let sparse = SolverOptions { backend: LinearBackend::Sparse, ..Default::default() };
        let scenario = leak_scenario(&net, seed, ec);
        let mut ws_dense = SolverWorkspace::new(&net);
        let mut ws_sparse = SolverWorkspace::new(&net);
        // Two solves per backend so the second exercises the warm path of
        // each workspace too.
        for t in [0u64, 0u64] {
            let a = solve_snapshot_with(&net, &scenario, t, &dense, &mut ws_dense).unwrap();
            let b = solve_snapshot_with(&net, &scenario, t, &sparse, &mut ws_sparse).unwrap();
            for (ha, hb) in a.heads.iter().zip(&b.heads) {
                prop_assert!((ha - hb).abs() < 1e-3, "dense {} sparse {}", ha, hb);
            }
        }
    }

    /// The warm-chained EPS produces the same trajectory as solving every
    /// step cold.
    #[test]
    fn eps_warm_chaining_matches_cold_steps((net, seed) in arbitrary_grid()) {
        let opts = SolverOptions::default();
        let scenario = leak_scenario(&net, seed, 0.008);
        let eps = ExtendedPeriodSim::new(&net, scenario.clone(), opts.clone()).with_step(900);
        let warm_run = eps.run(3 * 900).expect("eps");
        for snap in &warm_run.snapshots {
            // Re-solve this exact step cold: same scenario, same tank
            // levels (none on grids — no tanks), same time.
            let cold = solve_snapshot(&net, &scenario, snap.time, &opts).expect("cold step");
            for (a, b) in cold.heads.iter().zip(&snap.heads) {
                prop_assert!((a - b).abs() < 1e-5, "t={} head {} vs {}", snap.time, a, b);
            }
        }
    }

    /// Workspace reuse across *different* scenarios never contaminates
    /// results: solving A, then B, then A again reproduces A.
    #[test]
    fn workspace_reuse_is_contamination_free((net, seed) in arbitrary_grid()) {
        let opts = SolverOptions::default();
        let a = leak_scenario(&net, seed, 0.015);
        let b = Scenario::new().with_demand_scale(1.7);
        let mut ws = SolverWorkspace::new(&net);
        let first = solve_snapshot_with(&net, &a, 0, &opts, &mut ws).unwrap();
        let _ = solve_snapshot_with(&net, &b, 0, &opts, &mut ws).unwrap();
        let again = solve_snapshot_with(&net, &a, 0, &opts, &mut ws).unwrap();
        for (x, y) in first.heads.iter().zip(&again.heads) {
            prop_assert!((x - y).abs() < 1e-5, "{} vs {}", x, y);
        }
    }
}
