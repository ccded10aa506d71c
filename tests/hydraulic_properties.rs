//! Property-based tests on the hydraulic engine: invariants that must hold
//! for arbitrary networks and failure scenarios.

use aquascale::hydraulics::{solve_snapshot, LeakEvent, LinearBackend, Scenario, SolverOptions};
use aquascale::net::synth::GridNetworkBuilder;
use proptest::prelude::*;

fn arbitrary_grid() -> impl Strategy<Value = (aquascale::net::Network, u64)> {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mass balance holds at every junction of every random grid network.
    #[test]
    fn mass_balance_on_random_networks((net, _seed) in arbitrary_grid()) {
        let snap = solve_snapshot(&net, &Scenario::default(), 0, &SolverOptions::default())
            .expect("random grid must solve");
        prop_assert!(snap.max_mass_residual(&net) < 1e-5);
        for h in &snap.heads {
            prop_assert!(h.is_finite());
        }
    }

    /// Dense and sparse linear backends agree on arbitrary networks.
    #[test]
    fn backends_agree_on_random_networks((net, _seed) in arbitrary_grid()) {
        let dense = SolverOptions { backend: LinearBackend::Dense, ..Default::default() };
        let sparse = SolverOptions { backend: LinearBackend::Sparse, ..Default::default() };
        let a = solve_snapshot(&net, &Scenario::default(), 0, &dense).unwrap();
        let b = solve_snapshot(&net, &Scenario::default(), 0, &sparse).unwrap();
        for (ha, hb) in a.heads.iter().zip(&b.heads) {
            prop_assert!((ha - hb).abs() < 1e-3, "dense {} sparse {}", ha, hb);
        }
    }

    /// A leak always reduces (or preserves) pressure at the leaky node and
    /// increases total inflow from the source.
    #[test]
    fn leaks_depress_pressure_and_raise_inflow(
        (net, seed) in arbitrary_grid(),
        ec in 0.001f64..0.02,
    ) {
        let junctions = net.junction_ids();
        let leak_node = junctions[(seed as usize) % junctions.len()];
        let base = solve_snapshot(&net, &Scenario::default(), 0, &SolverOptions::default()).unwrap();
        let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, ec, 0));
        let leaked = solve_snapshot(&net, &scenario, 0, &SolverOptions::default()).unwrap();
        prop_assert!(leaked.pressure(leak_node) <= base.pressure(leak_node) + 1e-9);
        let main = net.link_by_name("MAIN").unwrap();
        prop_assert!(leaked.flow(main) >= base.flow(main) - 1e-9);
        // Emitter law holds at the solution.
        let p = leaked.pressure(leak_node);
        if p > 0.0 {
            let expected = ec * p.sqrt();
            prop_assert!((leaked.emitter_flow(leak_node) - expected).abs() < 1e-9);
        }
    }

    /// Larger leak coefficients discharge at least as much water.
    #[test]
    fn leak_flow_is_monotone_in_coefficient((net, seed) in arbitrary_grid()) {
        let junctions = net.junction_ids();
        let leak_node = junctions[(seed as usize) % junctions.len()];
        let mut prev = 0.0;
        for ec in [0.002, 0.006, 0.012, 0.02] {
            let scenario = Scenario::new().with_leak(LeakEvent::new(leak_node, ec, 0));
            let snap = solve_snapshot(&net, &scenario, 0, &SolverOptions::default()).unwrap();
            let q = snap.emitter_flow(leak_node);
            prop_assert!(q >= prev - 1e-9, "EC {} gave {} after {}", ec, q, prev);
            prev = q;
        }
    }
}
