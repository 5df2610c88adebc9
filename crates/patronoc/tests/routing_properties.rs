//! Property-based tests of the routing layer: every route terminates at
//! its destination, dimension order is respected, connectivity matrices
//! cover exactly the turns routes take, and every (mesh, algorithm) pair
//! is deadlock-free.

use patronoc::routing::{
    next_hop, route, routing_table, validate_deadlock_free, xp_connectivity, Connectivity,
    RoutingAlgorithm,
};
use patronoc::{Dir, Topology, LOCAL};
use proptest::prelude::*;

fn topologies() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (1usize..=6, 1usize..=6)
            .prop_filter("at least two nodes", |&(c, r)| c * r >= 2)
            .prop_map(|(cols, rows)| Topology { cols, rows }),
        (2usize..=10).prop_map(|cols| Topology { cols, rows: 1 }),
    ]
}

fn algorithms() -> impl Strategy<Value = RoutingAlgorithm> {
    prop_oneof![
        Just(RoutingAlgorithm::YxDimensionOrder),
        Just(RoutingAlgorithm::XyDimensionOrder),
    ]
}

proptest! {
    /// Following next_hop from any source always reaches the destination.
    #[test]
    fn routes_terminate_at_destination(
        topo in topologies(),
        algo in algorithms(),
        pair in (0usize..100, 0usize..100),
    ) {
        let n = topo.num_nodes();
        let (src, dst) = (pair.0 % n, pair.1 % n);
        let dirs = route(topo, algo, src, dst);
        let mut cur = src;
        for d in &dirs {
            cur = topo.neighbor(cur, *d).expect("route stays on topology");
        }
        prop_assert_eq!(cur, dst);
        prop_assert_eq!(next_hop(topo, algo, dst, dst), None);
    }

    /// Routes are minimal: as long as the Manhattan distance.
    #[test]
    fn route_lengths_are_bounded(
        topo in topologies(),
        algo in algorithms(),
        pair in (0usize..100, 0usize..100),
    ) {
        let n = topo.num_nodes();
        let (src, dst) = (pair.0 % n, pair.1 % n);
        let len = route(topo, algo, src, dst).len();
        prop_assert_eq!(len, topo.hop_distance(src, dst));
    }

    /// Dimension order holds on the mesh: under YX, no Y move follows an
    /// X move (and vice versa for XY).
    #[test]
    fn dimension_order_is_respected(
        cols in 2usize..=6,
        rows in 2usize..=6,
        pair in (0usize..64, 0usize..64),
    ) {
        let topo = Topology { cols, rows };
        let n = topo.num_nodes();
        let (src, dst) = (pair.0 % n, pair.1 % n);
        let is_y = |d: &Dir| matches!(d, Dir::North | Dir::South);
        let yx = route(topo, RoutingAlgorithm::YxDimensionOrder, src, dst);
        let first_x = yx.iter().position(|d| !is_y(d));
        if let Some(i) = first_x {
            prop_assert!(yx[i..].iter().all(|d| !is_y(d)), "Y after X in {yx:?}");
        }
        let xy = route(topo, RoutingAlgorithm::XyDimensionOrder, src, dst);
        let first_y = xy.iter().position(is_y);
        if let Some(i) = first_y {
            prop_assert!(xy[i..].iter().all(is_y), "X after Y in {xy:?}");
        }
    }

    /// The partial connectivity matrix admits exactly the turns that real
    /// routes take through the node — nothing routed is ever forbidden.
    #[test]
    fn partial_connectivity_covers_all_routed_turns(
        topo in topologies(),
        algo in algorithms(),
        node_sel in 0usize..100,
    ) {
        let n = topo.num_nodes();
        let node = node_sel % n;
        let allowed = xp_connectivity(topo, algo, node, Connectivity::Partial);
        for src in 0..n {
            for dst in 0..n {
                let dirs = route(topo, algo, src, dst);
                let mut cur = src;
                let mut in_port = LOCAL;
                for d in &dirs {
                    if cur == node {
                        prop_assert!(
                            allowed[in_port][d.port()],
                            "turn {in_port}→{} at node {node} forbidden",
                            d.port()
                        );
                    }
                    in_port = d.opposite().port();
                    cur = topo.neighbor(cur, *d).expect("on topology");
                }
                if cur == node && dst == node {
                    prop_assert!(allowed[in_port][LOCAL]);
                }
            }
        }
    }

    /// Every mesh is deadlock-free under both dimension orders.
    #[test]
    fn all_supported_routing_is_deadlock_free(
        topo in topologies(),
        algo in algorithms(),
    ) {
        prop_assert!(validate_deadlock_free(topo, algo).is_ok(), "{topo}");
    }

    /// Routing tables agree with next_hop everywhere.
    #[test]
    fn tables_match_next_hop(topo in topologies(), algo in algorithms()) {
        let n = topo.num_nodes();
        for node in 0..n {
            let table = routing_table(topo, algo, node);
            prop_assert_eq!(table.len(), n);
            for (dst, &entry) in table.iter().enumerate() {
                let expect = match next_hop(topo, algo, node, dst) {
                    None => LOCAL as u8,
                    Some(d) => d.port() as u8,
                };
                prop_assert_eq!(entry, expect);
            }
        }
    }
}
