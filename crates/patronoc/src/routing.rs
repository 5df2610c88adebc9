//! Deterministic source-based routing (paper §II).
//!
//! PATRONoC "uses a source-based YX routing scheme ... to reduce the
//! complexity of the route calculation step of the crosspoints. In this
//! algorithm, a transaction is first passed forward in the same column until
//! it reaches the same row as the destination XP and then passed forward in
//! the same row". An automated function ([`routing_table`]) generates the
//! per-XP table mapping destination endpoints to output ports — the model of
//! the paper's "automated script".
//!
//! Dimension-ordered routing on a mesh is deadlock-free because the channel
//! dependency graph is acyclic; [`validate_deadlock_free`] checks that
//! property constructively for a mesh and algorithm by enumerating all
//! routes and searching the dependency graph for cycles.

use crate::topology::{Dir, Topology, LOCAL, PORTS};
use std::collections::BTreeMap;

/// The routing algorithm used to build the static per-XP tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingAlgorithm {
    /// Column first, then row (the paper's default).
    #[default]
    YxDimensionOrder,
    /// Row first, then column (ablation variant; also what the Noxim
    /// baseline uses).
    XyDimensionOrder,
}

/// The XBAR connectivity parameter of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Connectivity {
    /// Only the input→output turns the routing algorithm can produce are
    /// wired (the default for a mesh; smaller crossbars).
    #[default]
    Partial,
    /// Every input connects to every output except u-turns.
    Full,
}

/// Computes the next hop from `cur` towards `dst`; `None` means `dst == cur`
/// (deliver on the local port).
#[must_use]
pub fn next_hop(topo: Topology, algo: RoutingAlgorithm, cur: usize, dst: usize) -> Option<Dir> {
    if cur == dst {
        return None;
    }
    let (cx, cy) = topo.coord(cur);
    let (dx, dy) = topo.coord(dst);
    let y_move = if dy < cy {
        Some(Dir::North)
    } else if dy > cy {
        Some(Dir::South)
    } else {
        None
    };
    let x_move = if dx > cx {
        Some(Dir::East)
    } else if dx < cx {
        Some(Dir::West)
    } else {
        None
    };
    match algo {
        RoutingAlgorithm::YxDimensionOrder => y_move.or(x_move),
        RoutingAlgorithm::XyDimensionOrder => x_move.or(y_move),
    }
}

/// The full route (sequence of directions) from `src` to `dst`.
#[must_use]
pub fn route(topo: Topology, algo: RoutingAlgorithm, src: usize, dst: usize) -> Vec<Dir> {
    let mut cur = src;
    let mut dirs = Vec::new();
    while let Some(d) = next_hop(topo, algo, cur, dst) {
        dirs.push(d);
        cur = topo
            .neighbor(cur, d)
            .expect("routing stepped off the topology");
        assert!(dirs.len() <= topo.num_nodes() * 2, "routing loop detected");
    }
    dirs
}

/// Generates the static routing table of one crosspoint: entry `dst` is the
/// output port index (0..4 for N/E/S/W, [`LOCAL`] for the node itself).
#[must_use]
pub fn routing_table(topo: Topology, algo: RoutingAlgorithm, node: usize) -> Vec<u8> {
    (0..topo.num_nodes())
        .map(|dst| match next_hop(topo, algo, node, dst) {
            None => LOCAL as u8,
            Some(d) => d.port() as u8,
        })
        .collect()
}

/// Computes the XP's input→output connectivity matrix.
///
/// With [`Connectivity::Partial`], only turns that some route actually takes
/// are wired (e.g. YX routing never turns from a horizontal input to a
/// vertical output). The local input can always reach every output with a
/// route, and every input can reach the local output.
///
/// Convenience wrapper over [`connectivity_tables`] — when building every
/// XP of a topology (as [`crate::NocSim::new`] does), call the batch
/// version once instead; per-node calls redo the full route sweep.
#[must_use]
pub fn xp_connectivity(
    topo: Topology,
    algo: RoutingAlgorithm,
    node: usize,
    connectivity: Connectivity,
) -> [[bool; PORTS]; PORTS] {
    connectivity_tables(topo, algo, connectivity)[node]
}

/// Computes the input→output connectivity matrices of **all** crosspoints
/// in one sweep.
///
/// Each of the n² routes is walked exactly once, recording its turn at
/// every node it crosses — O(routes × hops) total, where the per-node
/// [`xp_connectivity`] walk repeated for every XP would be a factor n
/// worse (minutes instead of milliseconds on a 32×32 mesh).
#[must_use]
pub fn connectivity_tables(
    topo: Topology,
    algo: RoutingAlgorithm,
    connectivity: Connectivity,
) -> Vec<[[bool; PORTS]; PORTS]> {
    let n = topo.num_nodes();
    match connectivity {
        Connectivity::Full => {
            let mut allowed = [[false; PORTS]; PORTS];
            for (i, row) in allowed.iter_mut().enumerate() {
                for (o, cell) in row.iter_mut().enumerate() {
                    // No u-turns back out of the same mesh port; local →
                    // local is legal (a master talking to its own slave).
                    *cell = i != o || i == LOCAL;
                }
            }
            vec![allowed; n]
        }
        Connectivity::Partial => {
            // Walk every route once and record its turn at each node it
            // crosses.
            let mut allowed = vec![[[false; PORTS]; PORTS]; n];
            for src in 0..n {
                for dst in 0..n {
                    let mut cur = src;
                    let mut in_port = LOCAL; // requests enter at the local port
                    loop {
                        let out = match next_hop(topo, algo, cur, dst) {
                            None => LOCAL,
                            Some(d) => d.port(),
                        };
                        allowed[cur][in_port][out] = true;
                        if out == LOCAL {
                            break;
                        }
                        let d = Dir::ALL[out];
                        in_port = d.opposite().port();
                        cur = topo.neighbor(cur, d).expect("route leaves topology");
                    }
                }
            }
            allowed
        }
    }
}

/// A channel: the directed XP→XP link leaving `node` towards `dir`.
type Channel = (usize, Dir);

/// Verifies that the (topology, algorithm) pair is deadlock-free by building
/// the channel dependency graph over all source/destination routes and
/// checking it for cycles.
///
/// Returns `Ok(())` or the first dependency cycle found (as a list of
/// directed links `(node, dir)`).
///
/// # Errors
///
/// Returns the cycle when one exists. Dimension-ordered routing on a mesh
/// never closes one; the module's tests drive the cycle search directly.
pub fn validate_deadlock_free(
    topo: Topology,
    algo: RoutingAlgorithm,
) -> Result<(), Vec<(usize, Dir)>> {
    // BTreeMap so the search visits channels in a fixed order and the
    // reported cycle is the same on every run.
    let mut edges: BTreeMap<Channel, Vec<Channel>> = BTreeMap::new();
    let n = topo.num_nodes();
    for src in 0..n {
        for dst in 0..n {
            let dirs = route(topo, algo, src, dst);
            let mut cur = src;
            let mut prev: Option<Channel> = None;
            for d in dirs {
                let ch = (cur, d);
                if let Some(p) = prev {
                    let deps = edges.entry(p).or_default();
                    if !deps.contains(&ch) {
                        deps.push(ch);
                    }
                }
                prev = Some(ch);
                cur = topo.neighbor(cur, d).expect("route leaves topology");
            }
        }
    }
    find_cycle(&edges).map_or(Ok(()), Err)
}

/// The first cycle of the channel dependency graph `edges` (each channel
/// maps to the channels a route enters from it), or `None` when it is
/// acyclic. The cycle lists exactly its own channels, in dependency order,
/// starting where the search entered it.
fn find_cycle(edges: &BTreeMap<Channel, Vec<Channel>>) -> Option<Vec<Channel>> {
    // Iterative DFS cycle detection (colors: 0 white, 1 gray, 2 black).
    let mut color: BTreeMap<Channel, u8> = BTreeMap::new();
    for &start in edges.keys() {
        if color.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(Channel, usize)> = vec![(start, 0)];
        let mut path = vec![start];
        color.insert(start, 1);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let next = edges.get(&node).and_then(|deps| deps.get(*idx).copied());
            *idx += 1;
            match next {
                Some(succ) => match color.get(&succ).copied().unwrap_or(0) {
                    0 => {
                        color.insert(succ, 1);
                        stack.push((succ, 0));
                        path.push(succ);
                    }
                    1 => {
                        // Found a cycle: slice the current path from succ.
                        let pos = path.iter().position(|&c| c == succ).unwrap_or(0);
                        return Some(path[pos..].to_vec());
                    }
                    _ => {}
                },
                None => {
                    color.insert(node, 2);
                    stack.pop();
                    path.pop();
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yx_goes_column_first() {
        let t = Topology::mesh4x4();
        // From (0,0) to (2,1): paper's green arrows go South then East East.
        let dirs = route(t, RoutingAlgorithm::YxDimensionOrder, 0, 6);
        assert_eq!(dirs, vec![Dir::South, Dir::East, Dir::East]);
    }

    #[test]
    fn xy_goes_row_first() {
        let t = Topology::mesh4x4();
        let dirs = route(t, RoutingAlgorithm::XyDimensionOrder, 0, 6);
        assert_eq!(dirs, vec![Dir::East, Dir::East, Dir::South]);
    }

    #[test]
    fn routes_reach_destination_with_minimal_hops() {
        let t = Topology::mesh4x4();
        for src in 0..16 {
            for dst in 0..16 {
                let dirs = route(t, RoutingAlgorithm::YxDimensionOrder, src, dst);
                assert_eq!(dirs.len(), t.hop_distance(src, dst));
            }
        }
    }

    #[test]
    fn routing_table_consistent_with_next_hop() {
        let t = Topology::mesh4x4();
        for node in 0..16 {
            let table = routing_table(t, RoutingAlgorithm::YxDimensionOrder, node);
            assert_eq!(table[node], LOCAL as u8);
            for (dst, &entry) in table.iter().enumerate() {
                if dst != node {
                    let d = next_hop(t, RoutingAlgorithm::YxDimensionOrder, node, dst).unwrap();
                    assert_eq!(entry, d.port() as u8);
                }
            }
        }
    }

    #[test]
    fn mesh_yx_is_deadlock_free() {
        assert!(
            validate_deadlock_free(Topology::mesh4x4(), RoutingAlgorithm::YxDimensionOrder).is_ok()
        );
        assert!(
            validate_deadlock_free(Topology::mesh2x2(), RoutingAlgorithm::XyDimensionOrder).is_ok()
        );
    }

    #[test]
    fn partial_connectivity_forbids_x_to_y_turns_under_yx() {
        let t = Topology::mesh4x4();
        // Interior node 5 = (1,1).
        let c = xp_connectivity(
            t,
            RoutingAlgorithm::YxDimensionOrder,
            5,
            Connectivity::Partial,
        );
        // YX: vertical input may turn horizontal...
        assert!(c[Dir::North.port()][Dir::East.port()] || c[Dir::South.port()][Dir::East.port()]);
        // ...but horizontal input must never turn vertical.
        assert!(!c[Dir::East.port()][Dir::North.port()]);
        assert!(!c[Dir::East.port()][Dir::South.port()]);
        assert!(!c[Dir::West.port()][Dir::North.port()]);
        assert!(!c[Dir::West.port()][Dir::South.port()]);
        // Local reaches everything with a route; everything reaches local.
        assert!(c[LOCAL][Dir::East.port()]);
        assert!(c[Dir::East.port()][LOCAL]);
    }

    #[test]
    fn full_connectivity_allows_everything_but_uturns() {
        let t = Topology::mesh4x4();
        let c = xp_connectivity(t, RoutingAlgorithm::YxDimensionOrder, 5, Connectivity::Full);
        assert!(c[Dir::East.port()][Dir::North.port()]);
        assert!(!c[Dir::East.port()][Dir::East.port()]);
        assert!(c[LOCAL][LOCAL]);
    }

    #[test]
    fn local_to_local_allowed_in_partial() {
        let t = Topology::mesh4x4();
        let c = xp_connectivity(
            t,
            RoutingAlgorithm::YxDimensionOrder,
            3,
            Connectivity::Partial,
        );
        // A master talking to its own node's slave uses local → local.
        assert!(c[LOCAL][LOCAL]);
    }

    /// A dependency map from `(from, to)` channel pairs.
    fn graph(deps: &[(Channel, Channel)]) -> BTreeMap<Channel, Vec<Channel>> {
        let mut edges: BTreeMap<Channel, Vec<Channel>> = BTreeMap::new();
        for &(from, to) in deps {
            edges.entry(from).or_default().push(to);
        }
        edges
    }

    /// The four East channels of a row whose last one wraps back to the
    /// first: each depends on the next.
    const EAST_LOOP: [Channel; 4] = [
        (0, Dir::East),
        (1, Dir::East),
        (2, Dir::East),
        (3, Dir::East),
    ];

    #[test]
    fn find_cycle_reports_a_dependency_loop() {
        let deps: Vec<_> = (0..4)
            .map(|i| (EAST_LOOP[i], EAST_LOOP[(i + 1) % 4]))
            .collect();
        assert_eq!(find_cycle(&graph(&deps)), Some(EAST_LOOP.to_vec()));
    }

    #[test]
    fn find_cycle_leaves_the_tail_out_of_the_cycle() {
        // (0, North) leads into the loop but is not part of it; it sorts
        // first, so the search starts on the tail.
        let tail = (0, Dir::North);
        let mut deps = vec![(tail, EAST_LOOP[0])];
        deps.extend((0..4).map(|i| (EAST_LOOP[i], EAST_LOOP[(i + 1) % 4])));
        let edges = graph(&deps);
        assert_eq!(edges.keys().next(), Some(&tail));
        assert_eq!(find_cycle(&edges), Some(EAST_LOOP.to_vec()));
    }

    #[test]
    fn find_cycle_accepts_a_chain() {
        let deps: Vec<_> = (0..3).map(|i| (EAST_LOOP[i], EAST_LOOP[i + 1])).collect();
        assert_eq!(find_cycle(&graph(&deps)), None);
    }
}
