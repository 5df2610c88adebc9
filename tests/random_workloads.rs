//! Property-based full-system tests: randomized workloads must always
//! drain, conserve payload, and respect AXI compliance on every topology.

use axi::AxiParams;
use patronoc::{NocConfig, NocSim, StopReason, Topology};
use proptest::prelude::*;
use simkit::Cycle;
use traffic::{Engine, TrafficSource, Transfer, TransferKind};

/// Replays a prescribed transfer list (already distributed per master).
struct Scripted {
    per_master: Vec<Vec<Transfer>>,
    completed: usize,
    total: usize,
}

impl Scripted {
    fn new(mut transfers: Vec<(usize, Transfer)>) -> Self {
        let masters = transfers.iter().map(|(m, _)| *m).max().unwrap_or(0) + 1;
        let mut per_master = vec![Vec::new(); masters];
        transfers.reverse(); // pop from the back in original order
        let total = transfers.len();
        for (m, t) in transfers {
            per_master[m].push(t);
        }
        Self {
            per_master,
            completed: 0,
            total,
        }
    }
}

impl TrafficSource for Scripted {
    fn poll(&mut self, master: usize, _now: Cycle) -> Option<Transfer> {
        self.per_master.get_mut(master)?.pop()
    }

    fn on_complete(&mut self, _master: usize, _id: u64, _now: Cycle) {
        self.completed += 1;
    }

    fn is_done(&self) -> bool {
        self.completed == self.total
    }
}

fn topology_strategy() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (2usize..=4, 2usize..=4).prop_map(|(c, r)| Topology::Mesh { cols: c, rows: r }),
        (3usize..=4, 3usize..=4).prop_map(|(c, r)| Topology::Torus { cols: c, rows: r }),
        (3usize..=8).prop_map(|n| Topology::Ring { nodes: n }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random batch of transfers on any topology drains completely and
    /// delivers exactly the offered payload.
    #[test]
    fn random_workloads_drain_and_conserve(
        topo in topology_strategy(),
        seed_transfers in prop::collection::vec((0usize..64, 0usize..64, 0usize..64, 1u64..5000, 0u64..3, 0u64..1000), 1..40),
    ) {
        let n = topo.num_nodes();
        // Re-map the raw tuples onto this topology's node range.
        let transfers: Vec<(usize, Transfer)> = seed_transfers
            .iter()
            .enumerate()
            .map(|(i, &(m, d, s, bytes, k, serial))| {
                let kind = match k {
                    0 => TransferKind::Read,
                    1 => TransferKind::Write,
                    _ => TransferKind::Copy { src: s % n, src_offset: 0x10_0000 },
                };
                (
                    m % n,
                    Transfer {
                        id: (serial << 16) | i as u64,
                        dst: d % n,
                        offset: (serial * 4096) % (1 << 20),
                        bytes,
                        kind,
                    },
                )
            })
            .collect();
        let expected: u64 = transfers.iter().map(|(_, t)| t.bytes).sum();
        let count = transfers.len() as u64;
        let mut sim = NocSim::new(NocConfig::new(AxiParams::slim(), topo)).expect("valid");
        let mut src = Scripted::new(transfers);
        let report = sim.run(&mut src, 3_000_000, 0);
        prop_assert_eq!(sim.stop_reason(), StopReason::Drained, "{} did not drain", topo);
        prop_assert_eq!(report.transfers_completed, count);
        prop_assert_eq!(report.payload_bytes, expected);
    }

    /// Unique transfer IDs come back exactly once each (no duplicated or
    /// lost completions), under randomized MOT and ID-width settings.
    #[test]
    fn completions_are_exactly_once(
        iw in 1u32..=6,
        mot in 1u32..=16,
        sizes in prop::collection::vec(1u64..2000, 1..20),
    ) {
        let axi = AxiParams::new(32, 32, iw, mot).expect("valid sweep");
        let mut sim = NocSim::new(NocConfig::new(axi, Topology::mesh2x2())).expect("valid");
        let transfers: Vec<(usize, Transfer)> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| {
                (
                    i % 4,
                    Transfer {
                        id: i as u64,
                        dst: (i + 1) % 4,
                        offset: 0,
                        bytes,
                        kind: if i % 2 == 0 { TransferKind::Read } else { TransferKind::Write },
                    },
                )
            })
            .collect();
        let n = transfers.len() as u64;
        let mut src = Scripted::new(transfers);
        let report = sim.run(&mut src, 2_000_000, 0);
        prop_assert_eq!(report.transfers_completed, n);
    }
}
