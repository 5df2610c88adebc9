//! Property-based tests of the packet baseline: random transfer batches
//! under random router configurations always drain, deliver exact payload,
//! and complete every transfer exactly once.

use packetnoc::{PacketNocConfig, PacketNocSim};
use proptest::prelude::*;
use simkit::Cycle;
use std::collections::VecDeque;
use traffic::{Engine, TrafficSource, Transfer, TransferKind};

struct Scripted {
    queues: Vec<VecDeque<Transfer>>,
    completed: Vec<u64>,
    total: usize,
}

impl Scripted {
    fn new(n_nodes: usize, raw: &[(usize, usize, u64)]) -> Self {
        let mut queues = vec![VecDeque::new(); n_nodes];
        for (i, &(m, d, bytes)) in raw.iter().enumerate() {
            queues[m % n_nodes].push_back(Transfer {
                id: i as u64,
                dst: d % n_nodes,
                offset: 0,
                bytes,
                kind: TransferKind::Write,
            });
        }
        Self {
            queues,
            completed: Vec::new(),
            total: raw.len(),
        }
    }
}

impl TrafficSource for Scripted {
    fn poll(&mut self, master: usize, _now: Cycle) -> Option<Transfer> {
        self.queues.get_mut(master)?.pop_front()
    }

    fn on_complete(&mut self, _master: usize, id: u64, _now: Cycle) {
        self.completed.push(id);
    }

    fn is_done(&self) -> bool {
        self.completed.len() == self.total
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_batches_drain_and_conserve(
        vcs in 1usize..=4,
        buf in 2usize..=16,
        raw in prop::collection::vec((0usize..16, 0usize..16, 1u64..3000), 1..30),
    ) {
        let cfg = PacketNocConfig {
            vcs,
            buf_flits: buf,
            ..PacketNocConfig::noxim_compact()
        };
        let mut sim = PacketNocSim::new(cfg);
        let expected: u64 = raw.iter().map(|&(_, _, b)| b).sum();
        let mut src = Scripted::new(16, &raw);
        let report = sim.run(&mut src, 10_000_000, 0);
        prop_assert!(sim.is_drained(), "network did not drain");
        prop_assert_eq!(report.payload_bytes, expected);
        // Exactly-once completion.
        let mut ids = src.completed.clone();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), raw.len());
    }

    #[test]
    fn packet_accounting_matches_framing(
        payload in 1u32..=28,
        bytes in 1u64..5000,
    ) {
        let cfg = PacketNocConfig {
            payload_per_packet: payload,
            ..PacketNocConfig::noxim_compact()
        };
        let expect_packets = bytes.div_ceil(u64::from(payload)).max(1);
        let mut sim = PacketNocSim::new(cfg);
        let mut src = Scripted::new(16, &[(0, 5, bytes)]);
        let report = sim.run(&mut src, 10_000_000, 0);
        prop_assert_eq!(sim.packets_delivered(), expect_packets);
        prop_assert_eq!(report.payload_bytes, bytes);
    }
}
