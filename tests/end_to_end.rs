//! Cross-crate integration tests: full-system runs spanning the traffic
//! generators, both NoC simulators (behind the unified `Engine` trait and
//! the `Scenario` builder) and the physical model.

use axi::AxiParams;
use packetnoc::{PacketNocConfig, PacketNocSim};
use patronoc::{NocConfig, NocSim, StopReason, Topology};
use scenario::{Engine, PacketProfile, Scenario, TrafficSpec};
use simkit::Cycle;
use traffic::{DnnWorkload, TrafficSource, Transfer, TransferKind};

/// A finite workload: every master issues `per_master` fixed-size transfers
/// round-robin over destinations, then stops.
struct Finite {
    masters: usize,
    per_master: usize,
    bytes: u64,
    kind_of: fn(usize) -> TransferKind,
    issued: Vec<usize>,
    completed: usize,
}

impl Finite {
    fn new(
        masters: usize,
        per_master: usize,
        bytes: u64,
        kind_of: fn(usize) -> TransferKind,
    ) -> Self {
        Self {
            masters,
            per_master,
            bytes,
            kind_of,
            issued: vec![0; masters],
            completed: 0,
        }
    }

    fn total(&self) -> usize {
        self.masters * self.per_master
    }
}

impl TrafficSource for Finite {
    fn poll(&mut self, master: usize, _now: Cycle) -> Option<Transfer> {
        if self.issued[master] >= self.per_master {
            return None;
        }
        let n = self.issued[master];
        self.issued[master] += 1;
        let dst = (master + n + 1) % self.masters;
        Some(Transfer {
            id: (master * self.per_master + n) as u64,
            dst,
            offset: (n as u64 * self.bytes * 2) % (1 << 20),
            bytes: self.bytes,
            kind: (self.kind_of)(n),
        })
    }

    fn on_complete(&mut self, _master: usize, _id: u64, _now: Cycle) {
        self.completed += 1;
    }

    fn is_done(&self) -> bool {
        self.completed == self.total()
    }
}

fn mixed_kind(n: usize) -> TransferKind {
    match n % 3 {
        0 => TransferKind::Read,
        1 => TransferKind::Write,
        _ => TransferKind::Copy {
            src: 0,
            src_offset: 0x4_0000,
        },
    }
}

#[test]
fn payload_conservation_on_patronoc() {
    // Every byte offered must be delivered exactly once — reads metered at
    // the master, writes at the slave, copies once at the destination.
    let mut sim = NocSim::new(NocConfig::slim_4x4()).expect("valid config");
    let mut src = Finite::new(16, 10, 777, mixed_kind);
    let report = sim.run(&mut src, 5_000_000, 0);
    assert_eq!(sim.stop_reason(), StopReason::Drained);
    assert_eq!(report.transfers_completed, 160);
    assert_eq!(report.payload_bytes, 160 * 777);
}

#[test]
fn payload_conservation_on_packet_baseline() {
    let mut sim = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
    let mut src = Finite::new(16, 10, 123, |_| TransferKind::Write);
    let report = sim.run(&mut src, 5_000_000, 0);
    assert_eq!(report.payload_bytes, 160 * 123);
    assert_eq!(report.stop_reason, StopReason::Drained);
    assert!(sim.is_drained());
}

#[test]
fn both_simulators_agree_on_delivered_payload() {
    // Identical stimulus through the unified Engine trait → identical
    // *totals* (the NoCs differ in timing, never in how many bytes
    // arrive).
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(NocSim::new(NocConfig::slim_4x4()).expect("valid config")),
        Box::new(PacketNocSim::new(PacketNocConfig::noxim_compact())),
    ];
    let totals: Vec<u64> = engines
        .into_iter()
        .map(|mut engine| {
            let mut src = Finite::new(16, 8, 450, |_| TransferKind::Write);
            let report = engine.run(&mut src, 5_000_000, 0);
            assert!(report.is_drained());
            report.payload_bytes
        })
        .collect();
    assert_eq!(totals[0], totals[1]);
}

#[test]
fn burst_support_is_the_advantage() {
    // The paper's core claim end-to-end: same offered load, large DMA
    // bursts → PATRONoC wins by a wide margin; the packet NoC is
    // insensitive to burst length.
    let pa = Scenario::patronoc()
        .traffic(TrafficSpec::uniform_copies(1.0, 10_000))
        .warmup(8_000)
        .window(32_000)
        .seed(5)
        .run()
        .expect("valid scenario");
    let pb = Scenario::packet(PacketProfile::HighPerformance)
        .traffic(TrafficSpec::uniform(1.0, 10_000))
        .warmup(8_000)
        .window(32_000)
        .seed(5)
        .run()
        .expect("valid scenario");
    assert!(
        pa.throughput_gib_s > 3.0 * pb.throughput_gib_s,
        "patronoc {} vs baseline {}",
        pa.throughput_gib_s,
        pb.throughput_gib_s
    );
}

#[test]
fn runs_are_deterministic() {
    let scenario = Scenario::patronoc()
        .data_width(512)
        .traffic(TrafficSpec::uniform_copies(0.7, 5000))
        .warmup(5_000)
        .window(25_000)
        .seed(1234);
    let run = || {
        let r = scenario.run().expect("valid scenario");
        (r.payload_bytes, r.transfers_completed, r.cycles)
    };
    assert_eq!(run(), run());
}

#[test]
fn dnn_traces_complete_on_both_noc_widths() {
    for (dw, budget) in [(32u32, 60_000_000u64), (512, 6_000_000)] {
        let scenario = Scenario::patronoc()
            .data_width(dw)
            .traffic(TrafficSpec::dnn(DnnWorkload::PipelinedConv, 1))
            .budget(budget)
            .seed(1);
        let expected = scenario
            .build_dnn_trace()
            .expect("a DNN scenario")
            .total_bytes();
        let report = scenario.run().expect("valid scenario");
        assert_eq!(report.stop_reason, StopReason::Drained, "DW={dw}");
        assert_eq!(report.payload_bytes, expected);
    }
}

#[test]
fn fig8_ordering_holds_end_to_end() {
    let mut results = Vec::new();
    for wl in DnnWorkload::all() {
        let report = Scenario::patronoc()
            .data_width(512)
            .traffic(TrafficSpec::dnn(wl, 1))
            .budget(100_000_000)
            .seed(1)
            .run()
            .expect("valid scenario");
        assert!(report.is_drained(), "{} missed its budget", wl.name());
        results.push((wl, report.throughput_gib_s));
    }
    let train = results[0].1;
    let par = results[1].1;
    let pipe = results[2].1;
    assert!(
        pipe > train && train > par,
        "pipe {pipe} train {train} par {par}"
    );
}

#[test]
fn w_channel_wormhole_prevents_write_starvation() {
    // Regression for the multi-hop W-channel deadlock: W beats follow AW
    // grant order at every crosspoint, so AWs running ahead of their data
    // can couple the grant orders of several crosspoints into a cyclic
    // wait (see `Xp::step_requests`). Wide NoC, four central slaves, large
    // write bursts from all 16 masters. Without the one-write-burst-per-
    // XP-input rule, two of the slaves stop receiving writes within ~100k
    // cycles. Here every slave must keep making write progress in every
    // interval.
    use traffic::{SyntheticConfig, SyntheticPattern, SyntheticTraffic};
    let axi = AxiParams::wide();
    let mut cfg = NocConfig::new(axi, Topology::mesh4x4());
    cfg.slaves = SyntheticPattern::MaxTwoHop.slave_nodes(4, 4);
    let mut sim = NocSim::new(cfg).expect("valid config");
    let mut src = SyntheticTraffic::new(SyntheticConfig {
        cols: 4,
        rows: 4,
        pattern: SyntheticPattern::MaxTwoHop,
        load: 1.0,
        bytes_per_cycle: 64.0,
        max_transfer: 64_000,
        read_fraction: 0.5,
        region_size: 1 << 24,
        seed: 7, // the seed that exposed the deadlock
    });
    let mut prev = sim.slave_write_bytes();
    for interval in 0..4 {
        for _ in 0..60_000 {
            sim.step(&mut src);
        }
        let now = sim.slave_write_bytes();
        for (s, (a, b)) in prev.iter().zip(&now).enumerate() {
            assert!(
                b > a,
                "slave {s} received no writes in interval {interval} ({a} → {b})"
            );
        }
        prev = now;
    }
}

#[test]
fn physical_headline_claims() {
    use physical::{
        area_efficiency, bisection_bandwidth_gbps, AreaModel, BisectionCounting, EspNoc,
    };
    let model = AreaModel::calibrated();
    let topo = Topology::mesh2x2();
    let axi = AxiParams::new(32, 64, 2, 1).expect("reference config");
    let eff = area_efficiency(
        bisection_bandwidth_gbps(topo, 64, BisectionCounting::OneWay),
        model.mesh_area_kge(topo, axi),
    );
    let gain = eff / EspNoc::flit32().area_efficiency_2x2(&model) - 1.0;
    assert!((0.28..0.42).contains(&gain), "gain {gain} (paper ≈ 0.34)");
}

#[test]
fn extreme_data_widths_work_end_to_end() {
    // Table I's DW corners: an 8-bit and a 1024-bit NoC both move exact
    // payloads; the wide one needs far fewer cycles for the same bytes.
    let mut cycles = Vec::new();
    for dw in [8u32, 1024] {
        let axi = AxiParams::new(32, dw, 4, 8).expect("corner widths are valid");
        let mut sim = NocSim::new(NocConfig::new(axi, Topology::mesh4x4())).expect("valid");
        let mut src = Finite::new(16, 4, 4096, |_| TransferKind::Write);
        let report = sim.run(&mut src, 50_000_000, 0);
        assert_eq!(report.payload_bytes, 16 * 4 * 4096, "DW={dw}");
        cycles.push(report.cycles);
    }
    assert!(
        cycles[0] > 30 * cycles[1],
        "8-bit {} vs 1024-bit {} cycles",
        cycles[0],
        cycles[1]
    );
}

#[test]
fn minimal_outstanding_and_id_width_still_drain() {
    // The stingiest legal configuration: IW=1 (two IDs), MOT=1, depth-1
    // behaviourally via MOT — everything must still complete (slowly).
    let axi = AxiParams::new(32, 32, 1, 1).expect("minimal config is valid");
    let mut sim = NocSim::new(NocConfig::new(axi, Topology::mesh4x4())).expect("valid");
    let mut src = Finite::new(16, 3, 999, mixed_kind);
    let report = sim.run(&mut src, 50_000_000, 0);
    assert_eq!(report.transfers_completed, 48);
    assert_eq!(report.payload_bytes, 48 * 999);
}

#[test]
fn every_topology_validates_and_drains() {
    use patronoc::routing::validate_deadlock_free;
    use patronoc::RoutingAlgorithm;
    for topo in [
        Topology { cols: 2, rows: 3 },
        Topology { cols: 5, rows: 5 },
        Topology { cols: 3, rows: 4 },
        Topology { cols: 7, rows: 1 },
    ] {
        for algo in [
            RoutingAlgorithm::YxDimensionOrder,
            RoutingAlgorithm::XyDimensionOrder,
        ] {
            assert!(
                validate_deadlock_free(topo, algo).is_ok(),
                "{topo} under {algo:?}"
            );
        }
        let n = topo.num_nodes();
        let mut cfg = NocConfig::new(AxiParams::slim(), topo);
        cfg.masters = (0..n).collect();
        cfg.slaves = (0..n).collect();
        let mut sim = NocSim::new(cfg).expect("valid config");
        let mut src = Finite::new(n, 4, 999, mixed_kind);
        let report = sim.run(&mut src, 5_000_000, 0);
        assert_eq!(report.transfers_completed as usize, n * 4, "{topo}");
    }
}
