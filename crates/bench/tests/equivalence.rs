//! Scenario-equivalence: the builder API must reproduce the results of
//! the pre-redesign free-function path **bit for bit**. Each test
//! re-states the old path — direct engine + traffic-source construction,
//! exactly as `bench`'s point-runners were written before the `scenario`
//! crate existed — and compares its report against the same run expressed
//! as a `Scenario`.
//!
//! The second half cross-checks **activity-driven stepping** against the
//! `full_sweep` reference on both engines, across every traffic class and
//! at idle, mid-load and saturated operating points: the active scheduler
//! must be invisible in every observable (bit-for-bit), while doing a
//! deterministically-counted fraction of the work at low load.

use axi::AxiParams;
use bench::{defaults, dnn_scenario, noxim_uniform_scenario, patronoc_uniform_scenario};
use packetnoc::{PacketNocConfig, PacketNocSim};
use patronoc::{NocConfig, NocSim, Topology};
use scenario::{Engine, PacketProfile, Scenario, TrafficSpec};
use simkit::SimReport;
use traffic::{
    dnn::DnnConfig, DnnTraffic, DnnWorkload, SyntheticConfig, SyntheticPattern, SyntheticTraffic,
    TrafficSource, UniformConfig, UniformRandom,
};

const WINDOW: u64 = 10_000;
const WARMUP: u64 = 2_000;

fn uniform_cfg(dw_bits: u32, load: f64, max_transfer: u64, seed: u64) -> UniformConfig {
    // The old `bench::uniform_cfg` helper, 16-master literals included.
    UniformConfig {
        masters: 16,
        slaves: (0..16).collect(),
        load,
        bytes_per_cycle: f64::from(dw_bits) / 8.0,
        max_transfer,
        read_fraction: 0.5,
        region_size: 1 << 24,
        seed,
    }
}

fn assert_bit_identical(old: &SimReport, new: &SimReport) {
    assert_eq!(old.cycles, new.cycles);
    assert_eq!(old.payload_bytes, new.payload_bytes);
    assert_eq!(old.transfers_completed, new.transfers_completed);
    assert_eq!(old.p99_latency, new.p99_latency);
    assert_eq!(
        old.throughput_gib_s.to_bits(),
        new.throughput_gib_s.to_bits(),
        "throughput: old {} vs new {}",
        old.throughput_gib_s,
        new.throughput_gib_s
    );
    assert_eq!(old.mean_latency.to_bits(), new.mean_latency.to_bits());
}

#[test]
fn patronoc_uniform_scenario_reproduces_free_function_path() {
    for (dw, load, cap) in [(32u32, 1.0, 1_000u64), (32, 0.1, 64_000), (512, 0.5, 100)] {
        let seed = defaults::fig4_patronoc_seed(cap, 3);
        // Old path: bench::patronoc_uniform_point's body before the redesign.
        let axi = AxiParams::new(32, dw, 4, 8).expect("valid sweep parameters");
        let cfg = NocConfig::new(axi, Topology::mesh4x4());
        let mut sim = NocSim::new(cfg).expect("valid configuration");
        let mut src = UniformRandom::new_copies(uniform_cfg(dw, load, cap, seed));
        let old = sim.run(&mut src, WARMUP + WINDOW, WARMUP);
        // New path: the Scenario builder.
        let new = patronoc_uniform_scenario(dw, load, cap, WINDOW, WARMUP, seed)
            .run()
            .expect("valid scenario");
        assert_bit_identical(&old, &new);
    }
}

#[test]
fn noxim_uniform_scenario_reproduces_free_function_path() {
    for (profile, cfg) in [
        (PacketProfile::Compact, PacketNocConfig::noxim_compact()),
        (
            PacketProfile::HighPerformance,
            PacketNocConfig::noxim_high_performance(),
        ),
    ] {
        let seed = defaults::fig4_noxim_seed(0, 2);
        // Old path: bench::noxim_uniform_point's body before the redesign.
        let flit_bits = cfg.flit_bytes * 8;
        let mut sim = PacketNocSim::new(cfg);
        let mut src = UniformRandom::new(uniform_cfg(flit_bits, 1.0, 100, seed));
        let old = sim.run(&mut src, WARMUP + WINDOW, WARMUP);
        let new = noxim_uniform_scenario(profile, 1.0, 100, WINDOW, WARMUP, seed)
            .run()
            .expect("valid scenario");
        assert_bit_identical(&old, &new);
    }
}

#[test]
fn synthetic_scenario_reproduces_free_function_path() {
    for pattern in [
        SyntheticPattern::AllGlobal,
        SyntheticPattern::MaxTwoHop,
        SyntheticPattern::MaxSingleHop,
    ] {
        let cap = 10_000;
        let seed = defaults::fig6_seed(cap);
        // Old path: bench::synthetic_point's body before the redesign.
        let axi = AxiParams::new(32, 32, 4, 8).expect("valid sweep parameters");
        let mut cfg = NocConfig::new(axi, Topology::mesh4x4());
        cfg.slaves = pattern.slave_nodes(4, 4);
        let mut sim = NocSim::new(cfg).expect("valid configuration");
        let mut src = SyntheticTraffic::new(SyntheticConfig {
            cols: 4,
            rows: 4,
            pattern,
            load: 1.0,
            bytes_per_cycle: 4.0,
            max_transfer: cap,
            read_fraction: 0.5,
            region_size: 1 << 24,
            seed,
        });
        let old = sim.run(&mut src, WARMUP + WINDOW, WARMUP);
        let new = Scenario::patronoc()
            .traffic(TrafficSpec::synthetic(pattern, cap))
            .warmup(WARMUP)
            .window(WINDOW)
            .seed(seed)
            .run()
            .expect("valid scenario");
        assert_bit_identical(&old, &new);
    }
}

#[test]
fn dnn_scenario_reproduces_free_function_path() {
    // Old path: bench::dnn_point's body before the redesign (minus the
    // assert-on-budget-miss, which the unified StopReason replaced).
    let axi = AxiParams::new(32, 512, 4, 8).expect("valid sweep parameters");
    let cfg = NocConfig::new(axi, Topology::mesh4x4());
    let mut sim = NocSim::new(cfg).expect("valid configuration");
    let dnn_cfg = DnnConfig {
        steps: 1,
        ..DnnConfig::for_workload(DnnWorkload::PipelinedConv)
    };
    let mut src = DnnTraffic::new(&dnn_cfg);
    let old = sim.run(&mut src, 500_000_000, 0);
    assert!(src.is_done());

    let new = dnn_scenario(512, DnnWorkload::PipelinedConv, 1)
        .run()
        .expect("valid scenario");
    assert_bit_identical(&old, &new);
    assert!(new.is_drained());
}

/// Everything observable from one PATRONoC run: the unified report plus
/// the engine-specific probes the report does not carry.
#[derive(Debug, PartialEq)]
struct PatronocObservables {
    report: SimReport,
    slave_write_bytes: Vec<u64>,
    link_occupancy: Vec<(usize, patronoc::Dir, f64, f64)>,
    transfers: u64,
}

/// Runs a PATRONoC scenario in the given stepping mode and returns every
/// observable plus the deterministic work count.
fn run_patronoc_mode(sc: &Scenario, full_sweep: bool) -> (PatronocObservables, u64) {
    let mut cfg = sc.noc_config().expect("a PATRONoC scenario");
    cfg.full_sweep = full_sweep;
    let mut sim = NocSim::new(cfg).expect("valid configuration");
    let mut src = sc.build_source();
    let (max_cycles, warmup) = match sc.budget {
        Some(budget) => (budget, sc.warmup),
        None => (sc.warmup + sc.window, sc.warmup),
    };
    let report = sim.run(&mut *src, max_cycles, warmup);
    (
        PatronocObservables {
            report,
            slave_write_bytes: sim.slave_write_bytes(),
            link_occupancy: sim.link_occupancy(),
            transfers: sim.transfers_completed(),
        },
        sim.work_items(),
    )
}

#[test]
fn active_stepping_matches_full_sweep_on_patronoc_uniform_loads() {
    // Idle, mid-load and saturated points of the Fig. 4 stimulus (copies)
    // plus the read/write variant.
    let mut scenarios = Vec::new();
    for load in [0.0001, 0.3, 1.0] {
        scenarios.push(patronoc_uniform_scenario(
            32,
            load,
            1_000,
            WINDOW,
            WARMUP,
            defaults::fig4_patronoc_seed(1_000, 5),
        ));
    }
    scenarios.push(
        Scenario::patronoc()
            .traffic(TrafficSpec::uniform(0.5, 4_000))
            .warmup(WARMUP)
            .window(WINDOW)
            .seed(11),
    );
    for sc in &scenarios {
        let (full, _) = run_patronoc_mode(sc, true);
        let (active, _) = run_patronoc_mode(sc, false);
        assert_eq!(full, active, "observables diverged for {:?}", sc.traffic);
        assert_eq!(
            full.report.throughput_gib_s.to_bits(),
            active.report.throughput_gib_s.to_bits()
        );
        assert_eq!(
            full.report.mean_latency.to_bits(),
            active.report.mean_latency.to_bits()
        );
    }
}

#[test]
fn active_stepping_matches_full_sweep_on_patronoc_synthetic_and_dnn() {
    let mut scenarios = Vec::new();
    for pattern in [
        SyntheticPattern::AllGlobal,
        SyntheticPattern::MaxTwoHop,
        SyntheticPattern::MaxSingleHop,
    ] {
        scenarios.push(
            Scenario::patronoc()
                .traffic(TrafficSpec::synthetic(pattern, 10_000))
                .warmup(WARMUP)
                .window(WINDOW)
                .seed(defaults::fig6_seed(10_000)),
        );
    }
    scenarios.push(dnn_scenario(512, DnnWorkload::PipelinedConv, 1));
    for sc in &scenarios {
        let (full, _) = run_patronoc_mode(sc, true);
        let (active, _) = run_patronoc_mode(sc, false);
        assert_eq!(full, active, "observables diverged for {:?}", sc.traffic);
    }
}

/// Runs a packet-baseline workload in the given stepping mode.
fn run_packet_mode(cfg: PacketNocConfig, load: f64, full_sweep: bool) -> (SimReport, u64, u64) {
    let flit_bits = cfg.flit_bytes * 8;
    let mut sim = PacketNocSim::new(PacketNocConfig { full_sweep, ..cfg });
    let mut src = UniformRandom::new(uniform_cfg(flit_bits, load, 100, 77));
    let report = sim.run(&mut src, WARMUP + WINDOW, WARMUP);
    (report, sim.packets_delivered(), sim.work_items())
}

#[test]
fn active_stepping_matches_full_sweep_on_packet_baseline() {
    for cfg in [
        PacketNocConfig::noxim_compact(),
        PacketNocConfig::noxim_high_performance(),
    ] {
        for load in [0.0001, 0.3, 1.0] {
            let (full, full_packets, _) = run_packet_mode(cfg.clone(), load, true);
            let (active, active_packets, _) = run_packet_mode(cfg.clone(), load, false);
            assert_eq!(full, active, "report diverged at load {load}");
            assert_eq!(
                full.throughput_gib_s.to_bits(),
                active.throughput_gib_s.to_bits()
            );
            assert_eq!(full_packets, active_packets, "packets at load {load}");
        }
    }
}

#[test]
fn active_stepping_saves_work_at_low_injection_on_both_engines() {
    // The ≥5× claim, asserted on the deterministic scheduler work counter
    // (wall clock is noisy; the counter is exact and machine-independent):
    // quick fig4's lowest-injection point must step at least 5× fewer
    // items than the full sweep, with no extra work at saturation.
    let idle = patronoc_uniform_scenario(
        32,
        0.001,
        1_000,
        WINDOW,
        WARMUP,
        defaults::fig4_patronoc_seed(1_000, 0),
    );
    let (_, full_work) = run_patronoc_mode(&idle, true);
    let (_, active_work) = run_patronoc_mode(&idle, false);
    assert!(
        active_work * 5 <= full_work,
        "patronoc: active {active_work} vs full {full_work}"
    );

    let (_, _, full_work) = run_packet_mode(PacketNocConfig::noxim_compact(), 0.001, true);
    let (_, _, active_work) = run_packet_mode(PacketNocConfig::noxim_compact(), 0.001, false);
    assert!(
        active_work * 5 <= full_work,
        "packet: active {active_work} vs full {full_work}"
    );

    // Saturation: the two-regime scheduler must degrade to exactly the
    // full sweep's work count (plus at most a transition sliver).
    let sat = patronoc_uniform_scenario(
        32,
        1.0,
        1_000,
        WINDOW,
        WARMUP,
        defaults::fig4_patronoc_seed(1_000, 12),
    );
    let (_, full_work) = run_patronoc_mode(&sat, true);
    let (_, active_work) = run_patronoc_mode(&sat, false);
    assert!(
        active_work <= full_work + full_work / 10,
        "patronoc saturated: active {active_work} vs full {full_work}"
    );
}

// ---------------------------------------------------------------------------
// Event-horizon time skipping: jumping `now` across provably idle gaps must
// be invisible in every observable — the full `SimReport` (state digest
// included) must match the cycle-by-cycle full-sweep reference bit for
// bit, on both engines, across every traffic class, at idle / mid /
// saturated operating points, and at every shard thread count.
// ---------------------------------------------------------------------------

#[test]
fn time_skipping_is_bit_identical_across_engines_traffic_and_threads() {
    let mut scenarios = Vec::new();
    for &load in &LOADS {
        scenarios.push(patronoc_uniform_scenario(
            32,
            load,
            1_000,
            WINDOW,
            WARMUP,
            defaults::fig4_patronoc_seed(1_000, 7),
        ));
        scenarios.push(noxim_uniform_scenario(
            PacketProfile::Compact,
            load,
            100,
            WINDOW,
            WARMUP,
            77,
        ));
        scenarios.push(
            Scenario::patronoc()
                .traffic(TrafficSpec::Synthetic {
                    pattern: SyntheticPattern::AllGlobal,
                    load,
                    max_transfer: 10_000,
                    read_fraction: 0.5,
                })
                .warmup(WARMUP)
                .window(WINDOW)
                .seed(defaults::fig6_seed(10_000)),
        );
        scenarios.push(
            Scenario::packet(PacketProfile::HighPerformance)
                .traffic(TrafficSpec::Synthetic {
                    pattern: SyntheticPattern::MaxTwoHop,
                    load,
                    max_transfer: 10_000,
                    read_fraction: 0.5,
                })
                .warmup(WARMUP)
                .window(WINDOW)
                .seed(defaults::fig6_seed(10_000)),
        );
    }
    scenarios.push(dnn_scenario(512, DnnWorkload::PipelinedConv, 1));
    scenarios.push(
        Scenario::packet(PacketProfile::HighPerformance)
            .traffic(TrafficSpec::dnn(DnnWorkload::PipelinedConv, 1))
            .budget(300_000),
    );
    for sc in &scenarios {
        for threads in [1usize, 2, 4] {
            let sc = sc.clone().threads(threads);
            let reference = sc.clone().full_sweep(true).run().expect("valid scenario");
            let skipped = sc.run().expect("valid scenario");
            assert_eq!(reference.cycles_skipped, 0, "reference must not skip");
            assert_eq!(
                reference, skipped,
                "skip diverged for {:?} at {threads} threads",
                sc.traffic
            );
            assert_eq!(
                reference.state_digest, skipped.state_digest,
                "digest diverged for {:?} at {threads} threads",
                sc.traffic
            );
        }
    }
}

#[test]
fn time_skipping_crosses_idle_gaps_through_the_scenario_api() {
    // The feature must be live end-to-end, not just in the engine units:
    // the near-idle fig4 point skips most of its window when run through
    // `Scenario::run` with the default (enabled) knob.
    let sc = patronoc_uniform_scenario(
        32,
        0.001,
        1_000,
        WINDOW,
        WARMUP,
        defaults::fig4_patronoc_seed(1_000, 0),
    );
    let report = sc.run().expect("valid scenario");
    assert!(
        report.cycles_skipped > 1_000,
        "near-idle run skipped only {} cycles",
        report.cycles_skipped
    );
}

// ---------------------------------------------------------------------------
// Slab-arena golden pinning: the slab-backed engines must reproduce the
// **pre-refactor** reports bit for bit. The values below were captured from
// the tree as of PR 4 (commit 1f45746, before any slab existed) by running
// this exact grid -- both engines x {uniform, synthetic, dnn} x {idle, mid,
// saturated} -- and recording every determinism-contract field of the
// resulting `SimReport`s (floats as raw bits). Any divergence means the
// arena refactor changed observable simulation behaviour.
// ---------------------------------------------------------------------------

/// The determinism-contract fields, floats as raw bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    cycles: u64,
    payload_bytes: u64,
    transfers_completed: u64,
    p99_latency: u64,
    throughput_bits: u64,
    mean_latency_bits: u64,
}

impl Golden {
    fn of(r: &SimReport) -> Self {
        Self {
            cycles: r.cycles,
            payload_bytes: r.payload_bytes,
            transfers_completed: r.transfers_completed,
            p99_latency: r.p99_latency,
            throughput_bits: r.throughput_gib_s.to_bits(),
            mean_latency_bits: r.mean_latency.to_bits(),
        }
    }
}

fn golden_uniform_cfg(load: f64, max_transfer: u64, seed: u64) -> UniformConfig {
    UniformConfig {
        masters: 16,
        slaves: (0..16).collect(),
        load,
        bytes_per_cycle: 4.0,
        max_transfer,
        read_fraction: 0.5,
        region_size: 1 << 24,
        seed,
    }
}

fn synthetic_cfg(load: f64) -> SyntheticConfig {
    SyntheticConfig {
        cols: 4,
        rows: 4,
        pattern: SyntheticPattern::AllGlobal,
        load,
        bytes_per_cycle: 4.0,
        max_transfer: 10_000,
        read_fraction: 0.5,
        region_size: 1 << 24,
        seed: defaults::fig6_seed(10_000),
    }
}

/// Idle / mid / saturated operating points.
const LOADS: [f64; 3] = [0.001, 0.3, 1.0];

fn run_patronoc_uniform(load: f64, i: usize, threads: usize) -> Golden {
    let axi = AxiParams::new(32, 32, 4, 8).expect("valid parameters");
    let mut cfg = NocConfig::new(axi, Topology::mesh4x4());
    cfg.threads = threads;
    let mut sim = NocSim::new(cfg).expect("valid configuration");
    let mut src = UniformRandom::new_copies(golden_uniform_cfg(
        load,
        1_000,
        defaults::fig4_patronoc_seed(1_000, i),
    ));
    Golden::of(&sim.run(&mut src, WARMUP + WINDOW, WARMUP))
}

fn run_patronoc_synthetic(load: f64) -> Golden {
    let axi = AxiParams::new(32, 32, 4, 8).expect("valid parameters");
    let mut cfg = NocConfig::new(axi, Topology::mesh4x4());
    cfg.slaves = SyntheticPattern::AllGlobal.slave_nodes(4, 4);
    let mut sim = NocSim::new(cfg).expect("valid configuration");
    let mut src = SyntheticTraffic::new(synthetic_cfg(load));
    Golden::of(&sim.run(&mut src, WARMUP + WINDOW, WARMUP))
}

fn run_patronoc_dnn(workload: DnnWorkload) -> Golden {
    let axi = AxiParams::new(32, 512, 4, 8).expect("valid parameters");
    let cfg = NocConfig::new(axi, Topology::mesh4x4());
    let mut sim = NocSim::new(cfg).expect("valid configuration");
    let dnn_cfg = DnnConfig {
        steps: 1,
        ..DnnConfig::for_workload(workload)
    };
    let mut src = DnnTraffic::new(&dnn_cfg);
    Golden::of(&sim.run(&mut src, 500_000_000, 0))
}

fn run_packet_uniform(load: f64, threads: usize) -> SimReport {
    let mut sim = PacketNocSim::new(PacketNocConfig {
        threads,
        ..PacketNocConfig::noxim_compact()
    });
    let mut src = UniformRandom::new(golden_uniform_cfg(load, 100, 77));
    sim.run(&mut src, WARMUP + WINDOW, WARMUP)
}

fn run_packet_synthetic(load: f64, threads: usize) -> SimReport {
    let mut sim = PacketNocSim::new(PacketNocConfig {
        threads,
        ..PacketNocConfig::noxim_high_performance()
    });
    let mut src = SyntheticTraffic::new(synthetic_cfg(load));
    sim.run(&mut src, WARMUP + WINDOW, WARMUP)
}

fn run_packet_dnn(workload: DnnWorkload) -> Golden {
    let mut sim = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
    let dnn_cfg = DnnConfig {
        steps: 1,
        ..DnnConfig::for_workload(workload)
    };
    let mut src = DnnTraffic::new(&dnn_cfg);
    Golden::of(&sim.run(&mut src, 300_000, 0))
}

const fn golden(
    cycles: u64,
    payload_bytes: u64,
    transfers_completed: u64,
    p99_latency: u64,
    throughput_bits: u64,
    mean_latency_bits: u64,
) -> Golden {
    Golden {
        cycles,
        payload_bytes,
        transfers_completed,
        p99_latency,
        throughput_bits,
        mean_latency_bits,
    }
}

/// Pinned pre-refactor reports for PATRONoC uniform at the three loads.
const PATRONOC_UNIFORM_GOLDENS: [Golden; 3] = [
    golden(12000, 1199, 3, 256, 0x3fbc961d80000000, 0x405faaaaaaaaaaab),
    golden(
        12000,
        180200,
        421,
        1024,
        0x4030c84d84000000,
        0x407392a90b8dae85,
    ),
    golden(
        12000,
        201192,
        493,
        2048,
        0x4032bcca84000000,
        0x40778fa49bc7eb3b,
    ),
];

/// Pinned pre-refactor reports for the packet baseline uniform grid.
const PACKET_UNIFORM_GOLDENS: [Golden; 3] = [
    golden(12000, 1152, 21, 64, 0x3fbb774000000000, 0x40266d79435e50d8),
    golden(
        12000,
        32522,
        754,
        256,
        0x40083b1448000000,
        0x40419c3c2ff77209,
    ),
    golden(
        12000,
        33826,
        780,
        256,
        0x400933cc28000000,
        0x4040f546a8706c7e,
    ),
];

#[test]
fn patronoc_uniform_matches_pre_refactor_reports() {
    for (i, &load) in LOADS.iter().enumerate() {
        assert_eq!(
            run_patronoc_uniform(load, i, 1),
            PATRONOC_UNIFORM_GOLDENS[i],
            "patronoc uniform diverged at load {load}"
        );
    }
}

#[test]
fn sharded_runs_match_the_pinned_goldens() {
    // Region-sharded execution must reproduce the pre-refactor golden
    // reports bit for bit — not merely match a fresh serial run. The
    // thread count comes from `BENCH_THREADS` (CI runs the suite at 2);
    // default 2 so a plain `cargo test` exercises sharding too.
    let threads = std::env::var("BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(2);
    for (i, &load) in LOADS.iter().enumerate() {
        assert_eq!(
            run_patronoc_uniform(load, i, threads),
            PATRONOC_UNIFORM_GOLDENS[i],
            "sharded patronoc uniform diverged at load {load} ({threads} threads)"
        );
        assert_eq!(
            Golden::of(&run_packet_uniform(load, threads)),
            PACKET_UNIFORM_GOLDENS[i],
            "sharded packet uniform diverged at load {load} ({threads} threads)"
        );
    }
}

#[test]
fn patronoc_synthetic_matches_pre_refactor_reports() {
    let expected = [
        golden(12000, 0, 0, 0, 0x0, 0x0),
        golden(
            12000,
            79946,
            14,
            16384,
            0x401dc83ea4000000,
            0x40b2a28000000000,
        ),
        golden(
            12000,
            79943,
            18,
            16384,
            0x401dc7f566000000,
            0x40b4d90000000000,
        ),
    ];
    for (i, &load) in LOADS.iter().enumerate() {
        assert_eq!(
            run_patronoc_synthetic(load),
            expected[i],
            "patronoc synthetic diverged at load {load}"
        );
    }
}

#[test]
fn patronoc_dnn_matches_pre_refactor_reports() {
    let expected = [
        golden(
            179010,
            18783648,
            1584,
            16384,
            0x40586e5bb4ea3f95,
            0x40979e4676f3121a,
        ),
        golden(
            73977,
            5010000,
            1632,
            4096,
            0x404f894ce451ee7f,
            0x408147d7d7d7d7d8,
        ),
        golden(
            5432,
            1373480,
            136,
            512,
            0x406d6f82b8c7723d,
            0x4065e52d2d2d2d2d,
        ),
    ];
    for (w, exp) in DnnWorkload::all().into_iter().zip(expected) {
        assert_eq!(run_patronoc_dnn(w), exp, "patronoc dnn diverged for {w:?}");
    }
}

#[test]
fn packet_uniform_matches_pre_refactor_reports() {
    for (i, &load) in LOADS.iter().enumerate() {
        assert_eq!(
            Golden::of(&run_packet_uniform(load, 1)),
            PACKET_UNIFORM_GOLDENS[i],
            "packet uniform diverged at load {load}"
        );
    }
}

#[test]
fn packet_synthetic_matches_pre_refactor_reports() {
    let expected = [
        golden(12000, 0, 0, 0, 0x0, 0x0),
        golden(
            12000,
            5000,
            0,
            16384,
            0x3fddcd6500000000,
            0x40a15026d45c175e,
        ),
        golden(
            12000,
            5000,
            0,
            16384,
            0x3fddcd6500000000,
            0x40a2c2939b4ff7c8,
        ),
    ];
    for (i, &load) in LOADS.iter().enumerate() {
        assert_eq!(
            Golden::of(&run_packet_synthetic(load, 1)),
            expected[i],
            "packet synthetic diverged at load {load}"
        );
    }
}

#[test]
fn packet_dnn_matches_pre_refactor_reports() {
    let expected = [
        golden(
            300000,
            150008,
            0,
            32768,
            0x3fddcdcd2aaaaaaa,
            0x40af4382eb215ce1,
        ),
        golden(
            300000,
            150000,
            47,
            32768,
            0x3fddcd6500000000,
            0x40ab8e074e02a998,
        ),
        golden(
            300000,
            1022056,
            118,
            1024,
            0x4009620e9aaaaaab,
            0x4054e5c7940247b0,
        ),
    ];
    for (w, exp) in DnnWorkload::all().into_iter().zip(expected) {
        assert_eq!(run_packet_dnn(w), exp, "packet dnn diverged for {w:?}");
    }
}

/// PATRONoC with three register slices per link channel, saturated
/// uniform copies: the one golden that drives a channel's extra stages
/// (every other golden runs one-stage links). Returns the golden fields
/// and the `state_digest`.
fn run_patronoc_three_stage(threads: usize) -> (Golden, u64) {
    let axi = AxiParams::new(32, 32, 4, 8).expect("valid parameters");
    let mut cfg = NocConfig::new(axi, Topology::mesh4x4());
    cfg.link_stages = 3;
    cfg.threads = threads;
    let mut sim = NocSim::new(cfg).expect("valid configuration");
    let mut src = UniformRandom::new_copies(golden_uniform_cfg(
        1.0,
        1_000,
        defaults::fig4_patronoc_seed(1_000, 2),
    ));
    let r = sim.run(&mut src, WARMUP + WINDOW, WARMUP);
    (Golden::of(&r), r.state_digest)
}

#[test]
fn patronoc_three_stage_links_match_pinned_report() {
    let expected = (
        golden(
            12000,
            190150,
            465,
            2048,
            0x4031b5877f000000,
            0x4079014eba14eba1,
        ),
        0x3cef6e86424f4561,
    );
    let threads = std::env::var("BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    assert_eq!(run_patronoc_three_stage(1), expected, "serial");
    assert_eq!(
        run_patronoc_three_stage(threads),
        expected,
        "{threads} threads"
    );
}

/// The packet baseline's twin of the three-stage pin: the compact uniform
/// and the high-performance synthetic golden runs at load 1.0, each with
/// its `state_digest`. The digest hashes the snapshot header, so it pins
/// every byte of `PacketNocSim::shape` as well as the state encoding.
fn run_packet_pinned(threads: usize) -> [(Golden, u64); 2] {
    [
        run_packet_uniform(1.0, threads),
        run_packet_synthetic(1.0, threads),
    ]
    .map(|r| (Golden::of(&r), r.state_digest))
}

#[test]
fn packet_runs_match_pinned_reports_and_digests() {
    let expected = [
        (PACKET_UNIFORM_GOLDENS[2], 0x4471fe58f3ce0898),
        (
            golden(
                12000,
                5000,
                0,
                16384,
                0x3fddcd6500000000,
                0x40a2c2939b4ff7c8,
            ),
            0xa651132bca121f0d,
        ),
    ];
    let threads = std::env::var("BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    assert_eq!(run_packet_pinned(1), expected, "serial");
    assert_eq!(run_packet_pinned(threads), expected, "{threads} threads");
}
