//! Thread-count determinism matrix: region-sharded execution must be
//! **bit-identical** to the serial engine for both engines, every traffic
//! class and every operating point, at every thread count — `threads` is
//! a wall-clock-only knob (see `ARCHITECTURE.md`, "Region-sharded
//! execution").
//!
//! The grid: {PATRONoC, packet} × {uniform copies, synthetic, DNN trace}
//! × {idle, mid-load, saturated} × threads {2, 4, 8}, each cell compared
//! against the serial (`threads = 1`) run of the same scenario. On the
//! 4×4 mesh the 8-thread request clamps to the 4 row bands, so the clamp
//! path is exercised too.

use bench::defaults;
use scenario::{PacketProfile, Scenario, TrafficSpec};
use simkit::SimReport;
use traffic::{DnnWorkload, SyntheticPattern};

const WINDOW: u64 = 8_000;
const WARMUP: u64 = 2_000;
const THREADS: [usize; 3] = [2, 4, 8];

/// Idle / mid / saturated operating points.
const LOADS: [f64; 3] = [0.001, 0.3, 1.0];

fn assert_bit_identical(serial: &SimReport, sharded: &SimReport, what: &str) {
    assert_eq!(serial, sharded, "{what}: report diverged");
    // The canonical end-state digest is part of `SimReport::eq`, but it is
    // the strongest single observable — a serial and a sharded run agree
    // on it only if every in-flight record, buffer, router and RNG ended
    // identical — so assert it by name too.
    assert_eq!(
        serial.state_digest, sharded.state_digest,
        "{what}: state digest diverged"
    );
    assert_eq!(
        serial.throughput_gib_s.to_bits(),
        sharded.throughput_gib_s.to_bits(),
        "{what}: throughput bits diverged"
    );
    assert_eq!(
        serial.mean_latency.to_bits(),
        sharded.mean_latency.to_bits(),
        "{what}: mean latency bits diverged"
    );
}

/// Runs `scenario` serially, then at every matrix thread count, asserting
/// bit identity cell by cell.
fn assert_thread_invariant(scenario: &Scenario, what: &str) {
    let rows = scenario.topology.rows;
    let serial = scenario
        .clone()
        .threads(1)
        .run()
        .expect("valid serial scenario");
    for threads in THREADS {
        let sharded = scenario
            .clone()
            .threads(threads)
            .run()
            .expect("valid sharded scenario");
        // The report names the row bands that ran: at most one per row.
        assert_eq!(
            sharded.threads,
            threads.min(rows),
            "{what}: threads not recorded"
        );
        assert_bit_identical(&serial, &sharded, &format!("{what} @ {threads} threads"));
    }
}

fn engines() -> [(&'static str, Scenario); 2] {
    [
        ("patronoc", Scenario::patronoc()),
        ("packet", Scenario::packet(PacketProfile::Compact)),
    ]
}

#[test]
fn uniform_loads_are_thread_invariant() {
    for (name, base) in engines() {
        for (i, &load) in LOADS.iter().enumerate() {
            let sc = base
                .clone()
                .traffic(TrafficSpec::uniform(load, 1_000))
                .warmup(WARMUP)
                .window(WINDOW)
                .seed(defaults::fig4_patronoc_seed(1_000, i));
            assert_thread_invariant(&sc, &format!("{name} uniform load {load}"));
        }
    }
}

#[test]
fn synthetic_patterns_are_thread_invariant() {
    // All-global at the three operating points, plus max-single-hop at
    // saturation: transfers a node addresses to itself, and one-hop
    // transfers across region boundaries.
    for (name, base) in engines() {
        for &load in &LOADS {
            let sc = base
                .clone()
                .traffic(TrafficSpec::Synthetic {
                    pattern: SyntheticPattern::AllGlobal,
                    load,
                    max_transfer: 10_000,
                    read_fraction: 0.5,
                })
                .warmup(WARMUP)
                .window(WINDOW)
                .seed(defaults::fig6_seed(10_000));
            assert_thread_invariant(&sc, &format!("{name} synthetic load {load}"));
        }
        let sc = base
            .clone()
            .traffic(TrafficSpec::synthetic(
                SyntheticPattern::MaxSingleHop,
                10_000,
            ))
            .warmup(WARMUP)
            .window(WINDOW)
            .seed(defaults::fig6_seed(10_000));
        assert_thread_invariant(&sc, &format!("{name} max-single-hop"));
    }
}

#[test]
fn dnn_traces_are_thread_invariant() {
    // Drained-trace runs: the stop condition is the trace itself, so the
    // cycle count is part of the determinism contract.
    let patronoc = Scenario::patronoc()
        .data_width(512)
        .traffic(TrafficSpec::dnn(DnnWorkload::PipelinedConv, 1))
        .budget(500_000_000)
        .seed(1);
    assert_thread_invariant(&patronoc, "patronoc dnn");

    let packet = Scenario::packet(PacketProfile::HighPerformance)
        .traffic(TrafficSpec::dnn(DnnWorkload::PipelinedConv, 1))
        .budget(300_000)
        .seed(1);
    assert_thread_invariant(&packet, "packet dnn");
}

#[test]
fn larger_meshes_shard_into_more_regions() {
    // 8×8: eight row bands, so all three matrix thread counts get real
    // multi-region sharding (no clamp).
    let sc = Scenario::patronoc()
        .topology(patronoc::Topology { cols: 8, rows: 8 })
        .traffic(TrafficSpec::uniform_copies(1.0, 4_096))
        .warmup(WARMUP)
        .window(WINDOW)
        .seed(21);
    assert_thread_invariant(&sc, "patronoc 8x8 saturated");
}
