//! Checkpoint/restore pinning matrix: `Engine::snapshot` → `restore` →
//! run must be **bit-identical** to running straight through, for both
//! engines, every traffic class, every operating point, both stepping
//! modes and across thread counts — a snapshot is a complete capture of
//! deterministic simulation state, and warm-start forking (see
//! `scenario::warm` and `bench::sweep::WarmCache`) is therefore a
//! wall-clock-only optimization.
//!
//! The second half pins the safety contract: snapshots are self-
//! validating (`simkit::snap`), so a corrupt, truncated, oversized or
//! wrong-engine byte string is rejected **before any engine state is
//! constructed**, leaving the running engine untouched byte for byte.

use bench::perf::{
    capture_packet_warm, capture_patronoc_warm, run_packet, run_packet_warm, run_patronoc,
    run_patronoc_warm, Runner, StepMode, WarmCapture, WarmRunner,
};
use scenario::{capture_warm, run_warm, Engine, PacketProfile, Scenario, TrafficSpec};
use simkit::snap::{DecodeLimits, Decoder, SnapError};
use simkit::SimReport;
use traffic::{DnnWorkload, SyntheticPattern};

const WINDOW: u64 = 4_000;
const WARMUP: u64 = 1_500;

/// Idle / mid / saturated operating points.
const LOADS: [f64; 3] = [0.001, 0.3, 1.0];

fn assert_bit_identical(cold: &SimReport, forked: &SimReport, what: &str) {
    assert_eq!(cold, forked, "{what}: report diverged");
    assert_eq!(
        cold.state_digest, forked.state_digest,
        "{what}: state digest diverged"
    );
    assert_eq!(
        cold.throughput_gib_s.to_bits(),
        forked.throughput_gib_s.to_bits(),
        "{what}: throughput bits diverged"
    );
    assert_eq!(
        cold.mean_latency.to_bits(),
        forked.mean_latency.to_bits(),
        "{what}: mean latency bits diverged"
    );
}

/// The windowed matrix: both engines × {uniform, synthetic} × the three
/// operating points, plus one run-to-drain DNN trace per engine.
fn matrix() -> Vec<(String, Scenario)> {
    let mut cells = Vec::new();
    for (name, base) in [
        ("patronoc", Scenario::patronoc()),
        ("packet", Scenario::packet(PacketProfile::Compact)),
    ] {
        for &load in &LOADS {
            cells.push((
                format!("{name} uniform load {load}"),
                base.clone()
                    .traffic(TrafficSpec::uniform(load, 1_000))
                    .warmup(WARMUP)
                    .window(WINDOW)
                    .seed(31),
            ));
            cells.push((
                format!("{name} synthetic load {load}"),
                base.clone()
                    .traffic(TrafficSpec::Synthetic {
                        pattern: SyntheticPattern::AllGlobal,
                        load,
                        max_transfer: 10_000,
                        read_fraction: 0.5,
                    })
                    .warmup(WARMUP)
                    .window(WINDOW)
                    .seed(37),
            ));
        }
    }
    cells.push((
        "patronoc dnn".into(),
        Scenario::patronoc()
            .data_width(512)
            .traffic(TrafficSpec::dnn(DnnWorkload::PipelinedConv, 1))
            .warmup(WARMUP)
            .budget(50_000_000)
            .seed(1),
    ));
    cells.push((
        "packet dnn".into(),
        Scenario::packet(PacketProfile::HighPerformance)
            .traffic(TrafficSpec::dnn(DnnWorkload::PipelinedConv, 1))
            .warmup(WARMUP)
            .budget(300_000)
            .seed(1),
    ));
    cells
}

#[test]
fn warm_forks_match_cold_runs_across_the_traffic_matrix() {
    for (what, sc) in matrix() {
        let cold = sc.run().expect("valid scenario");
        let warm = capture_warm(&sc).expect("every matrix source checkpoints");
        // Thread count is outside the warm key: the same capture serves
        // the serial fork and a region-sharded one.
        for threads in [1usize, 2] {
            let variant = sc.clone().threads(threads);
            let forked = run_warm(&variant, &warm).expect("warm fork runs");
            assert_bit_identical(&cold, &forked, &format!("{what} @ {threads} threads"));
        }
    }
}

#[test]
fn warm_forks_match_cold_runs_in_both_stepping_modes() {
    // The stepping strategy (activity-driven with event-horizon time
    // skipping, or the full sweep) evolves bit-identical state and is
    // excluded from the snapshot shape, so a per-mode checkpoint
    // forks runs whose report *and* deterministic scheduler work counter
    // match the cold run exactly.
    let engines: [(&str, Runner, WarmCapture, WarmRunner); 2] = [
        (
            "patronoc",
            run_patronoc,
            capture_patronoc_warm,
            run_patronoc_warm,
        ),
        ("packet", run_packet, capture_packet_warm, run_packet_warm),
    ];
    for (name, runner, capture, warm_run) in engines {
        for &load in &[0.001, 1.0] {
            for mode in [StepMode::active(), StepMode::full()] {
                let cold = runner(load, WINDOW, WARMUP, mode);
                let warm = capture(load, WARMUP, mode).expect("perf points checkpoint");
                let forked = warm_run(load, WINDOW, WARMUP, mode, &warm).expect("warm fork runs");
                let what = format!("{name} load {load} mode {mode:?}");
                assert_bit_identical(&cold.report, &forked.report, &what);
                assert_eq!(cold.work_items, forked.work_items, "{what}: work diverged");
            }
        }
    }
}

/// A warmed-up engine of each kind, plus its snapshot, for the safety
/// tests below.
type WarmedEngine = (&'static str, Scenario, Box<dyn Engine>, Vec<u8>);

fn warmed_engines() -> Vec<WarmedEngine> {
    [
        (
            "patronoc",
            Scenario::patronoc()
                .traffic(TrafficSpec::uniform_copies(1.0, 1_000))
                .warmup(WARMUP)
                .window(WINDOW)
                .seed(41),
        ),
        (
            "packet",
            Scenario::packet(PacketProfile::Compact)
                .traffic(TrafficSpec::uniform(1.0, 100))
                .warmup(WARMUP)
                .window(WINDOW)
                .seed(41),
        ),
    ]
    .into_iter()
    .map(|(name, sc)| {
        let mut engine = sc.build_engine().expect("valid scenario");
        let mut src = sc.build_source();
        engine.run(&mut *src, WARMUP, WARMUP);
        let bytes = engine.snapshot();
        (name, sc, engine, bytes)
    })
    .collect()
}

#[test]
fn snapshot_restore_snapshot_is_a_byte_fixpoint() {
    for (name, sc, engine, bytes) in warmed_engines() {
        let mut fresh = sc.build_engine().expect("valid scenario");
        fresh
            .restore(&bytes)
            .unwrap_or_else(|e| panic!("{name}: pristine snapshot refused: {e}"));
        assert_eq!(
            fresh.snapshot(),
            bytes,
            "{name}: restore → snapshot is not a byte fixpoint"
        );
        assert_eq!(fresh.state_digest(), engine.state_digest(), "{name}");
    }
}

#[test]
fn every_single_byte_corruption_is_rejected_and_the_engine_untouched() {
    for (name, _, mut engine, bytes) in warmed_engines() {
        let digest = engine.state_digest();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xFF;
            assert!(
                engine.restore(&bad).is_err(),
                "{name}: corrupt byte {i} restored"
            );
            assert_eq!(
                engine.state_digest(),
                digest,
                "{name}: state mutated by a refused restore (byte {i})"
            );
        }
        // Still untouched byte for byte, and still functional.
        assert_eq!(engine.snapshot(), bytes, "{name}");
    }
}

#[test]
fn truncated_snapshots_are_rejected() {
    for (name, _, mut engine, bytes) in warmed_engines() {
        for n in (0..bytes.len()).step_by(7) {
            assert!(
                engine.restore(&bytes[..n]).is_err(),
                "{name}: {n}-byte prefix restored"
            );
        }
    }
}

#[test]
fn oversized_and_cross_engine_snapshots_are_rejected_up_front() {
    let engines = warmed_engines();
    // The decode limit bounds the byte string before anything is parsed:
    // a snapshot over `max_bytes` is refused without reading its header.
    let (_, _, _, patronoc_bytes) = &engines[0];
    let tight = DecodeLimits {
        max_bytes: 64,
        ..DecodeLimits::default()
    };
    assert_eq!(
        Decoder::new(patronoc_bytes, patronoc::NocSim::SNAP_KIND, 0, tight).unwrap_err(),
        SnapError::LimitExceeded("snapshot bytes")
    );
    // A snapshot of the *other* engine is a wrong-engine error, not a
    // garbled restore.
    let (_, _, _, packet_bytes) = &engines[1];
    let mut patronoc = engines[0].1.build_engine().expect("valid scenario");
    assert_eq!(
        patronoc.restore(packet_bytes).unwrap_err(),
        SnapError::WrongEngine {
            expected: patronoc::NocSim::SNAP_KIND,
            found: packetnoc::PacketNocSim::SNAP_KIND,
        }
    );
}
