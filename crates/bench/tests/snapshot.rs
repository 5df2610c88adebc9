//! Checkpoint/restore pinning matrix: `Engine::snapshot` → `restore` →
//! run must be **bit-identical** to running straight through, for both
//! engines, every traffic class, every operating point, both stepping
//! modes and across thread counts — a snapshot is a complete capture of
//! the simulated state, and holds nothing about how that state was
//! stepped.
//!
//! The second half pins the safety contract: snapshots are self-
//! validating (`simkit::snap`), so a corrupt, truncated, oversized or
//! wrong-engine byte string is rejected **before any engine state is
//! constructed**, leaving the running engine untouched byte for byte.

use scenario::{Engine, PacketProfile, Scenario, TrafficSpec};
use simkit::snap::{DecodeLimits, Decoder, SnapError};
use simkit::{SimReport, StopReason};
use traffic::{DnnWorkload, SyntheticPattern};

const WINDOW: u64 = 4_000;
const WARMUP: u64 = 1_500;

/// Idle / mid / saturated operating points.
const LOADS: [f64; 3] = [0.001, 0.3, 1.0];

fn assert_bit_identical(straight: &SimReport, resumed: &SimReport, what: &str) {
    assert_eq!(straight, resumed, "{what}: report diverged");
    assert_eq!(
        straight.state_digest, resumed.state_digest,
        "{what}: state digest diverged"
    );
    assert_eq!(
        straight.throughput_gib_s.to_bits(),
        resumed.throughput_gib_s.to_bits(),
        "{what}: throughput bits diverged"
    );
    assert_eq!(
        straight.mean_latency.to_bits(),
        resumed.mean_latency.to_bits(),
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

/// Runs `sc`'s warm-up on a freshly built pair and checkpoints the engine
/// and the source at its boundary.
fn checkpoint(sc: &Scenario, what: &str) -> (Vec<u8>, Vec<u8>) {
    let mut engine = sc.build_engine().expect("valid scenario");
    let mut source = sc.build_source();
    let warm = engine.run(&mut *source, sc.warmup, sc.warmup);
    assert_eq!(
        warm.stop_reason,
        StopReason::Budget,
        "{what}: warm-up drained"
    );
    let source_bytes = source.snapshot_state().expect("the source checkpoints");
    (engine.snapshot(), source_bytes)
}

/// Restores an engine and a source checkpoint, both taken at `sc`'s
/// warm-up boundary, into a freshly built pair and runs the rest of the
/// scenario, normalizing the stop reason as [`Scenario::run`] does.
fn resume(sc: &Scenario, engine_bytes: &[u8], source_bytes: &[u8]) -> SimReport {
    let mut engine = sc.build_engine().expect("valid scenario");
    engine
        .restore(engine_bytes)
        .expect("engine checkpoint restores");
    let mut source = sc.build_source();
    assert!(
        source.restore_state(source_bytes),
        "source checkpoint restores"
    );
    let end = sc.budget.unwrap_or(sc.warmup + sc.window);
    // The engine sits at the warm-up boundary, so its meter arms right
    // away: at the same absolute cycle as the straight run's.
    let mut report = engine.run(&mut *source, end - sc.warmup, 0);
    if sc.budget.is_none() && report.stop_reason == StopReason::Budget {
        report.stop_reason = StopReason::WindowComplete;
    }
    report
}

#[test]
fn checkpoints_continue_bit_identically_across_the_traffic_matrix() {
    for (what, sc) in matrix() {
        let straight = sc.run().expect("valid scenario");
        let (engine_bytes, source_bytes) = checkpoint(&sc, &what);
        // The stepping knobs are outside the snapshot, so one checkpoint
        // resumes under every stepping mode and thread count.
        for full_sweep in [false, true] {
            for threads in [1usize, 2] {
                let variant = sc.clone().full_sweep(full_sweep).threads(threads);
                let resumed = resume(&variant, &engine_bytes, &source_bytes);
                let how = if full_sweep { "full sweep" } else { "active" };
                assert_bit_identical(
                    &straight,
                    &resumed,
                    &format!("{what}, {how} @ {threads} threads"),
                );
            }
        }
    }
}

#[test]
fn one_checkpoint_serves_many_windows_and_thread_counts() {
    // The window, the budget and the thread count decide only when and
    // how the run goes on past the warm-up, so one checkpoint resumes
    // each variant to its own straight run.
    let sc = Scenario::patronoc()
        .traffic(TrafficSpec::uniform_copies(0.6, 500))
        .warmup(1_000)
        .window(2_000)
        .seed(17);
    let (engine_bytes, source_bytes) = checkpoint(&sc, "patronoc uniform");
    let variants = [
        sc.clone().window(500),
        sc.clone().threads(2),
        sc.clone().window(6_000).threads(4),
        sc.clone().budget(2_500),
    ];
    for variant in variants {
        let what = format!(
            "window {} budget {:?} @ {} threads",
            variant.window, variant.budget, variant.threads
        );
        let straight = variant.run().expect("valid scenario");
        let resumed = resume(&variant, &engine_bytes, &source_bytes);
        assert_bit_identical(&straight, &resumed, &what);
    }
}

#[test]
fn a_snapshot_does_not_depend_on_how_the_state_was_stepped() {
    // Active, full-sweep and region-sharded stepping evolve the same
    // simulated state, and a snapshot holds only that state: the three
    // byte strings taken at the same cycle are identical.
    for (name, base) in [
        ("patronoc", Scenario::patronoc()),
        ("packet", Scenario::packet(PacketProfile::Compact)),
    ] {
        for load in [0.3, 1.0] {
            let sc = base
                .clone()
                .traffic(TrafficSpec::uniform(load, 1_000))
                .seed(43);
            let snapshot_after = |variant: Scenario| {
                let mut engine = variant.build_engine().expect("valid scenario");
                let mut source = variant.build_source();
                engine.run(&mut *source, WARMUP + WINDOW, WARMUP);
                engine.snapshot()
            };
            let active = snapshot_after(sc.clone());
            let what = format!("{name} load {load}");
            assert_eq!(
                active,
                snapshot_after(sc.clone().full_sweep(true)),
                "{what}: active vs full"
            );
            assert_eq!(
                active,
                snapshot_after(sc.clone().threads(2)),
                "{what}: serial vs 2 threads"
            );
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
