//! The [`Engine`] trait and its one cycle loop (`traffic::drive`), driven
//! through `Box<dyn Engine>` on both engines: the stop rules, the horizon
//! jump at the end of a window, the source asked for its next arrival only
//! when the engine has nothing due, the full sweep's loop that never jumps,
//! repeated runs, manual stepping, and the thread count a report names.

use std::cell::Cell;

use packetnoc::{PacketNocConfig, PacketNocSim};
use patronoc::{NocConfig, NocSim, Topology};
use scenario::Engine;
use simkit::{Cycle, Horizon, StopReason};
use traffic::{TrafficSource, Transfer, TransferKind};

/// One write per master, then nothing. A closed workload (`done` once
/// every write completed) or an open-loop one that never finishes but
/// promises no further arrival (`Horizon::Never`), so a drained engine
/// may skip to the end of its budget. Counts how often the loop asks for
/// the next arrival.
struct OneEach {
    issued: Vec<bool>,
    completed: usize,
    closed: bool,
    asked: Cell<u64>,
}

impl OneEach {
    fn closed(n: usize) -> Self {
        Self {
            issued: vec![false; n],
            completed: 0,
            closed: true,
            asked: Cell::new(0),
        }
    }

    fn open(n: usize) -> Self {
        Self {
            closed: false,
            ..Self::closed(n)
        }
    }
}

impl TrafficSource for OneEach {
    fn poll(&mut self, master: usize, _now: Cycle) -> Option<Transfer> {
        if self.issued[master] {
            return None;
        }
        self.issued[master] = true;
        Some(Transfer {
            id: master as u64,
            dst: (master + 1) % self.issued.len(),
            offset: 0,
            bytes: 256,
            kind: TransferKind::Write,
        })
    }

    fn on_complete(&mut self, _m: usize, _id: u64, _now: Cycle) {
        self.completed += 1;
    }

    fn is_done(&self) -> bool {
        self.closed && self.completed == self.issued.len()
    }

    fn next_arrival(&self, now: Cycle) -> Horizon {
        self.asked.set(self.asked.get() + 1);
        if self.issued.iter().all(|&i| i) {
            Horizon::Never
        } else {
            Horizon::At(now)
        }
    }
}

/// A source that always has another write ready, so the engine it feeds
/// never drains. Counts how often the loop asks for the next arrival.
#[derive(Default)]
struct Flood {
    issued: u64,
    asked: Cell<u64>,
}

impl TrafficSource for Flood {
    fn poll(&mut self, master: usize, _now: Cycle) -> Option<Transfer> {
        self.issued += 1;
        Some(Transfer {
            id: self.issued,
            dst: (master + 1) % 16,
            offset: 0,
            bytes: 256,
            kind: TransferKind::Write,
        })
    }

    fn next_arrival(&self, now: Cycle) -> Horizon {
        self.asked.set(self.asked.get() + 1);
        Horizon::At(now)
    }
}

/// A fresh 4×4 engine of each kind.
fn engines() -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(NocSim::new(NocConfig::slim_4x4()).unwrap()),
        Box::new(PacketNocSim::new(PacketNocConfig::noxim_compact())),
    ]
}

/// The same two engines on the full-sweep reference path.
fn full_sweep_engines() -> Vec<Box<dyn Engine>> {
    let mut mesh = NocConfig::slim_4x4();
    mesh.full_sweep = true;
    vec![
        Box::new(NocSim::new(mesh).unwrap()),
        Box::new(PacketNocSim::new(PacketNocConfig {
            full_sweep: true,
            ..PacketNocConfig::noxim_compact()
        })),
    ]
}

#[test]
fn both_engines_run_behind_the_trait() {
    for mut engine in engines() {
        let mut src = OneEach::closed(16);
        let report = engine.run(&mut src, 1_000_000, 0);
        assert_eq!(report.transfers_completed, 16);
        assert_eq!(report.payload_bytes, 16 * 256);
        assert!(report.is_drained());
        assert!(engine.is_drained());
        assert_eq!(engine.now(), report.cycles);
    }
}

#[test]
fn a_skipped_last_gap_stops_exactly_at_the_budget() {
    for mut engine in engines() {
        let mut src = OneEach::open(16);
        let report = engine.run(&mut src, 50_000, 1_000);
        assert_eq!(report.stop_reason, StopReason::Budget);
        assert_eq!(report.cycles, 50_000);
        assert_eq!(engine.now(), 50_000);
        assert_eq!(report.transfers_completed, 16);
        // The writes drain within a few thousand cycles; everything after
        // is one jump that lands on the deadline.
        assert!(
            report.cycles_skipped > 40_000,
            "skipped only {} cycles",
            report.cycles_skipped
        );
    }
}

#[test]
fn a_full_sweep_run_never_asks_the_source_for_its_next_arrival() {
    for mut engine in full_sweep_engines() {
        let mut src = OneEach::open(16);
        let report = engine.run(&mut src, 5_000, 0);
        assert_eq!(report.transfers_completed, 16);
        assert_eq!(report.cycles_skipped, 0);
        assert_eq!(src.asked.get(), 0);
    }
    // The activity-driven loop does ask: that is how it finds its jumps.
    for mut engine in engines() {
        let mut src = OneEach::open(16);
        engine.run(&mut src, 5_000, 0);
        assert!(src.asked.get() > 0);
    }
}

#[test]
fn an_engine_that_never_drains_never_asks_the_source_for_its_next_arrival() {
    // With work in flight the engine's own horizon is `now`, so no source
    // answer could open a gap to jump.
    for mut engine in engines() {
        let mut src = Flood::default();
        let report = engine.run(&mut src, 5_000, 0);
        assert!(report.transfers_completed > 0);
        assert!(!engine.is_drained());
        assert_eq!(report.cycles_skipped, 0);
        assert_eq!(src.asked.get(), 0);
    }
}

#[test]
fn an_idle_stall_on_a_drained_engine_is_not_a_deadlock() {
    // The full sweep steps every idle cycle: once the writes drain, far
    // more than the watchdog's 100 000 cycles pass without progress.
    for mut engine in full_sweep_engines() {
        let report = engine.run(&mut OneEach::open(16), 150_000, 0);
        assert_eq!(report.stop_reason, StopReason::Budget);
        assert_eq!(report.cycles, 150_000);
        assert_eq!(report.transfers_completed, 16);
    }
}

#[test]
fn a_second_run_continues_from_now_and_resets_the_stop_reason() {
    for mut engine in engines() {
        let first = engine.run(&mut OneEach::closed(16), 1_000_000, 0);
        assert_eq!(first.stop_reason, StopReason::Drained);
        let second = engine.run(&mut OneEach::open(16), 10_000, 0);
        assert_eq!(second.stop_reason, StopReason::Budget);
        assert_eq!(second.cycles, first.cycles + 10_000);
        assert_eq!(second.transfers_completed, 32);
    }
}

#[test]
fn stepping_manually_matches_snapshot() {
    for mut engine in engines() {
        let mut src = OneEach::closed(16);
        engine.begin_measurement(0);
        while !(src.is_done() && engine.is_drained()) {
            engine.step(&mut src);
            assert!(engine.now() < 1_000_000, "runaway");
        }
        let report = engine.snapshot_report();
        assert_eq!(report.payload_bytes, 16 * 256);
        // No timed run loop: no wall-clock rate to report.
        assert_eq!(report.cycles_per_sec, 0.0);
    }
}

#[test]
fn reports_name_the_threads_that_ran() {
    // Four rows cap a 4×4 PATRONoC at four row bands.
    let mut mesh_cfg = NocConfig::slim_4x4();
    mesh_cfg.threads = 8;
    let mut mesh: Box<dyn Engine> = Box::new(NocSim::new(mesh_cfg).unwrap());
    assert_eq!(mesh.run(&mut OneEach::closed(16), 10, 0).threads, 4);
    // A one-row mesh never shards, whatever was asked for.
    let mut row_cfg = NocConfig::new(axi::AxiParams::slim(), Topology { cols: 8, rows: 1 });
    row_cfg.threads = 4;
    let mut row: Box<dyn Engine> = Box::new(NocSim::new(row_cfg).unwrap());
    assert_eq!(row.run(&mut OneEach::closed(8), 10, 0).threads, 1);
    // The packet baseline partitions its rows the same way.
    let mut packet: Box<dyn Engine> = Box::new(PacketNocSim::new(PacketNocConfig {
        threads: 8,
        ..PacketNocConfig::noxim_compact()
    }));
    assert_eq!(packet.run(&mut OneEach::closed(16), 10, 0).threads, 4);
}
