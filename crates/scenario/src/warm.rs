//! Warm-start forking: simulate a warm-up once, snapshot, fork many runs.
//!
//! Sweep grids re-simulate the same warm-up over and over: every
//! repetition, thread count and measurement window of one workload point
//! first burns `warmup` cycles reaching steady state before measuring.
//! Engine and traffic-source checkpoints (see `simkit::snap`,
//! [`Engine::snapshot`](crate::Engine::snapshot) and
//! `TrafficSource::snapshot_state`) make that
//! redundancy removable: [`capture_warm`] runs the warm-up once and
//! checkpoints engine *and* source; [`run_warm`] forks any number of
//! measurement runs from the restored state. Because restore → run is
//! bit-identical to running straight through (pinned by both engines'
//! snapshot tests and `crates/bench/tests/snapshot.rs`), a forked report
//! **equals** its cold counterpart — warm-starting is a wall-clock
//! optimization with no observable effect, like `--jobs` or `--threads`.
//!
//! Grouping is by [`warm_key`]: two scenarios with the same key evolve
//! bit-identical state through their warm-up, so one capture serves all of
//! them. Every function here degrades gracefully — any reason a warm start
//! cannot be exact (no warm-up, a source that drained mid-warm-up, a
//! source that cannot checkpoint) yields `None` and the caller falls back
//! to a cold run.

use crate::scenario::Scenario;
use simkit::{SimReport, StopReason};

/// A captured warm-up: engine and source checkpoints taken after
/// simulating `warmup` cycles, from which measurement runs fork.
#[derive(Debug, Clone)]
pub struct WarmPoint {
    /// Warm-up cycles the capture simulated (what each fork skips).
    warmup: u64,
    engine_bytes: Vec<u8>,
    source_bytes: Vec<u8>,
}

impl WarmPoint {
    /// Warm-up cycles the capture simulated — the cycles each fork saves.
    #[must_use]
    pub fn warmup(&self) -> u64 {
        self.warmup
    }

    /// Checkpoint size in bytes (engine + source), for telemetry.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.engine_bytes.len() + self.source_bytes.len()
    }
}

/// The warm-up equivalence key of a scenario: the serialized scenario with
/// the knobs that cannot affect the first `warmup` cycles normalized away —
/// the measurement window, the run-to-drain budget (both only decide when
/// to *stop*, and any stop before `warmup + window` is detected at capture
/// time) and the thread count (region-sharded execution is bit-identical
/// at every value). Scenarios with equal keys share one [`WarmPoint`].
#[must_use]
pub fn warm_key(s: &Scenario) -> String {
    let mut normalized = s.clone();
    normalized.window = 0;
    normalized.budget = None;
    normalized.threads = 1;
    normalized.to_json().to_json()
}

/// Runs the scenario's warm-up once (serially — snapshots are portable
/// across thread counts) and checkpoints engine and source at the warm-up
/// boundary. `None` when warm-starting cannot be exact: no warm-up
/// configured, the scenario does not build, the source drained before the
/// warm-up completed (the fork could not reproduce the early stop), or
/// the source does not support checkpointing.
#[must_use]
pub fn capture_warm(s: &Scenario) -> Option<WarmPoint> {
    if s.warmup == 0 {
        return None;
    }
    let mut serial = s.clone();
    serial.threads = 1;
    let mut engine = serial.build_engine().ok()?;
    let mut source = serial.build_source();
    let report = engine.run(&mut *source, s.warmup, s.warmup);
    if report.stop_reason != StopReason::Budget {
        return None;
    }
    let source_bytes = source.snapshot_state()?;
    Some(WarmPoint {
        warmup: s.warmup,
        engine_bytes: engine.snapshot(),
        source_bytes,
    })
}

/// Forks one measurement run from a captured warm-up: builds the
/// scenario's engine (honoring its thread count) and source, restores
/// both checkpoints and runs the remaining cycles. The report is
/// bit-identical to the scenario's cold [`Scenario::run`].
///
/// The caller must pass a `warm` captured from a scenario with the same
/// [`warm_key`]; mismatched checkpoints are rejected by the engines'
/// shape validation. `None` falls back to a cold run: the scenario has a
/// different warm-up length, no stop condition, a budget not beyond the
/// warm-up, or a checkpoint that fails to restore.
#[must_use]
pub fn run_warm(s: &Scenario, warm: &WarmPoint) -> Option<SimReport> {
    if s.warmup != warm.warmup {
        return None;
    }
    let (max_cycles, windowed) = match s.budget {
        Some(budget) => (budget, false),
        None if s.window == 0 => return None,
        None => (s.warmup + s.window, true),
    };
    let remaining = max_cycles.checked_sub(warm.warmup).filter(|&r| r > 0)?;
    let mut engine = s.build_engine().ok()?;
    engine.restore(&warm.engine_bytes).ok()?;
    let mut source = s.build_source();
    if !source.restore_state(&warm.source_bytes) {
        return None;
    }
    // The engine already sits at the warm-up boundary, so the fork
    // measures from its current cycle — exactly where the cold run's
    // meter arms.
    let mut report = engine.run(&mut *source, remaining, 0);
    if windowed && report.stop_reason == StopReason::Budget {
        report.stop_reason = StopReason::WindowComplete;
    }
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PacketProfile, TrafficSpec};

    fn windowed(engine_is_packet: bool) -> Scenario {
        let base = if engine_is_packet {
            Scenario::packet(PacketProfile::HighPerformance).traffic(TrafficSpec::uniform(0.6, 500))
        } else {
            Scenario::patronoc().traffic(TrafficSpec::uniform_copies(0.6, 500))
        };
        base.warmup(1_000).window(2_000).seed(17)
    }

    #[test]
    fn warm_fork_matches_cold_run_on_both_engines() {
        for packet in [false, true] {
            let s = windowed(packet);
            let cold = s.run().unwrap();
            let warm = capture_warm(&s).expect("uniform sources checkpoint");
            let forked = run_warm(&s, &warm).expect("fork runs");
            assert_eq!(cold, forked, "packet={packet}");
            assert_eq!(cold.state_digest, forked.state_digest);
        }
    }

    #[test]
    fn one_capture_serves_many_windows_and_thread_counts() {
        let s = windowed(false);
        let warm = capture_warm(&s).unwrap();
        for (window, threads) in [(500, 1), (2_000, 2), (2_000, 4)] {
            let variant = s.clone().window(window).threads(threads);
            assert_eq!(warm_key(&variant), warm_key(&s));
            let cold = variant.run().unwrap();
            let forked = run_warm(&variant, &warm).expect("fork runs");
            assert_eq!(cold, forked, "window={window} threads={threads}");
        }
    }

    #[test]
    fn warm_fork_matches_cold_run_on_a_budgeted_trace() {
        let s = Scenario::patronoc()
            .data_width(512)
            .traffic(TrafficSpec::dnn(traffic::DnnWorkload::PipelinedConv, 1))
            .warmup(1_000)
            .budget(50_000_000)
            .seed(1);
        let cold = s.run().unwrap();
        assert_eq!(cold.stop_reason, StopReason::Drained);
        let warm = capture_warm(&s).expect("traces checkpoint");
        let forked = run_warm(&s, &warm).expect("fork runs");
        assert_eq!(cold, forked);
    }

    #[test]
    fn warm_key_ignores_stop_and_threading_knobs_only() {
        let s = windowed(false);
        assert_eq!(warm_key(&s), warm_key(&s.clone().window(9_999)));
        assert_eq!(warm_key(&s), warm_key(&s.clone().threads(8)));
        assert_eq!(warm_key(&s), warm_key(&s.clone().budget(123_456)));
        assert_ne!(warm_key(&s), warm_key(&s.clone().seed(18)));
        assert_ne!(warm_key(&s), warm_key(&s.clone().warmup(2_000)));
        assert_ne!(
            warm_key(&s),
            warm_key(&s.clone().traffic(TrafficSpec::uniform_copies(0.7, 500)))
        );
    }

    #[test]
    fn degenerate_warm_starts_fall_back_to_cold() {
        // No warm-up: nothing to save.
        assert!(capture_warm(&windowed(false).warmup(0)).is_none());
        // A trace that drains during the warm-up cannot fork exactly.
        let tiny = Scenario::patronoc()
            .data_width(512)
            .traffic(TrafficSpec::dnn(traffic::DnnWorkload::PipelinedConv, 1))
            .warmup(50_000_000)
            .budget(60_000_000)
            .seed(1);
        assert!(capture_warm(&tiny).is_none());
        // A budget at or below the warm-up leaves no cycles to fork.
        let s = windowed(false);
        let warm = capture_warm(&s).unwrap();
        assert!(run_warm(&s.clone().window(0).budget(1_000), &warm).is_none());
        // Mismatched warm-up lengths are refused before any restore.
        assert!(run_warm(&s.clone().warmup(500), &warm).is_none());
    }
}
