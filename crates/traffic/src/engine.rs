//! The [`Engine`] trait over both NoC simulators, and [`drive`], the one
//! cycle loop behind every engine's [`Engine::run`].
//!
//! The paper's argument is a head-to-head comparison under identical
//! workloads, so everything above the engines — scenario runners, sweep
//! grids, the future trace-replay service — is generic over *which*
//! engine simulates. The comparison is fair only if both engines stop,
//! skip idle time and detect deadlock by the same rules, so those rules
//! live here, once: `patronoc::NocSim` and `packetnoc::PacketNocSim`
//! implement [`Engine`] and hand their own cycle function to [`drive`].
//! The trait sits beside [`TrafficSource`] because `traffic` is the one
//! crate both engines and the scenario layer depend on.

use crate::TrafficSource;
use simkit::snap::SnapError;
use simkit::{Cycle, Horizon, ProgressWatchdog, SimReport, StopReason};

/// A cycle-accurate NoC simulation engine.
///
/// Object-safe so scenarios and services can hold a `Box<dyn Engine>`
/// chosen at run time. The contract:
///
/// * [`step`](Self::step) advances exactly one cycle, pulling stimulus
///   from the source and reporting completions back to it;
/// * [`run`](Self::run) arms the meter and loops the engine's cycle
///   through [`drive`] until the budget elapses or the source finishes
///   *and* the engine drains, and returns the snapshot report;
/// * [`begin_measurement`](Self::begin_measurement) re-arms the
///   throughput meter for callers driving `step` directly.
///
/// The last four methods are the hooks [`drive`] needs; callers normally
/// use `run` instead.
pub trait Engine {
    /// Advance one cycle, pulling stimulus from `source`.
    fn step(&mut self, source: &mut dyn TrafficSource);

    /// Current simulation time.
    fn now(&self) -> Cycle;

    /// Whether every endpoint, link and in-flight unit is idle.
    fn is_drained(&self) -> bool;

    /// Arm the throughput meter to start measuring at absolute cycle
    /// `start`.
    fn begin_measurement(&mut self, start: Cycle);

    /// Snapshot of the metrics at the current cycle.
    fn snapshot_report(&self) -> SimReport;

    /// Serializes the engine's complete deterministic state as a
    /// self-validating byte string: restore → run is bit-identical to
    /// running straight through.
    fn snapshot(&self) -> Vec<u8>;

    /// Restores a snapshot taken from an engine built with an equivalent
    /// configuration (thread count and stepping mode may differ), all or
    /// nothing: on error the current state is untouched.
    ///
    /// # Errors
    ///
    /// A [`SnapError`] naming the violated container or engine invariant.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError>;

    /// FNV-1a 64 digest of the canonical comparable state — what
    /// [`SimReport::state_digest`] reports.
    fn state_digest(&self) -> u64;

    /// Run for at most `max_cycles`, measuring after `warmup`, stopping
    /// early when the source is done and the engine drained.
    ///
    /// # Panics
    ///
    /// Panics when the engine makes no forward progress for 100 000
    /// cycles while work is pending (see [`drive`]).
    fn run(
        &mut self,
        source: &mut dyn TrafficSource,
        max_cycles: Cycle,
        warmup: Cycle,
    ) -> SimReport;

    /// The engine's half of the event-horizon contract
    /// (`simkit::horizon`): [`Horizon::Never`] when the engine is a fixed
    /// point until a source injects, else `At(now)`.
    fn horizon(&self) -> Horizon;

    /// Monotonic counters whose change means forward progress, for the
    /// deadlock watchdog.
    fn progress_marker(&self) -> (u64, u64);

    /// Jumps `now` to `target` across a provably idle gap, counting the
    /// gap in [`SimReport::cycles_skipped`]. Only valid while
    /// [`horizon`](Self::horizon) is `Never`.
    fn skip_to(&mut self, target: Cycle);

    /// Records how a [`drive`] call ended: why it stopped, and the
    /// simulated cycles and wall-clock seconds it took (the
    /// [`SimReport::cycles_per_sec`] telemetry).
    fn end_run(&mut self, stop: StopReason, cycles: Cycle, wall_secs: f64);
}

/// The cycle loop: runs `step` until `max_cycles` elapse or `source` is
/// done and `engine` drained, and returns the engine's report.
///
/// After each cycle, in this order:
///
/// 1. the [`ProgressWatchdog`] observes the progress marker; a stall on a
///    drained engine (idle between sparse arrivals) is excused and the
///    iteration ends there, any other stall panics;
/// 2. a done source on a drained engine stops the run with
///    [`StopReason::Drained`];
/// 3. when `skip` is set and budget remains, event-horizon time skipping
///    asks the engine for its horizon and, only if that lies beyond `now`,
///    folds in the source's ([`TrafficSource::next_arrival`]); if both lie
///    beyond `now`, it jumps to the earlier one (clamped to the deadline),
///    and the watchdog does not count the skipped span as a stall. A busy
///    engine (horizon `now`) therefore never asks the source: the fold
///    could not lie beyond `now`, and the lookahead is a pure `&self`
///    call, so leaving it out changes nothing. The full-sweep reference
///    passes `skip = false`: it steps every cycle and never asks either.
///
/// # Panics
///
/// Panics with `deadlock: no progress since cycle …` when the engine
/// makes no forward progress for 100 000 cycles while work is pending.
pub fn drive<E: Engine>(
    engine: &mut E,
    source: &mut dyn TrafficSource,
    max_cycles: Cycle,
    skip: bool,
    mut step: impl FnMut(&mut E, &mut dyn TrafficSource),
) -> SimReport {
    let first_cycle = engine.now();
    let deadline = first_cycle + max_cycles;
    let mut watchdog = ProgressWatchdog::new(first_cycle, engine.progress_marker());
    let mut stop = StopReason::Budget;
    let wall_start = std::time::Instant::now();
    while engine.now() < deadline {
        step(engine, source);
        let now = engine.now();
        if let Some(since) = watchdog.observe(now, engine.progress_marker()) {
            if engine.is_drained() {
                watchdog.excuse(now);
                continue;
            }
            panic!(
                "deadlock: no progress since cycle {since} (now {now}), {} transfers done",
                engine.snapshot_report().transfers_completed
            );
        }
        if source.is_done() && engine.is_drained() {
            stop = StopReason::Drained;
            break;
        }
        if skip && now < deadline {
            let engine_horizon = engine.horizon();
            if engine_horizon.is_after(now) {
                // Both horizons beyond `now` (and budget left) put the
                // target strictly after `now`.
                let horizon = engine_horizon.min(source.next_arrival(now));
                if horizon.is_after(now) {
                    let target = horizon.target(deadline);
                    engine.skip_to(target);
                    watchdog.excuse(target);
                }
            }
        }
    }
    let wall_secs = wall_start.elapsed().as_secs_f64();
    engine.end_run(stop, engine.now() - first_cycle, wall_secs);
    engine.snapshot_report()
}
