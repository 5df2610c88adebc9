//! The unified simulation report shared by every NoC engine.
//!
//! Both the AXI-native engine (`patronoc::NocSim`) and the packet-switched
//! baseline (`packetnoc::PacketNocSim`) summarize a run with the same
//! [`SimReport`], so the comparison layers (the `scenario` crate and the
//! `bench` harness) never juggle near-duplicate report structs. Engines
//! differ only in what a "transfer" and a latency sample mean — the field
//! docs spell out both readings.

use crate::Cycle;

/// Why a simulation run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StopReason {
    /// The cycle budget elapsed while the traffic source still had work in
    /// flight. For finite-trace runs this means the trace **did not
    /// finish** — the scenario layer surfaces it instead of panicking.
    Budget,
    /// The traffic source finished and the NoC drained completely.
    Drained,
    /// The warm-up plus measurement window completed (open-loop runs,
    /// where the source never finishes by design). Set by the scenario
    /// layer; engines themselves report [`StopReason::Budget`] when their
    /// cycle budget elapses.
    WindowComplete,
}

/// Result of a simulation run, identical in shape for every engine.
///
/// `PartialEq` compares floats exactly (bit-for-bit modulo `-0.0`), which
/// is the contract the `--jobs` determinism tests assert — except for
/// [`cycles_per_sec`](Self::cycles_per_sec) (wall-clock telemetry,
/// machine- and load-dependent by nature) and the slab-allocation
/// telemetry ([`slab_high_water`](Self::slab_high_water),
/// [`allocs_per_kilocycle`](Self::allocs_per_kilocycle)), which describe
/// the *simulator*, not the simulated NoC, and are deliberately excluded
/// from equality.
///
/// Engine snapshots carry no simulator telemetry, so every telemetry
/// field restarts when an engine is restored from one: the wall-clock
/// rate and [`cycles_skipped`](Self::cycles_skipped) count from zero,
/// and the slab figures from the restore's re-allocation of the live
/// records.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Payload bytes delivered inside the measurement window (W bytes
    /// accepted at slaves + R bytes delivered to masters).
    pub payload_bytes: u64,
    /// Aggregate throughput in GiB/s at the 1 GHz evaluation clock.
    pub throughput_gib_s: f64,
    /// Aggregate throughput in bytes/s.
    pub throughput_bytes_s: f64,
    /// Transfers completed across all masters (all time, warm-up
    /// included). Both engines count whole traffic-level transfers,
    /// however many bursts or packets each one took on the wire.
    pub transfers_completed: u64,
    /// Mean latency in cycles. The AXI engine samples whole transfers
    /// (descriptor start → last response); the packet baseline samples
    /// packets (injection → tail delivery), its native unit.
    pub mean_latency: f64,
    /// 99th-percentile latency (log-2 bucket upper bound), same sampling
    /// unit as [`mean_latency`](Self::mean_latency).
    pub p99_latency: u64,
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// FNV-1a digest of the engine's complete deterministic state at the
    /// moment the report was taken (canonical snapshot encoding minus the
    /// meter and the stop reason — see `simkit::snap`). Cheap
    /// cross-mode divergence telemetry: serial vs region-sharded, active
    /// vs full-sweep, and straight vs snapshot-restored runs must agree
    /// on it, so unlike the wall-clock fields it **is** part of
    /// `PartialEq`. A mismatch localizes divergence to the checkpoint
    /// instead of whichever aggregate statistic happens to differ.
    pub state_digest: u64,
    /// Simulated cycles per wall-clock second, averaged over every
    /// [`run`](crate) loop this engine executed since it was built or
    /// restored — the simulator's
    /// own speed, not a property of the simulated NoC. `0.0` when the
    /// engine was only stepped manually (no timed `run` loop). Excluded
    /// from `PartialEq`: wall clock is not deterministic.
    pub cycles_per_sec: f64,
    /// High-water mark of the engine's in-flight-transaction slab arenas
    /// (most records ever live at once, summed over the engine's arenas —
    /// see [`slab`](crate::slab)). Simulator telemetry like
    /// [`cycles_per_sec`](Self::cycles_per_sec), so it is likewise
    /// excluded from the `PartialEq` determinism contract.
    pub slab_high_water: u64,
    /// Slab allocations per thousand simulated cycles — the allocator-
    /// pressure figure the arena refactor drives towards "one alloc per
    /// transaction, zero per cycle". Telemetry; excluded from `PartialEq`.
    pub allocs_per_kilocycle: f64,
    /// Cycles the engine crossed by event-horizon time skipping instead of
    /// stepping (see `simkit::horizon`): the run loop jumped `now` across
    /// gaps in which provably nothing observable happens. The skipped
    /// cycles are still simulated time — they count in
    /// [`cycles`](Self::cycles) and in the wall-clock rate behind
    /// [`cycles_per_sec`](Self::cycles_per_sec) — but cost no stepping
    /// work. Telemetry about *how* the result was computed (a skipping
    /// run equals its cycle-by-cycle reference bit for bit), so like
    /// [`cycles_per_sec`](Self::cycles_per_sec) it is excluded from
    /// `PartialEq`.
    pub cycles_skipped: u64,
    /// Worker threads the engine simulated this run with (region-sharded
    /// execution; 1 = the serial cycle loop). Describes *how* the result
    /// was computed, not the simulated NoC — the whole point of the
    /// sharded engine is that every thread count produces the same report
    /// — so like [`cycles_per_sec`](Self::cycles_per_sec) it is excluded
    /// from `PartialEq`.
    pub threads: usize,
}

impl PartialEq for SimReport {
    fn eq(&self, other: &Self) -> bool {
        self.cycles == other.cycles
            && self.payload_bytes == other.payload_bytes
            && self.throughput_gib_s == other.throughput_gib_s
            && self.throughput_bytes_s == other.throughput_bytes_s
            && self.transfers_completed == other.transfers_completed
            && self.mean_latency == other.mean_latency
            && self.p99_latency == other.p99_latency
            && self.stop_reason == other.stop_reason
            && self.state_digest == other.state_digest
    }
}

impl SimReport {
    /// Whether the run drained every in-flight transfer (trace runs: the
    /// whole trace completed within the budget).
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.stop_reason == StopReason::Drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            cycles: 1,
            payload_bytes: 2,
            throughput_gib_s: 0.5,
            throughput_bytes_s: 5.0e8,
            transfers_completed: 3,
            mean_latency: 4.0,
            p99_latency: 8,
            stop_reason: StopReason::Drained,
            state_digest: 0xD1_6E57,
            cycles_per_sec: 1.0e6,
            slab_high_water: 7,
            allocs_per_kilocycle: 0.25,
            cycles_skipped: 0,
            threads: 1,
        }
    }

    #[test]
    fn drained_is_the_only_drained_reason() {
        let mut r = report();
        assert!(r.is_drained());
        for reason in [StopReason::Budget, StopReason::WindowComplete] {
            r.stop_reason = reason;
            assert!(!r.is_drained());
        }
    }

    #[test]
    fn equality_ignores_simulator_telemetry() {
        let r = report();
        let mut faster = r.clone();
        faster.cycles_per_sec = 9.0e6;
        faster.slab_high_water = 99;
        faster.allocs_per_kilocycle = 42.0;
        faster.cycles_skipped = 11_000;
        faster.threads = 8;
        assert_eq!(r, faster, "telemetry must not break determinism");
        let mut different = r.clone();
        different.payload_bytes = 99;
        assert_ne!(r, different);
    }

    #[test]
    fn equality_includes_the_state_digest() {
        let r = report();
        let mut diverged = r.clone();
        diverged.state_digest ^= 1;
        assert_ne!(r, diverged, "state divergence must break equality");
    }
}
