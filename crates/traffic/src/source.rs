//! The traffic-source interface consumed by the NoC simulators.
//!
//! A [`TrafficSource`] plays the role of the paper's testbench stimulus: it
//! hands DMA *transfer descriptors* to each master endpoint and is notified
//! when they complete, which lets dependency-driven workloads (the DNN
//! traces of Fig. 7) release downstream transfers.

use simkit::{Cycle, Horizon};

/// Whether a transfer reads from, writes to, or copies between remote
/// endpoints.
///
/// Reads and writes exercise independent AXI channels (AR/R vs AW/W/B), so
/// a mixed workload can move up to two data beats per cycle per link. A
/// [`Copy`](Self::Copy) is a memory-to-memory DMA transfer ("a random burst
/// length with a random source and destination address", paper §IV): the
/// engine streams read data from `src` and writes it to the transfer's
/// destination, so the payload crosses the NoC twice but is *counted once*
/// (at the destination), matching the paper's Fig. 4 accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Remote → local: AR request, R data response.
    Read,
    /// Local → remote: AW request, W data, B response.
    Write,
    /// Remote → remote streaming copy.
    Copy {
        /// Source endpoint index.
        src: usize,
        /// Byte offset within the source's address region.
        src_offset: u64,
    },
}

/// One DMA transfer descriptor: "move `bytes` between this master and the
/// memory at endpoint `dst`, starting `offset` bytes into its region".
///
/// The DMA engine splits the transfer into AXI-compliant bursts
/// ([`axi::split::split_transfer`]); the *transfer length itself* is the
/// "DMA burst length" the paper sweeps (e.g. "Burst size < 64000").
///
/// [`axi::split::split_transfer`]: https://docs.rs/axi
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Generator-assigned identifier, echoed in the completion callback.
    pub id: u64,
    /// Destination endpoint (slave) index.
    pub dst: usize,
    /// Byte offset within the destination's address region.
    pub offset: u64,
    /// Transfer length in bytes (must be > 0).
    pub bytes: u64,
    /// Read or write.
    pub kind: TransferKind,
}

/// A pull-based stimulus for the NoC simulators.
///
/// Each simulated cycle, the engine calls [`poll`](Self::poll) repeatedly
/// for every master until it returns `None`, enqueuing the returned
/// transfers on that master's DMA descriptor queue. Completion callbacks
/// arrive when the last response beat of a transfer reaches the master.
pub trait TrafficSource {
    /// Returns the next transfer that master `master` should issue at time
    /// `now`, or `None` if it has nothing (more) to inject this cycle.
    fn poll(&mut self, master: usize, now: Cycle) -> Option<Transfer>;

    /// Notifies the source that transfer `id` issued by `master` completed.
    fn on_complete(&mut self, master: usize, id: u64, now: Cycle) {
        let _ = (master, id, now);
    }

    /// Whether the workload is finite and fully generated *and* all its
    /// completions have been observed (used by trace-driven runs; open-loop
    /// sources stay `false` forever and are stopped by a cycle budget).
    fn is_done(&self) -> bool {
        false
    }

    /// The earliest cycle at which any master can next produce a transfer —
    /// the source's half of the event-horizon time-skipping contract
    /// (`simkit::horizon`). Must be *conservative and pure*: it never
    /// touches the random stream or any other state, and it promises that
    /// every `poll` strictly before the returned cycle returns `None`.
    /// [`Horizon::Never`] additionally promises that only an external
    /// cause (an [`on_complete`](Self::on_complete) callback) can ready
    /// more work. The default, `At(now)`, is the no-lookahead answer: it
    /// is always correct and simply forbids skipping.
    fn next_arrival(&self, now: Cycle) -> Horizon {
        Horizon::At(now)
    }

    /// Serializes the source's complete deterministic state (RNG streams,
    /// arrival clocks, dependency progress) as a self-validating byte
    /// string, or `None` when the source does not support checkpointing.
    /// Restoring the bytes into an identically configured source and
    /// continuing to poll reproduces this source's future output exactly.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state captured by [`snapshot_state`](Self::snapshot_state)
    /// on a source built from the same configuration. Returns `false` —
    /// leaving `self` untouched — when the source does not support
    /// checkpointing or the bytes are truncated, corrupt, or from a
    /// differently configured source.
    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let _ = bytes;
        false
    }
}

/// The horizon implied by a fractional Poisson arrival clock: the first
/// integer cycle `c` with `c ≥ next_arrival`, i.e. the first cycle at
/// which the stochastic sources' poll guard (`next_arrival > now as f64`)
/// stops returning `None`. Saturates arrival clocks beyond the cycle
/// range to the last representable cycle (an unreachable future).
pub(crate) fn arrival_horizon(next_arrival: f64) -> Horizon {
    // `f64 as u64` saturates at the type bounds; clocks are validated
    // non-negative and finite on restore and can never be negative by
    // construction.
    Horizon::At(next_arrival.ceil() as Cycle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_horizon_matches_the_poll_guard() {
        // The guard fires at the first integer cycle not before the clock.
        for (clock, cycle) in [(0.0, 0), (0.2, 1), (7.0, 7), (7.001, 8)] {
            assert_eq!(arrival_horizon(clock), Horizon::At(cycle), "clock {clock}");
            // Cross-check against the guard expression itself.
            assert!(clock <= cycle as f64, "guard admits cycle {cycle}");
            if cycle > 0 {
                assert!(
                    clock > (cycle - 1) as f64,
                    "guard blocks cycle {}",
                    cycle - 1
                );
            }
        }
        // Out-of-range clocks saturate to an unreachable future cycle.
        assert_eq!(arrival_horizon(1e300), Horizon::At(u64::MAX));
    }

    /// A trivial one-shot source used to validate the default impls.
    struct OneShot(Option<Transfer>);

    impl TrafficSource for OneShot {
        fn poll(&mut self, _master: usize, _now: Cycle) -> Option<Transfer> {
            self.0.take()
        }
    }

    #[test]
    fn default_impls_are_benign() {
        let t = Transfer {
            id: 1,
            dst: 3,
            offset: 0,
            bytes: 64,
            kind: TransferKind::Write,
        };
        let mut s = OneShot(Some(t));
        assert!(!s.is_done());
        assert_eq!(
            s.next_arrival(42),
            Horizon::At(42),
            "no-lookahead default never permits a skip"
        );
        assert_eq!(s.poll(0, 0), Some(t));
        assert_eq!(s.poll(0, 1), None);
        s.on_complete(0, 1, 10); // must not panic
        assert!(s.snapshot_state().is_none(), "checkpointing opt-in");
        assert!(!s.restore_state(&[1, 2, 3]), "restore refused, no panic");
    }
}
