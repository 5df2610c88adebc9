//! Bounded FIFOs with two-phase (registered) semantics.
//!
//! Hardware valid/ready channels are cut by register slices so that a 1 GHz
//! clock can be met (paper §II, Table I: "Register Slice ... single channel or
//! all channels (default)"). The consequence for a cycle-accurate model is
//! that information never traverses a link combinationally: a beat pushed in
//! cycle *t* is first visible at the consumer in cycle *t+1*, and the slot it
//! occupied is first reusable by the producer in cycle *t+1* after a pop.
//!
//! [`Fifo`] implements exactly that discipline with an explicit
//! [`begin_cycle`](Fifo::begin_cycle) snapshot, which also makes the order in
//! which components are evaluated within a cycle irrelevant — a property the
//! NoC engines rely on for determinism.

use std::collections::VecDeque;
use std::fmt;

/// Error returned by [`Fifo::push`] when no slot is available this cycle.
///
/// Carries the rejected value back to the caller so it can be retried next
/// cycle without cloning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushError<T>(pub T);

impl<T> fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fifo full: push rejected this cycle")
    }
}

impl<T: fmt::Debug> std::error::Error for PushError<T> {}

/// A bounded queue modelling a registered valid/ready channel.
///
/// See the [module documentation](self) for the two-phase discipline.
/// A depth of 2 gives full throughput (one beat per cycle sustained); a depth
/// of 1 gives at most one beat every other cycle, like a half-throughput
/// register slice.
///
/// # Examples
///
/// ```
/// use simkit::Fifo;
///
/// let mut f: Fifo<&str> = Fifo::new(2);
/// for _ in 0..3 {
///     f.begin_cycle();
///     if f.can_push() {
///         f.push("beat").unwrap();
///     }
///     f.pop(); // consumer drains in the same cycles
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    buf: VecDeque<T>,
    capacity: usize,
    /// Items that existed at the start of the cycle (poppable now).
    snap_len: usize,
    /// Slots that were free at the start of the cycle (pushable now).
    snap_free: usize,
}

impl<T> Fifo<T> {
    /// Creates a FIFO with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity channel can never
    /// transport anything and always indicates a wiring bug.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be non-zero");
        Self {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            snap_len: 0,
            snap_free: 0,
        }
    }

    /// Starts a new cycle: snapshots occupancy for this cycle's pushes/pops.
    pub fn begin_cycle(&mut self) {
        self.snap_len = self.buf.len();
        self.snap_free = self.capacity - self.buf.len();
    }

    /// Whether a push would succeed this cycle (ready asserted).
    #[must_use]
    pub fn can_push(&self) -> bool {
        self.snap_free > 0
    }

    /// Pushes a value if a slot was free at the start of the cycle.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] carrying `value` back if the FIFO is full from
    /// this cycle's perspective.
    pub fn push(&mut self, value: T) -> Result<(), PushError<T>> {
        if self.snap_free == 0 {
            return Err(PushError(value));
        }
        self.snap_free -= 1;
        self.buf.push_back(value);
        Ok(())
    }

    /// Whether a pop would succeed this cycle (valid asserted).
    #[must_use]
    pub fn can_pop(&self) -> bool {
        self.snap_len > 0
    }

    /// Returns the head element if it was present at the start of the cycle.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        if self.snap_len > 0 {
            self.buf.front()
        } else {
            None
        }
    }

    /// Pops the head element if it was present at the start of the cycle.
    pub fn pop(&mut self) -> Option<T> {
        if self.snap_len == 0 {
            return None;
        }
        self.snap_len -= 1;
        self.buf.pop_front()
    }

    /// Whether the FIFO is *quiescent*: empty **and** its cycle snapshot is
    /// fully refreshed, so the next [`begin_cycle`](Self::begin_cycle) would
    /// be a no-op. This is the contract activity-driven schedulers rely on
    /// to skip idle channels: a quiescent FIFO behaves identically whether
    /// or not `begin_cycle` is called on it.
    ///
    /// Note the difference from [`is_empty`](Self::is_empty): a FIFO that
    /// was just drained is empty but *not* idle — the slots freed by the
    /// pops only become pushable after one more `begin_cycle`, so skipping
    /// that call would be observable. A freshly constructed FIFO is also
    /// not idle until its first `begin_cycle` (nothing is pushable yet).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty() && self.snap_len == 0 && self.snap_free == self.capacity
    }

    /// Number of elements poppable this cycle (the start-of-cycle snapshot,
    /// minus pops already performed this cycle). Together with
    /// [`poppable`](Self::poppable) and [`snap_free`](Self::snap_free) this
    /// exposes the cycle snapshot to *mirrors*: when a region-sharded engine
    /// hands two threads the two ends of one channel, each side works on a
    /// copy of this snapshot and the commit phase replays the recorded
    /// pops/pushes on the real FIFO (see `simkit::region`).
    #[must_use]
    pub fn snap_len(&self) -> usize {
        self.snap_len
    }

    /// Number of slots still pushable this cycle (the start-of-cycle
    /// snapshot, minus pushes already performed this cycle).
    #[must_use]
    pub fn snap_free(&self) -> usize {
        self.snap_free
    }

    /// Iterates over the elements poppable this cycle, head first — the
    /// prefix of the queue covered by the start-of-cycle snapshot.
    pub fn poppable(&self) -> impl Iterator<Item = &T> {
        self.buf.iter().take(self.snap_len)
    }

    /// Current *raw* occupancy (including values pushed this cycle).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the FIFO holds no elements at all (raw view).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over the queued elements, head first (raw view).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf.iter()
    }

    /// Removes all elements and resets the cycle snapshot.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.snap_len = 0;
        self.snap_free = 0;
    }

    /// Serializes the FIFO (capacity, two-phase snapshot counters,
    /// elements head-first) into a snapshot, encoding each element with
    /// `f`.
    pub fn encode_with(
        &self,
        e: &mut crate::snap::Encoder,
        mut f: impl FnMut(&mut crate::snap::Encoder, &T),
    ) {
        e.usize(self.capacity);
        e.usize(self.snap_len);
        e.usize(self.snap_free);
        e.usize(self.buf.len());
        for item in &self.buf {
            f(e, item);
        }
    }

    /// Decodes a FIFO written by [`encode_with`](Self::encode_with),
    /// validating the two-phase bounds before constructing it: the
    /// capacity must equal `expected_capacity` (the target engine's
    /// wiring), and the snapshot counters must be consistent with *some*
    /// sequence of same-cycle pushes/pops since the last `begin_cycle` —
    /// pops decrement `snap_len` and `len` together while pushes only
    /// grow `len` (so `snap_len ≤ len`), and pushes consume `snap_free`
    /// one-for-one with the slots they fill (so
    /// `len + snap_free ≤ capacity`).
    ///
    /// # Errors
    ///
    /// [`SnapError`](crate::snap::SnapError) on any framing or bounds
    /// violation.
    pub fn decode_with(
        d: &mut crate::snap::Decoder<'_>,
        expected_capacity: usize,
        mut f: impl FnMut(&mut crate::snap::Decoder<'_>) -> Result<T, crate::snap::SnapError>,
    ) -> Result<Self, crate::snap::SnapError> {
        use crate::snap::SnapError;
        let capacity = d.usize()?;
        if capacity != expected_capacity || capacity == 0 {
            return Err(SnapError::Corrupt("fifo capacity mismatch"));
        }
        let snap_len = d.usize()?;
        let snap_free = d.usize()?;
        let len = d.count("fifo occupancy")?;
        if snap_len > len {
            return Err(SnapError::Corrupt("fifo snapshot out of bounds"));
        }
        if len + snap_free > capacity {
            return Err(SnapError::Corrupt("fifo occupancy out of bounds"));
        }
        let mut buf = VecDeque::with_capacity(capacity);
        for _ in 0..len {
            buf.push_back(f(d)?);
        }
        Ok(Self {
            buf,
            capacity,
            snap_len,
            snap_free,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_is_not_visible_same_cycle() {
        let mut f: Fifo<u32> = Fifo::new(4);
        f.begin_cycle();
        f.push(1).unwrap();
        assert!(!f.can_pop());
        assert_eq!(f.peek(), None);
        assert_eq!(f.pop(), None);
        f.begin_cycle();
        assert!(f.can_pop());
        assert_eq!(f.peek(), Some(&1));
        assert_eq!(f.pop(), Some(1));
    }

    #[test]
    fn pop_does_not_free_slot_same_cycle() {
        let mut f: Fifo<u32> = Fifo::new(1);
        f.begin_cycle();
        f.push(1).unwrap();
        f.begin_cycle();
        assert_eq!(f.pop(), Some(1));
        // Slot freed by the pop is not pushable until next cycle.
        assert!(!f.can_push());
        assert!(f.push(2).is_err());
        f.begin_cycle();
        assert!(f.can_push());
        f.push(2).unwrap();
    }

    #[test]
    fn depth_two_sustains_full_throughput() {
        let mut f: Fifo<u64> = Fifo::new(2);
        let mut sent = 0u64;
        let mut received = Vec::new();
        for _cycle in 0..100 {
            f.begin_cycle();
            if let Some(v) = f.pop() {
                received.push(v);
            }
            if f.can_push() {
                f.push(sent).unwrap();
                sent += 1;
            }
        }
        // After warm-up, one value per cycle: 99 delivered over 100 cycles.
        assert_eq!(received.len(), 99);
        assert!(received.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn depth_one_is_half_throughput() {
        let mut f: Fifo<u64> = Fifo::new(1);
        let mut delivered = 0;
        let mut next = 0u64;
        for _cycle in 0..100 {
            f.begin_cycle();
            if f.pop().is_some() {
                delivered += 1;
            }
            if f.can_push() {
                f.push(next).unwrap();
                next += 1;
            }
        }
        // Push and pop alternate: ~50% throughput.
        assert_eq!(delivered, 50);
    }

    #[test]
    fn push_error_returns_value() {
        let mut f: Fifo<String> = Fifo::new(1);
        f.begin_cycle();
        f.push("a".to_owned()).unwrap();
        let err = f.push("b".to_owned()).unwrap_err();
        assert_eq!(err.0, "b");
    }

    #[test]
    fn fifo_order_preserved() {
        let mut f: Fifo<u32> = Fifo::new(8);
        f.begin_cycle();
        for i in 0..8 {
            f.push(i).unwrap();
        }
        f.begin_cycle();
        for i in 0..8 {
            assert_eq!(f.pop(), Some(i));
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = Fifo::<u8>::new(0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut f: Fifo<u32> = Fifo::new(2);
        f.begin_cycle();
        f.push(1).unwrap();
        f.clear();
        assert!(f.is_empty());
        assert!(!f.can_pop());
        f.begin_cycle();
        assert!(f.can_push());
    }

    #[test]
    fn idle_means_begin_cycle_is_a_no_op() {
        let mut f: Fifo<u32> = Fifo::new(2);
        // Fresh: empty but not idle (nothing pushable before the first
        // snapshot).
        assert!(!f.is_idle());
        f.begin_cycle();
        assert!(f.is_idle());
        // Pushed: raw occupancy makes it non-idle.
        f.push(1).unwrap();
        assert!(!f.is_idle());
        f.begin_cycle();
        assert!(!f.is_idle());
        // Drained: empty again, but the snapshot is stale (the freed slot
        // is not pushable yet), so still not idle.
        assert_eq!(f.pop(), Some(1));
        assert!(f.is_empty());
        assert!(!f.is_idle());
        f.begin_cycle();
        assert!(f.is_idle());
        // On an idle FIFO, begin_cycle changes nothing observable.
        assert!(f.can_push() && !f.can_pop());
        f.begin_cycle();
        assert!(f.can_push() && !f.can_pop() && f.is_idle());
    }

    #[test]
    fn snapshot_accessors_track_the_cycle_view() {
        let mut f: Fifo<u32> = Fifo::new(4);
        f.begin_cycle();
        assert_eq!((f.snap_len(), f.snap_free()), (0, 4));
        f.push(1).unwrap();
        f.push(2).unwrap();
        // Pushes consume free slots but are not poppable this cycle.
        assert_eq!((f.snap_len(), f.snap_free()), (0, 2));
        assert_eq!(f.poppable().count(), 0);
        f.begin_cycle();
        assert_eq!((f.snap_len(), f.snap_free()), (2, 2));
        assert_eq!(f.poppable().copied().collect::<Vec<_>>(), vec![1, 2]);
        f.push(3).unwrap();
        // The poppable prefix excludes the same-cycle push.
        assert_eq!(f.poppable().copied().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(f.pop(), Some(1));
        assert_eq!((f.snap_len(), f.snap_free()), (1, 1));
        assert_eq!(f.poppable().copied().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn snapshot_codec_round_trips_mid_cycle_state() {
        use crate::snap::{DecodeLimits, Decoder, Encoder, SnapError};
        let mut f: Fifo<u32> = Fifo::new(4);
        f.begin_cycle();
        f.push(1).unwrap();
        f.push(2).unwrap();
        f.begin_cycle();
        assert_eq!(f.pop(), Some(1));
        f.push(3).unwrap(); // mid-cycle: snap_len=1, snap_free=1, len=2
        let mut e = Encoder::new(0, 0);
        f.encode_with(&mut e, |e, &v| e.u32(v));
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, 0, 0, DecodeLimits::default()).unwrap();
        let mut g = Fifo::decode_with(&mut d, 4, |d| d.u32()).unwrap();
        d.finish().unwrap();
        assert_eq!((g.snap_len(), g.snap_free(), g.len()), (1, 1, 2));
        // Bit-identical behavior from the restored state: one pop and one
        // push remain available this cycle, exactly as in the original.
        assert_eq!(g.pop(), Some(2));
        g.push(4).unwrap();
        assert!(!g.can_push());
        g.begin_cycle();
        assert_eq!(g.pop(), Some(3));
        assert_eq!(g.pop(), Some(4));

        // Capacity mismatch and inconsistent counters are rejected.
        let mut d = Decoder::new(&bytes, 0, 0, DecodeLimits::default()).unwrap();
        assert!(matches!(
            Fifo::<u32>::decode_with(&mut d, 8, |d| d.u32()),
            Err(SnapError::Corrupt(_))
        ));
        let mut e = Encoder::new(0, 0);
        e.usize(2); // capacity
        e.usize(2); // snap_len > len: impossible
        e.usize(0);
        e.usize(1);
        e.u32(9);
        let bad = e.finish();
        let mut d = Decoder::new(&bad, 0, 0, DecodeLimits::default()).unwrap();
        assert!(matches!(
            Fifo::<u32>::decode_with(&mut d, 2, |d| d.u32()),
            Err(SnapError::Corrupt(_))
        ));
    }
}
