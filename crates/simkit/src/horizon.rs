//! Next-event horizons: when can anything observable happen next?
//!
//! Event-horizon time skipping turns O(cycles) stepping into O(events):
//! when an engine is fully quiescent (empty [`ActiveSet`](crate::sched),
//! no in-flight transactions) the only thing that can wake it is its
//! traffic source, and every source knows — without touching its random
//! stream — the earliest cycle at which it can next emit a transfer. A
//! [`Horizon`] names that cycle, or states that it will never come, and
//! [`Horizon::min`] folds the engine's and the source's horizons into the
//! one the run loop (`traffic::drive`) may jump to.
//!
//! The contract that makes the jump bit-identical:
//!
//! * `At(c)` promises **nothing observable happens strictly before `c`** —
//!   polls return `None`, timers only tick, no state visible to a
//!   snapshot changes. (An engine's quiescence already guarantees its own
//!   half of this: a drained engine stepping an empty active set is a
//!   provable no-op.)
//! * `Never` promises that no future cycle produces an event without an
//!   external cause (e.g. a blocked DNN trace whose pending transfers all
//!   retired — only `on_complete` can ready more work, and a drained
//!   engine has none left to complete).
//! * Horizons are *conservative*: reporting `At(now)` is always correct
//!   (it just forbids skipping), which is the default for sources that do
//!   not implement lookahead.

use crate::Cycle;

/// The earliest future cycle at which a component can produce an
/// observable event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Horizon {
    /// Something may happen at `cycle` (and provably nothing before it).
    At(Cycle),
    /// No event will ever happen without external input.
    Never,
}

impl Horizon {
    /// The min-combine of two horizons: the earlier bound wins, and any
    /// bound beats `Never`.
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        match (self, other) {
            (Self::At(a), Self::At(b)) => Self::At(a.min(b)),
            (Self::At(a), Self::Never) | (Self::Never, Self::At(a)) => Self::At(a),
            (Self::Never, Self::Never) => Self::Never,
        }
    }

    /// The cycle the run loop may jump to under a hard `deadline` (the
    /// remaining cycle budget): a `Never` horizon jumps all the way to
    /// the deadline, a bounded horizon jumps no further than either.
    #[must_use]
    pub fn target(self, deadline: Cycle) -> Cycle {
        match self {
            Self::At(c) => c.min(deadline),
            Self::Never => deadline,
        }
    }

    /// Whether this horizon lies strictly after `now` — the precondition
    /// for skipping any time at all.
    #[must_use]
    pub fn is_after(self, now: Cycle) -> bool {
        match self {
            Self::At(c) => c > now,
            Self::Never => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_combine_prefers_the_earlier_bound() {
        assert_eq!(Horizon::At(3).min(Horizon::At(7)), Horizon::At(3));
        assert_eq!(Horizon::At(7).min(Horizon::At(3)), Horizon::At(3));
        assert_eq!(Horizon::At(5).min(Horizon::At(5)), Horizon::At(5));
    }

    #[test]
    fn any_bound_beats_never() {
        assert_eq!(Horizon::Never.min(Horizon::At(9)), Horizon::At(9));
        assert_eq!(Horizon::At(9).min(Horizon::Never), Horizon::At(9));
        assert_eq!(Horizon::Never.min(Horizon::Never), Horizon::Never);
    }

    #[test]
    fn target_clamps_to_the_deadline() {
        assert_eq!(Horizon::At(50).target(100), 50);
        assert_eq!(Horizon::At(500).target(100), 100);
        assert_eq!(Horizon::Never.target(100), 100);
    }

    #[test]
    fn is_after_defines_the_skip_precondition() {
        assert!(Horizon::At(11).is_after(10));
        assert!(!Horizon::At(10).is_after(10));
        assert!(!Horizon::At(9).is_after(10));
        assert!(Horizon::Never.is_after(u64::MAX));
    }
}
