//! Round-robin arbitration.
//!
//! Every mux in the AXI crossbar (and every output port of the wormhole
//! router in the packet baseline) arbitrates among its requesting inputs with
//! a work-conserving round-robin policy, matching the behaviour of
//! `rr_arb_tree` used by the pulp-platform `axi` RTL the paper builds on.

/// A work-conserving round-robin arbiter over `n` requesters.
///
/// The arbiter remembers the last winner and searches for the next requesting
/// input starting *after* it, guaranteeing starvation freedom: any
/// continuously requesting input is granted within `n` grants.
///
/// # Examples
///
/// ```
/// use simkit::RoundRobinArbiter;
///
/// let mut arb = RoundRobinArbiter::new(3);
/// let req = [true, false, true];
/// assert_eq!(arb.grant(|i| req[i]), Some(0));
/// assert_eq!(arb.grant(|i| req[i]), Some(2));
/// assert_eq!(arb.grant(|i| req[i]), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    next: usize,
    n: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "arbiter must have at least one requester");
        Self { next: 0, n }
    }

    /// Number of requesters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; present for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The round-robin cursor (the input the next search starts at), for
    /// checkpointing.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.next
    }

    /// Restores a [`cursor`](Self::cursor) value.
    ///
    /// # Errors
    ///
    /// Rejects cursors outside `0..len()` (a corrupt snapshot) rather
    /// than panicking later in `grant`.
    pub fn set_cursor(&mut self, cursor: usize) -> Result<(), &'static str> {
        if cursor >= self.n {
            return Err("arbiter cursor out of range");
        }
        self.next = cursor;
        Ok(())
    }

    /// Grants the next requesting input in round-robin order, advancing the
    /// pointer past the winner. Returns `None` when nothing requests.
    ///
    /// Runs for every output of every switch on every cycle, so the index
    /// wraps with a compare rather than a `%` (same grant sequence).
    pub fn grant<F: Fn(usize) -> bool>(&mut self, requesting: F) -> Option<usize> {
        let mut idx = self.next;
        for _ in 0..self.n {
            let after = if idx + 1 == self.n { 0 } else { idx + 1 };
            if requesting(idx) {
                self.next = after;
                return Some(idx);
            }
            idx = after;
        }
        None
    }

    /// Like [`grant`](Self::grant) but does not advance the pointer; useful
    /// when the grant may still be rejected downstream in the same cycle.
    #[must_use]
    pub fn peek_grant<F: Fn(usize) -> bool>(&self, requesting: F) -> Option<usize> {
        (0..self.n)
            .map(|offset| (self.next + offset) % self.n)
            .find(|&idx| requesting(idx))
    }

    /// Commits a previously peeked grant, advancing the round-robin pointer.
    ///
    /// # Panics
    ///
    /// Panics if `winner` is out of range.
    pub fn commit(&mut self, winner: usize) {
        assert!(winner < self.n, "winner out of range");
        self.next = (winner + 1) % self.n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_fair() {
        let mut arb = RoundRobinArbiter::new(4);
        let mut grants = [0usize; 4];
        for _ in 0..400 {
            let w = arb.grant(|_| true).unwrap();
            grants[w] += 1;
        }
        assert_eq!(grants, [100, 100, 100, 100]);
    }

    #[test]
    fn skips_non_requesting() {
        let mut arb = RoundRobinArbiter::new(4);
        for _ in 0..10 {
            assert_eq!(arb.grant(|i| i == 2), Some(2));
        }
    }

    #[test]
    fn none_when_idle() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.grant(|_| false), None);
        // Pointer unchanged: next grant starts at 0.
        assert_eq!(arb.grant(|_| true), Some(0));
    }

    #[test]
    fn starvation_freedom_under_adversarial_requests() {
        // Input 3 requests continuously while 0..3 also request; 3 must be
        // granted at least once every 4 grants.
        let mut arb = RoundRobinArbiter::new(4);
        let mut since_last = 0usize;
        for _ in 0..100 {
            let w = arb.grant(|_| true).unwrap();
            if w == 3 {
                since_last = 0;
            } else {
                since_last += 1;
                assert!(since_last < 4);
            }
        }
    }

    #[test]
    fn peek_then_commit_matches_grant() {
        let mut a = RoundRobinArbiter::new(3);
        let mut b = RoundRobinArbiter::new(3);
        let req = [true, true, false];
        for _ in 0..10 {
            let ga = a.grant(|i| req[i]);
            let gb = b.peek_grant(|i| req[i]);
            assert_eq!(ga, gb);
            b.commit(gb.unwrap());
        }
    }

    #[test]
    fn grant_agrees_with_peek_grant_for_every_cursor_and_mask() {
        // `peek_grant` still wraps with `%`: the reference for the
        // compare-wrapped `grant`.
        for n in 1..=6usize {
            for cursor in 0..n {
                for mask in 0u32..(1 << n) {
                    let mut arb = RoundRobinArbiter::new(n);
                    arb.set_cursor(cursor).unwrap();
                    let req = |i: usize| mask >> i & 1 == 1;
                    let expected = arb.peek_grant(req);
                    assert_eq!(arb.grant(req), expected, "n={n} cursor={cursor}");
                    let next = expected.map_or(cursor, |w| (w + 1) % n);
                    assert_eq!(arb.cursor(), next);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_requesters_panics() {
        let _ = RoundRobinArbiter::new(0);
    }
}
