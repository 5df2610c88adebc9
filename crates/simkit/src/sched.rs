//! Activity-driven scheduling primitives.
//!
//! The NoC engines step `Vec`-indexed component arrays every cycle. At low
//! injected loads almost all of those components are quiescent, so a full
//! sweep burns >90 % of the wall clock touching idle state. [`ActiveSet`]
//! is the deterministic membership structure the engines use instead: a
//! dense bitmask (O(1) insert and dedup) plus a member count, drained in
//! *ascending index order* by walking the mask words.
//!
//! Ascending iteration is the load-bearing property: stepping the active
//! subset in index order visits components in exactly the relative order
//! of the old full sweep, which — combined with the two-phase
//! [`Fifo`](crate::Fifo) snapshot discipline and its
//! [`is_idle`](crate::Fifo::is_idle) quiescence contract — makes
//! activity-driven stepping bit-identical to the full sweep.
//!
//! # Examples
//!
//! ```
//! use simkit::sched::ActiveSet;
//!
//! let mut set = ActiveSet::new(100);
//! set.insert(17);
//! set.insert(3);
//! set.insert(17); // deduplicated
//! let mut order = Vec::new();
//! set.drain_into(&mut order);
//! assert_eq!(order, [3, 17]); // ascending, regardless of insert order
//! assert!(set.is_empty());
//! ```

/// Saturated-regime entry threshold, as a `(numerator, denominator)`
/// fraction of the full sweep's work items: when one precisely tracked
/// cycle touches at least this fraction, the engine switches to
/// bookkeeping-free full-sweep cycles — above ~2/3 activity the skipped
/// third no longer pays for the per-item set maintenance (measured on
/// both engines via `bench/src/bin/perf.rs`). Shared by every engine so
/// the two-regime behaviour cannot drift apart.
pub const SATURATE_ENTER: (usize, usize) = (2, 3);

/// Saturated-regime exit threshold, well below [`SATURATE_ENTER`]
/// (hysteresis against flapping): when the estimated precise-mode work of
/// a full-sweep cycle drops under this fraction, the engine rebuilds its
/// activity sets and resumes precise tracking.
pub const SATURATE_EXIT: (usize, usize) = (1, 2);

/// Whether `tracked` work items out of `full` cross the
/// [`SATURATE_ENTER`] threshold.
#[must_use]
pub fn should_saturate(tracked: usize, full: usize) -> bool {
    tracked * SATURATE_ENTER.1 >= full * SATURATE_ENTER.0
}

/// Whether `estimated` precise-mode work items out of `full` have dropped
/// below the [`SATURATE_EXIT`] threshold.
#[must_use]
pub fn should_desaturate(estimated: usize, full: usize) -> bool {
    estimated * SATURATE_EXIT.1 < full * SATURATE_EXIT.0
}

/// A set of component indices with deterministic ascending iteration.
///
/// Insertion is idempotent; [`drain_into`](Self::drain_into) empties the
/// set and yields the members in ascending index order, which is how the
/// engines freeze "this cycle's" work list while re-inserting next cycle's
/// activity into the same set.
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    /// Dense membership bitmask, one bit per component index.
    words: Vec<u64>,
    /// Number of set bits in `words`.
    len: usize,
}

impl ActiveSet {
    /// Creates a set over component indices `0..capacity`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// The number of indices currently in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no indices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `index` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the capacity the set was built with.
    #[must_use]
    pub fn contains(&self, index: usize) -> bool {
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// Inserts `index`; a no-op when already present.
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the capacity the set was built with.
    pub fn insert(&mut self, index: usize) {
        let word = &mut self.words[index / 64];
        let bit = 1u64 << (index % 64);
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        if self.len > 0 {
            self.words.fill(0);
            self.len = 0;
        }
    }

    /// Moves the members into `out` in **ascending index order** and clears
    /// the set. `out` is cleared first; its allocation is reused across
    /// cycles. Walks the mask words upward with `trailing_zeros`, zeroing
    /// each, and stops after the word holding the last member: O(capacity
    /// / 64 + members), with no sort (a 32×32 mesh's ~6k links are ~100
    /// words).
    pub fn drain_into(&mut self, out: &mut Vec<usize>) {
        out.clear();
        let mut left = std::mem::take(&mut self.len);
        for (w, word) in self.words.iter_mut().enumerate() {
            if left == 0 {
                break;
            }
            let mut bits = std::mem::take(word);
            left -= bits.count_ones() as usize;
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thresholds_match_the_constants() {
        // The regime switch flips exactly at the documented fractions:
        // enter at 2/3 of the full sweep's work, leave below 1/2.
        assert_eq!(SATURATE_ENTER, (2, 3));
        assert_eq!(SATURATE_EXIT, (1, 2));
        assert!(should_saturate(2, 3) && !should_saturate(1, 3));
        assert!(should_saturate(67, 100) && !should_saturate(66, 100));
        assert!(should_desaturate(49, 100) && !should_desaturate(50, 100));
        // Hysteresis: no work count both enters and leaves the saturated
        // regime, and the band between the thresholds does neither.
        for full in 1..100 {
            for work in 0..=full {
                assert!(
                    !(should_saturate(work, full) && should_desaturate(work, full)),
                    "{work}/{full} flaps"
                );
            }
        }
        assert!(!should_saturate(60, 100) && !should_desaturate(60, 100));
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = ActiveSet::new(10);
        s.insert(4);
        s.insert(4);
        s.insert(4);
        assert_eq!(s.len(), 1);
        assert!(s.contains(4));
        assert!(!s.contains(5));
    }

    #[test]
    fn drain_is_ascending_regardless_of_insertion_order() {
        let mut s = ActiveSet::new(300);
        for i in [299, 0, 64, 63, 65, 128, 1, 299] {
            s.insert(i);
        }
        let mut out = Vec::new();
        s.drain_into(&mut out);
        assert_eq!(out, [0, 1, 63, 64, 65, 128, 299]);
        assert!(s.is_empty());
        // The set is reusable after a drain.
        s.insert(7);
        s.drain_into(&mut out);
        assert_eq!(out, [7]);
    }

    #[test]
    fn drain_matches_a_sorted_deduplicated_model() {
        // Random insert batches across word boundaries, drained or cleared
        // between batches, against a sorted, deduplicated `Vec` model.
        let mut rng = crate::Rng::new(0x5EED);
        for capacity in [1, 63, 64, 65, 130, 1000] {
            let mut s = ActiveSet::new(capacity);
            let mut out = Vec::new();
            for round in 0..50 {
                let mut model = Vec::new();
                for _ in 0..rng.gen_range(2 * capacity as u64 + 1) {
                    let i = rng.gen_range(capacity as u64) as usize;
                    s.insert(i);
                    model.push(i);
                }
                model.sort_unstable();
                model.dedup();
                assert_eq!(s.len(), model.len());
                assert!(model.iter().all(|&i| s.contains(i)));
                if round % 5 == 4 {
                    s.clear();
                } else {
                    s.drain_into(&mut out);
                    assert_eq!(out, model, "capacity {capacity}, round {round}");
                }
                assert!(s.is_empty());
                assert!((0..capacity).all(|i| !s.contains(i)));
            }
        }
    }

    #[test]
    fn clear_removes_everything() {
        let mut s = ActiveSet::new(128);
        for i in 0..128 {
            s.insert(i);
        }
        assert_eq!(s.len(), 128);
        s.clear();
        assert!(s.is_empty());
        assert!((0..128).all(|i| !s.contains(i)));
    }

    #[test]
    fn empty_set_drains_to_nothing() {
        let mut s = ActiveSet::new(0);
        let mut out = vec![9, 9];
        s.drain_into(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn out_of_capacity_insert_panics() {
        let mut s = ActiveSet::new(64);
        s.insert(64);
    }
}
