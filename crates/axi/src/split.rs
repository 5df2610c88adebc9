//! Splitting DMA transfers into AXI-compliant bursts.
//!
//! The paper's evaluation drives the NoC from DMA engines whose
//! "workload-specific burst length is used ... to create AXI-compliant
//! bursts (adhering to address boundaries and max number of beats)" (§IV).
//! [`split_transfer`] implements that compliance step: an arbitrary
//! `(address, length)` transfer becomes a sequence of `INCR` bursts, each at
//! most 256 beats long and never crossing a 4 KiB boundary.

use crate::burst::Burst;
use crate::{BOUNDARY_4K, MAX_INCR_BEATS};

/// Splits a byte transfer into AXI-compliant `INCR` bursts.
///
/// Properties guaranteed (and property-tested in `tests/`):
///
/// * payload bytes sum to `len`,
/// * bursts are contiguous and ordered by address,
/// * no burst crosses a 4 KiB boundary,
/// * no burst exceeds 256 beats,
/// * the minimal number of bursts under those rules is produced.
///
/// A zero-length transfer yields no bursts.
///
/// # Examples
///
/// ```
/// use axi::split::split_transfer;
///
/// // 64 KiB on a 512-bit (64 B) bus: 4 bursts of 256 beats each
/// // (16 KiB per burst would cross 4 KiB, so 4 KiB chunks → 16 bursts).
/// let bursts = split_transfer(0, 65536, 64);
/// assert_eq!(bursts.len(), 16);
/// assert!(bursts.iter().all(|b| b.num_beats() == 64));
/// ```
#[must_use]
pub fn split_transfer(addr: u64, len: u64, beat_bytes: u64) -> Vec<Burst> {
    SplitCursor::new(addr, len, beat_bytes).collect()
}

/// An allocation-free, incremental [`split_transfer`]: yields the exact
/// same burst sequence one at a time, so a DMA model can hold the split
/// *state* (three words) in its in-flight transaction record instead of
/// materializing a `Vec<Burst>` per transfer on the hot path.
///
/// The split is greedy and position-local — each burst depends only on the
/// current address and remaining length — which is what makes the
/// incremental form bit-identical to the batch one (pinned by a property
/// test in `tests/properties.rs`).
///
/// # Examples
///
/// ```
/// use axi::split::{split_transfer, SplitCursor};
///
/// let cursor = SplitCursor::new(0x1F80, 256, 8);
/// assert_eq!(cursor.collect::<Vec<_>>(), split_transfer(0x1F80, 256, 8));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SplitCursor {
    cur: u64,
    remaining: u64,
    beat_bytes: u64,
}

impl SplitCursor {
    /// Starts a split of `len` bytes at `addr` on a `beat_bytes`-wide bus.
    ///
    /// # Panics
    ///
    /// Panics on an invalid bus width, exactly like [`split_transfer`].
    #[must_use]
    pub fn new(addr: u64, len: u64, beat_bytes: u64) -> Self {
        assert!(
            (1..=128).contains(&beat_bytes) && beat_bytes.is_power_of_two(),
            "invalid bus width"
        );
        Self {
            cur: addr,
            remaining: len,
            beat_bytes,
        }
    }

    /// A cursor that yields no bursts (the idle leg of a one-sided
    /// transfer).
    #[must_use]
    pub const fn empty() -> Self {
        Self {
            cur: 0,
            remaining: 0,
            beat_bytes: 1,
        }
    }

    /// Whether every burst has been yielded.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.remaining == 0
    }

    /// The cursor's three words of state `(cur, remaining, beat_bytes)`,
    /// for checkpointing.
    #[must_use]
    pub fn parts(&self) -> (u64, u64, u64) {
        (self.cur, self.remaining, self.beat_bytes)
    }

    /// Rebuilds a cursor from [`parts`](Self::parts), validating the bus
    /// width instead of panicking on corrupt snapshot bytes.
    ///
    /// # Errors
    ///
    /// A static description of the violated invariant.
    pub fn from_parts(cur: u64, remaining: u64, beat_bytes: u64) -> Result<Self, &'static str> {
        if !(1..=128).contains(&beat_bytes) || !beat_bytes.is_power_of_two() {
            return Err("split cursor bus width invalid");
        }
        Ok(Self {
            cur,
            remaining,
            beat_bytes,
        })
    }
}

impl Iterator for SplitCursor {
    type Item = Burst;

    fn next(&mut self) -> Option<Burst> {
        if self.remaining == 0 {
            return None;
        }
        // Limit 1: do not cross the next 4 KiB boundary.
        let to_boundary = BOUNDARY_4K - self.cur % BOUNDARY_4K;
        // Limit 2: at most 256 beats, accounting for a misaligned start.
        let offset = self.cur % self.beat_bytes;
        let max_burst_payload = MAX_INCR_BEATS * self.beat_bytes - offset;
        let chunk = self.remaining.min(to_boundary).min(max_burst_payload);
        let burst = Burst::incr_covering(self.cur, chunk, self.beat_bytes)
            .expect("split produced a legal burst");
        debug_assert!(!burst.crosses_4k_boundary());
        self.cur += chunk;
        self.remaining -= chunk;
        Some(burst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_invariants(addr: u64, len: u64, _beat_bytes: u64, bursts: &[Burst]) {
        let total: u64 = bursts.iter().map(Burst::payload_bytes).sum();
        assert_eq!(total, len, "payload preserved");
        let mut cur = addr;
        for b in bursts {
            assert_eq!(b.addr(), cur, "contiguous");
            assert!(b.num_beats() <= MAX_INCR_BEATS);
            assert!(
                !b.crosses_4k_boundary(),
                "no 4k crossing at {:#x}",
                b.addr()
            );
            cur += b.payload_bytes();
        }
    }

    #[test]
    fn zero_length_yields_nothing() {
        assert!(split_transfer(0x1000, 0, 8).is_empty());
    }

    #[test]
    fn small_aligned_transfer_is_one_burst() {
        let bursts = split_transfer(0x1000, 64, 8);
        assert_eq!(bursts.len(), 1);
        assert_eq!(bursts[0].num_beats(), 8);
        check_invariants(0x1000, 64, 8, &bursts);
    }

    #[test]
    fn boundary_split() {
        // 256 bytes starting 128 bytes before a 4 KiB boundary → 2 bursts.
        let bursts = split_transfer(0x1F80, 256, 8);
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].payload_bytes(), 128);
        assert_eq!(bursts[1].addr(), 0x2000);
        check_invariants(0x1F80, 256, 8, &bursts);
    }

    #[test]
    fn beat_limit_split_on_narrow_bus() {
        // 4 KiB on a 4-byte bus needs 1024 beats → 4 bursts of 256 beats.
        let bursts = split_transfer(0, 4096, 4);
        assert_eq!(bursts.len(), 4);
        assert!(bursts.iter().all(|b| b.num_beats() == 256));
        check_invariants(0, 4096, 4, &bursts);
    }

    #[test]
    fn unaligned_start() {
        let bursts = split_transfer(0x1003, 10_000, 8);
        check_invariants(0x1003, 10_000, 8, &bursts);
    }

    #[test]
    fn wide_bus_64k() {
        // The paper's largest DMA burst length: 64 KB on the wide NoC.
        let bursts = split_transfer(0, 64_000, 64);
        check_invariants(0, 64_000, 64, &bursts);
        // 4 KiB boundary dominates: 64 beats × 64 B = 4 KiB per burst.
        assert_eq!(bursts[0].num_beats(), 64);
    }

    #[test]
    fn transfer_ending_on_a_boundary_is_one_burst() {
        assert_eq!(split_transfer(0xF00, 256, 4).len(), 1);
        let bursts = split_transfer(0xF00, 257, 4);
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[1].addr(), 0x1000);
        assert_eq!(bursts[1].payload_bytes(), 1);
    }

    #[test]
    fn misaligned_start_shortens_the_first_full_burst() {
        // 256 beats from byte 1 of a 4-byte bus hold 1023 payload bytes;
        // the next burst starts bus-aligned.
        let bursts = split_transfer(1, 2000, 4);
        assert_eq!(bursts[0].num_beats(), 256);
        assert_eq!(bursts[0].payload_bytes(), 1023);
        assert_eq!(bursts[1].addr(), 1024);
        check_invariants(1, 2000, 4, &bursts);
    }

    #[test]
    fn cursor_resumes_from_its_parts() {
        let mut cursor = SplitCursor::new(0x1003, 10_000, 8);
        let head: Vec<Burst> = cursor.by_ref().take(2).collect();
        let (cur, remaining, beat_bytes) = cursor.parts();
        let resumed = SplitCursor::from_parts(cur, remaining, beat_bytes).unwrap();
        let mut whole = head;
        whole.extend(resumed);
        assert_eq!(whole, split_transfer(0x1003, 10_000, 8));
    }

    #[test]
    fn from_parts_rejects_invalid_bus_widths() {
        for bad in [0, 3, 256] {
            assert!(SplitCursor::from_parts(0, 64, bad).is_err());
        }
        assert!(SplitCursor::from_parts(0, 64, 128).is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid bus width")]
    fn cursor_rejects_invalid_bus_width() {
        let _ = SplitCursor::new(0, 64, 12);
    }

    #[test]
    fn empty_cursor_yields_nothing() {
        let mut cursor = SplitCursor::empty();
        assert!(cursor.is_done());
        assert_eq!(cursor.next(), None);
    }

    #[test]
    fn minimality_for_aligned_power_of_two() {
        // 8 KiB aligned on a 64-B bus: exactly two 4 KiB bursts.
        let bursts = split_transfer(0x4000, 8192, 64);
        assert_eq!(bursts.len(), 2);
    }
}
