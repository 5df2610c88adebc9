//! AXI burst descriptors and beat geometry.
//!
//! An AXI transaction transports `AxLEN + 1` data beats of `2^AxSIZE` bytes
//! each. The simulator models `INCR` bursts only, the type all DMA and DNN
//! traffic uses: at most 256 beats, never crossing a 4 KiB address
//! boundary.

use crate::{BOUNDARY_4K, MAX_INCR_BEATS};
use std::fmt;

/// Errors from [`Burst::new`] validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BurstError {
    /// Beat size must be a power of two of at most 128 bytes (1024 bits).
    BeatSize(u64),
    /// Beat count outside the `INCR` range 1..=256.
    BeatCount(u64),
}

impl fmt::Display for BurstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BeatSize(s) => write!(f, "beat size {s} invalid (power of two ≤ 128)"),
            Self::BeatCount(beats) => write!(f, "{beats} beats illegal for an INCR burst"),
        }
    }
}

impl std::error::Error for BurstError {}

/// One `INCR` burst: the content of an AW or AR request beat.
///
/// The payload accounting is *byte-accurate*: a burst may start and end
/// mid-beat (unaligned DMA), in which case the first/last beats carry fewer
/// valid bytes (modelled by byte strobes on the real bus). This matters when
/// verifying that a split transfer moves exactly the requested bytes.
///
/// # Examples
///
/// ```
/// use axi::Burst;
///
/// let b = Burst::new(0x80, 16, 4)?; // 16 beats × 4 B
/// assert_eq!(b.payload_bytes(), 64);
/// assert_eq!(b.beat_addr(1), 0x84);
/// # Ok::<(), axi::burst::BurstError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Burst {
    addr: u64,
    beats: u64,
    beat_bytes: u64,
    /// Valid bytes in this burst (≤ beats × beat_bytes for unaligned ends).
    payload: u64,
}

impl Burst {
    /// Creates a burst of `beats` full beats of `beat_bytes` each; `beats`
    /// must be 1..=256.
    ///
    /// # Errors
    ///
    /// Returns [`BurstError`] for an invalid bus width or beat count.
    pub fn new(addr: u64, beats: u64, beat_bytes: u64) -> Result<Self, BurstError> {
        if !(1..=128).contains(&beat_bytes) || !beat_bytes.is_power_of_two() {
            return Err(BurstError::BeatSize(beat_bytes));
        }
        if !(1..=MAX_INCR_BEATS).contains(&beats) {
            return Err(BurstError::BeatCount(beats));
        }
        Ok(Self {
            addr,
            beats,
            beat_bytes,
            payload: beats * beat_bytes,
        })
    }

    /// Creates an unaligned `INCR` burst covering exactly `payload` bytes
    /// starting at `addr`; the beat count is derived from the bus alignment.
    ///
    /// # Errors
    ///
    /// Returns [`BurstError::BeatCount`] if the span requires more than 256
    /// beats (the caller should have split it) and
    /// [`BurstError::BeatSize`] for an invalid bus width.
    pub fn incr_covering(addr: u64, payload: u64, beat_bytes: u64) -> Result<Self, BurstError> {
        if !(1..=128).contains(&beat_bytes) || !beat_bytes.is_power_of_two() {
            return Err(BurstError::BeatSize(beat_bytes));
        }
        let offset = addr % beat_bytes;
        let beats = (offset + payload).div_ceil(beat_bytes).max(1);
        if !(1..=MAX_INCR_BEATS).contains(&beats) {
            return Err(BurstError::BeatCount(beats));
        }
        Ok(Self {
            addr,
            beats,
            beat_bytes,
            payload,
        })
    }

    /// Start address of the burst.
    #[must_use]
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Number of data beats (`AxLEN + 1`).
    #[must_use]
    pub fn num_beats(&self) -> u64 {
        self.beats
    }

    /// Bytes per beat (`2^AxSIZE`).
    #[must_use]
    pub fn beat_bytes(&self) -> u64 {
        self.beat_bytes
    }

    /// Valid payload bytes carried by the burst.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.payload
    }

    /// Address of beat `i` (0-based): the start address, then each
    /// following beat's bus-aligned address.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_beats()`.
    #[must_use]
    pub fn beat_addr(&self, i: u64) -> u64 {
        assert!(i < self.beats, "beat index out of range");
        if i == 0 {
            self.addr
        } else {
            self.addr - self.addr % self.beat_bytes + i * self.beat_bytes
        }
    }

    /// Last byte address touched by the burst (inclusive).
    #[must_use]
    pub fn last_byte(&self) -> u64 {
        self.addr + self.payload - 1
    }

    /// Whether the burst crosses a 4 KiB boundary (illegal in AXI).
    #[must_use]
    pub fn crosses_4k_boundary(&self) -> bool {
        self.addr / BOUNDARY_4K != self.last_byte() / BOUNDARY_4K
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_geometry() {
        let b = Burst::new(0x100, 4, 8).unwrap();
        assert_eq!(b.num_beats(), 4);
        assert_eq!(b.beat_bytes(), 8);
        assert_eq!(b.payload_bytes(), 32);
        assert_eq!(b.beat_addr(0), 0x100);
        assert_eq!(b.beat_addr(3), 0x118);
        assert_eq!(b.last_byte(), 0x11F);
    }

    #[test]
    fn unaligned_incr_covering() {
        // 10 bytes starting at offset 3 in a 4-byte bus: beats cover 3+10=13
        // bytes of bus width → ceil(13/4) = 4 beats.
        let b = Burst::incr_covering(0x103, 10, 4).unwrap();
        assert_eq!(b.num_beats(), 4);
        assert_eq!(b.payload_bytes(), 10);
        assert_eq!(b.beat_addr(0), 0x103);
        assert_eq!(b.beat_addr(1), 0x104);
        assert_eq!(b.last_byte(), 0x10C);
    }

    #[test]
    fn incr_max_256_beats() {
        assert!(Burst::new(0, 256, 4).is_ok());
        assert!(matches!(
            Burst::new(0, 257, 4),
            Err(BurstError::BeatCount(257))
        ));
    }

    #[test]
    fn zero_beats_rejected() {
        assert_eq!(Burst::new(0, 0, 4), Err(BurstError::BeatCount(0)));
    }

    #[test]
    fn covering_beyond_256_beats_rejected() {
        assert_eq!(Burst::incr_covering(0, 1024, 4).unwrap().num_beats(), 256);
        // One byte of start misalignment pushes the same span to 257 beats.
        assert_eq!(
            Burst::incr_covering(1, 1024, 4),
            Err(BurstError::BeatCount(257))
        );
        assert_eq!(
            Burst::incr_covering(0, 1025, 4),
            Err(BurstError::BeatCount(257))
        );
    }

    #[test]
    fn covering_rejects_bad_beat_sizes() {
        for bad in [0, 3, 256] {
            assert_eq!(
                Burst::incr_covering(0, 16, bad),
                Err(BurstError::BeatSize(bad))
            );
        }
    }

    #[test]
    fn single_byte_covering_is_one_beat() {
        let b = Burst::incr_covering(0x7F, 1, 64).unwrap();
        assert_eq!(b.num_beats(), 1);
        assert_eq!(b.payload_bytes(), 1);
        assert_eq!(b.last_byte(), 0x7F);
        assert!(!b.crosses_4k_boundary());
    }

    #[test]
    #[should_panic(expected = "beat index out of range")]
    fn beat_addr_past_the_last_beat_panics() {
        let _ = Burst::new(0, 4, 8).unwrap().beat_addr(4);
    }

    #[test]
    fn errors_display_the_rejected_value() {
        assert_eq!(
            BurstError::BeatSize(3).to_string(),
            "beat size 3 invalid (power of two ≤ 128)"
        );
        assert_eq!(
            BurstError::BeatCount(257).to_string(),
            "257 beats illegal for an INCR burst"
        );
    }

    #[test]
    fn boundary_detection() {
        let ok = Burst::new(0xF00, 64, 4).unwrap();
        assert!(!ok.crosses_4k_boundary()); // ends at 0xFFF
        let bad = Burst::new(0xF01, 64, 4).unwrap();
        assert!(bad.crosses_4k_boundary());
    }

    #[test]
    fn unaligned_boundary_detection() {
        // Three bytes from 0xFFD end at 0xFFF; a fourth lands on 0x1000.
        assert!(!Burst::incr_covering(0xFFD, 3, 8)
            .unwrap()
            .crosses_4k_boundary());
        assert!(Burst::incr_covering(0xFFD, 4, 8)
            .unwrap()
            .crosses_4k_boundary());
    }

    #[test]
    fn rejects_bad_beat_sizes() {
        assert!(Burst::new(0, 1, 0).is_err());
        assert!(Burst::new(0, 1, 3).is_err());
        assert!(Burst::new(0, 1, 256).is_err());
        assert!(Burst::new(0, 1, 128).is_ok()); // 1024-bit bus
    }
}
