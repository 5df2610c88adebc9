//! What the traffic sources share: the Poisson arrival clock of the two
//! stochastic sources, and the checkpoint framing of all three.
//!
//! All sources serialize with the `simkit::snap` container under one
//! engine-kind discriminant ([`SNAP_KIND`]); the header's *shape* digest
//! carries a per-source type tag plus every configuration field, so bytes
//! from a different source type or a differently configured source are
//! rejected before any state is decoded.

use simkit::snap::{DecodeLimits, Decoder, Encoder, SnapError};
use simkit::{Cycle, Horizon, Rng};

/// Traffic sources' discriminant in the snapshot header (the two NoC
/// engines use 1 and 2).
pub(crate) const SNAP_KIND: u8 = 3;

/// Shorthand for the source-invariant violation error.
pub(crate) fn corrupt(msg: &'static str) -> SnapError {
    SnapError::Corrupt(msg)
}

/// One master's Poisson process.
#[derive(Debug, Clone)]
struct Clock {
    rng: Rng,
    /// Fractional next-arrival time (cycles).
    next: f64,
    /// Transfers fired so far.
    serial: u64,
}

/// Per-master Poisson arrivals at a rate set by the *injected load*: at
/// load 1.0 a master offers one full data-bus width of payload per cycle,
/// given the sources' transfer lengths, uniform in `[1, max_transfer]`
/// bytes.
///
/// Each master draws from its own stream, forked from the seed, so the
/// masters are decorrelated and a master's stream does not depend on how
/// often the others are polled.
#[derive(Debug, Clone)]
pub(crate) struct Arrivals {
    clocks: Vec<Clock>,
    mean_gap: f64,
}

impl Arrivals {
    /// Starts `masters` clocks, each at a random fraction of the mean gap
    /// so that the first arrivals are desynchronized.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive load or a zero `max_transfer`.
    pub(crate) fn new(
        masters: usize,
        seed: u64,
        load: f64,
        bytes_per_cycle: f64,
        max_transfer: u64,
    ) -> Self {
        assert!(load > 0.0, "load must be positive");
        assert!(max_transfer > 0, "max transfer must be positive");
        let mean_size = (1.0 + max_transfer as f64) / 2.0;
        // Offered bytes/cycle = load × bytes_per_cycle = mean_size / mean_gap.
        let mean_gap = mean_size / (load * bytes_per_cycle);
        let root = Rng::new(seed);
        let clocks = (0..masters)
            .map(|m| {
                let mut rng = root.fork(m as u64 + 1);
                let next = rng.gen_f64() * mean_gap;
                Clock {
                    rng,
                    next,
                    serial: 0,
                }
            })
            .collect();
        Self { clocks, mean_gap }
    }

    /// Fires `master`'s clock if an arrival is due at `now`: draws the
    /// exponential gap to the next one, then hands back the master's
    /// stream, for the transfer's own draws, and the transfer's id,
    /// `master << 48 | serial`. `None` when nothing is due.
    pub(crate) fn fire(&mut self, master: usize, now: Cycle) -> Option<(&mut Rng, u64)> {
        let clock = &mut self.clocks[master];
        if clock.next > now as f64 {
            return None;
        }
        let u = clock.rng.gen_f64().max(f64::MIN_POSITIVE);
        clock.next += -u.ln() * self.mean_gap;
        clock.serial += 1;
        Some((&mut clock.rng, (master as u64) << 48 | clock.serial))
    }

    /// The earliest cycle at which any master fires. Each clock holds its
    /// next arrival already drawn, so this is a pure read that touches no
    /// random stream.
    pub(crate) fn horizon(&self) -> Horizon {
        self.clocks
            .iter()
            .map(|clock| arrival_horizon(clock.next))
            .fold(Horizon::Never, Horizon::min)
    }

    /// Serializes every clock in a checkpoint whose header carries `shape`,
    /// the owning source's configuration fingerprint.
    pub(crate) fn encode(&self, shape: u64) -> Vec<u8> {
        let mut e = Encoder::new(SNAP_KIND, shape);
        for clock in &self.clocks {
            for w in clock.rng.state() {
                e.fixed_u64(w);
            }
            e.f64(clock.next);
            e.u64(clock.serial);
        }
        e.finish()
    }

    /// Decodes bytes from [`encode`](Self::encode) into a fresh value with
    /// this one's masters and rate, leaving `self` untouched. Rejects the
    /// RNG's unreachable all-zero state and non-finite or negative clocks
    /// (a NaN clock would make the master inject unconditionally forever).
    pub(crate) fn decode(&self, bytes: &[u8], shape: u64) -> Result<Self, SnapError> {
        let mut d = Decoder::new(bytes, SNAP_KIND, shape, DecodeLimits::default())?;
        let mut clocks = Vec::with_capacity(self.clocks.len());
        for _ in &self.clocks {
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = d.fixed_u64()?;
            }
            let rng = Rng::from_state(s).ok_or(corrupt("degenerate rng state"))?;
            let next = d.f64()?;
            if !next.is_finite() || next < 0.0 {
                return Err(corrupt("arrival clock out of range"));
            }
            let serial = d.u64()?;
            clocks.push(Clock { rng, next, serial });
        }
        d.finish()?;
        Ok(Self {
            clocks,
            mean_gap: self.mean_gap,
        })
    }
}

/// The horizon implied by a fractional Poisson arrival clock: the first
/// integer cycle `c` with `c ≥ next`, i.e. the first cycle at which
/// [`Arrivals::fire`]'s guard (`next > now as f64`) stops returning
/// `None`. Saturates arrival clocks beyond the cycle range to the last
/// representable cycle (an unreachable future).
fn arrival_horizon(next: f64) -> Horizon {
    // `f64 as u64` saturates at the type bounds; clocks are validated
    // non-negative and finite on restore and can never be negative by
    // construction.
    Horizon::At(next.ceil() as Cycle)
}

/// Draws the offset of a `bytes`-long transfer in a `region_size`-byte
/// region, uniform over the starts at which it fits except the last (0
/// when it fills the region). The stochastic sources assert that their
/// transfers fit a region.
pub(crate) fn draw_offset(rng: &mut Rng, region_size: u64, bytes: u64) -> u64 {
    match region_size - bytes {
        0 => 0,
        max => rng.gen_range(max),
    }
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
}
