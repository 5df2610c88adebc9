//! The benchmark's only wall-clock reads.
//!
//! Every timing the benchmark reports comes from a [`Stopwatch`] wrapped
//! around a call into the simulator's public API. No simulated value ever
//! depends on these readings.

use std::time::Instant;

/// A running timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds since [`start`](Self::start), saturating after ~584
    /// years.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// The mean cost of one back-to-back `start`/`elapsed_ns` pair: what each
/// sampled call of the traced source overstates, and is subtracted. A mean,
/// like the sampled calls it is subtracted from, so rare preemptions weigh
/// the same on both sides.
pub fn timer_cost_ns() -> f64 {
    let pair = || std::hint::black_box(Stopwatch::start()).elapsed_ns();
    (0..1_000).for_each(|_| {
        pair();
    });
    let total: u64 = (0..100_000).map(|_| pair()).sum();
    total as f64 / 100_000.0
}
