//! Measurement utilities: throughput meters and histograms.
//!
//! The paper characterizes the NoC as *throughput versus injected load*
//! (Fig. 4), *utilization at maximum injected load* (Fig. 6) and *aggregated
//! throughput* on workload traces (Fig. 8). These helpers implement the
//! corresponding bookkeeping: byte counting over a measurement window with an
//! optional warm-up, and log-2 latency histograms.

use crate::{Cycle, CLOCK_HZ};

/// Bytes per GiB, used for reporting in the paper's units.
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Windowed byte-throughput meter.
///
/// Bytes recorded before the warm-up cutoff are counted separately so the
/// reported throughput reflects steady state only, as is standard NoC
/// methodology.
///
/// # Examples
///
/// ```
/// use simkit::ThroughputMeter;
///
/// let mut m = ThroughputMeter::new(100); // 100-cycle warm-up
/// m.record(50, 64);   // ignored: within warm-up
/// m.record(150, 64);  // counted
/// let gib_s = m.throughput_gib_s(200);
/// assert!(gib_s > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ThroughputMeter {
    warmup: Cycle,
    bytes: u64,
    warmup_bytes: u64,
    events: u64,
}

impl ThroughputMeter {
    /// Creates a meter whose measurement window starts at `warmup` cycles.
    #[must_use]
    pub fn new(warmup: Cycle) -> Self {
        Self {
            warmup,
            bytes: 0,
            warmup_bytes: 0,
            events: 0,
        }
    }

    /// Records `bytes` delivered at time `now`.
    pub fn record(&mut self, now: Cycle, bytes: u64) {
        if now < self.warmup {
            self.warmup_bytes += bytes;
        } else {
            self.bytes += bytes;
            self.events += 1;
        }
    }

    /// Total bytes counted inside the measurement window.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of record events inside the measurement window.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Bytes observed during warm-up (excluded from throughput).
    #[must_use]
    pub fn warmup_bytes(&self) -> u64 {
        self.warmup_bytes
    }

    /// Throughput in bytes/second at a 1 GHz clock, measured from the end of
    /// warm-up until `now`. Returns 0.0 while still warming up.
    #[must_use]
    pub fn throughput_bytes_s(&self, now: Cycle) -> f64 {
        if now <= self.warmup {
            return 0.0;
        }
        let cycles = (now - self.warmup) as f64;
        self.bytes as f64 / cycles * CLOCK_HZ
    }

    /// Throughput in GiB/s (the paper's reporting unit).
    #[must_use]
    pub fn throughput_gib_s(&self, now: Cycle) -> f64 {
        self.throughput_bytes_s(now) / GIB
    }

    /// The warm-up cutoff this meter was armed with.
    #[must_use]
    pub fn warmup(&self) -> Cycle {
        self.warmup
    }

    /// Serializes the meter into a snapshot.
    pub fn encode(&self, e: &mut crate::snap::Encoder) {
        e.u64(self.warmup);
        e.u64(self.bytes);
        e.u64(self.warmup_bytes);
        e.u64(self.events);
    }

    /// Decodes a meter written by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// [`SnapError`](crate::snap::SnapError) on malformed bytes.
    pub fn decode(d: &mut crate::snap::Decoder<'_>) -> Result<Self, crate::snap::SnapError> {
        Ok(Self {
            warmup: d.u64()?,
            bytes: d.u64()?,
            warmup_bytes: d.u64()?,
            events: d.u64()?,
        })
    }

    /// Moves `other`'s counts into this meter, leaving `other` zeroed (its
    /// warm-up cutoff is kept, so it can keep recording).
    ///
    /// Region-sharded engines give every shard its own meter during the
    /// parallel phase and fold them into the run's meter at the cycle
    /// barrier. All counters are integers, so the fold is exact and
    /// independent of the order shards are absorbed in — a `record` seen
    /// through an absorbed shard meter is bit-identical to one recorded
    /// directly.
    pub fn absorb(&mut self, other: &mut ThroughputMeter) {
        self.bytes += std::mem::take(&mut other.bytes);
        self.warmup_bytes += std::mem::take(&mut other.warmup_bytes);
        self.events += std::mem::take(&mut other.events);
    }
}

/// A log-2 bucketed histogram for latencies and transfer sizes.
///
/// Bucket `i` counts values `v` with `floor(log2(v)) == i`; zero values get
/// bucket 0.
///
/// # Examples
///
/// ```
/// use simkit::Histogram;
///
/// let mut h = Histogram::new();
/// h.record(5); // bucket 2 (4..8)
/// assert_eq!(h.count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum += u128::from(value);
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another histogram's samples into this one in O(buckets),
    /// without replaying individual samples — used to aggregate per-endpoint
    /// latency histograms into one report while the per-endpoint originals
    /// keep accumulating.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Serializes the histogram into a snapshot (sparse: only non-zero
    /// buckets).
    pub fn encode(&self, e: &mut crate::snap::Encoder) {
        e.u64(self.count);
        e.u128(self.sum);
        let nonzero = self.buckets.iter().filter(|&&c| c != 0).count();
        e.usize(nonzero);
        for (i, &c) in self.buckets.iter().enumerate() {
            if c != 0 {
                e.usize(i);
                e.u64(c);
            }
        }
    }

    /// Decodes a histogram written by [`encode`](Self::encode),
    /// validating that the bucket counts sum to the sample count.
    ///
    /// # Errors
    ///
    /// [`SnapError`](crate::snap::SnapError) on malformed or
    /// inconsistent bytes.
    pub fn decode(d: &mut crate::snap::Decoder<'_>) -> Result<Self, crate::snap::SnapError> {
        use crate::snap::SnapError;
        let count = d.u64()?;
        let sum = d.u128()?;
        let nonzero = d.count("histogram buckets")?;
        if nonzero > 64 {
            return Err(SnapError::Corrupt("histogram bucket count"));
        }
        let mut buckets = vec![0u64; 64];
        let mut total: u64 = 0;
        let mut last: Option<usize> = None;
        for _ in 0..nonzero {
            let i = d.usize()?;
            if i >= 64 || last.is_some_and(|l| i <= l) {
                return Err(SnapError::Corrupt("histogram bucket index"));
            }
            last = Some(i);
            let c = d.u64()?;
            if c == 0 {
                return Err(SnapError::Corrupt("histogram zero bucket encoded"));
            }
            total = total
                .checked_add(c)
                .ok_or(SnapError::Corrupt("histogram count overflow"))?;
            buckets[i] = c;
        }
        if total != count {
            return Err(SnapError::Corrupt("histogram count mismatch"));
        }
        Ok(Self {
            buckets,
            count,
            sum,
        })
    }

    /// Count in log-2 bucket `i` (values in `[2^i, 2^(i+1))`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[must_use]
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Approximate quantile `q` in `[0,1]`, resolved to bucket upper bounds.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target.max(1) {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_counts_only_after_warmup() {
        let mut m = ThroughputMeter::new(10);
        m.record(5, 100);
        m.record(15, 100);
        assert_eq!(m.bytes(), 100);
        assert_eq!(m.warmup_bytes(), 100);
        // 100 bytes over 10 cycles at 1 GHz = 10 GB/s.
        let t = m.throughput_bytes_s(20);
        assert!((t - 10.0e9).abs() < 1.0);
    }

    #[test]
    fn throughput_zero_during_warmup() {
        let m = ThroughputMeter::new(10);
        assert_eq!(m.throughput_bytes_s(5), 0.0);
        assert_eq!(m.throughput_bytes_s(10), 0.0);
    }

    #[test]
    fn gib_conversion() {
        let mut m = ThroughputMeter::new(0);
        m.record(1, GIB as u64);
        // 1 GiB over 1000 cycles (1 µs) = ~1e6 GiB/s / 1e3... just check ratio.
        let t = m.throughput_gib_s(1000);
        assert!((t - 1.0e6).abs() / 1.0e6 < 1e-6);
    }

    #[test]
    fn absorb_equals_direct_recording() {
        let mut direct = ThroughputMeter::new(10);
        let mut main = ThroughputMeter::new(10);
        let mut shard = ThroughputMeter::new(10);
        for (now, bytes) in [(2, 5), (9, 7), (10, 64), (30, 128)] {
            direct.record(now, bytes);
            shard.record(now, bytes);
        }
        main.absorb(&mut shard);
        assert_eq!(main.bytes(), direct.bytes());
        assert_eq!(main.warmup_bytes(), direct.warmup_bytes());
        assert_eq!(main.events(), direct.events());
        assert_eq!(
            main.throughput_bytes_s(40).to_bits(),
            direct.throughput_bytes_s(40).to_bits()
        );
        // The shard meter is drained but still usable.
        assert_eq!(shard.bytes(), 0);
        shard.record(20, 1);
        assert_eq!(shard.bytes(), 1);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        assert_eq!(h.bucket(0), 2); // 0 and 1
        assert_eq!(h.bucket(1), 2); // 2 and 3
        assert_eq!(h.bucket(2), 1); // 4
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_equals_replaying_samples() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut replay = Histogram::new();
        for v in [0u64, 1, 7, 1000] {
            a.record(v);
            replay.record(v);
        }
        for v in [3u64, 3, 250_000] {
            b.record(v);
            replay.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), replay.count());
        assert!((a.mean() - replay.mean()).abs() < 1e-12);
        for i in 0..64 {
            assert_eq!(a.bucket(i), replay.bucket(i), "bucket {i}");
        }
        assert_eq!(a.quantile(0.99), replay.quantile(0.99));
    }

    #[test]
    fn meter_and_histogram_snapshot_round_trip() {
        use crate::snap::{DecodeLimits, Decoder, Encoder};
        let mut m = ThroughputMeter::new(10);
        m.record(5, 100);
        m.record(15, 200);
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 7, 1000, u64::MAX] {
            h.record(v);
        }
        let mut e = Encoder::new(0, 0);
        m.encode(&mut e);
        h.encode(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, 0, 0, DecodeLimits::default()).unwrap();
        let m2 = ThroughputMeter::decode(&mut d).unwrap();
        let h2 = Histogram::decode(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(
            (m2.warmup(), m2.bytes(), m2.warmup_bytes(), m2.events()),
            (10, 200, 100, 1)
        );
        assert_eq!(h2.count(), h.count());
        assert_eq!(h2.mean().to_bits(), h.mean().to_bits());
        for i in 0..64 {
            assert_eq!(h2.bucket(i), h.bucket(i));
        }
    }

    #[test]
    fn histogram_decode_rejects_count_mismatch() {
        use crate::snap::{DecodeLimits, Decoder, Encoder, SnapError};
        let mut e = Encoder::new(0, 0);
        e.u64(5); // claimed count
        e.u128(0);
        e.usize(1);
        e.usize(0);
        e.u64(3); // buckets only sum to 3
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes, 0, 0, DecodeLimits::default()).unwrap();
        assert_eq!(
            Histogram::decode(&mut d).unwrap_err(),
            SnapError::Corrupt("histogram count mismatch")
        );
    }

    #[test]
    fn histogram_quantile_monotone() {
        let mut h = Histogram::new();
        for v in 1..=1024u64 {
            h.record(v);
        }
        assert!(h.quantile(0.5) <= h.quantile(0.9));
        assert!(h.quantile(0.9) <= h.quantile(1.0));
    }
}
