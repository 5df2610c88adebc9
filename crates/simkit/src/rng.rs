//! Deterministic pseudo-random number generation.
//!
//! The evaluation framework randomizes burst lengths and source/destination
//! addresses "within a user-defined range" (paper §IV). For reproducible
//! experiments every stochastic choice in the simulators flows through this
//! seeded xoshiro256** generator, so a (seed, configuration) pair fully
//! determines a simulation run.

/// A xoshiro256** PRNG with splitmix64 seeding.
///
/// Not cryptographically secure; chosen for speed, quality and zero
/// dependencies.
///
/// # Examples
///
/// ```
/// use simkit::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // fully deterministic
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (expanded via splitmix64).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next_sm(), next_sm(), next_sm(), next_sm()];
        // splitmix64 never yields an all-zero state from these constants,
        // but guard anyway: xoshiro must not be seeded with all zeros.
        if s == [0, 0, 0, 0] {
            return Self { s: [1, 2, 3, 4] };
        }
        Self { s }
    }

    /// Derives an independent stream for a sub-component (e.g. one DMA
    /// engine per node), keyed by `stream`.
    #[must_use]
    pub fn fork(&self, stream: u64) -> Self {
        let mut base = Self::new(self.s[0] ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Decorrelate from the parent.
        base.next_u64();
        base
    }

    /// The raw xoshiro256** state, for checkpointing. Restoring it with
    /// [`from_state`](Self::from_state) resumes the stream exactly.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a [`state`](Self::state) snapshot.
    /// Returns `None` for the all-zero state, which xoshiro can never
    /// reach from a valid seed and would lock the stream at zero forever.
    #[must_use]
    pub fn from_state(s: [u64; 4]) -> Option<Self> {
        if s == [0, 0, 0, 0] {
            None
        } else {
            Some(Self { s })
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be non-zero");
        // Lemire's unbiased method.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn gen_range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "invalid range");
        if lo == hi {
            return lo;
        }
        lo + self.gen_range(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_decorrelated() {
        let root = Rng::new(99);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.gen_range(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_range_inclusive_hits_both_ends() {
        let mut rng = Rng::new(4);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..1000 {
            match rng.gen_range_inclusive(5, 8) {
                5 => lo_seen = true,
                8 => hi_seen = true,
                v => assert!((5..=8).contains(&v)),
            }
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn gen_range_rejects_zero_bound() {
        let _ = Rng::new(1).gen_range(0);
    }

    #[test]
    fn gen_range_stays_in_bounds_near_u64_max() {
        // Half the draws land in Lemire's rejection zone at this bound.
        let bound = (1u64 << 63) + 1;
        let mut rng = Rng::new(6);
        let mut upper_half = 0;
        for _ in 0..1000 {
            let v = rng.gen_range(bound);
            assert!(v < bound);
            upper_half += u32::from(v >= 1 << 62);
        }
        assert!((430..570).contains(&upper_half), "upper half {upper_half}");
    }

    #[test]
    fn gen_range_inclusive_single_value_draws_nothing() {
        let mut rng = Rng::new(8);
        let before = rng.state();
        assert_eq!(rng.gen_range_inclusive(9, 9), 9);
        assert_eq!(rng.state(), before);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn gen_range_inclusive_rejects_inverted_range() {
        let _ = Rng::new(1).gen_range_inclusive(8, 5);
    }

    #[test]
    fn gen_bool_frequency_matches_probability() {
        let mut rng = Rng::new(12);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_800..3_200).contains(&hits), "hits {hits}");
    }

    #[test]
    fn gen_bool_clamps_probability_to_unit_interval() {
        let mut rng = Rng::new(13);
        for _ in 0..1000 {
            assert!(!rng.gen_bool(0.0));
            assert!(!rng.gen_bool(-0.5));
            assert!(rng.gen_bool(1.0));
            assert!(rng.gen_bool(1.5));
        }
    }

    #[test]
    fn fork_is_deterministic_and_leaves_the_parent_untouched() {
        let mut root = Rng::new(21);
        let before = root.state();
        let mut a = root.fork(3);
        let mut b = root.fork(3);
        assert_eq!(root.state(), before);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // A fork is keyed by the parent's state, not its own draws.
        let mut after_draw = {
            root.next_u64();
            root.fork(3)
        };
        assert_ne!(after_draw.next_u64(), Rng::new(21).fork(3).next_u64());
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Rng::new(5);
        for _ in 0..1000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn state_round_trip_resumes_stream() {
        let mut a = Rng::new(11);
        for _ in 0..10 {
            a.next_u64();
        }
        let mut b = Rng::from_state(a.state()).unwrap();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert!(Rng::from_state([0; 4]).is_none());
    }

    #[test]
    fn uniformity_rough_check() {
        let mut rng = Rng::new(10);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[rng.gen_range(8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "bucket {b}");
        }
    }
}
