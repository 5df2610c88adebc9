//! Uniform random traffic with Poisson arrivals (paper Fig. 4).
//!
//! Every node hosts a master and a slave. Every master injects transfers
//! whose destination is uniformly random among the other nodes, whose
//! length is uniformly random in `[1, max_transfer]` bytes ("the
//! workload-specific burst length is randomized within a user-defined
//! range", §IV) and whose arrival process is Poisson with a rate set by
//! the *injected load*: at load 1.0 a master offers one full
//! data-bus-width of payload per cycle.

use crate::arrivals::{draw_offset, Arrivals};
use crate::source::{TrafficSource, Transfer, TransferKind};
use simkit::snap::Encoder;
use simkit::{Cycle, Horizon, Rng};

/// Configuration for [`UniformRandom`].
#[derive(Debug, Clone)]
pub struct UniformConfig {
    /// Number of endpoints (indexed `0..nodes`), each hosting a master and
    /// an addressable slave.
    pub nodes: usize,
    /// Injected load in `(0, 1]`: fraction of one bus width of payload
    /// offered per cycle per master.
    pub load: f64,
    /// Payload bytes one data beat carries (DW/8); defines load 1.0.
    pub bytes_per_cycle: f64,
    /// Maximum DMA transfer (burst) length in bytes; lengths are uniform in
    /// `[1, max_transfer]`.
    pub max_transfer: u64,
    /// Fraction of transfers that are reads (the rest are writes). Ignored
    /// when `copies` is set.
    pub read_fraction: f64,
    /// Size of each slave's address region (offsets are kept in range).
    pub region_size: u64,
    /// RNG seed; a (seed, config) pair fully determines the workload.
    pub seed: u64,
}

/// Poisson uniform-random transfer generator.
///
/// See the [module documentation](self) and [`UniformConfig`].
#[derive(Debug, Clone)]
pub struct UniformRandom {
    cfg: UniformConfig,
    arrivals: Arrivals,
    copies: bool,
}

impl UniformRandom {
    /// Creates a generator of memory-to-memory copies: each transfer has a
    /// random *source and* destination slave (the paper's Fig. 4 DMA
    /// semantics — payload crosses the NoC twice, is counted once).
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    #[must_use]
    pub fn new_copies(cfg: UniformConfig) -> Self {
        let mut s = Self::new(cfg);
        s.copies = true;
        s
    }

    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (fewer than two nodes,
    /// non-positive load, zero `max_transfer`, or transfers larger than a
    /// region).
    #[must_use]
    pub fn new(cfg: UniformConfig) -> Self {
        assert!(cfg.nodes >= 2, "need at least two nodes");
        assert!(
            cfg.max_transfer <= cfg.region_size,
            "transfers must fit in a region"
        );
        let arrivals = Arrivals::new(
            cfg.nodes,
            cfg.seed,
            cfg.load,
            cfg.bytes_per_cycle,
            cfg.max_transfer,
        );
        Self {
            cfg,
            arrivals,
            copies: false,
        }
    }

    /// Configuration fingerprint carried in the checkpoint header: a
    /// source-type tag plus every field that shapes the generated stream.
    fn shape(&self) -> u64 {
        let cfg = &self.cfg;
        let mut e = Encoder::new(0, 0);
        e.byte(1); // source type: uniform random
        e.usize(cfg.nodes);
        e.f64(cfg.load);
        e.f64(cfg.bytes_per_cycle);
        e.u64(cfg.max_transfer);
        e.f64(cfg.read_fraction);
        e.u64(cfg.region_size);
        e.u64(cfg.seed);
        e.bool(self.copies);
        e.digest()
    }
}

/// Draws a node uniformly from `0..nodes`, redrawing on `not`.
fn other_node(rng: &mut Rng, nodes: usize, not: usize) -> usize {
    loop {
        let node = rng.gen_range(nodes as u64) as usize;
        if node != not {
            return node;
        }
    }
}

impl TrafficSource for UniformRandom {
    fn poll(&mut self, master: usize, now: Cycle) -> Option<Transfer> {
        let (rng, id) = self.arrivals.fire(master, now)?;
        let cfg = &self.cfg;
        let bytes = rng.gen_range_inclusive(1, cfg.max_transfer);
        let dst = other_node(rng, cfg.nodes, master);
        let offset = draw_offset(rng, cfg.region_size, bytes);
        let kind = if self.copies {
            let src = other_node(rng, cfg.nodes, dst);
            TransferKind::Copy {
                src,
                src_offset: draw_offset(rng, cfg.region_size, bytes),
            }
        } else if rng.gen_bool(cfg.read_fraction) {
            TransferKind::Read
        } else {
            TransferKind::Write
        };
        Some(Transfer {
            id,
            dst,
            offset,
            bytes,
            kind,
        })
    }

    fn next_arrival(&self, _now: Cycle) -> Horizon {
        self.arrivals.horizon()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(self.arrivals.encode(self.shape()))
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let Ok(fresh) = self.arrivals.decode(bytes, self.shape()) else {
            return false;
        };
        self.arrivals = fresh;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(load: f64, max_transfer: u64) -> UniformConfig {
        UniformConfig {
            nodes: 16,
            load,
            bytes_per_cycle: 4.0,
            max_transfer,
            read_fraction: 0.5,
            region_size: 1 << 24,
            seed: 7,
        }
    }

    /// Drain all arrivals for `cycles` cycles and return them.
    fn drain(src: &mut UniformRandom, master: usize, cycles: u64) -> Vec<Transfer> {
        let mut out = Vec::new();
        for now in 0..cycles {
            while let Some(t) = src.poll(master, now) {
                out.push(t);
            }
        }
        out
    }

    #[test]
    fn copies_have_distinct_random_sources() {
        let mut src = UniformRandom::new_copies(cfg(1.0, 64));
        let transfers = drain(&mut src, 2, 20_000);
        assert!(!transfers.is_empty());
        let mut sources = std::collections::BTreeSet::new();
        for t in &transfers {
            match t.kind {
                TransferKind::Copy { src, src_offset } => {
                    assert_ne!(src, t.dst, "source must differ from destination");
                    assert!(src_offset + t.bytes <= 1 << 24);
                    sources.insert(src);
                }
                other => panic!("expected a copy, got {other:?}"),
            }
        }
        assert!(sources.len() > 8, "sources cover the slaves: {sources:?}");
    }

    #[test]
    #[should_panic(expected = "two nodes")]
    fn copies_require_two_slaves() {
        let mut c = cfg(1.0, 64);
        c.nodes = 1;
        let _ = UniformRandom::new_copies(c);
    }

    #[test]
    fn offered_load_matches_request() {
        let mut src = UniformRandom::new(cfg(0.5, 100));
        let cycles = 200_000;
        let transfers = drain(&mut src, 0, cycles);
        let bytes: u64 = transfers.iter().map(|t| t.bytes).sum();
        let offered = bytes as f64 / cycles as f64;
        let expected = 0.5 * 4.0;
        assert!(
            (offered - expected).abs() / expected < 0.05,
            "offered {offered} expected {expected}"
        );
    }

    #[test]
    fn sizes_within_range() {
        let mut src = UniformRandom::new(cfg(1.0, 1000));
        for t in drain(&mut src, 3, 10_000) {
            assert!((1..=1000).contains(&t.bytes));
            assert!(t.offset + t.bytes <= 1 << 24);
        }
    }

    #[test]
    fn destinations_cover_all_other_slaves() {
        let mut src = UniformRandom::new(cfg(1.0, 4));
        let transfers = drain(&mut src, 5, 20_000);
        let mut seen = [false; 16];
        for t in &transfers {
            assert_ne!(t.dst, 5, "self traffic excluded");
            seen[t.dst] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert_eq!(covered, 15);
    }

    #[test]
    fn read_fraction_respected() {
        let mut c = cfg(1.0, 64);
        c.read_fraction = 0.25;
        let mut src = UniformRandom::new(c);
        let transfers = drain(&mut src, 0, 100_000);
        let reads = transfers
            .iter()
            .filter(|t| t.kind == TransferKind::Read)
            .count() as f64;
        let frac = reads / transfers.len() as f64;
        assert!((frac - 0.25).abs() < 0.03, "fraction {frac}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = UniformRandom::new(cfg(0.3, 500));
        let mut b = UniformRandom::new(cfg(0.3, 500));
        assert_eq!(drain(&mut a, 2, 5000), drain(&mut b, 2, 5000));
    }

    #[test]
    fn masters_are_decorrelated() {
        let mut src = UniformRandom::new(cfg(1.0, 100));
        let a = drain(&mut src, 0, 2000);
        let b = drain(&mut src, 1, 2000);
        assert_ne!(a.first().map(|t| t.bytes), b.first().map(|t| t.bytes));
    }

    #[test]
    fn ids_are_unique_per_master() {
        let mut src = UniformRandom::new(cfg(1.0, 16));
        let transfers = drain(&mut src, 4, 5000);
        let mut ids: Vec<u64> = transfers.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), transfers.len());
    }

    #[test]
    #[should_panic(expected = "load must be positive")]
    fn zero_load_rejected() {
        let _ = UniformRandom::new(cfg(0.0, 100));
    }

    #[test]
    fn next_arrival_bounds_the_first_poll_exactly() {
        // At a sparse load, drain the current arrivals, then check the
        // reported horizon is exactly the first cycle at which any master
        // polls a transfer — no earlier fire, no later slack — and that
        // asking never perturbs the stream.
        let mut src = UniformRandom::new(cfg(0.001, 100));
        let mirror = src.clone();
        for now in 0..5_000u64 {
            for m in 0..16 {
                while src.poll(m, now).is_some() {}
            }
            let h = src.next_arrival(now);
            let Horizon::At(c) = h else {
                panic!("open-loop Poisson source can always produce more")
            };
            assert!(c > now, "post-drain horizon must be in the future");
            // No master fires strictly before the horizon.
            for probe in (now + 1)..c.min(now + 50) {
                for m in 0..16 {
                    assert_eq!(src.poll(m, probe), None, "early fire at {probe}");
                }
            }
            // And at the horizon itself (when nearby), someone does.
            if c <= now + 50 {
                let fired = (0..16).any(|m| src.poll(m, c).is_some());
                assert!(fired, "horizon {c} passed with no arrival");
                break;
            }
        }
        // Purity: a source that was only asked for horizons is untouched.
        for now in 0..100 {
            let _ = mirror.next_arrival(now);
        }
        assert_eq!(
            mirror.snapshot_state(),
            UniformRandom::new(cfg(0.001, 100)).snapshot_state(),
            "lookahead must not advance any stream"
        );
    }

    #[test]
    fn checkpoint_restore_reproduces_the_future_stream() {
        let mut src = UniformRandom::new_copies(cfg(0.7, 200));
        for m in 0..16 {
            let _ = drain(&mut src, m, 500);
        }
        let bytes = src.snapshot_state().expect("uniform sources checkpoint");
        let mut restored = UniformRandom::new_copies(cfg(0.7, 200));
        assert!(restored.restore_state(&bytes));
        for m in 0..16 {
            for now in 500..1500 {
                assert_eq!(src.poll(m, now), restored.poll(m, now));
            }
        }
    }

    #[test]
    fn corrupt_checkpoint_refused_and_state_untouched() {
        let mut src = UniformRandom::new(cfg(0.5, 100));
        let _ = drain(&mut src, 0, 200);
        let mut bytes = src.snapshot_state().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let mut target = UniformRandom::new(cfg(0.5, 100));
        let before = target.snapshot_state().unwrap();
        assert!(!target.restore_state(&bytes));
        assert_eq!(target.snapshot_state().unwrap(), before);
    }

    #[test]
    fn checkpoint_from_a_different_config_refused() {
        let src = UniformRandom::new(cfg(0.5, 100));
        let bytes = src.snapshot_state().unwrap();
        // Different seed, copies flag, and load all change the shape.
        let mut other = UniformRandom::new(UniformConfig {
            seed: 99,
            ..cfg(0.5, 100)
        });
        assert!(!other.restore_state(&bytes));
        let mut copies = UniformRandom::new_copies(cfg(0.5, 100));
        assert!(!copies.restore_state(&bytes));
    }
}
