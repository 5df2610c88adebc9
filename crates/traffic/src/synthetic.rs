//! Synthetic locality-controlled traffic patterns (paper Fig. 5, Fig. 6).
//!
//! Three patterns on an N×M mesh, with masters at every node:
//!
//! * **All global access** — every master targets a *single* slave endpoint
//!   near the mesh center (endpoint (2,1) on the 4×4 mesh), modelling a
//!   single shared memory tile.
//! * **Max two-hop access** — slaves at the four center endpoints
//!   ((1,1), (1,2), (2,1), (2,2) on 4×4), modelling distributed shared
//!   L2/L1; each master only targets slaves at most two hops away.
//! * **Max single-hop access** — slaves at the eight edge (non-corner)
//!   endpoints; each master only targets slaves at most one hop away,
//!   modelling DNN schedules that place communicating kernels on nearby
//!   cores.
//!
//! Transfer lengths and arrival timing use the same randomized-burst Poisson
//! process as [`crate::uniform`].

use crate::chkpt;
use crate::source::{arrival_horizon, TrafficSource, Transfer, TransferKind};
use simkit::snap::{DecodeLimits, Decoder, Encoder};
use simkit::{Cycle, Horizon, Rng};

/// The three locality-controlled access patterns of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyntheticPattern {
    /// All masters → one central slave.
    AllGlobal,
    /// Four central slaves, destinations at most two hops away.
    MaxTwoHop,
    /// Eight edge slaves, destinations at most one hop away.
    MaxSingleHop,
}

impl SyntheticPattern {
    /// The slave endpoints this pattern instantiates on a `cols`×`rows`
    /// mesh (node index = `y * cols + x`).
    ///
    /// # Panics
    ///
    /// Panics if the mesh is smaller than 3×3 (the edge/center structure of
    /// the patterns needs at least that).
    #[must_use]
    pub fn slave_nodes(self, cols: usize, rows: usize) -> Vec<usize> {
        assert!(cols >= 3 && rows >= 3, "pattern needs at least a 3x3 mesh");
        let node = |x: usize, y: usize| y * cols + x;
        match self {
            Self::AllGlobal => vec![node(cols / 2, (rows - 1) / 2)],
            Self::MaxTwoHop => {
                let xs = [(cols - 1) / 2, cols / 2];
                let ys = [(rows - 1) / 2, rows / 2];
                let mut v: Vec<usize> = ys
                    .iter()
                    .flat_map(|&y| xs.iter().map(move |&x| node(x, y)))
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            }
            Self::MaxSingleHop => {
                let mut v = Vec::new();
                for y in 0..rows {
                    for x in 0..cols {
                        let on_edge = x == 0 || y == 0 || x == cols - 1 || y == rows - 1;
                        let corner = (x == 0 || x == cols - 1) && (y == 0 || y == rows - 1);
                        if on_edge && !corner {
                            v.push(node(x, y));
                        }
                    }
                }
                v
            }
        }
    }

    /// The hop-distance restriction the pattern imposes on destination
    /// choice (`None` = unrestricted).
    fn max_hops(self) -> Option<u32> {
        match self {
            Self::AllGlobal => None,
            Self::MaxTwoHop => Some(2),
            Self::MaxSingleHop => Some(1),
        }
    }

    /// Each master's eligible destinations on a `cols`×`rows` mesh, indexed
    /// by master node: the pattern's slaves within its hop limit. An empty
    /// list means the pattern leaves that master no slave in reach, as
    /// two-hop does once either side exceeds 4 nodes, and single-hop once
    /// both sides reach 5.
    ///
    /// # Panics
    ///
    /// Panics if the mesh is smaller than 3×3, like
    /// [`slave_nodes`](Self::slave_nodes).
    #[must_use]
    pub fn eligible_slaves(self, cols: usize, rows: usize) -> Vec<Vec<usize>> {
        let slaves = self.slave_nodes(cols, rows);
        (0..cols * rows)
            .map(|m| {
                slaves
                    .iter()
                    .copied()
                    .filter(|&s| {
                        self.max_hops()
                            .is_none_or(|h| hop_distance(cols, m, s) <= h)
                    })
                    .collect()
            })
            .collect()
    }
}

/// Configuration for [`SyntheticTraffic`].
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Mesh width.
    pub cols: usize,
    /// Mesh height.
    pub rows: usize,
    /// Which Fig. 5 pattern to generate.
    pub pattern: SyntheticPattern,
    /// Injected load in `(0, 1]` (1.0 = "maximum injected load", Fig. 6).
    pub load: f64,
    /// Payload bytes per beat (DW/8); defines load 1.0.
    pub bytes_per_cycle: f64,
    /// Maximum DMA transfer length in bytes.
    pub max_transfer: u64,
    /// Fraction of reads.
    pub read_fraction: f64,
    /// Per-endpoint address region size.
    pub region_size: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Synthetic pattern generator; masters at every mesh node.
#[derive(Debug, Clone)]
pub struct SyntheticTraffic {
    cfg: SyntheticConfig,
    /// Eligible destination list per master.
    eligible: Vec<Vec<usize>>,
    per_master: Vec<(Rng, f64, u64)>, // (rng, next_arrival, serial)
    mean_gap: f64,
}

fn hop_distance(cols: usize, a: usize, b: usize) -> u32 {
    let (ax, ay) = (a % cols, a / cols);
    let (bx, by) = (b % cols, b / cols);
    (ax.abs_diff(bx) + ay.abs_diff(by)) as u32
}

impl SyntheticTraffic {
    /// Creates the generator, computing each master's eligible destination
    /// set from the pattern's slave placement and hop restriction.
    ///
    /// # Panics
    ///
    /// Panics if a master has no eligible destination (see
    /// [`SyntheticPattern::eligible_slaves`]) or if the configuration is
    /// degenerate.
    #[must_use]
    pub fn new(cfg: SyntheticConfig) -> Self {
        assert!(cfg.load > 0.0, "load must be positive");
        assert!(cfg.max_transfer > 0, "max transfer must be positive");
        let n = cfg.cols * cfg.rows;
        let eligible = cfg.pattern.eligible_slaves(cfg.cols, cfg.rows);
        if let Some(m) = eligible.iter().position(Vec::is_empty) {
            panic!("master {m} has no eligible slave");
        }
        let mean_size = (1.0 + cfg.max_transfer as f64) / 2.0;
        let mean_gap = mean_size / (cfg.load * cfg.bytes_per_cycle);
        let root = Rng::new(cfg.seed);
        let per_master = (0..n)
            .map(|m| {
                let mut rng = root.fork(m as u64 + 1);
                let first = rng.gen_f64() * mean_gap;
                (rng, first, 0u64)
            })
            .collect();
        Self {
            cfg,
            eligible,
            per_master,
            mean_gap,
        }
    }

    /// Configuration fingerprint carried in the checkpoint header: a
    /// source-type tag plus every field that shapes the generated stream
    /// (the eligible sets derive from pattern and mesh dimensions).
    fn shape(&self) -> u64 {
        let cfg = &self.cfg;
        let mut e = Encoder::new(0, 0);
        e.byte(2); // source type: synthetic pattern
        e.usize(cfg.cols);
        e.usize(cfg.rows);
        match cfg.pattern {
            SyntheticPattern::AllGlobal => e.byte(0),
            SyntheticPattern::MaxTwoHop => e.byte(1),
            SyntheticPattern::MaxSingleHop => e.byte(2),
        }
        e.f64(cfg.load);
        e.f64(cfg.bytes_per_cycle);
        e.u64(cfg.max_transfer);
        e.f64(cfg.read_fraction);
        e.u64(cfg.region_size);
        e.u64(cfg.seed);
        e.digest()
    }
}

impl TrafficSource for SyntheticTraffic {
    fn poll(&mut self, master: usize, now: Cycle) -> Option<Transfer> {
        let (rng, next_arrival, serial) = &mut self.per_master[master];
        if *next_arrival > now as f64 {
            return None;
        }
        let u = rng.gen_f64().max(f64::MIN_POSITIVE);
        *next_arrival += -u.ln() * self.mean_gap;
        let bytes = rng.gen_range_inclusive(1, self.cfg.max_transfer);
        let list = &self.eligible[master];
        let dst = list[rng.gen_range(list.len() as u64) as usize];
        let max_offset = self.cfg.region_size.saturating_sub(bytes);
        let offset = if max_offset == 0 {
            0
        } else {
            rng.gen_range(max_offset)
        };
        let kind = if rng.gen_bool(self.cfg.read_fraction) {
            TransferKind::Read
        } else {
            TransferKind::Write
        };
        *serial += 1;
        Some(Transfer {
            id: (master as u64) << 48 | *serial,
            dst,
            offset,
            bytes,
            kind,
        })
    }

    fn next_arrival(&self, _now: Cycle) -> Horizon {
        // Like `UniformRandom`, each master's Poisson clock is
        // materialized eagerly, so the horizon is a pure read of the
        // earliest clock — no random stream is touched.
        self.per_master
            .iter()
            .map(|(_, next_arrival, _)| arrival_horizon(*next_arrival))
            .fold(Horizon::Never, Horizon::min)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut e = Encoder::new(chkpt::SNAP_KIND, self.shape());
        for (rng, next_arrival, serial) in &self.per_master {
            chkpt::encode_master(&mut e, rng, *next_arrival, *serial);
        }
        Some(e.finish())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        let Ok(mut d) = Decoder::new(
            bytes,
            chkpt::SNAP_KIND,
            self.shape(),
            DecodeLimits::default(),
        ) else {
            return false;
        };
        let mut fresh = Vec::with_capacity(self.per_master.len());
        for _ in &self.per_master {
            let Ok(state) = chkpt::decode_master(&mut d) else {
                return false;
            };
            fresh.push(state);
        }
        if d.finish().is_err() {
            return false;
        }
        self.per_master = fresh;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(pattern: SyntheticPattern) -> SyntheticConfig {
        SyntheticConfig {
            cols: 4,
            rows: 4,
            pattern,
            load: 1.0,
            bytes_per_cycle: 4.0,
            max_transfer: 1000,
            read_fraction: 0.5,
            region_size: 1 << 24,
            seed: 11,
        }
    }

    /// Drain all arrivals at `master` for `cycles` cycles and return them.
    fn drain(src: &mut SyntheticTraffic, master: usize, cycles: u64) -> Vec<Transfer> {
        let mut out = Vec::new();
        for now in 0..cycles {
            while let Some(t) = src.poll(master, now) {
                out.push(t);
            }
        }
        out
    }

    /// Whether `pattern` leaves some master of a `cols`×`rows` mesh with no
    /// eligible slave.
    fn leaves_a_master_unreached(pattern: SyntheticPattern, cols: usize, rows: usize) -> bool {
        pattern
            .eligible_slaves(cols, rows)
            .iter()
            .any(Vec::is_empty)
    }

    #[test]
    fn all_global_single_center_slave() {
        // Paper: endpoint (2, 1) on the 4×4 mesh.
        let slaves = SyntheticPattern::AllGlobal.slave_nodes(4, 4);
        assert_eq!(slaves, vec![6]); // (x=2, y=1) → 1·4 + 2
    }

    #[test]
    fn two_hop_center_four() {
        // Paper: (1,1), (1,2), (2,1), (2,2).
        let slaves = SyntheticPattern::MaxTwoHop.slave_nodes(4, 4);
        assert_eq!(slaves, vec![5, 6, 9, 10]);
    }

    #[test]
    fn single_hop_eight_edges() {
        let slaves = SyntheticPattern::MaxSingleHop.slave_nodes(4, 4);
        assert_eq!(slaves, vec![1, 2, 4, 7, 8, 11, 13, 14]);
    }

    #[test]
    fn two_hop_destinations_within_two_hops() {
        let eligible = SyntheticPattern::MaxTwoHop.eligible_slaves(4, 4);
        for (m, list) in eligible.iter().enumerate() {
            for &d in list {
                assert!(hop_distance(4, m, d) <= 2, "master {m} → {d}");
            }
        }
    }

    #[test]
    fn single_hop_destinations_within_one_hop() {
        let eligible = SyntheticPattern::MaxSingleHop.eligible_slaves(4, 4);
        assert!(eligible.iter().all(|list| !list.is_empty()));
        let mut src = SyntheticTraffic::new(cfg(SyntheticPattern::MaxSingleHop));
        for now in 0..1000 {
            for m in 0..16 {
                while let Some(t) = src.poll(m, now) {
                    assert!(hop_distance(4, m, t.dst) <= 1);
                }
            }
        }
    }

    #[test]
    fn all_global_targets_only_center() {
        let mut src = SyntheticTraffic::new(cfg(SyntheticPattern::AllGlobal));
        for now in 0..200 {
            for m in 0..16 {
                while let Some(t) = src.poll(m, now) {
                    assert_eq!(t.dst, 6);
                }
            }
        }
    }

    #[test]
    fn corner_master_has_single_hop_choice() {
        // Corner (0,0) = node 0: neighbors (1,0)=1 and (0,1)=4 are slaves.
        let eligible = SyntheticPattern::MaxSingleHop.eligible_slaves(4, 4);
        assert_eq!(eligible[0], vec![1, 4]);
    }

    #[test]
    fn slave_node_itself_allowed_in_single_hop() {
        // Node 1 hosts a slave; distance 0 ≤ 1, so it may target itself
        // (local-port traffic, Fig. 5 inset).
        let eligible = SyntheticPattern::MaxSingleHop.eligible_slaves(4, 4);
        assert!(eligible[1].contains(&1));
    }

    #[test]
    fn all_global_reaches_every_master_on_any_mesh() {
        for cols in 3..=9 {
            for rows in 3..=9 {
                assert!(
                    !leaves_a_master_unreached(SyntheticPattern::AllGlobal, cols, rows),
                    "{cols}x{rows}"
                );
            }
        }
    }

    #[test]
    fn two_hop_reach_ends_once_a_side_exceeds_four_nodes() {
        for cols in 3..=9 {
            for rows in 3..=9 {
                assert_eq!(
                    leaves_a_master_unreached(SyntheticPattern::MaxTwoHop, cols, rows),
                    cols > 4 || rows > 4,
                    "{cols}x{rows}"
                );
            }
        }
    }

    #[test]
    fn single_hop_reach_ends_once_both_sides_reach_five_nodes() {
        for cols in 3..=9 {
            for rows in 3..=9 {
                assert_eq!(
                    leaves_a_master_unreached(SyntheticPattern::MaxSingleHop, cols, rows),
                    cols >= 5 && rows >= 5,
                    "{cols}x{rows}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "master 0 has no eligible slave")]
    fn unreached_master_rejected() {
        // 5x3: the single two-hop slave sits at (2, 1), three hops from
        // the corner master (0, 0).
        let _ = SyntheticTraffic::new(SyntheticConfig {
            cols: 5,
            rows: 3,
            ..cfg(SyntheticPattern::MaxTwoHop)
        });
    }

    #[test]
    #[should_panic(expected = "load must be positive")]
    fn zero_load_rejected() {
        let _ = SyntheticTraffic::new(SyntheticConfig {
            load: 0.0,
            ..cfg(SyntheticPattern::AllGlobal)
        });
    }

    #[test]
    fn offered_load_matches_request() {
        let mut src = SyntheticTraffic::new(SyntheticConfig {
            load: 0.5,
            max_transfer: 100,
            ..cfg(SyntheticPattern::MaxSingleHop)
        });
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
    fn sizes_and_offsets_within_range() {
        let mut src = SyntheticTraffic::new(SyntheticConfig {
            region_size: 4096,
            ..cfg(SyntheticPattern::MaxTwoHop)
        });
        let transfers = drain(&mut src, 3, 10_000);
        assert!(!transfers.is_empty());
        for t in transfers {
            assert!((1..=1000).contains(&t.bytes));
            assert!(t.offset + t.bytes <= 4096);
        }
    }

    #[test]
    fn read_fraction_respected() {
        let mut src = SyntheticTraffic::new(SyntheticConfig {
            read_fraction: 0.25,
            max_transfer: 64,
            ..cfg(SyntheticPattern::MaxTwoHop)
        });
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
        let mut a = SyntheticTraffic::new(cfg(SyntheticPattern::MaxSingleHop));
        let mut b = SyntheticTraffic::new(cfg(SyntheticPattern::MaxSingleHop));
        assert_eq!(drain(&mut a, 5, 5000), drain(&mut b, 5, 5000));
    }

    #[test]
    fn masters_are_decorrelated() {
        let mut src = SyntheticTraffic::new(cfg(SyntheticPattern::AllGlobal));
        let a = drain(&mut src, 0, 2000);
        let b = drain(&mut src, 1, 2000);
        assert_ne!(a.first().map(|t| t.bytes), b.first().map(|t| t.bytes));
    }

    #[test]
    fn ids_are_unique_and_carry_the_master() {
        let mut src = SyntheticTraffic::new(cfg(SyntheticPattern::MaxTwoHop));
        let transfers = drain(&mut src, 4, 5000);
        assert!(transfers.iter().all(|t| t.id >> 48 == 4));
        let mut ids: Vec<u64> = transfers.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), transfers.len());
    }

    #[test]
    #[should_panic(expected = "3x3")]
    fn tiny_mesh_rejected() {
        let _ = SyntheticPattern::AllGlobal.slave_nodes(2, 2);
    }

    #[test]
    fn next_arrival_bounds_the_first_poll() {
        let mut c = cfg(SyntheticPattern::MaxTwoHop);
        c.load = 0.001;
        let mut src = SyntheticTraffic::new(c);
        // Drain cycle 0, then the horizon must be future-dated and no poll
        // may fire before it.
        for m in 0..16 {
            while src.poll(m, 0).is_some() {}
        }
        let Horizon::At(h) = src.next_arrival(0) else {
            panic!("open-loop source is never exhausted")
        };
        assert!(h > 0, "post-drain horizon must be in the future");
        for now in 1..h.min(200) {
            for m in 0..16 {
                assert_eq!(src.poll(m, now), None, "early fire at {now}");
            }
        }
    }

    #[test]
    fn checkpoint_restore_reproduces_the_future_stream() {
        let mut src = SyntheticTraffic::new(cfg(SyntheticPattern::MaxTwoHop));
        for now in 0..300 {
            for m in 0..16 {
                while src.poll(m, now).is_some() {}
            }
        }
        let bytes = src.snapshot_state().expect("synthetic sources checkpoint");
        let mut restored = SyntheticTraffic::new(cfg(SyntheticPattern::MaxTwoHop));
        assert!(restored.restore_state(&bytes));
        for now in 300..800 {
            for m in 0..16 {
                loop {
                    let (a, b) = (src.poll(m, now), restored.poll(m, now));
                    assert_eq!(a, b);
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn corrupt_checkpoint_refused_and_state_untouched() {
        let mut src = SyntheticTraffic::new(cfg(SyntheticPattern::MaxTwoHop));
        let _ = drain(&mut src, 0, 200);
        let mut bytes = src.snapshot_state().unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let mut target = SyntheticTraffic::new(cfg(SyntheticPattern::MaxTwoHop));
        let before = target.snapshot_state().unwrap();
        assert!(!target.restore_state(&bytes));
        assert_eq!(target.snapshot_state().unwrap(), before);
    }

    #[test]
    fn checkpoint_from_a_different_mesh_refused() {
        let src = SyntheticTraffic::new(cfg(SyntheticPattern::MaxTwoHop));
        let bytes = src.snapshot_state().unwrap();
        let mut shorter = SyntheticTraffic::new(SyntheticConfig {
            rows: 3,
            ..cfg(SyntheticPattern::MaxTwoHop)
        });
        assert!(!shorter.restore_state(&bytes));
    }

    #[test]
    fn checkpoint_from_a_different_pattern_refused() {
        let src = SyntheticTraffic::new(cfg(SyntheticPattern::AllGlobal));
        let bytes = src.snapshot_state().unwrap();
        let mut other = SyntheticTraffic::new(cfg(SyntheticPattern::MaxSingleHop));
        let before = other.snapshot_state().unwrap();
        assert!(!other.restore_state(&bytes));
        assert_eq!(other.snapshot_state().unwrap(), before);
    }
}
