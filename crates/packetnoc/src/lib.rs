//! # packetnoc — a classical packet-based wormhole NoC (baseline)
//!
//! The PATRONoC paper sets its baseline with Noxim, "an open, extensible and
//! cycle-accurate network on chip simulator": a 4×4 mesh with default XY
//! routing, 32-bit flits and eight flits per packet, in two configurations —
//! a compact one (1 virtual channel, 4-flit buffers) and a high-performance
//! one (4 VCs, 32-flit buffers) (§IV-A, Fig. 4).
//!
//! This crate is that baseline, rebuilt from first principles (Noxim is
//! C++/SystemC and unavailable offline):
//!
//! * [`router`] — input-buffered wormhole routers with virtual channels,
//!   credit-accurate backpressure, XY routing and round-robin switch
//!   allocation;
//! * [`ni`] — the network interface that performs the **protocol
//!   translation** classical NoCs need at every endpoint: DMA transfers are
//!   chopped into fixed-length packets (default: eight 32-bit flits carrying
//!   one bus word of payload — the word-granular transaction framing that
//!   packet-based serial protocols impose, and the overhead the paper's
//!   whole argument is about);
//! * [`engine`] — the mesh simulator driven by the same
//!   [`traffic::TrafficSource`] stimulus as the PATRONoC engine, so both
//!   NoCs see byte-identical workloads.
//!
//! ```
//! use packetnoc::{PacketNocConfig, PacketNocSim};
//! use traffic::{Engine, UniformConfig, UniformRandom};
//!
//! let cfg = PacketNocConfig::noxim_high_performance(); // 4 VCs, 32 flits
//! let mut sim = PacketNocSim::new(cfg);
//! let mut src = UniformRandom::new(UniformConfig {
//!     masters: 16,
//!     slaves: (0..16).collect(),
//!     load: 0.5,
//!     bytes_per_cycle: 4.0,
//!     max_transfer: 32,
//!     read_fraction: 0.0,
//!     region_size: 1 << 20,
//!     seed: 3,
//! });
//! let report = sim.run(&mut src, 10_000, 2_000);
//! assert!(report.throughput_gib_s > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod ni;
pub mod router;
pub mod shard;
pub(crate) mod snapcodec;
pub mod txn;

pub use config::PacketNocConfig;
pub use engine::PacketNocSim;
pub use router::{Flit, FlitKind};
pub use simkit::{SimReport, StopReason};
pub use txn::{TxHandle, TxRecord};
