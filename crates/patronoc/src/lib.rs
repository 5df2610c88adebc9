//! # patronoc — a parameterizable, fully AXI-compliant NoC
//!
//! A Rust reproduction of **PATRONoC** (DAC 2023): a homogeneous
//! network-on-chip whose links are complete AXI4 interfaces, built from a
//! single routing element — the crosspoint ([`Xp`]) of the pulp-platform
//! `axi` library (a configurable crossbar plus ID remappers) — and evaluated
//! here with a cycle-accurate simulator ([`NocSim`]).
//!
//! Keeping the AXI protocol end-to-end avoids the protocol-translation and
//! SERDES hardware classical packet-based NoCs need at every endpoint, and
//! natively supports **bursts**, **multiple outstanding transactions** and
//! **transaction ordering** — which is exactly what multi-accelerator DNN
//! platforms with DMA-driven traffic need.
//!
//! ## Quick start
//!
//! ```
//! use patronoc::{NocConfig, NocSim};
//! use traffic::{Engine, UniformConfig, UniformRandom};
//!
//! // The paper's slim 4×4 mesh (AXI_32_32_4, MOT = 8) under uniform
//! // random traffic with DMA bursts up to 1 KiB.
//! let cfg = NocConfig::slim_4x4();
//! let mut sim = NocSim::new(cfg)?;
//! let mut workload = UniformRandom::new(UniformConfig {
//!     masters: 16,
//!     slaves: (0..16).collect(),
//!     load: 0.9,
//!     bytes_per_cycle: 4.0,
//!     max_transfer: 1000,
//!     read_fraction: 0.5,
//!     region_size: 1 << 24,
//!     seed: 42,
//! });
//! let report = sim.run(&mut workload, 20_000, 5_000);
//! assert!(report.throughput_gib_s > 0.0);
//! # Ok::<(), axi::ConfigError>(())
//! ```
//!
//! ## Module map
//!
//! | module | paper artefact |
//! |---|---|
//! | [`topology`] | 2D mesh (Fig. 1) + torus/ring extensions (§II) |
//! | [`routing`] | source-based YX routing tables, deadlock validation (§II) |
//! | [`xp`] | the AXI crosspoint: XBAR + ID remappers (Fig. 1, bottom) |
//! | [`link`] | five-channel AXI links with register slices (Table I) |
//! | [`endpoint`] | DMA-engine masters, AXI memory slaves (§IV) |
//! | [`config`] | Table I parameter space |
//! | [`engine`] | the cycle-accurate evaluation testbench (§IV) |

#![forbid(unsafe_code)]

pub mod config;
pub mod endpoint;
pub mod engine;
pub mod link;
pub mod routing;
pub(crate) mod shard;
pub(crate) mod snapcodec;
pub mod topology;
pub mod xp;

pub use config::NocConfig;
pub use engine::NocSim;
pub use routing::{Connectivity, RoutingAlgorithm};
pub use simkit::{SimReport, StopReason};
pub use topology::{Dir, Topology, LOCAL, PORTS};
pub use xp::Xp;
