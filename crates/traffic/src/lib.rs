//! # traffic — workload generation for NoC evaluation
//!
//! The PATRONoC paper evaluates the NoC with three classes of traffic
//! (§IV), all reproduced by this crate:
//!
//! * [`uniform`] — **uniform random traffic** with Poisson arrivals and
//!   randomized DMA burst lengths (Fig. 4),
//! * [`synthetic`] — the three locality-controlled **synthetic patterns** of
//!   Fig. 5: all-global access, max-two-hop access and max-single-hop access
//!   (Fig. 6),
//! * [`dnn`] — **DNN workload traffic**: transfer traces generated from a
//!   ResNet-34 (90 % channel-shrink) layer graph deployed as distributed
//!   training, layer-parallel convolution, or pipelined (depth-first)
//!   convolution on 16 cores (Fig. 7/8). This substitutes for the paper's
//!   GVSoC full-system traces: the NoC only observes `(source, destination,
//!   size, dependency)` tuples, which we generate from the same workload
//!   structure.
//!
//! All generators implement [`TrafficSource`], the interface both NoC
//! simulators (`patronoc` and the `packetnoc` baseline) pull transfers from.
//! Beside it sits the other half of that seam: the [`Engine`] trait both
//! simulators implement, and [`drive`], the one cycle loop they run.
//!
//! ```
//! use traffic::{UniformConfig, UniformRandom, TrafficSource};
//!
//! let cfg = UniformConfig {
//!     masters: 16,
//!     slaves: (0..16).collect(),
//!     load: 0.5,
//!     bytes_per_cycle: 4.0, // slim NoC: 32-bit data width
//!     max_transfer: 100,
//!     read_fraction: 0.5,
//!     region_size: 1 << 24,
//!     seed: 1,
//! };
//! let mut src = UniformRandom::new(cfg);
//! // The simulator polls each master every cycle:
//! let _maybe_transfer = src.poll(0, 0);
//! ```

#![forbid(unsafe_code)]

pub(crate) mod chkpt;
pub mod dnn;
pub mod engine;
pub mod source;
pub mod synthetic;
pub mod uniform;

pub use dnn::{DnnTraffic, DnnWorkload};
pub use engine::{drive, Engine};
pub use source::{TrafficSource, Transfer, TransferKind};
pub use synthetic::{SyntheticConfig, SyntheticPattern, SyntheticTraffic};
pub use uniform::{UniformConfig, UniformRandom};
