//! # axi — an AXI4 protocol model for NoC simulation
//!
//! PATRONoC's central design decision is to keep the **AXI protocol
//! end-to-end**: the NoC's links are full AXI interfaces (five independent
//! channels — AW, W, B, AR, R — with bursts, multiple outstanding
//! transactions and ID-based ordering) instead of a serial packet format that
//! requires protocol translation at every endpoint.
//!
//! This crate models the protocol layer the simulator needs:
//!
//! * [`params::AxiParams`] / [`params::ConfigError`] — the design-time
//!   parameter space of Table I (address width, data width, ID width,
//!   maximum outstanding transactions) with validation.
//! * [`burst`] — `INCR` burst descriptors, the only burst type DMA traffic
//!   uses: beat geometry and the AXI legality rules (4 KiB boundary,
//!   ≤256 beats).
//! * [`split`] — splitting an arbitrarily long DMA transfer into a sequence
//!   of AXI-compliant bursts, exactly what the paper's DMA-engine RTL model
//!   does ("adhering to address boundaries and max number of beats", §IV).
//! * [`id`] — ID remapping tables (`axi_id_remap`) that give crosspoints
//!   isomorphic ports, and outstanding-transaction accounting with same-ID
//!   ordering.
//! * [`check`] — a burst-sequence checker the unit and property tests hold
//!   the splitter to.
//!
//! ## Example: split a 10 KiB DMA transfer into legal bursts
//!
//! ```
//! use axi::split::split_transfer;
//!
//! // 10 KiB starting at a non-aligned address, 64-bit data bus.
//! let bursts = split_transfer(0x1000_0004, 10 * 1024, 8);
//! for b in &bursts {
//!     assert!(b.num_beats() <= 256);
//!     assert!(!b.crosses_4k_boundary());
//! }
//! let total: u64 = bursts.iter().map(|b| b.payload_bytes()).sum();
//! assert_eq!(total, 10 * 1024);
//! ```

pub mod burst;
pub mod check;
pub mod id;
pub mod params;
pub mod split;

pub use burst::Burst;
pub use id::{AxiId, IdRemapper};
pub use params::{AxiParams, ConfigError};
pub use split::{split_transfer, SplitCursor};

/// The AXI4 maximum number of beats in one `INCR` burst.
pub const MAX_INCR_BEATS: u64 = 256;

/// AXI bursts must not cross this address boundary (4 KiB).
pub const BOUNDARY_4K: u64 = 4096;
