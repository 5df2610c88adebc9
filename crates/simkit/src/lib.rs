//! # simkit — cycle-accurate simulation primitives
//!
//! This crate provides the small, dependency-free substrate on which the
//! PATRONoC NoC simulators (`patronoc` and `packetnoc`) are built:
//!
//! * [`Fifo`] — a bounded queue with *two-phase* (snapshot) semantics that
//!   models a registered valid/ready channel: values pushed in a cycle become
//!   visible to the consumer only in the next cycle, and slots freed by a pop
//!   become available to the producer only in the next cycle. With a depth of
//!   two this behaves exactly like a full-throughput AXI register slice
//!   ("cut" in the paper's Table I).
//! * [`RoundRobinArbiter`] — the work-conserving round-robin arbiter used at
//!   every crossbar output port.
//! * [`Rng`] — a deterministic xoshiro256** PRNG so every simulation is
//!   exactly reproducible from its seed.
//! * [`stats`] — counters, log-2 histograms and a windowed throughput
//!   meter.
//! * [`sched`] — the [`ActiveSet`] behind activity-driven stepping: a
//!   deterministic (ascending-index) set of live component indices so the
//!   engines only touch non-quiescent hardware each cycle.
//! * [`slab`] — the generational [`Slab`] arena (+ typed [`Handle`]s and
//!   intrusive [`HandleQueue`]s) that holds both engines' in-flight
//!   transactions: allocated once at injection, flowing by handle, freed
//!   on retirement — no per-cycle heap traffic.
//! * [`watchdog`] — the [`ProgressWatchdog`] both engines arm around
//!   their run loops to turn protocol deadlocks into panics.
//! * [`horizon`] — the [`Horizon`] next-event contract behind
//!   event-horizon time skipping: quiescent engines jump `now` straight
//!   to the earliest cycle anything observable can happen.
//! * [`pool`] — a scoped worker pool: [`pool::scope_map`] fans independent
//!   simulation points across threads with index-ordered, serial-identical
//!   results, and [`pool::crew_scope`] keeps a fixed worker crew alive for
//!   the per-cycle fork/join of a region-sharded simulation.
//! * [`region`] — the deterministic mesh partitioner ([`region::RegionMap`])
//!   and [`region::split_front`], which cuts each region's `&mut` part off
//!   a component array, behind region-sharded (multi-threaded,
//!   bit-identical) single-simulation execution.
//! * [`report`] — the unified [`SimReport`] / [`StopReason`] every NoC
//!   engine returns, so comparison harnesses handle one result shape.
//! * [`json`] — a minimal hand-rolled JSON writer for machine-readable
//!   results and scenario serialization (no crates.io access, no serde).
//! * [`snap`] — the versioned binary snapshot codec behind
//!   `Engine::snapshot`/`restore` checkpointing of the simulated state:
//!   shortest-form varints, length-prefixed sections, an FNV-1a digest
//!   trailer verified before any parsing, and [`snap::DecodeLimits`]
//!   bounds on untrusted bytes.
//!
//! ## Two-phase discipline
//!
//! A simulation cycle proceeds as:
//!
//! 1. call [`Fifo::begin_cycle`] on every channel (snapshot occupancy),
//! 2. let every component observe (`peek`/`can_push`) and act (`push`/`pop`)
//!    in *any* order — the snapshot makes results order-independent,
//! 3. advance the cycle counter.
//!
//! ```
//! use simkit::Fifo;
//!
//! let mut ch: Fifo<u32> = Fifo::new(2);
//! ch.begin_cycle();
//! ch.push(7).unwrap();
//! assert!(ch.pop().is_none()); // not visible until next cycle (registered)
//! ch.begin_cycle();
//! assert_eq!(ch.pop(), Some(7));
//! ```
//!

pub mod arbiter;
pub mod fifo;
pub mod horizon;
pub mod json;
#[allow(
    unsafe_code,
    reason = "the worker crew; ARCHITECTURE.md \"Region-sharded execution\" says why"
)]
pub mod pool;
pub mod region;
pub mod report;
pub mod rng;
pub mod sched;
pub mod slab;
pub mod snap;
pub mod stats;
pub mod watchdog;

pub use arbiter::RoundRobinArbiter;
pub use fifo::{Fifo, PushError};
pub use horizon::Horizon;
pub use json::Json;
pub use region::RegionMap;
pub use report::{SimReport, StopReason};
pub use rng::Rng;
pub use sched::ActiveSet;
pub use slab::{Handle, HandleQueue, Slab, SlabStats};
pub use stats::{Histogram, ThroughputMeter};
pub use watchdog::ProgressWatchdog;

/// Simulation time in clock cycles.
///
/// All PATRONoC evaluations in the paper run endpoints and NoC at a single
/// 1 GHz clock, so one cycle equals one nanosecond when converting to
/// bytes-per-second throughput (see [`stats::ThroughputMeter`]).
pub type Cycle = u64;

/// Clock frequency assumed throughout the paper's evaluation (1 GHz).
pub const CLOCK_HZ: f64 = 1.0e9;
