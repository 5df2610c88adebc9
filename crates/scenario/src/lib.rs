//! # scenario — the unified simulation-facing API
//!
//! The paper's whole argument is a head-to-head between an AXI-native NoC
//! and a packet-switched baseline under identical workloads. This crate
//! makes that comparison a first-class citizen of the codebase:
//!
//! * [`Engine`] — one trait over both cycle-accurate engines
//!   ([`patronoc::NocSim`] and [`packetnoc::PacketNocSim`]): step, drain
//!   detection, measurement control, and a unified [`simkit::SimReport`]
//!   snapshot. Defined in `traffic` beside the `TrafficSource` it pulls
//!   stimulus from, and re-exported here.
//! * [`Scenario`] — a builder-style description of one run (engine ×
//!   topology × traffic × stop condition × seed) as a single inspectable,
//!   JSON-serializable value. Master/slave placement and bytes-per-cycle
//!   derive from the topology and engine, so no caller hardcodes the 4×4 /
//!   16-master evaluation instance.
//! * [`TrafficSpec`] / [`EngineSpec`] — the declarative vocabulary those
//!   values are made of.
//!
//! Sweep grids become grids of `Scenario` values (see `bench::sweep`), and
//! a serialized scenario is a whole run as data: the `.e2e` benchmark's
//! workloads are such documents, and any untrusted one is refused with a
//! [`ScenarioError`] rather than a panic.
//!
//! ```
//! use scenario::{PacketProfile, Scenario, TrafficSpec};
//!
//! // The same workload on both engines — the paper's Fig. 4 comparison
//! // at one grid point.
//! let patronoc = Scenario::patronoc()
//!     .traffic(TrafficSpec::uniform_copies(1.0, 1_000))
//!     .warmup(500)
//!     .window(2_000)
//!     .seed(11)
//!     .run()?;
//! let baseline = Scenario::packet(PacketProfile::HighPerformance)
//!     .traffic(TrafficSpec::uniform(1.0, 1_000))
//!     .warmup(500)
//!     .window(2_000)
//!     .seed(11)
//!     .run()?;
//! assert!(patronoc.throughput_gib_s > baseline.throughput_gib_s);
//! # Ok::<(), scenario::ScenarioError>(())
//! ```

#[allow(clippy::module_inception)] // `scenario::Scenario` is the crate's point
pub mod scenario;
pub mod spec;

pub use scenario::{Scenario, ScenarioError};
pub use spec::{EngineSpec, PacketProfile, TrafficSpec};
pub use traffic::Engine;
