//! Top-level re-exports for the PATRONoC reproduction workspace.

pub use axi;
pub use packetnoc;
pub use patronoc;
pub use physical;
pub use scenario;
pub use simkit;
pub use traffic;
