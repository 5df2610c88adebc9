//! Build meshes of different shapes from the same crosspoint — the
//! modularity §II claims — and verify the routing is deadlock-free before
//! simulating. The `Scenario` builder derives master/slave counts from
//! each topology, so the loop body never mentions node counts.
//!
//! ```sh
//! cargo run --release --example custom_topology
//! ```
//!
//! `EXAMPLE_QUICK=1` shrinks the window for smoke runs (CI).

use patronoc::routing::validate_deadlock_free;
use patronoc::{RoutingAlgorithm, Topology};
use scenario::{Scenario, TrafficSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let window: u64 = if std::env::var_os("EXAMPLE_QUICK").is_some() {
        8_000
    } else {
        50_000
    };
    for topo in [
        Topology::mesh4x4(),
        Topology { cols: 8, rows: 2 },
        Topology { cols: 16, rows: 1 },
    ] {
        // The channel-dependency-graph check the mesh's YX routing passes
        // by construction.
        validate_deadlock_free(topo, RoutingAlgorithm::YxDimensionOrder)
            .map_err(|cycle| format!("{topo}: dependency cycle {cycle:?}"))?;

        let report = Scenario::patronoc()
            .topology(topo)
            .data_width(64)
            .traffic(TrafficSpec::uniform_copies(0.8, 2048))
            .warmup(10_000)
            .window(window)
            .seed(11)
            .run()?;
        println!(
            "{topo:<14} deadlock-free ✓   {:7.2} GiB/s, mean latency {:5.1} cycles",
            report.throughput_gib_s, report.mean_latency
        );
    }
    Ok(())
}
