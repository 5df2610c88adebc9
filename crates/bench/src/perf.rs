//! Shared machinery of the simulator-performance micro-sweep
//! (`bin/perf.rs`): point runners, the per-mode JSON shape of
//! `BENCH_perf.json`, and the telemetry liveness check — factored here so
//! the schema-guard test in `tests/perf_schema.rs` exercises exactly the
//! code the CI artifact is produced by.

use crate::json::Json;
use crate::{noxim_uniform_scenario, patronoc_uniform_scenario};
use scenario::{Engine, PacketProfile};
use simkit::SimReport;

/// Fixed seed of the perf points (the workload is not the variable here).
pub const PERF_SEED: u64 = 0xBE2F;

/// Everything one (engine, load, mode) run yields.
pub struct ModeResult {
    /// The unified report (carries wall-clock and slab telemetry).
    pub report: SimReport,
    /// The deterministic scheduler work counter.
    pub work_items: u64,
}

/// A point runner: `(load, window, warmup, full_sweep) → result`. With
/// `full_sweep` set the engine steps every component every cycle and never
/// skips idle time (the reference discipline); otherwise it is
/// activity-driven with event-horizon time skipping.
pub type Runner = fn(f64, u64, u64, bool) -> ModeResult;

/// One PATRONoC perf point (uniform copies on the slim 4×4).
#[must_use]
pub fn run_patronoc(load: f64, window: u64, warmup: u64, full_sweep: bool) -> ModeResult {
    let sc = patronoc_uniform_scenario(32, load, 1_000, window, warmup, PERF_SEED);
    let mut cfg = sc.noc_config().expect("valid perf scenario");
    cfg.full_sweep = full_sweep;
    let mut sim = patronoc::NocSim::new(cfg).expect("valid configuration");
    let mut src = sc.build_source();
    let report = sim.run(&mut *src, warmup + window, warmup);
    ModeResult {
        report,
        work_items: sim.work_items(),
    }
}

/// One packet-baseline perf point (uniform traffic, compact profile).
#[must_use]
pub fn run_packet(load: f64, window: u64, warmup: u64, full_sweep: bool) -> ModeResult {
    let sc = noxim_uniform_scenario(PacketProfile::Compact, load, 100, window, warmup, PERF_SEED);
    let mut cfg = PacketProfile::Compact.base_config();
    cfg.full_sweep = full_sweep;
    let mut sim = packetnoc::PacketNocSim::new(cfg);
    let mut src = sc.build_source();
    let report = sim.run(&mut *src, warmup + window, warmup);
    ModeResult {
        report,
        work_items: sim.work_items(),
    }
}

/// The per-mode object of one `BENCH_perf.json` point — including the
/// slab-allocation telemetry (`slab_high_water`, `allocs_per_kilocycle`)
/// the schema guard asserts present and non-zero.
#[must_use]
pub fn mode_json(m: &ModeResult) -> Json {
    Json::obj(vec![
        ("gib_s", Json::F64(m.report.throughput_gib_s)),
        ("cycles_per_sec", Json::F64(m.report.cycles_per_sec)),
        ("work_items", Json::U64(m.work_items)),
        ("slab_high_water", Json::U64(m.report.slab_high_water)),
        (
            "allocs_per_kilocycle",
            Json::F64(m.report.allocs_per_kilocycle),
        ),
        ("cycles_skipped", Json::U64(m.report.cycles_skipped)),
    ])
}

/// Whether a mode's allocation telemetry is live: any point that moved
/// traffic must have allocated at least one in-flight record (high-water
/// ≥ 1) at a non-zero allocation rate.
#[must_use]
pub fn telemetry_is_live(m: &ModeResult) -> bool {
    m.report.slab_high_water > 0 && m.report.allocs_per_kilocycle > 0.0
}
