//! Schema guard for `BENCH_perf.json`: the per-mode objects the perf
//! micro-sweep emits (and CI uploads as the `bench-results` artifact)
//! must carry the slab-allocation telemetry fields, present and non-zero,
//! next to the existing speed fields. Runs the exact production code
//! (`bench::perf`) on a reduced window.

use bench::json::Json;
use bench::perf::{mode_json, run_packet, run_patronoc, telemetry_is_live};

/// Looks up a key in a JSON object.
fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    match json {
        Json::Obj(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("BENCH_perf.json mode object lost the `{key}` field")),
        other => panic!("expected an object, got {other:?}"),
    }
}

#[test]
fn perf_mode_json_carries_live_allocation_telemetry() {
    // A mid-load point on a small window: cheap, but every engine moves
    // real traffic, so the telemetry must be non-zero.
    for (name, result) in [
        ("patronoc", run_patronoc(0.3, 5_000, 1_000, false)),
        ("packet", run_packet(0.3, 5_000, 1_000, false)),
    ] {
        assert!(
            telemetry_is_live(&result),
            "{name}: telemetry dead: high_water {}, allocs/kcyc {}",
            result.report.slab_high_water,
            result.report.allocs_per_kilocycle
        );
        let json = mode_json(&result);
        match field(&json, "slab_high_water") {
            Json::U64(v) => assert!(*v > 0, "{name}: zero slab_high_water"),
            other => panic!("{name}: slab_high_water has wrong type: {other:?}"),
        }
        match field(&json, "allocs_per_kilocycle") {
            Json::F64(v) => assert!(*v > 0.0, "{name}: zero allocs_per_kilocycle"),
            other => panic!("{name}: allocs_per_kilocycle has wrong type: {other:?}"),
        }
        // The pre-existing speed fields survive alongside, plus the
        // time-skip telemetry.
        for key in ["gib_s", "cycles_per_sec", "work_items"] {
            let _ = field(&json, key);
        }
        match field(&json, "cycles_skipped") {
            Json::U64(_) => {}
            other => panic!("{name}: cycles_skipped has wrong type: {other:?}"),
        }
    }
}

#[test]
fn allocation_telemetry_is_identical_across_stepping_modes() {
    // Unlike wall clock, slab telemetry is deterministic: the active and
    // full-sweep paths inject and retire the same transactions, so their
    // arena counters must agree exactly (even though the field is excluded
    // from `SimReport::eq`, which covers simulated results only).
    for runner in [run_patronoc, run_packet] {
        let active = runner(0.3, 5_000, 1_000, false);
        let full = runner(0.3, 5_000, 1_000, true);
        assert_eq!(active.report.slab_high_water, full.report.slab_high_water);
        assert_eq!(
            active.report.allocs_per_kilocycle.to_bits(),
            full.report.allocs_per_kilocycle.to_bits()
        );
    }
}
