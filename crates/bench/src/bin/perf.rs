//! Simulator-performance micro-sweep: activity-driven stepping vs the
//! `full_sweep` reference, on both engines, at a near-idle and a
//! saturated operating point.
//!
//! This measures the *simulator*, not the simulated NoC: wall-clock
//! cycles/sec (`SimReport::cycles_per_sec`), the deterministic scheduler
//! work counter (links/buffers refreshed + components stepped), and the
//! slab-arena allocation telemetry (`slab_high_water`,
//! `allocs_per_kilocycle` — see `simkit::slab`). Both modes must produce
//! bit-identical simulation reports, and every point's allocation
//! telemetry must be present and non-zero — the binary exits non-zero on
//! either violation. Emits `BENCH_perf.json` via `--json` so CI tracks
//! the engine-speed trajectory alongside the simulated results.
//!
//! The active mode also skips time: it jumps `now` across provably idle
//! gaps, which is where the near-idle point's speedup comes from. Each
//! point records its `cycles_skipped`, and the binary exits non-zero when
//! the near-idle point skipped nothing — a dead-feature guard on the
//! horizon logic.
//!
//! Points run *serially* regardless of `--jobs`: parallel workers would
//! contend for cores and corrupt the wall-clock comparison.

use bench::defaults::{WARMUP, WINDOW};
use bench::json::Json;
use bench::perf::{mode_json, run_packet, run_patronoc, telemetry_is_live, Runner, StepMode};
use bench::sweep::SweepOptions;

fn main() {
    let opts = SweepOptions::parse();
    let (window, warmup) = if opts.quick {
        (60_000, 10_000)
    } else {
        (WINDOW, WARMUP)
    };
    // The lowest and highest injected loads of quick-mode fig4, plus a
    // deep-idle point in front: at 1e-3 a meaningful fraction of the wall
    // clock is real transfer work, so the near-pure-idle 1e-5 point is
    // where O(events) time skipping (vs O(cycles) stepping) is measured.
    let loads = [0.000_01, 0.001, 1.0];
    let engines: [(&str, Runner); 2] = [("patronoc", run_patronoc), ("packet-compact", run_packet)];

    println!("simulator performance: activity-driven vs full-sweep stepping");
    println!("window {window} cycles, warmup {warmup} cycles");
    println!(
        "{:>16} {:>8} {:>14} {:>14} {:>9} {:>10} {:>10} {:>12}",
        "engine",
        "load",
        "active cyc/s",
        "full cyc/s",
        "speedup",
        "work ratio",
        "slab high",
        "allocs/kcyc"
    );
    // Best-of-3 wall clock per mode: each repetition is a fresh engine on
    // the identical workload, so the reports must agree bit for bit and
    // the fastest run is the least-interfered measurement.
    let best_of = |runner: Runner, load: f64, mode: StepMode| {
        let mut best = runner(load, window, warmup, mode);
        for _ in 1..3 {
            let next = runner(load, window, warmup, mode);
            assert_eq!(
                next.report, best.report,
                "repeated identical runs must agree"
            );
            if next.report.cycles_per_sec > best.report.cycles_per_sec {
                best = next;
            }
        }
        best
    };
    let mut points = Vec::new();
    let mut all_identical = true;
    let mut all_telemetry_live = true;
    let mut skipping_live = true;
    for (name, runner) in engines {
        for &load in &loads {
            let full = best_of(runner, load, StepMode::full());
            let active = best_of(runner, load, StepMode::active());
            // Dead-feature guard: the near-idle point must actually skip —
            // a zero here means the horizon logic silently stopped firing.
            if load == loads[0] {
                skipping_live &= active.report.cycles_skipped > 0;
            }
            let identical = active.report == full.report;
            all_identical &= identical;
            let telemetry_live = telemetry_is_live(&active) && telemetry_is_live(&full);
            all_telemetry_live &= telemetry_live;
            let speedup = active.report.cycles_per_sec / full.report.cycles_per_sec;
            let work_ratio = full.work_items as f64 / active.work_items as f64;
            println!(
                "{:>16} {:>8.3} {:>14.0} {:>14.0} {:>8.1}x {:>9.1}x {:>10} {:>12.2}{}{}",
                name,
                load,
                active.report.cycles_per_sec,
                full.report.cycles_per_sec,
                speedup,
                work_ratio,
                active.report.slab_high_water,
                active.report.allocs_per_kilocycle,
                if identical { "" } else { "  RESULTS DIVERGED" },
                if telemetry_live {
                    ""
                } else {
                    "  TELEMETRY DEAD"
                }
            );
            points.push(Json::obj(vec![
                ("engine", Json::str(name)),
                ("load", Json::F64(load)),
                ("active", mode_json(&active)),
                ("full_sweep", mode_json(&full)),
                ("speedup", Json::F64(speedup)),
                ("work_ratio", Json::F64(work_ratio)),
                ("bit_identical", Json::Bool(identical)),
            ]));
        }
    }

    opts.emit_json(&Json::obj(vec![
        ("figure", Json::str("perf")),
        ("schema_version", Json::U64(5)),
        ("quick", Json::Bool(opts.quick)),
        ("window", Json::U64(window)),
        ("warmup", Json::U64(warmup)),
        ("points", Json::Arr(points)),
    ]));

    if !all_identical {
        eprintln!("error: active-set stepping diverged from the full sweep");
        std::process::exit(1);
    }
    if !all_telemetry_live {
        eprintln!("error: slab-allocation telemetry missing or zero in a perf point");
        std::process::exit(1);
    }
    if !skipping_live {
        eprintln!("error: the near-idle point skipped zero cycles");
        std::process::exit(1);
    }
}
