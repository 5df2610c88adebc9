//! Mesh-size scaling study (paper §VI future work: "explore different NoC
//! topologies which might be suited for emerging DNN platforms") — now
//! doubling as the region-sharding **speedup** study.
//!
//! Simulates saturated uniform-random copies on 8×8, 16×16 and 32×32
//! meshes at DW = 64 and reports, per mesh size: modelled area, bisection
//! bandwidth, measured saturation throughput, the hottest link's
//! data-channel occupancy, and a per-size **speedup curve** — the same
//! simulation re-run at each region-shard thread count (see
//! `ARCHITECTURE.md`, "Region-sharded execution"), with simulator speed
//! taken from the report's own `cycles_per_sec` wall-clock telemetry and
//! speedup normalized to the serial run.
//!
//! Simulated results are bit-identical at every thread count — the binary
//! asserts it — so the curve isolates the wall-clock effect of sharding.
//! Every point runs **sequentially** (never through `--jobs` workers):
//! each timed run must own the machine or the speedup numbers would be
//! polluted by sweep-level parallelism. `--quick` shrinks the window;
//! `--json PATH` writes `BENCH_scaling.json`.

use bench::json::Json;
use bench::sweep::SweepOptions;
use patronoc::Topology;
use physical::{bisection::bisection_bandwidth_gib_s, AreaModel, BisectionCounting};
use scenario::{Engine, Scenario, TrafficSpec};
use simkit::{SimReport, StopReason};

/// The region-shard thread counts of the speedup curve.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct ThreadPoint {
    threads: usize,
    report: SimReport,
    speedup: f64,
}

struct MeshRow {
    dim: usize,
    area_kge: f64,
    bisection_gib_s: f64,
    peak_link_occupancy: f64,
    curve: Vec<ThreadPoint>,
}

fn scaling_scenario(dim: usize, window: u64, warmup: u64) -> Scenario {
    Scenario::patronoc()
        .topology(Topology {
            cols: dim,
            rows: dim,
        })
        .data_width(64)
        .traffic(TrafficSpec::uniform_copies(1.0, 4096))
        .warmup(warmup)
        .window(window)
        .seed(21)
}

fn main() {
    let opts = SweepOptions::parse();
    let window = if opts.quick { 3_000 } else { 30_000 };
    let warmup = window / 5;
    let model = AreaModel::calibrated();
    let dims = [8usize, 16, 32];

    let results: Vec<MeshRow> = dims
        .iter()
        .map(|&dim| {
            let sc = scaling_scenario(dim, window, warmup);
            // Serial reference run, through the concrete engine for the
            // link-occupancy probe the Engine trait does not carry.
            let mut sim = sc.build_noc_sim().expect("valid scaling scenario");
            let mut src = sc.build_source();
            let mut serial = sim.run(&mut *src, sc.warmup + sc.window, sc.warmup);
            if serial.stop_reason == StopReason::Budget {
                // Scenario::run's windowed-stop normalization, replicated so
                // the sharded runs compare equal.
                serial.stop_reason = StopReason::WindowComplete;
            }
            let peak_link_occupancy = sim.peak_link_occupancy();

            let curve = THREAD_COUNTS
                .iter()
                .map(|&threads| {
                    let report = if threads == 1 {
                        serial.clone()
                    } else {
                        let report = sc
                            .clone()
                            .threads(threads)
                            .run()
                            .expect("valid scaling scenario");
                        // Sharding is a wall-clock-only knob: every
                        // simulated observable must match the serial run.
                        assert_eq!(
                            report, serial,
                            "sharded {dim}x{dim} run at {threads} threads diverged from serial"
                        );
                        report
                    };
                    ThreadPoint {
                        threads,
                        speedup: report.cycles_per_sec / serial.cycles_per_sec,
                        report,
                    }
                })
                .collect();
            MeshRow {
                dim,
                area_kge: model.mesh_area_kge(sc.topology, sim.config().axi),
                bisection_gib_s: bisection_bandwidth_gib_s(
                    sc.topology,
                    sc.data_width,
                    BisectionCounting::BothWays,
                ),
                peak_link_occupancy,
                curve,
            }
        })
        .collect();

    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>12} {:>9} {:>14} {:>9}",
        "mesh",
        "area (kGE)",
        "bisect (GiB/s)",
        "thr (GiB/s)",
        "peak link",
        "threads",
        "cyc/s",
        "speedup"
    );
    let mut meshes = Vec::new();
    for row in &results {
        let serial = &row.curve[0].report;
        let mut points = Vec::new();
        for (i, p) in row.curve.iter().enumerate() {
            if i == 0 {
                println!(
                    "{:>8} {:>12.0} {:>14.1} {:>14.2} {:>11.1}% {:>9} {:>14.0} {:>8.2}x",
                    format!("{0}x{0}", row.dim),
                    row.area_kge,
                    row.bisection_gib_s,
                    serial.throughput_gib_s,
                    100.0 * row.peak_link_occupancy,
                    p.threads,
                    p.report.cycles_per_sec,
                    p.speedup
                );
            } else {
                println!(
                    "{:>8} {:>12} {:>14} {:>14} {:>12} {:>9} {:>14.0} {:>8.2}x",
                    "", "", "", "", "", p.threads, p.report.cycles_per_sec, p.speedup
                );
            }
            points.push(Json::obj(vec![
                ("threads", Json::U64(p.threads as u64)),
                ("cycles_per_sec", Json::F64(p.report.cycles_per_sec)),
                ("speedup", Json::F64(p.speedup)),
            ]));
        }
        meshes.push(Json::obj(vec![
            ("mesh", Json::str(format!("{0}x{0}", row.dim))),
            ("area_kge", Json::F64(row.area_kge)),
            ("bisection_gib_s", Json::F64(row.bisection_gib_s)),
            ("gib_s", Json::F64(serial.throughput_gib_s)),
            ("peak_link_occupancy", Json::F64(row.peak_link_occupancy)),
            ("speedup_curve", Json::Arr(points)),
        ]));
    }
    println!();
    println!(
        "Uniform random copies, DW = 64, MOT = 8, bursts ≤ 4 KiB, load 1.0; \
         simulated results bit-identical at every thread count."
    );

    opts.emit_json(&Json::obj(vec![
        ("figure", Json::str("scaling")),
        ("schema_version", Json::U64(3)),
        ("quick", Json::Bool(opts.quick)),
        ("window", Json::U64(window)),
        ("warmup", Json::U64(warmup)),
        (
            "threads",
            Json::Arr(THREAD_COUNTS.iter().map(|&t| Json::U64(t as u64)).collect()),
        ),
        ("meshes", Json::Arr(meshes)),
    ]));
}
