//! Regenerates **Fig. 8**: aggregate throughput of the slim and wide 4×4
//! PATRONoC under the three DNN workload traces of Fig. 7 (distributed
//! training, layer-parallel convolution, pipelined convolution).
//!
//! The six trace runs are `Scenario` values executed across `--jobs`
//! workers; output is bit-identical for every worker count. A trace that
//! misses its cycle budget is *reported* (per its `StopReason`), not a
//! crash. `--quick` runs single-step traces; `--json PATH` writes
//! machine-readable results, each point carrying its full scenario
//! recipe.

use bench::json::Json;
use bench::sweep::SweepOptions;
use bench::{dnn_point_for, dnn_scenario};
use scenario::Scenario;
use traffic::DnnWorkload;

fn main() {
    let opts = SweepOptions::parse();
    let steps = if opts.quick { 1 } else { 2 };

    let mut cells: Vec<(u32, &str, DnnWorkload, Scenario)> = Vec::new();
    for (dw, name) in [(32u32, "Slim"), (512, "Wide")] {
        for wl in DnnWorkload::all() {
            cells.push((
                dw,
                name,
                wl,
                dnn_scenario(dw, wl, steps).threads(opts.threads),
            ));
        }
    }
    let results = opts.run_points(&cells, |(_, _, wl, sc)| dnn_point_for(sc, *wl));

    println!("Fig. 8 — DNN workload traffic on the 4x4 PATRONoC (GiB/s)");
    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>12}",
        "NoC", "workload", "thr (GiB/s)", "trace bytes", "cycles"
    );
    let mut points = Vec::new();
    let mut misses = 0usize;
    for ((dw, name, wl, sc), p) in cells.iter().zip(&results) {
        let note = if p.completed() {
            ""
        } else {
            misses += 1;
            "  [INCOMPLETE: cycle budget exceeded]"
        };
        println!(
            "{name:>10} {:>12} {:>12.2} {:>14} {:>12}{note}",
            wl.name(),
            p.gib_s,
            p.bytes,
            p.cycles
        );
        points.push(Json::obj(vec![
            ("noc", Json::str(*name)),
            ("dw_bits", Json::U64(u64::from(*dw))),
            ("workload", Json::str(wl.name())),
            ("gib_s", Json::F64(p.gib_s)),
            ("trace_bytes", Json::U64(p.bytes)),
            ("cycles", Json::U64(p.cycles)),
            ("completed", Json::Bool(p.completed())),
            ("scenario", sc.to_json()),
        ]));
    }
    println!();
    println!("paper: slim 5.18 / 4.27 / 19.17; wide 83.1 / 68.5 / 310.7 (Train / Par / Pipe)");
    if misses > 0 {
        eprintln!(
            "warning: {misses} trace(s) exceeded the cycle budget — their throughput \
             covers only the delivered prefix"
        );
    }

    opts.emit_json(&Json::obj(vec![
        ("figure", Json::str("fig8")),
        ("quick", Json::Bool(opts.quick)),
        ("trace_steps", Json::U64(steps as u64)),
        ("points", Json::Arr(points)),
    ]));

    if misses > 0 {
        std::process::exit(1);
    }
}
