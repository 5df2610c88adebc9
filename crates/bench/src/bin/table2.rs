//! Regenerates **Table II**: the comparison of PATRONoC against
//! state-of-the-art NoCs in SoCs. The literature rows are transcribed from
//! the paper; the PATRONoC row's NoC bandwidth is *computed* from this
//! repository's model (4×4 mesh bisection at 1 GHz, one-way counting, at
//! the DW = 512 evaluation point ≈ 2 Tb/s; the paper rounds its best
//! configuration to 2700 Gb/s with wider links at the endpoints).

//! Accepts the shared sweep flags for a uniform interface: `--json PATH`
//! writes the table as machine-readable results (`--jobs` is accepted but
//! irrelevant — there is no simulation grid here).

use bench::json::Json;
use bench::sweep::SweepOptions;
use physical::{bisection_bandwidth_gbps, BisectionCounting};
use scenario::Scenario;

struct Row {
    work: &'static str,
    open_source: &'static str,
    full_axi: &'static str,
    burst: &'static str,
    configurable: &'static str,
    bw_gbps: &'static str,
}

fn main() {
    let opts = SweepOptions::parse();
    let rows = [
        Row {
            work: "SpiNNaker",
            open_source: "no",
            full_axi: "no",
            burst: "no",
            configurable: "no",
            bw_gbps: "5 (async)",
        },
        Row {
            work: "Reza et al.",
            open_source: "no",
            full_axi: "no",
            burst: "no",
            configurable: "no",
            bw_gbps: "4000",
        },
        Row {
            work: "MCM",
            open_source: "no",
            full_axi: "no",
            burst: "no",
            configurable: "no",
            bw_gbps: "35",
        },
        Row {
            work: "MC-NoC",
            open_source: "no",
            full_axi: "no",
            burst: "no",
            configurable: "no",
            bw_gbps: "2368",
        },
        Row {
            work: "NeuNoC",
            open_source: "no",
            full_axi: "no",
            burst: "no",
            configurable: "no",
            bw_gbps: "-",
        },
        Row {
            work: "TETRIS",
            open_source: "no",
            full_axi: "no",
            burst: "no",
            configurable: "no",
            bw_gbps: "-",
        },
        Row {
            work: "PUMA",
            open_source: "no",
            full_axi: "no",
            burst: "no",
            configurable: "no",
            bw_gbps: "-",
        },
        Row {
            work: "OpenSoC",
            open_source: "yes",
            full_axi: "no (AXI-Lite)",
            burst: "no",
            configurable: "yes",
            bw_gbps: "-",
        },
        Row {
            work: "ESP-SoC",
            open_source: "yes",
            full_axi: "no",
            burst: "no",
            configurable: "limited",
            bw_gbps: "351",
        },
        Row {
            work: "Celerity",
            open_source: "yes",
            full_axi: "no",
            burst: "no",
            configurable: "limited",
            bw_gbps: "80",
        },
        Row {
            work: "FlexNoC",
            open_source: "no",
            full_axi: "no",
            burst: "no",
            configurable: "-",
            bw_gbps: "-",
        },
        Row {
            work: "Constellation",
            open_source: "yes",
            full_axi: "no",
            burst: "no",
            configurable: "yes",
            bw_gbps: "-",
        },
        Row {
            work: "Kurth et al. [9]",
            open_source: "yes",
            full_axi: "yes",
            burst: "yes",
            configurable: "yes",
            bw_gbps: "2146",
        },
    ];
    println!("Table II — comparison with state-of-the-art NoCs (NoC-BW normalized to 1 GHz)");
    println!(
        "{:<18} {:<8} {:<14} {:<8} {:<12} {:>12}",
        "Work", "Open", "Full AXI", "Burst", "Config.", "NoC-BW (Gb/s)"
    );
    for r in &rows {
        println!(
            "{:<18} {:<8} {:<14} {:<8} {:<12} {:>12}",
            r.work, r.open_source, r.full_axi, r.burst, r.configurable, r.bw_gbps
        );
    }
    // PATRONoC's row, computed from the model at the wide evaluation
    // point — named as a Scenario so the row's configuration is the same
    // inspectable value the simulating binaries use.
    let wide = Scenario::patronoc().data_width(512);
    let bw = bisection_bandwidth_gbps(wide.topology, wide.data_width, BisectionCounting::OneWay);
    println!(
        "{:<18} {:<8} {:<14} {:<8} {:<12} {:>12.0}",
        "PATRONoC (this)", "yes", "yes", "yes", "yes", bw
    );
    println!();
    println!(
        "PATRONoC 4x4 DW=512 bisection: {bw:.0} Gb/s one-way, {:.0} Gb/s both-ways (paper row: 2700)",
        bisection_bandwidth_gbps(wide.topology, wide.data_width, BisectionCounting::BothWays)
    );

    let mut json_rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("work", Json::str(r.work)),
                ("open_source", Json::str(r.open_source)),
                ("full_axi", Json::str(r.full_axi)),
                ("burst", Json::str(r.burst)),
                ("configurable", Json::str(r.configurable)),
                ("bw_gbps", Json::str(r.bw_gbps)),
            ])
        })
        .collect();
    json_rows.push(Json::obj(vec![
        ("work", Json::str("PATRONoC (this)")),
        ("open_source", Json::str("yes")),
        ("full_axi", Json::str("yes")),
        ("burst", Json::str("yes")),
        ("configurable", Json::str("yes")),
        ("bw_gbps_computed", Json::F64(bw)),
    ]));
    opts.emit_json(&Json::obj(vec![
        ("table", Json::str("table2")),
        ("rows", Json::Arr(json_rows)),
    ]));
}
