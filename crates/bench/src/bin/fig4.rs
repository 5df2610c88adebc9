//! Regenerates **Fig. 4**: throughput vs injected load under uniform random
//! traffic with Poisson arrivals — the Noxim-style packet baseline in its
//! two configurations against the slim (DW = 32) PATRONoC at five DMA
//! burst-length caps.
//!
//! The 13 loads × 7 curves form a grid of `Scenario` values executed
//! across `--jobs` workers (default: all cores); output is bit-identical
//! for every worker count. Runtime: ~2–4 core-minutes in release mode.
//! `--quick` runs a coarse fast sweep; `--json PATH` additionally writes
//! machine-readable results.

use bench::defaults::{self, BURST_CAPS, LOADS, WARMUP, WINDOW};
use bench::json::Json;
use bench::sweep::SweepOptions;
use bench::{noxim_uniform_scenario, patronoc_uniform_scenario};
use scenario::{PacketProfile, Scenario};

/// One curve of the figure: a PATRONoC burst cap or a baseline config.
#[derive(Clone, Copy)]
enum Curve {
    Patronoc {
        cap: u64,
    },
    Noxim {
        index: usize,
        profile: PacketProfile,
    },
}

impl Curve {
    fn label(self) -> String {
        match self {
            Curve::Patronoc { cap } => format!("burst<{cap}"),
            Curve::Noxim { index: 0, .. } => "noxim(1,4)".into(),
            Curve::Noxim { .. } => "noxim(4,32)".into(),
        }
    }

    /// The scenario of this curve's point at one load coordinate.
    fn scenario(self, load_index: usize, load: f64, window: u64, warmup: u64) -> Scenario {
        match self {
            Curve::Patronoc { cap } => patronoc_uniform_scenario(
                32,
                load,
                cap,
                window,
                warmup,
                defaults::fig4_patronoc_seed(cap, load_index),
            ),
            Curve::Noxim { index, profile } => noxim_uniform_scenario(
                profile,
                load,
                100,
                window,
                warmup,
                defaults::fig4_noxim_seed(index, load_index),
            ),
        }
    }
}

fn main() {
    let opts = SweepOptions::parse();
    let (window, warmup) = if opts.quick {
        (30_000, 6_000)
    } else {
        (WINDOW, WARMUP)
    };
    let loads: Vec<f64> = if opts.quick {
        vec![0.001, 0.01, 0.1, 0.5, 1.0]
    } else {
        LOADS.to_vec()
    };

    let mut curves: Vec<Curve> = BURST_CAPS
        .iter()
        .map(|&cap| Curve::Patronoc { cap })
        .collect();
    curves.push(Curve::Noxim {
        index: 0,
        profile: PacketProfile::Compact,
    });
    curves.push(Curve::Noxim {
        index: 1,
        profile: PacketProfile::HighPerformance,
    });

    // The sweep grid: one Scenario per cell, row-major in load so
    // `cells[li * curves + ci]` addresses the printed table directly.
    let threads = opts.threads;
    let scenarios: Vec<Scenario> = (0..loads.len())
        .flat_map(|li| {
            let loads = &loads;
            let curves = &curves;
            (0..curves.len()).map(move |ci| {
                curves[ci]
                    .scenario(li, loads[li], window, warmup)
                    .threads(threads)
            })
        })
        .collect();
    let results: Vec<(f64, f64)> = opts.run_points(&scenarios, |sc| {
        let report = sc.run().expect("valid fig4 scenario");
        (report.throughput_gib_s, report.cycles_per_sec)
    });
    let cell = |li: usize, ci: usize| results[li * curves.len() + ci].0;
    // Simulator speed at each point (wall clock — telemetry, not physics):
    // recorded in the JSON artifact so CI tracks the engine's own
    // performance trajectory alongside the simulated results.
    let cell_cps = |li: usize, ci: usize| results[li * curves.len() + ci].1;

    println!("Fig. 4 — uniform random traffic, 4x4 mesh, throughput (GiB/s) vs injected load");
    print!("{:>10}", "load");
    for curve in &curves {
        print!(" {:>12}", curve.label());
    }
    println!();
    for (li, load) in loads.iter().enumerate() {
        print!("{load:>10.4}");
        for ci in 0..curves.len() {
            print!(" {:>12.3}", cell(li, ci));
        }
        println!();
    }

    // Headline: saturation ratios at the largest loads, straight from the
    // grid (load 1.0 is always the last row). The paper claims "2-8x on
    // uniform random traffic" with 8.4x as the best case (19 GiB/s vs
    // 2.25 GiB/s).
    let sat_li = loads.len() - 1;
    let sat_ci = BURST_CAPS
        .iter()
        .position(|&c| c == 1_000)
        .expect("1000 B is a Fig. 4 burst cap");
    let sat_patronoc = cell(sat_li, sat_ci);
    let sat_compact = cell(sat_li, BURST_CAPS.len());
    let sat_high = cell(sat_li, BURST_CAPS.len() + 1);
    println!();
    println!(
        "saturation: PATRONoC {sat_patronoc:.2} GiB/s; Noxim compact {sat_compact:.2}, high-perf {sat_high:.2} GiB/s"
    );
    println!(
        "ratios: {:.1}x vs compact, {:.1}x vs high-perf  (paper: 2-8x, best case 8.4x)",
        sat_patronoc / sat_compact,
        sat_patronoc / sat_high
    );

    opts.emit_json(&Json::obj(vec![
        ("figure", Json::str("fig4")),
        ("quick", Json::Bool(opts.quick)),
        ("window", Json::U64(window)),
        ("warmup", Json::U64(warmup)),
        (
            "curves",
            Json::Arr(
                curves
                    .iter()
                    .enumerate()
                    .map(|(ci, curve)| {
                        Json::obj(vec![
                            ("label", Json::str(curve.label())),
                            (
                                "points",
                                Json::Arr(
                                    loads
                                        .iter()
                                        .enumerate()
                                        .map(|(li, &load)| {
                                            Json::obj(vec![
                                                ("load", Json::F64(load)),
                                                ("gib_s", Json::F64(cell(li, ci))),
                                                ("cycles_per_sec", Json::F64(cell_cps(li, ci))),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]));
}
