//! Ablation studies of five design choices, each moved alone from the
//! slim 4×4 base:
//!
//! * **MOT vs performance** — the paper motivates MOT ("a higher max.
//!   number of outstanding transactions improves performance ... preventing
//!   bandwidth degradation when the NoC is saturated", §II) but only shows
//!   its *area* cost (Fig. 3 right); this sweep shows the throughput side.
//! * **Register slices vs latency** — the Table I "cut" trades latency for
//!   timing closure.
//! * **XBAR connectivity** — partial (default) vs full wiring under YX
//!   routing must not change behaviour (routing never uses the extra turns).
//! * **Routing algorithm** — YX (paper default) vs XY.
//! * **Topology** — the same 16 crosspoints as a 4×4, an 8×2 and a 16×1
//!   mesh.
//!
//! All five studies flatten into one grid of `Scenario` values run across
//! `--jobs` workers; output is bit-identical for every worker count.
//! `--quick` shrinks the window; `--json PATH` writes machine-readable
//! results.

use bench::json::Json;
use bench::sweep::SweepOptions;
use patronoc::{Connectivity, RoutingAlgorithm, Topology};
use scenario::{Scenario, TrafficSpec};

/// One ablation grid point, across all five studies.
#[derive(Clone, Copy)]
enum Job {
    Mot { mot: u32, max_transfer: u64 },
    Slices { stages: usize },
    Conn(Connectivity),
    Algo(RoutingAlgorithm),
    Topo(Topology),
}

impl Job {
    /// The scenario this ablation point simulates: the slim 4×4 base with
    /// exactly one knob moved.
    fn scenario(self, window: u64) -> Scenario {
        let base = |load: f64, max_transfer: u64| {
            Scenario::patronoc()
                .traffic(TrafficSpec::uniform_copies(load, max_transfer))
                .warmup(20_000)
                .window(window)
                .seed(0xAB1A)
        };
        match self {
            Job::Mot { mot, max_transfer } => base(1.0, max_transfer).max_outstanding(mot),
            Job::Slices { stages } => base(0.05, 1000).link_stages(stages),
            Job::Conn(conn) => base(1.0, 1000).connectivity(conn),
            Job::Algo(algo) => base(1.0, 1000).algorithm(algo),
            Job::Topo(topo) => base(1.0, 1000).topology(topo),
        }
    }
}

const MOTS: [u32; 6] = [1, 2, 4, 8, 16, 32];
const SLICE_COUNTS: [usize; 3] = [1, 2, 4];

fn main() {
    let opts = SweepOptions::parse();
    let window = if opts.quick { 30_000 } else { 120_000 };

    // The declarative grid: every section's points, flattened so workers
    // stay busy across section boundaries.
    let mut jobs: Vec<Job> = Vec::new();
    for mot in MOTS {
        for max_transfer in [1_000, 64_000] {
            jobs.push(Job::Mot { mot, max_transfer });
        }
    }
    for stages in SLICE_COUNTS {
        jobs.push(Job::Slices { stages });
    }
    jobs.push(Job::Conn(Connectivity::Partial));
    jobs.push(Job::Conn(Connectivity::Full));
    jobs.push(Job::Algo(RoutingAlgorithm::YxDimensionOrder));
    jobs.push(Job::Algo(RoutingAlgorithm::XyDimensionOrder));
    let topologies = [
        Topology::mesh4x4(),
        Topology { cols: 8, rows: 2 },
        Topology { cols: 16, rows: 1 },
    ];
    for topo in topologies {
        jobs.push(Job::Topo(topo));
    }

    let threads = opts.threads;
    let results: Vec<(f64, f64)> = opts.run_points(&jobs, |job| {
        let report = job
            .scenario(window)
            .threads(threads)
            .run()
            .expect("ablation scenarios are valid");
        (report.throughput_gib_s, report.mean_latency)
    });
    // Bucket results by their own job descriptor (not by position), so
    // reordering or extending the grid above cannot silently mislabel a
    // row: every label below derives from the job it ran.
    let mut mot_small: Vec<(u32, f64)> = Vec::new();
    let mut mot_large: Vec<(u32, f64, f64)> = Vec::new();
    let mut slice_rows: Vec<(usize, f64, f64)> = Vec::new();
    let mut conn_rows: Vec<(&str, f64)> = Vec::new();
    let mut algo_rows: Vec<(&str, f64)> = Vec::new();
    let mut topo_rows: Vec<(Topology, f64, f64)> = Vec::new();
    for (job, &(thr, lat)) in jobs.iter().zip(&results) {
        match *job {
            Job::Mot {
                mot,
                max_transfer: 1_000,
            } => mot_small.push((mot, thr)),
            Job::Mot { mot, .. } => mot_large.push((mot, thr, lat)),
            Job::Slices { stages } => slice_rows.push((stages, thr, lat)),
            Job::Conn(Connectivity::Partial) => conn_rows.push(("partial", thr)),
            Job::Conn(Connectivity::Full) => conn_rows.push(("full", thr)),
            Job::Algo(RoutingAlgorithm::YxDimensionOrder) => algo_rows.push(("YX", thr)),
            Job::Algo(RoutingAlgorithm::XyDimensionOrder) => algo_rows.push(("XY", thr)),
            Job::Topo(topo) => topo_rows.push((topo, thr, lat)),
        }
    }
    let mut sections = Vec::new();

    println!("Ablation 1 — MOT vs saturation throughput (slim 4x4)");
    println!(
        "{:>6} {:>14} {:>14} {:>14}",
        "MOT", "<1000 B", "<64000 B", "lat@64000 (cyc)"
    );
    let mut mot_points = Vec::new();
    for (&(mot, thr_s), &(mot_l, thr_l, lat)) in mot_small.iter().zip(&mot_large) {
        assert_eq!(mot, mot_l, "MOT buckets align");
        println!("{mot:>6} {thr_s:>14.2} {thr_l:>14.2} {lat:>14.1}");
        mot_points.push(Json::obj(vec![
            ("mot", Json::U64(u64::from(mot))),
            ("gib_s_1000", Json::F64(thr_s)),
            ("gib_s_64000", Json::F64(thr_l)),
            ("mean_latency_64000", Json::F64(lat)),
        ]));
    }
    sections.push(Json::obj(vec![
        ("study", Json::str("mot")),
        ("points", Json::Arr(mot_points)),
    ]));

    println!();
    println!("Ablation 2 — register slices per channel vs latency (slim 4x4, light load)");
    println!(
        "{:>8} {:>14} {:>14}",
        "slices", "thr (GiB/s)", "mean lat (cyc)"
    );
    let mut slice_points = Vec::new();
    for &(stages, thr, lat) in &slice_rows {
        println!("{stages:>8} {thr:>14.2} {lat:>14.1}");
        slice_points.push(Json::obj(vec![
            ("stages", Json::U64(stages as u64)),
            ("gib_s", Json::F64(thr)),
            ("mean_latency", Json::F64(lat)),
        ]));
    }
    sections.push(Json::obj(vec![
        ("study", Json::str("register_slices")),
        ("points", Json::Arr(slice_points)),
    ]));

    println!();
    println!("Ablation 3 — XBAR connectivity (slim 4x4, burst<1000, max load)");
    let mut conn_points = Vec::new();
    for &(name, thr) in &conn_rows {
        println!("  {name:>8}: {thr:.2} GiB/s (must match: routing never uses extra turns)");
        conn_points.push(Json::obj(vec![
            ("connectivity", Json::str(name)),
            ("gib_s", Json::F64(thr)),
        ]));
    }
    sections.push(Json::obj(vec![
        ("study", Json::str("connectivity")),
        ("points", Json::Arr(conn_points)),
    ]));

    println!();
    println!("Ablation 4 — routing algorithm (slim 4x4, burst<1000, max load)");
    let mut algo_points = Vec::new();
    for &(name, thr) in &algo_rows {
        println!("  {name:>4}: {thr:.2} GiB/s");
        algo_points.push(Json::obj(vec![
            ("algorithm", Json::str(name)),
            ("gib_s", Json::F64(thr)),
        ]));
    }
    sections.push(Json::obj(vec![
        ("study", Json::str("routing")),
        ("points", Json::Arr(algo_points)),
    ]));

    println!();
    println!("Ablation 5 — mesh shape from the same 16 crosspoints (DW=32)");
    let mut topo_points = Vec::new();
    for &(topo, thr, lat) in &topo_rows {
        println!("  {topo}: {thr:.2} GiB/s, mean latency {lat:.1} cyc");
        topo_points.push(Json::obj(vec![
            ("topology", Json::str(format!("{topo}"))),
            ("gib_s", Json::F64(thr)),
            ("mean_latency", Json::F64(lat)),
        ]));
    }
    sections.push(Json::obj(vec![
        ("study", Json::str("topology")),
        ("points", Json::Arr(topo_points)),
    ]));

    opts.emit_json(&Json::obj(vec![
        ("figure", Json::str("ablation")),
        ("quick", Json::Bool(opts.quick)),
        ("window", Json::U64(window)),
        ("sections", Json::Arr(sections)),
    ]));
}
