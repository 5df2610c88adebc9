//! `e2e`: the simulator's end-to-end benchmark (see `README.md`).
//!
//! ```text
//! e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--bless]
//! ```
//!
//! Prints one `workload metric value unit` line per metric, then, as its
//! last line, a JSON summary: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones, and without `--trace` both. Writes
//! `e2e.json` (results) and `trace.json` (spans and source calls) under
//! `--out`. Exits 1 when any check fails, 2 on a usage error.

#![forbid(unsafe_code)]

mod clock;
mod metrics;
mod rss;
mod run;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use simkit::Json;

use metrics::{Kind, MetricDef, REGISTRY};
use run::{Round, Runner};
use trace::Tracer;
use workload::{Golden, DEFAULT_SEED, WORKLOADS};

const USAGE: &str =
    "usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--bless]";

struct Args {
    workload: Option<usize>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: PathBuf,
    bless: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 3.0,
        trace: None,
        out: PathBuf::from("target/e2e"),
        bless: false,
    };
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            parsed.bless = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    WORKLOADS
                        .iter()
                        .position(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                let seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                parsed.seed = seed.map_err(|_| format!("bad seed `{value}`"))?;
            }
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(parsed)
}

/// One workload's outcome.
struct Outcome {
    name: &'static str,
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static MetricDef, Option<f64>)>,
    /// Reported, but not registered: see `README.md`.
    info: Vec<(&'static str, f64, &'static str)>,
    rounds: Vec<Round>,
}

fn run_workload(
    index: usize,
    args: &Args,
    max_threads: usize,
    timer_ns: f64,
    tracer: &mut Tracer,
) -> Outcome {
    let name = WORKLOADS[index].name;
    let root = tracer.open(format!("workload {name}"), None);
    let mut runner = Runner::new(
        index,
        args.seed,
        max_threads,
        args.seed == DEFAULT_SEED,
        tracer,
        root,
    );
    let mut rounds = Vec::new();
    if args.trace != Some(true) {
        rounds.extend(runner.measure(args.seconds, false));
    }
    if args.trace != Some(false) {
        rounds.extend(runner.measure(args.seconds, true));
    }
    let Runner {
        attempted,
        failures,
        peak_rss_mib,
        ..
    } = runner;
    tracer.close(root);

    let layers = run::layer_metrics(&rounds, timer_ns);
    let metrics = REGISTRY
        .iter()
        .filter(|def| match def.kind {
            Kind::EndToEnd { .. } => args.trace != Some(true),
            Kind::PerLayer { .. } => args.trace != Some(false),
        })
        .map(|def| {
            let value = match def.name {
                "sim_cycles_per_s" => run::cycles_per_s(&rounds),
                "setup_s" => run::setup_s(&rounds),
                "peak_rss_mib" => peak_rss_mib,
                layer => layers.get(layer).copied(),
            };
            (def, value)
        })
        .collect();

    let mut info = vec![(
        "error_rate",
        metrics::ratio(failures.len() as f64, attempted as f64),
        "ratio",
    )];
    if let Some(err) = rounds.first().and_then(run::paper_err_pct) {
        info.push(("paper_err_pct", err, "%"));
    }
    if let Some(speedup) = run::shard_speedup(&rounds) {
        info.push(("shard_speedup", speedup, "x"));
    }
    if let Some(overhead) = run::trace_overhead_pct(&rounds) {
        info.push(("bench.trace_overhead_pct", overhead, "%"));
        info.push(("bench.timer_ns", timer_ns, "ns"));
    }
    Outcome {
        name,
        attempted,
        failures,
        metrics,
        info,
        rounds,
    }
}

fn value_json(value: Option<f64>) -> Json {
    value.map_or(Json::Null, Json::F64)
}

fn metrics_json(o: &Outcome) -> Json {
    Json::Obj(
        o.metrics
            .iter()
            .map(|(def, value)| {
                (
                    def.name.to_owned(),
                    Json::obj(vec![
                        ("value", value_json(*value)),
                        ("unit", Json::str(def.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// `e2e.json`: every metric, the checks' tally, and the deterministic
/// reports of the first round.
fn results_json(args: &Args, max_threads: usize, outcomes: &[Outcome]) -> Json {
    let workloads = outcomes.iter().map(|o| {
        let reports = o.rounds.first().map_or(Vec::new(), |r| {
            r.sims
                .iter()
                .map(|s| {
                    let g = Golden::of(&s.report);
                    Json::obj(vec![
                        ("label", Json::str(s.label.as_str())),
                        ("cycles", Json::U64(g.cycles)),
                        ("payload_bytes", Json::U64(g.payload_bytes)),
                        ("transfers_completed", Json::U64(g.transfers_completed)),
                        ("state_digest", Json::U64(g.state_digest)),
                        ("throughput_gib_s", Json::F64(s.report.throughput_gib_s)),
                        ("paper_gib_s", value_json(s.paper_gib_s)),
                    ])
                })
                .collect()
        });
        Json::obj(vec![
            ("name", Json::str(o.name)),
            ("attempted", Json::U64(o.attempted)),
            ("failed", Json::U64(o.failures.len() as u64)),
            (
                "failures",
                Json::Arr(o.failures.iter().map(|f| Json::str(f.as_str())).collect()),
            ),
            ("metrics", metrics_json(o)),
            (
                "info",
                Json::Obj(
                    o.info
                        .iter()
                        .map(|(name, v, _)| ((*name).to_owned(), Json::F64(*v)))
                        .collect(),
                ),
            ),
            ("simulations", Json::Arr(reports)),
        ])
    });
    Json::obj(vec![
        ("schema", Json::str("e2e-v1")),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::F64(args.seconds)),
        ("nproc", Json::U64(max_threads as u64)),
        (
            "registry",
            Json::Arr(REGISTRY.iter().map(|def| def.to_json()).collect()),
        ),
        ("workloads", Json::Arr(workloads.collect())),
    ])
}

/// `trace.json`: the coarse spans and every round's per-simulation record,
/// source-call statistics included.
fn trace_json(tracer: &Tracer, timer_ns: f64, outcomes: &[Outcome]) -> Json {
    let rounds = outcomes.iter().flat_map(|o| {
        o.rounds.iter().map(move |r| {
            Json::obj(vec![
                ("workload", Json::str(o.name)),
                ("traced", Json::Bool(r.traced)),
                ("parse_s", Json::F64(r.parse_s)),
                (
                    "simulations",
                    Json::Arr(
                        r.sims
                            .iter()
                            .map(|s| run::record_json(s, timer_ns))
                            .collect(),
                    ),
                ),
            ])
        })
    });
    Json::obj(vec![
        ("schema", Json::str("e2e-trace-v1")),
        ("timer_ns", Json::F64(timer_ns)),
        ("sample_stride", Json::U64(trace::SAMPLE_STRIDE)),
        ("rounds", Json::Arr(rounds.collect())),
        ("spans", tracer.to_json()),
    ])
}

fn write(dir: &Path, file: &str, json: &Json) {
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| json.write_file(&path)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Rewrites `golden.json` from one round of every workload at the default
/// seed.
fn bless(max_threads: usize) -> ExitCode {
    let mut tracer = Tracer::new();
    let mut entries = Vec::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        let root = tracer.open(format!("workload {}", w.name), None);
        let mut runner = Runner::new(i, DEFAULT_SEED, max_threads, false, &mut tracer, root);
        let round = runner.measure(0.0, false).remove(0);
        if !runner.failures.is_empty() {
            eprintln!(
                "e2e: not blessing: {} check(s) failed",
                runner.failures.len()
            );
            return ExitCode::FAILURE;
        }
        for s in round.sims {
            entries.push((w.name, s.label, Golden::of(&s.report)));
        }
    }
    match std::fs::write(workload::GOLDEN_PATH, workload::golden_text(&entries)) {
        Ok(()) => {
            println!("wrote {}", workload::GOLDEN_PATH);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e: cannot write {}: {e}", workload::GOLDEN_PATH);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!("e2e: {e}\n{USAGE}\nworkloads: {}", names.join(", "));
            return ExitCode::from(2);
        }
    };
    let max_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if args.bless {
        return bless(max_threads);
    }
    let timer_ns = clock::timer_cost_ns();
    let indices: Vec<usize> = args
        .workload
        .map_or((0..WORKLOADS.len()).collect(), |i| vec![i]);
    let mut tracer = Tracer::new();
    let mut outcomes = Vec::new();
    for &i in &indices {
        if indices.len() > 1 {
            rss::reset_peak();
        }
        let o = run_workload(i, &args, max_threads, timer_ns, &mut tracer);
        for (def, value) in &o.metrics {
            let shown = value.map_or("null".to_owned(), |v| v.to_string());
            println!("{} {} {shown} {}", o.name, def.name, def.unit);
        }
        for (name, value, unit) in &o.info {
            println!("{} {name} {value} {unit}", o.name);
        }
        outcomes.push(o);
    }
    write(
        &args.out,
        "e2e.json",
        &results_json(&args, max_threads, &outcomes),
    );
    write(
        &args.out,
        "trace.json",
        &trace_json(&tracer, timer_ns, &outcomes),
    );

    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: usize = outcomes.iter().map(|o| o.failures.len()).sum();
    let metrics = match outcomes.as_slice() {
        [one] => metrics_json(one),
        many => Json::Obj(
            many.iter()
                .map(|o| (o.name.to_owned(), metrics_json(o)))
                .collect(),
        ),
    };
    let summary = Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed as u64)),
        ("metrics", metrics),
    ]);
    println!("{summary}");
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
