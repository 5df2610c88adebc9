//! Running one workload: measured rounds, and the checks every simulation
//! must pass.
//!
//! A round parses the workload file and then builds and runs each
//! simulation back to back on this thread (a closed host loop). Every
//! round of a run uses the same seeds, so every round must reproduce the
//! first one's reports exactly, and every round is one more sample of the
//! set-up and run times.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use scenario::{Engine, Scenario};
use simkit::{Json, SimReport, StopReason};
use traffic::TrafficSource;

use crate::clock::Stopwatch;
use crate::metrics::{median, ratio};
use crate::trace::{SourceStats, SpanId, TracedSource, Tracer};
use crate::workload::{self, Golden, Simulation, Workload};

/// What one simulation cost and produced.
#[derive(Debug, Clone)]
pub struct SimRecord {
    pub label: String,
    pub paper_gib_s: Option<f64>,
    pub report: SimReport,
    pub build_engine_s: f64,
    pub build_source_s: f64,
    pub run_s: f64,
    /// Source calls, on traced rounds.
    pub source: Option<SourceStats>,
    /// The checkpoint round trip, on the round that makes one.
    pub snap: Option<SnapRecord>,
    /// `Engine::run` time of the region-sharded twin, on the round that
    /// runs one.
    pub twin_run_s: Option<f64>,
}

#[derive(Debug, Clone, Copy)]
pub struct SnapRecord {
    pub bytes: u64,
    pub encode_s: f64,
    pub restore_s: f64,
    pub digest_s: f64,
}

/// One pass over a workload's simulations. Failed simulations are missing
/// from `sims`; the runner counts them.
#[derive(Debug, Clone)]
pub struct Round {
    pub traced: bool,
    pub parse_s: f64,
    pub sims: Vec<SimRecord>,
}

impl Round {
    fn sum(&self, f: impl Fn(&SimRecord) -> f64) -> f64 {
        self.sims.iter().map(f).sum()
    }

    fn cycles(&self) -> f64 {
        self.sum(|s| s.report.cycles as f64)
    }

    pub fn run_s(&self) -> f64 {
        self.sum(|s| s.run_s)
    }

    /// Parse, plus every engine and source build.
    pub fn setup_s(&self) -> f64 {
        self.parse_s + self.sum(|s| s.build_engine_s + s.build_source_s)
    }
}

struct Built {
    engine: Box<dyn Engine>,
    source: Box<dyn TrafficSource>,
    /// Bytes a finite trace offers; a drained run must deliver all of them.
    trace_bytes: Option<u64>,
    build_engine_s: f64,
    build_source_s: f64,
}

fn build(sc: &Scenario, tracer: &mut Tracer, parent: SpanId) -> Result<Built, String> {
    let span = tracer.open("build_engine", Some(parent));
    let engine = sc.build_engine();
    let build_engine_s = tracer.close(span);
    let engine = engine.map_err(|e| e.to_string())?;
    let span = tracer.open("build_source", Some(parent));
    let (source, trace_bytes): (Box<dyn TrafficSource>, _) = match sc.build_dnn_trace() {
        Some(trace) => {
            let bytes = trace.total_bytes();
            (Box::new(trace), Some(bytes))
        }
        None => (sc.build_source(), None),
    };
    let build_source_s = tracer.close(span);
    Ok(Built {
        engine,
        source,
        trace_bytes,
        build_engine_s,
        build_source_s,
    })
}

/// Builds and runs one simulation and checks what only this run can show:
/// the stop reason, a trace's delivered bytes, and, on the first round,
/// that a checkpoint restores to the same state and that the sharded twin
/// (if the workload asks for one) reproduces the report.
fn simulate(
    sim: &Simulation,
    traced: bool,
    first: bool,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<SimRecord, String> {
    let mut b = build(&sim.scenario, tracer, parent)?;
    let sc = &sim.scenario;
    let max_cycles = sc.budget.unwrap_or(sc.warmup + sc.window);
    let (report, run_s, source) = if traced {
        let mut wrapped = TracedSource::new(&mut *b.source);
        let span = tracer.open("run traced", Some(parent));
        let report = b.engine.run(&mut wrapped, max_cycles, sc.warmup);
        (report, tracer.close(span), Some(wrapped.stats()))
    } else {
        let span = tracer.open("run", Some(parent));
        let report = b.engine.run(&mut *b.source, max_cycles, sc.warmup);
        (report, tracer.close(span), None)
    };

    match b.trace_bytes {
        Some(bytes) if report.stop_reason != StopReason::Drained => {
            return Err(format!(
                "trace of {bytes} B not drained within {max_cycles} cycles"
            ))
        }
        Some(bytes) if report.payload_bytes != bytes => {
            return Err(format!(
                "trace offered {bytes} B but {} B were delivered",
                report.payload_bytes
            ))
        }
        None if report.stop_reason != StopReason::Budget || report.cycles != max_cycles => {
            return Err(format!(
                "windowed run stopped at cycle {} ({:?}), not {max_cycles}",
                report.cycles, report.stop_reason
            ))
        }
        _ => {}
    }

    let snap = if first {
        Some(round_trip(sim, b.engine, &report, tracer, parent)?)
    } else {
        None
    };
    let twin_run_s = match sim.check_threads {
        Some(threads) if first => Some(sharded_twin(sim, threads, &report, tracer, parent)?),
        _ => None,
    };
    Ok(SimRecord {
        label: sim.label.clone(),
        paper_gib_s: sim.paper_gib_s,
        report,
        build_engine_s: b.build_engine_s,
        build_source_s: b.build_source_s,
        run_s,
        source,
        snap,
        twin_run_s,
    })
}

/// Runs the simulation again on `threads` region-sharded threads with the
/// raw source, and requires the serial run's report, state digest
/// included. Returns the twin's `Engine::run` time.
fn sharded_twin(
    sim: &Simulation,
    threads: usize,
    serial: &SimReport,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<f64, String> {
    let sc = Scenario {
        threads,
        ..sim.scenario.clone()
    };
    let mut b = build(&sc, tracer, parent)?;
    let span = tracer.open(format!("run {threads} threads"), Some(parent));
    let report = b.engine.run(
        &mut *b.source,
        sc.budget.unwrap_or(sc.warmup + sc.window),
        sc.warmup,
    );
    let run_s = tracer.close(span);
    if report != *serial {
        return Err(format!(
            "the {threads}-thread run differs from the serial one: {report:?} vs {serial:?}"
        ));
    }
    Ok(run_s)
}

/// Encodes a checkpoint, restores it into a freshly built engine, and
/// requires the restored state to digest the same.
fn round_trip(
    sim: &Simulation,
    engine: Box<dyn Engine>,
    report: &SimReport,
    tracer: &mut Tracer,
    parent: SpanId,
) -> Result<SnapRecord, String> {
    let span = tracer.open("snapshot encode", Some(parent));
    let bytes = engine.snapshot();
    let encode_s = tracer.close(span);
    let span = tracer.open("state_digest", Some(parent));
    let digest = engine.state_digest();
    let digest_s = tracer.close(span);
    if digest != report.state_digest {
        return Err("the engine's state changed after its report".into());
    }
    // Free the original first, so the check adds one snapshot, not a
    // second engine, to the peak RSS.
    drop(engine);
    let mut fresh = sim.scenario.build_engine().map_err(|e| e.to_string())?;
    let span = tracer.open("snapshot restore", Some(parent));
    let restored = fresh.restore(&bytes);
    let restore_s = tracer.close(span);
    restored.map_err(|e| format!("checkpoint does not restore: {e}"))?;
    if fresh.state_digest() != digest {
        return Err("restored checkpoint digests differently".into());
    }
    Ok(SnapRecord {
        bytes: bytes.len() as u64,
        encode_s,
        restore_s,
        digest_s,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs one workload and keeps its checks' tally.
pub struct Runner<'t> {
    workload: Workload,
    index: usize,
    seed: u64,
    max_threads: usize,
    tracer: &'t mut Tracer,
    parent: SpanId,
    /// Per simulation: the golden report to match, at the default seed.
    golden: Option<Vec<Result<Golden, String>>>,
    /// Per simulation: the first report of this run, which every later
    /// round must reproduce.
    first: Vec<Option<SimReport>>,
    rounds_run: usize,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// `VmHWM` after the first round: the memory one pass over the
    /// workload needs, before repeated build/drop cycles can fragment the
    /// heap by an amount that depends on how many rounds the host fits.
    pub peak_rss_mib: Option<f64>,
}

impl<'t> Runner<'t> {
    pub fn new(
        index: usize,
        seed: u64,
        max_threads: usize,
        check_golden: bool,
        tracer: &'t mut Tracer,
        parent: SpanId,
    ) -> Self {
        let workload = workload::WORKLOADS[index];
        let sims = workload::parse(workload.text, index, seed, max_threads)
            .expect("the committed workload files parse (unit-tested)");
        let golden = check_golden.then(|| {
            sims.iter()
                .map(|sim| {
                    workload::golden(workload::GOLDEN_TEXT, workload.name, &sim.label)?
                        .ok_or_else(|| "no entry in golden.json; rerun with --bless".to_owned())
                })
                .collect()
        });
        Self {
            workload,
            index,
            seed,
            max_threads,
            tracer,
            parent,
            golden,
            first: vec![None; sims.len()],
            rounds_run: 0,
            attempted: 0,
            failures: Vec::new(),
            peak_rss_mib: None,
        }
    }

    fn parse(&mut self, parent: SpanId) -> (Vec<Simulation>, f64) {
        let span = self.tracer.open("parse", Some(parent));
        let sims = workload::parse(self.workload.text, self.index, self.seed, self.max_threads)
            .expect("the committed workload files parse (unit-tested)");
        (sims, self.tracer.close(span))
    }

    /// Runs rounds until the next one would end after `seconds`; at least
    /// one. A traced measurement runs pairs, untraced then traced, so the
    /// tracing overhead and the traced/untraced equality come from
    /// neighbouring rounds. The first round (of a pair: the traced one)
    /// also round-trips a checkpoint of every simulation and runs the
    /// sharded twins.
    pub fn measure(&mut self, seconds: f64, traced: bool) -> Vec<Round> {
        let clock = Stopwatch::start();
        let mut rounds = Vec::new();
        loop {
            let before = clock.elapsed_s();
            let first = rounds.is_empty();
            if traced {
                rounds.push(self.round(false, false));
            }
            rounds.push(self.round(traced, first));
            let now = clock.elapsed_s();
            if now + (now - before) > seconds {
                return rounds;
            }
        }
    }

    fn round(&mut self, traced: bool, first: bool) -> Round {
        let n = self.rounds_run;
        self.rounds_run += 1;
        let mode = if traced { "traced" } else { "untraced" };
        let span = self
            .tracer
            .open(format!("round {n} {mode}"), Some(self.parent));
        let (sims, parse_s) = self.parse(span);
        let mut records = Vec::new();
        for (i, sim) in sims.iter().enumerate() {
            self.attempted += 1;
            let sim_span = self
                .tracer
                .open(format!("simulation {}", sim.label), Some(span));
            let tracer = &mut *self.tracer;
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                simulate(sim, traced, first, tracer, sim_span)
            }));
            self.tracer.close(sim_span);
            let checked = match outcome {
                Err(payload) => Err(format!("panicked: {}", panic_message(&*payload))),
                Ok(Err(why)) => Err(why),
                Ok(Ok(record)) => self.cross_check(i, &record.report).map(|()| record),
            };
            match checked {
                Ok(record) => records.push(record),
                Err(why) => {
                    let msg = format!(
                        "{}/{} (round {n}, {mode}): {why}",
                        self.workload.name, sim.label
                    );
                    eprintln!("check failed: {msg}");
                    self.failures.push(msg);
                }
            }
        }
        self.tracer.close(span);
        if n == 0 {
            self.peak_rss_mib = crate::rss::peak_mib();
        }
        Round {
            traced,
            parse_s,
            sims: records,
        }
    }

    /// The checks that span runs: every round reproduces the first one bit
    /// for bit (traced or not, skipped cycles included), and at the default
    /// seed the first one reproduces `golden.json`.
    fn cross_check(&mut self, i: usize, report: &SimReport) -> Result<(), String> {
        match &self.first[i] {
            Some(first) if first != report || first.cycles_skipped != report.cycles_skipped => {
                return Err(format!(
                    "report differs from this run's first at the same seed: {report:?} vs {first:?}"
                ));
            }
            Some(_) => {}
            None => self.first[i] = Some(report.clone()),
        }
        match self.golden.as_ref().map(|g| &g[i]) {
            Some(Ok(want)) if *want != Golden::of(report) => Err(format!(
                "differs from golden.json: {:?} vs {want:?}",
                Golden::of(report)
            )),
            Some(Err(why)) => Err(why.clone()),
            _ => Ok(()),
        }
    }
}

/// Simulated cycles per host second over one pass of the workload, each
/// simulation timed at its fastest untraced round. Every round repeats the
/// same simulations, and host noise on a shared machine only ever slows a
/// run, so the fastest run of each is the steadiest estimate of what the
/// code itself costs.
pub fn cycles_per_s(rounds: &[Round]) -> Option<f64> {
    let mut fastest: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for s in rounds.iter().filter(|r| !r.traced).flat_map(|r| &r.sims) {
        let best = fastest
            .entry(&s.label)
            .or_insert((s.report.cycles as f64, s.run_s));
        best.1 = best.1.min(s.run_s);
    }
    let (cycles, secs) = fastest
        .values()
        .fold((0.0, 0.0), |(c, t), (cycles, secs)| (c + cycles, t + secs));
    (!fastest.is_empty()).then(|| ratio(cycles, secs))
}

/// The fastest set-up over every round, for the same reason as
/// [`cycles_per_s`]: each round sets the workload up once more.
pub fn setup_s(rounds: &[Round]) -> Option<f64> {
    rounds
        .iter()
        .filter(|r| !r.sims.is_empty())
        .map(Round::setup_s)
        .min_by(f64::total_cmp)
}

/// The per-layer values one traced round measured, by registry name.
pub fn layer_values(round: &Round, timer_ns: f64) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&SimRecord) -> f64| round.sum(f);
    let source = |s: &SimRecord| s.source.unwrap_or_default();
    let run_s = round.run_s();
    let source_s = sum(&|s| source(s).estimated_s(timer_ns));
    let self_s = run_s - source_s;
    let cycles = round.cycles();
    let skipped = sum(&|s| s.report.cycles_skipped as f64);
    let stepped = cycles - skipped;
    let allocs = sum(&|s| s.report.allocs_per_kilocycle * s.report.cycles as f64);
    let polls = sum(&|s| source(s).poll.calls as f64);
    let mut values = vec![
        ("scenario.parse_s", round.parse_s),
        ("scenario.build_engine_s", sum(&|s| s.build_engine_s)),
        ("scenario.build_source_s", sum(&|s| s.build_source_s)),
        ("engine.run_s", run_s),
        ("engine.self_s", self_s),
        ("engine.cycles_stepped", stepped),
        ("engine.cycles_skipped", skipped),
        ("engine.skip_ratio", ratio(skipped, cycles)),
        ("engine.ns_per_stepped_cycle", ratio(self_s * 1e9, stepped)),
        (
            "engine.slab_high_water",
            round
                .sims
                .iter()
                .map(|s| s.report.slab_high_water as f64)
                .fold(0.0, f64::max),
        ),
        ("engine.allocs_per_kilocycle", ratio(allocs, cycles)),
        ("traffic.poll_calls", polls),
        (
            "traffic.poll_hit_ratio",
            ratio(sum(&|s| source(s).poll.hits as f64), polls),
        ),
        ("traffic.polls_per_stepped_cycle", ratio(polls, stepped)),
        (
            "traffic.poll_s",
            sum(&|s| source(s).poll.estimated_s(timer_ns)),
        ),
        (
            "traffic.on_complete_s",
            sum(&|s| source(s).on_complete.estimated_s(timer_ns)),
        ),
        (
            "traffic.next_arrival_calls",
            sum(&|s| source(s).next_arrival.calls as f64),
        ),
        ("traffic.share", ratio(source_s, run_s)),
    ];
    if round.sims.iter().all(|s| s.snap.is_some()) && !round.sims.is_empty() {
        let snap = |f: &dyn Fn(&SnapRecord) -> f64| sum(&|s| s.snap.as_ref().map_or(0.0, f));
        values.push(("snap.bytes", snap(&|n| n.bytes as f64)));
        values.push(("snap.digest_s", snap(&|n| n.digest_s)));
    }
    values
}

/// Per-layer metrics: the median over traced rounds.
pub fn layer_metrics(rounds: &[Round], timer_ns: f64) -> BTreeMap<&'static str, f64> {
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for round in rounds.iter().filter(|r| r.traced) {
        for (name, value) in layer_values(round, timer_ns) {
            samples.entry(name).or_default().push(value);
        }
    }
    samples
        .into_iter()
        .filter_map(|(name, v)| median(&v).map(|m| (name, m)))
        .collect()
}

/// How much longer traced rounds spend in `Engine::run` than untraced
/// ones, in percent, from the medians of each kind.
pub fn trace_overhead_pct(rounds: &[Round]) -> Option<f64> {
    let times = |traced: bool| -> Vec<f64> {
        rounds
            .iter()
            .filter(|r| r.traced == traced && !r.sims.is_empty())
            .map(Round::run_s)
            .collect()
    };
    Some((median(&times(true))? / median(&times(false))? - 1.0) * 100.0)
}

/// How much faster the sharded twins ran than the serial runs of their
/// untraced round. One sample per simulation, taken while the neighbours
/// may be busy: a reading, not a gated metric.
pub fn shard_speedup(rounds: &[Round]) -> Option<f64> {
    let (serial, sharded) = rounds
        .iter()
        .filter(|r| !r.traced)
        .flat_map(|r| &r.sims)
        .filter_map(|s| Some((s.run_s, s.twin_run_s?)))
        .fold((0.0, 0.0), |(a, b), (serial, twin)| (a + serial, b + twin));
    (sharded > 0.0).then(|| serial / sharded)
}

/// Mean |simulated − paper| / paper over the simulations the paper gives
/// a value for, in percent; `None` where it gives none.
pub fn paper_err_pct(round: &Round) -> Option<f64> {
    let errs: Vec<f64> = round
        .sims
        .iter()
        .filter_map(|s| {
            s.paper_gib_s
                .map(|p| (s.report.throughput_gib_s - p).abs() / p)
        })
        .collect();
    (!errs.is_empty()).then(|| 100.0 * errs.iter().sum::<f64>() / errs.len() as f64)
}

/// One simulation's record as JSON, for `trace.json`.
pub fn record_json(s: &SimRecord, timer_ns: f64) -> Json {
    let r = &s.report;
    let mut pairs = vec![
        ("label", Json::str(s.label.as_str())),
        ("build_engine_s", Json::F64(s.build_engine_s)),
        ("build_source_s", Json::F64(s.build_source_s)),
        ("run_s", Json::F64(s.run_s)),
        ("cycles", Json::U64(r.cycles)),
        ("cycles_skipped", Json::U64(r.cycles_skipped)),
        ("payload_bytes", Json::U64(r.payload_bytes)),
        ("transfers_completed", Json::U64(r.transfers_completed)),
        ("throughput_gib_s", Json::F64(r.throughput_gib_s)),
        ("state_digest", Json::U64(r.state_digest)),
        ("slab_high_water", Json::U64(r.slab_high_water)),
        ("threads", Json::U64(r.threads as u64)),
    ];
    if let Some(t) = s.twin_run_s {
        pairs.push(("twin_run_s", Json::F64(t)));
    }
    if let Some(src) = s.source {
        pairs.push((
            "source",
            Json::obj(vec![
                ("poll", src.poll.to_json(timer_ns)),
                ("on_complete", src.on_complete.to_json(timer_ns)),
                ("next_arrival", src.next_arrival.to_json(timer_ns)),
            ]),
        ));
    }
    if let Some(n) = s.snap {
        pairs.push((
            "snapshot",
            Json::obj(vec![
                ("bytes", Json::U64(n.bytes)),
                ("encode_s", Json::F64(n.encode_s)),
                ("restore_s", Json::F64(n.restore_s)),
                ("digest_s", Json::F64(n.digest_s)),
            ]),
        ));
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CallStats;

    fn record(cycles: u64, skipped: u64, polls: u64) -> SimRecord {
        SimRecord {
            label: "x".into(),
            paper_gib_s: Some(2.0),
            report: SimReport {
                cycles,
                payload_bytes: 0,
                throughput_gib_s: 3.0,
                throughput_bytes_s: 0.0,
                transfers_completed: 0,
                mean_latency: 0.0,
                p99_latency: 0,
                stop_reason: StopReason::Budget,
                state_digest: 0,
                cycles_per_sec: 0.0,
                slab_high_water: 0,
                allocs_per_kilocycle: 0.0,
                cycles_skipped: skipped,
                threads: 1,
            },
            build_engine_s: 0.0,
            build_source_s: 0.0,
            run_s: 0.5,
            source: Some(SourceStats {
                poll: CallStats {
                    calls: polls,
                    ..CallStats::default()
                },
                ..SourceStats::default()
            }),
            snap: None,
            twin_run_s: None,
        }
    }

    fn value(values: &[(&str, f64)], name: &str) -> f64 {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{name} missing"))
    }

    #[test]
    fn fully_skipped_runs_and_pollless_runs_report_zero_not_nan() {
        let round = Round {
            traced: true,
            parse_s: 0.0,
            sims: vec![record(1_000, 1_000, 0)],
        };
        let values = layer_values(&round, 20.0);
        assert_eq!(value(&values, "engine.ns_per_stepped_cycle"), 0.0);
        assert_eq!(value(&values, "traffic.poll_hit_ratio"), 0.0);
        assert_eq!(value(&values, "traffic.polls_per_stepped_cycle"), 0.0);
        assert_eq!(value(&values, "engine.skip_ratio"), 1.0);
        assert!(values.iter().all(|(_, v)| v.is_finite()));
        let empty = Round {
            traced: true,
            parse_s: 0.0,
            sims: vec![],
        };
        assert!(layer_values(&empty, 20.0).iter().all(|(_, v)| *v == 0.0));
        assert_eq!(cycles_per_s(&[empty]), None);
    }

    #[test]
    fn layer_values_cover_the_registry() {
        use crate::metrics::{Kind, REGISTRY};
        let mut round = Round {
            traced: true,
            parse_s: 0.0,
            sims: vec![record(1_000, 10, 5)],
        };
        round.sims[0].snap = Some(SnapRecord {
            bytes: 1,
            encode_s: 0.0,
            restore_s: 0.0,
            digest_s: 0.0,
        });
        let metrics = layer_metrics(&[round], 0.0);
        let mut registered: Vec<&str> = REGISTRY
            .iter()
            .filter(|m| matches!(m.kind, Kind::PerLayer { .. }))
            .map(|m| m.name)
            .collect();
        registered.sort_unstable();
        assert_eq!(metrics.keys().copied().collect::<Vec<_>>(), registered);
    }

    #[test]
    fn rate_takes_each_simulation_at_its_fastest_untraced_run() {
        let round = |traced, run_s: [f64; 2]| Round {
            traced,
            parse_s: 0.0,
            sims: run_s
                .iter()
                .zip(["a", "b"])
                .map(|(&t, label)| SimRecord {
                    label: label.into(),
                    run_s: t,
                    ..record(1_000, 0, 0)
                })
                .collect(),
        };
        let rounds = [
            round(false, [0.5, 0.2]),
            round(false, [0.3, 0.4]),
            round(true, [0.01, 0.01]),
        ];
        // a at 0.3 s, b at 0.2 s; the traced round does not count.
        assert_eq!(cycles_per_s(&rounds), Some(2_000.0 / 0.5));
    }

    #[test]
    fn shard_speedup_compares_twins_with_their_untraced_serial_runs() {
        let round = |traced, twin| Round {
            traced,
            parse_s: 0.0,
            sims: vec![SimRecord {
                twin_run_s: twin,
                ..record(1_000, 0, 0)
            }],
        };
        assert_eq!(shard_speedup(&[round(false, None)]), None);
        // Serial 0.5 s against a 0.25 s twin; the traced twin does not count.
        let rounds = [round(false, Some(0.25)), round(true, Some(0.01))];
        assert_eq!(shard_speedup(&rounds), Some(2.0));
    }

    #[test]
    fn paper_error_is_the_mean_relative_error() {
        let round = Round {
            traced: false,
            parse_s: 0.0,
            sims: vec![record(1, 0, 1), record(1, 0, 1)],
        };
        assert_eq!(paper_err_pct(&round), Some(50.0));
        let mut none = round.clone();
        none.sims.iter_mut().for_each(|s| s.paper_gib_s = None);
        assert_eq!(paper_err_pct(&none), None);
    }
}
