//! Tracing at public-API boundaries: coarse spans around every call the
//! benchmark makes into a layer, and [`TracedSource`], which counts every
//! call the engine makes into its traffic source and times a sample of
//! them.

use std::cell::Cell;

use simkit::{Cycle, Horizon, Json};
use traffic::{TrafficSource, Transfer};

use crate::clock::Stopwatch;

/// One call in every `SAMPLE_STRIDE` is timed: a timer pair costs several
/// times a typical poll. The stride is prime so it cannot alias the
/// per-cycle sweep over 16 or 256 masters.
pub const SAMPLE_STRIDE: u64 = 31;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// A named interval with the span that caused it.
#[derive(Debug)]
struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Keeps every span in memory until the benchmark writes them out.
#[derive(Debug)]
pub struct Tracer {
    origin: Stopwatch,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Stopwatch::start(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> SpanId {
        let now = self.origin.elapsed_ns();
        self.spans.push(Span {
            name: name.into(),
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Ends the span and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let span = &mut self.spans[id];
        span.end_ns = self.origin.elapsed_ns();
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj(vec![
                        ("id", Json::U64(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                        ("name", Json::str(s.name.as_str())),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// Exact call counts of one source method, plus the timed sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStats {
    pub calls: u64,
    /// Calls that returned work (`poll` only).
    pub hits: u64,
    pub samples: u64,
    pub sampled_ns: u64,
}

impl CallStats {
    /// Counts one call and times it when it falls on the sample stride.
    fn record<R>(&mut self, call: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if !(self.calls - 1).is_multiple_of(SAMPLE_STRIDE) {
            return call();
        }
        let sw = Stopwatch::start();
        let out = call();
        self.sampled_ns += sw.elapsed_ns();
        self.samples += 1;
        out
    }

    /// Estimated seconds spent in all calls: the sampled mean, less the
    /// timer's own cost, times the exact call count. Not clamped: a call
    /// cheaper than the timer's noise can come out slightly negative, which
    /// reads as "unresolved", where a clamp would report a constant zero.
    pub fn estimated_s(&self, timer_ns: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let per_call_ns = self.sampled_ns as f64 / self.samples as f64 - timer_ns;
        per_call_ns * self.calls as f64 * 1e-9
    }

    pub fn to_json(self, timer_ns: f64) -> Json {
        Json::obj(vec![
            ("calls", Json::U64(self.calls)),
            ("hits", Json::U64(self.hits)),
            ("samples", Json::U64(self.samples)),
            ("sampled_ns", Json::U64(self.sampled_ns)),
            ("estimated_s", Json::F64(self.estimated_s(timer_ns))),
        ])
    }
}

/// What a [`TracedSource`] observed over one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceStats {
    pub poll: CallStats,
    pub on_complete: CallStats,
    pub next_arrival: CallStats,
}

impl SourceStats {
    /// Estimated seconds spent inside the source.
    pub fn estimated_s(&self, timer_ns: f64) -> f64 {
        self.poll.estimated_s(timer_ns)
            + self.on_complete.estimated_s(timer_ns)
            + self.next_arrival.estimated_s(timer_ns)
    }
}

/// A transparent wrapper: every [`TrafficSource`] method forwards to the
/// inner source, so the engine simulates exactly what it would without
/// the wrapper. Dropping `next_arrival` in particular would silently turn
/// off time skipping.
pub struct TracedSource<'a> {
    inner: &'a mut dyn TrafficSource,
    poll: CallStats,
    on_complete: CallStats,
    next_arrival: Cell<CallStats>,
}

impl<'a> TracedSource<'a> {
    pub fn new(inner: &'a mut dyn TrafficSource) -> Self {
        Self {
            inner,
            poll: CallStats::default(),
            on_complete: CallStats::default(),
            next_arrival: Cell::new(CallStats::default()),
        }
    }

    pub fn stats(&self) -> SourceStats {
        SourceStats {
            poll: self.poll,
            on_complete: self.on_complete,
            next_arrival: self.next_arrival.get(),
        }
    }
}

impl TrafficSource for TracedSource<'_> {
    fn poll(&mut self, master: usize, now: Cycle) -> Option<Transfer> {
        let inner = &mut *self.inner;
        let out = self.poll.record(|| inner.poll(master, now));
        self.poll.hits += u64::from(out.is_some());
        out
    }

    fn on_complete(&mut self, master: usize, id: u64, now: Cycle) {
        let inner = &mut *self.inner;
        self.on_complete
            .record(|| inner.on_complete(master, id, now));
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn next_arrival(&self, now: Cycle) -> Horizon {
        let mut stats = self.next_arrival.get();
        let horizon = stats.record(|| self.inner.next_arrival(now));
        self.next_arrival.set(stats);
        horizon
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.inner.restore_state(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenario::{PacketProfile, Scenario, TrafficSpec};
    use simkit::SimReport;
    use traffic::DnnWorkload;

    fn run(scenario: &Scenario, traced: bool) -> (SimReport, SourceStats) {
        let mut engine = scenario.build_engine().expect("valid scenario");
        let mut source = scenario.build_source();
        let max_cycles = scenario.budget.unwrap_or(scenario.warmup + scenario.window);
        if !traced {
            let report = engine.run(&mut *source, max_cycles, scenario.warmup);
            return (report, SourceStats::default());
        }
        let mut wrapped = TracedSource::new(&mut *source);
        let report = engine.run(&mut wrapped, max_cycles, scenario.warmup);
        (report, wrapped.stats())
    }

    #[test]
    fn traced_runs_equal_raw_runs() {
        let scenarios = [
            Scenario::patronoc()
                .traffic(TrafficSpec::uniform_copies(0.01, 1000))
                .warmup(1_000)
                .window(40_000)
                .seed(3),
            Scenario::packet(PacketProfile::Compact)
                .traffic(TrafficSpec::uniform(0.01, 100))
                .warmup(1_000)
                .window(40_000)
                .seed(4),
            Scenario::patronoc()
                .data_width(512)
                .traffic(TrafficSpec::dnn(DnnWorkload::PipelinedConv, 1))
                .budget(50_000_000)
                .seed(5),
        ];
        let mut skipped_somewhere = false;
        for scenario in &scenarios {
            let (raw, _) = run(scenario, false);
            let (traced, stats) = run(scenario, true);
            assert_eq!(raw, traced, "{scenario:?}");
            // Telemetry `PartialEq` leaves out: a wrapper that hid the
            // source's lookahead would show up here first.
            assert_eq!(raw.cycles_skipped, traced.cycles_skipped, "{scenario:?}");
            skipped_somewhere |= raw.cycles_skipped > 0;
            assert!(stats.poll.calls > 0 && stats.poll.samples > 0);
            assert!(stats.poll.hits > 0 && stats.poll.hits <= stats.poll.calls);
            assert_eq!(stats.on_complete.calls, raw.transfers_completed);
        }
        assert!(skipped_somewhere, "no scenario exercised time skipping");
    }

    #[test]
    fn sampling_counts_every_call_and_times_one_in_the_stride() {
        let mut stats = CallStats::default();
        for _ in 0..(2 * SAMPLE_STRIDE + 1) {
            stats.record(|| ());
        }
        assert_eq!(stats.calls, 2 * SAMPLE_STRIDE + 1);
        assert_eq!(stats.samples, 3, "calls 1, 32 and 63 are timed");
    }

    #[test]
    fn estimates_scale_the_sample_and_subtract_the_timer() {
        let stats = CallStats {
            calls: 310,
            hits: 0,
            samples: 10,
            sampled_ns: 1_000,
        };
        // 100 ns per sample, 20 of them the timer's: 80 ns x 310 calls.
        assert!((stats.estimated_s(20.0) - 80.0 * 310.0 * 1e-9).abs() < 1e-15);
        // A timer dearer than the call is reported as measured, not zero.
        assert!(stats.estimated_s(101.0) < 0.0);
        assert_eq!(CallStats::default().estimated_s(20.0), 0.0, "no samples");
    }
}
