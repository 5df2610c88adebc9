//! The cycle-accurate NoC simulation engine.
//!
//! [`NocSim`] wires crosspoints, links and endpoints according to a
//! [`NocConfig`], then steps the whole system cycle by cycle while pulling
//! stimulus from a [`TrafficSource`]. This plays the role of the paper's
//! "cycle-accurate register-transfer level (RTL) simulation" (§IV): the same
//! handshake-level behaviour, expressed as a two-phase Rust model instead of
//! SystemVerilog.
//!
//! ## Activity-driven stepping
//!
//! The default hot path only touches *live* hardware: links that carry
//! beats (or whose cycle snapshot is stale — see
//! [`AxiLink::is_quiescent`]), and components that hold in-flight state or
//! sit next to a live link. Membership is tracked in
//! [`simkit::sched::ActiveSet`]s whose iteration is ascending by index —
//! the same relative order as the full sweep — and the two-phase FIFO
//! snapshot discipline guarantees a skipped (quiescent) component's step
//! would have been a no-op, so the results are **bit-identical** to
//! stepping everything ([`NocConfig::full_sweep`] keeps that reference
//! path; `crates/bench/tests/equivalence.rs` cross-checks the two). At low
//! injected loads this removes >90 % of the per-cycle work.
//!
//! Inside a stepped crosspoint the same idea works per AXI channel: every
//! link refresh reports its channel edges ([`Edges`]), which wake the
//! stages of the crosspoints at its two ends, and [`Xp::step`] evaluates
//! only awake stages. The reference path evaluates every stage.

use crate::config::{NocConfig, DMA_QUEUE_CAP};
use crate::endpoint::{DmaEngine, InflightTransfer, MemorySlave, ResolvedTransfer, WStream};
use crate::link::{AxiLink, Edges};
use crate::routing::{connectivity_tables, Connectivity, RoutingAlgorithm};
use crate::shard::{self, RegionCtx, RegionLinks, ShardLinkView, Sharding};
use crate::snapcodec::corrupt;
use crate::topology::{Dir, LOCAL, PORTS};
use crate::xp::Xp;
use axi::ConfigError;
use simkit::pool::{crew_scope, Crew};
use simkit::region::{split_front, RegionMap};
use simkit::sched::{should_desaturate, should_saturate, ActiveSet};
use simkit::slab::SlabStats;
use simkit::snap::{DecodeLimits, Decoder, Encoder, SnapError};
use simkit::{Cycle, Histogram, Horizon, SimReport, Slab, StopReason, ThroughputMeter};
use traffic::{drive, Engine, TrafficSource};

/// The component at one end of a link, for activity propagation: a live
/// link wakes both of its endpoints.
#[derive(Debug, Clone, Copy)]
enum Comp {
    Xp(usize),
    Dma(usize),
    Mem(usize),
}

/// The `xp_ends` entry of a link end that is a DMA or memory, not a
/// crosspoint: its edges wake nothing.
const NO_XP: u32 = u32::MAX;

/// Hands the edges `e` of one link to the crosspoints at its ends
/// (`ends`, an `xp_ends` entry): `wake(xp, stages)` for each end that is
/// a crosspoint.
#[inline]
fn dispatch_edges(ends: (u32, u32), e: Edges, mut wake: impl FnMut(usize, u8)) {
    if ends.0 != NO_XP {
        wake(ends.0 as usize, e.master_wakes());
    }
    if ends.1 != NO_XP {
        wake(ends.1 as usize, e.slave_wakes());
    }
}

/// The activity scheduler: which links need a `begin_cycle` and which
/// components need a `step` this cycle.
#[derive(Debug, Clone)]
struct Sched {
    /// Links to refresh this cycle (possibly non-quiescent).
    hot_links: ActiveSet,
    /// DMAs to step this cycle (self-active or next to a live link).
    dmas: ActiveSet,
    /// Memory slaves to step this cycle.
    mems: ActiveSet,
    /// Crosspoints to step this cycle.
    xps: ActiveSet,
    /// `(master side, slave side)` component of every link.
    ends: Vec<(Comp, Comp)>,
    /// `(master side, slave side)` crosspoint of every link, [`NO_XP`] for
    /// an endpoint: where [`dispatch_edges`] sends the link's edges.
    xp_ends: Vec<(u32, u32)>,
    /// Reusable drain buffers (ascending index order).
    scratch_links: Vec<usize>,
    scratch_dmas: Vec<usize>,
    scratch_mems: Vec<usize>,
    scratch_xps: Vec<usize>,
    /// Cumulative link refreshes + component steps, counted identically in
    /// active and full-sweep mode — the *deterministic* work measure the
    /// equivalence tests assert the activity saving on (wall clock is
    /// noisy; this is not).
    work_items: u64,
    /// Regime flag: `true` while the NoC is so busy that per-component
    /// bookkeeping costs more than it saves, so cycles run as plain full
    /// sweeps with no set maintenance. Thresholds (with hysteresis against
    /// flapping) are the shared [`simkit::sched::SATURATE_ENTER`] /
    /// [`simkit::sched::SATURATE_EXIT`] fractions of the full sweep's work
    /// items. The decision depends only on simulation state, so the regime
    /// sequence — and therefore `work_items` — is deterministic.
    saturated: bool,
}

impl Sched {
    fn new(ends: Vec<(Comp, Comp)>, dmas: usize, mems: usize, xps: usize) -> Self {
        let links = ends.len();
        let xp_of = |c: Comp| match c {
            Comp::Xp(i) => u32::try_from(i).expect("crosspoint index fits u32"),
            Comp::Dma(_) | Comp::Mem(_) => NO_XP,
        };
        let mut s = Self {
            hot_links: ActiveSet::new(links),
            dmas: ActiveSet::new(dmas),
            mems: ActiveSet::new(mems),
            xps: ActiveSet::new(xps),
            xp_ends: ends
                .iter()
                .map(|&(master, slave)| (xp_of(master), xp_of(slave)))
                .collect(),
            ends,
            scratch_links: Vec::with_capacity(links),
            scratch_dmas: Vec::with_capacity(dmas),
            scratch_mems: Vec::with_capacity(mems),
            scratch_xps: Vec::with_capacity(xps),
            work_items: 0,
            saturated: false,
        };
        // Cycle 0 is a full sweep: fresh FIFOs are not yet quiescent (their
        // snapshots are unrefreshed, nothing is pushable), and the first
        // begin_cycle on every link is what arms them — identical to the
        // reference path by construction.
        for l in 0..links {
            s.hot_links.insert(l);
        }
        for d in 0..dmas {
            s.dmas.insert(d);
        }
        for m in 0..mems {
            s.mems.insert(m);
        }
        for x in 0..xps {
            s.xps.insert(x);
        }
        s
    }

    fn wake(&mut self, c: Comp) {
        match c {
            Comp::Xp(i) => self.xps.insert(i),
            Comp::Dma(i) => self.dmas.insert(i),
            Comp::Mem(i) => self.mems.insert(i),
        }
    }

    /// Whether the scheduler knows of no live link or component. By the
    /// activity invariant (every non-idle component or non-quiescent link
    /// is a member), this implies the NoC is fully drained.
    fn all_idle(&self) -> bool {
        self.hot_links.is_empty()
            && self.dmas.is_empty()
            && self.mems.is_empty()
            && self.xps.is_empty()
    }
}

/// One region's share of a sharded cycle: its context, its own links and
/// components, and its arenas, each a plain `&mut` cut off the engine's
/// arrays.
struct RegionPart<'a> {
    ctx: &'a mut RegionCtx,
    links: RegionLinks<'a>,
    xps: &'a mut [Xp],
    dmas: &'a mut [DmaEngine],
    mems: &'a mut [MemorySlave],
    txns: &'a mut Slab<InflightTransfer>,
    wstreams: &'a mut Slab<WStream>,
}

/// A fully wired PATRONoC instance with its evaluation endpoints.
#[derive(Debug, Clone)]
pub struct NocSim {
    cfg: NocConfig,
    links: Vec<AxiLink>,
    xps: Vec<Xp>,
    dmas: Vec<DmaEngine>,
    mems: Vec<MemorySlave>,
    /// Arenas of every in-flight transfer, one per region (a single slab
    /// when the instance is serial): allocated at injection
    /// ([`poll_stimulus`](Self::poll_stimulus)), owned by one DMA's
    /// handle queue/active slot, freed on retirement. Per-region arenas
    /// keep the parallel phase allocation-race-free; with one region the
    /// allocation sequence is exactly the historical single-slab one.
    txns: Vec<Slab<InflightTransfer>>,
    /// Arenas of the W-channel streams currently being serialized (same
    /// per-region split as `txns`).
    wstreams: Vec<Slab<WStream>>,
    /// DMA index → region owning its arenas (all zeros when serial).
    dma_region: Vec<u32>,
    /// The region partition, present when `cfg.threads > 1` splits the
    /// topology into more than one row band and `cfg.full_sweep` is off.
    sharding: Option<Sharding>,
    /// Reused buffer for per-cycle completion draining (no per-cycle
    /// `Vec`).
    finished_scratch: Vec<u64>,
    now: Cycle,
    meter: ThroughputMeter,
    stop_reason: StopReason,
    sched: Sched,
    /// Cycles stepped inside timed [`run`](Engine::run) loops.
    wall_cycles: Cycle,
    /// Wall-clock seconds spent inside timed [`run`](Engine::run) loops.
    wall_secs: f64,
    /// Cycles crossed by event-horizon time skipping ([`Engine::skip_to`])
    /// instead of stepping. Telemetry like `wall_cycles`: excluded from
    /// snapshots, so it restarts at zero on restore.
    cycles_skipped: u64,
}

impl NocSim {
    /// Builds the NoC: one XP per node, directed XP↔XP links per the
    /// topology, and DMA/memory endpoints on the local ports.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration fails
    /// [`NocConfig::validate`].
    pub fn new(cfg: NocConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let topo = cfg.topology;
        let n = topo.num_nodes();
        let mut links: Vec<AxiLink> = Vec::new();
        // Link endpoints, for activity propagation (a live link wakes the
        // components on both of its sides).
        let mut ends: Vec<(Comp, Comp)> = Vec::new();
        let mut alloc = |links: &mut Vec<AxiLink>, e: (Comp, Comp)| {
            links.push(AxiLink::new(cfg.link_stages));
            ends.push(e);
            links.len() - 1
        };
        // XP↔XP links: one directed link per (node, dir) pair with a
        // neighbour. Index map: link_of[node][dir] = forward link where
        // `node` is the master side.
        let mut out_of: Vec<[Option<usize>; PORTS]> = vec![[None; PORTS]; n];
        let mut in_of: Vec<[Option<usize>; PORTS]> = vec![[None; PORTS]; n];
        #[allow(clippy::needless_range_loop)] // node indexes two maps at once
        for node in 0..n {
            for dir in Dir::ALL {
                if let Some(nb) = topo.neighbor(node, dir) {
                    let l = alloc(&mut links, (Comp::Xp(node), Comp::Xp(nb)));
                    out_of[node][dir.port()] = Some(l);
                    in_of[nb][dir.opposite().port()] = Some(l);
                }
            }
        }
        // Endpoint links.
        let mut dmas = Vec::new();
        for &m in &cfg.masters {
            let l = alloc(&mut links, (Comp::Dma(dmas.len()), Comp::Xp(m)));
            in_of[m][LOCAL] = Some(l);
            dmas.push(DmaEngine::new(m, l, cfg.axi, cfg.dma_setup_cycles));
        }
        let mut mems = Vec::new();
        for &s in &cfg.slaves {
            let l = alloc(&mut links, (Comp::Xp(s), Comp::Mem(mems.len())));
            out_of[s][LOCAL] = Some(l);
            mems.push(MemorySlave::new(
                s,
                l,
                cfg.mem_latency,
                cfg.slave_outstanding,
            ));
        }
        // One route sweep derives every XP's connectivity matrix; the
        // per-node walk repeated n times would be O(n³·hops) — minutes of
        // construction on a 32×32 mesh.
        let conn = connectivity_tables(topo, cfg.algorithm, cfg.connectivity);
        let xps = (0..n)
            .map(|node| {
                Xp::new(
                    topo,
                    cfg.algorithm,
                    conn[node],
                    node,
                    cfg.axi.id_width(),
                    in_of[node],
                    out_of[node],
                )
            })
            .collect();
        let sched = Sched::new(ends, dmas.len(), mems.len(), n);
        // Region partition for threaded runs: contiguous row bands, so a
        // one-row mesh never shards. One region means the serial engine,
        // sharding-free, and so does the full-sweep reference at any thread
        // count.
        let region_map = RegionMap::new(topo.cols, topo.rows, cfg.threads.max(1));
        let sharding = if cfg.threads > 1 && !cfg.full_sweep && region_map.regions() > 1 {
            let node_of = |c: Comp| match c {
                Comp::Xp(i) => i,
                Comp::Dma(i) => dmas[i].node(),
                Comp::Mem(i) => mems[i].node(),
            };
            let link_nodes: Vec<(usize, usize)> = sched
                .ends
                .iter()
                .map(|&(m, s)| (node_of(m), node_of(s)))
                .collect();
            let dma_nodes: Vec<usize> = dmas.iter().map(DmaEngine::node).collect();
            let mem_nodes: Vec<usize> = mems.iter().map(MemorySlave::node).collect();
            Some(Sharding::new(
                &region_map,
                &link_nodes,
                &dma_nodes,
                &mem_nodes,
            ))
        } else {
            None
        };
        let regions = sharding.as_ref().map_or(1, |s| s.ctxs.len());
        let dma_region = dmas
            .iter()
            .map(|d| {
                sharding
                    .as_ref()
                    .map_or(0, |_| region_map.region_of(d.node()) as u32)
            })
            .collect();
        Ok(Self {
            cfg,
            links,
            xps,
            dmas,
            mems,
            txns: (0..regions).map(|_| Slab::new()).collect(),
            wstreams: (0..regions).map(|_| Slab::new()).collect(),
            dma_region,
            sharding,
            finished_scratch: Vec::new(),
            now: 0,
            meter: ThroughputMeter::new(0),
            stop_reason: StopReason::Budget,
            sched,
            wall_cycles: 0,
            wall_secs: 0.0,
            cycles_skipped: 0,
        })
    }

    /// The configuration this instance was built from.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.cfg
    }

    /// Why the last [`run`](Engine::run) stopped.
    #[must_use]
    pub fn stop_reason(&self) -> StopReason {
        self.stop_reason
    }

    /// Pulls stimulus for every master (bounded per cycle to keep
    /// pathological sources from spinning forever, and per queue depth so
    /// a saturated NoC backpressures the generator instead of buffering
    /// unbounded descriptor backlogs — see [`DMA_QUEUE_CAP`]).
    /// This runs full-sweep in both stepping modes: sources are stateful,
    /// so the poll call sequence must not depend on NoC activity. Returns
    /// via `wake` each DMA index that accepted at least one descriptor.
    fn poll_stimulus(&mut self, source: &mut dyn TrafficSource, mut wake: impl FnMut(usize)) {
        for di in 0..self.dmas.len() {
            let node = self.dmas[di].node();
            for _ in 0..64 {
                if self.dmas[di].queued() >= DMA_QUEUE_CAP {
                    break;
                }
                let Some(t) = source.poll(node, self.now) else {
                    break;
                };
                debug_assert!(t.bytes > 0, "zero-byte transfer");
                debug_assert!(
                    t.dst < self.cfg.topology.num_nodes(),
                    "transfer targets a non-existent endpoint (a real \
                     interconnect would route this to the error slave)"
                );
                debug_assert!(
                    t.offset + t.bytes <= self.cfg.region_size,
                    "transfer leaves its destination region"
                );
                let addr = self.cfg.region_base(t.dst) + t.offset;
                let src_addr = match t.kind {
                    traffic::TransferKind::Copy { src, src_offset } => {
                        debug_assert!(
                            src_offset + t.bytes <= self.cfg.region_size,
                            "copy leaves its source region"
                        );
                        Some(self.cfg.region_base(src) + src_offset)
                    }
                    _ => None,
                };
                // The transaction's single allocation: one arena record,
                // flowing by handle until retirement frees it. The arena
                // is the owning region's (slab 0 when serial).
                let txns = &mut self.txns[self.dma_region[di] as usize];
                let h = txns.alloc(InflightTransfer::new(ResolvedTransfer {
                    transfer: t,
                    addr,
                    src_addr,
                }));
                self.dmas[di].enqueue(txns, h);
                wake(di);
            }
        }
    }

    /// The reference cycle: step *everything*, every stage of every
    /// crosspoint included (the pre-activity-driven behaviour, kept as the
    /// equivalence oracle and bisection aid). Also the body of the
    /// saturated regime, which evaluates only awake crosspoint stages and
    /// counts live links to know when precise tracking starts paying
    /// again.
    fn step_full(&mut self, source: &mut dyn TrafficSource) -> usize {
        self.sched.work_items +=
            (self.links.len() + self.dmas.len() + self.mems.len() + self.xps.len()) as u64;
        let reference = self.cfg.full_sweep;
        let mut live = 0usize;
        for (l, link) in self.links.iter_mut().enumerate() {
            let e = link.begin_cycle();
            live += usize::from(e.live);
            if !reference {
                dispatch_edges(self.sched.xp_ends[l], e, |x, s| self.xps[x].wake(s));
            }
        }
        self.poll_stimulus(source, |_| {});
        for di in 0..self.dmas.len() {
            let link = self.dmas[di].link();
            let region = self.dma_region[di] as usize;
            self.dmas[di].step(
                &mut self.links[link],
                self.now,
                &mut self.txns[region],
                &mut self.wstreams[region],
                &mut self.meter,
            );
        }
        for mi in 0..self.mems.len() {
            let link = self.mems[mi].link();
            self.mems[mi].step(&mut self.links[link], self.now, &mut self.meter);
        }
        for x in &mut self.xps {
            if reference {
                x.step_all(self.links.as_mut_slice());
            } else {
                x.step(self.links.as_mut_slice());
            }
        }
        // Report completions back to the source.
        let mut finished = std::mem::take(&mut self.finished_scratch);
        for d in &mut self.dmas {
            let node = d.node();
            d.drain_finished(&mut finished);
            for &id in &finished {
                source.on_complete(node, id, self.now);
            }
        }
        self.finished_scratch = finished;
        self.now += 1;
        live
    }

    /// Rebuilds the activity sets from scratch when the saturated regime
    /// hands back to precise tracking: every non-quiescent link (plus its
    /// endpoints) and every non-idle endpoint component becomes live.
    fn rebuild_sets(&mut self) {
        for l in 0..self.links.len() {
            if !self.links[l].is_quiescent() {
                self.sched.hot_links.insert(l);
                let (master, slave) = self.sched.ends[l];
                self.sched.wake(master);
                self.sched.wake(slave);
            }
        }
        for (di, d) in self.dmas.iter().enumerate() {
            if !d.is_idle() {
                self.sched.dmas.insert(di);
            }
        }
        for (mi, m) in self.mems.iter().enumerate() {
            if !m.is_idle() {
                self.sched.mems.insert(mi);
            }
        }
    }

    /// The activity-driven cycle: refresh only the hot links, step only
    /// the live components, in the same ascending-index order as the full
    /// sweep. Skipped links are quiescent (their `begin_cycle` would be a
    /// no-op) and skipped components see only quiescent links and hold no
    /// in-flight state (their `step` would be a no-op), so the state
    /// evolution is bit-identical. When the NoC saturates, cycles run in
    /// the bookkeeping-free saturated regime instead (see
    /// [`Sched::saturated`]) so the hot path never pays for tracking it
    /// cannot profit from.
    fn step_active(&mut self, source: &mut dyn TrafficSource) {
        let comps = self.dmas.len() + self.mems.len() + self.xps.len();
        let full_items = self.links.len() + comps;
        if self.sched.saturated {
            let live = self.step_full(source);
            // Counterfactual precise-mode cost ≈ live links + every
            // component (at this activity nearly all are next to a live
            // link anyway).
            if should_desaturate(live + comps, full_items) {
                self.sched.saturated = false;
                self.rebuild_sets();
            }
            return;
        }
        let tracked = self.step_tracked(source);
        if should_saturate(tracked, full_items) {
            self.sched.saturated = true;
            self.sched.hot_links.clear();
            self.sched.dmas.clear();
            self.sched.mems.clear();
            self.sched.xps.clear();
        }
    }

    /// One precisely tracked cycle (the non-saturated regime). Returns the
    /// number of work items it touched (the regime switch input).
    fn step_tracked(&mut self, source: &mut dyn TrafficSource) -> usize {
        // Phase 1: refresh the hot links. Links still carrying beats (or
        // with stale snapshots) stay hot and wake both endpoints; the rest
        // fall asleep until a neighbouring component touches them again.
        // Every refreshed link, live or not, hands its channel edges to
        // the crosspoint stages at its ends: a channel just drained by two
        // pops is no longer live, but its producer may push again.
        let mut live_links = std::mem::take(&mut self.sched.scratch_links);
        self.sched.hot_links.drain_into(&mut live_links);
        self.sched.work_items += live_links.len() as u64;
        for &l in &live_links {
            let e = self.links[l].begin_cycle();
            dispatch_edges(self.sched.xp_ends[l], e, |x, s| self.xps[x].wake(s));
            if e.live {
                self.sched.hot_links.insert(l);
                let (master, slave) = self.sched.ends[l];
                self.sched.wake(master);
                self.sched.wake(slave);
            }
        }
        self.sched.scratch_links = live_links;
        // Phase 2: poll stimulus for every master; accepting a descriptor
        // wakes the DMA.
        let mut woken = std::mem::take(&mut self.sched.scratch_dmas);
        woken.clear();
        self.poll_stimulus(source, |di| woken.push(di));
        for &di in &woken {
            self.sched.dmas.insert(di);
        }
        self.sched.scratch_dmas = woken;
        // Freeze this cycle's work lists (ascending index order — the full
        // sweep's relative order); the sets start accumulating next
        // cycle's activity.
        let mut dmas_now = std::mem::take(&mut self.sched.scratch_dmas);
        let mut mems_now = std::mem::take(&mut self.sched.scratch_mems);
        let mut xps_now = std::mem::take(&mut self.sched.scratch_xps);
        self.sched.dmas.drain_into(&mut dmas_now);
        self.sched.mems.drain_into(&mut mems_now);
        self.sched.xps.drain_into(&mut xps_now);
        self.sched.work_items += (dmas_now.len() + mems_now.len() + xps_now.len()) as u64;
        // Phase 3: step the live DMAs. A stepped DMA may have pushed into
        // its link, so the link must be refreshed next cycle; it stays
        // self-active while it holds any descriptor or outstanding burst.
        for &di in &dmas_now {
            let link = self.dmas[di].link();
            let region = self.dma_region[di] as usize;
            if self.dmas[di].step(
                &mut self.links[link],
                self.now,
                &mut self.txns[region],
                &mut self.wstreams[region],
                &mut self.meter,
            ) {
                self.sched.dmas.insert(di);
            }
            self.sched.hot_links.insert(link);
        }
        // Phase 4: step the live memory slaves (same contract).
        for &mi in &mems_now {
            let link = self.mems[mi].link();
            if self.mems[mi].step(&mut self.links[link], self.now, &mut self.meter) {
                self.sched.mems.insert(mi);
            }
            self.sched.hot_links.insert(link);
        }
        // Phase 5: step the live crosspoints (their awake stages). An XP
        // that moved beats may have touched any adjacent link; one that
        // did not leaves its neighbourhood asleep (it holds no work of its
        // own — all XP state transitions ride on link beats).
        for &xi in &xps_now {
            if self.xps[xi].step(self.links.as_mut_slice()) {
                for l in self.xps[xi].links() {
                    self.sched.hot_links.insert(l);
                }
            }
        }
        // Phase 6: report completions back to the source. Only a DMA
        // stepped this cycle can have finished a transfer.
        let mut finished = std::mem::take(&mut self.finished_scratch);
        for &di in &dmas_now {
            let node = self.dmas[di].node();
            self.dmas[di].drain_finished(&mut finished);
            for &id in &finished {
                source.on_complete(node, id, self.now);
            }
        }
        self.finished_scratch = finished;
        let tracked =
            self.sched.scratch_links.len() + dmas_now.len() + mems_now.len() + xps_now.len();
        self.sched.scratch_dmas = dmas_now;
        self.sched.scratch_mems = mems_now;
        self.sched.scratch_xps = xps_now;
        self.now += 1;
        tracked
    }

    /// One region-sharded cycle: serial boundary pre-phase, one parallel
    /// crew dispatch stepping every region, serial boundary commit. The
    /// state evolution is bit-identical to [`step_full`](Self::step_full):
    /// components read only cycle snapshots and every channel has a single
    /// pusher and popper per cycle, so the per-region interleaving cannot
    /// be observed (see `crate::shard` for the full argument). Crosspoints
    /// evaluate only their awake stages, as in the serial saturated
    /// regime: boundary links hand their edges over in the pre-phase,
    /// interior links through the region's `wakes`.
    fn step_sharded(&mut self, source: &mut dyn TrafficSource, crew: &Crew<'_>) {
        let mut sharding = self
            .sharding
            .take()
            .expect("sharded step without a partition");
        // A sharded cycle performs the full sweep's work items.
        self.sched.work_items +=
            (self.links.len() + self.dmas.len() + self.mems.len() + self.xps.len()) as u64;
        // Serial pre-phase: begin the boundary links and hand both
        // adjacent regions a mirror of the fresh snapshot; then poll
        // stimulus (sources are stateful — the poll sequence must be the
        // serial one).
        for &(l, rm, rs) in &sharding.boundary {
            let e = self.links[l].begin_cycle();
            dispatch_edges(self.sched.xp_ends[l], e, |x, s| self.xps[x].wake(s));
            for r in [rm, rs] {
                let ctx = &mut sharding.ctxs[r as usize];
                let mi = ctx.mirror_index(l);
                ctx.mirrors[mi].capture(&self.links[l]);
            }
        }
        self.poll_stimulus(source, |_| {});
        // Parallel phase: worker r steps region r, through plain `&mut`
        // slices of its own links, components and arenas, cut off the
        // engine's arrays in region order.
        {
            let mut links = sharding.segments(&mut self.links);
            let (mut xps, mut dmas, mut mems) = (
                self.xps.as_mut_slice(),
                self.dmas.as_mut_slice(),
                self.mems.as_mut_slice(),
            );
            let mut parts: Vec<RegionPart<'_>> = sharding
                .ctxs
                .iter_mut()
                .zip(self.txns.iter_mut().zip(&mut self.wstreams))
                .map(|(ctx, (txns, wstreams))| RegionPart {
                    links: RegionLinks::split_front(&mut links, &ctx.links),
                    xps: split_front(&mut xps, ctx.xps.len()),
                    dmas: split_front(&mut dmas, ctx.dmas.len()),
                    mems: split_front(&mut mems, ctx.mems.len()),
                    txns,
                    wstreams,
                    ctx,
                })
                .collect();
            let xp_ends = &self.sched.xp_ends;
            let now = self.now;
            crew.run_each(&mut parts, &|r, part: &mut RegionPart<'_>| {
                let RegionPart {
                    ctx,
                    links,
                    xps,
                    dmas,
                    mems,
                    txns,
                    wstreams,
                } = part;
                let first_xp = ctx.xps.start;
                for &l in &ctx.interior {
                    let e = links.get_mut(ctx.slots[l]).begin_cycle();
                    // An interior link's crosspoints are this region's.
                    dispatch_edges(xp_ends[l], e, |x, s| ctx.wakes[x - first_xp] |= s);
                }
                for d in dmas.iter_mut() {
                    let link = links.get_mut(ctx.slots[d.link()]);
                    d.step(link, now, txns, wstreams, &mut ctx.meter);
                }
                for m in mems.iter_mut() {
                    let link = links.get_mut(ctx.slots[m.link()]);
                    m.step(link, now, &mut ctx.meter);
                }
                let mut view = ShardLinkView {
                    links,
                    region: r as u32,
                    slots: &ctx.slots,
                    mirrors: &mut ctx.mirrors,
                };
                for (xp, wake) in xps.iter_mut().zip(&mut ctx.wakes) {
                    xp.wake(std::mem::take(wake));
                    xp.step(&mut view);
                }
            });
        }
        // Serial commit: replay boundary mirrors in ascending link order,
        // fold the shard meters (integer counters — order-free), then
        // report completions in the serial engine's DMA order.
        for &(l, rm, rs) in &sharding.boundary {
            let [cm, cs] = sharding
                .ctxs
                .get_disjoint_mut([rm as usize, rs as usize])
                .expect("boundary regions are distinct");
            let mi = cm.mirror_index(l);
            let si = cs.mirror_index(l);
            shard::commit_link(&mut self.links[l], &mut cm.mirrors[mi], &mut cs.mirrors[si]);
        }
        for ctx in &mut sharding.ctxs {
            self.meter.absorb(&mut ctx.meter);
        }
        let mut finished = std::mem::take(&mut self.finished_scratch);
        for d in &mut self.dmas {
            let node = d.node();
            d.drain_finished(&mut finished);
            for &id in &finished {
                source.on_complete(node, id, self.now);
            }
        }
        self.finished_scratch = finished;
        self.now += 1;
        self.sharding = Some(sharding);
    }

    /// Cumulative scheduler work: links refreshed plus components stepped,
    /// counted identically in active and full-sweep mode. Deterministic
    /// (unlike wall clock), which is what the equivalence tests assert the
    /// activity saving on. Restarts at zero on restore.
    #[must_use]
    pub fn work_items(&self) -> u64 {
        self.sched.work_items
    }

    /// Crosspoint stage evaluations so far, summed over every XP, per
    /// stage in AW, AR, W, B, R order. The reference path evaluates all
    /// five on every XP step; the activity-driven paths only the awake
    /// ones. Deterministic telemetry like
    /// [`work_items`](Self::work_items): not part of [`SimReport`], and
    /// restarts at zero on restore.
    #[must_use]
    pub fn stage_evaluations(&self) -> [u64; 5] {
        let mut sum = [0; 5];
        for x in &self.xps {
            for (acc, n) in sum.iter_mut().zip(x.stage_evaluations()) {
                *acc += n;
            }
        }
        sum
    }

    /// Total transfers completed across all masters.
    #[must_use]
    pub fn transfers_completed(&self) -> u64 {
        self.dmas.iter().map(DmaEngine::transfers_completed).sum()
    }

    /// Combined telemetry of the engine's in-flight arenas (transfer
    /// records + W-stream descriptors) — what
    /// [`SimReport::slab_high_water`] and
    /// [`SimReport::allocs_per_kilocycle`] are derived from.
    #[must_use]
    pub fn allocation_stats(&self) -> SlabStats {
        let fold = |acc: SlabStats, s: SlabStats| acc.merge(s);
        let txns = self
            .txns
            .iter()
            .map(Slab::stats)
            .fold(SlabStats::default(), fold);
        let wstreams = self
            .wstreams
            .iter()
            .map(Slab::stats)
            .fold(SlabStats::default(), fold);
        txns.merge(wstreams)
    }

    /// Payload bytes measured so far (inside the window).
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.meter.bytes()
    }
}

impl Engine for NocSim {
    /// One simulation cycle: activity-driven by default, or the reference
    /// full sweep when [`NocConfig::full_sweep`] is set. Both paths
    /// produce bit-identical state evolution.
    fn step(&mut self, source: &mut dyn TrafficSource) {
        if self.cfg.full_sweep {
            self.step_full(source);
        } else {
            self.step_active(source);
        }
    }

    fn now(&self) -> Cycle {
        self.now
    }

    /// Whether all endpoints and links are idle.
    fn is_drained(&self) -> bool {
        // Fast path for the activity-driven mode: an empty scheduler means
        // nothing is live anywhere (debug-asserted against the full scan).
        // Not valid in the saturated regime, whose sets are deliberately
        // empty.
        if !self.cfg.full_sweep && !self.sched.saturated && self.sched.all_idle() {
            debug_assert!(
                self.dmas.iter().all(DmaEngine::is_idle)
                    && self.mems.iter().all(MemorySlave::is_idle)
                    && self.links.iter().all(AxiLink::is_idle),
                "scheduler idle but the NoC is not drained"
            );
            return true;
        }
        self.dmas.iter().all(DmaEngine::is_idle)
            && self.mems.iter().all(MemorySlave::is_idle)
            && self.links.iter().all(AxiLink::is_idle)
    }

    fn begin_measurement(&mut self, start: Cycle) {
        self.meter = ThroughputMeter::new(start);
        // Shard meters share the cutoff so a byte recorded by a region is
        // classified (warm-up vs window) exactly as the run meter would.
        if let Some(s) = &mut self.sharding {
            for ctx in &mut s.ctxs {
                ctx.meter = ThroughputMeter::new(start);
            }
        }
    }

    /// Latency is sampled per *transfer* (descriptor start → last
    /// response). `threads` is the number of row bands that ran: the
    /// region partition clamps [`NocConfig::threads`] to the row count, and
    /// a one-row topology never shards.
    fn snapshot_report(&self) -> SimReport {
        let mut latency = Histogram::new();
        let mut total = 0.0;
        let mut count = 0u64;
        for d in &self.dmas {
            let h = d.latency();
            total += h.mean() * h.count() as f64;
            count += h.count();
            latency.merge(h);
        }
        let bps = self.meter.throughput_bytes_s(self.now);
        let slab = self.allocation_stats();
        SimReport {
            cycles: self.now,
            payload_bytes: self.meter.bytes(),
            throughput_gib_s: self.meter.throughput_gib_s(self.now),
            throughput_bytes_s: bps,
            transfers_completed: self.transfers_completed(),
            mean_latency: if count == 0 {
                0.0
            } else {
                total / count as f64
            },
            p99_latency: latency.quantile(0.99),
            stop_reason: self.stop_reason,
            cycles_per_sec: if self.wall_secs > 0.0 {
                self.wall_cycles as f64 / self.wall_secs
            } else {
                0.0
            },
            slab_high_water: slab.high_water,
            allocs_per_kilocycle: slab.allocs as f64 * 1000.0 / self.now.max(1) as f64,
            cycles_skipped: self.cycles_skipped,
            threads: self.sharding.as_ref().map_or(1, |s| s.ctxs.len()),
            state_digest: self.state_digest(),
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new(Self::SNAP_KIND, self.shape());
        self.encode_state(&mut e, true);
        e.finish()
    }

    /// The bytes are validated (container digest first, then every
    /// structural invariant) while rebuilding into a fresh engine, and only
    /// a fully successful decode is committed. The snapshot must come from
    /// an engine whose configuration matches this one's
    /// [`shape`](NocSim::shape).
    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut fresh = Self::new(self.cfg.clone()).expect("config was validated at construction");
        fresh.decode_from(bytes)?;
        *self = fresh;
        Ok(())
    }

    /// Covers simulation time plus every link, XP and endpoint. Excluded
    /// on purpose: the meter, which measures a run rather than holding
    /// hardware state, and the stop reason.
    fn state_digest(&self) -> u64 {
        let mut e = Encoder::new(Self::SNAP_KIND, self.shape());
        self.encode_state(&mut e, false);
        e.digest()
    }

    /// With [`NocConfig::threads`] > 1 on a multi-row topology, the cycle
    /// loop runs region-sharded: a crew of worker threads (reused across
    /// the whole run) steps one row band each behind a per-cycle barrier,
    /// with boundary links exchanged through mirrors in fixed link order.
    /// The results are bit-identical to the serial loop.
    fn run(
        &mut self,
        source: &mut dyn TrafficSource,
        max_cycles: Cycle,
        warmup: Cycle,
    ) -> SimReport {
        self.begin_measurement(self.now + warmup);
        let skip = !self.cfg.full_sweep;
        let Some(workers) = self.sharding.as_ref().map(|s| s.ctxs.len()) else {
            return drive(self, source, max_cycles, skip, Self::step);
        };
        // Sharded cycles are unconditional full sweeps. Park the scheduler
        // in the saturated regime (its sets empty) so a caller stepping
        // serially afterwards finds the exact state that regime's contract
        // expects — `is_drained` full-scans, and the first serial
        // `step_active` may desaturate and rebuild the sets from live
        // state.
        self.sched.saturated = true;
        self.sched.hot_links.clear();
        self.sched.dmas.clear();
        self.sched.mems.clear();
        self.sched.xps.clear();
        crew_scope(workers, |crew| {
            drive(self, source, max_cycles, skip, |sim, src| {
                sim.step_sharded(src, crew);
            })
        })
    }

    /// With work in flight the horizon is the very next cycle (`At(now)` —
    /// the engine models no internal timers longer than a cycle, so it
    /// never looks further ahead); fully drained it is [`Horizon::Never`],
    /// because a drained two-phase NoC is a fixed point until a source
    /// injects.
    ///
    /// Draining alone ([`is_drained`](Engine::is_drained)) is not a fixed
    /// point: a link emptied this cycle still carries stale channel
    /// snapshots until its next `begin_cycle` (it sits in the hot set
    /// awaiting exactly that), and that refresh *is* a state change. The
    /// horizon therefore also requires every link to be
    /// [`AxiLink::is_quiescent`] — reached a cycle or two after the drain
    /// — so a skip never jumps over a pending refresh.
    fn horizon(&self) -> Horizon {
        if self.is_drained() && self.links.iter().all(AxiLink::is_quiescent) {
            Horizon::Never
        } else {
            Horizon::At(self.now)
        }
    }

    /// Metered bytes (warm-up included) and completed transfers.
    fn progress_marker(&self) -> (u64, u64) {
        (
            self.meter.bytes() + self.meter.warmup_bytes(),
            self.transfers_completed(),
        )
    }

    fn skip_to(&mut self, target: Cycle) {
        debug_assert_eq!(self.horizon(), Horizon::Never, "skip over a live NoC");
        self.cycles_skipped += target - self.now;
        self.now = target;
    }

    fn end_run(&mut self, stop: StopReason, cycles: Cycle, wall_secs: f64) {
        self.stop_reason = stop;
        self.wall_cycles += cycles;
        self.wall_secs += wall_secs;
    }
}

/// Checkpointing: compact binary snapshots of the simulated state (see
/// `simkit::snap` for the container format). A snapshot holds everything
/// the simulated hardware evolves — link FIFOs, XP arbitration, endpoint
/// queues, arena-resident transfer records — plus what a resumed run
/// reports: the stop reason and the meter. It holds nothing about how
/// the state was stepped: a restored engine keeps the scheduler it was
/// built with, and its simulator telemetry restarts: wall clock,
/// `cycles_skipped` and `work_items` from zero, the slab counters from
/// the restore's re-allocation of the live records.
/// `snapshot` → `restore` → `run` is bit-identical to running straight
/// through, under any stepping mode and thread count.
impl NocSim {
    /// This engine's discriminant in the snapshot header.
    pub const SNAP_KIND: u8 = 1;

    /// Configuration fingerprint carried in the snapshot header: FNV-1a 64
    /// over the canonical encoding of every behaviour-affecting
    /// configuration field. The two stepping-strategy knobs —
    /// [`NocConfig::threads`] and [`NocConfig::full_sweep`] — are
    /// deliberately **excluded**: every stepping strategy evolves
    /// bit-identical state (pinned by the equivalence tests), so a
    /// snapshot is portable across all of them and the state digest never
    /// depends on how the state was stepped.
    #[must_use]
    pub fn shape(&self) -> u64 {
        let cfg = &self.cfg;
        let mut e = Encoder::new(0, 0);
        e.u32(cfg.axi.addr_width());
        e.u32(cfg.axi.data_width());
        e.u32(cfg.axi.id_width());
        e.u32(cfg.axi.max_outstanding());
        // The 0 is the mesh's tag from when the fingerprint told topology
        // kinds apart. It keeps its slot: dropping it would change every
        // snapshot header and `state_digest`, which `.e2e/golden.json` pins.
        e.byte(0);
        e.usize(cfg.topology.cols);
        e.usize(cfg.topology.rows);
        e.byte(match cfg.algorithm {
            RoutingAlgorithm::YxDimensionOrder => 0,
            RoutingAlgorithm::XyDimensionOrder => 1,
        });
        e.byte(match cfg.connectivity {
            Connectivity::Partial => 0,
            Connectivity::Full => 1,
        });
        e.usize(cfg.link_stages);
        e.u32(cfg.mem_latency);
        e.u32(cfg.slave_outstanding);
        e.u32(cfg.dma_setup_cycles);
        // The descriptor-queue depth keeps its slot in the fingerprint:
        // dropping it would change every snapshot header and
        // `state_digest`, which `.e2e/golden.json` pins.
        e.usize(DMA_QUEUE_CAP);
        e.u64(cfg.region_size);
        e.usize(cfg.masters.len());
        for &m in &cfg.masters {
            e.usize(m);
        }
        e.usize(cfg.slaves.len());
        for &s in &cfg.slaves {
            e.usize(s);
        }
        e.digest()
    }

    /// Writes the engine state into `e`. `full` adds what a resumed run
    /// reports (the stop reason and the meter); the digest path omits it
    /// (see [`state_digest`](Self::state_digest)).
    fn encode_state(&self, e: &mut Encoder, full: bool) {
        e.section(1, |e| {
            e.u64(self.now);
            if full {
                e.byte(match self.stop_reason {
                    StopReason::Budget => 0,
                    StopReason::Drained => 1,
                    StopReason::WindowComplete => 2,
                });
            }
        });
        if full {
            e.section(2, |e| self.meter.encode(e));
        }
        e.section(3, |e| {
            for l in &self.links {
                l.encode(e);
            }
        });
        e.section(4, |e| {
            for x in &self.xps {
                x.encode_state(e);
            }
        });
        e.section(5, |e| {
            for (di, d) in self.dmas.iter().enumerate() {
                let region = self.dma_region[di] as usize;
                d.encode_state(e, &self.txns[region], &self.wstreams[region]);
            }
        });
        e.section(6, |e| {
            for m in &self.mems {
                m.encode_state(e);
            }
        });
    }

    /// Decodes `bytes` into this (freshly built) engine. Every index and
    /// counter is validated against the engine's actual geometry before
    /// use, so crafted (digest-valid) bytes are rejected instead of
    /// panicking later in the cycle loop.
    fn decode_from(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut d = Decoder::new(
            bytes,
            Self::SNAP_KIND,
            self.shape(),
            DecodeLimits::default(),
        )?;
        let nodes = self.cfg.topology.num_nodes();
        let end = d.begin_section(1)?;
        self.now = d.u64()?;
        self.stop_reason = match d.byte()? {
            0 => StopReason::Budget,
            1 => StopReason::Drained,
            2 => StopReason::WindowComplete,
            _ => return Err(corrupt("unknown stop reason")),
        };
        d.end_section(end)?;
        let end = d.begin_section(2)?;
        self.meter = ThroughputMeter::decode(&mut d)?;
        d.end_section(end)?;
        let end = d.begin_section(3)?;
        for l in &mut self.links {
            *l = AxiLink::decode(&mut d, self.cfg.link_stages, nodes)?;
        }
        d.end_section(end)?;
        let end = d.begin_section(4)?;
        for x in &mut self.xps {
            x.restore_state(&mut d)?;
        }
        d.end_section(end)?;
        let end = d.begin_section(5)?;
        for di in 0..self.dmas.len() {
            let region = self.dma_region[di] as usize;
            self.dmas[di].restore_state(
                &mut d,
                &mut self.txns[region],
                &mut self.wstreams[region],
                nodes,
            )?;
        }
        d.end_section(end)?;
        let end = d.begin_section(6)?;
        for m in &mut self.mems {
            m.restore_state(&mut d)?;
        }
        d.end_section(end)?;
        d.finish()?;
        // The fresh engine keeps the scheduler it was built with. Its sets
        // hold every index, a superset of the live set, and every XP has
        // every stage awake (stage masks are scheduler state too, never
        // encoded), so the first restored cycle steps and evaluates
        // everything — and stepping quiescent hardware or a blocked stage
        // is a no-op. The regime switch then settles exactly as it does
        // after cycle 0.
        Ok(())
    }
}

impl NocSim {
    /// Cumulative write payload accepted at each memory slave, in the order
    /// of `config().slaves` — a per-endpoint load probe for experiments.
    #[must_use]
    pub fn slave_write_bytes(&self) -> Vec<u64> {
        self.mems.iter().map(MemorySlave::write_bytes).collect()
    }

    /// Per-directed-link data-channel occupancy since construction: for
    /// every physical XP→XP direction, the fraction of cycles its two data
    /// channels carried a beat — W beats of the outgoing AXI link and R
    /// beats of the incoming link's response path (both sets of wires run
    /// from `from_node` towards `dir`). Entries are
    /// `(from_node, dir, w_occupancy, r_occupancy)` in `[0, 1]`.
    ///
    /// Local (endpoint) ports are excluded; use
    /// [`slave_write_bytes`](Self::slave_write_bytes) for endpoint load.
    #[must_use]
    pub fn link_occupancy(&self) -> Vec<(usize, Dir, f64, f64)> {
        let cycles = (self.now.max(1)) as f64;
        let mut out = Vec::new();
        for xp in &self.xps {
            for dir in Dir::ALL {
                if self.cfg.topology.neighbor(xp.node(), dir).is_none() {
                    continue;
                }
                let w = xp.w_beats()[dir.port()] as f64 / cycles;
                let r = xp.r_beats()[dir.port()] as f64 / cycles;
                out.push((xp.node(), dir, w, r));
            }
        }
        out
    }

    /// The most-loaded mesh link's data occupancy (max over W and R of
    /// every directed link) — the hotspot measure used by the scaling
    /// study.
    #[must_use]
    pub fn peak_link_occupancy(&self) -> f64 {
        self.link_occupancy()
            .iter()
            .map(|&(_, _, w, r)| w.max(r))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::{Transfer, TransferKind};

    /// Issues one fixed transfer per master, then stops. The destination
    /// map is a plain fn pointer (every test passes a non-capturing
    /// closure), keeping the source allocation-free and `Clone` — a cloned
    /// source replays the identical transfer stream, which the
    /// active-vs-full-sweep cross-checks below rely on.
    #[derive(Clone)]
    struct OneEach {
        issued: Vec<bool>,
        completed: usize,
        bytes: u64,
        dst_of: fn(usize) -> usize,
        kind: TransferKind,
    }

    impl OneEach {
        fn new(n: usize, bytes: u64, kind: TransferKind, dst_of: fn(usize) -> usize) -> Self {
            Self {
                issued: vec![false; n],
                completed: 0,
                bytes,
                dst_of,
                kind,
            }
        }
    }

    impl TrafficSource for OneEach {
        fn poll(&mut self, master: usize, _now: Cycle) -> Option<Transfer> {
            if self.issued[master] {
                return None;
            }
            self.issued[master] = true;
            Some(Transfer {
                id: master as u64,
                dst: (self.dst_of)(master),
                offset: 0,
                bytes: self.bytes,
                kind: self.kind,
            })
        }

        fn on_complete(&mut self, _master: usize, _id: u64, _now: Cycle) {
            self.completed += 1;
        }

        fn is_done(&self) -> bool {
            self.completed == self.issued.len()
        }
    }

    #[test]
    fn all_to_all_writes_drain() {
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = OneEach::new(16, 1024, TransferKind::Write, |m| (m + 5) % 16);
        let report = sim.run(&mut src, 1_000_000, 0);
        assert_eq!(sim.stop_reason(), StopReason::Drained);
        assert_eq!(report.transfers_completed, 16);
        assert_eq!(report.payload_bytes, 16 * 1024);
    }

    #[test]
    fn all_to_all_reads_drain() {
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = OneEach::new(16, 4096, TransferKind::Read, |m| (m + 3) % 16);
        let report = sim.run(&mut src, 1_000_000, 0);
        assert_eq!(report.transfers_completed, 16);
        assert_eq!(report.payload_bytes, 16 * 4096);
        assert!(report.mean_latency > 0.0);
    }

    #[test]
    fn self_traffic_uses_local_port() {
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = OneEach::new(16, 256, TransferKind::Write, |m| m);
        let report = sim.run(&mut src, 100_000, 0);
        assert_eq!(report.transfers_completed, 16);
    }

    #[test]
    fn wide_noc_moves_same_bytes_faster() {
        let big = 64 * 1024;
        let mut slim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = OneEach::new(16, big, TransferKind::Write, |m| (m + 1) % 16);
        let slim_report = slim.run(&mut src, 10_000_000, 0);

        let mut wide = NocSim::new(NocConfig::wide_4x4()).unwrap();
        let mut src = OneEach::new(16, big, TransferKind::Write, |m| (m + 1) % 16);
        let wide_report = wide.run(&mut src, 10_000_000, 0);

        assert_eq!(slim_report.payload_bytes, wide_report.payload_bytes);
        assert!(
            wide_report.cycles * 4 < slim_report.cycles,
            "wide {} vs slim {} cycles",
            wide_report.cycles,
            slim_report.cycles
        );
    }

    #[test]
    fn mesh_2x2_works() {
        let cfg = NocConfig::new(axi::AxiParams::slim(), crate::Topology::mesh2x2());
        let mut sim = NocSim::new(cfg).unwrap();
        let mut src = OneEach::new(4, 512, TransferKind::Write, |m| (m + 1) % 4);
        let report = sim.run(&mut src, 100_000, 0);
        assert_eq!(report.transfers_completed, 4);
    }

    #[test]
    fn one_row_mesh_works() {
        let cfg = NocConfig::new(axi::AxiParams::slim(), crate::Topology { cols: 6, rows: 1 });
        let mut sim = NocSim::new(cfg).unwrap();
        let mut src = OneEach::new(6, 512, TransferKind::Read, |m| (m + 2) % 6);
        let report = sim.run(&mut src, 100_000, 0);
        assert_eq!(report.transfers_completed, 6);
    }

    #[test]
    fn mesh_3x3_works() {
        let cfg = NocConfig::new(axi::AxiParams::slim(), crate::Topology { cols: 3, rows: 3 });
        let mut sim = NocSim::new(cfg).unwrap();
        let mut src = OneEach::new(9, 512, TransferKind::Write, |m| (m + 4) % 9);
        let report = sim.run(&mut src, 100_000, 0);
        assert_eq!(report.transfers_completed, 9);
    }

    #[test]
    fn link_occupancy_reflects_traffic() {
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        // One long write from node 0 to node 3: the East-bound links of
        // row 0 must show W occupancy; links off the path must stay idle.
        let mut src = OneEach::new(16, 64 * 1024, TransferKind::Write, |m| {
            if m == 0 {
                3
            } else {
                m // self traffic: local port only, no mesh links
            }
        });
        sim.run(&mut src, 200_000, 0);
        let occ = sim.link_occupancy();
        let get = |node: usize, dir: Dir| {
            occ.iter()
                .find(|&&(n, d, _, _)| n == node && d == dir)
                .map(|&(_, _, w, r)| (w, r))
                .expect("link exists")
        };
        // Path 0 → 1 → 2 → 3 under YX (same row → pure X moves).
        for node in 0..3 {
            let (w, _) = get(node, Dir::East);
            assert!(w > 0.05, "East link of node {node} unused: {w}");
        }
        // An unrelated link far from the path carries nothing.
        let (w, r) = get(12, Dir::East);
        assert_eq!((w, r), (0.0, 0.0));
        // Peak occupancy is positive and a valid fraction.
        let peak = sim.peak_link_occupancy();
        assert!(peak > 0.0 && peak <= 1.0);
    }

    #[test]
    fn full_connectivity_behaves_like_partial_under_yx() {
        let run = |conn: crate::Connectivity| {
            let mut cfg = NocConfig::slim_4x4();
            cfg.connectivity = conn;
            let mut sim = NocSim::new(cfg).unwrap();
            let mut src = OneEach::new(16, 2048, TransferKind::Write, |m| (m + 7) % 16);
            let r = sim.run(&mut src, 500_000, 0);
            (r.cycles, r.payload_bytes)
        };
        // YX routing never requests the extra turns, so behaviour is
        // cycle-identical.
        assert_eq!(
            run(crate::Connectivity::Partial),
            run(crate::Connectivity::Full)
        );
    }

    #[test]
    fn xy_routing_also_drains() {
        let mut cfg = NocConfig::slim_4x4();
        cfg.algorithm = crate::RoutingAlgorithm::XyDimensionOrder;
        let mut sim = NocSim::new(cfg).unwrap();
        let mut src = OneEach::new(16, 1024, TransferKind::Read, |m| (m + 9) % 16);
        let report = sim.run(&mut src, 500_000, 0);
        assert_eq!(report.transfers_completed, 16);
    }

    #[test]
    fn extra_register_slices_add_latency_not_loss() {
        let run = |stages: usize| {
            let mut cfg = NocConfig::slim_4x4();
            cfg.link_stages = stages;
            let mut sim = NocSim::new(cfg).unwrap();
            let mut src = OneEach::new(16, 256, TransferKind::Write, |m| (m + 1) % 16);
            let r = sim.run(&mut src, 500_000, 0);
            (r.payload_bytes, r.mean_latency)
        };
        let (bytes1, lat1) = run(1);
        let (bytes3, lat3) = run(3);
        assert_eq!(bytes1, bytes3, "slices never lose data");
        assert!(lat3 > lat1 + 3.0, "latency {lat1} → {lat3}");
    }

    #[test]
    fn all_to_one_exhibits_parking_lot_unfairness_without_starvation() {
        // All 16 masters hammer one slave. Per-hop round-robin arbitration
        // is locally fair but globally *unfair*: each merge point splits
        // bandwidth evenly among its inputs, so masters close to the hot
        // slave receive exponentially more than distant ones (the classic
        // "parking-lot" effect; one reason real deployments schedule
        // DNN traffic onto nearby nodes, cf. Fig. 5's locality patterns).
        // The invariants: nobody starves, and adjacency wins.
        struct Hammer {
            per_master: Vec<u64>,
        }
        impl TrafficSource for Hammer {
            fn poll(&mut self, master: usize, _now: Cycle) -> Option<Transfer> {
                self.per_master[master] += 1;
                // One descriptor at a time is enough: the DMA serializes.
                if self.per_master[master] > 4000 {
                    return None;
                }
                Some(Transfer {
                    id: self.per_master[master],
                    dst: 5,
                    offset: 0,
                    bytes: 512,
                    kind: TransferKind::Write,
                })
            }
        }
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = Hammer {
            per_master: vec![0; 16],
        };
        sim.run(&mut src, 150_000, 20_000);
        let counts: Vec<u64> = (0..16)
            .map(|n| {
                sim.dmas
                    .iter()
                    .find(|d| d.node() == n)
                    .map(DmaEngine::transfers_completed)
                    .unwrap()
            })
            .collect();
        let min = *counts.iter().min().unwrap();
        assert!(min > 0, "some master starved entirely: {counts:?}");
        // Node 1 is one hop from the slave at node 5; node 15 is five hops.
        let near = counts[1];
        let far = counts[15];
        assert!(
            near > 2 * far,
            "expected parking-lot skew, got near {near} vs far {far}: {counts:?}"
        );
    }

    #[test]
    fn descriptor_queue_stays_bounded_under_flood() {
        // A source that always has another transfer ready: without the
        // queue cap the engine would buffer 64 descriptors per master per
        // cycle forever.
        struct Flood(u64);
        impl TrafficSource for Flood {
            fn poll(&mut self, _master: usize, _now: Cycle) -> Option<Transfer> {
                self.0 += 1;
                Some(Transfer {
                    id: self.0,
                    dst: 5,
                    offset: 0,
                    bytes: 64,
                    kind: TransferKind::Write,
                })
            }
        }
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = Flood(0);
        for _ in 0..2_000 {
            sim.step(&mut src);
            for d in &sim.dmas {
                assert!(
                    d.queued() <= DMA_QUEUE_CAP,
                    "queue exceeded cap: {}",
                    d.queued()
                );
            }
        }
        assert!(sim.transfers_completed() > 0);
    }

    #[test]
    fn report_carries_slab_telemetry() {
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = OneEach::new(16, 1024, TransferKind::Write, |m| (m + 5) % 16);
        let report = sim.run(&mut src, 1_000_000, 0);
        let stats = sim.allocation_stats();
        assert_eq!(stats.live, 0, "every record retired on drain");
        assert!(
            stats.allocs >= 16,
            "at least one allocation per transfer: {stats:?}"
        );
        assert!(report.slab_high_water >= 1);
        assert!(report.allocs_per_kilocycle > 0.0);
    }

    #[test]
    fn warmup_excludes_early_bytes() {
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = OneEach::new(16, 64, TransferKind::Write, |m| (m + 1) % 16);
        // Huge warm-up: everything lands inside it.
        let report = sim.run(&mut src, 50_000, 40_000);
        assert_eq!(report.payload_bytes, 0);
        assert_eq!(report.transfers_completed, 16);
    }

    /// Everything observable from one run, plus the work counter.
    type Observed = (SimReport, Vec<u64>, Vec<(usize, Dir, f64, f64)>, u64);

    /// The Poisson workload the stepping cross-checks below share.
    fn uniform(load: f64) -> traffic::UniformRandom {
        traffic::UniformRandom::new_copies(traffic::UniformConfig {
            nodes: 16,
            load,
            bytes_per_cycle: 4.0,
            max_transfer: 1000,
            read_fraction: 0.5,
            region_size: 1 << 24,
            seed: 0x5EED,
        })
    }

    /// Runs the Poisson workload in active or full-sweep mode and returns
    /// everything observable.
    fn run_mode(full_sweep: bool, load: f64, window: u64) -> Observed {
        let mut cfg = NocConfig::slim_4x4();
        cfg.full_sweep = full_sweep;
        let mut sim = NocSim::new(cfg).unwrap();
        let report = sim.run(&mut uniform(load), window, window / 5);
        (
            report,
            sim.slave_write_bytes(),
            sim.link_occupancy(),
            sim.work_items(),
        )
    }

    /// Runs the same Poisson workload in active and full-sweep mode.
    fn run_both_modes(load: f64, window: u64) -> [Observed; 2] {
        [true, false].map(|full_sweep| run_mode(full_sweep, load, window))
    }

    /// Steps the active engine through the same workload one
    /// [`Engine::step`] at a time, measuring from where [`Engine::run`]
    /// would: the plain cycle loop, which never jumps.
    fn run_cycle_loop(load: f64, window: u64) -> Observed {
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = uniform(load);
        sim.begin_measurement(window / 5);
        for _ in 0..window {
            sim.step(&mut src);
        }
        (
            sim.snapshot_report(),
            sim.slave_write_bytes(),
            sim.link_occupancy(),
            sim.work_items(),
        )
    }

    #[test]
    fn time_skipping_crosses_idle_gaps_at_low_load() {
        let [_, (skipped, ..)] = run_both_modes(0.001, 20_000);
        assert!(
            skipped.cycles_skipped > 10_000,
            "only {} of 20 000 mostly-idle cycles skipped",
            skipped.cycles_skipped
        );
        // A saturated NoC has essentially no idle gaps (a stray cycle
        // before the very first arrivals land is fine).
        let [_, (busy, ..)] = run_both_modes(1.0, 20_000);
        assert!(
            busy.cycles_skipped < 100,
            "saturated run skipped {} cycles",
            busy.cycles_skipped
        );
    }

    #[test]
    fn full_sweep_forces_time_skipping_off() {
        let mut cfg = NocConfig::slim_4x4();
        cfg.full_sweep = true;
        let mut sim = NocSim::new(cfg).unwrap();
        let mut src = OneEach::new(16, 64, TransferKind::Write, |m| (m + 1) % 16);
        let report = sim.run(&mut src, 50_000, 0);
        assert_eq!(report.stop_reason, StopReason::Drained);
        assert_eq!(report.cycles_skipped, 0, "the reference path never skips");
    }

    #[test]
    fn full_sweep_is_the_serial_reference_at_any_thread_count() {
        // The reference evaluates every stage of every XP, and never shards:
        // a sharded cycle would evaluate only awake stages.
        let run = |threads: usize| {
            let mut cfg = NocConfig::slim_4x4();
            cfg.full_sweep = true;
            cfg.threads = threads;
            let mut sim = NocSim::new(cfg).unwrap();
            let report = sim.run(&mut uniform(0.3), 5_000, 0);
            (report, sim.stage_evaluations())
        };
        let (serial, serial_evaluations) = run(1);
        assert_eq!(serial_evaluations, [5_000 * 16; 5]);
        for threads in [2, 4] {
            let (report, evaluations) = run(threads);
            assert_eq!(report.threads, 1, "{threads} threads");
            assert_eq!(evaluations, serial_evaluations, "{threads} threads");
            assert_eq!(report, serial, "{threads} threads");
        }
    }

    #[test]
    fn active_stepping_is_bit_identical_to_full_sweep() {
        for load in [0.001, 0.3, 1.0] {
            let [(fr, fw, fo, _), (ar, aw, ao, _)] = run_both_modes(load, 20_000);
            assert_eq!(fr, ar, "report differs at load {load}");
            assert_eq!(fw, aw, "slave bytes differ at load {load}");
            assert_eq!(fo, ao, "link occupancy differs at load {load}");
            assert_eq!(fr.cycles_skipped, 0, "reference must not skip");
        }
    }

    #[test]
    fn time_skipping_is_bit_identical_to_the_cycle_loop() {
        // Both sides step actively, so the horizon jumps `run` takes over
        // idle gaps are the only difference.
        for load in [0.001, 0.3, 1.0] {
            let (sr, sw, so, _) = run_mode(false, load, 20_000);
            let (lr, lw, lo, _) = run_cycle_loop(load, 20_000);
            assert_eq!(lr, sr, "report differs at load {load}");
            assert_eq!(lw, sw, "slave bytes differ at load {load}");
            assert_eq!(lo, so, "link occupancy differs at load {load}");
            assert_eq!(lr.cycles_skipped, 0, "the cycle loop must not skip");
        }
    }

    /// Runs the same Poisson workload with `threads` workers and returns
    /// everything observable (sharded runs use the crew cycle loop; one
    /// thread is the serial reference).
    fn run_threaded(threads: usize, load: f64, window: u64) -> Observed {
        let mut cfg = NocConfig::slim_4x4();
        cfg.threads = threads;
        let mut sim = NocSim::new(cfg).unwrap();
        let report = sim.run(&mut uniform(load), window, window / 5);
        (
            report,
            sim.slave_write_bytes(),
            sim.link_occupancy(),
            sim.work_items(),
        )
    }

    #[test]
    fn sharded_stepping_is_bit_identical_to_serial() {
        for load in [0.001, 0.3, 1.0] {
            let (sr, sw, so, _) = run_threaded(1, load, 20_000);
            for threads in [2, 3, 4, 8] {
                let (tr, tw, to, _) = run_threaded(threads, load, 20_000);
                assert_eq!(sr, tr, "report differs: load {load}, {threads} threads");
                assert_eq!(sw, tw, "slave bytes differ: load {load}, {threads} threads");
                assert_eq!(so, to, "occupancy differs: load {load}, {threads} threads");
            }
        }
    }

    #[test]
    fn sharded_sim_can_keep_stepping_serially_after_a_run() {
        // After a sharded run the scheduler is parked in the saturated
        // regime; manual serial stepping must continue correctly (and may
        // desaturate and rebuild the activity sets from live state).
        let mut cfg = NocConfig::slim_4x4();
        cfg.threads = 4;
        let mut sim = NocSim::new(cfg).unwrap();
        let mut src = OneEach::new(16, 1024, TransferKind::Write, |m| (m + 5) % 16);
        sim.run(&mut src, 100_000, 0);
        assert_eq!(sim.stop_reason(), StopReason::Drained);
        let mut late = OneEach::new(16, 256, TransferKind::Read, |m| (m + 1) % 16);
        for _ in 0..50_000 {
            if late.is_done() && sim.is_drained() {
                break;
            }
            sim.step(&mut late);
        }
        assert_eq!(sim.transfers_completed(), 32);
    }

    #[test]
    fn sleeping_stages_skip_most_address_and_response_evaluations() {
        // Fig. 4's saturated PATRONoC point: nearly every beat travels on W
        // and R, so AW, AR and B have something to do in few XP steps.
        let window = 10_000;
        let evaluations = |full_sweep: bool| {
            let mut cfg = NocConfig::slim_4x4();
            cfg.full_sweep = full_sweep;
            let mut sim = NocSim::new(cfg).unwrap();
            sim.run(&mut uniform(1.0), window, window / 5);
            sim.stage_evaluations()
        };
        let reference = evaluations(true);
        let active = evaluations(false);
        // The reference evaluates every stage on every XP step.
        assert_eq!(reference, [window * 16; 5]);
        for (k, name) in [(0, "AW"), (1, "AR"), (3, "B")] {
            assert!(
                active[k] * 10 < reference[k],
                "{name} evaluated {} of {} times",
                active[k],
                reference[k]
            );
        }
        let total = |e: [u64; 5]| e.iter().sum::<u64>();
        assert!(total(active) * 2 < total(reference), "{active:?}");
    }

    #[test]
    fn stage_masks_carry_over_between_serial_and_sharded_stepping() {
        // Serial steps into saturation, a sharded run, serial steps again:
        // each path must pick up the stage masks the other left in the
        // XPs. A fresh sharded run would start with every stage awake and
        // could not see a stale mask.
        let observe = |threads: usize| {
            let mut cfg = NocConfig::slim_4x4();
            cfg.threads = threads;
            let mut sim = NocSim::new(cfg).unwrap();
            let mut src = uniform(1.0);
            sim.begin_measurement(500);
            for _ in 0..3_000 {
                sim.step(&mut src);
            }
            assert!(sim.sched.saturated, "serial steps never saturated");
            let run = sim.run(&mut src, 3_000, 0);
            assert_eq!(run.threads, threads);
            for _ in 0..3_000 {
                sim.step(&mut src);
            }
            (
                sim.snapshot_report(),
                sim.slave_write_bytes(),
                sim.link_occupancy(),
                sim.state_digest(),
            )
        };
        let (sr, sw, so, sd) = observe(1);
        let (tr, tw, to, td) = observe(2);
        assert_eq!(sr, tr, "report differs");
        assert_eq!(sw, tw, "slave bytes differ");
        assert_eq!(so, to, "occupancy differs");
        assert_eq!(sd, td, "state digest differs");
    }

    #[test]
    fn active_stepping_skips_most_work_when_idle() {
        // The deterministic work counter (links refreshed + components
        // stepped) must drop at least 5× at a near-idle operating point —
        // the wall-clock claim, asserted without wall-clock noise.
        let [(_, _, _, full_work), (_, _, _, active_work)] = run_both_modes(0.001, 50_000);
        assert!(
            active_work * 5 <= full_work,
            "active {active_work} vs full {full_work} work items"
        );
    }

    /// Targets node 5 from every master while only node 0 hosts a memory
    /// slave: the beats route to node 5's local port, which has no slave
    /// link, and wedge there forever — a deliberate deadlock.
    fn deadlocked_setup() -> (NocSim, OneEach) {
        let mut cfg = NocConfig::slim_4x4();
        cfg.slaves = vec![0];
        let sim = NocSim::new(cfg).unwrap();
        let src = OneEach::new(16, 256, TransferKind::Write, |_| 5);
        (sim, src)
    }

    fn poisson(seed: u64) -> traffic::UniformRandom {
        traffic::UniformRandom::new_copies(traffic::UniformConfig {
            nodes: 16,
            load: 0.6,
            bytes_per_cycle: 4.0,
            max_transfer: 1000,
            read_fraction: 0.5,
            region_size: 1 << 24,
            seed,
        })
    }

    #[test]
    fn snapshot_restore_run_is_bit_identical() {
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = poisson(0x5EED);
        sim.run(&mut src, 3_000, 0);
        let bytes = sim.snapshot();
        let mut forked_src = src.clone();
        let straight = sim.run(&mut src, 2_000, 0);

        let mut forked = NocSim::new(NocConfig::slim_4x4()).unwrap();
        forked.restore(&bytes).unwrap();
        assert_eq!(forked.now(), 3_000);
        let fork = forked.run(&mut forked_src, 2_000, 0);
        assert_eq!(straight, fork);
        assert_eq!(sim.state_digest(), forked.state_digest());
    }

    #[test]
    fn snapshot_is_portable_across_thread_counts() {
        // Capture mid-flight on a serial engine, restore into a 4-thread
        // one (and vice versa): the continuations stay bit-identical.
        let mut cfg4 = NocConfig::slim_4x4();
        cfg4.threads = 4;
        let mut serial = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = poisson(0xF0CA);
        serial.run(&mut src, 3_000, 0);
        let bytes = serial.snapshot();

        let mut sharded = NocSim::new(cfg4).unwrap();
        sharded.restore(&bytes).unwrap();
        let mut sharded_src = src.clone();
        let sr = serial.run(&mut src, 2_000, 0);
        let tr = sharded.run(&mut sharded_src, 2_000, 0);
        assert_eq!(sr, tr);
    }

    #[test]
    fn snapshot_of_restored_engine_is_byte_identical() {
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = poisson(7);
        sim.run(&mut src, 2_500, 500);
        let bytes = sim.snapshot();
        let mut again = NocSim::new(NocConfig::slim_4x4()).unwrap();
        again.restore(&bytes).unwrap();
        assert_eq!(bytes, again.snapshot(), "encode ∘ decode is a fixpoint");
    }

    #[test]
    fn corrupt_snapshot_leaves_the_engine_untouched() {
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = poisson(11);
        sim.run(&mut src, 2_000, 0);
        let mut bytes = sim.snapshot();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;

        let mut target = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut probe = poisson(12);
        target.run(&mut probe, 1_000, 0);
        let before = target.state_digest();
        assert!(target.restore(&bytes).is_err());
        assert_eq!(
            target.state_digest(),
            before,
            "failed restore mutated state"
        );
        assert_eq!(target.now(), 1_000);
    }

    #[test]
    fn a_snapshot_with_a_trailing_section_is_refused() {
        // Checkpoints that still carry the scheduler and telemetry
        // sections have them after the memories' section. Re-framed with
        // a valid digest trailer, such bytes are refused whole.
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        sim.run(&mut poisson(17), 2_000, 0);
        let bytes = sim.snapshot();
        let mut old = bytes[..bytes.len() - 8].to_vec();
        old.extend_from_slice(&[7, 1, 0, 0, 0, 0]);
        old.extend_from_slice(&simkit::snap::fnv1a64(&old).to_le_bytes());
        let digest = sim.state_digest();
        assert_eq!(
            sim.restore(&old),
            Err(simkit::snap::SnapError::TrailingBytes)
        );
        assert_eq!(sim.state_digest(), digest);
        assert_eq!(sim.snapshot(), bytes);
    }

    #[test]
    fn a_used_engine_restores_like_a_fresh_one() {
        // The scheduler is outside the snapshot, so a restore must not keep
        // the one its target evolved: an engine left nearly idle, with
        // sparse live sets, takes a saturated checkpoint.
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = uniform(1.0);
        sim.run(&mut src, 3_000, 0);
        let bytes = sim.snapshot();
        let mut resumed_src = src.clone();
        let straight = sim.run(&mut src, 2_000, 0);

        let mut used = NocSim::new(NocConfig::slim_4x4()).unwrap();
        used.run(&mut uniform(0.02), 20_000, 0);
        used.restore(&bytes).unwrap();
        assert_eq!(used.run(&mut resumed_src, 2_000, 0), straight);
        assert_eq!(used.state_digest(), sim.state_digest());
    }

    #[test]
    fn a_restored_engine_reports_what_the_original_did() {
        // Beyond the hardware, a checkpoint keeps the stop reason and the
        // meter: a drained run with a warm-up reports the same from its
        // restored copy.
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = OneEach::new(16, 1024, TransferKind::Write, |m| (m + 5) % 16);
        let report = sim.run(&mut src, 1_000_000, 100);
        assert_eq!(report.stop_reason, StopReason::Drained);
        let mut restored = NocSim::new(NocConfig::slim_4x4()).unwrap();
        restored.restore(&sim.snapshot()).unwrap();
        assert_eq!(restored.snapshot_report(), report);
    }

    #[test]
    fn a_restored_engine_counts_telemetry_from_zero() {
        // A snapshot holds no simulator telemetry. The low load leaves idle
        // gaps to skip; the capture waits for records in flight.
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = uniform(0.02);
        let before = sim.run(&mut src, 20_000, 0);
        assert!(before.cycles_skipped > 0 && sim.work_items() > 0);
        while sim.allocation_stats().live == 0 {
            sim.step(&mut src);
        }
        let live = sim.allocation_stats().live;

        let mut restored = NocSim::new(NocConfig::slim_4x4()).unwrap();
        restored.restore(&sim.snapshot()).unwrap();
        let after = restored.snapshot_report();
        assert_eq!(restored.work_items(), 0);
        assert_eq!(restored.stage_evaluations(), [0; 5]);
        assert_eq!(after.cycles_skipped, 0);
        assert_eq!(after.cycles_per_sec, 0.0);
        // The slab counters see only the restore's re-allocations.
        let slab = restored.allocation_stats();
        assert_eq!(
            (slab.allocs, slab.high_water, slab.live),
            (live, live, live)
        );
    }

    #[test]
    fn snapshot_rejects_a_different_shape() {
        let mut sim = NocSim::new(NocConfig::slim_4x4()).unwrap();
        let mut src = poisson(13);
        sim.run(&mut src, 500, 0);
        let bytes = sim.snapshot();
        let mut wide = NocSim::new(NocConfig::wide_4x4()).unwrap();
        assert!(matches!(
            wide.restore(&bytes),
            Err(simkit::snap::SnapError::ShapeMismatch)
        ));
    }

    #[test]
    #[should_panic(expected = "deadlock: no progress since cycle 0")]
    fn watchdog_trips_on_deadlocked_traffic() {
        let (mut sim, mut src) = deadlocked_setup();
        sim.run(&mut src, 110_000, 0);
    }

    #[test]
    fn watchdog_threshold_is_one_hundred_thousand_cycles() {
        // One cycle under the documented threshold: the same wedged NoC
        // must NOT panic — the watchdog fires only when progress has been
        // absent for strictly more than 100 000 cycles.
        let (mut sim, mut src) = deadlocked_setup();
        let report = sim.run(&mut src, 100_000, 0);
        assert_eq!(report.transfers_completed, 0);
        assert!(!sim.is_drained(), "the wedged beats are still in flight");
    }
}
