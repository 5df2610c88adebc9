//! The baseline NoC simulator.
//!
//! Drives a `cols × rows` mesh of wormhole routers and per-node NIs from a
//! [`TrafficSource`], measuring delivered payload exactly like the PATRONoC
//! engine so Fig. 4's curves are an apples-to-apples comparison. Like the
//! PATRONoC engine it steps activity-driven by default — only live flit
//! buffers, routers next to them, and busy NIs are touched each cycle —
//! with [`PacketNocConfig::full_sweep`] keeping the step-everything
//! reference path; the two are bit-identical.

use crate::config::{PacketNocConfig, NI_QUEUE_CAP};
use crate::ni::NetworkInterface;
use crate::router::{Delivery, Flit, FlitKind, Port, Router, LOCAL, PORTS};
use crate::shard::{RegionCtx, ShardBufView, Sharding};
use crate::snapcodec::{corrupt, decode_transfer, encode_transfer};
use crate::txn::{TxHandle, TxRecord};
use simkit::pool::{crew_scope, Crew};
use simkit::region::{split_front, RegionMap};
use simkit::sched::{should_desaturate, should_saturate, ActiveSet};
use simkit::slab::SlabStats;
use simkit::snap::{DecodeLimits, Decoder, Encoder, SnapError};
use simkit::{Cycle, Fifo, Histogram, Horizon, SimReport, Slab, StopReason, ThroughputMeter};

use traffic::{drive, Engine, TrafficSource};

/// Per-region slot → canonical record number map (see
/// [`PacketNocSim::canonical_txs`]).
type CanonMap = Vec<Vec<Option<u32>>>;

/// One region's share of a sharded cycle: its context, its own routers,
/// NIs and input buffers, and its arena, each a plain `&mut` cut off the
/// engine's arrays.
struct RegionPart<'a> {
    ctx: &'a mut RegionCtx,
    routers: &'a mut [Router],
    nis: &'a mut [NetworkInterface],
    bufs: &'a mut [Fifo<Flit>],
    txs: &'a mut Slab<TxRecord>,
}

/// The packet-based baseline NoC simulator.
#[derive(Debug)]
pub struct PacketNocSim {
    cfg: PacketNocConfig,
    routers: Vec<Router>,
    bufs: Vec<Fifo<Flit>>,
    nis: Vec<NetworkInterface>,
    /// Arena of every in-flight transfer — one slab per region (a single
    /// slab when serial, preserving the historical allocation sequence):
    /// allocated at injection ([`poll_stimulus`](Self::poll_stimulus)) in
    /// the *source* node's region, its handle carried by every flit of the
    /// transfer, freed when the last tail delivers (the flit's `src` names
    /// the owning slab).
    txs: Vec<Slab<TxRecord>>,
    /// node → region owning its NI's transaction records (all zeros when
    /// serial).
    node_region: Vec<u32>,
    /// The region partition when `cfg.threads > 1` splits the mesh into
    /// more than one row band and `cfg.full_sweep` is off; `None` runs the
    /// classic serial sweeps.
    sharding: Option<Sharding>,
    now: Cycle,
    meter: ThroughputMeter,
    packets_delivered: u64,
    transfers_completed: u64,
    latency: Histogram,
    stop_reason: StopReason,
    /// Flit buffers to refresh this cycle (possibly non-quiescent).
    hot_bufs: ActiveSet,
    /// NIs to step this cycle (mid-packet, queued, or just fed).
    hot_nis: ActiveSet,
    /// Routers to step this cycle (an adjacent buffer is live).
    hot_routers: ActiveSet,
    scratch_bufs: Vec<usize>,
    scratch_nis: Vec<usize>,
    scratch_routers: Vec<usize>,
    /// Local-port deliveries of this cycle's router steps, drained into
    /// [`on_delivery`](Self::on_delivery) (kept to reuse its allocation).
    scratch_deliveries: Vec<Delivery>,
    /// Cumulative buffer refreshes + NI/router steps, counted identically
    /// in both stepping modes (the deterministic work measure).
    work_items: u64,
    /// Regime flag: while the tracked-work fraction crosses the shared
    /// [`simkit::sched::SATURATE_ENTER`] threshold, cycles run as plain
    /// full sweeps with no set maintenance (the bookkeeping cannot pay for
    /// itself); precise tracking resumes — after a one-off set rebuild —
    /// under [`simkit::sched::SATURATE_EXIT`]. Depends only on simulation
    /// state, so the regime sequence is deterministic.
    saturated: bool,
    /// Cycles stepped inside timed [`run`](Engine::run) loops.
    wall_cycles: Cycle,
    /// Wall-clock seconds spent inside timed [`run`](Engine::run) loops.
    wall_secs: f64,
    /// Cycles crossed by event-horizon time skipping ([`Engine::skip_to`])
    /// instead of stepping. Telemetry like `wall_cycles`: excluded from
    /// snapshots, so it restarts at zero on restore.
    cycles_skipped: u64,
}

impl PacketNocSim {
    /// Builds the mesh.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration
    /// (see [`PacketNocConfig::assert_valid`]).
    #[must_use]
    pub fn new(cfg: PacketNocConfig) -> Self {
        cfg.assert_valid();
        let n = cfg.num_nodes();
        let routers = (0..n)
            .map(|i| Router::new(i, cfg.cols, cfg.rows, cfg.vcs))
            .collect();
        let num_bufs = n * PORTS * cfg.vcs;
        let bufs = (0..num_bufs).map(|_| Fifo::new(cfg.buf_flits)).collect();
        let nis = (0..n).map(|i| NetworkInterface::new(i, &cfg)).collect();
        // Cycle 0 is a full sweep: fresh buffers need their first
        // begin_cycle before anything is pushable (see `Fifo::is_idle`).
        let mut hot_bufs = ActiveSet::new(num_bufs);
        let mut hot_nis = ActiveSet::new(n);
        let mut hot_routers = ActiveSet::new(n);
        for b in 0..num_bufs {
            hot_bufs.insert(b);
        }
        for i in 0..n {
            hot_nis.insert(i);
            hot_routers.insert(i);
        }
        let map = RegionMap::new(cfg.cols, cfg.rows, cfg.threads.max(1));
        let sharding = (cfg.threads > 1 && !cfg.full_sweep && map.regions() > 1).then(|| {
            // The router pushing into input port `p` of `node` is the
            // neighbour in direction `p` (its opposite-facing output).
            let (cols, rows) = (cfg.cols, cfg.rows);
            let ports = [Port::North, Port::East, Port::South, Port::West];
            Sharding::new(&map, cfg.vcs, &|node, p| {
                Self::neighbor(cols, rows, node, ports[p])
            })
        });
        let regions = sharding.as_ref().map_or(1, |s| s.ctxs.len());
        let node_region = (0..n)
            .map(|i| {
                if sharding.is_some() {
                    u32::try_from(map.region_of(i)).expect("region fits u32")
                } else {
                    0
                }
            })
            .collect();
        Self {
            cfg,
            routers,
            bufs,
            nis,
            txs: (0..regions).map(|_| Slab::new()).collect(),
            node_region,
            sharding,
            now: 0,
            meter: ThroughputMeter::new(0),
            packets_delivered: 0,
            transfers_completed: 0,
            latency: Histogram::new(),
            stop_reason: StopReason::Budget,
            hot_bufs,
            hot_nis,
            hot_routers,
            scratch_bufs: Vec::with_capacity(num_bufs),
            scratch_nis: Vec::with_capacity(n),
            scratch_routers: Vec::with_capacity(n),
            scratch_deliveries: Vec::new(),
            work_items: 0,
            saturated: false,
            wall_cycles: 0,
            wall_secs: 0.0,
            cycles_skipped: 0,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &PacketNocConfig {
        &self.cfg
    }

    /// Why the last [`run`](Engine::run) stopped.
    #[must_use]
    pub fn stop_reason(&self) -> StopReason {
        self.stop_reason
    }

    /// Packets delivered since construction (all time) — the baseline's
    /// wire-level counter behind [`SimReport::transfers_completed`].
    #[must_use]
    pub fn packets_delivered(&self) -> u64 {
        self.packets_delivered
    }

    fn neighbor(cols: usize, rows: usize, node: usize, p: Port) -> Option<usize> {
        let (x, y) = (node % cols, node / cols);
        match p {
            Port::North => (y > 0).then(|| node - cols),
            Port::South => (y + 1 < rows).then(|| node + cols),
            Port::East => (x + 1 < cols).then(|| node + 1),
            Port::West => (x > 0).then(|| node - 1),
            Port::Local => None,
        }
    }

    /// Telemetry of the in-flight-transfer arena — what
    /// [`SimReport::slab_high_water`] and
    /// [`SimReport::allocs_per_kilocycle`] are derived from.
    #[must_use]
    pub fn allocation_stats(&self) -> SlabStats {
        self.txs
            .iter()
            .map(Slab::stats)
            .fold(SlabStats::default(), SlabStats::merge)
    }

    /// Cumulative scheduler work: buffer refreshes plus NI/router steps,
    /// counted identically in active and full-sweep mode (deterministic,
    /// unlike wall clock). Restarts at zero on restore.
    #[must_use]
    pub fn work_items(&self) -> u64 {
        self.work_items
    }

    /// Stimulus, bounded per cycle and per NI backlog (see
    /// [`NI_QUEUE_CAP`]): a saturated mesh backpressures
    /// the generator instead of buffering an unbounded transfer backlog.
    /// Runs full-sweep in both stepping modes — sources are stateful, so
    /// the poll call sequence must not depend on mesh activity. Reports
    /// via `wake` each node whose NI accepted at least one transfer.
    fn poll_stimulus(&mut self, source: &mut dyn TrafficSource, mut wake: impl FnMut(usize)) {
        for node in 0..self.cfg.num_nodes() {
            for _ in 0..64 {
                if self.nis[node].queued() >= NI_QUEUE_CAP {
                    break;
                }
                let Some(t) = source.poll(node, self.now) else {
                    break;
                };
                // The transaction's single allocation: one arena record in
                // the source node's region, carried by handle in every
                // flit until retirement.
                let packets = self.nis[node].packets_for(t.bytes);
                let txs = &mut self.txs[self.node_region[node] as usize];
                let h = txs.alloc(TxRecord::new(node, t, packets));
                self.nis[node].enqueue(txs, h);
                wake(node);
            }
        }
    }

    /// Bookkeeping for one flit delivered to its local endpoint.
    fn on_delivery(&mut self, f: Flit, completions: &mut Vec<(usize, u64)>) {
        if f.kind == FlitKind::Head {
            self.meter.record(self.now, u64::from(f.payload));
        }
        if f.kind == FlitKind::Tail {
            self.packets_delivered += 1;
            self.latency.record(self.now.saturating_sub(f.injected_at));
            // The record lives in the *source* node's region slab.
            let txs = &mut self.txs[self.node_region[f.src] as usize];
            let tx = &mut txs[f.tx];
            tx.undelivered -= 1;
            if tx.undelivered == 0 {
                // Retirement: the last tail frees the arena record.
                let tx = txs.free(f.tx);
                self.transfers_completed += 1;
                completions.push((tx.src, tx.transfer.id));
            }
        }
    }

    /// The reference cycle: step *everything* (the pre-activity-driven
    /// behaviour, kept as the equivalence oracle). Also the body of the
    /// saturated regime; returns the number of live buffers so that
    /// regime knows when precise tracking starts paying again.
    fn step_full(&mut self, source: &mut dyn TrafficSource) -> usize {
        let vcs = self.cfg.vcs;
        let (cols, rows) = (self.cfg.cols, self.cfg.rows);
        self.work_items += (self.bufs.len() + 2 * self.nis.len()) as u64;
        let mut live = 0usize;
        for b in &mut self.bufs {
            b.begin_cycle();
            live += usize::from(!b.is_empty());
        }
        self.poll_stimulus(source, |_| {});
        // NI injection: one flit per node per cycle into the local port.
        for node in 0..self.cfg.num_nodes() {
            let bufs = &mut self.bufs;
            let now = self.now;
            let txs = &mut self.txs[self.node_region[node] as usize];
            self.nis[node].step(now, vcs, txs, |vc, flit| {
                let idx = Router::buf_index(node, LOCAL, vc, vcs);
                bufs[idx].push(flit).is_ok()
            });
        }
        // Routers (no wake bookkeeping in full-sweep mode).
        let neighbor = move |node: usize, p: Port| Self::neighbor(cols, rows, node, p);
        let mut delivered = std::mem::take(&mut self.scratch_deliveries);
        for router in &mut self.routers {
            router.step(
                self.bufs.as_mut_slice(),
                &neighbor,
                &mut |_| {},
                &mut delivered,
            );
        }
        let mut completions: Vec<(usize, u64)> = Vec::new();
        for d in delivered.drain(..) {
            self.on_delivery(d.flit, &mut completions);
        }
        self.scratch_deliveries = delivered;
        for (src, id) in completions {
            source.on_complete(src, id, self.now);
        }
        self.now += 1;
        live
    }

    /// Rebuilds the activity sets when the saturated regime hands back to
    /// precise tracking.
    fn rebuild_sets(&mut self) {
        let bufs_per_node = PORTS * self.cfg.vcs;
        for b in 0..self.bufs.len() {
            if !self.bufs[b].is_idle() {
                self.hot_bufs.insert(b);
                self.hot_routers.insert(b / bufs_per_node);
            }
        }
        for (n, ni) in self.nis.iter().enumerate() {
            if !ni.is_idle() {
                self.hot_nis.insert(n);
            }
        }
    }

    /// The activity-driven cycle: refresh only the hot flit buffers, step
    /// only NIs with work and routers next to live buffers, in the same
    /// ascending-node order as the full sweep. Skipped buffers are
    /// quiescent and skipped components would have been no-ops, so state
    /// evolution is bit-identical. A saturated mesh runs bookkeeping-free
    /// full-sweep cycles instead (see the `saturated` field).
    fn step_active(&mut self, source: &mut dyn TrafficSource) {
        let comps = 2 * self.nis.len();
        let full_items = self.bufs.len() + comps;
        if self.saturated {
            let live = self.step_full(source);
            // Counterfactual precise-mode cost ≈ live buffers + every NI
            // and router.
            if should_desaturate(live + comps, full_items) {
                self.saturated = false;
                self.rebuild_sets();
            }
            return;
        }
        let tracked = self.step_tracked(source);
        if should_saturate(tracked, full_items) {
            self.saturated = true;
            self.hot_bufs.clear();
            self.hot_nis.clear();
            self.hot_routers.clear();
        }
    }

    /// One precisely tracked cycle (the non-saturated regime). Returns the
    /// number of work items it touched (the regime switch input).
    fn step_tracked(&mut self, source: &mut dyn TrafficSource) -> usize {
        let vcs = self.cfg.vcs;
        let (cols, rows) = (self.cfg.cols, self.cfg.rows);
        let bufs_per_node = PORTS * vcs;
        // Phase 1: refresh hot buffers; live ones wake their router.
        let mut live = std::mem::take(&mut self.scratch_bufs);
        self.hot_bufs.drain_into(&mut live);
        self.work_items += live.len() as u64;
        for &b in &live {
            self.bufs[b].begin_cycle();
            // After a begin_cycle the snapshot is fresh, so quiescence
            // reduces to raw emptiness — an O(1) check.
            if !self.bufs[b].is_empty() {
                self.hot_bufs.insert(b);
                self.hot_routers.insert(b / bufs_per_node);
            }
        }
        self.scratch_bufs = live;
        // Phase 2: stimulus for every node; accepting wakes the NI.
        let mut woken = std::mem::take(&mut self.scratch_nis);
        woken.clear();
        self.poll_stimulus(source, |n| woken.push(n));
        for &n in &woken {
            self.hot_nis.insert(n);
        }
        self.scratch_nis = woken;
        // Freeze this cycle's work lists (ascending node order).
        let mut nis_now = std::mem::take(&mut self.scratch_nis);
        let mut routers_now = std::mem::take(&mut self.scratch_routers);
        self.hot_nis.drain_into(&mut nis_now);
        self.hot_routers.drain_into(&mut routers_now);
        self.work_items += (nis_now.len() + routers_now.len()) as u64;
        // Phase 3: NI injection. A busy NI (mid-packet or queued) stays
        // live, and exactly the local-port buffer it injected into is
        // marked for refresh next cycle.
        for &node in &nis_now {
            let bufs = &mut self.bufs;
            let hot_bufs = &mut self.hot_bufs;
            let now = self.now;
            let txs = &mut self.txs[self.node_region[node] as usize];
            self.nis[node].step(now, vcs, txs, |vc, flit| {
                let idx = Router::buf_index(node, LOCAL, vc, vcs);
                let accepted = bufs[idx].push(flit).is_ok();
                if accepted {
                    hot_bufs.insert(idx);
                }
                accepted
            });
            if !self.nis[node].is_idle() {
                self.hot_nis.insert(node);
            }
        }
        // Phase 4: routers next to live buffers. Each router reports the
        // exact downstream buffers it forwarded into (a credit-blocked
        // router wakes nobody; its own still-occupied input buffers keep
        // it live).
        let neighbor = move |node: usize, p: Port| Self::neighbor(cols, rows, node, p);
        let mut delivered = std::mem::take(&mut self.scratch_deliveries);
        for &ri in &routers_now {
            let hot_bufs = &mut self.hot_bufs;
            self.routers[ri].step(
                self.bufs.as_mut_slice(),
                &neighbor,
                &mut |didx| {
                    hot_bufs.insert(didx);
                },
                &mut delivered,
            );
        }
        let mut completions: Vec<(usize, u64)> = Vec::new();
        for d in delivered.drain(..) {
            self.on_delivery(d.flit, &mut completions);
        }
        self.scratch_deliveries = delivered;
        for (src, id) in completions {
            source.on_complete(src, id, self.now);
        }
        let tracked = self.scratch_bufs.len() + nis_now.len() + routers_now.len();
        self.scratch_nis = nis_now;
        self.scratch_routers = routers_now;
        self.now += 1;
        tracked
    }

    /// One region-sharded cycle (see [`crate::shard`]): a serial pre-phase
    /// refreshes boundary buffers and hands each pushing region a credit
    /// mirror, every region then sweeps its row band on its own worker,
    /// and a serial commit replays boundary pushes in ascending buffer
    /// order and delivery bookkeeping in ascending region (= ascending
    /// node) order — bit-identical to the serial full sweep.
    fn step_sharded(&mut self, source: &mut dyn TrafficSource, crew: &Crew<'_>) {
        let mut sharding = self
            .sharding
            .take()
            .expect("step_sharded without a partition");
        let vcs = self.cfg.vcs;
        let (cols, rows) = (self.cfg.cols, self.cfg.rows);
        self.work_items += (self.bufs.len() + 2 * self.nis.len()) as u64;
        // Serial pre-phase: refresh boundary buffers and capture their
        // fresh snapshots into the pushing regions' credit mirrors.
        for &(b, pr) in &sharding.boundary {
            self.bufs[b].begin_cycle();
            let ctx = &mut sharding.ctxs[pr as usize];
            let mi = ctx.mirror_of[b] as usize;
            ctx.mirrors[mi].capture(&self.bufs[b]);
        }
        self.poll_stimulus(source, |_| {});
        // Parallel phase: worker r steps region r, through plain `&mut`
        // slices of its own routers, NIs and buffers, cut off the engine's
        // arrays in region order.
        {
            let bufs_per_node = PORTS * vcs;
            let (mut routers, mut nis, mut bufs) = (
                self.routers.as_mut_slice(),
                self.nis.as_mut_slice(),
                self.bufs.as_mut_slice(),
            );
            let mut parts: Vec<RegionPart<'_>> = sharding
                .ctxs
                .iter_mut()
                .zip(&mut self.txs)
                .map(|(ctx, txs)| {
                    let nodes = ctx.nodes.len();
                    RegionPart {
                        routers: split_front(&mut routers, nodes),
                        nis: split_front(&mut nis, nodes),
                        bufs: split_front(&mut bufs, nodes * bufs_per_node),
                        txs,
                        ctx,
                    }
                })
                .collect();
            let now = self.now;
            let neighbor = move |node: usize, p: Port| Self::neighbor(cols, rows, node, p);
            crew.run_each(&mut parts, &|r, part: &mut RegionPart<'_>| {
                let RegionPart {
                    ctx,
                    routers,
                    nis,
                    bufs,
                    txs,
                } = part;
                let base = ctx.nodes.start * bufs_per_node;
                for &b in &ctx.interior_bufs {
                    bufs[b - base].begin_cycle();
                }
                // An NI injects into its own node's LOCAL input buffer.
                for (node, ni) in ctx.nodes.clone().zip(nis.iter_mut()) {
                    ni.step(now, vcs, txs, |vc, flit| {
                        let idx = Router::buf_index(node, LOCAL, vc, vcs);
                        bufs[idx - base].push(flit).is_ok()
                    });
                }
                let mut view = ShardBufView {
                    bufs,
                    base,
                    region: u32::try_from(r).expect("region fits u32"),
                    mirror_of: &ctx.mirror_of,
                    mirrors: &mut ctx.mirrors,
                };
                for router in routers.iter_mut() {
                    router.step(&mut view, &neighbor, &mut |_| {}, &mut ctx.deliveries);
                }
            });
        }
        // Serial commit: boundary pushes in ascending buffer order, then
        // delivery bookkeeping region by region — regions are ascending
        // node bands swept in ascending router order, so this is exactly
        // the serial sweep's ascending-node delivery sequence.
        for &(b, pr) in &sharding.boundary {
            let ctx = &mut sharding.ctxs[pr as usize];
            let mi = ctx.mirror_of[b] as usize;
            ctx.mirrors[mi].commit(&mut self.bufs[b]);
        }
        let mut completions: Vec<(usize, u64)> = Vec::new();
        for r in 0..sharding.ctxs.len() {
            let mut deliveries = std::mem::take(&mut sharding.ctxs[r].deliveries);
            for d in deliveries.drain(..) {
                self.on_delivery(d.flit, &mut completions);
            }
            // Hand the (empty) allocation back for the next cycle.
            sharding.ctxs[r].deliveries = deliveries;
        }
        for (src, id) in completions {
            source.on_complete(src, id, self.now);
        }
        self.now += 1;
        self.sharding = Some(sharding);
    }
}

impl Engine for PacketNocSim {
    /// One simulation cycle: activity-driven by default, or the reference
    /// full sweep when [`PacketNocConfig::full_sweep`] is set. Both paths
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

    /// Whether no packet is in flight and all NIs are idle.
    fn is_drained(&self) -> bool {
        self.txs.iter().all(Slab::is_empty) && self.nis.iter().all(NetworkInterface::is_idle)
    }

    fn begin_measurement(&mut self, start: Cycle) {
        self.meter = ThroughputMeter::new(start);
    }

    /// Latency is sampled per *packet* (injection → tail delivery), the
    /// baseline's native unit. `threads` is the number of row bands that
    /// ran: the region partition clamps [`PacketNocConfig::threads`] to the
    /// row count.
    fn snapshot_report(&self) -> SimReport {
        let slab = self.allocation_stats();
        SimReport {
            cycles: self.now,
            payload_bytes: self.meter.bytes(),
            throughput_gib_s: self.meter.throughput_gib_s(self.now),
            throughput_bytes_s: self.meter.throughput_bytes_s(self.now),
            transfers_completed: self.transfers_completed,
            mean_latency: self.latency.mean(),
            p99_latency: self.latency.quantile(0.99),
            stop_reason: self.stop_reason,
            cycles_per_sec: if self.wall_secs > 0.0 {
                self.wall_cycles as f64 / self.wall_secs
            } else {
                0.0
            },
            threads: self.sharding.as_ref().map_or(1, |s| s.ctxs.len()),
            slab_high_water: slab.high_water,
            allocs_per_kilocycle: slab.allocs as f64 * 1000.0 / self.now.max(1) as f64,
            cycles_skipped: self.cycles_skipped,
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
    /// [`shape`](PacketNocSim::shape).
    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut fresh = Self::new(self.cfg.clone());
        fresh.decode_from(bytes)?;
        *self = fresh;
        Ok(())
    }

    /// Covers simulation time plus every buffer, router, NI and in-flight
    /// record, and the delivery counters and latency histogram they feed.
    /// Excluded on purpose: the meter, which measures a run rather than
    /// holding hardware state, and the stop reason.
    fn state_digest(&self) -> u64 {
        let mut e = Encoder::new(Self::SNAP_KIND, self.shape());
        self.encode_state(&mut e, false);
        e.digest()
    }

    /// With [`PacketNocConfig::threads`] > 1 on a multi-row mesh, the
    /// cycle loop runs region-sharded on a crew of worker threads, one row
    /// band each; the results are bit-identical to the serial loop.
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
        // Sharded cycles are parallel full sweeps: there is no per-item
        // activity tracking across regions, so run in the saturated
        // regime (empty sets, full-sweep semantics). Serial stepping
        // after this run remains exact — the saturated regime is a legal
        // scheduler state it knows how to leave.
        self.saturated = true;
        self.hot_bufs.clear();
        self.hot_nis.clear();
        self.hot_routers.clear();
        crew_scope(workers, |crew| {
            drive(self, source, max_cycles, skip, |sim, src| {
                sim.step_sharded(src, crew);
            })
        })
    }

    /// With flits or transfers in flight the horizon is the very next
    /// cycle (`At(now)`); a fully drained mesh is [`Horizon::Never`] — a
    /// fixed point until a source injects.
    ///
    /// Draining alone ([`is_drained`](Engine::is_drained)) is not a fixed
    /// point: a buffer emptied by the delivery that retired the last
    /// record still carries a stale cycle snapshot until its next
    /// `begin_cycle` (it sits in the hot set awaiting exactly that), and
    /// that refresh *is* a state change. The horizon therefore also
    /// requires every buffer to be [`Fifo::is_idle`] — reached one or two
    /// cycles after the drain — so a skip never jumps over a pending
    /// refresh.
    fn horizon(&self) -> Horizon {
        if self.is_drained() && self.bufs.iter().all(Fifo::is_idle) {
            Horizon::Never
        } else {
            Horizon::At(self.now)
        }
    }

    /// Flit-level progress: any metered byte, delivered packet or
    /// completed NI injection counts.
    fn progress_marker(&self) -> (u64, u64) {
        let injected: u64 = self
            .nis
            .iter()
            .map(NetworkInterface::packets_injected)
            .sum();
        (
            self.meter.bytes() + self.meter.warmup_bytes(),
            self.packets_delivered + injected,
        )
    }

    fn skip_to(&mut self, target: Cycle) {
        debug_assert_eq!(self.horizon(), Horizon::Never, "skip over a live mesh");
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
/// the simulated hardware evolves — flit buffers, wormhole locks, arbiter
/// cursors, NI queues, arena-resident transfer records, delivery
/// counters — plus what a resumed run reports: the stop reason and the
/// meter. It holds nothing about how the state was stepped: a restored
/// engine keeps the scheduler it was built with, and its simulator
/// telemetry restarts: wall clock, `cycles_skipped` and `work_items`
/// from zero, the slab counters from the restore's re-allocation of the
/// live records. `snapshot` → `restore` → `run` is bit-identical to
/// running straight through, under any stepping mode and thread count.
///
/// Slab handles are never serialized raw: slot indices are allocation
/// accidents (they differ across thread counts and across a restore), so
/// records are numbered by a canonical first-reference traversal and every
/// flit, queue entry and emission references that number instead — see
/// `canonical_txs`.
impl PacketNocSim {
    /// This engine's discriminant in the snapshot header.
    pub const SNAP_KIND: u8 = 2;

    /// Configuration fingerprint carried in the snapshot header: FNV-1a 64
    /// over the canonical encoding of every behaviour-affecting
    /// configuration field. The two stepping-strategy knobs —
    /// [`PacketNocConfig::threads`] and [`PacketNocConfig::full_sweep`] —
    /// are deliberately **excluded**: every stepping strategy evolves
    /// bit-identical state (pinned by the equivalence tests), so a
    /// snapshot is portable across all of them and the state digest never
    /// depends on how the state was stepped.
    #[must_use]
    pub fn shape(&self) -> u64 {
        let cfg = &self.cfg;
        let mut e = Encoder::new(0, 0);
        e.usize(cfg.cols);
        e.usize(cfg.rows);
        e.usize(cfg.vcs);
        e.usize(cfg.buf_flits);
        e.u32(cfg.flit_bytes);
        e.u16(cfg.packet_flits);
        e.u32(cfg.payload_per_packet);
        // Two constants keep their slots in the fingerprint: a 2-cycle
        // router latency that no code applies, and the NI queue depth.
        // Dropping them would change every snapshot header and
        // `state_digest`, which `.e2e/golden.json` pins.
        e.u32(2);
        e.usize(NI_QUEUE_CAP);
        e.digest()
    }

    /// Enumerates every live arena record in canonical first-reference
    /// order: NI queues (then the in-emission record) in ascending node
    /// order, then buffered flits in ascending buffer order. Returns the
    /// per-region slot → canonical-number map alongside the ordered
    /// records.
    ///
    /// Every live record is reachable: a record with unsent packets sits
    /// in its NI's queue (or is the packet mid-emission), and a record
    /// fully serialized but not yet retired still has an undelivered tail
    /// flit in some buffer — asserted below, since an unreachable record
    /// would silently vanish from the snapshot.
    fn canonical_txs(&self) -> (CanonMap, Vec<(u32, TxHandle)>) {
        let mut map: CanonMap = vec![Vec::new(); self.txs.len()];
        let mut order: Vec<(u32, TxHandle)> = Vec::new();
        let mut note = |region: usize, h: TxHandle| {
            let slots = &mut map[region];
            let slot = h.index();
            if slot >= slots.len() {
                slots.resize(slot + 1, None);
            }
            if slots[slot].is_none() {
                slots[slot] = Some(u32::try_from(order.len()).expect("record count fits u32"));
                order.push((u32::try_from(region).expect("region fits u32"), h));
            }
        };
        for (node, ni) in self.nis.iter().enumerate() {
            let region = self.node_region[node] as usize;
            ni.for_each_tx(&self.txs[region], |h| note(region, h));
        }
        for f in self.bufs.iter().flat_map(Fifo::iter) {
            note(self.node_region[f.src] as usize, f.tx);
        }
        let live: usize = self.txs.iter().map(Slab::len).sum();
        assert_eq!(order.len(), live, "every live record must be referenced");
        (map, order)
    }

    /// Writes the engine state into `e`. `full` adds what a resumed run
    /// reports (the stop reason and the meter); the digest path omits it
    /// (see [`state_digest`](Self::state_digest)).
    fn encode_state(&self, e: &mut Encoder, full: bool) {
        let (canon, order) = self.canonical_txs();
        let canon_of =
            |region: usize, h: TxHandle| u64::from(canon[region][h.index()].expect("live record"));
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
            e.usize(order.len());
            for &(region, h) in &order {
                let rec = &self.txs[region as usize][h];
                e.usize(rec.src);
                encode_transfer(e, &rec.transfer);
                e.u64(rec.to_send);
                e.u64(rec.undelivered);
            }
        });
        e.section(4, |e| {
            for (node, ni) in self.nis.iter().enumerate() {
                let region = self.node_region[node] as usize;
                ni.encode_state(e, &self.txs[region], &mut |h| canon_of(region, h));
            }
        });
        e.section(5, |e| {
            for buf in &self.bufs {
                buf.encode_with(e, |e, f| {
                    e.byte(match f.kind {
                        FlitKind::Head => 0,
                        FlitKind::Body => 1,
                        FlitKind::Tail => 2,
                    });
                    e.u64(canon_of(self.node_region[f.src] as usize, f.tx));
                    e.u32(f.payload);
                    e.u64(f.injected_at);
                });
            }
        });
        e.section(6, |e| {
            for r in &self.routers {
                r.encode_state(e);
            }
        });
        e.section(7, |e| {
            e.u64(self.packets_delivered);
            e.u64(self.transfers_completed);
            self.latency.encode(e);
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
        let nodes = self.cfg.num_nodes();
        let ppp = u64::from(self.cfg.payload_per_packet);
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
        // The canonical record table: re-allocate every record in its
        // source node's region slab (this engine's own partition, so a
        // snapshot from a differently-threaded engine lands correctly)
        // and remember handle, source and destination per canonical
        // number for the reference decoders below.
        let end = d.begin_section(3)?;
        let n_rec = d.count("transfer records")?;
        let mut canon: Vec<(TxHandle, usize, usize)> = Vec::with_capacity(n_rec);
        for _ in 0..n_rec {
            let src = d.usize()?;
            if src >= nodes {
                return Err(corrupt("record source off the mesh"));
            }
            let transfer = decode_transfer(&mut d)?;
            let to_send = d.u64()?;
            let undelivered = d.u64()?;
            let total = transfer.bytes.div_ceil(ppp).max(1);
            if undelivered == 0 || undelivered > total || to_send > undelivered {
                return Err(corrupt("record packet accounting out of bounds"));
            }
            let dst = transfer.dst;
            let region = self.node_region[src] as usize;
            let h = self.txs[region].alloc(TxRecord {
                src,
                transfer,
                to_send,
                undelivered,
            });
            canon.push((h, src, dst));
        }
        d.end_section(end)?;
        let end = d.begin_section(4)?;
        {
            let mut queued = vec![false; canon.len()];
            for node in 0..nodes {
                let region = self.node_region[node] as usize;
                self.nis[node].restore_state(
                    &mut d,
                    &mut self.txs[region],
                    self.cfg.vcs,
                    &mut |idx, exclusive| {
                        let i = usize::try_from(idx)
                            .map_err(|_| corrupt("tx reference out of range"))?;
                        let &(h, src, dst) =
                            canon.get(i).ok_or(corrupt("tx reference out of range"))?;
                        if exclusive {
                            if queued[i] {
                                return Err(corrupt("record queued twice"));
                            }
                            queued[i] = true;
                        }
                        Ok((h, src, dst))
                    },
                )?;
            }
        }
        d.end_section(end)?;
        let end = d.begin_section(5)?;
        for b in 0..self.bufs.len() {
            self.bufs[b] = Fifo::decode_with(&mut d, self.cfg.buf_flits, |d| {
                let kind = match d.byte()? {
                    0 => FlitKind::Head,
                    1 => FlitKind::Body,
                    2 => FlitKind::Tail,
                    _ => return Err(corrupt("unknown flit kind")),
                };
                let i =
                    usize::try_from(d.u64()?).map_err(|_| corrupt("tx reference out of range"))?;
                let &(tx, src, dst) = canon.get(i).ok_or(corrupt("tx reference out of range"))?;
                let payload = d.u32()?;
                let injected_at = d.u64()?;
                Ok(Flit {
                    kind,
                    src,
                    dst,
                    tx,
                    payload,
                    injected_at,
                })
            })?;
        }
        d.end_section(end)?;
        let end = d.begin_section(6)?;
        for r in &mut self.routers {
            r.restore_state(&mut d)?;
        }
        d.end_section(end)?;
        let end = d.begin_section(7)?;
        self.packets_delivered = d.u64()?;
        self.transfers_completed = d.u64()?;
        self.latency = Histogram::decode(&mut d)?;
        d.end_section(end)?;
        d.finish()?;
        // The fresh engine keeps the scheduler it was built with. Its sets
        // hold every index, a superset of the live set, so the first
        // restored cycle steps everything — and stepping quiescent
        // hardware is a no-op. The regime switch then settles exactly as
        // it does after cycle 0.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::{Transfer, TransferKind};

    struct OneEach {
        issued: Vec<bool>,
        completed: usize,
        bytes: u64,
    }

    impl OneEach {
        fn new(n: usize, bytes: u64) -> Self {
            Self {
                issued: vec![false; n],
                completed: 0,
                bytes,
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
                dst: (master + 5) % self.issued.len(),
                offset: 0,
                bytes: self.bytes,
                kind: TransferKind::Write,
            })
        }

        fn on_complete(&mut self, _m: usize, _id: u64, _now: Cycle) {
            self.completed += 1;
        }

        fn is_done(&self) -> bool {
            self.completed == self.issued.len()
        }
    }

    #[test]
    fn all_transfers_deliver_exact_payload() {
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_compact());
        let mut src = OneEach::new(16, 100);
        let report = sim.run(&mut src, 1_000_000, 0);
        assert_eq!(report.payload_bytes, 16 * 100);
        assert!(sim.is_drained());
        assert_eq!(report.stop_reason, StopReason::Drained);
        assert_eq!(report.transfers_completed, 16);
        // 100 B at 4 B/packet = 25 packets per transfer.
        assert_eq!(sim.packets_delivered(), 16 * 25);
    }

    #[test]
    fn high_performance_config_also_drains() {
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        let mut src = OneEach::new(16, 64);
        let report = sim.run(&mut src, 1_000_000, 0);
        assert_eq!(report.payload_bytes, 16 * 64);
    }

    #[test]
    fn packet_latency_scales_with_distance() {
        // Two runs on a 4×4: 1-hop vs 6-hop transfers.
        struct Fixed {
            dst: usize,
            sent: bool,
            done: bool,
        }
        impl TrafficSource for Fixed {
            fn poll(&mut self, master: usize, _now: Cycle) -> Option<Transfer> {
                if master != 0 || self.sent {
                    return None;
                }
                self.sent = true;
                Some(Transfer {
                    id: 1,
                    dst: self.dst,
                    offset: 0,
                    bytes: 4,
                    kind: TransferKind::Write,
                })
            }
            fn on_complete(&mut self, _m: usize, _id: u64, _now: Cycle) {
                self.done = true;
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let mut near = PacketNocSim::new(PacketNocConfig::noxim_compact());
        let near_report = near.run(
            &mut Fixed {
                dst: 1,
                sent: false,
                done: false,
            },
            10_000,
            0,
        );
        let mut far = PacketNocSim::new(PacketNocConfig::noxim_compact());
        let far_report = far.run(
            &mut Fixed {
                dst: 15,
                sent: false,
                done: false,
            },
            10_000,
            0,
        );
        assert!(
            far_report.mean_latency > near_report.mean_latency + 4.0,
            "far {} vs near {}",
            far_report.mean_latency,
            near_report.mean_latency
        );
    }

    #[test]
    fn serialization_makes_big_transfers_slow() {
        // 1 KiB = 256 packets of 8 flits: at one flit per cycle on the
        // local link, at least 2048 cycles — the protocol-translation tax.
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_compact());
        let mut src = OneEach::new(16, 1024);
        let report = sim.run(&mut src, 1_000_000, 0);
        assert!(report.cycles >= 2048, "only {} cycles", report.cycles);
    }

    #[test]
    fn idealized_payload_packing_multiplies_throughput() {
        // Ablation: an NI that packs payload into every non-header flit
        // (28 B per 8-flit packet) moves the same transfer volume with 7x
        // fewer packets, so the same transfers complete in ~7x fewer
        // cycles.
        let run = |payload: u32| {
            let cfg = PacketNocConfig {
                payload_per_packet: payload,
                ..PacketNocConfig::noxim_high_performance()
            };
            let mut sim = PacketNocSim::new(cfg);
            let mut src = OneEach::new(16, 2800);
            sim.run(&mut src, 3_000_000, 0).cycles
        };
        let word_granular = run(4);
        let packed = run(28);
        assert!(
            word_granular > 4 * packed,
            "word-granular {word_granular} vs packed {packed} cycles"
        );
    }

    #[test]
    fn wormhole_throughput_bounded_by_link_rate() {
        // 16 nodes × 1 flit/cycle injection is the hard ceiling; delivered
        // payload can never exceed payload_per_packet/packet_flits of it.
        let cfg = PacketNocConfig::noxim_high_performance();
        let ppf = f64::from(cfg.payload_per_packet) / f64::from(cfg.packet_flits);
        let mut sim = PacketNocSim::new(cfg);
        let mut src = OneEach::new(16, 10_000);
        let report = sim.run(&mut src, 50_000, 0);
        let bytes_per_cycle = report.payload_bytes as f64 / report.cycles as f64;
        assert!(
            bytes_per_cycle <= 16.0 * ppf + 1e-9,
            "{bytes_per_cycle} B/cycle exceeds the serialization ceiling"
        );
    }

    #[test]
    fn ni_queue_cap_bounds_backlog() {
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_compact());
        let mut src = traffic::UniformRandom::new(traffic::UniformConfig {
            nodes: 16,
            load: 1.0,
            bytes_per_cycle: 4.0,
            max_transfer: 100,
            read_fraction: 0.5,
            region_size: 1 << 24,
            seed: 5,
        });
        let mut peak = 0;
        for _ in 0..10_000 {
            sim.step(&mut src);
            let backlog = sim.nis.iter().map(NetworkInterface::queued).max().unwrap();
            peak = peak.max(backlog);
        }
        // A saturated mesh backs the source up to the cap, and no further.
        assert_eq!(peak, NI_QUEUE_CAP, "backlog peaked at {peak}");
    }

    /// The Poisson workload the stepping cross-checks below share.
    fn uniform(load: f64) -> traffic::UniformRandom {
        traffic::UniformRandom::new(traffic::UniformConfig {
            nodes: 16,
            load,
            bytes_per_cycle: 4.0,
            max_transfer: 100,
            read_fraction: 0.5,
            region_size: 1 << 24,
            seed: 0x5EED,
        })
    }

    /// Runs the Poisson workload in active or full-sweep mode.
    fn run_mode(full_sweep: bool, load: f64, window: u64) -> (simkit::SimReport, u64, u64) {
        let cfg = PacketNocConfig {
            full_sweep,
            ..PacketNocConfig::noxim_high_performance()
        };
        let mut sim = PacketNocSim::new(cfg);
        let report = sim.run(&mut uniform(load), window, window / 5);
        (report, sim.packets_delivered(), sim.work_items())
    }

    /// Runs the same Poisson workload in active and full-sweep mode.
    fn run_both_modes(load: f64, window: u64) -> [(simkit::SimReport, u64, u64); 2] {
        [true, false].map(|full_sweep| run_mode(full_sweep, load, window))
    }

    /// Steps the active engine through the same workload one
    /// [`Engine::step`] at a time, measuring from where [`Engine::run`]
    /// would: the plain cycle loop, which never jumps.
    fn run_cycle_loop(load: f64, window: u64) -> (simkit::SimReport, u64, u64) {
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        let mut src = uniform(load);
        sim.begin_measurement(window / 5);
        for _ in 0..window {
            sim.step(&mut src);
        }
        (
            sim.snapshot_report(),
            sim.packets_delivered(),
            sim.work_items(),
        )
    }

    #[test]
    fn active_stepping_is_bit_identical_to_full_sweep() {
        for load in [0.001, 0.3, 1.0] {
            let [(fr, fp, _), (ar, ap, _)] = run_both_modes(load, 20_000);
            assert_eq!(fr, ar, "report differs at load {load}");
            assert_eq!(fp, ap, "packet count differs at load {load}");
            assert_eq!(fr.cycles_skipped, 0, "reference must not skip");
        }
    }

    #[test]
    fn time_skipping_is_bit_identical_to_the_cycle_loop() {
        // Both sides step actively, so the horizon jumps `run` takes over
        // idle gaps are the only difference.
        for load in [0.001, 0.3, 1.0] {
            let (sr, sp, _) = run_mode(false, load, 20_000);
            let (lr, lp, _) = run_cycle_loop(load, 20_000);
            assert_eq!(lr, sr, "report differs at load {load}");
            assert_eq!(lp, sp, "packet count differs at load {load}");
            assert_eq!(lr.cycles_skipped, 0, "the cycle loop must not skip");
        }
    }

    #[test]
    fn time_skipping_crosses_idle_gaps_at_low_load() {
        let [_, (skipped, ..)] = run_both_modes(0.001, 20_000);
        assert!(
            skipped.cycles_skipped > 10_000,
            "only {} of 20 000 mostly-idle cycles skipped",
            skipped.cycles_skipped
        );
        // A saturated mesh has essentially no idle gaps (a stray cycle
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
        let cfg = PacketNocConfig {
            full_sweep: true,
            ..PacketNocConfig::noxim_compact()
        };
        let mut sim = PacketNocSim::new(cfg);
        let mut src = OneEach::new(16, 100);
        let report = sim.run(&mut src, 1_000_000, 0);
        assert_eq!(report.stop_reason, StopReason::Drained);
        assert_eq!(report.cycles_skipped, 0, "the reference path never skips");
    }

    #[test]
    fn full_sweep_is_the_serial_reference_at_any_thread_count() {
        let run = |threads: usize| {
            let cfg = PacketNocConfig {
                full_sweep: true,
                threads,
                ..PacketNocConfig::noxim_high_performance()
            };
            let mut sim = PacketNocSim::new(cfg);
            let report = sim.run(&mut uniform(0.3), 5_000, 1_000);
            (report, sim.work_items())
        };
        let (serial, serial_work) = run(1);
        for threads in [2, 4] {
            let (report, work) = run(threads);
            assert_eq!(report.threads, 1, "{threads} threads");
            assert_eq!(work, serial_work, "{threads} threads");
            assert_eq!(report, serial, "{threads} threads");
        }
    }

    /// Runs the same Poisson workload region-sharded across `threads`
    /// workers.
    fn run_threaded(threads: usize, load: f64, window: u64) -> (simkit::SimReport, u64) {
        let cfg = PacketNocConfig {
            threads,
            ..PacketNocConfig::noxim_high_performance()
        };
        let mut sim = PacketNocSim::new(cfg);
        let report = sim.run(&mut uniform(load), window, window / 5);
        (report, sim.packets_delivered())
    }

    #[test]
    fn sharded_stepping_is_bit_identical_to_serial() {
        for load in [0.001, 0.3, 1.0] {
            let serial = run_threaded(1, load, 20_000);
            for threads in [2, 3, 4, 8] {
                let sharded = run_threaded(threads, load, 20_000);
                assert_eq!(
                    serial, sharded,
                    "results differ at load {load} with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn sharded_sim_can_keep_stepping_serially_after_a_run() {
        // A sharded run leaves the scheduler in the saturated regime;
        // manual serial stepping afterwards must still drain correctly.
        let cfg = PacketNocConfig {
            threads: 4,
            ..PacketNocConfig::noxim_compact()
        };
        let mut sim = PacketNocSim::new(cfg);
        let mut src = OneEach::new(16, 100);
        sim.run(&mut src, 64, 0); // stop with packets still in flight
        assert!(!sim.is_drained(), "the run window was chosen mid-flight");
        while !(src.is_done() && sim.is_drained()) {
            sim.step(&mut src);
            assert!(sim.now() < 1_000_000, "serial drain stalled");
        }
        assert_eq!(src.completed, 16);
    }

    #[test]
    fn active_stepping_skips_most_work_when_idle() {
        let [(_, _, full_work), (_, _, active_work)] = run_both_modes(0.001, 50_000);
        assert!(
            active_work * 5 <= full_work,
            "active {active_work} vs full {full_work} work items"
        );
    }

    /// A transfer whose destination lies outside the mesh: XY routing
    /// steers its flits South off the bottom edge, where no output port
    /// exists, wedging them forever — a deliberate deadlock.
    struct OffMesh(bool);
    impl TrafficSource for OffMesh {
        fn poll(&mut self, master: usize, _now: Cycle) -> Option<Transfer> {
            if master != 0 || self.0 {
                return None;
            }
            self.0 = true;
            Some(Transfer {
                id: 1,
                dst: 99,
                offset: 0,
                bytes: 4,
                kind: TransferKind::Write,
            })
        }
    }

    #[test]
    #[should_panic(expected = "deadlock: no progress since cycle")]
    fn watchdog_trips_on_deadlocked_traffic() {
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_compact());
        sim.run(&mut OffMesh(false), 150_000, 0);
    }

    #[test]
    fn watchdog_threshold_is_one_hundred_thousand_cycles() {
        // The wedged packet makes its last progress when the NI finishes
        // injecting it; the watchdog must stay quiet for the documented
        // 100 000 cycles after that and only panic beyond them.
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_compact());
        let report = sim.run(&mut OffMesh(false), 100_000, 0);
        assert_eq!(report.transfers_completed, 0);
        assert!(!sim.is_drained(), "the wedged flits are still in flight");
    }

    #[test]
    fn report_carries_slab_telemetry() {
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_compact());
        let mut src = OneEach::new(16, 100);
        let report = sim.run(&mut src, 1_000_000, 0);
        let stats = sim.allocation_stats();
        assert_eq!(stats.live, 0, "every record retired on drain");
        assert_eq!(stats.allocs, 16, "exactly one allocation per transfer");
        assert!(report.slab_high_water >= 1);
        assert!(report.allocs_per_kilocycle > 0.0);
    }

    #[test]
    fn self_traffic_delivered_locally() {
        struct SelfSend(bool, bool);
        impl TrafficSource for SelfSend {
            fn poll(&mut self, master: usize, _now: Cycle) -> Option<Transfer> {
                if master != 3 || self.0 {
                    return None;
                }
                self.0 = true;
                Some(Transfer {
                    id: 0,
                    dst: 3,
                    offset: 0,
                    bytes: 8,
                    kind: TransferKind::Write,
                })
            }
            fn on_complete(&mut self, _m: usize, _id: u64, _now: Cycle) {
                self.1 = true;
            }
            fn is_done(&self) -> bool {
                self.1
            }
        }
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_compact());
        let report = sim.run(&mut SelfSend(false, false), 10_000, 0);
        assert_eq!(report.payload_bytes, 8);
    }

    /// A clonable Poisson-ish stimulus with plenty of in-flight state at any
    /// capture point.
    fn poisson(seed: u64) -> traffic::UniformRandom {
        traffic::UniformRandom::new_copies(traffic::UniformConfig {
            nodes: 16,
            load: 0.6,
            bytes_per_cycle: 4.0,
            max_transfer: 100,
            read_fraction: 0.5,
            region_size: 1 << 24,
            seed,
        })
    }

    #[test]
    fn snapshot_restore_run_is_bit_identical() {
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        let mut src = poisson(11);
        sim.run(&mut src, 3_000, 0);
        let bytes = sim.snapshot();
        let mut forked_src = src.clone();

        let straight = sim.run(&mut src, 2_000, 0);
        let mut forked = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        forked.restore(&bytes).expect("snapshot restores");
        assert_eq!(forked.now(), 3_000);
        let replay = forked.run(&mut forked_src, 2_000, 0);

        assert_eq!(straight, replay);
        assert_eq!(sim.state_digest(), forked.state_digest());
    }

    #[test]
    fn snapshot_is_portable_across_thread_counts() {
        let mut serial = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        let mut src = poisson(23);
        serial.run(&mut src, 3_000, 0);
        let bytes = serial.snapshot();
        let mut forked_src = src.clone();

        let serial_report = serial.run(&mut src, 2_000, 0);
        let mut sharded = PacketNocSim::new(PacketNocConfig {
            threads: 4,
            ..PacketNocConfig::noxim_high_performance()
        });
        sharded.restore(&bytes).expect("snapshot restores");
        let sharded_report = sharded.run(&mut forked_src, 2_000, 0);

        assert_eq!(serial_report, sharded_report);
        assert_eq!(serial.state_digest(), sharded.state_digest());
    }

    #[test]
    fn snapshot_of_restored_engine_is_byte_identical() {
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        sim.run(&mut poisson(5), 2_500, 0);
        let bytes = sim.snapshot();
        let mut again = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        again.restore(&bytes).expect("snapshot restores");
        assert_eq!(bytes, again.snapshot());
    }

    #[test]
    fn corrupt_snapshot_leaves_the_engine_untouched() {
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        sim.run(&mut poisson(7), 2_000, 0);
        let mut bytes = sim.snapshot();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;

        let mut target = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        target.run(&mut poisson(9), 1_000, 0);
        let digest = target.state_digest();
        assert!(target.restore(&bytes).is_err());
        assert_eq!(target.state_digest(), digest);
        assert_eq!(target.now(), 1_000);
    }

    #[test]
    fn a_snapshot_with_a_trailing_section_is_refused() {
        // Checkpoints that still carry the scheduler and telemetry
        // sections have them after the last state section. Re-framed with
        // a valid digest trailer, such bytes are refused whole.
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        sim.run(&mut poisson(17), 2_000, 0);
        let bytes = sim.snapshot();
        let mut old = bytes[..bytes.len() - 8].to_vec();
        old.extend_from_slice(&[8, 1, 0, 0, 0, 0]);
        old.extend_from_slice(&simkit::snap::fnv1a64(&old).to_le_bytes());
        let digest = sim.state_digest();
        assert_eq!(sim.restore(&old), Err(SnapError::TrailingBytes));
        assert_eq!(sim.state_digest(), digest);
        assert_eq!(sim.snapshot(), bytes);
    }

    #[test]
    fn a_used_engine_restores_like_a_fresh_one() {
        // The scheduler is outside the snapshot, so a restore must not keep
        // the one its target evolved: an engine left nearly idle, with
        // sparse live sets, takes a saturated checkpoint.
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        let mut src = uniform(1.0);
        sim.run(&mut src, 3_000, 0);
        let bytes = sim.snapshot();
        let mut resumed_src = src.clone();
        let straight = sim.run(&mut src, 2_000, 0);

        let mut used = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        used.run(&mut uniform(0.02), 20_000, 0);
        used.restore(&bytes).expect("snapshot restores");
        assert_eq!(used.run(&mut resumed_src, 2_000, 0), straight);
        assert_eq!(used.state_digest(), sim.state_digest());
    }

    #[test]
    fn a_restored_engine_reports_what_the_original_did() {
        // Beyond the hardware, a checkpoint keeps the stop reason and the
        // meter: a drained run with a warm-up reports the same from its
        // restored copy.
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        let report = sim.run(&mut OneEach::new(16, 100), 1_000_000, 100);
        assert_eq!(report.stop_reason, StopReason::Drained);
        let mut restored = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        restored
            .restore(&sim.snapshot())
            .expect("snapshot restores");
        assert_eq!(restored.snapshot_report(), report);
    }

    #[test]
    fn a_restored_engine_counts_telemetry_from_zero() {
        // A snapshot holds no simulator telemetry. The low load leaves idle
        // gaps to skip; the capture waits for records in flight.
        let mut sim = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        let mut src = uniform(0.02);
        let before = sim.run(&mut src, 20_000, 0);
        assert!(before.cycles_skipped > 0 && sim.work_items() > 0);
        while sim.allocation_stats().live == 0 {
            sim.step(&mut src);
        }
        let live = sim.allocation_stats().live;

        let mut restored = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        restored
            .restore(&sim.snapshot())
            .expect("snapshot restores");
        let after = restored.snapshot_report();
        assert_eq!(restored.work_items(), 0);
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
        let mut small = PacketNocSim::new(PacketNocConfig::noxim_compact());
        small.run(&mut poisson(3), 500, 0);
        let bytes = small.snapshot();
        let mut big = PacketNocSim::new(PacketNocConfig::noxim_high_performance());
        assert!(matches!(big.restore(&bytes), Err(SnapError::ShapeMismatch)));
    }
}
