//! The AXI crosspoint (XP) — PATRONoC's routing element (paper §II, Fig. 1).
//!
//! An XP is "a configurable crossbar (XBAR) switch and ID remappers to
//! ensure isomorphic XP ports. It is fully AXI-compliant and supports
//! bursts, multiple outstanding transactions, and transaction ordering."
//!
//! The cycle-accurate model implements, per AXI channel:
//!
//! * **AW/AR** — address decode against the static routing table, the
//!   demux-side ordering rule (a same-ID transaction towards a *different*
//!   output stalls until the ID drains), per-output round-robin arbitration,
//!   and ID remapping through a `2^IW`-entry table per output port that
//!   back-pressures on exhaustion.
//! * **W** — write data follows AW grant order: each output port keeps the
//!   order in which AW requests won arbitration (`w_order`), each input
//!   keeps the order in which its AWs departed (`w_route`); a W beat moves
//!   only when both agree, exactly like the W-FIFO serialization in the
//!   pulp-platform `axi_mux`.
//! * **B** — routed back to the originating input port via the remap table,
//!   restoring the upstream ID.
//! * **R** — as B, but bursts are forwarded atomically (no beat interleave
//!   towards one upstream port, matching `axi_mux`'s locked R path).
//!
//! A stage that moved nothing sleeps until something it reads changes: a
//! channel edge on one of its links ([`Edges`](crate::link::Edges)) or a
//! grant of another stage of the same XP (see [`Xp::step`]).

use crate::link::{stage, LinkView, ReqBeat, RespBeat};
use crate::routing::{routing_table, RoutingAlgorithm};
#[cfg(test)]
use crate::routing::{xp_connectivity, Connectivity};
#[cfg(test)]
use crate::topology::{Dir, LOCAL};
use crate::topology::{Topology, PORTS};
use axi::id::{IdRemapper, OrderingGuard, SourceKey};
use simkit::RoundRobinArbiter;

/// A fixed-capacity FIFO of port indices: the heap-free replacement for
/// the old per-output `VecDeque<usize>` W-grant queues. At most one write
/// burst per *input* port is in flight through an XP (enforced by the
/// `w_route` stall in [`Xp::step_requests`]), so every queue holds at most
/// `PORTS` entries and the whole structure is a few bytes of fixed layout.
#[derive(Debug, Clone, Copy)]
struct PortFifo {
    slots: [u8; PORTS],
    head: u8,
    len: u8,
}

impl PortFifo {
    const fn new() -> Self {
        Self {
            slots: [0; PORTS],
            head: 0,
            len: 0,
        }
    }

    /// Serializes the queue canonically (logical order from the head, so
    /// equal queues encode identically regardless of ring rotation).
    fn encode(&self, e: &mut simkit::snap::Encoder) {
        e.byte(self.len);
        for k in 0..usize::from(self.len) {
            e.byte(self.slots[(usize::from(self.head) + k) % PORTS]);
        }
    }

    /// Decodes a queue written by [`encode`](Self::encode); entries must be
    /// valid port indices and the queue must fit its fixed capacity.
    fn decode(d: &mut simkit::snap::Decoder<'_>) -> Result<Self, simkit::snap::SnapError> {
        use crate::snapcodec::corrupt;
        let len = d.byte()?;
        if usize::from(len) > PORTS {
            return Err(corrupt("port fifo overfull"));
        }
        let mut slots = [0u8; PORTS];
        for slot in slots.iter_mut().take(usize::from(len)) {
            let p = d.byte()?;
            if usize::from(p) >= PORTS {
                return Err(corrupt("port fifo entry out of range"));
            }
            *slot = p;
        }
        Ok(Self {
            slots,
            head: 0,
            len,
        })
    }

    fn push_back(&mut self, port: usize) {
        debug_assert!((self.len as usize) < PORTS, "port fifo overflow");
        let tail = (self.head as usize + self.len as usize) % PORTS;
        self.slots[tail] = port as u8;
        self.len += 1;
    }

    fn front(&self) -> Option<usize> {
        (self.len > 0).then(|| usize::from(self.slots[self.head as usize]))
    }

    fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "pop from empty port fifo");
        self.head = (self.head + 1) % PORTS as u8;
        self.len -= 1;
    }
}

/// A B or R channel head as a response stage reads it: the beat and the
/// upstream source ([`IdRemapper::source_of`]) its ID maps back to.
type RespHead = Option<(RespBeat, Option<SourceKey>)>;

/// The input-port bit a response head returns to (0 if none or unmapped).
fn returns_to(head: RespHead) -> u8 {
    match head {
        Some((_, Some(key))) => 1 << key.port,
        _ => 0,
    }
}

/// One crosspoint of the NoC.
///
/// Constructed by the mesh builder ([`crate::NocSim`]); stepped once per
/// cycle with the global link array.
#[derive(Debug, Clone)]
pub struct Xp {
    node: usize,
    route: Vec<u8>,
    allowed: [[bool; PORTS]; PORTS],
    /// Links where this XP is the slave side (requests arrive), per port.
    in_links: [Option<usize>; PORTS],
    /// Links where this XP is the master side (requests leave), per port.
    out_links: [Option<usize>; PORTS],
    aw_arb: Vec<RoundRobinArbiter>,
    ar_arb: Vec<RoundRobinArbiter>,
    b_arb: Vec<RoundRobinArbiter>,
    r_arb: Vec<RoundRobinArbiter>,
    /// Per output port: the inputs whose AWs won arbitration, in grant
    /// order — the order their W streams must follow.
    w_order: [PortFifo; PORTS],
    /// Per input port: the output its current write burst was granted to
    /// (at most one in flight per input; see [`PortFifo`]).
    w_route: [Option<usize>; PORTS],
    wr_remap: Vec<IdRemapper>,
    rd_remap: Vec<IdRemapper>,
    aw_guard: Vec<OrderingGuard>,
    ar_guard: Vec<OrderingGuard>,
    r_lock: Vec<Option<usize>>,
    /// W data beats forwarded per output port (utilization probe).
    w_beats: [u64; PORTS],
    /// R data beats forwarded per *input* port, i.e. towards that upstream
    /// direction (utilization probe).
    r_beats: [u64; PORTS],
    /// The stages ([`stage`] bits) the next [`step`](Self::step)
    /// evaluates. Scheduler state: never checkpointed, and all set on a
    /// fresh XP.
    awake: u8,
    /// Stage evaluations so far, in stage order (telemetry, not state).
    evaluations: [u64; 5],
}

impl Xp {
    /// Builds the crosspoint for `node`, generating its routing table from
    /// the topology and routing algorithm. The connectivity matrix is
    /// passed in precomputed — when building a whole mesh, derive all of
    /// them in one route sweep with
    /// [`crate::routing::connectivity_tables`]; for a standalone XP,
    /// [`crate::routing::xp_connectivity`] computes a single node's
    /// matrix.
    #[must_use]
    pub fn new(
        topo: Topology,
        algo: RoutingAlgorithm,
        allowed: [[bool; PORTS]; PORTS],
        node: usize,
        id_width: u32,
        in_links: [Option<usize>; PORTS],
        out_links: [Option<usize>; PORTS],
    ) -> Self {
        Self {
            node,
            route: routing_table(topo, algo, node),
            allowed,
            in_links,
            out_links,
            aw_arb: (0..PORTS).map(|_| RoundRobinArbiter::new(PORTS)).collect(),
            ar_arb: (0..PORTS).map(|_| RoundRobinArbiter::new(PORTS)).collect(),
            b_arb: (0..PORTS).map(|_| RoundRobinArbiter::new(PORTS)).collect(),
            r_arb: (0..PORTS).map(|_| RoundRobinArbiter::new(PORTS)).collect(),
            w_order: [PortFifo::new(); PORTS],
            w_route: [None; PORTS],
            wr_remap: (0..PORTS).map(|_| IdRemapper::new(id_width)).collect(),
            rd_remap: (0..PORTS).map(|_| IdRemapper::new(id_width)).collect(),
            aw_guard: vec![OrderingGuard::new(); PORTS],
            ar_guard: vec![OrderingGuard::new(); PORTS],
            r_lock: vec![None; PORTS],
            w_beats: [0; PORTS],
            r_beats: [0; PORTS],
            awake: stage::ALL,
            evaluations: [0; 5],
        }
    }

    /// W data beats forwarded so far through each output port
    /// (N, E, S, W, local), for link-utilization studies.
    #[must_use]
    pub fn w_beats(&self) -> &[u64; PORTS] {
        &self.w_beats
    }

    /// R data beats returned so far towards each input port.
    #[must_use]
    pub fn r_beats(&self) -> &[u64; PORTS] {
        &self.r_beats
    }

    /// The node index this XP serves.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// The XP's routing table (destination node → output port).
    #[must_use]
    pub fn routing_table(&self) -> &[u8] {
        &self.route
    }

    /// Whether the crossbar wires input port `i` to output port `o`.
    #[must_use]
    pub fn allows(&self, i: usize, o: usize) -> bool {
        self.allowed[i][o]
    }

    /// Total transactions currently remapped (in flight through this XP).
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.wr_remap.iter().map(IdRemapper::in_use).sum::<usize>()
            + self.rd_remap.iter().map(IdRemapper::in_use).sum::<usize>()
    }

    /// The indices of every link wired to this XP (inputs then outputs,
    /// each in port order) — the neighbourhood an activity-driven
    /// scheduler must mark live after the XP moved beats.
    pub fn links(&self) -> impl Iterator<Item = usize> + '_ {
        self.in_links
            .iter()
            .chain(self.out_links.iter())
            .filter_map(|l| *l)
    }

    /// Stage evaluations so far, per stage in [`stage`] order (AW, AR, W,
    /// B, R). Telemetry: not part of the checkpointed state.
    #[must_use]
    pub fn stage_evaluations(&self) -> &[u64; 5] {
        &self.evaluations
    }

    /// Marks `stages` ([`stage`] bits) for evaluation on the next
    /// [`step`](Self::step). The engines call it with the channel edges of
    /// the XP's links ([`Edges::master_wakes`](crate::link::Edges::master_wakes),
    /// [`Edges::slave_wakes`](crate::link::Edges::slave_wakes)). Waking a
    /// stage that has nothing to do is always safe: it runs the normal
    /// code and moves nothing.
    #[inline]
    pub fn wake(&mut self, stages: u8) {
        self.awake |= stages;
    }

    /// Advances the awake stages by one cycle, in AW, AR, W, B, R order.
    /// Returns whether the XP moved any beat — `false` means the step was
    /// a no-op (nothing to route) and none of its adjacent links were
    /// touched, so the scheduler may leave the neighbourhood asleep.
    ///
    /// A stage that moves nothing goes to sleep. What it reads is its
    /// links' cycle snapshots (heads and `can_push`) and XP state that
    /// only grants change, so until one of these changes it would move
    /// nothing again:
    ///
    /// - a head edge or space edge on one of its channels, which the
    ///   engine passes in through [`wake`](Self::wake);
    /// - a grant of another stage here: an AW grant queues a W stream (W
    ///   wakes this same cycle, since it runs later), the last W beat of a
    ///   burst frees its input for the next AW, a B grant releases a write
    ///   ID and completes an AW ordering entry, and the last R beat does
    ///   the same for AR.
    ///
    /// A stage's own pops and pushes keep it awake, since it moved.
    ///
    /// Generic over [`LinkView`] so the identical routing code runs against
    /// the real link array (serial engine) or a region shard's boundary-
    /// mirrored view (sharded engine).
    pub fn step<L: LinkView + ?Sized>(&mut self, links: &mut L) -> bool {
        if self.awake == 0 {
            return false;
        }
        let mut moved = self.eval_stage(links, 0, |x, l| x.step_requests(l, true));
        moved |= self.eval_stage(links, 1, |x, l| x.step_requests(l, false));
        moved |= self.eval_stage(links, 2, Self::step_w);
        moved |= self.eval_stage(links, 3, Self::step_b);
        moved |= self.eval_stage(links, 4, Self::step_r);
        moved
    }

    /// Evaluates every stage, whatever the wake mask says: the reference
    /// that [`step`](Self::step) is checked against.
    pub fn step_all<L: LinkView + ?Sized>(&mut self, links: &mut L) -> bool {
        self.awake = stage::ALL;
        self.step(links)
    }

    /// Runs stage `k` (bit `1 << k`) if it is awake, and puts it to sleep
    /// if it moved nothing.
    #[inline(always)]
    fn eval_stage<L: LinkView + ?Sized>(
        &mut self,
        links: &mut L,
        k: usize,
        eval: impl FnOnce(&mut Self, &mut L) -> bool,
    ) -> bool {
        let bit = 1 << k;
        if self.awake & bit == 0 {
            return false;
        }
        self.evaluations[k] += 1;
        let moved = eval(self, links);
        if !moved {
            self.awake &= !bit;
        }
        moved
    }

    /// The request beat at the head of input link `in_idx`'s AW (`write`)
    /// or AR channel, with the output port its destination routes to.
    fn req_head<L: LinkView + ?Sized>(
        &self,
        links: &L,
        in_idx: usize,
        write: bool,
    ) -> Option<(ReqBeat, usize)> {
        let beat = if write {
            links.aw_peek(in_idx)
        } else {
            links.ar_peek(in_idx)
        }?;
        Some((beat, usize::from(self.route[beat.dst])))
    }

    /// AW (write = true) or AR (write = false) stage.
    ///
    /// Each input's head is read once into `heads`. A grant at (output
    /// `o`, input `i`) changes only input `i`'s entry (its link head,
    /// ordering guard and `w_route`) and output `o`'s remapper, which this
    /// stage never visits again, so only input `i` is re-read.
    fn step_requests<L: LinkView + ?Sized>(&mut self, links: &mut L, write: bool) -> bool {
        let mut heads = [None; PORTS];
        // Bit o: some head routes to output o.
        let mut wanted = 0u8;
        for (i, head) in heads.iter_mut().enumerate() {
            if let Some(in_idx) = self.in_links[i] {
                *head = self.req_head(links, in_idx, write);
                if let Some((_, o)) = *head {
                    wanted |= 1 << o;
                }
            }
        }
        let mut moved = false;
        for o in 0..PORTS {
            if wanted >> o & 1 == 0 {
                continue;
            }
            let Some(out_idx) = self.out_links[o] else {
                continue;
            };
            let out_ready = if write {
                links.aw_can_push(out_idx)
            } else {
                links.ar_can_push(out_idx)
            };
            if !out_ready {
                continue;
            }
            let (guards, remap) = if write {
                (&self.aw_guard, &self.wr_remap[o])
            } else {
                (&self.ar_guard, &self.rd_remap[o])
            };
            let mut elig = [false; PORTS];
            for (i, slot) in elig.iter_mut().enumerate() {
                let Some((beat, route)) = heads[i] else {
                    continue;
                };
                // W-channel deadlock avoidance: at most one write burst per
                // input in flight through this XP, so every granted W stream
                // drains independently of other grants (the AW and its data
                // then traverse the mesh as one dimension-ordered wormhole;
                // with unrestricted AW run-ahead, the per-output grant-order
                // coupling of the W channel can form cyclic waits across
                // crosspoints and deadlock the write path).
                *slot = route == o
                    && self.allowed[i][o]
                    && guards[i].may_issue(beat.id, o)
                    && !(write && self.w_route[i].is_some())
                    && remap.can_acquire(SourceKey {
                        port: i as u8,
                        id: beat.id,
                    });
            }
            let arb = if write {
                &mut self.aw_arb[o]
            } else {
                &mut self.ar_arb[o]
            };
            let Some(i) = arb.grant(|i| elig[i]) else {
                continue;
            };
            let in_idx = self.in_links[i].expect("eligible input exists");
            let mut beat = if write {
                links.aw_pop(in_idx)
            } else {
                links.ar_pop(in_idx)
            }
            .expect("eligible beat exists");
            let key = SourceKey {
                port: i as u8,
                id: beat.id,
            };
            if write {
                let rid = self.wr_remap[o].acquire(key).expect("eligibility checked");
                self.aw_guard[i].issue(beat.id, o);
                self.w_order[o].push_back(i);
                debug_assert!(self.w_route[i].is_none(), "one write per input");
                self.w_route[i] = Some(o);
                self.awake |= stage::W;
                beat.id = rid;
                links.aw_push(out_idx, beat);
            } else {
                let rid = self.rd_remap[o].acquire(key).expect("eligibility checked");
                self.ar_guard[i].issue(beat.id, o);
                beat.id = rid;
                links.ar_push(out_idx, beat);
            }
            moved = true;
            // The pop may expose a beat the cycle snapshot already held,
            // bound for an output still to come.
            heads[i] = self.req_head(links, in_idx, write);
            if let Some((_, next)) = heads[i] {
                wanted |= 1 << next;
            }
        }
        moved
    }

    /// W stage: forward write data in AW grant order.
    fn step_w<L: LinkView + ?Sized>(&mut self, links: &mut L) -> bool {
        let mut moved = false;
        for o in 0..PORTS {
            let Some(out_idx) = self.out_links[o] else {
                continue;
            };
            if !links.w_can_push(out_idx) {
                continue;
            }
            let Some(i) = self.w_order[o].front() else {
                continue;
            };
            // The input's current W stream must also be committed to us.
            if self.w_route[i] != Some(o) {
                continue;
            }
            let in_idx = self.in_links[i].expect("granted input exists");
            let Some(beat) = links.w_pop(in_idx) else {
                continue;
            };
            let last = beat.last;
            links.w_push(out_idx, beat);
            self.w_beats[o] += 1;
            moved = true;
            if last {
                self.w_order[o].pop_front();
                self.w_route[i] = None;
                self.awake |= stage::AW;
            }
        }
        moved
    }

    /// The response beat at the head of output `o`'s B (`write`) or R
    /// channel, with the upstream source its remapped ID belongs to.
    fn resp_head<L: LinkView + ?Sized>(&self, links: &L, o: usize, write: bool) -> RespHead {
        let out_idx = self.out_links[o]?;
        let (beat, remap) = if write {
            (links.b_peek(out_idx)?, &self.wr_remap[o])
        } else {
            (links.r_peek(out_idx)?, &self.rd_remap[o])
        };
        Some((beat, remap.source_of(beat.id)))
    }

    /// Every output's [`resp_head`](Self::resp_head), and the bit mask of
    /// the inputs those heads return to.
    fn resp_heads<L: LinkView + ?Sized>(&self, links: &L, write: bool) -> ([RespHead; PORTS], u8) {
        let mut heads = [None; PORTS];
        let mut wanted = 0u8;
        for (o, head) in heads.iter_mut().enumerate() {
            *head = self.resp_head(links, o, write);
            wanted |= returns_to(*head);
        }
        (heads, wanted)
    }

    /// B stage: route write responses back through the remap tables.
    ///
    /// Each output's head is read once. A grant at (input `i`, output `o`)
    /// changes only output `o`'s head and remapper and input `i`'s guard,
    /// and this stage never visits input `i` again, so only output `o` is
    /// re-read.
    fn step_b<L: LinkView + ?Sized>(&mut self, links: &mut L) -> bool {
        let (mut heads, mut wanted) = self.resp_heads(links, true);
        let mut moved = false;
        for i in 0..PORTS {
            if wanted >> i & 1 == 0 {
                continue;
            }
            let Some(in_idx) = self.in_links[i] else {
                continue;
            };
            if !links.b_can_push(in_idx) {
                continue;
            }
            let Some(o) = self.b_arb[i].grant(|o| returns_to(heads[o]) >> i & 1 == 1) else {
                continue;
            };
            let out_idx = self.out_links[o].expect("eligible output exists");
            let mut beat = links.b_pop(out_idx).expect("eligible beat exists");
            let key = heads[o]
                .and_then(|(_, key)| key)
                .expect("response id is mapped");
            self.wr_remap[o].release(beat.id);
            self.aw_guard[i].complete(key.id);
            self.awake |= stage::AW;
            beat.id = key.id;
            links.b_push(in_idx, beat);
            moved = true;
            heads[o] = self.resp_head(links, o, true);
            wanted |= returns_to(heads[o]);
        }
        moved
    }

    /// R stage: route read data back, keeping bursts atomic per upstream.
    /// Reads each output's head once, like [`step_b`](Self::step_b).
    fn step_r<L: LinkView + ?Sized>(&mut self, links: &mut L) -> bool {
        let (mut heads, mut wanted) = self.resp_heads(links, false);
        let mut moved = false;
        for i in 0..PORTS {
            if self.r_lock[i].is_none() && wanted >> i & 1 == 0 {
                continue;
            }
            let Some(in_idx) = self.in_links[i] else {
                continue;
            };
            if !links.r_can_push(in_idx) {
                continue;
            }
            let source = match self.r_lock[i] {
                Some(o) => Some(o),
                None => self.r_arb[i].grant(|o| returns_to(heads[o]) >> i & 1 == 1),
            };
            let Some(o) = source else { continue };
            let out_idx = self.out_links[o].expect("locked output exists");
            let Some((_, key)) = heads[o] else {
                continue;
            };
            let key = key.expect("response id is mapped");
            if key.port as usize != i {
                // Interleaved burst from upstream would be a protocol bug;
                // when locked we simply wait for our burst's next beat.
                debug_assert!(
                    self.r_lock[i].is_none(),
                    "xp {}: foreign beat inside locked R burst",
                    self.node
                );
                continue;
            }
            let mut beat = links.r_pop(out_idx).expect("peeked beat exists");
            if beat.last {
                self.rd_remap[o].release(beat.id);
                self.ar_guard[i].complete(key.id);
                self.r_lock[i] = None;
                self.awake |= stage::AR;
            } else {
                self.r_lock[i] = Some(o);
            }
            beat.id = key.id;
            links.r_push(in_idx, beat);
            self.r_beats[i] += 1;
            moved = true;
            heads[o] = self.resp_head(links, o, false);
            wanted |= returns_to(heads[o]);
        }
        moved
    }

    /// Serializes the XP's dynamic state (arbitration cursors, W-grant
    /// bookkeeping, remap tables, ordering guards, R lock, beat counters).
    /// Static wiring (routing table, connectivity, link indices) is derived
    /// from configuration and not serialized.
    pub(crate) fn encode_state(&self, e: &mut simkit::snap::Encoder) {
        use crate::snapcodec::{encode_guard, encode_remapper};
        for arbs in [&self.aw_arb, &self.ar_arb, &self.b_arb, &self.r_arb] {
            for arb in arbs {
                e.usize(arb.cursor());
            }
        }
        for pf in &self.w_order {
            pf.encode(e);
        }
        for r in &self.w_route {
            e.option(r.as_ref(), |e, o| e.usize(*o));
        }
        for rm in self.wr_remap.iter().chain(&self.rd_remap) {
            encode_remapper(e, rm);
        }
        for g in self.aw_guard.iter().chain(&self.ar_guard) {
            encode_guard(e, g);
        }
        for l in &self.r_lock {
            e.option(l.as_ref(), |e, o| e.usize(*o));
        }
        for beats in [&self.w_beats, &self.r_beats] {
            for &b in beats {
                e.u64(b);
            }
        }
    }

    /// Restores the dynamic state written by
    /// [`encode_state`](Self::encode_state) into this (freshly built) XP,
    /// validating every index against the XP's actual wiring so a crafted
    /// snapshot cannot make a later [`step`](Self::step) panic.
    pub(crate) fn restore_state(
        &mut self,
        d: &mut simkit::snap::Decoder<'_>,
    ) -> Result<(), simkit::snap::SnapError> {
        use crate::snapcodec::{corrupt, decode_guard, decode_remapper};
        for arbs in [
            &mut self.aw_arb,
            &mut self.ar_arb,
            &mut self.b_arb,
            &mut self.r_arb,
        ] {
            for arb in arbs {
                arb.set_cursor(d.usize()?).map_err(corrupt)?;
            }
        }
        for o in 0..PORTS {
            let pf = PortFifo::decode(d)?;
            // Every granted input must actually be wired, or the W stage
            // would panic resolving its in-link.
            for k in 0..usize::from(pf.len) {
                if self.in_links[usize::from(pf.slots[k])].is_none() {
                    return Err(corrupt("w_order references an unwired input"));
                }
            }
            self.w_order[o] = pf;
        }
        for i in 0..PORTS {
            self.w_route[i] = d.option(|d| {
                let o = d.usize()?;
                if o >= PORTS || self.out_links[o].is_none() {
                    return Err(corrupt("w_route references an unwired output"));
                }
                Ok(o)
            })?;
        }
        let capacity = self.wr_remap[0].capacity();
        for table in [&mut self.wr_remap, &mut self.rd_remap] {
            for rm in table.iter_mut() {
                *rm = decode_remapper(d, capacity)?;
            }
        }
        for guards in [&mut self.aw_guard, &mut self.ar_guard] {
            for g in guards.iter_mut() {
                *g = decode_guard(d)?;
            }
        }
        for i in 0..PORTS {
            self.r_lock[i] = d.option(|d| {
                let o = d.usize()?;
                if o >= PORTS || self.out_links[o].is_none() {
                    return Err(corrupt("r_lock references an unwired output"));
                }
                Ok(o)
            })?;
        }
        for beats in [&mut self.w_beats, &mut self.r_beats] {
            for b in beats.iter_mut() {
                *b = d.u64()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{AxiLink, DataBeat};
    use axi::AxiId;
    use proptest::prelude::*;
    use simkit::Rng;
    use std::collections::VecDeque;

    /// Builds a standalone XP for node 5 of a 4×4 mesh wired with fresh
    /// links on every port, returning (xp, links).
    fn lone_xp() -> (Xp, Vec<AxiLink>) {
        let topo = Topology::mesh4x4();
        let mut links = Vec::new();
        let mut in_links = [None; PORTS];
        let mut out_links = [None; PORTS];
        for p in 0..PORTS {
            links.push(AxiLink::new(1));
            in_links[p] = Some(links.len() - 1);
            links.push(AxiLink::new(1));
            out_links[p] = Some(links.len() - 1);
        }
        let xp = Xp::new(
            topo,
            RoutingAlgorithm::YxDimensionOrder,
            xp_connectivity(
                topo,
                RoutingAlgorithm::YxDimensionOrder,
                5,
                Connectivity::Partial,
            ),
            5,
            4,
            in_links,
            out_links,
        );
        (xp, links)
    }

    fn req(id: u16, dst: usize, beats: u16) -> ReqBeat {
        ReqBeat {
            id: AxiId(id),
            dst,
            src: 0,
            beats,
            bytes: u32::from(beats) * 4,
            txn: 77,
            issued_at: 0,
        }
    }

    fn cycle(xp: &mut Xp, links: &mut [AxiLink]) {
        for l in links.iter_mut() {
            l.begin_cycle();
        }
        xp.step_all(links);
    }

    #[test]
    fn aw_routed_by_table() {
        let (mut xp, mut links) = lone_xp();
        // Node 5 = (1,1); dest 13 = (1,3) is straight South under YX.
        let local_in = 8; // in_links[LOCAL] == links[8]
        links[local_in].begin_cycle();
        links[local_in].aw.push(req(0, 13, 1));
        for _ in 0..3 {
            cycle(&mut xp, &mut links);
        }
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        assert!(links[south_out].aw.can_pop());
        // Remapped ID may differ but metadata is preserved.
        let beat = links[south_out].aw.pop().unwrap();
        assert_eq!(beat.dst, 13);
        assert_eq!(beat.txn, 77);
    }

    #[test]
    fn w_follows_aw_grant_order() {
        let (mut xp, mut links) = lone_xp();
        let local_in = xp.in_links[LOCAL].unwrap();
        let north_in = xp.in_links[Dir::North.port()].unwrap();
        // Two writes to the same South output from different inputs.
        links[local_in].begin_cycle();
        links[north_in].begin_cycle();
        links[local_in].aw.push(req(0, 13, 2));
        links[north_in].aw.push(req(0, 13, 2));
        // Feed W data on both inputs.
        for l in [local_in, north_in] {
            links[l].w.push(DataBeat {
                bytes: 4,
                last: false,
                txn: l as u64,
            });
        }
        // Run some cycles, completing the data streams and draining the
        // South output as a downstream consumer would.
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        let mut txns = Vec::new();
        for c in 0..16 {
            cycle(&mut xp, &mut links);
            if c == 2 {
                for l in [local_in, north_in] {
                    links[l].w.push(DataBeat {
                        bytes: 4,
                        last: true,
                        txn: l as u64,
                    });
                }
            }
            if let Some(b) = links[south_out].w.pop() {
                txns.push(b.txn);
            }
        }
        assert_eq!(txns.len(), 4);
        assert_eq!(txns[0], txns[1], "burst 1 contiguous");
        assert_eq!(txns[2], txns[3], "burst 2 contiguous");
        assert_ne!(txns[0], txns[2]);
    }

    #[test]
    fn b_response_restores_id_and_port() {
        let (mut xp, mut links) = lone_xp();
        let local_in = xp.in_links[LOCAL].unwrap();
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        links[local_in].begin_cycle();
        links[local_in].aw.push(req(9, 13, 1));
        links[local_in].w.push(DataBeat {
            bytes: 4,
            last: true,
            txn: 1,
        });
        for _ in 0..4 {
            cycle(&mut xp, &mut links);
        }
        // Grab the forwarded (remapped) AW and answer it with a B.
        let fw = links[south_out].aw.pop().unwrap();
        links[south_out].w.pop().unwrap();
        links[south_out].b.push(RespBeat {
            id: fw.id,
            bytes: 0,
            last: true,
            txn: 1,
        });
        for _ in 0..3 {
            cycle(&mut xp, &mut links);
        }
        let back = links[local_in].b.pop().expect("B returned upstream");
        assert_eq!(back.id, AxiId(9), "original ID restored");
        assert_eq!(xp.inflight(), 0, "remap slot released");
    }

    #[test]
    fn r_bursts_not_interleaved_upstream() {
        let (mut xp, mut links) = lone_xp();
        let local_in = xp.in_links[LOCAL].unwrap();
        // Two reads to different outputs (dest 13 = South, dest 6 = East).
        links[local_in].begin_cycle();
        links[local_in].ar.push(req(1, 13, 2));
        links[local_in].ar.push(req(2, 6, 2));
        for _ in 0..6 {
            cycle(&mut xp, &mut links);
        }
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        let east_out = xp.out_links[Dir::East.port()].unwrap();
        let fw_s = links[south_out].ar.pop().expect("south AR");
        let fw_e = links[east_out].ar.pop().expect("east AR");
        // Interleave response beats at the two outputs.
        links[south_out].r.push(RespBeat {
            id: fw_s.id,
            bytes: 4,
            last: false,
            txn: 10,
        });
        links[east_out].r.push(RespBeat {
            id: fw_e.id,
            bytes: 4,
            last: false,
            txn: 20,
        });
        cycle(&mut xp, &mut links);
        cycle(&mut xp, &mut links);
        links[south_out].r.push(RespBeat {
            id: fw_s.id,
            bytes: 4,
            last: true,
            txn: 10,
        });
        links[east_out].r.push(RespBeat {
            id: fw_e.id,
            bytes: 4,
            last: true,
            txn: 20,
        });
        let mut txns = Vec::new();
        for _ in 0..10 {
            cycle(&mut xp, &mut links);
            if let Some(b) = links[local_in].r.pop() {
                txns.push(b.txn);
            }
        }
        assert_eq!(txns.len(), 4);
        // Whichever burst started first must finish before the other starts.
        assert_eq!(txns[0], txns[1]);
        assert_eq!(txns[2], txns[3]);
    }

    #[test]
    fn same_id_different_destination_stalls() {
        let (mut xp, mut links) = lone_xp();
        let local_in = xp.in_links[LOCAL].unwrap();
        links[local_in].begin_cycle();
        // Same AXI ID towards two different outputs: second must wait.
        links[local_in].ar.push(req(3, 13, 1)); // South
        links[local_in].ar.push(req(3, 6, 1)); // East
        for _ in 0..5 {
            cycle(&mut xp, &mut links);
        }
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        let east_out = xp.out_links[Dir::East.port()].unwrap();
        assert!(links[south_out].ar.can_pop(), "first AR forwarded");
        assert!(
            !links[east_out].ar.can_pop(),
            "same-ID AR to a different destination must stall"
        );
        // Answer the first read; the second must then proceed.
        let fw = links[south_out].ar.pop().unwrap();
        links[south_out].r.push(RespBeat {
            id: fw.id,
            bytes: 4,
            last: true,
            txn: 0,
        });
        for _ in 0..6 {
            cycle(&mut xp, &mut links);
        }
        assert!(links[east_out].ar.can_pop(), "unblocked after completion");
    }

    #[test]
    fn forbidden_turn_never_taken() {
        let (mut xp, mut links) = lone_xp();
        // East input turning South is an illegal X→Y turn under YX routing;
        // a beat entering East destined to 13 (straight South from node 5)
        // would require it. Partial connectivity must stall it forever
        // (such a beat cannot exist in a correctly routed mesh).
        let east_in = xp.in_links[Dir::East.port()].unwrap();
        links[east_in].begin_cycle();
        links[east_in].ar.push(req(0, 13, 1));
        for _ in 0..10 {
            cycle(&mut xp, &mut links);
        }
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        assert!(!links[south_out].ar.can_pop());
    }

    #[test]
    fn id_exhaustion_backpressures() {
        let topo = Topology::mesh4x4();
        let mut links = Vec::new();
        let mut in_links = [None; PORTS];
        let mut out_links = [None; PORTS];
        for p in 0..PORTS {
            links.push(AxiLink::new(1));
            in_links[p] = Some(links.len() - 1);
            links.push(AxiLink::new(1));
            out_links[p] = Some(links.len() - 1);
        }
        // IW = 1 → only 2 remap slots per output.
        let mut xp = Xp::new(
            topo,
            RoutingAlgorithm::YxDimensionOrder,
            xp_connectivity(
                topo,
                RoutingAlgorithm::YxDimensionOrder,
                5,
                Connectivity::Partial,
            ),
            5,
            1,
            in_links,
            out_links,
        );
        let local_in = xp.in_links[LOCAL].unwrap();
        links[local_in].begin_cycle();
        for id in 0..2 {
            links[local_in].ar.push(req(id, 13, 1));
        }
        for _ in 0..8 {
            cycle(&mut xp, &mut links);
            // Keep offering more reads with fresh IDs.
            if links[local_in].ar.can_push() {
                links[local_in].ar.push(req(7, 13, 1));
            }
        }
        // Only two transactions can be in flight through the South port.
        assert_eq!(xp.inflight(), 2);
    }

    #[test]
    fn a_grant_exposes_the_next_request_to_a_later_output() {
        let (mut xp, mut links) = lone_xp();
        let local_in = xp.in_links[LOCAL].unwrap();
        links[local_in].begin_cycle();
        // Two reads with different IDs: East (dest 6) ahead of South
        // (dest 13). East is arbitrated first, so the South-bound read
        // reaches the head only through the refresh after East's grant.
        links[local_in].ar.push(req(1, 6, 1));
        links[local_in].ar.push(req(2, 13, 1));
        cycle(&mut xp, &mut links);
        let east_out = xp.out_links[Dir::East.port()].unwrap();
        let south_out = xp.out_links[Dir::South.port()].unwrap();
        assert!(
            links[local_in].ar.is_empty(),
            "both reads left in one cycle"
        );
        assert_eq!(links[east_out].ar.occupancy(), 1);
        assert_eq!(links[south_out].ar.occupancy(), 1);
    }

    // -----------------------------------------------------------------
    // Differential check of the head-cached stages against the nested
    // loops they replaced, which peek every port once per (input,
    // output) pair.
    // -----------------------------------------------------------------

    /// The nested-loop AW/AR stage: the oracle for `Xp::step_requests`.
    fn reference_step_requests(xp: &mut Xp, links: &mut [AxiLink], write: bool) -> bool {
        let mut moved = false;
        for o in 0..PORTS {
            let Some(out_idx) = xp.out_links[o] else {
                continue;
            };
            let out_ready = if write {
                links.aw_can_push(out_idx)
            } else {
                links.ar_can_push(out_idx)
            };
            if !out_ready {
                continue;
            }
            let mut elig = [false; PORTS];
            for (i, slot) in elig.iter_mut().enumerate() {
                let Some(in_idx) = xp.in_links[i] else {
                    continue;
                };
                let beat = if write {
                    links.aw_peek(in_idx)
                } else {
                    links.ar_peek(in_idx)
                };
                let Some(beat) = beat else { continue };
                if xp.route[beat.dst] as usize != o || !xp.allowed[i][o] {
                    continue;
                }
                let guard = if write {
                    &xp.aw_guard[i]
                } else {
                    &xp.ar_guard[i]
                };
                if !guard.may_issue(beat.id, o) {
                    continue;
                }
                if write && xp.w_route[i].is_some() {
                    continue;
                }
                let remap = if write {
                    &xp.wr_remap[o]
                } else {
                    &xp.rd_remap[o]
                };
                if !remap.can_acquire(SourceKey {
                    port: i as u8,
                    id: beat.id,
                }) {
                    continue;
                }
                *slot = true;
            }
            let arb = if write {
                &mut xp.aw_arb[o]
            } else {
                &mut xp.ar_arb[o]
            };
            let Some(i) = arb.grant(|i| elig[i]) else {
                continue;
            };
            let in_idx = xp.in_links[i].expect("eligible input exists");
            let mut beat = if write {
                links.aw_pop(in_idx)
            } else {
                links.ar_pop(in_idx)
            }
            .expect("eligible beat exists");
            let key = SourceKey {
                port: i as u8,
                id: beat.id,
            };
            if write {
                let rid = xp.wr_remap[o].acquire(key).expect("eligibility checked");
                xp.aw_guard[i].issue(beat.id, o);
                xp.w_order[o].push_back(i);
                xp.w_route[i] = Some(o);
                beat.id = rid;
                links.aw_push(out_idx, beat);
            } else {
                let rid = xp.rd_remap[o].acquire(key).expect("eligibility checked");
                xp.ar_guard[i].issue(beat.id, o);
                beat.id = rid;
                links.ar_push(out_idx, beat);
            }
            moved = true;
        }
        moved
    }

    /// The nested-loop B stage: the oracle for `Xp::step_b`.
    fn reference_step_b(xp: &mut Xp, links: &mut [AxiLink]) -> bool {
        let mut moved = false;
        for i in 0..PORTS {
            let Some(in_idx) = xp.in_links[i] else {
                continue;
            };
            if !links.b_can_push(in_idx) {
                continue;
            }
            let mut elig = [false; PORTS];
            for (o, slot) in elig.iter_mut().enumerate() {
                let Some(out_idx) = xp.out_links[o] else {
                    continue;
                };
                let Some(beat) = links.b_peek(out_idx) else {
                    continue;
                };
                if let Some(key) = xp.wr_remap[o].source_of(beat.id) {
                    *slot = key.port as usize == i;
                }
            }
            let Some(o) = xp.b_arb[i].grant(|o| elig[o]) else {
                continue;
            };
            let out_idx = xp.out_links[o].expect("eligible output exists");
            let mut beat = links.b_pop(out_idx).expect("eligible beat exists");
            let key = xp.wr_remap[o]
                .source_of(beat.id)
                .expect("response id is mapped");
            xp.wr_remap[o].release(beat.id);
            xp.aw_guard[i].complete(key.id);
            beat.id = key.id;
            links.b_push(in_idx, beat);
            moved = true;
        }
        moved
    }

    /// The nested-loop R stage: the oracle for `Xp::step_r`.
    fn reference_step_r(xp: &mut Xp, links: &mut [AxiLink]) -> bool {
        let mut moved = false;
        for i in 0..PORTS {
            let Some(in_idx) = xp.in_links[i] else {
                continue;
            };
            if !links.r_can_push(in_idx) {
                continue;
            }
            let source = match xp.r_lock[i] {
                Some(o) => Some(o),
                None => {
                    let mut elig = [false; PORTS];
                    for (o, slot) in elig.iter_mut().enumerate() {
                        let Some(out_idx) = xp.out_links[o] else {
                            continue;
                        };
                        let Some(beat) = links.r_peek(out_idx) else {
                            continue;
                        };
                        if let Some(key) = xp.rd_remap[o].source_of(beat.id) {
                            *slot = key.port as usize == i;
                        }
                    }
                    xp.r_arb[i].grant(|o| elig[o])
                }
            };
            let Some(o) = source else { continue };
            let out_idx = xp.out_links[o].expect("locked output exists");
            let Some(peeked) = links.r_peek(out_idx) else {
                continue;
            };
            let key = xp.rd_remap[o]
                .source_of(peeked.id)
                .expect("response id is mapped");
            if key.port as usize != i {
                continue;
            }
            let mut beat = links.r_pop(out_idx).expect("peeked beat exists");
            if beat.last {
                xp.rd_remap[o].release(beat.id);
                xp.ar_guard[i].complete(key.id);
                xp.r_lock[i] = None;
            } else {
                xp.r_lock[i] = Some(o);
            }
            beat.id = key.id;
            links.r_push(in_idx, beat);
            xp.r_beats[i] += 1;
            moved = true;
        }
        moved
    }

    /// `Xp::step_all` with the oracle stages (the W stage never scanned).
    fn reference_step(xp: &mut Xp, links: &mut [AxiLink]) -> bool {
        let mut moved = reference_step_requests(xp, links, true);
        moved |= reference_step_requests(xp, links, false);
        moved |= xp.step_w(links);
        moved |= reference_step_b(xp, links);
        moved |= reference_step_r(xp, links);
        moved
    }

    /// How [`Harness::cycle`] steps the XP.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Stepping {
        /// Every stage, through the nested-loop oracles.
        Oracle,
        /// Every stage, through `Xp::step_all`.
        AllStages,
        /// Only awake stages (`Xp::step`), woken by the links' edges as
        /// the engine dispatches them.
        Masked,
    }

    /// A lone XP (node 5 of a 4×4 mesh, full connectivity) with random
    /// masters on every input link and random slaves on every output link.
    #[derive(Clone)]
    struct Harness {
        xp: Xp,
        links: Vec<AxiLink>,
        /// Per input: write data still to offer, in burst order.
        w_todo: [VecDeque<DataBeat>; PORTS],
        /// Per output: IDs of accepted AWs whose data has not all arrived.
        aw_open: [VecDeque<AxiId>; PORTS],
        /// Per output: B beats still to return.
        b_todo: [VecDeque<RespBeat>; PORTS],
        /// Per output: R beats still to return, whole bursts in order.
        r_todo: [VecDeque<RespBeat>; PORTS],
    }

    impl Harness {
        fn new(id_width: u32, link_stages: usize) -> Self {
            let topo = Topology::mesh4x4();
            let algo = RoutingAlgorithm::YxDimensionOrder;
            let mut links = Vec::new();
            let mut in_links = [None; PORTS];
            let mut out_links = [None; PORTS];
            for p in 0..PORTS {
                links.push(AxiLink::new(link_stages));
                in_links[p] = Some(links.len() - 1);
                links.push(AxiLink::new(link_stages));
                out_links[p] = Some(links.len() - 1);
            }
            let allowed = xp_connectivity(topo, algo, 5, Connectivity::Full);
            Self {
                xp: Xp::new(topo, algo, allowed, 5, id_width, in_links, out_links),
                links,
                w_todo: Default::default(),
                aw_open: Default::default(),
                b_todo: Default::default(),
                r_todo: Default::default(),
            }
        }

        /// A random request from input `p` to a destination it may route
        /// to (no u-turn), with a random ID and burst length.
        fn random_req(&self, rng: &mut Rng, p: usize) -> ReqBeat {
            let legal: Vec<usize> = (0..16)
                .filter(|&d| self.xp.allows(p, usize::from(self.xp.route[d])))
                .collect();
            let dst = legal[rng.gen_range(legal.len() as u64) as usize];
            let beats = 1 + rng.gen_range(3) as u16;
            ReqBeat {
                txn: rng.next_u64(),
                ..req(rng.gen_range(4) as u16, dst, beats)
            }
        }

        /// One cycle: begin every link, let the masters act, step the XP
        /// as `stepping` says, then let the slaves act. Returns the XP's
        /// `moved` flag.
        fn cycle(&mut self, rng: &mut Rng, stepping: Stepping) -> bool {
            for (l, link) in self.links.iter_mut().enumerate() {
                let e = link.begin_cycle();
                if stepping == Stepping::Masked {
                    // The XP is the slave side of its input links and the
                    // master side of its outputs; the random masters and
                    // slaves at the other ends sleep no stages.
                    self.xp.wake(if self.xp.in_links.contains(&Some(l)) {
                        e.slave_wakes()
                    } else {
                        e.master_wakes()
                    });
                }
            }
            for p in 0..PORTS {
                let l = self.xp.in_links[p].unwrap();
                if rng.gen_bool(0.3) && self.links[l].aw.can_push() && self.w_todo[p].len() < 6 {
                    let aw = self.random_req(rng, p);
                    for k in 0..aw.beats {
                        self.w_todo[p].push_back(DataBeat {
                            bytes: 4,
                            last: k + 1 == aw.beats,
                            txn: aw.txn,
                        });
                    }
                    self.links[l].aw.push(aw);
                }
                if rng.gen_bool(0.3) && self.links[l].ar.can_push() {
                    let ar = self.random_req(rng, p);
                    self.links[l].ar.push(ar);
                }
                if rng.gen_bool(0.7) && self.links[l].w.can_push() {
                    if let Some(w) = self.w_todo[p].pop_front() {
                        self.links[l].w.push(w);
                    }
                }
                if rng.gen_bool(0.6) {
                    self.links[l].b.pop();
                }
                if rng.gen_bool(0.6) {
                    self.links[l].r.pop();
                }
            }
            let moved = match stepping {
                Stepping::Oracle => reference_step(&mut self.xp, &mut self.links),
                Stepping::AllStages => self.xp.step_all(self.links.as_mut_slice()),
                Stepping::Masked => self.xp.step(self.links.as_mut_slice()),
            };
            for o in 0..PORTS {
                let l = self.xp.out_links[o].unwrap();
                if rng.gen_bool(0.6) {
                    if let Some(aw) = self.links[l].aw.pop() {
                        self.aw_open[o].push_back(aw.id);
                    }
                }
                // A slave takes write data only for an accepted AW.
                if rng.gen_bool(0.7) && !self.aw_open[o].is_empty() {
                    if let Some(w) = self.links[l].w.pop() {
                        if w.last {
                            let id = self.aw_open[o].pop_front().unwrap();
                            self.b_todo[o].push_back(RespBeat {
                                id,
                                bytes: 0,
                                last: true,
                                txn: w.txn,
                            });
                        }
                    }
                }
                if rng.gen_bool(0.6) {
                    if let Some(ar) = self.links[l].ar.pop() {
                        for k in 0..ar.beats {
                            self.r_todo[o].push_back(RespBeat {
                                id: ar.id,
                                bytes: 4,
                                last: k + 1 == ar.beats,
                                txn: ar.txn,
                            });
                        }
                    }
                }
                if rng.gen_bool(0.6) && self.links[l].b.can_push() {
                    if let Some(b) = self.b_todo[o].pop_front() {
                        self.links[l].b.push(b);
                    }
                }
                if rng.gen_bool(0.7) && self.links[l].r.can_push() {
                    if let Some(r) = self.r_todo[o].pop_front() {
                        self.links[l].r.push(r);
                    }
                }
            }
            moved
        }

        /// The XP's `encode_state` bytes followed by every link's.
        fn state(&self) -> Vec<u8> {
            let mut e = simkit::snap::Encoder::new(0, 0);
            self.xp.encode_state(&mut e);
            for l in &self.links {
                l.encode(&mut e);
            }
            e.finish()
        }
    }

    /// Runs two copies of one random harness for 400 cycles, stepped as
    /// `fast` and `slow` say, and requires the same `moved` flag, XP
    /// state and link contents after every cycle.
    fn run_against(
        seed: u64,
        id_width: u32,
        link_stages: usize,
        fast: Stepping,
        slow: Stepping,
    ) -> Result<(), TestCaseError> {
        let mut a = Harness::new(id_width, link_stages);
        let mut b = a.clone();
        let (mut rng_a, mut rng_b) = (Rng::new(seed), Rng::new(seed));
        let mut moves = 0;
        for c in 0..400 {
            let moved = a.cycle(&mut rng_a, fast);
            prop_assert_eq!(moved, b.cycle(&mut rng_b, slow), "cycle {}", c);
            prop_assert!(a.state() == b.state(), "state diverged at cycle {}", c);
            moves += u32::from(moved);
        }
        prop_assert!(moves > 100, "harness too quiet: {} moving cycles", moves);
        Ok(())
    }

    proptest! {
        #[test]
        fn head_cached_stages_match_the_nested_loop_oracle(
            seed in any::<u64>(),
            id_width in 1u32..=3,
        ) {
            run_against(seed, id_width, 1, Stepping::AllStages, Stepping::Oracle)?;
        }

        #[test]
        fn sleeping_stages_match_the_all_stage_reference(
            seed in any::<u64>(),
            id_width in 1u32..=3,
            link_stages in 1usize..=3,
        ) {
            run_against(seed, id_width, link_stages, Stepping::Masked, Stepping::AllStages)?;
        }
    }
}
