//! Region-sharded execution: the data structures that let one simulation
//! step its mesh regions on parallel worker threads while staying
//! **bit-identical** to the serial engine.
//!
//! The mesh is partitioned into contiguous row bands by
//! [`simkit::region::RegionMap`]. Every link whose two endpoint components
//! live in the same band is *interior* to that region and is touched by
//! exactly one worker; a link crossing bands is a *boundary* link. Each
//! cycle then runs in three phases:
//!
//! 1. **Serial pre-phase** — `begin_cycle` every boundary link, wake the
//!    crosspoint stages its channel edges concern, and capture a
//!    [`LinkMirror`] of its fresh snapshot for both adjacent regions, then
//!    poll traffic stimulus (sources are stateful; the poll sequence must
//!    not depend on sharding).
//! 2. **Parallel compute** — one worker per region begins the region's
//!    interior links, collecting their edges in [`RegionCtx::wakes`], and
//!    steps its DMAs, memory slaves and crosspoints, handing each XP its
//!    collected wakes first.
//!    Each worker holds plain `&mut` slices of its own components and
//!    links, cut off the engine's arrays with `split_at_mut`: the link
//!    array is three node-ordered segments (XP↔XP links by master-side
//!    node, then DMA links, then memory links), so a region owns one
//!    contiguous range of each ([`RegionLinks`]).
//!    Components reach links through [`ShardLinkView`], which looks each
//!    link up in the region's [`Slot`] table: interior links resolve to
//!    the real [`AxiLink`], boundary links to the region's mirror, which
//!    grants exactly the pushes and pops the real channel's cycle snapshot
//!    would.
//! 3. **Serial commit** — replay every mirror's pops and pushes onto the
//!    real boundary links in ascending link order, and fold the per-region
//!    throughput meters into the run meter.
//!
//! Why this is exact: the two-phase FIFO discipline makes every component
//! read only the cycle snapshot taken at `begin_cycle`, and every AXI
//! channel has a single pusher and a single popper per cycle (the master-
//! and slave-side components). A component's push/pop sequence therefore
//! depends only on the snapshot and its own prior actions — never on when
//! other components run — so any interleaving of the per-region work,
//! replayed through the mirrors, lands in the same end-of-cycle state as
//! the serial sweep. `crates/bench/tests/threading.rs` pins this bit for
//! bit across engines, traffic patterns, loads and thread counts.

use crate::link::{AxiLink, Channel, DataBeat, LinkView, ReqBeat, RespBeat};
use simkit::region::{split_front, RegionMap};
use simkit::ThroughputMeter;
use std::fmt::Debug;
use std::ops::Range;

/// Where one region's worker finds a link during the parallel phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// An interior XP↔XP link: its offset in the region's XP↔XP links
    /// ([`RegionLinks`]).
    Xp(u32),
    /// An interior DMA link: its offset in the region's DMA links.
    Dma(u32),
    /// An interior memory link: its offset in the region's memory links.
    Mem(u32),
    /// A boundary link the region borders: the index of its mirror.
    Mirror(u32),
    /// A link the region neither owns nor borders.
    Foreign,
}

/// One channel's boundary mirror: the consumer-side snapshot plus the
/// producer-side credit of the real [`Channel`], captured at the cycle
/// barrier so a remote region can peek/pop/push without touching it.
#[derive(Debug, Clone)]
pub(crate) struct ChanMirror<T> {
    /// The beats poppable this cycle, in pop order (the snapshot prefix).
    poppable: Vec<T>,
    /// How many of `poppable` the region consumed this cycle.
    popped: usize,
    /// Producer-side pushes still admissible this cycle (`snap_free`).
    free: usize,
    /// Beats the region pushed this cycle, awaiting commit.
    staged: Vec<T>,
}

impl<T> Default for ChanMirror<T> {
    fn default() -> Self {
        Self {
            poppable: Vec::new(),
            popped: 0,
            free: 0,
            staged: Vec::new(),
        }
    }
}

impl<T: Copy + PartialEq + Debug> ChanMirror<T> {
    /// Refreshes the mirror from `ch`'s just-begun cycle snapshot.
    fn capture(&mut self, ch: &Channel<T>) {
        debug_assert!(
            self.popped == 0 && self.staged.is_empty(),
            "mirror recaptured before its cycle was committed"
        );
        self.poppable.clear();
        self.poppable.extend(ch.poppable().copied());
        self.free = ch.snap_free();
    }

    fn can_push(&self) -> bool {
        self.free > 0
    }

    fn push(&mut self, v: T) {
        assert!(self.free > 0, "push on full mirrored channel");
        self.free -= 1;
        self.staged.push(v);
    }

    fn peek(&self) -> Option<T> {
        self.poppable.get(self.popped).copied()
    }

    fn pop(&mut self) -> Option<T> {
        let v = self.poppable.get(self.popped).copied();
        if v.is_some() {
            self.popped += 1;
        }
        v
    }

    /// Replays the pops the region performed through this mirror onto the
    /// real channel, asserting the mirror and channel agreed beat for beat.
    fn commit_pops(&mut self, ch: &mut Channel<T>) {
        for i in 0..self.popped {
            let real = ch.pop().expect("mirror popped a beat the channel lacks");
            debug_assert_eq!(real, self.poppable[i], "mirror/channel divergence");
        }
        self.popped = 0;
    }

    /// Replays the pushes the region staged through this mirror onto the
    /// real channel. The mirror granted at most `snap_free` pushes and the
    /// channel's snapshot has not moved since capture (it has exactly one
    /// pusher per cycle — this region), so every replay must be accepted.
    fn commit_pushes(&mut self, ch: &mut Channel<T>) {
        for v in self.staged.drain(..) {
            debug_assert!(ch.can_push(), "mirror over-granted a push");
            ch.push(v);
        }
    }

    fn untouched(&self) -> bool {
        self.popped == 0 && self.staged.is_empty()
    }
}

/// A full five-channel mirror of one boundary [`AxiLink`], as seen by one
/// of its two adjacent regions.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinkMirror {
    aw: ChanMirror<ReqBeat>,
    w: ChanMirror<DataBeat>,
    ar: ChanMirror<ReqBeat>,
    b: ChanMirror<RespBeat>,
    r: ChanMirror<RespBeat>,
}

impl LinkMirror {
    /// Refreshes all five channel mirrors from `link`'s fresh snapshot.
    pub(crate) fn capture(&mut self, link: &AxiLink) {
        self.aw.capture(&link.aw);
        self.w.capture(&link.w);
        self.ar.capture(&link.ar);
        self.b.capture(&link.b);
        self.r.capture(&link.r);
    }
}

/// Commits one boundary link's cycle from the two adjacent regions'
/// mirrors. AXI roles fix who does what: the master-side region pushes the
/// forward channels (AW/W/AR) and pops the backward ones (B/R); the
/// slave-side region does the reverse. Within a channel, pops are replayed
/// before pushes — the order the real FIFO could always have served them
/// in (pops drain the old snapshot prefix, pushes append behind it).
pub(crate) fn commit_link(link: &mut AxiLink, master: &mut LinkMirror, slave: &mut LinkMirror) {
    debug_assert!(
        master.aw.popped == 0 && master.w.popped == 0 && master.ar.popped == 0,
        "master side popped a forward channel"
    );
    debug_assert!(
        master.b.staged.is_empty() && master.r.staged.is_empty(),
        "master side pushed a backward channel"
    );
    debug_assert!(
        slave.aw.staged.is_empty() && slave.w.staged.is_empty() && slave.ar.staged.is_empty(),
        "slave side pushed a forward channel"
    );
    debug_assert!(
        slave.b.popped == 0 && slave.r.popped == 0,
        "slave side popped a backward channel"
    );
    slave.aw.commit_pops(&mut link.aw);
    master.aw.commit_pushes(&mut link.aw);
    slave.w.commit_pops(&mut link.w);
    master.w.commit_pushes(&mut link.w);
    slave.ar.commit_pops(&mut link.ar);
    master.ar.commit_pushes(&mut link.ar);
    master.b.commit_pops(&mut link.b);
    slave.b.commit_pushes(&mut link.b);
    master.r.commit_pops(&mut link.r);
    slave.r.commit_pushes(&mut link.r);
    debug_assert!(
        master.aw.untouched()
            && master.w.untouched()
            && master.ar.untouched()
            && master.b.untouched()
            && master.r.untouched()
            && slave.aw.untouched()
            && slave.w.untouched()
            && slave.ar.untouched()
            && slave.b.untouched()
            && slave.r.untouched(),
        "commit left mirror state behind"
    );
}

/// Everything one region's worker needs for its slice of the cycle.
#[derive(Debug, Clone)]
pub(crate) struct RegionCtx {
    /// Interior links owned by this region (ascending): the links its
    /// worker begins.
    pub(crate) interior: Vec<usize>,
    /// The region's range of each link segment (XP↔XP, DMA, memory), in
    /// global link indices. The XP↔XP range also holds the boundary links
    /// whose master side is in this region; the worker reaches those only
    /// through its mirrors.
    pub(crate) links: [Range<usize>; 3],
    /// DMA engines hosted on this region's nodes.
    pub(crate) dmas: Range<usize>,
    /// Memory slaves hosted on this region's nodes.
    pub(crate) mems: Range<usize>,
    /// The region's node range (crosspoint index == node index).
    pub(crate) xps: Range<usize>,
    /// Per global link: where this region's worker finds it.
    pub(crate) slots: Vec<Slot>,
    /// This region's mirrors of its adjacent boundary links.
    pub(crate) mirrors: Vec<LinkMirror>,
    /// Shard throughput meter, absorbed into the run meter at commit (the
    /// counters are integers, so the fold is exact and order-free).
    pub(crate) meter: ThroughputMeter,
    /// Per crosspoint of `xps` (offset from `xps.start`): the stages the
    /// edges of this cycle's interior links wake, handed to the XP when
    /// the worker steps it (boundary links wake theirs in the serial
    /// pre-phase).
    pub(crate) wakes: Vec<u8>,
}

impl RegionCtx {
    /// The index of this region's mirror of boundary link `link`.
    ///
    /// # Panics
    ///
    /// Panics if the region does not border `link`.
    pub(crate) fn mirror_index(&self, link: usize) -> usize {
        match self.slots[link] {
            Slot::Mirror(m) => m as usize,
            other => panic!("link {link} is not a bordered boundary link ({other:?})"),
        }
    }
}

/// The full region partition of one simulation instance.
#[derive(Debug, Clone)]
pub(crate) struct Sharding {
    /// Boundary links as `(link, master_region, slave_region)`, ascending
    /// by link index — the deterministic commit order.
    pub(crate) boundary: Vec<(usize, u32, u32)>,
    /// The link array's three segments: XP↔XP links, DMA links, memory
    /// links.
    pub(crate) segments: [Range<usize>; 3],
    /// One context per region, in region order.
    pub(crate) ctxs: Vec<RegionCtx>,
}

/// Splits `0..homes.len()` into one contiguous range per region, given
/// each item's region in item order. The ranges tile the items in region
/// order, so cutting them off an array's front, region by region, hands
/// each item to exactly one region.
///
/// # Panics
///
/// Panics if the items are not in ascending region order: a region's
/// items would then not be contiguous.
fn ranges_by_region(homes: impl Iterator<Item = usize>, regions: usize) -> Vec<Range<usize>> {
    let mut counts = vec![0; regions];
    let mut last = 0;
    for home in homes {
        assert!(home >= last, "items are not in ascending region order");
        last = home;
        counts[home] += 1;
    }
    let mut end = 0;
    counts
        .into_iter()
        .map(|count| {
            end += count;
            end - count..end
        })
        .collect()
}

impl Sharding {
    /// Partitions an instance: `link_nodes` gives each link's
    /// `(master-side node, slave-side node)`, `dma_nodes`/`mem_nodes` the
    /// host node of each endpoint component. The links must come as the
    /// engine builds them: XP↔XP links in master-side node order, then one
    /// link per DMA in `dma_nodes` order, then one per memory slave in
    /// `mem_nodes` order, and both endpoint lists ascending by node.
    ///
    /// # Panics
    ///
    /// Panics if the links or endpoints are not laid out that way, since a
    /// region's components would then not be contiguous.
    pub(crate) fn new(
        map: &RegionMap,
        link_nodes: &[(usize, usize)],
        dma_nodes: &[usize],
        mem_nodes: &[usize],
    ) -> Self {
        let regions = map.regions();
        assert!(
            regions > 1,
            "sharding a single region is just the serial engine"
        );
        let mem_start = link_nodes.len() - mem_nodes.len();
        let dma_start = mem_start - dma_nodes.len();
        let segments = [
            0..dma_start,
            dma_start..mem_start,
            mem_start..link_nodes.len(),
        ];
        for (seg, nodes) in [(&segments[1], dma_nodes), (&segments[2], mem_nodes)] {
            assert!(
                link_nodes[seg.clone()]
                    .iter()
                    .zip(nodes)
                    .all(|(&(m, s), &n)| m == n && s == n),
                "endpoint links out of endpoint order"
            );
        }
        let region_of = |n: usize| map.region_of(n);
        let xp_links = ranges_by_region(
            link_nodes[..dma_start].iter().map(|&(m, _)| region_of(m)),
            regions,
        );
        let dmas = ranges_by_region(dma_nodes.iter().map(|&n| region_of(n)), regions);
        let mems = ranges_by_region(mem_nodes.iter().map(|&n| region_of(n)), regions);
        let mut ctxs: Vec<RegionCtx> = (0..regions)
            .map(|r| RegionCtx {
                interior: Vec::new(),
                links: [
                    xp_links[r].clone(),
                    dma_start + dmas[r].start..dma_start + dmas[r].end,
                    mem_start + mems[r].start..mem_start + mems[r].end,
                ],
                dmas: dmas[r].clone(),
                mems: mems[r].clone(),
                xps: map.nodes(r),
                slots: vec![Slot::Foreign; link_nodes.len()],
                mirrors: Vec::new(),
                meter: ThroughputMeter::new(0),
                wakes: vec![0; map.nodes(r).len()],
            })
            .collect();
        let offset = |i: usize| u32::try_from(i).expect("link count fits u32");
        let mut boundary = Vec::new();
        for (l, &(mn, sn)) in link_nodes.iter().enumerate() {
            let rm = map.region_of(mn) as u32;
            let rs = map.region_of(sn) as u32;
            if rm == rs {
                let c = &mut ctxs[rm as usize];
                c.interior.push(l);
                c.slots[l] = if l < dma_start {
                    Slot::Xp(offset(l - c.links[0].start))
                } else if l < mem_start {
                    Slot::Dma(offset(l - c.links[1].start))
                } else {
                    Slot::Mem(offset(l - c.links[2].start))
                };
            } else {
                boundary.push((l, rm, rs));
                for r in [rm, rs] {
                    let c = &mut ctxs[r as usize];
                    c.slots[l] = Slot::Mirror(offset(c.mirrors.len()));
                    c.mirrors.push(LinkMirror::default());
                }
            }
        }
        Self {
            boundary,
            segments,
            ctxs,
        }
    }

    /// The link array cut into its three segments, ready for
    /// [`RegionLinks::split_front`].
    pub(crate) fn segments<'a>(&self, links: &'a mut [AxiLink]) -> [&'a mut [AxiLink]; 3] {
        let (xp, rest) = links.split_at_mut(self.segments[1].start);
        let (dma, mem) = rest.split_at_mut(self.segments[1].len());
        [xp, dma, mem]
    }
}

/// One region's own links: its contiguous range of each link segment.
pub(crate) struct RegionLinks<'a> {
    xp: &'a mut [AxiLink],
    dma: &'a mut [AxiLink],
    mem: &'a mut [AxiLink],
}

impl<'a> RegionLinks<'a> {
    /// Cuts the region's `ranges` off the fronts of `rest`, the parts of
    /// the three segments no earlier region took. Called once per region,
    /// in region order.
    pub(crate) fn split_front(
        rest: &mut [&'a mut [AxiLink]; 3],
        ranges: &[Range<usize>; 3],
    ) -> Self {
        let [xp, dma, mem] = rest;
        Self {
            xp: split_front(xp, ranges[0].len()),
            dma: split_front(dma, ranges[1].len()),
            mem: split_front(mem, ranges[2].len()),
        }
    }

    /// The region's own link at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not one of the region's own links.
    #[inline]
    pub(crate) fn get(&self, slot: Slot) -> &AxiLink {
        match slot {
            Slot::Xp(i) => &self.xp[i as usize],
            Slot::Dma(i) => &self.dma[i as usize],
            Slot::Mem(i) => &self.mem[i as usize],
            Slot::Mirror(_) | Slot::Foreign => not_own(slot),
        }
    }

    /// The region's own link at `slot`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not one of the region's own links.
    #[inline]
    pub(crate) fn get_mut(&mut self, slot: Slot) -> &mut AxiLink {
        match slot {
            Slot::Xp(i) => &mut self.xp[i as usize],
            Slot::Dma(i) => &mut self.dma[i as usize],
            Slot::Mem(i) => &mut self.mem[i as usize],
            Slot::Mirror(_) | Slot::Foreign => not_own(slot),
        }
    }
}

/// Out of line, so the link lookups on the crosspoints' hot path inline.
#[cold]
#[inline(never)]
fn not_own(slot: Slot) -> ! {
    panic!("{slot:?} is not one of the region's own links")
}

/// One region's view of the link array during the parallel phase: interior
/// links resolve to the real [`AxiLink`] in the region's own
/// [`RegionLinks`], boundary links to the region's [`LinkMirror`].
/// Touching another region's interior link panics, which turns any
/// partitioning bug into a loud failure.
pub(crate) struct ShardLinkView<'v, 'a> {
    pub(crate) links: &'v mut RegionLinks<'a>,
    pub(crate) region: u32,
    pub(crate) slots: &'v [Slot],
    pub(crate) mirrors: &'v mut [LinkMirror],
}

impl ShardLinkView<'_, '_> {
    #[inline]
    fn is_mine(&self, link: usize) -> bool {
        matches!(self.slots[link], Slot::Xp(_) | Slot::Dma(_) | Slot::Mem(_))
    }

    #[inline]
    fn real(&self, link: usize) -> &AxiLink {
        self.links.get(self.slots[link])
    }

    #[inline]
    fn real_mut(&mut self, link: usize) -> &mut AxiLink {
        self.links.get_mut(self.slots[link])
    }

    #[inline]
    fn mirror_index(&self, link: usize) -> usize {
        match self.slots[link] {
            Slot::Mirror(m) => m as usize,
            _ => foreign(self.region, link),
        }
    }

    #[inline]
    fn mirror(&self, link: usize) -> &LinkMirror {
        &self.mirrors[self.mirror_index(link)]
    }

    #[inline]
    fn mirror_mut(&mut self, link: usize) -> &mut LinkMirror {
        let m = self.mirror_index(link);
        &mut self.mirrors[m]
    }
}

#[cold]
#[inline(never)]
fn foreign(region: u32, link: usize) -> ! {
    panic!("region {region} touched link {link} it neither owns nor borders")
}

impl LinkView for ShardLinkView<'_, '_> {
    fn aw_can_push(&self, link: usize) -> bool {
        if self.is_mine(link) {
            self.real(link).aw.can_push()
        } else {
            self.mirror(link).aw.can_push()
        }
    }
    fn aw_peek(&self, link: usize) -> Option<ReqBeat> {
        if self.is_mine(link) {
            self.real(link).aw.peek().copied()
        } else {
            self.mirror(link).aw.peek()
        }
    }
    fn aw_pop(&mut self, link: usize) -> Option<ReqBeat> {
        if self.is_mine(link) {
            self.real_mut(link).aw.pop()
        } else {
            self.mirror_mut(link).aw.pop()
        }
    }
    fn aw_push(&mut self, link: usize, beat: ReqBeat) {
        if self.is_mine(link) {
            self.real_mut(link).aw.push(beat);
        } else {
            self.mirror_mut(link).aw.push(beat);
        }
    }
    fn ar_can_push(&self, link: usize) -> bool {
        if self.is_mine(link) {
            self.real(link).ar.can_push()
        } else {
            self.mirror(link).ar.can_push()
        }
    }
    fn ar_peek(&self, link: usize) -> Option<ReqBeat> {
        if self.is_mine(link) {
            self.real(link).ar.peek().copied()
        } else {
            self.mirror(link).ar.peek()
        }
    }
    fn ar_pop(&mut self, link: usize) -> Option<ReqBeat> {
        if self.is_mine(link) {
            self.real_mut(link).ar.pop()
        } else {
            self.mirror_mut(link).ar.pop()
        }
    }
    fn ar_push(&mut self, link: usize, beat: ReqBeat) {
        if self.is_mine(link) {
            self.real_mut(link).ar.push(beat);
        } else {
            self.mirror_mut(link).ar.push(beat);
        }
    }
    fn w_can_push(&self, link: usize) -> bool {
        if self.is_mine(link) {
            self.real(link).w.can_push()
        } else {
            self.mirror(link).w.can_push()
        }
    }
    fn w_pop(&mut self, link: usize) -> Option<DataBeat> {
        if self.is_mine(link) {
            self.real_mut(link).w.pop()
        } else {
            self.mirror_mut(link).w.pop()
        }
    }
    fn w_push(&mut self, link: usize, beat: DataBeat) {
        if self.is_mine(link) {
            self.real_mut(link).w.push(beat);
        } else {
            self.mirror_mut(link).w.push(beat);
        }
    }
    fn b_can_push(&self, link: usize) -> bool {
        if self.is_mine(link) {
            self.real(link).b.can_push()
        } else {
            self.mirror(link).b.can_push()
        }
    }
    fn b_peek(&self, link: usize) -> Option<RespBeat> {
        if self.is_mine(link) {
            self.real(link).b.peek().copied()
        } else {
            self.mirror(link).b.peek()
        }
    }
    fn b_pop(&mut self, link: usize) -> Option<RespBeat> {
        if self.is_mine(link) {
            self.real_mut(link).b.pop()
        } else {
            self.mirror_mut(link).b.pop()
        }
    }
    fn b_push(&mut self, link: usize, beat: RespBeat) {
        if self.is_mine(link) {
            self.real_mut(link).b.push(beat);
        } else {
            self.mirror_mut(link).b.push(beat);
        }
    }
    fn r_can_push(&self, link: usize) -> bool {
        if self.is_mine(link) {
            self.real(link).r.can_push()
        } else {
            self.mirror(link).r.can_push()
        }
    }
    fn r_peek(&self, link: usize) -> Option<RespBeat> {
        if self.is_mine(link) {
            self.real(link).r.peek().copied()
        } else {
            self.mirror(link).r.peek()
        }
    }
    fn r_pop(&mut self, link: usize) -> Option<RespBeat> {
        if self.is_mine(link) {
            self.real_mut(link).r.pop()
        } else {
            self.mirror_mut(link).r.pop()
        }
    }
    fn r_push(&mut self, link: usize, beat: RespBeat) {
        if self.is_mine(link) {
            self.real_mut(link).r.push(beat);
        } else {
            self.mirror_mut(link).r.push(beat);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(bytes: u32) -> DataBeat {
        DataBeat {
            bytes,
            last: true,
            txn: 0,
        }
    }

    /// Mirrored pops and pushes replayed at commit leave the channel in
    /// exactly the state direct manipulation would.
    #[test]
    fn mirror_round_trips_against_direct_manipulation() {
        let build = || {
            let mut ch: Channel<DataBeat> = Channel::new(1);
            ch.begin_cycle();
            ch.push(data(1));
            ch
        };
        // Reference: pop one beat and push one directly.
        let mut direct = build();
        direct.begin_cycle();
        assert_eq!(direct.pop(), Some(data(1)));
        direct.push(data(3));
        // Mirrored: same cycle through a ChanMirror, then commit.
        let mut mirrored = build();
        mirrored.begin_cycle();
        let mut pop_side = ChanMirror::default();
        let mut push_side = ChanMirror::default();
        pop_side.capture(&mirrored);
        push_side.capture(&mirrored);
        assert_eq!(pop_side.peek(), Some(data(1)));
        assert_eq!(pop_side.pop(), Some(data(1)));
        assert!(push_side.can_push());
        push_side.push(data(3));
        pop_side.commit_pops(&mut mirrored);
        push_side.commit_pushes(&mut mirrored);
        // Drain both and compare the surviving beat streams.
        let drain = |ch: &mut Channel<DataBeat>| {
            let mut out = Vec::new();
            for _ in 0..10 {
                ch.begin_cycle();
                while let Some(v) = ch.pop() {
                    out.push(v);
                }
            }
            out
        };
        assert_eq!(drain(&mut direct), drain(&mut mirrored));
    }

    #[test]
    fn mirror_enforces_snapshot_credit() {
        let mut ch: Channel<DataBeat> = Channel::new(1);
        ch.begin_cycle();
        let mut m = ChanMirror::default();
        m.capture(&ch);
        // Depth-2 stage: exactly two pushes this cycle, like the real FIFO.
        assert!(m.can_push());
        m.push(data(1));
        m.push(data(2));
        assert!(!m.can_push());
    }

    #[test]
    fn mirror_pop_is_bounded_by_the_snapshot() {
        let mut ch: Channel<DataBeat> = Channel::new(1);
        ch.begin_cycle();
        ch.push(data(7));
        ch.begin_cycle();
        let mut m = ChanMirror::default();
        m.capture(&ch);
        assert_eq!(m.pop(), Some(data(7)));
        // The second beat is not yet visible at the consumer end.
        assert_eq!(m.pop(), None);
        m.commit_pops(&mut ch);
        assert!(ch.pop().is_none(), "commit already consumed the beat");
    }

    #[test]
    fn partition_classifies_links_and_endpoints() {
        // 2×2 mesh, 2 regions (one row each). Node layout: 0 1 / 2 3.
        let map = RegionMap::new(2, 2, 2);
        // XP links by master-side node: 0→1 interior to region 0, 0→2
        // crossing, 2→3 interior to region 1; then DMA links on nodes 0
        // and 3, then memory links on nodes 0 and 3.
        let link_nodes = [(0, 1), (0, 2), (2, 3), (0, 0), (3, 3), (0, 0), (3, 3)];
        let s = Sharding::new(&map, &link_nodes, &[0, 3], &[0, 3]);
        assert_eq!(s.boundary, vec![(1, 0, 1)]);
        assert_eq!(s.segments, [0..3, 3..5, 5..7]);
        assert_eq!(s.ctxs[0].interior, vec![0, 3, 5]);
        assert_eq!(s.ctxs[1].interior, vec![2, 4, 6]);
        assert_eq!(s.ctxs[0].links, [0..2, 3..4, 5..6]);
        assert_eq!(s.ctxs[1].links, [2..3, 4..5, 6..7]);
        assert_eq!(s.ctxs[0].dmas, 0..1);
        assert_eq!(s.ctxs[1].dmas, 1..2);
        assert_eq!(s.ctxs[0].mems, 0..1);
        assert_eq!(s.ctxs[1].mems, 1..2);
        assert_eq!(s.ctxs[0].xps, 0..2);
        assert_eq!(s.ctxs[1].xps, 2..4);
        use Slot::{Dma, Foreign, Mem, Mirror, Xp};
        assert_eq!(
            s.ctxs[0].slots,
            [Xp(0), Mirror(0), Foreign, Dma(0), Foreign, Mem(0), Foreign]
        );
        assert_eq!(
            s.ctxs[1].slots,
            [Foreign, Mirror(0), Xp(0), Foreign, Dma(0), Foreign, Mem(0)]
        );
        // Both adjacent regions hold a mirror of the boundary link.
        assert_eq!(s.ctxs[0].mirrors.len(), 1);
        assert_eq!(s.ctxs[1].mirrors.len(), 1);
    }

    #[test]
    #[should_panic(expected = "ascending region order")]
    fn endpoints_out_of_region_order_are_refused() {
        let map = RegionMap::new(2, 2, 2);
        let link_nodes = [(0, 1), (2, 3), (3, 3), (0, 0)];
        let _ = Sharding::new(&map, &link_nodes, &[3, 0], &[]);
    }

    /// Cuts `links` into per-region link parts, as the engine does each
    /// sharded cycle.
    fn region_links<'a>(s: &Sharding, links: &'a mut [AxiLink]) -> Vec<RegionLinks<'a>> {
        let mut rest = s.segments(links);
        s.ctxs
            .iter()
            .map(|ctx| RegionLinks::split_front(&mut rest, &ctx.links))
            .collect()
    }

    #[test]
    fn region_links_resolve_global_indices() {
        let map = RegionMap::new(2, 2, 2);
        let link_nodes = [(0, 1), (0, 2), (2, 3), (0, 0), (3, 3), (0, 0), (3, 3)];
        let s = Sharding::new(&map, &link_nodes, &[0, 3], &[0, 3]);
        let mut links: Vec<AxiLink> = (0..7).map(|_| AxiLink::new(1)).collect();
        let mut parts = region_links(&s, &mut links);
        // Each region stamps its interior links through its part, by
        // slot; the stamps land on exactly those links.
        for (part, ctx) in parts.iter_mut().zip(&s.ctxs) {
            for &l in &ctx.interior {
                let link = part.get_mut(ctx.slots[l]);
                link.w.begin_cycle();
                link.w.push(data(l as u32));
            }
        }
        drop(parts);
        let stamped: Vec<bool> = links.iter().map(|l| l.w.occupancy() > 0).collect();
        let boundary = s.boundary.iter().map(|&(l, ..)| l).collect::<Vec<_>>();
        for (l, stamped) in stamped.into_iter().enumerate() {
            assert_eq!(stamped, !boundary.contains(&l), "link {l}");
        }
    }

    #[test]
    #[should_panic(expected = "neither owns nor borders")]
    fn foreign_interior_access_panics() {
        let map = RegionMap::new(2, 2, 2);
        let link_nodes = [(0, 1), (2, 3)];
        let mut s = Sharding::new(&map, &link_nodes, &[], &[]);
        let mut links = vec![AxiLink::new(1), AxiLink::new(1)];
        let mut parts = region_links(&s, &mut links);
        let ctx = &mut s.ctxs[0];
        let view = ShardLinkView {
            links: &mut parts[0],
            region: 0,
            slots: &ctx.slots,
            mirrors: &mut ctx.mirrors,
        };
        // Link 1 is interior to region 1: region 0 must not see it.
        let _ = view.aw_can_push(1);
    }
}
