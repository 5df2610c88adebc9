//! AXI links: five independent channels with register-slice pipelining.
//!
//! One [`AxiLink`] is a full AXI interface between a master-side and a
//! slave-side component: AW, W and AR flow forward; B and R flow backward.
//! Each channel is a chain of registered stages ([`Channel`]); the default
//! of one stage models the paper's "register slice on every AXI channel"
//! used to close 1 GHz timing, and extra stages model additional cuts
//! inserted for long wires (the Table I "Register Slice" parameter).
//!
//! [`AxiLink::begin_cycle`] also reports each channel's *edges* ([`Edges`]):
//! the moments a switch stage blocked on that channel may have something to
//! do again. Crosspoints sleep their stages between edges (see
//! [`Xp::step`](crate::xp::Xp::step)).

use axi::AxiId;
use simkit::{Cycle, Fifo};

/// One bit per AXI channel, in crosspoint stage order (AW, AR, W, B, R):
/// the layout of the [`Edges`] masks and of a crosspoint's stage mask.
pub mod stage {
    /// Write-address channel / stage.
    pub const AW: u8 = 1;
    /// Read-address channel / stage.
    pub const AR: u8 = 1 << 1;
    /// Write-data channel / stage.
    pub const W: u8 = 1 << 2;
    /// Write-response channel / stage.
    pub const B: u8 = 1 << 3;
    /// Read-data channel / stage.
    pub const R: u8 = 1 << 4;
    /// Every stage.
    pub const ALL: u8 = AW | AR | W | B | R;
    /// The channels that flow master → slave.
    pub const FWD: u8 = AW | AR | W;
    /// The channels that flow slave → master.
    pub const BWD: u8 = B | R;
}

/// What [`AxiLink::begin_cycle`] saw on one link, as [`stage`] masks.
///
/// A switch stage blocked on a channel can only be unblocked by one of two
/// edges there: its consumer end had nothing poppable and now holds a beat
/// (`heads`), or its producer end had no free slot and now has one
/// (`spaces`). Both are read off the snapshot counters the previous cycle
/// left behind, before `begin_cycle` overwrites them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Edges {
    /// Whether any channel still holds beats (the link must stay hot);
    /// `false` means the link is now quiescent.
    pub live: bool,
    /// Channels whose consumer end turned poppable.
    pub heads: u8,
    /// Channels whose producer end turned pushable.
    pub spaces: u8,
}

impl Edges {
    /// The stages of the link's master-side crosspoint these edges wake:
    /// it pushes the forward channels and pops the backward ones.
    #[inline]
    #[must_use]
    pub fn master_wakes(self) -> u8 {
        (self.spaces & stage::FWD) | (self.heads & stage::BWD)
    }

    /// The stages of the link's slave-side crosspoint these edges wake:
    /// it pops the forward channels and pushes the backward ones.
    #[inline]
    #[must_use]
    pub fn slave_wakes(self) -> u8 {
        (self.heads & stage::FWD) | (self.spaces & stage::BWD)
    }
}

/// A request beat (the content of one AW or AR transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqBeat {
    /// Wire transaction ID (remapped hop by hop).
    pub id: AxiId,
    /// Destination endpoint index (from address decode).
    pub dst: usize,
    /// Originating master endpoint (metadata for statistics only).
    pub src: usize,
    /// Number of data beats in the burst (`AxLEN + 1`).
    pub beats: u16,
    /// Payload bytes the burst carries.
    pub bytes: u32,
    /// Global transaction serial (metadata for tracking only).
    pub txn: u64,
    /// Cycle the original transfer was issued (for latency statistics).
    pub issued_at: Cycle,
}

/// A write-data beat (W channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataBeat {
    /// Valid payload bytes in this beat.
    pub bytes: u32,
    /// Last beat of the burst (`WLAST`).
    pub last: bool,
    /// Transaction serial (metadata).
    pub txn: u64,
}

/// A response beat (B channel: one per write burst; R channel: one per read
/// data beat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RespBeat {
    /// Wire transaction ID (on the link where the beat currently travels).
    pub id: AxiId,
    /// Valid payload bytes (R beats only; 0 for B).
    pub bytes: u32,
    /// Last beat of the burst (`RLAST`; always true for B).
    pub last: bool,
    /// Transaction serial (metadata).
    pub txn: u64,
}

/// A registered channel: `stages` chained depth-2 FIFOs, each adding one
/// cycle of latency at full throughput.
///
/// The consumer-end stage is held inline, so the default one-stage channel
/// peeks, pops and begins its cycle without a pointer chase and owns no
/// heap block of stages; only extra register slices live in a `Vec`.
#[derive(Debug, Clone)]
pub struct Channel<T> {
    /// The register slices ahead of the consumer end, producer end first
    /// (empty for a one-stage channel).
    upstream: Vec<Fifo<T>>,
    /// The consumer-end stage.
    last: Fifo<T>,
}

/// Moves one beat from `from` into the next stage `to`, if both allow it.
fn advance<T>(from: &mut Fifo<T>, to: &mut Fifo<T>) {
    if to.can_push() && from.can_pop() {
        let v = from.pop().expect("can_pop checked");
        assert!(to.push(v).is_ok(), "can_push checked above");
    }
}

impl<T> Channel<T> {
    /// Creates a channel with `stages ≥ 1` register slices.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero (a combinational link cannot exist in the
    /// two-phase model; the paper's synthesized design also registers every
    /// channel).
    #[must_use]
    pub fn new(stages: usize) -> Self {
        assert!(stages >= 1, "need at least one register stage");
        Self {
            upstream: (1..stages).map(|_| Fifo::new(2)).collect(),
            last: Fifo::new(2),
        }
    }

    /// The producer-end stage.
    fn first(&self) -> &Fifo<T> {
        self.upstream.first().unwrap_or(&self.last)
    }

    fn first_mut(&mut self) -> &mut Fifo<T> {
        match self.upstream.first_mut() {
            Some(s) => s,
            None => &mut self.last,
        }
    }

    /// Starts a cycle: snapshots all stages and moves beats one stage
    /// forward (stage i → i+1). Returns `(occupied, head, space)`:
    ///
    /// - `occupied`: the channel still holds beats — `false` means it is
    ///   now quiescent ([`is_idle`](Self::is_idle) holds: the snapshot was
    ///   just refreshed on empty stages), so the activity scheduler may
    ///   skip it until a producer pushes again;
    /// - `head`: the consumer end ended the last cycle with nothing
    ///   poppable and now has a beat;
    /// - `space`: the producer end ended the last cycle with no free slot
    ///   and now has one.
    ///
    /// All three fall out of the counters the walk reads anyway. Always
    /// inlined: as a call per channel, the edge reads cost more than the
    /// stage evaluations they save.
    #[inline(always)]
    pub fn begin_cycle(&mut self) -> (bool, bool, bool) {
        let was_dry = self.last.snap_len() == 0;
        let was_full = self.first().snap_free() == 0;
        self.last.begin_cycle();
        let mut occupied = !self.last.is_empty();
        for s in &mut self.upstream {
            s.begin_cycle();
            occupied |= !s.is_empty();
        }
        // Advance the internal pipeline back to front so a beat moves at
        // most one stage per cycle (total occupancy is unchanged).
        if let Some(prev) = self.upstream.last_mut() {
            advance(prev, &mut self.last);
        }
        for i in (1..self.upstream.len()).rev() {
            let (front, back) = self.upstream.split_at_mut(i);
            advance(&mut front[i - 1], &mut back[0]);
        }
        // Neither counter moves in the advance: a push into the consumer
        // end leaves its snapshot alone, a pop from the producer end frees
        // no slot before the next cycle.
        let head = was_dry & self.last.can_pop();
        let space = was_full & self.first().can_push();
        (occupied, head, space)
    }

    /// Whether the producer can push this cycle.
    #[must_use]
    pub fn can_push(&self) -> bool {
        self.first().can_push()
    }

    /// Pushes a beat into the first stage.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not ready; callers must check
    /// [`can_push`](Self::can_push).
    pub fn push(&mut self, v: T) {
        assert!(self.first_mut().push(v).is_ok(), "push on full channel");
    }

    /// Whether the consumer can pop this cycle.
    #[must_use]
    pub fn can_pop(&self) -> bool {
        self.last.can_pop()
    }

    /// The beat at the consumer end, if any.
    #[must_use]
    pub fn peek(&self) -> Option<&T> {
        self.last.peek()
    }

    /// Pops the beat at the consumer end.
    pub fn pop(&mut self) -> Option<T> {
        self.last.pop()
    }

    /// Producer-side slots free in this cycle's snapshot — the count behind
    /// [`can_push`](Self::can_push), exposed so a boundary mirror can grant
    /// a remote region exactly as many pushes as the real channel would.
    #[must_use]
    pub fn snap_free(&self) -> usize {
        self.first().snap_free()
    }

    /// The beats poppable this cycle at the consumer end, in pop order —
    /// the consumer-side snapshot a boundary mirror copies so a remote
    /// region can peek/pop without touching the channel.
    pub fn poppable(&self) -> impl Iterator<Item = &T> {
        self.last.poppable()
    }

    /// Total beats currently in flight inside the channel.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.upstream.iter().map(Fifo::len).sum::<usize>() + self.last.len()
    }

    /// Whether the channel holds no beats.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// Whether the channel is *quiescent*: every stage is empty with a
    /// fully refreshed snapshot ([`Fifo::is_idle`]), so the next
    /// [`begin_cycle`](Self::begin_cycle) — snapshot plus pipeline advance
    /// — would be a no-op. This is what lets the activity-driven engine
    /// skip the channel without changing any observable behaviour.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.last.is_idle() && self.upstream.iter().all(Fifo::is_idle)
    }

    /// Serializes every stage (producer end first) into a snapshot,
    /// including the two-phase cycle counters — a mid-cycle channel
    /// restores to exactly the same push/pop affordances.
    pub(crate) fn encode_with(
        &self,
        e: &mut simkit::snap::Encoder,
        mut f: impl FnMut(&mut simkit::snap::Encoder, &T),
    ) {
        for s in &self.upstream {
            s.encode_with(e, &mut f);
        }
        self.last.encode_with(e, &mut f);
    }

    /// Decodes a channel written by [`encode_with`](Self::encode_with)
    /// with the target wiring's stage count (pinned by the snapshot shape
    /// fingerprint, revalidated per stage by the depth-2 capacity check).
    pub(crate) fn decode_with(
        d: &mut simkit::snap::Decoder<'_>,
        stages: usize,
        mut f: impl FnMut(&mut simkit::snap::Decoder<'_>) -> Result<T, simkit::snap::SnapError>,
    ) -> Result<Self, simkit::snap::SnapError> {
        debug_assert!(stages >= 1, "channels always have a register stage");
        let upstream = (1..stages)
            .map(|_| Fifo::decode_with(d, 2, &mut f))
            .collect::<Result<Vec<_>, _>>()?;
        let last = Fifo::decode_with(d, 2, &mut f)?;
        Ok(Self { upstream, last })
    }
}

/// One AXI interface: AW/W/AR forward, B/R backward.
///
/// "Forward" is the master→slave direction: the component on the master
/// side pushes AW/W/AR and pops B/R; the slave side does the opposite.
#[derive(Debug, Clone)]
pub struct AxiLink {
    /// Write-address channel (forward).
    pub aw: Channel<ReqBeat>,
    /// Write-data channel (forward).
    pub w: Channel<DataBeat>,
    /// Read-address channel (forward).
    pub ar: Channel<ReqBeat>,
    /// Write-response channel (backward).
    pub b: Channel<RespBeat>,
    /// Read-data channel (backward).
    pub r: Channel<RespBeat>,
}

impl AxiLink {
    /// Creates a link with `stages` register slices on every channel.
    #[must_use]
    pub fn new(stages: usize) -> Self {
        Self {
            aw: Channel::new(stages),
            w: Channel::new(stages),
            ar: Channel::new(stages),
            b: Channel::new(stages),
            r: Channel::new(stages),
        }
    }

    /// Starts a simulation cycle on all five channels and returns what it
    /// saw: whether any channel still holds beats (the link must stay hot;
    /// `false` means it is now [`is_quiescent`](Self::is_quiescent)), and
    /// each channel's head and space edges ([`Edges`]).
    #[inline(always)]
    pub fn begin_cycle(&mut self) -> Edges {
        let (aw_live, aw_head, aw_space) = self.aw.begin_cycle();
        let (w_live, w_head, w_space) = self.w.begin_cycle();
        let (ar_live, ar_head, ar_space) = self.ar.begin_cycle();
        let (b_live, b_head, b_space) = self.b.begin_cycle();
        let (r_live, r_head, r_space) = self.r.begin_cycle();
        let bit = |on: bool, stage: u8| u8::from(on) * stage;
        Edges {
            live: aw_live | w_live | ar_live | b_live | r_live,
            heads: bit(aw_head, stage::AW)
                | bit(ar_head, stage::AR)
                | bit(w_head, stage::W)
                | bit(b_head, stage::B)
                | bit(r_head, stage::R),
            spaces: bit(aw_space, stage::AW)
                | bit(ar_space, stage::AR)
                | bit(w_space, stage::W)
                | bit(b_space, stage::B)
                | bit(r_space, stage::R),
        }
    }

    /// Whether every channel is empty (used for drain detection).
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.aw.is_empty()
            && self.w.is_empty()
            && self.ar.is_empty()
            && self.b.is_empty()
            && self.r.is_empty()
    }

    /// Whether every channel is quiescent ([`Channel::is_idle`]): stronger
    /// than [`is_idle`](Self::is_idle), because it also requires the cycle
    /// snapshots to be refreshed. A quiescent link can safely be skipped
    /// by [`begin_cycle`](Self::begin_cycle) with no observable effect.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.aw.is_idle()
            && self.w.is_idle()
            && self.ar.is_idle()
            && self.b.is_idle()
            && self.r.is_idle()
    }

    /// Serializes all five channels (AW, W, AR, B, R — fixed order) into a
    /// snapshot.
    pub(crate) fn encode(&self, e: &mut simkit::snap::Encoder) {
        use crate::snapcodec::{encode_data, encode_req, encode_resp};
        self.aw.encode_with(e, encode_req);
        self.w.encode_with(e, encode_data);
        self.ar.encode_with(e, encode_req);
        self.b.encode_with(e, encode_resp);
        self.r.encode_with(e, encode_resp);
    }

    /// Decodes a link written by [`encode`](Self::encode), validating every
    /// beat against the target topology (`nodes` endpoints).
    pub(crate) fn decode(
        d: &mut simkit::snap::Decoder<'_>,
        stages: usize,
        nodes: usize,
    ) -> Result<Self, simkit::snap::SnapError> {
        use crate::snapcodec::{decode_data, decode_req, decode_resp};
        Ok(Self {
            aw: Channel::decode_with(d, stages, |d| decode_req(d, nodes))?,
            w: Channel::decode_with(d, stages, decode_data)?,
            ar: Channel::decode_with(d, stages, |d| decode_req(d, nodes))?,
            b: Channel::decode_with(d, stages, decode_resp)?,
            r: Channel::decode_with(d, stages, decode_resp)?,
        })
    }
}

/// How a crosspoint touches the link array, abstracted so the same
/// [`Xp::step`](crate::xp::Xp::step) code runs against the real links
/// (serial engine: `[AxiLink]`) or a region shard's view (real links for
/// channels the region owns, boundary mirrors for the rest — see
/// `crate::shard`). Methods take the link index; `peek` returns beats by
/// value (they are small `Copy` structs) so no borrow outlives the call.
pub trait LinkView {
    /// Whether the AW channel of `link` accepts a push this cycle.
    fn aw_can_push(&self, link: usize) -> bool;
    /// The AW beat poppable from `link` this cycle, if any.
    fn aw_peek(&self, link: usize) -> Option<ReqBeat>;
    /// Pops the AW beat at the consumer end of `link`.
    fn aw_pop(&mut self, link: usize) -> Option<ReqBeat>;
    /// Pushes an AW beat into `link` (caller checked
    /// [`aw_can_push`](Self::aw_can_push)).
    fn aw_push(&mut self, link: usize, beat: ReqBeat);
    /// Whether the AR channel of `link` accepts a push this cycle.
    fn ar_can_push(&self, link: usize) -> bool;
    /// The AR beat poppable from `link` this cycle, if any.
    fn ar_peek(&self, link: usize) -> Option<ReqBeat>;
    /// Pops the AR beat at the consumer end of `link`.
    fn ar_pop(&mut self, link: usize) -> Option<ReqBeat>;
    /// Pushes an AR beat into `link`.
    fn ar_push(&mut self, link: usize, beat: ReqBeat);
    /// Whether the W channel of `link` accepts a push this cycle.
    fn w_can_push(&self, link: usize) -> bool;
    /// Pops the W beat at the consumer end of `link`.
    fn w_pop(&mut self, link: usize) -> Option<DataBeat>;
    /// Pushes a W beat into `link`.
    fn w_push(&mut self, link: usize, beat: DataBeat);
    /// Whether the B channel of `link` accepts a push this cycle.
    fn b_can_push(&self, link: usize) -> bool;
    /// The B beat poppable from `link` this cycle, if any.
    fn b_peek(&self, link: usize) -> Option<RespBeat>;
    /// Pops the B beat at the consumer end of `link`.
    fn b_pop(&mut self, link: usize) -> Option<RespBeat>;
    /// Pushes a B beat into `link`.
    fn b_push(&mut self, link: usize, beat: RespBeat);
    /// Whether the R channel of `link` accepts a push this cycle.
    fn r_can_push(&self, link: usize) -> bool;
    /// The R beat poppable from `link` this cycle, if any.
    fn r_peek(&self, link: usize) -> Option<RespBeat>;
    /// Pops the R beat at the consumer end of `link`.
    fn r_pop(&mut self, link: usize) -> Option<RespBeat>;
    /// Pushes an R beat into `link`.
    fn r_push(&mut self, link: usize, beat: RespBeat);
}

/// The serial engine's view: the plain link array itself.
impl LinkView for [AxiLink] {
    fn aw_can_push(&self, link: usize) -> bool {
        self[link].aw.can_push()
    }
    fn aw_peek(&self, link: usize) -> Option<ReqBeat> {
        self[link].aw.peek().copied()
    }
    fn aw_pop(&mut self, link: usize) -> Option<ReqBeat> {
        self[link].aw.pop()
    }
    fn aw_push(&mut self, link: usize, beat: ReqBeat) {
        self[link].aw.push(beat);
    }
    fn ar_can_push(&self, link: usize) -> bool {
        self[link].ar.can_push()
    }
    fn ar_peek(&self, link: usize) -> Option<ReqBeat> {
        self[link].ar.peek().copied()
    }
    fn ar_pop(&mut self, link: usize) -> Option<ReqBeat> {
        self[link].ar.pop()
    }
    fn ar_push(&mut self, link: usize, beat: ReqBeat) {
        self[link].ar.push(beat);
    }
    fn w_can_push(&self, link: usize) -> bool {
        self[link].w.can_push()
    }
    fn w_pop(&mut self, link: usize) -> Option<DataBeat> {
        self[link].w.pop()
    }
    fn w_push(&mut self, link: usize, beat: DataBeat) {
        self[link].w.push(beat);
    }
    fn b_can_push(&self, link: usize) -> bool {
        self[link].b.can_push()
    }
    fn b_peek(&self, link: usize) -> Option<RespBeat> {
        self[link].b.peek().copied()
    }
    fn b_pop(&mut self, link: usize) -> Option<RespBeat> {
        self[link].b.pop()
    }
    fn b_push(&mut self, link: usize, beat: RespBeat) {
        self[link].b.push(beat);
    }
    fn r_can_push(&self, link: usize) -> bool {
        self[link].r.can_push()
    }
    fn r_peek(&self, link: usize) -> Option<RespBeat> {
        self[link].r.peek().copied()
    }
    fn r_pop(&mut self, link: usize) -> Option<RespBeat> {
        self[link].r.pop()
    }
    fn r_push(&mut self, link: usize, beat: RespBeat) {
        self[link].r.push(beat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(bytes: u32, last: bool) -> DataBeat {
        DataBeat {
            bytes,
            last,
            txn: 0,
        }
    }

    #[test]
    fn single_stage_one_cycle_latency() {
        let mut ch: Channel<DataBeat> = Channel::new(1);
        ch.begin_cycle();
        ch.push(beat(4, false));
        assert!(ch.pop().is_none());
        ch.begin_cycle();
        assert!(ch.pop().is_some());
    }

    #[test]
    fn n_stages_n_cycle_latency() {
        for stages in 1..5usize {
            let mut ch: Channel<DataBeat> = Channel::new(stages);
            ch.begin_cycle();
            ch.push(beat(1, true));
            let mut cycles = 0;
            loop {
                ch.begin_cycle();
                cycles += 1;
                if ch.pop().is_some() {
                    break;
                }
                assert!(cycles < 20);
            }
            assert_eq!(cycles, stages, "stages={stages}");
        }
    }

    #[test]
    fn full_throughput_through_multi_stage() {
        let mut ch: Channel<u64> = Channel::new(3);
        let mut sent = 0u64;
        let mut got = Vec::new();
        for _ in 0..200 {
            ch.begin_cycle();
            if let Some(v) = ch.pop() {
                got.push(v);
            }
            if ch.can_push() {
                ch.push(sent);
                sent += 1;
            }
        }
        // After the 3-cycle fill, one beat per cycle, in order.
        assert!(got.len() >= 195);
        assert!(got.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn backpressure_propagates_upstream() {
        let mut ch: Channel<u64> = Channel::new(2);
        // Fill without draining: capacity = 2 stages × depth 2 = 4.
        let mut pushed = 0;
        for _ in 0..10 {
            ch.begin_cycle();
            if ch.can_push() {
                ch.push(pushed);
                pushed += 1;
            }
        }
        assert_eq!(pushed, 4);
        assert_eq!(ch.occupancy(), 4);
    }

    #[test]
    fn link_idle_detection() {
        let mut l = AxiLink::new(1);
        assert!(l.is_idle());
        l.begin_cycle();
        l.w.push(beat(4, true));
        assert!(!l.is_idle());
        l.begin_cycle();
        l.w.pop();
        assert!(l.is_idle());
    }

    #[test]
    fn head_edge_fires_once_when_the_consumer_end_turns_poppable() {
        for stages in 1..4usize {
            let mut ch: Channel<u64> = Channel::new(stages);
            // A fresh channel has nothing pushable until its first cycle.
            assert_eq!(ch.begin_cycle(), (false, false, true));
            ch.push(1);
            let mut heads = 0;
            for _ in 0..stages {
                let (occupied, head, _) = ch.begin_cycle();
                assert!(occupied);
                heads += usize::from(head);
            }
            assert_eq!(heads, 1, "stages={stages}");
            assert!(ch.can_pop());
            // Left unpopped, the same head raises no second edge.
            assert_eq!(ch.begin_cycle(), (true, false, false));
            assert_eq!(ch.pop(), Some(1));
            assert_eq!(ch.begin_cycle(), (false, false, false));
        }
    }

    #[test]
    fn space_edge_fires_when_the_producer_end_frees_a_slot() {
        let mut ch: Channel<u64> = Channel::new(1);
        ch.begin_cycle();
        ch.push(1);
        ch.push(2);
        assert!(!ch.can_push());
        // Full at the snapshot: still no slot.
        assert_eq!(ch.begin_cycle(), (true, true, false));
        assert!(!ch.can_push());
        // Two same-cycle pops drain the channel: no longer live, but the
        // producer must still learn that it may push again.
        assert_eq!((ch.pop(), ch.pop()), (Some(1), Some(2)));
        assert_eq!(ch.begin_cycle(), (false, false, true));
        assert!(ch.can_push());
    }

    #[test]
    fn link_edges_map_to_the_stages_at_each_end() {
        let mut l = AxiLink::new(1);
        l.begin_cycle();
        l.w.push(beat(4, true));
        l.b.push(RespBeat {
            id: AxiId(0),
            bytes: 0,
            last: true,
            txn: 0,
        });
        let e = l.begin_cycle();
        assert_eq!(e.heads, stage::W | stage::B);
        assert_eq!(e.spaces, 0);
        // A forward head wakes the slave side, a backward one the master.
        assert_eq!(e.slave_wakes(), stage::W);
        assert_eq!(e.master_wakes(), stage::B);
        let spaces = Edges {
            live: false,
            heads: 0,
            spaces: stage::AR | stage::R,
        };
        assert_eq!(spaces.master_wakes(), stage::AR);
        assert_eq!(spaces.slave_wakes(), stage::R);
    }

    #[test]
    #[should_panic(expected = "at least one register stage")]
    fn zero_stages_rejected() {
        let _ = Channel::<u64>::new(0);
    }

    #[test]
    fn quiescence_is_stricter_than_emptiness() {
        let mut l = AxiLink::new(2);
        // Fresh link: empty, but snapshots are unrefreshed.
        assert!(l.is_idle());
        assert!(!l.is_quiescent());
        l.begin_cycle();
        assert!(l.is_quiescent());
        // Carrying a beat: neither.
        l.w.push(beat(4, true));
        assert!(!l.is_idle());
        assert!(!l.is_quiescent());
        // Drain it: empty again, but the stale snapshot still needs one
        // more begin_cycle before the link may be skipped.
        l.begin_cycle();
        l.begin_cycle();
        assert!(l.w.pop().is_some());
        assert!(l.is_idle());
        assert!(!l.is_quiescent());
        l.begin_cycle();
        assert!(l.is_quiescent());
    }
}
