//! Region-sharded execution for the packet baseline.
//!
//! Same scheme as `patronoc`'s shard module — contiguous row bands stepped
//! by one worker each behind a per-cycle barrier, bit-identical to the
//! serial sweep — but the wormhole mesh needs much less machinery:
//!
//! * Every input flit buffer has exactly **one pusher** (the upstream
//!   router, or the node's own NI for the local port) and **one popper**
//!   (the owning router). A buffer whose pusher sits in another region
//!   therefore only needs a *push-only* mirror: a credit count copied from
//!   the fresh cycle snapshot plus the flits staged against it. The owner
//!   keeps popping the real buffer; the foreign pusher spends mirror
//!   credit; the staged flits replay at the serial commit.
//! * A region's routers, NIs and input buffers are one contiguous range
//!   each (nodes are numbered row by row, and buffers node by node), so
//!   every worker steps plain `&mut` slices of them, cut off the engine's
//!   arrays with `split_at_mut`. Its boundary input buffers lie in its own
//!   range: it pops them as their owner, and their foreign pusher writes
//!   only to its mirror.
//! * All delivery bookkeeping (throughput meter, latency histogram,
//!   transaction retirement, completion callbacks) already funnels through
//!   one `on_delivery` path, so the parallel phase merely *collects*
//!   deliveries per region and the commit replays them in ascending region
//!   order — which, regions being ascending node bands, is exactly the
//!   serial sweep's ascending-router order.

use crate::router::{Delivery, Flit, Router, PORTS};
use simkit::region::RegionMap;
use simkit::Fifo;
use std::ops::Range;

/// Sentinel for "this region holds no mirror of that buffer".
pub(crate) const NO_MIRROR: u32 = u32::MAX;

/// Push-only mirror of one boundary flit buffer, held by the *pusher's*
/// region: the cycle-snapshot credit plus the flits staged this cycle.
#[derive(Debug, Default)]
pub(crate) struct BufMirror {
    /// Pushes still admissible this cycle (`snap_free` at capture).
    free: usize,
    /// Flits pushed this cycle, awaiting commit.
    staged: Vec<Flit>,
}

impl BufMirror {
    /// Refreshes the credit from `buf`'s just-begun cycle snapshot.
    pub(crate) fn capture(&mut self, buf: &Fifo<Flit>) {
        debug_assert!(self.staged.is_empty(), "mirror recaptured uncommitted");
        self.free = buf.snap_free();
    }

    fn can_push(&self) -> bool {
        self.free > 0
    }

    fn push(&mut self, f: Flit) {
        assert!(self.free > 0, "push on full mirrored buffer");
        self.free -= 1;
        self.staged.push(f);
    }

    /// Replays the staged pushes onto the real buffer. The mirror granted
    /// at most `snap_free` pushes and the buffer has exactly one pusher
    /// per cycle (this mirror's region), so every replay must land.
    pub(crate) fn commit(&mut self, buf: &mut Fifo<Flit>) {
        for f in self.staged.drain(..) {
            assert!(buf.push(f).is_ok(), "mirror over-granted a push");
        }
    }
}

/// Everything one region's worker needs for its slice of the cycle.
#[derive(Debug)]
pub(crate) struct RegionCtx {
    /// The region's node range (router index == NI index == node).
    pub(crate) nodes: Range<usize>,
    /// The region's buffers *except* boundary ones (those are begun and
    /// mirror-captured in the serial pre-phase), ascending.
    pub(crate) interior_bufs: Vec<usize>,
    /// Per global buffer: index into `mirrors`, or [`NO_MIRROR`].
    pub(crate) mirror_of: Vec<u32>,
    /// This region's push mirrors of foreign boundary buffers.
    pub(crate) mirrors: Vec<BufMirror>,
    /// Local-port deliveries collected this cycle, in ascending router
    /// order — replayed serially at commit.
    pub(crate) deliveries: Vec<Delivery>,
}

/// The full region partition of one baseline instance.
#[derive(Debug)]
pub(crate) struct Sharding {
    /// Boundary buffers as `(buffer, pusher_region)`, ascending by buffer
    /// index — the deterministic pre-phase/commit order.
    pub(crate) boundary: Vec<(usize, u32)>,
    /// One context per region, in region order.
    pub(crate) ctxs: Vec<RegionCtx>,
}

impl Sharding {
    /// Partitions a mesh into `map`'s row bands. `pusher(node, port)` names
    /// the node whose router pushes into the input buffer at
    /// `(node, port)` — the engine's neighbour function, since the
    /// upstream router in direction `p` feeds the port facing it.
    pub(crate) fn new(
        map: &RegionMap,
        vcs: usize,
        pusher: &dyn Fn(usize, usize) -> Option<usize>,
    ) -> Self {
        assert!(map.regions() > 1, "sharding needs at least two regions");
        let n = map.node_count();
        let bufs_per_node = PORTS * vcs;
        let num_bufs = n * bufs_per_node;
        let mut ctxs: Vec<RegionCtx> = (0..map.regions())
            .map(|r| RegionCtx {
                nodes: map.nodes(r),
                interior_bufs: Vec::new(),
                mirror_of: vec![NO_MIRROR; num_bufs],
                mirrors: Vec::new(),
                deliveries: Vec::new(),
            })
            .collect();
        let mut boundary = Vec::new();
        let mut is_boundary = vec![false; num_bufs];
        // Ascending (node, port, vc) ⇒ ascending buffer index: the
        // deterministic pre-phase/commit order.
        for node in 0..n {
            let owner = map.region_of(node);
            // LOCAL is fed by the node's own NI, never a foreign router.
            for p in 0..PORTS - 1 {
                let Some(up) = pusher(node, p) else { continue };
                let pr = map.region_of(up);
                if pr == owner {
                    continue;
                }
                let ctx = &mut ctxs[pr];
                for v in 0..vcs {
                    let b = Router::buf_index(node, p, v, vcs);
                    is_boundary[b] = true;
                    ctx.mirror_of[b] =
                        u32::try_from(ctx.mirrors.len()).expect("mirror count fits u32");
                    ctx.mirrors.push(BufMirror::default());
                    boundary.push((b, u32::try_from(pr).expect("region fits u32")));
                }
            }
        }
        for ctx in &mut ctxs {
            let start = ctx.nodes.start * bufs_per_node;
            let end = ctx.nodes.end * bufs_per_node;
            ctx.interior_bufs.extend(
                is_boundary[start..end]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &bd)| !bd)
                    .map(|(i, _)| start + i),
            );
        }
        Self { boundary, ctxs }
    }
}

/// One region's view of the flat buffer array during the parallel phase:
/// buffers of the region's own nodes resolve to the real [`Fifo`] in the
/// region's own slice, foreign downstream buffers to the region's push
/// mirror. Peek/pop of a foreign buffer panics — a partitioning bug fails
/// loudly.
pub(crate) struct ShardBufView<'a> {
    /// The buffers of the region's nodes, in buffer order.
    pub(crate) bufs: &'a mut [Fifo<Flit>],
    /// Global index of `bufs[0]`.
    pub(crate) base: usize,
    pub(crate) region: u32,
    pub(crate) mirror_of: &'a [u32],
    pub(crate) mirrors: &'a mut [BufMirror],
}

impl ShardBufView<'_> {
    /// Global buffer `idx` if it is one of the region's own.
    fn own(&self, idx: usize) -> Option<&Fifo<Flit>> {
        self.bufs.get(idx.wrapping_sub(self.base))
    }

    fn own_mut(&mut self, idx: usize) -> Option<&mut Fifo<Flit>> {
        self.bufs.get_mut(idx.wrapping_sub(self.base))
    }

    fn mirror_index(&self, idx: usize) -> usize {
        let m = self.mirror_of[idx];
        assert!(
            m != NO_MIRROR,
            "region {} touched buffer {idx} it neither owns nor pushes",
            self.region
        );
        m as usize
    }

    /// Whether `idx` accepts a push this cycle.
    pub(crate) fn can_push(&self, idx: usize) -> bool {
        match self.own(idx) {
            Some(buf) => buf.can_push(),
            None => self.mirrors[self.mirror_index(idx)].can_push(),
        }
    }

    /// Pushes into `idx` (caller checked [`can_push`](Self::can_push)).
    pub(crate) fn push(&mut self, idx: usize, f: Flit) {
        if let Some(buf) = self.own_mut(idx) {
            assert!(buf.push(f).is_ok(), "push on full buffer");
        } else {
            let m = self.mirror_index(idx);
            self.mirrors[m].push(f);
        }
    }

    /// The flit poppable from `idx` this cycle (own buffers only).
    pub(crate) fn peek(&self, idx: usize) -> Option<Flit> {
        let buf = self.own(idx).expect("peek on a foreign buffer");
        buf.peek().copied()
    }

    /// Pops the flit at the consumer end of `idx` (own buffers only).
    pub(crate) fn pop(&mut self, idx: usize) -> Option<Flit> {
        self.own_mut(idx).expect("pop on a foreign buffer").pop()
    }
}

/// How a router touches the flat buffer array, abstracted so the same
/// `Router::step` code runs against the real buffers (serial engine:
/// `[Fifo<Flit>]`) or a region's `ShardBufView`. `peek` returns flits by
/// value ([`Flit`] is `Copy`) so no borrow outlives the call.
pub trait BufTable {
    /// The flit poppable from buffer `idx` this cycle, if any.
    fn peek(&self, idx: usize) -> Option<Flit>;
    /// Pops the flit at the consumer end of buffer `idx`.
    fn pop(&mut self, idx: usize) -> Option<Flit>;
    /// Whether buffer `idx` accepts a push this cycle.
    fn can_push(&self, idx: usize) -> bool;
    /// Pushes into buffer `idx` (caller checked
    /// [`can_push`](Self::can_push)).
    fn push(&mut self, idx: usize, f: Flit);
}

/// The serial engine's view: the plain buffer array itself.
impl BufTable for [Fifo<Flit>] {
    fn peek(&self, idx: usize) -> Option<Flit> {
        self[idx].peek().copied()
    }
    fn pop(&mut self, idx: usize) -> Option<Flit> {
        self[idx].pop()
    }
    fn can_push(&self, idx: usize) -> bool {
        self[idx].can_push()
    }
    fn push(&mut self, idx: usize, f: Flit) {
        assert!(self[idx].push(f).is_ok(), "push on full buffer");
    }
}

impl BufTable for ShardBufView<'_> {
    fn peek(&self, idx: usize) -> Option<Flit> {
        ShardBufView::peek(self, idx)
    }
    fn pop(&mut self, idx: usize) -> Option<Flit> {
        ShardBufView::pop(self, idx)
    }
    fn can_push(&self, idx: usize) -> bool {
        ShardBufView::can_push(self, idx)
    }
    fn push(&mut self, idx: usize, f: Flit) {
        ShardBufView::push(self, idx, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::FlitKind;
    use crate::txn::TxRecord;
    use simkit::Slab;
    use traffic::{Transfer, TransferKind};

    fn flit(arena: &mut Slab<TxRecord>) -> Flit {
        let tx = arena.alloc(TxRecord::new(
            0,
            Transfer {
                id: 1,
                dst: 1,
                offset: 0,
                bytes: 4,
                kind: TransferKind::Write,
            },
            1,
        ));
        Flit {
            kind: FlitKind::Head,
            src: 0,
            dst: 1,
            tx,
            payload: 4,
            injected_at: 0,
        }
    }

    #[test]
    fn mirror_credit_matches_the_snapshot_and_commit_replays() {
        let mut arena = Slab::new();
        let mut buf: Fifo<Flit> = Fifo::new(2);
        buf.begin_cycle();
        let mut m = BufMirror::default();
        m.capture(&buf);
        assert!(m.can_push());
        m.push(flit(&mut arena));
        m.push(flit(&mut arena));
        assert!(!m.can_push(), "depth-2 buffer grants exactly two pushes");
        m.commit(&mut buf);
        assert_eq!(buf.len(), 2);
        // The flits become poppable next cycle, like a direct push.
        assert!(buf.peek().is_none());
        buf.begin_cycle();
        assert!(buf.peek().is_some());
    }

    #[test]
    #[should_panic(expected = "neither owns nor pushes")]
    fn foreign_buffer_access_panics() {
        let mut bufs: Vec<Fifo<Flit>> = (0..2).map(|_| Fifo::new(2)).collect();
        let view = ShardBufView {
            bufs: &mut bufs[..1],
            base: 0,
            region: 0,
            mirror_of: &[NO_MIRROR; 2],
            mirrors: &mut [],
        };
        // Buffer 1 belongs to region 1 and region 0 holds no mirror of it.
        let _ = view.can_push(1);
    }
}
