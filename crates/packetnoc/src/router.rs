//! Input-buffered wormhole router with virtual channels.
//!
//! The classical NoC router: flits buffered per input VC, XY-routed at the
//! head flit, switch-allocated with round-robin arbitration, forwarded at
//! one flit per cycle per physical link with credit-accurate backpressure
//! (modelled by pushing directly into the downstream input buffer, whose
//! two-phase occupancy *is* the credit count).

use crate::shard::BufTable;
use crate::snapcodec::corrupt;
use crate::txn::TxHandle;
use simkit::snap::{Decoder, Encoder, SnapError};
use simkit::RoundRobinArbiter;

/// Flit position within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit: carries routing info and the packet's payload accounting.
    Head,
    /// Intermediate flit.
    Body,
    /// Last flit: closes the wormhole.
    Tail,
}

/// One flit on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Position in the packet.
    pub kind: FlitKind,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Handle of the slab-resident [`TxRecord`](crate::txn::TxRecord) this
    /// packet belongs to — the transaction flows through the mesh by
    /// handle, so tail delivery retires it with a direct arena access
    /// instead of a hash lookup.
    pub tx: TxHandle,
    /// Payload bytes accounted to this packet (head flit only; 0 otherwise).
    pub payload: u32,
    /// Cycle the packet was injected (head flit; latency statistics).
    pub injected_at: u64,
}

/// Router ports: N, E, S, W, Local — shared with the PATRONoC convention.
pub const PORTS: usize = 5;

/// Local (endpoint) port index.
pub const LOCAL: usize = 4;

/// Mesh directions in port order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// Row − 1.
    North,
    /// Column + 1.
    East,
    /// Row + 1.
    South,
    /// Column − 1.
    West,
    /// The endpoint.
    Local,
}

impl Port {
    /// Port index.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Port::North => 0,
            Port::East => 1,
            Port::South => 2,
            Port::West => 3,
            Port::Local => 4,
        }
    }

    /// The receiving port at the neighbour this port points to.
    #[must_use]
    pub fn opposite(self) -> Self {
        match self {
            Port::North => Port::South,
            Port::East => Port::West,
            Port::South => Port::North,
            Port::West => Port::East,
            Port::Local => Port::Local,
        }
    }
}

/// XY route computation: which output port does a packet at `node` take to
/// reach `dst` on a `cols`-wide mesh?
#[must_use]
pub fn xy_route(cols: usize, node: usize, dst: usize) -> Port {
    let (x, y) = (node % cols, node / cols);
    let (dx, dy) = (dst % cols, dst / cols);
    if dx > x {
        Port::East
    } else if dx < x {
        Port::West
    } else if dy > y {
        Port::South
    } else if dy < y {
        Port::North
    } else {
        Port::Local
    }
}

/// The most virtual channels a router supports: sizes the per-cycle
/// candidate arrays [`Router::step`] keeps on the stack.
pub const MAX_VCS: usize = 16;

/// Output ports in index order.
const PORT_ORDER: [Port; PORTS] = [
    Port::North,
    Port::East,
    Port::South,
    Port::West,
    Port::Local,
];

/// Per-router wormhole state. Input buffers live in the engine's flat
/// buffer array so neighbouring routers can push into them directly.
#[derive(Debug, Clone)]
pub struct Router {
    node: usize,
    cols: usize,
    vcs: usize,
    /// XY route per on-mesh destination node: the output port index.
    route: Vec<u8>,
    /// Lock per (output port, vc): the input port whose packet owns it.
    out_lock: Vec<Option<usize>>,
    /// Switch arbiter per output port over (input × vc) candidates.
    arb: Vec<RoundRobinArbiter>,
}

/// A flit delivered to the local endpoint this cycle.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// The delivered flit.
    pub flit: Flit,
}

impl Router {
    /// Creates the router for `node` on a `cols × rows` mesh with `vcs`
    /// virtual channels.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero or exceeds [`MAX_VCS`].
    #[must_use]
    pub fn new(node: usize, cols: usize, rows: usize, vcs: usize) -> Self {
        assert!((1..=MAX_VCS).contains(&vcs), "vcs out of range");
        Self {
            node,
            cols,
            vcs,
            route: (0..cols * rows)
                .map(|dst| xy_route(cols, node, dst).index() as u8)
                .collect(),
            out_lock: vec![None; PORTS * vcs],
            arb: (0..PORTS)
                .map(|_| RoundRobinArbiter::new(PORTS * vcs))
                .collect(),
        }
    }

    /// The node this router serves.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Index of this router's input buffer for (port, vc) in the engine's
    /// flat buffer array.
    #[must_use]
    pub fn buf_index(node: usize, port: usize, vc: usize, vcs: usize) -> usize {
        (node * PORTS + port) * vcs + vc
    }

    /// The output port index a head flit for `dst` takes. A destination
    /// off the mesh, which only a deliberately broken stimulus produces
    /// (the deadlock-watchdog tests inject them), has no table entry and
    /// routes by the XY arithmetic.
    fn route_of(&self, dst: usize) -> usize {
        match self.route.get(dst) {
            Some(&port) => usize::from(port),
            None => xy_route(self.cols, self.node, dst).index(),
        }
    }

    /// The outputs input candidate `c` (= input port × vcs + vc) asks for
    /// this cycle, as a bit mask: a head flit asks for its route while
    /// that output's VC is unlocked, a body or tail flit for the output
    /// its packet holds. No u-turns, except on the local port.
    fn wants<B: BufTable + ?Sized>(&self, bufs: &B, c: usize) -> u8 {
        let (i, v) = (c / self.vcs, c % self.vcs);
        let Some(flit) = bufs.peek(Self::buf_index(self.node, i, v, self.vcs)) else {
            return 0;
        };
        let lock = |o: usize| self.out_lock[o * self.vcs + v];
        let mask = match flit.kind {
            FlitKind::Head => {
                let o = self.route_of(flit.dst);
                u8::from(lock(o).is_none()) << o
            }
            FlitKind::Body | FlitKind::Tail => (0..PORTS)
                .filter(|&o| lock(o) == Some(i))
                .fold(0, |m, o| m | 1 << o),
        };
        if i == LOCAL {
            mask
        } else {
            mask & !(1 << i)
        }
    }

    /// One switch-allocation cycle: for every output port, forward at most
    /// one flit from an input VC. `bufs` is the engine's flat buffer array
    /// — either the real `[Fifo<Flit>]` (serial sweep) or a region's
    /// `ShardBufView`; `neighbor` maps an
    /// output port to the neighbouring node. Flits switched to the local
    /// port are appended to `delivered`; `on_push` is called with the
    /// downstream buffer index of every flit forwarded to a neighbour —
    /// the activity scheduler's precise wake signal (a credit-blocked
    /// router forwards nothing and wakes nobody).
    ///
    /// Each input VC's head is read once per cycle. A grant at (output
    /// `o`, candidate `c`) changes only candidate `c`'s buffer and the
    /// locks of output `o`, which is never visited again this cycle, so
    /// only candidate `c` is re-read. The step allocates nothing itself:
    /// `delivered` is the caller's buffer, reused across cycles.
    pub fn step<B: BufTable + ?Sized>(
        &mut self,
        bufs: &mut B,
        neighbor: &dyn Fn(usize, Port) -> Option<usize>,
        on_push: &mut dyn FnMut(usize),
        delivered: &mut Vec<Delivery>,
    ) {
        let vcs = self.vcs;
        let candidates = PORTS * vcs;
        let mut wants = [0u8; PORTS * MAX_VCS];
        // Bit o: some candidate asks for output o.
        let mut wanted = 0u8;
        for (c, w) in wants.iter_mut().enumerate().take(candidates) {
            *w = self.wants(bufs, c);
            wanted |= *w;
        }
        for (out, &out_port) in PORT_ORDER.iter().enumerate() {
            if wanted >> out & 1 == 0 {
                continue;
            }
            // The downstream node; the local port delivers to the endpoint.
            let down_node = if out == LOCAL {
                None
            } else {
                let Some(nb) = neighbor(self.node, out_port) else {
                    continue; // edge of the mesh: no output here
                };
                Some(nb)
            };
            let down_buf =
                |nb: usize, v: usize| Self::buf_index(nb, out_port.opposite().index(), v, vcs);
            let mut elig = 0u128;
            for (c, &w) in wants.iter().enumerate().take(candidates) {
                // Credit check: space in the downstream buffer (local
                // delivery is always accepted).
                if w >> out & 1 == 1
                    && down_node.is_none_or(|nb| bufs.can_push(down_buf(nb, c % vcs)))
                {
                    elig |= 1 << c;
                }
            }
            let Some(winner) = self.arb[out].grant(|c| elig >> c & 1 == 1) else {
                continue;
            };
            let (i, v) = (winner / vcs, winner % vcs);
            let flit = bufs
                .pop(Self::buf_index(self.node, i, v, vcs))
                .expect("eligible flit exists");
            // Update the wormhole lock.
            match flit.kind {
                FlitKind::Head => self.out_lock[out * vcs + v] = Some(i),
                FlitKind::Body => {}
                FlitKind::Tail => self.out_lock[out * vcs + v] = None,
            }
            match down_node {
                None => delivered.push(Delivery { flit }),
                Some(nb) => {
                    let didx = down_buf(nb, v);
                    bufs.push(didx, flit); // credit checked above
                    on_push(didx);
                }
            }
            // The pop may expose the next packet's head, bound for an
            // output still to come this cycle.
            wants[winner] = self.wants(bufs, winner);
            wanted |= wants[winner];
        }
    }

    /// Serializes the router's mutable state: the wormhole locks per
    /// (output, vc), then the switch arbiter cursors per output port.
    pub(crate) fn encode_state(&self, e: &mut Encoder) {
        for lock in &self.out_lock {
            e.option(lock.as_ref(), |e, &input| e.usize(input));
        }
        for arb in &self.arb {
            e.usize(arb.cursor());
        }
    }

    /// Restores state written by [`encode_state`](Self::encode_state),
    /// bounding every lock holder and arbiter cursor before accepting it.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on a lock naming a non-existent input port or an
    /// out-of-range cursor.
    pub(crate) fn restore_state(&mut self, d: &mut Decoder<'_>) -> Result<(), SnapError> {
        for lock in &mut self.out_lock {
            let holder = d.option(|d| d.usize())?;
            if holder.is_some_and(|input| input >= PORTS) {
                return Err(corrupt("wormhole lock held by a non-existent port"));
            }
            *lock = holder;
        }
        for arb in &mut self.arb {
            arb.set_cursor(d.usize()?).map_err(corrupt)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::TxRecord;
    use proptest::prelude::*;
    use simkit::{Fifo, Rng, Slab};
    use std::collections::VecDeque;
    use traffic::{Transfer, TransferKind};

    /// Allocates a one-packet transfer record so the test flits carry a
    /// live handle; distinct handles distinguish packets where the old
    /// tests compared raw transfer ids.
    fn new_tx(arena: &mut Slab<TxRecord>, dst: usize) -> TxHandle {
        arena.alloc(TxRecord::new(
            0,
            Transfer {
                id: 1,
                dst,
                offset: 0,
                bytes: 4,
                kind: TransferKind::Write,
            },
            1,
        ))
    }

    #[test]
    fn xy_route_reaches_destination() {
        // 4×4 mesh, from 0 to 10 = (2,2): East, East, South, South.
        let mut node = 0;
        let mut hops = Vec::new();
        loop {
            let p = xy_route(4, node, 10);
            if p == Port::Local {
                break;
            }
            hops.push(p);
            node = match p {
                Port::East => node + 1,
                Port::West => node - 1,
                Port::South => node + 4,
                Port::North => node - 4,
                Port::Local => unreachable!(),
            };
        }
        assert_eq!(node, 10);
        assert_eq!(hops.len(), 4);
        // X first:
        assert_eq!(hops[0], Port::East);
        assert_eq!(hops[1], Port::East);
        assert_eq!(hops[2], Port::South);
    }

    fn mk_bufs(nodes: usize, vcs: usize, depth: usize) -> Vec<Fifo<Flit>> {
        (0..nodes * PORTS * vcs).map(|_| Fifo::new(depth)).collect()
    }

    fn head(dst: usize, tx: TxHandle) -> Flit {
        Flit {
            kind: FlitKind::Head,
            src: 0,
            dst,
            tx,
            payload: 4,
            injected_at: 0,
        }
    }

    fn tail(dst: usize, tx: TxHandle) -> Flit {
        Flit {
            kind: FlitKind::Tail,
            ..head(dst, tx)
        }
    }

    /// 1×2 mesh: node 0 and node 1, East/West neighbours.
    fn two_node_neighbor(node: usize, p: Port) -> Option<usize> {
        match (node, p) {
            (0, Port::East) => Some(1),
            (1, Port::West) => Some(0),
            _ => None,
        }
    }

    #[test]
    fn flit_crosses_one_hop_per_cycle() {
        let vcs = 1;
        let mut arena = Slab::new();
        let mut bufs = mk_bufs(2, vcs, 4);
        let mut r0 = Router::new(0, 2, 1, vcs);
        let mut r1 = Router::new(1, 2, 1, vcs);
        // Inject a 2-flit packet at node 0's local port, destined to 1.
        for b in &mut bufs {
            b.begin_cycle();
        }
        let tx = new_tx(&mut arena, 1);
        let local0 = Router::buf_index(0, LOCAL, 0, vcs);
        bufs[local0].push(head(1, tx)).unwrap();
        bufs[local0].push(tail(1, tx)).unwrap();
        let mut delivered = Vec::new();
        for _cycle in 0..10 {
            for b in &mut bufs {
                b.begin_cycle();
            }
            r0.step(
                bufs.as_mut_slice(),
                &two_node_neighbor,
                &mut |_| {},
                &mut delivered,
            );
            r1.step(
                bufs.as_mut_slice(),
                &two_node_neighbor,
                &mut |_| {},
                &mut delivered,
            );
        }
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0].flit.kind, FlitKind::Head);
        assert_eq!(delivered[1].flit.kind, FlitKind::Tail);
    }

    #[test]
    fn wormhole_does_not_interleave_packets() {
        let vcs = 1;
        let mut arena = Slab::new();
        let mut bufs = mk_bufs(2, vcs, 8);
        let mut r0 = Router::new(0, 2, 1, vcs);
        let mut r1 = Router::new(1, 2, 1, vcs);
        for b in &mut bufs {
            b.begin_cycle();
        }
        // Two packets from different inputs heading East: one from Local,
        // one from... Local only; instead inject one packet at local and one
        // at the North input buffer (as if it existed).
        let local0 = Router::buf_index(0, LOCAL, 0, vcs);
        let north0 = Router::buf_index(0, 0, 0, vcs);
        let tx_a = new_tx(&mut arena, 1);
        let tx_b = new_tx(&mut arena, 1);
        bufs[local0].push(head(1, tx_a)).unwrap();
        bufs[north0].push(head(1, tx_b)).unwrap();
        // Tails injected later, to try to force interleaving.
        let mut delivered = Vec::new();
        for cycle in 0..12 {
            for b in &mut bufs {
                b.begin_cycle();
            }
            if cycle == 2 {
                bufs[local0].push(tail(1, tx_a)).unwrap();
                bufs[north0].push(tail(1, tx_b)).unwrap();
            }
            r0.step(
                bufs.as_mut_slice(),
                &two_node_neighbor,
                &mut |_| {},
                &mut delivered,
            );
            r1.step(
                bufs.as_mut_slice(),
                &two_node_neighbor,
                &mut |_| {},
                &mut delivered,
            );
        }
        let order: Vec<TxHandle> = delivered.iter().map(|d| d.flit.tx).collect();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], order[1], "first packet contiguous: {order:?}");
        assert_eq!(order[2], order[3], "second packet contiguous: {order:?}");
    }

    #[test]
    fn backpressure_stalls_at_full_buffer() {
        let vcs = 1;
        let mut arena = Slab::new();
        // Downstream buffer of 2 flits and a receiver that never drains.
        let mut bufs = mk_bufs(2, vcs, 2);
        let mut r0 = Router::new(0, 2, 1, vcs);
        for b in &mut bufs {
            b.begin_cycle();
        }
        let tx = new_tx(&mut arena, 1);
        let local0 = Router::buf_index(0, LOCAL, 0, vcs);
        bufs[local0].push(head(1, tx)).unwrap();
        bufs[local0]
            .push(Flit {
                kind: FlitKind::Body,
                ..head(1, tx)
            })
            .unwrap();
        for _ in 0..10 {
            for b in &mut bufs {
                b.begin_cycle();
            }
            r0.step(
                bufs.as_mut_slice(),
                &two_node_neighbor,
                &mut |_| {},
                &mut Vec::new(),
            );
        }
        // Node 1 never runs: its West input buffer holds exactly 2 flits.
        let west1 = Router::buf_index(1, Port::West.index(), 0, vcs);
        assert_eq!(bufs[west1].len(), 2);
        assert!(bufs[local0].is_empty(), "both flits left node 0");
    }

    #[test]
    fn separate_vcs_can_interleave_on_link() {
        let vcs = 2;
        let mut arena = Slab::new();
        let mut bufs = mk_bufs(2, vcs, 8);
        let mut r0 = Router::new(0, 2, 1, vcs);
        for b in &mut bufs {
            b.begin_cycle();
        }
        // One long packet per VC, both heading East.
        for v in 0..2 {
            let idx = Router::buf_index(0, LOCAL, v, vcs);
            let tx = new_tx(&mut arena, 1);
            bufs[idx].push(head(1, tx)).unwrap();
            bufs[idx].push(tail(1, tx)).unwrap();
        }
        let mut sent = Vec::new();
        for _ in 0..10 {
            for b in &mut bufs {
                b.begin_cycle();
            }
            r0.step(
                bufs.as_mut_slice(),
                &two_node_neighbor,
                &mut |_| {},
                &mut Vec::new(),
            );
            for v in 0..2 {
                let widx = Router::buf_index(1, Port::West.index(), v, vcs);
                if let Some(f) = bufs[widx].pop() {
                    sent.push(f.tx);
                }
            }
        }
        // All four flits crossed the single physical link.
        assert_eq!(sent.len(), 4);
        // And both VCs made progress before either packet finished
        // (flit-level multiplexing): the sequence is not two contiguous
        // pairs of the same transfer.
        assert!(
            sent[0] != sent[1] || sent[1] != sent[2],
            "no multiplexing: {sent:?}"
        );
    }

    /// 1×3 mesh: nodes 0, 1, 2 in a row.
    fn three_node_neighbor(node: usize, p: Port) -> Option<usize> {
        match (node, p) {
            (0 | 1, Port::East) => Some(node + 1),
            (1 | 2, Port::West) => Some(node - 1),
            _ => None,
        }
    }

    fn begin_all(bufs: &mut [Fifo<Flit>]) {
        for b in bufs {
            b.begin_cycle();
        }
    }

    #[test]
    fn a_grant_exposes_the_next_head_to_a_later_output() {
        let vcs = 1;
        let mut arena = Slab::new();
        let mut bufs = mk_bufs(3, vcs, 4);
        let mut r1 = Router::new(1, 3, 1, vcs);
        let west1 = Router::buf_index(1, Port::West.index(), 0, vcs);
        let (p1, p2) = (new_tx(&mut arena, 2), new_tx(&mut arena, 1));
        let mut delivered = Vec::new();
        begin_all(&mut bufs);
        bufs[west1].push(head(2, p1)).unwrap();
        // P1's head passes East and locks the East output.
        begin_all(&mut bufs);
        r1.step(
            bufs.as_mut_slice(),
            &three_node_neighbor,
            &mut |_| {},
            &mut delivered,
        );
        bufs[west1].push(tail(2, p1)).unwrap();
        bufs[west1].push(head(1, p2)).unwrap();
        // One cycle with [P1 tail, P2 head] in the West input. East is
        // arbitrated before Local, so P2's head reaches the front only
        // through the refresh after the tail's grant.
        begin_all(&mut bufs);
        r1.step(
            bufs.as_mut_slice(),
            &three_node_neighbor,
            &mut |_| {},
            &mut delivered,
        );
        assert!(bufs[west1].is_empty(), "tail and head left in one cycle");
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].flit, head(1, p2));
        let east2 = Router::buf_index(2, Port::West.index(), 0, vcs);
        assert_eq!(bufs[east2].len(), 2, "P1's head and tail went East");
    }

    #[test]
    fn off_mesh_destinations_route_by_arithmetic() {
        let r = Router::new(4, 3, 3, 1);
        for dst in 0..20 {
            assert_eq!(r.route_of(dst), xy_route(3, 4, dst).index(), "dst {dst}");
        }
    }

    /// The nested-loop switch allocation: the oracle for `Router::step`.
    /// Every output peeks every input VC and recomputes the XY route.
    fn reference_step(
        r: &mut Router,
        bufs: &mut [Fifo<Flit>],
        neighbor: &dyn Fn(usize, Port) -> Option<usize>,
        on_push: &mut dyn FnMut(usize),
    ) -> Vec<Delivery> {
        let mut delivered = Vec::new();
        let vcs = r.vcs;
        for (out, &out_port) in PORT_ORDER.iter().enumerate() {
            let down_node = if out == LOCAL {
                None
            } else {
                let Some(nb) = neighbor(r.node, out_port) else {
                    continue;
                };
                Some(nb)
            };
            let mut elig = vec![false; PORTS * vcs];
            for i in 0..PORTS {
                if i == out && i != LOCAL {
                    continue;
                }
                for v in 0..vcs {
                    let bidx = Router::buf_index(r.node, i, v, vcs);
                    let Some(flit) = BufTable::peek(bufs, bidx) else {
                        continue;
                    };
                    let lock = r.out_lock[out * vcs + v];
                    let wants_out = match flit.kind {
                        FlitKind::Head => {
                            lock.is_none() && xy_route(r.cols, r.node, flit.dst).index() == out
                        }
                        _ => lock == Some(i),
                    };
                    if !wants_out {
                        continue;
                    }
                    let has_credit = match down_node {
                        None => true,
                        Some(nb) => {
                            let didx = Router::buf_index(nb, out_port.opposite().index(), v, vcs);
                            BufTable::can_push(bufs, didx)
                        }
                    };
                    if has_credit {
                        elig[i * vcs + v] = true;
                    }
                }
            }
            let Some(winner) = r.arb[out].grant(|c| elig[c]) else {
                continue;
            };
            let (i, v) = (winner / vcs, winner % vcs);
            let bidx = Router::buf_index(r.node, i, v, vcs);
            let flit = BufTable::pop(bufs, bidx).expect("eligible flit exists");
            match flit.kind {
                FlitKind::Head => r.out_lock[out * vcs + v] = Some(i),
                FlitKind::Body => {}
                FlitKind::Tail => r.out_lock[out * vcs + v] = None,
            }
            match down_node {
                None => delivered.push(Delivery { flit }),
                Some(nb) => {
                    let didx = Router::buf_index(nb, out_port.opposite().index(), v, vcs);
                    BufTable::push(bufs, didx, flit);
                    on_push(didx);
                }
            }
        }
        delivered
    }

    /// 3×3 mesh neighbours.
    fn mesh3_neighbor(node: usize, p: Port) -> Option<usize> {
        let (x, y) = (node % 3, node / 3);
        match p {
            Port::North => (y > 0).then(|| node - 3),
            Port::South => (y < 2).then(|| node + 3),
            Port::East => (x < 2).then(|| node + 1),
            Port::West => (x > 0).then(|| node - 1),
            Port::Local => None,
        }
    }

    /// One buffer as the property test compares it: contents, `snap_len`,
    /// `snap_free`.
    type BufState = (Vec<Flit>, usize, usize);

    /// The centre router of a 3×3 mesh with random packet streams on every
    /// input VC and random drains on every downstream buffer.
    #[derive(Clone)]
    struct Harness {
        router: Router,
        bufs: Vec<Fifo<Flit>>,
        vcs: usize,
        /// Records for the injected packets' handles.
        arena: Slab<TxRecord>,
        /// Per input VC: flits of the packets still to inject, in order.
        todo: Vec<VecDeque<Flit>>,
        /// Local deliveries and downstream pushes, in event order.
        events: Vec<(bool, usize, Flit)>,
    }

    impl Harness {
        const NODE: usize = 4;

        fn new(vcs: usize) -> Self {
            Self {
                router: Router::new(Self::NODE, 3, 3, vcs),
                bufs: mk_bufs(9, vcs, 3),
                vcs,
                arena: Slab::new(),
                todo: vec![VecDeque::new(); PORTS * vcs],
                events: Vec::new(),
            }
        }

        /// Queues a random packet on input VC `c`: 2–4 flits to a random
        /// destination that input can route to (no u-turn), sometimes off
        /// the mesh.
        fn queue_packet(&mut self, rng: &mut Rng, c: usize) {
            let port = c / self.vcs;
            let legal: Vec<usize> = (0..12)
                .filter(|&d| port == LOCAL || xy_route(3, Self::NODE, d).index() != port)
                .collect();
            let dst = legal[rng.gen_range(legal.len() as u64) as usize];
            let tx = new_tx(&mut self.arena, dst);
            let len = 2 + rng.gen_range(3);
            for k in 0..len {
                let kind = match k {
                    0 => FlitKind::Head,
                    k if k + 1 == len => FlitKind::Tail,
                    _ => FlitKind::Body,
                };
                self.todo[c].push_back(Flit {
                    kind,
                    injected_at: k,
                    ..head(dst, tx)
                });
            }
        }

        /// One cycle: begin every buffer, inject, step the router (the
        /// oracle if `reference`), then drain downstream buffers.
        fn cycle(&mut self, rng: &mut Rng, reference: bool) {
            for b in &mut self.bufs {
                b.begin_cycle();
            }
            for c in 0..PORTS * self.vcs {
                if rng.gen_bool(0.2) && self.todo[c].len() < 8 {
                    self.queue_packet(rng, c);
                }
                let idx = Router::buf_index(Self::NODE, c / self.vcs, c % self.vcs, self.vcs);
                if rng.gen_bool(0.8) && self.bufs[idx].can_push() {
                    if let Some(f) = self.todo[c].pop_front() {
                        self.bufs[idx].push(f).unwrap();
                    }
                }
            }
            let mut pushed = Vec::new();
            let mut delivered = Vec::new();
            if reference {
                delivered = reference_step(
                    &mut self.router,
                    &mut self.bufs,
                    &mesh3_neighbor,
                    &mut |d| pushed.push(d),
                );
            } else {
                self.router.step(
                    self.bufs.as_mut_slice(),
                    &mesh3_neighbor,
                    &mut |d| pushed.push(d),
                    &mut delivered,
                );
            }
            for d in pushed {
                let flit = *self.bufs[d].iter().last().unwrap();
                self.events.push((false, d, flit));
            }
            self.events
                .extend(delivered.into_iter().map(|d| (true, LOCAL, d.flit)));
            // Downstream routers drain their input buffers facing node 4.
            for node in [1, 3, 5, 7] {
                for b in Router::buf_index(node, 0, 0, self.vcs)
                    ..Router::buf_index(node + 1, 0, 0, self.vcs)
                {
                    if rng.gen_bool(0.3) {
                        self.bufs[b].pop();
                    }
                }
            }
        }

        /// The router's `encode_state` bytes and every buffer's contents
        /// and cycle snapshot.
        fn state(&self) -> (Vec<u8>, Vec<BufState>) {
            let mut e = simkit::snap::Encoder::new(0, 0);
            self.router.encode_state(&mut e);
            let bufs = self
                .bufs
                .iter()
                .map(|b| (b.iter().copied().collect(), b.snap_len(), b.snap_free()))
                .collect();
            (e.finish(), bufs)
        }
    }

    proptest! {
        #[test]
        fn head_cached_step_matches_the_nested_loop_oracle(
            seed in any::<u64>(),
            vcs in 1usize..=3,
        ) {
            let mut fast = Harness::new(vcs);
            let mut slow = fast.clone();
            let (mut rng_fast, mut rng_slow) = (Rng::new(seed), Rng::new(seed));
            for c in 0..300 {
                fast.cycle(&mut rng_fast, false);
                slow.cycle(&mut rng_slow, true);
                prop_assert!(fast.events == slow.events, "events diverged at cycle {}", c);
                prop_assert!(fast.state() == slow.state(), "state diverged at cycle {}", c);
            }
            prop_assert!(fast.events.len() > 100, "harness too quiet: {} moves", fast.events.len());
        }
    }
}
