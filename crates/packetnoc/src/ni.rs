//! The network interface (NI): protocol translation at every endpoint.
//!
//! This block is the cost the paper's argument centres on: a classical NoC
//! speaks its own serial packet format, so every endpoint needs translation
//! from the bus protocol (packetization + SERDES). The NI chops each DMA
//! transfer into fixed-length packets (`packet_flits` flits carrying
//! `payload_per_packet` useful bytes each) and serializes them onto the
//! 32-bit local link one flit per cycle.
//!
//! In-flight transfers live in the engine-owned [`Slab`] arena
//! ([`TxRecord`]): the NI's transmit queue is an intrusive
//! [`HandleQueue`] over that arena, and every emitted flit carries the
//! record's handle — no owned heap queue, no per-packet map updates.

use crate::config::PacketNocConfig;
use crate::router::{Flit, FlitKind};
use crate::snapcodec::corrupt;
use crate::txn::{TxHandle, TxRecord};
use simkit::snap::{Decoder, Encoder, SnapError};
use simkit::{Cycle, HandleQueue, Slab};

/// Per-node network interface (transmit side; receive is a sink handled by
/// the engine).
#[derive(Debug, Clone)]
pub struct NetworkInterface {
    node: usize,
    packet_flits: u16,
    payload_per_packet: u32,
    queue: HandleQueue<TxRecord>,
    /// Flits of the packet currently being serialized.
    emit_left: u16,
    emit_dst: usize,
    emit_tx: Option<TxHandle>,
    emit_payload: u32,
    emit_started: Cycle,
    /// Round-robin VC pointer for injection.
    next_vc: usize,
    packets_injected: u64,
}

impl NetworkInterface {
    /// Creates the NI for `node`.
    #[must_use]
    pub fn new(node: usize, cfg: &PacketNocConfig) -> Self {
        Self {
            node,
            packet_flits: cfg.packet_flits,
            payload_per_packet: cfg.payload_per_packet,
            queue: HandleQueue::new(),
            emit_left: 0,
            emit_dst: 0,
            emit_tx: None,
            emit_payload: 0,
            emit_started: 0,
            next_vc: 0,
            packets_injected: 0,
        }
    }

    /// The node this NI serves.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Packets a transfer of `bytes` becomes.
    #[must_use]
    pub fn packets_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(u64::from(self.payload_per_packet)).max(1)
    }

    /// Queues an in-flight record (already allocated in `txs` by the
    /// engine, with its packet counts set from
    /// [`packets_for`](Self::packets_for)) for transmission.
    pub fn enqueue(&mut self, txs: &mut Slab<TxRecord>, h: TxHandle) {
        self.queue.push_back(txs, h);
    }

    /// Whether the NI has nothing queued or mid-emission.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.emit_left == 0
    }

    /// Transfers waiting for packetization (the engine stops polling its
    /// traffic source at [`NI_QUEUE_CAP`](crate::config::NI_QUEUE_CAP)).
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Total packets injected so far.
    #[must_use]
    pub fn packets_injected(&self) -> u64 {
        self.packets_injected
    }

    /// Emits at most one flit this cycle. `try_push` attempts to inject a
    /// flit on the local port of this node's router for a given VC and
    /// returns whether it was accepted.
    pub fn step<F: FnMut(usize, Flit) -> bool>(
        &mut self,
        now: Cycle,
        vcs: usize,
        txs: &mut Slab<TxRecord>,
        mut try_push: F,
    ) {
        // Start the next packet if idle.
        if self.emit_left == 0 {
            let ppp = u64::from(self.payload_per_packet);
            let Some(h) = self.queue.front(txs) else {
                return;
            };
            let tx = &mut txs[h];
            // Payload accounted to this packet (last packet may be short).
            let total_packets = tx.transfer.bytes.div_ceil(ppp).max(1);
            let done = total_packets - tx.to_send;
            let sent_bytes = done * u64::from(self.payload_per_packet);
            let payload =
                (tx.transfer.bytes - sent_bytes).min(u64::from(self.payload_per_packet)) as u32;
            self.emit_left = self.packet_flits;
            self.emit_dst = tx.transfer.dst;
            self.emit_tx = Some(h);
            self.emit_payload = payload;
            self.emit_started = now;
            // Pick the next VC round-robin per packet.
            self.next_vc = (self.next_vc + 1) % vcs;
            tx.to_send -= 1;
            if tx.to_send == 0 {
                self.queue.pop_front(txs);
            }
        }
        // Serialize one flit.
        let kind = if self.emit_left == self.packet_flits {
            FlitKind::Head
        } else if self.emit_left == 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        let flit = Flit {
            kind,
            src: self.node,
            dst: self.emit_dst,
            tx: self.emit_tx.expect("mid-packet emission has a record"),
            payload: if kind == FlitKind::Head {
                self.emit_payload
            } else {
                0
            },
            injected_at: self.emit_started,
        };
        if try_push(self.next_vc, flit) {
            self.emit_left -= 1;
            if self.emit_left == 0 {
                self.packets_injected += 1;
            }
        }
    }

    /// Walks every arena record this NI references — queue order first,
    /// then the record of the packet currently being serialized — the
    /// deterministic reference order snapshot canonicalization relies on.
    pub(crate) fn for_each_tx(&self, txs: &Slab<TxRecord>, mut f: impl FnMut(TxHandle)) {
        for h in self.queue.iter(txs) {
            f(h);
        }
        if self.emit_left > 0 {
            f(self.emit_tx.expect("mid-packet emission has a record"));
        }
    }

    /// Serializes the NI state into `e`. Record references are written as
    /// canonical record numbers via `canon`; the in-emission fields that
    /// only echo the record (`emit_dst`) or are dead while idle
    /// (`emit_payload`, `emit_started`, a stale `emit_tx` after a finished
    /// packet) are omitted or re-derived on decode, so two engines in the
    /// same logical state encode byte-identically.
    pub(crate) fn encode_state(
        &self,
        e: &mut Encoder,
        txs: &Slab<TxRecord>,
        canon: &mut dyn FnMut(TxHandle) -> u64,
    ) {
        e.usize(self.queue.len());
        for h in self.queue.iter(txs) {
            e.u64(canon(h));
        }
        e.u16(self.emit_left);
        if self.emit_left > 0 {
            e.u64(canon(
                self.emit_tx.expect("mid-packet emission has a record"),
            ));
            e.u32(self.emit_payload);
            e.u64(self.emit_started);
        }
        e.usize(self.next_vc);
        e.u64(self.packets_injected);
    }

    /// Restores state written by [`encode_state`](Self::encode_state) into
    /// this freshly built NI. `resolve` maps a canonical record number to
    /// the re-allocated handle plus the record's source node and transfer
    /// destination; its `exclusive` flag marks queue membership so a
    /// record can never be linked into a queue twice (which would clobber
    /// the intrusive links). Every reference is validated against this
    /// NI's identity and the record's packet accounting before any queue
    /// mutation that could not be expressed by a real run.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on any framing violation or reference that a live
    /// engine could not have produced.
    pub(crate) fn restore_state(
        &mut self,
        d: &mut Decoder<'_>,
        txs: &mut Slab<TxRecord>,
        vcs: usize,
        resolve: &mut dyn FnMut(u64, bool) -> Result<(TxHandle, usize, usize), SnapError>,
    ) -> Result<(), SnapError> {
        let queued = d.count("ni queue")?;
        for _ in 0..queued {
            let (h, src, _dst) = resolve(d.u64()?, true)?;
            if src != self.node {
                return Err(corrupt("queued record from another node"));
            }
            if txs[h].to_send == 0 {
                return Err(corrupt("queued record already fully serialized"));
            }
            self.queue.push_back(txs, h);
        }
        self.emit_left = d.u16()?;
        if self.emit_left > self.packet_flits {
            return Err(corrupt("emission longer than a packet"));
        }
        if self.emit_left > 0 {
            let (h, src, dst) = resolve(d.u64()?, false)?;
            if src != self.node {
                return Err(corrupt("emitting a record from another node"));
            }
            self.emit_tx = Some(h);
            self.emit_dst = dst;
            self.emit_payload = d.u32()?;
            self.emit_started = d.u64()?;
        }
        self.next_vc = d.usize()?;
        if self.next_vc >= vcs {
            return Err(corrupt("vc cursor out of range"));
        }
        self.packets_injected = d.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::{Transfer, TransferKind};

    fn transfer(bytes: u64) -> Transfer {
        Transfer {
            id: 9,
            dst: 3,
            offset: 0,
            bytes,
            kind: TransferKind::Write,
        }
    }

    fn ni() -> NetworkInterface {
        NetworkInterface::new(0, &PacketNocConfig::noxim_compact())
    }

    /// What the engine does at injection: one arena record per transfer.
    fn enqueue(n: &mut NetworkInterface, txs: &mut Slab<TxRecord>, t: Transfer) {
        let packets = n.packets_for(t.bytes);
        let h = txs.alloc(TxRecord::new(n.node(), t, packets));
        n.enqueue(txs, h);
    }

    #[test]
    fn packet_count_rounds_up() {
        let n = ni();
        assert_eq!(n.packets_for(1), 1);
        assert_eq!(n.packets_for(4), 1);
        assert_eq!(n.packets_for(5), 2);
        assert_eq!(n.packets_for(100), 25);
    }

    #[test]
    fn serializes_full_packets() {
        let mut n = ni();
        let mut txs = Slab::new();
        enqueue(&mut n, &mut txs, transfer(8)); // 2 packets of 8 flits each
        let mut flits = Vec::new();
        for now in 0..40 {
            n.step(now, 1, &mut txs, |_vc, f| {
                flits.push(f);
                true
            });
        }
        assert_eq!(flits.len(), 16);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[7].kind, FlitKind::Tail);
        assert_eq!(flits[8].kind, FlitKind::Head);
        // Head flits carry the payload accounting.
        let payload: u32 = flits.iter().map(|f| f.payload).sum();
        assert_eq!(payload, 8);
        assert!(n.is_idle());
        // Every flit carries the handle of the one record.
        assert!(flits.windows(2).all(|w| w[0].tx == w[1].tx));
    }

    #[test]
    fn short_last_packet_accounts_partial_payload() {
        let mut n = ni();
        let mut txs = Slab::new();
        enqueue(&mut n, &mut txs, transfer(6)); // 4 + 2 bytes
        let mut heads = Vec::new();
        for now in 0..40 {
            n.step(now, 1, &mut txs, |_vc, f| {
                if f.kind == FlitKind::Head {
                    heads.push(f.payload);
                }
                true
            });
        }
        assert_eq!(heads, vec![4, 2]);
    }

    #[test]
    fn rejected_flits_are_retried() {
        let mut n = ni();
        let mut txs = Slab::new();
        enqueue(&mut n, &mut txs, transfer(4));
        let mut accepted = 0;
        for now in 0..100 {
            n.step(now, 1, &mut txs, |_vc, _f| {
                // Accept every third attempt only.
                if now % 3 == 0 {
                    accepted += 1;
                    true
                } else {
                    false
                }
            });
        }
        assert_eq!(accepted, 8, "exactly one packet worth of flits");
        assert!(n.is_idle());
    }

    #[test]
    fn vc_rotates_per_packet() {
        let mut n = ni();
        let mut txs = Slab::new();
        enqueue(&mut n, &mut txs, transfer(12)); // 3 packets
        let mut vcs_seen = Vec::new();
        for now in 0..40 {
            n.step(now, 4, &mut txs, |vc, f| {
                if f.kind == FlitKind::Head {
                    vcs_seen.push(vc);
                }
                true
            });
        }
        assert_eq!(vcs_seen.len(), 3);
        assert_ne!(vcs_seen[0], vcs_seen[1]);
    }
}
