//! Baseline NoC configuration (the paper's two Noxim setups).

/// Transfer-queue depth per NI: the engine stops polling its traffic
/// source once this many transfers await packetization and resumes as the
/// queue drains. Open-loop sources yield the same transfer stream either
/// way (polling is merely deferred), so results are identical for any
/// cap ≥ 1; the cap bounds simulator memory on saturated runs.
pub const NI_QUEUE_CAP: usize = 64;

/// Configuration of the packet-based baseline NoC.
///
/// Defaults mirror the paper's Noxim runs: 4×4 mesh, XY routing, 32-bit
/// flits, eight flits per packet.
#[derive(Debug, Clone)]
pub struct PacketNocConfig {
    /// Mesh width.
    pub cols: usize,
    /// Mesh height.
    pub rows: usize,
    /// Virtual channels per physical link.
    pub vcs: usize,
    /// Buffer depth (flits) per input VC.
    pub buf_flits: usize,
    /// Flit width in bytes (the paper: 32-bit flits → 4).
    pub flit_bytes: u32,
    /// Flits per packet, header included (the paper: 8).
    pub packet_flits: u16,
    /// Useful payload bytes per packet.
    ///
    /// The default equals one flit (one 32-bit bus word): a packet-based
    /// serial protocol frames each bus transaction into a full packet of
    /// header, address, control and padding flits — the protocol-translation
    /// overhead PATRONoC eliminates. Set this to
    /// `(packet_flits - 1) * flit_bytes` to model an idealized NI that packs
    /// payload into every non-header flit (ablation).
    pub payload_per_packet: u32,
    /// Debug mode: step every buffer, router and NI every cycle (the
    /// pre-activity-driven behaviour) instead of only the live subset, and
    /// never skip idle time (see `traffic::drive`).
    /// Results are bit-identical either way — kept as the reference the
    /// active path is cross-checked against in
    /// `crates/bench/tests/equivalence.rs`.
    pub full_sweep: bool,
    /// Worker threads for region-sharded execution of this one simulation
    /// (1 = serial). The mesh is split into contiguous row bands, one
    /// worker each; results are bit-identical at any thread count — the
    /// equivalence suite pins that — so this knob trades wall clock only.
    /// With [`full_sweep`](Self::full_sweep) set it is ignored: the
    /// reference always runs serially.
    pub threads: usize,
}

impl PacketNocConfig {
    /// The paper's compact Noxim configuration: 1 VC, 4-flit buffers.
    #[must_use]
    pub fn noxim_compact() -> Self {
        Self {
            cols: 4,
            rows: 4,
            vcs: 1,
            buf_flits: 4,
            flit_bytes: 4,
            packet_flits: 8,
            payload_per_packet: 4,
            full_sweep: false,
            threads: 1,
        }
    }

    /// The paper's high-performance Noxim configuration: 4 VCs, 32-flit
    /// buffers.
    #[must_use]
    pub fn noxim_high_performance() -> Self {
        Self {
            vcs: 4,
            buf_flits: 32,
            ..Self::noxim_compact()
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.cols * self.rows
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values; the baseline is a fixed-function
    /// comparator, so configuration errors are programming errors here.
    pub fn assert_valid(&self) {
        assert!(self.cols >= 2 && self.rows >= 1, "mesh too small");
        assert!(
            (1..=crate::router::MAX_VCS).contains(&self.vcs),
            "vcs out of range"
        );
        assert!(self.buf_flits >= 2, "buffers must hold at least 2 flits");
        assert!(self.flit_bytes >= 1, "flit must carry at least a byte");
        assert!(self.packet_flits >= 2, "need head + at least one more flit");
        assert!(self.payload_per_packet >= 1, "packet must carry payload");
        assert!(self.threads >= 1, "need at least one worker thread");
    }
}

impl Default for PacketNocConfig {
    fn default() -> Self {
        Self::noxim_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_valid() {
        PacketNocConfig::noxim_compact().assert_valid();
        PacketNocConfig::noxim_high_performance().assert_valid();
    }

    #[test]
    fn high_performance_differs_in_vcs_and_buffers() {
        let c = PacketNocConfig::noxim_compact();
        let h = PacketNocConfig::noxim_high_performance();
        assert_eq!((c.vcs, c.buf_flits), (1, 4));
        assert_eq!((h.vcs, h.buf_flits), (4, 32));
        assert_eq!(c.packet_flits, h.packet_flits);
    }

    #[test]
    #[should_panic(expected = "buffers")]
    fn tiny_buffers_rejected() {
        let cfg = PacketNocConfig {
            buf_flits: 1,
            ..PacketNocConfig::noxim_compact()
        };
        cfg.assert_valid();
    }
}
