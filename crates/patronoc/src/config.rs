//! NoC instance configuration (paper Table I plus testbench knobs).

use crate::routing::{Connectivity, RoutingAlgorithm};
use crate::topology::Topology;
use axi::{AxiParams, ConfigError};

/// Configuration of one PATRONoC instance plus its evaluation testbench.
///
/// The AXI parameters and topology correspond to the paper's design-time
/// parameters (Table I); the remaining fields configure the endpoints of the
/// evaluation framework (§IV): DMA programming cost, memory latency and the
/// placement of masters and slaves.
///
/// # Examples
///
/// ```
/// use patronoc::{NocConfig, Topology};
/// use axi::AxiParams;
///
/// // The paper's wide NoC on the 4×4 mesh.
/// let cfg = NocConfig::new(AxiParams::wide(), Topology::mesh4x4());
/// cfg.validate()?;
/// # Ok::<(), axi::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NocConfig {
    /// AXI interface parameters (AW/DW/IW/MOT).
    pub axi: AxiParams,
    /// NoC topology.
    pub topology: Topology,
    /// Routing algorithm for table generation (default: YX).
    pub algorithm: RoutingAlgorithm,
    /// XBAR connectivity (Table I; default: partial).
    pub connectivity: Connectivity,
    /// Register slices per channel per link (default 1 = "all channels").
    pub link_stages: usize,
    /// Memory-slave pipeline latency in cycles.
    pub mem_latency: u32,
    /// Maximum outstanding transactions a memory slave accepts.
    pub slave_outstanding: u32,
    /// DMA per-descriptor programming cost in cycles.
    pub dma_setup_cycles: u32,
    /// Descriptor-queue depth per DMA engine: the engine stops polling its
    /// traffic source once this many descriptors are waiting, and resumes as
    /// the queue drains. Open-loop sources (Poisson generators, finite
    /// traces) produce the *same* transfer stream either way — polling is
    /// merely deferred — so measured results are identical for any cap ≥ 1;
    /// the cap only bounds simulator memory, which otherwise grows without
    /// limit when the offered load exceeds what the NoC can drain (the
    /// multi-GiB RSS previously seen on saturated Fig. 6 sweeps).
    pub dma_queue_cap: usize,
    /// Address-region bytes owned by each endpoint.
    pub region_size: u64,
    /// Nodes hosting DMA masters (default: all).
    pub masters: Vec<usize>,
    /// Nodes hosting memory slaves (default: all).
    pub slaves: Vec<usize>,
    /// Debug mode: step *every* link, XP, DMA and memory slave every cycle
    /// (the pre-activity-driven behaviour) instead of only the components
    /// the scheduler knows to be live, and never skip idle time (the
    /// default run jumps `now` across provably idle gaps — see
    /// `traffic::drive`). Results are bit-identical either
    /// way — `crates/bench/tests/equivalence.rs` pins that — so this
    /// exists purely as the reference against which the active-set path is
    /// cross-checked, and as a bisection aid if a future change ever
    /// breaks the quiescence contract.
    pub full_sweep: bool,
    /// Worker threads for region-sharded execution (default 1 = the serial
    /// cycle loop). With more than one thread the mesh is partitioned into
    /// contiguous row bands (at most one per row) that step in parallel
    /// behind a per-cycle barrier; results are **bit-identical** for every
    /// thread count — the equivalence suite pins that — so this knob trades
    /// wall clock only. With [`full_sweep`](Self::full_sweep) set it is
    /// ignored: the reference always runs serially.
    pub threads: usize,
}

impl NocConfig {
    /// Creates a configuration with the evaluation defaults: masters and
    /// slaves at every node, one register slice on every channel, 2-cycle
    /// DMA setup, 5-cycle memory latency.
    #[must_use]
    pub fn new(axi: AxiParams, topology: Topology) -> Self {
        let n = topology.num_nodes();
        Self {
            axi,
            topology,
            algorithm: RoutingAlgorithm::default(),
            connectivity: Connectivity::default(),
            link_stages: 1,
            mem_latency: 5,
            slave_outstanding: 64,
            dma_setup_cycles: 2,
            dma_queue_cap: 64,
            region_size: 1 << 24,
            masters: (0..n).collect(),
            slaves: (0..n).collect(),
            full_sweep: false,
            threads: 1,
        }
    }

    /// The paper's slim 4×4 evaluation instance (DW = 32, MOT = 8).
    #[must_use]
    pub fn slim_4x4() -> Self {
        Self::new(AxiParams::slim(), Topology::mesh4x4())
    }

    /// The paper's wide 4×4 evaluation instance (DW = 512, MOT = 8).
    #[must_use]
    pub fn wide_4x4() -> Self {
        Self::new(AxiParams::wide(), Topology::mesh4x4())
    }

    /// Validates the configuration against Table I.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid AXI parameters, endpoint counts
    /// exceeding the topology capacity, out-of-range endpoint nodes, or an
    /// endpoint list that repeats a node or is out of ascending order (one
    /// node hosts at most one master and one slave, and a region-sharded
    /// run needs each region's endpoints contiguous), or a `region_size`
    /// whose regions would end beyond the 64-bit address space.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // Re-validate AXI parameters (AxiParams is always-valid by
        // construction, but this keeps the contract explicit).
        AxiParams::new(
            self.axi.addr_width(),
            self.axi.data_width(),
            self.axi.id_width(),
            self.axi.max_outstanding(),
        )?;
        let capacity = self.topology.num_nodes();
        for (set, name) in [(&self.masters, "masters"), (&self.slaves, "slaves")] {
            if set.is_empty() || set.len() > capacity {
                return Err(ConfigError::EndpointCount {
                    requested: set.len(),
                    capacity,
                });
            }
            if set.iter().any(|&n| n >= capacity) {
                return Err(ConfigError::EndpointCount {
                    requested: set.len(),
                    capacity,
                });
            }
            if set.windows(2).any(|w| w[0] >= w[1]) {
                return Err(ConfigError::EndpointOrder(name));
            }
        }
        for (value, name) in [
            (self.link_stages as u64, "link_stages"),
            (self.region_size, "region_size"),
            (self.dma_queue_cap as u64, "dma_queue_cap"),
        ] {
            if value == 0 {
                return Err(ConfigError::ZeroParameter(name));
            }
        }
        let regions_end = (capacity as u64)
            .checked_mul(self.region_size)
            .and_then(|bytes| bytes.checked_add(Self::ADDR_BASE));
        if regions_end.is_none() {
            return Err(ConfigError::RegionOverflow {
                region_size: self.region_size,
                nodes: capacity,
            });
        }
        Ok(())
    }

    /// The bytes one beat carries.
    #[must_use]
    pub fn bytes_per_beat(&self) -> u64 {
        self.axi.bytes_per_beat()
    }

    /// Base address of an endpoint's region (regions are assigned uniformly
    /// by node index above `0x8000_0000`).
    #[must_use]
    pub fn region_base(&self, node: usize) -> u64 {
        Self::ADDR_BASE + node as u64 * self.region_size
    }

    /// Start of the memory-mapped endpoint space.
    pub const ADDR_BASE: u64 = 0x8000_0000;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(NocConfig::slim_4x4().validate().is_ok());
        assert!(NocConfig::wide_4x4().validate().is_ok());
    }

    #[test]
    fn rejects_out_of_range_endpoints() {
        let mut cfg = NocConfig::slim_4x4();
        cfg.masters = vec![16];
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_empty_endpoint_sets() {
        let mut cfg = NocConfig::slim_4x4();
        cfg.slaves.clear();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_duplicate_endpoints() {
        let mut cfg = NocConfig::slim_4x4();
        cfg.masters = vec![1, 1];
        assert_eq!(cfg.validate(), Err(ConfigError::EndpointOrder("masters")));
        let mut cfg = NocConfig::slim_4x4();
        cfg.slaves = vec![0, 5, 5, 9];
        assert_eq!(cfg.validate(), Err(ConfigError::EndpointOrder("slaves")));
    }

    #[test]
    fn rejects_unordered_endpoints() {
        let mut cfg = NocConfig::slim_4x4();
        cfg.masters = vec![0, 2, 1];
        assert_eq!(cfg.validate(), Err(ConfigError::EndpointOrder("masters")));
        let mut cfg = NocConfig::slim_4x4();
        cfg.slaves = vec![15, 0];
        assert_eq!(cfg.validate(), Err(ConfigError::EndpointOrder("slaves")));
    }

    #[test]
    fn rejects_zero_stage_links() {
        let mut cfg = NocConfig::slim_4x4();
        cfg.link_stages = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_descriptor_queue() {
        let mut cfg = NocConfig::slim_4x4();
        cfg.dma_queue_cap = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroParameter("dma_queue_cap"))
        );
    }

    #[test]
    fn rejects_regions_beyond_the_address_space() {
        let mut cfg = NocConfig::slim_4x4();
        cfg.region_size = 1 << 60;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::RegionOverflow {
                region_size: 1 << 60,
                nodes: 16
            })
        );
        cfg.region_size = NocConfig::slim_4x4().region_size;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn accepts_regions_that_end_at_the_top_of_the_address_space() {
        let mut cfg = NocConfig::slim_4x4();
        let nodes = cfg.topology.num_nodes();
        cfg.region_size = (u64::MAX - NocConfig::ADDR_BASE) / nodes as u64;
        assert!(cfg.validate().is_ok());
        assert!(cfg
            .region_base(nodes - 1)
            .checked_add(cfg.region_size)
            .is_some());
        // One byte more: the product still fits, adding the base does not.
        cfg.region_size += 1;
        assert!((nodes as u64).checked_mul(cfg.region_size).is_some());
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::RegionOverflow {
                region_size: cfg.region_size,
                nodes
            })
        );
    }

    #[test]
    fn region_bases_are_disjoint() {
        let cfg = NocConfig::slim_4x4();
        for n in 0..15 {
            assert_eq!(cfg.region_base(n) + cfg.region_size, cfg.region_base(n + 1));
        }
    }
}
