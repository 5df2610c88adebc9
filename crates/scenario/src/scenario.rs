//! The builder-style [`Scenario`] runner.

use crate::spec::{EngineSpec, PacketProfile, TrafficSpec};
use axi::{AxiParams, ConfigError};
use patronoc::{Connectivity, NocConfig, NocSim, RoutingAlgorithm, Topology};
use simkit::{Json, SimReport, StopReason};
use std::fmt;
use traffic::{
    dnn::{DnnConfig, RESNET34_LAYERS},
    DnnTraffic, DnnWorkload, Engine, SyntheticConfig, SyntheticTraffic, TrafficSource,
    UniformConfig, UniformRandom,
};

/// Why a scenario could not be instantiated or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The AXI parameters or NoC configuration failed validation.
    Config(ConfigError),
    /// The packet baseline only models 2D meshes.
    PacketNeedsMesh(Topology),
    /// Synthetic patterns place their slaves on a 2D mesh.
    SyntheticNeedsMesh(Topology),
    /// Neither a measurement window nor a cycle budget was given.
    NoStopCondition,
    /// The requested probe needs a different engine (e.g.
    /// [`Scenario::build_noc_sim`] on a packet scenario).
    WrongEngine(&'static str),
    /// [`Scenario::from_json`] could not understand the document: invalid
    /// JSON, a missing key, a wrong type or an unknown label.
    Parse(String),
    /// A well-formed scenario asks for something its engine or workload
    /// cannot model: zero load, a DNN trace of zero steps, a mesh too
    /// small for the engine or the traffic pattern, a hop-limited pattern
    /// that leaves a master no slave in reach, zero threads.
    Invalid(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid configuration: {e}"),
            Self::PacketNeedsMesh(t) => {
                write!(f, "the packet baseline only models 2D meshes, got {t}")
            }
            Self::SyntheticNeedsMesh(t) => {
                write!(
                    f,
                    "synthetic patterns place their slaves on a 2D mesh, got {t}"
                )
            }
            Self::NoStopCondition => {
                write!(
                    f,
                    "scenario needs a window(..) or a budget(..) to know when to stop"
                )
            }
            Self::WrongEngine(what) => write!(f, "this probe needs {what}"),
            Self::Parse(why) => write!(f, "cannot parse scenario: {why}"),
            Self::Invalid(why) => write!(f, "invalid scenario: {why}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

/// One fully specified simulation run: engine, system parameters,
/// workload, stop condition and seed, as a single inspectable value.
///
/// Construction is builder-style — start from [`Scenario::patronoc`] or
/// [`Scenario::packet`] and chain setters — and [`run`](Self::run)
/// executes it. Master and slave placement derive from the topology and
/// the traffic spec (all nodes host masters; synthetic patterns place
/// their own slaves), so the same scenario re-targets any mesh size
/// without touching per-figure plumbing. A scenario serializes to JSON
/// via [`to_json`](Self::to_json), which is what makes sweep grids and
/// the future trace-replay service shippable: a run's complete recipe is
/// data, not code.
///
/// ```
/// use scenario::{Scenario, TrafficSpec};
/// use patronoc::Topology;
///
/// let report = Scenario::patronoc()
///     .topology(Topology::mesh4x4())
///     .data_width(32)
///     .traffic(TrafficSpec::uniform_copies(0.5, 1000))
///     .warmup(1_000)
///     .window(4_000)
///     .seed(42)
///     .run()?;
/// assert!(report.throughput_gib_s > 0.0);
/// # Ok::<(), scenario::ScenarioError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Which engine simulates.
    pub engine: EngineSpec,
    /// NoC topology (packet scenarios require a mesh).
    pub topology: Topology,
    /// AXI address width in bits.
    pub addr_width: u32,
    /// AXI data width in bits (PATRONoC; the packet baseline's flit width
    /// is fixed by its profile).
    pub data_width: u32,
    /// AXI ID width in bits.
    pub id_width: u32,
    /// Maximum outstanding transactions per master.
    pub max_outstanding: u32,
    /// Routing algorithm (PATRONoC; the baseline always routes XY).
    pub algorithm: RoutingAlgorithm,
    /// Crossbar connectivity (PATRONoC).
    pub connectivity: Connectivity,
    /// Register slices per channel per link (PATRONoC).
    pub link_stages: usize,
    /// Address-region bytes owned by each endpoint.
    pub region_size: u64,
    /// The workload.
    pub traffic: TrafficSpec,
    /// Warm-up cycles excluded from the measurement.
    pub warmup: u64,
    /// Measurement window in cycles; the run stops after
    /// `warmup + window` unless a [`budget`](Self::budget) overrides it.
    pub window: u64,
    /// Explicit cycle budget for run-to-drain (trace) scenarios: the run
    /// stops when the source drains or the budget elapses, whichever
    /// comes first, and the report's [`StopReason`] tells which.
    pub budget: Option<u64>,
    /// Base RNG seed of the workload's random streams.
    pub seed: u64,
    /// Worker threads for region-sharded execution of the one simulation
    /// this scenario names (1 = serial). Results are bit-identical at any
    /// value — the knob trades wall clock only — so it stays out of the
    /// derived per-point seeds. A [`full_sweep`](Self::full_sweep) run
    /// ignores it and steps serially.
    pub threads: usize,
    /// Step every component every cycle, never skipping idle time (default
    /// off): the reference the activity-driven, time-skipping engines are
    /// cross-checked against. Results are bit-identical either way, so
    /// like [`threads`](Self::threads) the knob trades wall clock only and
    /// stays out of the derived per-point seeds.
    pub full_sweep: bool,
}

impl Scenario {
    /// A PATRONoC scenario with the paper's evaluation defaults: slim
    /// AXI parameters (AW 32, DW 32, IW 4, MOT 8) on the 4×4 mesh, YX
    /// routing, partial connectivity, one register slice per channel,
    /// 16 MiB regions, uniform random copies at full load.
    #[must_use]
    pub fn patronoc() -> Self {
        Self {
            engine: EngineSpec::Patronoc,
            topology: Topology::mesh4x4(),
            addr_width: 32,
            data_width: 32,
            id_width: 4,
            max_outstanding: 8,
            algorithm: RoutingAlgorithm::default(),
            connectivity: Connectivity::default(),
            link_stages: 1,
            region_size: 1 << 24,
            traffic: TrafficSpec::uniform_copies(1.0, 1000),
            warmup: 0,
            window: 0,
            budget: None,
            seed: 0,
            threads: 1,
            full_sweep: false,
        }
    }

    /// A packet-baseline scenario in the given profile, with uniform
    /// random reads/writes (the baseline cannot fuse a copy into one
    /// transaction) and otherwise the same defaults as
    /// [`patronoc`](Self::patronoc).
    #[must_use]
    pub fn packet(profile: PacketProfile) -> Self {
        Self {
            engine: EngineSpec::Packet(profile),
            traffic: TrafficSpec::uniform(1.0, 1000),
            ..Self::patronoc()
        }
    }

    /// Sets the topology (derives master/slave counts everywhere).
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the AXI data width in bits.
    #[must_use]
    pub fn data_width(mut self, bits: u32) -> Self {
        self.data_width = bits;
        self
    }

    /// Sets the AXI address width in bits.
    #[must_use]
    pub fn addr_width(mut self, bits: u32) -> Self {
        self.addr_width = bits;
        self
    }

    /// Sets the AXI ID width in bits.
    #[must_use]
    pub fn id_width(mut self, bits: u32) -> Self {
        self.id_width = bits;
        self
    }

    /// Sets the maximum outstanding transactions per master.
    #[must_use]
    pub fn max_outstanding(mut self, mot: u32) -> Self {
        self.max_outstanding = mot;
        self
    }

    /// Sets the routing algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: RoutingAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the crossbar connectivity.
    #[must_use]
    pub fn connectivity(mut self, connectivity: Connectivity) -> Self {
        self.connectivity = connectivity;
        self
    }

    /// Sets the register slices per channel per link.
    #[must_use]
    pub fn link_stages(mut self, stages: usize) -> Self {
        self.link_stages = stages;
        self
    }

    /// Sets the per-endpoint address-region size in bytes.
    #[must_use]
    pub fn region_size(mut self, bytes: u64) -> Self {
        self.region_size = bytes;
        self
    }

    /// Sets the workload.
    #[must_use]
    pub fn traffic(mut self, traffic: TrafficSpec) -> Self {
        self.traffic = traffic;
        self
    }

    /// Sets the warm-up cycles excluded from the measurement.
    #[must_use]
    pub fn warmup(mut self, cycles: u64) -> Self {
        self.warmup = cycles;
        self
    }

    /// Sets the measurement window (stop condition: `warmup + window`
    /// cycles elapse → [`StopReason::WindowComplete`]).
    #[must_use]
    pub fn window(mut self, cycles: u64) -> Self {
        self.window = cycles;
        self
    }

    /// Sets a run-to-drain cycle budget instead of a window (stop
    /// condition: source drained → [`StopReason::Drained`], else budget
    /// elapsed → [`StopReason::Budget`]).
    #[must_use]
    pub fn budget(mut self, cycles: u64) -> Self {
        self.budget = Some(cycles);
        self
    }

    /// Sets the workload's base RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker threads for region-sharded execution (1 = serial;
    /// results are bit-identical at any value; a full-sweep run ignores
    /// it).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Selects the full-sweep reference stepping (off by default; results
    /// are bit-identical either way).
    #[must_use]
    pub fn full_sweep(mut self, enabled: bool) -> Self {
        self.full_sweep = enabled;
        self
    }

    /// The number of nodes (= DMA masters) the topology provides.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.topology.num_nodes()
    }

    /// The mesh dimensions, when the topology is a mesh.
    fn mesh_dims(&self) -> Option<(usize, usize)> {
        match self.topology {
            Topology::Mesh { cols, rows } => Some((cols, rows)),
            _ => None,
        }
    }

    /// Payload bytes one injection slot carries: DW/8 for PATRONoC, one
    /// flit for the packet baseline (what "load 1.0" means per engine).
    #[must_use]
    pub fn bytes_per_cycle(&self) -> f64 {
        match self.engine {
            EngineSpec::Patronoc => f64::from(self.data_width) / 8.0,
            EngineSpec::Packet(profile) => f64::from(profile.base_config().flit_bytes),
        }
    }

    /// The slave nodes this scenario places (all nodes, unless the
    /// synthetic pattern restricts them).
    ///
    /// # Panics
    ///
    /// Panics if a synthetic pattern is paired with a non-mesh topology
    /// smaller than the pattern's 3×3 minimum (the pattern placement
    /// itself asserts).
    #[must_use]
    pub fn slave_nodes(&self) -> Vec<usize> {
        match self.traffic {
            TrafficSpec::Synthetic { pattern, .. } => {
                let (cols, rows) = self
                    .mesh_dims()
                    .expect("synthetic patterns are defined on meshes");
                pattern.slave_nodes(cols, rows)
            }
            _ => (0..self.num_nodes()).collect(),
        }
    }

    /// Builds the PATRONoC configuration this scenario describes.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::WrongEngine`] for packet scenarios,
    /// [`ScenarioError::Config`] for invalid AXI parameters.
    pub fn noc_config(&self) -> Result<NocConfig, ScenarioError> {
        if self.engine != EngineSpec::Patronoc {
            return Err(ScenarioError::WrongEngine("the PATRONoC engine"));
        }
        let axi = AxiParams::new(
            self.addr_width,
            self.data_width,
            self.id_width,
            self.max_outstanding,
        )?;
        let mut cfg = NocConfig::new(axi, self.topology);
        cfg.algorithm = self.algorithm;
        cfg.connectivity = self.connectivity;
        cfg.link_stages = self.link_stages;
        cfg.region_size = self.region_size;
        cfg.threads = self.threads;
        cfg.full_sweep = self.full_sweep;
        if let TrafficSpec::Synthetic { pattern, .. } = self.traffic {
            let (cols, rows) = self.synthetic_mesh()?;
            cfg.slaves = pattern.slave_nodes(cols, rows);
        }
        Ok(cfg)
    }

    /// The mesh a synthetic pattern is placed on, checked against what
    /// [`traffic::SyntheticPattern::slave_nodes`] asserts.
    fn synthetic_mesh(&self) -> Result<(usize, usize), ScenarioError> {
        let (cols, rows) = self
            .mesh_dims()
            .ok_or(ScenarioError::SyntheticNeedsMesh(self.topology))?;
        if cols < 3 || rows < 3 {
            return Err(ScenarioError::Invalid(format!(
                "synthetic patterns need at least a 3x3 mesh, got {cols}x{rows}"
            )));
        }
        Ok((cols, rows))
    }

    /// Rejects, with plain comparisons on the fields, every traffic spec
    /// the source builders would panic on. The builders keep their
    /// asserts: there they guard programming errors.
    fn check_traffic(&self) -> Result<(), ScenarioError> {
        let invalid = |why: String| Err(ScenarioError::Invalid(why));
        match self.traffic {
            TrafficSpec::Uniform {
                load, max_transfer, ..
            } => self.check_stochastic(load, max_transfer),
            TrafficSpec::Synthetic {
                pattern,
                load,
                max_transfer,
                ..
            } => {
                self.check_stochastic(load, max_transfer)?;
                let (cols, rows) = self.synthetic_mesh()?;
                match pattern
                    .eligible_slaves(cols, rows)
                    .iter()
                    .position(Vec::is_empty)
                {
                    Some(m) => invalid(format!(
                        "the {pattern:?} pattern leaves master {m} of a {cols}x{rows} mesh \
                         no slave in reach"
                    )),
                    None => Ok(()),
                }
            }
            TrafficSpec::Dnn { workload, steps } => {
                let cores = self.num_nodes();
                if steps == 0 {
                    invalid("a DNN trace needs at least one step".to_owned())
                } else if cores < 2 {
                    invalid(format!("a DNN trace needs at least two cores, got {cores}"))
                } else if workload == DnnWorkload::PipelinedConv && cores > RESNET34_LAYERS {
                    invalid(format!(
                        "the DNN pipeline needs a ResNet-34 layer per core: at most \
                         {RESNET34_LAYERS} cores, got {cores}"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// The stochastic sources' shared preconditions: a positive load, and
    /// transfers of at least one byte that fit in a region.
    fn check_stochastic(&self, load: f64, max_transfer: u64) -> Result<(), ScenarioError> {
        if load.is_nan() || load <= 0.0 || max_transfer == 0 {
            return Err(ScenarioError::Invalid(format!(
                "traffic needs a positive load and max_transfer, got {load} and {max_transfer}"
            )));
        }
        if max_transfer > self.region_size {
            return Err(ScenarioError::Invalid(format!(
                "max_transfer {max_transfer} exceeds the {}-byte region",
                self.region_size
            )));
        }
        Ok(())
    }

    /// Builds the concrete PATRONoC simulator — for probes the [`Engine`]
    /// trait does not carry (link occupancy, per-slave byte counters).
    ///
    /// # Errors
    ///
    /// As [`noc_config`](Self::noc_config), plus configuration validation.
    pub fn build_noc_sim(&self) -> Result<NocSim, ScenarioError> {
        Ok(NocSim::new(self.noc_config()?)?)
    }

    /// Builds the engine this scenario names, behind the [`Engine`] trait.
    /// It also checks the traffic spec, so once it succeeds
    /// [`build_source`](Self::build_source) cannot panic.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Config`] for invalid parameters;
    /// [`ScenarioError::PacketNeedsMesh`] for a packet scenario on a
    /// non-mesh topology; [`ScenarioError::SyntheticNeedsMesh`] for a
    /// synthetic pattern off a mesh; [`ScenarioError::Invalid`] for a
    /// topology [`Topology::is_valid`] rejects, or a spec the engine or
    /// the traffic source cannot model.
    pub fn build_engine(&self) -> Result<Box<dyn Engine>, ScenarioError> {
        if !self.topology.is_valid() {
            return Err(ScenarioError::Invalid(format!(
                "a {} is not a valid topology: a mesh or ring needs at least two \
                 nodes, a torus at least 3x3",
                self.topology
            )));
        }
        self.check_traffic()?;
        match self.engine {
            EngineSpec::Patronoc => Ok(Box::new(self.build_noc_sim()?)),
            EngineSpec::Packet(profile) => {
                let (cols, rows) = self
                    .mesh_dims()
                    .ok_or(ScenarioError::PacketNeedsMesh(self.topology))?;
                if cols < 2 || rows == 0 || self.threads == 0 {
                    return Err(ScenarioError::Invalid(format!(
                        "the packet baseline needs at least a 2x1 mesh and one thread, \
                         got {cols}x{rows} and {} threads",
                        self.threads
                    )));
                }
                let mut cfg = profile.base_config();
                cfg.cols = cols;
                cfg.rows = rows;
                cfg.threads = self.threads;
                cfg.full_sweep = self.full_sweep;
                Ok(Box::new(packetnoc::PacketNocSim::new(cfg)))
            }
        }
    }

    /// Builds the traffic source this scenario names.
    ///
    /// # Panics
    ///
    /// Panics when the traffic spec is degenerate (the generators
    /// themselves assert: zero load, zero-size transfers, a synthetic
    /// pattern on a too-small mesh). [`build_engine`](Self::build_engine)
    /// returns a [`ScenarioError`] for every such spec instead, so build
    /// the engine first.
    #[must_use]
    pub fn build_source(&self) -> Box<dyn TrafficSource> {
        let n = self.num_nodes();
        match self.traffic {
            TrafficSpec::Uniform {
                load,
                max_transfer,
                read_fraction,
                copies,
            } => {
                let cfg = UniformConfig {
                    nodes: n,
                    load,
                    bytes_per_cycle: self.bytes_per_cycle(),
                    max_transfer,
                    read_fraction,
                    region_size: self.region_size,
                    seed: self.seed,
                };
                Box::new(if copies {
                    UniformRandom::new_copies(cfg)
                } else {
                    UniformRandom::new(cfg)
                })
            }
            TrafficSpec::Synthetic {
                pattern,
                load,
                max_transfer,
                read_fraction,
            } => {
                let (cols, rows) = self
                    .mesh_dims()
                    .expect("synthetic patterns are defined on meshes");
                Box::new(SyntheticTraffic::new(SyntheticConfig {
                    cols,
                    rows,
                    pattern,
                    load,
                    bytes_per_cycle: self.bytes_per_cycle(),
                    max_transfer,
                    read_fraction,
                    region_size: self.region_size,
                    seed: self.seed,
                }))
            }
            TrafficSpec::Dnn { .. } => {
                Box::new(self.build_dnn_trace().expect("traffic is a DNN trace"))
            }
        }
    }

    /// Builds the concrete DNN trace a [`TrafficSpec::Dnn`] scenario
    /// names — for trace-level probes (total bytes, length, core-to-core
    /// fraction) the `TrafficSource` trait does not carry. `None` for
    /// other traffic specs. Core count and the shared-L2 node derive from
    /// the scenario's topology (every node is a core; the L2 sits at the
    /// Fig. 5a center endpoint of a mesh/torus, the midpoint of a ring).
    #[must_use]
    pub fn build_dnn_trace(&self) -> Option<DnnTraffic> {
        match self.traffic {
            TrafficSpec::Dnn { workload, steps } => {
                let cfg = DnnConfig {
                    steps,
                    cores: self.num_nodes(),
                    l2_node: self.l2_node(),
                    region_size: self.region_size,
                    seed: self.seed,
                    ..DnnConfig::for_workload(workload)
                };
                Some(DnnTraffic::new(&cfg))
            }
            _ => None,
        }
    }

    /// The node hosting the shared L2 for DNN traffic: endpoint
    /// `(cols/2, (rows-1)/2)` of a mesh or torus — node 6 on the 4×4,
    /// matching Fig. 5a and the all-global synthetic slave — or the
    /// midpoint of a ring.
    fn l2_node(&self) -> usize {
        match self.topology {
            Topology::Mesh { cols, rows } | Topology::Torus { cols, rows } => {
                ((rows - 1) / 2) * cols + cols / 2
            }
            Topology::Ring { nodes } => nodes / 2,
        }
    }

    /// Executes the scenario and returns the unified report.
    ///
    /// Windowed scenarios run for `warmup + window` cycles and report
    /// [`StopReason::WindowComplete`] (or [`StopReason::Drained`] if the
    /// source finished early); budgeted scenarios run to drain and report
    /// [`StopReason::Budget`] when the budget cuts them off — callers
    /// decide whether that is an error, nothing panics here.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::NoStopCondition`] when neither
    /// [`window`](Self::window) nor [`budget`](Self::budget) was set, plus
    /// the [`build_engine`](Self::build_engine) errors.
    pub fn run(&self) -> Result<SimReport, ScenarioError> {
        // Build the engine first: it rejects, as a ScenarioError, every
        // spec the source builders would panic on.
        let mut engine = self.build_engine()?;
        let mut source = self.build_source();
        self.execute(&mut *engine, &mut *source)
    }

    /// Executes the scenario against a caller-provided traffic source —
    /// same engine, stop condition and report handling as
    /// [`run`](Self::run), for callers that need to keep the source (a
    /// pre-built trace, a replay-service stream) after the run.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_with(&self, source: &mut dyn TrafficSource) -> Result<SimReport, ScenarioError> {
        let mut engine = self.build_engine()?;
        self.execute(&mut *engine, source)
    }

    fn execute(
        &self,
        engine: &mut dyn Engine,
        source: &mut dyn TrafficSource,
    ) -> Result<SimReport, ScenarioError> {
        let (max_cycles, windowed) = match self.budget {
            Some(budget) => (budget, false),
            None if self.window == 0 => return Err(ScenarioError::NoStopCondition),
            None => (self.warmup + self.window, true),
        };
        let mut report = engine.run(source, max_cycles, self.warmup);
        if windowed && report.stop_reason == StopReason::Budget {
            report.stop_reason = StopReason::WindowComplete;
        }
        Ok(report)
    }

    /// Parses a scenario from the JSON object [`to_json`](Self::to_json)
    /// produces, closing the serialize/deserialize round trip: for every
    /// scenario `s`, `Scenario::from_json(&s.to_json()) == Ok(s)`, and the
    /// serialized text is a fixpoint of `to_json → parse → to_json`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] naming the missing key, wrong type or
    /// unknown label.
    pub fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        use crate::spec::{get_str, get_u64, obj_get};
        fn parse<T>(r: Result<T, String>) -> Result<T, ScenarioError> {
            r.map_err(ScenarioError::Parse)
        }
        let width = |key| {
            get_u64(v, key)
                .and_then(|n| u32::try_from(n).map_err(|_| format!("key `{key}` out of range")))
        };
        let topology = {
            let t = parse(obj_get(v, "topology"))?;
            let dim = |key| {
                get_u64(t, key).and_then(|n| {
                    usize::try_from(n).map_err(|_| format!("topology `{key}` out of range"))
                })
            };
            match parse(get_str(t, "kind"))? {
                "mesh" => Topology::Mesh {
                    cols: parse(dim("cols"))?,
                    rows: parse(dim("rows"))?,
                },
                "torus" => Topology::Torus {
                    cols: parse(dim("cols"))?,
                    rows: parse(dim("rows"))?,
                },
                "ring" => Topology::Ring {
                    nodes: parse(dim("nodes"))?,
                },
                other => {
                    return Err(ScenarioError::Parse(format!(
                        "unknown topology kind `{other}`"
                    )))
                }
            }
        };
        let algorithm = match parse(get_str(v, "algorithm"))? {
            "yx" => RoutingAlgorithm::YxDimensionOrder,
            "xy" => RoutingAlgorithm::XyDimensionOrder,
            other => {
                return Err(ScenarioError::Parse(format!(
                    "unknown routing algorithm `{other}`"
                )))
            }
        };
        let connectivity = match parse(get_str(v, "connectivity"))? {
            "partial" => Connectivity::Partial,
            "full" => Connectivity::Full,
            other => {
                return Err(ScenarioError::Parse(format!(
                    "unknown connectivity `{other}`"
                )))
            }
        };
        let budget = match parse(obj_get(v, "budget"))? {
            Json::Null => None,
            Json::U64(n) => Some(*n),
            other => {
                return Err(ScenarioError::Parse(format!(
                    "key `budget`: expected null or an integer, got `{other}`"
                )))
            }
        };
        // Lenient: documents predating the threads knob mean serial.
        let threads = match obj_get(v, "threads") {
            Ok(_) => parse(get_u64(v, "threads").and_then(|n| {
                usize::try_from(n).map_err(|_| "key `threads` out of range".to_owned())
            }))?,
            Err(_) => 1,
        };
        // Lenient: documents without the key step activity-driven (the
        // default; results are bit-identical either way).
        let full_sweep = match obj_get(v, "full_sweep") {
            Ok(Json::Bool(b)) => *b,
            Ok(other) => {
                return Err(ScenarioError::Parse(format!(
                    "key `full_sweep`: expected a boolean, got `{other}`"
                )))
            }
            Err(_) => false,
        };
        Ok(Self {
            engine: parse(crate::spec::EngineSpec::from_json(parse(obj_get(
                v, "engine",
            ))?))?,
            topology,
            addr_width: parse(width("addr_width"))?,
            data_width: parse(width("data_width"))?,
            id_width: parse(width("id_width"))?,
            max_outstanding: parse(width("max_outstanding"))?,
            algorithm,
            connectivity,
            link_stages: parse(get_u64(v, "link_stages").and_then(|n| {
                usize::try_from(n).map_err(|_| "key `link_stages` out of range".to_owned())
            }))?,
            region_size: parse(get_u64(v, "region_size"))?,
            traffic: parse(TrafficSpec::from_json(parse(obj_get(v, "traffic"))?))?,
            warmup: parse(get_u64(v, "warmup"))?,
            window: parse(get_u64(v, "window"))?,
            budget,
            seed: parse(get_u64(v, "seed"))?,
            threads,
            full_sweep,
        })
    }

    /// Parses a scenario straight from JSON text — what a trace-replay
    /// service would call on an incoming request body.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Parse`] for malformed JSON (with the byte offset)
    /// or an invalid scenario document.
    pub fn from_json_str(text: &str) -> Result<Self, ScenarioError> {
        let v = Json::parse(text).map_err(|e| ScenarioError::Parse(e.to_string()))?;
        Self::from_json(&v)
    }

    /// Serializes the complete run recipe as a JSON object — the artifact
    /// format sweep grids and the trace-replay service exchange.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let topology = match self.topology {
            Topology::Mesh { cols, rows } => Json::obj(vec![
                ("kind", Json::str("mesh")),
                ("cols", Json::U64(cols as u64)),
                ("rows", Json::U64(rows as u64)),
            ]),
            Topology::Torus { cols, rows } => Json::obj(vec![
                ("kind", Json::str("torus")),
                ("cols", Json::U64(cols as u64)),
                ("rows", Json::U64(rows as u64)),
            ]),
            Topology::Ring { nodes } => Json::obj(vec![
                ("kind", Json::str("ring")),
                ("nodes", Json::U64(nodes as u64)),
            ]),
        };
        Json::obj(vec![
            ("engine", self.engine.to_json()),
            ("topology", topology),
            ("addr_width", Json::U64(u64::from(self.addr_width))),
            ("data_width", Json::U64(u64::from(self.data_width))),
            ("id_width", Json::U64(u64::from(self.id_width))),
            (
                "max_outstanding",
                Json::U64(u64::from(self.max_outstanding)),
            ),
            (
                "algorithm",
                Json::str(match self.algorithm {
                    RoutingAlgorithm::YxDimensionOrder => "yx",
                    RoutingAlgorithm::XyDimensionOrder => "xy",
                }),
            ),
            (
                "connectivity",
                Json::str(match self.connectivity {
                    Connectivity::Partial => "partial",
                    Connectivity::Full => "full",
                }),
            ),
            ("link_stages", Json::U64(self.link_stages as u64)),
            ("region_size", Json::U64(self.region_size)),
            ("traffic", self.traffic.to_json()),
            ("warmup", Json::U64(self.warmup)),
            ("window", Json::U64(self.window)),
            ("budget", self.budget.map_or(Json::Null, Json::U64)),
            ("seed", Json::U64(self.seed)),
            ("threads", Json::U64(self.threads as u64)),
            ("full_sweep", Json::Bool(self.full_sweep)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::SyntheticPattern;

    #[test]
    fn windowed_run_reports_window_complete() {
        let report = Scenario::patronoc()
            .traffic(TrafficSpec::uniform_copies(0.8, 500))
            .warmup(500)
            .window(2_000)
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(report.stop_reason, StopReason::WindowComplete);
        assert_eq!(report.cycles, 2_500);
        assert!(report.payload_bytes > 0);
    }

    #[test]
    fn budgeted_trace_reports_drained_or_budget() {
        let base = Scenario::patronoc()
            .data_width(512)
            .traffic(TrafficSpec::dnn(traffic::DnnWorkload::PipelinedConv, 1))
            .seed(1);
        let drained = base.clone().budget(50_000_000).run().unwrap();
        assert_eq!(drained.stop_reason, StopReason::Drained);
        // A budget far too small for the trace must *report*, not panic.
        let cut = base.budget(1_000).run().unwrap();
        assert_eq!(cut.stop_reason, StopReason::Budget);
        assert!(cut.payload_bytes < drained.payload_bytes);
    }

    #[test]
    fn dnn_traffic_derives_cores_and_l2_from_topology() {
        // Regression: the trace's core count and L2 node must follow the
        // scenario topology, not DnnConfig's 16-core / node-6 defaults —
        // on a 2×2 mesh those defaults would target nonexistent nodes.
        let report = Scenario::patronoc()
            .topology(Topology::mesh2x2())
            .data_width(512)
            .traffic(TrafficSpec::dnn(traffic::DnnWorkload::PipelinedConv, 1))
            .budget(100_000_000)
            .seed(1)
            .run()
            .unwrap();
        assert_eq!(report.stop_reason, StopReason::Drained);
        assert!(report.payload_bytes > 0);
    }

    #[test]
    fn synthetic_on_non_mesh_reports_the_right_error() {
        let err = Scenario::patronoc()
            .topology(Topology::Ring { nodes: 9 })
            .traffic(TrafficSpec::synthetic(SyntheticPattern::AllGlobal, 1000))
            .window(1_000)
            .run()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::SyntheticNeedsMesh(_)), "{err}");
    }

    #[test]
    fn missing_stop_condition_is_an_error() {
        assert_eq!(
            Scenario::patronoc().run().unwrap_err(),
            ScenarioError::NoStopCondition
        );
    }

    #[test]
    fn packet_scenarios_need_meshes() {
        let err = Scenario::packet(PacketProfile::Compact)
            .topology(Topology::Ring { nodes: 8 })
            .window(1_000)
            .run()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::PacketNeedsMesh(_)));
    }

    #[test]
    fn masters_and_slaves_derive_from_topology() {
        let sc = Scenario::patronoc().topology(Topology::Mesh { cols: 3, rows: 5 });
        assert_eq!(sc.num_nodes(), 15);
        assert_eq!(sc.slave_nodes(), (0..15).collect::<Vec<_>>());
        let cfg = sc.noc_config().unwrap();
        assert_eq!(cfg.masters.len(), 15);
        assert_eq!(cfg.slaves.len(), 15);
    }

    #[test]
    fn synthetic_traffic_places_its_slaves() {
        let sc =
            Scenario::patronoc().traffic(TrafficSpec::synthetic(SyntheticPattern::MaxTwoHop, 1000));
        assert_eq!(sc.slave_nodes(), vec![5, 6, 9, 10]);
        assert_eq!(sc.noc_config().unwrap().slaves, vec![5, 6, 9, 10]);
    }

    #[test]
    fn packet_engine_inherits_mesh_dims() {
        let sc = Scenario::packet(PacketProfile::HighPerformance)
            .topology(Topology::Mesh { cols: 3, rows: 3 })
            .traffic(TrafficSpec::uniform(0.5, 64))
            .window(2_000)
            .seed(9);
        let report = sc.run().unwrap();
        assert!(report.payload_bytes > 0);
    }

    #[test]
    fn scenario_serializes_completely() {
        let json = Scenario::patronoc()
            .warmup(10)
            .window(20)
            .seed(7)
            .to_json()
            .to_json();
        for key in [
            "\"engine\"",
            "\"topology\"",
            "\"traffic\"",
            "\"warmup\":10",
            "\"window\":20",
            "\"budget\":null",
            "\"seed\":7",
            "\"threads\":1",
            "\"full_sweep\":false",
        ] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn invalid_axi_parameters_surface_as_config_errors() {
        let err = Scenario::patronoc()
            .data_width(7)
            .window(100)
            .run()
            .unwrap_err();
        assert!(matches!(err, ScenarioError::Config(_)));
    }
}
