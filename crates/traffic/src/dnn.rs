//! DNN workload traffic traces (paper Fig. 7 / Fig. 8).
//!
//! The paper uses GVSoC (a full-system RISC-V SoC simulator) to extract the
//! traffic of three CNN deployment schemes and replays it against the RTL.
//! The NoC only observes the resulting *transfer trace* — who moves how many
//! bytes to whom, in which order — so this module generates equivalent
//! traces directly from a ResNet-34 layer graph deployed on 16 cores:
//!
//! * [`DnnWorkload::DistributedTraining`] — model replication: each core
//!   runs forward and backward passes (weight reads from shared L2) followed
//!   by a ring all-reduce of gradients (core-to-core writes). Mixed
//!   L2↔L1 and L1↔L1 traffic.
//! * [`DnnWorkload::ParallelConv`] — layer-parallel inference: every layer
//!   is tiled across all cores; pure L2→L1 (weights + input tiles) and
//!   L1→L2 (output tiles) traffic.
//! * [`DnnWorkload::PipelinedConv`] — depth-first inference: consecutive
//!   layers are mapped to consecutive cores and image tiles stream through
//!   the pipeline; almost pure L1→L1 neighbour traffic, with only core 0 and
//!   core 15 touching L2.
//!
//! The trace is replayed as the paper re-injects extracted patterns: each
//! core issues its own transfers in trace order, one at a time, the next
//! once the previous has retired. Cores never wait on each other, so a run
//! measures the NoC's capacity under the workload's spatial pattern, not
//! the workload's critical path.

use crate::arrivals::{corrupt, SNAP_KIND};
use crate::source::{TrafficSource, Transfer, TransferKind};
use simkit::snap::{DecodeLimits, Decoder, Encoder, SnapError};
use simkit::{Cycle, Horizon, Rng};

/// One convolutional (or fully-connected) layer of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvLayer {
    /// Input channels (after shrink).
    pub in_ch: u64,
    /// Output channels (after shrink).
    pub out_ch: u64,
    /// Input feature-map height.
    pub h: u64,
    /// Input feature-map width.
    pub w: u64,
    /// Kernel size (k×k).
    pub k: u64,
    /// Stride.
    pub stride: u64,
}

impl ConvLayer {
    /// Weight bytes (int8).
    #[must_use]
    pub fn weight_bytes(&self) -> u64 {
        (self.k * self.k * self.in_ch * self.out_ch).max(1)
    }

    /// Input feature-map bytes (int8).
    #[must_use]
    pub fn ifmap_bytes(&self) -> u64 {
        (self.in_ch * self.h * self.w).max(1)
    }

    /// Output feature-map bytes (int8).
    #[must_use]
    pub fn ofmap_bytes(&self) -> u64 {
        let oh = (self.h / self.stride).max(1);
        let ow = (self.w / self.stride).max(1);
        (self.out_ch * oh * ow).max(1)
    }
}

/// The weight layers of ResNet-34: the most cores a
/// [`PipelinedConv`](DnnWorkload::PipelinedConv) trace can spread over.
pub const RESNET34_LAYERS: usize = 34;

/// Builds the 34 weight layers of ResNet-34 with channels scaled by
/// `channel_scale` (the paper's "90 % channel shrink factor" corresponds to
/// `channel_scale = 0.1`).
///
/// # Panics
///
/// Panics unless `0.0 < channel_scale <= 1.0`.
#[must_use]
pub fn resnet34_layers(channel_scale: f64) -> Vec<ConvLayer> {
    assert!(
        channel_scale > 0.0 && channel_scale <= 1.0,
        "channel scale must be in (0, 1]"
    );
    let ch = |c: u64| ((c as f64 * channel_scale).round() as u64).max(1);
    let mut layers = Vec::with_capacity(RESNET34_LAYERS);
    // Stem: 7×7, 64, /2 on 224×224 RGB.
    layers.push(ConvLayer {
        in_ch: 3,
        out_ch: ch(64),
        h: 224,
        w: 224,
        k: 7,
        stride: 2,
    });
    // Residual stages: (channels, blocks, input resolution).
    let stages: [(u64, usize, u64); 4] = [(64, 3, 56), (128, 4, 28), (256, 6, 14), (512, 3, 7)];
    let mut prev_ch = ch(64);
    for (i, &(c, blocks, res)) in stages.iter().enumerate() {
        let c = ch(c);
        for b in 0..blocks {
            // First conv of the first block of stages 2-4 downsamples from
            // the previous stage's resolution.
            let (h_in, stride) = if b == 0 && i > 0 {
                (res * 2, 2)
            } else {
                (res, 1)
            };
            layers.push(ConvLayer {
                in_ch: prev_ch,
                out_ch: c,
                h: h_in,
                w: h_in,
                k: 3,
                stride,
            });
            layers.push(ConvLayer {
                in_ch: c,
                out_ch: c,
                h: res,
                w: res,
                k: 3,
                stride: 1,
            });
            prev_ch = c;
        }
    }
    // Classifier: 512 → 1000 fully connected (1×1 "conv" on a 1×1 map).
    layers.push(ConvLayer {
        in_ch: prev_ch,
        out_ch: 1000,
        h: 1,
        w: 1,
        k: 1,
        stride: 1,
    });
    debug_assert_eq!(layers.len(), RESNET34_LAYERS);
    layers
}

/// The three deployment schemes of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnnWorkload {
    /// Replicated model, ring all-reduce of gradients.
    DistributedTraining,
    /// Every layer tiled across all cores (pure core↔L2).
    ParallelConv,
    /// Depth-first pipeline across cores (mostly core↔core).
    PipelinedConv,
}

impl DnnWorkload {
    /// All workloads, in the paper's Fig. 8 order.
    #[must_use]
    pub fn all() -> [Self; 3] {
        [
            Self::DistributedTraining,
            Self::ParallelConv,
            Self::PipelinedConv,
        ]
    }

    /// Human-readable name matching the paper's legend.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::DistributedTraining => "Train",
            Self::ParallelConv => "Par Conv",
            Self::PipelinedConv => "Pipe Conv",
        }
    }

    /// The channel scaling of the ResNet-34 this workload deploys.
    ///
    /// Distributed training replicates the model on every core, so it uses
    /// the paper's 90 % channel shrink, 0.1 (16 replicas must fit the
    /// cores' memories); the same shrunk model is tiled for the
    /// layer-parallel schedule. The pipelined (depth-first) schedule instead
    /// *partitions* one network across the 16 cores — each core holds only
    /// its own layers' weights, resident in its L1 before the measurement —
    /// so it runs the model at 0.9, near full channel width, which is the
    /// regime depth-first dataflows are designed for (high-resolution
    /// activations streaming core to core).
    #[must_use]
    pub fn channel_scale(self) -> f64 {
        match self {
            Self::PipelinedConv => 0.9,
            Self::DistributedTraining | Self::ParallelConv => 0.1,
        }
    }

    /// The largest transfer of this workload's trace on `cores` cores, in
    /// bytes, at any step count: the least region size the trace fits.
    /// It follows the builders' layer formulas without building the trace.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two cores, or on more pipeline stages than
    /// ResNet-34 layers.
    #[must_use]
    pub fn largest_transfer(self, cores: usize) -> u64 {
        assert!(cores >= 2, "need at least two cores");
        let layers = resnet34_layers(self.channel_scale());
        let p = cores as u64;
        // Folding from 1: `push` gives every entry at least one byte.
        match self {
            Self::ParallelConv => layers
                .iter()
                .flat_map(|l| [l.ifmap_bytes() / p, l.weight_bytes(), l.ofmap_bytes() / p])
                .fold(1, u64::max),
            Self::DistributedTraining => layers
                .iter()
                .map(ConvLayer::weight_bytes)
                .chain([layers[0].ifmap_bytes(), gradient_chunk(&layers, cores)])
                .fold(1, u64::max),
            Self::PipelinedConv => boundary_bytes(&layers, cores)
                .into_iter()
                .chain([layers[0].ifmap_bytes()])
                .map(|bytes| bytes / PIPELINE_TILES)
                .fold(1, u64::max),
        }
    }
}

/// Row tiles each image is cut into by the pipelined schedule.
const PIPELINE_TILES: u64 = 8;

/// The bytes of one ring all-reduce write: each core's share of the
/// gradients of every layer.
fn gradient_chunk(layers: &[ConvLayer], cores: usize) -> u64 {
    let grad_bytes: u64 = layers.iter().map(ConvLayer::weight_bytes).sum();
    (grad_bytes / cores as u64).max(1)
}

/// The bytes each pipeline stage ships per image, stage by stage.
///
/// Stages own balanced contiguous layer ranges: stage s owns
/// layers[s·L/p .. (s+1)·L/p), never empty for L ≥ p. A stage ships the
/// *input* feature map of the next stage's first layer (this accounts for
/// pooling between layer groups — e.g. the post-conv1 max-pool — which the
/// sender applies before shipping); the last stage writes its own final
/// output to L2.
///
/// # Panics
///
/// Panics if there are more stages than layers.
fn boundary_bytes(layers: &[ConvLayer], stages: usize) -> Vec<u64> {
    assert!(
        stages <= layers.len(),
        "pipeline needs at least one layer per core"
    );
    (1..=stages)
        .map(|next| {
            let first = next * layers.len() / stages;
            if next < stages {
                layers[first].ifmap_bytes()
            } else {
                layers[first - 1].ofmap_bytes()
            }
        })
        .collect()
}

/// Configuration for [`DnnTraffic`].
#[derive(Debug, Clone)]
pub struct DnnConfig {
    /// Deployment scheme.
    pub workload: DnnWorkload,
    /// Number of cores (masters); cores sit at nodes `0..cores`.
    pub cores: usize,
    /// Node hosting the shared L2 memory.
    pub l2_node: usize,
    /// Training steps / images to process.
    pub steps: usize,
    /// Per-endpoint address region size (offsets kept in range).
    pub region_size: u64,
    /// RNG seed for offset placement.
    pub seed: u64,
}

impl Default for DnnConfig {
    fn default() -> Self {
        Self {
            workload: DnnWorkload::ParallelConv,
            cores: 16,
            l2_node: 6, // endpoint (2,1) of the 4×4 mesh, like Fig. 5a
            steps: 1,
            region_size: 1 << 24,
            seed: 1,
        }
    }
}

impl DnnConfig {
    /// The defaults, running `workload`.
    #[must_use]
    pub fn for_workload(workload: DnnWorkload) -> Self {
        Self {
            workload,
            ..Self::default()
        }
    }
}

#[derive(Debug, Clone)]
struct TraceEntry {
    master: usize,
    dst: usize,
    bytes: u64,
    kind: TransferKind,
}

/// Appends a transfer of at least one byte to the trace.
fn push(trace: &mut Vec<TraceEntry>, master: usize, dst: usize, bytes: u64, kind: TransferKind) {
    trace.push(TraceEntry {
        master,
        dst,
        bytes: bytes.max(1),
        kind,
    });
}

/// One core's share of the trace and its replay progress.
#[derive(Debug, Clone, Default)]
struct CoreQueue {
    /// The core's entry indices, in trace order.
    entries: Vec<u32>,
    /// Entries handed out by `poll`.
    issued: usize,
    /// Entries whose completion has been observed.
    retired: usize,
}

impl CoreQueue {
    /// Whether the core has a next entry and nothing in flight.
    fn is_ready(&self) -> bool {
        self.issued == self.retired && self.issued < self.entries.len()
    }
}

/// A DNN transfer trace implementing [`TrafficSource`], replayed per core.
///
/// A core's next transfer becomes pollable once its previous one has
/// completed ([`TrafficSource::on_complete`]); see the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct DnnTraffic {
    /// The trace in order: a transfer's id is its index.
    entries: Vec<TraceEntry>,
    offsets: Vec<u64>,
    cores: Vec<CoreQueue>,
    completed: usize,
}

impl DnnTraffic {
    /// Builds the trace for the configured workload.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (fewer than two cores, zero
    /// steps, or more pipeline stages than ResNet-34 layers) and on a
    /// transfer larger than `region_size` (see
    /// [`DnnWorkload::largest_transfer`]).
    #[must_use]
    pub fn new(cfg: &DnnConfig) -> Self {
        assert!(cfg.cores >= 2, "need at least two cores");
        assert!(cfg.steps >= 1, "need at least one step");
        let layers = resnet34_layers(cfg.workload.channel_scale());
        let entries = match cfg.workload {
            DnnWorkload::ParallelConv => Self::build_parallel(cfg, &layers),
            DnnWorkload::DistributedTraining => Self::build_training(cfg, &layers),
            DnnWorkload::PipelinedConv => Self::build_pipeline(cfg, &layers),
        };
        assert!(
            entries.iter().all(|e| e.bytes <= cfg.region_size),
            "transfers must fit in a region"
        );
        let mut cores = vec![CoreQueue::default(); cfg.cores];
        for (i, e) in entries.iter().enumerate() {
            cores[e.master].entries.push(i as u32);
        }
        let mut rng = Rng::new(cfg.seed);
        let offsets = entries
            .iter()
            .map(|e| match cfg.region_size.saturating_sub(e.bytes) {
                0 => 0,
                max => rng.gen_range(max),
            })
            .collect();
        Self {
            entries,
            offsets,
            cores,
            completed: 0,
        }
    }

    /// Layer-parallel inference: each layer tiled across all cores
    /// (Fig. 7b). Per step, layer and core: a read of the core's ifmap
    /// share, a weight read, and a write of its ofmap share.
    fn build_parallel(cfg: &DnnConfig, layers: &[ConvLayer]) -> Vec<TraceEntry> {
        let p = cfg.cores as u64;
        let mut trace = Vec::new();
        for _step in 0..cfg.steps {
            for layer in layers {
                for core in 0..cfg.cores {
                    for (bytes, kind) in [
                        (layer.ifmap_bytes() / p, TransferKind::Read),
                        (layer.weight_bytes(), TransferKind::Read),
                        (layer.ofmap_bytes() / p, TransferKind::Write),
                    ] {
                        push(&mut trace, core, cfg.l2_node, bytes, kind);
                    }
                }
            }
        }
        trace
    }

    /// Distributed training: per-core forward/backward weight traffic from
    /// L2 plus a ring reduce-scatter + all-gather of gradients (Fig. 7a).
    fn build_training(cfg: &DnnConfig, layers: &[ConvLayer]) -> Vec<TraceEntry> {
        let p = cfg.cores;
        let chunk = gradient_chunk(layers, p);
        let mut trace = Vec::new();
        for _step in 0..cfg.steps {
            // Forward: input batch, then the weights layer by layer; backward:
            // the weights again (transposed), in reverse layer order.
            for core in 0..p {
                let input = layers[0].ifmap_bytes();
                push(&mut trace, core, cfg.l2_node, input, TransferKind::Read);
                for layer in layers.iter().chain(layers.iter().rev()) {
                    let bytes = layer.weight_bytes();
                    push(&mut trace, core, cfg.l2_node, bytes, TransferKind::Read);
                }
            }
            // Ring all-reduce: 2(P−1) rounds of chunk writes to the next core.
            for _round in 0..2 * (p - 1) {
                for core in 0..p {
                    push(&mut trace, core, (core + 1) % p, chunk, TransferKind::Write);
                }
            }
        }
        trace
    }

    /// Depth-first pipeline: contiguous layer groups per core, image tiles
    /// streaming through neighbouring cores (Fig. 7c). Weights are resident,
    /// so the trace carries activations only.
    fn build_pipeline(cfg: &DnnConfig, layers: &[ConvLayer]) -> Vec<TraceEntry> {
        let p = cfg.cores;
        let boundary_bytes = boundary_bytes(layers, p);
        let mut trace = Vec::new();
        for _step in 0..cfg.steps {
            for _tile in 0..PIPELINE_TILES {
                // Stage 0 fetches an input tile from L2; each stage forwards
                // its output tile to the next core's L1, and the last stage
                // writes results back to L2.
                let input = layers[0].ifmap_bytes() / PIPELINE_TILES;
                push(&mut trace, 0, cfg.l2_node, input, TransferKind::Read);
                for (s, &bytes) in boundary_bytes.iter().enumerate() {
                    let dst = if s == p - 1 { cfg.l2_node } else { s + 1 };
                    let tile = bytes / PIPELINE_TILES;
                    push(&mut trace, s, dst, tile, TransferKind::Write);
                }
            }
        }
        trace
    }

    /// Total number of transfers in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total payload bytes the trace moves.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Transfers completed so far.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Trace fingerprint carried in the checkpoint header: a source-type
    /// tag plus the complete immutable trace — entries and offsets — so a
    /// checkpoint only restores into the exact same workload.
    fn shape(&self) -> u64 {
        let mut e = Encoder::new(0, 0);
        e.byte(3); // source type: DNN trace
        e.usize(self.entries.len());
        for entry in &self.entries {
            e.usize(entry.master);
            e.usize(entry.dst);
            e.u64(entry.bytes);
            e.byte(match entry.kind {
                TransferKind::Read => 0,
                TransferKind::Write => 1,
                TransferKind::Copy { .. } => 2,
            });
        }
        for &o in &self.offsets {
            e.u64(o);
        }
        e.digest()
    }

    /// The fallible core of `restore_state`: decodes every core's
    /// `(retired, issued)` pair, validating each against the core's
    /// queue, and commits only on full success.
    fn try_restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut d = Decoder::new(bytes, SNAP_KIND, self.shape(), DecodeLimits::default())?;
        let mut progress = Vec::with_capacity(self.cores.len());
        for core in &self.cores {
            let retired = d.usize()?;
            let issued = d.usize()?;
            if issued < retired || issued - retired > 1 {
                return Err(corrupt("more than one transfer in flight on a core"));
            }
            if issued > core.entries.len() {
                return Err(corrupt("more transfers issued than the core owns"));
            }
            progress.push((retired, issued));
        }
        d.finish()?;
        for (core, (retired, issued)) in self.cores.iter_mut().zip(progress) {
            core.retired = retired;
            core.issued = issued;
        }
        self.completed = self.cores.iter().map(|c| c.retired).sum();
        Ok(())
    }

    /// Fraction of trace bytes that move core-to-core (not touching L2),
    /// useful for validating the workload structure.
    #[must_use]
    pub fn core_to_core_fraction(&self, l2_node: usize) -> f64 {
        let total = self.total_bytes() as f64;
        let c2c: u64 = self
            .entries
            .iter()
            .filter(|e| e.dst != l2_node)
            .map(|e| e.bytes)
            .sum();
        c2c as f64 / total
    }
}

impl TrafficSource for DnnTraffic {
    fn poll(&mut self, master: usize, _now: Cycle) -> Option<Transfer> {
        let core = self.cores.get_mut(master)?;
        if !core.is_ready() {
            return None;
        }
        let idx = core.entries[core.issued] as usize;
        core.issued += 1;
        let e = &self.entries[idx];
        Some(Transfer {
            id: idx as u64,
            dst: e.dst,
            offset: self.offsets[idx],
            bytes: e.bytes,
            kind: e.kind,
        })
    }

    fn on_complete(&mut self, _master: usize, id: u64, _now: Cycle) {
        let core = &mut self.cores[self.entries[id as usize].master];
        debug_assert!(
            core.issued == core.retired + 1 && core.entries[core.retired] as u64 == id,
            "completion of a transfer its core does not have in flight"
        );
        core.retired += 1;
        self.completed += 1;
    }

    fn is_done(&self) -> bool {
        self.completed == self.entries.len()
    }

    fn next_arrival(&self, now: Cycle) -> Horizon {
        // A trace is untimed: a ready core can poll immediately, and no
        // core can become ready without an `on_complete` callback — which
        // a quiescent engine, having nothing in flight, will never
        // deliver. So the horizon is either "right now" or "never".
        if self.cores.iter().any(CoreQueue::is_ready) {
            Horizon::At(now)
        } else {
            Horizon::Never
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut e = Encoder::new(SNAP_KIND, self.shape());
        for core in &self.cores {
            e.usize(core.retired);
            e.usize(core.issued);
        }
        Some(e.finish())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> bool {
        self.try_restore(bytes).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet34_has_34_layers() {
        let layers = resnet34_layers(1.0);
        assert_eq!(layers.len(), 34);
        // Unscaled stem: 7·7·3·64 weights.
        assert_eq!(layers[0].weight_bytes(), 7 * 7 * 3 * 64);
        // Final FC: 512 × 1000.
        assert_eq!(layers[33].weight_bytes(), 512 * 1000);
    }

    #[test]
    fn channel_shrink_reduces_sizes() {
        let full: u64 = resnet34_layers(1.0)
            .iter()
            .map(ConvLayer::weight_bytes)
            .sum();
        let shrunk: u64 = resnet34_layers(0.1)
            .iter()
            .map(ConvLayer::weight_bytes)
            .sum();
        assert!(shrunk < full / 10, "shrunk {shrunk} vs full {full}");
    }

    #[test]
    #[should_panic(expected = "channel scale")]
    fn bad_scale_rejected() {
        let _ = resnet34_layers(0.0);
    }

    fn run_trace_to_completion(mut t: DnnTraffic) -> (usize, u64) {
        // Simulate instantaneous transfers: poll everything ready, complete
        // it, repeat, until every core has replayed its share.
        let mut now = 0;
        let masters = t.cores.len();
        let total = t.len();
        let mut guard = 0;
        while !t.is_done() {
            let mut progress = false;
            for m in 0..masters {
                while let Some(tr) = t.poll(m, now) {
                    t.on_complete(m, tr.id, now);
                    progress = true;
                }
            }
            assert!(progress, "replay wedged at {}/{total}", t.completed());
            now += 1;
            guard += 1;
            assert!(guard < 1_000_000);
        }
        (t.completed(), t.total_bytes())
    }

    #[test]
    fn parallel_trace_completes_acyclically() {
        let cfg = DnnConfig {
            workload: DnnWorkload::ParallelConv,
            ..DnnConfig::default()
        };
        let t = DnnTraffic::new(&cfg);
        let n = t.len();
        assert_eq!(n, 34 * 16 * 3);
        let (done, bytes) = run_trace_to_completion(t);
        assert_eq!(done, n);
        assert!(bytes > 0);
    }

    #[test]
    fn training_trace_completes_acyclically() {
        let cfg = DnnConfig {
            workload: DnnWorkload::DistributedTraining,
            ..DnnConfig::default()
        };
        let t = DnnTraffic::new(&cfg);
        let (done, _) = run_trace_to_completion(t.clone());
        assert_eq!(done, t.len());
    }

    #[test]
    fn pipeline_trace_completes_acyclically() {
        let cfg = DnnConfig {
            workload: DnnWorkload::PipelinedConv,
            ..DnnConfig::default()
        };
        let t = DnnTraffic::new(&cfg);
        let (done, _) = run_trace_to_completion(t.clone());
        assert_eq!(done, t.len());
    }

    #[test]
    fn largest_transfer_is_the_largest_built_entry() {
        for workload in DnnWorkload::all() {
            for cores in [2, 3, 4, 9, 16, 34] {
                let t = DnnTraffic::new(&DnnConfig {
                    workload,
                    cores,
                    l2_node: cores / 2,
                    ..DnnConfig::default()
                });
                let built = t.entries.iter().map(|e| e.bytes).max();
                assert_eq!(
                    Some(workload.largest_transfer(cores)),
                    built,
                    "{workload:?} on {cores} cores"
                );
            }
        }
        // At 16 cores: the input image, the classifier's weights, and the
        // pipeline's largest stage-to-stage tile.
        assert_eq!(
            DnnWorkload::DistributedTraining.largest_transfer(16),
            150_528
        );
        assert_eq!(DnnWorkload::ParallelConv.largest_transfer(16), 51_000);
        assert_eq!(DnnWorkload::PipelinedConv.largest_transfer(16), 22_736);
    }

    #[test]
    #[should_panic(expected = "transfers must fit in a region")]
    fn transfers_larger_than_a_region_rejected() {
        // Par Conv's classifier weights are 51,000 bytes.
        let _ = DnnTraffic::new(&DnnConfig {
            region_size: 4096,
            ..DnnConfig::default()
        });
    }

    #[test]
    fn parallel_conv_is_pure_l2_traffic() {
        let cfg = DnnConfig {
            workload: DnnWorkload::ParallelConv,
            ..DnnConfig::default()
        };
        let t = DnnTraffic::new(&cfg);
        assert_eq!(t.core_to_core_fraction(cfg.l2_node), 0.0);
    }

    #[test]
    fn pipeline_is_mostly_core_to_core() {
        // In steady state (weight preload amortized over several images)
        // the pipeline is predominantly L1→L1 neighbour traffic (Fig. 7c).
        let cfg = DnnConfig {
            workload: DnnWorkload::PipelinedConv,
            steps: 8,
            ..DnnConfig::default()
        };
        let t = DnnTraffic::new(&cfg);
        // The unshrunk 3-channel 224×224 input image keeps the L2 share
        // substantial even in steady state, but the core-to-core share must
        // dominate every *inter-stage* link and be the largest single
        // category. It must also far exceed the other workloads' shares.
        let pipe = t.core_to_core_fraction(cfg.l2_node);
        assert!(pipe > 0.35, "fraction {pipe}");
        let par = DnnTraffic::new(&DnnConfig {
            workload: DnnWorkload::ParallelConv,
            steps: 8,
            ..DnnConfig::default()
        })
        .core_to_core_fraction(cfg.l2_node);
        assert!(pipe > par + 0.3, "pipe {pipe} vs par {par}");
    }

    #[test]
    fn training_mixes_l2_and_core_traffic() {
        let cfg = DnnConfig {
            workload: DnnWorkload::DistributedTraining,
            ..DnnConfig::default()
        };
        let t = DnnTraffic::new(&cfg);
        let f = t.core_to_core_fraction(cfg.l2_node);
        assert!(f > 0.05 && f < 0.95, "fraction {f}");
    }

    #[test]
    fn trace_volumes_match_analytic_model() {
        // Parallel conv moves, per step: every layer's weights once per
        // core, plus ifmap/16 and ofmap/16 per core (= full ifmap + ofmap
        // across 16 cores).
        let cfg = DnnConfig {
            workload: DnnWorkload::ParallelConv,
            ..DnnConfig::default()
        };
        let t = DnnTraffic::new(&cfg);
        let layers = resnet34_layers(cfg.workload.channel_scale());
        let p = cfg.cores as u64;
        let expected: u64 = layers
            .iter()
            .map(|l| p * l.weight_bytes() + p * (l.ifmap_bytes() / p) + p * (l.ofmap_bytes() / p))
            .sum();
        assert_eq!(t.total_bytes(), expected);
    }

    #[test]
    fn training_trace_reduces_full_gradient_twice() {
        // Ring all-reduce = reduce-scatter + all-gather = 2(P−1) rounds of
        // G/P chunk writes per core → 2(P−1) · G core-to-core bytes.
        let cfg = DnnConfig {
            workload: DnnWorkload::DistributedTraining,
            ..DnnConfig::default()
        };
        let t = DnnTraffic::new(&cfg);
        let layers = resnet34_layers(cfg.workload.channel_scale());
        let grad: u64 = layers.iter().map(ConvLayer::weight_bytes).sum();
        let p = cfg.cores as u64;
        // One write per round targets the node that also hosts L2 (node 6)
        // and is therefore not counted as core-to-core: p−1 counted writes
        // per round, 2(p−1) rounds.
        let c2c: u64 = 2 * (p - 1) * (p - 1) * (grad / p);
        let measured =
            (t.total_bytes() as f64 * t.core_to_core_fraction(cfg.l2_node)).round() as u64;
        assert!(
            measured.abs_diff(c2c) <= 2,
            "measured {measured} vs analytic {c2c}"
        );
    }

    #[test]
    fn replay_mode_has_linear_per_core_chains() {
        // A core waits only on its own previous transfer: polling any
        // single master drains its whole share without any cross-core
        // completions.
        let cfg = DnnConfig {
            workload: DnnWorkload::PipelinedConv,
            ..DnnConfig::default()
        };
        let mut t = DnnTraffic::new(&cfg);
        let mut drained = 0;
        while let Some(tr) = t.poll(3, 0) {
            t.on_complete(3, tr.id, 0);
            drained += 1;
        }
        // Core 3 owns exactly tiles × steps transfers.
        assert_eq!(drained as u64, PIPELINE_TILES * cfg.steps as u64);
    }

    #[test]
    fn multi_step_scales_trace() {
        let one = DnnTraffic::new(&DnnConfig::default());
        let two = DnnTraffic::new(&DnnConfig {
            steps: 2,
            ..DnnConfig::default()
        });
        assert_eq!(two.len(), 2 * one.len());
    }

    #[test]
    fn workload_names_match_paper_legend() {
        assert_eq!(DnnWorkload::DistributedTraining.name(), "Train");
        assert_eq!(DnnWorkload::ParallelConv.name(), "Par Conv");
        assert_eq!(DnnWorkload::PipelinedConv.name(), "Pipe Conv");
    }

    /// Drive a trace instantaneously for `rounds` sweeps over all masters.
    fn advance(t: &mut DnnTraffic, rounds: usize) {
        let masters = t.cores.len();
        for _ in 0..rounds {
            for m in 0..masters {
                if let Some(tr) = t.poll(m, 0) {
                    t.on_complete(m, tr.id, 0);
                }
            }
        }
    }

    #[test]
    fn next_arrival_tracks_ready_work() {
        let mut t = DnnTraffic::new(&DnnConfig::default());
        // Fresh trace: every core's first transfer is ready.
        assert_eq!(t.next_arrival(5), Horizon::At(5));
        // Issue everything pollable without completing: every core has a
        // transfer in flight, all remaining work gated on completions →
        // Never.
        for m in 0..t.cores.len() {
            while t.poll(m, 0).is_some() {}
        }
        assert!(!t.is_done());
        assert_eq!(t.next_arrival(9), Horizon::Never);
    }

    #[test]
    fn checkpoint_restore_reproduces_the_future_trace() {
        let cfg = DnnConfig::default();
        let mut t = DnnTraffic::new(&cfg);
        advance(&mut t, 40);
        assert!(t.completed() > 0 && !t.is_done(), "capture mid-trace");
        // Capture with core 0's next transfer in flight.
        let in_flight = t.poll(0, 0).expect("core 0 has work left");
        let bytes = t.snapshot_state().expect("traces checkpoint");
        let mut restored = DnnTraffic::new(&cfg);
        assert!(restored.restore_state(&bytes));
        assert_eq!(restored.completed(), t.completed());
        assert_eq!(restored.poll(0, 0), None, "core 0 waits on its transfer");
        t.on_complete(0, in_flight.id, 0);
        restored.on_complete(0, in_flight.id, 0);
        while !t.is_done() {
            for m in 0..t.cores.len() {
                let (a, b) = (t.poll(m, 0), restored.poll(m, 0));
                assert_eq!(a, b);
                if let Some(tr) = a {
                    t.on_complete(m, tr.id, 0);
                    restored.on_complete(m, tr.id, 0);
                }
            }
        }
        assert!(restored.is_done());
    }

    #[test]
    fn checkpoint_from_a_different_trace_refused() {
        let t = DnnTraffic::new(&DnnConfig::default());
        let bytes = t.snapshot_state().unwrap();
        let mut other = DnnTraffic::new(&DnnConfig {
            steps: 2,
            ..DnnConfig::default()
        });
        assert!(!other.restore_state(&bytes));
        // Corruption within a matching trace is caught by the digest.
        let mut same = DnnTraffic::new(&DnnConfig::default());
        let mut bad = bytes;
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        let before = same.snapshot_state().unwrap();
        assert!(!same.restore_state(&bad));
        assert_eq!(same.snapshot_state().unwrap(), before);
    }

    #[test]
    fn checkpoint_with_unreachable_progress_refused() {
        // Well-framed bytes for this very trace, with core 0's
        // (retired, issued) counts set to pairs no replay reaches.
        let mut t = DnnTraffic::new(&DnnConfig::default());
        let before = t.snapshot_state().unwrap();
        let own = t.cores[0].entries.len();
        let forge = |t: &DnnTraffic, retired: usize, issued: usize| {
            let mut e = Encoder::new(SNAP_KIND, t.shape());
            e.usize(retired);
            e.usize(issued);
            for _ in 1..t.cores.len() {
                e.usize(0);
                e.usize(0);
            }
            e.finish()
        };
        for (retired, issued) in [(0, 2), (1, 0), (own, own + 1)] {
            assert!(
                !t.restore_state(&forge(&t, retired, issued)),
                "({retired}, {issued})"
            );
            assert_eq!(t.snapshot_state().unwrap(), before);
        }
        // One transfer in flight is reachable.
        assert!(t.restore_state(&forge(&t, 0, 1)));
        assert_eq!(t.poll(0, 0), None);
    }
}
