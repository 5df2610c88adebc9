//! DNN workload traffic traces (paper Fig. 7 / Fig. 8).
//!
//! The paper uses GVSoC (a full-system RISC-V SoC simulator) to extract the
//! traffic of three CNN deployment schemes and replays it against the RTL.
//! The NoC only observes the resulting *transfer trace* — who moves how many
//! bytes to whom, and in which dependency order — so this module generates
//! equivalent traces directly from a ResNet-34 layer graph (with the paper's
//! 90 % channel-shrink factor) deployed on 16 cores:
//!
//! * [`DnnWorkload::DistributedTraining`] — model replication: each core
//!   runs forward and backward passes (weight reads from shared L2) followed
//!   by a ring all-reduce of gradients (core-to-core writes). Mixed
//!   L2↔L1 and L1↔L1 traffic.
//! * [`DnnWorkload::ParallelConv`] — layer-parallel inference: every layer
//!   is tiled across all cores; pure L2→L1 (weights + input tiles) and
//!   L1→L2 (output tiles) traffic with a barrier between layers.
//! * [`DnnWorkload::PipelinedConv`] — depth-first inference: consecutive
//!   layers are mapped to consecutive cores and image tiles stream through
//!   the pipeline; almost pure L1→L1 neighbour traffic, with only core 0 and
//!   core 15 touching L2.

use crate::chkpt::{self, corrupt};
use crate::source::{TrafficSource, Transfer, TransferKind};
use simkit::snap::{DecodeLimits, Decoder, Encoder, SnapError};
use simkit::{Cycle, Horizon, Rng};
use std::collections::VecDeque;

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
    /// Channel scaling (0.1 = the paper's 90 % shrink).
    pub channel_scale: f64,
    /// Row tiles for the pipelined schedule.
    pub tiles: usize,
    /// Training steps / images to process.
    pub steps: usize,
    /// Pipelined schedule only: weights stay resident in each stage's L1
    /// (preloaded before the measurement), so the steady-state trace carries
    /// activations only. With `false`, per-stage weight reads from L2 are
    /// prepended to the trace.
    pub pipeline_weights_resident: bool,
    /// Trace replay mode (the default, matching the paper's methodology):
    /// transfers are ordered only *within* each core — every core replays
    /// its extracted traffic sequence back-to-back, as when GVSoC-generated
    /// patterns are re-injected into the RTL simulation. With `replay =
    /// false` the full cross-core dependency graph is enforced instead
    /// (producer→consumer), which measures the *workload's* critical path
    /// rather than the NoC's capacity under the workload's spatial pattern.
    pub replay: bool,
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
            channel_scale: 0.1,
            tiles: 8,
            steps: 1,
            pipeline_weights_resident: true,
            replay: true,
            region_size: 1 << 24,
            seed: 1,
        }
    }
}

impl DnnConfig {
    /// Per-workload evaluation defaults.
    ///
    /// Distributed training replicates the model on every core, so it uses
    /// the paper's 90 % channel shrink (16 replicas must fit the cores'
    /// memories); the same shrunk model is tiled for the layer-parallel
    /// schedule. The pipelined (depth-first) schedule instead *partitions*
    /// one network across the 16 cores — each core holds only its own
    /// layers' weights — so it runs the model at full channel width with
    /// weights resident, which is the regime depth-first dataflows are
    /// designed for (high-resolution activations streaming core to core).
    #[must_use]
    pub fn for_workload(workload: DnnWorkload) -> Self {
        let base = Self {
            workload,
            ..Self::default()
        };
        match workload {
            DnnWorkload::PipelinedConv => Self {
                channel_scale: 0.9,
                ..base
            },
            _ => base,
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

/// A dependency-ordered transfer trace implementing [`TrafficSource`].
///
/// Entries become pollable once all their dependencies have completed;
/// [`TrafficSource::on_complete`] drives the dependency graph forward.
#[derive(Debug, Clone)]
pub struct DnnTraffic {
    entries: Vec<TraceEntry>,
    offsets: Vec<u64>,
    dependents: Vec<Vec<u32>>,
    remaining_deps: Vec<u32>,
    ready: Vec<VecDeque<u32>>,
    completed: usize,
}

/// Helper that accumulates trace entries and dependencies.
struct TraceBuilder {
    entries: Vec<TraceEntry>,
    deps: Vec<Vec<u32>>,
}

impl TraceBuilder {
    fn new() -> Self {
        Self {
            entries: Vec::new(),
            deps: Vec::new(),
        }
    }

    fn add(
        &mut self,
        master: usize,
        dst: usize,
        bytes: u64,
        kind: TransferKind,
        deps: Vec<u32>,
    ) -> u32 {
        let idx = self.entries.len() as u32;
        self.entries.push(TraceEntry {
            master,
            dst,
            bytes: bytes.max(1),
            kind,
        });
        self.deps.push(deps);
        idx
    }
}

impl DnnTraffic {
    /// Builds the trace for the configured workload.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero cores/tiles/steps, or an
    /// L2 node outside the core range when cores host the slaves).
    #[must_use]
    pub fn new(cfg: &DnnConfig) -> Self {
        assert!(cfg.cores >= 2, "need at least two cores");
        assert!(cfg.tiles >= 1 && cfg.steps >= 1);
        let layers = resnet34_layers(cfg.channel_scale);
        let mut b = TraceBuilder::new();
        match cfg.workload {
            DnnWorkload::ParallelConv => Self::build_parallel(cfg, &layers, &mut b),
            DnnWorkload::DistributedTraining => Self::build_training(cfg, &layers, &mut b),
            DnnWorkload::PipelinedConv => Self::build_pipeline(cfg, &layers, &mut b),
        }
        if cfg.replay {
            // Replay mode: keep only intra-core ordering (each core streams
            // its trace back-to-back, like the paper's pattern re-injection).
            let mut last_of_master: Vec<Option<u32>> = Vec::new();
            for (i, e) in b.entries.iter().enumerate() {
                if e.master >= last_of_master.len() {
                    last_of_master.resize(e.master + 1, None);
                }
                b.deps[i] = match last_of_master[e.master] {
                    Some(prev) => vec![prev],
                    None => Vec::new(),
                };
                last_of_master[e.master] = Some(i as u32);
            }
        }
        Self::from_builder(cfg, b)
    }

    fn from_builder(cfg: &DnnConfig, b: TraceBuilder) -> Self {
        let n = b.entries.len();
        let mut dependents = vec![Vec::new(); n];
        let mut remaining = vec![0u32; n];
        for (i, deps) in b.deps.iter().enumerate() {
            remaining[i] = deps.len() as u32;
            for &d in deps {
                dependents[d as usize].push(i as u32);
            }
        }
        let masters = b.entries.iter().map(|e| e.master).max().unwrap_or(0) + 1;
        let mut ready = vec![VecDeque::new(); masters];
        for (i, &r) in remaining.iter().enumerate() {
            if r == 0 {
                ready[b.entries[i].master].push_back(i as u32);
            }
        }
        let mut rng = Rng::new(cfg.seed);
        let offsets = b
            .entries
            .iter()
            .map(|e| {
                let max = cfg.region_size.saturating_sub(e.bytes);
                if max == 0 {
                    0
                } else {
                    rng.gen_range(max)
                }
            })
            .collect();
        Self {
            entries: b.entries,
            offsets,
            dependents,
            remaining_deps: remaining,
            ready,
            completed: 0,
        }
    }

    /// Layer-parallel inference: each layer tiled across all cores with a
    /// global barrier between layers (Fig. 7b).
    fn build_parallel(cfg: &DnnConfig, layers: &[ConvLayer], b: &mut TraceBuilder) {
        let p = cfg.cores as u64;
        let mut prev_writes: Vec<u32> = Vec::new();
        for _step in 0..cfg.steps {
            for layer in layers {
                let mut writes = Vec::with_capacity(cfg.cores);
                for core in 0..cfg.cores {
                    let barrier = prev_writes.clone();
                    let r_in = b.add(
                        core,
                        cfg.l2_node,
                        layer.ifmap_bytes() / p,
                        TransferKind::Read,
                        barrier.clone(),
                    );
                    let r_w = b.add(
                        core,
                        cfg.l2_node,
                        layer.weight_bytes(),
                        TransferKind::Read,
                        barrier,
                    );
                    let w_out = b.add(
                        core,
                        cfg.l2_node,
                        layer.ofmap_bytes() / p,
                        TransferKind::Write,
                        vec![r_in, r_w],
                    );
                    writes.push(w_out);
                }
                prev_writes = writes;
            }
        }
    }

    /// Distributed training: per-core forward/backward weight traffic from
    /// L2 plus a ring reduce-scatter + all-gather of gradients (Fig. 7a).
    fn build_training(cfg: &DnnConfig, layers: &[ConvLayer], b: &mut TraceBuilder) {
        let p = cfg.cores;
        let grad_bytes: u64 = layers.iter().map(ConvLayer::weight_bytes).sum();
        let chunk = (grad_bytes / p as u64).max(1);
        let mut last_of_core: Vec<Option<u32>> = vec![None; p];
        for _step in 0..cfg.steps {
            // Forward: input batch + per-layer weights, serialized per core.
            for (core, last_slot) in last_of_core.iter_mut().enumerate() {
                let dep = |l: Option<u32>| l.map(|d| vec![d]).unwrap_or_default();
                let mut last = *last_slot;
                let r_in = b.add(
                    core,
                    cfg.l2_node,
                    layers[0].ifmap_bytes(),
                    TransferKind::Read,
                    dep(last),
                );
                last = Some(r_in);
                for layer in layers {
                    let r = b.add(
                        core,
                        cfg.l2_node,
                        layer.weight_bytes(),
                        TransferKind::Read,
                        vec![last.unwrap()],
                    );
                    last = Some(r);
                }
                // Backward: weights again (transposed) per layer.
                for layer in layers.iter().rev() {
                    let r = b.add(
                        core,
                        cfg.l2_node,
                        layer.weight_bytes(),
                        TransferKind::Read,
                        vec![last.unwrap()],
                    );
                    last = Some(r);
                }
                *last_slot = last;
            }
            // Ring all-reduce: 2(P−1) steps of chunk writes to the next core.
            let mut prev_round: Vec<u32> = last_of_core.iter().map(|l| l.unwrap()).collect();
            for _round in 0..(2 * (p - 1)) {
                let mut this_round = Vec::with_capacity(p);
                for core in 0..p {
                    let next = (core + 1) % p;
                    let pred = (core + p - 1) % p;
                    // Depends on own previous round and on having received
                    // the predecessor's chunk from the previous round.
                    let deps = vec![prev_round[core], prev_round[pred]];
                    let w = b.add(core, next, chunk, TransferKind::Write, deps);
                    this_round.push(w);
                }
                prev_round = this_round;
            }
            for (last, &round) in last_of_core.iter_mut().zip(&prev_round) {
                *last = Some(round);
            }
        }
    }

    /// Depth-first pipeline: contiguous layer groups per core, image tiles
    /// streaming through neighbouring cores (Fig. 7c).
    fn build_pipeline(cfg: &DnnConfig, layers: &[ConvLayer], b: &mut TraceBuilder) {
        let p = cfg.cores;
        assert!(
            p <= layers.len(),
            "pipeline needs at least one layer per core"
        );
        let t_count = cfg.tiles as u64;
        // Balanced contiguous layer ranges: stage s owns
        // layers[s·L/p .. (s+1)·L/p), never empty for L ≥ p.
        let range = |s: usize| (s * layers.len() / p, (s + 1) * layers.len() / p);
        // Inter-stage tile: the *input* feature map of the next stage's
        // first layer (this accounts for pooling between layer groups —
        // e.g. the post-conv1 max-pool — which the sender applies before
        // shipping). The last stage writes its own final output to L2.
        let boundary_bytes: Vec<u64> = (0..p)
            .map(|s| {
                if s + 1 < p {
                    layers[range(s + 1).0].ifmap_bytes()
                } else {
                    layers[range(s).1 - 1].ofmap_bytes()
                }
            })
            .collect();
        // Weight preload per stage (skipped when weights are resident).
        let preload: Vec<Option<u32>> = (0..p)
            .map(|s| {
                if cfg.pipeline_weights_resident {
                    return None;
                }
                let (start, end) = range(s);
                let bytes: u64 = layers[start..end].iter().map(ConvLayer::weight_bytes).sum();
                Some(b.add(s, cfg.l2_node, bytes.max(1), TransferKind::Read, vec![]))
            })
            .collect();
        let mut prev_tile: Vec<Option<u32>> = vec![None; p + 1];
        for _step in 0..cfg.steps {
            for _tile in 0..cfg.tiles {
                // Stage 0 fetches an input tile from L2.
                let mut deps: Vec<u32> = preload[0].into_iter().collect();
                if let Some(d) = prev_tile[0] {
                    deps.push(d);
                }
                let r_in = b.add(
                    0,
                    cfg.l2_node,
                    layers[0].ifmap_bytes() / t_count,
                    TransferKind::Read,
                    deps,
                );
                prev_tile[0] = Some(r_in);
                // Each stage forwards its output tile to the next core's L1;
                // the last stage writes results back to L2.
                let mut upstream = r_in;
                for s in 0..p {
                    let dst = if s == p - 1 { cfg.l2_node } else { s + 1 };
                    let bytes = (boundary_bytes[s] / t_count).max(1);
                    let mut deps = vec![upstream];
                    deps.extend(preload[s]);
                    if let Some(d) = prev_tile[s + 1] {
                        deps.push(d);
                    }
                    let w = b.add(s, dst, bytes, TransferKind::Write, deps);
                    prev_tile[s + 1] = Some(w);
                    upstream = w;
                }
            }
        }
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
    /// tag plus the complete immutable trace — entries, offsets and the
    /// dependency graph — so a checkpoint only restores into the exact
    /// same workload.
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
        for deps in &self.dependents {
            e.usize(deps.len());
            for &d in deps {
                e.u32(d);
            }
        }
        e.usize(self.ready.len());
        e.digest()
    }

    /// The fallible core of `restore_state`: decodes into fresh vectors,
    /// validating every index against this trace's geometry, and commits
    /// only on full success.
    fn try_restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut d = Decoder::new(
            bytes,
            chkpt::SNAP_KIND,
            self.shape(),
            DecodeLimits::default(),
        )?;
        let completed = d.usize()?;
        if completed > self.entries.len() {
            return Err(corrupt("more completions than trace entries"));
        }
        let mut remaining = Vec::with_capacity(self.entries.len());
        for _ in 0..self.entries.len() {
            remaining.push(d.u32()?);
        }
        let mut ready: Vec<VecDeque<u32>> = vec![VecDeque::new(); self.ready.len()];
        let mut seen = vec![false; self.entries.len()];
        for (m, queue) in ready.iter_mut().enumerate() {
            let n = d.count("ready entries")?;
            for _ in 0..n {
                let idx = d.u32()?;
                let i = idx as usize;
                if i >= self.entries.len() {
                    return Err(corrupt("ready entry out of range"));
                }
                if self.entries[i].master != m {
                    return Err(corrupt("ready entry queued on the wrong master"));
                }
                if remaining[i] != 0 {
                    return Err(corrupt("ready entry with unmet dependencies"));
                }
                if seen[i] {
                    return Err(corrupt("ready entry queued twice"));
                }
                seen[i] = true;
                queue.push_back(idx);
            }
        }
        d.finish()?;
        self.completed = completed;
        self.remaining_deps = remaining;
        self.ready = ready;
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
        let idx = *self.ready.get(master)?.front()?;
        self.ready[master].pop_front();
        let e = &self.entries[idx as usize];
        Some(Transfer {
            id: u64::from(idx),
            dst: e.dst,
            offset: self.offsets[idx as usize],
            bytes: e.bytes,
            kind: e.kind,
        })
    }

    fn on_complete(&mut self, _master: usize, id: u64, _now: Cycle) {
        self.completed += 1;
        let idx = id as usize;
        // Detach the dependency list while walking it (take/restore): no
        // second mutable borrow and — unlike the old per-retirement
        // `clone()` — no heap allocation on this hot path. The walk order
        // is the vec order either way, so resolution order is unchanged
        // (asserted by `take_restore_matches_clone_resolution_order`).
        let deps = std::mem::take(&mut self.dependents[idx]);
        for &d in &deps {
            let r = &mut self.remaining_deps[d as usize];
            *r -= 1;
            if *r == 0 {
                let m = self.entries[d as usize].master;
                self.ready[m].push_back(d);
            }
        }
        debug_assert!(
            self.dependents[idx].is_empty(),
            "dependency list repopulated during resolution"
        );
        self.dependents[idx] = deps;
    }

    fn is_done(&self) -> bool {
        self.completed == self.entries.len()
    }

    fn next_arrival(&self, now: Cycle) -> Horizon {
        // A trace is untimed: anything ready is pollable immediately, and
        // nothing else can become ready without an `on_complete` callback
        // — which a quiescent engine, having nothing in flight, will never
        // deliver. So the horizon is either "right now" or "never".
        if self.ready.iter().any(|q| !q.is_empty()) {
            Horizon::At(now)
        } else {
            Horizon::Never
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut e = Encoder::new(chkpt::SNAP_KIND, self.shape());
        e.usize(self.completed);
        for &r in &self.remaining_deps {
            e.u32(r);
        }
        for queue in &self.ready {
            e.usize(queue.len());
            for &idx in queue {
                e.u32(idx);
            }
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
        // it, repeat. Terminates iff the dependency graph is acyclic.
        let mut now = 0;
        let masters = t.ready.len();
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
            assert!(progress, "dependency deadlock at {}/{total}", t.completed());
            now += 1;
            guard += 1;
            assert!(guard < 1_000_000);
        }
        (t.completed(), t.total_bytes())
    }

    /// The pre-optimization resolver: clone the dependency list, then
    /// walk it — kept as the oracle the take/restore path must match.
    fn resolve_with_clone(t: &mut DnnTraffic, id: u64) {
        t.completed += 1;
        let deps = t.dependents[id as usize].clone();
        for d in deps {
            let r = &mut t.remaining_deps[d as usize];
            *r -= 1;
            if *r == 0 {
                let m = t.entries[d as usize].master;
                t.ready[m].push_back(d);
            }
        }
    }

    #[test]
    fn take_restore_matches_clone_resolution_order() {
        // Drive two identical traces through the same poll schedule: one
        // retires via the real (take/restore) `on_complete`, the other via
        // the clone-based oracle. The complete transfer sequence — ids in
        // poll order per master — must be identical, i.e. dependency
        // resolution order is unchanged by the allocation-free rewrite.
        for workload in [
            DnnWorkload::DistributedTraining,
            DnnWorkload::ParallelConv,
            DnnWorkload::PipelinedConv,
        ] {
            let cfg = DnnConfig {
                workload,
                ..DnnConfig::default()
            };
            let mut real = DnnTraffic::new(&cfg);
            let mut oracle = DnnTraffic::new(&cfg);
            let masters = real.ready.len();
            let mut real_seq = Vec::new();
            let mut oracle_seq = Vec::new();
            let mut guard = 0;
            while !real.is_done() || !oracle.is_done() {
                for m in 0..masters {
                    while let Some(tr) = real.poll(m, 0) {
                        real_seq.push(tr.id);
                        real.on_complete(m, tr.id, 0);
                    }
                    while let Some(tr) = oracle.poll(m, 0) {
                        oracle_seq.push(tr.id);
                        resolve_with_clone(&mut oracle, tr.id);
                    }
                }
                guard += 1;
                assert!(guard < 1_000_000, "{workload:?} wedged");
            }
            assert_eq!(real_seq, oracle_seq, "order diverged for {workload:?}");
            assert!(!real_seq.is_empty());
        }
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
        let layers = resnet34_layers(cfg.channel_scale);
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
        let layers = resnet34_layers(cfg.channel_scale);
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
        // In replay mode a core's transfers depend only on its own
        // predecessor: polling any single master drains its whole share
        // without any cross-core completions.
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
        assert_eq!(drained, cfg.tiles * cfg.steps);
    }

    #[test]
    fn dependency_mode_blocks_downstream_stages() {
        // With replay off, stage 3's first write needs stage 2's data:
        // polling master 3 alone yields nothing.
        let cfg = DnnConfig {
            workload: DnnWorkload::PipelinedConv,
            replay: false,
            ..DnnConfig::default()
        };
        let mut t = DnnTraffic::new(&cfg);
        assert!(t.poll(3, 0).is_none());
        // But stage 0's input fetch is ready immediately.
        assert!(t.poll(0, 0).is_some());
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
        let masters = t.ready.len();
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
        // Fresh trace: roots are ready on every core.
        assert_eq!(t.next_arrival(5), Horizon::At(5));
        // Drain everything pollable without completing: all queues empty,
        // all remaining work gated on completions → Never.
        for m in 0..t.ready.len() {
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
        let bytes = t.snapshot_state().expect("traces checkpoint");
        let mut restored = DnnTraffic::new(&cfg);
        assert!(restored.restore_state(&bytes));
        assert_eq!(restored.completed(), t.completed());
        while !t.is_done() {
            for m in 0..t.ready.len() {
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
}
