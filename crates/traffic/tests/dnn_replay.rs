//! Pins the DNN traces at the source: drives `DnnTraffic` alone, with no
//! engine, and compares an FNV-1a digest of every transfer it hands out
//! against pinned values. Every master is polled once per cycle and each
//! transfer completes 3 cycles after it was issued, so the digest fixes
//! the builders' entry order, the offset draws, and the replay rule that
//! a core issues its next transfer only once the previous one retired.

use simkit::snap::fnv1a64;
use traffic::dnn::DnnConfig;
use traffic::{DnnTraffic, DnnWorkload, TrafficSource, TransferKind};

/// Cycles from a transfer's issue to its completion.
const LATENCY: u64 = 3;

/// Replays `cfg`'s trace to completion and digests, in issue order, each
/// transfer's `(cycle, master, id, dst, offset, bytes, kind)`. The issue
/// cycle is what catches a core that issues ahead of its retirements: the
/// cores' interleaving alone would not change.
fn replay_digest(cfg: &DnnConfig) -> u64 {
    let mut trace = DnnTraffic::new(cfg);
    let mut in_flight: Vec<(u64, usize, u64)> = Vec::new();
    let mut bytes = Vec::new();
    let mut issued = 0;
    let mut now = 0;
    while !trace.is_done() {
        in_flight.retain(|&(due, master, id)| {
            if due == now {
                trace.on_complete(master, id, now);
            }
            due != now
        });
        for master in 0..cfg.cores {
            if let Some(t) = trace.poll(master, now) {
                in_flight.push((now + LATENCY, master, t.id));
                issued += 1;
                for word in [now, master as u64, t.id, t.dst as u64, t.offset, t.bytes] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
                match t.kind {
                    TransferKind::Read => bytes.push(0),
                    TransferKind::Write => bytes.push(1),
                    TransferKind::Copy { src, src_offset } => {
                        bytes.push(2);
                        bytes.extend_from_slice(&(src as u64).to_le_bytes());
                        bytes.extend_from_slice(&src_offset.to_le_bytes());
                    }
                }
            }
        }
        now += 1;
        assert!(now < 10_000_000, "{:?} wedged", cfg.workload);
    }
    assert!(in_flight.is_empty(), "done with transfers in flight");
    assert_eq!(issued, trace.len(), "every entry issued once");
    fnv1a64(&bytes)
}

#[test]
fn dnn_traces_replay_the_pinned_transfer_sequence() {
    use DnnWorkload::{DistributedTraining, ParallelConv, PipelinedConv};
    // (workload, steps, cores, digest) on a square mesh of `cores` nodes,
    // with the L2 where a scenario puts it: endpoint (cols/2, (rows-1)/2),
    // node 1 of the 2x2 mesh and node 6 of the 4x4.
    let pinned: [(DnnWorkload, usize, usize, u64); 12] = [
        (DistributedTraining, 1, 4, 0x569c_2355_4f2b_708c),
        (DistributedTraining, 1, 16, 0x6c5a_1be3_503c_ce6c),
        (DistributedTraining, 2, 4, 0x544d_4ccb_fec9_8f9a),
        (DistributedTraining, 2, 16, 0x95bb_f08e_05e7_41f5),
        (ParallelConv, 1, 4, 0x88d5_7add_b88f_cbae),
        (ParallelConv, 1, 16, 0xa6e3_dec6_1a08_2400),
        (ParallelConv, 2, 4, 0x09b8_16b0_3495_b41d),
        (ParallelConv, 2, 16, 0x34a1_fd7c_bd6c_e5e5),
        (PipelinedConv, 1, 4, 0x180f_410f_4c5f_174a),
        (PipelinedConv, 1, 16, 0x92aa_d7d4_235b_cc84),
        (PipelinedConv, 2, 4, 0x7f79_86a3_9d1e_a012),
        (PipelinedConv, 2, 16, 0x06dd_84d4_6da5_751e),
    ];
    let mut found = Vec::new();
    for (workload, steps, cores, digest) in pinned {
        let side = cores.isqrt();
        let cfg = DnnConfig {
            steps,
            cores,
            l2_node: (side - 1) / 2 * side + side / 2,
            ..DnnConfig::for_workload(workload)
        };
        let got = replay_digest(&cfg);
        if got != digest {
            found.push(format!(
                "{workload:?}, {steps} steps, {cores} cores: {got:#018x}"
            ));
        }
    }
    assert!(found.is_empty(), "digests moved:\n{}", found.join("\n"));
}
