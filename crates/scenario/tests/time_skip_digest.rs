//! Property: event-horizon time skipping walks the *exact* state
//! trajectory of the cycle-by-cycle full-sweep reference. Both runs are
//! paused at arbitrary event boundaries (segment ends) and must agree on
//! `state_digest` at every one of them — not just at the finish line —
//! and the skipped engine's mid-run snapshot must restore into a fresh
//! engine bit-identically (the snapshot codec doubles as the framing for
//! mid-run states).

use proptest::prelude::*;
use scenario::{EngineSpec, PacketProfile, Scenario, TrafficSpec};
use traffic::{DnnWorkload, SyntheticPattern};

fn engine_strategy() -> impl Strategy<Value = EngineSpec> {
    prop_oneof![
        Just(EngineSpec::Patronoc),
        Just(EngineSpec::Packet(PacketProfile::Compact)),
        Just(EngineSpec::Packet(PacketProfile::HighPerformance)),
    ]
}

/// Loads span idle (where skipping dominates) through saturated (where
/// it must stand down); dnn traffic exercises the completion-driven
/// horizon, the Fig. 5 patterns the localized synthetic one.
fn traffic_strategy() -> impl Strategy<Value = TrafficSpec> {
    prop_oneof![
        (0.0005..0.01f64, 256u64..4096).prop_map(|(load, max_transfer)| {
            TrafficSpec::Uniform {
                load,
                max_transfer,
                read_fraction: 0.5,
                copies: true,
            }
        }),
        (0.3..1.0f64).prop_map(|load| TrafficSpec::Uniform {
            load,
            max_transfer: 1024,
            read_fraction: 0.5,
            copies: false,
        }),
        (
            prop::sample::select(vec![
                SyntheticPattern::AllGlobal,
                SyntheticPattern::MaxTwoHop,
                SyntheticPattern::MaxSingleHop,
            ]),
            0.001..0.02f64,
        )
            .prop_map(|(pattern, load)| TrafficSpec::Synthetic {
                pattern,
                load,
                max_transfer: 1024,
                read_fraction: 0.5,
            }),
        (1usize..3).prop_map(|steps| TrafficSpec::dnn(DnnWorkload::PipelinedConv, steps)),
    ]
}

proptest! {
    // Each case steps a full cycle-by-cycle reference run, so keep the
    // case count modest; the segment vector already randomizes where the
    // trajectory is sampled.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn skipped_and_reference_digests_agree_at_every_boundary(
        engine in engine_strategy(),
        traffic in traffic_strategy(),
        seed in 0u64..1 << 48,
        segments in prop::collection::vec(1u64..2_500, 2..6),
    ) {
        let base = match engine {
            EngineSpec::Patronoc => Scenario::patronoc(),
            EngineSpec::Packet(profile) => Scenario::packet(profile),
        }
        .traffic(traffic)
        .seed(seed)
        .budget(1);
        let reference = base.clone().full_sweep(true);
        let skipped = base;

        let mut eng_ref = reference.build_engine().unwrap();
        let mut src_ref = reference.build_source();
        let mut eng_skip = skipped.build_engine().unwrap();
        let mut src_skip = skipped.build_source();

        for seg in segments {
            let rep_ref = eng_ref.run(&mut *src_ref, seg, 0);
            let rep_skip = eng_skip.run(&mut *src_skip, seg, 0);
            // Same event boundary, same state — the digest covers every
            // deterministic container, so one stale FIFO snapshot or one
            // mistimed arrival would already diverge here.
            prop_assert_eq!(eng_ref.state_digest(), eng_skip.state_digest());
            // SimReport equality (PartialEq ignores telemetry like
            // cycles_skipped and wall clock) pins the visible metrics too.
            prop_assert_eq!(&rep_ref, &rep_skip);
            prop_assert_eq!(rep_ref.cycles_skipped, 0);

            // Mid-run states reuse the snapshot codec: the skipped
            // engine's snapshot restores into a fresh engine on the
            // reference's digest.
            let snap = eng_skip.snapshot();
            let mut fresh = skipped.build_engine().unwrap();
            fresh.restore(&snap).unwrap();
            prop_assert_eq!(fresh.state_digest(), eng_ref.state_digest());

            if rep_ref.is_drained() && src_ref.is_done() {
                break;
            }
        }
    }
}
