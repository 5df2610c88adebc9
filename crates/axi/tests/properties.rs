//! Property-based tests for the AXI protocol model.

use axi::burst::BurstError;
use axi::check::check_burst_sequence;
use axi::split::{split_transfer, SplitCursor};
use axi::Burst;
use proptest::prelude::*;

fn bus_widths() -> impl Strategy<Value = u64> {
    prop::sample::select(vec![1u64, 2, 4, 8, 16, 32, 64, 128])
}

proptest! {
    /// Any transfer splits into a compliant, complete, contiguous covering.
    #[test]
    fn split_is_always_compliant(
        addr in 0u64..0x1_0000_0000,
        len in 0u64..200_000,
        bb in bus_widths(),
    ) {
        let bursts = split_transfer(addr, len, bb);
        let violations = check_burst_sequence(addr, len, &bursts);
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    /// The incremental cursor is position-local: after consuming any
    /// prefix of bursts, a *fresh* cursor started at the consumed-up-to
    /// address with the remaining length yields exactly the suffix. This
    /// is the property that lets a DMA engine keep split state as three
    /// words in its in-flight record and still be bit-identical to
    /// materializing the whole `Vec<Burst>` up front.
    #[test]
    fn split_cursor_is_position_local(
        addr in 0u64..0x1_0000_0000,
        len in 0u64..200_000,
        bb in bus_widths(),
        prefix in 0usize..64,
    ) {
        let batch = split_transfer(addr, len, bb);
        let mut cursor = SplitCursor::new(addr, len, bb);
        let k = prefix.min(batch.len());
        let mut consumed_bytes = 0;
        for expected in batch.iter().take(k) {
            prop_assert!(!cursor.is_done());
            let got = cursor.next().expect("cursor yields the whole batch");
            prop_assert_eq!(&got, expected);
            consumed_bytes += got.payload_bytes();
        }
        let restarted = SplitCursor::new(addr + consumed_bytes, len - consumed_bytes, bb);
        prop_assert_eq!(restarted.collect::<Vec<_>>(), batch[k..].to_vec());
        prop_assert_eq!(cursor.is_done(), k == batch.len());
    }

    /// The split is greedy: every burst but the last ends either on a 4 KiB
    /// boundary or at the 256-beat limit, so no two neighbours could merge.
    #[test]
    fn split_bursts_are_maximal(
        addr in 0u64..0x1_0000_0000,
        len in 0u64..200_000,
        bb in bus_widths(),
    ) {
        let bursts = split_transfer(addr, len, bb);
        for b in bursts.iter().rev().skip(1) {
            let ends_on_boundary = (b.last_byte() + 1) % 4096 == 0;
            prop_assert!(
                ends_on_boundary || b.num_beats() == 256,
                "burst at {:#x} ends short of both limits", b.addr()
            );
        }
    }

    /// Only the first burst may start mid-beat and only the last may end
    /// mid-beat, so the split moves exactly the beats of the transfer's
    /// bus-aligned span.
    #[test]
    fn split_adds_no_beats_beyond_the_aligned_span(
        addr in 0u64..0x1_0000_0000,
        len in 1u64..200_000,
        bb in bus_widths(),
    ) {
        let beats: u64 = split_transfer(addr, len, bb).iter().map(Burst::num_beats).sum();
        prop_assert_eq!(beats, (addr % bb + len).div_ceil(bb));
    }

    /// Dropping any burst of a multi-burst split is caught by the checker.
    #[test]
    fn checker_flags_any_dropped_burst(
        addr in 0u64..0x1_0000_0000,
        len in 4097u64..200_000,
        bb in bus_widths(),
        pick in 0usize..1000,
    ) {
        let mut bursts = split_transfer(addr, len, bb);
        prop_assert!(bursts.len() >= 2);
        bursts.remove(pick % bursts.len());
        prop_assert!(!check_burst_sequence(addr, len, &bursts).is_empty());
    }

    /// An unaligned INCR burst covers its payload in the fewest beats, or is
    /// refused with that beat count when it needs more than 256.
    #[test]
    fn incr_covering_spans_exactly_its_payload(
        addr in 0u64..0x1_0000_0000,
        payload in 1u64..40_000,
        bb in bus_widths(),
    ) {
        let needed = (addr % bb + payload).div_ceil(bb);
        match Burst::incr_covering(addr, payload, bb) {
            Ok(b) => {
                prop_assert_eq!(b.num_beats(), needed);
                prop_assert_eq!(b.last_byte(), addr + payload - 1);
                let last_beat = b.beat_addr(needed - 1);
                prop_assert!(last_beat <= b.last_byte());
                prop_assert!(b.last_byte() < last_beat - last_beat % bb + bb);
            }
            Err(e) => {
                prop_assert!(needed > 256);
                prop_assert_eq!(e, BurstError::BeatCount(needed));
            }
        }
    }

    /// Every beat address of an INCR burst stays within the burst's span and
    /// increases monotonically.
    #[test]
    fn incr_beat_addresses_monotone(
        addr in 0u64..0x1000_0000,
        beats in 1u64..=256,
        bb in bus_widths(),
    ) {
        let Ok(b) = Burst::new(addr, beats, bb) else {
            return Ok(());
        };
        let mut prev = None;
        for i in 0..b.num_beats() {
            let a = b.beat_addr(i);
            if let Some(p) = prev {
                prop_assert!(a > p);
                prop_assert_eq!(a % bb, 0);
            }
            prev = Some(a);
        }
    }
}
