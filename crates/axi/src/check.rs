//! AXI compliance checking.
//!
//! [`check_burst_sequence`] verifies that a burst list produced by a DMA
//! engine (or by [`crate::split::split_transfer`]) is a legal, complete and
//! contiguous covering of a transfer. Only this crate's unit and property
//! tests call it: they hold the splitter the DMA engines use to these
//! rules. In a hardware flow this is the role a bus protocol checker plays
//! in the testbench.

use crate::burst::Burst;
use crate::MAX_INCR_BEATS;
use std::fmt;

/// A violation found by [`check_burst_sequence`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A burst crosses a 4 KiB boundary.
    Crosses4k {
        /// Index of the offending burst.
        index: usize,
        /// Its start address.
        addr: u64,
    },
    /// A burst exceeds the 256-beat INCR limit.
    TooManyBeats {
        /// Index of the offending burst.
        index: usize,
        /// Its beat count.
        beats: u64,
    },
    /// The sequence is not contiguous.
    Gap {
        /// Index of the burst after the gap.
        index: usize,
        /// Expected start address.
        expected: u64,
        /// Actual start address.
        actual: u64,
    },
    /// The total payload differs from the transfer length.
    WrongTotal {
        /// Expected total bytes.
        expected: u64,
        /// Actual total bytes.
        actual: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Crosses4k { index, addr } => {
                write!(f, "burst {index} at {addr:#x} crosses a 4 KiB boundary")
            }
            Self::TooManyBeats { index, beats } => {
                write!(f, "burst {index} has {beats} beats (> {MAX_INCR_BEATS})")
            }
            Self::Gap {
                index,
                expected,
                actual,
            } => write!(
                f,
                "burst {index} starts at {actual:#x}, expected {expected:#x}"
            ),
            Self::WrongTotal { expected, actual } => {
                write!(f, "total payload {actual} bytes, expected {expected}")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Checks that `bursts` is an AXI-compliant, contiguous covering of the
/// transfer `(addr, len)`. Returns all violations found (empty = compliant).
#[must_use]
pub fn check_burst_sequence(addr: u64, len: u64, bursts: &[Burst]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut cursor = addr;
    let mut total = 0u64;
    for (i, b) in bursts.iter().enumerate() {
        if b.num_beats() > MAX_INCR_BEATS {
            violations.push(Violation::TooManyBeats {
                index: i,
                beats: b.num_beats(),
            });
        }
        if b.crosses_4k_boundary() {
            violations.push(Violation::Crosses4k {
                index: i,
                addr: b.addr(),
            });
        }
        if b.addr() != cursor {
            violations.push(Violation::Gap {
                index: i,
                expected: cursor,
                actual: b.addr(),
            });
            cursor = b.addr();
        }
        cursor += b.payload_bytes();
        total += b.payload_bytes();
    }
    if total != len {
        violations.push(Violation::WrongTotal {
            expected: len,
            actual: total,
        });
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split_transfer;

    #[test]
    fn split_output_is_compliant() {
        for &(addr, len, bb) in &[
            (0u64, 65536u64, 64u64),
            (0x1003, 9999, 4),
            (0xFFE, 4, 8),
            (0, 1, 128),
        ] {
            let bursts = split_transfer(addr, len, bb);
            assert!(
                check_burst_sequence(addr, len, &bursts).is_empty(),
                "{addr:#x}+{len} on {bb}-byte bus"
            );
        }
    }

    #[test]
    fn detects_gap() {
        let mut bursts = split_transfer(0, 4096, 4);
        assert!(bursts.len() >= 3);
        bursts.remove(1);
        let v = check_burst_sequence(0, 4096, &bursts);
        assert!(v.iter().any(|x| matches!(x, Violation::Gap { .. })));
        assert!(v.iter().any(|x| matches!(x, Violation::WrongTotal { .. })));
    }

    #[test]
    fn detects_overlap() {
        let first = Burst::new(0x100, 4, 8).unwrap();
        let overlapping = Burst::new(0x110, 4, 8).unwrap();
        let v = check_burst_sequence(0x100, 64, &[first, overlapping]);
        assert_eq!(
            v,
            vec![Violation::Gap {
                index: 1,
                expected: 0x120,
                actual: 0x110,
            }]
        );
    }

    #[test]
    fn detects_missing_tail() {
        let mut bursts = split_transfer(0, 4096, 4);
        bursts.pop();
        assert_eq!(
            check_burst_sequence(0, 4096, &bursts),
            vec![Violation::WrongTotal {
                expected: 4096,
                actual: 3072,
            }]
        );
    }

    #[test]
    fn detects_4k_crossing() {
        let bad = Burst::incr_covering(0xF00, 512, 4).unwrap();
        let v = check_burst_sequence(0xF00, 512, &[bad]);
        assert!(v.iter().any(|x| matches!(x, Violation::Crosses4k { .. })));
    }

    #[test]
    fn empty_sequence_for_zero_transfer_ok() {
        assert!(check_burst_sequence(0x100, 0, &[]).is_empty());
    }

    #[test]
    fn violations_display() {
        let bad = Burst::incr_covering(0xF00, 512, 4).unwrap();
        let v = check_burst_sequence(0, 512, &[bad]);
        for violation in v {
            assert!(!violation.to_string().is_empty());
        }
    }

    #[test]
    fn violation_messages_name_burst_and_address() {
        let crossing = Violation::Crosses4k {
            index: 2,
            addr: 0xF00,
        };
        assert_eq!(
            crossing.to_string(),
            "burst 2 at 0xf00 crosses a 4 KiB boundary"
        );
        let gap = Violation::Gap {
            index: 1,
            expected: 0x120,
            actual: 0x110,
        };
        assert_eq!(gap.to_string(), "burst 1 starts at 0x110, expected 0x120");
    }
}
