//! Design-time AXI/NoC parameters (paper Table I) with validation.

use std::fmt;

/// Errors produced when validating an [`AxiParams`] configuration against
/// the ranges of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Address width must be 32 or 64 bits ("Arch. dependent").
    AddrWidth(u32),
    /// Data width must be a power of two between 8 and 1024 bits.
    DataWidth(u32),
    /// ID width must be between 1 and 16 bits.
    IdWidth(u32),
    /// Maximum outstanding transactions must be between 1 and 128.
    MaxOutstanding(u32),
    /// Number of masters/slaves must be between 1 and the endpoint capacity
    /// of the topology.
    EndpointCount {
        /// What was requested.
        requested: usize,
        /// The topology's capacity (N×M for the default mesh).
        capacity: usize,
    },
    /// A testbench knob that must be non-zero was zero (e.g. link register
    /// stages, region size, DMA descriptor-queue depth).
    ZeroParameter(&'static str),
    /// An endpoint placement list (`"masters"` or `"slaves"`) repeats a
    /// node or is not in ascending node order.
    EndpointOrder(&'static str),
    /// One `region_size`-byte region per node, laid out above the address
    /// base, ends beyond the 64-bit address space.
    RegionOverflow {
        /// Bytes per region.
        region_size: u64,
        /// Nodes that each own one region.
        nodes: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::AddrWidth(w) => {
                write!(f, "address width {w} unsupported (expected 32 or 64)")
            }
            Self::DataWidth(w) => write!(
                f,
                "data width {w} unsupported (expected a power of two in 8..=1024)"
            ),
            Self::IdWidth(w) => write!(f, "id width {w} out of range 1..=16"),
            Self::MaxOutstanding(m) => {
                write!(f, "max outstanding transactions {m} out of range 1..=128")
            }
            Self::EndpointCount {
                requested,
                capacity,
            } => write!(
                f,
                "endpoint count {requested} exceeds topology capacity {capacity}"
            ),
            Self::ZeroParameter(name) => write!(f, "{name} must be non-zero"),
            Self::EndpointOrder(name) => {
                write!(f, "{name} must list distinct nodes in ascending order")
            }
            Self::RegionOverflow { region_size, nodes } => write!(
                f,
                "region_size {region_size} for {nodes} nodes overflows the 64-bit address space"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The AXI interface parameters of one NoC instance.
///
/// Mirrors the paper's `AXI_AW_DW_IW` configuration naming (e.g.
/// `AXI_32_512_4` is `AxiParams::new(32, 512, 4, mot)`), plus the maximum
/// number of outstanding transactions (MOT).
///
/// # Examples
///
/// ```
/// use axi::AxiParams;
///
/// // The paper's "wide NoC": AW=32, DW=512, IW=4, MOT=8.
/// let wide = AxiParams::new(32, 512, 4, 8)?;
/// assert_eq!(wide.bytes_per_beat(), 64);
/// assert_eq!(wide.unique_ids(), 16);
/// # Ok::<(), axi::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AxiParams {
    addr_width: u32,
    data_width: u32,
    id_width: u32,
    max_outstanding: u32,
}

impl AxiParams {
    /// Creates and validates a parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any parameter is outside Table I's range.
    pub fn new(
        addr_width: u32,
        data_width: u32,
        id_width: u32,
        max_outstanding: u32,
    ) -> Result<Self, ConfigError> {
        if addr_width != 32 && addr_width != 64 {
            return Err(ConfigError::AddrWidth(addr_width));
        }
        if !(8..=1024).contains(&data_width) || !data_width.is_power_of_two() {
            return Err(ConfigError::DataWidth(data_width));
        }
        if !(1..=16).contains(&id_width) {
            return Err(ConfigError::IdWidth(id_width));
        }
        if !(1..=128).contains(&max_outstanding) {
            return Err(ConfigError::MaxOutstanding(max_outstanding));
        }
        Ok(Self {
            addr_width,
            data_width,
            id_width,
            max_outstanding,
        })
    }

    /// The paper's "slim NoC" endpoint interface: `AXI_32_32_4`, MOT = 8.
    #[must_use]
    pub fn slim() -> Self {
        Self::new(32, 32, 4, 8).expect("slim parameters are valid")
    }

    /// The paper's "wide NoC" endpoint interface: `AXI_32_512_4`, MOT = 8.
    #[must_use]
    pub fn wide() -> Self {
        Self::new(32, 512, 4, 8).expect("wide parameters are valid")
    }

    /// Address width in bits (32 or 64).
    #[must_use]
    pub fn addr_width(&self) -> u32 {
        self.addr_width
    }

    /// Data width in bits (8..=1024, power of two).
    #[must_use]
    pub fn data_width(&self) -> u32 {
        self.data_width
    }

    /// ID width in bits (1..=16).
    #[must_use]
    pub fn id_width(&self) -> u32 {
        self.id_width
    }

    /// Maximum outstanding transactions per master (1..=128).
    #[must_use]
    pub fn max_outstanding(&self) -> u32 {
        self.max_outstanding
    }

    /// Bytes transported by one data beat (`DW / 8`).
    #[must_use]
    pub fn bytes_per_beat(&self) -> u64 {
        u64::from(self.data_width / 8)
    }

    /// Number of distinct transaction IDs (`2^IW`).
    #[must_use]
    pub fn unique_ids(&self) -> u64 {
        1u64 << self.id_width
    }

    /// Returns a copy with a different maximum outstanding count.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::MaxOutstanding`] when out of range.
    pub fn with_max_outstanding(self, mot: u32) -> Result<Self, ConfigError> {
        Self::new(self.addr_width, self.data_width, self.id_width, mot)
    }

    /// The paper's configuration label, e.g. `AXI_32_512_4`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "AXI_{}_{}_{}",
            self.addr_width, self.data_width, self.id_width
        )
    }
}

impl fmt::Display for AxiParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (MOT={})", self.label(), self.max_outstanding)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_corners_accepted() {
        // Smallest and largest values of every Table I row.
        assert!(AxiParams::new(32, 8, 1, 1).is_ok());
        assert!(AxiParams::new(64, 1024, 16, 128).is_ok());
    }

    #[test]
    fn rejects_bad_addr_width() {
        assert_eq!(
            AxiParams::new(48, 64, 4, 8).unwrap_err(),
            ConfigError::AddrWidth(48)
        );
    }

    #[test]
    fn rejects_bad_data_width() {
        assert!(matches!(
            AxiParams::new(32, 48, 4, 8).unwrap_err(),
            ConfigError::DataWidth(48)
        ));
        assert!(matches!(
            AxiParams::new(32, 2048, 4, 8).unwrap_err(),
            ConfigError::DataWidth(2048)
        ));
        assert!(matches!(
            AxiParams::new(32, 4, 4, 8).unwrap_err(),
            ConfigError::DataWidth(4)
        ));
    }

    #[test]
    fn rejects_bad_id_width() {
        assert!(matches!(
            AxiParams::new(32, 64, 0, 8).unwrap_err(),
            ConfigError::IdWidth(0)
        ));
        assert!(matches!(
            AxiParams::new(32, 64, 17, 8).unwrap_err(),
            ConfigError::IdWidth(17)
        ));
    }

    #[test]
    fn rejects_bad_mot() {
        assert!(matches!(
            AxiParams::new(32, 64, 4, 0).unwrap_err(),
            ConfigError::MaxOutstanding(0)
        ));
        assert!(matches!(
            AxiParams::new(32, 64, 4, 129).unwrap_err(),
            ConfigError::MaxOutstanding(129)
        ));
    }

    #[test]
    fn slim_and_wide_match_paper() {
        let slim = AxiParams::slim();
        assert_eq!(slim.data_width(), 32);
        assert_eq!(slim.bytes_per_beat(), 4);
        assert_eq!(slim.max_outstanding(), 8);
        let wide = AxiParams::wide();
        assert_eq!(wide.data_width(), 512);
        assert_eq!(wide.bytes_per_beat(), 64);
        assert_eq!(wide.label(), "AXI_32_512_4");
    }

    #[test]
    fn display_includes_mot() {
        let p = AxiParams::new(64, 128, 2, 16).unwrap();
        assert_eq!(p.to_string(), "AXI_64_128_2 (MOT=16)");
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let e = AxiParams::new(48, 64, 4, 8).unwrap_err().to_string();
        assert!(e.contains("48"));
        assert!(e.starts_with(char::is_lowercase));
    }
}
