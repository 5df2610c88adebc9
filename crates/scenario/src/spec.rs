//! Declarative engine and traffic specifications.
//!
//! A [`Scenario`](crate::Scenario) is a plain value; these enums are its
//! vocabulary. They name *what* to simulate — which engine, which traffic
//! class — while the scenario runner derives every dependent quantity
//! (master/slave placement, bytes-per-cycle, packetization) from the
//! topology and engine, so nothing is hardcoded to the paper's 4×4 /
//! 16-master evaluation instance.

use packetnoc::PacketNocConfig;
use simkit::Json;
use traffic::{DnnWorkload, SyntheticPattern};

/// Which NoC engine a scenario instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineSpec {
    /// The AXI-native PATRONoC engine (`patronoc::NocSim`).
    Patronoc,
    /// The Noxim-style packet-switched baseline (`packetnoc::PacketNocSim`)
    /// in one of the paper's two configurations.
    Packet(PacketProfile),
}

impl EngineSpec {
    fn label(self) -> &'static str {
        match self {
            Self::Patronoc => "patronoc",
            Self::Packet(PacketProfile::Compact) => "packet-compact",
            Self::Packet(PacketProfile::HighPerformance) => "packet-high-performance",
        }
    }

    /// Serializes the spec as a JSON string value.
    #[must_use]
    pub fn to_json(self) -> Json {
        Json::str(self.label())
    }

    /// Parses the value [`to_json`](Self::to_json) produces.
    ///
    /// # Errors
    ///
    /// A message naming the unknown label or wrong JSON type.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Str(s) => match s.as_str() {
                "patronoc" => Ok(Self::Patronoc),
                "packet-compact" => Ok(Self::Packet(PacketProfile::Compact)),
                "packet-high-performance" => Ok(Self::Packet(PacketProfile::HighPerformance)),
                other => Err(format!("unknown engine `{other}`")),
            },
            other => Err(format!("engine: expected a string, got `{other}`")),
        }
    }
}

/// The paper's two Noxim baseline configurations (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketProfile {
    /// 1 virtual channel, 4-flit buffers.
    Compact,
    /// 4 virtual channels, 32-flit buffers.
    HighPerformance,
}

impl PacketProfile {
    /// The baseline configuration this profile names, before the scenario
    /// overrides `cols`/`rows` from its topology.
    #[must_use]
    pub fn base_config(self) -> PacketNocConfig {
        match self {
            Self::Compact => PacketNocConfig::noxim_compact(),
            Self::HighPerformance => PacketNocConfig::noxim_high_performance(),
        }
    }
}

/// Which workload class drives a scenario.
///
/// Each variant holds only the knobs that identify the *workload*; sizing
/// that follows from the simulated system (master count, bytes per cycle,
/// slave placement, region size) is derived by the scenario runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficSpec {
    /// Uniform random traffic with Poisson arrivals (Fig. 4).
    Uniform {
        /// Injected load in `(0, 1]`.
        load: f64,
        /// Maximum DMA transfer (burst) length in bytes.
        max_transfer: u64,
        /// Fraction of transfers that are reads (ignored for copies).
        read_fraction: f64,
        /// Memory-to-memory copies (payload crosses the NoC twice,
        /// counted once) instead of single-leg reads/writes.
        copies: bool,
    },
    /// One of the locality-controlled synthetic patterns (Fig. 5/6).
    /// Slave placement derives from the pattern on the scenario's mesh.
    Synthetic {
        /// The Fig. 5 pattern.
        pattern: SyntheticPattern,
        /// Injected load in `(0, 1]`.
        load: f64,
        /// Maximum DMA transfer length in bytes.
        max_transfer: u64,
        /// Fraction of reads.
        read_fraction: f64,
    },
    /// A DNN workload transfer trace (Fig. 7/8).
    Dnn {
        /// Deployment scheme.
        workload: DnnWorkload,
        /// Training steps / images to process.
        steps: usize,
    },
}

impl TrafficSpec {
    /// Uniform random reads/writes (the baseline's Fig. 4 stimulus), at
    /// the evaluation's 0.5 read fraction.
    #[must_use]
    pub fn uniform(load: f64, max_transfer: u64) -> Self {
        Self::Uniform {
            load,
            max_transfer,
            read_fraction: 0.5,
            copies: false,
        }
    }

    /// Uniform random memory-to-memory copies (PATRONoC's Fig. 4
    /// stimulus: "a random burst length with a random source and
    /// destination address", §IV).
    #[must_use]
    pub fn uniform_copies(load: f64, max_transfer: u64) -> Self {
        Self::Uniform {
            load,
            max_transfer,
            read_fraction: 0.5,
            copies: true,
        }
    }

    /// A synthetic pattern at maximum injected load (the Fig. 6 regime),
    /// at the evaluation's 0.5 read fraction.
    #[must_use]
    pub fn synthetic(pattern: SyntheticPattern, max_transfer: u64) -> Self {
        Self::Synthetic {
            pattern,
            load: 1.0,
            max_transfer,
            read_fraction: 0.5,
        }
    }

    /// A DNN workload trace over `steps` images / training steps.
    #[must_use]
    pub fn dnn(workload: DnnWorkload, steps: usize) -> Self {
        Self::Dnn { workload, steps }
    }

    /// Serializes the spec as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match *self {
            Self::Uniform {
                load,
                max_transfer,
                read_fraction,
                copies,
            } => Json::obj(vec![
                ("kind", Json::str("uniform")),
                ("load", Json::F64(load)),
                ("max_transfer", Json::U64(max_transfer)),
                ("read_fraction", Json::F64(read_fraction)),
                ("copies", Json::Bool(copies)),
            ]),
            Self::Synthetic {
                pattern,
                load,
                max_transfer,
                read_fraction,
            } => Json::obj(vec![
                ("kind", Json::str("synthetic")),
                ("pattern", Json::str(pattern_label(pattern))),
                ("load", Json::F64(load)),
                ("max_transfer", Json::U64(max_transfer)),
                ("read_fraction", Json::F64(read_fraction)),
            ]),
            Self::Dnn { workload, steps } => Json::obj(vec![
                ("kind", Json::str("dnn")),
                ("workload", Json::str(workload.name())),
                ("steps", Json::U64(steps as u64)),
            ]),
        }
    }
}

impl TrafficSpec {
    /// Parses the object [`to_json`](Self::to_json) produces.
    ///
    /// # Errors
    ///
    /// A message naming the missing key, wrong type or unknown label.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        match get_str(v, "kind")? {
            "uniform" => Ok(Self::Uniform {
                load: get_f64(v, "load")?,
                max_transfer: get_u64(v, "max_transfer")?,
                read_fraction: get_f64(v, "read_fraction")?,
                copies: get_bool(v, "copies")?,
            }),
            "synthetic" => Ok(Self::Synthetic {
                pattern: pattern_from_label(get_str(v, "pattern")?)?,
                load: get_f64(v, "load")?,
                max_transfer: get_u64(v, "max_transfer")?,
                read_fraction: get_f64(v, "read_fraction")?,
            }),
            "dnn" => {
                let name = get_str(v, "workload")?;
                let workload = DnnWorkload::all()
                    .into_iter()
                    .find(|w| w.name() == name)
                    .ok_or_else(|| format!("unknown DNN workload `{name}`"))?;
                Ok(Self::Dnn {
                    workload,
                    steps: usize::try_from(get_u64(v, "steps")?)
                        .map_err(|_| "steps exceeds usize".to_owned())?,
                })
            }
            other => Err(format!("unknown traffic kind `{other}`")),
        }
    }
}

fn pattern_label(pattern: SyntheticPattern) -> &'static str {
    match pattern {
        SyntheticPattern::AllGlobal => "all-global",
        SyntheticPattern::MaxTwoHop => "max-2-hop",
        SyntheticPattern::MaxSingleHop => "max-1-hop",
    }
}

fn pattern_from_label(label: &str) -> Result<SyntheticPattern, String> {
    match label {
        "all-global" => Ok(SyntheticPattern::AllGlobal),
        "max-2-hop" => Ok(SyntheticPattern::MaxTwoHop),
        "max-1-hop" => Ok(SyntheticPattern::MaxSingleHop),
        other => Err(format!("unknown synthetic pattern `{other}`")),
    }
}

/// Looks up `key` in a JSON object.
pub(crate) fn obj_get<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    match v {
        Json::Obj(pairs) => pairs
            .iter()
            .find_map(|(k, val)| (k == key).then_some(val))
            .ok_or_else(|| format!("missing key `{key}`")),
        other => Err(format!("expected an object, got `{other}`")),
    }
}

/// Reads an unsigned integer field.
pub(crate) fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    match obj_get(v, key)? {
        Json::U64(n) => Ok(*n),
        other => Err(format!("key `{key}`: expected an integer, got `{other}`")),
    }
}

/// Reads a float field. Whole floats serialize without a fraction (the
/// writer prints `1.0` as `1`, which parses back as `U64`), so both
/// numeric variants are accepted.
pub(crate) fn get_f64(v: &Json, key: &str) -> Result<f64, String> {
    match obj_get(v, key)? {
        Json::F64(x) => Ok(*x),
        #[allow(clippy::cast_precision_loss)] // round-tripped whole floats
        Json::U64(n) => Ok(*n as f64),
        other => Err(format!("key `{key}`: expected a number, got `{other}`")),
    }
}

/// Reads a boolean field.
pub(crate) fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    match obj_get(v, key)? {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("key `{key}`: expected a bool, got `{other}`")),
    }
}

/// Reads a string field.
pub(crate) fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    match obj_get(v, key)? {
        Json::Str(s) => Ok(s),
        other => Err(format!("key `{key}`: expected a string, got `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fill_evaluation_defaults() {
        assert_eq!(
            TrafficSpec::uniform_copies(0.5, 1000),
            TrafficSpec::Uniform {
                load: 0.5,
                max_transfer: 1000,
                read_fraction: 0.5,
                copies: true,
            }
        );
        assert_eq!(
            TrafficSpec::synthetic(SyntheticPattern::AllGlobal, 64_000),
            TrafficSpec::Synthetic {
                pattern: SyntheticPattern::AllGlobal,
                load: 1.0,
                max_transfer: 64_000,
                read_fraction: 0.5,
            }
        );
    }

    #[test]
    fn profiles_name_the_paper_configs() {
        let c = PacketProfile::Compact.base_config();
        let h = PacketProfile::HighPerformance.base_config();
        assert_eq!((c.vcs, c.buf_flits), (1, 4));
        assert_eq!((h.vcs, h.buf_flits), (4, 32));
    }

    #[test]
    fn pattern_labels_round_trip() {
        let patterns = [
            SyntheticPattern::AllGlobal,
            SyntheticPattern::MaxTwoHop,
            SyntheticPattern::MaxSingleHop,
        ];
        for pattern in patterns {
            let label = pattern_label(pattern);
            assert_eq!(pattern_from_label(label), Ok(pattern), "via `{label}`");
        }
    }

    #[test]
    fn scenarios_naming_unmodelled_patterns_are_refused() {
        use crate::{Scenario, ScenarioError};
        let doc = Scenario::patronoc()
            .traffic(TrafficSpec::synthetic(
                SyntheticPattern::MaxSingleHop,
                1_000,
            ))
            .window(1_000)
            .to_json()
            .to_json();
        assert!(Scenario::from_json_str(&doc).is_ok());
        for label in ["transpose", "bit-complement", "hotspot-70"] {
            let text = doc.replace("\"max-1-hop\"", &format!("\"{label}\""));
            assert_ne!(text, doc, "the pattern label was not substituted");
            match Scenario::from_json_str(&text) {
                Err(ScenarioError::Parse(why)) => {
                    assert!(why.contains(label), "`{why}` does not name `{label}`");
                }
                other => panic!("`{label}` not refused as a parse error: {other:?}"),
            }
        }
    }

    #[test]
    fn specs_serialize() {
        assert_eq!(EngineSpec::Patronoc.to_json().to_json(), "\"patronoc\"");
        let json = TrafficSpec::dnn(DnnWorkload::PipelinedConv, 2)
            .to_json()
            .to_json();
        assert_eq!(
            json,
            "{\"kind\":\"dnn\",\"workload\":\"Pipe Conv\",\"steps\":2}"
        );
    }
}
