//! The metric registry (mirrored by `BENCHMARK.json`) and the arithmetic
//! that turns measured rounds into metric values.

use simkit::Json;

/// Whether a metric is end to end (gated, with a regression bound) or
/// belongs to one layer (explanatory, with the end-to-end metric and the
/// workloads it should move).
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    EndToEnd {
        bound: f64,
    },
    PerLayer {
        moves: &'static str,
        on: &'static [&'static str],
    },
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub kind: Kind,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::EndToEnd { bound },
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::PerLayer { moves, on },
    }
}

const RATE: &str = "sim_cycles_per_s";
const ALL: &[&str] = &["fig4-saturated", "fig4-sparse", "dnn-fig8", "mesh16"];
const STEPPING: &[&str] = &["fig4-saturated", "mesh16", "dnn-fig8"];
const SPARSE: &[&str] = &["fig4-sparse"];
const POLLING: &[&str] = &["fig4-sparse", "dnn-fig8"];
const MESH16: &[&str] = &["mesh16"];

/// Every metric the benchmark reports, in output order.
pub const REGISTRY: &[MetricDef] = &[
    e2e(RATE, "cycles/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.15),
    layer(
        "scenario.parse_s",
        "s",
        "lower",
        "setup_s",
        &["fig4-saturated", "dnn-fig8"],
    ),
    layer("scenario.build_engine_s", "s", "lower", "setup_s", MESH16),
    layer(
        "scenario.build_source_s",
        "s",
        "lower",
        "setup_s",
        &["dnn-fig8"],
    ),
    layer("engine.run_s", "s", "lower", RATE, ALL),
    layer("engine.self_s", "s", "lower", RATE, STEPPING),
    layer("engine.cycles_stepped", "count", "lower", RATE, SPARSE),
    layer("engine.cycles_skipped", "count", "higher", RATE, SPARSE),
    layer("engine.skip_ratio", "ratio", "higher", RATE, SPARSE),
    layer("engine.ns_per_stepped_cycle", "ns", "lower", RATE, STEPPING),
    layer(
        "engine.slab_high_water",
        "count",
        "lower",
        "peak_rss_mib",
        MESH16,
    ),
    layer(
        "engine.allocs_per_kilocycle",
        "1/kcycle",
        "lower",
        RATE,
        &["fig4-saturated"],
    ),
    layer("traffic.poll_calls", "count", "lower", RATE, POLLING),
    layer("traffic.poll_hit_ratio", "ratio", "higher", RATE, POLLING),
    layer(
        "traffic.polls_per_stepped_cycle",
        "ratio",
        "lower",
        RATE,
        POLLING,
    ),
    layer("traffic.poll_s", "s", "lower", RATE, POLLING),
    layer("traffic.on_complete_s", "s", "lower", RATE, &["dnn-fig8"]),
    layer("traffic.next_arrival_calls", "count", "lower", RATE, SPARSE),
    layer("traffic.share", "ratio", "lower", RATE, POLLING),
    layer("snap.bytes", "B", "lower", "peak_rss_mib", MESH16),
    layer("snap.digest_s", "s", "lower", RATE, MESH16),
];

impl MetricDef {
    /// The definition as recorded in `e2e.json`, so the results file
    /// explains itself.
    pub fn to_json(self) -> Json {
        let mut pairs = vec![
            ("name", Json::str(self.name)),
            ("unit", Json::str(self.unit)),
            ("better", Json::str(self.better)),
        ];
        match self.kind {
            Kind::EndToEnd { bound } => pairs.push(("bound", Json::F64(bound))),
            Kind::PerLayer { moves, on } => {
                pairs.push(("moves", Json::str(moves)));
                pairs.push(("on", Json::Arr(on.iter().map(|w| Json::str(*w)).collect())));
            }
        }
        Json::obj(pairs)
    }
}

/// `num / den`, or 0 when nothing was counted: a run that skips every
/// cycle has no per-stepped-cycle cost, and one without polls no hit ratio.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The median; `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(v: &'a Json, key: &str) -> &'a Json {
        crate::workload::field(v, key).unwrap_or_else(|e| panic!("{e}"))
    }

    fn keys(v: &Json) -> Vec<&str> {
        match v {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, got {other}"),
        }
    }

    fn str_of(v: &Json) -> &str {
        match v {
            Json::Str(s) => s,
            other => panic!("expected a string, got {other}"),
        }
    }

    fn arr(v: &Json) -> &[Json] {
        match v {
            Json::Arr(items) => items,
            other => panic!("expected an array, got {other}"),
        }
    }

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside the benchmark directory");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<&str> = arr(get(&doc, "workloads"))
            .iter()
            .map(|w| str_of(get(w, "name")))
            .collect();
        let ours: Vec<&str> = crate::workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);

        let e2e_defs: Vec<&MetricDef> = REGISTRY
            .iter()
            .filter(|m| matches!(m.kind, Kind::EndToEnd { .. }))
            .collect();
        let layer_defs: Vec<&MetricDef> = REGISTRY
            .iter()
            .filter(|m| matches!(m.kind, Kind::PerLayer { .. }))
            .collect();
        let e2e_json = arr(get(&doc, "end_to_end"));
        let layer_json = arr(get(&doc, "per_layer"));
        assert!(e2e_json.len() <= 16 && layer_json.len() <= 128);
        assert_eq!(e2e_json.len(), e2e_defs.len(), "end_to_end count");
        assert_eq!(layer_json.len(), layer_defs.len(), "per_layer count");

        for (json, def) in e2e_json.iter().zip(&e2e_defs) {
            assert_eq!(keys(json), ["name", "unit", "better", "bound"]);
            assert_eq!(str_of(get(json, "name")), def.name);
            assert_eq!(str_of(get(json, "unit")), def.unit, "{}", def.name);
            assert_eq!(str_of(get(json, "better")), def.better, "{}", def.name);
            let Kind::EndToEnd { bound } = def.kind else {
                unreachable!()
            };
            assert_eq!(get(json, "bound"), &Json::F64(bound), "{}", def.name);
        }
        for (json, def) in layer_json.iter().zip(&layer_defs) {
            assert_eq!(keys(json), ["name", "unit", "better"]);
            assert_eq!(str_of(get(json, "name")), def.name);
            assert_eq!(str_of(get(json, "unit")), def.unit, "{}", def.name);
            assert_eq!(str_of(get(json, "better")), def.better, "{}", def.name);
        }

        let mut seen = std::collections::BTreeSet::new();
        for def in REGISTRY {
            assert!(is_name(def.name), "bad name {}", def.name);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
            assert!(matches!(def.better, "higher" | "lower"), "{}", def.name);
            if let Kind::PerLayer { moves, on } = def.kind {
                assert!(
                    e2e_defs.iter().any(|m| m.name == moves),
                    "{} moves unknown metric {moves}",
                    def.name
                );
                assert!(!on.is_empty(), "{} names no workload", def.name);
                for w in on {
                    assert!(ours.contains(w), "{} names unknown workload {w}", def.name);
                }
            }
        }
        assert!(e2e_defs.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn guards_turn_empty_denominators_into_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
