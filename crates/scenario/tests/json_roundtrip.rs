//! The `Scenario` serialize/deserialize round trip, property-tested:
//! `from_json(to_json(s)) == s` for arbitrary scenarios, and the
//! serialized text is a fixpoint of `to_json → parse → to_json` (the
//! contract a trace-replay service needs to echo back exactly what it
//! received).

use proptest::prelude::*;
use scenario::{EngineSpec, PacketProfile, Scenario, TrafficSpec};
use simkit::Json;

fn engine_strategy() -> impl Strategy<Value = EngineSpec> {
    prop_oneof![
        Just(EngineSpec::Patronoc),
        Just(EngineSpec::Packet(PacketProfile::Compact)),
        Just(EngineSpec::Packet(PacketProfile::HighPerformance)),
    ]
}

fn topology_strategy() -> impl Strategy<Value = patronoc::Topology> {
    prop_oneof![
        (2usize..6, 2usize..6).prop_map(|(cols, rows)| patronoc::Topology::Mesh { cols, rows }),
        (2usize..6, 2usize..6).prop_map(|(cols, rows)| patronoc::Topology::Torus { cols, rows }),
        (2usize..12).prop_map(|nodes| patronoc::Topology::Ring { nodes }),
    ]
}

fn traffic_strategy() -> impl Strategy<Value = TrafficSpec> {
    prop_oneof![
        (0.0001..1.0f64, 1u64..65_000, 0.0..1.0f64, any::<bool>()).prop_map(
            |(load, max_transfer, read_fraction, copies)| TrafficSpec::Uniform {
                load,
                max_transfer,
                read_fraction,
                copies,
            }
        ),
        (
            prop_oneof![
                Just(traffic::SyntheticPattern::AllGlobal),
                Just(traffic::SyntheticPattern::MaxTwoHop),
                Just(traffic::SyntheticPattern::MaxSingleHop),
                Just(traffic::SyntheticPattern::Transpose),
                Just(traffic::SyntheticPattern::BitComplement),
                (1u8..=100).prop_map(|skew_pct| traffic::SyntheticPattern::Hotspot { skew_pct }),
            ],
            0.0001..1.0f64,
            1u64..65_000,
            0.0..1.0f64,
        )
            .prop_map(|(pattern, load, max_transfer, read_fraction)| {
                TrafficSpec::Synthetic {
                    pattern,
                    load,
                    max_transfer,
                    read_fraction,
                }
            }),
        (
            prop_oneof![
                Just(traffic::DnnWorkload::DistributedTraining),
                Just(traffic::DnnWorkload::ParallelConv),
                Just(traffic::DnnWorkload::PipelinedConv),
            ],
            1usize..10,
        )
            .prop_map(|(workload, steps)| TrafficSpec::Dnn { workload, steps }),
    ]
}

proptest! {
    #[test]
    fn scenario_json_round_trips(
        engine in engine_strategy(),
        topology in topology_strategy(),
        traffic in traffic_strategy(),
        axi in (
            prop_oneof![Just(32u32), Just(64), Just(128), Just(512)],
            1u32..8,
            1u32..64,
            1usize..4,
        ),
        stop in (
            0u64..100_000,
            0u64..1_000_000,
            prop_oneof![Just(None), (1u64..1_000_000_000).prop_map(Some)],
            0u64..u64::MAX,
        ),
        threads in 1usize..9,
        full_sweep in any::<bool>(),
    ) {
        let (data_width, id_width, max_outstanding, link_stages) = axi;
        let (warmup, window, budget, seed) = stop;
        let mut s = Scenario::patronoc()
            .topology(topology)
            .data_width(data_width)
            .id_width(id_width)
            .max_outstanding(max_outstanding)
            .link_stages(link_stages)
            .traffic(traffic)
            .warmup(warmup)
            .window(window)
            .seed(seed)
            .threads(threads)
            .full_sweep(full_sweep);
        s.engine = engine;
        s.budget = budget;

        // Value round trip: parse(serialize(s)) == s.
        let json = s.to_json();
        let back = Scenario::from_json(&json).expect("serialized scenario parses");
        prop_assert_eq!(&back, &s);

        // Textual fixpoint: to_json → parse → to_json is stable.
        let text = json.to_json();
        let reparsed = Json::parse(&text).expect("writer output is valid JSON");
        prop_assert_eq!(reparsed.to_json(), text.clone());

        // And the text round trip matches the value round trip.
        let from_text = Scenario::from_json_str(&text).expect("text parses");
        prop_assert_eq!(from_text, s);
    }
}

#[test]
fn parse_errors_name_the_problem() {
    let err = Scenario::from_json_str("{not json").unwrap_err();
    assert!(err.to_string().contains("invalid JSON"), "{err}");

    let mut json = Scenario::patronoc().to_json();
    if let Json::Obj(pairs) = &mut json {
        pairs.retain(|(k, _)| k != "seed");
    }
    let err = Scenario::from_json(&json).unwrap_err();
    assert!(err.to_string().contains("missing key `seed`"), "{err}");

    let mut json = Scenario::patronoc().to_json();
    if let Json::Obj(pairs) = &mut json {
        for (k, v) in pairs.iter_mut() {
            if k == "engine" {
                *v = Json::str("noxim");
            }
        }
    }
    let err = Scenario::from_json(&json).unwrap_err();
    assert!(err.to_string().contains("unknown engine"), "{err}");
}

#[test]
fn documents_without_a_threads_key_mean_serial() {
    // Artifacts predating the threads knob must keep parsing (lenient
    // default 1 = serial).
    let mut json = Scenario::patronoc().threads(4).to_json();
    if let Json::Obj(pairs) = &mut json {
        pairs.retain(|(k, _)| k != "threads");
    }
    let parsed = Scenario::from_json(&json).unwrap();
    assert_eq!(parsed.threads, 1);
}

#[test]
fn documents_with_the_retired_time_skip_key_still_parse() {
    // Scenario files written before time skipping became unconditional
    // carry `"time_skip": true`; the parser ignores keys it does not know.
    let mut json = Scenario::patronoc().to_json();
    if let Json::Obj(pairs) = &mut json {
        pairs.retain(|(k, _)| k != "full_sweep");
        pairs.push(("time_skip".to_owned(), Json::Bool(true)));
    }
    let parsed = Scenario::from_json(&json).unwrap();
    assert_eq!(parsed, Scenario::patronoc());
}

#[test]
fn a_non_boolean_full_sweep_is_rejected() {
    let mut json = Scenario::patronoc().to_json();
    if let Json::Obj(pairs) = &mut json {
        for (k, v) in pairs.iter_mut() {
            if k == "full_sweep" {
                *v = Json::U64(1);
            }
        }
    }
    let err = Scenario::from_json(&json).unwrap_err();
    assert!(err.to_string().contains("key `full_sweep`"), "{err}");
}

#[test]
fn a_deserialized_scenario_runs_identically() {
    // The round trip is not just structural: the parsed scenario must
    // produce the bit-identical report.
    let original = Scenario::patronoc()
        .traffic(TrafficSpec::uniform_copies(0.4, 500))
        .warmup(500)
        .window(3_000)
        .seed(77);
    let text = original.to_json().to_json();
    let parsed = Scenario::from_json_str(&text).unwrap();
    assert_eq!(parsed, original);
    let a = original.run().unwrap();
    let b = parsed.run().unwrap();
    assert_eq!(a, b);
    assert_eq!(a.throughput_gib_s.to_bits(), b.throughput_gib_s.to_bits());
}
