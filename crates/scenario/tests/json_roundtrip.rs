//! The `Scenario` serialize/deserialize round trip, property-tested:
//! `from_json(to_json(s)) == s` for arbitrary scenarios, and the
//! serialized text is a fixpoint of `to_json → parse → to_json` (the
//! contract a trace-replay service needs to echo back exactly what it
//! received). Untrusted documents never panic: one that parses but asks
//! for something the engines cannot model is a `ScenarioError`, and so
//! is every truncated or single-byte-mutated document that is not still
//! a valid scenario.

use proptest::prelude::*;
use scenario::{EngineSpec, PacketProfile, Scenario, ScenarioError, TrafficSpec};
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

/// One document per way a well-formed scenario can ask for something
/// its engine or traffic source cannot model.
fn unmodellable_scenarios() -> Vec<(&'static str, Scenario)> {
    use patronoc::Topology;
    use traffic::{DnnWorkload, SyntheticPattern};
    let mesh = |cols, rows| Topology::Mesh { cols, rows };
    let synthetic = |pattern, load| TrafficSpec::Synthetic {
        pattern,
        load,
        max_transfer: 1_000,
        read_fraction: 0.5,
    };
    let windowed = Scenario::patronoc().window(1_000);
    let packet = Scenario::packet(PacketProfile::Compact).window(1_000);
    let dnn = |workload, steps| {
        Scenario::patronoc()
            .traffic(TrafficSpec::dnn(workload, steps))
            .budget(1_000)
    };
    vec![
        (
            "uniform load 0",
            windowed.clone().traffic(TrafficSpec::uniform(0.0, 1_000)),
        ),
        (
            "uniform transfers of 0 bytes",
            windowed.clone().traffic(TrafficSpec::uniform(0.5, 0)),
        ),
        (
            "uniform transfers larger than a region",
            windowed
                .clone()
                .region_size(512)
                .traffic(TrafficSpec::uniform(0.5, 1_000)),
        ),
        (
            "synthetic load 0",
            windowed
                .clone()
                .traffic(synthetic(SyntheticPattern::AllGlobal, 0.0)),
        ),
        (
            "synthetic pattern on a 2x3 mesh",
            windowed
                .clone()
                .topology(mesh(2, 3))
                .traffic(synthetic(SyntheticPattern::AllGlobal, 1.0)),
        ),
        (
            "synthetic pattern on a 3x2 packet mesh",
            packet
                .clone()
                .topology(mesh(3, 2))
                .traffic(synthetic(SyntheticPattern::MaxTwoHop, 1.0)),
        ),
        (
            "two-hop pattern on a 5x3 mesh",
            windowed
                .clone()
                .topology(mesh(5, 3))
                .traffic(synthetic(SyntheticPattern::MaxTwoHop, 1.0)),
        ),
        (
            "single-hop pattern on a 5x5 packet mesh",
            packet
                .clone()
                .topology(mesh(5, 5))
                .traffic(synthetic(SyntheticPattern::MaxSingleHop, 1.0)),
        ),
        ("DNN trace of 0 steps", dnn(DnnWorkload::ParallelConv, 0)),
        (
            "DNN trace on one core",
            dnn(DnnWorkload::ParallelConv, 1).topology(mesh(1, 1)),
        ),
        (
            "DNN pipeline on a 4x9 mesh",
            dnn(DnnWorkload::PipelinedConv, 1).topology(mesh(4, 9)),
        ),
        (
            "DNN pipeline on a 9x4 mesh",
            dnn(DnnWorkload::PipelinedConv, 1).topology(mesh(9, 4)),
        ),
        (
            "packet mesh of 1 column",
            packet.clone().topology(mesh(1, 4)),
        ),
        ("packet mesh of 0 rows", packet.clone().topology(mesh(4, 0))),
        ("packet run on 0 threads", packet.threads(0)),
    ]
}

#[test]
fn documents_the_engines_cannot_model_are_errors_not_panics() {
    for (what, sc) in unmodellable_scenarios() {
        let text = sc.to_json().to_json();
        let parsed = Scenario::from_json_str(&text).expect("a well-formed document parses");
        let err = parsed.run().expect_err(what);
        assert!(
            matches!(err, ScenarioError::Invalid(_)),
            "{what}: wrong error {err:?}"
        );
    }
}

#[test]
fn regions_beyond_the_address_space_are_a_config_error() {
    let text = Scenario::patronoc()
        .region_size(1 << 60)
        .to_json()
        .to_json();
    let parsed = Scenario::from_json_str(&text).expect("a well-formed document parses");
    // 16 regions of 2^60 bytes end beyond u64.
    let err = parsed.build_engine().err();
    assert!(
        matches!(err, Some(ScenarioError::Config(_))),
        "wrong outcome {err:?}"
    );
}

#[test]
fn every_mutated_document_fails_to_parse_is_refused_or_builds() {
    use patronoc::Topology;
    use traffic::{DnnWorkload, SyntheticPattern};
    // Small meshes and single-digit fields, so that a one-digit change
    // reaches each refused class: a mesh below 2x1 or 3x3, a two-hop
    // master out of reach, a zero load, zero steps, zero threads, more
    // pipeline
    // cores than layers. The optional keys are left out where they reach
    // no class: a mutant of an ignored key only repeats the original.
    let docs = [
        (
            Scenario::patronoc()
                .topology(Topology::Mesh { cols: 3, rows: 3 })
                .traffic(TrafficSpec::synthetic(SyntheticPattern::MaxTwoHop, 100)),
            &["threads", "full_sweep"][..],
        ),
        (
            Scenario::packet(PacketProfile::Compact)
                .topology(Topology::Mesh { cols: 2, rows: 2 })
                .traffic(TrafficSpec::uniform(0.5, 100)),
            &["full_sweep"][..],
        ),
        (
            Scenario::patronoc().traffic(TrafficSpec::dnn(DnnWorkload::PipelinedConv, 1)),
            &["threads", "full_sweep"][..],
        ),
    ]
    .map(|(sc, optional)| {
        let mut json = sc.window(5).seed(7).to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs.retain(|(k, _)| !optional.contains(&k.as_str()));
        }
        json.to_json()
    });
    let check = |bytes: &[u8]| {
        // A byte string that is not UTF-8 is not a document.
        let Ok(text) = std::str::from_utf8(bytes) else {
            return;
        };
        let outcome = std::panic::catch_unwind(|| {
            if let Ok(sc) = Scenario::from_json_str(text) {
                if sc.build_engine().is_ok() {
                    let _ = sc.build_source();
                }
            }
        });
        assert!(outcome.is_ok(), "mutant panicked: {text}");
    };
    for doc in &docs {
        let bytes = doc.as_bytes();
        for n in 0..bytes.len() {
            check(&bytes[..n]);
        }
        let mut mutant = bytes.to_vec();
        for i in 0..bytes.len() {
            for b in 0..=u8::MAX {
                mutant[i] = b;
                check(&mutant);
            }
            mutant[i] = bytes[i];
        }
    }
}
