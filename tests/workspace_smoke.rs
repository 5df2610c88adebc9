//! Workspace smoke test: fails fast if the manifest layer regresses — the
//! root facade must re-export every crate, every package must opt into the
//! workspace lints, and the paper's slim 4×4 configuration must construct
//! a runnable simulator.

use patronoc_repro::{axi, packetnoc, patronoc, physical, scenario, simkit, traffic};
use std::fs;
use std::path::Path;

#[test]
fn facade_reexports_resolve() {
    // Touch one item per re-exported crate so a missing dependency or a
    // broken re-export fails this test rather than some distant suite.
    let params = axi::AxiParams::slim();
    assert!(params.data_width() > 0);
    let fifo: simkit::Fifo<u8> = simkit::Fifo::new(2);
    assert_eq!(fifo.len(), 0);
    let _ = traffic::TransferKind::Write;
    let _ = packetnoc::PacketNocConfig::noxim_compact();
    let _ = physical::AreaModel::calibrated();
    let _ = patronoc::Topology::mesh2x2();
    let _ = scenario::Scenario::patronoc();
}

#[test]
fn slim_4x4_constructs_and_runs() {
    let report = scenario::Scenario::patronoc()
        .traffic(scenario::TrafficSpec::uniform(0.5, 256))
        .warmup(500)
        .window(1_500)
        .seed(7)
        .run()
        .expect("slim_4x4 must be a valid scenario");
    assert!(report.payload_bytes > 0, "no traffic delivered");
}

#[test]
fn every_package_has_a_lints_table() {
    // `[workspace.lints]` reaches only the packages whose manifest has a
    // `[lints]` table: a crate without one would build unlinted.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in fs::read_dir(root.join("crates")).expect("crates/ is listable") {
        let manifest = entry.expect("crates/ entry").path().join("Cargo.toml");
        if manifest.exists() {
            manifests.push(manifest);
        }
    }
    assert!(manifests.len() > 1, "no package found under crates/");
    let unlinted: Vec<String> = manifests
        .iter()
        .filter_map(|path| {
            let text = fs::read_to_string(path).expect("manifest is readable");
            (!has_lints_table(&text)).then(|| package_name(&text))
        })
        .collect();
    assert!(
        unlinted.is_empty(),
        "packages without a [lints] table: {unlinted:?}"
    );
}

#[test]
fn a_manifest_without_a_lints_table_is_named() {
    let bare = "[package]\nname = \"bare\"\n\n[dependencies]\naxi = { workspace = true }\n";
    assert!(!has_lints_table(bare));
    assert_eq!(package_name(bare), "bare");
    assert!(has_lints_table(
        "[package]\nname = \"a\"\n\n[lints]\nworkspace = true\n"
    ));
    assert!(has_lints_table(
        "[lints.clippy]\ndisallowed_methods = \"allow\"\n"
    ));
    // The workspace's own table reaches no package by itself.
    assert!(!has_lints_table(
        "[workspace.lints.rust]\nunsafe_code = \"forbid\"\n"
    ));
}

/// Whether a manifest has a `[lints]` table, inherited or its own.
fn has_lints_table(manifest: &str) -> bool {
    manifest
        .lines()
        .map(str::trim)
        .any(|line| line == "[lints]" || line.starts_with("[lints."))
}

/// The `name` of a manifest's `[package]` table.
fn package_name(manifest: &str) -> String {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[package]")
        .find_map(|line| line.strip_prefix("name = "))
        .map_or_else(
            || "<unnamed>".to_owned(),
            |name| name.trim_matches('"').to_owned(),
        )
}
