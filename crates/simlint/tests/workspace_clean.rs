//! The linter's own acceptance test: the real workspace must be clean.
//!
//! This is the same check CI runs via `cargo run -p simlint -- check`,
//! executed in-process so `cargo test` alone already guards the invariants
//! (and so a regression points at the exact finding, not just an exit
//! code).

use std::path::Path;

use simlint::config::Config;
use simlint::driver;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/simlint sits two levels below the workspace root")
}

fn load_config(root: &Path) -> Config {
    let text = std::fs::read_to_string(root.join("simlint.toml")).expect("simlint.toml exists");
    Config::parse(&text).expect("simlint.toml parses")
}

#[test]
fn workspace_has_no_findings() {
    let root = workspace_root();
    let cfg = load_config(root);
    let result = driver::check_workspace(root, &cfg).expect("scan succeeds");
    assert!(
        result.findings.is_empty(),
        "workspace lint findings:\n{}",
        result
            .findings
            .iter()
            .map(driver::render)
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the scan actually covered the tree.
    assert!(result.files_scanned > 50, "{} files", result.files_scanned);
}

#[test]
fn every_unsafe_site_is_documented_and_audited() {
    let root = workspace_root();
    let cfg = load_config(root);
    let result = driver::check_workspace(root, &cfg).expect("scan succeeds");
    // The only `unsafe` left is the worker crew's type-erased closure; the
    // engines are `#![forbid(unsafe_code)]`. (`tests/fixtures.rs` proves
    // the scanner finds `unsafe` at all.)
    assert!(!result.unsafe_sites.is_empty(), "the crew's sites vanished");
    for site in &result.unsafe_sites {
        assert_eq!(site.file, "crates/simkit/src/pool.rs", "{site:?}");
    }
    let undocumented: Vec<_> = result
        .unsafe_sites
        .iter()
        .filter(|s| !s.documented)
        .collect();
    assert!(undocumented.is_empty(), "undocumented: {undocumented:?}");

    let json = driver::audit_json(&result.unsafe_sites);
    assert!(json.contains("\"schema\": \"simlint-unsafe-audit-v1\""));
    assert!(json.contains(&format!("\"total\": {}", result.unsafe_sites.len())));
    assert!(json.contains("crates/simkit/src/pool.rs"));
}

#[test]
fn injected_violation_is_caught() {
    // The negative control for the acceptance criterion "exits non-zero
    // when any fixture violation is injected": scan a copy of a real file
    // with one HashMap smuggled in, and watch the finding appear.
    let root = workspace_root();
    let cfg = load_config(root);
    let clean = std::fs::read_to_string(root.join("crates/patronoc/src/routing.rs"))
        .expect("routing.rs readable");
    let report = simlint::rules::scan_file(
        "crates/patronoc/src/routing.rs",
        Some("patronoc"),
        &clean,
        &cfg,
    );
    assert_eq!(report.findings, vec![]);

    let dirty = clean.replacen("BTreeMap", "HashMap", 1);
    let report = simlint::rules::scan_file(
        "crates/patronoc/src/routing.rs",
        Some("patronoc"),
        &dirty,
        &cfg,
    );
    assert!(
        report.findings.iter().any(|f| f.rule == "hash-collection"),
        "{:?}",
        report.findings
    );
}
