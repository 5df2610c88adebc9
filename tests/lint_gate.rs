//! The determinism and unsafety rules fail the build. Simulated results
//! must be bit-identical across runs, threads and hosts, so hash-ordered
//! collections, wall clocks, environment reads and OS-seeded hashing are
//! banned, and `unsafe` is confined to `simkit::pool` (ARCHITECTURE.md,
//! "Static analysis & invariant checking"). The lint levels live in the
//! manifests' `[lints]` tables and the banned paths in `clippy.toml`.
//!
//! Each test checks them on probes: small source files that break one rule
//! or keep to all of them. A scratch workspace copies the root's
//! `[workspace.lints]`, `clippy.toml` and `rust-toolchain.toml`, and holds
//! these members:
//!
//! * `rules`, on the workspace lints;
//! * `simkit`, on `simkit`'s table, which allows `unsafe` on a `pool`
//!   module as the real crate does;
//! * `forbid-override`, which tries to allow `unsafe` under `forbid`;
//! * one `scope-<package>` per workspace package, on a copy of that
//!   package's `[lints]` table, with one probe per rule.
//!
//! It is checked once by `cargo clippy -- -D warnings`, as CI runs it, and
//! once by plain `cargo check`; each test reads its probe's diagnostics.

use simkit::Json;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

/// What a probe must come to under `cargo clippy -- -D warnings`.
#[derive(Debug)]
enum Expect {
    /// An error with this lint or error code.
    Denied(&'static str),
    /// An error with this code on this line, and no diagnostic elsewhere.
    DeniedOnlyOn(&'static str, u64),
    /// No diagnostic at all.
    Clean,
}
use Expect::{Clean, Denied, DeniedOnlyOn};

const TYPES: Expect = Denied("clippy::disallowed_types");
const METHODS: Expect = Denied("clippy::disallowed_methods");
const UNSAFE: Expect = Denied("unsafe_code");
const UNDOCUMENTED: Expect = Denied("clippy::undocumented_unsafe_blocks");

/// A probe: its file in the scratch workspace, what it must come to, and
/// its source. A module file is declared in its parent by name.
struct Probe {
    file: &'static str,
    expect: Expect,
    source: &'static str,
}

macro_rules! probes {
    ($($test:ident: $file:literal => $expect:expr, $source:expr;)*) => {
        const PROBES: &[Probe] = &[$(Probe { file: $file, expect: $expect, source: $source }),*];
        $(#[test] fn $test() { check_probe($file); })*
    };
}

probes! {
    // Hash-ordered collections and OS-seeded hashing.
    hash_map_is_denied: "rules/src/hash_map.rs" => TYPES,
        "pub fn probe() -> usize { std::collections::HashMap::<u8, u8>::new().len() }";
    hash_set_is_denied: "rules/src/hash_set.rs" => TYPES,
        "pub fn probe() -> usize { std::collections::HashSet::<u8>::new().len() }";
    hash_map_behind_an_alias_is_denied: "rules/src/hash_map_alias.rs" => TYPES,
        "use std::collections::HashMap as Map;\npub fn probe() -> usize { Map::<u8, u8>::new().len() }";
    hash_map_by_its_module_path_is_denied: "rules/src/hash_map_module_path.rs" => TYPES,
        "pub fn probe() -> usize { std::collections::hash_map::HashMap::<u8, u8>::new().len() }";
    random_state_is_denied: "rules/src/random_state.rs" => TYPES,
        "pub fn probe() -> std::hash::RandomState { std::hash::RandomState::new() }";
    random_state_by_its_hash_map_path_is_denied: "rules/src/hash_map_random_state.rs" => TYPES,
        "use std::collections::hash_map::RandomState;\npub fn probe() -> RandomState { RandomState::new() }";
    ordered_collections_are_allowed: "rules/src/ordered_collections.rs" => Clean,
        "pub fn probe() -> usize {
    std::collections::BTreeMap::<u8, u8>::new().len() + std::collections::BTreeSet::<u8>::new().len()
}";

    // Wall clocks.
    instant_is_denied: "rules/src/instant.rs" => TYPES,
        "pub fn probe() -> std::time::Instant { std::time::Instant::now() }";
    system_time_is_denied: "rules/src/system_time.rs" => TYPES,
        "pub fn probe() -> std::time::SystemTime { std::time::SystemTime::now() }";
    durations_are_allowed: "rules/src/duration.rs" => Clean,
        "pub fn probe() -> std::time::Duration { std::time::Duration::from_nanos(1) }";

    // Every `std::env` function that reads or changes process state.
    env_args_is_denied: "rules/src/env_args.rs" => METHODS,
        "pub fn probe() -> usize { std::env::args().count() }";
    env_args_os_is_denied: "rules/src/env_args_os.rs" => METHODS,
        "pub fn probe() -> usize { std::env::args_os().count() }";
    env_current_dir_is_denied: "rules/src/env_current_dir.rs" => METHODS,
        "pub fn probe() -> bool { std::env::current_dir().is_ok() }";
    env_current_exe_is_denied: "rules/src/env_current_exe.rs" => METHODS,
        "pub fn probe() -> bool { std::env::current_exe().is_ok() }";
    env_home_dir_is_denied: "rules/src/env_home_dir.rs" => METHODS,
        "pub fn probe() -> bool { std::env::home_dir().is_some() }";
    env_temp_dir_is_denied: "rules/src/env_temp_dir.rs" => METHODS,
        "pub fn probe() -> bool { std::env::temp_dir().is_absolute() }";
    env_var_is_denied: "rules/src/env_var.rs" => METHODS,
        "pub fn probe() -> bool { std::env::var(\"PROBE\").is_ok() }";
    env_var_os_is_denied: "rules/src/env_var_os.rs" => METHODS,
        "pub fn probe() -> bool { std::env::var_os(\"PROBE\").is_some() }";
    env_vars_is_denied: "rules/src/env_vars.rs" => METHODS,
        "pub fn probe() -> usize { std::env::vars().count() }";
    env_vars_os_is_denied: "rules/src/env_vars_os.rs" => METHODS,
        "pub fn probe() -> usize { std::env::vars_os().count() }";
    env_set_var_is_denied: "rules/src/env_set_var.rs" => METHODS,
        "pub fn probe() { std::env::set_var(\"PROBE\", \"1\") }";
    env_remove_var_is_denied: "rules/src/env_remove_var.rs" => METHODS,
        "pub fn probe() { std::env::remove_var(\"PROBE\") }";
    env_set_current_dir_is_denied: "rules/src/env_set_current_dir.rs" => METHODS,
        "pub fn probe() -> bool { std::env::set_current_dir(\"/\").is_ok() }";
    env_read_behind_an_alias_is_denied: "rules/src/env_alias.rs" => METHODS,
        "use std::env::var as read;\npub fn probe() -> bool { read(\"PROBE\").is_ok() }";
    // `env!` reads the build's environment, which the source pins.
    env_macros_and_consts_are_allowed: "rules/src/env_macros.rs" => Clean,
        "pub const NAME: &str = env!(\"CARGO_PKG_NAME\");
pub const UNSET: Option<&str> = option_env!(\"PATRONOC_PROBE_UNSET\");
pub const OS: &str = std::env::consts::OS;";

    // `unsafe` outside the pool, even with a SAFETY comment.
    unsafe_block_is_denied_outside_the_pool: "rules/src/unsafe_block.rs" => UNSAFE,
        "pub fn probe() -> &'static str {
    // SAFETY: the bytes are ASCII, so they are UTF-8.
    unsafe { std::str::from_utf8_unchecked(b\"ok\") }
}";
    unsafe_fn_is_denied_outside_the_pool: "rules/src/unsafe_fn.rs" => UNSAFE,
        "/// # Safety\n///\n/// Nothing to uphold.\npub unsafe fn probe() {}";
    unsafe_impl_is_denied_outside_the_pool: "rules/src/unsafe_impl.rs" => UNSAFE,
        "pub struct Probe(pub *const u8);
// SAFETY: the probe is never sent.
unsafe impl Send for Probe {}";
    unsafe_in_strings_and_comments_is_not_code: "rules/src/unsafe_in_text.rs" => Clean,
        "/// An `unsafe impl Send` in a doc comment.
pub const PROBE: &str = \"unsafe { core::hint::unreachable_unchecked() }\";
// unsafe fn in a line comment";
    allowing_unsafe_code_under_forbid_is_an_error: "forbid-override/src/lib.rs" => Denied("E0453"),
        "#[allow(unsafe_code, reason = \"forbid takes no exception\")]\npub mod probe {}";

    // `unsafe` in the pool: `simkit`'s `deny` takes the one exception.
    simkit_may_allow_unsafe_code_on_its_pool: "simkit/src/lib.rs" => Clean,
        "#[allow(unsafe_code, reason = \"the worker crew\")]\npub mod pool;";
    documented_unsafe_block_in_the_pool_is_allowed: "simkit/src/pool/documented.rs" => Clean,
        "pub fn probe() -> &'static str {
    // SAFETY: the bytes are ASCII, so they are UTF-8.
    unsafe { std::str::from_utf8_unchecked(b\"ok\") }
}";
    undocumented_unsafe_block_in_the_pool_is_denied: "simkit/src/pool/bare.rs" => UNDOCUMENTED,
        "pub fn probe() -> &'static str { unsafe { std::str::from_utf8_unchecked(b\"ok\") } }";
    comment_without_safety_documents_nothing: "simkit/src/pool/other_comment.rs" => UNDOCUMENTED,
        "pub fn probe() -> &'static str {
    // The bytes are ASCII, so they are UTF-8.
    unsafe { std::str::from_utf8_unchecked(b\"ok\") }
}";
    safety_comment_above_a_statement_documents_it: "simkit/src/pool/statement.rs" => Clean,
        "pub fn probe() -> usize {
    // SAFETY: the bytes are ASCII, so they are UTF-8.
    let text = unsafe { std::str::from_utf8_unchecked(b\"ok\") };
    text.len()
}";
    safety_comment_documents_one_statement_only: "simkit/src/pool/two_statements.rs"
        => DeniedOnlyOn("clippy::undocumented_unsafe_blocks", 4),
        "pub fn probe() -> usize {
    // SAFETY: the bytes are ASCII, so they are UTF-8.
    let first = unsafe { std::str::from_utf8_unchecked(b\"ok\") };
    let second = unsafe { std::str::from_utf8_unchecked(b\"ok\") };
    first.len() + second.len()
}";
    undocumented_unsafe_impl_in_the_pool_is_denied: "simkit/src/pool/bare_impl.rs" => UNDOCUMENTED,
        "pub struct Probe(pub *const u8);\nunsafe impl Send for Probe {}";
    // Edition 2021 would let an `unsafe fn` body do unsafe operations.
    unsafe_op_in_unsafe_fn_needs_its_own_block: "simkit/src/pool/unsafe_fn.rs" => Denied("E0133"),
        "/// # Safety\n///\n/// `bytes` must be UTF-8.
pub unsafe fn probe(bytes: &[u8]) -> &str { std::str::from_utf8_unchecked(bytes) }";

    // Exceptions.
    expect_exempts_only_its_own_item: "rules/src/expect_one_site.rs"
        => DeniedOnlyOn("clippy::disallowed_types", 3),
        "#[expect(clippy::disallowed_types, reason = \"the one exempt clock read\")]
pub fn exempt() -> std::time::Instant { std::time::Instant::now() }
pub fn banned() -> std::time::Instant { std::time::Instant::now() }";
    unfulfilled_expectation_is_an_error: "rules/src/expect_unfulfilled.rs"
        => Denied("unfulfilled_lint_expectations"),
        "#[expect(clippy::disallowed_types, reason = \"nothing to exempt\")]\npub fn probe() {}";
}

/// The `rules` probes copied into every `scope-<package>` member.
const SCOPE_PROBES: [&str; 5] = [
    "hash_map",
    "random_state",
    "instant",
    "env_var_os",
    "unsafe_block",
];

/// Packages that may read the process environment: they parse command
/// lines, or their tests and examples read knobs such as `BENCH_THREADS`.
const ENV_READERS: &[&str] = &["patronoc-repro", "bench", "proptest"];

/// Vendored stand-ins for crates.io packages. They keep upstream's lint
/// levels, so of the rules only `clippy.toml`'s bans reach them, at
/// clippy's default level.
const VENDORED: &[&str] = &["proptest"];

macro_rules! package_scope_tests {
    ($($test:ident: $package:literal,)*) => {
        /// The packages a scope test checks.
        const SCOPE_TESTED: &[&str] = &[$($package),*];
        $(#[test] fn $test() { check_package_scope($package); })*
    };
}

package_scope_tests! {
    root_package_enforces_its_scope: "patronoc-repro",
    axi_enforces_its_scope: "axi",
    bench_enforces_its_scope: "bench",
    packetnoc_enforces_its_scope: "packetnoc",
    patronoc_enforces_its_scope: "patronoc",
    physical_enforces_its_scope: "physical",
    scenario_enforces_its_scope: "scenario",
    simkit_enforces_its_scope: "simkit",
    traffic_enforces_its_scope: "traffic",
    proptest_enforces_its_scope: "proptest",
}

fn check_probe(file: &str) {
    let probe = PROBES.iter().find(|p| p.file == file).expect("a probe");
    let found = in_file(clippy(), file);
    let denied = |code: &str| found.iter().any(|d| d.code == code && d.level == "error");
    let held = match probe.expect {
        Clean => found.is_empty(),
        Denied(code) => denied(code),
        DeniedOnlyOn(code, line) => denied(code) && found.iter().all(|d| d.line == line),
    };
    assert!(
        held,
        "{file}: expected {:?}, got:\n{}",
        probe.expect,
        rendered(&found)
    );
}

/// Checks `package`'s `[lints]` table on the scope probes: each rule that
/// applies to the package is denied, and the environment rule is relaxed
/// for the packages that read it.
fn check_package_scope(package: &str) {
    let file = |module: &str| format!("scope-{package}/src/{module}.rs");
    for module in ["hash_map", "random_state", "instant"] {
        assert_denied(clippy(), &file(module), "clippy::disallowed_types");
    }
    if ENV_READERS.contains(&package) {
        let found = in_file(clippy(), &file("env_var_os"));
        assert!(found.is_empty(), "env reads allowed:\n{}", rendered(&found));
    } else {
        assert_denied(clippy(), &file("env_var_os"), "clippy::disallowed_methods");
    }
    if !VENDORED.contains(&package) {
        assert_denied(clippy(), &file("unsafe_block"), "unsafe_code");
        assert_denied(rustc(), &file("unsafe_block"), "unsafe_code");
    }
}

#[test]
fn every_workspace_package_has_a_scope_test() {
    // A new package declares its scope here: a simulation crate by a scope
    // test alone, an exemption in `ENV_READERS` or `VENDORED` as well.
    let mut packages: Vec<String> = workspace_packages().into_iter().map(|p| p.0).collect();
    packages.sort();
    let mut tested = SCOPE_TESTED.to_vec();
    tested.sort_unstable();
    assert_eq!(packages, tested, "workspace packages vs. scope tests");
}

#[test]
fn unsafe_code_fails_plain_cargo_check() {
    // rustc enforces the confinement in every build, without clippy.
    for file in ["rules/src/unsafe_block.rs", "rules/src/unsafe_impl.rs"] {
        assert_denied(rustc(), file, "unsafe_code");
    }
    assert!(rustc().iter().all(|d| !d.code.starts_with("clippy::")));
}

#[test]
fn every_banned_path_resolves() {
    // A path that names nothing is only a warning, even under -D warnings.
    let config: Vec<&Diagnostic> = clippy()
        .iter()
        .filter(|d| d.file.ends_with("clippy.toml"))
        .collect();
    assert!(config.is_empty(), "unresolved:\n{}", rendered(&config));
}

#[test]
fn every_banned_path_gives_a_reason_and_has_a_probe() {
    let entries: Vec<String> = read(&repo().join("clippy.toml"))
        .lines()
        .map(str::trim)
        .filter(|line| line.starts_with("{ path = "))
        .map(str::to_owned)
        .collect();
    assert!(entries.len() > 1, "no banned path in clippy.toml");
    for entry in &entries {
        assert!(!entry.contains("reason = \"\""), "empty reason: {entry}");
        assert!(entry.contains("reason = \""), "no reason: {entry}");
        let path = entry.split('"').nth(1).expect("a quoted path");
        // The path itself, not a longer identifier it prefixes.
        let named = |source: &str| {
            source.match_indices(path).any(|(at, _)| {
                let rest = &source[at + path.len()..];
                !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_')
            })
        };
        assert!(
            PROBES.iter().any(|p| named(p.source)),
            "no probe for {path}"
        );
    }
}

#[test]
fn every_lint_expectation_in_the_workspace_gives_a_reason() {
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples", "crates", "third_party"] {
        rust_files(&repo().join(dir), &mut files);
    }
    for file in &files {
        for (line, attribute) in attributes(&read(file)) {
            let ok = !attribute.contains("expect(") || attribute.contains("reason");
            assert!(ok, "{}:{line}: no reason in {attribute}", file.display());
        }
    }
}

#[test]
fn simkit_allows_unsafe_code_on_the_pool_module_only() {
    let mut files = Vec::new();
    rust_files(&repo().join("crates/simkit"), &mut files);
    let mut sites = Vec::new();
    for file in &files {
        let source = read(file);
        for (after, attribute) in attributes(&source) {
            if attribute.contains("unsafe_code") {
                let item = source
                    .lines()
                    .skip(after)
                    .map(str::trim)
                    .find(|l| !l.is_empty());
                let file = file.strip_prefix(repo()).unwrap_or(file).display();
                sites.push(format!("{file}: {}", item.unwrap_or_default()));
            }
        }
    }
    assert_eq!(sites, ["crates/simkit/src/lib.rs: pub mod pool;"]);
}

// ---------------------------------------------------------------------------
// The scratch workspace and its two checks
// ---------------------------------------------------------------------------

/// One compiler diagnostic, located by its primary span.
#[derive(Debug)]
struct Diagnostic {
    /// Relative to the scratch workspace for its sources; absolute for
    /// `clippy.toml`.
    file: String,
    line: u64,
    level: String,
    /// The lint or error code (`clippy::disallowed_types`, `E0133`), or "".
    code: String,
    rendered: String,
}

/// The diagnostics whose primary span lies in `file`.
fn in_file<'a>(diagnostics: &'a [Diagnostic], file: &str) -> Vec<&'a Diagnostic> {
    diagnostics.iter().filter(|d| d.file == file).collect()
}

fn rendered(found: &[&Diagnostic]) -> String {
    found.iter().map(|d| d.rendered.as_str()).collect()
}

fn assert_denied(diagnostics: &[Diagnostic], file: &str, code: &str) {
    let found = in_file(diagnostics, file);
    let ok = found.iter().any(|d| d.code == code && d.level == "error");
    assert!(ok, "{file}: expected `{code}`, got:\n{}", rendered(&found));
}

/// `cargo clippy -- -D warnings`, as CI runs it.
fn clippy() -> &'static [Diagnostic] {
    &checks().0
}

/// Plain `cargo check`: rustc's lints alone.
fn rustc() -> &'static [Diagnostic] {
    &checks().1
}

fn checks() -> &'static (Vec<Diagnostic>, Vec<Diagnostic>) {
    static CHECKS: OnceLock<(Vec<Diagnostic>, Vec<Diagnostic>)> = OnceLock::new();
    CHECKS.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("lint-gate-{}", std::process::id()));
        write_workspace(&dir);
        let clippy = cargo(&dir, &["clippy", "--", "-D", "warnings"]);
        let rustc = cargo(&dir, &["check"]);
        // Best effort: a leftover directory only takes space.
        let _ = fs::remove_dir_all(&dir);
        (clippy, rustc)
    })
}

/// Runs `cargo <command>` on the whole scratch workspace and returns its
/// diagnostics. Every member has errors, so it keeps going past them.
fn cargo(dir: &Path, command: &[&str]) -> Vec<Diagnostic> {
    let output = Command::new(env!("CARGO"))
        .current_dir(dir)
        .arg(command[0])
        .args([
            "--workspace",
            "--keep-going",
            "--offline",
            "--message-format=json",
        ])
        .args(&command[1..])
        .env("CARGO_TARGET_DIR", dir.join("target"))
        // The lint levels under test come from the manifests alone.
        .env_remove("RUSTFLAGS")
        .env_remove("CARGO_BUILD_RUSTFLAGS")
        .env_remove("CLIPPY_CONF_DIR")
        .output()
        .expect("cargo runs");
    let stdout = String::from_utf8(output.stdout).expect("cargo prints UTF-8");
    let diagnostics: Vec<Diagnostic> = stdout.lines().filter_map(diagnostic).collect();
    let live = diagnostics.iter().any(|d| d.code == "unsafe_code");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(live, "cargo {} found no unsafe_code:\n{stderr}", command[0]);
    diagnostics
}

/// The diagnostic in one line of cargo's JSON output, if it holds one.
fn diagnostic(line: &str) -> Option<Diagnostic> {
    fn field<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
        match value {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    let text = |value: Option<&Json>| match value {
        Some(Json::Str(s)) => s.clone(),
        _ => String::new(),
    };
    let message = Json::parse(line).expect("cargo prints one JSON object a line");
    if text(field(&message, "reason")) != "compiler-message" {
        return None;
    }
    let message = field(&message, "message")?;
    let Some(Json::Arr(spans)) = field(message, "spans") else {
        return None;
    };
    let primary = spans
        .iter()
        .find(|span| field(span, "is_primary") == Some(&Json::Bool(true)))?;
    Some(Diagnostic {
        file: text(field(primary, "file_name")),
        line: match field(primary, "line_start") {
            Some(Json::U64(line)) => *line,
            _ => 0,
        },
        level: text(field(message, "level")),
        code: field(message, "code").map_or_else(String::new, |c| text(field(c, "code"))),
        rendered: text(field(message, "rendered")),
    })
}

/// Writes the scratch workspace: its manifest, the copied configuration,
/// the probes and the members' manifests.
fn write_workspace(dir: &Path) {
    if dir.exists() {
        fs::remove_dir_all(dir).expect("stale scratch workspace is removable");
    }
    let root = read(&repo().join("Cargo.toml"));
    let edition = root
        .lines()
        .find_map(|line| line.trim().strip_prefix("edition = "))
        .expect("the workspace sets an edition");
    for file in ["clippy.toml", "rust-toolchain.toml"] {
        write(&dir.join(file), &read(&repo().join(file)));
    }

    // Each probe, and its declaration in the parent module.
    let mut modules: Vec<(String, String)> = Vec::new();
    let mut probes: Vec<(String, &str)> = PROBES
        .iter()
        .map(|p| (p.file.to_owned(), p.source))
        .collect();
    let packages = workspace_packages();
    for (package, _) in &packages {
        for module in SCOPE_PROBES {
            let source = PROBES
                .iter()
                .find(|p| p.file == format!("rules/src/{module}.rs"));
            let source = source.expect("a rules probe").source;
            probes.push((format!("scope-{package}/src/{module}.rs"), source));
        }
    }
    for (file, source) in &probes {
        write(&dir.join(file), &format!("{source}\n"));
        let (parent, name) = file.rsplit_once('/').expect("a module path");
        let Some(module) = name.strip_suffix(".rs").filter(|m| *m != "lib") else {
            continue;
        };
        let parent = if parent.ends_with("/src") {
            format!("{parent}/lib.rs")
        } else {
            format!("{parent}.rs")
        };
        match modules.iter_mut().find(|(file, _)| *file == parent) {
            Some((_, text)) => text.push_str(&format!("pub mod {module};\n")),
            None => modules.push((parent, format!("pub mod {module};\n"))),
        }
    }
    for (file, text) in &modules {
        if !dir.join(file).exists() {
            write(&dir.join(file), text);
        }
    }

    // Members, each on its lint table.
    let inherit = "[lints]\nworkspace = true\n".to_owned();
    let simkit = sections(&read(&repo().join("crates/simkit/Cargo.toml")), "[lints");
    let mut members = vec![
        ("rules".to_owned(), inherit.clone()),
        ("simkit".to_owned(), simkit),
    ];
    members.push(("forbid-override".to_owned(), inherit));
    for (package, manifest) in &packages {
        members.push((format!("scope-{package}"), sections(manifest, "[lints")));
    }
    for (member, lints) in &members {
        let manifest = format!("[package]\nname = \"{member}\"\nversion = \"0.0.0\"\nedition = {edition}\npublish = false\n\n{lints}");
        write(&dir.join(member).join("Cargo.toml"), &manifest);
    }
    let names: Vec<String> = members.iter().map(|(m, _)| format!("{m:?}")).collect();
    let workspace = sections(&root, "[workspace.lints");
    let manifest = format!(
        "[workspace]\nresolver = \"2\"\nmembers = [{}]\n\n{workspace}",
        names.join(", ")
    );
    write(&dir.join("Cargo.toml"), &manifest);
}

/// Every table of `manifest` whose header starts with `prefix`, verbatim.
fn sections(manifest: &str, prefix: &str) -> String {
    let mut out = String::new();
    let mut copying = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            copying = line.starts_with(prefix);
        }
        if copying {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Every workspace package, by name, with its manifest: the root package
/// and the members under `crates/` and `third_party/`.
fn workspace_packages() -> Vec<(String, String)> {
    let mut manifests = vec![repo().join("Cargo.toml")];
    for parent in ["crates", "third_party"] {
        for entry in fs::read_dir(repo().join(parent)).expect("member directory") {
            let manifest = entry.expect("member entry").path().join("Cargo.toml");
            if manifest.exists() {
                manifests.push(manifest);
            }
        }
    }
    let named = manifests.iter().map(|path| {
        let manifest = read(path);
        let name = manifest
            .lines()
            .skip_while(|line| line.trim() != "[package]")
            .find_map(|line| line.trim().strip_prefix("name = "))
            .expect("a [package] name");
        (name.trim_matches('"').to_owned(), manifest)
    });
    named.collect()
}

/// Every `.rs` file under `dir`, build outputs skipped.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The attributes that start a line of `source`, each joined onto one
/// line, with the number of the line it ends on.
fn attributes(source: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = source.lines().map(str::trim).collect();
    let mut found = Vec::new();
    let mut next = 0;
    while next < lines.len() {
        next += 1;
        if !lines[next - 1].starts_with("#[") && !lines[next - 1].starts_with("#![") {
            continue;
        }
        let mut attribute = lines[next - 1].to_owned();
        while depth(&attribute) > 0 && next < lines.len() {
            attribute = format!("{attribute} {}", lines[next]);
            next += 1;
        }
        found.push((next, attribute));
    }
    found
}

/// Open `[` minus closed `]` in `text`, string contents skipped.
fn depth(text: &str) -> i32 {
    let (mut depth, mut in_string, mut escaped) = (0, false, false);
    for c in text.chars() {
        match (in_string, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (true, false, '"') | (false, _, '"') => in_string = !in_string,
            (false, _, '[') => depth += 1,
            (false, _, ']') => depth -= 1,
            _ => {}
        }
    }
    depth
}

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn write(path: &Path, text: &str) {
    fs::create_dir_all(path.parent().expect("a parent directory")).expect("directory");
    fs::write(path, text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
}
