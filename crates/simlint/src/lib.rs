//! `simlint` — the workspace's determinism & unsafety linter.
//!
//! The simulator's headline claim is bit-identical results across stepping
//! modes, `--jobs` and `--threads`. That claim rests on invariants the
//! compiler does not check: no iteration over hash collections, no wall
//! clock or environment reads in simulation paths, and a written-down
//! justification for every `unsafe` site (today only the worker crew's
//! type-erased closure in `simkit::pool`).
//! `simlint` enforces those invariants statically, with no dependencies —
//! the pinned offline toolchain has no Miri and no sanitizers, so the
//! validator is built in-tree, in the same hand-rolled style as
//! `simkit::json`.
//!
//! Pipeline: [`lexer`] turns each file into a comment/string-aware token
//! stream; [`rules`] checks the invariants over tokens (never raw text);
//! [`config`] supplies declared, reasoned exceptions from `simlint.toml`;
//! [`driver`] walks the workspace deterministically, applies the
//! allowlist, and emits the `LINT_unsafe_audit.json` table.
//!
//! Run it as `cargo run -p simlint -- check`; the binary exits non-zero on
//! any finding, so CI can gate on it.

#![forbid(unsafe_code)]

pub mod config;
pub mod driver;
pub mod lexer;
pub mod rules;
