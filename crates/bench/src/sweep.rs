//! Declarative parallel sweep execution for the figure binaries.
//!
//! Every paper sweep is a grid of *independent* simulation points — one
//! simulator, one traffic source and one derived seed per point, no shared
//! state. This module turns that structure into an executable recipe:
//!
//! 1. a binary parses its [`SweepOptions`] (`--jobs N`, `--threads N`,
//!    `--json PATH`, `--quick`),
//! 2. builds a `Vec` of figure-specific point descriptors,
//! 3. hands them to [`SweepOptions::run_points`], which fans them across a
//!    [`simkit::pool::scope_map`] worker pool and returns the results in
//!    grid order,
//! 4. prints the table and, when `--json` is given, writes a
//!    `BENCH_<fig>.json` artifact via [`crate::json`].
//!
//! Because every point's seed derives only from its grid coordinates
//! ([`point_seed`]) and results come back index-ordered, the output is
//! **bit-identical for every `--jobs` value** — parallelism is purely a
//! wall-clock optimization, which `crates/bench/tests/determinism.rs`
//! locks in.

use simkit::pool;
use std::path::PathBuf;

const USAGE: &str = "usage: <bin> [--jobs N] [--threads N] [--json PATH] [--quick]
  --jobs N     worker threads for the sweep grid (default: the machine's
               available parallelism); results are bit-identical for
               every N
  --threads N  region-shard threads inside each simulation (default: 1);
               results are bit-identical for every N
  --json PATH  also write machine-readable results (BENCH_<fig>.json style)
  --quick      coarse fast sweep";

/// Parsed command-line options shared by the sweep binaries.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads used by [`run_points`](Self::run_points).
    pub jobs: usize,
    /// Region-shard threads inside each simulation
    /// (`Scenario::threads`); like `jobs`, a wall-clock-only knob.
    pub threads: usize,
    /// Where to write the machine-readable results, if requested.
    pub json: Option<PathBuf>,
    /// Whether to run the reduced-budget sweep.
    pub quick: bool,
}

impl SweepOptions {
    /// Parses `std::env::args`.
    ///
    /// Exits with status 2 on unknown or malformed arguments.
    #[must_use]
    pub fn parse() -> Self {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("error: {msg}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The testable core of [`parse`](Self::parse).
    fn try_parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut jobs = None;
        let mut threads = 1;
        let mut json = None;
        let mut quick = false;
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--jobs" => {
                    let v = args.next().ok_or("--jobs needs a value")?;
                    jobs = Some(parse_jobs(&v)?);
                }
                "--threads" => {
                    let v = args.next().ok_or("--threads needs a value")?;
                    threads = parse_jobs(&v)?;
                }
                "--json" => {
                    let v = args.next().ok_or("--json needs a path")?;
                    json = Some(PathBuf::from(v));
                }
                "--quick" => quick = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Self {
            jobs: jobs.unwrap_or_else(pool::default_jobs),
            threads,
            json,
            quick,
        })
    }

    /// Runs `f` over every point of the grid across [`jobs`](Self::jobs)
    /// workers, returning results in point order (see
    /// [`pool::scope_map`]).
    pub fn run_points<P, R>(&self, points: &[P], f: impl Fn(&P) -> R + Sync) -> Vec<R>
    where
        P: Sync,
        R: Send,
    {
        run_points(self.jobs, points, f)
    }

    /// Writes `results` to the `--json` path when one was given, logging
    /// the destination; I/O failure is fatal (the artifact *is* the
    /// product in CI).
    pub fn emit_json(&self, results: &crate::json::Json) {
        if let Some(path) = &self.json {
            results
                .write_file(path)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!("wrote {}", path.display());
        }
    }
}

fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("invalid worker count `{v}` (need an integer ≥ 1)")),
    }
}

/// Runs `f` over `points` across `jobs` workers, results in point order.
pub fn run_points<P, R>(jobs: usize, points: &[P], f: impl Fn(&P) -> R + Sync) -> Vec<R>
where
    P: Sync,
    R: Send,
{
    pool::scope_map(jobs, points.len(), |i| f(&points[i]))
}

/// Derives the RNG seed of one grid point from the experiment base seed and
/// the point's grid coordinates, via a splitmix64 chain. Every coordinate
/// tuple yields a decorrelated stream, points never share seeds across a
/// grid, and the derivation depends only on (base, coordinates) — not on
/// execution order — so parallel and serial sweeps see identical seeds.
/// Recorded in `EXPERIMENTS.md`.
#[must_use]
pub fn point_seed(base: u64, coords: &[u64]) -> u64 {
    let mut h = splitmix64(base ^ 0x9E37_79B9_7F4A_7C15);
    for &c in coords {
        h = splitmix64(h ^ c);
    }
    h
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> impl Iterator<Item = String> + use<> {
        args.iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn defaults_without_flags() {
        let opts = SweepOptions::try_parse(argv(&[])).unwrap();
        assert_eq!(opts.jobs, pool::default_jobs());
        assert_eq!(opts.threads, 1);
        assert!(opts.json.is_none());
        assert!(!opts.quick);
    }

    #[test]
    fn flags_parse() {
        let opts = SweepOptions::try_parse(argv(&[
            "--jobs",
            "4",
            "--threads",
            "2",
            "--json",
            "out.json",
            "--quick",
        ]))
        .unwrap();
        assert_eq!(opts.jobs, 4);
        assert_eq!(opts.threads, 2);
        assert_eq!(opts.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert!(opts.quick);
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            vec!["--jobs"],
            vec!["--jobs", "0"],
            vec!["--jobs", "many"],
            vec!["--threads"],
            vec!["--threads", "0"],
            vec!["--json"],
            vec!["--frobnicate"],
        ] {
            assert!(
                SweepOptions::try_parse(argv(&bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn point_seeds_are_stable_and_distinct() {
        // Stability: the derivation is part of the recorded methodology.
        assert_eq!(point_seed(0xB0C5, &[1, 2]), point_seed(0xB0C5, &[1, 2]));
        // Distinctness over a figure-sized grid.
        let mut seen = std::collections::BTreeSet::new();
        for curve in 0..7u64 {
            for load in 0..13u64 {
                assert!(seen.insert(point_seed(0xB0C5, &[curve, load])));
            }
        }
        // Coordinate order matters (a transposed grid is a different
        // experiment).
        assert_ne!(point_seed(7, &[1, 2]), point_seed(7, &[2, 1]));
    }

    #[test]
    fn run_points_preserves_order() {
        let points: Vec<u64> = (0..50).collect();
        let out = run_points(4, &points, |&p| p * 2);
        assert_eq!(out, points.iter().map(|p| p * 2).collect::<Vec<_>>());
    }
}
