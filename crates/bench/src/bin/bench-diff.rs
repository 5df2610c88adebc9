//! Compares two benchmark artifacts and exits non-zero when simulator
//! speed regressed past a threshold — the CI gate that keeps simulator
//! performance from silently regressing. Dispatches on the documents'
//! `figure` field:
//!
//! * `BENCH_perf.json` (`figure = "perf"`): the saturated point of any
//!   engine must not lose more than the threshold fraction of its
//!   activity-mode `cycles_per_sec`.
//! * `BENCH_scaling.json` (`figure = "scaling"`): the serial run of any
//!   mesh size must not lose more than its **per-size** threshold (small
//!   meshes gate looser — their quick windows measure noisier). Each
//!   mesh's 2-thread sharding speedup is printed beside the baseline's,
//!   as a report only.
//! * `BENCH_fig4.json` (`figure = "fig4"`): every `(curve, load)`
//!   throughput cell must match the baseline to within a fixed epsilon —
//!   simulated results are deterministic, so the threshold flag does not
//!   apply and any drift fails the gate.
//!
//! ```text
//! bench-diff BASELINE.json CURRENT.json [--threshold F]
//! ```
//!
//! The threshold is a fraction (default 0.05 = 5 %); `BENCH_DIFF_THRESHOLD`
//! overrides the default from the environment, the flag overrides both.
//! CI compares against a baseline committed from a different machine, so
//! its workflow passes a deliberately loose threshold — the tight default
//! is for like-for-like hardware.

use bench::diff::{
    compare_fig4, compare_saturated, compare_scaling, figure, parse_fig4_points, parse_points,
    parse_scaling_points, Comparison, Fig4Comparison, ScalingComparison, DEFAULT_THRESHOLD,
};
use bench::json::Json;
use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: bench-diff BASELINE.json CURRENT.json [--threshold F]
  --threshold F  allowed fractional cycles_per_sec regression at the
                 saturated point (default: $BENCH_DIFF_THRESHOLD, else 0.05);
                 ignored for fig4 artifacts, whose deterministic
                 trajectories gate on a fixed epsilon";

struct Options {
    baseline: PathBuf,
    current: PathBuf,
    threshold: f64,
}

fn try_parse(
    args: impl Iterator<Item = String>,
    env_threshold: Option<&str>,
) -> Result<Options, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut threshold: Option<f64> = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = args.next().ok_or("--threshold needs a value")?;
                threshold = Some(parse_threshold(&v)?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown argument `{flag}`")),
            path => paths.push(PathBuf::from(path)),
        }
    }
    let threshold = match (threshold, env_threshold) {
        (Some(t), _) => t,
        (None, Some(v)) => parse_threshold(v).map_err(|e| format!("BENCH_DIFF_THRESHOLD: {e}"))?,
        (None, None) => DEFAULT_THRESHOLD,
    };
    match <[PathBuf; 2]>::try_from(paths) {
        Ok([baseline, current]) => Ok(Options {
            baseline,
            current,
            threshold,
        }),
        Err(_) => Err("need exactly two files: BASELINE.json CURRENT.json".into()),
    }
}

fn parse_threshold(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(t) if t >= 0.0 && t.is_finite() => Ok(t),
        _ => Err(format!("invalid threshold `{v}` (need a fraction ≥ 0)")),
    }
}

fn load_doc(path: &PathBuf) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(&format!("reading {}: {e}", path.display())));
    Json::parse(&text).unwrap_or_else(|e| fail(&format!("parsing {}: {e}", path.display())))
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(2);
}

fn diff_perf(opts: &Options, baseline: &Json, current: &Json) -> usize {
    let baseline = parse_points(baseline)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", opts.baseline.display())));
    let current =
        parse_points(current).unwrap_or_else(|e| fail(&format!("{}: {e}", opts.current.display())));
    let comparisons = compare_saturated(&baseline, &current);
    if comparisons.is_empty() {
        fail("no engine is measured at a common load in both files");
    }

    println!(
        "saturated-point simulator speed vs {} (threshold {:.1}%)",
        opts.baseline.display(),
        100.0 * opts.threshold
    );
    println!(
        "{:>16} {:>8} {:>16} {:>16} {:>9}",
        "engine", "load", "baseline cyc/s", "current cyc/s", "change"
    );
    let mut regressions: Vec<&Comparison> = Vec::new();
    for c in &comparisons {
        let flag = if c.regressed(opts.threshold) {
            regressions.push(c);
            "  REGRESSED"
        } else {
            ""
        };
        println!(
            "{:>16} {:>8.3} {:>16.0} {:>16.0} {:>+8.1}%{flag}",
            c.engine,
            c.load,
            c.baseline_cps,
            c.current_cps,
            100.0 * c.change()
        );
    }
    regressions.len()
}

fn diff_scaling(opts: &Options, baseline: &Json, current: &Json) -> usize {
    let baseline = parse_scaling_points(baseline)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", opts.baseline.display())));
    let current = parse_scaling_points(current)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", opts.current.display())));
    let comparisons = compare_scaling(&baseline, &current);
    if comparisons.is_empty() {
        fail("no mesh size is measured in both files");
    }

    println!(
        "serial-run simulator speed per mesh vs {} (base threshold {:.1}%, scaled per size; \
         2-thread speedups reported, not gated)",
        opts.baseline.display(),
        100.0 * opts.threshold
    );
    println!(
        "{:>8} {:>16} {:>16} {:>9} {:>11} {:>13} {:>13}",
        "mesh",
        "baseline cyc/s",
        "current cyc/s",
        "change",
        "threshold",
        "baseline 2thr",
        "current 2thr"
    );
    let speedup = |s: Option<f64>| s.map_or_else(|| "-".to_string(), |s| format!("{s:.2}x"));
    let mut regressions: Vec<&ScalingComparison> = Vec::new();
    for c in &comparisons {
        let flag = if c.regressed(opts.threshold) {
            regressions.push(c);
            "  REGRESSED"
        } else {
            ""
        };
        println!(
            "{:>8} {:>16.0} {:>16.0} {:>+8.1}% {:>10.1}% {:>13} {:>13}{flag}",
            c.mesh,
            c.baseline_cps,
            c.current_cps,
            100.0 * c.change(),
            100.0 * c.threshold(opts.threshold),
            speedup(c.baseline_speedup_2t),
            speedup(c.current_speedup_2t)
        );
    }
    regressions.len()
}

fn diff_fig4(opts: &Options, baseline: &Json, current: &Json) -> usize {
    let baseline_pts = parse_fig4_points(baseline)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", opts.baseline.display())));
    let current_pts = parse_fig4_points(current)
        .unwrap_or_else(|e| fail(&format!("{}: {e}", opts.current.display())));
    let comparisons = compare_fig4(&baseline_pts, &current_pts);
    if comparisons.is_empty() {
        fail("no (curve, load) cell is measured in both files");
    }

    println!(
        "fig4 throughput trajectories vs {} (deterministic — epsilon gate)",
        opts.baseline.display()
    );
    println!(
        "{:>14} {:>8} {:>14} {:>14}",
        "curve", "load", "baseline GiB/s", "current GiB/s"
    );
    let mut divergences: Vec<&Fig4Comparison> = Vec::new();
    for c in &comparisons {
        let flag = if c.diverged() {
            divergences.push(c);
            "  DIVERGED"
        } else {
            ""
        };
        println!(
            "{:>14} {:>8.4} {:>14.3} {:>14.3}{flag}",
            c.curve, c.load, c.baseline_gib_s, c.current_gib_s
        );
    }
    if !divergences.is_empty() {
        eprintln!(
            "error: {} fig4 cell(s) drifted from the committed trajectory — \
             simulated results are deterministic, so this is a physics change, \
             not measurement noise",
            divergences.len()
        );
        exit(1);
    }
    0
}

fn main() {
    let env_threshold = std::env::var("BENCH_DIFF_THRESHOLD").ok();
    let opts = match try_parse(std::env::args().skip(1), env_threshold.as_deref()) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            exit(2);
        }
    };
    let baseline = load_doc(&opts.baseline);
    let current = load_doc(&opts.current);
    let fig =
        figure(&baseline).unwrap_or_else(|e| fail(&format!("{}: {e}", opts.baseline.display())));
    let regressions = match fig.as_str() {
        "perf" => diff_perf(&opts, &baseline, &current),
        "scaling" => diff_scaling(&opts, &baseline, &current),
        "fig4" => diff_fig4(&opts, &baseline, &current),
        other => fail(&format!(
            "unsupported figure `{other}` (bench-diff gates `perf`, `scaling` and `fig4` artifacts)"
        )),
    };
    if regressions > 0 {
        eprintln!(
            "error: {regressions} point(s) regressed by more than the threshold (base {:.1}%)",
            100.0 * opts.threshold
        );
        exit(1);
    }
}
