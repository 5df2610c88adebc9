//! Comparison of two benchmark artifacts — the core of the `bench-diff`
//! binary, factored here so tests exercise exactly the code CI gates on.
//! The binary dispatches on the documents' `figure` field:
//!
//! * `"perf"` (`BENCH_perf.json`): for every engine present in both
//!   files, the **saturated point** (the highest load the engine was
//!   measured at in both) must not lose more than a threshold fraction of
//!   its activity-mode `cycles_per_sec` relative to the baseline.
//! * `"scaling"` (`BENCH_scaling.json`): for every mesh size present in
//!   both files, the **serial** (`threads = 1`) `cycles_per_sec` must not
//!   regress by more than a per-size threshold — small meshes finish a
//!   quick window in little wall time and measure noisier, so their gate
//!   is proportionally looser (see [`ScalingComparison::threshold`]). Each
//!   mesh's 2-thread sharding speedup is reported beside the gate, not
//!   gated.
//! * `"fig4"` (`BENCH_fig4.json`): the **simulated** throughput of every
//!   `(curve, load)` cell present in both files must match the baseline
//!   to within [`FIG4_EPSILON`] — unlike wall clock, the trajectories are
//!   deterministic, so any drift is a physics change, not noise.
//!
//! Wall clock is noisy across machines, so the CI threshold is
//! deliberately generous; the default matches the 5 % gate the acceptance
//! criteria name for like-for-like hardware. The fig4 gate ignores the
//! threshold entirely: determinism admits only float-formatting slack.

use crate::json::Json;

/// Default allowed fractional `cycles_per_sec` regression (5 %).
pub const DEFAULT_THRESHOLD: f64 = 0.05;

/// One perf point extracted from a `BENCH_perf.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfPoint {
    /// Engine label (`"patronoc"`, `"packet-compact"`).
    pub engine: String,
    /// Injected load of the point.
    pub load: f64,
    /// Activity-driven stepping speed in simulated cycles per wall second.
    pub active_cps: f64,
}

/// One saturated-point comparison between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Engine label.
    pub engine: String,
    /// The saturated load both files measured.
    pub load: f64,
    /// Baseline activity-mode `cycles_per_sec`.
    pub baseline_cps: f64,
    /// Current activity-mode `cycles_per_sec`.
    pub current_cps: f64,
}

impl Comparison {
    /// Fractional change: positive = faster than baseline.
    #[must_use]
    pub fn change(&self) -> f64 {
        self.current_cps / self.baseline_cps - 1.0
    }

    /// Whether this point regressed by more than `threshold`.
    #[must_use]
    pub fn regressed(&self, threshold: f64) -> bool {
        self.change() < -threshold
    }
}

fn get<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    match obj {
        Json::Obj(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key `{key}`")),
        other => Err(format!("expected an object for `{key}`, got {other:?}")),
    }
}

fn get_f64(obj: &Json, key: &str) -> Result<f64, String> {
    match get(obj, key)? {
        Json::F64(v) => Ok(*v),
        // The writer prints whole floats as integers; the parser reads
        // them back as U64.
        #[allow(clippy::cast_precision_loss)]
        Json::U64(n) => Ok(*n as f64),
        other => Err(format!("key `{key}` is not a number: {other:?}")),
    }
}

fn get_str(obj: &Json, key: &str) -> Result<String, String> {
    match get(obj, key)? {
        Json::Str(s) => Ok(s.clone()),
        other => Err(format!("key `{key}` is not a string: {other:?}")),
    }
}

/// The `figure` discriminant of a benchmark artifact, used by the
/// `bench-diff` binary to pick a comparison.
///
/// # Errors
///
/// When the document is not an object or has no string `figure` field.
pub fn figure(doc: &Json) -> Result<String, String> {
    get_str(doc, "figure")
}

/// Extracts the perf points of a parsed `BENCH_perf.json` document.
///
/// # Errors
///
/// Describes the first missing or mistyped field, naming the key.
pub fn parse_points(doc: &Json) -> Result<Vec<PerfPoint>, String> {
    let figure = get_str(doc, "figure")?;
    if figure != "perf" {
        return Err(format!(
            "not a BENCH_perf.json document (figure `{figure}`)"
        ));
    }
    let Json::Arr(points) = get(doc, "points")? else {
        return Err("`points` is not an array".into());
    };
    points
        .iter()
        .map(|p| {
            Ok(PerfPoint {
                engine: get_str(p, "engine")?,
                load: get_f64(p, "load")?,
                active_cps: get_f64(get(p, "active")?, "cycles_per_sec")?,
            })
        })
        .collect()
}

/// Pairs up the saturated point of every engine present in **both** files
/// (the highest load measured in both), in the baseline's engine order.
#[must_use]
pub fn compare_saturated(baseline: &[PerfPoint], current: &[PerfPoint]) -> Vec<Comparison> {
    let mut engines: Vec<&str> = Vec::new();
    for p in baseline {
        if !engines.contains(&p.engine.as_str()) {
            engines.push(&p.engine);
        }
    }
    engines
        .iter()
        .filter_map(|&engine| {
            let at = |points: &[PerfPoint], load: f64| {
                points
                    .iter()
                    .find(|p| p.engine == engine && p.load == load)
                    .map(|p| p.active_cps)
            };
            let saturated = baseline
                .iter()
                .filter(|p| p.engine == engine)
                .map(|p| p.load)
                .filter(|&load| at(current, load).is_some())
                .fold(f64::NEG_INFINITY, f64::max);
            if !saturated.is_finite() {
                return None;
            }
            Some(Comparison {
                engine: engine.to_string(),
                load: saturated,
                baseline_cps: at(baseline, saturated)?,
                current_cps: at(current, saturated)?,
            })
        })
        .collect()
}

/// One mesh row extracted from a `BENCH_scaling.json` document: the
/// serial (`threads = 1`) simulator speed of one mesh size, and its
/// 2-thread sharding speedup.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Mesh label (`"8x8"`).
    pub mesh: String,
    /// Mesh side length parsed from the label.
    pub dim: u64,
    /// Serial `cycles_per_sec` of the mesh's speedup curve.
    pub serial_cps: f64,
    /// The curve's `threads = 2` speedup over the serial run, if the sweep
    /// ran 2 threads.
    pub speedup_2t: Option<f64>,
}

/// One per-mesh comparison between baseline and current scaling sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingComparison {
    /// Mesh label.
    pub mesh: String,
    /// Mesh side length (drives the per-size threshold).
    pub dim: u64,
    /// Baseline serial `cycles_per_sec`.
    pub baseline_cps: f64,
    /// Current serial `cycles_per_sec`.
    pub current_cps: f64,
    /// Baseline 2-thread speedup (reported, not gated).
    pub baseline_speedup_2t: Option<f64>,
    /// Current 2-thread speedup (reported, not gated).
    pub current_speedup_2t: Option<f64>,
}

impl ScalingComparison {
    /// Fractional change: positive = faster than baseline.
    #[must_use]
    pub fn change(&self) -> f64 {
        self.current_cps / self.baseline_cps - 1.0
    }

    /// The per-size threshold applied to this mesh: `base` scaled by the
    /// mesh's noise factor. A small mesh burns through a quick window in
    /// a few milliseconds of wall time, so its speed measurement carries
    /// proportionally more scheduler jitter; a 32×32 run is long enough
    /// for the base threshold to apply unscaled.
    #[must_use]
    pub fn threshold(&self, base: f64) -> f64 {
        let noise = match self.dim {
            0..=8 => 2.0,
            9..=16 => 1.5,
            _ => 1.0,
        };
        base * noise
    }

    /// Whether this mesh regressed by more than its per-size threshold.
    #[must_use]
    pub fn regressed(&self, base: f64) -> bool {
        self.change() < -self.threshold(base)
    }
}

/// Extracts the per-mesh serial points of a parsed `BENCH_scaling.json`
/// document.
///
/// # Errors
///
/// Describes the first missing or mistyped field, naming the key; a
/// mesh without a `threads = 1` curve entry is an error (the serial run
/// anchors every speedup curve the sweep emits).
pub fn parse_scaling_points(doc: &Json) -> Result<Vec<ScalingPoint>, String> {
    let figure = get_str(doc, "figure")?;
    if figure != "scaling" {
        return Err(format!(
            "not a BENCH_scaling.json document (figure `{figure}`)"
        ));
    }
    let Json::Arr(meshes) = get(doc, "meshes")? else {
        return Err("`meshes` is not an array".into());
    };
    meshes
        .iter()
        .map(|m| {
            let mesh = get_str(m, "mesh")?;
            let dim = mesh
                .split('x')
                .next()
                .and_then(|d| d.parse::<u64>().ok())
                .ok_or_else(|| format!("mesh label `{mesh}` is not `NxN`"))?;
            let Json::Arr(curve) = get(m, "speedup_curve")? else {
                return Err(format!("mesh `{mesh}`: `speedup_curve` is not an array"));
            };
            let at = |threads: u64| {
                curve
                    .iter()
                    .find(|p| matches!(get(p, "threads"), Ok(Json::U64(t)) if *t == threads))
            };
            let serial =
                at(1).ok_or_else(|| format!("mesh `{mesh}` has no serial (threads = 1) point"))?;
            Ok(ScalingPoint {
                dim,
                serial_cps: get_f64(serial, "cycles_per_sec")?,
                speedup_2t: at(2).map(|p| get_f64(p, "speedup")).transpose()?,
                mesh,
            })
        })
        .collect()
}

/// Pairs up every mesh size present in **both** scaling sweeps, in the
/// baseline's mesh order.
#[must_use]
pub fn compare_scaling(
    baseline: &[ScalingPoint],
    current: &[ScalingPoint],
) -> Vec<ScalingComparison> {
    baseline
        .iter()
        .filter_map(|b| {
            let c = current.iter().find(|c| c.mesh == b.mesh)?;
            Some(ScalingComparison {
                mesh: b.mesh.clone(),
                dim: b.dim,
                baseline_cps: b.serial_cps,
                current_cps: c.serial_cps,
                baseline_speedup_2t: b.speedup_2t,
                current_speedup_2t: c.speedup_2t,
            })
        })
        .collect()
}

/// Allowed relative divergence of a fig4 throughput cell. The simulated
/// results are bit-deterministic and the JSON writer prints floats with
/// shortest-round-trip precision, so this only has to absorb formatting
/// slack — it is headroom, not a tolerance for physics drift.
pub const FIG4_EPSILON: f64 = 1e-9;

/// One throughput cell extracted from a `BENCH_fig4.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Point {
    /// Curve label (`"burst<1000"`, `"noxim(1,4)"`).
    pub curve: String,
    /// Injected load of the cell.
    pub load: f64,
    /// Simulated throughput in GiB/s.
    pub gib_s: f64,
}

/// One fig4 cell comparison between baseline and current.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Comparison {
    /// Curve label.
    pub curve: String,
    /// Injected load.
    pub load: f64,
    /// Baseline throughput.
    pub baseline_gib_s: f64,
    /// Current throughput.
    pub current_gib_s: f64,
}

impl Fig4Comparison {
    /// Whether the cell drifted beyond [`FIG4_EPSILON`], relative to the
    /// larger magnitude (absolute near zero, where relative error is
    /// meaningless).
    #[must_use]
    pub fn diverged(&self) -> bool {
        let scale = self.baseline_gib_s.abs().max(self.current_gib_s.abs());
        (self.current_gib_s - self.baseline_gib_s).abs() > FIG4_EPSILON * scale.max(1.0)
    }
}

/// Extracts every `(curve, load, gib_s)` cell of a parsed
/// `BENCH_fig4.json` document, in document order.
///
/// # Errors
///
/// Describes the first missing or mistyped field, naming the key.
pub fn parse_fig4_points(doc: &Json) -> Result<Vec<Fig4Point>, String> {
    let figure = get_str(doc, "figure")?;
    if figure != "fig4" {
        return Err(format!(
            "not a BENCH_fig4.json document (figure `{figure}`)"
        ));
    }
    let Json::Arr(curves) = get(doc, "curves")? else {
        return Err("`curves` is not an array".into());
    };
    let mut cells = Vec::new();
    for c in curves {
        let curve = get_str(c, "label")?;
        let Json::Arr(points) = get(c, "points")? else {
            return Err(format!("curve `{curve}`: `points` is not an array"));
        };
        for p in points {
            cells.push(Fig4Point {
                curve: curve.clone(),
                load: get_f64(p, "load")?,
                gib_s: get_f64(p, "gib_s")?,
            });
        }
    }
    Ok(cells)
}

/// Pairs up every `(curve, load)` cell present in **both** fig4 sweeps,
/// in the baseline's order. A quick current sweep against a full baseline
/// simply compares the shared grid.
#[must_use]
pub fn compare_fig4(baseline: &[Fig4Point], current: &[Fig4Point]) -> Vec<Fig4Comparison> {
    baseline
        .iter()
        .filter_map(|b| {
            let c = current
                .iter()
                .find(|c| c.curve == b.curve && c.load == b.load)?;
            Some(Fig4Comparison {
                curve: b.curve.clone(),
                load: b.load,
                baseline_gib_s: b.gib_s,
                current_gib_s: c.gib_s,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(engine: &str, load: f64, cps: f64) -> Json {
        Json::obj(vec![
            ("engine", Json::str(engine)),
            ("load", Json::F64(load)),
            (
                "active",
                Json::obj(vec![("cycles_per_sec", Json::F64(cps))]),
            ),
            (
                "full_sweep",
                Json::obj(vec![("cycles_per_sec", Json::F64(cps / 2.0))]),
            ),
        ])
    }

    fn doc(points: Vec<Json>) -> Json {
        Json::obj(vec![
            ("figure", Json::str("perf")),
            ("points", Json::Arr(points)),
        ])
    }

    #[test]
    fn parses_the_perf_schema() {
        let d = doc(vec![
            point("patronoc", 0.001, 5e6),
            point("patronoc", 1.0, 1e6),
        ]);
        let pts = parse_points(&d).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[1].engine, "patronoc");
        assert_eq!(pts[1].load, 1.0);
        assert_eq!(pts[1].active_cps, 1e6);
    }

    #[test]
    fn rejects_other_figures() {
        let d = Json::obj(vec![
            ("figure", Json::str("fig4")),
            ("points", Json::Arr(vec![])),
        ]);
        assert!(parse_points(&d).unwrap_err().contains("fig4"));
    }

    #[test]
    fn compares_the_saturated_point_per_engine() {
        let base = parse_points(&doc(vec![
            point("patronoc", 0.001, 5e6),
            point("patronoc", 1.0, 1e6),
            point("packet-compact", 1.0, 2e6),
        ]))
        .unwrap();
        let cur = parse_points(&doc(vec![
            point("patronoc", 0.001, 9e6),
            point("patronoc", 1.0, 0.9e6),
            point("packet-compact", 1.0, 2.2e6),
        ]))
        .unwrap();
        let cmp = compare_saturated(&base, &cur);
        assert_eq!(cmp.len(), 2);
        // The idle point's 9e6 must not leak in: only load 1.0 compares.
        assert_eq!(cmp[0].engine, "patronoc");
        assert_eq!(cmp[0].load, 1.0);
        assert!((cmp[0].change() + 0.1).abs() < 1e-12, "{}", cmp[0].change());
        assert!(cmp[0].regressed(0.05));
        assert!(!cmp[0].regressed(0.15));
        assert!(!cmp[1].regressed(0.05), "packet sped up");
    }

    #[test]
    fn engines_missing_from_either_side_are_skipped() {
        let base = parse_points(&doc(vec![point("patronoc", 1.0, 1e6)])).unwrap();
        let cur = parse_points(&doc(vec![point("packet-compact", 1.0, 1e6)])).unwrap();
        assert!(compare_saturated(&base, &cur).is_empty());
    }

    fn mesh(label: &str, serial_cps: f64) -> Json {
        let curve = [(1u64, serial_cps), (2, serial_cps * 1.7)]
            .into_iter()
            .map(|(threads, cps)| {
                Json::obj(vec![
                    ("threads", Json::U64(threads)),
                    ("cycles_per_sec", Json::F64(cps)),
                    ("speedup", Json::F64(cps / serial_cps)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("mesh", Json::str(label)),
            ("speedup_curve", Json::Arr(curve)),
        ])
    }

    fn scaling_doc(meshes: Vec<Json>) -> Json {
        Json::obj(vec![
            ("figure", Json::str("scaling")),
            ("meshes", Json::Arr(meshes)),
        ])
    }

    #[test]
    fn parses_the_scaling_schema() {
        let d = scaling_doc(vec![mesh("8x8", 4e6), mesh("32x32", 1e5)]);
        assert_eq!(figure(&d).unwrap(), "scaling");
        let pts = parse_scaling_points(&d).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].mesh, "8x8");
        assert_eq!(pts[0].dim, 8);
        assert_eq!(pts[0].serial_cps, 4e6);
        assert_eq!(pts[1].dim, 32);
        assert_eq!(pts[1].speedup_2t, Some(1.7));
    }

    #[test]
    fn scaling_parse_rejects_wrong_figures_and_missing_serial_points() {
        assert!(
            parse_scaling_points(&doc(vec![point("patronoc", 1.0, 1e6)]))
                .unwrap_err()
                .contains("perf")
        );
        // A curve without its threads = 1 anchor is malformed; one
        // without a 2-thread point merely has no speedup to report.
        let serial_only = Json::obj(vec![
            ("mesh", Json::str("8x8")),
            (
                "speedup_curve",
                Json::Arr(vec![Json::obj(vec![
                    ("threads", Json::U64(1)),
                    ("cycles_per_sec", Json::F64(1e6)),
                ])]),
            ),
        ]);
        let pts = parse_scaling_points(&scaling_doc(vec![serial_only])).unwrap();
        assert_eq!(pts[0].speedup_2t, None);
        let no_serial = Json::obj(vec![
            ("mesh", Json::str("8x8")),
            (
                "speedup_curve",
                Json::Arr(vec![Json::obj(vec![
                    ("threads", Json::U64(2)),
                    ("cycles_per_sec", Json::F64(1e6)),
                ])]),
            ),
        ]);
        assert!(parse_scaling_points(&scaling_doc(vec![no_serial]))
            .unwrap_err()
            .contains("no serial"));
    }

    #[test]
    fn scaling_gate_applies_per_size_thresholds() {
        // Every mesh 6% slower: within the 8×8 and 16×16 gates at a 5%
        // base (their noise factors loosen it to 10% / 7.5%) but over the
        // 32×32 gate, which applies the base threshold unscaled.
        let base = parse_scaling_points(&scaling_doc(vec![
            mesh("8x8", 4e6),
            mesh("16x16", 1e6),
            mesh("32x32", 2e5),
        ]))
        .unwrap();
        let cur = parse_scaling_points(&scaling_doc(vec![
            mesh("8x8", 4e6 * 0.94),
            mesh("16x16", 1e6 * 0.94),
            mesh("32x32", 2e5 * 0.94),
        ]))
        .unwrap();
        let cmp = compare_scaling(&base, &cur);
        assert_eq!(cmp.len(), 3);
        assert!((cmp[0].threshold(0.05) - 0.10).abs() < 1e-12);
        assert!((cmp[1].threshold(0.05) - 0.075).abs() < 1e-12);
        assert!((cmp[2].threshold(0.05) - 0.05).abs() < 1e-12);
        assert!(!cmp[0].regressed(0.05), "8x8 inside its loosened gate");
        assert!(!cmp[1].regressed(0.05), "16x16 inside its loosened gate");
        assert!(cmp[2].regressed(0.05), "32x32 over the base gate");
        // The 2-thread speedups ride along for the report.
        assert_eq!(cmp[2].baseline_speedup_2t, Some(1.7));
        assert_eq!(cmp[2].current_speedup_2t, Some(1.7));
        // Meshes missing from the current sweep are skipped, not fatal.
        let cmp = compare_scaling(&base, &cur[..1]);
        assert_eq!(cmp.len(), 1);
        assert_eq!(cmp[0].mesh, "8x8");
    }

    fn fig4_doc(curves: Vec<(&str, Vec<(f64, f64)>)>) -> Json {
        Json::obj(vec![
            ("figure", Json::str("fig4")),
            (
                "curves",
                Json::Arr(
                    curves
                        .into_iter()
                        .map(|(label, points)| {
                            Json::obj(vec![
                                ("label", Json::str(label)),
                                (
                                    "points",
                                    Json::Arr(
                                        points
                                            .into_iter()
                                            .map(|(load, gib_s)| {
                                                Json::obj(vec![
                                                    ("load", Json::F64(load)),
                                                    ("gib_s", Json::F64(gib_s)),
                                                    ("cycles_per_sec", Json::F64(1e6)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn parses_the_fig4_schema() {
        let d = fig4_doc(vec![
            ("burst<1000", vec![(0.001, 0.04), (1.0, 19.0)]),
            ("noxim(1,4)", vec![(0.001, 0.02), (1.0, 2.25)]),
        ]);
        assert_eq!(figure(&d).unwrap(), "fig4");
        let pts = parse_fig4_points(&d).unwrap();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[1].curve, "burst<1000");
        assert_eq!(pts[1].load, 1.0);
        assert_eq!(pts[1].gib_s, 19.0);
        assert!(parse_fig4_points(&doc(vec![]))
            .unwrap_err()
            .contains("perf"));
    }

    #[test]
    fn fig4_gate_flags_any_trajectory_drift() {
        let base = parse_fig4_points(&fig4_doc(vec![(
            "burst<1000",
            vec![(0.001, 0.04), (1.0, 19.0)],
        )]))
        .unwrap();
        // Bit-identical current: nothing diverges (the expected CI case).
        let cmp = compare_fig4(&base, &base);
        assert_eq!(cmp.len(), 2);
        assert!(cmp.iter().all(|c| !c.diverged()));
        // A 0.1% drift in one cell — far below any wall-clock gate — is
        // already a physics change and must trip.
        let drifted = parse_fig4_points(&fig4_doc(vec![(
            "burst<1000",
            vec![(0.001, 0.04), (1.0, 19.019)],
        )]))
        .unwrap();
        let cmp = compare_fig4(&base, &drifted);
        assert!(!cmp[0].diverged());
        assert!(cmp[1].diverged());
        // Zero-throughput cells compare absolutely, not relatively.
        let zero = Fig4Comparison {
            curve: "burst<1000".into(),
            load: 0.001,
            baseline_gib_s: 0.0,
            current_gib_s: 0.0,
        };
        assert!(!zero.diverged());
    }

    #[test]
    fn fig4_cells_missing_from_either_side_are_skipped() {
        // Quick sweep (5 loads) against a full baseline (13 loads): only
        // the shared grid compares; an unknown curve vanishes too.
        let base = parse_fig4_points(&fig4_doc(vec![
            ("burst<1000", vec![(0.001, 0.04), (0.5, 10.0), (1.0, 19.0)]),
            ("burst<100", vec![(1.0, 12.0)]),
        ]))
        .unwrap();
        let cur = parse_fig4_points(&fig4_doc(vec![(
            "burst<1000",
            vec![(0.001, 0.04), (1.0, 19.0)],
        )]))
        .unwrap();
        let cmp = compare_fig4(&base, &cur);
        assert_eq!(cmp.len(), 2);
        assert!(cmp.iter().all(|c| c.curve == "burst<1000"));
    }

    #[test]
    fn saturated_means_highest_load_present_in_both() {
        // Current lacks the 1.0 point (a shortened sweep): the comparison
        // falls back to the highest shared load instead of vanishing.
        let base = parse_points(&doc(vec![
            point("patronoc", 0.3, 3e6),
            point("patronoc", 1.0, 1e6),
        ]))
        .unwrap();
        let cur = parse_points(&doc(vec![point("patronoc", 0.3, 3e6)])).unwrap();
        let cmp = compare_saturated(&base, &cur);
        assert_eq!(cmp.len(), 1);
        assert_eq!(cmp[0].load, 0.3);
        assert!(!cmp[0].regressed(DEFAULT_THRESHOLD));
    }
}
