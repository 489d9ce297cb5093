//! `benchmark compare <a> <b>`: two sets of saved results, read against
//! the bounds `BENCHMARK.json` declares.
//!
//! A set is a directory of result files named `<workload>.<tag>.json`,
//! each ending in the JSON line one run printed; the tag is the run's
//! seed. For every (workload, metric) pair the medians of the two sets
//! are compared; a change worse than the metric's bound, a failed run or
//! a missing end-to-end metric makes the command exit non-zero. Metrics
//! that the seed alone decides are also compared seed by seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::Value;
use crate::stats::{median, spread};

/// Metrics that depend on the inputs alone, so they repeat exactly for a
/// seed. Besides their medians, runs of the same tag are compared one by
/// one against [`SAME_SEED_BOUND`].
const SEED_DETERMINED: [&str; 2] = ["bits_per_value", "nmse"];

/// How much worse a seed-determined metric may get for any one seed: the
/// 2% quality bound. A bound in `BENCHMARK.json` applies to medians over
/// different seeds and has to sit above their spread, which for
/// grad-step's NMSE is 3–5%.
const SAME_SEED_BOUND: f64 = 0.02;

#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median a metric may worsen by; per-layer
    /// metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Reads the workload and metric declarations of a `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            v.get(key)
                .map(Value::as_array)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .map(str::to_string)
                            .ok_or(format!("a {key} metric lacks \"{k}\""))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: v
                .get("workloads")
                .map(Value::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// Result lines of one set with their tags, by workload.
type Runs = BTreeMap<String, Vec<(String, Value)>>;

fn read_runs(dir: &Path) -> Result<Runs, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    let mut runs = Runs::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let v = Value::parse(last).map_err(|e| format!("{}: {e}", f.display()))?;
        let stem = f.file_stem().and_then(|n| n.to_str()).unwrap_or_default();
        let (workload, tag) = stem.split_once('.').unwrap_or((stem, ""));
        runs.entry(workload.to_string())
            .or_default()
            .push((tag.to_string(), v));
    }
    Ok(runs)
}

fn value(run: &Value, metric: &str) -> Option<f64> {
    run.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn values(runs: &[(String, Value)], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|(_, r)| value(r, metric)).collect()
}

/// Median of `metric` per tag.
fn by_tag(runs: &[(String, Value)], metric: &str) -> BTreeMap<String, f64> {
    let mut tags: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (tag, r) in runs {
        if let Some(v) = value(r, metric) {
            tags.entry(tag.clone()).or_default().push(v);
        }
    }
    tags.into_iter()
        .filter_map(|(t, v)| Some((t, median(&v)?)))
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worse(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    if higher_is_better {
        -change
    } else {
        change
    }
}

fn failed_runs(runs: &[(String, Value)]) -> usize {
    runs.iter()
        .filter(|(_, r)| {
            r.get("correct") != Some(&Value::Bool(true))
                || r.get("failed").and_then(Value::as_f64) != Some(0.0)
        })
        .count()
}

/// Compares set `a` (the baseline) with set `b`. Returns the report and
/// whether every pair stayed within its bound.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (ra, rb) = (read_runs(a)?, read_runs(b)?);
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<12} {:<34} {:>12} {:>12} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "worse", "bound", "spread a", "spread b"
    );
    let pct = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:.1}%", v * 100.0));
    for w in &spec.workloads {
        let (Some(wa), Some(wb)) = (ra.get(w), rb.get(w)) else {
            let _ = writeln!(out, "{w:<12} no runs in both sets");
            ok = false;
            continue;
        };
        for (set, runs) in [("a", wa), ("b", wb)] {
            let bad = failed_runs(runs);
            if bad > 0 {
                let _ = writeln!(out, "{w:<12} {bad} run(s) in set {set} had failures");
                ok = false;
            }
        }
        let metrics = spec.end_to_end.iter().chain(&spec.per_layer);
        for m in metrics {
            let (va, vb) = (values(wa, &m.name), values(wb, &m.name));
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                if m.bound.is_some() {
                    let _ = writeln!(out, "{w:<12} {:<34} missing", m.name);
                    ok = false;
                }
                continue;
            };
            let mut verdict = |worse: f64, bound: Option<f64>| match bound {
                Some(bound) if worse > bound => {
                    ok = false;
                    "OUT OF BOUND"
                }
                Some(_) => "ok",
                None => "(no bound)",
            };
            let change = worse(ma, mb, m.higher_is_better);
            let _ = writeln!(
                out,
                "{w:<12} {:<34} {ma:>12.6} {mb:>12.6} {:>8} {:>7} {:>8} {:>8}  {}",
                format!("{} [{}]", m.name, m.unit),
                pct(Some(change)),
                pct(m.bound),
                pct(spread(&va)),
                pct(spread(&vb)),
                verdict(change, m.bound),
            );
            if SEED_DETERMINED.contains(&m.name.as_str()) {
                let (ta, tb) = (by_tag(wa, &m.name), by_tag(wb, &m.name));
                let worst = ta
                    .iter()
                    .filter_map(|(tag, &a)| Some(worse(a, *tb.get(tag)?, m.higher_is_better)))
                    .reduce(f64::max);
                if let Some(worst) = worst {
                    let _ = writeln!(
                        out,
                        "{w:<12} {:<34} {:>12} {:>12} {:>8} {:>7} {:>8} {:>8}  {}",
                        format!("{} per seed", m.name),
                        "",
                        "worst",
                        pct(Some(worst)),
                        pct(Some(SAME_SEED_BOUND)),
                        "",
                        "",
                        verdict(worst, Some(SAME_SEED_BOUND)),
                    );
                }
            }
        }
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        let m = |name: &str, higher: bool, bound| MetricSpec {
            name: name.into(),
            unit: "x".into(),
            higher_is_better: higher,
            bound,
        };
        Spec {
            workloads: vec!["load".into()],
            end_to_end: vec![
                m("lat", false, Some(0.1)),
                m("rate", true, Some(0.1)),
                m("nmse", false, Some(0.1)),
            ],
            per_layer: vec![m("layer", false, None)],
        }
    }

    /// Runs `(lat, rate, correct)` tagged 0, 1, …, all with NMSE 0.03.
    fn write_set(dir: &Path, runs: &[(f64, f64, bool)]) {
        let with_nmse: Vec<_> = runs.iter().map(|&(l, r, c)| (l, r, 0.03, c)).collect();
        write_nmse_set(dir, &with_nmse);
    }

    fn write_nmse_set(dir: &Path, runs: &[(f64, f64, f64, bool)]) {
        std::fs::create_dir_all(dir).expect("mkdir");
        // Logs beside the results are not results.
        std::fs::write(dir.join("stderr.log"), "load: 3 passes\n").expect("write");
        for (i, (lat, rate, nmse, correct)) in runs.iter().enumerate() {
            let line = format!(
                "{{\"correct\": {correct}, \"attempted\": 10, \"failed\": {}, \"metrics\": {{\
                 \"lat\": {{\"value\": {lat}, \"unit\": \"x\"}}, \
                 \"rate\": {{\"value\": {rate}, \"unit\": \"x\"}}, \
                 \"nmse\": {{\"value\": {nmse}, \"unit\": \"x\"}}}}}}",
                u8::from(!correct)
            );
            std::fs::write(
                dir.join(format!("load.{i}.json")),
                format!("noise\n{line}\n"),
            )
            .expect("write");
        }
    }

    #[test]
    fn flags_only_changes_past_the_bound_and_failed_runs() {
        let root = std::env::temp_dir().join(format!("llm265-compare-{}", std::process::id()));
        let (a, b, c, d) = (
            root.join("a"),
            root.join("b"),
            root.join("c"),
            root.join("d"),
        );
        write_set(
            &a,
            &[(10.0, 100.0, true), (10.2, 101.0, true), (9.8, 99.0, true)],
        );
        // 5% slower and 5% less throughput: inside a 10% bound.
        write_set(&b, &[(10.5, 95.0, true), (10.5, 95.0, true)]);
        // Throughput 20% down: out of bound.
        write_set(&c, &[(10.0, 80.0, true)]);
        // Within bound but one run failed.
        write_set(&d, &[(10.0, 100.0, false)]);
        let spec = spec();
        let (report, ok) = compare(&spec, &a, &b).expect("compare");
        assert!(ok, "{report}");
        assert!(report.contains("5.0%"), "{report}");
        assert!(!compare(&spec, &a, &c).expect("compare").1);
        assert!(!compare(&spec, &a, &d).expect("compare").1);
        std::fs::remove_dir_all(&root).expect("cleanup");
    }

    #[test]
    fn checks_quality_seed_by_seed() {
        let root = std::env::temp_dir().join(format!("llm265-seeds-{}", std::process::id()));
        let (a, b, c) = (root.join("a"), root.join("b"), root.join("c"));
        let run = |nmse| (10.0, 100.0, nmse, true);
        write_nmse_set(&a, &[run(0.020), run(0.030), run(0.040)]);
        // Seed 0 worse by 1%: fine.
        write_nmse_set(&b, &[run(0.0202), run(0.030), run(0.040)]);
        // Seed 0 worse by 3%: the median has not moved, but the seed has.
        write_nmse_set(&c, &[run(0.0206), run(0.030), run(0.040)]);
        let spec = spec();
        let (report, ok) = compare(&spec, &a, &b).expect("compare");
        assert!(ok, "{report}");
        assert!(report.contains("nmse per seed"), "{report}");
        let (report, ok) = compare(&spec, &a, &c).expect("compare");
        assert!(!ok, "{report}");
        assert!(report.contains("3.0%"), "{report}");
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}
