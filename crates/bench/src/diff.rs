//! `repro diff`: compare two `BENCH_*.json` envelopes.
//!
//! The committed `BENCH_*.json` files are the perf trajectory's anchor
//! points; this module is the gate that makes the trajectory
//! actionable. It parses two envelopes (see [`crate::harness`] for the
//! writer), matches variants by `(section, label)` and metrics by key,
//! and turns each numeric delta into a verdict using the envelope's own
//! `directions` map — no per-experiment knowledge needed. A metric
//! regresses when it moves in its worse direction by more than
//! `tolerance` (relative, so `0.5` allows +50 % on a lower-is-better
//! metric). Info-direction metrics and strings/bools are reported but
//! never gate. A variant or metric present in the old file but missing
//! from the new one is *schema drift* and fails the diff; new metrics
//! appearing are fine (the trajectory grows).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::benchjson::Json;
use crate::harness::SCHEMA_VERSION;

/// Outcome of comparing two envelopes.
#[derive(Clone, Debug, Default)]
pub struct DiffOutcome {
    /// Human report lines, one per compared metric.
    pub lines: Vec<String>,
    /// Metrics that moved past tolerance in their worse direction.
    pub regressions: Vec<String>,
    /// Structural mismatches: schema version / experiment / fast-flag
    /// mismatch, or variants/metrics that disappeared.
    pub drift: Vec<String>,
    /// Notes that never fail the gate: the two runs came from hosts of
    /// a different shape, so their timings compare loosely.
    pub warnings: Vec<String>,
}

impl DiffOutcome {
    /// True when the gate should fail (nonzero exit).
    pub fn failed(&self) -> bool {
        !self.regressions.is_empty() || !self.drift.is_empty()
    }

    /// Renders the full human report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in self.warnings.iter().chain(&self.lines) {
            let _ = writeln!(out, "{line}");
        }
        if !self.drift.is_empty() {
            let _ = writeln!(out, "\nschema drift:");
            for d in &self.drift {
                let _ = writeln!(out, "  {d}");
            }
        }
        if !self.regressions.is_empty() {
            let _ = writeln!(out, "\nregressions:");
            for r in &self.regressions {
                let _ = writeln!(out, "  {r}");
            }
        } else if self.drift.is_empty() {
            let _ = writeln!(out, "\nno regressions");
        }
        out
    }
}

/// Reads and compares two envelope files. `Err` means a file could not
/// be read or parsed at all (usage error, exit 2 at the CLI); a clean
/// parse with structural mismatches comes back as drift in the outcome.
pub fn diff_files(old: &Path, new: &Path, tolerance: f64) -> Result<DiffOutcome, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    Ok(diff_envelopes(&read(old)?, &read(new)?, tolerance))
}

/// Compares two parsed envelopes.
pub fn diff_envelopes(old: &Json, new: &Json, tolerance: f64) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    check_meta(old, new, &mut out);

    // Directions: the new file's map wins (it reflects the current
    // writer); keys only the old file knows keep their old direction.
    let mut directions: HashMap<String, String> = HashMap::new();
    for source in [old, new] {
        if let Some(Json::Obj(fields)) = source.get("directions") {
            for (k, v) in fields {
                if let Some(d) = v.as_str() {
                    directions.insert(k.clone(), d.to_string());
                }
            }
        }
    }

    let old_variants = variant_map(old);
    let new_variants = variant_map(new);
    for (id, old_metrics) in &old_variants {
        let Some(new_metrics) = new_variants.iter().find(|(k, _)| k == id).map(|(_, m)| m) else {
            out.drift
                .push(format!("variant {id} missing from new file"));
            continue;
        };
        for (key, old_value) in old_metrics {
            let Some(new_value) = new_metrics.iter().find(|(k, _)| k == key).map(|(_, v)| v) else {
                out.drift
                    .push(format!("metric {id} {key} missing from new file"));
                continue;
            };
            compare_metric(
                id,
                key,
                old_value,
                new_value,
                directions.get(key).map(String::as_str),
                tolerance,
                &mut out,
            );
        }
    }
    out
}

fn check_meta(old: &Json, new: &Json, out: &mut DiffOutcome) {
    for (field, want_equal) in [
        ("schema_version", true),
        ("experiment", true),
        ("fast", true),
    ] {
        let (o, n) = (old.get(field), new.get(field));
        if o.is_none() || n.is_none() {
            out.drift
                .push(format!("field {field} missing from an envelope"));
            continue;
        }
        if want_equal && o != n {
            out.drift.push(format!(
                "{field} mismatch: {:?} vs {:?}",
                o.unwrap(),
                n.unwrap()
            ));
        }
    }
    let shape = |e: &Json, key: &str| e.get("host").and_then(|h| h.get(key)).cloned();
    let differs: Vec<String> = ["cpus", "arch"]
        .into_iter()
        .filter(|key| shape(old, key) != shape(new, key))
        .map(|key| format!("{key} {:?} vs {:?}", shape(old, key), shape(new, key)))
        .collect();
    if !differs.is_empty() {
        out.warnings.push(format!(
            "warning: host shapes differ ({}); timings compare loosely",
            differs.join(", ")
        ));
    }
    if let Some(Json::Int(v)) = old.get("schema_version") {
        if *v != SCHEMA_VERSION {
            out.drift.push(format!(
                "old file has schema_version {v}, expected {SCHEMA_VERSION}"
            ));
        }
    }
}

type MetricList = Vec<(String, Json)>;

fn variant_map(envelope: &Json) -> Vec<(String, MetricList)> {
    let mut map = Vec::new();
    let Some(variants) = envelope.get("variants").and_then(Json::as_arr) else {
        return map;
    };
    for v in variants {
        let section = v.get("section").and_then(Json::as_str).unwrap_or("");
        let label = v.get("label").and_then(Json::as_str).unwrap_or("");
        let id = if section.is_empty() {
            label.to_string()
        } else {
            format!("{section}/{label}")
        };
        let metrics = match v.get("metrics") {
            Some(Json::Obj(fields)) => fields.clone(),
            _ => Vec::new(),
        };
        map.push((id, metrics));
    }
    map
}

fn compare_metric(
    id: &str,
    key: &str,
    old: &Json,
    new: &Json,
    direction: Option<&str>,
    tolerance: f64,
    out: &mut DiffOutcome,
) {
    let (Some(o), Some(n)) = (old.as_f64(), new.as_f64()) else {
        // Strings / bools / nulls: report changes, never gate.
        if old != new {
            out.lines.push(format!("{id} {key}: {old:?} -> {new:?}"));
        }
        return;
    };
    let rel = if o != 0.0 {
        (n - o) / o.abs()
    } else if n == 0.0 {
        0.0
    } else {
        f64::INFINITY
    };
    let gated = matches!(direction, Some("lower") | Some("higher"));
    let worse = match direction {
        Some("lower") => n > o,
        Some("higher") => n < o,
        _ => false,
    };
    // Relative move in the worse direction; `old == 0` moving to
    // nonzero on a gated metric is an unbounded regression (e.g. a
    // warm phase that used to generate zero plans no longer does).
    let regressed = gated
        && worse
        && (o == 0.0 || n == 0.0 || {
            let ratio = match direction {
                Some("lower") => n / o,
                _ => o / n,
            };
            ratio > 1.0 + tolerance
        });
    let verdict = if regressed {
        "  REGRESSION"
    } else if gated && worse {
        "  (within tolerance)"
    } else {
        ""
    };
    let line = format!(
        "{id} {key}: {o} -> {n} ({rel:+.1}%){verdict}",
        rel = rel * 100.0
    );
    if regressed {
        out.regressions.push(line.clone());
    }
    out.lines.push(line);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Experiment, ExperimentReport};

    fn toy(p50: f64, throughput: f64, warm_plans: u64) -> ExperimentReport {
        Experiment::new("toy", true, || ())
            .variant("phases", "cold", move |_, t| {
                t.num_lower("p50_us", p50);
                t.num_higher("throughput", throughput);
                t.int("sessions", 48);
            })
            .variant("phases", "warm", move |_, t| {
                t.int_lower("plans", warm_plans);
            })
            .run()
    }

    #[test]
    fn identical_envelopes_diff_clean() {
        let e = toy(100.0, 500.0, 0).envelope();
        let outcome = diff_envelopes(&e, &e, 0.25);
        assert!(!outcome.failed(), "{}", outcome.render());
        assert!(outcome.render().contains("no regressions"));
    }

    #[test]
    fn injected_regression_is_caught_and_tolerance_respected() {
        let old = toy(100.0, 500.0, 0).envelope();
        let new = toy(150.0, 500.0, 0).envelope();
        // +50 % on a lower-is-better metric: over a 25 % tolerance...
        let tight = diff_envelopes(&old, &new, 0.25);
        assert!(tight.failed());
        assert!(tight.regressions.iter().any(|r| r.contains("p50_us")));
        // ...but within a 100 % tolerance.
        let loose = diff_envelopes(&old, &new, 1.0);
        assert!(!loose.failed(), "{}", loose.render());
        // Improvements never gate, whatever the tolerance.
        let better = diff_envelopes(&new, &old, 0.0);
        assert!(!better.failed());
    }

    #[test]
    fn higher_is_better_metrics_gate_on_drops() {
        let old = toy(100.0, 500.0, 0).envelope();
        let new = toy(100.0, 100.0, 0).envelope();
        let outcome = diff_envelopes(&old, &new, 0.25);
        assert!(outcome.failed());
        assert!(outcome.regressions.iter().any(|r| r.contains("throughput")));
    }

    #[test]
    fn zero_to_nonzero_on_a_gated_counter_always_regresses() {
        let old = toy(100.0, 500.0, 0).envelope();
        let new = toy(100.0, 500.0, 7).envelope();
        // Even an order-of-magnitude tolerance cannot excuse a warm
        // phase that starts generating plans again.
        let outcome = diff_envelopes(&old, &new, 9.0);
        assert!(outcome.failed());
        assert!(outcome.regressions.iter().any(|r| r.contains("plans")));
    }

    #[test]
    fn info_metrics_never_gate() {
        let old = toy(100.0, 500.0, 0).envelope();
        let mut report = toy(100.0, 500.0, 0);
        for v in &mut report.variants {
            for m in &mut v.metrics {
                if m.key == "sessions" {
                    m.value = crate::harness::Value::Int(9999);
                }
            }
        }
        let outcome = diff_envelopes(&old, &report.envelope(), 0.0);
        assert!(!outcome.failed(), "{}", outcome.render());
    }

    #[test]
    fn missing_variants_and_metrics_are_schema_drift() {
        let old = toy(100.0, 500.0, 0).envelope();
        let trimmed = Experiment::new("toy", true, || ())
            .variant("phases", "cold", |_, t| {
                t.num_lower("p50_us", 100.0);
                t.int("sessions", 48);
            })
            .run()
            .envelope();
        let outcome = diff_envelopes(&old, &trimmed, 9.0);
        assert!(outcome.failed());
        assert!(outcome.drift.iter().any(|d| d.contains("warm")));
        assert!(outcome.drift.iter().any(|d| d.contains("throughput")));
    }

    /// Swaps the envelope's `host.cpus` for `cpus`.
    fn with_cpus(envelope: Json, cpus: u64) -> Json {
        let Json::Obj(mut fields) = envelope else {
            panic!("an envelope is an object")
        };
        for (key, value) in &mut fields {
            if key == "host" {
                *value = Json::obj(vec![
                    ("os", Json::Str("linux".into())),
                    ("arch", Json::Str("x86_64".into())),
                    ("cpus", Json::Int(cpus)),
                ]);
            }
        }
        Json::Obj(fields)
    }

    #[test]
    fn host_shape_mismatch_warns_without_failing() {
        let one = with_cpus(toy(100.0, 500.0, 0).envelope(), 1);
        let same = diff_envelopes(&one, &with_cpus(toy(100.0, 500.0, 0).envelope(), 1), 0.25);
        assert!(same.warnings.is_empty());
        let outcome = diff_envelopes(&one, &with_cpus(toy(100.0, 500.0, 0).envelope(), 8), 0.25);
        assert!(!outcome.failed(), "{}", outcome.render());
        assert_eq!(outcome.warnings.len(), 1);
        assert!(outcome
            .render()
            .starts_with("warning: host shapes differ (cpus"));
    }

    #[test]
    fn a_lemma_violation_fails_at_any_tolerance() {
        let mut report = crate::experiments::lemmas_experiment(0.001, true);
        let old = report.envelope();
        let violations = report.variants[0]
            .metrics
            .iter_mut()
            .find(|m| m.key == "lemma5_violations")
            .expect("every block records its Lemma 5 violations");
        assert_eq!(violations.value, crate::harness::Value::Int(0));
        violations.value = crate::harness::Value::Int(1);
        let outcome = diff_envelopes(&old, &report.envelope(), 9.0);
        assert!(outcome.failed());
        assert!(outcome
            .regressions
            .iter()
            .any(|r| r.contains("lemma5_violations")));
    }

    #[test]
    fn experiment_mismatch_is_drift() {
        let old = toy(100.0, 500.0, 0).envelope();
        let other = Experiment::new("other", true, || ()).run().envelope();
        assert!(diff_envelopes(&old, &other, 9.0).failed());
    }
}
