//! The metric catalogue and the one-line result record.
//!
//! Every workload prints the same metric names: the end-to-end set on an
//! untraced run, the per-layer set on a traced run. A per-layer metric a
//! workload never exercises reads 0 (that is the evidence, e.g. `ladder`
//! makes no serve call); an end-to-end metric is measured by every
//! workload, so a missing one is a bug in the benchmark.

use moqo_bench::benchjson::Json;
use moqo_bench::stats::{Samples, Summary};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, as listed in `BENCHMARK.json`: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("first_frontier_ms.p50", "ms"),
    ("first_frontier_ms.tail", "ms"),
    ("refine_ms.p50", "ms"),
    ("refine_ms.tail", "ms"),
    ("drag_ms.p50", "ms"),
    ("drag_ms.tail", "ms"),
    ("target_ms.p50", "ms"),
    ("sessions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Span names the traced run records, one per layer boundary the
/// benchmark calls across (plus the per-session root span).
pub const SPANS: &[&str] = &[
    "bench.session",
    "query.open",
    "core.apply",
    "serve.submit",
    "serve.recv",
    "serve.poll",
    "serve.command",
    "serve.finish",
    "persist.save",
];

/// Per-layer metrics, as listed in `BENCHMARK.json`: (name, unit). The
/// `trace.self_ms.<span>` rows follow from [`SPANS`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_share", "ratio"),
    ("late_ms.tail", "ms"),
    ("core.invoke_ms.p50", "ms"),
    ("core.invoke_ms.tail", "ms"),
    ("core.plans_generated", "count/session"),
    ("core.pairs_generated", "count/session"),
    ("core.candidates_retrieved", "count/session"),
    ("core.useful_share", "ratio"),
    ("core.splits_skipped_share", "ratio"),
    ("core.pairs_skipped_watermark", "count/session"),
    ("core.stale_pairs_skipped", "count/session"),
    ("core.prune_comparisons", "count/session"),
    ("core.seeded_candidates", "count/session"),
    ("query.plan_build_ms", "ms"),
    ("engine.plan_cache_hit_share", "ratio"),
    ("index.result_entries", "count/session"),
    ("index.candidate_entries", "count/session"),
    ("plan.arena_plans", "count/session"),
    ("engine.cache_hit_share", "ratio"),
    ("engine.cache_evictions", "count"),
    ("engine.rebase_hits", "count"),
    ("engine.subfrontier_hit_share", "ratio"),
    ("engine.zero_plan_share", "ratio"),
    ("engine.wait_ms.p50", "ms"),
    ("engine.wait_ms.tail", "ms"),
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.tail", "us"),
    ("serve.admitted", "count"),
    ("serve.queued", "count"),
    ("serve.degraded", "count"),
    ("serve.rejected", "count"),
    ("serve.warm_routed_share", "ratio"),
    ("serve.rebalanced_in", "count"),
    ("serve.backlog_max", "count"),
    ("serve.poll_us.p50", "us"),
    ("persist.save_ms.p50", "ms"),
    ("persist.save_ms.max", "ms"),
    ("persist.bytes_written", "bytes"),
    ("persist.files_written", "count"),
    ("persist.unchanged_share", "ratio"),
    ("trace.overhead.first_frontier_ms", "ms"),
    ("trace.overhead.refine_ms", "ms"),
];

/// Unit of the per-span self-time rows.
pub const SELF_TIME_UNIT: &str = "ms/session";

/// Name of the self-time row for `span`.
pub fn self_time_metric(span: &str) -> String {
    format!("trace.self_ms.{span}")
}

/// Every per-layer metric name with its unit, self-time rows included.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(SPANS.iter().map(|s| (self_time_metric(s), SELF_TIME_UNIT)))
        .collect()
}

/// Nearest-rank percentile `q` (`0 < q <= 1`) of `samples`, by the
/// convention of [`Summary`] (which reports only p50 and p99): `p99`
/// comes from the summary itself, any other tail uses the same rank rule
/// on a `total_cmp`-sorted copy.
pub fn percentile(samples: &Samples, q: f64) -> f64 {
    let Some(summary) = Summary::of(samples) else {
        return 0.0;
    };
    if q == 0.5 {
        return summary.p50;
    }
    if q == 0.99 {
        return summary.p99;
    }
    let mut sorted = samples.as_slice().to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples kept per time window of a run (twenty windows). Its figures
/// are medians over the windows of each window's own statistic, so a
/// host stall that spans a few windows moves none of them; samples that
/// land after the last full window are dropped.
pub struct Windowed {
    start: Instant,
    width: f64,
    windows: Vec<Samples>,
}

impl Windowed {
    /// Twenty windows over `seconds` from `start`.
    pub fn new(start: Instant, seconds: f64) -> Self {
        Self {
            start,
            width: seconds / 20.0,
            windows: (0..20).map(|_| Samples::new()).collect(),
        }
    }

    /// Records `v` in the window the current instant falls in.
    pub fn push(&mut self, v: f64) {
        let i = (self.start.elapsed().as_secs_f64() / self.width) as usize;
        if let Some(w) = self.windows.get_mut(i) {
            w.push(v);
        }
    }

    /// Samples kept.
    pub fn len(&self) -> usize {
        self.windows.iter().map(Samples::len).sum()
    }

    /// Median over non-empty windows of the window's `q` percentile.
    pub fn median_of(&self, q: f64) -> f64 {
        let per: Samples = self
            .windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, q))
            .collect();
        percentile(&per, 0.5)
    }

    /// Median over all windows of the samples per second.
    pub fn median_rate(&self) -> f64 {
        let per: Samples = self
            .windows
            .iter()
            .map(|w| w.len() as f64 / self.width)
            .collect();
        percentile(&per, 0.5)
    }
}

/// `part / whole`, 0 when nothing was attempted.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Metric values gathered by one run, plus the human-readable lines that
/// state every ratio's base and the run's provenance.
#[derive(Default)]
pub struct Record {
    values: BTreeMap<String, f64>,
    /// Lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Record {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Sets a ratio metric and notes its base.
    pub fn ratio(&mut self, name: &str, part: u64, whole: u64) {
        self.set(name, share(part, whole));
        self.note(format!("{name} = {part} / {whole}"));
    }

    /// Sets `<prefix>.p50` and `<prefix>.tail` (the `q` percentile) and
    /// notes the sample count.
    pub fn timing(&mut self, prefix: &str, samples: &Samples, q: f64) {
        self.set(format!("{prefix}.p50"), percentile(samples, 0.5));
        self.set(format!("{prefix}.tail"), percentile(samples, q));
        self.note(format!(
            "{prefix}: {} samples, tail = p{}",
            samples.len(),
            (q * 100.0).round()
        ));
    }

    /// Like [`Record::timing`], from per-window statistics.
    pub fn windowed_timing(&mut self, prefix: &str, samples: &Windowed, q: f64) {
        self.set(format!("{prefix}.p50"), samples.median_of(0.5));
        self.set(format!("{prefix}.tail"), samples.median_of(q));
        self.note(format!(
            "{prefix}: {} samples, median over 20 windows of each window's p50 and p{}",
            samples.len(),
            (q * 100.0).round()
        ));
    }

    /// Appends a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The result object the run prints last: the end-to-end set, or the
    /// per-layer set when `traced`. A per-layer metric nobody set reads 0;
    /// an unset end-to-end metric is an error.
    pub fn result(&self, traced: bool, attempted: u64, failed: u64) -> Result<Json, String> {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer_catalogue()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut metrics = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            let value = match self.get(&name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            metrics.push((
                name,
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            ));
        }
        Ok(Json::obj(vec![
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Int(attempted)),
            ("failed", Json::Int(failed)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }
}

/// Renders `json` on one line (the pretty renderer's lines, joined).
pub fn one_line(json: &Json) -> String {
    json.render().lines().map(str::trim).collect()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
