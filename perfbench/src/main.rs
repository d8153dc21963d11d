//! The repository benchmark: three workloads driven through the moqo
//! crates' public APIs, each printing one result line of end-to-end
//! metrics (untraced run) or per-layer metrics (traced run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ladder|warm-repeat|drift-open> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare <a.json> <b.json>
//! ```
//!
//! See `perfbench/README.md` for why each workload exists and which
//! per-layer metric should move which end-to-end metric.

mod drift_open;
mod ladder;
mod metrics;
mod served;
mod trace;
mod warm_repeat;

use moqo_bench::benchjson::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Record;
use trace::Span;

/// Hard limit on one invocation. A wedged session or server that slipped
/// past every per-wait deadline still ends the process with a nonzero
/// code instead of a hang.
const WATCHDOG: Duration = Duration::from_secs(150);

/// Directory (relative to the working directory) for result records,
/// traces and the `drift-open` snapshot store.
const OUT_DIR: &str = ".perfbench-out";

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 1 on the core session, in-process, one thread.
    Ladder,
    /// Repeat traffic against the in-process server, closed loop.
    WarmRepeat,
    /// Drifting queries against the in-process server, open loop.
    DriftOpen,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "ladder" => Some(Self::Ladder),
            "warm-repeat" => Some(Self::WarmRepeat),
            "drift-open" => Some(Self::DriftOpen),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Ladder => "ladder",
            Self::WarmRepeat => "warm-repeat",
            Self::DriftOpen => "drift-open",
        }
    }
}

/// A deliberately wrong output, injected by the benchmark's own tests to
/// show that the output checks count it as a failed session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// Flip a bit of the first `ladder` session's frontier digest.
    Digest,
    /// Corrupt the first `warm-repeat` session's reassembled view.
    ClientView,
}

/// Parameters of one measured pass.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Workload seed; the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans around layer calls.
    pub trace: bool,
    /// Setups to run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Shrunken inputs for the benchmark's own tests.
    pub tiny: bool,
    /// Wrong output to inject, if any.
    pub inject: Option<Inject>,
    /// Directory the pass may write to.
    pub out_dir: PathBuf,
}

/// What one measured pass produced.
pub struct Outcome {
    /// Metrics and human-readable lines.
    pub record: Record,
    /// Sessions attempted in the measured window.
    pub attempted: u64,
    /// Sessions that failed (rejected, timed out, a server error, or a
    /// failed output check).
    pub failed: u64,
    /// Spans of a traced pass.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// A pass whose setup failed: nothing measured.
    pub fn setup_failed(error: String) -> Self {
        let mut record = Record::default();
        record.note(format!("FAIL setup: {error}"));
        Outcome {
            record,
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
        }
    }
}

/// Client and server thread counts of a workload on this host: load
/// comes from at most `nproc` client threads (capped at 2), and server
/// pools are sized to the same cores.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 2)
}

/// A generator for one input stream of a run: the seed and the stream
/// tag pass through a SplitMix64 finalizer first, so neighbouring seeds
/// give unrelated streams.
pub fn rng(seed: u64, stream: u64) -> moqo_bench::workload::XorShift {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    moqo_bench::workload::XorShift::new(z ^ (z >> 31))
}

fn run_workload(workload: Workload, spec: &RunSpec) -> Outcome {
    match workload {
        Workload::Ladder => ladder::run(spec),
        Workload::WarmRepeat => warm_repeat::run(spec),
        Workload::DriftOpen => drift_open::run(spec),
    }
}

/// The host shape results are only comparable within.
fn host(workload: Workload) -> Json {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(0);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let (client, server) = match workload {
        Workload::Ladder => (1, 0),
        // Server side: one worker per shard.
        Workload::WarmRepeat => (1, threads()),
        // Client side: generator and collector. Server side: one worker
        // per shard plus the snapshot saver.
        Workload::DriftOpen => (2, threads() + 1),
    };
    Json::obj(vec![
        ("nproc", Json::Int(nproc)),
        ("cpu", Json::Str(cpu)),
        ("client_threads", Json::Int(client as u64)),
        ("server_threads", Json::Int(server as u64)),
    ])
}

/// Runs one benchmark invocation and returns the result object plus
/// the human-readable lines, or an error when nothing could be measured.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    tiny: bool,
    inject: Option<Inject>,
    out_dir: &Path,
) -> Result<(Json, Vec<String>), String> {
    let spec = |seconds: f64, trace: bool, setup_reps: usize| RunSpec {
        seed,
        seconds,
        trace,
        setup_reps,
        tiny,
        inject,
        out_dir: out_dir.to_path_buf(),
    };
    let (outcome, attempted, failed) = if traced {
        // Half the window untraced, half traced: the difference of the
        // two medians is the tracing overhead.
        let plain = run_workload(workload, &spec(seconds / 2.0, false, 1));
        let mut traced = run_workload(workload, &spec(seconds / 2.0, true, 1));
        let attempted = plain.attempted + traced.attempted;
        let failed = plain.failed + traced.failed;
        for (metric, base) in [
            ("trace.overhead.first_frontier_ms", "first_frontier_ms.p50"),
            ("trace.overhead.refine_ms", "refine_ms.p50"),
        ] {
            if let (Some(t), Some(p)) = (traced.record.get(base), plain.record.get(base)) {
                traced.record.set(metric, t - p);
                traced
                    .record
                    .note(format!("{metric} = {t:.4} traced - {p:.4} untraced"));
            }
        }
        let sessions = traced.attempted.max(1) as f64;
        let self_ms = trace::self_times_ms(&traced.spans);
        for span in metrics::SPANS {
            let total = self_ms.get(span).copied().unwrap_or(0.0);
            traced
                .record
                .set(metrics::self_time_metric(span), total / sessions);
        }
        traced.record.note(format!(
            "trace.self_ms.*: base {} traced sessions, {} spans",
            traced.attempted,
            traced.spans.len()
        ));
        let path = out_dir.join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
        match trace::write_spans(&path, &traced.spans) {
            Ok(()) => traced
                .record
                .note(format!("spans written to {}", path.display())),
            Err(e) => traced.record.note(format!("spans not written: {e}")),
        }
        traced
            .record
            .notes
            .splice(0..0, plain.record.notes.iter().cloned());
        (traced, attempted, failed)
    } else {
        let mut o = run_workload(workload, &spec(seconds, false, 3));
        o.record.set("peak_rss_mb", metrics::peak_rss_mb());
        let (a, f) = (o.attempted, o.failed);
        (o, a, f)
    };
    if attempted == 0 {
        return Err(outcome.record.notes.join("\n"));
    }
    let mut record = outcome.record;
    record.ratio("failed_share", failed, attempted);
    let result = record.result(traced, attempted, failed)?;
    Ok((result, record.notes))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: moqo-perfbench --workload <ladder|warm-repeat|drift-open> --seed <n> \
         --seconds <s> --trace <0|1>\n       \
         moqo-perfbench --compare <result-a.json> <result-b.json>\n       \
         moqo-perfbench --record-digests"
    );
    ExitCode::from(2)
}

/// Compares two result records, refusing different host shapes.
fn compare(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| Json::parse(&t))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for key in ["workload", "host"] {
        if a.get(key) != b.get(key) {
            eprintln!(
                "error: refusing to compare: {key} differs\n  a: {}\n  b: {}",
                metrics::one_line(a.get(key).unwrap_or(&Json::Null)),
                metrics::one_line(b.get(key).unwrap_or(&Json::Null))
            );
            return ExitCode::from(1);
        }
    }
    let metric = |r: &Json, name: &str| {
        r.get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    let Some(Json::Obj(names)) = a.get("result").and_then(|r| r.get("metrics")) else {
        eprintln!("error: no metrics in the first record");
        return ExitCode::from(2);
    };
    for (name, _) in names {
        if let (Some(x), Some(y)) = (metric(&a, name), metric(&b, name)) {
            let change = if x != 0.0 { (y - x) / x * 100.0 } else { 0.0 };
            println!("{name:40} {x:>14.4} {y:>14.4} {change:>+8.1}%");
        }
    }
    ExitCode::SUCCESS
}

/// Pins glibc's allocator to one arena and a fixed mmap threshold.
/// Left to itself, glibc sizes per-thread arenas and moves the mmap
/// threshold as large blocks come and go, so `peak_rss_mb` landed on one
/// of several plateaus (62, 73 or 85 MB on `ladder`) depending on the
/// order of allocations, not on the work done.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only adjusts allocator tunables; it is called
    // before any other thread exists, with valid parameter codes.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--compare") if args.len() == 3 => {
            return compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("--record-digests") if args.len() == 1 => {
            ladder::record_digests();
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().map(String::as_str);
        match (flag.as_str(), value) {
            ("--workload", Some(v)) => workload = Workload::parse(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            ("--trace", Some("0")) => traced = Some(false),
            ("--trace", Some("1")) => traced = Some(true),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        return usage();
    };

    // Detached on purpose: it must outlive whatever is wedged, and ends
    // the process itself.
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG.saturating_sub(started.elapsed()));
        eprintln!("error: watchdog: run exceeded {WATCHDOG:?}; a wait is wedged");
        std::process::exit(3);
    });

    let out_dir = PathBuf::from(OUT_DIR);
    let host = host(workload);
    println!(
        "perfbench {} seed={seed} seconds={seconds} trace={} host={}",
        workload.name(),
        traced as u8,
        metrics::one_line(&host)
    );
    match measure(workload, seed, seconds, traced, false, None, &out_dir) {
        Ok((result, notes)) => {
            for line in &notes {
                println!("  {line}");
            }
            let record = Json::obj(vec![
                ("workload", Json::Str(workload.name().into())),
                ("seed", Json::Int(seed)),
                ("seconds", Json::Num(seconds)),
                ("trace", Json::Bool(traced)),
                ("host", host),
                ("result", result.clone()),
            ]);
            let path = out_dir.join(format!(
                "result-{}-seed{seed}-trace{}.json",
                workload.name(),
                traced as u8
            ));
            if let Err(e) =
                std::fs::create_dir_all(&out_dir).and_then(|()| record.write_file(&path))
            {
                eprintln!("warning: result record not written: {e}");
            }
            println!("{}", metrics::one_line(&result));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [Workload::Ladder, Workload::WarmRepeat, Workload::DriftOpen];

    fn tiny(workload: Workload, traced: bool, inject: Option<Inject>) -> Json {
        let out_dir = PathBuf::from(OUT_DIR).join(format!("test-{}", workload.name()));
        let (result, notes) = measure(workload, 7, 0.6, traced, true, inject, &out_dir)
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        let _ = std::fs::remove_dir_all(&out_dir);
        assert!(!notes.is_empty());
        // The printed line parses back to the same object.
        Json::parse(&metrics::one_line(&result)).expect("result line is JSON")
    }

    fn counter(result: &Json, key: &str) -> f64 {
        result.get(key).and_then(Json::as_f64).expect(key)
    }

    #[test]
    fn every_named_metric_prints_with_its_unit() {
        for workload in ALL {
            for traced in [false, true] {
                let result = tiny(workload, traced, None);
                let catalogue: Vec<(String, &str)> = if traced {
                    metrics::per_layer_catalogue()
                } else {
                    metrics::END_TO_END
                        .iter()
                        .map(|&(n, u)| (n.to_string(), u))
                        .collect()
                };
                let printed = result.get("metrics").expect("metrics");
                for (name, unit) in &catalogue {
                    let m = printed
                        .get(name)
                        .unwrap_or_else(|| panic!("{}: {name} missing", workload.name()));
                    assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                }
                let Some(Json::Obj(fields)) = result.get("metrics") else {
                    panic!("metrics is not an object");
                };
                assert_eq!(fields.len(), catalogue.len(), "{}", workload.name());
                assert!(counter(&result, "attempted") >= 1.0);
                assert_eq!(counter(&result, "failed"), 0.0, "{}", workload.name());
                assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            }
        }
    }

    #[test]
    fn a_wrong_frontier_digest_counts_as_a_failed_session() {
        let result = tiny(Workload::Ladder, false, Some(Inject::Digest));
        assert_eq!(counter(&result, "failed"), 1.0);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn a_corrupted_view_counts_as_a_failed_session() {
        let result = tiny(Workload::WarmRepeat, false, Some(Inject::ClientView));
        assert_eq!(counter(&result, "failed"), 1.0);
        assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    }

    #[test]
    fn neighbouring_seeds_give_different_streams() {
        assert_ne!(rng(12, 1).next_u64(), rng(13, 1).next_u64());
        assert_eq!(rng(12, 1).next_u64(), rng(12, 1).next_u64());
    }
}
