//! Regenerates the paper's figures as terminal tables and plots.
//!
//! ```text
//! cargo run --release -p moqo-bench --bin repro -- <experiment> [--sf <f>] [--fast]
//! ```
//!
//! Experiments: `fig1`, `fig2a`, `fig2b`, `fig3`, `fig4`, `fig5`,
//! `lemmas`, `quality`, `ablations`, `bounds`, `space`, `amortized`,
//! `schedules`, `enumeration`, `pruning`, `serve`, `net`, `net-scale`,
//! `similarity`, `fleet`, `fleet-router`, `replay`, `churn`, or `all`.
//! `--fast` shrinks level counts and workloads for a quick smoke run;
//! `--stats` appends the enumeration-plane counter table (splits
//! visited/skipped, pairs skipped, scratch high-water) regardless of the
//! chosen experiment. `net-scale` takes `--connections <n>` (default
//! 10000; 512 with `--fast`); `fleet-router` takes `--watch <ms>`
//! (default 500) and `--ticks <n>` (default: run until SIGTERM).
//!
//! Every experiment except `fig1` (scatter plots, no measurement) and
//! the unbounded `fleet-router` watch loop prints its tables and drops
//! a machine-readable `BENCH_<name>.json` file — one shared envelope
//! schema — into the working directory (schema in
//! `docs/benchmarks.md`).
//!
//! Two envelopes compare with the perf-trajectory gate:
//!
//! ```text
//! repro diff <old.json> <new.json> [--tolerance <fraction>]
//! ```
//!
//! which exits 0 when no direction-gated metric regressed beyond the
//! tolerance, 1 on a regression or schema drift, and 2 on unreadable
//! input.
//!
//! `repro fleet` spawns real serving processes by re-executing this
//! binary in a hidden child mode which serves one fleet node until its
//! stdin closes:
//!
//! ```text
//! repro fleet-node --id <id> --store <dir>
//! ```

use moqo_bench::*;
use moqo_core::{IamaOptimizer, Session, SessionCommand};
use moqo_cost::{Bounds, ResolutionSchedule};
use moqo_costmodel::{CostModel, StandardCostModel};
use moqo_tpch::query_block;
use moqo_viz::{render_scatter, ScatterOptions};
use std::env;
use std::sync::Arc;
use std::time::Duration;

struct Cli {
    experiment: String,
    sf: f64,
    fast: bool,
    stats: bool,
    /// `net-scale`: connections to hold (default 10000, or 512 with
    /// `--fast`).
    connections: Option<usize>,
    /// `fleet-router`: watch-loop cadence in milliseconds.
    watch_ms: u64,
    /// `fleet-router`: beats to run before tearing down (`None` = run
    /// until SIGTERM).
    ticks: Option<u64>,
}

const EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2a",
    "fig2b",
    "fig3",
    "fig4",
    "fig5",
    "lemmas",
    "quality",
    "ablations",
    "bounds",
    "space",
    "amortized",
    "schedules",
    "enumeration",
    "pruning",
    "serve",
    "net",
    "net-scale",
    "similarity",
    "fleet",
    "fleet-router",
    "replay",
    "churn",
    "all",
];

fn usage() -> String {
    format!(
        "usage: repro [<experiment>] [--sf <positive number>] [--fast] [--stats]\n\
         \x20            [--connections <n>] [--watch <ms>] [--ticks <n>]\n\
         \x20      repro diff <old.json> <new.json> [--tolerance <fraction>]\n\
         experiments: {}\n\
         net-scale holds --connections idle sessions (default 10000; 512 with --fast).\n\
         fleet-router runs a liveness loop every --watch ms (default 500) until\n\
         SIGTERM, or for --ticks beats (with one induced node kill) when bounded.\n\
         diff compares two BENCH_*.json envelopes; exit 0 = clean, 1 = regression\n\
         or schema drift, 2 = unreadable input.",
        EXPERIMENTS.join(", ")
    )
}

/// Prints the problem plus usage to stderr and exits nonzero.
fn cli_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{}", usage());
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut experiment = String::from("all");
    let mut sf = 1.0;
    let mut fast = false;
    let mut stats = false;
    let mut connections = None;
    let mut watch_ms = 500;
    let mut ticks = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            "--sf" => {
                i += 1;
                sf = match args.get(i).map(|s| s.parse::<f64>()) {
                    Some(Ok(v)) if v > 0.0 && v.is_finite() => v,
                    Some(_) => {
                        cli_error(&format!("--sf needs a positive number, got {:?}", args[i]))
                    }
                    None => cli_error("--sf needs a value"),
                };
            }
            "--fast" => fast = true,
            "--stats" => stats = true,
            "--connections" => {
                i += 1;
                connections = match args.get(i).map(|s| s.parse::<usize>()) {
                    Some(Ok(v)) if v > 0 => Some(v),
                    Some(_) => cli_error(&format!(
                        "--connections needs a positive count, got {:?}",
                        args[i]
                    )),
                    None => cli_error("--connections needs a value"),
                };
            }
            "--watch" => {
                i += 1;
                watch_ms = match args.get(i).map(|s| s.parse::<u64>()) {
                    Some(Ok(v)) if v > 0 => v,
                    Some(_) => cli_error(&format!(
                        "--watch needs a positive millisecond count, got {:?}",
                        args[i]
                    )),
                    None => cli_error("--watch needs a value"),
                };
            }
            "--ticks" => {
                i += 1;
                ticks = match args.get(i).map(|s| s.parse::<u64>()) {
                    Some(Ok(v)) if v > 0 => Some(v),
                    Some(_) => cli_error(&format!(
                        "--ticks needs a positive count, got {:?}",
                        args[i]
                    )),
                    None => cli_error("--ticks needs a value"),
                };
            }
            other if !other.starts_with('-') => {
                if !EXPERIMENTS.contains(&other) {
                    cli_error(&format!("unknown experiment {other:?}"));
                }
                experiment = other.to_string();
            }
            other => cli_error(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    Cli {
        experiment,
        sf,
        fast,
        stats,
        connections,
        watch_ms,
        ticks,
    }
}

/// The hidden `fleet-node` child mode: parses `--id`/`--store` and
/// serves one fleet node until stdin closes (never returns).
fn fleet_node_main(args: &[String]) -> ! {
    let mut id: Option<&str> = None;
    let mut store: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--id" => {
                i += 1;
                id = args.get(i).map(String::as_str);
            }
            "--store" => {
                i += 1;
                store = args.get(i).map(String::as_str);
            }
            other => cli_error(&format!("unknown fleet-node flag {other:?}")),
        }
        i += 1;
    }
    match (id, store) {
        (Some(id), Some(store)) => fleet_node_serve(id, std::path::Path::new(store)),
        _ => cli_error("fleet-node needs --id <id> --store <dir>"),
    }
}

/// The `repro diff` subcommand: compares two `BENCH_*.json` envelopes
/// metric by metric and exits 0 (clean), 1 (regression or schema
/// drift), or 2 (unreadable input). Never returns.
fn diff_main(args: &[String]) -> ! {
    let mut tolerance = 0.5;
    let mut files: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                tolerance = match args.get(i).map(|s| s.parse::<f64>()) {
                    Some(Ok(v)) if v >= 0.0 && v.is_finite() => v,
                    Some(_) => cli_error(&format!(
                        "--tolerance needs a nonnegative fraction, got {:?}",
                        args[i]
                    )),
                    None => cli_error("--tolerance needs a value"),
                };
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if !other.starts_with('-') => files.push(other),
            other => cli_error(&format!("unknown diff flag {other:?}")),
        }
        i += 1;
    }
    let [old, new] = files[..] else {
        cli_error("diff needs exactly two files: repro diff <old.json> <new.json>");
    };
    match diff_files(
        std::path::Path::new(old),
        std::path::Path::new(new),
        tolerance,
    ) {
        Ok(outcome) => {
            print!("{}", outcome.render());
            std::process::exit(if outcome.failed() { 1 } else { 0 });
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    // `repro fleet` re-executes this binary as its node processes; the
    // child mode must win before normal CLI parsing, and `diff` takes
    // positional file arguments no experiment takes.
    let raw: Vec<String> = env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("fleet-node") => fleet_node_main(&raw[1..]),
        Some("diff") => diff_main(&raw[1..]),
        _ => {}
    }
    let cli = parse_cli();
    let run = |name: &str| cli.experiment == name || cli.experiment == "all";

    if run("fig1") {
        fig1(&bench_model(), cli.sf);
    }
    let paper = [
        (
            "fig2a",
            fig2a_experiment as fn(f64, bool) -> ExperimentReport,
        ),
        ("fig2b", fig2b_experiment),
        ("fig3", fig3_experiment),
        ("fig4", fig4_experiment),
        ("fig5", fig5_experiment),
        ("lemmas", lemmas_experiment),
        ("quality", quality_experiment),
        ("ablations", ablations_experiment),
        ("bounds", bounds_experiment),
        ("space", space_experiment),
        ("amortized", amortized_experiment),
        ("schedules", schedules_experiment),
    ];
    for (name, experiment) in paper {
        if run(name) {
            experiment(cli.sf, cli.fast).emit();
        }
    }
    if run("enumeration") || cli.stats {
        enumeration_experiment(cli.sf, cli.fast).emit();
    }
    if run("pruning") {
        pruning_experiment(cli.fast).emit();
    }
    if run("serve") {
        serving_experiment(cli.fast).emit();
    }
    if run("net") {
        net_serving_experiment(cli.fast).emit();
    }
    if run("net-scale") {
        let connections = cli
            .connections
            .unwrap_or(if cli.fast { 512 } else { 10_000 });
        net_scale_experiment(connections, cli.fast).emit();
    }
    if run("similarity") {
        similarity_experiment(cli.fast).emit();
    }
    if run("replay") {
        replay_experiment(cli.fast).emit();
    }
    if run("churn") {
        churn_experiment(cli.fast).emit();
    }
    if run("fleet") {
        let exe = env::current_exe().expect("own executable path");
        fleet_experiment(&exe, cli.fast).emit();
    }
    if run("fleet-router") {
        // Under `all` the loop must terminate: bound it like `--ticks 5`.
        let ticks = match (cli.experiment.as_str(), cli.ticks) {
            ("all", None) => Some(5),
            (_, t) => t,
        };
        let exe = env::current_exe().expect("own executable path");
        let every = Duration::from_millis(cli.watch_ms);
        match ticks {
            // Bounded runs (with one induced node kill) go through the
            // harness and drop an envelope like every other experiment.
            Some(n) => fleet_router_experiment(&exe, every, n, cli.fast).emit(),
            // Unbounded: the daemonizable liveness loop, no envelope —
            // it ends by SIGTERM, not by finishing a measurement.
            None => {
                println!("=== Fleet router: liveness watch loop over 3 real node processes ===\n");
                let report = fleet_router_watch(&exe, every, None, cli.fast);
                println!(
                    "\n{} beats: {} death(s) found, {} orphaned key(s), {} adopted warm,\n\
                     \x20        {} leveling move(s).\n",
                    report.ticks,
                    report.deaths,
                    report.orphaned,
                    report.adopted_warm,
                    report.rebalanced
                );
            }
        }
    }
}

/// Figure 1: the interactive refinement loop with a bound change.
fn fig1(model: &StandardCostModel, sf: f64) {
    println!("=== Figure 1: interactive anytime optimization (q05) ===\n");
    let spec = query_block("q05", sf).expect("q05");
    let schedule = ResolutionSchedule::linear(8, 1.01, 0.3);
    let opt = IamaOptimizer::new(Arc::new(spec.clone()), Arc::new(model.clone()), schedule);
    let mut session = Session::new(opt);
    let opts = |bounds| ScatterOptions {
        width: 64,
        height: 16,
        x_metric: 0,
        y_metric: 2,
        x_label: "time".into(),
        y_label: "error".into(),
        bounds,
    };
    // (a) first coarse approximation.
    session.apply(SessionCommand::Refine).expect("live session");
    {
        let frontier = session.frontier();
        println!("(a) first approximation ({} plans):", frontier.len());
        println!("{}", render_scatter(&frontier.costs(), &opts(None)));
    }
    // (b) refined without user interaction.
    for _ in 0..3 {
        session.apply(SessionCommand::Refine).expect("live session");
    }
    {
        let frontier = session.frontier();
        println!("(b) refined approximation ({} plans):", frontier.len());
        println!("{}", render_scatter(&frontier.costs(), &opts(None)));
    }
    // (c) the user drags the time bound to the median visualized time.
    let dim = model.dim();
    let t_mid = {
        let f = session
            .optimizer()
            .frontier(session.bounds(), session.resolution());
        let ts: Samples = f.costs().iter().map(|c| c[0]).collect();
        Summary::of(&ts).map(|s| s.p50).unwrap_or(f64::INFINITY)
    };
    let new_bounds = Bounds::unbounded(dim).with_limit(0, t_mid);
    session
        .apply(SessionCommand::SetBounds(new_bounds))
        .expect("live session");
    session.apply(SessionCommand::Refine).expect("live session");
    {
        let frontier = session.frontier();
        println!(
            "(c) after dragging the time bound to {t_mid:.2} ({} plans):",
            frontier.len()
        );
        println!(
            "{}",
            render_scatter(&frontier.costs(), &opts(Some(new_bounds)))
        );
    }
}
