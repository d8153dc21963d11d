//! Fleet experiment: the kill-and-repeat story over **real processes**
//! (`repro fleet`).
//!
//! The fleet integration tests and `examples/fleet_serving.rs` run their
//! nodes in-process (deterministic, CI-cheap); this experiment spawns N
//! actual `repro fleet-node` child processes over loopback TCP and
//! SIGKILLs one of them mid-experiment, so process isolation is real:
//! the dead node's in-memory warm state is genuinely gone, and the only
//! path back to zero-plan repeats is the fleet machinery — placement
//! failover and the shared `SnapshotStore` directory, which every node
//! reads on a warm-store miss.
//!
//! Phases reported (submit→first-frontier, socket to socket):
//!
//! 1. **cold** — every fingerprint is new; sessions park on their
//!    placement homes and the sweepers persist them to the shared store.
//! 2. **warm** — exact repeats; every session resumes its parked
//!    frontier from memory (zero plans generated).
//! 3. **post-kill warm** — the home node of the first workload key is
//!    SIGKILLed and the repeats run at once, with no router call: the
//!    client fails over, each orphaned key's new home reads the dead
//!    node's last sweep from the shared store (a disk hit, reported as
//!    `orphan_*`), and the repeats **still** all start at zero plans.
//!    The router's probe then finds the survivors alive. The experiment also
//!    re-runs the orphaned key to ladder saturation, stops its serving
//!    node gracefully (the final save), and checks the client-side
//!    [`SessionView`](moqo_core::protocol::SessionView) `bits_eq`
//!    against the frontier in that node's snapshot file.

use moqo_core::protocol::{SessionCommand, SessionRequest};
use moqo_core::IamaOptimizer;
use moqo_costmodel::{SharedCostModel, StandardCostModel};
use moqo_engine::QueryFingerprint;
use moqo_fleet::{share, FleetClient, FleetNode, FleetNodeConfig, FleetRouter, Placement};
use moqo_query::{testkit, QuerySpec};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::harness::{Experiment, ExperimentReport, Trial};
use crate::stats::{Samples, Summary};

const IDLE: Duration = Duration::from_secs(600);

/// Sweep cadence of spawned nodes: short, so the cold pass reaches the
/// shared store quickly and the kill loses at most a beat of state.
const SWEEP: Duration = Duration::from_millis(25);

/// Distinct chain and star fingerprints, repeated verbatim by the warm
/// passes (mirrors `net_workload`, smaller: each session crosses a
/// process boundary).
pub fn fleet_workload(fast: bool) -> Vec<Arc<QuerySpec>> {
    let mut specs: Vec<Arc<QuerySpec>> = Vec::new();
    let top = if fast { 3 } else { 4 };
    for n in 2..=top {
        specs.push(Arc::new(testkit::chain_query(n, 55_000)));
        specs.push(Arc::new(testkit::star_query(n, 85_000)));
    }
    specs
}

/// The child half of `repro fleet`: serves one fleet node until stdin
/// reaches EOF (which the parent's exit guarantees), then stops
/// gracefully. Announces `LISTENING <addr>` on stdout so the parent can
/// build the placement. Never returns.
pub fn fleet_node_serve(id: &str, store: &Path) -> ! {
    let model: SharedCostModel = Arc::new(StandardCostModel::paper_metrics());
    let node = FleetNode::start(
        model,
        FleetNodeConfig::loopback(id)
            .with_store(store)
            .with_sweep(SWEEP),
    )
    .expect("bind loopback");
    println!("LISTENING {}", node.addr());
    let _ = std::io::stdout().flush();
    // Park until the parent closes our stdin; a SIGKILL from the parent
    // (the experiment's whole point) never reaches this line.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    node.stop();
    std::process::exit(0)
}

/// Spawns one `repro fleet-node` child and reads its announced address.
fn spawn_node(exe: &Path, id: &str, store: &Path) -> (Child, String) {
    let mut child = Command::new(exe)
        .arg("fleet-node")
        .arg("--id")
        .arg(id)
        .arg("--store")
        .arg(store)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn fleet node process");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("node announces itself");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("bad node announcement {line:?}"))
        .to_string();
    (child, addr)
}

/// Figures from one pass over the workload.
struct PhaseFigures {
    sessions: usize,
    /// Submit→first-frontier latency per spec, in workload order.
    us: Samples,
    zero_plan_starts: u64,
}

impl PhaseFigures {
    fn record(&self, trial: &mut Trial) {
        trial.int("sessions", self.sessions as u64);
        trial.summary_us("", Summary::of_or_zero(&self.us));
        trial.int("zero_plan_starts", self.zero_plan_starts);
    }
}

/// Drives every spec through its own placement-routed session, recording
/// submit→first-frontier latency; sessions are cancelled afterwards so
/// their frontiers park (and sweep to the store) for the next pass.
fn run_phase(client: &FleetClient, specs: &[Arc<QuerySpec>]) -> PhaseFigures {
    let mut us = Samples::with_capacity(specs.len());
    let mut zero_plan_starts = 0u64;
    for spec in specs {
        let t0 = Instant::now();
        let mut session = client
            .submit(SessionRequest::new(spec.clone()))
            .expect("routed to a live node");
        assert!(session.admission.is_admitted());
        while session.client.view().frontier.is_empty() {
            session.client.recv(IDLE).expect("healthy stream");
        }
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        while session.client.view().first_report.is_none() {
            session.client.recv(IDLE).expect("healthy stream");
        }
        if session
            .client
            .view()
            .first_report
            .as_ref()
            .is_some_and(|r| r.plans_generated == 0)
        {
            zero_plan_starts += 1;
        }
        session
            .client
            .command(SessionCommand::Cancel)
            .expect("send");
        session.client.wait_finished(IDLE).expect("terminal event");
    }
    PhaseFigures {
        sessions: specs.len(),
        us,
        zero_plan_starts,
    }
}

/// Runs one key to ladder saturation on its (post-kill) home, stops that
/// node gracefully, and checks the client-side view `bits_eq` the
/// frontier the node parked: its final save writes the parked
/// `export_frontier` bytes to the shared store, and the re-imported
/// optimizer's target-resolution frontier must be bit-identical to what
/// the deltas reassembled client-side.
fn view_matches_served_frontier(
    s: &mut FleetState,
    spec: Arc<QuerySpec>,
    fp: QueryFingerprint,
) -> bool {
    let mut session = s
        .client
        .submit(SessionRequest::new(spec))
        .expect("routed to a live node");
    assert!(session.admission.is_admitted());
    // Saturate the ladder: once the *next* resolution equals the one the
    // last invocation ran at, that invocation ran at the target r_max —
    // so the last event's frontier is the r_max frontier.
    loop {
        let view = session.client.view();
        if view
            .last_report
            .as_ref()
            .is_some_and(|r| r.resolution == view.resolution)
        {
            break;
        }
        session.client.recv(IDLE).expect("healthy stream");
    }
    session
        .client
        .command(SessionCommand::Cancel)
        .expect("send");
    session.client.wait_finished(IDLE).expect("terminal event");
    let bounds = session.client.view().bounds.expect("bounds seen");
    let mut server = s
        .children
        .remove(&session.node)
        .expect("the serving node is running");
    stop_child(&mut server);
    let blob = std::fs::read(snapshot_file(&s.dir, fp)).expect("the final save wrote the key");
    let opt =
        IamaOptimizer::import_frontier(s.model.clone(), &blob).expect("self-validating bytes");
    let served = opt.frontier(&bounds, opt.schedule().r_max());
    served.bits_eq(&session.client.view().frontier)
}

/// Everything the kill-and-repeat variants share: the live fleet and
/// the workload routing metadata.
struct FleetState {
    model: SharedCostModel,
    dir: PathBuf,
    children: HashMap<String, Child>,
    placement: moqo_fleet::SharedPlacement,
    client: FleetClient,
    router: FleetRouter,
    specs: Vec<Arc<QuerySpec>>,
    fps: Vec<QueryFingerprint>,
    homes: Vec<String>,
}

fn fleet_state(exe: &Path, fast: bool, tag: &str) -> FleetState {
    let model: SharedCostModel = Arc::new(StandardCostModel::paper_metrics());
    let dir = std::env::temp_dir().join(format!("moqo-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let n = 3;
    let mut children: HashMap<String, Child> = HashMap::new();
    let mut placement = Placement::new();
    for i in 0..n {
        let id = format!("node-{i}");
        let (child, addr) = spawn_node(exe, &id, &dir);
        placement.add_node(&id, addr);
        children.insert(id, child);
    }
    let placement = share(placement);
    let client = FleetClient::new(placement.clone(), model.clone());
    let router = FleetRouter::new(placement.clone());

    let specs = fleet_workload(fast);
    let fps: Vec<QueryFingerprint> = specs
        .iter()
        .map(|s| client.fingerprint(&SessionRequest::new(s.clone())))
        .collect();
    let homes: Vec<String> = fps
        .iter()
        .map(|fp| {
            placement
                .read()
                .unwrap()
                .home_of(*fp)
                .expect("live fleet")
                .id
                .clone()
        })
        .collect();
    FleetState {
        model,
        dir,
        children,
        placement,
        client,
        router,
        specs,
        fps,
        homes,
    }
}

/// Stops one node gracefully: closing its stdin is the stop signal, and
/// the node saves its parked frontiers before it exits.
fn stop_child(child: &mut Child) {
    drop(child.stdin.take());
    let _ = child.wait();
}

/// Graceful teardown of every node still running.
fn fleet_teardown(mut state: FleetState) {
    for child in state.children.values_mut() {
        stop_child(child);
    }
    let _ = std::fs::remove_dir_all(&state.dir);
}

/// The shared store's snapshot file of `fp`.
fn snapshot_file(dir: &Path, fp: QueryFingerprint) -> PathBuf {
    dir.join(format!("{:016x}.{}", fp.as_u64(), moqo_serve::FRONTIER_EXT))
}

/// Blocks until every fingerprint's sweep reached the shared store —
/// the state a kill must not be able to destroy.
fn wait_for_sweep(dir: &Path, fps: &[QueryFingerprint]) {
    let deadline = Instant::now() + IDLE;
    for fp in fps {
        let file = snapshot_file(dir, *fp);
        while !file.exists() {
            assert!(Instant::now() < deadline, "sweep never persisted {file:?}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Spawns 3 real `repro fleet-node` processes over one shared snapshot
/// directory, runs the cold and warm passes, SIGKILLs the home of the
/// first workload key, and proves the post-kill repeats still all start
/// at zero plans — asserting every step. `exe` is the `repro` binary
/// itself (`std::env::current_exe()` in the CLI,
/// `env!("CARGO_BIN_EXE_repro")` in tests).
pub fn fleet_experiment(exe: &Path, fast: bool) -> ExperimentReport {
    let exe = exe.to_path_buf();
    Experiment::new("fleet", fast, move || fleet_state(&exe, fast, "bench"))
        .title("fleet kill-and-repeat over real processes")
        .variant("kill-and-repeat", "cold", |s, t| {
            let cold = run_phase(&s.client, &s.specs);
            assert_eq!(cold.zero_plan_starts, 0, "first sight cannot be warm");
            cold.record(t);
        })
        .variant("kill-and-repeat", "warm", |s, t| {
            let warm = run_phase(&s.client, &s.specs);
            assert_eq!(
                warm.zero_plan_starts, warm.sessions as u64,
                "every warm repeat must resume its parked frontier"
            );
            warm.record(t);
            wait_for_sweep(&s.dir, &s.fps);
        })
        .variant("kill-and-repeat", "post-kill warm", |s, t| {
            // SIGKILL the home of the first key: its in-memory frontiers
            // are gone for real; only the shared store survives.
            let victim = s.homes[0].clone();
            let mut corpse = s.children.remove(&victim).expect("victim is running");
            corpse.kill().expect("SIGKILL");
            corpse.wait().expect("reap");

            // The acceptance assertion: repeats right after the kill, with
            // no router call in between, are still all zero-plan starts —
            // survivors kept their keys warm in memory, and each orphan's
            // new home read it from the store on its first open.
            let post = run_phase(&s.client, &s.specs);
            assert_eq!(
                post.zero_plan_starts, post.sessions as u64,
                "a warm repeat must survive its home node's death"
            );
            let orphans: Samples = s
                .homes
                .iter()
                .zip(post.us.as_slice())
                .filter(|(home, _)| **home == victim)
                .map(|(_, us)| *us)
                .collect();
            for fp in &s.fps {
                let home = s
                    .placement
                    .read()
                    .unwrap()
                    .home_of(*fp)
                    .map(|n| n.id.clone());
                assert_ne!(home, Some(victim.clone()), "a dead node must not own keys");
            }
            // The client's failover marked the body, so the router's
            // probe checks only the survivors.
            assert!(s.placement.read().unwrap().node(&victim).unwrap().dead);
            let health = s.router.probe();
            assert!(
                health.iter().all(|h| h.id != victim && h.alive),
                "the survivors must stay alive: {health:?}"
            );
            let (spec, fp) = (s.specs[0].clone(), s.fps[0]);
            let view_bits_eq = view_matches_served_frontier(s, spec, fp);
            assert!(
                view_bits_eq,
                "client view diverged from the serving node across the hand-off"
            );
            post.record(t);
            t.text("killed", victim);
            t.int("orphaned", orphans.len() as u64);
            // Disk hits: info beside the warm pass's memory hits and
            // the cold pass, not gated.
            let orphan = Summary::of_or_zero(&orphans);
            t.num("orphan_p50_us", orphan.p50);
            t.num("orphan_max_us", orphan.max);
            t.flag("view_bits_eq", view_bits_eq);
        })
        .variant("routing", "routes", |s, t| {
            t.int("nodes", s.placement.read().unwrap().nodes().count() as u64);
            let routes: Vec<(String, u64)> = s
                .placement
                .read()
                .unwrap()
                .route_counts()
                .iter()
                .map(|(id, n)| (id.clone(), *n))
                .collect();
            for (id, n) in routes {
                t.int(&format!("routed_{id}"), n);
            }
        })
        .teardown(fleet_teardown)
        .run()
}

/// What a bounded `repro fleet-router --watch` run observed in total.
#[derive(Clone, Debug, Default)]
pub struct WatchReport {
    /// Liveness-loop beats executed.
    pub ticks: u64,
    /// Nodes found dead across the run.
    pub deaths: usize,
    /// Keys orphaned by those deaths.
    pub orphaned: usize,
    /// Repeats of the induced death's orphaned keys, run after the last
    /// beat, whose first invocation generated zero plans (their new
    /// homes read them from the shared store). Bounded runs only.
    pub orphan_zero_plan_starts: u64,
    /// Keys pinned between nodes by load leveling.
    pub rebalanced: usize,
}

/// The daemonizable liveness loop behind `repro fleet-router --watch
/// <ms>`: spawns 3 real `repro fleet-node` processes over a shared
/// snapshot directory, parks the workload on them, then runs
/// [`FleetRouter::watch_tick`] every `every` — probe, count the keys a
/// death orphaned, level skewed ownership — printing one line per beat.
///
/// With `ticks: None` the loop runs until the process dies (SIGTERM is
/// the intended stop; the node children notice the closed stdin pipes
/// and drain gracefully). A bounded run (`ticks: Some(n)`, the `--ticks`
/// flag) additionally SIGKILLs one node after the second beat so death
/// detection demonstrably fires, repeats the dead node's keys after the
/// last beat (each new home reads its key from the shared store), then
/// tears the fleet down and reports totals.
pub fn fleet_router_watch(
    exe: &Path,
    every: Duration,
    ticks: Option<u64>,
    fast: bool,
) -> WatchReport {
    let state = fleet_state(exe, fast, "watch");
    run_phase(&state.client, &state.specs);
    wait_for_sweep(&state.dir, &state.fps);
    println!(
        "watching {} keys on 3 nodes every {:?} ({})",
        state.fps.len(),
        every,
        match ticks {
            Some(t) => format!("{t} ticks, one induced kill"),
            None => "until SIGTERM".to_string(),
        }
    );

    let mut state = state;
    let mut report = WatchReport::default();
    let mut orphans: Vec<Arc<QuerySpec>> = Vec::new();
    loop {
        std::thread::sleep(every);
        if ticks.is_some() && report.ticks == 2 {
            // Bounded demo runs induce the failure they exist to repair:
            // SIGKILL the current home of the first workload key.
            let victim = state
                .placement
                .read()
                .unwrap()
                .home_of(state.fps[0])
                .expect("live fleet")
                .id
                .clone();
            if let Some(mut corpse) = state.children.remove(&victim) {
                corpse.kill().expect("SIGKILL");
                corpse.wait().expect("reap");
                println!("tick {}: SIGKILLed {victim}", report.ticks);
                let placement = state.placement.read().unwrap();
                orphans = state
                    .specs
                    .iter()
                    .zip(&state.fps)
                    .filter(|(_, fp)| placement.home_of(**fp).is_some_and(|n| n.id == victim))
                    .map(|(spec, _)| spec.clone())
                    .collect();
            }
        }
        let tick = state.router.watch_tick(&state.fps, 2);
        report.ticks += 1;
        report.deaths += tick.died.len();
        report.orphaned += tick.orphaned;
        report.rebalanced += tick.rebalanced;
        println!(
            "tick {}: {} alive, died {:?}, orphaned {}, rebalanced {}",
            report.ticks,
            tick.health.iter().filter(|h| h.alive).count(),
            tick.died,
            tick.orphaned,
            tick.rebalanced,
        );
        if ticks.is_some_and(|t| report.ticks >= t) {
            break;
        }
    }
    report.orphan_zero_plan_starts = run_phase(&state.client, &orphans).zero_plan_starts;
    fleet_teardown(state);
    report
}

/// Harness wrapper for a **bounded** router-watch run: executes
/// [`fleet_router_watch`] with `Some(ticks)` and records its totals, so
/// `repro fleet-router --ticks N` emits the shared envelope like every
/// other experiment. (The unbounded daemon mode bypasses the harness —
/// it never returns.)
pub fn fleet_router_experiment(
    exe: &Path,
    every: Duration,
    ticks: u64,
    fast: bool,
) -> ExperimentReport {
    let exe = exe.to_path_buf();
    Experiment::new("fleet-router", fast, || ())
        .title("fleet-router watch loop: probe, level, repeat the orphans")
        .variant("watch", "bounded run", move |_, t| {
            let report = fleet_router_watch(&exe, every, Some(ticks), fast);
            t.int("ticks", report.ticks);
            t.int("deaths", report.deaths as u64);
            t.int("orphaned", report.orphaned as u64);
            t.int("orphan_zero_plan_starts", report.orphan_zero_plan_starts);
            t.int("rebalanced", report.rebalanced as u64);
        })
        .conclusion(
            "the watch loop finds the induced death, and every orphaned \
             key's repeat starts warm from the shared store.",
        )
        .run()
}
