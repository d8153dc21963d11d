//! Scale experiment: one node holding thousands of **idle** interactive
//! sessions (`repro net-scale`).
//!
//! The latency experiments (`repro serve`, `repro net`) measure the
//! interactive SLO for one session at a time; this one measures the
//! *capacity* claim behind the readiness-driven front: a single
//! event-loop thread plus a fixed decode pool holds N connected,
//! admitted, idle sessions without a per-connection thread and with
//! bounded per-connection memory. The report samples `/proc/self/status`
//! for userspace RSS (client and server side combined — both live in this
//! process), counts the server's own threads by name under
//! `/proc/self/task`, and reads the server's
//! [`NetStats`](moqo_serve::NetStats) backpressure counters before and
//! while holding the fleet.
//!
//! Sequence: raise `RLIMIT_NOFILE`, bind one [`NetServer`], connect and
//! submit N sessions over a handful of repeated query templates, drain
//! every client through its resolution ladder, hold the fleet idle, then
//! drop all clients at once (the disconnect-park path) and time the drain
//! and the event-driven shutdown.

use moqo_core::protocol::SessionRequest;
use moqo_cost::ResolutionSchedule;
use moqo_costmodel::StandardCostModel;
use moqo_engine::{EngineConfig, ModelRegistry};
use moqo_query::{testkit, QuerySpec};
use moqo_serve::{
    AdmissionConfig, MoqoServer, NetClient, NetConfig, NetServer, ServeConfig, ShardConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::harness::{Experiment, ExperimentReport, Trial};
use crate::stats::{Samples, Summary};

/// Time each stage of the hold sequence gets. All stages of a
/// 2000-connection hold took 1.5 s together on a 2-vCPU VM, so a stage
/// still running after this is stuck, and fails by name instead of
/// hanging the run.
const STAGE: Duration = Duration::from_secs(30);

/// The deadline of one named stage of the hold sequence.
struct Stage {
    name: &'static str,
    deadline: Instant,
}

impl Stage {
    fn start(name: &'static str) -> Self {
        Stage {
            name,
            deadline: Instant::now() + STAGE,
        }
    }

    /// Time left in the stage; panics, naming the stage, once it is up.
    fn left(&self) -> Duration {
        let left = self.deadline.saturating_duration_since(Instant::now());
        assert!(
            !left.is_zero(),
            "net-scale stage `{}` missed its {STAGE:?} deadline",
            self.name
        );
        left
    }

    /// Folds the next event into `client`'s view, waiting at most until
    /// the deadline (a timeout returns and the caller's loop re-checks).
    fn recv(&self, client: &mut NetClient) {
        if let Err(e) = client.recv(self.left()) {
            panic!("net-scale stage `{}`: {e}", self.name);
        }
    }
}

/// Reads `VmRSS` (kB) for this process. Returns zero on non-Linux /proc
/// layouts so the experiment still runs (memory columns just read 0).
fn proc_rss_kb() -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Counts this process's serving threads — the network front's
/// (`moqo-net-*`) and the engine workers (`moqo-engine-*`) — by name
/// under `/proc/self/task`. Client and test-harness threads are not
/// counted; the threads of a second server in the same process would be.
/// Returns zero where `/proc` is unavailable.
fn server_threads() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("moqo-net-") || comm.starts_with("moqo-engine-"))
        .count() as u64
}

/// The small template set the fleet cycles over: enough shapes to spread
/// across shards, few enough that repeats dominate and the warm cache
/// carries most of the plan work.
pub fn net_scale_templates() -> Vec<Arc<QuerySpec>> {
    vec![
        Arc::new(testkit::chain_query(2, 40_000)),
        Arc::new(testkit::chain_query(3, 45_000)),
        Arc::new(testkit::star_query(3, 60_000)),
        Arc::new(testkit::chain_query(2, 55_000)),
    ]
}

/// Runs the hold sequence at `requested` connections (clamped by the fd
/// limit) and records every capacity figure into `trial`.
fn run_hold(requested: usize, fast: bool, trial: &mut Trial) {
    let nofile_soft = moqo_poll::raise_nofile_limit(requested as u64 * 2 + 512).unwrap_or(1024);
    let usable = (nofile_soft.saturating_sub(256) / 2) as usize;
    let connections = requested.min(usable).max(1);

    let model: moqo_costmodel::SharedCostModel = Arc::new(StandardCostModel::paper_metrics());
    let schedule = ResolutionSchedule::linear(1, 1.1, 0.5);
    let server = Arc::new(MoqoServer::new(
        model.clone(),
        schedule.clone(),
        ServeConfig {
            shard: ShardConfig {
                shards: 2,
                engine: EngineConfig {
                    workers: 2,
                    ..EngineConfig::default()
                },
                rebalance_headroom: 8,
            },
            admission: AdmissionConfig {
                max_live: connections + 16,
                ..AdmissionConfig::default()
            },
            retired_tickets: connections + 16,
        },
    ));
    let registry = Arc::new(ModelRegistry::with_default(model));
    let net = NetServer::bind(server, registry, NetConfig::default()).expect("bind 127.0.0.1:0");
    let addr = net.local_addr();
    let templates = net_scale_templates();

    // Pre-warm: one sequential session per template parks its frontier,
    // so the fleet's first repeat of each template starts at zero plans
    // (the rest run concurrently and cannot all share one parked state).
    for spec in &templates {
        let stage = Stage::start("pre-warm");
        let mut client = NetClient::connect(addr).expect("connect over loopback");
        client
            .submit(SessionRequest::new(spec.clone()), stage.left())
            .expect("admitted");
        while client.view().frontier.is_empty() {
            stage.recv(&mut client);
        }
        client
            .command(moqo_core::SessionCommand::Cancel)
            .expect("send");
        client.wait_finished(stage.left()).expect("terminal event");
    }

    let (rss_before_kb, threads_before) = (proc_rss_kb(), server_threads());

    // Connect and submit the whole fleet; each session runs its (tiny)
    // resolution ladder and then sits idle awaiting commands.
    let mut clients: Vec<NetClient> = Vec::with_capacity(connections);
    let mut connect_us = Samples::with_capacity(connections);
    let mut admit_us = Samples::with_capacity(connections);
    let stage = Stage::start("connect and submit");
    for i in 0..connections {
        let t0 = Instant::now();
        let mut client = NetClient::connect(addr).expect("connect over loopback");
        connect_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let spec = templates[i % templates.len()].clone();
        let t1 = Instant::now();
        client
            .submit(SessionRequest::new(spec), stage.left())
            .expect("admitted");
        admit_us.push(t1.elapsed().as_secs_f64() * 1e6);
        clients.push(client);
    }
    assert!(
        net.moqo().wait_idle(Stage::start("engine idle").left()),
        "engine did not go idle under the held fleet"
    );

    // Drain every client through its whole ladder. Each session runs one
    // invocation per level and then waits for commands, and the engine is
    // idle, so every event is published: the client has caught up once
    // its view counts the last invocation. This proves end-to-end delivery
    // for all N streams, not just admission, and leaves no frame in flight
    // to turn the bulk drop below into TCP resets (counted as faults)
    // instead of orderly EOFs. The server-side ticket view is not read:
    // polling a ticket drains its event channel, so the polled events
    // would never reach the connection.
    let mut zero_plan_starts = 0u64;
    let stage = Stage::start("ladder delivery");
    for client in &mut clients {
        while client.view().invocations < schedule.levels() as u64 {
            stage.recv(client);
        }
        if client
            .view()
            .first_report
            .as_ref()
            .is_some_and(|r| r.plans_generated == 0)
        {
            zero_plan_starts += 1;
        }
    }

    let (rss_held_kb, threads_held) = (proc_rss_kb(), server_threads());
    let held = net.stats();

    // Hold the fleet idle: nothing polls, nothing spins — the loop thread
    // blocks in the reactor the whole time.
    let hold_ms: u64 = if fast { 150 } else { 500 };
    std::thread::sleep(Duration::from_millis(hold_ms));
    let after_hold = net.stats();

    // Drop all N clients at once: every live session takes the
    // disconnect-park path and the fleet drains to zero, with every
    // session parked.
    let t_drain = Instant::now();
    drop(clients);
    let stage = Stage::start("drain");
    loop {
        let stats = net.stats();
        if stats.live == 0 && stats.disconnect_parked >= connections as u64 {
            break;
        }
        stage.left();
        std::thread::sleep(Duration::from_millis(2));
    }
    let drain_ms = t_drain.elapsed().as_secs_f64() * 1e3;
    let end = net.stats();

    let t_stop = Instant::now();
    net.shutdown();
    let shutdown_ms = t_stop.elapsed().as_secs_f64() * 1e3;

    trial.int("connections", connections as u64);
    trial.int("requested", requested as u64);
    trial.int("nofile_soft", nofile_soft);
    trial.int("templates", templates.len() as u64);
    trial.summary_us("connect_", Summary::of_or_zero(&connect_us));
    trial.summary_us("admit_", Summary::of_or_zero(&admit_us));
    trial.int("zero_plan_starts", zero_plan_starts);
    trial.int("rss_before_kb", rss_before_kb);
    trial.int("rss_held_kb", rss_held_kb);
    // Process-wide userspace growth per held connection.
    trial.num_lower(
        "kb_per_conn",
        rss_held_kb.saturating_sub(rss_before_kb) as f64 / connections as f64,
    );
    trial.int("threads_before", threads_before);
    trial.int("threads_held", threads_held);
    trial.int("live_held", held.live);
    trial.int("live_after_hold", after_hold.live);
    trial.int("hold_ms", hold_ms);
    trial.int_lower("faulted", end.faulted);
    trial.int_lower("stalled", end.stalled);
    trial.int("coalesced_events", end.coalesced_events);
    trial.int("outbound_high_water", end.outbound_high_water);
    trial.int("frames_in", end.frames_in);
    trial.int("frames_out", end.frames_out);
    trial.int("accepted", end.accepted);
    trial.int("disconnect_parked", end.disconnect_parked);
    trial.num_lower("drain_ms", drain_ms);
    trial.num_lower("shutdown_ms", shutdown_ms);
}

/// Runs the experiment at `requested` connections, clamped to what the
/// file-descriptor limit allows (each held connection costs two fds in
/// this single-process harness: the client socket and the server socket).
pub fn net_scale_experiment(requested: usize, fast: bool) -> ExperimentReport {
    Experiment::new("net-scale", fast, || ())
        .title(format!(
            "net-scale: holding {requested} idle sessions on one event loop"
        ))
        .variant("capacity", "hold", move |_, t| run_hold(requested, fast, t))
        .conclusion(
            "N connections, zero new threads, bounded per-connection memory; \
             the bulk disconnect parks every session warm.",
        )
        .run()
}
