//! Network serving: the session protocol over real loopback TCP.
//!
//! ```text
//! cargo run --release --example network_serving
//! ```
//!
//! PR 3 made the serving front sharded and admission-controlled; PR 4
//! gave all three in-process layers one typed protocol. This example
//! drives the piece that puts that protocol on the network — a
//! [`NetServer`] wrapping a [`MoqoServer`], spoken to by [`NetClient`]s
//! over framed TCP streams — and asserts, end to end over real sockets:
//!
//! (a) **warm state survives the wire**: a repeat submit of a known query
//!     reaches its first frontier with **zero plans generated** (the
//!     parked frontier resumed, exactly as in-process);
//! (b) **admission decisions round-trip typed**: a `Degraded{schedule}`
//!     and a `Rejected(Overloaded)` arrive at the remote client as the
//!     same [`AdmissionResponse`] values the in-process front returns;
//! (c) **bit-exact reassembly**: the client-side [`SessionView`], folded
//!     from delta-streamed events, is `bits_eq` with the server-side
//!     frontier — order and cost bits included.

use moqo::core::RejectReason;
use moqo::prelude::*;
use moqo::serve::TicketStatus;
use std::sync::Arc;
use std::time::{Duration, Instant};

const IDLE: Duration = Duration::from_secs(120);

fn spec() -> Arc<QuerySpec> {
    Arc::new(moqo::query::testkit::chain_query(4, 75_000))
}

fn schedule() -> ResolutionSchedule {
    ResolutionSchedule::linear(3, 1.05, 0.5)
}

fn serve_config(max_live: usize, policy: AdmissionPolicy) -> ServeConfig {
    ServeConfig {
        shard: ShardConfig {
            shards: 2,
            engine: EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
            rebalance_headroom: 8,
        },
        admission: AdmissionConfig { max_live, policy },
        ..ServeConfig::default()
    }
}

/// Drives one full session over TCP: submit, drain the auto-refined
/// ladder, cancel, return the final client view and the server ticket id.
fn run_session(addr: std::net::SocketAddr, spec: Arc<QuerySpec>) -> (moqo::core::SessionView, u64) {
    let mut client = NetClient::connect(addr).expect("connect over loopback");
    let response = client
        .submit(SessionRequest::new(spec), IDLE)
        .expect("well-formed request");
    assert_eq!(
        response,
        AdmissionResponse::Admitted,
        "typed admission must round-trip"
    );
    let deadline = Instant::now() + IDLE;
    while client.view().invocations < schedule().levels() as u64
        || client.view().first_report.is_none()
    {
        assert!(Instant::now() < deadline, "ladder never saturated");
        client.recv(IDLE).expect("healthy event stream");
    }
    assert!(!client.view().frontier.is_empty(), "no frontier streamed");
    client.command(SessionCommand::Cancel).expect("send cancel");
    let view = client.wait_finished(IDLE).expect("terminal event").clone();
    (view, client.server_ticket().expect("admitted ticket"))
}

fn main() {
    let model: SharedCostModel = Arc::new(StandardCostModel::paper_metrics());

    // --- One server, cold then warm, over real loopback TCP. ---
    let server = Arc::new(MoqoServer::new(
        model.clone(),
        schedule(),
        serve_config(64, AdmissionPolicy::Reject),
    ));
    let registry = Arc::new(ModelRegistry::with_default(model.clone()));
    let net = NetServer::bind(server, registry, NetConfig::default()).expect("bind 127.0.0.1:0");
    let addr = net.local_addr();
    println!("net front listening on {addr}");

    // Cold pass: plans are generated from scratch.
    let (cold_view, cold_ticket) = run_session(addr, spec());
    let cold_first = cold_view.first_report.as_ref().expect("first report");
    assert!(
        cold_first.plans_generated > 0,
        "cold start must generate plans"
    );

    // (c) The reassembled client view is bit-exact with the server-side
    // frontier for the same ticket.
    match net
        .moqo()
        .poll(Ticket::from_u64(cold_ticket))
        .expect("closed tickets stay queryable")
    {
        TicketStatus::Active { view, .. } => {
            assert!(
                cold_view.frontier.bits_eq(&view.frontier),
                "client view diverged from the server-side frontier"
            );
            assert_eq!(cold_view.epoch, view.epoch);
            assert_eq!(cold_view.invocations, view.invocations);
            println!(
                "ok: client view bits_eq server view ({} frontier points, {} events)",
                view.frontier.len(),
                view.epoch
            );
        }
        other => panic!("expected queryable ticket, got {other:?}"),
    }

    // (a) Warm repeat over a fresh connection: the cancelled session
    // parked its frontier; the repeat's first invocation generates zero
    // plans — across the wire, same as in-process.
    let (warm_view, _) = run_session(addr, spec());
    let warm_first = warm_view.first_report.as_ref().expect("first report");
    assert_eq!(
        warm_first.plans_generated, 0,
        "warm repeat must resume the parked frontier"
    );
    // Parking renumbers plans (a parked optimizer keeps only the plans a
    // resume can reach), so the two streams agree on every point's cost
    // bits and order, not on plan ids.
    let cost_bits = |view: &moqo::core::SessionView| -> Vec<Vec<u64>> {
        view.frontier
            .points
            .iter()
            .map(|p| p.cost.as_slice().iter().map(|c| c.to_bits()).collect())
            .collect()
    };
    assert_eq!(
        cost_bits(&cold_view),
        cost_bits(&warm_view),
        "warm frontier must match the cold one bit for bit"
    );
    println!(
        "ok: warm repeat over TCP started with 0 plans generated (cold start generated {})",
        cold_first.plans_generated
    );
    let stats = net.stats();
    println!(
        "net stats: {} connections, {} frames in, {} frames out",
        stats.accepted, stats.frames_in, stats.frames_out
    );
    net.shutdown();

    // --- (b) Overload answers round-trip as typed protocol values. ---
    let degrade_ladder = ResolutionSchedule::linear(0, 1.5, 0.5);
    let server = Arc::new(MoqoServer::new(
        model.clone(),
        schedule(),
        serve_config(
            1,
            AdmissionPolicy::Degrade {
                schedule: degrade_ladder.clone(),
                hard_cap: 2,
            },
        ),
    ));
    let registry = Arc::new(ModelRegistry::with_default(model.clone()));
    let net = NetServer::bind(server, registry, NetConfig::default()).expect("bind 127.0.0.1:0");
    let addr = net.local_addr();

    // First client fills the one full-resolution slot (and stays live).
    let mut full = NetClient::connect(addr).expect("connect");
    let response = full
        .submit(SessionRequest::new(spec()), IDLE)
        .expect("admitted");
    assert_eq!(response, AdmissionResponse::Admitted);

    // Second client is admitted under the degraded ladder — the exact
    // schedule arrives typed.
    let mut degraded = NetClient::connect(addr).expect("connect");
    let response = degraded
        .submit(
            SessionRequest::new(Arc::new(moqo::query::testkit::star_query(3, 40_000))),
            IDLE,
        )
        .expect("degraded admission is an Ok response");
    match &response {
        AdmissionResponse::Degraded { schedule } => {
            assert_eq!(schedule, &degrade_ladder, "ladder must round-trip bit-true");
        }
        other => panic!("expected Degraded, got {other:?}"),
    }

    // Third client is over the hard cap: typed rejection.
    let mut rejected = NetClient::connect(addr).expect("connect");
    let response = rejected
        .submit(
            SessionRequest::new(Arc::new(moqo::query::testkit::chain_query(2, 10_000))),
            IDLE,
        )
        .expect("rejection is an Ok response, not a dead socket");
    match response {
        AdmissionResponse::Rejected(RejectReason::Overloaded { live }) => {
            assert_eq!(live, 2, "both live sessions counted at decision time");
        }
        other => panic!("expected Rejected(Overloaded), got {other:?}"),
    }
    println!("ok: Degraded {{schedule}} and Rejected(Overloaded) round-tripped typed");

    // The degraded session still serves a frontier (coarser ladder).
    let deadline = Instant::now() + IDLE;
    while degraded.view().frontier.is_empty() {
        assert!(Instant::now() < deadline, "degraded session never refined");
        degraded.recv(IDLE).expect("healthy stream");
    }
    for client in [&mut full, &mut degraded] {
        client.command(SessionCommand::Cancel).expect("send cancel");
        client.wait_finished(IDLE).expect("terminal event");
    }
    net.shutdown();
    println!("ok: network serving front verified end to end");
}
