//! Fleet serving: kill a node, keep the warmth.
//!
//! ```text
//! cargo run --release --example fleet_serving
//! ```
//!
//! Three serving nodes share a snapshot directory, which each reads on
//! a warm-store miss; a placement table (rendezvous hash + override
//! pins) decides which node owns which query fingerprint, and a router
//! probes health.
//! This example asserts the fleet story end to end over real loopback
//! sockets:
//!
//! (a) **placement routing**: sessions land on their fingerprint's home
//!     node, and repeats start warm there (zero plans generated);
//! (b) **kill and repeat**: right after the home node is killed, with
//!     no router call, the client fails over, placement reroutes only
//!     the dead node's keys, the new home reads the frontier from the
//!     shared snapshot directory on the repeat's open, and the warm
//!     repeat **still generates zero plans**; the router's probe then
//!     finds the survivors alive;
//! (c) **bit-exact across the hand-off**: the client-side view of the
//!     post-kill repeat stays `bits_eq` with the serving node's view.

use moqo::fleet::{share, FleetClient, FleetNode, FleetNodeConfig, FleetRouter, Placement};
use moqo::prelude::*;
use moqo::serve::TicketStatus;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const IDLE: Duration = Duration::from_secs(120);

fn spec() -> Arc<QuerySpec> {
    Arc::new(moqo::query::testkit::chain_query(4, 90_000))
}

/// Drives one session to its terminal event; returns the serving node id.
fn run_session(client: &FleetClient, spec: Arc<QuerySpec>) -> String {
    let mut session = client.submit(SessionRequest::new(spec)).expect("routed");
    assert!(session.admission.is_admitted());
    let deadline = Instant::now() + IDLE;
    while session.client.view().invocations < 3 || session.client.view().first_report.is_none() {
        assert!(Instant::now() < deadline, "ladder never saturated");
        session.client.recv(IDLE).expect("healthy stream");
    }
    session
        .client
        .command(SessionCommand::Cancel)
        .expect("send");
    session.client.wait_finished(IDLE).expect("terminal event");
    session.node
}

fn main() {
    let model: SharedCostModel = Arc::new(StandardCostModel::paper_metrics());
    let dir = std::env::temp_dir().join(format!("moqo-fleet-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- Three nodes, one shared snapshot directory, one placement. ---
    let mut nodes: HashMap<String, FleetNode> = HashMap::new();
    let mut placement = Placement::new();
    for i in 0..3 {
        let id = format!("node-{i}");
        let node = FleetNode::start(
            model.clone(),
            FleetNodeConfig::loopback(&id)
                .with_store(&dir)
                .with_sweep(Duration::from_millis(25)),
        )
        .expect("bind loopback");
        println!("{id} listening on {}", node.addr());
        placement.add_node(&id, node.addr());
        nodes.insert(id, node);
    }
    let placement = share(placement);
    let client = FleetClient::new(placement.clone(), model.clone());
    let router = FleetRouter::new(placement.clone());

    // --- (a) Cold pass lands on the placement home and parks there. ---
    let fp = client.fingerprint(&SessionRequest::new(spec()));
    let home = run_session(&client, spec());
    assert_eq!(
        home,
        placement.read().unwrap().home_of(fp).unwrap().id,
        "session must land on the placement home"
    );
    assert!(nodes[&home].net().moqo().engine().has_parked(fp));
    println!("ok: cold session served and parked by its home {home}");

    // Wait for the home's persistence sweeper to reach the shared store.
    let file = dir.join(format!("{:016x}.frontier", fp.as_u64()));
    let deadline = Instant::now() + IDLE;
    while !file.exists() {
        assert!(Instant::now() < deadline, "sweep never persisted");
        std::thread::sleep(Duration::from_millis(10));
    }

    // --- (b) Kill the home and repeat at once; the fleet keeps the
    // warmth. ---
    nodes.remove(&home).expect("home is running").kill();
    let mut repeat = client.submit(SessionRequest::new(spec())).expect("routed");
    let new_home = placement.read().unwrap().home_of(fp).unwrap().id.clone();
    assert_ne!(new_home, home, "a dead node must not own keys");
    assert_eq!(repeat.node, new_home);
    println!("ok: {home} killed; the repeat failed over to {new_home}");
    let deadline = Instant::now() + IDLE;
    while repeat.client.view().invocations < 3 || repeat.client.view().first_report.is_none() {
        assert!(Instant::now() < deadline, "repeat never saturated");
        repeat.client.recv(IDLE).expect("healthy stream");
    }
    let first = repeat.client.view().first_report.clone().unwrap();
    assert_eq!(
        first.plans_generated, 0,
        "warm repeat after the kill must not regenerate plans"
    );
    println!("ok: warm repeat after node death generated 0 plans (read from the store)");
    // The client's failover marked the body dead; the router's probe
    // checks the survivors.
    assert!(placement.read().unwrap().node(&home).unwrap().dead);
    let health = router.probe();
    assert!(
        health.iter().all(|h| h.id != home && h.alive),
        "the survivors must stay alive: {health:?}"
    );

    // --- (c) Client view bits_eq the serving node's view. ---
    repeat.client.command(SessionCommand::Cancel).expect("send");
    repeat.client.wait_finished(IDLE).expect("terminal event");
    let ticket = Ticket::from_u64(repeat.client.server_ticket().unwrap());
    match nodes[&new_home].net().moqo().poll(ticket) {
        Some(TicketStatus::Active { view, .. }) => {
            assert!(
                repeat.client.view().frontier.bits_eq(&view.frontier),
                "client view diverged across the hand-off"
            );
            assert_eq!(repeat.client.view().epoch, view.epoch);
            println!(
                "ok: client view bits_eq the adopting node's view ({} frontier points)",
                view.frontier.len()
            );
        }
        other => panic!("expected a queryable ticket, got {other:?}"),
    }

    let net = nodes[&new_home].net();
    let stats = net.stats();
    let warm_routed: u64 = net
        .moqo()
        .stats()
        .shards
        .iter()
        .map(|s| s.warm_routed)
        .sum();
    println!(
        "{} stats: warm_routed={} disconnect_parked={}",
        new_home, warm_routed, stats.disconnect_parked
    );
    for (_, node) in nodes {
        node.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok: fleet serving verified end to end");
}
