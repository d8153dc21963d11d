//! Fleet integration: placement routing, planned rebalance and node
//! death with the shared store read on first demand, and client
//! failover — all over real loopback sockets (in-process nodes, so kills are
//! deterministic and CI-cheap; `repro fleet` runs the same story with
//! real processes).

use moqo_costmodel::{SharedCostModel, StandardCostModel};
use moqo_fleet::{share, FleetClient, FleetNode, FleetNodeConfig, FleetRouter, Placement};
use moqo_query::testkit;
use moqo_serve::TicketStatus;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const IDLE: Duration = Duration::from_secs(60);

/// Starts a named stage with a 30 s deadline. The returned closure gives
/// the time left and panics, naming the stage, once it is up, so a stuck
/// stage fails by name instead of blocking a whole `IDLE` wait.
fn stage(name: &'static str) -> impl Fn() -> Duration {
    let deadline = Instant::now() + Duration::from_secs(30);
    move || {
        let left = deadline.saturating_duration_since(Instant::now());
        assert!(
            !left.is_zero(),
            "soak stage `{name}` missed its 30 s deadline"
        );
        left
    }
}

fn model() -> SharedCostModel {
    Arc::new(StandardCostModel::paper_metrics())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("moqo-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Blocks until a sweep persisted `fp` into the shared directory.
fn wait_for_sweep(dir: &std::path::Path, fp: moqo_engine::QueryFingerprint) {
    let file = dir.join(format!("{:016x}.frontier", fp.as_u64()));
    let deadline = Instant::now() + IDLE;
    while !file.exists() {
        assert!(Instant::now() < deadline, "sweep never persisted {file:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Starts `n` loopback nodes and a placement listing them.
fn fleet(
    n: usize,
    tag: &str,
    store: Option<&PathBuf>,
) -> (HashMap<String, FleetNode>, moqo_fleet::SharedPlacement) {
    let mut nodes = HashMap::new();
    let mut placement = Placement::new();
    for i in 0..n {
        let id = format!("{tag}-{i}");
        let mut config = FleetNodeConfig::loopback(&id);
        if let Some(dir) = store {
            config = config.with_store(dir).with_sweep(Duration::from_millis(30));
        }
        let node = FleetNode::start(model(), config).expect("bind loopback");
        placement.add_node(&id, node.addr());
        nodes.insert(id, node);
    }
    (nodes, share(placement))
}

/// Runs one session to completion (full ladder, then cancel), returning
/// the id of the node that served it and the first invocation's report.
fn run_once(
    client: &FleetClient,
    spec: Arc<moqo_query::QuerySpec>,
) -> (String, moqo_core::InvocationReport) {
    let mut session = client
        .submit(moqo_serve::SessionRequest::new(spec))
        .expect("routed");
    assert!(session.admission.is_admitted());
    while session.client.view().invocations < 3 {
        session.client.recv(IDLE).expect("stream healthy");
    }
    let first = session.client.view().first_report.clone().unwrap();
    session
        .client
        .command(moqo_serve::SessionCommand::Cancel)
        .expect("send");
    session.client.wait_finished(IDLE).expect("terminal event");
    (session.node, first)
}

#[test]
fn sessions_route_to_the_placement_home() {
    let (nodes, placement) = fleet(3, "route", None);
    let client = FleetClient::new(placement.clone(), model());
    for n in 2..=5 {
        let spec = Arc::new(testkit::chain_query(n, 45_000));
        let fp = client.fingerprint(&moqo_serve::SessionRequest::new(spec.clone()));
        let expected = placement
            .read()
            .unwrap()
            .home_of(fp)
            .expect("live fleet")
            .id
            .clone();
        let (served_by, _) = run_once(&client, spec);
        assert_eq!(served_by, expected);
        // The frontier parked where placement says the key lives.
        assert!(nodes[&served_by].net().moqo().engine().has_parked(fp));
    }
    // Per-node route counters account for every submitted session, and
    // a route never bumps the placement version (topology unchanged).
    let placement = placement.read().unwrap();
    assert_eq!(placement.route_counts().values().sum::<u64>(), 4);
    assert_eq!(
        placement.version(),
        3,
        "routes must not look like rebalances"
    );
    drop(placement);
    for (_, node) in nodes {
        node.stop();
    }
}

#[test]
fn planned_rebalance_ships_warm_state_between_processes() {
    // The old home's sweep reaches the shared store; the router only
    // pins the key; the new home reads the file on the repeat's open.
    let dir = temp_dir("rebalance");
    let (nodes, placement) = fleet(2, "rebalance", Some(&dir));
    let client = FleetClient::new(placement.clone(), model());
    let spec = Arc::new(testkit::chain_query(4, 61_000));
    let fp = client.fingerprint(&moqo_serve::SessionRequest::new(spec.clone()));
    let (old_home, _) = run_once(&client, spec.clone());
    let new_home = nodes.keys().find(|id| **id != old_home).unwrap().clone();
    wait_for_sweep(&dir, fp);

    let router = FleetRouter::new(placement.clone());
    assert!(router.rebalance(fp, "no-such-node").is_err());
    router.rebalance(fp, &new_home).expect("live target");
    assert!(!nodes[&new_home].net().moqo().engine().has_parked(fp));
    // The repeat routes to the new home (override pin) and starts warm
    // from the old home's sweep: zero plans generated.
    let (node, first) = run_once(&client, spec);
    assert_eq!(node, new_home);
    assert_eq!(
        first.plans_generated, 0,
        "warm repeat after rebalance must not regenerate plans"
    );
    for (_, node) in nodes {
        node.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_home_is_detected_and_survivor_adopts_from_the_shared_store() {
    let dir = temp_dir("adopt");
    let (mut nodes, placement) = fleet(3, "adopt", Some(&dir));
    let client = FleetClient::new(placement.clone(), model());
    let spec = Arc::new(testkit::chain_query(4, 83_000));
    let fp = client.fingerprint(&moqo_serve::SessionRequest::new(spec.clone()));
    let (home, _) = run_once(&client, spec.clone());
    wait_for_sweep(&dir, fp);

    // Kill the home (crash semantics: no final save) and repeat at once,
    // with no router call: the client finds the body itself, and the
    // key's new home reads the dead node's last sweep from the shared
    // store on the repeat's open.
    nodes.remove(&home).unwrap().kill();
    let mut repeat = client
        .submit(moqo_serve::SessionRequest::new(spec))
        .expect("routed around the corpse");
    assert!(placement.read().unwrap().node(&home).unwrap().dead);
    let new_home = placement.read().unwrap().home_of(fp).unwrap().id.clone();
    assert_ne!(new_home, home);
    assert_eq!(repeat.node, new_home);
    while repeat.client.view().invocations < 3 {
        repeat.client.recv(IDLE).expect("stream healthy");
    }
    let first = repeat.client.view().first_report.clone().unwrap();
    assert_eq!(
        first.plans_generated, 0,
        "the store's frontier must serve the repeat with zero plans"
    );
    repeat
        .client
        .command(moqo_serve::SessionCommand::Cancel)
        .expect("send");
    repeat.client.wait_finished(IDLE).expect("terminal event");
    let ticket = moqo_serve::Ticket::from_u64(repeat.client.server_ticket().unwrap());
    match nodes[&new_home].net().moqo().poll(ticket) {
        Some(TicketStatus::Active { view, .. }) => {
            assert!(repeat.client.view().frontier.bits_eq(&view.frontier));
            assert_eq!(repeat.client.view().epoch, view.epoch);
        }
        other => panic!("expected an active ticket, got {other:?}"),
    }
    // The client's failover marked the body; the router's probe then
    // checks only the survivors, and finds them alive.
    let health = FleetRouter::new(placement.clone()).probe();
    assert!(
        health.len() == 2 && health.iter().all(|h| h.id != home && h.alive),
        "{health:?}"
    );
    for (_, node) in nodes {
        node.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watch_loop_adopts_orphans_and_levels_a_skewed_fleet() {
    let dir = temp_dir("watch");
    let (mut nodes, placement) = fleet(3, "watch", Some(&dir));
    let client = FleetClient::new(placement.clone(), model());
    let router = FleetRouter::new(placement.clone());
    let specs: Vec<Arc<moqo_query::QuerySpec>> = (2..=5)
        .map(|n| Arc::new(testkit::chain_query(n, 47_000)))
        .collect();
    let fps: Vec<_> = specs
        .iter()
        .map(|s| client.fingerprint(&moqo_serve::SessionRequest::new(s.clone())))
        .collect();

    // Skew the fleet on purpose: pin every key to one node and park the
    // whole workload there.
    let skew_home = "watch-0".to_string();
    for fp in &fps {
        placement.write().unwrap().set_override(*fp, &skew_home);
    }
    for spec in &specs {
        assert_eq!(run_once(&client, spec.clone()).0, skew_home);
    }

    // A healthy-fleet tick with rebalancing off is pure observation.
    let quiet = router.watch_tick(&fps, usize::MAX);
    assert!(quiet.died.is_empty() && quiet.orphaned == 0 && quiet.rebalanced == 0);
    assert_eq!(quiet.health.len(), 3);

    // Ticks with tight headroom level the skew one pin at a time.
    let mut moved = 0usize;
    for _ in 0..fps.len() {
        moved += router.watch_tick(&fps, 1).rebalanced;
    }
    let spread = {
        let placement = placement.read().unwrap();
        let counts: Vec<usize> = placement
            .live_nodes()
            .map(|n| {
                fps.iter()
                    .filter(|fp| placement.home_of(**fp).unwrap().id == n.id)
                    .count()
            })
            .collect();
        counts.iter().max().unwrap() - counts.iter().min().unwrap()
    };
    assert!(moved >= 2, "a 4-0-0 skew needs two moves to level out");
    assert!(spread <= 1, "ticks must converge to a level fleet");

    // Wait until every key's frontier reached the shared store, then
    // kill one key's current home: the next tick must find the body and
    // count its keys, and each orphan's repeat starts warm on a survivor.
    for fp in &fps {
        wait_for_sweep(&dir, *fp);
    }
    let victim = placement
        .read()
        .unwrap()
        .home_of(fps[0])
        .unwrap()
        .id
        .clone();
    let orphans: Vec<usize> = {
        let placement = placement.read().unwrap();
        (0..fps.len())
            .filter(|&i| placement.home_of(fps[i]).unwrap().id == victim)
            .collect()
    };
    nodes.remove(&victim).unwrap().kill();
    let tick = router.watch_tick(&fps, usize::MAX);
    assert_eq!(tick.died, vec![victim.clone()]);
    assert_eq!(tick.orphaned, orphans.len());
    for &i in &orphans {
        let (node, first) = run_once(&client, specs[i].clone());
        assert_ne!(node, victim);
        assert_eq!(first.plans_generated, 0, "orphan {i} started cold");
    }

    // The loop idles once the fleet is healthy again.
    let after = router.watch_tick(&fps, usize::MAX);
    assert!(after.died.is_empty() && after.orphaned == 0);
    assert_eq!(after.health.len(), 2);
    for (_, node) in nodes {
        node.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn idle_sessions_soak_through_sweep_and_probe_periods() {
    // The fleet-level soak: dozens of idle interactive sessions held
    // open while the nodes' persistence sweepers and the router's
    // probe loop keep running. Nothing may fault, no event may be
    // lost, and `live` must stay exactly stable until the clients act.
    const SESSIONS: usize = 48;
    let dir = temp_dir("soak");
    let (nodes, placement) = fleet(2, "soak", Some(&dir));
    let client = FleetClient::new(placement.clone(), model());
    let router = FleetRouter::new(placement.clone());

    let live_total = || -> usize { nodes.values().map(|n| n.net().moqo().stats().live).sum() };
    let faulted_total = || -> u64 { nodes.values().map(|n| n.net().stats().faulted).sum() };

    let mut sessions = Vec::with_capacity(SESSIONS);
    let mut fps = Vec::with_capacity(SESSIONS);
    let left = stage("submit");
    for i in 0..SESSIONS {
        let spec = Arc::new(testkit::chain_query(2 + i % 3, 40_000 + 1_000 * i as u64));
        let request = moqo_serve::SessionRequest::new(spec);
        fps.push(client.fingerprint(&request));
        let mut session = client.submit(request).expect("routed");
        assert!(session.admission.is_admitted());
        while session.client.view().frontier.is_empty()
            || session.client.view().first_report.is_none()
        {
            session.client.recv(left()).expect("stream healthy");
        }
        sessions.push(session);
    }
    assert_eq!(live_total(), SESSIONS);

    // Hold through several 30 ms sweep periods, probing each beat. The
    // probes' connect/handshake/close cycles share the event loops with
    // the idle sessions and must not disturb them.
    for _ in 0..5 {
        std::thread::sleep(Duration::from_millis(40));
        let tick = router.watch_tick(&fps, usize::MAX);
        assert!(tick.died.is_empty(), "a soaking fleet must stay alive");
        assert_eq!(live_total(), SESSIONS, "idle sessions were lost");
        assert_eq!(faulted_total(), 0);
    }

    // Zero event loss. Each session runs one invocation per ladder level
    // and then waits for commands, so a client has caught up once its
    // view counts the whole ladder. Only then is the node's view of the
    // ticket read: polling drains the ticket's event channel, so polling
    // earlier would steal events the loop has not yet forwarded.
    let ladder = FleetNodeConfig::loopback("soak").schedule.levels() as u64;
    let left = stage("ladder delivery");
    for session in &mut sessions {
        while session.client.view().invocations < ladder {
            session.client.recv(left()).expect("stream healthy");
        }
    }
    let left = stage("engine idle");
    for node in nodes.values() {
        assert!(node.net().moqo().wait_idle(left()), "engine stuck busy");
    }
    let left = stage("views match and finish");
    for session in &mut sessions {
        let ticket = moqo_serve::Ticket::from_u64(session.client.server_ticket().unwrap());
        match nodes[&session.node].net().moqo().poll(ticket) {
            Some(TicketStatus::Active { view, .. }) => {
                assert!(session.client.view().frontier.bits_eq(&view.frontier));
                assert_eq!(session.client.view().epoch, view.epoch);
            }
            other => panic!("expected an active ticket, got {other:?}"),
        }
        session
            .client
            .command(moqo_serve::SessionCommand::Cancel)
            .expect("send");
        session
            .client
            .wait_finished(left())
            .expect("terminal event");
    }
    let left = stage("drain");
    while live_total() != 0 {
        left();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(faulted_total(), 0);
    for (_, node) in nodes {
        node.stop();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_failover_marks_the_dead_node_and_reroutes() {
    let (mut nodes, placement) = fleet(2, "failover", None);
    let client = FleetClient::new(placement.clone(), model());
    let spec = Arc::new(testkit::chain_query(3, 52_000));
    let fp = client.fingerprint(&moqo_serve::SessionRequest::new(spec.clone()));
    let home = placement.read().unwrap().home_of(fp).unwrap().id.clone();
    // Kill the home before the first submit: the client must discover
    // the death itself (connect failure), record it, and reroute.
    nodes.remove(&home).unwrap().kill();
    let version_before = placement.read().unwrap().version();
    let (served_by, _) = run_once(&client, spec);
    assert_ne!(served_by, home);
    let placement = placement.read().unwrap();
    assert!(placement.node(&home).unwrap().dead);
    assert!(placement.version() > version_before);
    drop(placement);
    for (_, node) in nodes {
        node.stop();
    }
}

#[test]
fn a_death_a_client_found_first_reaches_the_next_watch_tick() {
    let (mut nodes, placement) = fleet(2, "found", None);
    let client = FleetClient::new(placement.clone(), model());
    let router = FleetRouter::new(placement.clone());
    let spec = Arc::new(testkit::chain_query(3, 57_000));
    let fp = client.fingerprint(&moqo_serve::SessionRequest::new(spec.clone()));
    let home = placement.read().unwrap().home_of(fp).unwrap().id.clone();
    // The client finds the body first and marks it dead itself.
    nodes.remove(&home).unwrap().kill();
    let (served_by, _) = run_once(&client, spec);
    assert_ne!(served_by, home);
    assert!(placement.read().unwrap().node(&home).unwrap().dead);
    // The router's next beat still reports the death and its orphan.
    let tick = router.watch_tick(&[fp], usize::MAX);
    assert_eq!(tick.died, vec![home]);
    assert_eq!(tick.orphaned, 1);
    assert!(tick.health.iter().all(|h| h.alive), "{:?}", tick.health);
    let after = router.watch_tick(&[fp], usize::MAX);
    assert!(after.died.is_empty() && after.orphaned == 0);
    for (_, node) in nodes {
        node.stop();
    }
}
