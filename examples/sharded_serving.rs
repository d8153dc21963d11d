//! Sharded serving demo: ~64 sessions across 4 shards, admission-controlled,
//! with a kill/restore cycle over the persistent warm state.
//!
//! ```text
//! cargo run --release --example sharded_serving
//! ```
//!
//! The demo exercises the three serving-front guarantees end to end:
//!
//! (a) **warm routing** — a repeated fingerprint routes home, resumes the
//!     optimizer parked in the shards' shared warm store, and reports a
//!     cache hit (first invocation generates zero plans);
//! (b) **backpressure** — submissions beyond the admission bound are
//!     degraded (coarser resolution ladder) or rejected, never queued
//!     without bound;
//! (c) **persistence** — after snapshot → kill → restore, the first
//!     invocation of a known query still generates zero fresh plans
//!     (asserted via `OptimizerStats`/`InvocationReport`).

use moqo::prelude::*;
use moqo::serve::TicketStatus;
use moqo::viz::TextTable;
use std::sync::Arc;
use std::time::Duration;

const IDLE: Duration = Duration::from_secs(300);

fn server(snapshot_tag: &str) -> (MoqoServer, SnapshotStore) {
    let model = Arc::new(StandardCostModel::paper_metrics());
    let schedule = ResolutionSchedule::linear(4, 1.02, 0.4);
    let config = ServeConfig {
        shard: ShardConfig {
            shards: 4,
            engine: EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
            rebalance_headroom: 8,
        },
        admission: AdmissionConfig {
            max_live: 48,
            policy: AdmissionPolicy::Degrade {
                // Load shedding via the resolution ladder: overload
                // sessions run 2 coarse levels instead of 5 fine ones.
                schedule: ResolutionSchedule::linear(1, 1.25, 0.5),
                hard_cap: 60,
            },
        },
        ..ServeConfig::default()
    };
    let store = SnapshotStore::new(std::env::temp_dir().join(snapshot_tag));
    (MoqoServer::new(model, schedule, config), store)
}

/// A skewed template workload: a few hot query shapes dominate, the tail
/// is ad hoc — the distribution warm caches thrive on.
fn workload() -> Vec<Arc<QuerySpec>> {
    let mut templates: Vec<Arc<QuerySpec>> = Vec::new();
    for name in ["q03", "q05", "q07", "q09"] {
        templates.push(Arc::new(
            moqo::tpch::query_block(name, 0.01).expect("tpch block"),
        ));
    }
    for n in 2..=5 {
        templates.push(Arc::new(moqo::query::testkit::chain_query(n, 60_000)));
        templates.push(Arc::new(moqo::query::testkit::star_query(n, 90_000)));
    }
    for seed in [3, 7, 11, 13] {
        templates.push(Arc::new(moqo::query::testkit::random_query(4, seed)));
    }
    // Zipf-ish skew: template k is submitted ~16/(k+1) times, 64 total.
    let mut specs = Vec::new();
    let mut k = 0usize;
    while specs.len() < 64 {
        let copies = (16 / (k + 1)).max(1);
        for _ in 0..copies {
            if specs.len() < 64 {
                specs.push(templates[k % templates.len()].clone());
            }
        }
        k += 1;
    }
    specs
}

fn main() {
    let snapshot_tag = format!("moqo-sharded-serving-{}", std::process::id());
    let (srv, store) = server(&snapshot_tag);
    let specs = workload();
    println!(
        "submitting {} sessions (skewed over {} distinct fingerprints) to 4 shards...",
        specs.len(),
        {
            let mut fps: Vec<u64> = specs
                .iter()
                .map(|s| srv.engine().fingerprint(s).as_u64())
                .collect();
            fps.sort_unstable();
            fps.dedup();
            fps.len()
        }
    );

    // --- Phase 1: burst admission. Beyond max_live=48 the degrade policy
    // kicks in; beyond hard_cap=60 submissions are rejected outright. ---
    // Admission decisions are protocol-level responses, visible at
    // submission time without a poll round-trip.
    let mut tickets: Vec<Ticket> = Vec::new();
    let (mut full, mut degraded, mut rejected) = (0, 0, 0);
    for spec in &specs {
        let (t, response) = srv
            .submit(SessionRequest::new(spec.clone()))
            .expect("well-formed request");
        tickets.push(t);
        match response {
            AdmissionResponse::Admitted => full += 1,
            AdmissionResponse::Degraded { .. } => degraded += 1,
            AdmissionResponse::Rejected(_) => rejected += 1,
            AdmissionResponse::Queued { .. } => unreachable!("degrade policy never queues"),
        }
    }
    println!(
        "admission under burst: {full} full-resolution, {degraded} degraded, {rejected} rejected"
    );
    // (b) backpressure: the overload was shed, not buffered.
    assert_eq!(full, 48, "admission bound not enforced");
    assert_eq!(degraded, 12, "degrade window not applied");
    assert_eq!(rejected, 4, "hard cap not enforced");
    assert_eq!(srv.stats().pending, 0, "nothing may queue unboundedly");

    assert!(srv.wait_idle(IDLE), "shards did not drain");
    let mut table = TextTable::new(vec![
        "shard",
        "live",
        "warm opens",
        "exact misses",
        "rebalanced in",
        "plan-cache hits",
    ]);
    for s in srv.stats().shards {
        table.row(vec![
            s.shard.to_string(),
            s.live.to_string(),
            s.warm_routed.to_string(),
            s.cache.misses.to_string(),
            s.rebalanced_in.to_string(),
            s.plans.hits.to_string(),
        ]);
    }
    println!("{}", table.render());

    // --- Phase 2: retire everything; frontiers park in the shared store. ---
    for &t in &tickets {
        let _ = srv.finish(t);
    }
    assert_eq!(srv.stats().live, 0);

    // (a) warm routing: with every shard idle, a repeat of a hot template
    // routes home, resumes its parked frontier and generates zero plans.
    let hot = specs[0].clone();
    let fp = srv.engine().fingerprint(&hot);
    let home = srv.engine().home_shard(fp);
    let (t, response) = srv.submit(hot.clone()).expect("well-formed request");
    assert!(response.is_admitted());
    assert!(srv.wait_idle(IDLE));
    match srv.poll(t).expect("known ticket") {
        TicketStatus::Active { session, view, .. } => {
            assert_eq!(session.shard, home, "an idle deployment routes home");
            let warm_start = srv.engine().status(session).expect("known").warm_start;
            assert!(warm_start, "session missed the warm store");
            let first = view.first_report.as_ref().expect("ran");
            assert_eq!(first.plans_generated, 0, "warm start rebuilt plans");
            println!(
                "warm repeat of '{}': shard {} (home {}), \
                 first invocation generated {} plans, frontier {}",
                hot.name,
                session.shard,
                home,
                first.plans_generated,
                view.frontier.len()
            );
        }
        other => panic!("expected active warm repeat, got {other:?}"),
    }
    srv.finish(t).expect("retire warm repeat");

    // --- Phase 3: snapshot, kill, restore. ---
    let saved = store.save(srv.engine()).expect("snapshot");
    println!(
        "snapshot: {} frontier file(s), {} bytes -> {}",
        saved.written,
        saved.bytes,
        store.dir().display()
    );
    assert!(saved.written > 0);
    drop(srv); // kill: worker pools join, every in-memory frontier is gone

    let (srv2, _) = server(&snapshot_tag);
    let restored = store.restore(srv2.engine()).expect("restore");
    println!("restarted server: {restored}");
    assert_eq!(restored.restored, saved.written);
    assert!(restored.skipped.is_empty());

    // (c) persistence: the restarted server's first invocation of a known
    // query generates zero fresh plans.
    let (t, _) = srv2.submit(hot.clone()).expect("well-formed request");
    assert!(srv2.wait_idle(IDLE));
    match srv2.poll(t).expect("known ticket") {
        TicketStatus::Active { session, view, .. } => {
            let warm_start = srv2.engine().status(session).expect("known").warm_start;
            assert!(warm_start, "restored frontier not found");
            let first = view.first_report.as_ref().expect("ran");
            assert_eq!(
                first.plans_generated, 0,
                "restored frontier regenerated plans"
            );
            println!(
                "post-restore repeat of '{}': first invocation generated {} plans \
                 ({} tradeoffs served from disk-persisted state)",
                hot.name,
                first.plans_generated,
                view.frontier.len()
            );
        }
        other => panic!("expected active post-restore repeat, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(store.dir());
    println!("ok: warm routing, bounded admission, and restart persistence all verified");
}
