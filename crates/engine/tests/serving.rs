//! Integration tests of the serving layer: session isolation, command
//! routing over the session protocol, delta-streamed watch channels, and
//! the warm-frontier cache (including per-session cost-model isolation).

use moqo_core::{Session, WireEncode};
use moqo_cost::{Bounds, ResolutionSchedule};
use moqo_costmodel::{CostModel, SharedCostModel, StandardCostModel, StandardCostModelConfig};
use moqo_engine::{
    CacheStats, Doorbell, EngineConfig, ProtocolError, QueryFingerprint, SessionCommand,
    SessionEvent, SessionId, SessionManager, SessionOutcome, SessionRequest, SessionView,
    SubFrontierCache, SubsetFingerprint, WarmStore,
};
use moqo_query::{testkit, QuerySpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const IDLE: Duration = Duration::from_secs(60);

fn schedule() -> ResolutionSchedule {
    ResolutionSchedule::linear(3, 1.05, 0.5)
}

fn manager(workers: usize) -> SessionManager {
    SessionManager::new(
        Arc::new(StandardCostModel::paper_metrics()),
        schedule(),
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
    )
}

#[test]
fn concurrent_sessions_keep_distinct_frontiers() {
    let m = manager(3);
    // Structurally different queries must end with different frontiers —
    // no state bleeding between concurrently advancing sessions.
    let ids: Vec<_> = [
        Arc::new(testkit::chain_query(2, 50_000)),
        Arc::new(testkit::chain_query(4, 50_000)),
        Arc::new(testkit::star_query(4, 200_000)),
        Arc::new(testkit::clique_query(3, 20_000)),
    ]
    .into_iter()
    .map(|spec| m.submit(spec))
    .collect();
    assert!(m.wait_idle(IDLE), "engine did not drain");
    let statuses: Vec<_> = ids.iter().map(|&id| m.status(id).unwrap()).collect();
    for s in &statuses {
        // Every session ran its full auto ladder and produced plans.
        assert_eq!(s.invocations, schedule().levels() as u64, "{}", s.query);
        assert!(!s.frontier.is_empty(), "{}: empty frontier", s.query);
        assert!(!s.is_finished());
    }
    // Fingerprints (and hence cached state) are all distinct.
    for i in 0..statuses.len() {
        for j in (i + 1)..statuses.len() {
            assert_ne!(statuses[i].fingerprint, statuses[j].fingerprint);
        }
    }
    // Frontier *plan sets* differ: a 2-chain and a 4-chain can't agree.
    let c2 = &statuses[0].frontier;
    let c4 = &statuses[1].frontier;
    assert_ne!(
        (c2.len(), c2.costs().first().map(|c| c[0].to_bits())),
        (c4.len(), c4.costs().first().map(|c| c[0].to_bits())),
    );
}

#[test]
fn warm_cache_hit_generates_zero_plans_on_first_invocation() {
    let m = manager(2);
    let spec = Arc::new(testkit::chain_query(3, 100_000));
    let cold = m.submit(spec.clone());
    assert!(m.wait_idle(IDLE));
    let cold_status = m.status(cold).unwrap();
    assert!(!cold_status.warm_start);
    assert!(
        cold_status.first_report.as_ref().unwrap().plans_generated > 0,
        "cold session must actually build plans"
    );
    let cold_frontier_len = cold_status.frontier.len();
    // Retire the session; its optimizer parks in the frontier cache.
    m.finish(cold).unwrap();

    // An *equivalent* query (fresh spec instance, different display name)
    // hits the cache and resumes from the warm frontier.
    let mut again = testkit::chain_query(3, 100_000);
    again.name = "repeat-of-chain-3".into();
    let warm = m.submit(Arc::new(again));
    assert!(m.wait_idle(IDLE));
    let warm_status = m.status(warm).unwrap();
    assert!(warm_status.warm_start, "expected a frontier-cache hit");
    let first = warm_status.first_report.as_ref().unwrap();
    assert_eq!(
        first.plans_generated, 0,
        "warm start must not regenerate plans"
    );
    assert_eq!(first.pairs_generated, 0);
    assert!(
        warm_status.frontier.len() >= cold_frontier_len,
        "warm frontier lost plans"
    );
    // The cold open missed both the exact and the rebase lookup; the
    // repeat hit and took the optimizer out.
    assert_eq!(
        m.cache_stats(),
        CacheStats {
            hits: 1,
            misses: 1,
            evictions: 0,
            entries: 0,
            rebase_hits: 0,
            rebase_misses: 1,
        }
    );
}

#[test]
fn set_bounds_routes_to_the_right_session_only() {
    let m = manager(2);
    let model_dim = StandardCostModel::paper_metrics().dim();
    let a = m.submit(Arc::new(testkit::chain_query(3, 80_000)));
    let b = m.submit(Arc::new(testkit::star_query(3, 80_000)));
    assert!(m.wait_idle(IDLE));
    let a0 = m.status(a).unwrap();
    let b0 = m.status(b).unwrap();
    // Both ladders ran to saturation.
    assert_eq!(a0.resolution, schedule().r_max());
    assert_eq!(b0.resolution, schedule().r_max());

    // Drag a bound on session A only.
    let t_max = a0.frontier.min_by_metric(0).unwrap().cost[0] * 4.0;
    let tight = Bounds::unbounded(model_dim).with_limit(0, t_max);
    m.command(a, SessionCommand::SetBounds(tight)).unwrap();
    assert!(m.wait_idle(IDLE));

    let a1 = m.status(a).unwrap();
    let b1 = m.status(b).unwrap();
    // A refocused: new bounds, more invocations, ladder re-ran from 0.
    assert_eq!(a1.bounds, tight);
    assert!(a1.invocations > a0.invocations);
    assert!(a1.frontier.points.iter().all(|p| tight.respects(&p.cost)));
    // B untouched: same bounds, same invocation count, same frontier.
    assert_eq!(b1.bounds, b0.bounds);
    assert_eq!(b1.invocations, b0.invocations);
    assert_eq!(b1.frontier.len(), b0.frontier.len());
}

#[test]
fn select_plan_finishes_and_recycles_the_session() {
    let m = manager(2);
    let a = m.submit(Arc::new(testkit::chain_query(2, 30_000)));
    assert!(m.wait_idle(IDLE));
    let choice = m.frontier(a).unwrap().min_by_metric(0).unwrap().plan;
    m.command(a, SessionCommand::SelectPlan(choice)).unwrap();
    assert!(m.wait_idle(IDLE));
    let s = m.status(a).unwrap();
    assert!(s.is_finished());
    assert_eq!(s.selected(), Some(choice));
    // The optimizer was parked for reuse.
    assert_eq!(m.cache_stats().entries, 1);
    // Commands to a finished session are a typed protocol error.
    assert_eq!(
        m.command(a, SessionCommand::Refine),
        Err(ProtocolError::SessionFinished)
    );
    // So are commands to sessions that never existed.
    assert_eq!(
        m.command(9999, SessionCommand::Refine),
        Err(ProtocolError::UnknownSession)
    );
}

#[test]
fn malformed_commands_are_rejected_at_the_door() {
    let m = manager(2);
    let a = m.submit(Arc::new(testkit::chain_query(2, 20_000)));
    // Wrong bounds dimension: typed error, and the worker never sees it.
    assert_eq!(
        m.command(a, SessionCommand::SetBounds(Bounds::unbounded(2))),
        Err(ProtocolError::BoundsDimensionMismatch {
            expected: 3,
            got: 2
        })
    );
    // Wrong preference dimension, same story.
    assert_eq!(
        m.command(
            a,
            SessionCommand::SetPreference(Some(moqo_core::Preference::WeightedSum(vec![1.0])))
        ),
        Err(ProtocolError::WeightDimensionMismatch {
            expected: 3,
            got: 1
        })
    );
    // A NaN-weighted preference is caught at the door too (it would
    // otherwise poison score comparisons inside a worker).
    assert_eq!(
        m.command(
            a,
            SessionCommand::SetPreference(Some(moqo_core::Preference::WeightedSum(vec![
                f64::NAN,
                0.0,
                0.0
            ])))
        ),
        Err(ProtocolError::NonFinitePreference)
    );
    // Selecting a plan that was never visualized is a typed error.
    let bogus = moqo_plan::PlanId(u32::MAX);
    assert!(matches!(
        m.command(a, SessionCommand::SelectPlan(bogus)),
        Err(ProtocolError::UnknownPlan { plan }) if plan == bogus
    ));
    assert!(m.wait_idle(IDLE));
    // The session is unharmed and fully refined.
    let s = m.status(a).unwrap();
    assert!(!s.is_finished());
    assert_eq!(s.invocations, schedule().levels() as u64);
    assert!(!s.frontier.is_empty());
}

#[test]
fn selecting_a_discarded_plan_id_is_a_typed_error() {
    // A join alternative `Prune` discarded took a plan id but holds no
    // arena node. Selecting it, below the issued-id bound, is refused
    // like a made-up id, through the core session and through the
    // manager, and neither session is harmed.
    let spec = Arc::new(testkit::chain_query(4, 90_000));
    let model: SharedCostModel = Arc::new(StandardCostModel::paper_metrics());
    let mut session =
        Session::open(SessionRequest::new(spec.clone()), model.clone(), schedule()).unwrap();
    session.run_uninterrupted(schedule().levels());
    let arena = session.optimizer().arena();
    let hole = (0..arena.issued() as u32)
        .map(moqo_plan::PlanId)
        .find(|&p| arena.get(p).is_none())
        .expect("the ladder discarded an alternative");
    assert!(matches!(
        session.apply(SessionCommand::SelectPlan(hole)),
        Err(ProtocolError::UnknownPlan { plan }) if plan == hole
    ));
    assert!(!session.is_finished());
    let chosen = session.frontier().points[0].plan;
    assert!(session.apply(SessionCommand::SelectPlan(chosen)).is_ok());

    // The manager's cold session over the same request and model runs
    // the same ladder, so the id is a hole of its arena too.
    let m = manager(2);
    let id = m.submit(spec);
    assert!(m.wait_idle(IDLE));
    assert!(matches!(
        m.command(id, SessionCommand::SelectPlan(hole)),
        Err(ProtocolError::UnknownPlan { plan }) if plan == hole
    ));
    assert!(m.wait_idle(IDLE));
    let status = m.status(id).unwrap();
    assert!(!status.is_finished());
    let chosen = status.frontier.points[0].plan;
    m.command(id, SessionCommand::SelectPlan(chosen)).unwrap();
    assert!(m.wait_idle(IDLE));
    assert_eq!(m.status(id).unwrap().selected(), Some(chosen));
}

#[test]
fn eight_plus_concurrent_sessions_drain_on_a_small_pool() {
    let m = manager(3);
    let mut ids = Vec::new();
    for n in 2..=5 {
        ids.push(m.submit(Arc::new(testkit::chain_query(n, 40_000))));
        ids.push(m.submit(Arc::new(testkit::star_query(n, 40_000))));
        ids.push(m.submit(Arc::new(testkit::random_query(n, n as u64))));
    }
    assert!(ids.len() >= 8);
    assert!(m.wait_idle(IDLE), "pool failed to drain 12 sessions");
    for id in ids {
        let s = m.status(id).unwrap();
        assert_eq!(s.invocations, schedule().levels() as u64, "{}", s.query);
        assert!(!s.frontier.is_empty(), "{}", s.query);
    }
}

#[test]
fn per_session_schedule_override_degrades_the_ladder() {
    let m = manager(2);
    // A degraded session runs a one-level ladder at a coarse target while
    // the manager-wide schedule keeps four levels.
    let coarse = ResolutionSchedule::linear(0, 1.5, 0.5);
    let deg = m
        .open(
            SessionRequest::new(Arc::new(testkit::chain_query(3, 60_000)))
                .with_schedule(coarse.clone()),
        )
        .unwrap();
    let full = m.submit(Arc::new(testkit::chain_query(4, 60_000)));
    assert!(m.wait_idle(IDLE));
    let d = m.status(deg).unwrap();
    let f = m.status(full).unwrap();
    assert!(d.schedule_override);
    assert!(!f.schedule_override);
    // The degraded session's refinement budget is its own ladder length.
    assert_eq!(d.invocations, coarse.levels() as u64);
    assert_eq!(f.invocations, schedule().levels() as u64);
    assert!(
        !d.frontier.is_empty(),
        "degraded session still serves plans"
    );
}

#[test]
fn warm_resume_ignores_the_schedule_override() {
    let m = manager(2);
    let spec = Arc::new(testkit::chain_query(3, 90_000));
    let cold = m.submit(spec.clone());
    assert!(m.wait_idle(IDLE));
    m.finish(cold).unwrap();
    // Resubmit with a degrade override: the warm frontier wins.
    let warm = m
        .open(SessionRequest::new(spec).with_schedule(ResolutionSchedule::linear(0, 1.5, 0.5)))
        .unwrap();
    assert!(m.wait_idle(IDLE));
    let s = m.status(warm).unwrap();
    assert!(s.warm_start);
    assert!(!s.schedule_override, "warm resume keeps the parked ladder");
    assert_eq!(
        s.first_report.as_ref().unwrap().plans_generated,
        0,
        "warm start must not regenerate plans"
    );
}

#[test]
fn watch_streams_deltas_that_reassemble_to_the_exact_frontier() {
    let m = manager(2);
    let id = m.submit(Arc::new(testkit::chain_query(3, 70_000)));
    let rx = m.watch(id, None).expect("live session is watchable");
    // The subscription primes itself with a reset-delta event...
    let first = rx.recv_timeout(IDLE).expect("primed event");
    assert!(first.delta.reset);
    let mut view = SessionView::default();
    view.fold(&first).unwrap();
    // ...and then delivers one event per completed slice until the
    // session parks; fold until the ladder saturates.
    while view.invocations < schedule().levels() as u64 {
        let ev = rx.recv_timeout(IDLE).expect("slice event");
        view.fold(&ev).unwrap();
    }
    assert!(!view.frontier.is_empty());
    // The reassembled frontier is bit-exact against the server's.
    assert!(view.frontier.bits_eq(&m.frontier(id).unwrap()));
    // Warm evidence flowed through the stream, not a status query.
    assert!(view.first_report.is_some());
    // Finishing delivers a final outcome event on the same channel.
    m.finish(id).unwrap();
    let fin = rx.recv_timeout(IDLE).expect("final event");
    assert_eq!(fin.outcome, Some(SessionOutcome::Retired));
    view.fold(&fin).unwrap();
    assert!(view.is_finished());
    // Unknown sessions are not watchable.
    assert!(m.watch(9999, None).is_none());
}

#[test]
fn watched_session_publishes_at_most_one_invocation_per_event() {
    // A worker runs one command per checkout, so every event after the
    // primer advances the invocation count by at most one, and carries a
    // report exactly when it does.
    let m = manager(2);
    let id = m.submit(Arc::new(testkit::chain_query(4, 60_000)));
    let rx = m.watch(id, None).expect("live session is watchable");
    let mut last = rx.recv_timeout(IDLE).expect("primed event").invocations;
    let check = |last: u64, ev: &moqo_engine::SessionEvent| {
        assert!(
            ev.invocations <= last + 1,
            "{} after {last}",
            ev.invocations
        );
        assert_eq!(ev.report.is_some(), ev.invocations == last + 1);
        ev.invocations
    };
    while last < schedule().levels() as u64 {
        last = check(last, &rx.recv_timeout(IDLE).expect("slice event"));
    }
    // A bound change re-arms the ladder: its invocations stream one per
    // event as well.
    let t = m.frontier(id).unwrap().min_by_metric(0).unwrap().cost[0];
    let dim = m.model().dim();
    m.command(
        id,
        SessionCommand::SetBounds(Bounds::unbounded(dim).with_limit(0, 2.0 * t)),
    )
    .unwrap();
    assert!(m.wait_idle(IDLE));
    m.finish(id).unwrap();
    loop {
        let ev = rx.recv_timeout(IDLE).expect("event");
        last = check(last, &ev);
        if ev.outcome.is_some() {
            break;
        }
    }
    assert!(last > schedule().levels() as u64);
}

#[test]
fn park_and_probe_expose_the_cache_to_serving_layers() {
    let m = manager(2);
    let spec = Arc::new(testkit::chain_query(3, 45_000));
    let model = m.model();
    let fp = moqo_engine::QueryFingerprint::of(&spec, &model);
    assert!(!m.store().contains(fp));
    // Build a warm optimizer out-of-band and park it (the restore path).
    let mut opt = moqo_core::IamaOptimizer::new(spec.clone(), m.model(), schedule());
    let b = Bounds::unbounded(m.model().dim());
    for r in 0..=schedule().r_max() {
        opt.optimize(&b, r);
    }
    m.park(fp, opt);
    assert!(m.store().contains(fp));
    assert_eq!(
        m.store().with_parked(fp, |opt| opt.spec().n_tables()),
        Some(3)
    );
    assert_eq!(m.store().map_parked(|pfp, _| pfp), vec![fp]);
    // The next submission of an equivalent query starts warm.
    let id = m.submit(spec);
    assert!(m.wait_idle(IDLE));
    let s = m.status(id).unwrap();
    assert!(s.warm_start);
    assert_eq!(s.first_report.as_ref().unwrap().plans_generated, 0);
}

#[test]
fn live_sessions_tracks_admission_load() {
    let m = manager(2);
    assert_eq!(m.live_sessions(), 0);
    let a = m.submit(Arc::new(testkit::chain_query(2, 10_000)));
    let b = m.submit(Arc::new(testkit::chain_query(3, 10_000)));
    assert_eq!(m.live_sessions(), 2);
    assert!(m.wait_idle(IDLE));
    // Parked-but-unfinished sessions still count as live.
    assert_eq!(m.live_sessions(), 2);
    m.finish(a).unwrap();
    assert_eq!(m.live_sessions(), 1);
    // Selecting a plan retires the session and sheds its load.
    let choice = m.frontier(b).unwrap().min_by_metric(0).unwrap().plan;
    m.command(b, SessionCommand::SelectPlan(choice)).unwrap();
    assert!(m.wait_idle(IDLE));
    assert_eq!(m.live_sessions(), 0);
}

#[test]
fn similar_queries_share_one_enumeration_plan() {
    let m = manager(2);
    // Three chain-4 queries with pairwise different statistics: distinct
    // fingerprints (no frontier sharing) but one join-graph shape.
    let ids: Vec<_> = [10_000u64, 50_000, 250_000]
        .into_iter()
        .map(|card| m.submit(Arc::new(testkit::chain_query(4, card))))
        .collect();
    // A different shape forces a second plan.
    let star = m.submit(Arc::new(testkit::star_query(4, 100_000)));
    assert!(m.wait_idle(IDLE));
    for id in ids.iter().chain([&star]) {
        assert!(!m.frontier(*id).unwrap().is_empty());
    }
    let plans = m.plan_cache_stats();
    assert_eq!(plans.entries, 2, "expected one plan per shape");
    assert_eq!(plans.misses, 2);
    assert_eq!(plans.hits, 2, "similar chain queries must share the plan");
    // No frontier-cache involvement: these are four distinct fingerprints.
    assert_eq!(m.cache_stats().hits, 0);
}

#[test]
fn preference_requests_auto_select_without_a_round_trip() {
    let m = manager(2);
    let pref = moqo_core::Preference::WeightedSum(vec![1.0, 0.01, 0.01]);
    let id = m
        .open(
            SessionRequest::new(Arc::new(testkit::chain_query(3, 55_000)))
                .with_preference(pref.clone()),
        )
        .unwrap();
    assert!(m.wait_idle(IDLE));
    let s = m.status(id).unwrap();
    match s.outcome {
        Some(SessionOutcome::Selected {
            plan,
            by_preference,
        }) => {
            assert!(by_preference, "the preference must have fired");
            // The selection matches what the preference would pick from
            // the final frontier.
            let best = pref.select(&s.frontier, &s.bounds).unwrap().unwrap();
            assert_eq!(plan, best.plan);
        }
        other => panic!("expected an auto-selected outcome, got {other:?}"),
    }
    // The session retired on its own; its frontier parked for reuse.
    assert_eq!(m.live_sessions(), 0);
    assert_eq!(m.cache_stats().entries, 1);
}

#[test]
fn per_session_cost_models_share_nothing_across_models() {
    // One manager, one query, two cost models (same metric layout,
    // different parameters). The fingerprint embeds the model identity,
    // so each model's sessions warm only their own parked frontiers —
    // zero crossover.
    let m = manager(2);
    let spec = Arc::new(testkit::chain_query(3, 65_000));
    let custom: SharedCostModel = Arc::new(StandardCostModel::new(
        moqo_costmodel::MetricSet::paper(),
        StandardCostModelConfig {
            dops: vec![1, 2],
            sampling_rates_pm: vec![250],
            ..StandardCostModelConfig::default()
        },
    ));
    let default_id = m.submit(spec.clone());
    let custom_id = m
        .open(SessionRequest::new(spec.clone()).with_cost_model(custom.clone()))
        .unwrap();
    assert!(m.wait_idle(IDLE));
    let d = m.status(default_id).unwrap();
    let c = m.status(custom_id).unwrap();
    assert!(!d.model_override);
    assert!(c.model_override);
    assert_ne!(
        d.fingerprint, c.fingerprint,
        "same query, different model: fingerprints must differ"
    );
    // Different models produce different frontiers over the same query.
    assert_ne!(
        (
            d.frontier.len(),
            d.frontier.costs().first().map(|x| x[0].to_bits())
        ),
        (
            c.frontier.len(),
            c.frontier.costs().first().map(|x| x[0].to_bits())
        ),
    );
    m.finish(default_id).unwrap();
    m.finish(custom_id).unwrap();
    assert_eq!(m.cache_stats().entries, 2, "one parked frontier per model");

    // Resubmitting under each model warms from exactly its own frontier.
    let d2 = m.submit(spec.clone());
    let c2 = m
        .open(SessionRequest::new(spec).with_cost_model(custom))
        .unwrap();
    assert!(m.wait_idle(IDLE));
    let d2s = m.status(d2).unwrap();
    let c2s = m.status(c2).unwrap();
    assert!(d2s.warm_start && c2s.warm_start);
    assert_eq!(d2s.first_report.as_ref().unwrap().plans_generated, 0);
    assert_eq!(c2s.first_report.as_ref().unwrap().plans_generated, 0);
    // Each resumed the frontier its model built (bit-exact lengths and
    // costs match the pre-finish state per model).
    assert_eq!(d2s.frontier.len(), d.frontier.len());
    assert_eq!(c2s.frontier.len(), c.frontier.len());
    let stats = m.cache_stats();
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.entries, 0, "both hits transferred ownership out");
}

#[test]
fn similar_queries_transplant_sub_frontiers() {
    // chain(5) and chain(7) share their even-offset contiguous subchains
    // (testkit chains alternate cardinalities by position parity), so a
    // finished chain(5) session's harvested sub-frontiers seed many table
    // subsets of a later chain(7) session — a warm start across *similar*,
    // not identical, queries.
    let m = manager(2);
    let small = Arc::new(testkit::chain_query(5, 60_000));
    let big = Arc::new(testkit::chain_query(7, 60_000));

    let donor = m.submit(small);
    assert!(m.wait_idle(IDLE));
    m.finish(donor).unwrap();
    let harvested = m.subfrontier_stats();
    assert!(
        harvested.insertions > 0,
        "finish must harvest sub-frontiers"
    );
    assert!(harvested.entries > 0);

    let seeded = m.submit(big.clone());
    assert!(m.wait_idle(IDLE));
    let s = m.status(seeded).unwrap();
    assert!(!s.warm_start, "different query: not an exact warm hit");
    assert!(!s.rebased, "different shape: not a rebase");
    assert!(
        s.seeded_subsets > 0,
        "shared subchains must transplant: {s:?}"
    );
    assert!(m.subfrontier_stats().hits > 0);
    assert!(!s.frontier.is_empty());

    // The transplant pays: a cold manager over the same query generates
    // more plans across the full ladder.
    let fp = moqo_engine::QueryFingerprint::of(&big, &m.model());
    m.finish(seeded).unwrap();
    let seeded_plans = m
        .store()
        .with_parked(fp, |opt| opt.stats().plans_generated)
        .expect("finished session parks");
    let transplanted = m
        .store()
        .with_parked(fp, |opt| opt.stats().transplanted_candidates)
        .unwrap();
    assert!(transplanted > 0);

    let cold = manager(2);
    let cold_id = cold.submit(big.clone());
    assert!(cold.wait_idle(IDLE));
    cold.finish(cold_id).unwrap();
    let cold_plans = cold
        .store()
        .with_parked(fp, |opt| opt.stats().plans_generated)
        .unwrap();
    assert!(
        seeded_plans < cold_plans,
        "transplant must cut generation: seeded={seeded_plans} cold={cold_plans}"
    );
}

#[test]
fn drifted_statistics_rebase_the_parked_frontier() {
    // The same query resubmitted after a stats refresh: the exact
    // fingerprint misses, but the cardinality-blind RebaseKey finds the
    // parked frontier and the new session starts from its plans,
    // re-costed under the fresh statistics.
    let m = manager(2);
    let spec = Arc::new(testkit::chain_query(4, 80_000));
    let drifted = Arc::new(testkit::drift_cardinalities(&spec, 1.07));
    let model = m.model();
    let donor_fp = moqo_engine::QueryFingerprint::of(&spec, &model);
    let drifted_fp = moqo_engine::QueryFingerprint::of(&drifted, &model);
    assert_ne!(donor_fp, drifted_fp);

    let donor = m.submit(spec);
    assert!(m.wait_idle(IDLE));
    m.finish(donor).unwrap();

    let id = m.submit(drifted.clone());
    assert!(m.wait_idle(IDLE));
    let s = m.status(id).unwrap();
    assert!(!s.warm_start);
    assert!(s.rebased, "drifted twin must rebase: {s:?}");
    assert!(!s.frontier.is_empty());
    // Two exact misses; the donor's open found no rebase donor, the
    // twin's found one.
    assert_eq!(
        m.cache_stats(),
        CacheStats {
            hits: 0,
            misses: 2,
            evictions: 0,
            entries: 1,
            rebase_hits: 1,
            rebase_misses: 1,
        }
    );
    // The donor stays parked for exact repeats of its own statistics.
    assert!(m.store().contains(donor_fp));

    m.finish(id).unwrap();
    let rebased_plans = m
        .store()
        .with_parked(drifted_fp, |opt| opt.stats().plans_generated)
        .unwrap();
    let cold = manager(2);
    let cold_id = cold.submit(drifted);
    assert!(cold.wait_idle(IDLE));
    cold.finish(cold_id).unwrap();
    let cold_plans = cold
        .store()
        .with_parked(drifted_fp, |opt| opt.stats().plans_generated)
        .unwrap();
    assert!(
        rebased_plans < cold_plans,
        "rebase must cut generation: rebased={rebased_plans} cold={cold_plans}"
    );
}

/// The cached sub-frontier blob of every multi-table subset of `spec`, in
/// subset order; `None` where nothing is cached. Each probe counts as a
/// cache hit or miss.
fn cached_blobs(m: &SessionManager, spec: &QuerySpec) -> Vec<Option<Arc<Vec<u8>>>> {
    let model = m.model();
    spec.all_tables()
        .subsets()
        .filter(|t| t.len() >= 2)
        .map(|t| {
            m.store()
                .subfrontiers()
                .get(SubsetFingerprint::of(spec, t, &*model))
        })
        .collect()
}

/// Runs a warm resume of `spec` through its auto ladder and ends it with
/// `Cancel`, so the worker parks it; asserts it generated no plan.
fn zero_plan_resume(m: &SessionManager, spec: &Arc<QuerySpec>) -> SessionId {
    let id = m.submit(spec.clone());
    assert!(m.wait_idle(IDLE));
    let status = m.status(id).unwrap();
    assert!(status.warm_start);
    assert_eq!(status.first_report.unwrap().plans_generated, 0);
    m.command(id, SessionCommand::Cancel).unwrap();
    assert!(m.wait_idle(IDLE));
    id
}

/// Whether the parked optimizer holds exactly the plans a resume can
/// reach, under dense ids (every id it issued holds one of them), and its
/// generation.
fn parked_compact(m: &SessionManager, fp: QueryFingerprint) -> (bool, u64) {
    m.store()
        .with_parked(fp, |o| {
            (o.arena().issued() == o.reachable_plans(), o.generation())
        })
        .expect("parked")
}

#[test]
fn unchanged_resumes_repark_the_blobs_they_were_parked_with() {
    let m = manager(2);
    let spec = Arc::new(testkit::chain_query(4, 90_000));
    let fp = QueryFingerprint::of(&spec, &m.model());
    let cold = m.submit(spec.clone());
    assert!(m.wait_idle(IDLE));
    assert_eq!(m.subfrontier_stats().insertions, 0, "nothing parked yet");
    m.finish(cold).unwrap();
    let (compact, generation) = parked_compact(&m, fp);
    assert!(compact, "finish must park the reachable closure only");
    let before = cached_blobs(&m, &spec);
    let harvested = before.iter().flatten().count() as u64;
    assert!(harvested >= 3, "chain(4) harvests its connected subsets");

    // Both park paths: the worker (a session ending on its own command)
    // and `finish` (a live session retired by the serving layer).
    for via_finish in [false, true] {
        let stats = m.subfrontier_stats();
        if via_finish {
            let id = m.submit(spec.clone());
            assert!(m.wait_idle(IDLE));
            let status = m.finish(id).unwrap();
            assert_eq!(status.first_report.unwrap().plans_generated, 0);
        } else {
            let id = zero_plan_resume(&m, &spec);
            assert!(m.status(id).unwrap().is_finished());
        }
        let after = m.subfrontier_stats();
        assert_eq!(after.insertions, stats.insertions + harvested);
        assert_eq!(after.entries, stats.entries);
        assert_eq!(after.evictions, stats.evictions);
        assert_eq!(parked_compact(&m, fp), (true, generation));
        for (old, new) in before.iter().zip(cached_blobs(&m, &spec)) {
            match (old, new) {
                (Some(old), Some(new)) => assert!(Arc::ptr_eq(old, &new), "blob re-encoded"),
                (old, new) => assert_eq!(old.is_some(), new.is_some()),
            }
        }
    }
}

#[test]
fn reparking_brings_back_evicted_blobs() {
    // chain(3) harvests three blobs ({0,1}, {1,2}, {0,1,2}) into a cache
    // that holds three; a chain(4) under other statistics then evicts
    // them all.
    let config = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    let store = WarmStore::new(config.cache_capacity, SubFrontierCache::new(3));
    let m = SessionManager::with_store(
        Arc::new(StandardCostModel::paper_metrics()),
        schedule(),
        config,
        Arc::new(store),
    );
    let spec = Arc::new(testkit::chain_query(3, 70_000));
    let other = Arc::new(testkit::chain_query(4, 33_000));
    let first = m.submit(spec.clone());
    assert!(m.wait_idle(IDLE));
    m.finish(first).unwrap();
    let before = cached_blobs(&m, &spec);
    assert_eq!(before.iter().flatten().count(), 3);
    let evictor = m.submit(other);
    assert!(m.wait_idle(IDLE));
    m.finish(evictor).unwrap();
    assert!(
        cached_blobs(&m, &spec).iter().all(Option::is_none),
        "not evicted"
    );

    let stats = m.subfrontier_stats();
    zero_plan_resume(&m, &spec);
    let after = m.subfrontier_stats();
    assert_eq!(after.insertions, stats.insertions + 3);
    assert_eq!(after.evictions, stats.evictions + 3);
    assert_eq!(after.entries, 3);
    for (old, new) in before.iter().zip(cached_blobs(&m, &spec)) {
        if let Some(old) = old {
            assert!(Arc::ptr_eq(old, &new.expect("blob back in the cache")));
        }
    }
}

#[test]
fn a_resume_that_inserts_results_reencodes_its_blobs() {
    let m = manager(2);
    let spec = Arc::new(testkit::chain_query(4, 90_000));
    let fp = QueryFingerprint::of(&spec, &m.model());
    // One coarse invocation parks a partial frontier; the full ladder of
    // the resume then inserts finer result plans.
    let id = m
        .open(SessionRequest::new(spec.clone()).with_auto_ticks(1))
        .unwrap();
    assert!(m.wait_idle(IDLE));
    m.finish(id).unwrap();
    let (_, generation) = parked_compact(&m, fp);
    let before = cached_blobs(&m, &spec);

    let id = m.submit(spec.clone());
    assert!(m.wait_idle(IDLE));
    assert!(m.status(id).unwrap().warm_start);
    m.command(id, SessionCommand::Cancel).unwrap();
    assert!(m.wait_idle(IDLE));
    let (compact, moved) = parked_compact(&m, fp);
    assert!(compact);
    assert_ne!(moved, generation, "the resume changed the result sets");
    let after = cached_blobs(&m, &spec);
    assert!(
        before
            .iter()
            .zip(&after)
            .any(|(old, new)| matches!((old, new), (Some(o), Some(n)) if !Arc::ptr_eq(o, n))),
        "a changed optimizer must be harvested afresh"
    );
    assert_ne!(before, after, "finer results change the blobs");
}

/// A doorbell that counts its rings.
fn counting_doorbell() -> (Doorbell, Arc<AtomicUsize>) {
    let rings = Arc::new(AtomicUsize::new(0));
    let doorbell: Doorbell = Arc::new({
        let rings = Arc::clone(&rings);
        move || {
            rings.fetch_add(1, Ordering::SeqCst);
        }
    });
    (doorbell, rings)
}

#[test]
fn finish_on_an_ended_session_publishes_nothing() {
    let m = manager(2);
    let id = m.submit(Arc::new(testkit::chain_query(3, 40_000)));
    let (doorbell, rings) = counting_doorbell();
    let rx = m
        .watch(id, Some(doorbell))
        .expect("live session is watchable");
    let prime = rx.recv_timeout(IDLE).expect("primed event");
    assert!(m.wait_idle(IDLE));
    let choice = m.frontier(id).unwrap().min_by_metric(0).unwrap().plan;
    m.command(id, SessionCommand::SelectPlan(choice)).unwrap();
    assert!(m.wait_idle(IDLE));
    let ended = m.status(id).unwrap();
    assert_eq!(ended.selected(), Some(choice));
    let published = rings.load(Ordering::SeqCst);
    assert_eq!(published as u64, ended.epoch - prime.epoch);

    let fin = m.finish(id).expect("an ended session keeps its status");
    assert_eq!(fin.epoch, ended.epoch);
    assert_eq!(fin.outcome, ended.outcome);
    assert_eq!(m.status(id).unwrap().epoch, ended.epoch);
    assert_eq!(rings.load(Ordering::SeqCst), published, "no event");
    assert_eq!(rx.iter().count(), published, "one event per ring");
    assert_eq!(m.live_sessions(), 0);
}

#[test]
fn each_publish_rings_only_its_own_watchers_doorbell() {
    let m = manager(2);
    let a = m.submit(Arc::new(testkit::chain_query(3, 40_000)));
    let b = m.submit(Arc::new(testkit::chain_query(4, 40_000)));
    let (bell_a, rings_a) = counting_doorbell();
    let (bell_b, rings_b) = counting_doorbell();
    let rx_a = m.watch(a, Some(bell_a)).unwrap();
    let rx_b = m.watch(b, Some(bell_b)).unwrap();
    // A second watcher of `a` with no doorbell rings nothing.
    let quiet = m.watch(a, None).unwrap();
    assert!(m.wait_idle(IDLE));
    m.finish(a).unwrap();
    m.finish(b).unwrap();
    for (id, rx, rings) in [(a, rx_a, rings_a), (b, rx_b, rings_b)] {
        // Retirement releases the channel, so the stream ends.
        let events: Vec<SessionEvent> = rx.iter().collect();
        let prime = &events[0];
        assert!(prime.delta.reset, "the prime opens the stream");
        assert_eq!(
            events.last().unwrap().outcome,
            Some(SessionOutcome::Retired)
        );
        let after_prime = events.len() - 1;
        assert_eq!(
            rings.load(Ordering::SeqCst),
            after_prime,
            "one ring per event after the prime, the terminal one included"
        );
        assert_eq!(
            m.status(id).unwrap().epoch - prime.epoch,
            after_prime as u64
        );
    }
    assert!(quiet.iter().last().unwrap().is_final());

    // Watching an ended session primes the channel with its final state
    // and registers nothing: the channel is closed, and nothing rings.
    let (bell, rings) = counting_doorbell();
    let late = m
        .watch(a, Some(bell))
        .expect("an ended session keeps its status");
    let prime = late.recv_timeout(IDLE).expect("the final state");
    assert_eq!(prime.outcome, Some(SessionOutcome::Retired));
    assert_eq!(
        late.recv_timeout(IDLE),
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
    );
    assert_eq!(rings.load(Ordering::SeqCst), 0);
}

#[test]
fn finish_on_an_idle_session_delivers_one_retired_event() {
    let m = manager(2);
    let spec = Arc::new(testkit::chain_query(3, 80_000));
    let id = m.submit(spec.clone());
    assert!(m.wait_idle(IDLE));
    let rx = m.watch(id, None).expect("live session is watchable");
    let prime = rx.recv_timeout(IDLE).expect("primed event");
    let fin = m.finish(id).unwrap();
    assert_eq!(fin.outcome, Some(SessionOutcome::Retired));
    assert_eq!(fin.epoch, prime.epoch + 1);
    let terminal = rx.recv_timeout(IDLE).expect("terminal event");
    assert_eq!(terminal.epoch, prime.epoch + 1);
    assert_eq!(terminal.outcome, Some(SessionOutcome::Retired));
    assert!(terminal.delta.is_empty());
    assert!(rx.recv_timeout(IDLE).is_err(), "exactly one terminal event");
    // The final status stays queryable, as for a worker-ended session.
    let kept = m.status(id).expect("finished status stays queryable");
    assert_eq!(kept.outcome, Some(SessionOutcome::Retired));
    assert_eq!(kept.epoch, fin.epoch);
    assert_eq!(m.live_sessions(), 0);
    // The optimizer parked: the repeat resumes warm.
    let again = m.submit(spec);
    assert!(m.wait_idle(IDLE));
    let warm = m.status(again).unwrap();
    assert!(warm.warm_start);
    assert_eq!(warm.first_report.unwrap().plans_generated, 0);
}

/// The bytes of an event with every wall-clock duration zeroed.
fn timeless(event: &SessionEvent) -> Vec<u8> {
    let mut event = event.clone();
    for report in [&mut event.report, &mut event.first_report]
        .into_iter()
        .flatten()
    {
        report.duration = Duration::ZERO;
    }
    event.encode_to_vec()
}

#[test]
fn the_engine_forwards_the_core_session_stream() {
    // Algorithm 1 on a standalone core session: three refinements, a bound
    // drag, one more refinement and a selection.
    let model: SharedCostModel = Arc::new(StandardCostModel::paper_metrics());
    let request = SessionRequest::new(Arc::new(testkit::chain_query(4, 60_000))).with_auto_ticks(0);
    let mut core = Session::open(request.clone(), model.clone(), schedule()).unwrap();
    let mut script = vec![SessionCommand::Refine; 3];
    let mut expected: Vec<_> = script
        .iter()
        .map(|c| core.apply(c.clone()).unwrap())
        .collect();
    let t = core.frontier().min_by_metric(0).unwrap().cost[0];
    let drag = [
        SessionCommand::SetBounds(Bounds::unbounded(model.dim()).with_limit(0, 3.0 * t)),
        SessionCommand::Refine,
    ];
    expected.extend(drag.iter().map(|c| core.apply(c.clone()).unwrap()));
    script.extend(drag);
    let choice = core.frontier().min_by_metric(1).unwrap().plan;
    expected.push(core.apply(SessionCommand::SelectPlan(choice)).unwrap());

    // The same commands through the engine, after its watch primer.
    let m = manager(2);
    let id = m.open(request).unwrap();
    let rx = m.watch(id, None).unwrap();
    assert_eq!(rx.recv_timeout(IDLE).unwrap().epoch, 0, "the primer");
    for cmd in script {
        m.command(id, cmd).unwrap();
    }
    // A selection is checked against the published frontier.
    assert!(m.wait_idle(IDLE));
    m.command(id, SessionCommand::SelectPlan(choice)).unwrap();
    assert!(m.wait_idle(IDLE));
    let served: Vec<_> = rx.iter().collect();
    assert_eq!(served.len(), expected.len());
    for (i, (served, expected)) in served.iter().zip(&expected).enumerate() {
        assert_eq!(timeless(served), timeless(expected), "event {i}");
    }
}
