//! Protocol tour: one query, one request type, one command vocabulary,
//! one event stream — driven through all three layers.
//!
//! ```text
//! cargo run --release --example protocol_tour
//! ```
//!
//! The session protocol (`moqo_core::protocol`) is the point of this
//! example: the *same* [`SessionRequest`] opens a bare [`Session`], an
//! engine session in a [`SessionManager`], and a served ticket on a
//! [`MoqoServer`]; the *same* [`SessionCommand`]s steer all three; and
//! every layer streams the *same* [`SessionEvent`] type, whose frontier
//! deltas reassemble exactly. The example asserts, end to end:
//!
//! (a) **identical frontiers** — the same script (refine to saturation,
//!     drag one bound, refine again) yields bit-identical final
//!     frontiers in all three layers;
//! (b) **one preference, one answer** — the same `SetPreference` command
//!     makes every layer auto-select the same plan, no `SelectPlan`
//!     round-trip;
//! (c) **per-session cost models stay isolated** — the same query under
//!     a different cost model gets its own fingerprint and its own
//!     frontier, with zero warm-cache crossover.

use moqo::core::{Session, SessionView};
use moqo::prelude::*;
use moqo::serve::TicketStatus;
use std::sync::Arc;
use std::time::Duration;

const IDLE: Duration = Duration::from_secs(120);

fn spec() -> Arc<QuerySpec> {
    Arc::new(moqo::query::testkit::chain_query(4, 75_000))
}

fn schedule() -> ResolutionSchedule {
    ResolutionSchedule::linear(3, 1.05, 0.5)
}

/// The one request every layer receives.
fn request() -> SessionRequest {
    SessionRequest::new(spec())
}

/// The scripted interaction, as protocol commands: the refocus the user
/// performs after watching the first saturated frontier.
fn refocus_bound(frontier: &moqo::core::FrontierSnapshot, dim: usize) -> Bounds {
    let anchor = frontier.min_by_metric(0).expect("non-empty").cost[0];
    Bounds::unbounded(dim).with_limit(0, anchor * 4.0)
}

/// The preference that ends the session automatically.
fn preference() -> Preference {
    Preference::WeightedSum(vec![1.0, 0.05, 0.05])
}

struct LayerRun {
    label: &'static str,
    frontier: moqo::core::FrontierSnapshot,
    selected: moqo::plan::PlanId,
    events: u64,
}

/// Layer 1: the bare core session, commands applied inline, events
/// folded into a client-side view.
fn drive_core(model: SharedCostModel) -> LayerRun {
    let mut session = Session::open(request(), model.clone(), schedule()).expect("valid request");
    let mut view = SessionView::default();
    for _ in 0..schedule().levels() {
        let ev = session.apply(SessionCommand::Refine).expect("live");
        view.fold(&ev).expect("ordered stream");
    }
    let bound = refocus_bound(&view.frontier, model.dim());
    let ev = session
        .apply(SessionCommand::SetBounds(bound))
        .expect("live");
    view.fold(&ev).expect("ordered stream");
    for _ in 0..schedule().levels() {
        let ev = session.apply(SessionCommand::Refine).expect("live");
        view.fold(&ev).expect("ordered stream");
    }
    // Install the preference; the ladder is saturated, so it fires on
    // this very command.
    let fin = session
        .apply(SessionCommand::SetPreference(Some(preference())))
        .expect("live");
    view.fold(&fin).expect("ordered stream");
    let selected = view.selected().expect("preference fired");
    LayerRun {
        label: "core   Session",
        frontier: view.frontier.clone(),
        selected,
        events: view.epoch,
    }
}

/// Layer 2: the concurrent engine; the same commands travel through the
/// manager's inbox, the same events through its watch channel.
fn drive_engine(model: SharedCostModel) -> LayerRun {
    let manager = SessionManager::new(
        model.clone(),
        schedule(),
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
    );
    let id = manager.open(request()).expect("valid request");
    let rx = manager.watch(id, None).expect("watchable");
    assert!(manager.wait_idle(IDLE));
    let bound = refocus_bound(&manager.frontier(id).expect("live"), model.dim());
    manager
        .command(id, SessionCommand::SetBounds(bound))
        .expect("live");
    assert!(manager.wait_idle(IDLE));
    manager
        .command(id, SessionCommand::SetPreference(Some(preference())))
        .expect("live");
    assert!(manager.wait_idle(IDLE));
    // Fold the complete event stream; it must reassemble exactly to the
    // engine-side final state.
    let mut view = SessionView::default();
    while let Ok(ev) = rx.try_recv() {
        view.fold(&ev).expect("ordered stream");
    }
    let status = manager.status(id).expect("retired but queryable");
    assert_eq!(view.frontier.len(), status.frontier.len());
    let selected = view.selected().expect("preference fired");
    assert_eq!(Some(selected), status.selected());
    LayerRun {
        label: "engine SessionManager",
        frontier: view.frontier.clone(),
        selected,
        events: view.epoch,
    }
}

/// Layer 3: the sharded, admission-controlled server; same request, same
/// commands, same events — now behind a ticket.
fn drive_serve(model: SharedCostModel) -> LayerRun {
    let server = MoqoServer::new(
        model.clone(),
        schedule(),
        ServeConfig {
            shard: ShardConfig {
                shards: 2,
                engine: EngineConfig {
                    workers: 2,
                    ..EngineConfig::default()
                },
                rebalance_headroom: 8,
            },
            ..ServeConfig::default()
        },
    );
    let (ticket, response) = server.submit(request()).expect("valid request");
    assert_eq!(response, AdmissionResponse::Admitted);
    assert!(server.wait_idle(IDLE));
    let view = match server.poll(ticket).expect("known ticket") {
        TicketStatus::Active { view, .. } => *view,
        other => panic!("expected active ticket, got {other:?}"),
    };
    let bound = refocus_bound(&view.frontier, model.dim());
    server
        .command(ticket, SessionCommand::SetBounds(bound))
        .expect("live");
    assert!(server.wait_idle(IDLE));
    server
        .command(ticket, SessionCommand::SetPreference(Some(preference())))
        .expect("live");
    assert!(server.wait_idle(IDLE));
    let view = match server.poll(ticket).expect("known ticket") {
        TicketStatus::Active { view, .. } => *view,
        other => panic!("expected active ticket, got {other:?}"),
    };
    let selected = view.selected().expect("preference fired");
    LayerRun {
        label: "serve  MoqoServer",
        frontier: view.frontier.clone(),
        selected,
        events: view.epoch,
    }
}

fn main() {
    let model: SharedCostModel = Arc::new(StandardCostModel::paper_metrics());

    // --- One script, three layers. ---
    let runs = [
        drive_core(model.clone()),
        drive_engine(model.clone()),
        drive_serve(model.clone()),
    ];
    for run in &runs {
        println!(
            "{}: {} frontier points, selected {:?}, {} events",
            run.label,
            run.frontier.len(),
            run.selected,
            run.events
        );
    }
    // (a) identical final frontiers, bit for bit.
    let base = &runs[0];
    for other in &runs[1..] {
        assert!(
            base.frontier.bits_eq(&other.frontier),
            "{} diverged from {}",
            other.label,
            base.label
        );
        // (b) the same preference selected the same plan everywhere.
        assert_eq!(base.selected, other.selected, "{} diverged", other.label);
    }
    println!(
        "ok: all three layers agree — {} points, plan {:?} auto-selected by the preference",
        base.frontier.len(),
        base.selected
    );

    // --- (c) per-session cost models: same query, different model, own
    // fingerprint, own frontier, zero warm crossover. ---
    let manager = SessionManager::new(model.clone(), schedule(), EngineConfig::default());
    let custom: SharedCostModel = Arc::new(StandardCostModel::new(
        moqo::costmodel::MetricSet::paper(),
        moqo::costmodel::StandardCostModelConfig {
            dops: vec![1, 2],
            sampling_rates_pm: vec![250, 500],
            ..moqo::costmodel::StandardCostModelConfig::default()
        },
    ));
    let a = manager.open(request()).expect("valid");
    let b = manager
        .open(request().with_cost_model(custom.clone()))
        .expect("valid");
    assert!(manager.wait_idle(IDLE));
    let sa = manager.status(a).unwrap();
    let sb = manager.status(b).unwrap();
    assert_ne!(sa.fingerprint, sb.fingerprint, "model identity missing");
    manager.finish(a).unwrap();
    manager.finish(b).unwrap();
    // Each model resumes exactly its own parked frontier.
    let a2 = manager.open(request()).expect("valid");
    let b2 = manager
        .open(request().with_cost_model(custom))
        .expect("valid");
    assert!(manager.wait_idle(IDLE));
    for (id, label) in [(a2, "default-model"), (b2, "custom-model")] {
        let s = manager.status(id).unwrap();
        assert!(s.warm_start, "{label} repeat must start warm");
        assert_eq!(
            s.first_report.as_ref().unwrap().plans_generated,
            0,
            "{label} warm start rebuilt plans"
        );
    }
    assert_eq!(manager.cache_stats().hits, 2);
    println!(
        "ok: per-session cost models warm independently \
         (fingerprints {:#018x} vs {:#018x})",
        sa.fingerprint.as_u64(),
        sb.fingerprint.as_u64()
    );
}
