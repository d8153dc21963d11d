//! Serving-front experiment: submit→first-frontier latency and shard
//! warm-hit rate under a skewed fingerprint workload (`repro serve`).
//!
//! The interactive SLO of an anytime optimizer service is not total
//! optimization time but **time to first visualized frontier** — how long
//! after `submit` a user sees tradeoffs to drag bounds over. The
//! experiment measures it twice over the same skewed workload (a few hot
//! templates dominating, an ad-hoc tail): once against a cold engine, and
//! again after every session retired — when the hot fingerprints resume
//! from the frontiers parked in the engine's shared warm store and the
//! first invocation does zero plan generation.

use moqo_cost::ResolutionSchedule;
use moqo_costmodel::StandardCostModel;
use moqo_engine::EngineConfig;
use moqo_query::{testkit, QuerySpec};
use moqo_serve::{GlobalSessionId, ShardConfig, ShardedEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::harness::{Experiment, ExperimentReport, Trial};
use crate::stats::{Samples, Summary};

/// A skewed fingerprint workload: template `k` repeats ~`16/(k+1)` times.
pub fn serving_workload(fast: bool) -> Vec<Arc<QuerySpec>> {
    let mut templates: Vec<Arc<QuerySpec>> = Vec::new();
    let top = if fast { 4 } else { 6 };
    for n in 2..=top {
        templates.push(Arc::new(testkit::chain_query(n, 60_000)));
        templates.push(Arc::new(testkit::star_query(n, 90_000)));
    }
    for seed in [3, 7, 11, 13] {
        templates.push(Arc::new(testkit::random_query(4, seed)));
    }
    let (total, hot) = if fast { (24, 8) } else { (64, 16) };
    let mut specs = Vec::new();
    let mut k = 0usize;
    while specs.len() < total {
        for _ in 0..(hot / (k + 1)).max(1) {
            if specs.len() < total {
                specs.push(templates[k % templates.len()].clone());
            }
        }
        k += 1;
    }
    specs
}

struct ServeState {
    engine: ShardedEngine,
    specs: Vec<Arc<QuerySpec>>,
}

/// Submits the workload and records submit→first-frontier latency per
/// session via the per-session watch channels (no engine-global waits on
/// the measurement path). Each channel delivers delta-streamed
/// [`moqo_serve::SessionEvent`]s; a client-side
/// [`moqo_serve::SessionView`] reassembles them exactly as a remote UI
/// would.
fn run_phase(state: &mut ServeState, trial: &mut Trial) {
    let (engine, specs) = (&state.engine, &state.specs);
    let warm_before: u64 = engine.shard_stats().iter().map(|s| s.warm_routed).sum();
    let mut watchers: Vec<(
        GlobalSessionId,
        Instant,
        std::sync::mpsc::Receiver<moqo_serve::SessionEvent>,
        moqo_serve::SessionView,
    )> = Vec::new();
    for spec in specs {
        let t0 = Instant::now();
        let gid = engine.submit(spec.clone());
        let rx = engine.watch(gid, None).expect("fresh session");
        watchers.push((gid, t0, rx, moqo_serve::SessionView::default()));
    }
    // Round-robin over the channels until every session showed a frontier.
    let mut latency = vec![None::<Duration>; watchers.len()];
    let mut zero_plan_starts = 0u64;
    let deadline = Instant::now() + Duration::from_secs(600);
    while latency.iter().any(Option::is_none) {
        assert!(Instant::now() < deadline, "serving experiment stalled");
        let mut progressed = false;
        for (i, (_, t0, rx, view)) in watchers.iter_mut().enumerate() {
            if latency[i].is_some() {
                continue;
            }
            while let Ok(event) = rx.try_recv() {
                progressed = true;
                view.fold(&event).expect("ordered watch stream");
                if !view.frontier.is_empty() && latency[i].is_none() {
                    latency[i] = Some(t0.elapsed());
                    if view
                        .first_report
                        .as_ref()
                        .is_some_and(|r| r.plans_generated == 0)
                    {
                        zero_plan_starts += 1;
                    }
                    break;
                }
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    assert!(engine.wait_idle(Duration::from_secs(600)));
    for (gid, _, _, _) in &watchers {
        engine.finish(*gid);
    }
    let us: Samples = latency
        .into_iter()
        .map(|d| d.expect("measured").as_secs_f64() * 1e6)
        .collect();
    let distinct = {
        let mut fps: Vec<u64> = specs
            .iter()
            .map(|s| engine.fingerprint(s).as_u64())
            .collect();
        fps.sort_unstable();
        fps.dedup();
        fps.len()
    };
    let warm_after: u64 = engine.shard_stats().iter().map(|s| s.warm_routed).sum();
    trial.int("sessions", specs.len() as u64);
    trial.int("distinct", distinct as u64);
    trial.summary_us("", Summary::of_or_zero(&us));
    trial.int_higher("warm_routed", warm_after - warm_before);
    trial.int("zero_plan_starts", zero_plan_starts);
}

/// Runs the cold pass and the warm pass over one sharded engine.
pub fn serving_experiment(fast: bool) -> ExperimentReport {
    Experiment::new("serve", fast, move || {
        let engine = ShardedEngine::new(
            Arc::new(StandardCostModel::paper_metrics()),
            ResolutionSchedule::linear(if fast { 2 } else { 4 }, 1.02, 0.4),
            ShardConfig {
                shards: 4,
                engine: EngineConfig {
                    workers: 2,
                    ..EngineConfig::default()
                },
                rebalance_headroom: 8,
            },
        );
        let specs = serving_workload(fast);
        ServeState { engine, specs }
    })
    .title("sharded serving: submit -> first frontier under a skewed workload")
    // Cold pass: every fingerprint is new; frontiers park on finish.
    // Warm pass: repeats resume their parked frontiers.
    .variant("serving latency", "cold", run_phase)
    .variant("serving latency", "warm", run_phase)
    .conclusion(
        "hot fingerprints resume their parked frontiers from the shared store; \
         warm resumes start with zero plan generation.",
    )
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_pass_serves_from_parked_frontiers() {
        let report = serving_experiment(true);
        let counter = |label: &str, key: &str| report.metric(label, key).unwrap().as_u64().unwrap();
        assert_eq!(counter("cold", "sessions"), counter("warm", "sessions"));
        assert_eq!(
            counter("cold", "warm_routed"),
            0,
            "first sight cannot be warm"
        );
        assert_eq!(counter("cold", "zero_plan_starts"), 0);
        // The cold pass parked each fingerprint once in the shared store.
        // The warm pass resumes it once — `take` transfers ownership, so
        // a concurrent duplicate runs cold — and exactly the warm opens
        // (`warm_routed`) start with zero plans.
        assert!(
            counter("warm", "warm_routed") >= counter("warm", "distinct"),
            "every distinct fingerprint must resume warm at least once"
        );
        assert_eq!(
            counter("warm", "zero_plan_starts"),
            counter("warm", "warm_routed")
        );
        let mean = |label: &str| report.metric(label, "mean_us").unwrap().as_f64().unwrap();
        assert!(mean("cold") > 0.0 && mean("warm") > 0.0);
    }
}
