//! The `repro churn` experiment: bound-drag and refocus storms against
//! one interactive [`Session`] per query topology.
//!
//! The paper's evaluation refines with bounds fixed to infinity; the
//! interactive story (Figure 1c, Example 3) is the opposite — a user
//! dragging bounds mid-session, each drag resetting the resolution
//! focus (Algorithm 1 lines 19-21) and forcing a recombination pass
//! over plan sets that were already combined in an earlier churn
//! epoch. Those passes are exactly what the watermark rectangles and
//! the `IsFresh` hash fallback exist for, so this experiment hammers
//! them: after a full refinement ladder, a deterministic storm of
//! tighten / drag / loosen / refocus bound changes runs, each followed
//! by refinement back to the target resolution, and the
//! [`OptimizerStats`] deltas report how much
//! plan work the storm re-did versus skipped.
//!
//! The storms settle every recombination on the watermark rectangles,
//! so they never reach the hash. A last variant replays the chaotic
//! bound/resolution sequence of `tests/incrementality.rs` on chain-4:
//! its tightened invocations append results while operands are dirty,
//! and the loosened ones that follow then skip those pairs through
//! `IsFresh`.

use moqo_core::{IamaConfig, IamaOptimizer, OptimizerStats, Session, SessionCommand};
use moqo_cost::{Bounds, ResolutionSchedule};
use moqo_costmodel::{
    CostModel, MetricSet, SharedCostModel, StandardCostModel, StandardCostModelConfig,
};
use moqo_query::{testkit, QuerySpec};
use std::sync::Arc;
use std::time::Instant;

use crate::harness::{Experiment, ExperimentReport, Trial};
use crate::stats::{Samples, Summary};
use crate::workload::XorShift;

/// Lean model for the storm ladders: small option sets, no evaluation
/// spin — the counters being reported are structure metrics.
fn lean_model(dops: Vec<u16>) -> SharedCostModel {
    Arc::new(StandardCostModel::new(
        MetricSet::paper(),
        StandardCostModelConfig {
            dops,
            sampling_rates_pm: vec![100, 500],
            eval_spin: 0,
            ..StandardCostModelConfig::default()
        },
    ))
}

/// The topologies the storm runs over.
fn churn_specs(fast: bool) -> Vec<Arc<QuerySpec>> {
    let n = if fast { 7 } else { 9 };
    vec![
        Arc::new(testkit::chain_query(n, 100_000)),
        Arc::new(testkit::star_query(if fast { 5 } else { 7 }, 100_000)),
        Arc::new(testkit::clique_query(if fast { 4 } else { 6 }, 1000)),
    ]
}

/// Applies `Refine` until the session has invoked at the ladder's
/// target resolution.
fn refine_to_target(session: &mut Session, steps: usize) {
    for _ in 0..steps {
        session
            .apply(SessionCommand::Refine)
            .expect("live session refines");
    }
}

/// Median of one cost metric over the currently visualized frontier,
/// `None` when the bounded frontier is empty.
fn frontier_p50(session: &Session, metric: usize) -> Option<f64> {
    let costs = session.frontier().costs();
    let samples: Samples = costs.iter().map(|c| c[metric]).collect();
    Summary::of(&samples).map(|s| s.p50)
}

/// Runs the ladder-then-storm sequence for one query and records the
/// re-optimization economy into `trial`.
fn run_storm(fast: bool, spec: &Arc<QuerySpec>, trial: &mut Trial) {
    let model = lean_model(vec![1, 4]);
    let dim = model.dim();
    let schedule = ResolutionSchedule::linear(if fast { 2 } else { 4 }, 1.05, 0.5);
    let r_max = schedule.r_max();
    let opt = IamaOptimizer::with_config(spec.clone(), model, schedule, IamaConfig::default());
    let mut session = Session::new(opt);

    // Phase 1: the uninterrupted ladder (the paper's scenario).
    refine_to_target(&mut session, r_max + 1);
    let base = session.optimizer().stats().clone();

    // Phase 2: the storm. Every bound change resets the resolution
    // focus to 0; refining back to the target makes each round a full
    // re-optimization pass under the new focus.
    let rounds = if fast { 8 } else { 16 };
    let mut rng = XorShift::new(0xc402_c402);
    let mut round_us = Samples::with_capacity(rounds);
    for _ in 0..rounds {
        let t_mid = frontier_p50(&session, 0);
        let bounds = match (rng.next_u64() % 4, t_mid) {
            // Tighten: clamp the time metric at the visualized median.
            (0, Some(mid)) => Bounds::unbounded(dim).with_limit(0, mid),
            // Drag: jitter the time bound around the median, the way a
            // user wiggles a slider.
            (1, Some(mid)) => {
                Bounds::unbounded(dim).with_limit(0, mid * (0.75 + 0.5 * rng.next_f64()))
            }
            // Refocus: move the constraint to the last metric entirely.
            (3, _) => match frontier_p50(&session, dim - 1) {
                Some(mid) => Bounds::unbounded(dim).with_limit(dim - 1, mid),
                None => Bounds::unbounded(dim),
            },
            // Loosen (also the fallback when the frontier emptied).
            _ => Bounds::unbounded(dim),
        };
        let t0 = Instant::now();
        session
            .apply(SessionCommand::SetBounds(bounds))
            .expect("well-formed bounds");
        refine_to_target(&mut session, r_max);
        round_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    // Finish loose so the final frontier figure is the unbounded one.
    session
        .apply(SessionCommand::SetBounds(Bounds::unbounded(dim)))
        .expect("well-formed bounds");
    refine_to_target(&mut session, r_max);

    let storm = Storm {
        rounds,
        invocations: session.invocations(),
        base,
        frontier_size: session.frontier().len(),
        round_us,
    };
    storm.record(spec, session.optimizer().stats(), trial);
}

/// The bound/resolution sequence of the chaotic-churn lemma test in
/// `tests/incrementality.rs`, replayed on chain-4 with that test's
/// model: after a level-0 ladder, tighten, tighten harder, loosen,
/// refocus, relax, and finish unbounded at the target resolution.
fn run_replay(trial: &mut Trial) {
    let model = lean_model(vec![1, 2, 4]);
    let dim = model.dim();
    let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
    let r_max = schedule.r_max();
    let spec = Arc::new(testkit::chain_query(4, 200_000));
    let mut opt = IamaOptimizer::with_config(spec.clone(), model, schedule, IamaConfig::default());
    let unb = Bounds::unbounded(dim);
    opt.optimize(&unb, 0);
    let base = opt.stats().clone();
    let t_min = opt
        .frontier(&unb, 0)
        .min_by_metric(0)
        .map(|p| p.cost[0])
        .expect("the level-0 frontier is nonempty");
    let sequence = [
        (unb.with_limit(0, t_min * 3.0), 1),
        (unb.with_limit(0, t_min * 1.2), 0),
        (unb, 2),
        (unb.with_limit(1, 2.0), 0),
        (unb.with_limit(0, t_min * 10.0), 3),
        (unb, r_max),
        (unb, r_max),
    ];
    let mut round_us = Samples::with_capacity(sequence.len());
    for (bounds, r) in &sequence {
        let t0 = Instant::now();
        opt.optimize(bounds, *r);
        round_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let storm = Storm {
        rounds: sequence.len(),
        invocations: sequence.len() as u64 + 1,
        base,
        frontier_size: opt.frontier(&unb, r_max).len(),
        round_us,
    };
    storm.record(&spec, opt.stats(), trial);
}

/// What one storm variant reports besides the optimizer's counters.
struct Storm {
    rounds: usize,
    invocations: u64,
    /// The counters when the ladder ended and the storm began.
    base: OptimizerStats,
    frontier_size: usize,
    round_us: Samples,
}

impl Storm {
    /// Records the storm's re-optimization economy into `trial`: the
    /// counter deltas since the ladder, plus per-round latency.
    fn record(&self, spec: &QuerySpec, stats: &OptimizerStats, trial: &mut Trial) {
        let base = &self.base;
        trial.int("tables", spec.n_tables() as u64);
        trial.int("rounds", self.rounds as u64);
        trial.int("invocations", self.invocations);
        trial.int("ladder_plans", base.plans_generated);
        // Plans generated after the ladder: the storm's re-optimization
        // cost. Deterministic (seeded storm, deterministic model), so it
        // gates — churn re-pruning known plans must not regress into
        // regenerating them.
        trial.int_lower("storm_plans", stats.plans_generated - base.plans_generated);
        // Splits settled wholesale: a watermark rectangle covering the
        // full cross product retires the split before a single pair
        // forms, so the storm's skip economy shows up here, not in the
        // pair counters.
        trial.int(
            "storm_splits_visited",
            stats.splits_visited - base.splits_visited,
        );
        trial.int_higher(
            "storm_splits_skipped",
            stats.splits_skipped - base.splits_skipped,
        );
        trial.int(
            "storm_pairs_skipped_watermark",
            stats.pairs_skipped_watermark - base.pairs_skipped_watermark,
        );
        trial.int(
            "storm_stale_pairs_skipped",
            stats.stale_pairs_skipped - base.stale_pairs_skipped,
        );
        trial.int("frontier_size", self.frontier_size as u64);
        trial.summary_us("round_", Summary::of_or_zero(&self.round_us));
    }
}

/// Runs the bound-drag/refocus storm over each topology and reports
/// per-round latency and the skip-path economy.
pub fn churn_experiment(fast: bool) -> ExperimentReport {
    let mut exp = Experiment::new("churn", fast, || ())
        .title("bound churn: drag/refocus storms against parked plan sets");
    for spec in churn_specs(fast) {
        let label = spec.name.clone();
        exp = exp.variant("bound storm", label, move |_, t| run_storm(fast, &spec, t));
    }
    exp.variant("chaotic replay", "chain-4", |_, t| run_replay(t))
        .conclusion(
            "Every bound change resets the resolution focus, yet the storm \
             generates almost no new plans: recombination passes settle \
             positionally on the watermark rectangles. The chaotic replay \
             appends results while operands are dirty, and the IsFresh hash \
             fallback catches those pairs in the later churn epochs.",
        )
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storms_reprune_instead_of_regenerating() {
        let report = churn_experiment(true);
        assert_eq!(report.variants.len(), 4);
        for v in &report.variants {
            let counter = |key: &str| report.metric(&v.label, key).unwrap().as_u64().unwrap();
            assert!(counter("ladder_plans") > 0, "{}", v.label);
            assert!(counter("frontier_size") > 0, "{}", v.label);
            if v.section == "chaotic replay" {
                // The one sequence that reaches the `IsFresh` fallback
                // must keep reaching it.
                assert!(counter("storm_stale_pairs_skipped") > 0, "{}", v.label);
                continue;
            }
            // The storm's recombination passes must be settled by the
            // skip paths, not by regenerating the plan space: the
            // watermark rectangles retire whole splits, and skips
            // dominate fresh plan generation across the storm.
            let skips = counter("storm_splits_skipped");
            assert!(
                skips > counter("storm_plans"),
                "{}: {skips} split skips vs {} regenerated plans",
                v.label,
                counter("storm_plans")
            );
        }
    }
}
