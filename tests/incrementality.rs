//! Integration tests for the incremental invariants (Lemmas 5–7) and the
//! amortized behaviour of Theorem 5 across realistic invocation series.

use moqo::core::{IamaConfig, IamaOptimizer};
use moqo::cost::{coverage_factor, Bounds, ResolutionSchedule};
use moqo::costmodel::{CostModel, MetricSet, StandardCostModel, StandardCostModelConfig};
use moqo::query::testkit;
use std::sync::Arc;

fn model() -> Arc<StandardCostModel> {
    Arc::new(StandardCostModel::new(
        MetricSet::paper(),
        StandardCostModelConfig {
            dops: vec![1, 2, 4],
            sampling_rates_pm: vec![100, 500],
            eval_spin: 0,
            ..StandardCostModelConfig::default()
        },
    ))
}

#[test]
fn lemmas_hold_on_full_tpch_workload() {
    let model = model();
    let schedule = ResolutionSchedule::linear(6, 1.02, 0.4);
    for spec in moqo::tpch::all_join_blocks(0.01) {
        let mut opt = IamaOptimizer::with_config(
            Arc::new(spec.clone()),
            model.clone(),
            schedule.clone(),
            IamaConfig::tracked(),
        );
        let b = Bounds::unbounded(model.dim());
        for r in 0..=schedule.r_max() {
            opt.optimize(&b, r);
        }
        let stats = opt.stats();
        assert!(stats.max_plan_generations() <= 1, "{}: Lemma 5", spec.name);
        assert!(stats.max_pair_generations() <= 1, "{}: Lemma 6", spec.name);
        assert!(
            stats.max_candidate_retrievals() as usize <= schedule.r_max() + 1,
            "{}: Lemma 7 ({} > rM+1)",
            spec.name,
            stats.max_candidate_retrievals()
        );
    }
}

#[test]
fn lemmas_hold_under_chaotic_bound_changes() {
    // Bounds loosen and tighten arbitrarily — the no-regeneration
    // invariants must survive any event sequence.
    let model = model();
    let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
    let spec = testkit::chain_query(4, 200_000);
    let dim = model.dim();
    let mut opt = IamaOptimizer::with_config(
        Arc::new(spec.clone()),
        model.clone(),
        schedule.clone(),
        IamaConfig::tracked(),
    );
    let unb = Bounds::unbounded(dim);
    opt.optimize(&unb, 0);
    let t_min = opt
        .frontier(&unb, 0)
        .min_by_metric(0)
        .map(|p| p.cost[0])
        .unwrap();
    let scenarios = [
        (Bounds::unbounded(dim).with_limit(0, t_min * 3.0), 1),
        (Bounds::unbounded(dim).with_limit(0, t_min * 1.2), 0),
        (unb, 2),
        (Bounds::unbounded(dim).with_limit(1, 2.0), 0),
        (Bounds::unbounded(dim).with_limit(0, t_min * 10.0), 3),
        (unb, 4),
        (unb, 4),
    ];
    let guarantee = schedule.guarantee(schedule.r_max(), spec.n_tables());
    let (mid, rest) = scenarios.split_at(5);
    for &(bounds, r) in mid {
        opt.optimize(&bounds, r);
    }
    // Mid-churn, the `IsFresh` pair set is non-empty, the active lists
    // hold tombstones and candidates are queued: the snapshot carries all
    // of it, and its re-export is byte-identical. The next churn
    // invocation consults the restored pair set. Candidate sets come back
    // as sets, not in their grids' drain order, so the copy's drains may
    // route plans in another order: its frontiers stay within Theorem 2's
    // factor of the original's.
    let bytes = opt.export_frontier();
    let mut revived = IamaOptimizer::import_frontier(model.clone(), &bytes).unwrap();
    assert!(revived.export_frontier() == bytes, "the re-export differs");
    let stale = revived.stats().stale_pairs_skipped;
    for &(bounds, r) in rest {
        opt.optimize(&bounds, r);
        revived.optimize(&bounds, r);
        let (a, b) = (opt.frontier(&bounds, r), revived.frontier(&bounds, r));
        assert!(coverage_factor(&a.costs(), &b.costs()) <= guarantee + 1e-9);
        assert!(coverage_factor(&b.costs(), &a.costs()) <= guarantee + 1e-9);
    }
    assert!(
        revived.stats().stale_pairs_skipped > stale,
        "the churn never consulted the restored pair set"
    );
    let stats = opt.stats();
    assert!(
        stats.max_plan_generations() <= 1,
        "Lemma 5 under bound churn"
    );
    assert!(
        stats.max_pair_generations() <= 1,
        "Lemma 6 under bound churn"
    );
    assert!(
        stats.max_candidate_retrievals() as usize <= schedule.r_max() + 1,
        "Lemma 7 under bound churn"
    );
}

#[test]
fn lemmas_hold_in_strict_paper_mode() {
    // The pseudo-code-exact configuration (no eager requeue, no
    // shadowing) must satisfy the very bounds the paper proves; Lemma 7's
    // rM + 1 bound is tight in this mode because every dominated plan is
    // re-examined once per level.
    let model = model();
    let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
    let spec = testkit::chain_query(4, 150_000);
    let config = IamaConfig {
        eager_level_skip: false,
        shadow_dominated: false,
        track_invariants: true,
        ..IamaConfig::default()
    };
    let mut opt = IamaOptimizer::with_config(
        Arc::new(spec.clone()),
        model.clone(),
        schedule.clone(),
        config,
    );
    let b = Bounds::unbounded(model.dim());
    for r in 0..=schedule.r_max() {
        opt.optimize(&b, r);
    }
    let stats = opt.stats();
    assert!(stats.max_plan_generations() <= 1);
    assert!(stats.max_pair_generations() <= 1);
    assert!(stats.max_candidate_retrievals() as usize <= schedule.r_max() + 1);
    // In strict mode some plan is typically re-examined at several
    // levels; the eager default cuts this (compare the two modes).
    let mut eager = IamaOptimizer::with_config(
        Arc::new(spec.clone()),
        model.clone(),
        schedule.clone(),
        IamaConfig::tracked(),
    );
    for r in 0..=schedule.r_max() {
        eager.optimize(&b, r);
    }
    assert!(
        eager.stats().candidate_retrievals <= stats.candidate_retrievals,
        "eager requeue must not increase candidate churn"
    );
}

#[test]
fn steady_state_invocations_are_free_of_plan_work() {
    // Theorem 5's intuition: once everything has been generated, further
    // invocations only pay the table-set iteration overhead.
    let model = model();
    let schedule = ResolutionSchedule::linear(5, 1.02, 0.5);
    let spec = testkit::chain_query(5, 150_000);
    let b = Bounds::unbounded(model.dim());
    let mut opt = IamaOptimizer::new(Arc::new(spec.clone()), model.clone(), schedule.clone());
    for r in 0..=schedule.r_max() {
        opt.optimize(&b, r);
    }
    for _ in 0..5 {
        let rep = opt.optimize(&b, schedule.r_max());
        assert_eq!(rep.plans_generated, 0);
        assert_eq!(rep.pairs_generated, 0);
        assert_eq!(rep.candidates_retrieved, 0);
        assert_eq!(rep.result_insertions, 0);
    }
}

#[test]
fn delta_filtering_does_not_change_results() {
    let model = model();
    let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
    let spec = testkit::star_query(4, 300_000);
    let b = Bounds::unbounded(model.dim());
    let mut frontiers = Vec::new();
    for use_delta in [true, false] {
        let mut opt = IamaOptimizer::with_config(
            Arc::new(spec.clone()),
            model.clone(),
            schedule.clone(),
            IamaConfig {
                use_delta,
                ..IamaConfig::default()
            },
        );
        for r in 0..=schedule.r_max() {
            opt.optimize(&b, r);
        }
        let mut costs: Vec<Vec<u64>> = opt
            .frontier(&b, schedule.r_max())
            .costs()
            .iter()
            .map(|c| c.as_slice().iter().map(|v| v.to_bits()).collect())
            .collect();
        costs.sort();
        frontiers.push(costs);
    }
    assert_eq!(
        frontiers[0], frontiers[1],
        "delta filtering changed results"
    );
}

#[test]
fn tightening_bounds_only_reuses_plans() {
    // Example 3's flow: tighten bounds — no new plan should be generated
    // for the *smaller* search space beyond what candidates provide, and
    // the frontier shrinks to the bounded region.
    let model = model();
    let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
    let spec = testkit::chain_query(4, 200_000);
    let dim = model.dim();
    let unb = Bounds::unbounded(dim);
    let mut opt = IamaOptimizer::new(Arc::new(spec.clone()), model.clone(), schedule.clone());
    for r in 0..=schedule.r_max() {
        opt.optimize(&unb, r);
    }
    let plans_before = opt.stats().plans_generated;
    let full_frontier = opt.frontier(&unb, schedule.r_max());
    let t_med = {
        let mut ts: Vec<f64> = full_frontier.costs().iter().map(|c| c[0]).collect();
        ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ts[ts.len() / 2]
    };
    let tight = Bounds::unbounded(dim).with_limit(0, t_med);
    for r in 0..=schedule.r_max() {
        opt.optimize(&tight, r);
    }
    // Everything within the tight bounds was already generated: zero new
    // plans.
    assert_eq!(
        opt.stats().plans_generated,
        plans_before,
        "tightening bounds regenerated plans"
    );
    let bounded = opt.frontier(&tight, schedule.r_max());
    assert!(bounded.len() <= full_frontier.len());
    assert!(bounded.points.iter().all(|p| tight.respects(&p.cost)));
}

#[test]
fn amortized_work_is_bounded_over_many_invocations() {
    // Theorem 5: total retrievals/generations stay bounded no matter how
    // many invocations run; repeat the full ladder many times.
    let model = model();
    let schedule = ResolutionSchedule::linear(3, 1.05, 0.5);
    let spec = testkit::chain_query(4, 150_000);
    let b = Bounds::unbounded(model.dim());
    let mut opt = IamaOptimizer::new(Arc::new(spec.clone()), model.clone(), schedule.clone());
    let mut totals = Vec::new();
    for _round in 0..10 {
        for r in 0..=schedule.r_max() {
            opt.optimize(&b, r);
        }
        totals.push((
            opt.stats().plans_generated,
            opt.stats().pairs_generated,
            opt.stats().candidate_retrievals,
        ));
    }
    // After the first full ladder, all counters must be frozen.
    assert_eq!(totals[0], totals[9], "work kept accumulating: {totals:?}");
}
