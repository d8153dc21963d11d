//! Classical single-objective dynamic programming (Selinger-style, bushy).
//!
//! Theorem 5 states that IAMA's amortized time over many invocations
//! matches "the time complexity of single-objective query optimization
//! with bushy plans" — this module provides that comparison point. Cost
//! vectors are collapsed to a scalar with a user-supplied weight vector;
//! per table set, one best plan per physical-property class survives.

use moqo_cost::CostVector;
use moqo_costmodel::{CostModel, PlanInput};
use moqo_index::FxHashMap;
use moqo_plan::{PhysicalProps, PlanArena, PlanId};
use moqo_query::{k_subsets, QuerySpec, TableSet};
use std::time::{Duration, Instant};

/// Result of a single-objective DP run.
pub struct ScalarOutcome {
    /// The arena holding every constructed plan.
    pub arena: PlanArena,
    /// The best complete plan, if any.
    pub best: Option<(PlanId, f64)>,
    /// Plans constructed.
    pub plans_generated: u64,
    /// Wall-clock time.
    pub duration: Duration,
}

#[derive(Clone, Copy)]
struct Best {
    plan: PlanId,
    cost: CostVector,
    scalar: f64,
    props: PhysicalProps,
}

#[inline]
fn scalarize(cost: &CostVector, weights: &[f64]) -> f64 {
    cost.as_slice()
        .iter()
        .zip(weights)
        .map(|(c, w)| c * w)
        .sum()
}

/// Keeps, per table set, the cheapest plan for each physical-property
/// class (an unordered plan plus one per interesting order).
fn keep_best(set: &mut Vec<Best>, new: Best) {
    for e in set.iter_mut() {
        if e.props == new.props {
            if new.scalar < e.scalar {
                *e = new;
            }
            return;
        }
    }
    set.push(new);
}

/// Single-objective bushy DP minimizing `weights · cost`.
///
/// # Panics
/// Panics if `weights.len() != model.dim()` or all weights are zero.
pub fn single_objective_dp<M: CostModel>(
    spec: &QuerySpec,
    model: &M,
    weights: &[f64],
) -> ScalarOutcome {
    assert_eq!(weights.len(), model.dim(), "weight dimension mismatch");
    assert!(
        weights.iter().any(|w| *w > 0.0),
        "at least one weight must be positive"
    );
    let start = Instant::now();
    let n = spec.n_tables();
    let mut arena = PlanArena::new();
    let mut sets: FxHashMap<TableSet, Vec<Best>> = FxHashMap::default();
    let mut plans_generated = 0u64;

    for pos in 0..n {
        let q = TableSet::singleton(pos);
        for (op, cost, props) in model.scan_alternatives(spec, pos) {
            let pid = arena.push_scan(op, pos, cost, props);
            plans_generated += 1;
            keep_best(
                sets.entry(q).or_default(),
                Best {
                    plan: pid,
                    cost,
                    scalar: scalarize(&cost, weights),
                    props,
                },
            );
        }
    }

    let mut alts = Vec::new();
    for k in 2..=n {
        for q in k_subsets(n, k) {
            for (q1, q2) in q.splits() {
                for (a, b) in [(q1, q2), (q2, q1)] {
                    if spec.is_cross_product(a, b) {
                        continue;
                    }
                    let (p1s, p2s) = match (sets.get(&a), sets.get(&b)) {
                        (Some(x), Some(y)) if !x.is_empty() && !y.is_empty() => {
                            (x.clone(), y.clone())
                        }
                        _ => continue,
                    };
                    for e1 in &p1s {
                        for e2 in &p2s {
                            let left = PlanInput {
                                tables: a,
                                cost: e1.cost,
                                props: e1.props,
                            };
                            let right = PlanInput {
                                tables: b,
                                cost: e2.cost,
                                props: e2.props,
                            };
                            alts.clear();
                            model.join_alternatives(spec, &left, &right, &mut alts);
                            for &(op, cost, props) in &alts {
                                let pid = arena.push_join(op, e1.plan, e2.plan, cost, props);
                                plans_generated += 1;
                                keep_best(
                                    sets.entry(q).or_default(),
                                    Best {
                                        plan: pid,
                                        cost,
                                        scalar: scalarize(&cost, weights),
                                        props,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    let best = sets
        .get(&spec.all_tables())
        .and_then(|s| {
            s.iter()
                .min_by(|a, b| a.scalar.partial_cmp(&b.scalar).unwrap())
        })
        .map(|b| (b.plan, b.scalar));
    ScalarOutcome {
        arena,
        best,
        plans_generated,
        duration: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::exhaustive_pareto;
    use moqo_cost::Bounds;
    use moqo_costmodel::{MetricSet, StandardCostModel, StandardCostModelConfig};
    use moqo_query::testkit;

    fn small_model() -> StandardCostModel {
        StandardCostModel::new(
            MetricSet::paper(),
            StandardCostModelConfig {
                dops: vec![1, 4],
                sampling_rates_pm: vec![100, 500],
                ..StandardCostModelConfig::default()
            },
        )
    }

    #[test]
    fn finds_a_complete_plan() {
        let spec = testkit::chain_query(4, 100_000);
        let model = small_model();
        let out = single_objective_dp(&spec, &model, &[1.0, 0.0, 0.0]);
        let (plan, scalar) = out.best.expect("no plan found");
        assert!(scalar > 0.0);
        assert_eq!(out.arena.tables(plan), spec.all_tables());
    }

    #[test]
    fn scalar_optimum_matches_exhaustive_frontier_minimum() {
        // The weighted optimum over the exact Pareto frontier equals the
        // single-objective DP optimum (for monotone linear weights).
        let spec = testkit::chain_query(3, 100_000);
        let model = small_model();
        let weights = [1.0, 0.1, 5.0];
        let scalar_out = single_objective_dp(&spec, &model, &weights);
        let exact = exhaustive_pareto(&spec, &model, &Bounds::unbounded(3));
        let frontier_min = exact
            .frontier
            .iter()
            .map(|(_, c)| scalarize(c, &weights))
            .fold(f64::INFINITY, f64::min);
        let dp_min = scalar_out.best.unwrap().1;
        assert!(
            (dp_min - frontier_min).abs() / frontier_min < 1e-9,
            "scalar DP {dp_min} vs frontier minimum {frontier_min}"
        );
    }

    #[test]
    fn generates_far_fewer_plans_than_exhaustive() {
        let spec = testkit::chain_query(4, 100_000);
        let model = small_model();
        let scalar_out = single_objective_dp(&spec, &model, &[1.0, 1.0, 1.0]);
        let exact = exhaustive_pareto(&spec, &model, &Bounds::unbounded(3));
        assert!(scalar_out.plans_generated < exact.plans_generated);
    }

    #[test]
    #[should_panic(expected = "weight dimension")]
    fn rejects_wrong_weight_dimension() {
        let spec = testkit::chain_query(2, 1000);
        let model = small_model();
        single_objective_dp(&spec, &model, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_all_zero_weights() {
        let spec = testkit::chain_query(2, 1000);
        let model = small_model();
        single_objective_dp(&spec, &model, &[0.0, 0.0, 0.0]);
    }
}
