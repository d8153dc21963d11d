//! Non-incremental multi-objective dynamic programming.
//!
//! One routine, [`approx_dp`], parameterized by the pruning factor `alpha`
//! covers all three baselines:
//!
//! * `alpha = 1` → exhaustive full-Pareto DP ([`exhaustive_pareto`]);
//! * `alpha = alpha_target` → the one-shot approximation scheme
//!   ([`one_shot`]);
//! * one run per resolution level → the memoryless anytime baseline
//!   ([`memoryless_series`]).
//!
//! Unlike IAMA, this DP keeps its per-table-set plan sets *minimal*: a
//! newly inserted plan evicts the plans it dominates (prior work "always
//! keeps the result plan sets as small as possible", Section 4.2) — it can
//! afford to because it never reuses state across invocations. Plans whose
//! cost exceeds the bounds are discarded outright, which is safe under
//! monotone cost aggregation.

use moqo_cost::{Bounds, CostVector, ResolutionSchedule};
use moqo_costmodel::{CostModel, PlanInput};
use moqo_index::FxHashMap;
use moqo_plan::{PhysicalProps, PlanArena, PlanId};
use moqo_query::{k_subsets, QuerySpec, TableSet};
use std::time::{Duration, Instant};

/// A plan surviving pruning for one table set.
#[derive(Clone, Copy)]
struct DpEntry {
    plan: PlanId,
    cost: CostVector,
    props: PhysicalProps,
}

/// Result of one non-incremental DP run.
pub struct DpOutcome {
    /// The arena holding every plan constructed during the run.
    pub arena: PlanArena,
    /// The frontier: `(plan, cost)` for the full table set.
    pub frontier: Vec<(PlanId, CostVector)>,
    /// Plans constructed.
    pub plans_generated: u64,
    /// Ordered sub-plan pairs combined.
    pub pairs_generated: u64,
    /// Wall-clock time of the run.
    pub duration: Duration,
}

impl DpOutcome {
    /// The frontier's cost vectors.
    pub fn frontier_costs(&self) -> Vec<CostVector> {
        self.frontier.iter().map(|(_, c)| *c).collect()
    }

    /// The Pareto-minimal cost vectors of the frontier.
    ///
    /// The raw frontier keeps one plan per physical-property class, so a
    /// sorted plan may be cost-dominated by an unsorted one; for the full
    /// table set no downstream operator can exploit the order anymore, so
    /// ground-truth comparisons use this filtered view.
    pub fn pareto_costs(&self) -> Vec<CostVector> {
        let costs = self.frontier_costs();
        moqo_cost::pareto_filter(&costs)
            .into_iter()
            .map(|i| costs[i])
            .collect()
    }
}

/// Inserts `(plan, cost, props)` into a minimal `alpha`-pruned set.
///
/// Rejected if an existing entry with compatible physical properties
/// `alpha`-dominates the new cost; on acceptance, entries that the new
/// plan plainly dominates (and whose order requirements it satisfies) are
/// evicted.
fn insert_pruned(
    set: &mut Vec<DpEntry>,
    plan: PlanId,
    cost: CostVector,
    props: PhysicalProps,
    alpha: f64,
) -> bool {
    for e in set.iter() {
        if e.props.satisfies(&props) && e.cost.dominates_scaled(&cost, alpha) {
            return false;
        }
    }
    set.retain(|e| !(props.satisfies(&e.props) && cost.dominates(&e.cost)));
    set.push(DpEntry { plan, cost, props });
    true
}

/// One non-incremental approximate MOQO DP pass with pruning factor
/// `alpha` and cost bounds `bounds`.
///
/// # Panics
/// Panics if `alpha < 1` or the bounds dimension mismatches the model.
pub fn approx_dp<M: CostModel>(
    spec: &QuerySpec,
    model: &M,
    alpha: f64,
    bounds: &Bounds,
) -> DpOutcome {
    assert!(alpha >= 1.0, "pruning factor must be at least 1");
    assert_eq!(bounds.dim(), model.dim(), "bounds dimension mismatch");
    let start = Instant::now();
    let n = spec.n_tables();
    let mut arena = PlanArena::new();
    let mut sets: FxHashMap<TableSet, Vec<DpEntry>> = FxHashMap::default();
    let mut plans_generated = 0u64;
    let mut pairs_generated = 0u64;

    // Base case: scan plans.
    for pos in 0..n {
        let q = TableSet::singleton(pos);
        for (op, cost, props) in model.scan_alternatives(spec, pos) {
            let pid = arena.push_scan(op, pos, cost, props);
            plans_generated += 1;
            if bounds.exceeds(&cost) {
                continue; // cannot lead to a bounded plan (monotonicity)
            }
            insert_pruned(sets.entry(q).or_default(), pid, cost, props, alpha);
        }
    }

    // Inductive case: table sets of increasing cardinality.
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
                            pairs_generated += 1;
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
                                if bounds.exceeds(&cost) {
                                    continue;
                                }
                                insert_pruned(sets.entry(q).or_default(), pid, cost, props, alpha);
                            }
                        }
                    }
                }
            }
        }
    }

    let frontier = sets
        .get(&spec.all_tables())
        .map(|entries| entries.iter().map(|e| (e.plan, e.cost)).collect())
        .unwrap_or_default();
    DpOutcome {
        arena,
        frontier,
        plans_generated,
        pairs_generated,
        duration: start.elapsed(),
    }
}

/// The exhaustive full-Pareto baseline (Ganguly-style): `alpha = 1`.
pub fn exhaustive_pareto<M: CostModel>(spec: &QuerySpec, model: &M, bounds: &Bounds) -> DpOutcome {
    approx_dp(spec, model, 1.0, bounds)
}

/// The one-shot baseline: a single DP pass at the schedule's target
/// precision (`alpha_{rM}`). "Produces the result plan set with highest
/// resolution directly, avoiding any intermediate steps."
pub fn one_shot<M: CostModel>(
    spec: &QuerySpec,
    model: &M,
    schedule: &ResolutionSchedule,
    bounds: &Bounds,
) -> DpOutcome {
    approx_dp(spec, model, schedule.target_factor(), bounds)
}

/// The memoryless baseline: one from-scratch DP pass per resolution level,
/// "the same sequence of result plan sets as the incremental anytime
/// algorithm ... produced from scratch" each time.
pub fn memoryless_series<M: CostModel>(
    spec: &QuerySpec,
    model: &M,
    schedule: &ResolutionSchedule,
    bounds: &Bounds,
) -> Vec<DpOutcome> {
    schedule
        .iter()
        .map(|(_, alpha)| approx_dp(spec, model, alpha, bounds))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_cost::{coverage_factor, pareto_filter};
    use moqo_costmodel::{StandardCostModel, StandardCostModelConfig};
    use moqo_query::testkit;

    /// A reduced operator space keeps the exhaustive baseline fast.
    fn small_model() -> StandardCostModel {
        StandardCostModel::new(
            moqo_costmodel::MetricSet::paper(),
            StandardCostModelConfig {
                dops: vec![1, 4],
                sampling_rates_pm: vec![100, 500],
                ..StandardCostModelConfig::default()
            },
        )
    }

    #[test]
    fn exhaustive_frontier_is_minimal_per_property_class() {
        let spec = testkit::chain_query(3, 100_000);
        let model = small_model();
        let out = exhaustive_pareto(&spec, &model, &Bounds::unbounded(3));
        assert!(!out.frontier.is_empty());
        // Within one physical-property class no plan dominates another.
        for (i, (p1, c1)) in out.frontier.iter().enumerate() {
            for (j, (p2, c2)) in out.frontier.iter().enumerate() {
                if i == j {
                    continue;
                }
                let props1 = out.arena.node(*p1).props;
                let props2 = out.arena.node(*p2).props;
                if props1.satisfies(&props2) {
                    assert!(
                        !c1.strictly_dominates(c2),
                        "exhaustive set not minimal within a property class"
                    );
                }
            }
        }
        // The filtered view is a genuine Pareto set.
        let pareto = out.pareto_costs();
        assert!(!pareto.is_empty());
        assert_eq!(pareto_filter(&pareto).len(), pareto.len());
    }

    #[test]
    fn approx_dp_covers_exhaustive_within_alpha_n() {
        let spec = testkit::chain_query(3, 100_000);
        let model = small_model();
        let b = Bounds::unbounded(3);
        let exact = exhaustive_pareto(&spec, &model, &b);
        let alpha = 1.2;
        let approx = approx_dp(&spec, &model, alpha, &b);
        let exact_costs: Vec<CostVector> = exact.frontier.iter().map(|(_, c)| *c).collect();
        let approx_costs: Vec<CostVector> = approx.frontier.iter().map(|(_, c)| *c).collect();
        let factor = coverage_factor(&approx_costs, &exact_costs);
        let guarantee = alpha.powi(spec.n_tables() as i32);
        assert!(
            factor <= guarantee + 1e-9,
            "coverage factor {factor} exceeds guarantee {guarantee}"
        );
        // Coarser pruning yields a frontier at most as large.
        assert!(approx.frontier.len() <= exact.frontier.len());
    }

    #[test]
    fn coarser_alpha_generates_fewer_plans() {
        let spec = testkit::chain_query(4, 100_000);
        let model = small_model();
        let b = Bounds::unbounded(3);
        let fine = approx_dp(&spec, &model, 1.01, &b);
        let coarse = approx_dp(&spec, &model, 1.5, &b);
        assert!(coarse.plans_generated <= fine.plans_generated);
        assert!(coarse.frontier.len() <= fine.frontier.len());
    }

    #[test]
    fn bounds_prune_the_search_space() {
        let spec = testkit::chain_query(3, 100_000);
        let model = small_model();
        let unb = Bounds::unbounded(3);
        let full = approx_dp(&spec, &model, 1.1, &unb);
        // Bound time to the cheapest plan's time * 1.2.
        let t_min = full
            .frontier
            .iter()
            .map(|(_, c)| c[0])
            .fold(f64::INFINITY, f64::min);
        let tight = Bounds::unbounded(3).with_limit(0, t_min * 1.2);
        let bounded = approx_dp(&spec, &model, 1.1, &tight);
        assert!(bounded.frontier.len() <= full.frontier.len());
        assert!(
            bounded.pairs_generated <= full.pairs_generated,
            "bounds must not increase work"
        );
        assert!(bounded.frontier.iter().all(|(_, c)| tight.respects(c)));
        // The bounded frontier still contains the fastest plan.
        assert!(!bounded.frontier.is_empty());
    }

    #[test]
    fn memoryless_series_matches_schedule_length_and_refines() {
        let spec = testkit::chain_query(3, 100_000);
        let model = small_model();
        let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
        let series = memoryless_series(&spec, &model, &schedule, &Bounds::unbounded(3));
        assert_eq!(series.len(), 5);
        // The last element is the one-shot result (same alpha).
        let oneshot = one_shot(&spec, &model, &schedule, &Bounds::unbounded(3));
        assert_eq!(
            series.last().unwrap().frontier.len(),
            oneshot.frontier.len()
        );
        // Frontier sizes weakly grow as alpha shrinks.
        let sizes: Vec<usize> = series.iter().map(|o| o.frontier.len()).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "sizes {sizes:?}");
    }

    #[test]
    fn single_table_dp() {
        let spec = testkit::chain_query(1, 50_000);
        let model = small_model();
        let out = exhaustive_pareto(&spec, &model, &Bounds::unbounded(3));
        assert!(!out.frontier.is_empty());
        assert_eq!(out.pairs_generated, 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_alpha_below_one() {
        let spec = testkit::chain_query(2, 1000);
        let model = small_model();
        approx_dp(&spec, &model, 0.9, &Bounds::unbounded(3));
    }
}
