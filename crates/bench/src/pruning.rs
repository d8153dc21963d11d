//! The `repro pruning` experiment: the prune-path share of end-to-end
//! invocation time.
//!
//! Full refinement ladders run with [`IamaConfig::time_pruning`] on,
//! reporting how much of the invocation wall-clock the optimizer's
//! witness search (one pass over the subset's active list) consumes and
//! how many active entries it examines per second.

use moqo_core::{IamaConfig, IamaOptimizer};
use moqo_cost::{Bounds, ResolutionSchedule};
use moqo_costmodel::{CostModel, MetricSet, StandardCostModel, StandardCostModelConfig};
use moqo_query::{testkit, QuerySpec};
use std::sync::Arc;

use crate::harness::{Experiment, ExperimentReport, Trial};

/// The lean cost model used for enumeration-plane and pruning profiles:
/// small option sets and no evaluation spin keep ladders fast while the
/// pruning structure stays realistic.
fn lean_model() -> StandardCostModel {
    StandardCostModel::new(
        MetricSet::paper(),
        StandardCostModelConfig {
            dops: vec![1, 4],
            sampling_rates_pm: vec![100, 500],
            eval_spin: 0,
            ..StandardCostModelConfig::default()
        },
    )
}

/// The mixed topology workload the prune-share ladders run.
fn share_specs(fast: bool) -> Vec<Arc<QuerySpec>> {
    let n = if fast { 7 } else { 9 };
    vec![
        Arc::new(testkit::chain_query(n, 100_000)),
        Arc::new(testkit::star_query(if fast { 5 } else { 7 }, 100_000)),
        Arc::new(testkit::clique_query(if fast { 4 } else { 6 }, 1000)),
    ]
}

/// Shared setup of the prune-share ladders.
struct PruningState {
    fast: bool,
    model: Arc<StandardCostModel>,
}

/// Runs one full ladder with pruning timed and records the prune-path
/// profile.
fn run_share_ladder(state: &PruningState, spec: &Arc<QuerySpec>, trial: &mut Trial) {
    let schedule = ResolutionSchedule::linear(if state.fast { 2 } else { 4 }, 1.05, 0.5);
    let bounds = Bounds::unbounded(state.model.dim());
    let config = IamaConfig {
        time_pruning: true,
        ..IamaConfig::default()
    };
    let mut opt =
        IamaOptimizer::with_config(spec.clone(), state.model.clone(), schedule.clone(), config);
    let mut total_seconds = 0.0;
    for r in 0..=schedule.r_max() {
        total_seconds += opt.optimize(&bounds, r).seconds();
    }
    let stats = opt.stats();
    let prune_seconds = stats.prune_nanos as f64 * 1e-9;
    trial.num_lower("total_s", total_seconds);
    trial.num_lower("prune_s", prune_seconds);
    trial.num("prune_share", prune_seconds / total_seconds.max(1e-12));
    trial.int("prune_comparisons", stats.prune_comparisons);
    trial.num_higher(
        "cmp_per_sec",
        stats.prune_comparisons as f64 / prune_seconds.max(1e-12),
    );
}

/// The pruning experiment: one prune-share ladder per query.
pub fn pruning_experiment(fast: bool) -> ExperimentReport {
    let mut exp = Experiment::new("pruning", fast, move || PruningState {
        fast,
        model: Arc::new(lean_model()),
    })
    .title("pruning: the witness search's share of invocation time");
    for spec in share_specs(fast) {
        exp = exp.variant("prune share", spec.name.clone(), move |s, t| {
            run_share_ladder(s, &spec, t)
        });
    }
    exp.conclusion(
        "the optimizer's active-list witness search takes the prune share \
         shown per query.",
    )
    .run()
}
