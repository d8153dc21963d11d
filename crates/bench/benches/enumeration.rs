//! Benchmarks of the precomputed enumeration plane: one-time plan
//! construction cost per topology, rank-map lookups, and the steady-state
//! invocation that the plan is built to accelerate (every split settled
//! by watermark, zero plan work).
//!
//! Topologies at `n >= 12` follow the paper's scaling experiments: chains
//! and cycles stay near-linear in enumerated subsets, stars quadratic in
//! splits, and cliques exercise the `O(3^n)` worst case (kept at `n = 12`
//! so one build stays in the hundreds of milliseconds).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use moqo_bench::{build_pruning_grid, KERNEL_CELL_SIZES, KERNEL_DIMS};
use moqo_core::IamaOptimizer;
use moqo_cost::{Bounds, ResolutionSchedule};
use moqo_costmodel::{CostModel, MetricSet, StandardCostModel, StandardCostModelConfig};
use moqo_index::{dominance_scan_scalar, PlanIndex};
use moqo_query::{testkit, EnumerationPlan, QuerySpec};
use std::sync::Arc;

fn topologies() -> Vec<QuerySpec> {
    vec![
        testkit::chain_query(12, 100_000),
        testkit::chain_query(16, 100_000),
        testkit::star_query(12, 100_000),
        testkit::star_query(16, 100_000),
        testkit::cycle_query(12, 100_000),
        testkit::cycle_query(16, 100_000),
        testkit::clique_query(12, 1000),
    ]
}

fn bench_plan_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumeration_build");
    group.sample_size(10);
    for spec in topologies() {
        group.bench_with_input(BenchmarkId::new("build", &spec.name), &spec, |b, spec| {
            b.iter(|| EnumerationPlan::build(black_box(&spec.graph), false));
        });
    }
    group.finish();
}

fn bench_rank_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumeration_rank");
    for spec in topologies() {
        let plan = EnumerationPlan::build(&spec.graph, false);
        let sets: Vec<_> = plan.subsets().iter().map(|s| s.tables).collect();
        group.bench_with_input(
            BenchmarkId::new("subset_id_all", &spec.name),
            &plan,
            |b, plan| {
                b.iter(|| {
                    let mut found = 0usize;
                    for &s in &sets {
                        found += plan.subset_id(black_box(s)).is_some() as usize;
                    }
                    found
                })
            },
        );
    }
    group.finish();
}

/// The hot loop the refactor targets: a repeated invocation over a fully
/// refined optimizer. Every split must be settled by its watermark — the
/// measured time is the pure enumeration-plane walk.
///
/// Sparse topologies only (chains and cycles stay linear-ish in subsets):
/// the one-time refinement ladder is the setup, and a 12-table star or
/// clique ladder is a full multi-objective DP run, not a bench setup.
fn bench_steady_state_invocation(c: &mut Criterion) {
    let model = Arc::new(StandardCostModel::new(
        MetricSet::paper(),
        StandardCostModelConfig {
            dops: vec![1, 4],
            sampling_rates_pm: vec![100, 500],
            eval_spin: 0,
            ..StandardCostModelConfig::default()
        },
    ));
    let schedule = ResolutionSchedule::linear(3, 1.05, 0.5);
    let bounds = Bounds::unbounded(model.dim());
    let mut group = c.benchmark_group("enumeration_steady_state");
    group.sample_size(10);
    for spec in [
        testkit::chain_query(12, 100_000),
        testkit::cycle_query(12, 100_000),
    ] {
        let mut opt = IamaOptimizer::new(Arc::new(spec.clone()), model.clone(), schedule.clone());
        for r in 0..=schedule.r_max() {
            opt.optimize(&bounds, r);
        }
        group.bench_with_input(
            BenchmarkId::new("repeat_invocation", &spec.name),
            &(),
            |b, ()| {
                b.iter(|| {
                    let report = opt.optimize(&bounds, schedule.r_max());
                    assert_eq!(report.plans_generated, 0);
                    report.splits_skipped
                })
            },
        );
    }
    group.finish();
}

/// The index witness search over controlled cell populations: the
/// scalar per-entry visitor (`dominance_scan_scalar`) against the
/// batched struct-of-arrays lane kernels (`CellGrid::dominance_scan`).
/// A negative-infinity threshold forces full scans, so both paths do
/// identical logical work over identical entries — the measured delta
/// is purely storage layout and call protocol. `repro pruning` runs the
/// same sweep with medians into `BENCH_pruning.json`.
fn bench_pruning_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("pruning_dominance_scan");
    group.sample_size(20);
    for &dim in KERNEL_DIMS {
        for &cell_size in KERNEL_CELL_SIZES {
            let cells = (4096 / cell_size).clamp(1, 256);
            let (grid, target) = build_pruning_grid(dim, cells, cell_size, 0x5eed + dim as u64);
            let bounds = Bounds::unbounded(dim);
            let label = format!("dim{dim}_cell{cell_size}");
            group.bench_with_input(BenchmarkId::new("scalar", &label), &grid, |b, grid| {
                b.iter(|| {
                    dominance_scan_scalar(
                        grid,
                        black_box(&bounds),
                        0,
                        black_box(&target),
                        f64::NEG_INFINITY,
                        &mut |_| true,
                    )
                    .best_factor
                })
            });
            group.bench_with_input(BenchmarkId::new("batched", &label), &grid, |b, grid| {
                b.iter(|| {
                    grid.dominance_scan(
                        black_box(&bounds),
                        0,
                        black_box(&target),
                        f64::NEG_INFINITY,
                        &mut |_| true,
                    )
                    .best_factor
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_plan_build,
    bench_rank_lookup,
    bench_steady_state_invocation,
    bench_pruning_kernels
);
criterion_main!(benches);
