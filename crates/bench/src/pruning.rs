//! The `repro pruning` experiment: throughput of the index
//! dominance-scan kernels, scalar visitor versus batched
//! struct-of-arrays lanes, plus the prune-path share of end-to-end
//! invocation time.
//!
//! Two measurements:
//!
//! 1. **Kernel microbench** — synthetic cell grids with *controlled*
//!    cell sizes (costs pinned into known `floor(log2(1+v))` buckets,
//!    one bucket vector per cell) are scanned with
//!    [`PlanIndex::dominance_scan`] (batched lane kernels) and
//!    [`dominance_scan_scalar`] (the per-entry `dyn` visitor).
//!    `threshold = f64::NEG_INFINITY` forces full scans so both paths
//!    do identical logical work; the reported medians isolate the
//!    storage-layout and call-protocol difference. The same
//!    [`build_pruning_grid`] feeds the criterion group in
//!    `benches/enumeration.rs`.
//! 2. **Prune share** — full refinement ladders with
//!    [`IamaConfig::time_pruning`] on, reporting how much of the
//!    invocation wall-clock the optimizer's witness search (one pass
//!    over the subset's active list) consumes and how many active
//!    entries it examines per second.
//!
//! The optimizer's witness search walks active lists, not these
//! kernels: they serve the cell grid's range scans and are the reference
//! that search is property-tested against.

use moqo_core::{IamaConfig, IamaOptimizer};
use moqo_cost::{Bounds, CostVector, ResolutionSchedule};
use moqo_costmodel::{CostModel, MetricSet, StandardCostModel, StandardCostModelConfig};
use moqo_index::{dominance_scan_scalar, CellGrid, Entry, PlanIndex};
use moqo_query::{testkit, QuerySpec};
use std::sync::Arc;
use std::time::Instant;

use crate::harness::{Experiment, ExperimentReport, Trial};
use crate::stats::{Samples, Summary};
use crate::workload::XorShift;

/// Cost-metric dimensionalities the kernel microbench sweeps.
pub const KERNEL_DIMS: &[usize] = &[2, 3, 6];

/// Grid-cell populations the kernel microbench sweeps.
pub const KERNEL_CELL_SIZES: &[usize] = &[8, 64, 512];

/// Builds a cell grid with exactly `cells` populated cells of
/// `cell_size` entries each: cell `c` gets the per-metric log-bucket
/// `2 + 3 * digit_m(c)` (base-16 digits), and every entry's metric `m`
/// is drawn uniformly from that bucket's value range
/// `[2^e - 1, 2^{e+1} - 1)`, so `floor(log2(1 + v)) = e` exactly and no
/// two cells collide. All entries carry level 0.
///
/// Returns the grid and a mid-range scan target. `cells` must be at
/// most `16^min(dim, 2)` (256 for `dim >= 2`) to keep bucket vectors
/// distinct.
pub fn build_pruning_grid(
    dim: usize,
    cells: usize,
    cell_size: usize,
    seed: u64,
) -> (CellGrid<u32>, CostVector) {
    assert!(cells <= 16usize.pow(dim.min(2) as u32));
    let mut rng = XorShift::new(seed);
    let mut grid = CellGrid::new(dim);
    let mut item = 0u32;
    for c in 0..cells {
        let exps: Vec<u32> = (0..dim)
            .map(|m| 2 + 3 * ((c >> (4 * m.min(1))) as u32 & 0xf))
            .collect();
        for _ in 0..cell_size {
            let vals: Vec<f64> = exps
                .iter()
                .map(|&e| {
                    let lo = (1u64 << e) as f64;
                    lo * (1.0 + rng.next_f64()) - 1.0
                })
                .collect();
            grid.insert(Entry::new(item, CostVector::new(&vals), 0, 0));
            item += 1;
        }
    }
    let target = CostVector::new(&vec![64.0; dim]);
    (grid, target)
}

/// Times `scan` (which performs one full pass over the grid) and
/// returns its median ns/pass over `samples` samples of `reps` passes
/// each.
fn time_scans(mut scan: impl FnMut() -> f64, reps: usize, samples: usize) -> f64 {
    let mut per_pass = Samples::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        let mut sink = 0.0;
        for _ in 0..reps {
            sink += scan();
        }
        let ns = t.elapsed().as_nanos() as f64 / reps as f64;
        assert!(sink.is_finite());
        per_pass.push(ns);
    }
    Summary::of_or_zero(&per_pass).p50
}

/// Measures one (dim, cell size) point: median ns per full scan, both
/// paths, plus derived throughput and speedup.
fn measure_kernel_point(dim: usize, cell_size: usize, fast: bool, trial: &mut Trial) {
    let (samples, target_total) = if fast { (3, 1024) } else { (5, 4096) };
    let cells = (target_total / cell_size).clamp(1, 256);
    let entries = cells * cell_size;
    let (grid, target) = build_pruning_grid(dim, cells, cell_size, 0x5eed + dim as u64);
    let bounds = Bounds::unbounded(dim);
    let reps = (2_000_000 / entries).max(8);
    // Full scans: a negative-infinity threshold never triggers the
    // early exit, so both paths walk every entry.
    let scalar_ns = time_scans(
        || {
            dominance_scan_scalar(&grid, &bounds, 0, &target, f64::NEG_INFINITY, &mut |_| true)
                .best_factor
        },
        reps,
        samples,
    );
    let batch_ns = time_scans(
        || {
            grid.dominance_scan(&bounds, 0, &target, f64::NEG_INFINITY, &mut |_| true)
                .best_factor
        },
        reps,
        samples,
    );
    let per_sec = |ns: f64| entries as f64 / (ns * 1e-9);
    trial.int("cells", cells as u64);
    trial.int("entries", entries as u64);
    trial.num_lower("scalar_ns", scalar_ns);
    trial.num_lower("batch_ns", batch_ns);
    trial.num_higher("scalar_cmp_per_sec", per_sec(scalar_ns));
    trial.num_higher("batch_cmp_per_sec", per_sec(batch_ns));
    trial.num("speedup", scalar_ns / batch_ns);
}

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

/// The pruning experiment: the kernel sweep ([`KERNEL_DIMS`] ×
/// [`KERNEL_CELL_SIZES`]) and the end-to-end prune-share ladders (one
/// per query).
pub fn pruning_experiment(fast: bool) -> ExperimentReport {
    let mut exp = Experiment::new("pruning", fast, move || PruningState {
        fast,
        model: Arc::new(lean_model()),
    })
    .title("dominance-scan pruning: batched lanes vs the scalar visitor, and the prune share");
    for &dim in KERNEL_DIMS {
        for &cell_size in KERNEL_CELL_SIZES {
            exp = exp.variant(
                "kernel microbench",
                format!("dim{dim} cell{cell_size}"),
                move |_, t| measure_kernel_point(dim, cell_size, fast, t),
            );
        }
    }
    for spec in share_specs(fast) {
        exp = exp.variant("prune share", spec.name.clone(), move |s, t| {
            run_share_ladder(s, &spec, t)
        });
    }
    exp.conclusion(
        "batched struct-of-arrays lanes outscan the dyn visitor at every \
         (dim, cell size) point; the optimizer's active-list witness \
         search takes the prune share shown per query.",
    )
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_builder_hits_the_requested_cell_sizes() {
        let (grid, _) = build_pruning_grid(3, 7, 16, 99);
        assert_eq!(grid.len(), 7 * 16);
        // Every entry is visible to a full scan at level 0...
        let mut seen = 0usize;
        grid.scan(&Bounds::unbounded(3), 0, &mut |_| {
            seen += 1;
            false
        });
        assert_eq!(seen, 7 * 16);
        // ...and both scan paths report the same witness minimum.
        let target = CostVector::new(&[64.0; 3]);
        let batched = grid.dominance_scan(
            &Bounds::unbounded(3),
            0,
            &target,
            f64::NEG_INFINITY,
            &mut |_| true,
        );
        let scalar = dominance_scan_scalar(
            &grid,
            &Bounds::unbounded(3),
            0,
            &target,
            f64::NEG_INFINITY,
            &mut |_| true,
        );
        assert_eq!(batched.best_factor.to_bits(), scalar.best_factor.to_bits());
    }

    #[test]
    fn builder_rejects_colliding_cell_counts() {
        let result = std::panic::catch_unwind(|| build_pruning_grid(2, 257, 1, 1));
        assert!(result.is_err());
    }
}
