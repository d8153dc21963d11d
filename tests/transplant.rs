//! Oracle tests for warm-state sharing across *similar* (not identical)
//! queries: sub-frontier transplanting and stats-drift rebasing must not
//! weaken the Theorem 2 guarantee. Seeded runs are checked against the
//! exhaustive-DP ground truth exactly like cold runs are — the seed only
//! changes *how fast* the frontier is reached, never *what* it covers.

use moqo::baselines::exhaustive_pareto;
use moqo::core::{IamaOptimizer, SeedTier, MAX_SEEDS_PER_SLICE};
use moqo::cost::{coverage_factor, Bounds, ResolutionSchedule};
use moqo::costmodel::{CostModel, MetricSet, StandardCostModel, StandardCostModelConfig};
use moqo::engine::Harvest;
use moqo::query::{testkit, QuerySpec, TableSet};
use std::sync::Arc;

/// A reduced operator space keeps exhaustive DP tractable.
fn small_model() -> StandardCostModel {
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

fn schedule() -> ResolutionSchedule {
    ResolutionSchedule::linear(3, 1.05, 0.5)
}

fn run_ladder(opt: &mut IamaOptimizer) -> Vec<moqo::cost::CostVector> {
    let b = Bounds::unbounded(opt.model_dim());
    for r in 0..=opt.schedule().r_max() {
        opt.optimize(&b, r);
    }
    opt.frontier(&b, opt.schedule().r_max()).costs()
}

/// Rebases cold `opt` from `donor`'s harvest through one seeder, as an
/// open under drifted statistics does; returns the queued seeds.
fn rebase(opt: &mut IamaOptimizer, donor: &IamaOptimizer) -> usize {
    let mut seeder = opt.seeder(SeedTier::Rebase);
    Harvest::of(donor)
        .blobs
        .iter()
        .map(|(_, tables, blob)| seeder.import(*tables, blob).unwrap())
        .sum()
}

#[test]
fn theorem2_holds_for_transplant_seeded_optimizers() {
    // Donor: a fully refined chain(4). Recipient: a cold chain(5) whose
    // {0..3} subsets are seeded from the donor's harvested sub-frontiers.
    // The seeded run must stay within the Theorem 2 factor of exhaustive
    // ground truth — the transplant is a head start, not a shortcut.
    let model = small_model();
    let sched = schedule();
    let donor_spec = Arc::new(testkit::chain_query(4, 150_000));
    let spec = Arc::new(testkit::chain_query(5, 150_000));

    let mut donor = IamaOptimizer::new(donor_spec, Arc::new(model.clone()), sched.clone());
    run_ladder(&mut donor);

    let mut seeded = IamaOptimizer::new(spec.clone(), Arc::new(model.clone()), sched.clone());
    let mut admitted = 0usize;
    for tables in TableSet::full(4).subsets() {
        if tables.len() < 2 {
            continue;
        }
        if let Some(blob) = donor.export_subset(tables) {
            admitted += seeded
                .seeder(SeedTier::Transplant)
                .import(tables, &blob)
                .unwrap();
        }
    }
    assert!(admitted > 0, "the shared prefix must transplant");

    let frontier = run_ladder(&mut seeded);
    let exact = exhaustive_pareto(&spec, &model, &Bounds::unbounded(model.dim()));
    let factor = coverage_factor(&frontier, &exact.pareto_costs());
    let guarantee = sched.guarantee(sched.r_max(), spec.n_tables());
    assert!(
        factor <= guarantee + 1e-9,
        "transplant broke Theorem 2: measured {factor} > guarantee {guarantee}"
    );
}

#[test]
fn theorem2_holds_for_rebased_optimizers() {
    // Donor refined under stale statistics; the recipient rebases its
    // harvest under drifted cardinalities. The frontier served under the
    // *new* stats must cover the *new* exhaustive ground truth — the
    // donor's plans only ever enter through the door, re-costed by the
    // live model over the live catalog. Drifts go both ways.
    let model = small_model();
    let sched = schedule();
    let cases: [(QuerySpec, f64); 3] = [
        (testkit::chain_query(4, 150_000), 1.25),
        (testkit::star_query(5, 150_000), 1.1),
        (testkit::cycle_query(5, 100_000), 0.8),
    ];
    for (stale, drift) in cases {
        let name = stale.name.clone();
        let fresh = Arc::new(testkit::drift_cardinalities(&stale, drift));
        let mut donor = IamaOptimizer::new(Arc::new(stale), Arc::new(model.clone()), sched.clone());
        run_ladder(&mut donor);

        let mut rebased = IamaOptimizer::new(fresh.clone(), Arc::new(model.clone()), sched.clone());
        assert!(
            rebase(&mut rebased, &donor) > 0,
            "{name}: the drifted twin must rebase"
        );

        let frontier = run_ladder(&mut rebased);
        let exact = exhaustive_pareto(&fresh, &model, &Bounds::unbounded(model.dim()));
        let factor = coverage_factor(&frontier, &exact.pareto_costs());
        let guarantee = sched.guarantee(sched.r_max(), fresh.n_tables());
        assert!(
            factor <= guarantee + 1e-9,
            "{name} ×{drift}: rebase broke Theorem 2: measured {factor} > guarantee {guarantee}"
        );
    }
}

#[test]
fn seed_cap_amortizes_the_first_slice_within_the_guarantee() {
    // Rebase and transplant seeds queue and drain at most
    // `MAX_SEEDS_PER_SLICE` per invocation, so a very warm donor cannot
    // stall the first frontier behind one giant candidate drain. A
    // refined star(8) harvests more seeds than one slice admits: the
    // first invocation admits exactly the cap, later ones the rest, and
    // the final frontier still meets Theorem 2 — the seeds are an
    // accelerant, never load-bearing.
    let model = small_model();
    let sched = schedule();
    let stale = Arc::new(testkit::star_query(8, 90_000));
    let fresh = Arc::new(testkit::drift_cardinalities(&stale, 1.05));
    let mut donor = IamaOptimizer::new(stale, Arc::new(model.clone()), sched.clone());
    run_ladder(&mut donor);

    let mut opt = IamaOptimizer::new(fresh.clone(), Arc::new(model.clone()), sched.clone());
    let queued = rebase(&mut opt, &donor);
    assert!(
        queued > MAX_SEEDS_PER_SLICE,
        "the cap must bind: {queued} seeds"
    );
    assert_eq!(opt.pending_seeds(), queued, "seeds queue, not drain");
    let b = Bounds::unbounded(opt.model_dim());
    opt.optimize(&b, 0);
    assert_eq!(opt.pending_seeds(), queued - MAX_SEEDS_PER_SLICE);
    for r in 1..=sched.r_max() {
        opt.optimize(&b, r);
    }
    assert_eq!(opt.pending_seeds(), 0, "the ladder drains the queue");
    let frontier = opt.frontier(&b, sched.r_max()).costs();

    let exact = exhaustive_pareto(&fresh, &model, &Bounds::unbounded(model.dim()));
    let factor = coverage_factor(&frontier, &exact.pareto_costs());
    let guarantee = sched.guarantee(sched.r_max(), fresh.n_tables());
    assert!(
        factor <= guarantee + 1e-9,
        "capped rebase broke Theorem 2: measured {factor} > guarantee {guarantee}"
    );
}

#[test]
fn seeding_from_an_unrelated_query_is_refused_not_absorbed() {
    // A hash collision in the sub-frontier cache would hand an optimizer
    // a blob from an unrelated subset. The structural backstop in the
    // blob (induced stats, edges, metric layout, model identity) must
    // refuse it — correctness never rests on the hash alone.
    let model = small_model();
    let sched = schedule();
    let donor_spec = Arc::new(testkit::star_query(4, 200_000));
    let mut donor = IamaOptimizer::new(donor_spec, Arc::new(model.clone()), sched.clone());
    run_ladder(&mut donor);

    let spec = Arc::new(testkit::chain_query(4, 150_000));
    let mut opt = IamaOptimizer::new(spec, Arc::new(model.clone()), sched.clone());
    let tables = TableSet::full(3);
    let blob = donor.export_subset(tables).expect("star subset exports");
    assert!(
        opt.seeder(SeedTier::Transplant)
            .import(tables, &blob)
            .is_err(),
        "a foreign sub-frontier must be refused"
    );
    assert_eq!(opt.stats().transplanted_candidates, 0);
}
