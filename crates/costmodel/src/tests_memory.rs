//! Tests for the buffer-memory metric.

use crate::metrics::{Metric, MetricSet};
use crate::model::{CostModel, PlanInput};
use crate::standard::{StandardCostModel, StandardCostModelConfig};
use moqo_plan::{JoinAlgo, Operator};
use moqo_query::{testkit, TableSet};

fn model() -> StandardCostModel {
    StandardCostModel::new(
        MetricSet::resources(),
        StandardCostModelConfig {
            eval_spin: 0,
            ..StandardCostModelConfig::default()
        },
    )
}

#[test]
fn scans_reserve_a_page_buffer() {
    let spec = testkit::chain_query(2, 100_000);
    let m = model();
    let metrics = m.metrics();
    for (_, cost, _) in m.scan_alternatives(&spec, 0) {
        assert_eq!(metrics.get(&cost, Metric::Memory), Some(8_192.0));
    }
}

#[test]
fn hash_join_memory_scales_with_build_side() {
    let small = testkit::chain_query(2, 50_000);
    let large = testkit::chain_query(2, 500_000);
    let m = model();
    let metrics = m.metrics();
    let mem_of = |spec: &moqo_query::QuerySpec| {
        let l = m.scan_alternatives(spec, 0).remove(0);
        let r = m.scan_alternatives(spec, 1).remove(0);
        let li = PlanInput {
            tables: TableSet::singleton(0),
            cost: l.1,
            props: l.2,
        };
        let ri = PlanInput {
            tables: TableSet::singleton(1),
            cost: r.1,
            props: r.2,
        };
        let alts = crate::standard::tests::join_alts(&m, spec, &li, &ri);
        let hash = alts
            .iter()
            .find(|(op, _, _)| {
                matches!(
                    op,
                    Operator::Join {
                        algo: JoinAlgo::Hash,
                        dop: 1
                    }
                )
            })
            .unwrap();
        metrics.get(&hash.1, Metric::Memory).unwrap()
    };
    assert!(
        mem_of(&large) > mem_of(&small) * 5.0,
        "hash build memory must grow with the build side"
    );
}

#[test]
fn memory_is_monotone_and_parallel_children_add_up() {
    let spec = testkit::chain_query(2, 200_000);
    let m = model();
    let metrics = m.metrics();
    let l = m.scan_alternatives(&spec, 0).remove(0);
    let r = m.scan_alternatives(&spec, 1).remove(0);
    let li = PlanInput {
        tables: TableSet::singleton(0),
        cost: l.1,
        props: l.2,
    };
    let ri = PlanInput {
        tables: TableSet::singleton(1),
        cost: r.1,
        props: r.2,
    };
    let alts = crate::standard::tests::join_alts(&m, &spec, &li, &ri);
    let mem_pos = metrics.position(Metric::Memory).unwrap();
    for (op, cost, _) in &alts {
        // Monotone cost aggregation holds for memory.
        assert!(cost[mem_pos] >= li.cost[mem_pos] - 1e-9);
        assert!(cost[mem_pos] >= ri.cost[mem_pos] - 1e-9);
        // A parallel nested-loop join holds both child buffers at once.
        if let Operator::Join {
            algo: JoinAlgo::NestedLoop,
            dop,
        } = op
        {
            let expected_children = if *dop > 1 {
                li.cost[mem_pos] + ri.cost[mem_pos]
            } else {
                li.cost[mem_pos].max(ri.cost[mem_pos])
            };
            assert!(cost[mem_pos] >= expected_children - 1e-9);
        }
    }
}

#[test]
fn six_metric_optimization_end_to_end() {
    use moqo_cost::{Bounds, ResolutionSchedule};
    let spec = testkit::chain_query(3, 100_000);
    let m = StandardCostModel::new(
        MetricSet::all(),
        StandardCostModelConfig {
            dops: vec![1, 4],
            sampling_rates_pm: vec![500],
            eval_spin: 0,
            ..StandardCostModelConfig::default()
        },
    );
    // The cost model produces valid six-dimensional vectors usable by the
    // scan/join enumeration (the optimizer integration is exercised in
    // the `interactive` integration test).
    let alts = m.scan_alternatives(&spec, 0);
    assert!(alts.iter().all(|(_, c, _)| c.dim() == 6 && c.is_finite()));
    let _ = (
        Bounds::unbounded(6),
        ResolutionSchedule::linear(2, 1.1, 0.4),
    );
}
