//! Sweep the whole TPC-H workload: optimize every join block with IAMA
//! and print per-query statistics — a compact view of what the paper's
//! evaluation section measures.
//!
//! ```text
//! cargo run --release --example tpch_workload [-- <scale factor>]
//! ```

use moqo::prelude::*;
use moqo::viz::TextTable;
use std::sync::Arc;

fn main() {
    let sf: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1);
    let model = Arc::new(StandardCostModel::paper_metrics());
    let schedule = ResolutionSchedule::linear(9, 1.01, 0.3);
    let bounds = Bounds::unbounded(model.dim());

    let mut table = TextTable::new(vec![
        "query",
        "tables",
        "invocations",
        "plans",
        "pairs",
        "frontier",
        "pareto",
        "total ms",
        "max inv ms",
    ]);
    for spec in moqo::tpch::all_join_blocks(sf) {
        let mut opt = IamaOptimizer::new(Arc::new(spec.clone()), model.clone(), schedule.clone());
        let mut total = 0.0;
        let mut max_inv = 0.0f64;
        for r in 0..=schedule.r_max() {
            let rep = opt.optimize(&bounds, r);
            total += rep.seconds();
            max_inv = max_inv.max(rep.seconds());
        }
        let frontier = opt.frontier(&bounds, schedule.r_max());
        let stats = opt.stats();
        table.row(vec![
            spec.name.clone(),
            spec.n_tables().to_string(),
            schedule.levels().to_string(),
            stats.plans_generated.to_string(),
            stats.pairs_generated.to_string(),
            frontier.len().to_string(),
            frontier.pareto_points().len().to_string(),
            format!("{:.1}", total * 1e3),
            format!("{:.1}", max_inv * 1e3),
        ]);
    }
    println!("TPC-H workload at scale factor {sf}:\n");
    println!("{}", table.render());
}
