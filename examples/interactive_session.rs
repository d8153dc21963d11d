//! A full scripted interactive session (the paper's Figure 1 workflow),
//! spoken in the session protocol: coarse frontier quickly → refinement
//! without input → the user drags a bound → focused refinement → plan
//! selection — with every update arriving as a delta-streamed
//! [`moqo::core::SessionEvent`] folded into a client-side
//! [`moqo::core::SessionView`], exactly as a remote UI would consume it.
//!
//! ```text
//! cargo run --release --example interactive_session
//! ```

use moqo::core::{Session, SessionCommand, SessionView};
use moqo::prelude::*;
use moqo::viz::{render_scatter, ScatterOptions};
use std::sync::Arc;

fn main() {
    let spec = Arc::new(moqo::tpch::query_block("q09", 0.1).expect("q09 exists"));
    let model: SharedCostModel = Arc::new(StandardCostModel::paper_metrics());
    let schedule = ResolutionSchedule::linear(12, 1.01, 0.3);
    let request = SessionRequest::new(spec);
    let mut session = Session::open(request, model.clone(), schedule).expect("valid request");
    // The client folds every event into its own view; the assertions at
    // the bottom prove the deltas reassembled the frontier exactly.
    let mut view = SessionView::default();
    let mut shipped = 0usize;

    let plot = |frontier: &moqo::core::FrontierSnapshot, bounds: Option<Bounds>| {
        let opts = ScatterOptions {
            width: 56,
            height: 14,
            x_metric: 0,
            y_metric: 1,
            x_label: "time".into(),
            y_label: "cores".into(),
            bounds,
        };
        render_scatter(&frontier.costs(), &opts)
    };

    // Step 1: the first invocation returns a coarse frontier quickly.
    let first = session.apply(SessionCommand::Refine).expect("live session");
    shipped += first.delta.shipped_points();
    let report = first.report.clone().expect("Refine runs an invocation");
    view.fold(&first).expect("ordered stream");
    println!(
        "first approximation after {:.1} ms ({} plans, all shipped as the first delta):",
        report.seconds() * 1e3,
        view.frontier.len()
    );
    println!("{}", plot(&view.frontier, None));

    // Steps 2-4: refinement without user input.
    for _ in 0..3 {
        let ev = session.apply(SessionCommand::Refine).expect("live session");
        shipped += ev.delta.shipped_points();
        view.fold(&ev).expect("ordered stream");
    }
    println!("after three refinements ({} plans):", view.frontier.len());
    println!("{}", plot(&view.frontier, None));

    // Step 5: the user reserves at most 4 cores. One command both
    // refocuses the session (resolution resets to 0) and runs the first
    // focused invocation.
    let bounds = Bounds::unbounded(model.dim()).with_limit(1, 4.0);
    println!("user drags the cores bound to 4: {bounds}");
    let refocus = session
        .apply(SessionCommand::SetBounds(bounds))
        .expect("live session");
    shipped += refocus.delta.shipped_points();
    view.fold(&refocus).expect("ordered stream");

    // Steps 6-8: focused refinement under the new bounds (the resolution
    // climbs again; candidate plans are reused, nothing is regenerated).
    for _ in 0..3 {
        let ev = session.apply(SessionCommand::Refine).expect("live session");
        shipped += ev.delta.shipped_points();
        let report = ev.report.clone().expect("invocation ran");
        view.fold(&ev).expect("ordered stream");
        println!(
            "  focused invocation at resolution {}: {} plans, {:.1} ms, delta shipped {} points",
            report.resolution,
            view.frontier.len(),
            report.seconds() * 1e3,
            ev.delta.shipped_points(),
        );
    }
    println!(
        "\nfrontier within the core budget ({} plans):",
        view.frontier.len()
    );
    println!("{}", plot(&view.frontier, Some(bounds)));

    // The reassembled view must agree with the session, bit for bit —
    // the protocol's delta-stream guarantee.
    assert!(
        view.frontier.bits_eq(session.frontier()),
        "delta stream diverged from the session"
    );

    // Step 9: the user clicks the plan with the best time within budget.
    let choice = *view.frontier.min_by_metric(0).expect("non-empty frontier");
    let fin = session
        .apply(SessionCommand::SelectPlan(choice.plan))
        .expect("live session");
    view.fold(&fin).expect("ordered stream");
    let plan = view.selected().expect("selection is terminal");
    assert_eq!(plan, choice.plan);
    println!(
        "selected plan {plan:?}: time={:.1}, cores={:.0}, error={:.3}",
        choice.cost[0], choice.cost[1], choice.cost[2]
    );
    println!("{}", moqo::plan::explain(session.optimizer().arena(), plan));

    // Incrementality receipt: nothing was ever generated twice — and the
    // delta stream shipped each frontier point exactly once per focus.
    let stats = session.optimizer().stats();
    println!(
        "session totals: {} invocations, {} plans generated, {} pairs combined, \
         {} frontier points shipped over {} events",
        session.invocations(),
        stats.plans_generated,
        stats.pairs_generated,
        shipped,
        view.epoch,
    );
}
