//! End-to-end fleet test over **real processes**: spawns the actual
//! `repro` binary (in its hidden `fleet-node` mode) as three serving
//! processes, SIGKILLs one, and checks the kill-and-repeat story the
//! `repro fleet` experiment asserts — warm repeats generate zero plans
//! after their home node died (orphaned keys are read from the shared
//! snapshot store by their new homes), and the client-side view stays
//! `bits_eq` with the serving node's frontier across the hand-off.

use moqo_bench::{fleet_experiment, fleet_router_watch, Value};
use std::path::Path;
use std::time::Duration;

#[test]
fn kill_and_repeat_survives_across_real_processes() {
    // Cargo builds and points us at the sibling binary target.
    let exe = Path::new(env!("CARGO_BIN_EXE_repro"));
    let report = fleet_experiment(exe, true);
    let counter = |label: &str, key: &str| report.metric(label, key).unwrap().as_u64().unwrap();
    assert_eq!(counter("routes", "nodes"), 3);
    assert_eq!(
        counter("cold", "zero_plan_starts"),
        0,
        "first sight cannot be warm"
    );
    assert_eq!(
        counter("warm", "zero_plan_starts"),
        counter("warm", "sessions")
    );
    // The acceptance assertion: repeats stay zero-plan after the kill.
    assert_eq!(
        counter("post-kill warm", "zero_plan_starts"),
        counter("post-kill warm", "sessions")
    );
    let orphaned = counter("post-kill warm", "orphaned");
    assert!(orphaned >= 1, "the victim must have owned something");
    assert_eq!(
        report.metric("post-kill warm", "view_bits_eq"),
        Some(&Value::Bool(true))
    );
    // Route counters saw every successful submit (3 passes + the
    // dedicated bits_eq session), spread over the node ids.
    let routes = report
        .variants
        .iter()
        .find(|v| v.label == "routes")
        .expect("routing summary variant");
    let routed: u64 = routes
        .metrics
        .iter()
        .filter(|m| m.key.starts_with("routed_"))
        .map(|m| m.value.as_u64().unwrap())
        .sum();
    assert_eq!(routed, 3 * counter("cold", "sessions") + 1);
    assert!(routes
        .metrics
        .iter()
        .filter(|m| m.key.starts_with("routed_"))
        .all(|m| m.key.starts_with("routed_node-")));
}

#[test]
fn watch_loop_heals_a_killed_node_across_real_processes() {
    // Bounded `repro fleet-router` run: five beats at a tight cadence,
    // with the driver SIGKILLing one node after the second beat. The
    // next beat must find the death, and every orphaned key's repeat
    // must start warm from the shared snapshot store.
    let exe = Path::new(env!("CARGO_BIN_EXE_repro"));
    let report = fleet_router_watch(exe, Duration::from_millis(60), Some(5), true);
    assert_eq!(report.ticks, 5);
    assert_eq!(report.deaths, 1, "the induced SIGKILL must be detected");
    assert!(report.orphaned >= 1, "the victim must have owned a key");
    assert_eq!(report.orphan_zero_plan_starts, report.orphaned as u64);
}
