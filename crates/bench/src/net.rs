//! Network-front experiment: submit→first-frontier latency over real
//! loopback TCP, cold versus warm (`repro net`).
//!
//! The serving experiment (`repro serve`) measures the in-process
//! interactive SLO; this one measures the same figure as a **remote**
//! client sees it — handshake, framed submit, admission frame, and
//! delta-streamed events over a socket — so the table shows what the
//! wire adds on top of the engine, and that warm-frontier economy (first
//! invocation of a repeated query generates zero plans) survives the
//! network boundary intact.

use moqo_core::protocol::{SessionCommand, SessionRequest};
use moqo_cost::ResolutionSchedule;
use moqo_costmodel::StandardCostModel;
use moqo_engine::{EngineConfig, ModelRegistry};
use moqo_query::{testkit, QuerySpec};
use moqo_serve::{
    AdmissionConfig, MoqoServer, NetClient, NetConfig, NetServer, ServeConfig, ShardConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::harness::{Experiment, ExperimentReport, Trial};
use crate::stats::{Samples, Summary};

const IDLE: Duration = Duration::from_secs(600);

/// A small mixed workload of **distinct** fingerprints: the cold pass
/// sees every template for the first time, the warm pass repeats the
/// exact list (so zero-plan starts cleanly separate the two passes).
///
/// `--fast` runs its small templates under 8 base cardinalities, 32
/// sessions per pass, because its latency rows are gated: over ten runs
/// on a 2-vCPU VM, 4 sessions read the warm p50 between 59 and 140 µs
/// and the cold p50 between 524 and 1,745 µs; 32 read 96–135 µs and
/// 559–850 µs. Testkit selectivities are `1/base_card`, so no two of
/// these specs share a rebase key or a subset's statistics: every cold
/// open is cold.
pub fn net_workload(fast: bool) -> Vec<Arc<QuerySpec>> {
    let mut specs: Vec<Arc<QuerySpec>> = Vec::new();
    let (top, cards) = if fast { (3, 8) } else { (5, 1) };
    for k in 0..cards {
        for n in 2..=top {
            specs.push(Arc::new(testkit::chain_query(n, 60_000 + 1_000 * k)));
            specs.push(Arc::new(testkit::star_query(n, 90_000 + 1_000 * k)));
        }
    }
    specs
}

/// Server, listener, and workload shared by the cold and warm passes.
struct NetState {
    net: NetServer,
    specs: Vec<Arc<QuerySpec>>,
}

/// Drives every spec through its own connection, recording
/// submit→first-frontier latency; each session is cancelled afterwards so
/// its frontier parks for the warm pass.
fn run_phase(state: &mut NetState, trial: &mut Trial) {
    let addr = state.net.local_addr();
    let mut us = Samples::with_capacity(state.specs.len());
    let mut zero_plan_starts = 0u64;
    for spec in &state.specs {
        let mut client = NetClient::connect(addr).expect("connect over loopback");
        let t0 = Instant::now();
        client
            .submit(SessionRequest::new(spec.clone()), IDLE)
            .expect("admitted");
        while client.view().frontier.is_empty() {
            client.recv(IDLE).expect("healthy stream");
        }
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        // The first report may trail the first frontier by one event.
        while client.view().first_report.is_none() {
            client.recv(IDLE).expect("healthy stream");
        }
        if client
            .view()
            .first_report
            .as_ref()
            .is_some_and(|r| r.plans_generated == 0)
        {
            zero_plan_starts += 1;
        }
        client.command(SessionCommand::Cancel).expect("send");
        client.wait_finished(IDLE).expect("terminal event");
    }
    trial.int("sessions", state.specs.len() as u64);
    trial.summary_us("", Summary::of_or_zero(&us));
    trial.int("zero_plan_starts", zero_plan_starts);
}

/// Starts a loopback [`NetServer`] and runs the cold and warm passes.
pub fn net_serving_experiment(fast: bool) -> ExperimentReport {
    Experiment::new("net", fast, move || {
        let model: moqo_costmodel::SharedCostModel = Arc::new(StandardCostModel::paper_metrics());
        let server = Arc::new(MoqoServer::new(
            model.clone(),
            ResolutionSchedule::linear(if fast { 2 } else { 4 }, 1.02, 0.4),
            ServeConfig {
                shard: ShardConfig {
                    shards: 2,
                    engine: EngineConfig {
                        workers: 2,
                        ..EngineConfig::default()
                    },
                    rebalance_headroom: 8,
                },
                admission: AdmissionConfig::default(),
                retired_tickets: 4096,
            },
        ));
        let registry = Arc::new(ModelRegistry::with_default(model));
        let net =
            NetServer::bind(server, registry, NetConfig::default()).expect("bind 127.0.0.1:0");
        let specs = net_workload(fast);
        NetState { net, specs }
    })
    .title("network serving: submit -> first frontier over loopback TCP")
    // Cold pass: every fingerprint is new; cancelled sessions park.
    // Warm pass: repeats resume parked frontiers across the wire.
    .variant("wire latency", "cold", run_phase)
    .variant("wire latency", "warm", run_phase)
    .conclusion(
        "warm repeats resume parked frontiers across the wire: every warm \
         session starts at zero generated plans.",
    )
    .teardown(|state| state.net.shutdown())
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_pass_survives_the_wire() {
        let report = net_serving_experiment(true);
        let sessions = |label: &str| report.metric(label, "sessions").unwrap().as_u64().unwrap();
        let zero = |label: &str| {
            report
                .metric(label, "zero_plan_starts")
                .unwrap()
                .as_u64()
                .unwrap()
        };
        assert_eq!(sessions("cold"), sessions("warm"));
        assert_eq!(zero("cold"), 0, "first sight cannot be warm");
        // Sequential sessions: every warm repeat resumes its own parked
        // frontier, so the whole warm pass starts at zero plans.
        assert_eq!(zero("warm"), sessions("warm"));
        let mean = |label: &str| report.metric(label, "mean_us").unwrap().as_f64().unwrap();
        assert!(mean("cold") > 0.0 && mean("warm") > 0.0);
    }
}
