//! The `repro replay` experiment: open-loop Zipf-skewed traffic replay
//! against each admission policy.
//!
//! The serving experiments (`repro serve`, `repro net`) measure the
//! interactive SLO session by session; this one measures how the
//! admission door behaves when arrivals do not wait for service. A
//! deterministic open-loop schedule (fixed inter-arrival gap, arrival
//! times fixed up front — late service makes the next submits burst
//! instead of silently stretching the schedule, so there is no
//! coordinated omission) draws query templates from a Zipf-skewed
//! distribution and replays the same trace against a fresh
//! [`MoqoServer`] per variant, once per [`AdmissionPolicy`]:
//!
//! * `reject` — pure backpressure beyond `max_live`;
//! * `queue` — a bounded FIFO that admits as sessions finish;
//! * `degrade` — admit under a coarser resolution ladder up to a hard
//!   cap.
//!
//! The arrival gap is a service time measured on a fresh server before
//! the variants run (the median of 32 closed-loop sessions). An in-line
//! service step completes the oldest live session (first report
//! observed, then cancel + finish) on every other arrival: the offered
//! load is twice the service rate on any host, so every policy engages,
//! and capacity still frees — without it the queue policy would never
//! drain and every policy would converge to "reject everything".

use moqo_core::protocol::SessionRequest;
use moqo_core::{AdmissionResponse, SessionCommand};
use moqo_cost::ResolutionSchedule;
use moqo_costmodel::StandardCostModel;
use moqo_engine::EngineConfig;
use moqo_query::{testkit, QuerySpec};
use moqo_serve::{
    AdmissionConfig, AdmissionPolicy, MoqoServer, ServeConfig, ShardConfig, Ticket, TicketStatus,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::harness::{Experiment, ExperimentReport, Trial};
use crate::stats::{Samples, Summary};
use crate::workload::XorShift;

/// Live sessions admitted at full resolution before the overload policy
/// kicks in — deliberately small so the replay actually overloads.
const MAX_LIVE: usize = 8;

/// Seed of the Zipf template trace.
const TRACE_SEED: u64 = 0x5eed_41aa;

/// How long any single wait (first report, queue drain) may take before
/// the experiment declares the server wedged.
const WEDGED: Duration = Duration::from_secs(120);

/// The template set the replay cycles over, most popular first; the
/// Zipf head repeats enough that the warm-frontier cache carries most
/// of its plan work.
pub fn replay_templates() -> Vec<Arc<QuerySpec>> {
    vec![
        Arc::new(testkit::chain_query(3, 50_000)),
        Arc::new(testkit::chain_query(2, 40_000)),
        Arc::new(testkit::star_query(3, 60_000)),
        Arc::new(testkit::chain_query(4, 45_000)),
        Arc::new(testkit::star_query(4, 30_000)),
        Arc::new(testkit::chain_query(2, 55_000)),
    ]
}

/// Draws a template rank from a Zipf(s = 1.1) distribution over
/// `count` ranks using the inverse-CDF over precomputed weights.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(count: usize) -> Self {
        let mut cumulative = Vec::with_capacity(count);
        let mut total = 0.0;
        for rank in 0..count {
            total += 1.0 / ((rank + 1) as f64).powf(1.1);
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut XorShift) -> usize {
        let u = rng.next_f64() * self.cumulative.last().copied().unwrap_or(1.0);
        self.cumulative.iter().position(|&c| u < c).unwrap_or(0)
    }
}

/// Tallies of one policy's replay, accumulated by [`run_policy`].
#[derive(Default)]
struct Tally {
    admitted: u64,
    degraded: u64,
    queued: u64,
    rejected: u64,
    completed: u64,
    zero_plan_starts: u64,
}

/// Waits for the session behind `ticket` to publish its first
/// invocation report, then cancels and finishes it, folding the outcome
/// into the tally.
fn complete(server: &MoqoServer, ticket: Ticket, tally: &mut Tally) {
    let deadline = Instant::now() + WEDGED;
    loop {
        match server.poll(ticket) {
            Some(TicketStatus::Active { ref view, .. }) if view.first_report.is_some() => break,
            Some(TicketStatus::Active { .. }) | Some(TicketStatus::Queued { .. }) => {
                server.recv(ticket, Duration::from_millis(20));
            }
            other => panic!("session to complete is not live: {other:?}"),
        }
        assert!(Instant::now() < deadline, "session never reported");
    }
    server
        .command(ticket, SessionCommand::Cancel)
        .expect("live session accepts cancel");
    let view = server.finish(ticket).expect("finished view");
    tally.completed += 1;
    if view
        .first_report
        .as_ref()
        .is_some_and(|r| r.plans_generated == 0)
    {
        tally.zero_plan_starts += 1;
    }
}

/// A fresh server for one replay under `policy`.
fn server(policy: AdmissionPolicy) -> MoqoServer {
    MoqoServer::new(
        Arc::new(StandardCostModel::paper_metrics()),
        ResolutionSchedule::linear(1, 1.1, 0.5),
        ServeConfig {
            shard: ShardConfig {
                shards: 2,
                engine: EngineConfig {
                    workers: 2,
                    ..EngineConfig::default()
                },
                rebalance_headroom: 8,
            },
            admission: AdmissionConfig {
                max_live: MAX_LIVE,
                policy,
            },
            retired_tickets: 8192,
        },
    )
}

/// The open-loop arrival gap: the median service time (submit to
/// completion) of the trace's first arrivals, served one at a time on a
/// fresh server. Sessions then report within about one gap, so the
/// replay's service step, not the host's speed, sets the service rate.
fn arrival_gap() -> Duration {
    let server = server(AdmissionPolicy::Reject);
    let (templates, zipf) = (replay_templates(), Zipf::new(replay_templates().len()));
    let mut rng = XorShift::new(TRACE_SEED);
    let mut service_us = Samples::with_capacity(32);
    for _ in 0..32 {
        let spec = templates[zipf.sample(&mut rng)].clone();
        let t0 = Instant::now();
        let (ticket, _) = server
            .submit(SessionRequest::new(spec))
            .expect("a bare request has nothing to validate");
        complete(&server, ticket, &mut Tally::default());
        service_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Duration::from_secs_f64(Summary::of_or_zero(&service_us).p50 / 1e6)
}

/// Replays the trace against a fresh server under `policy` and records
/// the admission outcome mix, submit latency, and drain time.
fn run_policy(
    fast: bool,
    gap: Duration,
    policy: AdmissionPolicy,
    policy_label: &str,
    trial: &mut Trial,
) {
    let templates = replay_templates();
    let server = server(policy.clone());

    let arrivals: usize = if fast { 160 } else { 600 };
    let zipf = Zipf::new(templates.len());
    let mut rng = XorShift::new(TRACE_SEED);
    let mut tally = Tally::default();
    let mut submit_us = Samples::with_capacity(arrivals);
    // Admitted (full or degraded) sessions waiting for service, oldest
    // first, plus tickets parked in the bounded admission queue.
    let mut live: VecDeque<Ticket> = VecDeque::new();
    let mut parked: Vec<Ticket> = Vec::new();
    let mut head_hits = 0u64;

    let start = Instant::now();
    for i in 0..arrivals {
        // Open loop: each arrival has a fixed due time; a slow service
        // step below makes the following submits burst, it never
        // stretches the schedule.
        let due = start + gap * i as u32;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep(due - now);
        }
        let rank = zipf.sample(&mut rng);
        if rank == 0 {
            head_hits += 1;
        }
        let spec = templates[rank].clone();
        let t0 = Instant::now();
        let (ticket, response) = server
            .submit(SessionRequest::new(spec))
            .expect("a bare request has nothing to validate");
        submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match response {
            AdmissionResponse::Admitted => {
                tally.admitted += 1;
                live.push_back(ticket);
            }
            AdmissionResponse::Degraded { .. } => {
                tally.degraded += 1;
                live.push_back(ticket);
            }
            AdmissionResponse::Queued { .. } => {
                tally.queued += 1;
                parked.push(ticket);
            }
            AdmissionResponse::Rejected(_) => tally.rejected += 1,
        }
        // Service: complete the oldest live session on every other
        // arrival, so the offered load is twice the service rate and
        // every policy engages. At the measured gap the oldest session
        // has long reported, so the wait is short.
        if i % 2 == 1 {
            if let Some(ticket) = live.pop_front() {
                complete(&server, ticket, &mut tally);
            }
        }
        // Queued tickets admit as capacity frees; promote any that did.
        parked.retain(|&t| match server.poll(t) {
            Some(TicketStatus::Active { .. }) => {
                live.push_back(t);
                false
            }
            _ => true,
        });
    }
    let replay_ms = start.elapsed().as_secs_f64() * 1e3;

    // Drain: complete everything still live, promoting parked tickets
    // as their slots free, until nothing is left.
    let t_drain = Instant::now();
    let deadline = t_drain + WEDGED;
    while !live.is_empty() || !parked.is_empty() {
        assert!(Instant::now() < deadline, "replay did not drain");
        while let Some(ticket) = live.pop_front() {
            complete(&server, ticket, &mut tally);
        }
        parked.retain(|&t| match server.poll(t) {
            Some(TicketStatus::Active { .. }) => {
                live.push_back(t);
                false
            }
            _ => true,
        });
    }
    let drain_ms = t_drain.elapsed().as_secs_f64() * 1e3;

    trial.text("policy", policy_label);
    trial.int("arrivals", arrivals as u64);
    trial.int("max_live", MAX_LIVE as u64);
    trial.int("admitted", tally.admitted);
    trial.int("degraded", tally.degraded);
    trial.int("queued", tally.queued);
    trial.int("rejected", tally.rejected);
    // The policy's own overload outcome. One key for all three variants:
    // a direction holds for a key across the whole envelope, and under
    // `queue` or `degrade` rejections are a side effect, not the policy.
    let engaged = match policy {
        AdmissionPolicy::Reject => tally.rejected,
        AdmissionPolicy::Queue { .. } => tally.queued,
        AdmissionPolicy::Degrade { .. } => tally.degraded,
    };
    trial.int_higher("engaged", engaged);
    trial.int("completed", tally.completed);
    trial.int("zero_plan_starts", tally.zero_plan_starts);
    trial.num("head_share", head_hits as f64 / arrivals as f64);
    trial.summary_us("submit_", Summary::of_or_zero(&submit_us));
    trial.num("gap_us", gap.as_secs_f64() * 1e6);
    trial.num("replay_ms", replay_ms);
    // The drain is the tail of an overloaded trace: it ranges from
    // instant to one cold session, so only the whole run is gated.
    trial.num("drain_ms", drain_ms);
    trial.num_lower("total_ms", replay_ms + drain_ms);
}

/// The degraded ladder the `degrade` variant admits overload under:
/// one coarse level instead of the full schedule.
fn degraded_ladder() -> ResolutionSchedule {
    ResolutionSchedule::linear(0, 1.5, 0.5)
}

/// Runs the open-loop Zipf replay once per admission policy (fresh
/// server each) and reports the outcome mix, submit latencies, and
/// drain time per policy.
pub fn replay_experiment(fast: bool) -> ExperimentReport {
    Experiment::new("replay", fast, arrival_gap)
        .title("traffic replay: open-loop Zipf arrivals vs admission policies")
        .variant("admission policy", "reject", move |gap, t| {
            run_policy(fast, *gap, AdmissionPolicy::Reject, "reject", t)
        })
        .variant("admission policy", "queue", move |gap, t| {
            run_policy(fast, *gap, AdmissionPolicy::Queue { depth: 16 }, "queue", t)
        })
        .variant("admission policy", "degrade", move |gap, t| {
            run_policy(
                fast,
                *gap,
                AdmissionPolicy::Degrade {
                    schedule: degraded_ladder(),
                    hard_cap: MAX_LIVE * 4,
                },
                "degrade",
                t,
            )
        })
        .conclusion(
            "Same trace, three doors: reject sheds overload outright, the \
             bounded queue absorbs bursts and drains as sessions finish, \
             and degrade keeps admitting under a coarser ladder until the \
             hard cap.",
        )
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_policy_conserves_arrivals_and_completes_what_it_admits() {
        let report = replay_experiment(true);
        for label in ["reject", "queue", "degrade"] {
            let counter = |key: &str| report.metric(label, key).unwrap().as_u64().unwrap();
            let (admitted, degraded) = (counter("admitted"), counter("degraded"));
            let (queued, rejected) = (counter("queued"), counter("rejected"));
            assert_eq!(
                admitted + degraded + queued + rejected,
                counter("arrivals"),
                "{label}: every arrival gets exactly one outcome"
            );
            // Whatever was not rejected at the door eventually ran to
            // completion (queued tickets admit as capacity frees).
            assert_eq!(
                counter("completed"),
                counter("arrivals") - rejected,
                "{label}"
            );
        }
        // Arrivals outpace service, so each policy's own door engages.
        for label in ["reject", "queue", "degrade"] {
            let engaged = report.metric(label, "engaged").unwrap().as_u64();
            assert!(engaged > Some(0), "{label} never engaged");
        }
        // Policy-specific shapes: only the queue variant parks, only the
        // degrade variant downgrades ladders.
        assert_eq!(
            report.metric("reject", "degraded").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(report.metric("reject", "queued").unwrap().as_u64(), Some(0));
        assert_eq!(
            report.metric("queue", "degraded").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(
            report.metric("degrade", "queued").unwrap().as_u64(),
            Some(0)
        );
        // The Zipf head dominates the trace, so warm repeats exist.
        let head = report
            .metric("reject", "head_share")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(head > 0.25, "head template drew only {head}");
    }
}
