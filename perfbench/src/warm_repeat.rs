//! `warm-repeat`: repeat traffic against the in-process `MoqoServer`, as
//! a closed loop of one client, one session at a time.
//!
//! Queries follow a Zipf(1.1) mix over a template set that fits inside
//! the frontier caches and is primed during setup, so warm resumes generate
//! zero plans and admission, routing, the ticket streams and the engine
//! cache do the work. An optimizer-core change should read about
//! unchanged here.
//!
//! Each session submits, waits for the first frontier and for the target
//! resolution, drags one bound, waits for the refreshed frontier and
//! selects a plan. The ticket's delta-reassembled view must then be
//! `bits_eq` with the engine's published frontier.
//!
//! No snapshot saver runs here: every session re-parks a changed
//! frontier, so each save rewrote most files (~9 MB), and even one save
//! every 5 s left some runs at two-thirds of the throughput. Persistence
//! is measured in `drift-open`.
//!
//! One client, not two: a second client thread on two cores made the
//! throughput and tails swing by half from run to run, and two clients on
//! one fingerprint send the second cold (a cached optimizer serves one
//! session at a time).

use moqo_bench::stats::Samples;
use moqo_core::{FrontierPoint, SessionCommand, SessionRequest, SessionView};
use moqo_cost::{Bounds, CostVector, ResolutionSchedule};
use moqo_engine::EngineConfig;
use moqo_plan::PlanId;
use moqo_query::{testkit, QuerySpec};
use moqo_serve::{AdmissionConfig, MoqoServer, ServeConfig, ShardConfig, Ticket, TicketStatus};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{self, Record, Windowed};
use crate::served::{run_to_target, shuffle, zipf_round, CoreTally, Counters};
use crate::trace::Tracer;
use crate::{threads, Inject, Outcome, RunSpec};

/// Deadline on one session.
const WAIT: Duration = Duration::from_secs(10);
/// Sessions per round of the Zipf mix.
const ROUND: usize = 72;
/// Tail percentile of the per-session timings. Tens of thousands of
/// sessions would allow p99.9, but at these microsecond scales p99 and
/// above track the host's scheduling noise (p99 of first frontier spread
/// 0.26 of its median over ten seeds); p95 spreads far less.
const SESSION_TAIL: f64 = 0.95;

/// The template set: chains, stars and cycles of 3–6 tables at three
/// cardinalities (36 queries; the tiny set keeps 3–4 tables).
pub fn templates(tiny: bool) -> Vec<Arc<QuerySpec>> {
    let top = if tiny { 4 } else { 6 };
    let mut specs = Vec::new();
    for n in 3..=top {
        for card in [20_000, 60_000, 150_000] {
            specs.push(Arc::new(testkit::chain_query(n, card)));
            specs.push(Arc::new(testkit::star_query(n, card)));
            specs.push(Arc::new(testkit::cycle_query(n, card)));
        }
    }
    specs
}

fn schedule() -> ResolutionSchedule {
    ResolutionSchedule::linear(4, 1.02, 0.4)
}

/// Starts the server and runs every template once, so each parks.
fn setup(tiny: bool) -> Result<(MoqoServer, Vec<Arc<QuerySpec>>), String> {
    let server = MoqoServer::new(
        Arc::new(moqo_bench::workload::bench_model_small()),
        schedule(),
        ServeConfig {
            shard: ShardConfig {
                shards: threads(),
                engine: EngineConfig {
                    workers: 1,
                    ..EngineConfig::default()
                },
                rebalance_headroom: 8,
            },
            admission: AdmissionConfig::default(),
            retired_tickets: 1024,
        },
    );
    let specs = templates(tiny);
    let deadline = Instant::now() + WAIT;
    for spec in &specs {
        run_to_target(&server, spec.clone(), schedule().r_max(), deadline)
            .map_err(|e| format!("prime {e}"))?;
    }
    Ok((server, specs))
}

/// Measurements of the client. The end-to-end timings are kept per time
/// window: single runs here saw host stalls of a few seconds that moved
/// the run-wide p95s by 2–4×.
struct Tally {
    sessions: u64,
    failed: u64,
    first_frontier_ms: Windowed,
    target_ms: Windowed,
    refine_ms: Windowed,
    drag_ms: Windowed,
    /// One sample per completed session.
    completed: Windowed,
    wait_ms: Samples,
    submit_us: Samples,
    poll_us: Samples,
    core: CoreTally,
    notes: Vec<String>,
}

impl Tally {
    fn new(start: Instant, seconds: f64) -> Self {
        Tally {
            sessions: 0,
            failed: 0,
            first_frontier_ms: Windowed::new(start, seconds),
            target_ms: Windowed::new(start, seconds),
            refine_ms: Windowed::new(start, seconds),
            drag_ms: Windowed::new(start, seconds),
            completed: Windowed::new(start, seconds),
            wait_ms: Samples::new(),
            submit_us: Samples::new(),
            poll_us: Samples::new(),
            core: CoreTally::default(),
            notes: Vec::new(),
        }
    }
}

/// One submitted session: its ticket, trace ids and deadline.
#[derive(Clone, Copy)]
struct Open {
    ticket: Ticket,
    sid: u64,
    root: u64,
    deadline: Instant,
}

/// The client.
struct Client<'a> {
    server: &'a MoqoServer,
    tracer: Tracer,
    tally: Tally,
    inject: bool,
}

impl Client<'_> {
    /// Blocks until the ticket's view satisfies `done` (or `deadline`
    /// passes), folding every event's report on the way. Returns the view
    /// and how many invocations it gained.
    fn wait_for(
        &mut self,
        open: Open,
        seen: u64,
        waiting_for: &str,
        done: impl Fn(&SessionView) -> bool,
    ) -> Result<(SessionView, u64), String> {
        let (
            server,
            Open {
                ticket,
                sid,
                root,
                deadline,
            },
        ) = (self.server, open);
        loop {
            let t0 = Instant::now();
            let status = self
                .tracer
                .span("serve.poll", sid, root, || server.poll(ticket));
            self.tally.poll_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let view = match status {
                Some(TicketStatus::Active { view, .. }) => *view,
                other => return Err(format!("ticket is {other:?} waiting for {waiting_for}")),
            };
            if done(&view) {
                let gained = view.invocations.saturating_sub(seen);
                return Ok((view, gained));
            }
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| format!("timed out waiting for {waiting_for}"))?;
            let event = self
                .tracer
                .span("serve.recv", sid, root, || server.recv(ticket, left));
            if let Some(r) = event.as_ref().and_then(|e| e.report.as_ref()) {
                self.tally.core.add(r);
            }
        }
    }

    /// One scripted session.
    fn session(&mut self, spec: &Arc<QuerySpec>, sid: u64) -> Result<(), String> {
        let server = self.server;
        let root = self.tracer.open("bench.session", sid, 0);
        let submit = Instant::now();
        let deadline = submit + WAIT;
        let request = SessionRequest::new(spec.clone());
        let (ticket, response) = self
            .tracer
            .span("serve.submit", sid, root, || server.submit(request))
            .map_err(|e| format!("submit: {e}"))?;
        self.tally
            .submit_us
            .push(submit.elapsed().as_secs_f64() * 1e6);
        if !response.is_admitted() {
            return Err(format!("{}: not admitted: {response:?}", spec.name));
        }
        let open = Open {
            ticket,
            sid,
            root,
            deadline,
        };

        // First frontier.
        let (view, mut seen) =
            self.wait_for(open, 0, "the first frontier", |v| v.invocations > 0)?;
        if view.frontier.is_empty() {
            return Err(format!("{}: first frontier is empty", spec.name));
        }
        let mut last = Instant::now();
        let ms = (last - submit).as_secs_f64() * 1e3;
        self.tally.first_frontier_ms.push(ms);
        if let Some(first) = &view.first_report {
            self.tally.core.first(first);
            self.tally
                .wait_ms
                .push((ms - first.duration.as_secs_f64() * 1e3).max(0.0));
        }

        // Refinement to the target, one event at a time.
        let r_max = schedule().r_max();
        let at_target = |v: &SessionView| {
            v.last_report
                .as_ref()
                .is_some_and(|r| r.resolution == r_max)
        };
        let mut view = view;
        while !at_target(&view) {
            let (next, gained) =
                self.wait_for(open, seen, "the target", |v| v.invocations > seen)?;
            let now = Instant::now();
            let gap = (now - last).as_secs_f64() * 1e3 / gained.max(1) as f64;
            for _ in 0..gained {
                self.tally.refine_ms.push(gap);
            }
            (view, last, seen) = (next, now, seen + gained);
        }
        self.tally
            .target_ms
            .push((last - submit).as_secs_f64() * 1e3);

        // One bound drag: clamp time at the visualized median.
        let costs: Samples = view.frontier.points.iter().map(|p| p.cost[0]).collect();
        let dim = view.bounds.ok_or("no bounds in the view")?.dim();
        let bounds = Bounds::unbounded(dim).with_limit(0, metrics::percentile(&costs, 0.5));
        let dragged = Instant::now();
        self.tracer
            .span("serve.command", sid, root, || {
                server.command(ticket, SessionCommand::SetBounds(bounds))
            })
            .map_err(|e| format!("drag: {e}"))?;
        let (view, _) = self.wait_for(open, seen, "the drag", |v| {
            v.bounds == Some(bounds) && v.invocations > seen
        })?;
        self.tally
            .drag_ms
            .push(dragged.elapsed().as_secs_f64() * 1e3);

        let choice = view
            .frontier
            .min_by_metric(0)
            .map(|p| p.plan)
            .ok_or_else(|| format!("{}: empty frontier after the drag", spec.name))?;
        self.tracer
            .span("serve.command", sid, root, || {
                server.command(ticket, SessionCommand::SelectPlan(choice))
            })
            .map_err(|e| format!("select: {e}"))?;
        let gid = match server.poll(ticket) {
            Some(TicketStatus::Active { session, .. }) => session,
            other => return Err(format!("ticket is {other:?} after the selection")),
        };
        let (mut view, _) = self.wait_for(open, 0, "the selection", |v| v.is_finished())?;
        if view.selected() != Some(choice) {
            return Err(format!("{}: selection {choice:?} not honoured", spec.name));
        }

        // The reassembled view must be bit-identical to the engine's.
        if self.inject {
            self.inject = false;
            view.frontier.points.push(FrontierPoint {
                plan: PlanId(u32::MAX),
                cost: CostVector::new(&[0.0; 3]),
            });
        }
        let published = server
            .engine()
            .status(gid)
            .ok_or_else(|| format!("{}: engine forgot the session", spec.name))?;
        if !published.frontier.bits_eq(&view.frontier) {
            return Err(format!(
                "{}: ticket view diverged from the engine",
                spec.name
            ));
        }
        self.tracer.close(root);
        Ok(())
    }
}

/// Runs the measured pass.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut record = Record::default();
    let mut setups = Samples::new();
    let mut built = None;
    for _ in 0..spec.setup_reps {
        // Drop the previous server (joining its workers) first.
        drop(built.take());
        let t0 = Instant::now();
        let s = setup(spec.tiny);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some(s);
    }
    let (server, specs) = match built.expect("at least one setup") {
        Ok(s) => s,
        Err(e) => return Outcome::setup_failed(e),
    };
    record.set("setup_s", metrics::percentile(&setups, 0.5));

    let base = Counters::of(&server.stats());
    let round = zipf_round(specs.len(), ROUND, 1.1);
    let epoch = Instant::now();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(spec.seconds);
    let mut c = Client {
        server: &server,
        tracer: Tracer::new(spec.trace, epoch, 1),
        tally: Tally::new(start, spec.seconds),
        inject: spec.inject == Some(Inject::ClientView),
    };
    let mut rng = crate::rng(spec.seed, 2);
    let mut pending: Vec<usize> = Vec::new();
    while Instant::now() < deadline {
        if pending.is_empty() {
            pending = round.clone();
            shuffle(&mut pending, &mut rng);
        }
        let q = &specs[pending.pop().expect("refilled above")];
        c.tally.sessions += 1;
        match c.session(q, c.tally.sessions) {
            Ok(()) => c.tally.completed.push(1.0),
            Err(e) => {
                c.tally.failed += 1;
                if c.tally.notes.len() < 20 {
                    c.tally.notes.push(format!("FAIL {e}"));
                }
            }
        }
    }
    let end = Instant::now();
    let mut tally = c.tally;
    let spans = c.tracer.into_spans();
    let wall = (end - start).as_secs_f64();
    let counters = Counters::of(&server.stats()).since(base);
    for n in tally.notes.drain(..) {
        record.note(n);
    }

    let completed = tally.sessions - tally.failed;
    record.windowed_timing("first_frontier_ms", &tally.first_frontier_ms, SESSION_TAIL);
    record.set("target_ms.p50", tally.target_ms.median_of(0.5));
    record.windowed_timing("refine_ms", &tally.refine_ms, SESSION_TAIL);
    record.windowed_timing("drag_ms", &tally.drag_ms, SESSION_TAIL);
    record.set("sessions_per_s", tally.completed.median_rate());
    record.note(format!(
        "sessions_per_s: median over 20 windows; {completed} sessions in {wall:.3} s"
    ));

    tally.core.record(&mut record, tally.sessions, SESSION_TAIL);
    counters.record(&mut record, tally.sessions);
    record.timing("engine.wait_ms", &tally.wait_ms, SESSION_TAIL);
    record.timing("serve.submit_us", &tally.submit_us, SESSION_TAIL);
    record.set(
        "serve.poll_us.p50",
        metrics::percentile(&tally.poll_us, 0.5),
    );
    record.note(format!(
        "per-session counters: base {} sessions",
        tally.sessions
    ));
    Outcome {
        record,
        attempted: tally.sessions,
        failed: tally.failed,
        spans,
    }
}
