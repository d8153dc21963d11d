//! `drift-open`: similar-but-not-identical queries against the in-process
//! `MoqoServer` under the `Queue` admission policy, as an open loop of
//! seeded Poisson arrivals.
//!
//! The stream holds chains, stars and cycles of 3–5 tables under drifted
//! cardinalities (`testkit::drift_cardinalities`); shapes of one family
//! share sub-shapes. Its distinct fingerprints outnumber the frontier
//! caches' total capacity more than 4×, so caches miss and evict, rebase
//! and transplant seeds run, and admission queues. A fixed share of
//! sessions drags a bound partway up the ladder, and a saver thread calls
//! `SnapshotStore::save` on a fixed period beside the live sessions. This
//! is the only workload where a change that speeds warm hits at the
//! expense of misses, or moves work into `save`, shows.
//!
//! The arrival rate is a constant; it is never calibrated at run time.
//! Latency is timed from each arrival's due time, so a stall counts
//! against every arrival it delays.

use moqo_bench::stats::Samples;
use moqo_bench::workload::XorShift;
use moqo_core::{AdmissionResponse, SessionCommand, SessionRequest};
use moqo_cost::{Bounds, ResolutionSchedule};
use moqo_costmodel::SharedCostModel;
use moqo_engine::EngineConfig;
use moqo_query::{testkit, QuerySpec};
use moqo_serve::{
    AdmissionConfig, AdmissionPolicy, MoqoServer, ServeConfig, ShardConfig, ShardedEngine,
    SnapshotStore, Ticket, TicketStatus,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{self, Record};
use crate::served::{
    record_persist, restore_check, run_to_target, saver, shuffle, zipf_round, CoreTally, Counters,
};
use crate::trace::{Span, Tracer};
use crate::{threads, Outcome, RunSpec};

/// Arrivals per second: about a sixth of the ~96/s a 2-core host
/// sustains. At a third, a host slowing by a quarter (neighbours on a
/// shared machine) doubled the latency medians through the queue.
pub const RATE: f64 = 16.0;
/// Live sessions admitted before arrivals queue. One at a time makes the
/// engine's cache state a function of the arrival sequence alone: with
/// more, which session parks first (and so whether the next one starts
/// warm, rebased or cold) followed thread timing, and runs of one seed
/// differed several-fold.
const MAX_LIVE: usize = 1;
/// Arrivals per round of the stream.
const ROUND: usize = 48;
/// Queue depth: deep enough that a Poisson burst never rejects.
const QUEUE_DEPTH: usize = 4096;
/// Parked frontiers per shard.
const CACHE_PER_SHARD: usize = 8;
/// Share of sessions that drag a bound partway up the ladder.
const DRAG_SHARE: f64 = 0.5;
/// Period of the snapshot saver.
const SAVE_PERIOD: Duration = Duration::from_millis(500);
/// Query orders of the warm-up prefix and of the measured stream.
const WARMUP_ORDER: u64 = 1;
const MEASURED_ORDER: u64 = 2;
/// Sessions of the warm-up prefix that fills the caches.
const WARMUP: usize = 24;
/// Deadline on one session, from its due time.
const SESSION_DEADLINE: Duration = Duration::from_secs(30);
/// Tail percentile of the per-session timings (≈ 330 a run). Higher
/// percentiles read a handful of sessions that met a save or a host
/// hiccup, and spread past a third of their median from seed to seed.
const SESSION_TAIL: f64 = 0.9;
/// Tail percentile of the drag timings (half the sessions drag; a drag
/// costs microseconds, so its p90 tracked thread wake-up noise).
const DRAG_TAIL: f64 = 0.75;
/// Tail percentile of the per-invocation timings.
const INVOCATION_TAIL: f64 = 0.99;

/// Drift factors applied to every base shape.
const DRIFTS: [f64; 8] = [0.5, 0.7, 0.85, 1.0, 1.2, 1.4, 1.7, 2.0];

fn schedule() -> ResolutionSchedule {
    ResolutionSchedule::linear(4, 1.02, 0.4)
}

/// The query universe: base shapes × drift factors (72 fingerprints;
/// the tiny set keeps 3–4 tables). Six-table shapes are left out: one
/// cold 6-table cycle takes ~170 ms, and a rebase of one far longer, so a
/// handful of them decided each run's tail.
pub fn universe(tiny: bool) -> Vec<Arc<QuerySpec>> {
    let top = if tiny { 4 } else { 5 };
    let mut bases = Vec::new();
    for n in 3..=top {
        bases.push(testkit::chain_query(n, 80_000));
        bases.push(testkit::star_query(n, 80_000));
        bases.push(testkit::cycle_query(n, 80_000));
    }
    bases
        .iter()
        .flat_map(|b| {
            DRIFTS
                .iter()
                .map(move |&f| Arc::new(testkit::drift_cardinalities(b, f)))
        })
        .collect()
}

fn config() -> ServeConfig {
    ServeConfig {
        shard: ShardConfig {
            shards: threads(),
            engine: EngineConfig {
                workers: 1,
                cache_capacity: CACHE_PER_SHARD,
                ..EngineConfig::default()
            },
            rebalance_headroom: 8,
        },
        admission: AdmissionConfig {
            max_live: MAX_LIVE,
            policy: AdmissionPolicy::Queue { depth: QUEUE_DEPTH },
        },
        retired_tickets: 1024,
    }
}

/// The reduced operator space of the bench crate: cold sessions stay
/// short enough for an open loop on two cores.
fn model() -> SharedCostModel {
    Arc::new(moqo_bench::workload::bench_model_small())
}

/// One arrival of the stream: the query, and the ladder level at which
/// it drags a bound (if it does).
#[derive(Clone)]
struct Arrival {
    spec: Arc<QuerySpec>,
    drag_at: Option<usize>,
}

/// The arrival stream, in rounds: each round holds every base shape as
/// often as a Zipf(1.1) draw over the shapes would on average (at least
/// once) and a fixed share of dragging sessions, shuffled, with a drifted
/// cardinality per arrival. The query sequence comes from `order`; the
/// run's seed draws only the Poisson gaps. With one session admitted at a
/// time the engine's cache behaviour is then the same for every seed,
/// and the seed moves the queueing: with seeded sequences the hit, rebase
/// and cold mix, and with it every latency median, swung several-fold
/// from seed to seed.
struct Stream {
    order: XorShift,
    gaps: XorShift,
    round: Vec<(usize, bool)>,
    pending: Vec<(usize, bool)>,
    universe: Vec<Arc<QuerySpec>>,
}

impl Stream {
    fn new(order: u64, seed: u64, tiny: bool) -> Self {
        let universe = universe(tiny);
        let round: Vec<(usize, bool)> = zipf_round(universe.len() / DRIFTS.len(), ROUND, 1.1)
            .into_iter()
            .map(|base| (base, false))
            .collect();
        let mut round = round;
        let drags = (round.len() as f64 * DRAG_SHARE).round() as usize;
        // Spread the dragging sessions over the shapes.
        for i in 0..drags {
            let at = i * round.len() / drags;
            round[at].1 = true;
        }
        Stream {
            order: crate::rng(order, 3),
            gaps: crate::rng(seed, 4),
            round,
            pending: Vec::new(),
            universe,
        }
    }

    fn next(&mut self) -> Arrival {
        if self.pending.is_empty() {
            self.pending = self.round.clone();
            shuffle(&mut self.pending, &mut self.order);
        }
        let (base, drags) = self.pending.pop().expect("refilled above");
        let drift = (self.order.next_u64() % DRIFTS.len() as u64) as usize;
        let drag_at =
            drags.then(|| 1 + (self.order.next_u64() % (schedule().r_max() as u64 - 1)) as usize);
        Arrival {
            spec: self.universe[base * DRIFTS.len() + drift].clone(),
            drag_at,
        }
    }

    /// Seconds to the next arrival.
    fn gap(&mut self) -> f64 {
        -(1.0 - self.gaps.next_f64()).ln() / RATE
    }
}

/// Starts a server and runs the warm-up prefix: a stream of its own.
fn setup(tiny: bool) -> Result<Arc<MoqoServer>, String> {
    let server = Arc::new(MoqoServer::new(model(), schedule(), config()));
    let mut warmup = Stream::new(WARMUP_ORDER, 0, tiny);
    let deadline = Instant::now() + SESSION_DEADLINE;
    for _ in 0..WARMUP {
        run_to_target(&server, warmup.next().spec, schedule().r_max(), deadline)
            .map_err(|e| format!("warm-up {e}"))?;
    }
    Ok(server)
}

/// Script progress of one live session.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Refining under the initial bounds.
    Ladder,
    /// Bound drag sent, waiting for the event at the new bounds.
    Dragging,
    /// Refining under the dragged bounds.
    Refocused,
}

struct Live {
    due: Instant,
    sid: u64,
    root: u64,
    drag_at: Option<usize>,
    phase: Phase,
    first_seen: bool,
    /// Invocations seen so far.
    invocations: u64,
    last_event: Instant,
    /// Drag sent and not yet seen: when, and the bounds.
    dragged_at: Option<(Instant, Bounds)>,
    /// Invocations when the drag was sent.
    drag_base: u64,
}

/// Measurements of the collector thread.
#[derive(Default)]
struct Tally {
    arrivals: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    first_frontier_ms: Samples,
    target_ms: Samples,
    refine_ms: Samples,
    drag_ms: Samples,
    wait_ms: Samples,
    poll_us: Samples,
    core: CoreTally,
    notes: Vec<String>,
    last_completion: Option<Instant>,
}

enum Msg {
    /// A submitted arrival (the generator hands it over).
    Submitted(Ticket, Box<Live>, bool),
    /// The server published an event (`None`: ticket not yet known).
    Event(Option<Ticket>),
    /// The generator is done.
    Done,
}

/// The collector: follows every live ticket's events, drives its script,
/// and retires it at the target resolution.
struct Collector<'a> {
    server: &'a MoqoServer,
    tracer: Tracer,
    live: HashMap<Ticket, Live>,
    tally: Tally,
    r_max: usize,
    dim: usize,
}

impl Collector<'_> {
    fn fail(&mut self, ticket: Ticket, why: String) {
        if let Some(l) = self.live.remove(&ticket) {
            self.tracer.close(l.root);
        }
        let _ = self.server.command(ticket, SessionCommand::Cancel);
        self.server.finish(ticket);
        self.tally.failed += 1;
        if self.tally.notes.len() < 20 {
            self.tally
                .notes
                .push(format!("FAIL ticket {}: {why}", ticket.as_u64()));
        }
    }

    /// Drains the ticket's events and advances its script. Progress is
    /// read off the server-side view: events a session published before
    /// its ticket activated arrive folded into the view, not one by one.
    fn advance(&mut self, ticket: Ticket) {
        let Some(mut l) = self.live.remove(&ticket) else {
            return;
        };
        match self.step(ticket, &mut l) {
            Ok(false) => {
                self.live.insert(ticket, l);
            }
            Ok(true) => {
                let (server, sid, root) = (self.server, l.sid, l.root);
                let view = self
                    .tracer
                    .span("serve.finish", sid, root, || server.finish(ticket));
                self.tracer.close(root);
                if view.is_some_and(|v| v.is_finished()) {
                    self.tally.completed += 1;
                    self.tally.last_completion = Some(Instant::now());
                } else {
                    self.live.insert(ticket, l);
                    self.fail(ticket, "no final view".into());
                }
            }
            Err(why) => {
                self.live.insert(ticket, l);
                self.fail(ticket, why);
            }
        }
    }

    /// One look at a live ticket; `Ok(true)` once its script is done.
    fn step(&mut self, ticket: Ticket, l: &mut Live) -> Result<bool, String> {
        let (server, sid, root) = (self.server, l.sid, l.root);
        while let Some(event) = self.tracer.span("serve.poll", sid, root, || {
            server.recv(ticket, Duration::ZERO)
        }) {
            if let Some(r) = &event.report {
                self.tally.core.add(r);
            }
        }
        let t0 = Instant::now();
        let status = self
            .tracer
            .span("serve.poll", sid, root, || server.poll(ticket));
        self.tally.poll_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let view = match status {
            Some(TicketStatus::Active { view, .. }) => view,
            Some(TicketStatus::Queued { .. }) => return Ok(false),
            other => return Err(format!("ticket is {other:?}")),
        };
        let now = Instant::now();
        if view.invocations <= l.invocations {
            return Ok(false);
        }
        let new = view.invocations - l.invocations;
        l.invocations = view.invocations;
        if !l.first_seen {
            if view.frontier.is_empty() {
                return Err("first frontier is empty".into());
            }
            l.first_seen = true;
            let ms = (now - l.due).as_secs_f64() * 1e3;
            self.tally.first_frontier_ms.push(ms);
            if let Some(first) = &view.first_report {
                self.tally.core.first(first);
                self.tally
                    .wait_ms
                    .push((ms - first.duration.as_secs_f64() * 1e3).max(0.0));
            }
        } else if l.phase != Phase::Dragging {
            // Invocations that landed together share the interval.
            let gap = (now - l.last_event).as_secs_f64() * 1e3 / new as f64;
            for _ in 0..new {
                self.tally.refine_ms.push(gap);
            }
        }
        l.last_event = now;
        let at_target = view
            .last_report
            .as_ref()
            .is_some_and(|r| r.resolution == self.r_max);
        match l.phase {
            Phase::Ladder => {
                // A dragging session's budget stops its ladder at level
                // `d`, so the drag lands on the same state however late
                // the collector looks.
                if l.drag_at.is_some_and(|d| view.invocations == d as u64 + 1) {
                    let costs: Samples = view.frontier.points.iter().map(|p| p.cost[0]).collect();
                    let bounds =
                        Bounds::unbounded(self.dim).with_limit(0, metrics::percentile(&costs, 0.5));
                    self.tracer
                        .span("serve.command", sid, root, || {
                            server.command(ticket, SessionCommand::SetBounds(bounds))
                        })
                        .map_err(|e| format!("drag: {e}"))?;
                    l.dragged_at = Some((Instant::now(), bounds));
                    l.drag_base = view.invocations;
                    l.phase = Phase::Dragging;
                    Ok(false)
                } else if at_target {
                    self.tally.target_ms.push((now - l.due).as_secs_f64() * 1e3);
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
            Phase::Dragging => {
                if let Some((at, bounds)) = l.dragged_at {
                    if view.bounds == Some(bounds) {
                        self.tally.drag_ms.push((now - at).as_secs_f64() * 1e3);
                        l.dragged_at = None;
                    }
                }
                // The drag's own invocation plus the re-armed budget.
                let d = l.drag_at.unwrap_or(0) as u64;
                if l.dragged_at.is_some() || view.invocations < l.drag_base + d + 2 {
                    return Ok(false);
                }
                let level = view.last_report.as_ref().map_or(0, |r| r.resolution);
                for _ in level..self.r_max {
                    self.tracer
                        .span("serve.command", sid, root, || {
                            server.command(ticket, SessionCommand::Refine)
                        })
                        .map_err(|e| format!("refine: {e}"))?;
                }
                l.phase = Phase::Refocused;
                Ok(at_target)
            }
            Phase::Refocused => Ok(at_target),
        }
    }

    /// Fails every session past its deadline.
    fn reap(&mut self) {
        let now = Instant::now();
        let overdue: Vec<Ticket> = self
            .live
            .iter()
            .filter(|(_, l)| now > l.due + SESSION_DEADLINE)
            .map(|(t, _)| *t)
            .collect();
        for t in overdue {
            self.fail(t, "deadline passed".into());
        }
    }

    fn run(mut self, rx: mpsc::Receiver<Msg>) -> (Tally, Vec<Span>) {
        let mut done = false;
        while !(done && self.live.is_empty()) {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(Msg::Submitted(ticket, l, rejected)) => {
                    self.tally.arrivals += 1;
                    if rejected {
                        self.tally.rejected += 1;
                        self.tracer.close(l.root);
                    } else {
                        self.live.insert(ticket, *l);
                        self.advance(ticket);
                    }
                }
                Ok(Msg::Event(Some(ticket))) => self.advance(ticket),
                Ok(Msg::Event(None)) | Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Activations of queued tickets, or a quiet spell:
                    // look at every live ticket.
                    let tickets: Vec<Ticket> = self.live.keys().copied().collect();
                    for t in tickets {
                        self.advance(t);
                    }
                    self.reap();
                }
                Ok(Msg::Done) => done = true,
                Err(mpsc::RecvTimeoutError::Disconnected) => done = true,
            }
        }
        (self.tally, self.tracer.into_spans())
    }
}

/// Runs the measured pass.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut record = Record::default();
    let mut setups = Samples::new();
    let mut built = None;
    for _ in 0..spec.setup_reps {
        drop(built.take());
        let t0 = Instant::now();
        let s = setup(spec.tiny);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some(s);
    }
    let mut stream = Stream::new(MEASURED_ORDER, spec.seed, spec.tiny);
    let server = match built.expect("at least one setup") {
        Ok(s) => s,
        Err(e) => return Outcome::setup_failed(e),
    };
    record.set("setup_s", metrics::percentile(&setups, 0.5));

    let store_dir = spec
        .out_dir
        .join(format!("store-{}-{}", std::process::id(), spec.trace as u8));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = SnapshotStore::new(&store_dir);
    let base = Counters::of(&server.stats());
    let (tx, rx) = mpsc::channel::<Msg>();
    {
        let tx = std::sync::Mutex::new(tx.clone());
        server.set_event_hook(Arc::new(move |t| {
            let _ = tx.lock().map(|tx| tx.send(Msg::Event(t)));
        }));
    }
    let epoch = Instant::now();
    let start = Instant::now();
    let window = Duration::from_secs_f64(spec.seconds);
    let stop = AtomicBool::new(false);
    let r_max = schedule().r_max();

    let (collected, generated, saved) = std::thread::scope(|scope| {
        let collector = Collector {
            server: &server,
            tracer: Tracer::new(spec.trace, epoch, 2),
            live: HashMap::new(),
            tally: Tally::default(),
            r_max,
            dim: server.engine().model().dim(),
        };
        let collecting = scope.spawn(move || collector.run(rx));
        let saving = scope.spawn(|| {
            let mut tracer = Tracer::new(spec.trace, epoch, 3);
            let out = saver(&store, server.engine(), SAVE_PERIOD, &stop, &mut tracer);
            (out, tracer.into_spans())
        });

        // The generator: submits every arrival at its due time.
        let mut tracer = Tracer::new(spec.trace, epoch, 1);
        let mut late_ms = Samples::new();
        let mut submit_us = Samples::new();
        let mut backlog_max = 0u64;
        let mut due = start;
        let mut sid = 0u64;
        while due < start + window {
            let arrival = stream.next();
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            sid += 1;
            let root = tracer.open("bench.session", sid, 0);
            let t0 = Instant::now();
            late_ms.push((t0 - due).as_secs_f64() * 1e3);
            let mut request = SessionRequest::new(arrival.spec);
            if let Some(d) = arrival.drag_at {
                request = request.with_auto_ticks(d + 1);
            }
            let submitted = tracer.span("serve.submit", sid, root, || server.submit(request));
            submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let (ticket, response) = submitted.expect("a bare request has nothing to validate");
            let st = server.stats();
            backlog_max = backlog_max.max((st.live + st.pending) as u64);
            let live = Live {
                due,
                sid,
                root,
                drag_at: arrival.drag_at,
                phase: Phase::Ladder,
                first_seen: false,
                invocations: 0,
                last_event: due,
                dragged_at: None,
                drag_base: 0,
            };
            let rejected = matches!(response, AdmissionResponse::Rejected(_));
            let _ = tx.send(Msg::Submitted(ticket, Box::new(live), rejected));
            due += Duration::from_secs_f64(stream.gap());
        }
        let _ = tx.send(Msg::Done);
        let collected = collecting.join().expect("collector panicked");
        stop.store(true, Ordering::SeqCst);
        let saved = saving.join().expect("saver panicked");
        let mut spans = tracer.into_spans();
        spans.extend(saved.1);
        (collected, (late_ms, submit_us, backlog_max, spans), saved.0)
    });
    server.set_event_hook(Arc::new(|_| {}));
    let (mut tally, mut spans) = collected;
    let (late_ms, submit_us, backlog_max, gen_spans) = generated;
    spans.extend(gen_spans);
    let (save_ms, saved, save_error) = saved;
    let counters = Counters::of(&server.stats()).since(base);
    let wall = (tally.last_completion.unwrap_or(start) - start).as_secs_f64();

    // Conservation: one terminal outcome per arrival, and nothing but
    // the rejected is missing.
    let outcomes = tally.completed + tally.rejected + tally.failed;
    if outcomes != tally.arrivals {
        tally.notes.push(format!(
            "FAIL conservation: {} outcomes for {} arrivals",
            outcomes, tally.arrivals
        ));
        tally.failed += tally.arrivals.abs_diff(outcomes).max(1);
    }
    if let Some(e) = save_error {
        tally.notes.push(format!("FAIL {e}"));
        tally.failed += 1;
    }
    drop(server);
    let fresh = ShardedEngine::new(model(), schedule(), config().shard);
    match restore_check(&store_dir, &fresh) {
        Ok(n) => record.note(format!("restore: {n} frontier file(s), none skipped")),
        Err(e) => {
            tally.notes.push(format!("FAIL {e}"));
            tally.failed += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    for n in tally.notes.drain(..) {
        record.note(n);
    }

    let attempted = tally.arrivals;
    let failed = tally.failed + tally.rejected;
    record.note(format!(
        "arrivals {} = completed {} + rejected {} + failed {}",
        tally.arrivals, tally.completed, tally.rejected, tally.failed
    ));
    record.timing("first_frontier_ms", &tally.first_frontier_ms, SESSION_TAIL);
    record.set("target_ms.p50", metrics::percentile(&tally.target_ms, 0.5));
    record.timing("refine_ms", &tally.refine_ms, INVOCATION_TAIL);
    record.timing("drag_ms", &tally.drag_ms, DRAG_TAIL);
    record.set("sessions_per_s", tally.completed as f64 / wall);
    record.note(format!(
        "sessions_per_s = {} sessions / {wall:.3} s",
        tally.completed
    ));
    record.timing("late_ms", &late_ms, INVOCATION_TAIL);
    tally.core.record(&mut record, attempted, INVOCATION_TAIL);
    counters.record(&mut record, attempted);
    record.timing("engine.wait_ms", &tally.wait_ms, SESSION_TAIL);
    record.timing("serve.submit_us", &submit_us, INVOCATION_TAIL);
    record.set("serve.backlog_max", backlog_max as f64);
    record.set(
        "serve.poll_us.p50",
        metrics::percentile(&tally.poll_us, 0.5),
    );
    record_persist(&mut record, &save_ms, &saved);
    Outcome {
        record,
        attempted,
        failed,
        spans,
    }
}
