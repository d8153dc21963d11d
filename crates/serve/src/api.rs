//! The non-blocking client surface.
//!
//! [`MoqoServer`] composes the sharded engine with admission control
//! behind a ticket API, speaking the
//! [session protocol](moqo_core::protocol) end to end:
//! [`MoqoServer::submit`] takes a [`SessionRequest`] and never blocks on
//! optimizer progress — it returns a [`Ticket`] plus the protocol-level
//! [`AdmissionResponse`] (admitted / degraded / queued / rejected), and
//! everything that happens afterwards arrives over the ticket's **own**
//! channel as delta-streamed [`SessionEvent`]s. Callers either
//! [`MoqoServer::poll`] (non-blocking: drains buffered events into the
//! ticket's reassembled [`SessionView`]) or [`MoqoServer::recv`] (block
//! on the ticket channel with a timeout for the next event); no caller
//! ever parks on the engine's internal condvar, so a slow or abandoned
//! client cannot interfere with scheduling — and the full frontier is
//! shipped at most once per stream, deltas after that. The first event a
//! ticket's `poll` or `recv` folds is the engine's own prime (the
//! reset-delta event [`SessionManager::watch`] opens every stream with),
//! so a stream forwarded event by event from the first `recv` on
//! reassembles the session exactly.
//!
//! Queued submissions (under [`AdmissionPolicy::Queue`]) admit lazily:
//! every API interaction pumps the pending queue against freed capacity,
//! so a server with *any* traffic drains its queue without a background
//! thread; an idle server drains it on the next call. A ticket that
//! leaves the queue rings the [`ServerEventHook`] once, after it turned
//! [`TicketStatus::Active`]; [`MoqoServer::finish`] on a ticket still
//! queued withdraws it, and it never runs.
//!
//! [`SessionManager::watch`]: moqo_engine::SessionManager::watch
//!
//! [`AdmissionPolicy::Queue`]: crate::AdmissionPolicy::Queue

use crate::admission::{Admission, AdmissionConfig, AdmissionController};
use crate::shard::{GlobalSessionId, ShardConfig, ShardedEngine};
use moqo_core::protocol::{
    AdmissionResponse, ProtocolError, SessionCommand, SessionEvent, SessionRequest, SessionView,
    ValidRequest,
};
use moqo_cost::ResolutionSchedule;
use moqo_costmodel::SharedCostModel;
use moqo_engine::Doorbell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Serving-front configuration: sharding plus admission.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Shard count, per-shard engine tunables, rebalance headroom.
    pub shard: ShardConfig,
    /// Admission bound and overload policy.
    pub admission: AdmissionConfig,
    /// Closed (finished or rejected) tickets kept queryable; the oldest
    /// beyond this many are dropped so a long-lived server's ticket
    /// table tracks live load, not total traffic (mirrors the engine's
    /// bounded history of retired sessions).
    pub retired_tickets: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shard: ShardConfig::default(),
            admission: AdmissionConfig::default(),
            retired_tickets: 1024,
        }
    }
}

/// Handle to one submission. Cheap and copyable; rejected and finished
/// tickets stay queryable until [`ServeConfig::retired_tickets`] younger
/// tickets have closed after them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The raw ticket id — what the network front's admission frame
    /// carries so a remote client can be correlated with server state.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds a ticket from a raw id (diagnostics and the network
    /// front's client side). An id the server never issued simply
    /// resolves to no ticket on every API call.
    pub fn from_u64(id: u64) -> Self {
        Ticket(id)
    }
}

/// Everything a caller can learn about a ticket without blocking.
#[derive(Clone, Debug)]
pub enum TicketStatus {
    /// Waiting in the bounded admission queue.
    Queued {
        /// Submissions currently queued (including this one).
        pending: usize,
    },
    /// Turned away by admission control.
    Rejected(moqo_core::RejectReason),
    /// Admitted; the view is reassembled purely from the ticket's event
    /// stream (and carries `outcome` once the session ends).
    Active {
        /// Where the session runs.
        session: GlobalSessionId,
        /// True if admitted under a degraded resolution ladder.
        degraded: bool,
        /// True if the session resumed a parked warm frontier.
        warm_start: bool,
        /// The delta-reassembled session state (updated by `poll`/`recv`).
        view: Box<SessionView>,
    },
}

struct ActiveCell {
    gid: GlobalSessionId,
    degraded: bool,
    warm_start: bool,
    /// Taken out (under no lock) while a caller blocks in `recv`.
    rx: Option<mpsc::Receiver<SessionEvent>>,
    /// Reassembled from the event stream; the integration tests assert it
    /// matches the engine-side frontier bit for bit.
    view: SessionView,
    /// True once the final event was observed and the ticket entered the
    /// bounded closed-history (set at most once).
    closed: bool,
}

impl ActiveCell {
    /// Folds one event into the view. Stream events are ordered and
    /// contiguous, so a fold failure is a server bug — surfaced in debug
    /// builds, tolerated (event dropped) in release.
    fn fold(&mut self, event: &SessionEvent) {
        let res = self.view.fold(event);
        debug_assert!(res.is_ok(), "ticket stream out of order: {res:?}");
    }

    /// Drains all buffered events from the channel into the view. A
    /// no-op while the receiver is checked out by a blocked `recv`.
    fn drain(&mut self) {
        let Some(rx) = &self.rx else { return };
        let mut drained = Vec::new();
        while let Ok(event) = rx.try_recv() {
            drained.push(event);
        }
        for event in &drained {
            self.fold(event);
        }
    }
}

/// A ticket's state. A queued ticket withdrawn by
/// [`MoqoServer::finish`] has no cell at all: an activation that finds its
/// cell gone finishes the session it started.
enum Cell {
    Queued,
    Rejected(moqo_core::RejectReason),
    Active(Box<ActiveCell>),
}

struct PendingSubmit {
    ticket: u64,
    request: ValidRequest,
}

/// Aggregate server statistics.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Admission counters.
    pub admission: crate::admission::AdmissionStats,
    /// Submissions waiting in the admission queue.
    pub pending: usize,
    /// Live sessions across all shards.
    pub live: usize,
    /// Per-shard load, cache, and routing statistics.
    pub shards: Vec<crate::shard::ShardStats>,
    /// Deployment-wide sub-frontier transplant cache counters (one cache
    /// shared by every shard).
    pub subfrontiers: moqo_engine::SubFrontierCacheStats,
}

/// Ticket table plus the bounded history of closed (finished/rejected)
/// tickets, oldest first; trimmed to [`ServeConfig::retired_tickets`] so
/// a long-running server's memory tracks live load, not total traffic.
struct TicketTable {
    cells: HashMap<u64, Cell>,
    closed: std::collections::VecDeque<u64>,
}

impl TicketTable {
    /// Records `id` as closed and drops the oldest closed tickets beyond
    /// the cap. Must be called at most once per ticket.
    fn close(&mut self, id: u64, cap: usize) {
        self.closed.push_back(id);
        while self.closed.len() > cap.max(1) {
            if let Some(old) = self.closed.pop_front() {
                self.cells.remove(&old);
            }
        }
    }
}

/// Sharded, admission-controlled serving front; see the module docs for
/// the interaction model.
pub struct MoqoServer {
    engine: ShardedEngine,
    admission: AdmissionController<PendingSubmit>,
    tickets: Mutex<TicketTable>,
    /// Serializes admission *decisions* (load read + policy + slot
    /// reservation), making `max_live`/`hard_cap` exact bounds instead
    /// of racy targets. The engine submission itself runs outside the
    /// gate — `reserved` covers the gap — so one expensive submission
    /// (e.g. a cold wide-shape plan build) never stalls other
    /// admissions. Never acquired while holding `tickets`.
    gate: Mutex<()>,
    /// Admissions decided under the gate whose engine submission has not
    /// completed yet; added to the engine's live count for decisions.
    reserved: AtomicU64,
    /// The installed [`ServerEventHook`], read by every ticket's doorbell
    /// when it rings. A leaf lock: taken under engine state locks, never
    /// the reverse.
    hook: Arc<Mutex<ServerEventHook>>,
    retired_tickets: usize,
    next: AtomicU64,
}

/// Callback fired whenever a ticket's channel receives a
/// [`SessionEvent`], naming that ticket, and once more when a queued
/// ticket turns active. The argument is always `Some(ticket)`; `None` is
/// never sent. Same locking contract as a [`Doorbell`]: invoked under an
/// engine state lock, keep it to queue-push + wake work.
pub type ServerEventHook = Arc<dyn Fn(Option<Ticket>) + Send + Sync>;

/// Rings the installed hook for ticket `id`.
fn ring(hook: &Mutex<ServerEventHook>, id: u64) {
    let hook = Arc::clone(&hook.lock().expect("event hook poisoned"));
    hook(Some(Ticket(id)));
}

impl MoqoServer {
    /// Starts the shard pool.
    pub fn new(model: SharedCostModel, schedule: ResolutionSchedule, config: ServeConfig) -> Self {
        Self {
            engine: ShardedEngine::new(model, schedule, config.shard),
            admission: AdmissionController::new(config.admission),
            tickets: Mutex::new(TicketTable {
                cells: HashMap::new(),
                closed: std::collections::VecDeque::new(),
            }),
            gate: Mutex::new(()),
            reserved: AtomicU64::new(0),
            hook: Arc::new(Mutex::new(Arc::new(|_| {}))),
            retired_tickets: config.retired_tickets,
            next: AtomicU64::new(1),
        }
    }

    /// Installs (or replaces) the [`ServerEventHook`] fired after every
    /// event a ticket's channel receives — the signal an event-driven
    /// network front needs to forward events without sleep-polling every
    /// ticket channel. Every ticket's doorbell reads the hook when it
    /// rings, so tickets issued before the call ring it too.
    pub fn set_event_hook(&self, hook: ServerEventHook) {
        *self.hook.lock().expect("event hook poisoned") = hook;
    }

    /// Live sessions plus decided-but-not-yet-submitted admissions — the
    /// load figure admission decisions are made against.
    fn admission_load(&self) -> usize {
        self.engine.live_sessions() + self.reserved.load(Ordering::Relaxed) as usize
    }

    /// The sharded engine behind the front (persistence, diagnostics).
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// Submits a [`SessionRequest`] for interactive optimization (a bare
    /// `Arc<QuerySpec>` converts). Returns immediately with the ticket
    /// and the protocol-level admission decision; per-slice
    /// [`SessionEvent`]s arrive on the ticket's channel afterwards.
    ///
    /// Malformed requests (bounds or preference dimensions that do not
    /// match the effective cost model, or a disconnected join graph no
    /// plan can cover) are rejected here with a typed
    /// [`ProtocolError`] before a ticket is issued — they can never reach
    /// a shard worker.
    pub fn submit(
        &self,
        request: impl Into<SessionRequest>,
    ) -> Result<(Ticket, AdmissionResponse), ProtocolError> {
        let request = request.into();
        let dim = request.effective_model(&self.engine.model()).dim();
        let request = request.validated(dim)?;
        self.pump();
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        // Register the ticket BEFORE the admission decision: once
        // `request` parks the payload, a concurrent `pump` may pop and
        // activate it immediately — it must find the cell present so its
        // `Cell::Active` is never overwritten by a late `Cell::Queued`.
        self.with_tickets(|t| {
            t.cells.insert(id, Cell::Queued);
        });
        // The gate makes (load read, policy decision, slot reservation)
        // atomic across submitters: `max_live` and `hard_cap` are exact.
        // The engine submission happens after the gate drops, with the
        // reservation standing in for the not-yet-counted session.
        let gate = self.gate.lock().expect("admission gate poisoned");
        let decision = self.admission.request(
            self.admission_load(),
            PendingSubmit {
                ticket: id,
                request: request.clone(),
            },
        );
        let response = match decision {
            Admission::Admit => {
                self.reserved.fetch_add(1, Ordering::Relaxed);
                drop(gate);
                self.activate(id, request, false);
                AdmissionResponse::Admitted
            }
            Admission::AdmitDegraded(ladder) => {
                self.reserved.fetch_add(1, Ordering::Relaxed);
                drop(gate);
                self.activate(id, request.with_schedule(ladder.clone()), true);
                AdmissionResponse::Degraded { schedule: ladder }
            }
            // The placeholder stands; a pump (possibly already racing on
            // another thread) will replace it with the active cell.
            Admission::Queued { position } => {
                drop(gate);
                AdmissionResponse::Queued { position }
            }
            Admission::Rejected(reason) => {
                drop(gate);
                self.with_tickets(|t| {
                    t.cells.insert(id, Cell::Rejected(reason));
                    t.close(id, self.retired_tickets);
                });
                AdmissionResponse::Rejected(reason)
            }
        };
        Ok((Ticket(id), response))
    }

    /// Submits a reserved admission to the engine, wires up the ticket's
    /// event channel (whose doorbell rings the hook), and files the active
    /// cell. The channel keeps the engine's prime for the caller's first
    /// `poll` or `recv`. Returns `false` if the ticket was withdrawn
    /// meanwhile (its cell is gone): the session is finished at once, so
    /// none runs without an owner.
    fn activate(&self, id: u64, request: ValidRequest, degraded: bool) -> bool {
        let gid = self.engine.admit(request);
        self.reserved.fetch_sub(1, Ordering::Relaxed);
        let hook = Arc::clone(&self.hook);
        let doorbell: Doorbell = Arc::new(move || ring(&hook, id));
        let rx = self
            .engine
            .watch(gid, Some(doorbell))
            .expect("freshly submitted session");
        let warm_start = self
            .engine
            .status(gid)
            .map(|s| s.warm_start)
            .unwrap_or(false);
        let cell = ActiveCell {
            gid,
            degraded,
            warm_start,
            rx: Some(rx),
            view: SessionView::default(),
            closed: false,
        };
        let filed = self.with_tickets(|t| match t.cells.get_mut(&id) {
            Some(slot) => {
                *slot = Cell::Active(Box::new(cell));
                true
            }
            None => false,
        });
        if !filed {
            self.engine.finish(gid);
        }
        filed
    }

    /// Admits queued submissions into freed capacity (called from every
    /// public entry point). The gate keeps the (load read, release)
    /// decision atomic with concurrent admissions; the engine submission
    /// runs outside it under a reservation. Each ticket that turns active
    /// rings the hook once, so a front waiting on it starts forwarding.
    fn pump(&self) {
        loop {
            let gate = self.gate.lock().expect("admission gate poisoned");
            let Some(p) = self.admission.release(self.admission_load()) else {
                return;
            };
            self.reserved.fetch_add(1, Ordering::Relaxed);
            drop(gate);
            if self.activate(p.ticket, p.request, false) {
                ring(&self.hook, p.ticket);
            }
        }
    }

    fn with_tickets<R>(&self, f: impl FnOnce(&mut TicketTable) -> R) -> R {
        f(&mut self.tickets.lock().expect("ticket table poisoned"))
    }

    /// Marks a finished active cell closed (dropping its channel) and
    /// files the ticket into the bounded closed-history (once). Call with
    /// the table lock held. Idempotent on the channel: a receiver restored
    /// by a `recv` that raced the close is dropped here too.
    fn close_if_finished(&self, t: &mut TicketTable, id: u64) {
        if let Some(Cell::Active(active)) = t.cells.get_mut(&id) {
            if active.view.is_finished() {
                active.rx = None;
                if !active.closed {
                    active.closed = true;
                    t.close(id, self.retired_tickets);
                }
            }
        }
    }

    /// Non-blocking status: drains any buffered events from the ticket
    /// channel into the reassembled view and returns the latest state.
    /// `None` for unknown tickets (including closed tickets evicted from
    /// the bounded history).
    pub fn poll(&self, ticket: Ticket) -> Option<TicketStatus> {
        self.pump();
        self.with_tickets(|t| {
            let cell = t.cells.get_mut(&ticket.0)?;
            let status = match cell {
                Cell::Queued => TicketStatus::Queued {
                    pending: self.admission.pending(),
                },
                Cell::Rejected(reason) => TicketStatus::Rejected(*reason),
                Cell::Active(active) => {
                    active.drain();
                    TicketStatus::Active {
                        session: active.gid,
                        degraded: active.degraded,
                        warm_start: active.warm_start,
                        view: Box::new(active.view.clone()),
                    }
                }
            };
            self.close_if_finished(t, ticket.0);
            Some(status)
        })
    }

    /// Blocks on the ticket's channel for the next [`SessionEvent`] (at
    /// most `timeout`), never on engine internals; the event is folded
    /// into the ticket's view before it is returned. The first event of a
    /// ticket nobody polled yet is the engine's prime: a full-state
    /// reset-delta event, so forwarding every `recv` from the first on
    /// hands a remote view the whole stream. Returns `None` for
    /// unknown, queued, or rejected tickets, on timeout, and once the
    /// channel is closed after the session finished (the final view
    /// remains available via [`MoqoServer::poll`]). Only one caller may
    /// block per ticket at a time; concurrent `recv`s on one ticket
    /// return `None`.
    pub fn recv(&self, ticket: Ticket, timeout: Duration) -> Option<SessionEvent> {
        self.pump();
        // Take the receiver out so the table lock is NOT held while
        // blocking; poll() keeps working (it sees `rx: None` and serves
        // the latest reassembled view).
        let rx = self.with_tickets(|t| match t.cells.get_mut(&ticket.0) {
            Some(Cell::Active(active)) => active.rx.take(),
            _ => None,
        })?;
        let received = rx.recv_timeout(timeout).ok();
        self.with_tickets(|t| {
            if let Some(Cell::Active(active)) = t.cells.get_mut(&ticket.0) {
                if let Some(event) = &received {
                    active.fold(event);
                }
                active.rx = Some(rx);
                // No drain on a LIVE stream: `recv` hands events to the
                // caller strictly one at a time (the network front
                // forwards each to its remote client — swallowing
                // buffered successors would tear a hole in the remote
                // delta stream); events that arrived while this call was
                // blocked stay queued for the next `recv`. The one
                // exception is a session already finished out-of-band (a
                // concurrent `finish` that set the outcome while our rx
                // was checked out): the ticket is about to close, so fold
                // the stragglers now or their deltas would be lost to
                // `poll` forever.
                if active.view.is_finished() {
                    active.drain();
                }
            }
            self.close_if_finished(t, ticket.0);
        });
        // The session's slot is free once its terminal event is out.
        if received.as_ref().is_some_and(SessionEvent::is_final) {
            self.pump();
        }
        received
    }

    /// Routes a [`SessionCommand`] to the ticket's session — bound drags,
    /// preference changes, plan selection, cancellation — exactly the
    /// vocabulary the core session and the engine speak.
    ///
    /// Tickets that are queued, rejected, or evicted answer
    /// [`ProtocolError::UnknownSession`]; dimension mismatches are
    /// validated at the owning shard and never reach a worker.
    pub fn command(&self, ticket: Ticket, command: SessionCommand) -> Result<(), ProtocolError> {
        let gid = self
            .with_tickets(|t| match t.cells.get(&ticket.0) {
                Some(Cell::Active(active)) => Some(active.gid),
                _ => None,
            })
            .ok_or(ProtocolError::UnknownSession)?;
        self.engine.command(gid, command)
    }

    /// Retires a session without a selection, parking its warm frontier
    /// for future equivalent queries, and frees its admission slot. The
    /// park runs with no engine lock held, and the session's final status
    /// stays queryable on its shard (see
    /// [`SessionManager::finish`](moqo_engine::SessionManager::finish)).
    /// Returns the final reassembled view; `None` for tickets that never
    /// activated.
    ///
    /// A ticket still queued is withdrawn: its submission leaves the
    /// admission queue, the ticket is dropped, and no session runs for it
    /// (an activation already in flight finishes the session it started).
    pub fn finish(&self, ticket: Ticket) -> Option<SessionView> {
        let gid = self.with_tickets(|t| match t.cells.get(&ticket.0) {
            Some(Cell::Active(active)) => Some(active.gid),
            Some(Cell::Queued) => {
                self.admission.withdraw(|p| p.ticket == ticket.0);
                t.cells.remove(&ticket.0);
                None
            }
            _ => None,
        })?;
        // The engine publishes the terminal event to the ticket channel;
        // drain it into the view so the caller sees the final state.
        let final_status = self.engine.finish(gid)?;
        let view = self.with_tickets(|t| {
            let view = match t.cells.get_mut(&ticket.0) {
                Some(Cell::Active(active)) => {
                    active.drain();
                    if !active.view.is_finished() {
                        // The receiver is checked out by a concurrent
                        // blocked `recv` (which will fold the terminal
                        // event itself); the session is finished either
                        // way — record the outcome so this call returns
                        // a final view and the ticket closes now.
                        active.view.outcome = final_status.outcome;
                    }
                    Some(active.view.clone())
                }
                _ => None,
            };
            self.close_if_finished(t, ticket.0);
            view
        });
        // The freed slot may admit a queued submission right away.
        self.pump();
        view
    }

    /// Blocks until all shards drain (testing/batch use; interactive
    /// callers should `recv` their own ticket instead).
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.pump();
        self.engine.wait_idle(timeout)
    }

    /// Aggregate admission + shard statistics.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            admission: self.admission.stats(),
            pending: self.admission.pending(),
            live: self.engine.live_sessions(),
            shards: self.engine.shard_stats(),
            subfrontiers: self.engine.subfrontier_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionPolicy;
    use moqo_core::{RejectReason, SessionOutcome};
    use moqo_cost::Bounds;
    use moqo_costmodel::StandardCostModel;
    use moqo_engine::EngineConfig;
    use moqo_query::testkit;
    use std::sync::Arc;
    use std::time::Instant;

    const IDLE: Duration = Duration::from_secs(60);

    fn server(admission: AdmissionConfig) -> MoqoServer {
        MoqoServer::new(
            Arc::new(StandardCostModel::paper_metrics()),
            ResolutionSchedule::linear(2, 1.1, 0.4),
            ServeConfig {
                shard: ShardConfig {
                    shards: 2,
                    engine: EngineConfig {
                        workers: 2,
                        ..EngineConfig::default()
                    },
                    rebalance_headroom: 8,
                },
                admission,
                retired_tickets: 1024,
            },
        )
    }

    fn submit(s: &MoqoServer, spec: Arc<moqo_query::QuerySpec>) -> (Ticket, AdmissionResponse) {
        s.submit(spec).expect("well-formed request")
    }

    #[test]
    fn ticket_flow_submit_recv_select() {
        let s = server(AdmissionConfig::default());
        let (t, resp) = submit(&s, Arc::new(testkit::chain_query(3, 80_000)));
        assert_eq!(resp, AdmissionResponse::Admitted);
        // Events stream on the ticket channel until the ladder saturates.
        let mut view = match s.poll(t).unwrap() {
            TicketStatus::Active { view, .. } => *view,
            other => panic!("expected active ticket, got {other:?}"),
        };
        while view.invocations < 3 {
            s.recv(t, IDLE).expect("slice event");
            view = match s.poll(t).unwrap() {
                TicketStatus::Active { view, .. } => *view,
                other => panic!("expected active ticket, got {other:?}"),
            };
        }
        assert!(!view.frontier.is_empty());
        // The delta-reassembled view matches the engine's frontier
        // bit for bit.
        let gid = match s.poll(t).unwrap() {
            TicketStatus::Active { session, .. } => session,
            _ => unreachable!(),
        };
        assert!(view.frontier.bits_eq(&s.engine().frontier(gid).unwrap()));
        // Select the fastest visualized plan; the session retires.
        let plan = view.frontier.min_by_metric(0).unwrap().plan;
        s.command(t, SessionCommand::SelectPlan(plan)).unwrap();
        assert!(s.wait_idle(IDLE));
        let fin = match s.poll(t).unwrap() {
            TicketStatus::Active { view, .. } => *view,
            other => panic!("expected active ticket, got {other:?}"),
        };
        assert!(fin.is_finished());
        assert_eq!(fin.selected(), Some(plan));
        assert_eq!(s.stats().live, 0);
    }

    #[test]
    fn rejection_backpressure_is_visible_on_the_ticket() {
        let s = server(AdmissionConfig {
            max_live: 1,
            policy: AdmissionPolicy::Reject,
        });
        let (a, ra) = submit(&s, Arc::new(testkit::chain_query(2, 10_000)));
        let (b, rb) = submit(&s, Arc::new(testkit::chain_query(3, 10_000)));
        assert!(ra.is_admitted());
        assert!(matches!(
            rb,
            AdmissionResponse::Rejected(RejectReason::Overloaded { .. })
        ));
        assert!(matches!(s.poll(a), Some(TicketStatus::Active { .. })));
        assert!(matches!(
            s.poll(b),
            Some(TicketStatus::Rejected(RejectReason::Overloaded { .. }))
        ));
        // recv on a rejected ticket returns immediately.
        assert!(s.recv(b, Duration::from_millis(10)).is_none());
        assert_eq!(s.stats().admission.rejected, 1);
    }

    #[test]
    fn queued_submissions_admit_as_capacity_frees() {
        let s = server(AdmissionConfig {
            max_live: 1,
            policy: AdmissionPolicy::Queue { depth: 1 },
        });
        let (a, ra) = submit(&s, Arc::new(testkit::chain_query(2, 20_000)));
        let (b, rb) = submit(&s, Arc::new(testkit::chain_query(3, 20_000)));
        let (c, rc) = submit(&s, Arc::new(testkit::chain_query(4, 20_000)));
        assert_eq!(ra, AdmissionResponse::Admitted);
        assert_eq!(rb, AdmissionResponse::Queued { position: 0 });
        // The bounded queue is full: c is rejected, never silently grown.
        assert!(matches!(
            rc,
            AdmissionResponse::Rejected(RejectReason::QueueFull { .. })
        ));
        assert!(matches!(s.poll(a), Some(TicketStatus::Active { .. })));
        assert!(matches!(s.poll(b), Some(TicketStatus::Queued { .. })));
        assert!(matches!(
            s.poll(c),
            Some(TicketStatus::Rejected(RejectReason::QueueFull { .. }))
        ));
        // Finishing a frees the slot; the next interaction admits b.
        assert!(s.wait_idle(IDLE));
        s.finish(a).unwrap();
        match s.poll(b).unwrap() {
            TicketStatus::Active { .. } => {}
            other => panic!("queued ticket should have admitted, got {other:?}"),
        }
        assert!(s.wait_idle(IDLE));
        let st = match s.poll(b).unwrap() {
            TicketStatus::Active { view, .. } => *view,
            _ => unreachable!(),
        };
        assert!(!st.frontier.is_empty());
    }

    #[test]
    fn a_queued_submission_withdrawn_by_finish_never_runs() {
        let s = server(AdmissionConfig {
            max_live: 1,
            policy: AdmissionPolicy::Queue { depth: 4 },
        });
        let (a, _) = submit(&s, Arc::new(testkit::chain_query(2, 20_000)));
        let (b, rb) = submit(&s, Arc::new(testkit::chain_query(3, 20_000)));
        assert_eq!(rb, AdmissionResponse::Queued { position: 0 });
        assert!(s.finish(b).is_none(), "a queued ticket has no view");
        assert!(s.poll(b).is_none(), "the withdrawn ticket is dropped");
        assert_eq!(s.stats().pending, 0);
        // The freed slot admits nothing: b left the queue for good.
        assert!(s.wait_idle(IDLE));
        s.finish(a).unwrap();
        assert!(s.poll(b).is_none());
        assert!(s.wait_idle(IDLE));
        let stats = s.stats();
        assert_eq!((stats.live, stats.pending), (0, 0));
        assert_eq!(stats.admission.admitted, 1);
    }

    #[test]
    fn an_activation_racing_a_withdrawal_finishes_its_session() {
        let s = server(AdmissionConfig {
            max_live: 1,
            policy: AdmissionPolicy::Queue { depth: 4 },
        });
        let (a, _) = submit(&s, Arc::new(testkit::chain_query(2, 20_000)));
        let (b, _) = submit(&s, Arc::new(testkit::chain_query(3, 20_000)));
        // A pump pops b's submission (as it would once a frees its slot),
        // and b is withdrawn before the activation files its cell.
        let popped = s.admission.release(0).expect("b was queued");
        assert_eq!(popped.ticket, b.0);
        assert!(s.finish(b).is_none());
        s.reserved.fetch_add(1, Ordering::Relaxed);
        assert!(!s.activate(popped.ticket, popped.request, false));
        // The session the activation started was finished at once.
        assert!(s.poll(b).is_none());
        assert_eq!(s.stats().live, 1, "only a runs");
        s.finish(a).unwrap();
        assert!(s.wait_idle(IDLE));
        assert_eq!(s.stats().live, 0);
        assert_eq!(s.reserved.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn closed_ticket_history_is_bounded() {
        let s = MoqoServer::new(
            Arc::new(StandardCostModel::paper_metrics()),
            ResolutionSchedule::linear(1, 1.2, 0.4),
            ServeConfig {
                shard: ShardConfig {
                    shards: 1,
                    engine: EngineConfig {
                        workers: 1,
                        ..EngineConfig::default()
                    },
                    rebalance_headroom: 0,
                },
                admission: AdmissionConfig::default(),
                retired_tickets: 2,
            },
        );
        let tickets: Vec<Ticket> = (2..=5)
            .map(|n| submit(&s, Arc::new(testkit::chain_query(n, 5_000))).0)
            .collect();
        assert!(s.wait_idle(IDLE));
        for &t in &tickets {
            s.finish(t).unwrap();
        }
        // Only the two youngest closed tickets stay queryable; the
        // older ones were evicted with their frontiers and channels.
        assert!(s.poll(tickets[0]).is_none());
        assert!(s.poll(tickets[1]).is_none());
        assert!(matches!(
            s.poll(tickets[2]),
            Some(TicketStatus::Active { .. })
        ));
        assert!(matches!(
            s.poll(tickets[3]),
            Some(TicketStatus::Active { .. })
        ));
        // Operations on an evicted ticket degrade gracefully.
        assert_eq!(
            s.command(tickets[0], SessionCommand::SetBounds(Bounds::unbounded(3))),
            Err(ProtocolError::UnknownSession)
        );
        assert!(s.finish(tickets[0]).is_none());
    }

    #[test]
    fn degrade_policy_admits_under_a_coarse_ladder() {
        let s = server(AdmissionConfig {
            max_live: 1,
            policy: AdmissionPolicy::Degrade {
                schedule: ResolutionSchedule::linear(0, 1.5, 0.5),
                hard_cap: 2,
            },
        });
        let (a, ra) = submit(&s, Arc::new(testkit::chain_query(2, 30_000)));
        let (b, rb) = submit(&s, Arc::new(testkit::chain_query(3, 30_000)));
        let (_c, rc) = submit(&s, Arc::new(testkit::chain_query(4, 30_000)));
        assert_eq!(ra, AdmissionResponse::Admitted);
        match &rb {
            AdmissionResponse::Degraded { schedule } => assert_eq!(schedule.levels(), 1),
            other => panic!("expected degraded admission, got {other:?}"),
        }
        // Beyond the hard cap even degraded admission stops.
        assert!(matches!(rc, AdmissionResponse::Rejected(_)));
        assert!(matches!(
            s.poll(a),
            Some(TicketStatus::Active {
                degraded: false,
                ..
            })
        ));
        assert!(s.wait_idle(IDLE));
        let st = match s.poll(b).unwrap() {
            TicketStatus::Active { degraded, view, .. } => {
                assert!(degraded);
                *view
            }
            other => panic!("expected degraded admission, got {other:?}"),
        };
        // One-level ladder: a single invocation, but a frontier exists.
        assert_eq!(st.invocations, 1);
        assert!(!st.frontier.is_empty());
    }

    #[test]
    fn malformed_requests_are_rejected_before_a_ticket_exists() {
        let s = server(AdmissionConfig::default());
        let bad = SessionRequest::new(Arc::new(testkit::chain_query(3, 10_000)))
            .with_preference(moqo_core::Preference::WeightedSum(vec![1.0]));
        assert_eq!(
            s.submit(bad).unwrap_err(),
            ProtocolError::WeightDimensionMismatch {
                expected: 3,
                got: 1
            }
        );
        // The server is untouched: no ticket, no session, no pending.
        assert_eq!(s.stats().live, 0);
        assert_eq!(s.stats().pending, 0);
    }

    #[test]
    fn disconnected_join_graphs_are_rejected_before_a_ticket_exists() {
        // chain(4) without its middle edge: {0, 1} and {2, 3} never join,
        // so no plan covers the query and no admitted ladder could end.
        let s = server(AdmissionConfig::default());
        let mut spec = testkit::chain_query(4, 10_000);
        spec.graph.edges.retain(|e| (e.left, e.right) != (1, 2));
        assert_eq!(
            s.submit(Arc::new(spec)).unwrap_err(),
            ProtocolError::DisconnectedJoinGraph
        );
        let stats = s.stats();
        assert_eq!((stats.live, stats.pending), (0, 0));
        assert_eq!(stats.admission.admitted, 0);
    }

    #[test]
    fn preference_request_auto_selects_through_the_full_stack() {
        let s = server(AdmissionConfig::default());
        let pref = moqo_core::Preference::WeightedSum(vec![1.0, 0.01, 0.01]);
        let (t, resp) = s
            .submit(
                SessionRequest::new(Arc::new(testkit::chain_query(3, 40_000)))
                    .with_preference(pref.clone()),
            )
            .unwrap();
        assert_eq!(resp, AdmissionResponse::Admitted);
        assert!(s.wait_idle(IDLE));
        let view = match s.poll(t).unwrap() {
            TicketStatus::Active { view, .. } => *view,
            other => panic!("expected active, got {other:?}"),
        };
        match view.outcome {
            Some(SessionOutcome::Selected { by_preference, .. }) => assert!(by_preference),
            other => panic!("expected preference selection, got {other:?}"),
        }
        assert_eq!(s.stats().live, 0, "auto-selection frees the slot");
    }

    #[test]
    fn recv_times_out_cleanly_on_an_idle_session() {
        let s = server(AdmissionConfig::default());
        let (t, _) = submit(&s, Arc::new(testkit::chain_query(2, 15_000)));
        // Drain the whole refinement ladder.
        assert!(s.wait_idle(IDLE));
        while s.recv(t, Duration::from_millis(50)).is_some() {}
        // The session is parked (not finished): no events are coming, so
        // recv must block for the full timeout and return None — without
        // touching the engine's internals.
        let t0 = Instant::now();
        let timeout = Duration::from_millis(150);
        assert!(s.recv(t, timeout).is_none());
        assert!(
            t0.elapsed() >= timeout,
            "recv returned early without an event"
        );
        // The ticket is still live and commandable afterwards.
        assert!(matches!(s.poll(t), Some(TicketStatus::Active { .. })));
        s.command(t, SessionCommand::Refine).unwrap();
        assert!(s.wait_idle(IDLE));
    }

    #[test]
    fn session_finishing_between_poll_and_recv_is_not_a_lost_wakeup() {
        let s = server(AdmissionConfig::default());
        let (t, _) = submit(&s, Arc::new(testkit::chain_query(3, 25_000)));
        assert!(s.wait_idle(IDLE));
        // Caller polls (sees an unfinished session)...
        match s.poll(t).unwrap() {
            TicketStatus::Active { view, .. } => assert!(!view.is_finished()),
            other => panic!("expected active, got {other:?}"),
        }
        // ...the session finishes in the gap...
        s.finish(t).unwrap();
        // ...and the subsequent recv must return promptly — the terminal
        // event was already drained by finish, the channel's sender side
        // is gone, so recv sees a disconnect, not a full-timeout stall.
        let t0 = Instant::now();
        let timeout = Duration::from_secs(5);
        assert!(s.recv(t, timeout).is_none());
        assert!(t0.elapsed() < timeout, "recv stalled on a finished session");
        // The final view stays available via poll.
        match s.poll(t).unwrap() {
            TicketStatus::Active { view, .. } => {
                assert!(view.is_finished());
                assert_eq!(view.outcome, Some(SessionOutcome::Retired));
            }
            other => panic!("expected closed-but-queryable ticket, got {other:?}"),
        }
    }
}
