//! The concurrent multi-session serving layer.
//!
//! [`SessionManager`] owns many interactive optimization sessions at once
//! — the deployment shape Figure 1 of the paper implies: every connected
//! user drags bounds over their own refining Pareto frontier while a
//! shared worker pool advances all sessions fairly.
//!
//! The manager speaks the [session protocol](moqo_core::protocol)
//! end to end: sessions open from a [`SessionRequest`] (which may carry
//! per-session bounds, a schedule override, a [`Preference`] that
//! auto-selects at the target resolution, and a **per-session cost
//! model**), clients steer them with [`SessionCommand`]s queued in
//! per-session inboxes, and [`SessionManager::watch`] streams
//! [`SessionEvent`]s whose [`FrontierDelta`]s reassemble — exactly — to
//! the full frontier, instead of re-shipping it after every slice.
//!
//! Scheduling is round-robin: a worker checks a session out of the shared
//! map, runs one command (a queued user command, or one anytime `Refine`,
//! i.e. one `optimize(bounds, r)` call, so the *incrementality* of IAMA —
//! not the scheduler — keeps slices short), then requeues the session at
//! the back.
//!
//! Each session has one producer of events, its [`Session`]: check-in
//! publishes the event [`Session::apply`] returned as it is, and advances
//! the [`SessionStatus`] from it. A session ends one way, too. Whether a
//! worker's command ended it (a selection, a fired preference) or
//! [`SessionManager::finish`] did (it runs [`SessionCommand::Cancel`] on a
//! session it checks out as a worker does), the park step runs with no
//! engine lock held, before check-in publishes the terminal event, and
//! the final status stays queryable among the most recent retirements.
//!
//! Finished sessions park their optimizer in the [`WarmStore`] keyed by
//! canonical [`QueryFingerprint`] — which embeds the cost model's
//! [identity](moqo_costmodel::CostModel::identity), so sessions under
//! different per-session models can never exchange warm state — and a
//! repeated query starts from a warm frontier: its first invocation
//! generates zero plans. A standalone manager owns a private store; the
//! shards of a sharded deployment share one, so warm state belongs to the
//! query, not to the shard that happened to run it.
//!
//! Every way into the store goes through one park step
//! ([`WarmStore::park`]): the optimizer is
//! [compacted](IamaOptimizer::compact) to the plans a resume can reach,
//! and its per-subset state is harvested into the [`SubFrontierCache`] —
//! or, when a resumed optimizer parks again unchanged, the blobs it was
//! parked with are re-inserted as they are.
//!
//! A cold open has two near-miss tiers, and one door for both: each seeds
//! sub-frontier blobs through a [`moqo_core::Seeder`]. A
//! **rebase** takes the blobs a parked optimizer of the same shape under
//! drifted cardinalities was harvested with ([`WarmStore::rebase_seeds`];
//! the donor stays parked); failing that, a **transplant** takes the
//! blobs of other queries sharing a join subgraph with identical
//! statistics from the [`SubFrontierCache`].
//!
//! All warm-start work of an open — taking a parked optimizer, importing
//! rebase or transplant seeds — runs before the manager's state lock is
//! taken, and the store lock is held only for each map operation; the
//! state lock then only registers the session. Seed replay re-costs
//! every tree, so under either lock it would stall every session of the
//! shard, or of the deployment.
//!
//! [`Preference`]: moqo_core::Preference

use crate::cache::{CacheStats, WarmStore};
use crate::fingerprint::{QueryFingerprint, RebaseKey, SubsetFingerprint};
use crate::plans::{PlanCache, PlanCacheStats};
use crate::subfrontier::{Harvest, SubFrontierCache, SubFrontierCacheStats};
use moqo_core::protocol::{
    FrontierDelta, ProtocolError, SessionCommand, SessionEvent, SessionOutcome, SessionRequest,
    ValidRequest,
};
use moqo_core::{FrontierSnapshot, IamaConfig, IamaOptimizer, InvocationReport, SeedTier, Session};
use moqo_cost::{Bounds, ResolutionSchedule};
use moqo_costmodel::SharedCostModel;
use moqo_plan::PlanId;
use moqo_query::QuerySpec;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Identifier of one interactive session within a [`SessionManager`].
pub type SessionId = u64;

/// Tunables of the serving layer.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads advancing sessions. At least 1.
    pub workers: usize,
    /// Parked optimizers kept per manager: a standalone manager's private
    /// [`WarmStore`] holds this many, and a store shared by N shards holds
    /// N times this many under one LRU.
    pub cache_capacity: usize,
}

/// Finished sessions whose final [`SessionStatus`] stays queryable after
/// their optimizer moved to the cache; the oldest beyond this many are
/// dropped so a long-lived manager's memory stays bounded.
const RETIRED_CAPACITY: usize = 256;

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(2),
            cache_capacity: 64,
        }
    }
}

/// Read-only snapshot of one session, refreshed after every slice.
#[derive(Clone, Debug)]
pub struct SessionStatus {
    /// The session's id.
    pub id: SessionId,
    /// Display name of the query being optimized.
    pub query: String,
    /// Canonical fingerprint (the frontier-cache key; embeds the
    /// session's effective cost-model identity).
    pub fingerprint: QueryFingerprint,
    /// True if the session started from a cached warm frontier.
    pub warm_start: bool,
    /// True if the session runs a non-default — typically degraded —
    /// resolution ladder: a [`SessionRequest`] schedule override took
    /// effect on a cold start, or a warm resume revived a frontier that
    /// was refined under a ladder other than the manager-wide one (its
    /// approximation guarantee is the parked ladder's, not the
    /// deployment default's).
    pub schedule_override: bool,
    /// True if the session runs under a per-session cost model instead of
    /// the manager-wide one.
    pub model_override: bool,
    /// True if the session started cold on its exact fingerprint but was
    /// seeded by **rebasing** a parked frontier of the same shape under
    /// drifted catalog cardinalities (its harvested plans re-admitted as
    /// re-costed level-0 candidates; see [`WarmStore::rebase_seeds`]).
    pub rebased: bool,
    /// Number of table subsets seeded from transplanted sub-frontier
    /// blobs on a cold start (0 for warm and rebased sessions).
    pub seeded_subsets: u32,
    /// Epoch of the last published [`SessionEvent`] (watch streams resume
    /// from here).
    pub epoch: u64,
    /// Terminal state, once the session ended (plan selected, preference
    /// fired, cancelled, or retired).
    pub outcome: Option<SessionOutcome>,
    /// Invocations run so far *in this session*.
    pub invocations: u64,
    /// Resolution level the next invocation will use.
    pub resolution: usize,
    /// The session's current cost bounds.
    pub bounds: Bounds,
    /// Cost tradeoffs currently visualized for this session.
    pub frontier: FrontierSnapshot,
    /// Report of the session's first invocation (warm-start evidence:
    /// `plans_generated == 0` on a cache hit).
    pub first_report: Option<InvocationReport>,
    /// Report of the most recent invocation.
    pub last_report: Option<InvocationReport>,
}

impl SessionStatus {
    /// True once the session ended.
    pub fn is_finished(&self) -> bool {
        self.outcome.is_some()
    }

    /// The plan the session ended with, if any.
    pub fn selected(&self) -> Option<PlanId> {
        self.outcome.and_then(|o| o.selected())
    }
}

/// A session's interactive state, owned by its slot or by the worker
/// running it.
struct Active {
    session: Session,
    /// The key the optimizer parks under when the session ends.
    fingerprint: QueryFingerprint,
    /// The harvest a warm resume's optimizer was parked with; `None` for
    /// cold starts.
    harvest: Option<Harvest>,
    remaining_ticks: usize,
    /// Refinement budget re-armed on bound changes; per-session because a
    /// [`SessionRequest`] can override the ladder length.
    auto_ticks: usize,
}

impl Active {
    /// The next command to run: the oldest of `inbox`, else one `Refine`
    /// while the refinement budget lasts.
    fn next_command(&mut self, inbox: &mut VecDeque<SessionCommand>) -> Option<SessionCommand> {
        match inbox.pop_front() {
            Some(cmd) => {
                if matches!(cmd, SessionCommand::SetBounds(_)) {
                    // A user refocusing their bounds re-arms the
                    // refinement budget (Algorithm 1 keeps iterating
                    // after bound changes).
                    self.remaining_ticks = self.auto_ticks;
                }
                Some(cmd)
            }
            None if self.remaining_ticks > 0 => {
                self.remaining_ticks -= 1;
                Some(SessionCommand::Refine)
            }
            None => None,
        }
    }
}

enum Cell {
    /// Parked in the map, available for checkout.
    Idle(Box<Active>),
    /// Currently owned by a worker.
    Running,
    /// Finished; the optimizer has moved to the warm store.
    Retired,
}

struct Slot {
    cell: Cell,
    status: SessionStatus,
    queued: bool,
    /// Commands not yet run, oldest first, whether the session is checked
    /// in or running: a worker takes one at checkout.
    inbox: VecDeque<SessionCommand>,
    /// Per-watcher push channels, each with its doorbell: every
    /// published [`SessionEvent`] (after a slice, on retirement, on
    /// `finish`) is cloned into each live watcher so callers can `recv`
    /// on their own channel instead of parking on the engine's internal
    /// condvar. Disconnected watchers are pruned on the next send.
    watchers: Vec<(mpsc::Sender<SessionEvent>, Option<Doorbell>)>,
}

impl Slot {
    /// Advances the status from one event the session emitted, and sends
    /// the event to all watchers (dropping dead ones), ringing each
    /// watcher's own doorbell.
    fn publish(&mut self, event: SessionEvent) {
        let status = &mut self.status;
        status.epoch = event.epoch;
        status.invocations = event.invocations;
        status.resolution = event.resolution;
        status.bounds = event.bounds;
        status.outcome = event.outcome;
        if event.first_report.is_some() {
            status.first_report.clone_from(&event.first_report);
        }
        if event.report.is_some() {
            status.last_report.clone_from(&event.report);
        }
        // The delta advances the published snapshot in place — no
        // full-frontier diff or clone.
        event.delta.apply(&mut status.frontier);
        self.watchers.retain(|(tx, doorbell)| {
            let sent = tx.send(event.clone()).is_ok();
            if let (true, Some(ring)) = (sent, doorbell) {
                ring();
            }
            sent
        });
    }
}

struct EngineState {
    slots: HashMap<SessionId, Slot>,
    queue: VecDeque<SessionId>,
    next_id: SessionId,
    running: usize,
    /// Sessions admitted and not yet finished (live load, for admission
    /// control and shard routing).
    live: usize,
    /// Retired sessions in retirement order, oldest first; trimmed to
    /// [`RETIRED_CAPACITY`] so `slots` stays bounded.
    retired: VecDeque<SessionId>,
}

/// Callback rung once per event a watch channel receives — the readiness
/// signal an event-driven serving front needs to know *which* channel
/// became non-empty without polling them all (see
/// [`SessionManager::watch`]).
///
/// Rung with the engine state lock held, so implementations must be
/// cheap and must only take leaf locks (push an id on a queue, ring a
/// wake latch) — never call back into the manager.
pub type Doorbell = Arc<dyn Fn() + Send + Sync>;

struct Shared {
    state: Mutex<EngineState>,
    /// Signals workers that the run queue may be non-empty.
    work: Condvar,
    /// Signals waiters that a slice finished (idle / finish conditions).
    settled: Condvar,
    shutdown: AtomicBool,
    /// Parked optimizers and sub-frontier blobs, possibly shared with
    /// sibling managers. Its lock is a leaf below the state lock.
    store: Arc<WarmStore>,
    /// This manager's share of the store's effectiveness counters.
    counters: CacheCounters,
}

/// The store lookups this manager's opens made, and the evictions its
/// parks caused (the per-manager view of a possibly shared store).
#[derive(Default)]
struct CacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    rebase_hits: AtomicU64,
    rebase_misses: AtomicU64,
}

fn count(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl Shared {
    /// Parks an optimizer through the store's park step, counting an
    /// eviction it causes against this manager.
    fn park(&self, fp: QueryFingerprint, optimizer: IamaOptimizer, kept: Option<Harvest>) {
        if self.store.park(fp, optimizer, kept) {
            count(&self.counters.evictions);
        }
    }

    /// Parks the optimizer of a checked-out session that just ended and
    /// returns `None`; returns a session that goes on as it is. Runs with
    /// no lock held (compaction and blob encoding are real work) and
    /// before check-in publishes the terminal event, so a client
    /// resubmitting on that event finds the optimizer parked.
    fn park_if_ended(&self, active: Box<Active>) -> Option<Box<Active>> {
        if !active.session.is_finished() {
            return Some(active);
        }
        let Active {
            session,
            fingerprint,
            harvest,
            ..
        } = *active;
        self.park(fingerprint, session.into_optimizer(), harvest);
        None
    }

    /// Checks a session back in after a worker or `finish` ran one
    /// command on it outside the lock: `active` is the session if it goes
    /// on (`None` once it ended and parked), and `event` is what
    /// [`Session::apply`] returned, if the command ran. The event is
    /// published as it is, and the status advances from it.
    fn check_in(
        &self,
        state: &mut EngineState,
        id: SessionId,
        active: Option<Box<Active>>,
        event: Option<SessionEvent>,
    ) {
        state.running -= 1;
        // Nothing removes the slot of a checked-out session, so this is
        // unreachable; tolerate it anyway rather than poisoning the pool.
        let Some(slot) = state.slots.get_mut(&id) else {
            self.settled.notify_all();
            return;
        };
        if let Some(event) = event {
            slot.publish(event);
        }
        let mut requeue = false;
        match active {
            Some(active) => {
                debug_assert!(
                    slot.status.frontier.bits_eq(active.session.frontier()),
                    "delta diverged from the session frontier"
                );
                requeue = !slot.inbox.is_empty() || active.remaining_ticks > 0;
                slot.cell = Cell::Idle(active);
            }
            None => {
                slot.cell = Cell::Retired;
                slot.inbox.clear();
                // Final update delivered above; release the channels.
                slot.watchers.clear();
                state.live = state.live.saturating_sub(1);
                // Keep the final status queryable, but bound the history.
                state.retired.push_back(id);
                while state.retired.len() > RETIRED_CAPACITY {
                    if let Some(old) = state.retired.pop_front() {
                        state.slots.remove(&old);
                    }
                }
            }
        }
        if requeue {
            enqueue(state, id);
            self.work.notify_one();
        }
        self.settled.notify_all();
    }
}

/// Owns many concurrent interactive sessions and the worker pool driving
/// them; see the module docs for the scheduling model.
///
/// One manager serves one deployment default (cost model + resolution
/// schedule) but any number of per-session overrides via
/// [`SessionRequest`]. Dropping the manager shuts the workers down and
/// joins them.
pub struct SessionManager {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    model: SharedCostModel,
    schedule: ResolutionSchedule,
    /// Enumeration plans shared across sessions, keyed by join-graph
    /// shape: structurally similar queries (same shape, any statistics,
    /// any cost model) reuse one plan even when their frontiers cannot be
    /// shared.
    plans: PlanCache,
}

impl SessionManager {
    /// Starts the worker pool with a private [`WarmStore`] of
    /// `config.cache_capacity` parked optimizers.
    pub fn new(model: SharedCostModel, schedule: ResolutionSchedule, config: EngineConfig) -> Self {
        let store = WarmStore::new(config.cache_capacity, SubFrontierCache::default());
        Self::with_store(model, schedule, config, Arc::new(store))
    }

    /// Starts the worker pool parking into and warm-starting from an
    /// existing store — the multi-shard deployment shape: every shard of
    /// a `ShardedEngine` shares one, so a query's warm state is found
    /// wherever the query runs. The store's capacity governs;
    /// `config.cache_capacity` is not read.
    pub fn with_store(
        model: SharedCostModel,
        schedule: ResolutionSchedule,
        config: EngineConfig,
        store: Arc<WarmStore>,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(EngineState {
                slots: HashMap::new(),
                queue: VecDeque::new(),
                next_id: 1,
                running: 0,
                live: 0,
                retired: VecDeque::new(),
            }),
            work: Condvar::new(),
            settled: Condvar::new(),
            shutdown: AtomicBool::new(false),
            store,
            counters: CacheCounters::default(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("moqo-engine-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn engine worker")
            })
            .collect();
        Self {
            shared,
            workers,
            model,
            schedule,
            plans: PlanCache::new(),
        }
    }

    /// Admits a new interactive session with every default in place
    /// (unbounded bounds, manager-wide model and schedule).
    ///
    /// If the warm store holds a parked optimizer for an equivalent query
    /// under the same cost model, the session resumes from that warm
    /// state.
    pub fn submit(&self, spec: Arc<QuerySpec>) -> SessionId {
        self.open(SessionRequest::new(spec))
            .expect("a bare request has nothing to validate")
    }

    /// Admits a new session from a protocol request.
    ///
    /// The request may override the initial bounds, the resolution ladder
    /// (cold starts only — a warm resume keeps the parked ladder), the
    /// refinement budget, the **cost model**, and may install a
    /// [`Preference`](moqo_core::Preference) that auto-selects a plan at
    /// the target resolution. All dimensioned fields are validated
    /// against the effective model here, so a malformed request is a
    /// typed [`ProtocolError`] at the door — never a worker panic.
    pub fn open(&self, request: SessionRequest) -> Result<SessionId, ProtocolError> {
        let dim = request.effective_model(&self.model).dim();
        Ok(self.admit(request.validated(dim)?))
    }

    /// [`SessionManager::open`] for a request an outer layer already
    /// validated.
    ///
    /// # Panics
    /// Panics if the request was validated against another cost-model
    /// dimension than the one it runs under here.
    pub fn admit(&self, request: ValidRequest) -> SessionId {
        let model = request.request().effective_model(&self.model);
        assert_eq!(
            request.model_dim(),
            model.dim(),
            "request validated against another cost model"
        );
        let request = request.into_inner();
        let model_override = request.cost_model.is_some();
        let spec = request.spec.clone();
        let fp = QueryFingerprint::of(&spec, &model);
        let bounds = request
            .bounds
            .unwrap_or_else(|| Bounds::unbounded(model.dim()));
        // Resolve the shared enumeration plan outside the state lock —
        // plan construction can be expensive for wide shapes and must not
        // stall unrelated sessions. A warm hit below makes this a pointer
        // clone at worst (the shape is already cached).
        let plan = self.plans.get_or_build(&spec.graph);
        let store = &self.shared.store;
        let counters = &self.shared.counters;
        let (optimizer, harvest, warm, overridden, rebased, seeded_subsets) = match store.take(fp) {
            // Warm resumes keep the parked ladder: its plan sets are
            // level-tagged under that schedule (see [`SessionRequest`]).
            // If that ladder is not the manager-wide one — e.g. the
            // frontier was refined under a degraded admission ladder —
            // the weaker guarantee must stay visible, so the override
            // flag is set from the *effective* schedule.
            Some((opt, harvest)) => {
                count(&counters.hits);
                let nonstandard = opt.schedule() != &self.schedule;
                (opt, harvest, true, nonstandard, false, 0)
            }
            None => {
                count(&counters.misses);
                let (schedule, overridden) = match request.schedule.clone() {
                    Some(s) => (s, true),
                    None => (self.schedule.clone(), false),
                };
                let config = IamaConfig::default();
                let mut opt =
                    IamaOptimizer::with_plan(spec.clone(), model.clone(), schedule, config, plan);
                // Exact fingerprint miss. Two warm near-miss tiers before
                // cold enumeration, both seeding sub-frontier blobs that
                // are re-costed at the door, so the `alpha_T` guarantee
                // never weakens. A refused blob (a near-miss hash
                // collision or model drift) only leaves its subset cold.
                //
                // 1. **Rebase** — the blobs of a parked frontier of the
                //    same shape whose fingerprint differs only in catalog
                //    cardinalities (the hourly stats refresh).
                let mut rebased = false;
                match store.rebase_seeds(RebaseKey::of(&spec, &model)) {
                    Some(seeds) => {
                        count(&counters.rebase_hits);
                        let mut seeder = opt.seeder(SeedTier::Rebase);
                        for (_, tables, blob) in &seeds.blobs {
                            rebased |= seeder.import(*tables, blob).is_ok_and(|n| n > 0);
                        }
                    }
                    None => count(&counters.rebase_misses),
                }
                // 2. **Transplant** — per-subset blobs harvested from
                //    *different* queries sharing a join subgraph with
                //    identical induced statistics. Skipped after a
                //    successful rebase (which already seeds every
                //    harvested subset, including the full set).
                let mut seeded = 0u32;
                if !rebased {
                    let enumeration = Arc::clone(opt.enumeration());
                    let mut seeder = opt.seeder(SeedTier::Transplant);
                    for info in enumeration.subsets() {
                        let tables = info.tables;
                        if tables.len() < 2 {
                            continue;
                        }
                        let sfp = SubsetFingerprint::of(&spec, tables, &model);
                        if let Some(blob) = store.subfrontiers().get(sfp) {
                            seeded += u32::from(seeder.import(tables, &blob).is_ok_and(|n| n > 0));
                        }
                    }
                }
                (opt, None, false, overridden, rebased, seeded)
            }
        };
        let auto_ticks = request
            .auto_ticks
            .unwrap_or_else(|| match (&request.schedule, warm) {
                (Some(s), false) => s.levels(),
                _ => self.schedule.levels(),
            });
        let mut session = Session::with_bounds(optimizer, bounds);
        session
            .set_preference(request.preference.clone())
            .expect("validated against the effective model at admission");
        let mut state = self.lock();
        let id = state.next_id;
        state.next_id += 1;
        let status = SessionStatus {
            id,
            query: spec.name.clone(),
            fingerprint: fp,
            warm_start: warm,
            rebased,
            seeded_subsets,
            schedule_override: overridden,
            model_override,
            epoch: 0,
            outcome: None,
            invocations: 0,
            resolution: 0,
            bounds,
            frontier: FrontierSnapshot::default(),
            first_report: None,
            last_report: None,
        };
        state.slots.insert(
            id,
            Slot {
                cell: Cell::Idle(Box::new(Active {
                    session,
                    fingerprint: fp,
                    harvest,
                    remaining_ticks: auto_ticks,
                    auto_ticks,
                })),
                status,
                queued: false,
                inbox: VecDeque::new(),
                watchers: Vec::new(),
            },
        );
        state.live += 1;
        enqueue(&mut state, id);
        drop(state);
        self.shared.work.notify_one();
        id
    }

    /// Routes a [`SessionCommand`] into a session's inbox and wakes it.
    ///
    /// Dimensioned commands are validated against the session's cost
    /// model here, so a malformed command is a typed error at the door —
    /// it never reaches (let alone crashes) a worker. `Ok` means the
    /// command was accepted for delivery, not that it will be acted on:
    /// a command racing with the session's own completion (the user's
    /// earlier `SelectPlan` lands in the same slice) is discarded with
    /// the rest of the inbox, exactly as if it had arrived a moment
    /// later.
    pub fn command(&self, id: SessionId, command: SessionCommand) -> Result<(), ProtocolError> {
        let mut state = self.lock();
        let Some(slot) = state.slots.get_mut(&id) else {
            return Err(ProtocolError::UnknownSession);
        };
        if slot.status.is_finished() {
            return Err(ProtocolError::SessionFinished);
        }
        let dim = slot.status.bounds.dim();
        match &command {
            SessionCommand::SetBounds(b) if b.dim() != dim => {
                return Err(ProtocolError::BoundsDimensionMismatch {
                    expected: dim,
                    got: b.dim(),
                });
            }
            SessionCommand::SetPreference(Some(p)) => p.validate(dim)?,
            // A selection must name a currently *visualized* tradeoff
            // (the published frontier is exactly what the client sees).
            SessionCommand::SelectPlan(p)
                if !slot.status.frontier.points.iter().any(|pt| pt.plan == *p) =>
            {
                return Err(ProtocolError::UnknownPlan { plan: *p });
            }
            _ => {}
        }
        if matches!(slot.cell, Cell::Retired) {
            return Err(ProtocolError::SessionFinished);
        }
        // A running session finds the command when it checks back in.
        slot.inbox.push_back(command);
        enqueue(&mut state, id);
        drop(state);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Snapshot of one session's current state.
    pub fn status(&self, id: SessionId) -> Option<SessionStatus> {
        self.lock().slots.get(&id).map(|s| s.status.clone())
    }

    /// The currently visualized frontier of one session.
    pub fn frontier(&self, id: SessionId) -> Option<FrontierSnapshot> {
        self.status(id).map(|s| s.frontier)
    }

    /// Retires a session, parking its optimizer in the warm store, and
    /// returns its final status, which stays queryable through
    /// [`SessionManager::status`] like that of any ended session.
    ///
    /// Blocks while a worker holds the session, then checks it out as a
    /// worker does and runs [`SessionCommand::Cancel`] on it: watchers
    /// receive the session's terminal [`SessionEvent`] with a
    /// [`SessionOutcome::Retired`] outcome, and the park step runs with no
    /// engine lock held. A session that already ended is returned as it
    /// is, with no event.
    pub fn finish(&self, id: SessionId) -> Option<SessionStatus> {
        let mut state = self.lock();
        let mut active = loop {
            let slot = state.slots.get_mut(&id)?;
            match std::mem::replace(&mut slot.cell, Cell::Running) {
                Cell::Idle(active) => break active,
                Cell::Running => state = self.shared.settled.wait(state).expect("engine lock"),
                Cell::Retired => {
                    slot.cell = Cell::Retired;
                    return Some(slot.status.clone());
                }
            }
        };
        state.running += 1;
        drop(state);
        let event = active.session.apply(SessionCommand::Cancel).ok();
        let active = self.shared.park_if_ended(active);
        let mut state = self.lock();
        self.shared.check_in(&mut state, id, active, event);
        state.slots.get(&id).map(|s| s.status.clone())
    }

    /// Subscribes to a session's event stream.
    ///
    /// Returns a channel that receives one [`SessionEvent`] per completed
    /// slice (and a final one when the session finishes). The stream is
    /// primed immediately with a reset-delta event carrying the current
    /// full frontier, so the first `recv` never blocks on optimizer
    /// progress and a [`moqo_core::SessionView`] folded over the stream
    /// reassembles the exact server-side frontier. Returns `None` for
    /// unknown sessions. Receivers that fall behind simply buffer (the
    /// channel is unbounded but updates are slice-paced); dropped
    /// receivers are pruned on the next update.
    ///
    /// `doorbell`, if given, rings once for every event published to this
    /// channel after the prime (the terminal event included), and for no
    /// other watcher's; the prime itself is in the channel on return and
    /// rings nothing. Watching a session that already ended primes the
    /// channel with its final state and registers nothing, so its
    /// doorbell never rings.
    ///
    /// This is the non-blocking alternative to
    /// [`SessionManager::wait_idle`]: callers park on their own channel,
    /// never on the engine's internal condvar.
    pub fn watch(
        &self,
        id: SessionId,
        doorbell: Option<Doorbell>,
    ) -> Option<mpsc::Receiver<SessionEvent>> {
        let mut state = self.lock();
        let slot = state.slots.get_mut(&id)?;
        let (tx, rx) = mpsc::channel();
        let s = &slot.status;
        let prime = SessionEvent {
            epoch: s.epoch,
            delta: FrontierDelta::full(&s.frontier),
            resolution: s.resolution,
            bounds: s.bounds,
            invocations: s.invocations,
            report: s.last_report.clone(),
            first_report: s.first_report.clone(),
            outcome: s.outcome,
            coalesced: 0,
        };
        let _ = tx.send(prime);
        if s.outcome.is_none() {
            slot.watchers.push((tx, doorbell));
        }
        Some(rx)
    }

    /// Parks an optimizer directly in the warm store (the
    /// persistence-restore hook: a serving layer re-injects deserialized
    /// frontiers on startup so the first submission of a known query
    /// starts warm). The optimizer goes through the same park step as a
    /// finished session's, with a full harvest.
    pub fn park(&self, fp: QueryFingerprint, optimizer: IamaOptimizer) {
        self.shared.park(fp, optimizer, None);
    }

    /// Number of admitted, not-yet-finished sessions — the load figure
    /// admission control and shard routing balance on.
    pub fn live_sessions(&self) -> usize {
        self.lock().live
    }

    /// The manager-wide resolution ladder (sessions may override it via
    /// [`SessionRequest`]).
    pub fn schedule(&self) -> &ResolutionSchedule {
        &self.schedule
    }

    /// Shared handle to the deployment-wide default cost model.
    pub fn model(&self) -> SharedCostModel {
        self.model.clone()
    }

    /// This manager's warm-store counters: hits, misses and rebase
    /// lookups count its opens, evictions count those its parks caused,
    /// and `entries` is the whole store's (shared with any sibling
    /// managers).
    pub fn cache_stats(&self) -> CacheStats {
        let c = &self.shared.counters;
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        CacheStats {
            hits: load(&c.hits),
            misses: load(&c.misses),
            evictions: load(&c.evictions),
            entries: self.shared.store.entries(),
            rebase_hits: load(&c.rebase_hits),
            rebase_misses: load(&c.rebase_misses),
        }
    }

    /// Effectiveness counters of the shared enumeration-plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plans.stats()
    }

    /// Effectiveness counters of the sub-frontier transplant cache.
    pub fn subfrontier_stats(&self) -> SubFrontierCacheStats {
        self.shared.store.subfrontiers().stats()
    }

    /// The warm store this manager parks into and warm-starts from.
    pub fn store(&self) -> &WarmStore {
        &self.shared.store
    }

    /// Blocks until no session has runnable work and no worker holds one.
    /// Returns `false` on timeout.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if state.queue.is_empty() && state.running == 0 {
                return true;
            }
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, res) = self
                .shared
                .settled
                .wait_timeout(state, left)
                .expect("engine lock");
            state = guard;
            if res.timed_out() && !(state.queue.is_empty() && state.running == 0) {
                return false;
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, EngineState> {
        self.shared.state.lock().expect("engine lock poisoned")
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Notify while holding the state lock: a worker is either before
        // its shutdown check (sees the flag) or parked in `work.wait()`
        // (receives this wakeup) — never in between, which would lose the
        // notification and deadlock `join`.
        {
            let _guard = self.shared.state.lock().expect("engine lock poisoned");
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Puts `id` on the run queue unless it is already there.
fn enqueue(state: &mut EngineState, id: SessionId) {
    if let Some(slot) = state.slots.get_mut(&id) {
        if !slot.queued {
            slot.queued = true;
            state.queue.push_back(id);
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    let mut state = shared.state.lock().expect("engine lock poisoned");
    loop {
        // Find the next checked-in session with work, and take the
        // command it runs.
        let (id, mut active, command) = loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match state.queue.pop_front() {
                Some(id) => {
                    let Some(slot) = state.slots.get_mut(&id) else {
                        // Trimmed from the retired history meanwhile; the queue shrank,
                        // so idle-waiters must re-evaluate their predicate.
                        shared.settled.notify_all();
                        continue;
                    };
                    slot.queued = false;
                    match std::mem::replace(&mut slot.cell, Cell::Running) {
                        Cell::Idle(mut active) => {
                            let command = active.next_command(&mut slot.inbox);
                            break (id, active, command);
                        }
                        // Running entries do appear here: command()
                        // enqueues a mid-slice session so its new command
                        // is re-checked after check-in (which requeues it
                        // anyway, making this pop redundant). Retired
                        // sessions stay retired. Either way the entry is
                        // consumed without a check-in, so wake idle-waiters.
                        other => {
                            slot.cell = other;
                            shared.settled.notify_all();
                        }
                    }
                }
                None => {
                    state = shared.work.wait(state).expect("engine lock poisoned");
                }
            }
        };
        state.running += 1;
        drop(state);

        // --- Run the command outside the lock. ---
        // A protocol fault on a live session (a dimension mismatch that
        // slipped past command() — impossible today, but commands are
        // data and workers must never die on data) drops the command and
        // keeps the session.
        let event = command.and_then(|cmd| active.session.apply(cmd).ok());
        let active = shared.park_if_ended(active);
        state = shared.state.lock().expect("engine lock poisoned");
        shared.check_in(&mut state, id, active, event);
    }
}
