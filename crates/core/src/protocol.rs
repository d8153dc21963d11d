//! The session protocol — one typed vocabulary for all three serving
//! layers.
//!
//! The paper's whole contribution is an *interaction loop* (Algorithm 1):
//! optimizer invocations alternate with user events while the Pareto
//! frontier refines on screen. Every layer of this workspace runs that
//! loop — [`crate::Session`] directly, `moqo-engine`'s `SessionManager`
//! across a worker pool, `moqo-serve`'s `MoqoServer` behind tickets — and
//! this module defines the **single protocol** they all speak:
//!
//! * [`SessionRequest`] — a typed builder describing how a session should
//!   open: the query, optional initial [`Bounds`], an optional
//!   [`ResolutionSchedule`] override, an optional per-session
//!   [`SharedCostModel`] override, an optional [`Preference`] that
//!   auto-selects a plan once the target resolution is reached, and the
//!   refinement budget.
//! * [`SessionCommand`] — the inputs of Algorithm 1's lines 17–25 as one
//!   enum: `Refine`, `SetBounds`, `SetPreference`, `SelectPlan`,
//!   `Cancel`.
//! * [`SessionEvent`] — the one streamed output type. Instead of
//!   re-shipping the full frontier after every invocation, an event
//!   carries a [`FrontierDelta`] (points added/removed since the previous
//!   event on the same stream) that reassembles — exactly, order and
//!   cost bits included — to the full [`FrontierSnapshot`].
//! * [`SessionView`] — the client-side reassembler: fold events into it
//!   and read back the same state a server-side status query would
//!   return.
//! * [`AdmissionResponse`] — what a serving layer answers at submission
//!   time: admitted, admitted under a degraded ladder, queued, or
//!   rejected.
//! * [`ProtocolError`] — every way a request or command can be malformed,
//!   as data instead of a panic, so a bad client request can never crash
//!   a shard worker.

use crate::frontier::{FrontierPoint, FrontierSnapshot};
use crate::preference::Preference;
use crate::report::InvocationReport;
use moqo_cost::{Bounds, ResolutionSchedule};
use moqo_costmodel::SharedCostModel;
use moqo_plan::PlanId;
use moqo_query::QuerySpec;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Why a request, command, or event could not be honored.
///
/// Protocol errors are *client* faults (malformed weights, wrong
/// dimensions, messages to finished sessions); they are returned as
/// values so a serving layer can answer them over the wire instead of
/// panicking inside a shard worker.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolError {
    /// A weight vector's length does not match the cost-model dimension.
    WeightDimensionMismatch {
        /// The cost model's metric count.
        expected: usize,
        /// The supplied weight count.
        got: usize,
    },
    /// A bounds vector's dimension does not match the cost-model
    /// dimension.
    BoundsDimensionMismatch {
        /// The cost model's metric count.
        expected: usize,
        /// The supplied bounds dimension.
        got: usize,
    },
    /// A lexicographic preference with an empty priority order.
    EmptyPreferenceOrder,
    /// A preference carries a non-finite weight or tolerance (NaN or
    /// infinite values would poison every score comparison).
    NonFinitePreference,
    /// A preference references a metric index outside the model.
    MetricOutOfRange {
        /// The offending metric index.
        metric: usize,
        /// The cost model's metric count.
        dim: usize,
    },
    /// A `SelectPlan` command references a plan the session has never
    /// generated.
    UnknownPlan {
        /// The unknown plan id.
        plan: PlanId,
    },
    /// The session already finished (a plan was selected or it was
    /// cancelled); no further commands are accepted.
    SessionFinished,
    /// The addressed session does not exist (or was evicted from the
    /// bounded retirement history).
    UnknownSession,
    /// A [`SessionEvent`] arrived out of order on a delta stream: its
    /// epoch is not the successor of the view's epoch and it does not
    /// carry a reset delta.
    EpochGap {
        /// The epoch the view last applied.
        have: u64,
        /// The epoch of the rejected event.
        got: u64,
    },
    /// A wire request referenced a per-session cost model by an identity
    /// the server's model registry does not know. Cost models are code,
    /// not data: the wire codec ships only
    /// [`CostModel::identity`](moqo_costmodel::CostModel::identity), and
    /// an unresolvable identity is answered with this typed error instead
    /// of silently optimizing under the wrong cost semantics.
    UnknownCostModel {
        /// The unresolvable model identity.
        identity: u64,
    },
    /// The query's join graph is disconnected. The optimizer plans no
    /// cross products, so no complete plan exists and every invocation
    /// would return an empty frontier.
    DisconnectedJoinGraph,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::WeightDimensionMismatch { expected, got } => {
                write!(
                    f,
                    "preference has {got} weights, cost model has {expected} metrics"
                )
            }
            ProtocolError::BoundsDimensionMismatch { expected, got } => {
                write!(
                    f,
                    "bounds have dimension {got}, cost model has {expected} metrics"
                )
            }
            ProtocolError::EmptyPreferenceOrder => {
                write!(f, "lexicographic preference order must be non-empty")
            }
            ProtocolError::NonFinitePreference => {
                write!(f, "preference weights and tolerance must be finite")
            }
            ProtocolError::MetricOutOfRange { metric, dim } => {
                write!(
                    f,
                    "preference references metric {metric}, cost model has {dim}"
                )
            }
            ProtocolError::UnknownPlan { plan } => {
                write!(f, "plan {plan:?} was never generated by this session")
            }
            ProtocolError::SessionFinished => write!(f, "session already finished"),
            ProtocolError::UnknownSession => write!(f, "unknown session"),
            ProtocolError::EpochGap { have, got } => {
                write!(f, "event epoch {got} does not follow view epoch {have}")
            }
            ProtocolError::UnknownCostModel { identity } => {
                write!(f, "no registered cost model has identity {identity:#018x}")
            }
            ProtocolError::DisconnectedJoinGraph => {
                write!(
                    f,
                    "join graph is disconnected: cross products are not planned"
                )
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// How a session should open, expressed once for every layer.
///
/// Build one with [`SessionRequest::new`] and the `with_*` methods, then
/// hand it to [`crate::Session::open`], `SessionManager::open`,
/// `ShardedEngine::submit`, or `MoqoServer::submit` — the same request
/// type drives all of them.
///
/// Everything except the query is optional; a layer fills the gaps from
/// its deployment defaults. The cost-model override is what gives one
/// `SessionManager` *per-session cost models*: the session's
/// fingerprint embeds the model's [identity](moqo_costmodel::CostModel::identity),
/// so warm-frontier caches and snapshot stores can never leak state
/// across models.
#[derive(Clone)]
pub struct SessionRequest {
    /// The query to optimize.
    pub spec: Arc<QuerySpec>,
    /// Initial cost bounds; `None` means unbounded.
    pub bounds: Option<Bounds>,
    /// Resolution-ladder override (cold starts only — a warm resume keeps
    /// the ladder its parked frontier was refined under).
    pub schedule: Option<ResolutionSchedule>,
    /// Per-session cost model replacing the deployment-wide one.
    pub cost_model: Option<SharedCostModel>,
    /// Auto-select a plan under this preference once the target
    /// resolution is reached, instead of requiring a
    /// [`SessionCommand::SelectPlan`] round-trip.
    pub preference: Option<Preference>,
    /// Refinement invocations the session may run without input before
    /// parking; `None` derives one full ladder.
    pub auto_ticks: Option<usize>,
}

impl fmt::Debug for SessionRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionRequest")
            .field("spec", &self.spec.name)
            .field("bounds", &self.bounds.is_some())
            .field("schedule", &self.schedule.is_some())
            .field("cost_model", &self.cost_model.is_some())
            .field("preference", &self.preference)
            .field("auto_ticks", &self.auto_ticks)
            .finish()
    }
}

impl SessionRequest {
    /// A request with every layer default in place.
    pub fn new(spec: Arc<QuerySpec>) -> Self {
        Self {
            spec,
            bounds: None,
            schedule: None,
            cost_model: None,
            preference: None,
            auto_ticks: None,
        }
    }

    /// Sets the initial cost bounds.
    pub fn with_bounds(mut self, bounds: Bounds) -> Self {
        self.bounds = Some(bounds);
        self
    }

    /// Overrides the resolution ladder (cold starts only).
    pub fn with_schedule(mut self, schedule: ResolutionSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Overrides the cost model for this session.
    pub fn with_cost_model(mut self, model: SharedCostModel) -> Self {
        self.cost_model = Some(model);
        self
    }

    /// Auto-selects a plan under `preference` once the target resolution
    /// is reached.
    pub fn with_preference(mut self, preference: Preference) -> Self {
        self.preference = Some(preference);
        self
    }

    /// Sets the refinement budget (invocations without input).
    pub fn with_auto_ticks(mut self, ticks: usize) -> Self {
        self.auto_ticks = Some(ticks);
        self
    }

    /// The cost model this request runs under, given the layer default.
    pub fn effective_model(&self, default: &SharedCostModel) -> SharedCostModel {
        self.cost_model.clone().unwrap_or_else(|| default.clone())
    }

    /// [`SessionRequest::validate`]s the request and wraps it as the
    /// proof an inner layer admits without checking again.
    pub fn validated(self, model_dim: usize) -> Result<ValidRequest, ProtocolError> {
        self.validate(model_dim)?;
        Ok(ValidRequest {
            request: self,
            model_dim,
        })
    }

    /// Checks that the query's join graph is connected and every
    /// dimensioned field matches the effective cost model.
    ///
    /// The outermost layer a request enters calls this once at admission
    /// (through [`SessionRequest::validated`]); afterwards no command
    /// derived from the request can fault inside a worker, and no
    /// admitted session runs a ladder that can never produce a plan.
    pub fn validate(&self, model_dim: usize) -> Result<(), ProtocolError> {
        if !self.spec.graph.is_connected() {
            return Err(ProtocolError::DisconnectedJoinGraph);
        }
        if let Some(b) = &self.bounds {
            if b.dim() != model_dim {
                return Err(ProtocolError::BoundsDimensionMismatch {
                    expected: model_dim,
                    got: b.dim(),
                });
            }
        }
        if let Some(p) = &self.preference {
            p.validate(model_dim)?;
        }
        Ok(())
    }
}

/// A [`SessionRequest`] that passed [`SessionRequest::validate`]. Only
/// [`SessionRequest::validated`] builds one, so the outermost door of a
/// serving path validates each request once and the layers behind it
/// take this instead of checking again.
#[derive(Clone, Debug)]
pub struct ValidRequest {
    request: SessionRequest,
    /// The cost-model dimension the request was validated against.
    model_dim: usize,
}

impl ValidRequest {
    /// The validated request.
    pub fn request(&self) -> &SessionRequest {
        &self.request
    }

    /// The cost-model dimension the request was validated against.
    pub fn model_dim(&self) -> usize {
        self.model_dim
    }

    /// Overrides the resolution ladder, which validation does not read.
    pub fn with_schedule(self, schedule: ResolutionSchedule) -> Self {
        Self {
            request: self.request.with_schedule(schedule),
            ..self
        }
    }

    /// Unwraps the request.
    pub fn into_inner(self) -> SessionRequest {
        self.request
    }
}

impl From<Arc<QuerySpec>> for SessionRequest {
    fn from(spec: Arc<QuerySpec>) -> Self {
        SessionRequest::new(spec)
    }
}

/// User (or client) input arriving between optimizer invocations —
/// Algorithm 1 lines 17–25, spoken identically by all layers.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionCommand {
    /// No input: run one invocation and refine the resolution by one
    /// level.
    Refine,
    /// Drag the cost bounds: the focus changes, the resolution resets to
    /// 0, and one invocation runs at the new focus.
    SetBounds(Bounds),
    /// Install (or clear) the auto-select preference, then run one
    /// invocation; if the ladder is already saturated the preference
    /// fires immediately.
    SetPreference(Option<Preference>),
    /// Click a visualized tradeoff: optimization ends and the chosen plan
    /// is returned for execution.
    SelectPlan(PlanId),
    /// End the session without a selection (the frontier parks for future
    /// warm starts at serving layers).
    Cancel,
}

/// How a session ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// A plan was chosen for execution.
    Selected {
        /// The chosen plan.
        plan: PlanId,
        /// True if the request's [`Preference`] chose it automatically at
        /// the target resolution, false for an explicit
        /// [`SessionCommand::SelectPlan`].
        by_preference: bool,
    },
    /// The session was cancelled or retired without a selection.
    Retired,
}

impl SessionOutcome {
    /// The selected plan, if one was chosen.
    pub fn selected(&self) -> Option<PlanId> {
        match self {
            SessionOutcome::Selected { plan, .. } => Some(*plan),
            SessionOutcome::Retired => None,
        }
    }
}

/// The change of a visualized frontier between two consecutive events of
/// one stream.
///
/// Deltas exist so a slice-paced stream does not re-ship the full
/// frontier after every invocation: during pure refinement the result set
/// only grows, so a delta is just the appended points. The construction
/// in [`FrontierDelta::between`] guarantees **exact** reassembly — order
/// and cost bits included — falling back to a `reset` carrying the full
/// snapshot whenever the change cannot be expressed as
/// "remove these, append those".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrontierDelta {
    /// True if the receiver must discard its snapshot before applying
    /// (stream start, refocus, or an inexpressible reordering).
    pub reset: bool,
    /// Plans removed from the snapshot (empty when `reset`).
    pub removed: Vec<PlanId>,
    /// Points appended to the snapshot (the full frontier when `reset`).
    pub added: Vec<FrontierPoint>,
}

impl FrontierDelta {
    /// A reset delta carrying the full snapshot.
    pub fn full(snapshot: &FrontierSnapshot) -> Self {
        Self {
            reset: true,
            removed: Vec::new(),
            added: snapshot.points.clone(),
        }
    }

    /// The delta from `old` to `new`, such that applying it to `old`
    /// reproduces `new` exactly (same order, same bits).
    pub fn between(old: &FrontierSnapshot, new: &FrontierSnapshot) -> Self {
        // Index the new snapshot by plan id; duplicate ids (impossible for
        // well-formed result sets, but never trust it) force a reset.
        let mut by_plan: HashMap<PlanId, &FrontierPoint> = HashMap::with_capacity(new.points.len());
        for p in &new.points {
            if by_plan.insert(p.plan, p).is_some() {
                return Self::full(new);
            }
        }
        // Survivors: old points present in new with identical cost bits,
        // in old order. The delta is expressible iff they form a prefix
        // of the new snapshot in the same order.
        let mut removed = Vec::new();
        let mut survivors = 0usize;
        for p in &old.points {
            match by_plan.get(&p.plan) {
                Some(n) if p.bits_eq(n) => match new.points.get(survivors) {
                    Some(expect) if p.bits_eq(expect) => survivors += 1,
                    _ => return Self::full(new),
                },
                _ => removed.push(p.plan),
            }
        }
        Self {
            reset: false,
            removed,
            added: new.points[survivors..].to_vec(),
        }
    }

    /// Composes `next` onto `self`: applying the result to a snapshot
    /// equals applying `self` then `next`. This is how slice-paced
    /// streams aggregate per-invocation deltas into one published event
    /// without recomputing a full-frontier diff.
    pub fn then(mut self, next: &FrontierDelta) -> FrontierDelta {
        if next.reset {
            return next.clone();
        }
        if !next.removed.is_empty() {
            // Points this delta appended and the next one removed cancel;
            // removals of base points accumulate.
            self.added.retain(|p| !next.removed.contains(&p.plan));
            for plan in &next.removed {
                if !self.removed.contains(plan) {
                    self.removed.push(*plan);
                }
            }
        }
        self.added.extend(next.added.iter().copied());
        self
    }

    /// Applies the delta to a snapshot in place.
    pub fn apply(&self, snapshot: &mut FrontierSnapshot) {
        if self.reset {
            snapshot.points.clear();
        } else if !self.removed.is_empty() {
            snapshot.points.retain(|p| !self.removed.contains(&p.plan));
        }
        snapshot.points.extend(self.added.iter().copied());
    }

    /// Number of points the delta ships (the stream-economy figure:
    /// compare against the full frontier size).
    pub fn shipped_points(&self) -> usize {
        self.added.len()
    }

    /// True if the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        !self.reset && self.removed.is_empty() && self.added.is_empty()
    }
}

/// One streamed session update — what [`crate::Session::apply`] returns,
/// what `SessionManager::watch` channels deliver per slice, and what
/// `MoqoServer::recv` hands to ticket holders.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionEvent {
    /// Monotone emission counter within the emitting stream; deltas apply
    /// in epoch order.
    pub epoch: u64,
    /// Frontier change since the previous event on this stream
    /// (`delta.reset` on stream priming and refocusing).
    pub delta: FrontierDelta,
    /// Resolution level the next invocation will use.
    pub resolution: usize,
    /// The session's current cost bounds.
    pub bounds: Bounds,
    /// Invocations run so far in this session.
    pub invocations: u64,
    /// Report of the most recent invocation covered by this event, if one
    /// ran.
    pub report: Option<InvocationReport>,
    /// Report of the session's *first* invocation; present on the event
    /// that covers it (warm-start evidence: `plans_generated == 0`).
    pub first_report: Option<InvocationReport>,
    /// Terminal state, present once on the stream's final event.
    pub outcome: Option<SessionOutcome>,
    /// Number of *extra* source events merged into this one by
    /// [`coalesce`](SessionEvent::coalesce) — `0` for an event straight
    /// off a session stream. A receiver at epoch `k` accepts a
    /// coalesced event at epoch `k + 1 + coalesced`: the event covers
    /// that whole epoch range, so the gap is accounted for, not lost.
    pub coalesced: u64,
}

impl SessionEvent {
    /// True if this is the stream's final event.
    pub fn is_final(&self) -> bool {
        self.outcome.is_some()
    }

    /// Merges `next` (the later event) onto `self`: folding the result
    /// into a [`SessionView`] leaves the view **bits-equal** to folding
    /// `self` then `next`. This is the serving front's backpressure
    /// valve — N pending events for a slow reader collapse into one
    /// frame instead of buffering N.
    ///
    /// Scalar state (epoch, resolution, bounds, invocations) comes from
    /// `next`; deltas compose via [`FrontierDelta::then`]; `report`
    /// keeps the latest observation while `first_report` keeps the
    /// earliest; [`coalesced`](SessionEvent::coalesced) accounts for
    /// the covered epoch range so the receiver's gap check still holds.
    pub fn coalesce(self, next: &SessionEvent) -> SessionEvent {
        SessionEvent {
            epoch: next.epoch,
            delta: self.delta.then(&next.delta),
            resolution: next.resolution,
            bounds: next.bounds,
            invocations: next.invocations,
            report: next.report.clone().or(self.report),
            first_report: self.first_report.or_else(|| next.first_report.clone()),
            outcome: next.outcome.or(self.outcome),
            coalesced: self.coalesced + 1 + next.coalesced,
        }
    }
}

/// Client-side reassembly of a [`SessionEvent`] stream: fold events in
/// with [`SessionView::fold`] and read the same state a server-side
/// status query would return — including the **exact** full
/// [`FrontierSnapshot`], rebuilt from deltas.
#[derive(Clone, Debug, Default)]
pub struct SessionView {
    /// Epoch of the last applied event.
    pub epoch: u64,
    /// The reassembled frontier.
    pub frontier: FrontierSnapshot,
    /// Resolution level the next invocation will use.
    pub resolution: usize,
    /// Current cost bounds (`None` until the first event arrives).
    pub bounds: Option<Bounds>,
    /// Invocations run so far.
    pub invocations: u64,
    /// Report of the session's first invocation, once observed.
    pub first_report: Option<InvocationReport>,
    /// Report of the most recent invocation, once observed.
    pub last_report: Option<InvocationReport>,
    /// Terminal state, once observed.
    pub outcome: Option<SessionOutcome>,
}

impl SessionView {
    /// Applies one event. Events must arrive in epoch order; a gap
    /// without a reset delta is rejected (the view would silently
    /// diverge from the server otherwise) — except the gap a
    /// [coalesced](SessionEvent::coalesce) event declares, which is
    /// covered by its merged delta: an event at epoch
    /// `self.epoch + 1 + coalesced` is contiguous. This also covers a
    /// fresh view joining mid-stream: it must start from a reset-delta
    /// event (every stream primes with one), not a live delta.
    pub fn fold(&mut self, event: &SessionEvent) -> Result<(), ProtocolError> {
        if !event.delta.reset && event.epoch != self.epoch + 1 + event.coalesced {
            return Err(ProtocolError::EpochGap {
                have: self.epoch,
                got: event.epoch,
            });
        }
        event.delta.apply(&mut self.frontier);
        self.epoch = event.epoch;
        self.resolution = event.resolution;
        self.bounds = Some(event.bounds);
        self.invocations = event.invocations;
        if let Some(r) = &event.report {
            self.last_report = Some(r.clone());
        }
        if self.first_report.is_none() {
            if let Some(r) = &event.first_report {
                self.first_report = Some(r.clone());
            }
        }
        if let Some(o) = &event.outcome {
            self.outcome = Some(*o);
        }
        Ok(())
    }

    /// True once the stream delivered its final event.
    pub fn is_finished(&self) -> bool {
        self.outcome.is_some()
    }

    /// The selected plan, if the session ended with one.
    pub fn selected(&self) -> Option<PlanId> {
        self.outcome.and_then(|o| o.selected())
    }
}

/// Why a submission was turned away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Live sessions at (or above) the admission bound and the policy
    /// sheds load.
    Overloaded {
        /// Live sessions observed at decision time.
        live: usize,
    },
    /// The bounded pending queue is full.
    QueueFull {
        /// The configured queue depth.
        depth: usize,
    },
}

/// A serving layer's protocol-level answer to a [`SessionRequest`].
///
/// Layers without admission control (the core [`crate::Session`], a bare
/// `SessionManager`) always answer [`AdmissionResponse::Admitted`]; the
/// admission-controlled front answers all four.
#[derive(Clone, Debug, PartialEq)]
pub enum AdmissionResponse {
    /// Admitted at full resolution.
    Admitted,
    /// Admitted, but under a coarser resolution ladder (the overload
    /// degrade policy).
    Degraded {
        /// The ladder the session actually runs.
        schedule: ResolutionSchedule,
    },
    /// Parked in the bounded pending queue; admits as capacity frees.
    Queued {
        /// 0-based position in the pending queue at enqueue time.
        position: usize,
    },
    /// Turned away.
    Rejected(RejectReason),
}

impl AdmissionResponse {
    /// True if the session is live (admitted now, full or degraded).
    pub fn is_admitted(&self) -> bool {
        matches!(
            self,
            AdmissionResponse::Admitted | AdmissionResponse::Degraded { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_cost::CostVector;
    use proptest::prelude::*;

    fn pt(plan: u32, cost: &[f64]) -> FrontierPoint {
        FrontierPoint {
            plan: PlanId(plan),
            cost: CostVector::new(cost),
        }
    }

    fn snap(points: &[(u32, [f64; 2])]) -> FrontierSnapshot {
        FrontierSnapshot::new(points.iter().map(|(p, c)| pt(*p, c)).collect())
    }

    fn assert_exact(a: &FrontierSnapshot, b: &FrontierSnapshot) {
        assert!(a.bits_eq(b), "{a:?} != {b:?}");
    }

    #[test]
    fn append_only_refinement_ships_only_new_points() {
        let old = snap(&[(0, [1.0, 9.0]), (1, [4.0, 4.0])]);
        let new = snap(&[(0, [1.0, 9.0]), (1, [4.0, 4.0]), (2, [9.0, 1.0])]);
        let d = FrontierDelta::between(&old, &new);
        assert!(!d.reset);
        assert!(d.removed.is_empty());
        assert_eq!(d.shipped_points(), 1);
        let mut rebuilt = old.clone();
        d.apply(&mut rebuilt);
        assert_exact(&rebuilt, &new);
    }

    #[test]
    fn removals_and_appends_reassemble_exactly() {
        let old = snap(&[(0, [1.0, 9.0]), (1, [4.0, 4.0]), (2, [9.0, 1.0])]);
        let new = snap(&[(0, [1.0, 9.0]), (2, [9.0, 1.0]), (7, [2.0, 2.0])]);
        // Old order 0,2 survives as a prefix of new? new = [0, 2, 7]:
        // survivors in old order are 0,2 — a prefix. Expressible.
        let d = FrontierDelta::between(&old, &new);
        assert!(!d.reset);
        assert_eq!(d.removed, vec![PlanId(1)]);
        assert_eq!(d.shipped_points(), 1);
        let mut rebuilt = old.clone();
        d.apply(&mut rebuilt);
        assert_exact(&rebuilt, &new);
    }

    #[test]
    fn reorderings_fall_back_to_a_reset_but_stay_exact() {
        let old = snap(&[(0, [1.0, 9.0]), (1, [4.0, 4.0])]);
        let new = snap(&[(1, [4.0, 4.0]), (0, [1.0, 9.0])]);
        let d = FrontierDelta::between(&old, &new);
        assert!(d.reset);
        let mut rebuilt = old.clone();
        d.apply(&mut rebuilt);
        assert_exact(&rebuilt, &new);
    }

    #[test]
    fn cost_changes_are_not_silently_kept() {
        let old = snap(&[(0, [1.0, 9.0])]);
        let new = snap(&[(0, [1.5, 9.0])]);
        let d = FrontierDelta::between(&old, &new);
        let mut rebuilt = old.clone();
        d.apply(&mut rebuilt);
        assert_exact(&rebuilt, &new);
    }

    #[test]
    fn view_rejects_epoch_gaps_without_reset() {
        let mut view = SessionView::default();
        let base = SessionEvent {
            epoch: 1,
            delta: FrontierDelta::full(&snap(&[(0, [1.0, 2.0])])),
            resolution: 1,
            bounds: Bounds::unbounded(2),
            invocations: 1,
            report: None,
            first_report: None,
            outcome: None,
            coalesced: 0,
        };
        view.fold(&base).unwrap();
        let gap = SessionEvent {
            epoch: 3,
            delta: FrontierDelta::default(),
            ..base.clone()
        };
        assert_eq!(
            view.fold(&gap),
            Err(ProtocolError::EpochGap { have: 1, got: 3 })
        );
        // A reset delta re-synchronizes regardless of epoch.
        let resync = SessionEvent {
            epoch: 9,
            delta: FrontierDelta::full(&snap(&[(5, [3.0, 3.0])])),
            ..base
        };
        view.fold(&resync).unwrap();
        assert_eq!(view.epoch, 9);
        assert_eq!(view.frontier.points[0].plan, PlanId(5));
    }

    #[test]
    fn coalesced_events_cover_their_epoch_gap_exactly() {
        let prime = SessionEvent {
            epoch: 1,
            delta: FrontierDelta::full(&snap(&[(0, [1.0, 2.0])])),
            resolution: 1,
            bounds: Bounds::unbounded(2),
            invocations: 1,
            report: None,
            first_report: None,
            outcome: None,
            coalesced: 0,
        };
        let e2 = SessionEvent {
            epoch: 2,
            delta: FrontierDelta {
                reset: false,
                removed: vec![],
                added: vec![pt(1, &[4.0, 1.0])],
            },
            invocations: 2,
            ..prime.clone()
        };
        let e3 = SessionEvent {
            epoch: 3,
            delta: FrontierDelta {
                reset: false,
                removed: vec![PlanId(0)],
                added: vec![pt(2, &[0.5, 0.5])],
            },
            invocations: 3,
            ..prime.clone()
        };
        // One at a time.
        let mut slow = SessionView::default();
        for e in [&prime, &e2, &e3] {
            slow.fold(e).unwrap();
        }
        // Coalesced: the merged event declares the gap it covers, so
        // the fold accepts it; a raw gap of the same size is rejected.
        let merged = e2.clone().coalesce(&e3);
        assert_eq!(merged.coalesced, 1);
        let mut fast = SessionView::default();
        fast.fold(&prime).unwrap();
        let raw_gap = SessionEvent {
            coalesced: 0,
            ..merged.clone()
        };
        assert_eq!(
            fast.fold(&raw_gap),
            Err(ProtocolError::EpochGap { have: 1, got: 3 })
        );
        fast.fold(&merged).unwrap();
        assert_eq!(fast.epoch, slow.epoch);
        assert_eq!(fast.invocations, slow.invocations);
        assert!(fast.frontier.bits_eq(&slow.frontier));
    }

    #[test]
    fn request_validation_catches_malformed_dimensions() {
        let spec = Arc::new(moqo_query::testkit::chain_query(2, 10_000));
        let bad_bounds = SessionRequest::new(spec.clone()).with_bounds(Bounds::unbounded(2));
        assert_eq!(
            bad_bounds.validate(3),
            Err(ProtocolError::BoundsDimensionMismatch {
                expected: 3,
                got: 2
            })
        );
        let bad_pref = SessionRequest::new(spec.clone())
            .with_preference(Preference::WeightedSum(vec![1.0, 1.0]));
        assert_eq!(
            bad_pref.validate(3),
            Err(ProtocolError::WeightDimensionMismatch {
                expected: 3,
                got: 2
            })
        );
        let ok = SessionRequest::new(spec)
            .with_bounds(Bounds::unbounded(3))
            .with_preference(Preference::Chebyshev(vec![1.0; 3]));
        assert!(ok.validate(3).is_ok());
        // The proof carries the dimension it was validated against.
        assert!(bad_bounds.validated(3).is_err());
        assert_eq!(ok.validated(3).map(|v| v.model_dim()), Ok(3));
    }

    #[test]
    fn request_validation_refuses_disconnected_join_graphs() {
        let mut spec = moqo_query::testkit::chain_query(3, 10_000);
        spec.graph.edges.retain(|e| e.left != 0 && e.right != 0);
        let disconnected = SessionRequest::new(Arc::new(spec));
        assert_eq!(
            disconnected.validate(3),
            Err(ProtocolError::DisconnectedJoinGraph)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any chain of snapshots — growth, shrinkage, reorder, cost
        /// drift — reassembles exactly through deltas.
        #[test]
        fn delta_streams_reassemble_exactly(
            chain in proptest::collection::vec(
                proptest::collection::vec((0u32..24, 0u64..4, 0u64..4), 0..16),
                1..8,
            ),
        ) {
            let snapshots: Vec<FrontierSnapshot> = chain
                .iter()
                .map(|pts| {
                    // Dedup plan ids within one snapshot (well-formed
                    // result sets have unique plans).
                    let mut seen = std::collections::HashSet::new();
                    FrontierSnapshot::new(
                        pts.iter()
                            .filter(|(p, _, _)| seen.insert(*p))
                            .map(|(p, a, b)| pt(*p, &[*a as f64, *b as f64]))
                            .collect(),
                    )
                })
                .collect();
            // Stream: prime with a full delta, then pairwise deltas.
            let mut view = FrontierSnapshot::default();
            FrontierDelta::full(&snapshots[0]).apply(&mut view);
            assert_exact(&view, &snapshots[0]);
            for w in snapshots.windows(2) {
                let d = FrontierDelta::between(&w[0], &w[1]);
                d.apply(&mut view);
                assert_exact(&view, &w[1]);
            }
            // Composition (the slice-aggregation path): folding every
            // pairwise delta into one composed delta and applying it
            // once must land on the same final snapshot.
            let mut composed = FrontierDelta::full(&snapshots[0]);
            for w in snapshots.windows(2) {
                composed = composed.then(&FrontierDelta::between(&w[0], &w[1]));
            }
            let mut one_shot = FrontierSnapshot::default();
            composed.apply(&mut one_shot);
            assert_exact(&one_shot, snapshots.last().unwrap());
        }
    }
}
