//! The interactive main control loop — Algorithm 1 of the paper, spoken
//! in the [session protocol](crate::protocol).
//!
//! One [`SessionCommand`] is one iteration of Algorithm 1: the command is
//! applied to the optimization focus (lines 17–25), one incremental
//! invocation runs at that focus (lines 13–14), and the resulting
//! [`SessionEvent`] carries the visualization (line 15) as a
//! [`FrontierDelta`] against the previous event. The same command/event
//! vocabulary drives `moqo-engine`'s `SessionManager` and `moqo-serve`'s
//! `MoqoServer`.

use crate::frontier::FrontierSnapshot;
use crate::optimizer::IamaOptimizer;
use crate::preference::Preference;
use crate::protocol::{
    FrontierDelta, ProtocolError, SessionCommand, SessionEvent, SessionOutcome, SessionRequest,
};
use crate::report::InvocationReport;
use moqo_cost::{Bounds, ResolutionSchedule};
use moqo_costmodel::SharedCostModel;

/// The interactive MOQO session: owns the optimizer state, the current
/// bounds, resolution, and auto-select preference, and advances them one
/// [`SessionCommand`] at a time.
///
/// Usage mirrors Figure 1: apply [`SessionCommand::Refine`] to let the
/// approximation refine, [`SessionCommand::SetBounds`] when the user
/// drags a bound, and [`SessionCommand::SelectPlan`] to finish — or open
/// the session with a [`Preference`] and let it select automatically at
/// the target resolution.
///
/// ```
/// use moqo_core::{Session, SessionCommand, SessionRequest};
/// use moqo_cost::ResolutionSchedule;
/// use moqo_costmodel::{SharedCostModel, StandardCostModel};
/// use moqo_query::testkit;
/// use std::sync::Arc;
///
/// let model: SharedCostModel = Arc::new(StandardCostModel::paper_metrics());
/// let request = SessionRequest::new(Arc::new(testkit::chain_query(2, 20_000)));
/// let mut session =
///     Session::open(request, model, ResolutionSchedule::linear(2, 1.1, 0.4)).unwrap();
/// let event = session.apply(SessionCommand::Refine).unwrap();
/// // The user clicks the fastest visualized tradeoff.
/// let choice = session.frontier().min_by_metric(0).unwrap().plan;
/// let fin = session.apply(SessionCommand::SelectPlan(choice)).unwrap();
/// assert_eq!(fin.outcome.unwrap().selected(), Some(choice));
/// // The first event ships every frontier point as its delta.
/// assert_eq!(event.delta.shipped_points(), session.frontier().len());
/// ```
pub struct Session {
    optimizer: IamaOptimizer,
    bounds: Bounds,
    resolution: usize,
    preference: Option<Preference>,
    /// The frontier as of the last emitted event (delta base).
    frontier: FrontierSnapshot,
    epoch: u64,
    invocations: u64,
    finished: bool,
}

impl Session {
    /// Opens a session from a protocol request, filling unset fields from
    /// the given deployment defaults.
    ///
    /// The request's cost-model and schedule overrides win over the
    /// defaults; bounds and preference are validated against the
    /// effective model before any optimizer state is built.
    pub fn open(
        request: SessionRequest,
        default_model: SharedCostModel,
        default_schedule: ResolutionSchedule,
    ) -> Result<Self, ProtocolError> {
        let model = request.effective_model(&default_model);
        request.validate(model.dim())?;
        let schedule = request.schedule.clone().unwrap_or(default_schedule);
        let bounds = request
            .bounds
            .unwrap_or_else(|| Bounds::unbounded(model.dim()));
        let optimizer = IamaOptimizer::new(request.spec.clone(), model, schedule);
        let mut session = Self::with_bounds(optimizer, bounds);
        session.preference = request.preference;
        Ok(session)
    }

    /// Starts a session over an existing optimizer with default
    /// (unbounded) cost bounds — the warm-resume hook serving layers use
    /// when a parked optimizer comes out of a frontier cache.
    pub fn new(optimizer: IamaOptimizer) -> Self {
        let b = Bounds::unbounded(optimizer.model_dim());
        Self::with_bounds(optimizer, b)
    }

    /// Starts a session over an existing optimizer with explicit initial
    /// bounds.
    pub fn with_bounds(optimizer: IamaOptimizer, bounds: Bounds) -> Self {
        Self {
            optimizer,
            bounds,
            resolution: 0,
            preference: None,
            frontier: FrontierSnapshot::default(),
            epoch: 0,
            invocations: 0,
            finished: false,
        }
    }

    /// The current cost bounds.
    pub fn bounds(&self) -> &Bounds {
        &self.bounds
    }

    /// The resolution the next invocation will use.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// The currently visualized frontier (as of the last emitted event).
    pub fn frontier(&self) -> &FrontierSnapshot {
        &self.frontier
    }

    /// The installed auto-select preference, if any.
    pub fn preference(&self) -> Option<&Preference> {
        self.preference.as_ref()
    }

    /// Installs (or clears) the auto-select preference without running an
    /// invocation — the admission-time hook; mid-session use
    /// [`SessionCommand::SetPreference`].
    pub fn set_preference(&mut self, p: Option<Preference>) -> Result<(), ProtocolError> {
        if let Some(pref) = &p {
            pref.validate(self.optimizer.model_dim())?;
        }
        self.preference = p;
        Ok(())
    }

    /// Invocations run so far in this session.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Epoch of the last emitted event.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Access to the underlying optimizer (stats, arena, frontier).
    pub fn optimizer(&self) -> &IamaOptimizer {
        &self.optimizer
    }

    /// Dissolves the session, handing back the optimizer with all its
    /// accumulated plan sets — the hook a serving layer uses to recycle a
    /// finished session's state into a warm-frontier cache.
    pub fn into_optimizer(self) -> IamaOptimizer {
        self.optimizer
    }

    /// True once the session ended (plan selected or cancelled).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// One iteration of the main control loop: apply the command to the
    /// optimization focus, run one incremental invocation at that focus,
    /// and emit the event (with the frontier delta since the previous
    /// event).
    ///
    /// [`SessionCommand::SelectPlan`] and [`SessionCommand::Cancel`] are
    /// terminal and run no invocation. If a [`Preference`] is installed
    /// and the invocation ran at the ladder's target resolution, the
    /// preference picks a plan from the bounded frontier and the event
    /// carries a [`SessionOutcome::Selected`] with `by_preference`.
    ///
    /// Errors are protocol errors — malformed dimensions or commands to a
    /// finished session — and leave the session state untouched.
    pub fn apply(&mut self, command: SessionCommand) -> Result<SessionEvent, ProtocolError> {
        if self.finished {
            return Err(ProtocolError::SessionFinished);
        }
        match command {
            SessionCommand::SelectPlan(plan) => {
                // The plan must exist in this session's arena — a made-up
                // id, or the id of an alternative `Prune` discarded (it
                // holds no node), is client data, not a reason to hand
                // back a plan that `explain`/execution cannot read.
                if self.optimizer.arena().get(plan).is_none() {
                    return Err(ProtocolError::UnknownPlan { plan });
                }
                return Ok(self.finish(SessionOutcome::Selected {
                    plan,
                    by_preference: false,
                }));
            }
            SessionCommand::Cancel => {
                return Ok(self.finish(SessionOutcome::Retired));
            }
            SessionCommand::SetBounds(b) => {
                if b.dim() != self.bounds.dim() {
                    return Err(ProtocolError::BoundsDimensionMismatch {
                        expected: self.bounds.dim(),
                        got: b.dim(),
                    });
                }
                // Optimization focus changes; the resolution resets to 0
                // (Algorithm 1 lines 19-21).
                self.bounds = b;
                self.resolution = 0;
            }
            SessionCommand::SetPreference(p) => {
                self.set_preference(p)?;
            }
            SessionCommand::Refine => {}
        }
        // Lines 13-15: generate more plans at the current focus,
        // visualize known plans.
        let report = self.optimizer.optimize(&self.bounds, self.resolution);
        let next = self.optimizer.frontier(&self.bounds, self.resolution);
        let at_target = self.resolution >= self.optimizer.schedule().r_max();
        self.resolution = (self.resolution + 1).min(self.optimizer.schedule().r_max());
        self.invocations += 1;
        let delta = FrontierDelta::between(&self.frontier, &next);
        self.frontier = next;
        self.epoch += 1;
        // The target resolution is reached: a stated preference selects a
        // plan automatically — the paper's contrast to the one-shot
        // scheme, available without a SelectPlan round-trip.
        let outcome = match (&self.preference, at_target) {
            (Some(pref), true) => {
                pref.select(&self.frontier, &self.bounds)?
                    .map(|point| SessionOutcome::Selected {
                        plan: point.plan,
                        by_preference: true,
                    })
            }
            _ => None,
        };
        if outcome.is_some() {
            self.finished = true;
        }
        Ok(SessionEvent {
            epoch: self.epoch,
            delta,
            resolution: self.resolution,
            bounds: self.bounds,
            invocations: self.invocations,
            first_report: (self.invocations == 1).then(|| report.clone()),
            report: Some(report),
            outcome,
            coalesced: 0,
        })
    }

    /// Emits the terminal event for `outcome` with an empty delta.
    fn finish(&mut self, outcome: SessionOutcome) -> SessionEvent {
        self.finished = true;
        self.epoch += 1;
        SessionEvent {
            epoch: self.epoch,
            delta: FrontierDelta::default(),
            resolution: self.resolution,
            bounds: self.bounds,
            invocations: self.invocations,
            report: None,
            first_report: None,
            outcome: Some(outcome),
            coalesced: 0,
        }
    }

    /// Convenience driver: applies [`SessionCommand::Refine`] `steps`
    /// times and returns the per-iteration reports (the paper's
    /// evaluation scenario, "without user interaction ... cost bounds
    /// fixed to ∞"). Stops early if a preference fires.
    pub fn run_uninterrupted(&mut self, steps: usize) -> Vec<InvocationReport> {
        let mut reports = Vec::with_capacity(steps);
        for _ in 0..steps {
            match self.apply(SessionCommand::Refine) {
                Ok(event) => {
                    let done = event.is_final();
                    if let Some(r) = event.report {
                        reports.push(r);
                    }
                    if done {
                        break;
                    }
                }
                Err(ProtocolError::SessionFinished) => break,
                Err(e) => unreachable!("Refine cannot be malformed: {e}"),
            }
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::SessionView;
    use moqo_cost::ResolutionSchedule;
    use moqo_costmodel::StandardCostModel;
    use moqo_query::testkit;
    use std::sync::Arc;

    fn open(n: usize, card: u64, levels: usize) -> Session {
        let request = SessionRequest::new(Arc::new(testkit::chain_query(n, card)));
        Session::open(
            request,
            Arc::new(StandardCostModel::paper_metrics()),
            ResolutionSchedule::linear(levels, 1.05, 0.5),
        )
        .unwrap()
    }

    #[test]
    fn uninterrupted_session_refines_resolution() {
        let mut session = open(3, 100_000, 3);
        let reports = session.run_uninterrupted(5);
        let resolutions: Vec<usize> = reports.iter().map(|r| r.resolution).collect();
        // 0, 1, 2, 3 then saturation at rM = 3.
        assert_eq!(resolutions, vec![0, 1, 2, 3, 3]);
    }

    #[test]
    fn bound_change_resets_resolution_and_runs_focused() {
        let mut session = open(2, 100_000, 3);
        session.apply(SessionCommand::Refine).unwrap();
        session.apply(SessionCommand::Refine).unwrap();
        assert_eq!(session.resolution(), 2);
        let b = Bounds::unbounded(3).with_limit(0, 1e12);
        let ev = session.apply(SessionCommand::SetBounds(b)).unwrap();
        // The event covers the invocation at the *new* focus, resolution
        // 0; the next invocation will use 1.
        assert_eq!(ev.report.unwrap().resolution, 0);
        assert_eq!(session.resolution(), 1);
        assert_eq!(session.bounds(), &b);
    }

    #[test]
    fn selecting_a_plan_finishes_the_session() {
        let mut session = open(2, 100_000, 2);
        session.apply(SessionCommand::Refine).unwrap();
        let chosen = session.frontier().points[0].plan;
        let fin = session.apply(SessionCommand::SelectPlan(chosen)).unwrap();
        assert_eq!(
            fin.outcome,
            Some(SessionOutcome::Selected {
                plan: chosen,
                by_preference: false
            })
        );
        assert!(session.is_finished());
        assert!(matches!(
            session.apply(SessionCommand::Refine),
            Err(ProtocolError::SessionFinished)
        ));
    }

    #[test]
    fn preference_auto_selects_at_the_target_resolution() {
        let spec = Arc::new(testkit::chain_query(3, 80_000));
        let request = SessionRequest::new(spec)
            .with_preference(Preference::WeightedSum(vec![1.0, 0.01, 0.01]));
        let mut session = Session::open(
            request,
            Arc::new(StandardCostModel::paper_metrics()),
            ResolutionSchedule::linear(2, 1.1, 0.4),
        )
        .unwrap();
        // Levels = 3 (r = 0, 1, 2): the third invocation runs at the
        // target resolution and the preference fires.
        let e1 = session.apply(SessionCommand::Refine).unwrap();
        assert!(e1.outcome.is_none());
        let e2 = session.apply(SessionCommand::Refine).unwrap();
        assert!(e2.outcome.is_none());
        let e3 = session.apply(SessionCommand::Refine).unwrap();
        match e3.outcome {
            Some(SessionOutcome::Selected {
                plan,
                by_preference,
            }) => {
                assert!(by_preference);
                // The preference picked the frontier's weighted-sum
                // minimum.
                let best = Preference::WeightedSum(vec![1.0, 0.01, 0.01])
                    .select(session.frontier(), session.bounds())
                    .unwrap()
                    .unwrap();
                assert_eq!(plan, best.plan);
            }
            other => panic!("expected auto-selection, got {other:?}"),
        }
        assert!(session.is_finished());
    }

    #[test]
    fn malformed_commands_error_without_corrupting_the_session() {
        let mut session = open(2, 50_000, 2);
        session.apply(SessionCommand::Refine).unwrap();
        let before = session.frontier().len();
        assert!(matches!(
            session.apply(SessionCommand::SetBounds(Bounds::unbounded(2))),
            Err(ProtocolError::BoundsDimensionMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            session.apply(SessionCommand::SetPreference(Some(Preference::Chebyshev(
                vec![1.0]
            )))),
            Err(ProtocolError::WeightDimensionMismatch {
                expected: 3,
                got: 1
            })
        ));
        // A made-up plan id is a typed error, not a bogus selection.
        let bogus = moqo_plan::PlanId(u32::MAX);
        assert!(matches!(
            session.apply(SessionCommand::SelectPlan(bogus)),
            Err(ProtocolError::UnknownPlan { plan }) if plan == bogus
        ));
        assert!(!session.is_finished());
        // The session keeps working.
        assert_eq!(session.frontier().len(), before);
        assert!(session.apply(SessionCommand::Refine).is_ok());
    }

    #[test]
    fn event_stream_reassembles_to_the_session_frontier() {
        let mut session = open(3, 60_000, 3);
        let mut view = SessionView::default();
        for _ in 0..4 {
            let ev = session.apply(SessionCommand::Refine).unwrap();
            view.fold(&ev).unwrap();
        }
        // Refocus mid-stream, then keep refining.
        let tight = Bounds::unbounded(3).with_limit(0, f64::MAX / 2.0);
        let ev = session.apply(SessionCommand::SetBounds(tight)).unwrap();
        view.fold(&ev).unwrap();
        for _ in 0..2 {
            let ev = session.apply(SessionCommand::Refine).unwrap();
            view.fold(&ev).unwrap();
        }
        assert!(view.frontier.bits_eq(session.frontier()));
        assert_eq!(view.invocations, session.invocations());
    }

    #[test]
    fn cancel_emits_a_retired_outcome() {
        let mut session = open(2, 30_000, 1);
        session.apply(SessionCommand::Refine).unwrap();
        let fin = session.apply(SessionCommand::Cancel).unwrap();
        assert_eq!(fin.outcome, Some(SessionOutcome::Retired));
        assert!(session.is_finished());
    }
}
