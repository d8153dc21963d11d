//! moqo-engine — the concurrent multi-session serving layer.
//!
//! The paper's interaction model (Figure 1 / Algorithm 1) is a *session*:
//! a user watches an anytime Pareto frontier refine between optimizer
//! invocations, drags cost bounds, and eventually clicks a plan. A real
//! deployment serves **many** such sessions at once. This crate provides
//! that layer on top of the owned-state optimizer core, speaking the
//! [session protocol](moqo_core::protocol) unchanged:
//!
//! * [`SessionManager`] — owns concurrent interactive sessions keyed by
//!   [`SessionId`], advances them on a worker pool with round-robin,
//!   budgeted time slices (each tick is one incremental `optimize`
//!   invocation), and routes [`SessionCommand`]s into the right session.
//!   Sessions open from a [`SessionRequest`], which may carry per-session
//!   bounds, a schedule override, an auto-select
//!   [`Preference`](moqo_core::Preference), and a per-session **cost
//!   model**.
//! * [`QueryFingerprint`] — canonical identity of a query: join-graph
//!   shape + catalog statistics + cost model (metric layout *and*
//!   [identity](moqo_costmodel::CostModel::identity)), independent of
//!   display names. Two sessions under different models can never share
//!   warm state.
//! * [`WarmStore`] — every warm byte of a deployment: the parked
//!   optimizers (keyed by fingerprint, with their rebase index) and the
//!   [`SubFrontierCache`]. A standalone manager owns a private store; the
//!   shards of a sharded deployment share one.
//!   A repeated query starts from the warm frontier: its first invocation
//!   reports `plans_generated == 0`. Parking compacts an optimizer to the
//!   plans a resume can reach (`IamaOptimizer::compact`).
//! * [`PlanCache`] — shared `Arc<EnumerationPlan>`s keyed by [`ShapeKey`],
//!   the shape component of the fingerprint. Structurally *similar*
//!   queries (same join-graph shape, any statistics, any model) walk one
//!   precomputed enumeration plane — the first step of cross-session
//!   sharing beyond exact repeats.
//! * [`SubFrontierCache`] — per-subset warm state keyed by
//!   [`SubsetFingerprint`]: parking sessions harvest each connected table
//!   subset's `Res`/`Cand` plans as position-independent blobs, and a
//!   *similar* (not identical) query seeds every subset whose induced
//!   subgraph and statistics match — its plans re-enter as level-0
//!   candidates, re-costed at the door, preserving `alpha_T` exactly.
//!   A parked optimizer keeps its [`Harvest`]: when a resume parks it
//!   again with its state unchanged, the same blobs are re-inserted
//!   instead of encoded again.
//!   A parked frontier whose [`RebaseKey`] matches a cold submission
//!   (same shape, drifted cardinalities) is instead **rebased**: its
//!   harvest seeds every subset through the same door as a transplant
//!   ([`moqo_core::Seeder`]), only blind to the drifted cardinalities,
//!   and the donor stays parked ([`WarmStore::rebase_seeds`]).
//!
//! Serving layers build on three hooks: [`SessionManager::watch`]
//! (per-session [`SessionEvent`] push channels carrying delta-streamed
//! frontiers, each with its own optional [`Doorbell`], so no caller
//! parks on the engine's condvar and the full frontier is never
//! re-shipped), [`SessionManager::park`] /
//! [`WarmStore::map_parked`] (frontier persistence across restarts), and
//! [`SessionManager::live_sessions`] (the load figure admission control
//! and shard routing balance on).
//!
//! ```
//! use moqo_cost::ResolutionSchedule;
//! use moqo_costmodel::StandardCostModel;
//! use moqo_engine::{EngineConfig, SessionManager};
//! use moqo_query::testkit;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let manager = SessionManager::new(
//!     Arc::new(StandardCostModel::paper_metrics()),
//!     ResolutionSchedule::linear(3, 1.05, 0.5),
//!     EngineConfig::default(),
//! );
//! let a = manager.submit(Arc::new(testkit::chain_query(2, 10_000)));
//! let b = manager.submit(Arc::new(testkit::chain_query(3, 10_000)));
//! assert!(manager.wait_idle(Duration::from_secs(30)));
//! assert!(!manager.frontier(a).unwrap().is_empty());
//! assert!(!manager.frontier(b).unwrap().is_empty());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod fingerprint;
pub mod manager;
pub mod plans;
pub mod registry;
pub mod subfrontier;

pub use cache::{CacheStats, MissLoader, WarmStore};
pub use fingerprint::{QueryFingerprint, RebaseKey, SubsetFingerprint};
pub use manager::{Doorbell, EngineConfig, SessionId, SessionManager, SessionStatus};
pub use plans::{PlanCache, PlanCacheStats};
pub use registry::ModelRegistry;
pub use subfrontier::{Harvest, SubFrontierCache, SubFrontierCacheStats};

// Re-exported so engine users can name the shared-plan vocabulary without
// a direct moqo-query dependency.
pub use moqo_query::{EnumerationPlan, ShapeKey};

// The session protocol, re-exported so engine users speak it without a
// direct moqo-core dependency — the same types drive the bare core
// session and the moqo-serve front.
pub use moqo_core::protocol::{
    AdmissionResponse, FrontierDelta, ProtocolError, RejectReason, SessionCommand, SessionEvent,
    SessionOutcome, SessionRequest, SessionView,
};
