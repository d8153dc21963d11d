//! moqo-serve — the sharded, admission-controlled serving front.
//!
//! `moqo-engine` turned the paper's single-user loop (Trummer & Koch,
//! SIGMOD 2015, Figure 1) into a multi-session manager; this crate turns
//! that manager into a *service* — still speaking the
//! [session protocol](moqo_core::protocol), so the same
//! [`SessionRequest`] / [`SessionCommand`] / [`SessionEvent`] types that
//! drive a bare `moqo_core::Session` drive the whole front:
//!
//! * [`ShardedEngine`] — N [`moqo_engine::SessionManager`] shards behind
//!   a [`QueryFingerprint`]-hash router, sharing one
//!   [`moqo_engine::WarmStore`] of parked frontiers and sub-frontier
//!   blobs. A repeat finds its frontier whichever shard ran it, and goes
//!   home, where that shard's `PlanCache` already holds its shape; any
//!   submission may divert to the least-loaded shard when its home is
//!   overloaded. Fingerprints embed the effective cost-model identity, so
//!   per-session model overrides warm independently.
//! * [`AdmissionController`] — bounded intake with pluggable overload
//!   policy: [`Reject`](AdmissionPolicy::Reject) (pure backpressure),
//!   [`Queue`](AdmissionPolicy::Queue) (bounded FIFO, never unbounded
//!   growth), or [`Degrade`](AdmissionPolicy::Degrade) (admit at a
//!   coarser target resolution — IAMA's resolution ladder doubling as a
//!   load-shedding knob). Decisions surface as the protocol's
//!   [`AdmissionResponse`].
//! * [`MoqoServer`] — the non-blocking client surface: `submit` takes a
//!   [`SessionRequest`] and returns a [`Ticket`] plus the admission
//!   response immediately; delta-streamed [`SessionEvent`]s arrive over
//!   per-ticket channels (`poll` to drain into the reassembled
//!   [`SessionView`], `recv` to block on *your own* channel). No caller
//!   ever parks on the engine's internal condvar, and the full frontier
//!   ships at most once per stream.
//! * [`SnapshotStore`] — versioned snapshot/restore of parked frontiers
//!   (one file per fingerprint via
//!   [`moqo_core::IamaOptimizer::export_frontier`], with per-fingerprint
//!   dirty tracking so unchanged frontiers skip the write), so a
//!   restarted server's first invocation of a known query still
//!   generates zero plans.
//! * [`NetServer`] / [`NetClient`] — the same protocol over real TCP
//!   (`moqo-wire` framing): one framed duplex stream per ticket on a
//!   small I/O thread pool, typed admission/error round-trips, cost
//!   models resolved by identity against a [`ModelRegistry`], and
//!   client-side [`SessionView`] reassembly that is bit-exact with the
//!   server's.
//!
//! ```
//! use moqo_cost::ResolutionSchedule;
//! use moqo_costmodel::StandardCostModel;
//! use moqo_query::testkit;
//! use moqo_serve::{MoqoServer, ServeConfig, TicketStatus};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! let server = MoqoServer::new(
//!     Arc::new(StandardCostModel::paper_metrics()),
//!     ResolutionSchedule::linear(2, 1.1, 0.4),
//!     ServeConfig::default(),
//! );
//! let (ticket, response) = server
//!     .submit(Arc::new(testkit::chain_query(3, 50_000)))
//!     .unwrap();
//! assert!(response.is_admitted());
//! assert!(server.wait_idle(Duration::from_secs(30)));
//! match server.poll(ticket) {
//!     Some(TicketStatus::Active { view, .. }) => assert!(!view.frontier.is_empty()),
//!     other => panic!("expected an active ticket, got {other:?}"),
//! }
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod api;
pub mod net;
pub mod persist;
pub mod shard;

pub use admission::{
    Admission, AdmissionConfig, AdmissionController, AdmissionPolicy, AdmissionStats,
};
pub use api::{MoqoServer, ServeConfig, ServerEventHook, ServerStats, Ticket, TicketStatus};
pub use net::{NetClient, NetConfig, NetServer, NetStats};
pub use persist::{RestoreReport, SaveReport, SnapshotStore, FRONTIER_EXT};
pub use shard::{GlobalSessionId, ShardConfig, ShardStats, ShardedEngine};

// Re-exported so serve users can speak the engine vocabulary without a
// direct moqo-engine dependency.
pub use moqo_engine::{EngineConfig, ModelRegistry, QueryFingerprint, SessionStatus};

// The wire layer the network front speaks (handshake, frames, envelopes).
pub use moqo_wire::NetError;

// The session protocol — the one vocabulary all three layers speak.
pub use moqo_core::protocol::{
    AdmissionResponse, FrontierDelta, ProtocolError, RejectReason, SessionCommand, SessionEvent,
    SessionOutcome, SessionRequest, SessionView,
};
