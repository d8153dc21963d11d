//! IAMA — the Incremental Anytime Multi-objective Query Optimization
//! Algorithm (Trummer & Koch, SIGMOD 2015), Section 4.
//!
//! The crate implements the paper's two components:
//!
//! * [`IamaOptimizer`] — the incremental optimizer (Algorithm 2 plus the
//!   `Prune` and `Fresh` sub-functions of Algorithm 3). It maintains the
//!   result and candidate plan sets across invocations, indexed by table
//!   set, cost vector, and resolution level, and guarantees that after an
//!   invocation with bounds `b` and resolution `r`, the result set for
//!   every table subset `q` (with `|q| = k`) contains an
//!   `alpha_r^k`-approximate `b`-bounded Pareto plan set (Theorems 1–2).
//! * [`Session`] — the main control loop (Algorithm 1). It feeds
//!   [`SessionCommand`]s (refinement, bound changes, plan selection) into
//!   the optimizer, resets the resolution on bound changes, and otherwise
//!   refines resolution by one level per iteration, emitting one
//!   delta-streamed [`SessionEvent`] per command.
//!
//! The [`protocol`] module defines the typed session vocabulary —
//! [`SessionRequest`] / [`SessionCommand`] / [`SessionEvent`] — that the
//! serving layers (`moqo-engine`, `moqo-serve`) re-export and speak
//! unchanged, so one client codepath drives a bare session, a session
//! manager, and the sharded serving front.
//!
//! [`OptimizerStats`] instruments the incremental invariants so the tests
//! and benchmarks can verify Lemmas 5–7 directly: every plan is generated
//! at most once, every ordered sub-plan pair is combined at most once, and
//! every candidate is retrieved at most `rM + 1` times.

#![warn(missing_docs)]

mod compact;
pub mod config;
mod costing;
pub mod frontier;
pub mod optimizer;
pub mod preference;
pub mod protocol;
pub mod report;
pub mod session;
pub mod snapshot;
pub mod stats;
pub mod wire;

pub use config::{IamaConfig, MAX_SEEDS_PER_SLICE};
pub use costing::COST_THREAD_PREFIX;
pub use frontier::{FrontierPoint, FrontierSnapshot};
pub use optimizer::IamaOptimizer;
pub use preference::Preference;
pub use protocol::{
    AdmissionResponse, FrontierDelta, ProtocolError, RejectReason, SessionCommand, SessionEvent,
    SessionOutcome, SessionRequest, SessionView, ValidRequest,
};
pub use report::InvocationReport;
pub use session::Session;
pub use snapshot::{SeedTier, Seeder, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use stats::OptimizerStats;
pub use wire::{WireDecode, WireEncode, WireError, WireReader, WireResult, WireWriter};
