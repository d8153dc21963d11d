//! # moqo — Multi-Objective Query Optimization
//!
//! A from-scratch Rust reproduction of *"An Incremental Anytime Algorithm
//! for Multi-Objective Query Optimization"* (Trummer & Koch, SIGMOD 2015).
//!
//! This facade crate re-exports every subsystem of the workspace so that
//! examples and downstream users can depend on a single crate:
//!
//! * [`cost`] — cost vectors, dominance, Pareto utilities, resolution
//!   schedules;
//! * [`catalog`] — tables, columns, statistics;
//! * [`tpch`] — the TPC-H schema and the join graphs of its queries;
//! * [`query`] — join graphs, predicates, selectivity estimation;
//! * [`sql`] — a minimal SQL front-end with Selinger-style decomposition
//!   of nested statements into optimizable query blocks;
//! * [`plan`] — the plan arena, scan/join operators, physical properties;
//! * [`costmodel`] — PONO-compliant multi-metric cost models;
//! * [`index`] — plan-set indexes with (cost, resolution) range queries;
//! * [`core`] — the IAMA incremental anytime optimizer itself;
//! * [`engine`] — the concurrent multi-session serving layer: session
//!   manager, worker pool, and the warm-frontier cache;
//! * [`serve`] — the sharded, admission-controlled serving front:
//!   fingerprint-hash shard routing, bounded admission (reject / queue /
//!   degrade), per-ticket channels, frontier persistence across
//!   restarts, and the TCP network front (`NetServer` / `NetClient`);
//! * [`wire`] — the versioned, length-prefixed binary wire format the
//!   network front speaks: handshake, frames, and message envelopes over
//!   the validated per-type codecs of `moqo_core::wire`;
//! * [`fleet`] — cross-process shard placement: a deterministic
//!   rendezvous-hash `Placement` over named nodes, serving nodes that
//!   read a shared snapshot directory on a warm-store miss, the
//!   `FleetRouter` control plane (health probes, death detection,
//!   placement pins; it moves no state), and the placement-routed
//!   `FleetClient` with failover;
//! * [`baselines`] — memoryless, one-shot, exhaustive, and single-objective
//!   reference optimizers;
//! * [`viz`] — ASCII rendering of cost frontiers.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` (single query) and
//! `examples/engine_serving.rs` (many concurrent sessions); in short:
//!
//! ```
//! use moqo::prelude::*;
//! use std::sync::Arc;
//!
//! // A 3-table chain query over a synthetic catalog. The optimizer owns
//! // its inputs behind `Arc`s so sessions can move across threads.
//! let spec = Arc::new(moqo::query::testkit::chain_query(3, 10_000));
//! let model = Arc::new(moqo::costmodel::StandardCostModel::paper_metrics());
//! let bounds = Bounds::unbounded(model.dim());
//! let schedule = ResolutionSchedule::linear(5, 1.05, 0.5);
//! let mut opt = IamaOptimizer::new(spec, model, schedule);
//! let report = opt.run_invocation(bounds);
//! assert!(report.frontier_size > 0);
//! ```

pub use moqo_baselines as baselines;
pub use moqo_catalog as catalog;
pub use moqo_core as core;
pub use moqo_cost as cost;
pub use moqo_costmodel as costmodel;
pub use moqo_engine as engine;
pub use moqo_fleet as fleet;
pub use moqo_index as index;
pub use moqo_plan as plan;
pub use moqo_query as query;
pub use moqo_serve as serve;
pub use moqo_sql as sql;
pub use moqo_tpch as tpch;
pub use moqo_viz as viz;
pub use moqo_wire as wire;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use moqo_core::{
        AdmissionResponse, FrontierDelta, IamaOptimizer, InvocationReport, Preference,
        ProtocolError, Session, SessionCommand, SessionEvent, SessionOutcome, SessionRequest,
        SessionView,
    };
    pub use moqo_cost::{Bounds, CostVector, ResolutionSchedule};
    pub use moqo_costmodel::{CostModel, SharedCostModel, StandardCostModel};
    pub use moqo_engine::{
        EngineConfig, ModelRegistry, QueryFingerprint, SessionId, SessionManager,
    };
    pub use moqo_fleet::{FleetClient, FleetNode, FleetNodeConfig, FleetRouter, Placement};
    pub use moqo_query::QuerySpec;
    pub use moqo_serve::{
        AdmissionConfig, AdmissionPolicy, MoqoServer, NetClient, NetConfig, NetServer, ServeConfig,
        ShardConfig, ShardedEngine, SnapshotStore, Ticket, TicketStatus,
    };
}
