//! moqo-fleet — cross-process shard placement with warm-state hand-off.
//!
//! `moqo-serve` made one process a multi-session service; this crate
//! assembles N such processes into a **fleet**. The paper's economics
//! (Trummer & Koch, SIGMOD 2015: anytime frontiers amortized across
//! repeats at "millions of users" scale) only hold if warm state
//! survives process boundaries, and every ingredient already exists —
//! `MOQOWIRE` framing, self-validating `export_frontier` bytes, the
//! [`SnapshotStore`](moqo_serve::SnapshotStore) — so the fleet layer is
//! deliberately thin:
//!
//! * [`Placement`] — a deterministic rendezvous-hash table mapping
//!   [`QueryFingerprint`](moqo_engine::QueryFingerprint) /
//!   [`RebaseKey`](moqo_engine::RebaseKey) routing keys to named nodes,
//!   plus an explicit override map for planned hand-offs. Node death
//!   moves *only* the dead node's keys; every surviving node keeps its
//!   warm frontiers hot.
//! * [`FleetNode`] — one serving node: a
//!   [`NetServer`](moqo_serve::NetServer) over a shared snapshot
//!   directory, read on first demand, with a periodic persistence
//!   sweeper and crash ([`kill`](FleetNode::kill)) vs. graceful
//!   ([`stop`](FleetNode::stop)) semantics.
//! * [`FleetClient`] — the client library: fingerprints each request,
//!   routes it to its home node via the shared placement, and fails over
//!   (marking unreachable nodes dead) when the home vanishes.
//! * [`FleetRouter`] — the control-plane process: health probes over the
//!   `MOQOWIRE` handshake, death detection, and placement pins for
//!   planned moves ([`FleetRouter::rebalance`]). It moves no state:
//!   every node attaches the shared store as its warm-store miss loader
//!   ([`SnapshotStore::attach`](moqo_serve::SnapshotStore::attach)), so
//!   a key's new home — after a death or a pin — reads the key's last
//!   swept snapshot file on the key's first open and validates it there,
//!   and a warm repeat still generates zero plans after its home node
//!   was killed. The daemonizable liveness beat
//!   [`FleetRouter::watch_tick`] composes probe, a death report (every
//!   node dead since the previous beat, whether the probe or a client's
//!   failover marked it) and one gentle load-leveling pin per tick, and `repro fleet-router --watch <ms>`
//!   runs it as a loop over real node processes until SIGTERM.
//!
//! End to end (asserted by `examples/fleet_serving.rs` and `repro
//! fleet`): kill a node, probe, and the repeat of a query it served
//! starts warm on the surviving home — zero plans generated, client-side
//! view `bits_eq` with the serving node's.

#![warn(missing_docs)]

pub mod client;
pub mod node;
pub mod placement;
pub mod router;

pub use client::{share, FleetClient, FleetSession, SharedPlacement};
pub use node::{FleetNode, FleetNodeConfig};
pub use placement::{NodeEntry, Placement};
pub use router::{FleetRouter, NodeHealth, WatchTick};
