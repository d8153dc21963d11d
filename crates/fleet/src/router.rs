//! The fleet router: health probes, death detection, and placement pins
//! over the shared placement table.

use crate::client::SharedPlacement;
use moqo_engine::QueryFingerprint;
use moqo_wire::{check_hello, client_hello, NetError, HELLO_LEN};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Per-node connect budget of a health probe.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// One node's probe outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeHealth {
    /// The probed node.
    pub id: String,
    /// True when the node accepted a connection and answered the
    /// `MOQOWIRE` handshake within the probe timeout.
    pub alive: bool,
}

/// What one [`FleetRouter::watch_tick`] beat observed and repaired.
#[derive(Clone, Debug, Default)]
pub struct WatchTick {
    /// Probe outcome for every node that was live going into the tick.
    pub health: Vec<NodeHealth>,
    /// Nodes that failed their probe this tick (newly marked dead).
    pub died: Vec<String>,
    /// Watched keys whose home died this tick; rendezvous hashing moved
    /// each to a surviving node, which reads the key's last swept state
    /// from the shared store on its first open.
    pub orphaned: usize,
    /// Keys pinned from the most- to the least-loaded live node because
    /// the ownership spread exceeded the tick's headroom.
    pub rebalanced: usize,
}

/// The thin router process: it owns mutations of the [`SharedPlacement`]
/// (marking dead nodes, pinning rebalanced keys). It holds and moves
/// **no** optimizer state: a key's new home reads the key's snapshot
/// file from the shared store on first demand, and validates it there.
pub struct FleetRouter {
    placement: SharedPlacement,
}

impl FleetRouter {
    /// A router over the fleet's shared placement.
    pub fn new(placement: SharedPlacement) -> Self {
        Self { placement }
    }

    /// The shared placement table.
    pub fn placement(&self) -> &SharedPlacement {
        &self.placement
    }

    /// Probes `addr`: TCP connect within the timeout plus a full
    /// `MOQOWIRE` hello exchange — a port that accepts but speaks
    /// something else is as dead as a refused connection.
    fn probe_addr(&self, addr: &str) -> bool {
        let Some(sock_addr) = addr.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
            return false;
        };
        let Ok(mut stream) = TcpStream::connect_timeout(&sock_addr, PROBE_TIMEOUT) else {
            return false;
        };
        let _ = stream.set_read_timeout(Some(PROBE_TIMEOUT));
        let _ = stream.set_write_timeout(Some(PROBE_TIMEOUT));
        if stream.write_all(&client_hello()).is_err() {
            return false;
        }
        let mut hello = [0u8; HELLO_LEN];
        if stream.read_exact(&mut hello).is_err() {
            return false;
        }
        check_hello(&hello).is_ok()
    }

    /// Probes every non-dead node and marks the unreachable ones dead in
    /// the shared placement — after this returns, every key a dead node
    /// owned resolves to its surviving runner-up. Returns each probed
    /// node's health.
    pub fn probe(&self) -> Vec<NodeHealth> {
        let targets: Vec<(String, String)> = {
            let placement = self.placement.read().expect("placement poisoned");
            placement
                .live_nodes()
                .map(|n| (n.id.clone(), n.addr.clone()))
                .collect()
        };
        let mut health = Vec::with_capacity(targets.len());
        for (id, addr) in targets {
            let alive = self.probe_addr(&addr);
            if !alive {
                self.placement
                    .write()
                    .expect("placement poisoned")
                    .mark_dead(&id);
            }
            health.push(NodeHealth { id, alive });
        }
        health
    }

    /// Planned hand-off: pins `fp` to node `to`, which must be live.
    ///
    /// No state moves here. With a shared store, the new home reads the
    /// key's file — the old home's last sweep — when the key's next
    /// session opens, so the move is warm up to that sweep; what the old
    /// home refined after it is not carried over. Without a store, the
    /// move is cold: the new home starts the key from scratch. The old
    /// home keeps its parked copy; placement decides who serves.
    pub fn rebalance(&self, fp: QueryFingerprint, to: &str) -> Result<(), NetError> {
        let mut placement = self.placement.write().expect("placement poisoned");
        if placement.node(to).is_none_or(|n| n.dead) {
            return Err(NetError::Disconnected);
        }
        placement.set_override(fp, to);
        Ok(())
    }

    /// One beat of the liveness loop (`repro fleet-router --watch`):
    /// probe every live node, count the watched keys a newly-dead node
    /// orphaned, and — when the ownership spread of `keys` across live
    /// nodes exceeds `headroom` — [rebalance](FleetRouter::rebalance)
    /// one key from the most-loaded to the least-loaded node (one move
    /// per tick, so a skewed fleet converges gently instead of
    /// thundering). `usize::MAX` disables rebalancing.
    ///
    /// A tick against a healthy, balanced fleet does nothing but the
    /// probes; the loop is safe to run forever at any cadence.
    pub fn watch_tick(&self, keys: &[QueryFingerprint], headroom: usize) -> WatchTick {
        let home_of = |fp: QueryFingerprint| -> Option<String> {
            self.placement
                .read()
                .expect("placement poisoned")
                .home_of(fp)
                .map(|n| n.id.clone())
        };
        let homes_before: Vec<Option<String>> = keys.iter().map(|fp| home_of(*fp)).collect();
        let health = self.probe();
        let died: Vec<String> = health
            .iter()
            .filter(|h| !h.alive)
            .map(|h| h.id.clone())
            .collect();
        let orphaned = homes_before
            .iter()
            .filter(|before| before.as_ref().is_some_and(|id| died.contains(id)))
            .count();

        let mut tick = WatchTick {
            health,
            died,
            orphaned,
            rebalanced: 0,
        };

        if headroom != usize::MAX {
            // Ownership census of the watched keys over live nodes.
            let mut owned: BTreeMap<String, Vec<QueryFingerprint>> = {
                let placement = self.placement.read().expect("placement poisoned");
                placement
                    .live_nodes()
                    .map(|n| (n.id.clone(), Vec::new()))
                    .collect()
            };
            for fp in keys {
                if let Some(id) = home_of(*fp) {
                    if let Some(list) = owned.get_mut(&id) {
                        list.push(*fp);
                    }
                }
            }
            let most = owned.iter().max_by_key(|(_, v)| v.len());
            let least = owned.iter().min_by_key(|(_, v)| v.len());
            if let (Some((from, from_keys)), Some((to, to_keys))) = (most, least) {
                if from != to && from_keys.len() - to_keys.len() > headroom {
                    if let Some(fp) = from_keys.first() {
                        if self.rebalance(*fp, to).is_ok() {
                            tick.rebalanced += 1;
                        }
                    }
                }
            }
        }
        tick
    }
}
