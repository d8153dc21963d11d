//! The fleet router: health probes, death detection, and placement pins
//! over the shared placement table.

use crate::client::SharedPlacement;
use crate::placement::Placement;
use moqo_engine::QueryFingerprint;
use moqo_wire::{check_hello, client_hello, NetError, HELLO_LEN};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
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
    /// Nodes live at the previous tick (or when the router was built) and
    /// dead now, whether this tick's probe or a client's failover marked
    /// them.
    pub died: Vec<String>,
    /// Watched keys whose home at the previous tick was one of `died`;
    /// rendezvous hashing moved each to a surviving node, which reads the
    /// key's last swept state from the shared store on its first open.
    pub orphaned: usize,
    /// Keys pinned from the most- to the least-loaded live node because
    /// the ownership spread exceeded the tick's headroom.
    pub rebalanced: usize,
}

/// The thin router process: it probes nodes, marks the unreachable ones
/// dead and pins rebalanced keys in the [`SharedPlacement`] (clients
/// also mark the nodes they cannot reach dead, and record their routes).
/// It holds and moves **no** optimizer state: a key's new home reads the
/// key's snapshot file from the shared store on first demand, and
/// validates it there.
pub struct FleetRouter {
    placement: SharedPlacement,
    /// The placement as of the previous [`FleetRouter::watch_tick`] (or
    /// of [`FleetRouter::new`]): a tick reports every node live then and
    /// dead now, whoever marked it, and the keys those nodes homed then.
    last_beat: Mutex<Placement>,
}

impl FleetRouter {
    /// A router over the fleet's shared placement.
    pub fn new(placement: SharedPlacement) -> Self {
        let last_beat = Mutex::new(placement.read().expect("placement poisoned").clone());
        Self {
            placement,
            last_beat,
        }
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
    /// probe every live node, report every node that was live at the
    /// previous beat and is dead now — whether this beat's probe or a
    /// client's failover marked it — with the watched keys it was home to
    /// then, and, when the ownership spread of `keys` across live nodes
    /// exceeds `headroom`, [rebalance](FleetRouter::rebalance) one key
    /// from the most-loaded to the least-loaded node (one move per tick,
    /// so a skewed fleet converges gently instead of thundering).
    /// `usize::MAX` disables rebalancing.
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
        let health = self.probe();
        let mut last_beat = self.last_beat.lock().expect("last beat poisoned");
        let died: Vec<String> = {
            let placement = self.placement.read().expect("placement poisoned");
            last_beat
                .live_nodes()
                .filter(|n| placement.node(&n.id).is_none_or(|now| now.dead))
                .map(|n| n.id.clone())
                .collect()
        };
        let orphaned = keys
            .iter()
            .filter(|fp| {
                last_beat
                    .home_of(**fp)
                    .is_some_and(|n| died.contains(&n.id))
            })
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
        *last_beat = self.placement.read().expect("placement poisoned").clone();
        tick
    }
}
