//! The fleet router: health probes, death detection, and warm-state
//! rebalancing over the shared placement table.

use crate::client::SharedPlacement;
use moqo_engine::QueryFingerprint;
use moqo_serve::NetClient;
use moqo_wire::{check_hello, client_hello, NetError, HELLO_LEN};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Per-node connect budget of a health probe.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);
/// Per-request budget of control pulls/pushes during rebalance.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(60);

/// One node's probe outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeHealth {
    /// The probed node.
    pub id: String,
    /// True when the node accepted a connection and answered the
    /// `MOQOWIRE` handshake within the probe timeout.
    pub alive: bool,
}

/// What a planned [`FleetRouter::rebalance`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rebalance {
    /// The frontier was pulled off the old home, pushed to (and
    /// validated by) the new home, and the key pinned there.
    Moved {
        /// Node the warm state left.
        from: String,
        /// Node that now owns the key.
        to: String,
        /// Size of the shipped `export_frontier` blob.
        bytes: usize,
    },
    /// The old home had nothing parked for the key; the pin was still
    /// set (the new home starts cold, or adopts from the shared store on
    /// first pull).
    ColdMove {
        /// Node that now owns the key.
        to: String,
    },
}

/// What one [`FleetRouter::watch_tick`] beat observed and repaired.
#[derive(Clone, Debug, Default)]
pub struct WatchTick {
    /// Probe outcome for every node that was live going into the tick.
    pub health: Vec<NodeHealth>,
    /// Nodes that failed their probe this tick (newly marked dead).
    pub died: Vec<String>,
    /// Watched keys whose home died this tick; rendezvous hashing moved
    /// each to a surviving node.
    pub orphaned: usize,
    /// Orphaned keys re-parked **warm** on their new homes (the new home
    /// pulled the dead node's last persisted state from the shared
    /// store).
    pub adopted_warm: usize,
    /// Orphaned keys with nothing persisted anywhere: their new homes
    /// start cold.
    pub adopted_cold: usize,
    /// Keys shipped warm from the most- to the least-loaded live node
    /// because the ownership spread exceeded the tick's headroom.
    pub rebalanced: usize,
}

/// The thin router process: it owns mutations of the [`SharedPlacement`]
/// (marking dead nodes, pinning rebalanced keys) and ships warm state
/// between nodes over their control endpoints. It holds **no** optimizer
/// state itself — every frontier it moves is self-validating
/// `export_frontier` bytes that the receiving node re-validates at
/// admission.
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

    /// Planned hand-off: pulls the warm frontier for `fp` off its
    /// current home, pushes it to node `to` (which re-validates it like
    /// a snapshot restore), and pins the key there. The pulled bytes
    /// stay parked on the old home too — placement decides who serves,
    /// duplicates are harmless.
    pub fn rebalance(&self, fp: QueryFingerprint, to: &str) -> Result<Rebalance, NetError> {
        let (from, from_addr, to_addr) = {
            let placement = self.placement.read().expect("placement poisoned");
            let target = placement
                .node(to)
                .filter(|n| !n.dead)
                .ok_or(NetError::Disconnected)?;
            match placement.home_of(fp) {
                Some(home) if home.id != target.id => {
                    (home.id.clone(), home.addr.clone(), target.addr.clone())
                }
                // Already home (or no home at all): nothing to ship.
                _ => (String::new(), String::new(), target.addr.clone()),
            }
        };
        let blob = if from.is_empty() {
            None
        } else {
            let mut control = NetClient::connect(&from_addr)?;
            control.pull_frontier(fp.as_u64(), CONTROL_TIMEOUT)?
        };
        let result = match blob {
            Some(blob) => {
                let bytes = blob.len();
                let mut control = NetClient::connect(&to_addr)?;
                let admitted = control.push_frontier(blob, CONTROL_TIMEOUT)?;
                if admitted != Some(fp.as_u64()) {
                    // The new home refused the bytes (or decoded them to
                    // a different fingerprint): do NOT pin — routing to
                    // a cold node on purpose needs a validated frontier.
                    return Err(NetError::UnexpectedFrame("push refused by the new home"));
                }
                Rebalance::Moved {
                    from,
                    to: to.to_string(),
                    bytes,
                }
            }
            None => Rebalance::ColdMove { to: to.to_string() },
        };
        self.placement
            .write()
            .expect("placement poisoned")
            .set_override(fp, to);
        Ok(result)
    }

    /// One beat of the liveness loop (`repro fleet-router --watch`):
    /// probe every live node, adopt the watched keys a newly-dead node
    /// orphaned, and — when the ownership spread of `keys` across live
    /// nodes exceeds `headroom` — ship one key warm from the
    /// most-loaded to the least-loaded node (one move per tick, so a
    /// skewed fleet converges gently instead of thundering).
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
        let homes_before: Vec<Option<String>> = keys.iter().map(|fp| home_of(*fp)).collect();
        let health = self.probe();
        let died: Vec<String> = health
            .iter()
            .filter(|h| !h.alive)
            .map(|h| h.id.clone())
            .collect();

        let mut tick = WatchTick {
            health,
            died,
            ..WatchTick::default()
        };
        if !tick.died.is_empty() {
            for (fp, before) in keys.iter().zip(&homes_before) {
                let orphaned = before.as_ref().is_some_and(|id| tick.died.contains(id));
                if !orphaned {
                    continue;
                }
                tick.orphaned += 1;
                // Adopt lazily: the new home re-parks the key from the
                // shared store on this pull (or reports a cold start). A
                // pull error leaves the key for the next tick.
                match self.adopt(*fp) {
                    Ok(Some(_)) => tick.adopted_warm += 1,
                    Ok(None) => tick.adopted_cold += 1,
                    Err(_) => {}
                }
            }
        }

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

    /// Adopt-after-death: asks `fp`'s **current** home to pull the
    /// frontier up — from its own cache or, for a key just inherited
    /// from a dead node, from the shared snapshot store (re-parking it).
    /// Returns the blob when the new home is warm, `None` when the key
    /// starts cold (nothing ever persisted).
    pub fn adopt(&self, fp: QueryFingerprint) -> Result<Option<Vec<u8>>, NetError> {
        let addr = {
            let placement = self.placement.read().expect("placement poisoned");
            match placement.home_of(fp) {
                Some(n) => n.addr.clone(),
                None => return Err(NetError::Disconnected),
            }
        };
        let mut control = NetClient::connect(&addr)?;
        control.pull_frontier(fp.as_u64(), CONTROL_TIMEOUT)
    }
}
