//! The placement table: which node owns which key.
//!
//! [`Placement`] maps query fingerprints ([`QueryFingerprint`]) to named
//! nodes with **rendezvous (highest-random-weight) hashing**: every
//! `(key, node)` pair gets a deterministic pseudo-random weight, and the
//! live node with the highest weight owns the key. The scheme needs no
//! token ring and has the property that matters for warm state: when a
//! node dies, *only the keys it owned* move (each to its runner-up node)
//! — every other key keeps its home, so its parked frontier stays hot.
//!
//! Planned hand-offs use the explicit **override map**: the fleet router
//! pins the key to a chosen node, which reads the key's frontier from the
//! shared store on its next open. An override targeting a dead node is
//! ignored (the hash takes back over), so a stale pin degrades to the
//! deterministic default instead of routing into a black hole.
//!
//! Every mutation bumps a [version](Placement::version), letting cheap
//! polling detect placement changes without diffing tables.

use moqo_cost::Fnv64;
use moqo_engine::QueryFingerprint;
use std::collections::BTreeMap;

/// One serving node the placement knows about.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeEntry {
    /// Stable node name (placement hashes this, not the address, so a
    /// node keeps its keys across address changes).
    pub id: String,
    /// The node's `NetServer` address, `host:port`.
    pub addr: String,
    /// Dead nodes stay listed (their id keeps its hash weight history
    /// readable in diagnostics) but own nothing.
    pub dead: bool,
}

/// Deterministic key → node table; see the module docs for the scheme.
#[derive(Clone, Debug, Default)]
pub struct Placement {
    /// Sorted by id, so iteration (and thus tie-breaking) is canonical
    /// regardless of registration order.
    nodes: BTreeMap<String, NodeEntry>,
    overrides: BTreeMap<QueryFingerprint, String>,
    routes: BTreeMap<String, u64>,
    version: u64,
}

impl Placement {
    /// An empty table (no nodes, version 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-addresses) a node and marks it alive.
    pub fn add_node(&mut self, id: impl Into<String>, addr: impl Into<String>) {
        let id = id.into();
        self.nodes.insert(
            id.clone(),
            NodeEntry {
                id,
                addr: addr.into(),
                dead: false,
            },
        );
        self.version += 1;
    }

    /// Marks a node dead: it immediately stops owning any key. Unknown
    /// ids are ignored.
    pub fn mark_dead(&mut self, id: &str) {
        if let Some(node) = self.nodes.get_mut(id) {
            if !node.dead {
                node.dead = true;
                self.version += 1;
            }
        }
    }

    /// Pins `key` to a node, winning over the hash while that node is
    /// alive. The fleet router sets this in a planned rebalance.
    pub fn set_override(&mut self, key: QueryFingerprint, node_id: impl Into<String>) {
        self.overrides.insert(key, node_id.into());
        self.version += 1;
    }

    /// The rendezvous weight of `(key, node)` — deterministic, uniform
    /// enough for load spread, and a pure function of the two ids.
    fn weight(key: QueryFingerprint, node_id: &str) -> u64 {
        let mut h = Fnv64::new();
        h.str(node_id);
        h.u64(key.as_u64());
        h.finish()
    }

    /// The node that owns `key`: the override target if pinned and
    /// alive, else the live node with the highest rendezvous weight.
    /// `None` when every node is dead (or none registered).
    pub fn home_of(&self, key: QueryFingerprint) -> Option<&NodeEntry> {
        if let Some(id) = self.overrides.get(&key) {
            if let Some(node) = self.nodes.get(id) {
                if !node.dead {
                    return Some(node);
                }
            }
        }
        self.nodes.values().filter(|n| !n.dead).max_by(|a, b| {
            // Weight decides; the id breaks (astronomically rare)
            // weight collisions canonically.
            (Self::weight(key, &a.id), &a.id).cmp(&(Self::weight(key, &b.id), &b.id))
        })
    }

    /// Looks up a node by id.
    pub fn node(&self, id: &str) -> Option<&NodeEntry> {
        self.nodes.get(id)
    }

    /// All registered nodes, dead ones included, in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeEntry> {
        self.nodes.values()
    }

    /// Live nodes, in id order.
    pub fn live_nodes(&self) -> impl Iterator<Item = &NodeEntry> {
        self.nodes.values().filter(|n| !n.dead)
    }

    /// Monotonic mutation counter — bumped by every add and kill and
    /// every override change, so pollers detect rebalances cheaply.
    /// Route recording is deliberately **not** a mutation: counters move
    /// on every session, versions only on topology changes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Records that one session was routed to `node_id`. The
    /// [`FleetClient`](crate::FleetClient) calls this on every
    /// successful submit; the counters are diagnostics (the router
    /// levels load by the keys it watches, not by these).
    pub fn record_route(&mut self, node_id: &str) {
        *self.routes.entry(node_id.to_string()).or_default() += 1;
    }

    /// Per-node route counters (sessions successfully submitted to each
    /// node since the table was built), in id order. Dead nodes keep
    /// their history.
    pub fn route_counts(&self) -> &BTreeMap<String, u64> {
        &self.routes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(key: u64) -> QueryFingerprint {
        QueryFingerprint::from_u64(key)
    }

    fn three_nodes() -> Placement {
        let mut p = Placement::new();
        p.add_node("a", "127.0.0.1:9001");
        p.add_node("b", "127.0.0.1:9002");
        p.add_node("c", "127.0.0.1:9003");
        p
    }

    #[test]
    fn placement_is_deterministic_and_spreads_keys() {
        let p = three_nodes();
        let q = three_nodes();
        let mut owned = std::collections::HashMap::<String, usize>::new();
        for key in 0u64..3000 {
            let home = p.home_of(fp(key)).unwrap().id.clone();
            // Independent instances with the same nodes agree on every key.
            assert_eq!(home, q.home_of(fp(key)).unwrap().id);
            *owned.entry(home).or_default() += 1;
        }
        // All three nodes own a non-trivial share (rendezvous over FNV
        // is not perfectly uniform, but nowhere near degenerate).
        assert_eq!(owned.len(), 3, "{owned:?}");
        assert!(owned.values().all(|&n| n > 300), "{owned:?}");
    }

    #[test]
    fn node_death_moves_only_the_dead_nodes_keys() {
        let mut p = three_nodes();
        let before: Vec<(u64, String)> = (0u64..2000)
            .map(|k| (k, p.home_of(fp(k)).unwrap().id.clone()))
            .collect();
        let v = p.version();
        p.mark_dead("b");
        assert!(p.version() > v);
        for (key, old_home) in &before {
            let new_home = &p.home_of(fp(*key)).unwrap().id;
            if old_home == "b" {
                assert_ne!(new_home, "b");
            } else {
                // The minimal-disruption property: survivors keep their
                // keys, so their parked frontiers stay hot.
                assert_eq!(new_home, old_home, "key {key} moved needlessly");
            }
        }
    }

    #[test]
    fn overrides_win_while_alive_and_degrade_when_dead() {
        let mut p = three_nodes();
        let key = 42u64;
        let hash_home = p.home_of(fp(key)).unwrap().id.clone();
        let other = ["a", "b", "c"]
            .into_iter()
            .find(|id| *id != hash_home)
            .unwrap();
        p.set_override(fp(key), other);
        assert_eq!(p.home_of(fp(key)).unwrap().id, other);
        // A pin to a dead node is ignored, not fatal.
        p.mark_dead(other);
        assert_eq!(p.home_of(fp(key)).unwrap().id, hash_home);
    }

    #[test]
    fn route_counters_accumulate_without_bumping_the_version() {
        let mut p = three_nodes();
        let v = p.version();
        p.record_route("a");
        p.record_route("a");
        p.record_route("b");
        assert_eq!(p.route_counts().get("a"), Some(&2));
        assert_eq!(p.route_counts().get("b"), Some(&1));
        assert_eq!(p.route_counts().get("c"), None);
        assert_eq!(p.version(), v, "stats are not topology");
        // Death keeps the history.
        p.mark_dead("a");
        assert_eq!(p.route_counts().get("a"), Some(&2));
    }

    #[test]
    fn empty_or_all_dead_placement_has_no_home() {
        let mut p = Placement::new();
        assert!(p.home_of(fp(7)).is_none());
        p.add_node("a", "127.0.0.1:9001");
        assert!(p.home_of(fp(7)).is_some());
        p.mark_dead("a");
        assert!(p.home_of(fp(7)).is_none());
    }
}
