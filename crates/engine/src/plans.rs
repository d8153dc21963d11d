//! The shared enumeration-plan cache.
//!
//! An [`EnumerationPlan`] depends only on a query's join-graph *shape*
//! (which table pairs are joined) — not on statistics, selectivities, or names. That makes it far more shareable
//! than a parked frontier: the [`crate::WarmStore`] resumes only an
//! *equivalent* query (same shape **and** same statistics and metrics),
//! while the plan cache serves every *structurally similar* query — the
//! same dashboard template against refreshed statistics, the same TPC-H
//! shape at another scale factor, or two users exploring differently
//! filtered variants of one report.
//!
//! This is the first step of cross-session sharing for similar (not
//! identical) queries: all concurrent sessions over one shape walk a
//! single immutable `Arc<EnumerationPlan>`, so the `O(3^n)`-worst-case
//! subset/split construction is paid once per shape per process instead
//! of once per session.

use moqo_index::FxHashMap;
use moqo_query::{EnumerationPlan, JoinGraph, ShapeKey};
use std::sync::{Arc, Mutex};

/// Counters describing plan-cache effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served by an existing shared plan.
    pub hits: u64,
    /// Lookups that had to build a new plan.
    pub misses: u64,
    /// Plans currently cached.
    pub entries: usize,
}

/// Concurrent cache of [`EnumerationPlan`]s keyed by [`ShapeKey`] — the
/// shape component of the engine's `QueryFingerprint`.
///
/// Plans are immutable and shared by `Arc`, so a hit is a clone of a
/// pointer; entries are never evicted (a plan is small relative to the
/// optimizer state it serves, and the number of distinct shapes in a
/// workload is bounded by its templates, not its queries).
#[derive(Default)]
pub struct PlanCache {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    map: FxHashMap<ShapeKey, Arc<EnumerationPlan>>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the shared plan for the graph's shape, building (and
    /// caching) it on first sight.
    pub fn get_or_build(&self, graph: &JoinGraph) -> Arc<EnumerationPlan> {
        let key = ShapeKey::of(graph);
        {
            let mut inner = self.inner.lock().expect("plan cache poisoned");
            if let Some(plan) = inner.map.get(&key).map(Arc::clone) {
                // Structural backstop: a 64-bit key collision between two
                // distinct shapes must not serve the wrong plan. Fall
                // through and build a private (uncached) plan instead.
                if plan.matches(graph) {
                    inner.hits += 1;
                    return plan;
                }
            }
        }
        // Build outside the lock: plan construction is `O(3^n)` in the
        // worst case and must not serialize unrelated submissions. Two
        // racing builders of one shape both succeed; the first insert
        // wins and the loser's plan is dropped.
        let plan = Arc::new(EnumerationPlan::build(graph));
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.misses += 1;
        let cached = inner.map.entry(key).or_insert_with(|| Arc::clone(&plan));
        if cached.matches(graph) {
            Arc::clone(cached)
        } else {
            // Key collision with a different shape already in the slot:
            // leave the cache alone and serve this query a private plan.
            plan
        }
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.inner.lock().expect("plan cache poisoned");
        PlanCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_query::testkit;

    #[test]
    fn similar_shapes_share_one_plan() {
        let cache = PlanCache::new();
        // Same shape, different statistics: one build, one pointer.
        let a = testkit::chain_query(4, 100_000);
        let b = testkit::chain_query(4, 777);
        let pa = cache.get_or_build(&a.graph);
        let pb = cache.get_or_build(&b.graph);
        assert!(Arc::ptr_eq(&pa, &pb));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_shapes_get_distinct_plans() {
        let cache = PlanCache::new();
        let chain = testkit::chain_query(4, 1000);
        let star = testkit::star_query(4, 1000);
        let p1 = cache.get_or_build(&chain.graph);
        let p2 = cache.get_or_build(&star.graph);
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.stats().entries, 2);
    }
}
