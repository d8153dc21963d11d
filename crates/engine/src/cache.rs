//! The warm-frontier cache.
//!
//! When an interactive session ends, its optimizer — arena, result and
//! candidate plan sets, `IsFresh` pair set — is compacted to the plans a
//! resume can reach and parked here keyed by the query's canonical
//! fingerprint, together with the sub-frontier [`Harvest`] it was parked
//! with. A later session over an equivalent query
//! resumes from that state instead of resolution 0: thanks to the
//! incremental invariants (Lemmas 5–7), its first invocation re-generates
//! **zero** plans and serves the existing frontier immediately.
//!
//! This is only possible because [`IamaOptimizer`] owns its state behind
//! `Arc`s; a borrowed optimizer could never outlive the session that
//! created it.
//!
//! Recency is tracked with a monotone sequence number per entry instead of
//! an explicit LRU list: `take` and `put` are hash-map operations plus a
//! tick bump (`O(1)`), and only an eviction — which already pays for a
//! map insert and drops a whole optimizer — scans for the minimum tick.
//! The earlier implementation kept a `VecDeque` order list and paid an
//! `O(n)` `retain` on *every* hit and every overwrite.

use crate::fingerprint::{QueryFingerprint, RebaseKey};
use crate::subfrontier::Harvest;
use moqo_core::IamaOptimizer;
use moqo_index::FxHashMap;

/// Counters describing cache effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a parked optimizer.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted because the cache was full.
    pub evictions: u64,
    /// Optimizers currently parked.
    pub entries: usize,
    /// Cardinality-blind donor lookups that found a parked optimizer of
    /// the same shape under drifted statistics (see
    /// [`FrontierCache::rebase_donor`]).
    pub rebase_hits: u64,
    /// Cardinality-blind donor lookups that found nothing.
    pub rebase_misses: u64,
}

/// A parked optimizer plus the tick of its last use.
struct Parked {
    optimizer: IamaOptimizer,
    /// The sub-frontier blobs the optimizer was parked with; handed back
    /// on `take` so an unchanged re-park can reuse them.
    harvest: Option<Harvest>,
    /// Value of the cache's tick counter when this entry was last parked.
    /// Strictly increasing across `put`s, so the minimum identifies the
    /// least-recently-parked entry without any ordering side structure.
    tick: u64,
    /// The entry's cardinality-blind key, kept so removals can maintain
    /// the secondary index without recomputing the hash.
    rebase: RebaseKey,
}

/// LRU cache of parked optimizers keyed by [`QueryFingerprint`].
///
/// `take` removes the entry: an optimizer is a mutable object owned by
/// exactly one session at a time, so a hit transfers ownership to the new
/// session and the entry returns via `put` when that session ends.
#[derive(Default)]
pub struct FrontierCache {
    capacity: usize,
    map: FxHashMap<QueryFingerprint, Parked>,
    /// Secondary index for stats-drift near misses: cardinality-blind key
    /// → fingerprints of the parked optimizers sharing it. Maintained on
    /// every `put`/`take`/eviction, consulted only on a cold miss.
    blind: FxHashMap<RebaseKey, Vec<QueryFingerprint>>,
    /// Monotone recency clock; bumped on every `put`.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    rebase_hits: u64,
    rebase_misses: u64,
}

impl FrontierCache {
    /// Creates a cache holding at most `capacity` parked optimizers.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ..Self::default()
        }
    }

    /// Removes and returns the parked optimizer for `fp`, if any, with
    /// the harvest it was parked with.
    pub fn take(&mut self, fp: QueryFingerprint) -> Option<(IamaOptimizer, Option<Harvest>)> {
        match self.map.remove(&fp) {
            Some(parked) => {
                self.unindex(parked.rebase, fp);
                self.hits += 1;
                Some((parked.optimizer, parked.harvest))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Drops `fp` from the blind index's posting list for `key`.
    fn unindex(&mut self, key: RebaseKey, fp: QueryFingerprint) {
        if let Some(list) = self.blind.get_mut(&key) {
            list.retain(|&f| f != fp);
            if list.is_empty() {
                self.blind.remove(&key);
            }
        }
    }

    /// True if an optimizer is parked under `fp`. Does not count as a
    /// lookup (used by routers to probe for warmth without skewing the
    /// hit/miss statistics).
    pub fn contains(&self, fp: QueryFingerprint) -> bool {
        self.map.contains_key(&fp)
    }

    /// Parks an optimizer under `fp` with the sub-frontier harvest it was
    /// parked with, evicting the coldest entry if full. A fresher
    /// optimizer for the same fingerprint replaces the old one.
    pub fn put(
        &mut self,
        fp: QueryFingerprint,
        optimizer: IamaOptimizer,
        harvest: Option<Harvest>,
    ) {
        self.tick += 1;
        let tick = self.tick;
        let rebase = RebaseKey::of(optimizer.spec(), &optimizer.model());
        let slot = self.blind.entry(rebase).or_default();
        if !slot.contains(&fp) {
            slot.push(fp);
        }
        let inserted = self
            .map
            .insert(
                fp,
                Parked {
                    optimizer,
                    harvest,
                    tick,
                    rebase,
                },
            )
            .is_none();
        if inserted && self.map.len() > self.capacity {
            // One eviction restores the invariant (inserts grow the map
            // by at most one); scanning for the minimum tick is O(n) but
            // only runs when an optimizer is dropped anyway.
            if let Some(cold) = self
                .map
                .iter()
                .min_by_key(|(_, p)| p.tick)
                .map(|(fp, _)| *fp)
            {
                if let Some(parked) = self.map.remove(&cold) {
                    self.unindex(parked.rebase, cold);
                }
                self.evictions += 1;
            }
        }
    }

    /// Finds the most recently parked optimizer whose cardinality-blind
    /// key equals `key` — a **rebase donor**: same join-graph shape, row
    /// widths, filters, selectivities, metrics, and cost-model identity,
    /// different table cardinalities. The donor is returned by shared
    /// reference and stays parked (it can still serve an exact repeat of
    /// *its* statistics); the caller replays its plans into a cold
    /// optimizer via `IamaOptimizer::rebase_from`.
    pub fn rebase_donor(&mut self, key: RebaseKey) -> Option<&IamaOptimizer> {
        let best = self.blind.get(&key).and_then(|list| {
            list.iter()
                .max_by_key(|fp| self.map.get(fp).map(|p| p.tick).unwrap_or(0))
                .copied()
        });
        match best.and_then(|fp| self.map.get(&fp)) {
            Some(parked) => {
                self.rebase_hits += 1;
                Some(&parked.optimizer)
            }
            None => {
                self.rebase_misses += 1;
                None
            }
        }
    }

    /// True if a rebase donor is parked for `key`. Does not count as a
    /// lookup (router probe, like [`FrontierCache::contains`]).
    pub fn has_rebase_donor(&self, key: RebaseKey) -> bool {
        self.blind.get(&key).is_some_and(|l| !l.is_empty())
    }

    /// Visits every parked optimizer (persistence export). Order is
    /// unspecified; does not affect recency or the hit/miss counters.
    pub fn for_each_parked(&self, mut f: impl FnMut(QueryFingerprint, &IamaOptimizer)) {
        for (fp, parked) in &self.map {
            f(*fp, &parked.optimizer);
        }
    }

    /// The fingerprints of all parked optimizers, in unspecified order.
    pub fn parked_fingerprints(&self) -> Vec<QueryFingerprint> {
        self.map.keys().copied().collect()
    }

    /// Read-only access to one parked optimizer, if present. Does not
    /// affect recency or the hit/miss counters.
    pub fn parked(&self, fp: QueryFingerprint) -> Option<&IamaOptimizer> {
        self.map.get(&fp).map(|p| &p.optimizer)
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            rebase_hits: self.rebase_hits,
            rebase_misses: self.rebase_misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::IamaOptimizer;
    use moqo_cost::ResolutionSchedule;
    use moqo_costmodel::StandardCostModel;
    use moqo_query::testkit;
    use std::sync::Arc;

    fn opt_for(n: usize) -> (QueryFingerprint, IamaOptimizer) {
        let spec = Arc::new(testkit::chain_query(n, 10_000));
        let model = Arc::new(StandardCostModel::paper_metrics());
        let fp = QueryFingerprint::of(&spec, &*model);
        let opt = IamaOptimizer::new(spec, model, ResolutionSchedule::linear(2, 1.1, 0.4));
        (fp, opt)
    }

    #[test]
    fn take_transfers_ownership_and_counts() {
        let mut cache = FrontierCache::new(4);
        let (fp, opt) = opt_for(2);
        assert!(cache.take(fp).is_none());
        cache.put(fp, opt, None);
        assert_eq!(cache.stats().entries, 1);
        assert!(cache.contains(fp));
        assert!(cache.take(fp).is_some());
        assert!(cache.take(fp).is_none(), "take must remove the entry");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 0));
    }

    #[test]
    fn lru_eviction_drops_the_coldest() {
        let mut cache = FrontierCache::new(2);
        let (fp2, o2) = opt_for(2);
        let (fp3, o3) = opt_for(3);
        let (fp4, o4) = opt_for(4);
        cache.put(fp2, o2, None);
        cache.put(fp3, o3, None);
        cache.put(fp4, o4, None); // evicts fp2
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.take(fp2).is_none());
        assert!(cache.take(fp3).is_some());
        assert!(cache.take(fp4).is_some());
    }

    #[test]
    fn reput_refreshes_recency_without_eviction() {
        let mut cache = FrontierCache::new(2);
        let (fp2, o2) = opt_for(2);
        let (fp3, o3) = opt_for(3);
        cache.put(fp2, o2, None);
        cache.put(fp3, o3, None);
        // Re-parking fp2 must not evict anything and must make fp3 the
        // coldest entry.
        let (fp2b, o2b) = opt_for(2);
        assert_eq!(fp2, fp2b);
        cache.put(fp2b, o2b, None);
        assert_eq!(cache.stats().evictions, 0);
        let (fp4, o4) = opt_for(4);
        cache.put(fp4, o4, None); // evicts fp3, the least recently parked
        assert!(cache.take(fp3).is_none());
        assert!(cache.take(fp2).is_some());
        assert!(cache.take(fp4).is_some());
    }

    #[test]
    fn hammering_at_capacity_keeps_the_hottest_entries() {
        // Satellite regression: put/take churn at capacity must stay
        // consistent — the map and the recency bookkeeping cannot drift.
        let cap = 8;
        let mut cache = FrontierCache::new(cap);
        let pool: Vec<(QueryFingerprint, IamaOptimizer)> = (2..=12).map(opt_for).collect();
        let fps: Vec<QueryFingerprint> = pool.iter().map(|(fp, _)| *fp).collect();
        for (fp, opt) in pool {
            cache.put(fp, opt, None);
        }
        assert_eq!(cache.stats().entries, cap);
        // The cap most-recently-parked fingerprints survive, oldest die.
        for fp in &fps[..fps.len() - cap] {
            assert!(!cache.contains(*fp));
        }
        // Churn: repeatedly take a survivor and re-park it; the cache must
        // never exceed capacity, never lose the churned entry, and keep
        // hit/miss accounting exact.
        let hot = *fps.last().unwrap();
        for _ in 0..1000 {
            let (opt, _) = cache.take(hot).expect("hot entry must survive churn");
            cache.put(hot, opt, None);
            assert!(cache.stats().entries <= cap);
        }
        let s = cache.stats();
        assert_eq!(s.hits, 1000);
        assert_eq!(s.entries, cap);
        // The churned entry is now the most recent: filling with fresh
        // fingerprints evicts everything else first.
        let fresh: Vec<(QueryFingerprint, IamaOptimizer)> =
            (13..13 + cap - 1).map(opt_for).collect();
        for (fp, opt) in fresh {
            cache.put(fp, opt, None);
        }
        assert!(cache.contains(hot), "most recent entry evicted too early");
    }

    #[test]
    fn rebase_donor_finds_drifted_twins_and_tracks_eviction() {
        let model = Arc::new(StandardCostModel::paper_metrics());
        let mut cache = FrontierCache::new(4);
        let (fp, opt) = opt_for(3);
        let key = RebaseKey::of(opt.spec(), &*model);
        assert!(!cache.has_rebase_donor(key));
        assert!(cache.rebase_donor(key).is_none());
        cache.put(fp, opt, None);
        // A drifted-cardinality twin shares the blind key...
        let drifted = testkit::drift_cardinalities(&testkit::chain_query(3, 10_000), 5.5);
        let dkey = RebaseKey::of(&drifted, &*model);
        assert_eq!(key, dkey);
        assert!(cache.has_rebase_donor(dkey));
        let donor = cache.rebase_donor(dkey).expect("donor parked");
        // ...and the donor keeps its own statistics (it is a different
        // fingerprint, returned by reference, still parked).
        assert_eq!(
            donor
                .spec()
                .catalog
                .table(donor.spec().graph.tables[0])
                .cardinality,
            10_000
        );
        assert!(cache.contains(fp), "donor lookup must not unpark");
        // A different shape has no donor.
        let other = testkit::chain_query(4, 10_000);
        assert!(!cache.has_rebase_donor(RebaseKey::of(&other, &*model)));
        // take() unindexes: once the entry leaves, the donor is gone too.
        assert!(cache.take(fp).is_some());
        assert!(!cache.has_rebase_donor(key));
        assert!(cache.rebase_donor(key).is_none());
        let s = cache.stats();
        assert_eq!((s.rebase_hits, s.rebase_misses), (1, 2));
    }
}
