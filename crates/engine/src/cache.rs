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
//!
//! [`WarmStore`] is the deployment's one home for warm state: the frontier
//! cache behind a mutex plus the [`SubFrontierCache`], shared by `Arc`
//! across every [`crate::SessionManager`] of a sharded deployment. Warm
//! state belongs to a query, not to a worker, so no fingerprint is ever
//! parked twice and no shard has to go looking for another's warmth.
//!
//! A memory miss may fall through to one slower tier: a serving layer
//! sets a [`MissLoader`] once ([`WarmStore::set_loader`]; `moqo-serve`'s
//! `SnapshotStore::attach` reads the fingerprint's snapshot file), and
//! [`WarmStore::take`] calls it with no lock held.
//!
//! A parked optimizer also serves as a **rebase donor** for submissions
//! that differ from it only in catalog cardinalities: a secondary index
//! by [`RebaseKey`] finds it, and [`WarmStore::rebase_seeds`] hands out
//! its harvest's shared blobs, which the twin imports through the same
//! seed door as a transplant. The donor itself never leaves the store, so
//! its exact repeat and any number of concurrent twins find it.

use crate::fingerprint::{QueryFingerprint, RebaseKey};
use crate::subfrontier::{Harvest, SubFrontierCache};
use moqo_core::IamaOptimizer;
use moqo_index::FxHashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Reads the optimizer of a fingerprint the store's memory does not
/// hold, from a slower tier; `None` is a miss. Installed once per store
/// with [`WarmStore::set_loader`].
pub type MissLoader = Box<dyn Fn(QueryFingerprint) -> Option<IamaOptimizer> + Send + Sync>;

/// Counters describing warm-store effectiveness, as one manager sees a
/// store it may share (see [`crate::SessionManager::cache_stats`]).
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
    /// [`WarmStore::rebase_seeds`]).
    pub rebase_hits: u64,
    /// Cardinality-blind donor lookups that found nothing.
    pub rebase_misses: u64,
}

/// A parked optimizer plus the tick of its last use.
struct Parked {
    optimizer: IamaOptimizer,
    /// The sub-frontier blobs the optimizer was parked with; handed back
    /// on `take` so an unchanged re-park can reuse them, and shared with
    /// drifted twins as rebase seeds.
    harvest: Harvest,
    /// Value of the cache's tick counter when this entry was last parked
    /// or rebased from. Strictly increasing, so the minimum identifies the
    /// least-recently-used entry without any ordering side structure.
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
pub(crate) struct FrontierCache {
    capacity: usize,
    map: FxHashMap<QueryFingerprint, Parked>,
    /// Secondary index for stats-drift near misses: cardinality-blind key
    /// → fingerprints of the parked optimizers sharing it. Maintained on
    /// every `put`/`take`/eviction, consulted only on a cold miss.
    blind: FxHashMap<RebaseKey, Vec<QueryFingerprint>>,
    /// Monotone recency clock; bumped on every `put` and rebase lookup.
    tick: u64,
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
    pub fn take(&mut self, fp: QueryFingerprint) -> Option<(IamaOptimizer, Harvest)> {
        let parked = self.map.remove(&fp)?;
        self.unindex(parked.rebase, fp);
        Some((parked.optimizer, parked.harvest))
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

    /// True if an optimizer is parked under `fp`.
    pub fn contains(&self, fp: QueryFingerprint) -> bool {
        self.map.contains_key(&fp)
    }

    /// Parks an optimizer under `fp` with the sub-frontier harvest it was
    /// parked with, evicting the coldest entry if full. A fresher
    /// optimizer for the same fingerprint replaces the old one. Returns
    /// true if an entry was evicted.
    pub fn put(
        &mut self,
        fp: QueryFingerprint,
        optimizer: IamaOptimizer,
        harvest: Harvest,
    ) -> bool {
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
        if !inserted || self.map.len() <= self.capacity {
            return false;
        }
        // One eviction restores the invariant (inserts grow the map by at
        // most one); scanning for the minimum tick is O(n) but only runs
        // when an optimizer is dropped anyway.
        let cold = self
            .map
            .iter()
            .min_by_key(|(_, p)| p.tick)
            .map(|(fp, _)| *fp)
            .expect("the map is over capacity");
        if let Some(parked) = self.map.remove(&cold) {
            self.unindex(parked.rebase, cold);
        }
        true
    }

    /// The harvest of the most recently used optimizer whose
    /// cardinality-blind key equals `key` — a **rebase donor** — sharing
    /// its blobs. The lookup refreshes the donor's recency, as a use.
    pub fn rebase_seeds(&mut self, key: RebaseKey) -> Option<Harvest> {
        let fp = self.blind.get(&key).and_then(|list| {
            list.iter()
                .max_by_key(|fp| self.map.get(fp).map(|p| p.tick).unwrap_or(0))
                .copied()
        })?;
        let donor = self.map.get_mut(&fp)?;
        self.tick += 1;
        donor.tick = self.tick;
        Some(donor.harvest.clone())
    }
}

/// Every warm byte of a deployment: parked optimizers with their rebase
/// index, and the sub-frontier blobs their park steps harvested.
///
/// The frontier lock is a leaf. It is held for map operations and the
/// closure of [`WarmStore::with_parked`] only — never while compacting,
/// harvesting or replaying an optimizer — and no caller takes an engine
/// state lock while holding it.
pub struct WarmStore {
    frontiers: Mutex<FrontierCache>,
    subfrontiers: SubFrontierCache,
    /// The tier a memory miss falls through to, if a serving layer set
    /// one.
    loader: OnceLock<MissLoader>,
}

impl WarmStore {
    /// A store parking at most `capacity` optimizers, under one LRU for
    /// every manager sharing it, beside the given sub-frontier cache.
    pub fn new(capacity: usize, subfrontiers: SubFrontierCache) -> Self {
        Self {
            frontiers: Mutex::new(FrontierCache::new(capacity)),
            subfrontiers,
            loader: OnceLock::new(),
        }
    }

    /// Sets the store's one [`MissLoader`]. Returns false, and drops
    /// `loader`, if a loader is already set.
    pub fn set_loader(&self, loader: MissLoader) -> bool {
        self.loader.set(loader).is_ok()
    }

    fn lock(&self) -> MutexGuard<'_, FrontierCache> {
        self.frontiers.lock().expect("warm store poisoned")
    }

    /// The sub-frontier blobs, probed by cold opens.
    pub fn subfrontiers(&self) -> &SubFrontierCache {
        &self.subfrontiers
    }

    /// The one park step, run on every optimizer entering the store:
    /// compacts it to the plans a resume can reach, puts its per-subset
    /// harvest into the sub-frontier cache, and parks it under `fp`.
    /// `kept` is the harvest a resumed optimizer was parked with; if the
    /// optimizer's generation has not moved since, its blobs are
    /// re-inserted as they are (in the same order, so the sub-frontier
    /// cache's recency and counters move exactly as for a fresh harvest),
    /// otherwise every subset is encoded afresh. Returns true if the park
    /// evicted an entry.
    pub fn park(
        &self,
        fp: QueryFingerprint,
        mut optimizer: IamaOptimizer,
        kept: Option<Harvest>,
    ) -> bool {
        optimizer.compact();
        let harvest = match kept {
            Some(kept) if kept.generation == optimizer.generation() => kept,
            _ => Harvest::of(&optimizer),
        };
        for (sfp, _, blob) in &harvest.blobs {
            self.subfrontiers.insert(*sfp, Arc::clone(blob));
        }
        self.lock().put(fp, optimizer, harvest)
    }

    /// Removes and returns the optimizer parked under `fp`, if any, with
    /// the harvest it was parked with: a hit transfers ownership to the
    /// new session, and the optimizer returns through
    /// [`WarmStore::park`] when that session ends.
    ///
    /// On a memory miss the [`MissLoader`], if one is set, is asked for
    /// `fp` after the lock is released. What it returns goes to the
    /// caller without being parked first, and with no harvest, so its
    /// session parks it with a fresh one.
    pub fn take(&self, fp: QueryFingerprint) -> Option<(IamaOptimizer, Option<Harvest>)> {
        let hit = self.lock().take(fp);
        match hit {
            Some((optimizer, harvest)) => Some((optimizer, Some(harvest))),
            None => self.loader.get()?(fp).map(|optimizer| (optimizer, None)),
        }
    }

    /// The seeds of a **rebase donor** for `key`: the harvest of the most
    /// recently used parked optimizer with the same join-graph shape, row
    /// widths, filters, selectivities, metrics and cost-model identity,
    /// but different table cardinalities.
    ///
    /// The blobs are shared (`Arc` clones taken under the store lock), and
    /// the donor's recency is refreshed as for any use. The donor stays
    /// parked: its exact repeat resumes warm, and every concurrent twin of
    /// its shape finds the same seeds. The caller imports them with
    /// [`moqo_core::SeedTier::Rebase`] and no lock held.
    pub fn rebase_seeds(&self, key: RebaseKey) -> Option<Harvest> {
        self.lock().rebase_seeds(key)
    }

    /// True if an optimizer is parked under `fp`.
    pub fn contains(&self, fp: QueryFingerprint) -> bool {
        self.lock().contains(fp)
    }

    /// Runs `f` over one parked optimizer under the store lock; `None` if
    /// nothing is parked for `fp`.
    pub fn with_parked<R>(
        &self,
        fp: QueryFingerprint,
        f: impl FnOnce(&IamaOptimizer) -> R,
    ) -> Option<R> {
        self.lock().map.get(&fp).map(|p| f(&p.optimizer))
    }

    /// Maps `f` over every parked optimizer, taking the store lock once
    /// **per entry**, so a long serialization sweep interleaves with opens
    /// and parks instead of stalling them. Entries taken by a racing open
    /// meanwhile are skipped (they are live again, not parked).
    pub fn map_parked<R>(
        &self,
        mut f: impl FnMut(QueryFingerprint, &IamaOptimizer) -> R,
    ) -> Vec<R> {
        let fps: Vec<QueryFingerprint> = self.lock().map.keys().copied().collect();
        fps.into_iter()
            .filter_map(|fp| self.with_parked(fp, |opt| f(fp, opt)))
            .collect()
    }

    /// Optimizers currently parked.
    pub fn entries(&self) -> usize {
        self.lock().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_core::IamaOptimizer;
    use moqo_cost::{Bounds, ResolutionSchedule};
    use moqo_costmodel::StandardCostModel;
    use moqo_query::{testkit, QuerySpec};
    use std::sync::Arc;

    fn opt_of(spec: QuerySpec) -> (QueryFingerprint, IamaOptimizer) {
        let spec = Arc::new(spec);
        let model = Arc::new(StandardCostModel::paper_metrics());
        let fp = QueryFingerprint::of(&spec, &*model);
        let opt = IamaOptimizer::new(spec, model, ResolutionSchedule::linear(2, 1.1, 0.4));
        (fp, opt)
    }

    fn opt_for(n: usize) -> (QueryFingerprint, IamaOptimizer) {
        opt_of(testkit::chain_query(n, 10_000))
    }

    /// Parks `opt` with the harvest a park step would give it.
    fn put(cache: &mut FrontierCache, fp: QueryFingerprint, opt: IamaOptimizer) -> bool {
        let harvest = Harvest::of(&opt);
        cache.put(fp, opt, harvest)
    }

    #[test]
    fn take_transfers_ownership_and_counts() {
        let mut cache = FrontierCache::new(4);
        let (fp, opt) = opt_for(2);
        assert!(cache.take(fp).is_none());
        assert!(!put(&mut cache, fp, opt));
        assert_eq!(cache.map.len(), 1);
        assert!(cache.contains(fp));
        assert!(cache.take(fp).is_some());
        assert!(cache.take(fp).is_none(), "take must remove the entry");
        assert!(cache.map.is_empty() && cache.blind.is_empty());
    }

    #[test]
    fn lru_eviction_drops_the_coldest() {
        let mut cache = FrontierCache::new(2);
        let (fp2, o2) = opt_for(2);
        let (fp3, o3) = opt_for(3);
        let (fp4, o4) = opt_for(4);
        assert!(!put(&mut cache, fp2, o2));
        assert!(!put(&mut cache, fp3, o3));
        assert!(put(&mut cache, fp4, o4), "fp2 must be evicted");
        assert!(cache.take(fp2).is_none());
        assert!(cache.take(fp3).is_some());
        assert!(cache.take(fp4).is_some());
    }

    #[test]
    fn reput_refreshes_recency_without_eviction() {
        let mut cache = FrontierCache::new(2);
        let (fp2, o2) = opt_for(2);
        let (fp3, o3) = opt_for(3);
        put(&mut cache, fp2, o2);
        put(&mut cache, fp3, o3);
        // Re-parking fp2 must not evict anything and must make fp3 the
        // coldest entry.
        let (fp2b, o2b) = opt_for(2);
        assert_eq!(fp2, fp2b);
        assert!(!put(&mut cache, fp2b, o2b), "a re-park evicts nothing");
        let (fp4, o4) = opt_for(4);
        assert!(put(&mut cache, fp4, o4)); // evicts fp3, the least recently parked
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
            put(&mut cache, fp, opt);
        }
        assert_eq!(cache.map.len(), cap);
        // The cap most-recently-parked fingerprints survive, oldest die.
        for fp in &fps[..fps.len() - cap] {
            assert!(!cache.contains(*fp));
        }
        // Churn: repeatedly take a survivor and re-park it; the cache must
        // never exceed capacity, never lose the churned entry, and never
        // evict on the re-park.
        let hot = *fps.last().unwrap();
        for _ in 0..1000 {
            let (opt, harvest) = cache.take(hot).expect("hot entry must survive churn");
            assert!(!cache.put(hot, opt, harvest));
            assert!(cache.map.len() <= cap);
        }
        assert_eq!(cache.map.len(), cap);
        // The churned entry is now the most recent: filling with fresh
        // fingerprints evicts everything else first.
        let fresh: Vec<(QueryFingerprint, IamaOptimizer)> =
            (13..13 + cap - 1).map(opt_for).collect();
        for (fp, opt) in fresh {
            put(&mut cache, fp, opt);
        }
        assert!(cache.contains(hot), "most recent entry evicted too early");
    }

    #[test]
    fn rebase_seeds_share_the_donor_harvest_and_leave_it_parked() {
        let model = StandardCostModel::paper_metrics();
        let mut cache = FrontierCache::new(2);
        let (fp, mut opt) = opt_for(3);
        for r in 0..=opt.schedule().r_max() {
            opt.optimize(&Bounds::unbounded(3), r);
        }
        let key = RebaseKey::of(opt.spec(), &model);
        assert!(cache.rebase_seeds(key).is_none());
        let harvest = Harvest::of(&opt);
        assert!(!harvest.blobs.is_empty(), "a refined chain harvests blobs");
        cache.put(fp, opt, harvest.clone());
        // A drifted-cardinality twin shares the blind key...
        let drifted = testkit::drift_cardinalities(&testkit::chain_query(3, 10_000), 5.5);
        let dkey = RebaseKey::of(&drifted, &model);
        assert_eq!(key, dkey);
        // ...and gets the donor's blobs, with their subsets, shared.
        let seeds = cache.rebase_seeds(dkey).expect("donor parked");
        assert_eq!(seeds.generation, harvest.generation);
        assert_eq!(seeds.blobs.len(), harvest.blobs.len());
        for ((sfp, tables, blob), (hfp, htables, hblob)) in seeds.blobs.iter().zip(&harvest.blobs) {
            assert_eq!((sfp, tables), (hfp, htables));
            assert!(Arc::ptr_eq(blob, hblob), "seeds share the parked blobs");
        }
        // The donor stays parked and indexed, and the lookup counts as a
        // use: a second entry parked after the donor is now the coldest.
        assert!(cache.contains(fp) && cache.rebase_seeds(key).is_some());
        let (fp4, o4) = opt_for(4);
        put(&mut cache, fp4, o4);
        assert!(cache.rebase_seeds(key).is_some());
        let (fp5, o5) = opt_for(5);
        assert!(put(&mut cache, fp5, o5));
        assert!(cache.contains(fp) && !cache.contains(fp4));
        // Eviction unindexes: the evicted shape has no donor left.
        let other = testkit::chain_query(4, 10_000);
        assert!(cache.rebase_seeds(RebaseKey::of(&other, &model)).is_none());
        assert!(cache.take(fp5).is_some());
        // Of two donors for one key, the most recently used seeds.
        let (dfp, twin) = opt_of(drifted);
        put(&mut cache, dfp, twin);
        assert!(cache.rebase_seeds(key).unwrap().blobs.is_empty());
        // take() unindexes: once the entries leave, the donor is gone too.
        assert!(cache.take(fp).is_some() && cache.take(dfp).is_some());
        assert!(cache.rebase_seeds(key).is_none());
    }
}
