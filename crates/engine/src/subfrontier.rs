//! The sub-frontier cache: warm state below whole-query granularity.
//!
//! A parked optimizer in the [`crate::WarmStore`] only pays off on an
//! *exact* [`crate::QueryFingerprint`] hit, but production traffic is rarely
//! byte-identical — queries share join subgraphs. The paper's incremental
//! state is naturally per table subset (`Res^q`/`Cand^q`), so when a
//! session parks, the engine harvests each connected subset's state as a
//! position-independent blob (`IamaOptimizer::export_subset`) keyed by
//! [`crate::SubsetFingerprint`]. A later session over a *different* query
//! probes its own subsets here and seeds every hit: the transplanted
//! plans re-enter as level-0 candidates, re-costed at the door, so the
//! `alpha_T` guarantee is untouched while the seeded subsets skip plan
//! generation entirely.
//!
//! Blobs are immutable and shared by `Arc` — unlike parked optimizers
//! they can seed any number of concurrent sessions — and evicted LRU by
//! the same monotone-tick scheme as the frontier cache.
//!
//! A parked optimizer keeps the [`Harvest`] it was parked with. When it is
//! resumed and parks again with its state unchanged (a warm repeat that
//! generated, routed and retrieved nothing), the engine re-inserts those
//! same `Arc` blobs instead of encoding every subset again: the bytes
//! would be identical. Recency, insertion counts and eviction then move
//! exactly as a fresh harvest would move them, and a blob evicted
//! meanwhile comes back.

use crate::fingerprint::SubsetFingerprint;
use moqo_core::IamaOptimizer;
use moqo_index::FxHashMap;
use moqo_query::TableSet;
use std::sync::{Arc, Mutex};

/// Counters describing sub-frontier cache effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubFrontierCacheStats {
    /// Probes that found a transplantable blob.
    pub hits: u64,
    /// Probes that found nothing.
    pub misses: u64,
    /// Blobs harvested from parking sessions (re-harvests of an existing
    /// fingerprint count too; they refresh recency).
    pub insertions: u64,
    /// Blobs evicted because the cache was full.
    pub evictions: u64,
    /// Blobs currently cached.
    pub entries: usize,
}

/// The sub-frontier blobs one optimizer was parked with, in harvest order,
/// and the optimizer [generation](IamaOptimizer::generation) they were
/// encoded at. While the generation holds, they are exactly what a fresh
/// harvest of that optimizer would produce.
///
/// The harvest is also what a drifted twin rebases from (see
/// [`crate::WarmStore::rebase_seeds`]): each blob carries the table subset
/// it was exported from, which is the same subset in every query sharing
/// the parked optimizer's [`crate::RebaseKey`].
#[derive(Clone, Debug)]
pub struct Harvest {
    /// The optimizer generation the blobs were encoded at.
    pub generation: u64,
    /// One blob per harvested multi-table subset, keyed as cached, with
    /// the subset it encodes.
    pub blobs: Vec<(SubsetFingerprint, TableSet, Arc<Vec<u8>>)>,
}

impl Harvest {
    /// Encodes every multi-table subset of `optimizer` that holds plans.
    /// Singleton subsets are skipped: re-enumerating scans is cheaper than
    /// a cache round trip.
    pub fn of(optimizer: &IamaOptimizer) -> Self {
        let spec = optimizer.spec();
        let model = optimizer.model();
        let blobs = optimizer
            .enumeration()
            .subsets()
            .iter()
            .map(|info| info.tables)
            .filter(|tables| tables.len() >= 2)
            .filter_map(|tables| {
                let blob = optimizer.export_subset(tables)?;
                let fp = SubsetFingerprint::of(spec, tables, &*model);
                Some((fp, tables, Arc::new(blob)))
            })
            .collect();
        Self {
            generation: optimizer.generation(),
            blobs,
        }
    }
}

/// A cached blob plus the tick of its last touch (insert or hit).
struct Slot {
    blob: Arc<Vec<u8>>,
    tick: u64,
}

#[derive(Default)]
struct Inner {
    map: FxHashMap<SubsetFingerprint, Slot>,
    tick: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

/// Concurrent LRU cache of exported sub-frontier blobs keyed by
/// [`SubsetFingerprint`]. One instance is shared by every shard of a
/// `moqo-serve` deployment: sub-frontiers are position and query
/// independent, so cross-shard sharing is free and safe.
pub struct SubFrontierCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl SubFrontierCache {
    /// Creates a cache holding at most `capacity` blobs.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Returns the blob for `fp`, if cached. A hit refreshes recency and
    /// shares the blob (the caller re-validates and re-costs on import).
    pub fn get(&self, fp: SubsetFingerprint) -> Option<Arc<Vec<u8>>> {
        let mut inner = self.inner.lock().expect("sub-frontier cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&fp) {
            Some(slot) => {
                slot.tick = tick;
                let blob = Arc::clone(&slot.blob);
                inner.hits += 1;
                Some(blob)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Caches a harvested blob under `fp`, evicting the coldest entry if
    /// full. A re-harvest of the same fingerprint replaces the old blob
    /// and refreshes its recency.
    pub fn insert(&self, fp: SubsetFingerprint, blob: Arc<Vec<u8>>) {
        let mut inner = self.inner.lock().expect("sub-frontier cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        inner.insertions += 1;
        if inner.map.insert(fp, Slot { blob, tick }).is_none() && inner.map.len() > self.capacity {
            if let Some(cold) = inner
                .map
                .iter()
                .min_by_key(|(_, s)| s.tick)
                .map(|(fp, _)| *fp)
            {
                inner.map.remove(&cold);
                inner.evictions += 1;
            }
        }
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> SubFrontierCacheStats {
        let inner = self.inner.lock().expect("sub-frontier cache poisoned");
        SubFrontierCacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            entries: inner.map.len(),
        }
    }
}

impl Default for SubFrontierCache {
    /// A cache holding at most 1024 blobs, the capacity every engine runs.
    fn default() -> Self {
        Self::new(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_costmodel::StandardCostModel;
    use moqo_query::testkit;

    fn fp(n: usize, card: u64) -> SubsetFingerprint {
        let spec = testkit::chain_query(n, card);
        let model = StandardCostModel::paper_metrics();
        SubsetFingerprint::of(&spec, spec.all_tables(), &model)
    }

    #[test]
    fn hits_share_the_blob_and_count() {
        let cache = SubFrontierCache::new(4);
        let k = fp(3, 10_000);
        assert!(cache.get(k).is_none());
        cache.insert(k, Arc::new(vec![1, 2, 3]));
        let a = cache.get(k).expect("blob cached");
        let b = cache.get(k).expect("blob shared");
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.entries), (2, 1, 1, 1));
    }

    #[test]
    fn eviction_drops_the_coldest_blob() {
        let cache = SubFrontierCache::new(2);
        let (a, b, c) = (fp(2, 10_000), fp(3, 10_000), fp(4, 10_000));
        cache.insert(a, Arc::new(vec![0]));
        cache.insert(b, Arc::new(vec![1]));
        assert!(cache.get(a).is_some()); // refresh a; b is now coldest
        cache.insert(c, Arc::new(vec![2]));
        let s = cache.stats();
        assert_eq!((s.evictions, s.entries), (1, 2));
        assert!(cache.get(b).is_none());
        assert!(cache.get(a).is_some());
        assert!(cache.get(c).is_some());
    }
}
