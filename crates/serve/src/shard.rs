//! Fingerprint-sharded session placement over one warm store.
//!
//! One [`SessionManager`] saturates at some number of concurrent sessions:
//! every submission, event, and slice check-in crosses its single state
//! lock. [`ShardedEngine`] runs N managers and routes each submission by
//! its [`QueryFingerprint`] hash, so session lock traffic divides by N.
//!
//! Warm state is not sharded. All shards park into and warm-start from
//! one [`WarmStore`] — the parked optimizers with their rebase index, and
//! the sub-frontier blobs — because in the paper incremental state
//! belongs to a query, not to a worker. A fingerprint is parked at most
//! once in the whole deployment, and a repeat finds its frontier whatever
//! shard ran it last. Only the enumeration-plan caches stay per shard:
//! plans are cheap to rebuild, and equal shapes with equal statistics
//! hash to the same shard anyway.
//!
//! Routing reads load only. A fingerprint homes at `fp % shards`, which
//! spreads load without reading every shard's load and keeps a query's
//! repeats on one shard's plan cache. When home is busier than the
//! least-loaded shard by [`ShardConfig::rebalance_headroom`] sessions or
//! more, the submission goes to that shard instead. Routing never looks
//! at the store: the shard's [`SessionManager::open`] is the one place
//! that decides whether a session resumes, rebases or starts cold
//! ([`SessionStatus::warm_start`], [`SessionStatus::rebased`]). A diverted
//! submission forfeits nothing, because every shard reads the same store.

use moqo_core::protocol::{
    ProtocolError, SessionCommand, SessionEvent, SessionRequest, ValidRequest,
};
use moqo_core::{FrontierSnapshot, IamaOptimizer};
use moqo_cost::{Bounds, ResolutionSchedule};
use moqo_costmodel::{CostModel, SharedCostModel};
use moqo_engine::{
    CacheStats, Doorbell, EngineConfig, PlanCacheStats, QueryFingerprint, SessionId,
    SessionManager, SessionStatus, SubFrontierCache, SubFrontierCacheStats, WarmStore,
};
use moqo_query::QuerySpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tunables of the sharded serving front.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of [`SessionManager`] shards. At least 1.
    pub shards: usize,
    /// Engine configuration applied to every shard (worker count, cache
    /// capacity, ...). The shared store parks `shards × cache_capacity`
    /// optimizers.
    pub engine: EngineConfig,
    /// How many live sessions a submission's home shard may exceed the
    /// least-loaded shard by before the router diverts the submission
    /// there. `0` disables rebalancing (strict hash placement).
    pub rebalance_headroom: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            engine: EngineConfig::default(),
            rebalance_headroom: 8,
        }
    }
}

/// A session address within a [`ShardedEngine`]: shard plus the shard's
/// local session id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalSessionId {
    /// The shard owning the session.
    pub shard: usize,
    /// The session id within that shard's manager.
    pub local: SessionId,
}

/// Per-shard load and effectiveness snapshot.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Admitted, not-yet-finished sessions.
    pub live: usize,
    /// This shard's view of the shared warm store: hits, misses and
    /// rebase lookups count the shard's opens, evictions count those its
    /// parks caused (a frontier parked through [`ShardedEngine::park`]
    /// parks through its home shard), and `entries` is the **whole
    /// store's** count, the same on every shard.
    pub cache: CacheStats,
    /// The shard's enumeration-plan cache counters.
    pub plans: PlanCacheStats,
    /// Opens on this shard that resumed a parked frontier (the same
    /// count as `cache.hits`).
    pub warm_routed: u64,
    /// Submissions diverted here from an overloaded home shard.
    pub rebalanced_in: u64,
}

/// N [`SessionManager`]s sharing one [`WarmStore`] behind a
/// fingerprint-hash router; see the module docs for the placement policy.
pub struct ShardedEngine {
    shards: Vec<SessionManager>,
    rebalanced_in: Vec<AtomicU64>,
    store: Arc<WarmStore>,
    model: SharedCostModel,
    schedule: ResolutionSchedule,
    rebalance_headroom: usize,
}

impl ShardedEngine {
    /// Starts `config.shards` managers, each with its own worker pool and
    /// plan cache, over one warm store of `shards × cache_capacity`
    /// parked optimizers.
    pub fn new(model: SharedCostModel, schedule: ResolutionSchedule, config: ShardConfig) -> Self {
        let n = config.shards.max(1);
        let store = Arc::new(WarmStore::new(
            n * config.engine.cache_capacity,
            SubFrontierCache::default(),
        ));
        let shards = (0..n)
            .map(|_| {
                SessionManager::with_store(
                    model.clone(),
                    schedule.clone(),
                    config.engine.clone(),
                    Arc::clone(&store),
                )
            })
            .collect();
        Self {
            shards,
            rebalanced_in: (0..n).map(|_| AtomicU64::new(0)).collect(),
            store,
            model,
            schedule,
            rebalance_headroom: config.rebalance_headroom,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shared handle to the deployment-wide cost model.
    pub fn model(&self) -> SharedCostModel {
        self.model.clone()
    }

    /// The deployment-wide resolution ladder.
    pub fn schedule(&self) -> &ResolutionSchedule {
        &self.schedule
    }

    /// The deployment's one warm store, shared by every shard.
    pub fn store(&self) -> &WarmStore {
        &self.store
    }

    /// Canonical fingerprint of a query under this engine's default cost
    /// model — the routing and cache key. Requests with a per-session
    /// model override route under [`ShardedEngine::fingerprint_of`]
    /// instead.
    pub fn fingerprint(&self, spec: &QuerySpec) -> QueryFingerprint {
        QueryFingerprint::of(spec, &self.model)
    }

    /// The fingerprint a request routes and caches under: its query spec
    /// plus its *effective* cost model (the request override if present,
    /// the engine default otherwise).
    pub fn fingerprint_of(&self, request: &SessionRequest) -> QueryFingerprint {
        QueryFingerprint::of(&request.spec, &request.effective_model(&self.model))
    }

    /// The deterministic home shard of a fingerprint: a pure function of
    /// `(fingerprint, shard count)`, identical across engine instances.
    pub fn home_shard(&self, fp: QueryFingerprint) -> usize {
        (fp.as_u64() % self.shards.len() as u64) as usize
    }

    /// The shard a submission of `fp` runs on: home, unless home is
    /// overloaded, in which case the least-loaded shard takes it.
    fn route(&self, fp: QueryFingerprint) -> usize {
        let home = self.home_shard(fp);
        if self.rebalance_headroom == 0 {
            return home;
        }
        // A home with fewer than `rebalance_headroom` live sessions cannot
        // be that much busier than any shard, so only a busier home reads
        // the other shards' loads (each read takes that shard's state
        // lock).
        let home_load = self.shards[home].live_sessions();
        if home_load < self.rebalance_headroom {
            return home;
        }
        let (coolest, min_load) = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.live_sessions()))
            .min_by_key(|&(_, load)| load)
            .expect("at least one shard");
        if coolest != home && home_load >= min_load + self.rebalance_headroom {
            self.rebalanced_in[coolest].fetch_add(1, Ordering::Relaxed);
            return coolest;
        }
        home
    }

    /// Admits a session with every default in place.
    pub fn submit(&self, spec: Arc<QuerySpec>) -> GlobalSessionId {
        self.open(SessionRequest::new(spec))
            .expect("a bare request has nothing to validate")
    }

    /// Admits a session from a protocol [`SessionRequest`] (per-session
    /// bounds, schedule, preference, cost model, refinement budget),
    /// routed by its effective fingerprint. Malformed requests are a
    /// typed [`ProtocolError`] at the door.
    pub fn open(&self, request: SessionRequest) -> Result<GlobalSessionId, ProtocolError> {
        let dim = request.effective_model(&self.model).dim();
        Ok(self.admit(request.validated(dim)?))
    }

    /// [`ShardedEngine::open`] for a request an outer layer already
    /// validated; the shard admits it without checking again.
    ///
    /// # Panics
    /// As [`SessionManager::admit`].
    pub fn admit(&self, request: ValidRequest) -> GlobalSessionId {
        let shard = self.route(self.fingerprint_of(request.request()));
        let local = self.shards[shard].admit(request);
        GlobalSessionId { shard, local }
    }

    fn shard(&self, id: GlobalSessionId) -> Option<&SessionManager> {
        self.shards.get(id.shard)
    }

    /// Snapshot of one session's current state.
    pub fn status(&self, id: GlobalSessionId) -> Option<SessionStatus> {
        self.shard(id)?.status(id.local)
    }

    /// The currently visualized frontier of one session.
    pub fn frontier(&self, id: GlobalSessionId) -> Option<FrontierSnapshot> {
        self.shard(id)?.frontier(id.local)
    }

    /// Routes a [`SessionCommand`] to the owning shard's session.
    pub fn command(
        &self,
        id: GlobalSessionId,
        command: SessionCommand,
    ) -> Result<(), ProtocolError> {
        self.shard(id)
            .ok_or(ProtocolError::UnknownSession)?
            .command(id.local, command)
    }

    /// Subscribes to a session's delta-streamed [`SessionEvent`]s,
    /// ringing `doorbell` once per event after the prime (see
    /// [`SessionManager::watch`]).
    pub fn watch(
        &self,
        id: GlobalSessionId,
        doorbell: Option<Doorbell>,
    ) -> Option<mpsc::Receiver<SessionEvent>> {
        self.shard(id)?.watch(id.local, doorbell)
    }

    /// Retires a session, parking its optimizer in the warm store with no
    /// engine lock held, and returns its final status, which stays
    /// queryable through [`ShardedEngine::status`] (see
    /// [`SessionManager::finish`]).
    pub fn finish(&self, id: GlobalSessionId) -> Option<SessionStatus> {
        self.shard(id)?.finish(id.local)
    }

    /// Blocks until every shard has drained. Returns `false` on timeout.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        self.shards.iter().all(|s| {
            let left = deadline.saturating_duration_since(Instant::now());
            s.wait_idle(left)
        })
    }

    /// Total live sessions across all shards.
    pub fn live_sessions(&self) -> usize {
        self.shards.iter().map(|s| s.live_sessions()).sum()
    }

    /// Per-shard load and routing statistics.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .zip(&self.rebalanced_in)
            .enumerate()
            .map(|(i, (s, rebalanced_in))| {
                let cache = s.cache_stats();
                ShardStats {
                    shard: i,
                    live: s.live_sessions(),
                    cache,
                    plans: s.plan_cache_stats(),
                    warm_routed: cache.hits,
                    rebalanced_in: rebalanced_in.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Effectiveness counters of the deployment-wide sub-frontier cache.
    pub fn subfrontier_stats(&self) -> SubFrontierCacheStats {
        self.store.subfrontiers().stats()
    }

    /// Parks an optimizer in the warm store through the fingerprint's
    /// home shard, which counts any eviction the park causes — the
    /// restore hook: future submissions of the fingerprint start warm on
    /// whichever shard they run.
    pub fn park(&self, fp: QueryFingerprint, optimizer: IamaOptimizer) {
        self.shards[self.home_shard(fp)].park(fp, optimizer);
    }

    /// True if the store parks a warm frontier for `fp`.
    pub fn has_parked(&self, fp: QueryFingerprint) -> bool {
        self.store.contains(fp)
    }

    /// Unbounded initial bounds under the engine's cost model.
    pub fn unbounded(&self) -> Bounds {
        Bounds::unbounded(self.model.dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_cost::CostVector;
    use moqo_costmodel::{PlanInput, StandardCostModel};
    use moqo_plan::{Operator, PhysicalProps};
    use moqo_query::testkit;
    use std::sync::atomic::AtomicBool;
    use std::sync::{Condvar, Mutex};
    use std::thread;

    const IDLE: Duration = Duration::from_secs(60);

    fn engine(shards: usize) -> ShardedEngine {
        ShardedEngine::new(
            Arc::new(StandardCostModel::paper_metrics()),
            ResolutionSchedule::linear(2, 1.1, 0.4),
            ShardConfig {
                shards,
                engine: EngineConfig {
                    workers: 2,
                    ..EngineConfig::default()
                },
                rebalance_headroom: 8,
            },
        )
    }

    #[test]
    fn home_shard_is_deterministic_across_instances() {
        // Satellite requirement: equal shard counts ⇒ identical mapping,
        // across engine instances.
        let a = engine(4);
        let b = engine(4);
        for n in 2..=9 {
            let spec = testkit::chain_query(n, 10_000 * n as u64);
            let fp = a.fingerprint(&spec);
            assert_eq!(a.home_shard(fp), b.home_shard(fp), "n={n}");
            assert_eq!(fp.as_u64() % 4, a.home_shard(fp) as u64);
        }
    }

    #[test]
    fn repeated_fingerprint_routes_to_its_warm_shard() {
        let e = engine(4);
        let spec = Arc::new(testkit::chain_query(3, 120_000));
        let home = e.home_shard(e.fingerprint(&spec));
        let gid = e.submit(spec.clone());
        assert_eq!(gid.shard, home);
        assert!(e.wait_idle(IDLE));
        assert!(!e.status(gid).unwrap().warm_start);
        e.finish(gid).unwrap();
        // Nothing is overloaded, so the repeat goes home too, and starts
        // warm.
        let gid2 = e.submit(spec);
        assert_eq!(gid2.shard, home);
        assert!(e.wait_idle(IDLE));
        let s = e.status(gid2).unwrap();
        assert!(s.warm_start);
        assert_eq!(s.first_report.unwrap().plans_generated, 0);
        let stats = e.shard_stats();
        assert_eq!(stats[home].warm_routed, 1);
        assert_eq!(stats[home].cache.hits, 1);
        assert_eq!(stats.iter().map(|s| s.warm_routed).sum::<u64>(), 1);
        assert_eq!(stats.iter().map(|s| s.rebalanced_in).sum::<u64>(), 0);
    }

    #[test]
    fn an_overloaded_home_diverts_cold_and_warm_submissions() {
        // headroom 3: pile sessions onto one shard's hash bucket until a
        // cold stranger diverts, then verify its warm repeat diverts too
        // and still resumes warm.
        let e = ShardedEngine::new(
            Arc::new(StandardCostModel::paper_metrics()),
            ResolutionSchedule::linear(2, 1.1, 0.4),
            ShardConfig {
                shards: 2,
                engine: EngineConfig {
                    workers: 1,
                    // Park nothing automatically: sessions stay live until
                    // finished, keeping the load imbalance visible.
                    ..EngineConfig::default()
                },
                rebalance_headroom: 3,
            },
        );
        // Find specs hashing to shard 0 until we exceed the headroom.
        let mut loaded = 0usize;
        let mut card = 10_000u64;
        while loaded < 3 {
            card += 17;
            let spec = Arc::new(testkit::chain_query(3, card));
            if e.home_shard(e.fingerprint(&spec)) == 0 {
                let gid = e.submit(spec);
                assert_eq!(gid.shard, 0);
                loaded += 1;
            }
        }
        // A cold spec homing to shard 0 now diverts to shard 1.
        let mut diverted = None;
        while diverted.is_none() {
            card += 17;
            let spec = Arc::new(testkit::chain_query(3, card));
            let fp = e.fingerprint(&spec);
            if e.home_shard(fp) == 0 {
                let gid = e.submit(spec.clone());
                assert_eq!(gid.shard, 1);
                diverted = Some((spec, gid));
            }
        }
        let rebalanced_in = |e: &ShardedEngine| -> Vec<u64> {
            e.shard_stats().iter().map(|s| s.rebalanced_in).collect()
        };
        assert_eq!(rebalanced_in(&e), vec![0, 1]);
        assert!(e.wait_idle(IDLE));
        let (spec, gid) = diverted.unwrap();
        assert!(!e.status(gid).unwrap().warm_start);
        // The diverted session finishes on shard 1 and parks its frontier
        // in the shared store. Shard 0 is still overloaded, so the repeat
        // diverts as well, and resumes the frontier from the shared store.
        let fp = e.fingerprint(&spec);
        e.finish(gid).unwrap();
        assert!(e.has_parked(fp));
        let gid2 = e.submit(spec);
        assert_eq!(gid2.shard, 1);
        assert_eq!(rebalanced_in(&e), vec![0, 2]);
        assert!(e.wait_idle(IDLE));
        let s = e.status(gid2).unwrap();
        assert!(s.warm_start);
        assert_eq!(s.first_report.unwrap().plans_generated, 0);
        let warm: Vec<u64> = e.shard_stats().iter().map(|s| s.warm_routed).collect();
        assert_eq!(warm, vec![0, 1], "the warm open counts where it ran");
    }

    /// Per shard: (hits, misses, rebase hits, rebase misses).
    fn lookups(e: &ShardedEngine) -> Vec<(u64, u64, u64, u64)> {
        e.shard_stats()
            .iter()
            .map(|s| {
                let c = s.cache;
                (c.hits, c.misses, c.rebase_hits, c.rebase_misses)
            })
            .collect()
    }

    #[test]
    fn drifted_statistics_route_to_the_rebase_donor_shard() {
        let e = engine(4);
        // The lookups each open should count on the shard it ran on.
        let mut expected = vec![(0, 0, 0, 0); 4];
        let spec = Arc::new(testkit::chain_query(4, 90_000));
        let gid = e.submit(spec.clone());
        assert_eq!(gid.shard, e.home_shard(e.fingerprint(&spec)));
        expected[gid.shard].1 += 1;
        expected[gid.shard].3 += 1;
        assert!(e.wait_idle(IDLE));
        e.finish(gid).unwrap();
        assert_eq!(lookups(&e), expected, "the cold open misses both lookups");

        // A stats-refresh twin: the exact fingerprint misses, but the
        // twin's open finds the parked donor by its cardinality-blind key.
        // The twin goes to its own home, which reads the same store.
        let drifted = Arc::new(testkit::drift_cardinalities(&spec, 1.08));
        let twin_home = e.home_shard(e.fingerprint(&drifted));
        let gid2 = e.submit(drifted);
        assert_eq!(gid2.shard, twin_home);
        expected[twin_home].1 += 1;
        expected[twin_home].2 += 1;
        assert!(e.wait_idle(IDLE));
        let s = e.status(gid2).unwrap();
        assert!(s.rebased && !s.warm_start, "the twin did not rebase: {s:?}");
        assert!(!s.frontier.is_empty());
        assert_eq!(lookups(&e), expected, "the twin's open finds the donor");

        // Another shape finds neither an exact frontier nor a donor.
        let gid3 = e.submit(Arc::new(testkit::chain_query(5, 90_000)));
        let s = e.status(gid3).unwrap();
        assert!(!s.rebased && !s.warm_start, "{s:?}");
        expected[gid3.shard].1 += 1;
        expected[gid3.shard].3 += 1;
        assert_eq!(lookups(&e), expected, "another shape misses both lookups");

        // The donor is still parked for exact repeats of its own stats,
        // and its repeat is an exact hit.
        assert!(e.has_parked(e.fingerprint(&spec)));
        let gid4 = e.submit(spec);
        assert_eq!(gid4.shard, gid.shard);
        assert!(e.status(gid4).unwrap().warm_start);
        expected[gid.shard].0 += 1;
        assert_eq!(lookups(&e), expected, "the donor's repeat hits");
        assert!(e.wait_idle(IDLE));
    }

    #[test]
    fn sub_frontiers_cross_shard_boundaries() {
        // The sub-frontier cache is deployment-wide: a donor finishing on
        // one shard seeds a similar query that hashes to another. With 8
        // shards the two chain fingerprints land apart with near
        // certainty; the assert tolerates a collision by checking seeding
        // regardless of placement.
        let e = engine(8);
        let small = Arc::new(testkit::chain_query(5, 60_000));
        let big = Arc::new(testkit::chain_query(7, 60_000));
        let gid = e.submit(small);
        assert!(e.wait_idle(IDLE));
        e.finish(gid).unwrap();
        assert!(e.subfrontier_stats().entries > 0);

        let gid2 = e.submit(big);
        assert!(e.wait_idle(IDLE));
        let s = e.status(gid2).unwrap();
        assert!(!s.warm_start && !s.rebased, "different query shape");
        assert!(
            s.seeded_subsets > 0,
            "shared subchains must transplant across shards: {s:?}"
        );
        assert!(e.subfrontier_stats().hits > 0);
    }

    #[test]
    fn one_fingerprint_on_two_shards_parks_once() {
        // headroom 1: the second concurrent submission of one cold
        // fingerprint diverts away from its busy home, so two sessions of
        // the same query run on two shards at once.
        let e = ShardedEngine::new(
            Arc::new(StandardCostModel::paper_metrics()),
            ResolutionSchedule::linear(2, 1.1, 0.4),
            ShardConfig {
                shards: 2,
                engine: EngineConfig {
                    workers: 1,
                    ..EngineConfig::default()
                },
                rebalance_headroom: 1,
            },
        );
        let spec = Arc::new(testkit::chain_query(3, 66_000));
        let a = e.submit(spec.clone());
        let b = e.submit(spec.clone());
        assert_eq!(a.shard, e.home_shard(e.fingerprint(&spec)));
        assert_ne!(a.shard, b.shard);
        assert_eq!(e.shard_stats()[b.shard].rebalanced_in, 1);
        assert!(e.wait_idle(IDLE));
        e.finish(a).unwrap();
        e.finish(b).unwrap();
        assert_eq!(e.store().entries(), 1);
        for shard in e.shard_stats() {
            assert_eq!(shard.cache.entries, 1, "entries is the store's total");
        }
        assert!(e.has_parked(e.fingerprint(&spec)));
    }

    #[test]
    fn shards_pool_their_cache_capacity() {
        // 2 shards × capacity 2: four fingerprints stay parked wherever
        // they homed, and a fifth evicts the least recently parked.
        let e = ShardedEngine::new(
            Arc::new(StandardCostModel::paper_metrics()),
            ResolutionSchedule::linear(2, 1.1, 0.4),
            ShardConfig {
                shards: 2,
                engine: EngineConfig {
                    workers: 1,
                    cache_capacity: 2,
                },
                rebalance_headroom: 0,
            },
        );
        let specs: Vec<Arc<QuerySpec>> = (0..5)
            .map(|i| Arc::new(testkit::chain_query(3, 50_000 + 1_000 * i)))
            .collect();
        let fps: Vec<QueryFingerprint> = specs.iter().map(|s| e.fingerprint(s)).collect();
        for (n, spec) in specs.iter().enumerate() {
            let gid = e.submit(spec.clone());
            assert!(e.wait_idle(IDLE));
            e.finish(gid).unwrap();
            let parked = fps[..=n].iter().filter(|&&fp| e.has_parked(fp)).count();
            assert_eq!(parked, (n + 1).min(4), "after {} parks", n + 1);
        }
        assert!(!e.has_parked(fps[0]), "the least recently parked goes");
        assert!(fps[1..].iter().all(|&fp| e.has_parked(fp)));
        // Five shapes' worth of statistics (each chain's selectivity
        // follows its cardinality): every open misses both lookups, on
        // the shard it homed at.
        let mut expected = vec![(0, 0, 0, 0); 2];
        for &fp in &fps {
            let home = &mut expected[e.home_shard(fp)];
            home.1 += 1;
            home.3 += 1;
        }
        assert_eq!(lookups(&e), expected);
        let evictions = |e: &ShardedEngine| -> Vec<u64> {
            e.shard_stats().iter().map(|s| s.cache.evictions).collect()
        };
        let mut expected = vec![0; 2];
        expected[e.home_shard(fps[4])] += 1;
        assert_eq!(evictions(&e), expected, "the fifth park evicted");
        // A restored frontier parks through its home shard, which counts
        // the eviction it causes.
        let restored = Arc::new(testkit::chain_query(3, 56_000));
        let fp = e.fingerprint(&restored);
        e.park(
            fp,
            IamaOptimizer::new(restored, e.model(), e.schedule().clone()),
        );
        assert!(e.has_parked(fp) && !e.has_parked(fps[1]));
        expected[e.home_shard(fp)] += 1;
        assert_eq!(evictions(&e), expected, "the restore evicted");
    }

    /// The name of the thread whose seed replay [`GatedModel`] blocks.
    const REPLAY: &str = "rebase-replay";

    /// Holds the [`REPLAY`] thread inside `join_alternatives` while armed.
    #[derive(Default)]
    struct Gate {
        armed: AtomicBool,
        /// (a replay is blocked at the gate, the gate was released)
        state: Mutex<(bool, bool)>,
        changed: Condvar,
    }

    impl Gate {
        fn pass(&self) {
            if !self.armed.load(Ordering::SeqCst) || thread::current().name() != Some(REPLAY) {
                return;
            }
            let mut state = self.state.lock().unwrap();
            state.0 = true;
            self.changed.notify_all();
            while !state.1 {
                state = self.changed.wait(state).unwrap();
            }
        }

        fn wait_blocked(&self) -> bool {
            let state = self.state.lock().unwrap();
            let (state, _) = self
                .changed
                .wait_timeout_while(state, IDLE, |s| !s.0)
                .unwrap();
            state.0
        }

        fn release(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    /// Releases the gate when dropped, so a failing assert cannot leave
    /// the replay thread parked forever.
    struct Release(Arc<Gate>);

    impl Drop for Release {
        fn drop(&mut self) {
            self.0.release();
        }
    }

    /// The standard model, costing joins only once the gate lets the
    /// calling thread pass.
    struct GatedModel {
        inner: StandardCostModel,
        gate: Arc<Gate>,
    }

    impl CostModel for GatedModel {
        fn metrics(&self) -> &moqo_costmodel::MetricSet {
            self.inner.metrics()
        }

        fn identity(&self) -> u64 {
            self.inner.identity()
        }

        fn scan_alternatives(
            &self,
            spec: &QuerySpec,
            position: usize,
        ) -> Vec<(Operator, CostVector, PhysicalProps)> {
            self.inner.scan_alternatives(spec, position)
        }

        fn join_alternatives(
            &self,
            spec: &QuerySpec,
            left: &PlanInput,
            right: &PlanInput,
            out: &mut Vec<(Operator, CostVector, PhysicalProps)>,
        ) {
            self.gate.pass();
            self.inner.join_alternatives(spec, left, right, out)
        }
    }

    /// Runs `f` on its own thread and fails unless it returns within 5 s.
    fn within_5s<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("{what} blocked behind a seed replay"))
    }

    /// A two-shard engine over [`GatedModel`] with a donor chain parked.
    fn gated_engine_with_donor(gate: &Arc<Gate>) -> (Arc<ShardedEngine>, Arc<QuerySpec>) {
        let model = GatedModel {
            inner: StandardCostModel::paper_metrics(),
            gate: Arc::clone(gate),
        };
        let e = Arc::new(ShardedEngine::new(
            Arc::new(model),
            ResolutionSchedule::linear(2, 1.1, 0.4),
            ShardConfig {
                shards: 2,
                engine: EngineConfig {
                    workers: 1,
                    ..EngineConfig::default()
                },
                rebalance_headroom: 0,
            },
        ));
        let donor = Arc::new(testkit::chain_query(4, 90_000));
        let gid = e.submit(donor.clone());
        assert!(e.wait_idle(IDLE));
        e.finish(gid).unwrap();
        (e, donor)
    }

    /// Arms the gate and submits `twin` on the [`REPLAY`] thread; returns
    /// once its seed replay is blocked at the gate.
    fn replay_blocked(
        e: &Arc<ShardedEngine>,
        gate: &Gate,
        twin: Arc<QuerySpec>,
    ) -> thread::JoinHandle<GlobalSessionId> {
        gate.armed.store(true, Ordering::SeqCst);
        let replay = {
            let e = Arc::clone(e);
            thread::Builder::new()
                .name(REPLAY.into())
                .spawn(move || e.submit(twin))
                .unwrap()
        };
        assert!(gate.wait_blocked(), "the twin never replayed its donor");
        replay
    }

    #[test]
    fn seed_replay_runs_with_no_engine_or_store_lock_held() {
        let gate = Arc::new(Gate::default());
        let _release = Release(Arc::clone(&gate));
        let (e, donor) = gated_engine_with_donor(&gate);
        let twin = Arc::new(testkit::drift_cardinalities(&donor, 1.08));
        let home = e.home_shard(e.fingerprint(&twin));
        // One live session on the twin's home shard, one idle session on
        // the other shard.
        let mut neighbour = None;
        let mut other = None;
        let mut card = 20_000u64;
        while neighbour.is_none() || other.is_none() {
            card += 17;
            let spec = Arc::new(testkit::chain_query(3, card));
            let slot = if e.home_shard(e.fingerprint(&spec)) == home {
                &mut neighbour
            } else {
                &mut other
            };
            if slot.is_none() {
                *slot = Some(e.submit(spec));
            }
        }
        let (neighbour, other) = (neighbour.unwrap(), other.unwrap());
        assert!(e.wait_idle(IDLE));

        let replay = replay_blocked(&e, &gate, twin);
        let live = within_5s("live_sessions", {
            let e = Arc::clone(&e);
            move || e.shards[home].live_sessions()
        });
        assert!(live >= 1);
        let status = within_5s("status", {
            let e = Arc::clone(&e);
            move || e.status(neighbour)
        });
        assert!(status.is_some());
        let parked = within_5s("finish", {
            let e = Arc::clone(&e);
            move || e.finish(other).is_some()
        });
        assert!(parked);

        gate.release();
        let gid = replay.join().unwrap();
        assert_eq!(gid.shard, home);
        assert!(e.wait_idle(IDLE));
        assert!(e.status(gid).unwrap().rebased);
        assert!(e.has_parked(e.fingerprint(&donor)), "the donor went back");
    }

    #[test]
    fn a_twin_and_the_donor_repeat_open_warm_during_a_replay() {
        let gate = Arc::new(Gate::default());
        let _release = Release(Arc::clone(&gate));
        let (e, donor) = gated_engine_with_donor(&gate);
        let first = Arc::new(testkit::drift_cardinalities(&donor, 1.08));
        let replay = replay_blocked(&e, &gate, first);
        let mut expected = lookups(&e);

        // The first twin's replay holds no lock and leaves the donor
        // parked, so a second twin of the same shape rebases from the
        // same seeds without waiting for it: an exact miss and a rebase
        // hit on its home shard.
        let second = Arc::new(testkit::drift_cardinalities(&donor, 1.2));
        let home = e.home_shard(e.fingerprint(&second));
        let gid = within_5s("a second twin's open", {
            let e = Arc::clone(&e);
            move || e.submit(second)
        });
        assert_eq!(gid.shard, home);
        assert!(e.status(gid).unwrap().rebased);
        expected[home].1 += 1;
        expected[home].2 += 1;
        assert_eq!(lookups(&e), expected, "the second twin finds the donor");

        // The donor's exact repeat resumes warm: an exact hit.
        let donor_home = e.home_shard(e.fingerprint(&donor));
        let gid = within_5s("the donor's repeat", {
            let e = Arc::clone(&e);
            move || e.submit(donor)
        });
        assert_eq!(gid.shard, donor_home);
        assert!(e.status(gid).unwrap().warm_start);
        expected[donor_home].0 += 1;
        assert_eq!(lookups(&e), expected, "the donor's repeat hits");

        gate.release();
        let first_gid = replay.join().unwrap();
        assert!(e.wait_idle(IDLE));
        assert!(e.status(first_gid).unwrap().rebased);
        assert_eq!(lookups(&e), expected);
    }
}
