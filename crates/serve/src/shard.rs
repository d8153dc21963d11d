//! Fingerprint-sharded session placement.
//!
//! One [`SessionManager`] saturates at some number of concurrent sessions:
//! every submission, event, and slice check-in crosses its single state
//! lock, and its `FrontierCache` / `PlanCache` warm exactly the queries it
//! has seen. [`ShardedEngine`] runs N independent managers and routes each
//! submission by its [`QueryFingerprint`] hash, so
//!
//! * lock traffic divides by N — shards never share state;
//! * a *repeated* query deterministically lands on the shard whose
//!   frontier cache already parks its optimizer (a warm hit generates
//!   zero plans on the first invocation);
//! * *structurally similar* queries land on the shard whose plan cache
//!   already holds their enumeration plane (fingerprints embed the shape,
//!   so equal shapes with equal statistics hash together; equal shapes
//!   with different statistics spread, which is what per-shard plan
//!   caches tolerate well — plans are cheap to share, frontiers are not).
//!
//! The router is **warmth-aware and rebalance-aware**: a fingerprint whose
//! home shard parks its frontier always goes home (moving it would forfeit
//! the warm state), while a *cold* fingerprint may be diverted to the
//! least-loaded shard when its home shard is overloaded by more than
//! [`ShardConfig::rebalance_headroom`] sessions. Home placement is a pure
//! function of fingerprint and shard count, so two engines with equal
//! shard counts agree on every home — the property that lets a restarted
//! process re-park restored frontiers where future submissions will look.

use moqo_core::protocol::{ProtocolError, SessionCommand, SessionEvent, SessionRequest};
use moqo_core::{FrontierSnapshot, IamaOptimizer};
use moqo_cost::{Bounds, ResolutionSchedule};
use moqo_costmodel::{CostModel, SharedCostModel};
use moqo_engine::{
    CacheStats, EngineConfig, PlanCacheStats, QueryFingerprint, RebaseKey, SessionId,
    SessionManager, SessionStatus, SubFrontierCache, SubFrontierCacheStats,
};
use moqo_query::QuerySpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tunables of the sharded serving front.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Number of independent [`SessionManager`] shards. At least 1.
    pub shards: usize,
    /// Engine configuration applied to every shard (worker count, cache
    /// capacity, slice budget, ...).
    pub engine: EngineConfig,
    /// How many live sessions a cold submission's home shard may exceed
    /// the least-loaded shard by before the router diverts the submission
    /// there. Warm submissions are never diverted. `0` disables
    /// rebalancing (strict hash placement).
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

/// How the router placed a submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteDecision {
    /// Home shard, which already parks a warm frontier for the
    /// fingerprint.
    WarmHome,
    /// A non-home shard parks the warm frontier (a rebalanced session
    /// finished there); the submission follows the warmth.
    WarmRemote {
        /// The fingerprint's hash-home that was bypassed.
        home: usize,
    },
    /// Home shard, which parks no exact frontier but a **rebase donor**:
    /// a frontier of the same shape under drifted catalog cardinalities
    /// (see [`moqo_engine::RebaseKey`]). The session starts from the
    /// donor's plans re-admitted as level-0 candidates.
    RebaseHome,
    /// A non-home shard parks a rebase donor for the fingerprint's shape;
    /// the submission follows it.
    RebaseRemote {
        /// The fingerprint's hash-home that was bypassed.
        home: usize,
    },
    /// Home shard, cold (first sight of the fingerprint, or its frontier
    /// was evicted).
    ColdHome,
    /// Diverted from the overloaded home shard to the least-loaded one.
    Rebalanced {
        /// The home shard the submission was diverted away from.
        from: usize,
    },
}

impl RouteDecision {
    /// True if the decision targets a shard already parking the
    /// fingerprint's frontier.
    pub fn is_warm(self) -> bool {
        matches!(
            self,
            RouteDecision::WarmHome | RouteDecision::WarmRemote { .. }
        )
    }

    /// True if the decision targets a shard parking a rebase donor of the
    /// fingerprint's shape (warm start under drifted statistics).
    pub fn is_rebase(self) -> bool {
        matches!(
            self,
            RouteDecision::RebaseHome | RouteDecision::RebaseRemote { .. }
        )
    }
}

/// Per-shard load and effectiveness snapshot.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Admitted, not-yet-finished sessions.
    pub live: usize,
    /// Warm-frontier cache counters.
    pub cache: CacheStats,
    /// Shared enumeration-plan cache counters.
    pub plans: PlanCacheStats,
    /// Submissions routed here warm (frontier already parked).
    pub warm_routed: u64,
    /// Submissions routed here to a rebase donor (same shape, drifted
    /// cardinalities).
    pub rebase_routed: u64,
    /// Submissions routed here cold by hash.
    pub cold_routed: u64,
    /// Cold submissions diverted here from an overloaded home shard.
    pub rebalanced_in: u64,
}

#[derive(Default)]
struct RouteCounters {
    warm: AtomicU64,
    rebase: AtomicU64,
    cold: AtomicU64,
    rebalanced_in: AtomicU64,
}

/// N independent [`SessionManager`]s behind a fingerprint-hash router; see
/// the module docs for the placement policy.
pub struct ShardedEngine {
    shards: Vec<SessionManager>,
    counters: Vec<RouteCounters>,
    model: SharedCostModel,
    schedule: ResolutionSchedule,
    rebalance_headroom: usize,
}

impl ShardedEngine {
    /// Starts `config.shards` managers, each with its own worker pool and
    /// caches.
    pub fn new(model: SharedCostModel, schedule: ResolutionSchedule, config: ShardConfig) -> Self {
        let n = config.shards.max(1);
        // One sub-frontier cache spans all shards: exported sub-frontiers
        // are position- and query-independent immutable blobs, so unlike
        // parked optimizers they are safe (and profitable) to share —
        // a subset harvested on shard 0 seeds a similar query on shard 3.
        let subfrontiers = Arc::new(SubFrontierCache::default());
        let shards = (0..n)
            .map(|_| {
                SessionManager::with_subfrontiers(
                    model.clone(),
                    schedule.clone(),
                    config.engine.clone(),
                    Arc::clone(&subfrontiers),
                )
            })
            .collect();
        Self {
            shards,
            counters: (0..n).map(|_| RouteCounters::default()).collect(),
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
    /// `(fingerprint, shard count)`, identical across engine instances —
    /// restored frontiers parked at home are found by later submissions.
    pub fn home_shard(&self, fp: QueryFingerprint) -> usize {
        (fp.as_u64() % self.shards.len() as u64) as usize
    }

    /// Routes a fingerprint: to parked warmth wherever it lives (home
    /// first), otherwise home — unless home is overloaded and the
    /// fingerprint is cold (nothing warm to forfeit), in which case the
    /// least-loaded shard takes it. Routing without a [`RebaseKey`] skips
    /// the rebase-donor tier; [`ShardedEngine::route_with_rebase`] is the
    /// full policy.
    pub fn route(&self, fp: QueryFingerprint) -> (usize, RouteDecision) {
        self.route_inner(fp, None)
    }

    /// Routes a fingerprint with its cardinality-blind [`RebaseKey`]:
    /// exact warmth wherever it lives (home first), then a **rebase
    /// donor** — a parked frontier of the same shape under drifted
    /// cardinalities — wherever one is parked (home first), then home,
    /// unless home is overloaded, in which case the least-loaded shard
    /// takes the cold submission.
    pub fn route_with_rebase(
        &self,
        fp: QueryFingerprint,
        rebase: RebaseKey,
    ) -> (usize, RouteDecision) {
        self.route_inner(fp, Some(rebase))
    }

    fn route_inner(
        &self,
        fp: QueryFingerprint,
        rebase: Option<RebaseKey>,
    ) -> (usize, RouteDecision) {
        let home = self.home_shard(fp);
        if self.shards[home].has_parked(fp) {
            return (home, RouteDecision::WarmHome);
        }
        // A rebalanced session parks its frontier where it ran; follow it
        // rather than rebuilding from scratch at home.
        if let Some(remote) = self.shards.iter().position(|s| s.has_parked(fp)) {
            return (remote, RouteDecision::WarmRemote { home });
        }
        // No exact frontier anywhere: a shard parking a same-shape
        // frontier under drifted cardinalities still beats a cold start —
        // the manager rebases the donor's plans into the new session.
        if let Some(key) = rebase {
            if self.shards[home].has_rebase_donor(key) {
                return (home, RouteDecision::RebaseHome);
            }
            if let Some(remote) = self.shards.iter().position(|s| s.has_rebase_donor(key)) {
                return (remote, RouteDecision::RebaseRemote { home });
            }
        }
        if self.rebalance_headroom > 0 {
            let home_load = self.shards[home].live_sessions();
            let (coolest, min_load) = self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.live_sessions()))
                .min_by_key(|&(_, load)| load)
                .expect("at least one shard");
            if coolest != home && home_load >= min_load + self.rebalance_headroom {
                return (coolest, RouteDecision::Rebalanced { from: home });
            }
        }
        (home, RouteDecision::ColdHome)
    }

    /// Admits a session with every default in place.
    pub fn submit(&self, spec: Arc<QuerySpec>) -> (GlobalSessionId, RouteDecision) {
        self.open(SessionRequest::new(spec))
            .expect("a bare request has nothing to validate")
    }

    /// Admits a session from a protocol [`SessionRequest`] (per-session
    /// bounds, schedule, preference, cost model, refinement budget),
    /// routed by its effective fingerprint. Malformed requests are a
    /// typed [`ProtocolError`] at the door.
    pub fn open(
        &self,
        request: SessionRequest,
    ) -> Result<(GlobalSessionId, RouteDecision), ProtocolError> {
        let model = request.effective_model(&self.model);
        request.validate(model.dim())?;
        let fp = self.fingerprint_of(&request);
        let rebase = RebaseKey::of(&request.spec, &model);
        let (shard, decision) = self.route_with_rebase(fp, rebase);
        let counter = &self.counters[shard];
        match decision {
            RouteDecision::WarmHome | RouteDecision::WarmRemote { .. } => {
                counter.warm.fetch_add(1, Ordering::Relaxed)
            }
            RouteDecision::RebaseHome | RouteDecision::RebaseRemote { .. } => {
                counter.rebase.fetch_add(1, Ordering::Relaxed)
            }
            RouteDecision::ColdHome => counter.cold.fetch_add(1, Ordering::Relaxed),
            RouteDecision::Rebalanced { .. } => {
                counter.rebalanced_in.fetch_add(1, Ordering::Relaxed)
            }
        };
        let local = self.shards[shard].open(request)?;
        Ok((GlobalSessionId { shard, local }, decision))
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

    /// Subscribes to a session's delta-streamed [`SessionEvent`]s (see
    /// [`SessionManager::watch`]).
    pub fn watch(&self, id: GlobalSessionId) -> Option<mpsc::Receiver<SessionEvent>> {
        self.shard(id)?.watch(id.local)
    }

    /// Retires a session, parking its optimizer in its shard's frontier
    /// cache.
    pub fn finish(&self, id: GlobalSessionId) -> Option<SessionStatus> {
        self.shard(id)?.finish(id.local)
    }

    /// Installs a [`moqo_engine::EventHook`]-style callback on every
    /// shard, translating each shard-local session id into the
    /// [`GlobalSessionId`] the serving layers route by. Same contract as
    /// the per-shard hook: invoked under the shard's state lock, so keep
    /// it to leaf-lock work (queue push + doorbell).
    pub fn set_event_hook(&self, hook: Arc<dyn Fn(GlobalSessionId) + Send + Sync>) {
        for (shard, manager) in self.shards.iter().enumerate() {
            let hook = hook.clone();
            manager.set_event_hook(Arc::new(move |local| {
                hook(GlobalSessionId { shard, local });
            }));
        }
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
            .zip(&self.counters)
            .enumerate()
            .map(|(i, (s, c))| ShardStats {
                shard: i,
                live: s.live_sessions(),
                cache: s.cache_stats(),
                plans: s.plan_cache_stats(),
                warm_routed: c.warm.load(Ordering::Relaxed),
                rebase_routed: c.rebase.load(Ordering::Relaxed),
                cold_routed: c.cold.load(Ordering::Relaxed),
                rebalanced_in: c.rebalanced_in.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Effectiveness counters of the deployment-wide sub-frontier cache
    /// (one instance shared by every shard).
    pub fn subfrontier_stats(&self) -> SubFrontierCacheStats {
        self.shards[0].subfrontier_stats()
    }

    /// Parks an optimizer in its fingerprint's *home* shard cache — the
    /// restore hook: future submissions of the fingerprint route home and
    /// start warm.
    pub fn park(&self, fp: QueryFingerprint, optimizer: IamaOptimizer) {
        self.shards[self.home_shard(fp)].park(fp, optimizer);
    }

    /// True if some shard parks a warm frontier for `fp`.
    pub fn has_parked(&self, fp: QueryFingerprint) -> bool {
        self.shards.iter().any(|s| s.has_parked(fp))
    }

    /// Visits every parked optimizer of every shard (persistence export).
    /// Each shard's state lock is held while its entries are visited; for
    /// expensive per-entry work prefer [`ShardedEngine::map_parked`].
    pub fn for_each_parked(&self, mut f: impl FnMut(QueryFingerprint, &IamaOptimizer)) {
        for shard in &self.shards {
            shard.for_each_parked(&mut f);
        }
    }

    /// Maps `f` over every parked optimizer of every shard, taking each
    /// shard's state lock **once per entry** instead of across the whole
    /// pass — a long serialization sweep interleaves with submissions
    /// and worker check-ins rather than stalling them. Entries taken by
    /// a racing warm submission between the fingerprint snapshot and
    /// their visit are skipped (they are live again, not parked).
    pub fn map_parked<R>(
        &self,
        mut f: impl FnMut(QueryFingerprint, &IamaOptimizer) -> R,
    ) -> Vec<R> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for fp in shard.parked_fingerprints() {
                if let Some(r) = shard.with_parked(fp, |opt| f(fp, opt)) {
                    out.push(r);
                }
            }
        }
        out
    }

    /// Serializes one parked optimizer (whichever shard holds it) as
    /// self-validating `export_frontier` bytes; `None` when no shard
    /// parks `fp`. The warm-state hand-off hook behind the network
    /// front's frontier-pull endpoint.
    pub fn export_parked(&self, fp: QueryFingerprint) -> Option<Vec<u8>> {
        self.shards.iter().find_map(|s| s.export_parked(fp))
    }

    /// Unbounded initial bounds under the engine's cost model.
    pub fn unbounded(&self) -> Bounds {
        Bounds::unbounded(self.model.dim())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_costmodel::StandardCostModel;
    use moqo_query::testkit;

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
        let (gid, d1) = e.submit(spec.clone());
        assert_eq!(d1, RouteDecision::ColdHome);
        assert!(e.wait_idle(IDLE));
        e.finish(gid).unwrap();
        // The repeat goes home and starts warm, regardless of load.
        let (gid2, d2) = e.submit(spec);
        assert_eq!(d2, RouteDecision::WarmHome);
        assert_eq!(gid2.shard, gid.shard);
        assert!(e.wait_idle(IDLE));
        let s = e.status(gid2).unwrap();
        assert!(s.warm_start);
        assert_eq!(s.first_report.unwrap().plans_generated, 0);
        let stats = e.shard_stats();
        assert_eq!(stats.iter().map(|s| s.warm_routed).sum::<u64>(), 1);
    }

    #[test]
    fn overloaded_home_diverts_cold_queries_only() {
        // headroom 3: pile sessions onto one shard's hash bucket until a
        // cold stranger diverts, then verify a warm repeat does not.
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
                let (gid, _) = e.submit(spec);
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
                let (gid, d) = e.submit(spec.clone());
                assert_eq!(d, RouteDecision::Rebalanced { from: 0 });
                assert_eq!(gid.shard, 1);
                diverted = Some((spec, gid));
            }
        }
        assert!(e.wait_idle(IDLE));
        // The diverted session finishes and parks its frontier on shard 1
        // (where it ran). A repeat of the fingerprint must follow that
        // warmth instead of rebuilding cold at its hash-home.
        let (spec, gid) = diverted.unwrap();
        let fp = e.fingerprint(&spec);
        e.finish(gid).unwrap();
        assert!(e.shards[1].has_parked(fp));
        let (gid2, d2) = e.submit(spec);
        assert_eq!(d2, RouteDecision::WarmRemote { home: 0 });
        assert!(d2.is_warm());
        assert_eq!(gid2.shard, 1);
        assert!(e.wait_idle(IDLE));
        let s = e.status(gid2).unwrap();
        assert!(s.warm_start);
        assert_eq!(s.first_report.unwrap().plans_generated, 0);
    }

    #[test]
    fn drifted_statistics_route_to_the_rebase_donor_shard() {
        let e = engine(4);
        let spec = Arc::new(testkit::chain_query(4, 90_000));
        let (gid, d) = e.submit(spec.clone());
        assert_eq!(d, RouteDecision::ColdHome);
        assert!(e.wait_idle(IDLE));
        e.finish(gid).unwrap();

        // A stats-refresh twin: exact fingerprint misses (it may even home
        // on a different shard), but the router finds the parked donor by
        // its cardinality-blind key and sends the session there.
        let drifted = Arc::new(testkit::drift_cardinalities(&spec, 1.08));
        let (gid2, d2) = e.submit(drifted);
        assert!(d2.is_rebase(), "expected a rebase route, got {d2:?}");
        assert_eq!(gid2.shard, gid.shard, "must follow the donor's shard");
        assert!(e.wait_idle(IDLE));
        let s = e.status(gid2).unwrap();
        assert!(s.rebased, "routed to the donor but did not rebase: {s:?}");
        assert!(!s.frontier.is_empty());
        let stats = e.shard_stats();
        assert_eq!(stats.iter().map(|s| s.rebase_routed).sum::<u64>(), 1);
        // The donor is still parked for exact repeats of its own stats.
        assert!(e.has_parked(e.fingerprint(&testkit::chain_query(4, 90_000))));
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
        let (gid, _) = e.submit(small);
        assert!(e.wait_idle(IDLE));
        e.finish(gid).unwrap();
        assert!(e.subfrontier_stats().entries > 0);

        let (gid2, d) = e.submit(big);
        assert!(!d.is_warm() && !d.is_rebase(), "different query shape");
        assert!(e.wait_idle(IDLE));
        let s = e.status(gid2).unwrap();
        assert!(
            s.seeded_subsets > 0,
            "shared subchains must transplant across shards: {s:?}"
        );
        assert!(e.subfrontier_stats().hits > 0);
    }
}
