//! What the two served workloads share: the Zipf draw, counter deltas
//! over the stats structs `moqo-serve` and `moqo-engine` expose, and the
//! core counters the streamed `InvocationReport`s carry.

use moqo_bench::stats::Samples;
use moqo_bench::workload::XorShift;
use moqo_core::{InvocationReport, SessionRequest};
use moqo_query::QuerySpec;
use moqo_serve::{MoqoServer, SaveReport, ServerStats, ShardedEngine, SnapshotStore, TicketStatus};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{self, Record};
use crate::trace::Tracer;

/// One round of a Zipf(`s`) stream over `count` ranks: each rank as
/// often as `len` draws would give it on average (at least once). A run
/// cycles through seeded shuffles of the round, so every seed measures
/// the same mix.
pub fn zipf_round(count: usize, len: usize, s: f64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=count).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut round = Vec::new();
    for (rank, w) in weights.iter().enumerate() {
        let copies = ((len as f64 * w / total).round() as usize).max(1);
        round.extend(std::iter::repeat_n(rank, copies));
    }
    round
}

/// Shuffles `items` in place (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut XorShift) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// Submits `spec` in-process, waits (until `deadline`) for its ladder to
/// reach resolution `r_max`, and retires it so its frontier parks: the
/// cache-priming step of setup.
///
/// Progress is read off the server-side view: a session fast enough to
/// finish its ladder before its ticket activates shows it only there.
pub fn run_to_target(
    server: &MoqoServer,
    spec: Arc<QuerySpec>,
    r_max: usize,
    deadline: Instant,
) -> Result<(), String> {
    let name = spec.name.clone();
    let (ticket, response) = server
        .submit(SessionRequest::new(spec))
        .map_err(|e| format!("{name}: {e}"))?;
    if !response.is_admitted() {
        return Err(format!("{name}: not admitted: {response:?}"));
    }
    loop {
        match server.poll(ticket) {
            Some(TicketStatus::Active { view, .. })
                if view
                    .last_report
                    .as_ref()
                    .is_some_and(|r| r.resolution == r_max) =>
            {
                break
            }
            Some(TicketStatus::Active { .. } | TicketStatus::Queued { .. }) => {}
            other => return Err(format!("{name}: ticket is {other:?}")),
        }
        let left = deadline
            .checked_duration_since(Instant::now())
            .ok_or_else(|| format!("{name}: timed out"))?;
        server.recv(ticket, left.min(Duration::from_millis(50)));
    }
    server
        .finish(ticket)
        .map(|_| ())
        .ok_or_else(|| format!("{name}: finish"))
}

/// The saver: `SnapshotStore::save` every `period` until stopped.
pub fn saver(
    store: &SnapshotStore,
    engine: &ShardedEngine,
    period: Duration,
    stop: &AtomicBool,
    tracer: &mut Tracer,
) -> (Samples, SaveReport, Option<String>) {
    let mut ms = Samples::new();
    let mut total = SaveReport::default();
    let mut error = None;
    let mut n = 0u64;
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(period);
        n += 1;
        let t0 = Instant::now();
        match tracer.span("persist.save", 0, 0, || store.save(engine)) {
            Ok(r) => {
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
                total.written += r.written;
                total.bytes += r.bytes;
                total.unchanged += r.unchanged;
            }
            Err(e) => error = Some(format!("save {n}: {e}")),
        }
    }
    (ms, total, error)
}

/// Restores the store into a fresh engine; every file must load.
pub fn restore_check(dir: &Path, engine: &ShardedEngine) -> Result<usize, String> {
    let report = SnapshotStore::new(dir)
        .restore(engine)
        .map_err(|e| format!("restore: {e}"))?;
    if !report.skipped.is_empty() {
        return Err(format!(
            "restore skipped {} file(s): {:?}",
            report.skipped.len(),
            report.skipped
        ));
    }
    Ok(report.restored)
}

/// Records the persistence rows.
pub fn record_persist(record: &mut Record, save_ms: &Samples, saved: &SaveReport) {
    record.set("persist.save_ms.p50", metrics::percentile(save_ms, 0.5));
    record.set(
        "persist.save_ms.max",
        moqo_bench::stats::max(save_ms.as_slice()).unwrap_or(0.0),
    );
    record.set("persist.bytes_written", saved.bytes as f64);
    record.set("persist.files_written", saved.written as f64);
    record.ratio(
        "persist.unchanged_share",
        saved.unchanged as u64,
        (saved.unchanged + saved.written) as u64,
    );
    record.note(format!("persist: {} saves", save_ms.len()));
}

/// Engine and admission counters summed over shards.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    evictions: u64,
    rebase_hits: u64,
    plan_hits: u64,
    plan_misses: u64,
    sub_hits: u64,
    sub_misses: u64,
    warm_routed: u64,
    rebalanced_in: u64,
    admitted: u64,
    queued: u64,
    degraded: u64,
    rejected: u64,
}

impl Counters {
    /// Reads the counters out of a stats snapshot.
    pub fn of(s: &ServerStats) -> Self {
        let mut c = Counters {
            sub_hits: s.subfrontiers.hits,
            sub_misses: s.subfrontiers.misses,
            admitted: s.admission.admitted,
            queued: s.admission.queued,
            degraded: s.admission.degraded,
            rejected: s.admission.rejected,
            ..Counters::default()
        };
        for shard in &s.shards {
            c.cache_hits += shard.cache.hits;
            c.cache_misses += shard.cache.misses;
            c.evictions += shard.cache.evictions;
            c.rebase_hits += shard.cache.rebase_hits;
            c.plan_hits += shard.plans.hits;
            c.plan_misses += shard.plans.misses;
            c.warm_routed += shard.warm_routed;
            c.rebalanced_in += shard.rebalanced_in;
        }
        c
    }

    /// The change since `base` (counters only grow).
    pub fn since(self, base: Counters) -> Counters {
        Counters {
            cache_hits: self.cache_hits - base.cache_hits,
            cache_misses: self.cache_misses - base.cache_misses,
            evictions: self.evictions - base.evictions,
            rebase_hits: self.rebase_hits - base.rebase_hits,
            plan_hits: self.plan_hits - base.plan_hits,
            plan_misses: self.plan_misses - base.plan_misses,
            sub_hits: self.sub_hits - base.sub_hits,
            sub_misses: self.sub_misses - base.sub_misses,
            warm_routed: self.warm_routed - base.warm_routed,
            rebalanced_in: self.rebalanced_in - base.rebalanced_in,
            admitted: self.admitted - base.admitted,
            queued: self.queued - base.queued,
            degraded: self.degraded - base.degraded,
            rejected: self.rejected - base.rejected,
        }
    }

    /// Records the engine and serve rows for a measured window of
    /// `sessions` submissions.
    pub fn record(&self, record: &mut Record, sessions: u64) {
        record.ratio(
            "engine.cache_hit_share",
            self.cache_hits,
            self.cache_hits + self.cache_misses,
        );
        record.set("engine.cache_evictions", self.evictions as f64);
        record.set("engine.rebase_hits", self.rebase_hits as f64);
        record.ratio(
            "engine.subfrontier_hit_share",
            self.sub_hits,
            self.sub_hits + self.sub_misses,
        );
        record.ratio(
            "engine.plan_cache_hit_share",
            self.plan_hits,
            self.plan_hits + self.plan_misses,
        );
        record.set("serve.admitted", self.admitted as f64);
        record.set("serve.queued", self.queued as f64);
        record.set("serve.degraded", self.degraded as f64);
        record.set("serve.rejected", self.rejected as f64);
        record.ratio("serve.warm_routed_share", self.warm_routed, sessions);
        record.set("serve.rebalanced_in", self.rebalanced_in as f64);
    }
}

/// Core counters and invocation times read off streamed reports.
#[derive(Default)]
pub struct CoreTally {
    invoke_ms: Samples,
    plans: u64,
    pairs: u64,
    candidates: u64,
    insertions: u64,
    splits_visited: u64,
    splits_skipped: u64,
    /// Sessions whose first invocation generated no plan.
    zero_plan_starts: u64,
    /// Sessions whose first report was seen.
    first_reports: u64,
}

impl CoreTally {
    /// Folds one invocation report.
    pub fn add(&mut self, r: &InvocationReport) {
        self.invoke_ms.push(r.duration.as_secs_f64() * 1e3);
        self.plans += r.plans_generated;
        self.pairs += r.pairs_generated;
        self.candidates += r.candidates_retrieved;
        self.insertions += r.result_insertions;
        self.splits_visited += r.splits_visited;
        self.splits_skipped += r.splits_skipped;
    }

    /// Folds a session's first report (warm-start evidence).
    pub fn first(&mut self, r: &InvocationReport) {
        self.first_reports += 1;
        if r.plans_generated == 0 {
            self.zero_plan_starts += 1;
        }
    }

    /// Records the core rows over `sessions` sessions.
    pub fn record(&self, record: &mut Record, sessions: u64, tail: f64) {
        let n = sessions.max(1) as f64;
        record.timing("core.invoke_ms", &self.invoke_ms, tail);
        record.set("core.plans_generated", self.plans as f64 / n);
        record.set("core.pairs_generated", self.pairs as f64 / n);
        record.set("core.candidates_retrieved", self.candidates as f64 / n);
        record.ratio("core.useful_share", self.insertions, self.plans);
        record.ratio(
            "core.splits_skipped_share",
            self.splits_skipped,
            self.splits_visited + self.splits_skipped,
        );
        record.ratio(
            "engine.zero_plan_share",
            self.zero_plan_starts,
            self.first_reports,
        );
    }
}
