//! Similar-query warm-start experiment (`repro similarity`).
//!
//! Production traffic is rarely byte-identical, so the exact-fingerprint
//! frontier cache alone under-serves it. This experiment measures the two
//! near-miss tiers built on the paper's per-subset incremental state:
//!
//! * **transplant** — recipients share join subgraphs (query prefixes)
//!   with previously finished *donor* queries; their subsets seed from
//!   harvested sub-frontier blobs;
//! * **rebase** — the same queries resubmitted after a statistics
//!   refresh (cardinalities scaled, shape untouched); the parked donor's
//!   harvested sub-frontier blobs re-enter through the transplant import,
//!   blind only to the drifted cardinalities, as level-0 candidates under
//!   the new stats (the Lemma 7 path: re-pruning known plans is cheaper
//!   than regenerating them).
//!
//! Four phases over identical recipient shapes — `cold`, `exact-warm`,
//! `transplant`, `rebase` — each recording submit→first-frontier latency
//! and the total plans generated per session (summed over the per-slice
//! invocation reports of its watch stream, so each phase counts only its
//! own work even when optimizer state carries across phases).
//!
//! One pass submits each recipient once, so a row rests on a handful of
//! sessions and its latency swings with the host. A full run repeats
//! every phase on fresh engines until each row holds at least 32
//! sessions; `--fast` keeps one pass.

use moqo_cost::ResolutionSchedule;
use moqo_costmodel::StandardCostModel;
use moqo_engine::EngineConfig;
use moqo_query::{testkit, QuerySpec};
use moqo_serve::{GlobalSessionId, ShardConfig, ShardedEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::harness::{Experiment, ExperimentReport, Trial};
use crate::stats::{Samples, Summary};

/// Sessions each row of a full (not `--fast`) run rests on, at least.
const MIN_ROW_SESSIONS: usize = 32;

fn engine(fast: bool) -> ShardedEngine {
    ShardedEngine::new(
        Arc::new(StandardCostModel::paper_metrics()),
        ResolutionSchedule::linear(if fast { 2 } else { 4 }, 1.02, 0.4),
        ShardConfig {
            shards: 4,
            engine: EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
            rebalance_headroom: 8,
        },
    )
}

/// Donor queries: the smaller members of each overlapping family.
pub fn similarity_donors(fast: bool) -> Vec<Arc<QuerySpec>> {
    let ns: &[usize] = if fast { &[4, 5] } else { &[4, 5, 6] };
    let mut specs = Vec::new();
    for &n in ns {
        specs.push(Arc::new(testkit::chain_query(n, 60_000)));
        specs.push(Arc::new(testkit::star_query(n, 90_000)));
    }
    specs
}

/// Recipient queries: larger members of the same families — every donor
/// is an induced-subgraph prefix of its family's recipients, so donor
/// sub-frontiers transplant, while no recipient fingerprint (or shape)
/// equals a donor's.
pub fn similarity_recipients(fast: bool) -> Vec<Arc<QuerySpec>> {
    let ns: &[usize] = if fast { &[6, 7] } else { &[7, 8, 9] };
    let mut specs = Vec::new();
    for &n in ns {
        specs.push(Arc::new(testkit::chain_query(n, 60_000)));
        specs.push(Arc::new(testkit::star_query(n, 90_000)));
    }
    specs
}

/// Figures extracted from one pass (priming passes discard them).
struct PhaseFigures {
    sessions: usize,
    us: Samples,
    plans_generated: u64,
    zero_plan_starts: u64,
    rebased_sessions: u64,
    transplanted_sessions: u64,
    seeded_subsets: u64,
}

impl PhaseFigures {
    /// Folds a further pass of the same phase into this one.
    fn merge(mut self, other: PhaseFigures) -> Self {
        self.sessions += other.sessions;
        for &us in other.us.as_slice() {
            self.us.push(us);
        }
        self.plans_generated += other.plans_generated;
        self.zero_plan_starts += other.zero_plan_starts;
        self.rebased_sessions += other.rebased_sessions;
        self.transplanted_sessions += other.transplanted_sessions;
        self.seeded_subsets += other.seeded_subsets;
        self
    }

    fn record(self, trial: &mut Trial) {
        trial.int("sessions", self.sessions as u64);
        trial.summary_us("", Summary::of_or_zero(&self.us));
        trial.int_lower("plans_generated", self.plans_generated);
        trial.int("zero_plan_starts", self.zero_plan_starts);
        trial.int("rebased_sessions", self.rebased_sessions);
        trial.int("transplanted_sessions", self.transplanted_sessions);
        trial.int("seeded_subsets", self.seeded_subsets);
    }
}

/// Submits `specs`, recording submit→first-frontier latency per session
/// and folding each session's full watch stream to sum the plans its
/// invocations generated within this phase. Sessions are finished at the
/// end of the phase (parking their frontiers and harvesting their
/// sub-frontiers for the next phase, where applicable).
fn run_phase(eng: &ShardedEngine, specs: &[Arc<QuerySpec>]) -> PhaseFigures {
    let mut watchers: Vec<(
        GlobalSessionId,
        Instant,
        std::sync::mpsc::Receiver<moqo_serve::SessionEvent>,
        moqo_serve::SessionView,
    )> = Vec::new();
    for spec in specs {
        let t0 = Instant::now();
        let gid = eng.submit(spec.clone());
        let rx = eng.watch(gid, None).expect("fresh session");
        watchers.push((gid, t0, rx, moqo_serve::SessionView::default()));
    }
    let mut latency = vec![None::<Duration>; watchers.len()];
    let mut plans = vec![0u64; watchers.len()];
    let mut zero_plan_starts = 0u64;
    let deadline = Instant::now() + Duration::from_secs(600);
    while latency.iter().any(Option::is_none) {
        assert!(Instant::now() < deadline, "similarity experiment stalled");
        let mut progressed = false;
        for (i, (_, t0, rx, view)) in watchers.iter_mut().enumerate() {
            if latency[i].is_some() {
                continue;
            }
            while let Ok(event) = rx.try_recv() {
                progressed = true;
                if let Some(r) = &event.report {
                    plans[i] += r.plans_generated;
                }
                view.fold(&event).expect("ordered watch stream");
                if !view.frontier.is_empty() && latency[i].is_none() {
                    latency[i] = Some(t0.elapsed());
                    if view
                        .first_report
                        .as_ref()
                        .is_some_and(|r| r.plans_generated == 0)
                    {
                        zero_plan_starts += 1;
                    }
                    break;
                }
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    assert!(eng.wait_idle(Duration::from_secs(600)));
    // Drain the remainder of each stream: the ladder kept refining after
    // the first frontier, and that work belongs to this phase too.
    let mut rebased_sessions = 0u64;
    let mut transplanted_sessions = 0u64;
    let mut seeded_subsets = 0u64;
    for (i, (gid, _, rx, _)) in watchers.iter().enumerate() {
        while let Ok(event) = rx.try_recv() {
            if let Some(r) = &event.report {
                plans[i] += r.plans_generated;
            }
        }
        let s = eng.status(*gid).expect("session still tracked");
        if s.rebased {
            rebased_sessions += 1;
        }
        if s.seeded_subsets > 0 {
            transplanted_sessions += 1;
            seeded_subsets += u64::from(s.seeded_subsets);
        }
        eng.finish(*gid);
    }
    let us: Samples = latency
        .into_iter()
        .map(|d| d.expect("measured").as_secs_f64() * 1e6)
        .collect();
    PhaseFigures {
        sessions: specs.len(),
        us,
        plans_generated: plans.iter().sum(),
        zero_plan_starts,
        rebased_sessions,
        transplanted_sessions,
        seeded_subsets,
    }
}

/// Shared state across the four variants: the workloads plus the engine
/// of the moment (fresh engines replace it between warm-start tiers and
/// between passes).
struct SimilarityState {
    fast: bool,
    donors: Vec<Arc<QuerySpec>>,
    recipients: Vec<Arc<QuerySpec>>,
    engine: ShardedEngine,
}

impl SimilarityState {
    /// Runs `pass` once per pass and merges the recorded phases: one
    /// pass under `--fast`, else enough for every row to hold
    /// `MIN_ROW_SESSIONS` sessions. Every pass gets a fresh engine,
    /// except that the first one runs on the current engine when `reuse`
    /// is set; `pass` learns which.
    fn repeat(
        &mut self,
        reuse: bool,
        pass: impl Fn(&ShardedEngine, &Self, bool) -> PhaseFigures,
    ) -> PhaseFigures {
        let passes = if self.fast {
            1
        } else {
            MIN_ROW_SESSIONS.div_ceil(self.recipients.len())
        };
        (0..passes)
            .map(|i| {
                let fresh = !(reuse && i == 0);
                if fresh {
                    self.engine = engine(self.fast);
                }
                pass(&self.engine, self, fresh)
            })
            .reduce(PhaseFigures::merge)
            .expect("at least one pass")
    }
}

/// Runs the four phases `cold`, `exact-warm`, `transplant`, `rebase`.
pub fn similarity_experiment(fast: bool) -> ExperimentReport {
    Experiment::new("similarity", fast, move || SimilarityState {
        fast,
        donors: similarity_donors(fast),
        recipients: similarity_recipients(fast),
        engine: engine(fast),
    })
    .title("similar-query warm starts: exact, transplant, and rebase tiers")
    // Phase 1+2: one engine per pass; the recipients run cold, then
    // resubmit as exact repeats against their own parked frontiers. The
    // first exact-warm pass reuses the last cold engine; later passes
    // prime fresh engines themselves.
    .variant("warm-start tiers", "cold", |s, t| {
        s.repeat(true, |eng, s, _| run_phase(eng, &s.recipients))
            .record(t);
    })
    .variant("warm-start tiers", "exact-warm", |s, t| {
        s.repeat(true, |eng, s, fresh| {
            if fresh {
                run_phase(eng, &s.recipients);
            }
            run_phase(eng, &s.recipients)
        })
        .record(t);
    })
    // Phase 3: fresh engines that have only ever seen the *donors* — the
    // recipients' fingerprints all miss, but their shared subsets seed
    // from the harvested donor sub-frontiers.
    .variant("warm-start tiers", "transplant", |s, t| {
        s.repeat(false, |eng, s, _| {
            run_phase(eng, &s.donors);
            run_phase(eng, &s.recipients)
        })
        .record(t);
    })
    // Phase 4: fresh engines primed with the recipients under *stale*
    // statistics, then replayed under a 5% cardinality drift — exact
    // fingerprints miss, the cardinality-blind rebase tier hits.
    .variant("warm-start tiers", "rebase", |s, t| {
        let drifted: Vec<Arc<QuerySpec>> = s
            .recipients
            .iter()
            .map(|spec| Arc::new(testkit::drift_cardinalities(spec, 1.05)))
            .collect();
        s.repeat(false, |eng, s, _| {
            run_phase(eng, &s.recipients);
            run_phase(eng, &drifted)
        })
        .record(t);
    })
    .conclusion(
        "exact repeats do zero plan work; transplant and rebase recipients \
         generate measurably fewer plans than their cold twins.",
    )
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transplant_and_rebase_beat_cold() {
        let report = similarity_experiment(true);
        let counter = |label: &str, key: &str| report.metric(label, key).unwrap().as_u64().unwrap();
        assert_eq!(counter("cold", "rebased_sessions"), 0);
        assert_eq!(counter("cold", "transplanted_sessions"), 0);
        assert!(counter("cold", "plans_generated") > 0);
        // Exact repeats do no plan work at all.
        assert_eq!(counter("exact-warm", "plans_generated"), 0);
        assert_eq!(
            counter("exact-warm", "zero_plan_starts"),
            counter("exact-warm", "sessions")
        );
        // Every recipient seeds from donor sub-frontiers and generates
        // measurably fewer plans than its cold twin.
        assert_eq!(
            counter("transplant", "transplanted_sessions"),
            counter("transplant", "sessions")
        );
        assert!(counter("transplant", "seeded_subsets") >= counter("transplant", "sessions"));
        assert!(
            counter("transplant", "plans_generated") < counter("cold", "plans_generated"),
            "transplant must beat cold"
        );
        // Every drifted replay rebases and also beats cold regeneration.
        assert_eq!(
            counter("rebase", "rebased_sessions"),
            counter("rebase", "sessions")
        );
        assert!(
            counter("rebase", "plans_generated") < counter("cold", "plans_generated"),
            "rebase must beat cold"
        );
    }
}
