//! `ladder`: Algorithm 1 on `moqo_core::Session`, in-process, one thread.
//!
//! Each session is a cold optimizer over a TPC-H join block (sf 1, 2–8
//! tables) or a synthetic 7-table chain or star. It refines
//! up the 20-level ladder of Figs. 4/5 (α_T = 1.005, α_S = 0.5), then
//! runs a seeded storm of tighten, drag, loosen and refocus bound changes,
//! each refined back to the target resolution, and selects a plan. No
//! serving crate is involved, so optimizer changes show at full size and
//! serving changes must read unchanged here.
//!
//! Every target-resolution frontier of a session feeds one digest, which
//! must equal the value `ladder_digests.txt` records for the session's
//! (query, storm script): performance changes move time, never bytes.

use moqo_bench::stats::{Samples, Summary};
use moqo_bench::workload::XorShift;
use moqo_core::{OptimizerStats, Session, SessionCommand, SessionRequest};
use moqo_cost::{Bounds, Fnv64, ResolutionSchedule};
use moqo_costmodel::SharedCostModel;
use moqo_query::{testkit, QuerySpec};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::Record;
use crate::trace::Tracer;
use crate::{Inject, Outcome, RunSpec};

/// Resolution levels of the ladder (Figs. 4/5).
const LEVELS: usize = 20;
/// Bound changes per storm.
const STORM_ROUNDS: usize = 4;
/// Distinct storm scripts; a session draws one from the run's seed, so
/// every session the benchmark can run has a recorded digest.
pub const STORM_SCRIPTS: u64 = 4;
/// Tail percentile of the per-session timings (first frontier): a run
/// covers 250–400 sessions, so p90 keeps at least ten beyond it.
const SESSION_TAIL: f64 = 0.9;
/// Tail percentile of the per-invocation timings (refine, drag).
const INVOCATION_TAIL: f64 = 0.99;

/// The recorded digest of every (query, storm script) session.
const DIGESTS: &str = include_str!("../ladder_digests.txt");

/// The query set: TPC-H join blocks plus synthetic 7-table shapes. The
/// tiny set (the benchmark's own tests) keeps the blocks of 2–4 tables.
///
/// Larger synthetic shapes (8–9 tables, or a 7-table cycle) take seconds
/// per session at α_T = 1.005, so a round over the set would not fit a
/// run; the 8-table TPC-H block keeps the largest size in the mix.
pub fn templates(tiny: bool) -> Vec<Arc<QuerySpec>> {
    let max_tpch = if tiny { 4 } else { 8 };
    let mut specs: Vec<Arc<QuerySpec>> = moqo_tpch::all_join_blocks(1.0)
        .into_iter()
        .filter(|q| (2..=max_tpch).contains(&q.n_tables()))
        .map(Arc::new)
        .collect();
    if !tiny {
        specs.push(Arc::new(testkit::chain_query(7, 100_000)));
        specs.push(Arc::new(testkit::star_query(7, 1_000_000)));
    }
    specs
}

/// The figure-reproduction cost model: the paper's three metrics with
/// Postgres-style fuzzy cost granularity.
pub fn model() -> SharedCostModel {
    Arc::new(moqo_bench::workload::bench_model())
}

/// The Figs. 4/5 ladder.
pub fn schedule() -> ResolutionSchedule {
    ResolutionSchedule::linear(LEVELS - 1, 1.005, 0.5)
}

/// Timings and counters accumulated over the measured sessions.
#[derive(Default)]
struct Tally {
    sessions: u64,
    failed: u64,
    first_frontier_ms: Samples,
    target_ms: Samples,
    refine_ms: Samples,
    drag_ms: Samples,
    invoke_ms: Samples,
    plan_build_ms: Samples,
    stats: OptimizerStats,
    result_entries: u64,
    candidate_entries: u64,
    arena_plans: u64,
}

impl Tally {
    fn add_stats(&mut self, s: &OptimizerStats) {
        let t = &mut self.stats;
        t.plans_generated += s.plans_generated;
        t.pairs_generated += s.pairs_generated;
        t.candidate_retrievals += s.candidate_retrievals;
        t.result_insertions += s.result_insertions;
        t.splits_visited += s.splits_visited;
        t.splits_skipped += s.splits_skipped;
        t.pairs_skipped_watermark += s.pairs_skipped_watermark;
        t.stale_pairs_skipped += s.stale_pairs_skipped;
        t.prune_comparisons += s.prune_comparisons;
        t.transplanted_candidates += s.transplanted_candidates;
        t.rebased_candidates += s.rebased_candidates;
    }
}

/// Median of one metric over the visualized frontier.
fn frontier_p50(session: &Session, metric: usize) -> Option<f64> {
    let samples: Samples = session
        .frontier()
        .points
        .iter()
        .map(|p| p.cost[metric])
        .collect();
    Summary::of(&samples).map(|s| s.p50)
}

/// Folds a target-resolution frontier into the session digest.
fn digest_frontier(h: &mut Fnv64, session: &Session) {
    let points = &session.frontier().points;
    h.u64(points.len() as u64);
    for p in points {
        h.u64(u64::from(p.plan.0));
        for c in p.cost.as_slice() {
            h.u64(c.to_bits());
        }
    }
}

/// One scripted session. Returns its digest, or why it failed.
#[allow(clippy::too_many_arguments)]
fn run_session(
    spec: &Arc<QuerySpec>,
    script: u64,
    model: &SharedCostModel,
    schedule: &ResolutionSchedule,
    tracer: &mut Tracer,
    sid: u64,
    tally: &mut Tally,
) -> Result<u64, String> {
    let root = tracer.open("bench.session", sid, 0);
    let submit = Instant::now();
    let request = SessionRequest::new(spec.clone());
    let mut session = tracer
        .span("query.open", sid, root, || {
            Session::open(request, model.clone(), schedule.clone())
        })
        .map_err(|e| format!("open: {e}"))?;
    tally
        .plan_build_ms
        .push(submit.elapsed().as_secs_f64() * 1e3);
    let r_max = schedule.r_max();
    let dim = model.dim();
    let mut digest = Fnv64::new();

    let apply = |session: &mut Session,
                 tracer: &mut Tracer,
                 tally: &mut Tally,
                 cmd: SessionCommand|
     -> Result<(f64, usize), String> {
        let t0 = Instant::now();
        let event = tracer
            .span("core.apply", sid, root, || session.apply(cmd))
            .map_err(|e| format!("apply: {e}"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tally.invoke_ms.push(ms);
        let resolution = event.report.map(|r| r.resolution).unwrap_or(0);
        Ok((ms, resolution))
    };

    // The uninterrupted ladder (the paper's scenario).
    for step in 0..=r_max {
        let (ms, resolution) = apply(&mut session, tracer, tally, SessionCommand::Refine)?;
        if step == 0 {
            if session.frontier().is_empty() {
                return Err(format!("{}: first frontier is empty", spec.name));
            }
            tally
                .first_frontier_ms
                .push(submit.elapsed().as_secs_f64() * 1e3);
        } else {
            tally.refine_ms.push(ms);
        }
        if resolution == r_max {
            tally.target_ms.push(submit.elapsed().as_secs_f64() * 1e3);
            digest_frontier(&mut digest, &session);
        }
    }

    // The storm: every bound change resets the focus to resolution 0 and
    // is refined back to the target. The last round loosens, so the
    // session ends on the unbounded frontier.
    let mut rng = XorShift::new(0x1add_e500 ^ (script << 8));
    for round in 0..=STORM_ROUNDS {
        let bounds = if round == STORM_ROUNDS {
            Bounds::unbounded(dim)
        } else {
            let t_mid = frontier_p50(&session, 0);
            match (rng.next_u64() % 4, t_mid) {
                // Tighten: clamp time at the visualized median.
                (0, Some(mid)) => Bounds::unbounded(dim).with_limit(0, mid),
                // Drag: wiggle the time bound around the median.
                (1, Some(mid)) => {
                    Bounds::unbounded(dim).with_limit(0, mid * (0.75 + 0.5 * rng.next_f64()))
                }
                // Refocus on the last metric.
                (3, _) => match frontier_p50(&session, dim - 1) {
                    Some(mid) => Bounds::unbounded(dim).with_limit(dim - 1, mid),
                    None => Bounds::unbounded(dim),
                },
                // Loosen (also when the frontier emptied).
                _ => Bounds::unbounded(dim),
            }
        };
        let (ms, _) = apply(
            &mut session,
            tracer,
            tally,
            SessionCommand::SetBounds(bounds),
        )?;
        tally.drag_ms.push(ms);
        for _ in 0..r_max {
            let (ms, resolution) = apply(&mut session, tracer, tally, SessionCommand::Refine)?;
            tally.refine_ms.push(ms);
            if resolution == r_max {
                digest_frontier(&mut digest, &session);
            }
        }
    }

    let choice = session
        .frontier()
        .min_by_metric(0)
        .map(|p| p.plan)
        .ok_or_else(|| format!("{}: empty frontier at selection", spec.name))?;
    apply(
        &mut session,
        tracer,
        tally,
        SessionCommand::SelectPlan(choice),
    )?;

    let opt = session.optimizer();
    tally.add_stats(opt.stats());
    tally.result_entries += opt.result_set_size() as u64;
    tally.candidate_entries += opt.candidate_set_size() as u64;
    tally.arena_plans += opt.arena().len() as u64;
    tracer.close(root);
    Ok(digest.finish())
}

/// The recorded digests, keyed by (query name, storm script).
fn recorded_digests() -> HashMap<(String, u64), u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let name = f.next()?.to_string();
            let script = f.next()?.parse().ok()?;
            let digest = u64::from_str_radix(f.next()?, 16).ok()?;
            Some(((name, script), digest))
        })
        .collect()
}

/// Everything a measured pass needs, built by setup.
struct Setup {
    specs: Vec<Arc<QuerySpec>>,
    model: SharedCostModel,
    schedule: ResolutionSchedule,
    digests: HashMap<(String, u64), u64>,
}

/// Builds the catalogs and queries and runs one warm-up session (its
/// digest checked like any other).
fn setup(tiny: bool) -> Result<Setup, String> {
    let s = Setup {
        specs: templates(tiny),
        model: model(),
        schedule: schedule(),
        digests: recorded_digests(),
    };
    let warm = s
        .specs
        .iter()
        .max_by_key(|q| q.n_tables())
        .ok_or("no ladder queries")?;
    let mut tracer = Tracer::new(false, Instant::now(), 0);
    let digest = run_session(
        warm,
        0,
        &s.model,
        &s.schedule,
        &mut tracer,
        0,
        &mut Tally::default(),
    )?;
    if s.digests.get(&(warm.name.clone(), 0)) != Some(&digest) {
        return Err(format!(
            "warm-up {}: digest {digest:016x} not recorded",
            warm.name
        ));
    }
    Ok(s)
}

/// Runs the measured pass.
pub fn run(spec: &RunSpec) -> Outcome {
    let mut record = Record::default();
    let mut setups = Samples::new();
    let mut built = None;
    for _ in 0..spec.setup_reps {
        let t0 = Instant::now();
        let s = setup(spec.tiny);
        setups.push(t0.elapsed().as_secs_f64());
        built = Some(s);
    }
    let s = match built.expect("at least one setup") {
        Ok(s) => s,
        Err(e) => return Outcome::setup_failed(e),
    };
    record.set("setup_s", crate::metrics::percentile(&setups, 0.5));

    let mut rng = crate::rng(spec.seed, 1);
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(spec.trace, Instant::now(), 1);
    let start = Instant::now();
    let mut sid = 0u64;
    let mut order: Vec<usize> = Vec::new();
    // Whole rounds only, so every seed measures the same mix.
    while start.elapsed().as_secs_f64() < spec.seconds || !order.is_empty() {
        if order.is_empty() {
            // A seeded permutation per round: every query runs once per
            // round, so the mix is the same for every seed.
            order = (0..s.specs.len()).collect();
            crate::served::shuffle(&mut order, &mut rng);
        }
        let q = &s.specs[order.pop().expect("refilled above")];
        let script = rng.next_u64() % STORM_SCRIPTS;
        sid += 1;
        tally.sessions += 1;
        let result = run_session(
            q,
            script,
            &s.model,
            &s.schedule,
            &mut tracer,
            sid,
            &mut tally,
        );
        let ok = match result {
            Ok(mut digest) => {
                if spec.inject == Some(Inject::Digest) && sid == 1 {
                    digest ^= 1;
                }
                let want = s.digests.get(&(q.name.clone(), script));
                if want != Some(&digest) {
                    record.note(format!(
                        "FAIL {} script {script}: digest {digest:016x}, recorded {:?}",
                        q.name,
                        want.map(|d| format!("{d:016x}"))
                    ));
                }
                want == Some(&digest)
            }
            Err(e) => {
                record.note(format!("FAIL {e}"));
                false
            }
        };
        if !ok {
            tally.failed += 1;
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let completed = tally.sessions - tally.failed;
    record.timing("first_frontier_ms", &tally.first_frontier_ms, SESSION_TAIL);
    record.set(
        "target_ms.p50",
        crate::metrics::percentile(&tally.target_ms, 0.5),
    );
    record.timing("refine_ms", &tally.refine_ms, INVOCATION_TAIL);
    record.timing("drag_ms", &tally.drag_ms, INVOCATION_TAIL);
    record.set("sessions_per_s", completed as f64 / wall);
    record.note(format!(
        "sessions_per_s = {completed} sessions / {wall:.3} s"
    ));
    record.timing("core.invoke_ms", &tally.invoke_ms, INVOCATION_TAIL);
    record.set(
        "query.plan_build_ms",
        crate::metrics::percentile(&tally.plan_build_ms, 0.5),
    );
    let n = tally.sessions.max(1) as f64;
    let st = &tally.stats;
    record.set("core.plans_generated", st.plans_generated as f64 / n);
    record.set("core.pairs_generated", st.pairs_generated as f64 / n);
    record.set(
        "core.candidates_retrieved",
        st.candidate_retrievals as f64 / n,
    );
    record.ratio(
        "core.useful_share",
        st.result_insertions,
        st.plans_generated,
    );
    record.ratio(
        "core.splits_skipped_share",
        st.splits_skipped,
        st.splits_visited + st.splits_skipped,
    );
    record.set(
        "core.pairs_skipped_watermark",
        st.pairs_skipped_watermark as f64 / n,
    );
    record.set(
        "core.stale_pairs_skipped",
        st.stale_pairs_skipped as f64 / n,
    );
    record.set("core.prune_comparisons", st.prune_comparisons as f64 / n);
    record.set(
        "core.seeded_candidates",
        (st.transplanted_candidates + st.rebased_candidates) as f64 / n,
    );
    record.set("index.result_entries", tally.result_entries as f64 / n);
    record.set(
        "index.candidate_entries",
        tally.candidate_entries as f64 / n,
    );
    record.set("plan.arena_plans", tally.arena_plans as f64 / n);
    record.note(format!(
        "per-session counters: base {} sessions",
        tally.sessions
    ));

    Outcome {
        record,
        attempted: tally.sessions,
        failed: tally.failed,
        spans: tracer.into_spans(),
    }
}

/// Prints the digest of every (query, storm script) session, in the
/// format of `ladder_digests.txt`.
pub fn record_digests() {
    let model = model();
    let schedule = schedule();
    println!("# query storm-script digest (written by --record-digests)");
    for q in templates(false) {
        for script in 0..STORM_SCRIPTS {
            let mut tracer = Tracer::new(false, Instant::now(), 0);
            let digest = run_session(
                &q,
                script,
                &model,
                &schedule,
                &mut tracer,
                0,
                &mut Tally::default(),
            )
            .expect("recording session runs");
            println!("{} {script} {digest:016x}", q.name);
        }
    }
}
