//! The paper's figures, lemmas and theorems as harness experiments, one
//! declaration per claim (`repro fig2a` … `repro schedules`,
//! `repro ablations`, `repro enumeration`).
//!
//! Gating follows one rule. A structural claim (Lemmas 5–7, Theorem 2,
//! quality never degrading along a ladder, repeated ladders generating
//! nothing) is a `*_violations` counter whose anchor is 0, so
//! `repro diff` fails on any violation at every tolerance. Deterministic
//! counts (plans generated, arena plans, result entries) are gated too.
//! Time is gated only as a total over a whole ladder: at `--fast` many
//! single invocations read 0.0000 s, and a gated zero would fail every
//! later run, so per-invocation times are info.

use crate::harness::{Experiment, ExperimentReport, Trial};
use crate::workload::{bench_model, bench_model_small, ExperimentSetup};
use moqo_baselines::{exhaustive_pareto, memoryless_series, one_shot, single_objective_dp};
use moqo_core::{IamaConfig, IamaOptimizer, InvocationReport};
use moqo_cost::{coverage_factor, Bounds, ResolutionSchedule};
use moqo_costmodel::{CostModel, StandardCostModel};
use moqo_query::{EnumerationPlan, QuerySpec};
use moqo_tpch::{all_join_blocks, query_block, table_counts};
use std::sync::Arc;
use std::time::Instant;

/// Runs one uninterrupted ladder (bounds ∞, resolution 0 to `rM`) on a
/// fresh optimizer — the paper's evaluation scenario "without user
/// interaction" — and returns the optimizer with its per-invocation
/// reports.
pub fn iama_series(
    spec: &QuerySpec,
    model: &StandardCostModel,
    schedule: &ResolutionSchedule,
    config: IamaConfig,
) -> (IamaOptimizer, Vec<InvocationReport>) {
    let mut opt = IamaOptimizer::with_config(
        Arc::new(spec.clone()),
        Arc::new(model.clone()),
        schedule.clone(),
        config,
    );
    let b = Bounds::unbounded(model.dim());
    let reports = (0..=schedule.r_max())
        .map(|r| opt.optimize(&b, r))
        .collect();
    (opt, reports)
}

fn seconds(reports: &[InvocationReport]) -> Vec<f64> {
    reports.iter().map(InvocationReport::seconds).collect()
}

fn plans(reports: &[InvocationReport]) -> u64 {
    reports.iter().map(|r| r.plans_generated).sum()
}

/// Records a ladder's gated totals: `total_s` and `plans_generated`.
fn record_ladder(t: &mut Trial, reports: &[InvocationReport]) {
    t.num_lower("total_s", seconds(reports).iter().sum());
    t.int_lower("plans_generated", plans(reports));
}

fn block(name: &str, sf: f64) -> QuerySpec {
    query_block(name, sf).unwrap_or_else(|| panic!("{name} is a TPC-H join block"))
}

/// The blocks whose first invocation `repro fig2a` weighs against the
/// one-shot scheme in plans costed.
const FIRST_FRONTIER_BLOCKS: [&str; 3] = ["q05", "q08", "q09"];

/// Figure 2a: anytime (IAMA) vs one-shot result quality over time on
/// q05. The `summary` variant runs the ladder and the one-shot scheme;
/// one `r<i>` row per invocation follows with its cumulative time and
/// the coverage factor of its frontier against the finest one. One row
/// per `FIRST_FRONTIER_BLOCKS` block then counts the plans costed
/// before the first frontier against the one-shot scheme's.
pub fn fig2a_experiment(sf: f64, fast: bool) -> ExperimentReport {
    let levels = if fast { 10 } else { 20 };
    let mut exp = Experiment::new("fig2a", fast, Vec::<(f64, f64, usize)>::new)
        .title(
            "Figure 2a: anytime vs one-shot quality over time (q05), plans costed (q05, q08, q09)",
        )
        .variant("anytime vs one-shot", "summary", move |rows, t| {
            let model = bench_model();
            let spec = block("q05", sf);
            let schedule = ExperimentSetup::fig4().schedule(levels);
            let mut opt = IamaOptimizer::new(
                Arc::new(spec.clone()),
                Arc::new(model.clone()),
                schedule.clone(),
            );
            let b = Bounds::unbounded(model.dim());
            let (mut cumulative, mut reports, mut frontiers) = (0.0, Vec::new(), Vec::new());
            for r in 0..=schedule.r_max() {
                let report = opt.optimize(&b, r);
                cumulative += report.seconds();
                frontiers.push((cumulative, opt.frontier(&b, r).costs()));
                reports.push(report);
            }
            let finest = frontiers.last().map(|(_, c)| c.clone()).unwrap_or_default();
            rows.extend(
                frontiers
                    .iter()
                    .map(|(s, costs)| (*s, coverage_factor(costs, &finest), costs.len())),
            );
            let oneshot = one_shot(&spec, &model, &schedule, &b);
            let oneshot_s = oneshot.duration.as_secs_f64();
            t.num("iama_first_s", rows[0].0);
            t.num("oneshot_s", oneshot_s);
            t.int(
                "refinements_before_oneshot",
                rows.iter().filter(|row| row.0 < oneshot_s).count() as u64,
            );
            record_ladder(t, &reports);
            t.int_lower(
                "coverage_violations",
                rows.windows(2).filter(|w| w[1].1 > w[0].1 + 1e-9).count() as u64,
            );
        });
    for i in 0..levels {
        exp = exp.variant("anytime curve", format!("r{i}"), move |rows, t| {
            let (cumulative, coverage, size) = rows[i];
            t.num("cumulative_s", cumulative);
            t.num("coverage_vs_final", coverage);
            t.int("frontier_size", size as u64);
        });
    }
    for query in FIRST_FRONTIER_BLOCKS {
        exp = exp.variant(
            "plans costed before the first frontier",
            query,
            move |_, t| {
                // The headline as a count: plans costed by the first
                // invocation, against the one-shot scheme's (which costs
                // every plan it generates).
                let model = bench_model();
                let spec = block(query, sf);
                let schedule = ExperimentSetup::fig4().schedule(levels);
                let b = Bounds::unbounded(model.dim());
                let mut opt = IamaOptimizer::new(
                    Arc::new(spec.clone()),
                    Arc::new(model.clone()),
                    schedule.clone(),
                );
                let generated = opt.optimize(&b, 0).plans_generated;
                let first = generated - opt.stats().costings_skipped;
                let oneshot = one_shot(&spec, &model, &schedule, &b).plans_generated;
                t.int("first_plans_generated", generated);
                t.int_lower("first_plans_costed", first);
                t.int("oneshot_plans_costed", oneshot);
                t.num("oneshot_ratio", oneshot as f64 / first.max(1) as f64);
            },
        );
    }
    exp.conclusion(
        "IAMA shows its first frontier long before the one-shot scheme \
         returns its only one, and the frontier's coverage of the finest \
         result never worsens along the ladder.",
    )
    .run()
}

/// Figure 2b: incremental vs memoryless per-invocation time on q05.
pub fn fig2b_experiment(sf: f64, fast: bool) -> ExperimentReport {
    let levels = if fast { 10 } else { 20 };
    let mut exp = Experiment::new("fig2b", fast, Vec::<(f64, f64)>::new)
        .title("Figure 2b: incremental vs memoryless run time per invocation (q05)")
        .variant("ladder", "summary", move |rows, t| {
            let model = bench_model();
            let spec = block("q05", sf);
            let schedule = ExperimentSetup::fig4().schedule(levels);
            let (_, reports) = iama_series(&spec, &model, &schedule, IamaConfig::default());
            let memoryless =
                memoryless_series(&spec, &model, &schedule, &Bounds::unbounded(model.dim()));
            let mem: Vec<f64> = memoryless
                .iter()
                .map(|o| o.duration.as_secs_f64())
                .collect();
            rows.extend(seconds(&reports).into_iter().zip(mem.iter().copied()));
            record_ladder(t, &reports);
            t.num("memoryless_total_s", mem.iter().sum());
            t.int(
                "memoryless_plans",
                memoryless.iter().map(|o| o.plans_generated).sum(),
            );
        });
    for i in 0..levels {
        exp = exp.variant("per invocation", format!("r{i}"), move |rows, t| {
            t.num("incremental_s", rows[i].0);
            t.num("memoryless_s", rows[i].1);
        });
    }
    exp.run()
}

/// One bar group of Figures 3–5: the blocks with `n` tables. A group's
/// mean averages its blocks' mean invocation times; its max (`use_max`)
/// is the largest single invocation. Adds the group's ladder totals
/// (IAMA, memoryless, one-shot) to `acc`.
fn invocation_time_row(
    model: &StandardCostModel,
    group: &[&QuerySpec],
    schedule: &ResolutionSchedule,
    use_max: bool,
    acc: &mut [f64; 3],
    t: &mut Trial,
) {
    let b = Bounds::unbounded(model.dim());
    let q = group.len() as f64;
    let (mut iama, mut mem, mut shot, mut plans_generated) = (0.0_f64, 0.0_f64, 0.0, 0);
    for spec in group {
        let (_, reports) = iama_series(spec, model, schedule, IamaConfig::default());
        let times = seconds(&reports);
        let mem_times: Vec<f64> = memoryless_series(spec, model, schedule, &b)
            .iter()
            .map(|o| o.duration.as_secs_f64())
            .collect();
        let oneshot = one_shot(spec, model, schedule, &b).duration.as_secs_f64();
        acc[0] += times.iter().sum::<f64>();
        acc[1] += mem_times.iter().sum::<f64>();
        acc[2] += oneshot;
        plans_generated += plans(&reports);
        shot += oneshot / q;
        if use_max {
            iama = iama.max(crate::stats::max(&times).unwrap_or(0.0));
            mem = mem.max(crate::stats::max(&mem_times).unwrap_or(0.0));
        } else {
            iama += crate::stats::mean(&times).unwrap_or(0.0) / q;
            mem += crate::stats::mean(&mem_times).unwrap_or(0.0) / q;
        }
    }
    t.int("queries", group.len() as u64);
    t.num("iama_s", iama);
    t.num("memoryless_s", mem);
    t.num("oneshot_s", shot);
    t.num("speedup_vs_oneshot", shot / iama.max(1e-9));
    t.int_lower("plans_generated", plans_generated);
}

/// Figures 3–5 on every TPC-H join block: one section per ladder
/// length with a row per table count, and a gated `all blocks` total of
/// IAMA's ladder time per ladder length.
fn invocation_time_experiment(
    name: &'static str,
    title: &str,
    setup: ExperimentSetup,
    use_max: bool,
    fast: bool,
) -> ExperimentReport {
    let sf = setup.sf;
    let state = move || (bench_model(), all_join_blocks(sf), [0.0_f64; 3]);
    let mut exp = Experiment::new(name, fast, state).title(title);
    for &levels in &setup.level_counts {
        let section = format!("{levels} level(s)");
        for n in table_counts(sf) {
            let schedule = setup.schedule(levels);
            exp = exp.variant(&section, format!("{n} tables"), move |state, t| {
                let (model, blocks, acc) = state;
                let group: Vec<&QuerySpec> = blocks.iter().filter(|q| q.n_tables() == n).collect();
                invocation_time_row(model, &group, &schedule, use_max, acc, t);
            });
        }
        exp = exp.variant("all blocks", section, |(_, _, acc), t| {
            t.num_lower("total_s", acc[0]);
            t.num("memoryless_total_s", acc[1]);
            t.num("oneshot_total_s", acc[2]);
            *acc = [0.0; 3];
        });
    }
    exp.run()
}

/// Figure 3: mean time per invocation at `alpha_T = 1.01`,
/// `alpha_S = 0.05`, for 1, 5 and 20 resolution levels (1 and 5 at
/// `--fast`).
pub fn fig3_experiment(sf: f64, fast: bool) -> ExperimentReport {
    let mut setup = ExperimentSetup {
        sf,
        ..ExperimentSetup::fig3()
    };
    if fast {
        setup.level_counts = vec![1, 5];
    }
    let title = "Figure 3: mean time per invocation (alpha_T=1.01, alpha_S=0.05)";
    invocation_time_experiment("fig3", title, setup, false, fast)
}

/// Figure 4: mean time per invocation at `alpha_T = 1.005`,
/// `alpha_S = 0.5`.
pub fn fig4_experiment(sf: f64, fast: bool) -> ExperimentReport {
    let mut setup = ExperimentSetup {
        sf,
        ..ExperimentSetup::fig4()
    };
    if fast {
        setup.level_counts = vec![1, 5];
    }
    let title = "Figure 4: mean time per invocation (alpha_T=1.005, alpha_S=0.5)";
    invocation_time_experiment("fig4", title, setup, false, fast)
}

/// Figure 5: maximum time per invocation on Figure 4's setup at 20
/// levels (5 at `--fast`).
pub fn fig5_experiment(sf: f64, fast: bool) -> ExperimentReport {
    let setup = ExperimentSetup {
        sf,
        level_counts: vec![if fast { 5 } else { 20 }],
        ..ExperimentSetup::fig4()
    };
    let title = "Figure 5: MAX time per invocation (alpha_T=1.005, alpha_S=0.5)";
    invocation_time_experiment("fig5", title, setup, true, fast)
}

/// Declares one variant per TPC-H join block with at most `max_tables`
/// tables; `run` gets the shared model and the block.
fn per_block<S: 'static>(
    mut exp: Experiment<S>,
    section: &str,
    sf: f64,
    max_tables: usize,
    run: impl Fn(&mut S, &QuerySpec, &mut Trial) + Clone + 'static,
) -> Experiment<S> {
    for spec in all_join_blocks(sf) {
        if spec.n_tables() <= max_tables {
            let run = run.clone();
            exp = exp.variant(section, spec.name.clone(), move |s, t| run(s, &spec, t));
        }
    }
    exp
}

/// Lemmas 5–7 on every TPC-H block: no plan and no ordered pair is
/// generated twice, and no candidate is retrieved more than `rM + 1`
/// times. Each lemma is a violation counter (entries over the bound).
pub fn lemmas_experiment(sf: f64, fast: bool) -> ExperimentReport {
    let schedule = ExperimentSetup::fig4().schedule(if fast { 5 } else { 20 });
    let bound = (schedule.r_max() + 1) as u32;
    let exp = Experiment::new("lemmas", fast, bench_model)
        .title("Lemmas 5-7: incremental invariants on TPC-H");
    per_block(exp, "invariants", sf, usize::MAX, move |model, spec, t| {
        let (opt, reports) = iama_series(spec, model, &schedule, IamaConfig::tracked());
        let stats = opt.stats();
        fn over<'a>(counts: impl Iterator<Item = &'a u32>, max: u32) -> u64 {
            counts.filter(|&&c| c > max).count() as u64
        }
        t.int("max_plan_generations", stats.max_plan_generations().into());
        t.int("max_pair_generations", stats.max_pair_generations().into());
        t.int(
            "max_candidate_retrievals",
            stats.max_candidate_retrievals().into(),
        );
        t.int("retrieval_bound", bound.into());
        t.int_lower(
            "lemma5_violations",
            over(stats.plan_generations.values(), 1),
        );
        t.int_lower(
            "lemma6_violations",
            over(stats.pair_generations.values(), 1),
        );
        t.int_lower(
            "lemma7_violations",
            over(stats.candidate_retrieval_counts.values(), bound),
        );
        t.int_lower("plans_generated", plans(&reports));
    })
    .run()
}

/// Theorem 2 in practice: the measured approximation factor of IAMA's
/// finest frontier against exhaustive ground truth, on every block with
/// at most 4 tables (exhaustive DP is exponential). Runs at `sf / 100`
/// under the reduced operator space.
pub fn quality_experiment(sf: f64, fast: bool) -> ExperimentReport {
    let schedule = ResolutionSchedule::linear(if fast { 2 } else { 4 }, 1.05, 0.5);
    let exp = Experiment::new("quality", fast, bench_model_small)
        .title("Theorem 2: measured vs guaranteed approximation factor");
    per_block(exp, "approximation", sf * 0.01, 4, move |model, spec, t| {
        let b = Bounds::unbounded(model.dim());
        let exact = exhaustive_pareto(spec, model, &b).pareto_costs();
        let (opt, _) = iama_series(spec, model, &schedule, IamaConfig::default());
        let frontier = opt.frontier(&b, schedule.r_max()).costs();
        let measured = coverage_factor(&frontier, &exact);
        let guarantee = schedule.guarantee(schedule.r_max(), spec.n_tables());
        t.int("tables", spec.n_tables() as u64);
        t.num("measured_factor", measured);
        t.num("guarantee", guarantee);
        t.int("exhaustive_size", exact.len() as u64);
        t.int("iama_size", frontier.len() as u64);
        t.int_lower(
            "theorem2_violations",
            u64::from(measured > guarantee + 1e-9),
        );
    })
    .run()
}

/// Design ablations on q03, q05 and q09: Δ-set filtering, eager
/// candidate re-queueing and result shadowing, each switched off alone,
/// plus the paper-exact pseudo-code (no eager re-queue, no shadowing).
pub fn ablations_experiment(sf: f64, fast: bool) -> ExperimentReport {
    let schedule = ExperimentSetup::fig4().schedule(if fast { 5 } else { 20 });
    let base = IamaConfig::default();
    let configs = [
        ("default", base.clone()),
        (
            "no_delta",
            IamaConfig {
                use_delta: false,
                ..base.clone()
            },
        ),
        (
            "no_eager_requeue",
            IamaConfig {
                eager_level_skip: false,
                ..base.clone()
            },
        ),
        (
            "no_shadowing",
            IamaConfig {
                shadow_dominated: false,
                ..base.clone()
            },
        ),
        (
            "paper_exact",
            IamaConfig {
                eager_level_skip: false,
                shadow_dominated: false,
                ..base
            },
        ),
    ];
    let mut exp = Experiment::new("ablations", fast, bench_model)
        .title("Ablations: delta sets, eager re-queueing and shadowing");
    for name in ["q03", "q05", "q09"] {
        let spec = block(name, sf);
        for (label, config) in &configs {
            let (spec, schedule, config) = (spec.clone(), schedule.clone(), config.clone());
            exp = exp.variant(name, *label, move |model, t| {
                let (opt, reports) = iama_series(&spec, model, &schedule, config);
                record_ladder(t, &reports);
                t.int_lower("result_entries", opt.result_set_size() as u64);
                t.int("pairs_generated", opt.stats().pairs_generated);
                // Pairs a full recombine re-skipped: positionally by the
                // watermark rectangles or through the IsFresh fallback.
                let stats = opt.stats();
                t.int(
                    "settled_pairs_skipped",
                    stats.stale_pairs_skipped + stats.pairs_skipped_watermark,
                );
            });
        }
    }
    exp.run()
}

/// Bound-tightening scenario (Example 3): on q05 the user tightens the
/// time bound to twice the fastest known plan halfway up the ladder,
/// which resets the resolution to 0 (Algorithm 1). The `session`
/// variant runs it; one `step <i>` row per invocation follows.
pub fn bounds_experiment(sf: f64, fast: bool) -> ExperimentReport {
    let schedule = ExperimentSetup::fig4().schedule(if fast { 6 } else { 10 });
    let half = schedule.r_max() / 2;
    let steps = half + 1 + schedule.levels();
    let sched = schedule.clone();
    let mut exp = Experiment::new("bounds", fast, Vec::<(usize, f64, usize)>::new)
        .title("Bounds scenario: the user tightens the time bound mid-session (q05)")
        .variant("scenario", "session", move |rows, t| {
            let (model, spec, schedule) = (bench_model(), block("q05", sf), sched);
            let unbounded = Bounds::unbounded(model.dim());
            let mut opt = IamaOptimizer::new(
                Arc::new(spec.clone()),
                Arc::new(model.clone()),
                schedule.clone(),
            );
            let mut reports = Vec::new();
            let mut step = |opt: &mut IamaOptimizer, b: &Bounds, r: usize| {
                let rep = opt.optimize(b, r);
                rows.push((r, rep.seconds(), rep.frontier_size));
                reports.push(rep);
            };
            for r in 0..=half {
                step(&mut opt, &unbounded, r);
            }
            let t_min = opt
                .frontier(&unbounded, half)
                .min_by_metric(0)
                .map(|p| p.cost[0])
                .unwrap_or(f64::INFINITY);
            let tight = Bounds::unbounded(model.dim()).with_limit(0, t_min * 2.0);
            for r in 0..=schedule.r_max() {
                step(&mut opt, &tight, r);
            }
            record_ladder(t, &reports);
            let oneshot = one_shot(&spec, &model, &schedule, &unbounded);
            t.num("oneshot_s", oneshot.duration.as_secs_f64());
        });
    for i in 0..steps {
        exp = exp.variant("steps", format!("step {i}"), move |rows, t| {
            let (resolution, secs, size) = rows[i];
            t.int("resolution", resolution as u64);
            t.num("seconds", secs);
            t.int("frontier_size", size as u64);
        });
    }
    exp.run()
}

/// Theorem 3: accumulated space after one full ladder on every TPC-H
/// block — plans in the live arena and in the arena a parked optimizer
/// keeps after `compact()`, result and candidate entries, and the
/// visible frontier.
pub fn space_experiment(sf: f64, fast: bool) -> ExperimentReport {
    let schedule = ExperimentSetup::fig4().schedule(if fast { 5 } else { 20 });
    let exp = Experiment::new("space", fast, bench_model)
        .title("Theorem 3: accumulated space consumption on TPC-H");
    per_block(exp, "space", sf, usize::MAX, move |model, spec, t| {
        let (mut opt, _) = iama_series(spec, model, &schedule, IamaConfig::default());
        let b = Bounds::unbounded(model.dim());
        t.int("tables", spec.n_tables() as u64);
        t.int_lower("arena_plans", opt.arena().len() as u64);
        opt.compact();
        t.int_lower("parked_arena_plans", opt.arena().len() as u64);
        t.int_lower("result_entries", opt.result_set_size() as u64);
        t.int("candidate_entries", opt.candidate_set_size() as u64);
        t.int("frontier", opt.frontier(&b, schedule.r_max()).len() as u64);
    })
    .run()
}

/// Theorem 5: amortized per-invocation time over repeated ladders
/// (50 rounds, 10 at `--fast`) against one single-objective DP run.
/// Every round after the first must generate no plan at all.
pub fn amortized_experiment(sf: f64, fast: bool) -> ExperimentReport {
    let schedule = ExperimentSetup::fig4().schedule(10);
    let rounds = if fast { 10 } else { 50 };
    let mut exp = Experiment::new("amortized", fast, bench_model)
        .title("Theorem 5: amortized invocation time over repeated ladders");
    for name in ["q03", "q05", "q09"] {
        let (spec, schedule) = (block(name, sf), schedule.clone());
        exp = exp.variant("repeated ladders", name, move |model, t| {
            let (mut opt, first) = iama_series(&spec, model, &schedule, IamaConfig::default());
            let b = Bounds::unbounded(model.dim());
            let mut repeats = Vec::new();
            for _ in 1..rounds {
                repeats.extend((0..=schedule.r_max()).map(|r| opt.optimize(&b, r)));
            }
            let first_s: f64 = seconds(&first).iter().sum();
            let total_s = first_s + seconds(&repeats).iter().sum::<f64>();
            let weights = vec![1.0; model.dim()];
            let single = single_objective_dp(&spec, model, &weights).duration;
            t.num("amortized_s", total_s / (rounds * schedule.levels()) as f64);
            t.num("first_ladder_s", first_s / schedule.levels() as f64);
            t.num("single_objective_s", single.as_secs_f64());
            t.num_lower("total_s", total_s);
            t.int_lower("plans_generated", plans(&first));
            t.int_lower("repeat_plan_violations", plans(&repeats));
        });
    }
    exp.conclusion(
        "Amortized time collapses far below the first ladder: repeated \
         ladders generate no plans, leaving the table-set sweep.",
    )
    .run()
}

/// Schedule shapes (Section 6.2's future-work remark): the paper's
/// linear ladder against a geometric ladder with the same endpoints and
/// level count, on q05 and q08.
pub fn schedules_experiment(sf: f64, fast: bool) -> ExperimentReport {
    let levels = if fast { 10 } else { 20 };
    let (alpha_t, alpha_s) = (1.005, 0.5);
    let mut exp = Experiment::new("schedules", fast, bench_model)
        .title("Schedule shapes: linear vs geometric precision ladders");
    for name in ["q05", "q08"] {
        let spec = block(name, sf);
        for (label, schedule) in [
            (
                "linear",
                ResolutionSchedule::linear(levels - 1, alpha_t, alpha_s),
            ),
            (
                "geometric",
                ResolutionSchedule::geometric(levels - 1, alpha_t, alpha_t + alpha_s),
            ),
        ] {
            let spec = spec.clone();
            exp = exp.variant(name, label, move |model, t| {
                let (_, reports) = iama_series(&spec, model, &schedule, IamaConfig::default());
                let times = seconds(&reports);
                t.num("avg_s", crate::stats::mean(&times).unwrap_or(0.0));
                t.num("max_s", crate::stats::max(&times).unwrap_or(0.0));
                record_ladder(t, &reports);
            });
        }
    }
    exp.conclusion(
        "On the calibrated (cost-saturating) model the two ladders perform \
         within a few percent; the geometric ladder gains on denser cost \
         spaces where the finest levels dominate (`quantize_grid: None`).",
    )
    .run()
}

/// Ordered splits the exhaustive enumeration visits per invocation:
/// `sum over k of C(n, k) * (2^k - 2)` — all splits of all subsets,
/// connected or not.
fn exhaustive_split_visits(n: usize) -> u64 {
    let mut total = 0u64;
    let mut choose = 1u64; // C(n, 0)
    for k in 1..=n as u64 {
        choose = choose * (n as u64 - k + 1) / k;
        if k >= 2 {
            total += choose * ((1u64 << k) - 2);
        }
    }
    total
}

/// The `repro enumeration` experiment: one variant per query, reporting
/// the split-visit economy of the precomputed enumeration plan versus
/// exhaustive per-invocation re-enumeration, over a full ladder plus
/// one repeated steady-state invocation. It also times the plan build
/// and that repeated invocation.
///
/// A lean model (small option sets) keeps the refinement ladders fast;
/// the counters being reported are model-independent structure metrics,
/// except the costing skip share. Its evaluation spin is the least at
/// which the standard model offers cost floors, so that share is the one
/// any model with floors reads.
pub fn enumeration_experiment(sf: f64, fast: bool) -> ExperimentReport {
    use moqo_costmodel::standard::FLOOR_MIN_SPIN;
    use moqo_costmodel::{MetricSet, StandardCostModelConfig};
    use moqo_query::testkit;

    let model = StandardCostModel::new(
        MetricSet::paper(),
        StandardCostModelConfig {
            dops: vec![1, 4],
            sampling_rates_pm: vec![100, 500],
            eval_spin: FLOOR_MIN_SPIN,
            ..StandardCostModelConfig::default()
        },
    );
    let schedule = ResolutionSchedule::linear(if fast { 2 } else { 4 }, 1.05, 0.5);
    let n = if fast { 8 } else { 10 };
    let mut specs = vec![
        testkit::chain_query(n, 100_000),
        testkit::cycle_query(n, 100_000),
        testkit::star_query(if fast { 6 } else { 8 }, 100_000),
        testkit::clique_query(if fast { 5 } else { 7 }, 1000),
    ];
    specs.extend(["q03", "q05", "q09"].iter().map(|name| block(name, sf)));
    let mut exp = Experiment::new("enumeration", fast, move || (model, schedule))
        .title("enumeration plane: precomputed splits vs exhaustive re-enumeration");
    for spec in specs {
        let label = spec.name.clone();
        exp = exp.variant("enumeration plane", label, move |(model, schedule), t| {
            let t0 = Instant::now();
            let built = EnumerationPlan::build(&spec.graph);
            let plan_build_ms = t0.elapsed().as_secs_f64() * 1e3;
            let (mut opt, _) = iama_series(&spec, model, schedule, IamaConfig::default());
            let ladder_splits_visited = opt.stats().splits_visited;
            let steady = opt.optimize(&Bounds::unbounded(model.dim()), schedule.r_max());
            let stats = opt.stats();
            t.int("tables", spec.n_tables() as u64);
            t.int(
                "exhaustive_splits_per_inv",
                exhaustive_split_visits(spec.n_tables()),
            );
            t.int("plan_subsets", built.len() as u64);
            t.int("plan_splits", built.total_splits() as u64);
            t.int_lower("ladder_splits_visited", ladder_splits_visited);
            t.int_lower("steady_splits_visited", steady.splits_visited);
            t.int("steady_splits_skipped", steady.splits_skipped);
            t.int(
                "pairs_skipped",
                stats.pairs_skipped_watermark + stats.stale_pairs_skipped,
            );
            t.int_lower("scratch_high_water", stats.scratch_high_water as u64);
            // Join alternatives never costed because `Prune` would have
            // discarded them, out of every plan the ladder generated.
            t.int("costings_skipped", stats.costings_skipped);
            t.int("plans_generated", stats.plans_generated);
            t.num(
                "costing_skip_share",
                stats.costings_skipped as f64 / stats.plans_generated.max(1) as f64,
            );
            t.num("plan_build_ms", plan_build_ms);
            t.num("steady_invocation_us", steady.seconds() * 1e6);
        });
    }
    exp.conclusion(
        "A repeated invocation visits 0 splits: the watermark rectangles \
         settle the whole plan, versus the exhaustive path re-walking \
         every split of every subset each invocation.",
    )
    .run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Value, VariantReport};

    fn int(v: &VariantReport, key: &str) -> u64 {
        let m = v.metrics.iter().find(|m| m.key == key);
        m.and_then(|m| m.value.as_u64())
            .unwrap_or_else(|| panic!("{}: no counter {key}", v.label))
    }

    fn num(report: &ExperimentReport, label: &str, key: &str) -> f64 {
        report
            .metric(label, key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{label}: no metric {key}"))
    }

    fn section<'a>(report: &'a ExperimentReport, name: &str) -> Vec<&'a VariantReport> {
        report
            .variants
            .iter()
            .filter(|v| v.section == name)
            .collect()
    }

    #[test]
    fn iama_series_produces_one_report_per_level() {
        let spec = query_block("q03", 0.01).unwrap();
        let schedule = ResolutionSchedule::linear(3, 1.05, 0.5);
        let (_, reports) = iama_series(&spec, &bench_model(), &schedule, IamaConfig::default());
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.frontier_size > 0));
    }

    #[test]
    fn invariants_hold_on_small_tpch() {
        let report = lemmas_experiment(0.001, true);
        let blocks = section(&report, "invariants");
        assert_eq!(blocks.len(), all_join_blocks(0.001).len());
        for v in blocks {
            assert!(int(v, "max_plan_generations") <= 1, "{}", v.label);
            assert!(int(v, "max_pair_generations") <= 1, "{}", v.label);
            assert!(
                int(v, "max_candidate_retrievals") <= int(v, "retrieval_bound"),
                "{}",
                v.label
            );
            for lemma in [
                "lemma5_violations",
                "lemma6_violations",
                "lemma7_violations",
            ] {
                assert_eq!(int(v, lemma), 0, "{}: {lemma}", v.label);
            }
        }
    }

    #[test]
    fn quality_respects_guarantee_on_small_blocks() {
        let report = quality_experiment(0.1, true);
        let blocks = section(&report, "approximation");
        assert!(!blocks.is_empty());
        for v in blocks {
            let (measured, guarantee) = (
                num(&report, &v.label, "measured_factor"),
                num(&report, &v.label, "guarantee"),
            );
            assert!(
                measured <= guarantee + 1e-9,
                "{}: measured {measured} > guarantee {guarantee}",
                v.label
            );
            assert_eq!(int(v, "theorem2_violations"), 0, "{}", v.label);
        }
    }

    #[test]
    fn anytime_quality_curve_improves() {
        let report = fig2a_experiment(0.01, true);
        let curve = section(&report, "anytime curve");
        assert_eq!(curve.len(), 10);
        let coverage: Vec<f64> = curve
            .iter()
            .map(|v| num(&report, &v.label, "coverage_vs_final"))
            .collect();
        // The final point covers the final frontier exactly.
        assert!((coverage.last().unwrap() - 1.0).abs() < 1e-9);
        // Quality never degrades along the curve.
        for w in coverage.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
        assert_eq!(
            report.metric("summary", "coverage_violations"),
            Some(&Value::Int(0))
        );
        assert!(num(&report, "summary", "oneshot_s") > 0.0);
    }

    #[test]
    fn bounds_scenario_runs_and_resets_resolution() {
        let report = bounds_experiment(0.01, true);
        // Phase A: r = 0..=2, phase B (bounds changed): r = 0..=5.
        let resolutions: Vec<u64> = section(&report, "steps")
            .iter()
            .map(|v| int(v, "resolution"))
            .collect();
        assert_eq!(resolutions, vec![0, 1, 2, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn ablations_execute() {
        let report = ablations_experiment(0.01, true);
        let q03 = section(&report, "q03");
        let labels: Vec<&str> = q03.iter().map(|v| v.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "default",
                "no_delta",
                "no_eager_requeue",
                "no_shadowing",
                "paper_exact"
            ]
        );
        // First match is q03, the first section.
        assert!(num(&report, "default", "total_s") > 0.0);
        assert!(num(&report, "no_delta", "total_s") > 0.0);
        // Without Δ filtering, already-combined pairs are re-skipped
        // (watermark rectangles or the IsFresh fallback).
        assert!(int(q03[1], "settled_pairs_skipped") > 0);
    }

    #[test]
    fn repeated_ladders_generate_no_plans() {
        let report = amortized_experiment(0.01, true);
        for v in &report.variants {
            assert!(int(v, "plans_generated") > 0, "{}", v.label);
            assert_eq!(int(v, "repeat_plan_violations"), 0, "{}", v.label);
        }
    }
}
