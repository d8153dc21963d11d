//! Cross-algorithm consistency: the whole stack agrees with itself.

use moqo::baselines::{memoryless_series, single_objective_dp};
use moqo::core::{IamaConfig, IamaOptimizer, OptimizerStats, Preference};
use moqo::cost::{Bounds, ResolutionSchedule};
use moqo::costmodel::{
    CostModel, MetricSet, PlanInput, SharedCostModel, StandardCostModel, StandardCostModelConfig,
};
use moqo::plan::{Operator, PhysicalProps};
use moqo::query::{testkit, QuerySpec};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

fn model() -> StandardCostModel {
    StandardCostModel::new(
        MetricSet::paper(),
        StandardCostModelConfig {
            dops: vec![1, 4],
            sampling_rates_pm: vec![500],
            eval_spin: 0,
            ..StandardCostModelConfig::default()
        },
    )
}

#[test]
fn weighted_frontier_minimum_matches_single_objective_dp() {
    // Selecting from IAMA's finest frontier with a linear preference must
    // come within the approximation guarantee of the true scalar optimum
    // (computed by the classical single-objective DP).
    let spec = testkit::chain_query(4, 120_000);
    let model = model();
    let schedule = ResolutionSchedule::linear(4, 1.02, 0.4);
    let weights = [1.0, 0.5, 100.0];

    let scalar = single_objective_dp(&spec, &model, &weights);
    let optimum = scalar.best.expect("scalar plan exists").1;

    let mut opt = IamaOptimizer::new(
        Arc::new(spec.clone()),
        Arc::new(model.clone()),
        schedule.clone(),
    );
    let b = Bounds::unbounded(model.dim());
    for r in 0..=schedule.r_max() {
        opt.optimize(&b, r);
    }
    let frontier = opt.frontier(&b, schedule.r_max());
    let pick = Preference::WeightedSum(weights.to_vec())
        .select(&frontier, &b)
        .expect("well-formed preference")
        .expect("frontier non-empty");
    let picked_score: f64 = pick
        .cost
        .as_slice()
        .iter()
        .zip(&weights)
        .map(|(c, w)| c * w)
        .sum();
    // A linear score of an alpha^n-covered frontier is within alpha^n of
    // the optimum (linearity preserves the factor).
    let guarantee = schedule.guarantee(schedule.r_max(), spec.n_tables());
    assert!(
        picked_score <= optimum * guarantee + 1e-9,
        "weighted pick {picked_score} exceeds {guarantee} x optimum {optimum}"
    );
    assert!(
        picked_score >= optimum - 1e-9,
        "weighted pick beats the true optimum?!"
    );
}

#[test]
fn memoryless_and_iama_agree_level_by_level() {
    // "The memoryless algorithm produces the same sequence of result plan
    // sets as the incremental anytime algorithm" — exact set equality is
    // insertion-order dependent, but at every level the two frontiers
    // must mutually cover within that level's guarantee (both are
    // alpha_r^n-approximate Pareto sets), and their sizes stay close.
    let spec = testkit::star_query(4, 250_000);
    let model = model();
    let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
    let b = Bounds::unbounded(model.dim());
    let mem = memoryless_series(&spec, &model, &schedule, &b);
    let mut opt = IamaOptimizer::new(
        Arc::new(spec.clone()),
        Arc::new(model.clone()),
        schedule.clone(),
    );
    for (r, mem_out) in mem.iter().enumerate() {
        opt.optimize(&b, r);
        let iama = opt.frontier(&b, r).costs();
        let mem_costs = mem_out.frontier_costs();
        let guarantee = schedule.guarantee(r, spec.n_tables());
        let a = moqo::cost::coverage_factor(&iama, &mem_costs);
        let m = moqo::cost::coverage_factor(&mem_costs, &iama);
        assert!(
            a <= guarantee + 1e-9 && m <= guarantee + 1e-9,
            "level {r}: frontiers diverge ({a} / {m} vs {guarantee})"
        );
        // Sizes track each other within a factor of two.
        let (big, small) = (
            iama.len().max(mem_costs.len()),
            iama.len().min(mem_costs.len()),
        );
        assert!(
            small * 2 >= big,
            "level {r}: sizes diverge ({} vs {})",
            iama.len(),
            mem_costs.len()
        );
    }
}

#[test]
fn network_replay_of_the_protocol_tour_is_bit_exact_with_the_core_session() {
    // The `protocol_tour` script — refine to saturation, drag one bound,
    // refine again, install a preference that auto-selects — replayed
    // through NetClient -> NetServer over real loopback TCP must produce
    // a SessionView whose frontier is `bits_eq` with the in-process
    // `Session` run, and the same auto-selected plan. This is the
    // process-boundary extension of the three-layer agreement the
    // protocol_tour example asserts in-process.
    use moqo::core::{Session, SessionView};
    use moqo::prelude::*;

    const IDLE: Duration = Duration::from_secs(120);
    let spec = || Arc::new(testkit::chain_query(4, 75_000));
    let schedule = ResolutionSchedule::linear(3, 1.05, 0.5);
    let levels = schedule.levels() as u64;
    let shared_model: SharedCostModel = Arc::new(StandardCostModel::paper_metrics());
    let preference = Preference::WeightedSum(vec![1.0, 0.05, 0.05]);

    // --- Reference: the bare core session, in process. ---
    let mut session = Session::open(
        SessionRequest::new(spec()),
        shared_model.clone(),
        schedule.clone(),
    )
    .expect("valid request");
    let mut core_view = SessionView::default();
    for _ in 0..levels {
        let ev = session.apply(SessionCommand::Refine).expect("live");
        core_view.fold(&ev).expect("ordered stream");
    }
    let anchor = core_view.frontier.min_by_metric(0).expect("non-empty").cost[0];
    let bound = Bounds::unbounded(shared_model.dim()).with_limit(0, anchor * 4.0);
    let ev = session
        .apply(SessionCommand::SetBounds(bound))
        .expect("live");
    core_view.fold(&ev).expect("ordered stream");
    for _ in 0..levels {
        let ev = session.apply(SessionCommand::Refine).expect("live");
        core_view.fold(&ev).expect("ordered stream");
    }
    let ev = session
        .apply(SessionCommand::SetPreference(Some(preference.clone())))
        .expect("live");
    core_view.fold(&ev).expect("ordered stream");
    let core_selected = core_view.selected().expect("preference fired");

    // --- The same script over TCP. ---
    let server = Arc::new(MoqoServer::new(
        shared_model.clone(),
        schedule.clone(),
        ServeConfig {
            shard: ShardConfig {
                shards: 2,
                engine: EngineConfig {
                    workers: 2,
                    ..EngineConfig::default()
                },
                rebalance_headroom: 8,
            },
            ..ServeConfig::default()
        },
    ));
    let registry = Arc::new(ModelRegistry::with_default(shared_model.clone()));
    let net = NetServer::bind(server, registry, NetConfig::default()).expect("bind loopback");
    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    let response = client
        .submit(SessionRequest::new(spec()), IDLE)
        .expect("well-formed request");
    assert_eq!(response, AdmissionResponse::Admitted);
    let wait_for = |client: &mut NetClient, invocations: u64| {
        let deadline = Instant::now() + IDLE;
        while client.view().invocations < invocations {
            assert!(Instant::now() < deadline, "stream stalled");
            client.recv(IDLE).expect("healthy stream");
        }
    };
    // The served session auto-refines one full ladder, like the core
    // session's scripted `Refine`s.
    wait_for(&mut client, levels);
    let anchor = client
        .view()
        .frontier
        .min_by_metric(0)
        .expect("non-empty")
        .cost[0];
    let bound = Bounds::unbounded(shared_model.dim()).with_limit(0, anchor * 4.0);
    client
        .command(SessionCommand::SetBounds(bound))
        .expect("send");
    // The refocus runs one invocation and re-refines to saturation.
    wait_for(&mut client, 2 * levels + 1);
    client
        .command(SessionCommand::SetPreference(Some(preference)))
        .expect("send");
    let net_view = client.wait_finished(IDLE).expect("terminal event").clone();
    net.shutdown();

    assert!(
        core_view.frontier.bits_eq(&net_view.frontier),
        "network replay diverged from the core session: {} vs {} points",
        core_view.frontier.len(),
        net_view.frontier.len()
    );
    assert_eq!(
        net_view.selected(),
        Some(core_selected),
        "the same preference must select the same plan across the wire"
    );
}

#[test]
fn metric_subsets_agree_on_shared_extremes() {
    // Optimizing with 2 metrics (time, cores) and with 3 (adding error)
    // must find the same minimum achievable time: extra metrics never
    // remove plans from the space.
    let spec = testkit::chain_query(3, 200_000);
    let config = StandardCostModelConfig {
        dops: vec![1, 4],
        sampling_rates_pm: vec![500],
        eval_spin: 0,
        ..StandardCostModelConfig::default()
    };
    let m2 = StandardCostModel::new(
        MetricSet::new(vec![
            moqo::costmodel::Metric::Time,
            moqo::costmodel::Metric::Cores,
        ]),
        config.clone(),
    );
    let m3 = StandardCostModel::new(MetricSet::paper(), config);
    let schedule = ResolutionSchedule::linear(4, 1.01, 0.3);
    let min_time = |model: &StandardCostModel| -> f64 {
        let mut opt = IamaOptimizer::new(
            Arc::new(spec.clone()),
            Arc::new(model.clone()),
            schedule.clone(),
        );
        let b = Bounds::unbounded(model.dim());
        for r in 0..=schedule.r_max() {
            opt.optimize(&b, r);
        }
        opt.frontier(&b, schedule.r_max())
            .min_by_metric(0)
            .unwrap()
            .cost[0]
    };
    let t2 = min_time(&m2);
    let t3 = min_time(&m3);
    // Identical plan spaces; pruning factors may blur the shared extreme
    // by at most the guarantee.
    let guarantee = schedule.guarantee(schedule.r_max(), spec.n_tables());
    assert!(
        (t2 - t3).abs() <= t2.min(t3) * (guarantee - 1.0) + 1e-9,
        "min-time mismatch: {t2} (2 metrics) vs {t3} (3 metrics)"
    );
}

/// FNV-1a digest of a frontier: point count, then each point's plan id
/// and cost bits, in snapshot order.
fn frontier_digest(frontier: &moqo::core::FrontierSnapshot) -> u64 {
    let mut h = moqo::cost::Fnv64::new();
    h.u64(frontier.len() as u64);
    for p in &frontier.points {
        h.u64(u64::from(p.plan.0));
        for v in p.cost.as_slice() {
            h.u64(v.to_bits());
        }
    }
    h.finish()
}

/// The golden digests' resolution schedule.
fn golden_schedule() -> ResolutionSchedule {
    ResolutionSchedule::linear(4, 1.05, 0.5)
}

/// Frontier digests across a full refine ladder, a drag of the time
/// bound to the ladder's median, and a second ladder under the dragged
/// bound: one digest per invocation.
fn ladder_and_drag_digests(spec: &QuerySpec, model: SharedCostModel) -> Vec<u64> {
    let schedule = golden_schedule();
    let mut opt = IamaOptimizer::new(Arc::new(spec.clone()), model.clone(), schedule.clone());
    let mut digests = Vec::new();
    let mut step = |bounds: &Bounds, r: usize| {
        opt.optimize(bounds, r);
        let frontier = opt.frontier(bounds, r);
        digests.push(frontier_digest(&frontier));
        frontier
    };
    let unbounded = Bounds::unbounded(model.dim());
    let mut last = None;
    for r in 0..=schedule.r_max() {
        last = Some(step(&unbounded, r));
    }
    let costs = last.expect("non-empty ladder").costs();
    let mut ts: Vec<f64> = costs.iter().map(|c| c[0]).collect();
    ts.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let bound = Bounds::unbounded(model.dim()).with_limit(0, ts[ts.len() / 2]);
    for r in 0..=schedule.r_max() {
        step(&bound, r);
    }
    digests
}

#[test]
fn ladder_and_drag_frontiers_match_golden_digests() {
    // Pruning is free to change how it finds a witness (scan order, the
    // structure it scans) and where it keeps result sets, never which
    // plans it keeps or the order the frontier lists them in: every
    // intermediate frontier of the ladder-drag-ladder series must hash
    // to the recorded digest. The star digests were recorded before
    // the witness search moved from the cell grid to the active list; the
    // cycle and random digests before the per-subset result grids went;
    // the TPC-H digests before the cell grid dropped its lane kernels.
    let tpch = |name| moqo::tpch::query_block(name, 1.0).expect("TPC-H block");
    let golden: [(&str, moqo::query::QuerySpec, [u64; 10]); 5] = [
        (
            "star-4",
            testkit::star_query(4, 250_000),
            [
                0x0f8b_3c73_2e54_e276,
                0xa1bf_4687_3c21_a956,
                0xfcad_49eb_11e1_52cb,
                0x26bb_af69_6bd1_4717,
                0x4271_88bd_d92f_23a7,
                0x39c8_636e_7981_ee1b,
                0xd445_d735_a7d7_e8d1,
                0xfeda_7b85_7c4b_954e,
                0x2140_36c4_a03f_b896,
                0xf0bf_5b43_e36b_d5d9,
            ],
        ),
        (
            "cycle-5",
            testkit::cycle_query(5, 100_000),
            [
                0x0f4c_2f29_b3dd_56a9,
                0x6fb8_deaa_d5be_dfb7,
                0x4116_79c3_b27f_1912,
                0x6ca0_0ead_1e72_b2f5,
                0xdcf8_f4fb_12d8_c27e,
                0x4e5b_fb7f_9059_cbbf,
                0x13f1_ab08_65b6_0856,
                0x36be_ac78_c0cf_0491,
                0x4869_80d2_6a3f_5d58,
                0x5e50_011a_91ea_2394,
            ],
        ),
        (
            "random-6-7",
            testkit::random_query(6, 7),
            [
                0x55b2_c9b5_8bbf_b5cb,
                0xa0c0_30dc_0efe_154a,
                0xf0fb_f0b1_cce4_3ee4,
                0x53f0_b703_fe1d_8235,
                0xfac5_4305_e2c6_6cef,
                0x8cda_64cf_ab93_7d0e,
                0xe577_8ea4_8af3_2437,
                0xe577_8ea4_8af3_2437,
                0x4b92_7e4b_ce4c_e350,
                0xe731_9339_6ecb_8048,
            ],
        ),
        (
            "tpch-q05",
            tpch("q05"),
            [
                0x7c9c_2d1e_e27f_5295,
                0x9b30_722c_0666_24db,
                0x2fc9_cc85_27d2_2a2a,
                0x9b09_c875_f80f_188c,
                0xba61_0410_a3e7_2f88,
                0x58a9_aeba_ff96_feb3,
                0x58a9_aeba_ff96_feb3,
                0x58a9_aeba_ff96_feb3,
                0xb856_b398_b0e1_156b,
                0x5537_0fe8_460a_979a,
            ],
        ),
        ("tpch-q08", tpch("q08"), Q08_DIGESTS),
    ];
    for (name, spec, digests) in golden {
        assert_eq!(
            ladder_and_drag_digests(&spec, Arc::new(model())),
            digests,
            "{name}: frontier digests moved"
        );
    }
}

/// The golden digest series of TPC-H q08 (sf 1).
const Q08_DIGESTS: [u64; 10] = [
    0xbad0_771a_3513_fc58,
    0x6004_f7d7_5f3d_2b5b,
    0x65a0_a819_eafe_36e2,
    0x120c_d296_8cf9_30b2,
    0x6b91_90b7_031a_34cf,
    0x6ae9_4c27_d7d5_5e32,
    0xcc88_d0d5_9ea9_0680,
    0xcc88_d0d5_9ea9_0680,
    0xe78d_ebfb_6a23_6986,
    0x97b5_9578_6a91_d181,
];

/// A model that forwards everything to `M` but offers no floors, so the
/// optimizer costs every join alternative.
struct NoFloors<M>(M);

impl<M: CostModel> CostModel for NoFloors<M> {
    fn metrics(&self) -> &MetricSet {
        self.0.metrics()
    }

    fn identity(&self) -> u64 {
        self.0.identity()
    }

    fn scan_alternatives(
        &self,
        spec: &QuerySpec,
        position: usize,
    ) -> Vec<(Operator, moqo::cost::CostVector, PhysicalProps)> {
        self.0.scan_alternatives(spec, position)
    }

    fn join_alternatives(
        &self,
        spec: &QuerySpec,
        left: &PlanInput,
        right: &PlanInput,
        out: &mut Vec<(Operator, moqo::cost::CostVector, PhysicalProps)>,
    ) {
        self.0.join_alternatives(spec, left, right, out)
    }

    fn join_alternative(
        &self,
        spec: &QuerySpec,
        left: &PlanInput,
        right: &PlanInput,
        op: Operator,
    ) -> Option<(moqo::cost::CostVector, PhysicalProps)> {
        self.0.join_alternative(spec, left, right, op)
    }
}

/// A frontier's points as plan ids with cost bits.
type Points = Vec<(u32, Vec<u64>)>;

/// The ids an arena issued, and which of them hold a stored plan.
type Stored = (usize, Vec<u32>);

/// Every frontier of a ladder and a bound storm, plus the optimizer's
/// final stored plans and stats.
fn ladder_and_storm(
    spec: &QuerySpec,
    model: SharedCostModel,
    config: IamaConfig,
) -> (Vec<Points>, Stored, OptimizerStats) {
    let schedule = golden_schedule();
    let mut opt = IamaOptimizer::with_config(
        Arc::new(spec.clone()),
        model.clone(),
        schedule.clone(),
        config,
    );
    let mut frontiers = Vec::new();
    let mut refine = |opt: &mut IamaOptimizer, bounds: &Bounds| {
        for r in 0..=schedule.r_max() {
            opt.optimize(bounds, r);
            let points = opt.frontier(bounds, r).points;
            frontiers.push(
                points
                    .iter()
                    .map(|p| {
                        (
                            p.plan.0,
                            p.cost.as_slice().iter().map(|v| v.to_bits()).collect(),
                        )
                    })
                    .collect(),
            );
        }
    };
    let unbounded = Bounds::unbounded(model.dim());
    refine(&mut opt, &unbounded);
    // The storm: tighten time to the frontier's lower quartile, drag it
    // to the median, then loosen it again, refining to the target after
    // every change.
    let mut ts: Vec<f64> = opt
        .frontier(&unbounded, schedule.r_max())
        .costs()
        .iter()
        .map(|c| c[0])
        .collect();
    ts.sort_by(f64::total_cmp);
    for t in [ts[ts.len() / 4], ts[ts.len() / 2], f64::INFINITY] {
        refine(&mut opt, &unbounded.with_limit(0, t));
    }
    let arena = opt.arena();
    let stored = arena.iter().map(|(id, _)| id.0).collect();
    (frontiers, (arena.issued(), stored), opt.stats().clone())
}

#[test]
fn skip_oracle_skipping_costings_changes_no_byte() {
    // An alternative whose floor `Res^q` already discards is not costed.
    // Against the same model without floors, which costs everything, no
    // frontier, plan id, cost bit, stored plan or routing counter may
    // move: with eager re-indexing (skips at every level), without it
    // (skips at `rM` only) and with the Lemma 5–7 counters tracked. A
    // discarded alternative, skipped or costed, takes an id and stores
    // nothing, so both arenas store the same plans under the same ids.
    let tpch = |name| moqo::tpch::query_block(name, 1.0).expect("TPC-H block");
    let golden = [
        testkit::star_query(4, 250_000),
        testkit::cycle_query(5, 100_000),
        testkit::random_query(6, 7),
        tpch("q05"),
        tpch("q08"),
    ];
    let configs = [
        ("eager", IamaConfig::default()),
        (
            "no eager",
            IamaConfig {
                eager_level_skip: false,
                ..IamaConfig::default()
            },
        ),
        ("tracked", IamaConfig::tracked()),
    ];
    for (label, config) in configs {
        for spec in &golden {
            let what = format!("{} ({label})", spec.name);
            let floors = Arc::new(moqo_bench::bench_model());
            let (skipping, arena, stats) = ladder_and_storm(spec, floors, config.clone());
            let everything = Arc::new(NoFloors(moqo_bench::bench_model()));
            let (costing, arena_all, all) = ladder_and_storm(spec, everything, config.clone());
            assert!(skipping == costing, "{what}: a frontier moved");
            assert_eq!(arena.0, arena_all.0, "{what}: ids issued");
            assert!(arena.1 == arena_all.1, "{what}: stored plans differ");
            assert!(arena.1.len() < arena.0, "{what}: no hole");
            let counters = |s: &OptimizerStats| {
                [
                    s.plans_generated,
                    s.result_insertions,
                    s.candidate_insertions,
                    s.candidate_retrievals,
                    s.candidates_discarded,
                ]
            };
            assert_eq!(counters(&stats), counters(&all), "{what}: counters");
            assert!(stats.costings_skipped > 0, "{what}: nothing skipped");
            assert_eq!(all.costings_skipped, 0, "{what}: skipped without floors");
            if config.track_invariants {
                let rm = golden_schedule().r_max() as u32;
                for s in [&stats, &all] {
                    assert!(s.max_plan_generations() <= 1, "{what}: Lemma 5");
                    assert!(s.max_pair_generations() <= 1, "{what}: Lemma 6");
                    assert!(s.max_candidate_retrievals() <= rm + 1, "{what}: Lemma 7");
                }
                assert_eq!(stats.plan_generations, all.plan_generations, "{what}");
            }
        }
    }
}

/// The golden digests' model behind a probe: every join costing first
/// spins for `spin`, so that a window's first chunk outlasts a cost
/// helper's wake-up, and records the thread it ran on. With `panic_at`
/// set it panics on the chosen pair: the `panic_at`-th costed on a cost
/// helper or, on a host without helpers, on any thread. Costs and
/// identity are the inner model's.
struct Probe {
    inner: StandardCostModel,
    spin: Duration,
    threads: Mutex<HashMap<ThreadId, String>>,
    chosen_calls: AtomicU64,
    panic_at: Option<u64>,
}

impl Probe {
    fn new(spin: Duration) -> Self {
        Self {
            inner: model(),
            spin,
            threads: Mutex::default(),
            chosen_calls: AtomicU64::new(0),
            panic_at: None,
        }
    }

    /// The threads that costed a join since the last call, by name.
    fn take_threads(&self) -> HashMap<ThreadId, String> {
        std::mem::take(&mut self.threads.lock().unwrap())
    }
}

impl CostModel for Probe {
    fn metrics(&self) -> &MetricSet {
        self.inner.metrics()
    }

    fn identity(&self) -> u64 {
        self.inner.identity()
    }

    fn scan_alternatives(
        &self,
        spec: &QuerySpec,
        position: usize,
    ) -> Vec<(Operator, moqo::cost::CostVector, PhysicalProps)> {
        self.inner.scan_alternatives(spec, position)
    }

    fn join_alternatives(
        &self,
        spec: &QuerySpec,
        left: &PlanInput,
        right: &PlanInput,
        out: &mut Vec<(Operator, moqo::cost::CostVector, PhysicalProps)>,
    ) {
        let t = Instant::now();
        while t.elapsed() < self.spin {
            std::hint::spin_loop();
        }
        let me = thread::current();
        let name = me.name().unwrap_or_default().to_owned();
        let on_helper = name.starts_with(moqo::core::COST_THREAD_PREFIX);
        if self.panic_at.is_some() && (on_helper || cost_helpers() == 0) {
            let n = self.chosen_calls.fetch_add(1, Ordering::Relaxed) + 1;
            if Some(n) == self.panic_at {
                panic!("the probe's chosen pair");
            }
        }
        self.threads.lock().unwrap().entry(me.id()).or_insert(name);
        self.inner.join_alternatives(spec, left, right, out)
    }
}

/// Helper threads the cost pool runs beside the optimizing thread.
fn cost_helpers() -> usize {
    thread::available_parallelism().map_or(0, |n| n.get() - 1)
}

/// Runs `f` on its own thread and fails unless it returns within 60 s.
fn within_60s<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{what} hung"))
}

#[test]
fn tpch_q08_costs_on_every_core_and_keeps_its_golden_digests() {
    // Phase 2 costs a subset's selected pairs on the cost pool when they
    // are expensive, then routes them in selection order: the first
    // invocation runs on the helpers too, and every frontier of the
    // series still hashes to its golden digest.
    let q08 = moqo::tpch::query_block("q08", 1.0).expect("TPC-H block");
    let probe = Arc::new(Probe::new(Duration::from_micros(5)));
    let mut opt = IamaOptimizer::new(Arc::new(q08.clone()), probe.clone(), golden_schedule());
    opt.optimize(&Bounds::unbounded(probe.dim()), 0);
    let threads = probe.take_threads();
    let caller = thread::current().id();
    assert!(threads.contains_key(&caller), "threads: {threads:?}");
    let helpers: Vec<&String> = threads
        .iter()
        .filter(|(id, _)| **id != caller)
        .map(|(_, name)| name)
        .collect();
    assert!(
        helpers
            .iter()
            .all(|n| n.starts_with(moqo::core::COST_THREAD_PREFIX)),
        "threads: {threads:?}"
    );
    assert_eq!(
        !helpers.is_empty(),
        cost_helpers() > 0,
        "{} cost helpers, threads: {threads:?}",
        cost_helpers()
    );
    assert_eq!(ladder_and_drag_digests(&q08, probe), Q08_DIGESTS);
}

#[test]
fn a_chain_3_first_invocation_never_leaves_the_calling_thread() {
    // Tables of 1,000 rows offer no sampled scans, so no subset selects
    // more than 16 pairs (two chunks): too few to offer to the cost pool,
    // however long each pair takes to cost.
    let probe = Arc::new(Probe::new(Duration::from_micros(5)));
    let mut opt = IamaOptimizer::new(
        Arc::new(testkit::chain_query(3, 1_000)),
        probe.clone(),
        golden_schedule(),
    );
    let report = opt.optimize(&Bounds::unbounded(probe.dim()), 0);
    assert!(report.pairs_generated > 0);
    let threads = probe.take_threads();
    assert_eq!(
        threads.keys().collect::<Vec<_>>(),
        [&thread::current().id()],
        "threads: {threads:?}"
    );
}

#[test]
fn a_panic_on_a_cost_helper_reaches_the_optimizing_thread() {
    // The model panics on one chosen pair: the first a cost helper costs
    // (on a host without helpers, the 100th, costed inline). `optimize`
    // must panic on its own thread with the model's payload, not hang,
    // and the helper must live on to serve the next optimizer.
    let q08 = Arc::new(moqo::tpch::query_block("q08", 1.0).expect("TPC-H block"));
    let spec = Arc::clone(&q08);
    let payload = within_60s("the panicking optimizer", move || {
        let mut probe = Probe::new(Duration::from_micros(5));
        probe.panic_at = Some(if cost_helpers() > 0 { 1 } else { 100 });
        let probe = Arc::new(probe);
        let mut opt = IamaOptimizer::new(spec, probe.clone(), golden_schedule());
        let unbounded = Bounds::unbounded(probe.dim());
        catch_unwind(AssertUnwindSafe(|| opt.optimize(&unbounded, 0)))
            .err()
            .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()))
    });
    assert_eq!(payload.as_deref(), Some("the probe's chosen pair"));
    // The pool still serves a second optimizer, helpers included.
    let (digests, helpers) = within_60s("the second optimizer", move || {
        let probe = Arc::new(Probe::new(Duration::from_micros(5)));
        let digests = ladder_and_drag_digests(&q08, probe.clone());
        let caller = thread::current().id();
        let helpers = probe.take_threads().into_keys().any(|id| id != caller);
        (digests, helpers)
    });
    assert_eq!(digests, Q08_DIGESTS);
    assert_eq!(helpers, cost_helpers() > 0);
}
