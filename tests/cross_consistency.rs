//! Cross-algorithm consistency: the whole stack agrees with itself.

use moqo::baselines::{memoryless_series, single_objective_dp};
use moqo::core::{IamaOptimizer, Preference};
use moqo::cost::{Bounds, ResolutionSchedule};
use moqo::costmodel::{CostModel, MetricSet, StandardCostModel, StandardCostModelConfig};
use moqo::query::testkit;
use std::sync::Arc;
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

/// Frontier digests across a full refine ladder, a drag of the time
/// bound to the ladder's median, and a second ladder under the dragged
/// bound: one digest per invocation.
fn ladder_and_drag_digests(spec: &moqo::query::QuerySpec) -> Vec<u64> {
    let model = model();
    let schedule = ResolutionSchedule::linear(4, 1.05, 0.5);
    let mut opt = IamaOptimizer::new(
        Arc::new(spec.clone()),
        Arc::new(model.clone()),
        schedule.clone(),
    );
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
    // Pruning is free to change how it finds a witness (index kernels,
    // scan order, the structure it scans) and where it keeps result sets,
    // never which plans it keeps or the order the frontier lists them in:
    // every intermediate frontier of the ladder-drag-ladder series must
    // hash to the recorded digest. The star digests were recorded before
    // the witness search moved from the cell grid to the active list; the
    // cycle and random digests before the per-subset result grids went.
    let golden: [(&str, moqo::query::QuerySpec, [u64; 10]); 3] = [
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
    ];
    for (name, spec, digests) in golden {
        assert_eq!(
            ladder_and_drag_digests(&spec),
            digests,
            "{name}: frontier digests moved"
        );
    }
}
