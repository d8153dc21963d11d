//! Golden values of the warm-state keys and of one sub-frontier blob.
//!
//! `QueryFingerprint`, `RebaseKey` and `SubsetFingerprint` key every
//! parked optimizer, rebase donor and transplant blob, and snapshot files
//! are named after the first of them. A change that moves any of these
//! values silently orphans every persisted frontier and every cached
//! blob, so the constants below pin them. They were recorded before the
//! induced-statistics walk the keys share moved into
//! `QuerySpec::induced_stats`, and must never be re-recorded to make a
//! refactor pass.

use moqo::core::IamaOptimizer;
use moqo::cost::{Bounds, Fnv64, ResolutionSchedule};
use moqo::costmodel::{SharedCostModel, StandardCostModel};
use moqo::engine::{QueryFingerprint, RebaseKey, SubsetFingerprint};
use moqo::query::{testkit, QuerySpec};
use std::sync::Arc;

fn model() -> SharedCostModel {
    Arc::new(StandardCostModel::paper_metrics())
}

/// `(QueryFingerprint, RebaseKey, digest of the SubsetFingerprint of
/// every enumerated multi-table subset, in enumeration order)`.
fn keys(spec: &QuerySpec) -> (u64, u64, u64) {
    let model = model();
    let opt = IamaOptimizer::new(
        Arc::new(spec.clone()),
        model.clone(),
        ResolutionSchedule::linear(2, 1.1, 0.4),
    );
    let mut subsets = Fnv64::new();
    for info in opt.enumeration().subsets() {
        if info.tables.len() >= 2 {
            subsets.u64(SubsetFingerprint::of(spec, info.tables, &*model).as_u64());
        }
    }
    (
        QueryFingerprint::of(spec, &*model).as_u64(),
        RebaseKey::of(spec, &*model).as_u64(),
        subsets.finish(),
    )
}

#[test]
fn warm_state_keys_match_their_recorded_values() {
    let q05 = moqo::tpch::query_block("q05", 1.0).expect("TPC-H q05");
    let cases = [
        ("chain-5", testkit::chain_query(5, 60_000), GOLDEN_KEYS[0]),
        ("star-4", testkit::star_query(4, 200_000), GOLDEN_KEYS[1]),
        ("tpch-q05", q05, GOLDEN_KEYS[2]),
    ];
    for (name, spec, golden) in cases {
        assert_eq!(keys(&spec), golden, "{name}: a warm-state key moved");
    }
}

#[test]
fn an_exported_sub_frontier_blob_matches_its_recorded_digest() {
    let spec = Arc::new(testkit::chain_query(4, 90_000));
    let mut opt = IamaOptimizer::new(
        spec.clone(),
        model(),
        ResolutionSchedule::linear(3, 1.05, 0.5),
    );
    let b = Bounds::unbounded(opt.model_dim());
    for r in 0..=opt.schedule().r_max() {
        opt.optimize(&b, r);
    }
    let blob = opt
        .export_subset(spec.all_tables())
        .expect("full set holds plans");
    assert_eq!(
        (blob.len(), Fnv64::hash_bytes(&blob)),
        GOLDEN_BLOB,
        "sub-frontier blob bytes moved"
    );
}

const GOLDEN_KEYS: [(u64, u64, u64); 3] = [
    (
        1173264046996183341,
        15907193311323226283,
        9327974131039634562,
    ),
    (
        10880145688171173179,
        17140754784921835266,
        2095918867816259201,
    ),
    (
        4005483020296050310,
        13910624399287017293,
        16233677478590686934,
    ),
];
const GOLDEN_BLOB: (usize, u64) = (2722, 3152825286860548446);
