//! Versioned export/import of the optimizer's warm state.
//!
//! A parked optimizer is the product of the whole incremental machinery:
//! the plan arena, the per-subset candidate sets, the append-only active
//! lists (the result sets) with their positional watermark rectangles,
//! and the `IsFresh` fallback. Losing it on process restart means the
//! first user of a known query pays for plan generation from resolution 0
//! again — exactly what the paper's incrementality exists to avoid.
//!
//! [`IamaOptimizer::export_frontier`] serializes everything the optimizer
//! needs to resume *bit-equivalently* — including the query spec and the
//! trimmed catalog statistics it was costed against — into a versioned,
//! self-describing byte buffer; [`IamaOptimizer::import_frontier`]
//! rebuilds the optimizer from that buffer and a live cost model. After a
//! round trip, a repeat invocation behaves like a repeat invocation on
//! the original: the watermark rectangles settle every split and **zero**
//! plans are generated. The full query's cost-indexed result set is not
//! written: import rebuilds it from the full set's active list in list
//! order, the order the exporter inserted it in, so a restored frontier
//! lists its points in exactly the exporter's order.
//!
//! The format is defensive: every plan id, table set, watermark operand,
//! and cost component is validated on import (every result and candidate
//! entry must carry its plan's exact arena cost, and every result entry
//! its plan's properties), and any mismatch (including an enumeration
//! plane that no longer lines up with the serialized state) yields a
//! [`SnapshotError`] instead of a silently wrong optimizer — callers fall
//! back to a cold start.
//!
//! The cost model itself is *not* serialized (it is code, not data); the
//! importer instead verifies that the provided model's metric layout
//! matches the exporter's, so frontiers are never revived under a cost
//! space they were not computed in.

use crate::frontier::FrontierPoint;
use crate::optimizer::{ActiveEntry, IamaOptimizer, Watermark};
use crate::wire::{WireDecode, WireEncode, WireError, WireReader, WireWriter};
use crate::IamaConfig;
use moqo_cost::{Bounds, CostVector, ResolutionSchedule};
use moqo_costmodel::{CostModel, PlanInput, SharedCostModel};
use moqo_index::{CellGrid, Entry, PlanIndex};
use moqo_plan::{JoinAlgo, Operator, PlanArena, ScanMethod};
use moqo_plan::{PhysicalProps, PlanId, PlanNode};
use moqo_query::{QuerySpec, TableSet};
use std::fmt;
use std::sync::Arc;

/// Magic bytes opening every frontier snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"MOQOFRNT";

/// Current snapshot format version. Bumped whenever the byte layout *or*
/// the deterministic enumeration-plane construction changes (watermarks
/// are stored in plan order, so a re-ordered enumeration invalidates old
/// snapshots — the per-split operand check below catches stragglers).
/// Version 2 added the exporting cost model's
/// [identity](moqo_costmodel::CostModel::identity) to the model guard,
/// so a frontier refined under one model can never warm-start a session
/// under a differently parameterized model with the same metric layout.
/// Version 3 dropped the index-kind byte and the per-subset result-set
/// section: the active lists are the result sets.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a snapshot could not be imported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the encoded structure did.
    Truncated,
    /// The buffer does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The buffer was written by an unsupported format version.
    UnsupportedVersion(u32),
    /// The provided cost model's metric layout differs from the
    /// exporter's; reviving the frontier would mix cost spaces.
    ModelMismatch(String),
    /// A structural invariant failed during decoding.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a moqo frontier snapshot"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::ModelMismatch(m) => write!(f, "cost model mismatch: {m}"),
            SnapshotError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The byte-level primitives live in [`crate::wire`] (shared with the
/// session-protocol codec); snapshot decoding maps their errors into
/// [`SnapshotError`] so `?` composes across both layers.
impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => SnapshotError::Truncated,
            WireError::Corrupt(m) => SnapshotError::Corrupt(m),
            WireError::UnknownModel { identity } => SnapshotError::ModelMismatch(format!(
                "unknown cost-model identity {identity:#018x}"
            )),
        }
    }
}

type Result<T> = std::result::Result<T, SnapshotError>;

fn corrupt(msg: String) -> SnapshotError {
    SnapshotError::Corrupt(msg)
}

fn write_operator(w: &mut WireWriter, op: &Operator) {
    match *op {
        Operator::Scan { position, method } => {
            w.u8(0);
            w.u16(position);
            match method {
                ScanMethod::Full => w.u8(0),
                ScanMethod::Sampled { rate_pm } => {
                    w.u8(1);
                    w.u16(rate_pm);
                }
            }
        }
        Operator::Join { algo, dop } => {
            w.u8(1);
            w.u8(match algo {
                JoinAlgo::Hash => 0,
                JoinAlgo::SortMerge => 1,
                JoinAlgo::NestedLoop => 2,
            });
            w.u16(dop);
        }
    }
}

fn read_operator(r: &mut WireReader<'_>) -> Result<Operator> {
    match r.u8()? {
        0 => {
            let position = r.u16()?;
            let method = match r.u8()? {
                0 => ScanMethod::Full,
                1 => {
                    let rate_pm = r.u16()?;
                    if !(1..1000).contains(&rate_pm) {
                        return Err(corrupt(format!("sampling rate {rate_pm}‰ out of range")));
                    }
                    ScanMethod::Sampled { rate_pm }
                }
                t => return Err(corrupt(format!("unknown scan method {t}"))),
            };
            Ok(Operator::Scan { position, method })
        }
        1 => {
            let algo = match r.u8()? {
                0 => JoinAlgo::Hash,
                1 => JoinAlgo::SortMerge,
                2 => JoinAlgo::NestedLoop,
                t => return Err(corrupt(format!("unknown join algorithm {t}"))),
            };
            let dop = r.u16()?;
            if dop == 0 {
                return Err(corrupt("join degree of parallelism 0".into()));
            }
            Ok(Operator::Join { algo, dop })
        }
        t => Err(corrupt(format!("unknown operator tag {t}"))),
    }
}

/// Writes candidate entries in a canonical order (plan id, level,
/// invocation): the candidate index is a *set* whose iteration order
/// depends on insertion history, so sorting here makes the export a pure
/// function of optimizer state — equal state produces equal bytes even
/// across an import/re-export round trip, which is what lets the
/// snapshot store's dirty tracking skip unchanged frontiers.
fn write_entries(w: &mut WireWriter, entries: &[Entry<PlanId>]) {
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_unstable_by_key(|&i| {
        let e = &entries[i];
        (e.item.0, e.level, e.invocation)
    });
    w.u32(entries.len() as u32);
    for i in order {
        let e = &entries[i];
        w.u32(e.item.0);
        e.cost.encode(w);
        w.u8(e.level);
        w.u32(e.invocation);
    }
}

fn read_entries(
    r: &mut WireReader<'_>,
    arena_len: usize,
    r_max: usize,
    dim: usize,
) -> Result<Vec<Entry<PlanId>>> {
    let n = r.count("index entry")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let item = r.u32()?;
        if item as usize >= arena_len {
            return Err(corrupt(format!(
                "entry references plan {item} outside arena"
            )));
        }
        let cost = CostVector::decode(r)?;
        if cost.dim() != dim {
            return Err(corrupt(format!(
                "entry cost dimension {} != {dim}",
                cost.dim()
            )));
        }
        let level = r.u8()?;
        if level as usize > r_max {
            return Err(corrupt(format!("entry level {level} exceeds rM={r_max}")));
        }
        let invocation = r.u32()?;
        out.push(Entry::new(PlanId(item), cost, level, invocation));
    }
    Ok(out)
}

impl IamaOptimizer {
    /// Serializes the optimizer's complete warm state — spec, catalog
    /// statistics, schedule, configuration, plan arena, candidate sets,
    /// active lists, watermark rectangles, pair hash, and the
    /// invocation context — into a versioned byte buffer.
    ///
    /// The buffer is self-contained: [`IamaOptimizer::import_frontier`]
    /// needs only these bytes plus a cost model with the same metric
    /// layout. Cumulative [`crate::OptimizerStats`] counters are carried
    /// along; the test-only per-plan invariant maps are not.
    pub fn export_frontier(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.bytes(&SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);

        // --- Model guard: metric layout of the exporting cost model. ---
        let metrics = self.model.metrics();
        w.u8(metrics.dim() as u8);
        for i in 0..metrics.dim() {
            w.str(metrics.metric(i).name());
        }
        w.u64(self.model.identity());

        // --- Query spec: name, catalog, join graph (the shared wire
        // codec; byte-compatible with the pre-wire inline encoding). ---
        self.spec.encode(&mut w);

        // --- Schedule and configuration. ---
        self.schedule.encode(&mut w);
        w.bool(self.config.use_delta);
        w.bool(self.config.allow_cross_products);
        w.bool(self.config.track_invariants);
        w.bool(self.config.eager_level_skip);
        w.bool(self.config.shadow_dominated);
        // `time_pruning` and `max_seeds_per_slice` are deliberately not
        // serialized: prune timing is pure diagnostics and seeding is a
        // session-local accelerant, so neither changes the exported
        // state. Imported optimizers run with the defaults.

        // --- Invocation context. ---
        w.u32(self.invocation);
        w.bool(self.scans_done);
        match &self.last_ctx {
            None => w.bool(false),
            Some((bounds, r)) => {
                w.bool(true);
                bounds.limits().encode(&mut w);
                w.u32(*r as u32);
            }
        }

        // --- Plan arena, in insertion order (children precede parents).
        w.u32(self.arena.len() as u32);
        for (_, node) in self.arena.iter() {
            write_operator(&mut w, &node.op);
            match node.children {
                None => w.bool(false),
                Some((l, r)) => {
                    w.bool(true);
                    w.u32(l.0);
                    w.u32(r.0);
                }
            }
            node.cost.encode(&mut w);
            node.props.encode(&mut w);
        }

        // --- Per-subset state, aligned with the enumeration plan. ---
        let unbounded = Bounds::unbounded(self.model.dim());
        w.u32(self.states.len() as u32);
        for (ix, state) in self.states.iter().enumerate() {
            w.u64(
                self.plan
                    .tables(moqo_query::SubsetId::from_index(ix))
                    .bits(),
            );
            w.u32(state.last_res_insert);
            let cand = state
                .cand
                .as_ref()
                .map(|i| i.collect(&unbounded, u8::MAX))
                .unwrap_or_default();
            write_entries(&mut w, &cand);
            w.u32(state.active.len() as u32);
            for e in &state.active {
                w.u32(e.plan.0);
                e.cost.encode(&mut w);
                e.props.encode(&mut w);
                w.u32(e.invocation);
                w.u8(e.level);
                w.bool(e.shadowed);
            }
        }

        // --- Watermark rectangles, in plan split order; each record
        // carries its operand table sets so a misaligned enumeration is
        // detected on import instead of silently violating Lemma 6. ---
        w.u32(self.watermarks.len() as u32);
        for (pos, wm) in self.watermarks.iter().enumerate() {
            let split = self.plan.splits()[pos];
            w.u64(self.plan.tables(split.left).bits());
            w.u64(self.plan.tables(split.right).bits());
            w.u32(wm.left);
            w.u32(wm.right);
        }

        // --- IsFresh fallback pairs (non-empty only after churn epochs).
        let mut keys: Vec<u64> = self.pairs.keys().collect();
        keys.sort_unstable(); // deterministic output for equal state
        w.u32(keys.len() as u32);
        for k in keys {
            w.u64(k);
        }

        // --- Cumulative counters (invariant maps excluded). ---
        let s = &self.stats;
        w.u32(s.invocations);
        w.u64(s.plans_generated);
        w.u64(s.pairs_generated);
        w.u64(s.candidate_retrievals);
        w.u64(s.prune_comparisons);
        w.u64(s.result_insertions);
        w.u64(s.candidate_insertions);
        w.u64(s.candidates_discarded);
        w.u64(s.stale_pairs_skipped);
        w.u64(s.pairs_skipped_watermark);
        w.u32(s.delta_invocations);
        w.u64(s.subsets_visited);
        w.u64(s.splits_visited);
        w.u64(s.splits_skipped);
        w.u64(s.scratch_high_water as u64);

        w.into_vec()
    }

    /// Rebuilds an optimizer from [`IamaOptimizer::export_frontier`]
    /// bytes and a live cost model.
    ///
    /// The model must expose the same metric layout the exporter used
    /// (checked by name, not just dimension). On success the optimizer is
    /// state-equivalent to the exported one: a repeat invocation
    /// generates zero plans, and later bound changes resume the
    /// incremental series without violating Lemmas 5–7.
    pub fn import_frontier(model: SharedCostModel, bytes: &[u8]) -> Result<IamaOptimizer> {
        let mut r = WireReader::new(bytes);
        if r.take(8)? != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        match r.u32()? {
            SNAPSHOT_VERSION => {}
            v => return Err(SnapshotError::UnsupportedVersion(v)),
        }

        // --- Model guard. ---
        let dim = r.u8()? as usize;
        let metrics = model.metrics();
        if dim != metrics.dim() {
            return Err(SnapshotError::ModelMismatch(format!(
                "snapshot has {dim} metrics, model has {}",
                metrics.dim()
            )));
        }
        for i in 0..dim {
            let name = r.str()?;
            if name != metrics.metric(i).name() {
                return Err(SnapshotError::ModelMismatch(format!(
                    "metric {i} is {name:?} in the snapshot but {:?} in the model",
                    metrics.metric(i).name()
                )));
            }
        }
        let identity = r.u64()?;
        if identity != model.identity() {
            return Err(SnapshotError::ModelMismatch(format!(
                "snapshot was exported under cost-model identity {identity:#018x}, \
                 the provided model has {:#018x}",
                model.identity()
            )));
        }

        // --- Query spec (shared wire codec: every reference, filter, and
        // selectivity validated before the panicking constructors run). ---
        let spec = Arc::new(QuerySpec::decode(&mut r)?);

        // --- Schedule and configuration. ---
        let schedule = ResolutionSchedule::decode(&mut r)?;
        let r_max = schedule.r_max();
        let config = IamaConfig {
            use_delta: r.bool()?,
            allow_cross_products: r.bool()?,
            track_invariants: r.bool()?,
            eager_level_skip: r.bool()?,
            shadow_dominated: r.bool()?,
            // Execution-strategy knobs are not part of the wire state
            // (see the encode side); imports run with the defaults.
            ..IamaConfig::default()
        };

        // --- Invocation context. ---
        let invocation = r.u32()?;
        let scans_done = r.bool()?;
        let last_ctx = if r.bool()? {
            let limits = CostVector::decode(&mut r)?;
            if limits.dim() != dim {
                return Err(corrupt("last-context bounds dimension mismatch".into()));
            }
            let lr = r.u32()? as usize;
            if lr > r_max {
                return Err(corrupt(format!(
                    "last-context resolution {lr} exceeds rM={r_max}"
                )));
            }
            Some((Bounds::new(limits), lr))
        } else {
            None
        };

        // The empty optimizer: builds the enumeration plane
        // deterministically from the (validated) graph and sizes the
        // dense state arrays.
        let mut opt = IamaOptimizer::with_config(spec, model, schedule, config);

        // --- Plan arena. ---
        let n_plans = r.count("arena plan")?;
        for i in 0..n_plans {
            let op = read_operator(&mut r)?;
            let children = if r.bool()? {
                let l = r.u32()?;
                let rt = r.u32()?;
                if l as usize >= i || rt as usize >= i {
                    return Err(corrupt(format!("plan {i} children must precede it")));
                }
                Some((PlanId(l), PlanId(rt)))
            } else {
                None
            };
            let cost = CostVector::decode(&mut r)?;
            if cost.dim() != dim {
                return Err(corrupt(format!("plan {i} cost dimension mismatch")));
            }
            let props = PhysicalProps::decode(&mut r)?;
            match (op, children) {
                (Operator::Scan { position, .. }, None) => {
                    if position as usize >= opt.spec.n_tables() {
                        return Err(corrupt(format!("scan position {position} out of range")));
                    }
                    opt.arena.push_scan(op, position as usize, cost, props);
                }
                (Operator::Join { .. }, Some((l, rt))) => {
                    if !opt.arena.tables(l).is_disjoint(opt.arena.tables(rt)) {
                        return Err(corrupt(format!("plan {i} joins overlapping children")));
                    }
                    opt.arena.push_join(op, l, rt, cost, props);
                }
                _ => return Err(corrupt(format!("plan {i} operator/children mismatch"))),
            }
        }

        // --- Per-subset state. ---
        let n_subsets = r.count("subset")?;
        if n_subsets != opt.plan.len() {
            return Err(corrupt(format!(
                "snapshot has {n_subsets} subsets, enumeration plan has {}",
                opt.plan.len()
            )));
        }
        for ix in 0..n_subsets {
            let bits = r.u64()?;
            let expect = opt.plan.tables(moqo_query::SubsetId::from_index(ix)).bits();
            if bits != expect {
                return Err(corrupt(format!(
                    "subset {ix} tables {bits:#x} do not match plan order ({expect:#x})"
                )));
            }
            let last_res_insert = r.u32()?;
            let cand = read_entries(&mut r, n_plans, r_max, dim)?;
            // Every candidate plan must join exactly this subset's tables
            // and predate the imported invocation counter — a plan id
            // swapped to another subset's plan would otherwise import
            // cleanly and silently serve wrong frontiers.
            for e in &cand {
                if opt.arena.tables(e.item).bits() != bits {
                    return Err(corrupt(format!(
                        "subset {ix} entry references plan {} of another subset",
                        e.item.0
                    )));
                }
                if e.invocation >= invocation {
                    return Err(corrupt(format!(
                        "entry invocation {} not before counter {invocation}",
                        e.invocation
                    )));
                }
            }
            let n_active = r.count("active entry")?;
            let mut active = Vec::with_capacity(n_active);
            let mut prev_inv = 0u32;
            for _ in 0..n_active {
                let plan = r.u32()?;
                if plan as usize >= n_plans {
                    return Err(corrupt(format!("active entry references plan {plan}")));
                }
                if opt.arena.tables(PlanId(plan)).bits() != bits {
                    return Err(corrupt(format!(
                        "subset {ix} active entry references plan {plan} of another subset"
                    )));
                }
                let cost = CostVector::decode(&mut r)?;
                if cost.dim() != dim {
                    return Err(corrupt(format!(
                        "active cost dimension {} != {dim}",
                        cost.dim()
                    )));
                }
                let props = PhysicalProps::decode(&mut r)?;
                let inv = r.u32()?;
                if inv < prev_inv {
                    return Err(corrupt("active list not in invocation order".into()));
                }
                if inv >= invocation {
                    return Err(corrupt(format!(
                        "active invocation {inv} not before counter {invocation}"
                    )));
                }
                prev_inv = inv;
                let level = r.u8()?;
                if level as usize > r_max {
                    return Err(corrupt(format!("active level {level} exceeds rM={r_max}")));
                }
                let shadowed = r.bool()?;
                active.push(ActiveEntry {
                    plan: PlanId(plan),
                    cost,
                    props,
                    invocation: inv,
                    level,
                    shadowed,
                });
            }
            // Every writer of a result or candidate entry copies the cost
            // (and, for results, the properties) the arena stored for its
            // plan, so an entry that disagrees with its plan was edited:
            // pruning, combination, and the frontier would trust the lie.
            if let Some(e) = active
                .iter()
                .find(|e| e.props != opt.arena.node(e.plan).props)
            {
                return Err(corrupt(format!(
                    "subset {ix} active entry props disagree with plan {}",
                    e.plan.0
                )));
            }
            let entries = active
                .iter()
                .map(|e| FrontierPoint {
                    plan: e.plan,
                    cost: e.cost,
                })
                .chain(cand.iter().map(|e| FrontierPoint {
                    plan: e.item,
                    cost: e.cost,
                }));
            for entry in entries {
                let stored = FrontierPoint {
                    plan: entry.plan,
                    cost: *opt.arena.cost(entry.plan),
                };
                if !entry.bits_eq(&stored) {
                    return Err(corrupt(format!(
                        "subset {ix} entry cost disagrees with plan {}",
                        entry.plan.0
                    )));
                }
            }
            let state = &mut opt.states[ix];
            if !cand.is_empty() {
                let idx = state.cand.get_or_insert_with(|| CellGrid::new(dim));
                for e in cand {
                    idx.insert(e);
                }
            }
            state.active = active;
            state.last_res_insert = last_res_insert;
        }
        // The full query's result index, rebuilt from its active list in
        // list order: the exporter inserted the same entries in the same
        // order, so the restored frontier lists its points identically.
        if let Some(full) = opt.plan.full_set() {
            for e in &opt.states[full.index()].active {
                opt.full_res
                    .insert(Entry::new(e.plan, e.cost, e.level, e.invocation));
            }
        }

        // --- Watermarks (plan split order, operands verified). ---
        let n_marks = r.count("watermark")?;
        if n_marks != opt.plan.total_splits() {
            return Err(corrupt(format!(
                "snapshot has {n_marks} watermarks, plan has {} splits",
                opt.plan.total_splits()
            )));
        }
        for pos in 0..n_marks {
            let left_bits = r.u64()?;
            let right_bits = r.u64()?;
            let wl = r.u32()?;
            let wr = r.u32()?;
            let split = opt.plan.splits()[pos];
            if opt.plan.tables(split.left).bits() != left_bits
                || opt.plan.tables(split.right).bits() != right_bits
            {
                return Err(corrupt(format!(
                    "watermark {pos} operands misaligned with plan"
                )));
            }
            let (la, rb) = (split.left.index(), split.right.index());
            if wl as usize > opt.states[la].active.len()
                || wr as usize > opt.states[rb].active.len()
            {
                return Err(corrupt(format!("watermark {pos} exceeds its active lists")));
            }
            opt.watermarks[pos] = Watermark {
                left: wl,
                right: wr,
            };
        }

        // --- Pairs. ---
        let n_pairs = r.count("pair")?;
        for _ in 0..n_pairs {
            opt.pairs.insert_key(r.u64()?);
        }

        // --- Counters and context. ---
        opt.stats.invocations = r.u32()?;
        opt.stats.plans_generated = r.u64()?;
        opt.stats.pairs_generated = r.u64()?;
        opt.stats.candidate_retrievals = r.u64()?;
        opt.stats.prune_comparisons = r.u64()?;
        opt.stats.result_insertions = r.u64()?;
        opt.stats.candidate_insertions = r.u64()?;
        opt.stats.candidates_discarded = r.u64()?;
        opt.stats.stale_pairs_skipped = r.u64()?;
        opt.stats.pairs_skipped_watermark = r.u64()?;
        opt.stats.delta_invocations = r.u32()?;
        opt.stats.subsets_visited = r.u64()?;
        opt.stats.splits_visited = r.u64()?;
        opt.stats.splits_skipped = r.u64()?;
        opt.stats.scratch_high_water = r.u64()? as usize;
        opt.invocation = invocation;
        opt.scans_done = scans_done;
        opt.last_ctx = last_ctx;

        if !r.done() {
            return Err(corrupt("trailing bytes after snapshot".into()));
        }
        Ok(opt)
    }
}

/// Magic bytes opening every per-subset sub-frontier blob.
pub const SUBSNAPSHOT_MAGIC: [u8; 8] = *b"MOQOSUBF";

/// Current sub-frontier blob format version.
pub const SUBSNAPSHOT_VERSION: u32 = 1;

/// Encodes the operator tree rooted at `id` with scan positions remapped
/// through `local` (global table position → local index within the
/// subset). Pre-order and self-delimiting, so trees concatenate without
/// length prefixes and compare lexicographically for the canonical order.
fn encode_subtree(arena: &PlanArena, id: PlanId, local: &[u8], out: &mut WireWriter) {
    let node = arena.node(id);
    match node.op {
        Operator::Scan { position, method } => {
            out.u8(0);
            out.u8(local[position as usize]);
            match method {
                ScanMethod::Full => out.u8(0),
                ScanMethod::Sampled { rate_pm } => {
                    out.u8(1);
                    out.u16(rate_pm);
                }
            }
        }
        Operator::Join { algo, dop } => {
            out.u8(1);
            out.u8(match algo {
                JoinAlgo::Hash => 0,
                JoinAlgo::SortMerge => 1,
                JoinAlgo::NestedLoop => 2,
            });
            out.u16(dop);
            let (l, r) = node.children.expect("join node has children");
            encode_subtree(arena, l, local, out);
            encode_subtree(arena, r, local, out);
        }
    }
}

/// Per-table `(cardinality, row_width, filter)` in ascending position
/// order plus the induced join edges `(local left, local right,
/// selectivity bits)` — the statistics a sub-frontier blob guards on.
type InducedStats = (Vec<(u64, u32, f64)>, Vec<(u8, u8, u64)>);

/// The induced statistics a sub-frontier blob guards on. Computed
/// identically on export and import, so a transplant only proceeds when
/// the donor's sub-catalog matches the recipient's exactly (the
/// structural backstop behind the engine's sub-fingerprint hash).
fn induced_stats(spec: &QuerySpec, tables: TableSet) -> InducedStats {
    let g = &spec.graph;
    let mut local = vec![u8::MAX; g.n_tables()];
    let mut stats = Vec::with_capacity(tables.len());
    for (k, pos) in tables.iter().enumerate() {
        local[pos] = k as u8;
        let t = spec.catalog.table(g.tables[pos]);
        stats.push((t.cardinality, t.row_width, g.filters[pos]));
    }
    let mut edges: Vec<(u8, u8, u64)> = g
        .edges
        .iter()
        .filter(|e| tables.contains(e.left) && tables.contains(e.right))
        .map(|e| (local[e.left], local[e.right], e.selectivity.to_bits()))
        .collect();
    edges.sort_unstable();
    (stats, edges)
}

impl IamaOptimizer {
    /// Serializes the warm `Res^q`/`Cand^q` state of one connected table
    /// subset as a self-describing, position-independent blob: the metric
    /// layout and cost-model identity it was refined under, the induced
    /// sub-catalog statistics (the validation gate for transplants), and
    /// the operator trees of every result/candidate plan with scan
    /// positions relabeled to `0..k` in ascending order.
    ///
    /// Costs are deliberately *not* serialized: an importer re-scores
    /// every tree against its live cost model at admission, which is what
    /// keeps the paper's `alpha_T` guarantee intact across transplants.
    /// Trees are sorted and deduplicated, so equal subset state exports
    /// equal bytes regardless of insertion history.
    ///
    /// Returns `None` when the subset is not enumerated for this query or
    /// holds no result/candidate plans.
    pub fn export_subset(&self, tables: TableSet) -> Option<Vec<u8>> {
        let q = self.plan.subset_id(tables)?;
        let mut roots = self.result_and_candidate_plans(q);
        roots.sort_unstable();
        roots.dedup();
        if roots.is_empty() {
            return None;
        }

        let g = &self.spec.graph;
        let mut local = vec![u8::MAX; g.n_tables()];
        for (k, pos) in tables.iter().enumerate() {
            local[pos] = k as u8;
        }
        let mut trees: Vec<Vec<u8>> = roots
            .iter()
            .map(|&p| {
                let mut tw = WireWriter::new();
                encode_subtree(&self.arena, p, &local, &mut tw);
                tw.into_vec()
            })
            .collect();
        trees.sort_unstable();
        trees.dedup();

        let mut w = WireWriter::new();
        w.bytes(&SUBSNAPSHOT_MAGIC);
        w.u32(SUBSNAPSHOT_VERSION);
        let metrics = self.model.metrics();
        w.u8(metrics.dim() as u8);
        for i in 0..metrics.dim() {
            w.str(metrics.metric(i).name());
        }
        w.u64(self.model.identity());
        let (stats, edges) = induced_stats(&self.spec, tables);
        w.u8(stats.len() as u8);
        for (card, width, filter) in stats {
            w.u64(card);
            w.u32(width);
            w.u64(filter.to_bits());
        }
        w.u32(edges.len() as u32);
        for (l, r, sel) in edges {
            w.u8(l);
            w.u8(r);
            w.u64(sel);
        }
        w.u32(trees.len() as u32);
        for t in &trees {
            w.bytes(t);
        }
        Some(w.into_vec())
    }

    /// Seeds subset `tables` of this optimizer from an
    /// [`export_subset`](IamaOptimizer::export_subset) blob produced by a
    /// *different* (but statistically identical on this subset) query.
    ///
    /// Every tree is replayed bottom-up against the **live** cost model:
    /// each operator must still be offered by
    /// [`scan_alternatives`](moqo_costmodel::CostModel::scan_alternatives)
    /// / [`join_alternatives`](moqo_costmodel::CostModel::join_alternatives),
    /// and the plan is queued with the freshly computed cost for
    /// admission as a level-0 `Cand` entry — the next invocations admit
    /// at most [`IamaConfig::max_seeds_per_slice`](crate::IamaConfig)
    /// seeds each, and every admitted seed re-enters through pruning
    /// exactly like a natively generated plan, so Theorem 2's `alpha_T`
    /// guarantee is preserved without caveats. Trees whose operators are
    /// no longer offered are skipped, not errors.
    ///
    /// The blob's metric layout, cost-model identity, and induced
    /// statistics must match this optimizer's; any mismatch yields an
    /// error and the caller falls back to cold enumeration. Returns the
    /// number of admitted candidate plans.
    pub fn import_subset(&mut self, tables: TableSet, bytes: &[u8]) -> Result<usize> {
        let q = self
            .plan
            .subset_id(tables)
            .ok_or_else(|| corrupt("subset not enumerated for this query".into()))?;
        let mut r = WireReader::new(bytes);
        if r.take(8)? != SUBSNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        match r.u32()? {
            SUBSNAPSHOT_VERSION => {}
            v => return Err(SnapshotError::UnsupportedVersion(v)),
        }
        let dim = r.u8()? as usize;
        let metrics = self.model.metrics();
        if dim != metrics.dim() {
            return Err(SnapshotError::ModelMismatch(format!(
                "sub-frontier has {dim} metrics, model has {}",
                metrics.dim()
            )));
        }
        for i in 0..dim {
            let name = r.str()?;
            if name != metrics.metric(i).name() {
                return Err(SnapshotError::ModelMismatch(format!(
                    "metric {i} is {name:?} in the sub-frontier but {:?} in the model",
                    metrics.metric(i).name()
                )));
            }
        }
        let identity = r.u64()?;
        if identity != self.model.identity() {
            return Err(SnapshotError::ModelMismatch(format!(
                "sub-frontier was refined under cost-model identity {identity:#018x}, \
                 this optimizer runs {:#018x}",
                self.model.identity()
            )));
        }
        let (stats, edges) = induced_stats(&self.spec, tables);
        let k = r.u8()? as usize;
        if k != stats.len() {
            return Err(corrupt(format!(
                "sub-frontier covers {k} tables, subset has {}",
                stats.len()
            )));
        }
        for (i, &(card, width, filter)) in stats.iter().enumerate() {
            let (bc, bw, bf) = (r.u64()?, r.u32()?, r.u64()?);
            if bc != card || bw != width || bf != filter.to_bits() {
                return Err(corrupt(format!(
                    "sub-frontier table {i} statistics differ from the live catalog"
                )));
            }
        }
        let n_edges = r.count("induced edge")?;
        if n_edges != edges.len() {
            return Err(corrupt(format!(
                "sub-frontier has {n_edges} induced edges, subset has {}",
                edges.len()
            )));
        }
        for (i, &(l, rt, sel)) in edges.iter().enumerate() {
            let (bl, br, bs) = (r.u8()?, r.u8()?, r.u64()?);
            if bl != l || br != rt || bs != sel {
                return Err(corrupt(format!(
                    "sub-frontier edge {i} differs from the live join graph"
                )));
            }
        }

        let positions: Vec<usize> = tables.iter().collect();
        let n_trees = r.count("sub-frontier tree")?;
        let mut admitted = 0usize;
        for _ in 0..n_trees {
            if let Some((plan, cost)) = self.replay_tree(&mut r, &positions)? {
                if self.arena.tables(plan) != tables {
                    return Err(corrupt(
                        "sub-frontier tree does not cover its subset".into(),
                    ));
                }
                // Queued, not indexed: the next invocations admit seeds
                // at most `max_seeds_per_slice` at a time (level-0 `Cand`
                // entries), amortizing the drain across the ladder.
                self.pending_seeds.push_back((q, plan, cost));
                self.stats.transplanted_candidates += 1;
                admitted += 1;
            }
        }
        if !r.done() {
            return Err(corrupt("trailing bytes after sub-frontier".into()));
        }
        if admitted > 0 {
            self.stats.subsets_seeded += 1;
        }
        Ok(admitted)
    }

    /// Decodes one pre-order tree and replays it bottom-up against the
    /// live cost model, returning the admitted root and its fresh cost,
    /// or `None` when some operator is no longer offered (the rest of the
    /// tree is still consumed so decoding stays aligned).
    fn replay_tree(
        &mut self,
        r: &mut WireReader<'_>,
        positions: &[usize],
    ) -> Result<Option<(PlanId, CostVector)>> {
        match r.u8()? {
            0 => {
                let lp = r.u8()? as usize;
                if lp >= positions.len() {
                    return Err(corrupt(format!("local scan position {lp} out of range")));
                }
                let method = match r.u8()? {
                    0 => ScanMethod::Full,
                    1 => {
                        let rate_pm = r.u16()?;
                        if !(1..1000).contains(&rate_pm) {
                            return Err(corrupt(format!("sampling rate {rate_pm}‰ out of range")));
                        }
                        ScanMethod::Sampled { rate_pm }
                    }
                    t => return Err(corrupt(format!("unknown scan method {t}"))),
                };
                let pos = positions[lp];
                let want = Operator::Scan {
                    position: pos as u16,
                    method,
                };
                for (op, cost, props) in self.model.scan_alternatives(&self.spec, pos) {
                    if op == want {
                        let id = self.arena.push_scan(op, pos, cost, props);
                        return Ok(Some((id, cost)));
                    }
                }
                Ok(None)
            }
            1 => {
                let algo = match r.u8()? {
                    0 => JoinAlgo::Hash,
                    1 => JoinAlgo::SortMerge,
                    2 => JoinAlgo::NestedLoop,
                    t => return Err(corrupt(format!("unknown join algorithm {t}"))),
                };
                let dop = r.u16()?;
                if dop == 0 {
                    return Err(corrupt("join degree of parallelism 0".into()));
                }
                let left = self.replay_tree(r, positions)?;
                let right = self.replay_tree(r, positions)?;
                let (Some((l, _)), Some((rt, _))) = (left, right) else {
                    return Ok(None);
                };
                let want = Operator::Join { algo, dop };
                let input = |n: &PlanNode| PlanInput {
                    tables: n.tables,
                    cost: n.cost,
                    props: n.props,
                };
                let (li, ri) = (input(self.arena.node(l)), input(self.arena.node(rt)));
                if !li.tables.is_disjoint(ri.tables) {
                    return Err(corrupt("sub-frontier join children overlap".into()));
                }
                for (op, cost, props) in self.model.join_alternatives(&self.spec, &li, &ri) {
                    if op == want {
                        let id = self.arena.push_join(op, l, rt, cost, props);
                        return Ok(Some((id, cost)));
                    }
                }
                Ok(None)
            }
            t => Err(corrupt(format!("unknown operator tag {t}"))),
        }
    }

    /// Rebase: seeds this **fresh** optimizer with every result/candidate
    /// plan of `donor`, a parked optimizer for the *same query shape*
    /// whose catalog statistics have since drifted. The donor is read
    /// only — it stays parked and can serve an exact-fingerprint repeat.
    ///
    /// Every donor plan tree is copied arena-to-arena with the identity
    /// table mapping and re-costed under this optimizer's model and live
    /// statistics, then queued for admission as a level-0 `Cand` entry of
    /// its subset (at most
    /// [`IamaConfig::max_seeds_per_slice`](crate::IamaConfig) seeds enter
    /// the candidate sets per invocation, amortizing a very warm donor's
    /// drain across the ladder).
    /// By Lemma 7 each re-admitted candidate is re-examined at most
    /// `rM + 1` times, which is cheaper than regenerating it through the
    /// full enumeration — while pruning under the fresh costs keeps the
    /// `alpha_T` guarantee exact.
    ///
    /// Requires a cold `self` (no invocations run), a donor with an
    /// identical join-graph shape and cross-product policy, and an
    /// identical cost-model identity/metric layout. Returns the number of
    /// admitted candidate plans.
    pub fn rebase_from(&mut self, donor: &IamaOptimizer) -> Result<usize> {
        if self.invocation != 0 || self.scans_done || !self.arena.is_empty() {
            return Err(corrupt("rebase target must be a cold optimizer".into()));
        }
        let metrics = self.model.metrics();
        let donor_metrics = donor.model.metrics();
        if metrics.dim() != donor_metrics.dim()
            || (0..metrics.dim())
                .any(|i| metrics.metric(i).name() != donor_metrics.metric(i).name())
        {
            return Err(SnapshotError::ModelMismatch(
                "rebase donor has a different metric layout".into(),
            ));
        }
        if self.model.identity() != donor.model.identity() {
            return Err(SnapshotError::ModelMismatch(format!(
                "rebase donor has cost-model identity {:#018x}, this optimizer {:#018x}",
                donor.model.identity(),
                self.model.identity()
            )));
        }
        if !self
            .plan
            .matches(&donor.spec.graph, donor.config.allow_cross_products)
        {
            return Err(corrupt(
                "rebase donor has a different join-graph shape".into(),
            ));
        }

        // One memo across all subsets: roots share subtrees, and the
        // donor arena is append-only, so each donor plan is replayed at
        // most once into `self`.
        let mut memo: Vec<Option<Option<PlanId>>> = vec![None; donor.arena.len()];
        let mut admitted = 0usize;
        for ix in 0..donor.states.len() {
            let q = moqo_query::SubsetId::from_index(ix);
            let mut roots = donor.result_and_candidate_plans(q);
            roots.sort_unstable();
            roots.dedup();
            let mut seeded = false;
            for root in roots {
                if let Some(plan) = self.replay_donor(donor, root, &mut memo) {
                    let cost = *self.arena.cost(plan);
                    // Queued for per-slice admission; see `import_subset`.
                    self.pending_seeds.push_back((q, plan, cost));
                    self.stats.rebased_candidates += 1;
                    admitted += 1;
                    seeded = true;
                }
            }
            if seeded {
                self.stats.subsets_seeded += 1;
            }
        }
        Ok(admitted)
    }

    /// The plans of `Res^q` (tombstones included) and `Cand^q`, unsorted
    /// and possibly repeated.
    fn result_and_candidate_plans(&self, q: moqo_query::SubsetId) -> Vec<PlanId> {
        let state = &self.states[q.index()];
        let mut plans: Vec<PlanId> = state.active.iter().map(|e| e.plan).collect();
        if let Some(cand) = &state.cand {
            let unbounded = Bounds::unbounded(self.model.dim());
            plans.extend(cand.collect(&unbounded, u8::MAX).iter().map(|e| e.item));
        }
        plans
    }

    /// Replays donor plan `id` into this optimizer's arena, re-costing
    /// every node under the live model. Memoized per donor plan id so
    /// shared subtrees are copied once.
    fn replay_donor(
        &mut self,
        donor: &IamaOptimizer,
        id: PlanId,
        memo: &mut [Option<Option<PlanId>>],
    ) -> Option<PlanId> {
        if let Some(done) = memo[id.0 as usize] {
            return done;
        }
        let node = donor.arena.node(id);
        let replayed = match (node.op, node.children) {
            (op @ Operator::Scan { position, .. }, None) => {
                let pos = position as usize;
                self.model
                    .scan_alternatives(&self.spec, pos)
                    .into_iter()
                    .find(|&(alt, _, _)| alt == op)
                    .map(|(alt, cost, props)| self.arena.push_scan(alt, pos, cost, props))
            }
            (op @ Operator::Join { .. }, Some((dl, dr))) => {
                let l = self.replay_donor(donor, dl, memo);
                let r = self.replay_donor(donor, dr, memo);
                match (l, r) {
                    (Some(l), Some(r)) => {
                        let input = |n: &PlanNode| PlanInput {
                            tables: n.tables,
                            cost: n.cost,
                            props: n.props,
                        };
                        let (li, ri) = (input(self.arena.node(l)), input(self.arena.node(r)));
                        self.model
                            .join_alternatives(&self.spec, &li, &ri)
                            .into_iter()
                            .find(|&(alt, _, _)| alt == op)
                            .map(|(alt, cost, props)| self.arena.push_join(alt, l, r, cost, props))
                    }
                    _ => None,
                }
            }
            _ => None,
        };
        memo[id.0 as usize] = Some(replayed);
        replayed
    }
}

// Re-assert at compile time that the arena node shape the codec assumes
// still holds; a new `PlanNode` field would silently be dropped otherwise.
const _: fn(&PlanNode) = |n: &PlanNode| {
    let PlanNode {
        op: _,
        children: _,
        tables: _,
        cost: _,
        props: _,
    } = *n;
};

#[cfg(test)]
mod tests {
    use super::*;
    use moqo_costmodel::StandardCostModel;
    use moqo_query::testkit;

    fn model() -> SharedCostModel {
        Arc::new(StandardCostModel::paper_metrics())
    }

    fn schedule() -> ResolutionSchedule {
        ResolutionSchedule::linear(3, 1.05, 0.5)
    }

    fn warm_optimizer(n: usize) -> IamaOptimizer {
        let spec = Arc::new(testkit::chain_query(n, 150_000));
        let mut opt = IamaOptimizer::new(spec, model(), schedule());
        let b = Bounds::unbounded(3);
        for r in 0..=opt.schedule().r_max() {
            opt.optimize(&b, r);
        }
        opt
    }

    #[test]
    fn round_trip_preserves_zero_work_steady_state() {
        // A revived optimizer serves the exporter's frontier point for
        // point — same order, same plans, same cost bits — whether it was
        // exported mid-ladder or after it, under any bounds and level.
        let b = Bounds::unbounded(3);
        let r_max = schedule().r_max();
        let shapes = [
            testkit::chain_query(4, 150_000),
            testkit::star_query(4, 150_000),
            testkit::cycle_query(5, 100_000),
            testkit::random_query(6, 7),
        ];
        for spec in shapes {
            let name = spec.name.clone();
            let mut opt = IamaOptimizer::new(Arc::new(spec), model(), schedule());
            for r in 0..=r_max {
                opt.optimize(&b, r);
                let revived =
                    IamaOptimizer::import_frontier(model(), opt.export_frontier().as_slice())
                        .unwrap();
                let mut ts: Vec<f64> = opt.frontier(&b, r).costs().iter().map(|c| c[0]).collect();
                ts.sort_by(f64::total_cmp);
                let focus = b.with_limit(0, ts[ts.len() / 2]);
                for (bounds, view_r) in [(b, r), (b, r_max), (focus, r), (focus, 0)] {
                    let expected = opt.frontier(&bounds, view_r);
                    assert!(
                        revived.frontier(&bounds, view_r).bits_eq(&expected),
                        "{name}: exported at r={r}, view at r={view_r} restored differently"
                    );
                }
            }

            // A repeat invocation at any resolution does zero plan work:
            // the restored watermarks settle every split.
            let mut revived =
                IamaOptimizer::import_frontier(model(), opt.export_frontier().as_slice()).unwrap();
            let report = revived.optimize(&b, 0);
            assert_eq!(
                report.plans_generated, 0,
                "{name}: restore must not regenerate plans"
            );
            assert_eq!(report.pairs_generated, 0);
            let report = revived.optimize(&b, r_max);
            assert_eq!(report.plans_generated, 0);
            assert_eq!(
                report.splits_visited, 0,
                "{name}: watermarks must settle after restore"
            );
        }
    }

    #[test]
    fn round_trip_resumes_the_incremental_series() {
        // Restore mid-series (after a partial ladder), then continue the
        // refinement on both the original and the revived optimizer. The
        // exact result-set membership may differ (index iteration order
        // is unspecified, and insertion order decides which plainly
        // dominated plans land in Res vs Cand), but both frontiers must
        // stay within the Theorem 2 guarantee of each other.
        use moqo_cost::coverage_factor;
        let spec = Arc::new(testkit::chain_query(4, 150_000));
        let guarantee = schedule().guarantee(3, spec.n_tables());
        let mut opt = IamaOptimizer::new(spec, model(), schedule());
        let b = Bounds::unbounded(3);
        opt.optimize(&b, 0);
        opt.optimize(&b, 1);
        let bytes = opt.export_frontier();
        // Reference: continue the original.
        opt.optimize(&b, 2);
        opt.optimize(&b, 3);
        let expected = opt.frontier(&b, 3).costs();

        let mut revived = IamaOptimizer::import_frontier(model(), bytes.as_slice()).unwrap();
        revived.optimize(&b, 2);
        revived.optimize(&b, 3);
        let frontier = revived.frontier(&b, 3);
        assert!(!frontier.is_empty());
        let costs = frontier.costs();
        assert!(coverage_factor(&costs, &expected) <= guarantee + 1e-9);
        assert!(coverage_factor(&expected, &costs) <= guarantee + 1e-9);
        // Tightening bounds afterwards must not panic, and keeps serving
        // plans within the tighter focus.
        let t_min = frontier.min_by_metric(0).unwrap().cost[0];
        let tight = Bounds::unbounded(3).with_limit(0, t_min * 2.0);
        let rep = revived.optimize(&tight, 0);
        assert!(rep.frontier_size >= 1);
    }

    #[test]
    fn import_rejects_wrong_magic_version_and_truncation() {
        let opt = warm_optimizer(3);
        let bytes = opt.export_frontier();
        assert!(matches!(
            IamaOptimizer::import_frontier(model(), &bytes[..4]),
            Err(SnapshotError::Truncated)
        ));
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            IamaOptimizer::import_frontier(model(), &bad),
            Err(SnapshotError::BadMagic)
        ));
        let mut vbad = bytes.clone();
        vbad[8] = 99;
        assert!(matches!(
            IamaOptimizer::import_frontier(model(), &vbad),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        let truncated = &bytes[..bytes.len() - 3];
        assert!(IamaOptimizer::import_frontier(model(), truncated).is_err());
    }

    #[test]
    fn single_byte_corruption_never_panics_the_importer() {
        // Every field is validated before any panicking constructor runs:
        // flipping any single byte must yield Ok (benign field, e.g. a
        // stats counter) or Err — never a panic or a huge allocation.
        let spec = Arc::new(testkit::chain_query(2, 5_000));
        let mut opt = IamaOptimizer::new(spec, model(), ResolutionSchedule::linear(1, 1.2, 0.4));
        let b = Bounds::unbounded(3);
        opt.optimize(&b, 0);
        opt.optimize(&b, 1);
        let bytes = opt.export_frontier();
        for i in 0..bytes.len() {
            let mut mutant = bytes.clone();
            mutant[i] ^= 0xa5;
            let _ = IamaOptimizer::import_frontier(model(), &mutant);
        }
    }

    #[test]
    fn import_rejects_corrupt_entry_dimension() {
        // Targeted check for the Res/Cand entry dim guard: shrinking one
        // entry's cost-vector dim byte must fail import, not park a
        // dominance-poisoned optimizer.
        let opt = warm_optimizer(3);
        let bytes = opt.export_frontier();
        let mut seen_rejection = false;
        let mut mutant = bytes.clone();
        for i in 0..bytes.len() {
            // Dim bytes are exactly the value 3 followed by 3 f64s; try
            // turning each candidate 3 into a 1 and require that imports
            // which *succeed* still optimize without panicking.
            if bytes[i] != 3 {
                continue;
            }
            mutant[i] = 1;
            match IamaOptimizer::import_frontier(model(), &mutant) {
                Err(_) => seen_rejection = true,
                Ok(mut revived) => {
                    // A byte that happened not to be a dim field: the
                    // revived optimizer must still be usable.
                    let _ = revived.optimize(&Bounds::unbounded(3), 0);
                }
            }
            mutant[i] = bytes[i];
        }
        assert!(seen_rejection, "no dim corruption was ever rejected");
    }

    #[test]
    fn import_rejects_entry_costs_that_disagree_with_the_arena() {
        // Every result and candidate entry carries its plan's arena cost.
        // The active list alone rebuilds the frontier index on import, so
        // an edited result cost would reach clients, and an edited
        // candidate cost would prune wrongly: both must fail with a typed
        // error. Stop mid-ladder so candidates are still queued.
        let spec = Arc::new(testkit::chain_query(3, 150_000));
        let mut opt = IamaOptimizer::new(spec, model(), schedule());
        opt.optimize(&Bounds::unbounded(3), 0);
        let bytes = opt.export_frontier();
        assert!(IamaOptimizer::import_frontier(model(), bytes.as_slice()).is_ok());

        let full = opt.plan.full_set().expect("connected query").index();
        let result = opt.states[full]
            .active
            .last()
            .expect("non-empty result set");
        let candidate = opt
            .states
            .iter()
            .filter_map(|s| s.cand.as_ref())
            .find_map(|c| c.collect(&Bounds::unbounded(3), u8::MAX).first().copied())
            .expect("a queued candidate");
        for (what, plan, cost) in [
            ("result", result.plan, result.cost),
            ("candidate", candidate.item, candidate.cost),
        ] {
            // Both entry kinds encode as plan id then cost; the arena
            // writes the cost earlier, so the last match is the entry.
            let mut w = WireWriter::new();
            w.u32(plan.0);
            cost.encode(&mut w);
            let pattern = w.into_vec();
            let at = bytes
                .windows(pattern.len())
                .rposition(|win| win == pattern)
                .expect("entry is encoded");
            let mut edited = bytes.clone();
            // Lowest mantissa bit of the first cost component.
            edited[at + 5] ^= 1;
            assert!(
                matches!(
                    IamaOptimizer::import_frontier(model(), edited.as_slice()),
                    Err(SnapshotError::Corrupt(m)) if m.contains("entry cost disagrees")
                ),
                "an edited {what} cost was not refused as a cost mismatch"
            );
        }
    }

    #[test]
    fn import_rejects_model_mismatch() {
        use moqo_costmodel::{MetricSet, StandardCostModel, StandardCostModelConfig};
        let opt = warm_optimizer(3);
        let bytes = opt.export_frontier();
        let other: SharedCostModel = Arc::new(StandardCostModel::new(
            MetricSet::cloud(),
            StandardCostModelConfig::default(),
        ));
        assert!(matches!(
            IamaOptimizer::import_frontier(other, bytes.as_slice()),
            Err(SnapshotError::ModelMismatch(_))
        ));
    }

    #[test]
    fn import_rejects_same_metrics_different_model_identity() {
        use moqo_costmodel::{MetricSet, StandardCostModel, StandardCostModelConfig};
        let opt = warm_optimizer(3);
        let bytes = opt.export_frontier();
        // Same metric layout, different cost parameters: the identity
        // guard must refuse — this model would cost the frontier's plans
        // differently, so resuming warm would serve wrong tradeoffs.
        let tweaked: SharedCostModel = Arc::new(StandardCostModel::new(
            MetricSet::paper(),
            StandardCostModelConfig {
                dops: vec![1, 2],
                ..StandardCostModelConfig::default()
            },
        ));
        assert!(matches!(
            IamaOptimizer::import_frontier(tweaked, bytes.as_slice()),
            Err(SnapshotError::ModelMismatch(_))
        ));
    }

    #[test]
    fn export_is_deterministic_for_equal_state() {
        let a = warm_optimizer(3).export_frontier();
        let b = warm_optimizer(3).export_frontier();
        assert_eq!(a, b, "equal optimizer state must serialize identically");
    }

    #[test]
    fn sub_export_is_deterministic_for_equal_state() {
        // Satellite requirement: equal per-subset state ⇒ equal bytes.
        // The blob is the value of a content-addressed cache, so the
        // encoding must be canonical — trees sorted, edges sorted, no
        // iteration-order leakage from the indexes.
        let a = warm_optimizer(4);
        let b = warm_optimizer(4);
        for tables in TableSet::full(4).subsets() {
            if tables.len() < 2 {
                continue;
            }
            assert_eq!(
                a.export_subset(tables),
                b.export_subset(tables),
                "subset {:?} serialized differently for equal state",
                tables.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn sub_round_trip_transplants_into_a_larger_query() {
        // chain(4) is the 4-table prefix of chain(5) (same alternating
        // cardinalities, same edge selectivities), so every sub-frontier
        // harvested from a warm chain(4) seeds the {0..3} subsets of a
        // cold chain(5).
        let donor = warm_optimizer(4);
        let spec5 = Arc::new(testkit::chain_query(5, 150_000));
        let mut cold = IamaOptimizer::new(spec5.clone(), model(), schedule());
        let mut seeded = IamaOptimizer::new(spec5, model(), schedule());
        let mut imported = 0usize;
        for tables in TableSet::full(4).subsets() {
            if tables.len() < 2 {
                continue;
            }
            // Disconnected subsets (e.g. {0, 2} in a chain) are not
            // enumerated and export nothing.
            if let Some(blob) = donor.export_subset(tables) {
                imported += seeded.import_subset(tables, &blob).unwrap();
            }
        }
        assert!(imported > 0, "no candidates transplanted");
        assert_eq!(seeded.stats().transplanted_candidates, imported as u64);
        assert!(seeded.stats().subsets_seeded > 0);

        let b = Bounds::unbounded(3);
        for r in 0..=schedule().r_max() {
            cold.optimize(&b, r);
            seeded.optimize(&b, r);
        }
        // Transplanted state must not change what the optimizer serves:
        // both frontiers cover each other within the Theorem 2 factor
        // (they are frontiers of the same query under the same ladder).
        use moqo_cost::coverage_factor;
        let guarantee = schedule().guarantee(schedule().r_max(), 5);
        let fc = cold.frontier(&b, schedule().r_max()).costs();
        let fs = seeded.frontier(&b, schedule().r_max()).costs();
        assert!(!fs.is_empty());
        assert!(coverage_factor(&fs, &fc) <= guarantee + 1e-9);
        assert!(coverage_factor(&fc, &fs) <= guarantee + 1e-9);
        // And it must pay: the seeded run generates fewer plans (the
        // transplanted Pareto plans win the door competition early, so
        // dominated combinations die before fanning out).
        let (gc, gs) = (cold.stats().plans_generated, seeded.stats().plans_generated);
        assert!(
            gs < gc,
            "transplant must reduce generation: cold={gc} seeded={gs}"
        );
    }

    #[test]
    fn sub_import_rejects_drifted_stats_and_foreign_models() {
        let donor = warm_optimizer(4);
        let tables = TableSet::from_positions(0..4);
        let blob = donor.export_subset(tables).expect("warm subset exports");
        // Same shape, drifted cardinalities: the stats backstop refuses
        // (this near miss is the rebase path's job, not the transplant's).
        let drifted = Arc::new(testkit::chain_query(5, 170_000));
        let mut opt = IamaOptimizer::new(drifted, model(), schedule());
        assert!(matches!(
            opt.import_subset(tables, &blob),
            Err(SnapshotError::Corrupt(_))
        ));
        // Same spec, different model identity: refused before any decode.
        use moqo_costmodel::{MetricSet, StandardCostModel, StandardCostModelConfig};
        let tweaked: SharedCostModel = Arc::new(StandardCostModel::new(
            MetricSet::paper(),
            StandardCostModelConfig {
                dops: vec![1, 2],
                ..StandardCostModelConfig::default()
            },
        ));
        let spec = Arc::new(testkit::chain_query(5, 150_000));
        let mut opt = IamaOptimizer::new(spec, tweaked, schedule());
        assert!(matches!(
            opt.import_subset(tables, &blob),
            Err(SnapshotError::ModelMismatch(_))
        ));
        // Byte corruption anywhere must never panic the decoder.
        let spec = Arc::new(testkit::chain_query(5, 150_000));
        let mut opt = IamaOptimizer::new(spec, model(), schedule());
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x5a;
            let _ = opt.import_subset(tables, &bad);
        }
    }

    #[test]
    fn rebase_replays_a_drifted_donor_and_still_converges() {
        // The donor refined under last hour's statistics; the recipient
        // sees the same query shape with drifted cardinalities. Rebase
        // re-admits the donor's plans as level-0 candidates re-costed
        // under the *new* stats, and the ladder converges to the same
        // frontier a cold run finds — with less generation.
        let donor = warm_optimizer(4);
        let drifted = Arc::new(testkit::chain_query(4, 165_000));
        let mut cold = IamaOptimizer::new(drifted.clone(), model(), schedule());
        let mut rebased = IamaOptimizer::new(drifted, model(), schedule());
        let admitted = rebased.rebase_from(&donor).unwrap();
        assert!(admitted > 0, "nothing rebased");
        assert_eq!(rebased.stats().rebased_candidates, admitted as u64);

        let b = Bounds::unbounded(3);
        for r in 0..=schedule().r_max() {
            cold.optimize(&b, r);
            rebased.optimize(&b, r);
        }
        use moqo_cost::coverage_factor;
        let guarantee = schedule().guarantee(schedule().r_max(), 4);
        let fc = cold.frontier(&b, schedule().r_max()).costs();
        let fr = rebased.frontier(&b, schedule().r_max()).costs();
        assert!(!fr.is_empty());
        assert!(coverage_factor(&fr, &fc) <= guarantee + 1e-9);
        assert!(coverage_factor(&fc, &fr) <= guarantee + 1e-9);
        let (gc, gr) = (
            cold.stats().plans_generated,
            rebased.stats().plans_generated,
        );
        assert!(
            gr < gc,
            "rebase must reduce generation: cold={gc} rebased={gr}"
        );
    }

    #[test]
    fn rebase_refuses_mismatched_shapes_and_warm_targets() {
        let donor = warm_optimizer(4);
        // Different shape: refused.
        let mut other = IamaOptimizer::new(
            Arc::new(testkit::star_query(3, 150_000)),
            model(),
            schedule(),
        );
        assert!(matches!(
            other.rebase_from(&donor),
            Err(SnapshotError::Corrupt(_))
        ));
        // A warm target would mix two refinement histories: refused.
        let mut warm = warm_optimizer(4);
        assert!(matches!(
            warm.rebase_from(&donor),
            Err(SnapshotError::Corrupt(_))
        ));
        // Different model identity: refused.
        use moqo_costmodel::{MetricSet, StandardCostModel, StandardCostModelConfig};
        let tweaked: SharedCostModel = Arc::new(StandardCostModel::new(
            MetricSet::paper(),
            StandardCostModelConfig {
                dops: vec![1, 2],
                ..StandardCostModelConfig::default()
            },
        ));
        let mut foreign = IamaOptimizer::new(
            Arc::new(testkit::chain_query(4, 165_000)),
            tweaked,
            schedule(),
        );
        assert!(matches!(
            foreign.rebase_from(&donor),
            Err(SnapshotError::ModelMismatch(_))
        ));
    }
}
