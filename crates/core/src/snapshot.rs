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
//! Each fact is stored once: a result or candidate entry is written as
//! its plan id, level and invocation (and a result's tombstone bit), and
//! the importer takes its cost and properties from the arena plan. The
//! buffer ends in an FNV-64 checksum over everything before it, so a
//! changed byte anywhere is refused before a field is decoded. The
//! format is still defensive against crafted input that carries a valid
//! checksum: every plan id, table set, level, invocation, watermark
//! operand and cost component is validated on import, and any mismatch
//! (including an enumeration plane that no longer lines up with the
//! serialized state) yields a [`SnapshotError`] instead of a silently
//! wrong optimizer — callers fall back to a cold start.
//!
//! The cost model itself is *not* serialized (it is code, not data); the
//! importer instead verifies that the provided model's metric layout
//! matches the exporter's, so frontiers are never revived under a cost
//! space they were not computed in.
//!
//! Sub-frontier blobs ([`IamaOptimizer::export_subset`]) carry one table
//! subset's plans as position-independent operator trees behind the same
//! header and operator codec. A [`Seeder`] imports them, transplanted from
//! a similar query or rebased from a drifted twin, as re-costed level-0
//! candidates.

use crate::optimizer::{ActiveEntry, IamaOptimizer, Watermark};
use crate::wire::{WireDecode, WireEncode, WireError, WireReader, WireWriter};
use crate::IamaConfig;
use moqo_cost::{Bounds, CostVector, Fnv64, ResolutionSchedule};
use moqo_costmodel::{CostModel, PlanInput, SharedCostModel};
use moqo_index::{CellGrid, Entry, FxHashMap};
use moqo_plan::{JoinAlgo, Operator, PlanArena, ScanMethod};
use moqo_plan::{PhysicalProps, PlanId, PlanNode};
use moqo_query::{InducedStats, QuerySpec, TableSet};
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
///
/// Version 4 stores each fact once and seals the file:
///
/// * header: magic, version, the model guard (metric names, identity);
/// * the query spec, the schedule, and four configuration bytes
///   (`use_delta`, `track_invariants`, `eager_level_skip`,
///   `shadow_dominated`);
/// * the invocation counter and the last `(bounds, r)` context;
/// * the plan arena in creation order: operator, children, cost, props
///   (the plans a resume can reach, densely renumbered as by compaction);
/// * per subset in plan order: its table set, its candidate entries
///   (plan id, level, invocation; sorted) and its active list (plan id,
///   level, invocation, tombstone bit), with no cost or props — the
///   importer reads both from the arena;
/// * the watermark rectangles with their operand table sets, the
///   `IsFresh` pair keys, and the cumulative counters;
/// * an FNV-64 of all the bytes above, little-endian.
///
/// Version 3 files, which copied entry costs and props beside the arena,
/// are refused.
pub const SNAPSHOT_VERSION: u32 = 4;

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

/// Writes a warm-state header: `magic`, `version`, then the model guard
/// (metric count, metric names, cost-model identity). Full snapshots and
/// sub-frontier blobs share it.
fn write_header(w: &mut WireWriter, magic: &[u8; 8], version: u32, model: &dyn CostModel) {
    w.bytes(magic);
    w.u32(version);
    let metrics = model.metrics();
    w.u8(metrics.dim() as u8);
    for i in 0..metrics.dim() {
        w.str(metrics.metric(i).name());
    }
    w.u64(model.identity());
}

/// Reads and checks a [`write_header`] header against the live `model`
/// (`what` names the format in errors); returns the metric count.
fn read_header(
    r: &mut WireReader<'_>,
    magic: &[u8; 8],
    version: u32,
    model: &dyn CostModel,
    what: &str,
) -> Result<usize> {
    if r.take(8)? != magic {
        return Err(SnapshotError::BadMagic);
    }
    match r.u32()? {
        v if v == version => {}
        v => return Err(SnapshotError::UnsupportedVersion(v)),
    }
    let dim = r.u8()? as usize;
    let metrics = model.metrics();
    if dim != metrics.dim() {
        return Err(SnapshotError::ModelMismatch(format!(
            "{what} has {dim} metrics, model has {}",
            metrics.dim()
        )));
    }
    for i in 0..dim {
        let name = r.str()?;
        if name != metrics.metric(i).name() {
            return Err(SnapshotError::ModelMismatch(format!(
                "metric {i} is {name:?} in the {what} but {:?} in the model",
                metrics.metric(i).name()
            )));
        }
    }
    let identity = r.u64()?;
    if identity != model.identity() {
        return Err(SnapshotError::ModelMismatch(format!(
            "{what} was refined under cost-model identity {identity:#018x}, \
             the provided model has {:#018x}",
            model.identity()
        )));
    }
    Ok(dim)
}

/// Writes an operator: its tag, then a scan's position (through
/// `position`: full snapshots store global `u16` positions, sub-frontier
/// blobs local `u8` ones) and method, or a join's algorithm and degree of
/// parallelism.
fn write_operator(w: &mut WireWriter, op: &Operator, position: impl FnOnce(&mut WireWriter, u16)) {
    match *op {
        Operator::Scan {
            position: pos,
            method,
        } => {
            w.u8(0);
            position(w, pos);
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

/// Reads a [`write_operator`] operator, validating every field; `position`
/// reads and checks a scan's position.
fn read_operator(
    r: &mut WireReader<'_>,
    position: impl FnOnce(&mut WireReader<'_>) -> Result<u16>,
) -> Result<Operator> {
    match r.u8()? {
        0 => {
            let position = position(r)?;
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
/// snapshot store's dirty tracking skip unchanged frontiers. An entry's
/// cost is its plan's arena cost, so it is not written.
fn write_candidates(w: &mut WireWriter, entries: &mut [Entry<PlanId>]) {
    entries.sort_unstable_by_key(|e| (e.item.0, e.level, e.invocation));
    w.u32(entries.len() as u32);
    for e in entries {
        w.u32(e.item.0);
        w.u8(e.level);
        w.u32(e.invocation);
    }
}

/// Reads the plan id, level and invocation of one result or candidate
/// entry of the subset joining `tables`: the plan must be in the arena
/// and join exactly those tables (a plan id swapped to another subset's
/// plan would otherwise import cleanly and serve wrong frontiers), the
/// level at most `r_max`, and the invocation before the counter
/// `invocation`.
fn read_entry(
    r: &mut WireReader<'_>,
    arena: &PlanArena,
    tables: u64,
    r_max: usize,
    invocation: u32,
) -> Result<(PlanId, u8, u32)> {
    let plan = r.u32()?;
    let plan = PlanId(plan);
    let Some(node) = arena.get(plan) else {
        return Err(corrupt(format!(
            "entry references plan {} outside arena",
            plan.0
        )));
    };
    if node.tables.bits() != tables {
        return Err(corrupt(format!(
            "subset {tables:#x} entry references plan {} of another subset",
            plan.0
        )));
    }
    let level = r.u8()?;
    if level as usize > r_max {
        return Err(corrupt(format!("entry level {level} exceeds rM={r_max}")));
    }
    let inv = r.u32()?;
    if inv >= invocation {
        return Err(corrupt(format!(
            "entry invocation {inv} not before counter {invocation}"
        )));
    }
    Ok((plan, level, inv))
}

/// The payload of a frontier snapshot: magic and version are checked
/// first, so a foreign file or one of another version reports
/// [`SnapshotError::BadMagic`] or [`SnapshotError::UnsupportedVersion`];
/// then the trailing checksum, so any other changed byte is
/// [`SnapshotError::Corrupt`] before a field is decoded.
fn sealed_payload(bytes: &[u8]) -> Result<&[u8]> {
    let mut r = WireReader::new(bytes);
    if r.take(8)? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    match r.u32()? {
        SNAPSHOT_VERSION => {}
        v => return Err(SnapshotError::UnsupportedVersion(v)),
    }
    let Some(at) = bytes.len().checked_sub(8).filter(|&at| at >= 12) else {
        return Err(SnapshotError::Truncated);
    };
    let (payload, sum) = bytes.split_at(at);
    let sum = u64::from_le_bytes(sum.try_into().expect("eight bytes"));
    if Fnv64::hash_bytes(payload) != sum {
        return Err(corrupt("checksum mismatch".into()));
    }
    Ok(payload)
}

impl IamaOptimizer {
    /// Serializes the optimizer's complete warm state — spec, catalog
    /// statistics, schedule, configuration, plan arena, candidate sets,
    /// active lists, watermark rectangles, pair hash, and the
    /// invocation context — into a versioned, checksummed byte buffer.
    ///
    /// The buffer is self-contained: [`IamaOptimizer::import_frontier`]
    /// needs only these bytes plus a cost model with the same metric
    /// layout. Cumulative [`crate::OptimizerStats`] counters are carried
    /// along; the test-only per-plan invariant maps are not.
    ///
    /// The state is written as [`IamaOptimizer::compact`] would leave it:
    /// only the plans a resume can reach, renumbered in creation order.
    /// So a compacted optimizer exports its state as it is, and a live
    /// one, whose arena has holes and dead plans, exports exactly the
    /// bytes of its compacted twin; the importer's plan ids are the
    /// compacted ones.
    pub fn export_frontier(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        write_header(&mut w, &SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &*self.model);

        // --- Query spec: name, catalog, join graph (the shared wire
        // codec). ---
        self.spec.encode(&mut w);

        // --- Schedule and configuration. ---
        self.schedule.encode(&mut w);
        w.bool(self.config.use_delta);
        w.bool(self.config.track_invariants);
        w.bool(self.config.eager_level_skip);
        w.bool(self.config.shadow_dominated);
        // `time_pruning` is deliberately not serialized: prune timing is
        // pure diagnostics, so it never changes the exported state.
        // Imported optimizers run with the default.

        // --- Invocation context. ---
        w.u32(self.invocation);
        match &self.last_ctx {
            None => w.bool(false),
            Some((bounds, r)) => {
                w.bool(true);
                bounds.limits().encode(&mut w);
                w.u32(*r as u32);
            }
        }

        // --- Plan arena, in creation order (children precede parents),
        // as compaction would leave it: only the plans a resume can reach,
        // renumbered densely. A compacted optimizer's ids map to
        // themselves. ---
        let map = self.renumbering();
        w.u32(map.kept() as u32);
        for (_, node) in self.arena.iter().filter(|(id, _)| map.raw(id.0).is_some()) {
            write_operator(&mut w, &node.op, |w, p| w.u16(p));
            match node.children {
                None => w.bool(false),
                Some((l, r)) => {
                    w.bool(true);
                    w.u32(map.plan(l).0);
                    w.u32(map.plan(r).0);
                }
            }
            node.cost.encode(&mut w);
            node.props.encode(&mut w);
        }

        // --- Per-subset state, aligned with the enumeration plan. Entry
        // costs and properties are the arena's, so only plan ids, levels
        // and invocations are written. ---
        let unbounded = Bounds::unbounded(self.model.dim());
        w.u32(self.states.len() as u32);
        for (ix, state) in self.states.iter().enumerate() {
            w.u64(
                self.plan
                    .tables(moqo_query::SubsetId::from_index(ix))
                    .bits(),
            );
            let mut cand = state
                .cand
                .as_ref()
                .map(|i| i.collect(&unbounded, u8::MAX))
                .unwrap_or_default();
            for e in &mut cand {
                e.item = map.plan(e.item);
            }
            write_candidates(&mut w, &mut cand);
            w.u32(state.active.len() as u32);
            for e in &state.active {
                w.u32(map.plan(e.plan).0);
                w.u8(e.level);
                w.u32(e.invocation);
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
        let mut keys: Vec<u64> = self.pairs.keys().filter_map(|k| map.pair(k)).collect();
        keys.sort_unstable(); // deterministic output for equal state
        w.u32(keys.len() as u32);
        for k in keys {
            w.u64(k);
        }

        // --- Cumulative counters (invariant maps excluded). ---
        let s = &self.stats;
        w.u64(s.plans_generated);
        w.u64(s.pairs_generated);
        w.u64(s.candidate_retrievals);
        w.u64(s.prune_comparisons);
        w.u64(s.result_insertions);
        w.u64(s.candidate_insertions);
        w.u64(s.candidates_discarded);
        w.u64(s.stale_pairs_skipped);
        w.u64(s.pairs_skipped_watermark);
        w.u64(s.subsets_visited);
        w.u64(s.splits_visited);
        w.u64(s.splits_skipped);
        w.u64(s.scratch_high_water as u64);

        // --- Checksum over everything above. ---
        let mut bytes = w.into_vec();
        let sum = Fnv64::hash_bytes(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        bytes
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
        let mut r = WireReader::new(sealed_payload(bytes)?);
        let dim = read_header(
            &mut r,
            &SNAPSHOT_MAGIC,
            SNAPSHOT_VERSION,
            &*model,
            "snapshot",
        )?;

        // --- Query spec (shared wire codec: every reference, filter, and
        // selectivity validated before the panicking constructors run). ---
        let spec = Arc::new(QuerySpec::decode(&mut r)?);

        // --- Schedule and configuration. ---
        let schedule = ResolutionSchedule::decode(&mut r)?;
        let r_max = schedule.r_max();
        let config = IamaConfig {
            use_delta: r.bool()?,
            track_invariants: r.bool()?,
            eager_level_skip: r.bool()?,
            shadow_dominated: r.bool()?,
            // Prune timing is not part of the wire state (see the encode
            // side); imports run with the default.
            ..IamaConfig::default()
        };

        // --- Invocation context. ---
        let invocation = r.u32()?;
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
            let op = read_operator(&mut r, |r| Ok(r.u16()?))?;
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

        // --- Per-subset state; each entry takes its cost and properties
        // from its arena plan. ---
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
            let (arena, state) = (&opt.arena, &mut opt.states[ix]);
            for _ in 0..r.count("candidate entry")? {
                let (plan, level, inv) = read_entry(&mut r, arena, bits, r_max, invocation)?;
                state
                    .cand
                    .get_or_insert_with(|| CellGrid::new(dim))
                    .insert(Entry::new(plan, *arena.cost(plan), level, inv));
            }
            for _ in 0..r.count("active entry")? {
                let (plan, level, inv) = read_entry(&mut r, arena, bits, r_max, invocation)?;
                if state.active.last().is_some_and(|e| inv < e.invocation) {
                    return Err(corrupt("active list not in invocation order".into()));
                }
                let node = arena.node(plan);
                state.active.push(ActiveEntry {
                    plan,
                    cost: node.cost,
                    props: node.props,
                    invocation: inv,
                    level,
                    shadowed: r.bool()?,
                });
            }
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
        opt.stats.plans_generated = r.u64()?;
        opt.stats.pairs_generated = r.u64()?;
        opt.stats.candidate_retrievals = r.u64()?;
        opt.stats.prune_comparisons = r.u64()?;
        opt.stats.result_insertions = r.u64()?;
        opt.stats.candidate_insertions = r.u64()?;
        opt.stats.candidates_discarded = r.u64()?;
        opt.stats.stale_pairs_skipped = r.u64()?;
        opt.stats.pairs_skipped_watermark = r.u64()?;
        opt.stats.subsets_visited = r.u64()?;
        opt.stats.splits_visited = r.u64()?;
        opt.stats.splits_skipped = r.u64()?;
        opt.stats.scratch_high_water = r.u64()? as usize;
        opt.invocation = invocation;
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
    write_operator(out, &node.op, |w, p| w.u8(local[p as usize]));
    if let Some((l, r)) = node.children {
        encode_subtree(arena, l, local, out);
        encode_subtree(arena, r, local, out);
    }
}

/// Decodes one pre-order tree of a sub-frontier blob onto `nodes`, with
/// scan positions mapped back to global ones through `positions`, and
/// returns the tables it joins. Purely structural: nothing is costed.
fn decode_tree(
    r: &mut WireReader<'_>,
    positions: &[usize],
    depth: usize,
    nodes: &mut Vec<Operator>,
) -> Result<TableSet> {
    // A tree over k tables nests at most k - 1 joins.
    if depth >= positions.len() {
        return Err(corrupt(
            "sub-frontier tree nests deeper than its subset".into(),
        ));
    }
    let op = read_operator(r, |r| {
        let lp = r.u8()? as usize;
        positions
            .get(lp)
            .map(|&p| p as u16)
            .ok_or_else(|| corrupt(format!("local scan position {lp} out of range")))
    })?;
    nodes.push(op);
    match op {
        Operator::Scan { position, .. } => Ok(TableSet::singleton(position as usize)),
        Operator::Join { .. } => {
            let left = decode_tree(r, positions, depth + 1, nodes)?;
            let right = decode_tree(r, positions, depth + 1, nodes)?;
            if !left.is_disjoint(right) {
                return Err(corrupt("sub-frontier join children overlap".into()));
            }
            Ok(left.union(right))
        }
    }
}

/// The warm-start tier a sub-frontier blob seeds through (see
/// [`IamaOptimizer::seeder`]). Both tiers re-cost every plan under the
/// live model and admit it as a level-0 candidate; they differ only in
/// which of the blob's statistics must equal the live catalog's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedTier {
    /// A blob harvested from a *different* query whose induced subgraph
    /// and statistics equal this subset's: every statistic must match.
    /// Counted in [`OptimizerStats::transplanted_candidates`](crate::OptimizerStats).
    Transplant,
    /// A blob harvested from a parked optimizer of the *same* shape whose
    /// catalog cardinalities have since drifted: row widths, filters,
    /// join edges and selectivities must match, cardinalities need not.
    /// Counted in [`OptimizerStats::rebased_candidates`](crate::OptimizerStats).
    Rebase,
}

/// One open's seed import into an optimizer (see
/// [`IamaOptimizer::seeder`]). It keeps one node memo keyed by operator
/// and replayed children, so a subtree shared by several trees, or by the
/// blobs of several subsets, is replayed and costed once.
pub struct Seeder<'a> {
    opt: &'a mut IamaOptimizer,
    tier: SeedTier,
    memo: FxHashMap<ReplayedNode, Option<PlanId>>,
}

/// A replayed plan node: its operator over its replayed children (none
/// for a scan).
type ReplayedNode = (Operator, Option<(PlanId, PlanId)>);

impl Seeder<'_> {
    /// Seeds subset `tables` from an
    /// [`export_subset`](IamaOptimizer::export_subset) blob.
    ///
    /// The whole blob is checked first: its metric layout and cost-model
    /// identity, the induced statistics the [`SeedTier`] compares, and
    /// every tree's structure (operators, scan positions, disjoint join
    /// children, a root covering exactly `tables`). Any mismatch yields an
    /// error with nothing queued or counted, and the caller falls back to
    /// cold enumeration for the subset.
    ///
    /// Every tree is then replayed bottom-up against the **live** cost
    /// model: each operator must still be offered by
    /// [`scan_alternatives`](moqo_costmodel::CostModel::scan_alternatives)
    /// / [`join_alternative`](moqo_costmodel::CostModel::join_alternative)
    /// (which costs the replayed join alone), and the plan, pushed to the
    /// arena with the freshly computed cost, is queued for admission as a
    /// level-0 `Cand` entry.
    /// The next invocations admit at most
    /// [`MAX_SEEDS_PER_SLICE`](crate::MAX_SEEDS_PER_SLICE) seeds
    /// each, and every admitted seed re-enters through pruning exactly
    /// like a natively generated plan: by Lemma 7 it is re-examined at
    /// most `rM + 1` times, and Theorem 2's `alpha_T` guarantee holds
    /// without caveats. Trees whose operators are no longer offered are
    /// skipped, not errors. Returns the number of queued plans.
    pub fn import(&mut self, tables: TableSet, bytes: &[u8]) -> Result<usize> {
        let opt = &mut *self.opt;
        let q = opt
            .plan
            .subset_id(tables)
            .ok_or_else(|| corrupt("subset not enumerated for this query".into()))?;
        let mut r = WireReader::new(bytes);
        read_header(
            &mut r,
            &SUBSNAPSHOT_MAGIC,
            SUBSNAPSHOT_VERSION,
            &*opt.model,
            "sub-frontier",
        )?;
        let InducedStats {
            tables: stats,
            edges,
        } = opt.spec.induced_stats(tables);
        let k = r.u8()? as usize;
        if k != stats.len() {
            return Err(corrupt(format!(
                "sub-frontier covers {k} tables, subset has {}",
                stats.len()
            )));
        }
        for (i, &(card, width, filter)) in stats.iter().enumerate() {
            let (bc, bw, bf) = (r.u64()?, r.u32()?, r.u64()?);
            // A rebase blob was refined under the cardinalities the live
            // catalog has drifted from; the re-costing absorbs them.
            let card_ok = bc == card || self.tier == SeedTier::Rebase;
            if !card_ok || bw != width || bf != filter.to_bits() {
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
        let mut nodes = Vec::new();
        for _ in 0..n_trees {
            if decode_tree(&mut r, &positions, 0, &mut nodes)? != tables {
                return Err(corrupt(
                    "sub-frontier tree does not cover its subset".into(),
                ));
            }
        }
        if !r.done() {
            return Err(corrupt("trailing bytes after sub-frontier".into()));
        }

        opt.generation += 1;
        let mut at = 0;
        let mut queued = 0usize;
        while at < nodes.len() {
            if let Some(plan) = self.replay(&nodes, &mut at) {
                // Queued, not indexed: the next invocations admit seeds
                // at most `MAX_SEEDS_PER_SLICE` at a time (level-0 `Cand`
                // entries), amortizing the drain across the ladder.
                self.opt.pending_seeds.push_back((q, plan));
                queued += 1;
            }
        }
        let stats = &mut self.opt.stats;
        *match self.tier {
            SeedTier::Transplant => &mut stats.transplanted_candidates,
            SeedTier::Rebase => &mut stats.rebased_candidates,
        } += queued as u64;
        Ok(queued)
    }

    /// Replays the decoded tree at `nodes[*at]` bottom-up, moving `at`
    /// past it; `None` when the live model no longer offers one of its
    /// operators.
    fn replay(&mut self, nodes: &[Operator], at: &mut usize) -> Option<PlanId> {
        let op = nodes[*at];
        *at += 1;
        let children = match op {
            Operator::Scan { .. } => None,
            Operator::Join { .. } => {
                // Both subtrees are walked before either may bail out, so
                // `at` always lands on the next tree.
                let l = self.replay(nodes, at);
                let r = self.replay(nodes, at);
                Some((l?, r?))
            }
        };
        let opt = &mut *self.opt;
        *self
            .memo
            .entry((op, children))
            .or_insert_with(|| opt.push_offered(op, children))
    }
}

impl IamaOptimizer {
    /// Serializes the warm `Res^q`/`Cand^q` state of one connected table
    /// subset as a self-describing, position-independent blob: the metric
    /// layout and cost-model identity it was refined under, the induced
    /// sub-catalog statistics (the validation gate for seeding), and the
    /// operator trees of every result/candidate plan with scan positions
    /// relabeled to `0..k` in ascending order.
    ///
    /// Costs are deliberately *not* serialized: an importer re-scores
    /// every tree against its live cost model at admission, which is what
    /// keeps the paper's `alpha_T` guarantee intact across seeding.
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

        let mut w = self.subset_header(tables);
        w.u32(trees.len() as u32);
        for t in &trees {
            w.bytes(t);
        }
        Some(w.into_vec())
    }

    /// A sub-frontier blob's header for subset `tables`: the model guard,
    /// then the induced statistics.
    fn subset_header(&self, tables: TableSet) -> WireWriter {
        let mut w = WireWriter::new();
        write_header(
            &mut w,
            &SUBSNAPSHOT_MAGIC,
            SUBSNAPSHOT_VERSION,
            &*self.model,
        );
        let InducedStats {
            tables: stats,
            edges,
        } = self.spec.induced_stats(tables);
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
        w
    }

    /// Opens a seed import of `tier`: the one door through which
    /// [`export_subset`](IamaOptimizer::export_subset) blobs, transplanted
    /// from similar queries or rebased from a drifted twin, enter this
    /// optimizer. One seeder serves one open, so its memo spans every
    /// blob the open imports.
    pub fn seeder(&mut self, tier: SeedTier) -> Seeder<'_> {
        Seeder {
            opt: self,
            tier,
            memo: FxHashMap::default(),
        }
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

    /// Pushes `op` over `children` (none for a scan) with the cost and
    /// properties the live model offers for it; `None` when the model no
    /// longer offers the operator.
    fn push_offered(&mut self, op: Operator, children: Option<(PlanId, PlanId)>) -> Option<PlanId> {
        match (op, children) {
            (Operator::Scan { position, .. }, None) => {
                let pos = position as usize;
                let (op, cost, props) = self
                    .model
                    .scan_alternatives(&self.spec, pos)
                    .into_iter()
                    .find(|&(alt, _, _)| alt == op)?;
                Some(self.arena.push_scan(op, pos, cost, props))
            }
            (Operator::Join { .. }, Some((l, r))) => {
                let input = |n: &PlanNode| PlanInput {
                    tables: n.tables,
                    cost: n.cost,
                    props: n.props,
                };
                let (li, ri) = (input(self.arena.node(l)), input(self.arena.node(r)));
                let (cost, props) = self.model.join_alternative(&self.spec, &li, &ri, op)?;
                Some(self.arena.push_join(op, l, r, cost, props))
            }
            _ => unreachable!("a scan has no children and a join two"),
        }
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

    /// Recomputes a snapshot's trailing checksum, as a crafted file would
    /// carry it, so the field checks behind the checksum see the bytes.
    fn reseal(bytes: &mut [u8]) {
        let at = bytes.len() - 8;
        let sum = Fnv64::hash_bytes(&bytes[..at]);
        bytes[at..].copy_from_slice(&sum.to_le_bytes());
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
        // point — same order, same plans under compaction's renumbering,
        // same cost bits — whether it was exported mid-ladder or after
        // it, under any bounds and level.
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
                let bytes = opt.export_frontier();
                let revived = IamaOptimizer::import_frontier(model(), &bytes).unwrap();
                assert!(
                    revived.export_frontier() == bytes,
                    "{name}: the re-export at r={r} differs from the export"
                );
                let mut ts: Vec<f64> = opt.frontier(&b, r).costs().iter().map(|c| c[0]).collect();
                ts.sort_by(f64::total_cmp);
                let focus = b.with_limit(0, ts[ts.len() / 2]);
                let map = opt.renumbering();
                for (bounds, view_r) in [(b, r), (b, r_max), (focus, r), (focus, 0)] {
                    let mut expected = opt.frontier(&bounds, view_r);
                    for p in &mut expected.points {
                        p.plan = map.plan(p.plan);
                    }
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
        // A version-3 file is refused by its version, before the
        // checksum it does not carry is looked for.
        for version in [3, 99] {
            let mut vbad = bytes.clone();
            vbad[8..12].copy_from_slice(&u32::to_le_bytes(version));
            assert_eq!(
                IamaOptimizer::import_frontier(model(), &vbad).err(),
                Some(SnapshotError::UnsupportedVersion(version))
            );
        }
        let truncated = &bytes[..bytes.len() - 3];
        assert!(IamaOptimizer::import_frontier(model(), truncated).is_err());
    }

    #[test]
    fn single_byte_corruption_never_panics_the_importer() {
        // Any single changed byte is refused with a typed error: the
        // magic and version by their own checks, every other byte by the
        // checksum. Re-sealed, as a crafted file would be, the mutant
        // meets the field checks, which run before any panicking
        // constructor: it must be refused or import an optimizer that
        // runs (a benign field, e.g. a stats counter) — never panic or
        // allocate hugely.
        let spec = Arc::new(testkit::chain_query(2, 5_000));
        let mut opt = IamaOptimizer::new(spec, model(), ResolutionSchedule::linear(1, 1.2, 0.4));
        let b = Bounds::unbounded(3);
        opt.optimize(&b, 0);
        opt.optimize(&b, 1);
        let bytes = opt.export_frontier();
        let payload = bytes.len() - 8;
        for i in 0..bytes.len() {
            let mut mutant = bytes.clone();
            mutant[i] ^= 0xa5;
            let refused = IamaOptimizer::import_frontier(model(), &mutant);
            match i {
                0..8 => assert_eq!(refused.err(), Some(SnapshotError::BadMagic)),
                8..12 => assert!(matches!(refused, Err(SnapshotError::UnsupportedVersion(_)))),
                _ => assert!(
                    matches!(refused, Err(SnapshotError::Corrupt(ref m)) if m.contains("checksum")),
                    "byte {i} changed undetected"
                ),
            }
            if (12..payload).contains(&i) {
                reseal(&mut mutant);
                if let Ok(mut revived) = IamaOptimizer::import_frontier(model(), &mutant) {
                    let _ = revived.optimize(&b, 1);
                }
            }
        }
    }

    #[test]
    fn import_rejects_corrupt_entry_dimension() {
        // Targeted check for the cost dimension guards: shrinking one
        // plan's (or the last bounds') cost-vector dim byte must fail
        // import, not park a dominance-poisoned optimizer. Each mutant is
        // re-sealed, so the field checks, not the checksum, see it.
        let opt = warm_optimizer(3);
        let bytes = opt.export_frontier();
        let mut seen_rejection = false;
        let mut mutant = bytes.clone();
        for i in 0..bytes.len() - 8 {
            // Dim bytes are exactly the value 3 followed by 3 f64s; try
            // turning each candidate 3 into a 1 and require that imports
            // which *succeed* still optimize without panicking.
            if bytes[i] != 3 {
                continue;
            }
            mutant[i] = 1;
            reseal(&mut mutant);
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
                imported += seeded
                    .seeder(SeedTier::Transplant)
                    .import(tables, &blob)
                    .unwrap();
            }
        }
        assert!(imported > 0, "no candidates transplanted");
        assert_eq!(seeded.stats().transplanted_candidates, imported as u64);

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
            opt.seeder(SeedTier::Transplant).import(tables, &blob),
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
            opt.seeder(SeedTier::Transplant).import(tables, &blob),
            Err(SnapshotError::ModelMismatch(_))
        ));
        // Byte corruption anywhere must never panic the decoder.
        let spec = Arc::new(testkit::chain_query(5, 150_000));
        let mut opt = IamaOptimizer::new(spec, model(), schedule());
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x5a;
            let _ = opt.seeder(SeedTier::Transplant).import(tables, &bad);
        }
    }

    /// Every multi-table subset blob of `opt`, as a parked optimizer's
    /// harvest holds them.
    fn harvest(opt: &IamaOptimizer) -> Vec<(TableSet, Vec<u8>)> {
        opt.enumeration()
            .subsets()
            .iter()
            .map(|info| info.tables)
            .filter(|tables| tables.len() >= 2)
            .filter_map(|tables| Some((tables, opt.export_subset(tables)?)))
            .collect()
    }

    #[test]
    fn rebase_replays_a_drifted_donor_and_still_converges() {
        // The donor refined under last hour's statistics; the recipient
        // sees the same query shape with drifted cardinalities. Rebase
        // re-admits the donor's harvested plans as level-0 candidates
        // re-costed under the *new* stats, and the ladder converges to the
        // same frontier a cold run finds — with less generation.
        let donor = warm_optimizer(4);
        let blobs = harvest(&donor);
        let drifted = Arc::new(testkit::drift_cardinalities(donor.spec(), 1.1));
        let mut cold = IamaOptimizer::new(drifted.clone(), model(), schedule());
        let mut rebased = IamaOptimizer::new(drifted.clone(), model(), schedule());
        let mut seeder = rebased.seeder(SeedTier::Rebase);
        let admitted: usize = blobs
            .iter()
            .map(|(tables, blob)| seeder.import(*tables, blob).unwrap())
            .sum();
        assert!(admitted > 0, "nothing rebased");
        assert_eq!(rebased.stats().rebased_candidates, admitted as u64);
        assert_eq!(rebased.stats().transplanted_candidates, 0);
        assert_eq!(rebased.pending_seeds(), admitted);

        // One seeder per open replays a subtree shared across subsets
        // once; a seeder per blob replays it once per blob.
        let mut unshared = IamaOptimizer::new(drifted, model(), schedule());
        for (tables, blob) in &blobs {
            unshared
                .seeder(SeedTier::Rebase)
                .import(*tables, blob)
                .unwrap();
        }
        assert_eq!(unshared.pending_seeds(), admitted);
        assert!(rebased.arena.len() < unshared.arena.len());

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
    fn rebase_refuses_mismatched_shapes_and_models() {
        let donor = warm_optimizer(4);
        let tables = TableSet::from_positions(0..4);
        let blob = donor.export_subset(tables).expect("warm full set exports");
        let refuse = |spec: QuerySpec, model: SharedCostModel| {
            let mut opt = IamaOptimizer::new(Arc::new(spec), model, schedule());
            let refused = opt.seeder(SeedTier::Rebase).import(tables, &blob);
            assert_eq!(opt.pending_seeds(), 0);
            refused
        };
        // Different shape over the same tables: the join edges differ.
        assert!(matches!(
            refuse(testkit::star_query(4, 150_000), model()),
            Err(SnapshotError::Corrupt(_))
        ));
        // Fewer tables: the subset is not enumerated.
        assert!(matches!(
            refuse(testkit::star_query(3, 150_000), model()),
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
        assert!(matches!(
            refuse(testkit::drift_cardinalities(donor.spec(), 1.1), tweaked),
            Err(SnapshotError::ModelMismatch(_))
        ));
        // Drifted selectivities: a different statistic than cardinality.
        assert!(matches!(
            refuse(testkit::chain_query(4, 165_000), model()),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn a_refused_blob_queues_and_counts_nothing() {
        // Both tiers check the whole blob before replaying any tree: a
        // blob refused at its end leaves no seed, counter or plan behind.
        let donor = warm_optimizer(4);
        let tables = TableSet::from_positions(0..4);
        let blob = donor.export_subset(tables).expect("warm full set exports");
        let mut trailing = blob.clone();
        trailing.push(0);
        // One more tree after every valid one: a lone scan, covering one
        // of the subset's four tables.
        let header = donor.subset_header(tables).len();
        let n = u32::from_le_bytes(blob[header..header + 4].try_into().unwrap());
        let mut uncovering = blob[..header].to_vec();
        uncovering.extend((n + 1).to_le_bytes());
        uncovering.extend(&blob[header + 4..]);
        uncovering.extend([0, 0, 0]);
        let chain5 = || {
            let spec = Arc::new(testkit::chain_query(5, 150_000));
            IamaOptimizer::new(spec, model(), schedule())
        };
        for (what, bad) in [
            ("trailing byte", &trailing),
            ("uncovering tree", &uncovering),
        ] {
            for tier in [SeedTier::Transplant, SeedTier::Rebase] {
                let mut opt = chain5();
                assert!(
                    opt.seeder(tier).import(tables, bad).is_err(),
                    "{what} via {tier:?}"
                );
                let s = opt.stats();
                assert_eq!(
                    (
                        opt.pending_seeds() as u64,
                        s.transplanted_candidates,
                        s.rebased_candidates,
                        opt.arena.len() as u64,
                    ),
                    (0, 0, 0, 0),
                    "{what} via {tier:?} left state behind"
                );
            }
        }
        let mut opt = chain5();
        let queued = opt
            .seeder(SeedTier::Transplant)
            .import(tables, &blob)
            .unwrap();
        assert!(queued > 0 && opt.pending_seeds() == queued);
    }
}
