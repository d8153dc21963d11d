//! Durable warm state: snapshot/restore of parked frontiers.
//!
//! The warm store is the serving front's accumulated capital — each
//! parked optimizer represents a full refinement ladder someone already
//! paid for. [`SnapshotStore`] writes every parked optimizer to disk
//! (one file per [`moqo_engine::QueryFingerprint`], bytes produced by
//! [`IamaOptimizer::export_frontier`], already versioned, checksummed
//! and self-validating), so a restarted server's first invocation of a
//! known query still generates **zero** plans. The files come back two
//! ways:
//!
//! * **On first demand** ([`SnapshotStore::attach`]): the store becomes
//!   the engine's warm-store miss loader. An open whose fingerprint is
//!   not parked in memory reads `<fp>.frontier` and resumes from it; a
//!   missing or invalid file is a miss, and the open goes on to rebase,
//!   transplant or a cold start. Fleet nodes share one directory this
//!   way: a key's new home reads the last state its old home swept.
//! * **In bulk** ([`SnapshotStore::restore`]): every file is decoded and
//!   re-parked at once — the single-process restart, which also brings
//!   back rebase donors that a read by fingerprint cannot find.
//!
//! Both are tolerant by design: every file is decoded independently,
//! and files that fail validation (truncated writes, flipped bytes,
//! version skew, a cost model whose identity or metric layout changed)
//! are refused, never trusted. Frontiers enter the engine's one warm
//! store, which every shard reads, so the shard count of the saving
//! process does not matter.
//!
//! Writes go through a temp file + rename, so a crash mid-save leaves the
//! previous snapshot generation intact rather than a half-written file.
//! A failed write or rename removes its temp file.
//!
//! Saves are **incremental per fingerprint**: the store remembers the
//! content hash of every file it has persisted (or read back) and skips
//! fingerprints whose frontier bytes are unchanged — a periodic
//! snapshot sweep over a mostly-idle cache costs serialization, not IO.
//!
//! Snapshots embed the exporting cost model's
//! [identity](moqo_costmodel::CostModel::identity), so a frontier refined
//! under a per-session model override is *refused* under the deployment
//! default model — never silently resumed under a model that would cost
//! it differently. Files of an older format version
//! ([`moqo_core::SNAPSHOT_VERSION`] is 4) are refused the same way: each
//! such fingerprint starts cold once, and the next save after its
//! session parks writes it in the current format.

use crate::shard::ShardedEngine;
use moqo_core::IamaOptimizer;
use moqo_costmodel::SharedCostModel;
use moqo_engine::QueryFingerprint;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// File extension of frontier snapshot files.
pub const FRONTIER_EXT: &str = "frontier";

/// What a [`SnapshotStore::save`] wrote.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SaveReport {
    /// Snapshot files written.
    pub written: usize,
    /// Total bytes written.
    pub bytes: u64,
    /// Fingerprints whose frontier bytes were unchanged since the last
    /// persist — serialized for comparison, but no file touched.
    pub unchanged: usize,
}

/// What a [`SnapshotStore::restore`] brought back.
#[derive(Clone, Debug, Default)]
pub struct RestoreReport {
    /// Frontiers re-parked into the warm store.
    pub restored: usize,
    /// Files skipped, with the reason (corrupt, version skew, model
    /// mismatch, unreadable).
    pub skipped: Vec<(PathBuf, String)>,
}

impl fmt::Display for RestoreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "restored {} frontier(s)", self.restored)?;
        if !self.skipped.is_empty() {
            write!(f, ", skipped {}", self.skipped.len())?;
        }
        Ok(())
    }
}

/// A directory of frontier snapshots, one file per fingerprint, with
/// per-fingerprint dirty tracking (unchanged frontiers skip the write).
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    /// Content hash of the last bytes persisted (or read back) per
    /// fingerprint; a matching hash with the file still on disk means
    /// the frontier is clean and the write is skipped.
    persisted: Mutex<HashMap<u64, u64>>,
}

/// FNV-1a over a byte blob (the dirty-tracking content hash).
fn content_hash(bytes: &[u8]) -> u64 {
    moqo_cost::Fnv64::hash_bytes(bytes)
}

/// Process-wide sequence for unique snapshot temp-file names.
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl SnapshotStore {
    /// A store rooted at `dir` (created on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            persisted: Mutex::new(HashMap::new()),
        }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_for(&self, fp: moqo_engine::QueryFingerprint) -> PathBuf {
        self.dir
            .join(format!("{:016x}.{FRONTIER_EXT}", fp.as_u64()))
    }

    /// Serializes every parked frontier to the store directory, one file
    /// per fingerprint. Live sessions are not captured — retire them
    /// first (e.g. [`ShardedEngine::finish`]) if their state should
    /// survive.
    ///
    /// Serialization takes the warm store's lock once **per entry** (not
    /// across the whole pass), so a snapshot sweep interleaves with live
    /// submissions; file IO happens with no lock held at all.
    ///
    /// Fingerprints whose serialized bytes match what this store last
    /// persisted (and whose file is still on disk) are counted in
    /// [`SaveReport::unchanged`] and skip the write entirely — repeated
    /// sweeps over an idle cache do no IO.
    pub fn save(&self, engine: &ShardedEngine) -> io::Result<SaveReport> {
        fs::create_dir_all(&self.dir)?;
        let exported = engine
            .store()
            .map_parked(|fp, opt| (fp, opt.export_frontier()));
        let mut report = SaveReport::default();
        // Skip decisions happen under the dirty-map lock; the lock drops
        // before any file is written, so concurrent sweeps over one
        // store serialize only the (cheap) hash comparison, not the IO.
        let dirty: Vec<(QueryFingerprint, u64, Vec<u8>)> = {
            let persisted = self.persisted.lock().expect("snapshot dirty map poisoned");
            exported
                .into_iter()
                .filter_map(|(fp, bytes)| {
                    let hash = content_hash(&bytes);
                    if persisted.get(&fp.as_u64()) == Some(&hash) && self.file_for(fp).exists() {
                        report.unchanged += 1;
                        None
                    } else {
                        Some((fp, hash, bytes))
                    }
                })
                .collect()
        };
        for (fp, hash, bytes) in dirty {
            let path = self.file_for(fp);
            // The temp name is unique per call: two concurrent sweeps
            // that both found the fingerprint dirty must not interleave
            // writes into one temp inode and rename mixed bytes into
            // place (the rename itself is atomic; the write is not).
            let tmp = path.with_extension(format!(
                "tmp.{}.{}",
                std::process::id(),
                TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            // Publish and record under the dirty-map lock so the map can
            // never claim bytes that lost the rename race to a concurrent
            // sweep (disk and map always describe the same generation;
            // the bulk byte write stays outside the lock).
            let published = fs::write(&tmp, &bytes).and_then(|()| {
                let mut persisted = self.persisted.lock().expect("snapshot dirty map poisoned");
                fs::rename(&tmp, &path)?;
                persisted.insert(fp.as_u64(), hash);
                Ok(())
            });
            if let Err(e) = published {
                // Nothing reads a temp file back: a failing disk must not
                // leave one behind per sweep.
                let _ = fs::remove_file(&tmp);
                return Err(e);
            }
            report.written += 1;
            report.bytes += bytes.len() as u64;
        }
        Ok(report)
    }

    /// Makes this store `engine`'s warm-store miss loader: an open whose
    /// fingerprint is not parked in memory reads that fingerprint's file,
    /// imports it under the engine's model and resumes from it. A
    /// missing or invalid file is a miss; the file is left in place.
    /// Returns false if the engine already has a loader.
    pub fn attach(self: &Arc<Self>, engine: &ShardedEngine) -> bool {
        let store = Arc::clone(self);
        let model = engine.model();
        engine
            .store()
            .set_loader(Box::new(move |fp| store.load(&model, fp)))
    }

    /// Reads the snapshot file for `fp` and imports it under `model`.
    /// `None` when the file is missing or invalid (see [`Self::read`]);
    /// a file describing another query than its name says is refused
    /// too. A refused file is left in place.
    fn load(&self, model: &SharedCostModel, fp: QueryFingerprint) -> Option<IamaOptimizer> {
        self.read(model, &self.file_for(fp), Some(fp))
            .ok()
            .map(|(_, opt)| opt)
    }

    /// Reads one snapshot file and imports it under `model`, returning
    /// the optimizer with its fingerprint, recomputed from the decoded
    /// spec under the optimizer's own model (content-authoritative: a
    /// file name is cosmetic unless `named` gives the fingerprint the
    /// content must have). A file read back seeds the dirty tracker, so
    /// a sweep that finds its frontier unchanged skips the rewrite.
    /// `Err` says why the file was refused — unreadable, corrupt, of
    /// another format version or cost model, or another query than
    /// `named`.
    fn read(
        &self,
        model: &SharedCostModel,
        path: &Path,
        named: Option<QueryFingerprint>,
    ) -> Result<(QueryFingerprint, IamaOptimizer), String> {
        let bytes = fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
        let opt =
            IamaOptimizer::import_frontier(model.clone(), &bytes).map_err(|e| e.to_string())?;
        let fp = QueryFingerprint::of(opt.spec(), &opt.model());
        if named.is_some_and(|named| named != fp) {
            return Err("describes another query than its name".into());
        }
        self.persisted
            .lock()
            .expect("snapshot dirty map poisoned")
            .insert(fp.as_u64(), content_hash(&bytes));
        Ok((fp, opt))
    }

    /// Decodes every snapshot file and re-parks the frontiers in the warm
    /// store. Individual bad files are skipped (reported in the
    /// result); only directory-level IO fails the whole restore. A
    /// missing directory restores nothing.
    pub fn restore(&self, engine: &ShardedEngine) -> io::Result<RestoreReport> {
        let mut report = RestoreReport::default();
        let entries = match fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(report),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(FRONTIER_EXT) {
                continue;
            }
            match self.read(&engine.model(), &path, None) {
                Ok((fp, opt)) => {
                    engine.park(fp, opt);
                    report.restored += 1;
                }
                Err(reason) => report.skipped.push((path, reason)),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardConfig;
    use moqo_cost::ResolutionSchedule;
    use moqo_costmodel::StandardCostModel;
    use moqo_engine::EngineConfig;
    use moqo_query::testkit;
    use std::sync::Arc;
    use std::time::Duration;

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
                rebalance_headroom: 0,
            },
        )
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("moqo-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_survives_a_kill_restore_cycle() {
        // Satellite requirement: snapshot → drop → restore → the first
        // invocation of a known query generates 0 fresh plans.
        let dir = temp_dir("cycle");
        let store = SnapshotStore::new(&dir);
        let specs: Vec<Arc<_>> = (2..=5)
            .map(|n| Arc::new(testkit::chain_query(n, 77_000)))
            .collect();
        {
            let e = engine(4);
            let ids: Vec<_> = specs.iter().map(|s| e.submit(s.clone())).collect();
            assert!(e.wait_idle(IDLE));
            for id in ids {
                e.finish(id).unwrap();
            }
            let saved = store.save(&e).unwrap();
            assert_eq!(saved.written, specs.len());
            assert!(saved.bytes > 0);
        } // drop = kill: worker pools join, all in-memory state is gone

        let e = engine(4);
        let restored = store.restore(&e).unwrap();
        assert_eq!(restored.restored, specs.len());
        assert!(restored.skipped.is_empty(), "{:?}", restored.skipped);
        for spec in &specs {
            let fp = e.fingerprint(spec);
            assert!(e.has_parked(fp));
            // Restored frontiers live in the shared store; the repeat
            // goes home and resumes there.
            let gid = e.submit(spec.clone());
            assert_eq!(gid.shard, e.home_shard(fp));
            assert!(e.wait_idle(IDLE));
            let s = e.status(gid).unwrap();
            assert!(s.warm_start, "{}", spec.name);
            assert_eq!(
                s.first_report.unwrap().plans_generated,
                0,
                "{}: restored frontier regenerated plans",
                spec.name
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_tolerates_shard_count_changes() {
        let dir = temp_dir("reshard");
        let store = SnapshotStore::new(&dir);
        let spec = Arc::new(testkit::chain_query(4, 55_000));
        {
            let e = engine(2);
            let gid = e.submit(spec.clone());
            assert!(e.wait_idle(IDLE));
            e.finish(gid).unwrap();
            store.save(&e).unwrap();
        }
        // Restore into an 8-shard engine: every shard reads the one
        // store, so the shard count of the saver does not matter.
        let e = engine(8);
        assert_eq!(store.restore(&e).unwrap().restored, 1);
        let gid = e.submit(spec);
        assert!(e.wait_idle(IDLE));
        let s = e.status(gid).unwrap();
        assert!(s.warm_start);
        assert_eq!(s.first_report.unwrap().plans_generated, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_skipped_not_trusted() {
        let dir = temp_dir("corrupt");
        let store = SnapshotStore::new(&dir);
        let spec = Arc::new(testkit::chain_query(3, 40_000));
        {
            let e = engine(2);
            let gid = e.submit(spec.clone());
            assert!(e.wait_idle(IDLE));
            e.finish(gid).unwrap();
            store.save(&e).unwrap();
        }
        // Rewrite the snapshot as a former format version, and drop a
        // truncated copy and a junk file next to it.
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(files.len(), 1);
        let bytes = fs::read(&files[0]).unwrap();
        let mut former = bytes.clone();
        former[8..12].copy_from_slice(&3u32.to_le_bytes());
        fs::write(&files[0], &former).unwrap();
        let truncated = &bytes[..bytes.len() / 2];
        fs::write(dir.join(format!("truncated.{FRONTIER_EXT}")), truncated).unwrap();
        fs::write(dir.join(format!("junk.{FRONTIER_EXT}")), b"not a snapshot").unwrap();
        fs::write(dir.join("README.txt"), b"ignored entirely").unwrap();

        // A restarted process.
        let store = SnapshotStore::new(&dir);
        let e = engine(2);
        let report = store.restore(&e).unwrap();
        assert_eq!(report.restored, 0);
        assert_eq!(report.skipped.len(), 3, "{report}");
        assert!(
            report
                .skipped
                .iter()
                .any(|(path, why)| path == &files[0] && why.contains("version 3")),
            "{:?}",
            report.skipped
        );
        // The engine stays cold but functional.
        let gid = e.submit(spec.clone());
        assert!(e.wait_idle(IDLE));
        let s = e.status(gid).unwrap();
        assert!(!s.warm_start);
        assert!(s.first_report.unwrap().plans_generated > 0);
        // It starts cold once: the next save writes the fingerprint in
        // the current format, and a restart restores it.
        e.finish(gid).unwrap();
        assert_eq!(store.save(&e).unwrap().written, 1);
        let e = engine(2);
        let report = SnapshotStore::new(&dir).restore(&e).unwrap();
        assert_eq!((report.restored, report.skipped.len()), (1, 2), "{report}");
        assert!(e.has_parked(e.fingerprint(&spec)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unchanged_frontiers_skip_the_rewrite() {
        let dir = temp_dir("dirty");
        let store = SnapshotStore::new(&dir);
        let e = engine(2);
        let specs: Vec<Arc<_>> = (2..=4)
            .map(|n| Arc::new(testkit::chain_query(n, 33_000)))
            .collect();
        let ids: Vec<_> = specs.iter().map(|s| e.submit(s.clone())).collect();
        assert!(e.wait_idle(IDLE));
        for id in ids {
            e.finish(id).unwrap();
        }
        // First sweep writes everything.
        let first = store.save(&e).unwrap();
        assert_eq!((first.written, first.unchanged), (specs.len(), 0));
        // Second sweep over the untouched cache writes nothing.
        let second = store.save(&e).unwrap();
        assert_eq!((second.written, second.unchanged), (0, specs.len()));
        assert_eq!(second.bytes, 0);

        // Refine one fingerprint further (resume warm, change focus, and
        // re-park): only that file is rewritten.
        let gid = e.submit(specs[0].clone());
        assert!(e.wait_idle(IDLE));
        assert!(e.status(gid).unwrap().warm_start);
        let tight = {
            let f = e.frontier(gid).unwrap();
            let anchor = f.min_by_metric(0).unwrap().cost[0];
            moqo_cost::Bounds::unbounded(3).with_limit(0, anchor * 2.0)
        };
        e.command(gid, moqo_core::SessionCommand::SetBounds(tight))
            .unwrap();
        assert!(e.wait_idle(IDLE));
        e.finish(gid).unwrap();
        let third = store.save(&e).unwrap();
        assert_eq!(
            (third.written, third.unchanged),
            (1, specs.len() - 1),
            "only the refined fingerprint is dirty"
        );

        // A deleted file is re-written even with a clean hash (the disk
        // is the source of truth for what exists).
        let victim = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().and_then(|e| e.to_str()) == Some(FRONTIER_EXT))
            .unwrap();
        fs::remove_file(&victim).unwrap();
        let fourth = store.save(&e).unwrap();
        assert_eq!(fourth.written, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_seeds_the_dirty_tracker() {
        let dir = temp_dir("restore-seed");
        let spec = Arc::new(testkit::chain_query(3, 21_000));
        {
            let e = engine(2);
            let gid = e.submit(spec.clone());
            assert!(e.wait_idle(IDLE));
            e.finish(gid).unwrap();
            SnapshotStore::new(&dir).save(&e).unwrap();
        }
        // A fresh store (fresh process) restores, then sweeps: the
        // untouched frontier must not be rewritten.
        let store = SnapshotStore::new(&dir);
        let e = engine(2);
        assert_eq!(store.restore(&e).unwrap().restored, 1);
        let sweep = store.save(&e).unwrap();
        assert_eq!(
            (sweep.written, sweep.unchanged),
            (0, 1),
            "restored-but-untouched frontier must be clean"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_frontiers_serve_as_rebase_donors() {
        // Overnight: the server snapshots and stops; the catalog's stats
        // refresh; the restarted server sees the same queries under new
        // cardinalities. The exact fingerprints all miss, but restored
        // frontiers still pay off — as rebase donors.
        let dir = temp_dir("rebase");
        let store = SnapshotStore::new(&dir);
        let spec = Arc::new(testkit::chain_query(4, 70_000));
        {
            let e = engine(2);
            let gid = e.submit(spec.clone());
            assert!(e.wait_idle(IDLE));
            e.finish(gid).unwrap();
            store.save(&e).unwrap();
        }

        let e = engine(2);
        assert_eq!(store.restore(&e).unwrap().restored, 1);
        let drifted = Arc::new(testkit::drift_cardinalities(&spec, 1.1));
        assert!(
            !e.has_parked(e.fingerprint(&drifted)),
            "drifted stats must not be an exact hit"
        );
        let gid = e.submit(drifted);
        assert!(e.wait_idle(IDLE));
        let s = e.status(gid).unwrap();
        assert!(
            s.rebased,
            "restored frontier must serve as a rebase donor: {s:?}"
        );
        assert!(!s.frontier.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_fingerprint_on_two_shards_saves_one_file() {
        // Two concurrent sessions of one query on two shards (the second
        // diverted by a headroom of 1) park into one store entry, so the
        // sweep has exactly one frontier to write.
        let dir = temp_dir("twins");
        let store = SnapshotStore::new(&dir);
        let e = ShardedEngine::new(
            Arc::new(StandardCostModel::paper_metrics()),
            ResolutionSchedule::linear(2, 1.1, 0.4),
            ShardConfig {
                shards: 2,
                engine: EngineConfig {
                    workers: 1,
                    ..EngineConfig::default()
                },
                rebalance_headroom: 1,
            },
        );
        let spec = Arc::new(testkit::chain_query(3, 61_000));
        let a = e.submit(spec.clone());
        let b = e.submit(spec);
        assert_ne!(a.shard, b.shard);
        assert!(e.wait_idle(IDLE));
        e.finish(a).unwrap();
        e.finish(b).unwrap();
        let saved = store.save(&e).unwrap();
        assert_eq!((saved.written, saved.unchanged), (1, 0));
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Runs `spec` once on `e` and parks it.
    fn park_once(e: &ShardedEngine, spec: &Arc<moqo_query::QuerySpec>) {
        let gid = e.submit(spec.clone());
        assert!(e.wait_idle(IDLE));
        e.finish(gid).unwrap();
    }

    #[test]
    fn the_disk_tier_never_trusts_a_bad_file() {
        let dir = temp_dir("disk-tier");
        let a = Arc::new(testkit::chain_query(4, 64_000));
        let b = Arc::new(testkit::chain_query(3, 64_000));
        let fp = engine(2).fingerprint(&a);
        let file = dir.join(format!("{:016x}.{FRONTIER_EXT}", fp.as_u64()));
        let (valid, b_bytes) = {
            let e = engine(2);
            park_once(&e, &a);
            park_once(&e, &b);
            SnapshotStore::new(&dir).save(&e).unwrap();
            let fp_b = e.fingerprint(&b);
            let file_b = dir.join(format!("{:016x}.{FRONTIER_EXT}", fp_b.as_u64()));
            (fs::read(&file).unwrap(), fs::read(file_b).unwrap())
        };
        let other_model = {
            // Same metric layout, another identity.
            let model = StandardCostModel::new(
                moqo_costmodel::MetricSet::paper(),
                moqo_costmodel::StandardCostModelConfig {
                    energy_per_unit: 2.0,
                    ..Default::default()
                },
            );
            let e = ShardedEngine::new(
                Arc::new(model),
                ResolutionSchedule::linear(2, 1.1, 0.4),
                ShardConfig {
                    shards: 1,
                    ..ShardConfig::default()
                },
            );
            park_once(&e, &a);
            let other_dir = temp_dir("disk-tier-other");
            SnapshotStore::new(&other_dir).save(&e).unwrap();
            let path = fs::read_dir(&other_dir)
                .unwrap()
                .next()
                .unwrap()
                .unwrap()
                .path();
            let bytes = fs::read(path).unwrap();
            let _ = fs::remove_dir_all(&other_dir);
            bytes
        };
        let mut flipped = valid.clone();
        flipped[valid.len() / 2] ^= 0x01;
        let mut former = valid.clone();
        former[8..12].copy_from_slice(&3u32.to_le_bytes());
        let mutants = [
            ("truncated", valid[..valid.len() / 2].to_vec()),
            ("flipped payload byte", flipped),
            ("version 3", former),
            ("another model's file", other_model),
            ("query B's bytes", b_bytes),
        ];
        let mut last = None;
        for (what, bytes) in mutants {
            fs::write(&file, &bytes).unwrap();
            let store = Arc::new(SnapshotStore::new(&dir));
            let e = engine(2);
            assert!(store.attach(&e));
            let gid = e.submit(a.clone());
            assert!(e.wait_idle(IDLE));
            let s = e.status(gid).unwrap();
            assert!(!s.warm_start, "{what}: a bad file resumed warm");
            assert!(s.first_report.unwrap().plans_generated > 0, "{what}");
            assert_eq!(
                fs::read(&file).unwrap(),
                bytes,
                "{what}: file not left in place"
            );
            last = Some((store, e, gid));
        }
        // The clean case: once the cold session parks, the next save
        // rewrites the file, and a fresh engine's disk hit generates no
        // plans.
        let (store, e, gid) = last.unwrap();
        e.finish(gid).unwrap();
        assert!(store.save(&e).unwrap().written >= 1);
        let store = Arc::new(SnapshotStore::new(&dir));
        let e = engine(2);
        assert!(store.attach(&e));
        assert!(!e.has_parked(fp), "the hit must come from disk");
        let gid = e.submit(a);
        assert!(e.wait_idle(IDLE));
        let s = e.status(gid).unwrap();
        assert!(s.warm_start);
        assert_eq!(s.first_report.unwrap().plans_generated, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_save_leaves_no_temp_file() {
        let dir = temp_dir("tmp-leak");
        let spec = Arc::new(testkit::chain_query(3, 27_000));
        let e = engine(2);
        park_once(&e, &spec);
        // A directory where the snapshot file belongs fails the rename.
        let fp = e.fingerprint(&spec);
        fs::create_dir_all(dir.join(format!("{:016x}.{FRONTIER_EXT}", fp.as_u64()))).unwrap();
        assert!(SnapshotStore::new(&dir).save(&e).is_err());
        let left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(left.is_empty(), "temp files left behind: {left:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_from_a_missing_directory_is_a_clean_noop() {
        let store = SnapshotStore::new(temp_dir("missing"));
        let e = engine(2);
        let report = store.restore(&e).unwrap();
        assert_eq!(report.restored, 0);
        assert!(report.skipped.is_empty());
    }
}
