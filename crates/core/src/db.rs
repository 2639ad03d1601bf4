//! The integrated curated database.
//!
//! Ties the substrates together the way §1 describes real curated
//! databases working: curators edit a working database through
//! transactions (with provenance recorded automatically), annotations
//! are superimposed on the core data (DAS-style, §2), and the database
//! is periodically **published** — each publication merged into the
//! fat-node archive so that any version can be retrieved, cited, and
//! queried longitudinally (§5).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use cdb_archive::{Archive, ArchiveError, Citation, VersionId};
use cdb_curation::ops::{Clipboard, CuratedTree};
use cdb_curation::provstore::StoreMode;
use cdb_curation::tree::TreeError;
use cdb_curation::{queries, NodeId};
use cdb_model::keys::KeyStep;
use cdb_model::{Atom, KeyPath, KeySpec, Value};

use crate::lifecycle::{EntryRegistry, LifecycleError};

/// Errors from the integrated engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// A tree-level error.
    Tree(TreeError),
    /// An archive-level error.
    Archive(ArchiveError),
    /// A lifecycle error.
    Lifecycle(LifecycleError),
    /// No entry with the given key.
    NoSuchEntry(String),
    /// No such field on the entry.
    NoSuchField(String, String),
    /// An entry with this key already exists.
    DuplicateEntry(String),
    /// A durability-layer failure (WAL, checkpoint, or recovery).
    Storage(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Tree(e) => write!(f, "{e}"),
            DbError::Archive(e) => write!(f, "{e}"),
            DbError::Lifecycle(e) => write!(f, "{e}"),
            DbError::NoSuchEntry(k) => write!(f, "no entry with key {k:?}"),
            DbError::NoSuchField(k, fld) => write!(f, "entry {k:?} has no field {fld:?}"),
            DbError::DuplicateEntry(k) => write!(f, "entry {k:?} already exists"),
            DbError::Storage(m) => write!(f, "storage: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<TreeError> for DbError {
    fn from(e: TreeError) -> Self {
        DbError::Tree(e)
    }
}

impl From<ArchiveError> for DbError {
    fn from(e: ArchiveError) -> Self {
        DbError::Archive(e)
    }
}

impl From<LifecycleError> for DbError {
    fn from(e: LifecycleError) -> Self {
        DbError::Lifecycle(e)
    }
}

impl From<cdb_storage::StorageError> for DbError {
    fn from(e: cdb_storage::StorageError) -> Self {
        DbError::Storage(e.to_string())
    }
}

/// A superimposed annotation: external to the core data (the DAS model
/// of §2), attributed and timestamped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Note {
    /// Who made the annotation.
    pub author: String,
    /// The annotation text.
    pub text: String,
    /// Logical time.
    pub time: u64,
}

/// The integrated curated database.
#[derive(Debug)]
pub struct CuratedDatabase {
    /// The working tree with its provenance store and transaction log.
    pub curated: CuratedTree,
    /// The identifier lifecycle registry.
    pub lifecycle: EntryRegistry,
    pub(crate) key_field: String,
    pub(crate) archive: Archive,
    pub(crate) notes: BTreeMap<(String, Option<String>), Vec<Note>>,
    /// For each published version: the last committed transaction at
    /// publish time (None = published before any transaction) and the
    /// logical time of that transaction — enough to rebuild the archive
    /// from the log alone (see [`CuratedDatabase::archive_from_log`]).
    pub(crate) publish_points: Vec<(Option<cdb_curation::TxnId>, u64, String)>,
    /// The write-ahead log, when this instance is durable (see
    /// [`CuratedDatabase::open`]); `None` = in-memory only. Either
    /// owned outright or a shared group-commit handle (see
    /// [`crate::shared::SharedDb`]).
    pub(crate) wal: Option<crate::durable::WalRef>,
    /// The crash-atomic checkpoint store, when durable.
    pub(crate) ckpt: Option<cdb_storage::CheckpointStore>,
    /// What happens to fully-checkpointed WAL segments (see
    /// [`cdb_storage::Retention`]): archived (default, paper semantics)
    /// or deleted to reclaim disk.
    pub(crate) retention: cdb_storage::Retention,
    /// Logical clock floor carried over from a checkpoint whose covered
    /// log was truncated: [`CuratedDatabase::publish`] falls back to it
    /// when the in-memory log is empty, keeping publish times monotone.
    pub(crate) last_time: u64,
    /// When to force appended frames to disk.
    pub(crate) durability: crate::durable::Durability,
    /// Curation transactions already encoded into WAL frames (a prefix
    /// length of `curated.log`). Persistence is driven by this
    /// position, not by "the last transaction", so a commit whose
    /// persist step failed or was skipped is picked up by the next one
    /// instead of being skipped in the WAL forever.
    pub(crate) persisted_txns: usize,
    /// Lifecycle events already encoded into WAL frames.
    pub(crate) persisted_events: usize,
    /// Frames encoded but not yet appended to the WAL (a previous
    /// append failed); drained, in order, before anything new is
    /// appended. A deque: draining pops the front, so a long backlog
    /// (a device down for thousands of commits) drains in one pass
    /// instead of the O(n²) `remove(0)` shuffle a `Vec` would cost.
    pub(crate) pending_frames: VecDeque<(u8, Vec<u8>)>,
    /// What the last recovery saw, when this instance was opened from
    /// a WAL.
    pub(crate) recovery: Option<cdb_storage::RecoveryStats>,
    /// The per-database metric registry (`Arc`-backed; snapshots made
    /// by [`CuratedDatabase::clone_state`] share it, so counters keep
    /// aggregating in one place while reads are served from copies).
    pub(crate) metrics: cdb_obs::Metrics,
    /// 2PC decision records this shard knows (gid → commit): populated
    /// by cross-shard commits and by recovery, re-encoded into every
    /// checkpoint so decisions outlive WAL truncation.
    pub(crate) decisions: BTreeMap<u64, bool>,
    /// When set, [`CuratedDatabase::persist_commit`] queues nothing:
    /// the sharded 2PC path runs curation ops under this flag and then
    /// seals the frames from
    /// [`CuratedDatabase::encode_unpersisted`] inside a PREPARE frame
    /// instead. Never set outside a held cross-shard commit.
    pub(crate) defer_persist: bool,
    /// The paged backing store, when this instance checkpoints
    /// page-granularly (see [`CuratedDatabase::open_paged`]): the page
    /// heap behind a buffer pool, plus dirty-object tracking so a
    /// checkpoint captures only what changed since the last anchor.
    /// `None` = classic full-state checkpoints.
    pub(crate) paged: Option<crate::paged::PagedBacking>,
    /// Registered secondary indexes over entry fields. Registrations
    /// are WAL-durable (tag [`crate::durable::AUX_INDEX`]) and carried
    /// by checkpoints; postings are derived state, reconciled on every
    /// commit and rebuilt from the tree on recovery.
    pub(crate) indexes: crate::indexes::FieldIndexes,
    /// Entry key → entry node. Derived state like the postings: never
    /// serialized, rebuilt from the tree on open, and reconciled by the
    /// same per-commit hook ([`CuratedDatabase::reconcile_touched`]).
    pub(crate) keys: crate::indexes::KeyMap,
}

/// A deep copy of every field a curation operation can mutate, taken
/// before a cross-shard transaction touches a shard so an abort (a
/// failed PREPARE sync, a validation error on another shard) can
/// restore the state exactly. The persistence cursors ride along:
/// rollback after `encode_unpersisted` must also un-advance them.
#[derive(Debug)]
pub(crate) struct TxnBackup {
    curated: CuratedTree,
    lifecycle: EntryRegistry,
    notes: BTreeMap<(String, Option<String>), Vec<Note>>,
    archive: Archive,
    publish_points: Vec<(Option<cdb_curation::TxnId>, u64, String)>,
    last_time: u64,
    persisted_txns: usize,
    persisted_events: usize,
    indexes: crate::indexes::FieldIndexes,
    keys: crate::indexes::KeyMap,
}

impl CuratedDatabase {
    /// Creates an empty database whose entries are keyed by `key_field`
    /// (e.g. `"ac"` for a UniProt-like database, `"name"` for a
    /// Factbook-like one).
    pub fn new(name: impl Into<String>, key_field: impl Into<String>) -> Self {
        let name = name.into();
        let key_field = key_field.into();
        let spec = KeySpec::new().rule(Vec::<String>::new(), [key_field.clone()]);
        CuratedDatabase {
            curated: CuratedTree::new(name.clone(), StoreMode::Hereditary),
            lifecycle: EntryRegistry::new(),
            key_field,
            archive: Archive::new(name, spec),
            notes: BTreeMap::new(),
            publish_points: Vec::new(),
            wal: None,
            ckpt: None,
            retention: cdb_storage::Retention::default(),
            last_time: 0,
            durability: crate::durable::Durability::Always,
            persisted_txns: 0,
            persisted_events: 0,
            pending_frames: VecDeque::new(),
            recovery: None,
            metrics: cdb_obs::Metrics::new(),
            decisions: BTreeMap::new(),
            defer_persist: false,
            paged: None,
            indexes: crate::indexes::FieldIndexes::default(),
            keys: crate::indexes::KeyMap::default(),
        }
    }

    /// Photographs the mutable curation state for 2PC rollback.
    pub(crate) fn backup_for_txn(&self) -> TxnBackup {
        TxnBackup {
            curated: self.curated.clone(),
            lifecycle: self.lifecycle.clone(),
            notes: self.notes.clone(),
            archive: self.archive.clone(),
            publish_points: self.publish_points.clone(),
            last_time: self.last_time,
            persisted_txns: self.persisted_txns,
            persisted_events: self.persisted_events,
            indexes: self.indexes.clone(),
            keys: self.keys.clone(),
        }
    }

    /// Restores the state photographed by
    /// [`CuratedDatabase::backup_for_txn`] — the abort path of a
    /// cross-shard transaction. WAL plumbing (pending frames, decision
    /// records) is deliberately untouched: an aborted 2PC txn never
    /// queued ordinary frames (they were deferred), and its decision
    /// record must survive the rollback.
    pub(crate) fn restore_from_backup(&mut self, backup: TxnBackup) {
        self.curated = backup.curated;
        self.lifecycle = backup.lifecycle;
        self.notes = backup.notes;
        self.archive = backup.archive;
        self.publish_points = backup.publish_points;
        self.last_time = backup.last_time;
        self.persisted_txns = backup.persisted_txns;
        self.persisted_events = backup.persisted_events;
        self.indexes = backup.indexes;
        self.keys = backup.keys;
    }

    /// The segment-retention policy applied when a checkpoint retires
    /// fully-covered WAL history.
    pub fn retention(&self) -> cdb_storage::Retention {
        self.retention
    }

    /// Sets the segment-retention policy for future checkpoints.
    /// [`cdb_storage::Retention::KeepAll`] (the default) archives
    /// retired segments, preserving the paper's full-history semantics;
    /// [`cdb_storage::Retention::Reclaim`] deletes them, trading
    /// history reconstruction from the raw log for bounded disk (the
    /// checkpoint then carries the archive snapshots instead).
    pub fn set_retention(&mut self, retention: cdb_storage::Retention) {
        self.retention = retention;
    }

    /// The per-database metric registry. Storage handles created for
    /// this database (the group-commit WAL, recovery) record here.
    pub fn metrics(&self) -> &cdb_obs::Metrics {
        &self.metrics
    }

    /// A point-in-time view of every metric this database can see: its
    /// own registry merged with the process-global one (relational
    /// engine timings, storage error counters). Counters add, gauges
    /// take the maximum, histograms fold bucket-wise.
    pub fn metrics_snapshot(&self) -> cdb_obs::MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.merge(&cdb_obs::global().snapshot());
        snap
    }

    /// The database name.
    pub fn name(&self) -> &str {
        self.curated.tree.name()
    }

    /// The entry key field.
    pub fn key_field(&self) -> &str {
        &self.key_field
    }

    /// The archive of published versions.
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// The node of the entry with the given key: a probe of the key
    /// map. When an edited key field left two entries sharing a key,
    /// the first in child order answers.
    pub fn entry_node(&self, key: &str) -> Result<NodeId, DbError> {
        self.keys
            .get(key)
            .ok_or_else(|| DbError::NoSuchEntry(key.to_owned()))
    }

    /// The key map behind [`CuratedDatabase::entry_node`].
    pub fn key_map(&self) -> &crate::indexes::KeyMap {
        &self.keys
    }

    /// The keyed entries as `(node, key)`, in child order — a walk of
    /// the root's children, the ground truth the key map derives from.
    pub(crate) fn keyed_children(&self) -> impl Iterator<Item = (NodeId, &str)> {
        let tree = &self.curated.tree;
        let children = tree.children(tree.root()).unwrap_or_default();
        children
            .iter()
            .filter_map(|&c| entry_key(tree, &self.key_field, c).map(|k| (c, k)))
    }

    /// The keys of all current entries, in child order.
    pub fn entry_keys(&self) -> Result<Vec<String>, DbError> {
        Ok(self.keyed_children().map(|(_, k)| k.to_owned()).collect())
    }

    /// Adds a freshly-authored entry.
    pub fn add_entry(
        &mut self,
        curator: &str,
        time: u64,
        key: &str,
        fields: &[(&str, Atom)],
    ) -> Result<NodeId, DbError> {
        if self.entry_node(key).is_ok() {
            return Err(DbError::DuplicateEntry(key.to_owned()));
        }
        // Lifecycle preconditions are checked *before* the transaction
        // commits: the registry remembers retired ids forever, so a key
        // absent from the live tree can still be rejected — and a txn
        // committed to the in-memory log but never WAL-persisted would
        // corrupt recovery.
        self.lifecycle.check_create(key)?;
        let root = self.curated.tree.root();
        let mut t = self.curated.begin(curator, time);
        let entry = t.insert(root, "entry", None)?;
        t.insert(
            entry,
            self.key_field.clone(),
            Some(Atom::Str(key.to_owned())),
        )?;
        for (label, value) in fields {
            t.insert(entry, (*label).to_owned(), Some(value.clone()))?;
        }
        t.commit();
        self.lifecycle.create(key, time)?;
        self.reconcile_touched(&[entry]);
        self.persist_commit()?;
        Ok(entry)
    }

    /// Imports an entry copied from another curated database (the §3
    /// copy-paste loop), registering it under `key`. The pasted
    /// subtree's provenance chain is preserved by the curation layer.
    pub fn import_entry(
        &mut self,
        curator: &str,
        time: u64,
        key: &str,
        clip: &Clipboard,
    ) -> Result<NodeId, DbError> {
        if self.entry_node(key).is_ok() {
            return Err(DbError::DuplicateEntry(key.to_owned()));
        }
        self.lifecycle.check_create(key)?;
        let root = self.curated.tree.root();
        let mut t = self.curated.begin(curator, time);
        let entry = t.paste(root, clip)?;
        // Ensure the key field is present and equal to `key`.
        match t.tree().child_by_label(entry, &self.key_field)? {
            Some(kf) => {
                if t.tree().value(kf)? != Some(&Atom::Str(key.to_owned())) {
                    t.modify(kf, Some(Atom::Str(key.to_owned())))?;
                }
            }
            None => {
                t.insert(
                    entry,
                    self.key_field.clone(),
                    Some(Atom::Str(key.to_owned())),
                )?;
            }
        }
        t.commit();
        self.lifecycle.create(key, time)?;
        self.reconcile_touched(&[entry]);
        self.persist_commit()?;
        Ok(entry)
    }

    fn field_node(&self, key: &str, field: &str) -> Result<NodeId, DbError> {
        let entry = self.entry_node(key)?;
        self.curated
            .tree
            .child_by_label(entry, field)?
            .ok_or_else(|| DbError::NoSuchField(key.to_owned(), field.to_owned()))
    }

    /// Edits (or adds) a field of an entry.
    pub fn edit_field(
        &mut self,
        curator: &str,
        time: u64,
        key: &str,
        field: &str,
        value: Atom,
    ) -> Result<(), DbError> {
        let entry = self.entry_node(key)?;
        let existing = self.curated.tree.child_by_label(entry, field)?;
        let mut t = self.curated.begin(curator, time);
        match existing {
            Some(node) => t.modify(node, Some(value))?,
            None => {
                t.insert(entry, field.to_owned(), Some(value))?;
            }
        }
        t.commit();
        self.reconcile_touched(&[entry]);
        self.persist_commit()?;
        Ok(())
    }

    /// Reads a field of an entry.
    pub fn field(&self, key: &str, field: &str) -> Result<Atom, DbError> {
        let node = self.field_node(key, field)?;
        Ok(self
            .curated
            .tree
            .value(node)?
            .cloned()
            .unwrap_or(Atom::Unit))
    }

    /// Deletes an entry outright.
    pub fn delete_entry(&mut self, curator: &str, time: u64, key: &str) -> Result<(), DbError> {
        let entry = self.entry_node(key)?;
        self.lifecycle.check_delete(key)?;
        let mut t = self.curated.begin(curator, time);
        t.delete(entry)?;
        t.commit();
        self.lifecycle.delete(key, time)?;
        self.reconcile_touched(&[entry]);
        self.persist_commit()?;
        Ok(())
    }

    /// Fusion (§6.2): `absorbed` is discovered to be the same object as
    /// `kept`; its fields that `kept` lacks are carried over, its node
    /// deleted, and its identifier retired (resolvable forever through
    /// the lifecycle registry).
    pub fn merge_entries(
        &mut self,
        curator: &str,
        time: u64,
        kept: &str,
        absorbed: &str,
    ) -> Result<(), DbError> {
        let kept_node = self.entry_node(kept)?;
        let absorbed_node = self.entry_node(absorbed)?;
        self.lifecycle.check_merge(kept, absorbed)?;
        // Carry over missing fields before deleting.
        let mut carry: Vec<(String, Option<Atom>)> = Vec::new();
        for &c in self.curated.tree.children(absorbed_node)? {
            let label = self.curated.tree.label(c)?.to_owned();
            if label != self.key_field
                && self
                    .curated
                    .tree
                    .child_by_label(kept_node, &label)?
                    .is_none()
            {
                carry.push((label, self.curated.tree.value(c)?.cloned()));
            }
        }
        let mut t = self.curated.begin(curator, time);
        for (label, value) in carry {
            t.insert(kept_node, label, value)?;
        }
        t.delete(absorbed_node)?;
        t.commit();
        self.lifecycle.merge(kept, absorbed, time)?;
        self.reconcile_touched(&[kept_node, absorbed_node]);
        self.persist_commit()?;
        Ok(())
    }

    /// Fission (§6.2): `original` splits into `parts`, each given its
    /// own fields. The original's identifier is retired.
    pub fn split_entry(
        &mut self,
        curator: &str,
        time: u64,
        original: &str,
        parts: &[(&str, Vec<(&str, Atom)>)],
    ) -> Result<(), DbError> {
        let original_node = self.entry_node(original)?;
        let part_keys: Vec<String> = parts.iter().map(|(k, _)| (*k).to_string()).collect();
        self.lifecycle.check_split(original, &part_keys)?;
        let root = self.curated.tree.root();
        let mut touched = vec![original_node];
        let mut t = self.curated.begin(curator, time);
        for (key, fields) in parts {
            let entry = t.insert(root, "entry", None)?;
            touched.push(entry);
            t.insert(
                entry,
                self.key_field.clone(),
                Some(Atom::Str((*key).to_owned())),
            )?;
            for (label, value) in fields {
                t.insert(entry, (*label).to_owned(), Some(value.clone()))?;
            }
        }
        t.delete(original_node)?;
        t.commit();
        self.lifecycle.split(original, &part_keys, time)?;
        self.reconcile_touched(&touched);
        self.persist_commit()?;
        Ok(())
    }

    /// Resolves any identifier — active or retired — to the current
    /// entries holding its data (following merges and splits).
    pub fn resolve_id(&self, id: &str) -> Result<Vec<String>, DbError> {
        let (current, _) = self.lifecycle.what_happened_to(id)?;
        Ok(current)
    }

    // ------------------------------------------------------- indexes

    /// Registers a durable secondary index over an entry field and
    /// builds its postings from the current entries. The registration
    /// is WAL-logged and checkpoint-carried; recovery re-registers it
    /// and rebuilds the postings from the recovered tree. Returns
    /// `false` (and does nothing) when the field is already indexed.
    ///
    /// Entries missing the field index as [`Atom::Unit`] — the same
    /// convention [`crate::views::entry_relation`] uses — so the index
    /// answers exactly the questions the relational view would.
    pub fn create_index(&mut self, field: &str) -> Result<bool, DbError> {
        if !self.indexes.register(field) {
            return Ok(false);
        }
        self.rebuild_index(field)?;
        self.persist_index(field, true)?;
        Ok(true)
    }

    /// Drops a secondary index. Returns `false` when none existed. The
    /// drop is WAL-logged like the creation, so recovery converges on
    /// the surviving registrations.
    pub fn drop_index(&mut self, field: &str) -> Result<bool, DbError> {
        if !self.indexes.unregister(field) {
            return Ok(false);
        }
        self.persist_index(field, false)?;
        Ok(true)
    }

    /// The fields currently indexed, in order.
    pub fn index_fields(&self) -> Vec<String> {
        self.indexes.fields()
    }

    /// The index over `field`, if one is registered.
    pub fn field_index(&self, field: &str) -> Option<&crate::indexes::FieldIndex> {
        self.indexes.get(field)
    }

    /// Keys of the entries whose `field` equals `value`, through the
    /// index; `None` when the field is not indexed (callers fall back
    /// to a scan).
    pub fn index_lookup(&self, field: &str, value: &Atom) -> Option<Vec<String>> {
        self.indexes.get(field).map(|i| i.lookup(value))
    }

    /// The value an entry indexes under for `field`: the key itself for
    /// the key field, `Unit` when the field is absent.
    fn index_value(&self, key: &str, field: &str) -> Atom {
        if field == self.key_field {
            Atom::Str(key.to_owned())
        } else {
            self.field(key, field).unwrap_or(Atom::Unit)
        }
    }

    /// Rebuilds one registered index's postings from the tree.
    pub(crate) fn rebuild_index(&mut self, field: &str) -> Result<(), DbError> {
        let rows: Vec<(String, Atom)> = self
            .entry_keys()?
            .into_iter()
            .map(|k| {
                let v = self.index_value(&k, field);
                (k, v)
            })
            .collect();
        if let Some(idx) = self.indexes.get_mut(field) {
            for (key, value) in rows {
                idx.set(&key, value);
            }
        }
        Ok(())
    }

    /// Rebuilds the key map from the tree (on open).
    pub(crate) fn rebuild_key_map(&mut self) {
        let mut keys = crate::indexes::KeyMap::default();
        for (node, key) in self.keyed_children() {
            keys.refile(node, Some(key));
        }
        self.keys = keys;
    }

    /// The per-commit hook that keeps derived state in step with the
    /// tree. `entries` are the entry nodes a committed curation
    /// operation created, edited or removed. The key map re-files each
    /// under its current key (or drops it); every registered index then
    /// re-points each affected key — old and new — at its current field
    /// values, or unlinks it when no entry holds it any more. Runs
    /// inside the commit path, before persistence; 2PC rollback
    /// restores both via [`CuratedDatabase::backup_for_txn`] along with
    /// the tree.
    pub(crate) fn reconcile_touched(&mut self, entries: &[NodeId]) {
        let _span = cdb_obs::SpanGuard::enter("core.index.reindex");
        let mut affected: BTreeSet<String> = BTreeSet::new();
        for &node in entries {
            let now = entry_key(&self.curated.tree, &self.key_field, node);
            affected.extend(now.map(str::to_owned));
            affected.extend(self.keys.refile(node, now).map(|k| k.to_string()));
        }
        if self.indexes.is_empty() {
            return;
        }
        let fields = self.indexes.fields();
        for key in &affected {
            if self.keys.get(key).is_some() {
                for field in &fields {
                    let value = self.index_value(key, field);
                    if let Some(idx) = self.indexes.get_mut(field) {
                        idx.set(key, value);
                    }
                }
            } else {
                self.indexes.remove_key(key);
            }
        }
    }

    /// Planner statistics for the entries relation over the given
    /// fields, derived without scanning: the row count is the key
    /// map's size, per-field distinct counts come from the registered
    /// indexes (unindexed fields keep the planner's default
    /// heuristics). The relation is named `entries`, matching
    /// [`crate::views::query_entries_planned`].
    pub fn planner_stats(&self, fields: &[&str]) -> cdb_relalg::DbStats {
        let rows = self.keys.len() as u64;
        let mut cols = std::collections::BTreeMap::new();
        cols.insert(
            self.key_field.clone(),
            cdb_relalg::ColStats::distinct_only(rows),
        );
        for f in fields {
            if let Some(idx) = self.indexes.get(f) {
                cols.insert(
                    (*f).to_owned(),
                    cdb_relalg::ColStats::distinct_only(idx.distinct()),
                );
            }
        }
        let mut stats = cdb_relalg::DbStats::none();
        stats
            .rels
            .insert("entries".to_owned(), cdb_relalg::RelStats { rows, cols });
        stats
    }

    /// The registered indexes as a relational [`cdb_relalg::IndexSet`]
    /// over the entries relation of `[key_field, fields…]` — postings
    /// converted from entry keys to row offsets. Rows are one per key
    /// in child order, as [`crate::views::entry_relation`] emits them;
    /// child order is node-id order, so the offsets come from the key
    /// map without walking the tree. Indexed fields not in the view are
    /// skipped.
    pub fn relalg_index_set(&self, fields: &[&str]) -> Result<cdb_relalg::IndexSet, DbError> {
        let mut rows: Vec<NodeId> = self.keys.iter().map(|(_, n)| n).collect();
        rows.sort_unstable();
        Ok(self.index_set_over(fields, &rows))
    }

    /// [`CuratedDatabase::relalg_index_set`] over known rows: `rows[i]`
    /// is the entry node of row `i`, in ascending (child) order.
    pub(crate) fn index_set_over(&self, fields: &[&str], rows: &[NodeId]) -> cdb_relalg::IndexSet {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows in child order");
        let mut set = cdb_relalg::IndexSet::new();
        for (col_idx, idx) in self.view_indexes(fields) {
            let postings = idx.postings().map(|(value, keys)| {
                let mut offsets: Vec<usize> = keys
                    .iter()
                    .filter_map(|k| rows.binary_search(&self.keys.get(k)?).ok())
                    .collect();
                offsets.sort_unstable();
                (value.clone(), offsets)
            });
            set.add(cdb_relalg::ColumnIndex::from_postings(
                "entries",
                idx.field(),
                col_idx,
                postings,
            ));
        }
        set
    }

    /// The registered indexes over columns of the entries relation
    /// `[key_field, fields…]`, each with its column position.
    pub(crate) fn view_indexes<'a>(
        &'a self,
        fields: &'a [&str],
    ) -> impl Iterator<Item = (usize, &'a crate::indexes::FieldIndex)> {
        self.indexes.iter().filter_map(move |idx| {
            let col = if idx.field() == self.key_field {
                Some(0)
            } else {
                fields.iter().position(|f| *f == idx.field()).map(|p| p + 1)
            };
            col.map(|c| (c, idx))
        })
    }

    // ---------------------------------------------------- annotations

    /// Attaches a superimposed annotation to an entry (`field = None`)
    /// or to one of its fields.
    pub fn annotate(
        &mut self,
        key: &str,
        field: Option<&str>,
        author: &str,
        text: &str,
        time: u64,
    ) -> Result<(), DbError> {
        match field {
            Some(f) => {
                self.field_node(key, f)?;
            }
            None => {
                self.entry_node(key)?;
            }
        }
        self.notes
            .entry((key.to_owned(), field.map(str::to_owned)))
            .or_default()
            .push(Note {
                author: author.to_owned(),
                text: text.to_owned(),
                time,
            });
        self.persist_note(key, field)?;
        Ok(())
    }

    /// The annotations on an entry or field.
    pub fn notes_on(&self, key: &str, field: Option<&str>) -> &[Note] {
        self.notes
            .get(&(key.to_owned(), field.map(str::to_owned)))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    // ----------------------------------------------------- publishing

    /// Exports the current working state as a keyed value: a set of
    /// entry records, each carrying its secondary (retired) identifiers
    /// from the lifecycle registry — UniProt's convention.
    pub fn export(&self) -> Result<Value, DbError> {
        export_tree(
            &self.curated.tree,
            &self.key_field,
            &self.lifecycle,
            u64::MAX,
        )
    }

    /// Publishes the current state as a new archived version — "a common
    /// practice is to maintain a working database … and periodically to
    /// 'publish' versions of the database" (§1).
    pub fn publish(&mut self, label: impl Into<String>) -> Result<VersionId, DbError> {
        let label = label.into();
        let snapshot = self.export()?;
        let v = self.archive.add_version(&snapshot, label.clone())?;
        let txn = self.curated.last_txn_id();
        // `last_time` floors the clock when the log was truncated by a
        // reclaiming checkpoint: the covered transactions are gone, but
        // publish times must stay monotone across the cut.
        let time = self
            .curated
            .log
            .last()
            .map(|t| t.time)
            .unwrap_or(0)
            .max(self.last_time);
        self.publish_points.push((txn, time, label));
        self.persist_publish()?;
        Ok(v)
    }

    /// Rebuilds the entire archive **from the transaction log alone** —
    /// the paper's §5.1 open question ("whether one could create an
    /// archive directly from the transaction log"), answered: each
    /// publish point's state is reconstructed by [`cdb_curation::replay`]
    /// and merged into a fresh archive. The result retrieves the same
    /// versions as the incrementally-built archive (asserted in tests).
    pub fn archive_from_log(&self) -> Result<Archive, DbError> {
        let spec = KeySpec::new().rule(Vec::<String>::new(), [self.key_field.clone()]);
        let mut rebuilt = Archive::new(self.name(), spec);
        for (txn, time, label) in &self.publish_points {
            let tree = match txn {
                Some(t) => cdb_curation::replay::replay(self.name(), &self.curated.log, Some(*t))
                    .map_err(|e| DbError::NoSuchEntry(format!("replay failed: {e}")))?,
                None => cdb_curation::tree::TreeDb::new(self.name()),
            };
            let snapshot = export_tree(&tree, &self.key_field, &self.lifecycle, *time)?;
            rebuilt.add_version(&snapshot, label.clone())?;
        }
        Ok(rebuilt)
    }

    /// Retrieves a published version.
    pub fn version(&self, v: VersionId) -> Result<Value, DbError> {
        Ok(self.archive.retrieve(v)?)
    }

    /// The key path of an entry in the archive.
    pub fn entry_key_path(&self, key: &str) -> KeyPath {
        KeyPath::root().child(KeyStep::Entry(vec![Atom::Str(key.to_owned())]))
    }

    /// Cites an entry as of a published version, crediting the curators
    /// who touched it (§5.2: "It is appropriate to cite the authorship
    /// of an entry").
    pub fn cite(&self, version: VersionId, key: &str) -> Result<Citation, DbError> {
        let authors = match self.entry_node(key) {
            Ok(node) => queries::curators_of(&self.curated, node)?,
            Err(_) => Vec::new(), // entry may exist only in old versions
        };
        Ok(Citation::cite(
            &self.archive,
            version,
            &self.entry_key_path(key),
            authors,
        )?)
    }

    /// The history of an entry field's value across published versions.
    pub fn field_series(&self, key: &str, field: &str) -> Result<Vec<(VersionId, Atom)>, DbError> {
        let path = self
            .entry_key_path(key)
            .child(KeyStep::Field(field.to_owned()));
        Ok(cdb_archive::temporal::series(&self.archive, &path)?)
    }

    /// A deep, in-memory copy of the full curated state — tree,
    /// provenance, log, lifecycle, archive, notes, publish points —
    /// with no durability attached. This is what a
    /// [`crate::shared::Snapshot`] wraps: every read method works on
    /// the copy, and nothing the live database does afterwards can
    /// reach it.
    pub(crate) fn clone_state(&self) -> CuratedDatabase {
        CuratedDatabase {
            curated: self.curated.clone(),
            lifecycle: self.lifecycle.clone(),
            key_field: self.key_field.clone(),
            archive: self.archive.clone(),
            notes: self.notes.clone(),
            publish_points: self.publish_points.clone(),
            wal: None,
            ckpt: None,
            retention: self.retention,
            last_time: self.last_time,
            durability: crate::durable::Durability::Always,
            persisted_txns: 0,
            persisted_events: 0,
            pending_frames: VecDeque::new(),
            recovery: None,
            metrics: self.metrics.clone(),
            decisions: self.decisions.clone(),
            defer_persist: false,
            paged: None,
            indexes: self.indexes.clone(),
            keys: self.keys.clone(),
        }
    }
}

/// The key of a keyed entry: `node` is a live child of the root whose
/// first key-field child holds a string.
fn entry_key<'t>(
    tree: &'t cdb_curation::tree::TreeDb,
    key_field: &str,
    node: NodeId,
) -> Option<&'t str> {
    if tree.parent(node).ok()? != Some(tree.root()) {
        return None;
    }
    match tree
        .value(tree.child_by_label(node, key_field).ok()??)
        .ok()?
    {
        Some(Atom::Str(k)) => Some(k),
        _ => None,
    }
}

/// Exports a (possibly replayed) tree as a keyed set of entry records,
/// injecting the secondary identifiers known as of `time`.
pub(crate) fn export_tree(
    tree: &cdb_curation::tree::TreeDb,
    key_field: &str,
    lifecycle: &EntryRegistry,
    time: u64,
) -> Result<Value, DbError> {
    let root = tree.root();
    let mut entries = Vec::new();
    for &child in tree.children(root)? {
        let mut v = tree.subtree_value(child)?;
        if let Value::Record(m) = &mut v {
            if let Some(Value::Atom(Atom::Str(key))) = m.get(key_field).cloned() {
                let secondary = lifecycle.secondary_ids_at(&key, time);
                if !secondary.is_empty() {
                    m.insert(
                        "secondary_ids".to_owned(),
                        Value::set(secondary.into_iter().map(Value::str)),
                    );
                }
            }
        }
        entries.push(v);
    }
    Ok(Value::set(entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CuratedDatabase {
        let mut db = CuratedDatabase::new("iuphar", "name");
        db.add_entry(
            "alice",
            1,
            "GABA-A",
            &[("kind", Atom::Str("receptor".into())), ("tm", Atom::Int(4))],
        )
        .unwrap();
        db.add_entry("bob", 2, "5-HT3", &[("kind", Atom::Str("receptor".into()))])
            .unwrap();
        db
    }

    #[test]
    fn add_edit_read_entries() {
        let mut db = sample();
        assert_eq!(db.entry_keys().unwrap().len(), 2);
        assert_eq!(
            db.field("GABA-A", "kind").unwrap(),
            Atom::Str("receptor".into())
        );
        db.edit_field(
            "carol",
            3,
            "GABA-A",
            "kind",
            Atom::Str("ion channel".into()),
        )
        .unwrap();
        assert_eq!(
            db.field("GABA-A", "kind").unwrap(),
            Atom::Str("ion channel".into())
        );
        assert!(matches!(
            db.field("GABA-A", "nope"),
            Err(DbError::NoSuchField(_, _))
        ));
        assert!(matches!(
            db.add_entry("x", 4, "GABA-A", &[]),
            Err(DbError::DuplicateEntry(_))
        ));
    }

    #[test]
    fn publish_and_time_travel() {
        let mut db = sample();
        let v0 = db.publish("2008-01").unwrap();
        db.edit_field("carol", 3, "GABA-A", "tm", Atom::Int(5))
            .unwrap();
        let v1 = db.publish("2008-02").unwrap();
        let series = db.field_series("GABA-A", "tm").unwrap();
        assert_eq!(series, vec![(v0, Atom::Int(4)), (v1, Atom::Int(5))]);
        // Old version still shows the old value.
        let old = db.version(v0).unwrap();
        let entry = old
            .as_set()
            .unwrap()
            .iter()
            .find(|e| e.field("name") == Some(&Value::str("GABA-A")))
            .unwrap()
            .clone();
        assert_eq!(entry.field("tm"), Some(&Value::int(4)));
    }

    #[test]
    fn citations_credit_curators_and_pin_versions() {
        let mut db = sample();
        let v0 = db.publish("r1").unwrap();
        db.edit_field(
            "carol",
            5,
            "GABA-A",
            "kind",
            Atom::Str("ion channel".into()),
        )
        .unwrap();
        db.publish("r2").unwrap();
        let c = db.cite(v0, "GABA-A").unwrap();
        assert!(c.authors.contains(&"alice".to_string()));
        assert!(c.authors.contains(&"carol".to_string()));
        let resolved = c.resolve(db.archive()).unwrap();
        assert_eq!(resolved.field("kind"), Some(&Value::str("receptor")));
    }

    #[test]
    fn fusion_retires_and_resolves_identifiers() {
        let mut db = sample();
        db.add_entry("alice", 3, "GABA-B", &[("tm", Atom::Int(7))])
            .unwrap();
        db.merge_entries("alice", 4, "GABA-A", "GABA-B").unwrap();
        assert!(matches!(
            db.entry_node("GABA-B"),
            Err(DbError::NoSuchEntry(_))
        ));
        // The retired id resolves to the survivor.
        assert_eq!(db.resolve_id("GABA-B").unwrap(), vec!["GABA-A".to_string()]);
        // Export carries the secondary id.
        let snap = db.export().unwrap();
        let entry = snap
            .as_set()
            .unwrap()
            .iter()
            .find(|e| e.field("name") == Some(&Value::str("GABA-A")))
            .unwrap()
            .clone();
        let secs = entry.field("secondary_ids").unwrap().as_set().unwrap();
        assert!(secs.contains(&Value::str("GABA-B")));
        // Fields missing on the survivor were carried over... GABA-A had
        // no "tm"? It did (4) — so tm is NOT carried. Kind was shared.
        assert_eq!(db.field("GABA-A", "tm").unwrap(), Atom::Int(4));
    }

    /// Retired identifiers stay in the registry forever (§6.2), so
    /// reusing one must be rejected *before* a curation transaction
    /// commits — a committed txn behind a failed lifecycle update is
    /// exactly the state that used to corrupt WAL recovery.
    #[test]
    fn retired_identifiers_cannot_be_reused() {
        let mut db = sample();
        db.delete_entry("alice", 3, "5-HT3").unwrap();
        let log_len = db.curated.log.len();
        assert!(matches!(
            db.add_entry("x", 4, "5-HT3", &[]),
            Err(DbError::Lifecycle(LifecycleError::Duplicate(_)))
        ));
        assert_eq!(db.curated.log.len(), log_len, "no phantom transaction");
        assert!(db.entry_node("5-HT3").is_err(), "no phantom entry");
        // A split onto a retired part name is rejected the same way,
        // leaving the original untouched.
        assert!(matches!(
            db.split_entry("y", 5, "GABA-A", &[("5-HT3", vec![])]),
            Err(DbError::Lifecycle(LifecycleError::Duplicate(_)))
        ));
        assert_eq!(db.curated.log.len(), log_len);
        assert!(db.entry_node("GABA-A").is_ok());
        // The database keeps working after the rejections.
        db.add_entry("x", 6, "5-HT4", &[]).unwrap();
        assert_eq!(db.curated.log.len(), log_len + 1);
    }

    #[test]
    fn fission_splits_with_lineage() {
        let mut db = sample();
        db.split_entry(
            "alice",
            5,
            "GABA-A",
            &[
                ("GABA-A1", vec![("kind", Atom::Str("receptor".into()))]),
                ("GABA-A2", vec![("kind", Atom::Str("receptor".into()))]),
            ],
        )
        .unwrap();
        assert!(db.entry_node("GABA-A").is_err());
        let mut resolved = db.resolve_id("GABA-A").unwrap();
        resolved.sort();
        assert_eq!(resolved, vec!["GABA-A1".to_string(), "GABA-A2".to_string()]);
        let anc = db.lifecycle.how_did_come_about("GABA-A1").unwrap();
        assert_eq!(anc, vec!["GABA-A".to_string()]);
    }

    #[test]
    fn annotations_are_superimposed() {
        let mut db = sample();
        db.annotate("GABA-A", Some("kind"), "carol", "verify against IUPHAR", 9)
            .unwrap();
        db.annotate("GABA-A", None, "dave", "entry looks complete", 10)
            .unwrap();
        assert_eq!(db.notes_on("GABA-A", Some("kind")).len(), 1);
        assert_eq!(db.notes_on("GABA-A", None).len(), 1);
        assert!(db.notes_on("5-HT3", None).is_empty());
        // Annotations do not leak into the published core data (§2: DAS
        // keeps them external).
        db.publish("r").unwrap();
        let snap = db.version(0).unwrap();
        assert!(!format!("{snap}").contains("IUPHAR"));
        // Annotating a missing target fails.
        assert!(db.annotate("nope", None, "x", "y", 1).is_err());
    }

    /// §5.1's open question, answered: the archive rebuilt from the
    /// transaction log retrieves the same versions as the archive built
    /// incrementally at publish time — through edits, annotations (which
    /// must NOT appear), merges and splits.
    #[test]
    fn archive_from_log_matches_live_archive() {
        let mut db = sample();
        db.publish("r0").unwrap();
        db.edit_field(
            "carol",
            3,
            "GABA-A",
            "kind",
            Atom::Str("ion channel".into()),
        )
        .unwrap();
        db.annotate("GABA-A", None, "dave", "superimposed, not core", 4)
            .unwrap();
        db.publish("r1").unwrap();
        db.add_entry("erin", 5, "NMDA", &[("tm", Atom::Int(4))])
            .unwrap();
        db.merge_entries("erin", 6, "GABA-A", "5-HT3").unwrap();
        db.publish("r2").unwrap();
        db.split_entry("erin", 7, "NMDA", &[("NMDA-1", vec![]), ("NMDA-2", vec![])])
            .unwrap();
        db.publish("r3").unwrap();

        let rebuilt = db.archive_from_log().unwrap();
        assert_eq!(rebuilt.version_count(), db.archive().version_count());
        for v in 0..db.archive().version_count() {
            assert_eq!(
                rebuilt.retrieve(v).unwrap(),
                db.archive().retrieve(v).unwrap(),
                "version {v} differs"
            );
            assert_eq!(
                rebuilt.versions()[v as usize].label,
                db.archive().versions()[v as usize].label
            );
        }
    }

    #[test]
    fn import_preserves_cross_database_provenance() {
        let mut src = CuratedDatabase::new("uniprot", "name");
        src.add_entry("upstream", 1, "P1", &[("sq", Atom::Str("GDREQ".into()))])
            .unwrap();
        let node = src.entry_node("P1").unwrap();
        let clip = src.curated.copy(node).unwrap();

        let mut dst = CuratedDatabase::new("mydb", "name");
        let pasted = dst.import_entry("me", 2, "P1", &clip).unwrap();
        let chain = queries::how_arrived(&dst.curated, pasted);
        assert!(chain
            .iter()
            .any(|o| matches!(o, cdb_curation::Origin::CopiedFrom { db, .. } if db == "uniprot")));
        assert_eq!(dst.field("P1", "sq").unwrap(), Atom::Str("GDREQ".into()));
    }
}
