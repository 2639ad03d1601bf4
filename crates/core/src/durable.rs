//! Durability for the integrated database: WAL wiring, checkpoints,
//! and crash recovery.
//!
//! The curation layer's transaction log is the durable core — every
//! committed [`cdb_curation::ops::Transaction`] becomes one
//! `FRAME_TXN` in the WAL. The integrated engine has three more kinds
//! of state that the tree replay cannot reconstruct, and each rides
//! along in its own frame:
//!
//! * publish points → `FRAME_PUBLISH` (the archive itself is *not*
//!   persisted: it is recomputed by
//!   [`CuratedDatabase::archive_from_log`], the paper's §5.1 answer,
//!   which needs only the log and the publish points);
//! * lifecycle events → `FRAME_AUX` tag [`AUX_EVENT`];
//! * superimposed notes → `FRAME_AUX` tag [`AUX_NOTE`].
//!
//! Durability is per-instance: a database created with
//! [`CuratedDatabase::new`] is purely in-memory; one opened with
//! [`CuratedDatabase::open`] (or [`CuratedDatabase::open_dir`])
//! persists every commit, with [`Durability::Always`] syncing at each
//! commit and [`Durability::Batched`] deferring to an explicit
//! [`CuratedDatabase::sync`] — the classic group-commit trade
//! (unsynced transactions can be lost on crash, torn tails are
//! truncated on recovery, committed-and-synced ones never are).

use cdb_curation::provstore::StoreMode;
use cdb_curation::wire::{put_str, put_u64, Checkpoint, Reader, WireError};
use cdb_storage::{
    recover, CheckpointStore, DurableLog, GroupWal, Io, PublishRecord, ReclaimStats, Recovered,
    RecoveryStats, Retention, StorageError, FRAME_AUX, FRAME_COMMIT, FRAME_PUBLISH,
};

use crate::db::{CuratedDatabase, DbError, Note};
use crate::lifecycle::EntryEvent;

/// How a durable database reaches its WAL: exclusively, or through the
/// shared group-commit handle that [`crate::shared::SharedDb`] hands
/// every writer. The database's persist path is identical either way —
/// only the sync discipline differs (an owned log syncs inline; a
/// shared one batches syncs across writers, and `SharedDb` waits for
/// the batch *outside* the database lock).
#[derive(Debug)]
pub(crate) enum WalRef {
    /// This database owns the log outright (single-threaded use).
    Owned(DurableLog<Box<dyn Io>>),
    /// The log is shared with other writers via group commit.
    Shared(GroupWal),
}

impl WalRef {
    pub(crate) fn append(&mut self, kind: u8, payload: &[u8]) -> Result<(), StorageError> {
        match self {
            WalRef::Owned(log) => log.append(kind, payload),
            WalRef::Shared(group) => group.append(kind, payload).map(|_| ()),
        }
    }

    /// Forces everything appended so far to durable storage. For a
    /// shared log this is a full barrier across *all* writers, not
    /// just this database's frames.
    pub(crate) fn sync(&mut self) -> Result<(), StorageError> {
        match self {
            WalRef::Owned(log) => log.sync(),
            WalRef::Shared(group) => group.sync_all(),
        }
    }

    /// The log's logical length in bytes. With everything synced this
    /// is the coverage watermark a checkpoint claims.
    pub(crate) fn len(&self) -> Result<u64, StorageError> {
        match self {
            WalRef::Owned(log) => log.len(),
            WalRef::Shared(group) => group.log_len(),
        }
    }

    /// Frames appended but not yet covered by a successful sync.
    pub(crate) fn unsynced(&self) -> u64 {
        match self {
            WalRef::Owned(log) => log.unsynced_frames(),
            WalRef::Shared(group) => group.unsynced(),
        }
    }

    /// Retires log history covered by a durably installed checkpoint.
    pub(crate) fn reclaim(&mut self, covered: u64) -> Result<Option<ReclaimStats>, StorageError> {
        match self {
            WalRef::Owned(log) => log.reclaim(covered),
            WalRef::Shared(group) => group.reclaim(covered),
        }
    }

    /// Live segments backing the log (1 for unsegmented devices).
    pub(crate) fn live_segments(&self) -> u64 {
        match self {
            WalRef::Owned(log) => log.live_segments(),
            WalRef::Shared(group) => group.live_segments(),
        }
    }
}

/// What one [`CuratedDatabase::checkpoint`] covered and reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Log bytes the installed checkpoint durably covers — the next
    /// recovery skips every frame at or below this watermark.
    pub covered_bytes: u64,
    /// Fully-covered segments retired by this checkpoint (archived
    /// under [`Retention::KeepAll`], deleted under
    /// [`Retention::Reclaim`]); 0 on unsegmented devices.
    pub retired_segments: u64,
    /// Bytes those retired segments held.
    pub reclaimed_bytes: u64,
    /// Live segments remaining after retirement (1 on unsegmented
    /// devices).
    pub live_segments: u64,
}

/// When WAL appends are forced to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Sync at every commit: a returned operation is crash-durable.
    #[default]
    Always,
    /// Buffer appends until [`CuratedDatabase::sync`] (group commit):
    /// faster, but a crash can lose operations since the last sync —
    /// never corrupt the log, only truncate it.
    Batched,
}

/// Aux-frame tag: a serialized [`EntryEvent`].
pub const AUX_EVENT: u8 = 1;
/// Aux-frame tag: a serialized [`Note`] with its attachment point.
pub const AUX_NOTE: u8 = 2;
/// Aux-frame tag: a 2PC decision record (gid, commit). Only ever
/// written into a checkpoint's aux carriage — the WAL's own record is
/// the `FRAME_DECIDE` frame — so cross-shard decisions survive
/// checkpoint-anchored log truncation and can still resolve another
/// shard's in-doubt PREPARE after the deciding frames are retired.
pub const AUX_DECIDE: u8 = 3;
/// Aux-frame tag: a secondary-index registration or drop. Only the
/// registration is durable — postings are derived state, rebuilt from
/// the recovered tree — so the payload is just the field name and a
/// create/drop flag. Checkpoints re-encode the surviving registrations
/// (creates only), exactly as they re-encode notes.
pub const AUX_INDEX: u8 = 4;

/// One decoded auxiliary frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuxRecord {
    /// A lifecycle event to replay into the registry.
    Event(EntryEvent),
    /// A superimposed note and where it attaches.
    Note {
        /// Entry key the note attaches to.
        key: String,
        /// Field within the entry, if field-level.
        field: Option<String>,
        /// The annotation itself.
        note: Note,
    },
    /// A 2PC decision record carried by a checkpoint.
    Decision {
        /// Global cross-shard transaction id.
        gid: u64,
        /// Whether the transaction committed.
        commit: bool,
    },
    /// A secondary-index registration (`create`) or drop (`!create`).
    Index {
        /// The indexed entry field.
        field: String,
        /// `true` = register, `false` = drop.
        create: bool,
    },
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn read_opt_str(r: &mut Reader<'_>) -> Result<Option<String>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.str()?)),
        t => Err(WireError::BadTag("option", t)),
    }
}

/// Encodes a lifecycle event as an aux-frame payload.
pub fn encode_event(e: &EntryEvent) -> Vec<u8> {
    let mut out = vec![AUX_EVENT];
    match e {
        EntryEvent::Created {
            id,
            from_split,
            time,
        } => {
            out.push(0);
            put_str(&mut out, id);
            put_opt_str(&mut out, from_split.as_deref());
            put_u64(&mut out, *time);
        }
        EntryEvent::Merged {
            kept,
            absorbed,
            time,
        } => {
            out.push(1);
            put_str(&mut out, kept);
            put_str(&mut out, absorbed);
            put_u64(&mut out, *time);
        }
        EntryEvent::Split {
            original,
            parts,
            time,
        } => {
            out.push(2);
            put_str(&mut out, original);
            out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
            for p in parts {
                put_str(&mut out, p);
            }
            put_u64(&mut out, *time);
        }
        EntryEvent::Deleted { id, time } => {
            out.push(3);
            put_str(&mut out, id);
            put_u64(&mut out, *time);
        }
    }
    out
}

/// Encodes a note as an aux-frame payload.
pub fn encode_note(key: &str, field: Option<&str>, note: &Note) -> Vec<u8> {
    let mut out = vec![AUX_NOTE];
    put_str(&mut out, key);
    put_opt_str(&mut out, field);
    put_str(&mut out, &note.author);
    put_str(&mut out, &note.text);
    put_u64(&mut out, note.time);
    out
}

/// Encodes a 2PC decision record as an aux-frame payload (checkpoint
/// carriage only; see [`AUX_DECIDE`]).
pub fn encode_decision(gid: u64, commit: bool) -> Vec<u8> {
    let mut out = vec![AUX_DECIDE];
    put_u64(&mut out, gid);
    out.push(u8::from(commit));
    out
}

/// Encodes a secondary-index registration/drop as an aux-frame payload.
pub fn encode_index(field: &str, create: bool) -> Vec<u8> {
    let mut out = vec![AUX_INDEX];
    put_str(&mut out, field);
    out.push(u8::from(create));
    out
}

/// Decodes an aux-frame payload.
pub fn decode_aux(bytes: &[u8]) -> Result<AuxRecord, WireError> {
    let mut r = Reader::new(bytes);
    let rec = match r.u8()? {
        AUX_EVENT => AuxRecord::Event(match r.u8()? {
            0 => EntryEvent::Created {
                id: r.str()?,
                from_split: read_opt_str(&mut r)?,
                time: r.u64()?,
            },
            1 => EntryEvent::Merged {
                kept: r.str()?,
                absorbed: r.str()?,
                time: r.u64()?,
            },
            2 => {
                let original = r.str()?;
                let n = r.u32()? as usize;
                let mut parts = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    parts.push(r.str()?);
                }
                EntryEvent::Split {
                    original,
                    parts,
                    time: r.u64()?,
                }
            }
            3 => EntryEvent::Deleted {
                id: r.str()?,
                time: r.u64()?,
            },
            t => return Err(WireError::BadTag("lifecycle event", t)),
        }),
        AUX_NOTE => AuxRecord::Note {
            key: r.str()?,
            field: read_opt_str(&mut r)?,
            note: Note {
                author: r.str()?,
                text: r.str()?,
                time: r.u64()?,
            },
        },
        AUX_DECIDE => AuxRecord::Decision {
            gid: r.u64()?,
            commit: match r.u8()? {
                0 => false,
                1 => true,
                t => return Err(WireError::BadTag("decision flag", t)),
            },
        },
        AUX_INDEX => AuxRecord::Index {
            field: r.str()?,
            create: match r.u8()? {
                0 => false,
                1 => true,
                t => return Err(WireError::BadTag("index flag", t)),
            },
        },
        t => return Err(WireError::BadTag("aux record", t)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(rec)
}

impl CuratedDatabase {
    /// Opens a durable database over a WAL device and a checkpoint
    /// device, recovering whatever committed state they hold. Empty
    /// devices yield a fresh database that will persist from the
    /// first commit on; a torn WAL tail (crash mid-write) is truncated
    /// and the state is rebuilt from the committed prefix, checkpoint
    /// first when one is usable.
    pub fn open(
        name: impl Into<String>,
        key_field: impl Into<String>,
        wal_io: Box<dyn Io>,
        mut ckpt: CheckpointStore,
    ) -> Result<Self, DbError> {
        let name = name.into();
        let ck = ckpt.load()?;
        let (log, rec) = recover(&name, StoreMode::Hereditary, wal_io, ck)?;
        Self::from_recovered(name, key_field, rec, WalRef::Owned(log), ckpt)
    }

    /// Assembles a database from a finished recovery. Shared by
    /// [`CuratedDatabase::open`] (owned WAL) and
    /// [`crate::shared::SharedDb::open`] (group-commit WAL).
    pub(crate) fn from_recovered(
        name: String,
        key_field: impl Into<String>,
        rec: Recovered,
        wal: WalRef,
        ckpt: CheckpointStore,
    ) -> Result<Self, DbError> {
        Self::from_recovered_with_metrics(name, key_field, rec, wal, ckpt, cdb_obs::Metrics::new())
    }

    /// [`CuratedDatabase::from_recovered`] with an externally-created
    /// metric registry — [`crate::shared::SharedDb::open`] builds the
    /// registry first so the group-commit WAL can record into it.
    pub(crate) fn from_recovered_with_metrics(
        name: String,
        key_field: impl Into<String>,
        rec: Recovered,
        wal: WalRef,
        ckpt: CheckpointStore,
        metrics: cdb_obs::Metrics,
    ) -> Result<Self, DbError> {
        let mut db = CuratedDatabase::new(name, key_field);
        db.metrics = metrics;
        db.curated = rec.db;
        db.last_time = rec.base_time;
        for aux in &rec.aux {
            match decode_aux(aux).map_err(StorageError::Wire)? {
                AuxRecord::Event(e) => db.lifecycle.replay_event(&e),
                AuxRecord::Note { key, field, note } => {
                    db.notes.entry((key, field)).or_default().push(note);
                }
                AuxRecord::Decision { gid, commit } => {
                    db.decisions.insert(gid, commit);
                }
                // Registrations replay in log order, so a drop cancels
                // an earlier create; postings rebuild below, after the
                // recovered tree is in place.
                AuxRecord::Index { field, create } => {
                    if create {
                        db.indexes.register(&field);
                    } else {
                        db.indexes.unregister(&field);
                    }
                }
            }
        }
        db.rebuild_key_map();
        for field in db.index_fields() {
            db.rebuild_index(&field)?;
        }
        // The WAL's own DECIDE frames join the checkpoint-carried
        // records (later frames win — they are never contradictory, but
        // a self-healed abort may postdate a carried record).
        db.decisions.extend(rec.decisions.iter());
        db.publish_points = rec
            .publishes
            .iter()
            .map(|p| (p.txn, p.time, p.label.clone()))
            .collect();
        db.archive = if rec.truncated {
            // The covered log is gone: versions published before the
            // checkpoint cut cannot be replayed from the log. The
            // checkpoint carried their exported snapshots instead;
            // versions published after the cut replay onto the
            // checkpoint's base tree.
            db.rebuild_archive_truncated(
                rec.base_tree
                    .as_ref()
                    .expect("a truncated recovery always carries its base tree"),
                &rec.carried_snapshots,
            )?
        } else {
            db.archive_from_log()?
        };
        db.persisted_txns = db.curated.log.len();
        db.persisted_events = db.lifecycle.events().len();
        db.wal = Some(wal);
        db.ckpt = Some(ckpt);
        rec.stats.record_to(&db.metrics);
        db.metrics
            .gauge("storage.segment.count")
            .set(rec.stats.live_segments);
        db.recovery = Some(rec.stats);
        Ok(db)
    }

    /// Rebuilds the archive after a truncated recovery: the first
    /// `snapshots.len()` publish points take their exported values from
    /// the checkpoint's carried snapshots (their log prefix is gone);
    /// the rest — publishes in the replayed tail — are reconstructed by
    /// replaying the tail onto the checkpoint's base tree.
    fn rebuild_archive_truncated(
        &self,
        base_tree: &cdb_curation::tree::TreeDb,
        snapshots: &[Vec<u8>],
    ) -> Result<cdb_archive::Archive, DbError> {
        let spec =
            cdb_model::KeySpec::new().rule(Vec::<String>::new(), [self.key_field().to_owned()]);
        let mut rebuilt = cdb_archive::Archive::new(self.name(), spec);
        for (i, (txn, time, label)) in self.publish_points.iter().enumerate() {
            let snapshot = if let Some(bytes) = snapshots.get(i) {
                cdb_archive::codec::decode_value(bytes)
                    .map_err(|e| DbError::Storage(format!("carried snapshot {i}: {e}")))?
            } else {
                let tree = match txn {
                    Some(t) => cdb_curation::replay::replay_onto(
                        base_tree.clone(),
                        &self.curated.log,
                        Some(*t),
                    )
                    .map_err(|e| DbError::Storage(format!("tail replay for publish: {e}")))?,
                    None => base_tree.clone(),
                };
                crate::db::export_tree(&tree, self.key_field(), &self.lifecycle, *time)?
            };
            rebuilt.add_version(&snapshot, label.clone())?;
        }
        Ok(rebuilt)
    }

    /// Opens a durable database backed by segmented WAL files
    /// `<dir>/<name>.wal.<seq>` and the checkpoint `<dir>/<name>.ckpt`
    /// (all created if absent). Checkpoints install atomically via
    /// temp-file + rename; a legacy single-file `<dir>/<name>.wal` from
    /// an older layout is **not** migrated — open it with
    /// [`CuratedDatabase::open`] over a [`cdb_storage::FileIo`] instead.
    pub fn open_dir(
        name: impl Into<String>,
        key_field: impl Into<String>,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<Self, DbError> {
        Self::open_dir_with(name, key_field, dir, cdb_storage::SegmentConfig::default())
    }

    /// [`CuratedDatabase::open_dir`] with an explicit segment
    /// rotation/retention policy. The database's own retention knob is
    /// aligned with `cfg.retention`, so checkpoints carry (or drop) the
    /// covered transaction log consistently with what happens to the
    /// segment files.
    pub fn open_dir_with(
        name: impl Into<String>,
        key_field: impl Into<String>,
        dir: impl AsRef<std::path::Path>,
        cfg: cdb_storage::SegmentConfig,
    ) -> Result<Self, DbError> {
        let name = name.into();
        let dir = dir.as_ref();
        let wal = cdb_storage::SegmentedIo::open_dir(dir, &name, cfg)?;
        let ckpt = CheckpointStore::dir(dir, &name);
        let mut db = CuratedDatabase::open(name, key_field, Box::new(wal), ckpt)?;
        db.set_retention(cfg.retention);
        Ok(db)
    }

    /// Whether this instance persists commits.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The durability policy (meaningful only for durable instances).
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Sets the durability policy. Switching to [`Durability::Always`]
    /// does not retroactively sync — call [`CuratedDatabase::sync`].
    pub fn set_durability(&mut self, durability: Durability) {
        self.durability = durability;
    }

    /// What recovery saw when this instance was opened from a WAL
    /// (`None` for in-memory databases).
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref()
    }

    /// Forces all buffered WAL frames to durable storage (a no-op for
    /// in-memory databases and under [`Durability::Always`]).
    pub fn sync(&mut self) -> Result<(), DbError> {
        if self.wal.is_some() {
            self.drain_pending()?;
            if let Some(log) = self.wal.as_mut() {
                log.sync()?;
            }
        }
        Ok(())
    }

    /// Appends every encoded-but-unwritten frame to the WAL, in order.
    /// On failure the unwritten frames stay queued, so a transient
    /// append error delays persistence instead of losing frames (or
    /// reordering them: nothing new is appended past a queued frame).
    /// Pops from the front of a deque, so a backlog of any size drains
    /// in one linear pass.
    fn drain_pending(&mut self) -> Result<(), DbError> {
        while let Some((kind, payload)) = self.pending_frames.front() {
            self.wal
                .as_mut()
                .expect("drain_pending is only called on durable databases")
                .append(*kind, payload)?;
            self.pending_frames.pop_front();
        }
        Ok(())
    }

    /// Writes a checkpoint: the WAL is synced, the current state is
    /// snapshotted with a coverage watermark (the synced log length),
    /// and the snapshot is installed **crash-atomically** through the
    /// [`CheckpointStore`] — a crash mid-install leaves the previous
    /// checkpoint loadable, never neither. Once installed, WAL segments
    /// fully below the watermark are retired per the device's
    /// [`Retention`] policy (archived or deleted); the checkpoint
    /// itself carries whatever the next recovery can no longer read
    /// from the live log — under [`Retention::KeepAll`] the full
    /// transaction log rides along, under [`Retention::Reclaim`] the
    /// exported snapshots of the published versions do.
    pub fn checkpoint(&mut self) -> Result<CheckpointStats, DbError> {
        if self.wal.is_none() {
            return Err(DbError::Storage(
                "checkpoint on an in-memory database".into(),
            ));
        }
        let _span = cdb_obs::SpanGuard::enter("core.checkpoint");
        self.metrics.counter("core.checkpoints").inc();
        self.drain_pending()?;
        let wal = self.wal.as_mut().expect("checked durable above");
        wal.sync()?;
        // Everything up to here is durable; nothing can be appended
        // between the sync and this read (`&mut self` serializes the
        // owned path, the database lock serializes the shared one), so
        // the watermark is exactly the durable log length.
        let covered = wal.len()?;

        // Paged databases capture dirty objects into the page heap and
        // flush it *before* the anchor below installs: a durable anchor
        // must always reference a durable heap prefix.
        let paged_ref = if self.paged.is_some() {
            Some(self.capture_paged()?)
        } else {
            None
        };

        let mut ck = if paged_ref.is_some() {
            // A paged anchor carries metadata only — tree, provenance,
            // and snapshot bodies live as pages behind the PagedRef
            // watermark. The placeholder tree exists solely to carry
            // the database name and store mode across the wire.
            Checkpoint::basic(
                self.curated.last_txn_id(),
                cdb_curation::TreeDb::new(self.curated.tree.name()),
                cdb_curation::ProvStore::new(self.curated.prov.mode()),
            )
        } else {
            Checkpoint::basic(
                self.curated.last_txn_id(),
                self.curated.tree.clone(),
                self.curated.prov.clone(),
            )
        };
        ck.paged = paged_ref;
        ck.covered_len = Some(covered);
        ck.last_time = self
            .curated
            .log
            .last()
            .map(|t| t.time)
            .unwrap_or(0)
            .max(self.last_time);
        // The in-memory log is already partial when this instance was
        // itself recovered from a reclaiming checkpoint — carrying it
        // as "the full history" would corrupt the next recovery, so a
        // cut instance always checkpoints in truncated form.
        let truncated_form =
            self.retention == Retention::Reclaim || self.curated.base_txn_id().is_some();
        ck.log = if truncated_form {
            Vec::new()
        } else {
            self.curated.log.clone()
        };
        if truncated_form && ck.paged.is_none() {
            ck.snapshots = (0..self.archive.version_count())
                .map(|v| {
                    self.archive
                        .retrieve(v)
                        .map(|val| cdb_archive::codec::encode_value(&val))
                })
                .collect::<Result<_, _>>()?;
        }
        // Publishes and aux records below the watermark disappear with
        // their frames, so the checkpoint re-encodes the complete
        // current sets (events first, then notes — recovery only
        // depends on relative order within each kind).
        ck.publishes = self
            .publish_points
            .iter()
            .map(|(txn, time, label)| {
                cdb_storage::recovery::encode_publish(&PublishRecord {
                    txn: *txn,
                    time: *time,
                    label: label.clone(),
                })
            })
            .collect();
        let mut aux: Vec<Vec<u8>> = self.lifecycle.events().iter().map(encode_event).collect();
        for ((key, field), notes) in &self.notes {
            for note in notes {
                aux.push(encode_note(key, field.as_deref(), note));
            }
        }
        // 2PC decision records ride every checkpoint so they outlive
        // the DECIDE frames the watermark is about to retire.
        for (&gid, &commit) in &self.decisions {
            aux.push(encode_decision(gid, commit));
        }
        // Index registrations likewise: only the surviving creates —
        // a drop below the watermark has already erased its create
        // from this set, so no drop records are needed.
        for field in self.indexes.fields() {
            aux.push(encode_index(&field, true));
        }
        ck.aux = aux;

        self.ckpt
            .as_mut()
            .expect("durable database always has a checkpoint store")
            .install(&ck)?;

        // The checkpoint is durably installed: history it covers can be
        // retired. Best-effort — a failed retire is retried by the next
        // checkpoint, never blocks this one.
        let wal = self.wal.as_mut().expect("checked durable above");
        let reclaimed = wal.reclaim(covered)?;
        let mut stats = CheckpointStats {
            covered_bytes: covered,
            live_segments: wal.live_segments(),
            ..CheckpointStats::default()
        };
        if let Some(r) = reclaimed {
            stats.retired_segments = r.retired;
            stats.reclaimed_bytes = r.reclaimed_bytes;
            stats.live_segments = r.live;
            self.metrics
                .counter("storage.segment.retired")
                .add(r.retired);
            self.metrics
                .counter("storage.segment.reclaimed_bytes")
                .add(r.reclaimed_bytes);
            if r.failed {
                self.metrics.counter("storage.error.retire_failed").inc();
            }
        }
        self.metrics
            .gauge("storage.segment.count")
            .set(stats.live_segments);
        Ok(stats)
    }

    /// Encodes every not-yet-persisted committed transaction *and* the
    /// lifecycle events produced alongside, then appends the frames to
    /// the WAL. Each transaction and its events share one atomic commit
    /// frame — a torn write can drop the whole operation but never
    /// split the transaction from its side effects. Persistence is
    /// position-based (`persisted_txns`/`persisted_events` prefixes of
    /// the in-memory logs), so a commit whose persist step previously
    /// errored is encoded or drained now, never skipped: the WAL always
    /// holds a gap-free prefix of the in-memory log. Called after every
    /// commit; in-memory instances skip straight out.
    pub(crate) fn persist_commit(&mut self) -> Result<(), DbError> {
        if self.wal.is_none() || self.defer_persist {
            return Ok(());
        }
        let _span = cdb_obs::SpanGuard::enter("core.persist_commit");
        for frame in self.encode_unpersisted() {
            self.pending_frames.push_back(frame);
        }
        self.drain_pending()?;
        if self.durability == Durability::Always {
            self.wal.as_mut().expect("checked durable above").sync()?;
        }
        Ok(())
    }

    /// Encodes every not-yet-persisted committed transaction (plus its
    /// lifecycle events) into WAL frames and advances the persistence
    /// cursors — without touching the WAL. [`persist_commit`] feeds the
    /// frames straight into the append queue; the sharded 2PC path
    /// instead seals them inside a PREPARE frame, so the transaction's
    /// whole cross-shard effect commits or aborts atomically.
    ///
    /// [`persist_commit`]: CuratedDatabase::persist_commit
    pub(crate) fn encode_unpersisted(&mut self) -> Vec<(u8, Vec<u8>)> {
        let mut frames = Vec::new();
        let mut fresh: Vec<Vec<u8>> = self.lifecycle.events()
            [self.persisted_events.min(self.lifecycle.events().len())..]
            .iter()
            .map(encode_event)
            .collect();
        let start = self.persisted_txns.min(self.curated.log.len());
        let txns = &self.curated.log[start..];
        if txns.is_empty() {
            for payload in fresh.drain(..) {
                frames.push((FRAME_AUX, payload));
            }
        } else {
            // Normally exactly one transaction is unpersisted and the
            // fresh events are its own. More than one means an earlier
            // persist was interrupted; the stragglers' events then ride
            // with the newest frame — relative aux order (all recovery
            // depends on) is preserved.
            for (i, txn) in txns.iter().enumerate() {
                let aux = if i + 1 == txns.len() {
                    std::mem::take(&mut fresh)
                } else {
                    Vec::new()
                };
                frames.push((FRAME_COMMIT, cdb_storage::encode_commit(txn, &aux)));
            }
        }
        self.metrics
            .counter("core.commits")
            .add((self.curated.log.len() - start) as u64);
        self.persisted_txns = self.curated.log.len();
        self.persisted_events = self.lifecycle.events().len();
        frames
    }

    /// Appends a publish point to the WAL. Publishes are synced
    /// immediately regardless of policy — losing one silently desyncs
    /// the archive from what users were told was published.
    pub(crate) fn persist_publish(&mut self) -> Result<(), DbError> {
        if self.wal.is_none() {
            return Ok(());
        }
        let _span = cdb_obs::SpanGuard::enter("core.persist_publish");
        self.metrics.counter("core.publishes").inc();
        let (txn, time, label) = self
            .publish_points
            .last()
            .expect("persist_publish follows a publish")
            .clone();
        self.pending_frames.push_back((
            FRAME_PUBLISH,
            cdb_storage::recovery::encode_publish(&PublishRecord { txn, time, label }),
        ));
        self.drain_pending()?;
        self.wal.as_mut().expect("checked durable above").sync()?;
        Ok(())
    }

    /// Appends a note to the WAL.
    pub(crate) fn persist_note(&mut self, key: &str, field: Option<&str>) -> Result<(), DbError> {
        if self.wal.is_none() || self.defer_persist {
            return Ok(());
        }
        self.metrics.counter("core.notes").inc();
        let note = self
            .notes
            .get(&(key.to_owned(), field.map(str::to_owned)))
            .and_then(|v| v.last())
            .expect("persist_note follows an annotate")
            .clone();
        self.pending_frames
            .push_back((FRAME_AUX, encode_note(key, field, &note)));
        self.drain_pending()?;
        if self.durability == Durability::Always {
            self.wal.as_mut().expect("checked durable above").sync()?;
        }
        Ok(())
    }

    /// Appends a secondary-index registration or drop to the WAL.
    /// Synced immediately like a publish: index DDL is rare and losing
    /// one silently changes which plans recovery can produce.
    pub(crate) fn persist_index(&mut self, field: &str, create: bool) -> Result<(), DbError> {
        if self.wal.is_none() || self.defer_persist {
            return Ok(());
        }
        self.metrics.counter("core.index_ddl").inc();
        self.pending_frames
            .push_back((FRAME_AUX, encode_index(field, create)));
        self.drain_pending()?;
        self.wal.as_mut().expect("checked durable above").sync()?;
        Ok(())
    }
}

impl Drop for CuratedDatabase {
    /// Best-effort flush on drop: under [`Durability::Batched`] a
    /// database can die holding committed-but-unsynced frames; dropping
    /// it cleanly (scope exit, shutdown) is not a crash, so those
    /// frames get one last drain + sync. Failure is swallowed — drop
    /// cannot return an error — but counted: the global
    /// `storage.error.dropped_unsynced` counter records every drop that
    /// lost a tail, so silent loss is at least observable. Panics skip
    /// the flush entirely (the unwound state is suspect, and crash
    /// recovery handles a truncated tail by design).
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let dirty = match self.wal.as_ref() {
            None => return,
            Some(wal) => !self.pending_frames.is_empty() || wal.unsynced() > 0,
        };
        if !dirty {
            return;
        }
        let mut flush = || -> Result<(), DbError> {
            self.drain_pending()?;
            self.wal.as_mut().expect("checked durable above").sync()?;
            Ok(())
        };
        if flush().is_err() {
            cdb_obs::global()
                .counter("storage.error.dropped_unsynced")
                .inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aux_records_round_trip() {
        let records = [
            AuxRecord::Event(EntryEvent::Created {
                id: "P1".into(),
                from_split: None,
                time: 3,
            }),
            AuxRecord::Event(EntryEvent::Created {
                id: "P2".into(),
                from_split: Some("P0".into()),
                time: 4,
            }),
            AuxRecord::Event(EntryEvent::Merged {
                kept: "A".into(),
                absorbed: "B".into(),
                time: 5,
            }),
            AuxRecord::Event(EntryEvent::Split {
                original: "C".into(),
                parts: vec!["C1".into(), "C2".into()],
                time: 6,
            }),
            AuxRecord::Event(EntryEvent::Deleted {
                id: "D".into(),
                time: 7,
            }),
            AuxRecord::Note {
                key: "GABA-A".into(),
                field: Some("kind".into()),
                note: Note {
                    author: "carol".into(),
                    text: "verify against IUPHAR".into(),
                    time: 9,
                },
            },
            AuxRecord::Note {
                key: "5-HT3".into(),
                field: None,
                note: Note {
                    author: "dave".into(),
                    text: String::new(),
                    time: 0,
                },
            },
            AuxRecord::Decision {
                gid: 42,
                commit: true,
            },
            AuxRecord::Decision {
                gid: 0,
                commit: false,
            },
            AuxRecord::Index {
                field: "tm".into(),
                create: true,
            },
            AuxRecord::Index {
                field: String::new(),
                create: false,
            },
        ];
        for rec in records {
            let bytes = match &rec {
                AuxRecord::Event(e) => encode_event(e),
                AuxRecord::Note { key, field, note } => encode_note(key, field.as_deref(), note),
                AuxRecord::Decision { gid, commit } => encode_decision(*gid, *commit),
                AuxRecord::Index { field, create } => encode_index(field, *create),
            };
            assert_eq!(decode_aux(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn truncated_aux_payloads_error() {
        let bytes = encode_event(&EntryEvent::Merged {
            kept: "A".into(),
            absorbed: "B".into(),
            time: 5,
        });
        for cut in 0..bytes.len() {
            assert!(decode_aux(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
