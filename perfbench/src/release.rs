//! `release`: the durable release cycle on disk. One paged shard
//! (`ShardedDb::open_paged`) over real files, with the WAL segments
//! deleted once a checkpoint covers them (`Retention::Reclaim`) and a
//! buffer pool smaller than the page working set. Each release applies
//! a generator batch, publishes, checkpoints and cites a sample of
//! entries; after the last release the handle is dropped and the
//! database reopened from disk.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use cdb_core::model::{Atom, Value};
use cdb_core::sharded::PagedShardDevices;
use cdb_core::storage::{CheckpointStore, FileIo, Io, Retention, SegmentConfig, SegmentedIo};
use cdb_core::{ShardMap, ShardedDb, DEFAULT_BATCH_WINDOW};

use crate::corpus::{Corpus, Entry, Rng, EDITABLE};
use crate::trace::Tracer;
use crate::{best_ms, best_ops_per_s, keep_best, median, ms, quantile, write_growth, Ctx, Outcome};

const ENTRIES: usize = 200;
/// Buffer-pool frames: far fewer than the pages the corpus occupies.
const POOL_PAGES: usize = 16;
const SEGMENT_BYTES: u64 = 16 * 1024;
const PART: &str = "uniprot.s0";
/// Releases per epoch; every epoch ends with a reopen from disk.
const RELEASES: usize = 6;
/// Epochs run until the clock runs out, but at least this many.
const MIN_EPOCHS: usize = 3;
// One release's generator batch.
const EDITS: usize = 20;
const ADDS: usize = 5;
const NOTES: usize = 3;
/// A deletion every this many releases.
const DELETE_EVERY: usize = 4;
const CITES: usize = 5;

fn devices(dir: &Path) -> Result<Vec<PagedShardDevices>, String> {
    let cfg = SegmentConfig {
        segment_bytes: SEGMENT_BYTES,
        retention: Retention::Reclaim,
    };
    let wal = SegmentedIo::open_dir(dir, PART, cfg).map_err(|e| e.to_string())?;
    let heap = FileIo::open(dir.join(format!("{PART}.heap"))).map_err(|e| e.to_string())?;
    Ok(vec![(
        Box::new(wal) as Box<dyn Io>,
        CheckpointStore::dir(dir, PART),
        Box::new(heap) as Box<dyn Io>,
    )])
}

fn open(dir: &Path) -> Result<ShardedDb, String> {
    ShardedDb::open_paged(
        "uniprot",
        "ac",
        ShardMap::single(),
        devices(dir)?,
        POOL_PAGES,
        DEFAULT_BATCH_WINDOW,
    )
    .map_err(|e| format!("open_paged: {e}"))
}

/// The generator's view of the database.
struct Model {
    entries: BTreeMap<String, BTreeMap<String, Atom>>,
    secondary: BTreeMap<String, BTreeSet<String>>,
}

impl Model {
    /// The release as `export()` must produce it.
    fn value(&self) -> Value {
        Value::set(self.entries.iter().map(|(ac, fields)| {
            let mut m: BTreeMap<String, Value> = fields
                .iter()
                .map(|(f, v)| (f.clone(), Value::Atom(v.clone())))
                .collect();
            m.insert("ac".into(), Value::str(ac.clone()));
            if let Some(s) = self.secondary.get(ac).filter(|s| !s.is_empty()) {
                m.insert(
                    "secondary_ids".into(),
                    Value::set(s.iter().map(|k| Value::str(k.clone()))),
                );
            }
            Value::Record(m)
        }))
    }

    /// Live user bytes: keys, field names and values.
    fn user_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|(ac, fields)| {
                ac.len()
                    + fields
                        .iter()
                        .map(|(f, v)| {
                            f.len()
                                + match v {
                                    Atom::Str(s) => s.len(),
                                    _ => 8,
                                }
                        })
                        .sum::<usize>()
            })
            .sum::<usize>() as u64
    }

    fn random_key(&self, rng: &mut Rng) -> String {
        let n = rng.below(self.entries.len());
        self.entries.keys().nth(n).expect("in range").clone()
    }

    fn remove(&mut self, key: &str) {
        self.entries.remove(key);
        self.secondary.remove(key);
    }
}

struct Setup {
    dir: PathBuf,
    db: ShardedDb,
    model: Model,
    corpus: Corpus,
}

fn setup(seed: u64, dir: PathBuf) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let mut corpus = Corpus::new(seed, ENTRIES);
    let db = open(&dir)?;
    let mut model = Model {
        entries: BTreeMap::new(),
        secondary: BTreeMap::new(),
    };
    for (i, e) in corpus.entries(ENTRIES).into_iter().enumerate() {
        db.add_entry("loader", i as u64, &e.ac, &e.field_list())
            .map_err(|e| format!("load: {e}"))?;
        model.entries.insert(e.ac, e.fields);
    }
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    Ok(Setup {
        dir,
        db,
        model,
        corpus,
    })
}

/// Bytes on disk under `dir`, split into (WAL, page heap, checkpoints).
fn disk_bytes(dir: &Path) -> (u64, u64, u64) {
    let (mut wal, mut heap, mut ckpt) = (0, 0, 0);
    if let Ok(rd) = std::fs::read_dir(dir) {
        for e in rd.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            let len = e.metadata().map_or(0, |m| m.len());
            if name.contains(".wal") {
                wal += len;
            } else if name.ends_with(".heap") {
                heap += len;
            } else {
                ckpt += len;
            }
        }
    }
    (wal, heap, ckpt)
}

/// What a timed operation of the release cycle is.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Op {
    Write,
    Publish,
    Checkpoint,
    Cite,
}

/// Everything the epochs measure, accumulated.
#[derive(Default)]
struct Acc {
    attempted: u64,
    failed: u64,
    /// The current epoch's timed operations in order, in seconds.
    ops: Vec<(Op, f64)>,
    /// Per position, the fastest time over the epochs so far.
    best: Vec<(Op, f64)>,
    setup_s: Vec<f64>,
    /// `(seconds since the epoch's releases started, latency ms)`.
    writes: Vec<(f64, f64)>,
    reopen_s: Vec<f64>,
    replay_ms: Vec<f64>,
    space_amp: Vec<f64>,
    wal_bytes: Vec<f64>,
    heap_bytes: Vec<f64>,
    ckpt_bytes: Vec<f64>,
    user_bytes: u64,
    reclaimed: u64,
    growth: Vec<f64>,
    metrics: cdb_obs::MetricsSnapshot,
}

impl Acc {
    /// Records one timed operation.
    fn op(&mut self, op: Op, d: std::time::Duration) {
        self.ops.push((op, d.as_secs_f64()));
        self.attempted += 1;
    }
}

/// One epoch: set up a fresh on-disk database, run `RELEASES` release
/// cycles, drop the handle and reopen it from disk. Every epoch of a
/// run gets the same inputs, so its operations repeat and each one's
/// fastest time over the epochs is kept (see `keep_best`).
fn epoch(ctx: &Ctx, i: usize, tracer: &mut Tracer, acc: &mut Acc) -> Result<(), String> {
    let t0 = Instant::now();
    let Setup {
        dir,
        db,
        mut model,
        mut corpus,
    } = setup(ctx.seed, ctx.data_dir.join(format!("epoch{i}")))?;
    acc.setup_s.push(t0.elapsed().as_secs_f64());
    let before = db.metrics_snapshot();
    let mut rng = Rng::new(ctx.seed ^ 0x7E1);
    let mut releases: Vec<Value> = Vec::new();
    let mut time = 1_000_000u64;
    let start = Instant::now();
    let first_write = acc.writes.len();

    // One timed curation write; the model changes only on success.
    macro_rules! timed_write {
        ($name:expr, $body:expr) => {{
            time += 1;
            let t0 = Instant::now();
            let out = tracer.time($name, || $body);
            let d = t0.elapsed();
            acc.op(Op::Write, d);
            acc.writes
                .push((t0.duration_since(start).as_secs_f64(), ms(d)));
            if out.is_err() {
                acc.failed += 1;
            }
            out.is_ok()
        }};
    }

    for release in 1..=RELEASES {
        for _ in 0..EDITS {
            let key = model.random_key(&mut rng);
            let field = *rng.pick(&EDITABLE);
            let value = corpus.edit_value(field, time + 1);
            if timed_write!(
                "core.write.edit",
                db.edit_field("curator", time, &key, field, value.clone())
            ) {
                model
                    .entries
                    .get_mut(&key)
                    .expect("live")
                    .insert(field.into(), value);
            }
        }
        for _ in 0..ADDS {
            let e: Entry = corpus.entry();
            if timed_write!(
                "core.write.add",
                db.add_entry("curator", time, &e.ac, &e.field_list())
            ) {
                model.entries.insert(e.ac, e.fields);
            }
        }
        if release % DELETE_EVERY == 0 {
            let key = model.random_key(&mut rng);
            if timed_write!("core.write.delete", db.delete_entry("curator", time, &key)) {
                model.remove(&key);
            }
        }
        let kept = model.random_key(&mut rng);
        let absorbed = model.random_key(&mut rng);
        if kept != absorbed
            && timed_write!(
                "core.write.merge",
                db.merge_entries("curator", time, &kept, &absorbed)
            )
        {
            let carried = model.entries[&absorbed].clone();
            let k = model.entries.get_mut(&kept).expect("live");
            for (f, v) in carried {
                k.entry(f).or_insert(v);
            }
            model.remove(&absorbed);
            model.secondary.entry(kept).or_default().insert(absorbed);
        }
        for _ in 0..NOTES {
            let key = model.random_key(&mut rng);
            let text = format!("release {release} note");
            let _ = timed_write!(
                "core.write.annotate",
                db.annotate(&key, Some("fn"), "curator", &text, time)
            );
        }

        let label = format!("release-{release}");
        let t0 = Instant::now();
        let published = tracer.time("core.publish", || db.publish(label.clone()));
        acc.op(Op::Publish, t0.elapsed());
        let version = match published.as_deref() {
            Ok([v]) => *v,
            _ => {
                acc.failed += 1;
                continue;
            }
        };
        let expected = model.value();

        let t0 = Instant::now();
        let ck = tracer.time("core.checkpoint", || db.checkpoint());
        acc.op(Op::Checkpoint, t0.elapsed());
        match ck {
            Ok(stats) => acc.reclaimed += stats.iter().map(|s| s.reclaimed_bytes).sum::<u64>(),
            Err(_) => acc.failed += 1,
        }

        let snap = db.snapshot();
        for _ in 0..CITES {
            let key = model.random_key(&mut rng);
            let t0 = Instant::now();
            let c = tracer.time("core.cite", || snap.shard(0).cite(version, &key));
            acc.op(Op::Cite, t0.elapsed());
            match c {
                Ok(c) if c.version == version && !c.authors.is_empty() => {}
                _ => acc.failed += 1,
            }
        }

        // Outside the clock: the release must be the generator's. When
        // traced, the two halves of `publish` are timed on their own:
        // the export, and the archive merge on a clone of the archive.
        let exported = tracer.time("core.export", || snap.shard(0).export());
        acc.attempted += 1;
        match exported {
            Ok(v) if v == expected => {
                if tracer.on() {
                    let mut archive = snap.shard(0).archive().clone();
                    let _ = tracer.time("archive.merge", || archive.add_version(&v, label));
                }
            }
            _ => acc.failed += 1,
        }
        releases.push(expected);
    }
    acc.growth.push(write_growth(
        &acc.writes[first_write..],
        start.elapsed().as_secs_f64(),
    ));
    let ops = std::mem::take(&mut acc.ops);
    keep_best(&mut acc.best, ops)?;

    let after = db.metrics_snapshot();
    acc.metrics.merge(&crate::delta(&before, &after));
    let pre_close = db.snapshot().shard(0).export().map_err(|e| e.to_string())?;
    let (wal, heap, ckpt) = disk_bytes(&dir);
    acc.user_bytes = model.user_bytes();
    acc.space_amp
        .push((wal + heap + ckpt) as f64 / acc.user_bytes.max(1) as f64);
    acc.wal_bytes.push(wal as f64);
    acc.heap_bytes.push(heap as f64);
    acc.ckpt_bytes.push(ckpt as f64);
    drop(db);

    // Reopen from disk, then check the reopened handle in full.
    let seen: BTreeSet<(u64, u64)> = if ctx.traced {
        cdb_obs::set_tracing(true);
        replay_events()
            .into_iter()
            .map(|e| (e.start_ns, e.thread))
            .collect()
    } else {
        BTreeSet::new()
    };
    let t0 = Instant::now();
    let reopened = tracer.time("core.reopen", || open(&dir));
    acc.reopen_s.push(t0.elapsed().as_secs_f64());
    if ctx.traced {
        cdb_obs::set_tracing(false);
        let fresh = replay_events()
            .into_iter()
            .filter(|e| !seen.contains(&(e.start_ns, e.thread)))
            .map(|e| e.dur_ns)
            .max()
            .unwrap_or(0);
        acc.replay_ms.push(fresh as f64 / 1e6);
    }
    let db = reopened?;
    let snap = db.snapshot();
    let shard = snap.shard(0);
    acc.attempted += 1;
    if shard.export().ok().as_ref() != Some(&pre_close) {
        acc.failed += 1;
    }
    for (v, want) in releases.iter().enumerate() {
        acc.attempted += 1;
        if shard.version(v as u32).ok().as_ref() != Some(want) {
            acc.failed += 1;
        }
    }
    acc.metrics.merge(&db.metrics_snapshot());
    drop(snap);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let epoch0 = Instant::now();
    let mut tracer = Tracer::new(ctx.traced, 0, epoch0);
    let mut acc = Acc::default();
    let deadline = ctx.deadline(epoch0);
    let mut epochs = 0;
    while epochs < MIN_EPOCHS || Instant::now() < deadline {
        epoch(ctx, epochs, &mut tracer, &mut acc)?;
        epochs += 1;
    }

    let write_ms = best_ms(&acc.best, Op::Write);
    let recover_s = median(&acc.reopen_s);
    let metrics = vec![
        ("setup_s", "s", median(&acc.setup_s)),
        ("ops_per_s", "1/s", best_ops_per_s(&acc.best)),
        ("write_p50_ms", "ms", quantile(&write_ms, 0.5)),
        ("write_p99_ms", "ms", quantile(&write_ms, 0.99)),
        (
            "cite_p50_ms",
            "ms",
            quantile(&best_ms(&acc.best, Op::Cite), 0.5),
        ),
        (
            "publish_p50_ms",
            "ms",
            quantile(&best_ms(&acc.best, Op::Publish), 0.5),
        ),
        (
            "checkpoint_p50_ms",
            "ms",
            quantile(&best_ms(&acc.best, Op::Checkpoint), 0.5),
        ),
        ("recover_s", "s", recover_s),
        ("space_amp", "ratio", median(&acc.space_amp)),
    ];

    let mut layers = Vec::new();
    let mut out_tracer = None;
    if ctx.traced {
        let d = &acc.metrics;
        let c = |name: &str| crate::counter_sum(d, name) as f64;
        let us = |name: &str| median(&tracer.durations_us(name));
        let syncs: u64 = d
            .histograms
            .iter()
            .filter(|(k, _)| k.ends_with("storage.wal.sync_ns"))
            .map(|(_, h)| h.count)
            .sum();
        let (hit, miss) = (c("storage.buffer.hit"), c("storage.buffer.miss"));
        let replay = median(&acc.replay_ms);
        let (frames, batches) = (c("storage.group.frames_synced"), c("storage.group.batches"));
        layers = vec![
            ("core.export_ms", us("core.export") / 1e3),
            ("archive.merge_ms", us("archive.merge") / 1e3),
            (
                "storage.wal.sync_us",
                crate::hist_mean_us(d, "storage.wal.sync_ns"),
            ),
            (
                "storage.wal.syncs_per_write",
                syncs as f64 / acc.writes.len().max(1) as f64,
            ),
            (
                "storage.page.captured",
                c("storage.page.captured") / epochs as f64,
            ),
            (
                "storage.buffer.hit_ratio",
                if hit + miss > 0.0 {
                    hit / (hit + miss)
                } else {
                    0.0
                },
            ),
            (
                "storage.buffer.evictions",
                c("storage.buffer.evict") / epochs as f64,
            ),
            ("storage.recovery.replay_ms", replay),
            ("core.paged.open_ms", recover_s * 1e3 - replay),
            ("storage.wal_bytes", median(&acc.wal_bytes)),
            ("storage.heap_bytes", median(&acc.heap_bytes)),
            (
                "storage.reclaimed_bytes",
                acc.reclaimed as f64 / epochs as f64,
            ),
            (
                "storage.group.frames_per_sync",
                if batches > 0.0 { frames / batches } else { 0.0 },
            ),
            (
                "storage.group.commit_us",
                crate::hist_mean_us(d, "storage.group.commit_ns"),
            ),
            ("core.write.growth", median(&acc.growth)),
        ];
        out_tracer = Some(tracer);
    }
    Ok(Outcome {
        attempted: acc.attempted,
        failed: acc.failed,
        metrics,
        layers,
        params: vec![
            ("corpus_entries", ENTRIES.to_string()),
            ("epochs", epochs.to_string()),
            ("releases_per_epoch", RELEASES.to_string()),
            ("shards", "1 (paged)".to_owned()),
            ("pool_pages", POOL_PAGES.to_string()),
            ("segment_bytes", SEGMENT_BYTES.to_string()),
            ("retention", "Reclaim (WAL segments)".to_owned()),
            ("wal", "segmented files".to_owned()),
            (
                "flush_policy",
                format!("group commit, window {:?}, sync_data per batch", DEFAULT_BATCH_WINDOW),
            ),
            (
                "batch",
                format!("{EDITS} edits, {ADDS} adds, 1 fusion, {NOTES} notes, 1 deletion per {DELETE_EVERY} releases"),
            ),
            ("ckpt_bytes", median(&acc.ckpt_bytes).to_string()),
            ("user_bytes", acc.user_bytes.to_string()),
        ],
        tracer: out_tracer,
    })
}

fn replay_events() -> Vec<cdb_obs::SpanEvent> {
    cdb_obs::recent_events()
        .into_iter()
        .filter(|e| e.name == "storage.recovery.replay")
        .collect()
}
