//! Sharded serving layer: linearizability and crash checking for
//! [`ShardedDb`] — per-shard WALs, routed writes, and 2PC cross-shard
//! curation (DESIGN.md §S27).
//!
//! The harness generalizes `tests/concurrent_serving.rs` to sharded
//! histories. Three layers:
//!
//! 1. **Deterministic interleaving driver** — 256 seeded histories of
//!    4 logical writers × 4 logical readers over 4 shards, scheduled
//!    one step at a time by a seeded [`StdRng`]. Each writer's script
//!    mixes single-shard writes on its home shard with *cross-shard*
//!    transactions (a merge whose absorbed entry lives on another
//!    shard, a split whose parts land on two shards).
//! 2. **Real threads** — the same scripts on OS threads, with the
//!    shard count taken from `CDB_TEST_SHARDS` (default 4) so
//!    `scripts/check.sh` can run the 1/2/num_cpus matrix. Shard count
//!    1 degenerates every cross-shard op into the single-shard
//!    delegate path — the oracles hold identically.
//! 3. **Crash under faults** — scripted cross-shard merges over
//!    fault-injected per-shard devices; after the crash, each shard
//!    recovers a gap-free prefix, and on honest devices the shards
//!    always *agree* about every cross-shard transaction (committed on
//!    both sides or on neither) and every acknowledged commit
//!    survives.
//!
//! Per-shard, every observed snapshot passes the §S23 checkers
//! (committed prefix, replay oracle, lifecycle retirement, epoch
//! coherence). On top of those, the sharded-specific oracle:
//!
//! - **Cross-shard atomicity** — an acked cross-shard merge is visible
//!   *atomically*: the absorbed id is retired on its shard **iff** the
//!   carried field has appeared on the kept entry's shard **iff** both
//!   registries record the fusion. A snapshot never contains one
//!   shard's half. Same for splits: the original is retired iff every
//!   part (each on its own shard) exists.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use cdb_core::views::query_entries_planned;
use cdb_core::{Fate, ShardMap, ShardedDb, ShardedSnapshot, Snapshot};
use cdb_curation::ops::Transaction;
use cdb_curation::replay::replay_and_verify;
use cdb_model::Atom;
use cdb_relalg::{PlanOp, Pred, RaExpr};
use cdb_storage::{CheckpointStore, FaultPlan, FaultyIo, Io, MemIo, StorageError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ------------------------------------------------------------ scripts

/// Key prefixes that land on distinct shards under the 4-shard map
/// used by the deterministic driver (bounds `h`, `p`, `x`).
const PFX: [&str; 4] = ["a", "h", "p", "x"];

/// One scripted curation step against a [`ShardedDb`].
#[derive(Debug, Clone)]
enum SOp {
    Add(String, Vec<(String, Atom)>),
    Edit(String, i64),
    Annotate(String),
    /// Cross-shard under the 4-shard map: `kept` on the writer's home
    /// prefix, `absorbed` on the next one.
    Merge(String, String),
    /// Cross-shard under the 4-shard map: parts on two prefixes.
    Split(String, String, String),
    Delete(String),
    Publish(String),
}

/// An acked cross-shard merge to hold the atomicity oracle against:
/// `absorbed` carried `field`, which `kept` lacked.
#[derive(Debug, Clone)]
struct MergeMark {
    kept: String,
    absorbed: String,
    field: String,
}

/// An acked cross-shard split: `orig` fissioned into `a` and `b`.
#[derive(Debug, Clone)]
struct SplitMark {
    orig: String,
    a: String,
    b: String,
}

/// Writer `w`'s script for one `round`: single-shard ops on its home
/// prefix interleaved with a cross-shard merge and a cross-shard
/// split. Key namespaces are disjoint per (writer, round) so any
/// interleaving is conflict-free.
fn shard_script(w: usize, round: usize) -> (Vec<SOp>, MergeMark, SplitMark) {
    let home = PFX[w % PFX.len()];
    let other = PFX[(w + 1) % PFX.len()];
    let k = |p: &str, n: usize| format!("{p}{w}r{round}n{n}");
    let (h0, h1, h2) = (k(home, 0), k(home, 1), k(home, 2));
    let (o0, o1, o2) = (k(other, 3), k(other, 4), k(other, 5));
    let mfield = format!("m{w}r{round}");
    let v = |n: i64| ("v".to_string(), Atom::Int(n));
    let ops = vec![
        SOp::Add(h0.clone(), vec![v(0)]),
        SOp::Add(h1.clone(), vec![v(0)]),
        SOp::Add(
            o0.clone(),
            vec![v(0), (mfield.clone(), Atom::Int(w as i64))],
        ),
        SOp::Edit(h0.clone(), 7),
        SOp::Annotate(h1.clone()),
        SOp::Merge(h0.clone(), o0.clone()),
        SOp::Add(o1.clone(), vec![v(0)]),
        SOp::Split(o1.clone(), h2.clone(), o2.clone()),
        SOp::Edit(h2.clone(), 9),
        SOp::Delete(h1),
        SOp::Publish(format!("w{w}r{round}")),
    ];
    (
        ops,
        MergeMark {
            kept: h0,
            absorbed: o0,
            field: mfield,
        },
        SplitMark {
            orig: o1,
            a: h2,
            b: o2,
        },
    )
}

/// Applies one scripted step; logical times are unique across the
/// whole history.
fn apply_sop(db: &ShardedDb, w: u64, time: u64, op: &SOp) {
    let curator = format!("c{w}");
    match op {
        SOp::Add(key, fields) => {
            let fields: Vec<(&str, Atom)> = fields
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            db.add_entry(&curator, time, key, &fields).unwrap();
        }
        SOp::Edit(key, v) => db
            .edit_field(&curator, time, key, "v", Atom::Int(*v))
            .unwrap(),
        SOp::Annotate(key) => db
            .annotate(key, Some("v"), &curator, "checked", time)
            .unwrap(),
        SOp::Merge(kept, absorbed) => db.merge_entries(&curator, time, kept, absorbed).unwrap(),
        SOp::Split(orig, a, b) => db
            .split_entry(
                &curator,
                time,
                orig,
                &[
                    (a, vec![("v", Atom::Int(1))]),
                    (b, vec![("v", Atom::Int(2))]),
                ],
            )
            .unwrap(),
        SOp::Delete(key) => db.delete_entry(&curator, time, key).unwrap(),
        SOp::Publish(label) => {
            db.publish(label.clone()).unwrap();
        }
    }
}

// ------------------------------------------------------------ oracles

/// The identity of a transaction for prefix comparison.
fn ids(log: &[Transaction]) -> Vec<(u64, String, u64)> {
    log.iter()
        .map(|t| (t.id.0, t.curator.clone(), t.time))
        .collect()
}

/// The §S23 single-shard checker, applied to each shard of each
/// observed sharded snapshot: committed prefix of that shard's final
/// log, replay oracle, lifecycle retirement.
fn check_shard_snapshot(s: &Snapshot, final_ids: &[(u64, String, u64)]) -> Result<(), String> {
    let sids = ids(&s.curated.log);
    if sids.len() > final_ids.len() {
        return Err(format!(
            "shard log ({} txns) is longer than its final log ({})",
            sids.len(),
            final_ids.len()
        ));
    }
    if sids[..] != final_ids[..sids.len()] {
        return Err(format!(
            "shard log is not a prefix of its final log (epoch {})",
            s.epoch()
        ));
    }
    replay_and_verify(&s.curated).map_err(|e| format!("shard snapshot != replay: {e}"))?;
    for key in s.entry_keys().map_err(|e| format!("entry_keys: {e}"))? {
        if !s.lifecycle.is_active(&key) {
            return Err(format!("entry {key} visible but its id is not active"));
        }
    }
    Ok(())
}

/// The sharded-specific oracle: no snapshot ever contains one half of
/// a cross-shard transaction. Holds at *every* point in the history —
/// before the transaction both sides show nothing, after it both show
/// everything.
fn check_cross_atomicity(
    s: &ShardedSnapshot,
    merges: &[MergeMark],
    splits: &[SplitMark],
) -> Result<(), String> {
    for m in merges {
        let retired = matches!(
            s.for_key(&m.absorbed).lifecycle.fate(&m.absorbed),
            Ok(Fate::MergedInto(_))
        );
        let carried = s.for_key(&m.kept).field(&m.kept, &m.field).is_ok();
        if retired != carried {
            return Err(format!(
                "half a merge visible: {} retired={retired} but {}.{} carried={carried}",
                m.absorbed, m.kept, m.field
            ));
        }
        let kept_side_knows = matches!(
            s.for_key(&m.kept).lifecycle.fate(&m.absorbed),
            Ok(Fate::MergedInto(_))
        );
        if kept_side_knows != retired {
            return Err(format!(
                "registries disagree about merge of {}: absorbed side {retired}, kept side {kept_side_knows}",
                m.absorbed
            ));
        }
    }
    for sp in splits {
        let retired = matches!(
            s.for_key(&sp.orig).lifecycle.fate(&sp.orig),
            Ok(Fate::SplitInto(_))
        );
        let a = s.for_key(&sp.a).field(&sp.a, "v").is_ok();
        let b = s.for_key(&sp.b).field(&sp.b, "v").is_ok();
        if a != retired || b != retired {
            return Err(format!(
                "half a split visible: {} retired={retired} but parts exist ({}={a}, {}={b})",
                sp.orig, sp.a, sp.b
            ));
        }
    }
    Ok(())
}

/// Per-shard epoch coherence: one epoch ⇒ one log length, never a
/// shorter log at a later epoch.
fn check_shard_epochs<'a>(snaps: impl Iterator<Item = &'a Snapshot>) -> Result<(), String> {
    let mut by_epoch: std::collections::BTreeMap<u64, usize> = Default::default();
    for s in snaps {
        let len = s.curated.log.len();
        let entry = by_epoch.entry(s.epoch()).or_insert(len);
        if *entry != len {
            return Err(format!(
                "epoch {} observed with log lengths {} and {len}",
                s.epoch(),
                *entry
            ));
        }
    }
    let mut prev = 0usize;
    for (epoch, len) in by_epoch {
        if len < prev {
            return Err(format!(
                "epoch {epoch} exposes a shorter log ({len} < {prev})"
            ));
        }
        prev = len;
    }
    Ok(())
}

fn total_len(s: &ShardedSnapshot) -> usize {
    s.shards().iter().map(|x| x.curated.log.len()).sum()
}

// ---------------------------------------- deterministic interleavings

proptest! {
    /// 256 seeded histories of 4 writers × 4 readers over 4 shards:
    /// every snapshot any reader ever took is per-shard a committed
    /// prefix that replays to itself, cross-shard transactions are
    /// atomically visible, per-shard epochs cohere, and the combined
    /// epoch is monotone per reader. Failures replay byte-for-byte
    /// from the case seed.
    #[test]
    fn sharded_seeded_histories_are_coherent(seed in 0u64..1_000_000) {
        const WRITERS: usize = 4;
        const READERS: usize = 4;
        const SHARDS: usize = 4;
        let map = ShardMap::with_bounds(vec!["h".into(), "p".into(), "x".into()]);
        let db = ShardedDb::new("shard-conc", "id", map);
        let mut rng = StdRng::seed_from_u64(seed);

        let mut scripts = Vec::new();
        let mut merges = Vec::new();
        let mut splits = Vec::new();
        for w in 0..WRITERS {
            let (ops, m, s) = shard_script(w, 0);
            scripts.push(ops);
            merges.push(m);
            splits.push(s);
        }
        let mut cursor = [0usize; WRITERS];
        let mut reader_state = [(0u64, 0usize); READERS];
        let mut observed: Vec<ShardedSnapshot> = Vec::new();

        while cursor.iter().zip(&scripts).any(|(c, s)| *c < s.len()) {
            let actor = rng.gen_range(0..WRITERS + READERS);
            if actor < WRITERS {
                let w = actor;
                if cursor[w] < scripts[w].len() {
                    let time = (w as u64 + 1) * 100_000 + cursor[w] as u64;
                    apply_sop(&db, w as u64, time, &scripts[w][cursor[w]]);
                    cursor[w] += 1;
                }
            } else {
                let r = actor - WRITERS;
                let snap = db.snapshot();
                let (prev_epoch, prev_len) = reader_state[r];
                prop_assert!(
                    snap.epoch() >= prev_epoch,
                    "reader {r} saw the combined epoch go backwards: {} < {prev_epoch}",
                    snap.epoch()
                );
                prop_assert!(total_len(&snap) >= prev_len, "reader {r} saw the history shrink");
                if let Err(msg) = check_cross_atomicity(&snap, &merges, &splits) {
                    return Err(TestCaseError::fail(msg));
                }
                reader_state[r] = (snap.epoch(), total_len(&snap));
                observed.push(snap);
            }
        }

        let fin = db.snapshot();
        let final_ids: Vec<Vec<_>> = fin.shards().iter().map(|s| ids(&s.curated.log)).collect();
        for snap in observed.iter().chain(std::iter::once(&fin)) {
            for (i, shard) in snap.shards().iter().enumerate() {
                if let Err(msg) = check_shard_snapshot(shard, &final_ids[i]) {
                    return Err(TestCaseError::fail(format!("shard {i}: {msg}")));
                }
            }
            if let Err(msg) = check_cross_atomicity(snap, &merges, &splits) {
                return Err(TestCaseError::fail(msg));
            }
        }
        for i in 0..SHARDS {
            let it = observed.iter().chain(std::iter::once(&fin)).map(|s| s.shard(i));
            if let Err(msg) = check_shard_epochs(it) {
                return Err(TestCaseError::fail(format!("shard {i}: {msg}")));
            }
        }

        // Every writer committed exactly one cross-shard merge and one
        // cross-shard split under this map (home ≠ other always).
        let m = db.metrics_snapshot();
        prop_assert_eq!(
            m.counters.get("core.sharded.cross.commits").copied().unwrap_or(0),
            (2 * WRITERS) as u64,
            "unexpected cross-shard commit count"
        );
        prop_assert_eq!(
            m.counters.get("core.sharded.cross.aborts").copied().unwrap_or(0),
            0u64,
            "no cross-shard transaction should have aborted"
        );
    }
}

// ----------------------------------------------------- real threads

fn env_shards() -> usize {
    std::env::var("CDB_TEST_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// N writer threads × M reader threads over one `ShardedDb` with a
/// configurable shard count; readers verify combined-epoch
/// monotonicity, per-shard prefix order, and cross-shard atomicity
/// *live*, then everything is re-checked against the final state.
fn sharded_real_thread_history(shards: usize, writers: usize, readers: usize, rounds: usize) {
    let db = ShardedDb::new("shard-mt", "id", ShardMap::uniform(shards));
    let mut merges = Vec::new();
    let mut splits = Vec::new();
    for w in 0..writers {
        for round in 0..rounds {
            let (_, m, s) = shard_script(w, round);
            merges.push(m);
            splits.push(s);
        }
    }
    let marks = Arc::new((merges, splits));
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let reader_handles: Vec<_> = (0..readers)
        .map(|r| {
            let db = db.clone();
            let done = done.clone();
            let marks = marks.clone();
            thread::spawn(move || {
                let mut prev: Option<ShardedSnapshot> = None;
                let mut kept: Vec<ShardedSnapshot> = Vec::new();
                let mut samples = 0usize;
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    let snap = db.snapshot();
                    if let Some(p) = &prev {
                        assert!(
                            snap.epoch() >= p.epoch(),
                            "reader {r}: combined epoch went backwards"
                        );
                        for (i, (ps, ns)) in p.shards().iter().zip(snap.shards()).enumerate() {
                            let pids = ids(&ps.curated.log);
                            let nids = ids(&ns.curated.log);
                            assert!(
                                pids.len() <= nids.len() && pids[..] == nids[..pids.len()],
                                "reader {r}: shard {i} log is not a prefix of its successor"
                            );
                        }
                    }
                    check_cross_atomicity(&snap, &marks.0, &marks.1)
                        .unwrap_or_else(|msg| panic!("reader {r}: {msg}"));
                    samples += 1;
                    if samples.is_multiple_of(7) {
                        kept.push(snap.clone());
                    }
                    prev = Some(snap);
                    thread::yield_now();
                }
                kept.extend(prev);
                kept
            })
        })
        .collect();

    let writer_handles: Vec<_> = (0..writers)
        .map(|w| {
            let db = db.clone();
            thread::spawn(move || {
                for round in 0..rounds {
                    let (script, _, _) = shard_script(w, round);
                    for (step, op) in script.iter().enumerate() {
                        let time =
                            (w as u64 + 1) * 1_000_000 + (round * script.len() + step) as u64;
                        apply_sop(&db, w as u64, time, op);
                    }
                }
            })
        })
        .collect();

    for h in writer_handles {
        h.join().unwrap();
    }
    done.store(true, std::sync::atomic::Ordering::Release);

    // Final-state completeness: each (writer, round) script leaves
    // exactly {kept, part a, part b} active, everything else retired.
    let fin = db.snapshot();
    let mut expect = BTreeSet::new();
    for m in &marks.0 {
        expect.insert(m.kept.clone());
    }
    for s in &marks.1 {
        expect.insert(s.a.clone());
        expect.insert(s.b.clone());
    }
    let got: BTreeSet<String> = fin.entry_keys().unwrap().into_iter().collect();
    assert_eq!(got, expect, "final entry set is wrong");

    let final_ids: Vec<Vec<_>> = fin.shards().iter().map(|s| ids(&s.curated.log)).collect();
    let mut all: Vec<ShardedSnapshot> = vec![fin];
    for h in reader_handles {
        all.extend(h.join().unwrap());
    }
    for snap in &all {
        for (i, shard) in snap.shards().iter().enumerate() {
            check_shard_snapshot(shard, &final_ids[i])
                .unwrap_or_else(|msg| panic!("shard {i}: {msg}"));
        }
        check_cross_atomicity(snap, &marks.0, &marks.1).unwrap_or_else(|msg| panic!("{msg}"));
    }
    for i in 0..shards {
        check_shard_epochs(all.iter().map(|s| s.shard(i)))
            .unwrap_or_else(|msg| panic!("shard {i} epochs: {msg}"));
    }
}

/// Real OS threads; shard count from `CDB_TEST_SHARDS` (default 4) —
/// `scripts/check.sh` runs this under a 1/2/num_cpus matrix. Shard
/// count 1 exercises the delegate (non-2PC) path of every cross op.
#[test]
fn sharded_real_thread_history_is_coherent() {
    sharded_real_thread_history(env_shards(), 4, 4, 2);
}

/// Stress target (not part of the default run):
///
/// ```text
/// cargo test --release --test sharded_serving -- --ignored
/// ```
#[test]
#[ignore = "stress target: cargo test --release --test sharded_serving -- --ignored"]
fn sharded_stress_history() {
    sharded_real_thread_history(8, 8, 8, 4);
}

// ------------------------------------------- crash under faults

/// A fault-injected device shared between a shard under test and the
/// checker (which photographs the durable image post-crash).
#[derive(Debug, Clone)]
struct SharedFaulty(Arc<Mutex<FaultyIo>>);

impl Io for SharedFaulty {
    fn len(&self) -> Result<u64, StorageError> {
        self.0.lock().unwrap().len()
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        self.0.lock().unwrap().read_at(offset, buf)
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.0.lock().unwrap().append(bytes)
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.0.lock().unwrap().flush()
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.0.lock().unwrap().truncate(len)
    }
}

proptest! {
    /// Scripted cross-shard merges over two shards, one on a
    /// fault-injected device; after the crash each shard recovers a
    /// gap-free prefix of its own append order, and on honest devices
    /// (syncs may fail but never lie) the recovered shards *agree*
    /// about every cross-shard transaction — committed on both sides
    /// or on neither, with every acknowledged commit durable.
    #[test]
    fn sharded_crash_recovery_keeps_shards_agreeing(
        seed in 0u64..1_000_000,
        fault_sel in 0usize..3,
        fault_n in 0u64..24,
        faulty_shard in 0usize..2,
    ) {
        const SHARDS: usize = 2;
        let plan = match fault_sel {
            0 => FaultPlan { fail_flush: Some(fault_n as u32 % 8 + 2), ..Default::default() },
            1 => FaultPlan { flush_cap: Some(64 + fault_n * 48), ..Default::default() },
            _ => FaultPlan { torn_write_at: Some(32 + fault_n * 32), ..Default::default() },
        };
        let honest = fault_sel == 0;
        let devs: Vec<SharedFaulty> = (0..SHARDS)
            .map(|i| {
                let p = if i == faulty_shard { plan.clone() } else { FaultPlan::default() };
                SharedFaulty(Arc::new(Mutex::new(FaultyIo::new(p))))
            })
            .collect();
        let map = ShardMap::uniform(SHARDS);
        let db = ShardedDb::open(
            "shard-crash",
            "id",
            map.clone(),
            devs.iter()
                .map(|d| (Box::new(d.clone()) as Box<dyn Io>, CheckpointStore::mem()))
                .collect(),
            Duration::ZERO,
        )
        .map_err(|e| TestCaseError::fail(format!("open: {e}")))?;

        // Two keys guaranteed to land on different shards of the
        // uniform 2-shard map.
        let shard_key = |s: usize, n: u64| if s == 0 {
            format!("A{n}")
        } else {
            format!("z{n}")
        };
        prop_assert_eq!(map.route(&shard_key(0, 0)), 0);
        prop_assert_eq!(map.route(&shard_key(1, 0)), 1);

        let mut rng = StdRng::seed_from_u64(seed);
        let rounds = rng.gen_range(3u64..10);
        let mut acked_adds: Vec<(usize, u64)> = Vec::new(); // (shard, time)
        let mut attempted: Vec<MergeMark> = Vec::new();
        let mut acked_merges: Vec<MergeMark> = Vec::new();
        for n in 0..rounds {
            // kept on a seed-chosen shard, absorbed on the other.
            let ks = rng.gen_range(0..SHARDS);
            let kept = shard_key(ks, n);
            let absorbed = shard_key(1 - ks, n);
            let mfield = format!("m{n}");
            let t = n * 10;
            let kept_ok = db
                .add_entry("c", t, &kept, &[("v", Atom::Int(n as i64))])
                .is_ok();
            if kept_ok {
                acked_adds.push((ks, t));
            }
            let abs_ok = db
                .add_entry("c", t + 1, &absorbed, &[("v", Atom::Int(0)), (&mfield, Atom::Int(1))])
                .is_ok();
            if abs_ok {
                acked_adds.push((1 - ks, t + 1));
            }
            let mark = MergeMark { kept, absorbed, field: mfield };
            attempted.push(mark.clone());
            if kept_ok && abs_ok && db.merge_entries("c", t + 2, &mark.kept, &mark.absorbed).is_ok() {
                acked_merges.push(mark);
            }
        }

        // Crash: photograph the durable images and recover.
        let fin = db.snapshot();
        let final_ids: Vec<Vec<_>> = fin.shards().iter().map(|s| ids(&s.curated.log)).collect();
        let images: Vec<Vec<u8>> = devs.iter().map(|d| d.0.lock().unwrap().durable_image()).collect();
        let reopened = ShardedDb::open(
            "shard-crash",
            "id",
            map,
            images
                .into_iter()
                .map(|img| (Box::new(MemIo::from_bytes(img)) as Box<dyn Io>, CheckpointStore::mem()))
                .collect(),
            Duration::ZERO,
        )
        .map_err(|e| TestCaseError::fail(format!("recovery failed outright: {e}")))?;
        let rsnap = reopened.snapshot();

        // Each shard recovered a gap-free prefix of its append order.
        for (i, shard) in rsnap.shards().iter().enumerate() {
            let rids = ids(&shard.curated.log);
            prop_assert!(
                rids.len() <= final_ids[i].len(),
                "shard {i} recovered more transactions than were appended"
            );
            prop_assert_eq!(
                &rids[..],
                &final_ids[i][..rids.len()],
                "shard {i} recovered log is not a gap-free prefix"
            );
            replay_and_verify(&shard.curated)
                .map_err(|e| TestCaseError::fail(format!("shard {i} replay: {e}")))?;
        }

        if honest {
            // Never half-applied, and both registries agree, for every
            // merge that was ever *attempted* (committed ones show on
            // both sides, aborted/unreached ones on neither).
            if let Err(msg) = check_cross_atomicity(&rsnap, &attempted, &[]) {
                return Err(TestCaseError::fail(msg));
            }
            // Every ack survives: single-shard adds by (shard, time)…
            for (s, t) in &acked_adds {
                prop_assert!(
                    rsnap.shard(*s).curated.log.iter().any(|x| x.time == *t),
                    "acked add t={t} lost from shard {s} by an honest device"
                );
            }
            // …and acked cross-shard merges as committed-on-both-sides.
            for m in &acked_merges {
                let retired = matches!(
                    rsnap.for_key(&m.absorbed).lifecycle.fate(&m.absorbed),
                    Ok(Fate::MergedInto(_))
                );
                prop_assert!(
                    retired,
                    "acked cross-shard merge of {} lost by an honest device",
                    m.absorbed
                );
                prop_assert!(
                    rsnap.for_key(&m.kept).field(&m.kept, &m.field).is_ok(),
                    "acked merge committed on one shard but not the other"
                );
            }
        }
    }
}

// ------------------------------------- indexes across cross-shard ops

/// Asserts every shard's `gn` postings equal a rebuild from that
/// shard's entries (missing fields index as `Unit`).
fn assert_shard_indexes_match_rebuild(snap: &ShardedSnapshot) {
    for (i, s) in snap.shards().iter().enumerate() {
        let mut expect: BTreeMap<Atom, BTreeSet<String>> = BTreeMap::new();
        for k in s.entry_keys().unwrap() {
            let v = s.field(&k, "gn").unwrap_or(Atom::Unit);
            expect.entry(v).or_default().insert(k);
        }
        let got: BTreeMap<Atom, BTreeSet<String>> = s
            .field_index("gn")
            .expect("gn indexed on every shard")
            .postings()
            .map(|(v, ks)| (v.clone(), ks.clone()))
            .collect();
        assert_eq!(
            got, expect,
            "shard {i}: gn postings diverged from a rebuild"
        );
    }
}

/// Two shards split at `"M"` with `gn` indexed.
fn two_shards_indexing_gn() -> ShardedDb {
    let db = ShardedDb::new("uniprot", "ac", ShardMap::with_bounds(vec!["M".into()]));
    db.create_index("gn").unwrap();
    db
}

/// The indexed planned point query `gn = value` on one shard: its
/// plan must probe the index, and its rows are the matching keys.
fn planned_gn_keys(s: &Snapshot, value: &str) -> Vec<Atom> {
    let q = RaExpr::scan("entries").select(Pred::col_eq_const("gn", value));
    let (rows, plan, _) = query_entries_planned(s, &["gn"], &q).unwrap();
    assert!(
        plan.ops()
            .iter()
            .any(|op| matches!(op, PlanOp::IndexLookup { .. })),
        "the point query should use the gn index"
    );
    rows.tuples().iter().map(|t| t[0].clone()).collect()
}

/// A cross-shard fusion carries `gn` onto the kept entry's shard and
/// deletes the absorbed entry on the other: both shards' indexes must
/// follow, or an indexed query misses the kept entry.
#[test]
fn cross_shard_merge_reconciles_both_shards_indexes() {
    let db = two_shards_indexing_gn();
    db.add_entry("c", 1, "A1", &[]).unwrap();
    db.add_entry("c", 2, "Z1", &[("gn", Atom::Str("G".into()))])
        .unwrap();
    db.merge_entries("c", 3, "A1", "Z1").unwrap();
    let snap = db.snapshot();
    assert_eq!(snap.field("A1", "gn").unwrap(), Atom::Str("G".into()));
    assert_shard_indexes_match_rebuild(&snap);
    assert_eq!(
        planned_gn_keys(snap.shard(0), "G"),
        [Atom::Str("A1".into())]
    );
    assert!(planned_gn_keys(snap.shard(1), "G").is_empty());
}

/// A cross-shard fission creates parts on both shards and deletes the
/// original on one: the new parts are indexed where they land and the
/// original is unlinked.
#[test]
fn cross_shard_split_reconciles_both_shards_indexes() {
    let db = two_shards_indexing_gn();
    db.add_entry("c", 1, "A1", &[("gn", Atom::Str("G".into()))])
        .unwrap();
    db.split_entry(
        "c",
        2,
        "A1",
        &[
            ("B1", vec![("gn", Atom::Str("H".into()))]),
            ("Z2", vec![("gn", Atom::Str("G".into()))]),
        ],
    )
    .unwrap();
    let snap = db.snapshot();
    assert_shard_indexes_match_rebuild(&snap);
    assert!(planned_gn_keys(snap.shard(0), "G").is_empty());
    assert_eq!(
        planned_gn_keys(snap.shard(0), "H"),
        [Atom::Str("B1".into())]
    );
    assert_eq!(
        planned_gn_keys(snap.shard(1), "G"),
        [Atom::Str("Z2".into())]
    );
}
