//! E26 — keyed operations through the database as the entry count
//! grows: does a keyed read, a keyed write and an indexed point query
//! cost the same at 8× the entries?
//!
//! A synthetic UniProt-shaped corpus (bdbms's case for DBMS-native
//! access paths; Figure 1) is loaded at 1k and 8k entries with `gn`
//! indexed. Every measured operation names a key drawn uniformly at
//! random from the whole corpus, as the end-to-end `curate` workload
//! draws its hot set. Both sizes stay loaded and their batches
//! alternate, so a slowdown of the shared host lands on both. The rows:
//!
//! * `e26_keyed/sharded/*` — the public handle, a single-shard
//!   [`ShardedDb`]: `field` on a snapshot, an indexed planned point
//!   query `σ[gn = …](entries)` through
//!   [`cdb_core::views::query_entries_planned`] on the shard snapshot,
//!   and `edit_field` / `add_entry` on the handle. A write there also
//!   publishes a fresh snapshot, which deep-copies the database state,
//!   so the write rows grow with the database for that reason alone.
//! * `e26_keyed/db/*` — `edit_field` / `add_entry` on the bare
//!   [`CuratedDatabase`] a shard wraps: the keyed write path (lookup,
//!   transaction, index reconciliation) without the snapshot copy.
//! * `e26_keyed/tree/field_by_node` — the control: the same read as
//!   `sharded/field` from entry nodes resolved beforehand, so no key is
//!   looked up. Its growth is what the tree's memory alone costs when a
//!   random entry is touched; `sharded/field` adds the key probe.
//!
//! `scripts/check.sh` gates growth: every `db/*` and `sharded/*` row
//! except the two sharded write rows must cost less than 3× at 8k what
//! it costs at 1k.
//!
//! The sharded database is loaded by replaying a WAL written by a bare
//! database: loading 8k entries through the handle would copy the
//! state once per entry.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cdb_core::views::query_entries_planned;
use cdb_core::{CuratedDatabase, ShardMap, ShardedDb, ShardedSnapshot};
use cdb_curation::NodeId;
use cdb_model::Atom;
use cdb_relalg::{plan_span_name, PlanOp, Pred, RaExpr};
use cdb_storage::{CheckpointStore, Io, MemIo, StorageError};
use criterion::{push_record, smoke_mode, write_json_report, Record};

const SIZES: [usize; 2] = [1_000, 8_000];
const VIEW: [&str; 3] = ["gn", "os", "fn"];

/// A WAL device the loader keeps a handle on, to read back the image.
#[derive(Debug, Clone)]
struct SharedIo(Arc<Mutex<MemIo>>);

impl Io for SharedIo {
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

/// `n` synthetic UniProt-shaped flat entries (Figure 1, after
/// `cdb_workload::uniprot`): an `ac` key plus `id, de, gn, os, fn, kw,
/// sq`. Gene names repeat every three entries, so a `gn` point query
/// matches about three. Entry `i` has key `P{i:06}`.
fn uniprot_entries(seed: u64, n: usize) -> Vec<(String, Vec<(&'static str, Atom)>)> {
    const ORGANISMS: [&str; 4] = [
        "HOMO SAPIENS",
        "MUS MUSCULUS",
        "RATTUS NORVEGICUS",
        "DANIO RERIO",
    ];
    let mut r = seed | 1;
    let mut next = move |m: u64| {
        r ^= r << 13;
        r ^= r >> 7;
        r ^= r << 17;
        r % m
    };
    (0..n)
        .map(|i| {
            let sq: String = (0..60)
                .map(|_| b"ACDEFGHIKLMNPQRSTVWY"[next(20) as usize] as char)
                .collect();
            let fields = vec![
                ("id", Atom::Str(format!("PROT{i}_HUMAN"))),
                ("de", Atom::Str(format!("PROTEIN {}", next(1000)))),
                ("gn", Atom::Str(format!("GN{}", i / 3))),
                ("os", Atom::Str(ORGANISMS[next(4) as usize].into())),
                ("fn", Atom::Str(format!("ACTIVATES PATHWAY {}", next(29)))),
                ("kw", Atom::Str("MEMBRANE; TRANSPORT".into())),
                ("sq", Atom::Str(sq)),
            ];
            (format!("P{i:06}"), fields)
        })
        .collect()
}

/// A bare database holding `n` entries with `gn` indexed, plus the
/// WAL image that recreates it.
fn load(n: usize) -> (CuratedDatabase, Vec<u8>) {
    let io = SharedIo(Arc::new(Mutex::new(MemIo::new())));
    let mut db = CuratedDatabase::open(
        "uniprot",
        "ac",
        Box::new(io.clone()),
        CheckpointStore::mem(),
    )
    .unwrap();
    db.create_index("gn").unwrap();
    for (i, (key, fields)) in uniprot_entries(26, n).iter().enumerate() {
        db.add_entry("loader", i as u64, key, fields).unwrap();
    }
    let image = io.0.lock().unwrap().bytes().to_vec();
    (db, image)
}

/// One corpus size, loaded twice: a bare database and a single-shard
/// handle replaying its WAL.
struct Fixture {
    n: usize,
    db: CuratedDatabase,
    sharded: ShardedDb,
    snap: ShardedSnapshot,
    keys: Vec<String>,
    /// Entry node of `keys[i]`.
    nodes: Vec<NodeId>,
}

impl Fixture {
    fn new(n: usize) -> Fixture {
        let (db, image) = load(n);
        let sharded = ShardedDb::open(
            "uniprot",
            "ac",
            ShardMap::single(),
            vec![(Box::new(MemIo::from_bytes(image)), CheckpointStore::mem())],
            Duration::ZERO,
        )
        .unwrap();
        let snap = sharded.snapshot();
        let keys: Vec<String> = (0..n).map(|i| format!("P{i:06}")).collect();
        let nodes = keys
            .iter()
            .map(|k| snap.shard(0).entry_node(k).unwrap())
            .collect();
        Fixture {
            n,
            db,
            sharded,
            snap,
            keys,
            nodes,
        }
    }

    /// The corpus index op number `i` names: uniform over the corpus
    /// (a splitmix64 hash of `i`, so every size draws its own order).
    fn pick(&self, i: usize) -> usize {
        let mut z = (i as u64 ^ self.n as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % self.n as u64) as usize
    }

    /// The key op number `i` names.
    fn key(&self, i: usize) -> &str {
        &self.keys[self.pick(i)]
    }
}

/// Per-op nanoseconds at each size: the fastest of `samples` batches of
/// `batch` calls, the sizes' batches alternating. `op` receives the
/// running op number. The fastest batch, not the median: interference
/// from the shared host only ever adds time.
fn measure(
    fixtures: &mut [Fixture],
    samples: usize,
    batch: usize,
    mut op: impl FnMut(&mut Fixture, usize),
) -> Vec<u128> {
    let mut best = vec![u128::MAX; fixtures.len()];
    for s in 0..samples {
        for (f, best) in fixtures.iter_mut().zip(&mut best) {
            let start = Instant::now();
            for i in 0..batch {
                op(f, s * batch + i);
            }
            *best = (*best).min(start.elapsed().as_nanos() / batch as u128);
        }
    }
    best
}

fn rows(op: &str, fixtures: &[Fixture], ns: &[u128], samples: usize, batch: usize) {
    for (f, &ns) in fixtures.iter().zip(ns) {
        row(op, f.n, ns, samples, batch, None);
    }
}

fn row(op: &str, n: usize, ns: u128, samples: usize, batch: usize, plan: Option<String>) {
    eprintln!("  e26_keyed/{op}/{n:<5} {:>10.2} us/op", ns as f64 / 1e3);
    push_record(Record {
        op: format!("e26_keyed/{op}/{n}"),
        size: Some(n as u64),
        ns_per_iter: ns,
        samples,
        iters_per_sample: batch as u64,
        shards: op.starts_with("sharded/").then_some(1),
        plan,
        ..Record::default()
    });
}

/// `σ[gn = …](entries)` for the gene of the entry op `i` picks.
fn point_query(f: &Fixture, i: usize) -> RaExpr {
    let gene = format!("GN{}", f.pick(i) / 3);
    RaExpr::scan("entries").select(Pred::col_eq_const("gn", gene))
}

fn main() {
    // Batches per row; a sharded write at 8k entries takes ~50 ms, so
    // those rows take fewer.
    let (samples, write_samples) = (30, 9);
    // (reads, queries, sharded writes, bare writes) per batch.
    let (reads, queries, sharded_writes, writes) = if smoke_mode() {
        (2_000, 100, 5, 200)
    } else {
        (20_000, 1_000, 20, 2_000)
    };
    eprintln!("\n== bench group: e26_keyed (gn indexed, single-shard ShardedDb) ==");
    let mut fixtures: Vec<Fixture> = SIZES.iter().map(|&n| Fixture::new(n)).collect();

    let ns = measure(&mut fixtures, samples, reads, |f, i| {
        std::hint::black_box(f.snap.field(f.key(i), "gn").unwrap());
    });
    rows("sharded/field", &fixtures, &ns, samples, reads);
    let ns = measure(&mut fixtures, samples, reads, |f, i| {
        let tree = &f.snap.shard(0).curated.tree;
        let gn = tree.child_by_label(f.nodes[f.pick(i)], "gn").unwrap();
        std::hint::black_box(tree.value(gn.unwrap()).unwrap().cloned());
    });
    rows("tree/field_by_node", &fixtures, &ns, samples, reads);

    let mut plan = None;
    for f in &fixtures {
        let shard = f.snap.shard(0);
        let (found, p, _) = query_entries_planned(shard, &VIEW, &point_query(f, 0)).unwrap();
        assert!(!found.is_empty(), "the point query finds its gene");
        assert!(
            p.ops()
                .iter()
                .any(|op| matches!(op, PlanOp::IndexLookup { .. })),
            "the point query probes the gn index"
        );
        plan = Some(
            p.ops()
                .iter()
                .map(|op| plan_span_name(op))
                .collect::<Vec<_>>()
                .join(" > "),
        );
    }
    let ns = measure(&mut fixtures, samples, queries, |f, i| {
        let shard = f.snap.shard(0);
        std::hint::black_box(query_entries_planned(shard, &VIEW, &point_query(f, i)).unwrap());
    });
    for (f, &ns) in fixtures.iter().zip(&ns) {
        row(
            "sharded/point_query",
            f.n,
            ns,
            samples,
            queries,
            plan.clone(),
        );
    }

    let ns = measure(&mut fixtures, samples, writes, |f, i| {
        let v = Atom::Str(format!("EDITED {i}"));
        let key = &f.keys[f.pick(i)];
        f.db.edit_field("curator", 1_000_000 + i as u64, key, "fn", v)
            .unwrap();
    });
    rows("db/edit_field", &fixtures, &ns, samples, writes);
    let fields = uniprot_entries(27, 1).remove(0).1;
    let ns = measure(&mut fixtures, samples, writes, |f, i| {
        f.db.add_entry(
            "curator",
            2_000_000 + i as u64,
            &format!("Q{i:06}"),
            &fields,
        )
        .unwrap();
    });
    rows("db/add_entry", &fixtures, &ns, samples, writes);

    let ns = measure(&mut fixtures, write_samples, sharded_writes, |f, i| {
        let v = Atom::Str(format!("EDITED {i}"));
        f.sharded
            .edit_field("curator", 1_000_000 + i as u64, f.key(i), "fn", v)
            .unwrap();
    });
    rows(
        "sharded/edit_field",
        &fixtures,
        &ns,
        write_samples,
        sharded_writes,
    );
    let ns = measure(&mut fixtures, write_samples, sharded_writes, |f, i| {
        f.sharded
            .add_entry(
                "curator",
                2_000_000 + i as u64,
                &format!("Q{i:06}"),
                &fields,
            )
            .unwrap();
    });
    rows(
        "sharded/add_entry",
        &fixtures,
        &ns,
        write_samples,
        sharded_writes,
    );
    write_json_report("keyed_ops", env!("CARGO_MANIFEST_DIR"));
}
