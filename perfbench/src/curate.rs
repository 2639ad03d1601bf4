//! `curate`: interactive curation served over the wire. A two-shard
//! `ShardedDb` over in-memory WAL devices with group commit, behind
//! `cdb-server` on loopback; two closed-loop connections, each owning a
//! disjoint key set and checking every read against its own model.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cdb_core::model::Atom;
use cdb_core::storage::{CheckpointStore, Io, MemIo};
use cdb_core::{ShardMap, ShardedDb, DEFAULT_BATCH_WINDOW};
use cdb_server::{Client, ClientError, Server, ServerConfig, TcpTransport};

use crate::corpus::{split_bounds, Corpus, Entry, Rng, EDITABLE, FIELDS};
use crate::trace::Tracer;
use crate::{median, ms, quantile, write_growth, Ctx, Outcome};

const ENTRIES: usize = 400;
const SHARDS: usize = 2;
const CONNS: usize = 2;
/// Fresh entries set aside per connection for `Add` requests.
const SPARE: usize = 1500;
/// How many times set-up runs; `setup_s` is the median.
const SETUPS: usize = 5;
/// Share of owned keys that form a connection's hot set, and the share
/// of reads that go to it.
const HOT_SHARE: f64 = 0.1;
const HOT_READS: f64 = 0.8;

/// One connection's view of the keys it owns.
struct Model {
    entries: BTreeMap<String, BTreeMap<String, Atom>>,
    /// Live owned keys per shard (merges and reads pick from these).
    live: Vec<Vec<String>>,
    hot: Vec<String>,
    spare: Vec<Entry>,
    gone: Vec<String>,
}

impl Model {
    fn remove(&mut self, key: &str) {
        self.entries.remove(key);
        for l in &mut self.live {
            l.retain(|k| k != key);
        }
        self.hot.retain(|k| k != key);
        self.gone.push(key.to_owned());
    }

    fn any_live(&self, rng: &mut Rng) -> String {
        let keys: Vec<&String> = self.live.iter().flatten().collect();
        keys[rng.below(keys.len())].clone()
    }
}

struct Setup {
    db: ShardedDb,
    map: ShardMap,
    server: Server,
    clients: Vec<Client<TcpTransport>>,
    models: Vec<Model>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let mut corpus = Corpus::new(seed, ENTRIES);
    let entries = corpus.entries(ENTRIES);
    let keys: Vec<String> = entries.iter().map(|e| e.ac.clone()).collect();
    let map = ShardMap::with_bounds(split_bounds(&keys, SHARDS));
    let devices: Vec<(Box<dyn Io>, CheckpointStore)> = (0..SHARDS)
        .map(|_| {
            (
                Box::new(MemIo::new()) as Box<dyn Io>,
                CheckpointStore::mem(),
            )
        })
        .collect();
    let db = ShardedDb::open("uniprot", "ac", map.clone(), devices, DEFAULT_BATCH_WINDOW)
        .map_err(|e| format!("open: {e}"))?;
    for (i, e) in entries.iter().enumerate() {
        db.add_entry("loader", i as u64, &e.ac, &e.field_list())
            .map_err(|e| format!("load: {e}"))?;
    }
    let snap = db.snapshot();
    for s in 0..SHARDS {
        let n = snap.shard(s).entry_keys().map_err(|e| e.to_string())?.len();
        if n == 0 {
            return Err(format!("shard {s} holds no entries"));
        }
    }
    let mut models: Vec<Model> = (0..CONNS)
        .map(|_| Model {
            entries: BTreeMap::new(),
            live: vec![Vec::new(); SHARDS],
            hot: Vec::new(),
            spare: Vec::new(),
            gone: Vec::new(),
        })
        .collect();
    for (i, e) in entries.into_iter().enumerate() {
        let m = &mut models[i % CONNS];
        m.live[map.route(&e.ac)].push(e.ac.clone());
        m.entries.insert(e.ac, e.fields);
    }
    // The hot set is a random sample, not the first entries inserted:
    // key lookups scan entries in insertion order.
    let mut rng = Rng::new(seed ^ 0x407);
    for m in &mut models {
        let keys: Vec<&String> = m.entries.keys().collect();
        while m.hot.len() < (HOT_SHARE * keys.len() as f64) as usize {
            let k = keys[rng.below(keys.len())];
            if !m.hot.contains(k) {
                m.hot.push(k.clone());
            }
        }
        m.spare = corpus.entries(SPARE);
    }
    let server = Server::bind(
        db.clone(),
        "127.0.0.1:0",
        ServerConfig {
            workers: 4,
            slots: 8,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut clients = Vec::new();
    for c in 0..CONNS {
        let mut client = Client::dial(&addr).map_err(|e| format!("dial: {e}"))?;
        client
            .hello(&format!("perfbench-{c}"))
            .map_err(|e| format!("hello: {e}"))?;
        clients.push(client);
    }
    Ok(Setup {
        db,
        map,
        server,
        clients,
        models,
    })
}

/// What one connection measured.
#[derive(Default)]
struct ConnResult {
    attempted: u64,
    failed: u64,
    reads_ms: Vec<f64>,
    /// Completion time of every operation, in seconds since the start.
    done_s: Vec<f64>,
    /// `(seconds since the run started, latency ms)`.
    writes: Vec<(f64, f64)>,
}

#[allow(clippy::too_many_arguments)]
fn drive(
    conn: usize,
    mut client: Client<TcpTransport>,
    model: &mut Model,
    map: &ShardMap,
    db: &ShardedDb,
    seed: u64,
    start: Instant,
    deadline: Instant,
    tracer: &mut Tracer,
) -> ConnResult {
    let mut rng = Rng::new(seed ^ (0xC0FFEE + conn as u64));
    let mut corpus_rng = Corpus::new(seed ^ (0xBEEF + conn as u64), 3);
    let mut r = ConnResult::default();
    let curator = format!("curator{conn}");
    let mut op = 0u64;
    while Instant::now() < deadline {
        op += 1;
        let time = 1_000_000 + op * CONNS as u64 + conn as u64;
        r.attempted += 1;
        let roll = rng.next_u64() % 1000;
        if roll >= 200 {
            // GetField, mostly on the hot set.
            let key = if !model.hot.is_empty() && rng.chance(HOT_READS) {
                rng.pick(&model.hot).clone()
            } else {
                model.any_live(&mut rng)
            };
            let field = *rng.pick(&FIELDS);
            let t0 = Instant::now();
            let got = tracer.time("server.get", || client.get(&key, field));
            r.reads_ms.push(ms(t0.elapsed()));
            let want = &model.entries[&key][field];
            match got {
                Ok((_, v)) if &v == want => {}
                _ => r.failed += 1,
            }
            r.done_s.push(start.elapsed().as_secs_f64());
            if tracer.on() {
                let snap = tracer.time("core.snapshot", || db.snapshot());
                let v = tracer.time("core.lookup", || snap.field(&key, field));
                if v.as_ref().ok() != Some(want) {
                    r.failed += 1;
                }
            }
            continue;
        }
        let t0 = Instant::now();
        let ok: Result<(), ClientError> = if roll < 160 {
            let key = model.any_live(&mut rng);
            let field = *rng.pick(&EDITABLE);
            let value = corpus_rng.edit_value(field, time);
            let out = tracer.time("server.edit", || {
                client.edit(&curator, time, &key, field, value.clone())
            });
            if out.is_ok() {
                model
                    .entries
                    .get_mut(&key)
                    .expect("live")
                    .insert(field.to_owned(), value);
            }
            out
        } else if roll < 175 {
            let Some(e) = model.spare.pop() else {
                r.attempted -= 1;
                continue;
            };
            let fields: Vec<(String, Atom)> = e
                .field_list()
                .into_iter()
                .map(|(f, v)| (f.to_owned(), v))
                .collect();
            let out = tracer.time("server.add", || client.add(&curator, time, &e.ac, fields));
            if out.is_ok() {
                model.live[map.route(&e.ac)].push(e.ac.clone());
                model.entries.insert(e.ac, e.fields);
            }
            out.map(|_| ())
        } else if roll < 190 {
            let key = model.any_live(&mut rng);
            let text = format!("note {time}");
            tracer.time("server.annotate", || {
                client.annotate(&key, Some("fn"), &curator, &text, time)
            })
        } else {
            // Fusion: half the time across the shard boundary (2PC).
            let ks = rng.below(SHARDS);
            let os = if rng.chance(0.5) {
                (ks + 1) % SHARDS
            } else {
                ks
            };
            let cold = |keys: &Vec<String>| -> Vec<String> {
                keys.iter()
                    .filter(|k| !model.hot.contains(k))
                    .cloned()
                    .collect()
            };
            let (kc, oc) = (cold(&model.live[ks]), cold(&model.live[os]));
            let kept = kc.get(rng.below(kc.len().max(1))).cloned();
            let absorbed = oc.get(rng.below(oc.len().max(1))).cloned();
            let (Some(kept), Some(absorbed)) = (kept, absorbed) else {
                r.attempted -= 1;
                continue;
            };
            if kept == absorbed {
                r.attempted -= 1;
                continue;
            }
            let out = tracer.time("server.merge", || {
                client.merge(&curator, time, &kept, &absorbed)
            });
            if out.is_ok() {
                let carried = model.entries[&absorbed].clone();
                let k = model.entries.get_mut(&kept).expect("live");
                for (f, v) in carried {
                    k.entry(f).or_insert(v);
                }
                model.remove(&absorbed);
            }
            out
        };
        r.writes
            .push((t0.duration_since(start).as_secs_f64(), ms(t0.elapsed())));
        r.done_s.push(start.elapsed().as_secs_f64());
        if ok.is_err() {
            r.failed += 1;
        }
    }
    let _ = client.close();
    r
}

/// After the run: every owned entry equals its connection's model, merged
/// keys are gone, and the live key set is exactly the models' union.
fn final_check(db: &ShardedDb, models: &[Model]) -> (u64, u64) {
    let snap = db.snapshot();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for m in models {
        for (key, fields) in &m.entries {
            for (f, v) in fields {
                attempted += 1;
                if snap.field(key, f).as_ref().ok() != Some(v) {
                    failed += 1;
                }
            }
        }
        for key in &m.gone {
            attempted += 1;
            if snap.field(key, "id").is_ok() {
                failed += 1;
            }
        }
    }
    let mut want: Vec<&String> = models.iter().flat_map(|m| m.entries.keys()).collect();
    want.sort();
    attempted += 1;
    match snap.entry_keys() {
        Ok(keys) if keys.iter().collect::<Vec<_>>() == want => {}
        _ => failed += 1,
    }
    (attempted, failed)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let t0 = Instant::now();
        let s = setup(ctx.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        ready = Some(s);
    }
    let Setup {
        db,
        map,
        server,
        clients,
        mut models,
    } = ready.expect("at least one set-up");
    let before = db.metrics_snapshot();

    let epoch = Instant::now();
    let start = Instant::now();
    let deadline = ctx.deadline(start);
    let mut tracers: Vec<Tracer> = (0..CONNS)
        .map(|c| Tracer::new(ctx.traced, c, epoch))
        .collect();
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(models.iter_mut())
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(c, ((client, model), tracer))| {
                let (map, db) = (&map, &db);
                s.spawn(move || drive(c, client, model, map, db, ctx.seed, start, deadline, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a connection thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let report = server.drain(Duration::from_secs(10));
    let after = db.metrics_snapshot();
    let (check_attempted, check_failed) = final_check(&db, &models);

    let mut reads = Vec::new();
    let mut writes = Vec::new();
    let (mut attempted, mut failed) = (check_attempted, check_failed);
    // Operations completed in each whole second of the run; `ops_per_s`
    // is the median second.
    let mut per_second = vec![0u64; (elapsed.floor() as usize).max(1)];
    for r in &results {
        for &t in &r.done_s {
            if let Some(n) = per_second.get_mut(t as usize) {
                *n += 1;
            }
        }
        attempted += r.attempted;
        failed += r.failed;
        reads.extend_from_slice(&r.reads_ms);
        writes.extend_from_slice(&r.writes);
    }
    failed += report.forced as u64;
    let write_ms: Vec<f64> = writes.iter().map(|w| w.1).collect();
    let metrics = vec![
        ("setup_s", "s", median(&setup_s)),
        (
            "ops_per_s",
            "1/s",
            median(&per_second.iter().map(|&n| n as f64).collect::<Vec<_>>()),
        ),
        ("write_p50_ms", "ms", quantile(&write_ms, 0.5)),
        ("write_p99_ms", "ms", quantile(&write_ms, 0.99)),
        ("read_p50_ms", "ms", quantile(&reads, 0.5)),
        ("read_p99_ms", "ms", quantile(&reads, 0.99)),
    ];

    let mut layers = Vec::new();
    let mut tracer = None;
    if ctx.traced {
        let mut all = Tracer::new(true, 0, epoch);
        for t in tracers {
            all.absorb(t);
        }
        let d = crate::delta(&before, &after);
        let lookup = median(&all.durations_us("core.lookup"));
        let wire_get = median(&all.durations_us("server.get"));
        let frames = crate::counter_sum(&d, "storage.group.frames_synced") as f64;
        let batches = crate::counter_sum(&d, "storage.group.batches") as f64;
        layers = vec![
            ("server.overhead_us", wire_get - lookup),
            (
                "server.admission.wait_us",
                crate::hist_mean_us(&d, "server.admission.wait_ns"),
            ),
            (
                "server.shed",
                (crate::counter_sum(&d, "server.req.shed")
                    + crate::counter_sum(&d, "server.conn.shed")) as f64,
            ),
            ("core.write.growth", write_growth(&writes, elapsed)),
            ("core.lookup_us", lookup),
            (
                "core.snapshot_us",
                median(&all.durations_us("core.snapshot")),
            ),
            (
                "core.twopc.prepare_us",
                crate::hist_mean_us(&d, "core.twopc.prepare_ns"),
            ),
            (
                "core.twopc.decide_us",
                crate::hist_mean_us(&d, "core.twopc.decide_ns"),
            ),
            (
                "core.cross_commits",
                crate::counter_sum(&d, "core.sharded.cross.commits") as f64,
            ),
            (
                "storage.group.frames_per_sync",
                if batches > 0.0 { frames / batches } else { 0.0 },
            ),
            (
                "storage.group.commit_us",
                crate::hist_mean_us(&d, "storage.group.commit_ns"),
            ),
            (
                "storage.wal.sync_us",
                crate::hist_mean_us(&d, "storage.wal.sync_ns"),
            ),
        ];
        tracer = Some(all);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        layers,
        params: vec![
            ("corpus_entries", ENTRIES.to_string()),
            ("shards", SHARDS.to_string()),
            ("shard_bounds", map.bounds().join(",")),
            ("connections", CONNS.to_string()),
            (
                "mix",
                "80% GetField, 16% Edit, 1.5% Add, 1.5% Annotate, 1% Merge".to_owned(),
            ),
            ("wal", "MemIo per shard".to_owned()),
            (
                "flush_policy",
                format!("group commit, window {:?}", DEFAULT_BATCH_WINDOW),
            ),
            ("loop", "closed, 2 connections".to_owned()),
        ],
        tracer,
    })
}
