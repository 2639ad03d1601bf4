//! `query`: live analytics in process. One `ShardedDb` with a single
//! shard, `gn` and `os` indexed, a few releases published (with
//! fusions) before the clock starts. One closed-loop thread repeats a
//! fixed read sequence — three planned queries, keyed reads, identifier
//! resolution, citation and a field's history — and interleaves one
//! in-process edit per ten reads, so a per-epoch cache of the query
//! path pays for its rebuild inside the run.
//!
//! The run is a series of epochs, each a fresh set-up followed by the
//! same fixed operations; latencies and throughput come from each
//! operation's fastest time over the epochs (see `keep_best`).

use std::collections::BTreeMap;
use std::time::Instant;

use cdb_core::archive::Citation;
use cdb_core::curation::queries::curators_of;
use cdb_core::model::Atom;
use cdb_core::relalg::{plan, Database, ExecConfig, PlanOp, Pred, ProjItem, RaExpr, Relation};
use cdb_core::views::{entry_relation, query_entries_planned};
use cdb_core::{CuratedDatabase, ShardMap, ShardedDb, ShardedSnapshot};

use crate::corpus::{Corpus, Rng, ORGANISMS};
use crate::trace::Tracer;
use crate::{best_ms, best_ops_per_s, keep_best, median, quantile, Ctx, Outcome};

const ENTRIES: usize = 300;
/// Releases published before the clock starts, each with a fusion.
const RELEASES: usize = 4;
/// Edits per release before it is published.
const RELEASE_EDITS: usize = 20;
/// Keys whose `fn` history the series oracle knows.
const SERIES_KEYS: usize = 16;
/// Read sequences (each followed by one edit) per epoch.
const SEQUENCES: u64 = 50;
/// Epochs run even when the time is up; `setup_s` is their median.
const MIN_EPOCHS: usize = 3;
/// The self-join's naive oracle builds the full product, so it runs on
/// every `JOIN_CHECK_EVERY`-th sequence only (and on the first).
const JOIN_CHECK_EVERY: u64 = 8;
/// The columns of the `entries` relation the queries see.
const VIEW: [&str; 3] = ["gn", "os", "fn"];

struct Setup {
    db: ShardedDb,
    model: BTreeMap<String, BTreeMap<String, Atom>>,
    /// `(absorbed, kept)` of every fusion.
    fusions: Vec<(String, String)>,
    /// Per series key, its `fn` value in each published version.
    series: Vec<(String, Vec<(u32, Atom)>)>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let err = |e: cdb_core::DbError| e.to_string();
    let mut corpus = Corpus::new(seed, ENTRIES);
    let entries = corpus.entries(ENTRIES);
    let db = ShardedDb::new("uniprot", "ac", ShardMap::single());
    db.create_index("gn").map_err(err)?;
    db.create_index("os").map_err(err)?;
    let mut model = BTreeMap::new();
    for (i, e) in entries.iter().enumerate() {
        db.add_entry("loader", i as u64, &e.ac, &e.field_list())
            .map_err(err)?;
        model.insert(e.ac.clone(), e.fields.clone());
    }
    let keys: Vec<String> = entries.iter().map(|e| e.ac.clone()).collect();
    let protected: Vec<String> = keys[..SERIES_KEYS].to_vec();
    let mut series: Vec<(String, Vec<(u32, Atom)>)> =
        protected.iter().map(|k| (k.clone(), Vec::new())).collect();
    let mut fusions: Vec<(String, String)> = Vec::new();
    let mut time = ENTRIES as u64;
    let mut rng = Rng::new(seed ^ 0x5E7);
    for r in 0..RELEASES {
        for _ in 0..RELEASE_EDITS {
            time += 1;
            let live: Vec<&String> = model.keys().collect();
            let key = live[rng.below(live.len())].clone();
            let value = corpus.edit_value("fn", time);
            db.edit_field("curator", time, &key, "fn", value.clone())
                .map_err(err)?;
            model
                .get_mut(&key)
                .expect("live")
                .insert("fn".into(), value);
        }
        // A fusion between two unprotected entries; the kept one is
        // protected from then on so its identifier stays active.
        let absorbed_from: Vec<String> = model
            .keys()
            .filter(|k| !protected.contains(k) && !fusions.iter().any(|f| &f.1 == *k))
            .cloned()
            .collect();
        let kept = absorbed_from[rng.below(absorbed_from.len())].clone();
        let absorbed = loop {
            let a = absorbed_from[rng.below(absorbed_from.len())].clone();
            if a != kept {
                break a;
            }
        };
        time += 1;
        db.merge_entries("curator", time, &kept, &absorbed)
            .map_err(err)?;
        model.remove(&absorbed);
        fusions.push((absorbed, kept));
        db.publish(format!("release-{r}")).map_err(err)?;
        for (k, hist) in &mut series {
            hist.push((r as u32, model[k.as_str()]["fn"].clone()));
        }
    }
    Ok(Setup {
        db,
        model,
        fusions,
        series,
    })
}

/// The three planned queries, chosen afresh each sequence. Gene names
/// are `GN0..GN{ENTRIES / 3}` (see `Corpus::new`).
fn queries(rng: &mut Rng) -> [(&'static str, RaExpr); 3] {
    let gene = format!("GN{}", rng.below(ENTRIES / 3));
    let point = RaExpr::scan("entries").select(Pred::col_eq_const("gn", gene));
    let selection = RaExpr::scan("entries").select(Pred::col_eq_const(
        "fn",
        format!("ACTIVATES PATHWAY {}", rng.below(29)),
    ));
    let os = ORGANISMS[rng.below(ORGANISMS.len())];
    let join = RaExpr::ScanAs("entries".into(), "e1".into())
        .product(RaExpr::ScanAs("entries".into(), "e2".into()))
        .select(Pred::col_eq_col("e1.gn", "e2.gn").and(Pred::col_eq_const("e1.os", os)))
        .project(vec![
            ProjItem::col("e1.ac", "a"),
            ProjItem::col("e2.ac", "b"),
        ]);
    [("point", point), ("selection", selection), ("join", join)]
}

/// Planned-query layer measurements (traced runs only).
#[derive(Default)]
struct PlanStats {
    queries: u64,
    with_index: u64,
    rows_examined: u64,
    results: u64,
}

/// Runs one planned query: the public entry point when untraced, the
/// same public functions one by one when traced.
fn planned(
    db: &CuratedDatabase,
    q: &RaExpr,
    tracer: &mut Tracer,
    ps: &mut PlanStats,
) -> Result<Relation, String> {
    if !tracer.on() {
        return query_entries_planned(db, &VIEW, q)
            .map(|(rel, _, _)| rel)
            .map_err(|e| e.to_string());
    }
    let rel = tracer
        .time("core.view.materialize", || entry_relation(db, &VIEW))
        .map_err(|e| e.to_string())?;
    let rdb = Database::new().with("entries", rel);
    let stats = tracer.time("core.stats", || db.planner_stats(&VIEW));
    let idx = tracer
        .time("core.index.export", || db.relalg_index_set(&VIEW))
        .map_err(|e| e.to_string())?;
    let p = tracer.time("relalg.plan", || plan::plan(&rdb, &stats, &idx, q));
    let (out, runs) = tracer
        .time("relalg.exec", || {
            plan::eval_plan(&rdb, &p, &idx, &ExecConfig::default())
        })
        .map_err(|e| e.to_string())?;
    ps.queries += 1;
    if p.ops()
        .iter()
        .any(|op| matches!(op, PlanOp::IndexLookup { .. }))
    {
        ps.with_index += 1;
    }
    ps.rows_examined += runs.iter().map(|r| r.rows as u64).sum::<u64>();
    ps.results += out.len() as u64;
    Ok(out)
}

/// The reference: naive evaluation over the materialized view.
fn naive(db: &CuratedDatabase, q: &RaExpr) -> Result<Relation, String> {
    let rel = entry_relation(db, &VIEW).map_err(|e| e.to_string())?;
    let out = cdb_core::relalg::eval::eval(&Database::new().with("entries", rel), q)
        .map_err(|e| e.to_string())?;
    let mut out = out.canonical();
    out.dedup();
    Ok(out)
}

fn cite(
    snap: &ShardedSnapshot,
    version: u32,
    key: &str,
    tracer: &mut Tracer,
) -> Result<Citation, String> {
    let db: &CuratedDatabase = snap.shard(0);
    if !tracer.on() {
        return db.cite(version, key).map_err(|e| e.to_string());
    }
    let node = tracer
        .time("core.entry_node", || db.entry_node(key))
        .map_err(|e| e.to_string())?;
    let authors = tracer
        .time("curation.curators", || curators_of(&db.curated, node))
        .map_err(|e| e.to_string())?;
    let path = db.entry_key_path(key);
    tracer
        .time("archive.cite", || {
            Citation::cite(db.archive(), version, &path, authors)
        })
        .map_err(|e| e.to_string())
}

/// What an operation of the sequence is, for the latency lists.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Op {
    Query,
    Read,
    Cite,
    Write,
}

/// One epoch's operations in order, with their durations in seconds.
struct Epoch {
    ops: Vec<(Op, f64)>,
    attempted: u64,
    failed: u64,
}

/// Runs `SEQUENCES` read sequences, each followed by one edit, on a
/// fresh set-up. Every epoch of a run replays the same inputs, so the
/// `i`-th operation does the same work in each.
fn epoch(seed: u64, s: Setup, tracer: &mut Tracer, ps: &mut PlanStats) -> Result<Epoch, String> {
    let Setup {
        db,
        mut model,
        fusions,
        series,
    } = s;
    let last_version = (RELEASES - 1) as u32;
    let mut rng = Rng::new(seed ^ 0x51);
    let mut corpus = Corpus::new(seed ^ 0x52, 3);
    let mut out = Epoch {
        ops: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut time = 10_000_000u64;
    // `timed!` runs one operation on the clock and records its kind
    // and duration.
    macro_rules! timed {
        ($op:expr, $body:expr) => {{
            let t0 = Instant::now();
            let got = $body;
            out.ops.push(($op, t0.elapsed().as_secs_f64()));
            out.attempted += 1;
            got
        }};
    }
    for seq in 1..=SEQUENCES {
        let snap = db.snapshot();
        let db0: &CuratedDatabase = snap.shard(0);
        for (kind, q) in queries(&mut rng) {
            let got = timed!(Op::Query, planned(db0, &q, tracer, ps));
            let check = kind != "join" || seq % JOIN_CHECK_EVERY == 1;
            match (got, check) {
                (Ok(rel), true) => match naive(db0, &q) {
                    Ok(want) if rel.tuples() == want.tuples() && rel.schema() == want.schema() => {}
                    _ => out.failed += 1,
                },
                (Ok(_), false) => {}
                (Err(_), _) => out.failed += 1,
            }
        }
        let live: Vec<&String> = model.keys().collect();
        for _ in 0..4 {
            let key = live[rng.below(live.len())].clone();
            let field = *rng.pick(&["id", "gn", "os", "fn"]);
            let got = timed!(
                Op::Read,
                tracer.time("core.lookup", || snap.field(&key, field))
            );
            if got.as_ref().ok() != Some(&model[&key][field]) {
                out.failed += 1;
            }
        }
        let (id, want) = if rng.chance(0.5) {
            let (absorbed, kept) = rng.pick(&fusions).clone();
            (absorbed, vec![kept])
        } else {
            let k = live[rng.below(live.len())].clone();
            (k.clone(), vec![k])
        };
        let got = timed!(
            Op::Read,
            tracer.time("core.lifecycle.resolve", || snap.resolve_id(&id))
        );
        if got.ok() != Some(want) {
            out.failed += 1;
        }
        let (key, hist) = rng.pick(&series).clone();
        match timed!(Op::Cite, cite(&snap, last_version, &key, tracer)) {
            Ok(c) if c.version == last_version && !c.authors.is_empty() => {}
            _ => out.failed += 1,
        }
        let got = timed!(
            Op::Read,
            tracer.time("archive.series", || db0.field_series(&key, "fn"))
        );
        if got.ok() != Some(hist) {
            out.failed += 1;
        }
        // One in-process edit per ten reads.
        time += 1;
        let key = live[rng.below(live.len())].clone();
        let value = corpus.edit_value("fn", time);
        let got = timed!(
            Op::Write,
            tracer.time("core.write.edit", || {
                db.edit_field("curator", time, &key, "fn", value.clone())
            })
        );
        match got {
            Ok(()) => {
                model
                    .get_mut(&key)
                    .expect("live")
                    .insert("fn".into(), value);
            }
            Err(_) => out.failed += 1,
        }
    }
    Ok(out)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(ctx.traced, 0, Instant::now());
    let mut ps = PlanStats::default();
    let mut setup_s = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Per position of the sequence: its kind and its fastest duration
    // over the epochs so far.
    let mut best: Vec<(Op, f64)> = Vec::new();
    let start = Instant::now();
    let deadline = ctx.deadline(start);
    let mut epochs = 0usize;
    while epochs < MIN_EPOCHS || Instant::now() < deadline {
        let t0 = Instant::now();
        let s = setup(ctx.seed)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let e = epoch(ctx.seed, s, &mut tracer, &mut ps)?;
        attempted += e.attempted;
        failed += e.failed;
        keep_best(&mut best, e.ops)?;
        epochs += 1;
    }
    let write_ms = best_ms(&best, Op::Write);
    let query_ms = best_ms(&best, Op::Query);
    let metrics = vec![
        ("setup_s", "s", median(&setup_s)),
        ("ops_per_s", "1/s", best_ops_per_s(&best)),
        ("write_p50_ms", "ms", quantile(&write_ms, 0.5)),
        ("write_p99_ms", "ms", quantile(&write_ms, 0.99)),
        ("query_p50_ms", "ms", quantile(&query_ms, 0.5)),
        ("query_p99_ms", "ms", quantile(&query_ms, 0.99)),
        (
            "cite_p50_ms",
            "ms",
            quantile(&best_ms(&best, Op::Cite), 0.5),
        ),
    ];
    let mut layers = Vec::new();
    let mut out_tracer = None;
    if ctx.traced {
        let us = |name: &str| median(&tracer.durations_us(name));
        // Mean edit latency over the last tenth of an epoch's edits
        // over the first tenth.
        let tenth = (write_ms.len() / 10).max(1);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let growth = mean(&write_ms[write_ms.len() - tenth..]) / mean(&write_ms[..tenth]);
        layers = vec![
            (
                "core.view.materialize_ms",
                us("core.view.materialize") / 1e3,
            ),
            ("core.stats_us", us("core.stats")),
            ("core.index.export_ms", us("core.index.export") / 1e3),
            ("relalg.plan_us", us("relalg.plan")),
            ("relalg.exec_us", us("relalg.exec")),
            (
                "relalg.rows_examined_per_result",
                ps.rows_examined as f64 / ps.results.max(1) as f64,
            ),
            (
                "relalg.index_plan_ratio",
                ps.with_index as f64 / ps.queries.max(1) as f64,
            ),
            ("curation.curators_us", us("curation.curators")),
            ("archive.cite_us", us("archive.cite")),
            ("archive.series_us", us("archive.series")),
            ("core.lifecycle.resolve_us", us("core.lifecycle.resolve")),
            ("core.lookup_us", us("core.lookup")),
            ("core.write.growth", growth),
        ];
        out_tracer = Some(tracer);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        layers,
        params: vec![
            ("corpus_entries", ENTRIES.to_string()),
            ("shards", "1".to_owned()),
            ("indexes", "gn,os".to_owned()),
            ("releases", RELEASES.to_string()),
            ("view", VIEW.join(",")),
            ("wal", "none (in-memory)".to_owned()),
            ("flush_policy", "none".to_owned()),
            (
                "loop",
                format!("closed, 1 thread, {SEQUENCES} sequences of 10 reads + 1 edit per epoch"),
            ),
            ("epochs", epochs.to_string()),
        ],
        tracer: out_tracer,
    })
}
