//! One benchmark for curated-db, driven through the public path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload curate|query|release --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last stdout line is one JSON
//! object `{correct, attempted, failed, metrics}`; the line before it
//! is a full report (every end-to-end metric of the workload, with
//! host metadata). `--trace 1` runs the workload twice for half the
//! time each, untraced then traced, and reports per-layer metrics.
//! See `perfbench/README.md` for the workloads and the metric map.

mod corpus;
mod curate;
mod query;
mod release;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use trace::Tracer;

/// End-to-end metrics every workload reports and that are never 0; the
/// last stdout line carries exactly these when tracing is off.
const GATED: [&str; 3] = ["setup_s", "ops_per_s", "write_p50_ms"];

/// Every per-layer metric, in report order, with its unit. A traced run
/// reports all of them; a layer a workload bypasses reads 0.
const LAYER_METRICS: [(&str, &str); 35] = [
    ("server.overhead_us", "us"),
    ("server.admission.wait_us", "us"),
    ("server.shed", "count"),
    ("core.write.growth", "ratio"),
    ("core.lookup_us", "us"),
    ("core.snapshot_us", "us"),
    ("core.twopc.prepare_us", "us"),
    ("core.twopc.decide_us", "us"),
    ("core.cross_commits", "count"),
    ("storage.group.frames_per_sync", "ratio"),
    ("storage.group.commit_us", "us"),
    ("core.view.materialize_ms", "ms"),
    ("core.stats_us", "us"),
    ("core.index.export_ms", "ms"),
    ("relalg.plan_us", "us"),
    ("relalg.exec_us", "us"),
    ("relalg.rows_examined_per_result", "ratio"),
    ("relalg.index_plan_ratio", "ratio"),
    ("curation.curators_us", "us"),
    ("archive.cite_us", "us"),
    ("archive.series_us", "us"),
    ("core.lifecycle.resolve_us", "us"),
    ("core.export_ms", "ms"),
    ("archive.merge_ms", "ms"),
    ("storage.wal.sync_us", "us"),
    ("storage.wal.syncs_per_write", "ratio"),
    ("storage.page.captured", "count"),
    ("storage.buffer.hit_ratio", "ratio"),
    ("storage.buffer.evictions", "count"),
    ("storage.recovery.replay_ms", "ms"),
    ("core.paged.open_ms", "ms"),
    ("storage.wal_bytes", "bytes"),
    ("storage.heap_bytes", "bytes"),
    ("storage.reclaimed_bytes", "bytes"),
    ("trace.overhead_ops_per_s", "1/s"),
];

/// What one workload run hands back.
pub struct Outcome {
    /// Operations attempted (every request, query, write and oracle probe).
    pub attempted: u64,
    /// Errors, sheds and oracle mismatches.
    pub failed: u64,
    /// `(name, unit, value)` end-to-end metrics of this workload.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// `(name, value)` per-layer metrics; only filled when traced.
    pub layers: Vec<(&'static str, f64)>,
    /// Sizes and settings, echoed into the report.
    pub params: Vec<(&'static str, String)>,
    /// The benchmark's spans, when traced.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }
}

/// Settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Scratch space for on-disk databases, inside the checkout.
    pub data_dir: PathBuf,
}

impl Ctx {
    pub fn deadline(&self, from: Instant) -> Instant {
        from + Duration::from_secs_f64(self.seconds)
    }
}

/// The `q`-quantile (nearest rank) of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sum of a counter across a sharded snapshot's per-shard prefixes and
/// the unprefixed registries.
pub fn counter_sum(snap: &cdb_obs::MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| {
            *k == name || (k.starts_with("shard.") && k.ends_with(&format!(".{name}")))
        })
        .map(|(_, v)| v)
        .sum()
}

/// Mean of a histogram, merged across shard prefixes, in microseconds
/// (0 when absent or empty).
pub fn hist_mean_us(snap: &cdb_obs::MetricsSnapshot, name: &str) -> f64 {
    let (mut sum, mut count) = (0u64, 0u64);
    for (k, h) in &snap.histograms {
        if k == name || (k.starts_with("shard.") && k.ends_with(&format!(".{name}"))) {
            sum += h.sum;
            count += h.count;
        }
    }
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1e3
    }
}

/// Folds one epoch's `(kind, seconds)` operations into the fastest
/// time seen so far at each position. The epochs of a run replay the
/// same inputs, so the `i`-th operation does the same work in each; on
/// a shared host the slowdowns other tenants cause come and go over
/// seconds, and the best of several identical runs of an operation is
/// the estimate they disturb least.
pub fn keep_best<K: PartialEq>(
    best: &mut Vec<(K, f64)>,
    epoch: Vec<(K, f64)>,
) -> Result<(), String> {
    if best.is_empty() {
        *best = epoch;
        return Ok(());
    }
    if best.len() != epoch.len() || best.iter().zip(&epoch).any(|(b, e)| b.0 != e.0) {
        return Err("an epoch did not replay the first epoch's operations".into());
    }
    for (b, e) in best.iter_mut().zip(epoch) {
        b.1 = b.1.min(e.1);
    }
    Ok(())
}

/// The best times of the operations of one kind, in milliseconds.
pub fn best_ms<K: PartialEq>(best: &[(K, f64)], kind: K) -> Vec<f64> {
    best.iter()
        .filter(|b| b.0 == kind)
        .map(|b| b.1 * 1e3)
        .collect()
}

/// Operations per second of best time.
pub fn best_ops_per_s<K>(best: &[(K, f64)]) -> f64 {
    best.len() as f64 / best.iter().map(|b| b.1).sum::<f64>()
}

/// Mean write latency in the last tenth of the run over the first
/// tenth; `writes` holds `(offset from run start, latency)` pairs.
pub fn write_growth(writes: &[(f64, f64)], run_s: f64) -> f64 {
    let tenth = run_s / 10.0;
    let mean = |lo: f64, hi: f64| {
        let v: Vec<f64> = writes
            .iter()
            .filter(|w| w.0 >= lo && w.0 < hi)
            .map(|w| w.1)
            .collect();
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let (first, last) = (mean(0.0, tenth), mean(run_s - tenth, f64::INFINITY));
    if first.is_finite() && last.is_finite() && first > 0.0 {
        last / first
    } else {
        0.0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let workload = workload.ok_or("--workload is required (curate, query or release)")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "curate" => curate::run(ctx),
        "query" => query::run(ctx),
        "release" => release::run(ctx),
        other => Err(format!(
            "unknown workload {other} (curate, query or release)"
        )),
    }
}

/// The commit the checkout was taken from, when it is a git checkout.
fn git_rev(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned()),
        None => head,
    }
}

/// The `cpu` line of `/proc/stat`: jiffies per state, steal eighth.
fn cpu_jiffies() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|x| x.parse().ok()).collect()
}

/// Share of host CPU time stolen by other guests between two readings:
/// on a shared virtual machine this is the main source of run-to-run
/// spread, so every report carries it.
fn steal_pct(before: &Option<Vec<u64>>, after: &Option<Vec<u64>>) -> String {
    match (before, after) {
        (Some(b), Some(a)) if a.len() > 7 && b.len() > 7 => {
            let total: u64 = a.iter().zip(b).map(|(x, y)| x.saturating_sub(*y)).sum();
            let steal = a[7].saturating_sub(b[7]);
            format!("{:.1}", 100.0 * steal as f64 / total.max(1) as f64)
        }
        _ => "unknown".to_owned(),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn metric_obj<'a>(items: impl Iterator<Item = (&'a str, &'a str, f64)>) -> String {
    let body: Vec<String> = items
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("the working directory is readable");
    let data_dir =
        root.join(".bench_data")
            .join(format!("{}-{}", args.workload, std::process::id()));
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: false,
        data_dir: data_dir.clone(),
    };

    let jiffies = cpu_jiffies();
    let result = if args.trace {
        // Untraced then traced, half the time each: the difference in
        // throughput is the tracing overhead.
        ctx.seconds = args.seconds / 2.0;
        run_workload(&args.workload, &ctx).and_then(|plain| {
            ctx.traced = true;
            run_workload(&args.workload, &ctx).map(|mut traced| {
                let over = traced.metric("ops_per_s").unwrap_or(0.0)
                    - plain.metric("ops_per_s").unwrap_or(0.0);
                traced.layers.push(("trace.overhead_ops_per_s", over));
                traced.attempted += plain.attempted;
                traced.failed += plain.failed;
                traced
            })
        })
    } else {
        run_workload(&args.workload, &ctx)
    };
    let steal = steal_pct(&jiffies, &cpu_jiffies());
    let _ = std::fs::remove_dir_all(&data_dir);
    let _ = std::fs::remove_dir(root.join(".bench_data"));
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };

    if let Some(t) = &out.tracer {
        let path = root
            .join(".bench_out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = t.write_out(&args.workload, &path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }

    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut host = vec![
        ("nproc", nproc.to_string()),
        ("profile", profile.to_owned()),
        ("git_rev", git_rev(&root)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("host_steal_pct", steal),
    ];
    host.extend(out.params.iter().cloned());
    let host_json: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let mut all = out.metrics.clone();
    all.push(("fail_ratio", "ratio", fail_ratio));
    let layers: Vec<(&str, &str, f64)> = LAYER_METRICS
        .iter()
        .map(|(n, u)| {
            let v = out.layers.iter().find(|l| l.0 == *n).map_or(0.0, |l| l.1);
            (*n, *u, v)
        })
        .collect();
    println!(
        "{{\"report\": {{\"workload\": {}, \"host\": {{{}}}, \"end_to_end\": {}, \"per_layer\": {}}}}}",
        json_str(&args.workload),
        host_json.join(", "),
        metric_obj(all.iter().copied()),
        if args.trace {
            metric_obj(layers.iter().copied())
        } else {
            "{}".to_owned()
        }
    );

    let correct = out.failed == 0;
    let metrics = if args.trace {
        metric_obj(layers.iter().copied())
    } else {
        metric_obj(GATED.iter().map(|name| {
            let m = out.metrics.iter().find(|m| m.0 == *name);
            (*name, m.map_or("", |m| m.1), m.map_or(f64::NAN, |m| m.2))
        }))
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        eprintln!(
            "perfbench: {} failed {} of {} operations",
            args.workload, out.failed, out.attempted
        );
        std::process::exit(1);
    }
}

/// The change between two metric snapshots of one registry: counters
/// and histogram totals subtract (gauges keep their latest value).
pub fn delta(
    before: &cdb_obs::MetricsSnapshot,
    after: &cdb_obs::MetricsSnapshot,
) -> cdb_obs::MetricsSnapshot {
    let mut d = after.clone();
    for (k, v) in d.counters.iter_mut() {
        *v = v.saturating_sub(before.counters.get(k).copied().unwrap_or(0));
    }
    for (k, h) in d.histograms.iter_mut() {
        if let Some(b) = before.histograms.get(k) {
            h.count = h.count.saturating_sub(b.count);
            h.sum = h.sum.saturating_sub(b.sum);
            for (a, x) in h.counts.iter_mut().zip(&b.counts) {
                *a = a.saturating_sub(*x);
            }
        }
    }
    d
}
