//! The benchmark's own span recorder. Spans wrap the benchmark's calls
//! into each layer's public functions (the program itself is not
//! instrumented further); they are kept in memory per thread and
//! written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// One completed span. `parent` indexes the same recorder.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub parent: Option<usize>,
    pub thread: usize,
}

/// A per-thread recorder. When off, `time` only runs the closure and
/// `enter`/`exit` do nothing, so the untraced path pays one branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    thread: usize,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Tracer {
    pub fn new(on: bool, thread: usize, epoch: Instant) -> Self {
        Tracer {
            on,
            thread,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span that later spans nest under until `exit`.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: now.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: 0,
            parent: self.open.last().map(|o| o.0),
            thread: self.thread,
        });
        self.open.push((self.spans.len() - 1, now));
    }

    /// Closes the innermost open span and returns its duration.
    pub fn exit(&mut self) -> Duration {
        match self.open.pop() {
            Some((i, start)) => {
                let d = start.elapsed();
                self.spans[i].dur_ns = d.as_nanos() as u64;
                d
            }
            None => Duration::ZERO,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect()
    }

    /// Moves another thread's spans in (re-basing parent indices).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: (count, total self time in ns). Self time is a
    /// span's duration minus the time its direct children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns.saturating_sub(c);
        }
        out
    }

    /// Prints self time per layer (the first name segment) and per span
    /// name to stderr, and writes every span as one JSON line to `path`.
    pub fn write_out(&self, workload: &str, path: &std::path::Path) -> std::io::Result<()> {
        let per_name = self.self_times();
        let mut per_layer: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (name, (n, ns)) in &per_name {
            let layer = name.split('.').next().unwrap_or(name);
            let e = per_layer.entry(layer).or_default();
            e.0 += n;
            e.1 += ns;
        }
        eprintln!("# {workload}: self time per layer (benchmark spans)");
        for (layer, (n, ns)) in &per_layer {
            eprintln!(
                "#   {layer:<10} {:>12.3} ms  {n:>8} spans",
                *ns as f64 / 1e6
            );
        }
        for (name, (n, ns)) in &per_name {
            eprintln!("#     {name:<32} {:>12.3} ms  {n:>8}", *ns as f64 / 1e6);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\":{i},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"dur_ns\":{},\"parent\":{}}}",
                s.name,
                s.thread,
                s.start_ns,
                s.dur_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string())
            )?;
        }
        f.flush()
    }
}
