//! Spans recorded from the benchmark's own code around each call it
//! makes into the program, and the order statistics every metric uses.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! stay in memory and are written out when the run ends. A span's self
//! time is its duration minus the part its child spans cover; children of
//! one span run one after another, so the cover is their summed length.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of an open span; `None` when tracing is off.
pub type Id = Option<usize>;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Id,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per span name: how many, their summed duration and summed self time.
#[derive(Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64 / 1e3
    }

    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64 / 1e3
    }
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, parent: Id) -> Id {
        if !self.on {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Id) {
        if let Some(i) = id {
            let now = self.now_ns();
            self.spans[i].end_ns = now;
        }
    }

    /// Renames an open or closed span.
    pub fn rename(&mut self, id: Id, name: &'static str) {
        if let Some(i) = id {
            self.spans[i].name = name;
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: Id, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    fn self_times(&self) -> Vec<i128> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns) - i128::from(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= i128::from(s.end_ns) - i128::from(s.start_ns);
            }
        }
        own
    }

    /// Aggregates by span name.
    pub fn summary(&self) -> BTreeMap<&'static str, Agg> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let agg = out.entry(s.name).or_default();
            agg.count += 1;
            agg.total_ns += s.end_ns - s.start_ns;
            agg.self_ns += u64::try_from(own).unwrap_or(0);
        }
        out
    }

    /// Counts the span trees whose self times do not add up to their
    /// root: a child outside its parent, overlapping siblings, or a
    /// negative self time.
    pub fn unbalanced_trees(&self) -> usize {
        let own = self.self_times();
        let mut last_child_end: Vec<u64> = self.spans.iter().map(|s| s.start_ns).collect();
        let mut subtree: Vec<i128> = own.clone();
        let mut bad = vec![false; self.spans.len()];
        let root_of = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                i = p;
            }
            i
        };
        for (i, s) in self.spans.iter().enumerate() {
            let root = root_of(i);
            if own[i] < 0 {
                bad[root] = true;
            }
            if let Some(p) = s.parent {
                let parent = self.spans[p];
                if s.start_ns < parent.start_ns
                    || s.end_ns > parent.end_ns
                    || s.start_ns < last_child_end[p]
                {
                    bad[root] = true;
                }
                last_child_end[p] = s.end_ns;
                subtree[root] += own[i];
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.parent.is_none() && (bad[*i] || subtree[*i] != i128::from(s.end_ns - s.start_ns))
            })
            .count()
    }

    /// Number of root spans (one per operation).
    pub fn roots(&self) -> usize {
        self.spans.iter().filter(|s| s.parent.is_none()).count()
    }

    /// Writes every span as `id parent name start_ns duration_ns`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tduration_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns - s.start_ns
            )?;
        }
        out.flush()
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank quantile of unsorted values.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// p10, median and p99 of a sample, with its size and the number of
/// samples beyond p99.
pub fn tail(values: &[f64]) -> serde_json::Value {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p99 = quantile(&v, 0.99);
    let beyond = v.iter().filter(|&&x| x > p99).count();
    crate::obj(vec![
        ("n", crate::int(v.len() as u64)),
        ("p10", crate::num(quantile(&v, 0.1))),
        ("p50", crate::num(quantile(&v, 0.5))),
        ("p99", crate::num(p99)),
        ("beyond_p99", crate::int(beyond as u64)),
    ])
}
