//! Seeded inputs shared by every workload, and the in-process reference
//! the program's answers are checked against.

use df_core::builder::{Audit, Smoothed, SubsetPolicy};
use df_core::fleet::{merge_many, SnapshotEncoder};
use df_core::monitor::{FairnessMonitor, MonitorSnapshot};
use df_core::report::ResponseFormat;
use df_core::JointCounts;
use df_prob::contingency::{Axis, ContingencyTable};
use df_prob::partial::{PartialCounts, Tally};
use df_prob::rng::Pcg32;
use df_server::{Server, ServerBuilder};
use std::collections::VecDeque;

/// Rows per ingest request body.
pub const BODY_ROWS: usize = 64;
/// Window span and bucket width of every server and monitor, in data
/// seconds.
pub const WINDOW_S: f64 = 60.0;
pub const BUCKET_S: f64 = 1.0;
pub const OUTCOME: &str = "outcome";
/// Cycles of each layer probe of a traced run.
pub const PROBE_CYCLES: u64 = 256;

/// The record schema: 2 outcomes × 4×3×2×2 protected attributes, i.e.
/// 96 cells and a 15-subset lattice.
pub const SCHEMA: [(&str, &[&str]); 5] = [
    (OUTCOME, &["y0", "y1"]),
    ("attr0", &["v0", "v1", "v2", "v3"]),
    ("attr1", &["v0", "v1", "v2"]),
    ("attr2", &["v0", "v1"]),
    ("attr3", &["v0", "v1"]),
];
pub const COLUMNS: [&str; 5] = [
    SCHEMA[0].0,
    SCHEMA[1].0,
    SCHEMA[2].0,
    SCHEMA[3].0,
    SCHEMA[4].0,
];

/// One record as label codes, in schema order.
pub type Row = [u32; 5];

/// Independent input streams drawn from one seed.
pub mod stream {
    pub const TRAFFIC: u64 = 1;
    pub const SETUP: u64 = 2;
    pub const PROBE: u64 = 3;
    pub const LOG: u64 = 4;
}

pub fn axes() -> Vec<Axis> {
    SCHEMA
        .iter()
        .map(|(name, labels)| Axis::from_strs(name, labels).expect("the static schema is valid"))
        .collect()
}

/// The server every workload runs: the defaults (4 shards, 4 workers)
/// over a 60 s window of 1 s buckets.
pub fn server() -> ServerBuilder {
    Server::builder(OUTCOME, axes())
        .window_seconds(WINDOW_S)
        .bucket_seconds(BUCKET_S)
}

/// A monitor configured like each server shard.
pub fn monitor() -> FairnessMonitor {
    Audit::monitor(OUTCOME, axes())
        .estimator(Smoothed { alpha: 1.0 })
        .window_seconds(WINDOW_S)
        .bucket_seconds(BUCKET_S)
        .subsets(SubsetPolicy::None)
        .build()
        .expect("the monitor configuration is valid")
}

fn label(axis: usize, code: u32) -> &'static str {
    SCHEMA[axis].1[code as usize]
}

/// Seeded records: skewed attribute frequencies (squared-uniform draws)
/// and an outcome rate that rises with `attr0` and `attr3`, so ε is
/// finite and non-trivial and every cell fills at window scale.
pub struct Rows(Pcg32);

impl Rows {
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(Pcg32::with_stream(seed, stream))
    }

    pub fn next_row(&mut self) -> Row {
        let mut row = [0u32; 5];
        for (slot, (_, labels)) in row.iter_mut().zip(SCHEMA.iter()).skip(1) {
            let u = self.0.next_f64();
            let arity = labels.len() as u32;
            *slot = ((u * u * f64::from(arity)) as u32).min(arity - 1);
        }
        let p = 0.25 + 0.1 * f64::from(row[1]) + 0.1 * f64::from(row[4]);
        row[0] = u32::from(self.0.next_f64() < p);
        row
    }

    pub fn take(&mut self, n: usize) -> Vec<Row> {
        (0..n).map(|_| self.next_row()).collect()
    }
}

/// `{"rows":[[…],…],"at":t}`, the JSON ingest body.
pub fn json_body(rows: &[Row], at: f64) -> Vec<u8> {
    let mut out = String::with_capacity(rows.len() * 32 + 32);
    out.push_str("{\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (k, &code) in row.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(label(k, code));
            out.push('"');
        }
        out.push(']');
    }
    out.push_str(&format!("],\"at\":{at}}}"));
    out.into_bytes()
}

/// Header-less CSV, one record per line.
pub fn csv_body(rows: &[Row]) -> Vec<u8> {
    let mut out = String::with_capacity(rows.len() * 16);
    for row in rows {
        for (k, &code) in row.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(label(k, code));
        }
        out.push('\n');
    }
    out.into_bytes()
}

/// Data time on a fixed tick: `1000 s + tick / ticks_per_s`, computed from
/// integers so the generator and the server see the same `f64`.
pub struct DataClock {
    tick: u64,
    ticks_per_s: u64,
}

impl DataClock {
    pub fn new(ticks_per_s: u64) -> Self {
        Self {
            tick: 0,
            ticks_per_s,
        }
    }

    pub fn next(&mut self) -> f64 {
        self.tick += 1;
        (1000 * self.ticks_per_s + self.tick) as f64 / self.ticks_per_s as f64
    }

    /// Data seconds elapsed since the first tick.
    pub fn elapsed_s(&self) -> f64 {
        self.tick as f64 / self.ticks_per_s as f64
    }
}

/// Rows tallied by code, independently of the server's label parsing.
struct Coded<'a>(&'a [Row]);

impl Tally for Coded<'_> {
    fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
        for row in self.0 {
            shard.record(&row.map(|c| c as usize));
        }
        Ok(())
    }
}

/// A simulated remote replica: its own monitor, posting its cumulative
/// state as `DFLT` frames (delta-encoded after the first).
pub struct Replica {
    pub name: &'static str,
    monitor: FairnessMonitor,
    encoder: SnapshotEncoder,
    last: Option<MonitorSnapshot>,
}

impl Replica {
    pub fn pair() -> [Replica; 2] {
        ["alpha", "beta"].map(|name| Replica {
            name,
            monitor: monitor(),
            encoder: SnapshotEncoder::new(),
            last: None,
        })
    }

    /// Ingests `rows` at `at` and encodes the replica's state.
    pub fn frame(&mut self, rows: &[Row], at: f64) -> df_core::Result<Vec<u8>> {
        self.monitor.push_at(&Coded(rows), at)?;
        let snap = self.monitor.snapshot()?;
        let frame = self.encoder.encode(&snap)?;
        self.last = Some(snap);
        Ok(frame)
    }

    fn window_rows(&self) -> u64 {
        self.last.as_ref().map_or(0, |s| s.window_rows)
    }
}

/// What the server should hold: the local stream through one monitor
/// (the fleet's consistent cut is byte-identical to it), plus the rows
/// of each data bucket, for the in-window count.
pub struct Reference {
    monitor: FairnessMonitor,
    buckets: VecDeque<(i64, u64)>,
    newest: i64,
}

impl Reference {
    pub fn new() -> Self {
        Self {
            monitor: monitor(),
            buckets: VecDeque::new(),
            newest: i64::MIN,
        }
    }

    pub fn push(&mut self, rows: &[Row], at: f64) -> df_core::Result<()> {
        self.monitor.push_at(&Coded(rows), at)?;
        let bucket = (at / BUCKET_S).floor() as i64;
        match self.buckets.back_mut() {
            Some((b, n)) if *b == bucket => *n += rows.len() as u64,
            _ => self.buckets.push_back((bucket, rows.len() as u64)),
        }
        self.newest = self.newest.max(bucket);
        Ok(())
    }

    /// Records the merged window holds: local rows in buckets after
    /// `⌊now/b⌋ − ⌈T/b⌉`, plus each replica's own window.
    pub fn window_rows(&mut self, replicas: &[Replica]) -> u64 {
        let horizon = self.newest - (WINDOW_S / BUCKET_S).ceil() as i64;
        while self.buckets.front().is_some_and(|(b, _)| *b <= horizon) {
            self.buckets.pop_front();
        }
        let local: u64 = self.buckets.iter().map(|(_, n)| n).sum();
        local + replicas.iter().map(Replica::window_rows).sum::<u64>()
    }

    /// The audit the server should answer, rendered as JSON.
    pub fn audit_json(&self, replicas: &[Replica], all_subsets: bool) -> df_core::Result<String> {
        let local = self.monitor.snapshot()?;
        let remote: Vec<&MonitorSnapshot> =
            replicas.iter().filter_map(|r| r.last.as_ref()).collect();
        let merged = if remote.is_empty() {
            local
        } else {
            let mut all = vec![local];
            all.extend(remote.into_iter().cloned());
            merge_many(&all, &Smoothed { alpha: 1.0 })?
        };
        audit_json(merged.window.to_table()?, all_subsets)
    }
}

/// The batch audit of a table — the default audit, or over the full
/// subset lattice — rendered as JSON.
pub fn audit_json(table: ContingencyTable, all_subsets: bool) -> df_core::Result<String> {
    let mut audit = Audit::of_counts(JointCounts::from_table(table, OUTCOME)?)?;
    if all_subsets {
        audit = audit.subsets(SubsetPolicy::All);
    }
    audit.run()?.render(ResponseFormat::Json)
}
