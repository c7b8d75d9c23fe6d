//! The `replay` workload: a seeded DFRL log audited on one thread —
//! `tally_from_log` → `JointCounts::from_table` →
//! `Audit::of_counts(..).subsets(All).run()` → JSON render — once per
//! pass, each pass checked against the frame path. No server layer runs,
//! so this is the bypass workload for every server change.

use crate::calib::Calibration;
use crate::trace::{median, tail, Agg, Spans};
use crate::workload::{audit_json, stream, Rows, COLUMNS, OUTCOME, SCHEMA};
use crate::{int, layers, metric, num, obj, server, sys, Args, Checks, Fields, Metric, Outcome};
use df_core::builder::{Audit, SubsetPolicy};
use df_core::report::ResponseFormat;
use df_core::JointCounts;
use df_data::frame::{Column, DataFrame};
use df_data::replay::{tally_from_log, write_frame_log, LogStats, ReplayChunks};
use df_prob::contingency::ContingencyTable;
use df_prob::partial::PartialCounts;
use serde_json::Value;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter};
use std::path::PathBuf;
use std::time::Instant;

/// Rows in the replay log: 512 chunks, about 0.1 s per pass.
const LOG_ROWS: usize = 1 << 21;
/// Rows in the log the server workloads' traced runs replay.
const PROBE_LOG_ROWS: usize = 1 << 16;
const PROBE_PASSES: usize = 4;
const CHUNK_ROWS: usize = 4096;
/// Log opens per `setup_s` measurement; one open takes microseconds.
const SETUP_OPENS: usize = 101;
const READ_BUFFER: usize = 1 << 16;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// A DFRL log on disk and the frame-path answers for it.
struct Log {
    path: PathBuf,
    stats: LogStats,
    table: ContingencyTable,
    audit: String,
}

impl Log {
    /// Writes `n` seeded rows through a frame as a DFRL log under
    /// `perfbench/out/`, keeping the frame's contingency table and audit.
    fn create(seed: u64, n: usize) -> Result<Log, String> {
        let mut rows = Rows::new(seed, stream::LOG);
        let mut codes: [Vec<u32>; 5] = Default::default();
        for _ in 0..n {
            for (column, code) in codes.iter_mut().zip(rows.next_row()) {
                column.push(code);
            }
        }
        let columns = SCHEMA
            .iter()
            .zip(codes)
            .map(|((name, labels), codes)| {
                let vocab = labels.iter().map(|l| l.to_string()).collect();
                Column::categorical_from_codes(*name, codes, vocab)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(text)?;
        let frame = DataFrame::new(columns).map_err(text)?;
        let table = frame.contingency(&COLUMNS).map_err(text)?;
        let dir = PathBuf::from("perfbench/out");
        std::fs::create_dir_all(&dir).map_err(text)?;
        let path = dir.join(format!("replay-{seed}-{n}-{}.dfrl", std::process::id()));
        let file = BufWriter::new(File::create(&path).map_err(text)?);
        let log = |stats| Log {
            path: path.clone(),
            stats,
            table: table.clone(),
            audit: String::new(),
        };
        let mut log = log(write_frame_log(&frame, CHUNK_ROWS, file).map_err(text)?);
        log.audit = audit_json(table, true).map_err(text)?;
        Ok(log)
    }

    fn reader(&self) -> Result<BufReader<File>, String> {
        Ok(BufReader::with_capacity(
            READ_BUFFER,
            File::open(&self.path).map_err(text)?,
        ))
    }
}

impl Drop for Log {
    fn drop(&mut self) {
        // df-lint: allow(must-use-results) -- removing the scratch log is best effort
        let _ = std::fs::remove_file(&self.path);
    }
}

/// `tally_from_log`'s loop rebuilt from its public pieces, with a span
/// around each chunk decode and each tally.
fn traced_tally(
    reader: impl BufRead,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<ContingencyTable, String> {
    let mut chunks = ReplayChunks::new(reader)
        .and_then(|c| c.with_columns(&COLUMNS))
        .map_err(text)?;
    let mut shard = PartialCounts::zeros(chunks.axes().map_err(text)?).map_err(text)?;
    loop {
        let id = spans.open("replay.decode", parent);
        let next = chunks.next();
        spans.close(id);
        let Some(chunk) = next else {
            spans.rename(id, "replay.end");
            break;
        };
        let chunk = chunk.map_err(text)?;
        let columns: Vec<&[u32]> = chunk.columns().iter().map(Vec::as_slice).collect();
        spans
            .time("tally", parent, || shard.record_codes_trusted(&columns))
            .map_err(text)?;
    }
    Ok(shard.into_table())
}

/// One replay-and-audit pass: its wall time in µs, the tally and the
/// rendered report.
fn pass(log: &Log, spans: &mut Spans) -> Result<(f64, ContingencyTable, String), String> {
    let t0 = Instant::now();
    let root = spans.open("replay.pass", None);
    let reader = log.reader()?;
    let table = if spans.is_on() {
        traced_tally(reader, spans, root)?
    } else {
        tally_from_log(reader, &COLUMNS).map_err(text)?
    };
    let counts = table.clone();
    let report = spans
        .time("replay.audit", root, || {
            Audit::of_counts(JointCounts::from_table(counts, OUTCOME)?)?
                .subsets(SubsetPolicy::All)
                .run()
        })
        .map_err(text)?;
    let json = spans
        .time("replay.render", root, || {
            report.render(ResponseFormat::Json)
        })
        .map_err(text)?;
    spans.close(root);
    Ok((t0.elapsed().as_secs_f64() * 1e6, table, json))
}

/// `setup_s`: the median over [`SETUP_OPENS`] opens of the log through
/// its schema header and axes, in CPU time of the opening thread.
fn setup(log: &Log, spans: &mut Spans, checks: &mut Checks) -> (f64, Calibration) {
    let mut times = Vec::with_capacity(SETUP_OPENS);
    let mut calib = Calibration::default();
    for _ in 0..SETUP_OPENS {
        calib.sample();
        let root = spans.open("setup", None);
        let t0 = sys::thread_cpu_s();
        let opened = log.reader().and_then(|reader| {
            let chunks = ReplayChunks::new(reader)
                .and_then(|c| c.with_columns(&COLUMNS))
                .map_err(text)?;
            chunks.axes().map(|a| a.len()).map_err(text)
        });
        times.push(sys::thread_cpu_s().zip(t0).map_or(f64::NAN, |(b, a)| b - a));
        spans.close(root);
        checks.check(opened == Ok(COLUMNS.len()), || {
            format!("opening the log: {opened:?}")
        });
    }
    (median(&times), calib)
}

#[derive(Default)]
struct Phase {
    calib: Calibration,
    pass_us: Vec<f64>,
    rows: u64,
    seconds: f64,
    cpu_s: f64,
    steal_share: f64,
    peak_rss_mib: f64,
}

/// Passes until `seconds` have gone by (or `max_passes` are done).
fn phase(
    log: &Log,
    seconds: f64,
    max_passes: usize,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Phase {
    let mut p = Phase {
        peak_rss_mib: sys::rss_mib().unwrap_or(f64::NAN),
        ..Phase::default()
    };
    let cpu0 = sys::process_cpu_s();
    let host0 = sys::HostTicks::now();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds && p.pass_us.len() < max_passes {
        let Some((us, table, json)) = checks.ok("a replay pass", pass(log, spans)) else {
            break;
        };
        checks.check(table == log.table, || {
            "the replayed tally differs from the frame's contingency table".into()
        });
        checks.check(json == log.audit, || {
            "the replayed audit differs from the frame-path audit".into()
        });
        p.pass_us.push(us);
        p.rows += log.stats.rows;
        p.calib.sample();
        p.peak_rss_mib = p.peak_rss_mib.max(sys::rss_mib().unwrap_or(f64::NAN));
    }
    p.seconds = start.elapsed().as_secs_f64();
    p.cpu_s = sys::process_cpu_s()
        .zip(cpu0)
        .map_or(f64::NAN, |(b, a)| b - a);
    p.steal_share = sys::HostTicks::now()
        .zip(host0)
        .map_or(f64::NAN, |(b, a)| b.steal_share_since(a));
    p
}

/// The end-to-end metrics as measured, before scaling to the reference
/// host speed.
fn raw(setup: &(f64, Calibration), p: &Phase) -> [f64; 3] {
    [setup.0, median(&p.pass_us), p.rows as f64 / p.cpu_s]
}

fn e2e(setup: &(f64, Calibration), p: &Phase) -> Vec<Metric> {
    let [setup_s, op_p50_us, rows_per_cpu_s] = raw(setup, p);
    let speed = p.calib.speed();
    vec![
        metric("setup_s", "s", setup_s * setup.1.speed()),
        metric("op_p50_us", "us", op_p50_us * speed),
        metric("rows_per_cpu_s", "rows/cpu-s", rows_per_cpu_s / speed),
    ]
}

/// The unscaled metrics and the host speeds that scale them.
fn host_speed(setup: &(f64, Calibration), p: &Phase) -> (String, Value) {
    let [setup_s, op_p50_us, rows_per_cpu_s] = raw(setup, p);
    (
        "host_speed".to_string(),
        obj(vec![
            ("setup", num(setup.1.speed())),
            ("phase", num(p.calib.speed())),
            ("kernel_us", num(p.calib.kernel_s() * 1e6)),
            ("kernel_samples", int(p.calib.samples() as u64)),
            ("unscaled_setup_s", num(setup_s)),
            ("unscaled_op_p50_us", num(op_p50_us)),
            ("unscaled_rows_per_cpu_s", num(rows_per_cpu_s)),
        ]),
    )
}

fn layer_metrics(log: &Log, spans: &Spans) -> Vec<Metric> {
    let s = spans.summary();
    let mean = |name: &str| s.get(name).map_or(f64::NAN, Agg::mean_us);
    vec![
        metric("replay.decode_us", "us", mean("replay.decode")),
        metric(
            "replay.bytes_per_row",
            "B",
            log.stats.bytes as f64 / log.stats.rows as f64,
        ),
        metric("replay.chunks", "count", log.stats.chunks as f64),
        metric("tally.us", "us", mean("tally")),
    ]
}

/// The replay layers for a server workload's traced run: a small log of
/// the same record distribution, replayed a few times with spans.
pub fn probe_layers(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    let Some(log) = checks.ok("write the probe log", Log::create(seed, PROBE_LOG_ROWS)) else {
        return Vec::new();
    };
    phase(&log, f64::INFINITY, PROBE_PASSES, spans, checks);
    layer_metrics(&log, spans)
}

fn report(p: &Phase, log: &Log) -> (Fields, Fields) {
    let provenance = vec![
        ("timed_phase_s".to_string(), num(p.seconds)),
        ("steal_share".to_string(), num(p.steal_share)),
        (
            "samples".to_string(),
            obj(vec![("pass", int(p.pass_us.len() as u64))]),
        ),
        ("log_rows".to_string(), int(log.stats.rows)),
        ("log_bytes".to_string(), int(log.stats.bytes)),
    ];
    let diagnostics = vec![
        (
            "latency_us".to_string(),
            obj(vec![("pass", tail(&p.pass_us))]),
        ),
        ("rows".to_string(), int(p.rows)),
        ("peak_rss_mib".to_string(), num(p.peak_rss_mib)),
        ("program_cpu_s".to_string(), num(p.cpu_s)),
        (
            "rows_per_s_wall".to_string(),
            num(p.rows as f64 / p.seconds),
        ),
    ];
    (provenance, diagnostics)
}

pub fn run(args: &Args, checks: &mut Checks) -> Outcome {
    let Some(log) = checks.ok("write the replay log", Log::create(args.seed, LOG_ROWS)) else {
        return Outcome::default();
    };
    let plain_setup = setup(&log, &mut Spans::new(false), checks);
    if !args.trace {
        let p = phase(
            &log,
            args.seconds,
            usize::MAX,
            &mut Spans::new(false),
            checks,
        );
        let (provenance, mut diagnostics) = report(&p, &log);
        diagnostics.push(host_speed(&plain_setup, &p));
        return Outcome {
            metrics: e2e(&plain_setup, &p),
            provenance,
            diagnostics,
        };
    }
    let half = args.seconds / 2.0;
    let plain = phase(&log, half, usize::MAX, &mut Spans::new(false), checks);
    let mut spans = Spans::new(true);
    let traced_setup = setup(&log, &mut spans, checks);
    let traced = phase(&log, half, usize::MAX, &mut spans, checks);
    let mut metrics = layer_metrics(&log, &spans);
    metrics.extend(server::probe_http(args.seed, &mut spans, checks));
    metrics.extend(layers::probe(args.seed, &mut spans, checks));
    metrics.extend(layers::overhead(
        &e2e(&plain_setup, &plain),
        &e2e(&traced_setup, &traced),
    ));
    let (provenance, mut diagnostics) = report(&traced, &log);
    diagnostics.push(host_speed(&traced_setup, &traced));
    diagnostics.extend(layers::finish(&args.workload, args.seed, &spans, checks));
    Outcome {
        metrics,
        provenance,
        diagnostics,
    }
}
