//! The in-process layer probe and the traced run's wrap-up.
//!
//! The probe pushes generated inputs through the public functions the
//! request handlers compose — body decode, `ServerState::ingest_rows`,
//! `::ingest_snapshot`, `::merged_cached`, `::cached_response`, the audit
//! and the renderers — against a second, identically configured server
//! reached through `Server::state()`. Each handler-shaped operation is one
//! span and each call inside it a child span, so the operation's own self
//! time is the glue the handlers add. Every traced run executes the same
//! probe mix, so each layer is timed on every workload's inputs.

use crate::trace::{Agg, Spans};
use crate::workload::{
    self, csv_body, json_body, stream, DataClock, Replica, Rows, BODY_ROWS, OUTCOME, PROBE_CYCLES,
};
use crate::{int, metric, num, obj, Checks, Fields, Metric};
use df_core::builder::{Audit, SubsetPolicy};
use df_core::fleet::SnapshotDecoder;
use df_core::report::ResponseFormat;
use df_core::JointCounts;
use df_data::chunks::CsvChunks;
use df_data::csv::CsvOptions;
use df_server::http::Response;
use serde_json::Value;
use std::io::Cursor;
use std::path::PathBuf;
use std::time::Duration;

/// Render-cache keys as the handlers build them (`path?query#format`).
const AUDIT_KEY: &str = "/v1/audit?subsets=all#json";
const MONITOR_KEY: &str = "/v1/monitor?#json";

/// The ingest handler's JSON decode: parse, then extract the label rows.
fn decode_json(body: &[u8]) -> Result<Vec<Vec<String>>, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let value = serde_json::parse(text).map_err(|e| e.to_string())?;
    let rows = value
        .field("rows")
        .as_arr("rows")
        .map_err(|e| e.to_string())?;
    rows.iter()
        .map(|row| {
            let cells = row.as_arr("row").map_err(|e| e.to_string())?;
            cells
                .iter()
                .map(|cell| match cell {
                    Value::Str(s) => Ok(s.clone()),
                    other => Err(format!("a {} where a label was expected", other.kind())),
                })
                .collect()
        })
        .collect()
}

/// The ingest handler's CSV decode.
fn decode_csv(body: &[u8]) -> Result<Vec<Vec<String>>, String> {
    let chunks = CsvChunks::new(Cursor::new(body), CsvOptions::default(), 1 << 20)
        .map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for chunk in chunks {
        rows.extend(chunk.map_err(|e| e.to_string())?.rows().iter().cloned());
    }
    Ok(rows)
}

/// The probe mix, [`PROBE_CYCLES`] times: a write (3 JSON to 1 CSV), a
/// replica frame every 16th cycle, then a cold audit, a monitor read and
/// a warm audit.
pub fn probe(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    let Some(server) = checks.ok(
        "bind the probe server",
        workload::server().bind("127.0.0.1:0"),
    ) else {
        return Vec::new();
    };
    let state = server.state();
    let timeout = Duration::from_secs(5);
    let mut rows = Rows::new(seed, stream::PROBE);
    let mut clock = DataClock::new(10);
    let mut replicas = Replica::pair();
    let mut decoder = SnapshotDecoder::new();
    let (mut body_bytes, mut body_rows) = (0usize, 0usize);
    let (mut frame_bytes, mut frames) = (0usize, 0usize);
    let (mut render_bytes, mut renders) = (0usize, 0usize);
    let mut subsets = 0usize;
    for c in 0..PROBE_CYCLES {
        let batch = rows.take(BODY_ROWS);
        let at = clock.next();
        let csv = c % 4 == 3;
        let body = if csv {
            csv_body(&batch)
        } else {
            json_body(&batch, at)
        };
        body_bytes += body.len();
        body_rows += batch.len();
        let op = spans.open(
            if csv {
                "probe.write_csv"
            } else {
                "probe.write_json"
            },
            None,
        );
        let decoded = if csv {
            spans.time("decode.csv", op, || decode_csv(&body))
        } else {
            spans.time("decode.json", op, || decode_json(&body))
        };
        if let Some(labels) = checks.ok("decode an ingest body", decoded) {
            let ingested = spans.time("state.ingest_rows", op, || {
                state.ingest_rows(labels, at, None)
            });
            checks.ok("ingest_rows", ingested);
        }
        spans.close(op);

        if c % 16 == 15 {
            let replica = &mut replicas[usize::from(c % 32 == 31)];
            let name = replica.name;
            if let Some(frame) = checks.ok(
                "encode a replica frame",
                replica.frame(&rows.take(BODY_ROWS), at),
            ) {
                frame_bytes += frame.len();
                frames += 1;
                let op = spans.open("probe.snapshot", None);
                let decoded = spans.time("codec.decode", op, || decoder.decode(&frame));
                checks.ok("decode a DFLT frame", decoded);
                let stored = spans.time("state.ingest_snapshot", op, || {
                    state.ingest_snapshot(&frame, name)
                });
                checks.ok("ingest_snapshot", stored);
                spans.close(op);
            }
        }

        // The audit handler after a write: cut, render-cache miss, audit
        // over the full lattice, render, store.
        let op = spans.open("probe.cold", None);
        let merged = spans.time("state.merged", op, || state.merged_cached(timeout));
        if let Some((version, snap)) = checks.ok("merged_cached", merged) {
            let cached = spans.time("state.cached_response", op, || {
                state.cached_response(version, AUDIT_KEY)
            });
            checks.check(cached.is_none(), || {
                "a cold read hit the render cache".into()
            });
            let report = spans.time("audit.run", op, || {
                Audit::of_counts(JointCounts::from_table(snap.window.to_table()?, OUTCOME)?)?
                    .subsets(SubsetPolicy::All)
                    .run()
            });
            if let Some(report) = checks.ok("audit", report) {
                subsets = report.estimators.first().map_or(0, |e| e.subsets.len());
                let body = spans.time("render.audit", op, || report.render(ResponseFormat::Json));
                if let Some(body) = checks.ok("render an audit", body) {
                    render_bytes += body.len();
                    renders += 1;
                    let resp = Response::new(200, "application/json", body.into_bytes());
                    state.store_response(version, AUDIT_KEY, &resp);
                }
            }
        }
        spans.close(op);

        // The monitor handler: snapshot-cache hit, render-cache miss.
        let op = spans.open("probe.monitor", None);
        let merged = spans.time("state.merged_hit", op, || state.merged_cached(timeout));
        if let Some((version, snap)) = checks.ok("merged_cached", merged) {
            let cached = spans.time("state.cached_response", op, || {
                state.cached_response(version, MONITOR_KEY)
            });
            checks.check(cached.is_none(), || {
                "a monitor read hit the render cache".into()
            });
            let body = spans.time("render.monitor", op, || snap.render(ResponseFormat::Json));
            if let Some(body) = checks.ok("render the monitor", body) {
                render_bytes += body.len();
                renders += 1;
                let resp = Response::new(200, "application/json", body.into_bytes());
                state.store_response(version, MONITOR_KEY, &resp);
            }
        }
        spans.close(op);

        // The audit handler again: both caches hit.
        let op = spans.open("probe.warm", None);
        let merged = spans.time("state.merged_hit", op, || state.merged_cached(timeout));
        if let Some((version, _)) = checks.ok("merged_cached", merged) {
            let cached = spans.time("state.cached_response", op, || {
                state.cached_response(version, AUDIT_KEY)
            });
            checks.check(cached.is_some(), || {
                "a warm read missed the render cache".into()
            });
        }
        spans.close(op);
    }
    server.shutdown();

    let s = spans.summary();
    let mean = |name: &str| s.get(name).map_or(f64::NAN, Agg::mean_us);
    let renders_ns = ["render.audit", "render.monitor"]
        .iter()
        .filter_map(|n| s.get(n))
        .map(|a| a.total_ns)
        .sum::<u64>();
    let ratio = |a: usize, b: usize| a as f64 / b.max(1) as f64;
    vec![
        metric("decode.json_us", "us", mean("decode.json")),
        metric("decode.csv_us", "us", mean("decode.csv")),
        metric("decode.bytes_per_row", "B", ratio(body_bytes, body_rows)),
        metric("state.ingest_rows_us", "us", mean("state.ingest_rows")),
        metric(
            "state.ingest_snapshot_us",
            "us",
            mean("state.ingest_snapshot"),
        ),
        metric("state.merged_us", "us", mean("state.merged")),
        metric("codec.decode_us", "us", mean("codec.decode")),
        metric("codec.frame_bytes", "B", ratio(frame_bytes, frames)),
        metric("audit.run_us", "us", mean("audit.run")),
        metric("audit.subsets", "count", subsets as f64),
        metric(
            "render.us",
            "us",
            renders_ns as f64 / renders.max(1) as f64 / 1e3,
        ),
        metric("render.bytes", "B", ratio(render_bytes, renders)),
    ]
}

/// `bench.trace_overhead_share.<metric>`: traced minus untraced, as a
/// share of untraced, for each end-to-end metric.
pub fn overhead(plain: &[Metric], traced: &[Metric]) -> Vec<Metric> {
    plain
        .iter()
        .zip(traced)
        .map(|(a, b)| {
            metric(
                format!("bench.trace_overhead_share.{}", a.name),
                "ratio",
                (b.value - a.value) / a.value,
            )
        })
        .collect()
}

/// Checks that every span tree's self times add up to its root, writes
/// every span out, and summarises self time per span name.
pub fn finish(workload: &str, seed: u64, spans: &Spans, checks: &mut Checks) -> Fields {
    let unbalanced = spans.unbalanced_trees();
    checks.check(unbalanced == 0, || {
        format!("{unbalanced} span trees do not add up to their root span")
    });
    let path = PathBuf::from(format!("perfbench/out/trace-{workload}-{seed}.tsv"));
    checks.ok("write the trace", spans.write_tsv(&path));
    let table = spans
        .summary()
        .iter()
        .map(|(name, a)| {
            (
                name.to_string(),
                obj(vec![
                    ("count", int(a.count)),
                    ("mean_us", num(a.mean_us())),
                    ("mean_self_us", num(a.mean_self_us())),
                ]),
            )
        })
        .collect();
    vec![
        (
            "trace_file".into(),
            Value::Str(path.to_string_lossy().into_owned()),
        ),
        (
            "span_trees".into(),
            obj(vec![
                ("roots", int(spans.roots() as u64)),
                ("unbalanced", int(unbalanced as u64)),
            ]),
        ),
        ("self_time".into(), Value::Obj(table)),
    ]
}
