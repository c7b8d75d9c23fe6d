//! Criterion bench: telemetry primitive costs and the instrumented
//! warm-audit overhead gate.
//!
//! Three questions, answered separately:
//!
//! 1. **What does one telemetry op cost?** Counter bumps, histogram
//!    observations, full request spans (clock read × 2 + histogram +
//!    ring push), and a registry scrape — each in isolation.
//! 2. **What does instrumentation cost the warm audit?** The acceptance
//!    gate: `tcp_request` measures warm `GET /v1/audit` over keep-alive
//!    TCP against the fully instrumented server (version-cached
//!    snapshot + rendered bytes, the ≥10k req/s regime), and
//!    `per_request_telemetry` measures the complete telemetry sequence
//!    that path executes — endpoint span with three fields, status-class
//!    and body-byte counters, two cache counters — in isolation. The
//!    target is `per_request_telemetry / tcp_request ≤ 5%`; measured,
//!    the sequence is hundreds of nanoseconds against a
//!    tens-of-microseconds request, comfortably under.
//! 3. **What does instrumentation cost a shard push?** The
//!    incremental monitor loop bare vs with exactly the per-chunk
//!    telemetry `FleetIngest::push` adds (two clock reads, a
//!    histogram observation, four counter/gauge bumps). The cost is
//!    fixed per chunk, so it amortizes over the batch — report it per
//!    row, not per chunk.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use df_core::builder::{Audit, Smoothed};
use df_core::fleet::ShardTelemetry;
use df_core::monitor::FairnessMonitor;
use df_data::chunks::FrameChunks;
use df_data::frame::DataFrame;
use df_data::workloads::drift_replay_frame;
use df_obs::{Counter, Histogram, Registry, TraceRing, Tracer};
use df_prob::contingency::Axis;
use df_prob::rng::Pcg32;
use df_server::client::Http1Client;
use df_server::Server;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/primitives");

    let counter = Counter::new();
    group.bench_function("counter_inc", |b| b.iter(|| counter.inc()));

    let hist = Histogram::default_latency();
    group.bench_function("histogram_observe", |b| {
        let mut v = 1e-6;
        b.iter(|| {
            v = (v * 1.001) % 1.0;
            hist.observe(black_box(v));
        })
    });

    let tracer = Tracer::new(
        Arc::new(df_obs::RealClock::new()),
        Some(TraceRing::new(256)),
    );
    group.bench_function("span_enter_finish", |b| {
        b.iter(|| {
            let mut span = tracer.span("bench", &hist);
            span.field("status", "200");
            black_box(span.finish())
        })
    });

    // A server-shaped registry: 9 endpoints × 5 status classes of
    // counters plus 9 latency histograms, scraped whole.
    let registry = Registry::new();
    for e in 0..9usize {
        let endpoint = format!("e{e}");
        let labels: &[(&str, &str)] = &[("endpoint", endpoint.as_str())];
        let h = registry
            .histogram("bench_seconds", labels, hist.bounds())
            .unwrap();
        h.observe(0.001 * e as f64);
        for class in ["1xx", "2xx", "3xx", "4xx", "5xx"] {
            let c = registry
                .counter(
                    "bench_total",
                    &[("endpoint", endpoint.as_str()), ("status", class)],
                )
                .unwrap();
            c.add(e as u64);
        }
    }
    group.bench_function("render_text_54_series", |b| {
        b.iter(|| black_box(registry.render_text().len()))
    });
    group.finish();
}

/// Two outcomes × 4×3×2 protected intersections, the server bench schema.
fn schema() -> Vec<Axis> {
    vec![
        Axis::from_strs("outcome", &["y0", "y1"]).unwrap(),
        Axis::from_strs("attr0", &["v0", "v1", "v2", "v3"]).unwrap(),
        Axis::from_strs("attr1", &["v0", "v1", "v2"]).unwrap(),
        Axis::from_strs("attr2", &["v0", "v1"]).unwrap(),
    ]
}

fn bench_warm_audit(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/warm_audit");

    // The instrumented warm path over real TCP: spans, counters, and
    // cache telemetry all live, trace ring at its default capacity.
    let server = Server::builder("outcome", schema())
        .window_seconds(1e6)
        .bucket_seconds(1.0)
        .shards(2)
        .workers(2)
        .bind("127.0.0.1:0")
        .expect("bind bench server");
    let mut client = Http1Client::connect(server.local_addr()).expect("connect");
    let posted = client
        .request(
            "POST",
            "/v1/ingest/records",
            &[],
            br#"{"rows": [["y0","v0","v0","v0"],["y1","v1","v1","v1"]], "at": 1.0}"#,
        )
        .expect("ingest");
    assert_eq!(posted.status, 200, "{}", posted.text());
    // Prime both caches so every measured request is warm.
    assert_eq!(client.get("/v1/audit").expect("prime").status, 200);
    group.bench_function("tcp_request", |b| {
        b.iter(|| {
            let resp = client.get("/v1/audit").expect("warm audit");
            assert_eq!(resp.status, 200);
            black_box(resp.body.len())
        })
    });

    // The complete per-request telemetry sequence that path executes,
    // in isolation: its cost over `tcp_request` is the overhead ratio.
    let hist = Histogram::default_latency();
    let tracer = Tracer::new(
        Arc::new(df_obs::RealClock::new()),
        Some(TraceRing::new(256)),
    );
    let requests = Counter::new();
    let request_bytes = Counter::new();
    let response_bytes = Counter::new();
    let snap_cache_hit = Counter::new();
    let render_cache_hit = Counter::new();
    group.bench_function("per_request_telemetry", |b| {
        b.iter(|| {
            let mut span = tracer.span("audit", &hist);
            span.field("method", "GET");
            span.field("path", "/v1/audit");
            span.field("status", "200");
            let seconds = span.finish();
            requests.inc();
            request_bytes.add(0);
            response_bytes.add(1024);
            snap_cache_hit.inc();
            render_cache_hit.inc();
            black_box(seconds)
        })
    });
    group.finish();
    drop(client);
    server.shutdown();
}

const N_ROWS: usize = 200_000;
/// Per-chunk telemetry cost is fixed, so the overhead ratio is a
/// function of batch size; 256 rows is the shape of a realistic ingest
/// POST.
const CHUNK_ROWS: usize = 256;
const COLUMNS: [&str; 3] = ["outcome", "attr0", "attr1"];

fn workload() -> DataFrame {
    let mut rng = Pcg32::new(2026);
    drift_replay_frame(&mut rng, N_ROWS, &[2, 4], 0.35, 0.2, 1.8).expect("workload generation")
}

fn monitor_for(frame: &DataFrame) -> FairnessMonitor {
    let axes = FrameChunks::new(frame, &COLUMNS, CHUNK_ROWS)
        .unwrap()
        .axes()
        .unwrap();
    Audit::monitor("outcome", axes)
        .estimator(Smoothed { alpha: 1.0 })
        .window(10_000)
        .build()
        .unwrap()
}

fn bench_ingest_worker_overhead(c: &mut Criterion) {
    let frame = workload();

    let mut group = c.benchmark_group("obs/ingest_worker");
    group.sample_size(20);
    group.throughput(Throughput::Elements(N_ROWS as u64));

    // Baseline: the bare incremental monitor loop.
    group.bench_function("baseline", |b| {
        b.iter(|| {
            let mut monitor = monitor_for(&frame);
            let mut last = 0.0;
            for chunk in FrameChunks::new(&frame, &COLUMNS, CHUNK_ROWS).unwrap() {
                last = monitor.push(&chunk).unwrap().epsilon.epsilon;
            }
            black_box(last)
        })
    });

    // Instrumented: the identical loop plus exactly what
    // `FleetIngest::push` records per chunk.
    group.bench_function("instrumented", |b| {
        b.iter(|| {
            let mut monitor = monitor_for(&frame);
            let tel = ShardTelemetry::default();
            let push_seconds = Histogram::default_latency();
            let mut last = 0.0;
            let mut at = 0.0f64;
            for chunk in FrameChunks::new(&frame, &COLUMNS, CHUNK_ROWS).unwrap() {
                at += 1.0;
                tel.enqueued.inc();
                let start = Instant::now();
                last = monitor.push(&chunk).unwrap().epsilon.epsilon;
                push_seconds.observe(start.elapsed().as_secs_f64());
                tel.rows.add(chunk.n_rows() as u64);
                tel.chunks.inc();
                tel.last_seen.set(at);
                tel.processed.inc();
            }
            black_box((last, tel.rows.get(), push_seconds.count()))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_warm_audit,
    bench_ingest_worker_overhead
);
criterion_main!(benches);
