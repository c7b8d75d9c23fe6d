//! Criterion bench: the `df-server` audit service over real TCP.
//!
//! Three questions, one per serving regime:
//!
//! 1. **Warm read path.** `GET /v1/audit` between ingests: the merged
//!    snapshot and the rendered bytes are both version-cached, so a
//!    request costs one parse + two hash lookups + one socket
//!    round-trip. The hand-rolled harness below prints req/s, p50, and
//!    p99 over a keep-alive connection — the ISSUE's ≥10k req/s
//!    acceptance number comes from here.
//! 2. **Cold read path.** The first audit after an ingest pays the
//!    consistent-cut round over the fleet shards plus a full ε
//!    recomputation — measured by interleaving one-row ingests with
//!    audits.
//! 3. **Ingest path.** `POST /v1/ingest/records` throughput for
//!    64-row JSON chunks, the validation + shard push cost per request.
//!
//! Run with `cargo bench -p df-bench --bench server`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use df_prob::contingency::Axis;
use df_server::client::Http1Client;
use df_server::Server;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Two outcomes × 4×3×2 protected intersections = 48 cells, the same
/// schema as the fleet transport bench.
fn schema() -> Vec<Axis> {
    vec![
        Axis::from_strs("outcome", &["y0", "y1"]).unwrap(),
        Axis::from_strs("attr0", &["v0", "v1", "v2", "v3"]).unwrap(),
        Axis::from_strs("attr1", &["v0", "v1", "v2"]).unwrap(),
        Axis::from_strs("attr2", &["v0", "v1"]).unwrap(),
    ]
}

fn start_server() -> Server {
    Server::builder("outcome", schema())
        .window_seconds(1e6)
        .bucket_seconds(1.0)
        .shards(4)
        .workers(4)
        .bind("127.0.0.1:0")
        .expect("bind bench server")
}

/// A deterministic 64-row JSON chunk body covering every cell.
fn json_chunk(salt: usize) -> Vec<u8> {
    let rows = (0..64)
        .map(|i| {
            let i = i + salt;
            format!(
                "[\"y{}\",\"v{}\",\"v{}\",\"v{}\"]",
                i % 2,
                (i / 2) % 4,
                (i / 8) % 3,
                (i / 24) % 2
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"rows\": [{rows}], \"at\": 1000.0}}").into_bytes()
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn bench_server(c: &mut Criterion) {
    let server = start_server();
    let mut client = Http1Client::connect(server.local_addr()).expect("connect");

    // Populate every cell so the audit is non-degenerate.
    for salt in 0..8 {
        let resp = client
            .request(
                "POST",
                "/v1/ingest/records",
                &[("Content-Type", "application/json")],
                &json_chunk(salt),
            )
            .expect("ingest");
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    // Warm the caches once.
    let warm = client.get("/v1/audit").expect("audit");
    assert_eq!(warm.status, 200, "{}", warm.text());

    // Hand-rolled throughput harness: the acceptance measurement. One
    // keep-alive connection, N sequential audits, wall-clock req/s and
    // latency percentiles.
    let n = 20_000usize;
    let mut latencies = Vec::with_capacity(n);
    let started = Instant::now();
    for _ in 0..n {
        let t0 = Instant::now();
        let resp = client.get("/v1/audit").expect("warm audit");
        latencies.push(t0.elapsed());
        debug_assert_eq!(resp.status, 200);
    }
    let elapsed = started.elapsed();
    latencies.sort();
    println!(
        "server warm GET /v1/audit (48-cell schema, keep-alive, 1 client): \
         {:.0} req/s over {n} requests; p50 {:.1} us, p99 {:.1} us, max {:.1} us",
        n as f64 / elapsed.as_secs_f64(),
        percentile(&latencies, 0.50).as_secs_f64() * 1e6,
        percentile(&latencies, 0.99).as_secs_f64() * 1e6,
        latencies[latencies.len() - 1].as_secs_f64() * 1e6,
    );

    let mut group = c.benchmark_group("server");
    group.throughput(Throughput::Elements(1));
    group.bench_function("audit_get_warm", |b| {
        b.iter(|| black_box(client.get("/v1/audit").expect("warm audit")))
    });
    group.bench_function("monitor_get_warm", |b| {
        b.iter(|| black_box(client.get("/v1/monitor?format=csv").expect("warm monitor")))
    });
    group.bench_function("healthz_get", |b| {
        b.iter(|| black_box(client.get("/v1/healthz").expect("healthz")))
    });
    // The cold path: every audit preceded by an ingest that invalidates
    // the version caches, forcing a consistent-cut round + ε pass.
    let body = json_chunk(99);
    group.bench_function("audit_get_cold_after_ingest", |b| {
        b.iter(|| {
            client
                .request(
                    "POST",
                    "/v1/ingest/records",
                    &[("Content-Type", "application/json")],
                    &body,
                )
                .expect("ingest");
            black_box(client.get("/v1/audit").expect("cold audit"))
        })
    });
    group.throughput(Throughput::Elements(64));
    group.bench_function("ingest_json_64_rows", |b| {
        b.iter(|| {
            black_box(
                client
                    .request(
                        "POST",
                        "/v1/ingest/records",
                        &[("Content-Type", "application/json")],
                        &body,
                    )
                    .expect("ingest"),
            )
        })
    });
    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench_server);
criterion_main!(benches);
