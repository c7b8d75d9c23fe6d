//! Criterion bench: the fleet aggregation subsystem — snapshot transport
//! (binary vs JSON), the snapshot fold, and concurrent sharded ingestion.
//!
//! Three questions, matching the three fleet layers:
//!
//! 1. **Transport.** What does one steady-state monitoring tick cost on
//!    the wire? A replica snapshots a warm wall-clock monitor (60 s
//!    window, 48-cell schema, subsets, CUSUM) once per second; we
//!    measure encode/decode time for delta frames and the bytes/tick of
//!    binary vs JSON (sizes are printed once at startup — multiply by
//!    1 000 replicas × 1 Hz for the aggregator's ingress bandwidth).
//! 2. **Merge trees.** Folding 1 000 shard snapshots into the fleet ε:
//!    `merge_many` (in-place accumulation, one ε pass at the root)
//!    against the sequential pairwise `MonitorSnapshot::merge` fold
//!    (which re-clones axes and re-runs the ε kernel per pair). Both
//!    produce byte-identical output — proven in `fleet_equivalence`.
//! 3. **Ingestion.** 4 producer threads pushing a fixed 4-replica fleet
//!    replay into `FleetIngest` with N shards (producers share a shard
//!    lock when N < 4), final cut included.
//!
//! Run with `cargo bench -p df-bench --bench fleet`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use df_core::builder::{Audit, Smoothed, SubsetPolicy};
use df_core::fleet::{merge_many, FleetIngest, SnapshotDecoder, SnapshotEncoder};
use df_core::monitor::{Cusum, FairnessMonitor, MonitorSnapshot};
use df_data::workloads::{
    fleet_drift_streams, ArrivalProcess, DriftSegment, FleetDriftPlan, TimedChunk,
    TimestampedReplay,
};
use df_prob::contingency::Axis;
use df_prob::rng::Pcg32;
use std::hint::black_box;

/// Two outcomes × 4×3×2 protected intersections = 48 cells.
fn schema() -> Vec<Axis> {
    vec![
        Axis::from_strs("outcome", &["y0", "y1"]).unwrap(),
        Axis::from_strs("attr0", &["v0", "v1", "v2", "v3"]).unwrap(),
        Axis::from_strs("attr1", &["v0", "v1", "v2"]).unwrap(),
        Axis::from_strs("attr2", &["v0", "v1"]).unwrap(),
    ]
}

fn replica_monitor() -> FairnessMonitor {
    Audit::monitor("outcome", schema())
        .estimator(Smoothed { alpha: 1.0 })
        .subsets(SubsetPolicy::UpTo { size: 1 })
        .window_seconds(60.0)
        .bucket_seconds(1.0)
        .changepoint(Cusum::new(0.5, 0.05, 1.0))
        .build()
        .unwrap()
}

/// One replica's warm steady state: 60 s of Poisson traffic at 200/s.
fn warm_snapshot(seed: u64) -> MonitorSnapshot {
    let mut rng = Pcg32::new(seed);
    let replay = df_data::workloads::timestamped_drift_stream(
        &mut rng,
        &[4, 3, 2],
        0.35,
        &[DriftSegment::new(60.0, 0.4)],
        ArrivalProcess::Poisson { rate: 200.0 },
    )
    .expect("replica workload");
    let mut monitor = replica_monitor();
    for chunk in replay.bucket_chunks(1.0).expect("bucket grouping") {
        monitor.push_at(&chunk, chunk.timestamp).expect("push");
    }
    monitor.snapshot().expect("snapshot")
}

fn bench_codec(c: &mut Criterion) {
    let snap = warm_snapshot(42);
    let mut encoder = SnapshotEncoder::new();
    let full = encoder.encode(&snap).unwrap();
    let delta = encoder.encode(&snap).unwrap();
    let json = serde_json::to_string(&snap).unwrap();
    println!(
        "fleet codec bytes/tick (48-cell schema, 60 s window): \
         full {} B, delta {} B, JSON {} B ({:.1}x); \
         1k replicas x 1 Hz: binary {:.1} KB/s vs JSON {:.1} KB/s",
        full.len(),
        delta.len(),
        json.len(),
        json.len() as f64 / delta.len() as f64,
        delta.len() as f64,
        json.len() as f64,
    );
    assert!(
        delta.len() * 5 <= json.len(),
        "steady-state delta must be >= 5x smaller than JSON"
    );

    let mut group = c.benchmark_group("fleet_codec");
    group.throughput(Throughput::Bytes(delta.len() as u64));
    group.bench_function("encode_delta", |b| {
        let mut enc = SnapshotEncoder::new();
        enc.encode(&snap).unwrap();
        b.iter(|| enc.encode(black_box(&snap)).unwrap())
    });
    group.bench_function("decode_delta", |b| {
        let mut dec = SnapshotDecoder::new();
        dec.decode(&full).unwrap();
        b.iter(|| dec.decode(black_box(&delta)).unwrap())
    });
    group.throughput(Throughput::Bytes(json.len() as u64));
    group.bench_function("encode_json", |b| {
        b.iter(|| serde_json::to_string(black_box(&snap)).unwrap())
    });
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    // 1 000 replica snapshots over the shared schema (8 distinct warm
    // states cycled — merge cost depends on cell count, not cell values).
    let distinct: Vec<MonitorSnapshot> = (0..8).map(|i| warm_snapshot(100 + i)).collect();
    let snaps: Vec<MonitorSnapshot> = (0..1_000).map(|i| distinct[i % 8].clone()).collect();
    let estimator = Smoothed { alpha: 1.0 };

    let mut group = c.benchmark_group("fleet_merge_1k");
    group.sample_size(10);
    group.throughput(Throughput::Elements(snaps.len() as u64));
    group.bench_function("merge_many", |b| {
        b.iter(|| merge_many(black_box(&snaps), &estimator).unwrap())
    });
    group.bench_function("pairwise_fold", |b| {
        b.iter(|| {
            let mut acc = snaps[0].clone();
            for snap in &snaps[1..] {
                acc = acc.merge(snap, &estimator).unwrap();
            }
            acc
        })
    });
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    // A fixed 4-replica fleet replay: 60 s of Poisson traffic at 5 000/s
    // per replica (~1.2M records total), pre-bucketed per second.
    let mut rng = Pcg32::new(7);
    let replays: Vec<TimestampedReplay> = fleet_drift_streams(
        &mut rng,
        &[4, 3, 2],
        0.35,
        FleetDriftPlan {
            replicas: 4,
            calm: &[DriftSegment::new(60.0, 0.3)],
            drifted: &[DriftSegment::new(30.0, 0.3), DriftSegment::new(30.0, 1.5)],
            drift_replicas: &[3],
        },
        ArrivalProcess::Poisson { rate: 5_000.0 },
    )
    .expect("fleet workload");
    let feeds: Vec<Vec<TimedChunk>> = replays
        .iter()
        .map(|r| r.bucket_chunks(1.0).expect("bucket grouping"))
        .collect();
    let total_rows: usize = replays.iter().map(|r| r.frame.n_rows()).sum();

    let mut group = c.benchmark_group("fleet_ingest");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_rows as u64));
    // Shard counts up to the replica count only: there are 4 feeds, so
    // more than 4 shards would just idle.
    for shards in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("producers", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let fleet: FleetIngest = Audit::monitor("outcome", schema())
                        .estimator(Smoothed { alpha: 1.0 })
                        .window_seconds(60.0)
                        .bucket_seconds(1.0)
                        .fleet(shards)
                        .unwrap();
                    std::thread::scope(|scope| {
                        for (i, feed) in feeds.iter().enumerate() {
                            let fleet = &fleet;
                            scope.spawn(move || {
                                for chunk in feed {
                                    fleet.push(i % shards, chunk, chunk.timestamp).unwrap();
                                }
                            });
                        }
                    });
                    fleet.snapshot().unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_codec, bench_merge, bench_ingest);
criterion_main!(benches);
