//! Fleet-wide fairness monitoring: per-replica monitors, one global ε.
//!
//! A serving fleet shards traffic across replicas, and each replica can
//! look fair on its own slice while the fleet as a whole drifts — the
//! streaming twin of fairness gerrymandering. This example runs a
//! 4-replica fleet where **only replica 3 degrades** (its planted ε
//! steps from 0.2 to 1.6 at t = 150 s) and shows the three fleet layers
//! working together:
//!
//! 1. **Concurrent sharded ingestion**: 4 producer threads push into 4
//!    shard monitors through `FleetIngest`, each shard behind its own
//!    lock — producers on different shards never wait on each other.
//! 2. **One-fold aggregation**: every 30 s tick, `snapshot_at` locks
//!    the shards, aligns their clocks and copies their counts, then
//!    folds them and derives the fleet-wide ε over the *union* of
//!    traffic once.
//! 3. **Binary snapshot transport**: each fleet tick ships through the
//!    schema-interning codec — the schema rides once in a full frame,
//!    then every tick is a small delta frame (sizes printed vs JSON).
//!
//! Run with `cargo run --release --example fleet_aggregation`.

use differential_fairness::prelude::*;

fn main() {
    let change_at = 150.0;
    let mut rng = Pcg32::new(11);
    let replays = fleet_drift_streams(
        &mut rng,
        &[2, 2],
        0.4,
        FleetDriftPlan {
            replicas: 4,
            calm: &[DriftSegment::new(300.0, 0.2)],
            drifted: &[
                DriftSegment::new(change_at, 0.2),
                DriftSegment::new(150.0, 1.6),
            ],
            drift_replicas: &[3],
        },
        ArrivalProcess::Poisson { rate: 50.0 },
    )
    .unwrap();
    let total: usize = replays.iter().map(|r| r.frame.n_rows()).sum();
    println!(
        "4 replicas x 50 records/s for 300 s ({total} records); replica 3's \
         planted eps steps 0.2 -> 1.6 at t = {change_at} s"
    );

    let axes = vec![
        Axis::from_strs("outcome", &["y0", "y1"]).unwrap(),
        Axis::from_strs("attr0", &["v0", "v1"]).unwrap(),
        Axis::from_strs("attr1", &["v0", "v1"]).unwrap(),
    ];
    let fleet: FleetIngest = Audit::monitor("outcome", axes.clone())
        .estimator(Smoothed { alpha: 1.0 })
        .window_seconds(60.0)
        .bucket_seconds(5.0)
        .fleet(4)
        .unwrap();

    // Pre-bucket each replica's stream; producers feed their own shard
    // concurrently, the aggregator ticks every 30 s of stream time.
    let feeds: Vec<Vec<TimedChunk>> = replays
        .iter()
        .map(|r| r.bucket_chunks(5.0).unwrap())
        .collect();
    let mut encoder = SnapshotEncoder::new();
    let mut decoder = SnapshotDecoder::new();
    println!(
        "{:>8}  {:>10}  {:>12}  {:>22}",
        "t (s)", "fleet eps", "window rows", "frame bytes (vs JSON)"
    );
    let mut cursors = vec![0usize; feeds.len()];
    for tick in 1..=10 {
        let until = tick as f64 * 30.0;
        // Each producer thread pushes its replica's buckets up to `until`.
        std::thread::scope(|scope| {
            for (shard, (feed, cursor)) in feeds.iter().zip(&mut cursors).enumerate() {
                let fleet = &fleet;
                scope.spawn(move || {
                    while *cursor < feed.len() && feed[*cursor].timestamp < until {
                        let chunk = &feed[*cursor];
                        fleet.push(shard, chunk, chunk.timestamp).unwrap();
                        *cursor += 1;
                    }
                });
            }
        });
        // The aggregation tick: lock, clock-align, merge — then ship the
        // fleet snapshot through the binary codec (as a replica would).
        let snap = fleet.snapshot_at(until).unwrap();
        let frame = encoder.encode(&snap).unwrap();
        let json_bytes = serde_json::to_string(&snap).unwrap().len();
        assert_eq!(decoder.decode(&frame).unwrap(), snap);
        let kind = if tick == 1 { "full" } else { "delta" };
        println!(
            "{:>8.0}  {:>10.3}  {:>12}  {:>9} {:>5} ({:>5} B JSON, {:>4.1}x)",
            until,
            snap.epsilon.epsilon,
            snap.window_rows,
            format!("{} B", frame.len()),
            kind,
            json_bytes,
            json_bytes as f64 / frame.len() as f64,
        );
    }

    // The per-silo blind spot: audit each shard alone vs the fleet.
    let finals: Vec<MonitorSnapshot> = (0..4)
        .map(|shard| {
            let lone: FleetIngest = Audit::monitor("outcome", axes.clone())
                .estimator(Smoothed { alpha: 1.0 })
                .window_seconds(60.0)
                .bucket_seconds(5.0)
                .fleet(1)
                .unwrap();
            for chunk in &feeds[shard] {
                lone.push(0, chunk, chunk.timestamp).unwrap();
            }
            lone.snapshot().unwrap()
        })
        .collect();
    println!("\nfinal 60 s window, per-silo vs fleet:");
    for (shard, snap) in finals.iter().enumerate() {
        println!(
            "  replica {shard}: eps = {:.3} over {} rows{}",
            snap.epsilon.epsilon,
            snap.window_rows,
            if shard == 3 {
                "  <- the drifting one"
            } else {
                ""
            }
        );
    }
    let est = Smoothed { alpha: 1.0 };
    let fleet_eps = merge_many(&finals, &est).unwrap();
    let drifting = &finals[3];
    println!(
        "  fleet     : eps = {:.3} over {} rows — the union-of-traffic \
         certificate (worst pair: {})",
        fleet_eps.epsilon.epsilon,
        fleet_eps.window_rows,
        fleet_eps
            .epsilon
            .witness
            .as_ref()
            .map(|w| format!("{} vs {}", w.group_hi, w.group_lo))
            .unwrap_or_default(),
    );
    assert!(fleet_eps.epsilon.epsilon < drifting.epsilon.epsilon);
    println!(
        "\nthe drifting replica's local eps ({:.3}) overstates the fleet-wide \
         harm ({:.3}) — and a calm replica's understates it: only the merged \
         union measures what the fleet actually serves",
        drifting.epsilon.epsilon, fleet_eps.epsilon.epsilon
    );

    let last = fleet.snapshot().unwrap();
    println!(
        "fleet ingested {} records across 4 shards; final fleet eps = {:.3}",
        last.records_seen, last.epsilon.epsilon
    );
}
