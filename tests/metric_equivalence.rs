//! The cross-metric differential test harness: every fairness metric the
//! [`df_core::metric`] registry knows must report **identically across
//! every ingestion path** the crate offers, on one planted-drift replay:
//!
//! 1. **Batch audit** — `Audit::of_counts` over the full tally.
//! 2. **Chunked stream** — `Audit::of_stream` over per-bucket chunks,
//!    sharded 4 ways. Byte-identical `AuditReport` JSON to (1).
//! 3. **Wall-clock monitor** — one `FairnessMonitor` replaying the
//!    stream; its headline result equals the audit headline exactly.
//! 4. **N-shard fleet ingest** — 4 producers round-robining the same
//!    chunks, merged. Byte-identical `MonitorSnapshot` JSON to (3).
//! 5. **HTTP round-trip** — a `df-server` ingesting the same rows over
//!    TCP; `GET /v1/audit?metric=` is byte-identical to (1) and
//!    `GET /v1/monitor?metric=` to the snapshot re-derived locally via
//!    `MonitorSnapshot::with_metric`.
//!
//! Plus golden detection-delay runs: on the PR 4 change-point workload
//! (Poisson 50 rec/s, 60 s window, 5 s buckets, step to ε = 1.2 at
//! t = 300 s) every metric's windowed statistic must drive CUSUM and
//! Page–Hinkley to alarm within one window span — at thresholds rescaled
//! to each statistic's range — and raise zero false alarms on the null
//! stream. ε-DF is unbounded; the worst-case ratio/difference and
//! α-intersectional statistics live in `[0, 1]`, so their targets sit
//! below the ε-scale 0.25.

use differential_fairness::prelude::*;

const RATE: f64 = 50.0;
const BUCKET_SECONDS: f64 = 5.0;
const WINDOW_SECONDS: f64 = 60.0;

/// Every registry metric, by canonical tag. `deo` conditions on `attr1`
/// as the true-label axis.
const METRICS: [&str; 5] = [
    "eps-df",
    "wc-ratio",
    "wc-diff",
    "alpha-if(alpha=0.5)",
    "deo(label=attr1)",
];

fn axes() -> Vec<Axis> {
    vec![
        Axis::from_strs("outcome", &["y0", "y1"]).unwrap(),
        Axis::from_strs("attr0", &["v0", "v1"]).unwrap(),
        Axis::from_strs("attr1", &["v0", "v1"]).unwrap(),
    ]
}

/// The one planted-drift replay every path consumes: 300 s in control,
/// then a step to ε = 1.2, Poisson arrivals over 2×2 groups.
fn drift_replay(seed: u64, segments: &[DriftSegment]) -> TimestampedReplay {
    let mut rng = Pcg32::new(seed);
    timestamped_drift_stream(
        &mut rng,
        &[2, 2],
        0.4,
        segments,
        ArrivalProcess::Poisson { rate: RATE },
    )
    .unwrap()
}

fn stepped_segments() -> [DriftSegment; 2] {
    [DriftSegment::new(300.0, 0.0), DriftSegment::new(300.0, 1.2)]
}

/// The replay's records as label rows, bucketed exactly like
/// `bucket_chunks`: `(rows, first-arrival timestamp)` per bucket.
fn label_buckets(replay: &TimestampedReplay) -> Vec<(Vec<Vec<String>>, f64)> {
    let names = replay.frame.column_names();
    let columns: Vec<(&[u32], &[String])> = names
        .iter()
        .map(|n| replay.frame.column(n).unwrap().as_categorical().unwrap())
        .collect();
    let mut buckets: Vec<(Vec<Vec<String>>, f64)> = Vec::new();
    let mut current: Option<i64> = None;
    for (i, &t) in replay.timestamps.iter().enumerate() {
        let bucket = (t / BUCKET_SECONDS).floor() as i64;
        if current != Some(bucket) {
            current = Some(bucket);
            buckets.push((Vec::new(), t));
        }
        let row = columns
            .iter()
            .map(|(codes, vocab)| vocab[codes[i] as usize].clone())
            .collect();
        buckets.last_mut().unwrap().0.push(row);
    }
    buckets
}

fn json_chunk(rows: &[Vec<String>], at: f64) -> Vec<u8> {
    let rows = rows
        .iter()
        .map(|r| {
            format!(
                "[{}]",
                r.iter()
                    .map(|l| format!("\"{l}\""))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"rows\": [{rows}], \"at\": {at}}}").into_bytes()
}

/// The acceptance sweep: one replay, five paths, every metric.
#[test]
fn every_metric_reports_identically_across_all_five_paths() {
    let replay = drift_replay(42, &stepped_segments());
    let chunks = replay.bucket_chunks(BUCKET_SECONDS).unwrap();
    let buckets = label_buckets(&replay);
    assert_eq!(
        chunks.len(),
        buckets.len(),
        "label bucketing must mirror bucket_chunks"
    );

    // Path 5 setup: one server, the rows ingested once over TCP; every
    // metric then queries the same merged state.
    let server = Server::builder("outcome", axes())
        .window_seconds(1e6)
        .bucket_seconds(BUCKET_SECONDS)
        .shards(3)
        .workers(4)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = Http1Client::connect(server.local_addr()).unwrap();
    for (rows, at) in &buckets {
        let resp = client
            .request(
                "POST",
                "/v1/ingest/records",
                &[("Content-Type", "application/json")],
                &json_chunk(rows, *at),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    // The server-shaped reference monitor (subsets None, default metric):
    // by the fleet≡one-monitor law its snapshot is what the server's
    // 3-shard merge serves, and `with_metric` re-derives it per query.
    let mut http_ref = Audit::monitor("outcome", axes())
        .estimator(Smoothed { alpha: 1.0 })
        .window_seconds(1e6)
        .bucket_seconds(BUCKET_SECONDS)
        .build()
        .unwrap();
    for (rows, at) in &buckets {
        http_ref
            .push_at(&LabelChunk::new(rows.clone()), *at)
            .unwrap();
    }
    let http_snap = http_ref.snapshot().unwrap();

    // Paths 1–2 share the batch tally.
    let table = replay
        .frame
        .contingency(&["outcome", "attr0", "attr1"])
        .unwrap();
    let counts = JointCounts::from_table(table, "outcome").unwrap();

    for tag in METRICS {
        // Path 1: batch audit (default estimator pair, default lattice).
        let batch = Audit::of_counts(counts.clone())
            .unwrap()
            .boxed_metric(metric_from_tag(tag).unwrap())
            .run()
            .unwrap();
        assert_eq!(batch.metric, tag);
        let batch_json = serde_json::to_string(&batch).unwrap();

        // Path 2: chunked stream audit, 4 tally shards.
        let stream = Audit::of_stream(
            "outcome",
            axes(),
            chunks.iter().cloned().map(Ok::<_, DfError>),
            4,
        )
        .unwrap()
        .boxed_metric(metric_from_tag(tag).unwrap())
        .run()
        .unwrap();
        assert_eq!(
            serde_json::to_string(&stream).unwrap(),
            batch_json,
            "{tag}: chunked stream audit diverged from the batch audit"
        );

        // Path 3: wall-clock monitor over the same stream.
        let monitor_builder = || {
            Audit::monitor("outcome", axes())
                .estimator(Smoothed { alpha: 1.0 })
                .boxed_metric(metric_from_tag(tag).unwrap())
                .window_seconds(1e6)
                .bucket_seconds(BUCKET_SECONDS)
                .subsets(SubsetPolicy::All)
        };
        let mut monitor = monitor_builder().build().unwrap();
        for chunk in &chunks {
            monitor.push_at(chunk, chunk.timestamp).unwrap();
        }
        let snap = monitor.snapshot().unwrap();
        assert_eq!(snap.metric, tag);
        // The monitor headline is the audit headline (the audit's last
        // default estimator is the monitor's `Smoothed { alpha: 1 }`).
        assert_eq!(
            serde_json::to_string(&snap.epsilon).unwrap(),
            serde_json::to_string(&batch.epsilon).unwrap(),
            "{tag}: monitor headline diverged from the audit headline"
        );
        let snap_json = serde_json::to_string(&snap).unwrap();

        // Path 4: 4-shard fleet ingest of the round-robined chunks.
        let fleet: FleetIngest = monitor_builder().fleet(4).unwrap();
        for (i, chunk) in chunks.iter().enumerate() {
            fleet.push(i % 4, chunk, chunk.timestamp).unwrap();
        }
        let merged = fleet.snapshot().unwrap();
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            snap_json,
            "{tag}: fleet merge diverged from the single monitor"
        );

        // Path 5: the HTTP round-trip. Audit bytes ≡ path 1; monitor
        // bytes ≡ the reference snapshot re-derived under the metric.
        let audit = client.get(&format!("/v1/audit?metric={tag}")).unwrap();
        assert_eq!(audit.status, 200, "{tag}: {}", audit.text());
        assert_eq!(
            audit.text(),
            batch_json,
            "{tag}: HTTP audit diverged from the batch audit"
        );
        let monitor_http = client
            .get(&format!("/v1/monitor?metric={tag}&format=json"))
            .unwrap();
        assert_eq!(monitor_http.status, 200, "{tag}: {}", monitor_http.text());
        let expected = http_snap
            .with_metric(tag, &Smoothed { alpha: 1.0 })
            .unwrap()
            .render(ResponseFormat::Json)
            .unwrap();
        assert_eq!(
            monitor_http.text(),
            expected,
            "{tag}: HTTP monitor diverged from the re-derived snapshot"
        );
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Golden detection-delay runs, per metric.
// ---------------------------------------------------------------------------

/// Per-metric CUSUM / Page–Hinkley parameters `(target, slack,
/// threshold)`, rescaled to each statistic's range (see module docs).
fn detector_scale(tag: &str) -> (f64, f64, f64) {
    match tag {
        // The ε-scale PR 4 configuration (null peak ≈ 0.55 decays fast;
        // a jump to ε = 1.2 sustains ≈ 0.9 of per-sample excess).
        "eps-df" => (0.25, 0.05, 1.0),
        // Per-stratum ε is noisier (half the data per stratum, null
        // peak ≈ 0.38) but the planted shift lands at ≈ 0.85.
        "deo(label=attr1)" => (0.4, 0.05, 0.35),
        // Bounded [0, 1] statistics; targets sit just above each null
        // peak so the null stream accumulates nothing at all.
        "wc-ratio" => (0.45, 0.05, 0.2), // null ≈ 0.42, shift ≈ 0.69
        "wc-diff" => (0.18, 0.03, 0.05), // null ≈ 0.1–0.22, shift ≈ 0.27
        "alpha-if(alpha=0.5)" => (0.6, 0.05, 0.15), // null ≈ 0.56, shift ≈ 0.78
        other => panic!("no detector scale for {other}"),
    }
}

/// Replays `segments` through a 60 s / 5 s monitor computing `tag`,
/// returning (CUSUM alarm times, Page–Hinkley alarm times).
fn metric_alarms(tag: &str, seed: u64, segments: &[DriftSegment]) -> (Vec<f64>, Vec<f64>) {
    let replay = drift_replay(seed, segments);
    let (target, slack, threshold) = detector_scale(tag);
    let mut monitor = Audit::monitor("outcome", axes())
        .estimator(Smoothed { alpha: 1.0 })
        .boxed_metric(metric_from_tag(tag).unwrap())
        .window_seconds(WINDOW_SECONDS)
        .bucket_seconds(BUCKET_SECONDS)
        .changepoint(Cusum::new(target, slack, threshold))
        .changepoint(PageHinkley::new(target, slack, threshold))
        .build()
        .unwrap();
    let mut cusum = Vec::new();
    let mut ph = Vec::new();
    for chunk in replay.bucket_chunks(BUCKET_SECONDS).unwrap() {
        let step = monitor.push_at(&chunk, chunk.timestamp).unwrap();
        for alarm in &step.alarms {
            let at = alarm.at_seconds.expect("wall-clock alarms carry the clock");
            match alarm.detector.name() {
                "cusum" => cusum.push(at),
                "page-hinkley" => ph.push(at),
                other => panic!("unexpected detector {other}"),
            }
        }
    }
    (cusum, ph)
}

/// Prints each metric's windowed statistic trajectory — used once to
/// pick `detector_scale`; kept ignored as a tuning aid.
#[test]
#[ignore = "threshold-tuning probe, run with --ignored --nocapture"]
fn probe_statistic_trajectories() {
    for seed in [42, 7] {
        let replay = drift_replay(seed, &stepped_segments());
        for tag in METRICS {
            let mut monitor = Audit::monitor("outcome", axes())
                .estimator(Smoothed { alpha: 1.0 })
                .boxed_metric(metric_from_tag(tag).unwrap())
                .window_seconds(WINDOW_SECONDS)
                .bucket_seconds(BUCKET_SECONDS)
                .build()
                .unwrap();
            let mut null_peak = f64::MIN;
            let mut post_peak = f64::MIN;
            let mut post_sum = 0.0;
            let mut post_n = 0u32;
            let mut ramp = Vec::new();
            for chunk in replay.bucket_chunks(BUCKET_SECONDS).unwrap() {
                let step = monitor.push_at(&chunk, chunk.timestamp).unwrap();
                let s = step.epsilon.epsilon;
                if chunk.timestamp < 300.0 {
                    null_peak = null_peak.max(s);
                } else if chunk.timestamp >= 360.0 {
                    post_peak = post_peak.max(s);
                    post_sum += s;
                    post_n += 1;
                }
                if (295.0..=380.0).contains(&chunk.timestamp) {
                    ramp.push(format!("{:.0}:{s:.3}", chunk.timestamp));
                }
            }
            println!(
            "seed {seed} {tag}: null peak {null_peak:.3}, post-change mean {:.3} peak {post_peak:.3}\n  ramp {}",
            post_sum / f64::from(post_n),
            ramp.join(" ")
        );
        }
    }
}

#[test]
fn null_stream_raises_zero_false_alarms_for_every_metric() {
    let null = [DriftSegment::new(600.0, 0.0)];
    for tag in METRICS {
        for seed in [42, 7] {
            let (cusum, ph) = metric_alarms(tag, seed, &null);
            assert!(
                cusum.is_empty(),
                "{tag} seed {seed}: CUSUM false alarms at {cusum:?}"
            );
            assert!(
                ph.is_empty(),
                "{tag} seed {seed}: Page-Hinkley false alarms at {ph:?}"
            );
        }
    }
}

#[test]
fn planted_change_is_detected_within_one_window_span_by_every_metric() {
    let change_at = 300.0;
    let stepped = stepped_segments();
    for tag in METRICS {
        for seed in [42, 7] {
            let (cusum, ph) = metric_alarms(tag, seed, &stepped);
            for (name, alarms) in [("CUSUM", &cusum), ("Page-Hinkley", &ph)] {
                let first = *alarms
                    .first()
                    .unwrap_or_else(|| panic!("{tag} seed {seed}: {name} never alarmed"));
                let delay = first - change_at;
                assert!(
                    delay > 0.0,
                    "{tag} seed {seed}: {name} alarmed before the change ({first})"
                );
                assert!(
                    delay <= WINDOW_SECONDS,
                    "{tag} seed {seed}: {name} delay {delay} exceeds one window span"
                );
            }
        }
    }
}

#[test]
fn detection_is_deterministic_under_replay_for_every_metric() {
    let stepped = stepped_segments();
    for tag in METRICS {
        assert_eq!(
            metric_alarms(tag, 42, &stepped),
            metric_alarms(tag, 42, &stepped),
            "{tag}: replay must be deterministic"
        );
    }
}
