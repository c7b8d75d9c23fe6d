//! The fleet aggregation subsystem's three contracts, made observable at
//! the API surface:
//!
//! 1. **Codec identity and stability.** `decode(encode(s)) == s` for
//!    arbitrary live monitor states — full frames and schema-interned
//!    delta frames alike — and encoding is byte-stable: the same
//!    snapshot produces the same bytes on any encoder, and a decoded
//!    frame re-encodes to the original bytes.
//! 2. **One fold ≡ pairwise fold.** `merge_many` produces byte-identical
//!    JSON to the sequential pairwise `MonitorSnapshot::merge` fold for
//!    arbitrary leaf permutations — the commutative-monoid laws of the
//!    PR 4 suite, exploited at fleet scale.
//! 3. **Fleet ≡ one monitor.** N concurrent producers feeding a
//!    `FleetIngest` merge into a snapshot byte-identical (as JSON) to a
//!    single monitor ingesting the interleaved stream in timestamp
//!    order — the union-of-traffic ε per-silo monitoring cannot see.
//!
//! Case budget: `PROPTEST_CASES` (CI pins 64).

use differential_fairness::prelude::*;
use proptest::prelude::*;

/// A chunk of `(outcome, group)` index pairs.
#[derive(Debug, Clone)]
struct Pairs(Vec<[usize; 2]>);

impl Tally for Pairs {
    fn tally_into(&self, shard: &mut PartialCounts) -> differential_fairness::prob::Result<()> {
        for idx in &self.0 {
            shard.record(idx);
        }
        Ok(())
    }
}

fn axes(arity: usize) -> Vec<Axis> {
    vec![
        Axis::from_strs("y", &["no", "yes"]).unwrap(),
        Axis::new("g", (0..arity).map(|i| format!("g{i}")).collect()).unwrap(),
    ]
}

/// A wall-clock monitor with every snapshot-visible feature enabled:
/// subsets, a (dyadic) decayed horizon, an alert rule, both detector
/// families. λ = 0.5 keeps decayed cells dyadic, so cell sums reassociate
/// exactly and byte-identity is meaningful for any leaf order.
fn rich_monitor(arity: usize, window_buckets: f64) -> FairnessMonitor {
    Audit::monitor("y", axes(arity))
        .estimator(Smoothed { alpha: 1.0 })
        .subsets(SubsetPolicy::All)
        .window_seconds(window_buckets)
        .bucket_seconds(1.0)
        .decay(0.5)
        .alert(AlertRule::epsilon_above(0.05))
        .changepoint(Cusum::new(0.0, 0.01, 0.05))
        .changepoint(PageHinkley::new(0.0, 0.01, 0.05))
        .build()
        .unwrap()
}

/// Replays `chunks` (row picks + bucket advances) into `monitor`,
/// returning the snapshot after every push.
fn replay(
    monitor: &mut FairnessMonitor,
    arity: usize,
    chunks: &[(Vec<u64>, i64)],
) -> Vec<MonitorSnapshot> {
    let mut now = 0i64;
    let mut snaps = Vec::with_capacity(chunks.len());
    for (picks, advance) in chunks {
        now += advance;
        let rows: Vec<[usize; 2]> = picks
            .iter()
            .map(|&p| [(p % 2) as usize, (p as usize / 2) % arity])
            .collect();
        monitor.push_at(&Pairs(rows), now as f64).unwrap();
        snaps.push(monitor.snapshot().unwrap());
    }
    snaps
}

proptest! {
    /// Codec round trip and byte stability over live monitor states: the
    /// first frame interns the schema, every later tick rides a delta
    /// frame, and each decodes back to the exact snapshot. Independent
    /// encoders agree byte for byte, and decode→re-encode is the
    /// identity on the bytes.
    #[test]
    fn codec_round_trips_and_is_byte_stable(
        arity in 2usize..4,
        chunks in proptest::collection::vec(
            (proptest::collection::vec(any::<u64>(), 1..6), 0i64..3),
            1..12,
        ),
    ) {
        let mut monitor = rich_monitor(arity, 5.0);
        let snaps = replay(&mut monitor, arity, &chunks);
        let mut encoder = SnapshotEncoder::new();
        let mut twin = SnapshotEncoder::new();
        let mut decoder = SnapshotDecoder::new();
        for (tick, snap) in snaps.iter().enumerate() {
            let frame = encoder.encode(snap).unwrap();
            // Byte stability: an independent encoder in the same state
            // produces the identical frame.
            prop_assert_eq!(&twin.encode(snap).unwrap(), &frame);
            // Round trip identity, through the interning decoder.
            let back = decoder.decode(&frame).unwrap();
            prop_assert_eq!(&back, snap);
            // Full frames are self-describing: decode → re-encode is the
            // byte identity.
            if tick == 0 {
                prop_assert_eq!(&encode_snapshot(&back).unwrap(), &frame);
            }
        }
        // One schema shipped once, however many ticks followed.
        prop_assert_eq!(decoder.interned_schemas(), 1);
    }

    /// Steady-state delta frames stay several times smaller than the
    /// JSON form of the same snapshot. The `fleet` bench pins the >= 5x
    /// headline at fleet-realistic window sizes; this property pins a 4x
    /// floor for *arbitrary* tiny adversarial states (where f64-encoded
    /// decayed horizons and witness strings dominate the frame).
    #[test]
    fn delta_frames_beat_json_by_4x(
        arity in 2usize..4,
        chunks in proptest::collection::vec(
            (proptest::collection::vec(any::<u64>(), 1..6), 0i64..3),
            2..10,
        ),
    ) {
        let mut monitor = rich_monitor(arity, 5.0);
        let snaps = replay(&mut monitor, arity, &chunks);
        let mut encoder = SnapshotEncoder::new();
        encoder.encode(&snaps[0]).unwrap();
        let last = snaps.last().unwrap();
        let delta = encoder.encode(last).unwrap();
        let json = serde_json::to_string(last).unwrap();
        prop_assert!(
            delta.len() * 4 <= json.len(),
            "delta {} B vs JSON {} B",
            delta.len(),
            json.len()
        );
    }

    /// `merge_many` over any leaf permutation serializes to the same JSON
    /// bytes as the sequential pairwise fold in original order — leaf
    /// order is a deployment choice, never a semantic one.
    #[test]
    fn merge_many_is_byte_identical_to_pairwise_fold(
        arity in 2usize..4,
        seed in any::<u64>(),
        shards in proptest::collection::vec(
            proptest::collection::vec(
                (proptest::collection::vec(any::<u64>(), 1..5), 0i64..3),
                1..6,
            ),
            2..7,
        ),
    ) {
        let estimator = Smoothed { alpha: 1.0 };
        let snaps: Vec<MonitorSnapshot> = shards
            .iter()
            .map(|chunks| {
                let mut monitor = rich_monitor(arity, 5.0);
                replay(&mut monitor, arity, chunks)
                    .pop()
                    .expect("at least one chunk per shard")
            })
            .collect();
        // Reference: the sequential pairwise fold, in original order.
        let mut reference = snaps[0].clone();
        for snap in &snaps[1..] {
            reference = reference.merge(snap, &estimator).unwrap();
        }
        let reference = serde_json::to_string(&reference).unwrap();
        // A deterministic pseudo-random permutation of the leaves.
        let mut order: Vec<usize> = (0..snaps.len()).collect();
        let mut rng = Pcg32::new(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_below(i as u32 + 1) as usize);
        }
        let permuted: Vec<MonitorSnapshot> =
            order.iter().map(|&i| snaps[i].clone()).collect();
        let flat = merge_many(&permuted, &estimator).unwrap();
        prop_assert_eq!(serde_json::to_string(&flat).unwrap(), reference);
    }

    /// The acceptance property: a fleet of N concurrent producers, each
    /// feeding its own shard monitor, merges into a snapshot that is
    /// byte-identical JSON to ONE monitor ingesting the interleaved
    /// stream in timestamp order. (Alert rules and detectors are
    /// per-shard evidence, so the equivalence configuration runs
    /// without them; counts, clocks, ε, and the subset lattice are the
    /// fleet-wide state being pinned.)
    #[test]
    fn fleet_of_producers_is_byte_identical_to_one_monitor(
        arity in 2usize..4,
        n_shards in 1usize..5,
        shards in proptest::collection::vec(
            proptest::collection::vec(
                (proptest::collection::vec(any::<u64>(), 1..5), 0i64..3),
                1..8,
            ),
            5,
        ),
    ) {
        let build = || {
            Audit::monitor("y", axes(arity))
                .estimator(Smoothed { alpha: 1.0 })
                .subsets(SubsetPolicy::All)
                .window_seconds(6.0)
                .bucket_seconds(1.0)
        };
        let shards = &shards[..n_shards];
        // Materialize each shard's timestamped feed.
        let feeds: Vec<Vec<(Pairs, f64)>> = shards
            .iter()
            .map(|chunks| {
                let mut now = 0i64;
                chunks
                    .iter()
                    .map(|(picks, advance)| {
                        now += advance;
                        let rows: Vec<[usize; 2]> = picks
                            .iter()
                            .map(|&p| [(p % 2) as usize, (p as usize / 2) % arity])
                            .collect();
                        (Pairs(rows), now as f64)
                    })
                    .collect()
            })
            .collect();
        // The fleet: one producer thread per shard.
        let fleet: FleetIngest = build().fleet(n_shards).unwrap();
        std::thread::scope(|scope| {
            for (i, feed) in feeds.iter().enumerate() {
                let fleet = &fleet;
                scope.spawn(move || {
                    for (chunk, at) in feed {
                        fleet.push(i, chunk, *at).unwrap();
                    }
                });
            }
        });
        let merged = fleet.snapshot().unwrap();
        // The reference: one monitor over the same records in timestamp
        // order (stable within equal timestamps — same-bucket arrivals
        // commute through the counts monoid).
        let mut all: Vec<(f64, usize, &Pairs)> = Vec::new();
        for (shard, feed) in feeds.iter().enumerate() {
            for (chunk, at) in feed {
                all.push((*at, shard, chunk));
            }
        }
        all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut single = build().build().unwrap();
        for (at, _, chunk) in &all {
            single.push_at(*chunk, *at).unwrap();
        }
        // Align the lone monitor to the fleet clock (the fleet snapshot
        // advanced every shard to the fleet-wide max, which is exactly
        // the max timestamp the single monitor has already seen).
        prop_assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&single.snapshot().unwrap()).unwrap()
        );
    }
}

/// A chunk of `(outcome, attr, attr)` index triples, for the
/// three-axis schemas label-conditioned metrics need.
#[derive(Debug, Clone)]
struct Triples(Vec<[usize; 3]>);

impl Tally for Triples {
    fn tally_into(&self, shard: &mut PartialCounts) -> differential_fairness::prob::Result<()> {
        for idx in &self.0 {
            shard.record(idx);
        }
        Ok(())
    }
}

/// Every registry metric over the y×g×h schema below.
const METRIC_TAGS: [&str; 5] = [
    "eps-df",
    "wc-ratio",
    "wc-diff",
    "alpha-if(alpha=0.5)",
    "deo(label=h)",
];

fn three_axes() -> Vec<Axis> {
    vec![
        Axis::from_strs("y", &["no", "yes"]).unwrap(),
        Axis::from_strs("g", &["a", "b"]).unwrap(),
        Axis::from_strs("h", &["u", "v"]).unwrap(),
    ]
}

/// A [`rich_monitor`]-shaped monitor computing `tag` over y×g×h.
fn metric_monitor(tag: &str) -> FairnessMonitor {
    Audit::monitor("y", three_axes())
        .estimator(Smoothed { alpha: 1.0 })
        .boxed_metric(metric_from_tag(tag).unwrap())
        .subsets(SubsetPolicy::All)
        .window_seconds(5.0)
        .bucket_seconds(1.0)
        .decay(0.5)
        .alert(AlertRule::epsilon_above(0.05))
        .changepoint(Cusum::new(0.0, 0.01, 0.05))
        .changepoint(PageHinkley::new(0.0, 0.01, 0.05))
        .build()
        .unwrap()
}

proptest! {
    /// The codec identity of `codec_round_trips_and_is_byte_stable`, per
    /// metric tag: the tag rides inside the fingerprinted schema, so
    /// every frame decodes back to a snapshot carrying the exact metric,
    /// one schema is interned per stream, and re-encoding is the byte
    /// identity — for every registry metric.
    #[test]
    fn codec_round_trips_for_every_metric_tag(
        tag_idx in 0usize..5,
        chunks in proptest::collection::vec(
            (proptest::collection::vec(any::<u64>(), 1..6), 0i64..3),
            1..8,
        ),
    ) {
        let tag = METRIC_TAGS[tag_idx];
        let mut monitor = metric_monitor(tag);
        let mut now = 0i64;
        let mut encoder = SnapshotEncoder::new();
        let mut decoder = SnapshotDecoder::new();
        for (picks, advance) in &chunks {
            now += advance;
            let rows: Vec<[usize; 3]> = picks
                .iter()
                .map(|&p| [(p % 2) as usize, (p as usize / 2) % 2, (p as usize / 4) % 2])
                .collect();
            monitor.push_at(&Triples(rows), now as f64).unwrap();
            let snap = monitor.snapshot().unwrap();
            prop_assert_eq!(&snap.metric, tag);
            let frame = encoder.encode(&snap).unwrap();
            let back = decoder.decode(&frame).unwrap();
            prop_assert_eq!(&back, &snap);
        }
        prop_assert_eq!(decoder.interned_schemas(), 1);
    }
}

/// Snapshots computed under different metrics never merge — by value or
/// through the fleet fold — and the refusal is the typed
/// [`DfError::Invalid`], naming both metrics, never a silently
/// substituted ε.
#[test]
fn mismatched_metric_snapshots_refuse_to_merge_with_typed_error() {
    let est = Smoothed { alpha: 1.0 };
    let snapshot_under = |tag: &str| {
        let mut monitor = metric_monitor(tag);
        monitor
            .push_at(&Triples(vec![[0, 0, 0], [1, 1, 1]]), 1.0)
            .unwrap();
        monitor.snapshot().unwrap()
    };
    let eps = snapshot_under("eps-df");
    let ratio = snapshot_under("wc-ratio");
    match eps.merge(&ratio, &est) {
        Err(DfError::Invalid(msg)) => {
            assert!(
                msg.contains("eps-df") && msg.contains("wc-ratio"),
                "refusal must name both metrics: {msg}"
            );
        }
        Err(other) => panic!("wrong error kind: {other}"),
        Ok(_) => panic!("cross-metric merge must fail"),
    }
    assert!(matches!(
        merge_many(&[eps.clone(), ratio], &est),
        Err(DfError::Invalid(_))
    ));

    // An unknown tag is a typed *decode* error: the frame parses but the
    // schema is rejected before any ε could be silently recomputed.
    let mut forged = eps;
    forged.metric = "martian".to_string();
    let frame = encode_snapshot(&forged).unwrap();
    match decode_snapshot(&frame) {
        Err(DfError::Invalid(msg)) => {
            assert!(msg.contains("unknown metric"), "{msg}");
        }
        Err(other) => panic!("wrong error kind: {other}"),
        Ok(_) => panic!("unknown metric tag must not decode"),
    }
}

/// Satellite regression: a hand-corrupted JSON snapshot — the wire form a
/// dashboard or hostile replica could ship — is rejected by `to_table`
/// with the typed `CorruptCounts` error (mirroring `Audit::of_counts`),
/// so no corrupt cell ever reaches the ε kernel through the merge path.
#[test]
fn corrupt_json_snapshot_is_rejected_with_typed_error() {
    let json = r#"{"axes":[["y",["no","yes"]],["g",["a","b"]]],"data":[4.0,1.0,-2.0,3.0]}"#;
    let counts: CountsSnapshot = serde_json::from_str(json).unwrap();
    match counts.to_table() {
        Err(DfError::CorruptCounts { cell, value }) => {
            assert_eq!(cell, 2);
            assert_eq!(value, -2.0);
        }
        other => panic!("expected CorruptCounts, got {other:?}"),
    }
    // The same corruption inside a full MonitorSnapshot poisons merging:
    // build a healthy snapshot, corrupt one window cell, and watch the
    // merge refuse instead of certifying a NaN ε.
    let mut monitor = Audit::monitor("y", axes(2))
        .estimator(Smoothed { alpha: 1.0 })
        .window_seconds(4.0)
        .build()
        .unwrap();
    monitor.push_at(&Pairs(vec![[0, 0], [1, 1]]), 1.0).unwrap();
    let healthy = monitor.snapshot().unwrap();
    let mut corrupt = healthy.clone();
    corrupt.window.data[0] = f64::NAN;
    let est = Smoothed { alpha: 1.0 };
    assert!(matches!(
        healthy.merge(&corrupt, &est),
        Err(DfError::CorruptCounts { .. })
    ));
    assert!(matches!(
        merge_many(&[healthy, corrupt], &est),
        Err(DfError::CorruptCounts { .. })
    ));

    // A fold derives without rebuilding a table, yet checks the wire form
    // as `to_table` does: each corruption below gets the error `to_table`
    // gives through `merge` (with an all-zero partner of the same axes),
    // `merge_many` and `with_metric`.
    let mut decaying = Audit::monitor("y", axes(2))
        .estimator(Smoothed { alpha: 1.0 })
        .window_seconds(4.0)
        .decay(0.5)
        .build()
        .unwrap();
    decaying.push_at(&Pairs(vec![[0, 0], [1, 1]]), 1.0).unwrap();
    let base = decaying.snapshot().unwrap();
    let corrupted = |corrupt: &dyn Fn(&mut MonitorSnapshot)| {
        let mut snap = base.clone();
        corrupt(&mut snap);
        snap
    };
    let cases = [
        corrupted(&|s| s.window.data[0] = f64::NAN),
        corrupted(&|s| s.decayed.as_mut().unwrap().data[3] = -5.0),
        corrupted(&|s| s.window.axes[1].1 = vec!["a".into(), "a".into()]),
        corrupted(&|s| s.window.axes[1].1.clear()),
        corrupted(&|s| {
            s.decayed.as_mut().unwrap().data.pop();
        }),
    ];
    for snap in cases {
        let decayed = snap.decayed.as_ref().unwrap();
        let expected = snap.window.to_table().and(decayed.to_table()).unwrap_err();
        let mut zero = snap.clone();
        zero.window.data.fill(0.0);
        zero.decayed.as_mut().unwrap().data.fill(0.0);
        for (path, got) in [
            ("merge", snap.merge(&zero, &est)),
            ("merge_many", merge_many(std::slice::from_ref(&snap), &est)),
            ("with_metric", snap.with_metric("eps-df", &est)),
            ("with_metric", snap.with_metric("wc-ratio", &est)),
        ] {
            assert_eq!(
                format!("{:?}", got.unwrap_err()),
                format!("{expected:?}"),
                "{path}"
            );
        }
    }
}

/// The binary codec refuses corrupt cells in both directions (encode and
/// decode), with the same typed error.
#[test]
fn codec_rejects_corrupt_cells_with_typed_error() {
    let mut monitor = Audit::monitor("y", axes(2))
        .estimator(Smoothed { alpha: 1.0 })
        .window_seconds(4.0)
        .build()
        .unwrap();
    monitor.push_at(&Pairs(vec![[0, 0], [1, 1]]), 1.0).unwrap();
    let mut snap = monitor.snapshot().unwrap();
    snap.window.data[1] = -1.0;
    assert!(matches!(
        encode_snapshot(&snap),
        Err(DfError::CorruptCounts { cell: 1, .. })
    ));
}
