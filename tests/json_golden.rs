//! Byte-level goldens for the JSON the library and the server emit.
//!
//! The equivalence suites compare two paths through the same serializer,
//! so a change inside the writer itself (a float format, a string escape,
//! the pretty-print layout) would pass them all. These tests compare
//! against committed text instead: `tests/golden/json/` holds the bytes
//! of the tree-building serializer the streaming writer replaced,
//! produced by the builders below. A difference here is a change to what
//! clients read.
//!
//! The cases: an audit report with every optional stage; a monitor
//! snapshot with decay, subsets, alerts and change-point alarms, and its
//! twin with a CUSUM on each signal (`monitor_raw.json`, the bytes of the
//! route that built the raw log-ratio's table apart from the headline's);
//! the server's bodies (audit and monitor in every format, schema, ingest
//! acknowledgements, error bodies); scalars and labels at the edges of
//! the float and string formats; and a digest list over seeded reports
//! with random schemas. Each of the first three also has a
//! differential-equalized-odds case (`deo(label=…)`: an audit, a
//! snapshot, the server's bodies and the errors of an impossible
//! conditioning), whose files hold the bytes of the route that sliced
//! and re-marginalized the counts per label before the layout split
//! its tables into strata.

use differential_fairness::prelude::*;
use differential_fairness::prob::SplitMix64;
use serde_json::Value;

/// The directory of the committed golden files.
fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/json")
        .join(name)
}

/// Compares each rendered output with its golden file, naming the file
/// and the first byte that differs.
fn check(outputs: &[(&str, String)]) {
    for (name, text) in outputs {
        let path = golden_path(name);
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        if *text != golden {
            let at = text
                .bytes()
                .zip(golden.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(text.len().min(golden.len()));
            let lo = at.saturating_sub(40);
            panic!(
                "{name}: output differs from the golden at byte {at} \
                 ({} vs {} bytes)\n  got:    {:?}\n  golden: {:?}",
                text.len(),
                golden.len(),
                text.get(lo..(at + 40).min(text.len())).unwrap_or(""),
                golden.get(lo..(at + 40).min(golden.len())).unwrap_or(""),
            );
        }
    }
}

fn compact<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

fn pretty<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap()
}

// ---------------------------------------------------------------------------
// An audit report with every optional stage.
// ---------------------------------------------------------------------------

/// Fractional weights, labels that need escaping, and a group that never
/// sees the second outcome, so the empirical ε is infinite.
fn full_report() -> AuditReport {
    let axes = vec![
        Axis::from_strs("outcome", &["no", "yes \"q\""]).unwrap(),
        Axis::from_strs("gender", &["f", "m\\n"]).unwrap(),
        Axis::from_strs("race", &["a\nb", "\u{e9}\u{4e16}\u{754c}", "c\u{1}d\u{7f}"]).unwrap(),
    ];
    let data = vec![
        12.5, 7.25, 30.0, 4.0, 9.5, 16.0, //
        3.5, 2.75, 0.0, 1.0, 6.5, 10.125,
    ];
    let counts =
        JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "outcome")
            .unwrap();
    let eo = EqualizedOddsCounts::from_records(
        vec!["neg".into(), "pos \"p\"".into()],
        vec!["p0".into(), "p1".into()],
        vec!["a".into(), "b\u{e9}".into()],
        vec![
            (0usize, 0usize, 0usize),
            (0, 0, 1),
            (0, 1, 1),
            (1, 1, 0),
            (1, 1, 1),
            (1, 0, 0),
            (1, 0, 1),
        ],
    )
    .unwrap();
    Audit::of(&counts)
        .estimator(Empirical)
        .estimator(Smoothed { alpha: 1.0 })
        .subsets(SubsetPolicy::All)
        .baselines(Baselines::all().positive("yes \"q\""))
        .bootstrap(20, 17)
        .equalized_odds(eo, 1.0)
        .reference_epsilon(1.0)
        .run()
        .unwrap()
}

/// A differential-equalized-odds audit: the outcome axis stored second,
/// the true-label axis between two other attributes, fractional and
/// empty cells, the full lattice, all three estimators and a bootstrap
/// on two threads.
fn deo_report() -> AuditReport {
    let axes = vec![
        Axis::from_strs("a", &["a0", "a1"]).unwrap(),
        Axis::from_strs("outcome", &["no", "yes"]).unwrap(),
        Axis::from_strs("label", &["neg", "pos"]).unwrap(),
        Axis::from_strs("b", &["b0", "b1", "b2"]).unwrap(),
    ];
    let data = (0..24u32)
        .map(|i| match i % 6 {
            3 => 0.0,
            0 => f64::from(i % 7) + 0.1,
            _ => f64::from((i * 7) % 11 + 1),
        })
        .collect();
    let counts =
        JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "outcome")
            .unwrap();
    Audit::of(&counts)
        .estimator(Empirical)
        .estimator(Smoothed { alpha: 1.0 })
        .estimator(PosteriorSup {
            alpha: 1.0,
            samples: 40,
            seed: 5,
        })
        .metric(DifferentialEqualizedOdds::new("label"))
        .subsets(SubsetPolicy::All)
        .bootstrap(20, 11)
        .run()
        .unwrap()
}

/// Index rows for a monitor push.
struct Rows(Vec<Vec<usize>>);

impl Tally for Rows {
    fn tally_into(&self, shard: &mut PartialCounts) -> differential_fairness::prob::Result<()> {
        for idx in &self.0 {
            shard.record(idx);
        }
        Ok(())
    }
}

/// The error of each way to evaluate a `deo(label=…)` that cannot hold:
/// an audit, a monitor (built and fed one row), and an ε-DF monitor's
/// snapshot re-derived under the tag, over a two- and a three-attribute
/// schema.
fn deo_errors() -> String {
    let outcome = Axis::from_strs("y", &["no", "yes"]).unwrap();
    let g = Axis::from_strs("g", &["a", "b"]).unwrap();
    let r = Axis::from_strs("r", &["u", "v"]).unwrap();
    let two = vec![outcome.clone(), g.clone()];
    let three = vec![outcome, g, r];
    let mut text = String::new();
    for (axes, label) in [
        (&two, "g"),
        (&two, "nope"),
        (&two, "y"),
        (&three, "nope"),
        (&three, "y"),
    ] {
        let tag = format!("deo(label={label})");
        let data = (1..=axes.iter().map(Axis::len).product::<usize>())
            .map(|i| i as f64)
            .collect();
        let counts = JointCounts::from_table(
            ContingencyTable::from_data(axes.clone(), data).unwrap(),
            "y",
        )
        .unwrap();
        let audit = Audit::of(&counts)
            .boxed_metric(metric_from_tag(&tag).unwrap())
            .run()
            .map(|_| ());
        let row = Rows(vec![vec![0; axes.len()]]);
        let monitor = Audit::monitor("y", axes.clone())
            .boxed_metric(metric_from_tag(&tag).unwrap())
            .build()
            .and_then(|mut m| m.push(&row).map(|_| ()));
        let mut plain = Audit::monitor("y", axes.clone()).build().unwrap();
        plain.push(&row).unwrap();
        let rederived = plain
            .snapshot()
            .unwrap()
            .with_metric(&tag, &Smoothed { alpha: 1.0 })
            .map(|_| ());
        for (what, result) in [
            ("audit", audit),
            ("monitor", monitor),
            ("with_metric", rederived),
        ] {
            let err = result.expect_err("an impossible conditioning is an error");
            text.push_str(&format!("{} axes, {tag}, {what}: {err}\n", axes.len()));
        }
    }
    text
}

fn audit_outputs() -> Vec<(&'static str, String)> {
    let report = full_report();
    assert!(report.epsilon.epsilon.is_finite());
    assert!(report.estimators[0].result.epsilon.is_infinite());
    assert!(report.n_records.is_none(), "the total weight is fractional");
    assert!(report.subgroups.is_some() && report.equalized_odds.is_some());
    assert!(report.amplification.is_some() && report.bootstrap.is_some());
    vec![
        ("audit.json", compact(&report)),
        ("audit_pretty.json", pretty(&report)),
        (
            "audit_render.json",
            report.render(ResponseFormat::Json).unwrap(),
        ),
        ("audit_deo.json", compact(&deo_report())),
        ("deo_errors.txt", deo_errors()),
    ]
}

#[test]
fn audit_report_matches_golden() {
    check(&audit_outputs());
}

// ---------------------------------------------------------------------------
// A monitor snapshot with decay, subsets, alerts and change-point alarms.
// ---------------------------------------------------------------------------

/// The drift stream's ε-DF monitor, smoothed, with decay, the full
/// lattice, an alert rule and the detectors `changepoints` adds.
fn drift_monitor(changepoints: impl FnOnce(MonitorBuilder) -> MonitorBuilder) -> MonitorSnapshot {
    let mut rng = Pcg32::new(2026);
    let replay = timestamped_drift_stream(
        &mut rng,
        &[2, 2],
        0.4,
        &[DriftSegment::new(120.0, 0.0), DriftSegment::new(120.0, 1.5)],
        ArrivalProcess::Poisson { rate: 40.0 },
    )
    .unwrap();
    let axes = vec![
        Axis::from_strs("outcome", &["y0", "y1"]).unwrap(),
        Axis::from_strs("attr0", &["v0", "v1"]).unwrap(),
        Axis::from_strs("attr1", &["v0", "v1"]).unwrap(),
    ];
    let builder = Audit::monitor("outcome", axes)
        .estimator(Smoothed { alpha: 1.0 })
        .window_seconds(60.0)
        .bucket_seconds(5.0)
        .decay(0.9)
        .subsets(SubsetPolicy::All)
        .alert(AlertRule::epsilon_above(0.4).for_consecutive(2));
    let mut monitor = changepoints(builder).build().unwrap();
    for chunk in replay.bucket_chunks(5.0).unwrap() {
        monitor.push_at(&chunk, chunk.timestamp).unwrap();
    }
    monitor.snapshot().unwrap()
}

fn drift_snapshot() -> MonitorSnapshot {
    drift_monitor(|m| {
        m.changepoint(Cusum::new(0.25, 0.05, 1.0))
            .changepoint(PageHinkley::new(0.25, 0.05, 1.0))
    })
}

/// The drift monitor with one CUSUM per signal: under `Smoothed`, the raw
/// log-ratio the second watches is not the headline the first watches.
fn raw_signal_snapshot() -> MonitorSnapshot {
    drift_monitor(|m| {
        m.changepoint(Cusum::new(0.25, 0.05, 1.0))
            .changepoint(Cusum::new(0.25, 0.05, 1.0).over(ChangeSignal::RawLogRatio))
    })
}

/// A `deo(label=attr1)` monitor over three attributes, with decay, the
/// singleton lattice, an alert rule and CUSUM detectors on both signals.
fn deo_snapshot() -> MonitorSnapshot {
    let mut rng = Pcg32::new(2027);
    let replay = timestamped_drift_stream(
        &mut rng,
        &[2, 2, 3],
        0.4,
        &[DriftSegment::new(120.0, 0.0), DriftSegment::new(120.0, 1.5)],
        ArrivalProcess::Poisson { rate: 40.0 },
    )
    .unwrap();
    let axes = vec![
        Axis::from_strs("outcome", &["y0", "y1"]).unwrap(),
        Axis::from_strs("attr0", &["v0", "v1"]).unwrap(),
        Axis::from_strs("attr1", &["v0", "v1"]).unwrap(),
        Axis::from_strs("attr2", &["v0", "v1", "v2"]).unwrap(),
    ];
    let mut monitor = Audit::monitor("outcome", axes)
        .estimator(Smoothed { alpha: 1.0 })
        .metric(DifferentialEqualizedOdds::new("attr1"))
        .window_seconds(60.0)
        .bucket_seconds(5.0)
        .decay(0.9)
        .subsets(SubsetPolicy::UpTo { size: 1 })
        .alert(AlertRule::epsilon_above(0.4).for_consecutive(2))
        .changepoint(Cusum::new(0.25, 0.05, 1.0))
        .changepoint(Cusum::new(0.25, 0.05, 1.0).over(ChangeSignal::RawLogRatio))
        .build()
        .unwrap();
    for chunk in replay.bucket_chunks(5.0).unwrap() {
        monitor.push_at(&chunk, chunk.timestamp).unwrap();
    }
    monitor.snapshot().unwrap()
}

fn monitor_outputs() -> Vec<(&'static str, String)> {
    let snap = drift_snapshot();
    assert!(snap.decayed.is_some() && !snap.subsets.is_empty());
    assert!(!snap.alerts.is_empty(), "the planted drift fires the alert");
    assert!(
        snap.changepoints.iter().any(|c| !c.alarms.is_empty()),
        "the planted drift raises an alarm"
    );
    let raw = raw_signal_snapshot();
    let signals: Vec<Vec<u64>> = raw
        .changepoints
        .iter()
        .map(|c| c.alarms.iter().map(|a| a.signal.to_bits()).collect())
        .collect();
    assert!(
        !signals[1].is_empty() && signals[0] != signals[1],
        "the raw detector alarms on samples of its own"
    );
    vec![
        ("monitor.json", compact(&snap)),
        ("monitor_pretty.json", pretty(&snap)),
        (
            "monitor_render.json",
            snap.render(ResponseFormat::Json).unwrap(),
        ),
        ("monitor_deo.json", compact(&deo_snapshot())),
        ("monitor_raw.json", compact(&raw)),
    ]
}

#[test]
fn monitor_snapshot_matches_golden() {
    check(&monitor_outputs());
}

// ---------------------------------------------------------------------------
// Scalars and labels at the edges of the formats.
// ---------------------------------------------------------------------------

/// Every case rendered compact and pretty, one block per case.
fn scalar_outputs() -> Vec<(&'static str, String)> {
    let labels = [
        "plain",
        "quote \" here",
        "back\\slash",
        "new\nline",
        "cr\rtab\t",
        "ctl \u{1} \u{1f}",
        "del \u{7f}",
        "utf8 h\u{e9}llo \u{4e16}\u{754c} \u{1F600}",
        "",
    ];
    let nested = Value::Obj(vec![
        ("empty_array".into(), Value::Arr(Vec::new())),
        ("empty_object".into(), Value::Obj(Vec::new())),
        (
            "nested".into(),
            Value::Arr(vec![
                Value::Arr(Vec::new()),
                Value::Obj(vec![("k".into(), Value::Arr(Vec::new()))]),
                Value::Arr(vec![Value::Obj(Vec::new()), Value::Null]),
            ]),
        ),
        ("key \"with\" \u{1} escapes\n".into(), Value::Bool(false)),
        (
            "scalars".into(),
            Value::Arr(vec![
                Value::Int(-42),
                Value::Int(i64::MIN),
                Value::Float(-0.0),
                Value::Float(1e15),
                Value::Float(2.5e-7),
                Value::Float(f64::INFINITY),
                Value::Float(f64::NEG_INFINITY),
                Value::Float(f64::NAN),
                Value::Str("s\u{7f}".into()),
                Value::Bool(true),
            ]),
        ),
    ]);
    let floats = vec![
        0.0,
        -0.0,
        1.0,
        -3.0,
        0.1,
        1.0 / 3.0,
        123456.789,
        999_999_999_999_999.0,
        1e15,
        -1e15,
        1e16,
        1.5e300,
        2.5e-7,
        5e-324,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let empty_rows: Vec<Vec<String>> = vec![Vec::new(), Vec::new()];
    let mut cases: Vec<(&str, String, String)> = vec![
        ("floats", compact(&floats), pretty(&floats)),
        ("labels", compact(&labels[..]), pretty(&labels[..])),
        ("value", compact(&nested), pretty(&nested)),
        ("empty_rows", compact(&empty_rows), pretty(&empty_rows)),
        (
            "empty_vec",
            compact(&Vec::<f64>::new()),
            pretty(&Vec::<f64>::new()),
        ),
        ("f32", compact(&0.1f32), pretty(&0.1f32)),
        ("i64_min", compact(&i64::MIN), pretty(&i64::MIN)),
        ("some", compact(&Some(1.5)), pretty(&Some(1.5))),
        ("none", compact(&None::<f64>), pretty(&None::<f64>)),
        (
            "pair",
            compact(&("a\"b".to_string(), -0.0)),
            pretty(&("a\"b".to_string(), -0.0)),
        ),
        (
            "triple",
            compact(&(1u8, true, "x")),
            pretty(&(1u8, true, "x")),
        ),
        (
            "format_enum",
            compact(&ResponseFormat::Markdown),
            pretty(&ResponseFormat::Markdown),
        ),
        (
            "changepoint_spec",
            compact(&ChangepointSpec::from(Cusum::new(0.25, 0.05, 1.0))),
            pretty(&ChangepointSpec::from(Cusum::new(0.25, 0.05, 1.0))),
        ),
    ];
    for (i, label) in labels.iter().enumerate() {
        let name: &str = ["l0", "l1", "l2", "l3", "l4", "l5", "l6", "l7", "l8"][i];
        cases.push((name, compact(*label), pretty(*label)));
    }
    let mut text = String::new();
    for (name, c, p) in cases {
        text.push_str(&format!("== {name}\n{c}\n{p}\n"));
    }
    vec![("scalars.txt", text)]
}

#[test]
fn scalars_and_labels_match_golden() {
    check(&scalar_outputs());
}

// ---------------------------------------------------------------------------
// The server's bodies.
// ---------------------------------------------------------------------------

/// A JSON string literal, escaped by hand (not by the writer under test).
fn quoted(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn server_outputs() -> Vec<(&'static str, String)> {
    let axes = vec![
        Axis::from_strs("y", &["no", "yes"]).unwrap(),
        Axis::from_strs("g", &["a", "b \"\u{e9}\""]).unwrap(),
        Axis::from_strs("r", &["u", "v\\w"]).unwrap(),
    ];
    let server = Server::builder("y", axes.clone())
        .window_seconds(1e6)
        .bucket_seconds(1.0)
        .decay(0.9)
        .subsets(SubsetPolicy::All)
        .alert(AlertRule::epsilon_above(0.05))
        .changepoint(Cusum::new(0.05, 0.01, 0.1))
        .shards(2)
        .workers(2)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = Http1Client::connect(server.local_addr()).unwrap();
    let mut out: Vec<(&'static str, String)> = Vec::new();

    // Deterministic rows, posted to pinned shards at pinned times.
    let mut acks = String::new();
    for chunk in 0..6usize {
        let rows: Vec<String> = (0..10usize)
            .map(|j| {
                let i = chunk * 10 + j;
                let y = &axes[0].labels()[usize::from(i % 3 == 0 || (chunk > 2 && i % 2 == 0))];
                let g = &axes[1].labels()[(i / 2) % 2];
                let r = &axes[2].labels()[(i / 5) % 2];
                format!("[{},{},{}]", quoted(y), quoted(g), quoted(r))
            })
            .collect();
        let body = format!("{{\"rows\":[{}]}}", rows.join(","));
        let target = format!("/v1/ingest/records?at={}&shard={}", 10 + chunk, chunk % 2);
        let resp = client
            .request(
                "POST",
                &target,
                &[("Content-Type", "application/json")],
                body.as_bytes(),
            )
            .unwrap();
        assert_eq!(resp.status, 200, "{}", resp.text());
        acks.push_str(&resp.text());
        acks.push('\n');
    }
    out.push(("server_ingest_acks.txt", acks));

    let mut get = |target: &str| -> String {
        let resp = client.get(target).unwrap();
        format!("{} {}\n{}", resp.status, target, resp.text())
    };
    out.push(("server_schema.json", get("/v1/schema")));
    out.push(("server_audit.json", get("/v1/audit")));
    out.push((
        "server_audit_params.json",
        get("/v1/audit?subsets=all&positive=yes&estimator=empirical&estimator=smoothed&window=decayed"),
    ));
    out.push(("server_audit.csv", get("/v1/audit?format=csv")));
    out.push(("server_audit.md", get("/v1/audit?format=markdown")));
    out.push(("server_audit.txt", get("/v1/audit?format=text")));
    out.push(("server_monitor.json", get("/v1/monitor")));
    out.push(("server_monitor.csv", get("/v1/monitor?format=csv")));
    out.push(("server_monitor.md", get("/v1/monitor?format=markdown")));
    out.push(("server_monitor.txt", get("/v1/monitor?format=text")));
    out.push((
        "server_audit_deo.json",
        get("/v1/audit?metric=deo(label=r)"),
    ));
    out.push((
        "server_monitor_deo.json",
        get("/v1/monitor?metric=deo(label=r)"),
    ));
    let mut deo_errors = String::new();
    for target in [
        "/v1/audit?metric=deo(label=nope)",
        "/v1/monitor?metric=deo(label=nope)",
        "/v1/audit?metric=deo(label=y)",
        "/v1/monitor?metric=deo(label=y)",
    ] {
        deo_errors.push_str(&get(target));
        deo_errors.push('\n');
    }
    out.push(("server_deo_errors.txt", deo_errors));
    let mut errors = String::new();
    for target in [
        "/v1/nope",
        "/v1/audit?format=xml",
        "/v1/audit?estimator=%22q%5C%0A%01",
        "/v1/audit?samples=10001",
        "/v1/monitor?metric=bogus",
        "/v1/trace?n=-1",
    ] {
        errors.push_str(&get(target));
        errors.push('\n');
    }
    let resp = client.request("POST", "/v1/audit", &[], b"").unwrap();
    errors.push_str(&format!(
        "{} POST /v1/audit\n{}\n",
        resp.status,
        resp.text()
    ));
    out.push(("server_errors.txt", errors));
    drop(client);
    server.shutdown();
    out
}

#[test]
fn server_bodies_match_golden() {
    check(&server_outputs());
}

// ---------------------------------------------------------------------------
// Seeded reports over random schemas.
// ---------------------------------------------------------------------------

/// A draw below `n`.
fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64_raw() % n as u64) as usize
}

/// FNV-1a over the bytes: a stable digest that needs no dependency.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const LABEL_POOL: [&str; 14] = [
    "a",
    "b",
    "c\"q",
    "d\\e",
    "line\nbreak",
    "tab\t",
    "ctl\u{1}",
    "del\u{7f}",
    "\u{e9}t\u{e9}",
    "\u{4e16}\u{754c}",
    "\u{1F600}",
    "x,y",
    "=eq",
    "",
];

const AXIS_POOL: [&str; 5] = ["sex", "race \"r\"", "n\u{e4}me", "a\\b", "age\n"];

/// `n` distinct labels from the pool.
fn pick_labels(rng: &mut SplitMix64, n: usize) -> Vec<String> {
    let mut pool: Vec<&str> = LABEL_POOL.to_vec();
    (0..n)
        .map(|_| pool.remove(below(rng, pool.len())).to_string())
        .collect()
}

/// A report over a random schema: 1–3 attributes of 2–3 labels, 2–3
/// outcomes, integer or fractional cells with some empty, and baselines
/// on every third seed.
fn random_report(seed: u64) -> Result<AuditReport, DfError> {
    let mut rng = SplitMix64::new(seed);
    let n_outcomes = 2 + below(&mut rng, 2);
    let mut axes = vec![Axis::new("outcome", pick_labels(&mut rng, n_outcomes)).unwrap()];
    let mut names: Vec<&str> = AXIS_POOL.to_vec();
    for _ in 0..1 + below(&mut rng, 3) {
        let name = names.remove(below(&mut rng, names.len()));
        let n = 2 + below(&mut rng, 2);
        axes.push(Axis::new(name, pick_labels(&mut rng, n)).unwrap());
    }
    let fractional = below(&mut rng, 2) == 0;
    let n_cells: usize = axes.iter().map(Axis::len).product();
    let data: Vec<f64> = (0..n_cells)
        .map(|_| match below(&mut rng, 8) {
            0 => 0.0,
            _ if fractional => (below(&mut rng, 4000) as f64) / 64.0 + 0.1,
            _ => below(&mut rng, 60) as f64,
        })
        .collect();
    let positive = axes[0].labels()[1].clone();
    let counts = JointCounts::from_table(ContingencyTable::from_data(axes, data)?, "outcome")?;
    let mut audit = Audit::of(&counts)
        .estimator(Empirical)
        .estimator(Smoothed { alpha: 0.5 })
        .subsets(SubsetPolicy::All);
    if seed.is_multiple_of(3) {
        audit = audit.baselines(Baselines::all().positive(positive));
    }
    audit.run()
}

fn digest_outputs() -> Vec<(&'static str, String)> {
    let mut text = String::new();
    for seed in 0..256u64 {
        match random_report(seed) {
            Ok(report) => {
                let (c, p) = (compact(&report), pretty(&report));
                text.push_str(&format!(
                    "{seed} compact {} {:016x} pretty {} {:016x}\n",
                    c.len(),
                    fnv1a(&c),
                    p.len(),
                    fnv1a(&p)
                ));
            }
            Err(e) => text.push_str(&format!("{seed} error {e}\n")),
        }
    }
    vec![("reports.digests", text)]
}

#[test]
fn seeded_report_digests_match_golden() {
    check(&digest_outputs());
}
