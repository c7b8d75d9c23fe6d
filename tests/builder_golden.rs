//! Golden tests for the `Audit` builder: the paper's Table 1, 2, and 3
//! numbers end to end, JSON round-tripping of the unified report, and the
//! streaming/parallel paths' determinism guarantees — all through the
//! facade, exactly as a downstream user would.

use differential_fairness::data::adult;
use differential_fairness::data::kidney;
use differential_fairness::learn::pipeline::{run_feature_selection, ADULT_BASE_FEATURES};
use differential_fairness::prelude::*;

fn table1_counts() -> JointCounts {
    JointCounts::from_table(kidney::admissions_counts(), "outcome").unwrap()
}

/// The paper's §5.1 numbers from one builder chain: ε ≈ 1.511 empirical on
/// the full intersection, the smoothed (α = 1) companion, and an empty
/// Theorem 3.2 bound check.
#[test]
fn golden_table1_through_the_builder() {
    let report = Audit::of(&table1_counts())
        .estimator(Empirical)
        .estimator(Smoothed { alpha: 1.0 })
        .subsets(SubsetPolicy::All)
        .baselines(Baselines::all().positive("admit"))
        .run()
        .unwrap();

    // Record accounting is exact.
    assert_eq!(report.total_weight, 700.0);
    assert_eq!(report.n_records, Some(700));

    // Empirical ε (Eq. 6): the paper's 1.511 / 0.2329 / 0.8667.
    let edf = report.estimator("eps-EDF").unwrap();
    let eps = |attrs: &[&str]| edf.get(attrs).unwrap().result.epsilon;
    assert!((eps(&["gender", "race"]) - 1.511).abs() < 1e-3);
    assert!((eps(&["gender"]) - 0.2329).abs() < 1e-3);
    assert!((eps(&["race"]) - 0.8667).abs() < 1e-3);

    // Smoothed at α = 1 (Eq. 7) agrees with the direct Eq. 7 path and is
    // slightly tempered relative to Eq. 6 on this fully populated table.
    let smoothed = report.estimator("eps-DF(a=1)").unwrap();
    let direct = table1_counts().edf_smoothed(1.0).unwrap().epsilon;
    assert!((smoothed.result.epsilon - direct).abs() < 1e-9);
    assert!(smoothed.result.epsilon < edf.result.epsilon);

    // Headline = last estimator; regime per §3.3.
    assert_eq!(report.headline, "eps-DF(a=1)");
    assert_eq!(report.epsilon, smoothed.result);
    assert_eq!(report.regime, PrivacyRegime::Moderate);

    // Theorem 3.2: the bound check ran and found nothing.
    assert_eq!(report.bound_violations, Some(vec![]));

    // The witness names real groups in the attr=value convention.
    let w = edf.result.witness.as_ref().unwrap();
    assert_eq!(w.outcome, "decline");
    assert!(w.group_hi.contains("gender=") && w.group_hi.contains("race="));
}

/// Serialize → deserialize → equal, for a report exercising every optional
/// stage (subsets, baselines, subgroups, bootstrap, amplification,
/// equalized odds).
#[test]
fn golden_report_json_round_trip() {
    let eo = EqualizedOddsCounts::from_records(
        vec!["neg".into(), "pos".into()],
        vec!["p0".into(), "p1".into()],
        vec!["a".into(), "b".into()],
        vec![
            (0usize, 0usize, 0usize),
            (0, 0, 1),
            (0, 1, 1),
            (1, 1, 0),
            (1, 1, 1),
            (1, 0, 0),
        ],
    )
    .unwrap();
    let report = Audit::of(&table1_counts())
        .estimator(Empirical)
        .estimator(Smoothed { alpha: 1.0 })
        .baselines(Baselines::all().positive("admit"))
        .bootstrap(50, 17)
        .equalized_odds(eo, 1.0)
        .reference_epsilon(1.0)
        .run()
        .unwrap();

    let json = serde_json::to_string(&report).unwrap();
    let back: AuditReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);

    // Pretty output round-trips identically too.
    let pretty = serde_json::to_string_pretty(&report).unwrap();
    let back: AuditReport = serde_json::from_str(&pretty).unwrap();
    assert_eq!(back, report);

    // Spot-check the serialized shape downstream pipelines rely on.
    assert!(json.contains("\"total_weight\""));
    assert!(json.contains("\"n_records\":700"));
    assert!(json.contains("\"estimators\""));
    assert!(json.contains("\"bound_violations\""));
}

/// ε = ∞ (a structurally gerrymandered table) survives the JSON round-trip
/// — the vendored serde stub encodes non-finite floats as strings instead
/// of nulling them out.
#[test]
fn golden_infinite_epsilon_round_trips() {
    let counts = JointCounts::from_records(
        Axis::from_strs("y", &["no", "yes"]).unwrap(),
        vec![Axis::from_strs("g", &["a", "b"]).unwrap()],
        vec![("yes", vec!["a"]), ("no", vec!["b"])],
    )
    .unwrap();
    let report = Audit::of(&counts).estimator(Empirical).run().unwrap();
    assert!(report.epsilon.epsilon.is_infinite());
    let json = serde_json::to_string(&report).unwrap();
    let back: AuditReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
    assert!(back.epsilon.epsilon.is_infinite());
}

/// The paper's Table 2 through the builder: ε-EDF of the (calibrated
/// synthetic) Adult training set for all 7 subsets of
/// {race, gender, nationality} — and, as the acceptance gate for the
/// streaming engine, the sharded `of_stream` path (4 shards) must produce
/// a **byte-identical** report JSON to the batch path on this case study.
#[test]
fn golden_table2_through_builder_batch_and_stream() {
    let dataset = adult::synth::generate_default()
        .unwrap()
        .with_protected()
        .unwrap();
    let protected = ["race_m", "gender", "nationality"];

    let batch = Audit::of_frame(&dataset.train, "income", &protected)
        .unwrap()
        .estimator(Empirical)
        .estimator(Smoothed { alpha: 1.0 })
        .subsets(SubsetPolicy::All)
        .run()
        .unwrap();
    assert_eq!(batch.n_records, Some(32_561));

    // Table 2's seven rows (paper values; the synthetic generator is
    // calibrated to them, see EXPERIMENTS.md).
    let audit = batch.estimator("eps-EDF").unwrap();
    let rows: [(&[&str], f64); 7] = [
        (&["nationality"], 0.219),
        (&["race_m"], 0.930),
        (&["gender"], 1.03),
        (&["gender", "nationality"], 1.16),
        (&["race_m", "nationality"], 1.21),
        (&["race_m", "gender"], 1.76),
        (&["race_m", "gender", "nationality"], 2.14),
    ];
    for (attrs, paper) in rows {
        let eps = audit.get(attrs).unwrap().result.epsilon;
        assert!(
            (eps - paper).abs() < 0.05,
            "Table 2 {attrs:?}: measured {eps} vs paper {paper}"
        );
    }
    // The intersectional finding: the full intersection is the worst, and
    // the Theorem 3.2 check ran clean over the complete lattice.
    assert!(audit.result.epsilon > audit.get(&["gender"]).unwrap().result.epsilon);
    assert_eq!(batch.bound_violations, Some(vec![]));

    // Streaming with 4 shards: byte-identical serialized report.
    let streamed = Audit::of_frame_streaming(&dataset.train, "income", &protected, 4096, 4)
        .unwrap()
        .estimator(Empirical)
        .estimator(Smoothed { alpha: 1.0 })
        .subsets(SubsetPolicy::All)
        .run()
        .unwrap();
    assert_eq!(
        serde_json::to_string(&streamed).unwrap(),
        serde_json::to_string(&batch).unwrap(),
        "of_stream(4 shards) must serialize byte-identically to the batch path"
    );
}

/// The paper's Table 3 through the builder: a logistic regression trained
/// without sensitive features, its test predictions audited at α = 1
/// (Eq. 7) with bias amplification against the test data's own ε.
#[test]
fn golden_table3_classifier_audit_through_builder() {
    let dataset = adult::synth::generate_default()
        .unwrap()
        .with_protected()
        .unwrap();
    let run = run_feature_selection(
        &dataset.train,
        &dataset.test,
        &ADULT_BASE_FEATURES,
        &[], // the paper's best row: all sensitive attributes withheld
        "income",
        ">50K",
        &LogisticConfig::default(),
    )
    .unwrap();
    // Paper error band is 14.90–15.21%; the synthetic features land close.
    assert!(
        (0.135..=0.165).contains(&run.error_rate),
        "error rate {} outside the Table 3 band",
        run.error_rate
    );

    // Tally (prediction, protected…) over the test set and audit it.
    let labels: Vec<&str> = run
        .test_predictions
        .iter()
        .map(|&p| if p >= 0.5 { "pred>50K" } else { "pred<=50K" })
        .collect();
    let mut frame = dataset.test.clone();
    frame
        .add_column(Column::categorical("prediction", &labels))
        .unwrap();
    let counts = JointCounts::from_table(
        frame
            .contingency(&["prediction", "race_m", "gender", "nationality"])
            .unwrap(),
        "prediction",
    )
    .unwrap();

    let data_eps = Audit::of_frame(
        &dataset.test,
        "income",
        &["race_m", "gender", "nationality"],
    )
    .unwrap()
    .estimator(Smoothed { alpha: 1.0 })
    .subsets(SubsetPolicy::None)
    .run()
    .unwrap()
    .epsilon
    .epsilon;

    let report = Audit::of_counts(counts)
        .unwrap()
        .estimator(Smoothed { alpha: 1.0 })
        .subsets(SubsetPolicy::None)
        .reference_epsilon(data_eps)
        .run()
        .unwrap();
    let eps = report.epsilon.epsilon;
    // Table 3's classifier ε sits in a plausible band around the data ε.
    assert!(
        (1.5..=4.0).contains(&eps),
        "classifier eps {eps} out of band"
    );
    let amp = report.amplification.unwrap();
    assert!((amp.delta() - (eps - data_eps)).abs() < 1e-12);
    assert_eq!(report.headline, "eps-DF(a=1)");
}

/// The three estimator strategies order sensibly on sparse data: smoothing
/// tempers the point estimate, the posterior supremum dominates it.
#[test]
fn golden_estimator_ordering() {
    let counts = table1_counts();
    let report = Audit::of(&counts)
        .estimator(Empirical)
        .estimator(Smoothed { alpha: 1.0 })
        .estimator(PosteriorSup {
            alpha: 1.0,
            samples: 200,
            seed: 5,
        })
        .subsets(SubsetPolicy::None)
        .run()
        .unwrap();
    let by_name = |n: &str| report.estimator(n).unwrap().result.epsilon;
    let empirical = by_name("eps-EDF");
    let smoothed = by_name("eps-DF(a=1)");
    let sup = by_name("eps-sup(a=1,m=200)");
    assert!(smoothed < empirical);
    assert!(sup > empirical, "sup {sup} vs point {empirical}");
}
