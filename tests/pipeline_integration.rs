//! Cross-crate integration tests: data generation → frames → counts →
//! fairness audits → classifiers → amplification, through the facade.

use differential_fairness::core::baselines::{equalized_odds_gap, GroupConfusion};
use differential_fairness::core::data_fairness::{
    dataset_epsilon, dataset_posterior_epsilon, DataModel,
};
use differential_fairness::data::adult::synth::{generate, SynthConfig};
use differential_fairness::data::csv::{read_str, CsvOptions};
use differential_fairness::data::encode::{binary_labels, FrameEncoder};
use differential_fairness::learn::metrics;
use differential_fairness::prelude::*;

fn small_adult() -> differential_fairness::data::adult::AdultDataset {
    generate(&SynthConfig {
        seed: 99,
        n_train: 6_000,
        n_test: 2_000,
        ..SynthConfig::default()
    })
    .unwrap()
    .with_protected()
    .unwrap()
}

fn counts_of(frame: &DataFrame, outcome: &str) -> JointCounts {
    JointCounts::from_table(
        frame
            .contingency(&[outcome, "race_m", "gender", "nationality"])
            .unwrap(),
        outcome,
    )
    .unwrap()
}

#[test]
fn full_audit_roundtrips_through_json() {
    let dataset = small_adult();
    let counts = counts_of(&dataset.train, "income");
    let report = Audit::of(&counts)
        .estimator(Empirical)
        .estimator(Smoothed { alpha: 1.0 })
        .baselines(Baselines::all().with_subgroups(false).positive(">50K"))
        .reference_epsilon(2.0)
        .run()
        .unwrap();
    assert!(report.epsilon.epsilon.is_finite());
    assert_eq!(report.bound_violations, Some(vec![]));
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert!(json.contains("race_m"));
    assert!(json.contains("demographic_parity"));
    let back: AuditReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);
    // The rendered table mentions every subset.
    let rendered = report.render_subset_table();
    assert_eq!(rendered.lines().count(), 2 + 7);
}

#[test]
fn dataset_definitions_agree_across_paths() {
    let dataset = small_adult();
    let counts = counts_of(&dataset.train, "income");
    // Definition 4.2 = Eq. 6 = JointCounts::edf.
    let a = dataset_epsilon(&counts, DataModel::Empirical).unwrap();
    let b = counts.edf().unwrap();
    assert_eq!(a, b);
    // Definition 4.1 with Dirichlet-multinomial = Eq. 7.
    let c = dataset_epsilon(&counts, DataModel::DirichletMultinomial { alpha: 1.0 }).unwrap();
    let d = counts.edf_smoothed(1.0).unwrap();
    assert_eq!(c, d);
}

#[test]
fn posterior_theta_brackets_empirical_epsilon() {
    let dataset = small_adult();
    let counts = counts_of(&dataset.train, "income");
    let mut rng = Pcg32::new(17);
    let (sup, theta) = dataset_posterior_epsilon(&counts, 1.0, 60, &mut rng).unwrap();
    let point = counts.edf().unwrap().epsilon;
    assert!(sup.epsilon >= point * 0.8);
    let (lo, hi) = theta.epsilon_credible_interval(0.9).unwrap();
    assert!(lo < hi);
    assert!(
        point <= hi * 1.2,
        "point {point} should sit near [{lo}, {hi}]"
    );
}

#[test]
fn classifier_amplification_pipeline() {
    use differential_fairness::learn::pipeline::{run_feature_selection, ADULT_BASE_FEATURES};
    let dataset = small_adult();
    let run = run_feature_selection(
        &dataset.train,
        &dataset.test,
        &ADULT_BASE_FEATURES,
        &[],
        "income",
        ">50K",
        &LogisticConfig::default(),
    )
    .unwrap();
    assert!(run.error_rate < 0.24, "beats majority class");

    let labels: Vec<&str> = run
        .test_predictions
        .iter()
        .map(|&p| if p >= 0.5 { ">50K" } else { "<=50K" })
        .collect();
    let mut frame = dataset.test.clone();
    frame
        .add_column(Column::categorical("prediction", &labels))
        .unwrap();
    let pred_eps = counts_of(&frame, "prediction")
        .edf_smoothed(1.0)
        .unwrap()
        .epsilon;
    let data_eps = counts_of(&dataset.test, "income")
        .edf_smoothed(1.0)
        .unwrap()
        .epsilon;
    let amp = BiasAmplification::new(pred_eps, data_eps);
    assert!(amp.delta().is_finite());
    assert!(amp.utility_disparity_factor() > 0.0);
}

#[test]
fn alternative_learners_audit_cleanly() {
    let dataset = small_adult();
    let y_train = binary_labels(&dataset.train, "income", ">50K").unwrap();
    let y_test = binary_labels(&dataset.test, "income", ">50K").unwrap();

    // Logistic regression over encoded features outside Table 3's set.
    let encoder = FrameEncoder::fit(
        &dataset.train,
        &["education-num", "hours-per-week", "age", "capital-gain"],
    )
    .unwrap();
    let x_train = encoder.transform(&dataset.train).unwrap();
    let x_test = encoder.transform(&dataset.test).unwrap();
    let model = LogisticRegression::fit(&x_train, &y_train, &LogisticConfig::default()).unwrap();
    let preds = model.predict(&x_test).unwrap();
    let err = metrics::error_rate(&preds, &y_test).unwrap();
    assert!(err < 0.24, "logistic beats majority class: {err}");

    // Its predictions yield a finite fairness audit via the α = 1
    // Mechanism tally over the intersections.
    let (groups, group_labels) = dataset
        .test
        .group_indices(&["race_m", "gender", "nationality"])
        .unwrap();
    let mech = FnMechanism::new(vec!["p0".into(), "p1".into()], |p: &f64| {
        usize::from(*p >= 0.5)
    });
    let est = estimate_group_outcomes(
        &mech,
        group_labels,
        groups.iter().copied().zip(preds.iter().copied()),
        1.0,
    )
    .unwrap();
    assert!(est.group_outcomes.epsilon().is_finite());
}

#[test]
fn equalized_odds_baseline_over_intersections() {
    let dataset = small_adult();
    let y_test = binary_labels(&dataset.test, "income", ">50K").unwrap();
    // A deliberately crude classifier: education threshold.
    let edu = dataset
        .test
        .column("education-num")
        .unwrap()
        .as_numeric()
        .unwrap();
    let preds: Vec<f64> = edu.iter().map(|&e| f64::from(e >= 12.0)).collect();
    let (groups, labels) = dataset.test.group_indices(&["gender"]).unwrap();
    let mut confusions = vec![GroupConfusion::default(); labels.len()];
    for ((&g, &p), &y) in groups.iter().zip(&preds).zip(&y_test) {
        let c = &mut confusions[g];
        match (p >= 0.5, y >= 0.5) {
            (true, true) => c.tp += 1.0,
            (true, false) => c.fp += 1.0,
            (false, false) => c.tn += 1.0,
            (false, true) => c.fn_ += 1.0,
        }
    }
    let gap = equalized_odds_gap(&confusions);
    assert!(gap.tpr_gap >= 0.0 && gap.tpr_gap <= 1.0);
    assert!(gap.fpr_gap >= 0.0 && gap.fpr_gap <= 1.0);
}

#[test]
fn csv_to_fairness_audit_path() {
    // A miniature dataset arriving as CSV text, through the full stack.
    let csv = "\
approve, F, black
deny, F, black
approve, M, white
approve, M, white
deny, F, white
approve, F, white
approve, M, black
deny, M, black
";
    let records = read_str(csv, &CsvOptions::adult()).unwrap();
    let outcome: Vec<&str> = records.iter().map(|r| r[0].as_str()).collect();
    let gender: Vec<&str> = records.iter().map(|r| r[1].as_str()).collect();
    let race: Vec<&str> = records.iter().map(|r| r[2].as_str()).collect();
    let frame = DataFrame::new(vec![
        Column::categorical("outcome", &outcome),
        Column::categorical("gender", &gender),
        Column::categorical("race", &race),
    ])
    .unwrap();
    let counts = JointCounts::from_table(
        frame.contingency(&["outcome", "gender", "race"]).unwrap(),
        "outcome",
    )
    .unwrap();
    assert_eq!(counts.total(), 8.0);
    let eps = counts.edf_smoothed(1.0).unwrap();
    assert!(eps.is_finite());
    // Same counts assembled directly must agree exactly.
    let direct = JointCounts::from_records(
        Axis::from_strs("outcome", &["approve", "deny"]).unwrap(),
        vec![
            Axis::from_strs("gender", &["F", "M"]).unwrap(),
            Axis::from_strs("race", &["black", "white"]).unwrap(),
        ],
        records
            .iter()
            .map(|r| (r[0].as_str(), vec![r[1].as_str(), r[2].as_str()]))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    assert_eq!(
        direct.edf_smoothed(1.0).unwrap().epsilon,
        eps.epsilon,
        "CSV path and direct path agree"
    );
}

#[test]
fn quota_and_iid_allocations_converge_at_scale() {
    use differential_fairness::data::adult::calibration;
    use differential_fairness::data::adult::synth::CellAllocation;
    let truth = calibration::population_epsilon(0b111);
    let quota = generate(&SynthConfig {
        seed: 5,
        n_train: 30_000,
        n_test: 16,
        allocation: CellAllocation::Quota,
    })
    .unwrap()
    .with_protected()
    .unwrap();
    let eps_quota = counts_of(&quota.train, "income").edf().unwrap().epsilon;
    assert!(
        (eps_quota - truth).abs() < 0.05,
        "quota {eps_quota} vs {truth}"
    );

    let iid = generate(&SynthConfig {
        seed: 5,
        n_train: 30_000,
        n_test: 16,
        allocation: CellAllocation::Iid,
    })
    .unwrap()
    .with_protected()
    .unwrap();
    let eps_iid = counts_of(&iid.train, "income").edf().unwrap().epsilon;
    // iid carries sampling noise but should be within a generous band.
    assert!((eps_iid - truth).abs() < 1.0, "iid {eps_iid} vs {truth}");
}
