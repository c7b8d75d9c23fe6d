//! Integration tests for the documented extensions: differential equalized
//! odds, bootstrap CIs, fairness-regularized training, fairness-aware model
//! selection, and frame group indexing — all through the facade.

use differential_fairness::data::adult::synth::{generate, SynthConfig};
use differential_fairness::data::encode::{binary_labels, FrameEncoder};
use differential_fairness::learn::model_selection::{
    cross_validate_l2_grid, select_within_epsilon,
};
use differential_fairness::learn::pipeline::ADULT_BASE_FEATURES;
use differential_fairness::prelude::*;

fn adult_8k() -> differential_fairness::data::adult::AdultDataset {
    generate(&SynthConfig {
        seed: 321,
        n_train: 8_000,
        n_test: 3_000,
        ..SynthConfig::default()
    })
    .unwrap()
    .with_protected()
    .unwrap()
}

#[test]
fn protected_space_mirrors_frame_group_indexing() {
    // DataFrame::group_indices must order and name the intersections of
    // the protected space exactly as audits do.
    let dataset = adult_8k();
    let (indices, labels) = dataset
        .train
        .group_indices(&["gender", "nationality"])
        .unwrap();
    let counts = JointCounts::from_table(
        dataset
            .train
            .contingency(&["income", "gender", "nationality"])
            .unwrap(),
        "income",
    )
    .unwrap();
    let table = counts.group_outcomes(0.0).unwrap();
    assert_eq!(table.group_labels(), &labels[..]);
    for (g, &weight) in table.weights().iter().enumerate() {
        let rows = indices.iter().filter(|&&i| i == g).count();
        assert_eq!(weight, rows as f64, "group {}", labels[g]);
    }
}

#[test]
fn bootstrap_interval_contains_point_estimate() {
    let dataset = adult_8k();
    let counts = JointCounts::from_table(
        dataset
            .train
            .contingency(&["income", "gender", "nationality"])
            .unwrap(),
        "income",
    )
    .unwrap();
    let mut rng = Pcg32::new(55);
    let boot = bootstrap_epsilon(&counts, 1.0, 200, 0.95, &mut rng).unwrap();
    assert!(boot.point.is_finite());
    assert!(
        boot.interval.0 <= boot.point * 1.05 && boot.point * 0.95 <= boot.interval.1,
        "point {} outside CI [{}, {}]",
        boot.point,
        boot.interval.0,
        boot.interval.1
    );
    assert!(boot.std_error().unwrap() > 0.0);
    // Serializes for report pipelines.
    let json = serde_json::to_string(&boot).unwrap();
    assert!(json.contains("interval"));

    // The builder's bootstrap stage resamples the same way, driven by the
    // headline estimator, and lands in the report.
    let report = Audit::of(&counts)
        .estimator(Smoothed { alpha: 1.0 })
        .subsets(SubsetPolicy::None)
        .bootstrap(200, 55)
        .run()
        .unwrap();
    let built = report.bootstrap.unwrap();
    assert_eq!(built.replicates.len(), 200);
    assert!((built.point - boot.point).abs() < 1e-9);
    assert!(built.interval.0 <= built.point && built.point <= built.interval.1 * 1.05);
}

#[test]
fn equalized_odds_extension_on_a_real_classifier() {
    let dataset = adult_8k();
    let encoder = FrameEncoder::fit(&dataset.train, &ADULT_BASE_FEATURES).unwrap();
    let x_train = encoder.transform(&dataset.train).unwrap();
    let x_test = encoder.transform(&dataset.test).unwrap();
    let y_train = binary_labels(&dataset.train, "income", ">50K").unwrap();
    let y_test = binary_labels(&dataset.test, "income", ">50K").unwrap();
    let model = LogisticRegression::fit(&x_train, &y_train, &LogisticConfig::default()).unwrap();
    let preds = model.predict(&x_test).unwrap();

    let (groups, group_labels) = dataset.test.group_indices(&["gender"]).unwrap();
    let eo = EqualizedOddsCounts::from_records(
        vec!["<=50K".into(), ">50K".into()],
        vec!["pred0".into(), "pred1".into()],
        group_labels,
        y_test
            .iter()
            .zip(&preds)
            .zip(&groups)
            .map(|((&y, &p), &g)| (y as usize, p as usize, g)),
    )
    .unwrap();
    let deo = eo.epsilon(1.0).unwrap();
    assert!(deo.is_finite());
    // DEO dominates each conditional stratum, including opportunity.
    let opp = opportunity_epsilon(&eo, ">50K", 1.0).unwrap();
    assert!(deo.epsilon >= opp.epsilon - 1e-12);
    // The conditional table is inspectable per stratum.
    let table = eo.conditional_table(">50K", 1.0).unwrap();
    assert_eq!(table.num_groups(), 2);
}

#[test]
fn fair_regularizer_reduces_epsilon_on_adult() {
    let dataset = adult_8k();
    let encoder = FrameEncoder::fit(&dataset.train, &ADULT_BASE_FEATURES).unwrap();
    let x_train = encoder.transform(&dataset.train).unwrap();
    let y_train = binary_labels(&dataset.train, "income", ">50K").unwrap();
    let (groups, labels) = dataset.train.group_indices(&["gender"]).unwrap();

    let base = FairLogisticRegression::fit(
        &x_train,
        &y_train,
        &groups,
        labels.len(),
        &FairLogisticConfig {
            fairness_weight: 0.0,
            max_iter: 200,
            ..FairLogisticConfig::default()
        },
    )
    .unwrap();
    let fair = FairLogisticRegression::fit(
        &x_train,
        &y_train,
        &groups,
        labels.len(),
        &FairLogisticConfig {
            fairness_weight: 10.0,
            max_iter: 200,
            ..FairLogisticConfig::default()
        },
    )
    .unwrap();
    assert!(
        fair.train_soft_epsilon < 0.5 * base.train_soft_epsilon,
        "fair {} vs base {}",
        fair.train_soft_epsilon,
        base.train_soft_epsilon
    );
}

#[test]
fn model_selection_trades_error_for_epsilon() {
    let dataset = adult_8k();
    let encoder = FrameEncoder::fit(&dataset.train, &ADULT_BASE_FEATURES).unwrap();
    let x = encoder.transform(&dataset.train).unwrap();
    let y = binary_labels(&dataset.train, "income", ">50K").unwrap();
    let (groups, labels) = dataset.train.group_indices(&["race_m", "gender"]).unwrap();
    let mut rng = Pcg32::new(77);
    let results = cross_validate_l2_grid(
        &x,
        &y,
        &groups,
        labels.len(),
        &[1e-4, 1.0, 1e4],
        4,
        &mut rng,
    )
    .unwrap();
    assert_eq!(results.len(), 3);
    // Every candidate beats the majority-class error except (possibly) the
    // absurdly regularized one.
    assert!(results[0].error < 0.24);
    let chosen = select_within_epsilon(&results, f64::INFINITY).unwrap();
    // Unbounded budget → the pure error minimizer.
    let min_err = results
        .iter()
        .map(|r| r.error)
        .fold(f64::INFINITY, f64::min);
    assert!((chosen.error - min_err).abs() < 1e-12);
}

#[test]
fn audit_report_names_match_space_descriptions() {
    // End-to-end naming consistency: JointCounts group labels equal the
    // "attr=value" convention used everywhere (reports, witnesses, specs).
    let dataset = adult_8k();
    let counts = JointCounts::from_table(
        dataset
            .train
            .contingency(&["income", "gender", "nationality"])
            .unwrap(),
        "income",
    )
    .unwrap();
    let go = counts.group_outcomes(1.0).unwrap();
    assert!(go
        .group_labels()
        .iter()
        .all(|l| l.contains("gender=") && l.contains("nationality=")));
    let eps = go.epsilon();
    let w = eps.witness.unwrap();
    assert!(go.group_labels().contains(&w.group_hi));
    assert!(go.group_labels().contains(&w.group_lo));
}
