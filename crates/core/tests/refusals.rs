//! Every input the ε kernel cannot read is refused with a typed error on
//! its public path: corrupt or overflowing counts, a smoothing prior that
//! overflows Eq. 7's denominator, and mechanism distributions that are not
//! probability-like. Each test goes through the public entry points only,
//! so it holds wherever along the path the refusal happens.

use df_core::builder::{Audit, Empirical, PosteriorSup, Smoothed, SubsetPolicy};
use df_core::fleet::merge_many;
use df_core::mechanism::{estimate_group_outcomes, Mechanism};
use df_core::{DfError, JointCounts, Result};
use df_prob::contingency::{Axis, ContingencyTable};

fn axes() -> Vec<Axis> {
    vec![
        Axis::from_strs("y", &["0", "1"]).unwrap(),
        Axis::from_strs("g", &["a", "b"]).unwrap(),
    ]
}

/// Two records, `(0, a)` and `(1, b)`, plus `weight` at `(1, a)` (flat
/// cell 2) through the unchecked `add`.
fn with_cell(weight: f64) -> ContingencyTable {
    let mut t = ContingencyTable::zeros(axes()).unwrap();
    t.increment(&[0, 0]);
    t.increment(&[1, 1]);
    t.add(&[1, 0], weight);
    t
}

/// `value` in both outcome cells of group `a`: finite cells whose group
/// total overflows `f64` when `value` is `1e308`.
fn heavy_group(value: f64) -> ContingencyTable {
    ContingencyTable::from_data(axes(), vec![value, 1.0, value, 1.0]).unwrap()
}

fn owned_audit(table: ContingencyTable) -> Result<df_core::AuditReport> {
    JointCounts::from_table(table, "y")
        .and_then(Audit::of_counts)
        .and_then(|audit| audit.run())
}

fn borrowed_audit(table: ContingencyTable) -> Result<df_core::AuditReport> {
    JointCounts::from_table(table, "y").and_then(|counts| Audit::of(&counts).run())
}

#[test]
fn corrupt_cells_are_refused_as_corrupt_counts() {
    for weight in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0] {
        for (path, result) in [
            ("owned", owned_audit(with_cell(weight))),
            ("borrowed", borrowed_audit(with_cell(weight))),
        ] {
            match result {
                Err(DfError::CorruptCounts { cell: 2, value }) => {
                    assert_eq!(value.to_bits(), weight.to_bits(), "{path} {weight}");
                }
                other => panic!("{path} {weight}: expected CorruptCounts, got {other:?}"),
            }
        }
        let edf = JointCounts::from_table(with_cell(weight), "y").and_then(|c| c.edf());
        assert!(edf.is_err(), "edf {weight}: {edf:?}");
    }
    // A clean weight still audits.
    assert!(owned_audit(with_cell(1.0)).is_ok());
}

#[test]
fn a_group_total_that_overflows_is_refused() {
    for result in [
        owned_audit(heavy_group(1e308)),
        borrowed_audit(heavy_group(1e308)),
    ] {
        assert!(matches!(result, Err(DfError::Invalid(_))), "{result:?}");
    }
    let edf = JointCounts::from_table(heavy_group(1e308), "y").and_then(|c| c.edf());
    assert!(edf.is_err(), "{edf:?}");
    // Large counts that stay finite still audit.
    assert!(owned_audit(heavy_group(1e300)).is_ok());
}

fn table1() -> JointCounts {
    let axes = vec![
        Axis::from_strs("outcome", &["admit", "decline"]).unwrap(),
        Axis::from_strs("gender", &["A", "B"]).unwrap(),
        Axis::from_strs("race", &["1", "2"]).unwrap(),
    ];
    let data = vec![81.0, 192.0, 234.0, 55.0, 6.0, 71.0, 36.0, 25.0];
    JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "outcome").unwrap()
}

#[test]
fn a_smoothing_prior_that_overflows_is_refused() {
    let counts = table1();
    let smoothed = Audit::of(&counts)
        .estimator(Smoothed { alpha: f64::MAX })
        .run();
    assert!(matches!(smoothed, Err(DfError::Invalid(_))), "{smoothed:?}");
    let posterior = Audit::of(&counts)
        .estimator(PosteriorSup {
            alpha: f64::MAX,
            samples: 4,
            seed: 1,
        })
        .subsets(SubsetPolicy::None)
        .run();
    assert!(posterior.is_err(), "{posterior:?}");
    for alpha in [f64::MAX, f64::INFINITY, f64::NAN, -1.0] {
        let table = counts.group_outcomes(alpha);
        assert!(
            matches!(table, Err(DfError::Invalid(_))),
            "{alpha}: {table:?}"
        );
        assert!(counts.edf_smoothed(alpha).is_err(), "{alpha}");
    }
    // A large prior whose denominator stays finite still smooths.
    assert!(counts.group_outcomes(1e300).is_ok());
}

/// A mechanism that reports `dist` for every instance.
struct Fixed(Vec<f64>);

impl Mechanism<()> for Fixed {
    fn outcomes(&self) -> Vec<String> {
        vec!["no".into(), "yes".into()]
    }

    fn outcome_distribution(&self, _: &()) -> Vec<f64> {
        self.0.clone()
    }
}

fn estimate(dist: Vec<f64>, groups: &[&str], instances: Vec<(usize, ())>) -> Result<()> {
    let labels = groups.iter().map(|g| g.to_string()).collect();
    estimate_group_outcomes(&Fixed(dist), labels, instances, 0.0).map(|_| ())
}

#[test]
fn mechanism_distributions_that_are_not_probabilities_are_refused() {
    let two = || vec![(0, ()), (1, ())];
    for dist in [
        vec![f64::NAN, 1.0],
        vec![0.5, f64::INFINITY],
        vec![-0.5, 1.5],
        vec![1e308, 1e308],
    ] {
        let result = estimate(dist.clone(), &["a", "b"], two());
        assert!(
            matches!(result, Err(DfError::Invalid(_))),
            "{dist:?}: {result:?}"
        );
        let audit = Audit::of_mechanism(&Fixed(dist.clone()), vec!["a".into(), "b".into()], two())
            .and_then(|audit| audit.estimator(Empirical).run());
        assert!(audit.is_err(), "{dist:?}: {audit:?}");
    }
    // No group labels: nothing to condition on.
    let result = estimate(vec![0.5, 0.5], &[], Vec::new());
    assert!(
        matches!(
            result,
            Err(DfError::NotEnoughCategories {
                what: "groups",
                needed: 1,
                present: 0
            })
        ),
        "{result:?}"
    );
    // Unnormalized but finite, non-negative distributions are tallied.
    assert!(estimate(vec![0.3, 0.3], &["a", "b"], two()).is_ok());
}

#[test]
fn wire_snapshots_whose_merged_group_total_overflows_are_refused() {
    let monitor = Audit::monitor("y", axes()).build().unwrap();
    let mut snap = monitor.snapshot().unwrap();
    snap.window.data = vec![1e308, 1.0, 0.0, 1.0];
    let mut other = snap.clone();
    other.window.data = vec![0.0, 0.0, 1e308, 0.0];
    let merged = merge_many(&[snap.clone(), other], &Empirical);
    assert!(matches!(merged, Err(DfError::Invalid(_))), "{merged:?}");
    snap.window.data = vec![3.0, 1.0, 0.0, 1.0];
    assert!(merge_many(&[snap.clone(), snap], &Empirical).is_ok());
}
