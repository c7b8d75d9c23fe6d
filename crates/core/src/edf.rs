//! Empirical differential fairness from joint counts.
//!
//! [`JointCounts`] holds the joint tally `N[y, s₁, …, s_p]` of outcomes and
//! protected attributes. From it:
//!
//! - [`JointCounts::edf`] computes Eq. 6 of the paper:
//!   `e^-ε ≤ (N_{y,sᵢ}/N_{sᵢ}) · (N_{sⱼ}/N_{y,sⱼ}) ≤ e^ε`,
//! - [`JointCounts::edf_smoothed`] computes Eq. 7, the Dirichlet-multinomial
//!   posterior predictive `(N_{y,s} + α) / (N_s + |Y|α)`,
//! - [`JointCounts::marginal_to`] projects onto a subset `D` of the
//!   attributes; because counts marginalize additively, the resulting
//!   conditionals are exactly the `P(y|D) = Σ_E P(y|E,D) P(E|D)` of the
//!   Theorem 3.2 proof.

use crate::epsilon::{EpsilonResult, GroupOutcomes};
use crate::error::{DfError, Result};
use df_prob::contingency::{intersection_labels, Axis, ContingencyTable};
use df_prob::estimate::dirichlet_posterior_predictive;
use df_prob::numerics::{exactly_zero, stable_sum};

/// Joint counts of `(outcome, protected attributes…)`, canonicalized so the
/// outcome axis is first.
#[derive(Debug, Clone, PartialEq)]
pub struct JointCounts {
    table: ContingencyTable,
}

impl JointCounts {
    /// Wraps a contingency table, naming which axis holds the outcome. The
    /// table must have at least one protected-attribute axis and two
    /// outcome categories.
    pub fn from_table(table: ContingencyTable, outcome_axis: &str) -> Result<Self> {
        let pos = table.axis_position(outcome_axis)?;
        if table.ndim() < 2 {
            return Err(DfError::NotEnoughCategories {
                what: "protected attribute axes",
                needed: 1,
                present: table.ndim() - 1,
            });
        }
        if table.axes()[pos].len() < 2 {
            return Err(DfError::NotEnoughCategories {
                what: "outcomes",
                needed: 2,
                present: table.axes()[pos].len(),
            });
        }
        // Canonicalize: outcome first, attributes in their existing order.
        let mut keep: Vec<&str> = vec![outcome_axis];
        keep.extend(
            table
                .axes()
                .iter()
                .filter(|a| a.name() != outcome_axis)
                .map(|a| a.name()),
        );
        let table = table.marginalize(&keep)?;
        Ok(Self { table })
    }

    /// Builds joint counts directly from labeled records:
    /// each record is `(outcome_label, [attribute labels…])`.
    pub fn from_records<'a, I>(
        outcome_axis: Axis,
        attribute_axes: Vec<Axis>,
        records: I,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = (&'a str, Vec<&'a str>)>,
    {
        let mut axes = vec![outcome_axis];
        axes.extend(attribute_axes);
        let mut table = ContingencyTable::zeros(axes).map_err(DfError::from)?;
        for (y, attrs) in records {
            let mut labels = Vec::with_capacity(attrs.len() + 1);
            labels.push(y);
            labels.extend(attrs);
            table.increment_by_labels(&labels)?;
        }
        Self::from_table_canonical(table)
    }

    fn from_table_canonical(table: ContingencyTable) -> Result<Self> {
        let name = table.axes()[0].name().to_string();
        Self::from_table(table, &name)
    }

    /// The underlying table (outcome axis first).
    pub fn table(&self) -> &ContingencyTable {
        &self.table
    }

    /// Outcome axis labels.
    pub fn outcome_labels(&self) -> &[String] {
        self.table.axes()[0].labels()
    }

    /// Protected-attribute axis names, in order.
    pub fn attribute_names(&self) -> Vec<&str> {
        self.table.axes()[1..].iter().map(|a| a.name()).collect()
    }

    /// Total number of records tallied.
    pub fn total(&self) -> f64 {
        self.table.total()
    }

    /// Projects onto a subset of the protected attributes (summing out the
    /// rest). Errors if `attrs` is empty or names an unknown attribute.
    pub fn marginal_to(&self, attrs: &[&str]) -> Result<JointCounts> {
        if attrs.is_empty() {
            return Err(DfError::Invalid(
                "subset of protected attributes must be nonempty".into(),
            ));
        }
        let outcome = self.table.axes()[0].name().to_string();
        if attrs.iter().any(|a| *a == outcome) {
            return Err(DfError::Invalid(format!(
                "`{outcome}` is the outcome axis, not a protected attribute"
            )));
        }
        let mut keep: Vec<&str> = vec![&outcome];
        keep.extend(attrs);
        let table = self.table.marginalize(&keep)?;
        Ok(JointCounts { table })
    }

    /// Group-conditional outcome probabilities, with Dirichlet smoothing
    /// `alpha ≥ 0` (0 = MLE / Eq. 6; α > 0 = Eq. 7).
    ///
    /// Group weights are the group totals `N_s`, so unobserved intersections
    /// are excluded from ε exactly as Definition 3.1 prescribes.
    pub fn group_outcomes(&self, alpha: f64) -> Result<GroupOutcomes> {
        GroupLayout::new(&self.table, 0).group_outcomes(&self.table, alpha)
    }

    /// Empirical differential fairness (Eq. 6): ε of the MLE conditionals.
    pub fn edf(&self) -> Result<EpsilonResult> {
        Ok(self.group_outcomes(0.0)?.epsilon())
    }

    /// Smoothed differential fairness (Eq. 7) with symmetric Dirichlet
    /// concentration `alpha` per outcome.
    pub fn edf_smoothed(&self, alpha: f64) -> Result<EpsilonResult> {
        Ok(self.group_outcomes(alpha)?.epsilon())
    }

    /// EDF of a subset of the protected attributes (marginalizing the rest),
    /// with optional smoothing.
    pub fn edf_subset(&self, attrs: &[&str], alpha: f64) -> Result<EpsilonResult> {
        self.marginal_to(attrs)?.edf_smoothed(alpha)
    }
}

/// Where the intersections of a table live: the outcome labels, the group
/// labels in mixed-radix order over the attribute axes (outcome axis
/// removed, last attribute fastest), and the flat cell index of every
/// `(group, outcome)` pair. [`JointCounts::group_outcomes`] reads its
/// outcome-first table through a fresh layout; the monitor builds one for
/// its schema-order window once and reads every push through it, so both
/// produce the same table by construction.
pub(crate) struct GroupLayout {
    outcome_labels: Vec<String>,
    group_labels: Vec<String>,
    /// `flat[g · |Y| + y]` = flat index of `(group g, outcome y)`.
    flat: Vec<usize>,
}

impl GroupLayout {
    /// The layout of `table`, whose axis at position `outcome` holds the
    /// outcomes and every other axis a protected attribute.
    pub(crate) fn new(table: &ContingencyTable, outcome: usize) -> Self {
        let axes = table.axes();
        let attrs = || axes.iter().enumerate().filter(move |&(i, _)| i != outcome);
        let named: Vec<(&str, &[String])> = attrs().map(|(_, a)| (a.name(), a.labels())).collect();
        let group_labels = intersection_labels(&named);
        let n_outcomes = axes[outcome].len();
        let mut flat = Vec::with_capacity(group_labels.len() * n_outcomes);
        let mut idx = vec![0usize; axes.len()];
        for g in 0..group_labels.len() {
            let mut rem = g;
            for (i, axis) in attrs().rev() {
                idx[i] = rem % axis.len();
                rem /= axis.len();
            }
            for y in 0..n_outcomes {
                idx[outcome] = y;
                flat.push(table.flat_index(&idx));
            }
        }
        Self {
            outcome_labels: axes[outcome].labels().to_vec(),
            group_labels,
            flat,
        }
    }

    /// [`JointCounts::group_outcomes`] of `table`, which must have the
    /// axes this layout was built from. The MLE is inlined (same
    /// arithmetic as `categorical_mle`: compensated-sum total, per-cell
    /// division), because the monitor runs it on every push and a Vec per
    /// group would dominate the cost.
    pub(crate) fn group_outcomes(
        &self,
        table: &ContingencyTable,
        alpha: f64,
    ) -> Result<GroupOutcomes> {
        let data = table.data();
        let n_outcomes = self.outcome_labels.len();
        let mut probs = vec![0.0; self.flat.len()];
        let mut weights = vec![0.0; self.group_labels.len()];
        let mut counts = vec![0.0; n_outcomes];
        for ((weight, row), cells) in weights
            .iter_mut()
            .zip(probs.chunks_exact_mut(n_outcomes))
            .zip(self.flat.chunks_exact(n_outcomes))
        {
            for (c, &cell) in counts.iter_mut().zip(cells) {
                *c = data[cell];
            }
            *weight = counts.iter().sum();
            if exactly_zero(alpha) {
                let total = stable_sum(&counts);
                // An empty group keeps zero probabilities; a NaN total
                // propagates, as `categorical_mle`'s does.
                if total > 0.0 || total.is_nan() {
                    for (p, &c) in row.iter_mut().zip(&counts) {
                        *p = c / total;
                    }
                }
            } else if let Some(p) = dirichlet_posterior_predictive(&counts, alpha)? {
                row.copy_from_slice(&p);
                if exactly_zero(*weight) {
                    // Smoothing defines a distribution even for empty
                    // groups, but an unobserved group is still excluded
                    // from ε (its empirical P(s) is zero).
                    *weight = 0.0;
                }
            }
        }
        GroupOutcomes::new(
            self.outcome_labels.clone(),
            self.group_labels.clone(),
            probs,
            weights,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_prob::numerics::approx_eq;

    /// The paper's Table 1 (Simpson's paradox admissions data).
    /// Axes: outcome {admit, decline} × gender {A, B} × race {1, 2}.
    fn table1() -> JointCounts {
        let axes = vec![
            Axis::from_strs("outcome", &["admit", "decline"]).unwrap(),
            Axis::from_strs("gender", &["A", "B"]).unwrap(),
            Axis::from_strs("race", &["1", "2"]).unwrap(),
        ];
        // counts[y][g][r]: admits then declines.
        let data = vec![
            81.0, 192.0, // admit, gender A, race 1 & 2
            234.0, 55.0, // admit, gender B, race 1 & 2
            6.0, 71.0, // decline, A
            36.0, 25.0, // decline, B
        ];
        let table = ContingencyTable::from_data(axes, data).unwrap();
        JointCounts::from_table(table, "outcome").unwrap()
    }

    #[test]
    fn construction_validates() {
        let axes = vec![
            Axis::from_strs("outcome", &["a"]).unwrap(),
            Axis::from_strs("g", &["x", "y"]).unwrap(),
        ];
        let t = ContingencyTable::zeros(axes).unwrap();
        assert!(
            JointCounts::from_table(t, "outcome").is_err(),
            "needs 2 outcomes"
        );

        let axes = vec![Axis::from_strs("outcome", &["a", "b"]).unwrap()];
        let t = ContingencyTable::zeros(axes).unwrap();
        assert!(
            JointCounts::from_table(t, "outcome").is_err(),
            "needs attrs"
        );
    }

    #[test]
    fn outcome_axis_is_canonicalized_first() {
        let axes = vec![
            Axis::from_strs("g", &["x", "y"]).unwrap(),
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
        ];
        let mut t = ContingencyTable::zeros(axes).unwrap();
        t.increment_by_labels(&["x", "yes"]).unwrap();
        let jc = JointCounts::from_table(t, "y").unwrap();
        assert_eq!(jc.table().axes()[0].name(), "y");
        assert_eq!(jc.outcome_labels(), &["no".to_string(), "yes".to_string()]);
        assert_eq!(jc.attribute_names(), vec!["g"]);
        assert_eq!(jc.total(), 1.0);
    }

    #[test]
    fn from_records_tallies() {
        let jc = JointCounts::from_records(
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            vec![Axis::from_strs("g", &["a", "b"]).unwrap()],
            vec![
                ("yes", vec!["a"]),
                ("yes", vec!["a"]),
                ("no", vec!["b"]),
                ("yes", vec!["b"]),
            ],
        )
        .unwrap();
        assert_eq!(jc.total(), 4.0);
        let go = jc.group_outcomes(0.0).unwrap();
        assert!(approx_eq(go.prob(0, 1), 1.0, 1e-14, 0.0)); // P(yes|a)
        assert!(approx_eq(go.prob(1, 1), 0.5, 1e-14, 0.0)); // P(yes|b)
    }

    #[test]
    fn table1_intersectional_edf_matches_paper() {
        // Paper §5.1: ε = 1.511 for A = Gender × Race.
        let eps = table1().edf().unwrap();
        assert!(approx_eq(eps.epsilon, 1.511, 1e-3, 0.0), "{}", eps.epsilon);
        // Witness is the "decline" outcome: B/race2 (0.3125) vs A/race1 (0.0690).
        let w = eps.witness.unwrap();
        assert_eq!(w.outcome, "decline");
    }

    #[test]
    fn table1_gender_marginal_matches_paper() {
        // Paper: ε = 0.2329 for A = Gender.
        let eps = table1().edf_subset(&["gender"], 0.0).unwrap();
        assert!(approx_eq(eps.epsilon, 0.2329, 1e-3, 0.0), "{}", eps.epsilon);
    }

    #[test]
    fn table1_race_marginal_matches_paper() {
        // Paper: ε = 0.8667 for A = Race.
        let eps = table1().edf_subset(&["race"], 0.0).unwrap();
        assert!(approx_eq(eps.epsilon, 0.8667, 1e-3, 0.0), "{}", eps.epsilon);
    }

    #[test]
    fn table1_theorem_bound_holds() {
        // Theorem 3.1: marginals are at most 2ε = 3.022.
        let jc = table1();
        let full = jc.edf().unwrap().epsilon;
        for attrs in [&["gender"][..], &["race"][..]] {
            let sub = jc.edf_subset(attrs, 0.0).unwrap().epsilon;
            assert!(
                sub <= 2.0 * full + 1e-12,
                "{attrs:?}: {sub} vs {}",
                2.0 * full
            );
        }
    }

    #[test]
    fn marginal_probabilities_are_weighted_not_averaged() {
        // P(admit | gender A) must be 273/350 = 0.78, i.e. count-weighted
        // across races (not the unweighted mean of 0.931 and 0.730).
        let jc = table1().marginal_to(&["gender"]).unwrap();
        let go = jc.group_outcomes(0.0).unwrap();
        assert!(approx_eq(go.prob(0, 0), 273.0 / 350.0, 1e-12, 0.0));
        assert!(approx_eq(go.prob(1, 0), 289.0 / 350.0, 1e-12, 0.0));
    }

    #[test]
    fn marginal_to_validates() {
        let jc = table1();
        assert!(jc.marginal_to(&[]).is_err());
        assert!(jc.marginal_to(&["outcome"]).is_err());
        assert!(jc.marginal_to(&["nope"]).is_err());
    }

    #[test]
    fn smoothing_matches_eq7_closed_form() {
        // Single attribute, two groups; α = 1.
        let jc = JointCounts::from_records(
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            vec![Axis::from_strs("g", &["a", "b"]).unwrap()],
            vec![
                ("yes", vec!["a"]),
                ("yes", vec!["a"]),
                ("yes", vec!["a"]),
                ("no", vec!["b"]),
            ],
        )
        .unwrap();
        let go = jc.group_outcomes(1.0).unwrap();
        // Group a: counts (no=0, yes=3) → (1/5, 4/5); group b: (2/3, 1/3).
        assert!(approx_eq(go.prob(0, 0), 0.2, 1e-14, 0.0));
        assert!(approx_eq(go.prob(0, 1), 0.8, 1e-14, 0.0));
        assert!(approx_eq(go.prob(1, 0), 2.0 / 3.0, 1e-14, 0.0));
        let eps = jc.edf_smoothed(1.0).unwrap();
        let expect = ((2.0 / 3.0) / 0.2_f64).ln();
        assert!(approx_eq(eps.epsilon, expect, 1e-12, 0.0));
    }

    #[test]
    fn smoothing_rescues_infinite_epsilon() {
        let jc = JointCounts::from_records(
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            vec![Axis::from_strs("g", &["a", "b"]).unwrap()],
            vec![("yes", vec!["a"]), ("no", vec!["b"])],
        )
        .unwrap();
        assert!(!jc.edf().unwrap().is_finite());
        assert!(jc.edf_smoothed(1.0).unwrap().is_finite());
    }

    #[test]
    fn unobserved_intersections_are_excluded_not_infinite() {
        // Group "c" never appears: Eq. 6 must skip it rather than divide by 0.
        let jc = JointCounts::from_records(
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            vec![Axis::from_strs("g", &["a", "b", "c"]).unwrap()],
            vec![
                ("yes", vec!["a"]),
                ("no", vec!["a"]),
                ("yes", vec!["b"]),
                ("no", vec!["b"]),
            ],
        )
        .unwrap();
        let eps = jc.edf().unwrap();
        assert_eq!(eps.epsilon, 0.0);
        // Smoothing must not resurrect the empty group either.
        let eps = jc.edf_smoothed(1.0).unwrap();
        assert_eq!(eps.epsilon, 0.0);
    }

    #[test]
    fn group_label_order_is_mixed_radix() {
        let jc = table1();
        let go = jc.group_outcomes(0.0).unwrap();
        assert_eq!(go.group_labels()[0], "gender=A, race=1");
        assert_eq!(go.group_labels()[1], "gender=A, race=2");
        assert_eq!(go.group_labels()[2], "gender=B, race=1");
        assert_eq!(go.group_labels()[3], "gender=B, race=2");
    }
}
