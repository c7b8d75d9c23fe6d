//! Differential equalized odds — the error-rate analogue of DF.
//!
//! §7.1 of the paper notes that "it is straightforward to extend
//! differential fairness to a definition analogous to equalized odds while
//! porting an analogous privacy guarantee of Equation 4, although we leave
//! the exploration of this for future work." This module is that extension:
//!
//! A mechanism is **ε-differentially equal-odds (DEO)** when, conditioned on
//! each true label `y*`, the distribution of its predictions satisfies the
//! DF ratio bound across protected intersections:
//!
//! ```text
//! e^-ε ≤ P(M(x) = ŷ | y* , sᵢ) / P(M(x) = ŷ | y*, sⱼ) ≤ e^ε
//! ```
//!
//! for all predictions ŷ, true labels y*, and populated pairs (sᵢ, sⱼ).
//! Setting `y* = deserving` only recovers a differential *equality of
//! opportunity*. The privacy reading carries over verbatim: given the
//! prediction *and* the true label, an adversary's posterior odds over the
//! protected intersection move by at most `e^ε`.

use crate::builder::{EpsilonEstimator, Smoothed};
use crate::edf::{worst_stratum, GroupLayout, JointCounts};
use crate::epsilon::{EpsilonResult, GroupOutcomes};
use crate::error::{DfError, Result};
use crate::metric::DifferentialEqualizedOdds;
use df_prob::contingency::{Axis, ContingencyTable};

/// The name of the true-label axis of the joint tally.
const TRUTH: &str = "truth";

/// Joint tally of `(true label, prediction, intersections…)`.
///
/// Constructed from per-record observations; computes the conditional DF of
/// predictions given each true label, on the strata a
/// [`DifferentialEqualizedOdds`] audit of the same counts scores.
#[derive(Debug, Clone)]
pub struct EqualizedOddsCounts {
    /// Joint counts of `(prediction, truth, group)`.
    counts: JointCounts,
}

impl EqualizedOddsCounts {
    /// Builds the conditional tallies from records of
    /// `(true_label_index, prediction_index, group_index)`.
    ///
    /// `labels` and `predictions` name the outcome vocabularies;
    /// `group_labels` names the intersections (as produced by
    /// `DataFrame::group_indices`).
    pub fn from_records(
        labels: Vec<String>,
        predictions: Vec<String>,
        group_labels: Vec<String>,
        records: impl IntoIterator<Item = (usize, usize, usize)>,
    ) -> Result<Self> {
        if labels.len() < 2 || predictions.len() < 2 {
            return Err(DfError::NotEnoughCategories {
                what: "labels/predictions",
                needed: 2,
                present: labels.len().min(predictions.len()),
            });
        }
        let arity = (labels.len(), predictions.len(), group_labels.len());
        let mut table = ContingencyTable::zeros(vec![
            Axis::new("prediction", predictions)?,
            Axis::new(TRUTH, labels)?,
            Axis::new("group", group_labels)?,
        ])?;
        for (y, p, g) in records {
            if y >= arity.0 || p >= arity.1 || g >= arity.2 {
                return Err(DfError::Invalid(format!(
                    "record index out of range: (y={y}, p={p}, g={g})"
                )));
            }
            table.increment(&[p, y, g]);
        }
        Ok(Self {
            counts: JointCounts::from_table(table, "prediction")?,
        })
    }

    /// Each true label with its raw (MLE) prediction × group table, in
    /// label order: the strata of a `deo(label=truth)` layout.
    fn strata(&self) -> Result<impl Iterator<Item = (&str, GroupOutcomes)>> {
        let table = self.counts.table();
        let strata = GroupLayout::new(table, 0)
            .for_metric(&DifferentialEqualizedOdds::new(TRUTH), std::iter::empty())?
            .strata(table.data())?;
        // Outcome-first counts: the prediction axis, then the truth axis.
        let labels = table.axes()[1].labels().iter().map(String::as_str);
        Ok(labels.zip(strata))
    }

    /// The per-true-label conditional ε values (with smoothing `alpha`).
    pub fn per_label_epsilon(&self, alpha: f64) -> Result<Vec<(String, EpsilonResult)>> {
        let estimator = Smoothed { alpha };
        self.strata()?
            .map(|(label, raw)| Ok((label.to_string(), estimator.estimate(&raw)?)))
            .collect()
    }

    /// The differential-equalized-odds ε: the worst conditional ε over true
    /// labels, picked as a `deo` audit picks it.
    pub fn epsilon(&self, alpha: f64) -> Result<EpsilonResult> {
        let per_label = self.per_label_epsilon(alpha)?;
        worst_stratum(per_label.into_iter().map(|(_, eps)| Ok(eps)))
    }

    /// The conditional group-outcome table for one true label (for witness
    /// inspection and custom analyses).
    pub fn conditional_table(&self, label: &str, alpha: f64) -> Result<GroupOutcomes> {
        let (_, raw) = self
            .strata()?
            .find(|(l, _)| *l == label)
            .ok_or_else(|| DfError::Invalid(format!("unknown true label `{label}`")))?;
        raw.smoothed(alpha)
    }
}

/// Convenience: differential equality of *opportunity* — the conditional ε
/// restricted to the deserving label only (Hardt et al.'s relaxation,
/// ported to ratio form).
pub fn opportunity_epsilon(
    counts: &EqualizedOddsCounts,
    deserving_label: &str,
    alpha: f64,
) -> Result<EpsilonResult> {
    for (label, eps) in counts.per_label_epsilon(alpha)? {
        if label == deserving_label {
            return Ok(eps);
        }
    }
    Err(DfError::Invalid(format!(
        "unknown deserving label `{deserving_label}`"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_prob::numerics::approx_eq;

    fn names(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    /// Build records realizing specified per-(label, group) TPR/FPR-style
    /// rates with `n` records per stratum.
    fn records_with_rates(
        rates: &[[f64; 2]], // [group][label] = P(pred=1 | label, group)
        n: usize,
    ) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for (g, row) in rates.iter().enumerate() {
            for (y, &rate) in row.iter().enumerate() {
                let positives = (rate * n as f64).round() as usize;
                for i in 0..n {
                    out.push((y, usize::from(i < positives), g));
                }
            }
        }
        out
    }

    #[test]
    fn perfectly_equal_rates_give_zero_epsilon() {
        let recs = records_with_rates(&[[0.1, 0.8], [0.1, 0.8]], 100);
        let eo = EqualizedOddsCounts::from_records(
            names(&["neg", "pos"]),
            names(&["pred0", "pred1"]),
            names(&["a", "b"]),
            recs,
        )
        .unwrap();
        let eps = eo.epsilon(0.0).unwrap();
        assert!(approx_eq(eps.epsilon, 0.0, 1e-12, 1e-12));
    }

    #[test]
    fn tpr_gap_is_detected_conditionally() {
        // Same overall positive rates can hide unequal error rates; DEO
        // conditions on the true label so the gap surfaces.
        // Group a: TPR 0.9, FPR 0.1. Group b: TPR 0.6, FPR 0.4.
        let recs = records_with_rates(&[[0.1, 0.9], [0.4, 0.6]], 1000);
        let eo = EqualizedOddsCounts::from_records(
            names(&["neg", "pos"]),
            names(&["pred0", "pred1"]),
            names(&["a", "b"]),
            recs,
        )
        .unwrap();
        let per = eo.per_label_epsilon(0.0).unwrap();
        // Conditional on neg: FPR ratio ln(0.4/0.1); conditional on pos:
        // worst of ln(0.9/0.6) and ln(0.4/0.1) on the miss side.
        let neg = &per[0].1;
        assert!(approx_eq(neg.epsilon, (0.4_f64 / 0.1).ln(), 1e-9, 1e-9));
        let overall = eo.epsilon(0.0).unwrap();
        assert!(overall.epsilon >= neg.epsilon - 1e-12);
    }

    #[test]
    fn opportunity_is_the_deserving_stratum() {
        let recs = records_with_rates(&[[0.1, 0.9], [0.1, 0.45]], 1000);
        let eo = EqualizedOddsCounts::from_records(
            names(&["neg", "pos"]),
            names(&["pred0", "pred1"]),
            names(&["a", "b"]),
            recs,
        )
        .unwrap();
        let opp = opportunity_epsilon(&eo, "pos", 0.0).unwrap();
        assert!(
            approx_eq(
                opp.epsilon,
                2.0_f64.ln().max((0.55_f64 / 0.1).ln().min(9.9)),
                1e-9,
                1e-2
            ) || opp.epsilon > 0.0
        );
        // Precisely: P(pred1|pos,a)=0.9 vs 0.45 → ln 2 on the hit side,
        // P(pred0|pos,·) = 0.1 vs 0.55 → ln 5.5 on the miss side.
        assert!(approx_eq(opp.epsilon, (0.55_f64 / 0.1).ln(), 1e-9, 1e-9));
        assert!(opportunity_epsilon(&eo, "zzz", 0.0).is_err());
    }

    #[test]
    fn conditional_table_lookup() {
        let recs = records_with_rates(&[[0.2, 0.7], [0.3, 0.7]], 10);
        let eo = EqualizedOddsCounts::from_records(
            names(&["neg", "pos"]),
            names(&["pred0", "pred1"]),
            names(&["a", "b"]),
            recs,
        )
        .unwrap();
        let t = eo.conditional_table("pos", 0.0).unwrap();
        assert_eq!(t.num_groups(), 2);
        assert!(approx_eq(t.prob(0, 1), 0.7, 1e-12, 0.0));
        assert!(eo.conditional_table("nope", 0.0).is_err());
    }

    #[test]
    fn validates_inputs() {
        assert!(EqualizedOddsCounts::from_records(
            names(&["only"]),
            names(&["p0", "p1"]),
            names(&["a"]),
            vec![],
        )
        .is_err());
        assert!(EqualizedOddsCounts::from_records(
            names(&["neg", "pos"]),
            names(&["p0", "p1"]),
            names(&["a"]),
            vec![(0, 0, 5)],
        )
        .is_err());
    }

    /// The records of `cells[label][group][prediction]`.
    fn records_of(cells: &[[[usize; 2]; 2]]) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        for (y, groups) in cells.iter().enumerate() {
            for (g, predictions) in groups.iter().enumerate() {
                for (p, &n) in predictions.iter().enumerate() {
                    out.extend(std::iter::repeat_n((y, p, g), n));
                }
            }
        }
        out
    }

    #[test]
    fn epsilon_matches_a_deo_audit_bit_for_bit() {
        use crate::builder::{Audit, Smoothed, SubsetPolicy};
        use crate::metric::DifferentialEqualizedOdds;
        use df_prob::contingency::{Axis, ContingencyTable};

        // Stratum t0: a = (10 no, 13 yes), b = (1 no, 0 yes); stratum t1:
        // a = b = (5 no, 5 yes).
        let records = records_of(&[[[10, 13], [1, 0]], [[5, 5], [5, 5]]]);
        let eo = EqualizedOddsCounts::from_records(
            names(&["t0", "t1"]),
            names(&["no", "yes"]),
            names(&["a", "b"]),
            records.clone(),
        )
        .unwrap();
        // The same records as joint counts of (prediction, truth, group).
        let axes = vec![
            Axis::from_strs("prediction", &["no", "yes"]).unwrap(),
            Axis::from_strs("truth", &["t0", "t1"]).unwrap(),
            Axis::from_strs("group", &["a", "b"]).unwrap(),
        ];
        let mut table = ContingencyTable::zeros(axes).unwrap();
        for &(y, p, g) in &records {
            table.increment(&[p, y, g]);
        }
        let counts = JointCounts::from_table(table.clone(), "prediction").unwrap();
        let bits = |r: &EpsilonResult| {
            let w = r.witness.as_ref().unwrap();
            (
                r.epsilon.to_bits(),
                w.prob_hi.to_bits(),
                w.prob_lo.to_bits(),
            )
        };
        for alpha in [0.0, 1.0] {
            let direct = eo.epsilon(alpha).unwrap();
            let audit = Audit::of(&counts)
                .metric(DifferentialEqualizedOdds::new("truth"))
                .estimator(Smoothed { alpha })
                .subsets(SubsetPolicy::None)
                .run()
                .unwrap();
            assert_eq!(bits(&direct), bits(&audit.epsilon), "alpha {alpha}");
            // Each true label's ε and table are its stratum's, sliced out
            // of the joint counts, as the DEO audit scores it.
            let per_label = eo.per_label_epsilon(alpha).unwrap();
            for (label, eps) in &per_label {
                let stratum = table.condition("truth", label).unwrap();
                let stratum = JointCounts::from_table(stratum, "prediction").unwrap();
                let audit = Audit::of(&stratum)
                    .estimator(Smoothed { alpha })
                    .subsets(SubsetPolicy::None)
                    .run()
                    .unwrap();
                assert_eq!(bits(eps), bits(&audit.epsilon), "{label}, alpha {alpha}");
                assert_eq!(
                    table_bits(&eo.conditional_table(label, alpha).unwrap()),
                    table_bits(&stratum.group_outcomes(alpha).unwrap()),
                    "{label}, alpha {alpha}"
                );
            }
        }
    }

    /// Every probability, then every weight, of `t` as bits.
    fn table_bits(t: &GroupOutcomes) -> Vec<u64> {
        let probs =
            (0..t.num_groups()).flat_map(|g| (0..t.num_outcomes()).map(move |y| t.prob(g, y)));
        probs
            .chain(t.weights().iter().copied())
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn a_witnessed_tie_displaces_a_stratum_with_one_populated_group() {
        use crate::builder::{Audit, Smoothed, SubsetPolicy};
        use crate::metric::DifferentialEqualizedOdds;

        // Stratum t0 has one populated group, so its ε of 0 has no
        // witness; t1's equal rates give an ε of 0 with one. The audit's
        // rule keeps t1's: a first-maximum loop would keep t0's.
        let records = records_of(&[[[3, 2], [0, 0]], [[5, 5], [5, 5]]]);
        let eo = EqualizedOddsCounts::from_records(
            names(&["t0", "t1"]),
            names(&["no", "yes"]),
            names(&["a", "b"]),
            records,
        )
        .unwrap();
        for alpha in [0.0, 1.0] {
            let per_label = eo.per_label_epsilon(alpha).unwrap();
            assert!(per_label[0].1.witness.is_none(), "alpha {alpha}");
            let direct = eo.epsilon(alpha).unwrap();
            assert_eq!(direct, per_label[1].1, "alpha {alpha}");
            let audit = Audit::of(&eo.counts)
                .metric(DifferentialEqualizedOdds::new("truth"))
                .estimator(Smoothed { alpha })
                .subsets(SubsetPolicy::None)
                .run()
                .unwrap();
            assert_eq!(direct, audit.epsilon, "alpha {alpha}");
        }
    }

    #[test]
    fn smoothing_rescues_empty_strata_cells() {
        // Group b never receives pred1 under label neg → Eq. 6 infinite.
        let recs = vec![
            (0usize, 1usize, 0usize),
            (0, 0, 0),
            (0, 0, 1),
            (0, 0, 1),
            (1, 1, 0),
            (1, 1, 1),
        ];
        let eo = EqualizedOddsCounts::from_records(
            names(&["neg", "pos"]),
            names(&["pred0", "pred1"]),
            names(&["a", "b"]),
            recs,
        )
        .unwrap();
        assert!(!eo.epsilon(0.0).unwrap().is_finite());
        assert!(eo.epsilon(1.0).unwrap().is_finite());
    }
}
