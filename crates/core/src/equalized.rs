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

use crate::edf::JointCounts;
use crate::epsilon::{EpsilonResult, GroupOutcomes};
use crate::error::{DfError, Result};

/// Joint tally of `(true label, prediction, intersections…)`.
///
/// Constructed from per-record observations; computes the conditional DF of
/// predictions given each true label.
#[derive(Debug, Clone)]
pub struct EqualizedOddsCounts {
    /// One [`JointCounts`] of `(prediction, attrs…)` per true-label value.
    per_label: Vec<(String, JointCounts)>,
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
        use df_prob::contingency::{Axis, ContingencyTable};
        if labels.len() < 2 || predictions.len() < 2 {
            return Err(DfError::NotEnoughCategories {
                what: "labels/predictions",
                needed: 2,
                present: labels.len().min(predictions.len()),
            });
        }
        let n_groups = group_labels.len();
        let mut tables: Vec<ContingencyTable> = labels
            .iter()
            .map(|_| {
                ContingencyTable::zeros(vec![
                    Axis::new("prediction", predictions.clone())?,
                    Axis::new("group", group_labels.clone())?,
                ])
            })
            .collect::<std::result::Result<_, _>>()?;
        for (y, p, g) in records {
            if y >= labels.len() || p >= predictions.len() || g >= n_groups {
                return Err(DfError::Invalid(format!(
                    "record index out of range: (y={y}, p={p}, g={g})"
                )));
            }
            tables[y].increment(&[p, g]);
        }
        let per_label = labels
            .into_iter()
            .zip(tables)
            .map(|(label, t)| Ok((label, JointCounts::from_table(t, "prediction")?)))
            .collect::<Result<_>>()?;
        Ok(Self { per_label })
    }

    /// The per-true-label conditional ε values (with smoothing `alpha`).
    pub fn per_label_epsilon(&self, alpha: f64) -> Result<Vec<(String, EpsilonResult)>> {
        self.per_label
            .iter()
            .map(|(label, counts)| Ok((label.clone(), counts.edf_smoothed(alpha)?)))
            .collect()
    }

    /// The differential-equalized-odds ε: the worst conditional ε over true
    /// labels.
    pub fn epsilon(&self, alpha: f64) -> Result<EpsilonResult> {
        let mut worst: Option<EpsilonResult> = None;
        for (_, eps) in self.per_label_epsilon(alpha)? {
            match &worst {
                Some(w) if w.epsilon >= eps.epsilon => {}
                _ => worst = Some(eps),
            }
        }
        worst.ok_or_else(|| DfError::Invalid("no true-label strata".into()))
    }

    /// The conditional group-outcome table for one true label (for witness
    /// inspection and custom analyses).
    pub fn conditional_table(&self, label: &str, alpha: f64) -> Result<GroupOutcomes> {
        let (_, counts) = self
            .per_label
            .iter()
            .find(|(l, _)| l == label)
            .ok_or_else(|| DfError::Invalid(format!("unknown true label `{label}`")))?;
        counts.group_outcomes(alpha)
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
        let counts = JointCounts::from_table(table, "prediction").unwrap();
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
