//! Baseline fairness definitions the paper compares against (§7).
//!
//! - **Demographic parity** (Dwork et al.): `P(y|sᵢ) = P(y|sⱼ)`; relaxed to a
//!   total-variation distance [`demographic_parity_distance`].
//! - **Disparate impact** (the "80 % rule"): the minimum ratio of positive
//!   rates across group pairs [`disparate_impact_ratio`].
//! - **Equalized odds** (Hardt et al.): equal error rates per group;
//!   [`equalized_odds_gap`] over per-group confusion counts.
//! - **Statistical-parity subgroup fairness** (Kearns et al.): parity over a
//!   collection of subgroups weighted by their size, which the paper credits
//!   with preventing "fairness gerrymandering";
//!   [`subgroup_fairness_violation`] audits every conjunctive subgroup
//!   definable from the protected attributes.

use crate::builder::check_mask_width;
use crate::edf::JointCounts;
use crate::epsilon::GroupOutcomes;
use crate::error::{DfError, Result};
use df_prob::numerics::exactly_zero;
use serde::{Deserialize, Serialize};

/// Worst total-variation distance between two populated groups' outcome
/// distributions: `max_{i,j} ½ Σ_y |P(y|sᵢ) − P(y|sⱼ)|`.
///
/// Zero iff demographic parity holds exactly.
pub fn demographic_parity_distance(table: &GroupOutcomes) -> f64 {
    let populated = table.populated_groups();
    let mut worst = 0.0f64;
    for (a, &i) in populated.iter().enumerate() {
        for &j in &populated[a + 1..] {
            let tv: f64 = (0..table.num_outcomes())
                .map(|y| (table.prob(i, y) - table.prob(j, y)).abs())
                .sum::<f64>()
                / 2.0;
            if tv > worst {
                worst = tv;
            }
        }
    }
    worst
}

/// The disparate-impact ratio for a designated positive outcome: the
/// minimum over populated pairs of `P(positive|sᵢ) / P(positive|sⱼ)`.
///
/// The legal "80 % rule" flags values below 0.8. Returns 1.0 when fewer than
/// two groups are populated, 0.0 when some group has zero positive rate
/// while another's is positive.
pub fn disparate_impact_ratio(table: &GroupOutcomes, positive_outcome: usize) -> Result<f64> {
    if positive_outcome >= table.num_outcomes() {
        return Err(DfError::Invalid(format!(
            "outcome index {positive_outcome} out of range"
        )));
    }
    let populated = table.populated_groups();
    if populated.len() < 2 {
        return Ok(1.0);
    }
    let rates: Vec<f64> = populated
        .iter()
        .map(|&g| table.prob(g, positive_outcome))
        .collect();
    let max = rates.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
    if exactly_zero(max) {
        // Nobody ever receives the positive outcome: vacuously equal.
        return Ok(1.0);
    }
    Ok(min / max)
}

/// Per-group binary confusion counts for equalized-odds auditing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Default)]
pub struct GroupConfusion {
    /// True positives.
    pub tp: f64,
    /// False positives.
    pub fp: f64,
    /// True negatives.
    pub tn: f64,
    /// False negatives.
    pub fn_: f64,
}

impl GroupConfusion {
    /// True-positive rate `tp / (tp + fn)`, `None` when the group has no
    /// positive instances.
    pub fn tpr(&self) -> Option<f64> {
        let pos = self.tp + self.fn_;
        (pos > 0.0).then(|| self.tp / pos)
    }

    /// False-positive rate `fp / (fp + tn)`, `None` when the group has no
    /// negative instances.
    pub fn fpr(&self) -> Option<f64> {
        let neg = self.fp + self.tn;
        (neg > 0.0).then(|| self.fp / neg)
    }
}

/// The equalized-odds violation: the worst pairwise gap in TPR and in FPR.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct EqualizedOddsGap {
    /// Max |TPRᵢ − TPRⱼ| over group pairs with defined TPR.
    pub tpr_gap: f64,
    /// Max |FPRᵢ − FPRⱼ| over group pairs with defined FPR.
    pub fpr_gap: f64,
}

impl EqualizedOddsGap {
    /// The larger of the two gaps.
    pub fn max_gap(&self) -> f64 {
        self.tpr_gap.max(self.fpr_gap)
    }
}

/// Computes the equalized-odds gaps over per-group confusion counts.
pub fn equalized_odds_gap(groups: &[GroupConfusion]) -> EqualizedOddsGap {
    let gap = |rates: Vec<Option<f64>>| -> f64 {
        let defined: Vec<f64> = rates.into_iter().flatten().collect();
        if defined.len() < 2 {
            return 0.0;
        }
        let max = defined.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = defined.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    };
    EqualizedOddsGap {
        tpr_gap: gap(groups.iter().map(GroupConfusion::tpr).collect()),
        fpr_gap: gap(groups.iter().map(GroupConfusion::fpr).collect()),
    }
}

/// One conjunctive subgroup's statistical-parity audit record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubgroupViolation {
    /// Description of the subgroup, e.g. `"gender=F, race=Black"`.
    pub subgroup: String,
    /// Fraction of the population in the subgroup.
    pub mass: f64,
    /// `P(positive | subgroup) − P(positive)`.
    pub rate_gap: f64,
    /// Kearns-style weighted violation `mass · |rate_gap|`.
    pub weighted: f64,
}

/// Statistical-parity subgroup fairness (Kearns et al.): audits every
/// conjunctive subgroup definable by fixing a subset of the protected
/// attributes (including the full intersections), returning the worst
/// size-weighted parity violation `P(g) · |P(ŷ=pos|g) − P(ŷ=pos)|`.
pub fn subgroup_fairness_violation(
    counts: &JointCounts,
    positive_label: &str,
) -> Result<Vec<SubgroupViolation>> {
    let pos = counts
        .outcome_labels()
        .iter()
        .position(|l| l == positive_label)
        .ok_or_else(|| DfError::Invalid(format!("unknown outcome `{positive_label}`")))?;
    let total = counts.total();
    if total <= 0.0 {
        return Err(DfError::Invalid("empty dataset".into()));
    }
    // Base rate over everyone.
    let outcome_marginal = counts
        .table()
        .marginalize(&[counts.table().axes()[0].name()])?;
    let base_rate = outcome_marginal.get(&[pos]) / total;

    let names: Vec<String> = counts
        .attribute_names()
        .into_iter()
        .map(str::to_string)
        .collect();
    let p = names.len();
    check_mask_width(p)?;
    let mut out = Vec::new();
    for mask in 1u32..(1 << p) {
        let attrs: Vec<&str> = (0..p)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| names[i].as_str())
            .collect();
        let sub = counts.marginal_to(&attrs)?;
        let go = sub.group_outcomes(0.0)?;
        for g in 0..go.num_groups() {
            let mass = go.weights()[g] / total;
            if exactly_zero(mass) {
                continue;
            }
            let rate_gap = go.prob(g, pos) - base_rate;
            out.push(SubgroupViolation {
                subgroup: go.group_labels()[g].clone(),
                mass,
                rate_gap,
                weighted: mass * rate_gap.abs(),
            });
        }
    }
    out.sort_by(|a, b| b.weighted.partial_cmp(&a.weighted).expect("finite"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_prob::contingency::{Axis, ContingencyTable};
    use df_prob::numerics::approx_eq;

    fn two_group_table(p_yes_a: f64, p_yes_b: f64) -> GroupOutcomes {
        GroupOutcomes::with_uniform_weights(
            vec!["no".into(), "yes".into()],
            vec!["a".into(), "b".into()],
            vec![1.0 - p_yes_a, p_yes_a, 1.0 - p_yes_b, p_yes_b],
        )
        .unwrap()
    }

    #[test]
    fn dp_distance_binary_case() {
        let t = two_group_table(0.6, 0.4);
        assert!(approx_eq(demographic_parity_distance(&t), 0.2, 1e-12, 0.0));
        let fair = two_group_table(0.5, 0.5);
        assert_eq!(demographic_parity_distance(&fair), 0.0);
    }

    #[test]
    fn dp_distance_vs_epsilon_divergence() {
        // Demographic parity distance can be tiny while ε is huge: rare
        // outcomes with large *ratio* disparities — the paper's motivation
        // for measuring ratios.
        let t = two_group_table(1e-6, 1e-2);
        let tv = demographic_parity_distance(&t);
        let eps = t.epsilon().epsilon;
        assert!(tv < 0.011);
        assert!(eps > 9.0, "ratio measure flags what TV misses: {eps}");
    }

    #[test]
    fn disparate_impact_80_rule() {
        let t = two_group_table(0.5, 0.39);
        let r = disparate_impact_ratio(&t, 1).unwrap();
        assert!(approx_eq(r, 0.78, 1e-12, 0.0));
        assert!(r < 0.8, "fails the 80% rule");
        assert!(disparate_impact_ratio(&t, 5).is_err());
    }

    #[test]
    fn disparate_impact_degenerate_cases() {
        let zero = two_group_table(0.0, 0.0);
        assert_eq!(disparate_impact_ratio(&zero, 1).unwrap(), 1.0);
        let one_sided = two_group_table(0.0, 0.3);
        assert_eq!(disparate_impact_ratio(&one_sided, 1).unwrap(), 0.0);
    }

    #[test]
    fn equalized_odds_gaps() {
        let groups = [
            GroupConfusion {
                tp: 80.0,
                fn_: 20.0,
                fp: 10.0,
                tn: 90.0,
            },
            GroupConfusion {
                tp: 60.0,
                fn_: 40.0,
                fp: 30.0,
                tn: 70.0,
            },
        ];
        let gap = equalized_odds_gap(&groups);
        assert!(approx_eq(gap.tpr_gap, 0.2, 1e-12, 0.0));
        assert!(approx_eq(gap.fpr_gap, 0.2, 1e-12, 0.0));
        assert!(approx_eq(gap.max_gap(), 0.2, 1e-12, 0.0));
    }

    #[test]
    fn equalized_odds_handles_undefined_rates() {
        let groups = [
            GroupConfusion {
                tp: 10.0,
                fn_: 0.0,
                fp: 0.0,
                tn: 0.0,
            }, // no negatives → FPR undefined
            GroupConfusion {
                tp: 5.0,
                fn_: 5.0,
                fp: 1.0,
                tn: 9.0,
            },
        ];
        let gap = equalized_odds_gap(&groups);
        assert!(approx_eq(gap.tpr_gap, 0.5, 1e-12, 0.0));
        assert_eq!(gap.fpr_gap, 0.0, "single defined FPR → no gap");
    }

    #[test]
    fn subgroup_audit_finds_gerrymandered_subgroup() {
        // Marginals are perfectly fair, but the intersection is maximally
        // gerrymandered: (a,x) and (b,y) always "yes"; (a,y), (b,x) never.
        let axes = vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g1", &["a", "b"]).unwrap(),
            Axis::from_strs("g2", &["x", "y"]).unwrap(),
        ];
        #[rustfmt::skip]
        let data = vec![
            // y=no : (a,x) (a,y) (b,x) (b,y)
            0.0, 50.0, 50.0, 0.0,
            // y=yes
            50.0, 0.0, 0.0, 50.0,
        ];
        let jc =
            JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap();
        let violations = subgroup_fairness_violation(&jc, "yes").unwrap();
        // Marginal subgroups (g1=a etc.) have zero gap...
        let marginal = violations.iter().find(|v| v.subgroup == "g1=a").unwrap();
        assert!(approx_eq(marginal.rate_gap, 0.0, 1e-12, 1e-12));
        // ...but the worst conjunction has |gap| = 0.5.
        assert!(approx_eq(violations[0].weighted, 0.25 * 0.5, 1e-12, 0.0));
        assert!(violations[0].subgroup.contains(", "));
        // And differential fairness flags it too (infinite ε).
        assert!(!jc.edf().unwrap().is_finite());
    }

    #[test]
    fn subgroup_audit_unknown_outcome() {
        let axes = vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ];
        let jc = JointCounts::from_table(
            ContingencyTable::from_data(axes, vec![1.0, 1.0, 1.0, 1.0]).unwrap(),
            "y",
        )
        .unwrap();
        assert!(subgroup_fairness_violation(&jc, "maybe").is_err());
    }
}
