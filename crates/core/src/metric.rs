//! The generic fairness-metric layer: every counts-functional
//! intersectional criterion on one set of machinery.
//!
//! The paper's ε-differential fairness is one point in a family of
//! metrics that are all functionals of the same group×outcome table:
//! given `P(y | s)` for every populated intersection `s`, each metric
//! summarizes the worst disparity in its own scale. Because everything
//! downstream of the tally — audits, sliding-window monitors, fleet
//! snapshots, change-point detectors, the HTTP service — only ever sees
//! counts, the whole family rides that machinery for free once the
//! statistic itself is abstracted.
//!
//! [`Metric`] is that abstraction. It composes with (rather than
//! replaces) [`EpsilonEstimator`]: the estimator decides how raw counts
//! become a probability table (MLE, Dirichlet smoothing, posterior
//! supremum), the metric decides what disparity functional to apply to
//! it. Five concrete metrics ship:
//!
//! | tag | definition | range |
//! |---|---|---|
//! | `eps-df` | `max_y max_{i,j} \|ln P(y\|sᵢ) − ln P(y\|sⱼ)\|` (Foulds & Pan, Definition 3.1) | `[0, ∞]` |
//! | `wc-ratio` | `max_y (1 − min_s P(y\|s) / max_s P(y\|s))` (Ghosh et al. 2021, arXiv:2101.01673) | `[0, 1]` |
//! | `wc-diff` | `max_y (max_s P(y\|s) − min_s P(y\|s))` (Ghosh et al. 2021) | `[0, 1]` |
//! | `alpha-if(alpha=A)` | `max_y [A·(1 − min_s P(y\|s)) + (1−A)·(1 − min_s P / max_s P)]` (Maheshwari et al. 2023, arXiv:2305.12495) | `[0, 1]` |
//! | `deo(label=L)` | worst per-true-label ε over the strata of axis `L` (differential equalized odds, §7.1) | `[0, ∞]` |
//!
//! Every metric is scored by one call, [`Metric::evaluate`], on one raw
//! table at a time; `deo(label=L)` names `L` through
//! [`Metric::conditioning`], and each label of `L` is one such table.
//!
//! Every metric returns an [`EpsilonResult`]: the statistic plus the
//! witnessing `(outcome, group_hi, group_lo)` triple, so reports,
//! snapshots, and the wire codec are shared unchanged. [`EpsilonDf`] is
//! the default everywhere and delegates to the estimator byte-for-byte,
//! so a configuration that never names a metric is indistinguishable
//! from the pre-metric code paths.
//!
//! Metric identity travels as the canonical [`Metric::tag`] string —
//! through snapshot schemas (and therefore the DFLT fingerprint),
//! server query strings, and rendered reports — and is resolved back
//! with [`metric_from_tag`]. An unknown tag is a typed
//! [`DfError::Invalid`], never a silent ε fallback: merging or decoding
//! a snapshot certified under a metric this build does not know must
//! fail loudly.
//!
//! Useful laws (pinned by `crates/core/tests/metric_properties.rs`):
//! all metrics are invariant under outcome/group relabeling; `wc-diff ≤
//! wc-ratio` pointwise; `eps-df`, `wc-ratio`, and `wc-diff` vanish on
//! product (independent) tables while `alpha-if` generally does not —
//! its welfare term `1 − min_s P(y|s)` also penalizes *leveling down*
//! (equalizing groups by making everyone worse off), the failure mode
//! [`LevelingDown`] diagnoses per group.

use crate::builder::EpsilonEstimator;
use crate::epsilon::{EpsilonResult, GroupOutcomes};
use crate::error::{DfError, Result};
use df_prob::contingency::Axis;
use serde::{Deserialize, Serialize};

/// A disparity functional over a group×outcome probability table.
///
/// Object-safe, like [`EpsilonEstimator`], so monitors and servers can
/// hold the configured metric behind a box; `Send + Sync` because a
/// fleet's shard monitors, and the server workers that push into them,
/// share it across threads. The estimator
/// argument keeps the two axes of configuration orthogonal: one metric
/// can be certified under any estimation strategy.
pub trait Metric: Send + Sync {
    /// Human-readable display name (e.g. `worst-case ratio`).
    fn name(&self) -> String;

    /// The canonical machine tag (e.g. `wc-ratio`), used in snapshot
    /// schemas, query strings, and [`metric_from_tag`]. Must round-trip:
    /// `metric_from_tag(m.tag())` yields an equivalent metric.
    fn tag(&self) -> String;

    /// Evaluates the metric on a *raw* table (MLE probabilities with
    /// group-total weights), applying the estimator first: the one
    /// per-table call of every evaluation, and the monitor's hot path.
    fn evaluate(
        &self,
        raw: &GroupOutcomes,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<EpsilonResult>;

    /// The protected axis this metric conditions on and the metric that
    /// scores each stratum (each label of the axis), or `None` (the
    /// default) for a metric of the whole table. A conditioned metric is
    /// worth its worst stratum (the first maximum in label order); audits,
    /// monitors and snapshots read every table for it split by the axis.
    fn conditioning(&self) -> Option<(&str, &dyn Metric)> {
        None
    }

    /// Clones the metric behind the trait object (fleet shards must all
    /// certify with the *same* metric, or merged snapshots would compare
    /// incomparable numbers).
    fn clone_box(&self) -> Box<dyn Metric>;
}

impl Clone for Box<dyn Metric> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Resolves a canonical metric tag back to the metric it names.
///
/// Accepted: `eps-df`, `wc-ratio`, `wc-diff`, `alpha-if` (α = 0.5),
/// `alpha-if(alpha=A)`, and `deo(label=L)`. Anything else is a typed
/// [`DfError::Invalid`] — decoding a snapshot or serving a query string
/// with an unknown metric must fail loudly, never silently fall back to
/// ε-DF.
pub fn metric_from_tag(tag: &str) -> Result<Box<dyn Metric>> {
    match tag {
        "eps-df" => return Ok(Box::new(EpsilonDf)),
        "wc-ratio" => return Ok(Box::new(WorstCaseRatio)),
        "wc-diff" => return Ok(Box::new(WorstCaseDiff)),
        "alpha-if" => return Ok(Box::new(AlphaIntersectional::new(0.5)?)),
        _ => {}
    }
    if let Some(alpha) = tag
        .strip_prefix("alpha-if(alpha=")
        .and_then(|r| r.strip_suffix(')'))
    {
        let alpha: f64 = alpha
            .parse()
            .map_err(|_| DfError::Invalid(format!("metric `{tag}`: `{alpha}` is not a number")))?;
        return Ok(Box::new(AlphaIntersectional::new(alpha)?));
    }
    if let Some(label) = tag
        .strip_prefix("deo(label=")
        .and_then(|r| r.strip_suffix(')'))
    {
        if label.is_empty() {
            return Err(DfError::Invalid(
                "metric `deo` needs a true-label axis name: deo(label=L)".into(),
            ));
        }
        return Ok(Box::new(DifferentialEqualizedOdds::new(label)));
    }
    Err(DfError::Invalid(format!(
        "unknown metric `{tag}`; known metrics: eps-df, wc-ratio, wc-diff, \
         alpha-if(alpha=A), deo(label=L)"
    )))
}

/// `1 − min/max`, with the all-zero outcome column treated as fair (the
/// same convention as `log_ratio(0, 0) == 0` in the ε kernel).
fn ratio_shortfall(max_p: f64, min_p: f64) -> f64 {
    if max_p > 0.0 {
        1.0 - min_p / max_p
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------------
// Concrete metrics.
// ---------------------------------------------------------------------------

/// ε-differential fairness (the paper's Definition 3.1) — the default
/// metric, delegating to the estimator byte-for-byte, so configurations
/// that never name a metric behave exactly as before the metric layer
/// existed.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpsilonDf;

impl Metric for EpsilonDf {
    fn name(&self) -> String {
        "eps-DF".to_string()
    }

    fn tag(&self) -> String {
        "eps-df".to_string()
    }

    fn evaluate(
        &self,
        raw: &GroupOutcomes,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<EpsilonResult> {
        estimator.estimate(raw)
    }

    fn clone_box(&self) -> Box<dyn Metric> {
        Box::new(*self)
    }
}

/// Worst-case min/max *ratio* disparity (Ghosh et al. 2021):
/// `max_y (1 − min_s P(y|s) / max_s P(y|s))`, in `[0, 1]`. Zero iff
/// every populated group receives every outcome at the same rate; 1 when
/// some group is entirely shut out of an outcome another group receives
/// (the bounded analogue of ε = ∞).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorstCaseRatio;

impl Metric for WorstCaseRatio {
    fn name(&self) -> String {
        "worst-case ratio".to_string()
    }

    fn tag(&self) -> String {
        "wc-ratio".to_string()
    }

    fn evaluate(
        &self,
        raw: &GroupOutcomes,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<EpsilonResult> {
        Ok(estimator
            .estimate_table(raw)?
            .worst_outcome(ratio_shortfall))
    }

    fn clone_box(&self) -> Box<dyn Metric> {
        Box::new(*self)
    }
}

/// Worst-case min/max *difference* disparity (Ghosh et al. 2021):
/// `max_y (max_s P(y|s) − min_s P(y|s))`, in `[0, 1]`. Always at most
/// [`WorstCaseRatio`] on the same table (`max − min ≤ max(1 − min/max)`
/// since `max ≤ 1`).
#[derive(Debug, Clone, Copy, Default)]
pub struct WorstCaseDiff;

impl Metric for WorstCaseDiff {
    fn name(&self) -> String {
        "worst-case difference".to_string()
    }

    fn tag(&self) -> String {
        "wc-diff".to_string()
    }

    fn evaluate(
        &self,
        raw: &GroupOutcomes,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<EpsilonResult> {
        Ok(estimator
            .estimate_table(raw)?
            .worst_outcome(|max_p, min_p| max_p - min_p))
    }

    fn clone_box(&self) -> Box<dyn Metric> {
        Box::new(*self)
    }
}

/// α-intersectional fairness (Maheshwari et al. 2023): per outcome,
/// `α · (1 − min_s P(y|s)) + (1 − α) · (1 − min_s P / max_s P)`,
/// maximized over outcomes.
///
/// The first term is a *welfare floor* — how badly off the worst group
/// is in absolute terms — and the second is the relative disparity of
/// [`WorstCaseRatio`]. At α = 0 this *is* `wc-ratio`; at α = 1 it is
/// purely welfarist. The welfare term is what makes the metric reject
/// *leveling down*: equalizing groups by shutting everyone out of a good
/// outcome lowers the relative disparity but raises `1 − min_s P`, so a
/// "fair" product table generally does not score zero. Use
/// [`AlphaIntersectional::leveling_down`] to see the per-group floors
/// behind the score.
#[derive(Debug, Clone, Copy)]
pub struct AlphaIntersectional {
    alpha: f64,
}

impl AlphaIntersectional {
    /// Builds the metric, validating `0 ≤ alpha ≤ 1`.
    pub fn new(alpha: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&alpha) || !alpha.is_finite() {
            return Err(DfError::Invalid(format!(
                "alpha-if interpolation weight must lie in [0, 1], got {alpha}"
            )));
        }
        Ok(Self { alpha })
    }

    /// The interpolation weight between the welfare and ratio terms.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The per-group welfare floors behind the score: estimator-applied
    /// `min_y P(y|s)` for every populated group. Comparing the
    /// diagnostics of two audits with [`LevelingDown::regressions`]
    /// flags groups made worse off even as the headline improved.
    pub fn leveling_down(
        &self,
        raw: &GroupOutcomes,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<LevelingDown> {
        Ok(LevelingDown::of(&estimator.estimate_table(raw)?))
    }
}

impl Metric for AlphaIntersectional {
    fn name(&self) -> String {
        format!("alpha-IF(alpha={})", self.alpha)
    }

    fn tag(&self) -> String {
        format!("alpha-if(alpha={})", self.alpha)
    }

    fn evaluate(
        &self,
        raw: &GroupOutcomes,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<EpsilonResult> {
        Ok(estimator
            .estimate_table(raw)?
            .worst_outcome(|max_p, min_p| {
                self.alpha * (1.0 - min_p) + (1.0 - self.alpha) * ratio_shortfall(max_p, min_p)
            }))
    }

    fn clone_box(&self) -> Box<dyn Metric> {
        Box::new(*self)
    }
}

/// Per-group welfare floors `min_y P(y|s)` over populated groups — the
/// leveling-down diagnostic of Maheshwari et al. 2023.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelingDown {
    /// `(group label, floor)` for every populated group, in table order.
    pub floors: Vec<(String, f64)>,
}

impl LevelingDown {
    /// Reads the floors off an (estimator-applied) probability table.
    pub fn of(table: &GroupOutcomes) -> LevelingDown {
        let floors = table
            .populated_groups()
            .into_iter()
            .map(|g| {
                let floor = (0..table.num_outcomes())
                    .map(|y| table.prob(g, y))
                    .fold(f64::INFINITY, f64::min);
                (table.group_labels()[g].clone(), floor)
            })
            .collect();
        LevelingDown { floors }
    }

    /// Groups whose floor *fell* between `self` (before) and `later`
    /// (after) — the groups a seemingly improving headline leveled down.
    /// Groups absent from either side are skipped.
    pub fn regressions(&self, later: &LevelingDown) -> Vec<String> {
        later
            .floors
            .iter()
            .filter_map(|(group, after)| {
                self.floors
                    .iter()
                    .find(|(g, _)| g == group)
                    .filter(|(_, before)| *after < *before - 1e-12)
                    .map(|_| group.clone())
            })
            .collect()
    }
}

/// Differential equalized odds: ε computed *within* each stratum of a
/// designated true-label axis, reporting the worst stratum (the §7.1
/// error-rate extension, generalized to run on any joint-counts source
/// that carries the true label as an axis).
///
/// Its [`Metric::conditioning`] names the label axis and [`EpsilonDf`]
/// for the strata. A flat group×outcome table cannot be conditioned, so
/// [`Metric::evaluate`] is a typed error. The schema must carry the label
/// axis and at least one protected axis besides it.
#[derive(Debug, Clone)]
pub struct DifferentialEqualizedOdds {
    label_axis: String,
}

impl DifferentialEqualizedOdds {
    /// Builds the metric for the given true-label axis name.
    pub fn new(label_axis: impl Into<String>) -> Self {
        Self {
            label_axis: label_axis.into(),
        }
    }

    /// The true-label axis this metric conditions on.
    pub fn label_axis(&self) -> &str {
        &self.label_axis
    }
}

impl Metric for DifferentialEqualizedOdds {
    fn name(&self) -> String {
        format!("DEO(label={})", self.label_axis)
    }

    fn tag(&self) -> String {
        format!("deo(label={})", self.label_axis)
    }

    fn evaluate(
        &self,
        _raw: &GroupOutcomes,
        _estimator: &dyn EpsilonEstimator,
    ) -> Result<EpsilonResult> {
        Err(DfError::Invalid(format!(
            "deo(label={}) needs a joint-counts source carrying the \
             true-label axis; a flat group-outcome table cannot be \
             conditioned",
            self.label_axis
        )))
    }

    fn conditioning(&self) -> Option<(&str, &dyn Metric)> {
        Some((&self.label_axis, &EpsilonDf))
    }

    fn clone_box(&self) -> Box<dyn Metric> {
        Box::new(self.clone())
    }
}

/// The position among `attributes` (a schema's protected axes) of the
/// axis `metric` conditions on, if any: a typed error unless the axis is
/// there with at least one more to compare groups across.
pub(crate) fn stratum_axis(metric: &dyn Metric, attributes: &[Axis]) -> Result<Option<usize>> {
    let Some((label, _)) = metric.conditioning() else {
        return Ok(None);
    };
    let Some(position) = attributes.iter().position(|a| a.name() == label) else {
        let needs = format!("deo needs a `{label}` true-label axis among the protected attributes");
        return Err(DfError::Invalid(needs));
    };
    if attributes.len() < 2 {
        return Err(DfError::Invalid(format!(
            "{} needs at least one protected axis besides the true-label axis",
            metric.tag()
        )));
    }
    Ok(Some(position))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Audit, Empirical, Smoothed, SubsetPolicy};
    use crate::edf::JointCounts;
    use df_prob::contingency::ContingencyTable;
    use df_prob::numerics::approx_eq;

    fn labels(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    /// The paper's Figure 2 table: P(no|g1)=0.6915, P(no|g2)=0.0668.
    fn figure2() -> GroupOutcomes {
        GroupOutcomes::with_uniform_weights(
            labels(&["no", "yes"]),
            labels(&["group1", "group2"]),
            vec![0.6915, 0.3085, 0.0668, 0.9332],
        )
        .unwrap()
    }

    fn table1() -> JointCounts {
        let axes = vec![
            Axis::from_strs("outcome", &["admit", "decline"]).unwrap(),
            Axis::from_strs("gender", &["A", "B"]).unwrap(),
            Axis::from_strs("race", &["1", "2"]).unwrap(),
        ];
        let data = vec![81.0, 192.0, 234.0, 55.0, 6.0, 71.0, 36.0, 25.0];
        JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "outcome")
            .unwrap()
    }

    #[test]
    fn eps_df_delegates_to_the_estimator_exactly() {
        let raw = table1().group_outcomes(0.0).unwrap();
        for est in [
            Box::new(Empirical) as Box<dyn EpsilonEstimator>,
            Box::new(Smoothed { alpha: 1.0 }),
        ] {
            let via_metric = EpsilonDf.evaluate(&raw, &*est).unwrap();
            let direct = est.estimate(&raw).unwrap();
            assert_eq!(via_metric, direct);
        }
    }

    #[test]
    fn worst_case_ratio_matches_hand_computation() {
        // Worst outcome is "no": 1 − 0.0668/0.6915 = 0.90340.
        let r = WorstCaseRatio.evaluate(&figure2(), &Empirical).unwrap();
        assert!(approx_eq(r.epsilon, 1.0 - 0.0668 / 0.6915, 1e-12, 0.0));
        let w = r.witness.unwrap();
        assert_eq!(w.outcome, "no");
        assert_eq!(w.group_hi, "group1");
        assert_eq!(w.group_lo, "group2");
    }

    #[test]
    fn worst_case_diff_matches_hand_computation() {
        // Both outcomes have the same absolute gap |0.6915 − 0.0668|.
        let r = WorstCaseDiff.evaluate(&figure2(), &Empirical).unwrap();
        assert!(approx_eq(r.epsilon, 0.6915 - 0.0668, 1e-12, 0.0));
    }

    #[test]
    fn diff_never_exceeds_ratio() {
        for table in [figure2(), table1().group_outcomes(0.0).unwrap()] {
            let ratio = WorstCaseRatio.evaluate(&table, &Empirical).unwrap();
            let diff = WorstCaseDiff.evaluate(&table, &Empirical).unwrap();
            assert!(diff.epsilon <= ratio.epsilon + 1e-12);
        }
    }

    #[test]
    fn shut_out_group_is_ratio_one_not_infinity() {
        let t = GroupOutcomes::with_uniform_weights(
            labels(&["no", "yes"]),
            labels(&["a", "b"]),
            vec![1.0, 0.0, 0.5, 0.5],
        )
        .unwrap();
        assert!(t.epsilon().epsilon.is_infinite());
        let r = WorstCaseRatio.evaluate(&t, &Empirical).unwrap();
        assert_eq!(r.epsilon, 1.0);
    }

    #[test]
    fn fewer_than_two_populated_groups_is_vacuous_for_every_metric() {
        let t = GroupOutcomes::new(
            labels(&["no", "yes"]),
            labels(&["a", "b"]),
            vec![0.5, 0.5, 0.9, 0.1],
            vec![1.0, 0.0],
        )
        .unwrap();
        for metric in ["eps-df", "wc-ratio", "wc-diff", "alpha-if(alpha=0.5)"] {
            let m = metric_from_tag(metric).unwrap();
            let r = m.evaluate(&t, &Empirical).unwrap();
            assert_eq!(r.epsilon, 0.0, "{metric}");
            assert!(r.witness.is_none(), "{metric}");
        }
    }

    #[test]
    fn alpha_zero_is_exactly_worst_case_ratio() {
        let raw = table1().group_outcomes(0.0).unwrap();
        let a0 = AlphaIntersectional::new(0.0).unwrap();
        assert_eq!(
            a0.evaluate(&raw, &Empirical).unwrap(),
            WorstCaseRatio.evaluate(&raw, &Empirical).unwrap()
        );
    }

    #[test]
    fn alpha_if_penalizes_leveling_down() {
        // Fair but bad-for-all: everyone gets "good" at 5%. Relative
        // disparity is zero, yet the welfare term keeps the score high.
        let leveled = GroupOutcomes::with_uniform_weights(
            labels(&["bad", "good"]),
            labels(&["a", "b"]),
            vec![0.95, 0.05, 0.95, 0.05],
        )
        .unwrap();
        let half = AlphaIntersectional::new(0.5).unwrap();
        let ratio = WorstCaseRatio.evaluate(&leveled, &Empirical).unwrap();
        assert_eq!(ratio.epsilon, 0.0);
        let a = half.evaluate(&leveled, &Empirical).unwrap();
        assert!(approx_eq(a.epsilon, 0.5 * (1.0 - 0.05), 1e-12, 0.0));
        assert!(AlphaIntersectional::new(1.5).is_err());
        assert!(AlphaIntersectional::new(f64::NAN).is_err());
    }

    #[test]
    fn leveling_down_diagnostics_flag_falling_floors() {
        let before = GroupOutcomes::with_uniform_weights(
            labels(&["bad", "good"]),
            labels(&["a", "b"]),
            vec![0.6, 0.4, 0.2, 0.8],
        )
        .unwrap();
        // "b" is pulled down to meet "a": relative disparity improves,
        // b's floor falls from 0.2 to 0.1.
        let after = GroupOutcomes::with_uniform_weights(
            labels(&["bad", "good"]),
            labels(&["a", "b"]),
            vec![0.6, 0.4, 0.9, 0.1],
        )
        .unwrap();
        let half = AlphaIntersectional::new(0.5).unwrap();
        let d0 = half.leveling_down(&before, &Empirical).unwrap();
        let d1 = half.leveling_down(&after, &Empirical).unwrap();
        assert_eq!(d0.regressions(&d1), vec!["b".to_string()]);
        assert!(d0.regressions(&d0).is_empty());
    }

    #[test]
    fn deo_takes_the_worst_stratum() {
        // Axes: outcome × g × label. Stratum label=t0 is fair; label=t1
        // is skewed — DEO must report t1's ε.
        let axes = vec![
            Axis::from_strs("outcome", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
            Axis::from_strs("label", &["t0", "t1"]).unwrap(),
        ];
        let data = vec![
            10.0, 10.0, // no, a, t0/t1
            10.0, 30.0, // no, b
            10.0, 30.0, // yes, a
            10.0, 10.0, // yes, b
        ];
        let counts =
            JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "outcome")
                .unwrap();
        let deo = DifferentialEqualizedOdds::new("label");
        let (axis, within) = deo.conditioning().unwrap();
        assert_eq!((axis, within.tag().as_str()), ("label", "eps-df"));
        let audit = |metric: DifferentialEqualizedOdds| {
            Audit::of(&counts)
                .estimator(Empirical)
                .metric(metric)
                .subsets(SubsetPolicy::None)
                .run()
                .map(|report| report.epsilon)
        };
        let worst = audit(deo.clone()).unwrap();
        // Stratum t1: P(no|a)=0.25 vs P(no|b)=0.75 → ε = ln 3.
        assert!(approx_eq(worst.epsilon, 3.0_f64.ln(), 1e-12, 0.0));
        // The flat-table entry point is a typed error, not a fallback.
        let raw = counts.group_outcomes(0.0).unwrap();
        assert!(matches!(
            deo.evaluate(&raw, &Empirical),
            Err(DfError::Invalid(_))
        ));
        // An unknown label axis is a typed error too.
        assert!(audit(DifferentialEqualizedOdds::new("nope")).is_err());
    }

    #[test]
    fn deo_marginal_retains_the_label_axis() {
        let axes = vec![
            Axis::from_strs("outcome", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
            Axis::from_strs("r", &["u", "v"]).unwrap(),
            Axis::from_strs("label", &["t0", "t1"]).unwrap(),
        ];
        let mut t = ContingencyTable::zeros(axes).unwrap();
        for (i, cell) in [
            [0, 0, 0, 0],
            [1, 0, 1, 1],
            [0, 1, 0, 1],
            [1, 1, 1, 0],
            [1, 0, 0, 1],
            [0, 1, 1, 0],
        ]
        .iter()
        .enumerate()
        {
            t.add(cell, 2.0 + i as f64);
        }
        let counts = JointCounts::from_table(t, "outcome").unwrap();
        let audit = |counts: &JointCounts, policy| {
            Audit::of(counts)
                .estimator(Empirical)
                .metric(DifferentialEqualizedOdds::new("label"))
                .subsets(policy)
                .run()
                .unwrap()
        };
        let lattice = audit(&counts, SubsetPolicy::All);
        // Marginal to ["g"] must quietly keep "label" for conditioning…
        let via_marginal = &lattice.estimators[0].get(&["g"]).unwrap().result;
        let explicit = audit(
            &counts.marginal_to(&["g", "label"]).unwrap(),
            SubsetPolicy::None,
        );
        assert_eq!(*via_marginal, explicit.epsilon);
        // …and the label-only subset is vacuous, not an error.
        let only_label = &lattice.estimators[0].get(&["label"]).unwrap().result;
        assert_eq!(only_label.epsilon, 0.0);
        assert!(only_label.witness.is_none());
    }

    #[test]
    fn tags_round_trip_through_the_registry() {
        let metrics: Vec<Box<dyn Metric>> = vec![
            Box::new(EpsilonDf),
            Box::new(WorstCaseRatio),
            Box::new(WorstCaseDiff),
            Box::new(AlphaIntersectional::new(0.25).unwrap()),
            Box::new(DifferentialEqualizedOdds::new("label")),
        ];
        for m in metrics {
            let back = metric_from_tag(&m.tag()).unwrap();
            assert_eq!(back.tag(), m.tag());
            assert_eq!(back.name(), m.name());
            let axis = |m: &dyn Metric| m.conditioning().map(|(axis, _)| axis.to_string());
            assert_eq!(axis(&*back), axis(&*m));
            // Clone through the box keeps the tag.
            assert_eq!(m.clone_box().tag(), m.tag());
        }
        // The parameterless alpha-if spelling defaults to 0.5.
        assert_eq!(
            metric_from_tag("alpha-if").unwrap().tag(),
            "alpha-if(alpha=0.5)"
        );
    }

    #[test]
    fn unknown_tags_are_typed_errors_never_eps_fallback() {
        for tag in [
            "martian",
            "",
            "eps",
            "alpha-if(alpha=two)",
            "alpha-if(alpha=7)",
            "deo(label=)",
            "deo(label",
        ] {
            match metric_from_tag(tag) {
                Err(DfError::Invalid(_)) => {}
                Err(err) => panic!("{tag}: wrong error kind: {err}"),
                Ok(m) => panic!("{tag}: resolved to `{}`", m.tag()),
            }
        }
    }

    #[test]
    fn metrics_evaluate_identically_through_counts_and_raw_paths() {
        let counts = table1();
        let raw = counts.group_outcomes(0.0).unwrap();
        for tag in ["eps-df", "wc-ratio", "wc-diff", "alpha-if(alpha=0.5)"] {
            let m = metric_from_tag(tag).unwrap();
            assert!(m.conditioning().is_none(), "{tag}");
            let via_counts = Audit::of(&counts)
                .estimator(Smoothed { alpha: 1.0 })
                .boxed_metric(m.clone_box())
                .subsets(SubsetPolicy::None)
                .run()
                .unwrap();
            assert_eq!(
                m.evaluate(&raw, &Smoothed { alpha: 1.0 }).unwrap(),
                via_counts.epsilon,
                "{tag}"
            );
        }
    }
}
