//! The ε kernel: differential fairness of a group×outcome probability table.
//!
//! Given `P(M(x) = y | s)` for every intersection `s` with positive
//! probability, the tightest ε for which Definition 3.1 holds is
//!
//! ```text
//! ε* = max_y  max_{sᵢ, sⱼ : P(sᵢ), P(sⱼ) > 0}  | ln P(y|sᵢ) − ln P(y|sⱼ) |
//! ```
//!
//! which is computed here in O(|groups| · |outcomes|) by tracking, per
//! outcome, the extreme log-probabilities rather than scanning all pairs.
//!
//! The scan is numeric: a [`GroupOutcomes`] holds probabilities and weights
//! by group index and shares its names, behind an `Arc`, with every table
//! read through the same layout or derived from it (smoothed tables,
//! posterior draws, clones). The scan tracks the witness by index and
//! formats the names of the one pair it reports.
//!
//! A table is valid by construction: every populated row is a probability
//! vector and every weight is finite and non-negative. [`GroupOutcomes::new`]
//! is the one constructor that checks this, for a caller's own table. The
//! kernel builds every other table from counts checked at their door, or
//! derives it from a valid table (a smoothed table, a posterior draw) under
//! a checked prior, and checks none of them again; the doors are listed
//! once, in [`crate::edf`].

use crate::error::{DfError, Result};
use df_prob::contingency::{intersection_label, intersection_labels, valid_cell, Axis};
use df_prob::numerics::{exactly_zero, log_ratio, stable_sum};
use serde::{Deserialize, JsonWriter, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Where the maximal log-ratio was attained: the witness pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpsilonWitness {
    /// Outcome label achieving the maximum.
    pub outcome: String,
    /// Group with the higher probability of that outcome.
    pub group_hi: String,
    /// Group with the lower probability of that outcome.
    pub group_lo: String,
    /// Probability of the outcome in `group_hi`.
    pub prob_hi: f64,
    /// Probability of the outcome in `group_lo`.
    pub prob_lo: f64,
}

/// Result of an ε computation.
///
/// `epsilon` is `0.0` for perfectly equal outcome distributions, finite and
/// positive in general, and `f64::INFINITY` when some group has zero
/// probability of an outcome another group can receive (the ratio in
/// Definition 3.1 is then unbounded).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpsilonResult {
    /// The tightest ε satisfying Definition 3.1.
    pub epsilon: f64,
    /// The pair/outcome attaining it (absent when fewer than two groups are
    /// populated, in which case the definition holds vacuously with ε = 0).
    pub witness: Option<EpsilonWitness>,
}

impl EpsilonResult {
    /// True when ε is finite (no unbounded ratio).
    pub fn is_finite(&self) -> bool {
        self.epsilon.is_finite()
    }

    /// True when the mechanism is `target`-differentially fair,
    /// i.e. ε ≤ target.
    pub fn satisfies(&self, target: f64) -> bool {
        self.epsilon <= target
    }

    /// The multiplicative outcome-probability disparity `e^ε` — also the
    /// expected-utility disparity bound of Eq. 5.
    pub fn probability_ratio_bound(&self) -> f64 {
        self.epsilon.exp()
    }
}

/// The names behind a table's indices: the outcome labels and the
/// intersections its groups stand for. Every table evaluated through one
/// [`crate::edf::GroupLayout`], and every table an estimator derives from
/// it, shares one of these behind an `Arc`, so evaluating copies no
/// strings. A group's name is formatted from its index on demand (one per
/// reported witness); [`GroupOutcomes::group_labels`] formats them all
/// once and keeps them.
#[derive(Debug)]
pub(crate) struct GroupNames {
    schema: Arc<Schema>,
    /// Positions in `schema.attributes` of the axes the groups intersect,
    /// in group order (mixed radix, last axis fastest); empty when the
    /// labels were given explicitly.
    axes: Vec<usize>,
    n_groups: usize,
    labels: OnceLock<Vec<String>>,
}

/// The vocabularies every lattice table of one layout names its indices
/// from.
#[derive(Debug)]
pub(crate) struct Schema {
    pub(crate) outcomes: Vec<String>,
    /// The protected-attribute axes, in group order.
    pub(crate) attributes: Vec<Axis>,
}

impl GroupNames {
    /// Names for the intersections of `axes` (positions into
    /// `schema.attributes`, in group order).
    pub(crate) fn of_axes(schema: Arc<Schema>, axes: Vec<usize>) -> Self {
        let n_groups = axes.iter().map(|&a| schema.attributes[a].len()).product();
        Self {
            schema,
            axes,
            n_groups,
            labels: OnceLock::new(),
        }
    }

    pub(crate) fn explicit(outcomes: Vec<String>, groups: Vec<String>) -> Self {
        Self {
            schema: Arc::new(Schema {
                outcomes,
                attributes: Vec::new(),
            }),
            axes: Vec::new(),
            n_groups: groups.len(),
            labels: OnceLock::from(groups),
        }
    }

    /// Number of groups.
    pub(crate) fn n_groups(&self) -> usize {
        self.n_groups
    }

    /// Number of outcomes.
    pub(crate) fn n_outcomes(&self) -> usize {
        self.schema.outcomes.len()
    }

    fn parts(&self) -> impl Iterator<Item = (&str, &[String])> + Clone {
        self.axes.iter().map(|&a| {
            let axis = &self.schema.attributes[a];
            (axis.name(), axis.labels())
        })
    }

    /// The name of group `g`.
    fn group(&self, g: usize) -> String {
        match self.labels.get() {
            Some(all) => all[g].clone(),
            None => intersection_label(self.parts(), g),
        }
    }

    fn all(&self) -> &[String] {
        self.labels.get_or_init(|| {
            let named: Vec<(&str, &[String])> = self.parts().collect();
            intersection_labels(&named)
        })
    }
}

/// Group-conditional outcome probabilities `P(y | s)` with group weights
/// `P(s)`.
///
/// Rows are groups, columns are outcomes; rows with zero weight are excluded
/// from ε per the `P(s|θ) > 0` side condition of Definition 3.1.
#[derive(Clone)]
pub struct GroupOutcomes {
    names: Arc<GroupNames>,
    /// Row-major `groups × outcomes` probabilities.
    probs: Vec<f64>,
    /// Group marginal probabilities (or counts — only positivity matters for
    /// ε; magnitudes are used by the privacy and baseline modules).
    weights: Vec<f64>,
}

/// The worst outcome of a table by index: the statistic, and the witness
/// `(outcome, group_hi, group_lo, prob_hi, prob_lo)` that
/// [`GroupOutcomes::named`] turns into an [`EpsilonResult`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Worst {
    pub(crate) epsilon: f64,
    witness: Option<(usize, usize, usize, f64, f64)>,
}

impl GroupOutcomes {
    /// Builds the table, validating shapes, that probabilities and weights
    /// are finite and non-negative, and that each populated group's
    /// outcome distribution is a probability vector (within 1e-6).
    pub fn new(
        outcome_labels: Vec<String>,
        group_labels: Vec<String>,
        probs: Vec<f64>,
        weights: Vec<f64>,
    ) -> Result<Self> {
        let names = GroupNames::explicit(outcome_labels, group_labels);
        let (n_groups, n_outcomes) = (names.n_groups(), names.n_outcomes());
        if n_outcomes < 2 {
            return Err(DfError::NotEnoughCategories {
                what: "outcomes",
                needed: 2,
                present: n_outcomes,
            });
        }
        if n_groups == 0 {
            return Err(DfError::NotEnoughCategories {
                what: "groups",
                needed: 1,
                present: 0,
            });
        }
        if probs.len() != n_groups * n_outcomes {
            return Err(DfError::Invalid(format!(
                "probability matrix has {} entries, expected {}",
                probs.len(),
                n_groups * n_outcomes
            )));
        }
        if weights.len() != n_groups {
            return Err(DfError::Invalid(format!(
                "weights has {} entries, expected {}",
                weights.len(),
                n_groups
            )));
        }
        if !probs.iter().all(|&p| valid_cell(p)) {
            return Err(DfError::Invalid(
                "probabilities must be finite and non-negative".into(),
            ));
        }
        if !weights.iter().all(|&w| valid_cell(w)) {
            return Err(DfError::Invalid(
                "group weights must be finite and non-negative".into(),
            ));
        }
        for g in 0..n_groups {
            if weights[g] > 0.0 {
                let row_sum: f64 = probs[g * n_outcomes..(g + 1) * n_outcomes].iter().sum();
                if (row_sum - 1.0).abs() > 1e-6 {
                    return Err(DfError::Invalid(format!(
                        "group `{}` outcome probabilities sum to {row_sum}, not 1",
                        names.group(g)
                    )));
                }
            }
        }
        Ok(Self::trusted(Arc::new(names), probs, weights))
    }

    /// A table the kernel built, or derived from a valid one: shapes match
    /// `names`, and every populated row is a probability vector, by
    /// construction.
    pub(crate) fn trusted(names: Arc<GroupNames>, probs: Vec<f64>, weights: Vec<f64>) -> Self {
        debug_assert_eq!(probs.len(), names.n_groups() * names.n_outcomes());
        debug_assert_eq!(weights.len(), names.n_groups());
        Self {
            names,
            probs,
            weights,
        }
    }

    /// Builds a table where every group is populated with equal weight —
    /// the common case for worked examples where `P(s)` is unspecified.
    pub fn with_uniform_weights(
        outcome_labels: Vec<String>,
        group_labels: Vec<String>,
        probs: Vec<f64>,
    ) -> Result<Self> {
        let n = group_labels.len();
        Self::new(outcome_labels, group_labels, probs, vec![1.0; n])
    }

    /// Outcome labels.
    pub fn outcome_labels(&self) -> &[String] {
        &self.names.schema.outcomes
    }

    /// Group labels.
    pub fn group_labels(&self) -> &[String] {
        self.names.all()
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.names.n_groups()
    }

    /// Number of outcomes.
    pub fn num_outcomes(&self) -> usize {
        self.names.n_outcomes()
    }

    /// `P(y = outcome | s = group)`.
    #[inline]
    pub fn prob(&self, group: usize, outcome: usize) -> f64 {
        self.probs[group * self.num_outcomes() + outcome]
    }

    /// Group weights `P(s)` (unnormalized).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Indices of groups with positive weight.
    pub fn populated_groups(&self) -> Vec<usize> {
        (0..self.num_groups())
            .filter(|&g| self.weights[g] > 0.0)
            .collect()
    }

    /// The tightest ε of Definition 3.1 for this table.
    ///
    /// Per outcome, only the extreme probabilities among populated groups
    /// matter, so the scan is linear. Zero-probability handling follows the
    /// paper: if two populated groups both assign zero to an outcome the
    /// pair is vacuously bounded; if exactly one does, ε = ∞.
    pub fn epsilon(&self) -> EpsilonResult {
        // `log_ratio(0, 0) == 0` covers the all-zero outcome column.
        self.worst_outcome(log_ratio)
    }

    /// The worst outcome under a per-outcome statistic `stat(max_p,
    /// min_p)` of the extreme probabilities among populated groups — the
    /// one scan behind ε and every metric of the [`crate::metric`] family.
    /// The first outcome reaching the maximum wins, and a witness is
    /// attached whenever two groups are populated (even at statistic 0);
    /// with fewer, every statistic is vacuously 0.
    pub(crate) fn worst_outcome(&self, stat: impl Fn(f64, f64) -> f64) -> EpsilonResult {
        self.named(self.worst(stat))
    }

    /// [`GroupOutcomes::worst_outcome`] by index, naming nothing.
    pub(crate) fn worst(&self, stat: impl Fn(f64, f64) -> f64) -> Worst {
        let mut best = Worst {
            epsilon: 0.0,
            witness: None,
        };
        let populated = || (0..self.num_groups()).filter(|&g| self.weights[g] > 0.0);
        let mut first_two = populated();
        let (Some(first), Some(_)) = (first_two.next(), first_two.next()) else {
            return best;
        };
        for y in 0..self.num_outcomes() {
            let mut max_p = f64::NEG_INFINITY;
            let mut min_p = f64::INFINITY;
            let (mut g_hi, mut g_lo) = (first, first);
            for g in populated() {
                let p = self.prob(g, y);
                if p > max_p {
                    max_p = p;
                    g_hi = g;
                }
                if p < min_p {
                    min_p = p;
                    g_lo = g;
                }
            }
            let gap = stat(max_p, min_p);
            if gap > best.epsilon || best.witness.is_none() && gap >= best.epsilon {
                best = Worst {
                    epsilon: gap,
                    witness: Some((y, g_hi, g_lo, max_p, min_p)),
                };
            }
        }
        best
    }

    /// Names a [`Worst`] of this table: the outcome label and the two
    /// witness groups' names, the only strings an evaluation produces.
    pub(crate) fn named(&self, worst: Worst) -> EpsilonResult {
        EpsilonResult {
            epsilon: worst.epsilon,
            witness: worst
                .witness
                .map(|(y, g_hi, g_lo, prob_hi, prob_lo)| EpsilonWitness {
                    outcome: self.outcome_labels()[y].clone(),
                    group_hi: self.names.group(g_hi),
                    group_lo: self.names.group(g_lo),
                    prob_hi,
                    prob_lo,
                }),
        }
    }

    /// All pairwise log-ratios for one outcome — the quantities tabulated in
    /// the paper's Figure 2 ("Log Ratios of Probabilities"). Entry `(i, j)`
    /// is `ln(P(y|gᵢ) / P(y|gⱼ))` over populated groups only.
    pub fn log_ratio_table(&self, outcome: usize) -> Result<Vec<(usize, usize, f64)>> {
        if outcome >= self.num_outcomes() {
            return Err(DfError::Invalid(format!(
                "outcome index {outcome} out of range"
            )));
        }
        let populated = self.populated_groups();
        let mut out = Vec::with_capacity(populated.len() * populated.len().saturating_sub(1));
        for &i in &populated {
            for &j in &populated {
                if i != j {
                    out.push((
                        i,
                        j,
                        log_ratio(self.prob(i, outcome), self.prob(j, outcome)),
                    ));
                }
            }
        }
        Ok(out)
    }

    /// The per-group outcome *counts* implied by this table, recovered as
    /// `prob × weight`. When the table came from raw tallies (where
    /// `weight` is the group total and `prob` the MLE) these are the
    /// tallies up to rounding in the last bit; they are meaningless for
    /// already-smoothed tables.
    pub fn implied_counts(&self, group: usize) -> Vec<f64> {
        (0..self.num_outcomes())
            .map(|y| self.prob(group, y) * self.weights[group])
            .collect()
    }

    /// The Eq. 7 Dirichlet-smoothed version of this table: per populated
    /// group, the posterior predictive `(N_y + α) / (N + |Y|α)` over the
    /// implied counts. `alpha = 0` returns a clone (Eq. 6). Zero-weight
    /// groups keep zero weight, so unobserved intersections stay excluded
    /// from ε exactly as [`Self::epsilon`] prescribes.
    ///
    /// `alpha` must be finite and non-negative, and no populated group's
    /// denominator `N + |Y|α` may overflow (so an α whose `|Y|α`
    /// overflows is refused whenever a group is populated): each is a
    /// [`DfError::Invalid`].
    pub fn smoothed(&self, alpha: f64) -> Result<GroupOutcomes> {
        if !valid_cell(alpha) {
            return Err(DfError::Invalid(format!(
                "smoothing alpha must be finite and non-negative, got {alpha}"
            )));
        }
        if exactly_zero(alpha) {
            return Ok(self.clone());
        }
        let n_outcomes = self.num_outcomes();
        let k = n_outcomes as f64;
        // The posterior predictive over the implied counts (a
        // compensated-sum total, `(c + α)/(N + Kα)` per cell), computed in
        // place in each output row: this sits on the monitor's per-push hot
        // path, where a Vec allocation per group is the dominant cost.
        let mut probs = self.probs.clone();
        for (row, &w) in probs.chunks_exact_mut(n_outcomes).zip(&self.weights) {
            for c in row.iter_mut() {
                *c *= w;
            }
            let denom = stable_sum(row) + k * alpha;
            if w > 0.0 && !denom.is_finite() {
                return Err(overflowing_alpha(alpha));
            }
            for c in row.iter_mut() {
                *c = (*c + alpha) / denom;
            }
        }
        Ok(self.with_probs(probs))
    }

    /// A table with this one's names and weights and new probabilities:
    /// smoothed, or drawn from a posterior, each a probability vector per
    /// populated group by construction.
    pub(crate) fn with_probs(&self, probs: Vec<f64>) -> GroupOutcomes {
        GroupOutcomes::trusted(Arc::clone(&self.names), probs, self.weights.clone())
    }

    /// Expected utility `E[u(y) | s]` per group for a caller-supplied utility
    /// over outcomes (Eq. 5 of the paper).
    pub fn expected_utilities(&self, utility: &[f64]) -> Result<Vec<f64>> {
        if utility.len() != self.num_outcomes() {
            return Err(DfError::Invalid(format!(
                "utility has {} entries, expected {}",
                utility.len(),
                self.num_outcomes()
            )));
        }
        Ok((0..self.num_groups())
            .map(|g| {
                (0..self.num_outcomes())
                    .map(|y| self.prob(g, y) * utility[y])
                    .sum()
            })
            .collect())
    }
}

/// The refusal of a prior whose Eq. 7 denominator `N + |Y|α` overflows
/// for some populated group.
pub(crate) fn overflowing_alpha(alpha: f64) -> DfError {
    DfError::Invalid(format!(
        "smoothing alpha {alpha} overflows the Eq. 7 denominator N + |Y|*alpha"
    ))
}

/// Prints the table as its fields read: outcome and group labels,
/// probabilities, weights.
impl fmt::Debug for GroupOutcomes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupOutcomes")
            .field("outcome_labels", &self.outcome_labels())
            .field("group_labels", &self.group_labels())
            .field("probs", &self.probs)
            .field("weights", &self.weights)
            .finish()
    }
}

/// Tables are equal when their labels, probabilities and weights are,
/// however the names are held.
impl PartialEq for GroupOutcomes {
    fn eq(&self, other: &Self) -> bool {
        self.outcome_labels() == other.outcome_labels()
            && self.group_labels() == other.group_labels()
            && self.probs == other.probs
            && self.weights == other.weights
    }
}

/// Serializes the four fields `outcome_labels`, `group_labels`, `probs`
/// and `weights`, in that order.
impl Serialize for GroupOutcomes {
    fn serialize(&self, out: &mut JsonWriter) {
        out.begin_object();
        out.field("outcome_labels", self.outcome_labels());
        out.field("group_labels", self.group_labels());
        out.field("probs", &self.probs);
        out.field("weights", &self.weights);
        out.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_prob::numerics::approx_eq;

    fn labels(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    /// The paper's Figure 2 worked example.
    fn figure2_table() -> GroupOutcomes {
        GroupOutcomes::with_uniform_weights(
            labels(&["no", "yes"]),
            labels(&["group1", "group2"]),
            vec![0.6915, 0.3085, 0.0668, 0.9332],
        )
        .unwrap()
    }

    #[test]
    fn validation_catches_shape_errors() {
        assert!(
            GroupOutcomes::with_uniform_weights(labels(&["y"]), labels(&["g"]), vec![1.0]).is_err()
        );
        assert!(GroupOutcomes::with_uniform_weights(
            labels(&["a", "b"]),
            labels(&["g"]),
            vec![0.5]
        )
        .is_err());
        assert!(GroupOutcomes::new(
            labels(&["a", "b"]),
            labels(&["g"]),
            vec![0.5, 0.5],
            vec![1.0, 1.0]
        )
        .is_err());
        // Row not summing to 1.
        assert!(GroupOutcomes::with_uniform_weights(
            labels(&["a", "b"]),
            labels(&["g"]),
            vec![0.5, 0.6]
        )
        .is_err());
    }

    #[test]
    fn figure2_epsilon_matches_paper() {
        // The paper reports ε = 2.337, attained on outcome "no".
        let eps = figure2_table().epsilon();
        assert!(approx_eq(eps.epsilon, 2.337, 2e-3, 0.0), "{}", eps.epsilon);
        let w = eps.witness.unwrap();
        assert_eq!(w.outcome, "no");
        assert_eq!(w.group_hi, "group1");
        assert_eq!(w.group_lo, "group2");
    }

    #[test]
    fn figure2_log_ratio_table_matches_paper() {
        // Paper: log ratios 2.337 / -2.337 (no) and -1.107 / 1.107 (yes).
        let t = figure2_table();
        let no = t.log_ratio_table(0).unwrap();
        assert!(no
            .iter()
            .any(|&(i, j, r)| i == 0 && j == 1 && approx_eq(r, 2.337, 2e-3, 0.0)));
        let yes = t.log_ratio_table(1).unwrap();
        assert!(yes
            .iter()
            .any(|&(i, j, r)| i == 0 && j == 1 && approx_eq(r, -1.107, 2e-3, 0.0)));
        assert!(t.log_ratio_table(5).is_err());
    }

    #[test]
    fn equal_distributions_have_zero_epsilon() {
        let t = GroupOutcomes::with_uniform_weights(
            labels(&["no", "yes"]),
            labels(&["a", "b", "c"]),
            vec![0.3, 0.7, 0.3, 0.7, 0.3, 0.7],
        )
        .unwrap();
        let eps = t.epsilon();
        assert_eq!(eps.epsilon, 0.0);
        assert!(eps.satisfies(0.0));
    }

    #[test]
    fn zero_probability_in_one_group_gives_infinite_epsilon() {
        let t = GroupOutcomes::with_uniform_weights(
            labels(&["no", "yes"]),
            labels(&["a", "b"]),
            vec![1.0, 0.0, 0.5, 0.5],
        )
        .unwrap();
        let eps = t.epsilon();
        assert_eq!(eps.epsilon, f64::INFINITY);
        assert!(!eps.is_finite());
        let w = eps.witness.unwrap();
        assert_eq!(w.outcome, "yes");
        assert_eq!(w.prob_lo, 0.0);
    }

    #[test]
    fn shared_zero_outcome_is_vacuous() {
        // Both groups assign zero to outcome "c": no constraint from it.
        let t = GroupOutcomes::with_uniform_weights(
            labels(&["a", "b", "c"]),
            labels(&["g1", "g2"]),
            vec![0.4, 0.6, 0.0, 0.5, 0.5, 0.0],
        )
        .unwrap();
        let eps = t.epsilon();
        assert!(eps.is_finite());
        assert!(approx_eq(
            eps.epsilon,
            (0.6_f64 / 0.5).ln().max((0.5_f64 / 0.4).ln()),
            1e-12,
            0.0
        ));
    }

    #[test]
    fn zero_weight_groups_are_excluded() {
        // Group "ghost" would make ε infinite, but has weight 0 (P(s)=0) so
        // Definition 3.1 excludes it.
        let t = GroupOutcomes::new(
            labels(&["no", "yes"]),
            labels(&["a", "b", "ghost"]),
            vec![0.5, 0.5, 0.4, 0.6, 1.0, 0.0],
            vec![10.0, 10.0, 0.0],
        )
        .unwrap();
        let eps = t.epsilon();
        assert!(eps.is_finite());
        assert!(approx_eq(
            eps.epsilon,
            (0.6_f64 / 0.5).ln().max((0.5_f64 / 0.4).ln()),
            1e-12,
            0.0
        ));
    }

    #[test]
    fn single_populated_group_is_vacuously_fair() {
        let t = GroupOutcomes::new(
            labels(&["no", "yes"]),
            labels(&["a", "b"]),
            vec![0.5, 0.5, 0.9, 0.1],
            vec![1.0, 0.0],
        )
        .unwrap();
        let eps = t.epsilon();
        assert_eq!(eps.epsilon, 0.0);
        assert!(eps.witness.is_none());
    }

    #[test]
    fn epsilon_is_symmetric_in_group_order() {
        let a = GroupOutcomes::with_uniform_weights(
            labels(&["no", "yes"]),
            labels(&["g1", "g2"]),
            vec![0.7, 0.3, 0.2, 0.8],
        )
        .unwrap();
        let b = GroupOutcomes::with_uniform_weights(
            labels(&["no", "yes"]),
            labels(&["g2", "g1"]),
            vec![0.2, 0.8, 0.7, 0.3],
        )
        .unwrap();
        assert!(approx_eq(
            a.epsilon().epsilon,
            b.epsilon().epsilon,
            1e-14,
            0.0
        ));
    }

    #[test]
    fn ratio_bound_is_exp_epsilon() {
        let eps = figure2_table().epsilon();
        // Paper: e^ε ≈ 10.35.
        assert!(approx_eq(eps.probability_ratio_bound(), 10.35, 2e-2, 0.0));
    }

    #[test]
    fn expected_utilities_eq5() {
        // Loan utility: u(yes) = 1, u(no) = 0. Disparity must be ≤ e^ε.
        let t = figure2_table();
        let u = t.expected_utilities(&[0.0, 1.0]).unwrap();
        assert!(approx_eq(u[0], 0.3085, 1e-12, 0.0));
        assert!(approx_eq(u[1], 0.9332, 1e-12, 0.0));
        let eps = t.epsilon();
        assert!(u[1] / u[0] <= eps.probability_ratio_bound() + 1e-12);
        assert!(t.expected_utilities(&[1.0]).is_err());
    }
}
