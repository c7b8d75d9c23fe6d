//! Distribution classes Θ and the supremum ε over them.
//!
//! Definition 3.1 quantifies over a class Θ of plausible data distributions.
//! The paper suggests (§3, footnote 2) instantiating Θ as a point estimate,
//! a set of burned-in MCMC samples, or a posterior credible set. This module
//! provides:
//!
//! - [`ThetaClass::Point`]: a single table — the EDF special case
//!   (Definition 3.2).
//! - [`ThetaClass::Samples`]: a finite set of tables (e.g. Dirichlet
//!   posterior draws); ε is the supremum over members.
//! - [`posterior_theta`]: builds posterior samples of the group-conditional
//!   outcome probabilities from joint counts via the conjugate Dirichlet
//!   model.

use crate::edf::JointCounts;
use crate::epsilon::{EpsilonResult, GroupOutcomes, Worst};
use crate::error::{DfError, Result};
use df_prob::estimate::DirichletPosterior;
use df_prob::numerics::log_ratio;
use df_prob::rng::Pcg32;
use df_prob::summary::credible_interval;

/// A class of plausible distributions over the data.
#[derive(Debug, Clone)]
pub enum ThetaClass {
    /// A single point estimate `Θ = {θ̂}`.
    Point(GroupOutcomes),
    /// A finite set of plausible distributions (posterior samples).
    Samples(Vec<GroupOutcomes>),
}

impl ThetaClass {
    /// Number of member distributions.
    pub fn len(&self) -> usize {
        match self {
            ThetaClass::Point(_) => 1,
            ThetaClass::Samples(s) => s.len(),
        }
    }

    /// True when the class has no members (only possible for an empty
    /// sample set).
    pub fn is_empty(&self) -> bool {
        matches!(self, ThetaClass::Samples(s) if s.is_empty())
    }

    /// The differential fairness over the class: the supremum of ε over all
    /// members (Definition 3.1 requires the bound *for all* θ ∈ Θ).
    pub fn epsilon(&self) -> Result<EpsilonResult> {
        match self {
            ThetaClass::Point(t) => Ok(t.epsilon()),
            ThetaClass::Samples(ts) => {
                // The supremum by index; only the winning member's witness
                // is named.
                let mut best: Option<(&GroupOutcomes, Worst)> = None;
                for t in ts {
                    let e = t.worst(log_ratio);
                    match &best {
                        Some((_, b)) if b.epsilon >= e.epsilon => {}
                        _ => best = Some((t, e)),
                    }
                }
                let (t, worst) =
                    best.ok_or_else(|| DfError::Invalid("empty Θ sample set".into()))?;
                Ok(t.named(worst))
            }
        }
    }

    /// Per-member ε values (useful for credible intervals).
    pub fn epsilon_samples(&self) -> Vec<f64> {
        match self {
            ThetaClass::Point(t) => vec![t.epsilon().epsilon],
            ThetaClass::Samples(ts) => ts.iter().map(|t| t.worst(log_ratio).epsilon).collect(),
        }
    }

    /// Equal-tailed credible interval over the per-member ε values.
    pub fn epsilon_credible_interval(&self, mass: f64) -> Result<(f64, f64)> {
        let samples = self.epsilon_samples();
        credible_interval(&samples, mass).map_err(DfError::from)
    }
}

/// Builds a Θ class of `n_samples` posterior draws from joint counts, using
/// independent Dirichlet(α) posteriors over each populated group's outcome
/// distribution.
///
/// Unpopulated groups keep zero weight in every sample and therefore remain
/// excluded from ε, mirroring the empirical treatment.
pub fn posterior_theta(
    counts: &JointCounts,
    alpha: f64,
    n_samples: usize,
    rng: &mut Pcg32,
) -> Result<ThetaClass> {
    // The point estimate gives us labels/weights; raw counts come from the
    // unsmoothed group outcomes scaled by weights.
    posterior_theta_from_table(&counts.group_outcomes(0.0)?, alpha, n_samples, rng)
}

/// Builds a Θ class of posterior draws directly from a raw (unsmoothed)
/// group-outcome table, recovering per-group counts as `prob × weight` —
/// the table-level twin of [`posterior_theta`] used by the
/// [`crate::builder`] estimators, which must work on subset tables and
/// mechanism tallies alike.
pub fn posterior_theta_from_table(
    base: &GroupOutcomes,
    alpha: f64,
    n_samples: usize,
    rng: &mut Pcg32,
) -> Result<ThetaClass> {
    if n_samples == 0 {
        return Err(DfError::Invalid("n_samples must be positive".into()));
    }
    let n_groups = base.num_groups();
    let n_outcomes = base.num_outcomes();

    // Recover per-group counts: prob * weight.
    let group_counts: Vec<Vec<f64>> = (0..n_groups).map(|g| base.implied_counts(g)).collect();

    let posteriors: Vec<Option<DirichletPosterior>> = group_counts
        .iter()
        .enumerate()
        .map(|(g, c)| {
            if base.weights()[g] > 0.0 {
                DirichletPosterior::from_counts(c, alpha).map(Some)
            } else {
                Ok(None)
            }
        })
        .collect::<std::result::Result<_, _>>()?;

    let mut samples = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let mut probs = vec![0.0; n_groups * n_outcomes];
        for (g, post) in posteriors.iter().enumerate() {
            if let Some(post) = post {
                let draw = post.sample_thetas(rng, 1).pop().expect("one sample");
                probs[g * n_outcomes..(g + 1) * n_outcomes].copy_from_slice(&draw);
            } else {
                // Keep a valid (but irrelevant) uniform row for empty groups.
                for y in 0..n_outcomes {
                    probs[g * n_outcomes + y] = 1.0 / n_outcomes as f64;
                }
            }
        }
        samples.push(base.with_probs(probs)?);
    }
    Ok(ThetaClass::Samples(samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_prob::contingency::{Axis, ContingencyTable};

    fn counts_2x2(n: f64) -> JointCounts {
        // P(yes|a) = 0.6, P(yes|b) = 0.4, scaled by n.
        let axes = vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ];
        let data = vec![0.4 * n, 0.6 * n, 0.6 * n, 0.4 * n];
        JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap()
    }

    #[test]
    fn point_theta_equals_edf() {
        let jc = counts_2x2(100.0);
        let point = ThetaClass::Point(jc.group_outcomes(0.0).unwrap());
        assert_eq!(point.len(), 1);
        assert_eq!(point.epsilon().unwrap().epsilon, jc.edf().unwrap().epsilon);
    }

    #[test]
    fn sup_over_samples_is_at_least_point_estimate_mean_behaviour() {
        let jc = counts_2x2(200.0);
        let mut rng = Pcg32::new(7);
        let theta = posterior_theta(&jc, 1.0, 200, &mut rng).unwrap();
        assert_eq!(theta.len(), 200);
        let sup = theta.epsilon().unwrap().epsilon;
        let point = jc.edf().unwrap().epsilon;
        // The supremum over posterior draws exceeds the point estimate with
        // overwhelming probability.
        assert!(sup > point, "sup={sup} point={point}");
    }

    #[test]
    fn posterior_concentrates_with_data() {
        let mut rng = Pcg32::new(8);
        let small = posterior_theta(&counts_2x2(20.0), 1.0, 300, &mut rng).unwrap();
        let large = posterior_theta(&counts_2x2(20_000.0), 1.0, 300, &mut rng).unwrap();
        let (lo_s, hi_s) = small.epsilon_credible_interval(0.9).unwrap();
        let (lo_l, hi_l) = large.epsilon_credible_interval(0.9).unwrap();
        assert!(
            hi_l - lo_l < hi_s - lo_s,
            "large-data interval [{lo_l}, {hi_l}] should be narrower than [{lo_s}, {hi_s}]"
        );
        // With 20k records the interval brackets the true ε = ln(0.6/0.4).
        let truth = (0.6_f64 / 0.4).ln();
        assert!(lo_l < truth && truth < hi_l, "[{lo_l}, {hi_l}] vs {truth}");
    }

    #[test]
    fn empty_groups_stay_excluded_in_theta() {
        let axes = vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b", "empty"]).unwrap(),
        ];
        let data = vec![10.0, 10.0, 0.0, 10.0, 10.0, 0.0];
        let jc =
            JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap();
        let mut rng = Pcg32::new(9);
        let theta = posterior_theta(&jc, 1.0, 50, &mut rng).unwrap();
        // Fair data → ε stays modest; the empty group must not blow it up.
        let eps = theta.epsilon().unwrap().epsilon;
        assert!(eps.is_finite());
        assert!(eps < 1.5, "eps={eps}");
    }

    #[test]
    fn invalid_arguments() {
        let jc = counts_2x2(10.0);
        let mut rng = Pcg32::new(1);
        assert!(posterior_theta(&jc, 1.0, 0, &mut rng).is_err());
        assert!(ThetaClass::Samples(vec![]).epsilon().is_err());
    }
}
