//! Mechanisms and estimation of their group-conditional outcome
//! probabilities.
//!
//! A mechanism `M(x)` assigns an outcome (possibly stochastically) to an
//! instance. To measure its differential fairness we need
//! `P(M(x) = y | s, θ)` for each intersection `s`, marginalizing `x ~ θ`.
//! [`estimate_group_outcomes`] does this empirically over a dataset:
//! randomized mechanisms report their full outcome distribution per instance
//! (Rao–Blackwellized tally), deterministic classifiers a point mass.

use crate::edf::outcomes;
use crate::epsilon::{GroupNames, GroupOutcomes};
use crate::error::{DfError, Result};
use serde::Serialize;
use std::sync::Arc;

/// A (possibly randomized) mechanism over instances of type `X` with a fixed
/// finite outcome set.
pub trait Mechanism<X: ?Sized> {
    /// Outcome labels, fixed for the mechanism's lifetime.
    fn outcomes(&self) -> Vec<String>;

    /// The conditional outcome distribution `P(M(x) = · | x)`.
    /// Deterministic mechanisms return a one-hot vector.
    fn outcome_distribution(&self, x: &X) -> Vec<f64>;
}

/// A deterministic mechanism defined by a plain function returning an
/// outcome index.
pub struct FnMechanism<X, F: Fn(&X) -> usize> {
    outcomes: Vec<String>,
    f: F,
    _marker: std::marker::PhantomData<fn(&X)>,
}

impl<X, F: Fn(&X) -> usize> FnMechanism<X, F> {
    /// Wraps `f`; its return value indexes into `outcomes`.
    pub fn new(outcomes: Vec<String>, f: F) -> Self {
        Self {
            outcomes,
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<X, F: Fn(&X) -> usize> Mechanism<X> for FnMechanism<X, F> {
    fn outcomes(&self) -> Vec<String> {
        self.outcomes.clone()
    }

    fn outcome_distribution(&self, x: &X) -> Vec<f64> {
        let mut dist = vec![0.0; self.outcomes.len()];
        let k = (self.f)(x);
        assert!(
            k < dist.len(),
            "mechanism returned out-of-range outcome {k}"
        );
        dist[k] = 1.0;
        dist
    }
}

/// Group-conditional probability estimate for a mechanism over a dataset.
#[derive(Debug, Clone, Serialize)]
pub struct MechanismEstimate {
    /// The estimated `P(M(x)=y | s)` table with empirical group weights.
    pub group_outcomes: GroupOutcomes,
    /// Number of instances tallied.
    pub n: usize,
}

/// Tallies `P(M(x) = y | s)` over `(group_index, instance)` pairs.
///
/// `group_labels` names the intersections; `group_of` yields each instance's
/// intersection index. Smoothing `alpha ≥ 0` applies the Eq. 7 posterior
/// predictive to the (expected) outcome tallies: the raw table,
/// [`GroupOutcomes::smoothed`], as [`crate::JointCounts::group_outcomes`]
/// gives it.
pub fn estimate_group_outcomes<X, M, I>(
    mechanism: &M,
    group_labels: Vec<String>,
    instances: I,
    alpha: f64,
) -> Result<MechanismEstimate>
where
    M: Mechanism<X>,
    I: IntoIterator<Item = (usize, X)>,
{
    let outcome_labels = mechanism.outcomes();
    let n_outcomes = outcome_labels.len();
    let n_groups = group_labels.len();
    if n_outcomes < 2 {
        return Err(DfError::NotEnoughCategories {
            what: "outcomes",
            needed: 2,
            present: n_outcomes,
        });
    }
    let mut tallies = vec![0.0f64; n_groups * n_outcomes];
    let mut n = 0usize;
    for (g, x) in instances {
        if g >= n_groups {
            return Err(DfError::Invalid(format!(
                "group index {g} out of range ({n_groups} groups)"
            )));
        }
        let dist = mechanism.outcome_distribution(&x);
        if dist.len() != n_outcomes {
            return Err(DfError::Invalid(format!(
                "mechanism returned {} outcome probabilities, expected {n_outcomes}",
                dist.len()
            )));
        }
        for (y, &p) in dist.iter().enumerate() {
            tallies[g * n_outcomes + y] += p;
        }
        n += 1;
    }

    let names = Arc::new(GroupNames::explicit(outcome_labels, group_labels));
    Ok(MechanismEstimate {
        group_outcomes: outcomes(&names, tallies)?.smoothed(alpha)?,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_prob::numerics::approx_eq;

    #[test]
    fn deterministic_threshold_mechanism() {
        // Score ≥ 10.5 → "yes" (the paper's Figure 2 mechanism shape).
        let mech = FnMechanism::new(vec!["no".into(), "yes".into()], |score: &f64| {
            usize::from(*score >= 10.5)
        });
        let data = vec![
            (0usize, 9.0),
            (0, 10.0),
            (0, 11.0),
            (1, 12.0),
            (1, 13.0),
            (1, 9.5),
        ];
        let est =
            estimate_group_outcomes(&mech, vec!["g1".into(), "g2".into()], data, 0.0).unwrap();
        assert_eq!(est.n, 6);
        let go = &est.group_outcomes;
        assert!(approx_eq(go.prob(0, 1), 1.0 / 3.0, 1e-14, 0.0));
        assert!(approx_eq(go.prob(1, 1), 2.0 / 3.0, 1e-14, 0.0));
        assert_eq!(go.weights(), &[3.0, 3.0]);
    }

    struct Randomized;
    impl Mechanism<u8> for Randomized {
        fn outcomes(&self) -> Vec<String> {
            vec!["no".into(), "yes".into()]
        }
        fn outcome_distribution(&self, x: &u8) -> Vec<f64> {
            // Group-dependent coin: exactly the Rao–Blackwellized path.
            match x {
                0 => vec![0.75, 0.25],
                _ => vec![0.25, 0.75],
            }
        }
    }

    #[test]
    fn randomized_mechanism_tallies_expected_probabilities() {
        let data = vec![(0usize, 0u8), (0, 0), (1, 1), (1, 1)];
        let est =
            estimate_group_outcomes(&Randomized, vec!["a".into(), "b".into()], data, 0.0).unwrap();
        let go = &est.group_outcomes;
        assert!(approx_eq(go.prob(0, 1), 0.25, 1e-14, 0.0));
        assert!(approx_eq(go.prob(1, 1), 0.75, 1e-14, 0.0));
        let eps = go.epsilon();
        assert!(approx_eq(eps.epsilon, 3.0_f64.ln(), 1e-12, 0.0));
    }

    #[test]
    fn unseen_group_gets_zero_weight() {
        let mech = FnMechanism::new(vec!["no".into(), "yes".into()], |_: &i32| 0);
        let est = estimate_group_outcomes(
            &mech,
            vec!["a".into(), "b".into(), "never".into()],
            vec![(0, 1), (1, 2)],
            0.0,
        )
        .unwrap();
        assert_eq!(est.group_outcomes.weights()[2], 0.0);
        assert_eq!(est.group_outcomes.populated_groups(), vec![0, 1]);
        // Smoothed, the unseen group's row is uniform and still unweighted.
        let est = estimate_group_outcomes(
            &mech,
            vec!["a".into(), "b".into(), "never".into()],
            vec![(0, 1), (1, 2)],
            1.0,
        )
        .unwrap();
        let go = &est.group_outcomes;
        assert_eq!(
            (go.weights()[2], go.prob(2, 0), go.prob(2, 1)),
            (0.0, 0.5, 0.5)
        );
        assert_eq!(go.populated_groups(), vec![0, 1]);
    }

    #[test]
    fn out_of_range_group_is_an_error() {
        let mech = FnMechanism::new(vec!["no".into(), "yes".into()], |_: &i32| 0);
        assert!(estimate_group_outcomes(&mech, vec!["a".into()], vec![(3, 1)], 0.0).is_err());
    }

    #[test]
    fn smoothing_applies_to_tallies() {
        let mech = FnMechanism::new(vec!["no".into(), "yes".into()], |x: &i32| {
            usize::from(*x > 0)
        });
        // Group a: 2 "yes"; group b: 2 "no" → unsmoothed ε infinite.
        let est0 = estimate_group_outcomes(
            &mech,
            vec!["a".into(), "b".into()],
            vec![(0usize, 1), (0, 2), (1, -1), (1, -2)],
            0.0,
        )
        .unwrap();
        assert!(!est0.group_outcomes.epsilon().is_finite());
        let est1 = estimate_group_outcomes(
            &mech,
            vec!["a".into(), "b".into()],
            vec![(0usize, 1), (0, 2), (1, -1), (1, -2)],
            1.0,
        )
        .unwrap();
        let eps = est1.group_outcomes.epsilon();
        assert!(eps.is_finite());
        // Eq. 7: (2+1)/(2+2) vs (0+1)/(2+2) → ln 3.
        assert!(approx_eq(eps.epsilon, 3.0_f64.ln(), 1e-12, 0.0));
    }
}
