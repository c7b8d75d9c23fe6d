//! Estimators for categorical outcome probabilities.
//!
//! The paper's empirical differential fairness (Eq. 6) plugs in the MLE
//! `N_{y,s} / N_s`; its smoothed variant (Eq. 7) uses the posterior
//! predictive of a symmetric Dirichlet prior,
//! `(N_{y,s} + α) / (N_s + |Y|α)`. Both are provided here, over raw count
//! slices, so `df-core` can apply them per protected group, together with
//! [`DirichletPosterior`], the exact posterior sampler behind the Θ class
//! of posterior draws (the paper's §3, footnote 2).

use crate::dist::{Dirichlet, Sampler};
use crate::error::{ProbError, Result};
use crate::numerics::{exactly_zero, stable_sum};
use crate::rng::Pcg32;

/// Maximum-likelihood estimate of a categorical distribution from counts.
///
/// Returns `None` when the counts are all zero (the group is unobserved, so
/// the conditional distribution is undefined — Definition 3.1 excludes such
/// groups via its `P(s|θ) > 0` side condition).
pub fn categorical_mle(counts: &[f64]) -> Option<Vec<f64>> {
    let total = stable_sum(counts);
    if total <= 0.0 {
        return None;
    }
    Some(counts.iter().map(|&c| c / total).collect())
}

/// Posterior-predictive estimate under a symmetric Dirichlet(α) prior:
/// `(N_k + α) / (N + K α)` — Eq. 7 of the paper.
///
/// With `alpha = 0` this degenerates to the MLE (and inherits its `None`
/// behaviour on empty counts); with `alpha > 0` it is defined even for
/// unobserved groups, where it returns the uniform distribution.
pub fn dirichlet_posterior_predictive(counts: &[f64], alpha: f64) -> Result<Option<Vec<f64>>> {
    if !(alpha.is_finite() && alpha >= 0.0) {
        return Err(ProbError::InvalidParameter {
            name: "alpha",
            reason: format!("must be finite and non-negative, got {alpha}"),
        });
    }
    if counts.is_empty() {
        return Err(ProbError::InvalidParameter {
            name: "counts",
            reason: "must be non-empty".into(),
        });
    }
    if exactly_zero(alpha) {
        return Ok(categorical_mle(counts));
    }
    let k = counts.len() as f64;
    let total = stable_sum(counts);
    Ok(Some(
        counts
            .iter()
            .map(|&c| (c + alpha) / (total + k * alpha))
            .collect(),
    ))
}

/// Dirichlet posterior parameters for counts under a symmetric prior:
/// `Dir(N_1 + α, …, N_K + α)`. Used to draw Θ posterior samples.
pub fn dirichlet_posterior_alpha(counts: &[f64], alpha: f64) -> Result<Vec<f64>> {
    if !(alpha.is_finite() && alpha > 0.0) {
        return Err(ProbError::InvalidParameter {
            name: "alpha",
            reason: format!("posterior sampling needs alpha > 0, got {alpha}"),
        });
    }
    Ok(counts.iter().map(|&c| c + alpha).collect())
}

/// Exact sampler for the posterior `Dir(N₁+α, …, N_K+α)` of outcome
/// probabilities given counts under a symmetric Dirichlet(α) prior.
#[derive(Debug, Clone)]
pub struct DirichletPosterior {
    posterior: Dirichlet,
}

impl DirichletPosterior {
    /// Builds the posterior from observed counts and prior concentration α.
    pub fn from_counts(counts: &[f64], alpha: f64) -> Result<Self> {
        let post_alpha = dirichlet_posterior_alpha(counts, alpha)?;
        Ok(Self {
            posterior: Dirichlet::new(post_alpha)?,
        })
    }

    /// Posterior mean (equals the Eq. 7 posterior predictive).
    pub fn mean(&self) -> Vec<f64> {
        self.posterior.mean()
    }

    /// Draws `n` posterior probability vectors (a plug-in Θ sample set).
    pub fn sample_thetas(&self, rng: &mut Pcg32, n: usize) -> Vec<Vec<f64>> {
        self.posterior.sample_n(rng, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerics::approx_eq;

    #[test]
    fn mle_normalizes_counts() {
        let p = categorical_mle(&[3.0, 1.0]).unwrap();
        assert!(approx_eq(p[0], 0.75, 1e-14, 0.0));
        assert!(approx_eq(p[1], 0.25, 1e-14, 0.0));
    }

    #[test]
    fn mle_undefined_for_empty_group() {
        assert!(categorical_mle(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn posterior_predictive_matches_eq7() {
        // Eq. 7 with N_{y,s}=81, N_s=87, |Y|=2, alpha=1:
        // (81+1)/(87+2) and (6+1)/(87+2).
        let p = dirichlet_posterior_predictive(&[81.0, 6.0], 1.0)
            .unwrap()
            .unwrap();
        assert!(approx_eq(p[0], 82.0 / 89.0, 1e-14, 0.0));
        assert!(approx_eq(p[1], 7.0 / 89.0, 1e-14, 0.0));
    }

    #[test]
    fn posterior_predictive_zero_alpha_is_mle() {
        let a = dirichlet_posterior_predictive(&[5.0, 15.0], 0.0)
            .unwrap()
            .unwrap();
        let b = categorical_mle(&[5.0, 15.0]).unwrap();
        assert_eq!(a, b);
        assert!(dirichlet_posterior_predictive(&[0.0, 0.0], 0.0)
            .unwrap()
            .is_none());
    }

    #[test]
    fn posterior_predictive_uniform_on_empty_group() {
        let p = dirichlet_posterior_predictive(&[0.0, 0.0, 0.0], 2.0)
            .unwrap()
            .unwrap();
        for pi in p {
            assert!(approx_eq(pi, 1.0 / 3.0, 1e-14, 0.0));
        }
    }

    #[test]
    fn posterior_predictive_sums_to_one() {
        let p = dirichlet_posterior_predictive(&[7.0, 2.0, 11.0], 0.5)
            .unwrap()
            .unwrap();
        assert!(approx_eq(p.iter().sum::<f64>(), 1.0, 1e-14, 0.0));
    }

    #[test]
    fn rejects_invalid_alpha() {
        assert!(dirichlet_posterior_predictive(&[1.0], -1.0).is_err());
        assert!(dirichlet_posterior_predictive(&[1.0], f64::NAN).is_err());
        assert!(dirichlet_posterior_predictive(&[], 1.0).is_err());
        assert!(dirichlet_posterior_alpha(&[1.0], 0.0).is_err());
    }

    #[test]
    fn posterior_alpha_shifts_counts() {
        let a = dirichlet_posterior_alpha(&[2.0, 0.0], 0.5).unwrap();
        assert_eq!(a, vec![2.5, 0.5]);
    }

    #[test]
    fn dirichlet_posterior_mean_matches_eq7() {
        let post = DirichletPosterior::from_counts(&[81.0, 6.0], 1.0).unwrap();
        let mean = post.mean();
        assert!(approx_eq(mean[0], 82.0 / 89.0, 1e-14, 0.0));
        assert!(approx_eq(mean[1], 7.0 / 89.0, 1e-14, 0.0));
    }

    #[test]
    fn posterior_samples_concentrate_with_data() {
        let mut rng = Pcg32::new(41);
        let tight = DirichletPosterior::from_counts(&[8000.0, 2000.0], 1.0).unwrap();
        let loose = DirichletPosterior::from_counts(&[8.0, 2.0], 1.0).unwrap();
        let spread = |s: &DirichletPosterior, rng: &mut Pcg32| {
            let draws = s.sample_thetas(rng, 2000);
            let xs: Vec<f64> = draws.iter().map(|d| d[0]).collect();
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        assert!(spread(&tight, &mut rng) < 0.02);
        assert!(spread(&loose, &mut rng) > 0.05);
    }
}
