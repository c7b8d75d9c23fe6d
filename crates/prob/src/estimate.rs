//! The exact Dirichlet posterior behind the Θ class of posterior draws.
//!
//! The paper's smoothed estimator (Eq. 7) is the posterior predictive of a
//! symmetric Dirichlet prior, `(N_{y,s} + α) / (N_s + |Y|α)`; `df-core`
//! computes it per protected group in `GroupOutcomes::smoothed`. This
//! module samples the posterior itself, `Dir(N₁+α, …, N_K+α)`, whose mean
//! is that predictive: [`DirichletPosterior`] builds the distribution
//! class Θ from data (the paper's §3, footnote 2).

use crate::dist::{Dirichlet, Sampler};
use crate::error::{ProbError, Result};
use crate::rng::Pcg32;

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
    fn rejects_invalid_alpha() {
        assert!(dirichlet_posterior_alpha(&[1.0], 0.0).is_err());
        assert!(dirichlet_posterior_alpha(&[1.0], f64::NAN).is_err());
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
