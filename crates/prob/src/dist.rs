//! Probability distributions used across the workspace.
//!
//! Each distribution validates its parameters at construction and samples
//! through [`Sampler`]. All samplers take an explicit [`Pcg32`] so every
//! stochastic component of the workspace stays reproducible.
//!
//! - [`Normal`]: Gaussian with density, CDF, quantile and polar
//!   (Marsaglia) sampling.
//! - [`Gamma`]: shape/scale with Marsaglia–Tsang sampling (the Dirichlet's
//!   draws).
//! - [`Categorical`]: normalized weights with Walker alias-method sampling.
//! - [`Dirichlet`]: normalized independent Gamma draws.

use crate::error::{ProbError, Result};
use crate::rng::Pcg32;
use crate::special::{std_normal_cdf, std_normal_pdf, std_normal_quantile};

/// Distributions that can be sampled.
pub trait Sampler {
    /// The sample type.
    type Output;

    /// Draws one sample.
    fn sample(&self, rng: &mut Pcg32) -> Self::Output;

    /// Draws `n` samples.
    fn sample_n(&self, rng: &mut Pcg32, n: usize) -> Vec<Self::Output> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

fn require(cond: bool, name: &'static str, reason: &'static str) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(ProbError::InvalidParameter {
            name,
            reason: reason.to_string(),
        })
    }
}

// ---------------------------------------------------------------------------
// Normal.
// ---------------------------------------------------------------------------

/// Gaussian distribution `N(mean, sd²)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a Gaussian; `sd` must be positive and finite.
    pub fn new(mean: f64, sd: f64) -> Result<Self> {
        require(mean.is_finite(), "mean", "must be finite")?;
        require(sd.is_finite() && sd > 0.0, "sd", "must be positive")?;
        Ok(Self { mean, sd })
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self { mean: 0.0, sd: 1.0 }
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// The standard deviation (alias used by score-threshold tooling).
    pub fn std_dev(&self) -> f64 {
        self.sd
    }

    /// The quantile function (inverse CDF); `p` must lie in `(0, 1)`.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        Ok(self.mean + self.sd * std_normal_quantile(p)?)
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        std_normal_pdf((x - self.mean) / self.sd) / self.sd
    }

    /// Cumulative probability `P(X ≤ x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.sd)
    }
}

impl Sampler for Normal {
    type Output = f64;

    /// Polar (Marsaglia) method; one of the pair is discarded to keep the
    /// sampler stateless.
    fn sample(&self, rng: &mut Pcg32) -> f64 {
        loop {
            let u = 2.0 * rng.next_f64() - 1.0;
            let v = 2.0 * rng.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                return self.mean + self.sd * u * factor;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Gamma.
// ---------------------------------------------------------------------------

/// Gamma distribution with shape `k` and scale `θ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a Gamma; both parameters must be positive and finite.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        require(
            shape.is_finite() && shape > 0.0,
            "shape",
            "must be positive",
        )?;
        require(
            scale.is_finite() && scale > 0.0,
            "scale",
            "must be positive",
        )?;
        Ok(Self { shape, scale })
    }

    /// The mean `kθ`.
    pub fn mean(&self) -> f64 {
        self.shape * self.scale
    }
}

impl Sampler for Gamma {
    type Output = f64;

    /// Marsaglia–Tsang squeeze method, with the shape-boost for `k < 1`.
    fn sample(&self, rng: &mut Pcg32) -> f64 {
        let shape = self.shape;
        if shape < 1.0 {
            // Boost: draw Gamma(shape + 1) and scale by U^{1/shape}.
            let boosted = Gamma {
                shape: shape + 1.0,
                scale: self.scale,
            }
            .sample(rng);
            let u: f64 = rng.next_f64().max(f64::MIN_POSITIVE);
            return boosted * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        let normal = Normal::standard();
        loop {
            let x = normal.sample(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = rng.next_f64();
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v * self.scale;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Categorical.
// ---------------------------------------------------------------------------

/// Categorical distribution over `0..k`, normalized from non-negative
/// weights, with Walker alias-method sampling (O(1) per draw).
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    probs: Vec<f64>,
    /// Alias table: per cell, the acceptance threshold and the alias index.
    prob_table: Vec<f64>,
    alias: Vec<usize>,
}

impl Categorical {
    /// Creates a categorical from non-negative weights (at least one must be
    /// positive); weights are normalized internally.
    pub fn new(weights: &[f64]) -> Result<Self> {
        require(!weights.is_empty(), "weights", "must be nonempty")?;
        require(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "weights",
            "must be finite and non-negative",
        )?;
        let total: f64 = weights.iter().sum();
        require(total > 0.0, "weights", "must have positive total")?;
        let k = weights.len();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();

        // Walker/Vose alias construction.
        let mut prob_table = vec![0.0f64; k];
        let mut alias = vec![0usize; k];
        let scaled: Vec<f64> = probs.iter().map(|p| p * k as f64).collect();
        let mut small: Vec<usize> = (0..k).filter(|&i| scaled[i] < 1.0).collect();
        let mut large: Vec<usize> = (0..k).filter(|&i| scaled[i] >= 1.0).collect();
        let mut scaled = scaled;
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            large.pop();
            prob_table[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        for &i in small.iter().chain(large.iter()) {
            prob_table[i] = 1.0;
            alias[i] = i;
        }
        Ok(Self {
            probs,
            prob_table,
            alias,
        })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True when there are no categories (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// The normalized probability vector.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Probability mass at `k` (zero past the last category).
    pub fn pmf(&self, k: usize) -> f64 {
        self.probs.get(k).copied().unwrap_or(0.0)
    }
}

impl Sampler for Categorical {
    type Output = usize;

    fn sample(&self, rng: &mut Pcg32) -> usize {
        let k = self.probs.len();
        let cell = rng.next_below(k as u32) as usize;
        if rng.next_f64() < self.prob_table[cell] {
            cell
        } else {
            self.alias[cell]
        }
    }
}

// ---------------------------------------------------------------------------
// Dirichlet.
// ---------------------------------------------------------------------------

/// Dirichlet distribution over the probability simplex.
#[derive(Debug, Clone, PartialEq)]
pub struct Dirichlet {
    alpha: Vec<f64>,
}

impl Dirichlet {
    /// Creates a Dirichlet from concentration parameters (all positive, at
    /// least two of them).
    pub fn new(alpha: Vec<f64>) -> Result<Self> {
        require(alpha.len() >= 2, "alpha", "needs at least 2 components")?;
        require(
            alpha.iter().all(|a| a.is_finite() && *a > 0.0),
            "alpha",
            "must be positive",
        )?;
        Ok(Self { alpha })
    }

    /// Symmetric Dirichlet with `k` components at concentration `alpha`.
    pub fn symmetric(k: usize, alpha: f64) -> Result<Self> {
        Self::new(vec![alpha; k.max(1)])
    }

    /// The concentration parameters.
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }

    /// The mean vector `αᵢ / Σα`.
    pub fn mean(&self) -> Vec<f64> {
        let total: f64 = self.alpha.iter().sum();
        self.alpha.iter().map(|a| a / total).collect()
    }
}

impl Sampler for Dirichlet {
    type Output = Vec<f64>;

    /// Normalized independent Gamma(αᵢ, 1) draws.
    fn sample(&self, rng: &mut Pcg32) -> Vec<f64> {
        let mut draws: Vec<f64> = self
            .alpha
            .iter()
            .map(|&a| {
                Gamma {
                    shape: a,
                    scale: 1.0,
                }
                .sample(rng)
            })
            .collect();
        let total: f64 = draws.iter().sum();
        if total <= 0.0 {
            // All-underflow corner (tiny α): fall back to the mean.
            return self.mean();
        }
        draws.iter_mut().for_each(|d| *d /= total);
        draws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerics::approx_eq;

    #[test]
    fn constructors_validate() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Dirichlet::new(vec![1.0]).is_err());
        assert!(Dirichlet::new(vec![1.0, 0.0]).is_err());
    }

    #[test]
    fn normal_moments_from_samples() {
        let d = Normal::new(3.0, 2.0).unwrap();
        let mut rng = Pcg32::new(1);
        let xs = d.sample_n(&mut rng, 50_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(approx_eq(mean, 3.0, 0.0, 0.05), "{mean}");
        assert!(approx_eq(var, 4.0, 0.05, 0.0), "{var}");
    }

    #[test]
    fn categorical_alias_matches_weights() {
        let d = Categorical::new(&[1.0, 2.0, 7.0]).unwrap();
        let mut rng = Pcg32::new(2);
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[d.sample(&mut rng)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!(approx_eq(frac, d.pmf(k), 0.05, 0.005), "k={k}: {frac}");
        }
    }

    #[test]
    fn dirichlet_samples_live_on_the_simplex() {
        let d = Dirichlet::symmetric(4, 0.7).unwrap();
        let mut rng = Pcg32::new(3);
        for _ in 0..200 {
            let x = d.sample(&mut rng);
            assert_eq!(x.len(), 4);
            assert!(x.iter().all(|&v| v >= 0.0));
            assert!(approx_eq(x.iter().sum::<f64>(), 1.0, 1e-9, 1e-9));
        }
    }

    #[test]
    fn gamma_small_shape_boost_works() {
        let d = Gamma::new(0.4, 1.0).unwrap();
        let mut rng = Pcg32::new(4);
        let xs = d.sample_n(&mut rng, 30_000);
        assert!(xs.iter().all(|&x| x >= 0.0));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(approx_eq(mean, 0.4, 0.1, 0.0), "{mean}");
    }
}
