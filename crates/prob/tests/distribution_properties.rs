//! Property-based tests of the distribution substrate: CDF monotonicity,
//! density positivity, quantile inversion, and sampling/CDF agreement.

use df_prob::dist::{Categorical, Gamma, Normal, Sampler};
use df_prob::rng::Pcg32;
use df_prob::special::std_normal_cdf;
use proptest::prelude::*;

proptest! {
    #[test]
    fn normal_cdf_is_monotone_and_bounded(
        mean in -50.0f64..50.0,
        sd in 0.1f64..20.0,
        a in -100.0f64..100.0,
        b in -100.0f64..100.0,
    ) {
        let d = Normal::new(mean, sd).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (ca, cb) = (d.cdf(lo), d.cdf(hi));
        prop_assert!((0.0..=1.0).contains(&ca));
        prop_assert!((0.0..=1.0).contains(&cb));
        prop_assert!(ca <= cb + 1e-12);
    }

    #[test]
    fn normal_quantile_inverts_cdf(
        mean in -10.0f64..10.0,
        sd in 0.1f64..5.0,
        p in 0.001f64..0.999,
    ) {
        let d = Normal::new(mean, sd).unwrap();
        let x = d.quantile(p).unwrap();
        prop_assert!((d.cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn normal_pdf_nonnegative_and_symmetric(
        mean in -10.0f64..10.0,
        sd in 0.1f64..5.0,
        dx in 0.0f64..10.0,
    ) {
        let d = Normal::new(mean, sd).unwrap();
        let left = d.pdf(mean - dx);
        let right = d.pdf(mean + dx);
        prop_assert!(left >= 0.0);
        prop_assert!((left - right).abs() <= 1e-12 * left.max(1e-300));
    }

    #[test]
    fn categorical_pmf_matches_normalized_weights(
        weights in proptest::collection::vec(0.01f64..10.0, 2..20),
    ) {
        let d = Categorical::new(&weights).unwrap();
        let sum: f64 = weights.iter().sum();
        for (k, &w) in weights.iter().enumerate() {
            prop_assert!((d.pmf(k) - w / sum).abs() < 1e-12);
        }
        let total: f64 = (0..weights.len()).map(|k| d.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn samples_respect_support(seed in any::<u64>()) {
        let mut rng = Pcg32::new(seed);
        let gamma = Gamma::new(1.5, 2.0).unwrap();
        for _ in 0..50 {
            prop_assert!(gamma.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn erf_consistency_with_normal_cdf(x in -6.0f64..6.0) {
        // Φ(x) computed directly must agree with the distribution object.
        let d = Normal::standard();
        prop_assert!((d.cdf(x) - std_normal_cdf(x)).abs() < 1e-14);
    }

    #[test]
    fn empirical_mean_tracks_analytic(seed in 0u64..1000) {
        let mut rng = Pcg32::new(seed);
        let d = Gamma::new(3.0, 1.5).unwrap();
        let n = 4000;
        let mean = d.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
        // 6-sigma band: sd of mean = sqrt(k θ²/n) ≈ 0.041.
        prop_assert!((mean - d.mean()).abs() < 0.25, "mean {mean}");
    }
}
