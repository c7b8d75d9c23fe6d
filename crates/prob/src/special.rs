//! Special functions: log-gamma, incomplete gamma, error function, and the
//! normal CDF and its inverse. The chain `ln_gamma` → `gamma_p`/`gamma_q` →
//! `erf`/`erfc` → [`std_normal_cdf`] is what [`crate::dist::Normal`] runs.
//!
//! Implementations are self-contained (no libm beyond `std`) and accurate to
//! ~1e-13 relative error in the ranges exercised by the workspace, verified
//! against high-precision reference values in the tests below.

use crate::error::{ProbError, Result};
use crate::numerics::{exactly_one, exactly_zero};

/// Lanczos coefficients (g = 7, n = 9), Boost/GSL-compatible.
const LANCZOS_G: f64 = 7.0;
const LANCZOS_COEF: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0` (Lanczos approximation).
///
/// Accurate to better than 1e-13 relative error for `x ∈ (0, 170]`.
pub fn ln_gamma(x: f64) -> f64 {
    debug_assert!(x > 0.0, "ln_gamma domain is x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula keeps precision near zero.
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = LANCZOS_COEF[0];
        let t = x + LANCZOS_G + 0.5;
        for (i, &c) in LANCZOS_COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

const GAMMA_EPS: f64 = 1e-15;
const GAMMA_MAX_ITER: usize = 500;

/// Regularized lower incomplete gamma function P(a, x), for `a > 0`, `x ≥ 0`.
pub fn gamma_p(a: f64, x: f64) -> Result<f64> {
    if a <= 0.0 {
        return Err(ProbError::InvalidParameter {
            name: "a",
            reason: format!("must be positive, got {a}"),
        });
    }
    if x < 0.0 {
        return Err(ProbError::InvalidParameter {
            name: "x",
            reason: format!("must be non-negative, got {x}"),
        });
    }
    if exactly_zero(x) {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        Ok(1.0 - gamma_q_contfrac(a, x)?)
    }
}

/// Regularized upper incomplete gamma function Q(a, x) = 1 − P(a, x).
pub fn gamma_q(a: f64, x: f64) -> Result<f64> {
    if a <= 0.0 {
        return Err(ProbError::InvalidParameter {
            name: "a",
            reason: format!("must be positive, got {a}"),
        });
    }
    if x < 0.0 {
        return Err(ProbError::InvalidParameter {
            name: "x",
            reason: format!("must be non-negative, got {x}"),
        });
    }
    if exactly_zero(x) {
        return Ok(1.0);
    }
    if x < a + 1.0 {
        Ok(1.0 - gamma_p_series(a, x)?)
    } else {
        gamma_q_contfrac(a, x)
    }
}

/// Series expansion of P(a, x), convergent for x < a + 1.
fn gamma_p_series(a: f64, x: f64) -> Result<f64> {
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..GAMMA_MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * GAMMA_EPS {
            let log_prefix = -x + a * x.ln() - ln_gamma(a);
            return Ok((sum * log_prefix.exp()).clamp(0.0, 1.0));
        }
    }
    Err(ProbError::NoConvergence {
        algorithm: "gamma_p_series",
        iterations: GAMMA_MAX_ITER,
    })
}

/// Continued-fraction (modified Lentz) evaluation of Q(a, x), for x ≥ a + 1.
fn gamma_q_contfrac(a: f64, x: f64) -> Result<f64> {
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=GAMMA_MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < GAMMA_EPS {
            let log_prefix = -x + a * x.ln() - ln_gamma(a);
            return Ok((h * log_prefix.exp()).clamp(0.0, 1.0));
        }
    }
    Err(ProbError::NoConvergence {
        algorithm: "gamma_q_contfrac",
        iterations: GAMMA_MAX_ITER,
    })
}

/// Error function, via the regularized incomplete gamma function:
/// `erf(x) = sign(x) · P(1/2, x²)`.
pub fn erf(x: f64) -> f64 {
    if exactly_zero(x) {
        return 0.0;
    }
    let p = gamma_p(0.5, x * x).expect("gamma_p(0.5, x^2) cannot fail for finite x");
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// Complementary error function `1 − erf(x)`, accurate in the upper tail.
pub fn erfc(x: f64) -> f64 {
    if exactly_zero(x) {
        return 1.0;
    }
    if x > 0.0 {
        gamma_q(0.5, x * x).expect("gamma_q(0.5, x^2) cannot fail for finite x")
    } else {
        2.0 - erfc(-x)
    }
}

/// Standard normal cumulative distribution function Φ(x).
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal probability density function φ(x).
pub fn std_normal_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Inverse of the standard normal CDF (the probit function).
///
/// Acklam's rational approximation (|rel. err.| < 1.15e-9) refined with one
/// Halley step against [`std_normal_cdf`], giving near machine precision for
/// `p ∈ (0, 1)`. Returns `±∞` at the endpoints.
pub fn std_normal_quantile(p: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        return Err(ProbError::InvalidParameter {
            name: "p",
            reason: format!("must lie in [0, 1], got {p}"),
        });
    }
    if exactly_zero(p) {
        return Ok(f64::NEG_INFINITY);
    }
    if exactly_one(p) {
        return Ok(f64::INFINITY);
    }

    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step: x_{n+1} = x_n - f/(f' - f·f''/(2f')) with
    // f = Φ(x) - p.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    Ok(x - u / (1.0 + x * u / 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerics::approx_eq;

    #[test]
    fn ln_gamma_integer_factorials() {
        // Γ(n) = (n-1)!
        let mut fact = 1.0_f64;
        for n in 1..15 {
            assert!(
                approx_eq(ln_gamma(n as f64), fact.ln(), 1e-12, 1e-12),
                "n={n}"
            );
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!(approx_eq(ln_gamma(0.5), sqrt_pi.ln(), 1e-12, 0.0));
        // Γ(3/2) = √π / 2
        assert!(approx_eq(ln_gamma(1.5), (sqrt_pi / 2.0).ln(), 1e-12, 1e-13));
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x)  ⇒  lnΓ(x+1) = ln x + lnΓ(x)
        for i in 1..200 {
            let x = i as f64 * 0.37;
            assert!(
                approx_eq(ln_gamma(x + 1.0), x.ln() + ln_gamma(x), 1e-11, 1e-11),
                "x={x}"
            );
        }
    }

    #[test]
    fn erf_reference_values() {
        // Reference values computed with mpmath to 15 digits.
        let cases = [
            (0.5, 0.520_499_877_813_046_5),
            (1.0, 0.842_700_792_949_714_9),
            (1.5, 0.966_105_146_475_310_7),
            (2.0, 0.995_322_265_018_952_7),
            (3.0, 0.999_977_909_503_001_4),
        ];
        for (x, want) in cases {
            assert!(approx_eq(erf(x), want, 1e-12, 1e-14), "x={x}: {}", erf(x));
            assert!(approx_eq(erf(-x), -want, 1e-12, 1e-14));
        }
    }

    #[test]
    fn erfc_upper_tail_accuracy() {
        // erfc(5) = 1.537459794428035e-12 — catastrophic for 1 - erf.
        assert!(approx_eq(erfc(5.0), 1.537_459_794_428_035e-12, 1e-9, 0.0));
    }

    #[test]
    fn normal_cdf_symmetry_and_known_points() {
        assert!(approx_eq(std_normal_cdf(0.0), 0.5, 1e-14, 0.0));
        // Φ(1.959964) ≈ 0.975
        assert!(approx_eq(
            std_normal_cdf(1.959_963_984_540_054),
            0.975,
            1e-10,
            0.0
        ));
        for i in -40..=40 {
            let x = i as f64 / 10.0;
            assert!(approx_eq(
                std_normal_cdf(x) + std_normal_cdf(-x),
                1.0,
                1e-13,
                1e-14
            ));
        }
    }

    #[test]
    fn figure2_worked_example_probabilities() {
        // The paper's Figure 2: P(yes|group1) = 1 - Φ(0.5) = 0.3085,
        // P(yes|group2) = 1 - Φ(-1.5) = 0.9332.
        assert!(approx_eq(1.0 - std_normal_cdf(0.5), 0.3085, 1e-4, 1e-4));
        assert!(approx_eq(1.0 - std_normal_cdf(-1.5), 0.9332, 1e-4, 1e-4));
    }

    #[test]
    fn quantile_inverts_cdf() {
        for i in 1..999 {
            let p = i as f64 / 1000.0;
            let x = std_normal_quantile(p).unwrap();
            assert!(
                approx_eq(std_normal_cdf(x), p, 1e-12, 1e-13),
                "p={p}, x={x}, cdf={}",
                std_normal_cdf(x)
            );
        }
    }

    #[test]
    fn quantile_extreme_tails() {
        let x = std_normal_quantile(1e-12).unwrap();
        assert!(approx_eq(std_normal_cdf(x), 1e-12, 1e-6, 0.0));
        assert_eq!(std_normal_quantile(0.0).unwrap(), f64::NEG_INFINITY);
        assert_eq!(std_normal_quantile(1.0).unwrap(), f64::INFINITY);
        assert!(std_normal_quantile(-0.1).is_err());
        assert!(std_normal_quantile(1.1).is_err());
    }

    #[test]
    fn gamma_p_q_sum_to_one() {
        for &a in &[0.3, 0.5, 1.0, 2.5, 10.0, 50.0] {
            for &x in &[0.1, 0.5, 1.0, 3.0, 10.0, 60.0] {
                let p = gamma_p(a, x).unwrap();
                let q = gamma_q(a, x).unwrap();
                assert!(approx_eq(p + q, 1.0, 1e-12, 1e-12), "a={a}, x={x}");
            }
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // P(1, x) = 1 - e^{-x}
        for &x in &[0.1, 1.0, 2.0, 5.0] {
            assert!(approx_eq(
                gamma_p(1.0, x).unwrap(),
                1.0 - (-x).exp(),
                1e-12,
                1e-14
            ));
        }
    }

    #[test]
    fn gamma_domain_errors() {
        assert!(gamma_p(0.0, 1.0).is_err());
        assert!(gamma_p(-1.0, 1.0).is_err());
        assert!(gamma_p(1.0, -0.5).is_err());
    }
}
