//! Numerically stable scalar primitives.
//!
//! Differential fairness is computed from ratios of small probabilities:
//! [`log_ratio`] fixes Definition 3.1's conventions at zero, and
//! [`stable_sum`] totals each group's counts. The learners' losses use the
//! stable softplus [`log1p_exp`] and [`sigmoid`]. Exact float comparisons
//! go through the named helpers ([`exactly_zero`] and friends), closeness
//! checks through [`approx_eq`].

/// Computes `ln(1 + e^x)` without overflow for large `x` or cancellation for
/// very negative `x` (the "softplus" function).
#[inline]
pub fn log1p_exp(x: f64) -> f64 {
    if x > 33.3 {
        // e^-x is below machine epsilon relative to x.
        x
    } else if x > -37.0 {
        x.exp().ln_1p()
    } else {
        // ln(1 + e^x) ≈ e^x for very negative x.
        x.exp()
    }
}

/// The logistic sigmoid `1 / (1 + e^{-x})`, stable at both tails.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Inverse of [`sigmoid`]: `ln(p / (1-p))`.
///
/// Returns `±∞` at the endpoints, NaN outside `[0, 1]`.
#[inline]
pub fn logit(p: f64) -> f64 {
    (p / (1.0 - p)).ln()
}

/// Log of the ratio `p / q` with the conventions needed by differential
/// fairness (Definition 3.1 of the paper):
///
/// - both zero → `0.0` (the pair imposes no constraint; 0/0 groups are
///   excluded by the `P(s|θ) > 0` side condition upstream, and a shared
///   impossible outcome is vacuously fair),
/// - `p > 0, q == 0` → `+∞` (unboundedly unfair),
/// - `p == 0, q > 0` → `-∞`.
#[inline]
pub fn log_ratio(p: f64, q: f64) -> f64 {
    debug_assert!(p >= 0.0 && q >= 0.0, "log_ratio expects probabilities");
    if p == 0.0 && q == 0.0 {
        0.0
    } else if q == 0.0 {
        f64::INFINITY
    } else if p == 0.0 {
        f64::NEG_INFINITY
    } else {
        (p / q).ln()
    }
}

/// Kahan–Babuška compensated summation.
///
/// Keeps `O(1)` error on long, mixed-magnitude sums such as probability-mass
/// accumulations over large contingency tables.
#[derive(Debug, Clone, Copy, Default)]
pub struct KahanSum {
    sum: f64,
    compensation: f64,
}

impl KahanSum {
    /// Creates an empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one term.
    #[inline]
    pub fn add(&mut self, x: f64) {
        let t = self.sum + x;
        if self.sum.abs() >= x.abs() {
            self.compensation += (self.sum - t) + x;
        } else {
            self.compensation += (x - t) + self.sum;
        }
        self.sum = t;
    }

    /// Current compensated value of the sum.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.compensation
    }
}

impl FromIterator<f64> for KahanSum {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut acc = KahanSum::new();
        for x in iter {
            acc.add(x);
        }
        acc
    }
}

/// Sums a slice with compensated summation.
pub fn stable_sum(xs: &[f64]) -> f64 {
    xs.iter().copied().collect::<KahanSum>().value()
}

/// Exact float equality as a named, reviewable operation.
///
/// The `no-float-eq` lint bans bare `==`/`!=` against float literals
/// because most such sites *should* be tolerance checks. The sites that
/// genuinely want bit-for-bit semantics — sentinel values, "is this
/// probability exactly the degenerate endpoint", guards before division
/// — route through these helpers instead, so every exact comparison in
/// the tree is a deliberate, greppable decision. For closeness checks
/// use [`approx_eq`].
#[inline]
pub fn exactly(a: f64, b: f64) -> bool {
    a == b
}

/// `x` is exactly `0.0` (or `-0.0`). See [`exactly`] for why this is a
/// named operation. Typical use: guarding a division or skipping empty
/// probability cells, where only the true zero is special.
#[inline]
pub fn exactly_zero(x: f64) -> bool {
    x == 0.0
}

/// `x` is exactly `1.0`. See [`exactly`].
#[inline]
pub fn exactly_one(x: f64) -> bool {
    x == 1.0
}

/// Relative closeness check used in tests and convergence criteria:
/// `|a - b| <= atol + rtol * max(|a|, |b|)`.
#[inline]
pub fn approx_eq(a: f64, b: f64, rtol: f64, atol: f64) -> bool {
    if a == b {
        return true; // covers infinities of equal sign
    }
    (a - b).abs() <= atol + rtol * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log1p_exp_matches_naive_in_safe_range() {
        for i in -300..300 {
            let x = i as f64 / 10.0;
            let naive = (1.0 + x.exp()).ln();
            assert!(
                approx_eq(log1p_exp(x), naive, 1e-12, 1e-14),
                "x={x}: {} vs {}",
                log1p_exp(x),
                naive
            );
        }
    }

    #[test]
    fn log1p_exp_extremes() {
        assert_eq!(log1p_exp(1000.0), 1000.0);
        assert!(log1p_exp(-1000.0) >= 0.0);
        assert!(log1p_exp(-1000.0) < 1e-300);
    }

    #[test]
    fn sigmoid_logit_roundtrip() {
        for i in 1..100 {
            let p = i as f64 / 100.0;
            assert!(approx_eq(sigmoid(logit(p)), p, 1e-12, 1e-14));
        }
    }

    #[test]
    fn sigmoid_tails_do_not_overflow() {
        assert_eq!(sigmoid(800.0), 1.0);
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(-800.0) < 1e-300);
    }

    #[test]
    fn log_ratio_conventions() {
        assert_eq!(log_ratio(0.0, 0.0), 0.0);
        assert_eq!(log_ratio(0.5, 0.0), f64::INFINITY);
        assert_eq!(log_ratio(0.0, 0.5), f64::NEG_INFINITY);
        assert!(approx_eq(log_ratio(0.6, 0.3), 2.0_f64.ln(), 1e-14, 0.0));
    }

    #[test]
    fn kahan_beats_naive_on_adversarial_sum() {
        // 1.0 followed by many tiny values that naive summation drops.
        let tiny = 1e-16;
        let n = 100_000;
        let mut xs = vec![1.0];
        xs.extend(std::iter::repeat_n(tiny, n));
        let exact = 1.0 + tiny * n as f64;
        let kahan = stable_sum(&xs);
        assert!(
            approx_eq(kahan, exact, 1e-12, 0.0),
            "kahan={kahan}, exact={exact}"
        );
    }
}
