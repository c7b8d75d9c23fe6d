//! Bootstrap confidence intervals for empirical differential fairness.
//!
//! EDF is a plug-in functional of the joint counts, and its max-of-ratios
//! form makes it upward-biased and noisy on rare intersections (see the
//! `ablation_sample_size` experiment). This module quantifies that
//! uncertainty frequentistly, complementing the Bayesian route of
//! [`crate::theta`]: resample records (multinomial bootstrap over the cells)
//! and report percentile intervals for ε̂.

use crate::edf::JointCounts;
use crate::error::{DfError, Result};
use df_prob::contingency::ContingencyTable;
use df_prob::numerics::exactly_zero;
use df_prob::rng::Pcg32;
use serde::{Deserialize, Serialize};

/// Result of a bootstrap run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BootstrapEpsilon {
    /// The point estimate on the original counts.
    pub point: f64,
    /// Bootstrap replicate ε values (finite and infinite alike).
    pub replicates: Vec<f64>,
    /// Number of replicates that came out infinite (rare-cell dropout).
    pub infinite_replicates: usize,
    /// Requested interval mass.
    pub mass: f64,
    /// Percentile interval over the **full** replicate multiset, with `+∞`
    /// ranked last: when infinite replicates reach into the upper tail the
    /// upper bound is honestly `inf` instead of silently falling back to
    /// the largest finite replicate (which biased the CI low exactly on
    /// the sparse tables where the CI matters most).
    pub interval: (f64, f64),
}

impl BootstrapEpsilon {
    /// Bootstrap standard error over the finite replicates, or `None` when
    /// fewer than two finite replicates exist — the spread of an (almost)
    /// always-infinite estimator is not a number callers should format
    /// into reports.
    pub fn std_error(&self) -> Option<f64> {
        let finite: Vec<f64> = self
            .replicates
            .iter()
            .copied()
            .filter(|e| e.is_finite())
            .collect();
        if finite.len() < 2 {
            return None;
        }
        let mean = finite.iter().sum::<f64>() / finite.len() as f64;
        Some(
            (finite.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (finite.len() - 1) as f64)
                .sqrt(),
        )
    }
}

/// Type-7 percentile of an ascending-sorted sample that may end in a run
/// of `+∞` entries. Matches [`df_prob::summary::quantile`] on all-finite
/// input; when either interpolation endpoint is infinite the result is
/// `+∞` (no `∞ − ∞` arithmetic), so infinities rank strictly last.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    let h = (sorted.len() - 1) as f64 * q;
    let lo = sorted[h.floor() as usize];
    let hi = sorted[h.ceil() as usize];
    let frac = h - h.floor();
    if exactly_zero(frac) || lo == hi {
        lo
    } else if hi.is_infinite() {
        hi
    } else {
        lo + frac * (hi - lo)
    }
}

/// Multinomial bootstrap of ε̂ from joint counts.
///
/// Each replicate redraws `N = total` records from the empirical cell
/// distribution and recomputes ε with the given smoothing α. `mass` is the
/// central interval probability (e.g. 0.95).
pub fn bootstrap_epsilon(
    counts: &JointCounts,
    alpha: f64,
    replicates: usize,
    mass: f64,
    rng: &mut Pcg32,
) -> Result<BootstrapEpsilon> {
    bootstrap_epsilon_with(counts, replicates, mass, rng, &|jc| {
        Ok(jc.edf_smoothed(alpha)?.epsilon)
    })
}

/// One multinomial resample of `n` records over the cell CDF, scored by
/// `estimate`.
fn one_replicate(
    table: &ContingencyTable,
    cdf: &[f64],
    n: usize,
    rng: &mut Pcg32,
    estimate: &dyn Fn(&JointCounts) -> Result<f64>,
) -> Result<f64> {
    let mut resampled = vec![0.0f64; cdf.len()];
    for _ in 0..n {
        let u = rng.next_f64();
        // Binary search the CDF.
        let mut lo = 0usize;
        let mut hi = cdf.len() - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cdf[mid] < u {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        resampled[lo] += 1.0;
    }
    let rep_table = ContingencyTable::from_data(table.axes().to_vec(), resampled)?;
    let rep = JointCounts::from_table(rep_table, table.axes()[0].name())?;
    estimate(&rep)
}

/// Multinomial bootstrap of ε̂ under a caller-supplied estimator: each
/// replicate resamples the joint counts and re-runs `estimate`. This is the
/// engine behind [`bootstrap_epsilon`] (estimate = Eq. 7 at a fixed α) and
/// the [`crate::builder`] bootstrap stage (estimate = whatever
/// `EpsilonEstimator` the audit is configured with).
///
/// Each replicate runs on its own [`Pcg32`] stream, forked from `rng` in
/// replicate order, so the replicate list is a pure function of the seed.
pub fn bootstrap_epsilon_with(
    counts: &JointCounts,
    replicates: usize,
    mass: f64,
    rng: &mut Pcg32,
    estimate: &dyn Fn(&JointCounts) -> Result<f64>,
) -> Result<BootstrapEpsilon> {
    if replicates < 10 {
        return Err(DfError::Invalid(
            "need at least 10 bootstrap replicates".into(),
        ));
    }
    if !(0.0..1.0).contains(&mass) || mass <= 0.0 {
        return Err(DfError::Invalid(format!(
            "interval mass must lie in (0, 1), got {mass}"
        )));
    }
    let table = counts.table();
    let total = table.total();
    if total <= 0.0 {
        return Err(DfError::Invalid("empty counts".into()));
    }
    let n = total.round() as usize;
    let cells = table.data();
    // Cumulative distribution over cells for inverse-CDF sampling.
    let mut cdf = Vec::with_capacity(cells.len());
    let mut acc = 0.0;
    for &c in cells {
        acc += c / total;
        cdf.push(acc);
    }

    let point = estimate(counts)?;

    let mut eps_values = Vec::with_capacity(replicates);
    let mut infinite = 0usize;
    for _ in 0..replicates {
        // One independent stream per replicate, forked in replicate order.
        let e = one_replicate(table, &cdf, n, &mut rng.fork(), estimate)?;
        if e.is_finite() {
            eps_values.push(e);
        } else {
            infinite += 1;
            eps_values.push(f64::INFINITY);
        }
    }

    // Rank the FULL replicate multiset with +∞ ordered last (no NaN can
    // occur: non-finite estimates were canonicalized to +∞ above). The old
    // behavior — dropping infinite replicates before taking percentiles —
    // reported a finite upper bound even when a nontrivial fraction of
    // replicates diverged, understating the uncertainty precisely on the
    // sparse tables where it matters.
    let mut sorted = eps_values.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("replicates are never NaN"));
    let tail = (1.0 - mass) / 2.0;
    let interval = (
        percentile_sorted(&sorted, tail),
        percentile_sorted(&sorted, 1.0 - tail),
    );
    Ok(BootstrapEpsilon {
        point,
        replicates: eps_values,
        infinite_replicates: infinite,
        mass,
        interval,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_prob::contingency::Axis;

    fn counts(scale: f64) -> JointCounts {
        let axes = vec![
            Axis::from_strs("y", &["0", "1"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ];
        let data = vec![40.0 * scale, 60.0 * scale, 60.0 * scale, 40.0 * scale];
        JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap()
    }

    #[test]
    fn interval_brackets_truth_and_narrows_with_n() {
        let truth = (0.6_f64 / 0.4).ln();
        let mut rng = Pcg32::new(5);
        let small = bootstrap_epsilon(&counts(1.0), 0.0, 200, 0.9, &mut rng).unwrap();
        let large = bootstrap_epsilon(&counts(100.0), 0.0, 200, 0.9, &mut rng).unwrap();
        assert!(small.interval.0 <= truth && truth <= small.interval.1);
        assert!(large.interval.0 <= truth && truth <= large.interval.1);
        let width_small = small.interval.1 - small.interval.0;
        let width_large = large.interval.1 - large.interval.0;
        assert!(
            width_large < width_small / 3.0,
            "large-N interval {width_large} should be much narrower than {width_small}"
        );
    }

    #[test]
    fn std_error_shrinks_with_n() {
        let mut rng = Pcg32::new(6);
        let small = bootstrap_epsilon(&counts(1.0), 1.0, 200, 0.9, &mut rng).unwrap();
        let large = bootstrap_epsilon(&counts(100.0), 1.0, 200, 0.9, &mut rng).unwrap();
        assert!(large.std_error().unwrap() < small.std_error().unwrap());
    }

    #[test]
    fn std_error_is_none_without_two_finite_replicates() {
        let degenerate = BootstrapEpsilon {
            point: f64::INFINITY,
            replicates: vec![f64::INFINITY; 9].into_iter().chain([1.0]).collect(),
            infinite_replicates: 9,
            mass: 0.9,
            interval: (1.0, f64::INFINITY),
        };
        assert_eq!(degenerate.std_error(), None);
    }

    #[test]
    fn infinite_upper_tail_forces_infinite_upper_bound() {
        // A 1-count cell in a 10-record table drops out of ≈ 35% of
        // multinomial resamples, so far more than the upper 5% of replicate
        // ranks are +∞ — the honest 90% percentile upper bound is inf.
        let axes = vec![
            Axis::from_strs("y", &["0", "1"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ];
        let data = vec![5.0, 1.0, 2.0, 2.0];
        let jc =
            JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap();
        let mut rng = Pcg32::new(13);
        let b = bootstrap_epsilon(&jc, 0.0, 200, 0.9, &mut rng).unwrap();
        assert!(b.infinite_replicates > 10, "{}", b.infinite_replicates);
        assert!(
            b.interval.1.is_infinite(),
            "upper bound must be inf, got {}",
            b.interval.1
        );
        assert!(b.interval.0.is_finite(), "lower bound {}", b.interval.0);
        assert_eq!(
            b.replicates.iter().filter(|e| e.is_infinite()).count(),
            b.infinite_replicates
        );
        // The infinite bound survives a JSON round-trip intact.
        let json = serde_json::to_string(&b).unwrap();
        let back: BootstrapEpsilon = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
        assert!(back.interval.1.is_infinite());
    }

    #[test]
    fn finite_replicates_keep_the_previous_interval() {
        // On a fully populated table the full-multiset ranking degenerates
        // to the old finite-only percentile — the fix changes nothing when
        // no replicate diverges.
        let mut rng = Pcg32::new(5);
        let b = bootstrap_epsilon(&counts(10.0), 0.0, 200, 0.9, &mut rng).unwrap();
        assert_eq!(b.infinite_replicates, 0);
        let finite: Vec<f64> = b.replicates.clone();
        let expect = (
            df_prob::summary::quantile(&finite, 0.05).unwrap(),
            df_prob::summary::quantile(&finite, 0.95).unwrap(),
        );
        assert_eq!(b.interval, expect);
    }

    #[test]
    fn infinite_replicates_are_counted() {
        // A rare cell (1 count) often drops out of resamples → Eq. 6
        // replicates go infinite; smoothing fixes it.
        let axes = vec![
            Axis::from_strs("y", &["0", "1"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ];
        let data = vec![30.0, 1.0, 15.0, 15.0];
        let jc =
            JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap();
        let mut rng = Pcg32::new(7);
        let raw = bootstrap_epsilon(&jc, 0.0, 200, 0.9, &mut rng).unwrap();
        assert!(raw.infinite_replicates > 0);
        let smoothed = bootstrap_epsilon(&jc, 1.0, 200, 0.9, &mut rng).unwrap();
        assert_eq!(smoothed.infinite_replicates, 0);
    }

    #[test]
    fn validates_arguments() {
        let mut rng = Pcg32::new(8);
        assert!(bootstrap_epsilon(&counts(1.0), 0.0, 5, 0.9, &mut rng).is_err());
        assert!(bootstrap_epsilon(&counts(1.0), 0.0, 100, 1.5, &mut rng).is_err());
        assert!(bootstrap_epsilon(&counts(1.0), 0.0, 100, 0.0, &mut rng).is_err());
    }

    #[test]
    fn replicate_count_is_exact() {
        let mut rng = Pcg32::new(9);
        let b = bootstrap_epsilon(&counts(1.0), 1.0, 50, 0.8, &mut rng).unwrap();
        assert_eq!(b.replicates.len(), 50);
        assert_eq!(b.mass, 0.8);
        assert!(b.point.is_finite());
    }
}
