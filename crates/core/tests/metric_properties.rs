//! Randomized metric laws: properties every registry metric (or a stated
//! subset) must satisfy on arbitrary strictly positive 2×2×2 tables.
//!
//! - **Label-permutation invariance** — relabeling the outcome axis or
//!   either attribute axis permutes cells without changing any
//!   conditional, so every metric's statistic is preserved exactly.
//! - **Ratio dominates difference** — per outcome,
//!   `max_p − min_p ≤ (max_p − min_p)/max_p` since `max_p ≤ 1`, so
//!   `wc-diff ≤ wc-ratio` on every table.
//! - **Product tables are fair** — on `P(y)·P(a)·P(b)` all group
//!   conditionals coincide, so ε-DF, both worst-case statistics, and
//!   per-stratum DEO all vanish (the ratio↔difference consistency pole).
//! - **α-IF interpolates** — `alpha-if(0)` reproduces `wc-ratio`
//!   exactly, and the statistic is monotone in α (the leveling-down term
//!   `1 − min_p` dominates the ratio shortfall).
//! - **2ε subset bound** — where the Theorem 3.2 argument is admitted
//!   (ε-DF), every single-attribute marginal obeys `ε_sub ≤ 2ε_full`.
//!
//! Case budget: `PROPTEST_CASES` (CI pins 64).

use df_core::builder::{Audit, Empirical, SubsetPolicy};
use df_core::metric::metric_from_tag;
use df_core::JointCounts;
use df_prob::contingency::{Axis, ContingencyTable};
use proptest::prelude::*;

/// Every registry metric, instantiated for the y×a×b schema below.
const TAGS: [&str; 5] = [
    "eps-df",
    "wc-ratio",
    "wc-diff",
    "alpha-if(alpha=0.5)",
    "deo(label=b)",
];

fn counts_from(data: Vec<f64>) -> JointCounts {
    let axes = vec![
        Axis::from_strs("y", &["0", "1"]).unwrap(),
        Axis::from_strs("a", &["a0", "a1"]).unwrap(),
        Axis::from_strs("b", &["b0", "b1"]).unwrap(),
    ];
    JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap()
}

/// The plug-in audit of `data` under `tag`, over `policy`'s lattice.
fn audit(tag: &str, data: Vec<f64>, policy: SubsetPolicy) -> df_core::builder::AuditReport {
    Audit::of(&counts_from(data))
        .estimator(Empirical)
        .boxed_metric(metric_from_tag(tag).unwrap())
        .subsets(policy)
        .run()
        .unwrap()
}

fn statistic(tag: &str, data: Vec<f64>) -> f64 {
    audit(tag, data, SubsetPolicy::None).epsilon.epsilon
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Relabeling any axis (layout `[y][a][b]`: rotate the y-planes, swap
    /// the a-halves, swap adjacent b-pairs) preserves every metric.
    #[test]
    fn every_metric_is_invariant_under_label_permutation(
        cells in proptest::collection::vec(1u32..120, 8),
    ) {
        let data: Vec<f64> = cells.into_iter().map(f64::from).collect();

        let mut y_swapped = data.clone();
        y_swapped.rotate_left(4);
        let mut a_swapped = data.clone();
        for plane in 0..2 {
            for j in 0..2 {
                a_swapped.swap(plane * 4 + j, plane * 4 + 2 + j);
            }
        }
        let mut b_swapped = data.clone();
        for pair in 0..4 {
            b_swapped.swap(pair * 2, pair * 2 + 1);
        }

        for tag in TAGS {
            let base = statistic(tag, data.clone());
            for (axis, permuted) in [
                ("y", y_swapped.clone()),
                ("a", a_swapped.clone()),
                ("b", b_swapped.clone()),
            ] {
                let relabeled = statistic(tag, permuted);
                prop_assert!(
                    (base - relabeled).abs() < 1e-12,
                    "{tag}: relabeling {axis} changed the statistic: {base} vs {relabeled}"
                );
            }
        }
    }

    /// `wc-diff ≤ wc-ratio` everywhere: dividing the per-outcome gap by
    /// `max_p ≤ 1` can only grow it.
    #[test]
    fn difference_never_exceeds_ratio(
        cells in proptest::collection::vec(1u32..120, 8),
    ) {
        let data: Vec<f64> = cells.into_iter().map(f64::from).collect();
        let diff = statistic("wc-diff", data.clone());
        let ratio = statistic("wc-ratio", data);
        prop_assert!(
            diff <= ratio + 1e-12,
            "wc-diff {diff} exceeds wc-ratio {ratio}"
        );
    }

    /// On outer-product tables every group conditional coincides, so the
    /// ratio and difference views agree at their shared zero — along with
    /// ε-DF and per-stratum DEO. (`alpha-if(alpha>0)` is exempt: its
    /// leveling-down term `1 − min_p` measures absolute attainment, not
    /// disparity, and stays positive on fair tables by design.)
    #[test]
    fn disparity_metrics_vanish_on_product_tables(
        y_weights in proptest::collection::vec(1u32..50, 2),
        g_weights in proptest::collection::vec(1u32..50, 4),
    ) {
        let mut data = Vec::with_capacity(8);
        for &y in &y_weights {
            for &g in &g_weights {
                data.push(f64::from(y) * f64::from(g));
            }
        }
        for tag in ["eps-df", "wc-ratio", "wc-diff", "alpha-if(alpha=0)", "deo(label=b)"] {
            let s = statistic(tag, data.clone());
            prop_assert!(
                s.abs() < 1e-12,
                "{tag}: statistic {s} should vanish on a product table"
            );
        }
    }

    /// `alpha-if(0)` IS `wc-ratio` (bit-for-bit: the α = 0 blend keeps
    /// only the ratio-shortfall term), and the statistic grows with α.
    #[test]
    fn alpha_interpolation_starts_at_ratio_and_is_monotone(
        cells in proptest::collection::vec(1u32..120, 8),
    ) {
        let data: Vec<f64> = cells.into_iter().map(f64::from).collect();
        let ratio = statistic("wc-ratio", data.clone());
        let at_zero = statistic("alpha-if(alpha=0)", data.clone());
        prop_assert!(
            at_zero.to_bits() == ratio.to_bits(),
            "alpha-if(0) must reproduce wc-ratio exactly: {at_zero} vs {ratio}"
        );
        let mut last = at_zero;
        for alpha in ["0.25", "0.5", "0.75", "1"] {
            let next = statistic(&format!("alpha-if(alpha={alpha})"), data.clone());
            prop_assert!(
                next + 1e-12 >= last,
                "alpha-if is not monotone in alpha at {alpha}: {next} < {last}"
            );
            last = next;
        }
    }

    /// Theorem 3.2 where it is admitted: under ε-DF every single-attribute
    /// marginal's ε is at most twice the full intersection's.
    #[test]
    fn eps_df_marginals_respect_the_2eps_bound(
        cells in proptest::collection::vec(1u32..200, 8),
    ) {
        let data: Vec<f64> = cells.into_iter().map(f64::from).collect();
        let report = audit("eps-df", data, SubsetPolicy::All);
        let full = report.epsilon.epsilon;
        for attrs in [&["a"][..], &["b"][..]] {
            let sub = report.estimators[0].get(attrs).unwrap().result.epsilon;
            prop_assert!(
                sub <= 2.0 * full + 1e-9,
                "subset {attrs:?}: {sub} exceeds 2×{full}"
            );
        }
    }
}
