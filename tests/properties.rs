//! Property-based tests of the core invariants, driven by proptest.

use differential_fairness::prelude::*;
use proptest::prelude::*;

/// Strategy: joint counts over outcome(2) × a(2) × b(3) as 12 cells in
/// [0, 60], with at least one positive cell per (a, b) group so groups are
/// populated (unpopulated groups are covered by unit tests).
fn joint_counts_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0u32..60, 12).prop_map(|cells| {
        let mut data: Vec<f64> = cells.into_iter().map(f64::from).collect();
        // Ensure every group column has some mass: bump y=0 cell if empty.
        for g in 0..6 {
            if data[g] + data[6 + g] == 0.0 {
                data[g] = 1.0;
            }
        }
        data
    })
}

fn counts_from(data: Vec<f64>) -> JointCounts {
    let axes = vec![
        Axis::from_strs("y", &["0", "1"]).unwrap(),
        Axis::from_strs("a", &["a0", "a1"]).unwrap(),
        Axis::from_strs("b", &["b0", "b1", "b2"]).unwrap(),
    ];
    JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap()
}

proptest! {
    /// ε is non-negative, and exp(-ε) ≤ every realized ratio ≤ exp(ε).
    #[test]
    fn epsilon_is_a_valid_bound(data in joint_counts_strategy()) {
        let jc = counts_from(data);
        let go = jc.group_outcomes(0.0).unwrap();
        let eps = go.epsilon();
        prop_assert!(eps.epsilon >= 0.0);
        if eps.is_finite() {
            let bound = eps.epsilon + 1e-9;
            for y in 0..go.num_outcomes() {
                for &i in &go.populated_groups() {
                    for &j in &go.populated_groups() {
                        let (pi, pj) = (go.prob(i, y), go.prob(j, y));
                        if pi > 0.0 && pj > 0.0 {
                            prop_assert!((pi / pj).ln().abs() <= bound);
                        }
                    }
                }
            }
        }
    }

    /// Scaling all counts by a constant leaves EDF unchanged.
    #[test]
    fn edf_is_scale_invariant(data in joint_counts_strategy(), scale in 1u32..50) {
        let base = counts_from(data.clone()).edf().unwrap().epsilon;
        let scaled_data: Vec<f64> = data.iter().map(|&v| v * f64::from(scale)).collect();
        let scaled = counts_from(scaled_data).edf().unwrap().epsilon;
        if base.is_finite() {
            prop_assert!((base - scaled).abs() < 1e-10);
        } else {
            prop_assert!(scaled.is_infinite());
        }
    }

    /// The paper's Theorem 3.2 (2ε) and the sharpened convexity bound (1ε):
    /// every subset ε is at most the full-intersection ε.
    #[test]
    fn subset_bounds_hold(data in joint_counts_strategy()) {
        let jc = counts_from(data);
        let report = Audit::of(&jc).estimator(Empirical).run().unwrap();
        let full = report.epsilon.epsilon;
        for s in &report.estimators[0].subsets {
            // Holds with infinities: subset ∞ implies full ∞.
            prop_assert!(
                s.result.epsilon <= full + 1e-9 || (s.result.epsilon.is_infinite() && full.is_infinite()),
                "subset {:?} eps {} > full {}", s.attributes, s.result.epsilon, full
            );
        }
        prop_assert_eq!(report.bound_violations, Some(vec![]));
    }

    /// Smoothing: ε is finite for any α > 0 and vanishes as α → ∞ (every
    /// group's posterior predictive collapses to uniform). Note ε(α) is
    /// *not* globally monotone in α — groups with equal rates but different
    /// sizes diverge under smoothing — so only the limits are asserted.
    #[test]
    fn smoothing_is_finite_and_vanishes_in_the_limit(data in joint_counts_strategy()) {
        let jc = counts_from(data);
        for alpha in [0.5, 2.0, 8.0] {
            prop_assert!(jc.edf_smoothed(alpha).unwrap().epsilon.is_finite());
        }
        let huge = jc.edf_smoothed(1e7).unwrap().epsilon;
        prop_assert!(huge < 1e-4, "alpha → ∞ should give ε → 0, got {huge}");
    }

    /// α → 0 convergence to EDF on strictly positive tables.
    #[test]
    fn smoothing_converges_to_edf(cells in proptest::collection::vec(1u32..60, 12)) {
        let data: Vec<f64> = cells.into_iter().map(f64::from).collect();
        let jc = counts_from(data);
        let edf = jc.edf().unwrap().epsilon;
        let tiny = jc.edf_smoothed(1e-7).unwrap().epsilon;
        prop_assert!((edf - tiny).abs() < 1e-4, "edf {edf} vs tiny-alpha {tiny}");
    }

    /// Group order must not matter: permuting the attribute axes preserves
    /// the full-intersection ε.
    #[test]
    fn epsilon_invariant_to_axis_order(data in joint_counts_strategy()) {
        let jc = counts_from(data.clone());
        let eps_ab = jc.edf().unwrap().epsilon;
        // Rebuild with axes (b, a): reindex cells accordingly.
        let mut permuted = vec![0.0; 12];
        for y in 0..2 {
            for a in 0..2 {
                for b in 0..3 {
                    // original flat: ((y*2)+a)*3 + b; permuted: ((y*3)+b)*2 + a
                    permuted[(y * 3 + b) * 2 + a] = data[(y * 2 + a) * 3 + b];
                }
            }
        }
        let axes = vec![
            Axis::from_strs("y", &["0", "1"]).unwrap(),
            Axis::from_strs("b", &["b0", "b1", "b2"]).unwrap(),
            Axis::from_strs("a", &["a0", "a1"]).unwrap(),
        ];
        let jc2 = JointCounts::from_table(
            ContingencyTable::from_data(axes, permuted).unwrap(),
            "y",
        )
        .unwrap();
        let eps_ba = jc2.edf().unwrap().epsilon;
        if eps_ab.is_finite() {
            prop_assert!((eps_ab - eps_ba).abs() < 1e-10);
        } else {
            prop_assert!(eps_ba.is_infinite());
        }
    }

    /// The privacy identity (Eq. 4): the worst posterior-odds shift equals
    /// ε exactly, for any group weights.
    #[test]
    fn posterior_odds_shift_equals_epsilon(
        probs in proptest::collection::vec(0.01f64..0.99, 3),
        weights in proptest::collection::vec(1u32..100, 3),
    ) {
        let flat: Vec<f64> = probs
            .iter()
            .flat_map(|&p| vec![1.0 - p, p])
            .collect();
        let go = GroupOutcomes::new(
            vec!["no".into(), "yes".into()],
            vec!["g1".into(), "g2".into(), "g3".into()],
            flat,
            weights.into_iter().map(f64::from).collect(),
        )
        .unwrap();
        let eps = go.epsilon().epsilon;
        let shift =
            differential_fairness::core::privacy::max_posterior_odds_shift(&go).unwrap();
        prop_assert!((eps - shift).abs() < 1e-9, "eps {eps} vs shift {shift}");
    }

    /// Eq. 5: expected-utility disparity is bounded by e^ε for random
    /// non-negative utilities.
    #[test]
    fn utility_disparity_bounded(
        probs in proptest::collection::vec(0.01f64..0.99, 3),
        utility in proptest::collection::vec(0.0f64..10.0, 2),
    ) {
        let flat: Vec<f64> = probs
            .iter()
            .flat_map(|&p| vec![1.0 - p, p])
            .collect();
        let go = GroupOutcomes::with_uniform_weights(
            vec!["no".into(), "yes".into()],
            vec!["g1".into(), "g2".into(), "g3".into()],
            flat,
        )
        .unwrap();
        let eps = go.epsilon();
        let disparity =
            differential_fairness::core::privacy::max_utility_disparity(&go, &utility)
                .unwrap();
        prop_assert!(disparity <= eps.probability_ratio_bound() + 1e-9);
    }

    /// Contingency marginalization preserves total mass and commutes with
    /// further marginalization.
    #[test]
    fn marginalization_composes(data in joint_counts_strategy()) {
        let axes = vec![
            Axis::from_strs("y", &["0", "1"]).unwrap(),
            Axis::from_strs("a", &["a0", "a1"]).unwrap(),
            Axis::from_strs("b", &["b0", "b1", "b2"]).unwrap(),
        ];
        let t = ContingencyTable::from_data(axes, data).unwrap();
        let m1 = t.marginalize(&["y", "a"]).unwrap();
        prop_assert!((m1.total() - t.total()).abs() < 1e-9);
        // (y,a,b) → (y,a) → (y)  ==  (y,a,b) → (y)
        let via = m1.marginalize(&["y"]).unwrap();
        let direct = t.marginalize(&["y"]).unwrap();
        for k in 0..2 {
            prop_assert!((via.get(&[k]) - direct.get(&[k])).abs() < 1e-9);
        }
    }

    /// The PCG32 stream is stable across clones and divergent across seeds.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = Pcg32::new(seed);
        let mut b = a.clone();
        for _ in 0..16 {
            prop_assert_eq!(a.next_u32_raw(), b.next_u32_raw());
        }
        let mut c = Pcg32::new(seed.wrapping_add(1));
        let matches = (0..16).filter(|_| a.next_u32_raw() == c.next_u32_raw()).count();
        prop_assert!(matches < 8);
    }

    /// BiasAmplification algebra: delta and factor are consistent.
    #[test]
    fn amplification_algebra(e1 in 0.0f64..5.0, e2 in 0.0f64..5.0) {
        let amp = BiasAmplification::new(e2, e1);
        prop_assert!((amp.delta() - (e2 - e1)).abs() < 1e-12);
        prop_assert!((amp.utility_disparity_factor() - (e2 - e1).exp()).abs() < 1e-9);
        prop_assert_eq!(amp.amplifies(), e2 > e1);
    }
}
