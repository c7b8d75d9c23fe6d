//! The "fairness gerrymandering" scenario (§7.1 of the paper, after Kearns
//! et al.): demographic parity can hold on every marginal while an
//! intersection is maximally mistreated. These tests certify that DF and
//! the subgroup-fairness baseline both catch it — the paper's motivation
//! for protecting intersections explicitly.

use df_core::baselines::{demographic_parity_distance, subgroup_fairness_violation};
use df_core::builder::{Audit, Empirical};
use df_core::JointCounts;
use df_prob::contingency::{Axis, ContingencyTable};

/// A gerrymandered joint: marginals perfectly fair, the (a,x)/(b,y)
/// diagonal always favored, the anti-diagonal never. `leak` softens the
/// extremes so ε stays finite.
fn gerrymandered(leak: f64) -> JointCounts {
    let axes = vec![
        Axis::from_strs("y", &["no", "yes"]).unwrap(),
        Axis::from_strs("g1", &["a", "b"]).unwrap(),
        Axis::from_strs("g2", &["x", "y"]).unwrap(),
    ];
    let hi = 1.0 - leak;
    let lo = leak;
    let n = 1000.0;
    #[rustfmt::skip]
    let data = vec![
        // y=no: (a,x) (a,y) (b,x) (b,y)
        n * (1.0 - hi), n * (1.0 - lo), n * (1.0 - lo), n * (1.0 - hi),
        // y=yes
        n * hi, n * lo, n * lo, n * hi,
    ];
    JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap()
}

#[test]
fn marginals_look_fair_but_intersection_is_not() {
    let jc = gerrymandered(0.05);
    let report = Audit::of(&jc).estimator(Empirical).run().unwrap();

    // Each marginal alone: exactly fair (ε = 0).
    for attrs in [&["g1"][..], &["g2"][..]] {
        let eps = report.estimators[0].get(attrs).unwrap().result.epsilon;
        assert!(
            eps.abs() < 1e-10,
            "marginal {attrs:?} should look perfectly fair, got {eps}"
        );
    }
    // The intersection: ln(0.95/0.05) ≈ 2.944 — flagrant.
    let full = report.epsilon.epsilon;
    assert!((full - (0.95_f64 / 0.05).ln()).abs() < 1e-9);

    // Demographic parity over the intersections also sees it, but
    // understates the ratio disparity (TV = 0.9 vs e^ε = 19x).
    let go = jc.group_outcomes(0.0).unwrap();
    let tv = demographic_parity_distance(&go);
    assert!((tv - 0.9).abs() < 1e-9);
}

#[test]
fn subgroup_audit_ranks_the_gerrymandered_conjunction_first() {
    let jc = gerrymandered(0.05);
    let violations = subgroup_fairness_violation(&jc, "yes").unwrap();
    // The top-weighted violations are conjunctions, not marginals.
    assert!(violations[0].subgroup.contains(", "));
    assert!(violations[0].weighted > 0.1);
    // All marginal subgroups have ~zero gap.
    for v in &violations {
        if !v.subgroup.contains(", ") {
            assert!(
                v.rate_gap.abs() < 1e-9,
                "marginal {} should have no gap",
                v.subgroup
            );
        }
    }
}

#[test]
fn theorem_bound_direction_is_the_useful_one() {
    // Theorem 3.1 transfers guarantees downward (intersection → marginal),
    // never upward: fair marginals do NOT certify the intersection. The
    // gerrymandered table realizes the extreme of that asymmetry, which is
    // exactly why the paper defines fairness at the intersection.
    let jc = gerrymandered(0.05);
    let report = Audit::of(&jc).estimator(Empirical).run().unwrap();
    let full = report.epsilon.epsilon;
    // Downward: every subset within 2ε (trivially, they're 0).
    assert_eq!(report.bound_violations, Some(vec![]));
    // Upward would be false: subsets at 0 while the intersection is 2.94.
    assert!(full > 2.9);
}

#[test]
fn leak_controls_the_severity_smoothly() {
    let mut last = f64::INFINITY;
    for leak in [0.05, 0.1, 0.2, 0.4] {
        let eps = gerrymandered(leak).edf().unwrap().epsilon;
        assert!(eps < last, "ε should fall as the gerrymander weakens");
        last = eps;
    }
    // Fully mixed (leak 0.5) is perfectly fair.
    let eps = gerrymandered(0.5).edf().unwrap().epsilon;
    assert!(eps.abs() < 1e-10);
}
