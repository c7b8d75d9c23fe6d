//! The intersectionality property: per-subset ε and the Theorem 3.1/3.2
//! guarantee.
//!
//! Theorem 3.2 of the paper: if `M` is ε-DF in `(A, Θ)` with
//! `A = S₁ × … × S_p`, then `M` is 2ε-DF in `(D, Θ)` for **every** nonempty
//! proper subset `D` of the attributes. An [`crate::builder::Audit`] of
//! joint counts computes the exact ε of every subset in its lattice, one
//! [`SubsetEpsilon`] each, and checks the theorem's bound in
//! [`crate::builder::AuditReport::bound_violations`].
//!
//! **A sharper bound.** For conditionals marginalized exactly from the same
//! joint — which is what the audit's lattice computes — the factor 2 can be
//! improved to 1: `P(y|D) = Σ_E P(y|E,D) P(E|D)` is a convex combination of
//! full-intersection conditionals, and for a fixed outcome all of those lie
//! within a multiplicative band of width `e^ε`, so every marginal ratio is
//! bounded by `e^ε` directly. This stronger property can only fail when the
//! subset conditionals are estimated from *different* data than the full
//! intersection's, e.g. under disagreeing smoothing or separate Θ
//! posteriors — then only the paper's 2ε is guaranteed. The
//! `ablation_bound` binary in df-bench explores both bounds empirically.

use crate::epsilon::EpsilonResult;
use serde::{Deserialize, Serialize};

/// ε of one subset of the protected attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubsetEpsilon {
    /// Attribute names in the subset, in declaration order.
    pub attributes: Vec<String>,
    /// The measured ε for this subset.
    pub result: EpsilonResult,
}

impl SubsetEpsilon {
    /// True when this entry covers exactly the named attributes
    /// (order-insensitive) — the lookup predicate behind the builder's
    /// `EstimatorReport::get`.
    pub fn matches(&self, attrs: &[&str]) -> bool {
        self.attributes.len() == attrs.len()
            && attrs.iter().all(|a| self.attributes.iter().any(|b| b == a))
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::{Audit, AuditReport, Empirical, EpsilonEstimator, Smoothed};
    use crate::edf::JointCounts;
    use df_prob::contingency::{Axis, ContingencyTable};
    use df_prob::numerics::approx_eq;
    use df_prob::rng::Pcg32;

    fn table1() -> JointCounts {
        let axes = vec![
            Axis::from_strs("outcome", &["admit", "decline"]).unwrap(),
            Axis::from_strs("gender", &["A", "B"]).unwrap(),
            Axis::from_strs("race", &["1", "2"]).unwrap(),
        ];
        let data = vec![81.0, 192.0, 234.0, 55.0, 6.0, 71.0, 36.0, 25.0];
        JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "outcome")
            .unwrap()
    }

    fn audit(counts: &JointCounts, estimator: impl EpsilonEstimator + 'static) -> AuditReport {
        Audit::of(counts).estimator(estimator).run().unwrap()
    }

    /// The worst `eps_subset / eps_full` over the proper subsets; `None`
    /// when there is no proper subset or eps_full is 0 or infinite.
    fn bound_tightness(report: &AuditReport) -> Option<f64> {
        let (full, proper) = report.estimators[0].subsets.split_last()?;
        let full = full.result.epsilon;
        if full <= 0.0 || !full.is_finite() {
            return None;
        }
        proper
            .iter()
            .map(|s| s.result.epsilon / full)
            .reduce(f64::max)
    }

    #[test]
    fn audit_covers_all_subsets_in_order() {
        let report = audit(&table1(), Empirical);
        let got: Vec<&[String]> = report.estimators[0]
            .subsets
            .iter()
            .map(|s| &s.attributes[..])
            .collect();
        assert_eq!(got, [&["gender"][..], &["race"], &["gender", "race"]]);
        assert_eq!(report.attributes, ["gender", "race"]);
    }

    #[test]
    fn audit_reproduces_paper_values() {
        let report = audit(&table1(), Empirical);
        let eps = |attrs: &[&str]| report.estimators[0].get(attrs).unwrap().result.epsilon;
        assert!(approx_eq(eps(&["gender"]), 0.2329, 1e-3, 0.0));
        assert!(approx_eq(eps(&["race"]), 0.8667, 1e-3, 0.0));
        assert!(approx_eq(eps(&["gender", "race"]), 1.511, 1e-3, 0.0));
        assert_eq!(report.epsilon.epsilon, eps(&["gender", "race"]));
    }

    #[test]
    fn get_is_order_insensitive() {
        let report = audit(&table1(), Empirical);
        let emp = &report.estimators[0];
        assert_eq!(
            emp.get(&["race", "gender"]).unwrap().result.epsilon,
            emp.get(&["gender", "race"]).unwrap().result.epsilon
        );
        assert!(emp.get(&["zip"]).is_none());
    }

    #[test]
    fn theorem_bound_holds_on_table1() {
        let report = audit(&table1(), Empirical);
        assert_eq!(report.bound_violations, Some(vec![]));
        let t = bound_tightness(&report).unwrap();
        assert!(t <= 2.0 + 1e-12);
        // Table 1's marginals are far below the bound: 0.8667 / 1.511 ≈ 0.57.
        assert!(approx_eq(t, 0.8667 / 1.511, 1e-2, 0.0));
    }

    /// Randomized check of Theorem 3.2: for random joint counts over
    /// 3 attributes, every subset ε must be ≤ 2 ε_full.
    #[test]
    fn theorem_bound_holds_on_random_tables() {
        let mut rng = Pcg32::new(2024);
        for trial in 0..50 {
            let axes = vec![
                Axis::from_strs("y", &["0", "1"]).unwrap(),
                Axis::from_strs("a", &["a0", "a1"]).unwrap(),
                Axis::from_strs("b", &["b0", "b1", "b2"]).unwrap(),
                Axis::from_strs("c", &["c0", "c1"]).unwrap(),
            ];
            let cells = 2 * 2 * 3 * 2;
            // Strictly positive counts so every ε is finite.
            let data: Vec<f64> = (0..cells)
                .map(|_| 1.0 + (rng.next_f64() * 500.0).floor())
                .collect();
            let jc = JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y")
                .unwrap();
            let report = audit(&jc, Empirical);
            assert_eq!(report.estimators[0].subsets.len(), 7);
            assert_eq!(
                report.bound_violations,
                Some(vec![]),
                "trial {trial}: subsets exceed 2ε bound"
            );
            // The sharpened convexity bound must hold too for exact
            // marginalization.
            assert!(
                bound_tightness(&report).unwrap() <= 1.0 + 1e-9,
                "trial {trial}: sharpened bound violated"
            );
        }
    }

    #[test]
    fn tightness_none_for_degenerate_cases() {
        // Perfectly fair table → ε_full = 0 → tightness undefined.
        let axes = vec![
            Axis::from_strs("y", &["0", "1"]).unwrap(),
            Axis::from_strs("a", &["a0", "a1"]).unwrap(),
        ];
        let data = vec![10.0, 10.0, 10.0, 10.0];
        let jc =
            JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap();
        let report = audit(&jc, Empirical);
        // Single attribute: only one subset (the full set); tightness over
        // proper subsets is vacuous, and the 2ε check has nothing to flag.
        assert_eq!(report.estimators[0].subsets.len(), 1);
        assert_eq!(report.epsilon.epsilon, 0.0);
        assert!(bound_tightness(&report).is_none());
        assert_eq!(report.bound_violations, Some(vec![]));
    }

    #[test]
    fn smoothed_audit_uses_alpha() {
        let plug_in = audit(&table1(), Empirical);
        let smoothed = audit(&table1(), Smoothed { alpha: 1.0 });
        assert_eq!(smoothed.headline, "eps-DF(a=1)");
        // Smoothing pulls probabilities toward uniform → ε can only shrink
        // here (all counts positive and large, effect small but nonzero).
        assert!(smoothed.epsilon.epsilon < plug_in.epsilon.epsilon);
    }
}
