//! The intersectionality property: per-subset ε and the Theorem 3.1/3.2
//! guarantee.
//!
//! Theorem 3.2 of the paper: if `M` is ε-DF in `(A, Θ)` with
//! `A = S₁ × … × S_p`, then `M` is 2ε-DF in `(D, Θ)` for **every** nonempty
//! proper subset `D` of the attributes. [`subset_audit`] computes the exact ε
//! for each subset from joint counts; [`SubsetAudit::verify_bound`] checks
//! the theorem's bound empirically.
//!
//! **A sharper bound.** For conditionals marginalized exactly from the same
//! joint — which is what [`subset_audit`] computes — the factor 2 can be
//! improved to 1: `P(y|D) = Σ_E P(y|E,D) P(E|D)` is a convex combination of
//! full-intersection conditionals, and for a fixed outcome all of those lie
//! within a multiplicative band of width `e^ε`, so every marginal ratio is
//! bounded by `e^ε` directly. [`SubsetAudit::verify_sharpened_bound`] checks
//! this stronger property (it can only fail when the subset conditionals are
//! estimated from *different* data than the full intersection's, e.g. under
//! disagreeing smoothing or separate Θ posteriors — then only the paper's 2ε
//! is guaranteed). The `ablation_bound` binary in df-bench explores both
//! bounds empirically.

use crate::builder::SubsetPolicy;
use crate::edf::JointCounts;
use crate::epsilon::EpsilonResult;
use crate::error::Result;
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
    /// (order-insensitive) — the lookup predicate shared by
    /// [`SubsetAudit::get`] and the builder's `EstimatorReport::get`.
    pub fn matches(&self, attrs: &[&str]) -> bool {
        self.attributes.len() == attrs.len()
            && attrs.iter().all(|a| self.attributes.iter().any(|b| b == a))
    }
}

/// Per-subset ε for every nonempty subset of the protected attributes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SubsetAudit {
    /// Smoothing parameter α used (0 = Eq. 6, > 0 = Eq. 7).
    pub alpha: f64,
    /// Results, ordered by subset size then declaration order; the last
    /// entry is the full intersection `A`.
    pub subsets: Vec<SubsetEpsilon>,
}

impl SubsetAudit {
    /// ε of the full intersection `A`.
    pub fn full_intersection(&self) -> &SubsetEpsilon {
        self.subsets
            .last()
            .expect("audit always contains the full set")
    }

    /// Looks up a subset by attribute names (order-insensitive).
    pub fn get(&self, attrs: &[&str]) -> Option<&SubsetEpsilon> {
        self.subsets.iter().find(|s| s.matches(attrs))
    }

    /// Checks Theorem 3.2: every proper subset's ε is at most `2ε_full`
    /// (up to `tol` of floating slack). Returns the violating subsets, empty
    /// when the theorem's guarantee holds — as it must for correctly
    /// marginalized counts.
    pub fn verify_bound(&self, tol: f64) -> Vec<&SubsetEpsilon> {
        let full = self.full_intersection().result.epsilon;
        let bound = 2.0 * full;
        self.subsets[..self.subsets.len() - 1]
            .iter()
            .filter(|s| s.result.epsilon > bound + tol)
            .collect()
    }

    /// Checks the sharpened factor-1 bound (see the module docs): every
    /// proper subset's ε is at most `ε_full + tol`. Holds for exactly
    /// marginalized counts; returns violators otherwise.
    pub fn verify_sharpened_bound(&self, tol: f64) -> Vec<&SubsetEpsilon> {
        let full = self.full_intersection().result.epsilon;
        self.subsets[..self.subsets.len() - 1]
            .iter()
            .filter(|s| s.result.epsilon > full + tol)
            .collect()
    }

    /// The worst-case ratio `ε_subset / ε_full` over proper subsets — a
    /// tightness measure for the factor-2 bound (≤ 2 always; = 2 only when
    /// the bound is tight). Returns `None` when ε_full is 0 or infinite.
    pub fn bound_tightness(&self) -> Option<f64> {
        let full = self.full_intersection().result.epsilon;
        if full <= 0.0 || !full.is_finite() {
            return None;
        }
        self.subsets[..self.subsets.len() - 1]
            .iter()
            .map(|s| s.result.epsilon / full)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }
}

/// Computes ε for every nonempty subset of the protected attributes in
/// `counts`, with Dirichlet smoothing `alpha` (0 disables smoothing).
///
/// Cost is `O(2^p)` marginalizations; each marginalization touches every
/// cell of the joint table once. More than 31 attributes is an error.
pub fn subset_audit(counts: &JointCounts, alpha: f64) -> Result<SubsetAudit> {
    let lattice = SubsetPolicy::All.lattice(&counts.attribute_names())?;
    let mut subsets = Vec::with_capacity(lattice.len());
    for attributes in lattice {
        let attrs: Vec<&str> = attributes.iter().map(String::as_str).collect();
        let result = counts.edf_subset(&attrs, alpha)?;
        subsets.push(SubsetEpsilon { attributes, result });
    }
    Ok(SubsetAudit { alpha, subsets })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn audit_covers_all_subsets_in_order() {
        let audit = subset_audit(&table1(), 0.0).unwrap();
        let got: Vec<Vec<String>> = audit.subsets.iter().map(|s| s.attributes.clone()).collect();
        assert_eq!(
            got,
            vec![
                vec!["gender".to_string()],
                vec!["race".to_string()],
                vec!["gender".to_string(), "race".to_string()],
            ]
        );
        assert_eq!(audit.full_intersection().attributes.len(), 2);
    }

    #[test]
    fn audit_reproduces_paper_values() {
        let audit = subset_audit(&table1(), 0.0).unwrap();
        let eps = |attrs: &[&str]| audit.get(attrs).unwrap().result.epsilon;
        assert!(approx_eq(eps(&["gender"]), 0.2329, 1e-3, 0.0));
        assert!(approx_eq(eps(&["race"]), 0.8667, 1e-3, 0.0));
        assert!(approx_eq(eps(&["gender", "race"]), 1.511, 1e-3, 0.0));
    }

    #[test]
    fn get_is_order_insensitive() {
        let audit = subset_audit(&table1(), 0.0).unwrap();
        assert_eq!(
            audit.get(&["race", "gender"]).unwrap().result.epsilon,
            audit.get(&["gender", "race"]).unwrap().result.epsilon
        );
        assert!(audit.get(&["zip"]).is_none());
    }

    #[test]
    fn theorem_bound_holds_on_table1() {
        let audit = subset_audit(&table1(), 0.0).unwrap();
        assert!(audit.verify_bound(1e-12).is_empty());
        let t = audit.bound_tightness().unwrap();
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
            let audit = subset_audit(&jc, 0.0).unwrap();
            assert_eq!(audit.subsets.len(), 7);
            let violations = audit.verify_bound(1e-9);
            assert!(
                violations.is_empty(),
                "trial {trial}: subsets {:?} exceed 2ε bound",
                violations
                    .iter()
                    .map(|v| (&v.attributes, v.result.epsilon))
                    .collect::<Vec<_>>()
            );
            // The sharpened convexity bound must hold too for exact
            // marginalization.
            assert!(
                audit.verify_sharpened_bound(1e-9).is_empty(),
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
        let audit = subset_audit(&jc, 0.0).unwrap();
        // Single attribute: only one subset (the full set); tightness over
        // proper subsets is vacuous.
        assert!(audit.bound_tightness().is_none());
    }

    #[test]
    fn smoothed_audit_uses_alpha() {
        let audit0 = subset_audit(&table1(), 0.0).unwrap();
        let audit1 = subset_audit(&table1(), 1.0).unwrap();
        assert_eq!(audit1.alpha, 1.0);
        // Smoothing pulls probabilities toward uniform → ε can only shrink
        // here (all counts positive and large, effect small but nonzero).
        assert!(
            audit1.full_intersection().result.epsilon < audit0.full_intersection().result.epsilon
        );
    }
}
