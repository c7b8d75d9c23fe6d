//! Ablation B: tightness of the Theorem 3.1/3.2 factor-2 bound.
//!
//! The paper proves ε_subset ≤ 2 ε_full for every nonempty proper subset of
//! the protected attributes. This ablation measures how tight that is in
//! practice — and empirically confirms a *sharper* fact: for exact
//! (count-weighted) marginalization the ratio never exceeds 1. The reason
//! is convexity: `P(y | D) = Σ_E P(y | E, D) P(E | D)` is a convex
//! combination of full-intersection conditionals, all of which lie within a
//! factor `e^ε` of each other for the same outcome, so the marginal ratio is
//! bounded by `e^ε` directly. The paper's factor 2 comes from bounding the
//! numerator and denominator against a shared anchor cell, which is looser.
//! Every table is audited through the `Audit` lattice with the plug-in
//! (Eq. 6) estimator; the 2ε check is the report's `bound_violations`.
//!
//! Run with `cargo run -p df-bench --release --bin ablation_bound`.

use df_core::builder::{Audit, AuditReport, Empirical};
use df_core::JointCounts;
use df_data::workloads::random_joint_counts;
use df_prob::contingency::{Axis, ContingencyTable};
use df_prob::rng::Pcg32;
use df_prob::summary::RunningMoments;

fn main() {
    df_bench::print_header(
        "Ablation B: tightness of the 2*eps subset bound (Theorem 3.2)",
        "2000 random joint tables over outcome x 2 x 3 x 2 attributes",
    );

    let mut rng = Pcg32::new(0xB0BD);
    let mut tightness = RunningMoments::new();
    let mut violations_2eps = 0usize;
    let mut violations_1eps = 0usize;
    for _ in 0..2000 {
        let table = random_joint_counts(&mut rng, 2, &[2, 3, 2], 400).expect("workload");
        let jc = JointCounts::from_table(table, "outcome").expect("joint counts");
        let report = Audit::of(&jc).estimator(Empirical).run().expect("audit");
        let violations = report.bound_violations.as_ref().expect("full lattice");
        violations_2eps += violations.len();
        if let Some(t) = bound_tightness(&report) {
            tightness.push(t);
            if t > 1.0 + 1e-9 {
                violations_1eps += 1;
            }
        }
    }
    println!("violations of the paper's 2*eps bound: {violations_2eps} (theorem guarantees 0)");
    println!("violations of the sharpened 1*eps bound: {violations_1eps} (convexity predicts 0)");
    println!(
        "tightness eps_subset / eps_full: mean {:.3}, sd {:.3}, max {:.4}",
        tightness.mean(),
        tightness.std_dev(),
        tightness.max()
    );
    println!(
        "\nrandom tables sit well below even the sharpened bound: marginalization\n\
         averages per-cell disparities, so subsets are usually *fairer* than the\n\
         full intersection.\n"
    );

    // A family that approaches the sharpened bound (ratio -> 1): skew the
    // conditional P(s2 | s1) so each marginal rides its extreme cell.
    println!("adversarial family (skew -> 1 approaches ratio = 1):");
    for &skew in &[0.5, 0.8, 0.9, 0.99, 0.999] {
        let jc = adversarial_table(0.02, skew);
        let report = Audit::of(&jc).estimator(Empirical).run().expect("audit");
        let full = report.epsilon.epsilon;
        let t = bound_tightness(&report).expect("nontrivial");
        println!("  skew = {skew:<6}: eps_full = {full:.4}, max eps_subset/eps_full = {t:.4}");
    }
    println!(
        "\nconclusion: Theorem 3.2's factor 2 is safe but loose for empirical\n\
         marginals; the attainable worst case is the factor 1 of the convexity\n\
         argument (see df-core::subsets docs), and Table-1-like real data sits\n\
         far below even that."
    );
}

/// The worst `eps_subset / eps_full` over the proper subsets: how tight the
/// factor-2 bound is (at most 2 always, at most 1 by convexity). `None`
/// when eps_full is 0 or infinite.
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

/// Joint where each S1 value concentrates its S2-conditional mass on the
/// cell carrying its extreme outcome rate, driving the S1 marginal toward
/// the full-intersection extremes.
fn adversarial_table(base_rate: f64, skew: f64) -> JointCounts {
    let g: f64 = 1.0;
    let hi = base_rate * (g / 2.0).exp();
    let mid = base_rate;
    let lo = base_rate * (-g / 2.0).exp();
    let total = 1_000_000.0;
    let cells = [
        // (s1, s2, mass, positive rate): s1 = a concentrates on its extreme
        // cell (a, u) with rate hi; s1 = b on (b, v) with rate lo. The
        // off-cells carry the middle rate, so no marginal is trivially at an
        // extreme — only the skew pushes it there.
        (0usize, 0usize, 0.5 * skew, hi),
        (0, 1, 0.5 * (1.0 - skew), mid),
        (1, 0, 0.5 * (1.0 - skew), mid),
        (1, 1, 0.5 * skew, lo),
    ];
    let axes = vec![
        Axis::from_strs("y", &["0", "1"]).expect("axes"),
        Axis::from_strs("s1", &["a", "b"]).expect("axes"),
        Axis::from_strs("s2", &["u", "v"]).expect("axes"),
    ];
    let mut table = ContingencyTable::zeros(axes).expect("table");
    for (s1, s2, mass, rate) in cells {
        table.add(&[1, s1, s2], total * mass * rate);
        table.add(&[0, s1, s2], total * mass * (1.0 - rate));
    }
    JointCounts::from_table(table, "y").expect("joint counts")
}
