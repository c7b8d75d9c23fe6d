//! # df-core — differential fairness
//!
//! A faithful, production-quality implementation of
//! *An Intersectional Definition of Fairness* (Foulds & Pan, ICDE 2020).
//!
//! The paper defines a mechanism `M(x)` to be **ε-differentially fair (DF)**
//! in a framework `(A, Θ)` when, for every plausible data distribution
//! θ ∈ Θ, every outcome `y`, and every pair of *intersectional* protected
//! groups `sᵢ, sⱼ ∈ A` with positive probability,
//!
//! ```text
//! e^-ε ≤ P(M(x) = y | sᵢ, θ) / P(M(x) = y | sⱼ, θ) ≤ e^ε.
//! ```
//!
//! This crate provides:
//!
//! - [`epsilon`]: the ε kernel over group×outcome probability tables.
//! - [`edf`]: empirical DF from joint counts (Eq. 6) and Dirichlet-smoothed
//!   DF (Eq. 7), with per-subset marginalization.
//! - [`subsets`]: the intersectionality property (Theorem 3.1 / 3.2) — ε on
//!   every nonempty subset of the protected attributes, plus bound checks.
//! - [`theta`]: distribution classes Θ (point estimates, posterior samples)
//!   and the supremum ε over Θ.
//! - [`mechanism`]: the mechanism abstraction and estimation of
//!   group-conditional outcome probabilities from data.
//! - [`privacy`]: the Bayesian privacy interpretation (Eq. 4), expected
//!   utility disparity (Eq. 5), and the randomized-response calibration.
//! - [`amplification`]: bias amplification ε₂ − ε₁ (§4.1).
//! - [`data_fairness`]: DF of labeled datasets (Definitions 4.1 / 4.2).
//! - [`equalized`]: differential equalized odds — the error-rate analogue
//!   the paper names as future work (§7.1).
//! - [`bootstrap`]: frequentist confidence intervals for ε̂.
//! - [`metric`]: the generic fairness-metric layer — ε-DF, worst-case
//!   ratio/difference (Ghosh et al. 2021), α-intersectional fairness with
//!   leveling-down diagnostics (Maheshwari et al. 2023), and differential
//!   equalized odds, all interchangeable across audits, monitors, and
//!   fleet snapshots.
//! - [`monitor`]: online sliding-window ε over a prediction stream, with
//!   an exponentially-decayed trend horizon, hysteresis alerting, and
//!   shard-mergeable snapshots.
//! - [`baselines`]: the fairness definitions §7 compares against
//!   (demographic parity, disparate impact, equalized odds, subgroup
//!   fairness).
//! - [`builder`]: the fluent [`builder::Audit`] API — composable
//!   ε-estimation strategies behind one entry point, producing a unified
//!   serializable [`builder::AuditReport`].
//! - [`report`]: plain-text / markdown table rendering.
//!
//! ## Quick start
//!
//! ```
//! use df_core::builder::{Audit, Baselines, Empirical, Smoothed};
//! use df_core::JointCounts;
//! use df_prob::contingency::Axis;
//!
//! let counts = JointCounts::from_records(
//!     Axis::from_strs("outcome", &["deny", "approve"]).unwrap(),
//!     vec![Axis::from_strs("gender", &["F", "M"]).unwrap()],
//!     vec![
//!         ("approve", vec!["F"]),
//!         ("deny", vec!["F"]),
//!         ("approve", vec!["M"]),
//!         ("approve", vec!["M"]),
//!     ],
//! )
//! .unwrap();
//!
//! // Eq. 6 and Eq. 7 side by side, every subset, bootstrap CI, baselines.
//! let report = Audit::of(&counts)
//!     .estimator(Empirical)
//!     .estimator(Smoothed { alpha: 1.0 })
//!     .bootstrap(50, 7)
//!     .baselines(Baselines::all().positive("approve"))
//!     .run()
//!     .unwrap();
//! assert_eq!(report.n_records, Some(4));
//! assert!(report.epsilon.is_finite());
//! println!("{}", report.render_subset_table());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amplification;
pub mod baselines;
pub mod bootstrap;
pub mod builder;
pub mod data_fairness;
pub mod edf;
pub mod epsilon;
pub mod equalized;
pub mod error;
pub mod fleet;
pub mod mechanism;
pub mod metric;
pub mod monitor;
pub mod privacy;
pub mod report;
pub mod stream;
pub mod subsets;
pub mod theta;

pub use builder::{Audit, AuditReport, EpsilonEstimator};
pub use edf::JointCounts;
pub use epsilon::{EpsilonResult, EpsilonWitness, GroupOutcomes};
pub use error::{DfError, Result};
pub use metric::{metric_from_tag, EpsilonDf, Metric};
