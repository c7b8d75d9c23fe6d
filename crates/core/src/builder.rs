//! The fluent audit builder: one composable entry point for everything the
//! paper computes.
//!
//! [`Audit`] composes every stage of an audit in a single chain:
//!
//! ```
//! use df_core::builder::{Audit, Baselines, Smoothed};
//! use df_core::JointCounts;
//! use df_prob::contingency::{Axis, ContingencyTable};
//!
//! // The paper's Table 1 joint counts.
//! let axes = vec![
//!     Axis::from_strs("outcome", &["admit", "decline"]).unwrap(),
//!     Axis::from_strs("gender", &["A", "B"]).unwrap(),
//!     Axis::from_strs("race", &["1", "2"]).unwrap(),
//! ];
//! let data = vec![81.0, 192.0, 234.0, 55.0, 6.0, 71.0, 36.0, 25.0];
//! let counts = JointCounts::from_table(
//!     ContingencyTable::from_data(axes, data).unwrap(), "outcome").unwrap();
//!
//! let report = Audit::of(&counts)
//!     .estimator(Smoothed { alpha: 1.0 })
//!     .baselines(Baselines::all().positive("admit"))
//!     .run()
//!     .unwrap();
//! assert_eq!(report.n_records, Some(700));
//! assert!(report.epsilon.epsilon > 1.0);
//! ```
//!
//! The key abstraction is [`EpsilonEstimator`]: Eq. 6 ([`Empirical`]),
//! Eq. 7 ([`Smoothed`]), and the supremum over a posterior Θ class
//! ([`PosteriorSup`], Definition 3.1 taken seriously in the spirit of
//! Foulds et al.'s Bayesian treatment) become interchangeable strategies
//! instead of parallel code paths. Every configured estimator is evaluated
//! on every subset of the protected attributes dictated by the
//! [`SubsetPolicy`] — the worst-case subset reporting of Theorems 3.1/3.2 —
//! and the results land in one serializable [`AuditReport`].

use crate::amplification::BiasAmplification;
use crate::baselines::{
    demographic_parity_distance, disparate_impact_ratio, subgroup_fairness_violation,
    SubgroupViolation,
};
use crate::bootstrap::{bootstrap_epsilon_sharded, BootstrapEpsilon};
use crate::edf::{GroupLayout, JointCounts, LatticeTables};
use crate::epsilon::{EpsilonResult, GroupOutcomes};
use crate::equalized::EqualizedOddsCounts;
use crate::error::{DfError, Result};
use crate::mechanism::{estimate_group_outcomes, Mechanism};
use crate::metric::{EpsilonDf, Metric};
use crate::privacy::PrivacyRegime;
use crate::report::{fmt_count, fmt_epsilon, Align, ResponseFormat, TextTable};
use crate::subsets::SubsetEpsilon;
use crate::theta::posterior_theta_from_table;
use df_prob::numerics::{exactly_zero, log_ratio};
use df_prob::partial::Tally;
use df_prob::rng::Pcg32;
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Estimators.
// ---------------------------------------------------------------------------

/// A strategy for turning a *raw* group-outcome table (MLE probabilities
/// with group-total weights, as produced by
/// [`JointCounts::group_outcomes`]`(0.0)` or a mechanism tally) into an ε
/// certificate.
///
/// The trait is object-safe so audits can hold a heterogeneous list of
/// strategies; implementations recover per-group counts from the table via
/// [`GroupOutcomes::implied_counts`] when they need them (smoothing,
/// posterior sampling). `Send + Sync` is required so the bootstrap stage
/// can evaluate the headline estimator from worker threads
/// (see [`Audit::bootstrap_threads`]).
pub trait EpsilonEstimator: Send + Sync {
    /// Short display name used in report columns (e.g. `eps-DF(a=1)`).
    fn name(&self) -> String;

    /// The point probability table this estimator induces — used for the
    /// baseline metrics (demographic parity, disparate impact) so they are
    /// measured on the same distribution as ε.
    fn estimate_table(&self, raw: &GroupOutcomes) -> Result<GroupOutcomes>;

    /// The ε certificate for the raw table.
    fn estimate(&self, raw: &GroupOutcomes) -> Result<EpsilonResult> {
        Ok(self.estimate_table(raw)?.epsilon())
    }

    /// Clones the strategy behind the trait object — what lets one
    /// monitor configuration be replicated across fleet shards (every
    /// shard must certify ε with the *same* estimator, or merging their
    /// snapshots would compare incomparable numbers).
    fn clone_box(&self) -> Box<dyn EpsilonEstimator>;
}

impl Clone for Box<dyn EpsilonEstimator> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Eq. 6: the plug-in (maximum-likelihood) estimator — ε of the raw table.
#[derive(Debug, Clone, Copy, Default)]
pub struct Empirical;

impl EpsilonEstimator for Empirical {
    fn name(&self) -> String {
        "eps-EDF".to_string()
    }

    fn estimate_table(&self, raw: &GroupOutcomes) -> Result<GroupOutcomes> {
        Ok(raw.clone())
    }

    /// ε of the raw table itself, read in place rather than through a copy.
    fn estimate(&self, raw: &GroupOutcomes) -> Result<EpsilonResult> {
        Ok(raw.epsilon())
    }

    fn clone_box(&self) -> Box<dyn EpsilonEstimator> {
        Box::new(*self)
    }
}

/// Eq. 7: the Dirichlet-multinomial posterior predictive
/// `(N_y + α) / (N + |Y|α)` per group.
#[derive(Debug, Clone, Copy)]
pub struct Smoothed {
    /// Symmetric prior concentration per outcome (the paper uses α = 1).
    pub alpha: f64,
}

impl EpsilonEstimator for Smoothed {
    fn name(&self) -> String {
        format!("eps-DF(a={})", self.alpha)
    }

    fn estimate_table(&self, raw: &GroupOutcomes) -> Result<GroupOutcomes> {
        raw.smoothed(self.alpha)
    }

    fn clone_box(&self) -> Box<dyn EpsilonEstimator> {
        Box::new(*self)
    }
}

/// The supremum of ε over a posterior Θ class (Definition 3.1's
/// "for all θ ∈ Θ"), with Θ instantiated as `samples` Dirichlet(α)
/// posterior draws of each populated group's outcome distribution — the
/// Bayesian instantiation the paper sketches in §3 footnote 2.
///
/// Deterministic: the draws are seeded by `seed` (per estimated table), so
/// the same audit configuration always yields the same certificate.
#[derive(Debug, Clone, Copy)]
pub struct PosteriorSup {
    /// Symmetric Dirichlet prior concentration.
    pub alpha: f64,
    /// Number of posterior draws forming Θ.
    pub samples: usize,
    /// RNG seed for the draws.
    pub seed: u64,
}

impl EpsilonEstimator for PosteriorSup {
    fn name(&self) -> String {
        format!("eps-sup(a={},m={})", self.alpha, self.samples)
    }

    fn estimate_table(&self, raw: &GroupOutcomes) -> Result<GroupOutcomes> {
        // The posterior-predictive table is the posterior mean — the point
        // summary consistent with the Θ class below.
        raw.smoothed(self.alpha)
    }

    fn estimate(&self, raw: &GroupOutcomes) -> Result<EpsilonResult> {
        let mut rng = Pcg32::new(self.seed);
        let theta = posterior_theta_from_table(raw, self.alpha, self.samples, &mut rng)?;
        theta.epsilon()
    }

    fn clone_box(&self) -> Box<dyn EpsilonEstimator> {
        Box::new(*self)
    }
}

// ---------------------------------------------------------------------------
// Configuration stages.
// ---------------------------------------------------------------------------

/// Which subsets of the protected attributes to audit (Theorems 3.1/3.2's
/// intersectionality property).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SubsetPolicy {
    /// Every nonempty subset — `2^p − 1` tables, the paper's Table 2 layout.
    /// Enables the Theorem 3.2 bound check.
    All,
    /// Subsets of at most the given size, plus the full intersection.
    UpTo {
        /// Maximum subset cardinality to audit (besides the full set).
        size: usize,
    },
    /// Only the full intersection.
    None,
}

impl SubsetPolicy {
    /// The attribute subsets this policy audits, each listed in `names`
    /// order: by size, then by bitmask over `names`, so the full
    /// intersection is always last. Reports, snapshots and DFLT frames
    /// match subsets by position in this order, so every audit path takes
    /// its lattice from here. Masks are `u32`, so more than 31 attributes
    /// is a typed error.
    pub(crate) fn lattice(self, names: &[&str]) -> Result<Vec<Vec<String>>> {
        let p = names.len();
        check_mask_width(p)?;
        let limit = match self {
            SubsetPolicy::All => p,
            SubsetPolicy::UpTo { size } => size.min(p),
            SubsetPolicy::None => 0,
        };
        let mut masks: Vec<u32> = (1..(1u32 << p))
            .filter(|m| {
                let ones = m.count_ones() as usize;
                ones <= limit || ones == p
            })
            .collect();
        masks.sort_by_key(|m| (m.count_ones(), *m));
        Ok(masks
            .into_iter()
            .map(|mask| {
                (0..p)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| names[i].to_string())
                    .collect()
            })
            .collect())
    }
}

/// Refuses more than 31 protected attributes: every subset walk indexes
/// attributes by the bits of a `u32` mask.
pub(crate) fn check_mask_width(p: usize) -> Result<()> {
    if p > 31 {
        return Err(DfError::Invalid(format!(
            "the subset lattice supports at most 31 protected attributes, got {p}"
        )));
    }
    Ok(())
}

/// Which comparison baselines (§7 of the paper) to compute.
#[derive(Debug, Clone, Default)]
pub struct Baselines {
    demographic_parity: bool,
    disparate_impact: bool,
    subgroups: bool,
    positive: Option<String>,
}

impl Baselines {
    /// No baselines.
    pub fn none() -> Self {
        Self::default()
    }

    /// Every baseline; the ones needing a positive outcome (disparate
    /// impact, Kearns-style subgroup parity) additionally require
    /// [`Baselines::positive`].
    pub fn all() -> Self {
        Self {
            demographic_parity: true,
            disparate_impact: true,
            subgroups: true,
            positive: None,
        }
    }

    /// Just the demographic-parity (total-variation) distance.
    pub fn demographic_parity() -> Self {
        Self {
            demographic_parity: true,
            ..Self::default()
        }
    }

    /// Names the outcome treated as positive/advantaged.
    pub fn positive(mut self, label: impl Into<String>) -> Self {
        self.positive = Some(label.into());
        self
    }

    /// Toggles the Kearns-style subgroup parity audit (needs joint counts
    /// and a positive outcome; the most expensive baseline).
    pub fn with_subgroups(mut self, on: bool) -> Self {
        self.subgroups = on;
        self
    }
}

// ---------------------------------------------------------------------------
// The builder.
// ---------------------------------------------------------------------------

enum Source<'a> {
    /// Borrowed joint counts: the full subset lattice is available.
    Counts(&'a JointCounts),
    /// Owned joint counts (e.g. assembled from a data frame).
    OwnedCounts(JointCounts),
    /// A flat raw tally table (e.g. a mechanism estimate): no attribute
    /// factorization, so subset auditing and bootstrap are unavailable.
    Table(GroupOutcomes),
}

/// Fluent audit builder; see the [module docs](self) for an example.
///
/// Entry points: [`Audit::of`] (joint counts), [`Audit::of_table`] (a raw
/// group-outcome table), [`Audit::of_mechanism`] (tally a mechanism over
/// labeled instances). The facade crate adds `Audit::of_frame` for
/// data-frame sources. Chain configuration stages, then call
/// [`Audit::run`].
pub struct Audit<'a> {
    source: Source<'a>,
    estimators: Vec<Box<dyn EpsilonEstimator>>,
    metric: Option<Box<dyn Metric>>,
    subsets: Option<SubsetPolicy>,
    bootstrap: Option<(usize, u64)>,
    bootstrap_threads: usize,
    baselines: Baselines,
    equalized: Option<(EqualizedOddsCounts, f64)>,
    reference_epsilon: Option<f64>,
}

/// Scans a counts table for NaN/infinite/negative cells, which would
/// otherwise propagate NaN silently into ε. (`ContingencyTable::from_data`
/// validates, but `add` is unchecked for tally speed, so externally
/// assembled counts can be corrupt.)
fn validate_counts(counts: &JointCounts) -> Result<()> {
    match counts
        .table()
        .data()
        .iter()
        .position(|v| !v.is_finite() || *v < 0.0)
    {
        Some(cell) => Err(DfError::CorruptCounts {
            cell,
            value: counts.table().data()[cell],
        }),
        None => Ok(()),
    }
}

impl<'a> Audit<'a> {
    fn with_source(source: Source<'a>) -> Self {
        Self {
            source,
            estimators: Vec::new(),
            metric: None,
            subsets: None,
            bootstrap: None,
            bootstrap_threads: 1,
            baselines: Baselines::none(),
            equalized: None,
            reference_epsilon: None,
        }
    }

    /// Audits joint counts of `(outcome, protected attributes…)`.
    pub fn of(counts: &'a JointCounts) -> Self {
        Self::with_source(Source::Counts(counts))
    }

    /// Audits owned joint counts (used by frame-level and streaming entry
    /// points). Rejects tables containing NaN, infinite, or negative cells
    /// with [`DfError::CorruptCounts`] — ε over such a table would be NaN.
    pub fn of_counts(counts: JointCounts) -> Result<Audit<'static>> {
        validate_counts(&counts)?;
        Ok(Audit::with_source(Source::OwnedCounts(counts)))
    }

    /// Audits a stream of record chunks, tallied by `threads` parallel
    /// shards (see [`crate::stream::sharded_joint_counts`] for the engine
    /// and determinism guarantees).
    ///
    /// * `axes` — outcome axis plus one axis per protected attribute, in
    ///   the order chunk records are laid out.
    /// * `outcome_axis` — which of `axes` holds the outcome.
    /// * `chunks` — an iterator of fallible [`Tally`] chunks (df-data's
    ///   `FrameChunks`/`CsvChunks`, or any custom source).
    ///
    /// The resulting audit is indistinguishable from one built on
    /// [`Audit::of_counts`] with a single-pass tally: counts merge as a
    /// commutative monoid, so the report is byte-identical for every
    /// shard count.
    ///
    /// ```
    /// use df_core::builder::{Audit, Smoothed};
    /// use df_prob::contingency::Axis;
    /// use df_prob::partial::{PartialCounts, Tally};
    ///
    /// struct Rows(Vec<[usize; 2]>);
    /// impl Tally for Rows {
    ///     fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
    ///         for idx in &self.0 {
    ///             shard.record(idx);
    ///         }
    ///         Ok(())
    ///     }
    /// }
    ///
    /// let axes = vec![
    ///     Axis::from_strs("y", &["no", "yes"]).unwrap(),
    ///     Axis::from_strs("g", &["a", "b"]).unwrap(),
    /// ];
    /// let chunks: Vec<df_core::Result<Rows>> = vec![
    ///     Ok(Rows(vec![[0, 0], [1, 0], [1, 1]])),
    ///     Ok(Rows(vec![[0, 1], [1, 1]])),
    /// ];
    /// let report = Audit::of_stream("y", axes, chunks, 2)
    ///     .unwrap()
    ///     .estimator(Smoothed { alpha: 1.0 })
    ///     .run()
    ///     .unwrap();
    /// assert_eq!(report.n_records, Some(5));
    /// ```
    pub fn of_stream<C, E, I>(
        outcome_axis: &str,
        axes: Vec<df_prob::contingency::Axis>,
        chunks: I,
        threads: usize,
    ) -> Result<Audit<'static>>
    where
        C: Tally + Send,
        E: Send,
        DfError: From<E>,
        I: IntoIterator<Item = std::result::Result<C, E>>,
        I::IntoIter: Send,
    {
        Audit::of_counts(crate::stream::sharded_joint_counts(
            axes,
            outcome_axis,
            chunks,
            threads,
        )?)
    }

    /// Starts an **online monitor** over the given schema instead of a
    /// one-shot audit: the returned [`crate::monitor::MonitorBuilder`]
    /// shares this builder's estimator and subset-policy stages, then
    /// `build()`s a [`crate::monitor::FairnessMonitor`] maintaining ε over
    /// a sliding window of the stream — the last W records, or the last T
    /// wall-clock seconds at bucket granularity
    /// (`.window_seconds(T).bucket_seconds(b)`) — plus an optional
    /// exponentially-decayed horizon, hysteresis alerting, and
    /// CUSUM/Page–Hinkley change-point detection
    /// (`.changepoint(Cusum::new(..))`). See [`crate::monitor`].
    ///
    /// * `outcome_axis` — which of `axes` holds the outcome.
    /// * `axes` — the full schema, in the order chunks tally records
    ///   (e.g. from `FrameChunks::axes`).
    pub fn monitor(
        outcome_axis: &str,
        axes: Vec<df_prob::contingency::Axis>,
    ) -> crate::monitor::MonitorBuilder {
        crate::monitor::MonitorBuilder::new(outcome_axis, axes)
    }

    /// Audits a raw group-outcome table directly. Weights are interpreted
    /// as group tallies by the smoothing/posterior estimators.
    pub fn of_table(table: GroupOutcomes) -> Audit<'static> {
        Audit::with_source(Source::Table(table))
    }

    /// Tallies a mechanism over `(group index, instance)` pairs — the
    /// Rao–Blackwellized estimate of `P(M(x) = y | s)` — and audits the
    /// result.
    pub fn of_mechanism<X, M, I>(
        mechanism: &M,
        group_labels: Vec<String>,
        instances: I,
    ) -> Result<Audit<'static>>
    where
        M: Mechanism<X>,
        I: IntoIterator<Item = (usize, X)>,
    {
        let est = estimate_group_outcomes(mechanism, group_labels, instances, 0.0)?;
        Ok(Audit::with_source(Source::Table(est.group_outcomes)))
    }

    /// Adds an ε-estimation strategy; chain multiple calls to compare
    /// strategies side by side. The **last** one added is the headline
    /// estimator (its full-intersection ε becomes [`AuditReport::epsilon`]).
    /// Without any call, the default is [`Empirical`] then
    /// [`Smoothed`]`{ alpha: 1.0 }`.
    pub fn estimator(mut self, estimator: impl EpsilonEstimator + 'static) -> Self {
        self.estimators.push(Box::new(estimator));
        self
    }

    /// Adds an already-boxed estimator (for dynamically assembled audits).
    pub fn boxed_estimator(mut self, estimator: Box<dyn EpsilonEstimator>) -> Self {
        self.estimators.push(estimator);
        self
    }

    /// Sets the fairness metric every configured estimator is evaluated
    /// under (see [`crate::metric`]). Defaults to [`EpsilonDf`], which
    /// reproduces the pre-metric behavior byte for byte.
    pub fn metric(mut self, metric: impl Metric + 'static) -> Self {
        self.metric = Some(Box::new(metric));
        self
    }

    /// Sets an already-boxed metric (for dynamically assembled audits,
    /// e.g. from a [`crate::metric::metric_from_tag`] lookup).
    pub fn boxed_metric(mut self, metric: Box<dyn Metric>) -> Self {
        self.metric = Some(metric);
        self
    }

    /// Sets the subset-audit policy. Defaults to [`SubsetPolicy::All`] for
    /// counts sources and [`SubsetPolicy::None`] for flat tables (which
    /// have no attribute factorization to marginalize — requesting anything
    /// else there is an error at [`Audit::run`]).
    pub fn subsets(mut self, policy: SubsetPolicy) -> Self {
        self.subsets = Some(policy);
        self
    }

    /// Enables a multinomial bootstrap of the headline estimator's ε:
    /// `replicates` resamples at a 95 % percentile interval, seeded
    /// deterministically. Counts sources only.
    pub fn bootstrap(mut self, replicates: usize, seed: u64) -> Self {
        self.bootstrap = Some((replicates, seed));
        self
    }

    /// Runs the bootstrap replicates on `threads` worker threads
    /// (default 1). Per-replicate RNG streams are forked deterministically
    /// from the bootstrap seed, so every thread count produces the
    /// bit-identical [`BootstrapEpsilon`] — parallelism only changes
    /// wall-clock time.
    pub fn bootstrap_threads(mut self, threads: usize) -> Self {
        self.bootstrap_threads = threads;
        self
    }

    /// Configures the §7 comparison baselines.
    pub fn baselines(mut self, baselines: Baselines) -> Self {
        self.baselines = baselines;
        self
    }

    /// Attaches a differential-equalized-odds audit (the §7.1 error-rate
    /// extension) computed from per-true-label prediction tallies at
    /// smoothing `alpha`.
    pub fn equalized_odds(mut self, counts: EqualizedOddsCounts, alpha: f64) -> Self {
        self.equalized = Some((counts, alpha));
        self
    }

    /// Sets a reference ε for bias amplification (§4.1) — e.g. the dataset
    /// ε when auditing a classifier trained on it.
    pub fn reference_epsilon(mut self, epsilon: f64) -> Self {
        self.reference_epsilon = Some(epsilon);
        self
    }

    /// Runs every configured stage and assembles the report.
    pub fn run(self) -> Result<AuditReport> {
        let Audit {
            source,
            estimators: configured_estimators,
            metric,
            subsets: subset_policy,
            bootstrap: bootstrap_cfg,
            bootstrap_threads,
            baselines,
            equalized,
            reference_epsilon,
        } = self;
        let counts: Option<&JointCounts> = match &source {
            Source::Counts(c) => Some(c),
            Source::OwnedCounts(c) => Some(c),
            Source::Table(_) => None,
        };
        // Owned sources were validated at construction; borrowed counts may
        // have been mutated since, so re-check before computing ε.
        if let Source::Counts(c) = &source {
            validate_counts(c)?;
        }
        let estimators: Vec<Box<dyn EpsilonEstimator>> = if configured_estimators.is_empty() {
            vec![Box::new(Empirical), Box::new(Smoothed { alpha: 1.0 })]
        } else {
            configured_estimators
        };
        let metric: Box<dyn Metric> = metric.unwrap_or_else(|| Box::new(EpsilonDf));

        // Subset lattice (size-then-declaration order; full set last).
        let policy = match (subset_policy, counts.is_some()) {
            (Some(p), true) => p,
            (None, true) => SubsetPolicy::All,
            (Some(SubsetPolicy::None) | None, false) => SubsetPolicy::None,
            (Some(_), false) => {
                return Err(DfError::Invalid(
                    "subset auditing needs a joint-counts source; flat tables have no \
                     attribute factorization to marginalize"
                        .into(),
                ));
            }
        };
        // A flat table has no attribute names, so its lattice is empty.
        let attribute_names: Vec<&str> =
            counts.map(JointCounts::attribute_names).unwrap_or_default();
        let subset_attrs = policy.lattice(&attribute_names)?;
        // Raw tables of the full intersection and of every subset, read
        // through one layout built for the metric, which every estimator
        // and the bootstrap share.
        let lattice = subset_attrs.iter().map(Vec::as_slice);
        let layout = counts
            .map(|c| GroupLayout::new(c.table(), 0).for_metric(&*metric, lattice))
            .transpose()?;
        let tables = match (&source, counts, &layout) {
            (_, Some(c), Some(layout)) => layout.tables(c.table().data())?,
            (Source::Table(t), ..) => LatticeTables::flat(t.clone()),
            _ => unreachable!("a layout is built exactly for counts sources"),
        };
        // The full intersection's raw table (the report's weights, outcomes
        // and baselines): the headline's own, unless that is strata.
        let stratified = match (tables.full(), counts.zip(layout.as_ref())) {
            (None, Some((c, layout))) => Some(layout.group_outcomes(c.table().data())?),
            _ => None,
        };
        let raw_full = stratified.as_ref().or(tables.full());
        let raw_full = raw_full.expect("a flat table is read whole");

        let mut estimator_reports = Vec::with_capacity(estimators.len());
        for est in &estimators {
            let mut subsets: Vec<SubsetEpsilon> = subset_attrs
                .iter()
                .map(|attributes| SubsetEpsilon {
                    attributes: attributes.clone(),
                    result: EpsilonResult {
                        epsilon: f64::NAN,
                        witness: None,
                    },
                })
                .collect();
            let result = tables.evaluate(&*metric, &**est, &mut subsets)?;
            estimator_reports.push(EstimatorReport {
                name: est.name(),
                result,
                subsets,
            });
        }

        let headline_est = estimators.last().expect("at least one estimator");
        let headline = estimator_reports.last().expect("nonempty");
        let (headline_name, epsilon) = (headline.name.clone(), headline.result.clone());
        let regime = PrivacyRegime::of(epsilon.epsilon);

        // Theorem 3.2 bound check on the *empirical* per-subset values
        // (exact marginalization ⇒ must be empty; violations indicate
        // upstream data corruption). Performed whenever the audited lattice
        // is complete — `All`, or `UpTo` with a size covering every subset.
        // The 2ε bound is a theorem about ε specifically; under any other
        // metric the check is not defined and stays `None`.
        let lattice_complete = !attribute_names.is_empty()
            && subset_attrs.len() == (1usize << attribute_names.len()) - 1;
        let bound_violations = if lattice_complete && metric.tag() == "eps-df" {
            // The plug-in ε of every subset, read off its raw table (what
            // `Empirical` returns), whatever estimators are configured.
            let empirical: Vec<f64> = (0..subset_attrs.len())
                .map(|i| tables.table(i).expect("ε-DF reads whole tables"))
                .map(|table| table.worst(log_ratio).epsilon)
                .collect();
            let full_eps = *empirical.last().expect("full set");
            let bound = 2.0 * full_eps + 1e-9;
            Some(
                subset_attrs[..subset_attrs.len() - 1]
                    .iter()
                    .zip(&empirical)
                    .filter(|(_, eps)| **eps > bound)
                    .map(|(attrs, _)| attrs.clone())
                    .collect::<Vec<_>>(),
            )
        } else {
            None
        };

        // Baselines on the headline estimator's point table, so parity and
        // ε describe the same distribution.
        let baseline_table = if baselines.demographic_parity || baselines.disparate_impact {
            Some(headline_est.estimate_table(raw_full)?)
        } else {
            None
        };
        let demographic_parity = baseline_table
            .as_ref()
            .filter(|_| baselines.demographic_parity)
            .map(demographic_parity_distance);
        let positive_index = |t: &GroupOutcomes, label: &str| -> Result<usize> {
            t.outcome_labels()
                .iter()
                .position(|l| l == label)
                .ok_or_else(|| DfError::Invalid(format!("unknown outcome `{label}`")))
        };
        let disparate_impact = match (&baseline_table, &baselines.positive) {
            (Some(t), Some(label)) if baselines.disparate_impact => {
                Some(disparate_impact_ratio(t, positive_index(t, label)?)?)
            }
            _ => None,
        };
        let subgroups = match (counts, &baselines.positive) {
            (Some(c), Some(label)) if baselines.subgroups => {
                Some(subgroup_fairness_violation(c, label)?)
            }
            _ => None,
        };

        let equalized_odds = match &equalized {
            Some((eo, alpha)) => Some(EqualizedOddsReport {
                alpha: *alpha,
                per_label: eo.per_label_epsilon(*alpha)?,
                overall: eo.epsilon(*alpha)?,
            }),
            None => None,
        };

        let amplification = reference_epsilon.map(|r| BiasAmplification::new(epsilon.epsilon, r));

        let bootstrap = match (bootstrap_cfg, counts, &layout) {
            (Some((replicates, seed)), Some(c), Some(layout)) => {
                // Each replicate has the source's axes: the layout reads it.
                let mut rng = Pcg32::new(seed);
                Some(bootstrap_epsilon_sharded(
                    c,
                    replicates,
                    0.95,
                    &mut rng,
                    bootstrap_threads,
                    &|jc| {
                        let epsilon = layout.evaluate(jc.table().data(), &*metric, &**headline_est);
                        Ok(epsilon?.epsilon)
                    },
                )?)
            }
            (Some(_), ..) => {
                return Err(DfError::Invalid(
                    "bootstrap needs a joint-counts source to resample".into(),
                ));
            }
            (None, ..) => None,
        };

        let total_weight = raw_full.weights().iter().sum::<f64>();
        let n_records = (exactly_zero(total_weight.fract()) && total_weight <= u64::MAX as f64)
            .then_some(total_weight as u64);

        Ok(AuditReport {
            total_weight,
            n_records,
            attributes: attribute_names.iter().map(|s| s.to_string()).collect(),
            outcomes: raw_full.outcome_labels().to_vec(),
            estimators: estimator_reports,
            metric: metric.tag(),
            epsilon,
            headline: headline_name,
            regime,
            bound_violations,
            demographic_parity,
            disparate_impact,
            subgroups,
            equalized_odds,
            amplification,
            bootstrap,
        })
    }
}

// ---------------------------------------------------------------------------
// The report.
// ---------------------------------------------------------------------------

/// One estimator's results: the full-intersection ε and the per-subset
/// table (empty when subset auditing is disabled; otherwise ordered by
/// subset size with the full intersection last).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorReport {
    /// Display name of the estimator.
    pub name: String,
    /// ε of the full intersection.
    pub result: EpsilonResult,
    /// Per-subset ε values under this estimator.
    pub subsets: Vec<SubsetEpsilon>,
}

impl EstimatorReport {
    /// Looks up a subset by attribute names (order-insensitive).
    pub fn get(&self, attrs: &[&str]) -> Option<&SubsetEpsilon> {
        self.subsets.iter().find(|s| s.matches(attrs))
    }
}

/// The differential-equalized-odds stage of a report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EqualizedOddsReport {
    /// Smoothing used for the conditional tables.
    pub alpha: f64,
    /// Conditional ε per true label.
    pub per_label: Vec<(String, EpsilonResult)>,
    /// The DEO ε: the worst conditional ε.
    pub overall: EpsilonResult,
}

/// The unified audit result: everything the configured stages computed, in
/// one JSON-serializable value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Total record weight audited (fractional for weighted tallies).
    pub total_weight: f64,
    /// Exact record count when the total weight is integral.
    pub n_records: Option<u64>,
    /// Protected attribute names (empty for flat-table sources).
    pub attributes: Vec<String>,
    /// Outcome labels.
    pub outcomes: Vec<String>,
    /// Per-estimator results, in configuration order.
    pub estimators: Vec<EstimatorReport>,
    /// Canonical tag of the fairness metric every value was computed
    /// under (`eps-df` unless [`Audit::metric`] was called).
    pub metric: String,
    /// The headline ε: the last estimator's full-intersection result.
    pub epsilon: EpsilonResult,
    /// Name of the headline estimator.
    pub headline: String,
    /// Privacy-regime interpretation of the headline ε (§3.3).
    pub regime: PrivacyRegime,
    /// Subsets violating the Theorem 3.2 `2ε` bound (always empty for
    /// correctly marginalized counts). `None` when the audited lattice was
    /// incomplete (a flat-table source, [`SubsetPolicy::None`], or an
    /// `UpTo` size excluding some subsets), so the check could not run.
    pub bound_violations: Option<Vec<Vec<String>>>,
    /// Worst total-variation distance between populated groups.
    pub demographic_parity: Option<f64>,
    /// Disparate-impact ratio for the configured positive outcome.
    pub disparate_impact: Option<f64>,
    /// Kearns-style subgroup parity violations, worst first.
    pub subgroups: Option<Vec<SubgroupViolation>>,
    /// Differential equalized odds (§7.1 extension).
    pub equalized_odds: Option<EqualizedOddsReport>,
    /// Bias amplification vs. the configured reference ε.
    pub amplification: Option<BiasAmplification>,
    /// Bootstrap CI for the headline ε.
    pub bootstrap: Option<BootstrapEpsilon>,
}

impl AuditReport {
    /// The per-subset comparison table in the layout of the paper's
    /// Table 2: one row per audited subset, one ε column per estimator.
    /// Counts are rendered exactly (integers stay integers).
    pub fn render_subset_table(&self) -> String {
        self.subset_table().render()
    }

    /// Markdown rendering of [`AuditReport::render_subset_table`].
    pub fn render_subset_table_markdown(&self) -> String {
        self.subset_table().render_markdown()
    }

    fn subset_table(&self) -> TextTable {
        let mut headers: Vec<String> = vec!["protected attributes".to_string()];
        headers.extend(self.estimators.iter().map(|e| e.name.clone()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut aligns = vec![Align::Left];
        aligns.extend(std::iter::repeat_n(Align::Right, self.estimators.len()));
        let mut t = TextTable::new(&header_refs).align(&aligns);
        let n_rows = self.estimators.first().map_or(0, |e| e.subsets.len());
        if n_rows == 0 {
            // No subset lattice: a single full-intersection row.
            let mut row = vec![if self.attributes.is_empty() {
                "(all groups)".to_string()
            } else {
                self.attributes.join(", ")
            }];
            row.extend(
                self.estimators
                    .iter()
                    .map(|e| fmt_epsilon(e.result.epsilon)),
            );
            t.row(&row);
            return t;
        }
        for i in 0..n_rows {
            let mut row = vec![self.estimators[0].subsets[i].attributes.join(", ")];
            row.extend(
                self.estimators
                    .iter()
                    .map(|e| fmt_epsilon(e.subsets[i].result.epsilon)),
            );
            t.row(&row);
        }
        t
    }

    /// A one-paragraph plain-text summary: record count (exact), headline
    /// ε with regime and ratio bound, witness, and any attached stages.
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "records audited: {}",
            match self.n_records {
                Some(n) => n.to_string(),
                None => fmt_count(self.total_weight),
            }
        );
        if self.metric != "eps-df" {
            let _ = writeln!(out, "metric: {}", self.metric);
        }
        let _ = writeln!(
            out,
            "headline {} = {} ({:?}; outcome-ratio bound e^eps = {:.2}x)",
            self.headline,
            fmt_epsilon(self.epsilon.epsilon),
            self.regime,
            self.epsilon.probability_ratio_bound()
        );
        if let Some(w) = &self.epsilon.witness {
            let _ = writeln!(
                out,
                "worst pair: `{}` gets `{}` at rate {:.4}, `{}` at rate {:.4}",
                w.group_hi, w.outcome, w.prob_hi, w.group_lo, w.prob_lo
            );
        }
        if let Some(v) = &self.bound_violations {
            let _ = writeln!(
                out,
                "Theorem 3.2 bound: {}",
                if v.is_empty() {
                    "holds for every subset".to_string()
                } else {
                    format!("VIOLATED by {} subsets", v.len())
                }
            );
        }
        if let Some(dp) = self.demographic_parity {
            let _ = writeln!(out, "demographic-parity distance: {dp:.4}");
        }
        if let Some(di) = self.disparate_impact {
            let _ = writeln!(
                out,
                "disparate-impact ratio: {di:.4} (80% rule {})",
                if di >= 0.8 { "passes" } else { "fails" }
            );
        }
        if let Some(eo) = &self.equalized_odds {
            let _ = writeln!(
                out,
                "differential equalized odds (a={}): eps = {}",
                eo.alpha,
                fmt_epsilon(eo.overall.epsilon)
            );
        }
        if let Some(amp) = &self.amplification {
            let _ = writeln!(
                out,
                "bias amplification vs reference {:.4}: delta = {:+.4} (utility factor {:.2}x)",
                amp.epsilon_reference,
                amp.delta(),
                amp.utility_disparity_factor()
            );
        }
        if let Some(b) = &self.bootstrap {
            let _ = writeln!(
                out,
                "bootstrap ({} replicates): {:.0}% CI [{}, {}], {} infinite",
                b.replicates.len(),
                b.mass * 100.0,
                fmt_epsilon(b.interval.0),
                fmt_epsilon(b.interval.1),
                b.infinite_replicates
            );
        }
        out
    }

    /// The report for one estimator by display name.
    pub fn estimator(&self, name: &str) -> Option<&EstimatorReport> {
        self.estimators.iter().find(|e| e.name == name)
    }

    /// Renders the report in the requested [`ResponseFormat`]: the full
    /// serde document for JSON, the per-subset ε table for CSV, and the
    /// summary paragraph plus the subset table for text/markdown. This is
    /// the single render entry point serving layers should negotiate into.
    pub fn render(&self, format: ResponseFormat) -> Result<String> {
        match format {
            ResponseFormat::Json => {
                serde_json::to_string(self).map_err(|e| DfError::Invalid(e.to_string()))
            }
            ResponseFormat::Csv => Ok(self.subset_table().render_csv()),
            ResponseFormat::Markdown => Ok(format!(
                "{}\n{}",
                self.render_summary(),
                self.render_subset_table_markdown()
            )),
            ResponseFormat::Text => Ok(format!(
                "{}\n{}",
                self.render_summary(),
                self.render_subset_table()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::FnMechanism;
    use df_prob::contingency::{Axis, ContingencyTable};
    use df_prob::numerics::approx_eq;

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
    fn default_estimators_reproduce_paper_table1() {
        let report = Audit::of(&table1()).run().unwrap();
        assert_eq!(report.n_records, Some(700));
        assert_eq!(report.total_weight, 700.0);
        assert_eq!(report.attributes, vec!["gender", "race"]);
        // Empirical full intersection: the paper's 1.511.
        let emp = report.estimator("eps-EDF").unwrap();
        assert!(approx_eq(emp.result.epsilon, 1.511, 1e-3, 0.0));
        assert!(approx_eq(
            emp.get(&["gender"]).unwrap().result.epsilon,
            0.2329,
            1e-3,
            0.0
        ));
        assert!(approx_eq(
            emp.get(&["race"]).unwrap().result.epsilon,
            0.8667,
            1e-3,
            0.0
        ));
        // Headline defaults to smoothed at alpha = 1.
        assert_eq!(report.headline, "eps-DF(a=1)");
        assert_eq!(report.regime, PrivacyRegime::Moderate);
        assert_eq!(report.bound_violations, Some(vec![]));
    }

    /// ε and the witness probabilities, as bits.
    fn result_bits(r: &EpsilonResult) -> (u64, Option<(u64, u64)>) {
        let witness = r.witness.as_ref();
        let probs = witness.map(|w| (w.prob_hi.to_bits(), w.prob_lo.to_bits()));
        (r.epsilon.to_bits(), probs)
    }

    #[test]
    fn smoothed_estimator_matches_edf_smoothed_path() {
        // Table 1, and a = (10 no, 13 yes), b = (1 no, 0 yes), whose
        // implied counts (p·w) differ from its raw counts in the last bit.
        let axes = vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ];
        let data = vec![10.0, 1.0, 13.0, 0.0];
        let odd =
            JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap();
        for counts in [table1(), odd] {
            let report = Audit::of(&counts)
                .estimator(Smoothed { alpha: 1.0 })
                .run()
                .unwrap();
            let direct = counts.edf_smoothed(1.0).unwrap();
            assert_eq!(result_bits(&report.epsilon), result_bits(&direct));
            assert_eq!(report.epsilon.witness, direct.witness);
            // Only one estimator configured → one column, every subset.
            assert_eq!(report.estimators.len(), 1);
            let p = counts.attribute_names().len();
            assert_eq!(report.estimators[0].subsets.len(), (1 << p) - 1);
        }
    }

    /// An estimator that takes `Empirical`'s display name but reads 5.0 on
    /// two-group tables and 1.0 on four-group ones.
    struct NamedLikeEmpirical;

    impl EpsilonEstimator for NamedLikeEmpirical {
        fn name(&self) -> String {
            "eps-EDF".to_string()
        }

        fn estimate_table(&self, raw: &GroupOutcomes) -> Result<GroupOutcomes> {
            Ok(raw.clone())
        }

        fn estimate(&self, raw: &GroupOutcomes) -> Result<EpsilonResult> {
            let epsilon = if raw.num_groups() == 2 { 5.0 } else { 1.0 };
            Ok(EpsilonResult {
                epsilon,
                witness: None,
            })
        }

        fn clone_box(&self) -> Box<dyn EpsilonEstimator> {
            Box::new(NamedLikeEmpirical)
        }
    }

    #[test]
    fn bound_check_reads_the_plug_in_tables_not_a_name() {
        let report = Audit::of(&table1())
            .estimator(NamedLikeEmpirical)
            .run()
            .unwrap();
        let named = report.estimator("eps-EDF").unwrap();
        assert_eq!(named.get(&["gender"]).unwrap().result.epsilon, 5.0);
        assert_eq!(named.result.epsilon, 1.0);
        // Its values break 2ε, but Table 1's plug-in ε does not.
        assert_eq!(report.bound_violations, Some(vec![]));
    }

    #[test]
    fn posterior_sup_dominates_point_estimate_and_is_deterministic() {
        let counts = table1();
        let run = |seed| {
            Audit::of(&counts)
                .estimator(PosteriorSup {
                    alpha: 1.0,
                    samples: 100,
                    seed,
                })
                .subsets(SubsetPolicy::None)
                .run()
                .unwrap()
                .epsilon
                .epsilon
        };
        let point = counts.edf().unwrap().epsilon;
        let sup = run(11);
        assert!(sup > point, "sup {sup} should dominate point {point}");
        assert_eq!(run(11), sup, "same seed, same certificate");
        assert_ne!(run(12), sup, "different seed, different draws");
    }

    #[test]
    fn subset_policy_controls_the_lattice() {
        let counts = table1();
        let none = Audit::of(&counts)
            .subsets(SubsetPolicy::None)
            .run()
            .unwrap();
        // Only the full intersection is audited; no bound check possible.
        let lens: Vec<usize> = none.estimators[0]
            .subsets
            .iter()
            .map(|s| s.attributes.len())
            .collect();
        assert_eq!(lens, vec![2]);
        assert!(none.bound_violations.is_none());

        let up_to = Audit::of(&counts)
            .subsets(SubsetPolicy::UpTo { size: 1 })
            .run()
            .unwrap();
        let subsets: Vec<usize> = up_to.estimators[0]
            .subsets
            .iter()
            .map(|s| s.attributes.len())
            .collect();
        // Singletons plus the full intersection, full set last. With two
        // attributes that happens to be the complete lattice, so the
        // Theorem 3.2 check runs even under `UpTo`.
        assert_eq!(subsets, vec![1, 1, 2]);
        assert_eq!(up_to.bound_violations, Some(vec![]));
    }

    /// Subset masks are `u32`: 32 protected attributes (one-label axes
    /// are legal) get a typed error from the audit, the monitor and the
    /// subgroup baseline, where the mask shift used to wrap to an empty
    /// lattice or overflow.
    #[test]
    fn lattice_refuses_more_than_31_attributes() {
        let mut axes = vec![Axis::from_strs("y", &["no", "yes"]).unwrap()];
        axes.extend((0..32).map(|i| Axis::from_strs(&format!("a{i}"), &["x"]).unwrap()));
        let table = ContingencyTable::from_data(axes.clone(), vec![3.0, 5.0]).unwrap();
        let counts = JointCounts::from_table(table, "y").unwrap();
        let audit = Audit::of(&counts).subsets(SubsetPolicy::None).run();
        let monitor = Audit::monitor("y", axes).build().err();
        let subgroups = subgroup_fairness_violation(&counts, "yes").err();
        for err in [audit.err(), monitor, subgroups] {
            assert!(
                matches!(&err, Some(DfError::Invalid(m)) if m.contains("got 32")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn baselines_and_amplification_flow_through() {
        let report = Audit::of(&table1())
            .baselines(Baselines::all().positive("admit"))
            .reference_epsilon(1.0)
            .run()
            .unwrap();
        assert!(report.demographic_parity.unwrap() > 0.0);
        let di = report.disparate_impact.unwrap();
        assert!(di > 0.0 && di < 1.0);
        let subgroups = report.subgroups.unwrap();
        assert!(!subgroups.is_empty());
        assert!(report.amplification.unwrap().amplifies());
    }

    #[test]
    fn unknown_positive_outcome_errors() {
        let err = Audit::of(&table1())
            .baselines(Baselines::all().positive("approve"))
            .run();
        assert!(err.is_err());
    }

    #[test]
    fn bootstrap_uses_the_headline_estimator() {
        let report = Audit::of(&table1())
            .estimator(Smoothed { alpha: 1.0 })
            .subsets(SubsetPolicy::None)
            .bootstrap(50, 9)
            .run()
            .unwrap();
        let boot = report.bootstrap.unwrap();
        assert_eq!(boot.replicates.len(), 50);
        assert!(approx_eq(boot.point, report.epsilon.epsilon, 1e-12, 1e-12));
        assert!(boot.interval.0 <= boot.interval.1);
    }

    #[test]
    fn mechanism_source_audits_without_subsets() {
        let mech = FnMechanism::new(vec!["no".into(), "yes".into()], |score: &f64| {
            usize::from(*score >= 0.5)
        });
        let instances = vec![(0usize, 0.9), (0, 0.8), (0, 0.1), (1, 0.2), (1, 0.1)];
        let report = Audit::of_mechanism(&mech, vec!["a".into(), "b".into()], instances)
            .unwrap()
            .estimator(Smoothed { alpha: 1.0 })
            .run()
            .unwrap();
        assert_eq!(report.n_records, Some(5));
        assert!(report.attributes.is_empty());
        assert!(report.epsilon.is_finite());
        // Asking for a subset lattice on a flat table is an error.
        let mech = FnMechanism::new(vec!["no".into(), "yes".into()], |_: &f64| 0);
        let err = Audit::of_mechanism(&mech, vec!["a".into(), "b".into()], vec![(0usize, 1.0)])
            .unwrap()
            .subsets(SubsetPolicy::All)
            .run();
        assert!(err.is_err());
        // Bootstrap needs counts too.
        let mech = FnMechanism::new(vec!["no".into(), "yes".into()], |_: &f64| 0);
        let err = Audit::of_mechanism(&mech, vec!["a".into(), "b".into()], vec![(0usize, 1.0)])
            .unwrap()
            .bootstrap(50, 1)
            .run();
        assert!(err.is_err());
    }

    #[test]
    fn equalized_odds_stage_reports_conditionals() {
        let eo = EqualizedOddsCounts::from_records(
            vec!["neg".into(), "pos".into()],
            vec!["p0".into(), "p1".into()],
            vec!["a".into(), "b".into()],
            vec![
                (0usize, 0usize, 0usize),
                (0, 0, 1),
                (0, 1, 1),
                (1, 1, 0),
                (1, 1, 1),
                (1, 0, 0),
            ],
        )
        .unwrap();
        let report = Audit::of(&table1())
            .subsets(SubsetPolicy::None)
            .equalized_odds(eo, 1.0)
            .run()
            .unwrap();
        let deo = report.equalized_odds.unwrap();
        assert_eq!(deo.per_label.len(), 2);
        assert!(deo.overall.epsilon >= deo.per_label[0].1.epsilon.min(deo.per_label[1].1.epsilon));
    }

    #[test]
    fn render_subset_table_has_estimator_columns_and_exact_counts() {
        let report = Audit::of(&table1()).run().unwrap();
        let text = report.render_subset_table();
        assert!(text.contains("eps-EDF"));
        assert!(text.contains("eps-DF(a=1)"));
        assert!(text.contains("gender, race"));
        assert!(text.contains("1.511"));
        // 3 subsets + header + separator.
        assert_eq!(text.lines().count(), 5);
        let md = report.render_subset_table_markdown();
        assert!(md.contains("| protected attributes |"));
        let summary = report.render_summary();
        assert!(summary.contains("records audited: 700"), "{summary}");
        assert!(!summary.contains("700.0"), "count display must be exact");
    }

    #[test]
    fn of_counts_rejects_corrupt_cells_with_typed_error() {
        // `ContingencyTable::add` is unchecked for tally speed, so NaN and
        // negative weights can corrupt externally assembled counts; the
        // builder must refuse them instead of certifying ε = NaN.
        let corrupt = |weight: f64| {
            let axes = vec![
                Axis::from_strs("y", &["0", "1"]).unwrap(),
                Axis::from_strs("g", &["a", "b"]).unwrap(),
            ];
            let mut t = ContingencyTable::zeros(axes).unwrap();
            t.increment(&[0, 0]);
            t.increment(&[1, 1]);
            t.add(&[1, 0], weight);
            JointCounts::from_table(t, "y").unwrap()
        };
        let err = Audit::of_counts(corrupt(f64::NAN)).err().unwrap();
        assert!(
            matches!(err, DfError::CorruptCounts { cell: 2, value } if value.is_nan()),
            "{err:?}"
        );
        let err = Audit::of_counts(corrupt(-3.0)).err().unwrap();
        assert!(
            matches!(
                err,
                DfError::CorruptCounts {
                    cell: 2,
                    value: -3.0
                }
            ),
            "{err:?}"
        );
        let err = Audit::of_counts(corrupt(f64::INFINITY)).err().unwrap();
        assert!(matches!(err, DfError::CorruptCounts { .. }), "{err:?}");
        // The borrowed-counts path catches the same corruption at run().
        let counts = corrupt(f64::NAN);
        let err = Audit::of(&counts).run().unwrap_err();
        assert!(matches!(err, DfError::CorruptCounts { .. }), "{err:?}");
        // Healthy counts still flow through.
        assert!(Audit::of_counts(corrupt(1.0)).is_ok());
    }

    #[test]
    fn of_stream_matches_of_counts_byte_for_byte() {
        use crate::monitor::tests::Rows;
        // Table 1 as a record stream.
        let counts = table1();
        let mut rows: Vec<[usize; 3]> = Vec::new();
        for (idx, v) in counts.table().iter_cells() {
            for _ in 0..v as usize {
                rows.push([idx[0], idx[1], idx[2]]);
            }
        }
        let axes = counts.table().axes().to_vec();
        for threads in [1, 2, 4] {
            let chunks: Vec<Result<Rows<3>>> =
                rows.chunks(97).map(|c| Ok(Rows(c.to_vec()))).collect();
            let streamed = Audit::of_stream("outcome", axes.clone(), chunks, threads)
                .unwrap()
                .bootstrap(25, 7)
                .run()
                .unwrap();
            let batch = Audit::of(&counts).bootstrap(25, 7).run().unwrap();
            assert_eq!(streamed, batch, "threads={threads}");
        }
    }

    #[test]
    fn parallel_bootstrap_is_deterministic_across_thread_counts() {
        let counts = table1();
        let serial = Audit::of(&counts)
            .bootstrap(40, 11)
            .run()
            .unwrap()
            .bootstrap
            .unwrap();
        for threads in [2, 4] {
            let par = Audit::of(&counts)
                .bootstrap(40, 11)
                .bootstrap_threads(threads)
                .run()
                .unwrap()
                .bootstrap
                .unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = Audit::of(&table1())
            .baselines(Baselines::all().positive("admit"))
            .bootstrap(25, 3)
            .reference_epsilon(1.0)
            .run()
            .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn fractional_weights_have_no_integer_record_count() {
        let axes = vec![
            Axis::from_strs("y", &["0", "1"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ];
        let data = vec![1.5, 2.0, 2.5, 3.0];
        let counts =
            JointCounts::from_table(ContingencyTable::from_data(axes, data).unwrap(), "y").unwrap();
        let report = Audit::of(&counts).run().unwrap();
        assert_eq!(report.total_weight, 9.0);
        // 9.0 is integral, so it still gets an exact count…
        assert_eq!(report.n_records, Some(9));
        let data = vec![1.25, 2.0, 2.5, 3.0];
        let counts = JointCounts::from_table(
            ContingencyTable::from_data(
                vec![
                    Axis::from_strs("y", &["0", "1"]).unwrap(),
                    Axis::from_strs("g", &["a", "b"]).unwrap(),
                ],
                data,
            )
            .unwrap(),
            "y",
        )
        .unwrap();
        let report = Audit::of(&counts).run().unwrap();
        // …while a genuinely fractional total does not.
        assert_eq!(report.n_records, None);
        assert_eq!(report.total_weight, 8.75);
    }
}
