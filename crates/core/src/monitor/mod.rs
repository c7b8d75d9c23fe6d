//! Online sliding-window fairness monitoring.
//!
//! A one-shot audit certifies ε for a dataset frozen in time; a *deployed*
//! classifier drifts — the joint distribution of `(outcome, s₁, …, s_p)`
//! shifts under it, and yesterday's certificate goes stale. Because the
//! ε-DF kernel only ever consumes joint counts, and counts form a
//! *cancellative* commutative monoid ([`PartialCounts::merge`] /
//! [`PartialCounts::subtract`]), a continuously-updated windowed ε is one
//! subtraction away from the streaming engine of [`crate::stream`]:
//!
//! - **Sliding window.** Incoming record chunks become buckets in a ring;
//!   a running [`PartialCounts`] holds the window sum. Appending a bucket
//!   is `merge`, expiring one is `subtract` — both exact on integer
//!   tallies — so the windowed ε is *byte-identical* to a batch
//!   [`crate::builder::Audit`] of the very same records, at every step
//!   (asserted by the `monitor_equivalence` property suite). One ring
//!   serves two spans; only the bucket key differs:
//!   - **by record count** ([`MonitorBuilder::window`]): the last W
//!     records, one bucket per pushed chunk (keyed by push ordinal), fed
//!     via [`FairnessMonitor::push`];
//!   - **by wall-clock time** ([`MonitorBuilder::window_seconds`] +
//!     [`MonitorBuilder::bucket_seconds`]): the last T seconds at bucket
//!     granularity (keyed by `⌊t / b⌋`), fed via
//!     [`FairnessMonitor::push_at`] with caller-supplied timestamps (core
//!     never reads `Instant::now()`, so wall-clock monitoring stays
//!     replayable and testable), advanced — and drained — by
//!     [`FairnessMonitor::advance_to`] even when no records arrive (see
//!     the `monitor_time_equivalence` suite).
//! - **Decayed horizon.** An optional exponentially-decayed table tracks
//!   the long-run distribution; comparing windowed ε against the decayed ε
//!   separates a transient spike from a secular trend.
//! - **Alerts with hysteresis.** [`AlertRule::epsilon_above`] fires after
//!   K *consecutive* breaching windows (no flapping on noise) and attaches
//!   the worst-pair witness; it re-arms only after ε falls back under the
//!   threshold.
//! - **Change-point detection.** The hysteresis rule reacts to levels;
//!   [`Cusum`] and [`PageHinkley`] detectors
//!   ([`MonitorBuilder::changepoint`]) accumulate evidence of a *mean
//!   shift* in the windowed ε (or the raw worst-pair log-ratio) and alarm
//!   with bounded false-positive rate — the fast drift signal the decayed
//!   trend cannot be (see [`changepoint`](self) docs and the
//!   `monitor_changepoint` golden suite).
//! - **Distribution.** [`MonitorSnapshot`] carries the raw window and
//!   horizon counts plus detector states, so snapshots from sharded
//!   monitors (one per serving replica) merge cell-wise into the
//!   fleet-wide monitor state, exactly like the partial counts of the
//!   sharded audit engine — commutatively and associatively, so fold
//!   order never matters. Every snapshot's statistics come from one
//!   derivation over its counts, taken once per fold.
//!
//! Entry point: [`crate::builder::Audit::monitor`], which shares the
//! builder's estimator and subset-policy stages.
//!
//! ```
//! use df_core::builder::{Audit, Smoothed};
//! use df_core::monitor::{AlertRule, Cusum};
//! use df_prob::contingency::Axis;
//! use df_prob::partial::{PartialCounts, Tally};
//!
//! struct Rows(Vec<[usize; 2]>);
//! impl Tally for Rows {
//!     fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
//!         for idx in &self.0 {
//!             shard.record(idx);
//!         }
//!         Ok(())
//!     }
//! }
//!
//! let axes = vec![
//!     Axis::from_strs("y", &["no", "yes"]).unwrap(),
//!     Axis::from_strs("g", &["a", "b"]).unwrap(),
//! ];
//! // A record-count window with a hysteresis alert…
//! let mut monitor = Audit::monitor("y", axes.clone())
//!     .estimator(Smoothed { alpha: 1.0 })
//!     .window(4)
//!     .alert(AlertRule::epsilon_above(0.2).for_consecutive(2))
//!     .build()
//!     .unwrap();
//! let step = monitor
//!     .push(&Rows(vec![[0, 0], [1, 0], [0, 1], [1, 1]]))
//!     .unwrap();
//! assert_eq!(step.window_rows, 4);
//! assert!(step.epsilon.epsilon.is_finite());
//!
//! // …and a wall-clock window (last 60 s, 5 s buckets) with CUSUM.
//! let mut clocked = Audit::monitor("y", axes)
//!     .window_seconds(60.0)
//!     .bucket_seconds(5.0)
//!     .changepoint(Cusum::new(0.2, 0.05, 0.5))
//!     .build()
//!     .unwrap();
//! clocked
//!     .push_at(&Rows(vec![[0, 0], [1, 1]]), 12.0)
//!     .unwrap();
//! assert_eq!(clocked.window_rows(), 2);
//! // Advancing past 12.0 + 60 s with zero arrivals drains the window.
//! let idle = clocked.advance_to(100.0).unwrap();
//! assert_eq!(idle.window_rows, 0);
//! ```

mod changepoint;
mod ring;
pub(crate) mod snapshot;
mod telemetry;

pub use changepoint::{
    ChangeSignal, ChangepointAlarm, ChangepointSpec, ChangepointStatus, Cusum, PageHinkley,
};
pub use ring::validate_timestamp;
pub use snapshot::{CountsSnapshot, MonitorSnapshot};
pub use telemetry::MonitorTelemetry;

use crate::builder::{EpsilonEstimator, Smoothed, SubsetPolicy};
use crate::edf::{check_total, GroupLayout, JointCounts};
use crate::epsilon::{EpsilonResult, EpsilonWitness};
use crate::error::{DfError, Result};
use crate::metric::{EpsilonDf, Metric};
use crate::subsets::SubsetEpsilon;
use changepoint::DetectorState;
use df_prob::contingency::{valid_cell, Axis, ContingencyTable};
use df_prob::numerics::exactly_zero;
use df_prob::partial::{PartialCounts, Tally};
use ring::{Span, Window};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Alert rules.
// ---------------------------------------------------------------------------

/// A threshold rule over the windowed ε, with hysteresis: the rule fires
/// once ε has exceeded `threshold` for `consecutive` windows in a row, and
/// does not fire again until ε first falls back below the threshold
/// (re-arming the rule).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlertRule {
    /// ε level above which the rule starts counting.
    pub threshold: f64,
    /// Number of consecutive breaching windows required to fire (≥ 1).
    pub consecutive: usize,
}

impl AlertRule {
    /// A rule firing as soon as ε exceeds `threshold` (K = 1); chain
    /// [`AlertRule::for_consecutive`] to require a sustained breach.
    pub fn epsilon_above(threshold: f64) -> Self {
        Self {
            threshold,
            consecutive: 1,
        }
    }

    /// Requires `k` consecutive breaching windows before firing (values
    /// below 1 are treated as 1).
    pub fn for_consecutive(mut self, k: usize) -> Self {
        self.consecutive = k.max(1);
        self
    }
}

/// One fired alert: which rule, where in the stream, and the worst-pair
/// witness of the breaching window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// The rule that fired.
    pub rule: AlertRule,
    /// Total records ingested when the rule fired.
    pub at_record: u64,
    /// The monitor clock when the rule fired (wall-clock windows only).
    pub at_seconds: Option<f64>,
    /// The windowed ε that completed the consecutive run.
    pub epsilon: f64,
    /// The worst group pair/outcome of the breaching window.
    pub witness: Option<EpsilonWitness>,
}

/// Per-rule hysteresis state.
#[derive(Debug, Clone, Default)]
struct RuleState {
    /// Current run length of breaching windows.
    streak: usize,
    /// True between firing and the next sub-threshold window.
    active: bool,
}

// ---------------------------------------------------------------------------
// The step result.
// ---------------------------------------------------------------------------

/// The lightweight per-push result: the stream position, the freshly
/// updated windowed (and horizon) ε, and any alerts or change-point
/// alarms raised by this window. The full mergeable state — counts,
/// subsets, detector statistics, alert log — comes from
/// [`FairnessMonitor::snapshot`], which is heavier (it clones the tables)
/// and intended for checkpointing and cross-shard merging rather than the
/// per-chunk hot path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MonitorStep {
    /// Total records ingested so far.
    pub records_seen: u64,
    /// Records currently inside the window.
    pub window_rows: u64,
    /// Largest timestamp seen so far (wall-clock windows only).
    pub now_seconds: Option<f64>,
    /// ε of the window under the configured estimator.
    pub epsilon: EpsilonResult,
    /// ε of the decayed horizon (present iff decay configured).
    pub decayed_epsilon: Option<EpsilonResult>,
    /// Alerts fired at this step (usually empty).
    pub fired: Vec<Alert>,
    /// Change-point alarms raised at this step (usually empty).
    pub alarms: Vec<ChangepointAlarm>,
}

// ---------------------------------------------------------------------------
// The builder.
// ---------------------------------------------------------------------------

/// Fluent configuration for a [`FairnessMonitor`]; created by
/// [`crate::builder::Audit::monitor`] and sharing the audit builder's
/// estimator/subset-policy stages. `Clone` (via
/// [`EpsilonEstimator::clone_box`]) is what lets the fleet front-end
/// replicate one configuration into N identical shard monitors.
#[derive(Clone)]
pub struct MonitorBuilder {
    outcome_axis: String,
    axes: Vec<Axis>,
    estimator: Option<Box<dyn EpsilonEstimator>>,
    metric: Option<Box<dyn Metric>>,
    subsets: SubsetPolicy,
    window_records: Option<usize>,
    window_seconds: Option<f64>,
    bucket_seconds: Option<f64>,
    decay: Option<f64>,
    rules: Vec<AlertRule>,
    changepoints: Vec<ChangepointSpec>,
    telemetry: Option<MonitorTelemetry>,
}

impl MonitorBuilder {
    /// See [`crate::builder::Audit::monitor`].
    pub(crate) fn new(outcome_axis: &str, axes: Vec<Axis>) -> Self {
        Self {
            outcome_axis: outcome_axis.to_string(),
            axes,
            estimator: None,
            metric: None,
            subsets: SubsetPolicy::None,
            window_records: None,
            window_seconds: None,
            bucket_seconds: None,
            decay: None,
            rules: Vec::new(),
            changepoints: Vec::new(),
            telemetry: None,
        }
    }

    /// Whether this configuration windows by wall-clock time.
    pub(crate) fn is_wall_clock(&self) -> bool {
        self.window_seconds.is_some()
    }

    /// The telemetry bundle injected via [`MonitorBuilder::telemetry`],
    /// if any — the fleet front-end honours it as the fleet-wide bundle.
    pub(crate) fn injected_telemetry(&self) -> Option<&MonitorTelemetry> {
        self.telemetry.as_ref()
    }

    /// The estimator used when none is configured: [`Smoothed`]
    /// `{ alpha: 1.0 }`, the audit builder's headline default. One
    /// definition shared by [`MonitorBuilder::build`] and the fleet
    /// aggregator, so shard monitors and the snapshot merge can never
    /// silently fall back to different strategies.
    fn default_estimator() -> Box<dyn EpsilonEstimator> {
        Box::new(Smoothed { alpha: 1.0 })
    }

    /// The configured estimator (or the builder's default), cloned out —
    /// the fleet aggregator needs its own copy to merge shard snapshots.
    pub(crate) fn shared_estimator(&self) -> Box<dyn EpsilonEstimator> {
        self.estimator
            .clone()
            .unwrap_or_else(Self::default_estimator)
    }

    /// The metric used when none is configured: ε-DF, the paper's
    /// headline definition and the byte-identical historical behaviour.
    /// The fleet aggregator never needs a copy: merged snapshots carry
    /// the metric tag and derive through [`crate::metric::metric_from_tag`].
    fn default_metric() -> Box<dyn Metric> {
        Box::new(EpsilonDf)
    }

    /// Sets the ε-estimation strategy (default: [`Smoothed`]` { alpha: 1.0 }`,
    /// the audit builder's headline default).
    pub fn estimator(mut self, estimator: impl EpsilonEstimator + 'static) -> Self {
        self.estimator = Some(Box::new(estimator));
        self
    }

    /// Sets the fairness metric the monitor tracks (default:
    /// [`EpsilonDf`], the paper's ε-DF). Every windowed statistic, subset
    /// entry, alert, and change-point sample is computed under it. A
    /// metric that conditions on an axis the schema cannot serve (one it
    /// lacks, or its only attribute) fails [`MonitorBuilder::build`].
    pub fn metric(mut self, metric: impl Metric + 'static) -> Self {
        self.metric = Some(Box::new(metric));
        self
    }

    /// Sets an already-boxed metric (see [`MonitorBuilder::metric`]).
    pub fn boxed_metric(mut self, metric: Box<dyn Metric>) -> Self {
        self.metric = Some(metric);
        self
    }

    /// Which attribute subsets [`FairnessMonitor::snapshot`] audits
    /// (default [`SubsetPolicy::None`]: the full intersection only — the
    /// per-push hot path never pays for the lattice).
    pub fn subsets(mut self, policy: SubsetPolicy) -> Self {
        self.subsets = policy;
        self
    }

    /// Window size W in records (default 10 000 when no wall-clock window
    /// is configured). The ring keeps the most recent chunks whose
    /// cumulative size is at most W, so feed uniform chunks of a size
    /// dividing W for an exact W-record window. Mutually exclusive with
    /// [`MonitorBuilder::window_seconds`].
    pub fn window(mut self, records: usize) -> Self {
        self.window_records = Some(records);
        self
    }

    /// Switches to a **wall-clock window**: the monitor keeps the last
    /// `seconds` of traffic (resolved at [`MonitorBuilder::bucket_seconds`]
    /// granularity) instead of the last W records, and is fed through
    /// [`FairnessMonitor::push_at`] / [`FairnessMonitor::advance_to`] with
    /// caller-supplied timestamps. Mutually exclusive with
    /// [`MonitorBuilder::window`].
    pub fn window_seconds(mut self, seconds: f64) -> Self {
        self.window_seconds = Some(seconds);
        self
    }

    /// Bucket granularity for the wall-clock window: timestamps are
    /// quantized to `⌊t / seconds⌋` buckets, and the window holds the last
    /// `⌈T / b⌉` buckets. Smaller buckets track the window edge more
    /// finely at the cost of a longer ring. Defaults to the full window
    /// span (a single bucket); requires
    /// [`MonitorBuilder::window_seconds`].
    pub fn bucket_seconds(mut self, seconds: f64) -> Self {
        self.bucket_seconds = Some(seconds);
        self
    }

    /// Enables the exponentially-decayed horizon: before each new bucket
    /// is absorbed, every horizon cell is scaled by `lambda ∈ (0, 1)`.
    /// The horizon half-life is `ln 2 / ln(1/λ)` buckets — e.g. λ = 0.99
    /// halves the influence of a bucket after ≈ 69 subsequent buckets.
    pub fn decay(mut self, lambda: f64) -> Self {
        self.decay = Some(lambda);
        self
    }

    /// Attaches an alert rule; chain multiple calls for multiple rules.
    pub fn alert(mut self, rule: AlertRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Attaches a change-point detector ([`Cusum`] or [`PageHinkley`]);
    /// chain multiple calls for multiple detectors.
    pub fn changepoint(mut self, detector: impl Into<ChangepointSpec>) -> Self {
        self.changepoints.push(detector.into());
        self
    }

    /// Injects a shared [`MonitorTelemetry`] bundle (handles are
    /// `Arc`-backed, so passing clones of one bundle to several monitors
    /// aggregates their events — this is how the fleet front-end sums
    /// alerts/alarms/evictions across shards without a merge step). A
    /// monitor built without one gets its own private bundle, reachable
    /// via [`FairnessMonitor::telemetry`]; the counters are pure stream
    /// functions either way, so nothing about ε, windows, or snapshots
    /// changes.
    pub fn telemetry(mut self, telemetry: MonitorTelemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Validates the configuration and builds the monitor.
    pub fn build(self) -> Result<FairnessMonitor> {
        if let Some(lambda) = self.decay {
            if !(lambda > 0.0 && lambda < 1.0) {
                return Err(DfError::Invalid(format!(
                    "decay lambda must lie in (0, 1), got {lambda}"
                )));
            }
        }
        for rule in &self.rules {
            if !rule.threshold.is_finite() || rule.threshold < 0.0 {
                return Err(DfError::Invalid(format!(
                    "alert threshold must be finite and non-negative, got {}",
                    rule.threshold
                )));
            }
        }
        for spec in &self.changepoints {
            spec.validate()?;
        }
        // Validate the schema once: the zero window must already be a legal
        // JointCounts (outcome axis present, ≥ 2 outcomes, ≥ 1 attribute).
        let zero = JointCounts::from_table(
            ContingencyTable::zeros(self.axes.clone())?,
            &self.outcome_axis,
        )?;
        let subset_attrs = self.subsets.lattice(&zero.attribute_names())?;
        let span = match (self.window_records, self.window_seconds) {
            (Some(_), Some(_)) => {
                return Err(DfError::Invalid(
                    "configure either a record-count window or a wall-clock window, not both"
                        .into(),
                ));
            }
            (records, None) => {
                if self.bucket_seconds.is_some() {
                    return Err(DfError::Invalid(
                        "bucket_seconds requires a wall-clock window (set window_seconds)".into(),
                    ));
                }
                let capacity = records.unwrap_or(10_000);
                if capacity == 0 {
                    return Err(DfError::Invalid(
                        "window must hold at least 1 record".into(),
                    ));
                }
                Span::Records(capacity)
            }
            (None, Some(span)) => {
                if !span.is_finite() || span <= 0.0 {
                    return Err(DfError::Invalid(format!(
                        "window_seconds must be finite and positive, got {span}"
                    )));
                }
                let bucket = self.bucket_seconds.unwrap_or(span);
                if !bucket.is_finite() || bucket <= 0.0 || bucket > span {
                    return Err(DfError::Invalid(format!(
                        "bucket_seconds must be finite, positive, and at most the \
                         {span}-second window, got {bucket}"
                    )));
                }
                // Millisecond floor: `⌊t / b⌋` must stay inside i64 for
                // every legal timestamp (≤ 1e15 s), or the saturating
                // float→int cast would silently collapse distinct times
                // into one never-evicted bucket. 1e15 / 1e-3 = 1e18,
                // comfortably under i64::MAX ≈ 9.2e18.
                if bucket < 1e-3 {
                    return Err(DfError::Invalid(format!(
                        "bucket_seconds must be at least 1 ms, got {bucket}"
                    )));
                }
                if (span / bucket).ceil() > 1e9 {
                    return Err(DfError::Invalid(format!(
                        "window of {span} s at {bucket} s buckets needs more than 1e9 \
                         buckets; coarsen the granularity"
                    )));
                }
                Span::Seconds {
                    bucket_seconds: bucket,
                    n_buckets: (span / bucket).ceil() as i64,
                }
            }
        };
        let window = Window::new(self.axes.clone(), span)?;
        let metric = self.metric.unwrap_or_else(Self::default_metric);
        let layout = GroupLayout::new(
            window.table(),
            window.table().axis_position(&self.outcome_axis)?,
        )
        .for_metric(&*metric, subset_attrs.iter().map(Vec::as_slice))?;
        let states = vec![RuleState::default(); self.rules.len()];
        let detectors = self
            .changepoints
            .into_iter()
            .map(DetectorState::new)
            .collect();
        let scratch = PartialCounts::zeros(self.axes.clone())?;
        let decayed = self
            .decay
            .map(|_| ContingencyTable::zeros(self.axes.clone()))
            .transpose()?;
        Ok(FairnessMonitor {
            layout,
            outcome_axis: self.outcome_axis,
            estimator: self.estimator.unwrap_or_else(Self::default_estimator),
            metric,
            subset_attrs,
            decay: self.decay,
            rules: self.rules,
            states,
            detectors,
            window_seconds: self.window_seconds,
            bucket_seconds: self
                .window_seconds
                .map(|span| self.bucket_seconds.unwrap_or(span)),
            window,
            scratch,
            decayed,
            records_seen: 0,
            alerts: Vec::new(),
            telemetry: self.telemetry.unwrap_or_default(),
            evictions_reported: 0,
        })
    }
}

// ---------------------------------------------------------------------------
// The monitor.
// ---------------------------------------------------------------------------

/// The streaming fairness monitor; see the [module docs](self).
pub struct FairnessMonitor {
    layout: GroupLayout,
    outcome_axis: String,
    estimator: Box<dyn EpsilonEstimator>,
    metric: Box<dyn Metric>,
    subset_attrs: Vec<Vec<String>>,
    decay: Option<f64>,
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    detectors: Vec<DetectorState>,
    /// Config echo for snapshots (wall-clock monitors only).
    window_seconds: Option<f64>,
    bucket_seconds: Option<f64>,
    window: Window,
    /// Reused per-push tally shard (cleared between chunks), so ingesting
    /// a bucket never re-allocates the schema.
    scratch: PartialCounts,
    /// Exponentially-decayed horizon counts (present iff decay set).
    decayed: Option<ContingencyTable>,
    records_seen: u64,
    alerts: Vec<Alert>,
    /// Telemetry handles (shared across a fleet's shards, or private).
    telemetry: MonitorTelemetry,
    /// Ring evictions already flushed into `telemetry.evicted_buckets` —
    /// the delta cursor that keeps the shared counter exact even though
    /// the rings only expose cumulative totals.
    evictions_reported: u64,
}

impl FairnessMonitor {
    /// Ingests one chunk as a new window bucket (a chunk of zero records
    /// stores none), evicts expired buckets, recomputes the windowed (and
    /// horizon) ε, and evaluates the alert rules and change-point
    /// detectors. Incremental cost is one chunk tally plus O(cells) —
    /// never a window re-scan (see the `monitor` criterion bench).
    ///
    /// Record-count windows only (the default, and
    /// [`MonitorBuilder::window`]); a wall-clock monitor must be fed
    /// through [`FairnessMonitor::push_at`]. A chunk larger than the
    /// window itself is rejected: it could never fit, and silently
    /// truncating it would break the window's "last W records" contract.
    pub fn push<C: Tally + ?Sized>(&mut self, chunk: &C) -> Result<MonitorStep> {
        self.ingest(chunk, None)
    }

    /// Wall-clock twin of [`FairnessMonitor::push`]: ingests one chunk at
    /// the caller-supplied timestamp (seconds; see
    /// [`MonitorBuilder::window_seconds`]), merging it into the bucket the
    /// timestamp lands in — out-of-order arrivals are folded into any
    /// bucket still inside the window; a timestamp older than the whole
    /// window is refused. Advancing timestamps evict expired buckets
    /// through the exact subtract path before ε is recomputed.
    pub fn push_at<C: Tally + ?Sized>(&mut self, chunk: &C, timestamp: f64) -> Result<MonitorStep> {
        self.ingest(chunk, Some(timestamp))
    }

    /// Shared body of [`FairnessMonitor::push`] and
    /// [`FairnessMonitor::push_at`]: seal the chunk, window it, absorb it
    /// into the horizon, and recompute.
    fn ingest<C: Tally + ?Sized>(&mut self, chunk: &C, at: Option<f64>) -> Result<MonitorStep> {
        let rows = self.seal_chunk(chunk)?;
        self.window.push(self.scratch.table(), rows, at)?;
        self.absorb_into_horizon()?;
        self.finish(rows)
    }

    /// Advances a wall-clock monitor's clock with **zero arrivals**:
    /// evicts every bucket older than `timestamp − T`, recomputes ε over
    /// what remains (down to the vacuous ε = 0 of the empty window), and
    /// evaluates alert rules and change-point detectors on the new state.
    /// Timestamps behind the current clock are a no-op evaluation (the
    /// clock is the max over everything seen). Serving fleets call this
    /// on a timer so a silent upstream cannot freeze the window contents.
    pub fn advance_to(&mut self, timestamp: f64) -> Result<MonitorStep> {
        self.window.advance_to(timestamp)?;
        self.finish(0)
    }

    /// Clears and re-fills the scratch tally from `chunk`, validating
    /// every cell: `Tally` impls are user code with access to weighted
    /// `add`, and a negative, fractional, or non-finite cell would
    /// silently break the integer-tally premise the exact merge/subtract
    /// window rests on (a negative count turns ε into NaN, which no alert
    /// rule ever fires on), and a chunk whose total overflows would count
    /// no records at all. This is the monitor's door: the window and the
    /// horizon are sums of sealed chunks, read by the kernel unchecked.
    /// Returns the chunk's record count.
    fn seal_chunk<C: Tally + ?Sized>(&mut self, chunk: &C) -> Result<usize> {
        self.scratch.clear();
        chunk.tally_into(&mut self.scratch)?;
        let cells = self.scratch.table().data();
        if let Some(cell) = cells
            .iter()
            .position(|&v| !valid_cell(v) || !exactly_zero(v.fract()))
        {
            return Err(DfError::Invalid(format!(
                "monitor buckets need finite, non-negative, integer cell tallies; \
                 cell {cell} holds {}",
                cells[cell]
            )));
        }
        Ok(check_total(cells)? as usize)
    }

    /// Scales the decayed horizon and absorbs the freshly sealed bucket.
    fn absorb_into_horizon(&mut self) -> Result<()> {
        if let (Some(lambda), Some(decayed)) = (self.decay, self.decayed.as_mut()) {
            decayed.scale(lambda)?;
            decayed.merge_from(self.scratch.table())?;
        }
        Ok(())
    }

    /// Shared post-ingest tail: account the rows, recompute ε, evaluate
    /// alert rules and change-point detectors, assemble the step.
    fn finish(&mut self, rows: usize) -> Result<MonitorStep> {
        self.records_seen += rows as u64;
        // The raw worst-pair log-ratio is only computed when a detector
        // actually watches it: one more pass over the headline's table, or
        // over a table of its own under a metric that conditions.
        let watched = self
            .detectors
            .iter()
            .any(|d| d.spec().signal() == ChangeSignal::RawLogRatio);
        let (epsilon, raw_epsilon) = if watched {
            let data = self.window.table().data();
            let (metric, estimator) = (&*self.metric, &*self.estimator);
            let (epsilon, raw) = self.layout.evaluate_with_raw(data, metric, estimator)?;
            (epsilon, Some(raw))
        } else {
            (self.window_epsilon()?, None)
        };
        let decayed_epsilon = self.decayed.as_ref().map(|d| self.evaluate(d));
        let decayed_epsilon = decayed_epsilon.transpose()?;
        let now_seconds = self.window.now();
        let fired = self.evaluate_rules(&epsilon, now_seconds);
        let mut alarms = Vec::new();
        for detector in &mut self.detectors {
            let sample = match detector.spec().signal() {
                ChangeSignal::Epsilon => epsilon.epsilon,
                ChangeSignal::RawLogRatio => raw_epsilon.expect("computed when watched"),
            };
            if let Some(alarm) = detector.observe(sample, self.records_seen, now_seconds) {
                alarms.push(alarm);
            }
        }
        self.telemetry.alerts_fired.add(fired.len() as u64);
        self.telemetry.alarms_fired.add(alarms.len() as u64);
        let evicted_total = self.window.evicted_buckets();
        self.telemetry
            .evicted_buckets
            .add(evicted_total - self.evictions_reported);
        self.evictions_reported = evicted_total;
        Ok(MonitorStep {
            records_seen: self.records_seen,
            window_rows: self.window.rows() as u64,
            now_seconds,
            epsilon,
            decayed_epsilon,
            fired,
            alarms,
        })
    }

    /// The configured metric's statistic of the current window — the same
    /// value a batch [`crate::builder::Audit`] of the window's records
    /// would headline, byte for byte (read through the monitor's
    /// `GroupLayout`, the very code behind `JointCounts::group_outcomes`).
    pub fn window_epsilon(&self) -> Result<EpsilonResult> {
        self.evaluate(self.window.table())
    }

    /// The configured metric's statistic of one counts table.
    fn evaluate(&self, table: &ContingencyTable) -> Result<EpsilonResult> {
        self.layout
            .evaluate(table.data(), &*self.metric, &*self.estimator)
    }

    fn evaluate_rules(&mut self, epsilon: &EpsilonResult, now_seconds: Option<f64>) -> Vec<Alert> {
        let mut fired = Vec::new();
        for (rule, state) in self.rules.iter().zip(&mut self.states) {
            if epsilon.epsilon > rule.threshold {
                state.streak += 1;
                if !state.active && state.streak >= rule.consecutive {
                    state.active = true;
                    let alert = Alert {
                        rule: *rule,
                        at_record: self.records_seen,
                        at_seconds: now_seconds,
                        epsilon: epsilon.epsilon,
                        witness: epsilon.witness.clone(),
                    };
                    fired.push(alert.clone());
                    self.alerts.push(alert);
                }
            } else {
                state.streak = 0;
                state.active = false;
            }
        }
        fired
    }

    /// Records currently inside the window.
    pub fn window_rows(&self) -> usize {
        self.window.rows()
    }

    /// Total records ingested over the monitor's lifetime.
    pub fn records_seen(&self) -> u64 {
        self.records_seen
    }

    /// Largest timestamp seen so far (wall-clock monitors only; `None`
    /// for record-count windows and before the first push).
    pub fn now_seconds(&self) -> Option<f64> {
        self.window.now()
    }

    /// The window's joint counts (outcome axis wherever the schema put it).
    pub fn window_counts(&self) -> &ContingencyTable {
        self.window.table()
    }

    /// Every alert fired so far, in firing order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// The monitor's telemetry handles (the injected shared bundle, or
    /// this monitor's private one). Durations in
    /// [`MonitorTelemetry::push_seconds`] are observed by the caller —
    /// core never reads a clock.
    pub fn telemetry(&self) -> &MonitorTelemetry {
        &self.telemetry
    }

    /// Every change-point alarm raised so far, across all detectors, in
    /// stream order.
    pub fn changepoint_alarms(&self) -> Vec<ChangepointAlarm> {
        let mut all: Vec<ChangepointAlarm> = self
            .detectors
            .iter()
            .flat_map(|d| d.alarms().iter().cloned())
            .collect();
        all.sort_by_key(|a| a.at_record);
        all
    }

    /// The full serializable, mergeable monitor state: window and horizon
    /// counts, ε, the per-subset lattice dictated by the configured
    /// [`SubsetPolicy`], change-point detector states, and the alert log
    /// in canonical order — the mergeable state, derived once under the
    /// monitor's own metric and estimator.
    pub fn snapshot(&self) -> Result<MonitorSnapshot> {
        let mut snapshot = self.state();
        snapshot.derive(Some(&self.layout), &*self.metric, &*self.estimator)?;
        Ok(snapshot)
    }

    /// The layout this monitor reads every table through (a fleet derives
    /// its cuts through its first shard's).
    pub(crate) fn layout(&self) -> &GroupLayout {
        &self.layout
    }

    /// The mergeable half of [`FairnessMonitor::snapshot`]: counts, clock,
    /// totals, the alert log and detector states, with the derived fields
    /// unset (ε NaN, no estimator echo), as `absorb_counts` leaves them. A
    /// fleet cut copies this under the shard lock and derives once, at
    /// the root.
    pub(crate) fn state(&self) -> MonitorSnapshot {
        let unset = || EpsilonResult {
            epsilon: f64::NAN,
            witness: None,
        };
        MonitorSnapshot {
            outcome_axis: self.outcome_axis.clone(),
            estimator: String::new(),
            metric: self.metric.tag(),
            records_seen: self.records_seen,
            window_rows: self.window.rows() as u64,
            window_seconds: self.window_seconds,
            bucket_seconds: self.bucket_seconds,
            now_seconds: self.window.now(),
            window: CountsSnapshot::from_table(self.window.table()),
            decayed: self.decayed.as_ref().map(CountsSnapshot::from_table),
            decay: self.decay,
            epsilon: unset(),
            decayed_epsilon: None,
            subsets: self
                .subset_attrs
                .iter()
                .map(|attributes| SubsetEpsilon {
                    attributes: attributes.clone(),
                    result: unset(),
                })
                .collect(),
            alerts: self.alerts.clone(),
            changepoints: self.detectors.iter().map(|d| d.status()).collect(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::{Audit, Empirical};

    /// A chunk of index rows: (outcome, group) pairs unless `N` says
    /// otherwise.
    pub(crate) struct Rows<const N: usize = 2>(pub(crate) Vec<[usize; N]>);

    impl<const N: usize> Tally for Rows<N> {
        fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
            for idx in &self.0 {
                shard.record(idx);
            }
            Ok(())
        }
    }

    pub(crate) fn axes() -> Vec<Axis> {
        vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ]
    }

    /// A balanced chunk (ε = 0) and a skewed chunk (ε > 0), both 4 records.
    fn balanced() -> Rows {
        Rows(vec![[0, 0], [1, 0], [0, 1], [1, 1]])
    }

    pub(crate) fn skewed() -> Rows {
        Rows(vec![[1, 0], [1, 0], [0, 1], [0, 1]])
    }

    #[test]
    fn telemetry_counts_alerts_and_evictions() {
        let tel = MonitorTelemetry::new();
        let mut monitor = Audit::monitor("y", axes())
            .window(4)
            .alert(AlertRule::epsilon_above(0.1))
            .telemetry(tel.clone())
            .build()
            .unwrap();
        monitor.push(&balanced()).unwrap();
        assert_eq!(tel.alerts_fired.get(), 0);
        assert_eq!(tel.evicted_buckets.get(), 0);
        // The skewed chunk fills the 4-record window — evicting the
        // balanced bucket — and trips the rule.
        let step = monitor.push(&skewed()).unwrap();
        assert_eq!(step.fired.len(), 1);
        assert_eq!(tel.alerts_fired.get(), 1);
        assert_eq!(tel.evicted_buckets.get(), 1);
        // Push durations are caller-observed (core owns no clock) onto
        // the same shared bundle the monitor exposes.
        tel.push_seconds.observe(0.002);
        assert_eq!(monitor.telemetry().push_seconds.count(), 1);
    }

    #[test]
    fn builder_validates_configuration() {
        assert!(Audit::monitor("y", axes()).window(0).build().is_err());
        assert!(Audit::monitor("y", axes()).decay(0.0).build().is_err());
        assert!(Audit::monitor("y", axes()).decay(1.0).build().is_err());
        assert!(Audit::monitor("nope", axes()).build().is_err());
        assert!(Audit::monitor("y", axes())
            .alert(AlertRule::epsilon_above(f64::NAN))
            .build()
            .is_err());
        // A single outcome label is not a legal schema.
        let bad = vec![
            Axis::from_strs("y", &["only"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ];
        assert!(Audit::monitor("y", bad).build().is_err());
        // Wall-clock configuration: both window kinds at once, bucket
        // without a span, degenerate spans/buckets, bad detector params.
        assert!(Audit::monitor("y", axes())
            .window(8)
            .window_seconds(60.0)
            .build()
            .is_err());
        assert!(Audit::monitor("y", axes())
            .bucket_seconds(5.0)
            .build()
            .is_err());
        assert!(Audit::monitor("y", axes())
            .window_seconds(0.0)
            .build()
            .is_err());
        assert!(Audit::monitor("y", axes())
            .window_seconds(f64::INFINITY)
            .build()
            .is_err());
        assert!(Audit::monitor("y", axes())
            .window_seconds(60.0)
            .bucket_seconds(0.0)
            .build()
            .is_err());
        assert!(Audit::monitor("y", axes())
            .window_seconds(60.0)
            .bucket_seconds(120.0)
            .build()
            .is_err());
        assert!(Audit::monitor("y", axes())
            .window_seconds(1e12)
            .bucket_seconds(1e-3)
            .build()
            .is_err());
        // Sub-millisecond buckets would let `⌊t / b⌋` saturate i64 at
        // legal timestamps (a silently never-evicted bucket): refused.
        assert!(Audit::monitor("y", axes())
            .window_seconds(1.0)
            .bucket_seconds(1e-5)
            .build()
            .is_err());
        assert!(Audit::monitor("y", axes())
            .changepoint(Cusum::new(0.1, 0.05, 0.0))
            .build()
            .is_err());
    }

    #[test]
    fn window_evicts_oldest_buckets_exactly() {
        let mut m = Audit::monitor("y", axes())
            .estimator(Empirical)
            .window(8)
            .build()
            .unwrap();
        // Fill the window with skew, then flush it out with balance.
        m.push(&skewed()).unwrap();
        let full_skew = m.push(&skewed()).unwrap();
        assert_eq!(full_skew.window_rows, 8);
        assert!(full_skew.epsilon.epsilon.is_infinite());
        m.push(&balanced()).unwrap();
        let step = m.push(&balanced()).unwrap();
        // Both skewed buckets have been evicted: the window is exactly the
        // two balanced chunks, so ε = 0 and the counts prove it.
        assert_eq!(step.window_rows, 8);
        assert_eq!(step.epsilon.epsilon, 0.0);
        assert_eq!(m.window_counts().data(), &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(m.records_seen(), 16);
    }

    #[test]
    fn empty_chunks_store_no_bucket() {
        // Record window: empty chunks leave no bucket behind, so only the
        // two real chunks that fall out of the window are ever evicted.
        let mut m = Audit::monitor("y", axes()).window(4).build().unwrap();
        m.push(&balanced()).unwrap();
        for _ in 0..1_000 {
            m.push(&Rows::<2>(Vec::new())).unwrap();
        }
        m.push(&skewed()).unwrap();
        m.push(&skewed()).unwrap();
        assert_eq!(m.telemetry().evicted_buckets.get(), 2);
        assert_eq!(m.window_rows(), 4);
        assert_eq!(m.window_counts().data(), &[0.0, 2.0, 2.0, 0.0]);
        // Wall-clock window: an empty push stores nothing but still
        // advances the clock and evicts the one real bucket.
        let mut m = Audit::monitor("y", axes())
            .window_seconds(10.0)
            .bucket_seconds(1.0)
            .build()
            .unwrap();
        m.push_at(&balanced(), 0.0).unwrap();
        for t in 1..=1_000 {
            m.push_at(&Rows::<2>(Vec::new()), t as f64).unwrap();
        }
        assert_eq!(m.telemetry().evicted_buckets.get(), 1);
        assert_eq!(m.window_rows(), 0);
        assert_eq!(m.now_seconds(), Some(1_000.0));
    }

    #[test]
    fn oversized_chunk_is_rejected() {
        let mut m = Audit::monitor("y", axes()).window(3).build().unwrap();
        assert!(m.push(&balanced()).is_err());
    }

    #[test]
    fn corrupt_buckets_are_rejected_per_cell() {
        struct Weighted(Vec<([usize; 2], f64)>);
        impl Tally for Weighted {
            fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
                for (idx, w) in &self.0 {
                    shard.add(idx, *w);
                }
                Ok(())
            }
        }
        let mut m = Audit::monitor("y", axes()).window(8).build().unwrap();
        // Negative cell masked by a clean total: must be refused.
        assert!(m
            .push(&Weighted(vec![([0, 0], -1.0), ([1, 0], 3.0)]))
            .is_err());
        // Fractional cells summing to an integer total: refused too.
        assert!(m
            .push(&Weighted(vec![([0, 0], 2.5), ([1, 1], 1.5)]))
            .is_err());
        // NaN never sneaks in as a count.
        assert!(m.push(&Weighted(vec![([0, 0], f64::NAN)])).is_err());
        // The window is untouched by rejected chunks…
        assert_eq!(m.window_rows(), 0);
        assert_eq!(m.records_seen(), 0);
        // …and healthy integer-weighted chunks still flow.
        let step = m
            .push(&Weighted(vec![([0, 0], 2.0), ([1, 1], 2.0)]))
            .unwrap();
        assert_eq!(step.window_rows, 4);
    }

    /// Integer cells whose total overflows `f64` are refused at the chunk
    /// door. Their total used to read as 0 records, so the push succeeded
    /// and the window silently kept none of the chunk.
    #[test]
    fn a_chunk_whose_total_overflows_is_refused() {
        struct Heavy;
        impl Tally for Heavy {
            fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
                shard.add(&[0, 0], 1e308);
                shard.add(&[1, 0], 1e308);
                shard.record(&[1, 1]);
                Ok(())
            }
        }
        let mut m = Audit::monitor("y", axes())
            .window_seconds(60.0)
            .build()
            .unwrap();
        let err = m.push_at(&Heavy, 1.0).unwrap_err();
        assert!(
            matches!(&err, DfError::Invalid(msg) if msg.contains("overflows")),
            "{err:?}"
        );
        assert_eq!((m.window_rows(), m.records_seen()), (0, 0));
    }

    #[test]
    fn alerts_fire_with_hysteresis_and_witness() {
        let mut m = Audit::monitor("y", axes())
            .estimator(Smoothed { alpha: 1.0 })
            .window(4)
            .alert(AlertRule::epsilon_above(0.5).for_consecutive(2))
            .build()
            .unwrap();
        // First breach: streak 1, no alert yet.
        assert!(m.push(&skewed()).unwrap().fired.is_empty());
        // Second consecutive breach: fires, with the worst pair attached.
        let step = m.push(&skewed()).unwrap();
        assert_eq!(step.fired.len(), 1);
        let alert = &step.fired[0];
        assert_eq!(alert.at_record, 8);
        assert_eq!(alert.at_seconds, None);
        assert!(alert.epsilon > 0.5);
        assert!(alert.witness.is_some());
        // Still breaching: hysteresis suppresses a repeat.
        assert!(m.push(&skewed()).unwrap().fired.is_empty());
        // Recover below the threshold: the rule re-arms…
        assert!(m.push(&balanced()).unwrap().fired.is_empty());
        assert!(m.push(&balanced()).unwrap().fired.is_empty());
        // …and a fresh sustained breach fires again.
        assert!(m.push(&skewed()).unwrap().fired.is_empty());
        assert_eq!(m.push(&skewed()).unwrap().fired.len(), 1);
        assert_eq!(m.alerts().len(), 2);
    }

    #[test]
    fn decayed_horizon_tracks_trend() {
        let mut m = Audit::monitor("y", axes())
            .estimator(Smoothed { alpha: 1.0 })
            .window(4)
            .decay(0.5)
            .build()
            .unwrap();
        for _ in 0..20 {
            m.push(&balanced()).unwrap();
        }
        let calm = m.snapshot().unwrap();
        assert_eq!(calm.epsilon.epsilon, 0.0);
        assert!(calm.trend().unwrap().abs() < 1e-9);
        // A sudden skew: the window reacts fully, the horizon only partly.
        let step = m.push(&skewed()).unwrap();
        let horizon = step.decayed_epsilon.unwrap();
        assert!(step.epsilon.epsilon > horizon.epsilon);
        let snap = m.snapshot().unwrap();
        assert!(snap.trend().unwrap() > 0.0);
    }

    #[test]
    fn snapshot_serializes_and_merges_across_shards() {
        let build = || {
            Audit::monitor("y", axes())
                .estimator(Smoothed { alpha: 1.0 })
                .subsets(SubsetPolicy::All)
                .window(8)
                .build()
                .unwrap()
        };
        let mut shard_a = build();
        let mut shard_b = build();
        shard_a.push(&skewed()).unwrap();
        shard_b.push(&balanced()).unwrap();
        let snap_a = shard_a.snapshot().unwrap();
        let snap_b = shard_b.snapshot().unwrap();

        // JSON round-trip.
        let json = serde_json::to_string(&snap_a).unwrap();
        let back: MonitorSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap_a);

        // Merging shard snapshots equals one monitor that saw all traffic.
        let merged = snap_a.merge(&snap_b, &Smoothed { alpha: 1.0 }).unwrap();
        let mut whole = build();
        whole.push(&skewed()).unwrap();
        whole.push(&balanced()).unwrap();
        let direct = whole.snapshot().unwrap();
        assert_eq!(merged.window, direct.window);
        assert_eq!(merged.epsilon, direct.epsilon);
        assert_eq!(merged.subsets, direct.subsets);
        assert_eq!(merged.window_rows, 8);
        assert_eq!(merged.records_seen, 8);
        // Merge is commutative on the counts.
        let flipped = snap_b.merge(&snap_a, &Smoothed { alpha: 1.0 }).unwrap();
        assert_eq!(flipped.window, merged.window);
        assert_eq!(flipped.epsilon, merged.epsilon);
    }

    /// Regression for the metric layer: merging used to recompute the
    /// statistic with bare ε semantics regardless of what the shards
    /// tracked. A two-shard min/max-ratio fleet must recompute the
    /// *ratio* over the summed cells — hand-checked below — and a
    /// min/max-ratio shard must refuse to merge with an ε-DF shard.
    #[test]
    fn merged_snapshots_recompute_under_the_shard_metric_not_epsilon() {
        use crate::metric::WorstCaseRatio;
        let build = || {
            Audit::monitor("y", axes())
                .estimator(Smoothed { alpha: 1.0 })
                .metric(WorstCaseRatio)
                .window(8)
                .build()
                .unwrap()
        };
        let mut shard_a = build();
        let mut shard_b = build();
        shard_a.push(&skewed()).unwrap();
        shard_b.push(&balanced()).unwrap();
        let merged = shard_a
            .snapshot()
            .unwrap()
            .merge(&shard_b.snapshot().unwrap(), &Smoothed { alpha: 1.0 })
            .unwrap();
        assert_eq!(merged.metric, "wc-ratio");
        // Union window: yes = (a: 3, b: 1), no = (a: 1, b: 3). Smoothed
        // with α = 1: P(yes|a) = 4/6, P(yes|b) = 2/6, so the worst-case
        // min/max ratio shortfall is 1 − (1/3)/(2/3) = 0.5 — not ln 2,
        // which is what the old ε-semantics recompute would report.
        assert!((merged.epsilon.epsilon - 0.5).abs() < 1e-12);
        assert!((merged.epsilon.epsilon - 2.0f64.ln()).abs() > 0.1);
        // Byte-identical to one monitor that saw all the traffic.
        let mut whole = build();
        whole.push(&skewed()).unwrap();
        whole.push(&balanced()).unwrap();
        let direct = whole.snapshot().unwrap();
        assert_eq!(merged.epsilon, direct.epsilon);
        assert_eq!(merged.window, direct.window);
        // Cross-metric merges fail typed at the compatibility gate.
        let mut eps_shard = Audit::monitor("y", axes())
            .estimator(Smoothed { alpha: 1.0 })
            .window(8)
            .build()
            .unwrap();
        eps_shard.push(&balanced()).unwrap();
        let err = shard_a
            .snapshot()
            .unwrap()
            .merge(&eps_shard.snapshot().unwrap(), &Smoothed { alpha: 1.0 })
            .unwrap_err();
        assert!(err.to_string().contains("metric"), "got: {err}");
    }

    #[test]
    fn merge_rejects_mismatched_shards() {
        let snap = |outcome: &str, axes: Vec<Axis>| {
            let mut m = Audit::monitor(outcome, axes).window(8).build().unwrap();
            m.push(&balanced()).unwrap();
            m.snapshot().unwrap()
        };
        let a = snap("y", axes());
        let other_axes = vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b", "c"]).unwrap(),
        ];
        let mut m = Audit::monitor("y", other_axes).window(8).build().unwrap();
        m.push(&balanced()).unwrap();
        let b = m.snapshot().unwrap();
        assert!(a.merge(&b, &Smoothed { alpha: 1.0 }).is_err());
        // Decay configuration must match too.
        let mut m = Audit::monitor("y", axes())
            .window(8)
            .decay(0.9)
            .build()
            .unwrap();
        m.push(&balanced()).unwrap();
        let c = m.snapshot().unwrap();
        assert!(a.merge(&c, &Smoothed { alpha: 1.0 }).is_err());
        // Wall-clock configuration must match: a record-count shard never
        // merges with a time-windowed one, nor two different spans.
        let time_snap = |span: f64| {
            let mut m = Audit::monitor("y", axes())
                .window_seconds(span)
                .build()
                .unwrap();
            m.push_at(&balanced(), 1.0).unwrap();
            m.snapshot().unwrap()
        };
        let t60 = time_snap(60.0);
        assert!(a.merge(&t60, &Smoothed { alpha: 1.0 }).is_err());
        assert!(t60
            .merge(&time_snap(30.0), &Smoothed { alpha: 1.0 })
            .is_err());
        // Change-point detector lists must match.
        let mut m = Audit::monitor("y", axes())
            .window(8)
            .changepoint(Cusum::new(0.1, 0.05, 0.5))
            .build()
            .unwrap();
        m.push(&balanced()).unwrap();
        let d = m.snapshot().unwrap();
        assert!(a.merge(&d, &Smoothed { alpha: 1.0 }).is_err());
    }

    #[test]
    fn snapshot_subsets_follow_the_policy() {
        let three_axes = vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
            Axis::from_strs("r", &["x", "z"]).unwrap(),
        ];
        struct Triples(Vec<[usize; 3]>);
        impl Tally for Triples {
            fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
                for idx in &self.0 {
                    shard.record(idx);
                }
                Ok(())
            }
        }
        let rows = Triples(vec![
            [0, 0, 0],
            [1, 0, 1],
            [0, 1, 0],
            [1, 1, 1],
            [1, 0, 0],
            [0, 1, 1],
        ]);
        let mut m = Audit::monitor("y", three_axes)
            .estimator(Smoothed { alpha: 1.0 })
            .subsets(SubsetPolicy::All)
            .window(16)
            .build()
            .unwrap();
        m.push(&rows).unwrap();
        let snap = m.snapshot().unwrap();
        let sizes: Vec<usize> = snap.subsets.iter().map(|s| s.attributes.len()).collect();
        assert_eq!(sizes, vec![1, 1, 2]);
        assert_eq!(snap.subsets.last().unwrap().attributes, vec!["g", "r"]);
        // The full-intersection subset entry is the headline ε itself.
        assert_eq!(snap.subsets.last().unwrap().result, snap.epsilon);
    }

    #[test]
    fn cached_engine_matches_the_audit_path_exactly() {
        // Outcome axis deliberately NOT first, sparse cells, an empty
        // group: the monitor's schema-order layout must reproduce
        // `JointCounts::group_outcomes(0.0)` value for value.
        let axes = vec![
            Axis::from_strs("g", &["a", "b", "c"]).unwrap(),
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("r", &["x", "z"]).unwrap(),
        ];
        let data = vec![3.0, 1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 5.0, 7.0, 2.0, 1.0];
        let table = ContingencyTable::from_data(axes, data).unwrap();
        let fast = GroupLayout::new(&table, 1).group_outcomes(table.data());
        let slow = JointCounts::from_table(table, "y")
            .unwrap()
            .group_outcomes(0.0)
            .unwrap();
        assert_eq!(fast, slow);
        assert_eq!(
            serde_json::to_string(&fast.epsilon()).unwrap(),
            serde_json::to_string(&slow.epsilon()).unwrap()
        );
    }

    #[test]
    fn empty_window_has_vacuous_epsilon() {
        let m = Audit::monitor("y", axes()).window(4).build().unwrap();
        let snap = m.snapshot().unwrap();
        assert_eq!(snap.epsilon.epsilon, 0.0);
        assert!(snap.epsilon.witness.is_none());
        assert_eq!(snap.window_rows, 0);
        assert_eq!(snap.window_seconds, None);
        assert_eq!(snap.now_seconds, None);
    }

    #[test]
    fn window_modes_reject_the_wrong_feed() {
        let mut by_count = Audit::monitor("y", axes()).window(8).build().unwrap();
        assert!(by_count.push_at(&balanced(), 1.0).is_err());
        assert!(by_count.advance_to(1.0).is_err());
        let mut by_time = Audit::monitor("y", axes())
            .window_seconds(60.0)
            .build()
            .unwrap();
        assert!(by_time.push(&balanced()).is_err());
        // Rejections leave both monitors untouched.
        assert_eq!(by_count.records_seen(), 0);
        assert_eq!(by_time.records_seen(), 0);
    }

    #[test]
    fn wall_clock_window_slides_and_drains() {
        let mut m = Audit::monitor("y", axes())
            .estimator(Empirical)
            .window_seconds(10.0)
            .bucket_seconds(1.0)
            .build()
            .unwrap();
        m.push_at(&skewed(), 0.5).unwrap();
        let step = m.push_at(&balanced(), 5.0).unwrap();
        assert_eq!(step.window_rows, 8);
        assert_eq!(step.now_seconds, Some(5.0));
        // Window = skew + balance: P(yes|a) = 3/4 vs P(yes|b) = 1/4 → ln 3.
        assert!((step.epsilon.epsilon - 3.0f64.ln()).abs() < 1e-12);
        // t = 12: bucket 0 (the skew) leaves the 10-bucket window; only
        // the balanced chunk remains, so ε collapses to 0.
        let step = m.advance_to(12.0).unwrap();
        assert_eq!(step.window_rows, 4);
        assert_eq!(step.epsilon.epsilon, 0.0);
        assert_eq!(m.window_counts().data(), &[1.0, 1.0, 1.0, 1.0]);
        // Idle long enough and the window drains to vacuous ε.
        let step = m.advance_to(100.0).unwrap();
        assert_eq!(step.window_rows, 0);
        assert_eq!(step.epsilon.epsilon, 0.0);
        assert_eq!(m.records_seen(), 8);
        let snap = m.snapshot().unwrap();
        assert_eq!(snap.window_seconds, Some(10.0));
        assert_eq!(snap.bucket_seconds, Some(1.0));
        assert_eq!(snap.now_seconds, Some(100.0));
    }

    #[test]
    fn changepoint_detectors_alarm_and_merge() {
        let build = || {
            Audit::monitor("y", axes())
                .estimator(Smoothed { alpha: 1.0 })
                .window_seconds(4.0)
                .bucket_seconds(1.0)
                .changepoint(Cusum::new(0.0, 0.1, 1.0))
                .changepoint(PageHinkley::new(0.0, 0.1, 1.0))
                .build()
                .unwrap()
        };
        let mut m = build();
        // A calm stream accumulates nothing.
        for t in 0..6 {
            let step = m.push_at(&balanced(), t as f64).unwrap();
            assert!(step.alarms.is_empty());
        }
        // Sustained skew: windowed ε jumps to ~1.1, both detectors cross
        // their thresholds within two steps.
        let mut raised = Vec::new();
        for t in 6..10 {
            raised.extend(m.push_at(&skewed(), t as f64).unwrap().alarms);
        }
        assert!(!raised.is_empty());
        assert!(raised.iter().any(|a| a.detector.name() == "cusum"));
        assert!(raised.iter().any(|a| a.detector.name() == "page-hinkley"));
        assert_eq!(m.changepoint_alarms().len(), raised.len());

        // Snapshots carry detector state; the JSON round-trips; merging
        // keeps the worst shard's statistic and the union of alarms.
        let snap = m.snapshot().unwrap();
        assert_eq!(snap.changepoints.len(), 2);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MonitorSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let calm = build().snapshot().unwrap();
        let merged = snap.merge(&calm, &Smoothed { alpha: 1.0 }).unwrap();
        assert_eq!(merged.changepoints.len(), 2);
        for (m_st, s_st) in merged.changepoints.iter().zip(&snap.changepoints) {
            assert_eq!(m_st.statistic, s_st.statistic);
            assert_eq!(m_st.alarms, s_st.alarms);
        }
    }
}
