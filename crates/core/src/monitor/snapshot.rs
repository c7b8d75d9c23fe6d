//! Serializable, shard-mergeable monitor state, and the one fold that
//! derives its statistics.
//!
//! A [`MonitorSnapshot`]'s mergeable half is counts and logs, which
//! snapshots of disjoint traffic combine by addition, max and
//! concatenation (`absorb_counts`). Its derived half — the headline,
//! decayed and subset statistics, the estimator echo and the canonical
//! alert and alarm order — is computed from those counts by `derive`
//! alone, once per snapshot: by [`crate::monitor::FairnessMonitor::snapshot`]
//! under the monitor's own metric and estimator, by a fleet cut after
//! folding its shards' counts and replicas, and by [`merge_many`] and
//! [`MonitorSnapshot::merge`] after the last absorb.
//!
//! `derive` evaluates the whole subset lattice in one pass through a group
//! layout. The monitor's and the fleet's own layout read the wire cells in
//! place, checked as [`CountsSnapshot::to_table`] checks them; a fold of
//! wire snapshots ([`merge_many`], [`MonitorSnapshot::merge`],
//! [`MonitorSnapshot::with_metric`]) builds the window's table once and a
//! layout from it.

use super::changepoint::ChangepointStatus;
use super::{Alert, ChangepointAlarm};
use crate::builder::EpsilonEstimator;
use crate::edf::{check_cells, check_total, outcome_position, GroupLayout};
use crate::epsilon::EpsilonResult;
use crate::error::{DfError, Result};
use crate::metric::{metric_from_tag, Metric};
use crate::report::{fmt_count, fmt_epsilon, Align, ResponseFormat, TextTable};
use crate::subsets::SubsetEpsilon;
use df_prob::contingency::{add_cells, Axis, ContingencyTable};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A serializable contingency table: named axes plus row-major cell data.
/// The wire form of the monitor's window and horizon counts (df-prob's
/// [`ContingencyTable`] itself stays serde-free).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CountsSnapshot {
    /// `(axis name, ordered labels)` per axis, in storage order.
    pub axes: Vec<(String, Vec<String>)>,
    /// Row-major cell values.
    pub data: Vec<f64>,
}

impl CountsSnapshot {
    /// Captures a table.
    pub fn from_table(table: &ContingencyTable) -> Self {
        Self {
            axes: table
                .axes()
                .iter()
                .map(|a| (a.name().to_string(), a.labels().to_vec()))
                .collect(),
            data: table.data().to_vec(),
        }
    }

    /// Reconstructs the table, validating axes and cell values.
    ///
    /// Snapshots arrive over the wire (JSON dashboards, the binary fleet
    /// codec), so the cells are untrusted: a NaN, infinite, or negative
    /// cell is rejected with the same typed [`DfError::CorruptCounts`]
    /// that guards [`crate::JointCounts::from_table`] — ε over such a
    /// table would silently propagate NaN instead of certifying anything.
    pub fn to_table(&self) -> Result<ContingencyTable> {
        check_cells(&self.data)?;
        let axes = self
            .axes
            .iter()
            .map(|(name, labels)| Axis::new(name.clone(), labels.clone()))
            .collect::<df_prob::Result<Vec<_>>>()?;
        Ok(ContingencyTable::from_data(axes, self.data.clone())?)
    }

    /// The layout these counts are read through, after the door check
    /// of every counts table the kernel reads (the cell check of
    /// [`CountsSnapshot::to_table`] and a total that cannot overflow; a
    /// fold's sum meets it here too): `known`, or else one built from
    /// `to_table()` with `outcome_axis` as the outcome, for `metric` over
    /// the lattice of `subsets`.
    fn layout<'k>(
        &self,
        known: Option<&'k GroupLayout>,
        outcome_axis: &str,
        metric: &dyn Metric,
        subsets: &[SubsetEpsilon],
    ) -> Result<Cow<'k, GroupLayout>> {
        if let Some(layout) = known {
            check_cells(&self.data)?;
            check_total(&self.data)?;
            return Ok(Cow::Borrowed(layout));
        }
        let table = self.to_table()?;
        check_total(&self.data)?;
        GroupLayout::new(&table, outcome_position(&table, outcome_axis)?)
            .for_metric(metric, subsets.iter().map(|s| s.attributes.as_slice()))
            .map(Cow::Owned)
    }

    /// Cell-wise adds another snapshot into this one, in place. The two
    /// snapshots must agree on axes *and* cell count (wire data can lie
    /// about either independently; a silent `zip` truncation would drop
    /// mass). This is the accumulation step behind
    /// [`MonitorSnapshot::merge`] and [`merge_many`], which folds
    /// thousands of shard snapshots without re-cloning axes per pair.
    pub fn merge_from(&mut self, other: &CountsSnapshot) -> Result<()> {
        if self.axes != other.axes {
            return Err(DfError::Invalid(
                "cannot merge monitor snapshots over different schemas".into(),
            ));
        }
        if self.data.len() != other.data.len() {
            return Err(DfError::Invalid(format!(
                "snapshot cell counts differ ({} vs {}) despite identical axes; \
                 one side's data vector is corrupt",
                self.data.len(),
                other.data.len()
            )));
        }
        Ok(add_cells(&mut self.data, &other.data)?)
    }
}

/// The monitor's full serializable state at one point in the stream:
/// window and horizon counts, the ε values derived from them, the
/// per-subset lattice (per the configured
/// [`crate::builder::SubsetPolicy`]), change-point detector states, and
/// the alert log so far.
///
/// Snapshots are **mergeable across shards**: a fleet of monitors (one per
/// serving replica) each ingests its own slice of traffic, and
/// [`MonitorSnapshot::merge`] combines their states cell-wise into the ε
/// of the union of the windows — the same additivity that powers
/// [`crate::stream::sharded_joint_counts`]. Because window cells are
/// integer tallies (and the remaining merged state is built from max,
/// sum, and canonically ordered concatenation), merging is commutative
/// and associative with the untouched monitor's snapshot as identity —
/// shard aggregation order can never change the fleet-wide ε or alarm
/// state (property-tested in `monitor_time_equivalence`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorSnapshot {
    /// Name of the outcome axis.
    pub outcome_axis: String,
    /// Display name of the ε estimator in force.
    pub estimator: String,
    /// Canonical tag of the fairness metric every statistic in this
    /// snapshot was computed under (see [`crate::metric::metric_from_tag`]).
    /// Snapshots of different metrics never merge.
    pub metric: String,
    /// Total records ingested over the monitor's lifetime.
    pub records_seen: u64,
    /// Records currently inside the window.
    pub window_rows: u64,
    /// The window span T in seconds (wall-clock monitors only).
    pub window_seconds: Option<f64>,
    /// The bucket granularity in seconds (wall-clock monitors only).
    pub bucket_seconds: Option<f64>,
    /// Largest timestamp seen so far (wall-clock monitors only).
    pub now_seconds: Option<f64>,
    /// Joint counts of the window.
    pub window: CountsSnapshot,
    /// Exponentially-decayed joint counts (present iff decay configured).
    pub decayed: Option<CountsSnapshot>,
    /// The per-bucket retention factor λ, when decay is configured.
    pub decay: Option<f64>,
    /// ε of the window under the configured estimator.
    pub epsilon: EpsilonResult,
    /// ε of the decayed horizon (present iff decay configured).
    pub decayed_epsilon: Option<EpsilonResult>,
    /// Per-subset ε of the window, ordered by subset size with the full
    /// intersection last (empty under [`crate::builder::SubsetPolicy::None`]).
    pub subsets: Vec<SubsetEpsilon>,
    /// Every alert fired so far, in canonical order.
    pub alerts: Vec<Alert>,
    /// One entry per configured change-point detector, in configuration
    /// order.
    pub changepoints: Vec<ChangepointStatus>,
}

/// A canonical total order on alerts, so concatenating shard logs is
/// deterministic regardless of merge order — stream position first; the
/// remaining fields (every serialized field of the alert, witness
/// probabilities included) only break ties between distinct alerts at the
/// same position. Distinct alerts always compare unequal under this key,
/// which is what makes one sort at the end of a fold byte-identical to
/// the pairwise fold's repeated sorts for *any* leaf permutation.
fn alert_key(a: &Alert) -> (u64, u64, u64, u64, usize, String, u64, u64) {
    (
        a.at_record,
        a.epsilon.to_bits(),
        a.at_seconds.map_or(0, f64::to_bits),
        a.rule.threshold.to_bits(),
        a.rule.consecutive,
        a.witness
            .as_ref()
            .map(|w| format!("{}/{}/{}", w.outcome, w.group_hi, w.group_lo))
            .unwrap_or_default(),
        a.witness.as_ref().map_or(0, |w| w.prob_hi.to_bits()),
        a.witness.as_ref().map_or(0, |w| w.prob_lo.to_bits()),
    )
}

/// The alarm twin of [`alert_key`].
fn alarm_key(a: &ChangepointAlarm) -> (u64, u64, u64, u64) {
    (
        a.at_record,
        a.statistic.to_bits(),
        a.signal.to_bits(),
        a.at_seconds.map_or(0, f64::to_bits),
    )
}

impl MonitorSnapshot {
    /// The drift signal: windowed ε minus horizon ε (positive = fairness
    /// degrading relative to the long-run distribution). `None` without a
    /// configured decay, or when either ε is infinite (`∞ − ∞` has no
    /// meaningful sign).
    pub fn trend(&self) -> Option<f64> {
        let horizon = self.decayed_epsilon.as_ref()?;
        (self.epsilon.epsilon.is_finite() && horizon.epsilon.is_finite())
            .then_some(self.epsilon.epsilon - horizon.epsilon)
    }

    /// Merges two shard snapshots into the combined monitor state,
    /// recomputing every ε with `estimator` over the cell-wise summed
    /// counts. The shards must share the schema, outcome axis, window
    /// configuration (decay, wall-clock span and granularity), subset
    /// lattice, and change-point detector list; alert and alarm logs
    /// concatenate in canonical `records_seen` order (each shard's
    /// entries witness its own traffic), detector statistics combine
    /// conservatively by max, and the merged clock is the latest shard
    /// clock.
    ///
    /// Pairwise merging derives the statistics per pair; to fold a whole
    /// fleet's snapshots, [`merge_many`] accumulates cells in place and
    /// derives once at the root, producing byte-identical output.
    pub fn merge(
        &self,
        other: &MonitorSnapshot,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<MonitorSnapshot> {
        let mut out = self.clone();
        out.absorb_counts(other)?;
        out.derive(None, &*metric_from_tag(&out.metric)?, estimator)?;
        Ok(out)
    }

    /// Checks that `other` is configuration-compatible for merging: same
    /// outcome axis, decay, wall-clock window, subset lattice, and
    /// change-point detector list. Public so ingestion layers (e.g. an
    /// audit server accepting wire snapshots from remote replicas) can
    /// reject an incompatible snapshot at the door with a typed error
    /// instead of failing later inside a merge.
    pub fn mergeable_with(&self, other: &MonitorSnapshot) -> Result<()> {
        if self.outcome_axis != other.outcome_axis {
            return Err(DfError::Invalid(format!(
                "snapshot outcome axes differ: `{}` vs `{}`",
                self.outcome_axis, other.outcome_axis
            )));
        }
        if self.metric != other.metric {
            return Err(DfError::Invalid(format!(
                "cannot merge snapshots computed under different metrics: \
                 `{}` vs `{}`",
                self.metric, other.metric
            )));
        }
        if self.decay != other.decay {
            return Err(DfError::Invalid(
                "cannot merge snapshots with different decay configurations".into(),
            ));
        }
        if self.window_seconds != other.window_seconds
            || self.bucket_seconds != other.bucket_seconds
        {
            return Err(DfError::Invalid(
                "cannot merge snapshots with different wall-clock window configurations".into(),
            ));
        }
        if self.subsets.len() != other.subsets.len()
            || self
                .subsets
                .iter()
                .zip(&other.subsets)
                .any(|(a, b)| a.attributes != b.attributes)
        {
            return Err(DfError::Invalid(
                "cannot merge snapshots with different subset lattices".into(),
            ));
        }
        if self.changepoints.len() != other.changepoints.len()
            || self
                .changepoints
                .iter()
                .zip(&other.changepoints)
                .any(|(a, b)| a.spec != b.spec)
        {
            return Err(DfError::Invalid(
                "cannot merge snapshots with different change-point detectors".into(),
            ));
        }
        Ok(())
    }

    /// Re-derives this snapshot's statistics under a different metric.
    /// The window and horizon counts are metric-agnostic, so any metric
    /// can be evaluated over them after the fact: the returned snapshot
    /// carries `tag` and has its headline statistic, decayed statistic,
    /// and subset lattice recomputed under it with `estimator`. An
    /// unknown tag is a typed error before anything is cloned. The
    /// alert and alarm logs are historical records of what fired under
    /// the original metric and are carried over unchanged.
    pub fn with_metric(
        &self,
        tag: &str,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<MonitorSnapshot> {
        let metric = metric_from_tag(tag)?;
        let mut out = self.clone();
        out.metric = tag.to_string();
        out.derive(None, &*metric, estimator)?;
        Ok(out)
    }

    /// Accumulates `other`'s raw mergeable state into `self` in place:
    /// cell-wise count sums, record totals, max clock, max detector
    /// statistics, and concatenated (not yet canonically ordered) alert
    /// and alarm logs. Derived fields — ε, subset results, the estimator
    /// echo — are left stale; callers finish with
    /// [`MonitorSnapshot::derive`]. Splitting the two is what lets a fold
    /// absorb thousands of shard snapshots paying one derivation total
    /// instead of one per pair.
    pub(crate) fn absorb_counts(&mut self, other: &MonitorSnapshot) -> Result<()> {
        self.mergeable_with(other)?;
        self.window.merge_from(&other.window)?;
        match (&mut self.decayed, &other.decayed) {
            (Some(a), Some(b)) => a.merge_from(b)?,
            (None, None) => {}
            _ => unreachable!("decay equality checked by mergeable_with"),
        }
        self.records_seen += other.records_seen;
        self.window_rows += other.window_rows;
        self.now_seconds = match (self.now_seconds, other.now_seconds) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.alerts.extend(other.alerts.iter().cloned());
        for (dst, src) in self.changepoints.iter_mut().zip(&other.changepoints) {
            dst.statistic = dst.statistic.max(src.statistic);
            dst.alarms.extend(src.alarms.iter().cloned());
        }
        Ok(())
    }

    /// Computes the derived half from the counts: sorts the alert and
    /// alarm logs into canonical order, evaluates `metric` under
    /// `estimator` over the window, the decayed horizon and every subset
    /// of the lattice, and echoes the estimator's name. The metric tag is
    /// configuration: callers pass the metric it names (a monitor its own
    /// object, a fold the tag's registry entry), so a merge of
    /// min/max-ratio shards recomputes a min/max ratio, never ε.
    ///
    /// This is the door of wire and folded counts: the window and the
    /// horizon each pass the counts check (cells, and a total that cannot
    /// overflow) before the kernel reads them through `known`, the layout
    /// of their schema and lattice built for `metric` (a monitor's own, or
    /// a fleet's shared one), or without one through a layout built for
    /// `metric` from `to_table()` itself.
    pub(crate) fn derive(
        &mut self,
        known: Option<&GroupLayout>,
        metric: &dyn Metric,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<()> {
        self.alerts.sort_by_cached_key(alert_key);
        for status in &mut self.changepoints {
            status.alarms.sort_by_key(alarm_key);
        }
        let layout = self
            .window
            .layout(known, &self.outcome_axis, metric, &self.subsets)?;
        let tables = layout.tables(&self.window.data);
        self.epsilon = tables.evaluate(metric, estimator, &mut self.subsets)?;
        let horizon = |d: &CountsSnapshot| {
            let layout = d.layout(known, &self.outcome_axis, metric, &[])?;
            layout.evaluate(&d.data, metric, estimator)
        };
        self.decayed_epsilon = self.decayed.as_ref().map(horizon).transpose()?;
        self.estimator = estimator.name();
        Ok(())
    }

    /// The window's joint counts as a labelled table: one row per cell in
    /// row-major order (last axis fastest), axis-label columns followed by
    /// the cell count. Shared by the CSV/text/markdown renderers.
    fn cells_table(&self) -> TextTable {
        let axis_names: Vec<&str> = self.window.axes.iter().map(|(n, _)| n.as_str()).collect();
        let mut headers = axis_names;
        headers.push("count");
        let mut aligns = vec![Align::Left; headers.len() - 1];
        aligns.push(Align::Right);
        let mut t = TextTable::new(&headers).align(&aligns);
        let dims: Vec<usize> = self.window.axes.iter().map(|(_, l)| l.len()).collect();
        for (idx, value) in self.window.data.iter().enumerate() {
            let mut row = Vec::with_capacity(dims.len() + 1);
            let mut rest = idx;
            // Row-major unravel: divide by the trailing strides.
            for (k, (_, labels)) in self.window.axes.iter().enumerate() {
                let stride: usize = dims[k + 1..].iter().product();
                row.push(labels[(rest / stride) % labels.len()].clone());
                rest %= stride.max(1);
            }
            row.push(fmt_count(*value));
            t.row(&row);
        }
        t
    }

    /// The scalar summary as `(metric, value)` pairs — the second CSV
    /// section and the text/markdown headline block.
    fn summary_rows(&self) -> Vec<(String, String)> {
        let mut rows = vec![
            ("estimator".to_string(), self.estimator.clone()),
            ("records_seen".to_string(), self.records_seen.to_string()),
        ];
        if self.metric != "eps-df" {
            rows.insert(1, ("metric".to_string(), self.metric.clone()));
        }
        rows.extend([
            ("window_rows".to_string(), self.window_rows.to_string()),
            ("epsilon".to_string(), fmt_epsilon(self.epsilon.epsilon)),
        ]);
        if let Some(d) = &self.decayed_epsilon {
            rows.push(("decayed_epsilon".to_string(), fmt_epsilon(d.epsilon)));
        }
        if let Some(t) = self.trend() {
            rows.push(("trend".to_string(), format!("{t:+.4}")));
        }
        if let Some(w) = self.window_seconds {
            rows.push(("window_seconds".to_string(), fmt_count(w)));
        }
        if let Some(now) = self.now_seconds {
            rows.push(("now_seconds".to_string(), fmt_count(now)));
        }
        for s in &self.subsets {
            rows.push((
                format!("epsilon[{}]", s.attributes.join("+")),
                fmt_epsilon(s.result.epsilon),
            ));
        }
        rows.push(("alerts".to_string(), self.alerts.len().to_string()));
        if let Some(last) = self.alerts.last() {
            rows.push((
                "last_alert".to_string(),
                format!(
                    "eps {} > {} at record {}",
                    fmt_epsilon(last.epsilon),
                    fmt_epsilon(last.rule.threshold),
                    last.at_record
                ),
            ));
        }
        let alarms: usize = self.changepoints.iter().map(|c| c.alarms.len()).sum();
        if !self.changepoints.is_empty() {
            rows.push(("changepoint_alarms".to_string(), alarms.to_string()));
        }
        if let Some(last) = self
            .changepoints
            .iter()
            .flat_map(|c| c.alarms.iter())
            .max_by_key(|a| a.at_record)
        {
            rows.push((
                "last_alarm".to_string(),
                format!(
                    "statistic {:.4} at record {}",
                    last.statistic, last.at_record
                ),
            ));
        }
        rows
    }

    /// Renders the snapshot in the requested [`ResponseFormat`]: the full
    /// serde document for JSON; for CSV, the labelled table of window
    /// cells followed by a blank line and a `metric,value` section with
    /// the ε values, trend, and alert/alarm tallies; for text/markdown,
    /// the same summary above the cells table.
    pub fn render(&self, format: ResponseFormat) -> Result<String> {
        match format {
            ResponseFormat::Json => {
                serde_json::to_string(self).map_err(|e| DfError::Invalid(e.to_string()))
            }
            ResponseFormat::Csv => {
                let mut metrics = TextTable::new(&["metric", "value"]);
                for (k, v) in self.summary_rows() {
                    metrics.row(&[k, v]);
                }
                Ok(format!(
                    "{}\n{}",
                    self.cells_table().render_csv(),
                    metrics.render_csv()
                ))
            }
            ResponseFormat::Markdown => {
                let mut out = String::new();
                for (k, v) in self.summary_rows() {
                    out.push_str(&format!("- **{k}**: {v}\n"));
                }
                out.push('\n');
                out.push_str(&self.cells_table().render_markdown());
                Ok(out)
            }
            ResponseFormat::Text => {
                let mut out = String::new();
                for (k, v) in self.summary_rows() {
                    out.push_str(&format!("{k}: {v}\n"));
                }
                out.push('\n');
                out.push_str(&self.cells_table().render());
                Ok(out)
            }
        }
    }
}

/// Folds any number of snapshots into one monitor state: accumulates
/// their counts in place, in slice order, and derives the statistics once
/// under the snapshots' metric tag and `estimator`. Byte-identical to the
/// pairwise [`MonitorSnapshot::merge`] fold over the same slice, at one
/// derivation instead of one per pair. Under a permutation, window cells
/// (integer tallies) still sum exactly; decayed-horizon cells are float
/// sums, bit-exact when λ keeps them dyadic (e.g. λ = 0.5) and within
/// 1 ulp otherwise.
///
/// Errors on an empty slice and on configuration-incompatible shards
/// (different schemas, windows, decay, subset lattices, or detectors).
pub fn merge_many(
    snapshots: &[MonitorSnapshot],
    estimator: &dyn EpsilonEstimator,
) -> Result<MonitorSnapshot> {
    let (first, rest) = snapshots
        .split_first()
        .ok_or_else(|| DfError::Invalid("cannot merge an empty set of snapshots".into()))?;
    let mut root = fold(first.clone(), rest)?;
    root.derive(None, &*metric_from_tag(&root.metric)?, estimator)?;
    Ok(root)
}

/// The mergeable half of [`merge_many`]: every snapshot of `rest`
/// absorbed, in order, into `root`; statistics not yet derived. The
/// caller hands over the root, so a caller that owns its snapshots folds
/// without a copy.
pub(crate) fn fold(mut root: MonitorSnapshot, rest: &[MonitorSnapshot]) -> Result<MonitorSnapshot> {
    for leaf in rest {
        root.absorb_counts(leaf)?;
    }
    Ok(root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Audit, Smoothed, SubsetPolicy};
    use crate::monitor::tests::{axes, skewed, Rows};
    use crate::monitor::AlertRule;

    /// `n` wall-clock monitors over a two-attribute schema, with the full
    /// subset lattice and a decayed horizon of retention `lambda`, each
    /// fed its own few chunks.
    fn shard_snapshots(n: usize, lambda: f64) -> Vec<MonitorSnapshot> {
        let mut axes = axes();
        axes.push(Axis::from_strs("r", &["u", "v", "w"]).unwrap());
        (0..n)
            .map(|i| {
                let mut m = Audit::monitor("y", axes.clone())
                    .estimator(Smoothed { alpha: 1.0 })
                    .subsets(SubsetPolicy::All)
                    .window_seconds(8.0)
                    .bucket_seconds(1.0)
                    .decay(lambda)
                    .build()
                    .unwrap();
                for t in 0..(3 + i % 4) {
                    let (skew, r) = ((i + t) % 2, (i * t) % 3);
                    let rows = [[1, skew, r], [0, 1 - skew, 2 - r], [skew, 1, (r + t) % 3]];
                    m.push_at(&Rows(rows[..1 + (i + t) % 3].to_vec()), t as f64)
                        .unwrap();
                }
                m.snapshot().unwrap()
            })
            .collect()
    }

    fn json(snap: &MonitorSnapshot) -> String {
        serde_json::to_string(snap).unwrap()
    }

    #[test]
    fn singleton_fold_recanonicalizes_in_place() {
        // Two rules that both fire on one push: the monitor logs them in
        // rule order (0.5, then 0.1), and its snapshot lists them in the
        // canonical order every fold produces.
        let mut two_rules = Audit::monitor("y", axes())
            .alert(AlertRule::epsilon_above(0.5))
            .alert(AlertRule::epsilon_above(0.1))
            .build()
            .unwrap();
        two_rules.push(&skewed()).unwrap();
        let thresholds =
            |alerts: &[Alert]| -> Vec<f64> { alerts.iter().map(|a| a.rule.threshold).collect() };
        assert_eq!(thresholds(two_rules.alerts()), [0.5, 0.1]);
        let two_rules = two_rules.snapshot().unwrap();
        assert_eq!(thresholds(&two_rules.alerts), [0.1, 0.5]);

        let est = Smoothed { alpha: 1.0 };
        for snap in [shard_snapshots(1, 0.5).remove(0), two_rules] {
            // A snapshot is already canonical, so the one-leaf fold is the
            // identity on its serialized form.
            let merged = merge_many(std::slice::from_ref(&snap), &est).unwrap();
            assert_eq!(json(&merged), json(&snap));
        }
    }

    /// Folding replica snapshots after the shards in one pass (a server
    /// cut) adds every decayed cell in the same order as folding the
    /// shards first and then that root with the replicas, so the bytes
    /// match even at a non-dyadic λ.
    #[test]
    fn replicas_after_the_shards_repeat_the_two_stage_float_order() {
        let snaps = shard_snapshots(6, 0.9);
        let (shards, replicas) = snaps.split_at(4);
        let est = Smoothed { alpha: 1.0 };
        let mut two_stage = vec![merge_many(shards, &est).unwrap()];
        two_stage.extend_from_slice(replicas);
        assert_eq!(
            json(&merge_many(&snaps, &est).unwrap()),
            json(&merge_many(&two_stage, &est).unwrap())
        );
    }

    #[test]
    fn empty_input_is_refused() {
        assert!(merge_many(&[], &Smoothed { alpha: 1.0 }).is_err());
    }

    #[test]
    fn incompatible_shards_are_refused() {
        let mut snaps = shard_snapshots(3, 0.5);
        snaps[2].decay = None;
        snaps[2].decayed = None;
        snaps[2].decayed_epsilon = None;
        assert!(merge_many(&snaps, &Smoothed { alpha: 1.0 }).is_err());
    }

    fn snap(data: Vec<f64>) -> CountsSnapshot {
        CountsSnapshot {
            axes: vec![
                ("y".to_string(), vec!["no".to_string(), "yes".to_string()]),
                ("g".to_string(), vec!["a".to_string(), "b".to_string()]),
            ],
            data,
        }
    }

    /// Regression: a wire snapshot is untrusted — `to_table` must reject
    /// non-finite and negative cells with the typed `CorruptCounts` error
    /// (mirroring `Audit::of_counts`), not hand them to the ε kernel.
    #[test]
    fn to_table_rejects_corrupt_wire_cells() {
        // A hand-corrupted JSON snapshot, exactly as it would arrive from
        // a hostile or buggy replica: a negative cell.
        let json = r#"{"axes":[["y",["no","yes"]],["g",["a","b"]]],"data":[1.0,-3.0,2.0,4.0]}"#;
        let from_wire: CountsSnapshot = serde_json::from_str(json).unwrap();
        match from_wire.to_table() {
            Err(DfError::CorruptCounts { cell, value }) => {
                assert_eq!(cell, 1);
                assert_eq!(value, -3.0);
            }
            other => panic!("expected CorruptCounts, got {other:?}"),
        }
        // Non-finite cells (not representable in JSON, but constructible
        // by any in-process caller) are refused the same way.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let s = snap(vec![1.0, 2.0, bad, 0.0]);
            assert!(
                matches!(s.to_table(), Err(DfError::CorruptCounts { cell: 2, .. })),
                "accepted {bad}"
            );
        }
        // Healthy cells still reconstruct.
        assert_eq!(
            snap(vec![1.0, 2.0, 3.0, 4.0]).to_table().unwrap().total(),
            10.0
        );
    }

    #[test]
    fn render_covers_all_formats() {
        let mut m = Audit::monitor("y", axes())
            .estimator(Smoothed { alpha: 1.0 })
            .window_seconds(60.0)
            .build()
            .unwrap();
        m.push_at(&Rows(vec![[0, 0], [1, 1], [1, 0], [0, 1]]), 1.0)
            .unwrap();
        let snap = m.snapshot().unwrap();
        let json = snap.render(ResponseFormat::Json).unwrap();
        assert!(json.contains("\"records_seen\":4"));
        let csv = snap.render(ResponseFormat::Csv).unwrap();
        assert!(csv.starts_with("y,g,count\n"), "got {csv}");
        assert!(csv.contains("metric,value"));
        assert!(csv.contains("epsilon,"));
        // Row-major order: last axis fastest, so (no, a) is the first cell.
        assert!(csv.contains("no,a,1"));
        let text = snap.render(ResponseFormat::Text).unwrap();
        assert!(text.contains("records_seen: 4"));
        let md = snap.render(ResponseFormat::Markdown).unwrap();
        assert!(md.contains("| y | g | count |"));
    }

    #[test]
    fn merge_from_adds_in_place_and_validates_shape() {
        let mut a = snap(vec![1.0, 2.0, 3.0, 4.0]);
        let b = snap(vec![10.0, 20.0, 30.0, 40.0]);
        a.merge_from(&b).unwrap();
        assert_eq!(a.data, vec![11.0, 22.0, 33.0, 44.0]);
        // Axis mismatch is refused.
        let mut other = snap(vec![0.0; 4]);
        other.axes[1].1.push("c".to_string());
        assert!(a.merge_from(&other).is_err());
        // A lying data vector (axes match, length doesn't) is refused
        // instead of silently zip-truncating.
        let short = CountsSnapshot {
            axes: a.axes.clone(),
            data: vec![1.0, 2.0],
        };
        let before = a.clone();
        assert!(a.merge_from(&short).is_err());
        assert_eq!(a, before);
    }
}
