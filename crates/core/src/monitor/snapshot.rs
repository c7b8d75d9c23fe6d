//! Serializable, shard-mergeable monitor state.

use super::changepoint::ChangepointStatus;
use super::{Alert, ChangepointAlarm};
use crate::builder::EpsilonEstimator;
use crate::edf::JointCounts;
use crate::epsilon::EpsilonResult;
use crate::error::{DfError, Result};
use crate::metric::{metric_from_tag, Metric};
use crate::report::{fmt_count, fmt_epsilon, Align, ResponseFormat, TextTable};
use crate::subsets::SubsetEpsilon;
use df_prob::contingency::{add_cells, Axis, ContingencyTable};
use serde::{Deserialize, Serialize};

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
    /// that guards [`crate::builder::Audit::of_counts`] — ε over such a
    /// table would silently propagate NaN instead of certifying anything.
    pub fn to_table(&self) -> Result<ContingencyTable> {
        if let Some(cell) = self.data.iter().position(|v| !v.is_finite() || *v < 0.0) {
            return Err(DfError::CorruptCounts {
                cell,
                value: self.data[cell],
            });
        }
        let axes = self
            .axes
            .iter()
            .map(|(name, labels)| Axis::new(name.clone(), labels.clone()))
            .collect::<df_prob::Result<Vec<_>>>()?;
        Ok(ContingencyTable::from_data(axes, self.data.clone())?)
    }

    /// Cell-wise adds another snapshot into this one, in place. The two
    /// snapshots must agree on axes *and* cell count (wire data can lie
    /// about either independently; a silent `zip` truncation would drop
    /// mass). This is the accumulation step behind both
    /// [`MonitorSnapshot::merge`] and the fleet aggregation tree
    /// ([`crate::fleet::merge_many`]), which folds thousands of shard
    /// snapshots without re-cloning axes per pair.
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
/// which is what makes the fleet aggregation tree's one-shot sort
/// byte-identical to the pairwise fold's repeated sorts for *any* leaf
/// permutation.
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
    /// Pairwise merging recomputes ε per pair; to fold a whole fleet's
    /// snapshots, [`crate::fleet::merge_many`] accumulates cells in place
    /// and recomputes ε once at the root, producing byte-identical output.
    pub fn merge(
        &self,
        other: &MonitorSnapshot,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<MonitorSnapshot> {
        let mut out = self.clone();
        out.absorb_counts(other)?;
        out.canonicalize_and_recompute(estimator)?;
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
        metric_from_tag(tag)?;
        let mut out = self.clone();
        out.metric = tag.to_string();
        out.canonicalize_and_recompute(estimator)?;
        Ok(out)
    }

    /// Accumulates `other`'s raw mergeable state into `self` in place:
    /// cell-wise count sums, record totals, max clock, max detector
    /// statistics, and concatenated (not yet canonically ordered) alert
    /// and alarm logs. Derived fields — ε, subset results, the estimator
    /// echo — are left stale; callers finish with
    /// [`MonitorSnapshot::canonicalize_and_recompute`]. Splitting the two
    /// is what lets an aggregation tree absorb thousands of shard
    /// snapshots paying one ε kernel pass total instead of one per pair.
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

    /// Restores the derived half of the snapshot after one or more
    /// [`MonitorSnapshot::absorb_counts`] calls: sorts the alert and alarm
    /// logs into canonical order and recomputes the headline statistic,
    /// the decayed statistic, and the per-subset lattice from the
    /// accumulated counts under `estimator` — routed through the metric
    /// named by the snapshot's own tag, so a merge of min/max-ratio
    /// shards recomputes a min/max ratio, never a silently substituted ε.
    pub(crate) fn canonicalize_and_recompute(
        &mut self,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<()> {
        let metric = metric_from_tag(&self.metric)?;
        self.alerts.sort_by_key(alert_key);
        for status in &mut self.changepoints {
            status.alarms.sort_by_key(alarm_key);
        }
        let window_counts = JointCounts::from_table(self.window.to_table()?, &self.outcome_axis)?;
        self.epsilon = metric.evaluate_counts(&window_counts, estimator)?;
        self.decayed_epsilon = match &self.decayed {
            Some(d) => {
                let jc = JointCounts::from_table(d.to_table()?, &self.outcome_axis)?;
                Some(metric.evaluate_counts(&jc, estimator)?)
            }
            None => None,
        };
        let subset_attrs: Vec<Vec<String>> =
            self.subsets.iter().map(|s| s.attributes.clone()).collect();
        self.subsets = subset_epsilons(
            &window_counts,
            &subset_attrs,
            &self.epsilon,
            &*metric,
            estimator,
        )?;
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

/// Per-subset statistic of `metric` under `estimator`, reusing the
/// precomputed full-intersection result for the last (full) entry — the
/// exact layout of the builder's `EstimatorReport::subsets`.
pub(crate) fn subset_epsilons(
    counts: &JointCounts,
    subset_attrs: &[Vec<String>],
    full: &EpsilonResult,
    metric: &dyn Metric,
    estimator: &dyn EpsilonEstimator,
) -> Result<Vec<SubsetEpsilon>> {
    let n_attrs = counts.attribute_names().len();
    let mut out = Vec::with_capacity(subset_attrs.len());
    for attrs in subset_attrs {
        let result = if attrs.len() == n_attrs {
            full.clone()
        } else {
            let names: Vec<&str> = attrs.iter().map(String::as_str).collect();
            metric.evaluate_marginal(counts, &names, estimator)?
        };
        out.push(SubsetEpsilon {
            attributes: attrs.clone(),
            result,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use crate::builder::{Audit, Smoothed};
        use df_prob::partial::{PartialCounts, Tally};

        struct Rows(Vec<[usize; 2]>);
        impl Tally for Rows {
            fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
                for idx in &self.0 {
                    shard.record(idx);
                }
                Ok(())
            }
        }
        let axes = vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ];
        let mut m = Audit::monitor("y", axes)
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
