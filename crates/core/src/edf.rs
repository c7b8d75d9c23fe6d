//! Empirical differential fairness from joint counts, and the numeric ε
//! kernel every evaluation runs through.
//!
//! [`JointCounts`] holds the joint tally `N[y, s₁, …, s_p]` of outcomes and
//! protected attributes. From it:
//!
//! - [`JointCounts::edf`] computes Eq. 6 of the paper:
//!   `e^-ε ≤ (N_{y,sᵢ}/N_{sᵢ}) · (N_{sⱼ}/N_{y,sⱼ}) ≤ e^ε`,
//! - [`JointCounts::edf_smoothed`] computes Eq. 7, the Dirichlet-multinomial
//!   posterior predictive `(N_{y,s} + α) / (N_s + |Y|α)`, by smoothing the
//!   raw table with [`GroupOutcomes::smoothed`], the one Eq. 7 that the
//!   `Smoothed` estimator, monitors and the server run too,
//! - [`JointCounts::marginal_to`] projects onto a subset `D` of the
//!   attributes; because counts marginalize additively, the resulting
//!   conditionals are exactly the `P(y|D) = Σ_E P(y|E,D) P(E|D)` of the
//!   Theorem 3.2 proof.
//!
//! `GroupLayout` is the kernel: integer maps from a table's cells to the
//! `(group, outcome)` pairs of its full intersection and of each subset of
//! an audited lattice, summed by `df_prob`'s one projection sum, so every
//! table gives the bits of the marginalized one. For a metric that
//! conditions on an axis (differential equalized odds' true label), each
//! cell maps to a `(stratum, group, outcome)` entry, so every stratum is a
//! table of its own, scored by the same per-table call. Evaluations carry
//! group indices only; the names live in one table shared by `Arc`, and
//! only a reported witness (or an explicit [`GroupOutcomes::group_labels`]
//! call) turns an index into a string. Audits and their bootstrap
//! replicates, monitor pushes, snapshot folds and fleet cuts all read
//! counts through a layout, under every metric, so they produce the same
//! tables by construction.

use crate::builder::EpsilonEstimator;
use crate::epsilon::{EpsilonResult, GroupNames, GroupOutcomes, Schema};
use crate::error::{DfError, Result};
use crate::metric::{stratum_axis, Metric};
use crate::subsets::SubsetEpsilon;
use df_prob::contingency::{add_projected, Axis, ContingencyTable};
use df_prob::numerics::{log_ratio, stable_sum};
use std::sync::Arc;

/// Joint counts of `(outcome, protected attributes…)`, canonicalized so the
/// outcome axis is first.
#[derive(Debug, Clone, PartialEq)]
pub struct JointCounts {
    table: ContingencyTable,
}

impl JointCounts {
    /// Wraps a contingency table, naming which axis holds the outcome. The
    /// table must have at least one protected-attribute axis and two
    /// outcome categories.
    pub fn from_table(table: ContingencyTable, outcome_axis: &str) -> Result<Self> {
        if outcome_position(&table, outcome_axis)? == 0 {
            // Already canonical: the marginalization below would keep every
            // axis where it is.
            return Ok(Self {
                table: table.marginalize_all(),
            });
        }
        // Canonicalize: outcome first, attributes in their existing order.
        let mut keep: Vec<&str> = vec![outcome_axis];
        keep.extend(
            table
                .axes()
                .iter()
                .filter(|a| a.name() != outcome_axis)
                .map(|a| a.name()),
        );
        let table = table.marginalize(&keep)?;
        Ok(Self { table })
    }

    /// Builds joint counts directly from labeled records:
    /// each record is `(outcome_label, [attribute labels…])`.
    pub fn from_records<'a, I>(
        outcome_axis: Axis,
        attribute_axes: Vec<Axis>,
        records: I,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = (&'a str, Vec<&'a str>)>,
    {
        let mut axes = vec![outcome_axis];
        axes.extend(attribute_axes);
        let mut table = ContingencyTable::zeros(axes).map_err(DfError::from)?;
        for (y, attrs) in records {
            let mut labels = Vec::with_capacity(attrs.len() + 1);
            labels.push(y);
            labels.extend(attrs);
            table.increment_by_labels(&labels)?;
        }
        Self::from_table_canonical(table)
    }

    fn from_table_canonical(table: ContingencyTable) -> Result<Self> {
        let name = table.axes()[0].name().to_string();
        Self::from_table(table, &name)
    }

    /// The underlying table (outcome axis first).
    pub fn table(&self) -> &ContingencyTable {
        &self.table
    }

    /// Outcome axis labels.
    pub fn outcome_labels(&self) -> &[String] {
        self.table.axes()[0].labels()
    }

    /// Protected-attribute axis names, in order.
    pub fn attribute_names(&self) -> Vec<&str> {
        self.table.axes()[1..].iter().map(|a| a.name()).collect()
    }

    /// Total number of records tallied.
    pub fn total(&self) -> f64 {
        self.table.total()
    }

    /// Projects onto a subset of the protected attributes (summing out the
    /// rest). Errors if `attrs` is empty or names an unknown attribute.
    pub fn marginal_to(&self, attrs: &[&str]) -> Result<JointCounts> {
        let outcome = self.table.axes()[0].name();
        check_subset(outcome, attrs)?;
        let mut keep: Vec<&str> = vec![outcome];
        keep.extend(attrs);
        let table = self.table.marginalize(&keep)?;
        Ok(JointCounts { table })
    }

    /// Group-conditional outcome probabilities, with Dirichlet smoothing
    /// `alpha ≥ 0` (0 = MLE / Eq. 6; α > 0 = Eq. 7): the raw table,
    /// [`GroupOutcomes::smoothed`].
    ///
    /// Group weights are the group totals `N_s`, so unobserved intersections
    /// are excluded from ε exactly as Definition 3.1 prescribes.
    pub fn group_outcomes(&self, alpha: f64) -> Result<GroupOutcomes> {
        GroupLayout::new(&self.table, 0)
            .group_outcomes(self.table.data())?
            .smoothed(alpha)
    }

    /// Empirical differential fairness (Eq. 6): ε of the MLE conditionals.
    pub fn edf(&self) -> Result<EpsilonResult> {
        Ok(self.group_outcomes(0.0)?.epsilon())
    }

    /// Smoothed differential fairness (Eq. 7) with symmetric Dirichlet
    /// concentration `alpha` per outcome.
    pub fn edf_smoothed(&self, alpha: f64) -> Result<EpsilonResult> {
        Ok(self.group_outcomes(alpha)?.epsilon())
    }
}

/// The schema checks of [`JointCounts::from_table`]: `outcome_axis` names
/// an axis with at least two labels, and some other axis holds a
/// protected attribute. Returns the outcome axis's position.
pub(crate) fn outcome_position(table: &ContingencyTable, outcome_axis: &str) -> Result<usize> {
    let pos = table.axis_position(outcome_axis)?;
    if table.ndim() < 2 {
        return Err(DfError::NotEnoughCategories {
            what: "protected attribute axes",
            needed: 1,
            present: table.ndim() - 1,
        });
    }
    if table.axes()[pos].len() < 2 {
        return Err(DfError::NotEnoughCategories {
            what: "outcomes",
            needed: 2,
            present: table.axes()[pos].len(),
        });
    }
    Ok(pos)
}

/// The checks of [`JointCounts::marginal_to`] that precede the
/// marginalization's own: a nonempty subset that leaves the outcome axis
/// out.
fn check_subset(outcome: &str, attrs: &[&str]) -> Result<()> {
    if attrs.is_empty() {
        return Err(DfError::Invalid(
            "subset of protected attributes must be nonempty".into(),
        ));
    }
    if attrs.contains(&outcome) {
        return Err(DfError::Invalid(format!(
            "`{outcome}` is the outcome axis, not a protected attribute"
        )));
    }
    Ok(())
}

/// Where the intersections of a table live: for the full intersection
/// (groups in mixed-radix order over the attribute axes, outcome axis
/// removed, last attribute fastest) and for every entry of a subset
/// lattice, the `(group, outcome)` entry each cell of the table adds
/// into. Built once per schema by the monitor (and shared with its
/// fleet), and once per call by audits and folds of wire snapshots;
/// either way the build is integer work plus one copy of the axes'
/// vocabularies, which every table it produces shares.
///
/// For a metric that conditions on an axis ([`Metric::conditioning`]), the
/// headline and every entry split into one table per label of the axis,
/// which stays in every entry: an entry of it alone is vacuously fair.
#[derive(Clone)]
pub(crate) struct GroupLayout {
    outcome_axis: String,
    schema: Arc<Schema>,
    /// The full intersection, unconditioned, and (when the metric
    /// conditions) the headline's strata.
    full: Projection,
    headline: Option<Projection>,
    lattice: Vec<Entry>,
}

/// One table a layout reads: its names, its number of strata (`None`:
/// not conditioned), and `entry[cell]`, the entry `(stratum · |G| +
/// group) · |Y| + outcome` that cell of the source table adds into.
#[derive(Clone)]
struct Projection {
    names: Arc<GroupNames>,
    strata: Option<usize>,
    entry: Vec<usize>,
}

/// How one lattice entry reads a table: as the headline (it names every
/// attribute), through its own projection, or not at all (it names the
/// conditioning axis alone).
#[derive(Clone)]
enum Entry {
    Headline,
    Projected(Projection),
    Vacuous,
}

impl Projection {
    /// The sums of `data`, added by `add_projected`, the sum
    /// `ContingencyTable::marginalize` runs: integer, fractional and `-0.0`
    /// cells all give the bits of the marginalized (and sliced) table.
    fn sums(&self, data: &[f64]) -> Vec<f64> {
        let size = self.names.n_groups() * self.names.n_outcomes();
        let mut sums = vec![0.0; size * self.strata.unwrap_or(1)];
        add_projected(&mut sums, data, |cell| self.entry[cell]);
        sums
    }

    fn tables(&self, data: &[f64]) -> Result<Tables> {
        let sums = self.sums(data);
        if self.strata.is_none() {
            return Ok(Tables::One(outcomes(&self.names, sums)?));
        }
        sums.chunks_exact(self.names.n_groups() * self.names.n_outcomes())
            .map(|cells| outcomes(&self.names, cells.to_vec()))
            .collect::<Result<_>>()
            .map(Tables::Strata)
    }
}

impl GroupLayout {
    /// The layout of `table`, whose axis at position `outcome` holds the
    /// outcomes and every other axis a protected attribute.
    pub(crate) fn new(table: &ContingencyTable, outcome: usize) -> Self {
        let mut axes = table.axes().to_vec();
        let attrs: Vec<usize> = (0..axes.len()).filter(|&i| i != outcome).collect();
        let n_outcomes = axes[outcome].len();
        let n_groups: usize = attrs.iter().map(|&i| axes[i].len()).product();
        let mut entry = vec![0; table.num_cells()];
        let mut idx = vec![0; axes.len()];
        for g in 0..n_groups {
            let mut rem = g;
            for &i in attrs.iter().rev() {
                idx[i] = rem % axes[i].len();
                rem /= axes[i].len();
            }
            for y in 0..n_outcomes {
                idx[outcome] = y;
                entry[table.flat_index(&idx)] = g * n_outcomes + y;
            }
        }
        let outcome = axes.remove(outcome);
        let schema = Arc::new(Schema {
            outcomes: outcome.labels().to_vec(),
            attributes: axes,
        });
        let names = GroupNames::of_axes(Arc::clone(&schema), (0..attrs.len()).collect());
        Self {
            outcome_axis: outcome.name().to_string(),
            schema,
            full: Projection {
                names: Arc::new(names),
                strata: None,
                entry,
            },
            headline: None,
            lattice: Vec::new(),
        }
    }

    /// This layout set up to evaluate `metric` over `lattice` (attribute
    /// names per entry, in the order the entry's groups intersect them),
    /// each entry checked as [`JointCounts::marginal_to`] checks a subset.
    pub(crate) fn for_metric<'a>(
        mut self,
        metric: &dyn Metric,
        lattice: impl IntoIterator<Item = &'a [String]>,
    ) -> Result<Self> {
        let attributes = &self.schema.attributes;
        let (n_attrs, n_groups) = (attributes.len(), self.full.names.n_groups());
        let stratum = stratum_axis(metric, attributes)?;
        // `digits[g · p + a]`: the label of attribute `a` in full group
        // `g`, counted up like an odometer (no division per group).
        let mut digits = vec![0; n_groups * n_attrs];
        for g in 1..n_groups {
            let (done, row) = digits.split_at_mut(g * n_attrs);
            row[..n_attrs].copy_from_slice(&done[(g - 1) * n_attrs..]);
            for a in (0..n_attrs).rev() {
                row[a] += 1;
                if row[a] < attributes[a].len() {
                    break;
                }
                row[a] = 0;
            }
        }
        let every: Vec<usize> = (0..n_attrs).collect();
        self.headline = stratum.map(|_| self.projection(&digits, &every, stratum));
        for attrs in lattice {
            if attrs.len() == n_attrs {
                self.lattice.push(Entry::Headline);
                continue;
            }
            let mut attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            if let Some(axis) = stratum {
                let name = attributes[axis].name();
                if !attrs.contains(&name) {
                    attrs.push(name);
                }
                if attrs.len() < 2 {
                    self.lattice.push(Entry::Vacuous);
                    continue;
                }
            }
            check_subset(&self.outcome_axis, &attrs)?;
            let picked = ContingencyTable::positions(attributes, &attrs)?;
            let projection = self.projection(&digits, &picked, stratum);
            self.lattice.push(Entry::Projected(projection));
        }
        Ok(self)
    }

    /// The projection onto the attributes at `picked` (positions in the
    /// schema's attributes, in group order), in strata of the attribute at
    /// `axis` when there is one; the other attributes intersect as groups.
    fn projection(&self, digits: &[usize], picked: &[usize], axis: Option<usize>) -> Projection {
        let attributes = &self.schema.attributes;
        let mut groups = picked.to_vec();
        groups.retain(|&a| Some(a) != axis);
        let n_outcomes = self.full.names.n_outcomes();
        // The `(stratum, group)` each full group falls in.
        let group: Vec<usize> = digits
            .chunks_exact(attributes.len())
            .map(|d| {
                let first = axis.map_or(0, |s| d[s]);
                groups
                    .iter()
                    .fold(first, |h, &a| h * attributes[a].len() + d[a])
            })
            .collect();
        let entry = self
            .full
            .entry
            .iter()
            .map(|&e| group[e / n_outcomes] * n_outcomes + e % n_outcomes)
            .collect();
        Projection {
            names: Arc::new(GroupNames::of_axes(Arc::clone(&self.schema), groups)),
            strata: axis.map(|s| attributes[s].len()),
            entry,
        }
    }

    /// The raw (MLE) table of `data`, the cells of a table with the axes
    /// this layout was built from (unconditioned).
    pub(crate) fn group_outcomes(&self, data: &[f64]) -> Result<GroupOutcomes> {
        outcomes(&self.full.names, self.full.sums(data))
    }

    /// The raw (MLE) tables of `data` the layout's metric scores.
    pub(crate) fn tables(&self, data: &[f64]) -> Result<LatticeTables> {
        let subsets = self
            .lattice
            .iter()
            .map(|entry| match entry {
                Entry::Headline => Ok(None),
                Entry::Projected(p) => p.tables(data).map(Some),
                Entry::Vacuous => Ok(Some(Tables::Strata(Vec::new()))),
            })
            .collect::<Result<_>>()?;
        let full = self.headline.as_ref().unwrap_or(&self.full).tables(data)?;
        Ok(LatticeTables { full, subsets })
    }

    /// `metric` under `estimator` on the headline of `data` alone: the
    /// monitor's per-push statistic, and each bootstrap replicate's.
    pub(crate) fn evaluate(
        &self,
        data: &[f64],
        metric: &dyn Metric,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<EpsilonResult> {
        let headline = self.headline.as_ref().unwrap_or(&self.full);
        score(metric, &headline.tables(data)?, estimator)
    }

    /// [`GroupLayout::evaluate`] and the worst-pair log-ratio of the
    /// unconditioned MLE table (a monitor's raw change-point signal): read
    /// off the headline's own table when the metric does not condition,
    /// built apart when it does.
    pub(crate) fn evaluate_with_raw(
        &self,
        data: &[f64],
        metric: &dyn Metric,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<(EpsilonResult, f64)> {
        let tables = self.headline.as_ref().unwrap_or(&self.full).tables(data)?;
        let result = score(metric, &tables, estimator)?;
        let raw = match &tables {
            Tables::One(table) => table.worst(log_ratio),
            Tables::Strata(_) => self.group_outcomes(data)?.worst(log_ratio),
        };
        Ok((result, raw.epsilon))
    }
}

/// The raw (MLE, Eq. 6) group×outcome table of `cells` (`(group, outcome)`
/// order) under `names`: per group, the compensated-sum total and a
/// division per cell; an empty group keeps zero probabilities. Each row is
/// turned into probabilities in place, so a table costs one allocation
/// beyond its cells: the monitor runs this on every push.
pub(crate) fn outcomes(names: &Arc<GroupNames>, mut cells: Vec<f64>) -> Result<GroupOutcomes> {
    let n_outcomes = names.n_outcomes();
    let mut weights = vec![0.0; cells.len() / n_outcomes];
    for (weight, row) in weights.iter_mut().zip(cells.chunks_exact_mut(n_outcomes)) {
        *weight = row.iter().sum();
        let total = stable_sum(row);
        // A NaN total propagates.
        if total > 0.0 || total.is_nan() {
            for p in row.iter_mut() {
                *p /= total;
            }
        } else {
            row.fill(0.0);
        }
    }
    GroupOutcomes::with_names(Arc::clone(names), cells, weights)
}

/// The raw tables one entry is scored on: its one table, or one per label
/// of the conditioning axis, in label order.
enum Tables {
    One(GroupOutcomes),
    Strata(Vec<GroupOutcomes>),
}

/// `metric` under `estimator` on one entry's tables: the metric's own call
/// on one table; on strata, the metric it scores strata with, keeping the
/// worst (the first maximum in label order; no strata is vacuously fair).
fn score(
    metric: &dyn Metric,
    tables: &Tables,
    estimator: &dyn EpsilonEstimator,
) -> Result<EpsilonResult> {
    let strata = match tables {
        Tables::One(table) => return metric.evaluate(table, estimator),
        Tables::Strata(strata) => strata,
    };
    let (_, within) = metric
        .conditioning()
        .expect("strata are read for a conditioned metric");
    let vacuous = EpsilonResult {
        epsilon: 0.0,
        witness: None,
    };
    strata.iter().try_fold(vacuous, |worst, stratum| {
        let result = within.evaluate(stratum, estimator)?;
        let worse = result.epsilon > worst.epsilon
            || worst.witness.is_none() && result.epsilon >= worst.epsilon;
        Ok(if worse { result } else { worst })
    })
}

/// The raw tables of one counts table through a [`GroupLayout`]: the
/// headline's (the full intersection's) and, per lattice entry, its own
/// or `None` where it reads the headline's.
pub(crate) struct LatticeTables {
    full: Tables,
    subsets: Vec<Option<Tables>>,
}

impl LatticeTables {
    /// The tables of a flat group×outcome table: no attributes, no lattice.
    pub(crate) fn flat(full: GroupOutcomes) -> Self {
        Self {
            full: Tables::One(full),
            subsets: Vec::new(),
        }
    }

    /// The full intersection's raw table, unless the headline is strata.
    pub(crate) fn full(&self) -> Option<&GroupOutcomes> {
        self.table(self.subsets.len())
    }

    /// The raw table lattice entry `i` reads (past the lattice, the
    /// headline's), unless it is strata.
    pub(crate) fn table(&self, i: usize) -> Option<&GroupOutcomes> {
        let entry = self.subsets.get(i).and_then(Option::as_ref);
        match entry.unwrap_or(&self.full) {
            Tables::One(table) => Some(table),
            Tables::Strata(_) => None,
        }
    }

    /// `metric` under `estimator` on the headline, returned, and on every
    /// entry of `subsets` (the lattice the layout was built with), written
    /// into each entry's result: the one lattice evaluation behind
    /// [`crate::builder::Audit::run`] and every monitor snapshot. An entry
    /// naming every attribute repeats the headline's result.
    pub(crate) fn evaluate(
        &self,
        metric: &dyn Metric,
        estimator: &dyn EpsilonEstimator,
        subsets: &mut [SubsetEpsilon],
    ) -> Result<EpsilonResult> {
        debug_assert_eq!(subsets.len(), self.subsets.len());
        let full = score(metric, &self.full, estimator)?;
        for (subset, tables) in subsets.iter_mut().zip(&self.subsets) {
            subset.result = match tables {
                Some(tables) => score(metric, tables, estimator)?,
                None => full.clone(),
            };
        }
        Ok(full)
    }
}

/// The parent path the kernel replaced, kept as the reference of the
/// differential test: every subset marginalized into its own table, every
/// group named up front.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use df_prob::contingency::intersection_labels;

    /// The raw MLE table of outcome-first counts, reading each cell in
    /// place and naming every group through `intersection_labels`.
    pub(crate) fn group_outcomes(counts: &JointCounts) -> Result<GroupOutcomes> {
        let axes = counts.table().axes();
        let named: Vec<(&str, &[String])> =
            axes[1..].iter().map(|a| (a.name(), a.labels())).collect();
        let groups = intersection_labels(&named);
        let (n_groups, n_outcomes) = (groups.len(), axes[0].len());
        let data = counts.table().data();
        let mut probs = vec![0.0; n_groups * n_outcomes];
        let mut weights = vec![0.0; n_groups];
        for g in 0..n_groups {
            let cells: Vec<f64> = (0..n_outcomes).map(|y| data[y * n_groups + g]).collect();
            weights[g] = cells.iter().sum();
            let total = stable_sum(&cells);
            if total > 0.0 || total.is_nan() {
                for (y, &c) in cells.iter().enumerate() {
                    probs[g * n_outcomes + y] = c / total;
                }
            }
        }
        GroupOutcomes::new(axes[0].labels().to_vec(), groups, probs, weights)
    }

    /// One metric under one estimator over `lattice`: the full result and
    /// one result per entry, each proper subset through
    /// `marginal_to(..)` and [`group_outcomes`]. A metric that conditions
    /// on an axis takes the parent's stratum loop ([`conditioned`]), and
    /// a proper subset keeps that axis (appended when the subset leaves
    /// it out), the axis alone being vacuous.
    pub(crate) fn evaluate(
        counts: &JointCounts,
        metric: &dyn Metric,
        estimator: &dyn EpsilonEstimator,
        lattice: &[Vec<String>],
    ) -> Result<(EpsilonResult, Vec<EpsilonResult>)> {
        let n_attrs = counts.attribute_names().len();
        let label = metric.conditioning().map(|(label, _)| label);
        let full = match label {
            Some(label) => conditioned(counts, label, &metric.tag(), estimator)?,
            None => metric.evaluate(&group_outcomes(counts)?, estimator)?,
        };
        let subsets = lattice
            .iter()
            .map(|attrs| {
                let mut names: Vec<&str> = attrs.iter().map(String::as_str).collect();
                if attrs.len() == n_attrs {
                    return Ok(full.clone());
                }
                let Some(label) = label else {
                    return metric
                        .evaluate(&group_outcomes(&counts.marginal_to(&names)?)?, estimator);
                };
                if !names.contains(&label) {
                    names.push(label);
                }
                if names.len() < 2 {
                    return Ok(EpsilonResult {
                        epsilon: 0.0,
                        witness: None,
                    });
                }
                conditioned(
                    &counts.marginal_to(&names)?,
                    label,
                    &metric.tag(),
                    estimator,
                )
            })
            .collect::<Result<_>>()?;
        Ok((full, subsets))
    }

    /// The parent's differential equalized odds: ε under `estimator`
    /// within each stratum of `label`, each stratum sliced out with
    /// `condition` and re-canonicalized, the first maximum winning.
    fn conditioned(
        counts: &JointCounts,
        label: &str,
        tag: &str,
        estimator: &dyn EpsilonEstimator,
    ) -> Result<EpsilonResult> {
        let table = counts.table();
        let outcome = table.axes()[0].name().to_string();
        let axis = table.axes()[1..]
            .iter()
            .find(|a| a.name() == label)
            .ok_or_else(|| {
                DfError::Invalid(format!(
                    "deo needs a `{label}` true-label axis among the protected attributes"
                ))
            })?
            .clone();
        if table.ndim() < 3 {
            return Err(DfError::Invalid(format!(
                "{tag} needs at least one protected axis besides the true-label axis"
            )));
        }
        let mut worst = EpsilonResult {
            epsilon: 0.0,
            witness: None,
        };
        for value in axis.labels() {
            let stratum = JointCounts::from_table(table.condition(label, value)?, &outcome)?;
            let result = estimator.estimate(&group_outcomes(&stratum)?)?;
            if result.epsilon > worst.epsilon
                || worst.witness.is_none() && result.epsilon >= worst.epsilon
            {
                worst = result;
            }
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_prob::numerics::{approx_eq, exactly_zero};
    use df_prob::rng::Pcg32;

    /// A table already in canonical order is kept, and reads exactly as
    /// the marginalization it skips: integer, fractional and `-0.0` cells,
    /// bit for bit.
    #[test]
    fn from_table_keeps_a_canonical_table_bit_for_bit() {
        let axes = vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b", "c"]).unwrap(),
        ];
        let data = vec![3.0, -0.0, 0.1 + 0.2, 0.0, 5e-324, 1e15 + 0.5];
        let table = ContingencyTable::from_data(axes, data).unwrap();
        let bits = |t: &ContingencyTable| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let marginal = table.marginalize(&["y", "g"]).unwrap();
        let kept = JointCounts::from_table(table.clone(), "y").unwrap();
        assert_eq!(bits(kept.table()), bits(&marginal));
        assert_eq!(kept.table().axes(), table.axes());
        assert_eq!(
            bits(kept.table())[1],
            0.0f64.to_bits(),
            "-0.0 reads as +0.0"
        );
        // The outcome moved to the front goes through the projection.
        let moved = table.marginalize(&["g", "y"]).unwrap();
        let canonical = JointCounts::from_table(moved, "y").unwrap();
        assert_eq!(bits(canonical.table()), bits(&marginal));
    }

    /// The paper's Table 1 (Simpson's paradox admissions data).
    /// Axes: outcome {admit, decline} × gender {A, B} × race {1, 2}.
    fn table1() -> JointCounts {
        let axes = vec![
            Axis::from_strs("outcome", &["admit", "decline"]).unwrap(),
            Axis::from_strs("gender", &["A", "B"]).unwrap(),
            Axis::from_strs("race", &["1", "2"]).unwrap(),
        ];
        // counts[y][g][r]: admits then declines.
        let data = vec![
            81.0, 192.0, // admit, gender A, race 1 & 2
            234.0, 55.0, // admit, gender B, race 1 & 2
            6.0, 71.0, // decline, A
            36.0, 25.0, // decline, B
        ];
        let table = ContingencyTable::from_data(axes, data).unwrap();
        JointCounts::from_table(table, "outcome").unwrap()
    }

    #[test]
    fn construction_validates() {
        let axes = vec![
            Axis::from_strs("outcome", &["a"]).unwrap(),
            Axis::from_strs("g", &["x", "y"]).unwrap(),
        ];
        let t = ContingencyTable::zeros(axes).unwrap();
        assert!(
            JointCounts::from_table(t, "outcome").is_err(),
            "needs 2 outcomes"
        );

        let axes = vec![Axis::from_strs("outcome", &["a", "b"]).unwrap()];
        let t = ContingencyTable::zeros(axes).unwrap();
        assert!(
            JointCounts::from_table(t, "outcome").is_err(),
            "needs attrs"
        );
    }

    #[test]
    fn outcome_axis_is_canonicalized_first() {
        let axes = vec![
            Axis::from_strs("g", &["x", "y"]).unwrap(),
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
        ];
        let mut t = ContingencyTable::zeros(axes).unwrap();
        t.increment_by_labels(&["x", "yes"]).unwrap();
        let jc = JointCounts::from_table(t, "y").unwrap();
        assert_eq!(jc.table().axes()[0].name(), "y");
        assert_eq!(jc.outcome_labels(), &["no".to_string(), "yes".to_string()]);
        assert_eq!(jc.attribute_names(), vec!["g"]);
        assert_eq!(jc.total(), 1.0);
    }

    #[test]
    fn from_records_tallies() {
        let jc = JointCounts::from_records(
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            vec![Axis::from_strs("g", &["a", "b"]).unwrap()],
            vec![
                ("yes", vec!["a"]),
                ("yes", vec!["a"]),
                ("no", vec!["b"]),
                ("yes", vec!["b"]),
            ],
        )
        .unwrap();
        assert_eq!(jc.total(), 4.0);
        let go = jc.group_outcomes(0.0).unwrap();
        assert!(approx_eq(go.prob(0, 1), 1.0, 1e-14, 0.0)); // P(yes|a)
        assert!(approx_eq(go.prob(1, 1), 0.5, 1e-14, 0.0)); // P(yes|b)
    }

    #[test]
    fn table1_intersectional_edf_matches_paper() {
        // Paper §5.1: ε = 1.511 for A = Gender × Race.
        let eps = table1().edf().unwrap();
        assert!(approx_eq(eps.epsilon, 1.511, 1e-3, 0.0), "{}", eps.epsilon);
        // Witness is the "decline" outcome: B/race2 (0.3125) vs A/race1 (0.0690).
        let w = eps.witness.unwrap();
        assert_eq!(w.outcome, "decline");
    }

    #[test]
    fn table1_gender_marginal_matches_paper() {
        // Paper: ε = 0.2329 for A = Gender.
        let eps = table1().marginal_to(&["gender"]).unwrap().edf().unwrap();
        assert!(approx_eq(eps.epsilon, 0.2329, 1e-3, 0.0), "{}", eps.epsilon);
    }

    #[test]
    fn table1_race_marginal_matches_paper() {
        // Paper: ε = 0.8667 for A = Race.
        let eps = table1().marginal_to(&["race"]).unwrap().edf().unwrap();
        assert!(approx_eq(eps.epsilon, 0.8667, 1e-3, 0.0), "{}", eps.epsilon);
    }

    #[test]
    fn table1_theorem_bound_holds() {
        // Theorem 3.1: marginals are at most 2ε = 3.022.
        let jc = table1();
        let full = jc.edf().unwrap().epsilon;
        for attrs in [&["gender"][..], &["race"][..]] {
            let sub = jc.marginal_to(attrs).unwrap().edf().unwrap().epsilon;
            assert!(
                sub <= 2.0 * full + 1e-12,
                "{attrs:?}: {sub} vs {}",
                2.0 * full
            );
        }
    }

    #[test]
    fn marginal_probabilities_are_weighted_not_averaged() {
        // P(admit | gender A) must be 273/350 = 0.78, i.e. count-weighted
        // across races (not the unweighted mean of 0.931 and 0.730).
        let jc = table1().marginal_to(&["gender"]).unwrap();
        let go = jc.group_outcomes(0.0).unwrap();
        assert!(approx_eq(go.prob(0, 0), 273.0 / 350.0, 1e-12, 0.0));
        assert!(approx_eq(go.prob(1, 0), 289.0 / 350.0, 1e-12, 0.0));
    }

    #[test]
    fn marginal_to_validates() {
        let jc = table1();
        assert!(jc.marginal_to(&[]).is_err());
        assert!(jc.marginal_to(&["outcome"]).is_err());
        assert!(jc.marginal_to(&["nope"]).is_err());
    }

    #[test]
    fn smoothing_matches_eq7_closed_form() {
        // Single attribute, two groups; α = 1.
        let jc = JointCounts::from_records(
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            vec![Axis::from_strs("g", &["a", "b"]).unwrap()],
            vec![
                ("yes", vec!["a"]),
                ("yes", vec!["a"]),
                ("yes", vec!["a"]),
                ("no", vec!["b"]),
            ],
        )
        .unwrap();
        let go = jc.group_outcomes(1.0).unwrap();
        // Group a: counts (no=0, yes=3) → (1/5, 4/5); group b: (2/3, 1/3).
        assert!(approx_eq(go.prob(0, 0), 0.2, 1e-14, 0.0));
        assert!(approx_eq(go.prob(0, 1), 0.8, 1e-14, 0.0));
        assert!(approx_eq(go.prob(1, 0), 2.0 / 3.0, 1e-14, 0.0));
        let eps = jc.edf_smoothed(1.0).unwrap();
        let expect = ((2.0 / 3.0) / 0.2_f64).ln();
        assert!(approx_eq(eps.epsilon, expect, 1e-12, 0.0));
        // α must be finite and non-negative.
        assert!(jc.group_outcomes(-1.0).is_err());
        assert!(jc.group_outcomes(f64::NAN).is_err());
        assert!(jc.edf_smoothed(f64::INFINITY).is_err());
    }

    #[test]
    fn smoothing_rescues_infinite_epsilon() {
        let jc = JointCounts::from_records(
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            vec![Axis::from_strs("g", &["a", "b"]).unwrap()],
            vec![("yes", vec!["a"]), ("no", vec!["b"])],
        )
        .unwrap();
        assert!(!jc.edf().unwrap().is_finite());
        assert!(jc.edf_smoothed(1.0).unwrap().is_finite());
    }

    #[test]
    fn unobserved_intersections_are_excluded_not_infinite() {
        // Group "c" never appears: Eq. 6 must skip it rather than divide by 0.
        let jc = JointCounts::from_records(
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            vec![Axis::from_strs("g", &["a", "b", "c"]).unwrap()],
            vec![
                ("yes", vec!["a"]),
                ("no", vec!["a"]),
                ("yes", vec!["b"]),
                ("no", vec!["b"]),
            ],
        )
        .unwrap();
        let eps = jc.edf().unwrap();
        assert_eq!(eps.epsilon, 0.0);
        let raw = jc.group_outcomes(0.0).unwrap();
        assert_eq!(
            (raw.weights()[2], raw.prob(2, 0), raw.prob(2, 1)),
            (0.0, 0.0, 0.0)
        );
        // Smoothing must not resurrect the empty group either: its row is
        // uniform, with weight 0.
        let eps = jc.edf_smoothed(1.0).unwrap();
        assert_eq!(eps.epsilon, 0.0);
        let smoothed = jc.group_outcomes(1.0).unwrap();
        assert_eq!(smoothed.weights()[2], 0.0);
        assert_eq!((smoothed.prob(2, 0), smoothed.prob(2, 1)), (0.5, 0.5));
    }

    #[test]
    fn group_label_order_is_mixed_radix() {
        let jc = table1();
        let go = jc.group_outcomes(0.0).unwrap();
        assert_eq!(go.group_labels()[0], "gender=A, race=1");
        assert_eq!(go.group_labels()[1], "gender=A, race=2");
        assert_eq!(go.group_labels()[2], "gender=B, race=1");
        assert_eq!(go.group_labels()[3], "gender=B, race=2");
    }

    /// The bits a kernel result must reproduce: ε and the whole witness.
    type Bits = (u64, Option<(String, String, String, u64, u64)>);

    fn bits(r: &EpsilonResult) -> Bits {
        let w = r.witness.as_ref().map(|w| {
            let (hi, lo) = (w.prob_hi.to_bits(), w.prob_lo.to_bits());
            (
                w.outcome.clone(),
                w.group_hi.clone(),
                w.group_lo.clone(),
                hi,
                lo,
            )
        });
        (r.epsilon.to_bits(), w)
    }

    /// Labels, probabilities and weights of a table, floats as bits.
    fn table_bits(t: &GroupOutcomes) -> (Vec<String>, Vec<String>, Vec<u64>, Vec<u64>) {
        let probs = (0..t.num_groups())
            .flat_map(|g| (0..t.num_outcomes()).map(move |y| t.prob(g, y).to_bits()))
            .collect();
        let weights = t.weights().iter().map(|w| w.to_bits()).collect();
        (
            t.outcome_labels().to_vec(),
            t.group_labels().to_vec(),
            probs,
            weights,
        )
    }

    /// The outcome of one evaluation, errors compared by message.
    fn outcome<T>(
        r: &Result<T>,
        f: impl Fn(&T) -> Vec<Bits>,
    ) -> std::result::Result<Vec<Bits>, String> {
        r.as_ref().map(f).map_err(|e| e.to_string())
    }

    /// A random schema (1–5 attributes of arity 1–4, 2–3 outcomes, the
    /// outcome axis `y` at any position) with cells of one `kind`:
    /// integers, fractions like a decayed horizon's, or integers mixed
    /// with `-0.0`; every fifth fraction or `-0.0` case is all `-0.0`.
    fn random_table(rng: &mut Pcg32, case: u32) -> (Vec<Axis>, Vec<f64>) {
        let n_attrs = 1 + rng.next_below(5) as usize;
        let label = |prefix: &str, n: u32| (0..n).map(|i| format!("{prefix}{i}")).collect();
        let mut axes: Vec<Axis> = (0..n_attrs)
            .map(|a| Axis::new(format!("a{a}"), label("v", 1 + rng.next_below(4))).unwrap())
            .collect();
        let at = rng.next_below(n_attrs as u32 + 1) as usize;
        axes.insert(
            at,
            Axis::new("y", label("o", 2 + rng.next_below(2))).unwrap(),
        );
        let n_cells: usize = axes.iter().map(Axis::len).product();
        let all_negative_zero = case % 15 == 14;
        let data = (0..n_cells)
            .map(|_| match (case % 3, rng.next_below(4)) {
                _ if all_negative_zero => -0.0,
                (2, 0) => -0.0,
                (_, 0) => 0.0,
                (1, _) => rng.next_f64() * 9.0 * 0.9f64.powi(rng.next_below(40) as i32),
                _ => f64::from(rng.next_below(12)),
            })
            .collect();
        (axes, data)
    }

    /// The kernel against the parent path it replaced, bit for bit, over
    /// random schemas and cells, every subset policy, every estimator and
    /// every registry metric: through `Audit::run`, through a wire
    /// snapshot's derivation, and through the layout of a monitor built
    /// under the metric.
    #[test]
    fn lattice_matches_the_parent_path_bit_for_bit() {
        use crate::builder::{Audit, Empirical, PosteriorSup, Smoothed, SubsetPolicy};
        use crate::metric::{metric_from_tag, EpsilonDf};

        let mut rng = Pcg32::new(0xd1ff);
        for case in 0..45 {
            let (axes, data) = random_table(&mut rng, case);
            let table = ContingencyTable::from_data(axes.clone(), data.clone()).unwrap();
            let counts = JointCounts::from_table(table.clone(), "y").unwrap();
            let n_attrs = axes.len() - 1;
            let policy = match case % 3 {
                0 => SubsetPolicy::All,
                1 => SubsetPolicy::UpTo {
                    size: 1 + rng.next_below(n_attrs as u32) as usize,
                },
                _ => SubsetPolicy::None,
            };
            let lattice = policy.lattice(&counts.attribute_names()).unwrap();

            // Group names: the full intersection and every subset table.
            let layout = GroupLayout::new(counts.table(), 0)
                .for_metric(&EpsilonDf, lattice.iter().map(Vec::as_slice))
                .unwrap();
            let tables = layout.tables(counts.table().data()).unwrap();
            let oracle_full = oracle::group_outcomes(&counts).unwrap();
            assert_eq!(
                table_bits(tables.full().unwrap()),
                table_bits(&oracle_full),
                "case {case}"
            );
            for (i, attrs) in lattice.iter().enumerate() {
                let names: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let expected = oracle::group_outcomes(&counts.marginal_to(&names).unwrap());
                assert_eq!(
                    table_bits(tables.table(i).unwrap()),
                    table_bits(&expected.unwrap()),
                    "case {case} subset {attrs:?}"
                );
            }

            // The wire snapshot of the same cells, in schema order, with a
            // decayed horizon holding the same cells too.
            let monitor = Audit::monitor("y", axes.clone())
                .subsets(policy)
                .decay(0.5)
                .build()
                .unwrap();
            let mut snap = monitor.snapshot().unwrap();
            snap.window.data.clone_from(&data);
            snap.decayed.as_mut().unwrap().data.clone_from(&data);

            let estimators: [Box<dyn EpsilonEstimator>; 3] = [
                Box::new(Empirical),
                Box::new(Smoothed { alpha: 1.0 }),
                Box::new(PosteriorSup {
                    alpha: 1.0,
                    samples: 6,
                    seed: u64::from(case),
                }),
            ];
            let tags = [
                "eps-df",
                "wc-ratio",
                "wc-diff",
                "alpha-if(alpha=0.3)",
                "deo(label=a0)",
            ];
            for est in &estimators {
                for tag in tags {
                    let metric = metric_from_tag(tag).unwrap();
                    let ctx = format!("case {case}, {}, {tag}, {policy:?}", est.name());
                    let expected = oracle::evaluate(&counts, &*metric, &**est, &lattice);
                    let expected = outcome(&expected, |(full, subsets)| {
                        std::iter::once(full).chain(subsets).map(bits).collect()
                    });

                    let report = Audit::of(&counts)
                        .subsets(policy)
                        .boxed_estimator(est.clone_box())
                        .boxed_metric(metric.clone_box())
                        .run();
                    let got = outcome(&report, |r| {
                        let subsets = r.estimators[0].subsets.iter().map(|s| &s.result);
                        std::iter::once(&r.epsilon)
                            .chain(subsets)
                            .map(bits)
                            .collect()
                    });
                    assert_eq!(got, expected, "audit: {ctx}");
                    if let Ok(r) = &report {
                        let weight: f64 = oracle_full.weights().iter().sum();
                        assert_eq!(r.total_weight.to_bits(), weight.to_bits(), "{ctx}");
                        let n = (exactly_zero(weight.fract())).then_some(weight as u64);
                        assert_eq!(r.n_records, n, "{ctx}");
                    }

                    let derived = |layout: Option<&GroupLayout>| {
                        let mut s = snap.clone();
                        s.derive(layout, &*metric, &**est).map(|()| s)
                    };
                    // The monitor path reads through a layout built for
                    // the metric, as a monitor configured with it does.
                    let own = Audit::monitor("y", axes.clone())
                        .subsets(policy)
                        .decay(0.5)
                        .boxed_metric(metric.clone_box())
                        .build();
                    for (path, s) in [
                        ("wire", derived(None)),
                        ("monitor", own.and_then(|m| derived(Some(m.layout())))),
                    ] {
                        let got = outcome(&s, |s| {
                            let subsets = s.subsets.iter().map(|s| &s.result);
                            std::iter::once(&s.epsilon)
                                .chain(subsets)
                                .map(bits)
                                .collect()
                        });
                        assert_eq!(got, expected, "{path} derive: {ctx}");
                        let horizon =
                            outcome(&s, |s| vec![bits(s.decayed_epsilon.as_ref().unwrap())]);
                        let full = expected.as_ref().map(|e| e[..1].to_vec());
                        assert_eq!(horizon, full.map_err(Clone::clone), "{path} horizon: {ctx}");
                    }
                }
            }
        }
    }
}
