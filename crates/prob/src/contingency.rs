//! N-dimensional contingency tables.
//!
//! A [`ContingencyTable`] stores a dense array of non-negative cell values
//! (counts or probability mass) indexed by named categorical axes. It is the
//! backbone of empirical differential fairness: the joint counts
//! `N[y, s₁, …, s_p]` live in one of these, and the per-subset ε computation
//! marginalizes it.
//!
//! Layout is row-major with precomputed strides; the hot loops index by
//! integer code (no hashing), following the perf-book guidance for hot data
//! structures.
//!
//! Free functions keep single copies of decisions the rest of the
//! workspace shares: [`intersection_label`] names one intersection of a
//! set of axes (`"gender=F, race=B"`), [`intersection_labels`] all of them
//! in mixed-radix order, [`add_cells`] is the one cell-wise count sum
//! behind every table and snapshot merge, and [`add_projected`] the one
//! projection sum behind every marginal.

use crate::error::{ProbError, Result};
use crate::numerics::{exactly_zero, stable_sum};
use std::collections::HashSet;

/// One categorical axis of a table: a name plus an ordered label vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    name: String,
    labels: Vec<String>,
}

impl Axis {
    /// Creates an axis; needs at least one label and unique label names.
    pub fn new(name: impl Into<String>, labels: Vec<String>) -> Result<Self> {
        let name = name.into();
        if labels.is_empty() {
            return Err(ProbError::InvalidParameter {
                name: "labels",
                reason: format!("axis `{name}` needs at least one label"),
            });
        }
        let mut seen = HashSet::with_capacity(labels.len());
        if let Some(l) = labels.iter().find(|l| !seen.insert(l.as_str())) {
            return Err(ProbError::InvalidParameter {
                name: "labels",
                reason: format!("axis `{name}` has duplicate label `{l}`"),
            });
        }
        Ok(Self { name, labels })
    }

    /// Convenience constructor from string slices.
    pub fn from_strs(name: &str, labels: &[&str]) -> Result<Self> {
        Self::new(name, labels.iter().map(|s| s.to_string()).collect())
    }

    /// Axis name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ordered labels.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Always false (an axis has ≥ 1 label by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of a label, if present.
    pub fn index_of(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }
}

/// Dense N-dimensional table of non-negative `f64` cell values.
#[derive(Debug, Clone, PartialEq)]
pub struct ContingencyTable {
    axes: Vec<Axis>,
    strides: Vec<usize>,
    data: Vec<f64>,
}

impl ContingencyTable {
    /// Creates a zero-filled table over the given axes.
    pub fn zeros(axes: Vec<Axis>) -> Result<Self> {
        if axes.is_empty() {
            return Err(ProbError::InvalidParameter {
                name: "axes",
                reason: "a table needs at least one axis".into(),
            });
        }
        for (i, a) in axes.iter().enumerate() {
            if axes[..i].iter().any(|b| b.name == a.name) {
                return Err(ProbError::InvalidParameter {
                    name: "axes",
                    reason: format!("duplicate axis name `{}`", a.name),
                });
            }
        }
        let mut strides = vec![0usize; axes.len()];
        let mut acc = 1usize;
        for (i, axis) in axes.iter().enumerate().rev() {
            strides[i] = acc;
            acc = acc
                .checked_mul(axis.len())
                .ok_or_else(|| ProbError::InvalidParameter {
                    name: "axes",
                    reason: "table size overflows usize".into(),
                })?;
        }
        Ok(Self {
            axes,
            strides,
            data: vec![0.0; acc],
        })
    }

    /// Creates a table from axes and a row-major data vector.
    pub fn from_data(axes: Vec<Axis>, data: Vec<f64>) -> Result<Self> {
        let mut t = Self::zeros(axes)?;
        if data.len() != t.data.len() {
            return Err(ProbError::ShapeMismatch {
                context: "ContingencyTable::from_data",
                expected: t.data.len(),
                actual: data.len(),
            });
        }
        if data.iter().any(|&v| !v.is_finite() || v < 0.0) {
            return Err(ProbError::InvalidParameter {
                name: "data",
                reason: "cell values must be finite and non-negative".into(),
            });
        }
        t.data = data;
        Ok(t)
    }

    /// The positions in `axes` of the axes named in `keep`, in `keep`
    /// order: the checks of [`ContingencyTable::marginalize`] (every name
    /// known, none listed twice).
    pub fn positions(axes: &[Axis], keep: &[&str]) -> Result<Vec<usize>> {
        let keep_pos: Vec<usize> = keep
            .iter()
            .map(|name| {
                axes.iter()
                    .position(|a| a.name == *name)
                    .ok_or_else(|| ProbError::UnknownAxis(name.to_string()))
            })
            .collect::<Result<_>>()?;
        for (i, p) in keep_pos.iter().enumerate() {
            if keep_pos[..i].contains(p) {
                return Err(ProbError::InvalidParameter {
                    name: "keep",
                    reason: format!("axis `{}` listed twice", keep[i]),
                });
            }
        }
        Ok(keep_pos)
    }

    /// The table's axes, in storage order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.axes.len()
    }

    /// Shape vector (axis cardinalities).
    pub fn shape(&self) -> Vec<usize> {
        self.axes.iter().map(Axis::len).collect()
    }

    /// Total number of cells.
    pub fn num_cells(&self) -> usize {
        self.data.len()
    }

    /// Raw row-major cell data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Position of the axis with the given name.
    pub fn axis_position(&self, name: &str) -> Result<usize> {
        self.axes
            .iter()
            .position(|a| a.name == name)
            .ok_or_else(|| ProbError::UnknownAxis(name.to_string()))
    }

    /// Flat index of a multi-index (panics on rank mismatch in debug builds;
    /// callers validate ranks at API boundaries).
    #[inline]
    pub fn flat_index(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.axes.len());
        let mut flat = 0;
        for (i, &ix) in idx.iter().enumerate() {
            debug_assert!(ix < self.axes[i].len(), "index out of bounds on axis {i}");
            flat += ix * self.strides[i];
        }
        flat
    }

    /// Cell value at a multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.flat_index(idx)]
    }

    /// Sets a cell.
    pub fn set(&mut self, idx: &[usize], value: f64) -> Result<()> {
        if !(value.is_finite() && value >= 0.0) {
            return Err(ProbError::InvalidParameter {
                name: "value",
                reason: format!("cell values must be finite and non-negative, got {value}"),
            });
        }
        let flat = self.flat_index(idx);
        self.data[flat] = value;
        Ok(())
    }

    /// Adds `weight` to a cell (used when tallying records).
    pub fn add(&mut self, idx: &[usize], weight: f64) {
        let flat = self.flat_index(idx);
        self.data[flat] += weight;
    }

    /// Adds 1 to a cell.
    pub fn increment(&mut self, idx: &[usize]) {
        self.add(idx, 1.0);
    }

    /// Bulk-tallies a batch of coded records laid out column-major: one
    /// code slice per axis, all of equal length, each code indexing that
    /// axis's labels. Every record gets weight 1.
    ///
    /// This is the streaming hot path, through
    /// [`ContingencyTable::tally_codes_trusted`]: df-data's
    /// `tally_from_log` (a replay log's code bytes), its `CodeChunk` (the
    /// server's ingest, and replay chunks fed to audits and monitors), its
    /// frame and CSV chunks, frames and frame views all count here. It runs
    /// columnar on purpose — a block of records at a time, one
    /// multiply-add sweep per axis accumulating flat indices, then one
    /// scatter pass — which the compiler vectorizes, unlike the per-row
    /// `increment` loop that re-derives the stride arithmetic (and its
    /// bounds checks) for every record.
    pub fn tally_codes(&mut self, columns: &[&[u32]]) -> Result<()> {
        if columns.len() != self.axes.len() {
            return Err(ProbError::ShapeMismatch {
                context: "tally_codes: one code column per axis",
                expected: self.axes.len(),
                actual: columns.len(),
            });
        }
        // Code-range validation as a dedicated max-reduction per column —
        // a branchless sweep the compiler turns into SIMD max, unlike a
        // running max folded into the accumulation arithmetic (which blocks
        // vectorization of the hot loops).
        for (col, axis) in columns.iter().zip(&self.axes) {
            let max_code = col.iter().copied().max().unwrap_or(0);
            if max_code as usize >= axis.len() {
                return Err(ProbError::InvalidParameter {
                    name: "columns",
                    reason: format!(
                        "code {max_code} out of range for axis `{}` ({} labels)",
                        axis.name(),
                        axis.len()
                    ),
                });
            }
        }
        self.tally_codes_trusted(columns)
    }

    /// [`ContingencyTable::tally_codes`] without the per-code range scan —
    /// for callers whose codes are in-range *by construction* (e.g. a
    /// column interned against the very vocabulary the axis was built
    /// from), where re-reading every code just to validate it would double
    /// the memory traffic of the hot path.
    ///
    /// Codes come as `u32`s or, for a column of one-byte codes kept as the
    /// bytes they were stored as, as `u8`s ([`Code`]), so a byte column
    /// is counted without being widened first.
    ///
    /// Shape requirements (one column per axis, equal lengths) are still
    /// checked. A contract violation — a code not indexing its axis — is
    /// memory-safe but may tally a wrong cell or panic on a slice bounds
    /// check; it is never undefined behavior.
    pub fn tally_codes_trusted<C: Code>(&mut self, columns: &[&[C]]) -> Result<()> {
        if columns.len() != self.axes.len() {
            return Err(ProbError::ShapeMismatch {
                context: "tally_codes: one code column per axis",
                expected: self.axes.len(),
                actual: columns.len(),
            });
        }
        let n = columns[0].len();
        for col in columns {
            if col.len() != n {
                return Err(ProbError::ShapeMismatch {
                    context: "tally_codes: column lengths",
                    expected: n,
                    actual: col.len(),
                });
            }
        }
        debug_assert!(columns
            .iter()
            .zip(&self.axes)
            .all(|(col, axis)| col.iter().all(|&c| c.index() < axis.len())));
        if self.data.len() <= usize::from(u16::MAX) {
            tally_blocks::<C, u16>(columns, &self.strides, &mut self.data);
        } else {
            tally_blocks::<C, usize>(columns, &self.strides, &mut self.data);
        }
        Ok(())
    }

    /// Looks up label indices by name and increments the matching cell.
    pub fn increment_by_labels(&mut self, labels: &[&str]) -> Result<()> {
        if labels.len() != self.axes.len() {
            return Err(ProbError::ShapeMismatch {
                context: "increment_by_labels",
                expected: self.axes.len(),
                actual: labels.len(),
            });
        }
        let mut idx = Vec::with_capacity(labels.len());
        for (axis, &label) in self.axes.iter().zip(labels) {
            let i = axis
                .index_of(label)
                .ok_or_else(|| ProbError::UnknownLabel {
                    axis: axis.name.clone(),
                    label: label.to_string(),
                })?;
            idx.push(i);
        }
        self.increment(&idx);
        Ok(())
    }

    /// Total mass in the table (compensated sum).
    pub fn total(&self) -> f64 {
        stable_sum(&self.data)
    }

    /// Sums out every axis *not* named in `keep`, preserving the order in
    /// which the kept axes appear in `keep`.
    ///
    /// This is probability-weighted marginalization: when the table holds the
    /// joint mass `P(y, s)`, marginalizing to `(y, D)` yields
    /// `P(y, D) = Σ_E P(y, D, E)` — exactly the quantity in the Theorem 3.2
    /// proof.
    pub fn marginalize(&self, keep: &[&str]) -> Result<ContingencyTable> {
        if keep.is_empty() {
            return Err(ProbError::InvalidParameter {
                name: "keep",
                reason: "must keep at least one axis".into(),
            });
        }
        let keep_pos = Self::positions(&self.axes, keep)?;
        let out_axes: Vec<Axis> = keep_pos.iter().map(|&p| self.axes[p].clone()).collect();
        let mut out = ContingencyTable::zeros(out_axes)?;

        // Walk every source cell once, accumulating into the projected index.
        let mut src_idx = vec![0usize; self.axes.len()];
        add_projected(&mut out.data, &self.data, |flat| {
            self.unflatten(flat, &mut src_idx);
            keep_pos
                .iter()
                .zip(&out.strides)
                .map(|(&p, &stride)| src_idx[p] * stride)
                .sum()
        });
        Ok(out)
    }

    /// The table [`Self::marginalize`] returns when it keeps every axis in
    /// storage order, without the projection: that sum adds each nonzero
    /// cell into a `+0.0` bucket, so the nonzero cells keep their bits and
    /// every zero cell, `-0.0` included, becomes `+0.0`.
    pub fn marginalize_all(mut self) -> ContingencyTable {
        for v in &mut self.data {
            if exactly_zero(*v) {
                *v = 0.0;
            }
        }
        self
    }

    /// Fixes one axis at a label, returning the slice over the remaining
    /// axes. Fails if the table has only one axis.
    pub fn condition(&self, axis: &str, label: &str) -> Result<ContingencyTable> {
        if self.axes.len() < 2 {
            return Err(ProbError::InvalidParameter {
                name: "axis",
                reason: "cannot condition the only axis of a table".into(),
            });
        }
        let pos = self.axis_position(axis)?;
        let lab = self.axes[pos]
            .index_of(label)
            .ok_or_else(|| ProbError::UnknownLabel {
                axis: axis.to_string(),
                label: label.to_string(),
            })?;
        let out_axes: Vec<Axis> = self
            .axes
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != pos)
            .map(|(_, a)| a.clone())
            .collect();
        let mut out = ContingencyTable::zeros(out_axes)?;
        let mut src_idx = vec![0usize; self.axes.len()];
        let mut out_idx = vec![0usize; self.axes.len() - 1];
        for (flat, &v) in self.data.iter().enumerate() {
            self.unflatten(flat, &mut src_idx);
            if src_idx[pos] != lab {
                continue;
            }
            let mut j = 0;
            for (i, &ix) in src_idx.iter().enumerate() {
                if i != pos {
                    out_idx[j] = ix;
                    j += 1;
                }
            }
            out.add(&out_idx, v);
        }
        Ok(out)
    }

    /// Iterates `(multi_index, value)` over all cells.
    pub fn iter_cells(&self) -> impl Iterator<Item = (Vec<usize>, f64)> + '_ {
        let ndim = self.axes.len();
        self.data.iter().enumerate().map(move |(flat, &v)| {
            let mut idx = vec![0usize; ndim];
            self.unflatten(flat, &mut idx);
            (idx, v)
        })
    }

    /// Decodes a flat index into `idx` (len must equal `ndim`).
    #[inline]
    pub fn unflatten(&self, mut flat: usize, idx: &mut [usize]) {
        for (i, &stride) in self.strides.iter().enumerate() {
            idx[i] = flat / stride;
            flat %= stride;
        }
    }

    /// Element-wise scales the table by `factor ≥ 0`.
    pub fn scale(&mut self, factor: f64) -> Result<()> {
        if !(factor.is_finite() && factor >= 0.0) {
            return Err(ProbError::InvalidParameter {
                name: "factor",
                reason: format!("must be finite and non-negative, got {factor}"),
            });
        }
        for v in &mut self.data {
            *v *= factor;
        }
        Ok(())
    }

    /// Cell-wise adds another table into this one. Both tables must have
    /// identical axes (same names, same label order); errors otherwise.
    ///
    /// This is the merge step of the sharded counting monoid (see
    /// [`crate::partial`]): counts are additive, so per-shard tables sum to
    /// exactly the table a single-pass tally would have produced.
    pub fn merge_from(&mut self, other: &ContingencyTable) -> Result<()> {
        if self.axes != other.axes {
            return Err(ProbError::InvalidParameter {
                name: "other",
                reason: "cannot merge tables with different axes".into(),
            });
        }
        add_cells(&mut self.data, &other.data)
    }

    /// Cell-wise subtracts another table from this one — the exact inverse
    /// of [`ContingencyTable::merge_from`] on integer tallies (integers up
    /// to 2⁵³ are exact in `f64`, so merge-then-subtract restores the
    /// original table bit for bit).
    ///
    /// Both tables must have identical axes, and every cell of `other` must
    /// be at most the matching cell of `self`: counts can only be removed
    /// if they were previously added, so a subtraction that would drive any
    /// cell negative is rejected *before* any cell is modified (`self` is
    /// left untouched on error). This non-negativity invariant is what lets
    /// the sliding-window monitor in df-core evict expired buckets without
    /// ever materializing a negative "count".
    pub fn subtract_from(&mut self, other: &ContingencyTable) -> Result<()> {
        if self.axes != other.axes {
            return Err(ProbError::InvalidParameter {
                name: "other",
                reason: "cannot subtract tables with different axes".into(),
            });
        }
        // Identical axes imply identical shape, so the data twin's length
        // check cannot fire.
        self.subtract_data(&other.data)
    }

    /// [`ContingencyTable::subtract_from`] against raw row-major cell
    /// data — the allocation-free twin for hot loops that keep expired
    /// bucket *data* around rather than whole tables (the sliding-window
    /// monitor's ring). Same contract: length must match, and no cell may
    /// go negative (checked before any mutation).
    pub fn subtract_data(&mut self, cells: &[f64]) -> Result<()> {
        if cells.len() != self.data.len() {
            return Err(ProbError::ShapeMismatch {
                context: "subtract_data",
                expected: self.data.len(),
                actual: cells.len(),
            });
        }
        if let Some(cell) = self
            .data
            .iter()
            .zip(cells)
            .position(|(have, take)| take > have)
        {
            return Err(ProbError::InvalidParameter {
                name: "cells",
                reason: format!(
                    "subtraction would drive cell {cell} negative ({} - {})",
                    self.data[cell], cells[cell]
                ),
            });
        }
        for (dst, &src) in self.data.iter_mut().zip(cells) {
            *dst -= src;
        }
        Ok(())
    }

    /// Resets every cell to zero, keeping the axes — lets hot loops reuse
    /// one scratch table instead of re-allocating axes per batch.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Folds any number of partial-count shards into one table. All shards
    /// must share identical axes; errors on an empty iterator or a
    /// mismatch.
    pub fn from_partials<I>(partials: I) -> Result<ContingencyTable>
    where
        I: IntoIterator<Item = crate::partial::PartialCounts>,
    {
        let mut iter = partials.into_iter();
        let first = iter.next().ok_or(ProbError::EmptyTable("from_partials"))?;
        let mut table = first.into_table();
        for shard in iter {
            table.merge_from(shard.table())?;
        }
        Ok(table)
    }
}

/// A categorical code as [`ContingencyTable::tally_codes_trusted`] reads
/// it: `u8` for a column of one-byte codes kept as the bytes they were
/// stored as, `u32` for any code.
pub trait Code: Copy {
    /// The code as an index into its axis's labels.
    fn index(self) -> usize;
    /// The code's low 16 bits: the whole code in a table of at most
    /// `u16::MAX` cells.
    fn low16(self) -> u16;
}

impl Code for u8 {
    #[inline]
    fn index(self) -> usize {
        usize::from(self)
    }
    #[inline]
    fn low16(self) -> u16 {
        u16::from(self)
    }
}

impl Code for u32 {
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
    #[inline]
    fn low16(self) -> u16 {
        self as u16
    }
}

/// A flat cell index as a block of [`tally_blocks`] holds it: `u16` in a
/// table of at most `u16::MAX` cells, where a column sweep widens and
/// multiplies eight indices per SSE2 instruction against two `usize`s,
/// and `usize` in any table.
trait Flat: Copy + Default + std::ops::AddAssign + std::ops::Mul<Output = Self> {
    fn of_code<C: Code>(code: C) -> Self;
    fn of_stride(stride: usize) -> Self;
    fn cell(self) -> usize;
}

impl Flat for u16 {
    #[inline]
    fn of_code<C: Code>(code: C) -> Self {
        code.low16()
    }
    #[inline]
    fn of_stride(stride: usize) -> Self {
        stride as u16
    }
    #[inline]
    fn cell(self) -> usize {
        usize::from(self)
    }
}

impl Flat for usize {
    #[inline]
    fn of_code<C: Code>(code: C) -> Self {
        code.index()
    }
    #[inline]
    fn of_stride(stride: usize) -> Self {
        stride
    }
    #[inline]
    fn cell(self) -> usize {
        self
    }
}

/// Records per block of [`tally_blocks`]: their flat indices fit one
/// stack buffer, built one column at a time.
const TALLY_BLOCK: usize = 1024;

/// [`ContingencyTable::tally_codes_trusted`]'s loop, for equal-length
/// columns. A block of records at a time, each column adds its codes
/// times its stride into the block's flat indices,
/// `flat[r] = Σ_k codes[k][r]·stride[k]`, and then each record adds `1.0`
/// to its cell, in record order.
fn tally_blocks<C: Code, F: Flat>(columns: &[&[C]], strides: &[usize], cells: &mut [f64]) {
    let n = columns.first().map_or(0, |col| col.len());
    let mut flats = [F::default(); TALLY_BLOCK];
    let mut start = 0;
    while start < n {
        let end = n.min(start + TALLY_BLOCK);
        let block = &mut flats[..end - start];
        block.fill(F::default());
        for (col, &stride) in columns.iter().zip(strides) {
            let stride = F::of_stride(stride);
            for (flat, &code) in block.iter_mut().zip(&col[start..end]) {
                *flat += F::of_code(code) * stride;
            }
        }
        for flat in block.iter() {
            cells[flat.cell()] += 1.0;
        }
        start = end;
    }
}

/// The display names of the intersections of `axes`, each given as
/// `(name, labels)`, in mixed-radix order with the first axis most
/// significant. Each is [`intersection_label`]'s name, so a group label
/// means the same intersection everywhere.
pub fn intersection_labels(axes: &[(&str, &[String])]) -> Vec<String> {
    let n: usize = axes.iter().map(|(_, labels)| labels.len()).product();
    (0..n)
        .map(|g| intersection_label(axes.iter().copied(), g))
        .collect()
}

/// The display name of intersection `g` of `axes` (mixed-radix, first
/// axis most significant): `"name=label"` per axis, joined by `", "`.
/// Audits, the monitor and data-frame group indices all name groups
/// through this one function. `g` must be below the product of the axis
/// lengths.
pub fn intersection_label<'a, I>(axes: I, g: usize) -> String
where
    I: IntoIterator<Item = (&'a str, &'a [String])> + Clone,
{
    let mut stride: usize = axes.clone().into_iter().map(|(_, l)| l.len()).product();
    let mut out = String::new();
    for (k, (name, labels)) in axes.into_iter().enumerate() {
        stride /= labels.len();
        if k > 0 {
            out.push_str(", ");
        }
        out.push_str(name);
        out.push('=');
        out.push_str(&labels[(g / stride) % labels.len()]);
    }
    out
}

/// Adds `src` into `dst` cell by cell — the count sum behind every table
/// and snapshot merge. The slices must have equal length.
pub fn add_cells(dst: &mut [f64], src: &[f64]) -> Result<()> {
    if dst.len() != src.len() {
        return Err(ProbError::ShapeMismatch {
            context: "add_cells",
            expected: dst.len(),
            actual: src.len(),
        });
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d += s;
    }
    Ok(())
}

/// Adds every nonzero cell of `src`, in source order, into `dst[to(i)]`:
/// the one projection sum behind [`ContingencyTable::marginalize`] and the
/// ε kernel's group tables. Run into `+0.0` buckets, it gives the same
/// bits whichever of them projects a table, integer and fractional cells
/// alike; a `-0.0` cell is skipped, so it reads as its bucket's `+0.0`.
pub fn add_projected(dst: &mut [f64], src: &[f64], mut to: impl FnMut(usize) -> usize) {
    for (i, &v) in src.iter().enumerate() {
        if !exactly_zero(v) {
            dst[to(i)] += v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::numerics::approx_eq;

    fn table_2x3() -> ContingencyTable {
        let axes = vec![
            Axis::from_strs("outcome", &["no", "yes"]).unwrap(),
            Axis::from_strs("group", &["a", "b", "c"]).unwrap(),
        ];
        ContingencyTable::from_data(axes, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn axis_rejects_duplicates_and_empty() {
        assert!(Axis::from_strs("g", &[]).is_err());
        assert!(Axis::from_strs("g", &["x", "x"]).is_err());
    }

    /// The label check is one hash lookup per label: a 100,000-label axis
    /// whose only repeat is its last label gets the usual error, fast.
    #[test]
    fn axis_duplicate_check_is_linear() {
        let mut labels: Vec<String> = (0..99_999).map(|i| format!("l{i}")).collect();
        labels.push("l99998".to_string());
        let started = std::time::Instant::now();
        let err = Axis::new("big", labels).unwrap_err().to_string();
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
        assert!(
            err.contains("axis `big` has duplicate label `l99998`"),
            "{err}"
        );
    }

    #[test]
    fn zeros_rejects_duplicate_axis_names() {
        let axes = vec![
            Axis::from_strs("g", &["a"]).unwrap(),
            Axis::from_strs("g", &["b"]).unwrap(),
        ];
        assert!(ContingencyTable::zeros(axes).is_err());
    }

    #[test]
    fn from_data_validates_shape_and_values() {
        let axes = vec![Axis::from_strs("g", &["a", "b"]).unwrap()];
        assert!(ContingencyTable::from_data(axes.clone(), vec![1.0]).is_err());
        assert!(ContingencyTable::from_data(axes.clone(), vec![1.0, -1.0]).is_err());
        assert!(ContingencyTable::from_data(axes, vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn indexing_is_row_major() {
        let t = table_2x3();
        assert_eq!(t.get(&[0, 0]), 1.0);
        assert_eq!(t.get(&[0, 2]), 3.0);
        assert_eq!(t.get(&[1, 0]), 4.0);
        assert_eq!(t.get(&[1, 2]), 6.0);
    }

    #[test]
    fn unflatten_roundtrip() {
        let t = table_2x3();
        let mut idx = vec![0usize; 2];
        for flat in 0..t.num_cells() {
            t.unflatten(flat, &mut idx);
            assert_eq!(t.flat_index(&idx), flat);
        }
    }

    #[test]
    fn marginalize_sums_out_axes() {
        let t = table_2x3();
        let m = t.marginalize(&["outcome"]).unwrap();
        assert_eq!(m.ndim(), 1);
        assert!(approx_eq(m.get(&[0]), 6.0, 1e-14, 0.0)); // 1+2+3
        assert!(approx_eq(m.get(&[1]), 15.0, 1e-14, 0.0)); // 4+5+6

        let g = t.marginalize(&["group"]).unwrap();
        assert!(approx_eq(g.get(&[0]), 5.0, 1e-14, 0.0)); // 1+4
        assert!(approx_eq(g.get(&[1]), 7.0, 1e-14, 0.0));
        assert!(approx_eq(g.get(&[2]), 9.0, 1e-14, 0.0));
    }

    #[test]
    fn marginalize_preserves_total() {
        let t = table_2x3();
        for keep in [&["outcome"][..], &["group"][..], &["outcome", "group"][..]] {
            let m = t.marginalize(keep).unwrap();
            assert!(approx_eq(m.total(), t.total(), 1e-12, 0.0));
        }
    }

    #[test]
    fn marginalize_reorders_axes() {
        let t = table_2x3();
        let m = t.marginalize(&["group", "outcome"]).unwrap();
        assert_eq!(m.axes()[0].name(), "group");
        assert_eq!(m.axes()[1].name(), "outcome");
        assert_eq!(m.get(&[2, 1]), t.get(&[1, 2]));
    }

    #[test]
    fn marginalize_errors() {
        let t = table_2x3();
        assert!(t.marginalize(&[]).is_err());
        assert!(t.marginalize(&["nope"]).is_err());
        assert!(t.marginalize(&["group", "group"]).is_err());
    }

    #[test]
    fn condition_slices_correctly() {
        let t = table_2x3();
        let c = t.condition("group", "b").unwrap();
        assert_eq!(c.ndim(), 1);
        assert_eq!(c.get(&[0]), 2.0);
        assert_eq!(c.get(&[1]), 5.0);

        let c = t.condition("outcome", "yes").unwrap();
        assert_eq!(c.get(&[0]), 4.0);
        assert_eq!(c.get(&[2]), 6.0);
    }

    #[test]
    fn condition_errors() {
        let t = table_2x3();
        assert!(t.condition("group", "zzz").is_err());
        assert!(t.condition("nope", "a").is_err());
        let one_axis = t.marginalize(&["group"]).unwrap();
        assert!(one_axis.condition("group", "a").is_err());
    }

    #[test]
    fn increment_by_labels_tallies_records() {
        let axes = vec![
            Axis::from_strs("outcome", &["no", "yes"]).unwrap(),
            Axis::from_strs("gender", &["f", "m"]).unwrap(),
        ];
        let mut t = ContingencyTable::zeros(axes).unwrap();
        t.increment_by_labels(&["yes", "f"]).unwrap();
        t.increment_by_labels(&["yes", "f"]).unwrap();
        t.increment_by_labels(&["no", "m"]).unwrap();
        assert_eq!(t.get(&[1, 0]), 2.0);
        assert_eq!(t.get(&[0, 1]), 1.0);
        assert!(t.increment_by_labels(&["yes"]).is_err());
        assert!(t.increment_by_labels(&["yes", "x"]).is_err());
    }

    #[test]
    fn tally_codes_matches_per_row_increments() {
        // Three axes of arities 2, 3, 2.
        let axes = vec![
            Axis::from_strs("y", &["0", "1"]).unwrap(),
            Axis::from_strs("a", &["p", "q", "r"]).unwrap(),
            Axis::from_strs("b", &["x", "z"]).unwrap(),
        ];
        let cols: [Vec<u32>; 3] = [
            vec![0, 1, 1, 0, 1, 0, 0],
            vec![2, 0, 1, 1, 2, 0, 2],
            vec![1, 1, 0, 0, 1, 0, 1],
        ];
        let mut bulk = ContingencyTable::zeros(axes.clone()).unwrap();
        bulk.tally_codes(&[&cols[0], &cols[1], &cols[2]]).unwrap();
        let mut slow = ContingencyTable::zeros(axes).unwrap();
        for ((&y, &a), &b) in cols[0].iter().zip(&cols[1]).zip(&cols[2]) {
            slow.increment(&[y as usize, a as usize, b as usize]);
        }
        assert_eq!(bulk, slow);
        assert_eq!(bulk.total(), 7.0);
        // The trusted path produces the same table on in-contract input.
        let mut trusted = ContingencyTable::zeros(bulk.axes().to_vec()).unwrap();
        trusted
            .tally_codes_trusted(&[&cols[0], &cols[1], &cols[2]])
            .unwrap();
        assert_eq!(trusted, slow);
    }

    #[test]
    fn tally_codes_trusted_counts_bytes_and_wide_codes_across_blocks() {
        // 2,500 records cross two block edges; the byte columns and their
        // `u32` widening land in the same cells as per-row increments, in
        // a table of u16 flat indices (2·3·5 cells) and one of `usize`
        // flat indices (2·40,000 cells).
        for arities in [[2, 3, 5], [2, 40_000, 1]] {
            let axes: Vec<Axis> = arities
                .iter()
                .enumerate()
                .map(|(k, &n)| {
                    let labels = (0..n).map(|i| i.to_string()).collect();
                    Axis::new(format!("a{k}"), labels).unwrap()
                })
                .collect();
            let mut state = 0x2545_f491_4f6c_dd1d_u64;
            let wide: Vec<Vec<u32>> = arities
                .iter()
                .map(|&n| {
                    (0..2_500)
                        .map(|_| {
                            state = state
                                .wrapping_mul(6_364_136_223_846_793_005)
                                .wrapping_add(1);
                            // A byte-sized code where every byte column
                            // can hold it, any code of the axis otherwise.
                            let bound = if n <= 256 { n } else { 200 };
                            ((state >> 33) % bound) as u32
                        })
                        .collect()
                })
                .collect();
            let bytes: Vec<Vec<u8>> = wide
                .iter()
                .map(|col| col.iter().map(|&c| c as u8).collect())
                .collect();
            let mut slow = ContingencyTable::zeros(axes.clone()).unwrap();
            for r in 0..2_500 {
                let idx: Vec<usize> = wide.iter().map(|col| col[r] as usize).collect();
                slow.increment(&idx);
            }
            let wide_slices: Vec<&[u32]> = wide.iter().map(Vec::as_slice).collect();
            let mut from_wide = ContingencyTable::zeros(axes.clone()).unwrap();
            from_wide.tally_codes_trusted(&wide_slices).unwrap();
            assert_eq!(from_wide, slow, "arities {arities:?}");
            let byte_slices: Vec<&[u8]> = bytes.iter().map(Vec::as_slice).collect();
            let mut from_bytes = ContingencyTable::zeros(axes).unwrap();
            from_bytes.tally_codes_trusted(&byte_slices).unwrap();
            assert_eq!(from_bytes, slow, "arities {arities:?}");
        }
    }

    #[test]
    fn tally_codes_validates() {
        let axes = vec![
            Axis::from_strs("y", &["0", "1"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ];
        let mut t = ContingencyTable::zeros(axes).unwrap();
        // Wrong column count.
        assert!(t.tally_codes(&[&[0, 1][..]]).is_err());
        assert!(t.tally_codes_trusted(&[&[0u32, 1][..]]).is_err());
        // Mismatched lengths.
        assert!(t.tally_codes(&[&[0, 1][..], &[0][..]]).is_err());
        assert!(t.tally_codes_trusted(&[&[0u32, 1][..], &[0][..]]).is_err());
        // Out-of-range code caught by the validated path before any cell
        // is touched.
        assert!(t.tally_codes(&[&[0, 2][..], &[0, 1][..]]).is_err());
        assert_eq!(t.total(), 0.0);
        // A single-axis table.
        let mut one =
            ContingencyTable::zeros(vec![Axis::from_strs("y", &["0", "1", "2"]).unwrap()]).unwrap();
        one.tally_codes(&[&[2, 2, 0][..]]).unwrap();
        assert_eq!(one.get(&[2]), 2.0);
        // Empty batch is a no-op.
        one.tally_codes(&[&[][..]]).unwrap();
        assert_eq!(one.total(), 3.0);
    }

    #[test]
    fn merge_from_adds_cellwise_and_validates_axes() {
        let mut a = table_2x3();
        let b = table_2x3();
        a.merge_from(&b).unwrap();
        assert!(approx_eq(a.total(), 42.0, 1e-14, 0.0));
        assert_eq!(a.get(&[1, 2]), 12.0);
        let other = ContingencyTable::zeros(vec![
            Axis::from_strs("outcome", &["no", "yes"]).unwrap(),
            Axis::from_strs("group", &["a", "b"]).unwrap(),
        ])
        .unwrap();
        assert!(a.merge_from(&other).is_err());
    }

    #[test]
    fn add_cells_checks_lengths() {
        let mut dst = vec![1.0, 2.0];
        add_cells(&mut dst, &[3.0, 4.0]).unwrap();
        assert_eq!(dst, [4.0, 6.0]);
        assert!(add_cells(&mut dst, &[1.0]).is_err());
        assert_eq!(dst, [4.0, 6.0]);
    }

    #[test]
    fn subtract_from_inverts_merge_and_guards_negativity() {
        let mut t = table_2x3();
        let other = table_2x3();
        let mut merged = t.clone();
        merged.merge_from(&other).unwrap();
        merged.subtract_from(&other).unwrap();
        assert_eq!(merged, t, "merge then subtract must be the identity");
        // Subtracting more than a cell holds is refused, leaving the table
        // untouched.
        let mut bigger = table_2x3();
        bigger.add(&[0, 0], 5.0);
        let before = t.clone();
        assert!(matches!(
            t.subtract_from(&bigger),
            Err(ProbError::InvalidParameter { .. })
        ));
        assert_eq!(t, before);
        // Axis mismatch is refused.
        let other = ContingencyTable::zeros(vec![
            Axis::from_strs("outcome", &["no", "yes"]).unwrap(),
            Axis::from_strs("group", &["a", "b"]).unwrap(),
        ])
        .unwrap();
        assert!(t.subtract_from(&other).is_err());
        // The data twin agrees with the table form and validates shape.
        let mut a = table_2x3();
        let cells: Vec<f64> = table_2x3().data().to_vec();
        let mut b = a.clone();
        b.merge_from(&table_2x3()).unwrap();
        b.subtract_data(&cells).unwrap();
        assert_eq!(b, a);
        assert!(a.subtract_data(&[1.0]).is_err());
        let too_big = vec![100.0; 6];
        let before = a.clone();
        assert!(a.subtract_data(&too_big).is_err());
        assert_eq!(a, before);
        // clear() zeroes cells, keeps axes.
        a.clear();
        assert_eq!(a.total(), 0.0);
        assert_eq!(a.axes(), before.axes());
    }

    #[test]
    fn from_partials_folds_shards() {
        use crate::partial::PartialCounts;
        let axes = || {
            vec![
                Axis::from_strs("y", &["0", "1"]).unwrap(),
                Axis::from_strs("g", &["a", "b"]).unwrap(),
            ]
        };
        let mut s1 = PartialCounts::zeros(axes()).unwrap();
        let mut s2 = PartialCounts::zeros(axes()).unwrap();
        s1.record(&[0, 0]);
        s1.record(&[1, 1]);
        s2.record(&[1, 1]);
        let t = ContingencyTable::from_partials(vec![s1, s2]).unwrap();
        assert_eq!(t.get(&[1, 1]), 2.0);
        assert_eq!(t.total(), 3.0);
        assert!(matches!(
            ContingencyTable::from_partials(std::iter::empty()),
            Err(ProbError::EmptyTable(_))
        ));
    }

    #[test]
    fn three_dimensional_marginalization() {
        // Build P(y, g, r) and check P(y, g) against hand computation.
        let axes = vec![
            Axis::from_strs("y", &["0", "1"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
            Axis::from_strs("r", &["x", "y", "z"]).unwrap(),
        ];
        let data: Vec<f64> = (1..=12).map(|v| v as f64).collect();
        let t = ContingencyTable::from_data(axes, data).unwrap();
        let m = t.marginalize(&["y", "g"]).unwrap();
        // y=0,g=a: cells 1,2,3 → 6; y=1,g=b: cells 10,11,12 → 33.
        assert!(approx_eq(m.get(&[0, 0]), 6.0, 1e-14, 0.0));
        assert!(approx_eq(m.get(&[1, 1]), 33.0, 1e-14, 0.0));
    }
}
