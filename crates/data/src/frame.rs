//! A small columnar data frame.
//!
//! Columns are either categorical (interned `u32` codes plus a vocabulary)
//! or numeric (`f64`). The frame supports the operations the experiments
//! need — selection, masking, deterministic splits, group-by tallies into
//! contingency tables — without trying to be a general dataframe library.

use crate::error::{DataError, Result};
use df_prob::contingency::{intersection_labels, Axis, ContingencyTable};
use df_prob::rng::Pcg32;
use std::collections::HashMap;

/// A hashed string interner that assigns dense `u32` codes in
/// first-occurrence order.
///
/// This is the single interning primitive of the data layer: categorical
/// column construction and the replay-log schema writer both go through
/// it, so vocabularies are always ordered by first appearance — the
/// property the axis/code contract of the streaming engine relies on.
/// Lookups are O(1) amortized, replacing the old O(n·|vocab|) linear scan
/// that made high-cardinality columns quadratic to intern.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    map: HashMap<String, u32>,
    vocab: Vec<String>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns one value, returning its code. A value seen before gets its
    /// existing code; a new value gets the next dense code.
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&code) = self.map.get(value) {
            return code;
        }
        let code = self.vocab.len() as u32;
        self.map.insert(value.to_string(), code);
        self.vocab.push(value.to_string());
        code
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> usize {
        self.vocab.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.vocab.is_empty()
    }

    /// The vocabulary in first-occurrence order; `intern`'s return values
    /// index into it.
    pub fn vocab(&self) -> &[String] {
        &self.vocab
    }

    /// Consumes the interner, yielding the vocabulary in first-occurrence
    /// order.
    pub fn into_vocab(self) -> Vec<String> {
        self.vocab
    }
}

/// Storage for one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Categorical values as codes into `vocab`.
    Categorical {
        /// Per-row codes.
        codes: Vec<u32>,
        /// Ordered distinct values; `codes[i]` indexes here.
        vocab: Vec<String>,
    },
    /// Numeric values.
    Numeric(Vec<f64>),
}

/// A named column.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    name: String,
    data: ColumnData,
}

impl Column {
    /// Creates a categorical column by interning string values (hashed
    /// lookup, codes in first-occurrence order — see [`Interner`]).
    pub fn categorical<S: AsRef<str>>(name: impl Into<String>, values: &[S]) -> Column {
        let mut interner = Interner::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            codes.push(interner.intern(v.as_ref()));
        }
        Column {
            name: name.into(),
            data: ColumnData::Categorical {
                codes,
                vocab: interner.into_vocab(),
            },
        }
    }

    /// Creates a categorical column from codes and an explicit vocabulary
    /// (codes must index into the vocab).
    pub fn categorical_from_codes(
        name: impl Into<String>,
        codes: Vec<u32>,
        vocab: Vec<String>,
    ) -> Result<Column> {
        if let Some(&bad) = codes.iter().find(|&&c| c as usize >= vocab.len()) {
            return Err(DataError::Invalid(format!(
                "code {bad} out of range for vocab of {} entries",
                vocab.len()
            )));
        }
        Ok(Column {
            name: name.into(),
            data: ColumnData::Categorical { codes, vocab },
        })
    }

    /// Creates a numeric column.
    pub fn numeric(name: impl Into<String>, values: Vec<f64>) -> Column {
        Column {
            name: name.into(),
            data: ColumnData::Numeric(values),
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Categorical { codes, .. } => codes.len(),
            ColumnData::Numeric(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// True for categorical columns.
    pub fn is_categorical(&self) -> bool {
        matches!(self.data, ColumnData::Categorical { .. })
    }

    /// Categorical accessors, or an error for numeric columns.
    pub fn as_categorical(&self) -> Result<(&[u32], &[String])> {
        match &self.data {
            ColumnData::Categorical { codes, vocab } => Ok((codes, vocab)),
            ColumnData::Numeric(_) => Err(DataError::WrongColumnType {
                column: self.name.clone(),
                expected: "categorical",
            }),
        }
    }

    /// Numeric accessor, or an error for categorical columns.
    pub fn as_numeric(&self) -> Result<&[f64]> {
        match &self.data {
            ColumnData::Numeric(v) => Ok(v),
            ColumnData::Categorical { .. } => Err(DataError::WrongColumnType {
                column: self.name.clone(),
                expected: "numeric",
            }),
        }
    }

    /// String value of a row (numeric values are formatted).
    pub fn value_str(&self, row: usize) -> String {
        match &self.data {
            ColumnData::Categorical { codes, vocab } => vocab[codes[row] as usize].clone(),
            ColumnData::Numeric(v) => format!("{}", v[row]),
        }
    }

    fn take(&self, indices: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::Categorical { codes, vocab } => ColumnData::Categorical {
                codes: indices.iter().map(|&i| codes[i]).collect(),
                vocab: vocab.clone(),
            },
            ColumnData::Numeric(v) => ColumnData::Numeric(indices.iter().map(|&i| v[i]).collect()),
        };
        Column {
            name: self.name.clone(),
            data,
        }
    }
}

/// A columnar data frame: equal-length named columns.
#[derive(Debug, Clone, PartialEq)]
pub struct DataFrame {
    columns: Vec<Column>,
    n_rows: usize,
}

impl DataFrame {
    /// Creates a frame; all columns must have the same length and unique
    /// names, and at least one column is required.
    pub fn new(columns: Vec<Column>) -> Result<DataFrame> {
        let n_rows = match columns.first() {
            Some(c) => c.len(),
            None => {
                return Err(DataError::Invalid(
                    "a frame needs at least one column".into(),
                ))
            }
        };
        for (i, c) in columns.iter().enumerate() {
            if c.len() != n_rows {
                return Err(DataError::Invalid(format!(
                    "column `{}` has {} rows, expected {n_rows}",
                    c.name(),
                    c.len()
                )));
            }
            if columns[..i].iter().any(|d| d.name() == c.name()) {
                return Err(DataError::Invalid(format!(
                    "duplicate column name `{}`",
                    c.name()
                )));
            }
        }
        Ok(DataFrame { columns, n_rows })
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(Column::name).collect()
    }

    /// Looks up a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| DataError::UnknownColumn(name.to_string()))
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Adds a column (same length, fresh name required).
    pub fn add_column(&mut self, column: Column) -> Result<()> {
        if column.len() != self.n_rows {
            return Err(DataError::Invalid(format!(
                "column `{}` has {} rows, expected {}",
                column.name(),
                column.len(),
                self.n_rows
            )));
        }
        if self.columns.iter().any(|c| c.name() == column.name()) {
            return Err(DataError::Invalid(format!(
                "duplicate column name `{}`",
                column.name()
            )));
        }
        self.columns.push(column);
        Ok(())
    }

    /// Projects onto the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let columns: Vec<Column> = names
            .iter()
            .map(|n| self.column(n).cloned())
            .collect::<Result<_>>()?;
        DataFrame::new(columns)
    }

    /// Keeps rows at the given indices (duplicates and reordering allowed).
    pub fn take(&self, indices: &[usize]) -> Result<DataFrame> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.n_rows) {
            return Err(DataError::Invalid(format!(
                "row index {bad} out of range ({} rows)",
                self.n_rows
            )));
        }
        DataFrame::new(self.columns.iter().map(|c| c.take(indices)).collect())
    }

    /// Keeps rows where `mask` is true (`mask.len()` must equal `n_rows`).
    pub fn filter(&self, mask: &[bool]) -> Result<DataFrame> {
        if mask.len() != self.n_rows {
            return Err(DataError::Invalid(format!(
                "mask has {} entries, expected {}",
                mask.len(),
                self.n_rows
            )));
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        self.take(&indices)
    }

    /// Deterministic head/tail split: first `n_head` rows and the rest.
    pub fn split_at(&self, n_head: usize) -> Result<(DataFrame, DataFrame)> {
        if n_head > self.n_rows {
            return Err(DataError::Invalid(format!(
                "cannot split {} rows at {n_head}",
                self.n_rows
            )));
        }
        let head: Vec<usize> = (0..n_head).collect();
        let tail: Vec<usize> = (n_head..self.n_rows).collect();
        Ok((self.take(&head)?, self.take(&tail)?))
    }

    /// Shuffled split into train/test with the given train fraction,
    /// deterministic under the supplied generator.
    pub fn split_train_test(
        &self,
        train_fraction: f64,
        rng: &mut Pcg32,
    ) -> Result<(DataFrame, DataFrame)> {
        if !(0.0..=1.0).contains(&train_fraction) {
            return Err(DataError::Invalid(format!(
                "train_fraction must lie in [0,1], got {train_fraction}"
            )));
        }
        let mut indices: Vec<usize> = (0..self.n_rows).collect();
        rng.shuffle(&mut indices);
        let n_train = (self.n_rows as f64 * train_fraction).round() as usize;
        let (train_idx, test_idx) = indices.split_at(n_train.min(self.n_rows));
        Ok((self.take(train_idx)?, self.take(test_idx)?))
    }

    /// Tallies the named categorical columns into a contingency table whose
    /// axes use each column's vocabulary (in interning order).
    pub fn contingency(&self, columns: &[&str]) -> Result<ContingencyTable> {
        if columns.is_empty() {
            return Err(DataError::Invalid("need at least one column".into()));
        }
        let cols: Vec<(&[u32], &[String])> = columns
            .iter()
            .map(|n| self.column(n)?.as_categorical())
            .collect::<Result<_>>()?;
        let axes: Vec<Axis> = columns
            .iter()
            .zip(&cols)
            .map(|(name, (_, vocab))| Axis::new(*name, vocab.to_vec()))
            .collect::<std::result::Result<_, _>>()?;
        let mut table = ContingencyTable::zeros(axes)?;
        // Every column's codes index its own vocabulary: the column
        // constructors check it, and the fields are private.
        let codes: Vec<&[u32]> = cols.iter().map(|(codes, _)| *codes).collect();
        table.tally_codes_trusted(&codes)?;
        Ok(table)
    }

    /// Per-row group index over the named categorical columns, mixed-radix
    /// with the first column most significant — the group order of
    /// df-core's audits. Also returns the per-group labels, named by
    /// [`intersection_labels`] exactly as audits name them.
    pub fn group_indices(&self, columns: &[&str]) -> Result<(Vec<usize>, Vec<String>)> {
        if columns.is_empty() {
            return Err(DataError::Invalid("need at least one column".into()));
        }
        let cols: Vec<(&[u32], &[String])> = columns
            .iter()
            .map(|n| self.column(n)?.as_categorical())
            .collect::<Result<_>>()?;
        let arities: Vec<usize> = cols.iter().map(|(_, v)| v.len()).collect();

        let mut indices = Vec::with_capacity(self.n_rows);
        for row in 0..self.n_rows {
            let mut flat = 0usize;
            for ((codes, _), &arity) in cols.iter().zip(&arities) {
                flat = flat * arity + codes[row] as usize;
            }
            indices.push(flat);
        }
        let named: Vec<(&str, &[String])> = columns
            .iter()
            .zip(&cols)
            .map(|(name, (_, vocab))| (*name, *vocab))
            .collect();
        Ok((indices, intersection_labels(&named)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::new(vec![
            Column::categorical("color", &["red", "blue", "red", "green"]),
            Column::numeric("x", vec![1.0, 2.0, 3.0, 4.0]),
            Column::categorical("y", &["no", "yes", "yes", "no"]),
        ])
        .unwrap()
    }

    #[test]
    fn interning_preserves_first_seen_order() {
        let c = Column::categorical("c", &["b", "a", "b", "c"]);
        let (codes, vocab) = c.as_categorical().unwrap();
        assert_eq!(vocab, &["b".to_string(), "a".to_string(), "c".to_string()]);
        assert_eq!(codes, &[0, 1, 0, 2]);
    }

    #[test]
    fn hashed_interner_matches_first_occurrence_order_at_high_cardinality() {
        // A deliberately shuffled high-cardinality stream: the hashed
        // interner must hand out codes in first-occurrence order, exactly
        // as the old linear scan did, independent of hash iteration order.
        let values: Vec<String> = (0..5_000)
            .map(|i| format!("v{}", (i * 7919) % 997))
            .collect();
        let c = Column::categorical("c", &values);
        let (codes, vocab) = c.as_categorical().unwrap();
        // Reference interning via the O(n²) scan the interner replaced.
        let mut ref_vocab: Vec<String> = Vec::new();
        let mut ref_codes: Vec<u32> = Vec::new();
        for v in &values {
            let code = match ref_vocab.iter().position(|u| u == v) {
                Some(i) => i as u32,
                None => {
                    ref_vocab.push(v.clone());
                    (ref_vocab.len() - 1) as u32
                }
            };
            ref_codes.push(code);
        }
        assert_eq!(vocab, &ref_vocab[..]);
        assert_eq!(codes, &ref_codes[..]);
        // Interner is also usable standalone (the replay schema writer
        // path), with idempotent lookups.
        let mut i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.intern("x"), 0);
        assert_eq!(i.intern("y"), 1);
        assert_eq!(i.intern("x"), 0);
        assert_eq!(i.len(), 2);
        assert_eq!(i.vocab(), &["x".to_string(), "y".to_string()]);
        assert_eq!(i.into_vocab(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn construction_validates() {
        assert!(DataFrame::new(vec![]).is_err());
        let a = Column::numeric("a", vec![1.0]);
        let b = Column::numeric("b", vec![1.0, 2.0]);
        assert!(DataFrame::new(vec![a.clone(), b]).is_err());
        let a2 = Column::numeric("a", vec![2.0]);
        assert!(DataFrame::new(vec![a, a2]).is_err());
    }

    #[test]
    fn categorical_from_codes_validates() {
        assert!(Column::categorical_from_codes("c", vec![0, 2], vec!["x".into()]).is_err());
        let c =
            Column::categorical_from_codes("c", vec![0, 0], vec!["x".into(), "y".into()]).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn typed_accessors() {
        let f = sample();
        assert!(f.column("x").unwrap().as_numeric().is_ok());
        assert!(f.column("x").unwrap().as_categorical().is_err());
        assert!(f.column("color").unwrap().as_categorical().is_ok());
        assert!(f.column("missing").is_err());
        assert_eq!(f.column("color").unwrap().value_str(3), "green");
        assert_eq!(f.column("x").unwrap().value_str(0), "1");
    }

    #[test]
    fn select_reorders() {
        let f = sample().select(&["y", "x"]).unwrap();
        assert_eq!(f.column_names(), vec!["y", "x"]);
        assert!(sample().select(&["nope"]).is_err());
    }

    #[test]
    fn take_and_filter() {
        let f = sample();
        let t = f.take(&[2, 0]).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.column("x").unwrap().as_numeric().unwrap(), &[3.0, 1.0]);
        let m = f.filter(&[true, false, false, true]).unwrap();
        assert_eq!(m.n_rows(), 2);
        assert_eq!(m.column("color").unwrap().value_str(1), "green");
        assert!(f.take(&[9]).is_err());
        assert!(f.filter(&[true]).is_err());
    }

    #[test]
    fn split_at_partitions() {
        let (head, tail) = sample().split_at(3).unwrap();
        assert_eq!(head.n_rows(), 3);
        assert_eq!(tail.n_rows(), 1);
        assert!(sample().split_at(9).is_err());
    }

    #[test]
    fn split_train_test_is_a_partition() {
        let f = sample();
        let mut rng = Pcg32::new(5);
        let (train, test) = f.split_train_test(0.5, &mut rng).unwrap();
        assert_eq!(train.n_rows() + test.n_rows(), f.n_rows());
        // Values are preserved as a multiset.
        let mut all: Vec<f64> = train.column("x").unwrap().as_numeric().unwrap().to_vec();
        all.extend(test.column("x").unwrap().as_numeric().unwrap());
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(all, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn contingency_counts_match() {
        let f = sample();
        let t = f.contingency(&["y", "color"]).unwrap();
        assert_eq!(t.ndim(), 2);
        let y_axis = &t.axes()[0];
        assert_eq!(y_axis.labels(), &["no".to_string(), "yes".to_string()]);
        // (no, red) appears once; (yes, red) once; (yes, blue) once; (no, green) once.
        let ix = |y: &str, c: &str| {
            let yi = t.axes()[0].index_of(y).unwrap();
            let ci = t.axes()[1].index_of(c).unwrap();
            t.get(&[yi, ci])
        };
        assert_eq!(ix("no", "red"), 1.0);
        assert_eq!(ix("yes", "red"), 1.0);
        assert_eq!(ix("yes", "blue"), 1.0);
        assert_eq!(ix("no", "green"), 1.0);
        assert_eq!(ix("no", "blue"), 0.0);
        assert_eq!(t.total(), 4.0);
    }

    #[test]
    fn contingency_rejects_numeric() {
        assert!(sample().contingency(&["x"]).is_err());
        assert!(sample().contingency(&[]).is_err());
    }

    #[test]
    fn group_indices_are_mixed_radix() {
        let f = sample();
        let (idx, labels) = f.group_indices(&["y", "color"]).unwrap();
        // y vocab [no, yes], color vocab [red, blue, green] → 6 groups.
        assert_eq!(labels.len(), 6);
        assert_eq!(labels[0], "y=no, color=red");
        assert_eq!(labels[5], "y=yes, color=green");
        // Row 0: (no, red) → 0; row 1: (yes, blue) → 1*3+1=4.
        assert_eq!(idx[0], 0);
        assert_eq!(idx[1], 4);
    }

    #[test]
    fn add_column_validates() {
        let mut f = sample();
        assert!(f.add_column(Column::numeric("x", vec![0.0; 4])).is_err());
        assert!(f.add_column(Column::numeric("z", vec![0.0; 3])).is_err());
        assert!(f.add_column(Column::numeric("z", vec![0.0; 4])).is_ok());
        assert_eq!(f.n_cols(), 4);
    }
}
