//! Mergeable partial counts — the monoid behind sharded tallying.
//!
//! The ε kernel (Eq. 6/7, Definition 3.1 of the paper) only ever consumes
//! the joint counts `N[y, s₁, …, s_p]`, and counts are additive: tallying a
//! dataset is a sum over records, so any partition of the records into
//! shards can be tallied independently and the per-shard tables summed
//! cell-wise at the end. [`PartialCounts`] makes that algebra explicit:
//!
//! - [`PartialCounts::zeros`] is the identity element,
//! - [`PartialCounts::merge`] is the associative, commutative operation
//!   (cell-wise addition over identical axes),
//! - [`ContingencyTable::from_partials`] folds any number of shards back
//!   into a single table.
//!
//! Because every cell value is a non-negative count (exactly representable
//! in `f64` up to 2⁵³ for integer tallies), merging in *any* order produces
//! bit-identical tables — which is what lets the streaming audit engine in
//! df-core fan records out to worker threads and still certify the very
//! same ε as the single-threaded batch path.
//!
//! The [`Tally`] trait is the bridge to record sources: a chunk of records
//! (a slice of a data frame, a batch of parsed CSV rows, …) knows how to
//! tally itself into a shard.

use crate::contingency::{Axis, Code, ContingencyTable};
use crate::error::Result;

/// A shard of joint counts: one worker's partial tally over a fixed set of
/// axes, mergeable with any other shard over the same axes.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialCounts {
    table: ContingencyTable,
}

impl PartialCounts {
    /// The monoid identity: a zero-filled shard over the given axes.
    pub fn zeros(axes: Vec<Axis>) -> Result<Self> {
        Ok(Self {
            table: ContingencyTable::zeros(axes)?,
        })
    }

    /// The shard's axes, in storage order.
    pub fn axes(&self) -> &[Axis] {
        self.table.axes()
    }

    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.table.ndim()
    }

    /// Total mass tallied into this shard so far.
    pub fn total(&self) -> f64 {
        self.table.total()
    }

    /// Adds one record at a multi-index.
    #[inline]
    pub fn record(&mut self, idx: &[usize]) {
        self.table.increment(idx);
    }

    /// Adds `weight` at a multi-index (weighted records).
    #[inline]
    pub fn add(&mut self, idx: &[usize], weight: f64) {
        self.table.add(idx, weight);
    }

    /// Bulk-tallies a column-major batch of coded records (one code slice
    /// per axis), for sources whose codes are in-range by construction,
    /// as `u32`s or as one-byte codes kept as bytes; see
    /// [`ContingencyTable::tally_codes_trusted`] for the contract.
    pub fn record_codes_trusted<C: Code>(&mut self, columns: &[&[C]]) -> Result<()> {
        self.table.tally_codes_trusted(columns)
    }

    /// Merges another shard into this one (cell-wise addition). The two
    /// shards must share identical axes; errors otherwise.
    ///
    /// This operation is commutative and associative, and
    /// [`PartialCounts::zeros`] is its identity — together they form the
    /// commutative monoid that makes shard-count and merge-order
    /// irrelevant to the final table.
    pub fn merge(&mut self, other: &PartialCounts) -> Result<()> {
        self.table.merge_from(&other.table)
    }

    /// Subtracts another shard from this one — the exact inverse of
    /// [`PartialCounts::merge`] on integer tallies, turning the merge
    /// monoid into a cancellative one.
    ///
    /// The shards must share identical axes, and every cell of `other`
    /// must be at most the matching cell of `self`; a subtraction that
    /// would drive any cell negative errors *before* modifying anything
    /// (counts can only be un-tallied if they were tallied in). This is
    /// the eviction operator behind df-core's sliding-window monitor: a
    /// window is a sum of bucket shards, and expiring a bucket is exactly
    /// `window.subtract(&bucket)`.
    pub fn subtract(&mut self, other: &PartialCounts) -> Result<()> {
        self.table.subtract_from(&other.table)
    }

    /// Resets the shard to the monoid identity (all cells zero), keeping
    /// its axes — reusing one scratch shard beats re-allocating axes for
    /// every incoming batch on streaming hot paths.
    pub fn clear(&mut self) {
        self.table.clear();
    }

    /// Consumes the shard, yielding the accumulated table.
    pub fn into_table(self) -> ContingencyTable {
        self.table
    }

    /// Borrows the accumulated table.
    pub fn table(&self) -> &ContingencyTable {
        &self.table
    }
}

/// A batch of records that can tally itself into a shard.
///
/// Implementations live next to their record representation (e.g. df-data's
/// frame and CSV chunks); the streaming engine in df-core only needs this
/// trait plus `Send` to fan chunks out across worker threads.
pub trait Tally {
    /// Tallies every record of this chunk into `shard`. The shard's axes
    /// define the expected arity/vocabulary; implementations must error
    /// (not panic) on mismatch.
    fn tally_into(&self, shard: &mut PartialCounts) -> Result<()>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ProbError;

    fn axes() -> Vec<Axis> {
        vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ]
    }

    #[test]
    fn zeros_is_the_identity() {
        let mut a = PartialCounts::zeros(axes()).unwrap();
        a.record(&[0, 1]);
        a.add(&[1, 0], 2.5);
        let before = a.clone();
        let zero = PartialCounts::zeros(axes()).unwrap();
        a.merge(&zero).unwrap();
        assert_eq!(a, before);
        let mut z = PartialCounts::zeros(axes()).unwrap();
        z.merge(&before).unwrap();
        assert_eq!(z, before);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let mut a = PartialCounts::zeros(axes()).unwrap();
        let mut b = PartialCounts::zeros(axes()).unwrap();
        let mut c = PartialCounts::zeros(axes()).unwrap();
        a.record(&[0, 0]);
        a.record(&[1, 1]);
        b.record(&[1, 0]);
        b.record(&[1, 1]);
        c.record(&[0, 1]);

        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        assert_eq!(ab, ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&c).unwrap();
        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut a_bc = a.clone();
        a_bc.merge(&bc).unwrap();
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c.total(), 5.0);
    }

    #[test]
    fn merge_rejects_mismatched_axes() {
        let mut a = PartialCounts::zeros(axes()).unwrap();
        let other = PartialCounts::zeros(vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b", "c"]).unwrap(),
        ])
        .unwrap();
        assert!(matches!(
            a.merge(&other),
            Err(ProbError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn subtract_inverts_merge_exactly() {
        let mut window = PartialCounts::zeros(axes()).unwrap();
        window.record(&[0, 0]);
        window.record(&[1, 1]);
        let reference = window.clone();
        let mut bucket = PartialCounts::zeros(axes()).unwrap();
        bucket.record(&[0, 1]);
        bucket.record(&[1, 1]);
        window.merge(&bucket).unwrap();
        window.subtract(&bucket).unwrap();
        assert_eq!(window, reference);
        // Evicting a bucket that was never merged in is refused (cell
        // would go negative) and leaves the window untouched.
        let mut alien = PartialCounts::zeros(axes()).unwrap();
        alien.record(&[0, 1]);
        assert!(matches!(
            window.subtract(&alien),
            Err(ProbError::InvalidParameter { .. })
        ));
        assert_eq!(window, reference);
    }
}
