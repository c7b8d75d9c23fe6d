//! The sharded streaming engine: joint counts from chunked record sources.
//!
//! The ε kernel only ever needs the joint counts `N[y, s₁, …, s_p]`
//! (Eq. 6/7, Definition 3.1), and counts form a commutative monoid under
//! cell-wise addition (`df_prob::partial`). That makes the audit hot path
//! embarrassingly parallel: partition the records into chunks, hand the
//! chunks to `N` worker threads each owning a private
//! [`PartialCounts`] shard, and merge the shards at the end. Merge order is
//! irrelevant and integer counts are exact in `f64`, so **any** shard count
//! produces the bit-identical table — and therefore the byte-identical
//! [`crate::builder::AuditReport`] — as the single-threaded batch path.
//!
//! [`sharded_joint_counts`] is the engine; [`crate::builder::Audit::of_stream`]
//! is the fluent entry point layered on top. Chunk *types* live next to
//! their record representations (df-data provides frame and CSV chunks);
//! this module only requires [`Tally`]` + Send`.

use crate::edf::JointCounts;
use crate::error::{DfError, Result};
use df_prob::contingency::{Axis, ContingencyTable};
use df_prob::partial::{PartialCounts, Tally};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Tallies a stream of record chunks into joint counts, fanning the chunks
/// out to `threads` worker shards.
///
/// * `axes` — the full table schema: the outcome axis plus one axis per
///   protected attribute, in storage order. Chunks must tally records in
///   this axis order.
/// * `outcome_axis` — the name of the outcome axis within `axes`.
/// * `chunks` — any iterator of fallible chunks. Chunk errors abort the
///   tally and propagate (workers drain promptly once an error is seen).
/// * `threads` — shard count; `1` runs inline with no thread overhead.
///
/// Work distribution is dynamic (workers pull chunks from the shared
/// iterator as they finish), so stragglers don't idle the pool; the result
/// is nevertheless deterministic because the merged table is
/// order-invariant.
pub fn sharded_joint_counts<C, E, I>(
    axes: Vec<Axis>,
    outcome_axis: &str,
    chunks: I,
    threads: usize,
) -> Result<JointCounts>
where
    C: Tally + Send,
    E: Send,
    DfError: From<E>,
    I: IntoIterator<Item = std::result::Result<C, E>>,
    I::IntoIter: Send,
{
    if threads == 0 {
        return Err(DfError::Invalid("need at least one shard thread".into()));
    }
    let table = if threads == 1 {
        // Inline fast path: one shard, no synchronization.
        let mut shard = PartialCounts::zeros(axes)?;
        for chunk in chunks {
            chunk.map_err(DfError::from)?.tally_into(&mut shard)?;
        }
        shard.into_table()
    } else {
        let source = Mutex::new(chunks.into_iter());
        // Raised on the first error so the other workers stop pulling
        // chunks instead of tallying the rest of the stream for nothing.
        let failed = AtomicBool::new(false);
        let shards: Vec<Result<PartialCounts>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| -> Result<PartialCounts> {
                        let mut shard = PartialCounts::zeros(axes.clone())?;
                        loop {
                            if failed.load(Ordering::Relaxed) {
                                return Ok(shard);
                            }
                            // Hold the lock only while pulling the next
                            // chunk; tallying runs unlocked.
                            let next = source.lock().expect("chunk source poisoned").next();
                            match next {
                                None => return Ok(shard),
                                Some(Err(e)) => {
                                    failed.store(true, Ordering::Relaxed);
                                    return Err(DfError::from(e));
                                }
                                Some(Ok(chunk)) => {
                                    if let Err(e) = chunk.tally_into(&mut shard) {
                                        failed.store(true, Ordering::Relaxed);
                                        return Err(e.into());
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let mut merged: Option<PartialCounts> = None;
        let mut first_err: Option<DfError> = None;
        for shard in shards {
            match (shard, &mut merged) {
                (Ok(s), None) => merged = Some(s),
                (Ok(s), Some(m)) => m.merge(&s)?,
                (Err(e), _) => {
                    first_err.get_or_insert(e);
                }
            };
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        ContingencyTable::from_partials(merged.map(|m| vec![m]).unwrap_or_default())?
    };
    JointCounts::from_table(table, outcome_axis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::tests::axes;
    use df_prob::ProbError;

    /// A test chunk: a list of (outcome, group) index pairs.
    struct PairChunk(Vec<(usize, usize)>);

    impl Tally for PairChunk {
        fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
            for &(y, g) in &self.0 {
                shard.record(&[y, g]);
            }
            Ok(())
        }
    }

    fn chunks_of(pairs: &[(usize, usize)], chunk_size: usize) -> Vec<Result<PairChunk>> {
        pairs
            .chunks(chunk_size)
            .map(|c| Ok(PairChunk(c.to_vec())))
            .collect()
    }

    fn sample_pairs() -> Vec<(usize, usize)> {
        let mut rng = df_prob::rng::Pcg32::new(99);
        (0..503)
            .map(|_| (rng.next_below(2) as usize, rng.next_below(2) as usize))
            .collect()
    }

    #[test]
    fn shard_count_does_not_change_the_table() {
        let pairs = sample_pairs();
        let reference = sharded_joint_counts(axes(), "y", chunks_of(&pairs, 17), 1).unwrap();
        for threads in [2, 3, 4, 8] {
            for chunk_size in [1, 7, 64, 1000] {
                let jc = sharded_joint_counts(axes(), "y", chunks_of(&pairs, chunk_size), threads)
                    .unwrap();
                assert_eq!(jc, reference, "threads={threads} chunk={chunk_size}");
            }
        }
        assert_eq!(reference.total(), 503.0);
    }

    #[test]
    fn chunk_errors_propagate() {
        let mut chunks: Vec<std::result::Result<PairChunk, ProbError>> =
            vec![Ok(PairChunk(vec![(0, 0)]))];
        chunks.push(Err(ProbError::EmptyTable("simulated")));
        chunks.push(Ok(PairChunk(vec![(1, 1)])));
        for threads in [1, 4] {
            let err = sharded_joint_counts(axes(), "y", chunks.clone(), threads);
            assert!(err.is_err(), "threads={threads}");
        }
    }

    #[test]
    fn tally_errors_propagate() {
        struct BadChunk;
        impl Tally for BadChunk {
            fn tally_into(&self, _: &mut PartialCounts) -> df_prob::Result<()> {
                Err(ProbError::EmptyTable("bad chunk"))
            }
        }
        let chunks: Vec<Result<BadChunk>> = vec![Ok(BadChunk)];
        assert!(sharded_joint_counts(axes(), "y", chunks, 2).is_err());
    }

    #[test]
    fn empty_stream_yields_zero_counts() {
        let chunks: Vec<Result<PairChunk>> = Vec::new();
        let jc = sharded_joint_counts(axes(), "y", chunks, 4).unwrap();
        assert_eq!(jc.total(), 0.0);
    }

    #[test]
    fn validates_configuration() {
        let chunks: Vec<Result<PairChunk>> = Vec::new();
        assert!(sharded_joint_counts(axes(), "y", chunks, 0).is_err());
        let chunks: Vec<Result<PairChunk>> = Vec::new();
        assert!(sharded_joint_counts(axes(), "nope", chunks, 1).is_err());
    }

    impl Clone for PairChunk {
        fn clone(&self) -> Self {
            PairChunk(self.0.clone())
        }
    }
}
