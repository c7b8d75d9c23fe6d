//! The window ring: sealed count buckets in key order, their running sum,
//! and exact eviction, for both window spans.
//!
//! A bucket is the raw cell data of the chunks that share its **key**.
//! Over a [`Span::Records`] window the key is the push ordinal, so every
//! chunk is its own bucket, and the oldest buckets leave while the ring
//! holds more than W records. Over a [`Span::Seconds`] window the key is
//! `⌊t / b⌋` for the caller-supplied timestamp `t` and bucket width `b`.
//! With `now` = the largest timestamp seen and `n = ⌈T / b⌉`, the window
//! holds exactly the buckets with key `> ⌊now / b⌋ − n`: "the last T
//! seconds" resolved at bucket granularity.
//!
//! Timestamps are **caller-supplied** (seconds; epoch or any monotonic
//! clock). Core never reads `Instant::now()`, so a wall-clock monitor is
//! fully replayable: feeding the same `(chunk, timestamp)` sequence
//! reproduces every ε and every alarm byte for byte. Arrivals may be out
//! of order: a chunk whose bucket is still inside the window folds into
//! that bucket wherever it sits in the ring; only a timestamp older than
//! the whole window is refused (absorbing it would silently violate the
//! window contract).
//!
//! Both spans share one insert (fold into the bucket with an equal key,
//! or insert in key order) and one eviction loop, which removes expired
//! buckets through the exact `subtract` path. The window counts therefore
//! stay byte-identical to a fresh tally of the in-window records, all the
//! way down to the empty window when time advances with no arrivals. A
//! chunk of zero records stores no bucket; on a wall-clock window it still
//! advances the clock.

use crate::error::{DfError, Result};
use df_prob::contingency::{add_cells, Axis, ContingencyTable};
use std::collections::VecDeque;

/// Largest accepted timestamp, in seconds. Generous for epoch seconds
/// (~31 million years) while keeping `⌊t / b⌋` safely inside `i64` for
/// every legal bucket width: the builder floors `bucket_seconds` at
/// 1 ms, so `t / b ≤ 1e15 / 1e-3 = 1e18 < i64::MAX` and the float→int
/// cast can never saturate.
const MAX_TIMESTAMP_SECONDS: f64 = 1e15;

/// Refuses a timestamp no wall-clock window accepts: non-finite, negative,
/// or above 10¹⁵ seconds. The one definition of the range, for callers
/// that must check before they commit to a timestamp.
pub fn validate_timestamp(ts: f64) -> Result<()> {
    if !ts.is_finite() || !(0.0..=MAX_TIMESTAMP_SECONDS).contains(&ts) {
        return Err(DfError::Invalid(format!(
            "monitor timestamps must be finite seconds in [0, {MAX_TIMESTAMP_SECONDS:e}], got {ts}"
        )));
    }
    Ok(())
}

/// The key of the wall-clock bucket timestamp `ts` lands in: `⌊t / b⌋`.
fn bucket_key(ts: f64, bucket_seconds: f64) -> i64 {
    (ts / bucket_seconds).floor() as i64
}

/// How far back a window reaches.
#[derive(Clone, Copy)]
pub(super) enum Span {
    /// The last W records, fed by `push`.
    Records(usize),
    /// The last `n_buckets` buckets of `bucket_seconds` each, fed by
    /// `push_at` and `advance_to`.
    Seconds {
        /// Bucket width `b` in seconds.
        bucket_seconds: f64,
        /// Window span in buckets: `⌈window_seconds / bucket_seconds⌉`.
        n_buckets: i64,
    },
}

/// One sealed bucket: its key, raw cell data and row count.
struct Bucket {
    key: i64,
    cells: Vec<f64>,
    rows: usize,
}

/// The bucket ring of one window; see the module docs.
pub(super) struct Window {
    span: Span,
    /// Running sum of the ring — the window's joint counts.
    table: ContingencyTable,
    /// In-window buckets, ascending key; empty buckets are not stored.
    ring: VecDeque<Bucket>,
    rows: usize,
    /// Pushes so far: the next record-window key.
    pushes: i64,
    /// Largest timestamp seen so far (wall-clock windows only).
    now: Option<f64>,
    /// Cumulative count of buckets evicted over the ring's lifetime
    /// (telemetry; never decremented).
    evicted: u64,
}

impl Window {
    pub(super) fn new(axes: Vec<Axis>, span: Span) -> Result<Self> {
        Ok(Self {
            span,
            table: ContingencyTable::zeros(axes)?,
            ring: VecDeque::new(),
            rows: 0,
            pushes: 0,
            now: None,
            evicted: 0,
        })
    }

    pub(super) fn evicted_buckets(&self) -> u64 {
        self.evicted
    }

    pub(super) fn now(&self) -> Option<f64> {
        self.now
    }

    pub(super) fn rows(&self) -> usize {
        self.rows
    }

    pub(super) fn table(&self) -> &ContingencyTable {
        &self.table
    }

    /// Adds one sealed chunk of `rows` records: at the next push ordinal
    /// for a record window (`at` = `None`), or in the bucket of timestamp
    /// `at` for a wall-clock window. Then evicts, exactly.
    pub(super) fn push(
        &mut self,
        chunk: &ContingencyTable,
        rows: usize,
        at: Option<f64>,
    ) -> Result<()> {
        let key = match (self.span, at) {
            (Span::Records(capacity), None) => {
                if rows > capacity {
                    return Err(DfError::Invalid(format!(
                        "chunk of {rows} records exceeds the {capacity}-record window"
                    )));
                }
                self.pushes += 1;
                self.pushes
            }
            (Span::Seconds { bucket_seconds, .. }, Some(ts)) => {
                validate_timestamp(ts)?;
                let key = bucket_key(ts, bucket_seconds);
                if let Some(horizon) = self.horizon() {
                    if key <= horizon {
                        return Err(DfError::Invalid(format!(
                            "timestamp {ts} lands in bucket {key}, which already left the \
                             window (in-window buckets start at {})",
                            horizon + 1
                        )));
                    }
                }
                key
            }
            (Span::Seconds { .. }, None) => {
                return Err(DfError::Invalid(
                    "this monitor windows by wall-clock time; push chunks with \
                     push_at(chunk, timestamp)"
                        .into(),
                ));
            }
            (Span::Records(_), Some(_)) => {
                return Err(DfError::Invalid(
                    "this monitor windows by record count; push chunks with push(chunk), \
                     or configure window_seconds for wall-clock windowing"
                        .into(),
                ));
            }
        };
        if rows > 0 {
            self.table.merge_from(chunk)?;
            self.rows += rows;
            let pos = self.ring.partition_point(|b| b.key < key);
            match self.ring.get_mut(pos) {
                Some(b) if b.key == key => {
                    add_cells(&mut b.cells, chunk.data())?;
                    b.rows += rows;
                }
                _ => self.ring.insert(
                    pos,
                    Bucket {
                        key,
                        cells: chunk.data().to_vec(),
                        rows,
                    },
                ),
            }
        }
        match at {
            Some(ts) => self.advance_to(ts),
            None => self.evict(),
        }
    }

    /// Advances a wall-clock window's clock to `ts` (no-op when `ts` is not
    /// ahead of `now` — `now` is the max over everything seen) and evicts
    /// every bucket that fell out of the window.
    pub(super) fn advance_to(&mut self, ts: f64) -> Result<()> {
        if let Span::Records(_) = self.span {
            return Err(DfError::Invalid(
                "advance_to is only meaningful for wall-clock windows \
                 (configure window_seconds)"
                    .into(),
            ));
        }
        validate_timestamp(ts)?;
        if self.now.is_none_or(|now| ts > now) {
            self.now = Some(ts);
        }
        self.evict()
    }

    /// The newest bucket key already expired on a wall-clock window:
    /// in-window buckets are exactly those with `key > horizon`.
    fn horizon(&self) -> Option<i64> {
        match self.span {
            Span::Records(_) => None,
            Span::Seconds {
                bucket_seconds,
                n_buckets,
            } => self
                .now
                .map(|t| bucket_key(t, bucket_seconds).saturating_sub(n_buckets)),
        }
    }

    /// Evicts the oldest buckets, through the exact subtract path, while
    /// the window holds more than W records or they lie behind the horizon.
    fn evict(&mut self) -> Result<()> {
        let horizon = self.horizon();
        while let Some(oldest) = self.ring.front() {
            let expired = match self.span {
                Span::Records(capacity) => self.rows > capacity,
                Span::Seconds { .. } => horizon.is_some_and(|h| oldest.key <= h),
            };
            if !expired {
                break;
            }
            self.table.subtract_data(&oldest.cells)?;
            self.rows -= oldest.rows;
            self.evicted += 1;
            self.ring.pop_front();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::tests::axes;

    fn bucket(cells: [f64; 4]) -> ContingencyTable {
        ContingencyTable::from_data(axes(), cells.to_vec()).unwrap()
    }

    fn seconds(window_seconds: f64, bucket_seconds: f64) -> Window {
        let n_buckets = (window_seconds / bucket_seconds).ceil() as i64;
        Window::new(
            axes(),
            Span::Seconds {
                bucket_seconds,
                n_buckets,
            },
        )
        .unwrap()
    }

    #[test]
    fn buckets_merge_out_of_order_and_evict_in_order() {
        // T = 10 s, b = 2 s → 5 buckets in the window.
        let mut ring = seconds(10.0, 2.0);
        ring.push(&bucket([1.0, 0.0, 0.0, 0.0]), 1, Some(4.0))
            .unwrap();
        ring.push(&bucket([0.0, 1.0, 0.0, 0.0]), 1, Some(9.0))
            .unwrap();
        // Out of order, but bucket ⌊5/2⌋ = 2 is still in-window: merges.
        ring.push(&bucket([0.0, 0.0, 1.0, 0.0]), 1, Some(5.0))
            .unwrap();
        assert_eq!(ring.rows(), 3);
        assert_eq!(ring.table().data(), &[1.0, 1.0, 1.0, 0.0]);
        // Advance far enough to expire buckets 2 (ts 4, 5) but not 4 (ts 9):
        // now = 15 → horizon = ⌊15/2⌋ − 5 = 2.
        ring.advance_to(15.0).unwrap();
        assert_eq!(ring.rows(), 1);
        assert_eq!(ring.table().data(), &[0.0, 1.0, 0.0, 0.0]);
        // A timestamp in an evicted bucket is refused.
        let err = ring.push(&bucket([1.0, 0.0, 0.0, 0.0]), 1, Some(4.5));
        assert!(err.is_err());
        // Advancing with zero arrivals drains to the empty window.
        ring.advance_to(100.0).unwrap();
        assert_eq!(ring.rows(), 0);
        assert!(ring.table().data().iter().all(|&v| v == 0.0));
        // The clock never runs backwards.
        ring.advance_to(50.0).unwrap();
        assert_eq!(ring.now(), Some(100.0));
    }

    #[test]
    fn timestamps_are_validated() {
        let mut ring = seconds(10.0, 2.0);
        for bad in [f64::NAN, f64::INFINITY, -1.0, 2e15] {
            assert!(ring.advance_to(bad).is_err(), "accepted {bad}");
        }
    }
}
