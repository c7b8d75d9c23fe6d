//! Lock-free scalar metrics: monotonic [`Counter`]s and last-write
//! [`Gauge`]s.
//!
//! Handles are `Arc`-backed and `Clone`: the hot path clones a handle
//! once at startup and then bumps it with a single relaxed atomic op —
//! no locks, no allocation, no branches. Relaxed ordering is
//! deliberate: telemetry values are statistical summaries read at
//! scrape time, not synchronization edges; the scrape may be a few
//! increments stale but every increment lands exactly once (the
//! concurrency property suite pins this).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing `u64` counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. A single `fetch_add`, so concurrent callers never lose
    /// increments.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Whether two handles share the same underlying cell — used by the
    /// registry to make re-registration of the *same* series idempotent
    /// while still refusing a conflicting one.
    pub(crate) fn same_cell(&self, other: &Counter) -> bool {
        Arc::ptr_eq(&self.value, &other.value)
    }
}

/// A last-write-wins `f64` gauge, stored as IEEE bits in an `AtomicU64`.
///
/// Gauges start **unset** (`NaN`): a scrape can distinguish "this shard
/// has never reported" from "this shard reported 0.0". Use
/// [`Gauge::get_finite`] when the distinction matters.
#[derive(Clone, Debug)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            bits: Arc::new(AtomicU64::new(f64::NAN.to_bits())),
        }
    }
}

impl Gauge {
    /// An unset gauge (`get()` reads `NaN` until the first `set`).
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// `Some(value)` once set, `None` while still `NaN`.
    pub fn get_finite(&self) -> Option<f64> {
        let v = self.get();
        v.is_finite().then_some(v)
    }

    pub(crate) fn same_cell(&self, other: &Gauge) -> bool {
        Arc::ptr_eq(&self.bits, &other.bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        // Clones share the cell.
        let c2 = c.clone();
        c2.inc();
        assert_eq!(c.get(), 43);
        assert!(c.same_cell(&c2));
        assert!(!c.same_cell(&Counter::new()));
    }

    #[test]
    fn gauge_starts_unset_then_tracks_last_write() {
        let g = Gauge::new();
        assert!(g.get().is_nan());
        assert_eq!(g.get_finite(), None);
        g.set(2.5);
        assert_eq!(g.get_finite(), Some(2.5));
        g.set(-1.0);
        assert_eq!(g.get_finite(), Some(-1.0));
    }

    #[test]
    fn concurrent_increments_all_land() {
        let c = Counter::new();
        let threads = 8u64;
        let per_thread = 10_000u64;
        thread::scope(|s| {
            for _ in 0..threads {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
    }
}
