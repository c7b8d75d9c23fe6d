//! Fleet ingest telemetry: per-shard traffic accounting, queue depths,
//! staleness, and consistent-cut latency.
//!
//! All of it rides `df-obs` atomics, so a push pays a few relaxed atomic
//! ops and the serving layer reads live values at scrape time without
//! touching the shard locks. Two different notions of time coexist
//! here, deliberately:
//!
//! - **Data time** (caller-supplied `at` seconds, the same timestamps
//!   the windows run on): [`ShardTelemetry::last_seen`] tracks the
//!   newest `at` each shard has *tallied*, and
//!   [`FleetTelemetry::max_lag_seconds`] derives the worst shard's
//!   staleness against the fleet-wide maximum — a dead replica shows up
//!   as monotonically growing lag, a signal instead of a blind spot.
//!   Cut clock alignment does **not** touch `last_seen`: it advances
//!   monitor windows, but only real pushes count as "heard from".
//! - **Wall time** ([`FleetTelemetry::snapshot_cut_seconds`], plus the
//!   push-latency histogram on the shared [`MonitorTelemetry`]): measured
//!   by the ingest layer through its single audited clock seam, never
//!   fed back into any window or ε.
//!
//! Queue depth is the number of pushes waiting for or holding a shard's
//! lock: `enqueued` counts a push before it takes the lock, `processed`
//! after it returns. The two reads are racy by a push or two, which is
//! fine for a gauge.

use crate::monitor::MonitorTelemetry;
use df_obs::{Counter, Gauge, Histogram};

/// Telemetry for one ingest shard. `Clone` shares cells.
#[derive(Clone, Debug, Default)]
pub struct ShardTelemetry {
    /// Records ingested by this shard's monitor.
    pub rows: Counter,
    /// Chunks tallied.
    pub chunks: Counter,
    /// Pushes started (counted before the shard lock is taken).
    pub enqueued: Counter,
    /// Pushes returned, accepted or refused.
    pub processed: Counter,
    /// Newest data timestamp (`at` seconds) this shard has tallied;
    /// unset (`NaN`) until the first accepted push.
    pub last_seen: Gauge,
}

impl ShardTelemetry {
    /// Pushes waiting for or holding the shard lock (racy by design;
    /// clamped at zero when the reads interleave).
    pub fn queue_depth(&self) -> u64 {
        self.enqueued.get().saturating_sub(self.processed.get())
    }
}

/// Fleet-wide telemetry: one [`ShardTelemetry`] per shard plus the
/// cut-latency histogram and the shared monitor bundle.
#[derive(Debug)]
pub struct FleetTelemetry {
    shards: Vec<ShardTelemetry>,
    /// Wall-clock duration of consistent cuts (lock sweep + alignment +
    /// merge), in seconds.
    pub snapshot_cut_seconds: Histogram,
    /// Consistent cuts completed successfully.
    pub snapshots: Counter,
    /// The bundle shared by every shard monitor: alerts/alarms/evictions
    /// aggregate fleet-wide because all shards hold the same cells.
    pub monitor: MonitorTelemetry,
}

impl FleetTelemetry {
    /// A fresh bundle for a fleet of `shards` shards (all zeros/unset).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| ShardTelemetry::default()).collect(),
            snapshot_cut_seconds: Histogram::default_latency(),
            snapshots: Counter::new(),
            monitor: MonitorTelemetry::new(),
        }
    }

    /// Per-shard telemetry, indexed by shard id.
    pub fn shard(&self, shard: usize) -> &ShardTelemetry {
        &self.shards[shard]
    }

    /// All per-shard telemetry, in shard order.
    pub fn shards(&self) -> &[ShardTelemetry] {
        &self.shards
    }

    /// Total rows ingested across all shards.
    pub fn rows_total(&self) -> u64 {
        self.shards.iter().map(|s| s.rows.get()).sum()
    }

    /// Pushes waiting for or holding a shard lock, across all shards.
    pub fn queue_depth_total(&self) -> u64 {
        self.shards.iter().map(|s| s.queue_depth()).sum()
    }

    /// The newest data timestamp any shard has tallied (`None` until
    /// some shard hears real traffic).
    pub fn fleet_last_seen(&self) -> Option<f64> {
        self.shards
            .iter()
            .filter_map(|s| s.last_seen.get_finite())
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }

    /// Worst staleness across reporting shards, in data-time seconds:
    /// `max_shard(fleet_last_seen − shard_last_seen)`. Shards that have
    /// never reported are excluded (their `last_seen` gauge scrapes as
    /// unset, which liveness probes see directly); 0.0 while fewer than
    /// two shards have reported.
    pub fn max_lag_seconds(&self) -> f64 {
        let Some(newest) = self.fleet_last_seen() else {
            return 0.0;
        };
        self.shards
            .iter()
            .filter_map(|s| s.last_seen.get_finite())
            .map(|t| newest - t)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_depth_is_enqueued_minus_processed() {
        let t = ShardTelemetry::default();
        t.enqueued.add(5);
        t.processed.add(3);
        assert_eq!(t.queue_depth(), 2);
        // Racy interleavings clamp at zero instead of wrapping.
        t.processed.add(10);
        assert_eq!(t.queue_depth(), 0);
    }

    #[test]
    fn max_lag_is_derived_from_reporting_shards_only() {
        let fleet = FleetTelemetry::new(3);
        // Nobody has reported: no lag, no fleet clock.
        assert_eq!(fleet.fleet_last_seen(), None);
        assert!(fleet.max_lag_seconds().abs() < 1e-12);
        fleet.shard(0).last_seen.set(10.0);
        // One reporting shard: it is the fleet clock, lag 0.
        assert_eq!(fleet.fleet_last_seen(), Some(10.0));
        assert!(fleet.max_lag_seconds().abs() < 1e-12);
        fleet.shard(1).last_seen.set(4.0);
        // Shard 2 still silent: excluded; lag is 10 − 4.
        assert!((fleet.max_lag_seconds() - 6.0).abs() < 1e-12);
    }
}
