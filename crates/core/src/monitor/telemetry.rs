//! Clock-free monitor telemetry: what a [`super::FairnessMonitor`]
//! counts about itself.
//!
//! `df-core` is forbidden from reading wall clocks (df-lint's
//! `no-wall-clock` rule), so this bundle contains only two kinds of
//! signal:
//!
//! - **event counters** the monitor bumps itself — alerts and
//!   change-point alarms fired, window buckets evicted. These are pure
//!   functions of the ingested stream, so replaying a recorded stream
//!   reproduces them exactly.
//! - **caller-measured durations** — [`MonitorTelemetry::push_seconds`]
//!   is observed by whoever *drives* the monitor and owns a clock
//!   ([`crate::fleet::FleetIngest::push`] times `push_at` through its
//!   audited clock seam; a standalone embedder times it however it
//!   likes). The monitor itself never samples time.
//!
//! Handles are `Arc`-backed clones: the fleet front-end injects **one
//! shared bundle** into every shard monitor
//! ([`super::MonitorBuilder::telemetry`]), so per-shard events aggregate
//! into fleet-wide totals without any merge step, and a server scrape
//! reads live values straight off the atomics.

use df_obs::{Counter, Histogram};

/// Shared telemetry handles for one monitor (or one fleet of monitors —
/// clones share cells).
#[derive(Clone, Debug)]
pub struct MonitorTelemetry {
    /// Alerts appended to the alert log (`AlertRule` threshold
    /// breaches, after hysteresis).
    pub alerts_fired: Counter,
    /// Change-point alarms raised across all detectors.
    pub alarms_fired: Counter,
    /// Window buckets evicted through the exact subtract path (both
    /// record-count and wall-clock rings).
    pub evicted_buckets: Counter,
    /// Durations of `push`/`push_at` calls, in seconds, observed by the
    /// caller that owns a clock.
    pub push_seconds: Histogram,
}

impl Default for MonitorTelemetry {
    fn default() -> Self {
        Self {
            alerts_fired: Counter::new(),
            alarms_fired: Counter::new(),
            evicted_buckets: Counter::new(),
            push_seconds: Histogram::default_latency(),
        }
    }
}

impl MonitorTelemetry {
    /// A fresh bundle (all counters zero, empty histogram).
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_cells() {
        let a = MonitorTelemetry::new();
        let b = a.clone();
        a.alerts_fired.inc();
        b.alerts_fired.add(2);
        assert_eq!(a.alerts_fired.get(), 3);
        b.push_seconds.observe(0.001);
        assert_eq!(a.push_seconds.count(), 1);
    }
}
