//! Fleet aggregation: turning per-replica monitors into one global ε.
//!
//! The ε-DF audit is a function of joint counts, and PR 2–4 made those
//! counts a commutative monoid — mergeable, subtractable, snapshot-able.
//! This module is where that algebra pays off at fleet scale: a serving
//! fleet runs one [`crate::monitor::FairnessMonitor`] per replica, and
//! the *fleet-wide* ε — the worst-case-over-groups measure of Foulds et
//! al. (ICDE 2020), computed over the **union** of traffic rather than
//! per silo — falls out of three layers:
//!
//! - [`codec`]: a compact, versioned binary encoding for
//!   [`crate::monitor::MonitorSnapshot`] with schema interning — a
//!   replica ships its axis vocabularies once, then every tick is a
//!   small delta frame. JSON stays for dashboards; this is for
//!   1 000 replicas × 1 Hz.
//! - [`merge_many`]: folds any number of snapshots with in-place cell
//!   accumulation and one derivation of the statistics at the end,
//!   byte-identical to the sequential pairwise
//!   [`crate::monitor::MonitorSnapshot::merge`] fold.
//! - [`ingest`]: [`FleetIngest`] — a concurrent front-end of N
//!   per-shard monitors, each behind its own lock: a push locks one
//!   shard and tallies before it returns, and [`FleetIngest::snapshot`]
//!   locks every shard, clock-aligns and copies each shard's counts in
//!   one round, then folds them — with any replica snapshots after
//!   them — into one derivation. Built from the fluent chain:
//!   `Audit::monitor(..).window_seconds(T).fleet(n)`.
//!
//! Why the union matters: Ghosh et al. (2021) show per-silo fairness
//! certificates do not compose — each replica can look fair on its own
//! slice while the fleet as a whole discriminates (the streaming twin of
//! fairness gerrymandering). The merged snapshot *is* the audit of the
//! concatenated traffic, proven byte-identical in `fleet_equivalence`.

pub mod codec;
pub mod ingest;
pub mod telemetry;

pub use crate::monitor::snapshot::merge_many;
pub use codec::{decode_snapshot, encode_snapshot, SnapshotDecoder, SnapshotEncoder};
pub use ingest::FleetIngest;
pub use telemetry::{FleetTelemetry, ShardTelemetry};
