//! Concurrent ingestion: N shards, each one locked monitor, one merged
//! fleet ε.
//!
//! [`FleetIngest`] holds one `Mutex<FairnessMonitor>` per shard, the same
//! sharding as [`crate::stream::sharded_joint_counts`]: producers on
//! different shards share no lock, and producers on one shard take turns.
//! [`FleetIngest::push`] locks its shard and tallies before it returns,
//! so an `Ok` means "counted", a stalled shard blocks its own producers
//! instead of buffering behind them, and a chunk or timestamp the monitor
//! refuses fails its own push and leaves the shard as it was (the monitor
//! validates before it mutates).
//!
//! A cut ([`FleetIngest::snapshot`]) locks every shard in index order — a
//! push holds one lock at a time, so no two callers can deadlock —
//! advances each lagging shard clock once to the fleet-wide maximum (so
//! every window evicts against the same horizon), copies each shard's
//! mergeable state (counts, clock, totals, logs, detector states) and
//! releases the locks. It then folds the copies, and any replica
//! snapshots the caller hands it after them, and derives the statistics
//! once, at the root: no shard computes an ε that the merge would throw
//! away, and none is computed under a shard lock. Everything pushed
//! before the cut is in it, and one round is always aligned: no push can
//! land between the clock read and the copies.
//!
//! Because each shard feeds its monitor in its own timestamp order and
//! snapshot merging is the counts monoid, the merged fleet snapshot is
//! **byte-identical** to one monitor ingesting the concatenated stream
//! in timestamp order — the union-of-traffic ε that per-silo monitoring
//! cannot see (Ghosh et al. 2021 call the gap *fairness
//! gerrymandering across silos*). The `fleet_equivalence` suite pins
//! exactly that, JSON byte for byte. Per-shard alert rules and
//! change-point detectors still run (each shard witnesses its own
//! traffic slice); configure none when bit-exact global-vs-local parity
//! of the *full* snapshot, logs included, is required.
//!
//! Entry point: [`crate::monitor::MonitorBuilder::fleet`] —
//! `Audit::monitor(..).window_seconds(T).bucket_seconds(b).fleet(n)`.

use crate::builder::EpsilonEstimator;
use crate::edf::GroupLayout;
use crate::error::{DfError, Result};
use crate::fleet::telemetry::FleetTelemetry;
use crate::metric::metric_from_tag;
use crate::monitor::snapshot::fold;
use crate::monitor::{FairnessMonitor, MonitorBuilder, MonitorSnapshot};
use df_prob::partial::Tally;
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};

/// How long a bounded cut sleeps between `try_lock` attempts on a busy
/// shard.
const LOCK_RETRY: Duration = Duration::from_micros(50);

/// The one place this module — and all of `df-core` — reads the wall
/// clock. Everything fairness-related is driven by caller-supplied `f64`
/// timestamps (replay determinism: same stream, same ε, every run); the
/// wall clock exists solely for two operational concerns that are not
/// part of the fairness computation: the deadline of
/// [`FleetIngest::try_snapshot_timeout`]'s lock wait, and telemetry
/// durations (push latency, cut latency — see [`FleetTelemetry`]).
fn wall_clock_now() -> Instant {
    // df-lint: allow(no-wall-clock) -- lock-wait deadline and telemetry durations only; never feeds timestamps, windows, or epsilon
    Instant::now()
}

/// The concurrent sharded front-end; see the [module docs](self). Built
/// by [`MonitorBuilder::fleet`].
pub struct FleetIngest {
    shards: Vec<Mutex<FairnessMonitor>>,
    /// The shards' layout: every cut derives through it, since the fold
    /// of same-schema shards and replicas has the shards' axes and
    /// lattice.
    layout: GroupLayout,
    estimator: Box<dyn EpsilonEstimator>,
    telemetry: Arc<FleetTelemetry>,
}

impl FleetIngest {
    /// Number of shards (= independent monitors).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Live fleet telemetry: per-shard traffic counters, queue depths,
    /// staleness gauges, cut latency, and the shared monitor bundle —
    /// readable at any time without touching the shard locks (see
    /// [`FleetTelemetry`]). The `Arc` lets a scrape layer clone it into
    /// gauge closures that outlive this handle's borrows.
    pub fn telemetry(&self) -> &Arc<FleetTelemetry> {
        &self.telemetry
    }

    /// Tallies one chunk at `at` seconds into `shard`'s monitor
    /// ([`FairnessMonitor::push_at`]) and returns once it is counted,
    /// waiting while another push or a cut holds the shard. A chunk or
    /// timestamp the monitor refuses is this call's error, and the shard
    /// is left as it was.
    pub fn push<C: Tally + ?Sized>(&self, shard: usize, chunk: &C, at: f64) -> Result<()> {
        let cell = self.shards.get(shard).ok_or_else(|| {
            DfError::Invalid(format!(
                "no shard {shard}: this fleet has {} shards",
                self.shards()
            ))
        })?;
        let tel = self.telemetry.shard(shard);
        tel.enqueued.inc();
        let result = lock(shard, cell).and_then(|mut monitor| {
            let before = monitor.records_seen();
            let start = wall_clock_now();
            monitor.push_at(chunk, at)?;
            let took = wall_clock_now().saturating_duration_since(start);
            monitor.telemetry().push_seconds.observe(took.as_secs_f64());
            tel.rows.add(monitor.records_seen() - before);
            tel.chunks.inc();
            // The newest data time heard, monotone under out-of-order
            // pushes; only pushes write it, and only under this lock.
            if tel.last_seen.get_finite().is_none_or(|seen| at > seen) {
                tel.last_seen.set(at);
            }
            Ok(())
        });
        tel.processed.inc();
        result
    }

    /// A consistent cut of the whole fleet: waits for every shard, aligns
    /// all shard clocks to the fleet-wide maximum (so every window evicts
    /// against the same horizon), folds the shards' counts and derives
    /// the fleet-wide statistics once. Everything pushed before this call
    /// is in it.
    pub fn snapshot(&self) -> Result<MonitorSnapshot> {
        self.cut(None, None, [])
    }

    /// [`FleetIngest::snapshot`] with a bounded wait, folding `replicas`
    /// in as well: snapshots of remote monitors configured like this
    /// fleet, absorbed after the shards in slice order, so the one
    /// derivation at the root covers the shards and the replicas alike
    /// (pass `&[]` for the local fleet alone). If some shard stays locked
    /// past `timeout` (measured across the whole cut, not per shard),
    /// returns [`DfError::Timeout`] instead of blocking — so a stalled
    /// push cannot hang a serving request forever. Nothing is mutated
    /// before every lock is held, so retrying later is safe.
    pub fn try_snapshot_timeout<'r>(
        &self,
        timeout: Duration,
        replicas: impl IntoIterator<Item = &'r MonitorSnapshot>,
    ) -> Result<MonitorSnapshot> {
        self.cut(None, Some(timeout), replicas)
    }

    /// [`FleetIngest::snapshot`] against an explicit fleet clock: every
    /// shard advances to `now` (shards already ahead keep their own
    /// clock, and the rest align to the newest one) before snapshotting.
    /// Use when the caller owns the clock — e.g. a 1 Hz aggregation timer
    /// stamping each tick, or an idle fleet whose windows must drain.
    pub fn snapshot_at(&self, now: f64) -> Result<MonitorSnapshot> {
        if !now.is_finite() {
            return Err(DfError::Invalid(format!(
                "fleet snapshot timestamp must be finite, got {now}"
            )));
        }
        self.cut(Some(now), None, [])
    }

    /// Locks every shard in index order, advances each lagging clock once
    /// to `max(shard clocks, now)`, copies each shard's mergeable state,
    /// releases, folds `replicas` after the shards and derives once.
    ///
    /// Only a shard whose clock the target moves is advanced:
    /// `advance_to` evaluates alert rules and change-point detectors (a
    /// genuine monitor step), and polling an already-aligned fleet must
    /// not feed them spurious zero-arrival samples. Clockless shards hold
    /// empty windows — nothing to evict — so they are never touched.
    /// Successful cuts record their wall-clock duration into
    /// [`FleetTelemetry::snapshot_cut_seconds`].
    fn cut<'r>(
        &self,
        now: Option<f64>,
        timeout: Option<Duration>,
        replicas: impl IntoIterator<Item = &'r MonitorSnapshot>,
    ) -> Result<MonitorSnapshot> {
        let start = wall_clock_now();
        let mut monitors = Vec::with_capacity(self.shards());
        for (shard, cell) in self.shards.iter().enumerate() {
            monitors.push(match timeout {
                None => lock(shard, cell)?,
                Some(budget) => lock_within(shard, cell, start, budget)?,
            });
        }
        let target = monitors
            .iter()
            .filter_map(|m| m.now_seconds())
            .chain(now)
            .reduce(f64::max);
        let states = monitors
            .iter_mut()
            .map(|monitor| {
                if let (Some(target), Some(clock)) = (target, monitor.now_seconds()) {
                    if target > clock {
                        monitor.advance_to(target)?;
                    }
                }
                Ok(monitor.state())
            })
            .collect::<Result<Vec<_>>>()?;
        // Pushes resume while the copies fold and derive. The first copy
        // is the root the others fold into; the replicas are absorbed
        // where they are, after the shards.
        drop(monitors);
        let mut states = states.into_iter();
        let root = states
            .next()
            .ok_or_else(|| DfError::Invalid("a fleet needs at least one shard".into()))?;
        let mut merged = fold(root, states.as_slice())?;
        for replica in replicas {
            merged.absorb_counts(replica)?;
        }
        merged.derive(
            Some(&self.layout),
            &*metric_from_tag(&merged.metric)?,
            &*self.estimator,
        )?;
        let took = wall_clock_now().saturating_duration_since(start);
        self.telemetry
            .snapshot_cut_seconds
            .observe(took.as_secs_f64());
        self.telemetry.snapshots.inc();
        Ok(merged)
    }
}

/// Locks one shard. A poisoned lock means a push panicked mid-tally and
/// the monitor may hold half a chunk, so the shard refuses every later
/// push and cut with a typed error.
fn lock(shard: usize, cell: &Mutex<FairnessMonitor>) -> Result<MutexGuard<'_, FairnessMonitor>> {
    cell.lock().map_err(|_| poisoned(shard))
}

/// [`lock`] with a deadline: retries `try_lock` every [`LOCK_RETRY`]
/// until `budget` has passed since `start`.
fn lock_within(
    shard: usize,
    cell: &Mutex<FairnessMonitor>,
    start: Instant,
    budget: Duration,
) -> Result<MutexGuard<'_, FairnessMonitor>> {
    loop {
        match cell.try_lock() {
            Ok(monitor) => return Ok(monitor),
            Err(TryLockError::Poisoned(_)) => return Err(poisoned(shard)),
            Err(TryLockError::WouldBlock) => {
                if wall_clock_now().saturating_duration_since(start) >= budget {
                    return Err(DfError::Timeout {
                        what: "fleet snapshot",
                        waited_ms: u64::try_from(budget.as_millis()).unwrap_or(u64::MAX),
                    });
                }
                std::thread::sleep(LOCK_RETRY);
            }
        }
    }
}

fn poisoned(shard: usize) -> DfError {
    DfError::Invalid(format!(
        "fleet shard {shard} is out of service: a push panicked while holding its lock"
    ))
}

impl MonitorBuilder {
    /// Turns this monitor configuration into a **fleet**: `shards`
    /// identical wall-clock monitors, each behind its own lock, merged on
    /// demand into the fleet-wide ε.
    ///
    /// Requires a wall-clock window
    /// ([`MonitorBuilder::window_seconds`]): fleet aggregation aligns
    /// shard windows on the shared clock, which a record-count window
    /// does not have (the global "last W records" is not a union of
    /// per-shard "last W records").
    ///
    /// ```
    /// use df_core::builder::{Audit, Smoothed};
    /// use df_prob::contingency::Axis;
    /// use df_prob::partial::{PartialCounts, Tally};
    ///
    /// struct Rows(Vec<[usize; 2]>);
    /// impl Tally for Rows {
    ///     fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
    ///         for idx in &self.0 {
    ///             shard.record(idx);
    ///         }
    ///         Ok(())
    ///     }
    /// }
    ///
    /// let axes = vec![
    ///     Axis::from_strs("y", &["no", "yes"]).unwrap(),
    ///     Axis::from_strs("g", &["a", "b"]).unwrap(),
    /// ];
    /// let fleet = Audit::monitor("y", axes)
    ///     .estimator(Smoothed { alpha: 1.0 })
    ///     .window_seconds(60.0)
    ///     .bucket_seconds(5.0)
    ///     .fleet(2)
    ///     .unwrap();
    /// fleet.push(0, &Rows(vec![[1, 0], [0, 1]]), 3.0).unwrap();
    /// fleet.push(1, &Rows(vec![[0, 0], [1, 1]]), 4.5).unwrap();
    /// let snap = fleet.snapshot().unwrap();
    /// assert_eq!(snap.records_seen, 4);
    /// assert_eq!(snap.now_seconds, Some(4.5));
    /// ```
    pub fn fleet(self, shards: usize) -> Result<FleetIngest> {
        if shards == 0 {
            return Err(DfError::Invalid("a fleet needs at least one shard".into()));
        }
        if !self.is_wall_clock() {
            return Err(DfError::Invalid(
                "fleet ingestion needs a wall-clock window: configure \
                 window_seconds (and optionally bucket_seconds) before fleet()"
                    .into(),
            ));
        }
        let estimator = self.shared_estimator();
        // One FleetTelemetry per fleet; every shard monitor gets a clone
        // of the same MonitorTelemetry bundle (a user-injected bundle is
        // honoured), so alerts/alarms/evictions/push-latency aggregate
        // fleet-wide with no merge step.
        let mut telemetry = FleetTelemetry::new(shards);
        if let Some(bundle) = self.injected_telemetry() {
            telemetry.monitor = bundle.clone();
        }
        let shard = self.telemetry(telemetry.monitor.clone());
        let shards: Vec<FairnessMonitor> = (0..shards)
            .map(|_| shard.clone().build())
            .collect::<Result<_>>()?;
        Ok(FleetIngest {
            layout: shards[0].layout().clone(),
            shards: shards.into_iter().map(Mutex::new).collect(),
            estimator,
            telemetry: Arc::new(telemetry),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Audit, Smoothed};
    use crate::epsilon::GroupOutcomes;
    use crate::fleet::merge_many;
    use crate::monitor::tests::{axes, Rows};
    use df_prob::partial::PartialCounts;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{channel, Receiver};

    /// One record, tallied once the test opens the gate: its push holds
    /// the shard lock for exactly as long as the test needs.
    struct Gate(Receiver<()>);

    impl Tally for Gate {
        fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
            self.0.recv().expect("the test opens the gate");
            shard.record(&[0, 0]);
            Ok(())
        }
    }

    fn fleet(shards: usize) -> FleetIngest {
        Audit::monitor("y", axes())
            .estimator(Smoothed { alpha: 1.0 })
            .window_seconds(10.0)
            .bucket_seconds(1.0)
            .fleet(shards)
            .unwrap()
    }

    /// Spins until some other thread holds `shard`'s lock.
    fn wait_until_held(fleet: &FleetIngest, shard: usize) {
        while fleet.shards[shard].try_lock().is_ok() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn builder_validates_fleet_configuration() {
        assert!(Audit::monitor("y", axes())
            .window_seconds(10.0)
            .fleet(0)
            .is_err());
        // A record-count window cannot be fleet-aggregated.
        assert!(Audit::monitor("y", axes()).window(100).fleet(2).is_err());
        assert!(Audit::monitor("y", axes()).fleet(2).is_err());
    }

    #[test]
    fn snapshot_mutates_nothing_no_matter_how_often_polled() {
        // A snapshot is a pure read. The first poll may align shard
        // clocks (a genuine monitor step on the lagging shards), but
        // every poll after that — with no new traffic — must return a
        // bit-identical snapshot: no zero-arrival windows fed to alert
        // rules, no detector state advanced, no eviction.
        // An armed alert rule makes any accidental advance visible: a
        // spurious zero-arrival window would append to the alert log,
        // which is part of snapshot equality.
        let fleet = Audit::monitor("y", axes())
            .estimator(Smoothed { alpha: 1.0 })
            .window_seconds(10.0)
            .bucket_seconds(1.0)
            .alert(crate::monitor::AlertRule::epsilon_above(0.0))
            .fleet(2)
            .unwrap();
        // Deliberately skewed shard clocks so the first snapshot has
        // real alignment work to do.
        fleet.push(0, &Rows(vec![[1, 0], [0, 1]]), 3.0).unwrap();
        fleet.push(1, &Rows(vec![[0, 0], [1, 1]]), 7.5).unwrap();

        let first = fleet.snapshot().unwrap();
        for _ in 0..5 {
            let again = fleet.snapshot().unwrap();
            assert_eq!(again, first, "repeat poll mutated the fleet");
        }
        // The bounded form is the same pure read.
        let bounded = fleet
            .try_snapshot_timeout(Duration::from_secs(5), &[])
            .unwrap();
        assert_eq!(bounded, first);
        assert_eq!(first.now_seconds, Some(7.5));
        assert_eq!(first.records_seen, 4);
    }

    #[test]
    fn concurrent_producers_merge_into_one_window() {
        let fleet = fleet(4);
        assert_eq!(fleet.shards(), 4);
        assert!(fleet.push(4, &Rows(vec![[0, 0]]), 0.0).is_err());
        std::thread::scope(|scope| {
            for i in 0..4 {
                let fleet = &fleet;
                scope.spawn(move || {
                    for t in 0..5 {
                        fleet
                            .push(i, &Rows(vec![[1, i % 2], [0, 1 - i % 2]]), t as f64)
                            .unwrap();
                    }
                });
            }
        });
        let snap = fleet.snapshot().unwrap();
        assert_eq!(snap.records_seen, 40);
        assert_eq!(snap.window_rows, 40);
        assert_eq!(snap.now_seconds, Some(4.0));
        // The fleet is balanced overall: 10 of each (y, g) cell.
        assert_eq!(snap.window.data, vec![10.0, 10.0, 10.0, 10.0]);
        assert_eq!(snap.epsilon.epsilon, 0.0);
    }

    /// `Smoothed { alpha: 1 }` that counts its table evaluations across
    /// every clone (the fleet and each shard hold one).
    #[derive(Clone)]
    struct Counting(Arc<AtomicUsize>);

    impl EpsilonEstimator for Counting {
        fn name(&self) -> String {
            Smoothed { alpha: 1.0 }.name()
        }

        fn estimate_table(&self, raw: &GroupOutcomes) -> Result<GroupOutcomes> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Smoothed { alpha: 1.0 }.estimate_table(raw)
        }

        fn clone_box(&self) -> Box<dyn EpsilonEstimator> {
            Box::new(self.clone())
        }
    }

    /// One cut is one derivation, however many shards and replicas it
    /// folds; replicas are absorbed after the shards.
    #[test]
    fn a_cut_derives_once_however_many_shards_and_replicas() {
        let evaluations = Arc::new(AtomicUsize::new(0));
        let build = || {
            Audit::monitor("y", axes())
                .estimator(Counting(Arc::clone(&evaluations)))
                .window_seconds(10.0)
                .bucket_seconds(1.0)
        };
        let fleet = build().fleet(4).unwrap();
        for shard in 0..4 {
            let skew = shard % 2;
            fleet
                .push(shard, &Rows(vec![[1, skew], [0, 1 - skew]]), 3.0)
                .unwrap();
        }
        let mut replica = build().build().unwrap();
        replica.push_at(&Rows(vec![[1, 1]]), 3.0).unwrap();
        let replicas = [replica.snapshot().unwrap()];
        evaluations.store(0, Ordering::SeqCst);
        let local = fleet.snapshot().unwrap();
        assert_eq!(local.records_seen, 8);
        assert_eq!(evaluations.load(Ordering::SeqCst), 1);
        let merged = fleet
            .try_snapshot_timeout(Duration::from_secs(5), &replicas)
            .unwrap();
        assert_eq!(evaluations.load(Ordering::SeqCst), 2);
        let [replica] = replicas;
        assert_eq!(
            merged,
            merge_many(&[local, replica], &Smoothed { alpha: 1.0 }).unwrap()
        );
    }

    #[test]
    fn telemetry_tracks_traffic_staleness_and_cuts() {
        let fleet = fleet(2);
        let tel = Arc::clone(fleet.telemetry());
        fleet.push(0, &Rows(vec![[1, 0], [0, 1]]), 10.0).unwrap();
        fleet.push(1, &Rows(vec![[0, 0]]), 4.0).unwrap();
        let snap = fleet.snapshot().unwrap();
        assert_eq!(snap.records_seen, 3);
        // Every push returned, so nothing waits; per-shard traffic is
        // accounted.
        assert_eq!(tel.queue_depth_total(), 0);
        assert_eq!(tel.rows_total(), 3);
        assert_eq!(tel.shard(0).rows.get(), 2);
        assert_eq!(tel.shard(0).chunks.get(), 1);
        assert_eq!(tel.shard(1).rows.get(), 1);
        // last_seen is *data* time, per shard — and snapshot alignment
        // (which advanced shard 1's window to 10.0) did not touch it:
        // a silent shard must keep looking stale.
        assert_eq!(tel.shard(0).last_seen.get_finite(), Some(10.0));
        assert_eq!(tel.shard(1).last_seen.get_finite(), Some(4.0));
        assert!((tel.max_lag_seconds() - 6.0).abs() < 1e-12);
        // Both pushes were timed onto the shared monitor bundle; the cut
        // itself was timed and counted.
        assert_eq!(tel.monitor.push_seconds.count(), 2);
        assert_eq!(tel.snapshots.get(), 1);
        assert_eq!(tel.snapshot_cut_seconds.count(), 1);
    }

    #[test]
    fn snapshot_aligns_stale_shard_clocks() {
        let fleet = fleet(2);
        // The slow shard's traffic is old enough to be outside the window
        // relative to the fast shard's clock.
        fleet.push(1, &Rows(vec![[1, 0], [1, 0]]), 2.0).unwrap();
        fleet.push(0, &Rows(vec![[0, 1], [1, 1]]), 30.0).unwrap();
        let snap = fleet.snapshot().unwrap();
        // Clock alignment evicted the slow shard's stale bucket: only the
        // fast shard's chunk remains in the fleet window.
        assert_eq!(snap.now_seconds, Some(30.0));
        assert_eq!(snap.window_rows, 2);
        assert_eq!(snap.records_seen, 4);
    }

    #[test]
    fn idle_advance_keeps_draining() {
        let fleet = fleet(1);
        fleet.push(0, &Rows(vec![[1, 0], [0, 1]]), 1.0).unwrap();
        let snap = fleet.snapshot_at(100.0).unwrap();
        assert_eq!(snap.window_rows, 0);
        assert_eq!(snap.records_seen, 2);
        assert_eq!(snap.now_seconds, Some(100.0));
        // The drain is a real clock step: an unstamped cut stays there.
        assert_eq!(fleet.snapshot().unwrap(), snap);
    }

    #[test]
    fn empty_fleet_snapshot_is_the_zero_state() {
        let fleet = fleet(3);
        let snap = fleet.snapshot().unwrap();
        assert_eq!(snap.records_seen, 0);
        assert_eq!(snap.window_rows, 0);
        assert_eq!(snap.now_seconds, None);
        assert_eq!(snap.epsilon.epsilon, 0.0);
    }

    #[test]
    fn try_snapshot_timeout_bounds_the_wait_on_a_stuck_shard() {
        let fleet = fleet(2);
        let (open, gate) = channel();
        std::thread::scope(|scope| {
            // Another thread's push holds shard 0 until the gate opens;
            // the bounded cut gives up first.
            let stalled = scope.spawn(|| fleet.push(0, &Gate(gate), 1.0));
            wait_until_held(&fleet, 0);
            let err = fleet
                .try_snapshot_timeout(Duration::from_millis(20), &[])
                .unwrap_err();
            assert!(
                matches!(err, DfError::Timeout { waited_ms: 20, .. }),
                "expected Timeout, got {err:?}"
            );
            open.send(()).unwrap();
            stalled.join().unwrap().unwrap();
        });
        // The cut was only delayed, not lost: an unbounded snapshot later
        // sees the chunk, and a generous bounded wait succeeds too.
        let snap = fleet.snapshot().unwrap();
        assert_eq!(snap.records_seen, 1);
        let snap = fleet
            .try_snapshot_timeout(Duration::from_secs(30), &[])
            .unwrap();
        assert_eq!(snap.records_seen, 1);
    }

    #[test]
    fn a_stalled_shard_blocks_its_producers_instead_of_buffering() {
        let fleet = fleet(2);
        let depth = || fleet.telemetry().shard(0).queue_depth();
        let (open, gate) = channel();
        std::thread::scope(|scope| {
            let stalled = scope.spawn(|| fleet.push(0, &Gate(gate), 1.0));
            wait_until_held(&fleet, 0);
            let producers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..100 {
                            fleet.push(0, &Rows(vec![[1, 0]]), 1.0).unwrap();
                        }
                    })
                })
                .collect();
            // Other shards keep serving while shard 0 is stalled.
            fleet.push(1, &Rows(vec![[0, 1]]), 1.0).unwrap();
            // One push holds the lock and each producer waits with one
            // chunk in hand: nothing else is buffered, before or after
            // the stall ends.
            while depth() < 9 {
                std::thread::yield_now();
            }
            open.send(()).unwrap();
            let mut deepest = 9;
            while !producers.iter().all(|p| p.is_finished()) {
                deepest = deepest.max(depth());
                std::thread::yield_now();
            }
            assert_eq!(deepest, 9);
            stalled.join().unwrap().unwrap();
        });
        assert_eq!(fleet.snapshot().unwrap().records_seen, 802);
        assert_eq!(fleet.telemetry().queue_depth_total(), 0);
    }

    #[test]
    fn corrupt_chunks_fail_their_own_push_with_a_typed_error() {
        struct Weighted(f64);
        impl Tally for Weighted {
            fn tally_into(&self, shard: &mut PartialCounts) -> df_prob::Result<()> {
                shard.add(&[0, 0], self.0);
                Ok(())
            }
        }
        let fleet = Audit::monitor("y", axes())
            .window_seconds(10.0)
            .fleet(2)
            .unwrap();
        let err = fleet.push(0, &Weighted(-1.0), 1.0).unwrap_err();
        assert!(err.to_string().contains("finite, non-negative"), "{err}");
        // A timestamp the window already left is refused the same way.
        fleet.push(0, &Weighted(2.0), 30.0).unwrap();
        let err = fleet.push(0, &Weighted(1.0), 2.0).unwrap_err();
        assert!(err.to_string().contains("left the window"), "{err}");
        // The shard keeps serving, holding only the accepted chunk.
        let snap = fleet.snapshot().unwrap();
        assert_eq!(snap.records_seen, 2);
        assert_eq!(fleet.telemetry().shard(0).chunks.get(), 1);
        assert_eq!(fleet.telemetry().queue_depth_total(), 0);
    }

    #[test]
    fn a_panicking_push_takes_only_its_shard_out_of_service() {
        struct Panics;
        impl Tally for Panics {
            fn tally_into(&self, _: &mut PartialCounts) -> df_prob::Result<()> {
                panic!("tally bug")
            }
        }
        let fleet = fleet(2);
        std::thread::scope(|scope| {
            assert!(scope.spawn(|| fleet.push(0, &Panics, 1.0)).join().is_err());
        });
        let err = fleet.push(0, &Rows(vec![[0, 0]]), 1.0).unwrap_err();
        assert!(
            matches!(&err, DfError::Invalid(m) if m.contains("shard 0")),
            "{err:?}"
        );
        assert!(fleet.snapshot().is_err());
        fleet.push(1, &Rows(vec![[0, 0]]), 1.0).unwrap();
    }
}
