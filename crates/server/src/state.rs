//! The long-lived server state: one [`FleetIngest`] owning the live
//! counts, the label → code catalog record bodies are decoded against, a
//! wire-snapshot store for remote replicas, and the version-keyed caches
//! behind the warm read path.
//!
//! ## Consistency and the warm path
//!
//! Every successful ingest bumps a version counter. Read endpoints
//! (`/v1/audit`, `/v1/monitor`) resolve their merged fleet snapshot
//! through a version-tagged cache: while no ingest has landed since the
//! last resolution, reads reuse the merged snapshot (and the rendered
//! response bytes) without touching the fleet at all — that is what makes
//! tens of thousands of audit requests per second cheap between ingest
//! bursts. The first read after an ingest pays one consistent cut, which
//! folds the shards' counts and the replica snapshots and derives the
//! statistics once.
//!
//! ## Why bad input is refused before it reaches a shard
//!
//! [`df_core::fleet::FleetIngest::push`] tallies under the shard lock
//! before the request answers, and a chunk or timestamp the monitor
//! refuses fails that one push and leaves the shard unchanged: a
//! per-request 400. The server still refuses bad input before the push,
//! so that a refused request moves no server state either. A record body
//! only reaches the fleet as a [`CodeChunk`] that is valid by
//! construction. Interning is the validation: the body decoder looks
//! every label up in the catalog built from the schema, and an unknown
//! label or a row of the wrong arity is a failed lookup that rejects the
//! whole request. The timestamp must lie in the monitor's range
//! ([`df_core::monitor::validate_timestamp`]) before it may raise
//! `max_seen`, and must clear a conservative lower bound
//! (`max_seen − T + b`) that provably can never land behind any shard's
//! window horizon. Shards then tally the codes with the trusted columnar
//! kernel, resolving no label again.

use crate::decode::Catalog;
use crate::http::Response;
use crate::obs::{AccessLogFn, ServerObs};
use df_core::builder::{Audit, EpsilonEstimator, SubsetPolicy};
use df_core::fleet::{FleetIngest, FleetTelemetry, SnapshotDecoder};
use df_core::metric::Metric;
use df_core::monitor::{
    validate_timestamp, AlertRule, ChangepointSpec, MonitorBuilder, MonitorSnapshot,
};
use df_core::{DfError, Result};
use df_data::replay::CodeChunk;
use df_prob::contingency::Axis;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering the data if a previous holder panicked.
///
/// Every mutex in this module guards state with no invariant that spans
/// the lock (caches are validated by version tag, `max_seen` is a single
/// monotone value, the decoder re-validates every frame), so a poisoned
/// lock is safe to adopt — and turning one request thread's panic into a
/// permanent 500-for-everyone by unwrapping the poison would be the real
/// availability bug on an untrusted-input path.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Upper bound on distinct cached rendered responses between ingests.
const RESPONSE_CACHE_CAP: usize = 256;

/// Everything [`crate::ServerBuilder`] resolved; owned by the state.
pub(crate) struct StateConfig {
    pub outcome: String,
    pub axes: Vec<Axis>,
    pub estimator: Box<dyn EpsilonEstimator>,
    pub metric: Box<dyn Metric>,
    pub window_seconds: f64,
    pub bucket_seconds: f64,
    pub decay: Option<f64>,
    pub subsets: SubsetPolicy,
    pub alerts: Vec<AlertRule>,
    pub changepoints: Vec<ChangepointSpec>,
    pub shards: usize,
    pub snapshot_timeout: Duration,
    pub trace_capacity: usize,
    pub access_log: Option<AccessLogFn>,
}

/// The shared, long-lived server state; one instance per [`crate::Server`].
pub struct ServerState {
    outcome: String,
    axes: Vec<Axis>,
    catalog: Catalog,
    estimator: Box<dyn EpsilonEstimator>,
    metric: Box<dyn Metric>,
    window_seconds: f64,
    bucket_seconds: f64,
    decay: Option<f64>,
    snapshot_timeout: Duration,
    fleet: FleetIngest,
    /// The zero snapshot of an identically configured monitor; the
    /// compatibility yardstick for posted wire snapshots.
    reference: MonitorSnapshot,
    decoder: Mutex<SnapshotDecoder>,
    /// Latest wire snapshot per remote replica (BTreeMap: deterministic
    /// merge order).
    remote: Mutex<BTreeMap<String, Arc<MonitorSnapshot>>>,
    version: AtomicU64,
    next_shard: AtomicUsize,
    max_seen: Mutex<Option<f64>>,
    snap_cache: Mutex<Option<(u64, Arc<MonitorSnapshot>)>>,
    resp_cache: Mutex<(u64, HashMap<String, Response>)>,
    obs: ServerObs,
}

impl ServerState {
    pub(crate) fn new(cfg: StateConfig) -> Result<Self> {
        let builder = || -> MonitorBuilder {
            let mut b = Audit::monitor(&cfg.outcome, cfg.axes.clone())
                .boxed_estimator(cfg.estimator.clone_box())
                .boxed_metric(cfg.metric.clone())
                .window_seconds(cfg.window_seconds)
                .bucket_seconds(cfg.bucket_seconds)
                .subsets(cfg.subsets);
            if let Some(lambda) = cfg.decay {
                b = b.decay(lambda);
            }
            for rule in &cfg.alerts {
                b = b.alert(*rule);
            }
            for spec in &cfg.changepoints {
                b = b.changepoint(*spec);
            }
            b
        };
        let reference = builder().build()?.snapshot()?;
        let fleet = builder().fleet(cfg.shards)?;
        let obs = ServerObs::new(fleet.telemetry(), cfg.trace_capacity, cfg.access_log)?;
        Ok(Self {
            outcome: cfg.outcome,
            catalog: Catalog::new(&cfg.axes),
            axes: cfg.axes,
            estimator: cfg.estimator,
            metric: cfg.metric,
            window_seconds: cfg.window_seconds,
            bucket_seconds: cfg.bucket_seconds,
            decay: cfg.decay,
            snapshot_timeout: cfg.snapshot_timeout,
            fleet,
            reference,
            decoder: Mutex::new(SnapshotDecoder::new()),
            remote: Mutex::new(BTreeMap::new()),
            version: AtomicU64::new(1),
            next_shard: AtomicUsize::new(0),
            max_seen: Mutex::new(None),
            snap_cache: Mutex::new(None),
            resp_cache: Mutex::new((0, HashMap::new())),
            obs,
        })
    }

    /// The server's wired telemetry (registry, spans, counters).
    pub(crate) fn obs(&self) -> &ServerObs {
        &self.obs
    }

    /// The fleet's live telemetry (per-shard traffic, staleness, cuts).
    pub(crate) fn fleet_telemetry(&self) -> &Arc<FleetTelemetry> {
        self.fleet.telemetry()
    }

    /// The outcome axis name.
    pub fn outcome(&self) -> &str {
        &self.outcome
    }

    /// The schema axes (outcome included), in record order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Number of ingest shards.
    pub fn shards(&self) -> usize {
        self.fleet.shards()
    }

    /// Display name of the configured ε estimator.
    pub fn estimator_name(&self) -> String {
        self.estimator.name()
    }

    /// The configured ε estimator (for per-query snapshot re-derivation).
    pub(crate) fn estimator(&self) -> &dyn EpsilonEstimator {
        &*self.estimator
    }

    /// Canonical tag of the configured fairness metric.
    pub fn metric_tag(&self) -> String {
        self.metric.tag()
    }

    /// `(window_seconds, bucket_seconds, decay)` as configured.
    pub fn window_config(&self) -> (f64, f64, Option<f64>) {
        (self.window_seconds, self.bucket_seconds, self.decay)
    }

    /// Default bounded wait for consistent-cut rounds.
    pub fn snapshot_timeout(&self) -> Duration {
        self.snapshot_timeout
    }

    /// The current ingest version (bumped by every accepted ingest).
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// Wall clock as UNIX seconds, the default record timestamp.
    pub fn now_unix(&self) -> f64 {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs_f64())
            .unwrap_or(0.0)
    }

    /// The label → code catalog record bodies are decoded against.
    pub(crate) fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Interns rows of label strings against the catalog and pushes them
    /// like a decoded record body. Returns `(rows accepted, shard used)`.
    /// Nothing reaches the fleet unless every row is valid — an atomic
    /// accept/reject per request.
    pub fn ingest_rows(
        &self,
        rows: Vec<Vec<String>>,
        at: f64,
        shard: Option<usize>,
    ) -> Result<(usize, usize)> {
        self.ingest_chunk(self.catalog.encode_rows(&rows)?, at, shard)
    }

    /// Checks the timestamp and shard of a decoded chunk and pushes it.
    /// Returns `(rows accepted, shard used)`.
    pub(crate) fn ingest_chunk(
        &self,
        chunk: CodeChunk,
        at: f64,
        shard: Option<usize>,
    ) -> Result<(usize, usize)> {
        self.check_timestamp(at)?;
        let shard = match shard {
            Some(s) if s < self.shards() => s,
            Some(s) => {
                return Err(DfError::Invalid(format!(
                    "no shard {s}: this server has {} shards",
                    self.shards()
                )))
            }
            None => self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards(),
        };
        let accepted = chunk.n_rows();
        self.fleet.push(shard, &chunk, at)?;
        self.bump_version();
        Ok((accepted, shard))
    }

    /// Refuses timestamps the window could reject: outside the monitor's
    /// range, or older than `max_seen − T + b`. The range check comes
    /// first, so a refused timestamp never raises `max_seen`. Every shard
    /// clock is at most `max_seen`, and a timestamp at least
    /// `now − T + b` always lands in an in-window bucket, so anything
    /// passing this check is provably safe on whichever shard it reaches.
    fn check_timestamp(&self, at: f64) -> Result<()> {
        validate_timestamp(at)?;
        let mut max_seen = lock_recover(&self.max_seen);
        if let Some(max) = *max_seen {
            let floor = max - self.window_seconds + self.bucket_seconds;
            if at < floor {
                return Err(DfError::Invalid(format!(
                    "timestamp {at} is too old: the window has advanced to {max} \
                     and only accepts arrivals from {floor}"
                )));
            }
        }
        if max_seen.is_none_or(|m| at > m) {
            *max_seen = Some(at);
        }
        Ok(())
    }

    /// Decodes one binary `DFLT` frame, checks it is merge-compatible
    /// with this server's configuration (schema, outcome, window, decay,
    /// subsets, detectors), and stores it as `replica`'s latest state
    /// (last write wins). Returns the decoded snapshot's record count.
    pub fn ingest_snapshot(&self, bytes: &[u8], replica: &str) -> Result<(u64, u64)> {
        let snap = lock_recover(&self.decoder).decode(bytes)?;
        self.reference.mergeable_with(&snap)?;
        if snap.window.axes != self.reference.window.axes {
            return Err(DfError::Invalid(
                "snapshot schema does not match this server's catalog \
                 (different axes or label sets)"
                    .into(),
            ));
        }
        let totals = (snap.records_seen, snap.window_rows);
        lock_recover(&self.remote).insert(replica.to_string(), Arc::new(snap));
        self.bump_version();
        Ok(totals)
    }

    /// The fleet-wide merged snapshot: one consistent cut of the local
    /// fleet, with the latest snapshot of every remote replica folded
    /// after the shards (in replica-name order) and the statistics
    /// derived once over the lot.
    fn merged_snapshot(&self, timeout: Duration) -> Result<MonitorSnapshot> {
        // Shared handles: the store's lock is not held during the cut, and
        // the cut reads each replica where it is.
        let replicas: Vec<Arc<MonitorSnapshot>> =
            lock_recover(&self.remote).values().cloned().collect();
        self.fleet
            .try_snapshot_timeout(timeout, replicas.iter().map(|r| &**r))
    }

    /// The merged fleet snapshot behind the version-tagged cache: the
    /// warm path shares the cached merge instead of re-cutting the fleet.
    pub fn merged_cached(&self, timeout: Duration) -> Result<(u64, Arc<MonitorSnapshot>)> {
        let version = self.version();
        if let Some((v, snap)) = &*lock_recover(&self.snap_cache) {
            if *v == version {
                self.obs.snapshot_cache(true);
                return Ok((version, Arc::clone(snap)));
            }
        }
        self.obs.snapshot_cache(false);
        let snap = Arc::new(self.merged_snapshot(timeout)?);
        *lock_recover(&self.snap_cache) = Some((version, Arc::clone(&snap)));
        Ok((version, snap))
    }

    /// A cached rendered response, valid only at the given version.
    pub fn cached_response(&self, version: u64, key: &str) -> Option<Response> {
        let cache = lock_recover(&self.resp_cache);
        let hit = (cache.0 == version)
            .then(|| cache.1.get(key).cloned())
            .flatten();
        self.obs.render_cache(hit.is_some());
        hit
    }

    /// Stores a rendered response under the given version, resetting the
    /// cache when the version moved and capping its size.
    pub fn store_response(&self, version: u64, key: &str, resp: &Response) {
        let mut cache = lock_recover(&self.resp_cache);
        if cache.0 != version {
            cache.0 = version;
            cache.1.clear();
        }
        if cache.1.len() < RESPONSE_CACHE_CAP {
            cache.1.insert(key.to_string(), resp.clone());
        }
    }
}
