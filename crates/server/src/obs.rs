//! Server telemetry: one [`df_obs::Registry`] wired across all three
//! layers — the HTTP edge (per-endpoint latency, status classes, body
//! bytes, cache hits), the fleet ingest (per-shard rows, queue depth,
//! staleness, cut latency), and the shard monitors (push latency,
//! evictions, alerts) — plus the request span trace ring behind
//! `GET /v1/trace` and the optional structured access-log hook.
//!
//! Hot-path discipline: every per-request counter and histogram handle
//! is resolved **once at construction** into plain arrays indexed by
//! [`Endpoint`] and status class, so recording a request is a handful of
//! relaxed atomic ops — the registry's interning lock is only ever taken
//! at startup and at scrape time. The fleet/monitor series are not even
//! copies: the registry holds the *same* `Arc`-backed cells the shard
//! workers bump, so `/v1/metrics` reads live values with zero plumbing.
//!
//! Clock discipline: the server edge owns a [`RealClock`] (df-obs's one
//! audited wall-clock seam) for request spans and uptime. Data
//! timestamps never come from it — they remain caller-supplied, exactly
//! as `df-core` requires.

use df_core::fleet::FleetTelemetry;
use df_core::{DfError, Result};
use df_obs::{Clock, Counter, Histogram, ObsError, RealClock, Registry, Span, TraceRing, Tracer};
use std::sync::Arc;

/// The routable endpoints, as telemetry label values. `Other` absorbs
/// 404s and requests that failed before routing (parse errors, oversized
/// bodies), so *every* response — error paths included — lands in a
/// status-class counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// `GET /v1/healthz`
    Healthz,
    /// `GET /v1/schema`
    Schema,
    /// `GET /v1/audit`
    Audit,
    /// `GET /v1/monitor`
    Monitor,
    /// `GET /v1/metrics`
    Metrics,
    /// `GET /v1/trace`
    Trace,
    /// `POST /v1/ingest/records`
    IngestRecords,
    /// `POST /v1/ingest/snapshot`
    IngestSnapshot,
    /// Everything else: unknown routes and pre-route failures.
    Other,
}

impl Endpoint {
    const ALL: [Endpoint; 9] = [
        Endpoint::Healthz,
        Endpoint::Schema,
        Endpoint::Audit,
        Endpoint::Monitor,
        Endpoint::Metrics,
        Endpoint::Trace,
        Endpoint::IngestRecords,
        Endpoint::IngestSnapshot,
        Endpoint::Other,
    ];

    /// Classifies a request path (method-independent: a 405 on
    /// `/v1/audit` is still audit-endpoint traffic).
    pub(crate) fn of(path: &str) -> Endpoint {
        match path {
            "/v1/healthz" => Endpoint::Healthz,
            "/v1/schema" => Endpoint::Schema,
            "/v1/audit" => Endpoint::Audit,
            "/v1/monitor" => Endpoint::Monitor,
            "/v1/metrics" => Endpoint::Metrics,
            "/v1/trace" => Endpoint::Trace,
            "/v1/ingest/records" => Endpoint::IngestRecords,
            "/v1/ingest/snapshot" => Endpoint::IngestSnapshot,
            _ => Endpoint::Other,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Schema => "schema",
            Endpoint::Audit => "audit",
            Endpoint::Monitor => "monitor",
            Endpoint::Metrics => "metrics",
            Endpoint::Trace => "trace",
            Endpoint::IngestRecords => "ingest_records",
            Endpoint::IngestSnapshot => "ingest_snapshot",
            Endpoint::Other => "other",
        }
    }
}

/// HTTP status classes, as telemetry label values.
const STATUS_CLASSES: [&str; 5] = ["1xx", "2xx", "3xx", "4xx", "5xx"];

fn status_class(status: u16) -> usize {
    (usize::from(status) / 100).clamp(1, 5) - 1
}

/// What the optional access-log hook receives, once per response —
/// routed or not, success or error.
#[derive(Debug)]
pub struct AccessRecord<'a> {
    /// Request method as sent.
    pub method: &'a str,
    /// Percent-decoded request path.
    pub path: &'a str,
    /// Raw query string (possibly empty).
    pub query: &'a str,
    /// Response status code.
    pub status: u16,
    /// Request handling time in seconds (0.0 for pre-route failures,
    /// which were never timed).
    pub seconds: f64,
    /// Request body size in bytes.
    pub request_bytes: u64,
    /// Response body size in bytes.
    pub response_bytes: u64,
}

impl AccessRecord<'_> {
    /// One-line structured rendering (`key=value`, space-separated) —
    /// what a hook that just wants a log line prints.
    pub fn to_line(&self) -> String {
        format!(
            "method={} path={} query={:?} status={} seconds={:.6} in={} out={}",
            self.method,
            self.path,
            self.query,
            self.status,
            self.seconds,
            self.request_bytes,
            self.response_bytes,
        )
    }
}

/// The access-log hook type: called synchronously on the connection
/// worker, so keep it cheap (hand off to a channel for real sinks).
pub(crate) type AccessLogFn = Arc<dyn Fn(&AccessRecord<'_>) + Send + Sync>;

fn obs_err(e: ObsError) -> DfError {
    DfError::Invalid(format!("telemetry registry: {e}"))
}

/// The server's wired telemetry; one per [`crate::Server`], owned by the
/// state and shared (by reference) with every connection worker.
pub(crate) struct ServerObs {
    registry: Registry,
    tracer: Tracer,
    /// Request-latency histogram per endpoint (same cells the registry
    /// renders).
    latency: Vec<Histogram>,
    /// Request counter per endpoint × status class.
    requests: Vec<[Counter; 5]>,
    request_bytes: Counter,
    response_bytes: Counter,
    snapshot_cache: CacheCells,
    render_cache: CacheCells,
    access_log: Option<AccessLogFn>,
}

/// The hit/miss counter pair for one warm-path cache.
struct CacheCells {
    hit: Counter,
    miss: Counter,
}

impl CacheCells {
    fn new(registry: &Registry, cache: &str) -> Result<Self> {
        let cell = |result| {
            registry
                .counter(
                    "df_cache_requests_total",
                    &[("cache", cache), ("result", result)],
                )
                .map_err(obs_err)
        };
        Ok(Self {
            hit: cell("hit")?,
            miss: cell("miss")?,
        })
    }

    fn bump(&self, hit: bool) {
        if hit {
            self.hit.inc();
        } else {
            self.miss.inc();
        }
    }
}

impl ServerObs {
    /// Builds the registry and resolves every hot-path handle. The
    /// fleet/monitor series are registered by *handle* — the registry
    /// serves the very cells the ingest workers bump.
    pub(crate) fn new(
        fleet: &Arc<FleetTelemetry>,
        trace_capacity: usize,
        access_log: Option<AccessLogFn>,
    ) -> Result<Self> {
        let registry = Registry::new();
        let clock: Arc<dyn Clock> = Arc::new(RealClock::new());
        let ring = (trace_capacity > 0).then(|| TraceRing::new(trace_capacity));
        let tracer = Tracer::new(Arc::clone(&clock), ring);

        let latency_scale = Histogram::default_latency();

        for (name, help) in [
            (
                "df_requests_total",
                "HTTP requests served, by endpoint and status class.",
            ),
            (
                "df_request_seconds",
                "Request handling latency by endpoint, in seconds.",
            ),
            ("df_request_body_bytes_total", "Request body bytes read."),
            (
                "df_response_body_bytes_total",
                "Response body bytes written.",
            ),
            (
                "df_cache_requests_total",
                "Warm-path cache lookups, by cache and result.",
            ),
            ("df_ingest_rows_total", "Records ingested, per shard."),
            (
                "df_ingest_chunks_total",
                "Ingest chunks processed, per shard.",
            ),
            (
                "df_ingest_queue_depth",
                "Pushes waiting for or holding the shard lock, per shard.",
            ),
            (
                "df_shard_last_seen_seconds",
                "Newest data timestamp each shard has processed (data time; NaN until traffic).",
            ),
            (
                "df_fleet_max_lag_seconds",
                "Worst shard staleness vs the fleet-wide newest data timestamp.",
            ),
            (
                "df_snapshot_cut_seconds",
                "Consistent-cut round duration, in seconds.",
            ),
            ("df_snapshots_total", "Consistent cuts completed."),
            (
                "df_monitor_push_seconds",
                "Monitor push_at duration, in seconds (fleet-wide).",
            ),
            (
                "df_monitor_alerts_total",
                "Fairness alerts fired across all shard monitors.",
            ),
            (
                "df_monitor_alarms_total",
                "Change-point alarms raised across all shard monitors.",
            ),
            (
                "df_monitor_evictions_total",
                "Window buckets evicted across all shard monitors.",
            ),
            (
                "df_uptime_seconds",
                "Seconds since the server telemetry started.",
            ),
            (
                "df_trace_spans_dropped_total",
                "Spans the trace ring refused or evicted unrecorded.",
            ),
        ] {
            registry.describe(name, help).map_err(obs_err)?;
        }

        // --- HTTP edge: pre-resolved per-endpoint handles. ---
        let mut latency = Vec::with_capacity(Endpoint::ALL.len());
        let mut requests = Vec::with_capacity(Endpoint::ALL.len());
        for endpoint in Endpoint::ALL {
            latency.push(
                registry
                    .histogram(
                        "df_request_seconds",
                        &[("endpoint", endpoint.as_str())],
                        latency_scale.bounds(),
                    )
                    .map_err(obs_err)?,
            );
            let mut classes = Vec::with_capacity(STATUS_CLASSES.len());
            for class in STATUS_CLASSES {
                classes.push(
                    registry
                        .counter(
                            "df_requests_total",
                            &[("endpoint", endpoint.as_str()), ("status", class)],
                        )
                        .map_err(obs_err)?,
                );
            }
            let classes: [Counter; 5] = classes
                .try_into()
                .map_err(|_| DfError::Invalid("status class arity".into()))?;
            requests.push(classes);
        }
        let request_bytes = registry
            .counter("df_request_body_bytes_total", &[])
            .map_err(obs_err)?;
        let response_bytes = registry
            .counter("df_response_body_bytes_total", &[])
            .map_err(obs_err)?;
        let snapshot_cache = CacheCells::new(&registry, "snapshot")?;
        let render_cache = CacheCells::new(&registry, "render")?;

        // --- Fleet ingest: register the live shard handles. ---
        for (i, shard) in fleet.shards().iter().enumerate() {
            let label = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", label.as_str())];
            registry
                .register_counter("df_ingest_rows_total", labels, &shard.rows)
                .map_err(obs_err)?;
            registry
                .register_counter("df_ingest_chunks_total", labels, &shard.chunks)
                .map_err(obs_err)?;
            registry
                .register_gauge("df_shard_last_seen_seconds", labels, &shard.last_seen)
                .map_err(obs_err)?;
            let depth_of = Arc::clone(fleet);
            registry
                .gauge_fn("df_ingest_queue_depth", labels, move || {
                    depth_of.shard(i).queue_depth() as f64
                })
                .map_err(obs_err)?;
        }
        let lag_of = Arc::clone(fleet);
        registry
            .gauge_fn("df_fleet_max_lag_seconds", &[], move || {
                lag_of.max_lag_seconds()
            })
            .map_err(obs_err)?;
        registry
            .register_histogram("df_snapshot_cut_seconds", &[], &fleet.snapshot_cut_seconds)
            .map_err(obs_err)?;
        registry
            .register_counter("df_snapshots_total", &[], &fleet.snapshots)
            .map_err(obs_err)?;

        // --- Shard monitors: the shared MonitorTelemetry bundle. ---
        registry
            .register_histogram("df_monitor_push_seconds", &[], &fleet.monitor.push_seconds)
            .map_err(obs_err)?;
        registry
            .register_counter("df_monitor_alerts_total", &[], &fleet.monitor.alerts_fired)
            .map_err(obs_err)?;
        registry
            .register_counter("df_monitor_alarms_total", &[], &fleet.monitor.alarms_fired)
            .map_err(obs_err)?;
        registry
            .register_counter(
                "df_monitor_evictions_total",
                &[],
                &fleet.monitor.evicted_buckets,
            )
            .map_err(obs_err)?;

        // --- Process-level derived gauges. ---
        let uptime_clock = Arc::clone(&clock);
        registry
            .gauge_fn("df_uptime_seconds", &[], move || {
                uptime_clock.monotonic_nanos() as f64 * 1e-9
            })
            .map_err(obs_err)?;
        if let Some(ring) = tracer.ring() {
            let ring = ring.clone();
            registry
                .gauge_fn("df_trace_spans_dropped_total", &[], move || {
                    ring.dropped() as f64
                })
                .map_err(obs_err)?;
        }

        Ok(Self {
            registry,
            tracer,
            latency,
            requests,
            request_bytes,
            response_bytes,
            snapshot_cache,
            render_cache,
            access_log,
        })
    }

    /// The registry behind `GET /v1/metrics`.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span ring behind `GET /v1/trace` (None: tracing disabled).
    pub(crate) fn trace_ring(&self) -> Option<&TraceRing> {
        self.tracer.ring()
    }

    /// Seconds since construction, from the server's monotonic clock.
    pub(crate) fn uptime_seconds(&self) -> f64 {
        self.tracer.clock().monotonic_nanos() as f64 * 1e-9
    }

    /// Opens a request span: times into the endpoint's latency histogram
    /// and, when tracing is on, lands in the ring with its fields.
    pub(crate) fn span(&self, endpoint: Endpoint) -> Span<'_> {
        // df-lint: allow(no-panic-path) -- latency has one slot per Endpoint::ALL variant by construction; the discriminant cannot exceed it
        let hist = &self.latency[endpoint as usize];
        self.tracer.span(endpoint.as_str(), hist)
    }

    /// Accounts one finished response: status-class counter + body bytes.
    /// Called for every response, error paths included.
    pub(crate) fn record(
        &self,
        endpoint: Endpoint,
        status: u16,
        request_bytes: u64,
        response_bytes: u64,
    ) {
        if let Some(cell) = self
            .requests
            .get(endpoint as usize)
            .and_then(|classes| classes.get(status_class(status)))
        {
            cell.inc();
        }
        self.request_bytes.add(request_bytes);
        self.response_bytes.add(response_bytes);
    }

    /// Accounts one merged-snapshot cache lookup.
    pub(crate) fn snapshot_cache(&self, hit: bool) {
        self.snapshot_cache.bump(hit);
    }

    /// Accounts one rendered-response cache lookup.
    pub(crate) fn render_cache(&self, hit: bool) {
        self.render_cache.bump(hit);
    }

    /// Invokes the access-log hook, if configured.
    pub(crate) fn access(&self, record: &AccessRecord<'_>) {
        if let Some(hook) = &self.access_log {
            hook(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_classify_and_status_classes_clamp() {
        assert_eq!(Endpoint::of("/v1/audit"), Endpoint::Audit);
        assert_eq!(Endpoint::of("/v1/metrics"), Endpoint::Metrics);
        assert_eq!(Endpoint::of("/nope"), Endpoint::Other);
        assert_eq!(status_class(200), 1);
        assert_eq!(status_class(404), 3);
        assert_eq!(status_class(503), 4);
        // Out-of-range codes clamp instead of panicking.
        assert_eq!(status_class(99), 0);
        assert_eq!(status_class(700), 4);
    }

    #[test]
    fn records_land_in_the_registry() {
        let fleet = Arc::new(FleetTelemetry::new(2));
        let obs = ServerObs::new(&fleet, 8, None).unwrap();
        let span = obs.span(Endpoint::Audit);
        let seconds = span.finish();
        assert!(seconds >= 0.0);
        obs.record(Endpoint::Audit, 200, 10, 250);
        obs.record(Endpoint::Other, 404, 0, 40);
        obs.snapshot_cache(false);
        obs.render_cache(true);
        let text = obs.registry().render_text();
        assert!(text.contains("df_requests_total{endpoint=\"audit\",status=\"2xx\"} 1"));
        assert!(text.contains("df_requests_total{endpoint=\"other\",status=\"4xx\"} 1"));
        assert!(text.contains("df_request_body_bytes_total 10"));
        assert!(text.contains("df_response_body_bytes_total 290"));
        assert!(text.contains("df_cache_requests_total{cache=\"render\",result=\"hit\"} 1"));
        assert!(text.contains("df_fleet_max_lag_seconds 0"));
        assert!(text.contains("df_uptime_seconds"));
        // The span landed in both the histogram and the ring.
        assert!(text.contains("df_request_seconds_count{endpoint=\"audit\"} 1"));
        assert_eq!(obs.trace_ring().map(|r| r.recent().len()), Some(1));
    }

    #[test]
    fn access_hook_sees_every_field() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let fleet = Arc::new(FleetTelemetry::new(1));
        let obs = ServerObs::new(
            &fleet,
            0,
            Some(Arc::new(move |r: &AccessRecord<'_>| {
                sink.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(r.to_line());
            })),
        )
        .unwrap();
        // Capacity 0 disables the ring entirely.
        assert!(obs.trace_ring().is_none());
        obs.access(&AccessRecord {
            method: "GET",
            path: "/v1/audit",
            query: "format=csv",
            status: 200,
            seconds: 0.0125,
            request_bytes: 0,
            response_bytes: 99,
        });
        let lines = seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("path=/v1/audit"));
        assert!(lines[0].contains("status=200"));
        assert!(lines[0].contains("out=99"));
    }
}
