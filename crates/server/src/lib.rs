//! # df-server
//!
//! An ε-differential-fairness **audit query service**: a hand-rolled,
//! dependency-free HTTP/1.1 server owning a long-lived
//! [`df_core::fleet::FleetIngest`] plus a schema catalog, turning the
//! intersectional counts cube of Foulds et al. (ICDE 2020) into a
//! queryable OLAP-style endpoint. One counts store answers many audit
//! questions per request — estimator, subset-lattice slice, window, and
//! wire format are all chosen per query.
//!
//! A default server runs five threads: one accept loop and four
//! connection workers ([`ServerBuilder::workers`]). The one `FleetIngest`
//! adds none — a worker pushes a record body into its shard's locked
//! monitor before it answers, and a read cuts the shards on the worker
//! that serves it.
//!
//! ## Endpoints
//!
//! | Route | Method | Purpose |
//! |---|---|---|
//! | `/v1/ingest/records` | POST | JSON/CSV record chunks with timestamps |
//! | `/v1/ingest/snapshot` | POST | binary `DFLT` frames from remote replicas |
//! | `/v1/audit` | GET | batch audit over the merged counts (`estimator=`, `subsets=`, `attrs=`, `window=`, `positive=`) |
//! | `/v1/monitor` | GET | windowed ε, trend, alerts, change-point alarms |
//! | `/v1/schema` | GET | catalog + vocabularies |
//! | `/v1/healthz` | GET | liveness, ingest version, per-shard queue depths, uptime |
//! | `/v1/metrics` | GET | telemetry scrape (Prometheus text, `?format=json` for JSON) |
//! | `/v1/trace` | GET | recent/slowest request spans from the trace ring |
//!
//! Responses negotiate JSON/CSV/markdown/text via `Accept` or
//! `?format=`; errors map [`df_core::DfError`] to typed statuses with
//! JSON bodies (`corrupt_counts` → 400, `timeout` → 503, …).
//!
//! ## Quick start
//!
//! ```
//! use df_prob::contingency::Axis;
//! use df_server::{client::Http1Client, Server};
//!
//! let server = Server::builder(
//!     "outcome",
//!     vec![
//!         Axis::from_strs("outcome", &["deny", "approve"]).unwrap(),
//!         Axis::from_strs("gender", &["F", "M"]).unwrap(),
//!     ],
//! )
//! .window_seconds(3600.0)
//! .bind("127.0.0.1:0")
//! .unwrap();
//!
//! let mut client = Http1Client::connect(server.local_addr()).unwrap();
//! let body = br#"{"rows": [["approve","F"],["deny","M"]], "at": 10.0}"#;
//! let resp = client
//!     .request("POST", "/v1/ingest/records", &[], body)
//!     .unwrap();
//! assert_eq!(resp.status, 200);
//! let audit = client.get("/v1/audit?estimator=smoothed").unwrap();
//! assert_eq!(audit.status, 200);
//! assert!(audit.text().contains("\"epsilon\""));
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod decode;
mod error;
pub mod http;
mod negotiate;
mod obs;
mod state;

mod handlers;

pub use negotiate::NegotiateError;
pub use obs::AccessRecord;
pub use state::ServerState;

use df_core::builder::{EpsilonEstimator, Smoothed, SubsetPolicy};
use df_core::metric::{EpsilonDf, Metric};
use df_core::monitor::{AlertRule, ChangepointSpec};
use df_core::{DfError, Result};
use df_prob::contingency::Axis;
use http::{read_request, write_response, NextRequest, POLL_INTERVAL};
use obs::Endpoint;
use state::StateConfig;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration + construction for [`Server`]. Obtained from
/// [`Server::builder`]; `bind` starts listening.
pub struct ServerBuilder {
    outcome: String,
    axes: Vec<Axis>,
    estimator: Box<dyn EpsilonEstimator>,
    metric: Box<dyn Metric>,
    window_seconds: f64,
    bucket_seconds: Option<f64>,
    decay: Option<f64>,
    subsets: SubsetPolicy,
    alerts: Vec<AlertRule>,
    changepoints: Vec<ChangepointSpec>,
    shards: usize,
    workers: usize,
    max_body_bytes: usize,
    keep_alive: Duration,
    snapshot_timeout: Duration,
    trace_spans: usize,
    access_log: Option<obs::AccessLogFn>,
}

impl ServerBuilder {
    /// The ε estimator used for monitor snapshots and fleet merging
    /// (default: `Smoothed { alpha: 1.0 }`, Eq. 7 of the paper). The
    /// audit endpoint picks its own estimators per query.
    pub fn estimator(mut self, estimator: impl EpsilonEstimator + 'static) -> Self {
        self.estimator = Box::new(estimator);
        self
    }

    /// The fairness metric every monitor statistic, fleet snapshot, and
    /// default audit is computed under (default: ε-differential
    /// fairness). Queries can re-derive another metric per request via
    /// `?metric=`; remote replicas posting snapshots must match this
    /// metric's tag.
    pub fn metric(mut self, metric: impl Metric + 'static) -> Self {
        self.metric = Box::new(metric);
        self
    }

    /// Wall-clock window span in seconds (default 3600).
    pub fn window_seconds(mut self, seconds: f64) -> Self {
        self.window_seconds = seconds;
        self
    }

    /// Bucket granularity in seconds (default: `window / 60`, at least
    /// 1 ms). Finer buckets tighten the ingest staleness bound — the
    /// server refuses record timestamps older than
    /// `max_seen − window + bucket`.
    pub fn bucket_seconds(mut self, seconds: f64) -> Self {
        self.bucket_seconds = Some(seconds);
        self
    }

    /// Enables the exponentially-decayed horizon (`window=decayed`
    /// audits and the monitor trend signal).
    pub fn decay(mut self, lambda: f64) -> Self {
        self.decay = Some(lambda);
        self
    }

    /// Subset lattice policy for monitor snapshots (default
    /// [`SubsetPolicy::None`]: `/v1/monitor` reports the full
    /// intersection only; `/v1/audit` computes its own lattice per
    /// query). Remote replicas posting snapshots must match.
    pub fn subsets(mut self, policy: SubsetPolicy) -> Self {
        self.subsets = policy;
        self
    }

    /// Attaches an alert rule to every shard monitor.
    pub fn alert(mut self, rule: AlertRule) -> Self {
        self.alerts.push(rule);
        self
    }

    /// Attaches a change-point detector to every shard monitor.
    pub fn changepoint(mut self, spec: impl Into<ChangepointSpec>) -> Self {
        self.changepoints.push(spec.into());
        self
    }

    /// Number of ingest shards (default 4).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Number of connection worker threads (default 4).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Cap on request bodies; a larger declared `Content-Length` answers
    /// `413` (default 1 MiB).
    pub fn max_body_bytes(mut self, bytes: usize) -> Self {
        self.max_body_bytes = bytes;
        self
    }

    /// Idle keep-alive before a connection is closed (default 5 s).
    pub fn keep_alive(mut self, idle: Duration) -> Self {
        self.keep_alive = idle;
        self
    }

    /// Default bounded wait for the fleet consistent-cut round behind
    /// `/v1/audit` and `/v1/monitor`; exceeding it answers `503`
    /// (default 5 s, per-request override via `?timeout_ms=`).
    pub fn snapshot_timeout(mut self, timeout: Duration) -> Self {
        self.snapshot_timeout = timeout;
        self
    }

    /// Capacity of the request-span trace ring behind `/v1/trace`
    /// (default 256; `0` disables tracing entirely — spans still feed
    /// the latency histograms, but nothing is retained).
    pub fn trace_spans(mut self, capacity: usize) -> Self {
        self.trace_spans = capacity;
        self
    }

    /// Installs a structured access-log hook, called synchronously once
    /// per response — routed or not, success or error (off by default).
    /// Keep it cheap; hand off to a channel for real sinks.
    /// [`AccessRecord::to_line`] renders the conventional one-liner.
    pub fn access_log(mut self, hook: impl Fn(&AccessRecord<'_>) + Send + Sync + 'static) -> Self {
        self.access_log = Some(Arc::new(hook));
        self
    }

    /// Binds the listener, spawns the accept loop and worker pool, and
    /// returns the running server.
    pub fn bind(self, addr: &str) -> Result<Server> {
        if self.workers == 0 {
            return Err(DfError::Invalid(
                "the server needs at least one worker".into(),
            ));
        }
        let bucket = self
            .bucket_seconds
            .unwrap_or_else(|| (self.window_seconds / 60.0).max(0.001));
        let state = ServerState::new(StateConfig {
            outcome: self.outcome,
            axes: self.axes,
            estimator: self.estimator,
            metric: self.metric,
            window_seconds: self.window_seconds,
            bucket_seconds: bucket,
            decay: self.decay,
            subsets: self.subsets,
            alerts: self.alerts,
            changepoints: self.changepoints,
            shards: self.shards,
            snapshot_timeout: self.snapshot_timeout,
            trace_capacity: self.trace_spans,
            access_log: self.access_log,
        })?;
        let listener = TcpListener::bind(addr)
            .map_err(|e| DfError::Invalid(format!("cannot bind {addr}: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| DfError::Invalid(format!("no local address: {e}")))?;
        let shared = Arc::new(Shared {
            state,
            shutdown: AtomicBool::new(false),
            max_body_bytes: self.max_body_bytes,
            keep_alive: self.keep_alive,
        });

        let (conn_tx, conn_rx) = channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut workers = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let rx = Arc::clone(&conn_rx);
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&rx, &shared)));
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &conn_tx, &shared))
        };
        Ok(Server {
            addr: local_addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

/// What the accept loop and workers share.
struct Shared {
    state: ServerState,
    shutdown: AtomicBool,
    max_body_bytes: usize,
    keep_alive: Duration,
}

/// A running audit server; dropping it (or calling [`Server::shutdown`])
/// stops the accept loop, drains the workers, and joins every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Starts configuring a server for the given schema. `axes` is the
    /// full record schema — the outcome axis (named by `outcome`) plus
    /// every protected attribute, in the order ingest rows list their
    /// labels.
    pub fn builder(outcome: &str, axes: Vec<Axis>) -> ServerBuilder {
        ServerBuilder {
            outcome: outcome.to_string(),
            axes,
            estimator: Box::new(Smoothed { alpha: 1.0 }),
            metric: Box::new(EpsilonDf),
            window_seconds: 3600.0,
            bucket_seconds: None,
            decay: None,
            subsets: SubsetPolicy::None,
            alerts: Vec::new(),
            changepoints: Vec::new(),
            shards: 4,
            workers: 4,
            max_body_bytes: 1 << 20,
            keep_alive: Duration::from_secs(5),
            snapshot_timeout: Duration::from_secs(5),
            trace_spans: 256,
            access_log: None,
        }
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for in-process inspection in tests.
    pub fn state(&self) -> &ServerState {
        &self.shared.state
    }

    /// Graceful shutdown: stops accepting, lets in-flight requests
    /// finish, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop out of its blocking accept().
        // df-lint: allow(must-use-results) -- best-effort wakeup; the accept loop also polls the shutdown flag
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            // df-lint: allow(must-use-results) -- a panicked accept loop is already shut down; nothing to report to Drop
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            // df-lint: allow(must-use-results) -- worker panics were already answered with a 500 or a closed socket
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, conn_tx: &Sender<TcpStream>, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                if conn_tx.send(stream).is_err() {
                    break;
                }
            }
            Err(_) => continue,
        }
    }
    // conn_tx drops here; idle workers see the disconnect and exit.
}

fn worker_loop(conn_rx: &Mutex<Receiver<TcpStream>>, shared: &Shared) {
    loop {
        let stream = {
            // Poison here means a sibling worker panicked between recv
            // and handle; the queue itself is still valid.
            let rx = conn_rx
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            rx.recv()
        };
        match stream {
            Ok(stream) => handle_connection(stream, shared),
            Err(_) => return, // accept loop gone
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared) {
    // df-lint: allow(must-use-results) -- socket tuning is advisory; the read loop enforces its own deadline
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    // df-lint: allow(must-use-results) -- socket tuning is advisory; latency, not correctness
    let _ = stream.set_nodelay(true);
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match read_request(
            &mut stream,
            shared.max_body_bytes,
            &shared.shutdown,
            shared.keep_alive,
        ) {
            Ok(NextRequest::Ready(req)) => {
                let keep = req.keep_alive && !shared.shutdown.load(Ordering::Relaxed);
                let obs = shared.state.obs();
                let endpoint = Endpoint::of(&req.path);
                let mut span = obs.span(endpoint);
                span.field("method", req.method.clone());
                span.field("path", req.path.clone());
                let resp = handlers::route(&shared.state, &req);
                span.field("status", resp.status.to_string());
                let seconds = span.finish();
                obs.record(
                    endpoint,
                    resp.status,
                    req.body.len() as u64,
                    resp.body.len() as u64,
                );
                obs.access(&AccessRecord {
                    method: &req.method,
                    path: &req.path,
                    query: &req.query,
                    status: resp.status,
                    seconds,
                    request_bytes: req.body.len() as u64,
                    response_bytes: resp.body.len() as u64,
                });
                if write_response(&mut stream, &resp, keep).is_err() || !keep {
                    return;
                }
            }
            Ok(NextRequest::Close) => return,
            Err(e) => {
                let resp = match e {
                    http::HttpError::BadRequest(msg) => {
                        error::error_response(400, "bad_request", &msg)
                    }
                    http::HttpError::BodyTooLarge { limit } => error::error_response(
                        413,
                        "body_too_large",
                        &format!("request body exceeds the {limit}-byte cap"),
                    ),
                    http::HttpError::HeadersTooLarge => error::error_response(
                        431,
                        "headers_too_large",
                        &format!("request head exceeds {} bytes", http::MAX_HEAD_BYTES),
                    ),
                    http::HttpError::NotImplemented(msg) => {
                        error::error_response(501, "not_implemented", &msg)
                    }
                };
                // Pre-route failures still count: a flood of 4xx parse
                // errors must show up in the status-class counters.
                let obs = shared.state.obs();
                obs.record(Endpoint::Other, resp.status, 0, resp.body.len() as u64);
                obs.access(&AccessRecord {
                    method: "-",
                    path: "-",
                    query: "",
                    status: resp.status,
                    seconds: 0.0,
                    request_bytes: 0,
                    response_bytes: resp.body.len() as u64,
                });
                // df-lint: allow(must-use-results) -- the connection closes either way; the error response is best effort
                let _ = write_response(&mut stream, &resp, false);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use client::Http1Client;

    fn axes() -> Vec<Axis> {
        vec![
            Axis::from_strs("y", &["no", "yes"]).unwrap(),
            Axis::from_strs("g", &["a", "b"]).unwrap(),
        ]
    }

    #[test]
    fn serves_health_schema_and_audit_over_tcp() {
        let server = Server::builder("y", axes())
            .window_seconds(100.0)
            .bucket_seconds(1.0)
            .shards(2)
            .workers(2)
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = Http1Client::connect(server.local_addr()).unwrap();

        let health = c.get("/v1/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert!(health.text().contains("\"status\":\"ok\""));

        let schema = c.get("/v1/schema").unwrap();
        assert_eq!(schema.status, 200);
        assert!(schema.text().contains("\"outcome\":\"y\""));
        assert!(schema.text().contains("\"labels\":[\"no\",\"yes\"]"));

        let posted = c
            .request(
                "POST",
                "/v1/ingest/records?at=5",
                &[("Content-Type", "application/json")],
                br#"[["no","a"],["yes","b"],["yes","a"],["no","b"]]"#,
            )
            .unwrap();
        assert_eq!(posted.status, 200, "{}", posted.text());
        assert!(posted.text().contains("\"accepted\":4"));

        let audit = c.get("/v1/audit").unwrap();
        assert_eq!(audit.status, 200);
        assert!(audit.text().contains("\"n_records\":4"));

        let monitor = c.get("/v1/monitor?format=text").unwrap();
        assert_eq!(monitor.status, 200);
        assert!(monitor.text().contains("records_seen: 4"));

        server.shutdown();
    }

    #[test]
    fn rejects_bad_rows_without_poisoning_the_fleet() {
        let server = Server::builder("y", axes())
            .window_seconds(100.0)
            .bucket_seconds(1.0)
            .workers(1)
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = Http1Client::connect(server.local_addr()).unwrap();

        // Unknown label → 400, nothing ingested.
        let bad = c
            .request(
                "POST",
                "/v1/ingest/records?at=5",
                &[],
                br#"[["maybe","a"]]"#,
            )
            .unwrap();
        assert_eq!(bad.status, 400);
        assert!(bad.text().contains("not a label"));

        // Wrong arity → 400.
        let bad = c
            .request("POST", "/v1/ingest/records?at=5", &[], br#"[["no"]]"#)
            .unwrap();
        assert_eq!(bad.status, 400);

        // The fleet still works.
        let ok = c
            .request("POST", "/v1/ingest/records?at=6", &[], br#"[["no","a"]]"#)
            .unwrap();
        assert_eq!(ok.status, 200);
        let audit = c.get("/v1/audit").unwrap();
        assert_eq!(audit.status, 200);
        assert!(audit.text().contains("\"n_records\":1"));
        server.shutdown();
    }

    #[test]
    fn csv_ingest_and_format_negotiation() {
        let server = Server::builder("y", axes())
            .window_seconds(100.0)
            .bucket_seconds(1.0)
            .workers(1)
            .bind("127.0.0.1:0")
            .unwrap();
        let mut c = Http1Client::connect(server.local_addr()).unwrap();
        let posted = c
            .request(
                "POST",
                "/v1/ingest/records?at=1",
                &[("Content-Type", "text/csv")],
                b"no,a\nyes,b\n",
            )
            .unwrap();
        assert_eq!(posted.status, 200, "{}", posted.text());

        let csv = c.get("/v1/audit?format=csv").unwrap();
        assert_eq!(csv.status, 200);
        assert_eq!(csv.header("content-type"), Some("text/csv"));
        assert!(csv.text().starts_with("protected attributes,"));

        let md = c
            .request("GET", "/v1/audit", &[("Accept", "text/markdown")], &[])
            .unwrap();
        assert_eq!(md.status, 200);
        assert!(md.text().contains("| protected attributes |"));

        let nope = c
            .request("GET", "/v1/audit", &[("Accept", "image/png")], &[])
            .unwrap();
        assert_eq!(nope.status, 406);
        server.shutdown();
    }
}
