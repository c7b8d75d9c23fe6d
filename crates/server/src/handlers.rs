//! The route table and the endpoint handlers.
//!
//! [`Endpoint::of`] is the one place a path names a route, and
//! [`route`] dispatches on the endpoint it returns: a method the endpoint
//! does not serve is a `405` naming the one it does, and a handler's
//! [`DfError`] becomes its typed response there, once. Read handlers are
//! renderers behind one cache: handler → core query over the merged
//! counts → format-negotiated rendering, with the heavy lifting delegated
//! to `df_core` (`Audit::of_counts`, `AuditReport` / `MonitorSnapshot`
//! renderers). Every JSON body is written straight into a
//! [`JsonWriter`], as the error bodies are.

use crate::error::{df_error_response, error_response};
use crate::http::{parse_query, query_param, Request, Response};
use crate::negotiate::{response_format, NegotiateError};
use crate::state::ServerState;
use df_core::builder::{Audit, Baselines, Empirical, PosteriorSup, Smoothed, SubsetPolicy};
use df_core::metric::metric_from_tag;
use df_core::monitor::MonitorSnapshot;
use df_core::report::ResponseFormat;
use df_core::JointCounts;
use df_core::{DfError, Result};
use serde_json::{JsonWriter, Serialize};
use std::time::Duration;

/// Most posterior draws one `/v1/audit` may ask for with `?samples=`
/// (default 200). The posterior estimator keeps every draw for the whole
/// request, so a larger value is a 400 before the audit runs.
const MAX_SAMPLES: u64 = 10_000;

/// The routes, which are also the telemetry label values. `Other`
/// absorbs 404s and requests that failed before routing (parse errors,
/// oversized bodies), so *every* response — error paths included — lands
/// in a status-class counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Endpoint {
    Healthz,
    Schema,
    Audit,
    Monitor,
    Metrics,
    Trace,
    IngestRecords,
    IngestSnapshot,
    Other,
}

impl Endpoint {
    pub(crate) const ALL: [Endpoint; 9] = [
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

    /// The route a request path names (method-independent: a 405 on
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

    /// The one method the route serves (`None`: no route).
    fn method(self) -> Option<&'static str> {
        match self {
            Endpoint::IngestRecords | Endpoint::IngestSnapshot => Some("POST"),
            Endpoint::Other => None,
            _ => Some("GET"),
        }
    }

    pub(crate) fn as_str(self) -> &'static str {
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

/// Answers one request to `endpoint`, the route its path names.
pub(crate) fn route(state: &ServerState, endpoint: Endpoint, req: &Request) -> Response {
    if let Some(allow) = endpoint.method().filter(|m| *m != req.method) {
        return error_response(405, "method_not_allowed", &format!("allowed: {allow}"))
            .with_header("Allow", allow);
    }
    let params = parse_query(&req.query);
    let params = params.as_slice();
    let answer = match endpoint {
        Endpoint::Healthz => Ok(healthz(state)),
        Endpoint::Schema => Ok(schema(state)),
        Endpoint::Audit => cached_read(state, req, params, |snap, format| {
            audit(snap, params, format)
        }),
        Endpoint::Monitor => cached_read(state, req, params, |snap, format| {
            // `?metric=` re-derives every statistic of the merged snapshot
            // under another fairness metric; the stored counts are
            // metric-agnostic, so this is a pure recompute.
            match query_param(params, "metric") {
                Some(tag) => snap.with_metric(tag, state.estimator())?.render(format),
                None => snap.render(format),
            }
        }),
        Endpoint::Metrics => Ok(metrics(state, params)),
        Endpoint::Trace => Ok(trace(state, params)),
        Endpoint::IngestRecords => ingest_records(state, req, params),
        Endpoint::IngestSnapshot => ingest_snapshot(state, req, params),
        Endpoint::Other => Ok(error_response(
            404,
            "not_found",
            &format!("no route for {} {}", req.method, req.path),
        )),
    };
    answer.unwrap_or_else(|e| df_error_response(&e))
}

/// A JSON object whose entries a closure writes: how a body, or an
/// object inside one, goes straight into the writer.
struct Object<F: Fn(&mut JsonWriter)>(F);

impl<F: Fn(&mut JsonWriter)> Serialize for Object<F> {
    fn serialize(&self, out: &mut JsonWriter) {
        out.begin_object();
        (self.0)(out);
        out.end_object();
    }
}

/// A `200` whose compact JSON object body `entries` writes.
fn json_response(entries: impl Fn(&mut JsonWriter)) -> Response {
    let mut out = JsonWriter::compact();
    Object(entries).serialize(&mut out);
    Response::new(200, "application/json", out.finish().into_bytes())
}

fn healthz(state: &ServerState) -> Response {
    let fleet = state.fleet_telemetry();
    json_response(|out| {
        out.field("status", "ok");
        out.field("version", &state.version());
        out.field("shards", &state.shards());
        out.field("build", env!("CARGO_PKG_VERSION"));
        out.field("uptime_seconds", &state.obs().uptime_seconds());
        out.key("queue_depths");
        out.begin_array();
        for shard in fleet.shards() {
            out.element(&shard.queue_depth());
        }
        out.end_array();
        out.field("max_lag_seconds", &fleet.max_lag_seconds());
    })
}

/// `GET /v1/metrics`: the registry scrape. Prometheus text by default,
/// `?format=json` for the structured rendering. Deliberately outside the
/// version-keyed response caches: a scrape must always see live values.
fn metrics(state: &ServerState, params: &[(String, String)]) -> Response {
    match query_param(params, "format") {
        None | Some("text") | Some("prometheus") => Response::new(
            200,
            "text/plain; version=0.0.4",
            state.obs().registry().render_text().into_bytes(),
        ),
        Some("json") => Response::new(
            200,
            "application/json",
            state.obs().registry().render_json().into_bytes(),
        ),
        Some(other) => error_response(
            400,
            "unknown_format",
            &format!("`{other}` is not a metrics format (text, prometheus, json)"),
        ),
    }
}

/// `GET /v1/trace`: recent (default) or slowest (`?order=slowest`)
/// request spans from the ring, newest last, at most `?n=` (default 20).
fn trace(state: &ServerState, params: &[(String, String)]) -> Response {
    let Some(ring) = state.obs().trace_ring() else {
        return json_response(|out| {
            out.field("enabled", &false);
            out.key("spans");
            out.begin_array();
            out.end_array();
        });
    };
    let n = match query_param(params, "n") {
        None => 20,
        Some(raw) => match raw.parse() {
            Ok(n) => n,
            Err(_) => {
                return error_response(
                    400,
                    "bad_parameter",
                    &format!("`{raw}` is not a non-negative integer"),
                )
            }
        },
    };
    let spans = match query_param(params, "order") {
        None | Some("recent") => {
            let mut recent = ring.recent();
            if recent.len() > n {
                recent.drain(..recent.len() - n);
            }
            recent
        }
        Some("slowest") => ring.slowest(n),
        Some(other) => {
            return error_response(
                400,
                "unknown_order",
                &format!("`{other}` is not a span order (recent, slowest)"),
            )
        }
    };
    json_response(|out| {
        out.field("enabled", &true);
        out.field("capacity", &ring.capacity());
        out.field("dropped", &ring.dropped());
        out.key("spans");
        out.begin_array();
        for span in &spans {
            out.element(&Object(|out: &mut JsonWriter| {
                out.field("name", &span.name);
                out.field("start_seconds", &(span.start_nanos as f64 * 1e-9));
                out.field("duration_seconds", &(span.duration_nanos as f64 * 1e-9));
                out.key("fields");
                out.begin_object();
                for (key, value) in &span.fields {
                    out.key(key);
                    out.str(value);
                }
                out.end_object();
            }));
        }
        out.end_array();
    })
}

/// `GET /v1/schema`: the configuration, as the reference snapshot records
/// it, with the catalog's vocabularies.
fn schema(state: &ServerState) -> Response {
    let config = state.reference();
    json_response(|out| {
        out.field("outcome", &config.outcome_axis);
        out.key("axes");
        out.begin_array();
        for (name, labels) in &config.window.axes {
            out.element(&Object(|out: &mut JsonWriter| {
                out.field("name", name);
                out.field("labels", labels);
            }));
        }
        out.end_array();
        out.field("estimator", &config.estimator);
        out.field("metric", &config.metric);
        out.field("window_seconds", &config.window_seconds);
        out.field("bucket_seconds", &config.bucket_seconds);
        out.field("decay", &config.decay);
        out.field("shards", &state.shards());
        out.field("version", &state.version());
        out.field(
            "formats",
            ResponseFormat::ALL.map(ResponseFormat::name).as_slice(),
        );
    })
}

/// Resolves the negotiated format or the error response to send instead.
fn negotiated(
    req: &Request,
    params: &[(String, String)],
) -> std::result::Result<ResponseFormat, Response> {
    response_format(req, params).map_err(|e| match e {
        NegotiateError::UnknownFormat(name) => error_response(
            400,
            "unknown_format",
            &format!("`{name}` is not a response format (json, csv, markdown, text)"),
        ),
        NegotiateError::NotAcceptable(accept) => error_response(
            406,
            "not_acceptable",
            &format!("cannot satisfy Accept: {accept}; offered: application/json, text/csv, text/markdown, text/plain"),
        ),
    })
}

fn parse_f64(params: &[(String, String)], name: &str, default: f64) -> Result<f64> {
    match query_param(params, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse::<f64>()
            .map_err(|_| DfError::Invalid(format!("`{raw}` is not a number for `{name}`"))),
    }
}

fn parse_u64(params: &[(String, String)], name: &str, default: u64) -> Result<u64> {
    match query_param(params, name) {
        None => Ok(default),
        Some(raw) => raw
            .parse::<u64>()
            .map_err(|_| DfError::Invalid(format!("`{raw}` is not an integer for `{name}`"))),
    }
}

/// A read of the merged fleet snapshot in the negotiated format: the
/// cached bytes while no ingest has landed since they were rendered,
/// else `render`'s, stored for the next read. The cut waits at most
/// `?timeout_ms=` (default: the server's snapshot timeout).
fn cached_read(
    state: &ServerState,
    req: &Request,
    params: &[(String, String)],
    render: impl FnOnce(&MonitorSnapshot, ResponseFormat) -> Result<String>,
) -> Result<Response> {
    let format = match negotiated(req, params) {
        Ok(f) => f,
        Err(resp) => return Ok(resp),
    };
    let default = state.snapshot_timeout().as_millis() as u64;
    let timeout = Duration::from_millis(parse_u64(params, "timeout_ms", default)?);
    let (version, snap) = state.merged_cached(timeout)?;
    let key = format!("{}?{}#{}", req.path, req.query, format.name());
    if let Some(resp) = state.cached_response(version, &key) {
        return Ok(resp);
    }
    let resp = Response::new(200, format.mime(), render(&snap, format)?.into_bytes());
    state.store_response(version, &key, &resp);
    Ok(resp)
}

/// `GET /v1/audit`: a full batch audit over the merged fleet counts,
/// parameterized by query string. With no parameters, byte-identical to
/// `Audit::of_counts(window counts).run()` — the default estimators and
/// subset policy of the builder itself.
fn audit(
    snap: &MonitorSnapshot,
    params: &[(String, String)],
    format: ResponseFormat,
) -> Result<String> {
    let table = match query_param(params, "window").unwrap_or("sliding") {
        "sliding" => snap.window.to_table()?,
        "decayed" => snap
            .decayed
            .as_ref()
            .ok_or_else(|| {
                DfError::Invalid("window=decayed needs a server configured with decay".into())
            })?
            .to_table()?,
        other => {
            return Err(DfError::Invalid(format!(
                "`{other}` is not a window (sliding, decayed)"
            )))
        }
    };
    let mut counts = JointCounts::from_table(table, &snap.outcome_axis)?;
    if let Some(attrs) = query_param(params, "attrs") {
        let names: Vec<&str> = attrs
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .collect();
        if names.is_empty() {
            return Err(DfError::Invalid("attrs= names no attributes".into()));
        }
        counts = counts.marginal_to(&names)?;
    }

    let mut audit = Audit::of_counts(counts)?;
    let alpha = parse_f64(params, "alpha", 1.0)?;
    let samples = parse_u64(params, "samples", 200)?;
    if samples > MAX_SAMPLES {
        return Err(DfError::Invalid(format!(
            "`samples` must be at most {MAX_SAMPLES}, got {samples}"
        )));
    }
    let seed = parse_u64(params, "seed", 0)?;
    for (_, value) in params.iter().filter(|(k, _)| k == "estimator") {
        audit = match value.as_str() {
            "empirical" => audit.estimator(Empirical),
            "smoothed" => audit.estimator(Smoothed { alpha }),
            "posterior" | "posterior-sup" | "posterior_sup" => audit.estimator(PosteriorSup {
                alpha,
                samples: samples as usize,
                seed,
            }),
            other => {
                return Err(DfError::Invalid(format!(
                    "`{other}` is not an estimator (empirical, smoothed, posterior)"
                )))
            }
        };
    }
    if let Some(tag) = query_param(params, "metric") {
        audit = audit.boxed_metric(metric_from_tag(tag)?);
    }
    if let Some(policy) = query_param(params, "subsets") {
        audit = audit.subsets(parse_subsets(policy)?);
    }
    if let Some(label) = query_param(params, "positive") {
        audit = audit.baselines(Baselines::all().positive(label));
    }
    audit.run()?.render(format)
}

fn parse_subsets(policy: &str) -> Result<SubsetPolicy> {
    match policy {
        "all" => Ok(SubsetPolicy::All),
        "none" => Ok(SubsetPolicy::None),
        other => match other.strip_prefix("upto:").and_then(|k| k.parse().ok()) {
            Some(size) => Ok(SubsetPolicy::UpTo { size }),
            None => Err(DfError::Invalid(format!(
                "`{other}` is not a subset policy (all, none, upto:K)"
            ))),
        },
    }
}

/// `POST /v1/ingest/records`: a batch of labelled records, as a JSON
/// array of label rows (or `{"rows": […], "at": t}`) or a `text/csv`
/// body. Timestamp precedence: `?at=` query, then the JSON `at` field,
/// then the server wall clock. `?shard=` pins a shard; otherwise rows
/// round-robin.
fn ingest_records(
    state: &ServerState,
    req: &Request,
    params: &[(String, String)],
) -> Result<Response> {
    let content_type = req
        .header("content-type")
        .map(|c| {
            c.split(';')
                .next()
                .unwrap_or("")
                .trim()
                .to_ascii_lowercase()
        })
        .unwrap_or_else(|| "application/json".to_string());
    let catalog = state.catalog();
    let (chunk, body_at) = match content_type.as_str() {
        "application/json" | "text/json" | "" => catalog.decode_json(&req.body)?,
        "text/csv" | "application/csv" => (catalog.decode_csv(&req.body)?, None),
        other => {
            return Ok(error_response(
                415,
                "unsupported_media_type",
                &format!("`{other}` is not an ingest body type (application/json, text/csv)"),
            ))
        }
    };
    let at = match query_param(params, "at") {
        Some(raw) => raw
            .parse::<f64>()
            .map_err(|_| DfError::Invalid(format!("`{raw}` is not a timestamp for `at`")))?,
        None => body_at.unwrap_or_else(|| state.now_unix()),
    };
    let shard =
        match query_param(params, "shard") {
            Some(raw) => Some(raw.parse::<usize>().map_err(|_| {
                DfError::Invalid(format!("`{raw}` is not a shard index for `shard`"))
            })?),
            None => None,
        };
    let (accepted, shard) = state.ingest_chunk(chunk, at, shard)?;
    Ok(json_response(|out| {
        out.field("accepted", &accepted);
        out.field("shard", &shard);
        out.field("at", &at);
        out.field("version", &state.version());
    }))
}

/// `POST /v1/ingest/snapshot`: one binary `DFLT` frame from a remote
/// replica (`?replica=` names it; last write wins). The frame is decoded
/// and schema-checked at the door; a corrupt frame is a `400` with the
/// typed `corrupt_counts` error.
fn ingest_snapshot(
    state: &ServerState,
    req: &Request,
    params: &[(String, String)],
) -> Result<Response> {
    let replica = query_param(params, "replica").unwrap_or("default");
    let (records_seen, window_rows) = state.ingest_snapshot(&req.body, replica)?;
    Ok(json_response(|out| {
        out.field("replica", replica);
        out.field("records_seen", &records_seen);
        out.field("window_rows", &window_rows);
        out.field("version", &state.version());
    }))
}
