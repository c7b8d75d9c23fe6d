//! The router and endpoint handlers.
//!
//! The pipeline mirrors the OLAP-server shape: handler → core query over
//! the merged counts → format-negotiated rendering, with the heavy
//! lifting delegated to `df_core` (`Audit::of_counts`, `AuditReport` /
//! `MonitorSnapshot` renderers) so the handlers stay a thin mapping from
//! query strings to builder calls.

use crate::error::{df_error_response, error_response};
use crate::http::{parse_query, query_param, Request, Response};
use crate::negotiate::{response_format, NegotiateError};
use crate::state::ServerState;
use df_core::builder::{Audit, Baselines, Empirical, PosteriorSup, Smoothed, SubsetPolicy};
use df_core::metric::metric_from_tag;
use df_core::report::ResponseFormat;
use df_core::JointCounts;
use df_core::{DfError, Result};
use serde_json::Value;
use std::time::Duration;

/// Most posterior draws one `/v1/audit` may ask for with `?samples=`
/// (default 200). The posterior estimator keeps every draw for the whole
/// request, so a larger value is a 400 before the audit runs.
const MAX_SAMPLES: u64 = 10_000;

/// Dispatches one request to its handler.
pub fn route(state: &ServerState, req: &Request) -> Response {
    let params = parse_query(&req.query);
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/healthz") => healthz(state),
        ("GET", "/v1/schema") => schema(state),
        ("GET", "/v1/audit") => audit(state, req, &params),
        ("GET", "/v1/monitor") => monitor(state, req, &params),
        ("GET", "/v1/metrics") => metrics(state, &params),
        ("GET", "/v1/trace") => trace(state, &params),
        ("POST", "/v1/ingest/records") => ingest_records(state, req, &params),
        ("POST", "/v1/ingest/snapshot") => ingest_snapshot(state, req, &params),
        (
            _,
            "/v1/healthz" | "/v1/schema" | "/v1/audit" | "/v1/monitor" | "/v1/metrics"
            | "/v1/trace",
        ) => not_allowed("GET"),
        (_, "/v1/ingest/records" | "/v1/ingest/snapshot") => not_allowed("POST"),
        _ => error_response(
            404,
            "not_found",
            &format!("no route for {} {}", req.method, req.path),
        ),
    }
}

fn not_allowed(allow: &str) -> Response {
    error_response(405, "method_not_allowed", &format!("allowed: {allow}"))
        .with_header("Allow", allow)
}

fn json_response(value: &Value) -> Response {
    let body = serde_json::to_string(value)
        .unwrap_or_default()
        .into_bytes();
    Response::new(200, "application/json", body)
}

fn healthz(state: &ServerState) -> Response {
    let fleet = state.fleet_telemetry();
    let depths = fleet
        .shards()
        .iter()
        .map(|s| int(s.queue_depth()))
        .collect();
    json_response(&Value::Obj(vec![
        ("status".to_string(), Value::Str("ok".to_string())),
        ("version".to_string(), int(state.version())),
        ("shards".to_string(), int(state.shards() as u64)),
        (
            "build".to_string(),
            Value::Str(env!("CARGO_PKG_VERSION").to_string()),
        ),
        (
            "uptime_seconds".to_string(),
            Value::Float(state.obs().uptime_seconds()),
        ),
        ("queue_depths".to_string(), Value::Arr(depths)),
        (
            "max_lag_seconds".to_string(),
            Value::Float(fleet.max_lag_seconds()),
        ),
    ]))
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
        return json_response(&Value::Obj(vec![
            ("enabled".to_string(), Value::Bool(false)),
            ("spans".to_string(), Value::Arr(Vec::new())),
        ]));
    };
    let n = match query_param(params, "n").map(parse_usize) {
        None => 20,
        Some(Ok(n)) => n,
        Some(Err(resp)) => return *resp,
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
    let spans = spans
        .into_iter()
        .map(|s| {
            Value::Obj(vec![
                ("name".to_string(), Value::Str(s.name)),
                (
                    "start_seconds".to_string(),
                    Value::Float(s.start_nanos as f64 * 1e-9),
                ),
                (
                    "duration_seconds".to_string(),
                    Value::Float(s.duration_nanos as f64 * 1e-9),
                ),
                (
                    "fields".to_string(),
                    Value::Obj(
                        s.fields
                            .into_iter()
                            .map(|(k, v)| (k, Value::Str(v)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    json_response(&Value::Obj(vec![
        ("enabled".to_string(), Value::Bool(true)),
        ("capacity".to_string(), int(ring.capacity() as u64)),
        ("dropped".to_string(), int(ring.dropped())),
        ("spans".to_string(), Value::Arr(spans)),
    ]))
}

fn parse_usize(raw: &str) -> std::result::Result<usize, Box<Response>> {
    raw.parse().map_err(|_| {
        Box::new(error_response(
            400,
            "bad_parameter",
            &format!("`{raw}` is not a non-negative integer"),
        ))
    })
}

fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

fn schema(state: &ServerState) -> Response {
    let axes = state
        .axes()
        .iter()
        .map(|a| {
            Value::Obj(vec![
                ("name".to_string(), Value::Str(a.name().to_string())),
                (
                    "labels".to_string(),
                    Value::Arr(a.labels().iter().cloned().map(Value::Str).collect()),
                ),
            ])
        })
        .collect();
    let (window, bucket, decay) = state.window_config();
    json_response(&Value::Obj(vec![
        (
            "outcome".to_string(),
            Value::Str(state.outcome().to_string()),
        ),
        ("axes".to_string(), Value::Arr(axes)),
        ("estimator".to_string(), Value::Str(state.estimator_name())),
        ("metric".to_string(), Value::Str(state.metric_tag())),
        ("window_seconds".to_string(), Value::Float(window)),
        ("bucket_seconds".to_string(), Value::Float(bucket)),
        ("decay".to_string(), decay.map_or(Value::Null, Value::Float)),
        ("shards".to_string(), int(state.shards() as u64)),
        ("version".to_string(), int(state.version())),
        (
            "formats".to_string(),
            Value::Arr(
                ResponseFormat::ALL
                    .iter()
                    .map(|f| Value::Str(f.name().to_string()))
                    .collect(),
            ),
        ),
    ]))
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

fn snapshot_timeout(state: &ServerState, params: &[(String, String)]) -> Result<Duration> {
    let default = state.snapshot_timeout().as_millis() as u64;
    Ok(Duration::from_millis(parse_u64(
        params,
        "timeout_ms",
        default,
    )?))
}

/// `GET /v1/audit`: a full batch audit over the merged fleet counts,
/// parameterized by query string. With no parameters, byte-identical to
/// `Audit::of_counts(window counts).run()` — the default estimators and
/// subset policy of the builder itself.
fn audit(state: &ServerState, req: &Request, params: &[(String, String)]) -> Response {
    let format = match negotiated(req, params) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    match audit_inner(state, req, params, format) {
        Ok(resp) => resp,
        Err(e) => df_error_response(&e),
    }
}

fn audit_inner(
    state: &ServerState,
    req: &Request,
    params: &[(String, String)],
    format: ResponseFormat,
) -> Result<Response> {
    let timeout = snapshot_timeout(state, params)?;
    let (version, snap) = state.merged_cached(timeout)?;
    let key = format!("{}?{}#{}", req.path, req.query, format.name());
    if let Some(resp) = state.cached_response(version, &key) {
        return Ok(resp);
    }

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
    let mut counts = JointCounts::from_table(table, state.outcome())?;
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
    let report = audit.run()?;
    let resp = Response::new(200, format.mime(), report.render(format)?.into_bytes());
    state.store_response(version, &key, &resp);
    Ok(resp)
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

/// `GET /v1/monitor`: the merged [`df_core::monitor::MonitorSnapshot`] —
/// windowed ε, trend, alerts, change-point alarms — in the negotiated
/// format.
fn monitor(state: &ServerState, req: &Request, params: &[(String, String)]) -> Response {
    let format = match negotiated(req, params) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    let inner = || -> Result<Response> {
        let timeout = snapshot_timeout(state, params)?;
        let (version, snap) = state.merged_cached(timeout)?;
        let key = format!("{}?{}#{}", req.path, req.query, format.name());
        if let Some(resp) = state.cached_response(version, &key) {
            return Ok(resp);
        }
        // `?metric=` re-derives every statistic of the merged snapshot
        // under another fairness metric; the stored counts are
        // metric-agnostic, so this is a pure recompute.
        let rendered = match query_param(params, "metric") {
            Some(tag) => snap.with_metric(tag, state.estimator())?.render(format)?,
            None => snap.render(format)?,
        };
        let resp = Response::new(200, format.mime(), rendered.into_bytes());
        state.store_response(version, &key, &resp);
        Ok(resp)
    };
    inner().unwrap_or_else(|e| df_error_response(&e))
}

/// `POST /v1/ingest/records`: a batch of labelled records, as a JSON
/// array of label rows (or `{"rows": […], "at": t}`) or a `text/csv`
/// body. Timestamp precedence: `?at=` query, then the JSON `at` field,
/// then the server wall clock. `?shard=` pins a shard; otherwise rows
/// round-robin.
fn ingest_records(state: &ServerState, req: &Request, params: &[(String, String)]) -> Response {
    match ingest_records_inner(state, req, params) {
        Ok(resp) => resp,
        Err(e) => df_error_response(&e),
    }
}

fn ingest_records_inner(
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
    Ok(json_response(&Value::Obj(vec![
        ("accepted".to_string(), int(accepted as u64)),
        ("shard".to_string(), int(shard as u64)),
        ("at".to_string(), Value::Float(at)),
        ("version".to_string(), int(state.version())),
    ])))
}

/// `POST /v1/ingest/snapshot`: one binary `DFLT` frame from a remote
/// replica (`?replica=` names it; last write wins). The frame is decoded
/// and schema-checked at the door; a corrupt frame is a `400` with the
/// typed `corrupt_counts` error.
fn ingest_snapshot(state: &ServerState, req: &Request, params: &[(String, String)]) -> Response {
    let replica = query_param(params, "replica").unwrap_or("default");
    match state.ingest_snapshot(&req.body, replica) {
        Ok((records_seen, window_rows)) => json_response(&Value::Obj(vec![
            ("replica".to_string(), Value::Str(replica.to_string())),
            ("records_seen".to_string(), int(records_seen)),
            ("window_rows".to_string(), int(window_rows)),
            ("version".to_string(), int(state.version())),
        ])),
        Err(e) => df_error_response(&e),
    }
}
