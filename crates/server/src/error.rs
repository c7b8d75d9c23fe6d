//! Mapping from [`DfError`] (and HTTP-layer failures) to typed HTTP
//! responses with JSON bodies.
//!
//! Every error body has the same shape:
//! `{"error": {"status": 400, "kind": "corrupt_counts", "message": "…"}}`
//! so clients can switch on `kind` without parsing prose.

use crate::http::Response;
use df_core::DfError;
use serde_json::JsonWriter;

/// Builds the canonical JSON error body.
pub fn error_body(status: u16, kind: &str, message: &str) -> Vec<u8> {
    let mut out = JsonWriter::compact();
    out.begin_object();
    out.key("error");
    out.begin_object();
    out.field("status", &status);
    out.field("kind", kind);
    out.field("message", message);
    out.end_object();
    out.end_object();
    out.finish().into_bytes()
}

/// An error response with the canonical JSON body.
pub fn error_response(status: u16, kind: &str, message: &str) -> Response {
    Response::new(
        status,
        "application/json",
        error_body(status, kind, message),
    )
}

/// The `(status, kind)` a [`DfError`] maps to: domain validation errors
/// are client errors (`400`), a bounded-wait expiry is `503` (the fleet
/// is alive but didn't answer in time — retrying is safe and correct).
pub fn classify(err: &DfError) -> (u16, &'static str) {
    match err {
        DfError::CorruptCounts { .. } => (400, "corrupt_counts"),
        DfError::UnknownAttribute(_) => (400, "unknown_attribute"),
        DfError::NotEnoughCategories { .. } => (400, "not_enough_categories"),
        DfError::Prob(_) => (400, "probability"),
        DfError::Invalid(_) => (400, "invalid"),
        DfError::Timeout { .. } => (503, "timeout"),
    }
}

/// Renders a [`DfError`] as its typed HTTP response.
pub fn df_error_response(err: &DfError) -> Response {
    let (status, kind) = classify(err);
    let resp = error_response(status, kind, &err.to_string());
    if status == 503 {
        resp.with_header("Retry-After", "1")
    } else {
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_counts_maps_to_400_with_typed_kind() {
        let err = DfError::CorruptCounts {
            cell: 2,
            value: -1.0,
        };
        let resp = df_error_response(&err);
        assert_eq!(resp.status, 400);
        let body = String::from_utf8(resp.body).unwrap();
        assert!(body.contains("\"kind\":\"corrupt_counts\""));
        assert!(body.contains("\"status\":400"));
    }

    #[test]
    fn timeout_maps_to_503_with_retry_after() {
        let err = DfError::Timeout {
            what: "fleet snapshot",
            waited_ms: 100,
        };
        let resp = df_error_response(&err);
        assert_eq!(resp.status, 503);
        assert!(resp.extra_headers.iter().any(|(k, _)| k == "Retry-After"));
    }

    #[test]
    fn error_bodies_escape_messages() {
        let body = String::from_utf8(error_body(400, "invalid", "bad \"label\"\n")).unwrap();
        assert!(body.contains("bad \\\"label\\\"\\n"));
    }
}
