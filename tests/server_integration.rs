//! End-to-end tests for the `df-server` audit service over real TCP:
//!
//! 1. **Concurrent ingest ≡ batch audit.** N client threads POST
//!    interleaved JSON/CSV record chunks and binary `DFLT` snapshot
//!    frames; afterwards `GET /v1/audit` returns JSON byte-identical to
//!    a batch [`Audit`] over the union of the same records — the
//!    server's consistent-cut merge and renderer add nothing and lose
//!    nothing.
//! 2. **Parameterized queries.** Estimator, subset-lattice, baseline,
//!    and marginalization query parameters reproduce the matching
//!    builder calls byte-for-byte.
//! 3. **Content negotiation.** All four formats via `?format=` and
//!    `Accept`, with `400`/`406` on the failure paths.
//! 4. **Malformed HTTP.** Truncated request lines, oversized bodies,
//!    bad `Content-Length`, unknown routes, wrong methods, oversized
//!    header blocks, chunked transfer encoding, and corrupt `DFLT`
//!    frames all map to their typed statuses over a raw socket.
//! 5. **Hostile bodies.** Megabyte-long labels are refused in linear
//!    time and leave ingest healthy.

use differential_fairness::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

fn axes() -> Vec<Axis> {
    vec![
        Axis::from_strs("y", &["no", "yes"]).unwrap(),
        Axis::from_strs("g", &["a", "b"]).unwrap(),
        Axis::from_strs("r", &["u", "v"]).unwrap(),
    ]
}

fn server() -> Server {
    Server::builder("y", axes())
        .window_seconds(1e6)
        .bucket_seconds(1.0)
        .shards(3)
        .workers(4)
        .bind("127.0.0.1:0")
        .unwrap()
}

/// Deterministic label row for global record index `i`.
fn row(i: usize) -> Vec<String> {
    let y = ["no", "yes"][i % 2];
    let g = ["a", "b"][(i / 2) % 2];
    let r = ["u", "v"][(i / 3) % 2];
    vec![y.to_string(), g.to_string(), r.to_string()]
}

/// A replica-side monitor configured identically to [`server`].
fn replica_monitor() -> FairnessMonitor {
    Audit::monitor("y", axes())
        .estimator(Smoothed { alpha: 1.0 })
        .window_seconds(1e6)
        .bucket_seconds(1.0)
        .subsets(SubsetPolicy::None)
        .build()
        .unwrap()
}

fn json_chunk(rows: &[Vec<String>], at: f64) -> Vec<u8> {
    let rows = rows
        .iter()
        .map(|r| {
            format!(
                "[{}]",
                r.iter()
                    .map(|l| format!("\"{l}\""))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"rows\": [{rows}], \"at\": {at}}}").into_bytes()
}

fn csv_chunk(rows: &[Vec<String>]) -> Vec<u8> {
    rows.iter()
        .map(|r| r.join(","))
        .collect::<Vec<_>>()
        .join("\n")
        .into_bytes()
}

/// The batch-side comparator: tally `rows` into a contingency table with
/// the server's schema and run the same default audit the endpoint runs.
fn batch_audit_json(rows: &[Vec<String>]) -> String {
    let mut table = ContingencyTable::zeros(axes()).unwrap();
    for r in rows {
        let labels: Vec<&str> = r.iter().map(String::as_str).collect();
        table.increment_by_labels(&labels).unwrap();
    }
    let report = Audit::of_counts(JointCounts::from_table(table, "y").unwrap())
        .unwrap()
        .run()
        .unwrap();
    serde_json::to_string(&report).unwrap()
}

/// Acceptance E2E: 4 record clients (alternating JSON and CSV chunks)
/// plus 2 snapshot replicas POST concurrently over TCP; the audit the
/// server then serves is byte-identical to a batch audit over the union
/// of everything ingested.
#[test]
fn concurrent_ingest_matches_batch_audit_byte_for_byte() {
    let server = server();
    let addr = server.local_addr();

    // Four record-posting clients, six chunks of ten rows each.
    let mut handles = Vec::new();
    for client_id in 0..4usize {
        handles.push(thread::spawn(move || {
            let mut c = Http1Client::connect(addr).unwrap();
            for chunk in 0..6usize {
                let rows: Vec<Vec<String>> = (0..10)
                    .map(|j| row(client_id * 100 + chunk * 10 + j))
                    .collect();
                let at = 1000.0 + chunk as f64;
                let resp = if chunk % 2 == 0 {
                    c.request(
                        "POST",
                        "/v1/ingest/records",
                        &[("Content-Type", "application/json")],
                        &json_chunk(&rows, at),
                    )
                    .unwrap()
                } else {
                    c.request(
                        "POST",
                        &format!("/v1/ingest/records?at={at}"),
                        &[("Content-Type", "text/csv")],
                        &csv_chunk(&rows),
                    )
                    .unwrap()
                };
                assert_eq!(resp.status, 200, "{}", resp.text());
            }
        }));
    }

    // Two snapshot replicas, each POSTing cumulative DFLT frames (delta
    // frames after the first — the decoder interns the schema).
    for (replica_id, replica) in ["alpha", "beta"].into_iter().enumerate() {
        handles.push(thread::spawn(move || {
            let mut c = Http1Client::connect(addr).unwrap();
            let mut monitor = replica_monitor();
            let mut encoder = SnapshotEncoder::new();
            for chunk in 0..5usize {
                let rows: Vec<Vec<String>> = (0..8)
                    .map(|j| row(1000 + replica_id * 100 + chunk * 8 + j))
                    .collect();
                monitor
                    .push_at(&LabelChunk::new(rows), 1000.0 + chunk as f64)
                    .unwrap();
                let frame = encoder.encode(&monitor.snapshot().unwrap()).unwrap();
                let resp = c
                    .request(
                        "POST",
                        &format!("/v1/ingest/snapshot?replica={replica}"),
                        &[("Content-Type", "application/octet-stream")],
                        &frame,
                    )
                    .unwrap();
                assert_eq!(resp.status, 200, "{}", resp.text());
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // The union the server should now hold: every HTTP row plus the
    // final (cumulative) state of each replica.
    let mut expected_rows: Vec<Vec<String>> = Vec::new();
    for client_id in 0..4usize {
        for chunk in 0..6usize {
            expected_rows.extend((0..10).map(|j| row(client_id * 100 + chunk * 10 + j)));
        }
    }
    for replica_id in 0..2usize {
        expected_rows.extend((0..40).map(|j| row(1000 + replica_id * 100 + j)));
    }

    let mut c = Http1Client::connect(addr).unwrap();
    let audit = c.get("/v1/audit").unwrap();
    assert_eq!(audit.status, 200, "{}", audit.text());
    assert_eq!(audit.header("content-type"), Some("application/json"));
    assert_eq!(audit.text(), batch_audit_json(&expected_rows));

    // The warm path serves the identical bytes again.
    let again = c.get("/v1/audit").unwrap();
    assert_eq!(again.text(), audit.text());

    // Monitor totals agree with the union.
    let monitor = c.get("/v1/monitor").unwrap();
    assert_eq!(monitor.status, 200);
    assert!(monitor
        .text()
        .contains(&format!("\"records_seen\":{}", expected_rows.len())));

    server.shutdown();
}

#[test]
fn query_parameters_reproduce_builder_calls() {
    let server = server();
    let mut c = Http1Client::connect(server.local_addr()).unwrap();
    let rows: Vec<Vec<String>> = (0..60).map(row).collect();
    let posted = c
        .request(
            "POST",
            "/v1/ingest/records?at=1000",
            &[("Content-Type", "application/json")],
            &json_chunk(&rows, 1000.0),
        )
        .unwrap();
    assert_eq!(posted.status, 200, "{}", posted.text());

    let mut table = ContingencyTable::zeros(axes()).unwrap();
    for r in &rows {
        let labels: Vec<&str> = r.iter().map(String::as_str).collect();
        table.increment_by_labels(&labels).unwrap();
    }
    let counts = JointCounts::from_table(table, "y").unwrap();

    // estimator/subsets/positive parameters ≡ the same builder calls.
    let expected = Audit::of_counts(counts.clone())
        .unwrap()
        .estimator(Empirical)
        .estimator(Smoothed { alpha: 0.5 })
        .subsets(SubsetPolicy::All)
        .baselines(Baselines::all().positive("yes"))
        .run()
        .unwrap();
    let got = c
        .get("/v1/audit?estimator=empirical&estimator=smoothed&alpha=0.5&subsets=all&positive=yes")
        .unwrap();
    assert_eq!(got.status, 200, "{}", got.text());
    assert_eq!(got.text(), serde_json::to_string(&expected).unwrap());

    // attrs= marginalizes before auditing.
    let expected = Audit::of_counts(counts.marginal_to(&["g"]).unwrap())
        .unwrap()
        .run()
        .unwrap();
    let got = c.get("/v1/audit?attrs=g").unwrap();
    assert_eq!(got.status, 200, "{}", got.text());
    assert_eq!(got.text(), serde_json::to_string(&expected).unwrap());

    // A posterior-sup estimator is accepted and deterministic per seed.
    let a = c
        .get("/v1/audit?estimator=posterior&samples=50&seed=7")
        .unwrap();
    let b = c
        .get("/v1/audit?estimator=posterior&samples=50&seed=7")
        .unwrap();
    assert_eq!(a.status, 200, "{}", a.text());
    assert_eq!(a.text(), b.text());

    // window=decayed without decay configured is a clean 400.
    let got = c.get("/v1/audit?window=decayed").unwrap();
    assert_eq!(got.status, 400);
    assert!(got.text().contains("\"kind\":\"invalid\""));

    server.shutdown();
}

#[test]
fn all_formats_negotiate_over_both_channels() {
    let server = server();
    let mut c = Http1Client::connect(server.local_addr()).unwrap();
    let rows: Vec<Vec<String>> = (0..24).map(row).collect();
    c.request(
        "POST",
        "/v1/ingest/records?at=1000",
        &[],
        &json_chunk(&rows, 1000.0),
    )
    .unwrap();

    for (format, mime, needle) in [
        ("json", "application/json", "\"epsilon\""),
        ("csv", "text/csv", "protected attributes,"),
        ("markdown", "text/markdown", "| protected attributes |"),
        ("text", "text/plain; charset=utf-8", "records audited: 24"),
    ] {
        let via_param = c.get(&format!("/v1/audit?format={format}")).unwrap();
        assert_eq!(via_param.status, 200, "{}", via_param.text());
        assert_eq!(via_param.header("content-type"), Some(mime));
        assert!(
            via_param
                .text()
                .to_lowercase()
                .contains(&needle.to_lowercase()),
            "format {format}: {}",
            via_param.text()
        );

        let accept = mime.split(';').next().unwrap();
        let via_accept = c
            .request("GET", "/v1/audit", &[("Accept", accept)], &[])
            .unwrap();
        assert_eq!(via_accept.status, 200);
        assert_eq!(via_accept.text(), via_param.text());
    }

    // The monitor negotiates the same four formats.
    for format in ["json", "csv", "markdown", "text"] {
        let resp = c.get(&format!("/v1/monitor?format={format}")).unwrap();
        assert_eq!(resp.status, 200, "format {format}: {}", resp.text());
    }
    let csv = c.get("/v1/monitor?format=csv").unwrap();
    assert!(csv.text().starts_with("y,g,r,count\n"), "{}", csv.text());
    assert!(csv.text().contains("records_seen,24"), "{}", csv.text());

    // Failure paths: unknown ?format= is 400, unsatisfiable Accept is 406.
    let bad = c.get("/v1/audit?format=yaml").unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.text().contains("\"kind\":\"unknown_format\""));
    let nope = c
        .request("GET", "/v1/audit", &[("Accept", "image/png")], &[])
        .unwrap();
    assert_eq!(nope.status, 406);
    assert!(nope.text().contains("\"kind\":\"not_acceptable\""));

    server.shutdown();
}

/// `?metric=` selects a registry metric per query: the audit bytes
/// reproduce the matching `boxed_metric` builder call, the monitor bytes
/// reproduce a local `with_metric` re-derivation, both render in all
/// four formats, and an unknown metric name is the typed 400.
#[test]
fn metric_queries_reproduce_builders_render_everywhere_and_reject_unknowns() {
    let server = server();
    let mut c = Http1Client::connect(server.local_addr()).unwrap();
    let rows: Vec<Vec<String>> = (0..60).map(row).collect();
    let posted = c
        .request(
            "POST",
            "/v1/ingest/records?at=1000",
            &[("Content-Type", "application/json")],
            &json_chunk(&rows, 1000.0),
        )
        .unwrap();
    assert_eq!(posted.status, 200, "{}", posted.text());

    let mut table = ContingencyTable::zeros(axes()).unwrap();
    for r in &rows {
        let labels: Vec<&str> = r.iter().map(String::as_str).collect();
        table.increment_by_labels(&labels).unwrap();
    }
    let counts = JointCounts::from_table(table, "y").unwrap();
    let mut replica = replica_monitor();
    replica
        .push_at(&LabelChunk::new(rows.clone()), 1000.0)
        .unwrap();
    let snap = replica.snapshot().unwrap();
    let est = Smoothed { alpha: 1.0 };

    for tag in ["wc-ratio", "wc-diff", "alpha-if(alpha=0.5)", "deo(label=r)"] {
        let expected = Audit::of_counts(counts.clone())
            .unwrap()
            .boxed_metric(metric_from_tag(tag).unwrap())
            .run()
            .unwrap();
        let expected_snap = snap.with_metric(tag, &est).unwrap();
        for format in ResponseFormat::ALL {
            let audit = c
                .get(&format!("/v1/audit?metric={tag}&format={}", format.name()))
                .unwrap();
            assert_eq!(
                audit.status,
                200,
                "{tag}/{}: {}",
                format.name(),
                audit.text()
            );
            assert_eq!(
                audit.text(),
                expected.render(format).unwrap(),
                "{tag}/{}: audit render diverged from the builder",
                format.name()
            );
            let monitor = c
                .get(&format!(
                    "/v1/monitor?metric={tag}&format={}",
                    format.name()
                ))
                .unwrap();
            assert_eq!(
                monitor.status,
                200,
                "{tag}/{}: {}",
                format.name(),
                monitor.text()
            );
            assert_eq!(
                monitor.text(),
                expected_snap.render(format).unwrap(),
                "{tag}/{}: monitor render diverged from with_metric",
                format.name()
            );
        }
        // Non-default metrics surface their tag in the prose render.
        let text = c
            .get(&format!("/v1/monitor?metric={tag}&format=text"))
            .unwrap();
        assert!(text.text().contains(tag), "{tag}: {}", text.text());
    }

    // Naming the default metric explicitly changes nothing.
    let implicit = c.get("/v1/audit").unwrap();
    let explicit = c.get("/v1/audit?metric=eps-df").unwrap();
    assert_eq!(implicit.text(), explicit.text());

    // The schema advertises the configured metric.
    let schema = c.get("/v1/schema").unwrap();
    assert!(
        schema.text().contains("\"metric\":\"eps-df\""),
        "{}",
        schema.text()
    );

    // Unknown metric names are typed 400s on both endpoints.
    for path in ["/v1/audit?metric=martian", "/v1/monitor?metric=martian"] {
        let bad = c.get(path).unwrap();
        assert_eq!(bad.status, 400, "{path}: {}", bad.text());
        assert!(
            bad.text().contains("\"kind\":\"invalid\""),
            "{}",
            bad.text()
        );
        assert!(bad.text().contains("unknown metric"), "{}", bad.text());
    }

    server.shutdown();
}

// ---------------------------------------------------------------------------
// Malformed HTTP, over a raw socket.
// ---------------------------------------------------------------------------

/// Writes raw bytes, half-closes, and returns whatever the server sent.
fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    // The server may refuse mid-read and close with our bytes still
    // unread (e.g. the 431 oversized-header path), which RSTs the
    // connection; a failed write/half-close is then part of the
    // scenario — the response (if any) is still readable.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

#[test]
fn malformed_requests_map_to_typed_statuses() {
    let server = Server::builder("y", axes())
        .window_seconds(1e6)
        .bucket_seconds(1.0)
        .workers(2)
        .max_body_bytes(64)
        .bind("127.0.0.1:0")
        .unwrap();
    let addr = server.local_addr();

    // A garbage request line is a 400.
    let resp = raw_exchange(addr, b"GARBAGE\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(resp.contains("\"kind\":\"bad_request\""), "{resp}");
    assert!(resp.contains("malformed request line"), "{resp}");

    // A request line truncated by EOF closes quietly: no response at all.
    let resp = raw_exchange(addr, b"GET /v1/hea");
    assert!(resp.is_empty(), "expected silent close, got: {resp}");

    // A declared body over the cap is refused before it is read.
    let resp = raw_exchange(
        addr,
        b"POST /v1/ingest/records HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
    assert!(resp.contains("\"kind\":\"body_too_large\""), "{resp}");

    // A Content-Length that is not a length is a 400.
    let resp = raw_exchange(
        addr,
        b"POST /v1/ingest/records HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(resp.contains("bad Content-Length"), "{resp}");

    // A body shorter than its declaration is a 400, not a hang.
    let resp = raw_exchange(
        addr,
        b"POST /v1/ingest/records HTTP/1.1\r\nHost: x\r\nContent-Length: 20\r\n\r\nshort",
    );
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    assert!(resp.contains("body truncated"), "{resp}");

    // Unknown route: 404 with the route echoed.
    let resp = raw_exchange(addr, b"GET /v1/nope HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
    assert!(resp.contains("\"kind\":\"not_found\""), "{resp}");

    // Known route, wrong method: 405 with Allow.
    let resp = raw_exchange(
        addr,
        b"DELETE /v1/audit HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");
    assert!(resp.contains("Allow: GET"), "{resp}");

    // An oversized header block is a 431.
    let mut big = b"GET /v1/healthz HTTP/1.1\r\n".to_vec();
    big.extend_from_slice(format!("X-Pad: {}\r\n\r\n", "a".repeat(20 * 1024)).as_bytes());
    let resp = raw_exchange(addr, &big);
    assert!(resp.starts_with("HTTP/1.1 431"), "{resp}");

    // Chunked transfer encoding is explicitly unimplemented: 501.
    let resp = raw_exchange(
        addr,
        b"POST /v1/ingest/records HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    );
    assert!(resp.starts_with("HTTP/1.1 501"), "{resp}");

    server.shutdown();
}

#[test]
fn corrupt_snapshot_frames_are_typed_400s() {
    let server = server();
    let mut c = Http1Client::connect(server.local_addr()).unwrap();

    // Garbage bytes: not a DFLT frame at all.
    let resp = c
        .request("POST", "/v1/ingest/snapshot", &[], b"not a DFLT frame")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(
        resp.text().contains("\"kind\":\"invalid\""),
        "{}",
        resp.text()
    );

    // A truncated valid frame.
    let mut monitor = replica_monitor();
    monitor
        .push_at(&LabelChunk::new(vec![row(0), row(1)]), 1000.0)
        .unwrap();
    let frame = SnapshotEncoder::new()
        .encode(&monitor.snapshot().unwrap())
        .unwrap();
    let resp = c
        .request(
            "POST",
            "/v1/ingest/snapshot",
            &[],
            &frame[..frame.len() / 2],
        )
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());

    // A frame whose cell counts are corrupted in flight: the varint for
    // the known cell count 299 (0xAB 0x02) is spliced into the varint for
    // 2^64−1, which exceeds the codec's exactness bound — the decoder
    // answers with the *typed* `corrupt_counts` error, not generic prose.
    let mut monitor = replica_monitor();
    let mut rows: Vec<Vec<String>> = (0..299).map(|_| row(0)).collect();
    rows.push(row(1));
    monitor.push_at(&LabelChunk::new(rows), 1000.0).unwrap();
    let frame = SnapshotEncoder::new()
        .encode(&monitor.snapshot().unwrap())
        .unwrap();
    let pat = [0xAB, 0x02]; // varint(299), unique to the corrupted cell
    let hits: Vec<usize> = frame
        .windows(2)
        .enumerate()
        .filter(|(_, w)| *w == pat)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(hits.len(), 1, "cell varint must be unique in the frame");
    let mut corrupted = frame[..hits[0]].to_vec();
    corrupted.extend_from_slice(&[0xFF; 9]);
    corrupted.push(0x01);
    corrupted.extend_from_slice(&frame[hits[0] + 2..]);
    let resp = c
        .request("POST", "/v1/ingest/snapshot", &[], &corrupted)
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(
        resp.text().contains("\"kind\":\"corrupt_counts\""),
        "{}",
        resp.text()
    );

    // An incompatible window configuration is refused at the door.
    let mut other = Audit::monitor("y", axes())
        .estimator(Smoothed { alpha: 1.0 })
        .window_seconds(60.0)
        .bucket_seconds(1.0)
        .subsets(SubsetPolicy::None)
        .build()
        .unwrap();
    other
        .push_at(&LabelChunk::new(vec![row(0)]), 1000.0)
        .unwrap();
    let frame = SnapshotEncoder::new()
        .encode(&other.snapshot().unwrap())
        .unwrap();
    let resp = c
        .request("POST", "/v1/ingest/snapshot", &[], &frame)
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());

    // None of the rejects poisoned anything: a good frame still lands.
    let mut good = replica_monitor();
    good.push_at(&LabelChunk::new(vec![row(0)]), 1000.0)
        .unwrap();
    let frame = SnapshotEncoder::new()
        .encode(&good.snapshot().unwrap())
        .unwrap();
    let resp = c
        .request("POST", "/v1/ingest/snapshot", &[], &frame)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());

    server.shutdown();
}

#[test]
fn stale_timestamps_are_refused_without_poisoning_shards() {
    let server = Server::builder("y", axes())
        .window_seconds(100.0)
        .bucket_seconds(1.0)
        .workers(1)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut c = Http1Client::connect(server.local_addr()).unwrap();

    let ok = c
        .request(
            "POST",
            "/v1/ingest/records?at=1000",
            &[],
            &json_chunk(&[row(0)], 1000.0),
        )
        .unwrap();
    assert_eq!(ok.status, 200, "{}", ok.text());

    // 1000 − 100 + 1 = 901 is the oldest acceptable arrival.
    let stale = c
        .request(
            "POST",
            "/v1/ingest/records?at=900",
            &[],
            &json_chunk(&[row(1)], 900.0),
        )
        .unwrap();
    assert_eq!(stale.status, 400, "{}", stale.text());
    assert!(stale.text().contains("too old"), "{}", stale.text());

    let edge = c
        .request(
            "POST",
            "/v1/ingest/records?at=901",
            &[],
            &json_chunk(&[row(1)], 901.0),
        )
        .unwrap();
    assert_eq!(edge.status, 200, "{}", edge.text());

    // Timestamps outside the monitor's range are refused at the door and
    // do not move the staleness floor: real-time ingest still lands.
    for at in ["-5", "1e16"] {
        let out_of_range = c
            .request(
                "POST",
                &format!("/v1/ingest/records?at={at}"),
                &[],
                &json_chunk(&[row(0)], 1000.0),
            )
            .unwrap();
        assert_eq!(out_of_range.status, 400, "{at}: {}", out_of_range.text());
    }
    let again = c
        .request(
            "POST",
            "/v1/ingest/records?at=1000",
            &[],
            &json_chunk(&[row(0)], 1000.0),
        )
        .unwrap();
    assert_eq!(again.status, 200, "{}", again.text());

    // Every shard still answers: the rejects never reached a shard.
    let audit = c.get("/v1/audit").unwrap();
    assert_eq!(audit.status, 200, "{}", audit.text());
    assert!(audit.text().contains("\"n_records\":3"), "{}", audit.text());

    server.shutdown();
}

#[test]
fn former_panic_sites_answer_4xx_not_closed_connection() {
    // Regression suite for the `no-panic-path` lint sweep: every input
    // below is aimed at a site that once held an unwrap/expect/index on
    // the request path. The contract is uniform — the server answers
    // with a typed 4xx over the same connection; an empty response
    // (closed socket) means a worker died.
    let server = server();
    let addr = server.local_addr();

    // Percent-escape edge cases in the request target exercise the
    // rewritten index-free `percent_decode`: a bare trailing `%`, a
    // truncated escape, and junk hex must all fall through to routing
    // (404 for an unknown decoded path), never kill the worker.
    for target in [
        "/v1/nope%",
        "/v1/nope%2",
        "/v1/nope%zz",
        "/%",
        "/%C0%afnope",
    ] {
        let req = format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n");
        let resp = raw_exchange(addr, req.as_bytes());
        assert!(
            resp.starts_with("HTTP/1.1 404"),
            "target {target}: expected a 404 answer, got: {resp:?}"
        );
    }

    // A DFLT frame cut mid-u64 (10 bytes ends inside the schema hash)
    // exercises the typed error that replaced `try_into().expect("8
    // bytes")` in the codec reader.
    let mut c = Http1Client::connect(addr).unwrap();
    let mut monitor = replica_monitor();
    monitor
        .push_at(&LabelChunk::new(vec![row(0), row(1)]), 1000.0)
        .unwrap();
    let snap = monitor.snapshot().unwrap();
    let frame = SnapshotEncoder::new().encode(&snap).unwrap();
    let resp = c
        .request("POST", "/v1/ingest/snapshot", &[], &frame[..10])
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());

    // Byte surgery on the alert block: an alert rule demanding 2^33
    // consecutive breaches once truncated silently through `as usize`;
    // now it is a typed CorruptCounts → 400 on every target.
    let mut doctored_snap = snap.clone();
    let threshold = 0.123_456_789_f64;
    doctored_snap.alerts.push(Alert {
        rule: AlertRule {
            threshold,
            consecutive: 3,
        },
        at_record: 2,
        at_seconds: Some(1000.0),
        epsilon: 0.5,
        witness: None,
    });
    let armed = SnapshotEncoder::new().encode(&doctored_snap).unwrap();
    let needle = threshold.to_bits().to_le_bytes();
    let at = armed
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("distinctive threshold bytes present");
    let mut doctored = armed[..at + needle.len()].to_vec();
    doctored.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x20]); // varint(2^33)
    doctored.extend_from_slice(&armed[at + needle.len() + 1..]);
    let resp = c
        .request("POST", "/v1/ingest/snapshot", &[], &doctored)
        .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(
        resp.text().contains("corrupt"),
        "expected a corrupt-counts error, got: {}",
        resp.text()
    );

    // The connection survived all of it: a well-formed frame on the
    // same client still ingests, and the server still audits.
    let resp = c
        .request("POST", "/v1/ingest/snapshot?replica=r1", &[], &frame)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    let audit = c.get("/v1/audit").unwrap();
    assert_eq!(audit.status, 200, "{}", audit.text());

    // `?samples=` sizes the posterior estimator's draw buffer: u64::MAX
    // once overflowed its capacity and killed the worker. It and anything
    // else past the 10 000 cap are refused before the audit runs.
    for samples in [u64::MAX, 10_001] {
        let resp = c
            .get(&format!("/v1/audit?estimator=posterior&samples={samples}"))
            .unwrap();
        assert_eq!(resp.status, 400, "samples={samples}: {}", resp.text());
        assert!(
            resp.text().contains("\"kind\":\"invalid\""),
            "{}",
            resp.text()
        );
        let ok = c.get("/v1/audit?estimator=posterior&samples=50").unwrap();
        assert_eq!(ok.status, 200, "{}", ok.text());
    }

    server.shutdown();
}

/// `Smoothed { alpha: 1 }` that counts its table evaluations across every
/// clone (the server, its fleet and each shard hold one).
#[derive(Clone)]
struct Counting(Arc<AtomicUsize>);

impl EpsilonEstimator for Counting {
    fn name(&self) -> String {
        Smoothed { alpha: 1.0 }.name()
    }

    fn estimate_table(&self, raw: &GroupOutcomes) -> Result<GroupOutcomes, DfError> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Smoothed { alpha: 1.0 }.estimate_table(raw)
    }

    fn clone_box(&self) -> Box<dyn EpsilonEstimator> {
        Box::new(self.clone())
    }
}

/// A cold `GET /v1/monitor` derives the merged snapshot once: the shards
/// hand the cut their counts, and the replica snapshots join the same
/// fold after them.
#[test]
fn a_cold_monitor_read_derives_once() {
    let evaluations = Arc::new(AtomicUsize::new(0));
    let server = Server::builder("y", axes())
        .estimator(Counting(Arc::clone(&evaluations)))
        .window_seconds(1e6)
        .bucket_seconds(1.0)
        .shards(4)
        .workers(2)
        .bind("127.0.0.1:0")
        .unwrap();
    let state = server.state();
    let rows: Vec<Vec<String>> = (0..8).map(row).collect();
    state.ingest_rows(rows.clone(), 1000.0, None).unwrap();
    for replica in ["alpha", "beta"] {
        let mut monitor = replica_monitor();
        monitor
            .push_at(&LabelChunk::new(rows.clone()), 1000.0)
            .unwrap();
        let snap = monitor.snapshot().unwrap();
        let frame = SnapshotEncoder::new().encode(&snap).unwrap();
        state.ingest_snapshot(&frame, replica).unwrap();
    }

    evaluations.store(0, Ordering::SeqCst);
    let monitor = Http1Client::connect(server.local_addr())
        .unwrap()
        .get("/v1/monitor")
        .unwrap();
    assert_eq!(monitor.status, 200, "{}", monitor.text());
    let text = monitor.text();
    assert!(text.contains("\"records_seen\":24"), "{text}");
    assert_eq!(evaluations.load(Ordering::SeqCst), 1);
    server.shutdown();
}

/// A body the size of the default cap that is one label (JSON) or one
/// field (CSV) is a 400 `invalid` within 2 s, echoes only a cut of the
/// label, and leaves the server ingesting: decoding is one linear pass,
/// and the code columns are sized from the body length alone.
#[test]
fn megabyte_labels_are_refused_in_linear_time() {
    let server = server();
    let mut c = Http1Client::connect(server.local_addr()).unwrap();
    let mib = 1 << 20;
    let json = format!("[[\"{}\"]]", "a".repeat(mib - 6)).into_bytes();
    let csv = vec![b'a'; mib];
    for (body, content_type) in [(json, "application/json"), (csv, "text/csv")] {
        assert_eq!(body.len(), mib);
        let start = Instant::now();
        let resp = c
            .request(
                "POST",
                "/v1/ingest/records?at=1000",
                &[("Content-Type", content_type)],
                &body,
            )
            .unwrap();
        let took = start.elapsed();
        assert!(
            resp.body.len() < 1024,
            "{content_type}: the label came back whole"
        );
        assert_eq!(resp.status, 400, "{content_type}: {}", resp.text());
        assert!(
            resp.text().contains("\"kind\":\"invalid\""),
            "{}",
            resp.text()
        );
        assert!(
            took < Duration::from_secs(2),
            "{content_type} took {took:?}"
        );
    }

    let ok = c
        .request(
            "POST",
            "/v1/ingest/records?at=1000",
            &[],
            &json_chunk(&[row(0), row(1)], 1000.0),
        )
        .unwrap();
    assert_eq!(ok.status, 200, "{}", ok.text());
    let audit = c.get("/v1/audit").unwrap();
    assert!(audit.text().contains("\"n_records\":2"), "{}", audit.text());
    server.shutdown();
}
