//! The server workloads: a closed loop of one generator thread on one
//! keep-alive connection to an in-process `df_server::Server` over
//! loopback TCP. Ingest agents and dashboards each wait for a reply, so a
//! closed loop is the faithful shape; it also keeps the generator from
//! measuring the scheduler of a 2-vCPU host instead of the program.
//!
//! - `ingest`: back-to-back 64-row `POST /v1/ingest/records` (3 JSON to 1
//!   CSV), data time +10 ms per request, every 64th request a `DFLT`
//!   frame from one of two remote replicas; one `GET /v1/audit` ends the
//!   timed phase and drains every shard.
//! - `fresh`: read-your-writes cycles of one 64-row JSON write (data time
//!   +100 ms), one cold `GET /v1/audit?subsets=all`, one `GET /v1/monitor`
//!   and eight warm repeats of the audit; every 16th cycle adds a
//!   `GET /v1/metrics` scrape.
//! - the probe mix: the in-process layer probe's cycle (a write, a
//!   replica frame every 16th cycle, a cold audit, a monitor read, a warm
//!   audit) plus a `/v1/metrics` scrape every 16th cycle, run for a fixed
//!   number of cycles by the traced `replay` run, which has no server
//!   traffic of its own.

use crate::calib::Calibration;
use crate::trace::{median, tail, Spans};
use crate::workload::{
    csv_body, json_body, server, stream, DataClock, Reference, Replica, Rows, BODY_ROWS, BUCKET_S,
    PROBE_CYCLES, WINDOW_S,
};
use crate::{int, layers, metric, num, obj, sys, Args, Checks, Fields, Metric, Outcome};
use df_server::client::{ClientResponse, Http1Client};
use df_server::Server;
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Server starts per `setup_s` measurement; one start takes a few
/// milliseconds, too short to be steady alone.
const SETUP_STARTS: usize = 101;
/// Requests between resident-memory (and, traced, queue-depth) samples.
const SAMPLE_EVERY: u64 = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Ingest,
    Fresh,
    Probe,
}

#[derive(Clone, Copy)]
enum Op {
    Json,
    Csv,
    Snapshot,
    Cold,
    Monitor,
    Warm,
    Scrape,
}

impl Mix {
    /// Data-time ticks per second; one tick passes per write.
    fn ticks_per_s(self) -> u64 {
        match self {
            Mix::Ingest => 100,
            Mix::Fresh | Mix::Probe => 10,
        }
    }

    fn read_url(self) -> &'static str {
        match self {
            Mix::Ingest => "/v1/audit",
            Mix::Fresh | Mix::Probe => "/v1/audit?subsets=all",
        }
    }

    /// The requests of cycle `c`.
    fn cycle(self, c: u64, ops: &mut Vec<Op>) {
        ops.clear();
        let write = if c % 4 == 3 { Op::Csv } else { Op::Json };
        match self {
            Mix::Ingest => ops.push(if c % 64 == 63 { Op::Snapshot } else { write }),
            Mix::Fresh => {
                ops.extend([Op::Json, Op::Cold, Op::Monitor]);
                ops.extend([Op::Warm; 8]);
                if c % 16 == 15 {
                    ops.push(Op::Scrape);
                }
            }
            Mix::Probe => {
                ops.push(write);
                if c % 16 == 15 {
                    ops.push(Op::Snapshot);
                }
                ops.extend([Op::Cold, Op::Monitor, Op::Warm]);
                if c % 16 == 15 {
                    ops.push(Op::Scrape);
                }
            }
        }
    }
}

#[derive(Clone, Copy)]
enum Budget {
    Seconds(f64),
    Cycles(u64),
}

/// Counter values and histogram sums of one `/v1/metrics?format=json`
/// scrape, keyed `name|label=value|…` in the registry's label order.
#[derive(Default)]
pub struct Scrape(BTreeMap<String, (f64, f64)>);

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

impl Scrape {
    fn parse(body: &[u8]) -> Option<Self> {
        let root = serde_json::parse(std::str::from_utf8(body).ok()?).ok()?;
        let mut series = BTreeMap::new();
        for m in root.field("metrics").as_arr("metrics").ok()? {
            let Value::Str(name) = m.field("name") else {
                continue;
            };
            for s in m.field("series").as_arr("series").ok()? {
                let mut key = name.clone();
                for (k, v) in s.field("labels").as_obj("labels").ok()? {
                    if let Value::Str(v) = v {
                        key.push_str(&format!("|{k}={v}"));
                    }
                }
                // Counters and gauges carry `value`; histograms `sum` and `count`.
                let value = number(s.field("value"))
                    .or_else(|| number(s.field("sum")))
                    .unwrap_or(0.0);
                series.insert(key, (value, number(s.field("count")).unwrap_or(0.0)));
            }
        }
        Some(Self(series))
    }

    fn minus(&self, base: &Scrape) -> Scrape {
        Scrape(
            self.0
                .iter()
                .map(|(k, (v, n))| {
                    let (bv, bn) = base.0.get(k).copied().unwrap_or_default();
                    (k.clone(), (v - bv, n - bn))
                })
                .collect(),
        )
    }

    fn matching<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(&str, &str)],
    ) -> impl Iterator<Item = (f64, f64)> + 'a {
        self.0.iter().filter_map(move |(key, v)| {
            let mut parts = key.split('|');
            let hit = parts.next() == Some(name) && {
                let have: Vec<&str> = parts.collect();
                labels
                    .iter()
                    .all(|(k, want)| have.contains(&format!("{k}={want}").as_str()))
            };
            hit.then_some(*v)
        })
    }

    /// Summed value (counters) or sum (histograms) of the matching series.
    fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.matching(name, labels).map(|(v, _)| v).sum()
    }

    /// Summed observation count of the matching histogram series.
    fn count(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.matching(name, labels).map(|(_, n)| n).sum()
    }
}

/// Latency samples per request class, in µs.
struct Latencies {
    write: Vec<f64>,
    cold: Vec<f64>,
    monitor: Vec<f64>,
    warm: Vec<f64>,
    scrape: Vec<f64>,
    health: Vec<f64>,
    drain: Vec<f64>,
}

impl Default for Latencies {
    /// Room for every sample up front: a vector that doubles mid-phase
    /// would make the resident-memory peak depend on the sample count.
    fn default() -> Self {
        let room = || Vec::with_capacity(1 << 20);
        Self {
            write: room(),
            cold: room(),
            monitor: room(),
            warm: room(),
            scrape: room(),
            health: room(),
            drain: room(),
        }
    }
}

/// What one measured phase saw.
#[derive(Default)]
pub struct Phase {
    lat: Latencies,
    rows: u64,
    requests: u64,
    cold_reads: u64,
    warm_reads: u64,
    /// Summed client round trips of every request the counter deltas cover.
    client_us: f64,
    seconds: f64,
    program_cpu_s: f64,
    generator_cpu_s: f64,
    steal_share: f64,
    peak_rss_mib: f64,
    queue_depth_max: f64,
    rss_samples: Vec<f64>,
    calib: Calibration,
    delta: Scrape,
    /// Round trips of the two `?format=json` scrapes the deltas come from.
    delta_scrape_us: [f64; 2],
    series: usize,
    cross_checks: Fields,
}

/// One server, one keep-alive connection, and the generator state that
/// feeds it.
pub struct Session {
    mix: Mix,
    server: Server,
    client: Http1Client,
    rows: Rows,
    clock: DataClock,
    reference: Reference,
    replicas: [Replica; 2],
    next_replica: usize,
    cycle: u64,
    last_read: Vec<u8>,
}

fn snippet(body: &[u8]) -> String {
    String::from_utf8_lossy(&body[..body.len().min(160)]).into_owned()
}

/// The `"n_records":N` field of an audit response.
fn n_records(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("\"n_records\":")? + "\"n_records\":".len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

impl Session {
    fn start(mix: Mix, seed: u64, checks: &mut Checks) -> Option<Self> {
        let server = checks.ok("bind the server", server().bind("127.0.0.1:0"))?;
        let client = checks.ok("connect", Http1Client::connect(server.local_addr()))?;
        Some(Self {
            mix,
            server,
            client,
            rows: Rows::new(seed, stream::TRAFFIC),
            clock: DataClock::new(mix.ticks_per_s()),
            reference: Reference::new(),
            replicas: Replica::pair(),
            next_replica: 0,
            cycle: 0,
            last_read: Vec::new(),
        })
    }

    fn shutdown(self) {
        drop(self.client);
        self.server.shutdown();
    }

    /// Sends one request inside a span; every request counts as one
    /// operation, failed unless answered `200`.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        spans: &mut Spans,
        name: &'static str,
        method: &str,
        target: &str,
        content_type: Option<&str>,
        body: &[u8],
        checks: &mut Checks,
    ) -> (Option<ClientResponse>, f64) {
        let headers: Vec<(&str, &str)> = content_type
            .map(|c| ("Content-Type", c))
            .into_iter()
            .collect();
        let id = spans.open(name, None);
        let t0 = Instant::now();
        let resp = self.client.request(method, target, &headers, body);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        spans.close(id);
        match resp {
            Ok(resp) => {
                checks.check(resp.status == 200, || {
                    format!(
                        "{method} {target}: status {} {}",
                        resp.status,
                        snippet(&resp.body)
                    )
                });
                (Some(resp), us)
            }
            Err(e) => {
                checks.check(false, || format!("{method} {target}: {e}"));
                (None, us)
            }
        }
    }

    fn get(
        &mut self,
        spans: &mut Spans,
        name: &'static str,
        target: &str,
        checks: &mut Checks,
    ) -> (Option<ClientResponse>, f64) {
        self.send(spans, name, "GET", target, None, &[], checks)
    }

    fn run_op(&mut self, op: Op, p: &mut Phase, spans: &mut Spans, checks: &mut Checks) {
        let us = match op {
            Op::Json | Op::Csv => {
                let rows = self.rows.take(BODY_ROWS);
                let at = self.clock.next();
                let (target, content_type, body) = match op {
                    Op::Csv => (
                        format!("/v1/ingest/records?at={at}"),
                        "text/csv",
                        csv_body(&rows),
                    ),
                    _ => (
                        "/v1/ingest/records".to_string(),
                        "application/json",
                        json_body(&rows, at),
                    ),
                };
                let (_, us) = self.send(
                    spans,
                    "http.write",
                    "POST",
                    &target,
                    Some(content_type),
                    &body,
                    checks,
                );
                p.lat.write.push(us);
                p.rows += rows.len() as u64;
                let pushed = self.reference.push(&rows, at);
                checks.ok("reference push", pushed);
                us
            }
            Op::Snapshot => {
                let rows = self.rows.take(BODY_ROWS);
                let at = self.clock.next();
                let replica = &mut self.replicas[self.next_replica];
                self.next_replica = 1 - self.next_replica;
                let name = replica.name;
                let Some(frame) = checks.ok("encode a replica frame", replica.frame(&rows, at))
                else {
                    return;
                };
                let (_, us) = self.send(
                    spans,
                    "http.snapshot",
                    "POST",
                    &format!("/v1/ingest/snapshot?replica={name}"),
                    Some("application/octet-stream"),
                    &frame,
                    checks,
                );
                p.lat.write.push(us);
                us
            }
            Op::Cold => {
                let (resp, us) = self.get(spans, "http.cold", self.mix.read_url(), checks);
                p.lat.cold.push(us);
                p.cold_reads += 1;
                if let Some(resp) = resp {
                    let want = self.reference.window_rows(&self.replicas);
                    let got = n_records(&resp.body);
                    checks.check(got == Some(want), || {
                        format!("a cold read counted {got:?} records; the window holds {want}")
                    });
                    self.last_read = resp.body;
                }
                us
            }
            Op::Monitor => {
                let (_, us) = self.get(spans, "http.monitor", "/v1/monitor", checks);
                p.lat.monitor.push(us);
                us
            }
            Op::Warm => {
                let (resp, us) = self.get(spans, "http.warm", self.mix.read_url(), checks);
                p.lat.warm.push(us);
                p.warm_reads += 1;
                if let Some(resp) = resp {
                    checks.check(resp.body == self.last_read, || {
                        "a warm read differs from the cold read it repeats".into()
                    });
                }
                us
            }
            Op::Scrape => {
                let (_, us) = self.get(spans, "http.scrape", "/v1/metrics", checks);
                p.lat.scrape.push(us);
                us
            }
        };
        p.requests += 1;
        p.client_us += us;
    }

    /// Writes one window of data time through the mix's writes, so the
    /// timed phase starts on a full window that evicts as it goes.
    fn fill(&mut self, checks: &mut Checks) {
        let mut quiet = Spans::new(false);
        let mut scratch = Phase::default();
        let mut ops = Vec::new();
        while self.clock.elapsed_s() < WINDOW_S + 2.0 * BUCKET_S {
            self.mix.cycle(self.cycle, &mut ops);
            self.cycle += 1;
            for &op in &ops {
                if matches!(op, Op::Json | Op::Csv | Op::Snapshot) {
                    self.run_op(op, &mut scratch, &mut quiet, checks);
                }
            }
        }
    }

    fn scrape(&mut self, checks: &mut Checks) -> (Scrape, f64) {
        let (resp, us) = self.get(
            &mut Spans::new(false),
            "http.scrape",
            "/v1/metrics?format=json",
            checks,
        );
        let parsed = resp.and_then(|r| Scrape::parse(&r.body));
        checks.check(parsed.is_some(), || {
            "the /v1/metrics?format=json scrape did not parse".into()
        });
        (parsed.unwrap_or_default(), us)
    }

    /// The largest shard queue depth `/v1/healthz` reports.
    fn sample_queues(&mut self, p: &mut Phase, spans: &mut Spans, checks: &mut Checks) {
        let (resp, us) = self.get(spans, "http.health", "/v1/healthz", checks);
        p.lat.health.push(us);
        p.requests += 1;
        p.client_us += us;
        let depth = resp
            .and_then(|r| serde_json::parse(&r.text()).ok())
            .and_then(|v| {
                v.field("queue_depths")
                    .as_arr("queue_depths")
                    .ok()
                    .map(|d| d.iter().filter_map(number).fold(0.0, f64::max))
            });
        checks.check(depth.is_some(), || {
            "healthz reported no queue depths".into()
        });
        p.queue_depth_max = p.queue_depth_max.max(depth.unwrap_or(0.0));
    }

    fn phase(&mut self, budget: Budget, spans: &mut Spans, checks: &mut Checks) -> Phase {
        // A consistent cut behind everything sent so far, so that the
        // counter baseline sees every earlier row processed.
        self.get(&mut Spans::new(false), "http.drain", "/v1/audit", checks);
        let (base, base_us) = self.scrape(checks);
        let mut p = Phase {
            client_us: base_us,
            peak_rss_mib: sys::rss_mib().unwrap_or(f64::NAN),
            ..Phase::default()
        };
        p.calib.sample();
        let gen0 = sys::thread_cpu_s();
        let cpu0 = sys::process_cpu_s();
        let host0 = sys::HostTicks::now();
        let start = Instant::now();
        let mut ops = Vec::new();
        let mut cycles = 0;
        let mut next_sample = SAMPLE_EVERY;
        loop {
            let done = match budget {
                Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
                Budget::Cycles(n) => cycles >= n,
            };
            if done {
                break;
            }
            self.mix.cycle(self.cycle, &mut ops);
            self.cycle += 1;
            cycles += 1;
            for &op in &ops {
                self.run_op(op, &mut p, spans, checks);
            }
            if p.requests >= next_sample {
                next_sample += SAMPLE_EVERY;
                p.peak_rss_mib = p.peak_rss_mib.max(sys::rss_mib().unwrap_or(f64::NAN));
                p.rss_samples.push(sys::rss_mib().unwrap_or(f64::NAN));
                p.calib.sample();
                if spans.is_on() {
                    self.sample_queues(&mut p, spans, checks);
                }
            }
        }
        let final_read = if self.mix == Mix::Ingest {
            let (resp, us) = self.get(spans, "http.drain", "/v1/audit", checks);
            p.lat.drain.push(us);
            p.requests += 1;
            p.cold_reads += 1;
            p.client_us += us;
            resp.map(|r| r.body)
        } else {
            Some(self.last_read.clone())
        };
        p.seconds = start.elapsed().as_secs_f64();
        let cpu = sys::process_cpu_s().zip(cpu0).map(|(b, a)| b - a);
        let gen = sys::thread_cpu_s().zip(gen0).map(|(b, a)| b - a);
        p.generator_cpu_s = gen.unwrap_or(f64::NAN);
        p.program_cpu_s = cpu.zip(gen).map_or(f64::NAN, |(c, g)| c - g);
        p.steal_share = sys::HostTicks::now()
            .zip(host0)
            .map_or(f64::NAN, |(b, a)| b.steal_share_since(a));
        p.peak_rss_mib = p.peak_rss_mib.max(sys::rss_mib().unwrap_or(f64::NAN));
        p.rss_samples.push(sys::rss_mib().unwrap_or(f64::NAN));
        let (end, end_us) = self.scrape(checks);
        p.delta_scrape_us = [base_us, end_us];
        p.series = end.0.len();
        p.delta = end.minus(&base);

        let want = self
            .reference
            .audit_json(&self.replicas, self.mix != Mix::Ingest);
        match (want, final_read) {
            (Ok(want), Some(got)) => checks.check(got == want.as_bytes(), || {
                format!(
                    "the last audit differs from the in-process reference: {} vs {}",
                    snippet(&got),
                    snippet(want.as_bytes())
                )
            }),
            (Err(e), _) => checks.check(false, || format!("reference audit: {e}")),
            (_, None) => checks.check(false, || "no final audit to check".into()),
        }
        p.cross_checks = cross_check(&p, checks);
        p
    }
}

/// The `/v1/metrics` deltas must account for exactly the traffic sent, so
/// a workload that stops exercising the path it claims fails instead of
/// measuring something else.
fn cross_check(p: &Phase, checks: &mut Checks) -> Fields {
    let d = &p.delta;
    let requests = d.sum("df_requests_total", &[]);
    let rows = [
        // Every row sent reached a shard monitor.
        (
            "ingest_rows",
            d.sum("df_ingest_rows_total", &[]),
            p.rows as f64,
        ),
        // One consistent cut per cold read: the drain in `ingest`.
        (
            "snapshots",
            d.sum("df_snapshots_total", &[]),
            p.cold_reads as f64,
        ),
        // Every warm read, and nothing else, hit the render cache.
        (
            "render_hits",
            d.sum(
                "df_cache_requests_total",
                &[("cache", "render"), ("result", "hit")],
            ),
            p.warm_reads as f64,
        ),
        // The baseline scrape is counted once it has been answered.
        ("requests", requests, p.requests as f64 + 1.0),
        (
            "requests_2xx",
            d.sum("df_requests_total", &[("status", "2xx")]),
            requests,
        ),
    ];
    rows.iter()
        .map(|&(name, counter, expected)| {
            checks.check(counter == expected, || {
                format!("counter cross-check {name}: counter {counter}, expected {expected}")
            });
            (
                name.to_string(),
                obj(vec![("counter", num(counter)), ("expected", num(expected))]),
            )
        })
        .collect()
}

/// `setup_s`: the median over [`SETUP_STARTS`] server starts of the CPU
/// time the program spends from `ServerBuilder::bind` to the first
/// acknowledged write and the first audit served: every thread of the
/// process, less the generator thread's client work after the bind.
/// Wall time per start is a diagnostic: on a shared 2-vCPU host it
/// mostly measures how soon nine new threads get scheduled.
fn setup(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Setup {
    let mut rows = Rows::new(seed, stream::SETUP);
    let mut cpu = Vec::with_capacity(SETUP_STARTS);
    let mut wall = Vec::with_capacity(SETUP_STARTS);
    let mut calib = Calibration::default();
    for _ in 0..SETUP_STARTS {
        calib.sample();
        let body = json_body(&rows.take(BODY_ROWS), 1000.0);
        let root = spans.open("setup", None);
        let process0 = sys::process_cpu_s();
        let t0 = Instant::now();
        let bound = spans.time("setup.bind", root, || server().bind("127.0.0.1:0"));
        let client0 = sys::thread_cpu_s();
        let Some(started) = checks.ok("bind a server", bound) else {
            spans.close(root);
            continue;
        };
        let served = spans.time("setup.first_write_and_audit", root, || {
            let mut c = Http1Client::connect(started.local_addr())?;
            let write = c.request(
                "POST",
                "/v1/ingest/records",
                &[("Content-Type", "application/json")],
                &body,
            )?;
            let audit = c.get("/v1/audit")?;
            std::io::Result::Ok((write.status, audit.status))
        });
        wall.push(t0.elapsed().as_secs_f64());
        spans.close(root);
        let client = sys::thread_cpu_s().zip(client0).map(|(b, a)| b - a);
        let process = sys::process_cpu_s().zip(process0).map(|(b, a)| b - a);
        cpu.push(process.zip(client).map_or(f64::NAN, |(p, c)| p - c));
        checks.check(matches!(served, Ok((200, 200))), || {
            format!("a fresh server's first write and audit: {served:?}")
        });
        started.shutdown();
    }
    Setup {
        cpu_s: median(&cpu),
        wall,
        calib,
    }
}

/// Server start-up as measured, and the host speed while it was.
struct Setup {
    cpu_s: f64,
    wall: Vec<f64>,
    calib: Calibration,
}

/// The end-to-end metrics as measured, before scaling to the reference
/// host speed.
fn raw(mix: Mix, setup: &Setup, p: &Phase) -> [f64; 3] {
    let op = match mix {
        Mix::Ingest => &p.lat.write,
        Mix::Fresh | Mix::Probe => &p.lat.cold,
    };
    [setup.cpu_s, median(op), p.rows as f64 / p.program_cpu_s]
}

fn e2e(mix: Mix, setup: &Setup, p: &Phase) -> Vec<Metric> {
    let [setup_s, op_p50_us, rows_per_cpu_s] = raw(mix, setup, p);
    let speed = p.calib.speed();
    vec![
        metric("setup_s", "s", setup_s * setup.calib.speed()),
        metric("op_p50_us", "us", op_p50_us * speed),
        metric("rows_per_cpu_s", "rows/cpu-s", rows_per_cpu_s / speed),
    ]
}

/// The unscaled metrics and the host speeds that scale them.
fn host_speed(mix: Mix, setup: &Setup, p: &Phase) -> (String, Value) {
    let [setup_s, op_p50_us, rows_per_cpu_s] = raw(mix, setup, p);
    (
        "host_speed".to_string(),
        obj(vec![
            ("setup", num(setup.calib.speed())),
            ("phase", num(p.calib.speed())),
            ("kernel_us", num(p.calib.kernel_s() * 1e6)),
            ("kernel_samples", int(p.calib.samples() as u64)),
            ("unscaled_setup_s", num(setup_s)),
            ("unscaled_op_p50_us", num(op_p50_us)),
            ("unscaled_rows_per_cpu_s", num(rows_per_cpu_s)),
        ]),
    )
}

/// The per-layer metrics the traced phase's spans and counter deltas give.
fn http_layers(p: &Phase) -> Vec<Metric> {
    let d = &p.delta;
    let requests = d.sum("df_requests_total", &[]);
    let per_request = |v: f64| v / requests.max(1.0);
    let share = |cache: &str| {
        let hits = d.sum(
            "df_cache_requests_total",
            &[("cache", cache), ("result", "hit")],
        );
        let misses = d.sum(
            "df_cache_requests_total",
            &[("cache", cache), ("result", "miss")],
        );
        hits / (hits + misses).max(1.0)
    };
    let shard_rows: Vec<f64> = (0..4)
        .map(|s| d.sum("df_ingest_rows_total", &[("shard", &s.to_string())]))
        .collect();
    let mean_rows = shard_rows.iter().sum::<f64>() / shard_rows.len() as f64;
    let mean_us = |name: &str| d.sum(name, &[]) / d.count(name, &[]).max(1.0) * 1e6;
    let mut scrapes = p.lat.scrape.clone();
    scrapes.extend(p.delta_scrape_us);
    vec![
        // The client round trip minus the program's own handler time.
        metric(
            "http.edge_us",
            "us",
            per_request(p.client_us - d.sum("df_request_seconds", &[]) * 1e6),
        ),
        metric(
            "http.req_bytes",
            "B",
            per_request(d.sum("df_request_body_bytes_total", &[])),
        ),
        metric(
            "http.resp_bytes",
            "B",
            per_request(d.sum("df_response_body_bytes_total", &[])),
        ),
        metric("http.requests", "count", requests),
        metric(
            "http.failed",
            "count",
            requests - d.sum("df_requests_total", &[("status", "2xx")]),
        ),
        metric("state.snapshot_hit_share", "ratio", share("snapshot")),
        metric("state.render_hit_share", "ratio", share("render")),
        metric("fleet.cut_us", "us", mean_us("df_snapshot_cut_seconds")),
        metric("fleet.cuts", "count", d.sum("df_snapshots_total", &[])),
        metric("fleet.queue_depth_max", "count", p.queue_depth_max),
        metric(
            "fleet.shard_skew",
            "ratio",
            shard_rows.iter().copied().fold(0.0, f64::max) / mean_rows.max(1.0),
        ),
        metric("monitor.push_us", "us", mean_us("df_monitor_push_seconds")),
        metric(
            "monitor.pushes",
            "count",
            d.count("df_monitor_push_seconds", &[]),
        ),
        metric(
            "monitor.evictions",
            "count",
            d.sum("df_monitor_evictions_total", &[]),
        ),
        metric("obs.scrape_us", "us", crate::trace::mean(&scrapes)),
        metric("obs.series", "count", p.series as f64),
    ]
}

/// The server layers for a workload without server traffic of its own:
/// the probe mix over HTTP for [`PROBE_CYCLES`] cycles, traced.
pub fn probe_http(seed: u64, spans: &mut Spans, checks: &mut Checks) -> Vec<Metric> {
    let Some(mut session) = Session::start(Mix::Probe, seed, checks) else {
        return Vec::new();
    };
    let p = session.phase(Budget::Cycles(PROBE_CYCLES), spans, checks);
    session.shutdown();
    http_layers(&p)
}

fn phase_report(p: &Phase) -> (Fields, Fields) {
    let lat = &p.lat;
    let classes = [
        ("write", &lat.write),
        ("cold", &lat.cold),
        ("monitor", &lat.monitor),
        ("warm", &lat.warm),
        ("scrape", &lat.scrape),
        ("health", &lat.health),
        ("drain", &lat.drain),
    ];
    let provenance = vec![
        ("timed_phase_s".to_string(), num(p.seconds)),
        ("steal_share".to_string(), num(p.steal_share)),
        (
            "samples".to_string(),
            obj(classes
                .iter()
                .map(|(name, v)| (*name, int(v.len() as u64)))
                .collect()),
        ),
    ];
    let diagnostics = vec![
        (
            "latency_us".to_string(),
            obj(classes
                .iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(name, v)| (*name, tail(v)))
                .collect()),
        ),
        ("requests".to_string(), int(p.requests)),
        ("peak_rss_mib".to_string(), num(p.peak_rss_mib)),
        ("rss_mib".to_string(), tail(&p.rss_samples)),
        ("rows".to_string(), int(p.rows)),
        ("program_cpu_s".to_string(), num(p.program_cpu_s)),
        ("generator_cpu_s".to_string(), num(p.generator_cpu_s)),
        (
            "reqs_per_cpu_s".to_string(),
            num(p.requests as f64 / p.program_cpu_s),
        ),
        (
            "rows_per_s_wall".to_string(),
            num(p.rows as f64 / p.seconds),
        ),
        (
            "cross_checks".to_string(),
            Value::Obj(p.cross_checks.clone()),
        ),
    ];
    (provenance, diagnostics)
}

pub fn run(mix: Mix, args: &Args, checks: &mut Checks) -> Outcome {
    let plain_setup = setup(args.seed, &mut Spans::new(false), checks);
    // The traced starts run before the session opens, so that its
    // connection never idles towards the keep-alive timeout.
    let mut spans = Spans::new(args.trace);
    let traced_setup = args.trace.then(|| setup(args.seed, &mut spans, checks));
    let Some(mut session) = Session::start(mix, args.seed, checks) else {
        return Outcome::default();
    };
    session.fill(checks);
    let setup_diag = ("setup_wall_s".to_string(), tail(&plain_setup.wall));
    let Some(traced_setup) = traced_setup else {
        let p = session.phase(
            Budget::Seconds(args.seconds),
            &mut Spans::new(false),
            checks,
        );
        session.shutdown();
        let (provenance, mut diagnostics) = phase_report(&p);
        diagnostics.push(setup_diag);
        diagnostics.push(host_speed(mix, &plain_setup, &p));
        return Outcome {
            metrics: e2e(mix, &plain_setup, &p),
            provenance,
            diagnostics,
        };
    };
    let half = Budget::Seconds(args.seconds / 2.0);
    let plain = session.phase(half, &mut Spans::new(false), checks);
    let traced = session.phase(half, &mut spans, checks);
    session.shutdown();
    let mut metrics = http_layers(&traced);
    metrics.extend(layers::probe(args.seed, &mut spans, checks));
    metrics.extend(crate::replay::probe_layers(args.seed, &mut spans, checks));
    metrics.extend(layers::overhead(
        &e2e(mix, &plain_setup, &plain),
        &e2e(mix, &traced_setup, &traced),
    ));
    let (provenance, mut diagnostics) = phase_report(&traced);
    diagnostics.push(setup_diag);
    diagnostics.push(host_speed(mix, &traced_setup, &traced));
    diagnostics.extend(layers::finish(&args.workload, args.seed, &spans, checks));
    Outcome {
        metrics,
        provenance,
        diagnostics,
    }
}
