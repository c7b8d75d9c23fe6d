//! `perfbench`: the repository benchmark.
//!
//! One command runs one workload against the real program — an
//! in-process `df_server::Server` driven over loopback TCP, or the DFRL
//! replay → audit path — checks every output against an in-process
//! reference, and prints one JSON result as the last line of standard
//! output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|fresh|replay --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the
//! workload once untraced and once traced (half of `--seconds` each) and
//! reports the per-layer split plus the tracing overhead. The lines
//! before the result carry the run's provenance and diagnostics. The
//! workloads, the metrics and the layer → end-to-end map are described in
//! `perfbench/README.md`.

mod calib;
mod layers;
mod replay;
mod server;
mod sys;
mod trace;
mod workload;

use serde_json::Value;
use std::process::ExitCode;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Operations and output checks attempted, and those that failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the diagnostics line.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one operation or check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    /// Counts a fallible step, keeping its value when it succeeded.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// Named JSON values, printed in order.
pub type Fields = Vec<(String, Value)>;

/// What a workload run hands back for printing.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub provenance: Fields,
    pub diagnostics: Fields,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

pub fn num(v: f64) -> Value {
    Value::Float(v)
}

pub fn int(v: u64) -> Value {
    Value::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

pub fn obj<K: Into<String>>(fields: Vec<(K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn line(key: &str, fields: Fields) -> String {
    serde_json::to_string(&obj(vec![(key, Value::Obj(fields))])).unwrap_or_default()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload ingest|fresh|replay --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut checks = Checks::default();
    let outcome = match args.workload.as_str() {
        "ingest" => server::run(server::Mix::Ingest, &args, &mut checks),
        "fresh" => server::run(server::Mix::Fresh, &args, &mut checks),
        "replay" => replay::run(&args, &mut checks),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (ingest, fresh, replay)");
            return ExitCode::from(2);
        }
    };
    for m in &outcome.metrics {
        checks.check(m.value.is_finite(), || {
            format!("metric {} is not a finite number", m.name)
        });
    }

    let mut provenance = vec![
        ("workload".to_string(), Value::Str(args.workload.clone())),
        ("seed".to_string(), int(args.seed)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("nproc".to_string(), int(sys::nproc() as u64)),
        ("commit".to_string(), Value::Str(sys::commit())),
        (
            "source_digest".to_string(),
            Value::Str(sys::source_digest()),
        ),
    ];
    provenance.extend(outcome.provenance);
    println!("{}", line("provenance", provenance));
    let mut diagnostics = outcome.diagnostics;
    diagnostics.push((
        "fail_share".into(),
        obj(vec![
            ("failed", int(checks.failed)),
            ("attempted", int(checks.attempted)),
            (
                "value",
                num(checks.failed as f64 / checks.attempted.max(1) as f64),
            ),
            (
                "first_failures",
                Value::Arr(checks.messages.iter().cloned().map(Value::Str).collect()),
            ),
        ]),
    ));
    println!("{}", line("diagnostics", diagnostics));

    let correct = checks.failed == 0 && checks.attempted > 0;
    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", int(checks.attempted.max(1))),
        ("failed", int(checks.failed)),
        (
            "metrics",
            Value::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            obj(vec![
                                ("value", num(m.value)),
                                ("unit", Value::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
