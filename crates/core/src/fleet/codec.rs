//! Compact, versioned binary transport for [`MonitorSnapshot`]s.
//!
//! JSON snapshots are fine for a dashboard; they are not fine for a fleet.
//! At 1 000 replicas × 1 Hz the aggregator ingests a thousand snapshots a
//! second, and the JSON form re-ships the full schema — axis names, label
//! vocabularies, subset attribute lists, detector configurations — on
//! every tick, plus every count as decimal text. The binary codec splits a
//! snapshot into its two natural halves:
//!
//! - **Schema** (static per replica lifetime): outcome axis, estimator
//!   name, window/decay configuration, axes with label vocabularies,
//!   subset lattice, change-point detector specs. Shipped once, in a
//!   **full frame**, and fingerprinted with a 64-bit FNV-1a hash.
//! - **State** (changes every tick): record totals, the clock, cell
//!   counts, ε results, alert and alarm logs, detector statistics.
//!   Shipped in **delta frames** that reference the schema by hash.
//!
//! Wire layout (integers little-endian; `varint`, `str` and `f64` are the
//! [`df_prob::wire`] primitives):
//!
//! ```text
//! frame   := magic "DFLT" | version u8 | kind u8 | schema_hash u64 | body
//! kind    := 1 (full: body = schema ++ state) | 2 (delta: body = state)
//! schema  := outcome_axis str | estimator str | metric str
//!          | window_s opt_f64 | bucket_s opt_f64 | decay opt_f64
//!          | axes | subsets | specs
//! state   := records_seen varint | window_rows varint | now opt_f64
//!          | window cells | [decayed cells] | eps | [decayed eps]
//!          | subset eps × n_subsets | alerts | detector states
//! cells   := tag u8 (0: f64 × n_cells | 1: varint × n_cells)
//! ```
//!
//! Window cells are integer tallies, so the varint cell form usually wins
//! by a wide margin (a three-digit count costs 2 bytes instead of 8 — or
//! ~7 as JSON text); the `f64` form is the lossless fallback for decayed
//! horizons. Encoding is **byte-stable**: the same snapshot always
//! serializes to the same bytes, on any encoder, in any process — the
//! property the fleet-equivalence suite pins.
//!
//! Decoding treats input as untrusted: truncated buffers, bad magic or
//! version, unknown schema hashes, trailing garbage, invalid UTF-8,
//! malformed axes, and non-finite or negative cell values all produce
//! typed [`DfError`]s ([`DfError::CorruptCounts`] for cells) — nothing
//! panics and no corrupt count ever reaches the ε kernel. A malformed
//! field is reported with its name and byte offset.

use crate::edf::check_cells;
use crate::epsilon::{EpsilonResult, EpsilonWitness};
use crate::error::{DfError, Result};
use crate::monitor::{
    Alert, AlertRule, ChangeSignal, ChangepointAlarm, ChangepointSpec, ChangepointStatus,
    CountsSnapshot, MonitorSnapshot,
};
use crate::subsets::SubsetEpsilon;
use df_prob::contingency::{valid_cell, Axis};
use df_prob::numerics::exactly_zero;
use df_prob::wire::{put_f64, put_str, put_varint, Reader};
use std::collections::{HashMap, HashSet};

/// The frame magic: `DFLT` ("differential-fairness fleet transport").
pub const MAGIC: [u8; 4] = *b"DFLT";
/// Current wire-format version. Version 2 added the metric tag to the
/// schema (inside the fingerprint, so snapshots of different metrics can
/// never be confused for delta frames of one another).
pub const VERSION: u8 = 2;

const KIND_FULL: u8 = 1;
const KIND_DELTA: u8 = 2;
const CELLS_F64: u8 = 0;
const CELLS_VARINT: u8 = 1;

/// Largest integer exactly representable in `f64` — the varint cell form
/// refuses anything bigger so decode is always exact.
const MAX_EXACT: u64 = 1 << 53;

/// Sanity cap on a decoded alert rule's consecutive-breach requirement.
/// No real deployment waits for a million breaching windows; anything
/// larger is frame corruption (and would silently truncate through an
/// `as usize` on 32-bit targets, which is exactly what `no-lossy-cast`
/// exists to prevent).
const MAX_ALERT_CONSECUTIVE: u64 = 1 << 20;

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
    }
}

fn get_opt_f64(r: &mut Reader<'_>, what: &str) -> Result<Option<f64>> {
    match r.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(r.f64(what)?)),
        flag => Err(r
            .error(format!("invalid optional-value flag {flag} in {what}"))
            .into()),
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Schema: the static half of a snapshot.
// ---------------------------------------------------------------------------

/// Everything about a snapshot that is fixed for a replica's lifetime.
#[derive(Debug, Clone, PartialEq)]
struct SnapshotSchema {
    outcome_axis: String,
    estimator: String,
    metric: String,
    window_seconds: Option<f64>,
    bucket_seconds: Option<f64>,
    decay: Option<f64>,
    axes: Vec<(String, Vec<String>)>,
    subset_attrs: Vec<Vec<String>>,
    specs: Vec<ChangepointSpec>,
}

/// Validates the state-level invariants the wire format relies on (the
/// encoder refuses to serialize a snapshot it could not faithfully
/// reconstruct): the decay triple is all-present or all-absent with
/// matching axes, and every alarm cites its own detector's spec.
/// Allocation-free — runs on every encode, including the delta hot path.
fn validate_snapshot_invariants(snap: &MonitorSnapshot) -> Result<()> {
    match (&snap.decay, &snap.decayed, &snap.decayed_epsilon) {
        (Some(_), Some(d), Some(_)) => {
            if d.axes != snap.window.axes {
                return Err(DfError::Invalid(
                    "snapshot decayed-horizon axes differ from window axes".into(),
                ));
            }
        }
        (None, None, None) => {}
        _ => {
            return Err(DfError::Invalid(
                "snapshot decay configuration is inconsistent: decay factor, \
                 decayed counts, and decayed epsilon must all be present or all absent"
                    .into(),
            ));
        }
    }
    for status in &snap.changepoints {
        if status.alarms.iter().any(|a| a.detector != status.spec) {
            return Err(DfError::Invalid(
                "snapshot alarm references a detector spec other than its own".into(),
            ));
        }
    }
    Ok(())
}

impl SnapshotSchema {
    /// Extracts the schema ([`validate_snapshot_invariants`] must have
    /// passed first).
    fn of(snap: &MonitorSnapshot) -> SnapshotSchema {
        SnapshotSchema {
            outcome_axis: snap.outcome_axis.clone(),
            estimator: snap.estimator.clone(),
            metric: snap.metric.clone(),
            window_seconds: snap.window_seconds,
            bucket_seconds: snap.bucket_seconds,
            decay: snap.decay,
            axes: snap.window.axes.clone(),
            subset_attrs: snap.subsets.iter().map(|s| s.attributes.clone()).collect(),
            specs: snap.changepoints.iter().map(|s| s.spec).collect(),
        }
    }

    /// Whether this (already shipped) schema describes `snap` — compared
    /// field by field against the snapshot, so the steady-state delta
    /// path never materializes a schema just to throw it away.
    fn matches(&self, snap: &MonitorSnapshot) -> bool {
        self.outcome_axis == snap.outcome_axis
            && self.estimator == snap.estimator
            && self.metric == snap.metric
            && self.window_seconds == snap.window_seconds
            && self.bucket_seconds == snap.bucket_seconds
            && self.decay == snap.decay
            && self.axes == snap.window.axes
            && self.subset_attrs.len() == snap.subsets.len()
            && self
                .subset_attrs
                .iter()
                .zip(&snap.subsets)
                .all(|(attrs, subset)| *attrs == subset.attributes)
            && self.specs.len() == snap.changepoints.len()
            && self
                .specs
                .iter()
                .zip(&snap.changepoints)
                .all(|(spec, status)| *spec == status.spec)
    }

    /// Number of cells the axes imply, refusing overflow: the product of
    /// per-axis label counts comes from the wire on decode paths, and a
    /// hostile schema can push it past `usize` with a few KB of labels.
    fn n_cells(&self) -> Result<usize> {
        self.axes
            .iter()
            .try_fold(1usize, |acc, (_, labels)| acc.checked_mul(labels.len()))
            .ok_or_else(|| DfError::Invalid("snapshot schema cell count overflows usize".into()))
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_str(out, &self.outcome_axis);
        put_str(out, &self.estimator);
        put_str(out, &self.metric);
        put_opt_f64(out, self.window_seconds);
        put_opt_f64(out, self.bucket_seconds);
        put_opt_f64(out, self.decay);
        put_varint(out, self.axes.len() as u64);
        for (name, labels) in &self.axes {
            put_str(out, name);
            put_varint(out, labels.len() as u64);
            for label in labels {
                put_str(out, label);
            }
        }
        put_varint(out, self.subset_attrs.len() as u64);
        for attrs in &self.subset_attrs {
            put_varint(out, attrs.len() as u64);
            for attr in attrs {
                put_str(out, attr);
            }
        }
        put_varint(out, self.specs.len() as u64);
        for spec in &self.specs {
            put_spec(out, spec);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<SnapshotSchema> {
        let outcome_axis = r.str("outcome axis")?;
        let estimator = r.str("estimator")?;
        let metric = r.str("metric")?;
        let window_seconds = get_opt_f64(r, "window seconds")?;
        let bucket_seconds = get_opt_f64(r, "bucket seconds")?;
        let decay = get_opt_f64(r, "decay")?;
        let n_axes = r.count("axis count")?;
        let mut axes = Vec::with_capacity(n_axes);
        for _ in 0..n_axes {
            let name = r.str("axis name")?;
            let n_labels = r.count("label count")?;
            let mut labels = Vec::with_capacity(n_labels);
            for _ in 0..n_labels {
                labels.push(r.str("axis label")?);
            }
            axes.push((name, labels));
        }
        let n_subsets = r.count("subset count")?;
        let mut subset_attrs = Vec::with_capacity(n_subsets);
        for _ in 0..n_subsets {
            let n_attrs = r.count("subset size")?;
            let mut attrs = Vec::with_capacity(n_attrs);
            for _ in 0..n_attrs {
                attrs.push(r.str("subset attribute")?);
            }
            subset_attrs.push(attrs);
        }
        let n_specs = r.count("detector count")?;
        let mut specs = Vec::with_capacity(n_specs);
        for _ in 0..n_specs {
            specs.push(get_spec(r)?);
        }
        let schema = SnapshotSchema {
            outcome_axis,
            estimator,
            metric,
            window_seconds,
            bucket_seconds,
            decay,
            axes,
            subset_attrs,
            specs,
        };
        schema.validate()?;
        Ok(schema)
    }

    /// Semantic validation of a decoded (untrusted) schema. Deliberately
    /// allocates nothing proportional to the cell count: a hostile schema
    /// can imply terabytes of cells in a few KB of labels, so the cell
    /// product is only checked for overflow here and bounded against the
    /// remaining frame bytes before [`get_cells`] ever allocates. Every
    /// uniqueness and membership check is a hash lookup, so the cost is
    /// linear in the frame however its bytes are split into axes and
    /// labels.
    fn validate(&self) -> Result<()> {
        // Re-running the Axis constructor validates each axis the way
        // every other entry point does (non-empty, unique labels) without
        // trusting the wire.
        for (name, labels) in &self.axes {
            Axis::new(name.clone(), labels.clone())?;
        }
        if self.axes.is_empty() {
            return Err(DfError::Invalid(
                "snapshot schema needs at least one axis".into(),
            ));
        }
        let mut names = HashSet::with_capacity(self.axes.len());
        for (name, _) in &self.axes {
            if !names.insert(name.as_str()) {
                return Err(DfError::Invalid(format!(
                    "snapshot schema repeats axis name `{name}`"
                )));
            }
        }
        self.n_cells()?;
        if !names.remove(self.outcome_axis.as_str()) {
            return Err(DfError::Invalid(format!(
                "snapshot schema names outcome axis `{}` but has no such axis",
                self.outcome_axis
            )));
        }
        // `names` now holds exactly the protected axes.
        for attr in self.subset_attrs.iter().flatten() {
            if !names.contains(attr.as_str()) {
                return Err(DfError::Invalid(format!(
                    "snapshot subset names `{attr}`, which is not a protected axis"
                )));
            }
        }
        // An unknown metric tag is a typed decode error: the snapshot's
        // statistic is meaningless without the metric that computed it,
        // and a silent ε-DF fallback would let merges mix definitions.
        crate::metric::metric_from_tag(&self.metric)?;
        for spec in &self.specs {
            spec.validate()?;
        }
        if let Some(lambda) = self.decay {
            if !(lambda > 0.0 && lambda < 1.0) {
                return Err(DfError::Invalid(format!(
                    "snapshot decay lambda must lie in (0, 1), got {lambda}"
                )));
            }
        }
        Ok(())
    }
}

fn put_spec(out: &mut Vec<u8>, spec: &ChangepointSpec) {
    match *spec {
        ChangepointSpec::Cusum {
            target,
            drift,
            threshold,
            signal,
        } => {
            out.push(0);
            out.push(signal_code(signal));
            put_f64(out, target);
            put_f64(out, drift);
            put_f64(out, threshold);
        }
        ChangepointSpec::PageHinkley {
            target,
            delta,
            lambda,
            signal,
        } => {
            out.push(1);
            out.push(signal_code(signal));
            put_f64(out, target);
            put_f64(out, delta);
            put_f64(out, lambda);
        }
    }
}

fn get_spec(r: &mut Reader<'_>) -> Result<ChangepointSpec> {
    let family = r.u8("detector family")?;
    let signal = match r.u8("detector signal")? {
        0 => ChangeSignal::Epsilon,
        1 => ChangeSignal::RawLogRatio,
        code => {
            return Err(r
                .error(format!("unknown change-point signal code {code}"))
                .into());
        }
    };
    let mut param = || r.f64("detector parameter");
    let (a, b, c) = (param()?, param()?, param()?);
    match family {
        0 => Ok(ChangepointSpec::Cusum {
            target: a,
            drift: b,
            threshold: c,
            signal,
        }),
        1 => Ok(ChangepointSpec::PageHinkley {
            target: a,
            delta: b,
            lambda: c,
            signal,
        }),
        code => Err(r
            .error(format!("unknown change-point family code {code}"))
            .into()),
    }
}

fn signal_code(signal: ChangeSignal) -> u8 {
    match signal {
        ChangeSignal::Epsilon => 0,
        ChangeSignal::RawLogRatio => 1,
    }
}

// ---------------------------------------------------------------------------
// State: the per-tick half.
// ---------------------------------------------------------------------------

fn put_cells(out: &mut Vec<u8>, cells: &[f64]) -> Result<()> {
    check_cells(cells)?;
    let integral = cells
        .iter()
        .all(|&v| exactly_zero(v.fract()) && v <= MAX_EXACT as f64);
    if integral {
        out.push(CELLS_VARINT);
        for &v in cells {
            put_varint(out, v as u64);
        }
    } else {
        out.push(CELLS_F64);
        for &v in cells {
            put_f64(out, v);
        }
    }
    Ok(())
}

fn get_cells(r: &mut Reader<'_>, n_cells: usize) -> Result<Vec<f64>> {
    let tag = r.u8("cell encoding")?;
    // Every cell costs at least one wire byte in either encoding, so a
    // schema whose cell product exceeds the bytes actually present is
    // corrupt — checked *before* the allocation, which a hostile schema
    // could otherwise inflate to terabytes from a few KB of labels.
    if n_cells > r.remaining() {
        return Err(r
            .error(format!(
                "schema implies {n_cells} cells but only {} bytes remain",
                r.remaining()
            ))
            .into());
    }
    // df-lint: allow(bounded-alloc-decode) -- n_cells is rejected against r.remaining() just above; each cell costs >= 1 wire byte
    let mut cells = Vec::with_capacity(n_cells);
    match tag {
        CELLS_F64 => {
            for cell in 0..n_cells {
                let v = r.f64("cell")?;
                if !valid_cell(v) {
                    return Err(DfError::CorruptCounts { cell, value: v });
                }
                cells.push(v);
            }
        }
        CELLS_VARINT => {
            for cell in 0..n_cells {
                let raw = r.varint("cell")?;
                if raw > MAX_EXACT {
                    return Err(DfError::CorruptCounts {
                        cell,
                        value: raw as f64,
                    });
                }
                cells.push(raw as f64);
            }
        }
        tag => {
            return Err(r.error(format!("unknown cell encoding tag {tag}")).into());
        }
    }
    Ok(cells)
}

fn put_eps(out: &mut Vec<u8>, eps: &EpsilonResult) {
    put_f64(out, eps.epsilon);
    match &eps.witness {
        None => out.push(0),
        Some(w) => {
            out.push(1);
            put_str(out, &w.outcome);
            put_str(out, &w.group_hi);
            put_str(out, &w.group_lo);
            put_f64(out, w.prob_hi);
            put_f64(out, w.prob_lo);
        }
    }
}

fn get_eps(r: &mut Reader<'_>) -> Result<EpsilonResult> {
    let epsilon = r.f64("epsilon")?;
    let witness = match r.u8("witness flag")? {
        0 => None,
        1 => Some(EpsilonWitness {
            outcome: r.str("witness outcome")?,
            group_hi: r.str("witness group")?,
            group_lo: r.str("witness group")?,
            prob_hi: r.f64("witness probability")?,
            prob_lo: r.f64("witness probability")?,
        }),
        flag => {
            return Err(r.error(format!("invalid witness flag {flag}")).into());
        }
    };
    Ok(EpsilonResult { epsilon, witness })
}

fn put_state(out: &mut Vec<u8>, schema: &SnapshotSchema, snap: &MonitorSnapshot) -> Result<()> {
    put_varint(out, snap.records_seen);
    put_varint(out, snap.window_rows);
    put_opt_f64(out, snap.now_seconds);
    let n_cells = schema.n_cells()?;
    if snap.window.data.len() != n_cells {
        return Err(DfError::Invalid(format!(
            "snapshot window holds {} cells but its axes imply {n_cells}",
            snap.window.data.len(),
        )));
    }
    put_cells(out, &snap.window.data)?;
    if let Some(decayed) = &snap.decayed {
        if decayed.data.len() != n_cells {
            return Err(DfError::Invalid(format!(
                "snapshot decayed horizon holds {} cells but its axes imply {n_cells}",
                decayed.data.len(),
            )));
        }
        put_cells(out, &decayed.data)?;
    }
    put_eps(out, &snap.epsilon);
    if let Some(eps) = &snap.decayed_epsilon {
        put_eps(out, eps);
    }
    for subset in &snap.subsets {
        put_eps(out, &subset.result);
    }
    put_varint(out, snap.alerts.len() as u64);
    for alert in &snap.alerts {
        put_f64(out, alert.rule.threshold);
        put_varint(out, alert.rule.consecutive as u64);
        put_varint(out, alert.at_record);
        put_opt_f64(out, alert.at_seconds);
        put_eps(
            out,
            &EpsilonResult {
                epsilon: alert.epsilon,
                witness: alert.witness.clone(),
            },
        );
    }
    for status in &snap.changepoints {
        put_f64(out, status.statistic);
        put_varint(out, status.alarms.len() as u64);
        for alarm in &status.alarms {
            put_varint(out, alarm.at_record);
            put_opt_f64(out, alarm.at_seconds);
            put_f64(out, alarm.statistic);
            put_f64(out, alarm.signal);
        }
    }
    Ok(())
}

fn get_state(r: &mut Reader<'_>, schema: &SnapshotSchema) -> Result<MonitorSnapshot> {
    let records_seen = r.varint("records seen")?;
    let window_rows = r.varint("window rows")?;
    let now_seconds = get_opt_f64(r, "clock")?;
    let n_cells = schema.n_cells()?;
    let window = CountsSnapshot {
        axes: schema.axes.clone(),
        data: get_cells(r, n_cells)?,
    };
    let decayed = match schema.decay {
        Some(_) => Some(CountsSnapshot {
            axes: schema.axes.clone(),
            data: get_cells(r, n_cells)?,
        }),
        None => None,
    };
    let epsilon = get_eps(r)?;
    let decayed_epsilon = match schema.decay {
        Some(_) => Some(get_eps(r)?),
        None => None,
    };
    let subsets = schema
        .subset_attrs
        .iter()
        .map(|attrs| {
            Ok(SubsetEpsilon {
                attributes: attrs.clone(),
                result: get_eps(r)?,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let n_alerts = r.count("alert count")?;
    let mut alerts = Vec::with_capacity(n_alerts);
    for alert_idx in 0..n_alerts {
        let threshold = r.f64("alert threshold")?;
        let raw_consecutive = r.varint("alert consecutive")?;
        if raw_consecutive > MAX_ALERT_CONSECUTIVE {
            return Err(DfError::CorruptCounts {
                cell: alert_idx,
                value: raw_consecutive as f64,
            });
        }
        let consecutive = usize::try_from(raw_consecutive).map_err(|_| DfError::CorruptCounts {
            cell: alert_idx,
            value: raw_consecutive as f64,
        })?;
        let at_record = r.varint("alert record")?;
        let at_seconds = get_opt_f64(r, "alert time")?;
        let eps = get_eps(r)?;
        alerts.push(Alert {
            rule: AlertRule {
                threshold,
                consecutive,
            },
            at_record,
            at_seconds,
            epsilon: eps.epsilon,
            witness: eps.witness,
        });
    }
    let changepoints = schema
        .specs
        .iter()
        .map(|&spec| {
            let statistic = r.f64("detector statistic")?;
            let n_alarms = r.count("alarm count")?;
            let mut alarms = Vec::with_capacity(n_alarms);
            for _ in 0..n_alarms {
                alarms.push(ChangepointAlarm {
                    detector: spec,
                    at_record: r.varint("alarm record")?,
                    at_seconds: get_opt_f64(r, "alarm time")?,
                    statistic: r.f64("alarm statistic")?,
                    signal: r.f64("alarm signal")?,
                });
            }
            Ok(ChangepointStatus {
                spec,
                statistic,
                alarms,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(MonitorSnapshot {
        outcome_axis: schema.outcome_axis.clone(),
        estimator: schema.estimator.clone(),
        metric: schema.metric.clone(),
        records_seen,
        window_rows,
        window_seconds: schema.window_seconds,
        bucket_seconds: schema.bucket_seconds,
        now_seconds,
        window,
        decayed,
        decay: schema.decay,
        epsilon,
        decayed_epsilon,
        subsets,
        alerts,
        changepoints,
    })
}

// ---------------------------------------------------------------------------
// Encoder / decoder.
// ---------------------------------------------------------------------------

/// Replica-side encoder with schema interning: the first `encode` ships a
/// full frame carrying the schema; every following tick whose schema is
/// unchanged ships a delta frame — cell data, ε results, and detector
/// state only, typically 5–20× smaller than the JSON form. A schema
/// change (reconfigured monitor) automatically re-ships a full frame.
#[derive(Debug, Default)]
pub struct SnapshotEncoder {
    /// The schema already on the wire, with its hash.
    shipped: Option<(u64, SnapshotSchema)>,
}

impl SnapshotEncoder {
    /// A fresh encoder (first frame will be full).
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one snapshot, interning its schema. The steady-state path
    /// (schema unchanged since the last tick) compares the shipped schema
    /// against the snapshot field-by-field and allocates nothing beyond
    /// the output frame.
    pub fn encode(&mut self, snap: &MonitorSnapshot) -> Result<Vec<u8>> {
        validate_snapshot_invariants(snap)?;
        if let Some((hash, shipped)) = &self.shipped {
            if shipped.matches(snap) {
                return frame(KIND_DELTA, *hash, None, shipped, snap);
            }
        }
        let schema = SnapshotSchema::of(snap);
        let mut schema_bytes = Vec::with_capacity(256);
        schema.encode(&mut schema_bytes);
        let hash = fnv1a64(&schema_bytes);
        let bytes = frame(KIND_FULL, hash, Some(&schema_bytes), &schema, snap)?;
        self.shipped = Some((hash, schema));
        Ok(bytes)
    }

    /// Forces the next [`SnapshotEncoder::encode`] to ship a full frame —
    /// e.g. after the aggregator reports an unknown schema hash.
    pub fn reset(&mut self) {
        self.shipped = None;
    }
}

fn frame(
    kind: u8,
    hash: u64,
    schema_bytes: Option<&[u8]>,
    schema: &SnapshotSchema,
    snap: &MonitorSnapshot,
) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64 + schema_bytes.map_or(0, <[u8]>::len));
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&hash.to_le_bytes());
    if let Some(bytes) = schema_bytes {
        out.extend_from_slice(bytes);
    }
    put_state(&mut out, schema, snap)?;
    Ok(out)
}

/// Upper bound on the decoder's schema intern table. A fleet shares a
/// handful of schemas (replicas with the same monitor configuration
/// share one), but full frames are *untrusted*: without a cap, a hostile
/// replica shipping a fresh multi-KB vocabulary per tick would grow the
/// aggregator's memory without limit. At the cap the oldest-interned
/// schema is evicted (FIFO); a replica whose schema was evicted gets the
/// usual "unknown schema" error on its next delta frame and re-ships a
/// full frame ([`SnapshotEncoder::reset`]).
pub const MAX_INTERNED_SCHEMAS: usize = 1024;

/// Aggregator-side decoder with a schema intern table: full frames
/// register their schema under its hash; delta frames look it up. One
/// decoder serves any number of replicas (replicas sharing a monitor
/// configuration share one interned schema); the table is bounded by
/// [`MAX_INTERNED_SCHEMAS`].
#[derive(Debug, Default)]
pub struct SnapshotDecoder {
    schemas: HashMap<u64, SnapshotSchema>,
    /// Interning order, oldest first — drives FIFO eviction at the cap.
    order: std::collections::VecDeque<u64>,
}

impl SnapshotDecoder {
    /// A fresh decoder with an empty intern table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct schemas interned so far.
    pub fn interned_schemas(&self) -> usize {
        self.schemas.len()
    }

    /// Decodes one frame. Full frames validate the schema (and its hash)
    /// before interning it; delta frames require a previously interned
    /// schema — an unknown hash is a typed error telling the caller to
    /// request a full frame from that replica.
    pub fn decode(&mut self, bytes: &[u8]) -> Result<MonitorSnapshot> {
        let mut r = Reader::new(bytes, 0);
        let magic = r.take(4, "magic")?;
        if magic != MAGIC {
            return Err(DfError::Invalid(
                "not a snapshot frame: bad magic bytes".into(),
            ));
        }
        let version = r.u8("version")?;
        if version != VERSION {
            return Err(DfError::Invalid(format!(
                "unsupported snapshot frame version {version} (this decoder \
                 speaks version {VERSION})"
            )));
        }
        let kind = r.u8("frame kind")?;
        let hash = r.u64_le("schema hash")?;
        // Borrow the interned schema rather than cloning it: delta frames
        // are the 1 kHz hot path, and a per-frame deep clone of the axis
        // vocabularies would be pure allocation churn.
        let schema: &SnapshotSchema = match kind {
            KIND_FULL => {
                let start = r.pos();
                let schema = SnapshotSchema::decode(&mut r)?;
                let schema_span = bytes
                    .get(start..r.pos())
                    .ok_or_else(|| DfError::Invalid("schema span out of frame bounds".into()))?;
                let actual = fnv1a64(schema_span);
                if actual != hash {
                    return Err(DfError::Invalid(format!(
                        "snapshot schema hash mismatch: frame claims \
                         {hash:#018x}, content hashes to {actual:#018x}"
                    )));
                }
                match self.schemas.get(&hash) {
                    // First-writer-wins under one hash: FNV-1a is not
                    // collision-resistant, so a *different* schema
                    // arriving under an interned hash must fail loud —
                    // silently replacing it would let a forged frame
                    // redirect an honest replica's later delta frames
                    // onto the wrong vocabulary.
                    Some(existing) if *existing != schema => {
                        return Err(DfError::Invalid(format!(
                            "schema hash collision on {hash:#018x}: a different \
                             schema is already interned under this fingerprint"
                        )));
                    }
                    Some(_) => {}
                    None => {
                        if self.schemas.len() >= MAX_INTERNED_SCHEMAS {
                            if let Some(oldest) = self.order.pop_front() {
                                self.schemas.remove(&oldest);
                            }
                        }
                        self.order.push_back(hash);
                        self.schemas.insert(hash, schema);
                    }
                }
                self.schemas.get(&hash).ok_or_else(|| {
                    DfError::Invalid(format!(
                        "schema {hash:#018x} missing from intern table \
                         immediately after insertion"
                    ))
                })?
            }
            KIND_DELTA => self.schemas.get(&hash).ok_or_else(|| {
                DfError::Invalid(format!(
                    "delta frame references unknown schema {hash:#018x}; \
                     request a full frame from the replica first"
                ))
            })?,
            kind => {
                return Err(DfError::Invalid(format!(
                    "unknown snapshot frame kind {kind}"
                )));
            }
        };
        let snap = get_state(&mut r, schema)?;
        r.done("snapshot frame")?;
        Ok(snap)
    }
}

/// One-shot encode: always a full (self-describing) frame.
pub fn encode_snapshot(snap: &MonitorSnapshot) -> Result<Vec<u8>> {
    SnapshotEncoder::new().encode(snap)
}

/// One-shot decode of a self-describing (full) frame.
pub fn decode_snapshot(bytes: &[u8]) -> Result<MonitorSnapshot> {
    SnapshotDecoder::new().decode(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{Audit, Smoothed, SubsetPolicy};
    use crate::monitor::tests::{axes, Rows};
    use crate::monitor::Cusum;

    fn live_snapshot() -> MonitorSnapshot {
        let mut monitor = Audit::monitor("y", axes())
            .estimator(Smoothed { alpha: 1.0 })
            .subsets(SubsetPolicy::All)
            .window_seconds(10.0)
            .bucket_seconds(1.0)
            .decay(0.5)
            .alert(crate::monitor::AlertRule::epsilon_above(0.1))
            .changepoint(Cusum::new(0.0, 0.05, 0.2))
            .build()
            .unwrap();
        for t in 0..8 {
            monitor
                .push_at(&Rows(vec![[1, 0], [1, 0], [0, 1], [1, 1]]), t as f64)
                .unwrap();
        }
        monitor.snapshot().unwrap()
    }

    #[test]
    fn full_and_delta_frames_round_trip() {
        let snap = live_snapshot();
        let mut enc = SnapshotEncoder::new();
        let mut dec = SnapshotDecoder::new();
        let full = enc.encode(&snap).unwrap();
        assert_eq!(&full[..4], b"DFLT");
        assert_eq!(full[5], KIND_FULL);
        assert_eq!(dec.decode(&full).unwrap(), snap);
        // Second tick of the same monitor: a delta frame, much smaller,
        // same round trip.
        let delta = enc.encode(&snap).unwrap();
        assert_eq!(delta[5], KIND_DELTA);
        assert!(delta.len() < full.len());
        assert_eq!(dec.decode(&delta).unwrap(), snap);
        assert_eq!(dec.interned_schemas(), 1);
    }

    #[test]
    fn encoding_is_byte_stable_across_encoders() {
        let snap = live_snapshot();
        let a = SnapshotEncoder::new().encode(&snap).unwrap();
        let b = SnapshotEncoder::new().encode(&snap).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, encode_snapshot(&snap).unwrap());
        // Decode → re-encode reproduces the identical frame.
        let back = decode_snapshot(&a).unwrap();
        assert_eq!(encode_snapshot(&back).unwrap(), a);
    }

    #[test]
    fn delta_without_full_frame_is_refused() {
        let snap = live_snapshot();
        let mut enc = SnapshotEncoder::new();
        let _full = enc.encode(&snap).unwrap();
        let delta = enc.encode(&snap).unwrap();
        let err = SnapshotDecoder::new().decode(&delta).unwrap_err();
        assert!(err.to_string().contains("unknown schema"));
        // reset() re-ships the schema.
        enc.reset();
        let full_again = enc.encode(&snap).unwrap();
        assert_eq!(full_again[5], KIND_FULL);
        assert_eq!(SnapshotDecoder::new().decode(&full_again).unwrap(), snap);
    }

    #[test]
    fn decode_rejects_malformed_frames() {
        let snap = live_snapshot();
        let full = encode_snapshot(&snap).unwrap();
        let mut dec = SnapshotDecoder::new();
        // Truncations at every prefix length fail typed, never panic, and
        // name a byte offset inside the prefix.
        for len in 0..full.len() {
            let err = dec.decode(&full[..len]).unwrap_err().to_string();
            let at = err
                .split_once("at byte ")
                .and_then(|(_, rest)| rest.split(':').next())
                .and_then(|n| n.parse::<usize>().ok());
            assert!(at.is_some_and(|at| at <= len), "prefix {len}: {err}");
        }
        // Bad magic.
        let mut bad = full.clone();
        bad[0] = b'X';
        assert!(dec.decode(&bad).unwrap_err().to_string().contains("magic"));
        // Bad version.
        let mut bad = full.clone();
        bad[4] = 99;
        assert!(dec
            .decode(&bad)
            .unwrap_err()
            .to_string()
            .contains("version"));
        // Corrupted schema byte → hash mismatch.
        let mut bad = full.clone();
        bad[20] ^= 0xff;
        assert!(dec.decode(&bad).is_err());
        // Trailing garbage.
        let mut bad = full.clone();
        bad.push(0);
        assert!(dec
            .decode(&bad)
            .unwrap_err()
            .to_string()
            .contains("trailing"));
    }

    #[test]
    fn decode_rejects_corrupt_cells() {
        let mut snap = live_snapshot();
        let clean = encode_snapshot(&snap).unwrap();
        // A hostile replica ships a negative cell: the *encoder* refuses…
        snap.window.data[1] = -4.0;
        assert!(matches!(
            encode_snapshot(&snap),
            Err(DfError::CorruptCounts { cell: 1, .. })
        ));
        // …and so does the decoder when the bytes themselves are doctored.
        // Locate the varint cell block: flip a cell to the f64 form with a
        // negative value by rebuilding the frame around a corrupt state.
        snap.window.data[1] = f64::NAN;
        assert!(matches!(
            encode_snapshot(&snap),
            Err(DfError::CorruptCounts { cell: 1, .. })
        ));
        // The clean frame still decodes (sanity).
        assert!(decode_snapshot(&clean).is_ok());
    }

    #[test]
    fn decode_rejects_oversized_alert_consecutive() {
        // Byte surgery on the alert block: the encoded `consecutive`
        // varint sits immediately after the rule's threshold f64, so a
        // threshold with a distinctive bit pattern lets us find and
        // replace it in the raw frame. A doctored value of 2^33 used to
        // decode through `as usize` — silently truncating to 0 on
        // 32-bit targets; now any value past MAX_ALERT_CONSECUTIVE is a
        // typed CorruptCounts on every target.
        let mut snap = live_snapshot();
        let threshold = 0.123_456_789_f64;
        snap.alerts.push(Alert {
            rule: AlertRule {
                threshold,
                consecutive: 3,
            },
            at_record: 32,
            at_seconds: Some(7.0),
            epsilon: 0.5,
            witness: None,
        });
        let frame = encode_snapshot(&snap).unwrap();

        let needle = threshold.to_bits().to_le_bytes();
        let at = frame
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("distinctive threshold bytes present exactly once");
        let consecutive_at = at + needle.len();
        assert_eq!(frame[consecutive_at], 3, "varint(3) is one byte");

        // Splice in varint(2^33) = 80 80 80 80 20 in place of the 03.
        let splice = |value_bytes: &[u8]| {
            let mut doctored = frame[..consecutive_at].to_vec();
            doctored.extend_from_slice(value_bytes);
            doctored.extend_from_slice(&frame[consecutive_at + 1..]);
            doctored
        };
        let doctored = splice(&[0x80, 0x80, 0x80, 0x80, 0x20]);
        assert!(matches!(
            decode_snapshot(&doctored),
            Err(DfError::CorruptCounts { .. })
        ));

        // Boundary: exactly MAX_ALERT_CONSECUTIVE (2^20) still decodes.
        let boundary = splice(&[0x80, 0x80, 0x40]);
        let decoded = decode_snapshot(&boundary).unwrap();
        let doctored_alert = decoded.alerts.last().unwrap();
        assert_eq!(doctored_alert.rule.consecutive, 1 << 20);

        // And the undoctored frame round-trips the real value (sanity).
        assert_eq!(
            decode_snapshot(&frame)
                .unwrap()
                .alerts
                .last()
                .unwrap()
                .rule
                .consecutive,
            3
        );
    }

    #[test]
    fn varint_cells_compress_integer_windows() {
        let snap = live_snapshot();
        let mut enc = SnapshotEncoder::new();
        let _ = enc.encode(&snap).unwrap();
        let delta = enc.encode(&snap).unwrap();
        let json = serde_json::to_string(&snap).unwrap();
        assert!(
            delta.len() * 5 <= json.len(),
            "steady-state delta {} B should be ≥ 5x smaller than JSON {} B",
            delta.len(),
            json.len()
        );
    }

    #[test]
    fn inconsistent_decay_state_is_refused_by_the_encoder() {
        let mut snap = live_snapshot();
        snap.decayed = None;
        assert!(encode_snapshot(&snap).is_err());
    }

    /// The intern table is bounded: a replica (or attacker) shipping an
    /// endless stream of distinct valid schemas evicts FIFO at the cap
    /// instead of growing aggregator memory without limit.
    #[test]
    fn intern_table_is_bounded_with_fifo_eviction() {
        let base = {
            let mut monitor = Audit::monitor("y", axes())
                .window_seconds(4.0)
                .build()
                .unwrap();
            monitor.push_at(&Rows(vec![[0, 0], [1, 1]]), 1.0).unwrap();
            monitor.snapshot().unwrap()
        };
        let snap_for = |i: usize| {
            let mut snap = base.clone();
            snap.window.axes[1].0 = format!("g{i}");
            for subset in &mut snap.subsets {
                for attr in &mut subset.attributes {
                    if attr == "g" {
                        *attr = format!("g{i}");
                    }
                }
            }
            snap
        };
        let mut dec = SnapshotDecoder::new();
        for i in 0..=MAX_INTERNED_SCHEMAS {
            dec.decode(&encode_snapshot(&snap_for(i)).unwrap()).unwrap();
        }
        assert_eq!(dec.interned_schemas(), MAX_INTERNED_SCHEMAS);
        // The oldest schema was evicted: its delta frames are unknown…
        let mut enc = SnapshotEncoder::new();
        enc.encode(&snap_for(0)).unwrap();
        let delta = enc.encode(&snap_for(0)).unwrap();
        let err = dec.decode(&delta).unwrap_err();
        assert!(err.to_string().contains("unknown schema"), "got: {err}");
        // …while the newest still decodes from deltas.
        let mut enc = SnapshotEncoder::new();
        enc.encode(&snap_for(MAX_INTERNED_SCHEMAS)).unwrap();
        let delta = enc.encode(&snap_for(MAX_INTERNED_SCHEMAS)).unwrap();
        assert!(dec.decode(&delta).is_ok());
    }

    /// A frame whose schema names a metric this build does not know must
    /// be refused with a typed error — never silently decoded as ε-DF,
    /// which would let a later merge mix two different definitions.
    #[test]
    fn unknown_metric_tag_is_a_typed_decode_error() {
        let mut snap = live_snapshot();
        snap.metric = "martian".to_string();
        let frame = encode_snapshot(&snap).unwrap();
        let err = SnapshotDecoder::new().decode(&frame).unwrap_err();
        assert!(matches!(err, DfError::Invalid(_)));
        assert!(err.to_string().contains("unknown metric"), "got: {err}");
        // Every known tag round-trips through the same path.
        for tag in ["eps-df", "wc-ratio", "wc-diff", "alpha-if(alpha=0.5)"] {
            let mut snap = live_snapshot();
            snap.metric = tag.to_string();
            let back = decode_snapshot(&encode_snapshot(&snap).unwrap()).unwrap();
            assert_eq!(back, snap);
        }
    }

    /// A full frame around a hand-built schema (outcome axis `a0`, no
    /// detectors), followed by `state` verbatim.
    fn forge(
        axes: Vec<(String, Vec<String>)>,
        subset_attrs: Vec<Vec<String>>,
        state: &[u8],
    ) -> Vec<u8> {
        let schema = SnapshotSchema {
            outcome_axis: "a0".to_string(),
            estimator: "evil".to_string(),
            metric: "eps-df".to_string(),
            window_seconds: None,
            bucket_seconds: None,
            decay: None,
            axes,
            subset_attrs,
            specs: Vec::new(),
        };
        let mut schema_bytes = Vec::new();
        schema.encode(&mut schema_bytes);
        let hash = fnv1a64(&schema_bytes).to_le_bytes();
        [
            &MAGIC[..],
            &[VERSION, KIND_FULL],
            &hash,
            &schema_bytes,
            state,
        ]
        .concat()
    }

    fn grid(n_axes: usize, n_labels: usize) -> Vec<(String, Vec<String>)> {
        (0..n_axes)
            .map(|a| {
                (
                    format!("a{a}"),
                    (0..n_labels).map(|l| l.to_string()).collect(),
                )
            })
            .collect()
    }

    /// A hostile full frame whose few-KB schema implies terabytes of
    /// cells (6 axes × 200 labels → 200⁶ = 6.4e13) must be refused
    /// *without* allocating anything proportional to that product — the
    /// cell count is bounded by the bytes actually on the wire.
    #[test]
    fn hostile_schema_cell_products_cannot_inflate_allocations() {
        // A plausible little state block: totals, no clock, a cell tag —
        // then nothing like enough bytes for the cells.
        let state = [1, 1, 0, CELLS_VARINT];
        // 6.4e13 implied cells in a ~6 KB frame: refused fast and typed.
        let bomb = forge(grid(6, 200), Vec::new(), &state);
        assert!(bomb.len() < 10_000);
        let err = SnapshotDecoder::new().decode(&bomb).unwrap_err();
        assert!(err.to_string().contains("cells"), "got: {err}");
        // 12 axes × 200 labels overflows the usize cell product outright.
        let overflow = forge(grid(12, 200), Vec::new(), &state);
        let err = SnapshotDecoder::new().decode(&overflow).unwrap_err();
        assert!(err.to_string().contains("overflows"), "got: {err}");
    }

    /// Schema checks cost one hash lookup per label, axis and subset
    /// attribute: all-vocabulary frames under the server's 1 MiB body cap
    /// decode or fail in well under 2 s, even unoptimized.
    #[test]
    fn vocabulary_heavy_frames_decode_in_linear_time() {
        // Zero totals, no clock, zero varint cells, then ε 0 with no
        // witness for the full set and each subset, and no alerts.
        let decode = |axes, subsets: Vec<Vec<String>>, n_cells: usize| {
            let mut state = vec![0, 0, 0, CELLS_VARINT];
            state.resize(4 + n_cells, 0);
            for _ in 0..=subsets.len() {
                put_f64(&mut state, 0.0);
                state.push(0);
            }
            state.push(0);
            let frame = forge(axes, subsets, &state);
            assert!(frame.len() < 1 << 20, "{} B", frame.len());
            let started = std::time::Instant::now();
            let result = SnapshotDecoder::new().decode(&frame);
            assert!(started.elapsed() < std::time::Duration::from_secs(2));
            result
        };
        // One 70,000-label axis: decodes.
        let mut axes = grid(1, 2);
        axes.push((
            "a1".to_string(),
            (0..70_000).map(|l| l.to_string()).collect(),
        ));
        let snap = decode(axes, Vec::new(), 140_000).unwrap();
        assert_eq!(snap.window.axes[1].1.len(), 70_000);
        // 100,000 one-label axes, the last repeating the first's name.
        let mut axes = grid(100_000, 1);
        axes.push(("a0".to_string(), vec!["0".to_string()]));
        let err = decode(axes, Vec::new(), 1).unwrap_err();
        assert!(err.to_string().contains("repeats axis name `a0`"), "{err}");
        // One subset naming 50,000 protected axes: decodes.
        let axes = grid(50_001, 1);
        let subset = axes[1..].iter().map(|(name, _)| name.clone()).collect();
        let snap = decode(axes, vec![subset], 1).unwrap();
        assert_eq!(snap.subsets[0].attributes.len(), 50_000);
    }
}
