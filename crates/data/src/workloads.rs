//! Synthetic workload generators for benchmarks and property tests.

use crate::error::{DataError, Result};
use df_prob::contingency::{Axis, ContingencyTable};
use df_prob::dist::Normal;
use df_prob::rng::Pcg32;

/// Random joint counts over `outcome × p attributes`, every cell positive.
///
/// `arities` gives each attribute's cardinality; cells draw uniformly from
/// `[1, max_cell]`. Useful for stress-testing subset audits where all ε are
/// finite.
pub fn random_joint_counts(
    rng: &mut Pcg32,
    n_outcomes: usize,
    arities: &[usize],
    max_cell: u32,
) -> Result<ContingencyTable> {
    if n_outcomes < 2 || arities.is_empty() || max_cell == 0 {
        return Err(DataError::Invalid(
            "need >=2 outcomes, >=1 attribute, positive max_cell".into(),
        ));
    }
    let mut axes = Vec::with_capacity(arities.len() + 1);
    axes.push(Axis::new(
        "outcome",
        (0..n_outcomes).map(|i| format!("y{i}")).collect(),
    )?);
    for (k, &a) in arities.iter().enumerate() {
        if a == 0 {
            return Err(DataError::Invalid(format!("attribute {k} has arity 0")));
        }
        axes.push(Axis::new(
            format!("attr{k}"),
            (0..a).map(|i| format!("v{i}")).collect(),
        )?);
    }
    let cells: usize = n_outcomes * arities.iter().product::<usize>();
    let data: Vec<f64> = (0..cells)
        .map(|_| 1.0 + rng.next_below(max_cell) as f64)
        .collect();
    ContingencyTable::from_data(axes, data).map_err(DataError::from)
}

/// A two-outcome group table with a *planted* ε: the positive-outcome rates
/// interpolate log-linearly from `base_rate` down to `base_rate · e^-eps`,
/// so the tightest ε of the table is exactly `eps` (up to the binary
/// complement's smaller ratio).
///
/// Returns `(group_rates, expected_epsilon)`.
pub fn planted_epsilon_rates(n_groups: usize, base_rate: f64, eps: f64) -> Result<(Vec<f64>, f64)> {
    if n_groups < 2 {
        return Err(DataError::Invalid("need >= 2 groups".into()));
    }
    if !(0.0 < base_rate && base_rate < 1.0) {
        return Err(DataError::Invalid("base_rate must lie in (0,1)".into()));
    }
    if eps < 0.0 {
        return Err(DataError::Invalid("eps must be non-negative".into()));
    }
    let rates: Vec<f64> = (0..n_groups)
        .map(|g| base_rate * (-eps * g as f64 / (n_groups - 1) as f64).exp())
        .collect();
    // The planted ε is on the positive outcome; the complement's ratio is
    // ln((1-min)/(1-max)) which is smaller whenever base_rate < 1/2 and eps
    // is the dominating side for small rates.
    let comp = ((1.0 - rates[n_groups - 1]) / (1.0 - rates[0])).ln();
    Ok((rates, eps.max(comp)))
}

/// A synthetic row-level audit workload: a frame of `n_rows` categorical
/// records over `outcome × attr0 × … × attr{p-1}`, with mildly skewed
/// category frequencies (squared-uniform draws) so the tallied table has
/// realistic imbalance without empty cells at scale.
///
/// Column names and vocabularies match [`random_joint_counts`]
/// (`outcome` with labels `y0…`, `attr{k}` with labels `v0…`), so the same
/// axes describe both workloads. This is the generator behind the
/// million-row streaming-ingestion benchmark.
pub fn synthetic_audit_frame(
    rng: &mut Pcg32,
    n_rows: usize,
    n_outcomes: usize,
    arities: &[usize],
) -> Result<crate::frame::DataFrame> {
    use crate::frame::{Column, DataFrame};
    if n_rows == 0 || n_outcomes < 2 || arities.is_empty() {
        return Err(DataError::Invalid(
            "need >=1 row, >=2 outcomes, >=1 attribute".into(),
        ));
    }
    if arities.contains(&0) {
        return Err(DataError::Invalid(
            "attribute arities must be positive".into(),
        ));
    }
    // Squared-uniform skew: code = ⌊u²·a⌋ gives P(k) = √((k+1)/a) − √(k/a),
    // decreasing in k — category 0 is the most common (≈ 1/√a mass).
    let mut draw_codes = |arity: usize| -> Vec<u32> {
        (0..n_rows)
            .map(|_| {
                let u = rng.next_f64();
                ((u * u * arity as f64) as usize).min(arity - 1) as u32
            })
            .collect()
    };
    let mut columns = Vec::with_capacity(arities.len() + 1);
    columns.push(Column::categorical_from_codes(
        "outcome",
        draw_codes(n_outcomes),
        (0..n_outcomes).map(|i| format!("y{i}")).collect(),
    )?);
    for (k, &a) in arities.iter().enumerate() {
        columns.push(Column::categorical_from_codes(
            format!("attr{k}"),
            draw_codes(a),
            (0..a).map(|i| format!("v{i}")).collect(),
        )?);
    }
    DataFrame::new(columns)
}

/// A drifting replay workload for online-monitor benchmarks and tests: a
/// frame of `n_rows` binary-outcome records over uniform intersectional
/// groups whose **planted ε drifts linearly** from `eps_start` at the top
/// of the frame to `eps_end` at the bottom.
///
/// Row `i` (stream position `t = i / (n_rows − 1)`) draws its group `g`
/// uniformly over the `∏ arities` intersections and its positive outcome
/// with probability
///
/// ```text
/// p_g(t) = base_rate · exp(−ε(t) · g / (G − 1)),   ε(t) = lerp(eps_start, eps_end, t)
/// ```
///
/// — the log-linear ramp of [`planted_epsilon_rates`], time-varying. A
/// sliding window replaying the frame therefore sees its ε climb (or
/// fall) towards `eps_end`, which is exactly the drift a deployed
/// fairness monitor must detect. Column names and vocabularies match
/// [`synthetic_audit_frame`] (`outcome` first — the layout the monitor's
/// `FrameChunks` sources expect).
pub fn drift_replay_frame(
    rng: &mut Pcg32,
    n_rows: usize,
    arities: &[usize],
    base_rate: f64,
    eps_start: f64,
    eps_end: f64,
) -> Result<crate::frame::DataFrame> {
    use crate::frame::{Column, DataFrame};
    if n_rows < 2 || arities.is_empty() {
        return Err(DataError::Invalid("need >=2 rows and >=1 attribute".into()));
    }
    if arities.contains(&0) {
        return Err(DataError::Invalid(
            "attribute arities must be positive".into(),
        ));
    }
    if !(0.0 < base_rate && base_rate < 1.0) {
        return Err(DataError::Invalid("base_rate must lie in (0,1)".into()));
    }
    if eps_start < 0.0 || eps_end < 0.0 {
        return Err(DataError::Invalid(
            "planted epsilons must be non-negative".into(),
        ));
    }
    let n_groups: usize = arities.iter().product();
    let denom = (n_groups.max(2) - 1) as f64;
    let mut outcome_codes = Vec::with_capacity(n_rows);
    let mut attr_codes: Vec<Vec<u32>> =
        arities.iter().map(|_| Vec::with_capacity(n_rows)).collect();
    for i in 0..n_rows {
        let t = i as f64 / (n_rows - 1) as f64;
        let eps_t = eps_start + (eps_end - eps_start) * t;
        // Uniform group, decoded mixed-radix (last attribute fastest) to
        // match the audit kernel's intersection indexing.
        let g = rng.next_below(n_groups as u32) as usize;
        let mut rem = g;
        for (k, &a) in arities.iter().enumerate().rev() {
            attr_codes[k].push((rem % a) as u32);
            rem /= a;
        }
        let p = base_rate * (-eps_t * g as f64 / denom).exp();
        outcome_codes.push(u32::from(rng.next_f64() < p));
    }
    let mut columns = Vec::with_capacity(arities.len() + 1);
    columns.push(Column::categorical_from_codes(
        "outcome",
        outcome_codes,
        vec!["y0".to_string(), "y1".to_string()],
    )?);
    for (k, codes) in attr_codes.into_iter().enumerate() {
        columns.push(Column::categorical_from_codes(
            format!("attr{k}"),
            codes,
            (0..arities[k]).map(|i| format!("v{i}")).collect(),
        )?);
    }
    DataFrame::new(columns)
}

/// The arrival process of a timestamped replay: how record timestamps
/// advance between consecutive rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Evenly spaced arrivals: one record every `1 / rate` seconds.
    Uniform {
        /// Mean arrivals per second.
        rate: f64,
    },
    /// A Poisson process: i.i.d. exponential gaps with mean `1 / rate` —
    /// the usual model for independent user traffic.
    Poisson {
        /// Mean arrivals per second.
        rate: f64,
    },
    /// Bursty traffic: records arrive in back-to-back groups of `burst`
    /// sharing one timestamp, with `burst / rate`-second gaps between
    /// groups (same long-run rate). Stresses out-of-order-friendly
    /// bucketing: many records per instant, then silence.
    Bursty {
        /// Mean arrivals per second (long-run).
        rate: f64,
        /// Records per burst (≥ 1).
        burst: usize,
    },
}

impl ArrivalProcess {
    fn rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Uniform { rate }
            | ArrivalProcess::Poisson { rate }
            | ArrivalProcess::Bursty { rate, .. } => rate,
        }
    }
}

/// One constant-ε segment of a timestamped replay; consecutive segments
/// meet at a **planted change-point**.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSegment {
    /// Segment length in seconds.
    pub duration: f64,
    /// Planted ε over the segment (the log-linear group ramp of
    /// [`planted_epsilon_rates`]).
    pub epsilon: f64,
}

impl DriftSegment {
    /// A constant-ε stretch of stream time.
    pub fn new(duration: f64, epsilon: f64) -> Self {
        Self { duration, epsilon }
    }
}

/// A timestamped replay stream: the rows, their arrival timestamps, and
/// where the planted change-points sit.
#[derive(Debug, Clone)]
pub struct TimestampedReplay {
    /// The records, in arrival order (`outcome`, `attr0`, …, as in
    /// [`synthetic_audit_frame`]).
    pub frame: crate::frame::DataFrame,
    /// Per-row arrival timestamp in seconds, non-decreasing from 0.
    pub timestamps: Vec<f64>,
    /// The planted change-point times: the boundary between segment `k`
    /// and `k + 1` sits at `change_points[k]` seconds.
    pub change_points: Vec<f64>,
}

/// One time bucket of a [`TimestampedReplay`], ready to feed a wall-clock
/// monitor: the coded rows of a single `⌊t / b⌋` bucket (column order of
/// the frame: outcome first), stamped with the bucket's first arrival.
#[derive(Debug, Clone)]
pub struct TimedChunk {
    rows: Vec<Vec<usize>>,
    /// Timestamp of the bucket's first arrival, in seconds.
    pub timestamp: f64,
}

impl TimedChunk {
    /// Records in the chunk.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }
}

impl df_prob::partial::Tally for TimedChunk {
    fn tally_into(&self, shard: &mut df_prob::partial::PartialCounts) -> df_prob::Result<()> {
        for row in &self.rows {
            shard.record(row);
        }
        Ok(())
    }
}

impl TimestampedReplay {
    /// Groups the replay into one [`TimedChunk`] per `⌊t / bucket_seconds⌋`
    /// time bucket (rows arrive in time order, so buckets are contiguous
    /// runs). This is the canonical feed shape for
    /// `FairnessMonitor::push_at`: one push per bucket gives change-point
    /// detectors a fixed `bucket_seconds` sampling cadence.
    pub fn bucket_chunks(&self, bucket_seconds: f64) -> Result<Vec<TimedChunk>> {
        if !(bucket_seconds.is_finite() && bucket_seconds > 0.0) {
            return Err(DataError::Invalid(format!(
                "bucket_seconds must be finite and positive, got {bucket_seconds}"
            )));
        }
        let names = self.frame.column_names();
        let columns: Vec<&[u32]> = names
            .iter()
            .map(|name| Ok(self.frame.column(name)?.as_categorical()?.0))
            .collect::<Result<_>>()?;
        let mut chunks: Vec<TimedChunk> = Vec::new();
        let mut current_bucket = None;
        for (i, &ts) in self.timestamps.iter().enumerate() {
            let bucket = (ts / bucket_seconds).floor() as i64;
            if current_bucket != Some(bucket) {
                current_bucket = Some(bucket);
                chunks.push(TimedChunk {
                    rows: Vec::new(),
                    timestamp: ts,
                });
            }
            let row = columns.iter().map(|codes| codes[i] as usize).collect();
            chunks
                .last_mut()
                .expect("chunk pushed above")
                .rows
                .push(row);
        }
        Ok(chunks)
    }
}

/// A **timestamped** drift replay for wall-clock monitors and change-point
/// golden tests: records arrive under `arrival` (uniform / Poisson /
/// bursty), and the planted ε is **piecewise constant** over `segments` —
/// crisp mean shifts at known instants, exactly what CUSUM/Page–Hinkley
/// rules are meant to catch (and what the linear ramp of
/// [`drift_replay_frame`] deliberately is not).
///
/// Per row at stream time `t` inside segment `s`: the group `g` is uniform
/// over the `∏ arities` intersections, and the positive outcome fires with
/// probability `base_rate · exp(−ε_s · g / (G − 1))` — the planted ε of
/// [`planted_epsilon_rates`]. Column names and vocabularies match
/// [`synthetic_audit_frame`].
pub fn timestamped_drift_stream(
    rng: &mut Pcg32,
    arities: &[usize],
    base_rate: f64,
    segments: &[DriftSegment],
    arrival: ArrivalProcess,
) -> Result<TimestampedReplay> {
    if arities.is_empty() || arities.contains(&0) {
        return Err(DataError::Invalid(
            "need >=1 attribute, all arities positive".into(),
        ));
    }
    if !(0.0 < base_rate && base_rate < 1.0) {
        return Err(DataError::Invalid("base_rate must lie in (0,1)".into()));
    }
    if segments.is_empty() {
        return Err(DataError::Invalid("need at least one segment".into()));
    }
    for seg in segments {
        if !(seg.duration.is_finite() && seg.duration > 0.0) {
            return Err(DataError::Invalid(format!(
                "segment durations must be finite and positive, got {}",
                seg.duration
            )));
        }
        if !(seg.epsilon.is_finite() && seg.epsilon >= 0.0) {
            return Err(DataError::Invalid(format!(
                "planted epsilons must be finite and non-negative, got {}",
                seg.epsilon
            )));
        }
    }
    let rate = arrival.rate();
    if !(rate.is_finite() && rate > 0.0) {
        return Err(DataError::Invalid(format!(
            "arrival rate must be finite and positive, got {rate}"
        )));
    }
    if let ArrivalProcess::Bursty { burst, .. } = arrival {
        if burst == 0 {
            return Err(DataError::Invalid("burst size must be >= 1".into()));
        }
    }
    let change_points: Vec<f64> = segments
        .iter()
        .take(segments.len() - 1)
        .scan(0.0, |acc, seg| {
            *acc += seg.duration;
            Some(*acc)
        })
        .collect();
    let total: f64 = segments.iter().map(|s| s.duration).sum();
    let n_groups: usize = arities.iter().product();
    let denom = (n_groups.max(2) - 1) as f64;
    let mut t = 0.0f64;
    let mut outcome_codes = Vec::new();
    let mut attr_codes: Vec<Vec<u32>> = arities.iter().map(|_| Vec::new()).collect();
    let mut timestamps = Vec::new();
    let mut arrived = 0usize;
    loop {
        // Advance the clock to the next arrival.
        t += match arrival {
            ArrivalProcess::Uniform { rate } => 1.0 / rate,
            ArrivalProcess::Poisson { rate } => {
                // Inverse-CDF exponential gap; 1 − u ∈ (0, 1] keeps ln finite.
                -(1.0 - rng.next_f64()).ln() / rate
            }
            ArrivalProcess::Bursty { rate, burst } => {
                if arrived.is_multiple_of(burst) {
                    burst as f64 / rate
                } else {
                    0.0
                }
            }
        };
        if t >= total {
            break;
        }
        arrived += 1;
        // The segment this instant falls in (piecewise-constant ε).
        let mut rem_t = t;
        let mut eps = segments[segments.len() - 1].epsilon;
        for seg in segments {
            if rem_t < seg.duration {
                eps = seg.epsilon;
                break;
            }
            rem_t -= seg.duration;
        }
        // Uniform group, decoded mixed-radix (last attribute fastest) to
        // match the audit kernel's intersection indexing.
        let g = rng.next_below(n_groups as u32) as usize;
        let mut rem = g;
        for (k, &a) in arities.iter().enumerate().rev() {
            attr_codes[k].push((rem % a) as u32);
            rem /= a;
        }
        let p = base_rate * (-eps * g as f64 / denom).exp();
        outcome_codes.push(u32::from(rng.next_f64() < p));
        timestamps.push(t);
    }
    if timestamps.len() < 2 {
        return Err(DataError::Invalid(
            "segments too short for the arrival rate: fewer than 2 records generated".into(),
        ));
    }
    use crate::frame::{Column, DataFrame};
    let mut columns = Vec::with_capacity(arities.len() + 1);
    columns.push(Column::categorical_from_codes(
        "outcome",
        outcome_codes,
        vec!["y0".to_string(), "y1".to_string()],
    )?);
    for (k, codes) in attr_codes.into_iter().enumerate() {
        columns.push(Column::categorical_from_codes(
            format!("attr{k}"),
            codes,
            (0..arities[k]).map(|i| format!("v{i}")).collect(),
        )?);
    }
    Ok(TimestampedReplay {
        frame: DataFrame::new(columns)?,
        timestamps,
        change_points,
    })
}

/// Which replicas of a fleet replay drift, and how: the replicas named
/// in `drift_replicas` follow the `drifted` segments; every other
/// replica follows `calm`.
#[derive(Debug, Clone, Copy)]
pub struct FleetDriftPlan<'a> {
    /// Number of replicas in the fleet (≥ 1).
    pub replicas: usize,
    /// Segments for the healthy replicas.
    pub calm: &'a [DriftSegment],
    /// Segments for the drifting replicas.
    pub drifted: &'a [DriftSegment],
    /// Indices (into `0..replicas`, no duplicates) of the replicas that
    /// follow `drifted`.
    pub drift_replicas: &'a [usize],
}

/// Per-replica timestamped replay streams for **fleet** workloads: one
/// [`TimestampedReplay`] per serving replica, all over the same schema
/// and arrival process, with a *planted per-shard drift* per the
/// [`FleetDriftPlan`].
///
/// This is the canonical fleet-aggregation stress: every calm replica's
/// own windowed ε stays near its planted level, the drifting replicas'
/// climb, and only the merged (union-of-traffic) snapshot measures the
/// fleet-wide ε — per-silo monitoring provably under-reports it. Streams
/// draw from one shared RNG sequentially, so a fleet is as reproducible
/// as a single stream.
pub fn fleet_drift_streams(
    rng: &mut Pcg32,
    arities: &[usize],
    base_rate: f64,
    plan: FleetDriftPlan<'_>,
    arrival: ArrivalProcess,
) -> Result<Vec<TimestampedReplay>> {
    if plan.replicas == 0 {
        return Err(DataError::Invalid("need at least one replica".into()));
    }
    for (i, &r) in plan.drift_replicas.iter().enumerate() {
        if r >= plan.replicas {
            return Err(DataError::Invalid(format!(
                "drift replica index {r} out of range for {} replicas",
                plan.replicas
            )));
        }
        if plan.drift_replicas[..i].contains(&r) {
            return Err(DataError::Invalid(format!(
                "drift replica index {r} listed twice"
            )));
        }
    }
    (0..plan.replicas)
        .map(|r| {
            let segments = if plan.drift_replicas.contains(&r) {
                plan.drifted
            } else {
                plan.calm
            };
            timestamped_drift_stream(rng, arities, base_rate, segments, arrival)
        })
        .collect()
}

/// Interleaves per-replica replays into the single global stream a
/// lone monitor would have seen: rows merged in timestamp order (ties
/// keep replica order — immaterial to any counts-derived state, since
/// same-bucket arrivals commute), change-points unioned. This is the
/// reference side of the fleet equivalence property: a fleet of monitors
/// over [`fleet_drift_streams`] must merge to byte-identical state as
/// one monitor over the interleaved stream.
pub fn interleave_replays(replays: &[TimestampedReplay]) -> Result<TimestampedReplay> {
    use crate::frame::{Column, DataFrame};
    let first = replays
        .first()
        .ok_or_else(|| DataError::Invalid("need at least one replay".into()))?;
    let names = first.frame.column_names();
    let mut vocabs: Vec<&[String]> = Vec::with_capacity(names.len());
    for name in &names {
        vocabs.push(first.frame.column(name)?.as_categorical()?.1);
    }
    let mut arrivals: Vec<(f64, usize, usize)> = Vec::new();
    for (replica, replay) in replays.iter().enumerate() {
        if replay.timestamps.len() != replay.frame.n_rows() {
            return Err(DataError::Invalid(format!(
                "replica {replica}: {} timestamps for {} rows",
                replay.timestamps.len(),
                replay.frame.n_rows()
            )));
        }
        if replay.frame.column_names() != names {
            return Err(DataError::Invalid(format!(
                "replica {replica} has a different column schema"
            )));
        }
        for (name, vocab) in names.iter().zip(&vocabs) {
            if replay.frame.column(name)?.as_categorical()?.1 != *vocab {
                return Err(DataError::Invalid(format!(
                    "replica {replica} column `{name}` has a different vocabulary"
                )));
            }
        }
        for (row, &ts) in replay.timestamps.iter().enumerate() {
            if !ts.is_finite() {
                return Err(DataError::Invalid(format!(
                    "replica {replica} row {row} has non-finite timestamp {ts}"
                )));
            }
            arrivals.push((ts, replica, row));
        }
    }
    // Stable sort on the timestamp alone: same-instant arrivals keep
    // replica-then-row order.
    arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite timestamps"));
    let per_replica_codes: Vec<Vec<&[u32]>> = replays
        .iter()
        .map(|replay| {
            names
                .iter()
                .map(|name| Ok(replay.frame.column(name)?.as_categorical()?.0))
                .collect::<Result<_>>()
        })
        .collect::<Result<_>>()?;
    let mut columns = Vec::with_capacity(names.len());
    for (c, (name, vocab)) in names.iter().zip(&vocabs).enumerate() {
        let codes: Vec<u32> = arrivals
            .iter()
            .map(|&(_, replica, row)| per_replica_codes[replica][c][row])
            .collect();
        columns.push(Column::categorical_from_codes(
            name.to_string(),
            codes,
            vocab.to_vec(),
        )?);
    }
    let timestamps: Vec<f64> = arrivals.iter().map(|&(ts, _, _)| ts).collect();
    let mut change_points: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.change_points.iter().copied())
        .collect();
    change_points.sort_by(|a, b| a.partial_cmp(b).expect("finite change-points"));
    change_points.dedup();
    Ok(TimestampedReplay {
        frame: DataFrame::new(columns)?,
        timestamps,
        change_points,
    })
}

/// Renders the named categorical columns of a frame as headerless CSV —
/// the on-disk shape consumed by the streaming CSV reader
/// (`df_data::chunks::CsvChunks`). Used to build large ingestion
/// benchmarks without shipping data files.
pub fn frame_to_csv(frame: &crate::frame::DataFrame, columns: &[&str]) -> Result<String> {
    let cols: Vec<(&[u32], &[String])> = columns
        .iter()
        .map(|n| frame.column(n)?.as_categorical())
        .collect::<Result<_>>()?;
    if cols.is_empty() {
        return Err(DataError::Invalid("need at least one column".into()));
    }
    // Pre-quote each vocabulary entry once (RFC-4180), so labels containing
    // delimiters, quotes, or newlines survive the round trip.
    let quoted: Vec<Vec<String>> = cols
        .iter()
        .map(|(_, vocab)| {
            vocab
                .iter()
                .map(|label| {
                    if label.contains([',', '"', '\n', '\r']) {
                        format!("\"{}\"", label.replace('"', "\"\""))
                    } else {
                        label.clone()
                    }
                })
                .collect()
        })
        .collect();
    let mut out = String::with_capacity(frame.n_rows() * columns.len() * 4);
    for row in 0..frame.n_rows() {
        for (k, (codes, _)) in cols.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&quoted[k][codes[row] as usize]);
        }
        out.push('\n');
    }
    Ok(out)
}

/// Score populations for threshold-mechanism workloads: per-group Gaussian
/// test-score distributions, as in the paper's Figure 2.
#[derive(Debug, Clone)]
pub struct GaussianScoreGroups {
    /// Per-group score distribution.
    pub distributions: Vec<Normal>,
    /// Per-group population weight.
    pub weights: Vec<f64>,
}

impl GaussianScoreGroups {
    /// Builds the workload; `means`, `std_devs`, `weights` must be equal
    /// length with at least two groups.
    pub fn new(means: &[f64], std_devs: &[f64], weights: &[f64]) -> Result<Self> {
        if means.len() < 2 || means.len() != std_devs.len() || means.len() != weights.len() {
            return Err(DataError::Invalid(
                "means/std_devs/weights must be equal-length with >=2 groups".into(),
            ));
        }
        let distributions = means
            .iter()
            .zip(std_devs)
            .map(|(&m, &s)| Normal::new(m, s))
            .collect::<std::result::Result<_, _>>()?;
        Ok(Self {
            distributions,
            weights: weights.to_vec(),
        })
    }

    /// The paper's Figure 2 workload: two equally likely groups with scores
    /// N(10, 1) and N(12, 1).
    pub fn figure2() -> Self {
        Self::new(&[10.0, 12.0], &[1.0, 1.0], &[0.5, 0.5]).expect("static workload")
    }

    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.distributions.len()
    }

    /// Analytic `P(score ≥ t | group)` per group.
    pub fn pass_rates(&self, threshold: f64) -> Vec<f64> {
        self.distributions
            .iter()
            .map(|d| 1.0 - d.cdf(threshold))
            .collect()
    }

    /// Samples `(group, score)` pairs.
    pub fn sample(&self, rng: &mut Pcg32, n: usize) -> Vec<(usize, f64)> {
        use df_prob::dist::{Categorical, Sampler};
        let group_dist = Categorical::new(&self.weights).expect("weights validated");
        (0..n)
            .map(|_| {
                let g = group_dist.sample(rng);
                let score = self.distributions[g].sample(rng);
                (g, score)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_counts_all_positive() {
        let mut rng = Pcg32::new(1);
        let t = random_joint_counts(&mut rng, 2, &[2, 3], 100).unwrap();
        assert_eq!(t.num_cells(), 12);
        assert!(t.data().iter().all(|&v| v >= 1.0));
        assert!(random_joint_counts(&mut rng, 1, &[2], 10).is_err());
        assert!(random_joint_counts(&mut rng, 2, &[], 10).is_err());
        assert!(random_joint_counts(&mut rng, 2, &[0], 10).is_err());
    }

    #[test]
    fn planted_epsilon_is_exact_on_positive_outcome() {
        let (rates, expected) = planted_epsilon_rates(4, 0.3, 1.5).unwrap();
        assert_eq!(rates.len(), 4);
        let realized = (rates[0] / rates[3]).ln();
        assert!((realized - 1.5).abs() < 1e-12);
        assert!(expected >= 1.5);
        assert!(planted_epsilon_rates(1, 0.3, 1.0).is_err());
        assert!(planted_epsilon_rates(3, 0.0, 1.0).is_err());
        assert!(planted_epsilon_rates(3, 0.3, -1.0).is_err());
    }

    #[test]
    fn synthetic_audit_frame_shape_and_coverage() {
        let mut rng = Pcg32::new(3);
        let frame = synthetic_audit_frame(&mut rng, 5_000, 2, &[2, 3]).unwrap();
        assert_eq!(frame.n_rows(), 5_000);
        assert_eq!(frame.column_names(), vec!["outcome", "attr0", "attr1"]);
        let t = frame.contingency(&["outcome", "attr0", "attr1"]).unwrap();
        assert_eq!(t.total(), 5_000.0);
        // At this scale every cell should be populated.
        assert!(t.data().iter().all(|&v| v > 0.0));
        assert!(synthetic_audit_frame(&mut rng, 0, 2, &[2]).is_err());
        assert!(synthetic_audit_frame(&mut rng, 10, 1, &[2]).is_err());
        assert!(synthetic_audit_frame(&mut rng, 10, 2, &[]).is_err());
        assert!(synthetic_audit_frame(&mut rng, 10, 2, &[0]).is_err());
    }

    #[test]
    fn drift_replay_frame_plants_a_rising_epsilon() {
        let mut rng = Pcg32::new(11);
        let n = 120_000;
        let frame = drift_replay_frame(&mut rng, n, &[2, 2], 0.4, 0.0, 1.5).unwrap();
        assert_eq!(frame.n_rows(), n);
        assert_eq!(frame.column_names(), vec!["outcome", "attr0", "attr1"]);
        // Positive rate of the worst group vs the best, head vs tail of the
        // stream: the log-ratio must grow towards the planted eps_end.
        let (outcome, _) = frame.column("outcome").unwrap().as_categorical().unwrap();
        let (a0, _) = frame.column("attr0").unwrap().as_categorical().unwrap();
        let (a1, _) = frame.column("attr1").unwrap().as_categorical().unwrap();
        let log_gap = |range: std::ops::Range<usize>| {
            let (mut pos, mut tot) = ([0.0f64; 2], [0.0f64; 2]);
            for i in range {
                let g = (a0[i] * 2 + a1[i]) as usize;
                // Compare the extreme groups 0 and 3 only.
                let slot = match g {
                    0 => 0,
                    3 => 1,
                    _ => continue,
                };
                tot[slot] += 1.0;
                pos[slot] += f64::from(outcome[i]);
            }
            ((pos[0] / tot[0]) / (pos[1] / tot[1])).ln()
        };
        let head = log_gap(0..20_000);
        let tail = log_gap(n - 20_000..n);
        assert!(head.abs() < 0.15, "head gap {head} should be near 0");
        assert!((tail - 1.5).abs() < 0.25, "tail gap {tail} should near 1.5");

        // Validation.
        assert!(drift_replay_frame(&mut rng, 1, &[2], 0.4, 0.0, 1.0).is_err());
        assert!(drift_replay_frame(&mut rng, 10, &[], 0.4, 0.0, 1.0).is_err());
        assert!(drift_replay_frame(&mut rng, 10, &[0], 0.4, 0.0, 1.0).is_err());
        assert!(drift_replay_frame(&mut rng, 10, &[2], 0.0, 0.0, 1.0).is_err());
        assert!(drift_replay_frame(&mut rng, 10, &[2], 0.4, -0.1, 1.0).is_err());
        assert!(drift_replay_frame(&mut rng, 10, &[2], 0.4, 0.0, -1.0).is_err());
    }

    #[test]
    fn timestamped_stream_plants_a_step_change() {
        let mut rng = Pcg32::new(9);
        let segments = [DriftSegment::new(200.0, 0.0), DriftSegment::new(200.0, 1.5)];
        let replay = timestamped_drift_stream(
            &mut rng,
            &[2, 2],
            0.4,
            &segments,
            ArrivalProcess::Poisson { rate: 100.0 },
        )
        .unwrap();
        assert_eq!(replay.change_points, vec![200.0]);
        let n = replay.frame.n_rows();
        assert_eq!(replay.timestamps.len(), n);
        // Poisson at 100/s over 400 s ≈ 40k rows.
        assert!((35_000..45_000).contains(&n), "n = {n}");
        // Timestamps are non-decreasing and inside the stream span.
        assert!(replay.timestamps.windows(2).all(|w| w[0] <= w[1]));
        assert!(replay.timestamps[0] >= 0.0);
        assert!(*replay.timestamps.last().unwrap() < 400.0);
        // The group-0 vs group-3 log-gap steps from ≈0 to ≈1.5 across the
        // planted change-point.
        let (outcome, _) = replay
            .frame
            .column("outcome")
            .unwrap()
            .as_categorical()
            .unwrap();
        let (a0, _) = replay
            .frame
            .column("attr0")
            .unwrap()
            .as_categorical()
            .unwrap();
        let (a1, _) = replay
            .frame
            .column("attr1")
            .unwrap()
            .as_categorical()
            .unwrap();
        let log_gap = |pred: &dyn Fn(f64) -> bool| {
            let (mut pos, mut tot) = ([0.0f64; 2], [0.0f64; 2]);
            for i in 0..n {
                if !pred(replay.timestamps[i]) {
                    continue;
                }
                let slot = match (a0[i] * 2 + a1[i]) as usize {
                    0 => 0,
                    3 => 1,
                    _ => continue,
                };
                tot[slot] += 1.0;
                pos[slot] += f64::from(outcome[i]);
            }
            ((pos[0] / tot[0]) / (pos[1] / tot[1])).ln()
        };
        let before = log_gap(&|t| t < 200.0);
        let after = log_gap(&|t| t >= 200.0);
        assert!(before.abs() < 0.2, "pre-change gap {before} should be ~0");
        assert!(
            (after - 1.5).abs() < 0.3,
            "post-change gap {after} should be ~1.5"
        );
    }

    #[test]
    fn arrival_processes_shape_the_timeline() {
        let mut rng = Pcg32::new(21);
        let segments = [DriftSegment::new(50.0, 0.5)];
        // Uniform: exactly even spacing.
        let uni = timestamped_drift_stream(
            &mut rng,
            &[2],
            0.3,
            &segments,
            ArrivalProcess::Uniform { rate: 10.0 },
        )
        .unwrap();
        assert!(uni
            .timestamps
            .windows(2)
            .all(|w| (w[1] - w[0] - 0.1).abs() < 1e-9));
        assert!(uni.change_points.is_empty());
        // Bursty: groups of 5 share one timestamp (out-of-order-within-
        // bucket stress), with 0.5 s between groups.
        let bursty = timestamped_drift_stream(
            &mut rng,
            &[2],
            0.3,
            &segments,
            ArrivalProcess::Bursty {
                rate: 10.0,
                burst: 5,
            },
        )
        .unwrap();
        let same = bursty
            .timestamps
            .windows(2)
            .filter(|w| w[0] == w[1])
            .count();
        // 4 of every 5 consecutive gaps are zero.
        assert!(same as f64 / bursty.timestamps.len() as f64 > 0.7);
        // Long-run rates agree (~10/s over 50 s → ~500 rows).
        assert!((400..600).contains(&uni.frame.n_rows()));
        assert!((400..600).contains(&bursty.frame.n_rows()));
    }

    #[test]
    fn bucket_chunks_partition_the_replay_by_time_bucket() {
        use df_prob::partial::{PartialCounts, Tally};
        let mut rng = Pcg32::new(5);
        let replay = timestamped_drift_stream(
            &mut rng,
            &[2, 2],
            0.4,
            &[DriftSegment::new(60.0, 0.8)],
            ArrivalProcess::Poisson { rate: 20.0 },
        )
        .unwrap();
        let chunks = replay.bucket_chunks(5.0).unwrap();
        // Every row lands in exactly one chunk…
        let total: usize = chunks.iter().map(TimedChunk::n_rows).sum();
        assert_eq!(total, replay.frame.n_rows());
        // …chunks are stamped with a timestamp inside their own bucket,
        // in strictly increasing bucket order…
        let buckets: Vec<i64> = chunks
            .iter()
            .map(|c| (c.timestamp / 5.0).floor() as i64)
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] < w[1]));
        // …and tallying all chunks reproduces the frame's joint counts.
        let axes = vec![
            Axis::new("outcome", vec!["y0".into(), "y1".into()]).unwrap(),
            Axis::new("attr0", vec!["v0".into(), "v1".into()]).unwrap(),
            Axis::new("attr1", vec!["v0".into(), "v1".into()]).unwrap(),
        ];
        let mut shard = PartialCounts::zeros(axes).unwrap();
        for chunk in &chunks {
            chunk.tally_into(&mut shard).unwrap();
        }
        let direct = replay
            .frame
            .contingency(&["outcome", "attr0", "attr1"])
            .unwrap();
        assert_eq!(shard.table().data(), direct.data());
        // Validation.
        assert!(replay.bucket_chunks(0.0).is_err());
        assert!(replay.bucket_chunks(f64::NAN).is_err());
    }

    #[test]
    fn timestamped_stream_validation() {
        let mut rng = Pcg32::new(1);
        let seg = [DriftSegment::new(10.0, 0.5)];
        let uni = ArrivalProcess::Uniform { rate: 10.0 };
        assert!(timestamped_drift_stream(&mut rng, &[], 0.4, &seg, uni).is_err());
        assert!(timestamped_drift_stream(&mut rng, &[0], 0.4, &seg, uni).is_err());
        assert!(timestamped_drift_stream(&mut rng, &[2], 0.0, &seg, uni).is_err());
        assert!(timestamped_drift_stream(&mut rng, &[2], 0.4, &[], uni).is_err());
        let bad_dur = [DriftSegment::new(0.0, 0.5)];
        assert!(timestamped_drift_stream(&mut rng, &[2], 0.4, &bad_dur, uni).is_err());
        let bad_eps = [DriftSegment::new(10.0, -0.5)];
        assert!(timestamped_drift_stream(&mut rng, &[2], 0.4, &bad_eps, uni).is_err());
        let bad_rate = ArrivalProcess::Uniform { rate: 0.0 };
        assert!(timestamped_drift_stream(&mut rng, &[2], 0.4, &seg, bad_rate).is_err());
        let bad_burst = ArrivalProcess::Bursty {
            rate: 10.0,
            burst: 0,
        };
        assert!(timestamped_drift_stream(&mut rng, &[2], 0.4, &seg, bad_burst).is_err());
        // Too sparse to make a stream.
        let sparse = ArrivalProcess::Uniform { rate: 0.01 };
        assert!(timestamped_drift_stream(&mut rng, &[2], 0.4, &seg, sparse).is_err());
    }

    #[test]
    fn fleet_streams_plant_per_shard_drift() {
        let mut rng = Pcg32::new(31);
        let calm = [DriftSegment::new(120.0, 0.0)];
        let drifted = [DriftSegment::new(60.0, 0.0), DriftSegment::new(60.0, 1.5)];
        let fleet = fleet_drift_streams(
            &mut rng,
            &[2, 2],
            0.4,
            FleetDriftPlan {
                replicas: 4,
                calm: &calm,
                drifted: &drifted,
                drift_replicas: &[2],
            },
            ArrivalProcess::Poisson { rate: 60.0 },
        )
        .unwrap();
        assert_eq!(fleet.len(), 4);
        // Only the drifting replica carries the planted change-point.
        assert!(fleet[0].change_points.is_empty());
        assert_eq!(fleet[2].change_points, vec![60.0]);
        // Every replica sees its own traffic at the shared rate.
        for replay in &fleet {
            assert!((5_000..10_000).contains(&replay.frame.n_rows()));
        }
        // Validation.
        let uni = ArrivalProcess::Uniform { rate: 10.0 };
        let plan = |replicas: usize, drift_replicas: &'static [usize]| FleetDriftPlan {
            replicas,
            calm: &[DriftSegment {
                duration: 120.0,
                epsilon: 0.0,
            }],
            drifted: &[DriftSegment {
                duration: 120.0,
                epsilon: 1.0,
            }],
            drift_replicas,
        };
        assert!(fleet_drift_streams(&mut rng, &[2], 0.4, plan(0, &[]), uni).is_err());
        assert!(fleet_drift_streams(&mut rng, &[2], 0.4, plan(2, &[2]), uni).is_err());
        assert!(fleet_drift_streams(&mut rng, &[2], 0.4, plan(2, &[0, 0]), uni).is_err());
    }

    #[test]
    fn interleaving_preserves_every_row_in_timestamp_order() {
        let mut rng = Pcg32::new(17);
        let calm = [DriftSegment::new(40.0, 0.2)];
        let fleet = fleet_drift_streams(
            &mut rng,
            &[2, 2],
            0.4,
            FleetDriftPlan {
                replicas: 3,
                calm: &calm,
                drifted: &calm,
                drift_replicas: &[],
            },
            ArrivalProcess::Bursty {
                rate: 25.0,
                burst: 5,
            },
        )
        .unwrap();
        let merged = interleave_replays(&fleet).unwrap();
        let total: usize = fleet.iter().map(|r| r.frame.n_rows()).sum();
        assert_eq!(merged.frame.n_rows(), total);
        assert_eq!(merged.timestamps.len(), total);
        assert!(merged.timestamps.windows(2).all(|w| w[0] <= w[1]));
        // The union of the per-replica joint counts is the merged frame's.
        let cols = ["outcome", "attr0", "attr1"];
        let mut summed = fleet[0].frame.contingency(&cols).unwrap();
        for replay in &fleet[1..] {
            summed
                .merge_from(&replay.frame.contingency(&cols).unwrap())
                .unwrap();
        }
        assert_eq!(
            summed.data(),
            merged.frame.contingency(&cols).unwrap().data()
        );
        // Validation: empty input and schema mismatches are refused.
        assert!(interleave_replays(&[]).is_err());
        let other = timestamped_drift_stream(
            &mut rng,
            &[3],
            0.4,
            &calm,
            ArrivalProcess::Uniform { rate: 25.0 },
        )
        .unwrap();
        assert!(interleave_replays(&[fleet[0].clone(), other]).is_err());
    }

    #[test]
    fn frame_to_csv_round_trips_through_contingency() {
        let mut rng = Pcg32::new(4);
        let frame = synthetic_audit_frame(&mut rng, 200, 2, &[2]).unwrap();
        let csv = frame_to_csv(&frame, &["outcome", "attr0"]).unwrap();
        assert_eq!(csv.lines().count(), 200);
        let records = crate::csv::read_str(&csv, &crate::csv::CsvOptions::default()).unwrap();
        assert_eq!(records.len(), 200);
        assert!(frame_to_csv(&frame, &[]).is_err());
        assert!(frame_to_csv(&frame, &["nope"]).is_err());
    }

    #[test]
    fn frame_to_csv_quotes_metacharacter_labels() {
        use crate::frame::{Column, DataFrame};
        let frame = DataFrame::new(vec![
            Column::categorical("y", &["no", "yes"]),
            Column::categorical("job", &["self-emp, inc", "say \"hi\""]),
        ])
        .unwrap();
        let csv = frame_to_csv(&frame, &["y", "job"]).unwrap();
        let records = crate::csv::read_str(&csv, &crate::csv::CsvOptions::default()).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], vec!["no", "self-emp, inc"]);
        assert_eq!(records[1], vec!["yes", "say \"hi\""]);
    }

    #[test]
    fn figure2_pass_rates() {
        let w = GaussianScoreGroups::figure2();
        let rates = w.pass_rates(10.5);
        assert!((rates[0] - 0.3085).abs() < 1e-3);
        assert!((rates[1] - 0.9332).abs() < 1e-3);
    }

    #[test]
    fn sampled_pass_rates_match_analytic() {
        let w = GaussianScoreGroups::figure2();
        let mut rng = Pcg32::new(7);
        let samples = w.sample(&mut rng, 100_000);
        let mut pass = [0usize; 2];
        let mut total = [0usize; 2];
        for (g, score) in samples {
            total[g] += 1;
            if score >= 10.5 {
                pass[g] += 1;
            }
        }
        let analytic = w.pass_rates(10.5);
        for g in 0..2 {
            let emp = pass[g] as f64 / total[g] as f64;
            assert!((emp - analytic[g]).abs() < 0.01, "group {g}: {emp}");
        }
        // Roughly equal group sizes.
        assert!((total[0] as f64 / 100_000.0 - 0.5).abs() < 0.01);
    }

    #[test]
    fn workload_validation() {
        assert!(GaussianScoreGroups::new(&[1.0], &[1.0], &[1.0]).is_err());
        assert!(GaussianScoreGroups::new(&[1.0, 2.0], &[1.0], &[1.0, 1.0]).is_err());
        assert!(GaussianScoreGroups::new(&[1.0, 2.0], &[1.0, -1.0], &[1.0, 1.0]).is_err());
    }
}
