//! # differential-fairness
//!
//! A production-quality Rust implementation of
//! *An Intersectional Definition of Fairness* (Foulds & Pan, ICDE 2020):
//! measurement and auditing of **differential fairness (DF)** — an
//! intersectional fairness criterion with differential-privacy-style
//! guarantees — plus the substrates needed to reproduce the paper end to
//! end (probability kernels, a columnar data layer, from-scratch learners,
//! and a calibrated synthetic Adult-census benchmark).
//!
//! ## The criterion in one paragraph
//!
//! A mechanism `M(x)` is **ε-differentially fair** for protected attributes
//! `A = S₁ × … × S_p` when, for every outcome `y` and every pair of
//! intersectional groups `sᵢ, sⱼ` with positive probability,
//! `e^-ε ≤ P(M(x)=y | sᵢ) / P(M(x)=y | sⱼ) ≤ e^ε` under every plausible
//! data distribution. Small ε means every intersection — *black women*, not
//! just *women* and *black people* separately — receives every outcome at
//! comparable rates; Theorem 3.1 of the paper guarantees that ε-DF on the
//! full intersection implies 2ε-DF on every subset of the attributes.
//!
//! ## Quick start
//!
//! One fluent entry point — [`prelude::Audit`] — composes everything: pick
//! ε-estimation strategies (Eq. 6 empirical, Eq. 7 smoothed, posterior
//! supremum over Θ), a subset policy, bootstrap uncertainty, and the §7
//! comparison baselines, then `run()` for a unified serializable report.
//!
//! ```
//! use differential_fairness::prelude::*;
//!
//! // Joint counts of (outcome, gender, race) — e.g. tallied from a dataset.
//! let counts = JointCounts::from_records(
//!     Axis::from_strs("outcome", &["deny", "approve"]).unwrap(),
//!     vec![
//!         Axis::from_strs("gender", &["F", "M"]).unwrap(),
//!         Axis::from_strs("race", &["black", "white"]).unwrap(),
//!     ],
//!     vec![
//!         ("approve", vec!["F", "black"]),
//!         ("deny", vec!["F", "black"]),
//!         ("approve", vec!["M", "white"]),
//!         ("approve", vec!["M", "white"]),
//!         ("deny", vec!["F", "white"]),
//!         ("approve", vec!["F", "white"]),
//!         ("approve", vec!["M", "black"]),
//!         ("deny", vec!["M", "black"]),
//!     ],
//! )
//! .unwrap();
//!
//! let report = Audit::of(&counts)
//!     .estimator(Empirical)
//!     .estimator(Smoothed { alpha: 1.0 })
//!     .baselines(Baselines::all().positive("approve"))
//!     .run()
//!     .unwrap();
//!
//! assert_eq!(report.n_records, Some(8));
//! // Eq. 7 keeps ε finite even with sparse intersections…
//! assert!(report.epsilon.is_finite());
//! // …and Theorem 3.1 holds: no subset violates the 2ε bound.
//! assert_eq!(report.bound_violations, Some(vec![]));
//! println!("{}", report.render_subset_table());
//! ```
//!
//! Auditing a data frame is one call via [`FrameAudits`]:
//!
//! ```
//! use differential_fairness::prelude::*;
//!
//! let frame = DataFrame::new(vec![
//!     Column::categorical("outcome", &["hire", "reject", "hire", "hire"]),
//!     Column::categorical("gender", &["F", "F", "M", "M"]),
//! ])
//! .unwrap();
//! let report = Audit::of_frame(&frame, "outcome", &["gender"])
//!     .unwrap()
//!     .estimator(Smoothed { alpha: 1.0 })
//!     .run()
//!     .unwrap();
//! assert_eq!(report.n_records, Some(4));
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | `core` (df_core) | the DF criterion: ε kernels, EDF (Eq. 6), smoothing (Eq. 7), subset guarantees, privacy interpretation, bias amplification, baselines, the `Audit` builder |
//! | `prob` (df_prob) | distributions, special functions, RNGs, contingency tables, Dirichlet posterior sampling |
//! | `data` (df_data) | data frames, CSV, encoders, the calibrated synthetic Adult benchmark, Table 1 data |
//! | `learn` (df_learn) | logistic regression (plain and DF-regularized), metrics, model selection, threshold mechanisms |
//! | `server` (df_server) | the ε-DF audit query service: HTTP/1.1 ingest + audit/monitor endpoints over a long-lived fleet, with content negotiation |
//! | `obs` (df_obs) | dependency-free telemetry: lock-free counters/gauges, mergeable log-scale histograms, a labeled registry with Prometheus/JSON exposition, and request spans — scraped live at `/v1/metrics` |
//!
//! The `df-bench` crate (not re-exported) regenerates every table and
//! figure of the paper; see `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use df_core as core;
pub use df_data as data;
pub use df_learn as learn;
pub use df_obs as obs;
pub use df_prob as prob;
pub use df_server as server;

use df_core::builder::Audit;
use df_core::JointCounts;
use df_data::chunks::FrameChunks;
use df_data::frame::DataFrame;
use df_data::replay::ReplayChunks;
use std::io::BufRead;

/// Frame-level entry points for the [`Audit`] builder, where the data layer
/// and the criterion meet (df-core itself does not depend on df-data).
pub trait FrameAudits {
    /// Tallies `(outcome, attrs…)` joint counts from a data frame and
    /// starts an audit over them.
    fn of_frame(
        frame: &DataFrame,
        outcome: &str,
        attrs: &[&str],
    ) -> df_core::Result<Audit<'static>>;

    /// Streaming twin of [`FrameAudits::of_frame`]: tallies the frame in
    /// `chunk_rows`-sized batches across `threads` parallel shards via
    /// `Audit::of_stream`. Produces a byte-identical report to the batch
    /// path for every chunk size and thread count (counts merge as a
    /// commutative monoid).
    fn of_frame_streaming(
        frame: &DataFrame,
        outcome: &str,
        attrs: &[&str],
        chunk_rows: usize,
        threads: usize,
    ) -> df_core::Result<Audit<'static>>;
}

/// Replay-log entry points for the [`Audit`] builder: audit straight from
/// DFRL bytes, decoding interned codes into the streaming tally without
/// ever materializing a frame or touching a string past the header.
pub trait ReplayAudits {
    /// Streams a DFRL replay log's `(outcome, attrs…)` columns through
    /// `Audit::of_stream` across `threads` parallel shards. Produces a
    /// byte-identical report to the CSV/frame paths on equivalent data.
    fn of_replay_log<R: BufRead + Send>(
        reader: R,
        outcome: &str,
        attrs: &[&str],
        threads: usize,
    ) -> df_core::Result<Audit<'static>>;
}

impl ReplayAudits for Audit<'static> {
    fn of_replay_log<R: BufRead + Send>(
        reader: R,
        outcome: &str,
        attrs: &[&str],
        threads: usize,
    ) -> df_core::Result<Audit<'static>> {
        let mut columns = Vec::with_capacity(attrs.len() + 1);
        columns.push(outcome);
        columns.extend_from_slice(attrs);
        let into_core = |e: df_data::DataError| df_core::DfError::Invalid(e.to_string());
        let chunks = ReplayChunks::new(reader)
            .and_then(|c| c.with_columns(&columns))
            .map_err(into_core)?;
        let axes = chunks.axes().map_err(into_core)?;
        Audit::of_stream(outcome, axes, chunks.map(|r| r.map_err(into_core)), threads)
    }
}

impl FrameAudits for Audit<'static> {
    fn of_frame(
        frame: &DataFrame,
        outcome: &str,
        attrs: &[&str],
    ) -> df_core::Result<Audit<'static>> {
        let mut columns = Vec::with_capacity(attrs.len() + 1);
        columns.push(outcome);
        columns.extend_from_slice(attrs);
        let table = frame
            .contingency(&columns)
            .map_err(|e| df_core::DfError::Invalid(e.to_string()))?;
        Audit::of_counts(JointCounts::from_table(table, outcome)?)
    }

    fn of_frame_streaming(
        frame: &DataFrame,
        outcome: &str,
        attrs: &[&str],
        chunk_rows: usize,
        threads: usize,
    ) -> df_core::Result<Audit<'static>> {
        let mut columns = Vec::with_capacity(attrs.len() + 1);
        columns.push(outcome);
        columns.extend_from_slice(attrs);
        let into_core = |e: df_data::DataError| df_core::DfError::Invalid(e.to_string());
        let chunks = FrameChunks::new(frame, &columns, chunk_rows).map_err(into_core)?;
        let axes = chunks.axes().map_err(into_core)?;
        Audit::of_stream(
            outcome,
            axes,
            chunks.map(Ok::<_, df_core::DfError>),
            threads,
        )
    }
}

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use crate::{FrameAudits, ReplayAudits};
    pub use df_core::amplification::BiasAmplification;
    pub use df_core::baselines::{
        demographic_parity_distance, disparate_impact_ratio, equalized_odds_gap,
    };
    pub use df_core::bootstrap::{bootstrap_epsilon, BootstrapEpsilon};
    pub use df_core::builder::{
        Audit, AuditReport, Baselines, Empirical, EpsilonEstimator, EstimatorReport, PosteriorSup,
        Smoothed, SubsetPolicy,
    };
    pub use df_core::data_fairness::{dataset_epsilon, DataModel};
    pub use df_core::equalized::{opportunity_epsilon, EqualizedOddsCounts};
    pub use df_core::fleet::{
        decode_snapshot, encode_snapshot, merge_many, FleetIngest, FleetTelemetry, ShardTelemetry,
        SnapshotDecoder, SnapshotEncoder,
    };
    pub use df_core::mechanism::{estimate_group_outcomes, FnMechanism, Mechanism};
    pub use df_core::metric::{
        metric_from_tag, AlphaIntersectional, DifferentialEqualizedOdds, EpsilonDf, LevelingDown,
        Metric, WorstCaseDiff, WorstCaseRatio,
    };
    pub use df_core::monitor::{
        Alert, AlertRule, ChangeSignal, ChangepointAlarm, ChangepointSpec, ChangepointStatus,
        CountsSnapshot, Cusum, FairnessMonitor, MonitorBuilder, MonitorSnapshot, MonitorStep,
        MonitorTelemetry, PageHinkley,
    };
    pub use df_core::privacy::{PrivacyRegime, RANDOMIZED_RESPONSE_EPSILON};
    pub use df_core::report::ResponseFormat;
    pub use df_core::theta::{posterior_theta, ThetaClass};
    pub use df_core::{DfError, EpsilonResult, EpsilonWitness, GroupOutcomes, JointCounts};
    pub use df_data::adult;
    pub use df_data::chunks::{CsvChunks, FrameChunks, LabelChunk};
    pub use df_data::frame::{Column, DataFrame, Interner};
    pub use df_data::replay::{
        csv_to_log, read_frame_log, tally_from_log, write_frame_log, ChunkColumn, CodeChunk,
        CodeSchema, LogColumn, LogSchema, LogStats, ReplayChunks, ReplayWriter,
    };
    pub use df_data::view::FrameView;
    pub use df_data::workloads::{
        drift_replay_frame, fleet_drift_streams, interleave_replays, timestamped_drift_stream,
        ArrivalProcess, DriftSegment, FleetDriftPlan, GaussianScoreGroups, TimedChunk,
        TimestampedReplay,
    };
    pub use df_learn::fair::{FairLogisticConfig, FairLogisticRegression};
    pub use df_learn::logistic::{LogisticConfig, LogisticRegression};
    pub use df_learn::threshold::ThresholdMechanism;
    pub use df_obs::{
        Clock, Counter, Gauge, Histogram, HistogramSnapshot, ManualClock, RealClock, Registry,
        Span, SpanRecord, TraceRing, Tracer,
    };
    pub use df_prob::contingency::{Axis, ContingencyTable};
    pub use df_prob::partial::{PartialCounts, Tally};
    pub use df_prob::rng::{DfRng, Pcg32};
    pub use df_server::client::{ClientResponse, Http1Client};
    pub use df_server::{AccessRecord, Server, ServerBuilder};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_types_are_usable() {
        let rr = df_core::privacy::randomized_response_table();
        assert!((rr.epsilon().epsilon - RANDOMIZED_RESPONSE_EPSILON).abs() < 1e-12);
        let _rng = Pcg32::new(1);
        let _mech = ThresholdMechanism::new(0.5);
    }

    #[test]
    fn frame_audit_matches_direct_counts() {
        let frame = DataFrame::new(vec![
            Column::categorical("y", &["a", "b", "a", "b", "a", "a"]),
            Column::categorical("g", &["x", "x", "x", "y", "y", "y"]),
        ])
        .unwrap();
        let via_frame = Audit::of_frame(&frame, "y", &["g"])
            .unwrap()
            .estimator(Smoothed { alpha: 1.0 })
            .run()
            .unwrap();
        let counts = JointCounts::from_table(frame.contingency(&["y", "g"]).unwrap(), "y").unwrap();
        let direct = Audit::of(&counts)
            .estimator(Smoothed { alpha: 1.0 })
            .run()
            .unwrap();
        assert_eq!(via_frame, direct);
    }
}
