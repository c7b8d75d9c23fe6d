//! Criterion bench: per-push overhead of each registry fairness metric
//! against the ε-DF default, on the two hot paths that evaluate metrics:
//!
//! - `metrics/push_200k_w10k` — the monitor hot path: a 200k-row drifting
//!   replay pushed through `FairnessMonitor::push` in 100-row chunks at
//!   W = 10 000, once per metric. Tallying and window maintenance are
//!   identical across contenders (the stored counts are metric-agnostic),
//!   so any spread is the per-step metric evaluation.
//! - `metrics/evaluate_2x2x4` — the metric kernel alone:
//!   `FairnessMonitor::window_epsilon` over a fixed 2×2×4 window (the
//!   whole replay), which reads the window through the monitor's layout
//!   and scores it, isolating each statistic's arithmetic from the
//!   streaming machinery.
//!
//! Every metric walks the same per-outcome conditional table; ε-DF takes
//! pairwise log-ratios (via the estimator), the worst-case pair takes a
//! min/max sweep, α-IF adds the leveling-down blend on top of the ratio
//! sweep, and DEO repeats the ε-DF kernel once per true-label stratum.
//! Expected overhead vs ε-DF is therefore within noise for the min/max
//! family and roughly ×(strata) for DEO's kernel term — numbers that
//! EXPERIMENTS.md quotes from this bench.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use df_core::builder::{Audit, Smoothed};
use df_core::metric::metric_from_tag;
use df_data::chunks::FrameChunks;
use df_data::frame::DataFrame;
use df_data::workloads::drift_replay_frame;
use df_prob::rng::Pcg32;
use std::hint::black_box;

const N_ROWS: usize = 200_000;
const WINDOW: usize = 10_000;
const CHUNK_ROWS: usize = 100;
const COLUMNS: [&str; 3] = ["outcome", "attr0", "attr1"];

/// Every registry metric, instantiated for the outcome × attr0 × attr1
/// schema of the replay (attr1 doubles as the DEO true-label axis).
const TAGS: [&str; 5] = [
    "eps-df",
    "wc-ratio",
    "wc-diff",
    "alpha-if(alpha=0.5)",
    "deo(label=attr1)",
];

fn workload() -> DataFrame {
    let mut rng = Pcg32::new(2026);
    drift_replay_frame(&mut rng, N_ROWS, &[2, 4], 0.35, 0.2, 1.8).expect("workload generation")
}

fn bench_monitor_push(c: &mut Criterion) {
    let frame = workload();

    let mut group = c.benchmark_group("metrics/push_200k_w10k");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N_ROWS as u64));

    for tag in TAGS {
        group.bench_function(tag, |b| {
            b.iter(|| {
                let chunks = FrameChunks::new(&frame, &COLUMNS, CHUNK_ROWS).unwrap();
                let axes = chunks.axes().unwrap();
                let mut monitor = Audit::monitor("outcome", axes)
                    .estimator(Smoothed { alpha: 1.0 })
                    .boxed_metric(metric_from_tag(tag).unwrap())
                    .window(WINDOW)
                    .build()
                    .unwrap();
                let mut last = 0.0;
                for chunk in chunks {
                    last = monitor.push(&chunk).unwrap().epsilon.epsilon;
                }
                black_box(last)
            });
        });
    }
    group.finish();
}

fn bench_evaluate(c: &mut Criterion) {
    let frame = workload();

    let mut group = c.benchmark_group("metrics/evaluate_2x2x4");

    for tag in TAGS {
        let chunks = FrameChunks::new(&frame, &COLUMNS, N_ROWS).unwrap();
        let mut monitor = Audit::monitor("outcome", chunks.axes().unwrap())
            .estimator(Smoothed { alpha: 1.0 })
            .boxed_metric(metric_from_tag(tag).unwrap())
            .window(N_ROWS)
            .build()
            .unwrap();
        for chunk in chunks {
            monitor.push(&chunk).unwrap();
        }
        group.bench_function(tag, |b| {
            b.iter(|| black_box(monitor.window_epsilon().unwrap().epsilon));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_monitor_push, bench_evaluate);
criterion_main!(benches);
