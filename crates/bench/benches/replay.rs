//! DFRL replay-log throughput vs the CSV path, with a pinned floor.
//!
//! The replay fast path — `tally_from_log`, which validates each chunk
//! frame in one reused buffer and counts one-byte codes straight from its
//! bytes through `tally_codes_trusted` — must beat re-parsing the equivalent
//! CSV by at least `MIN_SPEEDUP`× on a 1M-row tally. The gate runs before
//! the criterion groups and panics if the floor is missed, so a regression
//! fails the bench run itself (CI compiles this bench; the gate runs on
//! every local/nightly `cargo bench`).
//!
//! Also reports encoded size: DFRL stores interned codes (about a byte
//! per cell at these arities) against CSV's label text.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use df_data::chunks::CsvChunks;
use df_data::csv::CsvOptions;
use df_data::frame::DataFrame;
use df_data::replay::{tally_from_log, write_frame_log};
use df_data::workloads::{frame_to_csv, synthetic_audit_frame};
use df_prob::contingency::{Axis, ContingencyTable};
use df_prob::partial::{PartialCounts, Tally};
use df_prob::rng::Pcg32;
use std::hint::black_box;
use std::time::Instant;

const N_ROWS: usize = 1_000_000;
const CHUNK_ROWS: usize = 4_096;
const COLUMNS: [&str; 4] = ["outcome", "attr0", "attr1", "attr2"];
const MIN_SPEEDUP: f64 = 5.0;

fn workload() -> DataFrame {
    let mut rng = Pcg32::new(2024);
    synthetic_audit_frame(&mut rng, N_ROWS, 2, &[2, 4, 2]).expect("workload generation")
}

fn axes_of(frame: &DataFrame) -> Vec<Axis> {
    COLUMNS
        .iter()
        .map(|n| {
            let (_, vocab) = frame.column(n).unwrap().as_categorical().unwrap();
            Axis::new(n.to_string(), vocab.to_vec()).unwrap()
        })
        .collect()
}

fn csv_tally(csv: &str, axes: &[Axis]) -> ContingencyTable {
    let mut shard = PartialCounts::zeros(axes.to_vec()).unwrap();
    for chunk in CsvChunks::new(csv.as_bytes(), CsvOptions::default(), CHUNK_ROWS).unwrap() {
        chunk.unwrap().tally_into(&mut shard).unwrap();
    }
    shard.into_table()
}

fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed().as_secs_f64());
        out = Some(value);
    }
    (best, out.expect("at least one rep"))
}

/// The pinned floor: replaying 1M rows from a DFRL log must be at least
/// `MIN_SPEEDUP`× faster than tallying the same rows from CSV.
fn pin_replay_speedup() {
    let frame = workload();
    let axes = axes_of(&frame);
    let csv = frame_to_csv(&frame, &COLUMNS).unwrap();
    let mut log = Vec::new();
    let stats = write_frame_log(&frame, CHUNK_ROWS, &mut log).unwrap();

    let (csv_secs, csv_table) = best_of(3, || csv_tally(&csv, &axes));
    let (log_secs, log_table) = best_of(3, || tally_from_log(log.as_slice(), &COLUMNS).unwrap());
    assert_eq!(csv_table, log_table, "paths disagree on the tally");

    let speedup = csv_secs / log_secs;
    let n = N_ROWS as f64;
    println!(
        "replay pin: {N_ROWS} rows  csv {:.3}s ({:.1} Mrows/s)  dfrl {:.3}s ({:.1} Mrows/s)  speedup {speedup:.1}x",
        csv_secs,
        n / csv_secs / 1e6,
        log_secs,
        n / log_secs / 1e6,
    );
    println!(
        "replay pin: csv {:.2} bytes/row  dfrl {:.2} bytes/row ({} bytes total)",
        csv.len() as f64 / n,
        stats.bytes as f64 / n,
        stats.bytes,
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "replay fast path regressed: {speedup:.2}x < pinned {MIN_SPEEDUP}x floor"
    );
}

/// Criterion comparison at a smaller size (keeps iteration counts sane).
fn bench_tally_paths(c: &mut Criterion) {
    const BENCH_ROWS: usize = 200_000;
    let mut rng = Pcg32::new(2024);
    let frame = synthetic_audit_frame(&mut rng, BENCH_ROWS, 2, &[2, 4, 2]).unwrap();
    let axes = axes_of(&frame);
    let csv = frame_to_csv(&frame, &COLUMNS).unwrap();
    let mut log = Vec::new();
    write_frame_log(&frame, CHUNK_ROWS, &mut log).unwrap();

    let mut group = c.benchmark_group("replay_tally");
    group.throughput(Throughput::Elements(BENCH_ROWS as u64));
    group.bench_with_input(BenchmarkId::new("csv", BENCH_ROWS), &(), |b, ()| {
        b.iter(|| black_box(csv_tally(&csv, &axes)));
    });
    group.bench_with_input(BenchmarkId::new("dfrl", BENCH_ROWS), &(), |b, ()| {
        b.iter(|| black_box(tally_from_log(log.as_slice(), &COLUMNS).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_tally_paths);

fn main() {
    pin_replay_speedup();
    benches();
}
