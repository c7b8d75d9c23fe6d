//! Criterion bench: the 2^p subset audit — Table 2's computation, through
//! the `Audit` lattice — as the number of protected attributes grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use df_core::builder::{Audit, Smoothed};
use df_core::JointCounts;
use df_data::workloads::random_joint_counts;
use df_prob::rng::Pcg32;
use std::hint::black_box;

fn bench_subset_audit(c: &mut Criterion) {
    let mut group = c.benchmark_group("subsets/audit");
    let mut rng = Pcg32::new(9);
    for p in [2usize, 3, 4, 5, 6] {
        let arities = vec![2usize; p];
        let table = random_joint_counts(&mut rng, 2, &arities, 300).unwrap();
        let jc = JointCounts::from_table(table, "outcome").unwrap();
        group.throughput(Throughput::Elements((1u64 << p) - 1));
        group.bench_with_input(BenchmarkId::from_parameter(p), &jc, |b, jc| {
            b.iter(|| {
                let audit = Audit::of(jc).estimator(Smoothed { alpha: 1.0 });
                black_box(audit.run().unwrap())
            });
        });
    }
    group.finish();
}

fn bench_single_edf(c: &mut Criterion) {
    let mut group = c.benchmark_group("subsets/single_edf");
    let mut rng = Pcg32::new(10);
    // Adult-shaped table: 2 outcomes x 4 x 2 x 2.
    let table = random_joint_counts(&mut rng, 2, &[4, 2, 2], 2000).unwrap();
    let jc = JointCounts::from_table(table, "outcome").unwrap();
    group.bench_function("adult_shape_raw", |b| {
        b.iter(|| black_box(jc.edf().unwrap()));
    });
    group.bench_function("adult_shape_smoothed", |b| {
        b.iter(|| black_box(jc.edf_smoothed(1.0).unwrap()));
    });
    group.finish();
}

criterion_group!(benches, bench_subset_audit, bench_single_edf);
criterion_main!(benches);
