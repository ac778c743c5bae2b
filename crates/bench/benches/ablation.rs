//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **scratch reuse** — `DistPermComputer` vs a fresh allocation per
//!   point (the perf-book "reusing collections" guidance);
//! * **metric monotone-equivalence** — L2 vs L2Squared for permutation
//!   computation (identical permutations, no square root).

use criterion::{criterion_group, criterion_main, Criterion};
use dp_datasets::uniform_unit_cube;
use dp_metric::{L2Squared, Metric, L2};
use dp_permutation::compute::{distance_permutation, DistPermComputer};
use std::hint::black_box;

fn bench_scratch_reuse(c: &mut Criterion) {
    let db = uniform_unit_cube(4_096, 4, 3);
    let sites = uniform_unit_cube(12, 4, 4);
    let mut group = c.benchmark_group("scratch_reuse_k12");
    group.bench_function("reused_computer", |b| {
        let mut computer = DistPermComputer::new(12);
        b.iter(|| {
            let mut acc = 0usize;
            for y in &db {
                acc += computer.compute(&L2Squared, &sites, y).get(0) as usize;
            }
            black_box(acc)
        });
    });
    group.bench_function("fresh_allocation", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for y in &db {
                acc += distance_permutation(&L2Squared, &sites, y).get(0) as usize;
            }
            black_box(acc)
        });
    });
    group.finish();
}

fn bench_l2_vs_squared(c: &mut Criterion) {
    let db = uniform_unit_cube(4_096, 8, 5);
    let sites = uniform_unit_cube(8, 8, 6);
    let mut group = c.benchmark_group("metric_equivalence_d8_k8");
    group.bench_function("l2_sqrt", |b| {
        let mut computer = DistPermComputer::new(8);
        b.iter(|| {
            let mut acc = 0usize;
            for y in &db {
                acc += computer.compute(&L2, &sites, y).get(0) as usize;
            }
            black_box(acc)
        });
    });
    group.bench_function("l2_squared", |b| {
        let mut computer = DistPermComputer::new(8);
        b.iter(|| {
            let mut acc = 0usize;
            for y in &db {
                acc += computer.compute(&L2Squared, &sites, y).get(0) as usize;
            }
            black_box(acc)
        });
    });
    // Guard: the two metrics really do induce the same permutations.
    let mut computer = DistPermComputer::new(8);
    for y in db.iter().take(64) {
        assert_eq!(computer.compute(&L2, &sites, y), computer.compute(&L2Squared, &sites, y));
    }
    let _ = L2.distance(&db[0][..], &db[1][..]);
    group.finish();
}

criterion_group!(benches, bench_scratch_reuse, bench_l2_vs_squared);
criterion_main!(benches);
