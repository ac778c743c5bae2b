//! Benchmarks for the paper's central measurement: counting distinct
//! distance permutations over a database (Table 2/3 inner loop), plus
//! the run counter fed permutation values, which also builds the
//! codebook behind the storage result.

use criterion::{criterion_group, criterion_main, Criterion};
use dp_core::count::{count_permutations, count_permutations_flat_sharded};
use dp_datasets::{uniform_unit_cube, uniform_unit_cube_flat};
use dp_metric::L2Squared;
use dp_permutation::{DistPermComputer, PackedPermutationCounter, Permutation};
use std::hint::black_box;

fn bench_count_distinct(c: &mut Criterion) {
    let mut group = c.benchmark_group("count_distinct_n10k");
    group.sample_size(20);
    for (d, k) in [(2usize, 8usize), (6, 8), (6, 12)] {
        let db = uniform_unit_cube(10_000, d, 1);
        let sites = uniform_unit_cube(k, d, 2);
        group.bench_function(format!("d{d}_k{k}"), |b| {
            b.iter(|| black_box(count_permutations(&L2Squared, &sites, &db, 1).distinct));
        });
        // Same coordinates through the flat batched engine.
        let db_flat = uniform_unit_cube_flat(10_000, d, 1);
        let sites_flat = uniform_unit_cube_flat(k, d, 2);
        group.bench_function(format!("d{d}_k{k}_flat"), |b| {
            b.iter(|| {
                black_box(
                    count_permutations_flat_sharded(&L2Squared, &sites_flat, &db_flat, 1, 0)
                        .distinct,
                )
            });
        });
    }
    group.finish();
}

fn bench_count_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("count_parallel_n50k_d6_k12");
    group.sample_size(10);
    let db = uniform_unit_cube(50_000, 6, 3);
    let sites = uniform_unit_cube(12, 6, 4);
    let db_flat = uniform_unit_cube_flat(50_000, 6, 3);
    let sites_flat = uniform_unit_cube_flat(12, 6, 4);
    for threads in [1usize, 4, 8] {
        group.bench_function(format!("threads{threads}"), |b| {
            b.iter(|| black_box(count_permutations(&L2Squared, &sites, &db, threads).distinct));
        });
        group.bench_function(format!("threads{threads}_flat"), |b| {
            b.iter(|| {
                black_box(
                    count_permutations_flat_sharded(&L2Squared, &sites_flat, &db_flat, threads, 0)
                        .distinct,
                )
            });
        });
    }
    group.finish();
}

fn bench_counter(c: &mut Criterion) {
    let db = uniform_unit_cube(20_000, 4, 5);
    let sites = uniform_unit_cube(8, 4, 6);
    let mut computer = DistPermComputer::new(sites.len());
    let perms: Vec<Permutation> =
        db.iter().map(|y| computer.compute(&L2Squared, &sites, y)).collect();
    // The run counter fed permutation values: packed into u64 keys (what
    // the per-point path does at k ≤ 12) and as Permutation keys (k > 25).
    c.bench_function("run_counter_insert_20k_packed", |b| {
        b.iter(|| {
            let mut counter = PackedPermutationCounter::<u64>::new(8);
            for p in &perms {
                counter.insert(p);
            }
            black_box(counter.finalize().distinct())
        });
    });
    c.bench_function("run_counter_insert_20k_permutation", |b| {
        b.iter(|| {
            let mut counter = PackedPermutationCounter::<Permutation>::new(8);
            for p in &perms {
                counter.insert(p);
            }
            black_box(counter.finalize().distinct())
        });
    });
}

criterion_group!(benches, bench_count_distinct, bench_count_parallel, bench_counter);
criterion_main!(benches);
