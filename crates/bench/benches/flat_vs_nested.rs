//! Flat engine vs nested `Vec<Vec<f64>>`: build + count throughput on
//! the repo's headline workload (Table 3 style counting).
//!
//! Grid: n ∈ {10k, 100k}, k ∈ {4, 12}, d = 8, L2² distances.  Each cell
//! benchmarks the full single-run pipeline — distance-permutation scan
//! feeding the distinct counter — on identical coordinates (flat and
//! nested generators share the RNG stream, so both paths count the same
//! permutations).
//!
//! Set `CRITERION_JSON=BENCH_flat.json` to append machine-readable
//! medians; the committed baseline was recorded that way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_core::count::{count_permutations, count_permutations_flat_sharded};
use dp_datasets::vectors::{uniform_unit_cube, uniform_unit_cube_flat};
use dp_metric::L2Squared;
use std::hint::black_box;

const DIM: usize = 8;

fn bench_count(c: &mut Criterion) {
    for (n, samples) in [(10_000usize, 20usize), (100_000, 10)] {
        let mut group = c.benchmark_group(format!("count_n{n}_d{DIM}"));
        group.sample_size(samples);
        group.throughput(Throughput::Elements(n as u64));
        for k in [4usize, 12] {
            let nested_db = uniform_unit_cube(n, DIM, 1);
            let nested_sites = uniform_unit_cube(k, DIM, 2);
            let flat_db = uniform_unit_cube_flat(n, DIM, 1);
            let flat_sites = uniform_unit_cube_flat(k, DIM, 2);
            group.bench_function(format!("nested_k{k}"), |b| {
                b.iter(|| {
                    black_box(count_permutations(&L2Squared, &nested_sites, &nested_db, 1).distinct)
                });
            });
            group.bench_function(format!("flat_k{k}"), |b| {
                b.iter(|| {
                    black_box(
                        count_permutations_flat_sharded(&L2Squared, &flat_sites, &flat_db, 1, 0)
                            .distinct,
                    )
                });
            });
        }
        group.finish();
    }
}

fn bench_build(c: &mut Criterion) {
    // Generator throughput: nested allocates n boxes, flat fills one
    // buffer (identical streams).
    let mut group = c.benchmark_group(format!("generate_n100k_d{DIM}"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("nested", |b| {
        b.iter(|| black_box(uniform_unit_cube(100_000, DIM, 3).len()));
    });
    group.bench_function("flat", |b| {
        b.iter(|| black_box(uniform_unit_cube_flat(100_000, DIM, 3).len()));
    });
    group.finish();
}

criterion_group!(benches, bench_count, bench_build);
criterion_main!(benches);
