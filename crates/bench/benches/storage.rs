//! Microbenchmarks for the permutation storage layouts (E13's kernels):
//! building each store (the codebook stores count their codebook with
//! the run counter), random access into the bit-packed stores, and
//! sequential decode throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_metric::L2Squared;
use dp_permutation::huffman::HuffmanPermStore;
use dp_permutation::store::{PackedPermStore, RawPermStore};
use dp_permutation::{distance_permutation, Permutation};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn permutation_column(n: usize, d: usize, k: usize, seed: u64) -> Vec<Permutation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<Vec<f64>> =
        (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect();
    let sites: Vec<Vec<f64>> = points[..k].to_vec();
    points.iter().map(|y| distance_permutation(&L2Squared, &sites, y)).collect()
}

fn bench_store_build(c: &mut Criterion) {
    let perms = permutation_column(20_000, 3, 10, 1);
    let mut group = c.benchmark_group("store_build_n20k_k10");
    group.throughput(Throughput::Elements(perms.len() as u64));
    group.bench_function("raw", |b| {
        b.iter(|| black_box(RawPermStore::from_permutations(10, &perms)));
    });
    group.bench_function("packed_codebook", |b| {
        b.iter(|| black_box(PackedPermStore::from_permutations(&perms)));
    });
    group.bench_function("huffman", |b| {
        b.iter(|| black_box(HuffmanPermStore::from_permutations(&perms)));
    });
    group.finish();
}

fn bench_random_access(c: &mut Criterion) {
    let perms = permutation_column(20_000, 3, 10, 2);
    let raw = RawPermStore::from_permutations(10, &perms);
    let packed = PackedPermStore::from_permutations(&perms);
    let mut group = c.benchmark_group("store_get_n20k_k10");
    group.bench_function("raw", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i * 2654435761 + 1) % 20_000;
            black_box(raw.get(i))
        });
    });
    group.bench_function("packed_codebook", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i * 2654435761 + 1) % 20_000;
            black_box(packed.get(i))
        });
    });
    group.finish();
}

fn bench_sequential_decode(c: &mut Criterion) {
    let perms = permutation_column(20_000, 3, 10, 3);
    let packed = PackedPermStore::from_permutations(&perms);
    let huff = HuffmanPermStore::from_permutations(&perms);
    let mut group = c.benchmark_group("store_scan_n20k_k10");
    group.throughput(Throughput::Elements(perms.len() as u64));
    group.bench_function("packed_codebook", |b| {
        b.iter(|| black_box(packed.iter().map(|p| p.get(0) as u64).sum::<u64>()));
    });
    group.bench_function("huffman", |b| {
        b.iter(|| black_box(huff.iter().map(|p| p.get(0) as u64).sum::<u64>()));
    });
    group.finish();
}

criterion_group!(benches, bench_store_build, bench_random_access, bench_sequential_decode);
criterion_main!(benches);
