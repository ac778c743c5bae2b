//! Microbenchmarks for the permutation machinery: the hot kernel of every
//! experiment is `distance_permutation` (k metric evaluations + a sort),
//! and the index types lean on ranking and permutation distances.

use criterion::{criterion_group, criterion_main, Criterion};
use dp_metric::L2Squared;
use dp_permutation::lehmer::{rank, unrank};
use dp_permutation::permdist::{kendall_tau, spearman_footrule};
use dp_permutation::{DistPermComputer, Permutation};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect()
}

fn bench_distance_permutation(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_permutation_d8");
    for k in [4usize, 8, 12, 16] {
        let sites = random_points(k, 8, 1);
        let queries = random_points(256, 8, 2);
        let mut computer = DistPermComputer::new(k);
        group.bench_function(format!("k{k}"), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &queries[i & 255];
                i += 1;
                black_box(computer.compute(&L2Squared, &sites, q))
            });
        });
    }
    group.finish();
}

fn bench_database_permutations_flat(c: &mut Criterion) {
    use dp_metric::TransposedSites;
    use dp_permutation::FlatKey;
    let mut group = c.benchmark_group("database_permutations_n10k_d8");
    group.sample_size(15);
    for k in [4usize, 12] {
        let db = random_points(10_000, 8, 5);
        let sites = random_points(k, 8, 6);
        group.bench_function(format!("nested_k{k}"), |b| {
            b.iter(|| {
                let mut computer = DistPermComputer::new(k);
                black_box(db.iter().map(|y| computer.compute(&L2Squared, &sites, y)).count())
            });
        });
        let db_flat: dp_datasets::VectorSet = db.iter().cloned().collect();
        let sites_flat: dp_datasets::VectorSet = sites.iter().cloned().collect();
        let sites_t = TransposedSites::from_rows(sites_flat.as_flat(), sites_flat.dim());
        group.bench_function(format!("flat_k{k}"), |b| {
            b.iter(|| {
                let mut perms = Vec::with_capacity(db_flat.len());
                Permutation::scan_flat(&L2Squared, &sites_t, db_flat.as_flat(), |p| perms.push(p));
                black_box(perms.len())
            });
        });
    }
    group.finish();
}

fn bench_lehmer(c: &mut Criterion) {
    let perms: Vec<Permutation> = Permutation::all(8).collect();
    c.bench_function("lehmer_rank_k8", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let p = &perms[i % perms.len()];
            i += 1;
            black_box(rank(p))
        });
    });
    c.bench_function("lehmer_unrank_k8", |b| {
        let mut r = 0u128;
        b.iter(|| {
            r = (r + 12345) % 40320;
            black_box(unrank(8, r))
        });
    });
}

fn bench_permutation_distances(c: &mut Criterion) {
    let perms: Vec<Permutation> = Permutation::all(8).step_by(97).collect();
    c.bench_function("spearman_footrule_k8", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let x = &perms[i % perms.len()];
            let y = &perms[(i * 7 + 3) % perms.len()];
            i += 1;
            black_box(spearman_footrule(x, y))
        });
    });
    c.bench_function("kendall_tau_k8", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let x = &perms[i % perms.len()];
            let y = &perms[(i * 7 + 3) % perms.len()];
            i += 1;
            black_box(kendall_tau(x, y))
        });
    });
}

fn bench_enumeration(c: &mut Criterion) {
    c.bench_function("next_lex_sweep_k8", |b| {
        b.iter(|| {
            let mut p = Permutation::identity(8);
            let mut n = 1u32;
            while p.next_lex() {
                n += 1;
            }
            black_box(n)
        });
    });
}

criterion_group!(
    benches,
    bench_distance_permutation,
    bench_database_permutations_flat,
    bench_lehmer,
    bench_permutation_distances,
    bench_enumeration
);
criterion_main!(benches);
