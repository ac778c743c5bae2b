//! Strip-mined vs row-at-a-time batch-distance kernels, and the full
//! counting pipeline on top of each — the ROADMAP's "another ~2× in
//! `BatchDistance`" lever, measured.
//!
//! Two layers on the paper's headline 100k-point, k = 12, d = 8
//! configuration (plus a k = 4 point for the small-k regime):
//!
//! * `batch_dist_*` — the raw kernel: all `n × k` distances into one
//!   buffer, strip-mined ([`BatchDistance::batch_distances`]) vs the
//!   row-at-a-time reference (`batch_distances_rowwise`, the pre-strip
//!   flat kernel).  The acceptance bar for the strip kernel is ≥ 1.4×
//!   the rowwise kernel on the k = 12 configuration.
//! * `count_*` — the full Table 3 counting pipeline
//!   (`count_permutations_flat_sharded`) through each kernel; `Rowwise<M>`
//!   routes `batch_distances` to the reference kernel so the identical
//!   pipeline can be measured both ways.
//!
//! Set `CRITERION_JSON=BENCH_kernels.json` to append machine-readable
//! medians; the committed baseline was recorded that way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_core::count::count_permutations_flat_sharded;
use dp_datasets::vectors::uniform_unit_cube_flat;
use dp_datasets::VectorSet;
use dp_metric::{BatchDistance, F64Dist, L2Squared, Metric, TransposedSites};
use std::hint::black_box;

const DIM: usize = 8;
const N: usize = 100_000;

/// Routes the strip-mined entry point to the row-at-a-time reference
/// kernel, so any flat consumer can be benchmarked "as before the
/// strip-mining" without a second code path.
#[derive(Debug, Clone, Copy)]
struct Rowwise<M>(M);

impl<M: Metric<[f64], Dist = F64Dist>> Metric<[f64]> for Rowwise<M> {
    type Dist = F64Dist;

    fn distance(&self, a: &[f64], b: &[f64]) -> F64Dist {
        self.0.distance(a, b)
    }
}

impl<M: BatchDistance> BatchDistance for Rowwise<M> {
    fn batch_distances(&self, rows: &[f64], sites: &TransposedSites, out: &mut [f64]) {
        self.0.batch_distances_rowwise(rows, sites, out);
    }

    fn batch_distances_rowwise(&self, rows: &[f64], sites: &TransposedSites, out: &mut [f64]) {
        self.0.batch_distances_rowwise(rows, sites, out);
    }
}

fn bench_batch_distances(c: &mut Criterion) {
    for k in [4usize, 12] {
        let db = uniform_unit_cube_flat(N, DIM, 1);
        let sites = uniform_unit_cube_flat(k, DIM, 2);
        let sites_t = TransposedSites::from_rows(sites.as_flat(), DIM);
        let mut out = vec![0.0f64; N * k];
        let mut group = c.benchmark_group(format!("batch_dist_n{N}_k{k}_d{DIM}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements((N * k) as u64));
        group.bench_function("rowwise", |b| {
            b.iter(|| {
                L2Squared.batch_distances_rowwise(db.as_flat(), &sites_t, &mut out);
                black_box(out[0])
            });
        });
        group.bench_function("strip", |b| {
            b.iter(|| {
                L2Squared.batch_distances(db.as_flat(), &sites_t, &mut out);
                black_box(out[0])
            });
        });
        group.finish();
    }
}

fn bench_count(c: &mut Criterion) {
    let db = uniform_unit_cube_flat(N, DIM, 1);
    let k = 12usize;
    let sites: VectorSet = uniform_unit_cube_flat(k, DIM, 2);
    let mut group = c.benchmark_group(format!("count_n{N}_k{k}_d{DIM}"));
    group.sample_size(30);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function("flat_rowwise", |b| {
        b.iter(|| {
            black_box(
                count_permutations_flat_sharded(&Rowwise(L2Squared), &sites, &db, 1, 0).distinct,
            )
        });
    });
    group.bench_function("flat_strip", |b| {
        b.iter(|| {
            black_box(count_permutations_flat_sharded(&L2Squared, &sites, &db, 1, 0).distinct)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_batch_distances, bench_count);
criterion_main!(benches);
