//! The three batch-distance kernels, and the full counting pipeline on
//! top of the reference kernel and the column kernel.
//!
//! Two layers on the paper's headline 100k-point, k = 12, d = 8
//! configuration (plus a k = 4 point for the small-k regime):
//!
//! * `batch_dist_*` — the raw kernel: all `n × k` distances, through
//!   the row-major strip-mined kernel
//!   ([`BatchDistance::batch_distances`], the one the index searchers
//!   use), the row-at-a-time reference (`batch_distances_rowwise`), and
//!   the column kernel ([`BatchDistance::column_distances`], the one
//!   every flat count runs) over 32-row coordinate-major strips into a
//!   site-major tile, transpose included.
//! * `count_*` — the full Table 3 counting pipeline
//!   (`count_permutations_flat_sharded`), as it runs and through
//!   `Rowwise<M>`, which routes the column kernel to the reference
//!   kernel (one row at a time, then scattered into the tile) so the
//!   identical pipeline can be measured both ways.
//!
//! Set `CRITERION_JSON=BENCH_kernels.json` to append machine-readable
//! medians; the committed baseline was recorded that way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_bench::column_pass;
use dp_core::count::count_permutations_flat_sharded;
use dp_datasets::vectors::uniform_unit_cube_flat;
use dp_datasets::VectorSet;
use dp_metric::{BatchDistance, F64Dist, L2Squared, Metric, TransposedSites};
use std::hint::black_box;

const DIM: usize = 8;
const N: usize = 100_000;

/// Routes every kernel to the row-at-a-time reference, so any flat
/// consumer can be benchmarked on it without a second code path.
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

    fn column_distances<const L: usize>(
        &self,
        cols: &[[f64; L]],
        sites: &TransposedSites,
        out: &mut [[f64; L]],
    ) {
        let k = sites.k();
        let mut row = vec![0.0f64; cols.len()];
        let mut dists = vec![0.0f64; k];
        for lane in 0..L {
            for (x, col) in row.iter_mut().zip(cols) {
                *x = col[lane];
            }
            self.0.batch_distances_rowwise(&row, sites, &mut dists);
            for (tile, &d) in out.iter_mut().zip(&dists) {
                tile[lane] = d;
            }
        }
    }
}

/// Rows per coordinate-major strip in the `columns` rows — the width
/// the flat scan runs the column kernel at.
const LANES: usize = 32;

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
        let mut tile = vec![[0.0f64; LANES]; k];
        group.bench_function("columns", |b| {
            b.iter(|| black_box(column_pass(&L2Squared, db.as_flat(), &sites_t, &mut tile)));
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
    group.bench_function("flat_columns", |b| {
        b.iter(|| {
            black_box(count_permutations_flat_sharded(&L2Squared, &sites, &db, 1, 0).distinct)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_batch_distances, bench_count);
criterion_main!(benches);
