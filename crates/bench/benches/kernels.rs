//! The distance kernel as the workspace runs it: all distances of a
//! database, the count on top, and the flat index's searcher shapes.
//!
//! * `batch_dist_*` — all `n × k` distances on the paper's headline
//!   100k-point, d = 8 configuration at k = 4 and 12: through the column
//!   kernel ([`BatchDistance::column_distances`]) over 32-row strips
//!   from the loader into a site-major tile, as every flat count runs
//!   it (`columns`), and through the row-major adapter
//!   [`BatchDistance::batch_distances`] (`row_major`).
//! * `count_*` — the full Table 3 counting pipeline
//!   (`count_permutations_flat_sharded`) at k = 12.
//! * `search_*` — the flat index's query paths over 50k × 8 rows
//!   (k = 12 sites): the exact 3-NN sweep with 1, 4 and 8 queries swept
//!   together (`Searcher::knn_batch`, as a serving worker's run calls
//!   it), and one budgeted 3-NN query at `frac = 0.05`, whose 2,500
//!   candidates are gathered into strips.
//!
//! Set `CRITERION_JSON=BENCH_kernels.json` to append machine-readable
//! medians; the committed baseline was recorded that way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_bench::column_pass;
use dp_core::count::count_permutations_flat_sharded;
use dp_datasets::vectors::uniform_unit_cube_flat;
use dp_datasets::VectorSet;
use dp_index::api::Searcher;
use dp_index::laesa::PivotSelection;
use dp_index::FlatDistPermIndex;
use dp_metric::{BatchDistance, L2Squared, TransposedSites, L2, STRIP};
use std::hint::black_box;

const DIM: usize = 8;
const N: usize = 100_000;

fn bench_batch_distances(c: &mut Criterion) {
    for k in [4usize, 12] {
        let db = uniform_unit_cube_flat(N, DIM, 1);
        let sites = uniform_unit_cube_flat(k, DIM, 2);
        let sites_t = TransposedSites::from_rows(sites.as_flat(), DIM);
        let mut out = vec![0.0f64; N * k];
        let mut group = c.benchmark_group(format!("batch_dist_n{N}_k{k}_d{DIM}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements((N * k) as u64));
        group.bench_function("row_major", |b| {
            b.iter(|| {
                L2Squared.batch_distances(db.as_flat(), &sites_t, &mut out);
                black_box(out[0])
            });
        });
        let mut tile = vec![[0.0f64; STRIP]; k];
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
    group.bench_function("flat_columns", |b| {
        b.iter(|| {
            black_box(count_permutations_flat_sharded(&L2Squared, &sites, &db, 1, 0).distinct)
        });
    });
    group.finish();
}

/// Rows of the searcher benches: the `serve_50k_mixed` index.
const SEARCH_N: usize = 50_000;

fn bench_search(c: &mut Criterion) {
    let points = uniform_unit_cube_flat(SEARCH_N, DIM, 1);
    let queries = uniform_unit_cube_flat(8, DIM, 2);
    let index = FlatDistPermIndex::build(L2, points, 12, PivotSelection::MaxMin, 1);
    let rows: Vec<&[f64]> = queries.rows().collect();
    let mut searcher = index.session();
    let mut group = c.benchmark_group(format!("search_n{SEARCH_N}_d{DIM}"));
    group.sample_size(30);
    for m in [1usize, 4, 8] {
        group.bench_function(format!("sweep_m{m}"), |b| {
            b.iter(|| black_box(searcher.knn_batch(&rows[..m], 3)));
        });
    }
    group.bench_function("budget_frac0.05", |b| {
        b.iter(|| black_box(searcher.knn_approx(rows[0], 3, 0.05)));
    });
    group.finish();
}

criterion_group!(benches, bench_batch_distances, bench_count, bench_search);
criterion_main!(benches);
