//! Parallel batch-serving throughput over the flat distperm engine.
//!
//! Measures `serve::query_batch_parallel` (the path behind `distperm
//! search`) on a [`FlatDistPermIndex`] at 1, 2, 4 and 8 worker threads,
//! once for exact `knn 3` (a storage-order scan of every row) and once
//! for budgeted `knn 3` at `frac = 0.05` (footrule ordering, then 5% of
//! the rows measured) — the two halves of the `serve_50k_mixed` batch.
//! A third group serves the mixed batch itself through
//! `serve::serve_resilient` (the path behind `distperm serve`): exact
//! and `frac = 0.05` queries alternate, as in that workload.
//!
//! One searcher session per worker.  Workers claim runs of up to eight
//! consecutive queries from a shared cursor, and answer the exact k-NN
//! queries of a run with one pass over the rows; results come back in
//! query order.  The property suites guarantee every thread count
//! returns bit-identical answers, so this bench is purely about
//! wall-clock.
//!
//! Record the baseline with:
//! `CRITERION_JSON=$PWD/BENCH_serving.json cargo bench -p dp-bench --bench serving`
//! (from the repository root; the bench runs in `crates/bench`, so a
//! relative path would land there)
//!
//! Note: the speedup at N threads is bounded by the cores the machine
//! actually grants (`nproc`); rows with more threads than cores are
//! oversubscribed and show scheduling overhead, not scaling.

use criterion::{criterion_group, criterion_main, Criterion};
use dp_datasets::uniform_unit_cube_flat;
use dp_index::laesa::PivotSelection;
use dp_index::serve::{
    query_batch_parallel, query_batch_parallel_approx, serve_resilient, ApproxRequest,
    BatchOptions, FaultPlan, Request, ServeRequest,
};
use dp_index::FlatDistPermIndex;
use dp_metric::L2;
use std::hint::black_box;

const N: usize = 20_000;
const D: usize = 8;
const K: usize = 12;
const BATCH: usize = 64;

fn bench_serving(c: &mut Criterion) {
    let points = uniform_unit_cube_flat(N, D, 1);
    let queries = uniform_unit_cube_flat(BATCH, D, 2);
    let index = FlatDistPermIndex::build(L2, points, K, PivotSelection::MaxMin, 4);
    let rows: Vec<&[f64]> = queries.rows().collect();

    let mut group = c.benchmark_group(format!("serve_knn3_n{N}_batch{BATCH}"));
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                black_box(query_batch_parallel::<[f64], _, _>(
                    &index,
                    &rows,
                    Request::Knn { k: 3 },
                    threads,
                ))
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group(format!("serve_knn3_frac0.05_n{N}_batch{BATCH}"));
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                black_box(query_batch_parallel_approx::<[f64], _, _>(
                    &index,
                    &rows,
                    ApproxRequest::Knn { k: 3, frac: 0.05 },
                    threads,
                ))
            });
        });
    }
    group.finish();

    let mixed = |i: usize| {
        if i.is_multiple_of(2) {
            ServeRequest::Exact(Request::Knn { k: 3 })
        } else {
            ServeRequest::Approx(ApproxRequest::Knn { k: 3, frac: 0.05 })
        }
    };
    let mut group = c.benchmark_group(format!("serve_mixed_knn3_n{N}_batch{BATCH}"));
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let options = BatchOptions::with_threads(threads);
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                black_box(serve_resilient::<[f64], _, _, _>(
                    &index,
                    &rows,
                    mixed,
                    &options,
                    &FaultPlan::none(),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
