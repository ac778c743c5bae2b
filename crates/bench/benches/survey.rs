//! Generic vs flat §5 survey on the headline database configuration.
//!
//! One cell = one full [`dp_core::survey_database`]-protocol run: the ρ
//! estimate (20k sampled pairs) plus the k = 12 distance-permutation
//! count with storage costs, over 100k uniform d = 8 points — the
//! configuration the ROADMAP names for the survey speedup.  The
//! `generic` row is the per-point engine on nested storage; `flat` is
//! [`dp_core::survey_database_flat_sharded`] (site-transposed kernels,
//! packed-u64 counting); `flat_t4` adds 4 counting workers (expect
//! overhead, not speedup, on a single-core container).
//!
//! Set `CRITERION_JSON=BENCH_survey.json` to append machine-readable
//! medians; the committed baseline was recorded that way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_core::{survey_database, survey_database_flat_sharded, SurveyConfig};
use dp_datasets::vectors::{uniform_unit_cube, uniform_unit_cube_flat};
use dp_metric::L2Squared;
use std::hint::black_box;

const N: usize = 100_000;
const DIM: usize = 8;
const K: usize = 12;

fn bench_survey(c: &mut Criterion) {
    let cfg = SurveyConfig { ks: vec![K], ..Default::default() };
    let nested = uniform_unit_cube(N, DIM, 1);
    let flat = uniform_unit_cube_flat(N, DIM, 1);
    let mut group = c.benchmark_group(format!("survey_n{N}_d{DIM}"));
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));
    group.bench_function(format!("generic_k{K}"), |b| {
        b.iter(|| {
            black_box(survey_database(&L2Squared, &nested, &cfg, 1).per_k[0].report.distinct)
        });
    });
    group.bench_function(format!("flat_k{K}"), |b| {
        b.iter(|| {
            black_box(
                survey_database_flat_sharded(&L2Squared, &flat, &cfg, 1, 0).per_k[0]
                    .report
                    .distinct,
            )
        });
    });
    group.bench_function(format!("flat_k{K}_t4"), |b| {
        b.iter(|| {
            black_box(
                survey_database_flat_sharded(&L2Squared, &flat, &cfg, 4, 0).per_k[0]
                    .report
                    .distinct,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_survey);
criterion_main!(benches);
