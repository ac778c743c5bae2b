//! Phase-level breakdown of the flat counting pipeline on the headline
//! 100k-point, k = 12, d = 8 configuration (plus k = 4 for the small-k
//! regime).
//!
//! End-to-end counting numbers (`BENCH_flat.json`) can say *that* the
//! count moved but not *which phase* moved it.  This bench times the
//! phases in isolation so future PRs can attribute deltas directly:
//!
//! * `phase_distances` — the batched site-transposed distance kernel
//!   alone, all `n × k` distances into one buffer;
//! * `phase_ranking`   — the branchless k²/2 ranking + key packing over
//!   a precomputed distance buffer
//!   ([`dp_permutation::compute::rank_distance_rows_packed`]);
//! * `phase_sort`      — sorting the packed key buffer: the LSD radix
//!   sort ([`RadixSorter`]) vs `sort_unstable`, same input;
//! * `phase_codebook`  — the survey/storage tail over a finalized
//!   summary: codebook-ordered frequency table
//!   (`lexicographic_counts`), the flat codebook build
//!   ([`PackedCodebook::from_summary`]), and the Huffman + entropy sums.
//!
//! Set `CRITERION_JSON=BENCH_counting_phases.json` to append
//! machine-readable medians; the committed baseline was recorded that
//! way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_datasets::vectors::uniform_unit_cube_flat;
use dp_metric::{BatchDistance, L2Squared, TransposedSites};
use dp_permutation::compute::rank_distance_rows_packed;
use dp_permutation::huffman::{entropy_bits, HuffmanCode};
use dp_permutation::{collect_packed_flat_parallel, packed_keys_flat, PackedCodebook, RadixSorter};
use std::hint::black_box;

const N: usize = 100_000;
const DIM: usize = 8;

fn setup(k: usize) -> (Vec<f64>, TransposedSites) {
    let db = uniform_unit_cube_flat(N, DIM, 1);
    let sites = uniform_unit_cube_flat(k, DIM, 2);
    let sites_t = TransposedSites::from_rows(sites.as_flat(), DIM);
    (db.as_flat().to_vec(), sites_t)
}

fn bench_distances(c: &mut Criterion) {
    for k in [4usize, 12] {
        let (db, sites_t) = setup(k);
        let mut out = vec![0.0f64; N * k];
        let mut group = c.benchmark_group(format!("phase_distances_n{N}_k{k}_d{DIM}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements((N * k) as u64));
        group.bench_function("strip", |b| {
            b.iter(|| {
                L2Squared.batch_distances(&db, &sites_t, &mut out);
                black_box(out[0])
            });
        });
        group.finish();
    }
}

fn bench_ranking(c: &mut Criterion) {
    for k in [4usize, 12] {
        let (db, sites_t) = setup(k);
        let mut dists = vec![0.0f64; N * k];
        L2Squared.batch_distances(&db, &sites_t, &mut dists);
        let mut group = c.benchmark_group(format!("phase_ranking_n{N}_k{k}_d{DIM}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements(N as u64));
        group.bench_function("rank_pack", |b| {
            b.iter(|| black_box(rank_distance_rows_packed::<u64>(&dists, k).len()));
        });
        group.finish();
    }
}

fn bench_sort(c: &mut Criterion) {
    for k in [4usize, 12] {
        let (db, sites_t) = setup(k);
        let keys = packed_keys_flat::<u64, _>(&L2Squared, &sites_t, &db);
        let mut group = c.benchmark_group(format!("phase_sort_n{N}_k{k}_d{DIM}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements(N as u64));
        let mut sorter = RadixSorter::new();
        let mut scratch = keys.clone();
        group.bench_function("radix", |b| {
            b.iter(|| {
                scratch.copy_from_slice(&keys);
                sorter.sort_keys(&mut scratch, 5 * k as u32);
                black_box(scratch[0])
            });
        });
        group.bench_function("std", |b| {
            b.iter(|| {
                scratch.copy_from_slice(&keys);
                scratch.sort_unstable();
                black_box(scratch[0])
            });
        });
        group.finish();
    }
}

fn bench_codebook(c: &mut Criterion) {
    for k in [4usize, 12] {
        let (db, sites_t) = setup(k);
        let summary =
            collect_packed_flat_parallel::<u64, _>(&L2Squared, &sites_t, &db, 1).finalize();
        let freqs = summary.lexicographic_counts();
        let mut group = c.benchmark_group(format!("phase_codebook_n{N}_k{k}_d{DIM}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements(summary.distinct() as u64));
        group.bench_function("lexicographic_counts", |b| {
            // black_box the Vec itself: since the lexicographic key
            // layout, this is a straight clone of the occupancy table,
            // which boxing only the length would let the optimizer elide.
            b.iter(|| black_box(summary.lexicographic_counts()));
        });
        group.bench_function("packed_codebook", |b| {
            b.iter(|| black_box(PackedCodebook::from_summary(&summary)));
        });
        group.bench_function("huffman_entropy", |b| {
            b.iter(|| {
                let code = HuffmanCode::from_frequencies(&freqs);
                black_box(code.mean_bits(&freqs) + entropy_bits(&freqs))
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_distances, bench_ranking, bench_sort, bench_codebook);
criterion_main!(benches);
