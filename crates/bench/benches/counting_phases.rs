//! Phase-level breakdown of the flat counting pipeline on the headline
//! 100k-point, k = 12, d = 8 configuration (plus k = 4 for the small-k
//! regime, and k = 16 and 24 on `u128` keys for the distance and scan
//! phases).
//!
//! End-to-end counting numbers (`BENCH_flat.json`) can say *that* the
//! count moved but not *which phase* moved it.  This bench times the
//! phases in isolation so future PRs can attribute deltas directly:
//!
//! * `phase_distances` — the column kernel alone
//!   ([`dp_metric::BatchDistance::column_distances`]): every 32-row strip
//!   transposed coordinate-major and its site-major distance tile
//!   computed, the distance half of the scan;
//! * `phase_scan`      — the whole strip scan, distances plus the
//!   lane-wise k²/2 ranking and key packing, one key per row
//!   ([`packed_keys_flat`]); the difference to `phase_distances` is the
//!   rank+pack cost;
//! * `phase_sort`      — sorting the packed key buffer: the LSD radix
//!   sort ([`RadixSorter`]) vs `sort_unstable`, same input;
//! * `phase_codebook`  — the survey/storage tail over a finalized
//!   summary, which is itself the codebook: the id-ordered frequency
//!   table (`lexicographic_counts`) and the Huffman + entropy sums.
//!
//! Set `CRITERION_JSON=BENCH_counting_phases.json` to append
//! machine-readable medians; the committed baseline was recorded that
//! way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_bench::column_pass;
use dp_datasets::vectors::uniform_unit_cube_flat;
use dp_metric::{L2Squared, TransposedSites, STRIP};
use dp_permutation::huffman::{entropy_bits, HuffmanCode};
use dp_permutation::{collect_packed_flat_parallel, packed_keys_flat, RadixSorter, PACKED_MAX_K};
use std::hint::black_box;

const N: usize = 100_000;
const DIM: usize = 8;

fn setup(k: usize) -> (Vec<f64>, TransposedSites) {
    let db = uniform_unit_cube_flat(N, DIM, 1);
    let sites = uniform_unit_cube_flat(k, DIM, 2);
    let sites_t = TransposedSites::from_rows(sites.as_flat(), DIM);
    (db.as_flat().to_vec(), sites_t)
}

/// The scan's k values: both `u64` (4, 12) and `u128` (16, 24) keys.
const SCAN_KS: [usize; 4] = [4, 12, 16, 24];

fn bench_distances(c: &mut Criterion) {
    for k in SCAN_KS {
        let (db, sites_t) = setup(k);
        let mut tile = vec![[0.0f64; STRIP]; k];
        let mut group = c.benchmark_group(format!("phase_distances_n{N}_k{k}_d{DIM}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements((N * k) as u64));
        group.bench_function("columns", |b| {
            b.iter(|| black_box(column_pass(&L2Squared, &db, &sites_t, &mut tile)));
        });
        group.finish();
    }
}

fn bench_scan(c: &mut Criterion) {
    for k in SCAN_KS {
        let (db, sites_t) = setup(k);
        let mut group = c.benchmark_group(format!("phase_scan_n{N}_k{k}_d{DIM}"));
        group.sample_size(20);
        group.throughput(Throughput::Elements(N as u64));
        group.bench_function("packed_keys_flat", |b| {
            if k <= PACKED_MAX_K {
                b.iter(|| black_box(packed_keys_flat::<u64, _>(&L2Squared, &sites_t, &db).len()));
            } else {
                b.iter(|| black_box(packed_keys_flat::<u128, _>(&L2Squared, &sites_t, &db).len()));
            }
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
        group.bench_function("huffman_entropy", |b| {
            b.iter(|| {
                let code = HuffmanCode::from_frequencies(&freqs);
                black_box(code.mean_bits(&freqs) + entropy_bits(&freqs))
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_distances, bench_scan, bench_sort, bench_codebook);
criterion_main!(benches);
