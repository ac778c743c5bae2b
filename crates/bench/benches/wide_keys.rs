//! Wide packed keys vs the hash fallback across the k sweep the
//! width-generic refactor opened up.
//!
//! Before PR 9 every k > 12 fell off the packed radix path onto the
//! hash-interning counter; now k ≤ 25 packs into a `u128` and runs the
//! same sort-and-scan pipeline as the `u64` headline configuration.
//! This bench sweeps k ∈ {8, 12, 16, 20, 24} on the 100k-point, d = 8
//! workload and times both engines at every k, twice over:
//!
//! * the `count` groups run the bare counting pipeline (distances →
//!   ranking → count) — `packed` is the width the `for_packed_k!`
//!   dispatcher would pick (`u64` for k ≤ 12, `u128` above) via
//!   [`collect_packed_flat_parallel`]; `hash` is the permutation-materialising
//!   counter ([`collect_counter_flat_parallel`]), once the only option for
//!   k > 12 and still the reference oracle;
//! * the `survey` groups add the per-k survey tail on top — the
//!   codebook-ordered frequency table (`lexicographic_counts`, a clone
//!   of the occupancy scan under the lexicographic key layout, vs the
//!   hash arm's lexicographic `sorted_counts` over materialised
//!   permutations, exactly the two arms of `survey_one_k`) and the
//!   shared Huffman + entropy sums.  This is where wide keys pay off
//!   hardest: the hash arm re-sorts `Vec<u8>` permutations while the
//!   packed arm's key order already *is* the codebook order.
//!
//! The k ≤ 12 cells double as a regression guard: the width-generic
//! dispatch must not tax the narrow `u64` path that set the flat-count
//! baseline in `BENCH_flat.json`.
//!
//! Set `CRITERION_JSON=BENCH_wide_keys.json` to append machine-readable
//! medians; the committed baseline was recorded that way.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dp_datasets::vectors::uniform_unit_cube_flat;
use dp_metric::{L2Squared, TransposedSites};
use dp_permutation::huffman::{entropy_bits, HuffmanCode};
use dp_permutation::{
    collect_counter_flat_parallel, collect_packed_flat_parallel, PackedKey, PACKED_MAX_K,
};
use std::hint::black_box;

const N: usize = 100_000;
const DIM: usize = 8;

fn setup(k: usize) -> (Vec<f64>, TransposedSites) {
    let db = uniform_unit_cube_flat(N, DIM, 1);
    let sites = uniform_unit_cube_flat(k, DIM, 2);
    let sites_t = TransposedSites::from_rows(sites.as_flat(), DIM);
    (db.as_flat().to_vec(), sites_t)
}

/// The shared storage-cost tail of both survey arms.
fn huffman_tail(freqs: &[u64]) -> f64 {
    let code = HuffmanCode::from_frequencies(freqs);
    code.mean_bits(freqs) + entropy_bits(freqs)
}

fn count_packed<K: PackedKey>(sites_t: &TransposedSites, rows: &[f64]) -> usize {
    collect_packed_flat_parallel::<K, _>(&L2Squared, sites_t, rows, 1).finalize().distinct()
}

fn survey_packed<K: PackedKey>(sites_t: &TransposedSites, rows: &[f64]) -> f64 {
    let summary = collect_packed_flat_parallel::<K, _>(&L2Squared, sites_t, rows, 1).finalize();
    huffman_tail(&summary.lexicographic_counts())
}

fn bench_wide_counting(c: &mut Criterion) {
    for k in [8usize, 12, 16, 20, 24] {
        let (db, sites_t) = setup(k);
        let mut group = c.benchmark_group(format!("wide_keys_count_n{N}_k{k}_d{DIM}"));
        group.sample_size(10);
        group.throughput(Throughput::Elements(N as u64));
        group.bench_function("packed", |b| {
            if k <= PACKED_MAX_K {
                b.iter(|| black_box(count_packed::<u64>(&sites_t, &db)));
            } else {
                b.iter(|| black_box(count_packed::<u128>(&sites_t, &db)));
            }
        });
        group.bench_function("hash", |b| {
            b.iter(|| {
                black_box(collect_counter_flat_parallel(&L2Squared, &sites_t, &db, 1).distinct())
            });
        });
        group.finish();
    }
}

fn bench_wide_survey(c: &mut Criterion) {
    for k in [8usize, 12, 16, 20, 24] {
        let (db, sites_t) = setup(k);
        let mut group = c.benchmark_group(format!("wide_keys_survey_n{N}_k{k}_d{DIM}"));
        group.sample_size(10);
        group.throughput(Throughput::Elements(N as u64));
        group.bench_function("packed", |b| {
            if k <= PACKED_MAX_K {
                b.iter(|| black_box(survey_packed::<u64>(&sites_t, &db)));
            } else {
                b.iter(|| black_box(survey_packed::<u128>(&sites_t, &db)));
            }
        });
        group.bench_function("hash", |b| {
            b.iter(|| {
                let counter = collect_counter_flat_parallel(&L2Squared, &sites_t, &db, 1);
                let freqs: Vec<u64> = counter.sorted_counts().into_iter().map(|(_, c)| c).collect();
                black_box(huffman_tail(&freqs))
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_wide_counting, bench_wide_survey);
criterion_main!(benches);
