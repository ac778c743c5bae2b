//! The sorted-run counter across the whole k sweep, at each k on the
//! run key the `for_packed_k!` dispatcher picks.
//!
//! Before PR 9 every k > 12 fell off the packed radix path onto a
//! hash-interning counter; k ≤ 25 now packs into a `u128` and runs the
//! same sort-and-scan pipeline as the `u64` headline configuration, and
//! every longer k counts the permutation values themselves through the
//! same counter (a comparison sort instead of the radix sort).  This
//! bench sweeps k ∈ {8, 12, 16, 20, 24, 26, 32} on the 100k-point,
//! d = 8 workload, twice over:
//!
//! * the `count` groups run the bare counting pipeline (distances →
//!   ranking → count) through [`collect_packed_flat_parallel`] — the
//!   `packed` rows on `u64` (k ≤ 12) or `u128` keys, the `permutation`
//!   rows (k ≥ 26) on [`dp_permutation::Permutation`] keys;
//! * the `survey` groups add the per-k survey tail on top — the
//!   codebook-ordered frequency table (`lexicographic_counts`, a clone
//!   of the occupancy scan, since every run key sorts in codebook
//!   order) and the shared Huffman + entropy sums, exactly what
//!   `survey_one_k` runs.
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
use dp_permutation::{collect_packed_flat_parallel, for_packed_k, FlatKey, WIDE_MAX_K};
use std::hint::black_box;

const N: usize = 100_000;
const DIM: usize = 8;
const KS: [usize; 7] = [8, 12, 16, 20, 24, 26, 32];

fn setup(k: usize) -> (Vec<f64>, TransposedSites) {
    let db = uniform_unit_cube_flat(N, DIM, 1);
    let sites = uniform_unit_cube_flat(k, DIM, 2);
    let sites_t = TransposedSites::from_rows(sites.as_flat(), DIM);
    (db.as_flat().to_vec(), sites_t)
}

/// The row label: the key kind the dispatch picks at `k`.
fn engine(k: usize) -> &'static str {
    if k <= WIDE_MAX_K {
        "packed"
    } else {
        "permutation"
    }
}

/// The shared storage-cost tail of the survey rows.
fn huffman_tail(freqs: &[u64]) -> f64 {
    let code = HuffmanCode::from_frequencies(freqs);
    code.mean_bits(freqs) + entropy_bits(freqs)
}

fn count_run<K: FlatKey>(sites_t: &TransposedSites, rows: &[f64]) -> usize {
    collect_packed_flat_parallel::<K, _>(&L2Squared, sites_t, rows, 1).finalize().distinct()
}

fn survey_run<K: FlatKey>(sites_t: &TransposedSites, rows: &[f64]) -> f64 {
    let summary = collect_packed_flat_parallel::<K, _>(&L2Squared, sites_t, rows, 1).finalize();
    huffman_tail(&summary.lexicographic_counts())
}

fn bench_wide_counting(c: &mut Criterion) {
    for k in KS {
        let (db, sites_t) = setup(k);
        let mut group = c.benchmark_group(format!("wide_keys_count_n{N}_k{k}_d{DIM}"));
        group.sample_size(10);
        group.throughput(Throughput::Elements(N as u64));
        group.bench_function(engine(k), |b| {
            for_packed_k!(k, K => b.iter(|| black_box(count_run::<K>(&sites_t, &db))));
        });
        group.finish();
    }
}

fn bench_wide_survey(c: &mut Criterion) {
    for k in KS {
        let (db, sites_t) = setup(k);
        let mut group = c.benchmark_group(format!("wide_keys_survey_n{N}_k{k}_d{DIM}"));
        group.sample_size(10);
        group.throughput(Throughput::Elements(N as u64));
        group.bench_function(engine(k), |b| {
            for_packed_k!(k, K => b.iter(|| black_box(survey_run::<K>(&sites_t, &db))));
        });
        group.finish();
    }
}

criterion_group!(benches, bench_wide_counting, bench_wide_survey);
criterion_main!(benches);
