//! Property tests for the flat batched kernels: the flat engine must be
//! *indistinguishable* from the per-point [`DistPermComputer`] path on
//! the same data — same permutations, same counts, for every metric and
//! any thread count.

use dp_datasets::uniform_unit_cube_flat;
use dp_datasets::VectorSet;
use dp_metric::{BatchDistance, L2Squared, LInf, TransposedSites, L1};
use dp_permutation::compute::{
    collect_packed_flat_parallel, collect_sharded_flat_parallel, PACKED_MAX_K, WIDE_MAX_K,
};
use dp_permutation::{
    count_sorted_runs, DistPermComputer, FlatKey, PackedCountSummary, Permutation, RunKey,
};
use proptest::prelude::*;

/// Per-point reference: [`DistPermComputer`] over owned rows, exactly as
/// the nested engine runs it.
fn reference_perms<M>(metric: &M, sites: &VectorSet, db: &VectorSet) -> Vec<Permutation>
where
    M: BatchDistance + dp_metric::Metric<Vec<f64>, Dist = dp_metric::F64Dist>,
{
    let site_rows: Vec<Vec<f64>> = sites.to_nested();
    let mut computer = DistPermComputer::new(sites.len());
    db.to_nested().iter().map(|row| computer.compute(metric, &site_rows, row)).collect()
}

/// Every row's permutation through the strip tile's rank rows.
fn flat_perms<M: BatchDistance>(
    metric: &M,
    sites_t: &TransposedSites,
    db: &VectorSet,
) -> Vec<Permutation> {
    let mut perms = Vec::with_capacity(db.len());
    Permutation::scan_flat(metric, sites_t, db.as_flat(), |p| perms.push(p));
    perms
}

/// The oracle counter: every permutation of the flat stream sorted at
/// once, then run-length scanned — `(distinct, counts)` in
/// lexicographic order.
fn sort_and_count(perms: &[Permutation]) -> (Vec<Permutation>, Vec<u64>) {
    let mut sorted = perms.to_vec();
    sorted.sort_unstable();
    let counts = count_sorted_runs(&sorted);
    sorted.dedup();
    (sorted, counts)
}

/// Asserts a summary equals the oracle's count of `perms`: distinct
/// permutations, codebook-ordered counts, total and the occupancy bits.
fn assert_counts<K: RunKey>(summary: &PackedCountSummary<K>, perms: &[Permutation], tag: &str) {
    let (distinct, counts) = sort_and_count(perms);
    assert_eq!(summary.permutations(), distinct, "{tag}: distinct permutations");
    assert_eq!(summary.lexicographic_counts(), counts, "{tag}: lexicographic counts");
    assert_eq!(summary.total(), perms.len() as u64, "{tag}: total");
    let occupancy = perms.len() as f64 / distinct.len() as f64;
    assert_eq!(summary.mean_occupancy().to_bits(), occupancy.to_bits(), "{tag}: occupancy");
}

fn flat_setup(n: usize, d: usize, k: usize, seed: u64) -> (VectorSet, VectorSet, TransposedSites) {
    let db = uniform_unit_cube_flat(n, d, seed);
    let sites = uniform_unit_cube_flat(k, d, seed ^ 0xABCD);
    let sites_t = TransposedSites::from_rows(sites.as_flat(), sites.dim());
    (db, sites, sites_t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn flat_equals_per_point_for_all_metrics(
        n in 1usize..400,
        d in 1usize..6,
        k in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        let (db, sites, sites_t) = flat_setup(n, d, k, seed);
        prop_assert_eq!(flat_perms(&L1, &sites_t, &db), reference_perms(&L1, &sites, &db));
        let l2 = flat_perms(&L2Squared, &sites_t, &db);
        prop_assert_eq!(l2, reference_perms(&L2Squared, &sites, &db));
        prop_assert_eq!(flat_perms(&LInf, &sites_t, &db), reference_perms(&LInf, &sites, &db));
    }

    #[test]
    fn flat_parallel_deterministic_in_thread_count(
        n in 1024usize..6000,
        k in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        let (db, _, sites_t) = flat_setup(n, 3, k, seed);
        let perms = flat_perms(&L2Squared, &sites_t, &db);
        for threads in [2usize, 3, 7] {
            let summary =
                collect_packed_flat_parallel::<u64, _>(&L2Squared, &sites_t, db.as_flat(), threads);
            assert_counts(&summary.finalize(), &perms, &format!("n = {n}, threads = {threads}"));
        }
    }

    #[test]
    fn packed_counter_matches_the_sorted_permutation_stream(
        n in 1usize..2000,
        d in 1usize..5,
        k in 1usize..=PACKED_MAX_K,
        seed in 0u64..1_000_000,
    ) {
        let (db, _, sites_t) = flat_setup(n, d, k, seed);
        let perms = flat_perms(&L2Squared, &sites_t, &db);
        let packed = collect_packed_flat_parallel::<u64, _>(&L2Squared, &sites_t, db.as_flat(), 1).finalize();
        assert_counts(&packed, &perms, &format!("n = {n}, d = {d}, k = {k}"));
    }

    #[test]
    fn wide_packed_counter_matches_the_sorted_permutation_stream(
        n in 1usize..1500,
        d in 1usize..5,
        k in (PACKED_MAX_K + 1)..=WIDE_MAX_K,
        seed in 0u64..1_000_000,
    ) {
        let (db, _, sites_t) = flat_setup(n, d, k, seed);
        let perms = flat_perms(&L2Squared, &sites_t, &db);
        let wide = collect_packed_flat_parallel::<u128, _>(&L2Squared, &sites_t, db.as_flat(), 1).finalize();
        assert_counts(&wide, &perms, &format!("n = {n}, d = {d}, k = {k}"));
    }
}

/// `Permutation` keys — the run counter above `WIDE_MAX_K` — against the
/// sorted permutation stream at k = 26 and 32, for every shard size
/// that puts a shard edge at the start, middle or end of the rows, and
/// for worker counts that split the rows (n ≥ 1024) unevenly.  Both
/// shapes repeat permutations: d = 1 holds at most C(k, 2) + 1 of them.
#[test]
fn permutation_keys_count_exactly_at_every_shard_size_and_worker_count() {
    let n = 1031;
    for (k, d, seed) in [(26usize, 1usize, 5u64), (32, 1, 6), (26, 3, 7), (32, 2, 8)] {
        let (db, _, sites_t) = flat_setup(n, d, k, seed);
        let perms = flat_perms(&L1, &sites_t, &db);
        assert!(sort_and_count(&perms).0.len() < n, "k = {k}, d = {d}: no repeats to merge");
        for shard_rows in [1usize, 7, n - 1, n, n + 1] {
            for threads in [1usize, 2, 5] {
                let summary = collect_sharded_flat_parallel::<Permutation, _>(
                    &L1,
                    &sites_t,
                    db.as_flat(),
                    threads,
                    shard_rows,
                )
                .finalize();
                let tag =
                    format!("k = {k}, d = {d}, shard_rows = {shard_rows}, threads = {threads}");
                assert_counts(&summary, &perms, &tag);
            }
        }
    }
}
