//! Property tests for the flat batched kernels: the flat engine must be
//! *indistinguishable* from the per-point [`DistPermComputer`] path on
//! the same data — same permutations, same counts, for every metric and
//! any thread count.

use dp_datasets::uniform_unit_cube_flat;
use dp_datasets::VectorSet;
use dp_metric::{BatchDistance, L2Squared, LInf, TransposedSites, L1};
use dp_permutation::compute::{
    collect_counter_flat_parallel, collect_packed_flat_parallel,
    database_permutations_flat_parallel, PACKED_MAX_K, WIDE_MAX_K,
};
use dp_permutation::{DistPermComputer, Permutation};
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
        let l1 = database_permutations_flat_parallel(&L1, &sites_t, db.as_flat(), 1);
        prop_assert_eq!(&l1, &reference_perms(&L1, &sites, &db));
        let l2 = database_permutations_flat_parallel(&L2Squared, &sites_t, db.as_flat(), 1);
        prop_assert_eq!(&l2, &reference_perms(&L2Squared, &sites, &db));
        let linf = database_permutations_flat_parallel(&LInf, &sites_t, db.as_flat(), 1);
        prop_assert_eq!(&linf, &reference_perms(&LInf, &sites, &db));
    }

    #[test]
    fn flat_parallel_deterministic_in_thread_count(
        n in 1024usize..6000,
        k in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        let (db, _, sites_t) = flat_setup(n, 3, k, seed);
        let seq = database_permutations_flat_parallel(&L2Squared, &sites_t, db.as_flat(), 1);
        for threads in [2usize, 3, 7] {
            prop_assert_eq!(
                &database_permutations_flat_parallel(&L2Squared, &sites_t, db.as_flat(), threads),
                &seq
            );
        }
    }

    #[test]
    fn packed_and_hash_counters_agree(
        n in 1usize..2000,
        d in 1usize..5,
        k in 1usize..=PACKED_MAX_K,
        seed in 0u64..1_000_000,
    ) {
        let (db, _, sites_t) = flat_setup(n, d, k, seed);
        let hashed = collect_counter_flat_parallel(&L2Squared, &sites_t, db.as_flat(), 1);
        let packed = collect_packed_flat_parallel::<u64, _>(&L2Squared, &sites_t, db.as_flat(), 1).finalize();
        prop_assert_eq!(packed.distinct(), hashed.distinct());
        prop_assert_eq!(packed.total(), hashed.total());
        // Decoded permutation sets agree exactly.
        prop_assert_eq!(packed.unpack().sorted_permutations(), hashed.sorted_permutations());
    }

    #[test]
    fn wide_packed_and_hash_counters_agree(
        n in 1usize..1500,
        d in 1usize..5,
        k in (PACKED_MAX_K + 1)..=WIDE_MAX_K,
        seed in 0u64..1_000_000,
    ) {
        let (db, _, sites_t) = flat_setup(n, d, k, seed);
        let hashed = collect_counter_flat_parallel(&L2Squared, &sites_t, db.as_flat(), 1);
        let wide = collect_packed_flat_parallel::<u128, _>(&L2Squared, &sites_t, db.as_flat(), 1).finalize();
        prop_assert_eq!(wide.distinct(), hashed.distinct());
        prop_assert_eq!(wide.total(), hashed.total());
        prop_assert_eq!(wide.unpack().sorted_permutations(), hashed.sorted_permutations());
    }
}
