//! The measurement at the heart of the paper: |{Π_y : y ∈ database}|.
//!
//! Two equivalent engines are provided, each with one entry point
//! taking a `threads` count (1 runs inline; more split the database
//! into contiguous chunks whose counted runs merge independently of
//! the split):
//!
//! * [`count_permutations`]`(metric, sites, database, threads)`, the
//!   generic per-point path for any metric over any point type
//!   (strings, trees, sparse vectors, …);
//! * [`count_permutations_flat_sharded`]`(metric, sites, database,
//!   threads, shard_rows)`, the flat path for real-vector data in
//!   [`VectorSet`] storage: every row goes through the 32-row strip
//!   tile (site-major column distances, lane-wise rank and pack) into
//!   the sorted-run counter, whose workers each buffer at most
//!   `shard_rows` keys (0 means the default 131,072).  Identical
//!   results, several times the throughput; this is the engine behind
//!   the Table 3 protocol in [`crate::experiments`].
//!
//! Both paths count on the one sorted-run counter
//! ([`dp_permutation::PackedPermutationCounter`]) and dispatch once per
//! workload over its key ([`CountEngine::for_k`]): `u64` packed keys for
//! k ≤ 12, `u128` packed keys for k ≤ 25, and the permutation values
//! themselves beyond that.  Every key produces a bit-identical report.

use dp_datasets::VectorSet;
use dp_metric::{BatchDistance, Metric, TransposedSites};
use dp_permutation::compute::{collect_sharded_flat_parallel, PACKED_MAX_K, WIDE_MAX_K};
use dp_permutation::counter::collect_counter;
use dp_permutation::{PackedCountSummary, RunKey};

/// Summary of one counting run.
#[derive(Debug, Clone, PartialEq)]
pub struct CountReport {
    /// Number of distinct distance permutations observed.
    pub distinct: usize,
    /// Database size scanned.
    pub total: u64,
    /// Mean database elements per observed permutation ("about 10 database
    /// points per permutation", §5).
    pub mean_occupancy: f64,
}

impl<K: RunKey> From<&PackedCountSummary<K>> for CountReport {
    fn from(c: &PackedCountSummary<K>) -> Self {
        CountReport { distinct: c.distinct(), total: c.total(), mean_occupancy: c.mean_occupancy() }
    }
}

/// Which run key the counting paths select for a given site count.
///
/// The selection is a property of `k` alone, made once per workload, so
/// the monomorphized kernels under it contain no width branches.  All
/// three keys produce bit-identical [`CountReport`]s — the packed keys
/// are faster, never different.  The CLI reports the chosen key's
/// [`name`](CountEngine::name) so a k that leaves the packed range is
/// visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountEngine {
    /// Sorted-run counting over `u64` packed keys (k ≤ 12).
    PackedU64,
    /// Sorted-run counting over `u128` packed keys (13 ≤ k ≤ 25).
    PackedU128,
    /// Sorted-run counting over the permutation values (k ≥ 26).
    Permutation,
}

impl CountEngine {
    /// The engine the flat counting and survey paths run at `k` sites.
    pub fn for_k(k: usize) -> Self {
        if k <= PACKED_MAX_K {
            CountEngine::PackedU64
        } else if k <= WIDE_MAX_K {
            CountEngine::PackedU128
        } else {
            CountEngine::Permutation
        }
    }

    /// Stable lower-case label for logs and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            CountEngine::PackedU64 => "packed-u64",
            CountEngine::PackedU128 => "packed-u128",
            CountEngine::Permutation => "permutation",
        }
    }
}

/// Counts distinct distance permutations of `database` w.r.t. `sites`
/// on `threads` workers ([`collect_counter`]); the report is
/// independent of the split.
///
/// Exactly `sites.len() * database.len()` metric evaluations.
pub fn count_permutations<P: Sync, M>(
    metric: &M,
    sites: &[P],
    database: &[P],
    threads: usize,
) -> CountReport
where
    M: Metric<P> + Sync,
{
    dp_permutation::for_packed_k!(sites.len(), K => CountReport::from(
        &collect_counter::<K, P, M>(metric, sites, database, threads).finalize()
    ))
}

/// Counts distinct distance permutations over flat vector storage — the
/// one flat counting entry point.
///
/// Batched equivalent of [`count_permutations`]: same `distinct`,
/// `total` and `mean_occupancy` (distances are bit-for-bit identical),
/// computed by the 32-row strip tile.  The database rows split across
/// `threads` scoped workers (1 runs inline); the report is independent
/// of the split.
///
/// Each worker streams its keys (packed up to [`WIDE_MAX_K`], the
/// permutations themselves beyond) through a
/// [`dp_permutation::PackedPermutationCounter`] holding at most
/// `shard_rows` keys (0 means [`dp_permutation::DEFAULT_SHARD_ROWS`])
/// plus its sorted counted runs.  The report is bit-identical at every
/// shard size — it changes the working set, never the counts.
///
/// # Panics
/// Panics if the site and database dimensions disagree (when both are
/// non-empty).
pub fn count_permutations_flat_sharded<M: BatchDistance + Sync>(
    metric: &M,
    sites: &VectorSet,
    database: &VectorSet,
    threads: usize,
    shard_rows: usize,
) -> CountReport {
    assert!(
        sites.is_empty() || database.is_empty() || sites.dim() == database.dim(),
        "site dimension {} != database dimension {}",
        sites.dim(),
        database.dim()
    );
    let sites_t = transpose_sites(sites, database);
    let flat = database.as_flat();
    dp_permutation::for_packed_k!(sites.len(), K => CountReport::from(
        &collect_sharded_flat_parallel::<K, M>(metric, &sites_t, flat, threads, shard_rows)
            .finalize()
    ))
}

/// Sites transposed with a definite dimension: an empty site set adopts
/// the database's dimension so the kernels can still split rows.
pub(crate) fn transpose_sites(sites: &VectorSet, database: &VectorSet) -> TransposedSites {
    let dim = if sites.is_empty() { database.dim() } else { sites.dim() };
    TransposedSites::from_rows(sites.as_flat(), dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_datasets::{uniform_unit_cube, uniform_unit_cube_flat};
    use dp_metric::{L2Squared, L2};

    #[test]
    fn report_fields() {
        let sites = vec![vec![0.0], vec![1.0]];
        let db: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 10.0]).collect();
        let r = count_permutations(&L2, &sites, &db, 1);
        assert_eq!(r.distinct, 2);
        assert_eq!(r.total, 10);
        assert!((r.mean_occupancy - 5.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_sequential() {
        let db = uniform_unit_cube(5000, 3, 1);
        let sites = uniform_unit_cube(8, 3, 2);
        let seq = count_permutations(&L2, &sites, &db, 1);
        for threads in [2, 3, 8] {
            let par = count_permutations(&L2, &sites, &db, threads);
            assert_eq!(par.distinct, seq.distinct, "threads={threads}");
            assert_eq!(par.total, seq.total);
        }
    }

    #[test]
    fn l2_and_squared_l2_agree() {
        // Monotone transforms of the metric preserve permutations.
        let db = uniform_unit_cube(2000, 2, 3);
        let sites = uniform_unit_cube(6, 2, 4);
        assert_eq!(
            count_permutations(&L2, &sites, &db, 1).distinct,
            count_permutations(&L2Squared, &sites, &db, 1).distinct
        );
    }

    #[test]
    fn flat_matches_nested_exactly() {
        // Same seed → identical coordinates → the reports must agree in
        // every field, for several (d, k) shapes and all three metrics.
        for (d, k, seed) in [(2usize, 6usize, 10u64), (6, 12, 11), (1, 3, 12)] {
            let db = uniform_unit_cube(3000, d, seed);
            let sites = uniform_unit_cube(k, d, seed ^ 1);
            let db_flat = uniform_unit_cube_flat(3000, d, seed);
            let sites_flat = uniform_unit_cube_flat(k, d, seed ^ 1);
            let nested = count_permutations(&L2Squared, &sites, &db, 1);
            let flat = count_permutations_flat_sharded(&L2Squared, &sites_flat, &db_flat, 1, 0);
            assert_eq!(flat, nested, "d={d} k={k}");
            assert_eq!(
                count_permutations_flat_sharded(&dp_metric::L1, &sites_flat, &db_flat, 1, 0),
                count_permutations(&dp_metric::L1, &sites, &db, 1)
            );
            assert_eq!(
                count_permutations_flat_sharded(&dp_metric::LInf, &sites_flat, &db_flat, 1, 0),
                count_permutations(&dp_metric::LInf, &sites, &db, 1)
            );
        }
    }

    #[test]
    fn empty_site_set_matches_nested_semantics() {
        // k = 0: every point has the empty permutation — one distinct,
        // total = n (NOT n·d; regression for the zero-dim site case).
        let db = uniform_unit_cube(500, 3, 30);
        let db_flat = uniform_unit_cube_flat(500, 3, 30);
        let nested = count_permutations(&L2, &Vec::<Vec<f64>>::new(), &db, 1);
        let flat =
            count_permutations_flat_sharded(&L2, &dp_datasets::VectorSet::new(0), &db_flat, 1, 0);
        assert_eq!(flat, nested);
        assert_eq!(flat.total, 500);
        assert_eq!(flat.distinct, 1);
    }

    #[test]
    fn flat_parallel_deterministic_in_thread_count() {
        let db = uniform_unit_cube_flat(20_000, 3, 21);
        let sites = uniform_unit_cube_flat(8, 3, 22);
        let seq = count_permutations_flat_sharded(&L2Squared, &sites, &db, 1, 0);
        for threads in [2, 3, 5, 8] {
            assert_eq!(
                count_permutations_flat_sharded(&L2Squared, &sites, &db, threads, 0),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn engine_selection_matches_the_dispatch_macro() {
        for k in 0usize..=32 {
            let expected = dp_permutation::for_packed_k!(k, K => match std::mem::size_of::<K>() {
                8 => CountEngine::PackedU64,
                16 => CountEngine::PackedU128,
                _ => CountEngine::Permutation,
            });
            assert_eq!(CountEngine::for_k(k), expected, "k = {k}");
        }
        assert_eq!(CountEngine::for_k(12), CountEngine::PackedU64);
        assert_eq!(CountEngine::for_k(13), CountEngine::PackedU128);
        assert_eq!(CountEngine::for_k(25), CountEngine::PackedU128);
        assert_eq!(CountEngine::for_k(26), CountEngine::Permutation);
        assert_eq!(CountEngine::for_k(13).name(), "packed-u128");
        assert_eq!(CountEngine::for_k(32).name(), "permutation");
    }

    #[test]
    fn flat_matches_nested_across_the_width_seams() {
        // k = 12/13 (u64 → u128) and k = 25/26 (u128 → Permutation
        // keys): every engine must agree with the nested per-point path in every
        // field, including the f64 occupancy bits.
        for k in [12usize, 13, 14, 25, 26] {
            let db = uniform_unit_cube(1500, 4, 40 + k as u64);
            let sites = uniform_unit_cube(k, 4, 41 ^ k as u64);
            let db_flat = uniform_unit_cube_flat(1500, 4, 40 + k as u64);
            let sites_flat = uniform_unit_cube_flat(k, 4, 41 ^ k as u64);
            let nested = count_permutations(&L2Squared, &sites, &db, 1);
            let flat = count_permutations_flat_sharded(&L2Squared, &sites_flat, &db_flat, 1, 0);
            assert_eq!(flat, nested, "k = {k} ({})", CountEngine::for_k(k).name());
            assert_eq!(flat.mean_occupancy.to_bits(), nested.mean_occupancy.to_bits(), "k = {k}");
        }
    }

    #[test]
    fn wide_flat_parallel_deterministic_in_thread_count() {
        let db = uniform_unit_cube_flat(8_000, 3, 42);
        let sites = uniform_unit_cube_flat(16, 3, 43);
        let seq = count_permutations_flat_sharded(&L2Squared, &sites, &db, 1, 0);
        for threads in [2, 3, 5, 8] {
            assert_eq!(
                count_permutations_flat_sharded(&L2Squared, &sites, &db, threads, 0),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn count_bounded_by_theory() {
        let db = uniform_unit_cube(20_000, 2, 5);
        let sites = uniform_unit_cube(6, 2, 6);
        let r = count_permutations(&L2, &sites, &db, 4);
        // N_{2,2}(6) = 101.
        assert!(r.distinct <= 101, "{}", r.distinct);
        assert!(r.distinct >= 50, "{} cells hit of 101", r.distinct);
    }
}
