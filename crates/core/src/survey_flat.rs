//! The §5 survey on the flat batched engine — same report, several
//! times the throughput.
//!
//! [`survey_database_flat_sharded`]`(metric, database, config, threads,
//! shard_rows)` is the one flat survey entry point: the
//! [`crate::survey::survey_database`] protocol specialised to
//! [`VectorSet`] storage.  ρ sampling runs over row views with the
//! identical pair stream, and every per-k counting pass runs through the
//! site-transposed, 4-wide strip-mined [`BatchDistance`] kernels with
//! the branchless k²/2 ranking into the one sorted-run counter (`u64`
//! packed keys for k ≤ 12, `u128` packed keys for k ≤ 25, the
//! permutations themselves beyond).  Distances, counts, frequency
//! tables and therefore **every field of the returned [`DatabaseSurvey`] are bit-for-bit
//! identical** to the generic per-point path; the workspace property
//! suite (`tests/survey_equivalence.rs`) enforces that, and the `survey`
//! bench records the speedup (`BENCH_survey.json`).
//!
//! `threads` splits each counting scan across scoped workers (1 runs
//! inline); merged counts are independent of the split, so the report
//! is identical at any thread count.  `shard_rows` caps the keys each
//! worker buffers (0 means the default 131,072), again with an identical
//! report.

use crate::survey::{build_ksurvey, dimension_estimate, DatabaseSurvey, KSurvey, SurveyConfig};
use dp_datasets::VectorSet;
use dp_metric::BatchDistance;
use dp_permutation::compute::collect_sharded_flat_parallel;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// [`crate::survey::survey_database`] over flat vector storage: ρ plus
/// per-k permutation counts and storage costs through the batched
/// engine.  Bit-identical to the generic path on equal coordinates.
///
/// Each per-k counting scan is split across `threads` scoped workers;
/// the survey is independent of the thread count.  Every per-k scan
/// streams through [`dp_permutation::PackedPermutationCounter`]s
/// holding at most `shard_rows` keys each (0 means
/// [`dp_permutation::DEFAULT_SHARD_ROWS`]) plus their sorted counted
/// runs, never all n keys.  The survey is **bit-identical** at every
/// shard size — counts, codebook sizes and the floating-point
/// Huffman/entropy sums all derive from the same distinct-key/occupancy
/// table (`tests/sharded_equivalence.rs` pins every field against the
/// generic path).
///
/// # Panics
/// Panics if the database has fewer than two points or any `k` exceeds
/// the database size or [`dp_permutation::MAX_K`].
pub fn survey_database_flat_sharded<M: BatchDistance + Sync>(
    metric: &M,
    database: &VectorSet,
    config: &SurveyConfig,
    threads: usize,
    shard_rows: usize,
) -> DatabaseSurvey {
    assert!(database.len() >= 2, "survey needs at least two points");
    let rho = dp_datasets::intrinsic_dimensionality_flat(
        metric,
        database,
        config.rho_pairs,
        config.seed ^ 0x9E37_79B9,
    );
    let mut per_k = Vec::with_capacity(config.ks.len());
    for (i, &k) in config.ks.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(i as u64));
        let site_ids = dp_datasets::vectors::choose_distinct_indices(database.len(), k, &mut rng);
        let sites = database.gather(&site_ids);
        per_k.push(survey_one_k(metric, database, &sites, site_ids, threads, shard_rows));
    }
    let dimension_estimate = dimension_estimate(&per_k, config);
    DatabaseSurvey { n: database.len(), rho, per_k, dimension_estimate }
}

/// One per-k measurement through the flat engine: the sorted-run
/// counter at the run key [`dp_permutation::for_packed_k!`] picks for k,
/// and the frequency table from
/// [`dp_permutation::PackedCountSummary::lexicographic_counts`], which
/// matches the generic path's codebook order exactly without decoding a
/// single permutation.  Monomorphized per key so the per-row loops carry
/// no width branch.
fn survey_one_k<M: BatchDistance + Sync>(
    metric: &M,
    database: &VectorSet,
    sites: &VectorSet,
    site_ids: Vec<usize>,
    threads: usize,
    shard_rows: usize,
) -> KSurvey {
    crate::count::check_flat_dims(sites, database);
    let sites_t = crate::count::transpose_sites(sites, database);
    let (k, flat) = (sites.len(), database.as_flat());
    dp_permutation::for_packed_k!(k, K => build_ksurvey(
        k,
        site_ids,
        &collect_sharded_flat_parallel::<K, M>(metric, &sites_t, flat, threads, shard_rows)
            .finalize(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::survey::survey_database;
    use dp_datasets::vectors::{uniform_unit_cube, uniform_unit_cube_flat};
    use dp_metric::L2;

    /// Field-by-field bit comparison (f64s by `to_bits`).
    fn assert_surveys_identical(a: &DatabaseSurvey, b: &DatabaseSurvey) {
        assert_eq!(a.n, b.n);
        assert_eq!(a.rho.to_bits(), b.rho.to_bits(), "rho differs");
        assert_eq!(a.dimension_estimate.map(f64::to_bits), b.dimension_estimate.map(f64::to_bits));
        assert_eq!(a.per_k.len(), b.per_k.len());
        for (x, y) in a.per_k.iter().zip(b.per_k.iter()) {
            assert_eq!(x.k, y.k);
            assert_eq!(x.site_ids, y.site_ids, "k = {}", x.k);
            assert_eq!(x.report.distinct, y.report.distinct, "k = {}", x.k);
            assert_eq!(x.report.total, y.report.total);
            assert_eq!(x.report.mean_occupancy.to_bits(), y.report.mean_occupancy.to_bits());
            assert_eq!(x.naive_bits, y.naive_bits);
            assert_eq!(x.raw_bits, y.raw_bits);
            assert_eq!(x.codebook_bits, y.codebook_bits);
            assert_eq!(x.huffman_bits.to_bits(), y.huffman_bits.to_bits(), "k = {}", x.k);
            assert_eq!(x.entropy_bits.to_bits(), y.entropy_bits.to_bits(), "k = {}", x.k);
            assert_eq!(x.min_euclidean_dim, y.min_euclidean_dim);
        }
    }

    #[test]
    fn flat_survey_matches_generic_bit_for_bit() {
        let nested = uniform_unit_cube(2500, 3, 23);
        let flat = uniform_unit_cube_flat(2500, 3, 23);
        let cfg = SurveyConfig { ks: vec![4, 7, 12], rho_pairs: 4000, ..Default::default() };
        let generic = survey_database(&L2, &nested, &cfg);
        let fast = survey_database_flat_sharded(&L2, &flat, &cfg, 1, 0);
        assert_surveys_identical(&generic, &fast);
    }

    #[test]
    fn parallel_flat_survey_is_thread_count_invariant() {
        let flat = uniform_unit_cube_flat(3000, 2, 29);
        let cfg = SurveyConfig { ks: vec![5], rho_pairs: 2000, ..Default::default() };
        let seq = survey_database_flat_sharded(&L2, &flat, &cfg, 1, 0);
        for threads in [2, 3, 8] {
            let par = survey_database_flat_sharded(&L2, &flat, &cfg, threads, 0);
            assert_surveys_identical(&seq, &par);
        }
    }

    #[test]
    fn flat_survey_crosses_the_packed_boundaries() {
        // k = 13 crosses the u64/u128 seam onto the wide packed keys;
        // k = 26 exceeds WIDE_MAX_K and counts Permutation keys.
        // Every key must produce the same report as the generic path,
        // bit-for-bit including the Huffman and entropy f64 sums.
        let nested = uniform_unit_cube(1500, 4, 31);
        let flat = uniform_unit_cube_flat(1500, 4, 31);
        let cfg = SurveyConfig { ks: vec![12, 13, 25, 26], rho_pairs: 1500, ..Default::default() };
        assert_surveys_identical(
            &survey_database(&L2, &nested, &cfg),
            &survey_database_flat_sharded(&L2, &flat, &cfg, 1, 0),
        );
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn tiny_flat_database_rejected() {
        let db = uniform_unit_cube_flat(1, 2, 1);
        survey_database_flat_sharded(&L2, &db, &SurveyConfig::default(), 1, 0);
    }
}
