//! Flat-engine survey equivalence: `survey_database_flat_sharded` must
//! reproduce `survey_database` **bit for bit** — ρ, every per-k
//! distinct/total/occupancy, every storage-cost column (including the
//! floating-point Huffman and entropy sums), the site ids, and the
//! dimension estimate — for every vector metric, at any thread count,
//! and on both sides of *both* key cutovers: u64 → u128 at
//! `PACKED_MAX_K` = 12 and u128 → `Permutation` keys at `WIDE_MAX_K` =
//! 25.  The flat survey is the engine behind `distperm survey` on
//! vector files, so any divergence here is a user-visible wrong answer.

use distance_permutations::core::{
    count_permutations, count_permutations_flat_sharded, survey_database,
    survey_database_flat_sharded, DatabaseSurvey, SurveyConfig,
};
use distance_permutations::datasets::vectors::{uniform_unit_cube, uniform_unit_cube_flat};
use distance_permutations::metric::{BatchDistance, L2Squared, LInf, Lp, Metric, L1, L2};
use distance_permutations::permutation::compute::{PACKED_MAX_K, WIDE_MAX_K};
use proptest::prelude::*;

/// Asserts every field of the two reports equal, f64s compared by bits.
fn assert_bit_identical(generic: &DatabaseSurvey, flat: &DatabaseSurvey, tag: &str) {
    assert_eq!(generic.n, flat.n, "{tag}: n");
    assert_eq!(generic.rho.to_bits(), flat.rho.to_bits(), "{tag}: rho");
    assert_eq!(
        generic.dimension_estimate.map(f64::to_bits),
        flat.dimension_estimate.map(f64::to_bits),
        "{tag}: dimension estimate"
    );
    assert_eq!(generic.per_k.len(), flat.per_k.len(), "{tag}: row count");
    for (g, f) in generic.per_k.iter().zip(flat.per_k.iter()) {
        let tag = format!("{tag}, k = {}", g.k);
        assert_eq!(g.k, f.k, "{tag}: k");
        assert_eq!(g.site_ids, f.site_ids, "{tag}: site ids");
        assert_eq!(g.report.distinct, f.report.distinct, "{tag}: distinct");
        assert_eq!(g.report.total, f.report.total, "{tag}: total");
        assert_eq!(
            g.report.mean_occupancy.to_bits(),
            f.report.mean_occupancy.to_bits(),
            "{tag}: occupancy"
        );
        assert_eq!(g.naive_bits, f.naive_bits, "{tag}: naive bits");
        assert_eq!(g.raw_bits, f.raw_bits, "{tag}: raw bits");
        assert_eq!(g.codebook_bits, f.codebook_bits, "{tag}: codebook bits");
        assert_eq!(g.huffman_bits.to_bits(), f.huffman_bits.to_bits(), "{tag}: huffman bits");
        assert_eq!(g.entropy_bits.to_bits(), f.entropy_bits.to_bits(), "{tag}: entropy bits");
        assert_eq!(g.min_euclidean_dim, f.min_euclidean_dim, "{tag}: min Euclidean dim");
    }
}

/// Runs one generic-vs-flat comparison for a metric implementing both
/// the per-point and the batched interface.
fn check_metric<M>(metric: &M, n: usize, d: usize, seed: u64, cfg: &SurveyConfig, tag: &str)
where
    M: BatchDistance + Metric<Vec<f64>> + Sync,
{
    let nested = uniform_unit_cube(n, d, seed);
    let flat = uniform_unit_cube_flat(n, d, seed);
    let generic = survey_database(metric, &nested, cfg, 1);
    assert_bit_identical(&generic, &survey_database_flat_sharded(metric, &flat, cfg, 1, 0), tag);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random shapes, every vector metric: the flat survey is
    // bit-identical to the generic one.
    #[test]
    fn flat_survey_matches_generic_for_every_metric(
        n in 60usize..400,
        d in 1usize..6,
        seed in 0u64..1_000_000,
        k1 in 1usize..14,
        k2 in 1usize..14,
        survey_seed in 0u64..1_000_000,
    ) {
        let ks: Vec<usize> = vec![k1.min(n), k2.min(n)];
        let cfg = SurveyConfig { ks, seed: survey_seed, rho_pairs: 400, reference: None };
        check_metric(&L1, n, d, seed, &cfg, "L1");
        check_metric(&L2, n, d, seed, &cfg, "L2");
        check_metric(&L2Squared, n, d, seed, &cfg, "L2^2");
        check_metric(&LInf, n, d, seed, &cfg, "Linf");
        check_metric(&Lp::new(2.5), n, d, seed, &cfg, "L2.5");
    }

    // The parallel flat survey is bit-identical to the sequential flat
    // survey (and hence to the generic one) at 1, 2 and 4 threads.
    #[test]
    fn parallel_flat_survey_is_bit_identical_at_any_thread_count(
        n in 1100usize..2200, // above the sequential-fallback cutoff
        d in 1usize..5,
        seed in 0u64..1_000_000,
        k in 1usize..14,
    ) {
        let cfg = SurveyConfig { ks: vec![k], rho_pairs: 300, ..Default::default() };
        let flat = uniform_unit_cube_flat(n, d, seed);
        let nested = uniform_unit_cube(n, d, seed);
        let generic = survey_database(&L2, &nested, &cfg, 1);
        for threads in [1usize, 2, 4] {
            let par = survey_database_flat_sharded(&L2, &flat, &cfg, threads, 0);
            assert_bit_identical(&generic, &par, &format!("threads = {threads}"));
        }
    }
}

/// One k across a counting cutover: the flat engine (whatever run key
/// serves this k) must agree with the per-point path in
/// every count field, and the full survey (freq tables, Huffman and
/// entropy f64 sums) must be bit-identical sequentially and at 1, 2 and
/// 4 threads.
fn check_cutover_k(k: usize, n: usize, d: usize) {
    let nested = uniform_unit_cube(n, d, 97);
    let flat = uniform_unit_cube_flat(n, d, 97);
    let sites_nested = uniform_unit_cube(k, d, 98);
    let sites_flat = uniform_unit_cube_flat(k, d, 98);
    let hash = count_permutations(&L2, &sites_nested, &nested, 1);
    let fast = count_permutations_flat_sharded(&L2, &sites_flat, &flat, 1, 0);
    assert_eq!(fast.distinct, hash.distinct, "k = {k}: distinct");
    assert_eq!(fast.total, hash.total, "k = {k}: total");
    assert_eq!(fast.mean_occupancy.to_bits(), hash.mean_occupancy.to_bits(), "k = {k}: occupancy");
    let cfg = SurveyConfig { ks: vec![k], rho_pairs: 300, ..Default::default() };
    let generic = survey_database(&L2, &nested, &cfg, 1);
    assert_bit_identical(&generic, &survey_database_flat_sharded(&L2, &flat, &cfg, 1, 0), "survey");
    for threads in [1usize, 2, 4] {
        assert_bit_identical(
            &generic,
            &survey_database_flat_sharded(&L2, &flat, &cfg, threads, 0),
            &format!("survey, k = {k}, {threads} threads"),
        );
    }
}

/// Regression for the k = 12 → 13 key-width boundary: PACKED_MAX_K is
/// the largest k the u64 sort+scan counter handles; k = 13 crosses onto
/// the u128 wide path.  Both sides of the seam must agree with the
/// per-point path in every report field — an off-by-one in
/// the cutover, the 5-bit packing, or the lexicographic reordering
/// would show up exactly here.
#[test]
fn u64_u128_cutover_boundary_agrees_with_hash_path() {
    assert_eq!(PACKED_MAX_K, 12, "boundary test tracks the u64 packing cutoff");
    // n large enough that the parallel variants really split.
    for k in [11usize, 12, 13, 14] {
        check_cutover_k(k, 1600, 5);
    }
}

/// Regression for the k = 25 → 26 boundary: WIDE_MAX_K is the largest k
/// any packed width handles; k = 26 counts `Permutation` keys.
/// Same bit-identity contract on both sides of the seam.
#[test]
fn u128_hash_cutover_boundary_agrees_with_hash_path() {
    assert_eq!(WIDE_MAX_K, 25, "boundary test tracks the u128 packing cutoff");
    for k in [24usize, 25, 26] {
        check_cutover_k(k, 1600, 5);
    }
}

/// Duplicate-heavy regression for the radix sorted-run pipeline: on a
/// 1-D database with few sites almost every permutation repeats, so the
/// packed key buffer is long runs of equal keys — exactly where a radix
/// pass-skip bug, a run-length scan bug, or a sorted-chunk merge bug in
/// the parallel collector would corrupt counts while uniform data stays
/// green.  k = 2 additionally leaves every high radix digit constant.
#[test]
fn duplicate_heavy_low_dimensional_data_agrees_across_engines() {
    let n = 3000; // above the parallel fallback cutoff
    for k in [2usize, 3, 6] {
        let nested = uniform_unit_cube(n, 1, 1234);
        let flat = uniform_unit_cube_flat(n, 1, 1234);
        let cfg = SurveyConfig { ks: vec![k], rho_pairs: 400, ..Default::default() };
        let generic = survey_database(&L2, &nested, &cfg, 1);
        // 1-D, k sites: at most C(k,2)+1 distinct permutations — heavy
        // duplication by construction.
        assert!(generic.per_k[0].report.distinct <= k * (k - 1) / 2 + 1);
        assert_bit_identical(
            &generic,
            &survey_database_flat_sharded(&L2, &flat, &cfg, 1, 0),
            "sequential",
        );
        for threads in [2usize, 3, 4] {
            assert_bit_identical(
                &generic,
                &survey_database_flat_sharded(&L2, &flat, &cfg, threads, 0),
                &format!("k = {k}, threads = {threads}"),
            );
        }
    }
}

/// String databases keep working through the generic engine only — the
/// survey façade did not change its behaviour for non-vector data.
#[test]
fn generic_survey_still_serves_string_data() {
    use distance_permutations::metric::Levenshtein;
    let words: Vec<String> = (0..200).map(|i| format!("word{:04}", i * 37 % 977)).collect();
    let cfg = SurveyConfig { ks: vec![4], rho_pairs: 500, ..Default::default() };
    let s = survey_database(&Levenshtein, &words, &cfg, 1);
    assert_eq!(s.n, 200);
    assert!(s.per_k[0].report.distinct >= 1);
}
