//! Streaming/fused-engine equivalence: the fused rank+pack tile and the
//! sharded packed counter are *optimisations*, not approximations.
//!
//! Two contracts are pinned here, both bit-for-bit:
//!
//! * **fused == phase-separated** — the fused tile (distance lanes go
//!   register → packed key with no intermediate rank rows) must produce
//!   exactly the keys obtained by computing every permutation first and
//!   packing it afterwards, for every `n mod 4` tail shape and on both
//!   sides of both key-width cutovers;
//! * **sharded == generic** — counting through bounded shards merged as
//!   sorted runs must reproduce the generic per-point counting path
//!   in every survey field, including the floating-point Huffman and
//!   entropy sums, for the default shard size (0), degenerate shard
//!   sizes (1, n-1, n, n+1) and any thread count.
//!
//! The sharded path is what `distperm count/survey` runs, so any
//! divergence here is a user-visible wrong answer.

use distance_permutations::core::{
    count_permutations, count_permutations_flat_sharded, survey_database,
    survey_database_flat_sharded, DatabaseSurvey, SurveyConfig,
};
use distance_permutations::datasets::vectors::uniform_unit_cube_flat;
use distance_permutations::datasets::VectorSet;
use distance_permutations::metric::{TransposedSites, L2};
use distance_permutations::permutation::compute::{packed_keys_flat, PACKED_MAX_K, WIDE_MAX_K};
use distance_permutations::permutation::{
    pack_perm, FlatKey, PackedPermutationCounter, Permutation,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Asserts every field of the two reports equal, f64s compared by bits.
fn assert_bit_identical(reference: &DatabaseSurvey, streamed: &DatabaseSurvey, tag: &str) {
    assert_eq!(reference.n, streamed.n, "{tag}: n");
    assert_eq!(reference.rho.to_bits(), streamed.rho.to_bits(), "{tag}: rho");
    assert_eq!(
        reference.dimension_estimate.map(f64::to_bits),
        streamed.dimension_estimate.map(f64::to_bits),
        "{tag}: dimension estimate"
    );
    assert_eq!(reference.per_k.len(), streamed.per_k.len(), "{tag}: row count");
    for (g, f) in reference.per_k.iter().zip(streamed.per_k.iter()) {
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

/// The rows of a flat set as owned points, for the generic path.
fn nested(set: &VectorSet) -> Vec<Vec<f64>> {
    set.rows().map(<[f64]>::to_vec).collect()
}

/// Fused rank+pack against the phase-separated reference at one (n, k):
/// compute every permutation through the rank-row path, pack it with
/// [`pack_perm`], and demand the fused key stream is identical.
fn check_fused_keys<K>(n: usize, k: usize, d: usize, seed: u64)
where
    K: distance_permutations::permutation::PackedKey,
{
    let db = uniform_unit_cube_flat(n, d, seed);
    let sites = uniform_unit_cube_flat(k, d, seed ^ 0xABCD);
    let sites_t = TransposedSites::from_rows(sites.as_flat(), d);
    let fused: Vec<K> = packed_keys_flat(&L2, &sites_t, db.as_flat());
    let mut perms = Vec::new();
    Permutation::scan_flat(&L2, &sites_t, db.as_flat(), |p| perms.push(p));
    assert_eq!(fused.len(), perms.len(), "n = {n}, k = {k}: key count");
    for (row, (key, perm)) in fused.iter().zip(perms.iter()).enumerate() {
        let reference: K = pack_perm(perm);
        assert_eq!(*key, reference, "n = {n}, k = {k}, row {row}: fused key != packed permutation");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The fused tile agrees with permute-then-pack for every tail shape
    // (n mod 4 exercised explicitly) at both key widths.
    #[test]
    fn fused_packing_matches_phase_separated_reference(
        base in 16usize..80,
        tail in 0usize..4,
        d in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let n = 4 * base + tail;
        for k in [11usize, 12] {
            check_fused_keys::<u64>(n, k, d, seed);
        }
        for k in [13usize, 24, 25] {
            check_fused_keys::<u128>(n, k, d, seed);
        }
    }

    // Sharded counting reproduces the generic count report for the
    // default and degenerate shard sizes and any thread count.
    #[test]
    fn sharded_count_matches_in_memory(
        n in 200usize..600,
        d in 1usize..5,
        seed in 0u64..1_000_000,
        k in 2usize..14,
    ) {
        let db = uniform_unit_cube_flat(n, d, seed);
        let sites = uniform_unit_cube_flat(k, d, seed ^ 0x5A5A);
        let reference = count_permutations(&L2, &nested(&sites), &nested(&db), 1);
        for shard_rows in [0usize, 1, n - 1, n, n + 1] {
            for threads in [1usize, 2, 4] {
                let sharded =
                    count_permutations_flat_sharded(&L2, &sites, &db, threads, shard_rows);
                let tag = format!("shard_rows = {shard_rows}, threads = {threads}");
                assert_eq!(reference.distinct, sharded.distinct, "{tag}: distinct");
                assert_eq!(reference.total, sharded.total, "{tag}: total");
                assert_eq!(
                    reference.mean_occupancy.to_bits(),
                    sharded.mean_occupancy.to_bits(),
                    "{tag}: occupancy"
                );
            }
        }
    }
}

/// One survey comparison across a counting cutover k: the sharded
/// survey must be bit-identical to the generic survey — frequency
/// tables, storage columns and the float Huffman/entropy sums included.
fn check_sharded_survey_k(k: usize, n: usize, d: usize) {
    let flat = uniform_unit_cube_flat(n, d, 131);
    let cfg = SurveyConfig { ks: vec![k], rho_pairs: 300, ..Default::default() };
    let reference = survey_database(&L2, &nested(&flat), &cfg, 1);
    for shard_rows in [0usize, 1, n - 1, n, n + 1] {
        for threads in [1usize, 2, 4] {
            let sharded = survey_database_flat_sharded(&L2, &flat, &cfg, threads, shard_rows);
            assert_bit_identical(
                &reference,
                &sharded,
                &format!("k = {k}, shard_rows = {shard_rows}, threads = {threads}"),
            );
        }
    }
}

/// Sharded surveys across the u64 → u128 key-width seam.  An off-by-one
/// in the shard flush, the run-length merge, or the width dispatch would
/// surface exactly at k = 12/13.
#[test]
fn sharded_survey_bit_identical_across_u64_u128_cutover() {
    assert_eq!(PACKED_MAX_K, 12, "boundary test tracks the u64 packing cutoff");
    for k in [11usize, 12, 13, 14] {
        check_sharded_survey_k(k, 1600, 4);
    }
}

/// Sharded surveys across the u128 → `Permutation` key seam.  k = 26
/// has no packed key; its `Permutation` keys go through the same shards
/// and must give identical output.
#[test]
fn sharded_survey_bit_identical_across_u128_hash_cutover() {
    assert_eq!(WIDE_MAX_K, 25, "boundary test tracks the u128 packing cutoff");
    for k in [24usize, 25, 26] {
        check_sharded_survey_k(k, 1600, 4);
    }
}

/// The headline streaming claim at scale: a million-point k = 16 count
/// through 65536-row shards matches a sort-and-scan of all the keys
/// while the counter never holds more than one shard of keys, one run of
/// the distinct keys seen so far, and the run being merged into it.
#[test]
fn million_point_sharded_count_is_bounded_and_identical() {
    const N: usize = 1_000_000;
    const K: usize = 16;
    const SHARD_ROWS: usize = 65_536;
    let db = uniform_unit_cube_flat(N, 2, 77);
    let sites = uniform_unit_cube_flat(K, 2, 78);
    let sites_t = TransposedSites::from_rows(sites.as_flat(), 2);

    // The oracle: every key sorted at once, distinct runs counted.
    let keys: Vec<u128> = packed_keys_flat(&L2, &sites_t, db.as_flat());
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let distinct = 1 + sorted.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(distinct < N / 10, "duplication expected at d = 2: {distinct}");

    // Drive the counter directly so the memory contract is observable
    // after every flush.  In this regime each shard's run holds at least
    // half the distinct keys seen before it, so it merges straight into
    // the bottom run: between flushes the stack is one run holding
    // exactly the distinct keys seen so far, and the high-water mark,
    // taken after a push and before its merges, is that run plus the
    // fresh one.
    let mut counter = PackedPermutationCounter::<u128>::with_shard_rows(K, SHARD_ROWS);
    let mut seen = HashSet::new();
    let mut expected_peak = 0usize;
    for shard in keys.chunks(SHARD_ROWS) {
        let fresh = shard.iter().collect::<HashSet<_>>().len();
        assert!(2 * fresh >= seen.len(), "run of {fresh} would not merge into {}", seen.len());
        expected_peak = expected_peak.max(seen.len() + fresh);
        for &key in shard {
            counter.insert_key(key);
            seen.insert(key);
        }
        counter.flush();
        assert_eq!(counter.peak_run_entries(), expected_peak, "{} seen", seen.len());
    }
    let summary = counter.finalize();
    assert_eq!(summary.total(), N as u64);
    assert_eq!(summary.distinct(), distinct);

    // And the end-to-end report agrees at the default and explicit
    // shard sizes.
    for shard_rows in [0, SHARD_ROWS] {
        let report = count_permutations_flat_sharded(&L2, &sites, &db, 1, shard_rows);
        assert_eq!(report.distinct, distinct, "shard_rows = {shard_rows}");
        assert_eq!(report.total, N as u64);
        assert_eq!(report.mean_occupancy.to_bits(), (N as f64 / distinct as f64).to_bits());
    }
}
