//! Failure injection and degenerate inputs across the workspace.
//!
//! The paper's definition is total — Π_y exists for every y, every site
//! multiset, every metric — so the library must be too: duplicate sites,
//! all-identical databases, k = 1, ties everywhere.  Invalid *numerics*
//! (NaN) must be rejected loudly, never silently mis-sorted.

use distance_permutations::core::count::{count_permutations, count_permutations_flat_sharded};
use distance_permutations::core::survey::{survey_database, SurveyConfig};
use distance_permutations::datasets::VectorSet;
use distance_permutations::index::laesa::PivotSelection;
use distance_permutations::index::{DistPermIndex, LinearScan, PrefixPermIndex};
use distance_permutations::metric::{F64Dist, Levenshtein, Metric, L2};
use distance_permutations::permutation::{distance_permutation, Permutation};

#[test]
fn duplicate_sites_tie_break_by_index() {
    // Two identical sites: every point is equidistant from both, so the
    // tie-break puts the lower index first — always.
    let sites = vec![vec![0.3, 0.3], vec![0.3, 0.3], vec![0.9, 0.1]];
    let db = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.3, 0.3]];
    for y in &db {
        let p = distance_permutation(&L2, &sites, y);
        let pos0 = p.position_of(0).unwrap();
        let pos1 = p.position_of(1).unwrap();
        assert!(pos0 < pos1, "site 0 must precede its duplicate: {p}");
    }
    // With two of three sites identical, at most 2·1 = 2 orderings of the
    // distinct pair remain (times 1 for the forced tie) = 3 patterns max;
    // actually the duplicates are adjacent, so ≤ 3 distinct permutations.
    let r = count_permutations(&L2, &sites, &db, 1);
    assert!(r.distinct <= 3);
}

#[test]
fn query_point_equal_to_a_site() {
    let sites = vec![vec![0.0], vec![1.0], vec![2.0]];
    let p = distance_permutation(&L2, &sites, &vec![1.0]);
    assert_eq!(p.as_slice(), &[1, 0, 2], "self first, then lower index on the 0/2 tie");
}

#[test]
fn k_equals_one_always_identity() {
    let sites = vec![vec![0.5, 0.5]];
    let db: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, -(i as f64)]).collect();
    let r = count_permutations(&L2, &sites, &db, 1);
    assert_eq!(r.distinct, 1);
    assert_eq!(distance_permutation(&L2, &sites, &db[7]), Permutation::identity(1));
}

#[test]
fn all_identical_database_yields_one_permutation() {
    let db = vec![vec![0.25, 0.75]; 100];
    let sites = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0]];
    let r = count_permutations(&L2, &sites, &db, 1);
    assert_eq!(r.distinct, 1);
    assert!((r.mean_occupancy - 100.0).abs() < 1e-12);
}

#[test]
fn colinear_equidistant_grid_ties_are_deterministic() {
    // An integer grid with sites placed symmetrically: masses of exact
    // ties; the count must be reproducible run to run.
    let db: Vec<Vec<f64>> =
        (0..20).flat_map(|x| (0..20).map(move |y| vec![x as f64, y as f64])).collect();
    let sites = vec![vec![5.0, 5.0], vec![14.0, 5.0], vec![5.0, 14.0], vec![14.0, 14.0]];
    let a = count_permutations(&L2, &sites, &db, 1).distinct;
    let b = count_permutations(&L2, &sites, &db, 1).distinct;
    assert_eq!(a, b);
    assert!(a <= 18, "4 sites in the plane: at most 18 cells, got {a}");
}

#[test]
#[should_panic(expected = "NaN")]
fn nan_distance_is_rejected() {
    let _ = F64Dist::new(f64::NAN);
}

/// Counts an `n` × 2 grid database whose row `nan_row` is NaN through
/// the flat counting entry point.  Every `(threads, shard_rows)` — 0
/// being the default shard size — must reject it with the kernel's own
/// message, whether the NaN row lands on the calling thread or on a
/// worker, and wherever it sits in its 32-row strip.
fn count_with_nan_row(n: usize, nan_row: usize, threads: usize, shard_rows: usize) {
    let db = VectorSet::generate(n, 2, |i, row| {
        row[0] = (i % 64) as f64 / 64.0;
        row[1] = if i == nan_row { f64::NAN } else { (i / 64) as f64 / 64.0 };
    });
    let sites = db.gather(&[0, 100, 2000, 4000]);
    let _ = count_permutations_flat_sharded(&L2, &sites, &db, threads, shard_rows);
}

#[test]
#[should_panic(expected = "distance must not be NaN")]
fn nan_row_is_rejected_inline_in_memory() {
    count_with_nan_row(4096, 3000, 1, 0);
}

#[test]
#[should_panic(expected = "distance must not be NaN")]
fn nan_row_is_rejected_inline_sharded() {
    count_with_nan_row(4096, 3000, 1, 512);
}

#[test]
#[should_panic(expected = "distance must not be NaN")]
fn nan_row_is_rejected_by_a_worker_in_memory() {
    count_with_nan_row(4096, 3000, 2, 0);
}

#[test]
#[should_panic(expected = "distance must not be NaN")]
fn nan_row_is_rejected_by_a_worker_sharded() {
    count_with_nan_row(4096, 3000, 2, 512);
}

#[test]
#[should_panic(expected = "distance must not be NaN")]
fn nan_row_is_rejected_in_the_first_lane_of_a_strip() {
    count_with_nan_row(4096, 64, 1, 0);
}

#[test]
#[should_panic(expected = "distance must not be NaN")]
fn nan_row_is_rejected_in_the_last_lane_of_a_strip() {
    count_with_nan_row(4096, 95, 1, 0);
}

#[test]
#[should_panic(expected = "distance must not be NaN")]
fn nan_row_is_rejected_as_the_last_row_of_a_padded_tail() {
    // 4101 = 128 full strips + a 5-row tail padded to 32 lanes.
    count_with_nan_row(4101, 4100, 1, 0);
}

#[test]
#[should_panic]
fn dimension_mismatch_is_rejected() {
    let _ = L2.distance(&[0.0, 0.0][..], &[1.0][..]);
}

#[test]
fn empty_strings_are_valid_points() {
    let sites = vec![String::new(), "abc".to_string(), "a".to_string()];
    let p = distance_permutation(&Levenshtein, &sites, &String::new());
    assert_eq!(p.get(0), 0, "the empty string is closest to itself");
    let db = vec![String::new(), "ab".to_string(), "abcd".to_string()];
    let r = count_permutations(&Levenshtein, &sites, &db, 1);
    assert!(r.distinct >= 2);
}

#[test]
fn indexes_accept_duplicate_heavy_databases() {
    let mut db = vec![vec![0.5, 0.5]; 40];
    db.extend((0..10).map(|i| vec![i as f64 / 10.0, 0.1]));
    let scan = LinearScan::new(L2, db.clone());
    let idx = DistPermIndex::build(L2, db.clone(), 4, PivotSelection::MaxMin);
    let pre = PrefixPermIndex::build(L2, db, 4, 2, PivotSelection::MaxMin);
    let q = vec![0.49, 0.51];
    assert_eq!(idx.knn_approx(&q, 5, 1.0), scan.knn(&q, 5));
    assert_eq!(pre.knn_approx(&q, 5, 1.0), scan.knn(&q, 5));
}

#[test]
fn zero_length_prefix_index_degenerates_gracefully() {
    let db = vec![vec![0.0], vec![0.4], vec![0.9], vec![1.3]];
    let scan = LinearScan::new(L2, db.clone());
    let pre = PrefixPermIndex::build(L2, db, 2, 0, PivotSelection::Prefix);
    assert_eq!(pre.distinct_prefixes(), 1, "empty prefixes are all equal");
    assert_eq!(pre.storage_bits_raw(), 0);
    // Full-budget search stays exact even with an uninformative index.
    let q = vec![0.5];
    assert_eq!(pre.knn_approx(&q, 2, 1.0), scan.knn(&q, 2));
}

#[test]
fn survey_handles_two_point_database() {
    let db = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
    let cfg = SurveyConfig { ks: vec![1, 2], rho_pairs: 10, ..Default::default() };
    let s = survey_database(&L2, &db, &cfg, 1);
    assert_eq!(s.n, 2);
    assert_eq!(s.per_k[0].report.distinct, 1);
    assert!(s.per_k[1].report.distinct <= 2);
}

#[test]
fn unit_distance_ties_under_levenshtein_stay_within_factorial() {
    // Short strings over a tiny alphabet: distances take few values, so
    // ties dominate; counts must respect k! regardless.
    let db: Vec<String> =
        (0..200).map(|i| format!("{}{}", ["a", "b"][i % 2], ["x", "y", "z"][i % 3])).collect();
    let sites: Vec<String> = db[..5].to_vec();
    let r = count_permutations(&Levenshtein, &sites, &db, 1);
    assert!(r.distinct <= 120);
    assert!(r.distinct >= 1);
}
