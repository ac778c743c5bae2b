//! Cross-crate invariant: **no empirical count ever exceeds the
//! applicable theoretical maximum** — the tightest end-to-end check of
//! the whole reproduction (datasets × metrics × counting × theory).

use distance_permutations::core::count::count_permutations;
use distance_permutations::core::spaces::{theoretical_max, SpaceKind};
use distance_permutations::datasets::dictionary::{generate_words, language_profiles};
use distance_permutations::datasets::documents::{generate_documents, short_profile};
use distance_permutations::datasets::uniform_unit_cube;
use distance_permutations::metric::{CosineDistance, LInf, Levenshtein, Tree, L1, L2};
use distance_permutations::permutation::counter::count_distinct;
use distance_permutations::theory::tree_bound;

#[test]
fn euclidean_counts_respect_theorem7_in_every_dimension() {
    for d in 1..=4usize {
        for k in [3usize, 5, 7] {
            let db = uniform_unit_cube(8_000, d, (d * 10 + k) as u64);
            let sites: Vec<Vec<f64>> = db[..k].to_vec();
            let observed = count_permutations(&L2, &sites, &db, 1).distinct;
            let max = theoretical_max(SpaceKind::Euclidean { d: d as u32 }, k as u32).unwrap();
            assert!(observed as u128 <= max, "d={d} k={k}: {observed} > {max}");
        }
    }
}

#[test]
fn l1_and_linf_counts_respect_theorem9_and_factorial() {
    for d in 1..=3usize {
        for k in [4usize, 6] {
            let db = uniform_unit_cube(8_000, d, (d + 31 * k) as u64);
            let sites: Vec<Vec<f64>> = db[..k].to_vec();
            let o1 = count_permutations(&L1, &sites, &db, 1).distinct as u128;
            let oi = count_permutations(&LInf, &sites, &db, 1).distinct as u128;
            assert!(o1 <= theoretical_max(SpaceKind::L1 { d: d as u32 }, k as u32).unwrap());
            assert!(oi <= theoretical_max(SpaceKind::LInf { d: d as u32 }, k as u32).unwrap());
            let fact: u128 = (1..=k as u128).product();
            assert!(o1 <= fact && oi <= fact);
        }
    }
}

#[test]
fn one_dimensional_counts_respect_binomial_bound_for_all_metrics() {
    let db = uniform_unit_cube(20_000, 1, 5);
    for k in [4usize, 8, 12] {
        let sites: Vec<Vec<f64>> = db[..k].to_vec();
        let bound = theoretical_max(SpaceKind::Tree, k as u32).unwrap();
        for observed in [
            count_permutations(&L1, &sites, &db, 1).distinct,
            count_permutations(&L2, &sites, &db, 1).distinct,
            count_permutations(&LInf, &sites, &db, 1).distinct,
        ] {
            assert!(observed as u128 <= bound, "k={k}: {observed} > {bound}");
        }
    }
}

#[test]
fn random_trees_respect_theorem4() {
    for seed in 0..6u64 {
        let tree = Tree::random(2_000, 5, seed);
        let k = 4 + (seed as usize % 5);
        let sites: Vec<usize> =
            (0..k).map(|i| (i * 397 + seed as usize * 31) % tree.len()).collect();
        let db: Vec<usize> = tree.vertices().collect();
        let observed = count_distinct(&tree.metric(), &sites, &db);
        assert!(
            observed as u128 <= tree_bound(k as u32),
            "seed {seed}: {observed} > {}",
            tree_bound(k as u32)
        );
    }
}

#[test]
fn string_and_document_counts_respect_factorial() {
    let words = generate_words(&language_profiles()[2], 3_000, 9);
    let sites: Vec<String> = words[..6].to_vec();
    let observed = count_permutations(&Levenshtein, &sites, &words, 1).distinct;
    assert!(observed as u128 <= theoretical_max(SpaceKind::General, 6).unwrap());

    let docs = generate_documents(short_profile(), 2_000, 10);
    let dsites = docs[..5].to_vec();
    let od = count_permutations(&CosineDistance, &dsites, &docs, 1).distinct;
    assert!(od as u128 <= theoretical_max(SpaceKind::General, 5).unwrap());
}

#[test]
fn counts_shrink_when_sites_grow_only_polynomially() {
    // The paper's storage point: at d=2, k=12, the count is capped at 1992
    // — a tiny fraction of 12! = 479001600.
    let db = uniform_unit_cube(30_000, 2, 77);
    let sites: Vec<Vec<f64>> = db[..12].to_vec();
    let observed = count_permutations(&L2, &sites, &db, 1).distinct;
    assert!(observed <= 1992, "{observed}");
    assert!(observed > 200, "implausibly few cells hit: {observed}");
}
