//! Cross-crate storage pipeline: compute a permutation column on real
//! generator output, store it in every layout, and verify the paper's
//! size hierarchy end to end.

use distance_permutations::core::survey::{survey_database, SurveyConfig};
use distance_permutations::datasets::dictionary::{generate_words, language_profiles};
use distance_permutations::datasets::uniform_unit_cube;
use distance_permutations::metric::{Levenshtein, L2};
use distance_permutations::permutation::huffman::entropy_bits;
use distance_permutations::permutation::{
    distance_permutation, HuffmanPermStore, PackedPermStore, Permutation, RawPermStore,
};
use distance_permutations::theory::euclidean::storage_bits;

fn column(db: &[Vec<f64>], k: usize) -> Vec<Permutation> {
    let sites: Vec<Vec<f64>> = db[..k].to_vec();
    db.iter().map(|y| distance_permutation(&L2, &sites, y)).collect()
}

#[test]
fn all_layouts_roundtrip_identically() {
    let db = uniform_unit_cube(8_000, 3, 1);
    let perms = column(&db, 9);
    let raw = RawPermStore::from_permutations(9, &perms);
    let packed = PackedPermStore::from_permutations(&perms);
    let huff = HuffmanPermStore::from_permutations(&perms);
    assert!(raw.iter().eq(perms.iter().copied()));
    assert!(packed.iter().eq(perms.iter().copied()));
    assert!(huff.iter().eq(perms.iter().copied()));
}

#[test]
fn size_hierarchy_matches_the_paper() {
    // entropy ≤ huffman < codebook-bits + 1 ≤ raw bits; and the codebook
    // width is bounded by the Theorem 7 storage bound ⌈log₂ N_{d,2}(k)⌉.
    let db = uniform_unit_cube(30_000, 2, 2);
    let perms = column(&db, 8);
    let raw = RawPermStore::from_permutations(8, &perms);
    let packed = PackedPermStore::from_permutations(&perms);
    let huff = HuffmanPermStore::from_permutations(&perms);

    let mut sorted = perms;
    sorted.sort_unstable();
    let freqs: Vec<u64> = sorted.chunk_by(|a, b| a == b).map(|run| run.len() as u64).collect();
    let h = entropy_bits(&freqs);

    assert!(h <= huff.mean_bits() + 1e-9);
    assert!(huff.mean_bits() < h + 1.0);
    assert!(huff.mean_bits() <= f64::from(packed.bits_per_element()) + 1.0);
    assert!(packed.bits_per_element() <= raw.bits_per_element());
    // Theorem 7: id width never exceeds ⌈log₂ N_{2,2}(8)⌉ = ⌈log₂ 351⌉ = 9.
    assert!(packed.bits_per_element() <= storage_bits(2, 8).unwrap());
}

#[test]
fn survey_agrees_with_hand_built_stores() {
    let db = uniform_unit_cube(5_000, 2, 3);
    let cfg = SurveyConfig { ks: vec![6], seed: 0x5EED, rho_pairs: 2_000, reference: None };
    let s = survey_database(&L2, &db, &cfg, 1);
    let k6 = &s.per_k[0];

    // Rebuild the same column from the survey's own site choice.
    let sites: Vec<Vec<f64>> = k6.site_ids.iter().map(|&i| db[i].clone()).collect();
    let perms: Vec<Permutation> = db.iter().map(|y| distance_permutation(&L2, &sites, y)).collect();
    let packed = PackedPermStore::from_permutations(&perms);
    let huff = HuffmanPermStore::from_permutations(&perms);

    assert_eq!(packed.distinct(), k6.report.distinct);
    assert_eq!(packed.bits_per_element(), k6.codebook_bits);
    assert!((huff.mean_bits() - k6.huffman_bits).abs() < 1e-9);
}

#[test]
fn string_column_through_the_same_pipeline() {
    let profiles = language_profiles();
    let german = profiles.iter().find(|p| p.name == "german").unwrap();
    let words = generate_words(german, 4_000, 7);
    let sites: Vec<String> = words[..7].to_vec();
    let perms: Vec<Permutation> =
        words.iter().map(|w| distance_permutation(&Levenshtein, &sites, w)).collect();
    let packed = PackedPermStore::from_permutations(&perms);
    let huff = HuffmanPermStore::from_permutations(&perms);
    assert!(packed.iter().eq(perms.iter().copied()));
    assert!(huff.iter().eq(perms.iter().copied()));
    // Discrete metrics tie often; the distinct count must stay below the
    // unrestricted 7! and the stores agree on it.
    assert!(packed.distinct() < 5_040);
    assert_eq!(packed.distinct(), huff.distinct());
}
