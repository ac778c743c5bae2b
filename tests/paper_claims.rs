//! Direct checks of the paper's headline claims, end to end.

use distance_permutations::core::counterexample::verify_eq12;
use distance_permutations::core::dimension::min_euclidean_dimension;
use distance_permutations::core::spaces::{theoretical_max, SpaceKind};
use distance_permutations::geometry::arrangement::euclidean_cells;
use distance_permutations::theory::storage::storage_row;
use distance_permutations::theory::{n_euclidean, table1, tree_bound};

#[test]
fn table1_matches_paper_anchors() {
    let t = table1();
    // One anchor from each corner and the middle of the printed table.
    assert_eq!(t.get(1, 2), 2);
    assert_eq!(t.get(1, 12), 67);
    assert_eq!(t.get(2, 4), 18);
    assert_eq!(t.get(3, 8), 2311);
    assert_eq!(t.get(5, 12), 3_029_643);
    assert_eq!(t.get(10, 2), 2);
    assert_eq!(t.get(10, 12), 439_084_800);
}

#[test]
fn recurrence_reduces_to_binomial_in_1d_and_factorial_in_high_d() {
    for k in 2..=12u32 {
        assert_eq!(n_euclidean(1, k).unwrap(), tree_bound(k));
        let fact: u128 = (1..=u128::from(k)).product();
        assert_eq!(n_euclidean(k, k).unwrap(), fact);
    }
}

#[test]
fn figure3_and_figure4_cell_counts() {
    // §2: four sites in general position yield 18 cells in the Euclidean
    // plane — "not even one for each permutation" (24).
    let sites = [(9867i64, 5630i64), (3364, 5875), (4702, 8210), (8423, 3812)];
    assert_eq!(euclidean_cells(&sites), 18);
}

#[test]
fn eq12_counterexample_beats_euclidean_maximum() {
    // §5: the L1 counterexample.  96 is the Euclidean cap; the paper
    // observed 108.  150k samples suffice to cross 96.
    let report = verify_eq12(150_000, 4242, 4);
    assert_eq!(report.euclidean_max, 96);
    assert!(report.exceeds_euclidean(), "observed only {}", report.observed);
    // And the inverse-dimension reading: 108 permutations would need 4
    // Euclidean dimensions.
    assert_eq!(min_euclidean_dimension(108, 5), 4);
}

#[test]
fn storage_improvement_chain_holds() {
    // §1: O(nk log n) (LAESA) > O(nk log k) (permutations) > Θ(nd log k)
    // (codebook) for representative configurations.
    for (d, k, n) in [(2u32, 12u32, 1u64 << 20), (3, 16, 1 << 20), (4, 24, 1 << 24)] {
        let r = storage_row(d, k, n);
        assert!(r.laesa_bits > u64::from(r.packed_bits));
        assert!(u64::from(r.packed_bits) >= u64::from(r.codebook_bits));
        assert!(u64::from(r.full_perm_bits) > u64::from(r.codebook_bits), "d={d} k={k}");
    }
}

#[test]
fn adding_sites_beyond_2d_adds_little_information() {
    // §4: "once we have about twice as many sites as dimensions, there is
    // little value in adding more sites" — the count's growth rate in k
    // is polynomial (k^{2d}) while k! explodes.
    let d = 2u32;
    let n8 = n_euclidean(d, 8).unwrap() as f64;
    let n12 = n_euclidean(d, 12).unwrap() as f64;
    let fact8: u128 = (1..=8u128).product();
    let fact12: u128 = (1..=12u128).product();
    let perm_growth = n12 / n8;
    let fact_growth = fact12 as f64 / fact8 as f64;
    assert!(perm_growth < 6.0, "{perm_growth}");
    assert!(fact_growth > 11_000.0);
}

#[test]
fn general_spaces_allow_all_factorial_permutations() {
    // Theorem 6 consequence via the dispatch API.
    for k in 2..=9u32 {
        let fact: u128 = (1..=u128::from(k)).product();
        assert_eq!(theoretical_max(SpaceKind::General, k), Some(fact));
        assert_eq!(theoretical_max(SpaceKind::Euclidean { d: k - 1 }, k), Some(fact));
    }
}

#[test]
fn figure3_vs_figure4_same_count_different_permutations() {
    // §2: "the system of bisectors in Fig 4, with the L1 metric, also
    // produces 18 cells corresponding to 18 distance permutations, but
    // they are not the same 18 distance permutations."  Made exact on
    // the L2 side by the rational enumerator; the L1 side is a dense
    // grid census of the same configuration.
    use distance_permutations::geometry::faces::exact_permutations;
    use distance_permutations::geometry::sampling::{grid_count, BBox};
    use distance_permutations::metric::L1;

    let sites_i: Vec<(i64, i64)> = vec![(9867, 5630), (3364, 5875), (4702, 8210), (8423, 3812)];
    let sites_f: Vec<Vec<f64>> =
        sites_i.iter().map(|&(x, y)| vec![x as f64 / 10_000.0, y as f64 / 10_000.0]).collect();
    let l2_exact = exact_permutations(&sites_i);
    assert_eq!(l2_exact.len(), 18);
    let bbox = BBox { x_min: -2.0, x_max: 3.0, y_min: -2.0, y_max: 3.0 };
    let l1_set = grid_count(&L1, &sites_f, bbox, 800, 800).permutations();
    assert_eq!(l1_set.len(), 18);
    assert_ne!(l1_set, l2_exact, "the paper: not the same 18 permutations");
    let shared = l1_set.iter().filter(|p| l2_exact.binary_search(p).is_ok()).count();
    assert!(shared < 18 && shared > 0, "partial overlap expected, got {shared}");
}
