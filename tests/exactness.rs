//! Cross-crate exactness checks: the exact geometry (dp-geometry), the
//! exact recurrences (dp-theory) and the empirical counters
//! (dp-permutation / dp-core) must all tell the same story.

use distance_permutations::core::experiments::{uniform_experiment, MetricKind};
use distance_permutations::geometry::arrangement::euclidean_cells;
use distance_permutations::geometry::oned::exact_count_1d;
use distance_permutations::geometry::sampling::{grid_count, BBox};
use distance_permutations::metric::L2;
use distance_permutations::permutation::counter::count_distinct;
use distance_permutations::theory::{n_euclidean, theorem6_witnesses, tree_bound};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[test]
fn random_generic_sites_hit_table1_row2_exactly() {
    // Exact rational arrangement count == Theorem 7 recurrence for sites
    // in general position; random large-coordinate integer sites are
    // generic with overwhelming probability.
    let mut rng = StdRng::seed_from_u64(271828);
    for trial in 0..5 {
        let mut sites: Vec<(i64, i64)> = Vec::new();
        while sites.len() < 7 {
            let p =
                (rng.random_range(-100_000i64..100_000), rng.random_range(-100_000i64..100_000));
            if !sites.contains(&p) {
                sites.push(p);
            }
        }
        for k in 2..=7usize {
            assert_eq!(
                euclidean_cells(&sites[..k]),
                n_euclidean(2, k as u32).unwrap(),
                "trial {trial}, k={k}"
            );
        }
    }
}

#[test]
fn grid_census_matches_exact_arrangement() {
    // A dense grid over a wide box must discover every cell the exact
    // counter reports (k=4 keeps cells wide).
    let sites_i = [(22, 45), (58, 29), (71, 62), (40, 80)];
    let exact = euclidean_cells(&sites_i);
    let sites: Vec<Vec<f64>> =
        sites_i.iter().map(|&(x, y)| vec![x as f64 / 100.0, y as f64 / 100.0]).collect();
    let bbox = BBox { x_min: -2.0, x_max: 3.0, y_min: -2.0, y_max: 3.0 };
    let counted = grid_count(&L2, &sites, bbox, 700, 700).distinct();
    assert_eq!(counted as u128, exact);
}

#[test]
fn one_dimensional_exactness_chain() {
    // midpoint counter == dense-sweep empirical count == Theorem 7 (d=1)
    // == tree bound, for generic sites.
    let sites_i = [0i64, 7, 19, 43, 101];
    let exact = exact_count_1d(&sites_i);
    assert_eq!(exact, n_euclidean(1, 5).unwrap());
    assert_eq!(exact, tree_bound(5));
    let sites: Vec<Vec<f64>> = sites_i.iter().map(|&s| vec![s as f64]).collect();
    let db: Vec<Vec<f64>> = (-500..5500).map(|i| vec![i as f64 * 0.025]).collect();
    assert_eq!(count_distinct(&L2, &sites, &db) as u128, exact);
}

#[test]
fn theorem6_realises_factorial_through_the_full_stack() {
    // The construction's witnesses, checked through the public API.
    for k in 2..=5usize {
        let witnesses = theorem6_witnesses(k, 0.25, &L2);
        let expected: usize = (1..=k).product();
        assert_eq!(witnesses.len(), expected);
        // Matches Table 1's lower triangle.
        assert_eq!(expected as u128, n_euclidean(k as u32 - 1, k as u32).unwrap());
    }
}

#[test]
fn table3_d1_row_is_exact_for_every_metric() {
    // In one dimension every Lp agrees and a dense uniform database hits
    // every cell: mean == max == C(k,2)+1 with a 4000-point database.
    for metric in MetricKind::ALL {
        let e = uniform_experiment(1, metric, 4, 4_000, 3, 99, 3);
        assert_eq!(e.max as u128, tree_bound(4), "{metric:?}");
    }
}

#[test]
fn degenerate_sites_lose_cells_exactly_as_theory_predicts() {
    // Collinear sites: bisectors parallel -> k(k-1)/2 + 1 cells at most
    // ... actually exactly m+1 where m = distinct bisectors.  For an
    // arithmetic progression several midpoints coincide.
    let collinear: Vec<(i64, i64)> = vec![(0, 0), (10, 10), (20, 20), (30, 30)];
    // 6 bisectors, but midpoint coincidences: (0,30) and (10,20) share
    // one -> 5 distinct parallel lines -> 6 cells.
    assert_eq!(euclidean_cells(&collinear), 6);
    // The 1-D shadow agrees.
    assert_eq!(exact_count_1d(&[0, 10, 20, 30]), 6);
}

#[test]
fn exact_enumeration_agrees_with_grid_sampling_and_euler_count() {
    use distance_permutations::geometry::faces::exact_permutations;

    // The canonical Fig 1–4 sites: the exact enumerator, the exact Euler
    // count, and the dense grid census must agree on the 18 cells — and
    // the grid census must find exactly the same *set* of permutations.
    let sites_i: Vec<(i64, i64)> = vec![(9867, 5630), (3364, 5875), (4702, 8210), (8423, 3812)];
    let sites_f: Vec<Vec<f64>> =
        sites_i.iter().map(|&(x, y)| vec![x as f64 / 10_000.0, y as f64 / 10_000.0]).collect();

    let exact = exact_permutations(&sites_i);
    assert_eq!(exact.len(), 18);
    assert_eq!(euclidean_cells(&sites_i), 18);

    let bbox = BBox { x_min: -2.0, x_max: 3.0, y_min: -2.0, y_max: 3.0 };
    let grid = grid_count(&L2, &sites_f, bbox, 900, 900);
    assert_eq!(
        grid.permutations(),
        exact,
        "grid census must realise exactly the exact enumeration"
    );
}

#[test]
fn exact_prefix_chain_matches_empirical_prefix_counts() {
    use distance_permutations::core::orders::{count_distinct_prefixes, PrefixKind};
    use distance_permutations::geometry::faces::{
        exact_prefix_count, exact_unordered_prefix_count,
    };

    let sites_i: Vec<(i64, i64)> = vec![(11, 71), (83, 23), (37, 97), (89, 79), (13, 17)];
    let sites_f: Vec<Vec<f64>> = sites_i.iter().map(|&(x, y)| vec![x as f64, y as f64]).collect();
    // Two scales of uniform sampling: dense near the sites (small cells)
    // plus a wide sweep (unbounded cells resolve by direction far out).
    // A single bounded range misses distant cells — the paper's Fig 7
    // phenomenon, which the exactness bound below still certifies.
    let mut rng = StdRng::seed_from_u64(5);
    let mut db: Vec<Vec<f64>> = (0..60_000)
        .map(|_| vec![rng.random_range(-300.0..400.0), rng.random_range(-300.0..400.0)])
        .collect();
    db.extend(
        (0..60_000)
            .map(|_| vec![rng.random_range(-6000.0..6000.0), rng.random_range(-6000.0..6000.0)]),
    );
    for l in 1..=5usize {
        let exact_o = exact_prefix_count(&sites_i, l);
        let exact_u = exact_unordered_prefix_count(&sites_i, l);
        let emp_o = count_distinct_prefixes(&L2, &sites_f, &db, l, PrefixKind::Ordered);
        let emp_u = count_distinct_prefixes(&L2, &sites_f, &db, l, PrefixKind::Unordered);
        assert!(emp_o <= exact_o, "l={l}: sampled ordered {emp_o} > exact {exact_o}");
        assert!(emp_u <= exact_u, "l={l}: sampled unordered {emp_u} > exact {exact_u}");
        // Coverage: most regions get hit, but thin far-field wedges can
        // escape any bounded uniform sample (Fig 7's phenomenon) — so
        // require two-thirds, not totality.
        assert!(emp_o * 3 >= exact_o * 2, "l={l}: sample hit only {emp_o}/{exact_o}");
    }
}
