//! Build → save → load → query bit-identity for the on-disk store
//! (`scripts/check.sh` also runs this under `--release`).
//!
//! The contract under test: a [`FlatDistPermIndex`] loaded from a
//! `dp-store` container is **field-for-field identical** to the freshly
//! built original — every stored buffer byte-exact, and therefore every
//! query answer and every [`QueryStats`] bit-identical — across all
//! five persisted metrics, the k = 2..=32 range (every key-column width:
//! `u64` keys to k = 12, `u128` to 25, position arrays to 32),
//! degenerate shapes (n = 0, k = n, d = 1),
//! and both the sequential searcher and the parallel batch path.  A
//! build split across workers (1024 rows and up) must equal the generic
//! per-point index and store the same bytes at every worker count.

use distance_permutations::datasets::{uniform_unit_cube, VectorSet};
use distance_permutations::index::laesa::PivotSelection;
use distance_permutations::index::serve::{query_batch_parallel_approx, ApproxRequest};
use distance_permutations::index::{DistPermIndex, FlatDistPermIndex};
use distance_permutations::metric::{
    BatchDistance, Distance, F64Dist, L2Squared, LInf, Lp, L1, L2,
};
use distance_permutations::store::{read_store, store_to_bytes, StoreMetric, StoredIndex};
use proptest::prelude::*;

fn as_l1(s: StoredIndex) -> Option<FlatDistPermIndex<L1>> {
    if let StoredIndex::L1(i) = s {
        Some(i)
    } else {
        None
    }
}

fn as_l2(s: StoredIndex) -> Option<FlatDistPermIndex<L2>> {
    if let StoredIndex::L2(i) = s {
        Some(i)
    } else {
        None
    }
}

fn as_l2sq(s: StoredIndex) -> Option<FlatDistPermIndex<L2Squared>> {
    if let StoredIndex::L2Squared(i) = s {
        Some(i)
    } else {
        None
    }
}

fn as_linf(s: StoredIndex) -> Option<FlatDistPermIndex<LInf>> {
    if let StoredIndex::LInf(i) = s {
        Some(i)
    } else {
        None
    }
}

fn as_lp(s: StoredIndex) -> Option<FlatDistPermIndex<Lp>> {
    if let StoredIndex::Lp(i) = s {
        Some(i)
    } else {
        None
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Saves, reloads and checks the full bit-identity contract: stored
/// fields byte-exact, then sequential and parallel answers (ids, dist
/// bits, stats) equal on `queries`.
fn assert_roundtrip<M>(
    index: &FlatDistPermIndex<M>,
    extract: fn(StoredIndex) -> Option<FlatDistPermIndex<M>>,
    queries: &[Vec<f64>],
    knn: usize,
    frac: f64,
    threads: usize,
) where
    M: StoreMetric + BatchDistance + Sync,
{
    let bytes = store_to_bytes(index);
    let loaded = extract(read_store(&bytes).expect("canonical store image must read back"))
        .expect("metric tag must survive the roundtrip");

    // Field-for-field identity.
    assert_eq!(loaded.len(), index.len());
    assert_eq!(loaded.k(), index.k());
    assert_eq!(loaded.site_ids(), index.site_ids());
    assert_eq!(loaded.points().dim(), index.points().dim());
    assert_eq!(bits(loaded.points().as_flat()), bits(index.points().as_flat()));
    assert_eq!(bits(loaded.sites_transposed().as_flat()), bits(index.sites_transposed().as_flat()));
    assert_eq!(loaded.permutations(), index.permutations());

    // Sequential: per-query answers and stats, to the bit.
    let mut expect_session = index.session();
    let mut actual_session = loaded.session();
    for q in queries {
        let (expect, expect_stats) = expect_session.knn_approx(q, knn, frac);
        let (actual, actual_stats) = actual_session.knn_approx(q, knn, frac);
        assert_eq!(actual_stats, expect_stats, "QueryStats must match");
        assert_eq!(actual.len(), expect.len());
        for (a, e) in actual.iter().zip(expect.iter()) {
            assert_eq!(a.id, e.id);
            assert_eq!(a.dist.to_f64().to_bits(), e.dist.to_f64().to_bits());
        }
    }

    // Parallel: knn and range through the batch-serving path.
    for request in [
        ApproxRequest::Knn { k: knn, frac },
        ApproxRequest::Range { radius: F64Dist::new(0.7), frac },
    ] {
        let expect = query_batch_parallel_approx::<[f64], _, _>(index, queries, request, threads);
        let actual = query_batch_parallel_approx::<[f64], _, _>(&loaded, queries, request, threads);
        assert_eq!(actual.len(), expect.len());
        for (i, ((an, astats), (en, estats))) in actual.iter().zip(expect.iter()).enumerate() {
            assert_eq!(astats, estats, "query {i} stats");
            assert_eq!(an.len(), en.len(), "query {i}");
            for (a, e) in an.iter().zip(en.iter()) {
                assert_eq!(a.id, e.id, "query {i}");
                assert_eq!(a.dist.to_f64().to_bits(), e.dist.to_f64().to_bits(), "query {i}");
            }
        }
    }
}

fn flat(db: &[Vec<f64>]) -> VectorSet {
    VectorSet::from_nested(db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // All five metrics roundtrip bit-identically on random shapes
    // spanning every key-column width (k = 2..=32).
    #[test]
    fn roundtrip_is_bit_identical_for_every_metric(
        seed in 0u64..1000,
        n in 20usize..100,
        dim in 1usize..5,
        k in 2usize..=32,
        knn in 1usize..5,
        frac in 0.25f64..=1.0,
        threads in 1usize..4,
    ) {
        let k = k.min(n);
        let db = uniform_unit_cube(n, dim, seed);
        let queries = uniform_unit_cube(12, dim, seed ^ 0x0dd5);
        macro_rules! check {
            ($metric:expr, $extract:expr) => {
                assert_roundtrip(
                    &FlatDistPermIndex::build($metric, flat(&db), k, PivotSelection::MaxMin, 1),
                    $extract,
                    &queries,
                    knn,
                    frac,
                    threads,
                );
            };
        }
        check!(L1, as_l1);
        check!(L2, as_l2);
        check!(L2Squared, as_l2sq);
        check!(LInf, as_linf);
        check!(Lp::new(2.5), as_lp);
    }
}

#[test]
fn empty_database_roundtrips() {
    let index = FlatDistPermIndex::build(L2, flat(&[]), 0, PivotSelection::MaxMin, 1);
    let queries: Vec<Vec<f64>> = Vec::new();
    assert_roundtrip(&index, as_l2, &queries, 1, 1.0, 2);
    let bytes = store_to_bytes(&index);
    let loaded = read_store(&bytes).expect("empty store reads back");
    assert!(loaded.is_empty());
    assert_eq!((loaded.k(), loaded.dim()), (0, 0));
}

#[test]
fn every_point_a_site_roundtrips() {
    // k = n: the db smaller than any reasonable k request.
    let db = uniform_unit_cube(5, 2, 9);
    let index = FlatDistPermIndex::build(L1, flat(&db), 5, PivotSelection::MaxMin, 1);
    let queries = uniform_unit_cube(6, 2, 10);
    assert_roundtrip(&index, as_l1, &queries, 2, 1.0, 2);
}

#[test]
fn one_dimensional_data_roundtrips() {
    let db = uniform_unit_cube(60, 1, 17);
    let index = FlatDistPermIndex::build(LInf, flat(&db), 7, PivotSelection::MaxMin, 1);
    let queries = uniform_unit_cube(8, 1, 18);
    assert_roundtrip(&index, as_linf, &queries, 3, 0.5, 3);
}

#[test]
fn explicit_site_build_roundtrips() {
    let db = uniform_unit_cube(80, 3, 23);
    let index = FlatDistPermIndex::build_with_sites(L2, flat(&db), vec![11, 3, 40, 7], 1);
    let queries = uniform_unit_cube(8, 3, 24);
    assert_roundtrip(&index, as_l2, &queries, 4, 1.0, 2);
}

/// From 1024 rows on the flat build splits its rows across workers, and
/// each worker keys its chunk by rank rows: at every worker count and key
/// width the index must equal the generic per-point index on the same
/// rows and sites, and its store must be the same bytes.
#[test]
fn split_build_matches_the_generic_index_and_stores_identically() {
    let queries = uniform_unit_cube(4, 3, 99);
    for n in [1031usize, 4099] {
        let db = uniform_unit_cube(n, 3, 31 + n as u64);
        for (k, engine) in
            [(12usize, "packed-u64"), (13, "packed-u128"), (25, "packed-u128"), (26, "permutation")]
        {
            let site_ids: Vec<usize> = (0..k).map(|i| i * 37 % n).collect();
            let generic = DistPermIndex::build_with_sites(L2, db.clone(), site_ids.clone());
            let mut stores = Vec::new();
            for threads in [1usize, 2, 3] {
                let tag = format!("n = {n}, k = {k}, threads = {threads}");
                let index =
                    FlatDistPermIndex::build_with_sites(L2, flat(&db), site_ids.clone(), threads);
                assert_eq!(index.permutations(), generic.permutations(), "{tag}");
                assert_eq!(index.distinct_permutations(), generic.distinct_permutations(), "{tag}");
                assert_eq!(index.ordering_engine(), engine, "{tag}");
                for q in &queries {
                    for frac in [0.02, 0.1] {
                        let (got, want) =
                            (index.knn_approx(q, 3, frac), generic.knn_approx(q, 3, frac));
                        assert_eq!(got, want, "{tag}, frac = {frac}");
                    }
                }
                stores.push(store_to_bytes(&index));
            }
            assert!(stores.windows(2).all(|w| w[0] == w[1]), "n = {n}, k = {k}: store bytes");
        }
    }
}
