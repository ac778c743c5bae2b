//! Cross-crate index consistency through the unified `ProximityIndex`
//! API: every exact index must agree with the linear scan on every
//! query, across point types and metrics; parallel batch serving must be
//! bit-identical to sequential serving; a reused searcher session must
//! answer exactly like a fresh one; and the distperm index's counting
//! must agree with the direct counter.

use distance_permutations::datasets::dictionary::{generate_words, language_profiles};
use distance_permutations::datasets::documents::{generate_documents, long_profile};
use distance_permutations::datasets::{uniform_unit_cube, VectorSet};
use distance_permutations::index::laesa::PivotSelection;
use distance_permutations::index::serve::{
    query_batch_parallel, query_batch_parallel_approx, ApproxRequest, Request,
};
use distance_permutations::index::{
    Aesa, AnyIndex, BkTree, DistPermIndex, FlatDistPermIndex, GhTree, IAesa, IndexSpec, Laesa,
    LinearScan, PrefixPermIndex, ProximityIndex, QueryStats, Searcher, VpTree,
};
use distance_permutations::metric::{CosineDistance, F64Dist, Levenshtein, L1, L2};
use distance_permutations::permutation::counter::count_distinct;
use std::borrow::Borrow;

#[test]
fn all_exact_indexes_agree_on_vectors() {
    let pts = uniform_unit_cube(300, 3, 1);
    let queries = uniform_unit_cube(20, 3, 2);
    let scan = LinearScan::new(L2, pts.clone());
    let aesa = Aesa::build(L2, pts.clone());
    let laesa = Laesa::build(L2, pts.clone(), 8, PivotSelection::MaxMin);
    let iaesa = IAesa::build(L2, pts.clone(), 8, PivotSelection::MaxMin);
    let vp = VpTree::build(L2, pts.clone());
    let gh = GhTree::build(L2, pts.clone());
    let dp = DistPermIndex::build(L2, pts.clone(), 8, PivotSelection::MaxMin);
    let pre = PrefixPermIndex::build(L2, pts.clone(), 8, 3, PivotSelection::MaxMin);
    let flat =
        FlatDistPermIndex::build(L2, VectorSet::from_nested(&pts), 8, PivotSelection::MaxMin, 2);
    for q in &queries {
        let truth = scan.knn(q, 4);
        assert_eq!(aesa.query_knn(q, 4).0, truth, "AESA");
        assert_eq!(laesa.query_knn(q, 4).0, truth, "LAESA");
        assert_eq!(iaesa.query_knn(q, 4).0, truth, "iAESA");
        assert_eq!(vp.query_knn(q, 4).0, truth, "VP-tree");
        assert_eq!(gh.query_knn(q, 4).0, truth, "GH-tree");
        // The permutation family at full budget: k site evaluations plus
        // every point, in storage order.
        let full_scan = QueryStats::new(8 + 300);
        assert_eq!(dp.query_knn(q, 4), (truth.clone(), full_scan), "distperm full budget");
        assert_eq!(pre.query_knn(q, 4), (truth.clone(), full_scan), "prefixperm full budget");
        assert_eq!(flat.query_knn(&q[..], 4), (truth, full_scan), "flatperm full budget");
    }
}

#[test]
fn all_exact_indexes_agree_on_range_queries_l1() {
    let pts = uniform_unit_cube(250, 2, 3);
    let queries = uniform_unit_cube(15, 2, 4);
    let scan = LinearScan::new(L1, pts.clone());
    let aesa = Aesa::build(L1, pts.clone());
    let laesa = Laesa::build(L1, pts.clone(), 6, PivotSelection::MaxMin);
    let vp = VpTree::build(L1, pts.clone());
    let gh = GhTree::build(L1, pts.clone());
    let pre = PrefixPermIndex::build(L1, pts.clone(), 6, 2, PivotSelection::MaxMin);
    let flat =
        FlatDistPermIndex::build(L1, VectorSet::from_nested(&pts), 6, PivotSelection::MaxMin, 2);
    for q in &queries {
        for r in [0.1, 0.3, 0.8] {
            let radius = F64Dist::new(r);
            let truth = scan.range(q, radius);
            assert_eq!(aesa.query_range(q, radius).0, truth, "AESA r={r}");
            assert_eq!(laesa.query_range(q, radius).0, truth, "LAESA r={r}");
            assert_eq!(vp.query_range(q, radius).0, truth, "VP r={r}");
            assert_eq!(gh.query_range(q, radius).0, truth, "GH r={r}");
            let full_scan = QueryStats::new(6 + 250);
            assert_eq!(pre.query_range(q, radius), (truth.clone(), full_scan), "prefix r={r}");
            assert_eq!(flat.query_range(&q[..], radius), (truth, full_scan), "flatperm r={r}");
        }
    }
}

/// Integer-grid points where every row appears three times: most
/// distances tie, so the `(distance, id)` tie-break alone decides which
/// copies enter an answer.  Every exact permutation index must still
/// agree with the linear scan, at full budget, for k-NN and range
/// queries alike.
#[test]
fn exact_permutation_indexes_break_distance_ties_by_id() {
    let grid: Vec<Vec<f64>> =
        (0..27).map(|c| vec![f64::from(c % 3), f64::from(c / 3 % 3), f64::from(c / 9)]).collect();
    // Copies interleave at distance 27 (ids c, c + 27, c + 54).
    let pts: Vec<Vec<f64>> = grid.iter().chain(&grid).chain(&grid).cloned().collect();
    let queries = vec![vec![1.0, 1.0, 1.0], vec![0.0, 0.0, 0.0], vec![0.5, 1.0, 2.0]];
    let scan = LinearScan::new(L2, pts.clone());
    let dp = DistPermIndex::build(L2, pts.clone(), 6, PivotSelection::MaxMin);
    let pre = PrefixPermIndex::build(L2, pts.clone(), 6, 2, PivotSelection::MaxMin);
    let flat =
        FlatDistPermIndex::build(L2, VectorSet::from_nested(&pts), 6, PivotSelection::MaxMin, 1);
    let mut tied_cutoffs = 0;
    for q in &queries {
        for k in [1usize, 2, 4, 7, 10] {
            let truth = scan.knn(q, k);
            let all = scan.knn(q, pts.len());
            // Count answers whose k-th distance also appears past the
            // cut, i.e. where ids alone picked the members.
            tied_cutoffs += usize::from(all[k].dist == truth[k - 1].dist);
            assert_eq!(dp.query_knn(q, k).0, truth, "distperm k={k}");
            assert_eq!(pre.query_knn(q, k).0, truth, "prefixperm k={k}");
            assert_eq!(flat.query_knn(&q[..], k).0, truth, "flatperm k={k}");
        }
        for r in [0.0, 1.0, 1.5] {
            let radius = F64Dist::new(r);
            let truth = scan.range(q, radius);
            assert_eq!(dp.query_range(q, radius).0, truth, "distperm r={r}");
            assert_eq!(pre.query_range(q, radius).0, truth, "prefixperm r={r}");
            assert_eq!(flat.query_range(&q[..], radius).0, truth, "flatperm r={r}");
        }
    }
    assert!(tied_cutoffs >= 10, "only {tied_cutoffs} answers cut inside a distance tie");
}

#[test]
fn indexes_agree_on_dictionaries() {
    let words = generate_words(&language_profiles()[4], 300, 5);
    let queries = generate_words(&language_profiles()[4], 15, 6);
    let scan = LinearScan::new(Levenshtein, words.clone());
    let vp = VpTree::build(Levenshtein, words.clone());
    let gh = GhTree::build(Levenshtein, words.clone());
    let laesa = Laesa::build(Levenshtein, words, 6, PivotSelection::MaxMin);
    for q in &queries {
        let truth = scan.knn(q, 3);
        assert_eq!(vp.query_knn(q, 3).0, truth);
        assert_eq!(gh.query_knn(q, 3).0, truth);
        assert_eq!(laesa.query_knn(q, 3).0, truth);
    }
}

#[test]
fn indexes_agree_on_documents() {
    let docs = generate_documents(long_profile(), 150, 7);
    let queries = generate_documents(long_profile(), 10, 8);
    let scan = LinearScan::new(CosineDistance, docs.clone());
    let vp = VpTree::build(CosineDistance, docs.clone());
    let aesa = Aesa::build(CosineDistance, docs);
    for q in &queries {
        let truth = scan.knn(q, 3);
        assert_eq!(vp.query_knn(q, 3).0, truth);
        assert_eq!(aesa.query_knn(q, 3).0, truth);
    }
}

#[test]
fn distperm_counting_is_consistent_with_direct_counter() {
    let words = generate_words(&language_profiles()[0], 500, 9);
    let idx = DistPermIndex::build(Levenshtein, words.clone(), 7, PivotSelection::Prefix);
    let sites: Vec<String> = words[..7].to_vec();
    assert_eq!(idx.distinct_permutations(), count_distinct(&Levenshtein, &sites, &words));
    // The ASCII export has one line per word and as many distinct lines
    // as distinct permutations (the paper's sort|uniq|wc pipeline).
    let text = idx.export_ascii();
    let mut lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), words.len());
    lines.sort_unstable();
    lines.dedup();
    assert_eq!(lines.len(), idx.distinct_permutations());
}

/// Property (a): `query_batch_parallel` returns bit-identical results
/// *and stats* to sequential serving, for any thread count, including
/// thread counts that do not divide the batch and exceed it.
fn check_parallel_matches_sequential<P, Q, I>(name: &str, index: &I, queries: &[Q], k: usize)
where
    P: ?Sized,
    Q: Borrow<P> + Sync,
    I: ProximityIndex<P>,
{
    let request = Request::Knn { k };
    let seq = query_batch_parallel(index, queries, request, 1);
    assert_eq!(seq.len(), queries.len(), "{name}: one response per query");
    for threads in [2usize, 3, 8, 100] {
        let par = query_batch_parallel(index, queries, request, threads);
        assert_eq!(par, seq, "{name}: parallel({threads}) != sequential");
    }
}

/// Property (a) for range requests.
fn check_parallel_matches_sequential_range<P, Q, I>(
    name: &str,
    index: &I,
    queries: &[Q],
    radius: I::Dist,
) where
    P: ?Sized,
    Q: Borrow<P> + Sync,
    I: ProximityIndex<P>,
{
    let request = Request::Range { radius };
    let seq = query_batch_parallel(index, queries, request, 1);
    for threads in [2usize, 5] {
        let par = query_batch_parallel(index, queries, request, threads);
        assert_eq!(par, seq, "{name}: parallel range({threads}) != sequential");
    }
}

/// Property (b): a searcher session serving its i-th query answers
/// exactly (results and stats) like a fresh session would.
fn check_reused_searcher_matches_fresh<P, Q, I>(
    name: &str,
    index: &I,
    queries: &[Q],
    k: usize,
    radius: I::Dist,
) where
    P: ?Sized,
    Q: Borrow<P>,
    I: ProximityIndex<P>,
{
    let mut reused = index.searcher();
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(
            reused.knn(q.borrow(), k),
            index.searcher().knn(q.borrow(), k),
            "{name}: reused knn diverges at query {i}"
        );
        assert_eq!(
            reused.range(q.borrow(), radius),
            index.searcher().range(q.borrow(), radius),
            "{name}: reused range diverges at query {i}"
        );
    }
}

#[test]
fn parallel_serving_and_searcher_reuse_hold_for_every_vector_index() {
    let pts = uniform_unit_cube(220, 3, 10);
    let queries = uniform_unit_cube(17, 3, 11);
    let radius = F64Dist::new(0.4);

    // The eight generic structures, through the build-by-spec dispatcher.
    let specs = [
        IndexSpec::Linear,
        IndexSpec::Aesa,
        IndexSpec::Laesa { k: 6 },
        IndexSpec::IAesa { k: 6 },
        IndexSpec::DistPerm { k: 6 },
        IndexSpec::PrefixPerm { k: 6, prefix_len: 3 },
        IndexSpec::VpTree,
        IndexSpec::GhTree,
    ];
    for spec in specs {
        let idx = AnyIndex::build(spec, L2, pts.clone(), PivotSelection::MaxMin).unwrap();
        let name = spec.name();
        check_parallel_matches_sequential(&name, &idx, &queries, 3);
        check_parallel_matches_sequential_range(&name, &idx, &queries, radius);
        check_reused_searcher_matches_fresh(&name, &idx, &queries, 3, radius);
    }

    // Flat storage: same properties over `&[f64]` rows.
    let flat =
        FlatDistPermIndex::build(L2, VectorSet::from_nested(&pts), 6, PivotSelection::MaxMin, 2);
    let qset = VectorSet::from_nested(&queries);
    let rows: Vec<&[f64]> = qset.rows().collect();
    check_parallel_matches_sequential::<[f64], _, _>("flatperm", &flat, &rows, 3);
    check_parallel_matches_sequential_range::<[f64], _, _>("flatperm", &flat, &rows, radius);
    check_reused_searcher_matches_fresh::<[f64], _, _>("flatperm", &flat, &rows, 3, radius);
}

#[test]
fn parallel_serving_and_searcher_reuse_hold_for_string_indexes() {
    let words = generate_words(&language_profiles()[1], 250, 12);
    let queries = generate_words(&language_profiles()[1], 13, 13);

    let bk = BkTree::build(Levenshtein, words.clone());
    check_parallel_matches_sequential("bktree", &bk, &queries, 3);
    check_parallel_matches_sequential_range("bktree", &bk, &queries, 2u32);
    check_reused_searcher_matches_fresh("bktree", &bk, &queries, 3, 2u32);

    let dp = DistPermIndex::build(Levenshtein, words, 7, PivotSelection::MaxMin);
    check_parallel_matches_sequential("distperm/levenshtein", &dp, &queries, 3);
    check_reused_searcher_matches_fresh("distperm/levenshtein", &dp, &queries, 3, 2u32);
}

#[test]
fn budgeted_parallel_serving_matches_sequential_for_the_permutation_family() {
    let pts = uniform_unit_cube(400, 3, 14);
    let queries = uniform_unit_cube(19, 3, 15);
    let knn_req = ApproxRequest::Knn { k: 2, frac: 0.1 };
    let range_req = ApproxRequest::Range { radius: F64Dist::new(0.3), frac: 0.25 };

    let dp = DistPermIndex::build(L2, pts.clone(), 8, PivotSelection::MaxMin);
    let pre = PrefixPermIndex::build(L2, pts.clone(), 8, 4, PivotSelection::MaxMin);
    for threads in [2usize, 7] {
        assert_eq!(
            query_batch_parallel_approx(&dp, &queries, knn_req, threads),
            query_batch_parallel_approx(&dp, &queries, knn_req, 1),
            "distperm approx knn, {threads} threads"
        );
        assert_eq!(
            query_batch_parallel_approx(&pre, &queries, range_req, threads),
            query_batch_parallel_approx(&pre, &queries, range_req, 1),
            "prefixperm approx range, {threads} threads"
        );
    }

    let flat =
        FlatDistPermIndex::build(L2, VectorSet::from_nested(&pts), 8, PivotSelection::MaxMin, 2);
    let qset = VectorSet::from_nested(&queries);
    let rows: Vec<&[f64]> = qset.rows().collect();
    let seq = query_batch_parallel_approx::<[f64], _, _>(&flat, &rows, knn_req, 1);
    assert_eq!(
        query_batch_parallel_approx::<[f64], _, _>(&flat, &rows, knn_req, 3),
        seq,
        "flatperm approx knn"
    );
    // Budgeted serving agrees with the one-shot inherent surface.
    for (q, (neighbors, _)) in queries.iter().zip(&seq) {
        assert_eq!(neighbors, &flat.knn_approx(q, 2, 0.1));
    }
}

#[test]
fn reused_approx_searcher_matches_fresh_session() {
    let pts = uniform_unit_cube(350, 2, 16);
    let queries = uniform_unit_cube(15, 2, 17);
    let dp = DistPermIndex::build(L2, pts.clone(), 9, PivotSelection::MaxMin);
    let pre = PrefixPermIndex::build(L2, pts, 9, 4, PivotSelection::MaxMin);
    let mut dp_session = dp.searcher();
    let mut pre_session = pre.searcher();
    for q in &queries {
        assert_eq!(dp_session.knn_approx(q, 3, 0.15), dp.searcher().knn_approx(q, 3, 0.15));
        assert_eq!(pre_session.knn_approx(q, 3, 0.15), pre.searcher().knn_approx(q, 3, 0.15));
        let radius = F64Dist::new(0.25);
        assert_eq!(
            dp_session.range_approx(q, radius, 0.4),
            dp.searcher().range_approx(q, radius, 0.4)
        );
        assert_eq!(
            pre_session.range_approx(q, radius, 0.4),
            pre.searcher().range_approx(q, radius, 0.4)
        );
    }
}

#[test]
fn searcher_sessions_are_send() {
    fn assert_send<T: Send>(_: &T) {}
    let pts = uniform_unit_cube(40, 2, 18);
    let scan = LinearScan::new(L2, pts.clone());
    assert_send(&scan.searcher());
    let aesa = Aesa::build(L2, pts.clone());
    assert_send(&aesa.searcher());
    let vp = VpTree::build(L2, pts.clone());
    assert_send(&vp.searcher());
    let dp = DistPermIndex::build(L2, pts.clone(), 5, PivotSelection::Prefix);
    assert_send(&dp.searcher());
    let any = AnyIndex::build(IndexSpec::GhTree, L2, pts, PivotSelection::Prefix).unwrap();
    assert_send(&any.searcher());
}
