//! Fault-injection robustness suite for the resilient serving engine
//! (`scripts/check.sh` also runs this under `--release`).
//!
//! The contract under test: with `k` injected panics in an `n`-query
//! batch, [`serve_resilient`] returns **exactly `k`** failed outcomes at
//! the injected indices and the other `n - k` answers **bit-identical**
//! to one searcher serving the batch in order — at any thread count.
//! With zero faults and no deadline the whole batch is bit-identical;
//! with an expired deadline every query degrades to exactly the budgeted
//! path.  The serving loop never dies: a session fed all-panicking
//! batches still answers and says `bye`.
//!
//! The expected answers come from a plain loop in this file, not from
//! the library's strict batch path, which shares the engine's dispatcher.
//!
//! The suite runs two indexes.  `DistPermIndex` answers each query
//! alone.  `FlatDistPermIndex` answers the exact k-NN queries of equal k
//! that a worker claims in one run with one sweep over its rows, so its
//! arm mixes exact queries at two k values with budgeted and range
//! queries, puts faults at run edges and inside runs, and puts a NaN
//! query and a wrong-dimension query inside swept runs.

use distance_permutations::datasets::VectorSet;
use distance_permutations::index::serve::{
    serve_resilient, ApproxRequest, BatchOptions, FaultPlan, Outcome, Request, Response,
    ServeRequest,
};
use distance_permutations::index::{
    DistPermIndex, DistPermSearcher, FlatDistPermIndex, PivotSelection, ProximityIndex, Searcher,
};
use distance_permutations::metric::{F64Dist, L2};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;
use std::time::Duration;

fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| (0..dim).map(|_| rng.random::<f64>()).collect()).collect()
}

fn dist_perm_index() -> DistPermIndex<Vec<f64>, L2> {
    DistPermIndex::build(L2, random_points(120, 3, 7), 6, PivotSelection::MaxMin)
}

/// The oracle: one searcher serving the batch in query order.
fn sequential(
    index: &DistPermIndex<Vec<f64>, L2>,
    queries: &[Vec<f64>],
    serve_one: impl Fn(&mut DistPermSearcher<'_, Vec<f64>, L2>, &Vec<f64>) -> Response<F64Dist>,
) -> Vec<Response<F64Dist>> {
    let mut searcher = index.searcher();
    queries.iter().map(|q| serve_one(&mut searcher, q)).collect()
}

/// Asserts the fault-isolation contract on one engine run: failed slots
/// exactly at `panics`, everything else bit-identical to `baseline`.
fn assert_isolated(
    outcomes: &[Outcome<F64Dist>],
    baseline: &[Response<F64Dist>],
    panics: &BTreeSet<usize>,
) {
    assert_eq!(outcomes.len(), baseline.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        if panics.contains(&i) {
            match outcome {
                Outcome::Failed(err) => {
                    assert_eq!(err.index, i);
                    assert!(
                        err.message.contains(&format!("injected fault at query {i}")),
                        "unexpected message: {}",
                        err.message
                    );
                }
                other => panic!("query {i} should have failed, got {other:?}"),
            }
        } else {
            match outcome {
                Outcome::Ok(response) => assert_eq!(response, &baseline[i], "query {i}"),
                other => panic!("query {i} should be ok, got {other:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // k injected panics => exactly k failures, n-k bit-identical exact
    // answers, at 1/2/4 threads.
    #[test]
    fn injected_panics_isolate_exactly_for_exact_queries(
        seed in 0u64..1000,
        panics in proptest::collection::btree_set(0usize..24, 0..6),
        threads in 1usize..5,
    ) {
        let index = dist_perm_index();
        let queries = random_points(24, 3, seed ^ 0xbeef);
        let baseline = sequential(&index, &queries, |s, q| s.knn(q, 4));
        let report = serve_resilient(
            &index,
            &queries,
            |_| ServeRequest::Exact(Request::Knn { k: 4 }),
            &BatchOptions::with_threads(threads),
            &FaultPlan::none().panic_on_all(panics.iter().copied()),
        );
        prop_assert_eq!(report.failed(), panics.len());
        assert_isolated(&report.outcomes, &baseline, &panics);
    }

    // The same contract holds on the budgeted (approx) request path.
    #[test]
    fn injected_panics_isolate_exactly_for_budgeted_queries(
        seed in 0u64..1000,
        panics in proptest::collection::btree_set(0usize..20, 0..5),
        threads in 1usize..5,
    ) {
        let index = dist_perm_index();
        let queries = random_points(20, 3, seed ^ 0xfeed);
        let request = ApproxRequest::Knn { k: 3, frac: 0.4 };
        let baseline = sequential(&index, &queries, |s, q| s.knn_approx(q, 3, 0.4));
        let report = serve_resilient(
            &index,
            &queries,
            |_| ServeRequest::Approx(request),
            &BatchOptions::with_threads(threads),
            &FaultPlan::none().panic_on_all(panics.iter().copied()),
        );
        prop_assert_eq!(report.failed(), panics.len());
        assert_isolated(&report.outcomes, &baseline, &panics);
    }

    // An already-expired deadline degrades every query to exactly the
    // budgeted path at the configured fraction — bit-identical to one
    // searcher serving the budgeted requests.
    #[test]
    fn expired_deadline_is_bit_identical_to_budgeted_serving(
        seed in 0u64..1000,
        threads in 1usize..5,
        frac in 0.1f64..0.9,
    ) {
        let index = dist_perm_index();
        let queries = random_points(16, 3, seed ^ 0xdead);
        let baseline = sequential(&index, &queries, |s, q| s.knn_approx(q, 3, frac));
        let options =
            BatchOptions::with_threads(threads).deadline(Duration::ZERO).degrade(frac);
        let report = serve_resilient(
            &index,
            &queries,
            |_| ServeRequest::Exact(Request::Knn { k: 3 }),
            &options,
            &FaultPlan::none(),
        );
        prop_assert_eq!(report.degraded(), queries.len());
        for (i, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                Outcome::Degraded { response, frac: served } => {
                    prop_assert_eq!(*served, frac);
                    prop_assert_eq!(response, &baseline[i]);
                }
                other => panic!("query {i} should be degraded, got {other:?}"),
            }
        }
    }
}

// An injected delay that blows the soft deadline degrades the queries
// *after* it but never the ones already started: with one worker, query
// 0 runs exact (admitted before expiry) and everything later degrades.
#[test]
fn slow_query_degrades_the_rest_of_the_batch() {
    let index = dist_perm_index();
    let queries = random_points(8, 3, 21);
    let options = BatchOptions::with_threads(1).deadline(Duration::from_millis(5)).degrade(0.2);
    let report = serve_resilient(
        &index,
        &queries,
        |_| ServeRequest::Exact(Request::Knn { k: 3 }),
        &options,
        &FaultPlan::none().delay_on(0, Duration::from_millis(100)),
    );
    assert!(
        matches!(report.outcomes[0], Outcome::Ok(_)),
        "query 0 was admitted before the deadline: {:?}",
        report.outcomes[0]
    );
    for (i, outcome) in report.outcomes.iter().enumerate().skip(1) {
        assert!(
            matches!(outcome, Outcome::Degraded { frac, .. } if *frac == 0.2),
            "query {i} should have degraded: {outcome:?}"
        );
    }
    assert_eq!(report.degraded(), queries.len() - 1);
}

// The serving loop never dies: a session where *every* query panics,
// across several batches and thread counts, still answers every line
// and shuts down with `bye`.
#[test]
fn session_survives_batches_where_every_query_panics() {
    use distance_permutations::index::serve::{serve_session, SessionConfig};
    let index = dist_perm_index();
    let mut input = String::new();
    for b in 0..5 {
        input.push_str(&format!("begin b{b}\n"));
        for q in 0..4 {
            input.push_str(&format!("knn 2 0.{q} 0.5 0.5\n"));
        }
        input.push_str("end\n");
    }
    for threads in [1, 2, 4] {
        // The reader outpaces the server, so give the queue room for
        // every batch — shedding has its own tests.
        let config = SessionConfig { threads, queue_capacity: 8, ..SessionConfig::default() };
        let mut out = Vec::new();
        let summary = serve_session::<Vec<f64>, _, _, _>(
            &index,
            3,
            input.as_bytes(),
            &mut out,
            &config,
            &FaultPlan::none().panic_on_all(0..4),
        )
        .expect("in-memory io");
        let text = String::from_utf8(out).expect("utf8 replies");
        assert_eq!(summary.batches, 5, "threads={threads}: {text}");
        assert_eq!(summary.failed, 20, "threads={threads}: {text}");
        assert_eq!(summary.ok, 0, "threads={threads}: {text}");
        assert!(text.lines().last().expect("bye").starts_with("bye "), "{text}");
        assert!(text.matches("\nfailed ").count() == 20, "{text}");
    }
}

fn flat_index() -> FlatDistPermIndex<L2> {
    let points = VectorSet::from_nested(&random_points(150, 3, 11));
    FlatDistPermIndex::build(L2, points, 6, PivotSelection::MaxMin, 1)
}

/// The flat arm's request mix, by query index: exact k-NN at k = 2 and
/// k = 5, a budgeted k-NN and an exact range query.  A run of eight
/// holds two exact k values, so it sweeps twice.
fn mixed_request(i: usize) -> ServeRequest<F64Dist> {
    match i % 5 {
        0 | 3 => ServeRequest::Exact(Request::Knn { k: 2 }),
        1 => ServeRequest::Exact(Request::Knn { k: 5 }),
        2 => ServeRequest::Approx(ApproxRequest::Knn { k: 2, frac: 0.2 }),
        _ => ServeRequest::Exact(Request::Range { radius: F64Dist::new(0.3) }),
    }
}

/// What one query of a flat-arm batch must come to: an answer, or a
/// failure whose message contains the given text.
type Expected = Result<Response<F64Dist>, String>;

/// The oracle: one flat searcher serving the batch in query order;
/// `failing[i]` names the message query `i` must fail with instead.
fn flat_sequential(
    index: &FlatDistPermIndex<L2>,
    queries: &[Vec<f64>],
    failing: &[(usize, String)],
) -> Vec<Expected> {
    let mut searcher = index.searcher();
    (0..queries.len())
        .map(|i| {
            if let Some((_, message)) = failing.iter().find(|(f, _)| *f == i) {
                return Err(message.clone());
            }
            let q = queries[i].as_slice();
            Ok(match mixed_request(i) {
                ServeRequest::Exact(Request::Knn { k }) => searcher.knn(q, k),
                ServeRequest::Exact(Request::Range { radius }) => searcher.range(q, radius),
                ServeRequest::Approx(ApproxRequest::Knn { k, frac }) => {
                    searcher.knn_approx(q, k, frac)
                }
                ServeRequest::Approx(ApproxRequest::Range { radius, frac }) => {
                    searcher.range_approx(q, radius, frac)
                }
            })
        })
        .collect()
}

/// Serves `queries` with the mixed requests and checks every outcome
/// against `expected`.
fn assert_flat_batch(
    index: &FlatDistPermIndex<L2>,
    queries: &[Vec<f64>],
    panics: &BTreeSet<usize>,
    expected: &[Expected],
    threads: usize,
) {
    let rows: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
    let report = serve_resilient(
        index,
        &rows,
        mixed_request,
        &BatchOptions::with_threads(threads),
        &FaultPlan::none().panic_on_all(panics.iter().copied()),
    );
    assert_eq!(report.outcomes.len(), expected.len());
    for (i, (outcome, want)) in report.outcomes.iter().zip(expected).enumerate() {
        match (outcome, want) {
            (Outcome::Ok(response), Ok(want)) => {
                assert_eq!(response, want, "query {i}, {threads} threads");
            }
            (Outcome::Failed(err), Err(message)) => {
                assert_eq!(err.index, i);
                assert!(err.message.contains(message.as_str()), "query {i}: {}", err.message);
            }
            (other, want) => panic!("query {i}, {threads} threads: got {other:?}, want {want:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Mixed batches of sizes that are not multiples of the run length,
    // with random faults: exactly the faulted queries fail, and every
    // other answer equals the one-searcher loop, at 1, 2 and 3 threads.
    #[test]
    fn flat_index_mixed_batches_isolate_faults(
        seed in 0u64..1000,
        len_pick in 0usize..7,
        panics in proptest::collection::btree_set(0usize..41, 0..6),
    ) {
        let len = [1usize, 5, 7, 13, 23, 30, 41][len_pick];
        let index = flat_index();
        let queries = random_points(len, 3, seed ^ 0xf1a7);
        let panics: BTreeSet<usize> = panics.into_iter().filter(|&i| i < len).collect();
        let failing: Vec<(usize, String)> =
            panics.iter().map(|&i| (i, format!("injected fault at query {i}"))).collect();
        let expected = flat_sequential(&index, &queries, &failing);
        for threads in [1usize, 2, 3] {
            assert_flat_batch(&index, &queries, &panics, &expected, threads);
        }
    }
}

// Faults at run edges and inside runs, a NaN query inside a k = 2 sweep
// and a wrong-dimension query inside a k = 5 sweep: each fails alone,
// with its own message, and every other query of those sweeps is
// answered as the one-searcher loop answers it.  With 23 queries a run
// is 8, 6 or 4 queries long at 1, 2 or 3 threads, so 0, 7, 8, 15, 16
// and 22 sit on run edges at some thread count and 12 inside a run.
#[test]
fn flat_index_sweeps_survive_faults_and_bad_queries() {
    let index = flat_index();
    let mut queries = random_points(23, 3, 31);
    // At one thread (runs of 8) query 13, exact k = 2, is swept with
    // query 10, and query 16, exact k = 5, with query 21.
    queries[13] = vec![0.5, f64::NAN, 0.5];
    queries[16] = vec![0.5, 0.5];
    let panics: BTreeSet<usize> = [0, 7, 8, 12, 15, 22].into_iter().collect();
    let mut failing: Vec<(usize, String)> =
        panics.iter().map(|&i| (i, format!("injected fault at query {i}"))).collect();
    failing.push((13, "distance must not be NaN".to_string()));
    failing.push((16, "different dimension".to_string()));
    let expected = flat_sequential(&index, &queries, &failing);
    for threads in [1usize, 2, 3] {
        assert_flat_batch(&index, &queries, &panics, &expected, threads);
    }
}
