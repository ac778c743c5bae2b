//! The resilient batch engine.
//!
//! [`serve_resilient`] is the serving loop's workhorse.  It runs a batch
//! of (possibly heterogeneous) queries through the serving dispatcher
//! shared with [`crate::serve::query_batch_parallel`]: warm per-worker
//! [`crate::Searcher`] sessions claim runs of up to eight consecutive
//! query indices from an atomic cursor, so a skewed batch — budgeted
//! queries whose per-query cost varies wildly (see "Cardinality of
//! Balls in Permutation Spaces", Dinu & Zara, on why candidate-set sizes
//! spread so far) — cannot strand a worker idle behind a fixed share of
//! heavy queries.  Within a run, the exact k-NN queries of equal k are
//! answered by one sweep ([`crate::Searcher::knn_batch`]); on the flat
//! permutation index that is one pass over the rows for all of them.
//!
//! Robustness layers applied per query, in order:
//!
//! 1. **deadline** ([`Deadline`]): checked for every query of a run when
//!    the run is claimed, before any of it is served; expired ⇒ the
//!    request downgrades to its budgeted form at the batch's degrade
//!    fraction.  A run therefore holds at most eight queries admitted
//!    before the deadline that are served after it;
//! 2. **panic isolation** ([`super::isolate`]): each query's injected
//!    faults fire under their own guard as it is admitted, and each
//!    query served alone runs under `catch_unwind`; a panic becomes
//!    [`Outcome::Failed`] and the worker's searcher is rebuilt.  A sweep
//!    runs under one guard; if it panics, its queries are served again
//!    one at a time, so a NaN or wrong-dimension query fails alone;
//! 3. **determinism**: outcomes land in query order regardless of which
//!    worker served them, so the zero-fault, no-deadline path returns
//!    responses bit-identical to one searcher serving the batch in
//!    order, at any thread count.

use crate::api::{ApproxSearcher, ProximityIndex, Searcher};
use crate::serve::deadline::{BatchReport, Deadline, Outcome, ServeRequest};
use crate::serve::isolate::{run_guarded, FaultPlan, QueryError};
use crate::serve::{dispatch, run_one, run_one_approx, ApproxRequest, Request};
use std::borrow::Borrow;
use std::time::{Duration, Instant};

/// Tuning and policy knobs for one resiliently served batch.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads (clamped to `[1, queries]`; `<= 1` runs inline).
    pub threads: usize,
    /// Soft deadline after which remaining queries degrade
    /// (`None` = never).
    pub soft_deadline: Option<Duration>,
    /// Scan fraction served once the deadline has expired.
    pub degrade_frac: f64,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self { threads: 1, soft_deadline: None, degrade_frac: 0.25 }
    }
}

impl BatchOptions {
    /// Default options at `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        Self { threads, ..Self::default() }
    }

    /// Sets the soft deadline.
    pub fn deadline(mut self, soft: Duration) -> Self {
        self.soft_deadline = Some(soft);
        self
    }

    /// Sets the degrade fraction.
    ///
    /// # Panics
    /// Panics if `frac` is outside `[0, 1]`.
    pub fn degrade(mut self, frac: f64) -> Self {
        // dplint: allow(panic-boundary, reason = "documented precondition on the
        // operator-facing builder, caught at configuration time — never reachable
        // from query traffic, which min-clamps frac in the protocol layer")
        assert!((0.0..=1.0).contains(&frac), "degrade frac must be in [0,1], got {frac}");
        self.degrade_frac = frac;
        self
    }
}

/// Per-batch serving policy shared (immutably) by every worker.
struct BatchContext<'b> {
    deadline: Deadline,
    degrade_frac: f64,
    faults: &'b FaultPlan,
}

/// Serves one query alone under its own unwind guard: exact, or
/// through the budgeted surface when `degraded` holds its downgraded
/// request.  A panic becomes [`Outcome::Failed`] and the worker's
/// searcher is rebuilt, since its scratch may be mid-mutation.
fn serve_alone<'i, P, I>(
    index: &'i I,
    searcher: &mut I::Searcher<'i>,
    i: usize,
    query: &P,
    request: ServeRequest<I::Dist>,
    degraded: Option<ApproxRequest<I::Dist>>,
) -> Outcome<I::Dist>
where
    P: ?Sized,
    I: ProximityIndex<P>,
    I::Searcher<'i>: ApproxSearcher<P>,
{
    let attempt = run_guarded(|| match (degraded, request) {
        (Some(req), _) => run_one_approx(searcher, query, req),
        (None, ServeRequest::Exact(req)) => run_one(searcher, query, req),
        (None, ServeRequest::Approx(req)) => run_one_approx(searcher, query, req),
    });
    match attempt {
        Ok(response) => match degraded {
            Some(req) => Outcome::Degraded { response, frac: req.frac() },
            None => Outcome::Ok(response),
        },
        Err(message) => {
            *searcher = index.searcher();
            Outcome::Failed(QueryError { index: i, message })
        }
    }
}

/// Serves one claimed run of queries, `run[j]` being query `first + j`,
/// with every robustness layer applied; never panics for query-level
/// failures (index-level failures — a searcher that cannot even be
/// *rebuilt* — still propagate, because nothing can be served without a
/// session).
///
/// Every query of the run is admitted when the run is claimed, in
/// order: its deadline check, then its injected faults under its own
/// guard.  Exact k-NN queries that were admitted undegraded are then
/// answered by one [`crate::Searcher::knn_batch`] sweep per distinct k;
/// every other query is served alone.  If a sweep panics, the searcher
/// is rebuilt and the sweep's queries are served again one at a time,
/// each under its own guard, so only the queries that panic alone fail.
fn serve_run<'i, P, Q, I, RF>(
    ctx: &BatchContext<'_>,
    index: &'i I,
    searcher: &mut I::Searcher<'i>,
    first: usize,
    run: &[Q],
    request_of: &RF,
) -> Vec<Outcome<I::Dist>>
where
    P: ?Sized,
    Q: Borrow<P>,
    I: ProximityIndex<P>,
    I::Searcher<'i>: ApproxSearcher<P>,
    RF: Fn(usize) -> ServeRequest<I::Dist>,
{
    let mut served: Vec<(usize, Outcome<I::Dist>)> = Vec::with_capacity(run.len());
    let mut sweeps: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut alone: Vec<(usize, Option<ApproxRequest<I::Dist>>)> = Vec::new();
    for j in 0..run.len() {
        let i = first + j;
        let request = request_of(i);
        let degraded = ctx.deadline.expired().then(|| request.degraded(ctx.degrade_frac));
        if !ctx.faults.is_empty() {
            if let Err(message) = run_guarded(|| ctx.faults.fire(i)) {
                served.push((j, Outcome::Failed(QueryError { index: i, message })));
                continue;
            }
        }
        match (degraded, request) {
            (None, ServeRequest::Exact(Request::Knn { k })) => {
                match sweeps.iter_mut().find(|(swept_k, _)| *swept_k == k) {
                    Some((_, members)) => members.push(j),
                    None => sweeps.push((k, vec![j])),
                }
            }
            (degraded, _) => alone.push((j, degraded)),
        }
    }
    for (k, members) in sweeps {
        let swept: Vec<&P> = members.iter().map(|&j| run[j].borrow()).collect();
        match run_guarded(|| searcher.knn_batch(&swept, k)) {
            Ok(responses) => {
                served.extend(members.into_iter().zip(responses).map(|(j, r)| (j, Outcome::Ok(r))));
            }
            Err(_) => {
                *searcher = index.searcher();
                alone.extend(members.into_iter().map(|j| (j, None)));
            }
        }
    }
    for (j, degraded) in alone {
        let i = first + j;
        let outcome = serve_alone(index, searcher, i, run[j].borrow(), request_of(i), degraded);
        served.push((j, outcome));
    }
    served.sort_unstable_by_key(|&(j, _)| j);
    served.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Serves a batch with panic isolation and deadline-aware degradation;
/// `request_of(i)` names each query's request, so heterogeneous batches
/// (mixed k-NN/range/budgets) are first-class.
///
/// Outcomes are returned in query order.  With an empty [`FaultPlan`]
/// and no soft deadline every outcome is [`Outcome::Ok`] and the
/// responses are **bit-identical** to one searcher serving the same
/// requests in order, at any thread count — enforced by the
/// release-mode robustness suite.
pub fn serve_resilient<'i, P, Q, I, RF>(
    index: &'i I,
    queries: &[Q],
    request_of: RF,
    options: &BatchOptions,
    faults: &FaultPlan,
) -> BatchReport<I::Dist>
where
    P: ?Sized,
    Q: Borrow<P> + Sync,
    I: ProximityIndex<P>,
    I::Searcher<'i>: ApproxSearcher<P>,
    RF: Fn(usize) -> ServeRequest<I::Dist> + Sync,
{
    let start = Instant::now();
    let ctx = BatchContext {
        deadline: Deadline::after(options.soft_deadline),
        degrade_frac: options.degrade_frac,
        faults,
    };
    let outcomes = dispatch(index, queries, options.threads, |searcher, first, run| {
        serve_run(&ctx, index, searcher, first, run, &request_of)
    });
    BatchReport { outcomes, elapsed: start.elapsed() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laesa::PivotSelection;
    use crate::serve::tests::sequential;
    use crate::DistPermIndex;
    use dp_metric::L2;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect()
    }

    #[test]
    fn clean_batch_matches_one_searcher_bit_for_bit() {
        let pts = random_points(300, 3, 1);
        let idx = DistPermIndex::build(L2, pts, 8, PivotSelection::MaxMin);
        let queries = random_points(29, 3, 2);
        let request = Request::Knn { k: 4 };
        let baseline = sequential(&idx, &queries, |s, q| s.knn(q, 4));
        for threads in [0usize, 1, 2, 5, 29, 30, 64] {
            let report = serve_resilient(
                &idx,
                &queries,
                |_| ServeRequest::Exact(request),
                &BatchOptions::with_threads(threads),
                &FaultPlan::none(),
            );
            assert_eq!(report.ok_responses().expect("clean batch"), baseline, "threads={threads}");
        }
    }

    #[test]
    fn injected_panics_become_failed_outcomes() {
        let pts = random_points(200, 2, 3);
        let idx = DistPermIndex::build(L2, pts, 6, PivotSelection::MaxMin);
        let queries = random_points(17, 2, 4);
        let request = Request::Knn { k: 2 };
        let baseline = sequential(&idx, &queries, |s, q| s.knn(q, 2));
        let faults = FaultPlan::none().panic_on_all([0, 7, 16]);
        for threads in [1usize, 3] {
            let report = serve_resilient(
                &idx,
                &queries,
                |_| ServeRequest::Exact(request),
                &BatchOptions::with_threads(threads),
                &faults,
            );
            assert_eq!(report.failed(), 3);
            for (i, outcome) in report.outcomes.iter().enumerate() {
                if [0, 7, 16].contains(&i) {
                    let err = outcome.error().expect("failed slot");
                    assert_eq!(err.index, i);
                    assert!(err.message.contains("injected fault"), "{err}");
                } else {
                    assert_eq!(outcome.response().expect("served"), &baseline[i], "query {i}");
                }
            }
        }
    }

    #[test]
    fn expired_deadline_degrades_every_query() {
        let pts = random_points(400, 3, 5);
        let idx = DistPermIndex::build(L2, pts, 8, PivotSelection::MaxMin);
        let queries = random_points(13, 3, 6);
        let request = Request::Knn { k: 3 };
        // Deadline already expired at dispatch: every query downgrades
        // to the budgeted path, deterministically.
        let options = BatchOptions::with_threads(2).deadline(Duration::ZERO).degrade(0.2);
        let report = serve_resilient(
            &idx,
            &queries,
            |_| ServeRequest::Exact(request),
            &options,
            &FaultPlan::none(),
        );
        assert_eq!(report.degraded(), queries.len());
        let expected = sequential(&idx, &queries, |s, q| s.knn_approx(q, 3, 0.2));
        for (i, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                Outcome::Degraded { response, frac } => {
                    assert_eq!(*frac, 0.2);
                    assert_eq!(response, &expected[i], "query {i}");
                }
                other => panic!("query {i}: expected degraded, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_batch_yields_empty_report() {
        let pts = random_points(50, 2, 7);
        let idx = DistPermIndex::build(L2, pts, 4, PivotSelection::MaxMin);
        let queries: Vec<Vec<f64>> = Vec::new();
        let report = serve_resilient(
            &idx,
            &queries,
            |_| ServeRequest::Exact(Request::Knn { k: 1 }),
            &BatchOptions::with_threads(8),
            &FaultPlan::none(),
        );
        assert!(report.outcomes.is_empty());
        assert_eq!(report.ok_responses(), Some(Vec::new()));
    }

    #[test]
    fn heterogeneous_requests_serve_per_query() {
        let pts = random_points(150, 2, 8);
        let idx = DistPermIndex::build(L2, pts, 5, PivotSelection::MaxMin);
        let queries = random_points(6, 2, 9);
        let requests: Vec<ServeRequest<_>> = (0..queries.len())
            .map(|i| {
                if i % 2 == 0 {
                    ServeRequest::Exact(Request::Knn { k: 1 + i })
                } else {
                    ServeRequest::Approx(ApproxRequest::Knn { k: 2, frac: 0.3 })
                }
            })
            .collect();
        let report = serve_resilient(
            &idx,
            &queries,
            |i| requests[i],
            &BatchOptions::with_threads(3),
            &FaultPlan::none(),
        );
        for (i, outcome) in report.outcomes.iter().enumerate() {
            let (neighbors, stats) = outcome.response().expect("served");
            let (expected, expected_stats) = match requests[i] {
                ServeRequest::Exact(Request::Knn { k }) => idx.query_knn(&queries[i], k),
                ServeRequest::Approx(ApproxRequest::Knn { k, frac }) => {
                    idx.searcher().knn_approx(&queries[i], k, frac)
                }
                _ => unreachable!(),
            };
            assert_eq!(neighbors, &expected, "query {i}");
            assert_eq!(stats, &expected_stats, "query {i}");
        }
    }
}
