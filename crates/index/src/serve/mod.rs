//! Batch query serving over any [`ProximityIndex`].
//!
//! The serving model is the one the trait family was shaped for: the
//! index is built once and shared (`Sync`), each worker owns one
//! [`Searcher`] session, and workers claim runs of up to eight
//! consecutive queries from a shared atomic cursor.  The exact k-NN
//! queries of equal k in a run are answered by one sweep,
//! [`Searcher::knn_batch`]: on [`crate::FlatDistPermIndex`] that is one
//! pass over the rows for all of them, and on every other index a loop
//! over [`Searcher::knn`].  Every other query is served alone.  Results
//! are put back in query order, so the output is **deterministic** and
//! [`query_batch_parallel`] returns bit-identical results (and stats)
//! at every thread count, `threads = 1` being the sequential path.  That
//! equivalence holds because a reused searcher answers exactly like a
//! fresh one, and a sweep exactly like its queries served alone, which
//! the cross-crate property suites enforce.
//!
//! Workers are scoped threads ([`dp_metric::par::fork_join`]), so
//! queries may borrow from the caller's stack and no `'static` bounds
//! infect the API.
//!
//! # Serving & failure model
//!
//! The strict batch API above is one-shot: a panicking query takes the
//! whole batch with it, re-raised with its own message.  The submodules
//! layer a fault-tolerant serving subsystem on the same dispatcher, used
//! by `distperm serve`:
//!
//! - [`steal`] — [`serve_resilient`]: the resilient engine.  Per query
//!   it applies the deadline and panic isolation below, both decided
//!   when the query's run is claimed; with no faults and no deadline its
//!   responses are **bit-identical** to [`query_batch_parallel`] at any
//!   thread count.
//! - [`isolate`] — panic isolation: each query runs under
//!   `catch_unwind`; a panic becomes a structured [`QueryError`] in
//!   that query's slot and the worker's searcher is rebuilt.  The
//!   test-only [`FaultPlan`] injects panics and delays to prove it.
//! - [`deadline`] — graceful degradation: past a batch's soft deadline,
//!   queries in runs claimed from then on downgrade to budgeted queries
//!   at the configured fraction, flagged [`Outcome::Degraded`] with the
//!   fraction served.  Degradation never raises a client's own budget.
//! - [`protocol`] — the line-delimited request protocol: a typed,
//!   panic-free parser whose errors are per-line replies, so a session
//!   survives arbitrary garbage input.
//! - [`session`] — the serving loop: a bounded admission queue
//!   (explicit `shed` replies once full — backpressure is visible, not
//!   silent), a reader thread, and per-batch accounting
//!   ([`SessionSummary`]).

pub mod deadline;
pub mod isolate;
pub mod protocol;
pub mod session;
pub mod steal;

pub use deadline::{BatchReport, Deadline, Outcome, ServeRequest};
pub use isolate::{FaultPlan, QueryError};
pub use protocol::{Frame, LineParser, ProtocolError, QueryKind};
pub use session::{serve_session, SessionConfig, SessionSummary};
pub use steal::{serve_resilient, BatchOptions};

use crate::api::{ApproxSearcher, ProximityIndex, Searcher};
use crate::query::{Neighbor, QueryStats};
use dp_metric::par::fork_join;
use std::borrow::Borrow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One batched query request, applied to every query point in the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<D> {
    /// Exact k nearest neighbours.
    Knn {
        /// Number of neighbours.
        k: usize,
    },
    /// Exact range query (inclusive radius).
    Range {
        /// Search radius.
        radius: D,
    },
}

/// One batched *budgeted* query request (see [`ApproxSearcher`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ApproxRequest<D> {
    /// Budgeted k-NN over the `frac` most similar database fraction.
    Knn {
        /// Number of neighbours.
        k: usize,
        /// Scan budget in `[0, 1]`; `1.0` is exact.
        frac: f64,
    },
    /// Budgeted range query over the `frac` most similar fraction.
    Range {
        /// Search radius.
        radius: D,
        /// Scan budget in `[0, 1]`; `1.0` is exact.
        frac: f64,
    },
}

impl<D> ApproxRequest<D> {
    /// The request's scan budget in `[0, 1]`.
    pub fn frac(&self) -> f64 {
        match self {
            ApproxRequest::Knn { frac, .. } | ApproxRequest::Range { frac, .. } => *frac,
        }
    }
}

/// One query's answer: neighbours plus the query's own cost stats.
pub type Response<D> = (Vec<Neighbor<D>>, QueryStats);

/// Sums the metric-evaluation stats of a batch of responses.
pub fn total_stats<D>(responses: &[Response<D>]) -> QueryStats {
    responses.iter().map(|(_, s)| *s).sum()
}

pub(crate) fn run_one<P: ?Sized, S: Searcher<P>>(
    searcher: &mut S,
    query: &P,
    request: Request<S::Dist>,
) -> Response<S::Dist> {
    match request {
        Request::Knn { k } => searcher.knn(query, k),
        Request::Range { radius } => searcher.range(query, radius),
    }
}

pub(crate) fn run_one_approx<P: ?Sized, S: ApproxSearcher<P>>(
    searcher: &mut S,
    query: &P,
    request: ApproxRequest<S::Dist>,
) -> Response<S::Dist> {
    match request {
        ApproxRequest::Knn { k, frac } => searcher.knn_approx(query, k, frac),
        ApproxRequest::Range { radius, frac } => searcher.range_approx(query, radius, frac),
    }
}

/// Most queries a worker claims from the cursor at once.
///
/// A run lets a worker answer its exact k-NN queries of equal k in one
/// pass over the index ([`Searcher::knn_batch`]).  Eight is where the
/// measured gain of the flat index's shared row sweep levels off; the
/// run is shorter for small batches ([`run_length`]).
const RUN_QUERIES: usize = 8;

/// The run length for a batch of `queries` over `workers` workers:
/// [`RUN_QUERIES`], shrunk to `⌈queries / (2·workers)⌉` so that a
/// small batch still splits into about two runs per worker, and at
/// least 1.
fn run_length(queries: usize, workers: usize) -> usize {
    RUN_QUERIES.min(queries.div_ceil(2 * workers.max(1))).max(1)
}

/// The one batch dispatcher behind every serving entry point.
///
/// Starts `min(threads, queries)` workers, at least one for a non-empty
/// batch; a single worker runs inline on the caller's thread.  Each
/// worker builds one searcher and claims runs of consecutive query
/// indices ([`run_length`] of them) from a shared cursor, so a batch
/// whose per-query cost is skewed cannot strand a worker behind a fixed
/// share of heavy queries.  `serve_run` receives the worker's searcher,
/// the index of the run's first query and the run's queries, and
/// returns one result per query, in order; results come back in query
/// order, whichever worker served them.  A panic in `serve_run`
/// propagates to the caller with its own payload.
fn dispatch<'i, P, Q, I, R, F>(index: &'i I, queries: &[Q], threads: usize, serve_run: F) -> Vec<R>
where
    P: ?Sized,
    Q: Borrow<P> + Sync,
    I: ProximityIndex<P>,
    R: Send,
    F: Fn(&mut I::Searcher<'i>, usize, &[Q]) -> Vec<R> + Sync,
{
    let workers = threads.max(1).min(queries.len());
    let run = run_length(queries.len(), workers);
    let cursor = AtomicUsize::new(0);
    let served = fork_join(0..workers, |_| {
        let mut searcher = index.searcher();
        let mut served = Vec::new();
        loop {
            // ordering: Relaxed suffices — the cursor only hands out
            // disjoint runs (fetch_add is atomic at every ordering) and
            // publishes no other memory; results reach the caller through
            // the worker joins in fork_join.
            let first = cursor.fetch_add(run, Ordering::Relaxed);
            if first >= queries.len() {
                break;
            }
            let claimed = &queries[first..queries.len().min(first + run)];
            served.push((first, serve_run(&mut searcher, first, claimed)));
        }
        served
    });
    let mut runs: Vec<(usize, Vec<R>)> = served.into_iter().flatten().collect();
    runs.sort_unstable_by_key(|&(first, _)| first);
    runs.into_iter().flat_map(|(_, results)| results).collect()
}

/// Serves a batch of queries on `threads` scoped worker threads, one
/// searcher per worker, returning results in query order.
///
/// Queries are anything that borrows as the index's point type — e.g.
/// `Vec<f64>` rows against a `ProximityIndex<[f64]>`.  Bit-identical at
/// every thread count — same answers, same per-query stats — because a
/// reused searcher answers exactly like a fresh one; `threads <= 1`
/// serves sequentially through one searcher without spawning.
pub fn query_batch_parallel<P, Q, I>(
    index: &I,
    queries: &[Q],
    request: Request<I::Dist>,
    threads: usize,
) -> Vec<Response<I::Dist>>
where
    P: ?Sized,
    Q: Borrow<P> + Sync,
    I: ProximityIndex<P>,
{
    dispatch(index, queries, threads, |searcher, _, run| match request {
        Request::Knn { k } => {
            let run: Vec<&P> = run.iter().map(Borrow::borrow).collect();
            searcher.knn_batch(&run, k)
        }
        Request::Range { .. } => {
            run.iter().map(|q| run_one(searcher, q.borrow(), request)).collect()
        }
    })
}

/// [`query_batch_parallel`] for budgeted queries.
pub fn query_batch_parallel_approx<'i, P, Q, I>(
    index: &'i I,
    queries: &[Q],
    request: ApproxRequest<I::Dist>,
    threads: usize,
) -> Vec<Response<I::Dist>>
where
    P: ?Sized,
    Q: Borrow<P> + Sync,
    I: ProximityIndex<P>,
    I::Searcher<'i>: ApproxSearcher<P>,
{
    dispatch(index, queries, threads, |searcher, _, run| {
        run.iter().map(|q| run_one_approx(searcher, q.borrow(), request)).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laesa::PivotSelection;
    use crate::{DistPermIndex, FlatDistPermIndex, LinearScan, VpTree};
    use dp_datasets::VectorSet;
    use dp_metric::{F64Dist, L2};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect()
    }

    /// The oracle: one searcher serving the batch in query order.
    pub(super) fn sequential<'i, P: ?Sized, Q: Borrow<P>, I: ProximityIndex<P>>(
        index: &'i I,
        queries: &[Q],
        mut serve_one: impl FnMut(&mut I::Searcher<'i>, &P) -> Response<I::Dist>,
    ) -> Vec<Response<I::Dist>> {
        let mut searcher = index.searcher();
        queries.iter().map(|q| serve_one(&mut searcher, q.borrow())).collect()
    }

    #[test]
    fn parallel_matches_sequential_on_vptree() {
        let pts = random_points(300, 3, 1);
        let tree = VpTree::build(L2, pts);
        let queries = random_points(37, 3, 2);
        let seq = sequential(&tree, &queries, |s, q| s.knn(q, 3));
        for threads in [1usize, 2, 3, 8, 64] {
            let par = query_batch_parallel(&tree, &queries, Request::Knn { k: 3 }, threads);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn range_requests_match_linear_scan() {
        let pts = random_points(200, 2, 3);
        let scan = LinearScan::new(L2, pts);
        let queries = random_points(11, 2, 4);
        let radius = F64Dist::new(0.3);
        let out = query_batch_parallel(&scan, &queries, Request::Range { radius }, 4);
        assert_eq!(out.len(), queries.len());
        for (q, (neighbors, stats)) in queries.iter().zip(&out) {
            assert_eq!(neighbors, &scan.range(q, radius));
            assert_eq!(stats.metric_evals, 200);
        }
        assert_eq!(total_stats(&out).metric_evals, 200 * 11);
    }

    #[test]
    fn flat_index_serves_vector_rows() {
        let nested = random_points(400, 4, 5);
        let flat = VectorSet::from_nested(&nested);
        let idx = FlatDistPermIndex::build(L2, flat, 8, PivotSelection::MaxMin, 1);
        let queries = VectorSet::from_nested(&random_points(23, 4, 6));
        let rows: Vec<&[f64]> = queries.rows().collect();
        let seq = sequential::<[f64], _, _>(&idx, &rows, |s, q| s.knn(q, 2));
        let par = query_batch_parallel::<[f64], _, _>(&idx, &rows, Request::Knn { k: 2 }, 5);
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 23);
        // k sites + full scan per exact query.
        assert_eq!(seq[0].1, QueryStats::new(8 + 400));
    }

    #[test]
    fn approx_serving_matches_one_shot_sessions() {
        let pts = random_points(500, 3, 7);
        let idx = DistPermIndex::build(L2, pts, 10, PivotSelection::MaxMin);
        let queries = random_points(19, 3, 8);
        let req = ApproxRequest::Knn { k: 3, frac: 0.1 };
        let par = query_batch_parallel_approx(&idx, &queries, req, 3);
        assert_eq!(par.len(), queries.len());
        for (q, (neighbors, stats)) in queries.iter().zip(&par) {
            assert_eq!(neighbors, &idx.knn_approx(q, 3, 0.1));
            assert_eq!(*stats, QueryStats::new(10 + 50));
        }
    }

    #[test]
    fn any_thread_count_matches_the_sequential_loop() {
        // threads = 0, 1, 2, the batch size, one more than it, and
        // oversubscription must all return exactly the answers and stats
        // of one searcher serving the batch in order, empty batches
        // included, on both the exact and the budgeted surface.
        let pts = random_points(120, 3, 12);
        let flat = VectorSet::from_nested(&pts);
        let idx = FlatDistPermIndex::build(L2, flat, 6, PivotSelection::MaxMin, 1);
        let approx_req = ApproxRequest::Knn { k: 3, frac: 0.4 };
        for nq in [0usize, 1, 2, 7, 64, 65] {
            let queries = random_points(nq, 3, 13 + nq as u64);
            let rows: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
            let seq = sequential::<[f64], _, _>(&idx, &rows, |s, q| s.knn(q, 3));
            let seq_approx = sequential::<[f64], _, _>(&idx, &rows, |s, q| s.knn_approx(q, 3, 0.4));
            for threads in [0usize, 1, 2, nq, nq + 1, 64, 1000] {
                let par = query_batch_parallel::<[f64], _, _>(
                    &idx,
                    &rows,
                    Request::Knn { k: 3 },
                    threads,
                );
                assert_eq!(par, seq, "exact: {nq} queries, {threads} threads");
                let par_approx =
                    query_batch_parallel_approx::<[f64], _, _>(&idx, &rows, approx_req, threads);
                assert_eq!(par_approx, seq_approx, "approx: {nq} queries, {threads} threads");
            }
        }
    }

    /// Serves strict k-NN batches on a dim-3 flat index in which one
    /// query — at a run's edge or inside a run — has length 0, dim − 1,
    /// dim + 1 or 2·dim, and checks that each batch panics with the
    /// metric's own dimension message, not a kernel shape message.
    fn serve_wrong_dimension(threads: usize) {
        let flat = VectorSet::from_nested(&random_points(60, 3, 14));
        let idx = FlatDistPermIndex::build(L2, flat, 4, PivotSelection::MaxMin, 1);
        for len in [0usize, 2, 4, 6] {
            for bad in [3usize, 4] {
                let mut queries = random_points(7, 3, 15);
                queries[bad] = vec![0.5; len];
                let rows: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
                let served = std::panic::catch_unwind(|| {
                    query_batch_parallel::<[f64], _, _>(&idx, &rows, Request::Knn { k: 2 }, threads)
                });
                let payload = served.expect_err("a wrong-dimension query must panic");
                let message = isolate::panic_message(payload);
                assert!(
                    message.contains("different dimension"),
                    "length {len} at {bad}, {threads} threads: {message}"
                );
            }
        }
    }

    #[test]
    fn strict_query_panic_keeps_its_message_inline() {
        serve_wrong_dimension(1);
    }

    #[test]
    fn strict_query_panic_keeps_its_message_on_a_worker() {
        serve_wrong_dimension(2);
    }

    #[test]
    fn runs_shrink_to_spread_small_batches() {
        assert_eq!(run_length(0, 0), 1);
        assert_eq!(run_length(1, 1), 1);
        assert_eq!(run_length(7, 1), 4);
        assert_eq!(run_length(7, 2), 2);
        assert_eq!(run_length(64, 2), RUN_QUERIES);
        assert_eq!(run_length(1000, 1), RUN_QUERIES);
    }

    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>(_: T) {}
        let pts = random_points(20, 2, 11);
        let tree = VpTree::build(L2, pts.clone());
        assert_send(tree.searcher());
        let idx = DistPermIndex::build(L2, pts, 4, PivotSelection::Prefix);
        assert_send(idx.searcher());
    }
}
