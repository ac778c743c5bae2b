//! Batch query serving over any [`ProximityIndex`].
//!
//! The serving model is the one the trait family was shaped for: the
//! index is built once and shared (`Sync`), each worker owns one
//! [`Searcher`] session, and a batch of queries is partitioned into
//! contiguous chunks — one per worker — so the output order is
//! **deterministic** and [`query_batch_parallel`] returns bit-identical
//! results (and stats) at every thread count, `threads = 1` being the
//! sequential path.  That equivalence holds because a reused searcher
//! answers exactly like a fresh one, which the cross-crate property
//! suite enforces for every index type.
//!
//! Workers are scoped threads ([`dp_metric::par::fork_join`]), so
//! queries may borrow from the caller's stack and no `'static` bounds
//! infect the API.
//!
//! # Serving & failure model
//!
//! The strict batch API above is one-shot: a panicking query or one
//! slow skewed query takes the whole batch with it.  The submodules
//! layer a fault-tolerant serving subsystem on top, used by
//! `distperm serve`:
//!
//! - [`steal`] — [`serve_resilient`]: the work-stealing engine.
//!   Workers claim query indices off an atomic cursor (default chunk 1)
//!   instead of contiguous splits, so a skewed budgeted batch cannot
//!   strand workers idle; outcomes are merged back into query order, so
//!   the zero-fault, no-deadline path stays **bit-identical** to
//!   [`query_batch_parallel`] at any thread count.
//! - [`isolate`] — panic isolation: each query runs under
//!   `catch_unwind`; a panic becomes a structured [`QueryError`] in
//!   that query's slot and the worker's searcher is rebuilt.  The
//!   test-only [`FaultPlan`] injects panics and delays to prove it.
//! - [`deadline`] — graceful degradation: past a batch's soft deadline,
//!   remaining exact queries downgrade to budgeted queries at the
//!   configured fraction, flagged [`Outcome::Degraded`] with the
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
pub use steal::{query_batch_stealing, serve_resilient, BatchOptions};

use crate::api::{ApproxSearcher, ProximityIndex, Searcher};
use crate::query::{Neighbor, QueryStats};
use dp_metric::par::{chunk_len, fork_join};
use std::borrow::Borrow;

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

/// The one serving engine behind both strict entry points: splits the
/// batch into contiguous chunks, runs `serve_one` on each query through
/// a per-worker searcher, and concatenates chunk results in order.
/// `threads <= 1` (or a single query) runs inline without spawning.  A
/// query panic propagates to the caller, exactly like the sequential
/// path; [`serve_resilient`] is the isolated engine.
fn serve_chunks<'i, P, Q, I, F>(
    index: &'i I,
    queries: &[Q],
    threads: usize,
    serve_one: F,
) -> Vec<Response<I::Dist>>
where
    P: ?Sized,
    Q: Borrow<P> + Sync,
    I: ProximityIndex<P>,
    F: Fn(&mut I::Searcher<'i>, &P) -> Response<I::Dist> + Sync,
{
    if threads <= 1 || queries.len() <= 1 {
        let mut searcher = index.searcher();
        return queries.iter().map(|q| serve_one(&mut searcher, q.borrow())).collect();
    }
    let chunks = fork_join(queries.chunks(chunk_len(queries.len(), threads)), |part| {
        let mut searcher = index.searcher();
        part.iter().map(|q| serve_one(&mut searcher, q.borrow())).collect::<Vec<_>>()
    });
    chunks.into_iter().flatten().collect()
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
    serve_chunks(index, queries, threads, |searcher, q| run_one(searcher, q, request))
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
    serve_chunks(index, queries, threads, |searcher, q| run_one_approx(searcher, q, request))
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

    #[test]
    fn parallel_matches_sequential_on_vptree() {
        let pts = random_points(300, 3, 1);
        let tree = VpTree::build(L2, pts);
        let queries = random_points(37, 3, 2);
        let seq = query_batch_parallel(&tree, &queries, Request::Knn { k: 3 }, 1);
        for threads in [2usize, 3, 8, 64] {
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
        let seq = query_batch_parallel::<[f64], _, _>(&idx, &rows, Request::Knn { k: 2 }, 1);
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
        let seq = query_batch_parallel_approx(&idx, &queries, req, 1);
        let par = query_batch_parallel_approx(&idx, &queries, req, 3);
        assert_eq!(seq, par);
        for (q, (neighbors, stats)) in queries.iter().zip(&seq) {
            assert_eq!(neighbors, &idx.knn_approx(q, 3, 0.1));
            assert_eq!(*stats, QueryStats::new(10 + 50));
        }
    }

    #[test]
    fn empty_batch_and_oversubscribed_threads() {
        let pts = random_points(50, 2, 9);
        let tree = VpTree::build(L2, pts);
        let none: Vec<Vec<f64>> = Vec::new();
        assert!(query_batch_parallel(&tree, &none, Request::Knn { k: 1 }, 8).is_empty());
        let one = random_points(1, 2, 10);
        let out = query_batch_parallel(&tree, &one, Request::Knn { k: 1 }, 8);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn worker_clamp_keeps_results_bit_identical() {
        // Regression suite for the worker-count clamp: threads = 0,
        // threads > queries, and absurd oversubscription must all return
        // exactly the sequential answers and stats, for both the exact
        // and the budgeted serving surfaces.
        let pts = random_points(120, 3, 12);
        let flat = VectorSet::from_nested(&pts);
        let idx = FlatDistPermIndex::build(L2, flat, 6, PivotSelection::MaxMin, 1);
        for nq in [0usize, 1, 2, 7] {
            let queries = random_points(nq, 3, 13 + nq as u64);
            let rows: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
            let seq = query_batch_parallel::<[f64], _, _>(&idx, &rows, Request::Knn { k: 3 }, 1);
            let approx_req = ApproxRequest::Knn { k: 3, frac: 0.4 };
            let seq_approx = query_batch_parallel_approx::<[f64], _, _>(&idx, &rows, approx_req, 1);
            for threads in [0usize, 1, nq, nq + 1, 1000] {
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
