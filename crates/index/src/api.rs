//! The unified proximity-query API: [`ProximityIndex`] / [`Searcher`]
//! and the budgeted [`ApproxSearcher`].
//!
//! Every index type in this crate answers queries through the same
//! two-level surface:
//!
//! * the **index** is the immutable, shareable (`Sync`) build product —
//!   points, pivot tables, trees, permutations;
//! * a **searcher** is a cheap per-session cursor obtained from
//!   [`ProximityIndex::searcher`].  It owns all per-query scratch
//!   (permutation computers, lower-bound arrays, candidate buffers), so a
//!   stream of queries through one searcher performs no per-query
//!   allocation beyond the result vector, and a searcher is `Send` — one
//!   per worker thread is exactly the shape of
//!   [`crate::serve::query_batch_parallel`].  [`Searcher::knn_batch`]
//!   lets a session answer several exact k-NN queries in one pass.
//!
//! Every query returns `(Vec<Neighbor>, QueryStats)`: the field's cost
//! model (metric evaluations per query) is counted natively by the
//! searcher and travels with the answer, so no interior-mutability
//! metric wrapper sits on the hot path.
//!
//! Exactness contract: [`Searcher::knn`] and [`Searcher::range`] return
//! answers identical to [`crate::LinearScan`] over the same database
//! (sorted by `(distance, id)`); the property suite enforces this for
//! every index type.  The permutation-family indexes additionally
//! implement [`ApproxSearcher`], whose budgeted queries trade recall for
//! evaluations and coincide with the exact answers at `frac = 1.0`.

use crate::query::{Neighbor, QueryStats};
use dp_metric::Distance;

/// An immutable proximity-search index over points of type `P`.
///
/// The index owns its metric and database; queries run through a
/// [`Searcher`] session created by [`Self::searcher`].  Implementations
/// are `Sync`, so one index can serve many concurrent searchers.
pub trait ProximityIndex<P: ?Sized>: Sync {
    /// The totally ordered distance values this index's metric produces.
    type Dist: Distance;

    /// The per-session query cursor; owns all per-query scratch and is
    /// `Send` so sessions can be handed to worker threads.
    type Searcher<'s>: Searcher<P, Dist = Self::Dist> + Send
    where
        Self: 's;

    /// Number of indexed elements.
    fn size(&self) -> usize;

    /// Creates a query session.  Sessions are cheap, independent, and
    /// reusable: a searcher serving its thousandth query returns exactly
    /// what a fresh searcher would.
    fn searcher(&self) -> Self::Searcher<'_>;

    /// One-shot exact k-NN (builds a throwaway session).
    fn query_knn(&self, query: &P, k: usize) -> (Vec<Neighbor<Self::Dist>>, QueryStats) {
        self.searcher().knn(query, k)
    }

    /// One-shot exact range query (builds a throwaway session).
    fn query_range(
        &self,
        query: &P,
        radius: Self::Dist,
    ) -> (Vec<Neighbor<Self::Dist>>, QueryStats) {
        self.searcher().range(query, radius)
    }
}

/// A reusable query session over some [`ProximityIndex`].
///
/// Methods take `&mut self` only to reuse scratch buffers; a searcher
/// holds no answer-relevant state between queries.
pub trait Searcher<P: ?Sized> {
    /// The distance type of the underlying index.
    type Dist: Distance;

    /// The k nearest neighbours of `query`, sorted by `(distance, id)` —
    /// identical to a linear scan's answer.
    ///
    /// `k = 0` returns an empty result with zero evaluations; this holds
    /// uniformly across implementations.
    fn knn(&mut self, query: &P, k: usize) -> (Vec<Neighbor<Self::Dist>>, QueryStats);

    /// Exact k-NN for several queries at once: one response per query,
    /// in order, each identical — neighbours and stats — to
    /// [`Self::knn`] on that query alone.
    ///
    /// The serving dispatcher hands a worker's exact k-NN queries of
    /// equal k here together.  The default loops over [`Self::knn`];
    /// an index that can answer several queries in one pass over its
    /// data overrides it ([`crate::FlatDistPermSearcher`] streams its
    /// rows once for all of them).  A panic on any query may abort the
    /// whole call.
    fn knn_batch(
        &mut self,
        queries: &[&P],
        k: usize,
    ) -> Vec<(Vec<Neighbor<Self::Dist>>, QueryStats)> {
        queries.iter().map(|query| self.knn(query, k)).collect()
    }

    /// All elements within `radius` of `query` (inclusive), sorted by
    /// `(distance, id)` — identical to a linear scan's answer.
    fn range(&mut self, query: &P, radius: Self::Dist) -> (Vec<Neighbor<Self::Dist>>, QueryStats);
}

/// A query session that also supports budgeted (approximate) queries.
///
/// `frac` is the fraction of the database the searcher may measure true
/// distances against, chosen in candidate-similarity order
/// (Chávez–Figueroa–Navarro).  `frac = 1.0` measures everything and is
/// exact; smaller budgets trade recall for evaluations.  Range results
/// are always a subset of the true answer (no false positives).
pub trait ApproxSearcher<P: ?Sized>: Searcher<P> {
    /// Budgeted k-NN over the `frac` most similar fraction of the
    /// database.
    ///
    /// # Panics
    /// Panics if `frac` is outside `[0, 1]`.
    fn knn_approx(
        &mut self,
        query: &P,
        k: usize,
        frac: f64,
    ) -> (Vec<Neighbor<Self::Dist>>, QueryStats);

    /// Budgeted range query over the `frac` most similar fraction of the
    /// database.
    ///
    /// # Panics
    /// Panics if `frac` is outside `[0, 1]`.
    fn range_approx(
        &mut self,
        query: &P,
        radius: Self::Dist,
        frac: f64,
    ) -> (Vec<Neighbor<Self::Dist>>, QueryStats);
}
