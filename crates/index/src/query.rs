//! Query result types, per-query statistics and shared k-NN bookkeeping.

use dp_metric::Distance;
use dp_permutation::MAX_K;
use std::collections::BinaryHeap;

/// One answer to a proximity query: a database id and its distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Neighbor<D> {
    /// Index of the element in the database the index was built over.
    pub id: usize,
    /// Distance from the query.
    pub dist: D,
}

impl<D: Distance> PartialOrd for Neighbor<D> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<D: Distance> Ord for Neighbor<D> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // (distance, id): deterministic total order mirrors the paper's
        // distance-permutation tie-break.
        self.dist.cmp(&other.dist).then(self.id.cmp(&other.id))
    }
}

/// Cost accounting for one proximity query.
///
/// Proximity-search research compares index structures by **metric
/// evaluations per query** — the metric is assumed to dominate every
/// other cost.  Each [`crate::Searcher`] counts its own evaluations with
/// a plain integer and returns them here, so the count rides along with
/// the answer instead of living in a shared-interior-mutability wrapper
/// ([`crate::CountingMetric`] remains for instrumenting *build* costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Metric (distance-function) evaluations performed for this query.
    pub metric_evals: u64,
}

impl QueryStats {
    /// Stats for a query that performed `metric_evals` evaluations.
    pub const fn new(metric_evals: u64) -> Self {
        Self { metric_evals }
    }

    /// Accumulates another query's stats into this one.
    pub fn merge(&mut self, other: QueryStats) {
        self.metric_evals += other.metric_evals;
    }
}

impl std::ops::Add for QueryStats {
    type Output = QueryStats;

    fn add(mut self, rhs: QueryStats) -> QueryStats {
        self.merge(rhs);
        self
    }
}

impl std::iter::Sum for QueryStats {
    fn sum<I: Iterator<Item = QueryStats>>(iter: I) -> QueryStats {
        iter.fold(QueryStats::default(), |acc, s| acc + s)
    }
}

/// A bounded max-heap tracking the k nearest candidates seen so far.
#[derive(Debug, Clone)]
pub struct KnnHeap<D> {
    k: usize,
    heap: BinaryHeap<Neighbor<D>>,
}

impl<D: Distance> KnnHeap<D> {
    /// Creates a collector for the `k` nearest neighbours.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k-NN with k = 0");
        Self { k, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// Offers a candidate.
    ///
    /// A full heap keeps the candidate only if it sorts below the
    /// current worst by `(distance, id)`; it then replaces that worst in
    /// place.  Anything else leaves the heap untouched, which is what a
    /// push followed by popping the maximum would leave.
    pub fn push(&mut self, id: usize, dist: D) {
        let candidate = Neighbor { id, dist };
        if self.heap.len() < self.k {
            self.heap.push(candidate);
        } else if let Some(mut worst) = self.heap.peek_mut() {
            if candidate < *worst {
                *worst = candidate;
            }
        }
    }

    /// Current pruning bound: the k-th best distance, if k candidates have
    /// been seen.
    pub fn bound(&self) -> Option<D> {
        (self.heap.len() == self.k).then(|| self.heap.peek().expect("non-empty").dist)
    }

    /// Finishes the query: neighbours sorted by (distance, id).
    pub fn into_sorted(self) -> Vec<Neighbor<D>> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

/// Bits of a packed candidate-order word that hold the database id;
/// the ordering distance sits in the bits above them.
const ORDER_ID_BITS: u32 = 48;

/// Largest ordering distance between two keys of at most [`MAX_K`]
/// sites: the footrule over keys clamped to ℓ ≤ k, whose k fields each
/// differ by at most ℓ, is at most k², which is 1,024 at k = 32.  The
/// full footrule's ⌊k²/2⌋ is smaller.
pub(crate) const MAX_ORDERING_DISTANCE: u64 = (MAX_K * MAX_K) as u64;

const _: () = assert!(MAX_ORDERING_DISTANCE < 1 << (u64::BITS - ORDER_ID_BITS));

/// Asserts that every id of an `n`-row database fits the id field of a
/// packed candidate-order word; the permutation-family indexes call it
/// once when they are built or loaded.
pub(crate) fn assert_order_ids_fit(n: usize) {
    assert!(
        (n as u64) < 1 << ORDER_ID_BITS,
        "{n} rows exceed the 2^{ORDER_ID_BITS} ids a candidate order can hold"
    );
}

/// The database id held in a packed candidate-order word.
#[inline]
pub(crate) fn order_id(word: u64) -> usize {
    (word & ((1 << ORDER_ID_BITS) - 1)) as usize
}

/// Fills `order` with the `budget` candidates nearest by `keys` (one
/// ordering distance per database id), in `(key, id)` order — the
/// budgeted candidate ordering the key column runs for every
/// permutation-family searcher.
///
/// Each entry is one word, `key << 48 | id`.  Keys never exceed
/// [`MAX_ORDERING_DISTANCE`] and ids stay below 2⁴⁸
/// ([`assert_order_ids_fit`]), so comparing words compares `(key, id)`
/// pairs, and the words are distinct.  Partitioning with
/// `select_nth_unstable` and sorting only the prefix therefore yields
/// **exactly** the prefix a full sort would — O(n + budget·log budget)
/// instead of O(n·log n).
///
/// **Full budget builds no order.**  When `budget` reaches the
/// candidate count, `order` is left empty and `keys` is never
/// evaluated: every candidate gets measured, and neither the k-NN heap
/// (the k smallest by `(distance, id)`) nor the sorted range output
/// depends on the order candidates arrive in, so the scans walk ids in
/// storage order instead.  A zero budget also leaves `order` empty.
pub(crate) fn budgeted_order(
    keys: impl ExactSizeIterator<Item = u64>,
    budget: usize,
    order: &mut Vec<u64>,
) {
    order.clear();
    if budget == 0 || budget >= keys.len() {
        return;
    }
    order.extend(keys.enumerate().map(|(id, key)| {
        debug_assert!(key <= MAX_ORDERING_DISTANCE, "ordering distance {key} out of range");
        (key << ORDER_ID_BITS) | id as u64
    }));
    order.select_nth_unstable(budget - 1);
    order.truncate(budget);
    order.sort_unstable();
}

/// Validates a scan-budget fraction (shared by every budgeted scan).
#[inline]
pub(crate) fn assert_frac(frac: f64) {
    assert!((0.0..=1.0).contains(&frac), "frac must be in [0,1], got {frac}");
}

/// Scan budget for budgeted k-NN: `⌈frac·n⌉` clamped to `[min(k, n), n]`.
#[inline]
pub(crate) fn knn_budget(n: usize, k: usize, frac: f64) -> usize {
    ((frac * n as f64).ceil() as usize).clamp(k.min(n), n)
}

/// Scan budget for budgeted range queries: `⌈frac·n⌉` clamped to `n`
/// (no k floor).
#[inline]
pub(crate) fn range_budget(n: usize, frac: f64) -> usize {
    ((frac * n as f64).ceil() as usize).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut h = KnnHeap::new(3);
        for (id, d) in [(0, 50u64), (1, 10), (2, 40), (3, 20), (4, 30)] {
            h.push(id, d);
        }
        let out = h.into_sorted();
        assert_eq!(
            out,
            vec![
                Neighbor { id: 1, dist: 10 },
                Neighbor { id: 3, dist: 20 },
                Neighbor { id: 4, dist: 30 }
            ]
        );
    }

    #[test]
    fn bound_appears_once_full() {
        let mut h = KnnHeap::new(2);
        assert_eq!(h.bound(), None);
        h.push(0, 5u64);
        assert_eq!(h.bound(), None);
        h.push(1, 9);
        assert_eq!(h.bound(), Some(9));
        h.push(2, 1);
        assert_eq!(h.bound(), Some(5));
    }

    #[test]
    fn ties_resolved_by_id() {
        let mut h = KnnHeap::new(2);
        h.push(7, 3u64);
        h.push(2, 3);
        h.push(5, 3);
        let out = h.into_sorted();
        assert_eq!(out.iter().map(|n| n.id).collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn push_resolves_distance_ties_by_id() {
        // The heap orders candidates by (distance, id): on a full heap a
        // candidate at exactly the bound distance displaces the
        // incumbent only if its id is smaller.
        let mut h = KnnHeap::new(2);
        h.push(3, 5u64);
        h.push(6, 5);
        assert_eq!(h.bound(), Some(5));

        // Larger-id tie: pushed, silently dropped.
        h.push(9, 5);
        assert_eq!(h.clone().into_sorted().iter().map(|n| n.id).collect::<Vec<_>>(), vec![3, 6]);

        // Smaller-id tie: displaces the largest-id incumbent.
        h.push(1, 5);
        assert_eq!(h.into_sorted().iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "k = 0")]
    fn zero_k_rejected() {
        let _ = KnnHeap::<u64>::new(0);
    }

    #[test]
    fn query_stats_sum_and_merge() {
        let total: QueryStats =
            [QueryStats::new(3), QueryStats::new(4), QueryStats::default()].into_iter().sum();
        assert_eq!(total, QueryStats::new(7));
        let mut s = QueryStats::new(1);
        s.merge(QueryStats::new(2));
        assert_eq!(s + QueryStats::new(10), QueryStats::new(13));
    }

    /// `budgeted_order`'s output unpacked to `(key, id)` pairs, checking
    /// that each word carries its id's key in the high bits.
    fn unpacked(order: &[u64], keys: &[u64]) -> Vec<(u64, usize)> {
        order
            .iter()
            .map(|&word| {
                let id = order_id(word);
                assert_eq!(word >> ORDER_ID_BITS, keys[id], "key bits of id {id}");
                (keys[id], id)
            })
            .collect()
    }

    /// The ordering `budgeted_order` replaced: every `(key, id)` pair,
    /// fully sorted.
    fn full_sort(keys: &[u64]) -> Vec<(u64, usize)> {
        let mut pairs: Vec<(u64, usize)> = keys.iter().copied().zip(0..).collect();
        pairs.sort_unstable();
        pairs
    }

    #[test]
    fn budgeted_order_builds_nothing_at_full_budget() {
        // Below n (down to n − 1) the order is the full sort's prefix; at
        // n and beyond it stays empty and no key is evaluated, because
        // the scans then walk every id in storage order.  An empty
        // candidate list accepts any budget.
        let keys: Vec<u64> = (0..10).map(|i| (i * 37) % 11).collect();
        let n = keys.len();
        let full = full_sort(&keys);
        let mut got = Vec::new();
        budgeted_order(keys.iter().copied(), n - 1, &mut got);
        assert_eq!(unpacked(&got, &keys), &full[..n - 1]);
        for budget in [n, n + 1, n + 100] {
            let mut got = vec![7u64];
            let evaluated = std::cell::Cell::new(0usize);
            let counted = keys.iter().map(|&key| {
                evaluated.set(evaluated.get() + 1);
                key
            });
            budgeted_order(counted, budget, &mut got);
            assert!(got.is_empty(), "budget {budget}");
            assert_eq!(evaluated.get(), 0, "budget {budget} evaluated keys");
        }
        for budget in [0usize, 1, 5] {
            let mut got = vec![0u64];
            budgeted_order(std::iter::empty(), budget, &mut got);
            assert!(got.is_empty(), "budget {budget} over empty candidates");
        }
    }

    #[test]
    fn budgeted_order_matches_full_sort_prefix() {
        // Heavy key ties (1000 values over 97 ids, plus the extremes of
        // the key range) so the id bits decide many places.
        let mut keys: Vec<u64> = (0..97).map(|i| (i * 7919) % 1000).collect();
        keys[5] = MAX_ORDERING_DISTANCE;
        keys[6] = 0;
        let full = full_sort(&keys);
        for budget in [0usize, 1, 13, 95, 96] {
            let mut got = Vec::new();
            budgeted_order(keys.iter().copied(), budget, &mut got);
            assert_eq!(unpacked(&got, &keys), &full[..budget], "budget {budget}");
        }
    }

    #[test]
    fn full_heap_push_matches_push_then_pop() {
        // The old push: insert, then pop the maximum once over k.  Random
        // streams with only four distinct distances, so most decisions
        // fall to the id tie-break.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        for round in 0..300 {
            let k = 1 + round % 6;
            let len = rng.random_range(0..40usize);
            let mut ids: Vec<usize> = (0..len).collect();
            for i in (1..len).rev() {
                ids.swap(i, rng.random_range(0..=i));
            }
            let mut heap = KnnHeap::new(k);
            let mut reference = BinaryHeap::new();
            for id in ids {
                let dist = rng.random_range(0..4u64);
                heap.push(id, dist);
                reference.push(Neighbor { id, dist });
                if reference.len() > k {
                    reference.pop();
                }
                assert_eq!(
                    heap.bound(),
                    (reference.len() == k).then(|| reference.peek().unwrap().dist)
                );
            }
            let mut expected = reference.into_vec();
            expected.sort_unstable();
            assert_eq!(heap.into_sorted(), expected, "round {round}");
        }
    }

    #[test]
    fn budget_helpers_clamp_to_database_size() {
        assert_eq!(knn_budget(10, 3, 1.0), 10);
        assert_eq!(knn_budget(10, 3, 0.0), 3);
        assert_eq!(knn_budget(10, 25, 0.0), 10, "k > n floors at n");
        assert_eq!(knn_budget(10, 25, 1.0), 10);
        assert_eq!(range_budget(10, 1.0), 10);
        assert_eq!(range_budget(10, 0.0), 0);
        assert_eq!(range_budget(3, 0.5), 2);
    }
}
