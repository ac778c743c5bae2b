//! The `distperm` index over flat [`VectorSet`] storage.
//!
//! [`FlatDistPermIndex`] is the vector-workload specialisation of
//! [`crate::DistPermIndex`]: points live in one contiguous row-major
//! buffer, the build runs the 32-row strip tile's rank rows
//! ([`dp_permutation::rank_rows_flat`]) on the workers of
//! [`dp_metric::par::worker_chunks`], and every distance a query
//! measures runs through the one column kernel
//! ([`BatchDistance::column_distances`]).  Permutations, candidate
//! ordering and budget semantics are **identical** to the generic index
//! on the same data — only the storage layout and throughput differ.
//! Like the generic index, it keeps each permutation only as its
//! inverse-position key in the shared key column (a `u64` for k ≤ 12, a
//! `u128` for k ≤ 25, a position array above that).  Entry e of a rank
//! row is the position of site e, which is field e of that key, so each
//! rank row packs straight into its key with no permutation built;
//! [`FlatDistPermIndex::permutations`] decodes them.
//!
//! An exact query (full budget, `frac = 1.0`) orders nothing: the k site
//! distances are computed in one kernel call, counted but not ranked,
//! and the rows are swept in storage order, one [`STRIP`]-row strip at
//! a time, through the column kernel with the query as its one site —
//! k + n evaluations.  Several exact k-NN queries answered together
//! ([`Searcher::knn_batch`], which the serving dispatcher uses) share
//! that one sweep: the queries are transposed into one site set, each
//! strip's tile holds one lane array per query, and each query's heap
//! reads its own lane array, real lanes only.  A row whose distance
//! exceeds a full heap's k-th best is dropped before it is wrapped or
//! pushed.  Every answer is bit-identical to the query served alone:
//! the kernel folds each (row, query) pair's coordinates in the same
//! order whatever the strip, and a heap's result does not depend on
//! arrival order.
//!
//! A budgeted query orders candidates by footrule as one packed word
//! each — the footrule is SWAR arithmetic over the keys — then gathers
//! the first `budget` of them [`STRIP`] rows at a time into one strip,
//! loads it ([`load_strip`]) and measures it against the query.  Every
//! query's length is checked against the index dimension first, and a
//! mismatch panics with the vector metrics' own message.
//!
//! The generic `DistPermIndex` remains the path for strings, trees and
//! any non-`f64` point type.  Through the trait family this index is a
//! `ProximityIndex<[f64]>`: queries are plain `&[f64]` rows, which is
//! what makes it the natural engine under
//! [`crate::serve::query_batch_parallel_approx`], which serves
//! `distperm search`.

use crate::api::{ApproxSearcher, ProximityIndex, Searcher};
use crate::keys::{clamped_positions, KeyColumn};
use crate::laesa::{choose_pivots, PivotSelection};
use crate::query::{
    assert_frac, assert_order_ids_fit, knn_budget, order_id, range_budget, KnnHeap, Neighbor,
    QueryStats,
};
use dp_datasets::VectorSet;
use dp_metric::par::{fork_join, worker_chunks};
use dp_metric::{
    load_strip, BatchDistance, Distance, F64Dist, SliceRefMetric, TransposedSites, STRIP,
};
use dp_permutation::{rank_rows_flat, Permutation, MAX_K};

/// Distance-permutation index over flat vector storage.
#[derive(Debug, Clone)]
pub struct FlatDistPermIndex<M: BatchDistance> {
    metric: M,
    points: VectorSet,
    site_ids: Vec<usize>,
    sites_t: TransposedSites,
    keys: KeyColumn,
}

impl<M: BatchDistance + Sync> FlatDistPermIndex<M> {
    /// Builds the index: chooses `k` sites with `strategy`, then keys
    /// every row by its rank row on `threads` workers (k·n metric
    /// evaluations; the index is independent of the thread count).
    pub fn build(
        metric: M,
        points: VectorSet,
        k: usize,
        strategy: PivotSelection,
        threads: usize,
    ) -> Self {
        let rows: Vec<&[f64]> = points.rows().collect();
        let site_ids = choose_pivots(&SliceRefMetric(&metric), &rows, k, strategy);
        drop(rows);
        Self::build_with_sites(metric, points, site_ids, threads)
    }

    /// Builds with explicitly provided site ids.
    ///
    /// # Panics
    /// Panics if a site id is out of range or `site_ids.len() > MAX_K`.
    pub fn build_with_sites(
        metric: M,
        points: VectorSet,
        site_ids: Vec<usize>,
        threads: usize,
    ) -> Self {
        assert!(site_ids.iter().all(|&i| i < points.len()), "site id out of range");
        assert!(site_ids.len() <= MAX_K, "k = {} exceeds MAX_K = {MAX_K}", site_ids.len());
        assert_order_ids_fit(points.len());
        let (k, dim) = (site_ids.len(), points.dim());
        let sites_t = TransposedSites::from_rows(points.gather(&site_ids).as_flat(), dim);
        let parts = fork_join(worker_chunks(points.as_flat(), dim, threads), |rows| {
            KeyColumn::collect(k, k, rows.len() / dim.max(1), |push| {
                rank_rows_flat(&metric, &sites_t, rows, push);
            })
        });
        let keys = KeyColumn::concat(parts);
        Self { metric, points, site_ids, sites_t, keys }
    }
}

impl<M: BatchDistance> FlatDistPermIndex<M> {
    /// Reassembles an index from its build products without recomputing
    /// anything — the loading path of the on-disk store (`dp-store`).
    ///
    /// The caller must pass exactly what [`Self::build_with_sites`]
    /// produced for the same inputs: `sites_t` is the coordinate-major
    /// transpose of the gathered site rows and `perm_rows` holds each
    /// point's permutation as `k` site bytes, nearest first, point after
    /// point (the store's `PERMS` layout).  With that contract met, the
    /// result is field-for-field identical to the freshly built index,
    /// so every query answers bit-identically.
    ///
    /// # Panics
    /// Panics if the parts are inconsistent: a site id out of range,
    /// `site_ids.len() > MAX_K`, a transposed buffer whose shape is not
    /// `k × dim`, `perm_rows` not `points.len() · k` bytes long, or a
    /// row that is not a permutation of `0..k`.  (The store reader
    /// validates all of this against hostile bytes *before* calling —
    /// these asserts guard in-process misuse, not I/O.)
    pub fn from_parts(
        metric: M,
        points: VectorSet,
        site_ids: Vec<usize>,
        sites_t: TransposedSites,
        perm_rows: &[u8],
    ) -> Self {
        let (n, k) = (points.len(), site_ids.len());
        assert!(site_ids.iter().all(|&i| i < n), "site id out of range");
        assert!(k <= MAX_K, "k = {k} exceeds MAX_K = {MAX_K}");
        assert_order_ids_fit(n);
        assert_eq!(sites_t.k(), k, "transposed sites disagree with site count");
        assert_eq!(sites_t.dim(), points.dim(), "transposed sites disagree with point dimension");
        assert_eq!(perm_rows.len(), n * k, "one permutation per point required");
        let keys = KeyColumn::collect(k, k, n, |push| {
            for i in 0..n {
                let row = Permutation::from_slice(&perm_rows[i * k..][..k]);
                let perm = row.unwrap_or_else(|_| panic!("row {i} is not a permutation"));
                push(&clamped_positions(&perm, k));
            }
        });
        Self { metric, points, site_ids, sites_t, keys }
    }

    /// Database size.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of sites k.
    pub fn k(&self) -> usize {
        self.site_ids.len()
    }

    /// The site element ids.
    pub fn site_ids(&self) -> &[usize] {
        &self.site_ids
    }

    /// The owned metric.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// The indexed points.
    pub fn points(&self) -> &VectorSet {
        &self.points
    }

    /// The coordinate-major site transpose the batched kernels read —
    /// the serialization view for the on-disk store.
    pub fn sites_transposed(&self) -> &TransposedSites {
        &self.sites_t
    }

    /// The points' permutations, parallel to the database, decoded
    /// from the key column.
    pub fn permutations(&self) -> Vec<Permutation> {
        (0..self.len()).map(|i| self.keys.permutation(i)).collect()
    }

    /// The width of the key column candidate orderings run on:
    /// `"packed-u64"` for k ≤ 12, `"packed-u128"` for k ≤ 25, and
    /// `"permutation"` (one position byte per site) beyond.  All widths
    /// order candidates identically; the label exists so callers (the
    /// CLI in particular) can report which one serves a given k.
    pub fn ordering_engine(&self) -> &'static str {
        self.keys.engine()
    }

    /// Number of distinct permutations in the index (the paper's
    /// measurement), counted over the key column.
    pub fn distinct_permutations(&self) -> usize {
        self.keys.distinct()
    }

    /// The query's distance permutation: k metric evaluations through
    /// the batched kernel.
    pub fn query_permutation(&self, query: &[f64]) -> Permutation {
        self.session().query_permutation(query)
    }

    /// A reusable query cursor (scratch allocated once): site-distance
    /// buffer, packed candidate order, the queries as a site set, a
    /// row-major gather buffer (a strip of candidates, or the queries of
    /// a sweep), and one transposed strip with its distance tile — grown
    /// once to the largest set of queries swept together, so serving
    /// does not re-allocate.
    pub fn session(&self) -> FlatDistPermSearcher<'_, M> {
        FlatDistPermSearcher {
            index: self,
            dists: vec![0.0; self.k()],
            order: Vec::new(),
            query_sites: TransposedSites::from_rows(&[], 0),
            gather: Vec::with_capacity(STRIP * self.points.dim()),
            cols: vec![[0.0; STRIP]; self.points.dim()],
            tile: vec![[0.0; STRIP]; 1],
        }
    }

    /// Approximate k-NN over the `frac` permutation-nearest fraction
    /// (Spearman footrule ordering; `frac = 1.0` is exact).
    pub fn knn_approx(&self, query: &[f64], k: usize, frac: f64) -> Vec<Neighbor<F64Dist>> {
        self.session().knn_approx(query, k, frac).0
    }

    /// Approximate range query over the `frac` permutation-nearest
    /// fraction (subset of the true answer; `frac = 1.0` is exact).
    pub fn range_approx(
        &self,
        query: &[f64],
        radius: F64Dist,
        frac: f64,
    ) -> Vec<Neighbor<F64Dist>> {
        self.session().range_approx(query, radius, frac).0
    }
}

/// Reusable query cursor over a [`FlatDistPermIndex`].
#[derive(Debug, Clone)]
pub struct FlatDistPermSearcher<'a, M: BatchDistance> {
    index: &'a FlatDistPermIndex<M>,
    dists: Vec<f64>,
    order: Vec<u64>,
    query_sites: TransposedSites,
    gather: Vec<f64>,
    cols: Vec<[f64; STRIP]>,
    tile: Vec<[f64; STRIP]>,
}

impl<M: BatchDistance> FlatDistPermSearcher<'_, M> {
    /// The underlying index.
    pub fn index(&self) -> &FlatDistPermIndex<M> {
        self.index
    }

    /// The query's distance permutation (k batched metric evaluations).
    pub fn query_permutation(&mut self, query: &[f64]) -> Permutation {
        check_dimension(self.index, query);
        query_permutation_into(self.index, &mut self.dists, query)
    }

    /// Budgeted k-NN over the footrule-nearest candidates.
    ///
    /// Candidates are measured through the column kernel (gathered
    /// [`STRIP`] at a time; the query is a 1-site set), which for every
    /// supported metric produces the same bits as the per-point
    /// `metric.distance(query, row)` — `|x − s|`, `(x − s)²` and
    /// `|x − s|^p` are all exactly symmetric — so answers are identical
    /// to the generic [`crate::DistPermIndex`] on the same data.  At
    /// full budget the query is the exact scan of
    /// [`Searcher::knn_batch`], which orders nothing.
    pub fn knn_approx(
        &mut self,
        query: &[f64],
        k: usize,
        frac: f64,
    ) -> (Vec<Neighbor<F64Dist>>, QueryStats) {
        let index = self.index;
        check_dimension(index, query);
        assert_frac(frac);
        let n = index.len();
        if n == 0 || k == 0 {
            return (Vec::new(), QueryStats::default());
        }
        let budget = knn_budget(n, k, frac);
        if budget == n {
            let mut answers = self.exact_knn(&[query], k);
            return answers.pop().expect("one answer per swept query");
        }
        let mut heap = KnnHeap::new(k.min(n));
        self.measure_budget(query, budget, |i, d| heap.push(i, d));
        (heap.into_sorted(), QueryStats::new((index.k() + budget) as u64))
    }

    /// Budgeted range query; a subset of the true answer, exact at
    /// `frac = 1.0`.  Below full budget, candidates are measured exactly
    /// as in [`Self::knn_approx`]; at full budget the k site distances
    /// are computed but not ranked, and every row is swept in storage
    /// order.
    pub fn range_approx(
        &mut self,
        query: &[f64],
        radius: F64Dist,
        frac: f64,
    ) -> (Vec<Neighbor<F64Dist>>, QueryStats) {
        let index = self.index;
        check_dimension(index, query);
        assert_frac(frac);
        let n = index.len();
        if n == 0 {
            return (Vec::new(), QueryStats::default());
        }
        let budget = range_budget(n, frac);
        let mut out = Vec::new();
        let mut sink = |id, dist| {
            if dist <= radius {
                out.push(Neighbor { id, dist });
            }
        };
        if budget == n {
            index.metric.batch_distances(query, &index.sites_t, &mut self.dists[..index.k()]);
            self.query_sites.assign_rows(query, index.points.dim());
            self.sweep_rows(|first, tile, live| {
                for (l, &d) in tile[0][..live].iter().enumerate() {
                    sink(first + l, F64Dist::new(d));
                }
            });
        } else {
            self.measure_budget(query, budget, sink);
        }
        out.sort_unstable();
        (out, QueryStats::new((index.k() + budget) as u64))
    }

    /// A budgeted scan below full budget: the query permutation (k
    /// batched evaluations), the `budget` footrule-nearest candidates,
    /// and their rows gathered [`STRIP`] at a time, in that order, into
    /// one strip, loaded and measured through the column kernel against
    /// the query as a 1-site set, each `(id, distance)` fed to `sink`.
    /// NaN distances panic (at `F64Dist::new`) exactly like the scalar
    /// path.
    fn measure_budget(
        &mut self,
        query: &[f64],
        budget: usize,
        mut sink: impl FnMut(usize, F64Dist),
    ) {
        let index = self.index;
        let qperm = query_permutation_into(index, &mut self.dists, query);
        index.keys.order(&qperm, budget, &mut self.order);
        self.query_sites.assign_rows(query, index.points.dim());
        for block in self.order.chunks(STRIP) {
            self.gather.clear();
            for &word in block {
                self.gather.extend_from_slice(index.points.row(order_id(word)));
            }
            load_strip(&mut self.cols, &self.gather);
            index.metric.column_distances(&self.cols, &self.query_sites, &mut self.tile[..1]);
            for (&word, &d) in block.iter().zip(&self.tile[0]) {
                sink(order_id(word), F64Dist::new(d));
            }
        }
    }

    /// The exact k-NN scan of every query in `queries` (each of the
    /// index's dimension, the index non-empty, `k > 0`), sharing one
    /// pass over the rows.
    ///
    /// The queries' k site evaluations run first, in one kernel call,
    /// so each answer's [`QueryStats`] counts the evaluations a
    /// permutation-index query makes, k + n; an exact scan has no use
    /// for their order.  The queries are then transposed into one site
    /// set and every strip of rows is measured against all of them at
    /// once.
    /// Each query keeps its own heap and its own bound: a distance
    /// strictly above a full heap's k-th best cannot enter it whatever
    /// its id, so only `d <= bound` (and NaN, which `F64Dist::new`
    /// rejects with its usual panic) reaches the heap.
    fn exact_knn(
        &mut self,
        queries: &[&[f64]],
        k: usize,
    ) -> Vec<(Vec<Neighbor<F64Dist>>, QueryStats)> {
        let index = self.index;
        let n = index.len();
        self.gather.clear();
        for query in queries {
            self.gather.extend_from_slice(query);
        }
        self.dists.resize(queries.len() * index.k(), 0.0);
        index.metric.batch_distances(&self.gather, &index.sites_t, &mut self.dists);
        self.query_sites.assign_rows(&self.gather, index.points.dim());
        let mut heaps: Vec<KnnHeap<F64Dist>> =
            queries.iter().map(|_| KnnHeap::new(k.min(n))).collect();
        let mut bounds = vec![f64::INFINITY; queries.len()];
        self.sweep_rows(|first, tile, live| {
            for ((heap, bound), lanes) in heaps.iter_mut().zip(bounds.iter_mut()).zip(tile) {
                for (l, &d) in lanes[..live].iter().enumerate() {
                    if d <= *bound || d.is_nan() {
                        heap.push(first + l, F64Dist::new(d));
                        if let Some(worst) = heap.bound() {
                            *bound = worst.get();
                        }
                    }
                }
            }
        });
        let stats = QueryStats::new((index.k() + n) as u64);
        heaps.into_iter().map(|heap| (heap.into_sorted(), stats)).collect()
    }

    /// Sweeps every row once, in storage order, one [`STRIP`]-row strip
    /// at a time through the column kernel with the `m ≥ 1` queries in
    /// `query_sites` as its sites.  `visit(first, tile, live)` receives
    /// each strip's site-major tile — `tile[q][l]` is the distance of
    /// row `first + l` to query `q` — and its count of real rows; lanes
    /// from `live` on are the loader's padding.
    fn sweep_rows(&mut self, mut visit: impl FnMut(usize, &[[f64; STRIP]], usize)) {
        // Callers sweep only non-empty indexes, and flat storage holds no
        // width-0 rows, so dim > 0 here.
        let (index, m) = (self.index, self.query_sites.k());
        if self.tile.len() < m {
            self.tile.resize(m, [0.0; STRIP]);
        }
        for (s, strip) in index.points.as_flat().chunks(STRIP * index.points.dim()).enumerate() {
            let live = load_strip(&mut self.cols, strip);
            index.metric.column_distances(&self.cols, &self.query_sites, &mut self.tile);
            visit(s * STRIP, &self.tile[..m], live);
        }
    }
}

/// Panics with the vector metrics' own message unless `query` has the
/// index's dimension — checked before anything reads the query, so no
/// kernel shape assert or stale scratch gets there first.
fn check_dimension<M: BatchDistance>(index: &FlatDistPermIndex<M>, query: &[f64]) {
    let dim = index.points.dim();
    assert_eq!(
        query.len(),
        dim,
        "vector metric applied to vectors of different dimension ({} vs {dim})",
        query.len()
    );
}

/// The batched query-permutation kernel.  It uses the first k entries
/// of `dists`, which a sweep may have grown.
fn query_permutation_into<M: BatchDistance>(
    index: &FlatDistPermIndex<M>,
    dists: &mut [f64],
    query: &[f64],
) -> Permutation {
    let k = index.k();
    index.metric.batch_distances(query, &index.sites_t, &mut dists[..k]);
    let mut pairs = [(F64Dist::ZERO, 0u8); MAX_K];
    for (j, (&d, pair)) in dists[..k].iter().zip(&mut pairs).enumerate() {
        *pair = (F64Dist::new(d), j as u8);
    }
    pairs[..k].sort_unstable();
    let items: [u8; MAX_K] = std::array::from_fn(|rank| pairs[rank].1);
    Permutation::from_slice(&items[..k]).expect("ranks form a permutation")
}

impl<M: BatchDistance + Sync> ProximityIndex<[f64]> for FlatDistPermIndex<M> {
    type Dist = F64Dist;
    type Searcher<'s>
        = FlatDistPermSearcher<'s, M>
    where
        Self: 's;

    fn size(&self) -> usize {
        self.points.len()
    }

    fn searcher(&self) -> FlatDistPermSearcher<'_, M> {
        self.session()
    }
}

impl<M: BatchDistance + Sync> Searcher<[f64]> for FlatDistPermSearcher<'_, M> {
    type Dist = F64Dist;

    /// Exact k-NN as the full-budget scan: the k site evaluations, then
    /// every row measured in storage order, swept strip by strip with no
    /// candidate ordering (k + n evaluations).
    fn knn(&mut self, query: &[f64], k: usize) -> (Vec<Neighbor<F64Dist>>, QueryStats) {
        self.knn_approx(query, k, 1.0)
    }

    /// Exact k-NN for all `queries` in one pass over the rows: each
    /// strip goes through the column kernel once against every query
    /// (see the module docs).  Answers and stats are bit-identical
    /// to [`Self::knn`] on each query alone.  Every query's dimension is
    /// checked before any is measured.
    fn knn_batch(
        &mut self,
        queries: &[&[f64]],
        k: usize,
    ) -> Vec<(Vec<Neighbor<F64Dist>>, QueryStats)> {
        for query in queries {
            check_dimension(self.index, query);
        }
        if self.index.is_empty() || k == 0 || queries.is_empty() {
            return queries.iter().map(|_| (Vec::new(), QueryStats::default())).collect();
        }
        self.exact_knn(queries, k)
    }

    /// Exact range query as the full-budget scan: k site evaluations in
    /// one kernel call, then every row swept in storage order (k + n
    /// evaluations), with no query permutation built.
    fn range(&mut self, query: &[f64], radius: F64Dist) -> (Vec<Neighbor<F64Dist>>, QueryStats) {
        FlatDistPermSearcher::range_approx(self, query, radius, 1.0)
    }
}

impl<M: BatchDistance + Sync> ApproxSearcher<[f64]> for FlatDistPermSearcher<'_, M> {
    fn knn_approx(
        &mut self,
        query: &[f64],
        k: usize,
        frac: f64,
    ) -> (Vec<Neighbor<F64Dist>>, QueryStats) {
        FlatDistPermSearcher::knn_approx(self, query, k, frac)
    }

    fn range_approx(
        &mut self,
        query: &[f64],
        radius: F64Dist,
        frac: f64,
    ) -> (Vec<Neighbor<F64Dist>>, QueryStats) {
        FlatDistPermSearcher::range_approx(self, query, radius, frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distperm::DistPermIndex;
    use crate::linear::LinearScan;
    use dp_metric::{L2Squared, Metric, L2};
    use dp_permutation::permdist::spearman_footrule;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect()
    }

    #[test]
    fn flat_index_matches_generic_index() {
        let nested = random_points(600, 3, 41);
        let flat = VectorSet::from_nested(&nested);
        let site_ids: Vec<usize> = vec![17, 3, 99, 250, 4, 511];
        let generic = DistPermIndex::build_with_sites(L2, nested, site_ids.clone());
        let flat_idx = FlatDistPermIndex::build_with_sites(L2, flat, site_ids, 4);
        assert_eq!(flat_idx.permutations(), generic.permutations());
        assert_eq!(flat_idx.distinct_permutations(), generic.distinct_permutations());
        for q in random_points(10, 3, 42) {
            assert_eq!(flat_idx.query_permutation(&q), generic.query_permutation(&q));
            assert_eq!(flat_idx.knn_approx(&q, 5, 0.2), generic.knn_approx(&q, 5, 0.2));
            assert_eq!(flat_idx.knn_approx(&q, 5, 1.0), generic.knn_approx(&q, 5, 1.0));
            let radius = F64Dist::new(0.3);
            assert_eq!(
                flat_idx.range_approx(&q, radius, 0.5),
                generic.range_approx(&q, radius, 0.5)
            );
        }
    }

    #[test]
    fn ordering_engine_labels_follow_k() {
        let flat = VectorSet::from_nested(&random_points(100, 3, 50));
        for (k, label) in [(8usize, "packed-u64"), (16, "packed-u128"), (26, "permutation")] {
            let idx = FlatDistPermIndex::build(L2, flat.clone(), k, PivotSelection::Prefix, 1);
            assert_eq!(idx.ordering_engine(), label, "k = {k}");
        }
    }

    #[test]
    fn wide_and_uncached_orderings_match_generic_index() {
        // k = 16 exercises the u128 key footrule; k = 26 the position
        // array keys.  Both must answer exactly
        // like the generic index, budgeted and exact.
        for k in [16usize, 26] {
            let nested = random_points(500, 3, 60 + k as u64);
            let flat = VectorSet::from_nested(&nested);
            let site_ids: Vec<usize> = (0..k).map(|i| (i * 17) % 500).collect();
            let generic = DistPermIndex::build_with_sites(L2, nested, site_ids.clone());
            let flat_idx = FlatDistPermIndex::build_with_sites(L2, flat, site_ids, 2);
            assert_eq!(flat_idx.permutations(), generic.permutations(), "k = {k}");
            for q in random_points(6, 3, 61) {
                assert_eq!(flat_idx.knn_approx(&q, 5, 0.2), generic.knn_approx(&q, 5, 0.2));
                assert_eq!(flat_idx.knn_approx(&q, 5, 1.0), generic.knn_approx(&q, 5, 1.0));
                let radius = F64Dist::new(0.4);
                assert_eq!(
                    flat_idx.range_approx(&q, radius, 0.5),
                    generic.range_approx(&q, radius, 0.5),
                    "k = {k}"
                );
            }
        }
    }

    #[test]
    fn from_parts_rebuilds_the_ordering_cache() {
        // The store loading path must answer bit-identically to the
        // fresh build at a wide k — including the key-column ordering.
        let flat = VectorSet::from_nested(&random_points(300, 2, 70));
        let built = FlatDistPermIndex::build(L2, flat.clone(), 14, PivotSelection::MaxMin, 2);
        let rows: Vec<u8> =
            built.permutations().iter().flat_map(|p| p.as_slice().to_vec()).collect();
        let loaded = FlatDistPermIndex::from_parts(
            L2,
            flat,
            built.site_ids().to_vec(),
            built.sites_transposed().clone(),
            &rows,
        );
        assert_eq!(loaded.ordering_engine(), "packed-u128");
        for q in random_points(5, 2, 71) {
            assert_eq!(loaded.knn_approx(&q, 4, 0.3), built.knn_approx(&q, 4, 0.3));
        }
    }

    #[test]
    fn full_budget_range_is_the_linear_scan() {
        // Exact range queries, through `range` and `range_approx` at
        // frac 1.0, answer as the linear scan with k + n evaluations.
        // Grid rows put many points at exactly the radius from a grid
        // query, and those ties must be kept.
        let rows: Vec<Vec<f64>> =
            (0..150).map(|i| vec![f64::from(i % 15), f64::from(i / 15)]).collect();
        let scan = LinearScan::new(L2, rows.clone());
        let idx = FlatDistPermIndex::build(
            L2,
            VectorSet::from_nested(&rows),
            7,
            PivotSelection::MaxMin,
            1,
        );
        let mut searcher = idx.session();
        let stats = QueryStats::new(7 + 150);
        for (q, radius, ties) in [
            ([3.0, 4.0], 2.0, 4),
            ([7.0, 2.0], 1.0, 4),
            ([0.0, 0.0], 5.0, 4),
            ([20.0, 20.0], 1.0, 0),
        ] {
            let radius = F64Dist::new(radius);
            let truth = scan.range(&q.to_vec(), radius);
            assert_eq!(truth.iter().filter(|nb| nb.dist == radius).count(), ties, "ties at {q:?}");
            assert_eq!(searcher.range(&q, radius), (truth.clone(), stats), "range {q:?}");
            assert_eq!(searcher.range_approx(&q, radius, 1.0), (truth, stats), "frac 1.0 {q:?}");
        }
    }

    #[test]
    fn build_strategies_match_generic_choice() {
        let nested = random_points(300, 2, 43);
        let flat = VectorSet::from_nested(&nested);
        for strategy in [
            PivotSelection::Prefix,
            PivotSelection::MaxMin,
            PivotSelection::Random(7),
            PivotSelection::PermDiversity(7),
        ] {
            let generic = DistPermIndex::build(L2Squared, nested.clone(), 5, strategy);
            let flat_idx = FlatDistPermIndex::build(L2Squared, flat.clone(), 5, strategy, 2);
            assert_eq!(flat_idx.site_ids(), generic.site_ids(), "{strategy:?}");
            assert_eq!(flat_idx.permutations(), generic.permutations(), "{strategy:?}");
        }
    }

    #[test]
    fn searcher_reuse_matches_one_shot() {
        let flat = VectorSet::from_nested(&random_points(400, 3, 44));
        let idx = FlatDistPermIndex::build(L2, flat, 8, PivotSelection::MaxMin, 2);
        let mut searcher = idx.session();
        for q in random_points(8, 3, 45) {
            assert_eq!(searcher.knn_approx(&q, 3, 0.15).0, idx.knn_approx(&q, 3, 0.15));
        }
    }

    #[test]
    fn trait_stats_count_sites_plus_budget() {
        let flat = VectorSet::from_nested(&random_points(200, 2, 46));
        let idx = FlatDistPermIndex::build(L2, flat, 10, PivotSelection::MaxMin, 1);
        let q = [0.5, 0.5];
        let (_, stats) = idx.query_knn(&q[..], 3);
        assert_eq!(stats, QueryStats::new(10 + 200));
        let (_, stats) = idx.session().knn_approx(&q, 3, 0.25);
        assert_eq!(stats, QueryStats::new(10 + 50));
    }

    /// The candidate path the packed order and the storage-order scan
    /// replaced: every `(footrule, id)` pair fully sorted, the first
    /// `budget` measured one at a time with the scalar metric.
    fn oracle_candidates(
        idx: &FlatDistPermIndex<L2>,
        q: &[f64],
        budget: usize,
    ) -> Vec<Neighbor<F64Dist>> {
        let qperm = idx.query_permutation(q);
        let mut pairs: Vec<(u64, usize)> = idx
            .permutations()
            .iter()
            .enumerate()
            .map(|(i, p)| (spearman_footrule(&qperm, p), i))
            .collect();
        pairs.sort_unstable();
        pairs[..budget]
            .iter()
            .map(|&(_, id)| Neighbor { id, dist: L2.distance(q, idx.points().row(id)) })
            .collect()
    }

    /// A scan fraction whose budget is exactly `budget` of `n`.
    fn frac_for(budget: usize, n: usize) -> f64 {
        if budget == n {
            1.0
        } else {
            (budget as f64 - 0.5) / n as f64
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Every budget from 1 to n, at each key width (k = 8 packed u64,
        // 16 packed u128, 26 position arrays), answers and counts exactly as
        // the fully sorted `(key, id)` order.  Grid-snapped rows make
        // distance and ordering ties common, so the id tie-break
        // decides many answers.
        #[test]
        fn every_budget_matches_the_fully_sorted_order(
            n in 40usize..240,
            dim in 1usize..4,
            k_pick in 0usize..3,
            grid in any::<bool>(),
            nn in 1usize..5,
            seed in any::<u64>(),
        ) {
            let k = [8usize, 16, 26][k_pick];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut coord = || {
                let x = rng.random::<f64>();
                if grid { (x * 4.0).floor() / 4.0 } else { x }
            };
            let rows: Vec<f64> = (0..n * dim).map(|_| coord()).collect();
            let queries: Vec<f64> = (0..3 * dim).map(|_| coord()).collect();
            let site_ids: Vec<usize> = (0..k).map(|i| (i * 7 + 3) % n).collect();
            let idx = FlatDistPermIndex::build_with_sites(L2, VectorSet::from_raw(dim, rows), site_ids, 2);
            let mut searcher = idx.session();
            let radius = F64Dist::new(0.3);
            for q in queries.chunks_exact(dim).chain([idx.points().row(n / 2)]) {
                for budget in [1, n / 20, n - 1, n] {
                    let frac = frac_for(budget, n);
                    let knn_budget = budget.max(nn);
                    let mut expected = oracle_candidates(&idx, q, knn_budget);
                    expected.sort_unstable();
                    expected.truncate(nn);
                    let (got, stats) = searcher.knn_approx(q, nn, frac);
                    prop_assert_eq!(&got, &expected, "knn budget {}", budget);
                    prop_assert_eq!(stats, QueryStats::new((k + knn_budget) as u64));

                    let mut expected: Vec<_> = oracle_candidates(&idx, q, budget)
                        .into_iter()
                        .filter(|nb| nb.dist <= radius)
                        .collect();
                    expected.sort_unstable();
                    let (got, stats) = searcher.range_approx(q, radius, frac);
                    prop_assert_eq!(&got, &expected, "range budget {}", budget);
                    prop_assert_eq!(stats, QueryStats::new((k + budget) as u64));
                }
            }
        }
    }

    /// The exact scan's oracle: every row measured with the scalar
    /// `Metric::distance` and pushed, in storage order, with no bound
    /// filter.
    fn one_query_scan(idx: &FlatDistPermIndex<L2>, q: &[f64], k: usize) -> Vec<Neighbor<F64Dist>> {
        let mut heap = KnnHeap::new(k.min(idx.len()));
        for (id, row) in idx.points().rows().enumerate() {
            heap.push(id, L2.distance(q, row));
        }
        heap.into_sorted()
    }

    /// Row counts one short of, at and one past one and two strips; 1, 4
    /// and 9 queries swept together; and budgets of 1, 31, 32 and 33
    /// gathered candidates, all answered as the linear scan and the
    /// generic index answer.  The first query is the last row itself,
    /// so a sweep or gather that read a tail strip's padded lanes would
    /// report ids past the end at distance 0.
    #[test]
    fn strip_edges_match_linear_scan_and_generic_index() {
        let radius = F64Dist::new(0.4);
        for n in [31usize, 32, 33, 63, 64, 65] {
            let nested = random_points(n, 3, 90 + n as u64);
            let site_ids: Vec<usize> = (0..6).map(|i| (i * 5 + 1) % n).collect();
            let scan = LinearScan::new(L2, nested.clone());
            let generic = DistPermIndex::build_with_sites(L2, nested.clone(), site_ids.clone());
            let flat = VectorSet::from_nested(&nested);
            let idx = FlatDistPermIndex::build_with_sites(L2, flat, site_ids, 1);
            let mut queries = random_points(9, 3, 91);
            queries[0].clone_from(&nested[n - 1]);
            let mut searcher = idx.session();
            for m in [1usize, 4, 9] {
                let refs: Vec<&[f64]> = queries[..m].iter().map(Vec::as_slice).collect();
                for (q, (got, stats)) in queries.iter().zip(searcher.knn_batch(&refs, 3)) {
                    assert_eq!(got, scan.knn(q, 3), "n = {n}, m = {m}");
                    assert_eq!(stats, QueryStats::new(6 + n as u64), "n = {n}, m = {m}");
                }
            }
            for (qi, q) in queries.iter().enumerate() {
                let tag = format!("n = {n}, query {qi}");
                assert_eq!(searcher.range(q, radius).0, scan.range(q, radius), "{tag}");
                for budget in [1usize, 31, 32, 33].map(|b| b.min(n)) {
                    let frac = frac_for(budget, n);
                    let (got, stats) = searcher.knn_approx(q, 3, frac);
                    assert_eq!(got, generic.knn_approx(q, 3, frac), "{tag}, budget {budget}");
                    assert_eq!(stats, QueryStats::new((6 + budget.max(3)) as u64), "{tag}");
                    let (got, stats) = searcher.range_approx(q, radius, frac);
                    assert_eq!(
                        got,
                        generic.range_approx(q, radius, frac),
                        "{tag}, budget {budget}"
                    );
                    assert_eq!(stats, QueryStats::new((6 + budget) as u64), "{tag}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Any number of queries swept together, at any k (past n
        // included), over any row count (tail strips included), answers each
        // query exactly as the unfiltered one-query scan and as `knn`
        // alone, with k + n evaluations.  Grid-snapped rows and queries
        // copied from rows make distance ties common, so the id
        // tie-break behind the bound filter decides many answers.
        #[test]
        fn swept_queries_match_the_one_query_scan(
            n in 1usize..300,
            dim in 1usize..5,
            m in 1usize..13,
            k in 1usize..12,
            grid in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut coord = || {
                let x = rng.random::<f64>();
                if grid { (x * 4.0).floor() / 4.0 } else { x }
            };
            let rows: Vec<f64> = (0..n * dim).map(|_| coord()).collect();
            let mut queries: Vec<Vec<f64>> = (0..m).map(|_| (0..dim).map(|_| coord()).collect()).collect();
            let site_ids: Vec<usize> = (0..6.min(n)).map(|i| (i * 5 + 1) % n).collect();
            let idx = FlatDistPermIndex::build_with_sites(L2, VectorSet::from_raw(dim, rows), site_ids, 1);
            for (j, q) in queries.iter_mut().enumerate().filter(|(j, _)| j % 3 == 2) {
                q.copy_from_slice(idx.points().row(j * 7 % n));
            }
            let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
            let mut searcher = idx.session();
            let swept = searcher.knn_batch(&refs, k);
            prop_assert_eq!(swept.len(), m);
            let stats = QueryStats::new((idx.k() + n) as u64);
            for (q, (got, got_stats)) in refs.iter().zip(&swept) {
                prop_assert_eq!(got, &one_query_scan(&idx, q, k));
                prop_assert_eq!(*got_stats, stats);
                prop_assert_eq!(&searcher.knn(q, k), &(got.clone(), stats));
            }
        }
    }

    /// The panic message `f` raises, or `None` if it returns.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
        Some(crate::serve::isolate::panic_message(payload))
    }

    #[test]
    fn a_nan_query_panics_swept_as_alone() {
        let idx = FlatDistPermIndex::build(
            L2,
            VectorSet::from_nested(&random_points(150, 3, 80)),
            6,
            PivotSelection::MaxMin,
            1,
        );
        let queries = random_points(5, 3, 81);
        let nan = [0.5, f64::NAN, 0.5];
        let mut refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        refs.insert(2, &nan);
        let mut searcher = idx.session();
        for message in [
            panic_message(|| drop(searcher.knn_batch(&refs, 3))),
            panic_message(|| drop(searcher.knn(&nan, 3))),
        ] {
            assert!(message.is_some_and(|m| m.contains("distance must not be NaN")));
        }
        // The session's scratch still holds the NaN query's site
        // distances past the first k; later queries, exact and
        // budgeted, must answer as a fresh session does.
        for q in &queries {
            assert_eq!(searcher.knn(q, 3).0, one_query_scan(&idx, q, 3));
            assert_eq!(searcher.knn_approx(q, 3, 0.2), idx.session().knn_approx(q, 3, 0.2));
        }
    }

    #[test]
    fn wrong_dimension_queries_panic_with_the_metric_message() {
        // Shorter, longer and whole multiples of the dimension used to
        // reach kernel shape asserts (or stale scratch) first.
        let idx = FlatDistPermIndex::build(
            L2,
            VectorSet::from_nested(&random_points(90, 3, 82)),
            5,
            PivotSelection::MaxMin,
            1,
        );
        let good = [0.5, 0.5, 0.5];
        for len in [0usize, 2, 4, 6, 9] {
            let bad = vec![0.25; len];
            let mut s = idx.session();
            let radius = F64Dist::new(0.3);
            let messages = [
                panic_message(|| drop(s.knn(&bad, 3))),
                panic_message(|| drop(s.knn_approx(&bad, 3, 0.3))),
                panic_message(|| drop(s.range(&bad, radius))),
                panic_message(|| drop(s.range_approx(&bad, radius, 0.3))),
                panic_message(|| {
                    s.query_permutation(&bad);
                }),
                panic_message(|| drop(s.knn_batch(&[&good, &bad], 3))),
            ];
            for (call, message) in messages.into_iter().enumerate() {
                assert!(
                    message.as_deref().is_some_and(|m| m.contains("different dimension")),
                    "length {len}, call {call}: {message:?}"
                );
            }
        }
    }

    #[test]
    fn knn_batch_short_circuits_like_knn() {
        let empty = FlatDistPermIndex::build_with_sites(L2, VectorSet::new(2), vec![], 1);
        let q = [0.5, 0.5];
        assert_eq!(
            empty.session().knn_batch(&[&q, &q], 3),
            vec![(Vec::new(), QueryStats::default()); 2]
        );
        let idx = FlatDistPermIndex::build(
            L2,
            VectorSet::from_nested(&random_points(40, 2, 83)),
            4,
            PivotSelection::MaxMin,
            1,
        );
        let mut s = idx.session();
        assert_eq!(s.knn_batch(&[&q], 0), vec![s.knn(&q, 0)]);
        assert!(s.knn_batch(&[], 3).is_empty());
    }

    #[test]
    fn empty_index_yields_empty_answers() {
        let idx = FlatDistPermIndex::build_with_sites(L2, VectorSet::new(2), vec![], 1);
        assert!(idx.is_empty());
        assert!(idx.knn_approx(&[0.0, 0.0], 3, 1.0).is_empty());
    }
}
