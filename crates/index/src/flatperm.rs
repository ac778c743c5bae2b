//! The `distperm` index over flat [`VectorSet`] storage.
//!
//! [`FlatDistPermIndex`] is the vector-workload specialisation of
//! [`crate::DistPermIndex`]: points live in one contiguous row-major
//! buffer, the build runs through the batched site-transposed kernels
//! (`dp_permutation::compute::database_permutations_flat_parallel`), and
//! queries reuse the same vectorized distance kernel for the k site
//! evaluations.  Permutations, candidate ordering and budget semantics
//! are **identical** to the generic index on the same data — only the
//! storage layout and throughput differ.
//!
//! An exact query (full budget, `frac = 1.0`) orders nothing: after the
//! k site evaluations it streams the rows in storage order, contiguous
//! block by block, through the batched kernel — k + n evaluations, the
//! same answer as any candidate order would give.  A budgeted query
//! orders candidates by footrule as one packed word each, then gathers
//! and measures the first `budget` of them.
//!
//! The generic `DistPermIndex` remains the path for strings, trees and
//! any non-`f64` point type.  Through the trait family this index is a
//! `ProximityIndex<[f64]>`: queries are plain `&[f64]` rows, which is
//! what makes it the natural engine under
//! [`crate::serve::query_batch_parallel`].

use crate::api::{ApproxIndex, ApproxSearcher, ProximityIndex, Searcher};
use crate::distperm::OrderingKind;
use crate::laesa::{choose_pivots, PivotSelection};
use crate::query::{
    assert_frac, assert_order_ids_fit, budgeted_order, knn_budget, order_id, range_budget, KnnHeap,
    Neighbor, QueryStats,
};
use dp_datasets::VectorSet;
use dp_metric::{BatchDistance, Distance, F64Dist, SliceRefMetric, TransposedSites, STRIP_POINTS};
use dp_permutation::compute::{database_permutations_flat_parallel, PACKED_MAX_K, WIDE_MAX_K};
use dp_permutation::{pack_perm, PackedKey, Permutation, PermutationCounter, MAX_K};

/// Candidate rows per batched distance call, streamed at full budget
/// and gathered below it: a multiple of [`STRIP_POINTS`] so full blocks
/// stay on the strip-mined kernel path, small enough that the gather
/// buffer and its distances stay in L1.
const CANDIDATE_BLOCK_ROWS: usize = 16 * STRIP_POINTS;

/// Cached inverse-position keys for the footrule candidate ordering,
/// packed at the key width that fits k (field `e` of a point's key is
/// the *position* of site `e` in its permutation).  The Spearman
/// footrule is then a field-wise `abs_diff` sum over two keys — the
/// same u64 the permutation walk produces, without materialising an
/// inverse permutation per candidate per query.
#[derive(Debug, Clone)]
enum OrderingKeys {
    /// k ≤ 12: one `u64` key per point.
    Narrow(Vec<u64>),
    /// 13 ≤ k ≤ 25: one `u128` key per point.
    Wide(Vec<u128>),
    /// k > 25: no cache — orderings walk the stored permutations.
    Uncached,
}

impl OrderingKeys {
    /// Packs one inverse-position key per stored permutation at the
    /// width fitting `k`.
    fn build(perms: &[Permutation], k: usize) -> Self {
        if k <= PACKED_MAX_K {
            OrderingKeys::Narrow(perms.iter().map(|p| pack_perm::<u64>(&p.inverse())).collect())
        } else if k <= WIDE_MAX_K {
            OrderingKeys::Wide(perms.iter().map(|p| pack_perm::<u128>(&p.inverse())).collect())
        } else {
            OrderingKeys::Uncached
        }
    }
}

/// Spearman footrule over packed inverse-position keys: field `e` holds
/// a position, so the rank displacement of site `e` is the field-wise
/// `abs_diff`.  Equal to `spearman_footrule` on the unpacked
/// permutations, bit for bit.
///
/// The loop runs over every field of the key width, not just the k in
/// use: fields past k are zero in both keys and add nothing, and a
/// fixed trip count lets the compiler unroll the loop, which a loop
/// bounded by the runtime k does not get.
#[inline]
fn footrule_keys<K: PackedKey>(a: K, b: K) -> u64 {
    let mut sum = 0u64;
    for pos in 0..K::MAX_K {
        sum += u64::from(a.field(pos).abs_diff(b.field(pos)));
    }
    sum
}

/// Distance-permutation index over flat vector storage.
#[derive(Debug, Clone)]
pub struct FlatDistPermIndex<M: BatchDistance> {
    metric: M,
    points: VectorSet,
    site_ids: Vec<usize>,
    sites: VectorSet,
    sites_t: TransposedSites,
    perms: Vec<Permutation>,
    order_keys: OrderingKeys,
}

impl<M: BatchDistance + Sync> FlatDistPermIndex<M> {
    /// Builds the index: chooses `k` sites with `strategy`, then computes
    /// every row's permutation on `threads` workers through the batched
    /// kernel (k·n metric evaluations, deterministic in thread count).
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
        let sites = points.gather(&site_ids);
        let sites_t = TransposedSites::from_rows(sites.as_flat(), sites.dim());
        let perms =
            database_permutations_flat_parallel(&metric, &sites_t, points.as_flat(), threads);
        let order_keys = OrderingKeys::build(&perms, site_ids.len());
        Self { metric, points, site_ids, sites, sites_t, perms, order_keys }
    }
}

impl<M: BatchDistance> FlatDistPermIndex<M> {
    /// Reassembles an index from its build products without recomputing
    /// anything — the loading path of the on-disk store (`dp-store`).
    ///
    /// The caller must pass exactly what [`Self::build_with_sites`]
    /// produced for the same inputs: `sites_t` is the coordinate-major
    /// transpose of the gathered site rows and `perms` holds one
    /// length-`k` permutation per point.  With that contract met, the
    /// result is field-for-field identical to the freshly built index,
    /// so every query answers bit-identically.
    ///
    /// # Panics
    /// Panics if the parts are inconsistent: a site id out of range,
    /// `site_ids.len() > MAX_K`, a transposed buffer whose shape is not
    /// `k × dim`, a permutation count differing from `points.len()`, or
    /// a permutation whose length is not `k`.  (The store reader
    /// validates all of this against hostile bytes *before* calling —
    /// these asserts guard in-process misuse, not I/O.)
    pub fn from_parts(
        metric: M,
        points: VectorSet,
        site_ids: Vec<usize>,
        sites_t: TransposedSites,
        perms: Vec<Permutation>,
    ) -> Self {
        assert!(site_ids.iter().all(|&i| i < points.len()), "site id out of range");
        assert!(site_ids.len() <= MAX_K, "k = {} exceeds MAX_K = {MAX_K}", site_ids.len());
        assert_order_ids_fit(points.len());
        assert_eq!(sites_t.k(), site_ids.len(), "transposed sites disagree with site count");
        let sites = points.gather(&site_ids);
        assert_eq!(sites_t.dim(), sites.dim(), "transposed sites disagree with point dimension");
        assert_eq!(perms.len(), points.len(), "one permutation per point required");
        assert!(
            perms.iter().all(|p| p.len() == site_ids.len()),
            "permutation length disagrees with k"
        );
        let order_keys = OrderingKeys::build(&perms, site_ids.len());
        Self { metric, points, site_ids, sites, sites_t, perms, order_keys }
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

    /// The materialised site rows.
    pub fn sites(&self) -> &VectorSet {
        &self.sites
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

    /// The stored permutations, parallel to the database.
    pub fn permutations(&self) -> &[Permutation] {
        &self.perms
    }

    /// The candidate-ordering engine footrule scans run on: packed
    /// inverse-position keys at the width that fits k (`"packed-u64"`
    /// for k ≤ 12, `"packed-u128"` for k ≤ 25) or direct permutation
    /// walks beyond the packed range (`"permutation"`).  All engines
    /// order candidates identically; the label exists so callers (the
    /// CLI in particular) can report which one serves a given k.
    pub fn ordering_engine(&self) -> &'static str {
        match self.order_keys {
            OrderingKeys::Narrow(_) => "packed-u64",
            OrderingKeys::Wide(_) => "packed-u128",
            OrderingKeys::Uncached => "permutation",
        }
    }

    /// Occurrence counter over the stored permutations (the paper's
    /// measurement).
    pub fn counter(&self) -> PermutationCounter {
        let mut c = PermutationCounter::new();
        for &p in &self.perms {
            c.insert(p);
        }
        c
    }

    /// Number of distinct permutations in the index.
    pub fn distinct_permutations(&self) -> usize {
        self.counter().distinct()
    }

    /// The query's distance permutation: k metric evaluations through
    /// the batched kernel.
    pub fn query_permutation(&self, query: &[f64]) -> Permutation {
        self.session().query_permutation(query)
    }

    /// A reusable query cursor (scratch allocated once): site-distance
    /// buffer, packed candidate order, and the gather/distance blocks of
    /// the batched candidate measurement — sized in whole
    /// [`STRIP_POINTS`]-strips so serving never re-allocates.
    pub fn session(&self) -> FlatDistPermSearcher<'_, M> {
        FlatDistPermSearcher {
            index: self,
            dists: vec![0.0; self.k()],
            order: Vec::new(),
            query_site: TransposedSites::from_rows(&[], 0),
            gather: Vec::with_capacity(CANDIDATE_BLOCK_ROWS * self.points.dim()),
            cand_dists: vec![0.0; CANDIDATE_BLOCK_ROWS],
        }
    }

    /// Approximate k-NN over the `frac` permutation-nearest fraction
    /// (Spearman footrule ordering; `frac = 1.0` is exact).
    pub fn knn_approx(&self, query: &[f64], k: usize, frac: f64) -> Vec<Neighbor<F64Dist>> {
        self.session().knn_approx(query, k, frac).0
    }

    /// [`Self::knn_approx`] with an explicit ordering measure.
    pub fn knn_approx_ordered(
        &self,
        query: &[f64],
        k: usize,
        frac: f64,
        ordering: OrderingKind,
    ) -> Vec<Neighbor<F64Dist>> {
        self.session().knn_approx_ordered(query, k, frac, ordering).0
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
    query_site: TransposedSites,
    gather: Vec<f64>,
    cand_dists: Vec<f64>,
}

impl<M: BatchDistance> FlatDistPermSearcher<'_, M> {
    /// The underlying index.
    pub fn index(&self) -> &FlatDistPermIndex<M> {
        self.index
    }

    /// The query's distance permutation (k batched metric evaluations).
    pub fn query_permutation(&mut self, query: &[f64]) -> Permutation {
        query_permutation_into(self.index, &mut self.dists, query)
    }

    /// Budgeted k-NN with the default footrule ordering.
    pub fn knn_approx(
        &mut self,
        query: &[f64],
        k: usize,
        frac: f64,
    ) -> (Vec<Neighbor<F64Dist>>, QueryStats) {
        self.knn_approx_ordered(query, k, frac, OrderingKind::Footrule)
    }

    /// [`Self::knn_approx`] with an explicit ordering measure.
    ///
    /// Candidate measurement runs through the strip-mined batched kernel
    /// (the query acts as a 1-site transposed set; candidates are
    /// gathered in 64-row blocks, or at full budget read in place as
    /// contiguous 64-row blocks of storage), which for every
    /// supported metric produces the same bits as the per-point
    /// `metric.distance(query, row)` — `|x − s|`, `(x − s)²` and
    /// `|x − s|^p` are all exactly symmetric — so answers are identical
    /// to the generic [`crate::DistPermIndex`] on the same data.
    pub fn knn_approx_ordered(
        &mut self,
        query: &[f64],
        k: usize,
        frac: f64,
        ordering: OrderingKind,
    ) -> (Vec<Neighbor<F64Dist>>, QueryStats) {
        let index = self.index;
        assert_frac(frac);
        let n = index.len();
        if n == 0 || k == 0 {
            return (Vec::new(), QueryStats::default());
        }
        let budget = knn_budget(n, k, frac);
        let qperm = query_permutation_into(index, &mut self.dists, query);
        order_candidates_cached(index, &qperm, ordering, budget, &mut self.order);
        let mut heap = KnnHeap::new(k.min(n));
        measure_candidates(
            index,
            (budget < n).then_some(&self.order[..]),
            query,
            &mut self.query_site,
            &mut self.gather,
            &mut self.cand_dists,
            |i, d| heap.push(i, d),
        );
        (heap.into_sorted(), QueryStats::new((index.k() + budget) as u64))
    }

    /// Budgeted range query; a subset of the true answer, exact at
    /// `frac = 1.0`.  Candidates are measured through the batched kernel
    /// exactly as in [`Self::knn_approx_ordered`].
    pub fn range_approx(
        &mut self,
        query: &[f64],
        radius: F64Dist,
        frac: f64,
    ) -> (Vec<Neighbor<F64Dist>>, QueryStats) {
        let index = self.index;
        assert_frac(frac);
        let n = index.len();
        if n == 0 {
            return (Vec::new(), QueryStats::default());
        }
        let budget = range_budget(n, frac);
        let qperm = query_permutation_into(index, &mut self.dists, query);
        order_candidates_cached(index, &qperm, OrderingKind::Footrule, budget, &mut self.order);
        let mut out: Vec<Neighbor<F64Dist>> = Vec::new();
        measure_candidates(
            index,
            (budget < n).then_some(&self.order[..]),
            query,
            &mut self.query_site,
            &mut self.gather,
            &mut self.cand_dists,
            |i, d| {
                if d <= radius {
                    out.push(Neighbor { id: i, dist: d });
                }
            },
        );
        out.sort_unstable();
        (out, QueryStats::new((index.k() + budget) as u64))
    }
}

/// Orders candidates for the flat searchers: footrule queries run over
/// the index's cached packed inverse-position keys when k fits a key
/// width (same `(distance, id)` pairs as the permutation walk, so the
/// budgeted prefix is identical to the bit); every other case falls
/// back to [`crate::distperm::order_candidates`].  At full budget both
/// leave `order` empty without computing a distance.
fn order_candidates_cached<M: BatchDistance>(
    index: &FlatDistPermIndex<M>,
    qperm: &Permutation,
    ordering: OrderingKind,
    budget: usize,
    order: &mut Vec<u64>,
) {
    if ordering == OrderingKind::Footrule {
        match &index.order_keys {
            OrderingKeys::Narrow(keys) => {
                let q = pack_perm::<u64>(&qperm.inverse());
                budgeted_order(keys.iter().map(|&p| footrule_keys(q, p)), budget, order);
                return;
            }
            OrderingKeys::Wide(keys) => {
                let q = pack_perm::<u128>(&qperm.inverse());
                budgeted_order(keys.iter().map(|&p| footrule_keys(q, p)), budget, order);
                return;
            }
            OrderingKeys::Uncached => {}
        }
    }
    crate::distperm::order_candidates(&index.perms, qperm, ordering, budget, order);
}

/// Measures candidates against `query` through the batched kernel,
/// treating the query as a single transposed site and feeding each
/// `(id, distance)` pair to `sink`.  With no `candidates` (full budget)
/// every row streams from storage in contiguous [`CANDIDATE_BLOCK_ROWS`]
/// blocks, in id order; otherwise the packed candidate words are
/// gathered block by block, in their order.  NaN distances panic (at
/// `F64Dist::new`) exactly like the scalar path.
fn measure_candidates<M: BatchDistance>(
    index: &FlatDistPermIndex<M>,
    candidates: Option<&[u64]>,
    query: &[f64],
    query_site: &mut TransposedSites,
    gather: &mut Vec<f64>,
    cand_dists: &mut [f64],
    mut sink: impl FnMut(usize, F64Dist),
) {
    let dim = index.points.dim();
    assert_eq!(
        query.len(),
        dim,
        "vector metric applied to vectors of different dimension ({} vs {dim})",
        query.len()
    );
    query_site.assign_rows(query, dim);
    let Some(candidates) = candidates else {
        // Callers measure only non-empty indexes, and flat storage holds
        // no width-0 rows, so dim > 0 here.
        for (b, rows) in index.points.as_flat().chunks(CANDIDATE_BLOCK_ROWS * dim).enumerate() {
            let out = &mut cand_dists[..rows.len() / dim];
            index.metric.batch_distances(rows, query_site, out);
            for (j, &d) in out.iter().enumerate() {
                sink(b * CANDIDATE_BLOCK_ROWS + j, F64Dist::new(d));
            }
        }
        return;
    };
    for block in candidates.chunks(CANDIDATE_BLOCK_ROWS) {
        gather.clear();
        for &word in block {
            gather.extend_from_slice(index.points.row(order_id(word)));
        }
        let out = &mut cand_dists[..block.len()];
        index.metric.batch_distances(gather, query_site, out);
        for (&word, &d) in block.iter().zip(out.iter()) {
            sink(order_id(word), F64Dist::new(d));
        }
    }
}

/// The batched query-permutation kernel, taking the searcher's scratch
/// by parts so the budgeted-scan closures can borrow disjoint fields.
fn query_permutation_into<M: BatchDistance>(
    index: &FlatDistPermIndex<M>,
    dists: &mut [f64],
    query: &[f64],
) -> Permutation {
    let k = index.k();
    index.metric.batch_distances(query, &index.sites_t, dists);
    let mut pairs = [(F64Dist::ZERO, 0u8); MAX_K];
    for (j, (&d, pair)) in dists.iter().zip(pairs.iter_mut()).enumerate() {
        *pair = (F64Dist::new(d), j as u8);
    }
    pairs[..k].sort_unstable();
    let mut items = [0u8; MAX_K];
    for (slot, &(_, j)) in items.iter_mut().zip(pairs[..k].iter()) {
        *slot = j;
    }
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

    /// Exact k-NN as the full-budget scan: the k site evaluations of
    /// the query permutation, then every row measured in storage order,
    /// streamed in contiguous blocks with no candidate ordering
    /// (k + n evaluations).
    fn knn(&mut self, query: &[f64], k: usize) -> (Vec<Neighbor<F64Dist>>, QueryStats) {
        self.knn_approx(query, k, 1.0)
    }

    /// Exact range query as the full-budget scan: k site evaluations,
    /// then every row streamed in storage order (k + n evaluations).
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

impl<M: BatchDistance + Sync> ApproxIndex<[f64]> for FlatDistPermIndex<M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distperm::DistPermIndex;
    use dp_metric::{L2Squared, Metric, L2};
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
    fn footrule_over_keys_matches_the_permutation_walk() {
        // Every k from 1 to a full key (12 fields of a u64, 25 of a
        // u128): the unused fields must add nothing and the used ones,
        // the top field included, everything.
        use dp_permutation::permdist::spearman_footrule;
        let shuffled = |k: usize, s: u64| {
            let mut items: Vec<u8> = (0..k as u8).collect();
            let mut seed = s;
            for i in (1..items.len()).rev() {
                seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                let j = (seed >> 33) as usize % (i + 1);
                items.swap(i, j);
            }
            Permutation::from_slice(&items).unwrap()
        };
        for k in 1..=WIDE_MAX_K {
            for s in 0..40u64 {
                let (a, b) = (shuffled(k, 2 * s), shuffled(k, 2 * s + 1));
                let expected = spearman_footrule(&a, &b);
                let (ia, ib) = (a.inverse(), b.inverse());
                if k <= PACKED_MAX_K {
                    let got = footrule_keys(pack_perm::<u64>(&ia), pack_perm::<u64>(&ib));
                    assert_eq!(got, expected, "u64, k = {k}");
                }
                let got = footrule_keys(pack_perm::<u128>(&ia), pack_perm::<u128>(&ib));
                assert_eq!(got, expected, "u128, k = {k}");
            }
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
        // k = 16 exercises the u128 cached-key footrule; k = 26 the
        // uncached permutation-walk fallback.  Both must answer exactly
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
        // fresh build at a wide k — including the cached-key ordering.
        let flat = VectorSet::from_nested(&random_points(300, 2, 70));
        let built = FlatDistPermIndex::build(L2, flat.clone(), 14, PivotSelection::MaxMin, 2);
        let loaded = FlatDistPermIndex::from_parts(
            L2,
            flat,
            built.site_ids().to_vec(),
            built.sites_transposed().clone(),
            built.permutations().to_vec(),
        );
        assert_eq!(loaded.ordering_engine(), "packed-u128");
        for q in random_points(5, 2, 71) {
            assert_eq!(loaded.knn_approx(&q, 4, 0.3), built.knn_approx(&q, 4, 0.3));
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
    /// replaced: every `(ordering distance, id)` pair fully sorted, the
    /// first `budget` measured one at a time with the scalar metric.
    fn oracle_candidates(
        idx: &FlatDistPermIndex<L2>,
        q: &[f64],
        ordering: OrderingKind,
        budget: usize,
    ) -> Vec<Neighbor<F64Dist>> {
        let qperm = idx.query_permutation(q);
        let mut pairs: Vec<(u64, usize)> = idx
            .permutations()
            .iter()
            .enumerate()
            .map(|(i, p)| (ordering.distance(&qperm, p), i))
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
        // 16 packed u128, 26 uncached), answers and counts exactly as
        // the fully sorted `(key, id)` order.  Grid-snapped rows make
        // distance and ordering ties common, so the id tie-break
        // decides many answers.
        #[test]
        fn every_budget_matches_the_fully_sorted_order(
            n in 40usize..240,
            dim in 1usize..4,
            k_pick in 0usize..3,
            ordering_pick in 0usize..4,
            grid in any::<bool>(),
            nn in 1usize..5,
            seed in any::<u64>(),
        ) {
            let k = [8usize, 16, 26][k_pick];
            let ordering = OrderingKind::ALL[ordering_pick];
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
                    let mut expected = oracle_candidates(&idx, q, ordering, knn_budget);
                    expected.sort_unstable();
                    expected.truncate(nn);
                    let (got, stats) = searcher.knn_approx_ordered(q, nn, frac, ordering);
                    prop_assert_eq!(&got, &expected, "knn budget {}", budget);
                    prop_assert_eq!(stats, QueryStats::new((k + knn_budget) as u64));

                    let mut expected: Vec<_> = oracle_candidates(&idx, q, OrderingKind::Footrule, budget)
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

    #[test]
    fn empty_index_yields_empty_answers() {
        let idx = FlatDistPermIndex::build_with_sites(L2, VectorSet::new(2), vec![], 1);
        assert!(idx.is_empty());
        assert!(idx.knn_approx(&[0.0, 0.0], 3, 1.0).is_empty());
    }
}
