//! The paper's `distperm` index: one distance permutation per element.
//!
//! A "minor modification of the library's `pivots` index type" (§5):
//! instead of storing k pivot *distances* per element, store only the
//! *permutation* of the sites sorted by distance.  Storage drops from
//! O(nk log n) to O(nk log k) bits — and, via the permutation codebook,
//! to ⌈log₂ N⌉ bits per element where N is the number of distinct
//! permutations that actually occur (the paper's central quantity).
//!
//! Each permutation is stored as its inverse-position key in the key
//! column all three permutation indexes share (a `u64` for k ≤ 12, a
//! `u128` for k ≤ 25, a position array above that);
//! [`DistPermIndex::permutations`] decodes them.
//!
//! Search follows Chávez–Figueroa–Navarro: order candidates by the
//! Spearman footrule between their stored permutation and the query's,
//! computed on the keys, then measure true distances in that order.  The
//! footrule is the one ordering the index runs; the `permdist_ablation`
//! bench binary compares it with other permutation measures over the
//! decoded permutations.
//! Permutations carry no lower bound, so a budgeted scan is
//! *approximate*; the full budget (`frac = 1.0`) is exact — which is how
//! the index satisfies the exact [`crate::ProximityIndex`] contract while
//! also implementing the budgeted [`crate::ApproxSearcher`] surface.
//! [`crate::PrefixPermIndex`] is this index over a key column clamped to
//! length-ℓ prefixes, and searches through [`DistPermSearcher`].

use crate::api::{ApproxSearcher, ProximityIndex, Searcher};
use crate::keys::{clamped_positions, KeyColumn};
use crate::laesa::{choose_pivots, PivotSelection};
use crate::query::{
    assert_frac, assert_order_ids_fit, knn_budget, order_id, range_budget, KnnHeap, Neighbor,
    QueryStats,
};
use dp_metric::Metric;
use dp_permutation::bits::element_bits;
use dp_permutation::{DistPermComputer, PackedCountSummary, PackedPermutationCounter, Permutation};

/// Distance-permutation index over an owned database.
///
/// The k site points are **materialised once at build time** (`sites`),
/// so a query costs exactly k metric evaluations plus permutation
/// comparisons — no per-query cloning.  For bulk query streams,
/// [`Self::searcher`] additionally reuses the permutation scratch and the
/// candidate-order buffer across queries.
#[derive(Debug, Clone)]
pub struct DistPermIndex<P, M: Metric<P>> {
    metric: M,
    points: Vec<P>,
    site_ids: Vec<usize>,
    sites: Vec<P>,
    /// The key column; the prefix index reads it.
    pub(crate) keys: KeyColumn,
}

impl<P: Clone, M: Metric<P>> DistPermIndex<P, M> {
    /// Builds the index: chooses `k` sites, then computes each element's
    /// distance permutation (k·n metric evaluations, like LAESA's build).
    pub fn build(metric: M, points: Vec<P>, k: usize, strategy: PivotSelection) -> Self {
        let site_ids = choose_pivots(&metric, &points, k, strategy);
        Self::build_with_sites(metric, points, site_ids)
    }

    /// Builds with explicitly provided site ids (the Table 3 protocol:
    /// random distinct database elements as sites).
    pub fn build_with_sites(metric: M, points: Vec<P>, site_ids: Vec<usize>) -> Self {
        let k = site_ids.len();
        Self::build_clamped(metric, points, site_ids, k)
    }

    /// [`Self::build_with_sites`] with every stored position clamped to
    /// `prefix_len`: the index of [`crate::PrefixPermIndex`].
    pub(crate) fn build_clamped(
        metric: M,
        points: Vec<P>,
        site_ids: Vec<usize>,
        prefix_len: usize,
    ) -> Self {
        assert!(site_ids.iter().all(|&i| i < points.len()), "site id out of range");
        assert!(prefix_len <= site_ids.len(), "prefix length exceeds site count");
        assert_order_ids_fit(points.len());
        let sites: Vec<P> = site_ids.iter().map(|&i| points[i].clone()).collect();
        let mut computer = DistPermComputer::new(site_ids.len());
        let keys = KeyColumn::collect(site_ids.len(), prefix_len, points.len(), |push| {
            for p in &points {
                push(&clamped_positions(&computer.compute(&metric, &sites, p), prefix_len));
            }
        });
        Self { metric, points, site_ids, sites, keys }
    }
}

impl<P, M: Metric<P>> DistPermIndex<P, M> {
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

    /// The owned metric (for evaluation counting).
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// The stored permutations, parallel to the database, decoded from
    /// the key column.
    pub fn permutations(&self) -> Vec<Permutation> {
        (0..self.len()).map(|i| self.keys.permutation(i)).collect()
    }

    /// Occurrence counts of the stored permutations — the paper's
    /// measurement (distinct count, occupancy), counted on the sorted-run
    /// counter over permutation keys.
    pub fn counter(&self) -> PackedCountSummary<Permutation> {
        let mut c = PackedPermutationCounter::new(self.k());
        self.permutations().iter().for_each(|p| c.insert(p));
        c.finalize()
    }

    /// Number of distinct permutations in the index
    /// (|{Π_y : y ∈ database}|), counted over the key column.
    pub fn distinct_permutations(&self) -> usize {
        self.keys.distinct()
    }

    /// A codebook over the stored permutations ([`Self::counter`]) plus
    /// the id stream — the paper's compact storage layout.  Ids are
    /// lexicographic ranks.
    pub fn codebook(&self) -> (PackedCountSummary<Permutation>, Vec<u32>) {
        let cb = self.counter();
        let ids = (0..self.len())
            .map(|i| cb.id_of(&self.keys.permutation(i)).expect("every stored permutation counted"))
            .collect();
        (cb, ids)
    }

    /// Raw permutation storage bits: n·k·⌈log₂ k⌉ (the CFN layout), or
    /// n·ℓ·⌈log₂ k⌉ for a column clamped to length-ℓ prefixes.
    pub fn storage_bits_raw(&self) -> u64 {
        self.len() as u64 * self.row_bits()
    }

    /// Bits of one stored permutation (or prefix): ℓ·⌈log₂ k⌉.
    fn row_bits(&self) -> u64 {
        self.keys.prefix_len as u64 * u64::from(element_bits(self.k()))
    }

    /// The codebook's storage bits: n·⌈log₂ N⌉ ids plus the N-permutation
    /// table — the paper's improved layout (Θ(nd log k) in d-dimensional
    /// Euclidean space by Corollary 8).  A clamped column's table holds
    /// its N distinct length-ℓ prefixes.
    pub fn storage_bits_codebook(&self) -> u64 {
        let n_distinct = self.distinct_permutations();
        let ids = self.len() as u64 * u64::from(element_bits(n_distinct));
        ids + n_distinct as u64 * self.row_bits()
    }

    /// ASCII export of the permutations, one per line in the order of the
    /// database — the output format of the paper's `build-distperm-*`
    /// programs (count distinct with `sort | uniq | wc -l`).
    pub fn export_ascii(&self) -> String {
        let mut out = String::with_capacity(self.len() * (2 * self.k() + 1));
        for p in self.permutations() {
            for (i, e) in p.as_slice().iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(&(e + 1).to_string());
            }
            out.push('\n');
        }
        out
    }

    /// The cached site points, parallel to [`Self::site_ids`].
    pub fn sites(&self) -> &[P] {
        &self.sites
    }

    /// The query's distance permutation (k metric evaluations, against
    /// the sites cached at build time).
    pub fn query_permutation(&self, query: &P) -> Permutation {
        let mut computer = DistPermComputer::new(self.k());
        computer.compute(&self.metric, &self.sites, query)
    }

    /// A reusable query cursor borrowing this index: permutation scratch
    /// and candidate buffers are allocated once and reused across
    /// queries, which is the right shape for serving query streams.
    pub fn session(&self) -> DistPermSearcher<'_, P, M> {
        DistPermSearcher {
            index: self,
            computer: DistPermComputer::new(self.k()),
            order: Vec::new(),
        }
    }

    /// Approximate k-NN: measure the fraction `frac` of the database most
    /// similar (by Spearman footrule) to the query's permutation.
    ///
    /// `frac = 1.0` measures everything and is exact.  Metric cost:
    /// k + ⌈frac·n⌉ evaluations.
    pub fn knn_approx(&self, query: &P, k: usize, frac: f64) -> Vec<Neighbor<M::Dist>> {
        self.session().knn_approx(query, k, frac).0
    }

    /// Approximate range query: report elements within `radius` among the
    /// `frac` permutation-nearest fraction of the database.
    ///
    /// A subset of the true answer (no false positives — every reported
    /// element is measured); `frac = 1.0` is exact.
    pub fn range_approx(&self, query: &P, radius: M::Dist, frac: f64) -> Vec<Neighbor<M::Dist>> {
        self.session().range_approx(query, radius, frac).0
    }
}

/// Reusable query cursor over a [`DistPermIndex`].
///
/// Holds the permutation scratch and the candidate-order buffer so a
/// stream of queries performs no per-query allocation beyond the result
/// vector.  Obtained from [`DistPermIndex::session`] (or the trait's
/// `searcher`); each thread of a query-serving loop should own one.
#[derive(Debug, Clone)]
pub struct DistPermSearcher<'a, P, M: Metric<P>> {
    index: &'a DistPermIndex<P, M>,
    computer: DistPermComputer<M::Dist>,
    order: Vec<u64>,
}

impl<P, M: Metric<P>> DistPermSearcher<'_, P, M> {
    /// The query's distance permutation (k metric evaluations), using
    /// the cursor's scratch.
    pub fn query_permutation(&mut self, query: &P) -> Permutation {
        self.computer.compute(&self.index.metric, &self.index.sites, query)
    }

    /// Budgeted k-NN over the footrule-nearest candidates; returns the
    /// neighbours and the native evaluation count (k + budget).
    ///
    /// The budget is `⌈frac·n⌉` clamped to `[min(k, n), n]`; `n == 0`
    /// and `k == 0` answer empty with no evaluations.
    pub fn knn_approx(
        &mut self,
        query: &P,
        k: usize,
        frac: f64,
    ) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        assert_frac(frac);
        let n = self.index.len();
        if n == 0 || k == 0 {
            return (Vec::new(), QueryStats::default());
        }
        let budget = knn_budget(n, k, frac);
        let mut heap = KnnHeap::new(k.min(n));
        self.scan(query, budget, |id, dist| heap.push(id, dist));
        (heap.into_sorted(), QueryStats::new((self.index.k() + budget) as u64))
    }

    /// Budgeted range query; a subset of the true answer, exact at
    /// `frac = 1.0`.  The budget is `⌈frac·n⌉` (no k floor).
    pub fn range_approx(
        &mut self,
        query: &P,
        radius: M::Dist,
        frac: f64,
    ) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        assert_frac(frac);
        let n = self.index.len();
        if n == 0 {
            return (Vec::new(), QueryStats::default());
        }
        let budget = range_budget(n, frac);
        let mut out = Vec::new();
        self.scan(query, budget, |id, dist| {
            if dist <= radius {
                out.push(Neighbor { id, dist });
            }
        });
        out.sort_unstable();
        (out, QueryStats::new((self.index.k() + budget) as u64))
    }

    /// The budgeted scan both queries share: the query permutation (k
    /// evaluations), the `budget` footrule-nearest candidates, and each
    /// one's measured distance fed to `visit` — every element in storage
    /// order at full budget, which orders nothing.
    fn scan(&mut self, query: &P, budget: usize, mut visit: impl FnMut(usize, M::Dist)) {
        let index = self.index;
        let qperm = self.computer.compute(&index.metric, &index.sites, query);
        index.keys.order(&qperm, budget, &mut self.order);
        let mut measure = |id: usize| visit(id, index.metric.distance(query, &index.points[id]));
        if budget == index.len() {
            (0..budget).for_each(measure);
        } else {
            self.order.iter().for_each(|&word| measure(order_id(word)));
        }
    }
}

impl<P: Sync, M: Metric<P> + Sync> ProximityIndex<P> for DistPermIndex<P, M> {
    type Dist = M::Dist;
    type Searcher<'s>
        = DistPermSearcher<'s, P, M>
    where
        Self: 's;

    fn size(&self) -> usize {
        self.points.len()
    }

    fn searcher(&self) -> DistPermSearcher<'_, P, M> {
        self.session()
    }
}

impl<P: Sync, M: Metric<P> + Sync> Searcher<P> for DistPermSearcher<'_, P, M> {
    type Dist = M::Dist;

    /// Exact k-NN as the full-budget scan: the k site evaluations of
    /// the query permutation, then every element measured in storage
    /// order with no candidate ordering (k + n evaluations).
    fn knn(&mut self, query: &P, k: usize) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        self.knn_approx(query, k, 1.0)
    }

    /// Exact range query as the full-budget scan: k site evaluations,
    /// then every element measured in storage order (k + n
    /// evaluations).
    fn range(&mut self, query: &P, radius: M::Dist) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        DistPermSearcher::range_approx(self, query, radius, 1.0)
    }
}

impl<P: Sync, M: Metric<P> + Sync> ApproxSearcher<P> for DistPermSearcher<'_, P, M> {
    fn knn_approx(
        &mut self,
        query: &P,
        k: usize,
        frac: f64,
    ) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        DistPermSearcher::knn_approx(self, query, k, frac)
    }

    fn range_approx(
        &mut self,
        query: &P,
        radius: M::Dist,
        frac: f64,
    ) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        DistPermSearcher::range_approx(self, query, radius, frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::CountingMetric;
    use crate::linear::LinearScan;
    use crate::query::KnnHeap;
    use dp_metric::L2;
    use dp_permutation::counter::count_distinct;
    use dp_permutation::permdist::spearman_footrule;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect()
    }

    #[test]
    fn distinct_count_matches_direct_computation() {
        let pts = random_points(400, 2, 1);
        let idx = DistPermIndex::build(L2, pts.clone(), 6, PivotSelection::Prefix);
        let sites: Vec<Vec<f64>> = (0..6).map(|i| pts[i].clone()).collect();
        assert_eq!(idx.distinct_permutations(), count_distinct(&L2, &sites, &pts));
    }

    #[test]
    fn distinct_count_respects_euclidean_bound() {
        // 2-D data, k = 5: at most N_{2,2}(5) = 46 distinct permutations.
        let pts = random_points(3000, 2, 2);
        let idx = DistPermIndex::build(L2, pts, 5, PivotSelection::MaxMin);
        assert!(idx.distinct_permutations() <= 46);
        assert!(idx.distinct_permutations() > 10, "suspiciously few cells hit");
    }

    #[test]
    fn full_budget_knn_is_exact() {
        let pts = random_points(200, 3, 3);
        let scan = LinearScan::new(L2, pts.clone());
        let idx = DistPermIndex::build(L2, pts, 8, PivotSelection::MaxMin);
        for q in random_points(10, 3, 4) {
            assert_eq!(idx.knn_approx(&q, 5, 1.0), scan.knn(&q, 5));
        }
    }

    #[test]
    fn budgeted_knn_has_reasonable_recall() {
        let pts = random_points(1000, 3, 5);
        let scan = LinearScan::new(L2, pts.clone());
        let idx = DistPermIndex::build(L2, pts, 12, PivotSelection::MaxMin);
        let queries = random_points(30, 3, 6);
        let mut hits = 0usize;
        for q in &queries {
            let exact: Vec<usize> = scan.knn(q, 1).iter().map(|n| n.id).collect();
            let approx: Vec<usize> = idx.knn_approx(q, 1, 0.1).iter().map(|n| n.id).collect();
            hits += usize::from(exact == approx);
        }
        // Permutation ordering should find the true NN far more often than
        // the 10% a random scan of the same budget would.
        assert!(hits >= 20, "recall {hits}/30");
    }

    #[test]
    fn native_stats_count_budget_plus_sites() {
        let pts = random_points(500, 2, 7);
        let idx = DistPermIndex::build(CountingMetric::new(L2), pts, 10, PivotSelection::Prefix);
        idx.metric().reset();
        let q = vec![0.5, 0.5];
        let (_, stats) = idx.session().knn_approx(&q, 3, 0.2);
        // k site evaluations + ceil(0.2 * 500) = 10 + 100, natively and
        // through the legacy counting wrapper alike.
        assert_eq!(stats, QueryStats::new(10 + 100));
        assert_eq!(idx.metric().count(), 10 + 100);
    }

    #[test]
    fn export_ascii_is_one_based_lines() {
        let pts = vec![vec![0.0], vec![1.0], vec![0.9]];
        let idx = DistPermIndex::build(L2, pts, 2, PivotSelection::Prefix);
        let text = idx.export_ascii();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "1 2");
        assert_eq!(lines[1], "2 1");
        assert_eq!(lines[2], "2 1");
    }

    #[test]
    fn codebook_roundtrips() {
        let pts = random_points(300, 2, 8);
        let idx = DistPermIndex::build(L2, pts, 5, PivotSelection::MaxMin);
        let (cb, ids) = idx.codebook();
        assert_eq!(ids.len(), idx.len());
        assert_eq!(cb.distinct(), idx.distinct_permutations());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(cb.permutation(id), Some(idx.permutations()[i]));
        }
    }

    #[test]
    fn range_approx_full_budget_matches_linear_scan() {
        let pts = random_points(300, 2, 11);
        let scan = LinearScan::new(L2, pts.clone());
        let idx = DistPermIndex::build(L2, pts, 8, PivotSelection::MaxMin);
        for q in random_points(10, 2, 12) {
            let radius = dp_metric::F64Dist::new(0.25);
            assert_eq!(idx.range_approx(&q, radius, 1.0), scan.range(&q, radius));
        }
    }

    #[test]
    fn range_approx_budgeted_is_subset_of_truth() {
        let pts = random_points(500, 3, 13);
        let scan = LinearScan::new(L2, pts.clone());
        let idx = DistPermIndex::build(L2, pts, 10, PivotSelection::MaxMin);
        for q in random_points(10, 3, 14) {
            let radius = dp_metric::F64Dist::new(0.3);
            let truth = scan.range(&q, radius);
            let approx = idx.range_approx(&q, radius, 0.2);
            assert!(approx.len() <= truth.len());
            for n in &approx {
                assert!(truth.contains(n), "false positive {n:?}");
            }
        }
    }

    #[test]
    fn budgeted_order_matches_full_sort_prefix() {
        // The select_nth fast path must scan exactly the same candidates,
        // in the same order, as a full sort truncated to the budget.
        let pts = random_points(700, 3, 31);
        let idx = DistPermIndex::build(L2, pts.clone(), 9, PivotSelection::MaxMin);
        for (qi, q) in random_points(8, 3, 32).iter().enumerate() {
            let qperm = idx.query_permutation(q);
            // Reference: full sort of (footrule, id), then truncate.
            let mut full: Vec<(u64, usize)> = idx
                .permutations()
                .iter()
                .enumerate()
                .map(|(i, p)| (spearman_footrule(&qperm, p), i))
                .collect();
            full.sort_unstable();
            for budget_frac in [0.05f64, 0.33, 0.8] {
                let budget = ((budget_frac * 700.0).ceil() as usize).max(3);
                let expected: Vec<Neighbor<_>> = {
                    let mut heap = KnnHeap::new(3);
                    for &(_, i) in full.iter().take(budget) {
                        heap.push(i, L2.distance(q, &pts[i]));
                    }
                    heap.into_sorted()
                };
                let got = idx.knn_approx(q, 3, budget_frac);
                assert_eq!(got, expected, "query {qi}, frac {budget_frac}");
            }
        }
    }

    #[test]
    fn searcher_reuse_matches_one_shot_queries() {
        let pts = random_points(400, 2, 33);
        let idx = DistPermIndex::build(L2, pts, 8, PivotSelection::MaxMin);
        let mut searcher = idx.session();
        for q in random_points(12, 2, 34) {
            assert_eq!(searcher.knn_approx(&q, 4, 0.25).0, idx.knn_approx(&q, 4, 0.25));
            assert_eq!(searcher.query_permutation(&q), idx.query_permutation(&q));
            let radius = dp_metric::F64Dist::new(0.2);
            assert_eq!(searcher.range_approx(&q, radius, 0.5).0, idx.range_approx(&q, radius, 0.5));
        }
    }

    #[test]
    fn trait_surface_is_exact_and_counts_full_scan() {
        let pts = random_points(120, 2, 36);
        let scan = LinearScan::new(L2, pts.clone());
        let idx = DistPermIndex::build(L2, pts, 6, PivotSelection::MaxMin);
        for q in random_points(6, 2, 37) {
            let (got, stats) = idx.query_knn(&q, 4);
            assert_eq!(got, scan.knn(&q, 4));
            assert_eq!(stats, QueryStats::new(6 + 120));
            let radius = dp_metric::F64Dist::new(0.3);
            let (got, _) = idx.query_range(&q, radius);
            assert_eq!(got, scan.range(&q, radius));
        }
    }

    #[test]
    fn cached_sites_match_site_ids() {
        let pts = random_points(100, 2, 35);
        let idx = DistPermIndex::build(L2, pts.clone(), 5, PivotSelection::MaxMin);
        let expected: Vec<Vec<f64>> = idx.site_ids().iter().map(|&i| pts[i].clone()).collect();
        assert_eq!(idx.sites(), &expected[..]);
    }

    #[test]
    fn sites_have_identity_prefix_property() {
        // A site's own permutation starts with itself.
        let pts = random_points(50, 2, 9);
        let idx = DistPermIndex::build(L2, pts, 6, PivotSelection::MaxMin);
        for (rank, &sid) in idx.site_ids().iter().enumerate() {
            assert_eq!(idx.permutations()[sid].get(0) as usize, rank, "site {rank}");
        }
    }
}
