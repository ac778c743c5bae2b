//! Truncated-permutation index: store only the ℓ nearest sites.
//!
//! The practical deployment of the permutation idea
//! (Chávez–Figueroa–Navarro) keeps a *prefix* of each element's distance
//! permutation.  The paper's refinement-chain view (§2) says exactly what
//! is lost: the length-ℓ ordered prefixes partition the space more
//! coarsely than full permutations (Figs 1–3), so fewer distinct keys ⇒
//! fewer storage bits (`dp-theory::prefixes` gives the ceilings) but a
//! blunter candidate ordering.  [`PrefixPermIndex`] makes that trade-off
//! measurable against the full-permutation [`crate::DistPermIndex`].

use crate::api::{ApproxIndex, ApproxSearcher, ProximityIndex, Searcher};
use crate::laesa::{choose_pivots, PivotSelection};
use crate::query::{
    assert_order_ids_fit, budgeted_knn_scan, budgeted_order, budgeted_range_scan, Neighbor,
    QueryStats,
};
use dp_metric::Metric;
use dp_permutation::encoding::element_bits;
use dp_permutation::fxhash::FxHashSet;
use dp_permutation::prefix::{prefix_footrule, PrefixPermutation};
use dp_permutation::DistPermComputer;

/// Distance-permutation index storing length-ℓ prefixes.
///
/// Sites are materialised once at build time, so a query costs k metric
/// evaluations plus prefix comparisons.
#[derive(Debug, Clone)]
pub struct PrefixPermIndex<P, M: Metric<P>> {
    metric: M,
    points: Vec<P>,
    site_ids: Vec<usize>,
    sites: Vec<P>,
    prefixes: Vec<PrefixPermutation>,
    prefix_len: usize,
}

impl<P: Clone, M: Metric<P>> PrefixPermIndex<P, M> {
    /// Builds the index with `k` sites, keeping length-`prefix_len`
    /// prefixes (k·n metric evaluations plus selection cost).
    ///
    /// # Panics
    /// Panics if `prefix_len > k`.
    pub fn build(
        metric: M,
        points: Vec<P>,
        k: usize,
        prefix_len: usize,
        strategy: PivotSelection,
    ) -> Self {
        assert!(prefix_len <= k, "prefix length {prefix_len} exceeds k = {k}");
        let site_ids = choose_pivots(&metric, &points, k, strategy);
        Self::finish(metric, points, site_ids, prefix_len)
    }

    /// Builds with explicitly provided site ids.
    pub fn build_with_sites(
        metric: M,
        points: Vec<P>,
        site_ids: Vec<usize>,
        prefix_len: usize,
    ) -> Self {
        assert!(site_ids.iter().all(|&i| i < points.len()), "site id out of range");
        assert!(prefix_len <= site_ids.len(), "prefix length exceeds site count");
        Self::finish(metric, points, site_ids, prefix_len)
    }

    fn finish(metric: M, points: Vec<P>, site_ids: Vec<usize>, prefix_len: usize) -> Self {
        assert_order_ids_fit(points.len());
        let sites: Vec<P> = site_ids.iter().map(|&i| points[i].clone()).collect();
        let mut computer = DistPermComputer::new(site_ids.len());
        let prefixes = points
            .iter()
            .map(|p| {
                let full = computer.compute(&metric, &sites, p);
                PrefixPermutation::from_permutation(&full, prefix_len)
            })
            .collect();
        Self { metric, points, site_ids, sites, prefixes, prefix_len }
    }
}

impl<P, M: Metric<P>> PrefixPermIndex<P, M> {
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

    /// Stored prefix length ℓ.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// The site element ids.
    pub fn site_ids(&self) -> &[usize] {
        &self.site_ids
    }

    /// The cached site points, parallel to [`Self::site_ids`].
    pub fn sites(&self) -> &[P] {
        &self.sites
    }

    /// The owned metric (for evaluation counting).
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// The stored prefixes, parallel to the database.
    pub fn prefixes(&self) -> &[PrefixPermutation] {
        &self.prefixes
    }

    /// Number of distinct stored prefixes — the ordered point on §2's
    /// refinement chain at length ℓ.
    pub fn distinct_prefixes(&self) -> usize {
        let set: FxHashSet<PrefixPermutation> = self.prefixes.iter().copied().collect();
        set.len()
    }

    /// Raw storage bits for the prefix column: n·ℓ·⌈log₂ k⌉.
    pub fn storage_bits_raw(&self) -> u64 {
        self.len() as u64 * self.prefix_len as u64 * u64::from(element_bits(self.k()))
    }

    /// The codebook's storage bits: n·⌈log₂ N_ℓ⌉ for the id column plus the
    /// table of N_ℓ distinct prefixes.
    pub fn storage_bits_codebook(&self) -> u64 {
        let n_distinct = self.distinct_prefixes();
        let ids = self.len() as u64 * u64::from(element_bits(n_distinct));
        let table = n_distinct as u64 * self.prefix_len as u64 * u64::from(element_bits(self.k()));
        ids + table
    }

    /// The query's length-ℓ prefix (k metric evaluations).
    pub fn query_prefix(&self, query: &P) -> PrefixPermutation {
        self.session().query_prefix(query)
    }

    /// A reusable query cursor (permutation scratch and candidate buffer
    /// allocated once).
    pub fn session(&self) -> PrefixPermSearcher<'_, P, M> {
        PrefixPermSearcher {
            index: self,
            computer: DistPermComputer::new(self.k()),
            order: Vec::new(),
        }
    }

    /// Approximate k-NN: measure the `frac` fraction of the database
    /// whose stored prefix is most similar (induced footrule) to the
    /// query's.  `frac = 1.0` measures everything and is exact.
    pub fn knn_approx(&self, query: &P, k: usize, frac: f64) -> Vec<Neighbor<M::Dist>> {
        self.session().knn_approx(query, k, frac).0
    }

    /// Approximate range query over the `frac` prefix-nearest fraction
    /// (subset of the true answer; `frac = 1.0` is exact).
    pub fn range_approx(&self, query: &P, radius: M::Dist, frac: f64) -> Vec<Neighbor<M::Dist>> {
        self.session().range_approx(query, radius, frac).0
    }
}

/// Reusable query cursor over a [`PrefixPermIndex`].
#[derive(Debug, Clone)]
pub struct PrefixPermSearcher<'a, P, M: Metric<P>> {
    index: &'a PrefixPermIndex<P, M>,
    computer: DistPermComputer<M::Dist>,
    order: Vec<u64>,
}

impl<P, M: Metric<P>> PrefixPermSearcher<'_, P, M> {
    /// The underlying index.
    pub fn index(&self) -> &PrefixPermIndex<P, M> {
        self.index
    }

    /// The query's length-ℓ prefix (k metric evaluations), using the
    /// cursor's scratch.
    pub fn query_prefix(&mut self, query: &P) -> PrefixPermutation {
        query_prefix_with(self.index, &mut self.computer, query)
    }

    /// Budgeted k-NN over the `frac` prefix-nearest fraction.
    ///
    /// Candidate ordering is by induced prefix footrule, through the
    /// same select-then-sort-prefix fast path as the full-permutation
    /// searchers (keys `(footrule, id)` are distinct, so the prefix
    /// equals the full sort's).  At `frac = 1.0` nothing is ordered:
    /// every element is measured in storage order.
    pub fn knn_approx(
        &mut self,
        query: &P,
        k: usize,
        frac: f64,
    ) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        let index = self.index;
        let computer = &mut self.computer;
        budgeted_knn_scan(
            index.points.len(),
            k,
            frac,
            index.k(),
            &mut self.order,
            |budget, order| {
                let qpre = query_prefix_with(index, computer, query);
                budgeted_order(
                    index.prefixes.iter().map(|p| prefix_footrule(&qpre, p)),
                    budget,
                    order,
                );
            },
            |i| index.metric.distance(query, &index.points[i]),
        )
    }

    /// Budgeted range query; a subset of the true answer, exact at
    /// `frac = 1.0`.
    pub fn range_approx(
        &mut self,
        query: &P,
        radius: M::Dist,
        frac: f64,
    ) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        let index = self.index;
        let computer = &mut self.computer;
        budgeted_range_scan(
            index.points.len(),
            frac,
            index.k(),
            radius,
            &mut self.order,
            |budget, order| {
                let qpre = query_prefix_with(index, computer, query);
                budgeted_order(
                    index.prefixes.iter().map(|p| prefix_footrule(&qpre, p)),
                    budget,
                    order,
                );
            },
            |i| index.metric.distance(query, &index.points[i]),
        )
    }
}

/// The prefix computation, taking the searcher's scratch by parts so
/// the budgeted-scan closures can borrow disjoint fields.
fn query_prefix_with<P, M: Metric<P>>(
    index: &PrefixPermIndex<P, M>,
    computer: &mut DistPermComputer<M::Dist>,
    query: &P,
) -> PrefixPermutation {
    let full = computer.compute(&index.metric, &index.sites, query);
    PrefixPermutation::from_permutation(&full, index.prefix_len)
}

impl<P: Sync, M: Metric<P> + Sync> ProximityIndex<P> for PrefixPermIndex<P, M> {
    type Dist = M::Dist;
    type Searcher<'s>
        = PrefixPermSearcher<'s, P, M>
    where
        Self: 's;

    fn size(&self) -> usize {
        self.points.len()
    }

    fn searcher(&self) -> PrefixPermSearcher<'_, P, M> {
        self.session()
    }
}

impl<P: Sync, M: Metric<P> + Sync> Searcher<P> for PrefixPermSearcher<'_, P, M> {
    type Dist = M::Dist;

    /// Exact k-NN as the full-budget scan: the k site evaluations of
    /// the query prefix, then every element measured in storage order
    /// with no candidate ordering (k + n evaluations).
    fn knn(&mut self, query: &P, k: usize) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        self.knn_approx(query, k, 1.0)
    }

    /// Exact range query as the full-budget scan: k site evaluations,
    /// then every element measured in storage order (k + n
    /// evaluations).
    fn range(&mut self, query: &P, radius: M::Dist) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        PrefixPermSearcher::range_approx(self, query, radius, 1.0)
    }
}

impl<P: Sync, M: Metric<P> + Sync> ApproxSearcher<P> for PrefixPermSearcher<'_, P, M> {
    fn knn_approx(
        &mut self,
        query: &P,
        k: usize,
        frac: f64,
    ) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        PrefixPermSearcher::knn_approx(self, query, k, frac)
    }

    fn range_approx(
        &mut self,
        query: &P,
        radius: M::Dist,
        frac: f64,
    ) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        PrefixPermSearcher::range_approx(self, query, radius, frac)
    }
}

impl<P: Sync, M: Metric<P> + Sync> ApproxIndex<P> for PrefixPermIndex<P, M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distperm::DistPermIndex;
    use crate::linear::LinearScan;
    use dp_metric::L2;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect()
    }

    #[test]
    fn full_length_prefix_matches_distperm_distinct_count() {
        let pts = random_points(500, 2, 1);
        let full = DistPermIndex::build(L2, pts.clone(), 6, PivotSelection::Prefix);
        let pre = PrefixPermIndex::build(L2, pts, 6, 6, PivotSelection::Prefix);
        assert_eq!(pre.distinct_prefixes(), full.distinct_permutations());
    }

    #[test]
    fn distinct_prefixes_monotone_in_length() {
        let pts = random_points(2000, 3, 2);
        let mut prev = 0usize;
        for l in 1..=6usize {
            let idx = PrefixPermIndex::build(L2, pts.clone(), 6, l, PivotSelection::Prefix);
            let n = idx.distinct_prefixes();
            assert!(n >= prev, "chain not monotone at l={l}: {n} < {prev}");
            prev = n;
        }
    }

    #[test]
    fn length_one_counts_occupied_voronoi_cells() {
        let pts = random_points(3000, 2, 3);
        let idx = PrefixPermIndex::build(L2, pts, 8, 1, PivotSelection::MaxMin);
        let n = idx.distinct_prefixes();
        assert!(n <= 8);
        assert!(n >= 6, "dense data misses many Voronoi cells: {n}");
    }

    #[test]
    fn full_budget_knn_is_exact() {
        let pts = random_points(300, 3, 4);
        let scan = LinearScan::new(L2, pts.clone());
        let idx = PrefixPermIndex::build(L2, pts, 8, 3, PivotSelection::MaxMin);
        for q in random_points(10, 3, 5) {
            assert_eq!(idx.knn_approx(&q, 4, 1.0), scan.knn(&q, 4));
        }
    }

    #[test]
    fn range_approx_full_budget_matches_linear_scan() {
        let pts = random_points(250, 2, 11);
        let scan = LinearScan::new(L2, pts.clone());
        let idx = PrefixPermIndex::build(L2, pts, 8, 4, PivotSelection::MaxMin);
        for q in random_points(8, 2, 12) {
            let radius = dp_metric::F64Dist::new(0.25);
            assert_eq!(idx.range_approx(&q, radius, 1.0), scan.range(&q, radius));
        }
    }

    #[test]
    fn range_approx_budgeted_is_subset_of_truth() {
        let pts = random_points(400, 3, 13);
        let scan = LinearScan::new(L2, pts.clone());
        let idx = PrefixPermIndex::build(L2, pts, 10, 5, PivotSelection::MaxMin);
        for q in random_points(8, 3, 14) {
            let radius = dp_metric::F64Dist::new(0.3);
            let truth = scan.range(&q, radius);
            for n in &idx.range_approx(&q, radius, 0.2) {
                assert!(truth.contains(n), "false positive {n:?}");
            }
        }
    }

    #[test]
    fn budgeted_knn_recall_grows_with_prefix_length() {
        let pts = random_points(1500, 3, 6);
        let scan = LinearScan::new(L2, pts.clone());
        let queries = random_points(40, 3, 7);
        let recall = |l: usize| {
            let idx = PrefixPermIndex::build(L2, pts.clone(), 12, l, PivotSelection::MaxMin);
            queries
                .iter()
                .filter(|q| {
                    let truth = scan.knn(q, 1)[0].id;
                    idx.knn_approx(q, 1, 0.08).first().map(|n| n.id) == Some(truth)
                })
                .count()
        };
        let short = recall(2);
        let long = recall(12);
        assert!(long >= short, "longer prefixes should not hurt recall: l=12 {long} < l=2 {short}");
        assert!(long >= 30, "full-permutation recall too low: {long}/40");
    }

    #[test]
    fn storage_shrinks_with_prefix_length() {
        let pts = random_points(2000, 3, 8);
        let full = PrefixPermIndex::build(L2, pts.clone(), 12, 12, PivotSelection::Prefix);
        let short = PrefixPermIndex::build(L2, pts, 12, 3, PivotSelection::Prefix);
        assert!(short.storage_bits_raw() < full.storage_bits_raw());
        assert!(short.storage_bits_codebook() < full.storage_bits_codebook());
        // Raw formula check: n=2000, l=3, ⌈log₂ 12⌉=4.
        assert_eq!(short.storage_bits_raw(), 2000 * 3 * 4);
    }

    #[test]
    fn query_prefix_matches_stored_prefix_for_database_points() {
        let pts = random_points(100, 2, 9);
        let idx = PrefixPermIndex::build(L2, pts.clone(), 5, 2, PivotSelection::Prefix);
        for (i, p) in pts.iter().enumerate().step_by(13) {
            assert_eq!(idx.query_prefix(p), idx.prefixes()[i]);
        }
    }

    #[test]
    fn searcher_reuse_matches_one_shot_and_counts_evals() {
        let pts = random_points(300, 2, 15);
        let idx = PrefixPermIndex::build(L2, pts, 6, 3, PivotSelection::MaxMin);
        let mut searcher = idx.session();
        for q in random_points(8, 2, 16) {
            let (got, stats) = searcher.knn_approx(&q, 3, 0.1);
            assert_eq!(got, idx.knn_approx(&q, 3, 0.1));
            assert_eq!(stats, QueryStats::new(6 + 30));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds k")]
    fn overlong_prefix_rejected() {
        let pts = random_points(10, 2, 10);
        let _ = PrefixPermIndex::build(L2, pts, 3, 4, PivotSelection::Prefix);
    }
}
