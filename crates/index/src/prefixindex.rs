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
//!
//! A prefix index *is* a [`DistPermIndex`] whose key column clamps every
//! site's position to ℓ: points share a clamped key exactly when they
//! share a prefix, and the footrule over clamped keys is the induced
//! prefix footrule (`prefix_footrule`) its searcher orders by.

use crate::api::ProximityIndex;
use crate::distperm::{DistPermIndex, DistPermSearcher};
use crate::laesa::{choose_pivots, PivotSelection};
use crate::query::Neighbor;
use dp_metric::Metric;
use dp_permutation::prefix::PrefixPermutation;

/// Distance-permutation index storing length-ℓ prefixes.
///
/// Sites are materialised once at build time, so a query costs k metric
/// evaluations plus prefix comparisons.
#[derive(Debug, Clone)]
pub struct PrefixPermIndex<P, M: Metric<P>> {
    index: DistPermIndex<P, M>,
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
        Self::build_with_sites(metric, points, site_ids, prefix_len)
    }

    /// Builds with explicitly provided site ids.
    pub fn build_with_sites(
        metric: M,
        points: Vec<P>,
        site_ids: Vec<usize>,
        prefix_len: usize,
    ) -> Self {
        Self { index: DistPermIndex::build_clamped(metric, points, site_ids, prefix_len) }
    }
}

impl<P, M: Metric<P>> PrefixPermIndex<P, M> {
    /// Database size.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of sites k.
    pub fn k(&self) -> usize {
        self.index.k()
    }

    /// Stored prefix length ℓ.
    pub fn prefix_len(&self) -> usize {
        self.index.keys.prefix_len
    }

    /// The site element ids.
    pub fn site_ids(&self) -> &[usize] {
        self.index.site_ids()
    }

    /// The cached site points, parallel to [`Self::site_ids`].
    pub fn sites(&self) -> &[P] {
        self.index.sites()
    }

    /// The owned metric (for evaluation counting).
    pub fn metric(&self) -> &M {
        self.index.metric()
    }

    /// The stored prefixes, parallel to the database, decoded from the
    /// key column.
    pub fn prefixes(&self) -> Vec<PrefixPermutation> {
        (0..self.len()).map(|i| self.index.keys.prefix(i)).collect()
    }

    /// Number of distinct stored prefixes — the ordered point on §2's
    /// refinement chain at length ℓ — counted over the key column.
    pub fn distinct_prefixes(&self) -> usize {
        self.index.distinct_permutations()
    }

    /// Raw storage bits for the prefix column: n·ℓ·⌈log₂ k⌉.
    pub fn storage_bits_raw(&self) -> u64 {
        self.index.storage_bits_raw()
    }

    /// The codebook's storage bits: n·⌈log₂ N_ℓ⌉ for the id column plus the
    /// table of N_ℓ distinct prefixes.
    pub fn storage_bits_codebook(&self) -> u64 {
        self.index.storage_bits_codebook()
    }

    /// The query's length-ℓ prefix (k metric evaluations).
    pub fn query_prefix(&self, query: &P) -> PrefixPermutation {
        PrefixPermutation::from_permutation(&self.index.query_permutation(query), self.prefix_len())
    }

    /// A reusable query cursor (permutation scratch and candidate buffer
    /// allocated once).
    pub fn session(&self) -> PrefixPermSearcher<'_, P, M> {
        self.index.session()
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

/// Reusable query cursor over a [`PrefixPermIndex`]: the
/// full-permutation searcher over its clamped key column, ordering by
/// the induced prefix footrule (nothing at `frac = 1.0`).
pub type PrefixPermSearcher<'a, P, M> = DistPermSearcher<'a, P, M>;

impl<P: Sync, M: Metric<P> + Sync> ProximityIndex<P> for PrefixPermIndex<P, M> {
    type Dist = M::Dist;
    type Searcher<'s>
        = PrefixPermSearcher<'s, P, M>
    where
        Self: 's;

    fn size(&self) -> usize {
        self.len()
    }

    fn searcher(&self) -> PrefixPermSearcher<'_, P, M> {
        self.session()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distperm::DistPermIndex;
    use crate::linear::LinearScan;
    use crate::query::{KnnHeap, QueryStats};
    use dp_metric::{F64Dist, L2};
    use dp_permutation::prefix_footrule;
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
    fn wide_prefix_indexes_order_by_the_prefix_footrule() {
        // k = 13 and 25 store u128 keys, k = 26 and 32 position arrays.
        // Below full budget the candidates are the first `budget` of the
        // full `(prefix_footrule, id)` sort; at frac 1.0 the answers are
        // the linear scan's.
        let pts = random_points(200, 3, 17);
        let scan = LinearScan::new(L2, pts.clone());
        let (frac, radius) = (0.25, F64Dist::new(0.3));
        let budget = (frac * pts.len() as f64).ceil() as usize;
        for k in [13usize, 25, 26, 32] {
            for len in [1, k / 2, k] {
                let idx = PrefixPermIndex::build(L2, pts.clone(), k, len, PivotSelection::MaxMin);
                let prefixes = idx.prefixes();
                for (i, p) in pts.iter().enumerate().step_by(23) {
                    assert_eq!(idx.query_prefix(p), prefixes[i], "k = {k}, ℓ = {len}, row {i}");
                }
                for q in random_points(3, 3, 18 + k as u64) {
                    let qpre = idx.query_prefix(&q);
                    let mut pairs: Vec<(u64, usize)> =
                        prefixes.iter().map(|p| prefix_footrule(&qpre, p)).zip(0..).collect();
                    pairs.sort_unstable();
                    let measured: Vec<Neighbor<F64Dist>> = pairs[..budget]
                        .iter()
                        .map(|&(_, id)| Neighbor { id, dist: L2.distance(&q, &pts[id]) })
                        .collect();
                    let mut heap = KnnHeap::new(3);
                    measured.iter().for_each(|nb| heap.push(nb.id, nb.dist));
                    let mut within: Vec<_> =
                        measured.into_iter().filter(|nb| nb.dist <= radius).collect();
                    within.sort_unstable();
                    let case = format!("k = {k}, ℓ = {len}");
                    assert_eq!(idx.knn_approx(&q, 3, frac), heap.into_sorted(), "{case}");
                    assert_eq!(idx.range_approx(&q, radius, frac), within, "{case}");
                    assert_eq!(idx.knn_approx(&q, 3, 1.0), scan.knn(&q, 3), "{case}");
                    assert_eq!(idx.range_approx(&q, radius, 1.0), scan.range(&q, radius), "{case}");
                }
            }
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
