//! iAESA (Figueroa–Chávez–Navarro–Paredes, WEA'06).
//!
//! AESA picks its next candidate by smallest triangle-inequality lower
//! bound; iAESA instead picks the unexamined element whose *distance
//! permutation* (w.r.t. a fixed site set) is most similar to the query's —
//! "distance permutations are also used to select pivot elements,
//! providing a further improvement in search speed over AESA" (§1).
//! Elimination still uses the full AESA matrix, so results stay exact.

use crate::api::{ProximityIndex, Searcher};
use crate::laesa::{choose_pivots, PivotSelection};
use crate::query::{KnnHeap, Neighbor, QueryStats};
use dp_metric::{Distance, Metric};
use dp_permutation::permdist::spearman_footrule;
use dp_permutation::{DistPermComputer, Permutation};

/// iAESA index: the AESA matrix plus per-element distance permutations.
///
/// The k site points are materialised once at build time, so computing a
/// query's permutation costs k metric evaluations and no cloning.
#[derive(Debug, Clone)]
pub struct IAesa<P, M: Metric<P>> {
    metric: M,
    points: Vec<P>,
    matrix: Vec<M::Dist>,
    site_ids: Vec<usize>,
    sites: Vec<P>,
    perms: Vec<Permutation>,
}

impl<P: Clone, M: Metric<P>> IAesa<P, M> {
    /// Builds the index: full matrix plus k-site permutations.
    pub fn build(metric: M, points: Vec<P>, k: usize, strategy: PivotSelection) -> Self {
        let n = points.len();
        let mut matrix = vec![M::Dist::ZERO; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = metric.distance(&points[i], &points[j]);
                matrix[i * n + j] = d;
                matrix[j * n + i] = d;
            }
        }
        let site_ids = choose_pivots(&metric, &points, k, strategy);
        let sites: Vec<P> = site_ids.iter().map(|&i| points[i].clone()).collect();
        // Permutations can be read off the matrix — no extra metric cost.
        let mut perms = Vec::with_capacity(n);
        let mut scratch: Vec<(M::Dist, u8)> = Vec::with_capacity(k);
        for i in 0..n {
            scratch.clear();
            for (s, &sid) in site_ids.iter().enumerate() {
                scratch.push((matrix[i * n + sid], s as u8));
            }
            scratch.sort_unstable();
            let items: Vec<u8> = scratch.iter().map(|&(_, s)| s).collect();
            perms.push(Permutation::from_slice(&items).expect("valid by construction"));
        }
        Self { metric, points, matrix, site_ids, sites, perms }
    }
}

impl<P, M: Metric<P>> IAesa<P, M> {
    /// Database size.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The owned metric (for evaluation counting).
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// The site element ids.
    pub fn site_ids(&self) -> &[usize] {
        &self.site_ids
    }

    /// The cached site points, parallel to [`Self::site_ids`].
    pub fn sites(&self) -> &[P] {
        &self.sites
    }

    fn stored(&self, i: usize, j: usize) -> M::Dist {
        self.matrix[i * self.points.len() + j]
    }

    /// A reusable query session: permutation scratch, similarity column
    /// and elimination state are allocated once and reused.
    pub fn session(&self) -> IAesaSearcher<'_, P, M> {
        IAesaSearcher {
            index: self,
            computer: DistPermComputer::new(self.site_ids.len()),
            similarity: Vec::new(),
            lb: Vec::new(),
            alive: Vec::new(),
            examined: Vec::new(),
        }
    }

    /// Exact k nearest neighbours with permutation-guided candidate order.
    pub fn knn(&self, query: &P, k: usize) -> Vec<Neighbor<M::Dist>> {
        self.session().knn(query, k).0
    }

    /// All elements within `radius` (inclusive; exact), examined in
    /// permutation-similarity order with AESA elimination.
    pub fn range(&self, query: &P, radius: M::Dist) -> Vec<Neighbor<M::Dist>> {
        self.session().range(query, radius).0
    }
}

/// Query session over an [`IAesa`] index.
#[derive(Debug, Clone)]
pub struct IAesaSearcher<'a, P, M: Metric<P>> {
    index: &'a IAesa<P, M>,
    computer: DistPermComputer<M::Dist>,
    similarity: Vec<u64>,
    lb: Vec<f64>,
    alive: Vec<bool>,
    examined: Vec<bool>,
}

impl<P, M: Metric<P>> IAesaSearcher<'_, P, M> {
    /// The underlying index.
    pub fn index(&self) -> &IAesa<P, M> {
        self.index
    }

    /// Query permutation (k evaluations) + footrule similarity column.
    fn prepare(&mut self, query: &P) -> u64 {
        let index = self.index;
        let n = index.points.len();
        let qperm = self.computer.compute(&index.metric, &index.sites, query);
        self.similarity.clear();
        self.similarity.extend(index.perms.iter().map(|p| spearman_footrule(&qperm, p)));
        self.lb.clear();
        self.lb.resize(n, 0.0);
        self.alive.clear();
        self.alive.resize(n, true);
        self.examined.clear();
        self.examined.resize(n, false);
        index.sites.len() as u64
    }

    /// Candidate: most permutation-similar alive unexamined element
    /// (footrule ascending; lower bound as tie-break).
    fn next_candidate(&self) -> Option<usize> {
        let mut next: Option<(usize, u64, f64)> = None;
        for i in 0..self.similarity.len() {
            if self.alive[i] && !self.examined[i] {
                let better = match next {
                    None => true,
                    Some((_, s, b)) => {
                        self.similarity[i] < s || (self.similarity[i] == s && self.lb[i] < b)
                    }
                };
                if better {
                    next = Some((i, self.similarity[i], self.lb[i]));
                }
            }
        }
        next.map(|(i, _, _)| i)
    }

    /// Exact k-NN with permutation-guided candidate order.
    pub fn knn(&mut self, query: &P, k: usize) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        let index = self.index;
        if index.points.is_empty() || k == 0 {
            return (Vec::new(), QueryStats::default());
        }
        let n = index.points.len();
        let mut evals = self.prepare(query);
        let mut heap = KnnHeap::new(k.min(n));
        while let Some(c) = self.next_candidate() {
            self.examined[c] = true;
            evals += 1;
            let d = index.metric.distance(query, &index.points[c]);
            heap.push(c, d);
            let bound = heap.bound().map(Distance::to_f64);
            let df = d.to_f64();
            for i in 0..n {
                if self.alive[i] && !self.examined[i] {
                    let b = (df - index.stored(c, i).to_f64()).abs();
                    if b > self.lb[i] {
                        self.lb[i] = b;
                    }
                    if let Some(bd) = bound {
                        if self.lb[i] > bd {
                            self.alive[i] = false;
                        }
                    }
                }
            }
        }
        (heap.into_sorted(), QueryStats::new(evals))
    }

    /// Exact range query: same candidate order, elimination against the
    /// fixed radius.
    pub fn range(&mut self, query: &P, radius: M::Dist) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        let index = self.index;
        if index.points.is_empty() {
            return (Vec::new(), QueryStats::default());
        }
        let n = index.points.len();
        let r = radius.to_f64();
        let mut evals = self.prepare(query);
        let mut out = Vec::new();
        while let Some(c) = self.next_candidate() {
            self.examined[c] = true;
            evals += 1;
            let d = index.metric.distance(query, &index.points[c]);
            if d <= radius {
                out.push(Neighbor { id: c, dist: d });
            }
            let df = d.to_f64();
            for i in 0..n {
                if self.alive[i] && !self.examined[i] {
                    let b = (df - index.stored(c, i).to_f64()).abs();
                    if b > self.lb[i] {
                        self.lb[i] = b;
                    }
                    if self.lb[i] > r {
                        self.alive[i] = false;
                    }
                }
            }
        }
        out.sort_unstable();
        (out, QueryStats::new(evals))
    }
}

impl<P: Sync, M: Metric<P> + Sync> ProximityIndex<P> for IAesa<P, M> {
    type Dist = M::Dist;
    type Searcher<'s>
        = IAesaSearcher<'s, P, M>
    where
        Self: 's;

    fn size(&self) -> usize {
        self.points.len()
    }

    fn searcher(&self) -> IAesaSearcher<'_, P, M> {
        self.session()
    }
}

impl<P: Sync, M: Metric<P> + Sync> Searcher<P> for IAesaSearcher<'_, P, M> {
    type Dist = M::Dist;

    fn knn(&mut self, query: &P, k: usize) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        IAesaSearcher::knn(self, query, k)
    }

    fn range(&mut self, query: &P, radius: M::Dist) -> (Vec<Neighbor<M::Dist>>, QueryStats) {
        IAesaSearcher::range(self, query, radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearScan;
    use dp_metric::{F64Dist, L2};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..d).map(|_| rng.random::<f64>()).collect()).collect()
    }

    #[test]
    fn knn_matches_linear_scan() {
        let pts = random_points(120, 3, 1);
        let scan = LinearScan::new(L2, pts.clone());
        let idx = IAesa::build(L2, pts, 6, PivotSelection::MaxMin);
        for q in random_points(20, 3, 2) {
            assert_eq!(idx.knn(&q, 4), scan.knn(&q, 4));
        }
    }

    #[test]
    fn range_matches_linear_scan() {
        let pts = random_points(120, 2, 6);
        let scan = LinearScan::new(L2, pts.clone());
        let idx = IAesa::build(L2, pts, 5, PivotSelection::MaxMin);
        for q in random_points(15, 2, 7) {
            for r in [0.1, 0.3, 0.7] {
                let radius = F64Dist::new(r);
                assert_eq!(idx.range(&q, radius), scan.range(&q, radius), "r={r}");
            }
        }
    }

    #[test]
    fn evaluation_count_is_competitive_with_aesa() {
        let pts = random_points(300, 2, 3);
        let iaesa = IAesa::build(L2, pts.clone(), 8, PivotSelection::MaxMin);
        let aesa = crate::Aesa::build(L2, pts);
        let queries = random_points(25, 2, 4);
        let mut si = iaesa.session();
        let mut sa = aesa.session();
        let ei: u64 = queries.iter().map(|q| si.knn(q, 1).1.metric_evals).sum();
        let ea: u64 = queries.iter().map(|q| sa.knn(q, 1).1.metric_evals).sum();
        // iAESA pays k extra site evaluations per query but selects
        // candidates better; allow generous slack, require both to be far
        // below linear scan.
        assert!(ei < 25 * 150, "iAESA mean {}", ei / 25);
        assert!(ea < 25 * 150, "AESA mean {}", ea / 25);
    }

    #[test]
    fn native_stats_agree_with_counting_metric() {
        use crate::counting::CountingMetric;
        let pts = random_points(150, 2, 8);
        let idx = IAesa::build(CountingMetric::new(L2), pts, 6, PivotSelection::MaxMin);
        let mut session = idx.session();
        for q in random_points(10, 2, 9) {
            idx.metric().reset();
            let (_, stats) = session.knn(&q, 3);
            assert_eq!(stats.metric_evals, idx.metric().count(), "knn");
            idx.metric().reset();
            let (_, stats) = session.range(&q, F64Dist::new(0.25));
            assert_eq!(stats.metric_evals, idx.metric().count(), "range");
        }
    }

    #[test]
    fn perms_match_direct_computation() {
        let pts = random_points(60, 2, 5);
        let idx = IAesa::build(L2, pts.clone(), 5, PivotSelection::Prefix);
        let sites: Vec<Vec<f64>> = (0..5).map(|i| pts[i].clone()).collect();
        let mut computer = dp_permutation::DistPermComputer::new(5);
        let direct: Vec<_> = pts.iter().map(|y| computer.compute(&L2, &sites, y)).collect();
        assert_eq!(idx.perms, direct);
        assert_eq!(idx.sites(), &sites[..]);
    }

    #[test]
    fn empty_database() {
        let idx: IAesa<Vec<f64>, L2> = IAesa::build(L2, vec![], 0, PivotSelection::Prefix);
        assert!(idx.knn(&vec![0.0], 3).is_empty());
        assert!(idx.range(&vec![0.0], F64Dist::new(1.0)).is_empty());
    }
}
