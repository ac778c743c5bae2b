//! Pivot (site) selection beyond the classical heuristics.
//!
//! The paper's counting results carry a design hint for permutation
//! indexes: the information in a stored permutation is ⌈log₂ N⌉ bits,
//! where N is the number of distinct permutations the chosen sites
//! actually realise over the data.  Two site sets of equal size can
//! differ wildly in N (Table 2 vs Table 3), so
//! [`perm_diversity_pivots`] selects sites *greedily maximising the
//! distinct-permutation count* over a data sample — directly optimising
//! the quantity the paper counts.  [`random_pivots`] reproduces the
//! paper's Table 3 protocol (sites are random database elements).
//!
//! Both are deterministic in their seed; randomness comes from a local
//! SplitMix64 so this crate stays free of RNG dependencies.

use dp_metric::{Distance, Metric};
use dp_permutation::{Permutation, MAX_K};

/// SplitMix64 step — the standard 64-bit mixer (Steele–Lea–Flood).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `count` distinct indices sampled uniformly from `0..n`, deterministic
/// in `seed` (partial Fisher–Yates).
///
/// # Panics
/// Panics if `count > n`.
pub fn sample_distinct(n: usize, count: usize, seed: u64) -> Vec<usize> {
    assert!(count <= n, "cannot sample {count} distinct from {n}");
    let mut state = seed;
    // Partial Fisher–Yates over a lazily materialised identity map: only
    // touched slots are stored, so sampling k of n costs O(k) memory.
    // dplint: allow(hot-path-hash, reason = "the sparse swap map of a partial
    // Fisher–Yates: it samples site ids and counts nothing")
    let mut swapped: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let j = i + (splitmix64(&mut state) % (n - i) as u64) as usize;
        let vi = swapped.get(&i).copied().unwrap_or(i);
        let vj = swapped.get(&j).copied().unwrap_or(j);
        out.push(vj);
        swapped.insert(j, vi);
    }
    out
}

/// The Table 3 site protocol: k distinct random database elements.
pub fn random_pivots(n: usize, k: usize, seed: u64) -> Vec<usize> {
    sample_distinct(n, k, seed)
}

/// Greedy distinct-permutation-maximising site selection.
///
/// Draws a candidate pool C and an evaluation sample S from the data
/// (sizes scale with k, capped for cost), precomputes the |C|×|S|
/// distance matrix (the only metric evaluations), then greedily adds the
/// candidate whose inclusion maximises |{Π_y : y ∈ S}|, breaking ties by
/// smaller element id.  Metric cost: |C|·|S| evaluations.
///
/// # Panics
/// Panics if `k > points.len()` or `k > MAX_K`.
pub fn perm_diversity_pivots<P, M: Metric<P>>(
    metric: &M,
    points: &[P],
    k: usize,
    seed: u64,
) -> Vec<usize> {
    let n = points.len();
    assert!(k <= n, "asked for {k} pivots from {n} points");
    assert!(k <= MAX_K, "k = {k} exceeds MAX_K = {MAX_K}");
    if k == 0 {
        return Vec::new();
    }
    let pool = (4 * k).clamp(k, 48).min(n);
    let sample = 512.min(n);
    let candidates = sample_distinct(n, pool, seed);
    let sample_ids = sample_distinct(n, sample, seed ^ 0xA5A5_A5A5_A5A5_A5A5);

    // dist[c][s] = d(candidate c, sample s): the full metric budget.
    let dist: Vec<Vec<f64>> = candidates
        .iter()
        .map(|&c| {
            sample_ids.iter().map(|&s| metric.distance(&points[c], &points[s]).to_f64()).collect()
        })
        .collect();

    let mut chosen: Vec<usize> = Vec::with_capacity(k); // indices into `candidates`
    let mut scratch: Vec<(f64, u8)> = Vec::with_capacity(k);
    let mut seen: Vec<Permutation> = Vec::with_capacity(sample);
    while chosen.len() < k {
        let mut best: Option<(usize, usize)> = None; // (distinct, candidate idx)
        for (ci, &cid) in candidates.iter().enumerate() {
            if chosen.contains(&ci) {
                continue;
            }
            seen.clear();
            for (s, &cand_d) in dist[ci].iter().enumerate() {
                scratch.clear();
                for (rank, &prev) in chosen.iter().enumerate() {
                    scratch.push((dist[prev][s], rank as u8));
                }
                scratch.push((cand_d, chosen.len() as u8));
                scratch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let items: Vec<u8> = scratch.iter().map(|&(_, i)| i).collect();
                seen.push(Permutation::from_slice(&items).expect("ranks are a permutation"));
            }
            seen.sort_unstable();
            seen.dedup();
            let better = match best {
                None => true,
                Some((bd, bc)) => seen.len() > bd || (seen.len() == bd && cid < candidates[bc]),
            };
            if better {
                best = Some((seen.len(), ci));
            }
        }
        let (_, ci) = best.expect("candidate pool non-empty");
        chosen.push(ci);
    }
    chosen.into_iter().map(|ci| candidates[ci]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::CountingMetric;
    use dp_metric::L2;
    use dp_permutation::counter::count_distinct;

    fn grid_points(n: usize) -> Vec<Vec<f64>> {
        // Deterministic low-discrepancy-ish 2-D points.
        (0..n)
            .map(|i| {
                let x = (i as f64 * 0.754_877_666_246_7) % 1.0;
                let y = (i as f64 * 0.569_840_290_998_0) % 1.0;
                vec![x, y]
            })
            .collect()
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range() {
        for (n, c, seed) in [(10, 10, 1u64), (100, 7, 2), (5, 0, 3), (1, 1, 4)] {
            let s = sample_distinct(n, c, seed);
            assert_eq!(s.len(), c);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), c, "duplicates from n={n} c={c}");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn sample_distinct_deterministic_and_seed_sensitive() {
        let a = sample_distinct(1000, 20, 42);
        let b = sample_distinct(1000, 20, 42);
        let c = sample_distinct(1000, 20, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_rejected() {
        sample_distinct(3, 4, 0);
    }

    #[test]
    fn diversity_selection_beats_clustered_sites() {
        // All candidates equal: the greedy pick must at least match the
        // distinct count of a *clustered* (adversarially bad) site set.
        let pts = grid_points(600);
        let sites_div = perm_diversity_pivots(&L2, &pts, 5, 7);
        let clustered: Vec<usize> = (0..5).collect(); // first 5 points
        let div_sites: Vec<Vec<f64>> = sites_div.iter().map(|&i| pts[i].clone()).collect();
        let clu_sites: Vec<Vec<f64>> = clustered.iter().map(|&i| pts[i].clone()).collect();
        let nd = count_distinct(&L2, &div_sites, &pts);
        let nc = count_distinct(&L2, &clu_sites, &pts);
        assert!(nd >= nc, "diversity {nd} < clustered {nc}");
        // And it respects the Euclidean ceiling N_{2,2}(5) = 46.
        assert!(nd <= 46);
    }

    #[test]
    fn diversity_metric_budget_is_pool_times_sample() {
        let pts = grid_points(200);
        let metric = CountingMetric::new(L2);
        let k = 4;
        let _ = perm_diversity_pivots(&metric, &pts, k, 1);
        let pool = (4 * k).clamp(k, 48).min(200);
        assert_eq!(metric.count() as usize, pool * 200);
    }

    #[test]
    fn diversity_handles_edge_sizes() {
        let pts = grid_points(6);
        assert!(perm_diversity_pivots(&L2, &pts, 0, 1).is_empty());
        let all = perm_diversity_pivots(&L2, &pts, 6, 1);
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "must use every point: {all:?}");
    }

    #[test]
    fn random_pivots_via_enum() {
        use crate::laesa::{choose_pivots, PivotSelection};
        let pts = grid_points(50);
        let a = choose_pivots(&L2, &pts, 5, PivotSelection::Random(9));
        let b = choose_pivots(&L2, &pts, 5, PivotSelection::Random(9));
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 5);
    }
}
