//! Permutation-based dimensionality estimation (§5).
//!
//! "By comparing numbers from Table 2 with the values for Euclidean spaces
//! in Table 3 … In this way we can characterise the dimensionality of a
//! database in a highly general way."  Concretely: build the reference
//! curve d ↦ mean distinct permutations for uniform Euclidean data at the
//! same k, then place an observed count on that curve by log-space
//! interpolation.  Unlike ρ, this estimator depends only on which points
//! *can* occur, not on their probability distribution.

use crate::experiments::{sweep_dimensions, MetricKind};

/// A reference curve: mean permutation count per Euclidean dimension.
#[derive(Debug, Clone)]
pub struct ReferenceProfile {
    /// Number of sites the profile was built for.
    pub k: usize,
    /// Database size per run.
    pub n: usize,
    /// `(d, mean distinct permutations)`, increasing in d.
    pub curve: Vec<(usize, f64)>,
}

impl ReferenceProfile {
    /// Builds the reference curve for dimensions `1..=max_d` with the
    /// uniform-vector protocol.
    pub fn build(k: usize, n: usize, max_d: usize, runs: usize, seed: u64, threads: usize) -> Self {
        let sweep = sweep_dimensions(1..=max_d, MetricKind::L2, k, n, runs, seed, threads);
        let curve = sweep.into_iter().map(|e| (e.d, e.mean)).collect();
        Self { k, n, curve }
    }

    /// Builds a profile from precomputed `(d, mean)` pairs (e.g. the
    /// paper's own Table 3 numbers).
    pub fn from_curve(k: usize, n: usize, curve: Vec<(usize, f64)>) -> Self {
        assert!(curve.len() >= 2, "need at least two reference dimensions");
        assert!(curve.windows(2).all(|w| w[0].0 < w[1].0), "dimensions must increase");
        Self { k, n, curve }
    }
}

/// Places `observed` (a distinct-permutation count for k sites) on the
/// reference curve, returning a fractional dimension estimate.
///
/// Counts below the d = 1 reference clamp to the smallest dimension;
/// counts above the last reference clamp to the largest.  Interpolation
/// is linear in log-count, since counts grow geometrically in d.
pub fn estimate_dimension(observed: usize, profile: &ReferenceProfile) -> f64 {
    let curve = &profile.curve;
    let obs = (observed.max(1)) as f64;
    if obs <= curve[0].1 {
        return curve[0].0 as f64;
    }
    for w in curve.windows(2) {
        let (d0, c0) = w[0];
        let (d1, c1) = w[1];
        if obs <= c1 {
            if c1 <= c0 {
                return d1 as f64; // flat segment (saturated at k!)
            }
            let t = (obs.ln() - c0.ln()) / (c1.ln() - c0.ln());
            return d0 as f64 + t * (d1 - d0) as f64;
        }
    }
    curve.last().expect("non-empty").0 as f64
}

/// The theoretical variant: the smallest Euclidean dimension whose exact
/// maximum N_{d,2}(k) admits the observed count.  A lower bound on the
/// dimension of any Euclidean space containing the data.
pub fn min_euclidean_dimension(observed: usize, k: u32) -> u32 {
    let mut d = 0u32;
    loop {
        match dp_theory::n_euclidean(d, k) {
            Some(max) if max >= observed as u128 => return d,
            Some(_) => d += 1,
            None => return d, // beyond u128: any larger count fits
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_datasets::vectors::{curve_embedded, uniform_unit_cube};
    use dp_metric::L2;

    fn small_profile() -> ReferenceProfile {
        ReferenceProfile::build(6, 3000, 5, 3, 77, 4)
    }

    #[test]
    fn uniform_data_lands_near_its_true_dimension() {
        let profile = small_profile();
        for d in [1usize, 2, 3] {
            let db = uniform_unit_cube(3000, d, 1000 + d as u64);
            let sites: Vec<Vec<f64>> = db[..6].to_vec();
            let observed = crate::count::count_permutations(&L2, &sites, &db, 1).distinct;
            let est = estimate_dimension(observed, &profile);
            assert!(
                (est - d as f64).abs() <= 1.0,
                "true d={d}, estimated {est} from count {observed}"
            );
        }
    }

    #[test]
    fn embedded_curve_reads_as_low_dimensional() {
        // 6-dimensional embedding of a 1-parameter curve: the estimator
        // must report far below 6.
        let profile = small_profile();
        let db = curve_embedded(3000, 6, 5);
        let sites: Vec<Vec<f64>> = db[..6].to_vec();
        let observed = crate::count::count_permutations(&L2, &sites, &db, 1).distinct;
        let est = estimate_dimension(observed, &profile);
        assert!(est < 2.5, "estimated {est} for an intrinsically 1-D set");
    }

    #[test]
    fn interpolation_is_monotone_and_clamped() {
        let profile =
            ReferenceProfile::from_curve(8, 100_000, vec![(1, 29.0), (2, 262.0), (3, 1465.0)]);
        assert_eq!(estimate_dimension(10, &profile), 1.0);
        assert_eq!(estimate_dimension(29, &profile), 1.0);
        let e_mid = estimate_dimension(100, &profile);
        assert!(e_mid > 1.0 && e_mid < 2.0, "{e_mid}");
        let e_hi = estimate_dimension(1465, &profile);
        assert!((e_hi - 3.0).abs() < 1e-9);
        assert_eq!(estimate_dimension(99_999, &profile), 3.0);
        let lo = estimate_dimension(50, &profile);
        let hi = estimate_dimension(200, &profile);
        assert!(lo < hi);
    }

    #[test]
    fn min_euclidean_dimension_inverts_table1() {
        // N_{2,2}(5) = 46, N_{3,2}(5) = 96.
        assert_eq!(min_euclidean_dimension(46, 5), 2);
        assert_eq!(min_euclidean_dimension(47, 5), 3);
        assert_eq!(min_euclidean_dimension(96, 5), 3);
        assert_eq!(min_euclidean_dimension(1, 5), 0);
        // 108 observed in L1 needs d >= 4 if it were Euclidean — the
        // paper's counterexample in one line.
        assert_eq!(min_euclidean_dimension(108, 5), 4);
    }
}
