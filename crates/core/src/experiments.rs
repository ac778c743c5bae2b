//! The Table 3 protocol: uniform random vectors, random sites.
//!
//! For each dimension d, metric Lp and site count k, the paper draws 10⁶
//! points uniformly from the unit cube, picks k of them at random as
//! sites, counts distinct distance permutations, and repeats 100 times,
//! reporting the mean and the maximum.  This module implements that
//! protocol with the scale (n, runs) as parameters; runs execute in
//! parallel on [`dp_metric::par::fork_join`] workers.

use crate::count::count_permutations_flat_sharded;
use dp_datasets::vectors::{choose_distinct_indices, uniform_unit_cube_flat};
use dp_datasets::VectorSet;
use dp_metric::par::{chunk_len, fork_join};
use dp_metric::{L2Squared, LInf, L1};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which Minkowski metric a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Manhattan.
    L1,
    /// Euclidean (evaluated via monotone-equivalent squared distances).
    L2,
    /// Chebyshev.
    LInf,
}

impl MetricKind {
    /// All three metrics in the paper's Table 3 order.
    pub const ALL: [MetricKind; 3] = [MetricKind::L1, MetricKind::L2, MetricKind::LInf];

    /// Display name matching the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::L1 => "L1",
            MetricKind::L2 => "L2",
            MetricKind::LInf => "Linf",
        }
    }

    fn count(self, sites: &VectorSet, db: &VectorSet) -> usize {
        match self {
            MetricKind::L1 => count_permutations_flat_sharded(&L1, sites, db, 1, 0).distinct,
            MetricKind::L2 => count_permutations_flat_sharded(&L2Squared, sites, db, 1, 0).distinct,
            MetricKind::LInf => count_permutations_flat_sharded(&LInf, sites, db, 1, 0).distinct,
        }
    }
}

/// Result of one (d, metric, k) cell of Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct UniformExperiment {
    /// Dimension.
    pub d: usize,
    /// Metric.
    pub metric: MetricKind,
    /// Number of sites.
    pub k: usize,
    /// Database size per run.
    pub n: usize,
    /// Number of runs.
    pub runs: usize,
    /// Mean distinct permutations over runs.
    pub mean: f64,
    /// Maximum distinct permutations over runs.
    pub max: usize,
}

/// Runs the Table 3 protocol for one (d, metric, k) cell.
///
/// Each run r draws a fresh uniform database (seed `seed + r`) and picks
/// `k` distinct random database elements as sites — exactly the paper's
/// setup.  Runs execute on `threads` scoped workers.
pub fn uniform_experiment(
    d: usize,
    metric: MetricKind,
    k: usize,
    n: usize,
    runs: usize,
    seed: u64,
    threads: usize,
) -> UniformExperiment {
    assert!(runs > 0 && n > k);
    let counts = run_counts(d, metric, k, n, runs, seed, threads);
    let mean = counts.iter().sum::<usize>() as f64 / runs as f64;
    let max = counts.into_iter().max().expect("runs > 0");
    UniformExperiment { d, metric, k, n, runs, mean, max }
}

fn run_counts(
    d: usize,
    metric: MetricKind,
    k: usize,
    n: usize,
    runs: usize,
    seed: u64,
    threads: usize,
) -> Vec<usize> {
    let run_ids: Vec<usize> = (0..runs).collect();
    fork_join(run_ids.chunks(chunk_len(runs, threads)), |chunk| {
        chunk
            .iter()
            .map(|&run| single_run(d, metric, k, n, seed.wrapping_add(run as u64)))
            .collect::<Vec<_>>()
    })
    .concat()
}

fn single_run(d: usize, metric: MetricKind, k: usize, n: usize, seed: u64) -> usize {
    let db = uniform_unit_cube_flat(n, d, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD15_7AB1E);
    let site_ids = choose_distinct_indices(n, k, &mut rng);
    let sites = db.gather(&site_ids);
    metric.count(&sites, &db)
}

/// Mean distance permutations for a whole d-range at fixed k — the data
/// behind one column block of Table 3 and the reference curve for the
/// dimensionality estimator.
pub fn sweep_dimensions(
    dims: std::ops::RangeInclusive<usize>,
    metric: MetricKind,
    k: usize,
    n: usize,
    runs: usize,
    seed: u64,
    threads: usize,
) -> Vec<UniformExperiment> {
    dims.map(|d| uniform_experiment(d, metric, k, n, runs, seed ^ ((d as u64) << 32), threads))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_permutation::lehmer::factorial;
    use dp_theory::n_euclidean;

    #[test]
    fn one_dimension_matches_paper_row_exactly() {
        // Table 3, d = 1: mean and max are (essentially) C(k,2)+1 for all
        // metrics — a dense-enough uniform database hits every cell.
        for metric in MetricKind::ALL {
            let e = uniform_experiment(1, metric, 4, 4000, 5, 42, 4);
            assert_eq!(e.max, 7, "{metric:?}");
            assert!(e.mean > 6.5, "{:?} mean {}", metric, e.mean);
        }
    }

    #[test]
    fn counts_bounded_by_factorial_and_euclidean_theory() {
        let e = uniform_experiment(2, MetricKind::L2, 4, 3000, 6, 7, 4);
        assert!(e.max as u128 <= n_euclidean(2, 4).unwrap());
        assert!((e.mean as u128) < factorial(4));
        assert!(e.mean > 6.0, "mean {}", e.mean);
    }

    #[test]
    fn high_dimension_saturates_at_factorial() {
        // d >= k-1: all k! permutations achievable, and with k=4 a few
        // thousand points nearly saturate 24.
        let e = uniform_experiment(5, MetricKind::L2, 4, 4000, 4, 11, 4);
        assert!(e.max <= 24);
        assert!(e.mean > 20.0, "mean {}", e.mean);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = uniform_experiment(2, MetricKind::L1, 5, 1000, 3, 5, 2);
        let b = uniform_experiment(2, MetricKind::L1, 5, 1000, 3, 5, 3);
        assert_eq!(a.mean, b.mean, "thread count must not change results");
        assert_eq!(a.max, b.max);
    }

    #[test]
    fn sweep_returns_monotone_trend() {
        let sweep = sweep_dimensions(1..=3, MetricKind::L2, 5, 2000, 3, 9, 4);
        assert_eq!(sweep.len(), 3);
        // Counts grow with dimension (statistically robust at these sizes).
        assert!(sweep[0].mean < sweep[1].mean);
        assert!(sweep[1].mean < sweep[2].mean);
    }
}
