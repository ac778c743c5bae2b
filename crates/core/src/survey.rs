//! One-call database characterisation — the paper's §5 analysis as an API.
//!
//! Given a database and its metric, [`survey_database`] measures
//! everything the paper reports per database: cardinality, intrinsic
//! dimensionality ρ (Chávez–Navarro, given "for reference only" as in
//! §5), the distinct distance-permutation count for each requested k
//! (sites drawn as random database elements, the Table 2/3 protocol),
//! occupancy, the implied storage costs of every layout this workspace
//! implements (unrestricted ⌈log₂ k!⌉, raw k·⌈log₂ k⌉, codebook
//! ⌈log₂ N⌉, Huffman, and the entropy floor), and the permutation-based
//! dimensionality estimates of §5.
//!
//! The `Display` rendering is a plain-text report, the thing a downstream
//! user actually wants from the paper.
//!
//! Two entry points run one driver and differ only in the per-k count:
//! [`survey_database`] counts per point, for any metric over any point
//! type; [`survey_database_flat_sharded`] counts real-vector databases in
//! [`VectorSet`] storage through the 32-row strip tile, several times
//! faster.  Both count on the one sorted-run counter (`u64` packed keys
//! to k = 12, `u128` to k = 25, the permutations themselves above), on
//! `threads` workers, and the survey is **bit-for-bit identical** —
//! ρ, counts and the float Huffman/entropy sums — across the two
//! engines, every thread count and every shard size
//! (`tests/survey_equivalence.rs`, `tests/sharded_equivalence.rs`).

use crate::count::{transpose_sites, CountReport};
use crate::dimension::{estimate_dimension, min_euclidean_dimension, ReferenceProfile};
use dp_datasets::VectorSet;
use dp_metric::{BatchDistance, Metric};
use dp_permutation::bits::element_bits;
use dp_permutation::compute::collect_sharded_flat_parallel;
use dp_permutation::counter::collect_counter;
use dp_permutation::huffman::{entropy_bits, HuffmanCode};
use dp_permutation::{FlatKey, PackedCountSummary, RunKey};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Configuration for [`survey_database`].
#[derive(Debug, Clone)]
pub struct SurveyConfig {
    /// Site counts to measure (the paper uses 3..=12; default 4, 8, 12).
    pub ks: Vec<usize>,
    /// Seed for site selection and ρ sampling.
    pub seed: u64,
    /// Pairs sampled for the ρ estimate.
    pub rho_pairs: usize,
    /// Optional uniform-vector reference curve; enables the fractional
    /// dimension estimate at the profile's k.
    pub reference: Option<ReferenceProfile>,
}

impl Default for SurveyConfig {
    fn default() -> Self {
        Self { ks: vec![4, 8, 12], seed: 0x5EED, rho_pairs: 20_000, reference: None }
    }
}

/// Per-k measurements of one database.
#[derive(Debug, Clone)]
pub struct KSurvey {
    /// Number of sites.
    pub k: usize,
    /// The counting result (distinct, total, occupancy).
    pub report: CountReport,
    /// The site element ids used (random distinct database elements).
    pub site_ids: Vec<usize>,
    /// ⌈log₂ k!⌉ — bits for an unrestricted permutation.
    pub naive_bits: u32,
    /// k·⌈log₂ k⌉ — the raw positional layout (CFN).
    pub raw_bits: u32,
    /// ⌈log₂ N⌉ — the paper's codebook layout, N = observed distinct.
    pub codebook_bits: u32,
    /// Mean bits per element under a Huffman code on the observed
    /// distribution (§4's "more sophisticated structure").
    pub huffman_bits: f64,
    /// The empirical entropy — the floor for any layout.
    pub entropy_bits: f64,
    /// Smallest Euclidean dimension whose Theorem 7 maximum admits the
    /// observed count.
    pub min_euclidean_dim: u32,
}

/// The full report of [`survey_database`].
#[derive(Debug, Clone)]
pub struct DatabaseSurvey {
    /// Database cardinality.
    pub n: usize,
    /// Chávez–Navarro intrinsic dimensionality ρ = μ²/(2σ²).
    pub rho: f64,
    /// One row per requested k.
    pub per_k: Vec<KSurvey>,
    /// Fractional dimension estimate from the reference profile, if one
    /// was supplied and its k was among the measured ks.
    pub dimension_estimate: Option<f64>,
}

/// Measures a database: ρ plus per-k permutation counts and storage
/// costs.  Sites are `k` random distinct database elements (deterministic
/// in `config.seed`); metric cost is `Σ_k k·n` plus the ρ sample.  Each
/// per-k count runs on `threads` workers; the survey is independent of
/// the thread count.
///
/// # Panics
/// Panics if the database has fewer than two points or any `k` exceeds
/// the database size or [`dp_permutation::MAX_K`].
pub fn survey_database<P, M>(
    metric: &M,
    database: &[P],
    config: &SurveyConfig,
    threads: usize,
) -> DatabaseSurvey
where
    P: Clone + Sync,
    M: Metric<P> + Sync,
{
    survey(database.len(), &PointScan { metric, database, threads }, config)
}

/// [`survey_database`] over flat vector storage, every per-k count
/// through the strip tile on `threads` workers, each buffering at most
/// `shard_rows` keys (0 means [`dp_permutation::DEFAULT_SHARD_ROWS`]).
/// Bit-identical to the generic path on equal coordinates, at every
/// thread count and shard size.
///
/// # Panics
/// Panics if the database has fewer than two points or any `k` exceeds
/// the database size or [`dp_permutation::MAX_K`].
pub fn survey_database_flat_sharded<M: BatchDistance + Sync>(
    metric: &M,
    database: &VectorSet,
    config: &SurveyConfig,
    threads: usize,
    shard_rows: usize,
) -> DatabaseSurvey {
    survey(database.len(), &FlatScan { metric, database, threads, shard_rows }, config)
}

/// A database as the survey driver reads it: its ρ sample and the
/// finalized per-k count for a set of site ids.
trait SurveyScan {
    fn rho(&self, pairs: usize, seed: u64) -> f64;
    fn count<K: FlatKey>(&self, site_ids: &[usize]) -> PackedCountSummary<K>;
}

/// The generic per-point scan.
struct PointScan<'a, P, M> {
    metric: &'a M,
    database: &'a [P],
    threads: usize,
}

impl<P: Clone + Sync, M: Metric<P> + Sync> SurveyScan for PointScan<'_, P, M> {
    fn rho(&self, pairs: usize, seed: u64) -> f64 {
        dp_datasets::intrinsic_dimensionality(self.metric, self.database, pairs, seed)
    }

    fn count<K: FlatKey>(&self, site_ids: &[usize]) -> PackedCountSummary<K> {
        let sites: Vec<P> = site_ids.iter().map(|&i| self.database[i].clone()).collect();
        collect_counter(self.metric, &sites, self.database, self.threads).finalize()
    }
}

/// The flat strip-tile scan.
struct FlatScan<'a, M> {
    metric: &'a M,
    database: &'a VectorSet,
    threads: usize,
    shard_rows: usize,
}

impl<M: BatchDistance + Sync> SurveyScan for FlatScan<'_, M> {
    fn rho(&self, pairs: usize, seed: u64) -> f64 {
        dp_datasets::intrinsic_dimensionality_flat(self.metric, self.database, pairs, seed)
    }

    fn count<K: FlatKey>(&self, site_ids: &[usize]) -> PackedCountSummary<K> {
        let sites_t = transpose_sites(&self.database.gather(site_ids), self.database);
        let rows = self.database.as_flat();
        collect_sharded_flat_parallel(self.metric, &sites_t, rows, self.threads, self.shard_rows)
            .finalize()
    }
}

/// The survey protocol over either scan of `n` points: ρ, then for the
/// i-th k the sites drawn from `config.seed + i`, the count at the run
/// key [`dp_permutation::for_packed_k!`] picks for k, and its
/// [`KSurvey`] row; then the dimension estimate.
fn survey(n: usize, scan: &impl SurveyScan, config: &SurveyConfig) -> DatabaseSurvey {
    assert!(n >= 2, "survey needs at least two points");
    let rho = scan.rho(config.rho_pairs, config.seed ^ 0x9E37_79B9);
    let mut per_k = Vec::with_capacity(config.ks.len());
    for (i, &k) in config.ks.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(i as u64));
        let site_ids = dp_datasets::vectors::choose_distinct_indices(n, k, &mut rng);
        per_k.push(dp_permutation::for_packed_k!(k, K => {
            let summary = scan.count::<K>(&site_ids);
            build_ksurvey(k, site_ids, &summary)
        }));
    }
    let dimension_estimate = config.reference.as_ref().and_then(|profile| {
        let row = per_k.iter().find(|s| s.k == profile.k)?;
        Some(estimate_dimension(row.report.distinct, profile))
    });
    DatabaseSurvey { n, rho, per_k, dimension_estimate }
}

/// Assembles one [`KSurvey`] row from a finalized count.  The frequency
/// table is the summary's occupancies in codebook-id order — the
/// lexicographic rank of each distinct permutation, which every run key
/// sorts in — so both engines run the entropy/Huffman sums over
/// identical vectors (bit-identical results).
fn build_ksurvey<K: RunKey>(
    k: usize,
    site_ids: Vec<usize>,
    summary: &PackedCountSummary<K>,
) -> KSurvey {
    let report = CountReport::from(summary);
    let freqs = summary.lexicographic_counts();
    let huffman = HuffmanCode::from_frequencies(&freqs);
    KSurvey {
        k,
        site_ids,
        naive_bits: naive_permutation_bits(k),
        raw_bits: k as u32 * element_bits(k),
        codebook_bits: element_bits(report.distinct),
        huffman_bits: huffman.mean_bits(&freqs),
        entropy_bits: entropy_bits(&freqs),
        min_euclidean_dim: min_euclidean_dimension(report.distinct, k as u32),
        report,
    }
}

/// ⌈log₂ k!⌉: bits for an unrestricted permutation of k sites.
pub fn naive_permutation_bits(k: usize) -> u32 {
    let mut log = 0.0f64;
    for i in 2..=k as u64 {
        log += (i as f64).log2();
    }
    log.ceil() as u32
}

impl fmt::Display for DatabaseSurvey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "database survey: n = {}, rho = {:.3}", self.n, self.rho)?;
        if let Some(d) = self.dimension_estimate {
            writeln!(f, "permutation dimension estimate: {d:.2}")?;
        }
        writeln!(
            f,
            "{:>4} {:>10} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9} {:>6}",
            "k", "distinct", "occup", "naive", "raw", "codebook", "huffman", "entropy", "minEd"
        )?;
        for s in &self.per_k {
            writeln!(
                f,
                "{:>4} {:>10} {:>9.2} {:>8} {:>8} {:>9} {:>9.3} {:>9.3} {:>6}",
                s.k,
                s.report.distinct,
                s.report.mean_occupancy,
                s.naive_bits,
                s.raw_bits,
                s.codebook_bits,
                s.huffman_bits,
                s.entropy_bits,
                s.min_euclidean_dim,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_datasets::vectors::{curve_embedded, uniform_unit_cube, uniform_unit_cube_flat};
    use dp_metric::{Levenshtein, L2};

    #[test]
    fn survey_uniform_2d() {
        let db = uniform_unit_cube(5000, 2, 11);
        let cfg = SurveyConfig { ks: vec![4, 6], ..Default::default() };
        let s = survey_database(&L2, &db, &cfg, 1);
        assert_eq!(s.n, 5000);
        assert_eq!(s.per_k.len(), 2);
        let k6 = &s.per_k[1];
        // 2-D data: N ≤ N_{2,2}(6) = 101, and minEd should say ~2.
        assert!(k6.report.distinct <= 101);
        assert!(k6.min_euclidean_dim <= 2, "minEd = {}", k6.min_euclidean_dim);
        // ρ of uniform 2-D data is around 1–3.
        assert!(s.rho > 0.5 && s.rho < 4.0, "rho = {}", s.rho);
    }

    #[test]
    fn storage_hierarchy_is_ordered() {
        // entropy ≤ huffman < codebook + 1; codebook ≤ raw ≤ naive·k…
        // verify the inequalities the report is meant to demonstrate.
        let db = uniform_unit_cube(4000, 3, 13);
        let cfg = SurveyConfig { ks: vec![8], ..Default::default() };
        let s = survey_database(&L2, &db, &cfg, 1);
        let k8 = &s.per_k[0];
        assert!(k8.entropy_bits <= k8.huffman_bits + 1e-9);
        assert!(k8.huffman_bits < f64::from(k8.codebook_bits) + 1.0);
        assert!(k8.codebook_bits <= k8.raw_bits);
        assert!(k8.naive_bits <= k8.raw_bits, "⌈log₂ k!⌉ ≤ k⌈log₂ k⌉");
        // And the headline: codebook beats the naive permutation once the
        // space is low-dimensional.
        assert!(k8.codebook_bits < k8.naive_bits);
    }

    #[test]
    fn survey_runs_on_strings() {
        let words: Vec<String> =
            (0..300).map(|i| format!("w{:03}{}", i % 50, "x".repeat(i % 7))).collect();
        let cfg = SurveyConfig { ks: vec![5], rho_pairs: 2000, ..Default::default() };
        let s = survey_database(&Levenshtein, &words, &cfg, 1);
        assert!(s.per_k[0].report.distinct >= 1);
        assert!(s.rho.is_finite());
    }

    #[test]
    fn dimension_estimate_present_when_profile_matches() {
        let profile = ReferenceProfile::build(6, 2000, 4, 2, 5, 4);
        let db = curve_embedded(2000, 5, 21);
        let cfg = SurveyConfig {
            ks: vec![6],
            reference: Some(profile),
            rho_pairs: 5000,
            ..Default::default()
        };
        let s = survey_database(&L2, &db, &cfg, 1);
        let est = s.dimension_estimate.expect("profile k matches a surveyed k");
        assert!(est < 3.0, "curve data estimated at {est}");
    }

    #[test]
    fn dimension_estimate_absent_when_k_mismatch() {
        let profile = ReferenceProfile::from_curve(7, 100, vec![(1, 10.0), (2, 50.0)]);
        let db = uniform_unit_cube(500, 2, 3);
        let cfg = SurveyConfig {
            ks: vec![4],
            reference: Some(profile),
            rho_pairs: 1000,
            ..Default::default()
        };
        assert!(survey_database(&L2, &db, &cfg, 1).dimension_estimate.is_none());
    }

    #[test]
    fn naive_bits_examples() {
        assert_eq!(naive_permutation_bits(1), 0);
        assert_eq!(naive_permutation_bits(2), 1);
        // 12! = 479001600 -> 29 bits (the paper's O(k log k) side).
        assert_eq!(naive_permutation_bits(12), 29);
    }

    #[test]
    fn display_renders_rows() {
        let db = uniform_unit_cube(800, 2, 17);
        let cfg = SurveyConfig { ks: vec![4], rho_pairs: 1000, ..Default::default() };
        let text = survey_database(&L2, &db, &cfg, 1).to_string();
        assert!(text.contains("database survey: n = 800"));
        assert!(text.contains("codebook"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn tiny_database_rejected() {
        let db = vec![vec![0.0]];
        survey_database(&L2, &db, &SurveyConfig::default(), 1);
    }

    /// Field-by-field bit comparison (f64s by `to_bits`).
    fn assert_surveys_identical(a: &DatabaseSurvey, b: &DatabaseSurvey) {
        assert_eq!(a.n, b.n);
        assert_eq!(a.rho.to_bits(), b.rho.to_bits(), "rho differs");
        assert_eq!(a.dimension_estimate.map(f64::to_bits), b.dimension_estimate.map(f64::to_bits));
        assert_eq!(a.per_k.len(), b.per_k.len());
        for (x, y) in a.per_k.iter().zip(b.per_k.iter()) {
            assert_eq!(x.k, y.k);
            assert_eq!(x.site_ids, y.site_ids, "k = {}", x.k);
            assert_eq!(x.report.distinct, y.report.distinct, "k = {}", x.k);
            assert_eq!(x.report.total, y.report.total);
            assert_eq!(x.report.mean_occupancy.to_bits(), y.report.mean_occupancy.to_bits());
            assert_eq!(x.naive_bits, y.naive_bits);
            assert_eq!(x.raw_bits, y.raw_bits);
            assert_eq!(x.codebook_bits, y.codebook_bits);
            assert_eq!(x.huffman_bits.to_bits(), y.huffman_bits.to_bits(), "k = {}", x.k);
            assert_eq!(x.entropy_bits.to_bits(), y.entropy_bits.to_bits(), "k = {}", x.k);
            assert_eq!(x.min_euclidean_dim, y.min_euclidean_dim);
        }
    }

    #[test]
    fn flat_survey_matches_generic_bit_for_bit() {
        let nested = uniform_unit_cube(2500, 3, 23);
        let flat = uniform_unit_cube_flat(2500, 3, 23);
        let cfg = SurveyConfig { ks: vec![4, 7, 12], rho_pairs: 4000, ..Default::default() };
        let generic = survey_database(&L2, &nested, &cfg, 1);
        let fast = survey_database_flat_sharded(&L2, &flat, &cfg, 1, 0);
        assert_surveys_identical(&generic, &fast);
    }

    #[test]
    fn parallel_flat_survey_is_thread_count_invariant() {
        let flat = uniform_unit_cube_flat(3000, 2, 29);
        let cfg = SurveyConfig { ks: vec![5], rho_pairs: 2000, ..Default::default() };
        let seq = survey_database_flat_sharded(&L2, &flat, &cfg, 1, 0);
        let nested = flat.to_nested();
        for threads in [2, 3, 8] {
            let par = survey_database_flat_sharded(&L2, &flat, &cfg, threads, 0);
            assert_surveys_identical(&seq, &par);
            assert_surveys_identical(&seq, &survey_database(&L2, &nested, &cfg, threads));
        }
    }

    #[test]
    fn flat_survey_crosses_the_packed_boundaries() {
        // k = 13 crosses the u64/u128 seam onto the wide packed keys;
        // k = 26 exceeds WIDE_MAX_K and counts Permutation keys.
        // Every key must produce the same report as the generic path,
        // bit-for-bit including the Huffman and entropy f64 sums.
        let nested = uniform_unit_cube(1500, 4, 31);
        let flat = uniform_unit_cube_flat(1500, 4, 31);
        let cfg = SurveyConfig { ks: vec![12, 13, 25, 26], rho_pairs: 1500, ..Default::default() };
        assert_surveys_identical(
            &survey_database(&L2, &nested, &cfg, 1),
            &survey_database_flat_sharded(&L2, &flat, &cfg, 1, 0),
        );
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn tiny_flat_database_rejected() {
        let db = uniform_unit_cube_flat(1, 2, 1);
        survey_database_flat_sharded(&L2, &db, &SurveyConfig::default(), 1, 0);
    }
}
