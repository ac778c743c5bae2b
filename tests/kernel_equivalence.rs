//! Batch-kernel equivalence: the column kernel
//! `BatchDistance::column_distances`, fed 32-row strips by the loader
//! `load_strip`, and the row-major adapter `BatchDistance::batch_distances`
//! must be **bit-for-bit** equal to the scalar `Metric::distance` — for
//! all five vector metrics (plus a random-exponent `Lp`), every row
//! count mod 32 (full strips, padded tails and the adapter's one-lane
//! rows), k from 0 to 32, non-finite inputs, and through every flat
//! consumer (permutation scans, counting, the flat index) at 1/2/4
//! threads.
//!
//! `scripts/check.sh` also runs this suite under `--release`, where the
//! optimized-float codegen actually vectorizes the kernel's lane loops —
//! the configuration in which its bit-identity could really break.

use distance_permutations::core::count::{count_permutations, count_permutations_flat_sharded};
use distance_permutations::datasets::VectorSet;
use distance_permutations::index::{DistPermIndex, FlatDistPermIndex};
use distance_permutations::metric::{
    load_strip, BatchDistance, F64Dist, L2Squared, LInf, Lp, Metric, TransposedSites, L1, L2, STRIP,
};
use distance_permutations::permutation::{rank_rows_flat, DistPermComputer, FlatKey, Permutation};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// Deterministic irregular filler covering both signs.
fn weyl_rows(n: usize, dim: usize, salt: u64) -> Vec<f64> {
    (0..n * dim)
        .map(|i| {
            let t = ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ salt) >> 11) as f64
                / (1u64 << 53) as f64;
            t * 40.0 - 20.0
        })
        .collect()
}

/// All `n × k` distances through the column kernel, one strip from the
/// loader at a time, returned row-major like the adapter's.
fn column_kernel<M: BatchDistance>(metric: &M, rows: &[f64], sites: &TransposedSites) -> Vec<f64> {
    let (k, dim) = (sites.k(), sites.dim());
    let mut out = Vec::with_capacity(rows.len() / dim * k);
    let mut cols = vec![[0.0f64; STRIP]; dim];
    let mut tile = vec![[f64::NAN; STRIP]; k];
    for strip in rows.chunks(STRIP * dim) {
        let live = load_strip(&mut cols, strip);
        metric.column_distances(&cols, sites, &mut tile);
        for lane in 0..live {
            out.extend(tile.iter().map(|site| site[lane]));
        }
    }
    out
}

/// Keeps the NaN rejections the scalar oracle catches off stderr.
fn quiet_nan_rejections() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.to_string().contains("distance must not be NaN") {
                default(info);
            }
        }));
    });
}

/// The scalar oracle: `metric.distance(row, site)`, or `None` where it
/// rejects a NaN result.
fn scalar<M: BatchDistance>(metric: &M, row: &[f64], site: &[f64]) -> Option<F64Dist> {
    if row.iter().chain(site).all(|x| x.is_finite()) {
        return Some(metric.distance(row, site));
    }
    quiet_nan_rejections();
    catch_unwind(AssertUnwindSafe(|| metric.distance(row, site))).ok()
}

/// Runs one metric through the column kernel and the adapter on one
/// shape and asserts both equal the scalar `distance` to the bit.
fn assert_kernel_equivalence<M: BatchDistance>(
    metric: &M,
    rows: &[f64],
    site_rows: &[f64],
    dim: usize,
    tag: &str,
) {
    let sites = TransposedSites::from_rows(site_rows, dim);
    let (n, k) = (rows.len() / dim, sites.k());
    let mut adapter = vec![f64::NAN; n * k];
    metric.batch_distances(rows, &sites, &mut adapter);
    let columns = column_kernel(metric, rows, &sites);
    assert_eq!(columns.len(), n * k, "{tag}: column kernel output length");
    for r in 0..n {
        for j in 0..k {
            let (a, c) = (adapter[r * k + j], columns[r * k + j]);
            match scalar(metric, &rows[r * dim..][..dim], &site_rows[j * dim..][..dim]) {
                Some(want) => {
                    // F64Dist's Eq is bitwise (distances are never -0.0).
                    assert_eq!(F64Dist::new(a), want, "{tag}: adapter at ({r}, {j})");
                    assert_eq!(F64Dist::new(c), want, "{tag}: columns at ({r}, {j})");
                }
                // NaN payload bits are codegen-defined (scalar and vector
                // instructions may generate different quiet-NaN
                // patterns); NaN distances panic at every public API
                // boundary regardless, so NaN-ness is what must agree.
                None => assert!(a.is_nan() && c.is_nan(), "{tag}: NaN disagreement at ({r}, {j})"),
            }
        }
    }
}

fn for_all_metrics(rows: &[f64], site_rows: &[f64], dim: usize, tag: &str) {
    assert_kernel_equivalence(&L1, rows, site_rows, dim, &format!("{tag} L1"));
    assert_kernel_equivalence(&L2, rows, site_rows, dim, &format!("{tag} L2"));
    assert_kernel_equivalence(&L2Squared, rows, site_rows, dim, &format!("{tag} L2sq"));
    assert_kernel_equivalence(&LInf, rows, site_rows, dim, &format!("{tag} LInf"));
    assert_kernel_equivalence(&Lp::new(2.5), rows, site_rows, dim, &format!("{tag} Lp2.5"));
}

/// Every row count mod 32, from empty through two full strips and a
/// tail, at k ∈ {0, 1, 4, 12, 32}: full strips, padded tails and the
/// adapter's one-lane rows all equal the scalar fold.
#[test]
fn kernels_agree_at_every_strip_remainder() {
    for n in 0..=2 * STRIP + 1 {
        for k in [0usize, 1, 4, 12, 32] {
            let dim = 1 + (n + k) % 5;
            let rows = weyl_rows(n, dim, n as u64);
            let site_rows = weyl_rows(k, dim, 0xABCD ^ k as u64);
            let tag = format!("n = {n}, k = {k}, dim = {dim}");
            for_all_metrics(&rows, &site_rows, dim, &tag);
            assert_kernel_equivalence(&Lp::new(1.75), &rows, &site_rows, dim, &tag);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Every (n, k, dim) shape — up to three 32-row strips and every k
    // to MAX_K = 32 — keeps the column kernel and the adapter
    // bit-identical to the scalar fold for all five metrics (plus a
    // random-exponent Lp).
    #[test]
    fn kernels_agree_on_random_shapes(
        n in 0usize..72,
        k in 0usize..33,
        dim in 1usize..9,
        p in 1.0f64..6.0,
        salt in 0u64..1000,
    ) {
        let rows = weyl_rows(n, dim, salt);
        let site_rows = weyl_rows(k, dim, salt ^ 0xABCD);
        for_all_metrics(&rows, &site_rows, dim, "shape");
        assert_kernel_equivalence(&Lp::new(p), &rows, &site_rows, dim, "shape Lp-rand");
    }

    // Non-finite coordinates (NaN, ±∞) in full strips, padded tails and
    // one-lane rows propagate through both paths exactly as through the
    // scalar fold: the same bits wherever its result is representable
    // (±∞ included), NaN wherever it rejects one.
    #[test]
    fn kernels_agree_on_non_finite_inputs(
        n in 1usize..70,
        k in 1usize..10,
        dim in 1usize..5,
        salt in 0u64..1000,
        positions in prop::collection::vec((0usize..512, 0usize..3), 1..12),
    ) {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut rows = weyl_rows(n, dim, salt);
        let mut site_rows = weyl_rows(k, dim, salt ^ 0xF00D);
        for &(pos, which) in &positions {
            let (ri, si) = (pos % rows.len(), (pos * 7) % site_rows.len());
            rows[ri] = specials[which];
            site_rows[si] = specials[which];
        }
        for_all_metrics(&rows, &site_rows, dim, "non-finite");
    }

    // Degenerate shapes — k = 0, n = 0, n < k, k ≫ n — keep the flat
    // permutation scan, the flat counter, and the parallel variants
    // bit-identical to the nested per-point path at 1/2/4 threads.
    #[test]
    fn degenerate_shapes_match_nested_path(
        n in 0usize..24,
        k in 0usize..16,
        dim in 1usize..5,
        salt in 0u64..1000,
    ) {
        let db = weyl_rows(n, dim, salt);
        let site_rows = weyl_rows(k, dim, salt ^ 0xBEEF);
        let sites_t = TransposedSites::from_rows(&site_rows, dim);
        let nested_db: Vec<Vec<f64>> = db.chunks_exact(dim).map(<[f64]>::to_vec).collect();
        let nested_sites: Vec<Vec<f64>> =
            site_rows.chunks_exact(dim).map(<[f64]>::to_vec).collect();

        let mut computer = DistPermComputer::new(k);
        let nested: Vec<Permutation> =
            nested_db.iter().map(|y| computer.compute(&L2Squared, &nested_sites, y)).collect();
        let mut flat = Vec::new();
        Permutation::scan_flat(&L2Squared, &sites_t, &db, |p| flat.push(p));
        prop_assert_eq!(&flat, &nested);

        let db_set = VectorSet::from_raw(dim, db);
        let sites_set = VectorSet::from_raw(dim, site_rows);
        let nested_count = count_permutations(&L2Squared, &nested_sites, &nested_db, 1);
        prop_assert_eq!(&count_permutations_flat_sharded(&L2Squared, &sites_set, &db_set, 1, 0), &nested_count);
        for threads in [1usize, 2, 4] {
            prop_assert_eq!(
                &count_permutations_flat_sharded(&L2Squared, &sites_set, &db_set, threads, 0),
                &nested_count,
                "threads = {}", threads
            );
        }
    }
}

/// The full flat == nested counting equivalence for **all five metrics
/// at 1/2/4 threads** on a shape large enough to split across two
/// workers, each chunk ending in a padded tail strip (n = 2051 splits
/// into 1026 + 1025 rows).
#[test]
fn counting_bit_identity_all_metrics_at_1_2_4_threads() {
    let (n, k, dim) = (2051usize, 9usize, 6usize);
    let db = weyl_rows(n, dim, 41);
    let site_rows = weyl_rows(k, dim, 42);
    let db_set = VectorSet::from_raw(dim, db.clone());
    let sites_set = VectorSet::from_raw(dim, site_rows.clone());
    let nested_db: Vec<Vec<f64>> = db.chunks_exact(dim).map(<[f64]>::to_vec).collect();
    let nested_sites: Vec<Vec<f64>> = site_rows.chunks_exact(dim).map(<[f64]>::to_vec).collect();

    fn check<M: BatchDistance + Metric<Vec<f64>, Dist = F64Dist> + Sync>(
        metric: &M,
        sites_set: &VectorSet,
        db_set: &VectorSet,
        nested_sites: &[Vec<f64>],
        nested_db: &[Vec<f64>],
        tag: &str,
    ) {
        let nested = count_permutations(metric, nested_sites, nested_db, 1);
        for threads in [1usize, 2, 4] {
            let flat = count_permutations_flat_sharded(metric, sites_set, db_set, threads, 0);
            assert_eq!(flat, nested, "{tag}, threads = {threads}");
        }
    }
    check(&L1, &sites_set, &db_set, &nested_sites, &nested_db, "L1");
    check(&L2, &sites_set, &db_set, &nested_sites, &nested_db, "L2");
    check(&L2Squared, &sites_set, &db_set, &nested_sites, &nested_db, "L2sq");
    check(&LInf, &sites_set, &db_set, &nested_sites, &nested_db, "LInf");
    check(&Lp::new(3.5), &sites_set, &db_set, &nested_sites, &nested_db, "Lp3.5");
}

/// The flat index's batched candidate measurement answers exactly like
/// the generic per-point index, including on tie-heavy integer grids.
#[test]
fn flat_index_batched_measurement_matches_generic() {
    let (n, dim) = (257usize, 3usize);
    // Integer grid coordinates force distance ties; the batched
    // measurement must resolve them exactly like the scalar path.
    let db: Vec<f64> = (0..n * dim).map(|i| ((i * 2654435761) % 5) as f64).collect();
    let nested: Vec<Vec<f64>> = db.chunks_exact(dim).map(<[f64]>::to_vec).collect();
    let flat = VectorSet::from_raw(dim, db);
    let site_ids = vec![3usize, 77, 140, 9, 201];
    let generic = DistPermIndex::build_with_sites(L2, nested.clone(), site_ids.clone());
    let flat_idx = FlatDistPermIndex::build_with_sites(L2, flat, site_ids, 2);
    for (qi, q) in nested.iter().step_by(41).enumerate() {
        for frac in [0.1f64, 0.5, 1.0] {
            assert_eq!(
                flat_idx.knn_approx(q, 4, frac),
                generic.knn_approx(q, 4, frac),
                "query {qi}, frac {frac}"
            );
            let radius = F64Dist::new(2.0);
            assert_eq!(
                flat_idx.range_approx(q, radius, frac),
                generic.range_approx(q, radius, frac),
                "range: query {qi}, frac {frac}"
            );
        }
    }
}

/// Budgeted scans at the clamp boundaries (budget ≈ n, k ≥ n, n = 0)
/// answer without panicking and identically on flat and generic indexes.
#[test]
fn budget_clamp_boundaries_answer_identically() {
    let (n, dim) = (17usize, 2usize);
    let db = weyl_rows(n, dim, 77);
    let nested: Vec<Vec<f64>> = db.chunks_exact(dim).map(<[f64]>::to_vec).collect();
    let flat = VectorSet::from_raw(dim, db);
    let site_ids = vec![0usize, 5, 11];
    let generic = DistPermIndex::build_with_sites(L2, nested.clone(), site_ids.clone());
    let flat_idx = FlatDistPermIndex::build_with_sites(L2, flat, site_ids, 1);
    let q = &nested[3];
    // k at n − 1, n, n + 1 and far beyond; frac at 0 and 1.
    for k in [n - 1, n, n + 1, 4 * n] {
        for frac in [0.0f64, 1.0] {
            let got = flat_idx.knn_approx(q, k, frac);
            assert_eq!(got, generic.knn_approx(q, k, frac), "k = {k}, frac = {frac}");
            assert_eq!(got.len(), k.min(n), "k = {k}, frac = {frac}");
        }
    }
    // Empty index: any k, any frac.
    let empty = FlatDistPermIndex::build_with_sites(L2, VectorSet::new(dim), vec![], 1);
    for k in [0usize, 1, 5] {
        assert!(empty.knn_approx(&nested[0], k, 0.5).is_empty());
    }
    let empty_generic = DistPermIndex::build_with_sites(L2, Vec::<Vec<f64>>::new(), vec![]);
    for k in [0usize, 1, 5] {
        assert!(empty_generic.knn_approx(&nested[0], k, 0.5).is_empty());
    }
}

/// The flat engine's panic contract on unrepresentable shapes: dim-0
/// sites with a non-empty database must refuse loudly (the nested
/// engine can represent width-0 points; flat storage cannot recover a
/// row count).
#[test]
fn zero_dim_sites_with_nonempty_database_panic_loudly() {
    let sites_t = TransposedSites::from_rows(&[], 0);
    let err =
        std::panic::catch_unwind(|| rank_rows_flat(&L2Squared, &sites_t, &[1.0, 2.0], |_| {}))
            .expect_err("dim-0 sites over a non-empty database must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(std::string::ToString::to_string))
        .unwrap_or_default();
    assert!(msg.contains("dim 0"), "panic message should name the dim-0 contract: {msg}");
}
