//! Batched vector-metric kernels for flat (row-major) storage.
//!
//! The headline workloads — counting distinct distance permutations over
//! 10⁶-point databases and building `distperm` indexes — spend nearly all
//! of their time in `k·n` metric evaluations.  Evaluating each pair with
//! [`Metric::distance`] leaves throughput on the table twice over: every
//! distance is a scalar reduction (`sum += …` is a serial dependency
//! chain the compiler must not reorder), and every site is re-walked per
//! point.
//!
//! # Strip-mined layout
//!
//! [`BatchDistance::batch_distances`] restructures the loop around two
//! levels of blocking:
//!
//! * **Sites are transposed** ([`TransposedSites`]: coordinate-major, so
//!   all k j-th coordinates are adjacent) — the per-coordinate site loop
//!   is a contiguous read of k values.
//! * **Points are strip-mined [`STRIP_POINTS`] (= 4) at a time.**  For
//!   each strip the kernel walks 4 × 4 (point × site) tiles whose 16
//!   accumulators live in locals of a fixed-size array — small and
//!   constant enough for the compiler to keep them **in registers** for
//!   the whole coordinate loop.  The inner step is 16 independent
//!   fused updates per coordinate: the compiler vectorizes across
//!   *sites* (the 4 site coordinates are contiguous) and pipelines
//!   across *points* (4 independent dependency chains), and — unlike a
//!   one-row-at-a-time kernel with a `k`-length accumulator array —
//!   no accumulator traffic touches memory until the tile is done.
//!   Site-count remainders (k mod 4) run a register tile of 4 × 1;
//!   point-count remainders (n mod 4) fall back to the row-at-a-time
//!   kernel.
//!
//! # Column layout
//!
//! [`BatchDistance::column_distances`] is the kernel every flat count
//! and permutation scan runs.  Its input is a strip of `L` rows already
//! transposed coordinate-major (`cols[c][l]`), its output a site-major
//! tile (`out[j][l]`): for each site one `[f64; L]` accumulator array
//! folds the coordinates in order, so the fold vectorizes across the
//! `L` rows with no shuffle, and the tile is laid out exactly as the
//! lane-wise ranking in `dp-permutation` reads it.
//!
//! # Bit-identity
//!
//! Every accumulator — tiled, column, remainder, or row-at-a-time —
//! belongs to exactly one (point, site) pair and folds that pair's
//! coordinates in ascending coordinate order, which is precisely the order
//! [`Metric::distance`] uses.  Blocking changes *which* accumulators are
//! live concurrently, never the sequence of operations any single
//! accumulator performs, so `out[r*k + j]` is the same `f64`, to the
//! bit, that `self.distance(row_r, site_j)` produces, for every
//! representable (non-NaN) result — ±∞ included.  NaN results agree in
//! NaN-ness but not necessarily in payload bits (scalar and vector
//! instruction selections generate different quiet-NaN patterns); that
//! is immaterial to callers because every public consumer rejects NaN
//! distances with a panic ([`F64Dist::new`], the flat scan's NaN
//! check).  The flat/nested equivalence property suites
//! (`tests/kernel_equivalence.rs` at the workspace root, run under
//! `--release` by `scripts/check.sh`) pin exactly this contract.
//!
//! [`BatchDistance::batch_distances_rowwise`] keeps the one-row-at-a-time
//! kernel callable as the in-tree reference: the equivalence tests pin
//! strip == column == rowwise == scalar, and the `kernels` Criterion
//! bench measures what each layout buys over it.
//!
//! Implemented for [`L1`], [`L2`], [`L2Squared`], [`LInf`] and [`Lp`].

use crate::vector::{L2Squared, LInf, Lp, L1, L2};
use crate::{F64Dist, Metric};

/// Query points processed per strip by the strip-mined kernels.
///
/// Block sizes fed to [`BatchDistance::batch_distances`] should be a
/// multiple of this so full blocks never take the remainder path.
pub const STRIP_POINTS: usize = 4;

/// Sites per register tile inside one strip (4 points × 4 sites = 16
/// register accumulators; on x86-64 that is 8 SSE2 / 4 AVX2 vectors).
const SITE_TILE: usize = 4;

/// k sites stored coordinate-major: `data[c*k + j]` is coordinate `c` of
/// site `j`.
///
/// The transposed layout makes the per-coordinate site loop in
/// [`BatchDistance::batch_distances`] a contiguous read of k values.
#[derive(Debug, Clone)]
pub struct TransposedSites {
    k: usize,
    dim: usize,
    data: Vec<f64>,
}

impl TransposedSites {
    /// Transposes `k` sites given as concatenated row-major rows of width
    /// `dim`.
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of `dim` (with `dim = 0`
    /// only an empty `rows` is accepted).
    pub fn from_rows(rows: &[f64], dim: usize) -> Self {
        let mut t = TransposedSites { k: 0, dim: 0, data: Vec::new() };
        t.assign_rows(rows, dim);
        t
    }

    /// Refills this transposed buffer from a new set of row-major sites,
    /// reusing the existing allocation — the per-query path of the flat
    /// searchers turns one query point into a 1-site set this way without
    /// allocating.
    ///
    /// # Panics
    /// As [`Self::from_rows`].
    pub fn assign_rows(&mut self, rows: &[f64], dim: usize) {
        let k = if dim == 0 {
            assert!(rows.is_empty(), "dim = 0 with non-empty site data");
            0
        } else {
            assert_eq!(rows.len() % dim, 0, "site data not a multiple of dim = {dim}");
            rows.len() / dim
        };
        self.data.clear();
        self.data.resize(rows.len(), 0.0);
        for (j, row) in rows.chunks_exact(dim.max(1)).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                self.data[c * k + j] = x;
            }
        }
        self.k = k;
        self.dim = dim;
    }

    /// Number of sites k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Coordinate dimension d.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The k coordinates `c` of all sites, contiguously.
    #[inline]
    pub fn coordinate(&self, c: usize) -> &[f64] {
        &self.data[c * self.k..(c + 1) * self.k]
    }

    /// Wraps an already coordinate-major buffer (`data[c*k + j]` =
    /// coordinate `c` of site `j`) without transposing — the on-disk
    /// store (`dp-store`) persists this exact layout so loading is a
    /// straight copy.
    ///
    /// # Panics
    /// Panics if `data.len() != k * dim`.
    pub fn from_transposed(k: usize, dim: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), k * dim, "transposed site data is not k*dim = {k}*{dim}");
        TransposedSites { k, dim, data }
    }

    /// The whole coordinate-major buffer (length `k() * dim()`), the
    /// serialization view of [`Self::from_transposed`].
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }
}

/// Vector metrics with a batched site-transposed kernel.
///
/// The contract, for every method: each output receives the same `f64`
/// — same value, same floating-point rounding, bit for bit — that
/// `self.distance(row, site)` would produce, because every accumulator
/// sums its pair's coordinates in ascending order.  The row-major
/// methods write `out[r*k + j]`, so `out` must hold `rows_count * k`
/// elements.
pub trait BatchDistance: Metric<[f64], Dist = F64Dist> {
    /// Computes all `rows × sites` distances into `out`, row-major,
    /// through the strip-mined register-tiled kernel (see the module
    /// docs).
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of `sites.dim()` or
    /// `out` is shorter than `rows_count * sites.k()`.
    fn batch_distances(&self, rows: &[f64], sites: &TransposedSites, out: &mut [f64]);

    /// The one-row-at-a-time reference kernel: identical contract and
    /// identical bits, k memory-resident accumulators per row instead of
    /// the register-tiled strip.  Kept callable so the equivalence tests
    /// and the `kernels` bench can pin the strip kernel against it.
    fn batch_distances_rowwise(&self, rows: &[f64], sites: &TransposedSites, out: &mut [f64]);

    /// The column kernel: distances of `L` rows given coordinate-major
    /// (`cols[c][l]` is coordinate `c` of row `l`) to every site,
    /// site-major — `out[j][l]` is the same `f64`, to the bit, as
    /// `self.distance(row_l, site_j)`.  Each site's `L` accumulators are
    /// one lane-wise array folded over the coordinates in ascending
    /// order, so the fold vectorizes across rows (see the module docs).
    ///
    /// # Panics
    /// Panics if `cols.len() != sites.dim()` or `out` holds fewer than
    /// `sites.k()` lane arrays.
    fn column_distances<const L: usize>(
        &self,
        cols: &[[f64; L]],
        sites: &TransposedSites,
        out: &mut [[f64; L]],
    );
}

/// Handles the `dim = 0` / `k = 0` degenerate shapes shared by both
/// drivers: every distance is the empty fold `finish(init)`.  Returns
/// `true` if the call was fully handled.
#[inline(always)]
fn degenerate_fill(rows: &[f64], sites: &TransposedSites, out: &mut [f64], value: f64) -> bool {
    let (k, dim) = (sites.k(), sites.dim());
    if dim > 0 && k > 0 {
        return false;
    }
    // Width-0 rows are not representable in flat storage, so a zero-dim
    // site set only ever meets an empty row buffer.
    assert!(dim > 0 || rows.is_empty(), "dim = 0 with non-empty row data");
    let n = rows.len().checked_div(dim).unwrap_or(0);
    out[..n * k].fill(value);
    true
}

/// Validates the shared shape contract and returns `(n, k, dim)`.
#[inline(always)]
fn checked_shape(rows: &[f64], sites: &TransposedSites, out: &[f64]) -> (usize, usize, usize) {
    let (k, dim) = (sites.k(), sites.dim());
    assert_eq!(rows.len() % dim, 0, "row data not a multiple of dim = {dim}");
    let n = rows.len() / dim;
    assert!(out.len() >= n * k, "output buffer too small");
    (n, k, dim)
}

/// One row's k accumulators, folded coordinate-by-coordinate — the
/// scalar-remainder and reference kernel body.
#[inline(always)]
fn accumulate_one(
    row: &[f64],
    sites: &TransposedSites,
    acc: &mut [f64],
    init: f64,
    step: impl Fn(f64, f64, f64) -> f64 + Copy,
    finish: impl Fn(f64) -> f64 + Copy,
) {
    acc.fill(init);
    for (c, &x) in row.iter().enumerate() {
        let coords = sites.coordinate(c);
        for (a, &s) in acc.iter_mut().zip(coords.iter()) {
            *a = step(*a, x, s);
        }
    }
    for a in acc.iter_mut() {
        *a = finish(*a);
    }
}

/// Row-at-a-time driver (the reference kernel).
#[inline(always)]
fn rowwise_rows(
    rows: &[f64],
    sites: &TransposedSites,
    out: &mut [f64],
    init: f64,
    step: impl Fn(f64, f64, f64) -> f64 + Copy,
    finish: impl Fn(f64) -> f64 + Copy,
) {
    if degenerate_fill(rows, sites, out, finish(init)) {
        return;
    }
    let (_, k, dim) = checked_shape(rows, sites, out);
    for (row, acc) in rows.chunks_exact(dim).zip(out.chunks_exact_mut(k)) {
        accumulate_one(row, sites, acc, init, step, finish);
    }
}

/// One strip of [`STRIP_POINTS`] rows: 4 × [`SITE_TILE`] register tiles
/// over the site axis, 4 × 1 register columns for the site remainder.
#[inline(always)]
fn accumulate_strip(
    quad: &[f64],
    sites: &TransposedSites,
    oquad: &mut [f64],
    init: f64,
    step: impl Fn(f64, f64, f64) -> f64 + Copy,
    finish: impl Fn(f64) -> f64 + Copy,
) {
    let (k, dim) = (sites.k(), sites.dim());
    let (r0, rest) = quad.split_at(dim);
    let (r1, rest) = rest.split_at(dim);
    let (r2, r3) = rest.split_at(dim);
    let mut j = 0;
    while j + SITE_TILE <= k {
        // 16 accumulators in a fixed-size local: register-resident for
        // the whole coordinate loop, no memory traffic until the stores.
        let mut acc = [[init; SITE_TILE]; STRIP_POINTS];
        for c in 0..dim {
            let coords = &sites.coordinate(c)[j..j + SITE_TILE];
            let (x0, x1, x2, x3) = (r0[c], r1[c], r2[c], r3[c]);
            for (t, &s) in coords.iter().enumerate() {
                acc[0][t] = step(acc[0][t], x0, s);
                acc[1][t] = step(acc[1][t], x1, s);
                acc[2][t] = step(acc[2][t], x2, s);
                acc[3][t] = step(acc[3][t], x3, s);
            }
        }
        for (p, tile) in acc.iter().enumerate() {
            for (t, &a) in tile.iter().enumerate() {
                oquad[p * k + j + t] = finish(a);
            }
        }
        j += SITE_TILE;
    }
    while j < k {
        let mut acc = [init; STRIP_POINTS];
        for c in 0..dim {
            let s = sites.coordinate(c)[j];
            acc[0] = step(acc[0], r0[c], s);
            acc[1] = step(acc[1], r1[c], s);
            acc[2] = step(acc[2], r2[c], s);
            acc[3] = step(acc[3], r3[c], s);
        }
        for (p, &a) in acc.iter().enumerate() {
            oquad[p * k + j] = finish(a);
        }
        j += 1;
    }
}

/// Strip-mined driver: full strips through the register tiles, the
/// n mod [`STRIP_POINTS`] tail through the row-at-a-time kernel.
#[inline(always)]
fn strip_rows(
    rows: &[f64],
    sites: &TransposedSites,
    out: &mut [f64],
    init: f64,
    step: impl Fn(f64, f64, f64) -> f64 + Copy,
    finish: impl Fn(f64) -> f64 + Copy,
) {
    if degenerate_fill(rows, sites, out, finish(init)) {
        return;
    }
    let (n, k, dim) = checked_shape(rows, sites, out);
    let out = &mut out[..n * k];
    let mut quads = rows.chunks_exact(STRIP_POINTS * dim);
    let mut oquads = out.chunks_exact_mut(STRIP_POINTS * k);
    for (quad, oquad) in quads.by_ref().zip(oquads.by_ref()) {
        accumulate_strip(quad, sites, oquad, init, step, finish);
    }
    let tail = quads.remainder();
    let otail = oquads.into_remainder();
    for (row, acc) in tail.chunks_exact(dim).zip(otail.chunks_exact_mut(k)) {
        accumulate_one(row, sites, acc, init, step, finish);
    }
}

/// Column driver: one `L`-lane accumulator array per site, folded over
/// the coordinate-major rows in ascending coordinate order.
#[inline(always)]
fn column_rows<const L: usize>(
    cols: &[[f64; L]],
    sites: &TransposedSites,
    out: &mut [[f64; L]],
    init: f64,
    step: impl Fn(f64, f64, f64) -> f64 + Copy,
    finish: impl Fn(f64) -> f64 + Copy,
) {
    let (k, dim) = (sites.k(), sites.dim());
    assert_eq!(cols.len(), dim, "column strip has {} coordinates, sites have {dim}", cols.len());
    assert!(out.len() >= k, "output buffer too small");
    let site_coords = sites.as_flat();
    for (j, lanes) in out[..k].iter_mut().enumerate() {
        let mut acc = [init; L];
        for (c, xs) in cols.iter().enumerate() {
            let s = site_coords[c * k + j];
            for (a, &x) in acc.iter_mut().zip(xs.iter()) {
                *a = step(*a, x, s);
            }
        }
        for (o, &a) in lanes.iter_mut().zip(acc.iter()) {
            *o = finish(a);
        }
    }
}

/// Implements [`BatchDistance`] for a metric whose distance is the fold
/// `finish(step(…step(0.0, x₀, s₀)…, x_{d-1}, s_{d-1}))`: all three
/// drivers run the one `(step, finish)` pair, so they agree to the bit.
macro_rules! batch_distance_impl {
    ($metric:ty, $step:expr, $finish:expr) => {
        impl BatchDistance for $metric {
            fn batch_distances(&self, rows: &[f64], sites: &TransposedSites, out: &mut [f64]) {
                strip_rows(rows, sites, out, 0.0, $step, $finish);
            }

            fn batch_distances_rowwise(
                &self,
                rows: &[f64],
                sites: &TransposedSites,
                out: &mut [f64],
            ) {
                rowwise_rows(rows, sites, out, 0.0, $step, $finish);
            }

            fn column_distances<const L: usize>(
                &self,
                cols: &[[f64; L]],
                sites: &TransposedSites,
                out: &mut [[f64; L]],
            ) {
                column_rows(cols, sites, out, 0.0, $step, $finish);
            }
        }
    };
}

batch_distance_impl!(L1, |a, x, s| a + (x - s).abs(), |a| a);
batch_distance_impl!(L2Squared, |a, x, s| a + (x - s) * (x - s), |a| a);
batch_distance_impl!(L2, |a, x, s| a + (x - s) * (x - s), f64::sqrt);
batch_distance_impl!(LInf, |a, x, s| a.max((x - s).abs()), |a| a);

impl BatchDistance for Lp {
    // Each method matches Lp::distance exactly: it special-cases p = 1
    // and p = 2.
    fn batch_distances(&self, rows: &[f64], sites: &TransposedSites, out: &mut [f64]) {
        let p = self.p();
        if p == 1.0 {
            return L1.batch_distances(rows, sites, out);
        }
        if p == 2.0 {
            return L2.batch_distances(rows, sites, out);
        }
        strip_rows(
            rows,
            sites,
            out,
            0.0,
            move |a, x, s| a + (x - s).abs().powf(p),
            move |a| a.powf(1.0 / p),
        );
    }

    fn batch_distances_rowwise(&self, rows: &[f64], sites: &TransposedSites, out: &mut [f64]) {
        let p = self.p();
        if p == 1.0 {
            return L1.batch_distances_rowwise(rows, sites, out);
        }
        if p == 2.0 {
            return L2.batch_distances_rowwise(rows, sites, out);
        }
        rowwise_rows(
            rows,
            sites,
            out,
            0.0,
            move |a, x, s| a + (x - s).abs().powf(p),
            move |a| a.powf(1.0 / p),
        );
    }

    fn column_distances<const L: usize>(
        &self,
        cols: &[[f64; L]],
        sites: &TransposedSites,
        out: &mut [[f64; L]],
    ) {
        let p = self.p();
        if p == 1.0 {
            return L1.column_distances(cols, sites, out);
        }
        if p == 2.0 {
            return L2.column_distances(cols, sites, out);
        }
        column_rows(
            cols,
            sites,
            out,
            0.0,
            move |a, x, s| a + (x - s).abs().powf(p),
            move |a| a.powf(1.0 / p),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deterministic_rows(n: usize, dim: usize, salt: u64) -> Vec<f64> {
        // Weyl-sequence filler: deterministic, irregular, covers signs.
        (0..n * dim)
            .map(|i| {
                let t = ((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15 ^ salt) >> 11) as f64
                    / (1u64 << 53) as f64;
                t * 40.0 - 20.0
            })
            .collect()
    }

    fn check_matches_scalar<M: BatchDistance>(metric: &M, n: usize, k: usize, dim: usize) {
        let rows = deterministic_rows(n, dim, 1);
        let site_rows = deterministic_rows(k, dim, 2);
        let sites = TransposedSites::from_rows(&site_rows, dim);
        let mut out = vec![f64::NAN; n * k];
        metric.batch_distances(&rows, &sites, &mut out);
        let mut out_ref = vec![f64::NAN; n * k];
        metric.batch_distances_rowwise(&rows, &sites, &mut out_ref);
        for r in 0..n {
            for j in 0..k {
                let scalar = metric
                    .distance(&rows[r * dim..(r + 1) * dim], &site_rows[j * dim..(j + 1) * dim]);
                assert_eq!(F64Dist::new(out[r * k + j]), scalar, "strip: row {r}, site {j}");
                assert_eq!(
                    out[r * k + j].to_bits(),
                    out_ref[r * k + j].to_bits(),
                    "strip vs rowwise: row {r}, site {j}"
                );
            }
        }
    }

    #[test]
    fn all_metrics_match_scalar_bit_for_bit() {
        // Shapes straddle every remainder combination: n mod 4 ∈
        // {0,1,2,3} and k mod 4 ∈ {0,1,2,3}.
        for &(n, k, dim) in &[
            (17usize, 5usize, 3usize),
            (8, 12, 7),
            (3, 1, 1),
            (20, 4, 16),
            (6, 7, 2),
            (5, 6, 4),
            (4, 3, 9),
        ] {
            check_matches_scalar(&L1, n, k, dim);
            check_matches_scalar(&L2, n, k, dim);
            check_matches_scalar(&L2Squared, n, k, dim);
            check_matches_scalar(&LInf, n, k, dim);
            check_matches_scalar(&Lp::new(3.5), n, k, dim);
            check_matches_scalar(&Lp::new(1.0), n, k, dim);
            check_matches_scalar(&Lp::new(2.0), n, k, dim);
        }
    }

    #[test]
    fn transposed_layout_is_coordinate_major() {
        let rows = [1.0, 2.0, 3.0, 10.0, 20.0, 30.0]; // two sites in 3-D
        let t = TransposedSites::from_rows(&rows, 3);
        assert_eq!(t.k(), 2);
        assert_eq!(t.dim(), 3);
        assert_eq!(t.coordinate(0), &[1.0, 10.0]);
        assert_eq!(t.coordinate(1), &[2.0, 20.0]);
        assert_eq!(t.coordinate(2), &[3.0, 30.0]);
    }

    #[test]
    fn assign_rows_reuses_buffer_and_matches_fresh_transpose() {
        let mut t = TransposedSites::from_rows(&[1.0, 2.0, 3.0, 4.0], 2);
        // Shrink to a single site of different dimension, then grow again.
        t.assign_rows(&[7.0, 8.0, 9.0], 3);
        assert_eq!(t.k(), 1);
        assert_eq!(t.dim(), 3);
        assert_eq!(t.coordinate(1), &[8.0]);
        let rows = deterministic_rows(3, 2, 9);
        t.assign_rows(&rows, 2);
        let fresh = TransposedSites::from_rows(&rows, 2);
        assert_eq!(t.k(), fresh.k());
        assert_eq!(t.coordinate(0), fresh.coordinate(0));
        assert_eq!(t.coordinate(1), fresh.coordinate(1));
    }

    #[test]
    fn empty_rows_produce_no_output() {
        let sites = TransposedSites::from_rows(&[0.0, 1.0], 2);
        let mut out = [f64::NAN; 0];
        L2.batch_distances(&[], &sites, &mut out);
        L2.batch_distances_rowwise(&[], &sites, &mut out);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn ragged_rows_rejected() {
        let sites = TransposedSites::from_rows(&[0.0, 1.0], 2);
        let mut out = [0.0; 2];
        L2.batch_distances(&[1.0, 2.0, 3.0], &sites, &mut out);
    }

    #[test]
    #[should_panic(expected = "output buffer too small")]
    fn short_output_rejected() {
        let sites = TransposedSites::from_rows(&[0.0, 1.0], 1);
        let mut out = [0.0; 3];
        L2.batch_distances(&[1.0, 2.0], &sites, &mut out);
    }

    #[test]
    fn non_finite_inputs_propagate_identically() {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.5];
        // 5 rows of dim 2 sweeping special values against 5 sites.
        let rows: Vec<f64> = specials.iter().flat_map(|&x| [x, 1.0]).collect();
        let site_rows: Vec<f64> = specials.iter().flat_map(|&s| [0.5, s]).collect();
        let sites = TransposedSites::from_rows(&site_rows, 2);
        for p in [1.5f64, 3.0] {
            let metric = Lp::new(p);
            let mut strip = vec![0.0; 25];
            let mut rowwise = vec![0.0; 25];
            metric.batch_distances(&rows, &sites, &mut strip);
            metric.batch_distances_rowwise(&rows, &sites, &mut rowwise);
            for (a, b) in strip.iter().zip(rowwise.iter()) {
                // NaN payload bits are codegen-defined; everything else
                // (including ±∞) must agree to the bit.
                if a.is_nan() || b.is_nan() {
                    assert!(a.is_nan() && b.is_nan());
                } else {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }
}
