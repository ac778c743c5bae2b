//! Batched vector-metric kernels for flat (row-major) storage.
//!
//! The headline workloads — counting distinct distance permutations over
//! 10⁶-point databases, building `distperm` indexes and sweeping them
//! for exact answers — spend nearly all of their time in metric
//! evaluations.  Evaluating each pair with [`Metric::distance`] leaves
//! throughput on the table twice over: every distance is a scalar
//! reduction (`sum += …` is a serial dependency chain the compiler must
//! not reorder), and every site is re-walked per point.
//!
//! # One kernel
//!
//! [`BatchDistance::column_distances`] is the one per-metric kernel.
//! Its input is a strip of `L` rows transposed coordinate-major
//! (`cols[c][l]`), its output a site-major tile (`out[j][l]`): for each
//! site one `[f64; L]` accumulator array folds the coordinates in
//! order, so the fold vectorizes across the `L` rows with no shuffle,
//! and the tile is laid out exactly as the lane-wise ranking in
//! `dp-permutation` reads it.  Every count, survey and index build runs
//! it on [`STRIP`]-row strips of the database against the k sites; the
//! flat index's searchers run it on strips of rows against their
//! queries, which take the place of the sites.
//!
//! # The loader
//!
//! [`load_strip`] is the one strip transpose: it reads up to [`STRIP`]
//! row-major rows into `[[f64; STRIP]; d]` and pads a short strip by
//! repeating its last real row, so every lane of the tile is a real
//! distance and the caller reads only the first `live`.  The flat
//! index's candidate gather copies its candidates' rows into one strip
//! buffer and loads that.
//!
//! # The row-major adapter
//!
//! [`BatchDistance::batch_distances`] is a provided method with no
//! per-metric code: full strips of a row-major block go through the
//! loader and the column kernel and are scattered back row-major, and
//! the remaining rows run one lane each, so a one-row call costs k
//! evaluations, not `STRIP · k`.  It exists for row-major callers (a
//! query's k site distances, and `perfbench/trace`, which calls it by
//! name) and can go once the trace no longer does.
//!
//! # Bit-identity
//!
//! Every accumulator belongs to exactly one (row, site) pair and folds
//! that pair's coordinates in ascending coordinate order, which is
//! precisely the order [`Metric::distance`] uses.  The lane count, the
//! padding and the scatter change *which* accumulators are live
//! together, never the sequence of operations any single accumulator
//! performs, so every output is the same `f64`, to the bit, that
//! `self.distance(row, site)` produces, for every representable
//! (non-NaN) result — ±∞ included.  NaN results agree in NaN-ness but
//! not necessarily in payload bits (scalar and vector instruction
//! selections generate different quiet-NaN patterns); that is
//! immaterial to callers because every public consumer rejects NaN
//! distances with a panic ([`F64Dist::new`], the flat scan's NaN
//! check).  `tests/kernel_equivalence.rs` at the workspace root, run
//! under `--release` by `scripts/check.sh`, pins exactly this contract
//! against the scalar `distance`.
//!
//! Implemented for [`L1`], [`L2`], [`L2Squared`], [`LInf`] and [`Lp`].

use crate::vector::{L2Squared, LInf, Lp, L1, L2};
use crate::{F64Dist, Metric};

/// Rows per strip: the lane count of every column-kernel call that
/// scans a database.  Every flat row is computed, ranked and packed in
/// a strip of this many rows, one lane per row.
///
/// The width is measured, not a knob.  Ranking alone at k = 24 on an
/// AVX-512 host took about 135–150, 175–200, 190–240 and 56–71 ns a
/// row at 4, 8, 16 and 32 lanes.  Below 32 LLVM fully unrolls the lane
/// loop and vectorizes the site loop instead, with shuffles
/// (`vpermt2pd`/`vpermt2q`/`vpunpck*`) to gather each pair's lanes; at
/// 32 the lane loop survives unrolling and every site pair becomes
/// eight 4-lane `vcmplepd` with no shuffle.  The tile (`32 × k` f64,
/// 8 KiB at k = 32) and the pending ranks stay in L1.
pub const STRIP: usize = 32;

/// Transposes a block of 1 to [`STRIP`] row-major rows of width
/// `cols.len()` into `cols`, coordinate-major (`cols[c][l]` is
/// coordinate `c` of row `l`), and returns the block's row count
/// `live`.  Lanes from `live` on repeat the last real row; lanes are
/// independent, so the real lanes' distances are unchanged.
///
/// A full strip takes a loop of its own: with the lane count a
/// constant, its coordinate-outer loop is plain strided loads.  With
/// the count clamped per lane, or the rows walked one lane at a time,
/// the 1-query sweep of 50k × 8 rows ran 1.2–1.9× slower than with this
/// loop on an AVX-512 host.
///
/// # Panics
/// Panics if `cols` is empty, or `rows` is empty, longer than a strip
/// or not a multiple of the width.
#[inline(always)]
pub fn load_strip(cols: &mut [[f64; STRIP]], rows: &[f64]) -> usize {
    let dim = cols.len();
    assert!(dim > 0 && rows.len().is_multiple_of(dim), "row data not a multiple of dim = {dim}");
    let live = rows.len() / dim;
    assert!((1..=STRIP).contains(&live), "a strip holds 1 to {STRIP} rows, not {live}");
    if live == STRIP {
        let rows = &rows[..STRIP * dim];
        for (c, col) in cols.iter_mut().enumerate() {
            for (x, row) in col.iter_mut().zip(rows.chunks_exact(dim)) {
                *x = row[c];
            }
        }
    } else {
        for (c, col) in cols.iter_mut().enumerate() {
            for (l, x) in col.iter_mut().enumerate() {
                *x = rows[l.min(live - 1) * dim + c];
            }
        }
    }
    live
}

/// k sites stored coordinate-major: `data[c*k + j]` is coordinate `c` of
/// site `j`.
///
/// The transposed layout gives the column kernel each site's
/// coordinates at a fixed stride of k.
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
    /// reusing the existing allocation — the flat searchers turn their
    /// queries into a site set this way without allocating.
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
/// sums its pair's coordinates in ascending order.
pub trait BatchDistance: Metric<[f64], Dist = F64Dist> {
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

    /// All `rows × sites` distances into `out`, row-major (`out[r*k +
    /// j]`), through the column kernel: whole [`STRIP`]-row strips via
    /// [`load_strip`], then the remaining rows one lane each, so a
    /// one-row call costs k evaluations.  This adapter exists for
    /// row-major callers — a flat index query's k site distances, and
    /// `perfbench/trace`, which calls it by name — and can go once the
    /// trace no longer does (ROADMAP, the benchmark item).
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of `sites.dim()` or
    /// `out` is shorter than `rows_count * sites.k()`.
    fn batch_distances(&self, rows: &[f64], sites: &TransposedSites, out: &mut [f64]) {
        let (k, dim) = (sites.k(), sites.dim());
        if dim == 0 {
            // Width-0 rows are not representable in flat storage, so a
            // zero-dim site set only ever meets an empty row buffer.
            assert!(rows.is_empty(), "dim = 0 with non-empty row data");
            return;
        }
        assert_eq!(rows.len() % dim, 0, "row data not a multiple of dim = {dim}");
        let n = rows.len() / dim;
        assert!(out.len() >= n * k, "output buffer too small");
        if k == 0 {
            return;
        }
        let full = n - n % STRIP;
        if full > 0 {
            let mut cols = vec![[0.0; STRIP]; dim];
            let mut tile = vec![[0.0; STRIP]; k];
            let strips = rows[..full * dim].chunks_exact(STRIP * dim);
            for (strip, outs) in strips.zip(out.chunks_exact_mut(STRIP * k)) {
                load_strip(&mut cols, strip);
                self.column_distances(&cols, sites, &mut tile);
                for (l, row_out) in outs.chunks_exact_mut(k).enumerate() {
                    for (o, lanes) in row_out.iter_mut().zip(&tile) {
                        *o = lanes[l];
                    }
                }
            }
        }
        let mut lane = vec![[0.0; 1]; dim];
        let mut dists = vec![[0.0; 1]; k];
        let tail = rows[full * dim..].chunks_exact(dim);
        for (row, row_out) in tail.zip(out[full * k..].chunks_exact_mut(k)) {
            for (x, &v) in lane.iter_mut().zip(row) {
                *x = [v];
            }
            self.column_distances(&lane, sites, &mut dists);
            for (o, &[d]) in row_out.iter_mut().zip(&dists) {
                *o = d;
            }
        }
    }
}

/// Column driver: one `L`-lane accumulator array per site, folded over
/// the coordinate-major rows in ascending coordinate order.
#[inline(always)]
fn column_rows<const L: usize>(
    cols: &[[f64; L]],
    sites: &TransposedSites,
    out: &mut [[f64; L]],
    step: impl Fn(f64, f64, f64) -> f64 + Copy,
    finish: impl Fn(f64) -> f64 + Copy,
) {
    let (k, dim) = (sites.k(), sites.dim());
    assert_eq!(cols.len(), dim, "column strip has {} coordinates, sites have {dim}", cols.len());
    assert!(out.len() >= k, "output buffer too small");
    let site_coords = sites.as_flat();
    for (j, lanes) in out[..k].iter_mut().enumerate() {
        let mut acc = [0.0; L];
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
/// `finish(step(…step(0.0, x₀, s₀)…, x_{d-1}, s_{d-1}))`.
macro_rules! batch_distance_impl {
    ($metric:ty, $step:expr, $finish:expr) => {
        impl BatchDistance for $metric {
            fn column_distances<const L: usize>(
                &self,
                cols: &[[f64; L]],
                sites: &TransposedSites,
                out: &mut [[f64; L]],
            ) {
                column_rows(cols, sites, out, $step, $finish);
            }
        }
    };
}

batch_distance_impl!(L1, |a, x, s| a + (x - s).abs(), |a| a);
batch_distance_impl!(L2Squared, |a, x, s| a + (x - s) * (x - s), |a| a);
batch_distance_impl!(L2, |a, x, s| a + (x - s) * (x - s), f64::sqrt);
batch_distance_impl!(LInf, |a, x, s| a.max((x - s).abs()), |a| a);

impl BatchDistance for Lp {
    // Matches Lp::distance exactly: it special-cases p = 1 and p = 2.
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

    /// `batch_distances`, and the column kernel over strips from
    /// `load_strip`, against the scalar `distance` of every pair.
    fn check_matches_scalar<M: BatchDistance>(metric: &M, n: usize, k: usize, dim: usize) {
        let rows = deterministic_rows(n, dim, 1);
        let site_rows = deterministic_rows(k, dim, 2);
        let sites = TransposedSites::from_rows(&site_rows, dim);
        let mut out = vec![f64::NAN; n * k];
        metric.batch_distances(&rows, &sites, &mut out);
        let mut cols = vec![[0.0; STRIP]; dim];
        let mut tile = vec![[f64::NAN; STRIP]; k];
        for (s, strip) in rows.chunks(STRIP * dim).enumerate() {
            let live = load_strip(&mut cols, strip);
            metric.column_distances(&cols, &sites, &mut tile);
            for (j, lanes) in tile.iter().enumerate() {
                for (l, &got) in lanes[..live].iter().enumerate() {
                    let r = s * STRIP + l;
                    let scalar = metric
                        .distance(&rows[r * dim..][..dim], &site_rows[j * dim..][..dim])
                        .get();
                    let tag = format!("n = {n}, k = {k}, row {r}, site {j}");
                    assert_eq!(out[r * k + j].to_bits(), scalar.to_bits(), "adapter: {tag}");
                    assert_eq!(got.to_bits(), scalar.to_bits(), "columns: {tag}");
                }
            }
        }
    }

    #[test]
    fn all_metrics_match_scalar_bit_for_bit() {
        // Row counts below, at and past a strip, with and without a
        // one-lane tail.
        for &(n, k, dim) in &[
            (17usize, 5usize, 3usize),
            (32, 12, 7),
            (3, 1, 1),
            (70, 4, 16),
            (33, 7, 2),
            (64, 6, 4),
            (1, 3, 9),
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
    fn loader_transposes_and_pads_with_the_last_row() {
        let rows: Vec<f64> = (0..3 * 2).map(f64::from).collect(); // 3 rows in 2-D
        let mut cols = [[f64::NAN; STRIP]; 2];
        assert_eq!(load_strip(&mut cols, &rows), 3);
        assert_eq!(&cols[0][..4], &[0.0, 2.0, 4.0, 4.0]);
        assert!(cols[0][2..].iter().all(|&x| x == 4.0));
        assert!(cols[1][2..].iter().all(|&x| x == 5.0));
        let full: Vec<f64> = (0..STRIP * 2).map(|i| i as f64).collect();
        assert_eq!(load_strip(&mut cols, &full), STRIP);
        for (l, (&x, &y)) in cols[0].iter().zip(&cols[1]).enumerate() {
            assert_eq!((x, y), ((2 * l) as f64, (2 * l + 1) as f64), "lane {l}");
        }
    }

    #[test]
    #[should_panic(expected = "a strip holds 1 to 32 rows")]
    fn loader_rejects_an_empty_strip() {
        load_strip(&mut [[0.0; STRIP]; 2], &[]);
    }

    #[test]
    #[should_panic(expected = "a strip holds 1 to 32 rows")]
    fn loader_rejects_more_than_a_strip() {
        load_strip(&mut [[0.0; STRIP]; 1], &[0.0; STRIP + 1]);
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
    fn empty_rows_and_sites_produce_no_output() {
        let sites = TransposedSites::from_rows(&[0.0, 1.0], 2);
        L2.batch_distances(&[], &sites, &mut []);
        let no_sites = TransposedSites::from_rows(&[], 2);
        L2.batch_distances(&[1.0, 2.0], &no_sites, &mut []);
        let zero_dim = TransposedSites::from_rows(&[], 0);
        L2.batch_distances(&[], &zero_dim, &mut []);
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
    fn non_finite_inputs_propagate_like_the_scalar_fold() {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.5];
        // 35 rows of dim 2 (a full strip and a tail) sweeping special
        // values against 5 sites.
        let rows: Vec<f64> = (0..35).flat_map(|i| [specials[i % 5], 1.0]).collect();
        let site_rows: Vec<f64> = specials.iter().flat_map(|&s| [0.5, s]).collect();
        let sites = TransposedSites::from_rows(&site_rows, 2);
        for p in [1.5f64, 3.0] {
            let metric = Lp::new(p);
            let mut out = vec![0.0; 35 * 5];
            metric.batch_distances(&rows, &sites, &mut out);
            for (i, &got) in out.iter().enumerate() {
                let (r, j) = (i / 5, i % 5);
                // Lp::distance's fold, unwrapped: F64Dist rejects NaN.
                let mut want = 0.0;
                for (x, s) in rows[2 * r..][..2].iter().zip(&site_rows[2 * j..][..2]) {
                    want += (x - s).abs().powf(p);
                }
                let want = want.powf(1.0 / p);
                // NaN payload bits are codegen-defined; everything else
                // (including ±∞) must agree to the bit.
                if got.is_nan() || want.is_nan() {
                    assert!(got.is_nan() && want.is_nan(), "row {r}, site {j}");
                } else {
                    assert_eq!(got.to_bits(), want.to_bits(), "row {r}, site {j}");
                }
            }
        }
    }
}
