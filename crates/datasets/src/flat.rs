//! Flat (row-major, contiguous) vector storage: [`VectorSet`].
//!
//! Every vector workload in this workspace historically routed through
//! `Vec<Vec<f64>>` — one heap allocation per point, pointer-chased on
//! every metric evaluation.  [`VectorSet`] stores n d-dimensional points
//! as one contiguous `Vec<f64>` of length `n·d`:
//!
//! * `row(i)` is a zero-cost `&[f64]` view — the existing `Metric<[f64]>`
//!   implementations apply unchanged;
//! * the whole database streams linearly, which the batched
//!   distance-permutation kernels (`dp_metric::batch`, the 32-row strip
//!   tile in `dp_permutation::compute`) exploit;
//! * conversions to/from the nested representation and `FromIterator`
//!   keep the old API reachable as a thin compatibility shim.
//!
//! **When to prefer it:** any bulk scan over real-vector data — index
//! builds, permutation counting, dataset generation at Table 3 scale.
//! The nested representation remains the right choice for heterogeneous
//! or string data, and for call sites that need `Vec<f64>` ownership per
//! point.
//!
//! Building in parallel: [`VectorSet::generate_parallel`] fills rows on
//! scoped threads from a per-row closure, so results are deterministic
//! regardless of thread count.

use dp_metric::par::{chunk_len, fork_join};
use std::ops::Index;

/// n points of fixed dimension d in one contiguous row-major buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorSet {
    dim: usize,
    data: Vec<f64>,
}

impl VectorSet {
    /// An empty set of points of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        VectorSet { dim, data: Vec::new() }
    }

    /// An empty set with capacity for `n` points of dimension `dim`.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        VectorSet { dim, data: Vec::with_capacity(dim * n) }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of `dim` (for `dim = 0`
    /// only an empty buffer is accepted).
    pub fn from_raw(dim: usize, data: Vec<f64>) -> Self {
        if dim == 0 {
            assert!(data.is_empty(), "dim = 0 with non-empty data");
        } else {
            assert_eq!(data.len() % dim, 0, "data length not a multiple of dim = {dim}");
        }
        VectorSet { dim, data }
    }

    /// Copies a nested point list into flat storage.
    ///
    /// All rows must share the dimension of the first row; an empty list
    /// yields an empty 0-dimensional set.
    ///
    /// # Panics
    /// Panics on ragged input.
    pub fn from_nested(points: &[Vec<f64>]) -> Self {
        let dim = points.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(dim * points.len());
        for p in points {
            assert_eq!(p.len(), dim, "ragged nested input ({} vs {dim})", p.len());
            data.extend_from_slice(p);
        }
        VectorSet { dim, data }
    }

    /// Copies back out to the nested representation.
    pub fn to_nested(&self) -> Vec<Vec<f64>> {
        self.rows().map(<[f64]>::to_vec).collect()
    }

    /// Appends one point.
    ///
    /// # Panics
    /// Panics if `row.len() != self.dim()`.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "pushed row has dimension {} != {}", row.len(), self.dim);
        self.data.extend_from_slice(row);
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// True iff there are no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Point dimension d.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th point as a slice view.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Iterator over all point views.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim.max(1))
    }

    /// The whole row-major buffer (length `len() * dim()`).
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Gathers the given rows into a new set (e.g. site selection).
    ///
    /// # Panics
    /// Panics if any id is out of range.
    pub fn gather(&self, ids: &[usize]) -> VectorSet {
        let mut out = VectorSet::with_capacity(self.dim, ids.len());
        for &i in ids {
            out.push(self.row(i));
        }
        out
    }

    /// Builds n rows by filling each from `fill(row_index, row)`.
    pub fn generate(n: usize, dim: usize, mut fill: impl FnMut(usize, &mut [f64])) -> Self {
        let mut data = vec![0.0; n * dim];
        for (i, row) in data.chunks_exact_mut(dim.max(1)).enumerate() {
            fill(i, row);
        }
        VectorSet { dim, data }
    }

    /// Parallel [`Self::generate`]: rows are filled on `threads` scoped
    /// workers.  `fill` receives the global row index, so the result is
    /// identical for every thread count.
    pub fn generate_parallel(
        n: usize,
        dim: usize,
        threads: usize,
        fill: impl Fn(usize, &mut [f64]) + Sync,
    ) -> Self {
        if threads <= 1 || n * dim < 1 << 14 {
            return Self::generate(n, dim, fill);
        }
        let mut data = vec![0.0; n * dim];
        let rows_per = chunk_len(n, threads);
        fork_join(data.chunks_mut(rows_per * dim).enumerate(), |(chunk_idx, chunk)| {
            for (i, row) in chunk.chunks_exact_mut(dim).enumerate() {
                fill(chunk_idx * rows_per + i, row);
            }
        });
        VectorSet { dim, data }
    }
}

impl Index<usize> for VectorSet {
    type Output = [f64];

    #[inline]
    fn index(&self, i: usize) -> &[f64] {
        self.row(i)
    }
}

impl FromIterator<Vec<f64>> for VectorSet {
    fn from_iter<I: IntoIterator<Item = Vec<f64>>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        match it.next() {
            None => VectorSet::new(0),
            Some(first) => {
                let mut set = VectorSet::new(first.len());
                set.push(&first);
                for row in it {
                    set.push(&row);
                }
                set
            }
        }
    }
}

impl<'a> FromIterator<&'a [f64]> for VectorSet {
    fn from_iter<I: IntoIterator<Item = &'a [f64]>>(iter: I) -> Self {
        let mut it = iter.into_iter();
        match it.next() {
            None => VectorSet::new(0),
            Some(first) => {
                let mut set = VectorSet::new(first.len());
                set.push(first);
                for row in it {
                    set.push(row);
                }
                set
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_flat_nested() {
        let nested = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let flat = VectorSet::from_nested(&nested);
        assert_eq!(flat.len(), 3);
        assert_eq!(flat.dim(), 2);
        assert_eq!(flat.row(1), &[3.0, 4.0]);
        assert_eq!(flat[2], [5.0, 6.0]);
        assert_eq!(flat.to_nested(), nested);
        let collected: VectorSet = nested.iter().cloned().collect();
        assert_eq!(collected, flat);
        let by_ref: VectorSet = flat.rows().collect();
        assert_eq!(by_ref, flat);
    }

    #[test]
    fn gather_selects_rows() {
        let set = VectorSet::from_raw(1, vec![0.0, 10.0, 20.0, 30.0]);
        let picked = set.gather(&[3, 0, 3]);
        assert_eq!(picked.as_flat(), &[30.0, 0.0, 30.0]);
    }

    #[test]
    fn generate_parallel_matches_sequential() {
        let fill = |i: usize, row: &mut [f64]| {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = (i * 31 + c) as f64;
            }
        };
        let seq = VectorSet::generate(5000, 4, fill);
        for threads in [1, 2, 3, 8] {
            assert_eq!(VectorSet::generate_parallel(5000, 4, threads, fill), seq);
        }
    }

    #[test]
    fn empty_and_zero_dim_edge_cases() {
        let empty = VectorSet::new(3);
        assert_eq!(empty.len(), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.rows().count(), 0);
        let zero_dim: VectorSet = Vec::<Vec<f64>>::new().into_iter().collect();
        assert_eq!(zero_dim.len(), 0);
        assert_eq!(zero_dim.dim(), 0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_nested_rejected() {
        let _ = VectorSet::from_nested(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_raw_length_rejected() {
        let _ = VectorSet::from_raw(2, vec![1.0, 2.0, 3.0]);
    }
}
