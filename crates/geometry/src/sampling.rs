//! Dense-grid enumeration of distance permutations in the plane.
//!
//! For metrics whose bisectors are not straight lines (L1, L∞, general Lp)
//! the exact line-arrangement counter does not apply; the paper resorted to
//! "informal computer-graphics experiments" — a pixel sweep.  This module
//! is that sweep, systematised: it enumerates the distance permutation of
//! every grid point in a bounding box and returns the observed counter.
//!
//! Grid counts are *lower bounds* on the true cell count (cells thinner
//! than the grid pitch can be missed), which is the same caveat the
//! paper's §5 sampling has.

use dp_metric::Metric;
use dp_permutation::{DistPermComputer, PackedCountSummary, PackedPermutationCounter, Permutation};

/// An axis-aligned bounding box in the plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BBox {
    /// Left edge.
    pub x_min: f64,
    /// Right edge.
    pub x_max: f64,
    /// Bottom edge.
    pub y_min: f64,
    /// Top edge.
    pub y_max: f64,
}

impl BBox {
    /// The unit square \[0,1\]².
    pub fn unit() -> BBox {
        BBox { x_min: 0.0, x_max: 1.0, y_min: 0.0, y_max: 1.0 }
    }

    /// A box containing all `sites` with a fractional `margin` around them.
    pub fn around(sites: &[Vec<f64>], margin: f64) -> BBox {
        assert!(!sites.is_empty());
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in sites {
            x0 = x0.min(s[0]);
            x1 = x1.max(s[0]);
            y0 = y0.min(s[1]);
            y1 = y1.max(s[1]);
        }
        let dx = (x1 - x0).max(1e-9) * margin;
        let dy = (y1 - y0).max(1e-9) * margin;
        BBox { x_min: x0 - dx, x_max: x1 + dx, y_min: y0 - dy, y_max: y1 + dy }
    }
}

/// Enumerates the distance permutation at every point of a `width`×`height`
/// grid over `bbox` and returns their counts (sorted-run counted, over
/// permutation keys).
///
/// Grid points sit at pixel centres, so no sample lands exactly on the box
/// boundary.
pub fn grid_count<M: Metric<[f64]>>(
    metric: &M,
    sites: &[Vec<f64>],
    bbox: BBox,
    width: usize,
    height: usize,
) -> PackedCountSummary<Permutation> {
    let mut counter = PackedPermutationCounter::new(sites.len());
    for_each_grid_permutation(metric, sites, bbox, width, height, |_, _, p| {
        counter.insert(&p);
    });
    counter.finalize()
}

/// Visits every grid point with its pixel coordinates and permutation.
///
/// Shared by the counter above and the figure renderer.
pub fn for_each_grid_permutation<M, F>(
    metric: &M,
    sites: &[Vec<f64>],
    bbox: BBox,
    width: usize,
    height: usize,
    mut visit: F,
) where
    M: Metric<[f64]>,
    F: FnMut(usize, usize, Permutation),
{
    assert!(width > 0 && height > 0, "empty grid");
    assert!(sites.iter().all(|s| s.len() == 2), "grid sampling is 2-D");
    let mut computer = DistPermComputer::new(sites.len());
    let site_refs: Vec<&[f64]> = sites.iter().map(std::vec::Vec::as_slice).collect();
    let adapter = SliceMetric { inner: metric };
    let dx = (bbox.x_max - bbox.x_min) / width as f64;
    let dy = (bbox.y_max - bbox.y_min) / height as f64;
    let mut point = [0.0f64; 2];
    for py in 0..height {
        point[1] = bbox.y_min + (py as f64 + 0.5) * dy;
        for px in 0..width {
            point[0] = bbox.x_min + (px as f64 + 0.5) * dx;
            let q: &[f64] = &point;
            let p = computer.compute(&adapter, &site_refs, &q);
            visit(px, py, p);
        }
    }
}

/// Adaptive-refinement permutation census.
///
/// Uniform grids miss cells thinner than the pixel pitch — the paper's own
/// caveat about its sampled counts.  This variant starts from a coarse
/// `base × base` grid of squares and recursively subdivides every square
/// whose corners disagree, spending resolution only along cell boundaries
/// (where undiscovered thin cells live).  With the same sample budget it
/// dominates the uniform grid; with `max_depth` extra levels it resolves
/// features `2^max_depth` times thinner than the base pitch.
pub fn adaptive_count<M: Metric<[f64]>>(
    metric: &M,
    sites: &[Vec<f64>],
    bbox: BBox,
    base: usize,
    max_depth: u32,
) -> PackedCountSummary<Permutation> {
    assert!(base >= 2, "need at least a 2x2 base grid");
    assert!(sites.iter().all(|s| s.len() == 2), "adaptive sampling is 2-D");
    let mut computer = DistPermComputer::new(sites.len());
    let site_refs: Vec<&[f64]> = sites.iter().map(std::vec::Vec::as_slice).collect();
    let adapter = SliceMetric { inner: metric };
    let mut counter = PackedPermutationCounter::new(sites.len());
    let mut eval = |x: f64, y: f64, counter: &mut PackedPermutationCounter<Permutation>| {
        let point = [x, y];
        let q: &[f64] = &point;
        let p = computer.compute(&adapter, &site_refs, &q);
        counter.insert(&p);
        p
    };

    // Seed squares from the base lattice.
    let dx = (bbox.x_max - bbox.x_min) / base as f64;
    let dy = (bbox.y_max - bbox.y_min) / base as f64;
    let mut lattice = vec![vec![Permutation::identity(sites.len()); base + 1]; base + 1];
    for (i, row) in lattice.iter_mut().enumerate() {
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = eval(bbox.x_min + i as f64 * dx, bbox.y_min + j as f64 * dy, &mut counter);
        }
    }
    // Work stack: (x0, y0, size_x, size_y, corner perms, depth).
    let mut stack: Vec<(f64, f64, f64, f64, [Permutation; 4], u32)> = Vec::new();
    for i in 0..base {
        for j in 0..base {
            let corners =
                [lattice[i][j], lattice[i + 1][j], lattice[i][j + 1], lattice[i + 1][j + 1]];
            if corners.iter().any(|&c| c != corners[0]) {
                stack.push((
                    bbox.x_min + i as f64 * dx,
                    bbox.y_min + j as f64 * dy,
                    dx,
                    dy,
                    corners,
                    0,
                ));
            }
        }
    }
    while let Some((x0, y0, sx, sy, corners, depth)) = stack.pop() {
        if depth >= max_depth {
            continue;
        }
        let (hx, hy) = (sx / 2.0, sy / 2.0);
        // Five new samples: edge midpoints and the centre.
        let mb = eval(x0 + hx, y0, &mut counter);
        let ml = eval(x0, y0 + hy, &mut counter);
        let mc = eval(x0 + hx, y0 + hy, &mut counter);
        let mr = eval(x0 + sx, y0 + hy, &mut counter);
        let mt = eval(x0 + hx, y0 + sy, &mut counter);
        let quads = [
            (x0, y0, [corners[0], mb, ml, mc]),
            (x0 + hx, y0, [mb, corners[1], mc, mr]),
            (x0, y0 + hy, [ml, mc, corners[2], mt]),
            (x0 + hx, y0 + hy, [mc, mr, mt, corners[3]]),
        ];
        for (qx, qy, qc) in quads {
            if qc.iter().any(|&c| c != qc[0]) {
                stack.push((qx, qy, hx, hy, qc, depth + 1));
            }
        }
    }
    counter.finalize()
}

/// Adapts a `Metric<[f64]>` to the `&[f64]` point type used for zero-copy
/// site references.
struct SliceMetric<'a, M> {
    inner: &'a M,
}

impl<M: Metric<[f64]>> Metric<&[f64]> for SliceMetric<'_, M> {
    type Dist = M::Dist;

    #[inline]
    fn distance(&self, a: &&[f64], b: &&[f64]) -> M::Dist {
        self.inner.distance(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrangement::euclidean_cells;
    use dp_metric::{LInf, L1, L2};

    fn fig_sites() -> Vec<Vec<f64>> {
        // Four sites in general position chosen (by randomized search) so
        // that both the L1 and L2 bisector systems yield the full 18 cells
        // — the configuration class of the paper's Figs 3 and 4.
        vec![vec![0.9867, 0.5630], vec![0.3364, 0.5875], vec![0.4702, 0.8210], vec![0.8423, 0.3812]]
    }

    #[test]
    fn euclidean_grid_count_matches_exact_arrangement() {
        // Integer-scaled copies of the figure sites so the exact counter
        // applies: grid sampling at 500x500 must find all 18 cells.
        let int_sites: Vec<(i64, i64)> = vec![(22, 45), (58, 29), (71, 62), (40, 80)];
        let exact = euclidean_cells(&int_sites);
        assert_eq!(exact, 18);

        let sites: Vec<Vec<f64>> =
            int_sites.iter().map(|&(x, y)| vec![x as f64 / 100.0, y as f64 / 100.0]).collect();
        let bbox = BBox { x_min: -1.0, x_max: 2.0, y_min: -1.0, y_max: 2.0 };
        let counter = grid_count(&L2, &sites, bbox, 500, 500);
        assert_eq!(counter.distinct() as u128, exact);
    }

    #[test]
    fn l1_grid_count_reproduces_figure4() {
        // Fig 4: the same kind of configuration under L1 also yields 18
        // cells (though not the same 18 permutations).
        let sites = fig_sites();
        let bbox = BBox { x_min: -1.5, x_max: 2.5, y_min: -1.5, y_max: 2.5 };
        let l1 = grid_count(&L1, &sites, bbox, 600, 600);
        let l2 = grid_count(&L2, &sites, bbox, 600, 600);
        assert_eq!(l1.distinct(), 18, "L1 cell count");
        assert_eq!(l2.distinct(), 18, "L2 cell count");
        // ... but not the same permutation sets (the paper's observation).
        assert_ne!(l1.permutations(), l2.permutations());
    }

    #[test]
    fn linf_count_is_plausible() {
        let sites = fig_sites();
        let bbox = BBox { x_min: -1.5, x_max: 2.5, y_min: -1.5, y_max: 2.5 };
        let linf = grid_count(&LInf, &sites, bbox, 400, 400);
        assert!(linf.distinct() <= 24);
        assert!(linf.distinct() >= 10);
    }

    #[test]
    fn counts_never_exceed_factorial() {
        let sites = fig_sites();
        let c = grid_count(&L2, &sites, BBox::unit(), 120, 120);
        assert!(c.distinct() <= 24);
        assert_eq!(c.total(), 120 * 120);
    }

    #[test]
    fn bbox_around_contains_sites() {
        let sites = fig_sites();
        let bb = BBox::around(&sites, 0.5);
        for s in &sites {
            assert!(s[0] > bb.x_min && s[0] < bb.x_max);
            assert!(s[1] > bb.y_min && s[1] < bb.y_max);
        }
    }

    #[test]
    fn visitor_sees_every_pixel() {
        let sites = fig_sites();
        let mut n = 0usize;
        for_each_grid_permutation(&L2, &sites, BBox::unit(), 17, 13, |_, _, _| n += 1);
        assert_eq!(n, 17 * 13);
    }

    #[test]
    fn adaptive_finds_all_cells_with_a_coarse_base() {
        // 18 cells, found from a 24x24 base with 6 refinement levels —
        // far fewer samples than the 600x600 uniform grid needs.
        let sites = fig_sites();
        let bbox = BBox { x_min: -1.5, x_max: 2.5, y_min: -1.5, y_max: 2.5 };
        let l2 = crate::sampling::adaptive_count(&L2, &sites, bbox, 24, 6);
        assert_eq!(l2.distinct(), 18, "L2 adaptive");
        assert!(l2.total() < 100_000, "adaptive budget exploded: {} samples", l2.total());
        let l1 = crate::sampling::adaptive_count(&L1, &sites, bbox, 24, 6);
        assert_eq!(l1.distinct(), 18, "L1 adaptive");
    }

    #[test]
    fn adaptive_dominates_uniform_grid_at_equal_budget() {
        // k = 6 sites produce thin cells; compare an 80x80 uniform grid
        // (6400 samples) against adaptive with a similar budget.
        let sites: Vec<Vec<f64>> = vec![
            vec![0.11, 0.21],
            vec![0.83, 0.33],
            vec![0.46, 0.94],
            vec![0.70, 0.69],
            vec![0.26, 0.62],
            vec![0.55, 0.12],
        ];
        let bbox = BBox { x_min: -1.0, x_max: 2.0, y_min: -1.0, y_max: 2.0 };
        let uniform = grid_count(&L2, &sites, bbox, 80, 80);
        let adaptive = adaptive_count(&L2, &sites, bbox, 40, 5);
        assert!(
            adaptive.distinct() >= uniform.distinct(),
            "adaptive {} < uniform {}",
            adaptive.distinct(),
            uniform.distinct()
        );
        // N_{2,2}(6) = 101 bounds both.
        assert!(adaptive.distinct() <= 101);
    }

    #[test]
    fn adaptive_on_uniform_region_samples_only_the_lattice() {
        // One site: a single cell everywhere; no refinement should occur.
        let sites = vec![vec![0.5, 0.5]];
        let c = adaptive_count(&L2, &sites, BBox::unit(), 8, 6);
        assert_eq!(c.distinct(), 1);
        assert_eq!(c.total(), 81);
    }
}
