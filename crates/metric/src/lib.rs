//! # dp-metric — metric-space substrate
//!
//! This crate provides the metric spaces that the paper *Counting distance
//! permutations* (Skala, SISAP'08 / JDA 2009) studies or evaluates on:
//!
//! * **Minkowski vector metrics** L1, L2, L∞ and general Lp over real
//!   vectors ([`vector`]) — the spaces of Theorems 6, 7 and 9 and of the
//!   Table 3 experiments;
//! * **string metrics** — Levenshtein edit distance (the SISAP dictionary
//!   databases of Table 2), Hamming distance, and the paper's *prefix
//!   distance* of Definition 3 ([`string`]);
//! * **sparse-vector angular/cosine distance** — the `long`/`short`
//!   document databases of Table 2 ([`sparse`]);
//! * **weighted tree metrics** of Definition 2 ([`tree`]) — the spaces of
//!   Theorem 4 and Corollary 5 — with O(log n) distance queries;
//! * metric **axiom checking** ([`axioms`]) and Buneman's **four-point
//!   condition** ([`fourpoint`]) used throughout the test suites;
//! * the contiguous-chunk **fork-join** ([`par`]) every data-parallel
//!   scan in the workspace runs on.
//!
//! The central abstractions are [`Metric`] and [`Distance`].  Distances are
//! totally ordered (`Ord`) so that distance permutations — which sort sites
//! by distance and break ties by site index — are well defined without any
//! floating-point `PartialOrd` pitfalls.  Floating-point distances are
//! wrapped in [`F64Dist`], which imposes the IEEE total order after
//! normalising `-0.0` and rejecting NaN.

#![forbid(unsafe_code)]

pub mod axioms;
pub mod batch;
pub mod dist;
pub mod fourpoint;
pub mod par;
pub mod reconstruct;
pub mod sparse;
pub mod string;
pub mod tree;
pub mod vector;

pub use batch::{BatchDistance, TransposedSites, STRIP_POINTS};
pub use dist::{Distance, F64Dist};
pub use reconstruct::{reconstruct_tree, ReconstructedTree};
pub use sparse::{CosineDistance, SparseVec};
pub use string::{Hamming, Levenshtein, PrefixDistance};
pub use tree::{Tree, TreeMetric};
pub use vector::{L2Squared, LInf, Lp, SliceRefMetric, L1, L2};

/// A metric (distance function) over points of type `P`.
///
/// Implementations must satisfy the metric axioms on their intended domain:
/// non-negativity, identity of indiscernibles, symmetry and the triangle
/// inequality.  [`axioms::check_metric`] verifies these on samples and is
/// used by this workspace's property tests.
///
/// The distance type is totally ordered ([`Distance`]), which makes the
/// paper's distance-permutation definition (sort sites by distance, break
/// ties by smaller site index) deterministic.
pub trait Metric<P: ?Sized> {
    /// The totally ordered distance value produced by this metric.
    type Dist: Distance;

    /// Distance between `a` and `b`.
    fn distance(&self, a: &P, b: &P) -> Self::Dist;
}

impl<M: Metric<P>, P: ?Sized> Metric<P> for &M {
    type Dist = M::Dist;

    #[inline]
    fn distance(&self, a: &P, b: &P) -> Self::Dist {
        (**self).distance(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_impl_for_reference_delegates() {
        let m = L1;
        let r = &m;
        let a = [0.0, 0.0];
        let b = [1.0, 2.0];
        assert_eq!(Metric::distance(&r, &a[..], &b[..]), m.distance(&a[..], &b[..]));
    }
}
