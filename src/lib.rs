//! # distance-permutations
//!
//! A complete Rust reproduction of Matthew Skala's *Counting distance
//! permutations* (SISAP 2008 / Journal of Discrete Algorithms 2009).
//!
//! Given k fixed reference **sites** in a metric space, the *distance
//! permutation* of a point is the order of the sites by distance from it
//! (ties to the lower site index).  Permutation-based indexes such as the
//! SISAP `distperm` type store exactly that per database element; this
//! workspace reproduces the paper's analysis of **how many distinct
//! distance permutations can occur** — exact recurrences for Euclidean
//! space, the C(k,2)+1 tree-metric bound, O(k^{2d}) bounds for L1/L∞,
//! the all-k!-permutations construction, the experimental tables and the
//! L1 counterexample to Euclidean equivalence.
//!
//! This façade crate re-exports the workspace:
//!
//! * [`metric`] (dp-metric) — metric-space substrate (Lp, strings, trees…)
//! * [`permutation`] (dp-permutation) — the permutation machinery
//! * [`theory`] (dp-theory) — Theorems 4–9 as executable code
//! * [`geometry`] (dp-geometry) — exact bisector arrangements, figures
//! * [`datasets`] (dp-datasets) — synthetic SISAP-style databases
//! * [`index`] (dp-index) — the unified proximity-query API
//!   (`ProximityIndex`/`Searcher` with native per-query stats, parallel
//!   batch serving, build-by-spec) over LinearScan/AESA/LAESA/distperm
//!   (four candidate orderings)/truncated-prefix/iAESA/VP/GH/BK trees,
//!   pivot selection
//! * [`store`] (dp-store) — versioned on-disk index container
//!   (`distperm build` / `--load`): checksummed sections, typed-error
//!   total reader, bit-identical reload
//! * [`core`] (dp-core) — counting, experiments, dimension estimation,
//!   the one-call database survey
//!
//! Storage layouts for permutation columns (raw packed, codebook ids,
//! Huffman entropy coding) live in [`permutation`]; their one codebook
//! is the counting engine's sorted summary
//! ([`permutation::PackedCountSummary`]).  The `distperm`
//! command-line tool (crate `dp-cli`) exposes the measurements on SISAP
//! ASCII files without writing Rust.
//!
//! ## Quickstart
//!
//! ```
//! use distance_permutations::core::count::count_permutations;
//! use distance_permutations::core::spaces::{theoretical_max, SpaceKind};
//! use distance_permutations::datasets::uniform_unit_cube;
//! use distance_permutations::metric::L2;
//!
//! // 2-D uniform data, 5 random sites.
//! let db = uniform_unit_cube(20_000, 2, 7);
//! let sites: Vec<Vec<f64>> = db[..5].to_vec();
//! let report = count_permutations(&L2, &sites, &db, 1);
//!
//! // Theorem 7: at most N_{2,2}(5) = 46 distinct permutations can occur.
//! let max = theoretical_max(SpaceKind::Euclidean { d: 2 }, 5).unwrap();
//! assert!(report.distinct as u128 <= max);
//! assert_eq!(max, 46);
//! ```

#![forbid(unsafe_code)]

pub use dp_core as core;
pub use dp_datasets as datasets;
pub use dp_geometry as geometry;
pub use dp_index as index;
pub use dp_metric as metric;
pub use dp_permutation as permutation;
pub use dp_store as store;
pub use dp_theory as theory;
