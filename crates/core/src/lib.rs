//! # dp-core — counting distance permutations
//!
//! The primary contribution of Skala's *Counting distance permutations*
//! (SISAP'08 / JDA 2009) as a library: given k sites in a metric space,
//! **how many distinct distance permutations occur**, measured exactly,
//! bounded theoretically, and exploited for storage and for
//! dimensionality estimation.
//!
//! * [`count`] — the measurement: distinct-permutation counts over any
//!   database/metric, sequential or parallel;
//! * [`experiments`] — the Table 3 protocol: uniform random vectors,
//!   random database elements as sites, mean/max over runs, for
//!   L1/L2/L∞ and d = 1..10;
//! * [`spaces`] — `theoretical_max`: the paper's per-space maxima
//!   (Theorem 4 for trees, Theorem 7 for Euclidean, Theorem 9 bounds for
//!   L1/L∞, k! in general);
//! * [`dimension`] — the paper's §5 suggestion: estimate a database's
//!   effective dimension by locating its permutation count among the
//!   uniform-vector reference curves;
//! * [`counterexample`] — Eq. 12: the five 3-D L1 sites exceeding the
//!   Euclidean maximum (disproving N_{d,p}(k) = N_{d,2}(k)), plus a
//!   randomised search for further counterexamples;
//! * [`orders`] — §2's refinement chain: nearest-site (Fig 1), order-j
//!   Voronoi (Fig 2) and ordered-prefix cell counts from the same
//!   permutation scan;
//! * [`survey`] — the §5 analysis as one call: ρ, per-k permutation
//!   counts, every storage layout's cost, and the dimension estimates.
//!
//! Both the counting and survey measurements come in two equivalent
//! engines: the generic per-point path for any metric over any point
//! type ([`count_permutations`], [`survey_database`]), and the flat path
//! for real-vector [`dp_datasets::VectorSet`] data
//! ([`count_permutations_flat_sharded`], [`survey_database_flat_sharded`]),
//! which computes, ranks and packs every row in one 32-row strip tile.
//! The flat path is not an approximation — distances, counts and
//! derived statistics are bit-for-bit equal (enforced by the workspace
//! property suites), so callers may pick purely on storage layout.
//!
//! Each entry point takes a `threads` count: 1 runs inline on the
//! calling thread; more split the database into contiguous chunks whose
//! counted runs merge independently of the split.  The flat ones also
//! take `shard_rows`, the keys each worker buffers before sorting them
//! into a run (0 means the default 131,072).  Neither parameter changes
//! the report — floats included, which the root `sharded_equivalence`
//! suite enforces.

#![forbid(unsafe_code)]

pub mod count;
pub mod counterexample;
pub mod dimension;
pub mod experiments;
pub mod orders;
pub mod spaces;
pub mod survey;

pub use count::{count_permutations, count_permutations_flat_sharded, CountEngine, CountReport};
pub use counterexample::{eq12_sites, verify_eq12};
pub use dimension::{estimate_dimension, ReferenceProfile};
pub use experiments::{uniform_experiment, MetricKind, UniformExperiment};
pub use orders::{count_distinct_prefixes, refinement_chain, PrefixKind};
pub use spaces::{theoretical_max, SpaceKind};
pub use survey::{survey_database, survey_database_flat_sharded, DatabaseSurvey, SurveyConfig};
