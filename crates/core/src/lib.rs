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
//!   counts, every storage layout's cost, and the dimension estimates;
//! * [`survey_flat`] — the same survey on flat [`dp_datasets::VectorSet`]
//!   storage through the batched site-transposed kernels and the one
//!   sorted-run counter (`u64` packed keys for k ≤ 12, `u128` packed
//!   keys for k ≤ 25, permutation keys beyond; see
//!   [`count::CountEngine`]),
//!   with distances, ranking and key packing fused into one 32-row
//!   strip tile — bit-identical report, several times the throughput; this is
//!   the engine the CLI uses for vector databases.
//!
//! Both the counting and survey measurements come in two equivalent
//! engines: the generic per-point path for any metric over any point
//! type, and the flat batched path for real-vector data.  The flat path
//! is not an approximation — distances, counts and derived statistics
//! are bit-for-bit equal (enforced by the workspace property suites),
//! so callers may pick purely on storage layout.
//!
//! Each flat measurement has **one entry point**:
//! [`count_permutations_flat_sharded`] and
//! [`survey_flat::survey_database_flat_sharded`], both taking
//! `(threads, shard_rows)`.  `threads = 1` runs inline on the calling
//! thread; more threads split the rows into contiguous chunks whose
//! results merge independently of the split.  `shard_rows = 0` counts
//! in memory, buffering every packed key before the sort; a positive
//! value streams the keys through fixed-size shards (at most
//! `shard_rows` buffered keys plus one `(key, count)` run per distinct
//! permutation).  Neither parameter changes the report — sharded output
//! is bit-identical, floats included, which the root
//! `sharded_equivalence` suite enforces.  On the command line these are
//! `distperm count/survey --threads <n> --shard-rows <n>`.

#![forbid(unsafe_code)]

pub mod count;
pub mod counterexample;
pub mod dimension;
pub mod experiments;
pub mod orders;
pub mod spaces;
pub mod survey;
pub mod survey_flat;

pub use count::{
    count_permutations, count_permutations_flat_sharded, count_permutations_parallel, CountEngine,
    CountReport,
};
pub use counterexample::{eq12_sites, verify_eq12};
pub use dimension::{estimate_dimension, ReferenceProfile};
pub use experiments::{uniform_experiment, MetricKind, UniformExperiment};
pub use orders::{count_distinct_prefixes, refinement_chain, PrefixKind};
pub use spaces::{theoretical_max, SpaceKind};
pub use survey::{survey_database, DatabaseSurvey, SurveyConfig};
pub use survey_flat::survey_database_flat_sharded;
