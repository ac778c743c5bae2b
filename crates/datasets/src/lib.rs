//! # dp-datasets — synthetic metric-space databases
//!
//! The paper's Table 2 measures distance-permutation counts on the SISAP
//! library's sample databases; those archives are not redistributable
//! here, so this crate generates **synthetic analogues** with the same
//! cardinality, the same metric, and a matched dimensional character
//! (see DESIGN.md §2 for the substitution argument):
//!
//! * [`dictionary`] — per-language letter-Markov word lists
//!   (Dutch…Spanish; Levenshtein metric);
//! * [`genes`] — DNA fragments (`listeria`; Levenshtein metric);
//! * [`documents`] — Zipf-sparse term vectors (`long`, `short`; angular
//!   cosine metric);
//! * [`colors`] — smooth 112-bin colour histograms (`colors`; L2);
//! * [`nasa`] — low-rank 20-dimensional feature vectors (`nasa`; L2);
//! * [`vectors`] — uniform/Gaussian/clustered real vectors, including the
//!   Table 3 generator (10⁶ points uniform in the unit cube);
//! * [`rho`] — the Chávez–Navarro intrinsic dimensionality
//!   ρ = μ²/(2σ²) of the pairwise-distance distribution;
//! * [`table2`] — the roster of Table 2 databases with the paper's
//!   cardinalities.
//!
//! All generators are deterministic in their seed.
//!
//! For bulk vector workloads, [`flat::VectorSet`] stores a whole database
//! as one contiguous row-major `Vec<f64>` — `row(i)` views are free, the
//! data streams linearly through the batched permutation kernels, and the
//! `*_flat` generator variants in [`vectors`] produce coordinates
//! identical to their nested counterparts (same seed, same RNG stream).
//! Prefer `VectorSet` for anything that scans the database (index builds,
//! permutation counting, Table 3 experiments); the nested `Vec<Vec<f64>>`
//! forms remain as a compatibility shim for per-point ownership and for
//! the string/sparse workloads.
//!
//! [`sisap_io`] reads and writes the SISAP library's ASCII file formats,
//! so synthetic sets can be exported and — when available — the original
//! archives loaded into the same harness.

#![forbid(unsafe_code)]

pub mod colors;
mod decimal;
pub mod dictionary;
pub mod documents;
pub mod flat;
pub mod genes;
pub mod nasa;
pub mod rho;
pub mod sisap_io;
pub mod table2;
pub mod vectors;

pub use flat::VectorSet;
pub use rho::{intrinsic_dimensionality, intrinsic_dimensionality_flat};
pub use table2::{table2_roster, Table2Entry, Table2Kind};
pub use vectors::{uniform_unit_cube, uniform_unit_cube_flat};
